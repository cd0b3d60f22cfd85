//! Order statistics: the median, and the tail percentile that still has ten
//! samples beyond it. (Quartile spreads over ten runs are taken by
//! `tools/ten_runs.py` with Python's `statistics.quantiles`, the driver's own
//! function.)

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest whole percentile of `values` that still has at least ten
/// samples beyond it, with its value: `(percentile, value)`. With fewer
/// than twenty samples the median is the highest such point, so
/// `(50, median)` is returned.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn tail_percentile(values: &[f64]) -> (u32, f64) {
    assert!(!values.is_empty(), "tail of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    let n = v.len();
    // Percentile p sits at sorted index ceil(p/100 * n) - 1 (nearest
    // rank); "ten samples beyond it" means index <= n - 11.
    let mut best = None;
    for p in (51..=99u32).rev() {
        let rank = (p as usize * n).div_ceil(100);
        if rank >= 1 && rank + 10 <= n {
            best = Some((p, v[rank - 1]));
            break;
        }
    }
    best.unwrap_or((50, median(&v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 1000 samples: p99 sits at rank 990, ten samples beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), (99, 990.0));
        // 100 samples: p90 at rank 90 leaves exactly ten beyond.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), (90, 90.0));
        // 40 samples: rank <= 30 -> p75.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), (75, 30.0));
        // Too few samples for any tail: the median.
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), (50, 6.5));
    }
}
