//! Cross-entropy loss with fused softmax backward.

use dos_tensor::simd::exp;

/// Mean cross-entropy over `rows` of logits `[rows, vocab]` against integer
/// targets; returns `(loss, dlogits)` where `dlogits = (softmax - onehot)/rows`.
/// Both passes' exps are [`dos_tensor::simd::exp`] over the row; the sum
/// stays one sequential chain in index order.
///
/// # Panics
///
/// Panics if sizes disagree or any target is out of range.
pub fn cross_entropy(logits: &[f32], targets: &[usize], vocab: usize) -> (f32, Vec<f32>) {
    let rows = targets.len();
    assert_eq!(logits.len(), rows * vocab, "bad logits size");
    let mut dlogits = vec![0.0; logits.len()];
    let mut loss = 0.0f64;
    let inv_rows = 1.0 / rows as f32;
    for r in 0..rows {
        let row = &logits[r * vocab..(r + 1) * vocab];
        let target = targets[r];
        assert!(target < vocab, "target {target} out of vocab {vocab}");
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        // `drow` holds each pass's exps before it holds the gradient.
        let drow = &mut dlogits[r * vocab..(r + 1) * vocab];
        for (d, &v) in drow.iter_mut().zip(row) {
            *d = v - max;
        }
        exp(drow);
        let sum = drow.iter().fold(0.0f32, |s, &e| s + e);
        let log_sum = sum.ln() + max;
        loss += (log_sum - row[target]) as f64;
        for (d, &v) in drow.iter_mut().zip(row) {
            *d = v - log_sum;
        }
        exp(drow);
        for (i, d) in drow.iter_mut().enumerate() {
            *d = (*d - if i == target { 1.0 } else { 0.0 }) * inv_rows;
        }
    }
    ((loss / rows as f64) as f32, dlogits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_vocab() {
        let (loss, _) = cross_entropy(&[0.0; 8], &[0, 3], 4);
        assert!((loss - (4.0f32).ln()).abs() < 1e-6);
    }

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let logits = vec![10.0, 0.0, 0.0];
        let (loss, d) = cross_entropy(&logits, &[0], 3);
        assert!(loss < 1e-3);
        // Gradient pushes the correct logit up (negative grad) only slightly.
        assert!(d[0] < 0.0 && d[0].abs() < 1e-3);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let logits = vec![0.3, -0.7, 1.2, 0.1, 0.9, -0.2];
        let targets = [2usize, 0];
        let (_, d) = cross_entropy(&logits, &targets, 3);
        let h = 1e-3;
        for i in 0..logits.len() {
            let mut lp = logits.clone();
            lp[i] += h;
            let mut lm = logits.clone();
            lm[i] -= h;
            let fd = (cross_entropy(&lp, &targets, 3).0 - cross_entropy(&lm, &targets, 3).0)
                / (2.0 * h);
            assert!((d[i] - fd).abs() < 1e-3, "grad[{i}]: {} vs {fd}", d[i]);
        }
    }

    #[test]
    fn gradients_sum_to_zero_per_row() {
        let logits = vec![0.5, 1.5, -0.5, 2.0, 0.0, 1.0];
        let (_, d) = cross_entropy(&logits, &[1, 2], 3);
        for r in 0..2 {
            let s: f32 = d[r * 3..(r + 1) * 3].iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "out of vocab")]
    fn rejects_bad_target() {
        cross_entropy(&[0.0; 3], &[5], 3);
    }

    #[test]
    fn is_stable_for_large_logits() {
        let (loss, d) = cross_entropy(&[1000.0, 999.0], &[0], 2);
        assert!(loss.is_finite());
        assert!(d.iter().all(|v| v.is_finite()));
    }
}
