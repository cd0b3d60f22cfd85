//! Cross-entropy loss with fused softmax backward.

use dos_tensor::simd::exp;

/// Rows whose sums run interleaved, as independent chains.
const BLOCK: usize = 8;

/// Partial maxima a row's max is folded from.
const PARTS: usize = 16;

/// Mean cross-entropy over `rows` of logits `[rows, vocab]` against integer
/// targets; returns `(loss, dlogits)` where `dlogits = (softmax - onehot)/rows`.
///
/// Rows go eight at a time: both passes' exps are one
/// [`dos_tensor::simd::exp`] over the block, and the block's sums run
/// interleaved, each still one chain from `+0.0` in index order. A row's
/// max is folded from sixteen partial maxima: over values that are not
/// NaN (`f32::max` skips NaN) the max does not depend on the order, except
/// for the sign of a zero max, which neither `v − max` nor `ln(sum) + max`
/// can see.
///
/// # Panics
///
/// Panics if sizes disagree or any target is out of range.
pub fn cross_entropy(logits: &[f32], targets: &[usize], vocab: usize) -> (f32, Vec<f32>) {
    let rows = targets.len();
    assert_eq!(logits.len(), rows * vocab, "bad logits size");
    for &target in targets {
        assert!(target < vocab, "target {target} out of vocab {vocab}");
    }
    let mut dlogits = vec![0.0; logits.len()];
    let mut loss = 0.0f64;
    let inv_rows = 1.0 / rows as f32;
    let blocks = logits.chunks(BLOCK * vocab.max(1)).zip(dlogits.chunks_mut(BLOCK * vocab.max(1)));
    for ((block, dblock), targets) in blocks.zip(targets.chunks(BLOCK)) {
        let mut max = [0.0; BLOCK];
        for (m, row) in max.iter_mut().zip(block.chunks(vocab)) {
            *m = row_max(row);
        }
        // `dblock` holds each pass's exps before it holds the gradient.
        for ((drow, row), m) in dblock.chunks_mut(vocab).zip(block.chunks(vocab)).zip(max) {
            for (d, &v) in drow.iter_mut().zip(row) {
                *d = v - m;
            }
        }
        exp(dblock);
        let sum = interleaved_sums(dblock, vocab);
        let log_sum: [f32; BLOCK] = std::array::from_fn(|r| sum[r].ln() + max[r]);
        for ((row, &target), &ls) in block.chunks(vocab).zip(targets).zip(&log_sum) {
            loss += (ls - row[target]) as f64;
        }
        for ((drow, row), ls) in dblock.chunks_mut(vocab).zip(block.chunks(vocab)).zip(log_sum) {
            for (d, &v) in drow.iter_mut().zip(row) {
                *d = v - ls;
            }
        }
        exp(dblock);
        for (drow, &target) in dblock.chunks_mut(vocab).zip(targets) {
            // `(d − 0.0) · inv_rows` is `d · inv_rows`, bit for bit.
            let t = drow[target];
            for d in drow.iter_mut() {
                *d *= inv_rows;
            }
            drow[target] = (t - 1.0) * inv_rows;
        }
    }
    ((loss / rows as f64) as f32, dlogits)
}

/// `max` folded from `−∞` over [`PARTS`] interleaved partial maxima.
fn row_max(row: &[f32]) -> f32 {
    let mut part = [f32::NEG_INFINITY; PARTS];
    let (chunks, tail) = row.as_chunks::<PARTS>();
    for chunk in chunks {
        for (m, &v) in part.iter_mut().zip(chunk) {
            *m = m.max(v);
        }
    }
    for (m, &v) in part.iter_mut().zip(tail) {
        *m = m.max(v);
    }
    part.into_iter().fold(f32::NEG_INFINITY, f32::max)
}

/// Each row's `+0.0`-started sum in index order, for the up to [`BLOCK`]
/// rows of `block`, all advanced one index at a time. A block of fewer
/// rows sums its first row again in the missing ones' place.
fn interleaved_sums(block: &[f32], vocab: usize) -> [f32; BLOCK] {
    let mut rows = block.chunks_exact(vocab);
    let first = rows.clone().next().unwrap_or(&[]);
    let rows: [&[f32]; BLOCK] = std::array::from_fn(|_| rows.next().unwrap_or(first));
    let mut sum = [0.0f32; BLOCK];
    for i in 0..first.len() {
        for (s, row) in sum.iter_mut().zip(&rows) {
            *s += row[i];
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::tests::assert_same_bits;
    use crate::math::same_bits;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The one-row-at-a-time loop the blocked one replaced, verbatim: the
    /// oracle its bits are held to.
    fn cross_entropy_reference(logits: &[f32], targets: &[usize], vocab: usize) -> (f32, Vec<f32>) {
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

    /// One row of logits of the given kind: plain values across nine
    /// binades; a zero max of either sign (every other value negative);
    /// a few NaNs; all NaN; a `+∞` or a `−∞` among plain values; all `−∞`.
    fn row(rng: &mut StdRng, vocab: usize, kind: u32) -> Vec<f32> {
        let mut row: Vec<f32> = (0..vocab)
            .map(|_| rng.gen_range(-8.0f32..8.0) * f32::powi(2.0, rng.gen_range(-4..5)))
            .collect();
        let at = |row: &mut Vec<f32>, rng: &mut StdRng, v: f32| {
            let i = rng.gen_range(0..vocab);
            row[i] = v;
        };
        match kind {
            0 => {}
            1 | 2 => {
                // ±0 tie for the max: every value ≤ 0, zeros of both signs.
                for v in row.iter_mut() {
                    *v = -v.abs();
                }
                at(&mut row, rng, 0.0);
                at(&mut row, rng, -0.0);
                if kind == 2 {
                    at(&mut row, rng, -0.0);
                }
            }
            3 => {
                at(&mut row, rng, f32::NAN);
                at(&mut row, rng, f32::NAN);
            }
            4 => row.fill(f32::NAN),
            5 => at(&mut row, rng, f32::INFINITY),
            6 => at(&mut row, rng, f32::NEG_INFINITY),
            _ => row.fill(f32::NEG_INFINITY),
        }
        row
    }

    #[test]
    fn blocked_rows_match_the_row_loop_on_special_rows() {
        for vocab in [1, 7, 16, 512, 513] {
            for rows in [1, 5, 8, 13, 17] {
                for seed in 0..4 {
                    let rng = &mut StdRng::seed_from_u64(seed * 1000 + (vocab * 31 + rows) as u64);
                    // Seeds 0 and 1 keep the loss finite (no NaN or `+∞`
                    // row); 2 and 3 draw every kind.
                    let kinds: &[u32] =
                        if seed < 2 { &[0, 1, 2, 6] } else { &[0, 1, 2, 3, 4, 5, 6, 7] };
                    let logits: Vec<f32> = (0..rows)
                        .flat_map(|_| {
                            let kind = kinds[rng.gen_range(0..kinds.len())];
                            row(rng, vocab, kind)
                        })
                        .collect();
                    let targets: Vec<usize> = (0..rows).map(|_| rng.gen_range(0..vocab)).collect();
                    let (loss, d) = cross_entropy(&logits, &targets, vocab);
                    let (want_loss, want_d) = cross_entropy_reference(&logits, &targets, vocab);
                    let what = format!("vocab {vocab} rows {rows} seed {seed}");
                    assert!(same_bits(loss, want_loss), "loss, {what}: {loss} vs {want_loss}");
                    assert_same_bits(&format!("dlogits, {what}"), &d, &want_d);
                }
            }
        }
    }

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
