//! Multi-head causal self-attention with manual backprop.
//!
//! The core between the two projections runs per (batch, head) on
//! register-sized pieces, inside [`avx2_frame`], and gives every bit the
//! plain per-row loops it replaced gave (they survive as this module's
//! test oracle). Scores are kept transposed, `Sᵀ = K·Qᵀ`, so each query
//! row `i` is one SIMD lane: the causal mask, softmax's max fold and its
//! `+0.0`-started sum, and backward's `dot_i` are lane-wise chains over
//! `j`, in the old loop's order. The four products against a `[seq, hd]`
//! operand — `P·V`, `dS·K`, `Pᵀ·dO` and `dSᵀ·Q` — accumulate four output
//! rows at a time in registers, each over exactly the terms the old loop
//! added (`j ≤ i` for a query row, `i ≥ j` for a key row), ascending. A
//! masked term is never added, so a non-finite future-token V or K stays
//! out as it always did.

use std::ops::Range;

use dos_tensor::simd::{avx2_frame, exp};
use rand::Rng;

use crate::linear::Linear;
use crate::param::{Param, VisitParams};

/// Lanes of one accumulator row: two `ymm` registers in the AVX2 frame.
/// A head's rows of `q`, `k`, `v` and `dO` are read this many lanes at a
/// time (lanes past the head's own are the next head's, or zero padding,
/// and are never stored); the query lanes of the score blocks are padded
/// to a multiple of it.
const LANES: usize = 16;

/// Output rows [`rows4`] accumulates together: 4 × [`LANES`] `f32` are
/// eight `ymm` registers, leaving room for the broadcast and the loads.
const ROWS: usize = 4;

/// `out(r)[c..c + LANES] = init + Σ_{q ∈ range(r)} a(r, q) · b(q)[c..c + LANES]`
/// for every row `r < rows` and every `c` in `(0..width).step_by(LANES)`
/// from the chunk holding lane `first_lane(r)` (a block of rows starts at
/// its first row's), handed to `store(r, c, ..)`: `q` ascending, one
/// multiply and one add per term, no FMA — per output, a plain loop's
/// chain. Four rows' accumulators stay in registers for the whole
/// reduction. Across the `q` all four ranges share, every row adds; at
/// the triangle's edge, only the rows whose range holds `q`. Must be
/// inlined into an [`avx2_frame`] closure, accessors included, to be
/// compiled wide.
#[inline(always)]
fn rows4<'b>(
    (rows, width): (usize, usize),
    init: f32,
    range: impl Fn(usize) -> Range<usize>,
    first_lane: impl Fn(usize) -> usize,
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize) -> &'b [f32],
    mut store: impl FnMut(usize, usize, &[f32; LANES]),
) {
    for r0 in (0..rows).step_by(ROWS) {
        let ranges: [Range<usize>; ROWS] =
            std::array::from_fn(|r| if r0 + r < rows { range(r0 + r) } else { 0..0 });
        let live = ranges.iter().filter(|r| !r.is_empty());
        let lo = live.clone().map(|r| r.start).min().unwrap_or(0);
        let hi = live.map(|r| r.end).max().unwrap_or(0);
        // The `q` in every row's range (none while a row is past `rows`).
        let both_lo = ranges.iter().map(|r| r.start).max().unwrap_or(0).clamp(lo, hi);
        let both_hi = ranges.iter().map(|r| r.end).min().unwrap_or(0).clamp(both_lo, hi);
        for c in (first_lane(r0) / LANES * LANES..width).step_by(LANES) {
            let mut acc = [init; ROWS * LANES];
            let bq = |q: usize| -> &[f32; LANES] {
                b(q)[c..].first_chunk().expect("operand rows are padded to whole chunks")
            };
            let (a, ranges) = (&a, &ranges);
            let edge = |q: usize| move |r: usize| ranges[r].contains(&q).then(|| a(r0 + r, q));
            for q in lo..both_lo {
                add_terms(&mut acc, edge(q), bq(q));
            }
            for q in both_lo..both_hi {
                add_terms(&mut acc, |r| Some(a(r0 + r, q)), bq(q));
            }
            for q in both_hi..hi {
                add_terms(&mut acc, edge(q), bq(q));
            }
            for (r, row) in acc.as_chunks::<LANES>().0.iter().enumerate().take(rows - r0) {
                store(r0 + r, c, row);
            }
        }
    }
}

/// One `q` of [`rows4`]: `acc[r] += a(r) · bq` for each row `r` that `a`
/// gives a term for, and `acc[r] += −0.0 · +0.0` for the others: `−0.0`,
/// which leaves every value as it is (`+0.0` too), where `0 · bq` could be
/// NaN. Written as one loop over all `ROWS × LANES` accumulators with the
/// factors spread out to match, so the vectorizer sees a 64-lane loop, as
/// in `math`'s products: a 16-lane loop per row is unrolled into scalar
/// code before it gets there. What reaches the registers is four
/// broadcasts, eight multiplies and eight adds.
#[inline(always)]
fn add_terms(acc: &mut [f32; ROWS * LANES], a: impl Fn(usize) -> Option<f32>, bq: &[f32; LANES]) {
    let mut aa = [0.0; ROWS * LANES];
    let mut bb = [0.0; ROWS * LANES];
    for r in 0..ROWS {
        let (av, b) = a(r).map_or((-0.0, &[0.0; LANES]), |av| (av, bq));
        aa[r * LANES..][..LANES].fill(av);
        bb[r * LANES..][..LANES].copy_from_slice(b);
    }
    for x in 0..ROWS * LANES {
        acc[x] += aa[x] * bb[x];
    }
}

/// `t[x * ld + y] = m[y * stride + x]` for `y < rows`, `x < cols`: the
/// transposed copy a lane-per-row product reads.
#[inline(always)]
fn transpose(m: &[f32], (rows, cols, stride): (usize, usize, usize), t: &mut [f32], ld: usize) {
    for (y, row) in m.chunks(stride).take(rows).enumerate() {
        for (x, &v) in row[..cols].iter().enumerate() {
            t[x * ld + y] = v;
        }
    }
}

/// `dst[..n.min(LANES)] = acc[..]`: a whole chunk as one fixed-size copy,
/// a ragged last one (a head dimension that is not a multiple of
/// [`LANES`]) as a short one.
#[inline(always)]
fn put(dst: &mut [f32], acc: &[f32; LANES], n: usize) {
    match dst.first_chunk_mut::<LANES>() {
        Some(chunk) if n >= LANES => *chunk = *acc,
        _ => dst[..n].copy_from_slice(&acc[..n]),
    }
}

/// Causal softmax over the lanes of a transposed score block `[seq, sp]`:
/// lane `i` of row `j` is query row `i`'s unscaled score for key `j`, and
/// the lanes `i < j` are masked; on return the block holds the
/// probabilities. Per lane this is the old per-row softmax exactly, chain
/// for chain: `s · scale`, or `−∞` where masked; the max folded from `−∞`
/// in `j` order; `s − max`; `exp`; a `+0.0`-started sum in `j` order;
/// `1 / sum`; one multiply. `lanes` is scratch of at least `2 · sp`.
#[inline(always)]
fn softmax_lanes(st: &mut [f32], sp: usize, scale: f32, lanes: &mut [f32]) {
    let (max, sum) = lanes[..2 * sp].split_at_mut(sp);
    max.fill(f32::NEG_INFINITY);
    for (j, row) in st.chunks_exact_mut(sp).enumerate() {
        row[..j].fill(f32::NEG_INFINITY);
        for s in &mut row[j..] {
            *s *= scale;
        }
        for (m, &s) in max.iter_mut().zip(&*row) {
            *m = m.max(s);
        }
    }
    for (j, row) in st.chunks_exact_mut(sp).enumerate() {
        for (s, &m) in row.iter_mut().zip(&*max) {
            *s -= m;
        }
        // The lanes before `j`'s group of eight are masked, and their
        // `exp(−∞ − max)` adds what `+0.0` adds: nothing, or a NaN to a
        // sum that is NaN already (every unmasked score `−∞` or NaN).
        let group = j / 8 * 8;
        row[..group].fill(0.0);
        exp(&mut row[group..]);
    }
    sum.fill(0.0);
    for row in st.chunks_exact(sp) {
        for (t, &e) in sum.iter_mut().zip(row) {
            *t += e;
        }
    }
    for t in sum.iter_mut() {
        *t = 1.0 / *t;
    }
    for row in st.chunks_exact_mut(sp) {
        for (p, &inv) in row.iter_mut().zip(&*sum) {
            *p *= inv;
        }
    }
}

/// Multi-head causal self-attention.
///
/// Input/output shape is `[batch * seq, dim]`; `forward` takes the batch and
/// sequence structure explicitly. Uses a fused QKV projection and an output
/// projection, as in GPT/Megatron blocks.
#[derive(Debug, Clone)]
pub struct CausalSelfAttention {
    /// Fused query/key/value projection `[dim, 3*dim]`.
    pub qkv: Linear,
    /// Output projection `[dim, dim]`.
    pub proj: Linear,
    dim: usize,
    heads: usize,
    // caches: the fused projection's output `[batch * seq, 3 * dim]`,
    // zero-padded so every head's last chunk of a row is in bounds, and
    // the probabilities transposed, `[batch * heads, seq (j), sp (i)]`
    acts: Vec<f32>,
    probs: Vec<f32>,
    batch: usize,
    seq: usize,
}

impl CausalSelfAttention {
    /// Creates an attention module.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not divisible by `heads`.
    pub fn new<R: Rng>(name: &str, dim: usize, heads: usize, std: f32, rng: &mut R) -> Self {
        assert_eq!(dim % heads, 0, "dim must be divisible by heads");
        CausalSelfAttention {
            qkv: Linear::new(&format!("{name}.qkv"), dim, 3 * dim, std, rng),
            proj: Linear::new(&format!("{name}.proj"), dim, dim, std, rng),
            dim,
            heads,
            acts: Vec::new(),
            probs: Vec::new(),
            batch: 0,
            seq: 0,
        }
    }

    /// Head dimension (`dim / heads`).
    pub fn head_dim(&self) -> usize {
        self.dim / self.heads
    }

    /// Forward pass for `batch` sequences of length `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != batch * seq * dim`.
    pub fn forward(&mut self, x: &[f32], batch: usize, seq: usize) -> Vec<f32> {
        assert_eq!(x.len(), batch * seq * self.dim, "bad input size");
        let rows = batch * seq;
        let qkv = self.qkv.forward(x, rows);
        let ctx = self.attend(qkv, batch, seq);
        self.proj.forward(&ctx, rows)
    }

    /// The core's forward: the fused `[batch * seq, 3 * dim]` projection
    /// to the `[batch * seq, dim]` context, keeping what backward reads.
    fn attend(&mut self, mut qkv: Vec<f32>, batch: usize, seq: usize) -> Vec<f32> {
        let (d, h, hd) = (self.dim, self.heads, self.head_dim());
        let (width, sp, stride) = (hd.next_multiple_of(LANES), seq.next_multiple_of(LANES), 3 * d);
        // The last chunk of the last row's last head reads `width − hd`
        // past the end.
        qkv.resize(qkv.len() + width - hd, 0.0);
        // Every lane of it is written before it is read.
        self.probs.resize(batch * h * seq * sp, 0.0);
        let probs = &mut self.probs;
        let mut ctx = vec![0.0; batch * seq * d];
        let mut qt = vec![0.0; hd * sp];
        let mut lanes = vec![0.0; 2 * sp];
        let scale = 1.0 / (hd as f32).sqrt();
        avx2_frame(
            #[inline(always)]
            || {
                for (bh, pt) in probs.chunks_exact_mut(seq * sp).enumerate() {
                    let (b, head) = (bh / h, bh % h);
                    // Row `t` of this head's q, k and v starts at `t * stride`.
                    let at = b * seq * stride + head * hd;
                    let (q, k, v) = (&qkv[at..], &qkv[at + d..], &qkv[at + 2 * d..]);
                    transpose(q, (seq, hd, stride), &mut qt, sp);
                    let qt = &qt[..];
                    // Sᵀ[j][i] = −0.0 + Σ_t k_j[t] · q_i[t], for the lanes `i ≥ j`.
                    rows4(
                        (seq, sp),
                        -0.0,
                        |_| 0..hd,
                        |j| j,
                        #[inline(always)]
                        move |j, t| k[j * stride + t],
                        #[inline(always)]
                        move |t| &qt[t * sp..][..sp],
                        |j, c, acc| put(&mut pt[j * sp + c..], acc, LANES),
                    );
                    softmax_lanes(pt, sp, scale, &mut lanes);
                    let pt = &*pt;
                    // ctx_i = +0.0 + Σ_{j ≤ i} p_ij · v_j.
                    rows4(
                        (seq, width),
                        0.0,
                        |i| 0..i + 1,
                        |_| 0,
                        #[inline(always)]
                        move |i, j| pt[j * sp + i],
                        #[inline(always)]
                        move |j| &v[j * stride..],
                        |i, c, acc| put(&mut ctx[(b * seq + i) * d + head * hd + c..], acc, hd - c),
                    );
                }
            },
        );
        self.acts = qkv;
        self.batch = batch;
        self.seq = seq;
        ctx
    }

    /// Backward pass; returns `dx`.
    ///
    /// # Panics
    ///
    /// Panics if `forward` has not run or `dy` has the wrong size.
    pub fn backward(&mut self, dy: &[f32]) -> Vec<f32> {
        assert!(self.batch > 0, "backward before forward");
        let dctx = self.proj.backward(dy);
        let dqkv = self.attend_backward(dctx);
        self.qkv.backward(&dqkv)
    }

    /// The core's backward: the context's gradient to the fused
    /// projection's, in its `[batch * seq, 3 * dim]` layout.
    fn attend_backward(&self, mut dctx: Vec<f32>) -> Vec<f32> {
        let (batch, seq) = (self.batch, self.seq);
        let (d, h, hd) = (self.dim, self.heads, self.head_dim());
        let (width, sp, stride) = (hd.next_multiple_of(LANES), seq.next_multiple_of(LANES), 3 * d);
        let scale = 1.0 / (hd as f32).sqrt();
        dctx.resize(dctx.len() + width - hd, 0.0);
        let mut dqkv = vec![0.0; batch * seq * stride];
        // One (batch, head)'s dO transposed, dPᵀ (then dSᵀ in place) as
        // [seq, sp], and the lanes' `dot_i`.
        let mut dout_t = vec![0.0; hd * sp];
        let mut dst = vec![0.0; seq * sp];
        let mut dot = vec![0.0; sp];
        avx2_frame(
            #[inline(always)]
            || {
                for (bh, pt) in self.probs.chunks_exact(seq * sp).enumerate() {
                    let (b, head) = (bh / h, bh % h);
                    let at = b * seq * stride + head * hd;
                    let acts = &self.acts;
                    let (q, k, v) = (&acts[at..], &acts[at + d..], &acts[at + 2 * d..]);
                    // Row `i` of this head's dO starts at `i * d`.
                    let dout = &dctx[b * seq * d + head * hd..];
                    transpose(dout, (seq, hd, d), &mut dout_t, sp);
                    let dout_t = &dout_t[..];
                    // Where row `r`'s lanes `c..` of part 0 (q), 1 (k) or
                    // 2 (v) go.
                    let out = |part: usize, r: usize, c: usize| at + r * stride + part * d + c;
                    // dv_j = +0.0 + Σ_{i ≥ j} p_ij · dO_i.
                    rows4(
                        (seq, width),
                        0.0,
                        |j| j..seq,
                        |_| 0,
                        #[inline(always)]
                        move |j, i| pt[j * sp + i],
                        #[inline(always)]
                        move |i| &dout[i * d..],
                        |j, c, acc| put(&mut dqkv[out(2, j, c)..], acc, hd - c),
                    );
                    // dPᵀ[j][i] = −0.0 + Σ_t v_j[t] · dO_i[t], for the lanes `i ≥ j`.
                    rows4(
                        (seq, sp),
                        -0.0,
                        |_| 0..hd,
                        |j| j,
                        #[inline(always)]
                        move |j, t| v[j * stride + t],
                        #[inline(always)]
                        move |t| &dout_t[t * sp..][..sp],
                        |j, c, acc| put(&mut dst[j * sp + c..], acc, LANES),
                    );
                    // dot_i = −0.0 + Σ_{j ≤ i} dp_ij · p_ij, then
                    // ds_ij = (dp_ij − dot_i) · p_ij · scale.
                    // Masked lanes are computed too, but never added: their
                    // `dp` may be NaN (a future token's non-finite `v`).
                    dot.fill(-0.0);
                    for (j, (dp, p)) in dst.chunks_exact(sp).zip(pt.chunks_exact(sp)).enumerate() {
                        for (i, ((o, &dp), &p)) in dot.iter_mut().zip(dp).zip(p).enumerate() {
                            if i >= j {
                                *o += dp * p;
                            }
                        }
                    }
                    for (ds, p) in dst.chunks_exact_mut(sp).zip(pt.chunks_exact(sp)) {
                        for ((ds, &p), &o) in ds.iter_mut().zip(p).zip(&*dot) {
                            *ds = (*ds - o) * p * scale;
                        }
                    }
                    let dst = &dst[..];
                    // dq_i = +0.0 + Σ_{j ≤ i} ds_ij · k_j.
                    rows4(
                        (seq, width),
                        0.0,
                        |i| 0..i + 1,
                        |_| 0,
                        #[inline(always)]
                        move |i, j| dst[j * sp + i],
                        #[inline(always)]
                        move |j| &k[j * stride..],
                        |i, c, acc| put(&mut dqkv[out(0, i, c)..], acc, hd - c),
                    );
                    // dk_j = +0.0 + Σ_{i ≥ j} ds_ij · q_i.
                    rows4(
                        (seq, width),
                        0.0,
                        |j| j..seq,
                        |_| 0,
                        #[inline(always)]
                        move |j, i| dst[j * sp + i],
                        #[inline(always)]
                        move |i| &q[i * stride..],
                        |j, c, acc| put(&mut dqkv[out(1, j, c)..], acc, hd - c),
                    );
                }
            },
        );
        dqkv
    }
}

impl VisitParams for CausalSelfAttention {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.qkv.visit_params(f);
        self.proj.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::tests::{assert_same_bits, on_each_path};
    use crate::testutil::gradcheck;
    use dos_tensor::simd::exp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Numerically stable in-place softmax over each row of an
    /// `[rows, cols]` matrix: the per-row softmax the core's lanes
    /// replaced.
    fn softmax_rows(x: &mut [f32], rows: usize, cols: usize) {
        assert_eq!(x.len(), rows * cols, "x has wrong length");
        for r in 0..rows {
            let row = &mut x[r * cols..(r + 1) * cols];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            for v in row.iter_mut() {
                *v -= max;
            }
            exp(row);
            let sum = row.iter().fold(0.0, |s, v| s + v);
            let inv = 1.0 / sum;
            for v in row.iter_mut() {
                *v *= inv;
            }
        }
    }

    /// The per-row loops the core replaced, verbatim around the fused
    /// projection's layout: the oracle its bits are held to.
    struct Oracle {
        q: Vec<f32>,
        k: Vec<f32>,
        v: Vec<f32>,
        probs: Vec<f32>,
        batch: usize,
        seq: usize,
        dim: usize,
        heads: usize,
    }

    impl Oracle {
        fn forward(
            qkv: &[f32],
            (batch, seq, dim, heads): (usize, usize, usize, usize),
        ) -> (Oracle, Vec<f32>) {
            let d = dim;
            let h = heads;
            let hd = d / h;
            let rows = batch * seq;
            let mut q = vec![0.0; rows * d];
            let mut k = vec![0.0; rows * d];
            let mut v = vec![0.0; rows * d];
            for b in 0..batch {
                for t in 0..seq {
                    let src = &qkv[(b * seq + t) * 3 * d..(b * seq + t + 1) * 3 * d];
                    for head in 0..h {
                        let dst = ((b * h + head) * seq + t) * hd;
                        q[dst..dst + hd].copy_from_slice(&src[head * hd..(head + 1) * hd]);
                        k[dst..dst + hd].copy_from_slice(&src[d + head * hd..d + (head + 1) * hd]);
                        v[dst..dst + hd]
                            .copy_from_slice(&src[2 * d + head * hd..2 * d + (head + 1) * hd]);
                    }
                }
            }
            let scale = 1.0 / (hd as f32).sqrt();
            let mut probs = vec![0.0; batch * h * seq * seq];
            for bh in 0..batch * h {
                let qb = &q[bh * seq * hd..(bh + 1) * seq * hd];
                let kb = &k[bh * seq * hd..(bh + 1) * seq * hd];
                let pb = &mut probs[bh * seq * seq..(bh + 1) * seq * seq];
                for i in 0..seq {
                    for j in 0..seq {
                        pb[i * seq + j] = if j <= i {
                            let qi = &qb[i * hd..(i + 1) * hd];
                            let kj = &kb[j * hd..(j + 1) * hd];
                            qi.iter().zip(kj.iter()).map(|(a, b)| a * b).sum::<f32>() * scale
                        } else {
                            f32::NEG_INFINITY // causal mask
                        };
                    }
                }
                softmax_rows(pb, seq, seq);
            }
            let mut ctx = vec![0.0; rows * d];
            for b in 0..batch {
                for head in 0..h {
                    let bh = b * h + head;
                    let pb = &probs[bh * seq * seq..(bh + 1) * seq * seq];
                    let vb = &v[bh * seq * hd..(bh + 1) * seq * hd];
                    for i in 0..seq {
                        let out = &mut ctx[(b * seq + i) * d + head * hd..][..hd];
                        for j in 0..=i {
                            let p = pb[i * seq + j];
                            let vj = &vb[j * hd..(j + 1) * hd];
                            for (o, vv) in out.iter_mut().zip(vj.iter()) {
                                *o += p * vv;
                            }
                        }
                    }
                }
            }
            (Oracle { q, k, v, probs, batch, seq, dim, heads }, ctx)
        }

        fn backward(&self, dctx: &[f32]) -> Vec<f32> {
            let (batch, seq) = (self.batch, self.seq);
            let d = self.dim;
            let h = self.heads;
            let hd = d / h;
            let scale = 1.0 / (hd as f32).sqrt();
            let mut dq = vec![0.0; batch * h * seq * hd];
            let mut dk = vec![0.0; batch * h * seq * hd];
            let mut dv = vec![0.0; batch * h * seq * hd];
            let mut dprow = vec![0.0f32; seq];
            for b in 0..batch {
                for head in 0..h {
                    let bh = b * h + head;
                    let pb = &self.probs[bh * seq * seq..(bh + 1) * seq * seq];
                    let vb = &self.v[bh * seq * hd..(bh + 1) * seq * hd];
                    let qb = &self.q[bh * seq * hd..(bh + 1) * seq * hd];
                    let kb = &self.k[bh * seq * hd..(bh + 1) * seq * hd];
                    for i in 0..seq {
                        let dout = &dctx[(b * seq + i) * d + head * hd..][..hd];
                        for j in 0..=i {
                            let vj = &vb[j * hd..(j + 1) * hd];
                            dprow[j] = dout.iter().zip(vj.iter()).map(|(a, b)| a * b).sum();
                            let p = pb[i * seq + j];
                            let dvj = &mut dv[bh * seq * hd + j * hd..][..hd];
                            for (dvv, o) in dvj.iter_mut().zip(dout.iter()) {
                                *dvv += p * o;
                            }
                        }
                        let dot: f32 = (0..=i).map(|j| dprow[j] * pb[i * seq + j]).sum();
                        for j in 0..=i {
                            let ds = (dprow[j] - dot) * pb[i * seq + j] * scale;
                            let kj = &kb[j * hd..(j + 1) * hd];
                            let qi = &qb[i * hd..(i + 1) * hd];
                            let dqi = &mut dq[bh * seq * hd + i * hd..][..hd];
                            for (dqv, kv) in dqi.iter_mut().zip(kj.iter()) {
                                *dqv += ds * kv;
                            }
                            let dkj = &mut dk[bh * seq * hd + j * hd..][..hd];
                            for (dkv, qv) in dkj.iter_mut().zip(qi.iter()) {
                                *dkv += ds * qv;
                            }
                        }
                    }
                }
            }
            let rows = batch * seq;
            let mut dqkv = vec![0.0; rows * 3 * d];
            for b in 0..batch {
                for t in 0..seq {
                    let dst = &mut dqkv[(b * seq + t) * 3 * d..(b * seq + t + 1) * 3 * d];
                    for head in 0..h {
                        let src = ((b * h + head) * seq + t) * hd;
                        dst[head * hd..(head + 1) * hd].copy_from_slice(&dq[src..src + hd]);
                        dst[d + head * hd..d + (head + 1) * hd]
                            .copy_from_slice(&dk[src..src + hd]);
                        dst[2 * d + head * hd..2 * d + (head + 1) * hd]
                            .copy_from_slice(&dv[src..src + hd]);
                    }
                }
            }
            dqkv
        }
    }

    /// Inputs on which a wrong order, start or mask shows: a quarter `±0.0`
    /// and subnormals, and — with `wild` — one element in 128 `±∞` or NaN,
    /// the rest finite across seven binades.
    fn salted(rng: &mut StdRng, len: usize, wild: bool) -> Vec<f32> {
        const SUBNORMAL: f32 = 1.0e-40;
        (0..len)
            .map(|_| match rng.gen_range(0..128u32) {
                0 if wild => {
                    [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][rng.gen_range(0..3usize)]
                }
                1..=32 => [0.0, -0.0, SUBNORMAL, -SUBNORMAL][rng.gen_range(0..4usize)],
                _ => rng.gen_range(-2.0f32..2.0) * f32::powi(2.0, rng.gen_range(-3..4)),
            })
            .collect()
    }

    /// The core against its oracle at one shape on salted `q`, `k`, `v`
    /// and two salted `dO`s (backward runs twice on one forward): the
    /// context and both fused-layout gradients, bit for bit. Seeds `≡ 1`
    /// mod 4 also make the last token's `k` and `v` non-finite (a future
    /// token to every other row, so the mask must keep it out) and put a
    /// `−∞` score in the first sequence.
    #[track_caller]
    fn core_agrees(hd: usize, seq: usize, batch: usize, seed: u64) {
        const HEADS: usize = 2;
        let dim = HEADS * hd;
        let rng = &mut StdRng::seed_from_u64(seed);
        let wild = seed.is_multiple_of(2);
        let mut qkv = salted(rng, batch * seq * 3 * dim, wild);
        if seed % 4 == 1 {
            for b in 0..batch {
                let last = &mut qkv[(b * seq + seq - 1) * 3 * dim..][..3 * dim];
                last[dim..].iter_mut().step_by(3).for_each(|x| {
                    *x = [f32::INFINITY, f32::NAN, f32::NEG_INFINITY][b % 3];
                });
            }
            // q₀ · k₀ = +∞ · −1 in the first head's first lane.
            qkv[0] = f32::INFINITY;
            qkv[dim] = -1.0;
        }
        let mut attn = CausalSelfAttention::new("a", dim, HEADS, 0.1, rng);
        let ctx = attn.attend(qkv.clone(), batch, seq);
        let (oracle, want) = Oracle::forward(&qkv, (batch, seq, dim, HEADS));
        let what = format!("hd {hd} seq {seq} batch {batch} seed {seed}");
        assert_same_bits(&format!("ctx, {what}"), &ctx, &want);
        for call in 0..2 {
            let dctx = salted(rng, batch * seq * dim, wild);
            let got = attn.attend_backward(dctx.clone());
            assert_same_bits(&format!("dqkv #{call}, {what}"), &got, &oracle.backward(&dctx));
        }
    }

    /// Every shape, each with two of the four input classes (seed mod 4:
    /// wild, mild with non-finite future `k`/`v`, wild, mild), rotating so
    /// that every class meets every head dimension and every length. The
    /// core has one path on every host — `AVX2_ONLY` pins only the
    /// products — so it runs once; the module test below runs both.
    #[test]
    fn core_matches_the_per_row_loops_on_salted_inputs() {
        let shapes = [1, 4, 8, 16, 24].into_iter().flat_map(|hd| {
            [1, 3, 8, 31, 32, 33, 64]
                .into_iter()
                .flat_map(move |seq| [1, 4].map(|batch| (hd, seq, batch)))
        });
        for (n, (hd, seq, batch)) in shapes.enumerate() {
            for class in [n % 4, (n + 1) % 4] {
                core_agrees(hd, seq, batch, (8 * n + class) as u64);
            }
        }
    }

    /// The whole module against the oracle between the same two
    /// projections (a clone of it): outputs, `dx` and every parameter
    /// gradient after two forward/backward rounds accumulate into them.
    #[test]
    fn module_matches_the_oracle_composition_over_two_backward_calls() {
        on_each_path("the attention module", |_| {
            let shapes = [(64, 4, 4, 32), (16, 2, 2, 8), (48, 2, 1, 33), (8, 8, 3, 5)];
            for (i, (dim, heads, batch, seq)) in shapes.into_iter().enumerate() {
                let rng = &mut StdRng::seed_from_u64(i as u64);
                let mut attn = CausalSelfAttention::new("a", dim, heads, 0.3, rng);
                let mut twin = attn.clone();
                for round in 0..2 {
                    let x = salted(rng, batch * seq * dim, false);
                    let dy = salted(rng, batch * seq * dim, false);
                    let y = attn.forward(&x, batch, seq);
                    let dx = attn.backward(&dy);
                    let rows = batch * seq;
                    let qkv = twin.qkv.forward(&x, rows);
                    let (oracle, ctx) = Oracle::forward(&qkv, (batch, seq, dim, heads));
                    let want_y = twin.proj.forward(&ctx, rows);
                    let dqkv = oracle.backward(&twin.proj.backward(&dy));
                    let want_dx = twin.qkv.backward(&dqkv);
                    let what =
                        format!("dim {dim} heads {heads} batch {batch} seq {seq} round {round}");
                    assert_same_bits(&format!("y, {what}"), &y, &want_y);
                    assert_same_bits(&format!("dx, {what}"), &dx, &want_dx);
                    assert_same_bits(
                        &format!("grads, {what}"),
                        &attn.gather_grads(),
                        &twin.gather_grads(),
                    );
                }
            }
        });
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut x = vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0];
        softmax_rows(&mut x, 2, 3);
        for r in 0..2 {
            let s: f32 = x[r * 3..(r + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        assert!(x[2] > x[1] && x[1] > x[0]);
    }

    #[test]
    fn softmax_is_stable_for_large_inputs() {
        let mut x = vec![1000.0, 1001.0];
        softmax_rows(&mut x, 1, 2);
        assert!(x.iter().all(|v| v.is_finite()));
        assert!((x[0] + x[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn output_shape_matches_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut attn = CausalSelfAttention::new("a", 8, 2, 0.2, &mut rng);
        let x = vec![0.1; 2 * 3 * 8];
        let y = attn.forward(&x, 2, 3);
        assert_eq!(y.len(), x.len());
        assert_eq!(attn.head_dim(), 4);
    }

    #[test]
    fn causality_later_tokens_do_not_affect_earlier_outputs() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut attn = CausalSelfAttention::new("a", 4, 2, 0.3, &mut rng);
        let mut x: Vec<f32> = (0..3 * 4).map(|i| (i as f32).sin()).collect();
        let y1 = attn.forward(&x, 1, 3);
        // Change only the last token.
        for v in x[2 * 4..].iter_mut() {
            *v += 1.0;
        }
        let y2 = attn.forward(&x, 1, 3);
        // Tokens 0 and 1 unchanged, token 2 changed.
        assert_eq!(&y1[..8], &y2[..8]);
        assert_ne!(&y1[8..], &y2[8..]);
    }

    #[test]
    fn gradcheck_attention() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut attn = CausalSelfAttention::new("a", 4, 2, 0.4, &mut rng);
        let x: Vec<f32> = (0..2 * 2 * 4).map(|i| (i as f32 * 0.37).cos()).collect();
        let (batch, seq) = (2usize, 2usize);
        gradcheck(
            &mut attn,
            &x,
            batch * seq,
            move |m, x, _| m.forward(x, batch, seq),
            |m, dy| m.backward(dy),
            3e-2,
        );
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn heads_must_divide_dim() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = CausalSelfAttention::new("a", 6, 4, 0.1, &mut rng);
    }
}
