//! Dense kernels used by the layers.
//!
//! All matrices are row-major `&[f32]` slices with explicit dimensions.
//!
//! The three matrix products are one computation,
//! `c[r, j] = init + Σ_q a(r, q) · b[q, j]`, and share one register-tiled
//! kernel (`gemm`). Where the host reports `avx512f`, each full 64-column
//! tile is computed four rows at a time by [`dos_tensor::simd::gemm_tile`]:
//! 4 × 64 accumulators in 16 `zmm` registers for the whole reduction. The
//! rows left over and the columns past the last full tile — and every
//! output on a host without `avx512f` — take a one-row loop that the
//! wrappers run inside [`dos_tensor::simd::avx2_frame`], so it is compiled
//! at the vector width the host CPU reports.
//! [`dos_tensor::kernels::dispatch_path`] names both paths. Every output
//! bit is what the plain loops they replaced produced (they survive as the
//! `*_reference` test oracles), because both paths keep, per output
//! element, the three things the bits depend on:
//!
//! * **the order of the reduction** — `q` ascending, one multiply and one
//!   add per term, no FMA (it rounds once where these round twice), no
//!   reassociation; only *which outputs are computed together* changed;
//! * **the initial value** — `+0.0` for [`matmul`], the existing `c` for
//!   [`matmul_at_b_acc`], and `−0.0` for [`matmul_a_bt`] (what
//!   `Iterator::sum::<f32>()` starts from);
//! * **the zero-skip** — [`matmul`] and [`matmul_at_b_acc`] skip a term
//!   whose `a` is zero, [`matmul_a_bt`] does not. Neither is bit-neutral:
//!   a `+0.0` product turns a `−0.0` accumulator into `+0.0`, and `0 · ∞`
//!   is NaN.
//!
//! "Every bit" means every bit of every non-NaN output, and NaN exactly
//! where the plain loops give NaN. Which NaN *payload* comes out of
//! `NaN + NaN` is the operand order the compiler happened to pick, not a
//! property of the source, so it is outside the contract.

use dos_tensor::simd::{avx2_frame, gemm_tile, tanh, TILE_COLS, TILE_ROWS};

/// Accumulators one output row keeps in registers across a whole
/// reduction: 64 `f32` are 8 of the 16 `ymm` registers an AVX2 frame has,
/// leaving room for the broadcast `a` and the `b` loads — and 4 of the 32
/// `zmm` registers, times [`TILE_ROWS`] rows, in the 512-bit tile.
/// Measured, not configurable.
const TILE: usize = TILE_COLS;

/// `acc[t] += a(q) · b(q)[t]` for `q` in `0..red`, ascending, skipping the
/// terms with a zero `a(q)` when `SKIP_ZERO`. Inlined into [`gemm`] twice:
/// over a `TILE`-long array that stays in registers, and over the ragged
/// tail of a row of `c` itself.
#[inline(always)]
fn accumulate<'b, const SKIP_ZERO: bool>(
    acc: &mut [f32],
    red: usize,
    a: impl Fn(usize) -> f32,
    b: impl Fn(usize) -> &'b [f32],
) {
    for q in 0..red {
        let av = a(q);
        if SKIP_ZERO && av == 0.0 {
            continue;
        }
        for (cv, bv) in acc.iter_mut().zip(b(q)) {
            *cv += av * bv;
        }
    }
}

/// The one kernel behind the three products:
/// `c[r, j] = init + Σ_q a(r, q) · b[q, j]` for a `[rows, n]` `c`, where
/// `init` is the given constant or, for `None`, the value `c[r, j]`
/// already holds, and `b(j0, w, q)` is `b[q, j0..j0 + w]`.
///
/// Column tiles are outermost, so one `red × TILE` panel of `b` serves
/// every row before the next is touched. A full tile goes to
/// [`gemm_tile`] [`TILE_ROWS`] rows at a time while the host has it; the
/// rows left over keep each row's `TILE` accumulators in registers for
/// the whole reduction and store them once, and the columns past the last
/// full tile take the same loop directly on `c`. Must be inlined into an
/// [`avx2_frame`] closure, accessors included, to be compiled wide.
#[inline(always)]
fn gemm<'b, const SKIP_ZERO: bool>(
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize, usize) -> &'b [f32],
    c: &mut [f32],
    (rows, red, n): (usize, usize, usize),
    init: Option<f32>,
) {
    for j0 in (0..n).step_by(TILE) {
        let w = TILE.min(n - j0);
        let mut r0 = 0;
        while w == TILE && r0 + TILE_ROWS <= rows && offer_512() {
            let mut acc = [[0.0f32; TILE]; TILE_ROWS];
            for (i, row) in acc.iter_mut().enumerate() {
                match init {
                    Some(v) => row.fill(v),
                    None => row.copy_from_slice(&c[(r0 + i) * n + j0..][..TILE]),
                }
            }
            let ran = gemm_tile::<SKIP_ZERO>(
                &mut acc,
                red,
                #[inline(always)]
                |q| std::array::from_fn(|i| a(r0 + i, q)),
                #[inline(always)]
                |q| b(j0, TILE, q).first_chunk().expect("a full tile's panel row"),
            );
            if !ran {
                break;
            }
            for (i, row) in acc.iter().enumerate() {
                c[(r0 + i) * n + j0..][..TILE].copy_from_slice(row);
            }
            r0 += TILE_ROWS;
        }
        for r in r0..rows {
            let out = &mut c[r * n + j0..][..w];
            if let Some(v) = init {
                out.fill(v);
            }
            if w == TILE {
                let mut acc = [0.0f32; TILE];
                acc.copy_from_slice(out);
                accumulate::<SKIP_ZERO>(
                    &mut acc,
                    red,
                    #[inline(always)]
                    |q| a(r, q),
                    // Re-sliced to the constant so the inner loop unrolls
                    // over the registers `acc` becomes.
                    #[inline(always)]
                    |q| &b(j0, TILE, q)[..TILE],
                );
                out.copy_from_slice(&acc);
            } else {
                accumulate::<SKIP_ZERO>(
                    out,
                    red,
                    #[inline(always)]
                    |q| a(r, q),
                    #[inline(always)]
                    |q| b(j0, w, q),
                );
            }
        }
    }
}

/// `c = a · b` where `a` is `[m, k]`, `b` is `[k, n]`, `c` is `[m, n]`.
///
/// # Panics
///
/// Panics if the slice lengths do not match the dimensions.
pub fn matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "a has wrong length");
    assert_eq!(b.len(), k * n, "b has wrong length");
    assert_eq!(c.len(), m * n, "c has wrong length");
    avx2_frame(
        #[inline(always)]
        || {
            gemm::<true>(
                #[inline(always)]
                move |i, p| a[i * k + p],
                #[inline(always)]
                move |j0, w, p| &b[p * n + j0..][..w],
                c,
                (m, k, n),
                Some(0.0),
            )
        },
    );
}

/// `c += aᵀ · b` where `a` is `[m, k]`, `b` is `[m, n]`, `c` is `[k, n]`.
/// (Gradient of a weight matrix: `dW += xᵀ · dy`.)
///
/// # Panics
///
/// Panics if the slice lengths do not match the dimensions.
pub fn matmul_at_b_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "a has wrong length");
    assert_eq!(b.len(), m * n, "b has wrong length");
    assert_eq!(c.len(), k * n, "c has wrong length");
    avx2_frame(
        #[inline(always)]
        || {
            gemm::<true>(
                #[inline(always)]
                move |p, i| a[i * k + p],
                #[inline(always)]
                move |j0, w, i| &b[i * n + j0..][..w],
                c,
                (k, m, n),
                None,
            )
        },
    );
}

/// `c = a · bᵀ` where `a` is `[m, n]`, `b` is `[k, n]`, `c` is `[m, k]`.
/// (Gradient of an input: `dx = dy · Wᵀ`.)
///
/// # Panics
///
/// Panics if the slice lengths do not match the dimensions.
pub fn matmul_a_bt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
    matmul_a_bt_with(a, b, c, m, n, k, &mut Vec::new());
}

/// [`matmul_a_bt`] writing `bᵀ` into a buffer the caller keeps between
/// calls, so a layer's backward allocates nothing for it. What the buffer
/// holds on entry does not matter.
pub(crate) fn matmul_a_bt_with(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    bt: &mut Vec<f32>,
) {
    assert_eq!(a.len(), m * n, "a has wrong length");
    assert_eq!(b.len(), k * n, "b has wrong length");
    assert_eq!(c.len(), m * k, "c has wrong length");
    // Over `bᵀ` this is the other two products' computation: a row of
    // outputs accumulated together, each still one `q`-ascending chain.
    // `bᵀ` is written panel by panel — the `n × w` block of columns
    // `j0..j0 + w` contiguous, in the order `gemm` reads it — so a tile's
    // panel is one dense run of memory instead of `n` rows `k` apart.
    bt.resize(n * k, 0.0);
    for (p, brow) in b.chunks_exact(n.max(1)).enumerate() {
        let (j0, t) = (p - p % TILE, p % TILE);
        let w = TILE.min(k - j0);
        for (q, &bv) in brow.iter().enumerate() {
            bt[j0 * n + q * w + t] = bv;
        }
    }
    let bt = &bt[..];
    avx2_frame(
        #[inline(always)]
        || {
            gemm::<false>(
                #[inline(always)]
                move |i, q| a[i * n + q],
                #[inline(always)]
                move |j0, w, q| &bt[j0 * n + q * w..][..w],
                c,
                (m, n, k),
                Some(-0.0),
            )
        },
    );
}

/// `sqrt(2/π)`, the scale inside GELU's tanh.
const GELU_C: f32 = 0.797_884_6;

/// `√(2/π) · (x + 0.044715 x³)`, the argument of GELU's tanh.
pub(crate) fn gelu_arg(x: f32) -> f32 {
    GELU_C * (x + 0.044715 * x * x * x)
}

/// The `tanh(gelu_arg(x))` both [`gelu`] and [`gelu_grad`] are functions
/// of: the one transcendental of the pair, which a layer computes in
/// forward (over a whole activation, through [`dos_tensor::simd::tanh`],
/// as this does for one) and keeps for backward.
pub(crate) fn gelu_tanh(x: f32) -> f32 {
    let mut t = [gelu_arg(x)];
    tanh(&mut t);
    t[0]
}

/// [`gelu`] given `t = gelu_tanh(x)`.
pub(crate) fn gelu_from_tanh(x: f32, t: f32) -> f32 {
    0.5 * x * (1.0 + t)
}

/// [`gelu_grad`] given `t = gelu_tanh(x)`.
pub(crate) fn gelu_grad_from_tanh(x: f32, t: f32) -> f32 {
    let du = GELU_C * (1.0 + 3.0 * 0.044715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

/// The tanh-approximated GELU used by GPT-family models.
pub fn gelu(x: f32) -> f32 {
    gelu_from_tanh(x, gelu_tanh(x))
}

/// Exact derivative of [`gelu`] (of the tanh approximation).
pub fn gelu_grad(x: f32) -> f32 {
    gelu_grad_from_tanh(x, gelu_tanh(x))
}

/// Whether `gemm` offers its full tiles to [`gemm_tile`]: always, but in
/// the tests that pin the one-row loop (`tests::AVX2_ONLY`).
#[cfg(not(test))]
#[inline(always)]
fn offer_512() -> bool {
    true
}

#[cfg(test)]
#[inline(always)]
fn offer_512() -> bool {
    !tests::AVX2_ONLY.get()
}

/// Where the GELU tests look: a grid over the curved part, the saturated
/// tails where `tanh` is exactly `±1`, both zeros, the smallest and largest
/// magnitudes, `±∞` and NaN.
#[cfg(test)]
pub(crate) fn gelu_sweep() -> Vec<f32> {
    let grid = (-384..=384).map(|i| i as f32 / 32.0);
    let edges = [0.0, 1.0e-40, f32::MIN_POSITIVE, 20.0, 1.0e4, 1.0e20, f32::MAX, f32::INFINITY];
    grid.chain(edges.into_iter().flat_map(|x| [x, -x])).chain([f32::NAN]).collect()
}

/// The contract the bit-identity tests hold outputs to: bit-equal,
/// NaN ≡ NaN (a payload is the compiler's operand order, not the source's).
#[cfg(test)]
pub(crate) fn same_bits(got: f32, want: f32) -> bool {
    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    thread_local! {
        /// Set while a test pins the one-row loop on a host that also has
        /// the 512-bit tile, so both paths are held to the twins here.
        pub(super) static AVX2_ONLY: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    // The three loops `gemm` replaced, verbatim: the oracles its bits are
    // held to on both paths. Compiled for tests only.

    fn matmul_reference(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        c.fill(0.0);
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                if av == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                let crow = &mut c[i * n..(i + 1) * n];
                for (cv, bv) in crow.iter_mut().zip(brow.iter()) {
                    *cv += av * bv;
                }
            }
        }
    }

    fn matmul_at_b_acc_reference(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                if av == 0.0 {
                    continue;
                }
                let brow = &b[i * n..(i + 1) * n];
                let crow = &mut c[p * n..(p + 1) * n];
                for (cv, bv) in crow.iter_mut().zip(brow.iter()) {
                    *cv += av * bv;
                }
            }
        }
    }

    fn matmul_a_bt_reference(a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
        for i in 0..m {
            let arow = &a[i * n..(i + 1) * n];
            for p in 0..k {
                let brow = &b[p * n..(p + 1) * n];
                c[i * k + p] = arow.iter().zip(brow.iter()).map(|(x, y)| x * y).sum();
            }
        }
    }

    #[track_caller]
    pub(crate) fn assert_same_bits(what: &str, got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                same_bits(*g, *w),
                "{what}[{i}]: {g:e} ({:#010x}) vs reference {w:e} ({:#010x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// Inputs on which a wrong start, order or skip shows: a quarter `±0.0`
    /// and subnormals, one element in 256 `±∞` or NaN, the rest finite
    /// across thirteen binades.
    fn salted(rng: &mut StdRng, len: usize) -> Vec<f32> {
        const SUBNORMAL: f32 = 1.0e-40;
        (0..len)
            .map(|_| match rng.gen_range(0..256u32) {
                0 => [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][rng.gen_range(0..3usize)],
                1..=64 => [0.0, -0.0, SUBNORMAL, -SUBNORMAL][rng.gen_range(0..4usize)],
                _ => rng.gen_range(-2.0f32..2.0) * f32::powi(2.0, rng.gen_range(-6..7)),
            })
            .collect()
    }

    #[derive(Clone, Copy, Debug)]
    enum Product {
        Matmul,
        AtBAcc,
        ABt,
    }

    /// The two ways `gemm` computes an output.
    #[derive(Clone, Copy, Debug)]
    pub(crate) enum Path {
        /// Full 4-row blocks of full column tiles on `gemm_tile`, the rest
        /// on the one-row loop: what runs on a host with `avx512f`.
        Tile512,
        /// Every output on the one-row loop in the AVX2 frame: what runs on
        /// a host without `avx512f`.
        Avx2Frame,
    }

    /// Runs `check` on both paths: the one-row loop pinned, then the
    /// 512-bit tile where the host has it, or a skip line naming what was
    /// not run where it does not.
    pub(crate) fn on_each_path(what: &str, check: impl Fn(Path)) {
        AVX2_ONLY.set(true);
        check(Path::Avx2Frame);
        AVX2_ONLY.set(false);
        if dos_tensor::kernels::dispatch_path().ends_with("avx512f+fma products, tanh, exp") {
            check(Path::Tile512);
        } else {
            println!("skipped: {what} on the 512-bit tile (this host reports no avx512f and fma)");
        }
    }

    /// One wrapper against its twin at one `[rows, red] × [red, width]`
    /// problem, on salted inputs drawn from `seed`, on the path in force.
    #[track_caller]
    fn twin_agrees(product: Product, rows: usize, red: usize, width: usize, seed: u64, path: Path) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let (a, b) = (salted(rng, rows * red), salted(rng, red * width));
        // `matmul_at_b_acc` starts from what `c` holds; for the two that
        // overwrite it, its prior contents must not reach the result.
        let (mut got, mut want) = match product {
            Product::AtBAcc => {
                let c0 = salted(rng, rows * width);
                (c0.clone(), c0)
            }
            _ => (vec![f32::NAN; rows * width], vec![7.0; rows * width]),
        };
        match product {
            Product::Matmul => {
                matmul(&a, &b, &mut got, rows, red, width);
                matmul_reference(&a, &b, &mut want, rows, red, width);
            }
            // `a` is read as `[red, rows]`, `b` as `[width, red]`: salted
            // data of the right length either way.
            Product::AtBAcc => {
                matmul_at_b_acc(&a, &b, &mut got, red, rows, width);
                matmul_at_b_acc_reference(&a, &b, &mut want, red, rows, width);
            }
            Product::ABt => {
                matmul_a_bt(&a, &b, &mut got, rows, red, width);
                matmul_a_bt_reference(&a, &b, &mut want, rows, red, width);
            }
        }
        let what = format!("{product:?} {rows}x{red}x{width} seed {seed} on {path:?}");
        assert_same_bits(&what, &got, &want);
    }

    #[track_caller]
    fn twins_agree(rows: usize, red: usize, width: usize, seed: u64, path: Path) {
        for product in [Product::Matmul, Product::AtBAcc, Product::ABt] {
            twin_agrees(product, rows, red, width, seed, path);
        }
    }

    #[test]
    fn wrappers_match_their_twins_on_the_fixed_table() {
        on_each_path("the fixed table", |path| {
            // `train_dp2`'s five layers at 128 rows, as each product sees
            // them: forward, `dW` and `dx` of a `Linear` of `inp -> out`.
            for (seed, (inp, out)) in
                [(64, 192), (64, 64), (64, 256), (256, 64), (64, 512)].into_iter().enumerate()
            {
                twin_agrees(Product::Matmul, 128, inp, out, seed as u64, path);
                twin_agrees(Product::AtBAcc, inp, 128, out, seed as u64, path);
                twin_agrees(Product::ABt, 128, out, inp, seed as u64, path);
            }
            // The smallest problem, empty reductions and empty outputs,
            // widths on either side of one and two tiles, and row counts
            // that are whole 4-row blocks or leave each remainder.
            let edges = [
                (1, 1, 1),
                (3, 0, 5),
                (3, 0, TILE + 1),
                (0, 4, 5),
                (4, 5, 0),
                (3, 7, TILE - 1),
                (3, 7, TILE),
                (3, 7, TILE + 1),
                (3, 7, 2 * TILE + 2),
                (2, TILE + 1, 2 * TILE),
                (4, 0, TILE),
                (4, 9, TILE),
                (4, 9, 2 * TILE),
                (5, 9, TILE),
                (5, 9, 2 * TILE),
                (7, 9, TILE),
                (7, 9, 2 * TILE),
                (8, 9, TILE),
                (8, 9, 2 * TILE),
                (129, 9, TILE),
                (129, 9, 2 * TILE),
            ];
            for (i, (rows, red, width)) in edges.into_iter().enumerate() {
                for seed in 0..8 {
                    twins_agree(rows, red, width, 100 * i as u64 + seed, path);
                }
            }
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn wrappers_match_their_twins(
            rows in 0usize..10,
            red in 0usize..48,
            width in 0usize..2 * TILE + 3,
            seed in any::<u64>(),
        ) {
            on_each_path("wrappers_match_their_twins", |path| {
                twins_agree(rows, red, width, seed, path);
            });
        }
    }

    /// The two things about a reduction that are not its order, each
    /// pinned by the smallest input that tells them apart.
    #[test]
    fn start_value_and_zero_skip_are_part_of_the_contract() {
        type Wrapper = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
        let bits = |f: Wrapper, a: &[f32], b: &[f32]| {
            let mut c = [f32::NAN];
            f(a, b, &mut c, 1, a.len(), 1);
            c[0].to_bits()
        };
        // Every product is −0.0. `Iterator::sum` starts at −0.0 and stays
        // there; `fill(0.0)` starts at +0.0 (and skips the terms anyway).
        let (a, b) = ([-0.0f32; 3], [1.0f32; 3]);
        assert_eq!(bits(matmul_a_bt, &a, &b), (-0.0f32).to_bits());
        assert_eq!(bits(matmul, &a, &b), 0.0f32.to_bits());
        // An empty reduction is the start value itself.
        assert_eq!(bits(matmul_a_bt, &[], &[]), (-0.0f32).to_bits());
        assert_eq!(bits(matmul, &[], &[]), 0.0f32.to_bits());
        // `matmul` skips a zero `a`, so `0 · ∞` never happens; `matmul_a_bt`
        // does not skip: the same term is NaN, and a `+0.0` product lifts
        // its `−0.0` start to `+0.0`.
        assert_eq!(bits(matmul, &[0.0], &[f32::INFINITY]), 0.0f32.to_bits());
        assert!(f32::from_bits(bits(matmul_a_bt, &[0.0], &[f32::INFINITY])).is_nan());
        assert_eq!(bits(matmul_a_bt, &[0.0], &[1.0]), 0.0f32.to_bits());
        // `matmul_at_b_acc` skips too: a `−0.0` already in `c` survives a
        // zero `a` (adding the `+0.0` product would flip it).
        let mut c = [-0.0f32];
        matmul_at_b_acc(&[0.0], &[1.0], &mut c, 1, 1, 1);
        assert_eq!(c[0].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn matmul_small() {
        // [2x2] * [2x2]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = [0.0; 4];
        matmul(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        // [1x3] * [3x2]
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        let mut c = [0.0; 2];
        matmul(&a, &b, &mut c, 1, 3, 2);
        assert_eq!(c, [4.0, 5.0]);
    }

    #[test]
    fn at_b_accumulates() {
        let a = [1.0, 2.0]; // [2x1]
        let b = [3.0, 4.0]; // [2x1]
        let mut c = [10.0]; // [1x1], pre-seeded to check accumulation
        matmul_at_b_acc(&a, &b, &mut c, 2, 1, 1);
        assert_eq!(c, [10.0 + 1.0 * 3.0 + 2.0 * 4.0]);
    }

    #[test]
    fn a_bt_matches_manual() {
        // a [1x2], b [3x2] -> c [1x3]
        let a = [1.0, 2.0];
        let b = [1.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        let mut c = [0.0; 3];
        matmul_a_bt(&a, &b, &mut c, 1, 2, 3);
        assert_eq!(c, [1.0, 2.0, 3.0]);
    }

    #[test]
    fn transpose_identities() {
        // (a·b) computed two ways: matmul(a,b) == matmul_a_bt(a, b^T).
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // [2x3]
        let b = [7.0, 8.0, 9.0, 10.0, 11.0, 12.0]; // [3x2]
        let mut c1 = [0.0; 4];
        matmul(&a, &b, &mut c1, 2, 3, 2);
        // b^T is [2x3]
        let bt = [7.0, 9.0, 11.0, 8.0, 10.0, 12.0];
        let mut c2 = [0.0; 4];
        matmul_a_bt(&a, &bt, &mut c2, 2, 3, 2);
        assert_eq!(c1, c2);
    }

    /// `gelu` and `gelu_grad` as they were written before they shared
    /// their tanh: same expression trees around the same tanh, so same
    /// bits, for every input.
    #[test]
    fn gelu_pair_through_the_shared_tanh_is_bitwise_the_direct_formulas() {
        const C: f32 = 0.797_884_6;
        fn tanh1(u: f32) -> f32 {
            let mut t = [u];
            tanh(&mut t);
            t[0]
        }
        let gelu_reference = |x: f32| 0.5 * x * (1.0 + tanh1(C * (x + 0.044715 * x * x * x)));
        let gelu_grad_reference = |x: f32| {
            let u = C * (x + 0.044715 * x * x * x);
            let t = tanh1(u);
            let du = C * (1.0 + 3.0 * 0.044715 * x * x);
            0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
        };
        let xs = gelu_sweep();
        let pair = |f: fn(f32) -> f32| xs.iter().map(|&x| f(x)).collect::<Vec<_>>();
        assert_same_bits("gelu", &pair(gelu), &pair(gelu_reference));
        assert_same_bits("gelu_grad", &pair(gelu_grad), &pair(gelu_grad_reference));
    }

    #[test]
    fn gelu_known_points() {
        assert_eq!(gelu(0.0), 0.0);
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
        assert!(gelu(-3.0).abs() < 0.01);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &x in &[-2.0f32, -0.5, 0.0, 0.3, 1.7] {
            let h = 1e-3;
            let fd = (gelu(x + h) - gelu(x - h)) / (2.0 * h);
            assert!(
                (gelu_grad(x) - fd).abs() < 1e-3,
                "grad mismatch at {x}: {} vs {fd}",
                gelu_grad(x)
            );
        }
    }
}
