//! The kernels oracle: chunked autovectorizable kernels vs their retained
//! scalar reference twins, bit for bit.
//!
//! The vectorized rewrite of the update and conversion loops is only
//! admissible because every kernel keeps the per-element expression order
//! of its scalar original — restructuring *between* elements is free,
//! restructuring *within* one is not. This arm re-checks that contract as
//! part of every `dos-cli conformance` run: [`dos_optim::kernels::apply`]
//! against `apply_reference` for all four rules, the step's fused
//! [`dos_optim::kernels::apply_downscale`] against `apply_reference` then
//! `downscale_reference` in the same cells, and the
//! [`dos_tensor::kernels`] conversions against their `_reference` twins
//! over adversarial bit patterns (NaNs, infinities, subnormals) plus the
//! full 65536-pattern FP16 space on the upscale side. Lengths are chosen
//! to straddle chunk boundaries (`n % CHUNK != 0`), where a vectorized
//! remainder loop would hide.

use serde::{Deserialize, Serialize};

use dos_optim::{kernels as optim_kernels, UpdateRule};
use dos_tensor::{kernels as tensor_kernels, F16};

use crate::report::{Divergence, DivergenceReport};

/// The outcome of one evaluated kernel cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelCell {
    /// Operation coordinate (`apply/adam`, `downscale`, ...).
    pub op: String,
    /// Element count the cell ran over.
    pub n: usize,
    /// `None` when bit-exact; otherwise the first observed mismatch.
    pub mismatch: Option<String>,
}

impl KernelCell {
    /// Cell coordinates for divergence reporting, `kernels/<op>/n=<n>`.
    pub fn coordinates(&self) -> String {
        format!("kernels/{}/n={}", self.op, self.n)
    }
}

/// splitmix64-style hash, the deterministic source of adversarial inputs.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Finite values in roughly [-1, 1] for the optimizer-state cells.
fn finite(n: usize, salt: u64) -> Vec<f32> {
    (0..n).map(|i| (mix(i as u64 ^ salt) % 20001) as f32 / 10000.0 - 1.0).collect()
}

/// Raw hashed bit patterns — NaNs, infinities, subnormals included — for
/// the conversion cells (the converters are total over the f32 space).
///
/// The hash all but never lands on the 16,382 signalling NaNs whose payload
/// sits only in the low 13 mantissa bits — the one class a raw hardware
/// `vcvtps2ph` converts differently from the oracle (`0x7E00` for its
/// `0x7E01`) — so one is pinned in each lane position of an 8-wide vector,
/// at the same places for every salt.
fn bit_patterns(n: usize, salt: u64) -> Vec<f32> {
    let mut v: Vec<f32> = (0..n).map(|i| f32::from_bits(mix(i as u64 ^ salt) as u32)).collect();
    for lane in 0..8u32 {
        // Index 65·lane is lane `lane` of its vector; signs alternate.
        if let Some(x) = v.get_mut(65 * lane as usize) {
            *x = f32::from_bits((lane & 1) << 31 | (0x7F80_0001 + (lane >> 1) * 0x0555));
        }
    }
    v
}

fn first_bits_mismatch(what: &str, got: &[f32], want: &[f32]) -> Option<String> {
    got.iter().zip(want).enumerate().find(|(_, (a, b))| a.to_bits() != b.to_bits()).map(
        |(i, (a, b))| {
            format!(
                "{what}[{i}] = {a:?} (bits {:#010x}), reference {b:?} (bits {:#010x})",
                a.to_bits(),
                b.to_bits()
            )
        },
    )
}

fn rule_op(rule: UpdateRule) -> &'static str {
    match rule {
        UpdateRule::Adam { weight_decay, .. } if weight_decay > 0.0 => "apply/adamw",
        UpdateRule::Adam { .. } => "apply/adam",
        UpdateRule::Adagrad { .. } => "apply/adagrad",
        UpdateRule::RmsProp { .. } => "apply/rmsprop",
        // `UpdateRule` is non_exhaustive; new rules get a generic label.
        _ => "apply/other",
    }
}

/// Runs one update-rule cell: three steps of [`optim_kernels::apply`], of
/// the step's fused [`optim_kernels::apply_downscale`] and of
/// `apply_reference` + `downscale_reference` over identically-seeded
/// state, compared bitwise — params, moments and FP16 output — after each
/// step.
pub fn run_apply_cell(rule: UpdateRule, n: usize) -> KernelCell {
    let mut pv = finite(n, 1);
    let mut mv = vec![0.0f32; n];
    let mut vv = vec![0.0f32; n];
    let (mut pr, mut mr, mut vr) = (pv.clone(), mv.clone(), vv.clone());
    let (mut pf, mut mf, mut vf) = (pv.clone(), mv.clone(), vv.clone());
    let (mut hf, mut hr) = (vec![F16::ZERO; n], vec![F16::ZERO; n]);
    let mut mismatch = None;
    for step in 1..=3u64 {
        let g = finite(n, 100 + step);
        optim_kernels::apply(&rule, step, 0.01, &mut pv, &g, &mut mv, &mut vv);
        optim_kernels::apply_downscale(&rule, step, 0.01, &mut pf, &g, &mut mf, &mut vf, &mut hf);
        optim_kernels::apply_reference(&rule, step, 0.01, &mut pr, &g, &mut mr, &mut vr);
        tensor_kernels::downscale_reference(&pr, &mut hr);
        let halves = |h: &[F16]| h.iter().map(|x| f32::from(x.to_bits())).collect::<Vec<_>>();
        mismatch = first_bits_mismatch("params", &pv, &pr)
            .or_else(|| first_bits_mismatch("momentum", &mv, &mr))
            .or_else(|| first_bits_mismatch("variance", &vv, &vr))
            .or_else(|| first_bits_mismatch("fused params", &pf, &pr))
            .or_else(|| first_bits_mismatch("fused momentum", &mf, &mr))
            .or_else(|| first_bits_mismatch("fused variance", &vf, &vr))
            .or_else(|| first_bits_mismatch("fused fp16 bits", &halves(&hf), &halves(&hr)))
            .map(|m| format!("step {step}: {m}"));
        if mismatch.is_some() {
            break;
        }
    }
    KernelCell { op: rule_op(rule).to_string(), n, mismatch }
}

/// Runs one conversion cell (`downscale`, `upscale`, or `round_through`).
pub fn run_conversion_cell(op: &str, n: usize) -> KernelCell {
    let mismatch = match op {
        "downscale" => {
            let src = bit_patterns(n, 7);
            let mut got = vec![F16::ZERO; n];
            let mut want = vec![F16::ZERO; n];
            tensor_kernels::downscale(&src, &mut got);
            tensor_kernels::downscale_reference(&src, &mut want);
            got.iter().zip(&want).enumerate().find(|(_, (a, b))| a != b).map(|(i, (a, b))| {
                format!(
                    "f16[{i}] = {:#06x} from {:?}, reference {:#06x}",
                    a.to_bits(),
                    src[i],
                    b.to_bits()
                )
            })
        }
        "upscale" => {
            // Every FP16 bit pattern, cycled to fill n.
            let src: Vec<F16> =
                (0..n).map(|i| F16::from_bits((i % (1 << 16)) as u16)).collect();
            let mut got = vec![0.0f32; n];
            let mut want = vec![0.0f32; n];
            tensor_kernels::upscale(&src, &mut got);
            tensor_kernels::upscale_reference(&src, &mut want);
            first_bits_mismatch("f32", &got, &want)
        }
        "round_through" => {
            let mut got = bit_patterns(n, 11);
            let mut want = got.clone();
            tensor_kernels::round_through_f16(&mut got);
            tensor_kernels::round_through_f16_reference(&mut want);
            first_bits_mismatch("f32", &got, &want)
        }
        other => Some(format!("unknown conversion op {other:?}")),
    };
    KernelCell { op: op.to_string(), n, mismatch }
}

/// The default cell matrix: all four rules × lengths straddling the chunk
/// size, plus the three conversions (upscale covers the full FP16 space).
pub fn default_cells_filtered(filter: Option<&str>) -> (Vec<KernelCell>, DivergenceReport) {
    let rules =
        [UpdateRule::adam(), UpdateRule::adamw(0.01), UpdateRule::adagrad(), UpdateRule::rmsprop()];
    let mut cells = Vec::new();
    let selected = |coords: &str| filter.is_none_or(|f| coords.contains(f));
    for rule in rules {
        for n in [1usize, 1023, 4097] {
            let coords = format!("kernels/{}/n={n}", rule_op(rule));
            if selected(&coords) {
                cells.push(run_apply_cell(rule, n));
            }
        }
    }
    for (op, n) in [("downscale", 65536), ("upscale", 65536), ("round_through", 65536)] {
        let coords = format!("kernels/{op}/n={n}");
        if selected(&coords) {
            cells.push(run_conversion_cell(op, n));
        }
    }
    let report = DivergenceReport {
        cells_checked: cells.len(),
        divergences: cells
            .iter()
            .filter(|c| c.mismatch.is_some())
            .map(|c| Divergence {
                oracle: "kernels".to_string(),
                cell: c.coordinates(),
                expected: "bit-exact vs scalar reference twin".to_string(),
                observed: c.mismatch.clone().unwrap_or_default(),
            })
            .collect(),
    };
    (cells, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_matrix_is_bit_exact() {
        let (cells, report) = default_cells_filtered(None);
        assert_eq!(cells.len(), 4 * 3 + 3);
        assert!(report.is_conformant(), "{}", report.render_table());
    }

    #[test]
    fn filters_select_by_coordinate_substring() {
        let (cells, report) = default_cells_filtered(Some("kernels/apply/rmsprop"));
        assert_eq!(cells.len(), 3);
        assert_eq!(report.cells_checked, 3);
        assert!(cells.iter().all(|c| c.op == "apply/rmsprop"));
        let (none, _) = default_cells_filtered(Some("no-such-cell"));
        assert!(none.is_empty());
    }

    #[test]
    fn a_kernel_bug_would_be_named_precisely() {
        let cell = run_conversion_cell("definitely-not-an-op", 8);
        assert!(cell.mismatch.is_some());
        assert_eq!(cell.coordinates(), "kernels/definitely-not-an-op/n=8");
    }
}
