//! Finite-difference gradient checking used by the layer test suites.
//!
//! Hidden from docs; exposed so integration tests can gradcheck composed
//! modules too.

use crate::param::{Params, VisitParams};

/// Deterministic pseudo-random coefficient for the scalar test loss.
fn coeff(i: usize) -> f32 {
    ((i as f32 * 12.9898).sin() * 43758.547).fract() - 0.5
}

/// Scalar loss `L = Σ cᵢ yᵢ` used to turn a vector output into one number.
fn loss_of(y: &[f32]) -> f64 {
    y.iter().enumerate().map(|(i, &v)| coeff(i) as f64 * v as f64).sum()
}

/// Checks analytic gradients of `module` over its parameter space `ps`
/// against central finite differences.
///
/// Runs `fwd` on `x`, backpropagates `dL/dy = c` (`bwd` gets `x` and
/// `dy`), then perturbs every
/// parameter (and every input element) and compares. `tol` is a relative
/// tolerance with a small absolute floor — f32 arithmetic limits how tight
/// this can be.
///
/// # Panics
///
/// Panics (failing the test) when any gradient disagrees.
pub fn gradcheck<M, F, B>(
    module: &mut M,
    ps: &mut Params,
    x: &[f32],
    rows: usize,
    fwd: F,
    bwd: B,
    tol: f32,
) where
    F: Fn(&mut M, &Params, &[f32], usize) -> Vec<f32>,
    B: Fn(&mut M, &mut Params, &[f32], &[f32]) -> Vec<f32>,
{
    ps.zero_grads();
    let y = fwd(module, ps, x, rows);
    let dy: Vec<f32> = (0..y.len()).map(coeff).collect();
    let dx = bwd(module, ps, x, &dy);
    assert_eq!(dx.len(), x.len(), "dx has wrong length");
    let analytic_param_grads = ps.gather_grads();

    let h = 1e-2f32;
    let close = |analytic: f32, numeric: f64, what: &str| {
        let numeric = numeric as f32;
        let denom = analytic.abs().max(numeric.abs()).max(1.0);
        assert!(
            (analytic - numeric).abs() / denom < tol,
            "{what}: analytic {analytic} vs numeric {numeric}"
        );
    };

    // Parameters.
    for (i, &analytic) in analytic_param_grads.iter().enumerate() {
        let base = ps.w[i];
        ps.w[i] = base + h;
        let lp = loss_of(&fwd(module, ps, x, rows));
        ps.w[i] = base - h;
        let lm = loss_of(&fwd(module, ps, x, rows));
        ps.w[i] = base;
        close(analytic, (lp - lm) / (2.0 * h as f64), &format!("param[{i}]"));
    }

    // Inputs.
    for i in 0..x.len() {
        let mut xp = x.to_vec();
        xp[i] += h;
        let lp = loss_of(&fwd(module, ps, &xp, rows));
        let mut xm = x.to_vec();
        xm[i] -= h;
        let lm = loss_of(&fwd(module, ps, &xm, rows));
        close(dx[i], (lp - lm) / (2.0 * h as f64), &format!("input[{i}]"));
    }
}
