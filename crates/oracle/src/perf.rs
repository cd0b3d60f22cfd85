//! The performance-model oracle: Equation 1's closed form vs. the
//! discrete-event simulator.
//!
//! For every cell of the model × scheduler × stride × resident-ratio
//! matrix, the update phase is predicted analytically from the profile's
//! calibrated throughputs (`PerfModel::predicted_update_secs` plus the
//! per-scheduler serialization structure described below) and simulated
//! with the real dependency graph. The cell conforms when the
//! simulated/predicted ratio falls inside the band declared for its
//! scheduler family; the bands encode how much of each schedule the
//! closed form abstracts away (drain tails, partial subgroups, resident
//! overlap) — they are *declared*, not fitted per run, so a scheduler or
//! perf-model regression moves cells outside them.

use serde::{Deserialize, Serialize};

use dos_core::{
    DeepOptimizerStates, PerfModel, StridePolicy, TwinFlow, ZenFlowAsync, Zero3Offload,
};
use dos_hal::HardwareProfile;
use dos_nn::ModelSpec;
use dos_sim::{simulate_iteration, TrainConfig};
use dos_zero::partition_into_subgroups;

use crate::report::{Divergence, DivergenceReport};

/// Which update scheduler a matrix cell exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// DeepSpeed ZeRO-3 with fully CPU-offloaded optimizer (blocking chain).
    Zero3Offload,
    /// TwinFlow: head static residents on the GPU, blocking CPU remainder.
    TwinFlow,
    /// Deep Optimizer States with the given stride policy.
    DeepOptimizerStates(StridePolicy),
    /// ZenFlow-style asynchronous updates: the cell's resident ratio is the
    /// importance ratio (the hot on-GPU subset); staleness bound S = 1, so
    /// the cold bulk spills past the iteration barrier and the joined
    /// update phase is the hot subset only.
    ZenFlowAsync,
}

impl SchedulerKind {
    fn scheduler_name(&self) -> &'static str {
        match self {
            SchedulerKind::Zero3Offload => "zero3-offload",
            SchedulerKind::TwinFlow => "twinflow",
            SchedulerKind::DeepOptimizerStates(_) => "deep-optimizer-states",
            SchedulerKind::ZenFlowAsync => "zenflow-async",
        }
    }

    fn stride_label(&self) -> String {
        match self {
            SchedulerKind::Zero3Offload | SchedulerKind::TwinFlow => "-".to_string(),
            SchedulerKind::DeepOptimizerStates(StridePolicy::Auto) => "auto".to_string(),
            SchedulerKind::DeepOptimizerStates(StridePolicy::Adaptive) => "adaptive".to_string(),
            SchedulerKind::DeepOptimizerStates(StridePolicy::CpuOnly) => "cpu-only".to_string(),
            SchedulerKind::DeepOptimizerStates(StridePolicy::Fixed(k)) => format!("k={k}"),
            SchedulerKind::ZenFlowAsync => "S=1".to_string(),
        }
    }
}

/// The ratio band `simulated / predicted` a cell must land in.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ToleranceBand {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound.
    pub hi: f64,
}

impl ToleranceBand {
    /// Whether `ratio` falls inside the band.
    pub fn contains(&self, ratio: f64) -> bool {
        ratio.is_finite() && self.lo <= ratio && ratio <= self.hi
    }
}

/// Declared bands per scheduler family.
///
/// * ZeRO-3's blocking chain is exactly the Equation 1 CPU-only cost, so
///   the prediction matches the event simulation to rounding; the band is
///   effectively "exact".
/// * TwinFlow adds the head residents' serialized GPU updates — still a
///   fully serial schedule the closed form reproduces exactly.
/// * Deep Optimizer States overlaps three resources. The closed form
///   counts whole subgroups per resource and carries explicit pipeline
///   fill/drain-tail terms (the final FP16 write-back behind the CPU
///   chain, the last GPU update behind the H2D link), so what remains
///   outside the band is only sub-subgroup scheduling jitter — the full
///   H100 matrix observes sim/pred in [0.97, 1.05].
/// * ZenFlowAsync's joined update phase is just the hot subgroups
///   serialized on the GPU — a single-resource chain like ZeRO-3's, so
///   the band is near-exact (partial-subgroup rounding only).
pub fn band_for(kind: SchedulerKind) -> ToleranceBand {
    match kind {
        SchedulerKind::Zero3Offload => ToleranceBand { lo: 0.99, hi: 1.01 },
        SchedulerKind::TwinFlow => ToleranceBand { lo: 0.98, hi: 1.02 },
        SchedulerKind::DeepOptimizerStates(_) => ToleranceBand { lo: 0.92, hi: 1.12 },
        SchedulerKind::ZenFlowAsync => ToleranceBand { lo: 0.98, hi: 1.02 },
    }
}

/// One evaluated cell of the perf-model matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfCell {
    /// Table 2 model name.
    pub model: String,
    /// Scheduler name (`IterationReport::scheduler` spelling).
    pub scheduler: String,
    /// Stride coordinate (`k=N`, `auto`, `cpu-only`, or `-`).
    pub stride: String,
    /// Static GPU-resident ratio.
    pub resident_ratio: f64,
    /// Equation 1 prediction of the update phase, seconds.
    pub predicted_secs: f64,
    /// Simulated update phase, seconds.
    pub simulated_secs: f64,
    /// Declared tolerance on `simulated / predicted`.
    pub band: ToleranceBand,
}

impl PerfCell {
    /// Simulated-over-predicted ratio.
    pub fn ratio(&self) -> f64 {
        self.simulated_secs / self.predicted_secs
    }

    /// Whether the cell landed inside its declared band.
    pub fn conformant(&self) -> bool {
        self.band.contains(self.ratio())
    }

    /// Cell coordinates for divergence reporting.
    pub fn coordinates(&self) -> String {
        cell_coordinates(&self.model, self.scheduler.as_str(), &self.stride, self.resident_ratio)
    }
}

/// The canonical perf-cell coordinate string,
/// `<model>/<scheduler>/<stride>/ratio=<r>` — computable *before* a cell is
/// evaluated, so `--filter` can skip cells instead of evaluating and
/// discarding them.
pub fn cell_coordinates(model: &str, scheduler: &str, stride: &str, ratio: f64) -> String {
    format!("{model}/{scheduler}/{stride}/ratio={ratio:.2}")
}

/// Predicts the update-phase seconds for one cell from the profile's
/// calibrated throughputs, mirroring each scheduler's serialization
/// structure (see the module docs).
pub fn predict_update_secs(cfg: &TrainConfig, kind: SchedulerKind) -> f64 {
    let inputs = cfg.profile.perf_model_inputs();
    let model = PerfModel::new(inputs);
    let params = cfg.params_per_rank() as f64;
    let subgroup = cfg.offload.subgroup_params as f64;
    let sgs = partition_into_subgroups(cfg.params_per_rank(), cfg.offload.subgroup_params);
    let n = sgs.len();
    let n_static = static_residents(n, cfg.offload.gpu_resident_ratio);

    match kind {
        SchedulerKind::Zero3Offload => model.predicted_update_secs(params, subgroup, None),
        SchedulerKind::TwinFlow => {
            // Head residents update serially on the GPU while the CPU
            // idles, then the remainder runs the blocking CPU chain.
            let resident_params: f64 = sgs[..n_static].iter().map(|s| s.len() as f64).sum();
            resident_params / inputs.ug
                + model.predicted_update_secs(params - resident_params, subgroup, None)
        }
        SchedulerKind::DeepOptimizerStates(policy) => {
            // Tail residents overlap the dynamic pipeline on the GPU; the
            // phase ends when the slowest resource drains. Unlike the
            // per-cycle Equation 1 form (which the *controller* solves),
            // the oracle counts whole subgroups per resource and adds the
            // pipeline fill/drain tails the steady state hides.
            let resident_params: f64 = sgs[n - n_static..].iter().map(|s| s.len() as f64).sum();
            let dynamic_params = params - resident_params;
            let n_dynamic = n - n_static;
            let (n_gpu, interleaving) = dos_placement(n_dynamic, policy, &model);
            let s = subgroup;
            if n_dynamic == 0 {
                return resident_params / inputs.ug;
            }
            if interleaving {
                let n_gpu = n_gpu as f64;
                let n_cpu = n_dynamic as f64 - n_gpu;
                let uc_eff = inputs.uc * cfg.profile.dram_contention_cpu_factor;
                // CPU side: updates and downscales serialize on the CPU;
                // the final FP16 write-back is the drain tail nothing
                // later can hide.
                let cpu_side =
                    n_cpu * (s / uc_eff + s / inputs.dc) + s / (2.0 * inputs.b);
                // Transfer side: every GPU subgroup's FP32 prefetch plus
                // every CPU subgroup's FP16 write-back share the H2D
                // link; the last GPU update is its drain tail. (The D2H
                // flushes ride their own link and the phase does not wait
                // for them.)
                let xfer_side = n_gpu * 3.0 * s / inputs.b
                    + n_cpu * s / (2.0 * inputs.b)
                    + s / inputs.ug;
                // Dependency chain: each prefetch waits on the previous
                // GPU update, so prefetches and GPU updates alternate on
                // one critical path — the binding arm at small strides.
                let chain_side = n_gpu * (3.0 * s / inputs.b + s / inputs.ug);
                let gpu_side = (resident_params + n_gpu * s) / inputs.ug;
                cpu_side.max(xfer_side).max(gpu_side).max(chain_side)
            } else {
                // CPU-only dynamic path with the pipelined drain: updates
                // then downscales serialize on the CPU, and the FP16
                // write-backs pipeline behind whichever of downscale and
                // H2D is slower — leaving a one-subgroup fill tail on the
                // faster of the two.
                let drain = (dynamic_params / inputs.dc + s / (2.0 * inputs.b))
                    .max(s / inputs.dc + dynamic_params / (2.0 * inputs.b));
                (dynamic_params / inputs.uc + drain).max(resident_params / inputs.ug)
            }
        }
        SchedulerKind::ZenFlowAsync => {
            // With S >= 1 the cold bulk spills past the barrier; the joined
            // update phase is the hot (head) subgroups serialized on the
            // GPU's compute stream.
            let hot_params: f64 = sgs[..n_static].iter().map(|s| s.len() as f64).sum();
            hot_params / inputs.ug
        }
    }
}

/// The oracle's own count of static GPU residents among `n` subgroups (see
/// [`dos_placement`] for why it is not `dos_core::UpdatePlan`'s).
fn static_residents(n: usize, ratio: f64) -> usize {
    ((ratio * n as f64).ceil() as usize).min(n)
}

/// The oracle's own derivation of where Deep Optimizer States places
/// `n_dynamic` dynamic subgroups under `policy`: how many go to the GPU and
/// whether the schedule interleaves at all. Deliberately *not*
/// `dos_core::UpdatePlan` — the schedulers place through that, and two
/// derivations agreeing is the cross-check (pinned cell by cell in this
/// module's tests).
fn dos_placement(n_dynamic: usize, policy: StridePolicy, model: &PerfModel) -> (usize, bool) {
    let stride = match policy {
        StridePolicy::Auto | StridePolicy::Adaptive => model.optimal_stride(),
        StridePolicy::Fixed(k) => Some(k.max(1)),
        StridePolicy::CpuOnly => None,
    };
    match stride {
        // The scheduler sends every k-th dynamic subgroup to the GPU:
        // exactly n_dynamic / k of them.
        Some(k) if n_dynamic > k.saturating_sub(1) => (n_dynamic / k, true),
        _ => (0, false),
    }
}

/// Evaluates one matrix cell: predicts and simulates the update phase.
///
/// # Panics
///
/// Panics if `model` is not in the zoo or the simulation fails (both are
/// programming errors in the matrix definition, not divergences).
pub fn evaluate_cell(
    model: &str,
    profile: &HardwareProfile,
    kind: SchedulerKind,
    resident_ratio: f64,
) -> PerfCell {
    let spec = ModelSpec::by_name(model)
        .unwrap_or_else(|| panic!("unknown model `{model}` in conformance matrix"));
    let mut cfg = match kind {
        SchedulerKind::Zero3Offload | SchedulerKind::TwinFlow | SchedulerKind::ZenFlowAsync => {
            TrainConfig::baseline(spec, profile.clone())
        }
        SchedulerKind::DeepOptimizerStates(_) => {
            TrainConfig::deep_optimizer_states(spec, profile.clone())
        }
    };
    cfg.offload.gpu_resident_ratio = resident_ratio;

    let report = match kind {
        SchedulerKind::Zero3Offload => simulate_iteration(&cfg, &Zero3Offload),
        SchedulerKind::TwinFlow => simulate_iteration(&cfg, &TwinFlow),
        SchedulerKind::DeepOptimizerStates(stride) => simulate_iteration(
            &cfg,
            &DeepOptimizerStates { stride, ..DeepOptimizerStates::default() },
        ),
        SchedulerKind::ZenFlowAsync => {
            simulate_iteration(&cfg, &ZenFlowAsync::new(resident_ratio, 1))
        }
    }
    .expect("conformance simulation failed");

    PerfCell {
        model: model.to_string(),
        scheduler: kind.scheduler_name().to_string(),
        stride: kind.stride_label(),
        resident_ratio,
        predicted_secs: predict_update_secs(&cfg, kind),
        simulated_secs: report.update_secs,
        band: band_for(kind),
    }
}

/// Enumerates every `(model, scheduler, ratio)` coordinate of the matrix
/// without evaluating anything.
pub(crate) fn matrix_specs(
    models: &[String],
    strides: &[usize],
    ratios: &[f64],
) -> Vec<(String, SchedulerKind, f64)> {
    let mut specs = Vec::new();
    for model in models {
        specs.push((model.clone(), SchedulerKind::Zero3Offload, 0.0));
        specs.push((
            model.clone(),
            SchedulerKind::DeepOptimizerStates(StridePolicy::CpuOnly),
            0.0,
        ));
        for &ratio in ratios {
            // Ratio 0 would leave the hot set (and the prediction) empty.
            if ratio > 0.0 {
                specs.push((model.clone(), SchedulerKind::ZenFlowAsync, ratio));
            }
            specs.push((model.clone(), SchedulerKind::TwinFlow, ratio));
            specs.push((
                model.clone(),
                SchedulerKind::DeepOptimizerStates(StridePolicy::Auto),
                ratio,
            ));
            for &k in strides {
                specs.push((
                    model.clone(),
                    SchedulerKind::DeepOptimizerStates(StridePolicy::Fixed(k)),
                    ratio,
                ));
            }
        }
    }
    specs
}

/// Runs a matrix of cells and folds the out-of-band ones into a
/// [`DivergenceReport`].
pub fn run_matrix(
    models: &[String],
    profile: &HardwareProfile,
    strides: &[usize],
    ratios: &[f64],
) -> (Vec<PerfCell>, DivergenceReport) {
    run_matrix_filtered(models, profile, strides, ratios, None)
}

/// Like [`run_matrix`], but only evaluates cells whose coordinate string
/// (see [`cell_coordinates`]) contains `filter`. Filtered-out cells are
/// never simulated, so narrow filters run in a fraction of the full
/// matrix's time.
pub fn run_matrix_filtered(
    models: &[String],
    profile: &HardwareProfile,
    strides: &[usize],
    ratios: &[f64],
    filter: Option<&str>,
) -> (Vec<PerfCell>, DivergenceReport) {
    let cells: Vec<PerfCell> = matrix_specs(models, strides, ratios)
        .into_iter()
        .filter(|(model, kind, ratio)| {
            filter.is_none_or(|f| {
                cell_coordinates(model, kind.scheduler_name(), &kind.stride_label(), *ratio)
                    .contains(f)
            })
        })
        .map(|(model, kind, ratio)| evaluate_cell(&model, profile, kind, ratio))
        .collect();
    let report = report_from_cells(&cells);
    (cells, report)
}

/// Builds the divergence report for a set of evaluated cells.
pub fn report_from_cells(cells: &[PerfCell]) -> DivergenceReport {
    DivergenceReport {
        cells_checked: cells.len(),
        divergences: cells
            .iter()
            .filter(|c| !c.conformant())
            .map(|c| Divergence {
                oracle: "perf-model".to_string(),
                cell: c.coordinates(),
                expected: format!("sim/pred in [{:.2}, {:.2}]", c.band.lo, c.band.hi),
                observed: format!(
                    "sim/pred = {:.3} (sim {:.3}s, pred {:.3}s)",
                    c.ratio(),
                    c.simulated_secs,
                    c.predicted_secs
                ),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero3_prediction_is_tight() {
        let cell =
            evaluate_cell("20B", &HardwareProfile::jlse_h100(), SchedulerKind::Zero3Offload, 0.0);
        assert!(cell.conformant(), "ratio {:.3} outside {:?}", cell.ratio(), cell.band);
    }

    #[test]
    fn twinflow_prediction_tracks_resident_sweep() {
        for ratio in [0.0, 0.2, 0.5] {
            let cell =
                evaluate_cell("13B", &HardwareProfile::jlse_h100(), SchedulerKind::TwinFlow, ratio);
            assert!(
                cell.conformant(),
                "ratio={ratio}: sim/pred {:.3} outside {:?}",
                cell.ratio(),
                cell.band
            );
        }
    }

    #[test]
    fn dos_prediction_holds_across_strides() {
        for k in 1..=5 {
            let cell = evaluate_cell(
                "20B",
                &HardwareProfile::jlse_h100(),
                SchedulerKind::DeepOptimizerStates(StridePolicy::Fixed(k)),
                0.0,
            );
            assert!(
                cell.conformant(),
                "k={k}: sim/pred {:.3} outside {:?} (sim {:.3}s pred {:.3}s)",
                cell.ratio(),
                cell.band,
                cell.simulated_secs,
                cell.predicted_secs
            );
        }
    }

    /// The schedulers place through `dos_core::UpdatePlan`; the oracle
    /// derives the same three facts on its own. They must agree on every
    /// Deep Optimizer States coordinate of the full matrix.
    #[test]
    fn placement_agrees_with_the_update_plan_on_every_matrix_cell() {
        use dos_core::UpdatePlan;
        let profile = HardwareProfile::jlse_h100();
        let model = PerfModel::new(profile.perf_model_inputs());
        let models: Vec<String> = ModelSpec::table2_zoo().into_iter().map(|m| m.name).collect();
        let ratios = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];
        let mut cells = 0;
        for (name, kind, ratio) in matrix_specs(&models, &[1, 2, 3, 4, 5], &ratios) {
            let SchedulerKind::DeepOptimizerStates(policy) = kind else { continue };
            let cfg = TrainConfig::deep_optimizer_states(
                ModelSpec::by_name(&name).unwrap(),
                profile.clone(),
            );
            let n =
                partition_into_subgroups(cfg.params_per_rank(), cfg.offload.subgroup_params).len();
            let n_static = static_residents(n, ratio);
            let (n_gpu, interleaving) = dos_placement(n - n_static, policy, &model);

            let stride = policy.resolve(|| model.optimal_stride());
            let plan = UpdatePlan::with_resident_ratio(n, ratio, stride);
            let cell =
                cell_coordinates(&name, "deep-optimizer-states", &kind.stride_label(), ratio);
            assert_eq!(
                (n_static, n_gpu, interleaving),
                (plan.n_static(), plan.n_interleaved(), plan.interleaving()),
                "{cell}"
            );
            cells += 1;
        }
        assert_eq!(cells, 5 * (1 + 6 * 6), "cpu-only + (auto + five strides) x six ratios");
    }

    #[test]
    fn zenflow_prediction_tracks_importance_sweep() {
        for ratio in [0.1, 0.3, 0.5] {
            let cell = evaluate_cell(
                "20B",
                &HardwareProfile::jlse_h100(),
                SchedulerKind::ZenFlowAsync,
                ratio,
            );
            assert!(
                cell.conformant(),
                "ratio={ratio}: sim/pred {:.3} outside {:?} (sim {:.4}s pred {:.4}s)",
                cell.ratio(),
                cell.band,
                cell.simulated_secs,
                cell.predicted_secs
            );
        }
    }

    #[test]
    fn matrix_includes_the_zenflow_arm() {
        let specs = matrix_specs(&["20B".to_string()], &[2], &[0.0, 0.3]);
        let zen: Vec<_> = specs
            .iter()
            .filter(|(_, k, _)| *k == SchedulerKind::ZenFlowAsync)
            .collect();
        assert_eq!(zen.len(), 1, "zenflow only at nonzero ratios: {zen:?}");
        assert_eq!(zen[0].2, 0.3);
    }

    #[test]
    fn broken_prediction_is_flagged() {
        // Reintroducing the classic seed bug — dropping the H2D term from
        // the CPU-only cost — must push ZeRO-3 cells out of their band.
        let cell =
            evaluate_cell("20B", &HardwareProfile::jlse_h100(), SchedulerKind::Zero3Offload, 0.0);
        let inputs = HardwareProfile::jlse_h100().perf_model_inputs();
        let params = cell.predicted_secs / (1.0 / inputs.uc + 1.0 / inputs.dc + 1.0 / (2.0 * inputs.b));
        let buggy_pred = params * (1.0 / inputs.uc + 1.0 / inputs.dc);
        let buggy = PerfCell { predicted_secs: buggy_pred, ..cell };
        assert!(!buggy.conformant(), "bug not caught: ratio {:.3}", buggy.ratio());
        let report = report_from_cells(&[buggy]);
        assert_eq!(report.divergences.len(), 1);
        assert!(report.divergences[0].cell.contains("zero3-offload"));
    }
}
