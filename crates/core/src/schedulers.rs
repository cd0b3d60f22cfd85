//! Update-phase schedulers: the two baselines, the paper's contribution,
//! and the ZenFlow-style asynchronous extension.
//!
//! All four implement [`UpdateScheduler`] over the update primitives of
//! [`IterationScenario`]; Figure 5 of the paper illustrates the first three
//! schedules (TwinFlow on top, Deep Optimizer States below), and
//! [`ZenFlowAsync`] breaks the iteration barrier entirely (arXiv
//! 2505.12242): the important subgroups update on-GPU inside the
//! iteration while the cold bulk's CPU updates spill into the next
//! iteration's forward/backward under a bounded-staleness window.
//!
//! The two scheduling decisions themselves are written once, here, for both
//! clocks: [`StridePolicy::resolve`] is the only place a policy becomes a
//! stride (Equation 1, §4.2), and [`UpdatePlan`] the only place a stride
//! becomes a placement (Algorithm 1, §4.1: every k-th dynamic subgroup on
//! the GPU, static residents at the tail). The threaded pipeline, the
//! simulated schedulers, the controller's contention bookkeeping,
//! `--explain` and the serving cost model all ask the plan where subgroup
//! `i` runs and how many run where. (`dos-oracle::perf` re-derives both on
//! purpose: it is the independent reference the conformance matrix
//! compares against.)

use std::cell::RefCell;
use std::collections::VecDeque;
use std::ops::Range;

use dos_hal::{OpId, SimError};
use dos_sim::{IterationScenario, UpdateScheduler};
use dos_zero::SubgroupSpec;
use serde::{Deserialize, Error, Serialize, Value};

use crate::perf_model::PerfModel;

/// The stride `Auto` runs at where no hardware profile exists to solve
/// Equation 1 on — the wall-clock pipeline and the wall-clock tuner's seed:
/// the paper's measured optimum (Figure 16).
pub const DEFAULT_STRIDE: usize = 2;

/// How Deep Optimizer States chooses its update stride.
///
/// (De)serialises as the `"update_stride"` JSON value: an integer for
/// [`Fixed`](StridePolicy::Fixed), or `"auto"` / `"cpu_only"` /
/// `"adaptive"`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StridePolicy {
    /// Solve Equation 1 for the scenario's hardware profile (§4.2).
    Auto,
    /// Force a fixed stride `k` (every k-th subgroup on the GPU) — used by
    /// the Figure 15/16 sweeps and the §5.4 V100 validation.
    Fixed(usize),
    /// Never schedule dynamic subgroups on the GPU.
    CpuOnly,
    /// Let the `dos-control` feedback controller retune the stride online
    /// from observed throughputs. Standalone (no controller attached, e.g.
    /// a single-shot `simulate_iteration`) this seeds itself exactly like
    /// [`StridePolicy::Auto`]; controller-driven loops re-resolve it every
    /// iteration through a hysteresis band.
    Adaptive,
}

impl StridePolicy {
    /// Turns the policy into a stride (`None` = every dynamic subgroup
    /// stays on the CPU). `Fixed(k)` is clamped to at least 1; `Auto` and
    /// `Adaptive` take whatever Equation 1 source the caller hands in — a
    /// hardware profile's inputs in the simulator and the serving cost
    /// model, a tenant's retune loop in the coordinator, [`DEFAULT_STRIDE`]
    /// in the threaded pipeline.
    pub fn resolve(self, equation_1: impl FnOnce() -> Option<usize>) -> Option<usize> {
        match self {
            StridePolicy::Auto | StridePolicy::Adaptive => equation_1(),
            StridePolicy::Fixed(k) => Some(k.max(1)),
            StridePolicy::CpuOnly => None,
        }
    }
}

impl Serialize for StridePolicy {
    fn to_value(&self) -> Value {
        match self {
            StridePolicy::Fixed(k) => k.to_value(),
            StridePolicy::Auto => "auto".to_value(),
            StridePolicy::CpuOnly => "cpu_only".to_value(),
            StridePolicy::Adaptive => "adaptive".to_value(),
        }
    }
}

impl Deserialize for StridePolicy {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value.as_str() {
            Some("auto") => Ok(StridePolicy::Auto),
            Some("cpu_only") => Ok(StridePolicy::CpuOnly),
            Some("adaptive") => Ok(StridePolicy::Adaptive),
            Some(other) => Err(Error::custom(format!(
                "unknown stride policy `{other}` (expected an integer, \"auto\", \"cpu_only\" \
                 or \"adaptive\")"
            ))),
            None => usize::from_value(value).map(StridePolicy::Fixed),
        }
    }
}

/// Where every subgroup of one update phase runs (Algorithm 1): the static
/// residents update on the device, and so does every k-th dynamic subgroup;
/// the rest stay on the CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdatePlan {
    n: usize,
    n_static: usize,
    stride: Option<usize>,
    residents_at_tail: bool,
}

impl UpdatePlan {
    /// A plan over `n_subgroups` with the last `n_static` of them resident
    /// (clamped to `n_subgroups`) under `stride` — a value
    /// [`StridePolicy::resolve`] returned, so at least 1 when set.
    pub fn new(n_subgroups: usize, n_static: usize, stride: Option<usize>) -> UpdatePlan {
        debug_assert!(stride != Some(0), "a stride is at least 1");
        UpdatePlan {
            n: n_subgroups,
            n_static: n_static.min(n_subgroups),
            stride,
            residents_at_tail: true,
        }
    }

    /// [`UpdatePlan::new`] with the resident count given as the
    /// TwinFlow-style ratio: `ceil(ratio × n_subgroups)` subgroups.
    pub fn with_resident_ratio(
        n_subgroups: usize,
        ratio: f64,
        stride: Option<usize>,
    ) -> UpdatePlan {
        UpdatePlan::new(n_subgroups, (ratio * n_subgroups as f64).ceil() as usize, stride)
    }

    /// Places the residents at the tail of the subgroup order (the paper's
    /// placement, §4.1, and the default) or, with `false`, at the head
    /// (TwinFlow's, and the `ablation_static_placement` configuration).
    pub fn residents_at_tail(mut self, tail: bool) -> UpdatePlan {
        self.residents_at_tail = tail;
        self
    }

    /// Indices of the static residents.
    pub fn residents(&self) -> Range<usize> {
        if self.residents_at_tail {
            self.n - self.n_static..self.n
        } else {
            0..self.n_static
        }
    }

    /// Whether subgroup `i` updates on the device: a static resident, or
    /// every k-th of the dynamic subgroups counted in order.
    pub fn on_device(&self, i: usize) -> bool {
        if self.residents().contains(&i) {
            return true;
        }
        let nth_dynamic = if self.residents_at_tail { i } else { i - self.n_static };
        self.stride.is_some_and(|k| (nth_dynamic + 1) % k == 0)
    }

    /// Static residents.
    pub fn n_static(&self) -> usize {
        self.n_static
    }

    /// Dynamic (host-resident) subgroups.
    pub fn n_dynamic(&self) -> usize {
        self.n - self.n_static
    }

    /// Dynamic subgroups staged to the device: one per full stride cycle.
    pub fn n_interleaved(&self) -> usize {
        self.stride.map_or(0, |k| self.n_dynamic() / k)
    }

    /// Subgroups updated on the device (residents + interleaved).
    pub fn n_device(&self) -> usize {
        self.n_static + self.n_interleaved()
    }

    /// Subgroups updated on the CPU.
    pub fn n_cpu(&self) -> usize {
        self.n - self.n_device()
    }

    /// Whether any dynamic subgroup reaches the device, i.e. PCIe staging
    /// traffic runs concurrently with the CPU updates (Figure 15's DRAM
    /// contention).
    pub fn interleaving(&self) -> bool {
        self.n_interleaved() > 0
    }
}

/// DeepSpeed ZeRO-3 with the optimizer fully offloaded to the CPU: every
/// subgroup is updated on the CPU, downscaled, and its FP16 parameters
/// H2D-copied *blocking* — the CPU idles during each transfer (Figure 5
/// top, with zero static residents).
#[derive(Debug, Clone, Copy, Default)]
pub struct Zero3Offload;

/// DeepSpeed TwinFlow (ZeRO-Offload++): the first
/// `ratio × n` subgroups (from the scenario's
/// `offload.gpu_resident_ratio`) live statically on the GPU and update
/// there first — the CPU idling meanwhile — then the host-resident
/// remainder updates on the CPU with blocking H2D copies (Figure 5 top).
#[derive(Debug, Clone, Copy, Default)]
pub struct TwinFlow;

/// Deep Optimizer States (§4): every k-th subgroup is prefetched to the
/// GPU, updated there, and flushed back, fully overlapped with the CPU
/// updates/downscales of the others and with the H2D copies of CPU-updated
/// parameters; static residents are placed *last* so their GPU updates
/// overlap the trailing transfers (Figure 5 bottom).
#[derive(Debug, Clone, Copy)]
pub struct DeepOptimizerStates {
    /// Stride selection policy.
    pub stride: StridePolicy,
    /// Place static residents at the tail of the subgroup order (the
    /// paper's improvement over TwinFlow's head placement, §4.1). Setting
    /// this to `false` is the `ablation_static_placement` configuration.
    pub residents_at_tail: bool,
}

impl Default for DeepOptimizerStates {
    fn default() -> Self {
        DeepOptimizerStates { stride: StridePolicy::Auto, residents_at_tail: true }
    }
}

impl DeepOptimizerStates {
    /// The placement this scheduler runs `scn` under: the scenario's
    /// resident ratio, and for `Auto` Equation 1 on its hardware profile.
    fn plan(&self, scn: &IterationScenario) -> UpdatePlan {
        let stride = self
            .stride
            .resolve(|| PerfModel::new(scn.cfg.profile.perf_model_inputs()).optimal_stride());
        UpdatePlan::with_resident_ratio(
            scn.subgroups().len(),
            scn.cfg.offload.gpu_resident_ratio,
            stride,
        )
        .residents_at_tail(self.residents_at_tail)
    }
}

/// ZenFlow-style stall-free updates (arXiv 2505.12242): the importance
/// partition's hot subset (top-p gradient norm; the first
/// `ceil(importance_ratio × n)` subgroups stand in for it here, since
/// same-sized subgroups make the timing identical) updates on the GPU
/// inside the iteration, while the cold bulk's CPU update + downscale +
/// H2D chains are *not* joined into the returned op — under
/// [`dos_sim::simulate_training`]'s shared engine they run during the next
/// iteration's forward/backward. A bounded-staleness window `S` limits how
/// many cold batches may be in flight: pushing past it inserts a drain
/// barrier that joins the oldest batch into the iteration boundary, so the
/// cold update of iteration *i* always lands before the forward pass of
/// iteration *i + S + 1*. `S = 0` degenerates to a fully synchronous
/// schedule.
///
/// Unlike [`DeepOptimizerStates`] this scheduler never toggles the DRAM
/// contention factor: its CPU work runs under the next iteration's
/// forward/backward, whose PCIe traffic pattern the single-phase
/// contention model does not describe.
///
/// The pending-batch window lives inside the scheduler value, so one
/// instance must drive one engine: [`dos_sim::simulate_training`] (one
/// shared engine) is the intended driver, and single-shot
/// [`dos_sim::simulate_iteration`] calls are fine because each constructs
/// a fresh scheduler. Do not reuse an instance across the per-iteration
/// engines of `dos-control`'s controlled training loop — the stashed
/// [`OpId`]s would not survive the engine swap.
#[derive(Debug, Clone)]
pub struct ZenFlowAsync {
    /// Fraction of subgroups in the hot (GPU-updated, in-iteration)
    /// importance subset. Clamped to `[0, 1]`; at least one subgroup goes
    /// hot for any positive ratio.
    pub importance_ratio: f64,
    /// Bounded-staleness window `S`: how many cold update batches may
    /// remain un-joined past their iteration boundary. `0` is synchronous.
    pub staleness_bound: usize,
    /// Cold-batch completion ops not yet joined into an iteration
    /// boundary, oldest first.
    pending: RefCell<VecDeque<Vec<OpId>>>,
}

impl Default for ZenFlowAsync {
    fn default() -> Self {
        ZenFlowAsync {
            importance_ratio: 0.1,
            staleness_bound: 1,
            pending: RefCell::new(VecDeque::new()),
        }
    }
}

impl ZenFlowAsync {
    /// Creates the scheduler with an explicit importance ratio and
    /// staleness bound.
    pub fn new(importance_ratio: f64, staleness_bound: usize) -> ZenFlowAsync {
        ZenFlowAsync { importance_ratio, staleness_bound, ..Default::default() }
    }
}

impl UpdateScheduler for ZenFlowAsync {
    fn name(&self) -> &str {
        "zenflow-async"
    }

    fn schedule_update(
        &self,
        scn: &mut IterationScenario,
        grads_ready: OpId,
    ) -> Result<OpId, SimError> {
        let ratio = self.importance_ratio.clamp(0.0, 1.0);
        let (hot, cold) = head_residents(scn.subgroups(), ratio);

        let mut completion: Vec<OpId> = Vec::new();
        // Hot subset: GPU-resident importance set, updated immediately —
        // the only update work inside the iteration barrier.
        for sg in &hot {
            completion.push(scn.gpu_update(sg, &[grads_ready])?);
        }

        // Cold bulk: per-subgroup CPU update → downscale → H2D chains.
        // Their terminal ops form this iteration's batch, deliberately not
        // joined into the returned op so they overlap the next iteration.
        let mut batch: Vec<OpId> = Vec::with_capacity(cold.len());
        for sg in &cold {
            let u = scn.cpu_update(sg, &[grads_ready])?;
            let d = scn.cpu_downscale(sg, &[u])?;
            batch.push(scn.h2d_updated_params(sg, &[d])?);
        }

        let mut pending = self.pending.borrow_mut();
        if !batch.is_empty() {
            pending.push_back(batch);
        }
        // Drain barrier: joining the oldest batch(es) here gates the next
        // forward on their completion, enforcing the staleness bound.
        while pending.len() > self.staleness_bound {
            if let Some(oldest) = pending.pop_front() {
                completion.extend(oldest);
            }
        }
        drop(pending);

        let streams = scn.rank.streams;
        scn.rank.sim.join(streams.compute, completion)
    }
}

/// TwinFlow's head placement: the first `ceil(ratio × n)` subgroups are
/// static GPU residents, the rest dynamic.
fn head_residents(
    subgroups: &[SubgroupSpec],
    ratio: f64,
) -> (Vec<SubgroupSpec>, Vec<SubgroupSpec>) {
    let plan =
        UpdatePlan::with_resident_ratio(subgroups.len(), ratio, None).residents_at_tail(false);
    let (residents, dynamic) = subgroups.split_at(plan.n_static());
    (residents.to_vec(), dynamic.to_vec())
}

/// The blocking CPU chain shared by both baselines: update → downscale →
/// H2D, each subgroup fully serialized behind the previous one's transfer.
fn blocking_cpu_chain(
    scn: &mut IterationScenario,
    subgroups: &[SubgroupSpec],
    mut last: OpId,
) -> Result<OpId, SimError> {
    for sg in subgroups {
        let u = scn.cpu_update(sg, &[last])?;
        let d = scn.cpu_downscale(sg, &[u])?;
        last = scn.h2d_updated_params(sg, &[d])?;
    }
    Ok(last)
}

impl UpdateScheduler for Zero3Offload {
    fn name(&self) -> &str {
        "zero3-offload"
    }

    fn schedule_update(
        &self,
        scn: &mut IterationScenario,
        grads_ready: OpId,
    ) -> Result<OpId, SimError> {
        let sgs = scn.subgroups().to_vec();
        blocking_cpu_chain(scn, &sgs, grads_ready)
    }
}

impl UpdateScheduler for TwinFlow {
    fn name(&self) -> &str {
        "twinflow"
    }

    fn schedule_update(
        &self,
        scn: &mut IterationScenario,
        grads_ready: OpId,
    ) -> Result<OpId, SimError> {
        let ratio = scn.cfg.offload.gpu_resident_ratio;
        let (residents, dynamic) = head_residents(scn.subgroups(), ratio);
        // GPU updates the static residents while the CPU idles
        // (§4.1 observation (a)).
        let mut last = grads_ready;
        for sg in &residents {
            last = scn.gpu_update(sg, &[last])?;
        }
        blocking_cpu_chain(scn, &dynamic, last)
    }
}

impl UpdateScheduler for DeepOptimizerStates {
    fn name(&self) -> &str {
        "deep-optimizer-states"
    }

    fn schedule_update(
        &self,
        scn: &mut IterationScenario,
        grads_ready: OpId,
    ) -> Result<OpId, SimError> {
        let sgs = scn.subgroups().to_vec();
        let plan = self.plan(scn);
        let residents = &sgs[plan.residents()];

        let interleaving = plan.interleaving();
        if interleaving {
            // Concurrent PCIe traffic contends with CPU updates for DRAM
            // bandwidth (Figure 15's CPU-utilization dip).
            scn.apply_update_contention();
        }

        let mut completion: Vec<OpId> = Vec::new();
        // CPU subgroups of the current stride cycle awaiting downscale+H2D.
        let mut cycle_cpu: Vec<(SubgroupSpec, OpId)> = Vec::new();
        let mut prev_gpu_update: Option<OpId> = None;

        if self.residents_at_tail {
            // The paper's placement: the residents are the *last* subgroups
            // in index order, so their updates need no parameter H2D at the
            // end of the phase and simply fill idle GPU gaps between the
            // dynamic subgroups' updates, overlapping all pending transfers
            // (§4.1). They depend only on gradient availability.
            for sg in residents {
                let upd = scn.gpu_update(sg, &[grads_ready])?;
                completion.push(upd);
            }
        } else {
            // Ablation: TwinFlow-style head placement — the dynamic
            // pipeline cannot start until the residents are done.
            let mut prev = grads_ready;
            for sg in residents {
                prev = scn.gpu_update(sg, &[prev])?;
                completion.push(prev);
            }
            prev_gpu_update = Some(prev);
        }

        let drain =
            |scn: &mut IterationScenario,
             cycle: &mut Vec<(SubgroupSpec, OpId)>,
             completion: &mut Vec<OpId>|
             -> Result<(), SimError> {
                for (sg, u) in cycle.drain(..) {
                    let d = scn.cpu_downscale(&sg, &[u])?;
                    let t = scn.h2d_updated_params(&sg, &[d])?;
                    completion.push(t);
                }
                Ok(())
            };

        let dynamic = sgs.iter().enumerate().filter(|(i, _)| !plan.residents().contains(i));
        for (i, sg) in dynamic {
            if plan.on_device(i) {
                // Prefetch was launched as soon as the previous GPU update
                // finished (Algorithm 1 lines 8–10); the first prefetch
                // starts with the update phase itself.
                let pre_deps = match prev_gpu_update {
                    Some(op) => vec![op],
                    None => vec![grads_ready],
                };
                let pre = scn.prefetch_subgroup(sg, &pre_deps)?;
                let upd = scn.gpu_update(sg, &[pre])?;
                let flush = scn.flush_subgroup(sg, &[upd])?;
                completion.push(flush.params_ready);
                prev_gpu_update = Some(upd);
                // The CPU downscales the cycle's subgroups while the GPU
                // updates (Algorithm 1 line 6).
                drain(scn, &mut cycle_cpu, &mut completion)?;
            } else {
                let u = scn.cpu_update(sg, &[grads_ready])?;
                cycle_cpu.push((*sg, u));
            }
        }
        drain(scn, &mut cycle_cpu, &mut completion)?;

        if interleaving {
            scn.clear_update_contention();
        }
        let streams = scn.rank.streams;
        scn.rank.sim.join(streams.compute, completion)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dos_hal::HardwareProfile;
    use dos_nn::ModelSpec;
    use dos_sim::{simulate_iteration, simulate_training, TrainConfig};
    use dos_zero::OffloadConfig;
    use proptest::prelude::*;

    fn baseline_cfg(model: &str) -> TrainConfig {
        TrainConfig::baseline(ModelSpec::by_name(model).unwrap(), HardwareProfile::jlse_h100())
    }

    fn dos_cfg(model: &str) -> TrainConfig {
        TrainConfig::deep_optimizer_states(
            ModelSpec::by_name(model).unwrap(),
            HardwareProfile::jlse_h100(),
        )
    }

#[test]
    fn zenflow_defers_cold_updates_past_the_iteration_barrier() {
        // With S >= 1 the cold bulk books as spill (un-joined async work)
        // and the joined update phase is just the hot GPU subset.
        let mut cfg = baseline_cfg("20B");
        cfg.offload.gpu_resident_ratio = 0.1;
        let zf = simulate_iteration(&cfg, &ZenFlowAsync::new(0.1, 1)).unwrap();
        let zero3 = simulate_iteration(&baseline_cfg("20B"), &Zero3Offload).unwrap();
        assert!(zf.spill_secs > 1.0, "cold work not deferred: {:.3}", zf.spill_secs);
        assert!(
            zf.update_secs < 0.1 * zero3.update_secs,
            "hot-only update {:.3}s not stall-free vs zero3 {:.3}s",
            zf.update_secs,
            zero3.update_secs
        );
    }

    #[test]
    fn zenflow_staleness_zero_is_fully_synchronous() {
        // S = 0 drains every batch inside its own iteration: no spill, and
        // the update phase carries the full hot + cold chain.
        let mut cfg = baseline_cfg("20B");
        cfg.offload.gpu_resident_ratio = 0.1;
        let sync = simulate_iteration(&cfg, &ZenFlowAsync::new(0.1, 0)).unwrap();
        assert!(sync.spill_secs < 1e-9, "synchronous run spilled {:.3}s", sync.spill_secs);
        let deferred = simulate_iteration(&cfg, &ZenFlowAsync::new(0.1, 1)).unwrap();
        assert!(sync.update_secs > 10.0 * deferred.update_secs);
    }

    #[test]
    fn zenflow_training_beats_synchronous_and_zero3() {
        // Over a multi-iteration run the deferred cold updates hide under
        // the next iteration's fwd/bwd: ~12% faster than the S=0 drain-
        // every-step schedule and ~25% faster than ZeRO-3 on 20B.
        let mut cfg = baseline_cfg("20B");
        cfg.offload.gpu_resident_ratio = 0.1;
        let async1 = simulate_training(&cfg, &ZenFlowAsync::new(0.1, 1), 6).unwrap();
        let sync0 = simulate_training(&cfg, &ZenFlowAsync::new(0.1, 0), 6).unwrap();
        let zero3 = simulate_training(&baseline_cfg("20B"), &Zero3Offload, 6).unwrap();
        let vs_sync = sync0.avg_iteration_secs / async1.avg_iteration_secs;
        let vs_zero3 = zero3.avg_iteration_secs / async1.avg_iteration_secs;
        assert!((1.05..1.4).contains(&vs_sync), "gain vs synchronous {vs_sync:.2}");
        assert!((1.15..1.6).contains(&vs_zero3), "gain vs zero3 {vs_zero3:.2}");
    }

    #[test]
    fn zenflow_iteration_time_is_monotone_in_staleness() {
        // Looser bounds can only help (or match): S=0 >= S=1 >= S=3.
        let mut cfg = baseline_cfg("20B");
        cfg.offload.gpu_resident_ratio = 0.1;
        let avg = |s: usize| {
            simulate_training(&cfg, &ZenFlowAsync::new(0.1, s), 6)
                .unwrap()
                .avg_iteration_secs
        };
        let (s0, s1, s3) = (avg(0), avg(1), avg(3));
        assert!(s0 >= s1 - 1e-9, "S=0 ({s0:.3}) faster than S=1 ({s1:.3})");
        assert!(s1 >= s3 - 1e-9, "S=1 ({s1:.3}) faster than S=3 ({s3:.3})");
    }

    #[test]
    fn zenflow_cold_updates_run_under_the_next_iterations_fwd_bwd() {
        // The ZenFlow claim, machine-checked on the trace: deferred CPU
        // updates of iteration i overlap the GPU's forward/backward work
        // of iteration i+1. The synchronous baseline shows ~zero overlap.
        use dos_sim::{simulate_training, simulate_training_with};
        use dos_telemetry::cross_phase_overlap_secs;
        let mut cfg = baseline_cfg("20B");
        cfg.offload.gpu_resident_ratio = 0.1;
        let (report, tl) =
            simulate_training_with(&cfg, &ZenFlowAsync::new(0.1, 1), 4, None).unwrap();
        // Without a checkpoint policy the report is `simulate_training`'s,
        // and the timeline is the same engine's full schedule.
        let short = simulate_training(&cfg, &ZenFlowAsync::new(0.1, 1), 4).unwrap();
        assert_eq!(report.iteration_ends, short.iteration_ends);
        assert_eq!(report.total_secs, short.total_secs);
        assert!((tl.end_time() - report.total_secs).abs() < 1e-9);
        let covered = cross_phase_overlap_secs(&tl, "update", "cpu", "forward", "gpu")
            + cross_phase_overlap_secs(&tl, "update", "cpu", "backward", "gpu");
        assert!(covered > 1.0, "cold cpu updates not hidden under fwd/bwd: {covered:.3}s");

        let (_, tl3) =
            simulate_training_with(&baseline_cfg("20B"), &Zero3Offload, 4, None).unwrap();
        let covered3 = cross_phase_overlap_secs(&tl3, "update", "cpu", "forward", "gpu")
            + cross_phase_overlap_secs(&tl3, "update", "cpu", "backward", "gpu");
        assert!(
            covered3 < 1e-9,
            "zero3 should have no cross-iteration overlap: {covered3:.3}s"
        );
    }

    #[test]
    fn dos_beats_zero3_by_2x_or_more_on_20b() {
        let zero3 = simulate_iteration(&baseline_cfg("20B"), &Zero3Offload).unwrap();
        let dos =
            simulate_iteration(&dos_cfg("20B"), &DeepOptimizerStates::default()).unwrap();
        let speedup = zero3.total_secs / dos.total_secs;
        assert!(
            (1.9..3.2).contains(&speedup),
            "iteration speedup {speedup:.2} outside the paper's 2-2.5x band \
             (zero3 {:.2}s, dos {:.2}s)",
            zero3.total_secs,
            dos.total_secs
        );
    }

    #[test]
    fn update_throughput_gain_matches_figure8() {
        // Figure 8: ~70% higher update throughput than ZeRO-3 on average.
        let zero3 = simulate_iteration(&baseline_cfg("20B"), &Zero3Offload).unwrap();
        let dos =
            simulate_iteration(&dos_cfg("20B"), &DeepOptimizerStates::default()).unwrap();
        let gain = dos.update_pps_per_rank / zero3.update_pps_per_rank;
        assert!((1.4..2.3).contains(&gain), "update gain {gain:.2}");
    }

    #[test]
    fn twinflow_with_ratio_beats_plain_zero3() {
        let mut cfg = baseline_cfg("20B");
        cfg.offload = OffloadConfig { gpu_resident_ratio: 0.2, ..cfg.offload };
        let twin = simulate_iteration(&cfg, &TwinFlow).unwrap();
        let zero3 = simulate_iteration(&baseline_cfg("20B"), &Zero3Offload).unwrap();
        assert!(twin.update_secs < zero3.update_secs);
        // Figure 12's scale: ~20% faster updates at ratio 0.2.
        let gain = zero3.update_secs / twin.update_secs;
        assert!((1.1..1.5).contains(&gain), "twinflow gain {gain:.2}");
    }

    #[test]
    fn dos_beats_twinflow_at_every_ratio() {
        // Figure 10: at least 1.7x faster updates at every static ratio.
        for ratio in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5] {
            let mut tcfg = baseline_cfg("20B");
            tcfg.offload.gpu_resident_ratio = ratio;
            let mut dcfg = dos_cfg("20B");
            dcfg.offload.gpu_resident_ratio = ratio;
            let twin = simulate_iteration(&tcfg, &TwinFlow).unwrap();
            let dos = simulate_iteration(&dcfg, &DeepOptimizerStates::default()).unwrap();
            let gain = twin.update_secs / dos.update_secs;
            assert!(
                gain > 1.5,
                "ratio {ratio}: gain {gain:.2} (twin {:.2}s, dos {:.2}s)",
                twin.update_secs,
                dos.update_secs
            );
        }
    }

    #[test]
    fn stride_2_is_empirically_optimal_on_h100() {
        // Figure 16: 50% of updates on the GPU (k = 2) maximizes throughput.
        let mut best = (0usize, f64::INFINITY);
        for k in 2..=5 {
            let sched = DeepOptimizerStates { stride: StridePolicy::Fixed(k), ..Default::default() };
            let r = simulate_iteration(&dos_cfg("20B"), &sched).unwrap();
            if r.update_secs < best.1 {
                best = (k, r.update_secs);
            }
        }
        assert_eq!(best.0, 2, "best stride {} at {:.2}s", best.0, best.1);
    }

    /// How much link slack does the interleaved schedule have before
    /// Eq. 1's k* stops being optimal? A mild PCIe H2D degradation is
    /// absorbed (k* = 2 still wins, as in Figure 16); a severe one makes
    /// GPU subgroups too expensive to feed and shifts the empirical
    /// optimum toward sparser interleaving (larger k).
    #[test]
    fn k_star_shifts_only_under_severe_pcie_degradation() {
        use dos_hal::{FaultPlan, SimTime};
        use dos_sim::{simulate_iteration_with, IterationOptions};

        let best_stride = |h2d_scale: f64| -> usize {
            let mut best = (0usize, f64::INFINITY);
            for k in 2..=5 {
                let sched = DeepOptimizerStates {
                    stride: StridePolicy::Fixed(k),
                    ..Default::default()
                };
                let plan = FaultPlan::seeded(0).degrade(
                    "pcie.h2d",
                    SimTime::ZERO,
                    SimTime::from_secs(1e9),
                    h2d_scale,
                );
                let opts = IterationOptions { faults: Some(&plan), ..Default::default() };
                let r = simulate_iteration_with(&dos_cfg("20B"), &sched, opts).unwrap();
                if r.update_secs < best.1 {
                    best = (k, r.update_secs);
                }
            }
            best.0
        };
        assert_eq!(best_stride(1.0), 2, "healthy link: Figure 16's optimum");
        assert_eq!(best_stride(0.85), 2, "15% slower H2D sits inside the schedule's slack");
        assert!(
            best_stride(0.15) > 2,
            "a severely degraded link must push the optimum to sparser interleaving"
        );
    }

    #[test]
    fn cpu_only_policy_matches_zero3_update_shape() {
        let sched = DeepOptimizerStates { stride: StridePolicy::CpuOnly, ..Default::default() };
        let dos = simulate_iteration(&dos_cfg("20B"), &sched).unwrap();
        let zero3 = simulate_iteration(&baseline_cfg("20B"), &Zero3Offload).unwrap();
        // Same work; DOS's pipelined downscale/H2D still overlaps slightly,
        // so allow a band.
        let ratio = dos.update_secs / zero3.update_secs;
        assert!((0.6..1.05).contains(&ratio), "ratio {ratio:.2}");
    }

    #[test]
    fn residents_split_head_vs_tail() {
        let sgs: Vec<SubgroupSpec> = (0..10)
            .map(|i| SubgroupSpec { id: i, start: i * 10, end: (i + 1) * 10 })
            .collect();
        let ids = |sgs: &[SubgroupSpec]| sgs.iter().map(|s| s.id).collect::<Vec<_>>();
        let (r_head, d_head) = head_residents(&sgs, 0.2);
        assert_eq!(ids(&r_head), vec![0, 1]);
        assert_eq!(d_head.len(), 8);
        let tail = UpdatePlan::with_resident_ratio(sgs.len(), 0.2, None);
        assert_eq!(ids(&sgs[tail.residents()]), vec![8, 9]);
        assert_eq!(tail.n_dynamic(), 8);
        // Head placement counts the stride over the dynamic subgroups only.
        let head = UpdatePlan::new(6, 2, Some(2)).residents_at_tail(false);
        let placed: Vec<bool> = (0..6).map(|i| head.on_device(i)).collect();
        assert_eq!(placed, [true, true, false, true, false, true]);
    }

    #[test]
    fn memory_stays_balanced_under_interleaving() {
        let r = simulate_iteration(&dos_cfg("20B"), &DeepOptimizerStates::default()).unwrap();
        assert!(r.oom.is_none(), "unexpected OOM: {:?}", r.oom);
        assert!(r.gpu_peak_bytes > 0);
    }

    /// §5.4 / Figure 4: ZeRO-3 offloading leaves PCIe under 10% busy in
    /// either direction over the iteration — the NVML view the paper
    /// plots. Within the update window itself the only traffic is the
    /// blocking per-subgroup H2D of updated FP16 parameters (gradients
    /// flushed already during backward), so D2H is silent and H2D carries
    /// data less than a quarter of the time.
    #[test]
    fn zero3_leaves_pcie_under_10_percent_busy() {
        let r = simulate_iteration(&baseline_cfg("20B"), &Zero3Offload).unwrap();
        let analysis = dos_telemetry::analyze(&r.timeline);
        assert!(analysis.validate().is_empty(), "{:?}", analysis.validate());
        for dir in ["pcie.h2d", "pcie.d2h"] {
            let overall = r.timeline.overall_utilization(dir);
            assert!(overall < 0.10, "ZeRO-3 {dir} busy {overall:.3} >= 10% of the iteration");
        }
        assert_eq!(analysis.busy_fraction("update", "pcie.d2h"), 0.0);
        let h2d_update = analysis.busy_fraction("update", "pcie.h2d");
        assert!(
            h2d_update > 0.0 && h2d_update < 0.25,
            "ZeRO-3 update-window H2D busy {h2d_update:.3} outside (0, 0.25)"
        );
    }

    /// Figure 15 / §5.4: at the measured optimal stride, the DOS update
    /// runs GPU subgroup updates under cover of the CPU ones — at least
    /// half the GPU's update-phase busy time overlaps CPU busy time.
    #[test]
    fn dos_update_overlaps_cpu_and_gpu_at_least_half() {
        let r =
            simulate_iteration(&dos_cfg("20B"), &DeepOptimizerStates::default()).unwrap();
        let analysis = dos_telemetry::analyze(&r.timeline);
        assert!(analysis.validate().is_empty(), "{:?}", analysis.validate());
        let eff = analysis.overlap_efficiency("update", "cpu", "gpu");
        assert!(eff >= 0.5, "DOS update CPU/GPU overlap efficiency {eff:.3} < 50%");
        // And the interleaving keeps PCIe meaningfully busier than ZeRO-3.
        let zero3 = simulate_iteration(&baseline_cfg("20B"), &Zero3Offload).unwrap();
        let zero3_analysis = dos_telemetry::analyze(&zero3.timeline);
        assert!(
            analysis.busy_fraction("update", "pcie.h2d")
                > zero3_analysis.busy_fraction("update", "pcie.h2d")
        );
    }

    #[test]
    fn update_utilization_rises_with_interleaving() {
        let zero3 = simulate_iteration(&baseline_cfg("20B"), &Zero3Offload).unwrap();
        let dos =
            simulate_iteration(&dos_cfg("20B"), &DeepOptimizerStates::default()).unwrap();
        assert!(
            dos.update_utilization.gpu_nvml > zero3.update_utilization.gpu_nvml + 0.2,
            "gpu util {:?} vs {:?}",
            dos.update_utilization,
            zero3.update_utilization
        );
        assert!(dos.update_utilization.pcie_h2d > zero3.update_utilization.pcie_h2d);
    }

    #[test]
    fn policies_resolve_once() {
        let eq1 = || Some(3);
        assert_eq!(StridePolicy::Auto.resolve(eq1), Some(3));
        assert_eq!(StridePolicy::Adaptive.resolve(eq1), Some(3));
        assert_eq!(StridePolicy::Adaptive.resolve(|| None), None);
        assert_eq!(StridePolicy::Fixed(4).resolve(eq1), Some(4));
        assert_eq!(StridePolicy::Fixed(0).resolve(eq1), Some(1), "clamped, not a division by zero");
        assert_eq!(StridePolicy::CpuOnly.resolve(eq1), None);
    }

    proptest! {
        /// The closed-form counts are a count of `on_device`, under either
        /// placement.
        #[test]
        fn counts_equal_a_count_of_on_device(
            n in 0usize..80,
            n_static in 0usize..90,
            stride in 0usize..10,
            tail in any::<bool>(),
        ) {
            let stride = (stride > 0).then_some(stride);
            let plan = UpdatePlan::new(n, n_static, stride).residents_at_tail(tail);
            let on_device = (0..n).filter(|&i| plan.on_device(i)).count();
            prop_assert_eq!(plan.n_device(), on_device);
            prop_assert_eq!(plan.n_cpu(), n - on_device);
            prop_assert_eq!(plan.n_static(), plan.residents().len());
            prop_assert_eq!(plan.n_static() + plan.n_dynamic(), n);
            // The schedulers' historical spelling of the interleaving test.
            let spelled = stride.is_some_and(|k| plan.n_dynamic() > k.saturating_sub(1));
            prop_assert_eq!(plan.interleaving(), spelled);
        }
    }
}
