//! Check scenarios: concrete, deterministic pipeline instances whose
//! every terminal schedule must match the sequential oracle bitwise.
//!
//! A scenario fixes the body completely — parameter count, subgroup size,
//! stride, residents, fault plan, and the deterministic init/gradient
//! formulas — so a schedule token (`scenario` + decision sequence) is a
//! full reproduction recipe. Among the scenario kinds:
//!
//! * [`ScenarioKind::Pipeline`] — the real [`dos_core::hybrid_update`].
//!   Expected to pass under *every* schedule; any divergence, deadlock, or
//!   panic is a pipeline bug.
//! * [`ScenarioKind::PipelineWorker`] — two
//!   [`dos_core::hybrid_update_pooled`] steps over one pool, so the device
//!   worker parks between them (or is lost in the first and replaced in the
//!   second) and must end when the pool drops. Same expectation.
//! * [`ScenarioKind::Rendezvous`] — the real
//!   [`dos_collectives::Communicator`] in blocking mode over
//!   [`dos_collectives::InProcTransport`], one virtual thread per rank:
//!   barrier, then rounds of all-reduce with per-rank perturbation, then
//!   an all-gather. The disconnect variant has one rank drop its
//!   transport before the final round — survivors must observe a typed
//!   rank failure (poison propagation), never a deadlock. Expected to
//!   pass under every schedule; any divergence or deadlock is a
//!   collective-layer bug.
//! * [`ScenarioKind::BuggyLostSend`] — a deliberately seeded ordering bug
//!   (see [`buggy_lost_send_update`]): when an H2D send fails because the
//!   worker already disconnected, the job is dropped instead of re-run on
//!   the CPU. The OS-default-like schedule (main thread runs until it
//!   blocks) never fails a send — all sends complete before the worker
//!   first runs — so only genuine schedule exploration exposes it. Used
//!   by tests and `--replay` demos to prove the checker catches, shrinks,
//!   and replays real ordering bugs; never part of the default suite.

use dos_collectives::{CollectiveError, Communicator};
use dos_core::sync;
use dos_hal::HardwareProfile;
use dos_serve::{Coordinator, JobSpec, ServeOptions};
use dos_core::{
    hybrid_update, hybrid_update_pooled, zenflow_reference, ArenaPool, DeviceFault,
    PipelineConfig, StridePolicy, ZenFlowConfig, ZenFlowPipeline,
};
use dos_optim::{MixedPrecisionState, UpdateRule};
use dos_tensor::F16;
use dos_zero::{partition_into_subgroups, SubgroupSpec};

/// Which body a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// The real hybrid pipeline (must pass under every schedule).
    Pipeline,
    /// The device worker's life across steps: two consecutive
    /// [`hybrid_update_pooled`] steps over one [`ArenaPool`], the fault (if
    /// any) armed in the first only, then the pool dropped. Must pass under
    /// every schedule: the terminal state is bitwise equal to as many
    /// `full_step`s, jobs still queued behind a dead worker deadlock
    /// nothing, a lost worker is replaced exactly once (the spawn count
    /// rides in `momentum`), every lent range is back after each step (the
    /// pool's lent bytes ride in `variance`), and the parked worker ends
    /// with the pool — a worker left parked would be reported as a deadlock.
    PipelineWorker,
    /// Blocking-mode collectives over the in-process mesh transport (must
    /// pass under every schedule). Field reuse: `params` is the per-rank
    /// buffer length, `subgroup` the world size, `stride` the number of
    /// all-reduce rounds, `residents` unused (0); a
    /// [`FaultPlan::Disconnect`] names the rank that drops its transport
    /// before the final round.
    Rendezvous,
    /// The `dos-serve` coordinator on a one-GPU cluster: two tenants
    /// submit one job each from concurrent virtual threads, so admit,
    /// preempt, and complete events interleave freely. Field reuse:
    /// `params`/`subgroup` shape each job's trainer, `stride` is the
    /// iteration count per job, `residents` the lease length in
    /// iterations (1 forces a preemption between every pair of slices).
    /// Must pass under every schedule: no lost jobs, no double-granted
    /// leases, and per-tenant numerics bitwise equal to dedicated runs.
    Coordinator,
    /// The ZenFlow cross-iteration asynchronous update pipeline
    /// ([`dos_core::ZenFlowPipeline`]): hot subgroups update inside the
    /// step, cold subgroups accumulate and flush to detached workers that
    /// race the following steps, with a `poll_pending` harvest between
    /// steps and a final drain barrier. Field reuse: `stride` is the
    /// staleness bound `S`, `residents` the hot subgroup count `r`
    /// (importance ratio `r / n`). Must pass under every schedule: the
    /// drained terminal state is bitwise equal to the sequential
    /// bounded-staleness oracle [`dos_core::zenflow_reference`], and the
    /// observed max staleness never exceeds `S`.
    ZenFlow,
    /// The seeded lost-send bug fixture (fails under some schedules).
    BuggyLostSend,
}

/// A scenario's injected fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlan {
    /// Healthy worker.
    None,
    /// Worker panics after fully processing N jobs.
    Panic(usize),
    /// Worker returns silently after fully processing N jobs.
    Disconnect(usize),
}

impl FaultPlan {
    fn to_device_fault(self) -> Option<DeviceFault> {
        match self {
            FaultPlan::None => None,
            FaultPlan::Panic(n) => Some(DeviceFault::PanicAfter(n)),
            FaultPlan::Disconnect(n) => Some(DeviceFault::DisconnectAfter(n)),
        }
    }
}

/// One fully pinned check scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckScenario {
    /// Body selector.
    pub kind: ScenarioKind,
    /// Flat parameter count.
    pub params: usize,
    /// Subgroup size (`partition_into_subgroups(params, subgroup)`).
    pub subgroup: usize,
    /// Update stride k (every k-th dynamic subgroup ships to the device).
    pub stride: usize,
    /// Trailing static device residents.
    pub residents: usize,
    /// Injected worker fault.
    pub fault: FaultPlan,
}

/// Everything a terminal schedule must pin bitwise.
#[derive(Debug, Clone, PartialEq)]
pub struct Observed {
    /// Updated master parameters.
    pub params: Vec<f32>,
    /// First-moment state.
    pub momentum: Vec<f32>,
    /// Second-moment state.
    pub variance: Vec<f32>,
    /// Downscaled FP16 parameters.
    pub fp16: Vec<F16>,
}

fn rendezvous_init(rank: usize, i: usize) -> f32 {
    ((rank * 17 + i * 7 + 3) % 23) as f32 / 23.0
}

fn rendezvous_perturb(rank: usize, round: usize, i: usize) -> f32 {
    ((rank * 11 + round * 5 + i * 3 + 1) % 19) as f32 / 19.0 - 0.5
}

/// One rank of the rendezvous body: barrier, `rounds` all-reduce rounds
/// with a per-rank perturbation after each, then an all-gather. The
/// injected `dead` rank skips the final round and returns — dropping its
/// transport, which is what its peers' collectives must survive with a
/// typed error instead of a hang.
///
/// The status a rank reports deliberately omits the *blamed* rank: once
/// the first survivor errors out, it drops its own links too, so later
/// survivors may attribute the cascade rather than the original failure.
/// Failure-vs-success per rank is schedule-deterministic; attribution is
/// not, and must stay out of the bitwise terminal state.
fn rendezvous_rank(
    rank: usize,
    comm: Communicator,
    elems: usize,
    rounds: usize,
    dead: Option<usize>,
) -> (Vec<f32>, f32, Vec<f32>) {
    fn status_of(e: &CollectiveError) -> f32 {
        if matches!(e, CollectiveError::RankFailed { .. }) {
            1.0
        } else {
            2.0
        }
    }
    let mut buf: Vec<f32> = (0..elems).map(|i| rendezvous_init(rank, i)).collect();
    if let Err(e) = comm.barrier() {
        return (buf, status_of(&e), Vec::new());
    }
    let my_rounds = if dead == Some(rank) { rounds - 1 } else { rounds };
    for round in 0..my_rounds {
        match comm.all_reduce_sum(&mut buf) {
            Ok(()) => {
                for (i, b) in buf.iter_mut().enumerate() {
                    *b = *b * 0.5 + rendezvous_perturb(rank, round, i);
                }
            }
            Err(e) => return (buf, status_of(&e), Vec::new()),
        }
    }
    if dead == Some(rank) {
        return (buf, 0.0, Vec::new());
    }
    match comm.all_gather(&buf) {
        Ok(g) => (buf, 0.0, g),
        Err(e) => (buf, status_of(&e), Vec::new()),
    }
}

fn deterministic_init(n: usize) -> (Vec<f32>, Vec<f32>) {
    let init: Vec<f32> = (0..n).map(|i| ((i * 13 + 5) % 31) as f32 / 31.0).collect();
    let grads: Vec<f32> = (0..n).map(|i| ((i * 7 + 1) % 29) as f32 / 29.0 - 0.5).collect();
    (init, grads)
}

/// Per-step gradient stream for the ZenFlow scenario (step 0 coincides
/// with the single-step pipeline formula above). Time-varying so the
/// importance partition actually moves across steps.
fn zenflow_grads(n: usize, step: usize) -> Vec<f32> {
    (0..n).map(|i| ((i * 7 + step * 11 + 1) % 29) as f32 / 29.0 - 0.5).collect()
}

/// Steps the worker-lifetime scenario runs over one pool: the first may
/// lose its worker, the second must find a parked or a fresh one.
const WORKER_STEPS: usize = 2;

/// Steps the ZenFlow scenario drives before draining: enough for cold
/// subgroups to flush mid-run (workers racing later steps) *and* to leave
/// residue for the drain barrier at every suite staleness bound.
const ZENFLOW_STEPS: usize = 3;

fn first_mismatch_f32(name: &str, got: &[f32], want: &[f32]) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!("{name}: length {} != {}", got.len(), want.len()));
    }
    got.iter().zip(want).position(|(a, b)| a.to_bits() != b.to_bits()).map(|i| {
        format!("{name}[{i}]: got {:?} (0x{:08x}), want {:?} (0x{:08x})", got[i], got[i].to_bits(), want[i], want[i].to_bits())
    })
}

impl CheckScenario {
    /// Encodes the scenario as a token coordinate, e.g.
    /// `pl-p48-g8-k2-r0-fn`, `pl-p48-g8-k2-r1-fp1`, `bug-p64-g8-k2-r0-fd1`.
    pub fn encode(&self) -> String {
        let kind = match self.kind {
            ScenarioKind::Pipeline => "pl",
            ScenarioKind::PipelineWorker => "plw",
            ScenarioKind::Rendezvous => "rdv",
            ScenarioKind::Coordinator => "co",
            ScenarioKind::ZenFlow => "zf",
            ScenarioKind::BuggyLostSend => "bug",
        };
        let fault = match self.fault {
            FaultPlan::None => "fn".to_string(),
            FaultPlan::Panic(n) => format!("fp{n}"),
            FaultPlan::Disconnect(n) => format!("fd{n}"),
        };
        format!(
            "{kind}-p{}-g{}-k{}-r{}-{fault}",
            self.params, self.subgroup, self.stride, self.residents
        )
    }

    /// Parses a coordinate produced by [`CheckScenario::encode`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn decode(s: &str) -> Result<CheckScenario, String> {
        let fields: Vec<&str> = s.split('-').collect();
        if fields.len() != 6 {
            return Err(format!("scenario {s:?}: want 6 '-'-separated fields, got {}", fields.len()));
        }
        let kind = match fields[0] {
            "pl" => ScenarioKind::Pipeline,
            "plw" => ScenarioKind::PipelineWorker,
            "rdv" => ScenarioKind::Rendezvous,
            "co" => ScenarioKind::Coordinator,
            "zf" => ScenarioKind::ZenFlow,
            "bug" => ScenarioKind::BuggyLostSend,
            other => return Err(format!("unknown scenario kind {other:?}")),
        };
        let num = |f: &str, tag: &str| -> Result<usize, String> {
            f.strip_prefix(tag)
                .ok_or_else(|| format!("field {f:?}: want prefix {tag:?}"))?
                .parse::<usize>()
                .map_err(|e| format!("field {f:?}: {e}"))
        };
        let fault = match fields[5] {
            "fn" => FaultPlan::None,
            f if f.starts_with("fp") => FaultPlan::Panic(num(f, "fp")?),
            f if f.starts_with("fd") => FaultPlan::Disconnect(num(f, "fd")?),
            other => return Err(format!("unknown fault field {other:?}")),
        };
        Ok(CheckScenario {
            kind,
            params: num(fields[1], "p")?,
            subgroup: num(fields[2], "g")?,
            stride: num(fields[3], "k")?,
            residents: num(fields[4], "r")?,
            fault,
        })
    }

    fn fresh_state(&self) -> (MixedPrecisionState, Vec<f32>, Vec<SubgroupSpec>) {
        let (init, grads) = deterministic_init(self.params);
        let state = MixedPrecisionState::new(init, UpdateRule::adam(), 0.01);
        let sgs = partition_into_subgroups(self.params, self.subgroup);
        (state, grads, sgs)
    }

    /// Rendezvous field decoding: `(world, rounds, elems, dead)`. A
    /// disconnect rank outside the world is ignored rather than rejected,
    /// keeping decode total over the coordinate grammar.
    fn rendezvous_shape(&self) -> (usize, usize, usize, Option<usize>) {
        let world = self.subgroup.max(1);
        let dead = match self.fault {
            FaultPlan::Disconnect(r) if r < world => Some(r),
            _ => None,
        };
        (world, self.stride.max(1), self.params, dead)
    }

    /// The sequential oracle: `full_step` + full downscale on one thread
    /// (pipeline kinds), or the rank-order collective fold
    /// (`CheckScenario::rendezvous_expected`).
    pub fn expected(&self) -> Observed {
        if self.kind == ScenarioKind::Rendezvous {
            return self.rendezvous_expected();
        }
        if self.kind == ScenarioKind::Coordinator {
            return self.coordinator_expected();
        }
        if self.kind == ScenarioKind::ZenFlow {
            return self.zenflow_expected();
        }
        if self.kind == ScenarioKind::PipelineWorker {
            return self.worker_expected();
        }
        let (mut state, grads, _) = self.fresh_state();
        state.full_step(&grads);
        let fp16 = state.downscale_range(0..self.params);
        Observed {
            params: state.params().to_vec(),
            momentum: state.momentum().to_vec(),
            variance: state.variance().to_vec(),
            fp16,
        }
    }

    /// Runs the scenario body once (under whatever scheduler context is
    /// installed) and returns the terminal state.
    ///
    /// # Panics
    ///
    /// Panics on pipeline precondition errors — scenarios are constructed
    /// to satisfy them, so a failure here is a scenario-definition bug.
    pub fn observed(&self) -> Observed {
        if self.kind == ScenarioKind::Rendezvous {
            return self.rendezvous_observed();
        }
        if self.kind == ScenarioKind::Coordinator {
            return self.coordinator_observed();
        }
        if self.kind == ScenarioKind::ZenFlow {
            return self.zenflow_observed();
        }
        if self.kind == ScenarioKind::PipelineWorker {
            return self.worker_observed();
        }
        let (mut state, grads, sgs) = self.fresh_state();
        match self.kind {
            ScenarioKind::Rendezvous
            | ScenarioKind::Coordinator
            | ScenarioKind::ZenFlow
            | ScenarioKind::PipelineWorker => {
                unreachable!("handled above")
            }
            ScenarioKind::Pipeline => {
                let cfg = PipelineConfig {
                    stride: StridePolicy::Fixed(self.stride.max(1)),
                    static_residents: self.residents,
                    fault_injection: self.fault.to_device_fault(),
                };
                let report = match hybrid_update(&mut state, &grads, &sgs, cfg) {
                    Ok(r) => r,
                    Err(e) => panic!("scenario {} precondition failure: {e}", self.encode()),
                };
                Observed {
                    params: state.params().to_vec(),
                    momentum: state.momentum().to_vec(),
                    variance: state.variance().to_vec(),
                    fp16: report.fp16_params,
                }
            }
            ScenarioKind::BuggyLostSend => {
                let kill_after = match self.fault {
                    FaultPlan::Disconnect(n) => n,
                    _ => 1,
                };
                let fp16 = buggy_lost_send_update(
                    &mut state,
                    &grads,
                    &sgs,
                    self.stride.max(1),
                    kill_after,
                );
                Observed {
                    params: state.params().to_vec(),
                    momentum: state.momentum().to_vec(),
                    variance: state.variance().to_vec(),
                    fp16,
                }
            }
        }
    }

    /// Runs the worker-lifetime body: [`WORKER_STEPS`] pooled steps over
    /// the ZenFlow scenario's time-varying gradient stream, the fault armed
    /// in the first, then the pool dropped *inside* the run so the parked
    /// worker's exit is part of every schedule. `momentum` carries the
    /// pool's spawn count as a marker, `variance` the bytes still metered
    /// as lent after each step (0 when every loan came back).
    fn worker_observed(&self) -> Observed {
        let (mut state, _, sgs) = self.fresh_state();
        let pool = ArenaPool::new();
        let mut fp16 = Vec::new();
        let mut lent_after_steps = 0;
        for step in 0..WORKER_STEPS {
            let cfg = PipelineConfig {
                stride: StridePolicy::Fixed(self.stride.max(1)),
                static_residents: self.residents,
                fault_injection: if step == 0 { self.fault.to_device_fault() } else { None },
            };
            let grads = zenflow_grads(self.params, step);
            fp16 = match hybrid_update_pooled(&mut state, &grads, &sgs, cfg, None, &pool) {
                Ok(r) => r.fp16_params,
                Err(e) => panic!("scenario {} precondition failure: {e}", self.encode()),
            };
            lent_after_steps += pool.in_use_bytes();
        }
        let spawns = pool.worker_spawns();
        drop(pool);
        let mut momentum = state.momentum().to_vec();
        momentum.push(spawns as f32);
        let mut variance = state.variance().to_vec();
        variance.push(lent_after_steps as f32);
        Observed { params: state.params().to_vec(), momentum, variance, fp16 }
    }

    /// Sequential oracle for [`ScenarioKind::PipelineWorker`]: as many
    /// `full_step`s over the same gradients, and one worker — two when the
    /// first step's fault took the first.
    fn worker_expected(&self) -> Observed {
        let (mut state, _, _) = self.fresh_state();
        for step in 0..WORKER_STEPS {
            state.full_step(&zenflow_grads(self.params, step));
        }
        let fp16 = state.downscale_range(0..self.params);
        let mut momentum = state.momentum().to_vec();
        momentum.push(if self.fault == FaultPlan::None { 1.0 } else { 2.0 });
        let mut variance = state.variance().to_vec();
        variance.push(0.0);
        Observed { params: state.params().to_vec(), momentum, variance, fp16 }
    }

    /// Runs the blocking-mode collective rendezvous: one virtual thread
    /// per rank over an in-process mesh. The terminal
    /// [`Observed`] reuses the pipeline fields: `params` holds every
    /// rank's final buffer in rank order, `momentum` one status per rank
    /// (0.0 completed, 1.0 typed rank failure, 2.0 any other error — a
    /// collective-layer bug the oracle flags), `variance` the
    /// concatenated all-gather results, `fp16` is empty.
    fn rendezvous_observed(&self) -> Observed {
        let (world, rounds, elems, dead) = self.rendezvous_shape();
        let comms = Communicator::world(world);
        let per_rank: Vec<(Vec<f32>, f32, Vec<f32>)> = sync::scope(|scope| {
            let handles: Vec<_> = comms
                .into_iter()
                .enumerate()
                .map(|(rank, comm)| {
                    scope.spawn(move || rendezvous_rank(rank, comm, elems, rounds, dead))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(r) => r,
                    Err(_) => panic!("rendezvous rank panicked"),
                })
                .collect()
        });
        let mut params = Vec::new();
        let mut momentum = Vec::new();
        let mut variance = Vec::new();
        for (buf, status, gathered) in per_rank {
            params.extend_from_slice(&buf);
            momentum.push(status);
            variance.extend_from_slice(&gathered);
        }
        Observed { params, momentum, variance, fp16: Vec::new() }
    }

    /// The two-tenant fixture the coordinator scenario serves: one job
    /// per tenant, CPU-only strides (the coordinator's own concurrency is
    /// what exploration should bite on, not the inner pipeline's), seeds
    /// fixed so every job's numerics are a pure function of its spec.
    fn coordinator_fixture(&self) -> Vec<JobSpec> {
        let iterations = self.stride.max(1);
        ["alfa", "beta"]
            .iter()
            .enumerate()
            .map(|(i, tenant)| {
                let spec: Result<JobSpec, _> = serde_json::from_str(&format!(
                    r#"{{ "tenant": "{tenant}", "name": "j", "iterations": {iterations},
                          "seed": {}, "trainer": {{
                              "params": {}, "subgroup_size": {},
                              "deep_optimizer_states": {{ "update_stride": "cpu_only" }} }} }}"#,
                    i as u64 + 1,
                    self.params,
                    self.subgroup,
                ));
                match spec {
                    Ok(s) => s,
                    Err(e) => panic!("scenario {} fixture: {e}", self.encode()),
                }
            })
            .collect()
    }

    /// Runs the coordinator body: two virtual submitter threads race
    /// their jobs into the intake channel while the coordinator admits,
    /// grants, preempts, and completes on a one-GPU cluster. The terminal
    /// [`Observed`] packs every job's final state sorted by tenant —
    /// schedule-invariant by design — plus `[completed,
    /// lease_violations]` markers appended to `momentum`.
    fn coordinator_observed(&self) -> Observed {
        let fixture = self.coordinator_fixture();
        let profile = HardwareProfile::jlse_h100().with_num_gpus(1);
        let slice = self.residents.max(1);
        let (tx, rx) = sync::unbounded();
        let (report, states) = sync::scope(|scope| {
            for spec in fixture {
                let tx = tx.clone();
                scope.spawn(move || {
                    let _ = tx.send(spec);
                });
            }
            drop(tx);
            let mut coord = Coordinator::new(
                profile,
                ServeOptions {
                    slice_iters: Some(slice),
                    retain_final_states: true,
                    prove_preemption: false,
                    ..ServeOptions::default()
                },
            );
            let report = match coord.run_channel(rx) {
                Ok(r) => r,
                Err(e) => panic!("scenario {} serve failure: {e}", self.encode()),
            };
            (report, coord.job_states())
        });
        let mut params = Vec::new();
        let mut momentum = Vec::new();
        let mut variance = Vec::new();
        for (_, _, state) in &states {
            params.extend_from_slice(&state.params);
            momentum.extend_from_slice(state.optimizer.momentum());
            variance.extend_from_slice(state.optimizer.variance());
        }
        momentum.push(report.completed as f32);
        momentum.push(report.lease_violations as f32);
        Observed { params, momentum, variance, fp16: Vec::new() }
    }

    /// Sequential oracle for [`ScenarioKind::Coordinator`]: each job run
    /// standalone on a dedicated trainer (no coordinator, no preemption),
    /// in tenant order — exactly what the served numerics must equal
    /// bitwise on every terminal schedule. The markers assert both jobs
    /// completed and no lease was ever double-granted.
    fn coordinator_expected(&self) -> Observed {
        let mut params = Vec::new();
        let mut momentum = Vec::new();
        let mut variance = Vec::new();
        let fixture = self.coordinator_fixture();
        let completed = fixture.len() as f32;
        for spec in fixture {
            let init = dos_serve::init_stream(spec.seed, spec.trainer.params);
            let mut trainer = match spec.trainer.clone().build(init) {
                Ok(t) => t,
                Err(e) => panic!("scenario {} oracle build: {e}", self.encode()),
            };
            for iter in 0..spec.iterations {
                let grads = dos_serve::grad_stream(spec.seed, iter, spec.trainer.params);
                if let Err(e) = trainer.step(&grads) {
                    panic!("scenario {} oracle step: {e}", self.encode());
                }
            }
            params.extend_from_slice(trainer.params());
            momentum.extend_from_slice(trainer.momentum());
            variance.extend_from_slice(trainer.variance());
        }
        momentum.push(completed);
        momentum.push(0.0);
        Observed { params, momentum, variance, fp16: Vec::new() }
    }

    /// Decodes the ZenFlow policy from the coordinate fields: `stride` is
    /// the staleness bound, `residents` the hot subgroup count `r`, turned
    /// into an importance ratio `r / n` (clamped so at least one and at
    /// most all subgroups are hot — `hot_count` ceils, so the ratio maps
    /// back onto exactly `r` for the suite shapes).
    fn zenflow_config(&self) -> ZenFlowConfig {
        let n = dos_zero::partition_into_subgroups(self.params, self.subgroup).len().max(1);
        let r = self.residents.clamp(1, n);
        ZenFlowConfig {
            importance_ratio: r as f64 / n as f64,
            staleness_bound: self.stride.max(1),
        }
    }

    /// Runs the ZenFlow cross-iteration body: [`ZENFLOW_STEPS`] calls to
    /// [`ZenFlowPipeline::step`] with a [`ZenFlowPipeline::poll_pending`]
    /// harvest between steps (so finished asynchronous workers rendezvous
    /// at schedule-dependent points), then the mandatory drain barrier.
    /// The terminal [`Observed`] packs the full optimizer state, the full
    /// FP16 downscale, and the observed maximum staleness appended to
    /// `momentum` — so a schedule that over-ages a cold gradient diverges
    /// from the oracle even if the numerics happen to agree.
    ///
    /// The staleness bound is also asserted directly: exceeding it panics,
    /// which exploration reports as a schedule failure.
    fn zenflow_observed(&self) -> Observed {
        let (init, _) = deterministic_init(self.params);
        let mut state = MixedPrecisionState::new(init, UpdateRule::adam(), 0.01);
        let sgs = partition_into_subgroups(self.params, self.subgroup);
        let cfg = self.zenflow_config();
        let mut pipe = ZenFlowPipeline::new(sgs, cfg);
        for t in 0..ZENFLOW_STEPS {
            pipe.step(&mut state, &zenflow_grads(self.params, t));
            pipe.poll_pending(&mut state);
        }
        pipe.drain(&mut state);
        let max_age = pipe.max_age_seen();
        assert!(
            max_age <= cfg.effective_staleness(),
            "scenario {}: staleness bound violated ({max_age} > {})",
            self.encode(),
            cfg.effective_staleness()
        );
        let fp16 = state.downscale_range(0..self.params);
        let mut momentum = state.momentum().to_vec();
        momentum.push(max_age as f32);
        Observed {
            params: state.params().to_vec(),
            momentum,
            variance: state.variance().to_vec(),
            fp16,
        }
    }

    /// Sequential oracle for [`ScenarioKind::ZenFlow`]:
    /// [`zenflow_reference`] over the same gradient stream — the identical
    /// importance/accumulate/flush/drain decisions inline on one thread —
    /// with the reference's max staleness as the `momentum` marker.
    fn zenflow_expected(&self) -> Observed {
        let (init, _) = deterministic_init(self.params);
        let mut state = MixedPrecisionState::new(init, UpdateRule::adam(), 0.01);
        let sgs = partition_into_subgroups(self.params, self.subgroup);
        let cfg = self.zenflow_config();
        let steps: Vec<Vec<f32>> =
            (0..ZENFLOW_STEPS).map(|t| zenflow_grads(self.params, t)).collect();
        let max_age = zenflow_reference(&mut state, &sgs, &cfg, &steps);
        let fp16 = state.downscale_range(0..self.params);
        let mut momentum = state.momentum().to_vec();
        momentum.push(max_age as f32);
        Observed {
            params: state.params().to_vec(),
            momentum,
            variance: state.variance().to_vec(),
            fp16,
        }
    }

    /// Sequential oracle for [`ScenarioKind::Rendezvous`]: replays the
    /// rank-order element-wise fold the collective layer guarantees
    /// (`all_reduce_sum` accumulates in rank order, independent of
    /// arrival order), so the comparison is bitwise. With an injected
    /// disconnect the final round fails on every survivor — buffers stay
    /// at their pre-final-round state, no gather happens, and each
    /// survivor's status must be the typed rank-failure marker.
    fn rendezvous_expected(&self) -> Observed {
        let (world, rounds, elems, dead) = self.rendezvous_shape();
        let mut bufs: Vec<Vec<f32>> = (0..world)
            .map(|r| (0..elems).map(|i| rendezvous_init(r, i)).collect())
            .collect();
        let full_rounds = if dead.is_some() { rounds - 1 } else { rounds };
        for round in 0..full_rounds {
            let mut sum = vec![0.0f32; elems];
            for buf in &bufs {
                for (s, b) in sum.iter_mut().zip(buf) {
                    *s += b;
                }
            }
            for (r, buf) in bufs.iter_mut().enumerate() {
                for (i, b) in buf.iter_mut().enumerate() {
                    *b = sum[i] * 0.5 + rendezvous_perturb(r, round, i);
                }
            }
        }
        let momentum: Vec<f32> = (0..world)
            .map(|r| if dead.is_some() && dead != Some(r) { 1.0 } else { 0.0 })
            .collect();
        let variance: Vec<f32> = if dead.is_some() {
            Vec::new()
        } else {
            let gathered: Vec<f32> = bufs.iter().flatten().copied().collect();
            (0..world).flat_map(|_| gathered.clone()).collect()
        };
        Observed {
            params: bufs.into_iter().flatten().collect(),
            momentum,
            variance,
            fp16: Vec::new(),
        }
    }

    /// Bitwise comparison against the sequential oracle; `Some` describes
    /// the first mismatch.
    pub fn verify(&self, obs: &Observed) -> Option<String> {
        let want = self.expected();
        first_mismatch_f32("params", &obs.params, &want.params)
            .or_else(|| first_mismatch_f32("momentum", &obs.momentum, &want.momentum))
            .or_else(|| first_mismatch_f32("variance", &obs.variance, &want.variance))
            .or_else(|| {
                if obs.fp16 != want.fp16 {
                    let i = obs
                        .fp16
                        .iter()
                        .zip(&want.fp16)
                        .position(|(a, b)| a != b)
                        .unwrap_or(usize::MAX);
                    Some(format!("fp16[{i}] diverged"))
                } else {
                    None
                }
            })
    }

    /// The default suite `dos-cli check` explores: the real pipeline
    /// across strides, residents, and both fault-recovery paths.
    pub fn default_suite() -> Vec<CheckScenario> {
        let pl = |params, subgroup, stride, residents, fault| CheckScenario {
            kind: ScenarioKind::Pipeline,
            params,
            subgroup,
            stride,
            residents,
            fault,
        };
        vec![
            // Healthy pipeline: stride sweep + residents.
            pl(48, 8, 2, 0, FaultPlan::None),
            pl(48, 8, 1, 0, FaultPlan::None),
            pl(48, 8, 3, 1, FaultPlan::None),
            pl(64, 8, 2, 2, FaultPlan::None),
            // PanicAfter recovery path (worker dies mid-step).
            pl(48, 8, 2, 0, FaultPlan::Panic(0)),
            pl(48, 8, 2, 0, FaultPlan::Panic(1)),
            pl(64, 8, 1, 1, FaultPlan::Panic(2)),
            // DisconnectAfter recovery path (worker hangs up mid-step).
            pl(48, 8, 2, 0, FaultPlan::Disconnect(0)),
            pl(48, 8, 2, 0, FaultPlan::Disconnect(1)),
            pl(64, 8, 1, 1, FaultPlan::Disconnect(2)),
        ]
    }

    /// The worker-lifetime suite `dos-cli check` explores alongside the
    /// pipeline (`--scenario plw`): two steps over one pool with a
    /// static-resident tail, at strides 1 and 2, healthy and with the
    /// first step's worker lost to a panic or a disconnect; then an
    /// all-device cell (every subgroup lent) healthy, lost before its first
    /// job, and lost on its last (the sixth).
    pub fn worker_suite() -> Vec<CheckScenario> {
        let plw = |stride, residents, fault| CheckScenario {
            kind: ScenarioKind::PipelineWorker,
            params: 48,
            subgroup: 8,
            stride,
            residents,
            fault,
        };
        vec![
            plw(2, 1, FaultPlan::None),
            plw(1, 1, FaultPlan::None),
            plw(2, 1, FaultPlan::Panic(1)),
            plw(1, 1, FaultPlan::Panic(2)),
            plw(2, 1, FaultPlan::Disconnect(0)),
            plw(1, 1, FaultPlan::Disconnect(1)),
            plw(1, 2, FaultPlan::None),
            plw(1, 2, FaultPlan::Panic(0)),
            plw(1, 2, FaultPlan::Disconnect(5)),
        ]
    }

    /// The rendezvous suite `dos-cli check` explores alongside the
    /// pipeline: blocking-mode collectives over the in-process mesh,
    /// healthy and with a mid-run rank disconnect.
    pub fn rendezvous_suite() -> Vec<CheckScenario> {
        let rdv = |elems, world, rounds, fault| CheckScenario {
            kind: ScenarioKind::Rendezvous,
            params: elems,
            subgroup: world,
            stride: rounds,
            residents: 0,
            fault,
        };
        vec![
            rdv(4, 3, 2, FaultPlan::None),
            rdv(4, 2, 3, FaultPlan::None),
            rdv(4, 3, 2, FaultPlan::Disconnect(1)),
            rdv(4, 3, 1, FaultPlan::Disconnect(2)),
        ]
    }

    /// The coordinator suite `dos-cli check` explores alongside the
    /// pipeline: the two-tenant serve fixture, once with single-iteration
    /// leases (a preemption between every pair of slices) and once with a
    /// lease long enough that jobs complete unpreempted.
    pub fn coordinator_suite() -> Vec<CheckScenario> {
        let co = |params, subgroup, iterations, slice| CheckScenario {
            kind: ScenarioKind::Coordinator,
            params,
            subgroup,
            stride: iterations,
            residents: slice,
            fault: FaultPlan::None,
        };
        vec![co(16, 8, 2, 1), co(16, 8, 2, 2)]
    }

    /// The ZenFlow suite `dos-cli check` explores alongside the pipeline:
    /// the cross-iteration asynchronous update body across staleness
    /// bounds and hot-set sizes (6 subgroups with 2 hot, then 8 subgroups
    /// with 3 hot).
    pub fn zenflow_suite() -> Vec<CheckScenario> {
        let zf = |params, subgroup, staleness, hot| CheckScenario {
            kind: ScenarioKind::ZenFlow,
            params,
            subgroup,
            stride: staleness,
            residents: hot,
            fault: FaultPlan::None,
        };
        vec![zf(48, 8, 1, 2), zf(48, 8, 2, 2), zf(64, 8, 1, 3)]
    }

    /// The canonical seeded-bug demo scenario: stride 1 ships every
    /// subgroup, the worker disconnects after one job, and the buggy
    /// fallback drops any job whose send fails.
    pub fn seeded_bug() -> CheckScenario {
        CheckScenario {
            kind: ScenarioKind::BuggyLostSend,
            params: 64,
            subgroup: 8,
            stride: 1,
            residents: 0,
            fault: FaultPlan::Disconnect(1),
        }
    }
}

/// The deliberately seeded ordering bug: a copy of the hybrid pipeline's
/// structure whose send-failure fallback *drops the job* instead of
/// re-running it on the CPU.
///
/// Under the default "main runs until it blocks" schedule every H2D send
/// is enqueued before the worker first runs, so no send ever fails and the
/// consumed-but-unreturned jobs are correctly retried via the pending
/// list — the bug stays invisible. Only a schedule that lets the worker
/// consume its kill quota and disconnect *while the main thread still has
/// sends outstanding* makes a send fail and exposes the dropped update.
///
/// Returns the FP16 downscale the (buggy) step produced.
pub fn buggy_lost_send_update(
    state: &mut MixedPrecisionState,
    grads: &[f32],
    subgroups: &[SubgroupSpec],
    stride: usize,
    kill_after: usize,
) -> Vec<F16> {
    state.begin_step();
    let step = state.step_count();
    let rule = state.rule();
    let lr = state.lr();

    let (h2d_tx, h2d_rx) = sync::unbounded::<(SubgroupSpec, Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>)>();
    let (d2h_tx, d2h_rx) = sync::unbounded::<(SubgroupSpec, Vec<f32>, Vec<f32>, Vec<f32>, Vec<F16>)>();

    let mut fp16 = vec![F16::ZERO; state.len()];
    let mut pending: Vec<SubgroupSpec> = Vec::new();
    let mut worker_lost = false;

    sync::scope(|scope| {
        let worker = scope.spawn(move || {
            let mut processed = 0usize;
            while let Ok((sg, mut p, mut m, mut v, g)) = h2d_rx.recv() {
                if processed == kill_after {
                    return; // injected disconnect: drops both endpoints
                }
                rule.apply(step, lr, &mut p, &g, &mut m, &mut v);
                let p16 = p.iter().map(|&x| F16::from_f32(x)).collect();
                if d2h_tx.send((sg, p, m, v, p16)).is_err() {
                    return;
                }
                processed += 1;
            }
        });

        let cpu_apply = |state: &mut MixedPrecisionState, fp16: &mut Vec<F16>, sg: &SubgroupSpec| {
            state.update_range(sg.range(), &grads[sg.range()]);
            for (dst, src) in fp16[sg.range()].iter_mut().zip(state.downscale_range(sg.range())) {
                *dst = src;
            }
        };

        for (i, sg) in subgroups.iter().enumerate() {
            let on_device = !worker_lost && (i + 1) % stride.max(1) == 0;
            if on_device {
                let (p, m, v) = state.snapshot_range(sg.range());
                let job = (*sg, p.to_vec(), m.to_vec(), v.to_vec(), grads[sg.range()].to_vec());
                match h2d_tx.send(job) {
                    Ok(()) => pending.push(*sg),
                    Err(_) => {
                        // BUG: the job never left the host, but nothing
                        // re-runs it — its subgroup silently keeps the
                        // pre-update state.
                        worker_lost = true;
                    }
                }
            } else {
                cpu_apply(state, &mut fp16, sg);
            }
        }
        drop(h2d_tx);

        while let Ok((sg, p, m, v, p16)) = d2h_rx.recv() {
            pending.retain(|q| q.id != sg.id);
            state.write_back_range(sg.range(), &p, &m, &v);
            fp16[sg.range()].copy_from_slice(&p16);
        }

        let _ = worker.join();

        // The pending-retry path itself is correct (same as the real
        // pipeline): consumed-but-unreturned jobs re-run on the CPU.
        for sg in std::mem::take(&mut pending) {
            cpu_apply(state, &mut fp16, &sg);
        }
    });

    fp16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordinates_round_trip() {
        for sc in CheckScenario::default_suite()
            .into_iter()
            .chain(CheckScenario::rendezvous_suite())
            .chain(CheckScenario::coordinator_suite())
            .chain(CheckScenario::zenflow_suite())
            .chain(CheckScenario::worker_suite())
            .chain([CheckScenario::seeded_bug()])
        {
            assert_eq!(CheckScenario::decode(&sc.encode()), Ok(sc), "{}", sc.encode());
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(CheckScenario::decode("pl-p48-g8-k2-r0").is_err());
        assert!(CheckScenario::decode("xx-p48-g8-k2-r0-fn").is_err());
        assert!(CheckScenario::decode("pl-q48-g8-k2-r0-fn").is_err());
        assert!(CheckScenario::decode("pl-p48-g8-k2-r0-fz9").is_err());
    }

    #[test]
    fn pipeline_scenarios_pass_outside_a_checked_run() {
        // Sanity: the bodies themselves are sound under the OS scheduler.
        for sc in CheckScenario::default_suite() {
            let obs = sc.observed();
            assert!(sc.verify(&obs).is_none(), "{} diverged", sc.encode());
        }
    }

    #[test]
    fn worker_scenarios_pass_outside_a_checked_run() {
        // Two steps over one pool under the OS scheduler: the spawn-count
        // marker must already hold there (one worker, or two after a loss).
        for sc in CheckScenario::worker_suite() {
            let obs = sc.observed();
            assert!(sc.verify(&obs).is_none(), "{}: {:?}", sc.encode(), sc.verify(&obs));
        }
    }

    #[test]
    fn coordinator_scenarios_pass_outside_a_checked_run() {
        // The serve fixture's numerics must match dedicated runs even
        // under the OS scheduler (preemption included).
        for sc in CheckScenario::coordinator_suite() {
            let obs = sc.observed();
            assert!(sc.verify(&obs).is_none(), "{} diverged", sc.encode());
        }
    }

    #[test]
    fn rendezvous_scenarios_pass_outside_a_checked_run() {
        // Same sanity for the collective rendezvous, including the
        // disconnect variants: survivors must report the typed rank
        // failure (status 1.0) with buffers frozen at the pre-final-round
        // state, under the OS scheduler too.
        for sc in CheckScenario::rendezvous_suite() {
            let obs = sc.observed();
            assert!(sc.verify(&obs).is_none(), "{} diverged", sc.encode());
        }
    }

    #[test]
    fn zenflow_scenarios_pass_outside_a_checked_run() {
        // The cross-iteration bodies must match the sequential
        // bounded-staleness oracle bitwise under the OS scheduler too,
        // and every suite entry must exercise the cold path (a marker of
        // 0 would mean the scenario degenerated to synchronous Adam).
        for sc in CheckScenario::zenflow_suite() {
            let obs = sc.observed();
            assert!(sc.verify(&obs).is_none(), "{} diverged", sc.encode());
            let max_age = obs.momentum[obs.momentum.len() - 1];
            assert!(max_age >= 1.0, "{}: cold path never exercised", sc.encode());
        }
    }

    #[test]
    fn buggy_fixture_is_clean_under_the_default_schedule() {
        // The seeded bug must be invisible under the deterministic default
        // schedule (main thread runs until it blocks): every send is
        // enqueued before the worker first runs, so no send fails. This is
        // what makes it a fair "only schedule exploration finds this"
        // fixture.
        let sc = CheckScenario::seeded_bug();
        let failure = crate::explore::replay(
            &[],
            &|| sc.observed(),
            &|obs| sc.verify(obs),
            20_000,
        );
        assert!(failure.is_none(), "seeded bug fired under the default schedule: {failure:?}");
    }
}
