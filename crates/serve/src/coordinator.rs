//! The global coordinator: a virtual-time event loop granting time-sliced
//! GPU leases to tenant jobs, preempting through the crash-consistent
//! checkpoint format, and proving resumed numerics bitwise identical.
//!
//! # Two clocks
//!
//! Job *numerics* run for real: every lease spawns a worker thread (via
//! the `dos_core::sync` facade, so `dos-check` can explore the
//! interleavings) that drives actual [`Trainer::step`] calls on the job's
//! deterministic gradient stream. Job *timing* is virtual: each lease's
//! duration is priced by the Equation 1 performance model at the stride
//! the tenant's control loop adopted, plus NVMe checkpoint/restore costs
//! and a small per-peer link-contention surcharge. The event loop always
//! advances to the earliest virtual event (tie-broken by job ordinal) and
//! blocks on *that specific* worker's channel, so the processing order —
//! and therefore every admission, grant, and preemption decision — is a
//! pure function of the submitted schedule, independent of how the OS or
//! the `dos-check` explorer schedules the worker threads.
//!
//! # Preemption
//!
//! When a lease expires and anyone else is waiting, the job is
//! checkpointed (the PR 3 `DOSCKPT1` format — to a [`CheckpointStore`]
//! when a directory is configured, through an in-memory
//! `to_bytes`/`from_bytes` round-trip otherwise), its budgets are
//! released, and it rejoins the queue. Because the checkpoint captures
//! the full mixed-precision state, a preempted-and-resumed job's final
//! numerics are bitwise identical to an uninterrupted run — the
//! coordinator re-derives one preempted job standalone after every run
//! and records the comparison in the report.

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;

use serde::{Deserialize, Serialize};

use dos_control::{RetuneLoop, SweepGate};
use dos_core::{sync, PerfModel};
use dos_hal::HardwareProfile;
use dos_telemetry::{SharedDoc, Tracer};
use dos_train::checkpoint::{CheckpointError, CheckpointStore, TrainingCheckpoint};
use dos_train::{Trainer, TrainerError};

use crate::admission::{AdmissionController, ClusterCapacity, Demand};
use crate::oracle::{job_cost, packing_oracle_with_arrivals, JobCost};
use crate::scheduler::{FairScheduler, SchedulerConfig};
use crate::spec::JobSpec;

/// Virtual slowdown per concurrently running peer (shared PCIe/DRAM).
pub const LINK_CONTENTION_PER_PEER: f64 = 0.02;

/// Minimum acceptable achieved-vs-oracle makespan ratio.
pub const ORACLE_RATIO_FLOOR: f64 = 0.85;

/// Bytes of checkpoint state per parameter priced against the NVMe
/// links: FP32 master + momentum + variance (12) plus the FP16 working
/// copy (2), rounded up for headers. The virtual cost models the binary
/// state a production store writes, not the in-tree debug serialization.
pub const STATE_BYTES_PER_PARAM: f64 = 16.0;

/// Auto-sized leases are long enough that one preempt/resume cycle costs
/// at most `1/PREEMPT_AMORTIZATION` of the lease's own compute.
pub const PREEMPT_AMORTIZATION: f64 = 20.0;

/// Checkpoints retained per preempted job.
const CKPT_KEEP: usize = 2;

/// Admission-wait histogram bucket bounds, seconds.
pub const WAIT_BOUNDS: [f64; 5] = [0.01, 0.1, 1.0, 10.0, 100.0];

/// Coordinator tunables.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Optimizer steps per granted lease. `None` sizes each lease
    /// automatically so a preempt/resume cycle stays amortized (see
    /// [`PREEMPT_AMORTIZATION`]); fixed values are for tests and
    /// `dos-check` scenarios, where tiny slices maximize interleavings.
    pub slice_iters: Option<usize>,
    /// Fair-share scheduler knobs.
    pub scheduler: SchedulerConfig,
    /// Directory for preemption checkpoints; `None` round-trips the
    /// serialized bytes in memory instead.
    pub checkpoint_dir: Option<PathBuf>,
    /// Retain every job's final state (the check scenario compares them);
    /// preempted jobs always retain theirs for the bitwise proof.
    pub retain_final_states: bool,
    /// A tenant counts as starved when it sits backlogged without any
    /// lease for longer than this fraction of the final makespan (or
    /// still has waiting jobs at the end); the p99 admission-to-start
    /// gate compares against the same bound.
    pub starvation_wait_fraction: f64,
    /// Re-derive one preempted job standalone and record the bitwise
    /// comparison.
    pub prove_preemption: bool,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            slice_iters: None,
            scheduler: SchedulerConfig::default(),
            checkpoint_dir: None,
            retain_final_states: false,
            starvation_wait_fraction: 0.5,
            prove_preemption: true,
        }
    }
}

/// Errors that abort a whole serve run (per-job failures do not; they
/// mark the job failed and show up in the report).
#[derive(Debug)]
pub enum ServeError {
    /// A malformed submission document or option.
    Spec(String),
    /// A trainer error outside any job's own run.
    Train(TrainerError),
    /// A checkpoint-store error outside any job's own run.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Spec(s) => write!(f, "spec: {s}"),
            ServeError::Train(e) => write!(f, "trainer: {e}"),
            ServeError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<TrainerError> for ServeError {
    fn from(e: TrainerError) -> ServeError {
        ServeError::Train(e)
    }
}

impl From<CheckpointError> for ServeError {
    fn from(e: CheckpointError) -> ServeError {
        ServeError::Checkpoint(e)
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Admitted, waiting for a lease (fresh or preempted).
    Waiting,
    /// Holds a lease; a worker thread is stepping it.
    Running,
    /// All iterations done.
    Completed,
    /// Turned away at admission (can never fit).
    Rejected,
    /// Died mid-run (build/step/checkpoint failure).
    Failed,
}

struct Job {
    id: usize,
    spec: JobSpec,
    demand: Demand,
    cost: JobCost,
    phase: Phase,
    reason: Option<String>,
    ckpt_bytes: Option<Vec<u8>>,
    ckpt_len: usize,
    iters_done: usize,
    submitted: f64,
    first_start: Option<f64>,
    finished: Option<f64>,
    preemptions: usize,
    migrations: usize,
    last_gpu: Option<usize>,
    final_state: Option<TrainingCheckpoint>,
}

/// One granted lease with a live worker behind it.
struct RunningSlice {
    job: usize,
    gpu: usize,
    iters: usize,
    virt_end: f64,
    rx: sync::Receiver<Result<Trainer, String>>,
    handle: sync::JoinHandle<()>,
}

/// Per-tenant control-plane state: a `dos-control` retune loop negotiating
/// the stride its auto/adaptive jobs are costed at (it holds nothing until
/// the tenant's first grant adopts one), clocked in grants.
struct TenantControl {
    retune: RetuneLoop,
    grants: usize,
    retunes: usize,
    /// Virtual instant since when the tenant has had backlog but no
    /// running lease (`None` while served or idle).
    wait_since: Option<f64>,
    /// Longest completed backlogged-but-unserved stretch so far.
    max_service_gap: f64,
}

impl TenantControl {
    fn new() -> TenantControl {
        TenantControl {
            retune: RetuneLoop::new(SweepGate {
                hysteresis_gain: 0.05,
                min_iters_between_retunes: 2,
                max_stride: 8,
            }),
            grants: 0,
            retunes: 0,
            wait_since: None,
            max_service_gap: 0.0,
        }
    }
}

/// Per-tenant slice of the final report (also served live at `/tenants`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantReport {
    /// Tenant name.
    pub tenant: String,
    /// Jobs submitted.
    pub jobs: usize,
    /// Jobs completed.
    pub completed: usize,
    /// Jobs rejected at admission.
    pub rejected: usize,
    /// Jobs failed mid-run.
    pub failed: usize,
    /// Optimizer steps executed.
    pub iterations: usize,
    /// Checkpoint-based preemptions suffered.
    pub preemptions: usize,
    /// Resumes that landed on a different GPU.
    pub migrations: usize,
    /// Stride retunes its control loop approved.
    pub retunes: usize,
    /// Leases granted.
    pub grants: u64,
    /// Fair-share weight.
    pub weight: f64,
    /// Mean admission-to-start wait, seconds.
    pub mean_wait_secs: f64,
    /// Worst admission-to-start wait, seconds.
    pub max_wait_secs: f64,
    /// Longest stretch the tenant sat backlogged without holding any
    /// lease, seconds — the quantity the starvation gate inspects.
    pub max_service_gap_secs: f64,
    /// Parameters updated (params × iterations).
    pub updated_params: f64,
}

/// The bitwise preemption-identity proof.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PreemptionProof {
    /// Ordinal of the proven job.
    pub job_id: usize,
    /// Its tenant.
    pub tenant: String,
    /// Its name.
    pub name: String,
    /// Times it was preempted and resumed.
    pub preemptions: usize,
    /// Iterations compared.
    pub iterations: usize,
    /// Whether params/momentum/variance match an uninterrupted run bit
    /// for bit.
    pub bitwise_identical: bool,
}

/// The outcome of a whole serve run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Jobs submitted.
    pub jobs: usize,
    /// Jobs completed.
    pub completed: usize,
    /// Jobs rejected at admission.
    pub rejected: usize,
    /// Jobs failed mid-run.
    pub failed: usize,
    /// Checkpoint-based preemptions.
    pub preemptions: usize,
    /// Resumes on a different GPU.
    pub migrations: usize,
    /// Double-granted-lease violations observed (must be zero).
    pub lease_violations: usize,
    /// Virtual makespan, seconds.
    pub makespan_secs: f64,
    /// Packing-oracle lower bound, seconds.
    pub oracle_secs: f64,
    /// `oracle_secs / makespan_secs` (1.0 when nothing ran).
    pub oracle_ratio: f64,
    /// Achieved parameter updates per virtual second.
    pub aggregate_pps: f64,
    /// The oracle's parameter updates per second.
    pub oracle_pps: f64,
    /// Mean admission-to-start wait, seconds.
    pub mean_wait_secs: f64,
    /// 99th-percentile admission-to-start wait, seconds.
    pub p99_wait_secs: f64,
    /// Worst admission-to-start wait, seconds.
    pub max_wait_secs: f64,
    /// The wait bound the p99/starvation gates compare against.
    pub wait_bound_secs: f64,
    /// Tenants whose worst wait exceeded the bound (or never started).
    pub starved_tenants: Vec<String>,
    /// Per-tenant breakdown, name order.
    pub tenants: Vec<TenantReport>,
    /// The bitwise preemption proof, when a preempted job completed.
    pub proof: Option<PreemptionProof>,
}

impl ServeReport {
    /// The control plane's own acceptance gates.
    ///
    /// # Errors
    ///
    /// Returns the first violated gate: lost or failed jobs, lease
    /// violations, starved tenants, unbounded p99 admission latency, a
    /// throughput ratio below [`ORACLE_RATIO_FLOOR`], or a preemption
    /// proof that failed bitwise comparison.
    pub fn healthy(&self) -> Result<(), String> {
        if self.completed + self.rejected + self.failed != self.jobs {
            return Err(format!(
                "lost jobs: {} completed + {} rejected + {} failed != {} submitted",
                self.completed, self.rejected, self.failed, self.jobs
            ));
        }
        if self.failed > 0 {
            return Err(format!("{} job(s) failed mid-run", self.failed));
        }
        if self.lease_violations > 0 {
            return Err(format!("{} double-granted lease(s)", self.lease_violations));
        }
        if !self.starved_tenants.is_empty() {
            return Err(format!("starved tenants: {}", self.starved_tenants.join(", ")));
        }
        if self.p99_wait_secs > self.wait_bound_secs {
            return Err(format!(
                "p99 admission-to-start {}s exceeds bound {}s",
                self.p99_wait_secs, self.wait_bound_secs
            ));
        }
        if self.completed > 0 && self.oracle_ratio < ORACLE_RATIO_FLOOR {
            return Err(format!(
                "throughput {:.3} of packing oracle < {ORACLE_RATIO_FLOOR}",
                self.oracle_ratio
            ));
        }
        if let Some(proof) = &self.proof {
            if !proof.bitwise_identical {
                return Err(format!(
                    "preempted job {}/{} diverged from its uninterrupted run",
                    proof.tenant, proof.name
                ));
            }
        }
        Ok(())
    }
}

enum Intake {
    Fixed(VecDeque<(f64, JobSpec)>),
    Channel(sync::Receiver<JobSpec>),
}

/// The multi-tenant coordinator. See the module docs for the model.
pub struct Coordinator {
    profile: HardwareProfile,
    opts: ServeOptions,
    admission: AdmissionController,
    scheduler: FairScheduler,
    tracer: Tracer,
    doc: SharedDoc,
    jobs: Vec<Job>,
    tenants: BTreeMap<String, TenantControl>,
    running: Vec<RunningSlice>,
    slot_free_at: Vec<f64>,
    now: f64,
    lease_violations: usize,
}

impl Coordinator {
    /// A coordinator over `profile` with the given options.
    pub fn new(profile: HardwareProfile, opts: ServeOptions) -> Coordinator {
        let cap = ClusterCapacity::from_profile(&profile);
        Coordinator {
            admission: AdmissionController::new(cap),
            scheduler: FairScheduler::new(opts.scheduler),
            tracer: Tracer::new(),
            doc: SharedDoc::new(),
            jobs: Vec::new(),
            tenants: BTreeMap::new(),
            running: Vec::new(),
            slot_free_at: vec![0.0; cap.gpu_slots],
            now: 0.0,
            lease_violations: 0,
            profile,
            opts,
        }
    }

    /// The tracer carrying `serve:*` instants (virtual clock) and the
    /// serving metrics registry.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The live tenant-table document (mount its `.route()` at
    /// `/tenants`).
    pub fn tenants_doc(&self) -> SharedDoc {
        self.doc.clone()
    }

    /// Runs a fixed open-loop schedule: each job arrives at its
    /// `arrival_secs`. Returns when every job has completed, failed, or
    /// been rejected.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] only for coordinator-level failures;
    /// per-job errors are absorbed into the report.
    pub fn run(&mut self, specs: Vec<JobSpec>) -> Result<ServeReport, ServeError> {
        let mut indexed: Vec<(f64, JobSpec)> =
            specs.into_iter().map(|s| (s.arrival_secs, s)).collect();
        // Stable by arrival; submission order breaks ties.
        indexed.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        self.run_loop(Intake::Fixed(indexed.into_iter().collect()))
    }

    /// Runs until the submission channel closes and every received job
    /// has completed, failed, or been rejected. Jobs arrive "now" in
    /// virtual time as they are received. This is the entry point the
    /// `dos-check` coordinator scenario explores.
    ///
    /// # Errors
    ///
    /// As [`Coordinator::run`].
    pub fn run_channel(
        &mut self,
        rx: sync::Receiver<JobSpec>,
    ) -> Result<ServeReport, ServeError> {
        self.run_loop(Intake::Channel(rx))
    }

    fn run_loop(&mut self, mut intake: Intake) -> Result<ServeReport, ServeError> {
        loop {
            match &mut intake {
                Intake::Fixed(queue) => {
                    while queue.front().is_some_and(|(t, _)| *t <= self.now + 1e-12) {
                        let (t, spec) = queue.pop_front().unwrap_or_else(|| unreachable!());
                        self.admit(spec, t);
                    }
                }
                Intake::Channel(rx) => {
                    while let Ok(spec) = rx.try_recv() {
                        let now = self.now;
                        self.admit(spec, now);
                    }
                }
            }
            self.grant();
            let next_arrival = match &intake {
                Intake::Fixed(queue) => queue.front().map(|(t, _)| *t),
                Intake::Channel(_) => None,
            };
            let next_end = self
                .running
                .iter()
                .map(|r| r.virt_end)
                .min_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            match (next_arrival, next_end) {
                (Some(a), None) => self.now = self.now.max(a),
                (Some(a), Some(e)) if a <= e => self.now = self.now.max(a),
                (_, Some(_)) => self.process_slice_end(),
                (None, None) => match &mut intake {
                    Intake::Fixed(_) => break,
                    // Idle with the channel still open: block for the next
                    // submission (a facade yield point, so checked runs
                    // explore it).
                    Intake::Channel(rx) => match rx.recv() {
                        Ok(spec) => {
                            let now = self.now;
                            self.admit(spec, now);
                        }
                        Err(_) => break,
                    },
                },
            }
        }
        Ok(self.finalize())
    }

    fn admit(&mut self, spec: JobSpec, arrival: f64) {
        let id = self.jobs.len();
        let tenant = spec.tenant.clone();
        let metrics = self.tracer.metrics();
        metrics.inc_counter("serve.jobs", 1);
        metrics.inc_counter(&format!("serve.tenant.jobs|tenant={tenant}"), 1);
        let demand = spec.demand(&self.profile);
        let cost = job_cost(&self.profile, &spec.trainer, spec.iterations);
        let rejected = spec
            .validate()
            .and_then(|()| self.admission.feasible(&demand))
            .err();
        let phase = if rejected.is_some() { Phase::Rejected } else { Phase::Waiting };
        if let Some(reason) = &rejected {
            metrics.inc_counter("serve.rejected", 1);
            metrics.inc_counter(&format!("serve.tenant.rejected|tenant={tenant}"), 1);
            self.tracer.instant_at("serve", &format!("serve:reject:{tenant}"), "serve", arrival);
            let _ = reason;
        } else {
            self.scheduler.ensure_tenant(&tenant, spec.weight());
            self.tenants.entry(tenant.clone()).or_insert_with(TenantControl::new);
            self.tracer.instant_at("serve", &format!("serve:admit:{tenant}"), "serve", arrival);
        }
        self.jobs.push(Job {
            id,
            spec,
            demand,
            cost,
            phase,
            reason: rejected,
            ckpt_bytes: None,
            ckpt_len: 0,
            iters_done: 0,
            submitted: arrival,
            first_start: None,
            finished: None,
            preemptions: 0,
            migrations: 0,
            last_gpu: None,
            final_state: None,
        });
        if phase == Phase::Waiting {
            self.mark_waiting(&tenant, arrival);
        }
        self.publish();
    }

    /// Service began for `tenant` at `at`: close any open backlogged-
    /// but-unserved stretch and fold it into the tenant's max gap.
    fn mark_service(&mut self, tenant: &str, at: f64) {
        if let Some(ctl) = self.tenants.get_mut(tenant) {
            if let Some(since) = ctl.wait_since.take() {
                ctl.max_service_gap = ctl.max_service_gap.max(at - since);
            }
        }
    }

    /// Re-evaluates whether `tenant` just entered the backlogged-but-
    /// unserved state at `at` (has waiting jobs, holds no lease).
    fn mark_waiting(&mut self, tenant: &str, at: f64) {
        let waiting = self
            .jobs
            .iter()
            .any(|j| j.phase == Phase::Waiting && j.spec.tenant == tenant);
        let running = self.running.iter().any(|r| self.jobs[r.job].spec.tenant == tenant);
        if waiting && !running {
            if let Some(ctl) = self.tenants.get_mut(tenant) {
                ctl.wait_since.get_or_insert(at);
            }
        }
    }

    /// Work-conserving grant loop: while a slot is free and someone
    /// waits, credit a round and grant the best-ranked tenant whose
    /// candidate job fits.
    fn grant(&mut self) {
        loop {
            if self.admission.free_slots() == 0 {
                break;
            }
            // Lowest-ordinal waiting job per tenant.
            let mut per_tenant: BTreeMap<String, usize> = BTreeMap::new();
            for job in &self.jobs {
                if job.phase == Phase::Waiting {
                    per_tenant.entry(job.spec.tenant.clone()).or_insert(job.id);
                }
            }
            if per_tenant.is_empty() {
                break;
            }
            let names: Vec<String> = per_tenant.keys().cloned().collect();
            self.scheduler.credit(names.iter().map(String::as_str));
            debug_assert!(self.scheduler.check_bounds().is_ok());
            let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let ordered: Vec<String> =
                self.scheduler.order(&name_refs).into_iter().map(str::to_string).collect();
            let mut granted = false;
            for tenant in ordered {
                let job_id = per_tenant[&tenant];
                let demand = self.jobs[job_id].demand;
                if let Some(gpu) = self.admission.reserve(&demand) {
                    self.start_slice(job_id, gpu, self.now, None);
                    granted = true;
                    break;
                }
            }
            if !granted {
                break;
            }
        }
    }

    /// The stride a tenant's control loop adopts under the current
    /// contention, gated by sweep + hysteresis (`dos-control`).
    fn tenant_stride(&mut self, tenant: &str, params: f64, subgroup: f64, peers: usize) -> Option<usize> {
        let now = self.now;
        let contention = if peers > 0 {
            self.profile.dram_contention_cpu_factor.clamp(0.05, 1.0)
        } else {
            1.0
        };
        let pm = PerfModel::new(self.profile.perf_model_inputs()).with_contention(contention);
        let ctl = self.tenants.get_mut(tenant)?;
        ctl.grants += 1;
        let sweep = ctl.retune.sweep(&pm, params, subgroup);
        let price = |k| pm.predicted_update_secs(params, subgroup, k);
        if let Some(mv) = ctl.retune.step(ctl.grants, &sweep, price) {
            ctl.retunes += 1;
            let verb = if mv.from.is_none() { "adopt" } else { "retune" };
            self.tracer.control_decision(&format!("serve:{tenant}:{verb} k={:?}", mv.to), now);
        }
        ctl.retune.stride()
    }

    /// Virtual seconds per optimizer step under `peers` concurrent
    /// leases.
    fn secs_per_iter(&self, params: f64, subgroup: f64, stride: Option<usize>, peers: usize) -> f64 {
        let pm = PerfModel::new(self.profile.perf_model_inputs());
        pm.predicted_update_secs(params, subgroup, stride)
            * (1.0 + LINK_CONTENTION_PER_PEER * peers as f64)
    }

    /// Virtual NVMe seconds to write (`write`) or read back one job's
    /// checkpoint state.
    fn ckpt_secs(&self, params: usize, write: bool) -> f64 {
        let bytes = params as f64 * STATE_BYTES_PER_PARAM;
        bytes / if write { self.profile.nvme_write_bw } else { self.profile.nvme_read_bw }
    }

    /// Lease length in iterations: the configured fixed slice, or an
    /// auto slice long enough that one preempt/resume cycle costs at most
    /// `1/PREEMPT_AMORTIZATION` of the slice's own compute.
    fn slice_iters_for(&self, job: &Job) -> usize {
        let remaining = job.spec.iterations.saturating_sub(job.iters_done);
        let base = match self.opts.slice_iters {
            Some(n) => n.max(1),
            None => {
                let overhead = self.ckpt_secs(job.spec.trainer.params, true)
                    + self.ckpt_secs(job.spec.trainer.params, false);
                let spi = job.cost.secs_per_iter;
                if spi > 0.0 {
                    ((PREEMPT_AMORTIZATION * overhead / spi).ceil() as usize).max(1)
                } else {
                    1
                }
            }
        };
        base.min(remaining).max(1)
    }

    /// Rebuilds or resumes the job's trainer. Returns the trainer, the
    /// virtual restore cost, and whether it was a checkpoint resume.
    fn materialize(&mut self, job_id: usize) -> (Result<Trainer, String>, f64, bool) {
        let job = &self.jobs[job_id];
        let params = job.spec.trainer.params;
        if job.iters_done == 0 && job.ckpt_len == 0 {
            let init = init_stream(job.spec.seed, params);
            let trainer = job.spec.trainer.clone().build(init).map_err(|e| e.to_string());
            return (trainer, 0.0, false);
        }
        let restore_secs = self.ckpt_secs(params, false);
        let checkpoint = match &self.opts.checkpoint_dir {
            Some(dir) => CheckpointStore::open(dir.join(format!("job-{:04}", job.id)), CKPT_KEEP)
                .and_then(|store| store.latest_valid())
                .map(|(ckpt, _path)| ckpt)
                .map_err(|e| e.to_string()),
            None => job
                .ckpt_bytes
                .as_deref()
                .ok_or_else(|| "missing in-memory checkpoint".to_string())
                .and_then(|bytes| TrainingCheckpoint::from_bytes(bytes).map_err(|e| e.to_string())),
        };
        let trainer = checkpoint
            .and_then(|ckpt| job.spec.trainer.clone().resume(&ckpt).map_err(|e| e.to_string()));
        (trainer, restore_secs, true)
    }

    /// Starts one lease for `job_id` on `gpu` at virtual time `at`.
    /// `live` carries the trainer across an in-place lease renewal;
    /// otherwise the job is built fresh or resumed from its checkpoint.
    fn start_slice(&mut self, job_id: usize, gpu: usize, at: f64, live: Option<Trainer>) {
        if self.running.iter().any(|r| r.gpu == gpu) {
            // A second lease on an occupied slot would be a scheduler bug;
            // record it and refuse rather than corrupt the slot state.
            self.lease_violations += 1;
            self.tracer.metrics().inc_counter("serve.lease_violations", 1);
            return;
        }
        let params = self.jobs[job_id].spec.trainer.params;
        let subgroup = self.jobs[job_id].spec.trainer.subgroup_size;
        let tenant = self.jobs[job_id].spec.tenant.clone();
        let policy = self.jobs[job_id].spec.trainer.pipeline().stride;
        let peers = self.running.len();
        let stride =
            policy.resolve(|| self.tenant_stride(&tenant, params as f64, subgroup as f64, peers));
        let renewal = live.is_some();
        let (trainer, restore_secs, restored) = match live {
            Some(t) => (Ok(t), 0.0, false),
            None => self.materialize(job_id),
        };
        let trainer = match trainer {
            Ok(t) => t,
            Err(e) => {
                self.fail_job(job_id, Some(gpu), at, e);
                return;
            }
        };
        let secs_per_iter = self.secs_per_iter(params as f64, subgroup as f64, stride, peers);
        let iters = self.slice_iters_for(&self.jobs[job_id]);
        let job = &mut self.jobs[job_id];
        let virt_start = at.max(self.slot_free_at[gpu]);
        let virt_end = virt_start + restore_secs + iters as f64 * secs_per_iter;
        if job.first_start.is_none() {
            job.first_start = Some(virt_start);
            let wait = virt_start - job.submitted;
            self.tracer.metrics().observe("serve.wait_secs", &WAIT_BOUNDS, wait);
        }
        if restored && job.last_gpu.is_some_and(|g| g != gpu) {
            job.migrations += 1;
            self.tracer.metrics().inc_counter(
                &format!("serve.tenant.migrations|tenant={tenant}"),
                1,
            );
        }
        job.last_gpu = Some(gpu);
        job.phase = Phase::Running;

        let (tx, rx) = sync::unbounded();
        let seed = job.spec.seed;
        let start_iter = job.iters_done;
        let handle = sync::spawn(move || {
            let mut trainer = trainer;
            let mut failure = None;
            for iter in start_iter..start_iter + iters {
                let grads = grad_stream(seed, iter, params);
                if let Err(e) = trainer.step(&grads) {
                    failure = Some(e.to_string());
                    break;
                }
            }
            let _ = tx.send(match failure {
                None => Ok(trainer),
                Some(e) => Err(e),
            });
        });
        self.running.push(RunningSlice { job: job_id, gpu, iters, virt_end, rx, handle });
        self.mark_service(&tenant, virt_start);
        self.scheduler.charge(&tenant, virt_end - virt_start);
        debug_assert!(self.scheduler.check_bounds().is_ok());
        let metrics = self.tracer.metrics();
        metrics.inc_counter("serve.grants", 1);
        metrics.inc_counter(&format!("serve.tenant.grants|tenant={tenant}"), 1);
        metrics.set_gauge("serve.running", self.running.len() as f64);
        if !renewal {
            self.tracer.instant_at("serve", &format!("serve:grant:{tenant}"), "serve", virt_start);
        }
    }

    fn fail_job(&mut self, job_id: usize, gpu: Option<usize>, at: f64, reason: String) {
        let job = &mut self.jobs[job_id];
        job.phase = Phase::Failed;
        job.reason = Some(reason);
        job.finished = Some(at);
        let tenant = job.spec.tenant.clone();
        let demand = job.demand;
        if let Some(gpu) = gpu {
            self.admission.release(gpu, &demand);
            self.slot_free_at[gpu] = self.slot_free_at[gpu].max(at);
        }
        let metrics = self.tracer.metrics();
        metrics.inc_counter("serve.failed", 1);
        metrics.inc_counter(&format!("serve.tenant.failed|tenant={tenant}"), 1);
        self.tracer.instant_at("serve", &format!("serve:fail:{tenant}"), "serve", at);
        self.mark_waiting(&tenant, at);
        self.publish();
    }

    /// Retires the earliest-ending slice (ties broken by job ordinal):
    /// completes, preempts, or renews its job.
    fn process_slice_end(&mut self) {
        let Some(idx) = self
            .running
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.virt_end
                    .partial_cmp(&b.virt_end)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.job.cmp(&b.job))
            })
            .map(|(i, _)| i)
        else {
            return;
        };
        let slice = self.running.remove(idx);
        // Block on this specific worker: processing order follows virtual
        // time regardless of how the threads were actually scheduled.
        let outcome = slice.rx.recv();
        let _ = slice.handle.join();
        self.now = self.now.max(slice.virt_end);
        self.tracer.metrics().set_gauge("serve.running", self.running.len() as f64);
        let mut trainer = match outcome {
            Ok(Ok(trainer)) => trainer,
            Ok(Err(e)) => {
                self.fail_job(slice.job, Some(slice.gpu), slice.virt_end, e);
                return;
            }
            Err(_) => {
                self.fail_job(
                    slice.job,
                    Some(slice.gpu),
                    slice.virt_end,
                    "worker thread disappeared".to_string(),
                );
                return;
            }
        };
        let job = &mut self.jobs[slice.job];
        job.iters_done += slice.iters;
        let tenant = job.spec.tenant.clone();
        let params = job.spec.trainer.params;
        let metrics = self.tracer.metrics();
        metrics.inc_counter(&format!("serve.tenant.iters|tenant={tenant}"), slice.iters as u64);
        metrics.inc_counter(
            &format!("serve.tenant.updated_params|tenant={tenant}"),
            (slice.iters * params) as u64,
        );
        if job.iters_done >= job.spec.iterations {
            job.phase = Phase::Completed;
            job.finished = Some(slice.virt_end);
            if job.preemptions > 0 || self.opts.retain_final_states {
                job.final_state = Some(trainer.checkpoint());
            }
            let demand = job.demand;
            self.admission.release(slice.gpu, &demand);
            self.slot_free_at[slice.gpu] = self.slot_free_at[slice.gpu].max(slice.virt_end);
            metrics.inc_counter("serve.completed", 1);
            metrics.inc_counter(&format!("serve.tenant.completed|tenant={tenant}"), 1);
            self.tracer.instant_at(
                "serve",
                &format!("serve:complete:{tenant}"),
                "serve",
                slice.virt_end,
            );
            self.mark_waiting(&tenant, slice.virt_end);
            self.publish();
            return;
        }
        let backlog = self.jobs.iter().any(|j| j.phase == Phase::Waiting);
        if !backlog {
            // Nobody waiting: renew the lease in place.
            self.start_slice(slice.job, slice.gpu, slice.virt_end, Some(trainer));
            return;
        }
        // Preempt: checkpoint, release the lease, rejoin the queue.
        let checkpoint = trainer.checkpoint();
        drop(trainer);
        let bytes = match checkpoint.to_bytes() {
            Ok(b) => b,
            Err(e) => {
                self.fail_job(slice.job, Some(slice.gpu), slice.virt_end, e.to_string());
                return;
            }
        };
        let write_secs = self.ckpt_secs(params, true);
        if let Some(dir) = &self.opts.checkpoint_dir {
            let saved = CheckpointStore::open(dir.join(format!("job-{:04}", slice.job)), CKPT_KEEP)
                .and_then(|store| store.save(&checkpoint));
            if let Err(e) = saved {
                self.fail_job(slice.job, Some(slice.gpu), slice.virt_end, e.to_string());
                return;
            }
        }
        let job = &mut self.jobs[slice.job];
        job.ckpt_len = bytes.len();
        if self.opts.checkpoint_dir.is_none() {
            job.ckpt_bytes = Some(bytes);
        }
        job.phase = Phase::Waiting;
        job.preemptions += 1;
        let demand = job.demand;
        self.admission.release(slice.gpu, &demand);
        // The slot drains the checkpoint write before its next lease.
        self.slot_free_at[slice.gpu] = slice.virt_end + write_secs;
        let metrics = self.tracer.metrics();
        metrics.inc_counter("serve.preemptions", 1);
        metrics.inc_counter(&format!("serve.tenant.preemptions|tenant={tenant}"), 1);
        self.tracer.instant_at(
            "serve",
            &format!("serve:preempt:{tenant}"),
            "serve",
            slice.virt_end,
        );
        self.mark_waiting(&tenant, slice.virt_end);
        self.publish();
    }

    /// Per-tenant reports over the current job table, name order.
    pub fn tenant_reports(&self) -> Vec<TenantReport> {
        let mut by_tenant: BTreeMap<&str, TenantReport> = BTreeMap::new();
        for job in &self.jobs {
            let tenant = job.spec.tenant.as_str();
            let entry = by_tenant.entry(tenant).or_insert_with(|| TenantReport {
                tenant: tenant.to_string(),
                jobs: 0,
                completed: 0,
                rejected: 0,
                failed: 0,
                iterations: 0,
                preemptions: 0,
                migrations: 0,
                retunes: self.tenants.get(tenant).map_or(0, |c| c.retunes),
                grants: self.scheduler.share(tenant).map_or(0, |s| s.granted),
                weight: self.scheduler.share(tenant).map_or(0.0, |s| s.weight),
                mean_wait_secs: 0.0,
                max_wait_secs: 0.0,
                max_service_gap_secs: self.tenants.get(tenant).map_or(0.0, |c| c.max_service_gap),
                updated_params: 0.0,
            });
            entry.jobs += 1;
            match job.phase {
                Phase::Completed => entry.completed += 1,
                Phase::Rejected => entry.rejected += 1,
                Phase::Failed => entry.failed += 1,
                Phase::Waiting | Phase::Running => {}
            }
            entry.iterations += job.iters_done;
            entry.preemptions += job.preemptions;
            entry.migrations += job.migrations;
            entry.updated_params += (job.iters_done * job.spec.trainer.params) as f64;
            if let Some(start) = job.first_start {
                let wait = start - job.submitted;
                entry.max_wait_secs = entry.max_wait_secs.max(wait);
                // Accumulate; normalized below.
                entry.mean_wait_secs += wait;
            }
        }
        let mut reports: Vec<TenantReport> = by_tenant.into_values().collect();
        for report in &mut reports {
            let started = report.completed + report.failed;
            if started > 0 {
                report.mean_wait_secs /= report.jobs.max(1) as f64;
            }
        }
        reports
    }

    fn publish(&self) {
        let reports = self.tenant_reports();
        let body = serde_json::to_string_pretty(&reports)
            .unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"));
        self.doc.publish(body);
        for report in &reports {
            self.tracer.metrics().set_gauge(
                &format!("serve.tenant.updated_params_total|tenant={}", report.tenant),
                report.updated_params,
            );
        }
    }

    /// Re-derives the lowest-ordinal preempted-and-completed job
    /// standalone and compares its final state bit for bit.
    fn prove_preemption(&self) -> Option<PreemptionProof> {
        let job = self
            .jobs
            .iter()
            .find(|j| j.phase == Phase::Completed && j.preemptions > 0 && j.final_state.is_some())?;
        let served = job.final_state.as_ref()?;
        let params = job.spec.trainer.params;
        let mut proof = PreemptionProof {
            job_id: job.id,
            tenant: job.spec.tenant.clone(),
            name: job.spec.name.clone(),
            preemptions: job.preemptions,
            iterations: job.spec.iterations,
            bitwise_identical: false,
        };
        let Ok(mut trainer) = job.spec.trainer.clone().build(init_stream(job.spec.seed, params))
        else {
            return Some(proof);
        };
        for iter in 0..job.spec.iterations {
            if trainer.step(&grad_stream(job.spec.seed, iter, params)).is_err() {
                return Some(proof);
            }
        }
        proof.bitwise_identical = bits_eq(trainer.params(), served.optimizer.params())
            && bits_eq(trainer.params(), &served.params)
            && bits_eq(trainer.momentum(), served.optimizer.momentum())
            && bits_eq(trainer.variance(), served.optimizer.variance());
        Some(proof)
    }

    fn finalize(&mut self) -> ServeReport {
        let jobs = self.jobs.len();
        let completed = self.jobs.iter().filter(|j| j.phase == Phase::Completed).count();
        let rejected = self.jobs.iter().filter(|j| j.phase == Phase::Rejected).count();
        let failed = self.jobs.iter().filter(|j| j.phase == Phase::Failed).count();
        let preemptions: usize = self.jobs.iter().map(|j| j.preemptions).sum();
        let migrations: usize = self.jobs.iter().map(|j| j.migrations).sum();
        let makespan_secs = self
            .jobs
            .iter()
            .filter_map(|j| j.finished)
            .fold(0.0, f64::max);

        // The oracle prices the served set only (rejected jobs never ran).
        let served: Vec<&Job> =
            self.jobs.iter().filter(|j| j.phase != Phase::Rejected).collect();
        let costs: Vec<JobCost> = served.iter().map(|j| j.cost).collect();
        let arrivals: Vec<f64> = served.iter().map(|j| j.submitted).collect();
        let oracle = packing_oracle_with_arrivals(&self.profile, &costs, &arrivals);
        let oracle_ratio = if makespan_secs > 0.0 && oracle.makespan_secs > 0.0 {
            oracle.makespan_secs / makespan_secs
        } else {
            1.0
        };
        let aggregate_pps = if makespan_secs > 0.0 {
            served
                .iter()
                .map(|j| (j.iters_done * j.spec.trainer.params) as f64)
                .sum::<f64>()
                / makespan_secs
        } else {
            0.0
        };

        let mut waits: Vec<f64> = self
            .jobs
            .iter()
            .filter_map(|j| j.first_start.map(|s| s - j.submitted))
            .collect();
        waits.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let mean_wait_secs =
            if waits.is_empty() { 0.0 } else { waits.iter().sum::<f64>() / waits.len() as f64 };
        let p99_wait_secs = if waits.is_empty() {
            0.0
        } else {
            waits[((waits.len() - 1) as f64 * 0.99).ceil() as usize]
        };
        let max_wait_secs = waits.last().copied().unwrap_or(0.0);
        let wait_bound_secs = self.opts.starvation_wait_fraction * makespan_secs;

        let tenants = self.tenant_reports();
        let mut starved: Vec<String> = Vec::new();
        for report in &tenants {
            // Backlog left behind means the tenant never got served out.
            let unserved = self
                .jobs
                .iter()
                .any(|j| j.spec.tenant == report.tenant && j.phase == Phase::Waiting);
            // Longest backlogged-but-unserved stretch, including one
            // still open at the end of the run.
            let mut gap = report.max_service_gap_secs;
            if let Some(since) = self.tenants.get(&report.tenant).and_then(|c| c.wait_since) {
                gap = gap.max(makespan_secs - since);
            }
            if unserved || gap > wait_bound_secs {
                starved.push(report.tenant.clone());
            }
        }

        let proof = if self.opts.prove_preemption { self.prove_preemption() } else { None };
        let metrics = self.tracer.metrics();
        metrics.set_gauge("serve.makespan_secs", makespan_secs);
        metrics.set_gauge("serve.oracle_ratio", oracle_ratio);
        metrics.set_gauge("serve.aggregate_pps", aggregate_pps);
        self.publish();

        ServeReport {
            jobs,
            completed,
            rejected,
            failed,
            preemptions,
            migrations,
            lease_violations: self.lease_violations,
            makespan_secs,
            oracle_secs: oracle.makespan_secs,
            oracle_ratio,
            aggregate_pps,
            oracle_pps: oracle.aggregate_pps,
            mean_wait_secs,
            p99_wait_secs,
            max_wait_secs,
            wait_bound_secs,
            starved_tenants: starved,
            tenants,
            proof,
        }
    }

    /// Final optimizer states of all non-rejected jobs, sorted by
    /// `(tenant, name)` — the schedule-invariant observation the
    /// `dos-check` coordinator scenario compares across interleavings.
    /// Requires [`ServeOptions::retain_final_states`].
    pub fn job_states(&self) -> Vec<(String, String, TrainingCheckpoint)> {
        let mut out: Vec<(String, String, TrainingCheckpoint)> = self
            .jobs
            .iter()
            .filter_map(|j| {
                j.final_state
                    .as_ref()
                    .map(|s| (j.spec.tenant.clone(), j.spec.name.clone(), s.clone()))
            })
            .collect();
        out.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        out
    }
}

/// Bitwise slice equality (exact, including signed zeros; NaN-safe).
fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn hash64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash to `[-1, 1)` exactly (53-bit mantissa path).
fn unit(h: u64) -> f32 {
    (((h >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0) as f32
}

/// Domain tags keeping the init and gradient streams disjoint.
const INIT_TAG: u64 = 0x1A17_5EED_0000_0001;
const GRAD_TAG: u64 = 0x6EAD_5EED_0000_0002;

/// The deterministic parameter-initialization stream of a job: a pure
/// function of `(seed, index)`, so admission order, placement, and
/// preemption cannot perturb it.
pub fn init_stream(seed: u64, n: usize) -> Vec<f32> {
    let base = hash64(seed ^ INIT_TAG);
    (0..n).map(|i| unit(hash64(base ^ i as u64)) * 0.1).collect()
}

/// The deterministic gradient stream of a job at `iter`: a pure function
/// of `(seed, iter, index)`.
pub fn grad_stream(seed: u64, iter: usize, n: usize) -> Vec<f32> {
    let base = hash64(hash64(seed ^ GRAD_TAG) ^ iter as u64);
    (0..n).map(|i| unit(hash64(base ^ i as u64)) * 0.05).collect()
}
