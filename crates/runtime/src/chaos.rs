//! Seeded chaos campaigns over the fault-tolerance machinery.
//!
//! `dos-cli chaos` drives this module: a deterministic battery of injected
//! failures — device-worker kills mid-update, torn checkpoint writes, PCIe
//! degradation windows, and transient transfer faults — each paired with
//! the invariant the middleware must uphold:
//!
//! * a degraded hybrid update stays **byte-exact** with the sequential CPU
//!   reference and loses no subgroup update;
//! * a crash recovers from the **newest valid checkpoint** and replays to a
//!   **bitwise identical** final state;
//! * simulated faults surface as **trace instants** and delay — never
//!   drop — scheduled operations;
//! * with `--transport-faults SPEC`, DP training over a fault-injected
//!   transport absorbs transient faults **bitwise** (sequence-numbered
//!   retransmits) and survives permanent rank failures by **elastic
//!   degradation** at reduced world size.
//!
//! Every check is reproducible from its seed; any broken invariant makes
//! the CLI exit nonzero.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use dos_collectives::TransportFaultPlan;
use dos_core::{hybrid_update, DeviceFault, PipelineConfig};
use dos_hal::{FaultPlan, SimTime};
use dos_optim::{MixedPrecisionState, UpdateRule};
use dos_sim::{simulate_iteration_with, IterationOptions};
use dos_telemetry::Tracer;
use dos_zero::partition_into_subgroups;

use dos_train::checkpoint::CheckpointStore;
use crate::config::{ConfigError, RuntimeConfig};
use crate::functional::{train_functional, FunctionalConfig, RankFailurePolicy};

/// One class of injected fault a campaign can include.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A simulated PCIe degradation window (bandwidth collapses for part
    /// of the iteration).
    Degrade,
    /// Transient simulated transfer failures that must be retried.
    TransferFail,
    /// A real device-worker thread killed mid-update (panic and silent
    /// disconnect).
    WorkerKill,
    /// A torn/corrupted newest checkpoint at recovery time.
    CkptCorrupt,
}

impl FaultKind {
    /// Parses a comma-separated fault spec, e.g.
    /// `degrade,worker-kill`. An empty spec selects every kind.
    ///
    /// # Errors
    ///
    /// Returns the offending token for unknown fault names.
    pub fn parse_spec(spec: &str) -> Result<Vec<FaultKind>, String> {
        if spec.trim().is_empty() {
            return Ok(FaultKind::all().to_vec());
        }
        spec.split(',')
            .map(|tok| match tok.trim() {
                "degrade" => Ok(FaultKind::Degrade),
                "transfer-fail" => Ok(FaultKind::TransferFail),
                "worker-kill" => Ok(FaultKind::WorkerKill),
                "ckpt-corrupt" => Ok(FaultKind::CkptCorrupt),
                other => Err(format!(
                    "unknown fault kind `{other}` (expected degrade, transfer-fail, \
                     worker-kill, ckpt-corrupt)"
                )),
            })
            .collect()
    }

    /// Every fault kind, in campaign order.
    pub fn all() -> [FaultKind; 4] {
        [FaultKind::Degrade, FaultKind::TransferFail, FaultKind::WorkerKill, FaultKind::CkptCorrupt]
    }
}

/// Options for a chaos campaign.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Seed every injected fault derives from (same seed → same campaign).
    pub seed: u64,
    /// Which fault kinds to include.
    pub faults: Vec<FaultKind>,
    /// Where to write the Chrome trace of the faulted simulated iteration
    /// (fault instants included), if anywhere.
    pub trace_out: Option<PathBuf>,
    /// Where to write the flight-recorder dump produced by the monitored
    /// worker-kill check — and, when a transport-faults spec is set, by
    /// the transport check (which runs last and overwrites it with a dump
    /// containing the `fault:collective:*` instants), if anywhere.
    pub flight_out: Option<PathBuf>,
    /// Transport fault spec (the [`TransportFaultPlan::parse`] grammar,
    /// e.g. `drop:0.05,delay:1..3,disconnect:rank1@iter3`). When present,
    /// the campaign additionally runs DP=4 functional training over a
    /// fault-injected transport and verifies the retransmit/elastic
    /// invariants.
    pub transport_faults: Option<String>,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            seed: 0,
            faults: FaultKind::all().to_vec(),
            trace_out: None,
            flight_out: None,
            transport_faults: None,
        }
    }
}

/// One verified invariant of the campaign.
#[derive(Debug, Clone)]
pub struct ChaosCheck {
    /// Stable check name (one per invariant).
    pub name: String,
    /// Whether the invariant held.
    pub passed: bool,
    /// What was injected and what was observed.
    pub detail: String,
}

impl ChaosCheck {
    /// Files a check's verdict under its stable name: `Ok` carries what was
    /// injected and observed, `Err` the invariant that broke.
    fn new(name: &str, verdict: Result<String, String>) -> ChaosCheck {
        let (passed, detail) = match verdict {
            Ok(detail) => (true, detail),
            Err(detail) => (false, detail),
        };
        ChaosCheck { name: name.to_string(), passed, detail }
    }
}

/// Outcome of a chaos campaign.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The seed the campaign ran under.
    pub seed: u64,
    /// Every invariant checked, in execution order.
    pub checks: Vec<ChaosCheck>,
}

impl ChaosReport {
    /// Whether every checked invariant held.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// Renders the campaign as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = format!("chaos campaign (seed {})\n", self.seed);
        for c in &self.checks {
            let mark = if c.passed { "PASS" } else { "FAIL" };
            out.push_str(&format!("  [{mark}] {:<32} {}\n", c.name, c.detail));
        }
        out
    }
}

/// Deterministic pseudo-random stream for deriving campaign parameters
/// (splitmix64 — matches the HAL fault plan's generator family).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs the seeded campaign: every selected fault kind is injected and its
/// invariant verified. The report's `passed()` drives the CLI exit code.
///
/// # Errors
///
/// Returns [`ConfigError`] only when `config` itself cannot be resolved;
/// broken invariants are reported as failed checks, not errors.
pub fn run_chaos(
    config: &RuntimeConfig,
    opts: &ChaosOptions,
) -> Result<ChaosReport, ConfigError> {
    with_quiet_injected_panics(|| {
        let mut checks = Vec::new();
        let mut check = |name, verdict| checks.push(ChaosCheck::new(name, verdict));
        let kill = opts.faults.contains(&FaultKind::WorkerKill);
        let degrade = opts.faults.contains(&FaultKind::Degrade);
        let transfer = opts.faults.contains(&FaultKind::TransferFail);
        let corrupt = opts.faults.contains(&FaultKind::CkptCorrupt);
        let flight_out = opts.flight_out.as_deref();

        if kill {
            check("pipeline-degradation-byte-exact", degraded_pipeline(opts.seed));
            check("degraded-training-matches-healthy", degraded_training(opts.seed));
            check("monitored-incident-flight-dump", monitored_incident(opts.seed, flight_out));
        }
        if corrupt {
            let verdict =
                with_scratch_dir("ckpt", opts.seed, |dir| checkpoint_recovery(opts.seed, dir));
            check("checkpoint-recovery-bitwise", verdict);
        }
        if degrade || transfer {
            check("sim-faults-traced-not-dropped", sim_faults(config, opts, degrade, transfer)?);
        }
        if let Some(spec) = &opts.transport_faults {
            let verdict = with_scratch_dir("transport", opts.seed, |dir| {
                transport_faults(opts.seed, spec, dir, flight_out)
            });
            check("transport-faults-dp-training", verdict);
        }

        Ok(ChaosReport { seed: opts.seed, checks })
    })
}

/// Runs `f` with the panic hook filtered: fault scenarios (the worker-kill
/// checks here, `dos-check`'s fault scenarios) deliberately panic device
/// workers with an "injected device fault" message that the pipeline
/// contains and recovers from, so those expected reports stay off stderr
/// while every other panic stays loud. The previous hook is restored
/// afterwards.
pub fn with_quiet_injected_panics<T>(f: impl FnOnce() -> T) -> T {
    use std::panic;
    use std::sync::Arc;

    type Hook = Box<dyn Fn(&panic::PanicHookInfo<'_>) + Sync + Send>;
    let prev: Arc<Hook> = Arc::new(panic::take_hook());
    let chained = Arc::clone(&prev);
    panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("");
        if !msg.contains("injected device fault") {
            chained(info);
        }
    }));
    let out = f();
    drop(panic::take_hook());
    if let Ok(original) = Arc::try_unwrap(prev) {
        panic::set_hook(original);
    }
    out
}

/// Runs `f` over a fresh scratch directory of its own and removes it
/// afterwards, whatever the verdict. The name counts calls, so campaigns
/// that run at once in one process (same tag and seed) never share one.
fn with_scratch_dir<T>(tag: &str, seed: u64, f: impl FnOnce(&Path) -> T) -> T {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("dos-chaos-{tag}-{}-{seed:x}-{call}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = f(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Worker kills at seeded points: the degraded hybrid update must stay
/// byte-exact with `full_step` and account for every subgroup.
fn degraded_pipeline(seed: u64) -> Result<String, String> {
    let mut rng = seed;
    let n = 1500 + (splitmix64(&mut rng) % 500) as usize;
    let sg = 64 + (splitmix64(&mut rng) % 64) as usize;
    let subgroups = partition_into_subgroups(n, sg);
    let shipped = subgroups.len() / 2; // stride 2 ships every other subgroup

    let init: Vec<f32> = (0..n).map(|i| ((i * 13 + 5) % 31) as f32 / 31.0 - 0.4).collect();
    let grads: Vec<f32> = (0..n).map(|i| ((i * 7 + 1) % 29) as f32 / 29.0 - 0.5).collect();
    let mut reference = MixedPrecisionState::new(init.clone(), UpdateRule::adam(), 0.01);
    reference.full_step(&grads);

    let kill_points: Vec<usize> =
        (0..4).map(|_| (splitmix64(&mut rng) as usize) % shipped.max(1)).collect();
    let mut cases = 0;
    let mut lost_total = 0;
    for &at in &kill_points {
        for fault in [DeviceFault::PanicAfter(at), DeviceFault::DisconnectAfter(at)] {
            let mut state = MixedPrecisionState::new(init.clone(), UpdateRule::adam(), 0.01);
            let cfg = PipelineConfig { fault_injection: Some(fault), ..Default::default() };
            let report = hybrid_update(&mut state, &grads, &subgroups, cfg)
                .map_err(|e| format!("{fault:?}: pipeline error {e}"))?;
            if state.params() != reference.params()
                || state.momentum() != reference.momentum()
                || state.variance() != reference.variance()
            {
                return Err(format!("{fault:?}: degraded update diverged from full_step"));
            }
            if report.device_subgroups + report.cpu_subgroups != subgroups.len() {
                return Err(format!(
                    "{fault:?}: {} + {} subgroups accounted, expected {}",
                    report.device_subgroups,
                    report.cpu_subgroups,
                    subgroups.len()
                ));
            }
            let degraded =
                report.degraded.ok_or_else(|| format!("{fault:?}: worker loss went unreported"))?;
            lost_total += degraded.lost_jobs_retried_on_cpu;
            cases += 1;
        }
    }
    Ok(format!(
        "{cases} worker kills over {} subgroups, all byte-exact; {lost_total} lost jobs \
         retried on CPU",
        subgroups.len()
    ))
}

/// End-to-end: training with a worker that dies every step must match a
/// healthy run bitwise.
fn degraded_training(seed: u64) -> Result<String, String> {
    let mut rng = seed;
    let stream: Vec<usize> = (0..1500).map(|i| (i * 7 + 3) % 61).collect();
    let ds = dos_data::TokenDataset::from_stream(&stream, 8);
    let mut cfg = FunctionalConfig::small();
    cfg.world = 1;
    cfg.subgroup_size = 512;
    cfg.seed = seed ^ 0xC0DE;
    let iters = 4;

    let healthy = train_functional(&cfg, &ds, iters).map_err(|e| format!("healthy run: {e}"))?;
    let kill_at = (splitmix64(&mut rng) % 3) as usize;
    for fault in [DeviceFault::PanicAfter(kill_at), DeviceFault::DisconnectAfter(kill_at)] {
        let mut faulty = cfg.clone();
        faulty.pipeline.fault_injection = Some(fault);
        let run = train_functional(&faulty, &ds, iters).map_err(|e| format!("{fault:?}: {e}"))?;
        if run.losses != healthy.losses || run.final_params != healthy.final_params {
            return Err(format!("{fault:?}: degraded training diverged from healthy run"));
        }
        if run.degraded_steps == 0 {
            return Err(format!("{fault:?}: no step reported degradation"));
        }
    }
    Ok(format!(
        "worker killed after {kill_at} jobs every step (panic + disconnect), \
         {iters}-iteration runs bitwise identical to healthy"
    ))
}

/// A monitored trainer under an injected worker kill: the incident must
/// surface end-to-end through the production-monitoring layer — a
/// degraded iteration report, a `health:degraded` instant, and an
/// automatic flight-recorder dump whose ring context still contains the
/// pipeline's `fault:device-worker` instant.
fn monitored_incident(seed: u64, flight_out: Option<&Path>) -> Result<String, String> {
    let mut rng = seed;
    let n = 1000 + (splitmix64(&mut rng) % 200) as usize;
    let json = format!(
        r#"{{ "params": {n}, "subgroup_size": 128,
              "deep_optimizer_states": {{ "update_stride": 2 }},
              "monitor": {{ "flight_capacity": 512 }} }}"#
    );
    let init: Vec<f32> = (0..n).map(|i| ((i * 13 + 5) % 31) as f32 / 31.0 - 0.4).collect();
    let grads: Vec<f32> = (0..n).map(|i| ((i * 7 + 1) % 29) as f32 / 29.0 - 0.5).collect();
    let mut trainer =
        dos_train::Trainer::from_json(&json, init).map_err(|e| format!("build: {e}"))?;
    // Healthy steps first, so the dump has pre-incident ring context.
    for _ in 0..2 {
        trainer.step(&grads).map_err(|e| format!("healthy step: {e}"))?;
    }
    let kill_at = (splitmix64(&mut rng) % 2) as usize;
    trainer.inject_fault(Some(DeviceFault::PanicAfter(kill_at)));
    let report = trainer.step(&grads).map_err(|e| format!("faulted step: {e}"))?;
    if report.degraded.is_none() {
        return Err("injected worker kill did not degrade the step".to_string());
    }
    if !trainer.last_iteration().is_some_and(|r| r.degraded) {
        return Err("iteration report did not carry the degradation".to_string());
    }
    let dump = trainer
        .tracer()
        .and_then(|t| t.flight())
        .and_then(|f| f.last_dump())
        .ok_or_else(|| "no automatic flight dump was produced".to_string())?;
    let has_fault = dump.events.iter().any(|e| e.name == "fault:device-worker");
    let has_health = dump.reason.starts_with("health:degraded")
        || dump.events.iter().any(|e| e.name == "health:degraded");
    if !has_fault || !has_health {
        return Err(format!(
            "flight dump (reason {:?}, {} events) missing fault/health context",
            dump.reason,
            dump.events.len()
        ));
    }
    if let Some(out) = flight_out {
        std::fs::write(out, dump.to_json()).map_err(|e| format!("write {}: {e}", out.display()))?;
    }
    Ok(format!(
        "worker killed after {kill_at} jobs under monitoring; flight dump ({:?}, {} events) \
         contains fault:device-worker and health:degraded",
        dump.reason,
        dump.events.len()
    ))
}

/// Kill-and-resume with a torn newest checkpoint: recovery must fall back
/// to the newest valid snapshot and replay to a bitwise identical state.
fn checkpoint_recovery(seed: u64, dir: &Path) -> Result<String, String> {
    let stream: Vec<usize> = (0..1500).map(|i| (i * 7 + 3) % 61).collect();
    let ds = dos_data::TokenDataset::from_stream(&stream, 8);
    let mut cfg = FunctionalConfig::small();
    cfg.world = 1;
    cfg.seed = seed ^ 0x5EED;
    cfg.checkpoint_dir = Some(dir.to_path_buf());
    cfg.checkpoint_every = 2;
    let total = 8;

    let uninterrupted = {
        let mut c = cfg.clone();
        c.checkpoint_dir = None;
        train_functional(&c, &ds, total).map_err(|e| format!("uninterrupted run: {e}"))?
    };

    // "Crash" after 5 iterations: checkpoints exist at iterations 2 and 4.
    train_functional(&cfg, &ds, 5).map_err(|e| format!("interrupted run: {e}"))?;
    let store = CheckpointStore::open(dir, cfg.checkpoint_keep)
        .map_err(|e| format!("open store: {e}"))?;

    // Tear the newest checkpoint mid-file, as a crash during a non-atomic
    // copy would.
    let newest = store.path_for(4);
    let bytes = std::fs::read(&newest).map_err(|e| format!("read {}: {e}", newest.display()))?;
    std::fs::write(&newest, &bytes[..bytes.len() / 2])
        .map_err(|e| format!("truncate {}: {e}", newest.display()))?;

    let (ckpt, path) = store.latest_valid().map_err(|e| format!("recovery: {e}"))?;
    if ckpt.iteration != 2 {
        return Err(format!(
            "fallback picked iteration {} from {}, expected 2",
            ckpt.iteration,
            path.display()
        ));
    }
    let resumed_from = ckpt.iteration;
    let mut resume_cfg = cfg.clone();
    resume_cfg.checkpoint_dir = None;
    resume_cfg.resume = Some(ckpt);
    let resumed = train_functional(&resume_cfg, &ds, total - resumed_from)
        .map_err(|e| format!("resumed run: {e}"))?;

    if resumed.final_params != uninterrupted.final_params {
        return Err("resumed final params differ from uninterrupted run".to_string());
    }
    if resumed.losses[..] != uninterrupted.losses[resumed_from..] {
        return Err("resumed loss trajectory differs from uninterrupted run".to_string());
    }
    Ok(format!(
        "newest checkpoint torn, recovered from iteration {resumed_from}, replayed to \
         iteration {total} bitwise identical"
    ))
}

/// DP=4 functional training over a fault-injected transport. Transient
/// faults (drops, duplications, delays) must be absorbed by the
/// sequence-numbered retransmit path with the run staying **bitwise
/// identical** to a fault-free one; permanent failures (disconnects,
/// partitions) must trigger elastic degradation — evict the dead rank,
/// rebuild at reduced world size from the latest crash-consistent
/// checkpoint, finish the run. Either way the injections surface as
/// `fault:collective:*` instants, and the flight dump written to
/// `flight_out` carries them for post-mortem.
fn transport_faults(
    seed: u64,
    spec: &str,
    dir: &Path,
    flight_out: Option<&Path>,
) -> Result<String, String> {
    let plan =
        &TransportFaultPlan::parse(spec, seed).map_err(|e| format!("bad fault spec: {e}"))?;
    let stream: Vec<usize> = (0..2000).map(|i| (i * 7 + 3) % 61).collect();
    let ds = dos_data::TokenDataset::from_stream(&stream, 8);
    let world = 4;
    let iters = 4;
    let mut cfg = FunctionalConfig::small();
    cfg.world = world;
    cfg.subgroup_size = 512;
    cfg.seed = seed ^ 0x7A57;
    cfg.collective_timeout = Some(Duration::from_secs(30));

    let permanent = *plan != plan.without_permanent_failures();
    let tracer = Tracer::with_flight(65_536);
    let mut faulted = cfg.clone();
    faulted.transport_faults = Some(plan.clone());
    faulted.tracer = Some(tracer.clone());
    if permanent {
        faulted.on_rank_failure = RankFailurePolicy::Elastic;
        faulted.checkpoint_dir = Some(dir.to_path_buf());
        faulted.checkpoint_every = 1;
    }
    let run = train_functional(&faulted, &ds, iters).map_err(|e| format!("faulted run: {e}"))?;

    let fault_instants = tracer
        .events()
        .iter()
        .filter(|e| e.name.starts_with("fault:collective:"))
        .count();
    if !plan.is_noop() && fault_instants == 0 {
        return Err("injected transport faults left no fault:collective:* instants".to_string());
    }
    if !run.ranks_consistent {
        return Err("surviving ranks ended with inconsistent parameters".to_string());
    }
    // Every world has a rank 0 (an eviction renumbers the survivors): its
    // communicators' own byte counter, retransmissions and heartbeats
    // included, must have reached the run's registry.
    if tracer.metrics().counter("collectives.bytes_sent|rank=0") == 0 {
        return Err("no collectives.bytes_sent counter was published".to_string());
    }
    let detail = if permanent {
        if run.recoveries == 0 {
            return Err("permanent rank failure triggered no elastic recovery".to_string());
        }
        if run.final_world >= world {
            return Err(format!(
                "world did not shrink under a permanent failure (final world {})",
                run.final_world
            ));
        }
        format!(
            "{fault_instants} fault instants; {} elastic eviction(s), finished at world \
             {} of {world}",
            run.recoveries, run.final_world
        )
    } else {
        // No permanent failure: retransmission must make the faults
        // invisible — bitwise identical to the fault-free run.
        let healthy =
            train_functional(&cfg, &ds, iters).map_err(|e| format!("fault-free run: {e}"))?;
        if run.recoveries != 0 || run.final_world != world {
            return Err(format!(
                "transient-only plan caused {} recoveries (final world {})",
                run.recoveries, run.final_world
            ));
        }
        if run.losses != healthy.losses || run.final_params != healthy.final_params {
            return Err("transient transport faults changed the numerics".to_string());
        }
        format!(
            "{fault_instants} fault instants absorbed by retransmission; DP={world} run \
             bitwise identical to fault-free"
        )
    };
    if let Some(out) = flight_out {
        let dump = tracer
            .flight()
            .ok_or_else(|| "tracer lost its flight recorder".to_string())?
            .dump("chaos:transport-faults");
        std::fs::write(out, dump.to_json()).map_err(|e| format!("write {}: {e}", out.display()))?;
    }
    Ok(detail)
}

/// Simulated PCIe degradation + transient transfer failures: fault events
/// must appear as trace instants, and every scheduled op must still run.
///
/// The outer error is the campaign's (the config does not resolve, the
/// engine or the trace export failed); the inner one is the check's verdict.
fn sim_faults(
    config: &RuntimeConfig,
    opts: &ChaosOptions,
    degrade: bool,
    transfer: bool,
) -> Result<Result<String, String>, ConfigError> {
    let train = config.resolve()?;
    let sched = crate::sim_trainer::scheduler_for(config);

    let run = |faults: Option<&FaultPlan>, tracer: &Tracer| {
        let opts = IterationOptions { faults, tracer: Some(tracer), ..Default::default() };
        simulate_iteration_with(&train, sched.as_ref(), opts)
            .map_err(|e| ConfigError::Invalid { detail: e.to_string() })
    };
    let clean_tracer = Tracer::new();
    let clean = run(None, &clean_tracer)?;

    let mut plan = FaultPlan::seeded(opts.seed);
    if degrade {
        // A bandwidth collapse spanning the middle of the iteration.
        let mid = clean.total_secs * 0.3;
        let end = clean.total_secs * 0.9;
        plan = plan.degrade("pcie.h2d", SimTime::from_secs(mid), SimTime::from_secs(end), 0.25);
    }
    if transfer {
        // Two transient failures on the first H2D op: retried, recovered.
        plan = plan.fail_nth("pcie.h2d", 0, 2);
    }

    let tracer = Tracer::new();
    let faulted = run(Some(&plan), &tracer)?;

    let events = tracer.events();
    let instants: Vec<_> = events
        .iter()
        .filter(|e| e.track == "faults" && e.name.starts_with("fault:"))
        .collect();
    if transfer && instants.is_empty() {
        return Ok(Err("no fault instants recorded on the faults track".to_string()));
    }

    // Faults delay ops but never drop them: the set of scheduled span
    // names must be unchanged (fault spans and instants excluded).
    let op_names = |tr: &Tracer| -> BTreeSet<String> {
        tr.events()
            .iter()
            .filter(|e| e.track != "faults" && !e.name.starts_with("fault:"))
            .map(|e| format!("{}/{}", e.track, e.name))
            .collect()
    };
    let clean_ops = op_names(&clean_tracer);
    let faulted_ops = op_names(&tracer);
    if clean_ops != faulted_ops {
        let missing: Vec<_> = clean_ops.difference(&faulted_ops).take(3).cloned().collect();
        return Ok(Err(format!("faults dropped scheduled ops (e.g. {missing:?})")));
    }
    if degrade && faulted.total_secs < clean.total_secs {
        return Ok(Err(format!(
            "degraded iteration finished faster than clean one ({:.3}s < {:.3}s)",
            faulted.total_secs, clean.total_secs
        )));
    }

    if let Some(out) = &opts.trace_out {
        let trace = dos_telemetry::chrome_trace(&tracer);
        let rendered = serde_json::to_string_pretty(&trace)
            .map_err(|e| ConfigError::Invalid { detail: format!("serialize trace: {e}") })?;
        std::fs::write(out, rendered)
            .map_err(|e| ConfigError::Invalid { detail: format!("write {}: {e}", out.display()) })?;
    }

    Ok(Ok(format!(
        "{} fault instants recorded, {} ops all preserved, iteration {:.3}s -> {:.3}s",
        instants.len(),
        clean_ops.len(),
        clean.total_secs,
        faulted.total_secs
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_campaign_passes_on_a_healthy_build() {
        let config = RuntimeConfig::from_json(r#"{ "model": "7B" }"#).unwrap();
        let report = run_chaos(&config, &ChaosOptions::default()).unwrap();
        assert_eq!(report.checks.len(), 5, "{}", report.render());
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn campaigns_are_reproducible_per_seed() {
        let config = RuntimeConfig::from_json(r#"{ "model": "7B" }"#).unwrap();
        let opts = ChaosOptions {
            seed: 7,
            faults: vec![FaultKind::WorkerKill],
            trace_out: None,
            flight_out: None,
            transport_faults: None,
        };
        let a = run_chaos(&config, &opts).unwrap();
        let b = run_chaos(&config, &opts).unwrap();
        let details = |r: &ChaosReport| {
            r.checks.iter().map(|c| (c.name.clone(), c.passed, c.detail.clone())).collect::<Vec<_>>()
        };
        assert_eq!(details(&a), details(&b));
    }

    #[test]
    fn flight_out_writes_the_incident_dump() {
        let out = std::env::temp_dir()
            .join(format!("dos-chaos-flight-{}.json", std::process::id()));
        let config = RuntimeConfig::from_json(r#"{ "model": "7B" }"#).unwrap();
        let opts = ChaosOptions {
            seed: 11,
            faults: vec![FaultKind::WorkerKill],
            trace_out: None,
            flight_out: Some(out.clone()),
            transport_faults: None,
        };
        let report = run_chaos(&config, &opts).unwrap();
        assert!(report.passed(), "{}", report.render());
        let text = std::fs::read_to_string(&out).unwrap();
        let dump = dos_telemetry::FlightDump::from_json(&text).unwrap();
        assert!(dump.events.iter().any(|e| e.name == "fault:device-worker"));
        assert!(dump.reason.starts_with("health:degraded"));
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn transport_faults_check_absorbs_transient_faults_bitwise() {
        let config = RuntimeConfig::from_json(r#"{ "model": "7B" }"#).unwrap();
        let opts = ChaosOptions {
            seed: 7,
            faults: vec![],
            trace_out: None,
            flight_out: None,
            transport_faults: Some("drop:0.05,delay:1..2".to_string()),
        };
        let report = run_chaos(&config, &opts).unwrap();
        assert_eq!(report.checks.len(), 1, "{}", report.render());
        assert!(report.passed(), "{}", report.render());
        assert!(report.checks[0].detail.contains("bitwise identical"), "{}", report.render());
    }

    #[test]
    fn transport_faults_check_degrades_elastically_and_dumps_flight() {
        let out = std::env::temp_dir()
            .join(format!("dos-chaos-transport-flight-{}.json", std::process::id()));
        let config = RuntimeConfig::from_json(r#"{ "model": "7B" }"#).unwrap();
        let opts = ChaosOptions {
            seed: 7,
            faults: vec![],
            trace_out: None,
            flight_out: Some(out.clone()),
            transport_faults: Some("drop:0.05,delay:1..3,disconnect:rank1@iter3".to_string()),
        };
        let report = run_chaos(&config, &opts).unwrap();
        assert!(report.passed(), "{}", report.render());
        assert!(report.checks[0].detail.contains("eviction"), "{}", report.render());
        let text = std::fs::read_to_string(&out).unwrap();
        let dump = dos_telemetry::FlightDump::from_json(&text).unwrap();
        assert!(
            dump.events.iter().any(|e| e.name.starts_with("fault:collective:")),
            "flight dump missing fault:collective instants"
        );
        std::fs::remove_file(&out).ok();

        // A garbage spec is a failed check, not a crash.
        let opts = ChaosOptions {
            transport_faults: Some("drop:lots".to_string()),
            flight_out: None,
            ..opts
        };
        let report = run_chaos(&config, &opts).unwrap();
        assert!(!report.passed());
        assert!(report.checks[0].detail.contains("bad fault spec"), "{}", report.render());
    }

    #[test]
    fn fault_spec_parsing() {
        assert_eq!(FaultKind::parse_spec("").unwrap(), FaultKind::all().to_vec());
        assert_eq!(
            FaultKind::parse_spec("degrade, worker-kill").unwrap(),
            vec![FaultKind::Degrade, FaultKind::WorkerKill]
        );
        assert!(FaultKind::parse_spec("bogus").is_err());
    }

    #[test]
    fn trace_out_writes_fault_instants() {
        let out = std::env::temp_dir()
            .join(format!("dos-chaos-trace-{}.json", std::process::id()));
        let config = RuntimeConfig::from_json(r#"{ "model": "7B" }"#).unwrap();
        let opts = ChaosOptions {
            seed: 3,
            faults: vec![FaultKind::Degrade, FaultKind::TransferFail],
            trace_out: Some(out.clone()),
            flight_out: None,
            transport_faults: None,
        };
        let report = run_chaos(&config, &opts).unwrap();
        assert!(report.passed(), "{}", report.render());
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(json.contains("fault:pcie.h2d"), "fault instants missing from exported trace");
        std::fs::remove_file(&out).ok();
    }
}
