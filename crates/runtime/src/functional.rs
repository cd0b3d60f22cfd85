//! Functional data-parallel training with interleaved hybrid updates.
//!
//! End-to-end *real* training, tying every substrate together: each
//! data-parallel rank runs on its own OS thread with its own `dos-nn` model
//! replica and a disjoint `dos-data` shard; gradients are reduce-scattered
//! with `dos-collectives`; each rank updates only its own ZeRO-style
//! optimizer shard through the `dos-core` interleaved hybrid pipeline
//! (CPU thread + device worker); updated FP16 parameters are all-gathered
//! back. This is the paper's training loop in miniature — with real
//! numerics instead of a timing model.

use std::sync::Arc;
use std::time::Duration;

use dos_collectives::{
    CollectiveConfig, CollectiveError, Communicator, FaultyTransport, InProcTransport,
    Transport, TransportFaultPlan,
};
#[cfg(unix)]
use dos_collectives::SocketTransport;
use dos_control::{WallClockTuner, WallClockTunerConfig};
use dos_core::{PipelineConfig, PipelineError, StridePolicy};
use dos_data::{DataLoader, TokenDataset};
use dos_nn::{Gpt, GptConfig, VisitParams};
use dos_optim::{clip_grad_norm, DynamicLossScaler, LrSchedule, MixedPrecisionState, UpdateRule};
use dos_telemetry::{SpanGuard, TraceEvent, Tracer};
use dos_train::checkpoint::{AsyncCheckpointer, CheckpointError, CheckpointStore, TrainingCheckpoint};
use dos_train::{Trainer, TrainerError};
use dos_zero::rank_range;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Everything that can abort a functional training run.
#[derive(Debug)]
#[non_exhaustive]
pub enum TrainError {
    /// Checkpoint persistence or restoration failed.
    Checkpoint(CheckpointError),
    /// The hybrid update pipeline rejected its inputs.
    Pipeline(PipelineError),
    /// A collective operation failed (ranks out of lockstep).
    Collective(CollectiveError),
    /// A rank thread panicked.
    RankPanicked,
    /// The metrics endpoint could not be started.
    Monitor(
        /// Description of the bind/serve failure.
        String,
    ),
    /// The run configuration is unusable (zero world or subgroup size).
    Invalid {
        /// Description of the invalid value.
        detail: String,
    },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
            TrainError::Pipeline(e) => write!(f, "pipeline failure: {e}"),
            TrainError::Collective(e) => write!(f, "collective failure: {e}"),
            TrainError::RankPanicked => write!(f, "a rank thread panicked"),
            TrainError::Monitor(detail) => write!(f, "metrics endpoint failure: {detail}"),
            TrainError::Invalid { detail } => write!(f, "invalid training config: {detail}"),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Checkpoint(e) => Some(e),
            TrainError::Pipeline(e) => Some(e),
            TrainError::Collective(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for TrainError {
    fn from(e: CheckpointError) -> Self {
        TrainError::Checkpoint(e)
    }
}

impl From<TrainerError> for TrainError {
    fn from(e: TrainerError) -> Self {
        match e {
            TrainerError::Pipeline(e) => TrainError::Pipeline(e),
            other => TrainError::Invalid { detail: other.to_string() },
        }
    }
}

impl From<CollectiveError> for TrainError {
    fn from(e: CollectiveError) -> Self {
        TrainError::Collective(e)
    }
}

/// What the coordinator does when a rank fails mid-run (link dead, peer
/// silent past its deadline, or its thread panicked).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankFailurePolicy {
    /// Abort the run, surfacing the typed [`TrainError::Collective`].
    Error,
    /// Elastic degradation: evict the dead rank, rebuild the communicator
    /// at the next step boundary from the latest crash-consistent
    /// checkpoint, and continue at the reduced world size.
    Elastic,
}

/// Which point-to-point substrate carries the collectives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportBackend {
    /// In-process channels between the rank threads (single process).
    InProc,
    /// Unix-domain sockets rendezvousing in this directory
    /// (`rank<r>.sock` files) — the same wire protocol real multi-process
    /// launches speak, driven here with one endpoint per rank thread.
    /// Unix only; selecting it elsewhere is a transport error at run
    /// start.
    Uds(std::path::PathBuf),
}

/// Configuration of a functional training run.
#[derive(Debug, Clone)]
pub struct FunctionalConfig {
    /// Model architecture (use small configurations; this is real math).
    pub model: GptConfig,
    /// Data-parallel world size (threads).
    pub world: usize,
    /// Micro-batch size per rank.
    pub micro_batch: usize,
    /// Optimizer rule.
    pub rule: UpdateRule,
    /// Learning rate.
    pub lr: f32,
    /// Subgroup size in parameters for the hybrid pipeline.
    pub subgroup_size: usize,
    /// Interleaving configuration (stride, static residents).
    pub pipeline: PipelineConfig,
    /// Wall-clock tuner tunables, used when `pipeline.stride` is
    /// [`StridePolicy::Adaptive`]: stride sweep gates plus the
    /// resident-sizing policy fed from the arena pool's high-water gauge.
    /// When `base_residents` is left at 0 it inherits
    /// `pipeline.static_residents`.
    pub tuner: WallClockTunerConfig,
    /// Seed for model init and data shuffling.
    pub seed: u64,
    /// Learning-rate schedule overriding the constant `lr` when set.
    pub lr_schedule: Option<LrSchedule>,
    /// Global gradient-norm clip applied after the all-reduce, when set.
    pub grad_clip: Option<f32>,
    /// Run forward/backward with activation checkpointing (recompute
    /// per-block activations during backward), as the paper's runs do.
    pub activation_checkpointing: bool,
    /// Initial dynamic loss scale (mixed-precision recipe); `None` disables
    /// loss scaling.
    pub loss_scale: Option<f32>,
    /// Checkpoint rank 0's model + optimizer shard into this retention
    /// directory (`ckpt-<iteration>.dos` files) every `checkpoint_every`
    /// iterations, written crash-consistently and asynchronously while
    /// training continues.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// How many checkpoints the retention directory keeps (oldest pruned).
    pub checkpoint_keep: usize,
    /// Checkpoint interval in iterations (ignored without a directory).
    pub checkpoint_every: usize,
    /// Resume training from this snapshot instead of a fresh init: the
    /// model takes the snapshot's device parameters, the optimizer its
    /// state, the data loader fast-forwards past the iterations already
    /// done, and new checkpoints continue its iteration numbering.
    /// Snapshots hold the *full* optimizer state (gathered across ranks at
    /// capture time), so any world size can resume from any snapshot —
    /// each rank re-shards the zero-padded full state.
    pub resume: Option<TrainingCheckpoint>,
    /// Point-to-point substrate for the collectives; see
    /// [`TransportBackend`].
    pub transport: TransportBackend,
    /// Per-collective deadline. `None` keeps the historical blocking mode
    /// (liveness via disconnect propagation); `Some` enables heartbeats,
    /// backoff retransmits, and timeout-vs-rank-failure attribution.
    pub collective_timeout: Option<Duration>,
    /// Wrap every rank's transport in seeded fault injection (chaos
    /// campaigns and the lossy-transport bitwise tests). `None` runs the
    /// transport clean.
    pub transport_faults: Option<TransportFaultPlan>,
    /// Rank-failure handling; see [`RankFailurePolicy`]. Elastic recovery
    /// strips permanent failures from the re-armed fault plan and emits
    /// `health:degraded` / `fault:collective:evict` tracer instants.
    pub on_rank_failure: RankFailurePolicy,
    /// Wall-clock tracer shared by every rank thread. Each rank records
    /// phase spans onto its own `rank{r}` track, and the hybrid pipeline
    /// records prefetch/update/flush spans onto the shared `cpu` and
    /// `device-worker` tracks. `None` disables tracing entirely (the
    /// update path is bitwise identical either way).
    pub tracer: Option<dos_telemetry::Tracer>,
    /// Serve live metrics from this address (e.g. `"127.0.0.1:0"`) for the
    /// duration of the run. Uses the configured tracer's registry, or
    /// attaches a flight-only tracer when none is set. `None` disables it.
    pub monitor_listen: Option<String>,
}

impl FunctionalConfig {
    /// A small default: tiny GPT, 2 ranks, Adam, stride-2 interleaving.
    pub fn small() -> FunctionalConfig {
        FunctionalConfig {
            model: GptConfig::tiny(),
            world: 2,
            micro_batch: 2,
            rule: UpdateRule::adam(),
            lr: 5e-3,
            subgroup_size: 4096,
            pipeline: PipelineConfig::default(),
            tuner: WallClockTunerConfig::default(),
            seed: 42,
            lr_schedule: None,
            grad_clip: None,
            activation_checkpointing: false,
            loss_scale: None,
            checkpoint_dir: None,
            checkpoint_keep: 3,
            checkpoint_every: 10,
            resume: None,
            transport: TransportBackend::InProc,
            collective_timeout: None,
            transport_faults: None,
            on_rank_failure: RankFailurePolicy::Error,
            tracer: None,
            monitor_listen: None,
        }
    }
}

/// Outcome of a functional run.
#[derive(Debug, Clone)]
pub struct FunctionalReport {
    /// Mean training loss per iteration (averaged across ranks).
    pub losses: Vec<f32>,
    /// Whether all ranks ended with bit-identical parameters.
    pub ranks_consistent: bool,
    /// Final parameters of rank 0 (FP16-rounded device copy).
    pub final_params: Vec<f32>,
    /// Update steps (on rank 0) that degraded to the CPU-only path because
    /// the device worker was lost. Nonzero only under fault injection or a
    /// genuine worker crash; the numerics are unaffected either way.
    pub degraded_steps: usize,
    /// The bound metrics-endpoint address, when `monitor_listen` was set
    /// (`"127.0.0.1:0"` resolves to the actual ephemeral port here).
    pub monitor_addr: Option<String>,
    /// How many times elastic recovery evicted a failed rank and restarted
    /// from a checkpoint. Zero on a healthy run. When nonzero, `losses`
    /// covers only the final (successful) segment.
    pub recoveries: usize,
    /// The world size the run finished at (smaller than the configured
    /// world after elastic degradation).
    pub final_world: usize,
}

/// Mean cross-entropy loss and perplexity of a model over an entire
/// dataset (single process, no gradients).
///
/// # Panics
///
/// Panics if `dataset` is empty.
pub fn evaluate(model: &mut Gpt, dataset: &TokenDataset) -> (f32, f32) {
    assert!(!dataset.is_empty(), "cannot evaluate on an empty dataset");
    let mut total = 0.0f64;
    for i in 0..dataset.len() {
        let (x, y) = dataset.sample(i);
        total += model.loss_only(x, y, 1, dataset.seq_len()) as f64;
    }
    let mean = (total / dataset.len() as f64) as f32;
    (mean, mean.exp())
}

/// Trains `iterations` steps of data-parallel, ZeRO-sharded, interleaved
/// hybrid training; returns per-iteration losses and a consistency check.
///
/// # Errors
///
/// Returns [`TrainError::Invalid`] when `cfg.world` or `cfg.subgroup_size`
/// is zero, and otherwise [`TrainError`] on checkpoint, pipeline, or
/// collective failures, when a resume snapshot does not fit the model, or
/// when a rank thread panics (the dataset cannot fill a micro-batch per
/// rank, for one).
pub fn train_functional(
    cfg: &FunctionalConfig,
    dataset: &TokenDataset,
    iterations: usize,
) -> Result<FunctionalReport, TrainError> {
    if cfg.world == 0 {
        return Err(TrainError::Invalid { detail: "world must be positive".into() });
    }
    // With a listen address, serve live metrics for the duration of the
    // run. A flight-only tracer (bounded ring, no unbounded store) is
    // attached when the caller did not configure one, so the pipeline's
    // counters and the arena gauges have a registry to land in.
    let mut owned;
    let cfg = match &cfg.monitor_listen {
        Some(_) => {
            owned = cfg.clone();
            if owned.tracer.is_none() {
                owned.tracer = Some(dos_telemetry::Tracer::flight_only(4096));
            }
            &owned
        }
        None => cfg,
    };
    let server = match (&cfg.monitor_listen, &cfg.tracer) {
        (Some(listen), Some(t)) => Some(
            dos_telemetry::MetricsServer::start(listen, t.metrics().clone(), None)
                .map_err(TrainError::Monitor)?,
        ),
        _ => None,
    };
    let monitor_addr = server.as_ref().map(|s| s.addr().to_string());

    // The coordinator: run a world of rank threads; under the elastic
    // policy, a rank failure evicts the dead rank and restarts the
    // survivors from the latest crash-consistent checkpoint at the reduced
    // world size (ISSUE: rebuild the communicator at a step boundary).
    let target = cfg.resume.as_ref().map_or(0, |c| c.iteration) + iterations;
    let mut world = cfg.world;
    let mut resume = cfg.resume.clone();
    let mut remaining = iterations;
    let mut plan = cfg.transport_faults.clone();
    let mut recoveries = 0usize;
    let (results, final_world) = loop {
        let comms = build_comms(cfg, world, plan.as_ref())?;
        // Identical init on every rank: one seeded build, padded to this
        // world and sized for the micro-batch here, then cloned for all but
        // the last rank, which takes it. Sized on the rank threads instead,
        // each call's long-lived buffers stayed behind in those threads'
        // allocator arenas (`train_dp2` peak RSS +40 %).
        let mut init = Gpt::new(cfg.model.clone(), &mut StdRng::seed_from_u64(cfg.seed));
        init.params_mut().pad_to_multiple(world);
        init.reserve(cfg.micro_batch, dataset.seq_len());
        // Each rank's optimizer shard is built here too, fresh or from the
        // snapshot restored into the shared initial model, for the same
        // reason.
        let restored = resume.as_ref().map(|ckpt| restore(ckpt, &mut init)).transpose()?;
        let states: Vec<_> =
            (0..world).map(|rank| shard_state(cfg, &init, restored.as_ref(), rank, world)).collect();
        let models = std::iter::repeat_n(init, comms.len());
        let run: Result<Vec<RankRun>, TrainError> =
            std::thread::scope(|scope| {
                let resume_at = resume.as_ref().map_or(0, |c| c.iteration);
                let handles: Vec<_> = comms
                    .into_iter()
                    .zip(models.zip(states))
                    .map(|(comm, (model, state))| {
                        scope.spawn(move || {
                            run_rank(cfg, dataset, model, state, remaining, comm, resume_at)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().map_err(|_| TrainError::RankPanicked).and_then(|r| r))
                    .collect()
            });
        match run {
            Ok(results) => break (results, world),
            Err(e) => {
                let evictable = matches!(
                    &e,
                    TrainError::RankPanicked
                        | TrainError::Collective(CollectiveError::RankFailed { .. })
                        | TrainError::Collective(CollectiveError::Timeout { .. })
                );
                if cfg.on_rank_failure != RankFailurePolicy::Elastic || world <= 1 || !evictable
                {
                    return Err(e);
                }
                world -= 1;
                recoveries += 1;
                // Survivors are re-armed without the permanent failures
                // that already fired (the evicted rank's disconnect must
                // not kill the new world's same-numbered rank).
                plan = plan.as_ref().map(TransportFaultPlan::without_permanent_failures);
                if let Some(t) = &cfg.tracer {
                    t.instant_at("faults", "fault:collective:evict", "fault", t.now());
                    t.instant_at("health", "health:degraded", "health", t.now());
                }
                // Rewind to the newest checkpoint that validates; with no
                // store (or none written yet), restart the attempt from
                // the run's original starting point.
                resume = cfg
                    .checkpoint_dir
                    .as_ref()
                    .and_then(|dir| CheckpointStore::open(dir, cfg.checkpoint_keep).ok())
                    .and_then(|store| store.latest_valid().ok())
                    .map(|(ckpt, _)| ckpt)
                    .or_else(|| cfg.resume.clone());
                remaining = target - resume.as_ref().map_or(0, |c| c.iteration);
            }
        }
    };

    let losses = results[0].0.clone();
    let final_params = results[0].1.clone();
    let degraded_steps = results[0].2;
    let ranks_consistent = results.iter().all(|(_, p, _)| *p == final_params);
    drop(server); // release the port before returning
    Ok(FunctionalReport {
        losses,
        ranks_consistent,
        final_params,
        degraded_steps,
        monitor_addr,
        recoveries,
        final_world,
    })
}

/// Builds the world's communicators per the configured transport options:
/// in-process channels or a UDS mesh, each rank's endpoint optionally
/// wrapped in seeded fault injection, in blocking or deadline mode.
fn build_comms(
    cfg: &FunctionalConfig,
    world: usize,
    plan: Option<&TransportFaultPlan>,
) -> Result<Vec<Communicator>, TrainError> {
    let ccfg = CollectiveConfig { timeout: cfg.collective_timeout, ..CollectiveConfig::default() };
    let endpoints: Vec<Box<dyn Transport>> = match &cfg.transport {
        TransportBackend::InProc => InProcTransport::world(world)
            .into_iter()
            .map(|t| Box::new(t) as Box<dyn Transport>)
            .collect(),
        TransportBackend::Uds(dir) => uds_world(world, dir)?,
    };
    Ok(endpoints
        .into_iter()
        .map(|t| {
            let t: Box<dyn Transport> = match plan {
                None => t,
                Some(plan) => {
                    let mut faulty = FaultyTransport::new(t, plan.clone());
                    if let Some(tracer) = &cfg.tracer {
                        faulty = faulty.with_tracer(Arc::new(tracer.clone()));
                    }
                    Box::new(faulty)
                }
            };
            Communicator::new(t, ccfg.clone())
        })
        .collect())
}

/// Rendezvouses a full UDS mesh under `dir`. The per-rank handshake dials
/// every lower rank while accepting from every higher one, so the
/// endpoints must connect concurrently — one rendezvous thread per rank;
/// building them sequentially would deadlock.
#[cfg(unix)]
fn uds_world(world: usize, dir: &std::path::Path) -> Result<Vec<Box<dyn Transport>>, TrainError> {
    const HANDSHAKE: Duration = Duration::from_secs(10);
    std::fs::create_dir_all(dir).map_err(|e| {
        TrainError::Collective(CollectiveError::Transport {
            op: "connect",
            detail: format!("create {}: {e}", dir.display()),
        })
    })?;
    let handles: Vec<_> = (0..world)
        .map(|rank| {
            let dir = dir.to_path_buf();
            std::thread::spawn(move || SocketTransport::connect_uds(rank, world, &dir, HANDSHAKE))
        })
        .collect();
    let mut endpoints: Vec<Box<dyn Transport>> = Vec::with_capacity(world);
    for h in handles {
        let t = h.join().map_err(|_| TrainError::RankPanicked)?.map_err(|e| {
            TrainError::Collective(CollectiveError::Transport {
                op: "connect",
                detail: e.to_string(),
            })
        })?;
        endpoints.push(Box::new(t));
    }
    Ok(endpoints)
}

#[cfg(not(unix))]
fn uds_world(_world: usize, dir: &std::path::Path) -> Result<Vec<Box<dyn Transport>>, TrainError> {
    Err(TrainError::Collective(CollectiveError::Transport {
        op: "connect",
        detail: format!("UDS transport ({}) requires unix", dir.display()),
    }))
}

/// The spans one iteration recorded (those starting at or after `mark`) —
/// what the rank's tuner observes. Under a `shared` run tracer, concurrent
/// ranks' spans in the same window are equally valid samples of the
/// contended machine, and the history stays the caller's; a tracer the rank
/// owns privately exists only to feed the tuner, so it is emptied rather
/// than left to grow (and be re-sorted) for the rest of the run.
fn iteration_events(tracer: &Tracer, mark: f64, shared: bool) -> Vec<TraceEvent> {
    let fresh = tracer.events().into_iter().filter(|ev| ev.start >= mark).collect();
    if !shared {
        tracer.clear();
    }
    fresh
}

/// One rank's run result: (per-iteration losses, final parameters,
/// degraded-step count).
type RankRun = (Vec<f32>, Vec<f32>, usize);

/// Restores `ckpt` into `model`; returns the full optimizer state to shard.
fn restore(ckpt: &TrainingCheckpoint, model: &mut Gpt) -> Result<MixedPrecisionState, TrainError> {
    let restored = ckpt.restore(model)?;
    if restored.len() != model.num_params() {
        return Err(CheckpointError::ShapeMismatch {
            expected: model.num_params(),
            got: restored.len(),
        }
        .into());
    }
    Ok(restored)
}

/// Rank `rank`'s ZeRO-style optimizer shard: the state of its range of the
/// flat parameter space, padded to a multiple of the world so that the
/// collectives run on the model's own buffers.
fn shard_state(
    cfg: &FunctionalConfig,
    model: &Gpt,
    restored: Option<&MixedPrecisionState>,
    rank: usize,
    world: usize,
) -> MixedPrecisionState {
    let shard = rank_range(model.num_params().next_multiple_of(world), rank, world);
    // This rank's shard of a full-space vector zero-padded the same way.
    let sharded = |v: &[f32]| shard.clone().map(|i| v.get(i).copied().unwrap_or(0.0)).collect();
    match restored {
        // Snapshots hold the full optimizer state, so any world size can
        // resume from this world's shard of it. The pad region's state is
        // exactly what a fresh run carries there (zero grads keep zero
        // m/v, so the pad never moves), making re-sharded resume
        // bitwise-correct.
        Some(full) => MixedPrecisionState::from_parts(
            sharded(full.params()),
            sharded(full.momentum()),
            sharded(full.variance()),
            full.rule(),
            full.lr(),
            full.step_count(),
        ),
        None => MixedPrecisionState::new(sharded(model.params().weights()), cfg.rule, cfg.lr),
    }
}

/// One rank's training loop, from its copy of the seeded initial model and
/// its optimizer shard, `resume_at` iterations into the run.
fn run_rank(
    cfg: &FunctionalConfig,
    dataset: &TokenDataset,
    mut model: Gpt,
    state: MixedPrecisionState,
    iterations: usize,
    comm: Communicator,
    resume_at: usize,
) -> Result<RankRun, TrainError> {
    let rank = comm.rank();
    let world = comm.world_size();
    if let Some(t) = &cfg.tracer {
        t.set_thread_track(&format!("rank{rank}"));
    }
    let mut loader = DataLoader::new(rank, world, cfg.micro_batch, cfg.seed ^ 0x5EED);
    // Fast-forward the data stream past the iterations already done, so a
    // resumed run sees the batches an uninterrupted one would.
    for _ in 0..resume_at {
        let _ = loader.next_batch(dataset);
    }
    let shard = rank_range(model.num_params().next_multiple_of(world), rank, world);
    // Adaptive stride: each rank runs a wall-clock tuner that re-solves
    // Equation 1 from the pipeline's own spans every iteration. Stride
    // changes never affect the numerics (§4.1), so ranks may retune
    // independently without breaking cross-rank consistency.
    let mut tuner = (cfg.pipeline.stride == StridePolicy::Adaptive).then(|| {
        let mut tcfg = cfg.tuner;
        if tcfg.base_residents == 0 {
            tcfg.base_residents = cfg.pipeline.static_residents;
        }
        WallClockTuner::new(tcfg, shard.len(), cfg.subgroup_size)
    });
    // The shared run tracer when one is configured; otherwise a private
    // per-rank one, and only when the tuner needs spans to read.
    let tracer = cfg.tracer.clone().or_else(|| tuner.as_ref().map(|_| Tracer::default()));
    // The one owner of this rank's update step: shard state, subgroups,
    // staging arena (its high-water gauge is the memory signal the
    // headroom policy observes) and pipeline configuration.
    let mut trainer = Trainer::new(state, cfg.subgroup_size, cfg.pipeline, tracer.clone())?;

    let store = match &cfg.checkpoint_dir {
        Some(dir) if rank == 0 => Some(CheckpointStore::open(dir, cfg.checkpoint_keep)?),
        _ => None,
    };
    let mut scaler = cfg.loss_scale.map(DynamicLossScaler::new);
    let mut checkpointer = AsyncCheckpointer::new();
    let mut degraded_steps = 0usize;
    let mut losses = Vec::with_capacity(iterations);
    // With a run tracer, the communicator's own byte counter is published
    // as it grows: into the registry as `collectives.bytes_sent|rank=N`,
    // and as the `work` of the communicate span the bytes were sent in.
    let bytes_counter = format!("collectives.bytes_sent|rank={rank}");
    let mut published = 0u64;
    let mut publish_sent = |span: Option<SpanGuard>| {
        if let Some(t) = &cfg.tracer {
            let delta = comm.bytes_sent() - published;
            published += delta;
            t.metrics().inc_counter(&bytes_counter, delta);
            if let Some(mut span) = span {
                span.set_work(delta as f64);
            }
        }
    };
    for rel_it in 0..iterations {
        let it = rel_it + resume_at;
        // Scheduled transport faults (disconnects, partition windows) key
        // off the training iteration.
        comm.set_epoch(it as u64);
        let batch = loader.next_batch(dataset);
        let fwd_span =
            cfg.tracer.as_ref().map(|t| t.span(&format!("fwd-bwd:it{it}"), "forward-backward"));
        let loss = model.loss_and_backward_with(
            &batch.inputs,
            &batch.targets,
            batch.batch,
            batch.seq_len,
            scaler.as_ref().map(DynamicLossScaler::scale),
            cfg.activation_checkpointing,
        );
        drop(fwd_span);

        // Average gradients across ranks; keep only this rank's shard
        // (ZeRO's reduce-scatter), in place in the model's gradients.
        let comm_span =
            cfg.tracer.as_ref().map(|t| t.span(&format!("grad-exchange:it{it}"), "communicate"));
        let (w, g) = model.params_mut().padded_mut();
        // Unscale (and overflow-check) before any reduction. Micro-batches
        // differ per rank, so one rank can overflow alone: the ranks agree
        // on the verdict, then back off and skip the step together (the
        // zeroed gradients keep the collectives below in lockstep).
        let mut skipped = false;
        if let Some(s) = scaler.as_mut() {
            let mut overflowed = [if s.unscale(g) { 0.0 } else { 1.0 }];
            comm.all_reduce_sum(&mut overflowed)?;
            skipped = overflowed[0] > 0.0;
            s.record(!skipped);
            if skipped {
                g.fill(0.0);
            }
        }
        let inv = 1.0 / world as f32;
        if let Some(max_norm) = cfg.grad_clip {
            // Global-norm clipping must see the *averaged full* gradient so
            // all ranks compute the same scale: all-reduce it instead (the
            // shard then needs no further reduction).
            comm.all_reduce_sum(g)?;
            for v in g.iter_mut() {
                *v *= inv;
            }
            clip_grad_norm(g, max_norm);
        } else {
            comm.reduce_scatter_sum_in_place(g, inv)?;
        }
        publish_sent(comm_span);
        if let Some(schedule) = cfg.lr_schedule {
            trainer.set_lr(schedule.lr_at(it as u64 + 1));
        }
        if let Some(tun) = &tuner {
            trainer.set_schedule(tun.stride_policy(), tun.static_residents());
        }

        // Interleaved hybrid update of this rank's shard (real threads,
        // Algorithm 1's structure). A skipped iteration leaves the
        // optimizer alone — a step on zeroed gradients would still decay
        // the weights and advance the step count — and republishes the
        // unchanged FP16 shard.
        let shard_fp16 = if skipped {
            trainer.state().downscale_range(0..trainer.state().len()).into()
        } else {
            let mark = tracer.as_ref().map_or(0.0, Tracer::now);
            let report = {
                let _sp =
                    tracer.as_ref().map(|t| t.span(&format!("hybrid-update:it{it}"), "update"));
                trainer.step(&g[shard.clone()])
            }?;
            if let (Some(tun), Some(tt)) = (&mut tuner, &tracer) {
                let before = tun.decisions().len();
                tun.observe(&iteration_events(tt, mark, cfg.tracer.is_some()));
                // The arena's per-iteration staging peak drives the
                // resident-sizing policy (a no-op under Fixed).
                tun.observe_arena(trainer.arena().take_high_water_bytes());
                if rank == 0 && cfg.tracer.is_some() {
                    for d in &tun.decisions()[before..] {
                        tt.control_decision(&d.detail, tt.now());
                    }
                }
            }
            if report.degraded.is_some() {
                degraded_steps += 1;
            }
            report.fp16_params
        };

        // All-gather the updated FP16 parameters (the device copies every
        // rank trains the next iteration with): halves on the wire, widened
        // on arrival straight into the model's weights.
        let gather_span =
            cfg.tracer.as_ref().map(|t| t.span(&format!("all-gather:it{it}"), "communicate"));
        comm.all_gather_f16_into(&shard_fp16, w)?;
        g.fill(0.0);
        publish_sent(gather_span);

        // Snapshot at update boundaries and write in the background (the
        // DataStates-style asynchronous flush the host-resident state
        // enables, §2). Checkpoints are world-size independent: every rank
        // contributes its optimizer shard to a full-state gather (elastic
        // recovery may reload at a smaller world), then rank 0 assembles
        // and persists. The capture is an owned copy, so training
        // continues immediately.
        if cfg.checkpoint_dir.is_some() && (it + 1).is_multiple_of(cfg.checkpoint_every.max(1)) {
            let state = trainer.state();
            let mut p = comm.all_gather_var(state.params())?;
            let mut m = comm.all_gather_var(state.momentum())?;
            let mut v = comm.all_gather_var(state.variance())?;
            if let Some(store) = &store {
                let n = model.num_params();
                p.truncate(n);
                m.truncate(n);
                v.truncate(n);
                let full = MixedPrecisionState::from_parts(
                    p,
                    m,
                    v,
                    state.rule(),
                    state.lr(),
                    state.step_count(),
                );
                let snapshot = TrainingCheckpoint {
                    params: model.gather_params(),
                    optimizer: full,
                    iteration: it + 1,
                };
                checkpointer.save_async_in(snapshot, store)?;
            }
        }

        // Average the loss across ranks for reporting.
        let mut l = [loss];
        comm.all_reduce_sum(&mut l)?;
        losses.push(l[0] * inv);
        publish_sent(None);
    }
    checkpointer.drain()?;
    let finals = model.gather_params();
    // In deadline mode a fast rank must linger to serve retransmissions of
    // its final contributions before its endpoint vanishes (no-op in
    // blocking mode).
    comm.shutdown(cfg.collective_timeout.unwrap_or(Duration::ZERO));
    Ok((losses, finals, degraded_steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dos_core::StridePolicy;
    use dos_tensor::F16;

    fn toy_dataset(seq: usize) -> TokenDataset {
        // A predictable cyclic token stream the tiny model can learn.
        let stream: Vec<usize> = (0..2000).map(|i| (i * 7 + 3) % 61).collect();
        TokenDataset::from_stream(&stream, seq)
    }

    #[test]
    fn loss_decreases_and_ranks_stay_consistent() {
        let cfg = FunctionalConfig::small();
        let ds = toy_dataset(8);
        let report = train_functional(&cfg, &ds, 12).unwrap();
        assert_eq!(report.losses.len(), 12);
        assert!(report.ranks_consistent, "ranks diverged");
        let first: f32 = report.losses[..3].iter().sum::<f32>() / 3.0;
        let last: f32 = report.losses[9..].iter().sum::<f32>() / 3.0;
        assert!(last < first * 0.9, "loss did not improve: {first} -> {last}");
    }

    #[test]
    fn zero_world_or_subgroup_size_is_a_typed_error() {
        let ds = toy_dataset(8);
        let zeroed: [fn(&mut FunctionalConfig); 2] = [|c| c.world = 0, |c| c.subgroup_size = 0];
        for zero in zeroed {
            let mut cfg = FunctionalConfig::small();
            zero(&mut cfg);
            let err = train_functional(&cfg, &ds, 1).unwrap_err();
            assert!(matches!(err, TrainError::Invalid { .. }), "{err:?}");
        }
    }

    #[test]
    fn monitor_listen_serves_without_perturbing_numerics() {
        let ds = toy_dataset(8);
        let plain = train_functional(&FunctionalConfig::small(), &ds, 4).unwrap();
        assert!(plain.monitor_addr.is_none());

        let mut cfg = FunctionalConfig::small();
        cfg.monitor_listen = Some("127.0.0.1:0".to_string());
        let monitored = train_functional(&cfg, &ds, 4).unwrap();
        let addr = monitored.monitor_addr.expect("endpoint was bound");
        assert!(addr.parse::<std::net::SocketAddr>().is_ok(), "bad addr {addr}");
        assert_eq!(plain.losses, monitored.losses, "monitoring must be observational");
        assert_eq!(plain.final_params, monitored.final_params);
        // The server shuts down with the run: the port no longer accepts.
        assert!(dos_telemetry::http_get(addr.as_str(), "/metrics").is_err());
    }

    #[test]
    fn interleaving_matches_cpu_only_training_exactly() {
        let ds = toy_dataset(8);
        let mut cpu_cfg = FunctionalConfig::small();
        cpu_cfg.pipeline.stride = StridePolicy::CpuOnly;
        let mut hybrid_cfg = FunctionalConfig::small();
        hybrid_cfg.pipeline.stride = StridePolicy::Fixed(2);
        let cpu = train_functional(&cpu_cfg, &ds, 6).unwrap();
        let hybrid = train_functional(&hybrid_cfg, &ds, 6).unwrap();
        // The paper's consistency claim end-to-end: interleaved offloading
        // does not change training at all.
        assert_eq!(cpu.losses, hybrid.losses);
        assert_eq!(cpu.final_params, hybrid.final_params);
    }

    #[test]
    fn world_sizes_agree_on_the_math() {
        // Different DP degrees shard differently but compute the same
        // global batch only when batch partitioning matches; here we just
        // check determinism per world size and consistency within it.
        let ds = toy_dataset(8);
        for world in [1, 3] {
            let mut cfg = FunctionalConfig::small();
            cfg.world = world;
            let a = train_functional(&cfg, &ds, 4).unwrap();
            let b = train_functional(&cfg, &ds, 4).unwrap();
            assert_eq!(a.losses, b.losses, "world {world} not deterministic");
            assert!(a.ranks_consistent);
        }
    }

    #[test]
    fn traced_training_is_observational_only() {
        let ds = toy_dataset(8);
        let plain = train_functional(&FunctionalConfig::small(), &ds, 4).unwrap();

        let tracer = dos_telemetry::Tracer::new();
        let mut cfg = FunctionalConfig::small();
        cfg.pipeline.stride = StridePolicy::Fixed(2);
        cfg.tracer = Some(tracer.clone());
        let mut plain_cfg = FunctionalConfig::small();
        plain_cfg.pipeline.stride = StridePolicy::Fixed(2);
        let reference = train_functional(&plain_cfg, &ds, 4).unwrap();
        let traced = train_functional(&cfg, &ds, 4).unwrap();

        // Tracing never perturbs the math (and interleaving matches plain
        // training, so the untraced default agrees too).
        assert_eq!(traced.losses, reference.losses);
        assert_eq!(traced.final_params, reference.final_params);
        assert_eq!(traced.losses, plain.losses);

        // Every rank thread has its own track, and the hybrid pipeline
        // recorded wall-clock prefetch/update/flush spans on the shared cpu
        // track and one fused update span per job on the device-worker's.
        let tracks = tracer.tracks();
        assert!(tracks.iter().any(|t| t == "rank0"), "{tracks:?}");
        assert!(tracks.iter().any(|t| t == "rank1"), "{tracks:?}");
        assert!(tracks.iter().any(|t| t == "cpu"), "{tracks:?}");
        assert!(tracks.iter().any(|t| t == "device-worker"), "{tracks:?}");
        let events = tracer.events();
        let count = |track: &str, prefix: &str| {
            events.iter().filter(|e| e.track == track && e.name.starts_with(prefix)).count()
        };
        // 2 ranks x 4 iterations of phase spans on the rank tracks.
        for rank in ["rank0", "rank1"] {
            assert_eq!(count(rank, "fwd-bwd:it"), 4);
            assert_eq!(count(rank, "grad-exchange:it"), 4);
            assert_eq!(count(rank, "hybrid-update:it"), 4);
            assert_eq!(count(rank, "all-gather:it"), 4);
        }
        assert!(count("cpu", "prefetch:sg") > 0);
        assert!(count("cpu", "flush:sg") > 0);
        assert!(count("device-worker", "update:sg") > 0);
        assert_eq!(count("device-worker", "flush:sg"), 0);
        assert!(events.iter().all(|e| !e.name.starts_with("downscale:sg")));
        // Wall-clock spans: durations are non-negative and the trace ends
        // after it starts.
        assert!(events.iter().all(|e| e.dur >= 0.0));
        let tl = tracer.to_timeline();
        assert!(tl.end_time() > 0.0);
    }

    #[test]
    fn adaptive_stride_trains_identically_to_fixed() {
        let ds = toy_dataset(8);
        let mut fixed_cfg = FunctionalConfig::small();
        fixed_cfg.pipeline.stride = StridePolicy::Fixed(2);
        let mut adaptive_cfg = FunctionalConfig::small();
        adaptive_cfg.pipeline.stride = StridePolicy::Adaptive;
        let fixed = train_functional(&fixed_cfg, &ds, 6).unwrap();
        let adaptive = train_functional(&adaptive_cfg, &ds, 6).unwrap();
        // The tuner may move the stride mid-run; §4.1 says the numerics
        // never notice, so adaptive training is bitwise identical to any
        // fixed stride (the tuner seeds at k = 2 and changes only the
        // schedule, never the math).
        assert_eq!(fixed.losses, adaptive.losses);
        assert_eq!(fixed.final_params, adaptive.final_params);
        assert!(adaptive.ranks_consistent);
    }

    #[test]
    fn an_in_place_step_reads_as_eq1s_zero_transfer_case() {
        // The device borrows its ranges instead of staging copies, so the
        // hand-off and the reclaim move no bytes: from one traced step the
        // wall estimator must read a `B` far above `U_c` (Eq. 1 with
        // B → ∞), not stall on a missing or copy-rate one.
        let n = 1 << 20;
        let sgs = dos_zero::partition_into_subgroups(n, n / 2);
        let mut state = MixedPrecisionState::new(vec![0.5; n], UpdateRule::adam(), 1e-3);
        let (tracer, pool) = (Tracer::new(), dos_core::ArenaPool::new());
        let cfg = PipelineConfig { stride: StridePolicy::Fixed(2), ..PipelineConfig::default() };
        let grads = vec![0.1; n];
        dos_core::hybrid_update_pooled(&mut state, &grads, &sgs, cfg, Some(&tracer), &pool)
            .unwrap();
        let mut est = dos_control::InputEstimators::wall(1.0);
        est.observe_wall_events(&tracer.events());
        let inputs = est.inputs().expect("every Eq. 1 input observed");
        assert!(inputs.b >= 100.0 * inputs.uc, "b {} vs uc {}", inputs.b, inputs.uc);
    }

    #[test]
    fn adaptive_stride_with_shared_tracer_records_pipeline_spans() {
        let ds = toy_dataset(8);
        let tracer = dos_telemetry::Tracer::new();
        let mut cfg = FunctionalConfig::small();
        cfg.world = 1;
        cfg.pipeline.stride = StridePolicy::Adaptive;
        cfg.tracer = Some(tracer.clone());
        let report = train_functional(&cfg, &ds, 4).unwrap();
        assert_eq!(report.losses.len(), 4);
        // The tuner reads the same spans any traced run records; they must
        // still be present (observation does not consume them).
        let events = tracer.events();
        assert!(events.iter().any(|e| e.name.starts_with("update:sg")));
        assert!(events.iter().any(|e| e.name.starts_with("hybrid-update:it")));
    }

    #[test]
    fn an_owned_tuner_tracer_is_emptied_every_iteration() {
        for shared in [false, true] {
            let tracer = Tracer::default();
            tracer.record_span("cpu", "cpu", "update:sg0", "update", 0.0, 1.0, 1.0);
            tracer.record_span("cpu", "cpu", "update:sg1", "update", 2.0, 3.0, 1.0);
            let fresh = iteration_events(&tracer, 2.0, shared);
            let names: Vec<&str> = fresh.iter().map(|ev| ev.name.as_str()).collect();
            assert_eq!(names, ["update:sg1"], "only this iteration's spans are observed");
            // A private tracer keeps nothing once observed; a caller's
            // shared one keeps its whole history.
            assert_eq!(tracer.len(), if shared { 2 } else { 0 });
        }
    }

    #[test]
    fn headroom_tuner_shrinks_residents_without_changing_numerics() {
        use dos_control::ResidentPolicy;
        let ds = toy_dataset(8);
        let mut base = FunctionalConfig::small();
        base.world = 1;
        base.subgroup_size = 512;
        base.pipeline.stride = StridePolicy::Fixed(2);
        base.pipeline.static_residents = 4;
        let reference = train_functional(&base, &ds, 5).unwrap();

        // Hopeless staging budget: every iteration's arena high-water
        // overshoots it, so the headroom policy must shrink the resident
        // tail — visibly, via control instants — while the training math
        // stays bitwise identical (§4.1: scheduling never moves numerics).
        let tracer = dos_telemetry::Tracer::new();
        let mut constrained = base.clone();
        constrained.pipeline.stride = StridePolicy::Adaptive;
        constrained.tuner = WallClockTunerConfig {
            residents: ResidentPolicy::Headroom { fraction: 1.0, cap: 0.5 },
            host_budget_bytes: 1,
            ..WallClockTunerConfig::default()
        };
        constrained.tracer = Some(tracer.clone());
        let run = train_functional(&constrained, &ds, 5).unwrap();
        assert_eq!(run.losses, reference.losses);
        assert_eq!(run.final_params, reference.final_params);
        let names: Vec<String> =
            tracer.control_instants().iter().map(|ev| ev.name.clone()).collect();
        assert!(
            names.iter().any(|n| n.contains("residents 4->")),
            "expected a resident-shrink decision, saw {names:?}"
        );
    }

    #[test]
    fn traced_training_exports_arena_gauges() {
        let ds = toy_dataset(8);
        let tracer = dos_telemetry::Tracer::new();
        let mut cfg = FunctionalConfig::small();
        cfg.tracer = Some(tracer.clone());
        train_functional(&cfg, &ds, 3).unwrap();
        let m = tracer.metrics();
        assert_eq!(m.gauge("arena.in_use_bytes"), Some(0.0), "all leases returned");
        assert!(m.gauge("arena.high_water_bytes").unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn final_params_are_fp16_representable() {
        let cfg = FunctionalConfig::small();
        let ds = toy_dataset(8);
        let report = train_functional(&cfg, &ds, 3).unwrap();
        for &p in report.final_params.iter().take(500) {
            assert_eq!(p, F16::from_f32(p).to_f32(), "param {p} not a device fp16 value");
        }
    }
}

#[cfg(test)]
mod schedule_tests {
    use super::*;
    use dos_optim::LrSchedule;

    fn toy_dataset(seq: usize) -> TokenDataset {
        let stream: Vec<usize> = (0..2000).map(|i| (i * 7 + 3) % 61).collect();
        TokenDataset::from_stream(&stream, seq)
    }

    #[test]
    fn warmup_schedule_trains() {
        let mut cfg = FunctionalConfig::small();
        cfg.lr_schedule = Some(LrSchedule::WarmupCosine {
            peak: 8e-3,
            warmup_steps: 3,
            total_steps: 12,
            min_factor: 0.1,
        });
        let ds = toy_dataset(8);
        let r = train_functional(&cfg, &ds, 12).unwrap();
        assert!(r.ranks_consistent);
        assert!(r.losses[11] < r.losses[0], "{:?}", r.losses);
    }

    #[test]
    fn clipping_changes_but_does_not_break_training() {
        let ds = toy_dataset(8);
        let mut clipped = FunctionalConfig::small();
        clipped.grad_clip = Some(0.5);
        let plain = train_functional(&FunctionalConfig::small(), &ds, 8).unwrap();
        let capped = train_functional(&clipped, &ds, 8).unwrap();
        assert!(capped.ranks_consistent);
        assert_ne!(plain.losses, capped.losses, "a 0.5 clip should bind early");
        assert!(capped.losses[7] < capped.losses[0]);
    }

    #[test]
    fn checkpointed_training_is_bitwise_identical() {
        let ds = toy_dataset(8);
        let mut ckpt = FunctionalConfig::small();
        ckpt.activation_checkpointing = true;
        let plain = train_functional(&FunctionalConfig::small(), &ds, 5).unwrap();
        let recomputed = train_functional(&ckpt, &ds, 5).unwrap();
        assert_eq!(plain.losses, recomputed.losses);
        assert_eq!(plain.final_params, recomputed.final_params);
    }
}

#[cfg(test)]
mod loss_scaling_tests {
    use super::*;

    fn toy_dataset(seq: usize) -> TokenDataset {
        let stream: Vec<usize> = (0..2000).map(|i| (i * 7 + 3) % 61).collect();
        TokenDataset::from_stream(&stream, seq)
    }

    #[test]
    fn loss_scaled_training_matches_unscaled() {
        // Power-of-two scales are exact in f32, so the trajectories agree
        // bitwise when nothing overflows.
        let ds = toy_dataset(8);
        let plain = train_functional(&FunctionalConfig::small(), &ds, 8).unwrap();
        let mut cfg = FunctionalConfig::small();
        cfg.loss_scale = Some(1024.0);
        let scaled = train_functional(&cfg, &ds, 8).unwrap();
        assert_eq!(plain.losses, scaled.losses);
        assert_eq!(plain.final_params, scaled.final_params);
        assert!(scaled.ranks_consistent);
        // Scale and recomputation are orthogonal: turning activation
        // checkpointing on as well changes nothing.
        cfg.activation_checkpointing = true;
        let both = train_functional(&cfg, &ds, 8).unwrap();
        assert_eq!(both.losses, scaled.losses);
        assert_eq!(both.final_params, scaled.final_params);
    }

    #[test]
    fn an_overflowed_step_is_skipped_by_every_rank() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // Wild initial weights under a 2^127 scale overflow every one of
        // the three iterations (the scale only backs off to 2^124). A
        // skipped step must leave the optimizer alone: AdamW stepping on
        // the zeroed gradients would still decay every weight.
        let ds = toy_dataset(8);
        let mut cfg = FunctionalConfig::small();
        cfg.model.init_std = 4.0;
        cfg.loss_scale = Some(2f32.powi(127));
        cfg.rule = UpdateRule::adamw(0.1);
        let run = train_functional(&cfg, &ds, 3).unwrap();
        assert!(run.ranks_consistent, "ranks must agree on every skip");

        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let init = Gpt::new(cfg.model.clone(), &mut rng).gather_params();
        let moved = init
            .iter()
            .zip(&run.final_params)
            .filter(|(&p, &q)| dos_tensor::F16::from_f32(p).to_f32() != q)
            .count();
        assert_eq!(moved, 0, "{moved} of {} parameters moved on skipped steps", init.len());
    }
}

#[cfg(test)]
mod checkpoint_in_training_tests {
    use super::*;

    fn toy_dataset(seq: usize) -> TokenDataset {
        let stream: Vec<usize> = (0..2000).map(|i| (i * 7 + 3) % 61).collect();
        TokenDataset::from_stream(&stream, seq)
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("dos-train-ckpt-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn training_writes_restorable_checkpoints() {
        let dir = tmp_dir("write");
        let ds = toy_dataset(8);
        let mut cfg = FunctionalConfig::small();
        cfg.world = 1; // rank 0 owns the full state, so the snapshot is total
        cfg.checkpoint_dir = Some(dir.clone());
        cfg.checkpoint_every = 4;
        let run = train_functional(&cfg, &ds, 8).unwrap();

        // The last snapshot (iteration 8) restores to the final state.
        let store = CheckpointStore::open(&dir, cfg.checkpoint_keep).unwrap();
        let (loaded, path) = store.latest_valid().unwrap();
        assert_eq!(loaded.iteration, 8);
        assert_eq!(path, store.path_for(8));
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut model = dos_nn::Gpt::new(cfg.model.clone(), &mut rng);
        let state = loaded.restore(&mut model).unwrap();
        // The restored optimizer master params, downscaled to the device
        // copy, match the run's final parameters.
        let device: Vec<f32> =
            state.downscale_range(0..state.len()).iter().map(|h| h.to_f32()).collect();
        assert_eq!(&device[..run.final_params.len()], &run.final_params[..]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The kill-and-resume invariant: interrupt training after a
    /// checkpoint, resume from the newest valid snapshot, and the final
    /// state is bitwise identical to the uninterrupted run's.
    #[test]
    fn resume_from_checkpoint_is_bitwise_identical() {
        let dir = tmp_dir("resume");
        let ds = toy_dataset(8);
        let mut cfg = FunctionalConfig::small();
        cfg.world = 1;
        cfg.checkpoint_dir = Some(dir.clone());
        cfg.checkpoint_every = 2;

        let uninterrupted = {
            let mut c = cfg.clone();
            c.checkpoint_dir = None;
            train_functional(&c, &ds, 8).unwrap()
        };

        // "Crash" after 5 iterations (latest checkpoint is at iteration 4).
        train_functional(&cfg, &ds, 5).unwrap();
        let store = CheckpointStore::open(&dir, cfg.checkpoint_keep).unwrap();
        let (ckpt, _) = store.latest_valid().unwrap();
        assert_eq!(ckpt.iteration, 4);

        // Resume and run the remaining 4 iterations (4 done + 4 = 8).
        let mut resumed_cfg = cfg.clone();
        resumed_cfg.resume = Some(ckpt);
        let resumed = train_functional(&resumed_cfg, &ds, 4).unwrap();

        assert_eq!(resumed.final_params, uninterrupted.final_params);
        assert_eq!(
            resumed.losses[..],
            uninterrupted.losses[4..],
            "resumed losses must continue the uninterrupted trajectory"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Checkpoints hold the full gathered optimizer state, so a multi-rank
    /// world resumes from a multi-rank run's snapshot bitwise-exactly.
    #[test]
    fn resume_with_multiple_ranks_matches_uninterrupted() {
        let dir = tmp_dir("multiworld-resume");
        let ds = toy_dataset(8);
        let mut cfg = FunctionalConfig::small();
        cfg.world = 2;
        cfg.checkpoint_dir = Some(dir.clone());
        cfg.checkpoint_every = 2;

        let uninterrupted = {
            let mut c = cfg.clone();
            c.checkpoint_dir = None;
            train_functional(&c, &ds, 8).unwrap()
        };

        // "Crash" after 5 iterations (latest checkpoint is at iteration 4).
        train_functional(&cfg, &ds, 5).unwrap();
        let store = CheckpointStore::open(&dir, cfg.checkpoint_keep).unwrap();
        let (ckpt, _) = store.latest_valid().unwrap();
        assert_eq!(ckpt.iteration, 4);

        let mut resumed_cfg = cfg.clone();
        resumed_cfg.resume = Some(ckpt);
        let resumed = train_functional(&resumed_cfg, &ds, 4).unwrap();

        assert!(resumed.ranks_consistent);
        assert_eq!(resumed.final_params, uninterrupted.final_params);
        assert_eq!(
            resumed.losses[..],
            uninterrupted.losses[4..],
            "resumed losses must continue the uninterrupted trajectory"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod degraded_training_tests {
    use super::*;
    use dos_core::DeviceFault;

    fn toy_dataset(seq: usize) -> TokenDataset {
        let stream: Vec<usize> = (0..2000).map(|i| (i * 7 + 3) % 61).collect();
        TokenDataset::from_stream(&stream, seq)
    }

    /// A device worker dying every single step still trains byte-for-byte
    /// like a healthy run — the end-to-end §4.1 claim under faults.
    #[test]
    fn worker_faults_do_not_change_training() {
        let ds = toy_dataset(8);
        let mut cfg = FunctionalConfig::small();
        cfg.world = 1;
        cfg.subgroup_size = 512; // enough subgroups for the device path
        let healthy = train_functional(&cfg, &ds, 5).unwrap();
        assert_eq!(healthy.degraded_steps, 0);

        for fault in [DeviceFault::PanicAfter(1), DeviceFault::DisconnectAfter(0)] {
            let mut faulty = cfg.clone();
            faulty.pipeline.fault_injection = Some(fault);
            let run = train_functional(&faulty, &ds, 5).unwrap();
            assert_eq!(run.losses, healthy.losses, "{fault:?} changed the losses");
            assert_eq!(run.final_params, healthy.final_params, "{fault:?} changed the params");
            assert_eq!(run.degraded_steps, 5, "{fault:?} should degrade every step");
        }
    }
}

#[cfg(test)]
mod elastic_tests {
    use super::*;
    use dos_collectives::{DisconnectPoint, DisconnectRule};
    use std::time::Instant;

    fn toy_dataset(seq: usize) -> TokenDataset {
        let stream: Vec<usize> = (0..2000).map(|i| (i * 7 + 3) % 61).collect();
        TokenDataset::from_stream(&stream, seq)
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("dos-train-elastic-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Satellite 3, detection half: a rank dies *inside* a collective at a
    /// seeded point; under the Error policy the survivors surface a typed
    /// failure within the deadline — they never hang.
    #[test]
    fn killing_a_rank_mid_collective_is_a_typed_error_within_the_deadline() {
        let ds = toy_dataset(8);
        let mut cfg = FunctionalConfig::small();
        cfg.world = 3;
        cfg.collective_timeout = Some(Duration::from_millis(500));
        cfg.transport_faults = Some(TransportFaultPlan {
            disconnects: vec![DisconnectRule { rank: 1, at: DisconnectPoint::Epoch(2) }],
            ..TransportFaultPlan::none(7)
        });
        let started = Instant::now();
        match train_functional(&cfg, &ds, 4) {
            Err(TrainError::Collective(
                CollectiveError::RankFailed { .. } | CollectiveError::Timeout { .. },
            )) => {}
            other => panic!("expected a rank-failure error, got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "failure detection must be deadline-bounded, took {:?}",
            started.elapsed()
        );
    }

    /// Satellite 3, recovery half: under the Elastic policy a permanent
    /// rank disconnect shrinks the world and training continues from the
    /// latest checkpoint — bitwise identical to a fresh start from that
    /// same checkpoint at the reduced world size.
    #[test]
    fn elastic_restart_is_bitwise_identical_to_fresh_start_from_checkpoint() {
        let ds = toy_dataset(8);
        let elastic_dir = tmp_dir("evict");
        let baseline_dir = tmp_dir("baseline");

        let tracer = dos_telemetry::Tracer::new();
        let mut cfg = FunctionalConfig::small();
        cfg.world = 2;
        cfg.checkpoint_dir = Some(elastic_dir.clone());
        cfg.checkpoint_every = 2;
        cfg.collective_timeout = Some(Duration::from_secs(2));
        cfg.on_rank_failure = RankFailurePolicy::Elastic;
        cfg.transport_faults = Some(TransportFaultPlan {
            disconnects: vec![DisconnectRule { rank: 1, at: DisconnectPoint::Epoch(3) }],
            ..TransportFaultPlan::none(11)
        });
        cfg.tracer = Some(tracer.clone());
        let elastic = train_functional(&cfg, &ds, 6).unwrap();
        assert_eq!(elastic.recoveries, 1, "exactly one eviction");
        assert_eq!(elastic.final_world, 1, "world shrank by the dead rank");
        let names: Vec<String> = tracer.events().into_iter().map(|e| e.name).collect();
        assert!(names.iter().any(|n| n == "fault:collective:evict"), "{names:?}");
        assert!(names.iter().any(|n| n == "health:degraded"), "{names:?}");

        // Baseline: the same trajectory up to the checkpoint the elastic
        // run rewound to (iteration 2, before the epoch-3 disconnect), then
        // a fresh resume at the reduced world with a clean transport.
        let mut pre = FunctionalConfig::small();
        pre.world = 2;
        pre.checkpoint_dir = Some(baseline_dir.clone());
        pre.checkpoint_every = 2;
        train_functional(&pre, &ds, 2).unwrap();
        let (ckpt, _) = CheckpointStore::open(&baseline_dir, pre.checkpoint_keep)
            .unwrap()
            .latest_valid()
            .unwrap();
        assert_eq!(ckpt.iteration, 2);
        let mut fresh = FunctionalConfig::small();
        fresh.world = 1;
        fresh.resume = Some(ckpt);
        let baseline = train_functional(&fresh, &ds, 4).unwrap();

        assert_eq!(
            elastic.final_params, baseline.final_params,
            "elastic continuation must match a fresh reduced-world resume bitwise"
        );
        assert_eq!(elastic.losses, baseline.losses);
        let _ = std::fs::remove_dir_all(&elastic_dir);
        let _ = std::fs::remove_dir_all(&baseline_dir);
    }

    /// The UDS backend speaks the real wire protocol (length-prefixed
    /// checksummed frames over sockets) yet must be numerically invisible:
    /// the same run over `inproc` and `uds` is bitwise identical.
    #[cfg(unix)]
    #[test]
    fn uds_transport_matches_inproc_bitwise() {
        let ds = toy_dataset(8);
        let mut cfg = FunctionalConfig::small();
        cfg.world = 2;
        let reference = train_functional(&cfg, &ds, 3).unwrap();

        let dir = tmp_dir("uds");
        let mut uds = cfg.clone();
        uds.transport = TransportBackend::Uds(dir.clone());
        uds.collective_timeout = Some(Duration::from_secs(10));
        let run = train_functional(&uds, &ds, 3).unwrap();
        assert!(run.ranks_consistent);
        assert_eq!(run.losses, reference.losses, "losses diverged over UDS");
        assert_eq!(run.final_params, reference.final_params, "params diverged over UDS");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Acceptance: DP=4 training under a pinned seeded plan of drops and
    /// delays is bitwise identical to the fault-free run — retransmission
    /// is sequence-numbered and idempotent all the way up the stack.
    #[test]
    fn dp4_training_under_lossy_transport_is_bitwise_identical() {
        let ds = toy_dataset(8);
        let mut clean = FunctionalConfig::small();
        clean.world = 4;
        let reference = train_functional(&clean, &ds, 4).unwrap();

        let tracer = dos_telemetry::Tracer::new();
        let mut lossy = clean.clone();
        lossy.collective_timeout = Some(Duration::from_secs(30));
        lossy.transport_faults = Some(TransportFaultPlan {
            drop_p: 0.05,
            delay_ticks: Some((1, 3)),
            ..TransportFaultPlan::none(7)
        });
        lossy.tracer = Some(tracer.clone());
        let run = train_functional(&lossy, &ds, 4).unwrap();
        assert_eq!(run.recoveries, 0);
        assert!(run.ranks_consistent);
        assert_eq!(run.losses, reference.losses, "losses diverged under loss");
        assert_eq!(run.final_params, reference.final_params, "params diverged under loss");
        // The plan actually fired: injected faults are visible as
        // fault:collective:* instants (flight-recorder bait).
        assert!(
            tracer.events().iter().any(|e| e.name.starts_with("fault:collective:")),
            "expected injected-fault instants in the trace"
        );
    }
}

#[cfg(test)]
mod evaluate_tests {
    use super::*;

    #[test]
    fn training_improves_heldout_perplexity() {
        let stream: Vec<usize> = (0..3000).map(|i| (i * 7 + 3) % 61).collect();
        let full = TokenDataset::from_stream(&stream, 8);
        let (train, valid) = full.split(0.2);
        let cfg = FunctionalConfig::small();
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut model = dos_nn::Gpt::new(cfg.model.clone(), &mut rng);
        let (_, ppl_before) = evaluate(&mut model, &valid);

        let report = train_functional(&cfg, &train, 15).unwrap();
        model.scatter_params(&report.final_params);
        let (loss_after, ppl_after) = evaluate(&mut model, &valid);
        assert!(
            ppl_after < ppl_before,
            "held-out perplexity should improve: {ppl_before} -> {ppl_after}"
        );
        assert!((loss_after.exp() - ppl_after).abs() < 1e-3);
    }
}

#[cfg(test)]
mod train_dp2_tests {
    use super::*;

    /// `train_dp2`'s model, the benchmark's full-stack workload
    /// (`benchmark/src/workloads.rs`): GPT dim 64, 2 layers, 4 heads, seq
    /// 32, vocab 512; world 2, micro-batch 4, stride 2.
    fn train_dp2_config(seed: u64) -> FunctionalConfig {
        let mut cfg = FunctionalConfig::small();
        cfg.model = GptConfig {
            vocab_size: 512,
            max_seq: 32,
            dim: 64,
            num_layers: 2,
            num_heads: 4,
            init_std: 0.08,
        };
        cfg.world = 2;
        cfg.micro_batch = 4;
        cfg.subgroup_size = 4096;
        cfg.pipeline.stride = StridePolicy::Fixed(2);
        cfg.seed = seed;
        cfg
    }

    /// FNV-1a over the bit patterns of `values`.
    fn bits_digest(values: &[f32]) -> u64 {
        values.iter().flat_map(|v| v.to_bits().to_le_bytes()).fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Runs the workload's 25 iterations on its own data path (a
    /// 400-record synthetic corpus, a BPE tokenizer trained on it) and
    /// compares every loss bit and every parameter bit with the values
    /// recorded at the commit *before* the collectives moved to the
    /// personalised exchange and the FP16 all-gather.
    fn assert_pinned(seed: u64, final_loss: f32, losses: u64, params: u64) {
        let cfg = train_dp2_config(seed);
        let corpus = dos_data::Corpus::synthetic(seed, 400);
        let tokenizer = dos_data::BpeTokenizer::train(&corpus.joined_text(), 512);
        let ds = TokenDataset::pack(&corpus, &tokenizer, 32);
        let report = train_functional(&cfg, &ds, 25).unwrap();
        assert!(report.ranks_consistent);
        assert_eq!(report.losses.len(), 25);
        assert_eq!(report.losses[24], final_loss);
        assert_eq!(bits_digest(&report.losses), losses, "a loss bit moved");
        assert_eq!(bits_digest(&report.final_params), params, "a parameter bit moved");
    }

    #[test]
    fn seed_7_losses_and_final_parameters_are_pinned() {
        assert_pinned(7, 5.465_099_3, 0x8028_f4ec_39fb_6a69, 0x2be5_1912_14bb_1246);
    }

    #[test]
    fn seed_11_losses_and_final_parameters_are_pinned() {
        assert_pinned(11, 5.493_953_7, 0x2cb2_0937_b20f_d288, 0xca72_86fa_03f9_134a);
    }

    /// Captured at the commit before the iteration ran its collectives in
    /// place on the model's flat buffers.
    #[test]
    fn seed_23_losses_and_final_parameters_are_pinned() {
        assert_pinned(23, 5.478_227_6, 0x12e7_a683_ab1f_9cd1, 0x82b5_f767_a18a_dec8);
    }

    #[test]
    fn the_registry_carries_the_exact_bytes_each_rank_sent() {
        let stream: Vec<usize> = (0..4000).map(|i| (i * 7 + 3) % 61).collect();
        let ds = TokenDataset::from_stream(&stream, 32);
        let iterations = 2;
        for world in [2usize, 4] {
            let mut cfg = train_dp2_config(7);
            cfg.world = world;
            let tracer = Tracer::new();
            cfg.tracer = Some(tracer.clone());
            let params = train_functional(&cfg, &ds, iterations).unwrap().final_params.len();

            // Per iteration a rank sends each of its `world - 1` peers one
            // gradient chunk (4 B/param), its FP16 shard (2 B/param) and the
            // loss (4 B), each in a frame of 33 framing bytes.
            let chunk = params.div_ceil(world);
            let per_iter = (world - 1) * (4 * chunk + 2 * chunk + 4 + 3 * 33);
            if world == 2 {
                // Half of what the broadcast exchange sent (1,009,255 B).
                assert_eq!(per_iter, 504_679);
            }
            for rank in 0..world {
                assert_eq!(
                    tracer.metrics().counter(&format!("collectives.bytes_sent|rank={rank}")),
                    (per_iter * iterations) as u64,
                    "world {world}, rank {rank}"
                );
            }
            // The same bytes ride on the communicate spans they were sent in.
            let on_spans: f64 = tracer
                .events()
                .iter()
                .filter(|e| e.phase == "communicate" && e.track == "rank0")
                .map(|e| e.work)
                .sum();
            assert_eq!(on_spans as usize, (per_iter - (world - 1) * 37) * iterations);
        }
    }
}
