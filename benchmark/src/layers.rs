//! The traced pass: one operation's layer calls replayed one after another
//! on the caller thread, over the workload's own shapes, each inside a span
//! of the benchmark's recorder.
//!
//! Everything here calls public functions of the `dos` facade; no span is
//! recorded inside the program. A layer the workload never enters is left
//! out and printed as 0. Accounting closure is checked here and fails the
//! run when missed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dos::collectives::{CollectiveConfig, Communicator, Frame, SocketTransport};
use dos::core::{
    calibrate, hybrid_update_pooled, ArenaPool, DeepOptimizerStates, PipelineConfig, StridePolicy,
    ZenFlowConfig, ZenFlowPipeline,
};
use dos::data::DataLoader;
use dos::hal::HardwareProfile;
use dos::nn::{Gpt, ModelSpec, VisitParams};
use dos::optim::{MixedPrecisionState, UpdateRule};
use dos::runtime::{train_functional, CheckpointStore, TrainingCheckpoint};
use dos::sim::{simulate_iteration, TrainConfig};
use dos::telemetry::{analyze_tracer, Tracer};
use dos::tensor::{kernels, F16};
use dos::train::Trainer;
use dos::zero::{partition_into_subgroups, SubgroupSpec};
use rand::{rngs::StdRng, SeedableRng};

use crate::alloc;
use crate::check::{check_train_report, DEFAULT_LR};
use crate::inputs::{grad_stream, init_stream};
use crate::schema::PER_LAYER;
use crate::spans::Recorder;
use crate::stats::median;
use crate::sys;
use crate::trial::{Prepared, TrialArgs, TrialResult};
use crate::window::least_disturbed;
use crate::workloads::{
    train_config, train_dataset, train_model, StepShape, Workload, TRAIN_ITERS,
};

/// Scratch directory of the benchmark, relative to the checkout's root.
pub const OUT_DIR: &str = "benchmark/out";

/// Largest gap between the replayed layer self-times and the measured step
/// on `step_cpu_only`, where nothing overlaps.
pub const MAX_CLOSURE_GAP: f64 = 0.15;

/// Largest share of `train_dp2`'s iteration loop outside the three phases.
pub const MAX_UNATTRIBUTED: f64 = 0.10;

const MIB: f64 = 1024.0 * 1024.0;

/// Per-layer values by name; a name outside the contract is a bug.
#[derive(Debug, Default)]
struct Out(BTreeMap<&'static str, f64>);

impl Out {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every per-layer metric in contract order, 0 for a layer not entered.
    fn finish(self) -> Vec<(String, f64)> {
        PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), self.get(m.name)))
            .collect()
    }
}

/// How many repetitions of something that takes `unit_secs` fit in
/// `budget_secs`, within `[lo, hi]`.
fn reps(budget_secs: f64, unit_secs: f64, lo: usize, hi: usize) -> usize {
    ((budget_secs / unit_secs.max(1e-9)) as usize).clamp(lo, hi)
}

fn secs_left(end: Instant) -> f64 {
    end.saturating_duration_since(Instant::now()).as_secs_f64()
}

/// Fails once the trial's deadline has passed. Called before every layer, so
/// a pass that has fallen behind on a contended host stops with a reason
/// instead of overrunning the invocation's budget.
fn in_time(end: Instant, next: &str) -> Result<(), String> {
    if Instant::now() < end {
        Ok(())
    } else {
        Err(format!("the traced pass ran out of time before {next}"))
    }
}

/// Runs `f` up to `max` times and returns how many ran. After `min` runs it
/// stops as soon as `cap_secs` have passed or the trial's deadline has: the
/// counts that are generous on a quiet host shrink on a contended one.
fn repeat_until(
    end: Instant,
    cap_secs: f64,
    min: usize,
    max: usize,
    mut f: impl FnMut() -> Result<(), String>,
) -> Result<usize, String> {
    let started = Instant::now();
    let mut n = 0;
    while n < max
        && (n < min || (started.elapsed().as_secs_f64() < cap_secs && Instant::now() < end))
    {
        f()?;
        n += 1;
    }
    Ok(n)
}

/// Median wall seconds of `n` runs of `f`.
fn median_secs(n: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..n.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// An optimizer shard of the workload's shape, driven directly.
struct Shard<'a> {
    n: usize,
    subgroup: usize,
    interleaved: bool,
    state: MixedPrecisionState,
    grads: &'a [f32],
    subgroups: Vec<SubgroupSpec>,
    pool: ArenaPool,
}

impl Shard<'_> {
    fn cfg(&self, interleaved: bool) -> PipelineConfig {
        PipelineConfig {
            stride: if interleaved {
                StridePolicy::Fixed(2)
            } else {
                StridePolicy::CpuOnly
            },
            static_residents: 0,
            fault_injection: None,
        }
    }

    /// One direct pipeline step; returns the number of device subgroups.
    fn direct_step(&mut self, interleaved: bool, tracer: Option<&Tracer>) -> Result<usize, String> {
        let cfg = self.cfg(interleaved);
        let report = hybrid_update_pooled(
            &mut self.state,
            self.grads,
            &self.subgroups,
            cfg,
            tracer,
            &self.pool,
        )
        .map_err(|e| format!("direct pipeline step failed: {e}"))?;
        if report.degraded.is_some() || report.fp16_params.len() != self.n {
            return Err("direct pipeline step degraded or short".into());
        }
        Ok(report.device_subgroups)
    }

    fn on_device(&self, interleaved: bool, index: usize) -> bool {
        interleaved && (index + 1).is_multiple_of(2)
    }
}

/// Per-operation sums of one replayed step, seconds.
#[derive(Debug, Default, Clone, Copy)]
struct ReplaySums {
    /// Everything the calling thread does in the real step.
    caller: f64,
    /// Everything the device worker does in the real step.
    worker: f64,
    update: f64,
    update_params: usize,
    downscale: f64,
    downscale_params: usize,
    stage: f64,
    stage_params: usize,
    device_update: f64,
    f16_lease: f64,
    write_back: f64,
    /// The whole replayed step: its root span, and the CPU-seconds the
    /// calling thread spent in it.
    root: f64,
    cpu: f64,
}

/// Replays one step's layer calls sequentially, in the order the pipeline
/// makes them: the caller walks the subgroups, staging every second one and
/// updating the rest; the worker's update and FP16 lease follow each staging
/// directly; write-back and the FP16 copy happen at the end, as the real
/// drain does, so as many leases are outstanding as in the real step.
fn replay_step(rec: &mut Recorder, shard: &mut Shard<'_>, interleaved: bool) -> ReplaySums {
    let mut sums = ReplaySums::default();
    rec.next_op();
    let cpu0 = sys::thread_cpu_secs();
    let root = rec.enter("replay.step");
    let n = shard.n;
    let (mut fp16, t) = rec.leaf("replay.alloc_fp16", || vec![F16::ZERO; n]);
    sums.caller += t;
    // Every step spawns its device worker and joins it, shipped work or not.
    let ((), t) = rec.leaf("sync.spawn_join", || {
        dos::core::sync::scope(|s| {
            let _ = s.spawn(|| {}).join();
        })
    });
    sums.caller += t;
    shard.state.begin_step();
    let (step, lr, rule) = (
        shard.state.step_count(),
        shard.state.lr(),
        shard.state.rule(),
    );
    let mut returned = Vec::new();
    for i in 0..shard.subgroups.len() {
        let sg = shard.subgroups[i];
        let range = sg.range();
        if shard.on_device(interleaved, i) {
            let (state, pool, grads) = (&shard.state, &shard.pool, shard.grads);
            let ((mut p, mut m, mut v, g), t) = rec.leaf("core.arena.stage", || {
                let (p, m, v) = state.snapshot_range(range.clone());
                (
                    pool.lease_f32_copy(p),
                    pool.lease_f32_copy(m),
                    pool.lease_f32_copy(v),
                    pool.lease_f32_copy(&grads[range.clone()]),
                )
            });
            sums.stage += t;
            sums.stage_params += sg.len();
            sums.caller += t;
            let ((), t) = rec.leaf("optim.device_update", || {
                rule.apply(step, lr, &mut p, &g, &mut m, &mut v)
            });
            sums.device_update += t;
            sums.worker += t;
            drop(g);
            let (p16, t) = rec.leaf("core.arena.f16_lease", || pool.lease_f16_downscaled(&p));
            sums.f16_lease += t;
            sums.worker += t;
            returned.push((sg, p, m, v, p16));
        } else {
            let (state, grads) = (&mut shard.state, shard.grads);
            let ((), t) = rec.leaf("optim.update_range", || {
                state.update_range(range.clone(), &grads[range.clone()])
            });
            sums.update += t;
            sums.update_params += sg.len();
            sums.caller += t;
            let ((), t) = rec.leaf("tensor.downscale", || {
                kernels::downscale(&state.params()[range.clone()], &mut fp16[range.clone()])
            });
            sums.downscale += t;
            sums.downscale_params += sg.len();
            sums.caller += t;
        }
    }
    for (sg, p, m, v, p16) in returned {
        let state = &mut shard.state;
        let ((), t) = rec.leaf("optim.write_back", || {
            state.write_back_range(sg.range(), &p, &m, &v)
        });
        sums.write_back += t;
        sums.caller += t;
        let ((), t) = rec.leaf("replay.fp16_copy", || {
            fp16[sg.range()].copy_from_slice(&p16)
        });
        sums.caller += t;
        let ((), t) = rec.leaf("core.arena.return", || drop((p, m, v, p16)));
        sums.caller += t;
    }
    let ((), t) = rec.leaf("replay.free_fp16", || drop(fp16));
    sums.caller += t;
    sums.root = rec.exit(root);
    sums.cpu = sys::thread_cpu_secs() - cpu0;
    sums
}

fn median_of(sums: &[ReplaySums], f: impl Fn(&ReplaySums) -> f64) -> f64 {
    median(&sums.iter().map(f).collect::<Vec<_>>())
}

fn rate(work: usize, secs: f64) -> f64 {
    if secs > 0.0 {
        work as f64 / secs
    } else {
        0.0
    }
}

/// `optim`, `tensor`, `core.arena`, `sync`, `core.pipeline`: direct steps and
/// replayed steps over `shard`. Returns the measured direct step, seconds.
fn pipeline_layers(
    rec: &mut Recorder,
    shard: &mut Shard<'_>,
    end: Instant,
    budget_secs: f64,
    op_secs: f64,
    out: &mut Out,
) -> Result<f64, String> {
    let interleaved = shard.interleaved;
    let n = shard.n;
    // A direct step and a replayed step cost about one operation each; the
    // interleaved workloads also need both again without interleaving.
    let variants = if interleaved { 4.0 } else { 2.0 };
    let r = reps(budget_secs / variants, op_secs, 3, 25);

    // Wall seconds and process CPU-seconds (all threads) of `r` direct steps.
    let mut direct_steps = |shard: &mut Shard<'_>, name, interleaved| {
        let (mut walls, mut cpus) = (Vec::new(), Vec::new());
        for _ in 0..r {
            let cpu0 = sys::process_cpu_secs();
            let id = rec.enter(name);
            shard.direct_step(interleaved, None)?;
            walls.push(rec.exit(id));
            cpus.push(sys::process_cpu_secs() - cpu0);
        }
        Ok::<_, String>((median(&walls), median(&cpus)))
    };
    let device_subgroups = shard.direct_step(interleaved, None)?; // fills the arena
    let (step, step_cpu) = direct_steps(shard, "core.pipeline.step", interleaved)?;
    let (hits, misses) = (shard.pool.reuse_hits(), shard.pool.allocation_misses());
    let high_water = shard.pool.high_water_bytes();

    let step_serial_cpu = if interleaved {
        in_time(end, "the CpuOnly direct steps")?;
        shard.direct_step(false, None)?;
        direct_steps(shard, "core.pipeline.step_cpu_only", false)?.1
    } else {
        step_cpu
    };

    in_time(end, "the replayed steps")?;
    replay_step(rec, shard, interleaved); // warm-up
    let sums: Vec<ReplaySums> = (0..r)
        .map(|_| replay_step(rec, shard, interleaved))
        .collect();
    let serial_sums: Vec<ReplaySums> = if interleaved {
        in_time(end, "the CpuOnly replayed steps")?;
        replay_step(rec, shard, false);
        (0..r).map(|_| replay_step(rec, shard, false)).collect()
    } else {
        sums.clone()
    };

    let serial_sum = median_of(&sums, |s| s.caller + s.worker);
    let caller = median_of(&sums, |s| s.caller);
    let worker = median_of(&sums, |s| s.worker);
    let floor = caller.max(worker);
    out.set("core.pipeline.step_ms", step * 1e3);
    out.set("core.pipeline.serial_sum_ms", serial_sum * 1e3);
    out.set("core.pipeline.critical_floor_ms", floor * 1e3);
    out.set(
        "core.pipeline.overlap_frac",
        if worker > 0.0 {
            ((serial_sum - step) / worker).clamp(0.0, 1.0)
        } else {
            0.0
        },
    );
    out.set("core.pipeline.sched_overhead_ms", (step - floor) * 1e3);
    out.set(
        "core.pipeline.device_share",
        device_subgroups as f64 / shard.subgroups.len() as f64,
    );
    // Closure is taken in CPU-seconds: the replayed step's, for the share of
    // it that its layer spans cover, against the direct step's. On the wall
    // clock a neighbour that had the core during one loop and not the other
    // read as unaccounted work (50 % among two busy loops, 2-5 % quiet).
    let serial_replayed = median_of(&serial_sums, |s| s.cpu * (s.caller + s.worker) / s.root);
    out.set(
        "core.pipeline.closure_gap_frac",
        (1.0 - serial_replayed / step_serial_cpu).abs(),
    );

    let total = |f: fn(&ReplaySums) -> f64| sums.iter().map(f).sum::<f64>();
    let count = |f: fn(&ReplaySums) -> usize| sums.iter().map(f).sum::<usize>();
    out.set(
        "optim.uc_params_per_s",
        rate(count(|s| s.update_params), total(|s| s.update)),
    );
    out.set(
        "tensor.downscale_params_per_s",
        rate(count(|s| s.downscale_params), total(|s| s.downscale)),
    );
    let device_rate = rate(count(|s| s.stage_params), total(|s| s.device_update));
    if interleaved {
        let staged = count(|s| s.stage_params);
        out.set(
            "optim.writeback_gb_per_s",
            rate(staged * 12, total(|s| s.write_back)) / 1e9,
        );
        out.set(
            "core.arena.stage_gb_per_s",
            rate(staged * 16, total(|s| s.stage)) / 1e9,
        );
        out.set(
            "core.arena.f16_lease_params_per_s",
            rate(staged, total(|s| s.f16_lease)),
        );
        out.set(
            "core.arena.reuse_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        out.set("core.arena.high_water_mb", high_water as f64 / MIB);
        let small = [0.0f32; 16];
        let t = Instant::now();
        let batches = repeat_until(end, 0.2, 1, 100, || {
            for _ in 0..1_000 {
                std::hint::black_box(shard.pool.lease_f32_copy(std::hint::black_box(&small)));
            }
            Ok(())
        })?;
        out.set(
            "core.arena.lease_ns",
            t.elapsed().as_secs_f64() * 1e9 / (batches * 1_000) as f64,
        );
    }

    // tensor.upscale: what a consumer of the FP16 vector does with it.
    let mut half = vec![F16::ZERO; n];
    kernels::downscale(shard.state.params(), &mut half);
    let mut wide = vec![0.0f32; n];
    let up = median_secs(reps(budget_secs / 20.0, op_secs / 8.0, 3, 50), || {
        let id = rec.enter("tensor.upscale");
        kernels::upscale(std::hint::black_box(&half), &mut wide);
        rec.exit(id);
    });
    out.set("tensor.upscale_params_per_s", rate(n, up));
    drop((half, wide));

    in_time(end, "sync")?;
    sync_layer(rec, end, interleaved, out)?;

    // Eq. 1 from this host's calibration against the measured step. The
    // "device" here is a second CPU thread, so U_g is the replayed
    // device-side update rate.
    let cal = calibrate(1 << 20);
    let ug = if device_rate > 0.0 {
        device_rate
    } else {
        cal.cpu_update_pps
    };
    let model = cal.perf_model(ug);
    out.set(
        "core.pipeline.eq1_k_star",
        model.raw_stride().unwrap_or(0.0),
    );
    let stride = interleaved.then_some(2);
    let predicted = model.predicted_update_secs(n as f64, shard.subgroup as f64, stride);
    out.set(
        "core.pipeline.eq1_pred_err_frac",
        (predicted - step).abs() / step,
    );
    Ok(step)
}

/// `sync`: the scoped spawn + join every step pays, and one hand-off through
/// a pair of the facade's channels (only steps that ship subgroups pay it).
fn sync_layer(
    rec: &mut Recorder,
    end: Instant,
    interleaved: bool,
    out: &mut Out,
) -> Result<(), String> {
    use dos::core::sync;
    let id = rec.enter("sync.spawn_join");
    let batches = repeat_until(end, 0.3, 1, 20, || {
        for _ in 0..100 {
            sync::scope(|s| {
                let _ = s.spawn(|| {}).join();
            });
        }
        Ok(())
    })?;
    out.set(
        "sync.spawn_join_us",
        rec.exit(id) * 1e6 / (batches * 100) as f64,
    );
    if !interleaved {
        return Ok(());
    }
    // With neighbours on the host a hand-off can wait for a scheduler tick,
    // so the trips are counted in small batches against the clock.
    let (to_tx, to_rx) = sync::unbounded::<u64>();
    let (back_tx, back_rx) = sync::unbounded::<u64>();
    let (secs, batches) = sync::scope(|s| {
        let echo = s.spawn(move || {
            while let Ok(x) = to_rx.recv() {
                if back_tx.send(x).is_err() {
                    break;
                }
            }
        });
        let id = rec.enter("sync.channel_roundtrip");
        let batches = repeat_until(end, 0.3, 1, 100, || {
            for i in 0..200 {
                let _ = to_tx.send(i);
                let _ = back_rx.recv();
            }
            Ok(())
        });
        let secs = rec.exit(id);
        drop(to_tx);
        let _ = echo.join();
        (secs, batches)
    });
    out.set(
        "sync.channel_roundtrip_ns",
        secs * 1e9 / (batches? * 200) as f64,
    );
    Ok(())
}

/// `telemetry`: what a span costs, how many a step records, and what that
/// adds up to, estimated and measured.
fn telemetry_layer(
    rec: &mut Recorder,
    shard: &mut Shard<'_>,
    end: Instant,
    budget_secs: f64,
    step_secs: f64,
    out: &mut Out,
) -> Result<(), String> {
    in_time(end, "telemetry")?;
    for (name, tracer) in [
        ("telemetry.span_ns", Tracer::new()),
        ("telemetry.flight_span_ns", Tracer::flight_only(4096)),
    ] {
        let id = rec.enter("telemetry.span");
        let batches = repeat_until(end, 0.1, 1, 50, || {
            for _ in 0..1_000 {
                let _guard = tracer.span_on("bench", "cpu", "update:sg0", "update");
            }
            Ok(())
        })?;
        out.set(name, rec.exit(id) * 1e9 / (batches * 1_000) as f64);
    }

    let interleaved = shard.interleaved;
    let tracer = Tracer::new();
    shard.direct_step(interleaved, Some(&tracer))?;
    out.set("telemetry.spans_per_step", tracer.len() as f64);
    let id = rec.enter("telemetry.analyze");
    std::hint::black_box(analyze_tracer(&tracer));
    out.set("telemetry.analyze_ms", rec.exit(id) * 1e3);
    out.set(
        "telemetry.est_overhead_frac",
        tracer.len() as f64 * out.get("telemetry.span_ns") * 1e-9 / step_secs,
    );

    // Traced against untraced direct steps, alternating so drift hits both.
    let pairs = reps(budget_secs / 2.0, step_secs, 3, 200);
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        tracer.clear();
        let id = rec.enter("telemetry.traced_step");
        shard.direct_step(interleaved, Some(&tracer))?;
        traced.push(rec.exit(id));
        let id = rec.enter("telemetry.untraced_step");
        shard.direct_step(interleaved, None)?;
        plain.push(rec.exit(id));
    }
    out.set(
        "telemetry.trace_overhead_frac",
        median(&traced) / median(&plain) - 1.0,
    );
    Ok(())
}

/// `core.zenflow`: the same shard through the asynchronous scheduler.
fn zenflow_layer(rec: &mut Recorder, shard: &mut Shard<'_>, out: &mut Out) {
    let cfg = ZenFlowConfig {
        importance_ratio: 0.25,
        staleness_bound: 2,
    };
    let mut zf = ZenFlowPipeline::new(shard.subgroups.clone(), cfg);
    let mut steps = Vec::new();
    let mut hot = 0usize;
    for _ in 0..4 {
        let id = rec.enter("core.zenflow.step");
        let report = zf.step(&mut shard.state, shard.grads);
        zf.poll_pending(&mut shard.state);
        steps.push(rec.exit(id));
        hot = report.hot.len();
    }
    let id = rec.enter("core.zenflow.drain");
    zf.drain(&mut shard.state);
    out.set("core.zenflow.drain_ms", rec.exit(id) * 1e3);
    out.set("core.zenflow.step_ms", median(&steps) * 1e3);
    out.set(
        "core.zenflow.hot_share",
        hot as f64 / shard.subgroups.len() as f64,
    );
    out.set("core.zenflow.max_age", zf.max_age_seen() as f64);
}

/// A `ModelSpec` whose single-rank shard is exactly `step_dram`'s
/// 16,777,216 parameters: 1 layer of width 64 (50,112), vocabulary 129,024
/// (×129) and 1,297 positions (×64).
fn dram_shard_spec() -> ModelSpec {
    ModelSpec {
        name: "step_dram-shard".into(),
        nominal_billions: 0.016_777_216,
        num_layers: 1,
        hidden_dim: 64,
        attention_heads: 1,
        vocab_size: 129_024,
        seq_len: 1_297,
    }
}

/// `sim`: one simulated `DeepOptimizerStates` iteration of the shard on a
/// profile whose CPU and link fields come from this host's calibration.
fn sim_layer(
    rec: &mut Recorder,
    shard: &Shard<'_>,
    step_secs: f64,
    out: &mut Out,
) -> Result<(), String> {
    let spec = dram_shard_spec();
    if spec.param_count() as usize != shard.n {
        return Err(format!(
            "sim spec has {} params, shard {}",
            spec.param_count(),
            shard.n
        ));
    }
    let cal = calibrate(1 << 20);
    let mut profile = HardwareProfile::jlse_h100().with_num_gpus(1);
    profile.cpu_update_pps_total = cal.cpu_update_pps;
    profile.cpu_downscale_pps_total = cal.cpu_downscale_pps;
    profile.gpu_update_pps = cal.cpu_update_pps; // the device worker is a CPU thread
    profile.update_b_pps = cal.staging_pps;
    profile.host_memcpy_bw = cal.staging_pps * 4.0;
    profile.dram_contention_cpu_factor = 1.0;
    let mut cfg = TrainConfig::deep_optimizer_states(spec, profile);
    cfg.world = 1;
    cfg.offload.subgroup_params = shard.subgroup;
    let sched = DeepOptimizerStates {
        stride: StridePolicy::Fixed(2),
        residents_at_tail: true,
    };
    let id = rec.enter("sim.iteration");
    let first = simulate_iteration(&cfg, &sched).map_err(|e| format!("simulation failed: {e}"))?;
    out.set("sim.host_us_per_iter", rec.exit(id) * 1e6);
    let again = simulate_iteration(&cfg, &sched).map_err(|e| format!("simulation failed: {e}"))?;
    if first.update_secs.to_bits() != again.update_secs.to_bits()
        || first.total_secs.to_bits() != again.total_secs.to_bits()
    {
        return Err("the simulator gave two different times for one configuration".into());
    }
    out.set("sim.pred_step_ms", first.update_secs * 1e3);
    out.set(
        "sim.pred_err_frac",
        (first.update_secs - step_secs).abs() / step_secs,
    );
    Ok(())
}

/// `train` for the `step_*` workloads: the facade against the direct call,
/// the constructor, and what one step allocates.
fn train_step_layer(
    rec: &mut Recorder,
    trainer: &mut Trainer,
    shard: &mut Shard<'_>,
    seed: u64,
    end: Instant,
    step_secs: f64,
    out: &mut Out,
) -> Result<(), String> {
    in_time(end, "train")?;
    let interleaved = shard.interleaved;
    // A quarter of what is left, for `pairs` facade steps and then `pairs`
    // of facade and direct step.
    let pairs = reps(secs_left(end) * 0.25 / 3.0, step_secs, 3, 200);
    let (mut facade, mut direct) = (Vec::new(), Vec::new());
    let (allocs0, bytes0) = alloc::counters();
    for _ in 0..pairs {
        let id = rec.enter("train.trainer_step");
        let ok = trainer.step(shard.grads).is_ok();
        facade.push(rec.exit(id));
        if !ok {
            return Err("Trainer::step failed in the traced pass".into());
        }
    }
    let (allocs1, bytes1) = alloc::counters();
    out.set(
        "train.allocs_per_step",
        (allocs1 - allocs0) as f64 / pairs as f64,
    );
    out.set(
        "train.alloc_mb_per_step",
        (bytes1 - bytes0) as f64 / MIB / pairs as f64,
    );
    // Alternate afterwards, so the allocation count above is the facade's.
    in_time(end, "the facade against the direct step")?;
    facade.clear();
    for _ in 0..pairs {
        let id = rec.enter("train.trainer_step");
        let ok = trainer.step(shard.grads).is_ok();
        facade.push(rec.exit(id));
        if !ok {
            return Err("Trainer::step failed in the traced pass".into());
        }
        let id = rec.enter("core.pipeline.step");
        shard.direct_step(interleaved, None)?;
        direct.push(rec.exit(id));
    }
    let (f, d) = (median(&facade), median(&direct));
    out.set("train.facade_overhead_frac", (f - d) / f);

    let shape = StepShape {
        params: shard.n,
        subgroup: shard.subgroup,
        interleaved,
    };
    let init = init_stream(seed, shard.n);
    let id = rec.enter("train.build");
    let built = Trainer::from_json(&shape.trainer_json(), init);
    out.set("train.build_s", rec.exit(id));
    built
        .map(drop)
        .map_err(|e| format!("Trainer::from_json failed: {e}"))
}

/// `data` and `nn`: `train_dp2`'s input path and one rank's compute.
fn data_nn_layers(
    rec: &mut Recorder,
    seed: u64,
    end: Instant,
    out: &mut Out,
) -> Result<(), String> {
    in_time(end, "data")?;
    let cpu0 = sys::thread_cpu_secs();
    let id = rec.enter("data.setup");
    let dataset = train_dataset(seed);
    rec.exit(id);
    out.set("data.setup_s", sys::thread_cpu_secs() - cpu0);

    let cfg = train_config(seed);
    let mut loader = DataLoader::new(0, cfg.world, cfg.micro_batch, seed ^ 0x5EED);
    let id = rec.enter("data.next_batch");
    let hundreds = repeat_until(end, 0.2, 1, 20, || {
        for _ in 0..100 {
            std::hint::black_box(loader.next_batch(&dataset));
        }
        Ok(())
    })?;
    out.set(
        "data.next_batch_us",
        rec.exit(id) * 1e6 / (hundreds * 100) as f64,
    );

    let mut model = Gpt::new(train_model(), &mut StdRng::seed_from_u64(seed));
    let params = model.gather_params();
    let (mut fwd_bwd, mut gather_scatter) = (Vec::new(), Vec::new());
    in_time(end, "nn")?;
    repeat_until(end, 1.0, 3, 20, || {
        let batch = loader.next_batch(&dataset);
        let id = rec.enter("nn.fwd_bwd");
        let loss =
            model.loss_and_backward(&batch.inputs, &batch.targets, batch.batch, batch.seq_len);
        fwd_bwd.push(rec.exit(id));
        std::hint::black_box(loss);
        let id = rec.enter("nn.gather_scatter");
        std::hint::black_box(model.gather_grads());
        model.scatter_params(&params);
        model.zero_grads();
        gather_scatter.push(rec.exit(id));
        Ok(())
    })?;
    let f = median(&fwd_bwd);
    out.set("nn.fwd_bwd_ms", f * 1e3);
    out.set("nn.gather_scatter_ms", median(&gather_scatter) * 1e3);
    out.set(
        "nn.tokens_per_s",
        (cfg.micro_batch * train_model().max_seq) as f64 / f,
    );
    Ok(())
}

/// Runs each collective of `kinds` on two ranks; rank 0 is the caller and
/// records the spans, rank 1 a scoped thread that mirrors it. Both ranks
/// must run the same number of rounds, and with neighbours on the host a
/// rendezvous can wait for a scheduler tick: so both time two warm-up
/// all-reduces, rank 0 fits the count to `cap_secs` (at most `max_rounds`),
/// and one more all-reduce tells rank 1 (which contributes 0).
fn collective_rounds(
    rec: &mut Recorder,
    comms: Vec<Communicator>,
    full: &[f32],
    cap_secs: f64,
    max_rounds: usize,
    kinds: &[usize],
) -> Result<[f64; 3], String> {
    let shard_len = full.len() / 2;
    let sequence = move |comm: &Communicator, mut mark: Option<&mut Recorder>| {
        let mut secs = [0.0; 3];
        let mut buf = full.to_vec();
        let warm_up = Instant::now();
        for _ in 0..2 {
            buf.copy_from_slice(full);
            comm.all_reduce_sum(&mut buf)
                .map_err(|e| format!("warm-up all-reduce failed: {e}"))?;
        }
        let per_round = warm_up.elapsed().as_secs_f64() / 2.0;
        let mut vote = [match mark {
            Some(_) => reps(cap_secs / kinds.len() as f64, per_round, 3, max_rounds) as f32,
            None => 0.0,
        }];
        comm.all_reduce_sum(&mut vote)
            .map_err(|e| format!("agreeing on the rounds failed: {e}"))?;
        let rounds = vote[0] as usize;
        for &kind in kinds {
            let name = [
                "collectives.allreduce",
                "collectives.reduce_scatter",
                "collectives.all_gather",
            ][kind];
            let id = mark.as_mut().map(|r| r.enter(name));
            for _ in 0..rounds {
                let ok = match kind {
                    0 => {
                        buf.copy_from_slice(full);
                        comm.all_reduce_sum(&mut buf).is_ok()
                    }
                    1 => comm.reduce_scatter_sum(full).is_ok(),
                    _ => comm.all_gather(&full[..shard_len]).is_ok(),
                };
                if !ok {
                    return Err(format!("{name} failed"));
                }
            }
            if let (Some(r), Some(id)) = (mark.as_mut(), id) {
                secs[kind] = r.exit(id) / rounds as f64;
            }
        }
        Ok(secs)
    };
    let mut comms = comms.into_iter();
    let (c0, c1) = (
        comms.next().ok_or("no rank 0")?,
        comms.next().ok_or("no rank 1")?,
    );
    std::thread::scope(|s| {
        let peer = s.spawn(move || sequence(&c1, None).map(drop));
        let mine = sequence(&c0, Some(rec));
        let theirs = peer.join().map_err(|_| "rank 1 panicked".to_string())?;
        theirs?;
        mine
    })
}

/// `collectives`: gradient-sized collectives in process, a small all-reduce
/// over Unix sockets, the frame codec, and the bytes an iteration sends.
fn collectives_layer(
    rec: &mut Recorder,
    seed: u64,
    end: Instant,
    scratch: &Path,
    out: &mut Out,
) -> Result<(), String> {
    in_time(end, "collectives")?;
    let mut model = Gpt::new(train_model(), &mut StdRng::seed_from_u64(seed));
    let padded = model.num_params().next_multiple_of(2);
    let full = grad_stream(seed, padded);
    let secs = collective_rounds(rec, Communicator::world(2), &full, 1.5, 40, &[0, 1, 2])?;
    out.set("collectives.allreduce_ms", secs[0] * 1e3);
    out.set("collectives.reduce_scatter_ms", secs[1] * 1e3);
    out.set("collectives.all_gather_ms", secs[2] * 1e3);

    in_time(end, "the socket transport")?;
    let dir = scratch.join("uds");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let uds: Result<Vec<Communicator>, String> = std::thread::scope(|s| {
        let connect = |rank: usize| {
            let dir = dir.clone();
            move || SocketTransport::connect_uds(rank, 2, &dir, Duration::from_secs(10))
        };
        let peer = s.spawn(connect(1));
        let mine = connect(0)();
        let theirs = peer
            .join()
            .map_err(|_| "UDS rendezvous panicked".to_string())?;
        [mine, theirs]
            .into_iter()
            .map(|t| {
                t.map(|t| Communicator::new(Box::new(t), CollectiveConfig::default()))
                    .map_err(|e| format!("UDS connect failed: {e}"))
            })
            .collect()
    });
    let secs = collective_rounds(rec, uds?, &full[..8192], 0.5, 100, &[0])?;
    out.set("collectives.uds_allreduce_ms", secs[0] * 1e3);

    let payload: Vec<u8> = full[..padded / 2]
        .iter()
        .flat_map(|x| x.to_le_bytes())
        .collect();
    let bytes = payload.len();
    let frame = Frame::data(1, 1, payload);
    let rounds = 50;
    let id = rec.enter("collectives.frame_codec");
    for _ in 0..rounds {
        let wire = std::hint::black_box(&frame).encode();
        if Frame::decode(&wire).is_err() {
            return Err("a frame did not survive its own codec".into());
        }
    }
    out.set(
        "collectives.frame_codec_mb_per_s",
        (bytes * rounds) as f64 / rec.exit(id) / 1e6,
    );

    // Per rank and iteration, world 2, every collective a full exchange:
    // reduce-scatter sends the padded gradient, all-gather the FP16 shard
    // (as f32), the loss all-reduce one float; 33 bytes of framing each.
    out.set(
        "collectives.bytes_per_iter",
        (4 * (padded + padded / 2 + 1) + 3 * 33) as f64,
    );
    Ok(())
}

/// `runtime` and `train.ckpt`: the program's own phase spans on rank 0, the
/// single-worker baseline, and the checkpoint path on the trained state.
fn runtime_ckpt_layers(
    rec: &mut Recorder,
    seed: u64,
    dataset: &dos::data::TokenDataset,
    untraced_call_secs: f64,
    end: Instant,
    scratch: &Path,
    out: &mut Out,
) -> Result<(), String> {
    in_time(end, "the traced call")?;
    // One traced call. Its output must be the untraced calls' output.
    let tracer = Tracer::new();
    let mut cfg = train_config(seed);
    cfg.tracer = Some(tracer.clone());
    let id = rec.enter("runtime.traced_call");
    let report = train_functional(&cfg, dataset, TRAIN_ITERS)
        .map_err(|e| format!("traced call failed: {e}"))?;
    let traced_secs = rec.exit(id);
    check_train_report(&report)?;
    out.set(
        "runtime.trace_overhead_frac",
        traced_secs / untraced_call_secs - 1.0,
    );

    let events = tracer.events();
    let rank0: Vec<_> = events.iter().filter(|e| e.track == "rank0").collect();
    let sum = |prefix: &str| -> f64 {
        rank0
            .iter()
            .filter(|e| e.name.starts_with(prefix))
            .map(|e| e.dur)
            .sum()
    };
    let start = rank0.iter().map(|e| e.start).fold(f64::INFINITY, f64::min);
    let stop = rank0.iter().map(|e| e.start + e.dur).fold(0.0, f64::max);
    let loop_secs = stop - start;
    if rank0.is_empty() || loop_secs <= 0.0 {
        return Err("the traced call recorded no spans on rank 0".into());
    }
    let fwd = sum("fwd-bwd:") / loop_secs;
    let comm = (sum("grad-exchange:") + sum("all-gather:")) / loop_secs;
    let update = sum("hybrid-update:") / loop_secs;
    out.set("runtime.phase_fwdbwd_frac", fwd);
    out.set("runtime.phase_comm_frac", comm);
    out.set("runtime.phase_update_frac", update);
    out.set(
        "runtime.unattributed_frac",
        (1.0 - fwd - comm - update).max(0.0),
    );
    rec.record(
        "runtime.rank0_loop",
        rec.now() - traced_secs,
        rec.now() - traced_secs + loop_secs,
    );

    // The plain single-worker run of the same task.
    in_time(end, "the single-worker call")?;
    let mut solo = train_config(seed);
    solo.world = 1;
    let id = rec.enter("runtime.dp1_call");
    let report = train_functional(&solo, dataset, TRAIN_ITERS)
        .map_err(|e| format!("dp1 call failed: {e}"))?;
    out.set(
        "runtime.dp1_iter_ms",
        rec.exit(id) * 1e3 / TRAIN_ITERS as f64,
    );
    check_train_report(&report)?;

    // A trained state: the same call once more, leaving its last snapshot.
    in_time(end, "the checkpointing call")?;
    let dir = scratch.join("ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    let mut saving = train_config(seed);
    saving.checkpoint_dir = Some(dir.clone());
    saving.checkpoint_every = TRAIN_ITERS;
    train_functional(&saving, dataset, TRAIN_ITERS)
        .map_err(|e| format!("checkpointing call failed: {e}"))?;
    let store =
        CheckpointStore::open(&dir, 2).map_err(|e| format!("open {}: {e}", dir.display()))?;
    let (trained, _) = store
        .latest_valid()
        .map_err(|e| format!("no trained snapshot: {e}"))?;

    let mut model = Gpt::new(train_model(), &mut StdRng::seed_from_u64(seed));
    let optimizer = trained
        .restore(&mut model)
        .map_err(|e| format!("restore failed: {e}"))?;
    let mut times = [Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let mut encoded_len = 0;
    let mut round = 0;
    repeat_until(end, 1.0, 1, 5, || {
        round += 1;
        let id = rec.enter("train.ckpt.capture");
        let snap = TrainingCheckpoint::capture(&mut model, &optimizer, trained.iteration + round);
        times[0].push(rec.exit(id));
        let id = rec.enter("train.ckpt.encode");
        let bytes = snap.to_bytes().map_err(|e| format!("encode failed: {e}"))?;
        times[1].push(rec.exit(id));
        encoded_len = bytes.len();
        let id = rec.enter("train.ckpt.decode");
        let back =
            TrainingCheckpoint::from_bytes(&bytes).map_err(|e| format!("decode failed: {e}"))?;
        times[2].push(rec.exit(id));
        if back != snap {
            return Err("a checkpoint did not survive its own codec".into());
        }
        let id = rec.enter("train.ckpt.save");
        store.save(&snap).map_err(|e| format!("save failed: {e}"))?;
        times[3].push(rec.exit(id));
        let id = rec.enter("train.ckpt.load");
        let (loaded, _) = store
            .latest_valid()
            .map_err(|e| format!("load failed: {e}"))?;
        times[4].push(rec.exit(id));
        if loaded != snap {
            return Err("the store returned a different checkpoint than it saved".into());
        }
        Ok(())
    })?;
    let mb = encoded_len as f64 / 1e6;
    out.set("train.ckpt.capture_ms", median(&times[0]) * 1e3);
    out.set("train.ckpt.encode_mb_per_s", mb / median(&times[1]));
    out.set("train.ckpt.decode_mb_per_s", mb / median(&times[2]));
    out.set("train.ckpt.save_ms", median(&times[3]) * 1e3);
    out.set("train.ckpt.load_ms", median(&times[4]) * 1e3);
    out.set(
        "train.ckpt.bytes_per_param",
        encoded_len as f64 / model.num_params() as f64,
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// `proc`, `host` and the `train.step_*` distribution, from the traced
/// trial's own closed loop. Returns the median operation, seconds.
fn proc_layer(result: &TrialResult, workload: Workload, out: &mut Out) -> Result<f64, String> {
    let ops = result
        .op_wall
        .ok_or("the traced trial timed no operation")?;
    if result.windows.is_empty() {
        return Err("the traced trial closed no window".into());
    }
    let op_secs = ops.median_ms / 1e3;
    let items = workload.work_per_op();
    // One "step" is the operation itself for step_* and one of its
    // iterations for train_dp2.
    let per_step = if workload.step_shape().is_some() {
        1.0
    } else {
        TRAIN_ITERS as f64
    };
    out.set("train.step_median_ms", ops.median_ms / per_step);
    out.set("train.step_tail_ms", ops.tail_ms / per_step);
    out.set("train.step_tail_pct", ops.tail_pct as f64);
    out.set("train.step_samples", ops.samples as f64);
    out.set("proc.wall_throughput_per_s", items as f64 / op_secs);
    let (cpu, n): (f64, u64) = result
        .windows
        .iter()
        .fold((0.0, 0), |(c, n), w| (c + w.op_cpu, n + w.ops));
    out.set("proc.cpu_ms_per_op", cpu * 1e3 / n as f64);
    out.set(
        "proc.parallelism",
        least_disturbed(&result.windows).parallelism(),
    );
    out.set("proc.setup_wall_s", result.setup_wall_s);
    out.set(
        "host.speed",
        median(&result.windows.iter().map(|w| w.host()).collect::<Vec<_>>()),
    );
    Ok(op_secs)
}

fn scratch_dir(args: &TrialArgs) -> PathBuf {
    Path::new(OUT_DIR).join(format!(
        "scratch-{}-seed{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ))
}

/// The traced pass of one workload: every per-layer metric, in contract
/// order. Writes the Chrome trace to
/// `benchmark/out/trace-<workload>-seed<S>.json`.
///
/// # Errors
///
/// Returns the first failed layer call, or a missed accounting closure.
pub fn replay(
    args: &TrialArgs,
    prepared: &mut Prepared,
    result: &TrialResult,
    end: Instant,
) -> Result<Vec<(String, f64)>, String> {
    let mut out = Out::default();
    let mut rec = Recorder::new();
    let op_secs = proc_layer(result, args.workload, &mut out)?;
    let scratch = scratch_dir(args);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let outcome = replay_layers(args, prepared, op_secs, end, &scratch, &mut rec, &mut out);
    let _ = std::fs::remove_dir_all(&scratch);
    // The trace is written whatever happened: a failed closure is explained
    // by the spans that missed it.
    let path = Path::new(OUT_DIR).join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&path, rec.chrome_json())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    outcome?;
    Ok(out.finish())
}

fn replay_layers(
    args: &TrialArgs,
    prepared: &mut Prepared,
    op_secs: f64,
    end: Instant,
    scratch: &Path,
    rec: &mut Recorder,
    out: &mut Out,
) -> Result<(), String> {
    match prepared {
        Prepared::Step { trainer, grads } => {
            let shape = args
                .workload
                .step_shape()
                .ok_or("a step trial without a shape")?;
            let mut shard = Shard {
                n: shape.params,
                subgroup: shape.subgroup,
                interleaved: shape.interleaved,
                state: MixedPrecisionState::new(
                    init_stream(args.seed, shape.params),
                    UpdateRule::adam(),
                    DEFAULT_LR,
                ),
                grads,
                subgroups: partition_into_subgroups(shape.params, shape.subgroup),
                pool: ArenaPool::new(),
            };
            // Each layer takes its share of the time that is left when it
            // starts (0.40, 0.15 and 0.15 of the whole when none overruns),
            // so one that ran long shortens the ones after it.
            let step = pipeline_layers(rec, &mut shard, end, secs_left(end) * 0.40, op_secs, out)?;
            train_step_layer(rec, trainer, &mut shard, args.seed, end, op_secs, out)?;
            telemetry_layer(rec, &mut shard, end, secs_left(end) * 0.33, step, out)?;
            if args.workload == Workload::StepDram {
                in_time(end, "sim")?;
                sim_layer(rec, &shard, step, out)?;
                in_time(end, "core.zenflow")?;
                zenflow_layer(rec, &mut shard, out);
            }
            if args.workload == Workload::StepCpuOnly {
                let gap = out.get("core.pipeline.closure_gap_frac");
                if gap > MAX_CLOSURE_GAP {
                    return Err(format!(
                        "accounting closure missed: replayed layers and the measured step differ \
                         by {:.1} % (limit {:.0} %)",
                        gap * 100.0,
                        MAX_CLOSURE_GAP * 100.0
                    ));
                }
            }
        }
        Prepared::Train {
            dataset,
            final_loss,
            ..
        } => {
            out.set("train.final_loss", *final_loss as f64);
            in_time(end, "the counted call")?;
            let (allocs0, bytes0) = alloc::counters();
            let report = train_functional(&train_config(args.seed), dataset, TRAIN_ITERS)
                .map_err(|e| format!("train_functional failed: {e}"))?;
            let (allocs1, bytes1) = alloc::counters();
            check_train_report(&report)?;
            out.set(
                "train.allocs_per_step",
                (allocs1 - allocs0) as f64 / TRAIN_ITERS as f64,
            );
            out.set(
                "train.alloc_mb_per_step",
                (bytes1 - bytes0) as f64 / MIB / TRAIN_ITERS as f64,
            );

            data_nn_layers(rec, args.seed, end, out)?;
            collectives_layer(rec, args.seed, end, scratch, out)?;
            runtime_ckpt_layers(rec, args.seed, dataset, op_secs, end, scratch, out)?;

            // One rank's optimizer shard, driven directly.
            let mut model = Gpt::new(train_model(), &mut StdRng::seed_from_u64(args.seed));
            let n = model.num_params().div_ceil(2);
            let grads = grad_stream(args.seed, n);
            let cfg = train_config(args.seed);
            let mut shard = Shard {
                n,
                subgroup: cfg.subgroup_size,
                interleaved: true,
                state: MixedPrecisionState::new(init_stream(args.seed, n), cfg.rule, cfg.lr),
                grads: &grads,
                subgroups: partition_into_subgroups(n, cfg.subgroup_size),
                pool: ArenaPool::new(),
            };
            let step_guess = op_secs / TRAIN_ITERS as f64 / 20.0;
            let left = secs_left(end);
            let step = pipeline_layers(rec, &mut shard, end, left * 0.5, step_guess, out)?;
            telemetry_layer(rec, &mut shard, end, left * 0.3, step, out)?;

            let unattributed = out.get("runtime.unattributed_frac");
            if unattributed > MAX_UNATTRIBUTED {
                return Err(format!(
                    "accounting closure missed: {:.1} % of rank 0's loop is outside the three \
                     phases (limit {:.0} %)",
                    unattributed * 100.0,
                    MAX_UNATTRIBUTED * 100.0
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_sim_spec_is_exactly_the_dram_shard() {
        assert_eq!(dram_shard_spec().param_count(), 16_777_216);
        assert_eq!(Workload::StepDram.step_shape().unwrap().params, 16_777_216);
    }

    #[test]
    fn a_replayed_step_leaves_the_state_the_pipeline_leaves() {
        let n = 5000;
        let grads = grad_stream(2, n);
        let mk = |interleaved| Shard {
            n,
            subgroup: 512,
            interleaved,
            state: MixedPrecisionState::new(init_stream(2, n), UpdateRule::adam(), 0.01),
            grads: &grads,
            subgroups: partition_into_subgroups(n, 512),
            pool: ArenaPool::new(),
        };
        let mut rec = Recorder::new();
        for interleaved in [true, false] {
            let (mut replayed, mut real) = (mk(interleaved), mk(interleaved));
            let sums = replay_step(&mut rec, &mut replayed, interleaved);
            real.direct_step(interleaved, None).unwrap();
            assert_eq!(replayed.state, real.state, "interleaved {interleaved}");
            assert_eq!(replayed.pool.in_use_bytes(), 0);
            assert_eq!(sums.update_params + sums.stage_params, n);
            assert_eq!(sums.stage_params > 0, interleaved);
        }
        // Every leaf is a child of its operation's root span.
        let roots: Vec<usize> = rec
            .spans()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "replay.step")
            .map(|(i, _)| i)
            .collect();
        assert_eq!(roots.len(), 2);
        assert!(rec
            .spans()
            .iter()
            .all(|s| s.name == "replay.step" || s.parent.is_some()));
    }

    #[test]
    fn out_fills_absent_layers_with_zero_in_contract_order() {
        let mut out = Out::default();
        out.set("host.speed", 1.25);
        let all = out.finish();
        assert_eq!(all.len(), PER_LAYER.len());
        assert_eq!(all[0], ("optim.uc_params_per_s".to_string(), 0.0));
        assert_eq!(all.last().unwrap(), &("host.speed".to_string(), 1.25));
    }

    #[test]
    #[should_panic(expected = "not a per-layer metric")]
    fn out_rejects_names_outside_the_contract() {
        Out::default().set("optim.typo", 1.0);
    }
}
