//! Functional interleaved-update pipeline: real threads, real numerics.
//!
//! The simulator (`schedulers`) reproduces the paper's *timing*; this module
//! reproduces its *mechanism* with real concurrency: a device worker thread
//! ("the GPU") and the calling thread playing the CPU, each updating its
//! share of the subgroups — exactly Algorithm 1's structure. The
//! correctness claim under test is §4.1's: out-of-order, cross-device
//! subgroup updates produce results identical to a sequential CPU update.
//!
//! The device updates in place. The paper stages a device subgroup's
//! p/m/v/g over PCIe because its GPU has memory of its own; this device is
//! a second core on the host's DRAM, so the step lends it the subgroup's
//! own ranges of the state, the gradients and the FP16 output (through
//! `lend`, the crate's one `unsafe` module) and a subgroup is
//! still updated on exactly one thread at a time. PCIe stays priced where
//! it is modelled: in `dos-hal` and the simulator. Channels and threads
//! come from the [`crate::sync`] facade: real crossbeam/std primitives in
//! production, schedule-controlled twins under `dos-check`'s deterministic
//! exploration.
//!
//! The device outlives the step, as Alg. 1's streams do: the worker is one
//! detached thread parked in `recv` between jobs and between steps, kept
//! by the [`ArenaPool`] the step receives — started by the first step that
//! ships a subgroup, hung up on and joined when the pool's last handle
//! drops, replaced by the next shipping step if a step loses it. A step
//! ends by counting loans back, not by joining a thread. In between it
//! reclaims finished subgroups as they arrive and lends a new one only
//! while fewer than two are out (Alg. 1's double buffer).

use std::ops::ControlFlow;
use std::sync::Arc;

use crate::arena::ArenaPool;
use crate::lend::{self, Lender, Ranges};
use crate::sync;

use dos_optim::{MixedPrecisionState, UpdateRule};
use parking_lot::Mutex;
use dos_telemetry::{SpanGuard, Tracer};
use dos_tensor::F16;
use dos_zero::SubgroupSpec;

use crate::schedulers::{StridePolicy, UpdatePlan, DEFAULT_STRIDE};

/// Track name for the calling (CPU) thread's spans.
pub const CPU_TRACK: &str = "cpu";
/// Track name for the device worker's spans.
pub const DEVICE_TRACK: &str = "device-worker";

/// Subgroups lent to the worker and not yet back at which the caller stops
/// lending and waits for one: Algorithm 1's double buffer — one subgroup
/// under update, one queued behind it.
const MAX_IN_FLIGHT: usize = 2;

/// Bytes a lent subgroup holds per parameter — `p`, `m`, `v`, `g` in FP32
/// and its FP16 slice — counted by the `pipeline.h2d|d2h.bytes` counters
/// and metered by the pool, as a staged subgroup's leases were.
const LENT_BYTES_PER_PARAM: usize = 4 * 4 + 2;

/// Typed precondition failures of the hybrid pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PipelineError {
    /// `grads.len()` does not match the optimizer state's flat length.
    GradientLengthMismatch {
        /// The state's flat parameter count.
        expected: usize,
        /// The gradient slice's length.
        got: usize,
    },
    /// The subgroup list does not tile `0..state.len()` contiguously.
    SubgroupTiling {
        /// Human-readable description of the tiling violation.
        detail: String,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::GradientLengthMismatch { expected, got } => {
                write!(f, "gradient length mismatch: state holds {expected} params, got {got}")
            }
            PipelineError::SubgroupTiling { detail } => {
                write!(f, "invalid subgroup tiling: {detail}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// An injected device-worker fault, for chaos campaigns. The fault fires
/// after the worker has fully processed the given number of jobs, so the
/// earlier subgroups' results are already on their way back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceFault {
    /// The worker thread panics (a crashed CUDA context). The panic is
    /// contained by the pipeline and surfaces as a degradation, never as a
    /// caller-visible panic.
    PanicAfter(usize),
    /// The worker returns silently, disconnecting both DMA channels (a hung
    /// device that stops answering).
    DisconnectAfter(usize),
}

/// Configuration of the functional hybrid pipeline.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Update stride: every k-th subgroup goes to the device worker
    /// (`Fixed(k)`); `CpuOnly` keeps everything on the calling thread;
    /// `Auto` runs at [`DEFAULT_STRIDE`], the paper's measured optimum.
    pub stride: StridePolicy,
    /// Number of trailing subgroups treated as static device residents
    /// (updated on the device without staging transfers — as every device
    /// subgroup of the functional pipeline is).
    pub static_residents: usize,
    /// Optional injected device fault (chaos testing). `None` in
    /// production use.
    pub fault_injection: Option<DeviceFault>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig { stride: StridePolicy::Auto, static_residents: 0, fault_injection: None }
    }
}

/// How a hybrid update degraded when the device worker was lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineDegradation {
    /// What happened to the device worker (panic message or disconnect).
    pub reason: String,
    /// Subgroups the plan placed on the device that the loss moved to the
    /// CPU: those lent but never returned, re-run from their still-unmodified
    /// host state, and those not lent once the loss was known.
    pub lost_jobs_retried_on_cpu: usize,
}

/// Result of a hybrid update step.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Downscaled FP16 parameters for the whole flat space (what the GPU
    /// trains the next iteration with). Immutable and cheap to clone: a
    /// step that keeps an output slot ([`hybrid_update_into`], the
    /// `Trainer`) writes the next step's parameters into this same buffer
    /// once every report sharing it has dropped, and into a fresh one while
    /// any is still held — so a report never changes under its holder.
    pub fp16_params: Arc<[F16]>,
    /// How many subgroups were updated on the device worker.
    pub device_subgroups: usize,
    /// How many subgroups were updated on the calling (CPU) thread
    /// (including any lost device jobs re-run there).
    pub cpu_subgroups: usize,
    /// Set when the device worker was lost mid-step and the pipeline
    /// degraded the remainder to the CPU-only path. The step's numerics are
    /// unaffected: every subgroup is still updated exactly once.
    pub degraded: Option<PipelineDegradation>,
}

/// What the worker needs beside the ranges it borrows — the worker
/// outlives the step and can borrow nothing else from it.
struct Job {
    sg: SubgroupSpec,
    step: u64,
    lr: f32,
    rule: UpdateRule,
    /// The lending step's tracer: traced and untraced steps share a worker.
    tracer: Option<Tracer>,
    /// The step's armed fault, which fires on the job that `seq` of the
    /// step's jobs were lent before.
    fault: Option<DeviceFault>,
    seq: usize,
}

/// The device worker ("the GPU"): one thread, parked in `recv` between
/// jobs and between steps, behind the step's end of its channels.
struct DeviceWorker {
    lending: lend::Lending<Job>,
    handle: sync::JoinHandle<()>,
}

impl DeviceWorker {
    fn spawn() -> DeviceWorker {
        let (lending, borrowing) = lend::channel::<Job>();
        let handle = sync::spawn(move || {
            borrowing.serve(|job, r| {
                // Faults fire at the job boundary, before a range is
                // touched, so a lost job has never started.
                match job.fault {
                    Some(DeviceFault::PanicAfter(n)) if job.seq == n => {
                        panic!("injected device fault after {n} jobs")
                    }
                    Some(DeviceFault::DisconnectAfter(n)) if job.seq == n => {
                        return ControlFlow::Break(())
                    }
                    _ => {}
                }
                // The same element-wise rule in place, fused with the FP16
                // copy straight into the step's output (the D2D `.half()`
                // of Alg. 1). The job — span, tracer — ends with this call,
                // before the loan goes back: a caller holding its step's
                // last loan finds every span recorded.
                let tracer = job.tracer.as_ref();
                let _span =
                    stage_span(tracer, DEVICE_TRACK, "gpu", "update", &job.sg, job.sg.len());
                job.rule.apply_downscale(job.step, job.lr, r.p, r.g, r.m, r.v, r.p16);
                ControlFlow::Continue(())
            })
        });
        DeviceWorker { lending, handle }
    }

    /// Hangs up on the worker and waits for its thread; `Err` carries its
    /// panic payload.
    fn shutdown(self) -> std::thread::Result<()> {
        drop(self.lending);
        self.handle.join()
    }
}

impl std::fmt::Debug for DeviceWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("DeviceWorker")
    }
}

/// Where an [`ArenaPool`] keeps its device worker between steps, beside
/// the worker's counters. A step checks the worker out and back in, so the
/// lock is never held across a channel operation; the worker is hung up on
/// and joined when the pool's last handle drops the slot.
#[derive(Debug, Default)]
pub(crate) struct DeviceSlot(Mutex<Parked>);

#[derive(Debug, Default)]
struct Parked {
    worker: Option<DeviceWorker>,
    spawns: u64,
    in_flight_high_water: usize,
}

impl DeviceSlot {
    /// The parked worker, or a fresh one if none is parked (the first step
    /// that ships work, or the first after a lost worker).
    fn check_out(&self, tracer: Option<&Tracer>) -> DeviceWorker {
        let mut slot = self.0.lock();
        slot.worker.take().unwrap_or_else(|| {
            slot.spawns += 1;
            if let Some(t) = tracer {
                t.metrics().inc_counter("pipeline.worker_spawns", 1);
            }
            DeviceWorker::spawn()
        })
    }

    /// Ends a step: parks the worker it still holds and folds its in-flight
    /// peak into the pool's, which it returns.
    fn check_in(&self, worker: Option<DeviceWorker>, in_flight: usize) -> usize {
        let mut slot = self.0.lock();
        slot.in_flight_high_water = slot.in_flight_high_water.max(in_flight);
        let high_water = slot.in_flight_high_water;
        // Steps racing over one pool each bring a worker back: keep one.
        let spare = worker.and_then(|w| slot.worker.replace(w));
        drop(slot);
        if let Some(spare) = spare {
            let _ = spare.shutdown();
        }
        high_water
    }

    /// `(workers spawned, in-flight high water)` over the pool's life.
    pub(crate) fn stats(&self) -> (u64, usize) {
        let slot = self.0.lock();
        (slot.spawns, slot.in_flight_high_water)
    }
}

impl Drop for DeviceSlot {
    fn drop(&mut self) {
        if let Some(worker) = self.0.get_mut().worker.take() {
            let _ = worker.shutdown();
        }
    }
}

/// Opens the `{stage}:sg{id}` update-phase span of one pipeline stage on
/// `track`, carrying `work` (params or bytes); `None` when untraced.
fn stage_span(
    tracer: Option<&Tracer>,
    track: &str,
    resource: &str,
    stage: &str,
    sg: &SubgroupSpec,
    work: usize,
) -> Option<SpanGuard> {
    let mut guard = tracer?.span_on(track, resource, &format!("{stage}:sg{}", sg.id), "update");
    guard.set_work(work as f64);
    Some(guard)
}

/// Renders the payload of a worker panic for the degradation report.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// The step's five flat vectors cut at the (validated) subgroup ends: one
/// [`Ranges`] per subgroup, in order.
///
/// # Panics
///
/// Panics if the five lengths differ: `m`/`v` against `p` is the state's
/// own invariant, `g` and `p16` were sized from it.
fn split<'a>(
    (p, m, v): (&'a mut [f32], &'a mut [f32], &'a mut [f32]),
    g: &'a [f32],
    p16: &'a mut [F16],
    subgroups: &[SubgroupSpec],
) -> Vec<Ranges<'a>> {
    let n = p.len();
    assert!(
        [m.len(), v.len(), g.len(), p16.len()].iter().all(|&len| len == n),
        "optimizer state, gradient and FP16 lengths differ"
    );
    let mut rest = Ranges { p, m, v, g, p16 };
    let mut out = Vec::with_capacity(subgroups.len());
    for sg in subgroups {
        let (head, tail) = rest.split_at(sg.len());
        out.push(head);
        rest = tail;
    }
    out
}

/// Runs one interleaved hybrid optimizer step over `state` with `grads`,
/// scheduling subgroups per `cfg` across the calling thread and the device
/// worker parked in `pool`, which updates its subgroups in place.
///
/// Equivalent to `state.full_step(grads)` followed by a full downscale —
/// bitwise, for any stride and resident set (verified by the crate's
/// property tests) — but executed with the paper's interleaved concurrency.
///
/// Trainers hold one [`ArenaPool`] across iterations, so steady-state steps
/// wake the same worker instead of spawning one; the pool meters the lent
/// ranges (18 B/param, two subgroups at most) in the high-water gauge the
/// resident-sizing policy observes.
///
/// With `tracer: Some(_)` every pipeline stage emits a wall-clock span —
/// `prefetch:sg{id}` (the hand-off to the worker) / `update:sg{id}` (the
/// rule fused with the FP32→FP16 downscale, `U_c` and `D_c` in one pass) /
/// `flush:sg{id}` (the reclaim) on [`CPU_TRACK`], and one `update:sg{id}`
/// per shipped subgroup, fused the same way, on [`DEVICE_TRACK`] — plus
/// `pipeline.*` counters in the tracer's metrics registry, among them
/// `pipeline.worker_spawns` and the `pipeline.in_flight_high_water` gauge ([`ArenaPool::worker_spawns`] /
/// [`ArenaPool::in_flight_high_water`] read the same untraced). Tracing
/// only observes: numerics are identical either way.
///
/// The pipeline is panic-safe: if the device worker dies mid-step (a real
/// panic or a channel disconnect, injectable via
/// [`PipelineConfig::fault_injection`]), the remaining subgroups degrade to
/// the CPU-only path, any lent-but-lost jobs are re-run on the CPU from
/// their still-unmodified host state once the worker is joined, and the
/// step completes byte-exact with [`PipelineReport::degraded`] set.
///
/// The FP16 output is a fresh buffer every call; [`hybrid_update_into`] is
/// the same step writing into a buffer kept across steps.
///
/// # Errors
///
/// Returns [`PipelineError`] if `grads.len() != state.len()` or if
/// `subgroups` do not tile `0..state.len()` contiguously. `state` is not
/// modified on error.
pub fn hybrid_update_pooled(
    state: &mut MixedPrecisionState,
    grads: &[f32],
    subgroups: &[SubgroupSpec],
    cfg: PipelineConfig,
    tracer: Option<&Tracer>,
    pool: &ArenaPool,
) -> Result<PipelineReport, PipelineError> {
    hybrid_update_into(state, grads, subgroups, cfg, tracer, pool, &mut None)
}

/// Takes the FP16 buffer out of `slot` when a step may overwrite it — it
/// holds `n` values and no report still shares it — and allocates a zeroed
/// one otherwise. The buffer returned is unshared either way.
pub fn take_fp16_buffer(slot: &mut Option<Arc<[F16]>>, n: usize) -> Arc<[F16]> {
    if let Some(mut buf) = slot.take() {
        if buf.len() == n && Arc::get_mut(&mut buf).is_some() {
            return buf;
        }
    }
    std::iter::repeat_n(F16::ZERO, n).collect()
}

/// [`hybrid_update_pooled`] writing its FP16 output into the buffer `out`
/// keeps across steps, as Alg. 1's `D_c` writes the model's persistent FP16
/// tensor in place.
///
/// The step writes into `out`'s buffer when it holds `state.len()` values
/// and no report still shares it, and into a fresh one otherwise
/// ([`take_fp16_buffer`]): a held report is never overwritten. On `Ok`,
/// `out` holds a clone of the report's [`PipelineReport::fp16_params`]; on
/// `Err` it is left as it was.
///
/// # Errors
///
/// Fails under the same conditions as [`hybrid_update_pooled`].
pub fn hybrid_update_into(
    state: &mut MixedPrecisionState,
    grads: &[f32],
    subgroups: &[SubgroupSpec],
    cfg: PipelineConfig,
    tracer: Option<&Tracer>,
    pool: &ArenaPool,
    out: &mut Option<Arc<[F16]>>,
) -> Result<PipelineReport, PipelineError> {
    if grads.len() != state.len() {
        return Err(PipelineError::GradientLengthMismatch {
            expected: state.len(),
            got: grads.len(),
        });
    }
    let mut cursor = 0;
    for sg in subgroups {
        if sg.start != cursor {
            return Err(PipelineError::SubgroupTiling {
                detail: format!(
                    "subgroups must tile the space contiguously: subgroup {} starts at {} but \
                     the previous one ended at {cursor}",
                    sg.id, sg.start
                ),
            });
        }
        cursor = sg.end;
    }
    if cursor != state.len() {
        return Err(PipelineError::SubgroupTiling {
            detail: format!(
                "subgroups must cover the space: tiled 0..{cursor} but the state holds {} params",
                state.len()
            ),
        });
    }

    // No hardware profile exists on this clock to solve Equation 1 on, so
    // `Auto` — and an `Adaptive` no tuner rewrote to `Fixed(k)` — run at
    // the paper's measured optimum.
    let stride = cfg.stride.resolve(|| Some(DEFAULT_STRIDE));
    let plan = UpdatePlan::new(subgroups.len(), cfg.static_residents, stride);

    state.begin_step();
    let step = state.step_count();
    let rule = state.rule();
    let lr = state.lr();

    let mut device_count = 0usize;
    let mut cpu_count = 0usize;
    let mut in_flight_peak = 0usize;
    let mut fp16 = take_fp16_buffer(out, state.len());
    // One borrow of the state, the gradients and the FP16 output (unshared,
    // so `make_mut` borrows it and never clones), cut once into every
    // subgroup's ranges: the CPU updates its own through them, the worker
    // borrows the device's.
    let ranges = split(state.parts_mut(), grads, Arc::make_mut(&mut fp16), subgroups);

    // The pool's parked worker, checked out for the step — unless the plan
    // ships nothing (`cpu_only`), which neither starts nor wakes one.
    let mut device = (plan.n_device() > 0).then(|| pool.device().check_out(tracer));

    // Local (CPU) update of one subgroup; also the degraded fallback
    // path when the device worker is gone. The rule and the FP32→FP16
    // downscale run as one pass over the subgroup, so its one span times
    // Eq. 1's whole CPU term, `1/U_c + 1/D_c`.
    let cpu_apply = |sg: &SubgroupSpec, r: Ranges<'_>| {
        let _span = stage_span(tracer, CPU_TRACK, "cpu", "update", sg, sg.len());
        rule.apply_downscale(step, lr, r.p, r.g, r.m, r.v, r.p16);
    };

    // The H2D side, now a hand-off: meters the lent bytes and describes the
    // job. The send that wakes the worker follows the span — like the wait
    // before a reclaim, it is scheduling, not transfer.
    let prefetch = |sg: &SubgroupSpec, seq: usize| {
        let bytes = LENT_BYTES_PER_PARAM * sg.len();
        let _span = stage_span(tracer, CPU_TRACK, "pcie.h2d", "prefetch", sg, bytes);
        if let Some(t) = tracer {
            t.metrics().inc_counter("pipeline.h2d.bytes", bytes as u64);
        }
        pool.lent(bytes);
        let fault = cfg.fault_injection;
        Job { sg: *sg, step, lr, rule, tracer: tracer.cloned(), fault, seq }
    };

    // The D2H side: reclaims what the worker has finished, in arrival
    // order, waiting while `limit` or more loans are out. `false` when that
    // wait finds the worker hung up (early return or unwinding alike). A
    // loss is noticed only here, where the step waits for the worker —
    // never by a poll or a send — so a degraded step lends the same
    // subgroups (those the worker finished and the window behind them)
    // under every interleaving.
    let flush = |lender: &mut Lender<'_, '_, Job>, limit: usize| loop {
        let i = match lender.reclaim(lender.out() >= limit) {
            Ok(Some(i)) => i,
            Ok(None) => return true,
            Err(lend::HungUp) => return false,
        };
        let bytes = LENT_BYTES_PER_PARAM * subgroups[i].len();
        let _span = stage_span(tracer, CPU_TRACK, "pcie.d2h", "flush", &subgroups[i], bytes);
        if let Some(t) = tracer {
            t.metrics().inc_counter("pipeline.d2h.bytes", bytes as u64);
        }
        pool.returned(bytes);
    };

    // Every k-th dynamic subgroup is lent to the device, and so is the
    // static-resident tail (conceptually already device-resident, so it
    // updates there without the stride's say) — unless the device is
    // gone, in which case everything falls back to the CPU. The lender's
    // scope ends only once every loan is back or the worker hung up; what
    // never came back returns as `lost`.
    let (hung_up, lost) = match device.as_mut() {
        None => {
            for (sg, r) in subgroups.iter().zip(ranges) {
                cpu_apply(sg, r);
                cpu_count += 1;
            }
            (false, Vec::new())
        }
        Some(worker) => worker.lending.scope(|lender| {
            let mut hung_up = false;
            for (i, (sg, r)) in subgroups.iter().zip(ranges).enumerate() {
                if !hung_up {
                    // Flush as you go (Alg. 1): what came back while the
                    // last subgroup ran is reclaimed now; only lending one
                    // more waits, for the double buffer to have room.
                    let ship = plan.on_device(i);
                    let limit = if ship { MAX_IN_FLIGHT } else { usize::MAX };
                    if !flush(lender, limit) {
                        hung_up = true;
                    } else if ship {
                        lender.lend(i, prefetch(sg, device_count), r);
                        device_count += 1;
                        in_flight_peak = in_flight_peak.max(lender.out());
                        continue;
                    }
                }
                cpu_apply(sg, r);
                cpu_count += 1;
            }
            // The step ends by counting loans back, not by joining a
            // thread: none out means it holds the last, and the worker parks.
            hung_up = hung_up || !flush(lender, 1);
            (hung_up, lender.recover())
        }),
    };
    // A worker that hung up is reaped: what it finished before dying is
    // back already, and the join — which contains a panic instead of
    // re-raising it — tells how it died. The next step that ships work
    // starts a new one.
    let lost_worker = if hung_up { device.take() } else { None };
    let in_flight_high_water = pool.device().check_in(device, in_flight_peak);
    let worker_lost = lost_worker.map(|worker| match worker.shutdown() {
        Err(payload) => format!("device worker panicked: {}", panic_message(payload)),
        Ok(()) => "device worker disconnected".to_string(),
    });

    // Re-run lent-but-lost jobs on the CPU, the worker joined. Faults fire
    // before a job touches its ranges, so they are untouched and the
    // result is byte-identical to what the device would have produced.
    for (i, r) in lost {
        cpu_apply(&subgroups[i], r);
        pool.returned(LENT_BYTES_PER_PARAM * subgroups[i].len());
        device_count -= 1;
        cpu_count += 1;
    }

    if let Some(t) = tracer {
        t.metrics().inc_counter("pipeline.device_subgroups", device_count as u64);
        t.metrics().inc_counter("pipeline.cpu_subgroups", cpu_count as u64);
        t.metrics().set_gauge("pipeline.in_flight_high_water", in_flight_high_water as f64);
        if worker_lost.is_some() {
            t.metrics().inc_counter("pipeline.degraded_steps", 1);
            // A `fault:` instant triggers the tracer's automatic
            // flight-recorder dump, shipping the last-N-events context of
            // the degradation alongside the counters.
            t.instant_at("faults", "fault:device-worker", "fault", t.now());
        }
    }

    *out = Some(Arc::clone(&fp16));
    Ok(PipelineReport {
        fp16_params: fp16,
        device_subgroups: device_count,
        cpu_subgroups: cpu_count,
        degraded: worker_lost.map(|reason| PipelineDegradation {
            reason,
            lost_jobs_retried_on_cpu: plan.n_device() - device_count,
        }),
    })
}

/// [`hybrid_update_pooled`] untraced and over a step-local [`ArenaPool`]:
/// the four-argument form the oracles, `dos-check` scenarios and property
/// tests call. The worker is step-local with the pool, joined when it
/// drops.
///
/// # Errors
///
/// Fails under the same conditions as [`hybrid_update_pooled`].
pub fn hybrid_update(
    state: &mut MixedPrecisionState,
    grads: &[f32],
    subgroups: &[SubgroupSpec],
    cfg: PipelineConfig,
) -> Result<PipelineReport, PipelineError> {
    hybrid_update_pooled(state, grads, subgroups, cfg, None, &ArenaPool::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dos_optim::UpdateRule;
    use dos_zero::partition_into_subgroups;

    fn setup(n: usize) -> (MixedPrecisionState, Vec<f32>) {
        let init: Vec<f32> = (0..n).map(|i| ((i * 13 + 5) % 31) as f32 / 31.0).collect();
        let grads: Vec<f32> = (0..n).map(|i| ((i * 7 + 1) % 29) as f32 / 29.0 - 0.5).collect();
        (MixedPrecisionState::new(init, UpdateRule::adam(), 0.01), grads)
    }

    fn reference(n: usize) -> (Vec<f32>, Vec<F16>) {
        let (mut state, grads) = setup(n);
        state.full_step(&grads);
        let p16 = state.downscale_range(0..n);
        (state.params().to_vec(), p16)
    }

    #[test]
    fn hybrid_matches_sequential_bitwise() {
        let n = 1000;
        let (expected_p, expected_16) = reference(n);
        let (mut state, grads) = setup(n);
        let sgs = partition_into_subgroups(n, 64);
        let report = hybrid_update(&mut state, &grads, &sgs, PipelineConfig::default()).unwrap();
        assert_eq!(state.params(), &expected_p[..]);
        assert_eq!(report.fp16_params[..], expected_16[..]);
        assert!(report.device_subgroups > 0);
        assert!(report.cpu_subgroups > 0);
        assert!(report.degraded.is_none());
    }

    #[test]
    fn all_strides_agree() {
        let n = 500;
        let (expected_p, expected_16) = reference(n);
        for (stride, residents) in [
            (StridePolicy::CpuOnly, 0),
            (StridePolicy::Fixed(1), 0),
            (StridePolicy::Fixed(2), 0),
            (StridePolicy::Fixed(3), 0),
            (StridePolicy::Fixed(7), 0),
            // All-device: every subgroup lent, the resident tail included.
            (StridePolicy::Fixed(1), 3),
        ] {
            let (mut state, grads) = setup(n);
            let sgs = partition_into_subgroups(n, 33);
            let cfg = PipelineConfig { stride, static_residents: residents, fault_injection: None };
            let report = hybrid_update(&mut state, &grads, &sgs, cfg).unwrap();
            assert_eq!(state.params(), &expected_p[..], "stride {stride:?} diverged");
            assert_eq!(report.fp16_params[..], expected_16[..], "stride {stride:?} fp16 diverged");
            if matches!(stride, StridePolicy::CpuOnly) {
                assert_eq!(report.device_subgroups, 0);
            }
            if matches!(stride, StridePolicy::Fixed(1)) {
                assert_eq!(report.cpu_subgroups, 0);
            }
        }
    }

    #[test]
    fn static_residents_update_on_device() {
        let n = 300;
        let (expected_p, _) = reference(n);
        let (mut state, grads) = setup(n);
        let sgs = partition_into_subgroups(n, 50);
        let cfg = PipelineConfig {
            stride: StridePolicy::CpuOnly,
            static_residents: 2,
            ..PipelineConfig::default()
        };
        let report = hybrid_update(&mut state, &grads, &sgs, cfg).unwrap();
        assert_eq!(report.device_subgroups, 2);
        assert_eq!(report.cpu_subgroups, 4);
        assert_eq!(state.params(), &expected_p[..]);
    }

    #[test]
    fn repeated_steps_track_sequential_trajectory() {
        let n = 200;
        let (mut seq, grads) = setup(n);
        let (mut hyb, _) = setup(n);
        let sgs = partition_into_subgroups(n, 17);
        for step in 0..5 {
            let g: Vec<f32> = grads.iter().map(|x| x * (step as f32 + 1.0)).collect();
            seq.full_step(&g);
            hybrid_update(&mut hyb, &g, &sgs, PipelineConfig::default()).unwrap();
        }
        assert_eq!(seq.params(), hyb.params());
        assert_eq!(seq.momentum(), hyb.momentum());
        assert_eq!(seq.variance(), hyb.variance());
    }

    #[test]
    fn traced_update_is_bitwise_identical_and_emits_both_tracks() {
        let n = 1000;
        let (expected_p, expected_16) = reference(n);
        let (mut state, grads) = setup(n);
        let sgs = partition_into_subgroups(n, 64);
        let (tracer, cfg) = (Tracer::new(), PipelineConfig::default());
        let report =
            hybrid_update_pooled(&mut state, &grads, &sgs, cfg, Some(&tracer), &ArenaPool::new())
                .unwrap();
        assert_eq!(state.params(), &expected_p[..]);
        assert_eq!(report.fp16_params[..], expected_16[..]);

        let events = tracer.events();
        let on = |track: &str, prefix: &str| {
            events.iter().filter(|e| e.track == track && e.name.starts_with(prefix)).count()
        };
        // CPU track: prefetch per lent subgroup, one fused update per
        // local one, flush per reclaim.
        assert_eq!(on(super::CPU_TRACK, "prefetch:sg"), report.device_subgroups);
        assert_eq!(on(super::CPU_TRACK, "update:sg"), report.cpu_subgroups);
        assert_eq!(on(super::CPU_TRACK, "flush:sg"), report.device_subgroups);
        // Device-worker track: one fused update per shipped subgroup.
        assert_eq!(on(super::DEVICE_TRACK, "update:sg"), report.device_subgroups);
        assert_eq!(on(super::DEVICE_TRACK, "flush:sg"), 0);
        // The downscale is inside the update: no span of its own anywhere.
        assert!(events.iter().all(|e| !e.name.starts_with("downscale:sg")));
        assert_eq!(
            events.len(),
            report.cpu_subgroups + 3 * report.device_subgroups,
            "update per subgroup, prefetch + flush per shipped one"
        );
        // All wall-clock spans carry the update phase and real durations.
        assert!(events.iter().all(|e| e.phase == "update" && e.dur >= 0.0));
        // Byte counters rode along in the metrics registry.
        assert!(tracer.metrics().counter("pipeline.h2d.bytes") > 0);
        assert!(tracer.metrics().counter("pipeline.d2h.bytes") > 0);
        assert_eq!(
            tracer.metrics().counter("pipeline.device_subgroups"),
            report.device_subgroups as u64
        );
    }

    #[test]
    fn incomplete_subgroups_rejected_with_typed_error() {
        let (mut state, grads) = setup(100);
        let before = state.params().to_vec();
        let sgs = partition_into_subgroups(90, 30);
        let err = hybrid_update(&mut state, &grads, &sgs, PipelineConfig::default()).unwrap_err();
        match &err {
            PipelineError::SubgroupTiling { detail } => {
                assert!(detail.contains("cover the space"), "unexpected detail: {detail}")
            }
            other => panic!("expected SubgroupTiling, got {other:?}"),
        }
        // Failed preconditions leave the state untouched.
        assert_eq!(state.params(), &before[..]);
    }

    #[test]
    fn mismatched_gradients_rejected_with_typed_error() {
        let (mut state, _) = setup(100);
        let sgs = partition_into_subgroups(100, 25);
        let short = vec![0.0f32; 60];
        let err = hybrid_update(&mut state, &short, &sgs, PipelineConfig::default()).unwrap_err();
        assert_eq!(err, PipelineError::GradientLengthMismatch { expected: 100, got: 60 });
    }

    /// Every kill point of both fault kinds must leave the step byte-exact
    /// with the sequential reference and report the degradation honestly.
    #[test]
    fn worker_loss_degrades_to_cpu_byte_exact() {
        let n = 600;
        let (expected_p, expected_16) = reference(n);
        let sgs = partition_into_subgroups(n, 40); // 15 subgroups, ~7 shipped
        for kill_after in [0usize, 1, 3, 6] {
            for fault in
                [DeviceFault::PanicAfter(kill_after), DeviceFault::DisconnectAfter(kill_after)]
            {
                let (mut state, grads) = setup(n);
                let cfg = PipelineConfig { fault_injection: Some(fault), ..Default::default() };
                let report = hybrid_update(&mut state, &grads, &sgs, cfg).unwrap();
                assert_eq!(state.params(), &expected_p[..], "{fault:?} diverged");
                assert_eq!(report.fp16_params[..], expected_16[..], "{fault:?} fp16 diverged");
                let deg = report.degraded.expect("worker loss must be reported");
                assert!(deg.lost_jobs_retried_on_cpu > 0, "{fault:?} lost nothing?");
                if matches!(fault, DeviceFault::PanicAfter(_)) {
                    assert!(deg.reason.contains("panicked"), "reason: {}", deg.reason);
                }
                // Jobs completed before the kill point stay on the device
                // side of the ledger; everything still sums to the tiling.
                assert_eq!(report.device_subgroups, kill_after);
                assert_eq!(report.device_subgroups + report.cpu_subgroups, sgs.len());
            }
        }
    }

    #[test]
    fn worker_loss_with_residents_still_matches_reference() {
        let n = 400;
        let (expected_p, _) = reference(n);
        let (mut state, grads) = setup(n);
        let sgs = partition_into_subgroups(n, 40);
        let cfg = PipelineConfig {
            stride: StridePolicy::Fixed(2),
            static_residents: 3,
            fault_injection: Some(DeviceFault::DisconnectAfter(1)),
        };
        let report = hybrid_update(&mut state, &grads, &sgs, cfg).unwrap();
        assert_eq!(state.params(), &expected_p[..]);
        assert!(report.degraded.is_some());
        assert_eq!(report.device_subgroups + report.cpu_subgroups, sgs.len());
    }

    #[test]
    fn degraded_traced_step_keeps_span_accounting_consistent() {
        let n = 500;
        let (mut state, grads) = setup(n);
        let sgs = partition_into_subgroups(n, 50);
        let tracer = Tracer::new();
        let cfg = PipelineConfig {
            fault_injection: Some(DeviceFault::PanicAfter(2)),
            ..Default::default()
        };
        let report =
            hybrid_update_pooled(&mut state, &grads, &sgs, cfg, Some(&tracer), &ArenaPool::new())
                .unwrap();
        assert!(report.degraded.is_some());
        let events = tracer.events();
        let on = |track: &str, prefix: &str| {
            events.iter().filter(|e| e.track == track && e.name.starts_with(prefix)).count()
        };
        // Reclaims happened only for jobs the worker finished; CPU
        // updates cover the rest (locals + lost retries).
        assert_eq!(on(super::CPU_TRACK, "flush:sg"), report.device_subgroups);
        assert_eq!(on(super::CPU_TRACK, "update:sg"), report.cpu_subgroups);
        assert_eq!(on(super::DEVICE_TRACK, "update:sg"), report.device_subgroups);
        assert!(events.iter().all(|e| !e.name.starts_with("downscale:sg")));
        assert_eq!(on(super::DEVICE_TRACK, "flush:sg"), 0);
        assert_eq!(tracer.metrics().counter("pipeline.degraded_steps"), 1);
        // The loss is noticed only where the step waits for the worker, so
        // what was lent is the same under every interleaving: the jobs the
        // worker finished and the window that filled up behind them.
        assert_eq!(on(super::CPU_TRACK, "prefetch:sg"), 2 + MAX_IN_FLIGHT);
        assert_eq!(report.degraded.unwrap().lost_jobs_retried_on_cpu, 5 - 2);
    }

    #[test]
    fn pooled_steps_stage_nothing_and_stay_bitwise_exact() {
        let n = 1000;
        let (mut seq, grads) = setup(n);
        let (mut hyb, _) = setup(n);
        let sgs = partition_into_subgroups(n, 64);
        let pool = ArenaPool::new();
        for _ in 0..4 {
            seq.full_step(&grads);
            hybrid_update_pooled(&mut hyb, &grads, &sgs, PipelineConfig::default(), None, &pool)
                .unwrap();
            // Every lent range came back with its step.
            assert_eq!(pool.in_use_bytes(), 0);
        }
        assert_eq!(seq.params(), hyb.params());
        assert_eq!(seq.momentum(), hyb.momentum());
        assert_eq!(seq.variance(), hyb.variance());
        // The device updates in place: no buffer is leased, fresh or recycled...
        assert_eq!((pool.allocation_misses(), pool.reuse_hits()), (0, 0));
        // ...but the meter still reads the two-deep window of lent subgroups.
        assert_eq!(pool.high_water_bytes(), MAX_IN_FLIGHT * LENT_BYTES_PER_PARAM * 64);
    }

    #[test]
    fn one_parked_worker_serves_every_step_and_none_serves_cpu_only() {
        let n = 1000;
        let (mut seq, grads) = setup(n);
        let (mut hyb, _) = setup(n);
        let sgs = partition_into_subgroups(n, 64);
        let pool = ArenaPool::new();
        let cpu_only = PipelineConfig { stride: StridePolicy::CpuOnly, ..Default::default() };
        for cfg in [cpu_only; 3].into_iter().chain([PipelineConfig::default(); 20]) {
            // A plan that ships nothing neither starts nor wakes a worker.
            let before = pool.worker_spawns();
            seq.full_step(&grads);
            hybrid_update_pooled(&mut hyb, &grads, &sgs, cfg, None, &pool).unwrap();
            assert_eq!(pool.in_use_bytes(), 0, "the step's last reclaim returns its last loan");
            if matches!(cfg.stride, StridePolicy::CpuOnly) {
                assert_eq!((before, pool.worker_spawns()), (0, 0));
            }
        }
        assert_eq!(seq.params(), hyb.params());
        assert_eq!(pool.worker_spawns(), 1, "started by the first step that ships, then parked");
        // The double buffer: never more than two subgroups lent, so the
        // meter never reads more than their 2 × 18 B/param.
        assert!((1..=MAX_IN_FLIGHT).contains(&pool.in_flight_high_water()));
        assert!(pool.high_water_bytes() <= MAX_IN_FLIGHT * 64 * LENT_BYTES_PER_PARAM);
    }

    #[test]
    fn lost_worker_is_replaced_by_the_next_step_that_ships_work() {
        let n = 600;
        let (mut seq, grads) = setup(n);
        let (mut hyb, _) = setup(n);
        let sgs = partition_into_subgroups(n, 40);
        let pool = ArenaPool::new();
        let steps = [
            (Some(DeviceFault::PanicAfter(1)), StridePolicy::Auto, 1),
            // The worker is gone, and a plan without device work leaves it so.
            (None, StridePolicy::CpuOnly, 1),
            (None, StridePolicy::Auto, 2),
            (Some(DeviceFault::DisconnectAfter(0)), StridePolicy::Auto, 2),
            (None, StridePolicy::Auto, 3),
        ];
        for (fault_injection, stride, spawns) in steps {
            seq.full_step(&grads);
            let cfg = PipelineConfig { stride, static_residents: 0, fault_injection };
            let report = hybrid_update_pooled(&mut hyb, &grads, &sgs, cfg, None, &pool).unwrap();
            assert_eq!(report.degraded.is_some(), fault_injection.is_some(), "{cfg:?}");
            assert_eq!(hyb.params(), seq.params(), "{cfg:?}");
            assert_eq!(report.fp16_params[..], seq.downscale_range(0..n)[..], "{cfg:?}");
            assert_eq!(pool.worker_spawns(), spawns, "{cfg:?}");
            assert_eq!(pool.in_use_bytes(), 0, "{cfg:?}");
        }
    }

    #[test]
    fn traced_and_untraced_steps_alternate_over_one_worker() {
        let n = 1000;
        let (mut state, grads) = setup(n);
        let sgs = partition_into_subgroups(n, 64);
        let (pool, tracer) = (ArenaPool::new(), Tracer::new());
        let mut traced_device_subgroups = 0;
        for step in 0..5 {
            let t = (step % 2 == 0).then_some(&tracer); // first and last traced
            let report =
                hybrid_update_pooled(&mut state, &grads, &sgs, PipelineConfig::default(), t, &pool)
                    .unwrap();
            if t.is_some() {
                traced_device_subgroups += report.device_subgroups;
            }
            // Device spans — one fused update per job — land in the tracer
            // of the step that shipped the job, and are all there when that
            // step returns.
            let events = tracer.events();
            let on_device = events.iter().filter(|e| e.track == super::DEVICE_TRACK);
            assert!(on_device.clone().all(|e| e.name.starts_with("update:sg")));
            assert_eq!(on_device.count(), traced_device_subgroups, "after step {step}");
        }
        assert_eq!(pool.worker_spawns(), 1);
        assert_eq!(tracer.metrics().counter("pipeline.worker_spawns"), 1);
        assert_eq!(
            tracer.metrics().gauge("pipeline.in_flight_high_water"),
            Some(pool.in_flight_high_water() as f64)
        );
    }

    #[test]
    fn output_slot_is_written_in_place_only_when_unshared() {
        let n = 600;
        let (mut seq, grads) = setup(n);
        let (mut hyb, _) = setup(n);
        let sgs = partition_into_subgroups(n, 40);
        let (pool, cfg, mut out) = (ArenaPool::new(), PipelineConfig::default(), None);
        let addr = |b: &Arc<[F16]>| Arc::as_ptr(b).cast::<F16>();
        let mut step = |out: &mut Option<Arc<[F16]>>| {
            seq.full_step(&grads);
            let r = hybrid_update_into(&mut hyb, &grads, &sgs, cfg, None, &pool, out).unwrap();
            assert_eq!(r.fp16_params[..], seq.downscale_range(0..n)[..]);
            (r.fp16_params, seq.downscale_range(0..n))
        };
        let (held, twin) = step(&mut out);
        // `held` shares the slot's buffer, so the next step writes elsewhere.
        let (next, _) = step(&mut out);
        assert_ne!(addr(&next), addr(&held));
        assert_eq!(held[..], twin[..], "a held report never changes");
        let buffer = addr(&next);
        drop(next);
        assert_eq!(addr(&step(&mut out).0), buffer, "an unshared buffer is reused");
        // A rejected step leaves the slot as it was.
        let short = vec![0.0; n - 1];
        assert!(hybrid_update_into(&mut hyb, &short, &sgs, cfg, None, &pool, &mut out).is_err());
        assert_eq!(out.as_ref().map(addr), Some(buffer));
    }

    #[test]
    fn pooled_degraded_step_returns_all_leases() {
        let n = 600;
        let (expected_p, _) = reference(n);
        let (mut state, grads) = setup(n);
        let sgs = partition_into_subgroups(n, 40);
        let pool = ArenaPool::new();
        let cfg = PipelineConfig {
            fault_injection: Some(DeviceFault::PanicAfter(2)),
            ..Default::default()
        };
        let report = hybrid_update_pooled(&mut state, &grads, &sgs, cfg, None, &pool).unwrap();
        assert!(report.degraded.is_some());
        assert_eq!(state.params(), &expected_p[..]);
        assert_eq!(pool.in_use_bytes(), 0, "worker loss must not leak lent bytes");
    }
}

#[cfg(all(test, feature = "check"))]
mod check_tests {
    use crate::sync::sched::{run_with_scheduler, PendingOp, Pick, Tid};
    use crate::{hybrid_update, PipelineConfig};
    use dos_optim::{MixedPrecisionState, UpdateRule};
    use dos_zero::partition_into_subgroups;

    #[test]
    fn hybrid_update_matches_sequential_under_default_and_reversed_schedules() {
        let n = 48;
        let init: Vec<f32> = (0..n).map(|i| ((i * 13 + 5) % 31) as f32 / 31.0).collect();
        let grads: Vec<f32> = (0..n).map(|i| ((i * 7 + 1) % 29) as f32 / 29.0 - 0.5).collect();
        let mut seq = MixedPrecisionState::new(init.clone(), UpdateRule::adam(), 0.01);
        seq.full_step(&grads);
        let expected = seq.params().to_vec();

        for reversed in [false, true] {
            let init = init.clone();
            let grads = grads.clone();
            let outcome = run_with_scheduler(
                move || {
                    let mut state = MixedPrecisionState::new(init, UpdateRule::adam(), 0.01);
                    let sgs = partition_into_subgroups(n, 8);
                    let report =
                        hybrid_update(&mut state, &grads, &sgs, PipelineConfig::default())
                            .unwrap();
                    (state.params().to_vec(), report.device_subgroups)
                },
                |_, enabled: &[(Tid, PendingOp)]| {
                    let idx = if reversed { enabled.len() - 1 } else { 0 };
                    Pick::Run(enabled[idx].0)
                },
                100_000,
            );
            assert!(outcome.error.is_none(), "teardown: {:?}", outcome.error);
            let (params, on_device) = outcome.result.unwrap();
            assert_eq!(params, expected, "reversed={reversed} diverged");
            assert!(on_device > 0);
        }
    }
}
