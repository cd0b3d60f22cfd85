//! One trial: what a child process does from its first instruction to its
//! result line — set-up, verified warm-up, then the closed loop.
//!
//! Closed loop, one caller: the next operation starts when the previous one
//! has returned. The program's own threads (a device worker per step, two
//! ranks in `train_dp2`) are the only others; the harness adds none. After
//! every chunk of operations the caller runs one burst of the reference
//! kernel, so each window carries the host's speed at that moment.

use std::time::{Duration, Instant};

use dos::data::TokenDataset;
use dos::runtime::{train_functional, FunctionalConfig};
use dos::train::Trainer;
use serde::{Deserialize, Serialize};

use crate::check::{check_against_twin, check_step_report, check_train_report, StepDigest};
use crate::inputs::{digest_combine, grad_stream, init_stream};
use crate::refkernel::{RefKernel, Regime};
use crate::stats::{median, tail_percentile};
use crate::sys;
use crate::window::{fold, Chunk, Window};
use crate::workloads::{train_config, train_dataset, Workload, MIN_CHUNK_SECS, TRAIN_ITERS};

/// Target wall length of a window.
pub const WINDOW_SECS: f64 = 1.0;

/// What the parent tells a child.
#[derive(Debug, Clone)]
pub struct TrialArgs {
    /// The workload to run.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// Wall seconds, from the child's start, after which it must have
    /// printed its result.
    pub budget_secs: f64,
    /// The sequential twin's digests, one per warm-up step (`step_*`).
    pub twin: Vec<StepDigest>,
    /// Whether to run the per-layer replay after measuring.
    pub traced: bool,
}

/// Distribution of single-operation wall times in a trial.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpWall {
    /// The fastest operation, milliseconds.
    pub fastest_ms: f64,
    /// Median, milliseconds.
    pub median_ms: f64,
    /// The tail percentile's value, milliseconds.
    pub tail_ms: f64,
    /// Which percentile that is: the highest with ten samples beyond it.
    pub tail_pct: u32,
    /// Number of timed operations.
    pub samples: u64,
}

/// What a child reports on its last line of standard output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialResult {
    /// Operations attempted, warm-up included.
    pub attempted: u64,
    /// Operations or checks that failed.
    pub failed: u64,
    /// What failed first, if anything did.
    pub failure: Option<String>,
    /// CPU-seconds (user + system, all threads) from process start to the
    /// first timed operation.
    pub setup_cpu_s: f64,
    /// The same interval on the wall clock.
    pub setup_wall_s: f64,
    /// The child's `VmHWM` less the reference kernel's lanes, MiB.
    pub peak_rss_mib: f64,
    /// Digest of the verified outputs, in hex; the same for every trial of
    /// a run.
    pub digest: String,
    /// The measured windows.
    pub windows: Vec<Window>,
    /// Single-operation wall times.
    pub op_wall: Option<OpWall>,
    /// Per-layer metrics, `(name, value)`, from the traced pass.
    pub layers: Vec<(String, f64)>,
}

/// A workload after set-up: everything an operation needs.
pub enum Prepared {
    /// A `step_*` workload.
    Step {
        /// The trainer under test.
        trainer: Box<Trainer>,
        /// The gradient vector every step receives.
        grads: Vec<f32>,
    },
    /// `train_dp2`.
    Train {
        /// The run configuration.
        cfg: Box<FunctionalConfig>,
        /// The packed dataset.
        dataset: TokenDataset,
        /// The output digest every call must reproduce.
        digest: u64,
        /// The final loss every call must reproduce.
        final_loss: f32,
    },
}

impl Prepared {
    /// Runs one operation and checks its output.
    ///
    /// # Errors
    ///
    /// Returns what was wrong with the operation.
    pub fn op(&mut self) -> Result<(), String> {
        match self {
            Prepared::Step { trainer, grads } => {
                check_step_report(trainer.step(grads), grads.len()).map(drop)
            }
            Prepared::Train {
                cfg,
                dataset,
                digest,
                ..
            } => {
                let report = train_functional(cfg, dataset, TRAIN_ITERS)
                    .map_err(|e| format!("train_functional failed: {e}"))?;
                let got = check_train_report(&report)?;
                if got != *digest {
                    return Err(format!(
                        "call output {got:x} differs from the first call's {digest:x}"
                    ));
                }
                Ok(())
            }
        }
    }
}

/// Set-up and verified warm-up. Returns the prepared workload, the number of
/// warm-up operations it ran and the digest of their outputs.
///
/// # Errors
///
/// Returns the first failed check.
pub fn prepare(args: &TrialArgs) -> Result<(Prepared, u64, u64), String> {
    match args.workload.step_shape() {
        Some(shape) => {
            if args.twin.is_empty() {
                return Err("no twin digests given".into());
            }
            let grads = grad_stream(args.seed, shape.params);
            let init = init_stream(args.seed, shape.params);
            let mut trainer = Trainer::from_json(&shape.trainer_json(), init)
                .map_err(|e| format!("Trainer::from_json failed: {e}"))?;
            let mut parts = Vec::new();
            for want in &args.twin {
                let report = check_step_report(trainer.step(&grads), shape.params)?;
                check_against_twin(want, &trainer, &report)?;
                parts.extend([want.params, want.momentum, want.variance, want.fp16]);
            }
            let warmups = args.twin.len() as u64;
            Ok((
                Prepared::Step {
                    trainer: Box::new(trainer),
                    grads,
                },
                warmups,
                digest_combine(&parts),
            ))
        }
        None => {
            let dataset = train_dataset(args.seed);
            let cfg = train_config(args.seed);
            let report = train_functional(&cfg, &dataset, TRAIN_ITERS)
                .map_err(|e| format!("train_functional failed: {e}"))?;
            let digest = check_train_report(&report)?;
            let final_loss = report.losses[TRAIN_ITERS - 1];
            Ok((
                Prepared::Train {
                    cfg: Box::new(cfg),
                    dataset,
                    digest,
                    final_loss,
                },
                1,
                digest,
            ))
        }
    }
}

/// The closed loop: chunks of operations, each followed by a reference
/// burst, until `deadline`. Returns the chunks, the single-operation wall
/// times in seconds, and the first failure if an operation failed.
pub fn measure(
    prepared: &mut Prepared,
    work_per_op: u64,
    regime: Regime,
    deadline: Instant,
) -> (Vec<Chunk>, Vec<f64>, Option<String>) {
    let mut kernel = RefKernel::new(regime);
    kernel.burst(); // the kernel's own warm-up
    let mut chunks = Vec::new();
    let mut op_walls = Vec::new();
    loop {
        let chunk_start = Instant::now();
        let cpu0 = sys::process_cpu_secs();
        let mut ops = 0u64;
        let mut failure = None;
        let mut last_op;
        loop {
            let t = Instant::now();
            let outcome = prepared.op();
            last_op = t.elapsed().as_secs_f64();
            if let Err(e) = outcome {
                failure = Some(e);
                break;
            }
            op_walls.push(last_op);
            ops += 1;
            let now = Instant::now();
            if (now - chunk_start).as_secs_f64() >= MIN_CHUNK_SECS
                || now + Duration::from_secs_f64(last_op) > deadline
            {
                break;
            }
        }
        let op_cpu = sys::process_cpu_secs() - cpu0;
        let op_wall = chunk_start.elapsed().as_secs_f64();
        if failure.is_some() {
            return (chunks, op_walls, failure);
        }
        let (ref_nominal, ref_cpu) = kernel.burst();
        chunks.push(Chunk {
            work: ops * work_per_op,
            ops,
            op_cpu,
            op_wall,
            ref_nominal,
            ref_cpu,
            wall: chunk_start.elapsed().as_secs_f64(),
        });
        // Stop when one more operation would not fit.
        if Instant::now() + Duration::from_secs_f64(last_op) > deadline {
            return (chunks, op_walls, None);
        }
    }
}

/// Summarises single-operation wall times (seconds) for the result line.
pub fn summarise_ops(op_walls: &[f64]) -> Option<OpWall> {
    if op_walls.is_empty() {
        return None;
    }
    let (tail_pct, tail) = tail_percentile(op_walls);
    Some(OpWall {
        fastest_ms: op_walls.iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
        median_ms: median(op_walls) * 1e3,
        tail_ms: tail * 1e3,
        tail_pct,
        samples: op_walls.len() as u64,
    })
}

/// Runs a whole trial in this process. `started` is when the process began;
/// the caller passes the earliest instant it could take.
pub fn run(args: &TrialArgs, started: Instant) -> TrialResult {
    // Leave time after the loop for tearing the state down and printing.
    let teardown = if args
        .workload
        .step_shape()
        .is_some_and(|s| s.params > 1 << 22)
    {
        0.35
    } else {
        0.15
    };
    let end = started + Duration::from_secs_f64((args.budget_secs - teardown).max(0.5));
    let mut result = TrialResult {
        attempted: 0,
        failed: 0,
        failure: None,
        setup_cpu_s: 0.0,
        setup_wall_s: 0.0,
        peak_rss_mib: 0.0,
        digest: String::new(),
        windows: Vec::new(),
        op_wall: None,
        layers: Vec::new(),
    };
    let prepared = prepare(args);
    result.setup_cpu_s = sys::process_cpu_secs();
    result.setup_wall_s = started.elapsed().as_secs_f64();
    let (mut prepared, warmups, digest) = match prepared {
        Ok(p) => p,
        Err(e) => {
            result.attempted = 1;
            result.failed = 1;
            result.failure = Some(e);
            return result;
        }
    };
    result.attempted = warmups;
    result.digest = format!("{digest:x}");

    // The traced pass measures for a shorter time and replays the layers in
    // the rest of its budget.
    let measure_until = if args.traced {
        let left = end.saturating_duration_since(Instant::now()).as_secs_f64();
        Instant::now() + Duration::from_secs_f64(left * 0.35)
    } else {
        end
    };
    // The reference kernel's lanes are the instrument's memory, not the
    // program's. They exist only while the loop runs, so the program's peak
    // is the larger of the peak before the loop and the peak after it less
    // the lanes.
    let regime = args.workload.ref_regime();
    let peak_before = sys::peak_rss_mib().unwrap_or(0.0);
    let (chunks, op_walls, failure) = measure(
        &mut prepared,
        args.workload.work_per_op(),
        regime,
        measure_until,
    );
    // Read before anything else runs in this process.
    let peak_after = sys::peak_rss_mib().unwrap_or(0.0);
    result.peak_rss_mib = peak_before.max(peak_after - regime.resident_mib());
    result.attempted += op_walls.len() as u64 + u64::from(failure.is_some());
    if let Some(e) = failure {
        result.failed += 1;
        result.failure = Some(e);
    }
    result.windows = fold(&chunks, WINDOW_SECS);
    result.op_wall = summarise_ops(&op_walls);

    if args.traced && result.failed == 0 {
        match crate::layers::replay(args, &mut prepared, &result, end) {
            Ok(layers) => result.layers = layers,
            Err(e) => {
                result.failed += 1;
                result.failure = Some(e);
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::twin_digests;
    use crate::workloads::StepShape;

    fn tiny_step(seed: u64) -> Prepared {
        let shape = StepShape {
            params: 4096,
            subgroup: 256,
            interleaved: true,
        };
        let trainer =
            Trainer::from_json(&shape.trainer_json(), init_stream(seed, shape.params)).unwrap();
        Prepared::Step {
            trainer: Box::new(trainer),
            grads: grad_stream(seed, shape.params),
        }
    }

    #[test]
    fn the_loop_stops_at_its_deadline_and_counts_its_work() {
        let mut prepared = tiny_step(1);
        let t = Instant::now();
        let (chunks, op_walls, failure) = measure(
            &mut prepared,
            4096,
            Regime::Cache,
            Instant::now() + Duration::from_millis(300),
        );
        assert!(failure.is_none());
        assert!(
            t.elapsed() < Duration::from_millis(600),
            "{:?}",
            t.elapsed()
        );
        assert!(!chunks.is_empty());
        let ops: u64 = chunks.iter().map(|c| c.ops).sum();
        assert_eq!(ops as usize, op_walls.len());
        assert_eq!(chunks.iter().map(|c| c.work).sum::<u64>(), ops * 4096);
        for c in &chunks {
            assert!(c.op_cpu > 0.0 && c.ref_cpu > 0.0 && c.ref_nominal > 0.0);
            assert!(c.wall >= c.op_wall);
        }
        let windows = fold(&chunks, 0.1);
        assert!(windows
            .iter()
            .all(|w| w.value().is_finite() && w.value() > 0.0));
    }

    #[test]
    fn a_failing_operation_ends_the_loop_with_its_reason() {
        let mut prepared = tiny_step(1);
        if let Prepared::Step { grads, .. } = &mut prepared {
            grads.pop(); // wrong length: every step is an Err
        }
        let (chunks, op_walls, failure) = measure(
            &mut prepared,
            4096,
            Regime::Cache,
            Instant::now() + Duration::from_millis(200),
        );
        assert!(chunks.is_empty() && op_walls.is_empty());
        assert!(failure.unwrap().starts_with("step failed"));
    }

    #[test]
    fn a_wrong_twin_fails_the_trial_before_any_timing() {
        let args = TrialArgs {
            workload: Workload::StepCache,
            seed: 5,
            budget_secs: 1.0,
            twin: twin_digests(&Workload::StepCache.step_shape().unwrap(), 6),
            traced: false,
        };
        let result = run(&args, Instant::now());
        assert_eq!((result.attempted, result.failed), (1, 1));
        assert!(result
            .failure
            .unwrap()
            .contains("differ from the sequential twin"));
        assert!(result.windows.is_empty());
    }

    #[test]
    fn a_short_trial_of_the_cache_workload_passes_and_round_trips() {
        let shape = Workload::StepCache.step_shape().unwrap();
        let args = TrialArgs {
            workload: Workload::StepCache,
            seed: 5,
            budget_secs: 1.2,
            twin: twin_digests(&shape, 5),
            traced: false,
        };
        let result = run(&args, Instant::now());
        assert_eq!(result.failed, 0, "{:?}", result.failure);
        assert!(result.attempted > 3);
        assert!(!result.windows.is_empty());
        assert!(result.setup_cpu_s > 0.0 && result.peak_rss_mib > 0.0);
        let text = serde_json::to_string(&result).unwrap();
        let back: TrialResult = serde_json::from_str(&text).unwrap();
        assert_eq!(back, result);
    }
}
