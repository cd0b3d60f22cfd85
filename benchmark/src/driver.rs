//! The parent: one invocation of the benchmark.
//!
//! It runs the sequential twin once, then the trials, each a fresh child
//! process, one after another, and folds their results into the result line.
//! The whole invocation — twin, children, set-ups, warm-ups — ends inside the
//! wall budget it was given. Every child is killed and waited for on every
//! way out: normal exit, overrun, failed check, panic, signal.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use serde::Value;

use crate::check::twin_digests;
use crate::layers::OUT_DIR;
use crate::schema::{self, MetricDef};
use crate::stats::median;
use crate::sys;
use crate::trial::TrialResult;
use crate::window::pooled;
use crate::workloads::Workload;

/// Trials in one untraced run.
pub const TRIALS: usize = 3;

/// How long past its budget a child may run before the parent kills it and
/// the run fails. A child paces itself against its budget (the closed loop
/// stops when one more operation would not fit, the traced pass checks the
/// clock before every layer and inside every counted loop), so this only
/// covers tearing down a few hundred MB on a contended host and bounds a
/// hang: an invocation ends within `--seconds` plus this.
const GRACE_SECS: f64 = 3.0;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// The workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// Wall budget of the whole invocation, seconds.
    pub seconds: f64,
    /// Per-layer pass (`--trace 1`) instead of the end-to-end pass.
    pub traced: bool,
    /// Trials of the end-to-end pass.
    pub trials: usize,
    /// When the invocation started (the wrapper script's start, if it
    /// passed one).
    pub started: Instant,
}

/// One metric of a finished run.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// The contract's definition.
    pub def: &'static MetricDef,
    /// The run's value.
    pub value: f64,
    /// The per-trial values behind it (empty for the per-layer pass).
    pub trials: Vec<f64>,
}

/// A finished run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Operations attempted over all trials.
    pub attempted: u64,
    /// Operations or checks that failed.
    pub failed: u64,
    /// The first failure's description.
    pub failure: Option<String>,
    /// Every metric of the pass, in contract order.
    pub metrics: Vec<Measured>,
}

impl RunOutcome {
    /// Whether every output was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The outcome as a value tree with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`; `with_trials` adds each metric's
    /// per-trial values (the result files keep them, the result line does
    /// not).
    pub fn to_value(&self, with_trials: bool) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".to_string(), Value::Float(m.value)),
                    ("unit".to_string(), Value::Str(m.def.unit.to_string())),
                ];
                if with_trials && !m.trials.is_empty() {
                    let trials = m.trials.iter().map(|t| Value::Float(*t)).collect();
                    fields.push(("trials".to_string(), Value::Seq(trials)));
                }
                (m.def.name.to_string(), Value::Map(fields))
            })
            .collect();
        Value::Map(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            (
                "attempted".to_string(),
                Value::Int(self.attempted.max(1) as i64),
            ),
            ("failed".to_string(), Value::Int(self.failed as i64)),
            ("metrics".to_string(), Value::Map(metrics)),
        ])
    }

    /// The result line the driver reads.
    pub fn result_line(&self) -> String {
        serde_json::to_string(&self.to_value(false))
            .expect("the in-tree serializer does not fail on a value tree")
    }
}

/// Kills and reaps its child when dropped, so no exit path leaves one behind.
struct ChildGuard(Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        // Errors mean the child is already gone; `Drop` must not panic.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Path of the binary a trial runs in: this executable, or its sibling with
/// the counting allocator for the traced pass.
fn child_exe(traced: bool) -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    if !traced {
        return Ok(me);
    }
    let sibling = me.with_file_name("dos-benchmark-traced");
    if sibling.is_file() {
        Ok(sibling)
    } else {
        Err(format!("{} is not built", sibling.display()))
    }
}

/// Runs one child to completion within `budget_secs` (plus grace) and parses
/// its result line.
fn run_child(
    args: &BenchArgs,
    twin: &str,
    budget_secs: f64,
    detail: &mut String,
) -> Result<TrialResult, String> {
    let mut cmd = Command::new(child_exe(args.traced)?);
    cmd.arg("child")
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--budget-s", &format!("{budget_secs:.3}")])
        .args(["--twin", twin])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    let spawned = Instant::now();
    let mut guard = ChildGuard(cmd.spawn().map_err(|e| format!("spawn child: {e}"))?);
    let kill_at = spawned + Duration::from_secs_f64(budget_secs + GRACE_SECS);
    let status = loop {
        if sys::terminated() {
            return Err("terminated by a signal".into());
        }
        match guard
            .0
            .try_wait()
            .map_err(|e| format!("wait for child: {e}"))?
        {
            Some(status) => break status,
            None if Instant::now() > kill_at => {
                return Err(format!(
                    "child overran its {budget_secs:.1} s budget and was killed"
                ))
            }
            // The child's result is far smaller than a pipe buffer, so it
            // never blocks on a parent that reads only after it exited.
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let mut text = String::new();
    if let Some(mut out) = guard.0.stdout.take() {
        out.read_to_string(&mut text)
            .map_err(|e| format!("read child output: {e}"))?;
    }
    let last = text.lines().last().unwrap_or("");
    match serde_json::from_str::<TrialResult>(last) {
        Ok(result) => {
            detail.push_str(last);
            detail.push('\n');
            Ok(result)
        }
        Err(e) => Err(format!(
            "child exited with {status} and no result line ({e})"
        )),
    }
}

/// Where the trials of one invocation leave their raw results (windows,
/// single-operation times, set-up, peak), one JSON object per line. The file
/// is written anew by every invocation; `tools/ten_runs.py` reads it to put
/// other statistics of the same runs next to the gated ones.
fn detail_path(workload: Workload, seed: u64) -> PathBuf {
    Path::new(OUT_DIR).join(format!("detail-{}-seed{seed}.jsonl", workload.name()))
}

fn find(name: &str, table: &'static [MetricDef]) -> &'static MetricDef {
    table
        .iter()
        .find(|m| m.name == name)
        .expect("a name from the contract's tables")
}

/// Folds the trials of an end-to-end pass into its three metrics.
///
/// Set-up is reported relative to the host's speed, like the rate: the
/// CPU-seconds measured here times the host's speed over the trial that
/// followed. Only the shift of its median between two sets of runs is gated,
/// and raw CPU-seconds shift with the host: when the host slowed by 11 %
/// between two sets `train_dp2`'s raw set-up rose by 21.6 % of a 25 % bound,
/// the scaled one by 3.7 % (README, what changed relative to the issue).
pub fn fold_end_to_end(trials: &[TrialResult]) -> Vec<Measured> {
    let measured: Vec<&TrialResult> = trials.iter().filter(|t| !t.windows.is_empty()).collect();
    let setups: Vec<f64> = measured
        .iter()
        .map(|t| t.setup_cpu_s * pooled(&t.windows).host())
        .collect();
    let rates: Vec<f64> = measured
        .iter()
        .map(|t| pooled(&t.windows).value())
        .collect();
    let peaks: Vec<f64> = trials.iter().map(|t| t.peak_rss_mib).collect();
    let largest = peaks.iter().copied().fold(0.0, f64::max);
    let value = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    vec![
        Measured {
            def: find("setup_s", &schema::END_TO_END),
            value: value(&setups),
            trials: setups,
        },
        Measured {
            def: find("throughput_per_cpu_s", &schema::END_TO_END),
            value: value(&rates),
            trials: rates,
        },
        Measured {
            def: find("peak_rss_mb", &schema::END_TO_END),
            value: largest,
            trials: peaks,
        },
    ]
}

/// One whole invocation.
pub fn bench(args: &BenchArgs) -> RunOutcome {
    let deadline = args.started + Duration::from_secs_f64(args.seconds);
    let mut outcome = RunOutcome {
        attempted: 0,
        failed: 0,
        failure: None,
        metrics: Vec::new(),
    };
    fn fail(outcome: &mut RunOutcome, why: String) {
        outcome.attempted += 1;
        outcome.failed += 1;
        outcome.failure.get_or_insert(why);
    }

    // The sequential twin, once, here: only its digests reach the children.
    let twin = match args.workload.step_shape() {
        Some(shape) => twin_digests(&shape, args.seed)
            .iter()
            .map(|d| d.encode())
            .collect::<Vec<_>>()
            .join(","),
        None => "-".to_string(),
    };

    let trials_wanted = if args.traced { 1 } else { args.trials.max(1) };
    let mut trials: Vec<TrialResult> = Vec::new();
    let mut detail = String::new();
    for i in 0..trials_wanted {
        // What is left, less a moment to fold and print, split evenly.
        let left = deadline
            .saturating_duration_since(Instant::now())
            .as_secs_f64()
            - 0.15;
        let budget = (left / (trials_wanted - i) as f64).max(1.0);
        match run_child(args, &twin, budget, &mut detail) {
            Ok(result) => {
                outcome.attempted += result.attempted;
                outcome.failed += result.failed;
                if let Some(why) = &result.failure {
                    outcome.failure.get_or_insert(format!("trial {i}: {why}"));
                }
                if trials
                    .first()
                    .is_some_and(|first| first.digest != result.digest)
                {
                    fail(
                        &mut outcome,
                        format!("trial {i} printed another output digest"),
                    );
                }
                trials.push(result);
            }
            Err(why) => fail(&mut outcome, format!("trial {i}: {why}")),
        }
        if outcome.failed > 0 || sys::terminated() {
            break;
        }
    }

    let path = detail_path(args.workload, args.seed);
    if let Err(e) = std::fs::write(&path, detail) {
        fail(&mut outcome, format!("write {}: {e}", path.display()));
    }

    if args.traced {
        if let Some(trial) = trials.first() {
            let names: Vec<&str> = trial.layers.iter().map(|(n, _)| n.as_str()).collect();
            let wanted: Vec<&str> = schema::PER_LAYER.iter().map(|m| m.name).collect();
            if names == wanted {
                outcome.metrics = trial
                    .layers
                    .iter()
                    .zip(schema::PER_LAYER.iter())
                    .map(|((_, value), def)| Measured {
                        def,
                        value: *value,
                        trials: Vec::new(),
                    })
                    .collect();
            } else if outcome.failed == 0 {
                fail(
                    &mut outcome,
                    "the traced child's metric names are not the contract's".into(),
                );
            }
        }
    } else if !trials.is_empty() {
        outcome.metrics = fold_end_to_end(&trials);
        if outcome.failed == 0
            && outcome
                .metrics
                .iter()
                .any(|m| m.value.is_nan() || m.value <= 0.0)
        {
            fail(
                &mut outcome,
                "an end-to-end metric is zero: no window was measured".into(),
            );
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::Window;

    fn trial(setup: f64, rate_work: u64, peak: f64) -> TrialResult {
        let w = Window {
            work: rate_work,
            ops: 1,
            op_cpu: 1.0,
            op_wall: 1.0,
            ref_nominal: 0.01,
            ref_cpu: 0.01,
            wall: 1.1,
        };
        TrialResult {
            attempted: 4,
            failed: 0,
            failure: None,
            setup_cpu_s: setup,
            setup_wall_s: setup,
            peak_rss_mib: peak,
            digest: "ab".into(),
            windows: vec![w],
            op_wall: None,
            layers: Vec::new(),
        }
    }

    #[test]
    fn end_to_end_is_median_setup_median_rate_largest_peak() {
        let m = fold_end_to_end(&[
            trial(1.0, 100, 50.0),
            trial(3.0, 300, 70.0),
            trial(2.0, 200, 60.0),
        ]);
        assert_eq!(
            m.iter().map(|x| x.def.name).collect::<Vec<_>>(),
            ["setup_s", "throughput_per_cpu_s", "peak_rss_mb"]
        );
        assert_eq!(m[0].value, 2.0);
        assert!((m[1].value - 200.0).abs() < 1e-9, "{}", m[1].value);
        // On a host running at 0.8 of nominal the same work costs 1.25x the
        // CPU-seconds: set-up and rate are reported as the 2.0 and 200 they
        // are worth.
        let mut slow = trial(2.5, 160, 60.0);
        slow.windows[0].ref_cpu = 0.0125;
        let s = fold_end_to_end(&[slow]);
        assert!((s[0].value - 2.0).abs() < 1e-9, "{}", s[0].value);
        assert!((s[1].value - 200.0).abs() < 1e-9, "{}", s[1].value);
        assert_eq!(m[2].value, 70.0);
        assert_eq!(m[2].trials, vec![50.0, 70.0, 60.0]);
    }

    #[test]
    fn the_result_line_has_exactly_the_contracts_keys() {
        let outcome = RunOutcome {
            attempted: 12,
            failed: 0,
            failure: None,
            metrics: fold_end_to_end(&[trial(1.5, 100, 50.0)]),
        };
        let line = outcome.result_line();
        assert!(!line.contains('\n'));
        let v: Value = serde_json::from_str(&line).unwrap();
        let top = v.as_map().unwrap();
        assert_eq!(
            top.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            ["correct", "attempted", "failed", "metrics"]
        );
        assert_eq!(top[0].1, Value::Bool(true));
        assert_eq!(top[1].1, Value::Int(12));
        let metrics = top[3].1.as_map().unwrap();
        assert_eq!(metrics.len(), 3);
        let setup = metrics[0].1.as_map().unwrap();
        assert_eq!(setup[0], ("value".to_string(), Value::Float(1.5)));
        assert_eq!(setup[1], ("unit".to_string(), Value::Str("s".into())));
    }
}
