//! Schedule exploration: bounded DFS with sleep-set partial-order pruning
//! plus seeded random-walk sampling.
//!
//! Every run executes the body under [`run_with_scheduler`], recording the
//! chosen tid at each decision point. The DFS maintains, per branch, the
//! forced decision prefix and the *sleep sets* injected along it: when the
//! explorer has fully explored choosing `a` at a decision point, `a` is
//! put to sleep for the sibling branches and stays asleep until some
//! executed operation is *dependent* with `a`'s pending operation
//! (conservatively: both touch the same channel — send/send pairs
//! excepted, see `dependent` — or either is a thread-lifecycle
//! operation). Branches whose entire enabled set is
//! asleep are abandoned — their terminal states are reachable through an
//! already-explored commutation.
//!
//! Random walks sample the same space uniformly at random (seeded) and
//! catch schedules a truncated DFS frontier would miss.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use dos_core::sync::sched::{run_with_scheduler, PendingOp, Pick, RunError, Tid};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Budget and seeding for one exploration.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Maximum DFS runs (completed or pruned) before the frontier is
    /// abandoned.
    pub dfs_budget: usize,
    /// Number of seeded random-walk runs after the DFS.
    pub random_walks: usize,
    /// Seed for the random walks.
    pub seed: u64,
    /// Per-run decision budget (runaway guard).
    pub max_steps: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig { dfs_budget: 256, random_walks: 64, seed: 0, max_steps: 20_000 }
    }
}

/// Counters describing one exploration.
#[derive(Debug, Clone, Default)]
pub struct ExploreStats {
    /// Runs that reached a terminal state and were verified.
    pub completed: usize,
    /// Distinct complete schedules (by decision sequence).
    pub distinct: usize,
    /// Branches abandoned because their whole enabled set was asleep.
    pub sleep_pruned: usize,
    /// Longest decision sequence observed.
    pub max_depth: usize,
    /// Whether the DFS frontier was fully drained within budget.
    pub exhausted: bool,
}

/// Why a schedule failed.
#[derive(Debug, Clone)]
pub enum FailureKind {
    /// The terminal state differed from the sequential oracle.
    Divergence(String),
    /// All live threads parked, none enabled.
    Deadlock(String),
    /// The root body panicked (outside controller-initiated teardown).
    BodyPanic(String),
    /// The per-run decision budget was exceeded.
    StepLimit(usize),
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::Divergence(d) => write!(f, "divergence: {d}"),
            FailureKind::Deadlock(d) => write!(f, "deadlock: {d}"),
            FailureKind::BodyPanic(d) => write!(f, "body panic: {d}"),
            FailureKind::StepLimit(n) => write!(f, "step limit {n} exceeded"),
        }
    }
}

/// A failing schedule: the decision sequence that reproduces it, plus why.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Chosen tids, one per decision point.
    pub schedule: Vec<Tid>,
    /// What went wrong at (or on the way to) the terminal state.
    pub kind: FailureKind,
}

/// Result of exploring one body.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Exploration counters.
    pub stats: ExploreStats,
    /// First failure found, if any (exploration stops on it).
    pub failure: Option<Failure>,
}

/// Conservative dependence relation for sleep-set pruning.
///
/// Two pending operations commute when they are channel operations on
/// *different* channels, or when both are *sends* — even on the same
/// channel. Sends never block (channels are unbounded) and cannot fail
/// each other (send errors depend only on receiver liveness), so swapping
/// two sends permutes nothing but queue order. Queue order is
/// unobservable to the bodies under check: per-peer mesh links are
/// single-producer, and every multi-producer channel aggregates its
/// messages commutatively (reductions fold in rank order, retries by
/// subgroup id — never by arrival order), which the bitwise
/// terminal-state oracle enforces on every schedule that *is* explored.
/// Everything else (thread lifecycle, mixed ops on one channel) is
/// treated as dependent.
fn dependent(a: &PendingOp, b: &PendingOp) -> bool {
    if matches!((a, b), (PendingOp::Send(_), PendingOp::Send(_))) {
        return false;
    }
    match (a.channel(), b.channel()) {
        (Some(x), Some(y)) => x == y,
        _ => true,
    }
}

/// One recorded decision of a guided run.
#[derive(Debug, Clone)]
struct DecisionRecord {
    enabled: Vec<(Tid, PendingOp)>,
    sleep: Vec<(Tid, PendingOp)>,
    chosen: Tid,
}

/// Decision policy for one run: replay a forced prefix, then extend with
/// the lowest enabled tid not asleep, maintaining the sleep set.
struct Guided<'a> {
    forced: &'a [Tid],
    injections: &'a [(usize, Vec<(Tid, PendingOp)>)],
    sleep: Vec<(Tid, PendingOp)>,
    records: Vec<DecisionRecord>,
    sleep_stopped: bool,
    replay_diverged: bool,
}

impl<'a> Guided<'a> {
    fn new(forced: &'a [Tid], injections: &'a [(usize, Vec<(Tid, PendingOp)>)]) -> Guided<'a> {
        Guided {
            forced,
            injections,
            sleep: Vec::new(),
            records: Vec::new(),
            sleep_stopped: false,
            replay_diverged: false,
        }
    }

    fn pick(&mut self, step: usize, enabled: &[(Tid, PendingOp)]) -> Pick {
        for (pos, adds) in self.injections {
            if *pos == step {
                for a in adds {
                    if !self.sleep.iter().any(|(t, _)| t == &a.0) {
                        self.sleep.push(*a);
                    }
                }
            }
        }
        let choice = if step < self.forced.len() {
            let want = self.forced[step];
            match enabled.iter().find(|(t, _)| *t == want) {
                Some(&(t, op)) => Some((t, op)),
                None => {
                    self.replay_diverged = true;
                    return Pick::Stop;
                }
            }
        } else {
            enabled.iter().find(|(t, _)| !self.sleep.iter().any(|(s, _)| s == t)).copied()
        };
        let Some((tid, op)) = choice else {
            self.sleep_stopped = true;
            return Pick::Stop;
        };
        self.records.push(DecisionRecord {
            enabled: enabled.to_vec(),
            sleep: self.sleep.clone(),
            chosen: tid,
        });
        // Waking rule: an executed op wakes every sleeper dependent on it.
        self.sleep.retain(|(st, sop)| *st != tid && !dependent(sop, &op));
        Pick::Run(tid)
    }
}

fn panic_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

fn schedule_hash(salt: u64, schedule: &[Tid]) -> u64 {
    let mut h = DefaultHasher::new();
    salt.hash(&mut h);
    schedule.hash(&mut h);
    h.finish()
}

/// One DFS work item: a decision prefix plus the sleep sets to inject
/// while replaying it.
struct Branch {
    forced: Vec<Tid>,
    injections: Vec<(usize, Vec<(Tid, PendingOp)>)>,
}

enum RunResult {
    /// Terminal state reached; verification outcome attached.
    Complete { divergence: Option<String> },
    /// Pruned: the whole enabled set was asleep.
    SleepStopped,
    /// The forced prefix stopped matching the enabled sets (only possible
    /// when replaying a schedule against a different or nondeterministic
    /// body).
    ReplayDiverged,
    /// Hard failure independent of verification.
    Failed(FailureKind),
}

/// Runs `body` once under the guided policy. Returns the run's
/// classification, its decision records, and the executed schedule.
fn run_guided<R, B, V>(
    body: &B,
    verify: &V,
    forced: &[Tid],
    injections: &[(usize, Vec<(Tid, PendingOp)>)],
    max_steps: usize,
) -> (RunResult, Vec<DecisionRecord>, Vec<Tid>)
where
    B: Fn() -> R + Send + Sync,
    R: Send,
    V: Fn(&R) -> Option<String>,
{
    let mut guided = Guided::new(forced, injections);
    let outcome = run_with_scheduler(body, |step, enabled| guided.pick(step, enabled), max_steps);
    let schedule: Vec<Tid> = outcome.trace.iter().map(|r| r.chosen).collect();
    let records = std::mem::take(&mut guided.records);
    let result = match &outcome.error {
        Some(RunError::Deadlock { parked, step }) => RunResult::Failed(FailureKind::Deadlock(
            format!("at decision {step}: parked = {parked:?}"),
        )),
        Some(RunError::StepLimit { limit }) => RunResult::Failed(FailureKind::StepLimit(*limit)),
        Some(RunError::Stopped { .. }) => {
            if guided.replay_diverged {
                RunResult::ReplayDiverged
            } else {
                RunResult::SleepStopped
            }
        }
        None => match &outcome.result {
            Ok(r) => RunResult::Complete { divergence: verify(r) },
            Err(p) => RunResult::Failed(FailureKind::BodyPanic(panic_to_string(p.as_ref()))),
        },
    };
    (result, records, schedule)
}

/// Explores `body`'s schedule space: DFS with sleep sets, then random
/// walks. `verify` inspects each terminal state and returns a divergence
/// description if it is wrong; exploration stops at the first failure.
///
/// `salt` decorrelates distinct-schedule hashing across scenarios sharing
/// one global counter; `distinct_seen` accumulates across calls.
pub fn explore<R, B, V>(
    cfg: &ExploreConfig,
    salt: u64,
    body: B,
    verify: V,
    distinct_seen: &mut HashSet<u64>,
) -> Exploration
where
    B: Fn() -> R + Send + Sync,
    R: Send,
    V: Fn(&R) -> Option<String>,
{
    let mut stats = ExploreStats::default();
    let mut runs = 0usize;

    // --- Bounded DFS with sleep sets -----------------------------------
    let mut stack: Vec<Branch> = vec![Branch { forced: Vec::new(), injections: Vec::new() }];
    let mut budget_hit = false;
    while let Some(branch) = stack.pop() {
        if runs >= cfg.dfs_budget {
            budget_hit = true;
            stack.clear();
            break;
        }
        runs += 1;
        let (result, records, schedule) =
            run_guided(&body, &verify, &branch.forced, &branch.injections, cfg.max_steps);
        stats.max_depth = stats.max_depth.max(schedule.len());
        match result {
            RunResult::Complete { divergence } => {
                stats.completed += 1;
                if distinct_seen.insert(schedule_hash(salt, &schedule)) {
                    stats.distinct += 1;
                }
                if let Some(d) = divergence {
                    return Exploration {
                        stats,
                        failure: Some(Failure { schedule, kind: FailureKind::Divergence(d) }),
                    };
                }
            }
            RunResult::SleepStopped => stats.sleep_pruned += 1,
            RunResult::ReplayDiverged => {
                // The body is expected to be schedule-deterministic; a
                // replay divergence during DFS is itself a finding.
                return Exploration {
                    stats,
                    failure: Some(Failure {
                        schedule,
                        kind: FailureKind::Divergence(
                            "body is not schedule-deterministic: forced replay diverged"
                                .to_string(),
                        ),
                    }),
                };
            }
            RunResult::Failed(kind) => {
                return Exploration { stats, failure: Some(Failure { schedule, kind }) }
            }
        }

        // Children: alternatives at every free decision of this run.
        // Pushed in reverse so the stack pops them left-to-right, keeping
        // the sleep-set accumulation order consistent with recursive DFS.
        let mut children: Vec<Branch> = Vec::new();
        for (i, rec) in records.iter().enumerate().skip(branch.forced.len()) {
            let chosen_op = rec
                .enabled
                .iter()
                .find(|(t, _)| *t == rec.chosen)
                .map(|(_, op)| *op)
                .unwrap_or(PendingOp::Start);
            let mut slept: Vec<(Tid, PendingOp)> = vec![(rec.chosen, chosen_op)];
            for &(alt, alt_op) in rec.enabled.iter() {
                if alt == rec.chosen || rec.sleep.iter().any(|(t, _)| *t == alt) {
                    continue;
                }
                let mut forced = schedule[..i].to_vec();
                forced.push(alt);
                let mut injections = branch.injections.clone();
                injections.push((i, slept.clone()));
                children.push(Branch { forced, injections });
                slept.push((alt, alt_op));
            }
        }
        children.reverse();
        stack.extend(children);
    }
    stats.exhausted = !budget_hit;

    // --- Seeded random walks -------------------------------------------
    for walk in 0..cfg.random_walks {
        let mut rng = StdRng::seed_from_u64(
            cfg.seed.wrapping_add(walk as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        let outcome = run_with_scheduler(
            &body,
            |_, enabled| {
                let idx = rng.gen_range(0..enabled.len());
                Pick::Run(enabled[idx].0)
            },
            cfg.max_steps,
        );
        let schedule: Vec<Tid> = outcome.trace.iter().map(|r| r.chosen).collect();
        stats.max_depth = stats.max_depth.max(schedule.len());
        let failure = match &outcome.error {
            Some(RunError::Deadlock { parked, step }) => Some(FailureKind::Deadlock(format!(
                "at decision {step}: parked = {parked:?}"
            ))),
            Some(RunError::StepLimit { limit }) => Some(FailureKind::StepLimit(*limit)),
            Some(RunError::Stopped { .. }) => None,
            None => match &outcome.result {
                Ok(r) => {
                    stats.completed += 1;
                    if distinct_seen.insert(schedule_hash(salt, &schedule)) {
                        stats.distinct += 1;
                    }
                    verify(r).map(FailureKind::Divergence)
                }
                Err(p) => Some(FailureKind::BodyPanic(panic_to_string(p.as_ref()))),
            },
        };
        if let Some(kind) = failure {
            return Exploration { stats, failure: Some(Failure { schedule, kind }) };
        }
    }

    Exploration { stats, failure: None }
}

/// Replays `schedule` exactly (then extends with the default policy) and
/// reports whether the failure reproduces. Used by `--replay` and the
/// shrinker.
pub fn replay<R, B, V>(
    schedule: &[Tid],
    body: &B,
    verify: &V,
    max_steps: usize,
) -> Option<FailureKind>
where
    B: Fn() -> R + Send + Sync,
    R: Send,
    V: Fn(&R) -> Option<String>,
{
    let (result, _, _) = run_guided(body, verify, schedule, &[], max_steps);
    match result {
        RunResult::Complete { divergence } => divergence.map(FailureKind::Divergence),
        RunResult::SleepStopped | RunResult::ReplayDiverged => None,
        RunResult::Failed(kind) => Some(kind),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dos_core::sync;

    /// Two producers race onto one channel; the consumer folds
    /// commutatively, so the terminal state is insensitive to producer
    /// interleaving — exactly the shape send/send commutativity prunes.
    fn fan_in_sum() -> i64 {
        let (tx, rx) = sync::unbounded::<i64>();
        sync::scope(|scope| {
            for k in 0..2u32 {
                let tx = tx.clone();
                scope.spawn(move || {
                    tx.send(1i64 << (8 * k)).expect("receiver alive");
                });
            }
            drop(tx);
            let mut sum = 0i64;
            while let Ok(v) = rx.recv() {
                sum += v;
            }
            sum
        })
    }

    fn verify_sum(sum: &i64) -> Option<String> {
        (*sum != 0x0101).then(|| format!("bad sum {sum:#x}"))
    }

    #[test]
    fn send_send_commutativity_prunes_fan_in_schedules() {
        let cfg =
            ExploreConfig { dfs_budget: 100_000, random_walks: 0, seed: 0, max_steps: 20_000 };
        let mut seen = HashSet::new();
        let ex = explore(&cfg, 0, fan_in_sum, verify_sum, &mut seen);
        assert!(ex.failure.is_none(), "unexpected failure: {:?}", ex.failure);
        assert!(ex.stats.exhausted, "DFS did not drain within budget");
        // Pinned reduction: with the pre-commutativity relation (any two
        // ops on one channel dependent, including send/send) this exact
        // DFS completes 908 runs before exhausting; treating send/send
        // pairs as independent prunes the redundant producer orderings
        // down to 796. A regression that re-couples sends re-inflates
        // this count.
        assert_eq!(ex.stats.completed, 796, "schedule count shifted");
        assert_eq!(ex.stats.distinct, ex.stats.completed, "DFS revisited a schedule");
    }
}
