//! `dos-check`: deterministic schedule exploration and differential
//! fuzzing for the hybrid update pipeline.
//!
//! Two engines, one verdict:
//!
//! * **Schedule exploration** ([`explore`]) runs Algorithm-1 bodies under
//!   `dos-core`'s cooperative scheduler (`dos_core::sync::sched`, behind
//!   the `check` feature) and walks their interleaving space — bounded DFS
//!   with sleep-set partial-order pruning plus seeded random walks. Every
//!   terminal schedule must match the sequential oracle **bitwise**;
//!   deadlocks and lost wakeups surface as scheduler-level failures. A
//!   failing schedule is greedily shrunk ([`shrink`]) and printed as a
//!   replayable token ([`token`]): `dos-cli check --replay dc1:…`.
//! * **Differential fuzzing** ([`fuzz`]) drives seeded random
//!   (model zoo × scheduler × stride × resident ratio × fault plan)
//!   configurations through the tri-oracle — Equation 1 vs the
//!   discrete-event simulator on the perf arm, the hybrid pipeline vs its
//!   sequential twin on the numerics arm — with proptest-shim shrinking
//!   and a committed regression corpus under `tests/corpus/`.
//!
//! [`run_check`] is the entry point behind `dos-cli check`; it explores
//! the default scenario suite (healthy pipeline plus both `PanicAfter`
//! and `DisconnectAfter` recovery paths, the blocking-mode collective
//! rendezvous — healthy and with a mid-run rank disconnect — the
//! two-tenant serve coordinator, the ZenFlow cross-iteration
//! asynchronous update pipeline, and the device worker's life across two
//! steps over one pool) until the requested number of distinct
//! schedules is reached, then runs the fuzz arms, and returns a
//! JSON-serializable [`report::CheckReport`]. A scenario prefix filter
//! (`dos-cli check --scenario zf`) narrows the suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod explore;
pub mod fuzz;
pub mod hygiene;
pub mod report;
pub mod scenarios;
pub mod shrink;
pub mod token;

use std::collections::HashSet;
use std::path::PathBuf;

use explore::ExploreConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use report::{CheckReport, FuzzFailureReport, FuzzSummary, ScenarioReport, ScheduleFailureReport};
use scenarios::CheckScenario;
use token::ScheduleToken;

/// Per-run decision budget (runaway guard) shared by every engine.
pub const DEFAULT_MAX_STEPS: usize = 20_000;

/// Options for one [`run_check`] invocation.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Target number of distinct schedules across the scenario suite.
    pub schedules: usize,
    /// Number of sampled fuzz cases.
    pub fuzz: usize,
    /// Seed for random walks and fuzz sampling.
    pub seed: u64,
    /// Regression corpus directory (`tests/corpus/`); `None` skips replay.
    pub corpus_dir: Option<PathBuf>,
    /// Restrict exploration to scenarios whose coordinate starts with this
    /// prefix (e.g. `"zf"` for the ZenFlow suite, `"pl-p48"` for the
    /// 48-parameter pipeline shapes); `None` explores the full suite.
    pub scenario_filter: Option<String>,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            schedules: 1_200,
            fuzz: 24,
            seed: 0,
            corpus_dir: None,
            scenario_filter: None,
        }
    }
}

/// Budget ceiling on shrinking one failing schedule or fuzz case.
const SHRINK_TRIALS: usize = 400;

/// Extra random-walk top-up rounds before giving up on the distinct
/// target (the space can be smaller than requested).
const TOPUP_ROUNDS: usize = 40;

fn explore_scenario(
    sc: &CheckScenario,
    cfg: &ExploreConfig,
    salt: u64,
    distinct_seen: &mut HashSet<u64>,
) -> explore::Exploration {
    explore::explore(cfg, salt, || sc.observed(), |obs| sc.verify(obs), distinct_seen)
}

fn shrink_failure(sc: &CheckScenario, failure: &explore::Failure) -> ScheduleFailureReport {
    let token = ScheduleToken::new(&sc.encode(), &failure.schedule).render();
    let shrunk = shrink::shrink_schedule(
        &failure.schedule,
        |candidate| {
            explore::replay(candidate, &|| sc.observed(), &|obs| sc.verify(obs), DEFAULT_MAX_STEPS)
                .is_some()
        },
        SHRINK_TRIALS,
    );
    ScheduleFailureReport {
        message: failure.kind.to_string(),
        token,
        shrunk_token: ScheduleToken::new(&sc.encode(), &shrunk.schedule).render(),
        shrink_trials: shrunk.trials,
    }
}

/// Explores one scenario and folds the outcome (including a shrunk,
/// tokenized failure if any) into a [`ScenarioReport`].
pub fn check_scenario(
    sc: &CheckScenario,
    cfg: &ExploreConfig,
    salt: u64,
    distinct_seen: &mut HashSet<u64>,
) -> ScenarioReport {
    let ex = explore_scenario(sc, cfg, salt, distinct_seen);
    ScenarioReport {
        scenario: sc.encode(),
        completed: ex.stats.completed,
        distinct: ex.stats.distinct,
        sleep_pruned: ex.stats.sleep_pruned,
        max_depth: ex.stats.max_depth,
        exhausted: ex.stats.exhausted,
        failure: ex.failure.as_ref().map(|f| shrink_failure(sc, f)),
    }
}

fn fuzz_failure(origin: &str, case: &fuzz::FuzzCase, divergence: String) -> FuzzFailureReport {
    let (shrunk, trials) =
        fuzz::shrink_case(case, |c| fuzz::run_case(c).is_some(), SHRINK_TRIALS);
    FuzzFailureReport {
        origin: origin.to_string(),
        coordinates: case.coordinates(),
        divergence,
        shrunk_case_json: fuzz::render_case(&shrunk),
        shrink_trials: trials,
    }
}

/// Runs the full check: schedule exploration over the default suite, then
/// sampled fuzzing, then corpus replay.
///
/// # Errors
///
/// Returns a description when the corpus directory is unreadable or holds
/// an unparsable case — corpus corruption must fail loudly.
pub fn run_check(opts: &CheckOptions) -> Result<CheckReport, String> {
    let suite: Vec<CheckScenario> = CheckScenario::default_suite()
        .into_iter()
        .chain(CheckScenario::rendezvous_suite())
        .chain(CheckScenario::coordinator_suite())
        .chain(CheckScenario::zenflow_suite())
        .chain(CheckScenario::worker_suite())
        .filter(|sc| {
            opts.scenario_filter
                .as_deref()
                .is_none_or(|f| sc.encode().starts_with(f))
        })
        .collect();
    if suite.is_empty() {
        return Err(format!(
            "scenario filter {:?} matches nothing in the suite",
            opts.scenario_filter.as_deref().unwrap_or("")
        ));
    }
    let mut distinct_seen: HashSet<u64> = HashSet::new();
    let mut scenarios: Vec<ScenarioReport> = Vec::new();

    // First pass: split the schedule budget evenly; DFS carries half,
    // random walks the other half.
    let per = (opts.schedules / suite.len().max(1)).max(16);
    for (i, sc) in suite.iter().enumerate() {
        let cfg = ExploreConfig {
            dfs_budget: per,
            random_walks: per / 2,
            seed: opts.seed.wrapping_add(i as u64),
            max_steps: DEFAULT_MAX_STEPS,
        };
        scenarios.push(check_scenario(sc, &cfg, i as u64, &mut distinct_seen));
    }

    // Top-up: extra random-walk rounds until the distinct target is met.
    let healthy = scenarios.iter().all(|s| s.failure.is_none());
    if healthy {
        let mut round = 0usize;
        while distinct_seen.len() < opts.schedules && round < TOPUP_ROUNDS {
            round += 1;
            for (i, sc) in suite.iter().enumerate() {
                if distinct_seen.len() >= opts.schedules {
                    break;
                }
                let cfg = ExploreConfig {
                    dfs_budget: 0,
                    random_walks: per / 2,
                    seed: opts
                        .seed
                        .wrapping_add(1_000_003)
                        .wrapping_mul(round as u64 + 1)
                        .wrapping_add(i as u64),
                    max_steps: DEFAULT_MAX_STEPS,
                };
                let ex = explore_scenario(sc, &cfg, i as u64, &mut distinct_seen);
                let entry = &mut scenarios[i];
                entry.completed += ex.stats.completed;
                entry.distinct += ex.stats.distinct;
                entry.max_depth = entry.max_depth.max(ex.stats.max_depth);
                if entry.failure.is_none() {
                    entry.failure = ex.failure.as_ref().map(|f| shrink_failure(sc, f));
                }
            }
        }
    }

    // Fuzz arms: sampled cases, then corpus replay.
    let mut failures: Vec<FuzzFailureReport> = Vec::new();
    let mut rng = StdRng::seed_from_u64(opts.seed.wrapping_add(0x5eed_f022));
    for _ in 0..opts.fuzz {
        let case = fuzz::sample_case(&mut rng);
        if let Some(d) = fuzz::run_case(&case) {
            failures.push(fuzz_failure("sampled", &case, d));
        }
    }
    let mut corpus_replayed = 0usize;
    if let Some(dir) = &opts.corpus_dir {
        for entry in fuzz::load_corpus(dir)? {
            corpus_replayed += 1;
            if let Some(d) = fuzz::run_case(&entry.case) {
                failures.push(fuzz_failure(&entry.name, &entry.case, d));
            }
        }
    }

    let fuzz_summary =
        FuzzSummary { sampled: opts.fuzz, corpus_replayed, failures };
    // Hygiene: explored bodies must route all blocking through the
    // dos_core::sync facade, or exploration silently loses interleavings.
    let hygiene = hygiene::scan_default();
    let passed = scenarios.iter().all(|s| s.failure.is_none())
        && fuzz_summary.failures.is_empty()
        && hygiene.findings.is_empty();
    Ok(CheckReport {
        distinct_total: distinct_seen.len(),
        scenarios,
        fuzz: fuzz_summary,
        hygiene,
        passed,
    })
}

/// Replays a schedule token against its scenario: parses it, rebuilds the
/// body, replays the forced prefix (default-extended), and returns the
/// reproduced failure, if any.
///
/// # Errors
///
/// Returns a description when the token or its scenario coordinate does
/// not parse.
pub fn replay_token(token: &str) -> Result<Option<String>, String> {
    let parsed = ScheduleToken::parse(token).map_err(|e| e.to_string())?;
    let sc = CheckScenario::decode(&parsed.scenario)?;
    Ok(explore::replay(
        &parsed.schedule,
        &|| sc.observed(),
        &|obs| sc.verify(obs),
        DEFAULT_MAX_STEPS,
    )
    .map(|kind| kind.to_string()))
}
