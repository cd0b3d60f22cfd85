//! Structured check reports: one JSON-serializable summary per
//! `dos-cli check` run, plus a human rendering.

use serde::{Deserialize, Serialize};

use crate::hygiene::HygieneSummary;

/// A failing schedule, tokenized and shrunk.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScheduleFailureReport {
    /// What went wrong (divergence detail, deadlock, panic, step limit).
    pub message: String,
    /// Replayable token of the schedule as found.
    pub token: String,
    /// Replayable token of the shrunk schedule.
    pub shrunk_token: String,
    /// Replay trials the shrinker spent.
    pub shrink_trials: usize,
}

/// Exploration summary of one scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Scenario coordinate (see `CheckScenario::encode`).
    pub scenario: String,
    /// Terminal schedules reached and verified.
    pub completed: usize,
    /// Distinct schedules contributed (deduplicated globally).
    pub distinct: usize,
    /// Branches pruned by sleep sets.
    pub sleep_pruned: usize,
    /// Longest decision sequence observed.
    pub max_depth: usize,
    /// Whether the DFS frontier drained within budget.
    pub exhausted: bool,
    /// Failure, if the scenario diverged/deadlocked/panicked.
    pub failure: Option<ScheduleFailureReport>,
}

/// A failing fuzz case, shrunk and rendered.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FuzzFailureReport {
    /// Where the case came from (`sampled` or a corpus file stem).
    pub origin: String,
    /// One-line case coordinates.
    pub coordinates: String,
    /// First divergence description.
    pub divergence: String,
    /// Shrunk case as pretty JSON, ready for `tests/corpus/`.
    pub shrunk_case_json: String,
    /// Shrink trials spent.
    pub shrink_trials: usize,
}

/// Differential-fuzz summary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FuzzSummary {
    /// Sampled cases run.
    pub sampled: usize,
    /// Corpus cases replayed.
    pub corpus_replayed: usize,
    /// Failures across both.
    pub failures: Vec<FuzzFailureReport>,
}

/// Full report of one check run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CheckReport {
    /// Per-scenario exploration summaries.
    pub scenarios: Vec<ScenarioReport>,
    /// Distinct schedules across all scenarios.
    pub distinct_total: usize,
    /// Fuzz summary.
    pub fuzz: FuzzSummary,
    /// Concurrency-hygiene scan over the code under check.
    #[serde(default)]
    pub hygiene: HygieneSummary,
    /// Whether everything passed.
    pub passed: bool,
}

impl CheckReport {
    /// Serializes the report as pretty JSON.
    pub fn render_json(&self) -> String {
        serde_json::to_string_pretty(self)
            .unwrap_or_else(|e| format!("{{\"error\": \"unrenderable report: {e:?}\"}}"))
    }

    /// Renders a terminal-friendly summary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        out.push_str("schedule exploration\n");
        for sc in &self.scenarios {
            let status = match &sc.failure {
                None => "ok".to_string(),
                Some(f) => format!("FAIL ({})", f.message),
            };
            out.push_str(&format!(
                "  {:<24} {:>5} schedules ({:>4} distinct, {:>4} pruned, depth {:>3}{}) {}\n",
                sc.scenario,
                sc.completed,
                sc.distinct,
                sc.sleep_pruned,
                sc.max_depth,
                if sc.exhausted { ", exhausted" } else { "" },
                status
            ));
            if let Some(f) = &sc.failure {
                out.push_str(&format!("    replay:  dos-cli check --replay {}\n", f.token));
                out.push_str(&format!(
                    "    shrunk:  dos-cli check --replay {}  ({} trials)\n",
                    f.shrunk_token, f.shrink_trials
                ));
            }
        }
        out.push_str(&format!("  total distinct schedules: {}\n", self.distinct_total));
        out.push_str(&format!(
            "differential fuzz: {} sampled + {} corpus, {} failure(s)\n",
            self.fuzz.sampled,
            self.fuzz.corpus_replayed,
            self.fuzz.failures.len()
        ));
        // The file count stays in `--json`: here it would make any added or
        // deleted file change this output.
        out.push_str(&format!("hygiene: {} facade bypass(es)\n", self.hygiene.findings.len()));
        for f in &self.hygiene.findings {
            out.push_str(&format!("  FAIL {}:{} raw std::sync {}: {}\n", f.file, f.line, f.pattern, f.snippet));
        }
        for f in &self.fuzz.failures {
            out.push_str(&format!("  FAIL [{}] {}\n    {}\n", f.origin, f.coordinates, f.divergence));
            out.push_str(&format!("    shrunk case ({} trials):\n", f.shrink_trials));
            for line in f.shrunk_case_json.lines() {
                out.push_str(&format!("      {line}\n"));
            }
        }
        out.push_str(if self.passed { "check: PASS\n" } else { "check: FAIL\n" });
        out
    }
}
