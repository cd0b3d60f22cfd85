//! Differential fuzzing: seeded random configurations through the
//! tri-oracle (Eq. 1 closed form vs discrete-event simulator vs functional
//! pipeline vs its sequential twin), with proptest-shim shrinking and a
//! committed regression corpus.
//!
//! Each [`FuzzCase`] pins a point in (model zoo × scheduler × stride ×
//! resident ratio × tensor shape × fault plan × step count) space and is
//! checked on two arms:
//!
//! * **perf** — `dos-oracle`'s [`evaluate_cell`]: the Equation 1
//!   prediction and the simulator must agree within the scheduler
//!   family's declared tolerance band;
//! * **numerics** — a seeded random optimizer state driven through the
//!   full [`dos_train::Trainer`] config-JSON surface (the case is rendered
//!   as a `"deep_optimizer_states"` document, parsed, resolved, and
//!   stepped through the pooled pipeline, including injected worker
//!   faults) must match the sequential `full_step` twin bitwise, momentum
//!   and variance included, plus the FP16 downscale of the final step.
//!   Routing through the JSON surface means entry-resolution bugs are
//!   fuzzable events, not just unit-test concerns.
//!
//! A failing case is shrunk with the proptest shim's
//! [`ShrinkValue`] halving walk — each
//! numeric field descends toward its floor while the failure holds — and
//! rendered as JSON ready to be committed under `tests/corpus/`.

use std::path::Path;

use proptest::strategy::ShrinkValue;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use dos_core::{DeviceFault, StridePolicy};
use dos_hal::HardwareProfile;
use dos_nn::ModelSpec;
use dos_optim::{MixedPrecisionState, UpdateRule};
use dos_oracle::perf::{evaluate_cell, SchedulerKind};
use dos_train::Trainer;

/// The model names fuzz cases draw from (Table 2 zoo + NVMe extension).
const MODELS: &[&str] = &["7B", "8.3B", "10B", "13B", "20B", "33B"];

/// One fuzz configuration; everything needed to reproduce both arms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuzzCase {
    /// Seed for the numerics arm's state/gradient sampling.
    pub seed: u64,
    /// Model-zoo name for the perf arm.
    pub model: String,
    /// `"zero3-offload"`, `"twinflow"`, or `"dos"`.
    pub scheduler: String,
    /// Update stride k (used by the `"dos"` scheduler and the pipeline).
    pub stride: usize,
    /// Static GPU-resident ratio for the perf arm.
    pub resident_ratio: f64,
    /// Flat parameter count of the numerics-arm state.
    pub params: usize,
    /// Subgroup size of the numerics-arm partition.
    pub subgroup: usize,
    /// Trailing static residents in the pipeline config.
    pub residents: usize,
    /// `"none"`, `"panic"`, or `"disconnect"`.
    pub fault_kind: String,
    /// Worker kill point (jobs fully processed before the fault fires).
    pub fault_after: usize,
    /// Optimizer steps the numerics arm runs.
    pub steps: usize,
}

impl FuzzCase {
    fn scheduler_kind(&self) -> Result<SchedulerKind, String> {
        match self.scheduler.as_str() {
            "zero3-offload" => Ok(SchedulerKind::Zero3Offload),
            "twinflow" => Ok(SchedulerKind::TwinFlow),
            "dos" => Ok(SchedulerKind::DeepOptimizerStates(StridePolicy::Fixed(
                self.stride.max(1),
            ))),
            other => Err(format!("unknown scheduler {other:?}")),
        }
    }

    fn fault(&self) -> Result<Option<DeviceFault>, String> {
        match self.fault_kind.as_str() {
            "none" => Ok(None),
            "panic" => Ok(Some(DeviceFault::PanicAfter(self.fault_after))),
            "disconnect" => Ok(Some(DeviceFault::DisconnectAfter(self.fault_after))),
            other => Err(format!("unknown fault kind {other:?}")),
        }
    }

    /// Renders the numerics arm as a Trainer configuration document — the
    /// same JSON shape a user would put in a config file (§4.4).
    pub fn trainer_json(&self) -> String {
        format!(
            r#"{{
  "params": {},
  "subgroup_size": {},
  "rule": "adam",
  "lr": 0.01,
  "static_residents": {},
  "deep_optimizer_states": {{ "enabled": true, "update_stride": {} }}
}}"#,
            self.params.max(1),
            self.subgroup.max(1),
            self.residents,
            self.stride.max(1)
        )
    }

    /// Compact one-line coordinate for reports.
    pub fn coordinates(&self) -> String {
        format!(
            "seed={} {}/{}/k={} ratio={:.2} p={} g={} r={} fault={}:{} steps={}",
            self.seed,
            self.model,
            self.scheduler,
            self.stride,
            self.resident_ratio,
            self.params,
            self.subgroup,
            self.residents,
            self.fault_kind,
            self.fault_after,
            self.steps
        )
    }
}

/// Samples one case from the fuzz distribution.
pub fn sample_case(rng: &mut StdRng) -> FuzzCase {
    let model = MODELS.choose(rng).copied().unwrap_or("7B").to_string();
    let scheduler =
        ["zero3-offload", "twinflow", "dos"].choose(rng).copied().unwrap_or("dos").to_string();
    let fault_kind = ["none", "none", "panic", "disconnect"]
        .choose(rng)
        .copied()
        .unwrap_or("none")
        .to_string();
    FuzzCase {
        seed: rng.gen::<u64>(),
        model,
        scheduler,
        stride: rng.gen_range(1..=4usize),
        resident_ratio: *[0.0, 0.1, 0.25, 0.5].choose(rng).unwrap_or(&0.0),
        params: rng.gen_range(16..=160usize),
        subgroup: rng.gen_range(5..=48usize),
        residents: rng.gen_range(0..=2usize),
        fault_kind,
        fault_after: rng.gen_range(0..=4usize),
        steps: rng.gen_range(1..=2usize),
    }
}

fn bitwise_mismatch(name: &str, step: usize, got: &[f32], want: &[f32]) -> Option<String> {
    got.iter().zip(want).position(|(a, b)| a.to_bits() != b.to_bits()).map(|i| {
        format!(
            "step {step}: {name}[{i}] got {:?} (0x{:08x}), want {:?} (0x{:08x})",
            got[i],
            got[i].to_bits(),
            want[i],
            want[i].to_bits()
        )
    })
}

/// Runs both oracle arms; `Some` describes the first divergence.
pub fn run_case(case: &FuzzCase) -> Option<String> {
    // --- Perf arm: Eq. 1 vs simulator --------------------------------
    let kind = match case.scheduler_kind() {
        Ok(k) => k,
        Err(e) => return Some(e),
    };
    if ModelSpec::by_name(&case.model).is_none() {
        return Some(format!("unknown model {:?}", case.model));
    }
    let cell = evaluate_cell(&case.model, &HardwareProfile::jlse_h100(), kind, case.resident_ratio);
    if !cell.conformant() {
        return Some(format!(
            "perf arm: {} ratio {:.4} outside [{:.2}, {:.2}]",
            cell.coordinates(),
            cell.ratio(),
            cell.band.lo,
            cell.band.hi
        ));
    }

    // --- Numerics arm: JSON-configured Trainer vs sequential twin -----
    let fault = match case.fault() {
        Ok(f) => f,
        Err(e) => return Some(e),
    };
    let n = case.params.max(1);
    let mut rng = StdRng::seed_from_u64(case.seed);
    let init: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let mut seq = MixedPrecisionState::new(init.clone(), UpdateRule::adam(), 0.01);
    let mut trainer = match Trainer::from_json(&case.trainer_json(), init) {
        Ok(t) => t,
        Err(e) => return Some(format!("numerics arm: trainer config rejected: {e}")),
    };
    trainer.inject_fault(fault);
    let mut last_fp16 = Vec::new();
    for step in 0..case.steps.max(1) {
        let grads: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        seq.full_step(&grads);
        match trainer.step(&grads) {
            Ok(report) => last_fp16 = report.fp16_params.to_vec(),
            Err(e) => return Some(format!("step {step}: pipeline precondition failure: {e}")),
        }
        if let Some(d) = bitwise_mismatch("params", step, trainer.params(), seq.params())
            .or_else(|| bitwise_mismatch("momentum", step, trainer.momentum(), seq.momentum()))
            .or_else(|| bitwise_mismatch("variance", step, trainer.variance(), seq.variance()))
        {
            return Some(format!("numerics arm: {d}"));
        }
    }
    let want_fp16 = seq.downscale_range(0..n);
    if last_fp16 != want_fp16 {
        return Some("numerics arm: final fp16 downscale diverged".to_string());
    }
    None
}

/// Shrinks a failing case with the proptest shim's halving walk: each
/// numeric field descends toward its floor (and the categorical fields
/// toward their simplest values) while the case keeps failing. Returns the
/// minimized case and the trial count.
pub fn shrink_case<F>(case: &FuzzCase, mut still_fails: F, max_trials: usize) -> (FuzzCase, usize)
where
    F: FnMut(&FuzzCase) -> bool,
{
    let mut cur = case.clone();
    let mut trials = 0usize;
    let mut improved = true;
    while improved && trials < max_trials {
        improved = false;

        // Numeric fields: (accessor, floor) pairs driven by ShrinkValue.
        type Get = fn(&FuzzCase) -> usize;
        type Set = fn(&mut FuzzCase, usize);
        let fields: Vec<(Get, Set, usize)> = vec![
            (|c| c.params, |c, v| c.params = v, 4),
            (|c| c.subgroup, |c, v| c.subgroup = v, 1),
            (|c| c.steps, |c, v| c.steps = v, 1),
            (|c| c.fault_after, |c, v| c.fault_after = v, 0),
            (|c| c.residents, |c, v| c.residents = v, 0),
            (|c| c.stride, |c, v| c.stride = v, 1),
        ];
        for (get, set, floor) in fields {
            for candidate in get(&cur).shrink_toward(&floor) {
                if trials >= max_trials {
                    return (cur, trials);
                }
                let mut next = cur.clone();
                set(&mut next, candidate);
                trials += 1;
                if still_fails(&next) {
                    cur = next;
                    improved = true;
                    break;
                }
            }
        }
        for candidate in cur.resident_ratio.shrink_toward(&0.0) {
            if trials >= max_trials {
                return (cur, trials);
            }
            let mut next = cur.clone();
            next.resident_ratio = candidate;
            trials += 1;
            if still_fails(&next) {
                cur = next;
                improved = true;
                break;
            }
        }
        // Categorical fields: single jump to the simplest value.
        for simplify in [
            |c: &mut FuzzCase| c.model = "7B".to_string(),
            |c: &mut FuzzCase| c.fault_kind = "none".to_string(),
            |c: &mut FuzzCase| c.scheduler = "zero3-offload".to_string(),
        ] {
            let mut next = cur.clone();
            simplify(&mut next);
            if next != cur && trials < max_trials {
                trials += 1;
                if still_fails(&next) {
                    cur = next;
                    improved = true;
                }
            }
        }
    }
    (cur, trials)
}

/// A corpus entry: the file stem it was loaded from plus the case.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// File stem (e.g. `0001-disconnect-k3`).
    pub name: String,
    /// The pinned case.
    pub case: FuzzCase,
}

/// Loads every `*.json` fuzz case under `dir`, sorted by file name.
///
/// # Errors
///
/// Returns a description of the first unreadable or unparsable file —
/// corpus corruption must fail the check run, not skip cases silently.
pub fn load_corpus(dir: &Path) -> Result<Vec<CorpusEntry>, String> {
    let mut entries: Vec<(String, std::path::PathBuf)> = Vec::new();
    let rd = std::fs::read_dir(dir).map_err(|e| format!("corpus dir {}: {e}", dir.display()))?;
    for item in rd {
        let item = item.map_err(|e| format!("corpus dir {}: {e}", dir.display()))?;
        let path = item.path();
        if path.extension().is_some_and(|x| x == "json") {
            let stem = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.display().to_string());
            entries.push((stem, path));
        }
    }
    entries.sort();
    let mut out = Vec::with_capacity(entries.len());
    for (name, path) in entries {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let case: FuzzCase =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
        out.push(CorpusEntry { name, case });
    }
    Ok(out)
}

/// Renders a case as pretty JSON, ready to commit under `tests/corpus/`.
pub fn render_case(case: &FuzzCase) -> String {
    serde_json::to_string_pretty(case).unwrap_or_else(|e| format!("<unrenderable case: {e:?}>"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_case() -> FuzzCase {
        FuzzCase {
            seed: 7,
            model: "7B".to_string(),
            scheduler: "dos".to_string(),
            stride: 2,
            resident_ratio: 0.1,
            params: 48,
            subgroup: 8,
            residents: 1,
            fault_kind: "disconnect".to_string(),
            fault_after: 1,
            steps: 2,
        }
    }

    #[test]
    fn case_round_trips_through_json() {
        let case = base_case();
        let text = render_case(&case);
        let back: FuzzCase = serde_json::from_str(&text).unwrap();
        assert_eq!(back, case);
    }

    #[test]
    fn healthy_sampled_cases_pass_both_arms() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..6 {
            let case = sample_case(&mut rng);
            assert_eq!(run_case(&case), None, "case failed: {}", case.coordinates());
        }
    }

    #[test]
    fn numerics_arm_case_renders_as_a_valid_config_document() {
        let case = base_case();
        let cfg = dos_train::TrainerConfig::from_json(&case.trainer_json()).unwrap();
        assert_eq!(cfg.params, 48);
        assert_eq!(cfg.static_residents, 1);
        assert_eq!(cfg.pipeline().stride, StridePolicy::Fixed(2));
    }

    #[test]
    fn corrupted_scheduler_is_reported_not_skipped() {
        let mut case = base_case();
        case.scheduler = "does-not-exist".to_string();
        assert!(run_case(&case).is_some());
    }

    #[test]
    fn shrinker_descends_to_the_smallest_failing_shape() {
        // Synthetic failure predicate: fails whenever params >= 20 and
        // steps >= 2 — the shrinker should land exactly on the boundary.
        let case = base_case(); // params 48, steps 2
        let fails = |c: &FuzzCase| c.params >= 20 && c.steps >= 2;
        assert!(fails(&case));
        let (small, _) = shrink_case(&case, fails, 500);
        assert_eq!(small.params, 20);
        assert_eq!(small.steps, 2);
        assert_eq!(small.fault_kind, "none");
    }
}
