//! The four workloads: their shapes, and how their inputs are made from a
//! seed. Why each exists is recorded in `schema::WORKLOADS` and the README.

use dos::core::StridePolicy;
use dos::data::{BpeTokenizer, Corpus, TokenDataset};
use dos::nn::GptConfig;
use dos::runtime::FunctionalConfig;

use crate::refkernel::Regime;

/// A gated workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `Trainer::step`, 16,777,216 params, interleaved.
    StepDram,
    /// The same shard, every subgroup on the calling thread.
    StepCpuOnly,
    /// `Trainer::step`, 262,144 params in 32 subgroups, interleaved.
    StepCache,
    /// `train_functional`, world 2, 25 iterations per operation.
    TrainDp2,
}

/// Every workload, in the order of `BENCHMARK.json`.
pub const ALL: [Workload; 4] = [
    Workload::StepDram,
    Workload::StepCpuOnly,
    Workload::StepCache,
    Workload::TrainDp2,
];

/// Verified warm-up operations of a `step_*` trial.
pub const WARMUP_STEPS: usize = 3;

/// Operations run back to back for at least this long before a reference
/// burst, so the burst (~10 ms) stays a small share of a chunk.
pub const MIN_CHUNK_SECS: f64 = 0.05;

/// Training iterations in one `train_dp2` operation.
pub const TRAIN_ITERS: usize = 25;

/// Shape of a `step_*` workload's optimizer shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepShape {
    /// Flat parameter count.
    pub params: usize,
    /// Subgroup size in parameters.
    pub subgroup: usize,
    /// Whether every second subgroup goes to the device worker (`"auto"`)
    /// or none does (`"cpu_only"`).
    pub interleaved: bool,
}

impl StepShape {
    /// The JSON document `Trainer::from_json` is built from.
    pub fn trainer_json(&self) -> String {
        let stride = if self.interleaved { "auto" } else { "cpu_only" };
        format!(
            r#"{{"params": {}, "subgroup_size": {}, "rule": "adam",
                "deep_optimizer_states": {{"update_stride": "{stride}"}}}}"#,
            self.params, self.subgroup
        )
    }
}

impl Workload {
    /// The permanent name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StepDram => "step_dram",
            Workload::StepCpuOnly => "step_cpu_only",
            Workload::StepCache => "step_cache",
            Workload::TrainDp2 => "train_dp2",
        }
    }

    /// Parses a permanent name.
    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The shard shape, for the `step_*` workloads.
    pub fn step_shape(self) -> Option<StepShape> {
        match self {
            Workload::StepDram => Some(StepShape {
                params: 16_777_216,
                subgroup: 1_048_576,
                interleaved: true,
            }),
            Workload::StepCpuOnly => Some(StepShape {
                params: 16_777_216,
                subgroup: 1_048_576,
                interleaved: false,
            }),
            Workload::StepCache => Some(StepShape {
                params: 262_144,
                subgroup: 8_192,
                interleaved: true,
            }),
            Workload::TrainDp2 => None,
        }
    }

    /// The memory regime the reference kernel runs in next to this workload:
    /// the one its own state lives in.
    pub fn ref_regime(self) -> Regime {
        match self {
            Workload::StepDram | Workload::StepCpuOnly => Regime::Dram,
            Workload::StepCache | Workload::TrainDp2 => Regime::Cache,
        }
    }

    /// Work items one operation completes: parameters updated, or training
    /// iterations.
    pub fn work_per_op(self) -> u64 {
        match self.step_shape() {
            Some(shape) => shape.params as u64,
            None => TRAIN_ITERS as u64,
        }
    }
}

/// `train_dp2`'s model: GPT dim 64, 2 layers, 4 heads, seq 32, vocab 512.
pub fn train_model() -> GptConfig {
    GptConfig {
        vocab_size: 512,
        max_seq: 32,
        dim: 64,
        num_layers: 2,
        num_heads: 4,
        init_std: 0.08,
    }
}

/// `train_dp2`'s run configuration; `seed` seeds model init and shuffling.
pub fn train_config(seed: u64) -> FunctionalConfig {
    let mut cfg = FunctionalConfig::small();
    cfg.model = train_model();
    cfg.world = 2;
    cfg.micro_batch = 4;
    cfg.subgroup_size = 4096;
    cfg.pipeline.stride = StridePolicy::Fixed(2);
    cfg.seed = seed;
    cfg
}

/// `train_dp2`'s data path: synthetic corpus of 400 records from `seed`, a
/// BPE tokenizer trained on it to 512 tokens, packed to sequences of 32.
pub fn train_dataset(seed: u64) -> TokenDataset {
    let corpus = Corpus::synthetic(seed, 400);
    let tokenizer = BpeTokenizer::train(&corpus.joined_text(), train_model().vocab_size);
    TokenDataset::pack(&corpus, &tokenizer, train_model().max_seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dos::train::TrainerConfig;

    #[test]
    fn names_round_trip_and_match_the_schema() {
        for (w, def) in ALL.iter().zip(crate::schema::WORKLOADS.iter()) {
            assert_eq!(w.name(), def.name);
            assert_eq!(Workload::from_name(def.name), Some(*w));
        }
        assert_eq!(Workload::from_name("step_zenflow"), None);
    }

    #[test]
    fn trainer_json_resolves_to_the_shape_and_policy() {
        for w in ALL {
            let Some(shape) = w.step_shape() else {
                continue;
            };
            let cfg = TrainerConfig::from_json(&shape.trainer_json()).unwrap();
            assert_eq!(cfg.params, shape.params);
            assert_eq!(cfg.subgroup_size, shape.subgroup);
            let want = if shape.interleaved {
                StridePolicy::Auto
            } else {
                StridePolicy::CpuOnly
            };
            assert_eq!(cfg.pipeline().stride, want);
            assert_eq!(w.work_per_op(), shape.params as u64);
        }
        assert_eq!(Workload::TrainDp2.work_per_op(), 25);
    }
}
