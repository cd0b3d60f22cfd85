//! The paper's model zoo (Table 2) and transformer accounting formulas.
//!
//! The evaluation trains five decoder-only models derived from LLaMA-2 (7B,
//! 13B), Megatron-LM (8.3B), GPT-10B, and GPT-NeoX (20B). This module
//! captures their architectures and the standard parameter / activation /
//! FLOP formulas the simulator uses.

use serde::{Deserialize, Serialize};

/// Bytes per FP16 element.
pub const FP16_BYTES: u64 = 2;
/// Bytes per FP32 element.
pub const FP32_BYTES: u64 = 4;

/// Architecture of one evaluation model (a row of Table 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSpec {
    /// Display name (e.g. `"20B"`).
    pub name: String,
    /// Nominal parameter count the paper quotes, in billions.
    pub nominal_billions: f64,
    /// Number of transformer layers.
    pub num_layers: usize,
    /// Hidden dimension.
    pub hidden_dim: usize,
    /// Attention heads.
    pub attention_heads: usize,
    /// Vocabulary size (the paper tokenizes with LLaMA-2's 32 000-entry
    /// vocabulary).
    pub vocab_size: usize,
    /// Training sequence length (2048 in all the paper's runs).
    pub seq_len: usize,
}

impl ModelSpec {
    /// Exact parameter count from the architecture:
    /// `12·L·H²` for blocks (QKV `3H²` + proj `H²` + MLP `8H²`, biases and
    /// LayerNorms folded in as `13H` per layer) plus `V·H` token embeddings,
    /// `S·H` positional embeddings, and the untied `H·V` head.
    pub fn param_count(&self) -> u64 {
        let l = self.num_layers as u64;
        let h = self.hidden_dim as u64;
        let v = self.vocab_size as u64;
        let s = self.seq_len as u64;
        l * (12 * h * h + 13 * h) + v * h + s * h + h * v + v + 2 * h
    }

    /// FP16 model-parameter bytes (`2P`).
    pub fn fp16_param_bytes(&self) -> u64 {
        FP16_BYTES * self.param_count()
    }

    /// FP16 gradient bytes (`2P`).
    pub fn fp16_grad_bytes(&self) -> u64 {
        FP16_BYTES * self.param_count()
    }

    /// FP32 optimizer-state bytes: master parameters, momentum, and variance
    /// (`12P`), plus the FP32 gradient staging the paper counts with the
    /// optimizer (`2P` of FP16 gradients upscaled on arrival), ≈ `14P` —
    /// this reproduces Table 2's "FP32 optimizer (GB)" within a few percent.
    pub fn fp32_optimizer_bytes(&self) -> u64 {
        3 * FP32_BYTES * self.param_count() + FP16_BYTES * self.param_count()
    }

    /// Bytes of activations for one micro-batch without checkpointing,
    /// using the standard per-layer estimate `s·b·h·(34 + 5·a·s/h)` bytes
    /// in FP16 (Korthikanti et al.), summed over layers.
    pub fn activation_bytes(&self, micro_batch: usize) -> u64 {
        let s = self.seq_len as u64;
        let b = micro_batch as u64;
        let h = self.hidden_dim as u64;
        let a = self.attention_heads as u64;
        let per_layer = s * b * h * 34 + 5 * a * s * s * b;
        per_layer * self.num_layers as u64
    }

    /// Bytes of activation checkpoints for one micro-batch: one `[s, b, h]`
    /// FP16 tensor per layer boundary (ZeRO-Infinity §3 interval style).
    pub fn activation_checkpoint_bytes(&self, micro_batch: usize) -> u64 {
        let s = self.seq_len as u64;
        let b = micro_batch as u64;
        let h = self.hidden_dim as u64;
        s * b * h * FP16_BYTES * (self.num_layers as u64 + 1)
    }

    /// FLOPs of one forward pass over one micro-batch (`2·P·tokens` dense
    /// estimate plus the quadratic attention term).
    pub fn forward_flops(&self, micro_batch: usize) -> f64 {
        let tokens = (micro_batch * self.seq_len) as f64;
        let p = self.param_count() as f64;
        let attn = 2.0
            * (self.num_layers as f64)
            * (self.seq_len as f64)
            * (self.seq_len as f64)
            * (self.hidden_dim as f64)
            * micro_batch as f64;
        2.0 * p * tokens + attn
    }

    /// The five evaluation models of Table 2.
    pub fn table2_zoo() -> Vec<ModelSpec> {
        let spec = |name: &str, nominal: f64, layers, hidden, heads| ModelSpec {
            name: name.to_string(),
            nominal_billions: nominal,
            num_layers: layers,
            hidden_dim: hidden,
            attention_heads: heads,
            vocab_size: 32_000,
            seq_len: 2048,
        };
        vec![
            spec("7B", 7.0, 32, 4096, 32),
            spec("8.3B", 8.3, 72, 3072, 24),
            spec("10B", 10.0, 50, 4096, 32),
            spec("13B", 13.0, 40, 5120, 40),
            spec("20B", 20.0, 48, 6144, 64),
        ]
    }

    /// Models beyond the paper's evaluation whose host-offloaded optimizer
    /// state overflows the testbed's 512 GB DRAM (§5.3 notes this for
    /// LLaMA-33B): the subjects of the simulator's `host_oom` diagnostic.
    pub fn extended_zoo() -> Vec<ModelSpec> {
        let spec = |name: &str, nominal: f64, layers, hidden, heads| ModelSpec {
            name: name.to_string(),
            nominal_billions: nominal,
            num_layers: layers,
            hidden_dim: hidden,
            attention_heads: heads,
            vocab_size: 32_000,
            seq_len: 2048,
        };
        vec![spec("33B", 33.0, 60, 6656, 52), spec("65B", 65.0, 80, 8192, 64)]
    }

    /// Looks up a model by name in the Table 2 zoo or the extended zoo.
    pub fn by_name(name: &str) -> Option<ModelSpec> {
        Self::table2_zoo()
            .into_iter()
            .chain(Self::extended_zoo())
            .find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: f64 = 1e9;

    #[test]
    fn zoo_matches_table2_architectures() {
        let zoo = ModelSpec::table2_zoo();
        assert_eq!(zoo.len(), 5);
        let m20 = &zoo[4];
        assert_eq!(m20.num_layers, 48);
        assert_eq!(m20.hidden_dim, 6144);
        assert_eq!(m20.attention_heads, 64);
        let m83 = &zoo[1];
        assert_eq!(m83.num_layers, 72);
        assert_eq!(m83.hidden_dim, 3072);
    }

    #[test]
    fn param_counts_are_near_nominal() {
        for m in ModelSpec::table2_zoo() {
            let computed = m.param_count() as f64 / 1e9;
            let ratio = computed / m.nominal_billions;
            assert!(
                (0.85..=1.15).contains(&ratio),
                "{}: computed {computed:.2}B vs nominal {}B",
                m.name,
                m.nominal_billions
            );
        }
    }

    #[test]
    fn memory_sizes_track_table2_shape() {
        // Table 2: FP32 optimizer sizes 96/121/150/188/294 GB for the zoo.
        let paper = [96.0, 121.0, 150.0, 188.0, 294.0];
        for (m, &expect) in ModelSpec::table2_zoo().iter().zip(paper.iter()) {
            let got = m.fp32_optimizer_bytes() as f64 / GB;
            let ratio = got / expect;
            assert!(
                (0.8..=1.25).contains(&ratio),
                "{}: optimizer {got:.0} GB vs paper {expect} GB",
                m.name
            );
        }
    }

    #[test]
    fn optimizer_is_seven_times_fp16_model() {
        let m = ModelSpec::by_name("20B").unwrap();
        assert_eq!(m.fp32_optimizer_bytes(), 7 * m.fp16_param_bytes());
    }

    #[test]
    fn checkpointing_reduces_activation_memory() {
        let m = ModelSpec::by_name("20B").unwrap();
        assert!(m.activation_checkpoint_bytes(1) < m.activation_bytes(1) / 4);
    }

    #[test]
    fn flops_scale_with_batch() {
        let m = ModelSpec::by_name("7B").unwrap();
        let f1 = m.forward_flops(1);
        let f2 = m.forward_flops(2);
        assert!((f2 / f1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn lookup_by_name() {
        assert!(ModelSpec::by_name("13B").is_some());
        assert!(ModelSpec::by_name("99B").is_none());
    }

    #[test]
    fn extended_zoo_exceeds_the_testbed_dram() {
        // §5.3: LLaMA-33B's host-resident state (optimizer + FP32 grads)
        // exceeds the testbed's 512 GB DRAM.
        let m33 = ModelSpec::by_name("33B").unwrap();
        let host_bytes = m33.fp32_optimizer_bytes() + 4 * m33.param_count();
        assert!(host_bytes > 512_000_000_000, "host bytes {host_bytes}");
        let m65 = ModelSpec::by_name("65B").unwrap();
        assert!(m65.param_count() > m33.param_count());
    }
}
