//! # dos-bench — regenerating every table and figure of the paper
//!
//! One function per evaluation artifact of *Deep Optimizer States*
//! (MIDDLEWARE 2024), each returning the block the `dos-bench` binary
//! prints, plus the two deterministic virtual-time benches that CI gates
//! against a committed golden. `EXPERIMENTS.md` in the repository root
//! records paper-vs-measured for every entry; run any of them with
//! `cargo run -p dos-bench --release -- <name>`, every artifact at once
//! with `-- all`, and list the names with `-- --list`. Wall-clock
//! measurement is not done here: that is `benchmark/` (see its README).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod adaptive;
pub mod comparisons;
pub mod contention;
pub mod extensions;
pub mod scaling;
pub mod serve;
pub mod support;
pub mod tables;
pub mod timelines;
pub mod zenflow;

use serde::{Deserialize, Serialize};

/// How a registry entry runs.
#[derive(Debug, Clone, Copy)]
pub enum Run {
    /// A table or figure of the paper: renders its printed block.
    Artifact(fn() -> String),
    /// A deterministic bench: given its golden document, runs the pinned
    /// configuration and gates the fresh report against it.
    Bench(fn(&str) -> Result<Gated, String>, &'static str),
}

/// What a [`Run::Bench`] entry produced.
#[derive(Debug)]
pub struct Gated {
    /// The human-readable block.
    pub text: String,
    /// The fresh report as JSON; redirect it over the golden to re-baseline.
    pub json: String,
    /// The regression gate's verdict against the golden.
    pub verdict: Result<(), String>,
}

/// Renders `fresh` both ways and gates it against the `golden` document.
fn gate<R: Serialize + Deserialize>(
    fresh: &R,
    golden: &str,
    render: fn(&R) -> String,
    regression_gate: fn(&R, &R) -> Result<(), String>,
) -> Result<Gated, String> {
    let baseline: R =
        serde_json::from_str(golden).map_err(|e| format!("cannot parse the golden: {e:?}"))?;
    Ok(Gated {
        text: render(fresh),
        json: serde_json::to_string_pretty(fresh)
            .map_err(|e| format!("cannot serialize the report: {e}"))?,
        verdict: regression_gate(fresh, &baseline),
    })
}

/// One experiment: its name and how it runs.
pub type Experiment = (&'static str, Run);

/// Every experiment: the paper's artifacts in paper order, then the gated
/// benches.
pub fn all_experiments() -> Vec<Experiment> {
    use Run::{Artifact, Bench};
    vec![
        ("table1_throughputs", Artifact(tables::table1_throughputs)),
        ("table2_model_zoo", Artifact(tables::table2_model_zoo)),
        ("fig2_subgroup_sweep", Artifact(timelines::fig2_subgroup_sweep)),
        ("fig3_gpu_memory_timeline", Artifact(timelines::fig3_gpu_memory_timeline)),
        ("fig4_pcie_timeline", Artifact(timelines::fig4_pcie_timeline)),
        ("fig5_schedule_gantt", Artifact(timelines::fig5_schedule_gantt)),
        ("fig6_gradient_path_gantt", Artifact(timelines::fig6_gradient_path_gantt)),
        ("fig7_iteration_breakdown", Artifact(comparisons::fig7_iteration_breakdown)),
        ("fig8_update_throughput", Artifact(comparisons::fig8_update_throughput)),
        ("fig9_end_to_end", Artifact(comparisons::fig9_end_to_end)),
        ("fig10_ratio_update_time", Artifact(comparisons::fig10_ratio_update_time)),
        ("fig11_ratio_iteration", Artifact(comparisons::fig11_ratio_iteration)),
        ("fig12_ratio20_models", Artifact(comparisons::fig12_ratio20_models)),
        ("fig13_microbatch", Artifact(scaling::fig13_microbatch)),
        ("fig14_cpu_scaling", Artifact(scaling::fig14_cpu_scaling)),
        ("fig15_utilization", Artifact(scaling::fig15_utilization)),
        ("fig16_gpu_fraction", Artifact(scaling::fig16_gpu_fraction)),
        ("fig17_weak_scaling", Artifact(scaling::fig17_weak_scaling)),
        ("v100_stride_validation", Artifact(scaling::v100_stride_validation)),
        ("ablation_gradient_path", Artifact(ablations::ablation_gradient_path)),
        ("ablation_overlap", Artifact(ablations::ablation_overlap)),
        ("ablation_static_placement", Artifact(ablations::ablation_static_placement)),
        ("ablation_pinned", Artifact(ablations::ablation_pinned)),
        ("ablation_stacked", Artifact(ablations::ablation_stacked)),
        ("ablation_critical_path", Artifact(ablations::ablation_critical_path)),
        ("extension_checkpointing", Artifact(extensions::extension_checkpointing)),
        ("extension_grace_hopper", Artifact(extensions::extension_grace_hopper)),
        ("extension_grad_accumulation", Artifact(extensions::extension_grad_accumulation)),
        ("extension_zero_stages", Artifact(extensions::extension_zero_stages)),
        ("extension_numa_contention", Artifact(contention::extension_numa_contention)),
        ("extension_adaptive_control", Artifact(adaptive::extension_adaptive_control)),
        ("extension_zenflow", Artifact(extensions::extension_zenflow)),
        ("serve_bench", Bench(serve::serve_bench, serve::GOLDEN)),
        ("zenflow_bench", Bench(zenflow::zenflow_bench, zenflow::GOLDEN)),
    ]
}
