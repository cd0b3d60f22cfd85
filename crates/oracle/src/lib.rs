//! # dos-oracle — differential conformance harness
//!
//! The workspace carries **three independent implementations** of the
//! paper's update-phase behavior:
//!
//! 1. the closed-form Equation 1 model ([`dos_core::PerfModel`]),
//! 2. the discrete-event simulator (`dos-sim` driven by the
//!    `dos-core` schedulers), and
//! 3. the functional threaded pipeline ([`dos_core::hybrid_update`]).
//!
//! This crate runs the same scenarios through all of them and reports
//! divergences:
//!
//! * [`perf`] sweeps the Table 2 zoo × schedulers (ZeRO-3 offload,
//!   TwinFlow, Deep Optimizer States) × strides k∈1..=5 × static resident
//!   ratios 0.0..=0.5, comparing the Eq. 1 prediction of the update phase
//!   against the simulated `update_secs` within a declared per-family
//!   tolerance band;
//! * [`numerics`] asserts the hybrid pipeline is **byte-exact** against a
//!   sequential CPU update for Adam/AdamW/Adagrad/RMSProp and every stride
//!   policy (§4.1's correctness claim);
//! * [`kernels`] asserts the chunked autovectorizable update/conversion
//!   kernels are **bit-exact** against their retained scalar reference
//!   twins, over chunk-straddling lengths and adversarial bit patterns;
//! * [`DivergenceReport`] serializes the failures and renders them as an
//!   ASCII table naming the exact cell, expected band, and observed value.
//!
//! `dos-cli conformance` runs [`Oracle::full`] and exits nonzero on any
//! divergence, making the harness CI-runnable.
//!
//! ```
//! use dos_oracle::Oracle;
//!
//! let outcome = Oracle::quick().run();
//! assert!(outcome.report.is_conformant(), "{}", outcome.report.render_table());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod kernels;
pub mod numerics;
pub mod perf;
mod report;

pub use report::{Divergence, DivergenceReport};

/// Serializes a divergence report as pretty JSON (helper so downstream
/// crates need no direct `serde_json` dependency).
pub fn to_json(report: &DivergenceReport) -> Result<String, serde_json::Error> {
    serde_json::to_string_pretty(report)
}

/// Parses a divergence report back from JSON.
pub fn from_json(json: &str) -> Result<DivergenceReport, serde_json::Error> {
    serde_json::from_str(json)
}

use dos_hal::HardwareProfile;
use dos_nn::ModelSpec;

/// The matrix a conformance run sweeps.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// Table 2 model names to simulate.
    pub models: Vec<String>,
    /// Hardware profile shared by all cells.
    pub profile: HardwareProfile,
    /// Fixed strides k to force through Deep Optimizer States.
    pub strides: Vec<usize>,
    /// Static GPU-resident ratios to sweep.
    pub ratios: Vec<f64>,
    /// Largest stride exercised by the numerics oracle.
    pub numerics_max_stride: usize,
}

/// Everything a conformance run produces: the per-cell evaluations of both
/// oracles plus the merged divergence report.
#[derive(Debug, Clone)]
pub struct ConformanceOutcome {
    /// Perf-model matrix cells (prediction vs. simulation).
    pub perf_cells: Vec<perf::PerfCell>,
    /// Numerics cells (pipeline vs. sequential).
    pub numerics_cells: Vec<numerics::NumericsCell>,
    /// Kernel cells (vectorized vs. scalar reference twin).
    pub kernel_cells: Vec<kernels::KernelCell>,
    /// Merged divergence report across all oracles.
    pub report: DivergenceReport,
}

impl Oracle {
    /// The full ISSUE matrix: all five Table 2 models, strides 1..=5,
    /// resident ratios 0.0..=0.5 in steps of 0.1, on the paper's H100
    /// testbed profile.
    pub fn full() -> Oracle {
        Oracle {
            models: ModelSpec::table2_zoo().into_iter().map(|m| m.name).collect(),
            profile: HardwareProfile::jlse_h100(),
            strides: (1..=5).collect(),
            ratios: vec![0.0, 0.1, 0.2, 0.3, 0.4, 0.5],
            numerics_max_stride: 5,
        }
    }

    /// A reduced matrix for unit tests and fast local runs: two models,
    /// three strides, two ratios, same bands.
    pub fn quick() -> Oracle {
        Oracle {
            models: vec!["7B".to_string(), "20B".to_string()],
            profile: HardwareProfile::jlse_h100(),
            strides: vec![1, 2, 3],
            ratios: vec![0.0, 0.3],
            numerics_max_stride: 3,
        }
    }

    /// Runs both oracles over the matrix and merges their reports.
    pub fn run(&self) -> ConformanceOutcome {
        self.run_filtered(None)
    }

    /// Runs only the cells whose coordinate strings contain `filter`
    /// (both oracles; see [`perf::cell_coordinates`] and
    /// [`numerics::NumericsCase::coordinates`] for the formats). Cells
    /// outside the filter are never evaluated, so this is the fast way to
    /// re-run a single diverging cell. `None` runs everything.
    pub fn run_filtered(&self, filter: Option<&str>) -> ConformanceOutcome {
        let (perf_cells, mut report) = perf::run_matrix_filtered(
            &self.models,
            &self.profile,
            &self.strides,
            &self.ratios,
            filter,
        );
        let (numerics_cells, numerics_report) = numerics::run_cases_filtered(
            &numerics::default_cases(self.numerics_max_stride),
            filter,
        );
        report.merge(numerics_report);
        let (kernel_cells, kernel_report) = kernels::default_cells_filtered(filter);
        report.merge(kernel_report);
        ConformanceOutcome { perf_cells, numerics_cells, kernel_cells, report }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_is_conformant() {
        let outcome = Oracle::quick().run();
        assert!(outcome.report.is_conformant(), "{}", outcome.report.render_table());
        assert!(outcome.report.cells_checked > 50);
        assert!(!outcome.perf_cells.is_empty());
        assert!(!outcome.numerics_cells.is_empty());
        assert!(!outcome.kernel_cells.is_empty());
    }

    #[test]
    fn filter_selects_matching_cells_only() {
        let outcome = Oracle::quick().run_filtered(Some("zero3-offload"));
        assert!(!outcome.perf_cells.is_empty());
        assert!(outcome.perf_cells.iter().all(|c| c.scheduler == "zero3-offload"));
        assert!(outcome.numerics_cells.is_empty(), "no numerics cell mentions zero3");
        assert!(outcome.report.is_conformant());

        let adagrad = Oracle::quick().run_filtered(Some("adagrad/"));
        assert!(adagrad.perf_cells.is_empty());
        assert!(!adagrad.numerics_cells.is_empty());
        assert!(adagrad.numerics_cells.iter().all(|c| c.rule == "adagrad"));

        // A filter is a coordinate substring, so one exact coordinate
        // re-runs exactly one cell.
        let one = Oracle::quick().run_filtered(Some("20B/twinflow/-/ratio=0.30"));
        assert_eq!(one.report.cells_checked, 1);

        let none = Oracle::quick().run_filtered(Some("no-such-cell"));
        assert_eq!(none.report.cells_checked, 0);
    }

    #[test]
    fn full_matrix_has_the_issue_shape() {
        let o = Oracle::full();
        assert_eq!(o.models.len(), 5);
        assert_eq!(o.strides, vec![1, 2, 3, 4, 5]);
        assert_eq!(o.ratios.len(), 6);
        // Per model: ZeRO-3 and cpu-only DOS once; per ratio TwinFlow, DOS
        // auto and five fixed strides; ZenFlow at the five nonzero ratios.
        let specs = perf::matrix_specs(&o.models, &o.strides, &o.ratios);
        assert_eq!(specs.len(), 245);
        for model in &o.models {
            assert_eq!(specs.iter().filter(|(m, _, _)| m == model).count(), 49, "{model}");
        }
        assert!(specs.iter().all(|(_, k, _)| !format!("{k:?}").to_lowercase().contains("nvme")));
    }
}
