//! The reference kernel: a fixed piece of arithmetic that lives in the
//! benchmark and touches no program code.
//!
//! A shared host does not run at one speed: neighbours take cycles from the
//! sibling hyperthread, the clock moves, the hypervisor steals time. The
//! harness runs a burst of this kernel between the program's operations and
//! divides the program's work per CPU-second by the kernel's speed, so both
//! are taken on the same host at the same moment. The kernel is an
//! Adam-shaped update (multiply-add, square root, divide) over four `f32`
//! lanes — the instruction mix of the program's own hot loops.
//!
//! It runs in the workload's own memory regime, because the host's compute
//! speed and its memory speed move independently (README, host notes;
//! `results/regimes.md` has both kernels next to the same operations): over
//! 8 KiB that never leave L1 for the workloads that live in cache, and over
//! 32 MiB streamed from beyond L2 for the ones that live in DRAM. A
//! memory-bound workload divided by an L1 kernel's speed inherits every
//! swing of the core clock that it does not itself feel.

use std::hint::black_box;

use crate::sys;

/// Where the kernel's working set lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// 4 lanes × 512 `f32`: 8 KiB, inside L1.
    Cache,
    /// 4 lanes × 2 Mi `f32`: 32 MiB, eight times L2.
    Dram,
}

impl Regime {
    /// Elements per lane.
    fn lane(self) -> usize {
        match self {
            Regime::Cache => 512,
            Regime::Dram => 2 << 20,
        }
    }

    /// Passes over the lanes in one burst: about 10 ms in cache; a single
    /// pass (about 3.5 ms) in DRAM, because a second pass would find the
    /// lanes in the last-level cache and measure that instead.
    fn burst_passes(self) -> usize {
        match self {
            Regime::Cache => 40_000,
            Regime::Dram => 1,
        }
    }

    /// MiB the kernel's four lanes keep resident once a burst has touched
    /// them. A trial takes this off its peak resident set, so the instrument
    /// is not in `peak_rss_mb`.
    pub fn resident_mib(self) -> f64 {
        (4 * self.lane() * std::mem::size_of::<f32>()) as f64 / (1024.0 * 1024.0)
    }

    /// Elements updated per CPU-second on the machine the benchmark was
    /// defined on, when quiet. Fixed here so that `host.speed` is about 1
    /// there; the constants only scale the reported rate and cancel out of
    /// every comparison between two runs of the benchmark.
    pub fn nominal_units_per_cpu_sec(self) -> f64 {
        match self {
            Regime::Cache => 2.06e9,
            Regime::Dram => 6.25e8,
        }
    }
}

/// The kernel's working set.
pub struct RefKernel {
    regime: Regime,
    p: Vec<f32>,
    m: Vec<f32>,
    v: Vec<f32>,
    g: Vec<f32>,
}

impl RefKernel {
    /// A kernel with a fixed starting state (it takes no seed: it is part of
    /// the instrument, not of the inputs).
    pub fn new(regime: Regime) -> RefKernel {
        let n = regime.lane();
        RefKernel {
            regime,
            p: (0..n).map(|i| 0.5 + (i % 512) as f32 * 1e-3).collect(),
            m: vec![0.0; n],
            v: vec![0.0; n],
            g: (0..n).map(|i| ((i % 17) as f32 - 8.0) * 1e-2).collect(),
        }
    }

    /// Runs `passes` passes and returns the units of work done
    /// (`passes × lane`).
    pub fn run(&mut self, passes: usize) -> u64 {
        let n = self.p.len();
        for _ in 0..passes {
            // Slicing all four to `n` lets the compiler drop the bounds checks.
            let (p, m, v, g) = (
                &mut self.p[..n],
                &mut self.m[..n],
                &mut self.v[..n],
                &self.g[..n],
            );
            for i in 0..n {
                let gi = g[i];
                m[i] = 0.9 * m[i] + 0.1 * gi;
                v[i] = 0.999 * v[i] + 0.001 * gi * gi;
                p[i] -= 1e-3 * m[i] / (v[i].sqrt() + 1e-8);
            }
            // Keeps every pass observable, so none can be folded away.
            black_box(&mut self.p);
        }
        (passes * n) as u64
    }

    /// One burst, timed on the calling thread's CPU clock. Returns
    /// `(nominal_seconds, cpu_seconds)`: what the burst costs on the quiet
    /// defining machine, and what it cost here just now. Their ratio is the
    /// host's speed.
    pub fn burst(&mut self) -> (f64, f64) {
        let t0 = sys::thread_cpu_secs();
        let units = self.run(self.regime.burst_passes());
        let cpu = sys::thread_cpu_secs() - t0;
        (units as f64 / self.regime.nominal_units_per_cpu_sec(), cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_is_counted_and_time_grows_with_it() {
        let mut k = RefKernel::new(Regime::Cache);
        assert_eq!(k.run(3), 3 * 512);
        // black_box is only a hint: confirm more passes take more CPU time.
        let t0 = sys::thread_cpu_secs();
        k.run(2_000);
        let short = sys::thread_cpu_secs() - t0;
        let t1 = sys::thread_cpu_secs();
        k.run(20_000);
        let long = sys::thread_cpu_secs() - t1;
        assert!(
            long > 3.0 * short,
            "20000 passes {long}s vs 2000 passes {short}s"
        );
    }

    #[test]
    fn both_regimes_burst_for_about_their_nominal_time() {
        for regime in [Regime::Cache, Regime::Dram] {
            let mut k = RefKernel::new(regime);
            k.burst();
            let (nominal, cpu) = k.burst();
            assert!(
                nominal > 0.001 && nominal < 0.05,
                "{regime:?}: nominal {nominal}"
            );
            // Any machine that builds this is within 10x of the defining one.
            assert!(
                cpu > nominal / 10.0 && cpu < nominal * 10.0,
                "{regime:?}: {cpu} vs {nominal}"
            );
        }
    }

    #[test]
    fn the_lanes_are_what_a_trial_takes_off_its_peak() {
        assert_eq!(Regime::Dram.resident_mib(), 32.0);
        assert_eq!(Regime::Cache.resident_mib(), 8.0 / 1024.0);
    }

    #[test]
    fn state_stays_finite_over_many_passes() {
        let mut k = RefKernel::new(Regime::Cache);
        k.run(100_000);
        assert!(k.p.iter().all(|x| x.is_finite()));
    }
}
