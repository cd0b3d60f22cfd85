//! The shared retune loop: sweep, hysteresis + cooldown gate, move.
//!
//! All three control-plane drivers — the simulated-engine [`Controller`]
//! (on its `Dos` rung), the functional-trainer [`WallClockTuner`] and
//! `dos-serve`'s per-tenant control — make stride decisions the same way:
//! hold a stride, sweep every candidate (CPU-only and `k = 1..=max_stride`)
//! through the Equation 1 perf model ([`PerfModel::sweep`]), and move only
//! when the predicted fractional gain clears a hysteresis band *and* the
//! retune cooldown has elapsed. [`SweepGate`] is the stateless half (the
//! tunables and the approval test), [`RetuneLoop`] the stateful half (the
//! held stride, the cooldown clock, the move) — one copy, so a threshold or
//! sweep change cannot silently apply to one driver and not another.
//!
//! The drivers differ only in what they feed in and what they do with an
//! approved [`StrideMove`]: the [`Controller`] and the coordinator apply a
//! DRAM-contention factor to the [`PerfModel`] first, the
//! [`WallClockTuner`] does not (its wall-clock samples already measure the
//! contended machine); each keeps its own decision text and counters.
//!
//! [`Controller`]: crate::Controller
//! [`WallClockTuner`]: crate::WallClockTuner

use dos_core::{PerfModel, SweepOutcome};

/// The sweep + hysteresis tunables shared by every driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepGate {
    /// Hysteresis band: a move needs a predicted fractional gain strictly
    /// above this to be approved.
    pub hysteresis_gain: f64,
    /// Cooldown iterations between approved moves.
    pub min_iters_between_retunes: usize,
    /// Largest stride the candidate sweep considers.
    pub max_stride: usize,
}

impl SweepGate {
    /// The fractional predicted gain of moving from `cur_secs` to
    /// `best_secs`.
    pub fn gain(cur_secs: f64, best_secs: f64) -> f64 {
        (cur_secs - best_secs) / cur_secs
    }

    /// Whether the retune cooldown has elapsed at `iteration`.
    fn cooled(&self, iteration: usize, last_retune: Option<usize>) -> bool {
        last_retune.is_none_or(|l| iteration.saturating_sub(l) >= self.min_iters_between_retunes)
    }

    /// The full gate: returns the predicted gain iff both the cooldown and
    /// the hysteresis band pass.
    fn approve(
        &self,
        iteration: usize,
        last_retune: Option<usize>,
        cur_secs: f64,
        best_secs: f64,
    ) -> Option<f64> {
        let gain = Self::gain(cur_secs, best_secs);
        (self.cooled(iteration, last_retune) && gain > self.hysteresis_gain).then_some(gain)
    }
}

/// One approved move of a [`RetuneLoop`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrideMove {
    /// What the loop held before: `None` when it held nothing yet (the
    /// move is an ungated adoption), else the stride (`Some(None)` =
    /// CPU-only).
    pub from: Option<Option<usize>>,
    /// The stride now held (`None` = CPU-only).
    pub to: Option<usize>,
    /// Predicted fractional gain the gate approved (0 for an adoption).
    pub gain: f64,
}

/// The stateful half of the loop: the held stride, the cooldown clock, and
/// the gated move to a sweep's winner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetuneLoop {
    gate: SweepGate,
    /// `None` until a stride is held; `Some(None)` holds CPU-only.
    held: Option<Option<usize>>,
    last_retune: Option<usize>,
}

impl RetuneLoop {
    /// A loop holding nothing: its first [`Self::step`] adopts the sweep's
    /// winner ungated.
    pub fn new(gate: SweepGate) -> RetuneLoop {
        RetuneLoop { gate, held: None, last_retune: None }
    }

    /// The held stride; `None` while CPU-only or before the first adoption.
    pub fn stride(&self) -> Option<usize> {
        self.held.flatten()
    }

    /// Holds `stride` (`None` = CPU-only) from now on without consulting
    /// the gate or touching the cooldown: seeding, and ladder moves the
    /// driver owns.
    pub fn hold(&mut self, stride: Option<usize>) {
        self.held = Some(stride);
    }

    /// Starts the retune cooldown at `iteration` (a driver's seed decision
    /// counts as a stride decision, so its first retune is not exempt).
    pub fn start_cooldown(&mut self, iteration: usize) {
        self.last_retune = Some(iteration);
    }

    /// The candidate sweep under this loop's `max_stride`.
    pub fn sweep(&self, pm: &PerfModel, params: f64, subgroup: f64) -> SweepOutcome {
        pm.sweep(params, subgroup, self.gate.max_stride)
    }

    /// One turn at `iteration`: moves to `sweep`'s winner if it differs
    /// from the held stride and the gate approves the predicted gain over
    /// `predicted_secs(held)`; returns the move, or `None` when the loop
    /// stays put.
    pub fn step(
        &mut self,
        iteration: usize,
        sweep: &SweepOutcome,
        predicted_secs: impl FnOnce(Option<usize>) -> f64,
    ) -> Option<StrideMove> {
        let gain = match self.held {
            None => 0.0,
            Some(held) if held == sweep.best_k => return None,
            Some(held) => self.gate.approve(
                iteration,
                self.last_retune,
                predicted_secs(held),
                sweep.best_secs,
            )?,
        };
        let from = self.held.replace(sweep.best_k);
        self.last_retune = Some(iteration);
        Some(StrideMove { from, to: sweep.best_k, gain })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate() -> SweepGate {
        SweepGate { hysteresis_gain: 0.05, min_iters_between_retunes: 2, max_stride: 8 }
    }

    #[test]
    fn approves_only_past_both_bars() {
        let g = gate();
        // Gain below the band: rejected even when cooled.
        assert_eq!(g.approve(10, None, 1.0, 0.96), None);
        // Gain above the band but inside the cooldown: rejected.
        assert_eq!(g.approve(10, Some(9), 1.0, 0.5), None);
        // Both pass: the gain comes back.
        let gain = g.approve(10, Some(8), 1.0, 0.5);
        assert_eq!(gain, Some(0.5));
    }

    #[test]
    fn cooldown_is_inclusive_of_the_boundary() {
        let g = gate();
        assert!(!g.cooled(5, Some(4)));
        assert!(g.cooled(6, Some(4)));
        assert!(g.cooled(0, None));
    }

    #[test]
    fn gain_is_fractional_improvement() {
        assert_eq!(SweepGate::gain(2.0, 1.0), 0.5);
        assert!(SweepGate::gain(1.0, 1.2) < 0.0);
    }

    #[test]
    fn loop_adopts_ungated_then_moves_only_through_the_gate() {
        let sweep = |best_k, best_secs| SweepOutcome { best_k, best_secs, cpu_secs: 1.0 };
        let mut l = RetuneLoop::new(gate());
        assert_eq!(l.stride(), None);
        // Nothing held: the winner is adopted without pricing anything.
        let mv = l.step(1, &sweep(Some(2), 0.5), |_| unreachable!("nothing held to price"));
        assert_eq!(mv, Some(StrideMove { from: None, to: Some(2), gain: 0.0 }));
        // Same winner: no move, no pricing.
        assert_eq!(l.step(2, &sweep(Some(2), 0.5), |_| unreachable!("winner is held")), None);
        // A better stride inside the cooldown (2 iterations) waits...
        assert_eq!(l.step(2, &sweep(Some(3), 0.5), |_| 1.0), None);
        assert_eq!(l.stride(), Some(2));
        // ...and moves once cooled, restarting the cooldown.
        let mv = l.step(3, &sweep(Some(3), 0.5), |held| {
            assert_eq!(held, Some(2));
            1.0
        });
        assert_eq!(mv, Some(StrideMove { from: Some(Some(2)), to: Some(3), gain: 0.5 }));
        assert_eq!(l.step(4, &sweep(None, 0.1), |_| 1.0), None, "cooling again");
        // CPU-only is a stride like any other.
        let mv = l.step(5, &sweep(None, 0.1), |_| 1.0).expect("cooled");
        assert_eq!((mv.from, mv.to), (Some(Some(3)), None));
        assert_eq!(l.stride(), None);
        // `hold` seeds without a cooldown and bypasses the gate.
        let mut seeded = RetuneLoop::new(gate());
        seeded.hold(Some(4));
        assert!(seeded.step(0, &sweep(Some(1), 0.5), |_| 1.0).is_some());
        seeded.hold(Some(7));
        assert_eq!(seeded.stride(), Some(7));
        seeded.start_cooldown(9);
        assert_eq!(seeded.step(10, &sweep(Some(1), 0.5), |_| 1.0), None);
    }
}
