//! The pure part of the measurement: chunks of operations, each followed by
//! a reference burst, folded into ~1 s windows and then into one rate.
//!
//! Nothing here reads a clock, so the whole fold is unit-tested with made-up
//! numbers.
//!
//! A trial's value pools its windows (all work over all CPU-seconds, over
//! the host's speed across all bursts) instead of taking their median. With
//! neighbours on the host an operation's CPU cost has two modes — caller and
//! worker on one core, or on two — and the median of a two-mode sample jumps
//! from one mode to the other with the mixture, where the pooled value moves
//! with it smoothly (README, host notes). The median is taken one level up,
//! over the trials, where it discards a whole disturbed trial.
//!
//! The windows themselves stay on record: a trial's result carries them, so
//! the per-layer pass reads `host.speed` and `proc.parallelism` from them and
//! `tools/ten_runs.py` puts the median-of-windows statistic next to the
//! pooled one for the same runs.

use serde::{Deserialize, Serialize};

/// A run of back-to-back operations followed by one reference burst. It is
/// the unit the child records; a [`Window`] is a sum of chunks and has the
/// same fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Chunk {
    /// Work items the operations completed (parameters updated, or
    /// training iterations).
    pub work: u64,
    /// Operations in the chunk.
    pub ops: u64,
    /// Process CPU-seconds the operations consumed, all threads.
    pub op_cpu: f64,
    /// Wall seconds the operations took.
    pub op_wall: f64,
    /// CPU-seconds the reference burst costs on the quiet defining machine.
    pub ref_nominal: f64,
    /// CPU-seconds the burst cost here (caller thread; nothing else runs
    /// then).
    pub ref_cpu: f64,
    /// Wall seconds of operations and burst together.
    pub wall: f64,
}

/// A window: the sum of consecutive chunks.
pub type Window = Chunk;

impl Chunk {
    fn add(&mut self, c: &Chunk) {
        self.work += c.work;
        self.ops += c.ops;
        self.op_cpu += c.op_cpu;
        self.op_wall += c.op_wall;
        self.ref_nominal += c.ref_nominal;
        self.ref_cpu += c.ref_cpu;
        self.wall += c.wall;
    }

    /// Work items per CPU-second of the operations.
    pub fn cpu_rate(&self) -> f64 {
        self.work as f64 / self.op_cpu
    }

    /// The host's speed while the window ran: the reference bursts' nominal
    /// cost over what they cost here (about 1 on a quiet defining machine).
    pub fn host(&self) -> f64 {
        self.ref_nominal / self.ref_cpu
    }

    /// The window's value: work per CPU-second relative to the host's speed.
    pub fn value(&self) -> f64 {
        self.cpu_rate() / self.host()
    }

    /// CPU-seconds per wall second of the operations: how many of the
    /// program's threads ran at once, on average.
    pub fn parallelism(&self) -> f64 {
        self.op_cpu / self.op_wall
    }
}

/// Groups chunks, in order, into windows of at least `window_secs` of wall
/// time. A last window shorter than half of that is merged into the one
/// before it, so no window's value rests on a handful of operations.
pub fn fold(chunks: &[Chunk], window_secs: f64) -> Vec<Window> {
    let mut windows: Vec<Window> = Vec::new();
    let mut open = Window::default();
    for c in chunks {
        open.add(c);
        if open.wall >= window_secs {
            windows.push(std::mem::take(&mut open));
        }
    }
    if open.ops > 0 {
        match windows.last_mut() {
            Some(prev) if open.wall < window_secs / 2.0 => prev.add(&open),
            _ => windows.push(open),
        }
    }
    windows
}

/// The sum of `windows`: the trial as one window, whose [`Chunk::value`] is
/// the trial's value.
pub fn pooled(windows: &[Window]) -> Window {
    let mut all = Window::default();
    for w in windows {
        all.add(w);
    }
    all
}

/// The window with the highest parallelism — the one in which the program's
/// threads were descheduled least.
///
/// # Panics
///
/// Panics if `windows` is empty.
pub fn least_disturbed(windows: &[Window]) -> &Window {
    windows
        .iter()
        .max_by(|a, b| {
            a.parallelism()
                .partial_cmp(&b.parallelism())
                .expect("finite")
        })
        .expect("at least one window")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(work: u64, op_cpu: f64, ref_cpu: f64, wall: f64) -> Chunk {
        Chunk {
            work,
            ops: 1,
            op_cpu,
            op_wall: wall * 0.9,
            ref_nominal: 0.01,
            ref_cpu,
            wall,
        }
    }

    #[test]
    fn windows_close_once_they_reach_the_target() {
        let chunks = vec![chunk(10, 0.4, 0.01, 0.45); 7];
        let w = fold(&chunks, 1.0);
        // 3 chunks reach 1.35 s; 7 chunks = 2 windows + 1 chunk of tail.
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].ops, 3);
        // The 0.45 s tail is under half a window: merged into the last.
        assert_eq!(w[1].ops, 4);
        assert_eq!(w.iter().map(|x| x.work).sum::<u64>(), 70);
    }

    #[test]
    fn a_long_tail_stays_its_own_window() {
        let chunks = vec![chunk(10, 0.3, 0.01, 0.35); 5];
        let w = fold(&chunks, 1.0);
        // 3 chunks = 1.05 s, then 2 chunks = 0.70 s >= half a window.
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].ops, w[1].ops), (3, 2));
    }

    #[test]
    fn a_run_shorter_than_one_window_is_one_window() {
        let w = fold(&[chunk(10, 0.1, 0.01, 0.2)], 1.0);
        assert_eq!(w.len(), 1);
        assert!(fold(&[], 1.0).is_empty());
    }

    #[test]
    fn a_slower_host_cancels_out_of_the_value() {
        // Quiet: 100 items in 1 CPU-s, the reference at its nominal cost.
        let quiet = Chunk {
            work: 100,
            ops: 1,
            op_cpu: 1.0,
            op_wall: 1.0,
            ref_nominal: 1.0,
            ref_cpu: 1.0,
            wall: 2.0,
        };
        // Host 25 % slower for both: work and bursts cost 1.25x the CPU.
        let slow = Chunk {
            op_cpu: 1.25,
            ref_cpu: 1.25,
            ..quiet
        };
        assert!((quiet.value() - slow.value()).abs() < 1e-12 * quiet.value());
        assert!(slow.cpu_rate() < quiet.cpu_rate());
        assert!(slow.host() < quiet.host());
    }

    #[test]
    fn pooling_sums_the_windows_and_parallelism_picks_the_quietest() {
        let mut a = chunk(100, 1.0, 0.01, 1.0);
        let mut b = chunk(300, 1.0, 0.01, 1.0);
        let c = chunk(200, 2.0, 0.02, 2.0);
        a.op_wall = 1.0; // parallelism 1.0
        b.op_wall = 0.5; // parallelism 2.0
        let windows = [a, b, c];
        // 600 items in 4 CPU-s; bursts nominally 0.03 s cost 0.04 s here.
        let want = (600.0 / 4.0) / (0.03 / 0.04);
        assert!((pooled(&windows).value() - want).abs() < 1e-9 * want);
        // Two modes, 100/s and 300/s at equal host speed: the pooled value
        // sits between them in proportion to the CPU time spent in each.
        let two_modes = [a, a, a, b];
        let v = pooled(&two_modes).value() * two_modes[0].host();
        assert!((v - 150.0).abs() < 1e-9, "{v}");
        assert_eq!(least_disturbed(&windows).work, 300);
    }
}
