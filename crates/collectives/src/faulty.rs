//! Fault-injecting transport wrapper driven by a seeded plan.
//!
//! [`FaultyTransport`] wraps any [`Transport`] and perturbs delivery the
//! way a lossy interconnect would: per-frame drops, duplication, tick-based
//! delays (whose variance also reorders frames across peers), scheduled
//! per-rank disconnects, and partition windows between rank pairs. Every
//! fate is a pure hash of `(plan seed, source, destination, wire_seq)`, so
//! a plan replays identically over the same traffic — and because
//! retransmissions carry *fresh* wire sequence numbers, a retry re-rolls
//! the dice instead of deterministically re-dropping.
//!
//! Message-level fates (drop / delay / dup) only make sense when the
//! collectives run in deadline mode, where timeouts trigger resend
//! requests; the blocking `recv` path (used under `dos-check`, which has
//! no clock) applies only the permanent rules — disconnects — and delivers
//! everything else verbatim.

// Relaxed counters local to one rank's endpoint — never a cross-thread
// handshake, so no interleaving hides from the explorer.
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering}; // check-hygiene: allow
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use dos_telemetry::Tracer;

use crate::transport::{Frame, FrameKind, Transport, TransportError};

/// When a scheduled disconnect fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DisconnectPoint {
    /// At the start of this training epoch (iteration), as reported via
    /// [`Transport::set_epoch`].
    Epoch(u64),
    /// After this many frames have been sent by the rank — lands *inside*
    /// a collective, which is how the kill-a-rank-mid-`all_reduce` tests
    /// hit a seeded point.
    Frame(u64),
}

/// A scheduled permanent disconnect of one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DisconnectRule {
    /// The rank whose endpoint dies.
    pub rank: usize,
    /// When it dies.
    pub at: DisconnectPoint,
}

/// A temporary partition between two ranks over an epoch window: frames
/// between `a` and `b` (both directions) are dropped while
/// `from_epoch <= epoch < until_epoch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionWindow {
    /// One side of the cut.
    pub a: usize,
    /// The other side.
    pub b: usize,
    /// First affected epoch (inclusive).
    pub from_epoch: u64,
    /// First unaffected epoch (exclusive).
    pub until_epoch: u64,
}

/// Seeded description of how a [`FaultyTransport`] misbehaves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransportFaultPlan {
    /// Hash seed; the same seed over the same traffic replays identically.
    pub seed: u64,
    /// Per-frame drop probability in [0, 1].
    pub drop_p: f64,
    /// Per-frame duplication probability in [0, 1].
    pub dup_p: f64,
    /// Inclusive range of delivery delays in receiver poll ticks; applied
    /// to every frame (a frame delayed longer than a later one reorders).
    pub delay_ticks: Option<(u64, u64)>,
    /// Scheduled permanent disconnects.
    pub disconnects: Vec<DisconnectRule>,
    /// Temporary partitions.
    pub partitions: Vec<PartitionWindow>,
}

impl TransportFaultPlan {
    /// A plan that injects nothing.
    pub fn none(seed: u64) -> TransportFaultPlan {
        TransportFaultPlan {
            seed,
            drop_p: 0.0,
            dup_p: 0.0,
            delay_ticks: None,
            disconnects: Vec::new(),
            partitions: Vec::new(),
        }
    }

    /// This plan minus its permanent failures (disconnects and
    /// partitions): what elastic recovery re-arms survivors with, and what
    /// the bitwise-vs-fault-free checks run, since drops/delays/dups are
    /// proven invisible to numerics while permanent failures are not.
    pub fn without_permanent_failures(&self) -> TransportFaultPlan {
        TransportFaultPlan { disconnects: Vec::new(), partitions: Vec::new(), ..self.clone() }
    }

    /// Whether any rule can perturb traffic at all.
    pub fn is_noop(&self) -> bool {
        self.drop_p <= 0.0
            && self.dup_p <= 0.0
            && self.delay_ticks.is_none()
            && self.disconnects.is_empty()
            && self.partitions.is_empty()
    }

    /// Parses the CLI spec grammar: comma-separated terms among
    /// `drop:P`, `dup:P`, `delay:LO..HI`, `disconnect:rankR@iterN`,
    /// `disconnect:rankR@frameN`, and `part:A-B@LO..HI`.
    ///
    /// ```
    /// use dos_collectives::TransportFaultPlan;
    /// let plan = TransportFaultPlan::parse("drop:0.05,delay:1..3,disconnect:rank1@iter3", 7)
    ///     .unwrap();
    /// assert_eq!(plan.drop_p, 0.05);
    /// assert_eq!(plan.delay_ticks, Some((1, 3)));
    /// assert_eq!(plan.disconnects.len(), 1);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed term.
    pub fn parse(spec: &str, seed: u64) -> Result<TransportFaultPlan, String> {
        let mut plan = TransportFaultPlan::none(seed);
        for term in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (key, value) = term
                .split_once(':')
                .ok_or_else(|| format!("fault term `{term}` is missing `:`"))?;
            match key {
                "drop" => plan.drop_p = parse_probability(value, term)?,
                "dup" => plan.dup_p = parse_probability(value, term)?,
                "delay" => plan.delay_ticks = Some(parse_range(value, term)?),
                "disconnect" => {
                    let (rank_part, at_part) = value
                        .split_once('@')
                        .ok_or_else(|| format!("`{term}`: expected rankR@iterN or rankR@frameN"))?;
                    let rank = rank_part
                        .strip_prefix("rank")
                        .and_then(|r| r.parse::<usize>().ok())
                        .ok_or_else(|| format!("`{term}`: expected rankR"))?;
                    let at = if let Some(n) = at_part.strip_prefix("iter") {
                        DisconnectPoint::Epoch(
                            n.parse().map_err(|_| format!("`{term}`: bad iteration"))?,
                        )
                    } else if let Some(n) = at_part.strip_prefix("frame") {
                        DisconnectPoint::Frame(
                            n.parse().map_err(|_| format!("`{term}`: bad frame count"))?,
                        )
                    } else {
                        return Err(format!("`{term}`: expected @iterN or @frameN"));
                    };
                    plan.disconnects.push(DisconnectRule { rank, at });
                }
                "part" => {
                    let (pair, window) = value
                        .split_once('@')
                        .ok_or_else(|| format!("`{term}`: expected A-B@LO..HI"))?;
                    let (a, b) = pair
                        .split_once('-')
                        .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
                        .ok_or_else(|| format!("`{term}`: expected rank pair A-B"))?;
                    let (from_epoch, until_epoch) = parse_range(window, term)?;
                    plan.partitions.push(PartitionWindow {
                        a,
                        b,
                        from_epoch,
                        until_epoch: until_epoch.saturating_add(1),
                    });
                }
                other => return Err(format!("unknown fault kind `{other}` in `{term}`")),
            }
        }
        Ok(plan)
    }
}

fn parse_probability(value: &str, term: &str) -> Result<f64, String> {
    let p: f64 = value.parse().map_err(|_| format!("`{term}`: bad probability"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("`{term}`: probability must be in [0, 1]"));
    }
    Ok(p)
}

fn parse_range(value: &str, term: &str) -> Result<(u64, u64), String> {
    let (lo, hi) = value
        .split_once("..")
        .and_then(|(lo, hi)| Some((lo.parse().ok()?, hi.parse().ok()?)))
        .ok_or_else(|| format!("`{term}`: expected LO..HI"))?;
    if lo > hi {
        return Err(format!("`{term}`: range is inverted"));
    }
    Ok((lo, hi))
}

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic uniform draw in [0, 1) from the fate coordinates.
fn roll(seed: u64, from: usize, to: usize, wire_seq: u64, salt: u64) -> f64 {
    let mut x = seed
        ^ (from as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (to as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
        ^ wire_seq.wrapping_mul(0x1656_67b1_9e37_79f9)
        ^ salt;
    (splitmix64(&mut x) >> 11) as f64 / (1u64 << 53) as f64
}

/// A [`Transport`] decorator that injects the faults of a
/// [`TransportFaultPlan`], mirroring each injection as a
/// `fault:collective:*` tracer instant so the flight recorder captures the
/// incident.
pub struct FaultyTransport {
    inner: Box<dyn Transport>,
    plan: TransportFaultPlan,
    epoch: AtomicU64,
    sent_frames: AtomicU64,
    killed: AtomicBool,
    tick: AtomicU64,
    /// Per-source-peer jitter buffers of `(due_tick, frame)`.
    jitter: Mutex<Vec<Vec<(u64, Frame)>>>,
    tracer: Option<Arc<Tracer>>,
}

impl std::fmt::Debug for FaultyTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyTransport")
            .field("rank", &self.inner.rank())
            .field("plan", &self.plan)
            .finish_non_exhaustive()
    }
}

impl FaultyTransport {
    /// Wraps `inner` with the fault plan.
    pub fn new(inner: Box<dyn Transport>, plan: TransportFaultPlan) -> FaultyTransport {
        let world = inner.world_size();
        FaultyTransport {
            inner,
            plan,
            epoch: AtomicU64::new(0),
            sent_frames: AtomicU64::new(0),
            killed: AtomicBool::new(false),
            tick: AtomicU64::new(0),
            jitter: Mutex::new(vec![Vec::new(); world]),
            tracer: None,
        }
    }

    /// Attaches a tracer for `fault:collective:*` instants.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> FaultyTransport {
        self.tracer = Some(tracer);
        self
    }

    fn instant(&self, name: &str) {
        if let Some(t) = &self.tracer {
            t.instant(name, "transport");
        }
    }

    /// Whether this rank's endpoint is (now) dead per the disconnect rules.
    fn check_killed(&self) -> bool {
        if self.killed.load(Ordering::Relaxed) {
            return true;
        }
        let rank = self.inner.rank();
        let epoch = self.epoch.load(Ordering::Relaxed);
        let sent = self.sent_frames.load(Ordering::Relaxed);
        let dead = self.plan.disconnects.iter().any(|d| {
            d.rank == rank
                && match d.at {
                    DisconnectPoint::Epoch(e) => epoch >= e,
                    DisconnectPoint::Frame(n) => sent >= n,
                }
        });
        if dead && !self.killed.swap(true, Ordering::Relaxed) {
            self.instant("fault:collective:disconnect");
        }
        dead
    }

    fn partitioned(&self, peer: usize) -> bool {
        let rank = self.inner.rank();
        let epoch = self.epoch.load(Ordering::Relaxed);
        self.plan.partitions.iter().any(|w| {
            ((w.a == rank && w.b == peer) || (w.a == peer && w.b == rank))
                && epoch >= w.from_epoch
                && epoch < w.until_epoch
        })
    }

    fn pop_due(&self, from: usize, now: u64) -> Option<Frame> {
        let mut jitter = self.jitter.lock();
        let queue = &mut jitter[from];
        let idx = queue.iter().position(|(due, _)| *due <= now)?;
        Some(queue.remove(idx).1)
    }

    /// Applies receiver-side fates; `None` means the frame was consumed by
    /// a fate (dropped or parked) and the caller should keep polling.
    fn admit(&self, from: usize, frame: Frame, now: u64) -> Option<Frame> {
        if self.partitioned(from) {
            self.instant("fault:collective:partition");
            return None;
        }
        let rank = self.inner.rank();
        // Heartbeats are exempt from drop/delay: failure detection timing
        // is the detector's own contract, not the lossy link's.
        let lossy = frame.kind == FrameKind::Data || frame.kind == FrameKind::Resend;
        if lossy {
            let u = roll(self.plan.seed, from, rank, frame.wire_seq, 0x01);
            if u < self.plan.drop_p {
                self.instant("fault:collective:drop");
                return None;
            }
            if u < self.plan.drop_p + self.plan.dup_p {
                self.instant("fault:collective:dup");
                self.jitter.lock()[from].push((now + 1, frame.clone()));
            }
            if let Some((lo, hi)) = self.plan.delay_ticks {
                let d = lo + splitmix_pick(self.plan.seed, from, rank, frame.wire_seq, hi - lo + 1);
                if d > 0 {
                    self.instant("fault:collective:delay");
                    self.jitter.lock()[from].push((now + d, frame));
                    return None;
                }
            }
        }
        Some(frame)
    }
}

fn splitmix_pick(seed: u64, from: usize, to: usize, wire_seq: u64, span: u64) -> u64 {
    let mut x = seed
        ^ 0x5bd1_e995
        ^ (from as u64).rotate_left(17)
        ^ (to as u64).rotate_left(31)
        ^ wire_seq.wrapping_mul(0x2545_f491_4f6c_dd1d);
    splitmix64(&mut x) % span.max(1)
}

impl Transport for FaultyTransport {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn world_size(&self) -> usize {
        self.inner.world_size()
    }

    fn send(&self, to: usize, frame: Frame) -> Result<(), TransportError> {
        if self.check_killed() {
            return Err(TransportError::Disconnected { peer: self.inner.rank() });
        }
        self.sent_frames.fetch_add(1, Ordering::Relaxed);
        self.inner.send(to, frame)
    }

    fn recv(&self, from: usize) -> Result<Frame, TransportError> {
        loop {
            if self.check_killed() {
                return Err(TransportError::Disconnected { peer: self.inner.rank() });
            }
            let frame = self.inner.recv(from)?;
            // No clock on the blocking path: only permanent rules apply
            // (see module docs), so deliver verbatim.
            if !self.partitioned(from) {
                return Ok(frame);
            }
            self.instant("fault:collective:partition");
        }
    }

    fn recv_timeout(&self, from: usize, timeout: Duration) -> Result<Frame, TransportError> {
        if self.check_killed() {
            return Err(TransportError::Disconnected { peer: self.inner.rank() });
        }
        let now = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(frame) = self.pop_due(from, now) {
            return Ok(frame);
        }
        let frame = self.inner.recv_timeout(from, timeout)?;
        self.admit(from, frame, now).ok_or(TransportError::Timeout { peer: from })
    }

    fn set_epoch(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::Relaxed);
        self.inner.set_epoch(epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inproc::InProcTransport;

    #[test]
    fn spec_parser_round_trips_the_ci_plan() {
        let plan =
            TransportFaultPlan::parse("drop:0.05,delay:1..3,disconnect:rank1@iter3", 7).unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.drop_p, 0.05);
        assert_eq!(plan.delay_ticks, Some((1, 3)));
        assert_eq!(
            plan.disconnects,
            vec![DisconnectRule { rank: 1, at: DisconnectPoint::Epoch(3) }]
        );
        assert!(plan.without_permanent_failures().disconnects.is_empty());
    }

    #[test]
    fn spec_parser_rejects_malformed_terms() {
        assert!(TransportFaultPlan::parse("drop:1.5", 0).is_err());
        assert!(TransportFaultPlan::parse("delay:3..1", 0).is_err());
        assert!(TransportFaultPlan::parse("disconnect:rank1", 0).is_err());
        assert!(TransportFaultPlan::parse("flood:9", 0).is_err());
        assert!(TransportFaultPlan::parse("part:0-1@2..4", 0).is_ok());
    }

    #[test]
    fn drops_are_deterministic_per_seed() {
        let count_drops = |seed: u64| {
            let mut world = InProcTransport::world(2);
            let t1 = world.pop().unwrap();
            let t0 = world.pop().unwrap();
            let plan = TransportFaultPlan {
                drop_p: 0.5,
                ..TransportFaultPlan::none(seed)
            };
            let f1 = FaultyTransport::new(Box::new(t1), plan);
            let mut delivered = 0;
            for wire in 0..64 {
                t0.send(1, Frame::data(wire, wire, vec![wire as u8])).unwrap();
                if f1.recv_timeout(0, Duration::from_millis(5)).is_ok() {
                    delivered += 1;
                }
            }
            delivered
        };
        let a = count_drops(7);
        assert_eq!(a, count_drops(7), "same seed must replay identically");
        assert!(a > 0 && a < 64, "drop_p=0.5 should lose some but not all ({a}/64)");
    }

    #[test]
    fn frame_disconnect_kills_the_sender_side() {
        let mut world = InProcTransport::world(2);
        let _t1 = world.pop().unwrap();
        let t0 = world.pop().unwrap();
        let plan = TransportFaultPlan {
            disconnects: vec![DisconnectRule { rank: 0, at: DisconnectPoint::Frame(2) }],
            ..TransportFaultPlan::none(0)
        };
        let f0 = FaultyTransport::new(Box::new(t0), plan);
        f0.send(1, Frame::heartbeat(0)).unwrap();
        f0.send(1, Frame::heartbeat(1)).unwrap();
        assert_eq!(
            f0.send(1, Frame::heartbeat(2)),
            Err(TransportError::Disconnected { peer: 0 })
        );
        assert_eq!(
            f0.recv_timeout(1, Duration::from_millis(1)),
            Err(TransportError::Disconnected { peer: 0 })
        );
    }

    #[test]
    fn delayed_frames_surface_after_enough_polls() {
        let mut world = InProcTransport::world(2);
        let t1 = world.pop().unwrap();
        let t0 = world.pop().unwrap();
        let plan = TransportFaultPlan {
            delay_ticks: Some((1, 1)),
            ..TransportFaultPlan::none(3)
        };
        let f1 = FaultyTransport::new(Box::new(t1), plan);
        t0.send(1, Frame::data(0, 1, vec![5])).unwrap();
        // First poll parks the frame in the jitter buffer...
        assert!(f1.recv_timeout(0, Duration::from_millis(5)).is_err());
        // ...a later poll delivers it.
        let got = f1.recv_timeout(0, Duration::from_millis(5)).unwrap();
        assert_eq!(*got.payload, [5]);
    }
}
