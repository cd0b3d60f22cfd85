//! Functional collectives over a pluggable, fault-tolerant transport.
//!
//! Real multi-worker collectives used by the functional data-parallel
//! trainer, all written in one primitive: a **personalised exchange** over
//! a full [`Transport`] mesh, in which a rank hands every peer the bytes
//! *that peer* needs and receives what each rank sent here. A
//! reduce-scatter sends peer `p` only chunk `p`; the gathers, the
//! all-reduce and the barrier hand every peer the same shared payload.
//! Contributions are reduced **in rank order**, so the result is bitwise
//! identical regardless of arrival order, retransmissions, or which
//! backend carried the frames. Semantically equivalent to NCCL's
//! `all_reduce`, `all_gather`, and `reduce_scatter` (sum reduction), which
//! the ZeRO stages are built on.
//!
//! Robustness (deadline mode, `timeout: Some(_)`):
//!
//! * every collective has a per-op deadline; while waiting, ranks poll
//!   peers round-robin in short slices and emit heartbeats;
//! * suspected losses trigger retransmission of the rank's own
//!   contribution plus a [`FrameKind::Resend`] request, backed off per the
//!   shared [`RetryPolicy`]; contributions are sequence-numbered and
//!   deduped, so a duplicate delivery can never double-count — retries are
//!   bitwise-exact;
//! * a peer that is both past the deadline and silent for several
//!   heartbeat intervals — or whose link is gone — is reported as
//!   [`CollectiveError::RankFailed`]; a peer that is alive but slow is a
//!   [`CollectiveError::Timeout`]. Callers (the elastic trainer) decide
//!   whether to evict or to keep waiting.
//!
//! Blocking mode (`timeout: None`) has no clock: ranks block per-peer in
//! rank order, and liveness comes from disconnect propagation — a rank
//! that panics unwinds, drops its transport, and every peer blocked on it
//! gets [`CollectiveError::RankFailed`] instead of hanging (the barrier
//! poisoning fix). This is also the mode `dos-check` explores, where the
//! cooperative scheduler's deadlock detector subsumes timeouts.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use dos_hal::RetryPolicy;
use dos_tensor::{kernels, F16};

use crate::transport::{Frame, FrameKind, Payload, Transport, TransportError, CHECKSUM, HEADER};
use crate::InProcTransport;

/// How many completed ops' payloads each rank keeps for serving resend
/// requests (and absorbing very stale duplicates).
const HISTORY: usize = 8;

/// Wire bytes around every payload (header and checksum), charged per
/// frame by [`Communicator::bytes_sent`] whichever transport carries it.
const FRAMING: usize = HEADER + CHECKSUM;

/// Errors from collective operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CollectiveError {
    /// Ranks contributed buffers of different lengths to an operation that
    /// requires uniform lengths.
    LengthMismatch {
        /// The lengths observed, by rank.
        lengths: Vec<usize>,
    },
    /// A buffer could not be evenly partitioned across ranks.
    UnevenPartition {
        /// Buffer length.
        len: usize,
        /// World size.
        world: usize,
    },
    /// The per-op deadline elapsed but the slow peer was recently heard
    /// from (alive, just late). Retryable by the caller.
    Timeout {
        /// Which collective timed out.
        op: &'static str,
        /// The peer the operation was stuck on.
        rank: usize,
        /// Time spent in the operation before giving up.
        elapsed: Duration,
    },
    /// A peer is gone: its link disconnected, or it stayed silent past the
    /// deadline and several heartbeat intervals.
    RankFailed {
        /// The dead peer (the local rank itself when the local endpoint
        /// was torn down, e.g. by an injected disconnect).
        rank: usize,
        /// The collective that observed the failure.
        op: &'static str,
    },
    /// The transport failed in a way retries could not absorb.
    Transport {
        /// The collective that observed the failure.
        op: &'static str,
        /// Underlying transport error.
        detail: String,
    },
}

impl std::fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CollectiveError::LengthMismatch { lengths } => {
                write!(f, "ranks contributed different lengths: {lengths:?}")
            }
            CollectiveError::UnevenPartition { len, world } => {
                write!(f, "buffer of {len} elements does not partition across {world} ranks")
            }
            CollectiveError::Timeout { op, rank, elapsed } => {
                write!(f, "{op} timed out after {elapsed:?} waiting on rank {rank}")
            }
            CollectiveError::RankFailed { rank, op } => {
                write!(f, "rank {rank} failed during {op}")
            }
            CollectiveError::Transport { op, detail } => {
                write!(f, "transport error during {op}: {detail}")
            }
        }
    }
}

impl std::error::Error for CollectiveError {}

/// Deadline / retry / heartbeat parameters of a [`Communicator`].
#[derive(Debug, Clone)]
pub struct CollectiveConfig {
    /// Per-operation deadline. `None` selects blocking mode (no clock —
    /// required under `dos-check`); `Some` selects deadline mode with
    /// heartbeats, retransmits, and failure detection.
    pub timeout: Option<Duration>,
    /// Backoff schedule for loss-suspected retransmits (shared with the
    /// HAL's fault model, so chaos campaigns tune one policy).
    pub retry: RetryPolicy,
    /// Heartbeat interval; the poll slice is a quarter of it. A peer
    /// silent for `3 * heartbeat` past the deadline is declared failed.
    pub heartbeat: Duration,
}

impl Default for CollectiveConfig {
    fn default() -> CollectiveConfig {
        CollectiveConfig {
            timeout: None,
            retry: RetryPolicy::default(),
            heartbeat: Duration::from_millis(25),
        }
    }
}

impl CollectiveConfig {
    /// Deadline mode with the given per-op timeout.
    pub fn with_timeout(timeout: Duration) -> CollectiveConfig {
        CollectiveConfig { timeout: Some(timeout), ..CollectiveConfig::default() }
    }

    fn backoff_after(&self, attempt: u32) -> Duration {
        let base = self.retry.backoff.as_secs().max(1e-4);
        Duration::from_secs_f64(base * self.retry.backoff_multiplier.powi(attempt as i32))
    }
}

struct CommState {
    /// Monotonic collective-operation counter (identical across ranks by
    /// SPMD construction: every rank issues the same op sequence).
    op_seq: u64,
    /// Per-link transmission counter; fresh per send, including resends.
    wire_seq: u64,
    /// Out-of-order buffer: `inbox[peer][op] = payload` for ops ahead of
    /// the one currently being collected.
    inbox: Vec<BTreeMap<u64, Payload>>,
    /// Recent own contributions — `(op, parts)`, `parts[p]` being what
    /// went to peer `p` — kept to serve each peer's resend requests
    /// byte-identically.
    history: Vec<(u64, Vec<Payload>)>,
    /// Bytes handed to the transport so far, framing included.
    bytes_sent: u64,
}

/// One rank's handle to a world of collective peers.
///
/// Create an in-process world with [`Communicator::world`], hand one
/// handle to each thread, and call the collective methods; every method
/// completes once all ranks of the world have called it (or returns a
/// typed error once a peer is known dead or too slow).
///
/// # Examples
///
/// ```
/// use dos_collectives::Communicator;
/// use std::thread;
///
/// let comms = Communicator::world(2);
/// let handles: Vec<_> = comms
///     .into_iter()
///     .enumerate()
///     .map(|(r, comm)| {
///         thread::spawn(move || {
///             let mut data = vec![r as f32 + 1.0; 4];
///             comm.all_reduce_sum(&mut data).unwrap();
///             data
///         })
///     })
///     .collect();
/// for h in handles {
///     assert_eq!(h.join().unwrap(), vec![3.0; 4]);
/// }
/// ```
pub struct Communicator {
    transport: Box<dyn Transport>,
    cfg: CollectiveConfig,
    state: Mutex<CommState>,
}

impl std::fmt::Debug for Communicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Communicator")
            .field("rank", &self.rank())
            .field("world", &self.world_size())
            .field("cfg", &self.cfg)
            .finish()
    }
}

/// An element the collectives move: `N` little-endian bytes on the wire.
trait Wire<const N: usize>: Copy {
    fn to_le(self) -> [u8; N];
    fn from_le(bytes: [u8; N]) -> Self;
}

impl Wire<4> for f32 {
    fn to_le(self) -> [u8; 4] {
        self.to_le_bytes()
    }

    fn from_le(bytes: [u8; 4]) -> f32 {
        f32::from_le_bytes(bytes)
    }
}

impl Wire<2> for F16 {
    fn to_le(self) -> [u8; 2] {
        self.to_bits().to_le_bytes()
    }

    fn from_le(bytes: [u8; 2]) -> F16 {
        F16::from_bits(u16::from_le_bytes(bytes))
    }
}

/// The one pass that turns a caller's slice into a frame payload.
fn encode<const N: usize, T: Wire<N>>(data: &[T]) -> Payload {
    data.iter().flat_map(|v| v.to_le()).collect::<Vec<u8>>().into()
}

/// The elements of a received payload, read straight from its bytes.
fn decode<const N: usize, T: Wire<N>>(bytes: &[u8]) -> impl Iterator<Item = T> + '_ {
    bytes.as_chunks::<N>().0.iter().map(|b| T::from_le(*b))
}

/// `out[i] += contribution[i]`, in place over the received bytes.
fn accumulate(out: &mut [f32], contribution: &[u8]) {
    for (o, c) in out.iter_mut().zip(decode::<4, f32>(contribution)) {
        *o += c;
    }
}

/// `own[i] = (+0.0 + c₀[i] + … + c_{world−1}[i]) · scale`, the sum in rank
/// order, where `got[p]` holds rank `p`'s contribution in received bytes
/// and this rank's own is what `own` holds on entry: the reduce-scatter's
/// one pass, a block at a time so that the sums stay in the cache.
fn reduce_into(own: &mut [f32], got: &[Payload], rank: usize, scale: f32) {
    const BLOCK: usize = 1024;
    let mut sum = [0.0f32; BLOCK];
    for (b, own) in own.chunks_mut(BLOCK).enumerate() {
        let sum = &mut sum[..own.len()];
        sum.fill(0.0);
        for (p, contribution) in got.iter().enumerate() {
            if p == rank {
                for (s, o) in sum.iter_mut().zip(&*own) {
                    *s += o;
                }
            } else {
                accumulate(sum, &contribution[b * BLOCK * size_of::<f32>()..]);
            }
        }
        for (o, s) in own.iter_mut().zip(&*sum) {
            *o = s * scale;
        }
    }
}

/// Widens a payload of FP16 halves into `out` on [`kernels::upscale`],
/// through a block of halves on the stack.
fn upscale_into(out: &mut [f32], contribution: &[u8]) {
    let mut halves = [F16::ZERO; 1024];
    for (o, bytes) in out.chunks_mut(halves.len()).zip(contribution.chunks(2 * halves.len())) {
        let halves = &mut halves[..o.len()];
        for (h, v) in halves.iter_mut().zip(decode::<2, F16>(bytes)) {
            *h = v;
        }
        kernels::upscale(halves, o);
    }
}

/// [`CollectiveError::LengthMismatch`] unless every contribution holds
/// `len` elements of `size` bytes.
fn same_lengths(got: &[Payload], size: usize, len: usize) -> Result<(), CollectiveError> {
    if got.iter().all(|c| c.len() == len * size) {
        return Ok(());
    }
    Err(CollectiveError::LengthMismatch {
        lengths: got.iter().map(|c| c.len() / size).collect(),
    })
}

fn link_error(op: &'static str, e: TransportError) -> CollectiveError {
    match e {
        TransportError::Disconnected { peer } => CollectiveError::RankFailed { rank: peer, op },
        other => CollectiveError::Transport { op, detail: other.to_string() },
    }
}

impl Communicator {
    /// Wraps a transport endpoint with the collective layer.
    pub fn new(transport: Box<dyn Transport>, cfg: CollectiveConfig) -> Communicator {
        let world = transport.world_size();
        Communicator {
            transport,
            cfg,
            state: Mutex::new(CommState {
                op_seq: 0,
                wire_seq: 0,
                inbox: vec![BTreeMap::new(); world],
                history: Vec::new(),
                bytes_sent: 0,
            }),
        }
    }

    /// Creates the handles for an in-process world of `world` ranks in
    /// blocking mode (the historical default).
    ///
    /// # Panics
    ///
    /// Panics if `world` is zero.
    pub fn world(world: usize) -> Vec<Communicator> {
        Communicator::world_with(world, CollectiveConfig::default())
    }

    /// Creates an in-process world with an explicit [`CollectiveConfig`].
    ///
    /// # Panics
    ///
    /// Panics if `world` is zero.
    pub fn world_with(world: usize, cfg: CollectiveConfig) -> Vec<Communicator> {
        InProcTransport::world(world)
            .into_iter()
            .map(|t| Communicator::new(Box::new(t), cfg.clone()))
            .collect()
    }

    /// This handle's rank.
    pub fn rank(&self) -> usize {
        self.transport.rank()
    }

    /// World size.
    pub fn world_size(&self) -> usize {
        self.transport.world_size()
    }

    /// Forwards the training epoch to the transport (fault plans key
    /// scheduled disconnects and partition windows off it).
    pub fn set_epoch(&self, epoch: u64) {
        self.transport.set_epoch(epoch);
    }

    /// Every byte this rank has handed its transport so far: each frame's
    /// payload plus 33 bytes of framing, with retransmissions, resend
    /// requests, heartbeats and `Bye`s included. The same traffic counts
    /// the same on every backend (in-process frames are charged the
    /// framing a socket would add).
    pub fn bytes_sent(&self) -> u64 {
        self.state.lock().bytes_sent
    }

    /// Hands one frame to the transport under a fresh wire number and
    /// charges its bytes; every send of the collective layer goes through
    /// here.
    fn transmit(
        &self,
        st: &mut CommState,
        to: usize,
        frame: impl FnOnce(u64) -> Frame,
    ) -> Result<(), TransportError> {
        st.wire_seq += 1;
        let frame = frame(st.wire_seq);
        st.bytes_sent += (frame.payload.len() + FRAMING) as u64;
        self.transport.send(to, frame)
    }

    /// Handles one inbound frame during collection for op `opn`.
    /// Returns the payload if it completes the wait for `from`.
    fn absorb(
        &self,
        st: &mut CommState,
        from: usize,
        frame: Frame,
        opn: u64,
        have: bool,
    ) -> Option<Payload> {
        match frame.kind {
            FrameKind::Heartbeat | FrameKind::Bye => None,
            FrameKind::Resend => {
                // Serve the requester *its* part, byte-identically, from
                // history; unknown ops (older than the window) are ignored
                // — the requester has either completed them or will fail
                // by deadline.
                let part = st
                    .history
                    .iter()
                    .find(|(o, _)| *o == frame.op_seq)
                    .map(|(_, parts)| parts[from].clone());
                if let Some(part) = part {
                    let _ = self.transmit(st, from, |w| Frame::data(w, frame.op_seq, part));
                }
                None
            }
            FrameKind::Data => {
                if frame.op_seq == opn {
                    // Duplicate deliveries of the op being collected are
                    // discarded by the `have` check: idempotent.
                    if have {
                        None
                    } else {
                        Some(frame.payload)
                    }
                } else if frame.op_seq > opn {
                    // Early frame for a future op: park it.
                    st.inbox[from].entry(frame.op_seq).or_insert(frame.payload);
                    None
                } else {
                    // Stale duplicate of a completed op.
                    None
                }
            }
        }
    }

    /// The primitive every collective is written in: a personalised
    /// exchange. `parts[p]` goes to peer `p`; what each rank sent *here*
    /// comes back indexed by rank, this rank's own slot being `parts[rank]`
    /// handed back unsent. Payloads are shared, never copied: the frames,
    /// the resend history and the result hold reference counts.
    fn exchange(
        &self,
        op: &'static str,
        parts: Vec<Payload>,
    ) -> Result<Vec<Payload>, CollectiveError> {
        let world = self.world_size();
        let rank = self.rank();
        debug_assert_eq!(parts.len(), world, "one part per rank");
        if world == 1 {
            return Ok(parts);
        }
        let mut st = self.state.lock();
        st.op_seq += 1;
        let opn = st.op_seq;
        st.history.push((opn, parts.clone()));
        if st.history.len() > HISTORY {
            st.history.remove(0);
        }

        // Send phase: every peer gets its part.
        for peer in (0..world).filter(|&p| p != rank) {
            let part = parts[peer].clone();
            self.transmit(&mut st, peer, |w| Frame::data(w, opn, part))
                .map_err(|e| link_error(op, e))?;
        }

        // Collect phase.
        let mut got: Vec<Option<Payload>> = vec![None; world];
        for peer in (0..world).filter(|&p| p != rank) {
            got[peer] = st.inbox[peer].remove(&opn);
        }
        got[rank] = Some(parts[rank].clone());
        match self.cfg.timeout {
            None => self.collect_blocking(&mut st, op, opn, &mut got)?,
            Some(deadline) => self.collect_deadline(&mut st, op, opn, &parts, deadline, &mut got)?,
        }

        // Anything still buffered at or below this op is a stale duplicate.
        for peer in 0..world {
            st.inbox[peer].retain(|&o, _| o > opn);
        }
        Ok(got.into_iter().map(Option::unwrap_or_default).collect())
    }

    /// [`Communicator::exchange`] with one payload shared by every peer.
    fn exchange_same(
        &self,
        op: &'static str,
        payload: Payload,
    ) -> Result<Vec<Payload>, CollectiveError> {
        self.exchange(op, vec![payload; self.world_size()])
    }

    /// Blocking collection: per-peer, in rank order. Liveness comes from
    /// disconnect propagation (a dead peer's links error out).
    fn collect_blocking(
        &self,
        st: &mut CommState,
        op: &'static str,
        opn: u64,
        got: &mut [Option<Payload>],
    ) -> Result<(), CollectiveError> {
        for (peer, slot) in got.iter_mut().enumerate() {
            while slot.is_none() {
                let frame = self.transport.recv(peer).map_err(|e| link_error(op, e))?;
                if let Some(buf) = self.absorb(st, peer, frame, opn, slot.is_some()) {
                    *slot = Some(buf);
                }
            }
        }
        Ok(())
    }

    /// Deadline collection: round-robin short-slice polling over the
    /// missing peers, with heartbeats, backoff-scheduled retransmit
    /// nudges, and failure attribution at the deadline.
    fn collect_deadline(
        &self,
        st: &mut CommState,
        op: &'static str,
        opn: u64,
        parts: &[Payload],
        deadline: Duration,
        got: &mut [Option<Payload>],
    ) -> Result<(), CollectiveError> {
        let world = got.len();
        let start = Instant::now();
        let slice = (self.cfg.heartbeat / 4).max(Duration::from_millis(1));
        let mut last_heard = vec![start; world];
        let mut last_beat = start;
        let mut attempt = vec![0u32; world];
        let mut next_nudge = vec![start + self.cfg.backoff_after(0); world];
        loop {
            let missing: Vec<usize> = (0..world).filter(|&p| got[p].is_none()).collect();
            if missing.is_empty() {
                return Ok(());
            }
            for &peer in &missing {
                match self.transport.recv_timeout(peer, slice) {
                    Ok(frame) => {
                        last_heard[peer] = Instant::now();
                        if let Some(buf) = self.absorb(st, peer, frame, opn, got[peer].is_some()) {
                            got[peer] = Some(buf);
                        }
                    }
                    Err(TransportError::Timeout { .. }) => {}
                    Err(TransportError::Disconnected { peer: dead }) => {
                        return Err(CollectiveError::RankFailed { rank: dead, op });
                    }
                    Err(other) => {
                        attempt[peer] += 1;
                        if attempt[peer] > self.cfg.retry.max_retries {
                            return Err(CollectiveError::Transport { op, detail: other.to_string() });
                        }
                    }
                }
            }
            let now = Instant::now();
            // Heartbeats go only to peers we are still waiting on: a peer
            // we already heard from may legitimately have finished its
            // final collective and gone away.
            if now.duration_since(last_beat) >= self.cfg.heartbeat {
                for p in (0..world).filter(|p| got[*p].is_none()) {
                    if let Err(TransportError::Disconnected { peer: dead }) =
                        self.transmit(st, p, Frame::heartbeat)
                    {
                        return Err(CollectiveError::RankFailed { rank: dead, op });
                    }
                }
                last_beat = now;
            }
            // Loss-suspected nudges: retransmit the peer's part of our own
            // contribution (the peer may have lost it and be stuck waiting
            // on *us*) and request theirs. New wire numbers, same op
            // number: fault plans re-roll, receivers dedupe.
            for p in (0..world).filter(|p| got[*p].is_none()) {
                if now >= next_nudge[p] && attempt[p] <= self.cfg.retry.max_retries {
                    let part = parts[p].clone();
                    let resent = self.transmit(st, p, |w| Frame::data(w, opn, part));
                    let ask = self.transmit(st, p, |w| Frame::resend(w, opn));
                    for sent in [resent, ask] {
                        if let Err(TransportError::Disconnected { peer: dead }) = sent {
                            return Err(CollectiveError::RankFailed { rank: dead, op });
                        }
                    }
                    attempt[p] += 1;
                    next_nudge[p] = now + self.cfg.backoff_after(attempt[p]);
                }
            }
            let elapsed = now.duration_since(start);
            if elapsed >= deadline {
                let peer = *missing.first().unwrap_or(&0);
                let silent_for = now.duration_since(last_heard[peer]);
                return if silent_for > self.cfg.heartbeat * 3 {
                    Err(CollectiveError::RankFailed { rank: peer, op })
                } else {
                    Err(CollectiveError::Timeout { op, rank: peer, elapsed })
                };
            }
        }
    }

    /// Blocks until every rank reaches the barrier.
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError::RankFailed`] if a participant died
    /// before arriving (poison propagation — waiters never hang on a
    /// dead peer), or [`CollectiveError::Timeout`] in deadline mode.
    pub fn barrier(&self) -> Result<(), CollectiveError> {
        self.exchange_same("barrier", Payload::default()).map(drop)
    }

    /// Sums `data` element-wise across all ranks, in place on every rank
    /// (data parallelism's gradient averaging, before division). The sum
    /// is accumulated in rank order, independent of arrival order.
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError::LengthMismatch`] if ranks disagree on
    /// length, or a robustness error ([`CollectiveError::Timeout`],
    /// [`CollectiveError::RankFailed`], [`CollectiveError::Transport`]).
    pub fn all_reduce_sum(&self, data: &mut [f32]) -> Result<(), CollectiveError> {
        let got = self.exchange_same("all_reduce", encode(data))?;
        same_lengths(&got, size_of::<f32>(), data.len())?;
        data.fill(0.0);
        for contribution in &got {
            accumulate(data, contribution);
        }
        Ok(())
    }

    /// Gathers every rank's buffer, concatenated in rank order (ZeRO-3's
    /// layer-shard reassembly on the forward/backward path).
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError::LengthMismatch`] if ranks disagree on
    /// length, or a robustness error as for
    /// [`Communicator::all_reduce_sum`].
    pub fn all_gather(&self, data: &[f32]) -> Result<Vec<f32>, CollectiveError> {
        self.gather(data, true)
    }

    /// [`Communicator::all_gather`] of FP16 halves, two bytes per element
    /// on the wire: how the updated parameter shards travel
    /// ([`Communicator::all_gather_f16_into`] widens them on arrival).
    ///
    /// # Errors
    ///
    /// As for [`Communicator::all_gather`].
    pub fn all_gather_f16(&self, data: &[F16]) -> Result<Vec<F16>, CollectiveError> {
        self.gather(data, true)
    }

    /// [`Communicator::all_gather_f16`] widened in place: rank `p`'s
    /// halves are upscaled straight from its payload into chunk `p` of
    /// `out` (the world-padded FP32 parameters every rank trains with),
    /// bit for bit what `dos_tensor::kernels::upscale` of the gathered
    /// vector gives.
    ///
    /// # Errors
    ///
    /// As for [`Communicator::all_gather`].
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `world` times as long as `data`.
    pub fn all_gather_f16_into(&self, data: &[F16], out: &mut [f32]) -> Result<(), CollectiveError> {
        assert_eq!(out.len(), self.world_size() * data.len(), "out holds one shard per rank");
        let got = self.exchange_same("all_gather", encode(data))?;
        same_lengths(&got, size_of::<F16>(), data.len())?;
        for (p, contribution) in got.iter().enumerate() {
            upscale_into(&mut out[p * data.len()..][..data.len()], contribution);
        }
        Ok(())
    }

    /// Gathers buffers of possibly different lengths, concatenated in rank
    /// order (elastic checkpoint reassembly gathers uneven tail shards).
    ///
    /// # Errors
    ///
    /// Returns a robustness error as for [`Communicator::all_reduce_sum`].
    pub fn all_gather_var(&self, data: &[f32]) -> Result<Vec<f32>, CollectiveError> {
        self.gather(data, false)
    }

    /// The three gathers: one shared payload out, every contribution
    /// decoded once, in rank order, straight into the result.
    fn gather<const N: usize, T: Wire<N>>(
        &self,
        data: &[T],
        uniform: bool,
    ) -> Result<Vec<T>, CollectiveError> {
        let got = self.exchange_same("all_gather", encode(data))?;
        if uniform {
            same_lengths(&got, N, data.len())?;
        }
        let mut out = Vec::with_capacity(got.iter().map(|c| c.len() / N).sum());
        for contribution in &got {
            out.extend(decode::<N, T>(contribution));
        }
        Ok(out)
    }

    /// Gracefully tears down this rank's endpoint after its final
    /// collective.
    ///
    /// In deadline mode a completed contribution can still be lost on the
    /// wire: if this rank simply dropped its transport after its last op, a
    /// slower peer whose copy of the final frame was dropped could never
    /// get a retransmission and would misreport a rank failure. `shutdown`
    /// closes that race: the rank lingers — serving [`FrameKind::Resend`]
    /// requests byte-identically from history and re-broadcasting
    /// [`FrameKind::Bye`] every heartbeat interval — until every peer has
    /// said `Bye` back (or disconnected), or `grace` elapses. A peer is
    /// only marked done on `Bye`/disconnect, both of which prove it needs
    /// nothing further, so leaving early is safe.
    ///
    /// Blocking mode returns immediately: without lossy fault injection
    /// frames cannot be dropped, and polling would not be meaningful under
    /// the virtual scheduler.
    pub fn shutdown(self, grace: Duration) {
        if self.cfg.timeout.is_none() {
            return;
        }
        let world = self.world_size();
        let rank = self.rank();
        if world == 1 {
            return;
        }
        let mut st = self.state.lock();
        let opn = st.op_seq;
        let start = Instant::now();
        let slice = (self.cfg.heartbeat / 4).max(Duration::from_millis(1));
        let mut done = vec![false; world];
        done[rank] = true;
        let mut last_bye: Option<Instant> = None;
        while done.iter().any(|d| !d) && start.elapsed() < grace {
            let now = Instant::now();
            if last_bye.is_none_or(|t| now.duration_since(t) >= self.cfg.heartbeat) {
                for (p, d) in done.iter_mut().enumerate() {
                    if *d {
                        continue;
                    }
                    if self.transmit(&mut st, p, Frame::bye).is_err() {
                        *d = true;
                    }
                }
                last_bye = Some(now);
            }
            for (p, d) in done.iter_mut().enumerate() {
                if *d {
                    continue;
                }
                match self.transport.recv_timeout(p, slice) {
                    Ok(frame) if frame.kind == FrameKind::Bye => *d = true,
                    Ok(frame) => {
                        // Serve resends; stale data/heartbeats are no-ops.
                        let _ = self.absorb(&mut st, p, frame, opn + 1, true);
                    }
                    Err(TransportError::Disconnected { .. }) => *d = true,
                    Err(_) => {}
                }
            }
        }
    }

    /// Reduces (sums) full-length buffers and returns this rank's 1/world
    /// chunk (ZeRO's gradient partitioning primitive): a copy of the
    /// chunk [`Communicator::reduce_scatter_sum_in_place`] writes, unscaled.
    ///
    /// # Errors
    ///
    /// As for [`Communicator::reduce_scatter_sum_in_place`].
    pub fn reduce_scatter_sum(&self, data: &[f32]) -> Result<Vec<f32>, CollectiveError> {
        let got = self.scatter_chunks(data)?;
        let chunk = data.len() / self.world_size();
        let mut out = data[self.rank() * chunk..][..chunk].to_vec();
        reduce_into(&mut out, &got, self.rank(), 1.0);
        Ok(out)
    }

    /// Reduces (sums) full-length buffers across ranks and writes the sum of
    /// this rank's 1/world chunk, times `scale`, over that chunk of `data`
    /// (the rest of `data` is left as it was). Peer `p` is sent chunk `p`
    /// only; each sum runs over the received bytes and this rank's own
    /// chunk in rank order from `+0.0`, and `scale` multiplies it in the
    /// same pass — the bits of a sum followed by a separate scaling loop.
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError::UnevenPartition`] if the length is not a
    /// multiple of the world size, [`CollectiveError::LengthMismatch`] if
    /// ranks disagree on length, or a robustness error as for
    /// [`Communicator::all_reduce_sum`].
    pub fn reduce_scatter_sum_in_place(
        &self,
        data: &mut [f32],
        scale: f32,
    ) -> Result<(), CollectiveError> {
        let got = self.scatter_chunks(data)?;
        let chunk = data.len() / self.world_size();
        reduce_into(&mut data[self.rank() * chunk..][..chunk], &got, self.rank(), scale);
        Ok(())
    }

    /// The reduce-scatter's exchange: chunk `p` of `data` to peer `p`, and
    /// back what every peer sent here (this rank's slot empty), each
    /// checked to be one chunk long.
    fn scatter_chunks(&self, data: &[f32]) -> Result<Vec<Payload>, CollectiveError> {
        let world = self.world_size();
        let rank = self.rank();
        if !data.len().is_multiple_of(world) {
            return Err(CollectiveError::UnevenPartition { len: data.len(), world });
        }
        let chunk = data.len() / world;
        let chunk_of = |p: usize| &data[p * chunk..(p + 1) * chunk];
        let parts = (0..world)
            .map(|p| if p == rank { Payload::default() } else { encode(chunk_of(p)) })
            .collect();
        let got = self.exchange("reduce_scatter", parts)?;
        let theirs = |p: usize| p != rank;
        if (0..world).any(|p| theirs(p) && got[p].len() != chunk * size_of::<f32>()) {
            // A peer's chunk is 1/world of the buffer it was called with.
            let sent_from = |p: usize| got[p].len() / size_of::<f32>() * world;
            return Err(CollectiveError::LengthMismatch {
                lengths: (0..world)
                    .map(|p| if theirs(p) { sent_from(p) } else { data.len() })
                    .collect(),
            });
        }
        Ok(got)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faulty::{DisconnectPoint, DisconnectRule, FaultyTransport, TransportFaultPlan};
    use std::sync::Arc;
    use std::thread;

    fn run_world<F, T>(world: usize, f: F) -> Vec<T>
    where
        F: Fn(Communicator) -> T + Send + Sync + Clone + 'static,
        T: Send + 'static,
    {
        run_comms(Communicator::world(world), f)
    }

    fn run_comms<F, T>(comms: Vec<Communicator>, f: F) -> Vec<T>
    where
        F: Fn(Communicator) -> T + Send + Sync + Clone + 'static,
        T: Send + 'static,
    {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| {
                let f = f.clone();
                thread::spawn(move || f(c))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank panicked")).collect()
    }

    /// An in-process world where each rank's transport is wrapped in the
    /// given fault plan.
    fn faulty_world(world: usize, plan: &TransportFaultPlan, cfg: CollectiveConfig) -> Vec<Communicator> {
        InProcTransport::world(world)
            .into_iter()
            .map(|t| {
                Communicator::new(
                    Box::new(FaultyTransport::new(Box::new(t), plan.clone())),
                    cfg.clone(),
                )
            })
            .collect()
    }

    #[test]
    fn all_reduce_sums_across_ranks() {
        let results = run_world(4, |c| {
            let mut data = vec![(c.rank() + 1) as f32; 3];
            c.all_reduce_sum(&mut data).unwrap();
            data
        });
        for r in results {
            assert_eq!(r, vec![10.0; 3]); // 1+2+3+4
        }
    }

    #[test]
    fn all_gather_concatenates_in_rank_order() {
        let results = run_world(3, |c| c.all_gather(&[c.rank() as f32]).unwrap());
        for r in results {
            assert_eq!(r, vec![0.0, 1.0, 2.0]);
        }
    }

    #[test]
    fn all_gather_var_handles_uneven_shards() {
        let results = run_world(3, |c| {
            let data: Vec<f32> = (0..=c.rank()).map(|i| i as f32).collect();
            c.all_gather_var(&data).unwrap()
        });
        for r in results {
            assert_eq!(r, vec![0.0, 0.0, 1.0, 0.0, 1.0, 2.0]);
        }
    }

    #[test]
    fn reduce_scatter_returns_own_chunk() {
        let results = run_world(2, |c| {
            let data: Vec<f32> = (0..4).map(|i| (i + 1) as f32 * (c.rank() + 1) as f32).collect();
            (c.rank(), c.reduce_scatter_sum(&data).unwrap())
        });
        // Sum over ranks: [1,2,3,4] + [2,4,6,8] = [3,6,9,12].
        for (rank, chunk) in results {
            if rank == 0 {
                assert_eq!(chunk, vec![3.0, 6.0]);
            } else {
                assert_eq!(chunk, vec![9.0, 12.0]);
            }
        }
    }

    #[test]
    fn repeated_collectives_advance_op_numbers() {
        let results = run_world(3, |c| {
            let mut acc = 0.0;
            for round in 0..10 {
                let mut data = vec![round as f32 + c.rank() as f32];
                c.all_reduce_sum(&mut data).unwrap();
                acc += data[0];
            }
            acc
        });
        // Each round: sum over ranks of (round + rank) = 3*round + 3.
        let expected: f32 = (0..10).map(|r| 3.0 * r as f32 + 3.0).sum();
        for r in results {
            assert_eq!(r, expected);
        }
    }

    #[test]
    fn uneven_reduce_scatter_is_rejected() {
        let results = run_world(2, |c| c.reduce_scatter_sum(&[1.0, 2.0, 3.0]));
        for r in results {
            assert!(matches!(r, Err(CollectiveError::UnevenPartition { len: 3, world: 2 })));
        }
    }

    #[test]
    fn barrier_synchronizes() {
        // All ranks must pass; hang = failure by test timeout.
        let results = run_world(4, |c| {
            c.barrier().unwrap();
            c.rank()
        });
        assert_eq!(results.len(), 4);
    }

    #[test]
    fn single_rank_world_is_identity() {
        let comms = Communicator::world(1);
        let c = &comms[0];
        let mut d = vec![1.0, 2.0];
        c.all_reduce_sum(&mut d).unwrap();
        assert_eq!(d, vec![1.0, 2.0]);
        assert_eq!(c.all_gather(&d).unwrap(), d);
        assert_eq!(c.reduce_scatter_sum(&d).unwrap(), d);
    }

    #[test]
    fn barrier_poisoning_a_panicked_rank_errors_waiters_instead_of_hanging() {
        // Satellite fix: rank 2 "panics before arriving" — modeled by its
        // communicator being dropped during unwind. Survivors must get
        // RankFailed, not block forever.
        let mut comms = Communicator::world(3);
        let dead = comms.remove(2);
        drop(dead);
        let results = run_comms(comms, |c| c.barrier());
        // Attribution under cascading teardown is racy (the first survivor
        // to error drops its own links, and the second may observe *that*
        // death first), but the liveness contract is exact: every survivor
        // errors with RankFailed rather than hanging, and the survivor that
        // failed first can only have been failed by the poisoned rank 2.
        assert!(
            results
                .iter()
                .all(|r| matches!(r, Err(CollectiveError::RankFailed { op: "barrier", .. }))),
            "survivors must all see RankFailed: {results:?}"
        );
        assert!(
            results
                .iter()
                .any(|r| matches!(r, Err(CollectiveError::RankFailed { rank: 2, .. }))),
            "the first failure must name the poisoned rank: {results:?}"
        );
    }

    #[test]
    fn deadline_mode_matches_blocking_numerics() {
        let cfg = CollectiveConfig::with_timeout(Duration::from_secs(5));
        let results = run_comms(Communicator::world_with(4, cfg), |c| {
            let mut data = vec![(c.rank() + 1) as f32; 5];
            c.all_reduce_sum(&mut data).unwrap();
            data
        });
        for r in results {
            assert_eq!(r, vec![10.0; 5]);
        }
    }

    #[test]
    fn lossy_transport_is_bitwise_invisible_with_retransmits() {
        // Drops + delays + dups, no permanent failures: every collective
        // must converge to exactly the loss-free answer.
        let plan = TransportFaultPlan {
            drop_p: 0.2,
            dup_p: 0.1,
            delay_ticks: Some((0, 2)),
            ..TransportFaultPlan::none(42)
        };
        let mut cfg = CollectiveConfig::with_timeout(Duration::from_secs(10));
        cfg.heartbeat = Duration::from_millis(5);
        // Enough retransmit attempts that a 0.2 drop rate cannot plausibly
        // eat every copy of a contribution before the deadline.
        cfg.retry.max_retries = 12;
        let results = run_comms(faulty_world(3, &plan, cfg), |c| {
            let mut acc = Vec::new();
            for round in 0..6 {
                let mut data: Vec<f32> =
                    (0..4).map(|i| (round * 7 + i + c.rank() * 3) as f32 * 0.25).collect();
                c.all_reduce_sum(&mut data).unwrap();
                acc.extend(data);
            }
            // A fast rank must not vanish while a slower peer may still
            // need a retransmission of its round-6 contribution.
            c.shutdown(Duration::from_secs(10));
            acc
        });
        let expected: Vec<f32> = (0..6)
            .flat_map(|round| {
                (0..4).map(move |i| {
                    (0..3).map(|rank| (round * 7 + i + rank * 3) as f32 * 0.25).sum::<f32>()
                })
            })
            .collect();
        for r in results {
            assert_eq!(r, expected, "lossy run diverged from loss-free numerics");
        }
    }

    #[test]
    fn mid_collective_disconnect_is_reported_within_the_deadline() {
        // Rank 1's endpoint dies after 3 frames — inside the second
        // all_reduce's send fan-out for world=3 (2 frames per op). The
        // survivors must observe RankFailed (never hang), and rank 1 sees
        // its own endpoint die.
        let plan = TransportFaultPlan {
            disconnects: vec![DisconnectRule { rank: 1, at: DisconnectPoint::Frame(3) }],
            ..TransportFaultPlan::none(0)
        };
        let mut cfg = CollectiveConfig::with_timeout(Duration::from_millis(400));
        cfg.heartbeat = Duration::from_millis(10);
        let started = Instant::now();
        let results = run_comms(faulty_world(3, &plan, cfg), |c| {
            for round in 0..4 {
                let mut data = vec![round as f32; 2];
                c.all_reduce_sum(&mut data)?;
            }
            Ok(())
        });
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "failure detection must not hang"
        );
        // The injected victim must see its own endpoint die; survivors
        // must all fail (RankFailed or, if they raced the teardown,
        // Timeout) — exact attribution is racy under cascading link
        // deaths, but nobody may succeed or hang.
        let mut failed_ranks = 0;
        for (rank, r) in results.into_iter().enumerate() {
            match r {
                Err(CollectiveError::RankFailed { rank: dead, .. }) => {
                    failed_ranks += 1;
                    if rank == 1 {
                        assert_eq!(dead, 1, "the victim must blame its own endpoint");
                    }
                }
                Err(CollectiveError::Timeout { .. }) if rank != 1 => failed_ranks += 1,
                other => panic!("rank {rank}: expected failure, got {other:?}"),
            }
        }
        assert_eq!(failed_ranks, 3);
    }

    #[test]
    fn slow_peer_is_a_timeout_not_a_rank_failure() {
        // Rank 1 heartbeats diligently but never contributes: provably
        // alive, just slow. The detector must classify that as Timeout
        // (retry territory), not RankFailed (eviction territory).
        let mut world = InProcTransport::world(2);
        let t1 = world.pop().unwrap();
        let t0 = world.pop().unwrap();
        let mut cfg = CollectiveConfig::with_timeout(Duration::from_millis(80));
        cfg.heartbeat = Duration::from_millis(10);
        let c0 = Communicator::new(Box::new(t0), cfg);
        let beater = thread::spawn(move || {
            let stop_at = Instant::now() + Duration::from_millis(400);
            let mut wire = 0;
            while Instant::now() < stop_at {
                wire += 1;
                if t1.send(0, Frame::heartbeat(wire)).is_err() {
                    break;
                }
                // Drain inbound traffic so rank 0's nudges don't pile up.
                while t1.recv_timeout(0, Duration::from_millis(1)).is_ok() {}
                thread::sleep(Duration::from_millis(5));
            }
        });
        let err = {
            let mut d = vec![1.0];
            c0.all_reduce_sum(&mut d).unwrap_err()
        };
        drop(c0);
        beater.join().unwrap();
        match err {
            CollectiveError::Timeout { op, rank, elapsed } => {
                assert_eq!(op, "all_reduce");
                assert_eq!(rank, 1);
                assert!(elapsed >= Duration::from_millis(80));
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    /// Delivers everything except the first data frame from `victim`,
    /// which it swallows (one contribution lost on the wire, exactly
    /// once), and logs every data frame `victim` sent here.
    struct DropFirstDataFrom {
        inner: InProcTransport,
        victim: usize,
        seen: Arc<Mutex<Vec<Frame>>>,
    }

    impl Transport for DropFirstDataFrom {
        fn rank(&self) -> usize {
            self.inner.rank()
        }

        fn world_size(&self) -> usize {
            self.inner.world_size()
        }

        fn send(&self, to: usize, frame: Frame) -> Result<(), TransportError> {
            self.inner.send(to, frame)
        }

        fn recv(&self, from: usize) -> Result<Frame, TransportError> {
            self.inner.recv(from)
        }

        fn recv_timeout(&self, from: usize, timeout: Duration) -> Result<Frame, TransportError> {
            let frame = self.inner.recv_timeout(from, timeout)?;
            if from == self.victim && frame.kind == FrameKind::Data {
                let mut seen = self.seen.lock();
                seen.push(frame.clone());
                if seen.len() == 1 {
                    return Err(TransportError::Timeout { peer: from });
                }
            }
            Ok(frame)
        }
    }

    #[test]
    fn a_dropped_reduce_scatter_chunk_is_resent_from_history_as_that_peers_chunk() {
        // Every (rank, chunk) pair carries a distinct value, so a resend
        // served with any chunk but the requester's own changes the sum.
        let rounds = |c: Communicator| {
            let mut out = Vec::new();
            for round in 0..3 {
                let data: Vec<f32> = (0..9)
                    .map(|i| (round * 100 + c.rank() * 10 + i) as f32 + 0.125)
                    .collect();
                out.extend(c.reduce_scatter_sum(&data).unwrap());
            }
            c.shutdown(Duration::from_secs(10));
            out
        };
        let mut cfg = CollectiveConfig::with_timeout(Duration::from_secs(10));
        cfg.heartbeat = Duration::from_millis(5);
        let clean = run_comms(Communicator::world_with(3, cfg.clone()), rounds);
        // Rank 0 loses rank 2's chunk of round 0. Rank 2 holds everything
        // it needs and moves on, so only its history can answer the ask.
        let seen = Arc::new(Mutex::new(Vec::new()));
        let lossy: Vec<Communicator> = InProcTransport::world(3)
            .into_iter()
            .map(|t| -> Box<dyn Transport> {
                if t.rank() == 0 {
                    Box::new(DropFirstDataFrom { inner: t, victim: 2, seen: seen.clone() })
                } else {
                    Box::new(t)
                }
            })
            .map(|t| Communicator::new(t, cfg.clone()))
            .collect();
        let lossy = run_comms(lossy, rounds);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (rank, (want, got)) in clean.iter().zip(&lossy).enumerate() {
            assert_eq!(bits(got), bits(want), "rank {rank} diverged from the loss-free run");
        }
        // Round 0 is op 1: the swallowed frame, then at least one resend,
        // each rank 2's chunk 0 (floats 20.125, 21.125, 22.125) and nothing
        // more, byte for byte.
        let seen = seen.lock();
        let first_op: Vec<&Frame> = seen.iter().filter(|f| f.op_seq == 1).collect();
        assert!(first_op.len() >= 2, "the lost chunk was never resent: {:?}", *seen);
        for frame in first_op {
            assert_eq!(frame.payload, encode(&[20.125f32, 21.125, 22.125]));
        }
    }

    #[test]
    fn fp16_gather_then_upscale_equals_the_f32_gather_of_widened_halves() {
        // All 65,536 FP16 patterns, NaN payloads included, split over two
        // ranks: two bytes per element on the wire and one `upscale` must
        // land on the bits of the old widen-then-gather-f32 path.
        let results = run_world(2, |c| {
            let lo = c.rank() as u32 * 32_768;
            let halves: Vec<F16> = (lo..lo + 32_768).map(|b| F16::from_bits(b as u16)).collect();
            let before = c.bytes_sent();
            let gathered = c.all_gather_f16(&halves).unwrap();
            let f16_bytes = c.bytes_sent() - before;
            let mut narrow = vec![0.0f32; gathered.len()];
            dos_tensor::kernels::upscale(&gathered, &mut narrow);
            let widened: Vec<f32> = halves.iter().map(|h| h.to_f32()).collect();
            let wide = c.all_gather(&widened).unwrap();
            (narrow, wide, f16_bytes, c.bytes_sent() - before - f16_bytes)
        });
        for (narrow, wide, f16_bytes, f32_bytes) in results {
            assert_eq!(narrow.len(), 65_536);
            for (i, (a, b)) in narrow.iter().zip(&wide).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "pattern {i:#06x}");
            }
            assert_eq!(f16_bytes, 2 * 32_768 + 33);
            assert_eq!(f32_bytes, 4 * 32_768 + 33);
        }
    }

    #[test]
    fn bytes_sent_counts_payload_and_framing_of_every_frame() {
        let results = run_world(4, |c| {
            let mut sent = vec![c.bytes_sent()];
            c.barrier().unwrap();
            sent.push(c.bytes_sent());
            c.reduce_scatter_sum(&[1.0; 8]).unwrap();
            sent.push(c.bytes_sent());
            c.all_reduce_sum(&mut [1.0; 8]).unwrap();
            sent.push(c.bytes_sent());
            sent
        });
        for sent in results {
            // Three peers each: an empty frame, a 2-float chunk, 8 floats.
            assert_eq!(sent, vec![0, 3 * 33, 3 * (33 + 33 + 8), 3 * (33 + 33 + 8 + 33 + 32)]);
        }
        assert_eq!(Communicator::world(1)[0].bytes_sent(), 0);
    }

    /// The two-thread probe: what the three collectives of one `train_dp2`
    /// iteration cost a rank (gradient of 168,192 floats reduce-scattered,
    /// the FP16 shard all-gathered, the loss all-reduced). Run with
    /// `cargo test --release -p dos-collectives -- --ignored probe --nocapture`.
    #[test]
    #[ignore = "a timing probe, not a check"]
    fn probe_collectives_cpu_per_iteration() {
        const N: usize = 168_192;
        const ITERS: u32 = 2_000;
        // utime + stime of this process, in clock ticks (Linux only).
        let cpu_ticks = || -> Option<u64> {
            let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
            let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
            Some(fields.next()?.parse::<u64>().ok()? + fields.next()?.parse::<u64>().ok()?)
        };
        let ticks = cpu_ticks();
        let walls = run_world(2, |c| {
            let grads: Vec<f32> = (0..N).map(|i| (i % 251) as f32 * 1e-3).collect();
            let shard = vec![F16::from_f32(0.5); N / 2];
            let start = Instant::now();
            for _ in 0..ITERS {
                std::hint::black_box(c.reduce_scatter_sum(&grads).unwrap());
                std::hint::black_box(c.all_gather_f16(&shard).unwrap());
                c.all_reduce_sum(&mut [1.0]).unwrap();
            }
            (start.elapsed() / ITERS, c.bytes_sent() / u64::from(ITERS))
        });
        for (rank, (wall, bytes)) in walls.iter().enumerate() {
            println!("rank {rank}: {:.3} ms wall, {bytes} B sent per iteration", wall.as_secs_f64() * 1e3);
        }
        if let (Some(a), Some(b)) = (ticks, cpu_ticks()) {
            // 100 ticks a second, two ranks.
            let ms = (b - a) as f64 * 10.0 / 2.0 / f64::from(ITERS);
            println!("process CPU: {ms:.3} ms per rank per iteration");
        }
    }

    #[test]
    fn errors_display_the_failing_op_and_rank() {
        let t = CollectiveError::Timeout {
            op: "all_reduce",
            rank: 2,
            elapsed: Duration::from_millis(150),
        };
        assert!(t.to_string().contains("all_reduce"));
        assert!(t.to_string().contains("rank 2"));
        let f = CollectiveError::RankFailed { rank: 1, op: "barrier" };
        assert_eq!(f.to_string(), "rank 1 failed during barrier");
    }
}
