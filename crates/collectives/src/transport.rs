//! The pluggable point-to-point substrate collectives are built on.
//!
//! A [`Transport`] moves opaque [`Frame`]s between the ranks of a world.
//! Everything above it — the mesh exchange, retry/backoff, sequence-number
//! dedupe, heartbeat failure detection (`functional.rs`) — is written once
//! against this trait, so the same collective code runs over in-process
//! channels ([`crate::InProcTransport`]), real sockets
//! ([`crate::SocketTransport`]), or a fault-injecting wrapper
//! ([`crate::FaultyTransport`]).

use std::sync::Arc;
use std::time::Duration;

/// Leading magic of every wire-encoded frame (`"DOSF"`).
pub const FRAME_MAGIC: u32 = 0x444F_5346;

/// Bytes of the wire encoding before the payload.
pub(crate) const HEADER: usize = 25;
/// Bytes of the trailing checksum.
pub(crate) const CHECKSUM: usize = 8;
/// Largest payload a frame may carry: a quarter of what the 4-byte length
/// field can express, so a flipped high bit in it reads as corruption
/// instead of as a frame to wait for.
pub const MAX_PAYLOAD: usize = 1 << 30;

/// What a [`Frame`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A collective contribution: `op_seq` identifies the collective
    /// operation, the payload is the sender's buffer.
    Data,
    /// Liveness beacon; `op_seq` and payload are ignored.
    Heartbeat,
    /// Request to retransmit the `op_seq` contribution (sent when the
    /// requester suspects its copy was lost in flight).
    Resend,
    /// Graceful-teardown announcement: the sender has completed its final
    /// collective and is only lingering to serve resend requests. Peers
    /// that have heard a `Bye` (re-broadcast periodically, since it can be
    /// lost like any frame) from everyone may tear down immediately.
    Bye,
}

impl FrameKind {
    fn as_u8(self) -> u8 {
        match self {
            FrameKind::Data => 0,
            FrameKind::Heartbeat => 1,
            FrameKind::Resend => 2,
            FrameKind::Bye => 3,
        }
    }

    fn from_u8(b: u8) -> Option<FrameKind> {
        match b {
            0 => Some(FrameKind::Data),
            1 => Some(FrameKind::Heartbeat),
            2 => Some(FrameKind::Resend),
            3 => Some(FrameKind::Bye),
            _ => None,
        }
    }
}

/// A frame's bytes: one immutable buffer shared by reference count, so the
/// collective layer's history, an in-flight frame, a fault injector's jitter
/// queue and a retransmission all hold the *same* allocation. A `Vec<u8>`
/// converts into it without copying the bytes; it reads as a `[u8]`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Payload(Arc<Vec<u8>>);

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Payload {
        Payload(Arc::new(bytes))
    }
}

impl std::ops::Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

/// One transport message.
///
/// `wire_seq` is a per-link transmission counter: every transmission —
/// including a retransmission of the *same* logical contribution — gets a
/// fresh value, so fault injection keyed on it re-rolls the dice for
/// retries instead of deterministically re-dropping them. `op_seq` is the
/// logical collective-operation number used for idempotent dedupe: a rank
/// that receives the same `(peer, op_seq)` contribution twice discards the
/// second copy, which is what makes retransmits bitwise-safe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Per-link transmission sequence number (fresh on every send).
    pub wire_seq: u64,
    /// Logical collective operation number (stable across retransmits).
    pub op_seq: u64,
    /// Message discriminator.
    pub kind: FrameKind,
    /// Opaque payload (little-endian `f32`s or FP16 halves for the
    /// collectives here).
    pub payload: Payload,
}

impl Frame {
    /// A data frame.
    pub fn data(wire_seq: u64, op_seq: u64, payload: impl Into<Payload>) -> Frame {
        Frame { wire_seq, op_seq, kind: FrameKind::Data, payload: payload.into() }
    }

    /// A heartbeat frame.
    pub fn heartbeat(wire_seq: u64) -> Frame {
        Frame { wire_seq, op_seq: 0, kind: FrameKind::Heartbeat, payload: Payload::default() }
    }

    /// A resend request for `op_seq`.
    pub fn resend(wire_seq: u64, op_seq: u64) -> Frame {
        Frame { wire_seq, op_seq, kind: FrameKind::Resend, payload: Payload::default() }
    }

    /// A graceful-teardown announcement.
    pub fn bye(wire_seq: u64) -> Frame {
        Frame { wire_seq, op_seq: 0, kind: FrameKind::Bye, payload: Payload::default() }
    }

    /// Wire encoding: `magic u32 | kind u8 | wire_seq u64 | op_seq u64 |
    /// len u32 | payload | fnv1a-64 checksum` (all little-endian, checksum
    /// over everything before it).
    ///
    /// # Errors
    ///
    /// [`TransportError::TooLarge`] when the payload exceeds
    /// [`MAX_PAYLOAD`]: the length field is never written truncated.
    pub fn try_encode(&self) -> Result<Vec<u8>, TransportError> {
        let len = self.payload.len();
        if len > MAX_PAYLOAD {
            return Err(TransportError::TooLarge { len });
        }
        let mut out = Vec::with_capacity(HEADER + len + CHECKSUM);
        out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        out.push(self.kind.as_u8());
        out.extend_from_slice(&self.wire_seq.to_le_bytes());
        out.extend_from_slice(&self.op_seq.to_le_bytes());
        out.extend_from_slice(&(len as u32).to_le_bytes());
        out.extend_from_slice(&self.payload);
        let sum = fnv1a64(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        Ok(out)
    }

    /// [`Frame::try_encode`] for payloads known to fit.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds [`MAX_PAYLOAD`].
    pub fn encode(&self) -> Vec<u8> {
        match self.try_encode() {
            Ok(bytes) => bytes,
            Err(e) => panic!("{e}"),
        }
    }

    /// Total encoded size of the frame whose first [`HEADER`] bytes are
    /// `header`, once its magic and length field have been validated —
    /// what a stream reader may trust before the checksum has arrived.
    pub(crate) fn wire_len(header: &[u8]) -> Result<usize, String> {
        let word = |at: usize| {
            let mut w = [0u8; 4];
            w.copy_from_slice(&header[at..at + 4]);
            u32::from_le_bytes(w)
        };
        if word(0) != FRAME_MAGIC {
            return Err("bad frame magic".to_string());
        }
        let len = word(HEADER - 4) as usize;
        if len > MAX_PAYLOAD {
            return Err(format!("length field {len} exceeds the {MAX_PAYLOAD}-byte maximum"));
        }
        Ok(HEADER + len + CHECKSUM)
    }

    /// Decodes a frame previously produced by [`Frame::encode`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field (bad magic,
    /// unknown kind, truncation, checksum mismatch).
    pub fn decode(bytes: &[u8]) -> Result<Frame, String> {
        if bytes.len() < HEADER + CHECKSUM {
            return Err(format!("frame truncated: {} bytes", bytes.len()));
        }
        let (body, sum_bytes) = bytes.split_at(bytes.len() - CHECKSUM);
        let mut sum = [0u8; 8];
        sum.copy_from_slice(sum_bytes);
        let expected = u64::from_le_bytes(sum);
        let actual = fnv1a64(body);
        if expected != actual {
            return Err(format!("checksum mismatch: stored {expected:#x}, computed {actual:#x}"));
        }
        let total = Frame::wire_len(body)?;
        if total != bytes.len() {
            return Err(format!(
                "length field {} disagrees with frame size",
                total - HEADER - CHECKSUM
            ));
        }
        let kind = FrameKind::from_u8(body[4]).ok_or_else(|| format!("unknown kind {}", body[4]))?;
        let mut w = [0u8; 8];
        w.copy_from_slice(&body[5..13]);
        let mut o = [0u8; 8];
        o.copy_from_slice(&body[13..21]);
        Ok(Frame {
            wire_seq: u64::from_le_bytes(w),
            op_seq: u64::from_le_bytes(o),
            kind,
            payload: body[HEADER..].to_vec().into(),
        })
    }
}

/// FNV-1a 64-bit over `bytes` (the frame checksum).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Transport-level failures, attributed to a peer where possible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The link to `peer` is gone (process exit, socket close, channel
    /// endpoints dropped). Permanent for that link.
    Disconnected {
        /// The unreachable peer (the local rank itself when the local
        /// endpoint was torn down, e.g. by an injected disconnect).
        peer: usize,
    },
    /// Nothing arrived from `peer` before the deadline. Transient.
    Timeout {
        /// The silent peer.
        peer: usize,
    },
    /// A frame from `peer` failed validation (checksum, framing).
    Corrupt {
        /// The offending peer.
        peer: usize,
        /// What was wrong.
        detail: String,
    },
    /// An I/O error on the link to `peer`.
    Io {
        /// The peer on the failing link.
        peer: usize,
        /// Stringified error.
        detail: String,
    },
    /// A frame's payload does not fit the wire format ([`MAX_PAYLOAD`]);
    /// nothing was sent.
    TooLarge {
        /// The payload length in bytes.
        len: usize,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Disconnected { peer } => write!(f, "link to rank {peer} disconnected"),
            TransportError::Timeout { peer } => write!(f, "timed out waiting on rank {peer}"),
            TransportError::Corrupt { peer, detail } => {
                write!(f, "corrupt frame from rank {peer}: {detail}")
            }
            TransportError::Io { peer, detail } => write!(f, "i/o error on link to rank {peer}: {detail}"),
            TransportError::TooLarge { len } => {
                write!(f, "payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte frame maximum")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// Point-to-point frame delivery between the ranks of a world.
///
/// Implementations must deliver frames from a given peer in send order
/// (per-link FIFO) but are free to lose, duplicate, or arbitrarily delay
/// them — the collectives above recover via sequence numbers, resend
/// requests, and heartbeats. `recv`/`recv_timeout` take the *source* rank:
/// reception is per-peer, which is what lets the mesh exchange reduce in
/// rank order regardless of arrival order.
pub trait Transport: Send {
    /// This endpoint's rank.
    fn rank(&self) -> usize;

    /// Number of ranks in the world.
    fn world_size(&self) -> usize;

    /// Sends a frame to `to`.
    ///
    /// # Errors
    ///
    /// [`TransportError::Disconnected`] when the link is permanently gone,
    /// [`TransportError::Io`] for transient link errors.
    fn send(&self, to: usize, frame: Frame) -> Result<(), TransportError>;

    /// Blocks until a frame from `from` arrives (or the link dies). Used
    /// by the deadline-free blocking mode, where `dos-check`'s deadlock
    /// detector stands in for timeouts.
    ///
    /// # Errors
    ///
    /// [`TransportError::Disconnected`] when the link is permanently gone.
    fn recv(&self, from: usize) -> Result<Frame, TransportError>;

    /// Waits up to `timeout` for a frame from `from`.
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] when nothing arrived in time; the other
    /// variants as for [`Transport::recv`].
    fn recv_timeout(&self, from: usize, timeout: Duration) -> Result<Frame, TransportError>;

    /// Advances the transport's notion of the training epoch (iteration).
    /// Fault-injecting transports key scheduled faults (disconnects,
    /// partition windows) off this; real transports ignore it.
    fn set_epoch(&self, _epoch: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips_through_wire_encoding() {
        let f = Frame::data(7, 3, vec![1, 2, 3, 250]);
        let bytes = f.encode();
        assert_eq!(Frame::decode(&bytes).unwrap(), f);
        let hb = Frame::heartbeat(9);
        assert_eq!(Frame::decode(&hb.encode()).unwrap(), hb);
        let rs = Frame::resend(10, 4);
        assert_eq!(Frame::decode(&rs.encode()).unwrap(), rs);
    }

    #[test]
    fn corrupted_bytes_are_rejected() {
        let mut bytes = Frame::data(1, 1, vec![42; 16]).encode();
        bytes[10] ^= 0xff;
        let err = Frame::decode(&bytes).unwrap_err();
        assert!(err.contains("checksum"), "unexpected error: {err}");
        assert!(Frame::decode(&bytes[..10]).unwrap_err().contains("truncated"));
    }

    #[test]
    fn the_header_alone_rejects_bad_magic_and_oversized_lengths() {
        let bytes = Frame::data(1, 1, vec![42; 16]).encode();
        assert_eq!(Frame::wire_len(&bytes[..HEADER]), Ok(HEADER + 16 + CHECKSUM));
        let mut long = bytes.clone();
        long[HEADER - 1] = 0x40; // length field = 16 + 2^30
        assert!(Frame::wire_len(&long[..HEADER]).unwrap_err().contains("exceeds"));
        let mut alien = bytes;
        alien[3] ^= 0xff;
        assert!(Frame::wire_len(&alien[..HEADER]).unwrap_err().contains("magic"));
    }

    #[test]
    fn a_payload_converts_from_a_vec_without_copying_and_clones_by_reference() {
        let bytes = vec![1u8, 2, 3];
        let at = bytes.as_ptr();
        let payload = Payload::from(bytes);
        assert_eq!(payload.as_ptr(), at);
        assert_eq!(payload.clone().as_ptr(), at);
        assert_eq!(Frame::data(1, 1, payload.clone()).payload.as_ptr(), at);
        assert_eq!(*payload, [1, 2, 3]);
    }
}
