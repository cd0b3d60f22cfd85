//! # dos-collectives — collectives for data-parallel training
//!
//! Communication substrate of the *Deep Optimizer States* reproduction, in
//! two flavors:
//!
//! * [`Communicator`] — *functional* collectives (sum all-reduce,
//!   all-gather in FP32 and FP16, reduce-scatter, barrier), all written in
//!   one full-mesh **personalised exchange** — every peer is sent the
//!   bytes it needs, as one shared immutable [`Payload`] per contribution —
//!   over a pluggable [`Transport`]: in-process facade channels
//!   ([`InProcTransport`], explorable by `dos-check`), real UDS/TCP sockets
//!   between processes ([`SocketTransport`]), or a seeded fault-injecting
//!   wrapper ([`FaultyTransport`]). The collective layer adds per-op deadlines,
//!   retry/backoff, sequence-numbered idempotent retransmits, heartbeat
//!   rank-failure detection, and typed failure attribution
//!   ([`CollectiveError::Timeout`] vs [`CollectiveError::RankFailed`]);
//! * [`RingCost`] — *analytic* ring-collective cost models the simulator
//!   charges for ZeRO-3's forward/backward all-gathers, which is what limits
//!   the paper's speedup at high data-parallel degree (Figure 17).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Library code on the fault-tolerant collective path must surface failures
// as typed errors, never die on a stray unwrap; tests may assert freely.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod cost;
mod faulty;
mod functional;
mod inproc;
mod socket;
mod transport;

pub use cost::RingCost;
pub use faulty::{
    DisconnectPoint, DisconnectRule, FaultyTransport, PartitionWindow, TransportFaultPlan,
};
pub use functional::{CollectiveConfig, CollectiveError, Communicator};
pub use inproc::InProcTransport;
pub use socket::SocketTransport;
pub use transport::{Frame, FrameKind, Payload, Transport, TransportError, MAX_PAYLOAD};
