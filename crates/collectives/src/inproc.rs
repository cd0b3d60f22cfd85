//! In-process transport: one facade channel per directed rank pair.
//!
//! The original `Communicator` was a condvar rendezvous; this replaces it
//! with the same mesh message-passing shape the socket backend uses, but
//! over [`dos_sync`] channels. Because those channels virtualize under the
//! cooperative scheduler, a world built inside a `dos-check` run has every
//! send/recv as an explorable yield point — and because each rank *owns*
//! its outgoing senders, a rank that panics (unwinding its stack and
//! dropping its transport) disconnects its links, so peers blocked on it
//! observe [`TransportError::Disconnected`] instead of hanging forever.

use std::time::Duration;

use dos_sync as sync;

use crate::transport::{Frame, Transport, TransportError};

/// In-process [`Transport`]: unbounded facade channels between every
/// ordered pair of ranks.
pub struct InProcTransport {
    rank: usize,
    world: usize,
    /// `to_peer[p]` carries frames from this rank to rank `p` (`None` at
    /// `p == rank`).
    to_peer: Vec<Option<sync::Sender<Frame>>>,
    /// `from_peer[p]` yields frames sent by rank `p` to this rank.
    from_peer: Vec<Option<sync::Receiver<Frame>>>,
}

impl std::fmt::Debug for InProcTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InProcTransport")
            .field("rank", &self.rank)
            .field("world", &self.world)
            .finish()
    }
}

impl InProcTransport {
    /// Builds the full mesh for a world of `world` ranks, one transport
    /// per rank.
    ///
    /// # Panics
    ///
    /// Panics if `world` is zero.
    pub fn world(world: usize) -> Vec<InProcTransport> {
        assert!(world > 0, "world must be positive");
        // links[i][j]: channel carrying i -> j traffic.
        let mut senders: Vec<Vec<Option<sync::Sender<Frame>>>> = Vec::with_capacity(world);
        let mut receivers: Vec<Vec<Option<sync::Receiver<Frame>>>> = Vec::with_capacity(world);
        for _ in 0..world {
            senders.push((0..world).map(|_| None).collect());
            receivers.push((0..world).map(|_| None).collect());
        }
        for i in 0..world {
            for j in 0..world {
                if i == j {
                    continue;
                }
                let (tx, rx) = sync::unbounded();
                senders[i][j] = Some(tx);
                // Receiver lives with rank j, indexed by source i.
                receivers[j][i] = Some(rx);
            }
        }
        senders
            .into_iter()
            .zip(receivers)
            .enumerate()
            .map(|(rank, (to_peer, from_peer))| InProcTransport { rank, world, to_peer, from_peer })
            .collect()
    }

    fn sender(&self, to: usize) -> Result<&sync::Sender<Frame>, TransportError> {
        self.to_peer
            .get(to)
            .and_then(Option::as_ref)
            .ok_or(TransportError::Disconnected { peer: to })
    }

    fn receiver(&self, from: usize) -> Result<&sync::Receiver<Frame>, TransportError> {
        self.from_peer
            .get(from)
            .and_then(Option::as_ref)
            .ok_or(TransportError::Disconnected { peer: from })
    }
}

impl Transport for InProcTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.world
    }

    fn send(&self, to: usize, frame: Frame) -> Result<(), TransportError> {
        self.sender(to)?
            .send(frame)
            .map_err(|_| TransportError::Disconnected { peer: to })
    }

    fn recv(&self, from: usize) -> Result<Frame, TransportError> {
        self.receiver(from)?
            .recv()
            .map_err(|_| TransportError::Disconnected { peer: from })
    }

    fn recv_timeout(&self, from: usize, timeout: Duration) -> Result<Frame, TransportError> {
        match self.receiver(from)?.recv_timeout(timeout) {
            Ok(f) => Ok(f),
            Err(sync::RecvTimeoutError::Timeout) => Err(TransportError::Timeout { peer: from }),
            Err(sync::RecvTimeoutError::Disconnected) => {
                Err(TransportError::Disconnected { peer: from })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_flow_between_ranks() {
        let mut world = InProcTransport::world(2);
        let t1 = world.pop().unwrap();
        let t0 = world.pop().unwrap();
        t0.send(1, Frame::data(0, 1, vec![9])).unwrap();
        let got = t1.recv(0).unwrap();
        assert_eq!(*got.payload, [9]);
        assert_eq!(t1.recv_timeout(0, Duration::from_millis(5)), Err(TransportError::Timeout { peer: 0 }));
    }

    #[test]
    fn dropping_a_rank_disconnects_its_links() {
        let mut world = InProcTransport::world(2);
        let t1 = world.pop().unwrap();
        let t0 = world.pop().unwrap();
        drop(t1);
        assert_eq!(
            t0.send(1, Frame::heartbeat(0)),
            Err(TransportError::Disconnected { peer: 1 })
        );
        assert_eq!(t0.recv(1), Err(TransportError::Disconnected { peer: 1 }));
    }
}
