//! Socket transport: UDS or TCP between real processes.
//!
//! Frames travel length-prefixed and checksummed ([`Frame::encode`]); a
//! torn or bit-flipped frame surfaces as [`TransportError::Corrupt`]
//! rather than silently corrupting a reduction. The mesh is full: every
//! rank pair holds one duplex connection, established deterministically
//! (rank `i` listens; every rank `j > i` dials `i` and introduces itself
//! with an 8-byte hello). Reader and writer halves are split with
//! `try_clone`, so a blocked `recv` never stalls a concurrent `send` on
//! the same link.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::transport::{Frame, Transport, TransportError, HEADER};

/// One duplex stream, TCP or UDS.
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Uds(UnixStream),
}

impl Conn {
    fn try_clone(&self) -> std::io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Uds(s) => s.try_clone().map(Conn::Uds),
        }
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(t),
            #[cfg(unix)]
            Conn::Uds(s) => s.set_read_timeout(t),
        }
    }

    fn read_some(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Uds(s) => s.read(buf),
        }
    }

    fn write_all_bytes(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.write_all(bytes),
            #[cfg(unix)]
            Conn::Uds(s) => s.write_all(bytes),
        }
    }
}

/// Reader half of a link plus its partial-frame accumulation buffer (a
/// poll slice may end mid-frame; the bytes carry over to the next call).
struct FrameReader {
    conn: Conn,
    buf: Vec<u8>,
}

impl FrameReader {
    fn read_frame(&mut self, peer: usize, timeout: Option<Duration>) -> Result<Frame, TransportError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            // The header is validated the moment it is buffered: a stream
            // that lost its framing (one flipped length byte is enough) is
            // reported as corrupt instead of waited on for up to 4 GiB.
            if self.buf.len() >= HEADER {
                let total = Frame::wire_len(&self.buf[..HEADER])
                    .map_err(|detail| TransportError::Corrupt { peer, detail })?;
                if self.buf.len() >= total {
                    let frame = Frame::decode(&self.buf[..total])
                        .map_err(|detail| TransportError::Corrupt { peer, detail })?;
                    self.buf.drain(..total);
                    return Ok(frame);
                }
            }
            let slice = match deadline {
                None => None,
                Some(d) => {
                    let Some(remaining) =
                        d.checked_duration_since(Instant::now()).filter(|r| !r.is_zero())
                    else {
                        return Err(TransportError::Timeout { peer });
                    };
                    // Zero would mean "no timeout" to the socket API.
                    Some(remaining.max(Duration::from_millis(1)))
                }
            };
            self.conn
                .set_read_timeout(slice)
                .map_err(|e| TransportError::Io { peer, detail: e.to_string() })?;
            let mut tmp = [0u8; 8192];
            match self.conn.read_some(&mut tmp) {
                Ok(0) => return Err(TransportError::Disconnected { peer }),
                Ok(n) => self.buf.extend_from_slice(&tmp[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if deadline.is_none() {
                        continue;
                    }
                    return Err(TransportError::Timeout { peer });
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::ConnectionReset
                        || e.kind() == std::io::ErrorKind::BrokenPipe
                        || e.kind() == std::io::ErrorKind::UnexpectedEof =>
                {
                    return Err(TransportError::Disconnected { peer });
                }
                Err(e) => return Err(TransportError::Io { peer, detail: e.to_string() }),
            }
        }
    }
}

/// Socket-backed [`Transport`] (one process per rank).
pub struct SocketTransport {
    rank: usize,
    world: usize,
    readers: Vec<Option<Mutex<FrameReader>>>,
    writers: Vec<Option<Mutex<Conn>>>,
}

impl std::fmt::Debug for SocketTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketTransport")
            .field("rank", &self.rank)
            .field("world", &self.world)
            .finish()
    }
}

fn io_err(peer: usize, e: std::io::Error) -> TransportError {
    TransportError::Io { peer, detail: e.to_string() }
}

impl SocketTransport {
    /// The UDS path rank `rank` listens on under `dir`.
    #[cfg(unix)]
    pub fn uds_path(dir: &Path, rank: usize) -> PathBuf {
        dir.join(format!("rank{rank}.sock"))
    }

    /// Joins a UDS mesh: binds `dir/rank<r>.sock`, dials every lower rank,
    /// accepts every higher one. All ranks must call this within
    /// `handshake_timeout` of each other.
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] if the mesh cannot be established in time.
    #[cfg(unix)]
    pub fn connect_uds(
        rank: usize,
        world: usize,
        dir: &Path,
        handshake_timeout: Duration,
    ) -> Result<SocketTransport, TransportError> {
        assert!(rank < world, "rank out of range");
        let path = SocketTransport::uds_path(dir, rank);
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).map_err(|e| io_err(rank, e))?;
        listener.set_nonblocking(true).map_err(|e| io_err(rank, e))?;
        let deadline = Instant::now() + handshake_timeout;
        let dial = |peer: usize| -> Result<Conn, TransportError> {
            let target = SocketTransport::uds_path(dir, peer);
            loop {
                match UnixStream::connect(&target) {
                    Ok(s) => return Ok(Conn::Uds(s)),
                    Err(e) => {
                        if Instant::now() >= deadline {
                            return Err(io_err(peer, e));
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
            }
        };
        let accept = || -> Result<Conn, TransportError> {
            loop {
                match listener.accept() {
                    Ok((s, _)) => {
                        s.set_nonblocking(false).map_err(|e| io_err(rank, e))?;
                        return Ok(Conn::Uds(s));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if Instant::now() >= deadline {
                            return Err(io_err(rank, e));
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) => return Err(io_err(rank, e)),
                }
            }
        };
        SocketTransport::mesh(rank, world, dial, accept)
    }

    /// Joins a TCP mesh; `addrs[r]` is the address rank `r` listens on.
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] if the mesh cannot be established in time.
    pub fn connect_tcp(
        rank: usize,
        world: usize,
        addrs: &[SocketAddr],
        handshake_timeout: Duration,
    ) -> Result<SocketTransport, TransportError> {
        assert!(rank < world, "rank out of range");
        assert_eq!(addrs.len(), world, "one address per rank");
        let listener = TcpListener::bind(addrs[rank]).map_err(|e| io_err(rank, e))?;
        listener.set_nonblocking(true).map_err(|e| io_err(rank, e))?;
        let deadline = Instant::now() + handshake_timeout;
        let dial = |peer: usize| -> Result<Conn, TransportError> {
            loop {
                match TcpStream::connect(addrs[peer]) {
                    Ok(s) => {
                        let _ = s.set_nodelay(true);
                        return Ok(Conn::Tcp(s));
                    }
                    Err(e) => {
                        if Instant::now() >= deadline {
                            return Err(io_err(peer, e));
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
            }
        };
        let accept = || -> Result<Conn, TransportError> {
            loop {
                match listener.accept() {
                    Ok((s, _)) => {
                        s.set_nonblocking(false).map_err(|e| io_err(rank, e))?;
                        let _ = s.set_nodelay(true);
                        return Ok(Conn::Tcp(s));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if Instant::now() >= deadline {
                            return Err(io_err(rank, e));
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) => return Err(io_err(rank, e)),
                }
            }
        };
        SocketTransport::mesh(rank, world, dial, accept)
    }

    /// Common mesh establishment: dial lower ranks (sending an 8-byte
    /// rank hello), accept higher ranks (reading theirs).
    fn mesh(
        rank: usize,
        world: usize,
        dial: impl Fn(usize) -> Result<Conn, TransportError>,
        accept: impl Fn() -> Result<Conn, TransportError>,
    ) -> Result<SocketTransport, TransportError> {
        let mut conns: Vec<Option<Conn>> = (0..world).map(|_| None).collect();
        for (peer, slot) in conns.iter_mut().enumerate().take(rank) {
            let mut conn = dial(peer)?;
            conn.write_all_bytes(&(rank as u64).to_le_bytes())
                .map_err(|e| io_err(peer, e))?;
            *slot = Some(conn);
        }
        for _ in rank + 1..world {
            let mut conn = accept()?;
            let mut hello = [0u8; 8];
            let mut filled = 0;
            while filled < hello.len() {
                let n = conn.read_some(&mut hello[filled..]).map_err(|e| io_err(rank, e))?;
                if n == 0 {
                    return Err(TransportError::Disconnected { peer: rank });
                }
                filled += n;
            }
            let peer = u64::from_le_bytes(hello) as usize;
            if peer >= world || conns[peer].is_some() || peer == rank {
                return Err(TransportError::Corrupt {
                    peer,
                    detail: format!("bad hello from rank {peer}"),
                });
            }
            conns[peer] = Some(conn);
        }
        let mut readers = Vec::with_capacity(world);
        let mut writers = Vec::with_capacity(world);
        for (peer, conn) in conns.into_iter().enumerate() {
            match conn {
                None => {
                    readers.push(None);
                    writers.push(None);
                }
                Some(conn) => {
                    let write_half = conn.try_clone().map_err(|e| io_err(peer, e))?;
                    readers.push(Some(Mutex::new(FrameReader { conn, buf: Vec::new() })));
                    writers.push(Some(Mutex::new(write_half)));
                }
            }
        }
        Ok(SocketTransport { rank, world, readers, writers })
    }

    fn reader(&self, from: usize) -> Result<&Mutex<FrameReader>, TransportError> {
        self.readers
            .get(from)
            .and_then(Option::as_ref)
            .ok_or(TransportError::Disconnected { peer: from })
    }
}

impl Transport for SocketTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.world
    }

    fn send(&self, to: usize, frame: Frame) -> Result<(), TransportError> {
        let writer = self
            .writers
            .get(to)
            .and_then(Option::as_ref)
            .ok_or(TransportError::Disconnected { peer: to })?;
        let bytes = frame.try_encode()?;
        writer.lock().write_all_bytes(&bytes).map_err(|e| match e.kind() {
            std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted => TransportError::Disconnected { peer: to },
            _ => io_err(to, e),
        })
    }

    fn recv(&self, from: usize) -> Result<Frame, TransportError> {
        self.reader(from)?.lock().read_frame(from, None)
    }

    fn recv_timeout(&self, from: usize, timeout: Duration) -> Result<Frame, TransportError> {
        self.reader(from)?.lock().read_frame(from, Some(timeout))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CollectiveConfig, Communicator};
    use std::thread;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dos-sock-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A connected two-rank UDS world in a fresh scratch directory.
    #[cfg(unix)]
    fn uds_pair(tag: &str) -> (SocketTransport, SocketTransport, PathBuf) {
        let dir = scratch_dir(tag);
        let t0 = thread::spawn({
            let dir = dir.clone();
            move || SocketTransport::connect_uds(0, 2, &dir, Duration::from_secs(5)).unwrap()
        });
        let t1 = SocketTransport::connect_uds(1, 2, &dir, Duration::from_secs(5)).unwrap();
        (t0.join().unwrap(), t1, dir)
    }

    #[cfg(unix)]
    #[test]
    fn uds_mesh_runs_collectives() {
        let dir = scratch_dir("uds");
        let world = 3;
        let handles: Vec<_> = (0..world)
            .map(|rank| {
                let dir = dir.clone();
                thread::spawn(move || {
                    let t =
                        SocketTransport::connect_uds(rank, world, &dir, Duration::from_secs(5))
                            .unwrap();
                    let comm = Communicator::new(
                        Box::new(t),
                        CollectiveConfig::with_timeout(Duration::from_secs(5)),
                    );
                    let mut data = vec![(rank + 1) as f32; 4];
                    comm.all_reduce_sum(&mut data).unwrap();
                    let gathered = comm.all_gather(&[rank as f32]).unwrap();
                    (data, gathered)
                })
            })
            .collect();
        for h in handles {
            let (reduced, gathered) = h.join().unwrap();
            assert_eq!(reduced, vec![6.0; 4]);
            assert_eq!(gathered, vec![0.0, 1.0, 2.0]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tcp_mesh_runs_collectives() {
        // Reserve two loopback ports, then race-free enough for a test:
        // rebind immediately after dropping the probes.
        let probes: Vec<TcpListener> =
            (0..2).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
        let addrs: Vec<SocketAddr> = probes.iter().map(|l| l.local_addr().unwrap()).collect();
        drop(probes);
        let handles: Vec<_> = (0..2)
            .map(|rank| {
                let addrs = addrs.clone();
                thread::spawn(move || {
                    let t = SocketTransport::connect_tcp(rank, 2, &addrs, Duration::from_secs(5))
                        .unwrap();
                    let comm = Communicator::new(
                        Box::new(t),
                        CollectiveConfig::with_timeout(Duration::from_secs(5)),
                    );
                    let mut data = vec![rank as f32 + 1.0; 2];
                    comm.all_reduce_sum(&mut data).unwrap();
                    data
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), vec![3.0; 2]);
        }
    }

    #[cfg(unix)]
    #[test]
    fn a_corrupted_header_is_reported_at_once_not_waited_on() {
        // A real UDS pair; rank 1 writes hand-corrupted bytes. Either flip
        // would have had the reader wait forever for a frame that never
        // completes (up to 4 GiB of it); both must read as `Corrupt` well
        // inside the timeout, from the 25 header bytes alone.
        // (scratch tag, header byte to flip, bit, what the error names)
        let cases = [("len", HEADER - 1, 0x80, "exceeds"), ("magic", 0, 0x01, "magic")];
        for (tag, at, bit, expect) in cases {
            let (t0, t1, dir) = uds_pair(tag);
            let mut bytes = Frame::data(1, 1, vec![7u8; 64]).encode();
            bytes[at] ^= bit;
            // Header only: the reader must not need the rest to decide.
            let writer = t1.writers[0].as_ref().unwrap();
            writer.lock().write_all_bytes(&bytes[..HEADER]).unwrap();
            let started = Instant::now();
            match t0.recv_timeout(1, Duration::from_secs(20)) {
                Err(TransportError::Corrupt { peer: 1, detail }) => {
                    assert!(detail.contains(expect), "{tag}: unexpected detail: {detail}");
                }
                other => panic!("{tag}: expected Corrupt, got {other:?}"),
            }
            assert!(started.elapsed() < Duration::from_secs(5), "{tag}: waited for the frame");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[cfg(unix)]
    #[test]
    fn an_oversized_payload_is_a_typed_send_error() {
        let (t0, t1, dir) = uds_pair("big");
        // Zeroed pages that are never touched: the length is checked before
        // a byte is copied.
        let frame = Frame::data(1, 1, vec![0u8; crate::MAX_PAYLOAD + 1]);
        assert_eq!(
            t1.send(0, frame),
            Err(TransportError::TooLarge { len: crate::MAX_PAYLOAD + 1 })
        );
        // Nothing reached the wire, and the link still works.
        t1.send(0, Frame::heartbeat(2)).unwrap();
        assert_eq!(t0.recv_timeout(1, Duration::from_secs(5)), Ok(Frame::heartbeat(2)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn peer_process_death_is_a_disconnect() {
        let (t0, t1, dir) = uds_pair("death");
        drop(t1); // rank 1 "process" exits
        match t0.recv_timeout(1, Duration::from_secs(2)) {
            Err(TransportError::Disconnected { peer: 1 }) => {}
            other => panic!("expected disconnect, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
