//! Offline shim for the `crossbeam` crate.
//!
//! Provides `crossbeam::channel` with MPMC semantics (both endpoints are
//! `Clone + Send + Sync`, unlike `std::sync::mpsc`), which the functional
//! pipeline relies on: receivers are borrowed into scoped threads.

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        capacity: Option<usize>,
    }

    struct Inner<T> {
        state: Mutex<State<T>>,
        cv: Condvar,
    }

    /// Sending half of a channel; cloning adds a producer.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// Receiving half of a channel; cloning adds a consumer.
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone;
    /// carries the unsent value like crossbeam's.
    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    // Like real crossbeam: Debug without requiring `T: Debug`, so
    // `.expect()` works on channels of non-Debug payloads.
    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        /// Nothing arrived before the deadline; senders may still exist.
        Timeout,
        /// The channel is empty and all senders are gone.
        Disconnected,
    }

    impl std::fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                RecvTimeoutError::Timeout => f.write_str("timed out waiting on receive operation"),
                RecvTimeoutError::Disconnected => {
                    f.write_str("receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl std::error::Error for RecvTimeoutError {}

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl std::fmt::Display for RecvError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl<T: std::fmt::Debug> std::error::Error for SendError<T> {}
    impl std::error::Error for RecvError {}

    fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                capacity,
            }),
            cv: Condvar::new(),
        });
        (Sender { inner: Arc::clone(&inner) }, Receiver { inner })
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    /// Creates a bounded channel; `send` blocks while `cap` items queue.
    /// A zero capacity degrades to capacity 1 (no rendezvous support).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(Some(cap.max(1)))
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.inner.state.lock().expect("channel lock");
            loop {
                if st.receivers == 0 {
                    return Err(SendError(value));
                }
                match st.capacity {
                    Some(cap) if st.queue.len() >= cap => {
                        st = self.inner.cv.wait(st).expect("channel lock");
                    }
                    _ => break,
                }
            }
            st.queue.push_back(value);
            self.inner.cv.notify_all();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Pops the head of the queue. Only a bounded channel can have a
        /// sender waiting for the slot this frees, so only there is the
        /// wake-up (a `futex` syscall, heard or not) worth making.
        fn pop(&self, st: &mut State<T>) -> Option<T> {
            let v = st.queue.pop_front()?;
            if st.capacity.is_some() {
                self.inner.cv.notify_all();
            }
            Some(v)
        }

        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.inner.state.lock().expect("channel lock");
            loop {
                if let Some(v) = self.pop(&mut st) {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.inner.cv.wait(st).expect("channel lock");
            }
        }

        /// Blocks until a value, disconnection, or the timeout elapses.
        pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
            let deadline = std::time::Instant::now() + timeout;
            let mut st = self.inner.state.lock().expect("channel lock");
            loop {
                if let Some(v) = self.pop(&mut st) {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = std::time::Instant::now();
                let Some(remaining) = deadline.checked_duration_since(now).filter(|d| !d.is_zero())
                else {
                    return Err(RecvTimeoutError::Timeout);
                };
                let (guard, _timed_out) = self
                    .inner
                    .cv
                    .wait_timeout(st, remaining)
                    .expect("channel lock");
                st = guard;
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.inner.state.lock().expect("channel lock");
            if let Some(v) = self.pop(&mut st) {
                return Ok(v);
            }
            if st.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Blocking iterator draining the channel until disconnect.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<'a, T> Iterator for Iter<'a, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.state.lock().expect("channel lock").senders += 1;
            Sender { inner: Arc::clone(&self.inner) }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.inner.state.lock().expect("channel lock").receivers += 1;
            Receiver { inner: Arc::clone(&self.inner) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            self.inner.state.lock().expect("channel lock").senders -= 1;
            self.inner.cv.notify_all();
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.inner.state.lock().expect("channel lock").receivers -= 1;
            self.inner.cv.notify_all();
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::thread;

        #[test]
        fn unbounded_cross_thread_round_trip() {
            let (tx, rx) = unbounded::<usize>();
            let (back_tx, back_rx) = unbounded::<usize>();
            thread::scope(|s| {
                s.spawn(|| {
                    while let Ok(v) = rx.recv() {
                        back_tx.send(v * 2).unwrap();
                    }
                    drop(back_tx);
                });
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
                drop(tx);
                let mut got: Vec<usize> = Vec::new();
                while let Ok(v) = back_rx.recv() {
                    got.push(v);
                }
                got.sort_unstable();
                assert_eq!(got, (0..100).map(|i| i * 2).collect::<Vec<_>>());
            });
        }

        #[test]
        fn recv_errors_after_senders_gone() {
            let (tx, rx) = unbounded::<u8>();
            tx.send(1).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn recv_timeout_times_out_then_delivers() {
            use std::time::Duration;
            let (tx, rx) = unbounded::<u8>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            tx.send(3).unwrap();
            assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(3));
            drop(tx);
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn pop_releases_a_sender_blocked_on_a_full_bounded_channel() {
            // Each receive flavour in turn frees the one slot; the blocked
            // `send` returning is the proof that the pop still notifies.
            type Pop = fn(&Receiver<u8>) -> Option<u8>;
            let pops: [Pop; 3] = [
                |rx| rx.recv().ok(),
                |rx| rx.recv_timeout(std::time::Duration::from_secs(5)).ok(),
                |rx| rx.try_recv().ok(),
            ];
            for pop in pops {
                let (tx, rx) = bounded::<u8>(1);
                tx.send(1).unwrap();
                thread::scope(|s| {
                    let blocked = s.spawn(|| tx.send(2));
                    assert_eq!(pop(&rx), Some(1));
                    assert_eq!(blocked.join().unwrap(), Ok(()));
                });
                assert_eq!(rx.try_recv(), Ok(2));
            }
        }

        #[test]
        fn send_errors_after_receivers_gone() {
            let (tx, rx) = unbounded::<u8>();
            drop(rx);
            assert_eq!(tx.send(7), Err(SendError(7)));
        }
    }
}
