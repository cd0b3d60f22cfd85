//! Concurrency facade: real `crossbeam`/`std::thread` primitives in
//! production, a cooperative scheduler under deterministic checking.
//!
//! The hybrid pipeline and the async checkpointer build on exactly four
//! primitives: unbounded MPMC channels, scoped threads, detached threads,
//! and joins. This module is the single place they obtain them. In a
//! normal build the wrappers here compile straight down to
//! `crossbeam::channel` and `std::thread` and add nothing on top. With the
//! `check` feature enabled they *additionally* consult a thread-local
//! scheduler context at construction time: inside a checked run (see
//! [`sched::run_with_scheduler`]) every primitive becomes a virtualized,
//! schedule-controlled twin with a yield point at each observable
//! operation; outside a checked run — including every production code path
//! of a `check`-enabled build — the context is absent and the real
//! primitives are used, byte-for-byte identical behavior to the
//! feature-off build.
//!
//! That fall-through design is what lets `dos-check` sit downstream of
//! this crate in the same workspace (Cargo unifies features across the
//! build graph) without perturbing anything the conformance suite
//! measures.
//!
//! Historically this module lived inside `dos-core`; it became its own
//! crate so that crates *below* `dos-core` in the dependency graph
//! (`dos-collectives`' in-process transport, most notably) can route their
//! concurrency through the same facade and become explorable by
//! `dos-check`. `dos-core` re-exports it as `dos_core::sync`, so existing
//! paths keep working.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

#[cfg(feature = "check")]
pub mod sched;

pub use crossbeam::channel::{RecvError, RecvTimeoutError, SendError, TryRecvError};

// ---------------------------------------------------------------------------
// Channels
// ---------------------------------------------------------------------------

enum SenderRepr<T> {
    Real(crossbeam::channel::Sender<T>),
    #[cfg(feature = "check")]
    Virt(sched::VirtSender<T>),
}

enum ReceiverRepr<T> {
    Real(crossbeam::channel::Receiver<T>),
    #[cfg(feature = "check")]
    Virt(sched::VirtReceiver<T>),
}

/// Sending half of an unbounded channel (facade over
/// `crossbeam::channel::Sender`).
pub struct Sender<T>(SenderRepr<T>);

/// Receiving half of an unbounded channel (facade over
/// `crossbeam::channel::Receiver`).
pub struct Receiver<T>(ReceiverRepr<T>);

/// Creates an unbounded channel. Inside a checked run this returns a
/// virtualized channel whose operations are scheduler yield points;
/// otherwise it is exactly `crossbeam::channel::unbounded`.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    #[cfg(feature = "check")]
    if let Some(ctx) = sched::current() {
        let (tx, rx) = sched::virt_channel(&ctx);
        return (Sender(SenderRepr::Virt(tx)), Receiver(ReceiverRepr::Virt(rx)));
    }
    let (tx, rx) = crossbeam::channel::unbounded();
    (Sender(SenderRepr::Real(tx)), Receiver(ReceiverRepr::Real(rx)))
}

impl<T> Sender<T> {
    /// Sends a value; fails iff all receivers are gone.
    ///
    /// # Errors
    ///
    /// Returns [`SendError`] carrying the value back when the channel is
    /// disconnected.
    pub fn send(&self, v: T) -> Result<(), SendError<T>> {
        match &self.0 {
            SenderRepr::Real(tx) => tx.send(v),
            #[cfg(feature = "check")]
            SenderRepr::Virt(tx) => tx.send(v),
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        match &self.0 {
            SenderRepr::Real(tx) => Sender(SenderRepr::Real(tx.clone())),
            #[cfg(feature = "check")]
            SenderRepr::Virt(tx) => Sender(SenderRepr::Virt(tx.clone())),
        }
    }
}

impl<T> Receiver<T> {
    /// Blocks until a value or disconnection.
    ///
    /// # Errors
    ///
    /// Returns [`RecvError`] when the channel is empty and all senders are
    /// gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        match &self.0 {
            ReceiverRepr::Real(rx) => rx.recv(),
            #[cfg(feature = "check")]
            ReceiverRepr::Virt(rx) => rx.recv(),
        }
    }

    /// Receives with a deadline. Inside a checked run the timeout is
    /// virtual and never fires: the cooperative scheduler's deadlock
    /// detector subsumes it (a recv that can never be enabled is reported
    /// as a deadlock rather than spun on), so the virtualized arm degrades
    /// to a plain blocking [`Receiver::recv`].
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] when nothing arrived in time,
    /// [`RecvTimeoutError::Disconnected`] when the channel is empty and all
    /// senders are gone.
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
        match &self.0 {
            ReceiverRepr::Real(rx) => rx.recv_timeout(timeout),
            #[cfg(feature = "check")]
            ReceiverRepr::Virt(rx) => rx.recv().map_err(|RecvError| RecvTimeoutError::Disconnected),
        }
    }

    /// Non-blocking receive.
    ///
    /// # Errors
    ///
    /// [`TryRecvError::Empty`] when nothing is queued,
    /// [`TryRecvError::Disconnected`] when additionally all senders are
    /// gone.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        match &self.0 {
            ReceiverRepr::Real(rx) => rx.try_recv(),
            #[cfg(feature = "check")]
            ReceiverRepr::Virt(rx) => rx.try_recv(),
        }
    }

    /// Iterator of received values; ends at disconnection.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { rx: self }
    }
}

/// Blocking iterator over a [`Receiver`].
pub struct Iter<'a, T> {
    rx: &'a Receiver<T>,
}

impl<T> Iterator for Iter<'_, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.rx.recv().ok()
    }
}

// ---------------------------------------------------------------------------
// Scoped threads
// ---------------------------------------------------------------------------

#[cfg(feature = "check")]
type PendingJoins = std::sync::Arc<parking_lot::Mutex<Vec<sched::Tid>>>;

/// Facade over [`std::thread::Scope`]: spawns scoped threads that, inside
/// a checked run, become scheduler-controlled virtual threads.
pub struct Scope<'scope, 'env> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
    #[cfg(feature = "check")]
    ctx: Option<sched::Ctx>,
    #[cfg(feature = "check")]
    pending: PendingJoins,
}

/// Handle to a scoped thread; facade over
/// [`std::thread::ScopedJoinHandle`].
pub struct ScopedJoinHandle<'scope, T> {
    inner: std::thread::ScopedJoinHandle<'scope, T>,
    #[cfg(feature = "check")]
    virt: Option<VirtHandle>,
}

#[cfg(feature = "check")]
struct VirtHandle {
    ctx: sched::Ctx,
    tid: sched::Tid,
    pending: PendingJoins,
}

/// Runs `f` with a [`Scope`] whose spawned threads are all joined before
/// this call returns — `std::thread::scope` semantics, scheduler-aware
/// inside a checked run (handles the body never joined are yield-joined
/// through the scheduler so the implicit scope join cannot block outside
/// its control).
pub fn scope<'env, T, F>(f: F) -> T
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> T,
{
    std::thread::scope(|s| {
        let scope = Scope {
            inner: s,
            #[cfg(feature = "check")]
            ctx: sched::current(),
            #[cfg(feature = "check")]
            pending: std::sync::Arc::new(parking_lot::Mutex::new(Vec::new())),
        };
        #[cfg(feature = "check")]
        let _drain = DrainGuard(&scope);
        f(&scope)
    })
}

/// Yield-joins (or, when unwinding, aborts) a scope's unjoined virtual
/// threads before the enclosing `std::thread::scope` performs its own
/// blocking joins.
#[cfg(feature = "check")]
struct DrainGuard<'a, 'scope, 'env>(&'a Scope<'scope, 'env>);

#[cfg(feature = "check")]
impl Drop for DrainGuard<'_, '_, '_> {
    fn drop(&mut self) {
        let Some(ctx) = &self.0.ctx else { return };
        if std::thread::panicking() {
            // A panic is escaping the scope body while children may still
            // be parked; only the controller can advance them, so tear the
            // run down and let the implicit scope join collect the unwound
            // threads.
            sched::abort_from_thread(ctx);
            return;
        }
        let tids: Vec<sched::Tid> = std::mem::take(&mut *self.0.pending.lock());
        for tid in tids {
            sched::join_thread(ctx, tid);
        }
    }
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a scoped thread (virtualized inside a checked run).
    pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
    where
        F: FnOnce() -> T + Send + 'scope,
        T: Send + 'scope,
    {
        #[cfg(feature = "check")]
        if let Some(ctx) = &self.ctx {
            let (shared, tid) = sched::register_child(ctx);
            self.pending.lock().push(tid);
            let inner = self.inner.spawn(move || {
                let _guard = sched::enter(shared, tid);
                f()
            });
            return ScopedJoinHandle {
                inner,
                virt: Some(VirtHandle {
                    ctx: ctx.clone(),
                    tid,
                    pending: self.pending.clone(),
                }),
            };
        }
        ScopedJoinHandle {
            inner: self.inner.spawn(f),
            #[cfg(feature = "check")]
            virt: None,
        }
    }
}

impl<T> ScopedJoinHandle<'_, T> {
    /// Waits for the thread to finish; `Err` carries its panic payload.
    ///
    /// # Errors
    ///
    /// Returns the thread's panic payload if it unwound.
    pub fn join(self) -> std::thread::Result<T> {
        #[cfg(feature = "check")]
        if let Some(v) = &self.virt {
            v.pending.lock().retain(|&t| t != v.tid);
            sched::join_thread(&v.ctx, v.tid);
        }
        self.inner.join()
    }
}

// ---------------------------------------------------------------------------
// Detached threads
// ---------------------------------------------------------------------------

/// Handle to a detached thread; facade over [`std::thread::JoinHandle`].
pub struct JoinHandle<T> {
    inner: std::thread::JoinHandle<T>,
    #[cfg(feature = "check")]
    virt: Option<OwnedVirt>,
}

#[cfg(feature = "check")]
struct OwnedVirt {
    ctx: sched::Ctx,
    tid: sched::Tid,
}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinHandle").finish_non_exhaustive()
    }
}

/// Spawns a detached thread (facade over [`std::thread::spawn`];
/// virtualized inside a checked run).
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    #[cfg(feature = "check")]
    if let Some(ctx) = sched::current() {
        let (shared, tid) = sched::register_child(&ctx);
        let inner = std::thread::spawn(move || {
            let _guard = sched::enter(shared, tid);
            f()
        });
        return JoinHandle { inner, virt: Some(OwnedVirt { ctx, tid }) };
    }
    JoinHandle {
        inner: std::thread::spawn(f),
        #[cfg(feature = "check")]
        virt: None,
    }
}

impl<T> JoinHandle<T> {
    /// Whether the thread has finished. Inside a checked run the probe is
    /// itself a scheduling yield point (observing completion is an
    /// interleaving decision).
    pub fn is_finished(&self) -> bool {
        #[cfg(feature = "check")]
        if let Some(v) = &self.virt {
            return sched::poll_thread(&v.ctx, v.tid);
        }
        self.inner.is_finished()
    }

    /// Waits for the thread to finish; `Err` carries its panic payload.
    ///
    /// # Errors
    ///
    /// Returns the thread's panic payload if it unwound.
    pub fn join(self) -> std::thread::Result<T> {
        #[cfg(feature = "check")]
        if let Some(v) = &self.virt {
            sched::join_thread(&v.ctx, v.tid);
        }
        self.inner.join()
    }
}

#[cfg(all(test, feature = "check"))]
mod tests {
    use super::sched::{run_with_scheduler, Pick, PendingOp, RunError};
    use super::*;

    /// Lowest-enabled-tid pick: the deterministic default schedule.
    fn first(_: usize, enabled: &[(sched::Tid, PendingOp)]) -> Pick {
        Pick::Run(enabled[0].0)
    }

    #[test]
    fn facade_uses_real_primitives_outside_a_run() {
        let (tx, rx) = unbounded::<u32>();
        std::thread::scope(|s| {
            s.spawn(move || {
                tx.send(7).unwrap();
            });
            assert_eq!(rx.recv(), Ok(7));
        });
    }

    #[test]
    fn checked_run_ping_pong_completes_under_default_schedule() {
        let outcome = run_with_scheduler(
            || {
                let (tx, rx) = unbounded::<u32>();
                let (back_tx, back_rx) = unbounded::<u32>();
                scope(|s| {
                    let worker = s.spawn(move || {
                        while let Ok(v) = rx.recv() {
                            back_tx.send(v * 2).unwrap();
                        }
                    });
                    for i in 0..4 {
                        tx.send(i).unwrap();
                    }
                    drop(tx);
                    let got: Vec<u32> = back_rx.iter().collect();
                    worker.join().unwrap();
                    got
                })
            },
            first,
            10_000,
        );
        assert!(outcome.error.is_none(), "unexpected teardown: {:?}", outcome.error);
        assert_eq!(outcome.result.unwrap(), vec![0, 2, 4, 6]);
        assert!(!outcome.trace.is_empty());
    }

    #[test]
    fn recv_with_live_sender_in_hand_is_a_detected_deadlock() {
        let outcome = run_with_scheduler(
            || {
                let (_tx, rx) = unbounded::<u32>();
                // _tx is alive on this very thread: recv can never be
                // enabled, and no other thread exists to send.
                let _ = rx.recv();
            },
            first,
            10_000,
        );
        match outcome.error {
            Some(RunError::Deadlock { parked, .. }) => {
                assert!(parked.iter().any(|(_, op)| matches!(op, PendingOp::Recv(_))));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
        assert!(outcome.result.is_err(), "root must have been unwound");
    }

    #[test]
    fn a_guard_receiving_while_its_thread_unwinds_waits_for_the_teardown() {
        struct RecvOnDrop(Receiver<u32>);
        impl Drop for RecvOnDrop {
            fn drop(&mut self) {
                let _ = self.0.recv();
            }
        }
        let outcome = run_with_scheduler(
            || {
                let (jobs_tx, jobs_rx) = unbounded::<u32>();
                let (back_tx, back_rx) = unbounded::<u32>();
                let _worker = spawn(move || {
                    while let Ok(v) = jobs_rx.recv() {
                        let _ = back_tx.send(v);
                    }
                });
                let _guard = RecvOnDrop(back_rx);
                let _parked = jobs_tx; // keeps the worker parked in `recv`
                panic!("the root dies while its guard waits on the worker");
            },
            first,
            10_000,
        );
        // The guard's receive neither aborted the process nor hung: it tore
        // the run down and returned once the worker had unwound.
        assert!(outcome.result.is_err(), "root must have been unwound");
    }

    #[test]
    fn detached_spawn_poll_and_join_are_schedulable() {
        let outcome = run_with_scheduler(
            || {
                let h = spawn(|| 41 + 1);
                let polled = h.is_finished();
                let v = h.join().unwrap();
                (polled, v)
            },
            first,
            10_000,
        );
        assert!(outcome.error.is_none());
        let (_, v) = outcome.result.unwrap();
        assert_eq!(v, 42);
    }

}
