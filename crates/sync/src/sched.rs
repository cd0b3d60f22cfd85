//! Cooperative scheduler: the `check`-mode backend of the [`crate`]-level
//! facade.
//!
//! A *checked run* executes a closure (the "root body") on a virtual
//! thread whose every interaction with a channel or another thread is a
//! **yield point**: the thread parks, publishes the operation it wants to
//! perform ([`PendingOp`]), and waits for the controller to grant it the
//! run token. Exactly one virtual thread runs between grants, so the
//! entire interleaving of a run is the sequence of grants — a schedule —
//! chosen by the controller's [`Pick`] callback. Replaying the same pick
//! sequence replays the same execution bit for bit.
//!
//! Virtual threads are real OS threads (spawned inside a [`std::thread::scope`])
//! gated on a single mutex+condvar core, so the user code under test is the
//! *same code* that runs in production — only the primitives it blocks on
//! are swapped, and only when a scheduler context is installed on the
//! current thread.
//!
//! Blocking semantics are modeled, not executed: a `recv` on an empty,
//! connected channel leaves the thread parked-but-not-*enabled*, and the
//! controller only ever grants enabled threads. "All live threads parked,
//! none enabled" is therefore a *detected deadlock* (which subsumes
//! lost-wakeup bugs: a wakeup that production code would have missed shows
//! up here as a permanently disabled thread). Runs are torn down by
//! granting every parked thread with the abort flag raised; the primitives
//! then unwind their threads via a panic carrying [`Aborted`].

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

/// Virtual thread id (index into the run's thread table; the root body is
/// always tid 0, children number upward in spawn order).
pub type Tid = usize;

/// Virtual channel id (index into the run's channel table, in creation
/// order — deterministic under a fixed schedule).
pub type ChanId = usize;

/// The operation a parked virtual thread wants to perform next. This is
/// what schedule exploration sees at every decision point, and what
/// partial-order pruning reasons about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PendingOp {
    /// A freshly spawned thread waiting to start executing.
    Start,
    /// Send one value into a channel (never blocks: channels are unbounded).
    Send(ChanId),
    /// Receive from a channel; enabled when the queue is non-empty or all
    /// senders are gone.
    Recv(ChanId),
    /// Non-blocking receive probe (always enabled).
    TryRecv(ChanId),
    /// Drop one sender handle of a channel.
    CloseSender(ChanId),
    /// Drop one receiver handle of a channel.
    CloseReceiver(ChanId),
    /// Join another virtual thread; enabled once it has finished.
    Join(Tid),
    /// Observe whether another virtual thread has finished (always enabled).
    Poll(Tid),
}

impl PendingOp {
    /// The channel this operation touches, if it is a channel operation.
    pub fn channel(&self) -> Option<ChanId> {
        match self {
            PendingOp::Send(c)
            | PendingOp::Recv(c)
            | PendingOp::TryRecv(c)
            | PendingOp::CloseSender(c)
            | PendingOp::CloseReceiver(c) => Some(*c),
            _ => None,
        }
    }
}

/// Panic payload used to unwind virtual threads when a run is torn down
/// (deadlock, prune, or step-limit). Never escapes [`run_with_scheduler`].
#[derive(Debug, Clone, Copy)]
pub struct Aborted;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Status {
    /// Holds the run token and is executing user code.
    Running,
    /// Parked at a yield point, waiting for a grant.
    Parked(PendingOp),
    /// The thread's body has returned (or unwound).
    Finished,
}

struct ThreadSlot {
    status: Status,
    granted: bool,
}

struct ChanSlot {
    len: usize,
    senders: usize,
    receivers: usize,
}

struct Core {
    threads: Vec<ThreadSlot>,
    chans: Vec<ChanSlot>,
    abort: bool,
}

/// Shared state of one checked run: the scheduling core plus the condvar
/// both sides (controller and virtual threads) block on.
pub struct Shared {
    core: Mutex<Core>,
    cv: Condvar,
}

impl Shared {
    fn new() -> Shared {
        Shared {
            core: Mutex::new(Core { threads: Vec::new(), chans: Vec::new(), abort: false }),
            cv: Condvar::new(),
        }
    }

    /// Raises the abort flag and grants every parked thread so it can
    /// unwind. Idempotent; callable from either side.
    fn abort_all(&self) {
        let mut core = self.core.lock();
        core.abort = true;
        for t in core.threads.iter_mut() {
            if matches!(t.status, Status::Parked(_)) {
                t.granted = true;
            }
        }
        drop(core);
        self.cv.notify_all();
    }
}

/// Per-thread scheduler context: which run this thread belongs to and its
/// virtual thread id. Installed in TLS by `enter`.
#[derive(Clone)]
pub struct Ctx {
    shared: Arc<Shared>,
    tid: Tid,
}

std::thread_local! {
    static CTX: std::cell::RefCell<Option<Ctx>> = const { std::cell::RefCell::new(None) };
}

/// The scheduler context installed on the current thread, if any. The
/// facade uses this to decide between real and virtual primitives.
pub fn current() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

impl Ctx {
    /// Parks the current virtual thread at a yield point and blocks until
    /// the controller grants it the run token.
    ///
    /// During panic-unwinding this is a no-op (state updates still happen
    /// in the callers' `Drop` impls); if the run is aborting it panics
    /// with [`Aborted`] to unwind this thread.
    fn yield_op(&self, op: PendingOp) {
        if std::thread::panicking() {
            return;
        }
        let mut core = self.shared.core.lock();
        if core.abort {
            drop(core);
            std::panic::resume_unwind(Box::new(Aborted));
        }
        self.park_and_wait(&mut core, op);
        let abort = core.abort;
        drop(core);
        if abort {
            std::panic::resume_unwind(Box::new(Aborted));
        }
    }

    fn park_and_wait(&self, core: &mut parking_lot::MutexGuard<'_, Core>, op: PendingOp) {
        core.threads[self.tid].status = Status::Parked(op);
        core.threads[self.tid].granted = false;
        self.shared.cv.notify_all();
        while !core.threads[self.tid].granted {
            self.shared.cv.wait(core);
        }
        core.threads[self.tid].granted = false;
        core.threads[self.tid].status = Status::Running;
    }

    fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }
}

/// Registers a new virtual thread (born parked at [`PendingOp::Start`])
/// and returns its tid. Called by the spawning side before the OS thread
/// exists, so the controller sees the child immediately.
fn register_thread(shared: &Arc<Shared>) -> Tid {
    let mut core = shared.core.lock();
    core.threads.push(ThreadSlot { status: Status::Parked(PendingOp::Start), granted: false });
    let tid = core.threads.len() - 1;
    drop(core);
    shared.cv.notify_all();
    tid
}

/// Marks a thread finished when its body returns *or unwinds*, and clears
/// the TLS context. Produced by `enter`; must outlive the body.
pub struct ThreadGuard {
    shared: Arc<Shared>,
    tid: Tid,
}

impl Drop for ThreadGuard {
    fn drop(&mut self) {
        CTX.with(|c| *c.borrow_mut() = None);
        let mut core = self.shared.core.lock();
        core.threads[self.tid].status = Status::Finished;
        core.threads[self.tid].granted = false;
        drop(core);
        self.shared.cv.notify_all();
    }
}

/// Installs the scheduler context on the current OS thread, then blocks
/// until the controller schedules this virtual thread for the first time.
/// The returned guard marks the thread finished on drop (including
/// unwinds), so hold it for the whole body.
pub(super) fn enter(shared: Arc<Shared>, tid: Tid) -> ThreadGuard {
    CTX.with(|c| {
        *c.borrow_mut() = Some(Ctx { shared: shared.clone(), tid });
    });
    let guard = ThreadGuard { shared: shared.clone(), tid };
    // Wait for the first grant. Status is already Parked(Start).
    let mut core = shared.core.lock();
    while !core.threads[tid].granted {
        shared.cv.wait(&mut core);
    }
    core.threads[tid].granted = false;
    core.threads[tid].status = Status::Running;
    let abort = core.abort;
    drop(core);
    if abort {
        std::panic::resume_unwind(Box::new(Aborted));
    }
    guard
}

/// Spawn-side half of [`enter`]: registers the child with the scheduler.
pub(super) fn register_child(ctx: &Ctx) -> (Arc<Shared>, Tid) {
    let shared = ctx.shared().clone();
    let tid = register_thread(&shared);
    (shared, tid)
}

/// Scheduler-aware join: parks until `tid` has finished. A no-op when the
/// current thread is unwinding.
pub(super) fn join_thread(ctx: &Ctx, tid: Tid) {
    ctx.yield_op(PendingOp::Join(tid));
}

/// Scheduler-aware `is_finished` probe: yields (the observation is a real
/// interleaving point) and then reads the target's status.
pub(super) fn poll_thread(ctx: &Ctx, tid: Tid) -> bool {
    ctx.yield_op(PendingOp::Poll(tid));
    let core = ctx.shared.core.lock();
    matches!(core.threads[tid].status, Status::Finished)
}

/// Tears the current run down from *inside* a virtual thread (used when a
/// user panic is escaping a scope that still has live children, so the
/// implicit scope join cannot be left waiting on threads only the
/// controller can advance).
pub(super) fn abort_from_thread(ctx: &Ctx) {
    ctx.shared.abort_all();
}

// ---------------------------------------------------------------------------
// Virtual channels
// ---------------------------------------------------------------------------

struct ChanData<T> {
    queue: Mutex<VecDeque<T>>,
}

/// Sending half of a virtual channel.
pub struct VirtSender<T> {
    id: ChanId,
    shared: Arc<Shared>,
    data: Arc<ChanData<T>>,
}

/// Receiving half of a virtual channel.
pub struct VirtReceiver<T> {
    id: ChanId,
    shared: Arc<Shared>,
    data: Arc<ChanData<T>>,
}

/// Creates an unbounded virtual channel registered with `ctx`'s run.
pub(super) fn virt_channel<T>(ctx: &Ctx) -> (VirtSender<T>, VirtReceiver<T>) {
    let shared = ctx.shared().clone();
    let mut core = shared.core.lock();
    core.chans.push(ChanSlot { len: 0, senders: 1, receivers: 1 });
    let id = core.chans.len() - 1;
    drop(core);
    let data = Arc::new(ChanData { queue: Mutex::new(VecDeque::new()) });
    (
        VirtSender { id, shared: shared.clone(), data: data.clone() },
        VirtReceiver { id, shared, data },
    )
}

/// The context of the current thread, which must belong to the same run as
/// the endpoint. Channel endpoints never migrate between runs.
fn endpoint_ctx(shared: &Arc<Shared>) -> Ctx {
    match current() {
        Some(ctx) if Arc::ptr_eq(ctx.shared(), shared) => ctx,
        Some(_) => panic!("virtual channel endpoint used from a different checked run"),
        None => panic!("virtual channel endpoint used outside its checked run"),
    }
}

impl<T> VirtSender<T> {
    /// Sends `v`, yielding to the scheduler first. Fails iff the receiver
    /// is gone, matching crossbeam semantics.
    pub fn send(&self, v: T) -> Result<(), crossbeam::channel::SendError<T>> {
        let ctx = endpoint_ctx(&self.shared);
        ctx.yield_op(PendingOp::Send(self.id));
        let mut core = self.shared.core.lock();
        if core.chans[self.id].receivers == 0 {
            return Err(crossbeam::channel::SendError(v));
        }
        core.chans[self.id].len += 1;
        drop(core);
        self.data.queue.lock().push_back(v);
        Ok(())
    }
}

impl<T> Clone for VirtSender<T> {
    fn clone(&self) -> Self {
        let mut core = self.shared.core.lock();
        core.chans[self.id].senders += 1;
        drop(core);
        VirtSender { id: self.id, shared: self.shared.clone(), data: self.data.clone() }
    }
}

impl<T> Drop for VirtSender<T> {
    fn drop(&mut self) {
        // Dropping a sender is observable (it can disconnect the channel),
        // so it is a yield point — except during unwinds, where we only
        // record the state change.
        if !std::thread::panicking() {
            if let Some(ctx) = current() {
                if Arc::ptr_eq(ctx.shared(), &self.shared) {
                    ctx.yield_op(PendingOp::CloseSender(self.id));
                }
            }
        }
        let mut core = self.shared.core.lock();
        core.chans[self.id].senders = core.chans[self.id].senders.saturating_sub(1);
        drop(core);
        self.shared.cv.notify_all();
    }
}

impl<T> VirtReceiver<T> {
    /// Receives one value, yielding until the channel is readable or
    /// disconnected. The controller only grants this operation when it is
    /// enabled, so after the grant exactly one outcome applies.
    ///
    /// While unwinding (a guard that must outlive a peer's work), no grant
    /// can come: the run is torn down instead, so every parked peer
    /// unwinds too, and the receive waits until the channel is readable or
    /// its last sender is gone.
    pub fn recv(&self) -> Result<T, crossbeam::channel::RecvError> {
        let ctx = endpoint_ctx(&self.shared);
        ctx.yield_op(PendingOp::Recv(self.id));
        let mut core = self.shared.core.lock();
        let chan = &core.chans[self.id];
        if std::thread::panicking() && chan.len == 0 && chan.senders > 0 {
            drop(core);
            self.shared.abort_all();
            core = self.shared.core.lock();
            while core.chans[self.id].len == 0 && core.chans[self.id].senders > 0 {
                self.shared.cv.wait(&mut core);
            }
        }
        if core.chans[self.id].len > 0 {
            core.chans[self.id].len -= 1;
            drop(core);
            match self.data.queue.lock().pop_front() {
                Some(v) => Ok(v),
                None => panic!("virtual channel accounting out of sync with its queue"),
            }
        } else if core.chans[self.id].senders == 0 {
            Err(crossbeam::channel::RecvError)
        } else {
            panic!("scheduler granted recv on an empty, connected channel")
        }
    }

    /// Non-blocking receive; the probe itself is a yield point.
    pub fn try_recv(&self) -> Result<T, crossbeam::channel::TryRecvError> {
        let ctx = endpoint_ctx(&self.shared);
        ctx.yield_op(PendingOp::TryRecv(self.id));
        let mut core = self.shared.core.lock();
        if core.chans[self.id].len > 0 {
            core.chans[self.id].len -= 1;
            drop(core);
            match self.data.queue.lock().pop_front() {
                Some(v) => Ok(v),
                None => panic!("virtual channel accounting out of sync with its queue"),
            }
        } else if core.chans[self.id].senders == 0 {
            Err(crossbeam::channel::TryRecvError::Disconnected)
        } else {
            Err(crossbeam::channel::TryRecvError::Empty)
        }
    }
}

impl<T> Drop for VirtReceiver<T> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            if let Some(ctx) = current() {
                if Arc::ptr_eq(ctx.shared(), &self.shared) {
                    ctx.yield_op(PendingOp::CloseReceiver(self.id));
                }
            }
        }
        let mut core = self.shared.core.lock();
        core.chans[self.id].receivers = core.chans[self.id].receivers.saturating_sub(1);
        drop(core);
        self.shared.cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Controller
// ---------------------------------------------------------------------------

/// The controller's decision at one quiescent point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// Grant the run token to this tid (must be enabled).
    Run(Tid),
    /// Abandon the run (the explorer pruned this branch).
    Stop,
}

/// One recorded scheduling decision: what was runnable and what ran.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// The tid that was granted.
    pub chosen: Tid,
    /// Every enabled `(tid, pending-op)` pair at this point, ordered by
    /// tid. Deterministic under a fixed schedule.
    pub enabled: Vec<(Tid, PendingOp)>,
}

/// Why a run ended without its body completing normally.
#[derive(Debug, Clone)]
pub enum RunError {
    /// Every live thread was parked and none was enabled.
    Deadlock {
        /// Decision index at which the deadlock was detected.
        step: usize,
        /// The parked `(tid, op)` set at that point.
        parked: Vec<(Tid, PendingOp)>,
    },
    /// The pick callback abandoned the run ([`Pick::Stop`]).
    Stopped {
        /// Decision index at which the run was abandoned.
        step: usize,
    },
    /// The run exceeded the step budget (runaway-schedule guard).
    StepLimit {
        /// The configured budget.
        limit: usize,
    },
}

/// Everything a finished run yields: the body's result (None only when the
/// run was torn down before the root finished cleanly — the root is still
/// joined, its panic folded into `result` as `Some(Err(..))`), the decision
/// trace, and the teardown reason if any.
pub struct RunOutcome<R> {
    /// The root body's outcome; `Err` carries a panic payload (which is
    /// [`Aborted`] for controller-initiated teardowns).
    pub result: std::thread::Result<R>,
    /// The full decision trace, one record per grant.
    pub trace: Vec<StepRecord>,
    /// Set when the run was torn down (deadlock, prune, step limit).
    pub error: Option<RunError>,
}

fn op_enabled(core: &Core, op: &PendingOp) -> bool {
    match op {
        PendingOp::Recv(c) => core.chans[*c].len > 0 || core.chans[*c].senders == 0,
        PendingOp::Join(t) => matches!(core.threads[*t].status, Status::Finished),
        _ => true,
    }
}

/// Runs `body` as virtual thread 0 under a fresh cooperative scheduler,
/// asking `pick` which enabled thread to grant at every quiescent point.
///
/// `pick(step, enabled)` receives the decision index and the enabled set
/// (ordered by tid, never empty); returning [`Pick::Stop`] tears the run
/// down. A quiescent point with *no* enabled thread is a deadlock: the run
/// is torn down and reported in [`RunOutcome::error`].
///
/// Panics if called from inside another checked run (no nesting).
pub fn run_with_scheduler<R, F, P>(body: F, mut pick: P, max_steps: usize) -> RunOutcome<R>
where
    F: FnOnce() -> R + Send,
    R: Send,
    P: FnMut(usize, &[(Tid, PendingOp)]) -> Pick,
{
    if current().is_some() {
        panic!("nested checked runs are not supported");
    }
    let shared = Arc::new(Shared::new());
    let mut trace: Vec<StepRecord> = Vec::new();
    let mut error: Option<RunError> = None;

    let result = std::thread::scope(|s| {
        let root_tid = register_thread(&shared);
        let sh = shared.clone();
        let root = s.spawn(move || {
            let _guard = enter(sh, root_tid);
            body()
        });

        loop {
            // Wait for quiescence: nobody running, no grant outstanding.
            let mut core = shared.core.lock();
            loop {
                let busy = core.threads.iter().any(|t| {
                    matches!(t.status, Status::Running)
                        || (matches!(t.status, Status::Parked(_)) && t.granted)
                });
                if !busy {
                    break;
                }
                shared.cv.wait(&mut core);
            }
            if core.threads.iter().all(|t| matches!(t.status, Status::Finished)) {
                break;
            }

            // Collect the parked set and who is enabled, ordered by tid.
            let mut parked: Vec<(Tid, PendingOp)> = Vec::new();
            let mut enabled: Vec<(Tid, PendingOp)> = Vec::new();
            for (tid, t) in core.threads.iter().enumerate() {
                if let Status::Parked(op) = &t.status {
                    parked.push((tid, *op));
                    if op_enabled(&core, op) {
                        enabled.push((tid, *op));
                    }
                }
            }

            if enabled.is_empty() {
                error = Some(RunError::Deadlock { step: trace.len(), parked });
                drop(core);
                shared.abort_all();
                continue;
            }
            if trace.len() >= max_steps {
                error = Some(RunError::StepLimit { limit: max_steps });
                drop(core);
                shared.abort_all();
                continue;
            }
            drop(core);

            match pick(trace.len(), &enabled) {
                Pick::Run(tid) => {
                    let mut core = shared.core.lock();
                    let ok_grant = matches!(core.threads[tid].status, Status::Parked(_))
                        && enabled.iter().any(|(t, _)| *t == tid);
                    if !ok_grant {
                        panic!("pick chose tid {tid}, which is not enabled");
                    }
                    core.threads[tid].granted = true;
                    drop(core);
                    shared.cv.notify_all();
                    trace.push(StepRecord { chosen: tid, enabled });
                }
                Pick::Stop => {
                    error = Some(RunError::Stopped { step: trace.len() });
                    shared.abort_all();
                }
            }
        }

        root.join()
    });

    RunOutcome { result, trace, error }
}
