//! Lending a step's subgroup ranges to the device worker, in place.
//!
//! The paper's GPU has memory of its own, so Alg. 1 stages each device
//! subgroup's p/m/v/g over PCIe and flushes it back. The functional device
//! is a second core on the same DRAM: it can update a subgroup where it
//! lies and downscale it straight into the step's FP16 output. What the
//! borrow checker cannot see is that a `'static` worker parked between
//! steps may write through `&mut` ranges a step only borrows. This module
//! is the one place that is argued, and it hands `pipeline` a safe API:
//!
//! * [`channel`] pairs the step's end ([`Lending`]) with the worker's
//!   ([`Borrowing`]). Neither end can be cloned, and the messages on them
//!   are opaque outside this module.
//! * [`Lending::scope`] gives the step a [`Lender`] for one scope. Lending
//!   moves a subgroup's [`Ranges`] into a lifetime-erased loan; the scope
//!   cannot end — on return or while unwinding — until every loan is back
//!   or the worker has hung up.
//! * [`Borrowing::serve`] is the only code that turns a loan into slices on
//!   the worker's side, and only for one call of the worker's closure,
//!   which can keep no view past the call. The loan then goes back, and
//!   the worker hangs up only by leaving `serve`.
//!
//! So once a loan is back, or a wait has found the worker hung up, no
//! other view of its ranges exists, and the lender may give them back to
//! the step.

use std::marker::PhantomData;
use std::ops::ControlFlow;
use std::ptr::NonNull;

use dos_tensor::F16;

use crate::sync;

/// One subgroup's share of the step's five flat vectors: the FP32 state it
/// updates, its gradients, and its slice of the FP16 output.
pub(crate) struct Ranges<'a> {
    pub(crate) p: &'a mut [f32],
    pub(crate) m: &'a mut [f32],
    pub(crate) v: &'a mut [f32],
    pub(crate) g: &'a [f32],
    pub(crate) p16: &'a mut [F16],
}

impl<'a> Ranges<'a> {
    /// Cuts the first `mid` elements of all five ranges off the rest.
    ///
    /// # Panics
    ///
    /// Panics if `mid` exceeds any range's length.
    pub(crate) fn split_at(self, mid: usize) -> (Ranges<'a>, Ranges<'a>) {
        let (p, p_rest) = self.p.split_at_mut(mid);
        let (m, m_rest) = self.m.split_at_mut(mid);
        let (v, v_rest) = self.v.split_at_mut(mid);
        let (g, g_rest) = self.g.split_at(mid);
        let (p16, p16_rest) = self.p16.split_at_mut(mid);
        let rest = Ranges { p: p_rest, m: m_rest, v: v_rest, g: g_rest, p16: p16_rest };
        (Ranges { p, m, v, g, p16 }, rest)
    }
}

/// A [`Ranges`] with its lifetime erased, on its way to the worker and
/// back. `seq` is its place in the scope's lending order, `key` the
/// caller's name for it.
#[derive(Clone, Copy)]
struct Loan {
    seq: usize,
    key: usize,
    p: NonNull<[f32]>,
    m: NonNull<[f32]>,
    v: NonNull<[f32]>,
    g: NonNull<[f32]>,
    p16: NonNull<[F16]>,
}

// SAFETY: every field is a pointer to `f32` or `F16` data (both `Send` and
// `Sync`) or a plain index. Which thread may use the pointers, and when, is
// the lend/serve protocol of the module docs; moving the pointers between
// threads creates no access by itself.
unsafe impl Send for Loan {}

impl Loan {
    fn new(seq: usize, key: usize, r: Ranges<'_>) -> Loan {
        let Ranges { p, m, v, g, p16 } = r;
        let (p, m, v, g, p16) = (p.into(), m.into(), v.into(), g.into(), p16.into());
        Loan { seq, key, p, m, v, g, p16 }
    }

    /// The loan's ranges again, for a lifetime the caller picks.
    ///
    /// # Safety
    ///
    /// The ranges must stay alive for `'b`, and no other view of them may
    /// be used during `'b`.
    // SAFETY: an `unsafe fn`; the contract above is on its callers.
    unsafe fn ranges<'b>(self) -> Ranges<'b> {
        Ranges {
            p: &mut *self.p.as_ptr(),
            m: &mut *self.m.as_ptr(),
            v: &mut *self.v.as_ptr(),
            g: &*self.g.as_ptr(),
            p16: &mut *self.p16.as_ptr(),
        }
    }
}

/// The step's end of the worker's two channels: jobs out, loans back.
pub(crate) struct Lending<M> {
    jobs: sync::Sender<(M, Loan)>,
    returns: sync::Receiver<Loan>,
}

/// The worker's end of the channels [`Lending`] holds the other end of.
pub(crate) struct Borrowing<M> {
    jobs: sync::Receiver<(M, Loan)>,
    returns: sync::Sender<Loan>,
}

/// A connected pair of ends; jobs carry a description `M` beside the loan.
pub(crate) fn channel<M>() -> (Lending<M>, Borrowing<M>) {
    let (jobs, jobs_rx) = sync::unbounded();
    let (returns_tx, returns) = sync::unbounded();
    (Lending { jobs, returns }, Borrowing { jobs: jobs_rx, returns: returns_tx })
}

impl<M> Borrowing<M> {
    /// The worker's loop: each job's description and ranges go to `work`
    /// for the length of one call, then the loan goes back. Returns — and
    /// only then has the worker hung up — when the step's end is dropped,
    /// when a loan cannot go back, or when `work` breaks; a panic in
    /// `work` unwinds out of it the same way.
    pub(crate) fn serve(self, mut work: impl FnMut(M, Ranges<'_>) -> ControlFlow<()>) {
        while let Ok((job, loan)) = self.jobs.recv() {
            // SAFETY: the lender that sent `loan` keeps its ranges borrowed
            // and unused until the loan is back or this loop has ended, and
            // `work` cannot keep the view past its call.
            let ranges = unsafe { loan.ranges() };
            if work(job, ranges).is_break() || self.returns.send(loan).is_err() {
                return;
            }
        }
    }
}

impl<M> Lending<M> {
    /// Runs `f` with a [`Lender`] over this channel pair. Ranges lent in the
    /// scope are borrowed for `'a`, which outlives the call: the lender's
    /// drop, on return and while unwinding alike, waits until each loan is
    /// back or the worker has hung up.
    pub(crate) fn scope<'a, R>(&mut self, f: impl FnOnce(&mut Lender<'a, '_, M>) -> R) -> R {
        let mut lender =
            Lender { ends: self, out: Vec::new(), lent: 0, hung_up: false, borrow: PhantomData };
        f(&mut lender)
    }
}

/// The worker hung up with loans still out: [`Lender::recover`] has them.
#[derive(Debug)]
pub(crate) struct HungUp;

/// One scope's loans: which are out, and whether the worker has hung up.
pub(crate) struct Lender<'a, 'e, M> {
    ends: &'e Lending<M>,
    /// Loans not back yet, in lending order.
    out: Vec<Loan>,
    lent: usize,
    hung_up: bool,
    borrow: PhantomData<Ranges<'a>>,
}

impl<'a, M> Lender<'a, '_, M> {
    /// Lends `ranges` with the job `job`; `key` names them when they come
    /// back. A send that finds the worker gone is not noticed here: the
    /// loan stays out until a wait finds the hang-up.
    pub(crate) fn lend(&mut self, key: usize, job: M, ranges: Ranges<'a>) {
        let loan = Loan::new(self.lent, key, ranges);
        self.lent += 1;
        self.out.push(loan);
        let _ = self.ends.jobs.send((job, loan));
    }

    /// Loans lent and not back yet.
    pub(crate) fn out(&self) -> usize {
        self.out.len()
    }

    /// The key of the next loan back: waited for when `wait` is set and a
    /// loan is out, otherwise taken only if one is back already. A wait
    /// that finds the worker hung up is `Err`; a poll never reports it.
    pub(crate) fn reclaim(&mut self, wait: bool) -> Result<Option<usize>, HungUp> {
        let back = if wait && !self.out.is_empty() && !self.hung_up {
            match self.ends.returns.recv() {
                Ok(loan) => loan,
                Err(_) => {
                    self.hung_up = true;
                    return Err(HungUp);
                }
            }
        } else {
            match self.ends.returns.try_recv() {
                Ok(loan) => loan,
                Err(_) => return Ok(None),
            }
        };
        self.out.retain(|loan| loan.seq != back.seq);
        Ok(Some(back.key))
    }

    /// Once a wait has found the worker hung up: the keys and ranges of the
    /// loans that never came back, in lending order, the caller's again.
    /// Empty before that.
    pub(crate) fn recover(&mut self) -> Vec<(usize, Ranges<'a>)> {
        if !self.hung_up {
            return Vec::new();
        }
        self.out
            .drain(..)
            // SAFETY: the worker has left `serve`, so no view of a loan's
            // ranges is left on its side, and they stay borrowed for `'a`.
            .map(|loan| (loan.key, unsafe { loan.ranges() }))
            .collect()
    }
}

impl<M> Drop for Lender<'_, '_, M> {
    fn drop(&mut self) {
        // The borrow behind every lent range may end right after this: wait
        // until none is still with the worker.
        while !self.out.is_empty() && !self.hung_up {
            let _ = self.reclaim(true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The step's five vectors, `n` elements each.
    struct Step {
        p: Vec<f32>,
        m: Vec<f32>,
        v: Vec<f32>,
        g: Vec<f32>,
        p16: Vec<F16>,
    }

    impl Step {
        fn new(n: usize) -> Step {
            let zeros = vec![0.0; n];
            Step {
                p: zeros.clone(),
                m: zeros.clone(),
                v: zeros.clone(),
                g: zeros,
                p16: vec![F16::ZERO; n],
            }
        }

        /// The vectors cut into subgroups of four.
        fn subgroups(&mut self) -> Vec<Ranges<'_>> {
            let Step { p, m, v, g, p16 } = self;
            let mut rest = Ranges { p, m, v, g, p16 };
            let mut out = Vec::new();
            while !rest.p.is_empty() {
                let (head, tail) = rest.split_at(4);
                out.push(head);
                rest = tail;
            }
            out
        }
    }

    #[test]
    fn a_caller_panic_unwinds_only_after_every_loan_is_back() {
        let (mut lending, borrowing) = channel::<u32>();
        // A deliberately slow worker: it starts only once the caller is
        // unwinding (`go` hangs up), then writes one element every 2 ms.
        let (go, started) = sync::unbounded::<()>();
        let worker = std::thread::spawn(move || {
            borrowing.serve(|mark, r| {
                let _ = started.recv();
                for (x, h) in r.p.iter_mut().zip(r.p16.iter_mut()) {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    *x = mark as f32;
                    *h = F16::from_f32(mark as f32);
                }
                ControlFlow::Continue(())
            })
        });
        let mut step = Step::new(8);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            lending.scope(|lender| {
                let _go = go;
                for (i, r) in step.subgroups().into_iter().enumerate() {
                    lender.lend(i, 7 + i as u32, r);
                }
                assert_eq!(lender.out(), 2);
                panic!("the caller dies with both ranges lent");
            })
        }));
        assert!(caught.is_err());
        // The unwind waited: both ranges hold the worker's complete writes.
        assert_eq!(step.p, [7.0, 7.0, 7.0, 7.0, 8.0, 8.0, 8.0, 8.0]);
        let halves: Vec<f32> = step.p16.iter().map(|h| h.to_f32()).collect();
        assert_eq!(halves, step.p);
        drop(lending);
        worker.join().unwrap();
    }

    #[test]
    fn a_hung_up_worker_gives_back_the_ranges_it_never_started() {
        let (mut lending, borrowing) = channel::<u32>();
        // Serves the first job, then hangs up on the second before touching it.
        let worker = std::thread::spawn(move || {
            borrowing.serve(|mark, r| {
                if mark == 1 {
                    return ControlFlow::Break(());
                }
                r.p.fill(9.0);
                ControlFlow::Continue(())
            })
        });
        let mut step = Step::new(12);
        let lost: Vec<usize> = lending.scope(|lender| {
            for (i, r) in step.subgroups().into_iter().enumerate() {
                lender.lend(i, i as u32, r);
            }
            assert!(lender.recover().is_empty(), "nothing is recovered before a wait");
            assert_eq!(lender.reclaim(true).unwrap(), Some(0));
            assert!(lender.reclaim(true).is_err());
            let mut lost = Vec::new();
            for (key, r) in lender.recover() {
                r.p.fill(-1.0);
                lost.push(key);
            }
            lost
        });
        assert_eq!(lost, [1, 2]);
        assert_eq!(&step.p[..4], &[9.0; 4]);
        assert_eq!(&step.p[4..], &[-1.0; 8]);
        worker.join().unwrap();
    }
}
