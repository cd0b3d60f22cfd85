//! What a steady-state `Trainer::step` asks of the allocator.
//!
//! The trainer keeps the step's FP16 output across steps, so a caller that
//! drops each report costs no model-sized allocation per step; one that
//! holds a report costs exactly one fresh 2 B/param buffer. One `#[test]`
//! on purpose: the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use dos_train::Trainer;

/// Bytes requested from the allocator by every thread of this process.
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's obligations are `GlobalAlloc::alloc`'s, which are
    // exactly what `System.alloc` needs.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller guarantees `layout` is valid for `alloc`.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: as for `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: as for `alloc`, with `GlobalAlloc::realloc`'s obligations.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout`, and `System` is what every allocation was forwarded to.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: as for `alloc`, with `GlobalAlloc::dealloc`'s obligations.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const PARAMS: usize = 1 << 20;
const FP16_BYTES: usize = 2 * PARAMS;
const STEPS: usize = 3;

/// Bytes requested while `f` runs.
fn requested_by(f: impl FnOnce()) -> usize {
    let before = REQUESTED.load(Ordering::Relaxed);
    f();
    REQUESTED.load(Ordering::Relaxed) - before
}

#[test]
fn steady_state_steps_reuse_the_fp16_buffer() {
    let init: Vec<f32> = (0..PARAMS).map(|i| (i as f32 * 0.37).sin()).collect();
    let grads: Vec<f32> = (0..PARAMS).map(|i| (i as f32 * 0.11).cos()).collect();
    for stride in ["auto", "cpu_only"] {
        let json = format!(
            r#"{{ "params": {PARAMS}, "subgroup_size": 65536,
                  "deep_optimizer_states": {{ "update_stride": "{stride}" }} }}"#
        );
        let mut trainer = Trainer::from_json(&json, init.clone()).unwrap();
        // Warm-up: the first step allocates the buffer and starts the worker.
        drop(trainer.step(&grads).unwrap());

        let dropped = requested_by(|| {
            for _ in 0..STEPS {
                drop(trainer.step(&grads).unwrap());
            }
        }) / STEPS;
        assert!(dropped < FP16_BYTES / 100, "{stride}: {dropped} B per step with reports dropped");

        // A held report keeps its buffer, so the next step allocates one
        // fresh FP16 buffer — and nothing model-sized beside it.
        let held = trainer.step(&grads).unwrap();
        let fresh = requested_by(|| drop(trainer.step(&grads).unwrap()));
        assert!(
            (FP16_BYTES..FP16_BYTES + FP16_BYTES / 100).contains(&fresh),
            "{stride}: {fresh} B for the step after a held report"
        );
        drop(held);
    }
}
