//! What a steady-state `train_functional` iteration asks of the allocator.
//!
//! At `train_dp2`'s shape (the benchmark's full-stack workload: GPT dim 64,
//! 2 layers, 4 heads, seq 32, vocab 512; world 2, micro-batch 4, stride 2)
//! the model's layers keep their activations and the collectives run on
//! the model's flat buffers, so an iteration allocates only the frames it
//! sends: per rank, the peer's gradient chunk (4 B/param) and the FP16
//! shard (2 B/param), plus small change. One `#[test]` on purpose: the
//! counter is process-wide, and both ranks' threads count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use dos_core::StridePolicy;
use dos_data::TokenDataset;
use dos_nn::GptConfig;
use dos_runtime::{train_functional, FunctionalConfig};

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

/// Bytes requested while `f` runs.
fn requested_by(f: impl FnOnce()) -> usize {
    let before = REQUESTED.load(Ordering::Relaxed);
    f();
    REQUESTED.load(Ordering::Relaxed) - before
}

#[test]
fn steady_state_iterations_allocate_only_the_frames_they_send() {
    let mut cfg = FunctionalConfig::small();
    cfg.model = GptConfig {
        vocab_size: 512,
        max_seq: 32,
        dim: 64,
        num_layers: 2,
        num_heads: 4,
        init_std: 0.08,
    };
    cfg.world = 2;
    cfg.micro_batch = 4;
    cfg.subgroup_size = 4096;
    cfg.pipeline.stride = StridePolicy::Fixed(2);
    cfg.seed = 11;
    let stream: Vec<usize> = (0..4000).map(|i| (i * 7 + 3) % 512).collect();
    let ds = TokenDataset::from_stream(&stream, 32);

    let mut params = 0;
    let mut call = |iterations| {
        requested_by(|| params = train_functional(&cfg, &ds, iterations).unwrap().final_params.len())
    };
    let (short, long) = (call(2), call(12));
    let per_iteration = long.saturating_sub(short) / 10;

    let chunk = params.div_ceil(cfg.world);
    let frames = cfg.world * (4 * chunk + 2 * chunk);
    assert!(
        per_iteration <= frames + 64 * 1024,
        "{per_iteration} B per iteration; the frames are {frames} B"
    );
}
