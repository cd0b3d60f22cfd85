//! The device worker's lifetime, counted in OS threads at the top of the
//! stack: a parked worker belongs to its trainer's pool and ends with it,
//! and a plan that ships nothing never starts one.
//!
//! One `#[test]` on purpose: `/proc/self/task` counts every thread of the
//! process, so a sibling test running in parallel would be counted too.

use std::time::{Duration, Instant};

use dos::core::{hybrid_update_pooled, ArenaPool, PipelineConfig, StridePolicy};
use dos::data::TokenDataset;
use dos::optim::{MixedPrecisionState, UpdateRule};
use dos::train::Trainer;
use dos::zero::partition_into_subgroups;
use dos_runtime::{train_functional, FunctionalConfig};

/// Live threads of this process, once the count reads `want` — or what it
/// still reads two seconds later. A joined thread's `/proc` entry goes a
/// moment *after* `join` returns (the kernel wakes the joiner before it
/// unhashes the task), so a single read can see a thread that is gone.
fn threads(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let now = std::fs::read_dir("/proc/self/task").expect("procfs").count();
        if now == want || Instant::now() > deadline {
            return now;
        }
        std::thread::yield_now();
    }
}

#[test]
fn device_workers_end_with_their_pools_and_cpu_only_starts_none() {
    let start = std::fs::read_dir("/proc/self/task").expect("procfs").count();
    let n = 512;
    let init: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
    let grads: Vec<f32> = (0..n).map(|i| (i as f32 * 0.11).cos()).collect();
    let subgroups = partition_into_subgroups(n, 64);

    // No thread for no work: 50 `cpu_only` steps leave the count alone.
    let pool = ArenaPool::new();
    let mut state = MixedPrecisionState::new(init.clone(), UpdateRule::adam(), 0.01);
    let cpu_only = PipelineConfig { stride: StridePolicy::CpuOnly, ..PipelineConfig::default() };
    for _ in 0..50 {
        hybrid_update_pooled(&mut state, &grads, &subgroups, cpu_only, None, &pool).unwrap();
        assert_eq!(threads(start), start, "a cpu_only step started a thread");
    }
    assert_eq!(pool.worker_spawns(), 0);

    // One more thread while a pool that shipped work lives; gone with it.
    let stride2 = PipelineConfig::default();
    for _ in 0..3 {
        hybrid_update_pooled(&mut state, &grads, &subgroups, stride2, None, &pool).unwrap();
        assert_eq!(threads(start + 1), start + 1, "exactly one parked worker between steps");
    }
    drop(pool);
    assert_eq!(threads(start), start, "dropping the pool ends its worker");

    // Dropping a trainer whose worker is parked joins it promptly.
    let mut trainer = Trainer::new(state, 64, stride2, None).unwrap();
    trainer.step(&grads).unwrap();
    assert_eq!(threads(start + 1), start + 1);
    let t = Instant::now();
    drop(trainer);
    assert!(t.elapsed() < Duration::from_secs(1), "drop waited {:?}", t.elapsed());
    assert_eq!(threads(start), start);

    // The stack's top: 20 runs at world 2 build and drop 40 trainers.
    let stream: Vec<usize> = (0..600).map(|i| (i * 7 + 3) % 61).collect();
    let dataset = TokenDataset::from_stream(&stream, 8);
    let cfg = FunctionalConfig { subgroup_size: 512, ..FunctionalConfig::small() };
    for run in 0..20 {
        let report = train_functional(&cfg, &dataset, 2).unwrap();
        assert!(report.ranks_consistent);
        assert_eq!(threads(start), start, "run {run} leaked a thread");
    }
}
