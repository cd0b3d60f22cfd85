//! Pinned-buffer arena pool and the pipeline's host-memory meter.
//!
//! Algorithm 1 stages every device subgroup (`p`, `m`, `v`, `g` in FP32
//! plus the FP16 parameter copy coming back) through pinned buffers, which
//! real implementations keep in a fixed arena and recycle because
//! page-locked memory is expensive to register. [`ArenaPool`] is that
//! arena's functional analogue: leased buffers hand themselves back on
//! drop, wherever the drop happens, so a steady-state lease allocates
//! nothing. ZenFlow's FP16 downscale and the benchmark's replayed step
//! lease from it.
//!
//! The hybrid step itself stages nothing: its device worker shares the
//! host's DRAM and updates each subgroup in place through ranges lent to
//! it (`lend`). The pool still *meters* those ranges — 18 B/param, what a
//! staged subgroup's leases held — so its in-use/high-water gauges
//! (exported through `dos-telemetry` as `arena.in_use_bytes` /
//! `arena.high_water_bytes`) keep measuring what the step holds out. They
//! are what `ResidentPolicy::Headroom` observes on the functional path to
//! size static residents — the host-RSS analogue of the simulator's HBM
//! headroom signal. The step lends at most two subgroups at a time, so the high
//! water is that in-flight window (two subgroups × 18 B/param), not the
//! step's device share.
//!
//! The pool also owns what outlives a step beside the buffers: the parked
//! device worker (`pipeline`'s `DeviceSlot`), shut down and joined when the
//! last [`ArenaPool`] handle drops. Leases hold the buffer store only, so a
//! lease never keeps the worker's owner alive.

use std::sync::Arc;

use parking_lot::Mutex;

use dos_telemetry::MetricsRegistry;
use dos_tensor::{kernels, F16};

use crate::pipeline::DeviceSlot;

/// Gauge name for bytes currently leased from the pool.
pub const GAUGE_IN_USE: &str = "arena.in_use_bytes";
/// Gauge name for the peak of [`GAUGE_IN_USE`] since the last reset.
pub const GAUGE_HIGH_WATER: &str = "arena.high_water_bytes";

#[derive(Debug, Default)]
struct Inner {
    free_f32: Vec<Vec<f32>>,
    free_f16: Vec<Vec<F16>>,
    in_use_bytes: usize,
    high_water_bytes: usize,
    hits: u64,
    misses: u64,
    metrics: Option<MetricsRegistry>,
}

impl Inner {
    fn publish(&self) {
        if let Some(m) = &self.metrics {
            m.set_gauge(GAUGE_IN_USE, self.in_use_bytes as f64);
            m.set_gauge(GAUGE_HIGH_WATER, self.high_water_bytes as f64);
        }
    }

    /// Accounts `bytes` more in use.
    fn take(&mut self, bytes: usize) {
        self.in_use_bytes += bytes;
        self.high_water_bytes = self.high_water_bytes.max(self.in_use_bytes);
        self.publish();
    }

    /// Accounts `bytes` no longer in use.
    fn give_back(&mut self, bytes: usize) {
        self.in_use_bytes = self.in_use_bytes.saturating_sub(bytes);
        self.publish();
    }

    /// Accounts one lease of `bytes` served from `recycled` (a hit) or
    /// from a fresh, empty buffer (a miss).
    fn lease<T>(&mut self, recycled: Option<Vec<T>>, bytes: usize) -> Vec<T> {
        match recycled {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        self.take(bytes);
        recycled.unwrap_or_default()
    }
}

/// The buffer store alone — what a lease holds to hand itself back. It
/// deliberately is not an [`ArenaPool`]: a lease must never keep the
/// device worker's owner alive.
type Store = Arc<Mutex<Inner>>;

/// A shared, thread-safe pool of reusable `f32`/`F16` staging buffers.
///
/// Clones share storage — and the one parked device worker
/// `hybrid_update_pooled` keeps between steps, which is shut down and
/// joined when the last clone drops. Leases are accounted in bytes
/// (logical length × element size); the high-water mark is the peak
/// concurrent lease footprint and can be read-and-reset per iteration.
///
/// # Examples
///
/// ```
/// use dos_core::ArenaPool;
///
/// let pool = ArenaPool::new();
/// let a = pool.lease_f32_copy(&[1.0, 2.0, 3.0]);
/// assert_eq!(&a[..], &[1.0, 2.0, 3.0]);
/// assert_eq!(pool.in_use_bytes(), 12);
/// drop(a);
/// assert_eq!(pool.in_use_bytes(), 0);
/// let b = pool.lease_f32_copy(&[4.0]); // recycles a's buffer
/// assert_eq!(pool.reuse_hits(), 1);
/// # drop(b);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ArenaPool {
    inner: Store,
    device: Arc<DeviceSlot>,
}

impl ArenaPool {
    /// Creates an empty pool with no metrics export.
    pub fn new() -> ArenaPool {
        ArenaPool::default()
    }

    /// Creates an empty pool that mirrors its in-use/high-water bytes into
    /// `metrics` as the [`GAUGE_IN_USE`] and [`GAUGE_HIGH_WATER`] gauges on
    /// every lease and return.
    pub fn with_metrics(metrics: MetricsRegistry) -> ArenaPool {
        let inner = Inner { metrics: Some(metrics), ..Inner::default() };
        ArenaPool { inner: Arc::new(Mutex::new(inner)), device: Arc::default() }
    }

    /// Leases a buffer holding a copy of `src` (Algorithm 1's prefetch
    /// staging: the subgroup state is copied into a pinned buffer, not
    /// reallocated).
    pub fn lease_f32_copy(&self, src: &[f32]) -> PooledF32 {
        let mut buf = {
            let mut inner = self.inner.lock();
            let recycled = inner.free_f32.pop();
            inner.lease(recycled, src.len() * 4)
        };
        buf.clear();
        buf.extend_from_slice(src);
        PooledF32 { buf, store: self.inner.clone() }
    }

    /// Leases an FP16 buffer filled with the downscaled contents of `src`
    /// (the device-side `.half()` copy), using the vectorized conversion
    /// kernel.
    pub fn lease_f16_downscaled(&self, src: &[f32]) -> PooledF16 {
        let mut buf = {
            let mut inner = self.inner.lock();
            let recycled = inner.free_f16.pop();
            inner.lease(recycled, src.len() * 2)
        };
        // Recycled buffers come back with their length intact, so in steady
        // state this is a no-op and the kernel below is the only pass over
        // the buffer; it zero-fills only what a longer lease adds.
        buf.resize(src.len(), F16::ZERO);
        kernels::downscale(src, &mut buf);
        PooledF16 { buf, store: self.inner.clone() }
    }

    /// Meters `bytes` of host state lent in place to the device worker: no
    /// buffer moves, but the bytes count as in use, as a staged subgroup's
    /// leases did, until [`ArenaPool::returned`].
    pub(crate) fn lent(&self, bytes: usize) {
        self.inner.lock().take(bytes);
    }

    /// Meters the end of a loan [`ArenaPool::lent`] counted.
    pub(crate) fn returned(&self, bytes: usize) {
        self.inner.lock().give_back(bytes);
    }

    /// Bytes currently leased out or lent to the device worker.
    pub fn in_use_bytes(&self) -> usize {
        self.inner.lock().in_use_bytes
    }

    /// Peak concurrent lease footprint — leases and lent ranges — since
    /// creation or the last [`ArenaPool::take_high_water_bytes`]. The
    /// hybrid step lends at most two subgroups at a time, so this is the
    /// size of that window, not of the step's whole device share.
    pub fn high_water_bytes(&self) -> usize {
        self.inner.lock().high_water_bytes
    }

    /// Returns the high-water mark and resets it to the current in-use
    /// level — the per-iteration read the resident-sizing policy consumes.
    pub fn take_high_water_bytes(&self) -> usize {
        let mut inner = self.inner.lock();
        let peak = inner.high_water_bytes;
        inner.high_water_bytes = inner.in_use_bytes;
        inner.publish();
        peak
    }

    /// Leases served by recycling a previously returned buffer.
    pub fn reuse_hits(&self) -> u64 {
        self.inner.lock().hits
    }

    /// Leases that had to allocate a fresh buffer.
    pub fn allocation_misses(&self) -> u64 {
        self.inner.lock().misses
    }

    /// Device workers started over this pool's life: one for any number of
    /// healthy steps, one more after each step that lost its worker.
    pub fn worker_spawns(&self) -> u64 {
        self.device.stats().0
    }

    /// The most staged subgroups any step over this pool had in flight
    /// (shipped to the worker, not yet written back).
    pub fn in_flight_high_water(&self) -> usize {
        self.device.stats().1
    }

    /// Where the pipeline parks this pool's device worker between steps.
    pub(crate) fn device(&self) -> &DeviceSlot {
        &self.device
    }
}

/// A leased `f32` buffer; returns itself to the pool on drop.
#[derive(Debug)]
pub struct PooledF32 {
    buf: Vec<f32>,
    store: Store,
}

impl std::ops::Deref for PooledF32 {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.buf
    }
}

impl std::ops::DerefMut for PooledF32 {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf
    }
}

impl Drop for PooledF32 {
    fn drop(&mut self) {
        let mut inner = self.store.lock();
        inner.give_back(self.buf.len() * 4);
        inner.free_f32.push(std::mem::take(&mut self.buf));
    }
}

/// A leased `F16` buffer; returns itself to the pool on drop.
#[derive(Debug)]
pub struct PooledF16 {
    buf: Vec<F16>,
    store: Store,
}

impl std::ops::Deref for PooledF16 {
    type Target = [F16];
    fn deref(&self) -> &[F16] {
        &self.buf
    }
}

impl Drop for PooledF16 {
    fn drop(&mut self) {
        let mut inner = self.store.lock();
        inner.give_back(self.buf.len() * 2);
        inner.free_f16.push(std::mem::take(&mut self.buf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_copy_round_trips_and_accounts_bytes() {
        let pool = ArenaPool::new();
        let a = pool.lease_f32_copy(&[1.0, 2.0]);
        let b = pool.lease_f32_copy(&[3.0; 10]);
        assert_eq!(&a[..], &[1.0, 2.0]);
        assert_eq!(pool.in_use_bytes(), 8 + 40);
        assert_eq!(pool.high_water_bytes(), 48);
        drop(a);
        assert_eq!(pool.in_use_bytes(), 40);
        assert_eq!(pool.high_water_bytes(), 48, "high water is sticky");
        drop(b);
        assert_eq!(pool.in_use_bytes(), 0);
    }

    #[test]
    fn buffers_are_recycled_not_reallocated() {
        let pool = ArenaPool::new();
        drop(pool.lease_f32_copy(&[0.0; 64]));
        drop(pool.lease_f32_copy(&[1.0; 32])); // reuses the 64-cap buffer
        assert_eq!(pool.reuse_hits(), 1);
        assert_eq!(pool.allocation_misses(), 1);
        drop(pool.lease_f16_downscaled(&[1.0; 16]));
        drop(pool.lease_f16_downscaled(&[2.0; 16]));
        assert_eq!(pool.reuse_hits(), 2);
        // The recycled buffer keeps its old length and contents until the
        // kernel overwrites them: equal, shorter and longer leases must all
        // come out as the scalar oracle's halves and nothing else.
        for n in [16usize, 5, 40] {
            let src: Vec<f32> = (0..n).map(|i| i as f32 * 0.3 - 3.0).collect();
            let want: Vec<F16> = src.iter().map(|x| F16::from_f32(*x)).collect();
            assert_eq!(&*pool.lease_f16_downscaled(&src), &want[..], "recycled lease of {n}");
        }
        assert_eq!(pool.reuse_hits(), 5);
    }

    #[test]
    fn downscaled_lease_matches_scalar_oracle() {
        let src: Vec<f32> = (0..100).map(|i| (i as f32).sin() * 70000.0).collect();
        let pool = ArenaPool::new();
        let got = pool.lease_f16_downscaled(&src);
        for (x, h) in src.iter().zip(got.iter()) {
            assert_eq!(h.to_bits(), F16::from_f32(*x).to_bits());
        }
    }

    #[test]
    fn take_high_water_resets_to_current_in_use() {
        let pool = ArenaPool::new();
        let a = pool.lease_f32_copy(&[0.0; 100]);
        drop(pool.lease_f32_copy(&[0.0; 100]));
        assert_eq!(pool.take_high_water_bytes(), 800);
        assert_eq!(pool.high_water_bytes(), 400, "reset lands on live leases");
        drop(a);
    }

    #[test]
    fn gauges_are_published_through_telemetry() {
        let metrics = MetricsRegistry::new();
        let pool = ArenaPool::with_metrics(metrics.clone());
        let a = pool.lease_f32_copy(&[0.0; 25]);
        assert_eq!(metrics.gauge(GAUGE_IN_USE), Some(100.0));
        assert_eq!(metrics.gauge(GAUGE_HIGH_WATER), Some(100.0));
        drop(a);
        assert_eq!(metrics.gauge(GAUGE_IN_USE), Some(0.0));
        assert_eq!(metrics.gauge(GAUGE_HIGH_WATER), Some(100.0));
    }

    #[test]
    fn clones_share_the_pool_across_threads() {
        let pool = ArenaPool::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = pool.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        drop(pool.lease_f32_copy(&[1.0; 128]));
                    }
                });
            }
        });
        assert_eq!(pool.in_use_bytes(), 0);
        assert!(pool.reuse_hits() + pool.allocation_misses() == 200);
        assert!(pool.allocation_misses() <= 4, "at most one fresh buffer per thread");
    }
}
