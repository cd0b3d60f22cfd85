//! Always-on flight recorder: a bounded ring of recent trace events.
//!
//! Post-hoc tracing ([`crate::Tracer`]) stores every event forever, which
//! is fine for a 12-iteration experiment and fatal for a production job.
//! The [`FlightRecorder`] keeps only the newest `capacity` events in a
//! fixed ring of interned, `Copy` [`RawEvent`]s — recording is one mutex
//! acquisition and one 64-byte write, cheap enough to leave on for the
//! life of a job (budget: ≤3% end to end, measured by `benchmark/` as
//! `telemetry.trace_overhead_frac`).
//!
//! When an incident happens — a `fault:*` instant from the pipeline or
//! the chaos harness, a checkpoint fallback, a `health:degraded`
//! detection, a panic (see [`install_flight_panic_hook`]) — the recorder
//! [`FlightRecorder::dump`]s the ring: the last N events, materialized to
//! strings, kept in memory ([`FlightRecorder::last_dump`]) and written as
//! JSON into the configured dump directory. Every incident ships its
//! context.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use serde::{Deserialize, Serialize};

use crate::intern::{RawEvent, SymbolTable};
use crate::tracer::{EventKind, TraceEvent};

#[derive(Debug)]
struct Ring {
    buf: Vec<RawEvent>,
    /// Next write position (`total % capacity` once full).
    next: usize,
    /// Events ever recorded, including overwritten ones.
    total: u64,
}

#[derive(Debug)]
struct Inner {
    capacity: usize,
    symbols: Arc<SymbolTable>,
    ring: Mutex<Ring>,
    dump_dir: Mutex<Option<PathBuf>>,
    last_dump: Mutex<Option<FlightDump>>,
    dump_seq: AtomicU64,
}

/// Bounded ring buffer of recent trace events. Cloning shares the ring,
/// so the same recorder can serve the tracer, the panic hook, and a
/// monitoring endpoint.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    inner: Arc<Inner>,
}

impl FlightRecorder {
    /// A standalone recorder with its own symbol table. Prefer
    /// [`crate::Tracer::with_flight`] / [`crate::Tracer::flight_only`]
    /// when a tracer exists — an attached ring shares the tracer's
    /// symbols and receives events without re-interning.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder::with_symbols(capacity, Arc::new(SymbolTable::new()))
    }

    pub(crate) fn with_symbols(capacity: usize, symbols: Arc<SymbolTable>) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            inner: Arc::new(Inner {
                capacity,
                symbols,
                ring: Mutex::new(Ring { buf: Vec::with_capacity(capacity), next: 0, total: 0 }),
                dump_dir: Mutex::new(None),
                last_dump: Mutex::new(None),
                dump_seq: AtomicU64::new(0),
            }),
        }
    }

    /// Zero-materialization record path used by an attached tracer (the
    /// event's ids must come from the shared symbol table).
    pub(crate) fn record_raw(&self, ev: RawEvent) {
        let mut ring = self.inner.ring.lock();
        if ring.buf.len() < self.inner.capacity {
            ring.buf.push(ev);
        } else {
            let at = ring.next;
            ring.buf[at] = ev;
        }
        ring.next = (ring.next + 1) % self.inner.capacity;
        ring.total += 1;
    }

    /// Records an already-materialized event (standalone use; interns the
    /// four strings).
    pub fn record(&self, ev: &TraceEvent) {
        let sym = &self.inner.symbols;
        self.record_raw(RawEvent {
            track: sym.intern(&ev.track),
            name: sym.intern(&ev.name),
            phase: sym.intern(&ev.phase),
            resource: sym.intern(&ev.resource),
            start: ev.start,
            dur: ev.dur,
            work: ev.work,
            depth: ev.depth as u32,
            kind: ev.kind,
        });
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Events currently retained (`min(total_recorded, capacity)`).
    pub fn len(&self) -> usize {
        self.inner.ring.lock().buf.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events ever recorded, including ones the ring has overwritten.
    pub fn total_recorded(&self) -> u64 {
        self.inner.ring.lock().total
    }

    /// The retained events, oldest first, materialized to strings.
    pub fn events(&self) -> Vec<TraceEvent> {
        let (buf, next) = {
            let ring = self.inner.ring.lock();
            (ring.buf.clone(), ring.next)
        };
        let sym = &self.inner.symbols;
        let ordered = if buf.len() < self.inner.capacity {
            buf
        } else {
            // Full ring: `next` points at the oldest event.
            let mut v = Vec::with_capacity(buf.len());
            v.extend_from_slice(&buf[next..]);
            v.extend_from_slice(&buf[..next]);
            v
        };
        ordered
            .iter()
            .map(|ev| TraceEvent {
                track: sym.resolve(ev.track).to_string(),
                name: sym.resolve(ev.name).to_string(),
                phase: sym.resolve(ev.phase).to_string(),
                resource: sym.resolve(ev.resource).to_string(),
                start: ev.start,
                dur: ev.dur,
                work: ev.work,
                depth: ev.depth as usize,
                kind: ev.kind,
            })
            .collect()
    }

    /// Directory automatic dumps are written into as
    /// `flight-<seq>.json`. Unset by default (dumps then stay in memory
    /// only, readable via [`FlightRecorder::last_dump`]).
    pub fn set_dump_dir(&self, dir: impl Into<PathBuf>) {
        *self.inner.dump_dir.lock() = Some(dir.into());
    }

    /// Snapshots the ring into a [`FlightDump`], remembers it as the
    /// latest dump, and best-effort writes it to the dump directory when
    /// one is set (I/O failure never takes down the traced job).
    pub fn dump(&self, reason: &str) -> FlightDump {
        let events: Vec<FlightEvent> = self.events().iter().map(FlightEvent::from_event).collect();
        let total = self.total_recorded();
        let dump = FlightDump {
            reason: reason.to_string(),
            total_recorded: total,
            dropped: total.saturating_sub(events.len() as u64),
            events,
        };
        *self.inner.last_dump.lock() = Some(dump.clone());
        if let Some(dir) = self.inner.dump_dir.lock().clone() {
            let seq = self.inner.dump_seq.fetch_add(1, Ordering::Relaxed);
            let path = dir.join(format!("flight-{seq}.json"));
            let _ = std::fs::create_dir_all(&dir);
            let _ = std::fs::write(path, dump.to_json());
        }
        dump
    }

    /// The most recent dump, if any incident has triggered one.
    pub fn last_dump(&self) -> Option<FlightDump> {
        self.inner.last_dump.lock().clone()
    }
}

/// One event inside a [`FlightDump`] — the serializable flat form of a
/// [`TraceEvent`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// Track the event belonged to.
    pub track: String,
    /// Event label.
    pub name: String,
    /// Training phase.
    pub phase: String,
    /// Hardware resource, or `""`.
    pub resource: String,
    /// Start time, seconds.
    pub start: f64,
    /// Duration, seconds (0.0 for instants).
    pub dur: f64,
    /// Abstract work attributed to the event.
    pub work: f64,
    /// Nesting depth.
    pub depth: u64,
    /// `"span"` or `"instant"`.
    pub kind: String,
}

impl FlightEvent {
    fn from_event(ev: &TraceEvent) -> FlightEvent {
        FlightEvent {
            track: ev.track.clone(),
            name: ev.name.clone(),
            phase: ev.phase.clone(),
            resource: ev.resource.clone(),
            start: ev.start,
            dur: ev.dur,
            work: ev.work,
            depth: ev.depth as u64,
            kind: match ev.kind {
                EventKind::Span => "span".to_string(),
                EventKind::Instant => "instant".to_string(),
            },
        }
    }
}

/// A materialized snapshot of the flight ring at incident time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightDump {
    /// What triggered the dump (the fault/health instant name, or
    /// `panic: <message>`).
    pub reason: String,
    /// Events ever recorded at dump time.
    pub total_recorded: u64,
    /// Events the ring had already overwritten (`total - retained`).
    pub dropped: u64,
    /// The retained events, oldest first.
    pub events: Vec<FlightEvent>,
}

impl FlightDump {
    /// Pretty JSON rendering (what the dump files contain).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self)
            .unwrap_or_else(|e| format!("{{\"error\":\"unserializable flight dump: {e}\"}}"))
    }

    /// Parses a dump back from its JSON rendering.
    ///
    /// # Errors
    ///
    /// Returns the parse error message when `json` is not a dump document.
    pub fn from_json(json: &str) -> Result<FlightDump, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }
}

/// Installs a panic hook that dumps `recorder` before delegating to the
/// previously-installed hook, so even a crash ships its last-N-events
/// context. Call once per process; repeated installs chain harmlessly.
pub fn install_flight_panic_hook(recorder: &FlightRecorder) {
    let rec = recorder.clone();
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "unknown panic payload".to_string());
        rec.dump(&format!("panic: {msg}"));
        prev(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, start: f64) -> TraceEvent {
        TraceEvent {
            track: "t".to_string(),
            name: name.to_string(),
            phase: "p".to_string(),
            resource: String::new(),
            start,
            dur: 0.1,
            work: 0.0,
            depth: 0,
            kind: EventKind::Span,
        }
    }

    #[test]
    fn ring_keeps_newest_events_in_order() {
        let rec = FlightRecorder::new(3);
        for i in 0..5 {
            rec.record(&ev(&format!("e{i}"), i as f64));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.total_recorded(), 5);
        let names: Vec<String> = rec.events().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["e2", "e3", "e4"]);
    }

    #[test]
    fn dump_round_trips_through_json() {
        let rec = FlightRecorder::new(4);
        rec.record(&ev("a", 0.0));
        rec.record(&ev("b", 1.0));
        let dump = rec.dump("fault:test");
        assert_eq!(dump.reason, "fault:test");
        assert_eq!(dump.total_recorded, 2);
        assert_eq!(dump.dropped, 0);
        let back = FlightDump::from_json(&dump.to_json()).unwrap();
        assert_eq!(back, dump);
        assert_eq!(rec.last_dump().unwrap(), dump);
    }

    #[test]
    fn dump_writes_into_the_dump_dir() {
        let local = 0u8;
        let dir = std::env::temp_dir()
            .join(format!("dos-flight-test-{}-{:p}", std::process::id(), &local));
        let rec = FlightRecorder::new(4);
        rec.set_dump_dir(&dir);
        rec.record(&ev("a", 0.0));
        rec.dump("fault:io");
        let file = dir.join("flight-0.json");
        let text = std::fs::read_to_string(&file).expect("dump file written");
        let dump = FlightDump::from_json(&text).unwrap();
        assert_eq!(dump.reason, "fault:io");
        assert_eq!(dump.events.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panic_hook_dumps_before_delegating() {
        let rec = FlightRecorder::new(8);
        rec.record(&ev("before-crash", 0.0));
        install_flight_panic_hook(&rec);
        let result = std::panic::catch_unwind(|| panic!("boom for flight"));
        // Restore the default hook so the rest of the suite is unaffected.
        drop(std::panic::take_hook());
        assert!(result.is_err());
        // Another test's expected panic may race in an extra dump; the
        // ring context survives regardless.
        let dump = rec.last_dump().expect("panic produced a dump");
        assert!(dump.reason.starts_with("panic:"), "reason: {}", dump.reason);
        assert!(dump.events.iter().any(|e| e.name == "before-crash"));
    }

    proptest::proptest! {
        /// Single-writer wraparound: the ring retains exactly the newest
        /// `min(n, capacity)` events, in record order.
        #[test]
        fn ring_preserves_the_newest_n_in_order(
            capacity in 1usize..16,
            n in 0usize..64,
        ) {
            let rec = FlightRecorder::new(capacity);
            for i in 0..n {
                rec.record(&ev(&format!("e{i}"), i as f64));
            }
            let kept = rec.events();
            proptest::prop_assert_eq!(kept.len(), n.min(capacity));
            proptest::prop_assert_eq!(rec.total_recorded(), n as u64);
            let first = n - kept.len();
            for (k, event) in kept.iter().enumerate() {
                proptest::prop_assert_eq!(&event.name, &format!("e{}", first + k));
            }
        }

        /// Arbitrary interleaved writers: whatever the global interleaving,
        /// each writer's retained events are an in-order suffix of what it
        /// emitted (the ring evicts strictly oldest-first).
        #[test]
        fn interleaved_writers_keep_per_writer_suffixes(
            capacity in 1usize..12,
            counts in proptest::collection::vec(1usize..20, 1..4),
        ) {
            let rec = FlightRecorder::new(capacity);
            std::thread::scope(|s| {
                for (w, &n) in counts.iter().enumerate() {
                    let rec = rec.clone();
                    s.spawn(move || {
                        for j in 0..n {
                            rec.record(&ev(&format!("w{w}:{j}"), j as f64));
                        }
                    });
                }
            });
            let total: usize = counts.iter().sum();
            proptest::prop_assert_eq!(rec.total_recorded(), total as u64);
            let kept = rec.events();
            proptest::prop_assert_eq!(kept.len(), total.min(capacity));
            for (w, &n) in counts.iter().enumerate() {
                let mine: Vec<usize> = kept
                    .iter()
                    .filter_map(|e| {
                        e.name
                            .strip_prefix(&format!("w{w}:"))
                            .and_then(|j| j.parse::<usize>().ok())
                    })
                    .collect();
                // In emission order...
                proptest::prop_assert!(
                    mine.windows(2).all(|p| p[0] < p[1]),
                    "writer {} out of order: {:?}", w, mine
                );
                // ...and a suffix: everything after the oldest retained
                // event of this writer is retained too.
                if let Some(&oldest) = mine.first() {
                    proptest::prop_assert_eq!(
                        mine.len(), n - oldest,
                        "writer {} retained a gap: {:?} of {}", w, &mine, n
                    );
                }
            }
        }
    }
}
