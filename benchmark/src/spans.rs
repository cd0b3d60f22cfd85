//! The benchmark's own span recorder, used by the traced pass.
//!
//! Spans are taken from outside the program, around the harness's calls into
//! each layer: name, start, end, the span that caused it and the operation
//! it belongs to. They stay in memory and are written as Chrome trace JSON
//! when the pass ends. A span's self time is its duration minus the part its
//! children cover.

use std::time::Instant;

/// One recorded span; times are seconds since the recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `optim.update_range`.
    pub name: &'static str,
    /// Start, seconds.
    pub start: f64,
    /// End, seconds (equal to `start` while the span is open).
    pub end: f64,
    /// Index of the span this one ran inside, if any.
    pub parent: Option<usize>,
    /// The operation (replayed step, call, …) the span belongs to.
    pub op: u64,
}

/// Handle of an open span, returned by [`Recorder::enter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// In-memory span store for one thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Starts a new operation; spans entered from now on carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let now = self.epoch.elapsed().as_secs_f64();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id` and returns its duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span: spans of one thread
    /// nest, so anything else is a bug in the harness.
    pub fn exit(&mut self, id: SpanId) -> f64 {
        let now = self.epoch.elapsed().as_secs_f64();
        assert_eq!(
            self.open.pop(),
            Some(id.0),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id.0];
        span.end = now;
        span.end - span.start
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in seconds.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name);
        let out = f();
        let secs = self.exit(id);
        (out, secs)
    }

    /// Records a span with times taken elsewhere (seconds on this recorder's
    /// clock), as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: f64, end: f64) {
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start,
            end: end.max(start),
            parent,
            op: self.op,
        });
    }

    /// Seconds since the recorder was created.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as Chrome trace JSON (`chrome://tracing`, Perfetto).
    pub fn chrome_json(&self) -> String {
        chrome_json(&self.spans)
    }
}

/// Self time of each span: its duration minus the part of it that its direct
/// children cover (children of one thread never overlap each other, but the
/// union is taken anyway so recorded spans cannot count twice).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("finite times"));
            let mut covered = 0.0;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end - s.start - covered).max(0.0)
        })
        .collect()
}

/// Chrome trace JSON for `spans`: one complete (`"ph":"X"`) event each, in
/// microseconds, with parent, operation and self time as arguments.
pub fn chrome_json(spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::with_capacity(64 + spans.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, (s, own)) in spans.iter().zip(&own).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        // Names are identifiers from this crate's source: no escaping needed.
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\
             \"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{},\"self_us\":{:.3}}}}}",
            s.name,
            s.name.split('.').next().unwrap_or(s.name),
            s.start * 1e6,
            (s.end - s.start) * 1e6,
            s.op,
            own * 1e6,
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let spans = vec![
            span("step", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("b", 5.0, 9.0, Some(0)),
            span("a.inner", 2.0, 3.0, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![3.0, 2.0, 4.0, 1.0]);
        // Self times add up to the root's duration: nothing is counted twice.
        assert_eq!(self_times(&spans).iter().sum::<f64>(), 10.0);
    }

    #[test]
    fn overlapping_or_overhanging_children_are_not_counted_twice() {
        let spans = vec![
            span("step", 0.0, 10.0, None),
            span("a", 2.0, 6.0, Some(0)),
            span("b", 4.0, 8.0, Some(0)),  // overlaps a by 2
            span("c", 9.0, 12.0, Some(0)), // overhangs the parent by 2
        ];
        // Covered: [2,8] and [9,10] = 7.
        assert_eq!(self_times(&spans)[0], 3.0);
    }

    #[test]
    fn recorder_nests_and_tags_operations() {
        let mut rec = Recorder::new();
        let op = rec.next_op();
        let outer = rec.enter("step");
        let ((), inner_secs) = rec.leaf("layer.call", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let outer_secs = rec.exit(outer);
        assert!(inner_secs >= 0.002 && outer_secs >= inner_secs);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans.iter().all(|s| s.op == op));
        let own = self_times(rec.spans());
        assert!(own[0] <= outer_secs - inner_secs + 1e-9);
        assert!((own[1] - inner_secs).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut rec = Recorder::new();
        let a = rec.enter("a");
        let _b = rec.enter("b");
        rec.exit(a);
    }

    #[test]
    fn chrome_json_is_valid_json_with_one_event_per_span() {
        let spans = vec![
            span("step", 0.0, 0.010, None),
            span("optim.update_range", 0.001, 0.004, Some(0)),
        ];
        let text = chrome_json(&spans);
        let doc: serde::Value = serde_json::from_str(&text).expect("valid JSON");
        let events = doc
            .as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == "traceEvents"))
            .and_then(|(_, v)| v.as_seq())
            .expect("traceEvents array");
        assert_eq!(events.len(), 2);
        let second = events[1].as_map().expect("event object");
        let get = |k: &str| {
            second
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(
            get("name"),
            Some(serde::Value::Str("optim.update_range".into()))
        );
        assert_eq!(get("cat"), Some(serde::Value::Str("optim".into())));
        assert_eq!(get("ph"), Some(serde::Value::Str("X".into())));
        assert_eq!(get("ts"), Some(serde::Value::Float(1000.0)));
        assert_eq!(get("dur"), Some(serde::Value::Float(3000.0)));
    }
}
