//! The harness's span recorder.
//!
//! Spans are recorded only by benchmark code, around calls into the
//! repository's public functions — the program itself is not instrumented.
//! They are kept in memory and written as Chrome-trace JSON
//! (`chrome://tracing`, Perfetto) when the run ends. A span carries both
//! clocks where it has them: host nanoseconds since the recorder was
//! created, and the simulated processor's virtual clock in its `args`.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within a recorder; allocated by [`Recorder::next_id`].
    pub id: u32,
    /// The span that caused this one, if any.
    pub parent: Option<u32>,
    /// What ran, e.g. `Dsm::try_run jacobi` or `kernel`.
    pub name: String,
    /// The layer (crate name) the call went into.
    pub layer: &'static str,
    /// The Chrome-trace thread lane: 0 for the driver thread, `1 + proc`
    /// for a simulated processor.
    pub lane: u32,
    /// Host nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Everything else: the shared `workload` / `case` / `pass` identifiers,
    /// virtual-clock readings, counter deltas.
    pub args: Vec<(String, Json)>,
}

impl Span {
    /// Host duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from the driver thread and the simulated processors'
/// threads. One uncontended mutex push per span: a span is recorded once
/// per processor per case, never per access.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder whose host clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Host nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// A fresh span id, so a parent can hand its id to children before it
    /// is itself recorded (a parent ends after its children).
    pub fn next_id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Stores a finished span.
    pub fn record(&self, span: Span) {
        self.spans.lock().expect("no recorder user panics while holding the lock").push(span);
    }

    /// All spans recorded so far, ordered by start time.
    pub fn finish(self) -> Vec<Span> {
        let mut spans =
            self.spans.into_inner().expect("no recorder user panics while holding the lock");
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Self time of every span, parallel to `spans`: its duration minus the part
/// of its interval that its direct children cover. Children may overlap one
/// another — the simulated processors of a case run concurrently — so the
/// covered part is the *union* of the child intervals clipped to the
/// parent, not their sum.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .map(|parent| {
            let mut children: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == Some(parent.id))
                .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
                .filter(|(start, end)| start < end)
                .collect();
            children.sort_unstable();
            let mut covered = 0;
            let mut reach = parent.start_ns;
            for (start, end) in children {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            parent.duration_ns() - covered
        })
        .collect()
}

/// Renders spans as a Chrome-trace document: one complete (`"ph":"X"`)
/// event per span, microsecond timestamps, `self_us` added to each event's
/// `args`, and `meta` under `otherData`.
pub fn chrome_trace(spans: &[Span], meta: Json) -> Json {
    let selfs = self_times(spans);
    let events = spans
        .iter()
        .zip(selfs)
        .map(|(span, self_ns)| {
            let mut args = Json::obj().set("id", u64::from(span.id));
            if let Some(parent) = span.parent {
                args = args.set("parent", u64::from(parent));
            }
            args = args.set("self_us", self_ns as f64 / 1e3);
            for (key, value) in &span.args {
                args = args.set(key, value.clone());
            }
            Json::obj()
                .set("name", span.name.as_str())
                .set("cat", span.layer)
                .set("ph", "X")
                .set("ts", span.start_ns as f64 / 1e3)
                .set("dur", span.duration_ns() as f64 / 1e3)
                .set("pid", 1u64)
                .set("tid", u64::from(span.lane))
                .set("args", args)
        })
        .collect::<Vec<_>>();
    Json::obj().set("displayTimeUnit", "ms").set("otherData", meta).set("traceEvents", events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            layer: "bench",
            lane: 0,
            start_ns,
            end_ns,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children_only() {
        let spans = vec![
            span(0, None, 0, 100),
            // Two overlapping children (concurrent processors) cover
            // 10..60; a third covers 70..80.
            span(1, Some(0), 10, 50),
            span(2, Some(0), 30, 60),
            span(3, Some(0), 70, 80),
            // A grandchild is charged to its own parent, not to the root.
            span(4, Some(1), 20, 45),
            // A child running past its parent's end is clipped to it.
            span(5, Some(3), 75, 95),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 40 - 25, 30, 10 - 5, 25, 20]);
    }

    #[test]
    fn a_child_nested_inside_a_sibling_is_not_counted_twice() {
        let spans = vec![span(0, None, 0, 100), span(1, Some(0), 10, 90), span(2, Some(0), 20, 30)];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn recorder_orders_by_start_and_ids_are_unique() {
        let rec = Recorder::new();
        let (a, b) = (rec.next_id(), rec.next_id());
        assert_ne!(a, b);
        rec.record(span(b, Some(a), 50, 60));
        rec.record(span(a, None, 10, 90));
        let spans = rec.finish();
        assert_eq!(spans.iter().map(|s| s.id).collect::<Vec<_>>(), vec![a, b]);
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let mut child = span(1, Some(0), 2_000, 5_000);
        child.args.push(("workload".into(), Json::from("tmk8")));
        let doc = chrome_trace(&[span(0, None, 0, 10_000), child], Json::obj().set("seed", 3u64));
        let events = doc.get("traceEvents").unwrap().elements().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].to_string(),
            r#"{"name":"s1","cat":"bench","ph":"X","ts":2,"dur":3,"pid":1,"tid":0,"args":{"id":1,"parent":0,"self_us":3,"workload":"tmk8"}}"#
        );
        assert_eq!(events[0].get("args").unwrap().get("self_us").unwrap().as_f64(), Some(7.0));
        assert_eq!(doc.get("otherData").unwrap().get("seed").unwrap().as_f64(), Some(3.0));
    }
}
