//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A traced run (`--trace 1`) wraps every call into a layer's public
//! function in a span — name, start, end, parent — keeps all spans in
//! memory, and writes them to `out/trace-<workload>.json` when the run
//! ends. Per-layer times are sums of span durations by name; a span's self
//! time is its duration minus the part its children cover. Spans inside
//! the program under test are a later change: today every span starts and
//! ends in this package.

use crate::json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the trace file.
    pub id: u64,
    /// The span that was open on this thread when this one began.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `core.gen.stream`.
    pub name: &'static str,
    /// Nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Nanoseconds since the trace epoch.
    pub end_ns: u64,
}

impl Span {
    fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// The spans of one thread. Threads trace into their own `Tracer` (ids are
/// made unique by `lane`) and the owner merges them at the end.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    lane: u64,
    spans: Vec<Span>,
    open: Vec<u64>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer::lane(Instant::now(), 0)
    }

    /// A tracer for another thread of the same trace: same epoch, its own
    /// id range.
    pub fn lane(epoch: Instant, lane: u64) -> Tracer {
        Tracer {
            epoch,
            lane,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant all `start_ns` / `end_ns` count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, start: Instant, end: Instant) -> u64 {
        let id = (self.lane << 40) | self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Runs `work` inside a span named `name`; spans opened by `work`
    /// through the tracer it is handed become children.
    pub fn span<T>(&mut self, name: &'static str, work: impl FnOnce(&mut Tracer) -> T) -> T {
        let start = Instant::now();
        let id = self.push(name, start, start);
        self.open.push(id);
        let result = work(self);
        self.open.pop();
        let end = self.ns(Instant::now());
        let index = (id & ((1 << 40) - 1)) as usize;
        self.spans[index].end_ns = end;
        result
    }

    /// Records an already-timed interval as a child of the open span (the
    /// phases of an HTTP request are stamped by the client, not by a
    /// closure).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.push(name, start, end);
    }

    /// Adds another lane's spans.
    pub fn merge(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Total seconds spent in spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// Self time per span name: duration minus direct children.
    pub fn self_times_s(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &self.spans {
            let covered = child_ns.get(&s.id).copied().unwrap_or(0);
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.name).or_default() += own as f64 / 1e9;
        }
        out
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes the trace file: one object with the workload id, the unit of
    /// the clock, per-name self times, and every span as
    /// `[id, parent|null, name, start_ns, end_ns]`.
    pub fn write(&self, path: &Path, workload: &str) -> Result<(), String> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::Int(s.id),
                    s.parent.map_or(Json::Null, Json::Int),
                    Json::str(s.name),
                    Json::Int(s.start_ns),
                    Json::Int(s.end_ns),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("workload", Json::str(workload)),
            ("clock", Json::str("nanoseconds since the traced run began")),
            (
                "span_columns",
                Json::Arr(
                    ["id", "parent", "name", "start_ns", "end_ns"]
                        .map(Json::str)
                        .to_vec(),
                ),
            ),
            (
                "self_time_s",
                Json::obj(
                    self.self_times_s()
                        .into_iter()
                        .map(|(name, s)| (name, Json::Num(s))),
                ),
            ),
            ("spans", Json::Arr(spans)),
        ]);
        std::fs::write(path, format!("{doc}\n"))
            .map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nesting_sets_parents_and_self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            std::thread::sleep(Duration::from_millis(2));
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(4)));
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(4)));
        });
        assert_eq!(t.len(), 3);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(t.spans[0].id));
        assert_eq!(t.spans[2].parent, Some(t.spans[0].id));
        let own = t.self_times_s();
        let outer_total = t.total_s("outer");
        let inner_total = t.total_s("inner");
        assert!(inner_total >= 0.008, "{inner_total}");
        assert!((own["outer"] - (outer_total - inner_total)).abs() < 1e-9);
        assert!((own["inner"] - inner_total).abs() < 1e-9);
    }

    #[test]
    fn lanes_keep_ids_unique_and_recorded_intervals_attach_to_the_open_span() {
        let mut main = Tracer::new();
        let mut lane = Tracer::lane(main.epoch(), 1);
        let a = Instant::now();
        lane.span("request", |t| t.record("write", a, Instant::now()));
        main.span("request", |_| {});
        let lane_parent = lane.spans[0].id;
        assert_eq!(lane.spans[1].parent, Some(lane_parent));
        main.merge(lane);
        let mut ids: Vec<u64> = main.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3);
    }
}
