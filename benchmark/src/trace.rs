//! Spans recorded by the benchmark's own code around each call into a
//! layer of the program: name, start, end, parent, and the request id of
//! the operation. Spans stay in memory until the run ends; per-layer self
//! time is derived from them afterwards.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span; 0 for a root.
    pub parent: u64,
    /// Request id shared by every span of one operation.
    pub rid: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span sink shared by the load threads and the server side.
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Reserve a span id (so children can name their parent before the
    /// parent ends).
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span under a reserved id.
    pub fn record(
        &self,
        id: u64,
        parent: u64,
        rid: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            rid,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans
            .lock()
            .expect("span sink poisoned by a panicking load thread")
            .push(span);
    }

    /// Take every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"))
    }
}

/// Self time of every span: its duration minus the part its children
/// cover (children never overlap each other here: each layer calls the
/// next one synchronously).
pub fn self_times(spans: &[Span]) -> Vec<(Span, u64)> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.duration_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            let children = child_ns.get(&s.id).copied().unwrap_or(0);
            (*s, s.duration_ns().saturating_sub(children))
        })
        .collect()
}

/// The tag the load generator appends to a traced request's query text:
/// a SPARQL comment carrying the request id and the client span id, so
/// the server-side decorator can link its spans to the client's.
pub fn tag(rid: u64, parent: u64) -> String {
    // "\n# rid=<rid>.<parent>", percent-encoded for a query string.
    format!("%0A%23rid%3D{rid}.{parent}")
}

/// Parse the tag back out of a query text.
pub fn parse_tag(sparql: &str) -> Option<(u64, u64)> {
    let at = sparql.rfind("#rid=")?;
    let (rid, parent) = sparql[at + 5..].trim().split_once('.')?;
    Some((rid.parse().ok()?, parent.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_round_trips_through_percent_decoding() {
        let encoded = tag(42, 7);
        let decoded = encoded
            .replace("%0A", "\n")
            .replace("%23", "#")
            .replace("%3D", "=");
        let q = format!("ASK {{ ?s ?p ?o }}{decoded}");
        assert_eq!(parse_tag(&q), Some((42, 7)));
        assert_eq!(parse_tag("ASK { ?s ?p ?o }"), None);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new();
        let t0 = Instant::now();
        let ms = |n| t0 + std::time::Duration::from_millis(n);
        t.record(1, 0, 9, "root", ms(0), ms(10));
        t.record(2, 1, 9, "child", ms(2), ms(6));
        t.record(3, 2, 9, "grandchild", ms(3), ms(4));
        let selfs = self_times(&t.drain());
        let of = |name| selfs.iter().find(|(s, _)| s.name == name).unwrap().1;
        assert_eq!(of("root"), 6_000_000);
        assert_eq!(of("child"), 3_000_000);
        assert_eq!(of("grandchild"), 1_000_000);
    }
}
