//! Spans recorded at the layer boundaries, from the benchmark's side
//! of each call: kept in a preallocated in-memory buffer, written out
//! as JSON when the run ends.
//!
//! Every timing the benchmark reports is taken whether or not tracing
//! is on; a traced run additionally pushes the same timestamps here,
//! so the tracing overhead is the cost of these pushes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One call into a layer (or the op that groups such calls).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`, or `op` for the root of one operation.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Unique per tracer.
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Shared by all spans of one operation (one point, one repetition).
    pub op: u32,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span sink shared by the main thread and campaign workers.
pub struct Tracer {
    /// `None` when tracing is off: every call is then a no-op.
    spans: Option<Mutex<Vec<Span>>>,
    epoch: Instant,
    next_id: AtomicU32,
    next_op: AtomicU32,
    capacity: usize,
    dropped: AtomicU32,
}

impl Tracer {
    /// A tracer holding up to `capacity` spans, or a no-op one.
    pub fn new(enabled: bool, capacity: usize) -> Tracer {
        Tracer {
            spans: enabled.then(|| Mutex::new(Vec::with_capacity(capacity))),
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            next_op: AtomicU32::new(0),
            capacity,
            dropped: AtomicU32::new(0),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// A fresh operation identifier.
    pub fn new_op(&self) -> u32 {
        self.next_op.fetch_add(1, Ordering::Relaxed)
    }

    /// Reserves a span id, so children can name a parent whose own end
    /// is not known yet (a campaign run around its execute calls).
    pub fn reserve(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span under a reserved `id`.
    pub fn push(
        &self,
        id: u32,
        name: &'static str,
        op: u32,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) {
        let Some(spans) = &self.spans else { return };
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        let mut spans = spans.lock().expect("a tracer push never panics while holding the lock");
        if spans.len() == self.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        spans.push(Span { name, start_ns: ns(start), end_ns: ns(end), id, parent, op });
    }

    /// Records a span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        op: u32,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.reserve();
        self.push(id, name, op, parent, start, end);
        id
    }

    /// Times `call` as a one-span op of its own; returns what it
    /// produced and the host seconds it took.
    pub fn time<T>(&self, name: &'static str, call: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let out = call();
        let t1 = Instant::now();
        self.record(name, self.new_op(), None, t0, t1);
        (out, t1.duration_since(t0).as_secs_f64())
    }

    /// The spans recorded so far and how many the full buffer refused.
    pub fn finish(self) -> (Vec<Span>, u32) {
        let spans = self.spans.map_or_else(Vec::new, |m| {
            m.into_inner().expect("a tracer push never panics while holding the lock")
        });
        (spans, self.dropped.into_inner())
    }
}

/// Self time per span name: each span's duration minus the part of it
/// its child spans cover (overlapping children — two campaign workers
/// executing at once — are counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    let by_id: BTreeMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| by_id.get(&p)) {
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if lo < hi {
                children.entry(p.id).or_default().push((lo, hi));
            }
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let mut covered = 0;
        if let Some(iv) = children.get_mut(&s.id) {
            iv.sort_unstable();
            let mut reach = 0;
            for &(lo, hi) in iv.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
        }
        *out.entry(s.name).or_default() += s.duration() - covered;
    }
    out
}

/// What the acceptance criteria ask of a trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceCheck {
    /// Root spans.
    pub ops: usize,
    /// Children that start before or end after their parent, plus
    /// spans whose parent id is unknown.
    pub escaping_children: usize,
    /// `|Σ self times − Σ root durations| / Σ root durations`, over the
    /// ops not named as concurrent.
    pub self_time_error: f64,
}

/// Checks that children nest inside their parents and that self times
/// sum to the wall time of the roots. Ops in `concurrent` ran their
/// children on several threads at once, so their self times sum to
/// CPU time instead: they are left out of the sum.
pub fn check(spans: &[Span], concurrent: &[u32]) -> TraceCheck {
    let by_id: BTreeMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let escaping_children = spans
        .iter()
        .filter(|s| match s.parent.map(|p| by_id.get(&p)) {
            None => false,
            Some(Some(p)) => s.start_ns < p.start_ns || s.end_ns > p.end_ns,
            Some(None) => true,
        })
        .count();
    let sequential: Vec<Span> =
        spans.iter().filter(|s| !concurrent.contains(&s.op)).cloned().collect();
    let root_ns: u64 = sequential.iter().filter(|s| s.parent.is_none()).map(Span::duration).sum();
    let self_ns: u64 = self_times(&sequential).values().sum();
    let self_time_error =
        if root_ns == 0 { 0.0 } else { (self_ns as f64 - root_ns as f64).abs() / root_ns as f64 };
    let ops = spans.iter().filter(|s| s.parent.is_none()).count();
    TraceCheck { ops, escaping_children, self_time_error }
}

/// Renders the span file: a header object naming the run, then one
/// span per line.
pub fn to_json(header: &str, spans: &[Span]) -> String {
    let mut s = String::with_capacity(64 + spans.len() * 96);
    let _ = writeln!(s, "{{\"run\": {header},\n\"spans\": [");
    for (i, sp) in spans.iter().enumerate() {
        let parent = sp.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"id\": {}, \"parent\": {}, \"op\": {}}}{sep}",
            sp.name, sp.start_ns, sp.end_ns, sp.id, parent, sp.op
        );
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span { name, start_ns: start, end_ns: end, id, parent, op: 0 }
    }

    #[test]
    fn self_time_subtracts_children_on_a_hand_built_tree() {
        // op [0,100) ⊃ clone [0,10), new [10,15), run [15,98)
        //   run ⊃ two overlapping workers [20,60) and [40,80)
        let spans = vec![
            span("op", 0, None, 0, 100),
            span("workloads.clone", 1, Some(0), 0, 10),
            span("core.new", 2, Some(0), 10, 15),
            span("core.run", 3, Some(0), 15, 98),
            span("campaign.execute", 4, Some(3), 20, 60),
            span("campaign.execute", 5, Some(3), 40, 80),
        ];
        let st = self_times(&spans);
        assert_eq!(st["op"], 2, "100 - (10 + 5 + 83)");
        assert_eq!(st["workloads.clone"], 10);
        assert_eq!(st["core.new"], 5);
        assert_eq!(st["core.run"], 83 - 60, "children cover [20,80) once");
        assert_eq!(st["campaign.execute"], 80, "each child keeps its own duration");
        let c = check(&spans, &[]);
        assert_eq!(c.ops, 1);
        assert_eq!(c.escaping_children, 0);
        // Σ self = 2 + 10 + 5 + 23 + 80 = 120 against a 100 ns root:
        // concurrent children are the only way the sum can exceed it.
        assert!((c.self_time_error - 0.2).abs() < 1e-12);
        assert_eq!(check(&spans, &[0]).self_time_error, 0.0, "op 0 named as concurrent");
    }

    #[test]
    fn sequential_tree_sums_to_the_root_exactly() {
        let spans = vec![
            span("op", 0, None, 5, 105),
            span("workloads.clone", 1, Some(0), 5, 30),
            span("core.run", 2, Some(0), 31, 104),
        ];
        let c = check(&spans, &[]);
        assert_eq!(c.self_time_error, 0.0);
        assert_eq!(self_times(&spans)["op"], 2);
    }

    #[test]
    fn check_flags_children_that_escape_their_parent() {
        let spans = vec![
            span("op", 0, None, 10, 20),
            span("core.run", 1, Some(0), 5, 15),
            span("core.new", 2, Some(9), 11, 12),
        ];
        assert_eq!(check(&spans, &[]).escaping_children, 2);
    }

    #[test]
    fn disabled_tracer_keeps_nothing_and_full_buffer_counts_drops() {
        let now = Instant::now();
        let off = Tracer::new(false, 8);
        off.record("op", off.new_op(), None, now, now);
        assert_eq!(off.finish(), (vec![], 0));

        let on = Tracer::new(true, 1);
        let a = on.record("op", 0, None, now, now);
        let b = on.record("op", 1, None, now, now);
        assert_ne!(a, b);
        let (spans, dropped) = on.finish();
        assert_eq!((spans.len(), dropped), (1, 1));
    }

    #[test]
    fn span_file_is_json_with_null_root_parents() {
        let spans = vec![span("op", 0, None, 1, 2), span("core.run", 1, Some(0), 1, 2)];
        let text = to_json("{\"workload\": \"x\"}", &spans);
        let json = vr_obs::Json::parse(&text).expect("valid JSON");
        let arr = json.get("spans").and_then(|s| s.as_arr()).expect("spans array");
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].get("parent").and_then(|p| p.as_u64()), Some(0));
        assert_eq!(arr[1].get("name").and_then(|p| p.as_str()), Some("core.run"));
    }
}
