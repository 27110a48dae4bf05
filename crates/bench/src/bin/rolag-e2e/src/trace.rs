//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans are kept in memory and written out after the run. A disabled
//! tracer records nothing and reads no clock, so the untraced run pays
//! one branch per boundary.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Ids are 1-based; `parent` 0 marks a root, which
/// spans one timed unit of work (a module, a request, a corpus pass).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    /// Module, request or pass index the span belongs to.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counters the call returned; [`total`] sums one over all spans.
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn count(&self, key: &str) -> f64 {
        self.counts
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0.0, |&(_, v)| v)
    }
}

/// Handle of a recorded span (inert when tracing is off).
pub struct Open(Option<usize>);

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    stack: Vec<usize>,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    state: RefCell<State>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            state: RefCell::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        let mut st = self.state.borrow_mut();
        let parent = st.stack.last().map_or(0, |&i| i as u64 + 1);
        let index = st.spans.len();
        st.spans.push(Span {
            id: index as u64 + 1,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        st.stack.push(index);
        Open(Some(index))
    }

    /// Adds `value` to counter `key` of `span`.
    pub fn count(&self, span: &Open, key: &'static str, value: f64) {
        let Some(i) = span.0 else { return };
        let counts = &mut self.state.borrow_mut().spans[i].counts;
        match counts.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 += value,
            None => counts.push((key, value)),
        }
    }

    /// Closes a span; counters may still be attached afterwards, outside
    /// its timed interval.
    pub fn end(&self, span: &Open) {
        let Some(i) = span.0 else { return };
        let end_ns = self.now_ns();
        let mut st = self.state.borrow_mut();
        assert_eq!(st.stack.pop(), Some(i), "spans must close innermost first");
        st.spans[i].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, request);
        let r = f();
        self.end(&open);
        r
    }

    pub fn spans(&self) -> Vec<Span> {
        self.state.borrow().spans.clone()
    }
}

/// Where the traced time went.
#[derive(Default)]
pub struct Breakdown {
    /// Self time (duration minus its children's) per span name, over
    /// every non-root span.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Root time no child span covers.
    pub unattributed_ns: u64,
    /// Sum of root durations: the traced timed wall.
    pub wall_ns: u64,
}

/// Self time per layer plus the unattributed remainder. [`Tracer`] closes
/// spans innermost first, so children nest inside their parent without
/// overlapping one another, and `Σ self_ns + unattributed_ns == wall_ns`.
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let mut covered = vec![0u64; spans.len()];
    for s in spans.iter().filter(|s| s.parent > 0) {
        covered[s.parent as usize - 1] += s.duration_ns();
    }
    let mut out = Breakdown::default();
    for (s, covered) in spans.iter().zip(covered) {
        let self_ns = s.duration_ns() - covered;
        if s.parent == 0 {
            out.wall_ns += s.duration_ns();
            out.unattributed_ns += self_ns;
        } else {
            *out.self_ns.entry(s.name).or_insert(0) += self_ns;
        }
    }
    out
}

/// Sum of every span's counter `key`.
pub fn total(spans: &[Span], key: &str) -> f64 {
    spans.iter().map(|s| s.count(key)).sum()
}

/// The spans as JSON lines, one per span, tagged with `run`.
pub fn to_jsonl(spans: &[Span], run: u64) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = write!(
            out,
            "{{\"run\": {run}, \"span\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}, \"counts\": {{",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        );
        for (i, (k, v)) in s.counts.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{k}\": {v}");
        }
        out.push_str("}}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name,
            start_ns: start,
            end_ns: end,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_times_and_unattributed_sum_to_the_traced_wall() {
        let spans = vec![
            span(1, 0, "module", 0, 100),
            span(2, 1, "frontend.parse", 5, 30),
            span(3, 1, "passes.run", 30, 90),
            span(4, 3, "x", 40, 60),
            span(5, 3, "x", 60, 70),
            span(6, 3, "y", 80, 90),
            span(7, 0, "module", 200, 250),
            span(8, 7, "frontend.parse", 200, 240),
        ];
        let b = breakdown(&spans);
        assert_eq!(b.wall_ns, 150);
        assert_eq!(b.self_ns["frontend.parse"], 25 + 40);
        assert_eq!(b.self_ns["passes.run"], 60 - 20 - 10 - 10);
        assert_eq!(b.self_ns["x"], 20 + 10);
        assert_eq!(b.self_ns["y"], 10);
        assert_eq!(b.unattributed_ns, (100 - 25 - 60) + (50 - 40));
        assert_eq!(
            b.self_ns.values().sum::<u64>() + b.unattributed_ns,
            b.wall_ns
        );
    }

    #[test]
    fn recorded_spans_nest_and_carry_counts() {
        let t = Tracer::new(true);
        let root = t.begin("module", 3);
        let n = t.span("frontend.parse", 3, || 7);
        let run = t.begin("passes.run", 3);
        t.count(&run, "rolag.rolled", 2.0);
        t.end(&run);
        t.count(&run, "rolag.rolled", 1.0);
        t.end(&root);
        assert_eq!(n, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].parent, spans[2].parent), (1, 1));
        assert_eq!(spans[2].count("rolag.rolled"), 3.0);
        assert_eq!(total(&spans, "rolag.rolled"), 3.0);
        let b = breakdown(&spans);
        assert_eq!(
            b.self_ns.values().sum::<u64>() + b.unattributed_ns,
            b.wall_ns
        );
        let jsonl = to_jsonl(&spans, 9);
        assert_eq!(jsonl.lines().count(), 3);
        let line = rolag_serve::json::parse(jsonl.lines().nth(2).unwrap()).unwrap();
        assert_eq!(line.get("parent").and_then(|v| v.as_num()), Some(1.0));
        let counts = line.get("counts").unwrap();
        assert_eq!(
            counts.get("rolag.rolled").and_then(|v| v.as_num()),
            Some(3.0)
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let s = t.begin("module", 0);
        t.count(&s, "k", 1.0);
        t.end(&s);
        assert!(t.spans().is_empty());
    }
}
