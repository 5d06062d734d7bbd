//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name (`layer.call`), a start and end on one monotonic
//! clock, an optional parent span, and the id of the pair or input it
//! belongs to. Spans stay in memory until the pass ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans when on; when off, [`Tracer::span`] only calls through.
pub struct Tracer {
    origin: Option<Instant>,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            origin: None,
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on() -> Tracer {
        Tracer {
            origin: Some(Instant::now()),
            spans: Mutex::new(Vec::with_capacity(8192)),
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's index,
    /// to pass as the parent of spans opened inside it.
    pub fn span<T>(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> T {
        let Some(origin) = self.origin else {
            return f(None);
        };
        let start_ns = origin.elapsed().as_nanos() as u64;
        let idx = {
            let mut spans = self.spans.lock().expect("span recorder poisoned");
            spans.push(Span {
                name,
                id,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            spans.len() - 1
        };
        let out = f(Some(idx));
        let end_ns = origin.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span recorder poisoned")[idx].end_ns = end_ns;
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span recorder poisoned")
    }
}

/// Per-pass totals derived from the spans, in seconds: `<name>_s` sums the
/// durations of every span called `name`, `<layer>.self_s` sums the self
/// time (duration minus the union of its children's intervals) of every
/// span of that layer, and `top_level_s` sums the spans without a parent.
pub fn summarize(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = (s.end_ns - s.start_ns) as f64 * 1e-9;
        let mut kids: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| (spans[c].start_ns, spans[c].end_ns))
            .collect();
        let self_s = dur - union_ns(&mut kids) as f64 * 1e-9;
        let layer = s.name.split('.').next().unwrap_or(s.name);
        *out.entry(format!("{}_s", s.name)).or_insert(0.0) += dur;
        *out.entry(format!("{layer}.self_s")).or_insert(0.0) += self_s;
        if s.parent.is_none() {
            *out.entry("top_level_s".to_string()).or_insert(0.0) += dur;
        }
    }
    out
}

/// Total length covered by a set of intervals (children of one span may
/// overlap when they run on different workers).
fn union_ns(iv: &mut [(u64, u64)]) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in iv.iter() {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// The spans as NDJSON, one object per line.
pub fn to_ndjson(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, s: u64, e: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // parent 0..100, two overlapping children 10..40 and 30..60
        let spans = vec![
            span("core.run", None, 0, 100),
            span("core.prepare", Some(0), 10, 40),
            span("core.prepare", Some(0), 30, 60),
            span("cpu.build", None, 100, 110),
        ];
        let sum = summarize(&spans);
        let close = |k: &str, v: f64| assert!((sum[k] - v * 1e-9).abs() < 1e-15, "{k}");
        close("core.run_s", 100.0);
        close("core.prepare_s", 60.0);
        // run self = 100 - 50 covered; prepare self = 30 + 30
        close("core.self_s", 50.0 + 60.0);
        close("cpu.self_s", 10.0);
        close("top_level_s", 110.0);
    }

    #[test]
    fn off_records_nothing_and_on_nests() {
        let off = Tracer::off();
        assert_eq!(off.span("a.b", 1, None, |p| p), None);
        assert!(off.into_spans().is_empty());
        let on = Tracer::on();
        on.span("a.outer", 3, None, |p| on.span("a.inner", 3, p, |_| ()));
        let spans = on.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(to_ndjson(&spans).lines().count() == 2);
    }
}
