//! Spans recorded around the public calls the benchmark makes.
//!
//! A span has a name (`layer:call`), start, end, parent and the id of the
//! operation it belongs to. Calls made millions of times (engine ticks,
//! lull skips, master feeds) are not one span each: they are folded into
//! an [`Aggregate`] (count and total time) attached to the enclosing
//! span. Everything stays in memory until [`Tracer::write_jsonl`] at exit.
//! A layer's self time is its spans' time minus the part covered by child
//! spans and attached aggregates.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

pub struct Aggregate {
    pub name: &'static str,
    pub parent: usize,
    pub count: u64,
    pub total: Duration,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    op: u64,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
    pub aggregates: Vec<Aggregate>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            aggregates: Vec::new(),
        }
    }
}

impl Tracer {
    /// A tracer that records nothing (the untraced runs).
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::default()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start a new operation: spans opened from now on share its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start: now,
            end: now,
        });
        self.stack.push(id);
        id
    }

    /// Close span `id` (and any span left open inside it); returns its
    /// duration.
    pub fn exit(&mut self, id: usize) -> Duration {
        if !self.enabled {
            return Duration::ZERO;
        }
        let now = self.origin.elapsed();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end = now;
            if top == id {
                break;
            }
        }
        now - self.spans[id].start
    }

    /// Fold `count` calls totalling `total` into span `parent`.
    pub fn aggregate(&mut self, parent: usize, name: &'static str, count: u64, total: Duration) {
        if !self.enabled {
            return;
        }
        self.aggregates.push(Aggregate {
            name,
            parent,
            count,
            total,
        });
    }

    /// Per-operation, per-layer `(total, self, calls)`; the layer is the
    /// part of a span name before `:`.
    pub fn layer_times(&self) -> BTreeMap<(u64, &'static str), (Duration, Duration, u64)> {
        let mut covered = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end - s.start;
            }
        }
        for a in &self.aggregates {
            covered[a.parent] += a.total;
        }
        let mut out: BTreeMap<(u64, &'static str), (Duration, Duration, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry((s.op, layer(s.name))).or_default();
            let d = s.end - s.start;
            e.0 += d;
            e.1 += d.saturating_sub(covered[i]);
            e.2 += 1;
        }
        for a in &self.aggregates {
            let e = out
                .entry((self.spans[a.parent].op, layer(a.name)))
                .or_default();
            e.0 += a.total;
            e.1 += a.total;
            e.2 += a.count;
        }
        out
    }

    /// One JSON object per span and per aggregate, times in microseconds
    /// from the tracer's creation.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"kind\":\"span\",\"id\":{id},\"op\":{},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
                s.op,
                s.name,
                micros(s.start),
                micros(s.end)
            );
        }
        for a in &self.aggregates {
            let _ = writeln!(
                out,
                "{{\"kind\":\"aggregate\",\"parent\":{},\"op\":{},\"name\":\"{}\",\"count\":{},\"total_us\":{}}}",
                a.parent,
                self.spans[a.parent].op,
                a.name,
                a.count,
                micros(a.total)
            );
        }
        out
    }

    /// Write [`Tracer::to_jsonl`] to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_jsonl())
    }
}

fn layer(name: &str) -> &str {
    name.split_once(':').map_or(name, |(l, _)| l)
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_aggregates() {
        let mut t = Tracer::default();
        let op = t.next_op();
        let outer = t.enter("core.session:run");
        let inner = t.enter("netsim.engine:build");
        std::thread::sleep(Duration::from_millis(2));
        t.exit(inner);
        // the aggregated calls happen inside `outer`, after `inner`
        std::thread::sleep(Duration::from_millis(1));
        t.aggregate(outer, "netsim.engine:tick", 5, Duration::from_micros(300));
        t.exit(outer);
        assert_eq!(t.spans[inner].parent, Some(outer));
        assert_eq!(t.spans[inner].op, op);

        let layers = t.layer_times();
        let (total, own, calls) = layers[&(op, "core.session")];
        let build = t.spans[inner].end - t.spans[inner].start;
        assert_eq!(calls, 1);
        assert_eq!(own, total - build - Duration::from_micros(300));
        assert_eq!(layers[&(op, "netsim.engine")].2, 6);

        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.contains("\"parent\":0,\"name\":\"netsim.engine:build\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let s = t.enter("a:x");
        t.aggregate(s, "a:y", 3, Duration::from_millis(1));
        assert_eq!(t.exit(s), Duration::ZERO);
        assert!(t.spans.is_empty() && t.aggregates.is_empty());
    }

    #[test]
    fn exit_closes_spans_left_open() {
        let mut t = Tracer::default();
        let a = t.enter("a:x");
        let b = t.enter("b:y");
        t.exit(a);
        assert_eq!(t.spans[b].end, t.spans[a].end);
        let c = t.enter("c:z");
        assert_eq!(t.spans[c].parent, None);
    }
}
