//! In-memory spans recorded by the benchmark around its calls into the
//! program's public functions.
//!
//! A traced op has a root span (the op itself, called exactly as in the
//! untraced run) and child spans that *replay* the public calls the op is
//! made of on the same inputs, right after it: the lint preflight, the
//! spec parse, the engine, and so on. Replays are needed because the
//! benchmark cannot open spans inside the program. A span's self time is
//! therefore its duration minus the durations of its children, and the
//! root's self time is the part of the op no replayed call accounts for
//! (rendering, glue, thread start-up).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::util::{json_str, median};

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The op or request the span belongs to.
    pub op: u64,
}

impl SpanRec {
    pub fn us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<SpanRec>,
    next_op: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::starting_at(Instant::now())
    }

    /// A tracer whose clock starts at `epoch`, for intervals measured
    /// before the tracer existed.
    pub fn starting_at(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            next_op: 0,
        }
    }

    pub fn new_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        out
    }

    /// Records an already measured interval (client-side request phases).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(SpanRec {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::us)
            .collect()
    }

    /// Durations (µs) of spans called `name` whose parent is called `parent`.
    pub fn durations_under(&self, name: &str, parents: &[&str]) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| {
                s.parent
                    .is_some_and(|p| parents.contains(&self.spans[p].name))
            })
            .map(SpanRec::us)
            .collect()
    }

    pub fn median_us(&self, name: &str) -> f64 {
        median(&self.durations(name))
    }

    pub fn total_us(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Self time (µs) of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(SpanRec::us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.us();
            }
        }
        own
    }

    /// Self times of the root spans (no parent) whose name is in `roots`.
    pub fn root_self_us(&self, roots: &[&str]) -> (Vec<f64>, f64, f64) {
        let own = self.self_times();
        let mut selves = Vec::new();
        let (mut self_sum, mut root_sum) = (0.0, 0.0);
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() && roots.contains(&s.name) {
                selves.push(own[i]);
                self_sum += own[i];
                root_sum += s.us();
            }
        }
        (selves, self_sum, root_sum)
    }

    /// Per span name: count, total and self time, as report lines.
    pub fn report(&self) -> String {
        let own = self.self_times();
        let mut by_name: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(&own) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.us();
            e.2 += own;
        }
        let mut out = String::from("span                      count     total_ms      self_ms\n");
        for (name, (count, total, own)) in by_name {
            let _ = writeln!(
                out,
                "{name:<24} {count:>6} {:>12.3} {:>12.3}",
                total / 1e3,
                own / 1e3
            );
        }
        out
    }

    /// The spans as JSON lines.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str("{\"id\":");
            out.push_str(&i.to_string());
            out.push_str(",\"name\":");
            json_str(&mut out, s.name);
            let _ = write!(
                out,
                ",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op
            );
            out.push('\n');
        }
        out
    }
}
