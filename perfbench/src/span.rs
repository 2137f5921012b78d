//! Span recording from outside the program: the benchmark wraps each call
//! into a layer's public API in a span, keeps the spans in memory, and
//! derives per-layer self times from them once the run ends.
//!
//! Untraced iterations pay only for the two clock reads around each
//! top-level call, which `run_s` and `setup_s` need anyway; nested spans
//! cost nothing then.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::host::process_cpu_s;

/// Which end-to-end total a top-level span counts towards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Construction calls: circuit build, freeze, engine construction.
    Setup,
    /// Measured calls: drives, explorations, fleet runs, output digests.
    Run,
}

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Call name; the layer is everything before the last `.`.
    pub name: &'static str,
    /// Seconds since the recorder's origin.
    pub start: f64,
    /// Seconds since the recorder's origin.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The workload iteration this span belongs to.
    pub iteration: u32,
    /// The phase of the top-level span it descends from.
    pub phase: Phase,
}

impl Span {
    /// Wall seconds between start and end.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The layer a span name belongs to: `sim.pdes.run_until` → `sim.pdes`.
pub fn layer_of(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

/// Per-iteration totals of the top-level calls.
///
/// CPU seconds are the process's, over all threads, as the kernel
/// accounts them: time the hypervisor steals from the virtual CPU and
/// time threads spend blocked are not included.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IterationTotals {
    /// CPU seconds of top-level `Setup` calls.
    pub setup_s: f64,
    /// CPU seconds of top-level `Run` calls.
    pub run_s: f64,
    /// Wall seconds of top-level `Setup` calls.
    pub setup_wall_s: f64,
    /// Wall seconds of top-level `Run` calls.
    pub run_wall_s: f64,
    /// Whether spans were recorded in this iteration.
    pub traced: bool,
}

/// Times top-level calls always and records spans when tracing.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    tracing: bool,
    iteration: u32,
    open: Vec<(usize, Phase)>,
    spans: Vec<Span>,
    counts: BTreeMap<(u32, &'static str), f64>,
    current: IterationTotals,
    done: Vec<IterationTotals>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder; its origin is now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            tracing: false,
            iteration: 0,
            open: Vec::new(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
            current: IterationTotals::default(),
            done: Vec::new(),
        }
    }

    /// Starts iteration `done().len()`, recording spans iff `traced`.
    pub fn begin_iteration(&mut self, traced: bool) {
        assert!(self.open.is_empty(), "iteration started inside a span");
        self.iteration = self.done.len() as u32;
        self.tracing = traced;
        self.current = IterationTotals {
            traced,
            ..IterationTotals::default()
        };
    }

    /// Closes the current iteration and returns its totals.
    pub fn end_iteration(&mut self) -> IterationTotals {
        assert!(self.open.is_empty(), "iteration ended inside a span");
        self.done.push(self.current);
        self.tracing = false;
        self.current
    }

    /// `true` while the current iteration records spans.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// A top-level construction call.
    pub fn setup<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.top(name, Phase::Setup, f)
    }

    /// A top-level measured call.
    pub fn run<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.top(name, Phase::Run, f)
    }

    /// A call nested in a top-level one; recorded only when tracing.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.tracing {
            return f(self);
        }
        let phase = self.open.last().map_or(Phase::Run, |&(_, p)| p);
        self.record(name, phase, f).0
    }

    /// Records a count at the current iteration's boundary (kept only
    /// when tracing; repeated names add up).
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.tracing {
            *self.counts.entry((self.iteration, name)).or_insert(0.0) += value;
        }
    }

    fn top<T>(&mut self, name: &'static str, phase: Phase, f: impl FnOnce(&mut Self) -> T) -> T {
        assert!(
            self.open.is_empty(),
            "top-level call {name} nested in a span"
        );
        let cpu0 = process_cpu_s();
        let (out, secs) = if self.tracing {
            self.record(name, phase, f)
        } else {
            let t0 = Instant::now();
            let out = f(self);
            (out, t0.elapsed().as_secs_f64())
        };
        let cpu = process_cpu_s() - cpu0;
        let t = &mut self.current;
        match phase {
            Phase::Setup => (t.setup_s, t.setup_wall_s) = (t.setup_s + cpu, t.setup_wall_s + secs),
            Phase::Run => (t.run_s, t.run_wall_s) = (t.run_s + cpu, t.run_wall_s + secs),
        }
        out
    }

    fn record<T>(
        &mut self,
        name: &'static str,
        phase: Phase,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, f64) {
        let index = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().map(|&(i, _)| i),
            iteration: self.iteration,
            phase,
        });
        self.open.push((index, phase));
        let out = f(self);
        self.open.pop();
        let end = self.origin.elapsed().as_secs_f64();
        self.spans[index].end = end;
        (out, end - start)
    }

    /// Closes the spans a panic left open, at the current time.
    pub fn unwind(&mut self) {
        let end = self.origin.elapsed().as_secs_f64();
        for (i, _) in self.open.drain(..) {
            self.spans[i].end = end;
        }
    }

    /// Every closed iteration's totals, in order.
    pub fn iterations(&self) -> &[IterationTotals] {
        &self.done
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Indices of the traced iterations.
    pub fn traced_iterations(&self) -> Vec<u32> {
        (0..self.done.len() as u32)
            .filter(|&i| self.done[i as usize].traced)
            .collect()
    }

    /// Per traced iteration: the summed duration of spans named `name`.
    pub fn span_totals(&self, name: &str) -> Vec<f64> {
        self.per_traced(|i| {
            self.spans
                .iter()
                .filter(|s| s.iteration == i && s.name == name)
                .map(Span::duration)
                .sum()
        })
    }

    /// Per traced iteration: the summed self time of spans named `name`.
    pub fn self_totals(&self, name: &str) -> Vec<f64> {
        let selfs = self_times(&self.spans);
        self.per_traced(|i| {
            self.spans
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| s.iteration == i && s.name == name)
                .map(|(_, own)| own)
                .sum()
        })
    }

    /// Per traced iteration: the count recorded as `name` (0 if none).
    pub fn count_totals(&self, name: &str) -> Vec<f64> {
        self.per_traced(|i| {
            self.counts
                .iter()
                .filter(|((it, n), _)| *it == i && *n == name)
                .map(|(_, v)| *v)
                .sum()
        })
    }

    /// Per traced iteration: self seconds of each layer's `Run`-phase
    /// spans.
    pub fn layer_self_times(&self) -> Vec<BTreeMap<String, f64>> {
        let selfs = self_times(&self.spans);
        self.per_traced(|i| {
            let mut by_layer = BTreeMap::new();
            for (s, own) in self.spans.iter().zip(&selfs) {
                if s.iteration == i && s.phase == Phase::Run {
                    *by_layer.entry(layer_of(s.name).to_owned()).or_insert(0.0) += own;
                }
            }
            by_layer
        })
    }

    fn per_traced<T>(&self, f: impl Fn(u32) -> T) -> Vec<T> {
        self.traced_iterations().into_iter().map(f).collect()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// covered by the union of its children's intervals.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration() - covered(s.start, s.end, kids))
        .collect()
}

/// Length of `[lo, hi]` covered by the union of `intervals`.
fn covered(lo: f64, hi: f64, mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
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
            iteration: 0,
            phase: Phase::Run,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root [0, 10] with overlapping children [1, 4] and [3, 6], a
        // disjoint child [8, 9] and one spilling past the end [9.5, 12];
        // the grandchild [2, 3] must not count against the root.
        let spans = vec![
            span("a.root", 0.0, 10.0, None),
            span("b.x", 1.0, 4.0, Some(0)),
            span("b.y", 3.0, 6.0, Some(0)),
            span("b.z", 8.0, 9.0, Some(0)),
            span("b.w", 9.5, 12.0, Some(0)),
            span("c.g", 2.0, 3.0, Some(1)),
        ];
        let own = self_times(&spans);
        // Union inside [0, 10]: [1, 6] ∪ [8, 9] ∪ [9.5, 10] = 5 + 1 + 0.5.
        assert_eq!(own[0], 10.0 - 6.5);
        assert_eq!(own[1], 3.0 - 1.0);
        assert_eq!(own[2], 3.0);
        assert_eq!(own[5], 1.0);
    }

    #[test]
    fn layer_is_the_name_before_the_last_dot() {
        assert_eq!(layer_of("sim.pdes.run_until"), "sim.pdes");
        assert_eq!(layer_of("fleet.run_fleet"), "fleet");
        assert_eq!(layer_of("drive"), "drive");
    }

    #[test]
    fn untraced_iterations_time_top_level_calls_without_spans() {
        let mut rec = Recorder::new();
        rec.begin_iteration(false);
        let v = rec.run("sim.run_until", |r| r.span("sim.inner", |_| 7));
        assert_eq!(v, 7);
        let t = rec.end_iteration();
        assert!(rec.spans().is_empty());
        assert!(t.run_wall_s >= 0.0 && t.setup_wall_s == 0.0 && !t.traced);

        rec.begin_iteration(true);
        rec.setup("async.build", |_| ());
        rec.run("bench.drive", |r| r.span("sim.run_until", |_| ()));
        rec.count("sim.events", 3.0);
        rec.count("sim.events", 4.0);
        rec.end_iteration();
        assert_eq!(rec.spans().len(), 3);
        assert_eq!(rec.spans()[2].parent, Some(1));
        assert_eq!(rec.spans()[0].phase, Phase::Setup);
        assert_eq!(rec.traced_iterations(), vec![1]);
        assert_eq!(rec.count_totals("sim.events"), vec![7.0]);
        assert_eq!(rec.span_totals("async.build").len(), 1);
        let layers = &rec.layer_self_times()[0];
        assert!(layers.contains_key("bench") && layers.contains_key("sim"));
        assert!(!layers.contains_key("async"), "setup spans stay out");
    }
}
