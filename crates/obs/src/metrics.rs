//! Handle-based metrics registry: counters, gauges, fixed-bucket
//! histograms.
//!
//! IDs are stable strings chosen by the instrumented component
//! (`sim.events_fired`, `sram.read.latency_s`). Per-instance labels use
//! a Prometheus-flavoured suffix: `sim.energy.switching_j{domain="vdd"}`.
//! Registration is idempotent per registry — asking for the same id
//! twice returns the same handle — and storage is registration-ordered,
//! so exports are deterministic as long as registration order is.

use std::borrow::Cow;
use std::collections::HashMap;

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(u32);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(u32);

/// A monotonically increasing event count.
#[derive(Debug, Clone, PartialEq)]
pub struct Counter {
    /// Stable metric id.
    pub id: Cow<'static, str>,
    /// Current count.
    pub value: u64,
}

/// A last-write-wins sampled value.
#[derive(Debug, Clone, PartialEq)]
pub struct Gauge {
    /// Stable metric id.
    pub id: Cow<'static, str>,
    /// Most recent sample, if any was ever set.
    pub value: Option<f64>,
}

/// A fixed-bucket histogram with explicit upper bounds.
///
/// `buckets[i]` counts observations `<= bounds[i]`; observations above
/// the last bound land in the implicit overflow bucket counted only by
/// `count`. Bounds are part of the histogram's identity: merging two
/// histograms with the same id but different bounds panics.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Stable metric id.
    pub id: Cow<'static, str>,
    /// Inclusive upper bounds, strictly increasing.
    pub bounds: Vec<f64>,
    /// Per-bound cumulative-style counts (non-cumulative storage:
    /// `buckets[i]` counts observations in `(bounds[i-1], bounds[i]]`).
    pub(crate) buckets: Vec<u64>,
    /// Total number of observations, including overflow.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
}

/// Power-of-two integer bounds `1, 2, 4, … 2^(n-1)` — a good default
/// for queue depths and frontier sizes.
pub fn pow2_bounds(n: u32) -> Vec<f64> {
    (0..n).map(|i| (1u64 << i) as f64).collect()
}

/// Log-spaced bounds for latencies in seconds, from `lo` decades up:
/// `lo, 2·lo, 5·lo, 10·lo, …` for `decades` decades.
pub fn latency_bounds(lo: f64, decades: u32) -> Vec<f64> {
    let mut out = Vec::with_capacity(3 * decades as usize);
    let mut base = lo;
    for _ in 0..decades {
        out.push(base);
        out.push(2.0 * base);
        out.push(5.0 * base);
        base *= 10.0;
    }
    out
}

/// Registry of counters, gauges and histograms.
///
/// All recording methods take `&mut self`; components that need shared
/// recording wrap the registry (or the whole [`crate::Telemetry`]) in a
/// `RefCell`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    counters: Vec<Counter>,
    gauges: Vec<Gauge>,
    histograms: Vec<Histogram>,
    counter_index: HashMap<Cow<'static, str>, u32>,
    gauge_index: HashMap<Cow<'static, str>, u32>,
    histogram_index: HashMap<Cow<'static, str>, u32>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or looks up) a counter with the given stable id.
    pub fn counter(&mut self, id: impl Into<Cow<'static, str>>) -> CounterId {
        let id = id.into();
        if let Some(&i) = self.counter_index.get(&id) {
            return CounterId(i);
        }
        let i = self.counters.len() as u32;
        self.counter_index.insert(id.clone(), i);
        self.counters.push(Counter { id, value: 0 });
        CounterId(i)
    }

    /// Registers (or looks up) a gauge with the given stable id.
    pub fn gauge(&mut self, id: impl Into<Cow<'static, str>>) -> GaugeId {
        let id = id.into();
        if let Some(&i) = self.gauge_index.get(&id) {
            return GaugeId(i);
        }
        let i = self.gauges.len() as u32;
        self.gauge_index.insert(id.clone(), i);
        self.gauges.push(Gauge { id, value: None });
        GaugeId(i)
    }

    /// Registers (or looks up) a histogram with the given stable id and
    /// bucket bounds. Bounds must be strictly increasing; re-registering
    /// an existing id with different bounds panics.
    pub fn histogram(&mut self, id: impl Into<Cow<'static, str>>, bounds: &[f64]) -> HistogramId {
        let id = id.into();
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing: {id}"
        );
        if let Some(&i) = self.histogram_index.get(&id) {
            assert_eq!(
                self.histograms[i as usize].bounds, bounds,
                "histogram {id} re-registered with different bounds"
            );
            return HistogramId(i);
        }
        let i = self.histograms.len() as u32;
        self.histogram_index.insert(id.clone(), i);
        self.histograms.push(Histogram {
            id,
            bounds: bounds.to_vec(),
            buckets: vec![0; bounds.len()],
            count: 0,
            sum: 0.0,
        });
        HistogramId(i)
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn inc(&mut self, id: CounterId, n: u64) {
        self.counters[id.0 as usize].value += n;
    }

    /// Sets a gauge to `v`.
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, v: f64) {
        self.gauges[id.0 as usize].value = Some(v);
    }

    /// Raises a gauge to `v` if `v` is larger (high-water mark).
    #[inline]
    pub fn raise_gauge(&mut self, id: GaugeId, v: f64) {
        let g = &mut self.gauges[id.0 as usize];
        match g.value {
            Some(cur) if cur >= v => {}
            _ => g.value = Some(v),
        }
    }

    /// Records one observation into a histogram.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, v: f64) {
        let h = &mut self.histograms[id.0 as usize];
        h.count += 1;
        h.sum += v;
        // Bucket lists are short (≤ ~32); linear scan beats binary
        // search on them and stays branch-predictable.
        for (slot, bound) in h.buckets.iter_mut().zip(&h.bounds) {
            if v <= *bound {
                *slot += 1;
                break;
            }
        }
    }

    /// Counter value by id, if registered.
    pub fn counter_value(&self, id: &str) -> Option<u64> {
        self.counter_index
            .get(id)
            .map(|&i| self.counters[i as usize].value)
    }

    /// Gauge value by id, if registered and ever set.
    pub fn gauge_value(&self, id: &str) -> Option<f64> {
        self.gauge_index
            .get(id)
            .and_then(|&i| self.gauges[i as usize].value)
    }

    /// Counters in registration order.
    pub fn counters(&self) -> &[Counter] {
        &self.counters
    }

    /// Gauges in registration order.
    pub fn gauges(&self) -> &[Gauge] {
        &self.gauges
    }

    /// Histograms in registration order.
    pub fn histograms(&self) -> &[Histogram] {
        &self.histograms
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds `other` into `self` by id: counters add, histograms merge
    /// bucket-wise (bounds must match), gauges take `other`'s value when
    /// set. Ids unseen by `self` are registered in `other`'s order, so a
    /// fixed merge order yields a fixed registry order.
    pub fn merge_from(&mut self, other: &Metrics) {
        for c in &other.counters {
            let id = self.counter(c.id.clone());
            self.inc(id, c.value);
        }
        for g in &other.gauges {
            let id = self.gauge(g.id.clone());
            if let Some(v) = g.value {
                self.set_gauge(id, v);
            }
        }
        for h in &other.histograms {
            let id = self.histogram(h.id.clone(), &h.bounds);
            let mine = &mut self.histograms[id.0 as usize];
            for (slot, add) in mine.buckets.iter_mut().zip(&h.buckets) {
                *slot += add;
            }
            mine.count += h.count;
            mine.sum += h.sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip_and_idempotent_registration() {
        let mut m = Metrics::new();
        let a = m.counter("sim.events_fired");
        let b = m.counter("sim.events_fired");
        assert_eq!(a, b);
        m.inc(a, 2);
        m.inc(b, 3);
        assert_eq!(m.counter_value("sim.events_fired"), Some(5));
        assert_eq!(m.counter_value("missing"), None);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut m = Metrics::new();
        let h = m.histogram("q.depth", &pow2_bounds(3)); // 1, 2, 4
        for v in [0.5, 1.0, 2.0, 3.0, 9.0] {
            m.observe(h, v);
        }
        let [hist] = m.histograms() else {
            panic!("one histogram registered")
        };
        assert_eq!(hist.id, "q.depth");
        assert_eq!(hist.buckets, vec![2, 1, 1]);
        assert_eq!(hist.count, 5);
        assert_eq!(hist.count - hist.buckets.iter().sum::<u64>(), 1, "overflow");
        assert!((hist.sum - 15.5).abs() < 1e-12);
    }

    #[test]
    fn gauge_raise_keeps_high_water() {
        let mut m = Metrics::new();
        let g = m.gauge("q.high_water");
        m.raise_gauge(g, 3.0);
        m.raise_gauge(g, 1.0);
        assert_eq!(m.gauge_value("q.high_water"), Some(3.0));
        m.set_gauge(g, 1.0);
        assert_eq!(m.gauge_value("q.high_water"), Some(1.0));
    }

    #[test]
    fn merge_adds_counters_and_buckets() {
        let mut a = Metrics::new();
        let c = a.counter("n");
        a.inc(c, 1);
        let h = a.histogram("lat", &[1.0, 2.0]);
        a.observe(h, 0.5);

        let mut b = Metrics::new();
        let c2 = b.counter("n");
        b.inc(c2, 4);
        let h2 = b.histogram("lat", &[1.0, 2.0]);
        b.observe(h2, 1.5);
        let g = b.gauge("v");
        b.set_gauge(g, 7.0);

        a.merge_from(&b);
        assert_eq!(a.counter_value("n"), Some(5));
        assert_eq!(a.gauge_value("v"), Some(7.0));
        let [hist] = a.histograms() else {
            panic!("one histogram registered")
        };
        assert_eq!(hist.buckets, vec![1, 1]);
        assert_eq!(hist.count, 2);
    }

    #[test]
    fn latency_bounds_shape() {
        let b = latency_bounds(1e-9, 2);
        assert_eq!(b.len(), 6);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
    }
}
