//! Order statistics for per-iteration timings.

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values`; 0 for none.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`; 0 for none.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A timing as the benchmark reports it: the median, the highest
/// percentile with at least ten samples beyond it, and the sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    /// Median over samples.
    pub median: f64,
    /// `(percentile, value)`, or `None` below 20 samples.
    pub tail: Option<(f64, f64)>,
    /// Number of samples.
    pub samples: usize,
}

/// Percentiles tried for the tail, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

impl Timing {
    /// Summarises `values`.
    pub fn of(values: &[f64]) -> Self {
        let n = values.len() as f64;
        let tail = TAIL_LADDER
            .iter()
            .find(|&&p| n * (100.0 - p) / 100.0 >= 10.0)
            .map(|&p| (p, quantile(values, p / 100.0)));
        Self {
            median: median(values),
            tail,
            samples: values.len(),
        }
    }

    /// `median 1.2 s, p90 1.4 s, n=120`.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("p{p} {v} {unit}"),
            None => "no percentile has 10 samples beyond it".to_owned(),
        };
        format!("median {} {unit}, {tail}, n={}", self.median, self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(Timing::of(&v).tail.map(|t| t.0), Some(90.0));
        let v: Vec<f64> = (0..40).map(f64::from).collect();
        assert_eq!(Timing::of(&v).tail.map(|t| t.0), Some(75.0));
        assert_eq!(Timing::of(&[1.0; 19]).tail, None);
    }
}
