//! Stochastic analysis of power, latency and the degree of concurrency
//! (\[12\] in the paper).
//!
//! The system is modelled as a birth-death continuous-time Markov chain:
//! jobs arrive at rate `λ`, up to `K` execute concurrently at rate `μ`
//! each, and at most `N` are admitted (arrivals to a full station are
//! lost). The closed-form steady state yields mean latency (via
//! Little's law), mean power (active servers burn `p_active`, the
//! station idles at `p_base`) and throughput — the latency/power
//! trade-off against the degree of concurrency `K` that the paper's
//! companion work charts.

/// One evaluated operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConcurrencyPoint {
    /// Degree of concurrency evaluated.
    pub k: usize,
    /// Mean sojourn time of an accepted job (seconds, with `μ` in 1/s).
    pub mean_latency: f64,
    /// Mean power in units of `p_active` (plus the `p_base` offset).
    pub mean_power: f64,
    /// Accepted-job throughput (jobs/s).
    pub throughput: f64,
    /// Loss probability (arrival finds the buffer full).
    pub loss_probability: f64,
    /// Energy per job: mean power / throughput.
    pub energy_per_job: f64,
}

/// The M/M/K/N station with power accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ConcurrencyModel {
    lambda: f64,
    mu: f64,
    buffer: usize,
    p_base: f64,
    p_active: f64,
}

impl ConcurrencyModel {
    /// A station with arrival rate `lambda`, per-server service rate
    /// `mu` and admission limit `buffer` (total jobs in the system).
    /// Power defaults: `p_base = 0.1`, `p_active = 1.0` (normalised).
    ///
    /// # Panics
    ///
    /// Panics if any rate is not strictly positive or `buffer == 0`.
    pub fn new(lambda: f64, mu: f64, buffer: usize) -> Self {
        assert!(lambda > 0.0 && mu > 0.0, "rates must be positive");
        assert!(buffer > 0, "buffer must be positive");
        Self {
            lambda,
            mu,
            buffer,
            p_base: 0.1,
            p_active: 1.0,
        }
    }

    /// Overrides the power coefficients.
    ///
    /// # Panics
    ///
    /// Panics if either is negative.
    pub fn with_power(mut self, p_base: f64, p_active: f64) -> Self {
        assert!(p_base >= 0.0 && p_active >= 0.0, "negative power");
        self.p_base = p_base;
        self.p_active = p_active;
        self
    }

    /// Steady-state probabilities `p_0..=p_N` for concurrency `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub(crate) fn steady_state(&self, k: usize) -> Vec<f64> {
        assert!(k > 0, "concurrency must be positive");
        let n = self.buffer;
        // Unnormalised products of birth/death ratios.
        let mut pi = Vec::with_capacity(n + 1);
        pi.push(1.0_f64);
        for i in 1..=n {
            let death = (i.min(k)) as f64 * self.mu;
            let prev = pi[i - 1];
            pi.push(prev * self.lambda / death);
        }
        let z: f64 = pi.iter().sum();
        pi.iter_mut().for_each(|p| *p /= z);
        pi
    }

    /// Evaluates the operating point at concurrency `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn evaluate(&self, k: usize) -> ConcurrencyPoint {
        let pi = self.steady_state(k);
        let n = self.buffer;
        let loss = pi[n];
        let throughput = self.lambda * (1.0 - loss);
        let mean_jobs: f64 = pi.iter().enumerate().map(|(i, p)| i as f64 * p).sum();
        let mean_busy: f64 = pi
            .iter()
            .enumerate()
            .map(|(i, p)| i.min(k) as f64 * p)
            .sum();
        let mean_latency = if throughput > 0.0 {
            mean_jobs / throughput
        } else {
            f64::INFINITY
        };
        let mean_power = self.p_base + self.p_active * mean_busy;
        ConcurrencyPoint {
            k,
            mean_latency,
            mean_power,
            throughput,
            loss_probability: loss,
            energy_per_job: if throughput > 0.0 {
                mean_power / throughput
            } else {
                f64::INFINITY
            },
        }
    }

    /// Sweeps concurrency `1..=k_max` — the data for the
    /// latency-power-concurrency chart.
    ///
    /// # Panics
    ///
    /// Panics if `k_max == 0`.
    pub fn sweep(&self, k_max: usize) -> Vec<ConcurrencyPoint> {
        assert!(k_max > 0, "need at least one concurrency level");
        (1..=k_max).map(|k| self.evaluate(k)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probabilities_sum_to_one() {
        let m = ConcurrencyModel::new(3.0, 1.0, 20);
        for k in [1, 2, 4, 8] {
            let pi = m.steady_state(k);
            let s: f64 = pi.iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
            assert!(pi.iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn matches_mm1_closed_form() {
        // K = 1 with a large buffer approximates M/M/1: E[n] = ρ/(1−ρ).
        let m = ConcurrencyModel::new(0.5, 1.0, 200);
        let point = m.evaluate(1);
        let rho: f64 = 0.5;
        let expect_jobs = rho / (1.0 - rho);
        let expect_latency = expect_jobs / 0.5;
        assert!(
            (point.mean_latency - expect_latency).abs() < 1e-6,
            "latency {} vs M/M/1 {expect_latency}",
            point.mean_latency
        );
    }

    #[test]
    fn latency_falls_power_rises_with_concurrency() {
        let m = ConcurrencyModel::new(8.0, 1.0, 32);
        let sweep = m.sweep(12);
        for w in sweep.windows(2) {
            assert!(
                w[1].mean_latency <= w[0].mean_latency + 1e-12,
                "latency must not rise with k: {w:?}"
            );
        }
        assert!(sweep[11].mean_power > sweep[0].mean_power);
    }

    #[test]
    fn diminishing_returns_knee() {
        // Once k exceeds the offered load, extra concurrency buys almost
        // nothing: the latency gain from k = 9 → 12 is a tiny fraction of
        // the gain from k = 1 → 4.
        let m = ConcurrencyModel::new(8.0, 1.0, 32);
        let s = m.sweep(12);
        let early_gain = s[0].mean_latency - s[3].mean_latency;
        let late_gain = s[8].mean_latency - s[11].mean_latency;
        assert!(
            late_gain < 0.05 * early_gain,
            "early {early_gain} vs late {late_gain}"
        );
    }

    #[test]
    fn loss_probability_decreases_with_concurrency() {
        let m = ConcurrencyModel::new(8.0, 1.0, 16);
        let p1 = m.evaluate(1).loss_probability;
        let p8 = m.evaluate(8).loss_probability;
        assert!(p8 < p1);
        assert!(m.evaluate(8).throughput > m.evaluate(1).throughput);
    }

    #[test]
    fn energy_per_job_reflects_base_power_amortisation() {
        // With a high base power, low concurrency (low throughput) wastes
        // base energy: energy/job improves with k.
        let m = ConcurrencyModel::new(8.0, 1.0, 32).with_power(5.0, 1.0);
        let e1 = m.evaluate(1).energy_per_job;
        let e8 = m.evaluate(8).energy_per_job;
        assert!(e8 < e1, "e8 {e8} vs e1 {e1}");
    }

    #[test]
    #[should_panic(expected = "concurrency must be positive")]
    fn zero_k_panics() {
        let m = ConcurrencyModel::new(1.0, 1.0, 4);
        let _ = m.evaluate(0);
    }
}
