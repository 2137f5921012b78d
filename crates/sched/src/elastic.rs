//! Power-elastic concurrency control (\[11\]): choose the degree of
//! concurrency that maximises service *within the currently available
//! power* — task-level power adaptation, the system-side twin of
//! voltage adaptation.

use crate::stochastic::{ConcurrencyModel, ConcurrencyPoint};

/// A controller that picks the operating concurrency from the CTMC
/// model's curves, subject to a power ceiling.
#[derive(Debug, Clone, PartialEq)]
pub struct ConcurrencyController {
    model: ConcurrencyModel,
    /// Pre-evaluated operating points for k = 1..=k_max.
    points: Vec<ConcurrencyPoint>,
}

impl ConcurrencyController {
    /// A controller over `model` considering concurrency up to `k_max`.
    ///
    /// # Panics
    ///
    /// Panics if `k_max == 0`.
    pub fn new(model: ConcurrencyModel, k_max: usize) -> Self {
        assert!(k_max > 0, "need at least one concurrency level");
        let points = model.sweep(k_max);
        Self { model, points }
    }

    /// The evaluated operating points.
    pub fn points(&self) -> &[ConcurrencyPoint] {
        &self.points
    }

    /// The concurrency that delivers (within 0.1 %) the best throughput
    /// affordable at `power_budget`, preferring the smallest such `k` —
    /// past the knee, extra servers buy vanishing throughput for real
    /// power. Returns `None` if even `k = 1` exceeds the budget (the
    /// system must power-gate instead).
    pub fn best_k_under_power(&self, power_budget: f64) -> Option<usize> {
        let affordable: Vec<&ConcurrencyPoint> = self
            .points
            .iter()
            .filter(|p| p.mean_power <= power_budget)
            .collect();
        let best = affordable
            .iter()
            .map(|p| p.throughput)
            .fold(f64::NEG_INFINITY, f64::max);
        affordable
            .iter()
            .find(|p| p.throughput >= best * 0.999)
            .map(|p| p.k)
    }

    /// Follows a power profile: for each budget sample, the chosen k
    /// (0 = gated off). This is the "task concurrency control" loop of
    /// the paper's power-elastic systems reference.
    pub fn track(&self, budgets: &[f64]) -> Vec<usize> {
        budgets
            .iter()
            .map(|&b| self.best_k_under_power(b).unwrap_or(0))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl() -> ConcurrencyController {
        // λ = 8, µ = 1: the knee sits at k ≈ 8. Power = 0.5 + busy.
        ConcurrencyController::new(ConcurrencyModel::new(8.0, 1.0, 32).with_power(0.5, 1.0), 16)
    }

    #[test]
    fn generous_budget_lands_at_the_knee() {
        let c = ctl();
        let k = c.best_k_under_power(100.0).unwrap();
        // Beyond the knee extra servers add power but no throughput: the
        // tie-break keeps k near λ/µ.
        assert!((8..=11).contains(&k), "k = {k}");
    }

    #[test]
    fn tight_budget_throttles_concurrency() {
        let c = ctl();
        let k_tight = c.best_k_under_power(2.0).unwrap();
        let k_loose = c.best_k_under_power(6.0).unwrap();
        assert!(k_tight < k_loose, "{k_tight} vs {k_loose}");
        // Budget below even one busy server: gate off.
        assert_eq!(c.best_k_under_power(0.4), None);
    }

    #[test]
    fn chosen_k_respects_the_ceiling() {
        let c = ctl();
        for budget in [1.0, 2.0, 3.5, 5.0, 8.0, 20.0] {
            if let Some(k) = c.best_k_under_power(budget) {
                let p = &c.points()[k - 1];
                assert!(p.mean_power <= budget, "k {k} over budget {budget}");
            }
        }
    }

    #[test]
    fn selection_monotone_in_budget() {
        let c = ctl();
        let mut last = 0;
        for budget in [0.6, 1.5, 2.5, 4.0, 6.0, 9.0, 15.0] {
            let k = c.best_k_under_power(budget).unwrap_or(0);
            assert!(k >= last, "k dropped from {last} to {k} at {budget}");
            last = k;
        }
    }

    #[test]
    fn track_follows_a_harvest_profile() {
        let c = ctl();
        let profile = [0.3, 1.2, 3.0, 9.0, 3.0, 1.2, 0.3];
        let ks = c.track(&profile);
        assert_eq!(ks.len(), profile.len());
        assert_eq!(ks[0], 0, "starved start gates off");
        let peak = *ks.iter().max().unwrap();
        assert!(peak >= 6, "peak budget should buy high concurrency");
        // Symmetric profile, symmetric plan.
        assert_eq!(ks[1], ks[5]);
        assert_eq!(ks[2], ks[4]);
    }

    #[test]
    #[should_panic(expected = "at least one concurrency level")]
    fn zero_kmax_panics() {
        let _ = ConcurrencyController::new(ConcurrencyModel::new(1.0, 1.0, 4), 0);
    }
}
