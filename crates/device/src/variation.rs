//! Seeded Monte-Carlo process variation.
//!
//! The SRAM failure analysis (\[8\] in the paper) asks how the
//! speed-independent design degrades across random threshold-voltage
//! variation — the dominant variability mechanism in sub-threshold, where
//! current depends exponentially on Vt. This module samples per-device Vt
//! offsets from a normal distribution and derives perturbed
//! [`DeviceModel`]s and per-gate delay multipliers.
//!
//! All sampling is driven by a caller-provided [`emc_prng::Rng`], so every
//! experiment is reproducible from its seed.

use emc_prng::Rng;
use emc_units::Volts;

use crate::model::DeviceModel;
use crate::params::ProcessParams;

/// Normal(0, σ) threshold-voltage variation.
///
/// # Examples
///
/// ```
/// use emc_device::{DeviceModel, VariationModel};
/// use emc_prng::{Rng, StdRng};
///
/// let var = VariationModel::new(0.02); // σ(Vt) = 20 mV
/// let mut rng = StdRng::seed_from_u64(7);
/// let perturbed = var.perturbed_model(&DeviceModel::umc90(), &mut rng);
/// assert!(perturbed.params().vt.0 != DeviceModel::umc90().params().vt.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationModel {
    sigma_vt: Volts,
}

impl VariationModel {
    /// Creates a variation model with the given Vt standard deviation in
    /// volts.
    ///
    /// # Panics
    ///
    /// Panics if `sigma_vt` is negative or non-finite.
    pub fn new(sigma_vt: f64) -> Self {
        assert!(
            sigma_vt.is_finite() && sigma_vt >= 0.0,
            "sigma must be a non-negative finite voltage"
        );
        Self {
            sigma_vt: Volts(sigma_vt),
        }
    }

    /// Draws one Vt offset ~ Normal(0, σ) using the Box–Muller transform.
    pub(crate) fn sample_vt_offset<R: Rng + ?Sized>(&self, rng: &mut R) -> Volts {
        // Box–Muller: u1 ∈ (0, 1] avoids ln(0).
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos();
        Volts(self.sigma_vt.0 * z)
    }

    /// Returns a copy of `base` whose threshold has been perturbed by one
    /// sampled offset — a "random die".
    pub fn perturbed_model<R: Rng + ?Sized>(&self, base: &DeviceModel, rng: &mut R) -> DeviceModel {
        let offset = self.sample_vt_offset(rng);
        let params = ProcessParams {
            vt: base.params().vt + offset,
            ..base.params().clone()
        };
        DeviceModel::new(params)
    }

    /// Per-gate delay multiplier at supply `vdd` induced by one sampled Vt
    /// offset: the ratio of the perturbed gate's delay to the nominal one.
    ///
    /// In sub-threshold this is approximately log-normal — small σ(Vt)
    /// produces large delay spread, which is why the paper insists on
    /// completion detection rather than margined delay lines.
    pub fn delay_multiplier<R: Rng + ?Sized>(
        &self,
        base: &DeviceModel,
        vdd: Volts,
        rng: &mut R,
    ) -> f64 {
        let offset = self.sample_vt_offset(rng);
        let nominal = base.on_current(vdd).0;
        let perturbed = base
            .on_current_with_vt(vdd, Volts(base.params().vt.0 + offset.0))
            .0;
        nominal / perturbed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emc_prng::StdRng;

    fn offsets(var: VariationModel, n: usize, rng: &mut StdRng) -> Vec<Volts> {
        (0..n).map(|_| var.sample_vt_offset(rng)).collect()
    }

    #[test]
    fn sampling_is_reproducible_from_seed() {
        let var = VariationModel::new(0.03);
        let a = offsets(var, 16, &mut StdRng::seed_from_u64(42));
        let b = offsets(var, 16, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }

    #[test]
    fn sample_statistics_match_sigma() {
        let var = VariationModel::new(0.02);
        let mut rng = StdRng::seed_from_u64(1);
        let samples = offsets(var, 20_000, &mut rng);
        let mean: f64 = samples.iter().map(|v| v.0).sum::<f64>() / samples.len() as f64;
        let var_est: f64 = samples
            .iter()
            .map(|v| (v.0 - mean) * (v.0 - mean))
            .sum::<f64>()
            / samples.len() as f64;
        assert!(mean.abs() < 1e-3, "mean {mean}");
        assert!((var_est.sqrt() - 0.02).abs() < 1e-3, "σ {}", var_est.sqrt());
    }

    #[test]
    fn zero_sigma_is_deterministic() {
        let var = VariationModel::new(0.0);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(var.sample_vt_offset(&mut rng), Volts(0.0));
        let m = var.perturbed_model(&DeviceModel::umc90(), &mut rng);
        assert_eq!(m.params().vt, DeviceModel::umc90().params().vt);
        assert!(
            (var.delay_multiplier(&DeviceModel::umc90(), Volts(0.3), &mut rng) - 1.0).abs() < 1e-12
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_sigma_panics() {
        let _ = VariationModel::new(-0.01);
    }

    #[test]
    fn subthreshold_delay_spread_exceeds_nominal_spread() {
        let var = VariationModel::new(0.03);
        let base = DeviceModel::umc90();
        let spread = |vdd: f64, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut lo = f64::INFINITY;
            let mut hi = 0.0_f64;
            for _ in 0..500 {
                let m = var.delay_multiplier(&base, Volts(vdd), &mut rng);
                lo = lo.min(m);
                hi = hi.max(m);
            }
            hi / lo
        };
        let sub = spread(0.2, 9);
        let nom = spread(1.0, 9);
        assert!(
            sub > 4.0 * nom,
            "sub-threshold spread {sub} vs nominal {nom}"
        );
    }

    #[test]
    fn perturbed_models_differ_across_draws() {
        let var = VariationModel::new(0.02);
        let mut rng = StdRng::seed_from_u64(5);
        let base = DeviceModel::umc90();
        let a = var.perturbed_model(&base, &mut rng);
        let b = var.perturbed_model(&base, &mut rng);
        assert_ne!(a.params().vt, b.params().vt);
    }
}
