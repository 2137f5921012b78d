//! Maximum-power-point tracking.

use emc_units::Watts;

/// The classic perturb-and-observe MPPT controller.
///
/// Each [`PerturbObserve::observe`] call nudges the operating point by the
/// current step size, observes the resulting power, and keeps the
/// direction if power improved (reversing otherwise). The step size
/// shrinks geometrically once the tracker starts oscillating around the
/// peak, giving fast acquisition and a small limit cycle.
///
/// # Examples
///
/// Track a solar cell's maximum-power point:
///
/// ```
/// use emc_power::{PerturbObserve, SolarCell};
/// use emc_units::Seconds;
///
/// let cell = SolarCell::new(0.6, 1e-3);
/// let mut mppt = PerturbObserve::new(0.3, 0.02, (0.0, 0.6));
/// for _ in 0..100 {
///     let v = mppt.operating_point();
///     let p = cell.power(Seconds(0.0), v);
///     mppt.observe(p);
/// }
/// // The single-diode MPP sits a bit below v_oc.
/// assert!(mppt.operating_point() > 0.35 && mppt.operating_point() < 0.59);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PerturbObserve {
    point: f64,
    step: f64,
    min_step: f64,
    bounds: (f64, f64),
    direction: f64,
    last_power: Option<Watts>,
    reversals: u32,
}

impl PerturbObserve {
    /// A tracker starting at `initial` with perturbation `step`, confined
    /// to `bounds`.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not strictly positive, the bounds are
    /// inverted, or `initial` lies outside them.
    pub fn new(initial: f64, step: f64, bounds: (f64, f64)) -> Self {
        assert!(step > 0.0, "perturbation step must be positive");
        assert!(bounds.0 < bounds.1, "inverted bounds");
        assert!(
            (bounds.0..=bounds.1).contains(&initial),
            "initial point outside bounds"
        );
        Self {
            point: initial,
            step,
            min_step: step / 64.0,
            bounds,
            direction: 1.0,
            last_power: None,
            reversals: 0,
        }
    }

    /// The operating point the plant should be driven at right now.
    pub fn operating_point(&self) -> f64 {
        self.point
    }

    /// Feeds back the power measured at the current operating point and
    /// perturbs for the next measurement.
    pub fn observe(&mut self, power: Watts) {
        if let Some(last) = self.last_power {
            if power < last {
                self.direction = -self.direction;
                self.reversals += 1;
                // After a couple of reversals we are straddling the peak:
                // tighten the limit cycle.
                if self.reversals >= 2 && self.step > self.min_step {
                    self.step *= 0.5;
                    self.reversals = 0;
                }
            }
        }
        self.last_power = Some(power);
        self.point = (self.point + self.direction * self.step).clamp(self.bounds.0, self.bounds.1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harvester::VibrationHarvester;
    use emc_units::{Hertz, Seconds};

    #[test]
    fn tracks_vibration_resonance() {
        let h = VibrationHarvester::new(Hertz(120.0), Watts(100e-6), 10.0);
        let mut mppt = PerturbObserve::new(90.0, 4.0, (50.0, 200.0));
        for _ in 0..200 {
            let f = Hertz(mppt.operating_point());
            mppt.observe(h.power(Seconds(0.0), f));
        }
        let found = mppt.operating_point();
        assert!(
            (found - 120.0).abs() < 3.0,
            "converged to {found} Hz instead of 120 Hz"
        );
        // Power at the found point is within a few percent of peak.
        let p = h.power(Seconds(0.0), Hertz(found)).0;
        assert!(p > 0.95 * 100e-6, "p = {p}");
    }

    #[test]
    fn step_size_shrinks_near_peak() {
        let h = VibrationHarvester::new(Hertz(120.0), Watts(100e-6), 10.0);
        let mut mppt = PerturbObserve::new(118.0, 4.0, (50.0, 200.0));
        for _ in 0..100 {
            let f = Hertz(mppt.operating_point());
            mppt.observe(h.power(Seconds(0.0), f));
        }
        // The next perturbation moves by less than the initial step.
        let before = mppt.operating_point();
        mppt.observe(h.power(Seconds(0.0), Hertz(before)));
        assert!((mppt.operating_point() - before).abs() < 4.0);
    }

    #[test]
    fn respects_bounds() {
        let mut mppt = PerturbObserve::new(0.95, 0.2, (0.0, 1.0));
        // Monotonically increasing objective pushes towards the bound.
        for i in 0..50 {
            mppt.observe(Watts(i as f64));
        }
        assert!(mppt.operating_point() <= 1.0);
    }

    #[test]
    #[should_panic(expected = "outside bounds")]
    fn initial_outside_bounds_panics() {
        let _ = PerturbObserve::new(2.0, 0.1, (0.0, 1.0));
    }
}
