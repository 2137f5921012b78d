//! Energy-proportional computing (paper Fig. 1): useful activity versus
//! supplied energy.

use emc_sensors::ChargeToDigitalConverter;
use emc_units::{Farads, Joules, Volts};

/// Activity-versus-energy curves for the proportional and conventional
/// systems.
///
/// * The **energy-proportional** system is the charge-to-digital
///   converter itself: hand it *any* quantum of energy (as charge on its
///   sampling capacitor) and it performs a proportionate amount of
///   computation — "some useful activity can even be generated at small
///   amounts of energy".
/// * The **conventional** system stands for a clocked design behind a
///   regulator: a fixed overhead (clock tree, regulator quiescent, bias)
///   must be paid before *any* useful activity appears, after which
///   activity grows linearly.
#[derive(Debug, Clone)]
pub struct ActivityCurve {
    converter: ChargeToDigitalConverter,
    overhead: Joules,
    ops_per_joule_nominal: f64,
}

impl ActivityCurve {
    /// A curve with the given conventional-system overhead per activation
    /// window and its ops/J at nominal supply.
    ///
    /// # Panics
    ///
    /// Panics if the overhead is negative or the rate not strictly
    /// positive.
    pub fn new(overhead: Joules, ops_per_joule_nominal: f64) -> Self {
        assert!(overhead.0 >= 0.0, "negative overhead");
        assert!(ops_per_joule_nominal > 0.0, "rate must be positive");
        Self {
            converter: ChargeToDigitalConverter::new(Farads(10e-12), 14),
            overhead,
            ops_per_joule_nominal,
        }
    }

    /// Defaults representative of a small clocked subsystem at matching
    /// scale: 2 pJ standing cost per activation window (clock tree +
    /// regulator bias) and ≈600 count-events per pJ once running —
    /// cheaper *at the margin* than the self-timed converter (an
    /// optimised nominal-voltage datapath), which is exactly the Fig. 1
    /// trade-off: dead below the overhead, steeper above it.
    pub fn new_default() -> Self {
        Self::new(Joules(2e-12), 6e14)
    }

    /// Activity (count events) of the energy-proportional system when
    /// given `energy`, delivered as charge on the converter's capacitor.
    ///
    /// # Panics
    ///
    /// Panics if `energy` is negative.
    pub(crate) fn proportional_activity(&self, energy: Joules) -> u64 {
        assert!(energy.0 >= 0.0, "negative energy");
        // E = C·V²/2 ⇒ the voltage this quantum charges the cap to; the
        // sample switch clamps at 1.2 V (overvoltage protection), so
        // quanta beyond the capacitor's rating are partially discarded.
        let v = (2.0 * energy.0 / self.converter.c_sample().0)
            .sqrt()
            .min(1.2);
        self.converter.convert(Volts(v)).code
    }

    /// Activity of the conventional system for the same quantum: zero
    /// until the overhead is paid, then linear.
    pub(crate) fn conventional_activity(&self, energy: Joules) -> u64 {
        assert!(energy.0 >= 0.0, "negative energy");
        let net = energy.0 - self.overhead.0;
        if net <= 0.0 {
            0
        } else {
            (net * self.ops_per_joule_nominal) as u64
        }
    }

    /// Sweeps both systems over `n` energy quanta in `[0, e_max]` —
    /// the Fig. 1 series. Returns `(energy, proportional, conventional)`
    /// triples.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `e_max` is not strictly positive.
    pub fn sweep(&self, e_max: Joules, n: usize) -> Vec<(Joules, u64, u64)> {
        assert!(n >= 2 && e_max.0 > 0.0, "bad sweep");
        (0..n)
            .map(|i| {
                let e = Joules(e_max.0 * i as f64 / (n - 1) as f64);
                (
                    e,
                    self.proportional_activity(e),
                    self.conventional_activity(e),
                )
            })
            .collect()
    }
}

impl Default for ActivityCurve {
    fn default() -> Self {
        Self::new_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_quanta_produce_activity_only_in_the_proportional_system() {
        let c = ActivityCurve::new_default();
        let tiny = Joules(0.5e-12); // below the conventional overhead
        assert!(c.proportional_activity(tiny) > 0);
        assert_eq!(c.conventional_activity(tiny), 0);
    }

    #[test]
    fn conventional_wins_eventually() {
        // Past the overhead the conventional (nominal-voltage, optimised)
        // system's linear slope overtakes the converter's log-like curve.
        let c = ActivityCurve::new_default();
        let big = Joules(5e-12);
        assert!(c.conventional_activity(big) > c.proportional_activity(big));
    }

    #[test]
    fn proportional_activity_monotone() {
        let c = ActivityCurve::new_default();
        let sweep = c.sweep(Joules(5e-12), 9);
        for w in sweep.windows(2) {
            assert!(w[1].1 >= w[0].1, "proportional not monotone: {w:?}");
            assert!(w[1].2 >= w[0].2, "conventional not monotone: {w:?}");
        }
    }

    #[test]
    fn zero_energy_zero_activity() {
        let c = ActivityCurve::new_default();
        assert_eq!(c.proportional_activity(Joules(0.0)), 0);
        assert_eq!(c.conventional_activity(Joules(0.0)), 0);
    }

    #[test]
    fn sweep_includes_endpoints() {
        let c = ActivityCurve::new_default();
        let s = c.sweep(Joules(1e-12), 5);
        assert_eq!(s.len(), 5);
        assert_eq!(s[0].0, Joules(0.0));
        assert_eq!(s[4].0, Joules(1e-12));
    }
}
