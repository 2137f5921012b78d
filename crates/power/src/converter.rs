//! DC-DC conversion between the storage reservoir and the load rail.

use emc_units::{Joules, Seconds, Volts, Watts};

/// A switched DC-DC converter with a conversion-ratio-dependent
/// efficiency curve and a quiescent draw.
///
/// The paper's point (§II-B) is that holding a stable Vdd from an
/// unstable harvester *costs energy*: every joule moved to the load pays
/// the efficiency penalty, and the controller burns a quiescent power
/// even when idle. Efficiency peaks when input and output voltages are
/// close (ratio ≈ 1) and degrades towards extreme step-down/step-up
/// ratios:
///
/// ```text
/// η(r) = η_peak − k·(ln r)²,   r = v_in / v_out
/// ```
///
/// clamped to `[0.05, η_peak]`.
#[derive(Debug, Clone, PartialEq)]
pub struct DcDcConverter {
    v_out: Volts,
    eta_peak: f64,
    eta_rolloff: f64,
    quiescent: Watts,
}

impl DcDcConverter {
    /// A converter regulating to `v_out` with default efficiency
    /// (η_peak = 0.9, roll-off 0.08 per ln² of ratio) and 1 µW quiescent
    /// draw — representative of published EH power-management ICs.
    ///
    /// # Panics
    ///
    /// Panics if `v_out` is not strictly positive.
    pub fn new(v_out: Volts) -> Self {
        assert!(v_out.0 > 0.0, "output voltage must be positive");
        Self {
            v_out,
            eta_peak: 0.90,
            eta_rolloff: 0.08,
            quiescent: Watts(1e-6),
        }
    }

    /// Overrides the efficiency curve.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < eta_peak <= 1` and `eta_rolloff >= 0`.
    pub fn with_efficiency(mut self, eta_peak: f64, eta_rolloff: f64) -> Self {
        assert!(
            eta_peak > 0.0 && eta_peak <= 1.0,
            "peak efficiency out of range"
        );
        assert!(eta_rolloff >= 0.0, "negative roll-off");
        self.eta_peak = eta_peak;
        self.eta_rolloff = eta_rolloff;
        self
    }

    /// The regulated output voltage.
    pub fn v_out(&self) -> Volts {
        self.v_out
    }

    /// Re-targets the output voltage (the knob the holistic controller
    /// turns to track the minimum-energy point).
    ///
    /// # Panics
    ///
    /// Panics if `v_out` is not strictly positive.
    pub fn set_v_out(&mut self, v_out: Volts) {
        assert!(v_out.0 > 0.0, "output voltage must be positive");
        self.v_out = v_out;
    }

    /// Quiescent power.
    pub fn quiescent(&self) -> Watts {
        self.quiescent
    }

    /// Conversion efficiency when drawing from `v_in`.
    ///
    /// Zero when `v_in` is non-positive (nothing to convert from).
    pub fn efficiency(&self, v_in: Volts) -> f64 {
        if v_in.0 <= 0.0 {
            return 0.0;
        }
        let r = (v_in.0 / self.v_out.0).ln();
        (self.eta_peak - self.eta_rolloff * r * r).clamp(0.05, self.eta_peak)
    }

    /// Input energy that must be withdrawn from the reservoir to deliver
    /// `load_energy` at the output at efficiency `eta` (the
    /// [`DcDcConverter::efficiency`] at the input voltage), over an
    /// interval `dt` (the quiescent draw is added). A caller converting
    /// both ways at one input voltage computes `eta` once for both.
    ///
    /// Returns `None` if the converter cannot operate (η = 0).
    pub(crate) fn input_energy_for(
        &self,
        load_energy: Joules,
        eta: f64,
        dt: Seconds,
    ) -> Option<Joules> {
        if eta == 0.0 {
            return None;
        }
        Some(Joules(load_energy.0 / eta) + self.quiescent * dt)
    }

    /// Output energy delivered when `input_energy` is withdrawn from the
    /// reservoir at efficiency `eta` (the [`DcDcConverter::efficiency`]
    /// at the input voltage) over `dt` (quiescent draw is paid first).
    pub(crate) fn output_energy_for(&self, input_energy: Joules, eta: f64, dt: Seconds) -> Joules {
        let after_quiescent = (input_energy - self.quiescent * dt).max(Joules(0.0));
        Joules(after_quiescent.0 * eta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_peaks_at_unity_ratio() {
        let c = DcDcConverter::new(Volts(0.5));
        let at_unity = c.efficiency(Volts(0.5));
        assert!((at_unity - 0.9).abs() < 1e-12);
        assert!(c.efficiency(Volts(1.5)) < at_unity);
        assert!(c.efficiency(Volts(0.1)) < at_unity);
        assert_eq!(c.efficiency(Volts(0.0)), 0.0);
    }

    #[test]
    fn efficiency_never_below_floor() {
        let c = DcDcConverter::new(Volts(0.5)).with_efficiency(0.9, 10.0);
        assert!((c.efficiency(Volts(5.0)) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn energy_round_trip_is_consistent() {
        let c = DcDcConverter::new(Volts(0.5));
        let dt = Seconds(1e-3);
        let load = Joules(10e-6);
        let eta = c.efficiency(Volts(0.8));
        let input = c.input_energy_for(load, eta, dt).unwrap();
        let back = c.output_energy_for(input, eta, dt);
        assert!((back.0 - load.0).abs() < 1e-12, "got {back}");
    }

    #[test]
    fn quiescent_draw_is_paid_even_for_zero_load() {
        let c = DcDcConverter::new(Volts(0.5));
        let eta = c.efficiency(Volts(0.5));
        let input = c.input_energy_for(Joules(0.0), eta, Seconds(1.0)).unwrap();
        assert!((input.0 - 1e-6).abs() < 1e-12);
        assert_eq!(
            c.output_energy_for(Joules(0.5e-6), eta, Seconds(1.0)).0,
            0.0
        );
    }

    #[test]
    fn dead_input_yields_none() {
        let c = DcDcConverter::new(Volts(0.5));
        let eta = c.efficiency(Volts(0.0));
        assert!(c
            .input_energy_for(Joules(1e-6), eta, Seconds(1.0))
            .is_none());
    }

    #[test]
    fn set_v_out_moves_the_peak() {
        let mut c = DcDcConverter::new(Volts(0.5));
        c.set_v_out(Volts(1.0));
        assert_eq!(c.v_out(), Volts(1.0));
        assert!(c.efficiency(Volts(1.0)) > c.efficiency(Volts(0.4)));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_v_out_panics() {
        let _ = DcDcConverter::new(Volts(0.0));
    }
}
