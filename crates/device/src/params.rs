//! Technology constants, process corners and temperature.

use emc_units::{Farads, Kelvin, Volts};

/// Boltzmann constant over elementary charge, in volts per kelvin; the
/// thermal voltage is `φt = (k/q)·T`.
pub(crate) const BOLTZMANN_OVER_Q: f64 = 8.617_333e-5;

/// Process corner of a CMOS die.
///
/// Corners shift the threshold voltage and drive strength of a die in a
/// correlated way; the self-timed SRAM's corner analysis (\[8\] in the paper)
/// sweeps all five.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProcessCorner {
    /// Typical NMOS / typical PMOS — the calibration reference.
    #[default]
    Typical,
    /// Fast NMOS / fast PMOS: lower Vt, stronger drive, more leakage.
    FastFast,
    /// Slow NMOS / slow PMOS: higher Vt, weaker drive, less leakage.
    SlowSlow,
    /// Fast NMOS / slow PMOS: skewed — worst for ratioed structures.
    FastSlow,
    /// Slow NMOS / fast PMOS: the opposite skew.
    SlowFast,
}

impl ProcessCorner {
    /// All five corners, in the order usually reported.
    pub const ALL: [ProcessCorner; 5] = [
        ProcessCorner::Typical,
        ProcessCorner::FastFast,
        ProcessCorner::SlowSlow,
        ProcessCorner::FastSlow,
        ProcessCorner::SlowFast,
    ];

    /// Threshold-voltage shift applied by this corner.
    ///
    /// Skewed corners move Vt by half the full-corner shift: a logic path
    /// exercises both device types, so its effective threshold sits between
    /// the two skews.
    pub(crate) fn vt_shift(self) -> Volts {
        match self {
            ProcessCorner::Typical => Volts(0.0),
            ProcessCorner::FastFast => Volts(-0.035),
            ProcessCorner::SlowSlow => Volts(0.035),
            ProcessCorner::FastSlow => Volts(-0.015),
            ProcessCorner::SlowFast => Volts(0.015),
        }
    }

    /// Multiplier on the specific (drive) current.
    pub(crate) fn drive_factor(self) -> f64 {
        match self {
            ProcessCorner::Typical => 1.0,
            ProcessCorner::FastFast => 1.15,
            ProcessCorner::SlowSlow => 0.87,
            ProcessCorner::FastSlow => 1.05,
            ProcessCorner::SlowFast => 0.95,
        }
    }

    /// Short mnemonic ("TT", "FF", …) used in reports.
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            ProcessCorner::Typical => "TT",
            ProcessCorner::FastFast => "FF",
            ProcessCorner::SlowSlow => "SS",
            ProcessCorner::FastSlow => "FS",
            ProcessCorner::SlowFast => "SF",
        }
    }
}

impl core::fmt::Display for ProcessCorner {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Technology constants for one device flavour at one corner and
/// temperature.
///
/// The defaults ([`ProcessParams::umc90`]) are representative of the
/// UMC 90 nm low-power process the paper's circuits were designed in:
/// Vt ≈ 0.35 V, sub-threshold slope factor n ≈ 1.4 (≈ 100 mV/decade at
/// 300 K), and gate capacitances of a few femtofarads.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessParams {
    /// Threshold voltage at the chosen corner and temperature.
    pub vt: Volts,
    /// Sub-threshold slope factor `n` (dimensionless, 1.0 is the
    /// theoretical ideal; bulk 90 nm sits near 1.4).
    pub(crate) slope_factor: f64,
    /// Specific current `Is`: the drain current scale of a unit-strength
    /// transistor at the moderate-inversion knee, in amps.
    pub(crate) specific_current_a: f64,
    /// Delay fit constant `kd` mapping `C·V/I` onto an inverter
    /// propagation delay (dimensionless, absorbs logical effort and slope
    /// effects).
    pub(crate) delay_fit: f64,
    /// Input (gate) capacitance of a unit inverter, in farads.
    pub gate_cap: Farads,
    /// Parasitic output capacitance of a unit inverter, in farads.
    pub drain_cap: Farads,
    /// Off-state leakage current of a unit inverter at Vdd = 1 V, in amps.
    pub(crate) leak_at_nominal_a: f64,
    /// DIBL coefficient: leakage scales as `e^(η·(V−1V)/φt)`.
    pub(crate) dibl: f64,
    /// Junction temperature.
    pub(crate) temperature: Kelvin,
    /// Supply floor below which a static CMOS gate no longer switches
    /// reliably (state elements lose noise margin). The paper's circuits
    /// operate down to 0.2 V; below ≈ 0.1 V nothing computes.
    pub v_floor: Volts,
}

impl ProcessParams {
    /// Parameters representative of the UMC 90 nm low-power process at the
    /// typical corner and 300 K.
    pub fn umc90() -> Self {
        Self {
            vt: Volts(0.35),
            slope_factor: 1.4,
            // Chosen with `delay_fit` so a unit inverter driving one
            // identical inverter has t_pd ≈ 16 ps at Vdd = 1 V.
            specific_current_a: 1.2e-6,
            delay_fit: 0.6,
            gate_cap: Farads(1.5e-15),
            drain_cap: Farads(1.0e-15),
            leak_at_nominal_a: 5.0e-10,
            dibl: 0.08,
            temperature: Kelvin(300.0),
            v_floor: Volts(0.10),
        }
    }

    /// Returns a copy of these parameters moved to `corner`.
    pub fn at_corner(&self, corner: ProcessCorner) -> Self {
        Self {
            vt: self.vt + corner.vt_shift(),
            specific_current_a: self.specific_current_a * corner.drive_factor(),
            ..self.clone()
        }
    }

    /// Returns a copy of these parameters at junction temperature `t`.
    ///
    /// Temperature raises the thermal voltage (through `Self::thermal_voltage`)
    /// and lowers Vt by ≈ 1 mV/K — the standard first-order behaviour, which
    /// makes sub-threshold circuits *faster* when hot.
    pub fn at_temperature(&self, t: Kelvin) -> Self {
        let dt = t.0 - self.temperature.0;
        Self {
            vt: Volts(self.vt.0 - 1.0e-3 * dt),
            temperature: t,
            ..self.clone()
        }
    }

    /// Returns a copy of these parameters under a body bias — the
    /// leakage-control knob the paper lists among low-level adaptation
    /// mechanisms ("it is also possible to use leakage control mechanisms
    /// such as body biasing").
    ///
    /// Positive `bias` is **forward** body bias: the threshold drops by
    /// `k_body·bias` (faster, leakier). Negative is **reverse** bias:
    /// the threshold rises (slower, exponentially less leaky). The
    /// off-state leakage reference scales by the sub-threshold slope,
    /// `exp(−ΔVt/(n·φt))`, keeping the two effects consistent.
    ///
    /// # Panics
    ///
    /// Panics if `|bias|` exceeds 0.5 V (junction-forward limit).
    pub fn at_body_bias(&self, bias: Volts) -> Self {
        assert!(bias.0.abs() <= 0.5, "body bias beyond the junction limit");
        // Body-effect coefficient of a bulk 90 nm process.
        let k_body = 0.20;
        let delta_vt = -k_body * bias.0;
        let phi_t = self.thermal_voltage().0;
        let leak_scale = (-delta_vt / (self.slope_factor * phi_t)).exp();
        Self {
            vt: Volts(self.vt.0 + delta_vt),
            leak_at_nominal_a: self.leak_at_nominal_a * leak_scale,
            ..self.clone()
        }
    }

    /// Thermal voltage `φt = kT/q` at the configured temperature
    /// (≈ 25.9 mV at 300 K).
    pub(crate) fn thermal_voltage(&self) -> Volts {
        Volts(BOLTZMANN_OVER_Q * self.temperature.0)
    }
}

impl Default for ProcessParams {
    fn default() -> Self {
        Self::umc90()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thermal_voltage_at_room_temperature() {
        let p = ProcessParams::umc90();
        assert!((p.thermal_voltage().0 - 0.02585).abs() < 3e-4);
    }

    #[test]
    fn corners_shift_vt_symmetrically() {
        let p = ProcessParams::umc90();
        let ff = p.at_corner(ProcessCorner::FastFast);
        let ss = p.at_corner(ProcessCorner::SlowSlow);
        assert!(ff.vt < p.vt && p.vt < ss.vt);
        assert!(((p.vt.0 - ff.vt.0) - (ss.vt.0 - p.vt.0)).abs() < 1e-12);
        assert!(ff.specific_current_a > ss.specific_current_a);
    }

    #[test]
    fn typical_corner_is_identity() {
        let p = ProcessParams::umc90();
        assert_eq!(p.at_corner(ProcessCorner::Typical), p);
    }

    #[test]
    fn all_corners_have_unique_mnemonics() {
        let mut seen = std::collections::HashSet::new();
        for c in ProcessCorner::ALL {
            assert!(seen.insert(c.mnemonic()));
            assert_eq!(c.to_string(), c.mnemonic());
        }
    }

    #[test]
    fn reverse_body_bias_raises_vt_and_cuts_leakage() {
        let p = ProcessParams::umc90();
        let rbb = p.at_body_bias(Volts(-0.4));
        assert!(rbb.vt > p.vt);
        // ΔVt = 80 mV over n·φt ≈ 36 mV ⇒ ≈ 9× leakage reduction.
        let ratio = p.leak_at_nominal_a / rbb.leak_at_nominal_a;
        assert!((5.0..15.0).contains(&ratio), "leakage reduction {ratio}×");
    }

    #[test]
    fn forward_body_bias_speeds_up_but_leaks() {
        use crate::model::DeviceModel;
        let base = DeviceModel::umc90();
        let fbb = DeviceModel::new(ProcessParams::umc90().at_body_bias(Volts(0.3)));
        let v = Volts(0.3);
        assert!(fbb.inverter_delay(v) < base.inverter_delay(v));
        assert!(fbb.leakage_current(Volts(0.5)) > base.leakage_current(Volts(0.5)));
    }

    #[test]
    #[should_panic(expected = "junction limit")]
    fn excessive_body_bias_panics() {
        let _ = ProcessParams::umc90().at_body_bias(Volts(0.9));
    }

    #[test]
    fn heating_lowers_vt_and_raises_phi_t() {
        let p = ProcessParams::umc90();
        let hot = p.at_temperature(Kelvin(360.0));
        assert!(hot.vt < p.vt);
        assert!(hot.thermal_voltage() > p.thermal_voltage());
    }
}
