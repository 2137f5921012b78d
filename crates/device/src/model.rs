//! The continuous delay / energy / leakage model derived from
//! [`ProcessParams`].

use emc_units::{Amps, Farads, Joules, Seconds, Volts, Watts};

use crate::params::ProcessParams;

/// A complete device model: given a supply voltage it answers *how fast*,
/// *how much switching energy* and *how much leakage*.
///
/// The model is built around the EKV continuous on-current
///
/// ```text
/// I_on(V) = Is · ln²(1 + exp((V − Vt) / (2·n·φt)))
/// ```
///
/// which reduces to the familiar exponential sub-threshold current for
/// `V ≪ Vt` and to a square-law strong-inversion current for `V ≫ Vt`,
/// with a smooth moderate-inversion transition — one expression valid over
/// the paper's whole 0.2 V – 1 V dynamic range. Gate delay follows as
/// `t = kd·C·V / I_on(V)` and switching energy as `E = C·V²`.
///
/// # Examples
///
/// ```
/// use emc_device::DeviceModel;
/// use emc_units::Volts;
///
/// let dev = DeviceModel::umc90();
/// // Energy per transition is quadratic in Vdd: the motivation for
/// // operating at the minimum-energy point near 0.4 V.
/// let e1 = dev.switching_energy(Volts(1.0), dev.params().gate_cap);
/// let e04 = dev.switching_energy(Volts(0.4), dev.params().gate_cap);
/// assert!((e1.0 / e04.0 - 6.25).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DeviceModel {
    params: ProcessParams,
}

impl DeviceModel {
    /// Builds a model over explicit process parameters.
    pub fn new(params: ProcessParams) -> Self {
        Self { params }
    }

    /// The UMC 90 nm typical-corner model used throughout the reproduction.
    pub fn umc90() -> Self {
        Self::new(ProcessParams::umc90())
    }

    /// The underlying process parameters.
    pub fn params(&self) -> &ProcessParams {
        &self.params
    }

    /// EKV-style on-current of a unit-strength pull-down at gate and drain
    /// voltage `vdd`.
    ///
    /// Returns zero at or below 0 V.
    pub fn on_current(&self, vdd: Volts) -> Amps {
        self.on_current_with_vt(vdd, self.params.vt)
    }

    /// On-current with an explicit effective threshold — used by the SRAM
    /// bitline model, whose stacked access + driver transistors behave like
    /// a device with a raised Vt (the physical root of the paper's Fig. 5
    /// mismatch).
    pub fn on_current_with_vt(&self, vdd: Volts, vt: Volts) -> Amps {
        if vdd.0 <= 0.0 {
            return Amps(0.0);
        }
        let phi_t = self.params.thermal_voltage().0;
        let x = (vdd.0 - vt.0) / (2.0 * self.params.slope_factor * phi_t);
        // ln(1 + e^x), computed stably for large |x|.
        let soft = if x > 30.0 { x } else { x.exp().ln_1p() };
        Amps(self.params.specific_current_a * soft * soft)
    }

    /// Propagation delay of a unit gate driving `c_load`, with unit drive
    /// strength, at supply `vdd`: `t = kd·C·V / I_on(V)`.
    ///
    /// Below the operating floor ([`ProcessParams::v_floor`]) the gate does
    /// not switch: the delay is `+∞`. The discrete-event simulator treats
    /// an infinite delay as a stall that re-evaluates when the supply
    /// recovers — exactly the pause-and-resume of the paper's Fig. 4.
    pub fn gate_delay(&self, vdd: Volts, c_load: Farads, drive: f64) -> Seconds {
        self.gate_delay_with_vt(vdd, c_load, drive, self.params.vt)
    }

    /// [`Self::gate_delay`] with an explicit effective threshold.
    ///
    /// # Panics
    ///
    /// Panics if `drive` is not strictly positive or `c_load` is negative.
    pub(crate) fn gate_delay_with_vt(
        &self,
        vdd: Volts,
        c_load: Farads,
        drive: f64,
        vt: Volts,
    ) -> Seconds {
        assert!(drive > 0.0, "drive strength must be positive");
        assert!(c_load.0 >= 0.0, "negative load capacitance");
        if vdd < self.params.v_floor {
            return Seconds(f64::INFINITY);
        }
        let i_on = self.on_current_with_vt(vdd, vt).0 * drive;
        Seconds(self.params.delay_fit * c_load.0 * vdd.0 / i_on)
    }

    /// Delay of a fanout-of-1 unit inverter (driving one identical
    /// inverter's gate plus its own drain parasitic) at supply `vdd`.
    ///
    /// This is the paper's time "ruler": Fig. 5 reports SRAM latency in
    /// units of this delay, and the reference-free sensor of Fig. 12 uses a
    /// chain of these as its measuring stick.
    pub fn inverter_delay(&self, vdd: Volts) -> Seconds {
        let c = self.params.gate_cap + self.params.drain_cap;
        self.gate_delay(vdd, c, 1.0)
    }

    /// Dynamic energy drawn from the supply by one output transition that
    /// charges `c` at supply `vdd`: `E = C·V²`.
    ///
    /// (Only the rising transition draws `C·V²` from the rail; averaging a
    /// full switching cycle gives the textbook `C·V²` per up/down pair.
    /// We charge the full `C·V²` on rising output edges and nothing on
    /// falling edges, which is both physical and simple to account.)
    pub fn switching_energy(&self, vdd: Volts, c: Farads) -> Joules {
        vdd.cv2(c)
    }

    /// Off-state leakage current of a unit gate at supply `vdd`, including
    /// first-order DIBL: `I = I₀·e^(η·(V−1)/φt)` clamped to zero below 0 V.
    pub fn leakage_current(&self, vdd: Volts) -> Amps {
        if vdd.0 <= 0.0 {
            return Amps(0.0);
        }
        let phi_t = self.params.thermal_voltage().0;
        let scale = (self.params.dibl * (vdd.0 - 1.0) / phi_t).exp();
        Amps(self.params.leak_at_nominal_a * scale)
    }

    /// Static power of a unit gate at supply `vdd`: `P = V·I_leak(V)`.
    pub fn leakage_power(&self, vdd: Volts) -> Watts {
        vdd * self.leakage_current(vdd)
    }

    /// The supply floor below which gates stall.
    pub fn v_floor(&self) -> Volts {
        self.params.v_floor
    }

    /// `true` if a gate can switch at `vdd`.
    pub(crate) fn operational(&self, vdd: Volts) -> bool {
        vdd >= self.params.v_floor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emc_prng::{Rng, StdRng};

    fn dev() -> DeviceModel {
        DeviceModel::umc90()
    }

    #[test]
    fn nominal_inverter_delay_is_tens_of_picoseconds() {
        let t = dev().inverter_delay(Volts(1.0));
        assert!(t.0 > 5e-12 && t.0 < 100e-12, "t = {t}");
    }

    #[test]
    fn subthreshold_slowdown_is_orders_of_magnitude() {
        let d = dev();
        let ratio = d.inverter_delay(Volts(0.19)) / d.inverter_delay(Volts(1.0));
        // SPICE for 90 nm puts this between ~5e2 and ~1e4.
        assert!(ratio > 1e2 && ratio < 1e5, "ratio = {ratio}");
    }

    #[test]
    fn on_current_continuous_across_threshold() {
        let d = dev();
        // No kink: the relative change over a 2 mV step around Vt stays a
        // few percent (the smooth moderate-inversion region), far from the
        // ~16 %/2 mV jump a piecewise exponential/square-law model shows.
        let lo = d.on_current(Volts(0.349)).0;
        let hi = d.on_current(Volts(0.351)).0;
        assert!((hi - lo) / lo < 0.06);
    }

    #[test]
    fn on_current_zero_at_zero_volts() {
        assert_eq!(dev().on_current(Volts(0.0)), Amps(0.0));
        assert_eq!(dev().on_current(Volts(-0.5)), Amps(0.0));
    }

    #[test]
    fn subthreshold_slope_is_about_100mv_per_decade() {
        let d = dev();
        // n·φt·ln(10) ≈ 83 mV/decade for n = 1.4 at 300 K.
        let i1 = d.on_current(Volts(0.15)).0;
        let i2 = d.on_current(Volts(0.25)).0;
        let decades = (i2 / i1).log10();
        let mv_per_decade = 100.0 / decades;
        assert!(
            (70.0..110.0).contains(&mv_per_decade),
            "slope {mv_per_decade} mV/dec"
        );
    }

    #[test]
    fn strong_inversion_is_square_law() {
        let d = dev();
        // For V ≫ Vt, I ∝ (V−Vt)²: compare 0.85 and 1.35 overdrive… use
        // vdd 1.2 and 1.7 with vt 0.35.
        let i1 = d.on_current(Volts(1.2)).0;
        let i2 = d.on_current(Volts(1.7)).0;
        let expect = ((1.7_f64 - 0.35) / (1.2 - 0.35)).powi(2);
        let got = i2 / i1;
        assert!(
            (got / expect - 1.0).abs() < 0.08,
            "got {got} expect {expect}"
        );
    }

    #[test]
    fn delay_below_floor_is_infinite() {
        let d = dev();
        assert!(d
            .gate_delay(Volts(0.05), Farads(1e-15), 1.0)
            .0
            .is_infinite());
        assert!(!d.operational(Volts(0.05)));
        assert!(d.operational(Volts(0.2)));
    }

    #[test]
    fn raised_vt_slows_gate() {
        let d = dev();
        let base = d.gate_delay(Volts(0.3), Farads(1e-15), 1.0);
        let stacked = d.gate_delay_with_vt(Volts(0.3), Farads(1e-15), 1.0, Volts(0.40));
        assert!(stacked > base);
    }

    #[test]
    fn drive_strength_divides_delay() {
        let d = dev();
        let t1 = d.gate_delay(Volts(0.5), Farads(4e-15), 1.0);
        let t2 = d.gate_delay(Volts(0.5), Farads(4e-15), 2.0);
        assert!((t1.0 / t2.0 - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "drive strength")]
    fn zero_drive_panics() {
        let _ = dev().gate_delay(Volts(0.5), Farads(1e-15), 0.0);
    }

    #[test]
    fn switching_energy_quadratic() {
        let d = dev();
        let c = Farads(2e-15);
        let e1 = d.switching_energy(Volts(1.0), c);
        let e2 = d.switching_energy(Volts(0.5), c);
        assert!((e1.0 / e2.0 - 4.0).abs() < 1e-9);
        assert_eq!(e1, Joules(2e-15));
    }

    #[test]
    fn leakage_grows_with_vdd() {
        let d = dev();
        let l_low = d.leakage_current(Volts(0.2)).0;
        let l_nom = d.leakage_current(Volts(1.0)).0;
        assert!(l_nom > l_low);
        assert!((l_nom - d.params().leak_at_nominal_a).abs() / l_nom < 1e-9);
        assert_eq!(d.leakage_current(Volts(0.0)), Amps(0.0));
        assert!(d.leakage_power(Volts(0.5)).0 > 0.0);
    }

    /// Delay decreases monotonically as Vdd rises (above the floor).
    #[test]
    fn delay_monotone_in_vdd() {
        let d = dev();
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..256 {
            let a = rng.gen_range(0.12f64..1.2);
            let b = rng.gen_range(0.12f64..1.2);
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            if hi - lo <= 1e-6 {
                continue;
            }
            let t_lo = d.inverter_delay(Volts(lo));
            let t_hi = d.inverter_delay(Volts(hi));
            assert!(t_lo >= t_hi, "t({lo}) = {t_lo} < t({hi}) = {t_hi}");
        }
    }

    /// On-current increases monotonically with Vdd.
    #[test]
    fn current_monotone_in_vdd() {
        let d = dev();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..256 {
            let a = rng.gen_range(0.0f64..1.5);
            let b = rng.gen_range(0.0f64..1.5);
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            assert!(d.on_current(Volts(hi)) >= d.on_current(Volts(lo)));
        }
    }

    /// Energy per transition is exactly C·V².
    #[test]
    fn energy_is_cv2() {
        let d = dev();
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..256 {
            let v = rng.gen_range(0.0f64..1.5);
            let c = rng.gen_range(1e-16f64..1e-12);
            let e = d.switching_energy(Volts(v), Farads(c));
            assert!((e.0 - c * v * v).abs() <= 1e-12 * e.0.abs().max(1e-30));
        }
    }

    /// Delay is finite and positive everywhere above the floor.
    #[test]
    fn delay_finite_above_floor() {
        let d = dev();
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..256 {
            let v = rng.gen_range(0.10f64..1.5);
            let t = d.inverter_delay(Volts(v));
            assert!(t.0.is_finite() && t.0 > 0.0);
        }
    }
}
