//! The reference-free, wide-range voltage sensor (paper Fig. 12, \[10\]).

use emc_device::{DeviceModel, SramLogicCalibration};
use emc_units::Volts;

/// The race-based sensor: an SRAM read (Circuit 1) races an inverter
/// chain "ruler" (Circuit 2), both running from the *measured* voltage.
///
/// The SRAM completion lands `⌊gain · ratio(V)⌋` stages into the chain,
/// where `ratio(V)` is the Fig. 5 mismatch curve — monotone in V because
/// the two circuits scale differently. The landing position, read out as
/// a thermometer code, therefore measures V **without any time, voltage
/// or current reference**. `gain` models racing several back-to-back
/// SRAM completions (a longer ruler) for finer resolution.
///
/// # Examples
///
/// ```
/// use emc_sensors::ReferenceFreeSensor;
/// use emc_units::Volts;
///
/// let sensor = ReferenceFreeSensor::new(8);
/// let est = sensor.measure_and_decode(Volts(0.43));
/// assert!((est.0 - 0.43).abs() <= 0.010, "within the paper's 10 mV");
/// ```
#[derive(Debug, Clone)]
pub struct ReferenceFreeSensor {
    cal: SramLogicCalibration,
    gain: u32,
    /// Calibration table: (code, voltage), built over the operating
    /// range at 1 mV pitch.
    table: Vec<(u64, f64)>,
}

/// Operating range of the sensor (the paper: 200 mV to 1 V).
pub const RANGE: (Volts, Volts) = (Volts(0.2), Volts(1.0));

impl ReferenceFreeSensor {
    /// A sensor with the given gain (number of back-to-back SRAM
    /// completions raced against the ruler) on the default device model.
    ///
    /// # Panics
    ///
    /// Panics if `gain == 0`.
    pub fn new(gain: u32) -> Self {
        assert!(gain > 0, "gain must be positive");
        let cal = SramLogicCalibration::solve(DeviceModel::umc90());
        let mut table = Vec::new();
        let mut v = RANGE.0 .0;
        while v <= RANGE.1 .0 + 1e-9 {
            let code = Self::code_for(&cal, gain, Volts(v));
            table.push((code, v));
            v += 0.001;
        }
        Self { cal, gain, table }
    }

    fn code_for(cal: &SramLogicCalibration, gain: u32, vdd: Volts) -> u64 {
        (gain as f64 * cal.delay_ratio(vdd)).floor() as u64
    }

    /// The thermometer code produced at the measured voltage `vdd`.
    ///
    /// Monotone **decreasing** in `vdd` (the SRAM catches up with the
    /// ruler as the supply rises).
    pub fn measure(&self, vdd: Volts) -> u64 {
        Self::code_for(&self.cal, self.gain, vdd)
    }

    /// Ruler length needed to cover the full operating range (the code
    /// at the bottom of the range).
    pub fn ruler_length(&self) -> u64 {
        self.measure(RANGE.0)
    }

    /// Decodes a thermometer code back to a voltage via the calibration
    /// table (nearest code wins).
    pub fn decode(&self, code: u64) -> Volts {
        let best = self
            .table
            .iter()
            .min_by_key(|(c, _)| c.abs_diff(code))
            .expect("calibration table is non-empty");
        Volts(best.1)
    }

    /// Measures and decodes in one step.
    pub fn measure_and_decode(&self, vdd: Volts) -> Volts {
        self.decode(self.measure(vdd))
    }

    /// Worst-case absolute decoding error over the operating range,
    /// scanned at 1 mV pitch — the paper claims ≤ 10 mV.
    pub fn worst_case_error(&self) -> Volts {
        let mut worst = 0.0_f64;
        let mut v = RANGE.0 .0;
        while v <= RANGE.1 .0 + 1e-9 {
            let est = self.measure_and_decode(Volts(v));
            worst = worst.max((est.0 - v).abs());
            v += 0.001;
        }
        Volts(worst)
    }

    /// Decoding error when the die sits at a different temperature from
    /// the one the calibration table was built at: both racer and ruler
    /// shift with temperature, but not identically (the mismatch ratio
    /// compresses as the thermal voltage grows), so the reading drifts.
    ///
    /// Returns the worst absolute error over the operating range when
    /// measuring with `hot` device physics against *this* sensor's
    /// calibration. Quantifies the honest limitation of the
    /// reference-free principle: it removes voltage/time references but
    /// not temperature dependence.
    pub fn worst_case_error_at(&self, hot: DeviceModel) -> Volts {
        let hot_cal = SramLogicCalibration::solve(hot);
        let mut worst = 0.0_f64;
        let mut v = RANGE.0 .0;
        while v <= RANGE.1 .0 + 1e-9 {
            let code = (self.gain as f64 * hot_cal.delay_ratio(Volts(v))).floor() as u64;
            let est = self.decode(code);
            worst = worst.max((est.0 - v).abs());
            v += 0.005;
        }
        Volts(worst)
    }

    /// The sensor's transfer curve `(vdd, code)` over the operating
    /// range with `n` points — the data behind Fig. 12.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn transfer_curve(&self, n: usize) -> Vec<(Volts, u64)> {
        assert!(n >= 2, "need at least two points");
        (0..n)
            .map(|i| {
                let v = Volts(RANGE.0 .0 + (RANGE.1 .0 - RANGE.0 .0) * i as f64 / (n - 1) as f64);
                (v, self.measure(v))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emc_prng::{Rng, StdRng};

    #[test]
    fn code_monotone_decreasing_in_vdd() {
        let s = ReferenceFreeSensor::new(8);
        let curve = s.transfer_curve(80);
        for w in curve.windows(2) {
            assert!(
                w[0].1 >= w[1].1,
                "thermometer code must shrink as Vdd rises: {w:?}"
            );
        }
    }

    #[test]
    fn meets_the_papers_10mv_accuracy() {
        let s = ReferenceFreeSensor::new(8);
        let err = s.worst_case_error();
        assert!(
            err.0 <= 0.010,
            "worst-case error {err} exceeds the 10 mV claim"
        );
    }

    #[test]
    fn unity_gain_is_coarser() {
        let fine = ReferenceFreeSensor::new(8).worst_case_error();
        let coarse = ReferenceFreeSensor::new(1).worst_case_error();
        assert!(
            coarse > fine,
            "gain must refine accuracy: {coarse} vs {fine}"
        );
    }

    #[test]
    fn codes_at_range_ends_match_fig5_anchors() {
        let s = ReferenceFreeSensor::new(1);
        // ratio(1.0) ≈ 50, ratio(0.2) a bit under the 158 @ 190 mV anchor.
        assert_eq!(s.measure(Volts(1.0)), 50);
        let low = s.measure(Volts(0.2));
        assert!((140..=158).contains(&low), "code at 0.2 V = {low}");
    }

    #[test]
    fn ruler_length_is_the_bottom_code() {
        let s = ReferenceFreeSensor::new(4);
        assert_eq!(s.ruler_length(), s.measure(RANGE.0));
        assert!(s.ruler_length() > s.measure(RANGE.1));
    }

    #[test]
    fn decode_of_out_of_table_code_clamps_to_range() {
        let s = ReferenceFreeSensor::new(4);
        let lo = s.decode(u64::MAX);
        let hi = s.decode(0);
        assert!((lo.0 - RANGE.0 .0).abs() < 0.01);
        assert!((hi.0 - RANGE.1 .0).abs() < 0.01);
    }

    #[test]
    fn temperature_drift_is_the_honest_limitation() {
        use emc_device::{DeviceModel, ProcessParams};
        use emc_units::Kelvin;
        let s = ReferenceFreeSensor::new(8);
        // Same temperature: errors bounded by quantisation (≤ 10 mV).
        let same = s.worst_case_error_at(DeviceModel::umc90());
        assert!(same.0 <= 0.010, "{same}");
        // 60 K hotter than the calibration: the reading drifts well
        // beyond the 10 mV spec — temperature is the reference this
        // sensor still implicitly depends on.
        let hot = DeviceModel::new(ProcessParams::umc90().at_temperature(Kelvin(360.0)));
        let drift = s.worst_case_error_at(hot);
        assert!(
            drift.0 > 0.020,
            "expected visible thermal drift, got {drift}"
        );
    }

    /// Round trip within 10 mV anywhere in range (seeded sweep over
    /// random operating points).
    #[test]
    fn round_trip_accuracy() {
        let s = ReferenceFreeSensor::new(8);
        let mut rng = StdRng::seed_from_u64(0xfee1);
        for _ in 0..256 {
            let v = rng.gen_range(0.2f64..1.0);
            let est = s.measure_and_decode(Volts(v));
            assert!(
                (est.0 - v).abs() <= 0.010,
                "err {} at {v}",
                (est.0 - v).abs()
            );
        }
    }
}
