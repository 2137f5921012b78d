//! The conventional ring-oscillator voltage sensor — the baseline \[6\]
//! the reference-free design is compared against.

use emc_device::DeviceModel;
use emc_units::{Hertz, Seconds, Volts};

/// A ring-oscillator sensor: count oscillator cycles in a fixed time
/// window; the count maps to Vdd through a calibration table.
///
/// Its Achilles heel — the reason the paper builds the reference-free
/// sensor — is the **time reference**: the window is only as accurate as
/// some independent clock, and in an energy-harvesting system no stable
/// clock exists. `RingOscillatorSensor::measure_with_reference_error`
/// exposes that sensitivity.
#[derive(Debug, Clone)]
pub struct RingOscillatorSensor {
    device: DeviceModel,
    stages: usize,
    window: Seconds,
    /// (count, voltage) calibration table at 1 mV pitch.
    table: Vec<(u64, f64)>,
}

impl RingOscillatorSensor {
    /// A sensor with an `stages`-inverter ring counted over `window`.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is even or `< 3`, or the window is not
    /// strictly positive.
    pub fn new(stages: usize, window: Seconds) -> Self {
        assert!(
            stages >= 3 && stages % 2 == 1,
            "ring needs an odd stage count >= 3"
        );
        assert!(window.0 > 0.0, "window must be positive");
        let mut s = Self {
            device: DeviceModel::umc90(),
            stages,
            window,
            table: Vec::new(),
        };
        let mut v = 0.15;
        while v <= 1.0 + 1e-9 {
            s.table.push((s.ideal_count(Volts(v)), v));
            v += 0.001;
        }
        s
    }

    /// Oscillation frequency of the ring at `vdd`: one period is two
    /// traversals of the `stages` inverters.
    pub fn frequency(&self, vdd: Volts) -> Hertz {
        let inv = self.device.inverter_delay(vdd);
        if !inv.0.is_finite() {
            return Hertz(0.0);
        }
        Hertz(1.0 / (2.0 * self.stages as f64 * inv.0))
    }

    fn ideal_count(&self, vdd: Volts) -> u64 {
        (self.frequency(vdd).0 * self.window.0) as u64
    }

    /// Counts cycles over the nominal window (a perfect time reference).
    pub fn measure(&self, vdd: Volts) -> u64 {
        self.ideal_count(vdd)
    }

    /// Counts cycles over a window that is wrong by `rel_error`
    /// (e.g. `0.05` = the reference clock runs 5 % fast).
    pub(crate) fn measure_with_reference_error(&self, vdd: Volts, rel_error: f64) -> u64 {
        (self.frequency(vdd).0 * self.window.0 * (1.0 + rel_error)).max(0.0) as u64
    }

    /// Decodes a count back to a voltage via the calibration table.
    pub fn decode(&self, count: u64) -> Volts {
        let best = self
            .table
            .iter()
            .min_by_key(|(c, _)| c.abs_diff(count))
            .expect("non-empty table");
        Volts(best.1)
    }

    /// Absolute decoding error at `vdd` when the time reference is off
    /// by `rel_error`.
    pub fn error_with_reference(&self, vdd: Volts, rel_error: f64) -> Volts {
        let est = self.decode(self.measure_with_reference_error(vdd, rel_error));
        Volts((est.0 - vdd.0).abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sensor() -> RingOscillatorSensor {
        RingOscillatorSensor::new(31, Seconds(1e-6))
    }

    #[test]
    fn frequency_monotone_in_vdd() {
        let s = sensor();
        assert!(s.frequency(Volts(1.0)) > s.frequency(Volts(0.5)));
        assert!(s.frequency(Volts(0.5)) > s.frequency(Volts(0.25)));
        assert_eq!(s.frequency(Volts(0.05)), Hertz(0.0));
    }

    #[test]
    fn perfect_reference_decodes_accurately() {
        let s = sensor();
        for &v in &[0.3, 0.5, 0.8, 1.0] {
            let est = s.decode(s.measure(Volts(v)));
            assert!(
                (est.0 - v).abs() < 0.01,
                "err at {v}: {}",
                (est.0 - v).abs()
            );
        }
    }

    #[test]
    fn reference_error_translates_into_voltage_error() {
        let s = sensor();
        // A 10 % reference error around mid-range costs tens of mV —
        // far beyond the reference-free sensor's 10 mV.
        let err = s.error_with_reference(Volts(0.5), 0.10);
        assert!(err.0 > 0.010, "10 % clock error must hurt, got {err}");
        // A perfect reference costs nothing extra.
        let err0 = s.error_with_reference(Volts(0.5), 0.0);
        assert!(err0.0 < 0.01);
    }

    #[test]
    fn count_scales_with_window() {
        let short = RingOscillatorSensor::new(31, Seconds(1e-6));
        let long = RingOscillatorSensor::new(31, Seconds(4e-6));
        let ratio = long.measure(Volts(0.8)) as f64 / short.measure(Volts(0.8)) as f64;
        assert!((ratio - 4.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "odd stage count")]
    fn even_ring_panics() {
        let _ = RingOscillatorSensor::new(4, Seconds(1e-6));
    }
}
