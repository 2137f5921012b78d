//! Micro-generator (energy-harvester) models.
//!
//! All harvesters expose their *extractable power as a function of time
//! and operating point*; a maximum-power-point tracker adjusts the
//! operating point, and a [`HarvestSource`] freezes one operating point
//! into a plain `power(t)` signal for the power chain.

use emc_units::{Hertz, Seconds, Watts, Waveform};

/// A resonant vibration micro-generator.
///
/// Extractable power follows a Lorentzian in the detuning between the
/// tracker's chosen electrical tuning and the mechanical resonance —
/// "e.g., in the case of vibration, by tuning it to the resonant
/// frequency of the energy source" (paper, §II-B). An optional amplitude
/// envelope models the vibration source coming and going.
#[derive(Debug, Clone, PartialEq)]
pub struct VibrationHarvester {
    resonance: Hertz,
    peak_power: Watts,
    q_factor: f64,
    envelope: Waveform,
}

impl VibrationHarvester {
    /// A harvester resonant at `resonance` delivering `peak_power` when
    /// perfectly tuned, with the given quality factor (sharpness of the
    /// resonance; MEMS harvesters sit around 5 – 50).
    ///
    /// # Panics
    ///
    /// Panics if `q_factor` or the peak power is not strictly positive.
    pub fn new(resonance: Hertz, peak_power: Watts, q_factor: f64) -> Self {
        assert!(q_factor > 0.0, "Q factor must be positive");
        assert!(peak_power.0 > 0.0, "peak power must be positive");
        Self {
            resonance,
            peak_power,
            q_factor,
            envelope: Waveform::constant(1.0),
        }
    }

    /// Replaces the unit amplitude envelope (e.g. machinery that starts
    /// and stops). Envelope values are clamped to `[0, 1]` on use.
    pub fn with_envelope(mut self, envelope: Waveform) -> Self {
        self.envelope = envelope;
        self
    }

    /// Extractable power at time `t` when the electrical side is tuned to
    /// `tuning`.
    pub fn power(&self, t: Seconds, tuning: Hertz) -> Watts {
        let df = (tuning.0 - self.resonance.0) / (self.resonance.0 / self.q_factor);
        let lorentzian = 1.0 / (1.0 + df * df);
        let env = self.envelope.value_at(t).clamp(0.0, 1.0);
        self.peak_power * (lorentzian * env)
    }

    /// Freezes a tuning choice into a [`HarvestSource`].
    pub fn into_source(self, tuning: Hertz) -> HarvestSource {
        HarvestSource::Vibration {
            harvester: self,
            tuning,
        }
    }
}

/// A small photovoltaic cell with a single-diode-style I–V curve.
///
/// Power available at operating voltage `v` is `P(v) = v·I(v)` with
/// `I(v) = i_sc·(1 − exp((v − v_oc)/v_knee))`, scaled by an irradiance
/// profile in `[0, 1]`. The maximum-power point sits below `v_oc`; the
/// MPPT sweeps `v`.
#[derive(Debug, Clone, PartialEq)]
pub struct SolarCell {
    v_oc: f64,
    i_sc: f64,
    v_knee: f64,
    irradiance: Waveform,
}

impl SolarCell {
    /// A cell with the given open-circuit voltage (volts) and
    /// short-circuit current (amps) under full irradiance.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is not strictly positive.
    pub fn new(v_oc: f64, i_sc: f64) -> Self {
        assert!(
            v_oc > 0.0 && i_sc > 0.0,
            "solar cell parameters must be positive"
        );
        Self {
            v_oc,
            i_sc,
            v_knee: v_oc * 0.06,
            irradiance: Waveform::constant(1.0),
        }
    }

    /// Replaces the unit irradiance profile (values clamped to `[0, 1]`).
    pub fn with_irradiance(mut self, irradiance: Waveform) -> Self {
        self.irradiance = irradiance;
        self
    }

    /// Open-circuit voltage.
    pub fn v_oc(&self) -> f64 {
        self.v_oc
    }

    /// Extractable power at time `t` and operating voltage `v`.
    pub fn power(&self, t: Seconds, v: f64) -> Watts {
        if v <= 0.0 || v >= self.v_oc {
            return Watts(0.0);
        }
        let i = self.i_sc * (1.0 - ((v - self.v_oc) / self.v_knee).exp());
        let g = self.irradiance.value_at(t).clamp(0.0, 1.0);
        Watts((v * i * g).max(0.0))
    }

    /// Freezes an operating voltage into a [`HarvestSource`].
    pub fn into_source(self, operating_voltage: f64) -> HarvestSource {
        HarvestSource::Solar {
            cell: self,
            operating_voltage,
        }
    }
}

/// A harvester with a fixed operating point: a plain `power(t)` signal
/// feeding a [`crate::PowerChain`].
#[derive(Debug, Clone, PartialEq)]
pub enum HarvestSource {
    /// Vibration harvester at a fixed tuning.
    Vibration {
        /// The underlying resonant generator.
        harvester: VibrationHarvester,
        /// Electrical tuning chosen (by hand or by MPPT).
        tuning: Hertz,
    },
    /// Solar cell at a fixed operating voltage.
    Solar {
        /// The underlying cell.
        cell: SolarCell,
        /// Operating voltage chosen (by hand or by MPPT).
        operating_voltage: f64,
    },
    /// An arbitrary power profile (watts as a waveform).
    Profile(Waveform),
}

impl HarvestSource {
    /// Harvested power at time `t`.
    pub fn power(&self, t: Seconds) -> Watts {
        match self {
            HarvestSource::Vibration { harvester, tuning } => harvester.power(t, *tuning),
            HarvestSource::Solar {
                cell,
                operating_voltage,
            } => cell.power(t, *operating_voltage),
            HarvestSource::Profile(w) => Watts(w.value_at(t).max(0.0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vibration_peaks_at_resonance() {
        let h = VibrationHarvester::new(Hertz(120.0), Watts(100e-6), 10.0);
        let on_peak = h.power(Seconds(0.0), Hertz(120.0));
        let detuned = h.power(Seconds(0.0), Hertz(132.0)); // one bandwidth off
        assert!((on_peak.0 - 100e-6).abs() < 1e-12);
        assert!(
            (detuned.0 / on_peak.0 - 0.5).abs() < 0.01,
            "Lorentzian half-power"
        );
        assert!(h.power(Seconds(0.0), Hertz(240.0)).0 < 0.02 * on_peak.0);
    }

    #[test]
    fn vibration_envelope_modulates() {
        let h = VibrationHarvester::new(Hertz(100.0), Watts(1e-6), 5.0)
            .with_envelope(Waveform::steps([(Seconds(0.0), 1.0), (Seconds(1.0), 0.0)]));
        assert!(h.power(Seconds(0.5), Hertz(100.0)).0 > 0.0);
        assert_eq!(h.power(Seconds(1.5), Hertz(100.0)), Watts(0.0));
    }

    #[test]
    fn solar_power_zero_at_rails_and_positive_between() {
        let c = SolarCell::new(0.6, 1e-3);
        assert_eq!(c.power(Seconds(0.0), 0.0), Watts(0.0));
        assert_eq!(c.power(Seconds(0.0), 0.6), Watts(0.0));
        assert!(c.power(Seconds(0.0), 0.5).0 > 0.0);
    }

    #[test]
    fn solar_has_interior_maximum_power_point() {
        let c = SolarCell::new(0.6, 1e-3);
        let mut best_v = 0.0;
        let mut best_p = 0.0;
        for i in 1..60 {
            let v = 0.01 * i as f64;
            let p = c.power(Seconds(0.0), v).0;
            if p > best_p {
                best_p = p;
                best_v = v;
            }
        }
        assert!(
            best_v > 0.35 && best_v < 0.59,
            "MPP at {best_v} V (should sit below v_oc)"
        );
    }

    #[test]
    fn solar_irradiance_scales_power() {
        let c = SolarCell::new(0.6, 1e-3).with_irradiance(Waveform::constant(0.5));
        let full = SolarCell::new(0.6, 1e-3);
        let half = c.power(Seconds(0.0), 0.45).0;
        let whole = full.power(Seconds(0.0), 0.45).0;
        assert!((half / whole - 0.5).abs() < 1e-9);
    }

    #[test]
    fn profile_source_clamps_negative_power() {
        let s = HarvestSource::Profile(Waveform::constant(-1.0));
        assert_eq!(s.power(Seconds(0.0)), Watts(0.0));
    }
}
