//! The sample-and-hold sensing loop of the paper's Fig. 8: a
//! charge-to-digital voltage sensor steering a DC-DC converter.

use emc_power::PowerChain;
use emc_units::{Joules, Seconds, Volts, Watts};

use crate::charge_to_digital::ChargeToDigitalConverter;

/// One sampling cycle's record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopRecord {
    /// Time at the end of the cycle.
    pub t: Seconds,
    /// Reservoir (DC-DC input) voltage — what the sensor samples.
    pub v_store: Volts,
    /// The sensor's code for this sample.
    pub code: u64,
    /// The sensor's voltage estimate decoded from the code.
    pub estimate: Volts,
    /// The DC-DC output setting chosen for the next cycle.
    pub v_out: Volts,
    /// Energy delivered to the load this cycle.
    pub delivered: Joules,
}

/// The closed loop: every `sample_period` the sensor samples the
/// reservoir voltage (paying the sampling charge), and a bang-bang
/// controller nudges the DC-DC output — and with it the load's
/// activity — up or down. This is the smallest complete instance of the
/// paper's two-way power adaptation: *the supply state modulates the
/// computation*.
#[derive(Debug, Clone)]
pub struct SensorLoop {
    chain: PowerChain,
    sensor: ChargeToDigitalConverter,
    /// (code, volts) calibration table for decoding.
    table: Vec<(u64, f64)>,
    sample_period: Seconds,
    /// Reservoir band the controller tries to hold.
    v_low: Volts,
    v_high: Volts,
    /// DC-DC output candidates, sorted ascending.
    rails: Vec<Volts>,
    rail_idx: usize,
}

impl SensorLoop {
    /// Builds the loop.
    ///
    /// * `rails` — the discrete output voltages the DC-DC can regulate
    ///   to (ascending), e.g. `[0.3, 0.5, 0.7, 1.0]`;
    /// * `v_low`/`v_high` — the reservoir band: below `v_low` the
    ///   controller steps the rail down, above `v_high` it steps up.
    ///
    /// # Panics
    ///
    /// Panics if `rails` is empty or unsorted, the band is inverted, or
    /// the sample period is not strictly positive.
    pub fn new(
        chain: PowerChain,
        sensor: ChargeToDigitalConverter,
        rails: Vec<Volts>,
        v_low: Volts,
        v_high: Volts,
        sample_period: Seconds,
    ) -> Self {
        assert!(!rails.is_empty(), "need at least one rail");
        assert!(
            rails.windows(2).all(|w| w[0] < w[1]),
            "rails must be strictly ascending"
        );
        assert!(v_low < v_high, "band inverted");
        assert!(sample_period.0 > 0.0, "sample period must be positive");
        // Calibrate the sensor over the reservoir's plausible range.
        let table: Vec<(u64, f64)> = sensor
            .code_curve(Volts(0.15), Volts(1.2), 40)
            .into_iter()
            .map(|(v, r)| (r.code, v.0))
            .collect();
        let rail_idx = rails.len() / 2;
        Self {
            chain,
            sensor,
            table,
            sample_period,
            v_low,
            v_high,
            rails,
            rail_idx,
        }
    }

    /// Read access to the power chain.
    pub fn chain(&self) -> &PowerChain {
        &self.chain
    }

    fn decode(&self, code: u64) -> Volts {
        let best = self
            .table
            .iter()
            .min_by_key(|(c, _)| c.abs_diff(code))
            .expect("non-empty table");
        Volts(best.1)
    }

    /// Runs `cycles` sampling cycles. The load draws
    /// `base_activity · v_out²` watts (a CMOS load whose rail follows the
    /// DC-DC setting). Returns the per-cycle records.
    pub fn run(&mut self, cycles: usize, base_activity: f64) -> Vec<LoopRecord> {
        let mut out = Vec::with_capacity(cycles);
        for _ in 0..cycles {
            let v_out = self.rails[self.rail_idx];
            self.chain.converter_mut().set_v_out(v_out);
            let load = Watts(base_activity * v_out.0 * v_out.0);
            let delivered = self.chain.tick(self.sample_period, load);

            // Sample the reservoir: the sensor's capacitor is charged
            // from it (the sampling cost), then converted.
            let v_store = self.chain.storage().voltage();
            let conv = self.sensor.convert(v_store);
            let estimate = self.decode(conv.code);

            // Bang-bang control on the *estimate* (the controller never
            // sees the true voltage).
            if estimate < self.v_low && self.rail_idx > 0 {
                self.rail_idx -= 1;
            } else if estimate > self.v_high && self.rail_idx + 1 < self.rails.len() {
                self.rail_idx += 1;
            }
            out.push(LoopRecord {
                t: self.chain.now(),
                v_store,
                code: conv.code,
                estimate,
                v_out: self.rails[self.rail_idx],
                delivered,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emc_power::{DcDcConverter, HarvestSource, StorageCap};
    use emc_units::{Farads, Waveform};

    fn make_loop(harvest_uw: f64) -> SensorLoop {
        let chain = PowerChain::new(
            HarvestSource::Profile(Waveform::constant(harvest_uw * 1e-6)),
            StorageCap::new(Farads(4.7e-6), Volts(0.7), Volts(1.1)),
            DcDcConverter::new(Volts(0.5)),
        );
        let sensor = ChargeToDigitalConverter::new(Farads(2e-12), 12);
        SensorLoop::new(
            chain,
            sensor,
            vec![Volts(0.3), Volts(0.5), Volts(0.7), Volts(1.0)],
            Volts(0.45),
            Volts(0.85),
            Seconds(1e-3),
        )
    }

    #[test]
    fn weak_harvest_steps_the_rail_down() {
        let mut l = make_loop(5.0); // 5 µW in, heavy load
        let records = l.run(120, 500e-6);
        let first = records.first().unwrap().v_out;
        let last = records.last().unwrap().v_out;
        assert!(last < first, "rail should step down: {first} -> {last}");
        assert_eq!(last, Volts(0.3), "should bottom out on the lowest rail");
    }

    #[test]
    fn strong_harvest_steps_the_rail_up() {
        let mut l = make_loop(500.0); // 500 µW in, light load
        let records = l.run(120, 50e-6);
        let last = records.last().unwrap().v_out;
        assert_eq!(last, Volts(1.0), "abundant energy should raise the rail");
    }

    #[test]
    fn sensor_estimates_track_reservoir() {
        let mut l = make_loop(100.0);
        let records = l.run(40, 100e-6);
        for r in &records {
            assert!(
                (r.estimate.0 - r.v_store.0).abs() < 0.05,
                "estimate {} vs true {}",
                r.estimate,
                r.v_store
            );
        }
    }

    #[test]
    fn adaptation_avoids_deficit_that_fixed_rail_incurs() {
        // Adaptive loop under scarcity.
        let mut adaptive = make_loop(20.0);
        let _ = adaptive.run(200, 400e-6);
        let adaptive_deficit = adaptive.chain().report().deficit.0;

        // Fixed nominal rail, same scarcity.
        let mut chain = PowerChain::new(
            HarvestSource::Profile(Waveform::constant(20e-6)),
            StorageCap::new(Farads(4.7e-6), Volts(0.7), Volts(1.1)),
            DcDcConverter::new(Volts(1.0)),
        );
        for _ in 0..200 {
            chain.tick(Seconds(1e-3), Watts(400e-6 * 1.0 * 1.0));
        }
        let fixed_deficit = chain.report().deficit.0;
        assert!(
            adaptive_deficit < fixed_deficit * 0.8,
            "adaptive deficit {adaptive_deficit} vs fixed {fixed_deficit}"
        );
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_rails_panic() {
        let chain = PowerChain::new(
            HarvestSource::Profile(Waveform::constant(1e-6)),
            StorageCap::new(Farads(1e-6), Volts(0.5), Volts(1.0)),
            DcDcConverter::new(Volts(0.5)),
        );
        let sensor = ChargeToDigitalConverter::new(Farads(1e-12), 8);
        let _ = SensorLoop::new(
            chain,
            sensor,
            vec![Volts(0.5), Volts(0.3)],
            Volts(0.4),
            Volts(0.8),
            Seconds(1e-3),
        );
    }
}
