//! QoS versus supply voltage for the two design styles (paper Fig. 2).

use emc_async::{BundledPipeline, DualRailPipeline};
use emc_device::{DeviceModel, VariationModel};
use emc_netlist::Netlist;
use emc_prng::StdRng;
use emc_sim::{Simulator, SupplyKind};
use emc_units::{Joules, Seconds, Volts, Watts, Waveform};

/// The two design styles the paper contrasts in §II-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignStyle {
    /// Design 1: dual-rail, completion-detected, speed-independent.
    SpeedIndependent,
    /// Design 2: single-rail data bundled with a matched delay line.
    BundledData,
}

impl core::fmt::Display for DesignStyle {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DesignStyle::SpeedIndependent => f.write_str("speed-independent"),
            DesignStyle::BundledData => f.write_str("bundled-data"),
        }
    }
}

/// One measured operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosPoint {
    /// Supply voltage of the measurement.
    pub vdd: Volts,
    /// Raw token throughput (tokens per second, counting wrong ones).
    pub throughput: f64,
    /// Fraction of tokens that arrived intact.
    pub correct_fraction: f64,
    /// Mean power drawn during the transfer.
    pub power: Watts,
    /// Energy per (any) token.
    pub energy_per_token: Joules,
}

impl QosPoint {
    /// The quality of service: *correct* tokens per second. A fast but
    /// corrupting design delivers zero QoS.
    pub fn qos(&self) -> f64 {
        self.throughput * self.correct_fraction
    }

    /// QoS per watt — the power-efficiency axis of Fig. 2.
    pub fn qos_per_watt(&self) -> f64 {
        if self.power.0 <= 0.0 {
            0.0
        } else {
            self.qos() / self.power.0
        }
    }
}

/// Measures one style at one voltage by gate-level simulation: an
/// 8-bit-wide, 3-stage pipeline carries a pseudo-random word train;
/// every gate receives a threshold-variation delay multiplier sampled at
/// `vdd` (sub-threshold variation is what breaks bundled timing), and
/// the received words are checked against the sent ones.
///
/// Deterministic for a given `seed`.
pub fn measure_pipeline_qos(style: DesignStyle, vdd: Volts, seed: u64) -> QosPoint {
    let device = DeviceModel::umc90();
    let words: Vec<u64> = (0..12u64).map(|i| (i * 0x9E) % 256).collect();
    let mut nl = Netlist::new();
    // σ(Vt) = 45 mV: representative of minimum-size devices in a 90 nm
    // low-power process — the regime where sub-threshold bundling dies.
    let variation = VariationModel::new(0.045);
    let mut rng = StdRng::seed_from_u64(seed);

    let deadline = Seconds(10.0);
    let outcome = match style {
        DesignStyle::SpeedIndependent => {
            let p = DualRailPipeline::build_wide(&mut nl, 3, 8, "d1");
            let mut sim = Simulator::new(nl, device.clone());
            let d = sim.add_domain("vdd", SupplyKind::ideal(Waveform::constant(vdd.0)));
            sim.assign_all(d);
            for i in 0..sim.netlist().gate_count() {
                let id = sim.netlist().gate_id(i);
                sim.set_delay_scale(id, variation.delay_multiplier(&device, vdd, &mut rng));
            }
            sim.start();
            sim.run_to_quiescence(100_000);
            p.transfer(&mut sim, &words, deadline)
        }
        DesignStyle::BundledData => {
            let p = BundledPipeline::build_wide(&mut nl, 3, 8, 4, 2.0, "d2");
            let mut sim = Simulator::new(nl, device.clone());
            let d = sim.add_domain("vdd", SupplyKind::ideal(Waveform::constant(vdd.0)));
            sim.assign_all(d);
            for i in 0..sim.netlist().gate_count() {
                let id = sim.netlist().gate_id(i);
                sim.set_delay_scale(id, variation.delay_multiplier(&device, vdd, &mut rng));
            }
            sim.start();
            sim.run_to_quiescence(100_000);
            p.transfer(&mut sim, &words, deadline)
        }
    };

    let received = &outcome.received;
    let correct = received.iter().zip(&words).filter(|(a, b)| a == b).count();
    let correct_fraction = if outcome.completed && !received.is_empty() {
        correct as f64 / words.len() as f64
    } else {
        0.0
    };
    let throughput = outcome.throughput();
    let power = if outcome.duration.0 > 0.0 {
        outcome.energy / outcome.duration
    } else {
        Watts(0.0)
    };
    QosPoint {
        vdd,
        throughput,
        correct_fraction,
        power,
        energy_per_token: outcome.energy_per_token(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_styles_deliver_at_nominal() {
        let d1 = measure_pipeline_qos(DesignStyle::SpeedIndependent, Volts(1.0), 7);
        let d2 = measure_pipeline_qos(DesignStyle::BundledData, Volts(1.0), 7);
        assert!(d1.qos() > 0.0);
        assert!(d2.qos() > 0.0);
        assert_eq!(d1.correct_fraction, 1.0);
        assert_eq!(d2.correct_fraction, 1.0);
    }

    #[test]
    fn design2_more_efficient_at_nominal() {
        let d1 = measure_pipeline_qos(DesignStyle::SpeedIndependent, Volts(1.0), 7);
        let d2 = measure_pipeline_qos(DesignStyle::BundledData, Volts(1.0), 7);
        assert!(
            d2.qos_per_watt() > d1.qos_per_watt(),
            "bundled {} vs dual-rail {} QoS/W",
            d2.qos_per_watt(),
            d1.qos_per_watt()
        );
    }

    #[test]
    fn design1_delivers_where_design2_cannot() {
        // Deep sub-threshold with variation: the paper's crossover. The
        // bundled failure is statistical (a die may get lucky), so check
        // across several dice: the SI design must be correct on *every*
        // die, the bundled design must corrupt on *most*.
        let v = Volts(0.16);
        let mut d2_corrupt = 0;
        for seed in 0..6 {
            let d1 = measure_pipeline_qos(DesignStyle::SpeedIndependent, v, seed);
            assert!(
                d1.correct_fraction > 0.99,
                "dual-rail corrupted on die {seed}: {}",
                d1.correct_fraction
            );
            let d2 = measure_pipeline_qos(DesignStyle::BundledData, v, seed);
            if d2.correct_fraction < 1.0 {
                d2_corrupt += 1;
            }
        }
        assert!(
            d2_corrupt >= 3,
            "bundled should corrupt on most sub-threshold dice, got {d2_corrupt}/6"
        );
    }

    #[test]
    fn measurement_is_seed_deterministic() {
        let a = measure_pipeline_qos(DesignStyle::BundledData, Volts(0.3), 5);
        let b = measure_pipeline_qos(DesignStyle::BundledData, Volts(0.3), 5);
        assert_eq!(a, b);
    }

    #[test]
    fn throughput_rises_with_vdd() {
        let low = measure_pipeline_qos(DesignStyle::SpeedIndependent, Volts(0.3), 3);
        let high = measure_pipeline_qos(DesignStyle::SpeedIndependent, Volts(1.0), 3);
        assert!(high.throughput > low.throughput);
    }

    #[test]
    fn display_names() {
        assert_eq!(
            DesignStyle::SpeedIndependent.to_string(),
            "speed-independent"
        );
        assert_eq!(DesignStyle::BundledData.to_string(), "bundled-data");
    }
}
