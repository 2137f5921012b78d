//! Energy per operation across the five logic families.
//!
//! [`crate::qos`] compares the paper's two classic styles; this module
//! widens the comparison to the five [`LogicFamily`] design points by
//! measuring each family with the instrument it calls for:
//!
//! * speed-independent and bundled-data reuse the gate-level QoS rig of
//!   [`measure_pipeline_qos`] (variation included);
//! * adiabatic runs a phase-disciplined [`AdiabaticPipeline`] whose
//!   ramp time fixes the `ξ·(RC/T)` friction;
//! * charge-recovery runs bounded oscillator bursts on a
//!   [`ChargeRecoveryMemory`] and pays only the fresh top-up;
//! * Razor-DVS drives a [`RazorPipeline`] under the same variation as
//!   the bundled rig, detecting and replaying timing violations.
//!
//! Every measurement is deterministic for a given seed, so a sweep run
//! on the campaign engine (as `fig_altlogic_energy` runs one) gives
//! byte-identical output at any thread count.

use emc_altlogic::{AdiabaticPipeline, ChargeRecoveryMemory, LogicFamily, RazorPipeline};
use emc_device::{AdiabaticModel, DeviceModel, VariationModel};
use emc_netlist::Netlist;
use emc_power::{ClockShape, PowerClock};
use emc_prng::StdRng;
use emc_sim::{Simulator, SupplyKind};
use emc_units::{Farads, Joules, Seconds, Volts, Watts, Waveform};

use crate::qos::{measure_pipeline_qos, DesignStyle};

/// One family measured at one operating voltage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FamilyPoint {
    /// The family measured.
    pub family: LogicFamily,
    /// Operating voltage (peak voltage for the adiabatic clock).
    pub vdd: Volts,
    /// Energy actually *lost* per operation — recovered and recycled
    /// charge excluded, replay penalties included.
    pub energy_per_op: Joules,
    /// Operations per second of the measurement rig.
    pub throughput: f64,
    /// Fraction of operations delivered correctly (phase-clean for the
    /// adiabatic cascade, full-count bursts for the recovery memory).
    pub quality: f64,
}

impl FamilyPoint {
    /// Mean power of the measurement (energy/op × throughput).
    pub fn power(&self) -> Watts {
        Watts(self.energy_per_op.0 * self.throughput)
    }
}

/// Ramp time of the default adiabatic measurement clock.
pub const ADIABATIC_RAMP: Seconds = Seconds(50e-9);

fn adiabatic_pipeline(vdd: Volts, ramp: Seconds) -> AdiabaticPipeline {
    let clock = PowerClock::symmetric(vdd, ramp, 4, ClockShape::Trapezoid);
    AdiabaticPipeline::new(
        clock,
        AdiabaticModel::new(DeviceModel::umc90()),
        3,
        24,
        Farads(2e-15),
    )
}

/// Measures the adiabatic cascade at `vdd` with an explicit ramp time —
/// the knob the ramp-time sweep of `fig_altlogic_energy` turns.
pub fn measure_adiabatic(vdd: Volts, ramp: Seconds) -> FamilyPoint {
    let run = adiabatic_pipeline(vdd, ramp).run(32);
    FamilyPoint {
        family: LogicFamily::Adiabatic,
        vdd,
        energy_per_op: run.energy_per_op(),
        throughput: run.throughput(),
        quality: if run.clean() { 1.0 } else { 0.0 },
    }
}

fn measure_recovery(vdd: Volts) -> FamilyPoint {
    const COUNTS: u64 = 16;
    let mem = ChargeRecoveryMemory::new(Farads(2e-12), 12, COUNTS, 0.8);
    let session = mem.run(vdd, 8);
    let total_time: f64 = session.ops.iter().map(|o| o.duration.0).sum();
    let full: usize = session.ops.iter().filter(|o| o.code >= COUNTS).count();
    FamilyPoint {
        family: LogicFamily::ChargeRecovery,
        vdd,
        energy_per_op: Joules(session.fresh_total().0 / session.ops.len() as f64),
        throughput: if total_time > 0.0 {
            session.ops.len() as f64 / total_time
        } else {
            0.0
        },
        quality: full as f64 / session.ops.len() as f64,
    }
}

/// The word train every gate-level family rig carries.
pub fn family_words() -> Vec<u64> {
    (0..12u64).map(|i| (i * 0x9E) % 256).collect()
}

/// Runs the Razor-DVS rig at `vdd` and returns the raw transfer
/// outcome — error counts, replays and the replay energy split the
/// ablation binary plots. Same pipeline dimensions and σ(Vt) as the
/// bundled rig in [`measure_pipeline_qos`], so the comparison isolates
/// the shadow latches and replay. Deterministic for a given `seed`.
pub fn measure_razor_outcome(vdd: Volts, seed: u64) -> emc_altlogic::RazorOutcome {
    let device = DeviceModel::umc90();
    let words = family_words();
    let mut nl = Netlist::new();
    let p = RazorPipeline::build_wide(&mut nl, 3, 8, 4, 2.0, 6.0, "rz");
    let variation = VariationModel::new(0.045);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sim = Simulator::new(nl, device.clone());
    let d = sim.add_domain("vdd", SupplyKind::ideal(Waveform::constant(vdd.0)));
    sim.assign_all(d);
    for i in 0..sim.netlist().gate_count() {
        let id = sim.netlist().gate_id(i);
        sim.set_delay_scale(id, variation.delay_multiplier(&device, vdd, &mut rng));
    }
    sim.start();
    sim.run_to_quiescence(1_000_000);
    p.transfer(&mut sim, &words, Seconds(10.0), 2.0, 2)
}

fn measure_razor(vdd: Volts, seed: u64) -> FamilyPoint {
    let words = family_words();
    let out = measure_razor_outcome(vdd, seed);
    let correct = out
        .received
        .iter()
        .zip(&words)
        .filter(|(a, b)| a == b)
        .count();
    FamilyPoint {
        family: LogicFamily::RazorDvs,
        vdd,
        energy_per_op: out.energy_per_word(),
        throughput: out.throughput(),
        quality: if out.completed && !out.received.is_empty() {
            correct as f64 / words.len() as f64
        } else {
            0.0
        },
    }
}

/// Measures one family at one voltage. Deterministic for a given
/// `seed`; the adiabatic point uses [`ADIABATIC_RAMP`].
pub fn measure_family(family: LogicFamily, vdd: Volts, seed: u64) -> FamilyPoint {
    match family {
        LogicFamily::SpeedIndependent | LogicFamily::BundledData => {
            let style = if family == LogicFamily::SpeedIndependent {
                DesignStyle::SpeedIndependent
            } else {
                DesignStyle::BundledData
            };
            let q = measure_pipeline_qos(style, vdd, seed);
            FamilyPoint {
                family,
                vdd,
                energy_per_op: q.energy_per_token,
                throughput: q.throughput,
                quality: q.correct_fraction,
            }
        }
        LogicFamily::Adiabatic => measure_adiabatic(vdd, ADIABATIC_RAMP),
        LogicFamily::ChargeRecovery => measure_recovery(vdd),
        LogicFamily::RazorDvs => measure_razor(vdd, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_families_measurable_at_nominal() {
        for family in LogicFamily::ALL {
            let p = measure_family(family, Volts(1.0), 7);
            assert!(p.energy_per_op.0 > 0.0, "{family}: no energy booked");
            assert!(p.throughput > 0.0, "{family}: no throughput");
            assert_eq!(p.quality, 1.0, "{family}: not clean at nominal");
        }
    }

    #[test]
    fn adiabatic_beats_bundled_on_energy_at_nominal() {
        let ad = measure_family(LogicFamily::Adiabatic, Volts(1.0), 7);
        let bd = measure_family(LogicFamily::BundledData, Volts(1.0), 7);
        assert!(
            ad.energy_per_op.0 < bd.energy_per_op.0,
            "adiabatic {} vs bundled {}",
            ad.energy_per_op,
            bd.energy_per_op
        );
    }

    #[test]
    fn slower_ramp_lowers_adiabatic_energy_until_leakage() {
        // Friction side of the optimum: slower ramp wins.
        let fast = measure_adiabatic(Volts(0.5), Seconds(2e-9));
        let slow = measure_adiabatic(Volts(0.5), Seconds(20e-9));
        assert!(slow.energy_per_op.0 < fast.energy_per_op.0);
        assert!(slow.throughput < fast.throughput);
        // Far past the optimum the leakage floor takes over.
        let crawl = measure_adiabatic(Volts(0.5), Seconds(50e-6));
        assert!(crawl.energy_per_op.0 > slow.energy_per_op.0);
    }
}
