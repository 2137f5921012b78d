//! Energy per operation for the five logic families across the supply
//! range, plus the adiabatic ramp-time sweep.
//!
//! The first series widens Fig. 2's two-style comparison to all five
//! [`emc_altlogic::LogicFamily`] design points on a 0.2–1.0 V grid; the
//! second sweeps the adiabatic power-clock ramp time at a fixed peak
//! voltage, exposing the `ξ·(RC/T)` friction / leakage-floor trade-off
//! and its optimum. Both sweeps run as campaigns (`--smoke`,
//! `--threads`, `--seed`) with byte-identical output at any thread
//! count.

use emc_altlogic::LogicFamily;
use emc_bench::{campaign_series, outln, print_campaign_summary, CampaignArgs};
use emc_core::families::{measure_adiabatic, measure_family};
use emc_sim::campaign::{run_campaign, RunReport};
use emc_units::{Seconds, Volts};

fn main() {
    let args = CampaignArgs::parse(7);
    let full = [0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.85, 1.0];
    let smoke = [0.25, 0.5, 1.0];
    let grid: &[f64] = if args.smoke { &smoke } else { &full };
    let seed = args.seed;

    let report = run_campaign(grid, &args.config(), |&v, ctx| {
        let mut values = vec![v];
        for family in LogicFamily::ALL {
            let p = measure_family(family, Volts(v), seed);
            values.push(p.energy_per_op.0);
            values.push(p.quality);
        }
        RunReport::from_values(ctx, values)
    });
    let s = campaign_series(
        "fig_altlogic_energy",
        "energy per op and delivered quality vs Vdd per logic family",
        &[
            "vdd_V",
            "si_dual_rail_J",
            "si_dual_rail_q",
            "bundled_data_J",
            "bundled_data_q",
            "adiabatic_J",
            "adiabatic_q",
            "charge_recovery_J",
            "charge_recovery_q",
            "razor_dvs_J",
            "razor_dvs_q",
        ],
        &report,
    );
    s.emit();
    print_campaign_summary(&report);

    // Ramp-time sweep: the adiabatic family's private energy knob.
    let ramp_full = [2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 500.0, 5000.0];
    let ramp_smoke = [5.0, 50.0, 500.0];
    let ramps: &[f64] = if args.smoke { &ramp_smoke } else { &ramp_full };
    let ramp_report = run_campaign(ramps, &args.config(), |&ns, ctx| {
        let p = measure_adiabatic(Volts(0.5), Seconds(ns * 1e-9));
        RunReport::from_values(ctx, vec![ns, p.energy_per_op.0, p.throughput])
    });
    let s = campaign_series(
        "fig_altlogic_ramp",
        "adiabatic energy per op vs power-clock ramp time at 0.5 V",
        &["ramp_ns", "energy_per_op_J", "throughput_ops_per_s"],
        &ramp_report,
    );
    s.emit();
    print_campaign_summary(&ramp_report);
    outln!("Shape check: adiabatic sits below both classic styles while its");
    outln!("clock ramps slowly; the ramp sweep is U-shaped — friction falls");
    outln!("as 1/T until the leakage floor takes over. Razor-DVS tracks the");
    outln!("bundled curve at nominal but keeps delivering (via replay) into");
    outln!("voltages where plain bundling has already collapsed.");
}
