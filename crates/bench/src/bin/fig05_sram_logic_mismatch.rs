//! Fig. 5 — mismatch between the scaling of SRAM and logic: read delay
//! in inverter units across the Vdd range, anchored at the paper's
//! published points (50 @ 1 V, 158 @ 190 mV).
//!
//! Runs as a campaign: one run per Vdd point, fanned out by the engine
//! (`--smoke`, `--threads`, `--seed`; see `emc_bench::campaign`).

use emc_bench::{campaign_series, outln, print_campaign_summary, CampaignArgs};
use emc_device::{DeviceModel, SramLogicCalibration};
use emc_sim::campaign::{run_campaign, RunReport};
use emc_units::Volts;

fn main() {
    let args = CampaignArgs::parse(0x000f_1505);
    let cal = SramLogicCalibration::solve(DeviceModel::umc90());

    let (lo, hi) = (0.15, 1.0);
    let n = args.points(18, 5);
    let vdds: Vec<f64> = (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect();

    let report = run_campaign(&vdds, &args.config(), |&vdd, ctx| {
        let v = Volts(vdd);
        RunReport::from_values(
            ctx,
            vec![vdd, cal.delay_ratio(v), cal.sram_read_delay(v).0 * 1e9],
        )
    });

    let s = campaign_series(
        "fig05",
        "SRAM read delay in inverter delays vs Vdd",
        &["vdd_V", "ratio_inverters", "abs_read_delay_ns"],
        &report,
    );
    s.emit();
    print_campaign_summary(&report);
    outln!(
        "anchors: ratio(1.0 V) = {:.1} (paper: 50), ratio(0.19 V) = {:.1} (paper: 158)",
        cal.delay_ratio(Volts(1.0)),
        cal.delay_ratio(Volts(0.19))
    );
    outln!(
        "solved stack-effect threshold elevation: {:.0} mV; cap/drive scale {:.1}",
        cal.delta_vt().0 * 1e3,
        cal.cap_scale()
    );
    outln!();
    outln!("Shape check: monotone growth as Vdd falls — a delay line matched");
    outln!("to the SRAM at nominal supply is ~3.2x too short at 190 mV, which");
    outln!("is why the paper abandons delay lines for completion detection.");
}
