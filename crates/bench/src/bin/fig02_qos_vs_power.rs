//! Fig. 2 — power-proportional versus power-efficient design: QoS vs
//! Vdd for Design 1 (speed-independent dual-rail), Design 2 (bundled
//! data) and the hybrid that tracks the upper envelope.
//!
//! Each grid point measures three gate-level simulations, so the sweep
//! runs as a campaign (`--smoke`, `--threads`, `--seed`).

use emc_bench::{campaign_series, outln, print_campaign_summary, CampaignArgs};
use emc_core::hybrid::HybridController;
use emc_core::qos::{measure_pipeline_qos, DesignStyle};
use emc_sim::campaign::{run_campaign, RunReport};
use emc_units::Volts;

fn main() {
    let args = CampaignArgs::parse(7);
    let full = [0.14, 0.16, 0.20, 0.25, 0.30, 0.40, 0.50, 0.70, 1.0];
    let smoke = [0.16, 0.30, 1.0];
    let grid: &[f64] = if args.smoke { &smoke } else { &full };
    let seed = args.seed;
    let ctl = HybridController::new_default();

    let report = run_campaign(grid, &args.config(), |&v, ctx| {
        let d1 = measure_pipeline_qos(DesignStyle::SpeedIndependent, Volts(v), seed);
        let d2 = measure_pipeline_qos(DesignStyle::BundledData, Volts(v), seed);
        let hybrid = ctl.qos_at(Volts(v), seed);
        RunReport::from_values(
            ctx,
            vec![
                v,
                d1.qos(),
                d1.qos_per_watt(),
                d2.qos(),
                d2.qos_per_watt(),
                hybrid.qos(),
            ],
        )
    });

    let s = campaign_series(
        "fig02",
        "QoS (correct tokens/s) and QoS/W vs Vdd per design style",
        &[
            "vdd_V",
            "d1_qos",
            "d1_qos_per_W",
            "d2_qos",
            "d2_qos_per_W",
            "hybrid_qos",
        ],
        &report,
    );
    s.emit();
    print_campaign_summary(&report);
    outln!("Shape check: Design 1 delivers QoS at voltages where Design 2's");
    outln!("correct fraction collapses; Design 2 has the higher QoS/W at");
    outln!("nominal supply; the hybrid follows whichever is better (switch");
    outln!("threshold {:.0} mV).", ctl.threshold().0 * 1e3);
}
