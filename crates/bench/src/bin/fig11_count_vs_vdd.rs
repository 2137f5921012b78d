//! Fig. 11 — values of count against the initial voltage on the
//! sampling capacitor: the charge-to-code transfer curve.
//!
//! Runs as a campaign: one conversion per initial voltage, fanned out
//! by the engine (`--smoke`, `--threads`, `--seed`).

use emc_bench::{campaign_series, outln, print_campaign_summary, CampaignArgs};
use emc_sensors::ChargeToDigitalConverter;
use emc_sim::campaign::{run_campaign, RunReport};
use emc_units::{Farads, Volts};

fn main() {
    let args = CampaignArgs::parse(0x000f_1511);
    let adc = ChargeToDigitalConverter::new(Farads(2e-12), 14);

    let (lo, hi) = (0.3, 1.1);
    let n = args.points(17, 5);
    let vins: Vec<f64> = (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect();

    let report = run_campaign(&vins, &args.config(), |&vin, ctx| {
        let r = adc.convert(Volts(vin));
        RunReport::from_values(
            ctx,
            vec![
                vin,
                r.code as f64,
                r.transitions as f64,
                r.charge_used.0 * 1e12,
                r.duration.0 * 1e6,
            ],
        )
    });

    let s = campaign_series(
        "fig11",
        "final code vs initial Vdd on Csample (2 pF)",
        &[
            "vin_V",
            "code",
            "transitions",
            "charge_used_pC",
            "duration_us",
        ],
        &report,
    );
    s.emit();
    print_campaign_summary(&report);

    // Proportionality of charge to count along the curve.
    let a = adc.convert(Volts(0.6));
    let b = adc.convert(Volts(1.0));
    outln!(
        "counts per picocoulomb: {:.1} at 0.6 V, {:.1} at 1.0 V",
        a.code as f64 / (a.charge_used.0 * 1e12),
        b.code as f64 / (b.charge_used.0 * 1e12)
    );
    outln!();
    outln!("Shape check: a monotone, repeatable code-vs-voltage curve (the");
    outln!("paper's Fig. 11), with a stable counts-per-charge slope — the");
    outln!("\"strong proportionality between the quantity of charge sampled…");
    outln!("and the binary code accumulated in the counter\".");
}
