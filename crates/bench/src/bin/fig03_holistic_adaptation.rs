//! Fig. 3 — power-adaptive computing, the holistic view: useful work per
//! harvested joule with and without two-way adaptation.

use emc_bench::{outln, Series};
use emc_core::HolisticExperiment;
use emc_units::{Seconds, Watts};

fn main() {
    let mut s = Series::new(
        "fig03",
        "completions per harvested mJ: adaptive vs fixed rail, across income",
        &[
            "income_uW",
            "adaptive_done",
            "fixed_done",
            "adaptive_per_mJ",
            "fixed_per_mJ",
        ],
    );
    for income_uw in [10.0, 20.0, 30.0, 60.0, 120.0, 500.0] {
        let exp = HolisticExperiment {
            income: Watts(income_uw * 1e-6),
            burst_period: Seconds(50e-3),
            duration: Seconds(4.0),
        };
        let adaptive = exp.run(true);
        let fixed = exp.run(false);
        s.push(vec![
            income_uw,
            adaptive.completed as f64,
            fixed.completed as f64,
            adaptive.completions_per_joule * 1e-3,
            fixed.completions_per_joule * 1e-3,
        ]);
    }
    s.emit();
    outln!("Shape check: under scarce income the adaptive loop (energy-token");
    outln!("scheduling at the minimum-energy rail) completes several times the");
    outln!("work per joule of the fixed nominal-rail system; with abundant");
    outln!("income both complete the whole workload.");
}
