//! S1 — §II-B's two load strategies across harvest power density:
//! gated bursts at a stabilised nominal rail versus self-timed operation
//! directly off the varying rail.

use emc_bench::{outln, Series};
use emc_core::strategy::{simulate, SupplyStrategy};
use emc_units::{Seconds, Watts};

fn main() {
    let mut s = Series::new(
        "ablation_supply_strategy",
        "ops per joule vs harvest power density",
        &[
            "income_uW",
            "gated_ops_per_uJ",
            "variable_ops_per_uJ",
            "variable_mean_vdd_mV",
        ],
    );
    for income_uw in [1.0, 3.0, 10.0, 30.0, 100.0, 1000.0, 5000.0] {
        let income = Watts(income_uw * 1e-6);
        let d = Seconds(2.0);
        let dt = Seconds(1e-3);
        let gated = simulate(SupplyStrategy::gated_nominal_default(), income, d, dt);
        let variable = simulate(SupplyStrategy::VariableVdd, income, d, dt);
        s.push(vec![
            income_uw,
            gated.ops_per_joule() * 1e-6,
            variable.ops_per_joule() * 1e-6,
            variable.mean_vdd.0 * 1e3,
        ]);
    }
    s.emit();
    outln!("Shape check: at microwatt densities the variable-Vdd self-timed");
    outln!("strategy does several times the work per joule (it operates near");
    outln!("the minimum-energy point and pays no regulator); at milliwatt");
    outln!("densities the stabilised-nominal strategy catches up — the paper's");
    outln!("case for power-adaptive hybrids.");
}
