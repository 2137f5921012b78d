//! Fig. 1 — the idea of energy-proportional computing: activity versus
//! supplied energy, for the proportional (self-timed converter) and
//! conventional (overhead-first) systems.

use emc_bench::{outln, Series};
use emc_core::ActivityCurve;
use emc_units::Joules;

fn main() {
    let curve = ActivityCurve::new_default();
    let mut s = Series::new(
        "fig01",
        "activity vs supplied energy (counts per quantum)",
        &["energy_pJ", "proportional", "conventional"],
    );
    for (e, prop, conv) in curve.sweep(Joules(6e-12), 17) {
        s.push(vec![e.0 * 1e12, prop as f64, conv as f64]);
    }
    s.emit();
    outln!("Shape check: the proportional system produces activity from the");
    outln!("smallest quanta; the conventional system is dead below its");
    outln!("overhead, then grows faster — matching the paper's Fig. 1 sketch.");
}
