//! Figs. 9–10 — the self-timed counter as charge-to-code converter: the
//! LSB oscillates, every stage divides the pulse rate by two, firing is
//! strictly sequential (hazard-free), and the oscillation frequency is
//! modulated downwards as the sampling capacitor sags.

use emc_async::{SelfTimedOscillator, ToggleRippleCounter};
use emc_bench::{outln, Series};
use emc_device::DeviceModel;
use emc_netlist::Netlist;
use emc_sim::{Simulator, SupplyKind};
use emc_units::{Farads, Volts};

fn main() {
    let mut nl = Netlist::new();
    let osc = SelfTimedOscillator::build(&mut nl, "osc");
    let counter = ToggleRippleCounter::build(&mut nl, 8, osc.output(), "cnt");
    let mut sim = Simulator::new(nl, DeviceModel::umc90());
    let cap = sim.add_domain("cs", SupplyKind::capacitor(Farads(4e-12), Volts(1.0)));
    sim.assign_all(cap);
    sim.watch(osc.output());
    counter.watch(&mut sim);
    osc.prime(&mut sim);
    sim.start();
    sim.run_to_quiescence(10_000_000);

    // Per-stage division: transitions per toggle.
    let mut s = Series::new(
        "fig09_division",
        "transitions per counter stage (frequency ÷2 per stage)",
        &["stage", "transitions", "ratio_to_prev"],
    );
    let mut prev = None;
    for (i, &g) in counter.toggles().iter().enumerate() {
        let n = sim.transition_count(g);
        let ratio = prev.map_or(0.0, |p: u64| p as f64 / n.max(1) as f64);
        s.push(vec![i as f64, n as f64, ratio]);
        prev = Some(n);
    }
    s.emit();

    // Frequency modulation: R0 period early vs late in the discharge.
    let edges = sim.trace().rising_edges(osc.output());
    let mut fm = Series::new(
        "fig09_fm",
        "R0 pulse period along the capacitor discharge",
        &["pulse_index", "t_us", "period_ns"],
    );
    for (i, w) in edges.windows(2).enumerate() {
        if i % 8 == 0 {
            fm.push(vec![i as f64, w[1].0 * 1e6, (w[1].0 - w[0].0) * 1e9]);
        }
    }
    fm.emit();

    let early: f64 = edges[1].0 - edges[0].0;
    let n = edges.len();
    let late: f64 = edges[n - 1].0 - edges[n - 2].0;
    outln!("pulses generated: {}", n);
    outln!(
        "R0 period: {:.1} ns at full charge -> {:.1} ns near depletion ({:.0}x slower)",
        early * 1e9,
        late * 1e9,
        late / early
    );
    outln!(
        "hazards: {} (strictly sequential firing)",
        sim.hazards().len()
    );
    outln!(
        "final code {} from {} total transitions, residual {:.0} mV",
        sim.transition_count(counter.toggles()[0]),
        sim.total_transitions(),
        sim.domain_voltage(cap).0 * 1e3
    );
    outln!();
    outln!("Shape check: each stage fires at half the rate of its");
    outln!("predecessor; the oscillator's own frequency is modulated by the");
    outln!("decaying rail — the converter is a frequency-and-amplitude-");
    outln!("modulated oscillator exactly as §III-B describes.");
}
