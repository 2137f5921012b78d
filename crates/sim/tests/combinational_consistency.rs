//! Property test: for arbitrary random combinational DAGs, the
//! event-driven simulator must settle to exactly the Boolean evaluation
//! of the netlist — at any supply voltage, under any per-gate delay
//! scaling. On a rail pinned at or below the device's operating floor
//! every run must still end.

use emc_device::DeviceModel;
use emc_netlist::{GateKind, NetId, Netlist};
use emc_prng::{Rng, StdRng};
use emc_sim::{Simulator, SupplyKind};
use emc_units::{Farads, Seconds, Volts, Waveform};

#[derive(Debug, Clone)]
struct RandomDag {
    /// (kind index, input picks) per gate; inputs pick from earlier nets.
    gates: Vec<(u8, Vec<usize>)>,
    input_values: Vec<bool>,
    vdd: f64,
    delay_scales: Vec<f64>,
}

const KINDS: [GateKind; 8] = [
    GateKind::Inv,
    GateKind::Buf,
    GateKind::And,
    GateKind::Nand,
    GateKind::Or,
    GateKind::Nor,
    GateKind::Xor,
    GateKind::Majority3,
];

fn random_dag(rng: &mut StdRng) -> RandomDag {
    let gates = (0..rng.gen_range(1usize..25))
        .map(|_| {
            let kind = rng.gen_range(0u8..8);
            let picks = (0..3).map(|_| rng.gen_range(0usize..10_000)).collect();
            (kind, picks)
        })
        .collect();
    RandomDag {
        gates,
        input_values: (0..4).map(|_| rng.gen::<bool>()).collect(),
        vdd: rng.gen_range(0.2f64..1.0),
        delay_scales: (0..32).map(|_| rng.gen_range(0.1f64..10.0)).collect(),
    }
}

/// Builds the netlist; returns (netlist, input nets, all gate output nets).
fn build(dag: &RandomDag) -> (Netlist, Vec<NetId>, Vec<NetId>) {
    let mut nl = Netlist::new();
    let inputs: Vec<NetId> = (0..dag.input_values.len())
        .map(|i| nl.input(&format!("in{i}")))
        .collect();
    let mut nets: Vec<NetId> = inputs.clone();
    let mut outs = Vec::new();
    for (g, (kind_idx, picks)) in dag.gates.iter().enumerate() {
        let kind = KINDS[*kind_idx as usize];
        let (lo, _) = kind.arity();
        let arity = lo.max(if kind == GateKind::Majority3 { 3 } else { lo });
        let ins: Vec<NetId> = (0..arity.max(1))
            .map(|k| nets[picks[k % picks.len()] % nets.len()])
            .collect();
        let y = nl.gate(kind, &ins, &format!("g{g}"));
        nets.push(y);
        outs.push(y);
    }
    for &o in &outs {
        nl.mark_output(o);
    }
    (nl, inputs, outs)
}

/// Reference: topological Boolean evaluation (construction order is
/// topological by design).
fn reference_eval(nl: &Netlist, inputs: &[NetId], input_values: &[bool]) -> Vec<bool> {
    let mut values = vec![false; nl.net_count()];
    for (i, &net) in inputs.iter().enumerate() {
        values[net.index()] = input_values[i];
    }
    for (_, g) in nl.iter_gates() {
        if g.kind().is_source() {
            continue;
        }
        let ins: Vec<bool> = g.inputs().iter().map(|n| values[n.index()]).collect();
        values[g.output().index()] = g.kind().eval(&ins, values[g.output().index()]);
    }
    values
}

#[test]
fn simulator_settles_to_boolean_evaluation() {
    let mut rng = StdRng::seed_from_u64(0xdac);
    for case in 0..64 {
        let dag = random_dag(&mut rng);
        let (nl, inputs, outs) = build(&dag);
        let expected = reference_eval(&nl, &inputs, &dag.input_values);

        let mut sim = Simulator::new(nl, DeviceModel::umc90());
        let d = sim.add_domain("vdd", SupplyKind::ideal(Waveform::constant(dag.vdd)));
        sim.assign_all(d);
        for i in 0..sim.netlist().gate_count() {
            let id = sim.netlist().gate_id(i);
            let s = dag.delay_scales[i % dag.delay_scales.len()];
            sim.set_delay_scale(id, s);
        }
        sim.start();
        // Drive the inputs to their target values at t = 0.
        for (i, &net) in inputs.iter().enumerate() {
            if dag.input_values[i] {
                sim.schedule_input(net, sim.now(), true);
            }
        }
        let fired = sim.run_to_quiescence(200_000);
        assert!(fired < 200_000, "case {case} did not quiesce");
        for &o in &outs {
            assert_eq!(
                sim.value(o),
                expected[o.index()],
                "case {case}: net {o} settled wrong"
            );
        }
    }
}

/// Rails at and below the floor: ideal constants at 0, ½·`v_floor` and
/// exactly `v_floor`, and a capacitor charged to ½·`v_floor`, each under
/// the logic of the same DAGs (the input drivers stay off the rail,
/// unbilled), driven by a `step()` loop and by `run_to_quiescence`. A
/// transition that cannot progress stalls with no queue entry, so every
/// run ends with the queue drained. Below the floor, time stops at the
/// last stimulus and no switching energy is drawn; at the floor, the DAG
/// settles to its Boolean evaluation. Every booked energy is finite.
#[test]
fn runs_end_on_rails_at_and_below_the_floor() {
    let floor = DeviceModel::umc90().v_floor().0;
    let rails = [
        ("0 V", SupplyKind::ideal(Waveform::constant(0.0)), true),
        (
            "half floor",
            SupplyKind::ideal(Waveform::constant(0.5 * floor)),
            true,
        ),
        ("floor", SupplyKind::ideal(Waveform::constant(floor)), false),
        (
            "half-floor capacitor",
            SupplyKind::capacitor(Farads(1e-12), Volts(0.5 * floor)),
            true,
        ),
    ];
    let mut rng = StdRng::seed_from_u64(0xf1004);
    for case in 0..16 {
        let dag = random_dag(&mut rng);
        let (nl, inputs, outs) = build(&dag);
        let expected = reference_eval(&nl, &inputs, &dag.input_values);
        for (rail, supply, below) in &rails {
            for by_step in [true, false] {
                let what = format!("case {case}, {rail} rail, step loop {by_step}");
                let mut sim = Simulator::new(nl.clone(), DeviceModel::umc90());
                let d = sim.add_domain("vdd", supply.clone());
                for i in 0..sim.netlist().gate_count() {
                    let gate = sim.netlist().gate_id(i);
                    if sim.netlist().gate_ref(gate).kind() != GateKind::Input {
                        sim.assign_domain(gate, d);
                    }
                }
                sim.start();
                // Input `i` rises at `i` ns.
                let mut last = Seconds(0.0);
                for (i, &net) in inputs.iter().enumerate() {
                    if dag.input_values[i] {
                        last = Seconds(i as f64 * 1e-9);
                        sim.schedule_input(net, last, true);
                    }
                }
                if by_step {
                    let mut fired = 0;
                    while sim.step().is_some() {
                        fired += 1;
                        assert!(fired < 200_000, "{what}: did not quiesce");
                    }
                } else {
                    let fired = sim.run_to_quiescence(200_000);
                    assert!(fired < 200_000, "{what}: did not quiesce");
                }
                assert_eq!(sim.next_event_time(), None, "{what}: queue not drained");
                assert!(sim.now().0.is_finite(), "{what}: now {}", sim.now());
                let domain = sim.domain(d);
                for e in [domain.switching_energy(), domain.leakage_energy()] {
                    assert!(e.0.is_finite(), "{what}: booked {e}");
                }
                assert!(
                    sim.activity_report().iter().all(|r| r.energy.0.is_finite()),
                    "{what}: a gate booked non-finite energy"
                );
                if *below {
                    assert!(sim.now() <= last, "{what}: now {} past {last}", sim.now());
                    assert_eq!(domain.switching_energy().0, 0.0, "{what}: switched");
                } else {
                    for &o in &outs {
                        assert_eq!(
                            sim.value(o),
                            expected[o.index()],
                            "{what}: net {o} settled wrong"
                        );
                    }
                }
            }
        }
    }
}
