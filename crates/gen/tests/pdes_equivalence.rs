//! PDES-vs-sequential equivalence over every generator family.
//!
//! `PdesSimulator` accepts only cuts that share no net, so each circuit
//! is split along its connected components: the row-parallel array puts
//! its rows in 3 Vdd domains at different voltages, and every connected
//! family runs as one partition. Each circuit is driven by a seeded
//! single-action environment at a fixed cadence and simulated four
//! ways: sequentially on one `Simulator`, and on a `PdesSimulator` at
//! 1, 2 and 8 threads. The canonical `(time, net, value)`-sorted trace
//! digests, the fired counts and every domain's switching and total
//! energy must be bit-identical across all four runs, on constant,
//! capacitor-backed and sine rails. A round-robin gate scatter of each
//! connected family must be rejected with a `CrossingNet`.

use emc_device::DeviceModel;
use emc_gen::{
    block_graph, completion_tree, dims_adder, micropipeline, pipelined_array_domains,
    wchb_datapath, BlockSpec, GeneratedCircuit, SimView,
};
use emc_netlist::{GateKind, NetId};
use emc_prng::{Rng, StdRng};
use emc_sim::{PdesPartitionSpec, PdesSimulator, Simulator, SupplyKind, Trace};
use emc_units::{Farads, Hertz, Seconds, Volts, Waveform};

/// Action cadence — generous at the lowest rail voltage so the circuit
/// is quiescent when the driver reads the sequential view.
const STEP: f64 = 200e-9;
const VOLTS: [f64; 3] = [1.0, 0.8, 0.6];

#[derive(Debug, Clone, Copy)]
enum Rail {
    Constant,
    /// A finite capacitor per domain: every draw sags the rail.
    Capacitor,
    /// An ideal sine, one period per driver step, so every delay is a
    /// work integral.
    Sine,
}

fn specs(parts: usize, rail: Rail) -> Vec<PdesPartitionSpec> {
    (0..parts)
        .map(|d| {
            let v = VOLTS[d % VOLTS.len()];
            let supply = match rail {
                Rail::Constant => SupplyKind::ideal(Waveform::constant(v)),
                Rail::Capacitor => SupplyKind::capacitor(Farads(20e-12), Volts(v)),
                Rail::Sine => {
                    SupplyKind::ideal(Waveform::sine(v, 0.15, Hertz(1.0 / STEP), d as f64))
                }
            };
            PdesPartitionSpec {
                name: format!("vdd{d}"),
                supply,
            }
        })
        .collect()
}

struct SeqRun {
    canonical_digest: u64,
    fired: u64,
    switching: Vec<u64>,
    total: Vec<u64>,
    final_volts: Vec<f64>,
    actions: Vec<(Seconds, NetId, bool)>,
    t_final: Seconds,
}

/// Drives the sequential oracle: quiesce, pick one enabled environment
/// action with the seeded PRNG, inject, repeat. Records the injected
/// sequence so the PDES runs replay *exactly* the same stimulus.
fn run_sequential(
    gc: &GeneratedCircuit,
    assignment: &[u32],
    specs: &[PdesPartitionSpec],
    seed: u64,
) -> SeqRun {
    let rounds = 14usize;
    let mut sim = Simulator::new(gc.netlist.clone(), DeviceModel::umc90());
    let doms: Vec<_> = specs
        .iter()
        .map(|s| sim.add_domain(&s.name, s.supply.clone()))
        .collect();
    for (gid, g) in gc.netlist.iter_gates() {
        if g.kind() == GateKind::Input {
            continue;
        }
        sim.assign_domain(gid, doms[assignment[gid.index()] as usize]);
    }
    for &(net, v) in &gc.initial {
        sim.set_initial(net, v);
    }
    for net in gc.netlist.iter_nets() {
        sim.watch(net);
    }
    sim.start();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut env_state = gc.env.initial();
    let mut actions = Vec::new();
    let mut acts = Vec::new();
    let mut fired = 0u64;
    for k in 0..rounds {
        let t = Seconds(STEP * (k + 1) as f64);
        fired += sim.run_until(t).fired;
        acts.clear();
        gc.env.step(env_state, &SimView(&sim), &mut acts);
        acts.retain(|a| sim.value(a.net) != a.value);
        if acts.is_empty() {
            continue;
        }
        let a = acts[rng.gen_range(0..acts.len())].clone();
        sim.schedule_input(a.net, t, a.value);
        env_state = a.next;
        actions.push((t, a.net, a.value));
    }
    let t_final = Seconds(STEP * (rounds + 1) as f64);
    fired += sim.run_until(t_final).fired;
    assert!(
        sim.hazards().is_empty(),
        "{}: sequential run must be hazard-free",
        gc.name
    );
    assert!(!actions.is_empty(), "{}: driver never acted", gc.name);
    assert!(fired > 0, "{}: nothing fired", gc.name);
    SeqRun {
        canonical_digest: sim.trace().canonical_digest(),
        fired,
        switching: doms
            .iter()
            .map(|&d| sim.domain(d).switching_energy().0.to_bits())
            .collect(),
        total: doms
            .iter()
            .map(|&d| sim.energy_drawn(d).0.to_bits())
            .collect(),
        final_volts: doms.iter().map(|&d| sim.domain_voltage(d).0).collect(),
        actions,
        t_final,
    }
}

fn run_pdes(
    gc: &GeneratedCircuit,
    assignment: &[u32],
    specs: &[PdesPartitionSpec],
    threads: usize,
    oracle: &SeqRun,
) -> Trace {
    let mut sim = PdesSimulator::new(&gc.netlist, DeviceModel::umc90(), specs, assignment)
        .expect("the cut shares no net");
    sim.set_threads(threads);
    for &(net, v) in &gc.initial {
        sim.set_initial(net, v);
    }
    for net in gc.netlist.iter_nets() {
        sim.watch(net);
    }
    sim.start();
    let mut fired = 0u64;
    for &(t, net, value) in &oracle.actions {
        fired += sim.run_until(t).fired;
        sim.schedule_input(net, t, value);
    }
    let stats = sim.run_until(oracle.t_final);
    fired += stats.fired;
    assert_eq!(
        stats.hazards, 0,
        "{}: PDES run must be hazard-free",
        gc.name
    );

    assert_eq!(
        oracle.fired, fired,
        "{}: fired count diverged at {threads} threads",
        gc.name
    );
    for p in 0..specs.len() {
        assert_eq!(
            oracle.switching[p],
            sim.switching_energy(p).0.to_bits(),
            "{}: switching energy of domain {p} must be bit-identical",
            gc.name
        );
        assert_eq!(
            oracle.total[p],
            sim.energy_drawn(p).0.to_bits(),
            "{}: total energy of domain {p} must be bit-identical",
            gc.name
        );
    }
    sim.trace()
}

/// The full four-way comparison for one circuit + assignment; returns
/// the oracle for rail-specific checks.
fn assert_equivalent(
    gc: &GeneratedCircuit,
    assignment: &[u32],
    specs: &[PdesPartitionSpec],
    seed: u64,
) -> SeqRun {
    let oracle = run_sequential(gc, assignment, specs, seed);
    for threads in [1, 2, 8] {
        let trace = run_pdes(gc, assignment, specs, threads, &oracle);
        // The merged PDES trace is canonically sorted by construction,
        // so its plain digest is directly comparable.
        assert_eq!(
            oracle.canonical_digest,
            trace.digest(),
            "{}: trace diverged from sequential at {threads} threads",
            gc.name
        );
    }
    oracle
}

/// A connected family runs as one partition and matches the oracle;
/// a round-robin gate scatter over `parts` partitions is rejected,
/// naming a net read outside the part that drives it.
fn connected_family(gc: &GeneratedCircuit, parts: usize, seed: u64) {
    let gates = gc.netlist.gate_count();
    assert_equivalent(gc, &vec![0; gates], &specs(1, Rail::Constant), seed);

    let scatter: Vec<u32> = (0..gates).map(|g| (g % parts) as u32).collect();
    let err = PdesSimulator::new(
        &gc.netlist,
        DeviceModel::umc90(),
        &specs(parts, Rail::Constant),
        &scatter,
    )
    .expect_err("a scattered connected circuit crosses the cut");
    assert_ne!(err.from, err.to, "{}", gc.name);
    let driver = gc.netlist.driver_of(err.net).expect("driven");
    assert_eq!(scatter[driver.index()], err.from, "{}", gc.name);
    assert!(
        gc.netlist
            .fanout(err.net)
            .iter()
            .any(|g| scatter[g.index()] == err.to),
        "{}: no reader of {} in part {}",
        gc.name,
        err.net,
        err.to
    );
}

#[test]
fn completion_tree_is_one_partition() {
    connected_family(&completion_tree(3, "t"), 3, 11);
}

#[test]
fn wchb_datapath_is_one_partition() {
    connected_family(&wchb_datapath(2, 2, "p"), 3, 12);
}

#[test]
fn dims_adder_is_one_partition() {
    connected_family(&dims_adder(2, "a"), 2, 13);
}

#[test]
fn micropipeline_is_one_partition() {
    connected_family(&micropipeline(4, "m"), 3, 14);
}

#[test]
fn block_graph_is_one_partition() {
    let blocks = [
        BlockSpec {
            func: 1,
            lhs: 0,
            rhs: 1,
        },
        BlockSpec {
            func: 5,
            lhs: 2,
            rhs: 3,
        },
    ];
    connected_family(&block_graph(3, &blocks, "bg"), 3, 17);
}

#[test]
fn pipelined_array_row_domains() {
    let gc = pipelined_array_domains(3, 2, 3, "ar");
    let assignment = gc.domain_assignment();
    assert_equivalent(
        &gc,
        &assignment,
        &specs(gc.domain_count(), Rail::Constant),
        15,
    );
}

#[test]
fn pipelined_array_on_capacitor_rails() {
    let gc = pipelined_array_domains(6, 5, 3, "ar");
    let assignment = gc.domain_assignment();
    let oracle = assert_equivalent(
        &gc,
        &assignment,
        &specs(gc.domain_count(), Rail::Capacitor),
        18,
    );
    for (d, v) in oracle.final_volts.iter().enumerate() {
        assert!(*v < VOLTS[d], "domain {d}'s capacitor never sagged");
    }
}

#[test]
fn pipelined_array_on_sine_rails() {
    let gc = pipelined_array_domains(6, 5, 3, "ar");
    let assignment = gc.domain_assignment();
    assert_equivalent(&gc, &assignment, &specs(gc.domain_count(), Rail::Sine), 19);
}
