//! Behavioural tests of the event-driven simulator: delay scaling with
//! Vdd, energy accounting, hazard detection, capacitor-backed supplies
//! and operation under AC power.

use emc_device::DeviceModel;
use emc_netlist::{GateId, GateKind, NetId, Netlist};
use emc_prng::Rng;
use emc_prng::StdRng;
use emc_sim::{Simulator, SupplyKind};
use emc_units::{Farads, Hertz, Joules, Seconds, Volts, Waveform};

/// A chain of `n` inverters behind an input; returns (input, chain outputs).
fn inverter_chain(n: usize) -> (Netlist, NetId, Vec<NetId>) {
    let mut nl = Netlist::new();
    let input = nl.input("in");
    let mut outs = Vec::new();
    let mut prev = input;
    for i in 0..n {
        prev = nl.gate(GateKind::Inv, &[prev], &format!("inv{i}"));
        outs.push(prev);
    }
    nl.mark_output(prev);
    (nl, input, outs)
}

fn sim_with_constant_vdd(nl: Netlist, vdd: f64) -> Simulator {
    let mut sim = Simulator::new(nl, DeviceModel::umc90());
    let d = sim.add_domain("vdd", SupplyKind::ideal(Waveform::constant(vdd)));
    sim.assign_all(d);
    sim
}

/// Time for a step to propagate through a chain of `n` inverters at `vdd`.
fn chain_propagation_time(n: usize, vdd: f64) -> f64 {
    let (nl, input, outs) = inverter_chain(n);
    let last = *outs.last().unwrap();
    let mut sim = sim_with_constant_vdd(nl, vdd);
    // Settle the chain (alternating levels from in = 0).
    sim.start();
    sim.run_to_quiescence(10_000);
    let settled = sim.value(last);
    let t0 = sim.now();
    sim.watch(last);
    sim.schedule_input(input, t0, true);
    sim.run_to_quiescence(10_000);
    assert_ne!(sim.value(last), settled, "step did not propagate");
    let edge = sim.trace().entries().last().unwrap().time;
    edge.0 - t0.0
}

#[test]
fn chain_delay_proportional_to_length() {
    let t8 = chain_propagation_time(8, 1.0);
    let t16 = chain_propagation_time(16, 1.0);
    let ratio = t16 / t8;
    assert!((ratio - 2.0).abs() < 0.15, "ratio = {ratio}");
}

#[test]
fn chain_slows_dramatically_in_subthreshold() {
    let nominal = chain_propagation_time(8, 1.0);
    let sub = chain_propagation_time(8, 0.2);
    let ratio = sub / nominal;
    assert!(ratio > 100.0, "only {ratio}× slowdown at 0.2 V");
}

#[test]
fn propagation_matches_device_model_prediction() {
    let dev = DeviceModel::umc90();
    let measured = chain_propagation_time(10, 0.5);
    // A mid-chain inverter drives exactly one inverter: FO1 delay.
    let fo1 = dev.inverter_delay(Volts(0.5)).0;
    let predicted = 10.0 * fo1;
    let err = (measured - predicted).abs() / predicted;
    // The last stage is unloaded and the first differs; allow 25 %.
    assert!(err < 0.25, "measured {measured}, predicted {predicted}");
}

#[test]
fn c_element_waits_for_both_inputs() {
    let mut nl = Netlist::new();
    let a = nl.input("a");
    let b = nl.input("b");
    let c = nl.gate(GateKind::CElement, &[a, b], "c");
    nl.mark_output(c);
    let mut sim = sim_with_constant_vdd(nl, 1.0);
    sim.start();
    sim.schedule_input(a, Seconds(0.0), true);
    sim.run_until(Seconds(10e-9));
    assert!(!sim.value(c), "C fired with one input");
    sim.schedule_input(b, Seconds(20e-9), true);
    sim.run_until(Seconds(40e-9));
    assert!(sim.value(c), "C did not rendezvous");
    // Falls only when both fall.
    sim.schedule_input(a, Seconds(50e-9), false);
    sim.run_until(Seconds(70e-9));
    assert!(sim.value(c));
    sim.schedule_input(b, Seconds(80e-9), false);
    sim.run_until(Seconds(100e-9));
    assert!(!sim.value(c));
    assert!(sim.hazards().is_empty());
}

#[test]
fn short_pulse_is_a_hazard() {
    // A pulse much shorter than the gate delay must be swallowed and
    // recorded as a persistence violation.
    let mut nl = Netlist::new();
    let a = nl.input("a");
    let slow = nl.gate(GateKind::Inv, &[a], "slow");
    nl.mark_output(slow);
    let mut sim = sim_with_constant_vdd(nl, 0.2); // very slow gates
    let g = sim.netlist().driver_of(slow).unwrap();
    sim.start();
    sim.run_to_quiescence(100);
    // slow = 1 now (input 0). Pulse input high for 1 ps — far below the
    // sub-threshold gate delay.
    let t0 = sim.now();
    sim.schedule_input(a, t0, true);
    sim.schedule_input(a, Seconds(t0.0 + 1e-12), false);
    sim.run_until(Seconds(t0.0 + 1.0));
    assert_eq!(sim.hazards().len(), 1);
    assert_eq!(sim.hazards()[0].gate, g);
    assert!(sim.value(slow), "output must not glitch");
}

#[test]
fn energy_accounting_matches_cv2_per_rising_edge() {
    let (nl, input, outs) = inverter_chain(4);
    let mut sim = sim_with_constant_vdd(nl.clone(), 1.0);
    sim.start();
    sim.run_to_quiescence(100);
    let e_before = sim.energy_drawn(domain_of(&sim));
    // One input step: every other inverter rises.
    sim.schedule_input(input, sim.now(), true);
    sim.run_to_quiescence(100);
    let e_after = sim.energy_drawn(domain_of(&sim));
    let drawn = (e_after - e_before).0;
    // Expected: input driver rising? in=0→1 rises (draws), inv0 falls,
    // inv1 rises, inv2 falls, inv3 rises: 3 rising edges among gates.
    let dev = DeviceModel::umc90();
    let p = dev.params();
    // in drives inv0; inv_i drives inv_{i+1}; inv3 unloaded.
    let c_driver = |fanout_units: f64| p.drain_cap.0 + p.gate_cap.0 * fanout_units;
    let expected =
        (c_driver(1.0) /* in */ + c_driver(1.0) /* inv1 */ + c_driver(0.0)/* inv3 */) * 1.0 * 1.0;
    let leak_slack = 1e-15; // leakage over nanoseconds is negligible here
    assert!(
        (drawn - expected).abs() < expected * 0.05 + leak_slack,
        "drawn {drawn}, expected {expected}"
    );
    let _ = outs;
}

/// Helper: the single domain of a one-domain simulator.
fn domain_of(sim: &Simulator) -> emc_sim::DomainId {
    // Domains are issued densely from zero; tests here use exactly one.
    sim.domain_id(0)
}

#[test]
fn capacitor_domain_sags_and_stalls_then_recharges() {
    // Ring oscillator powered from a small capacitor: it must oscillate,
    // drain the cap, stall, and resume after a recharge.
    let mut nl = Netlist::new();
    let en = nl.input("en");
    let g1 = nl.gate(GateKind::Nand, &[en, en], "g1");
    let g2 = nl.gate(GateKind::Inv, &[g1], "g2");
    let g3 = nl.gate(GateKind::Inv, &[g2], "g3");
    nl.connect_feedback(g1, g3);
    nl.mark_output(g3);
    let mut sim = Simulator::new(nl, DeviceModel::umc90());
    let cap = sim.add_domain("cs", SupplyKind::capacitor(Farads(50e-15), Volts(0.8)));
    sim.assign_all(cap);
    sim.set_initial(g1, true);
    sim.set_initial(g3, true);
    sim.schedule_input(en, Seconds(0.0), true);
    sim.start();
    let fired = sim.run_to_quiescence(1_000_000);
    assert!(fired > 10, "did not oscillate ({fired} events)");
    let v_end = sim.domain_voltage(cap);
    assert!(
        v_end < Volts(0.2),
        "capacitor should be depleted, still at {v_end}"
    );
    let before = sim.total_transitions();
    // Recharge → more oscillation.
    sim.recharge_domain(cap, Volts(0.8));
    let fired2 = sim.run_to_quiescence(1_000_000);
    assert!(fired2 > 10, "did not resume after recharge");
    assert!(sim.total_transitions() > before);
}

#[test]
fn more_charge_buys_more_transitions() {
    // The essence of energy-modulated computing: transition count scales
    // with the energy quantum.
    let count_for = |v0: f64| {
        let mut nl = Netlist::new();
        let en = nl.input("en");
        let g1 = nl.gate(GateKind::Nand, &[en, en], "g1");
        let g2 = nl.gate(GateKind::Inv, &[g1], "g2");
        let g3 = nl.gate(GateKind::Inv, &[g2], "g3");
        nl.connect_feedback(g1, g3);
        nl.mark_output(g3);
        let mut sim = Simulator::new(nl, DeviceModel::umc90());
        let cap = sim.add_domain("cs", SupplyKind::capacitor(Farads(100e-15), Volts(v0)));
        sim.assign_all(cap);
        sim.set_initial(g1, true);
        sim.set_initial(g3, true);
        sim.schedule_input(en, Seconds(0.0), true);
        sim.start();
        sim.run_to_quiescence(10_000_000);
        sim.total_transitions()
    };
    let low = count_for(0.5);
    let high = count_for(1.0);
    // Each rising edge drains dQ = C_load*V, so V decays geometrically and
    // the transition count grows as ln(V0/V_stop): the 1.0 V start must
    // beat the 0.5 V start by about ln(10)/ln(5) = 1.43.
    let ratio = high as f64 / low as f64;
    assert!(
        (1.25..1.65).contains(&ratio),
        "high {high} vs low {low} transitions (ratio {ratio})"
    );
}

#[test]
fn ac_supply_pauses_and_resumes_logic() {
    // Under a 200 mV ± 100 mV AC supply, a sub-threshold chain must make
    // progress only near the crests — total latency far beyond what the
    // crest voltage alone would give, but the step still completes.
    let (nl, input, outs) = inverter_chain(6);
    let last = *outs.last().unwrap();
    let mut sim = Simulator::new(nl, DeviceModel::umc90());
    // Consistent quiescent state for in = 0: levels alternate 1,0,1,0,…
    for (i, &net) in outs.iter().enumerate() {
        sim.set_initial(net, i % 2 == 0);
    }
    let freq = Hertz(1e6);
    let vdd = sim.add_domain(
        "ac",
        SupplyKind::ideal_with_resolution(
            Waveform::sine(0.2, 0.1, freq, 0.0),
            Seconds(freq.period().0 / 128.0),
        ),
    );
    sim.assign_all(vdd);
    sim.start();
    sim.run_until(Seconds(5e-6));
    let settled = sim.value(last);
    sim.schedule_input(input, sim.now(), true);
    sim.run_until(Seconds(400e-6));
    assert_ne!(sim.value(last), settled, "step never completed under AC");
    assert!(sim.hazards().is_empty());
}

#[test]
fn delay_scaling_changes_timing_not_function() {
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..5 {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let c = nl.gate(GateKind::CElement, &[a, b], "c");
        let inv = nl.gate(GateKind::Inv, &[c], "inv");
        nl.mark_output(inv);
        let mut sim = sim_with_constant_vdd(nl, 0.5);
        for i in 0..sim.netlist().gate_count() {
            let id: GateId = sim.netlist().gate_id(i);
            let scale = rng.gen_range(0.1..10.0);
            sim.set_delay_scale(id, scale);
        }
        sim.set_initial(inv, true);
        sim.start();
        sim.schedule_input(a, Seconds(1e-9), true);
        sim.schedule_input(b, Seconds(2e-9), true);
        sim.run_until(Seconds(1e-3));
        assert!(sim.value(c));
        assert!(!sim.value(inv));
        assert!(sim.hazards().is_empty());
    }
}

#[test]
fn trace_records_only_watched_nets() {
    let (nl, input, outs) = inverter_chain(3);
    let mut sim = sim_with_constant_vdd(nl, 1.0);
    sim.watch(outs[1]);
    sim.start();
    sim.run_to_quiescence(100);
    assert!(sim.trace().is_empty(), "nothing watched has switched yet");
    sim.schedule_input(input, sim.now(), true);
    sim.run_to_quiescence(100);
    assert!(sim.trace().entries().iter().all(|e| e.net == outs[1]));
    assert_eq!(sim.trace().transition_count(outs[1]), 1);
}

#[test]
fn redundant_input_levels_are_skipped() {
    let (nl, input, _) = inverter_chain(1);
    let mut sim = sim_with_constant_vdd(nl, 1.0);
    sim.start();
    sim.run_to_quiescence(10);
    let n0 = sim.total_transitions();
    sim.schedule_input(input, sim.now(), false); // already low
    sim.run_to_quiescence(10);
    assert_eq!(sim.total_transitions(), n0);
}

#[test]
fn run_until_respects_bound() {
    let (nl, input, outs) = inverter_chain(20);
    let last = *outs.last().unwrap();
    let mut sim = sim_with_constant_vdd(nl, 0.3);
    sim.start();
    sim.run_to_quiescence(1000);
    let settled = sim.value(last);
    let t0 = sim.now();
    sim.schedule_input(input, t0, true);
    // Bound far too early for a 20-stage sub-threshold chain.
    let one_stage = DeviceModel::umc90().inverter_delay(Volts(0.3)).0;
    sim.run_until(Seconds(t0.0 + one_stage * 3.0));
    assert_eq!(sim.value(last), settled, "propagated past the bound");
    // Completing later works.
    sim.run_until(Seconds(t0.0 + one_stage * 100.0));
    assert_ne!(sim.value(last), settled);
}

#[test]
fn drive_until_drops_a_stale_head_past_the_deadline() {
    // A same-instant pulse cancels the inverter's pending fall (a
    // hazard), and the cancelled entry lies past the deadline. The drive
    // must drop it and give `env` its dry-queue call, not stop there as
    // if a live event lay past the deadline.
    let (nl, input, _) = inverter_chain(1);
    let mut sim = sim_with_constant_vdd(nl, 1.0);
    sim.start();
    sim.run_to_quiescence(10);
    let t0 = sim.now();
    sim.schedule_input(input, t0, true);
    sim.schedule_input(input, t0, false);
    let done = sim.drive_until(t0, |sim| sim.next_event_time().is_none());
    assert!(done, "the drive stopped at the cancelled entry");
    assert_eq!(sim.hazards().len(), 1);
    assert_eq!(sim.now(), t0);
}

#[test]
fn activity_report_attributes_energy_where_it_is_spent() {
    let (nl, input, outs) = inverter_chain(6);
    let mut sim = sim_with_constant_vdd(nl, 1.0);
    sim.start();
    sim.run_to_quiescence(1000);
    sim.schedule_input(input, sim.now(), true);
    sim.run_to_quiescence(1000);
    let report = sim.activity_report();
    // Sorted by energy descending.
    for w in report.windows(2) {
        assert!(w[0].energy >= w[1].energy);
    }
    // Per-gate energies sum to the domain's switching energy.
    let total: f64 = report.iter().map(|r| r.energy.0).sum();
    let domain = sim.domain_id(0);
    let switching = sim.domain(domain).switching_energy().0;
    assert!(
        (total - switching).abs() < 1e-18 + switching * 1e-9,
        "per-gate {total} vs domain {switching}"
    );
    // Every gate that rose carries nonzero energy.
    for r in &report {
        if r.transitions > 0 && sim.value(sim.netlist().gate_ref(r.gate).output()) {
            assert!(r.energy.0 > 0.0 || sim.netlist().gate_ref(r.gate).kind().is_source());
        }
    }
    let _ = outs;
}

/// Per-gate knob settings as the test last applied them.
struct Knobs {
    scale: Vec<f64>,
}

impl Knobs {
    fn new(gates: usize) -> Self {
        Self {
            scale: vec![1.0; gates],
        }
    }

    fn delay_scale(&mut self, sim: &mut Simulator, gate: GateId, scale: f64) {
        self.scale[gate.index()] = scale;
        sim.set_delay_scale(gate, scale);
    }

    /// The gate's output load, evaluated from scratch.
    fn load(&self, sim: &Simulator, gate: GateId) -> Farads {
        let p = sim.device().params();
        let g = sim.netlist().gate_ref(gate);
        let units = sim.netlist().fanout_load_units(g.output());
        Farads(p.drain_cap.0 * g.drive() + p.gate_cap.0 * units)
    }

    /// The gate's delay at `vdd`, evaluated from scratch.
    fn delay(&self, sim: &Simulator, gate: GateId, vdd: Volts) -> Seconds {
        let g = sim.netlist().gate_ref(gate);
        let base = sim
            .device()
            .gate_delay(vdd, self.load(sim, gate), g.drive());
        base * g.kind().delay_factor() * self.scale[gate.index()]
    }
}

/// Drives one edge on `input` to quiescence and checks every firing
/// bit-exactly against the knobs: a gate fires its delay after the edge
/// on its (single distinct) input net, and a rising edge draws `C·V²`
/// from the domain and books what the domain drew to the gate.
fn check_wave(sim: &mut Simulator, knobs: &Knobs, input: NetId, value: bool, vdd: Volts) {
    let domain = sim.domain_id(0);
    let gates: Vec<GateId> = sim.netlist().iter_gates().map(|(id, _)| id).collect();
    let mut edge = vec![f64::NAN; sim.netlist().net_count()];
    sim.schedule_input(input, sim.now(), value);
    loop {
        let drawn_before = sim.domain(domain).switching_energy();
        let booked_before: Vec<Joules> = gates.iter().map(|&g| sim.gate_energy(g)).collect();
        let Some(e) = sim.step() else { break };
        let g = sim.netlist().gate_ref(e.gate);
        if g.kind() != GateKind::Input {
            let expected = edge[g.inputs()[0].index()] + knobs.delay(sim, e.gate, vdd).0;
            assert_eq!(
                e.time.0.to_bits(),
                expected.to_bits(),
                "{} fired at {:e} s, expected {expected:e} s",
                e.gate,
                e.time.0
            );
        }
        edge[e.net.index()] = e.time.0;
        let drawn = sim.domain(domain).switching_energy();
        if e.value {
            let expected = drawn_before + vdd.cv2(knobs.load(sim, e.gate));
            assert_eq!(drawn.0.to_bits(), expected.0.to_bits(), "{} draw", e.gate);
        } else {
            assert_eq!(drawn, drawn_before, "{} drew on a falling edge", e.gate);
        }
        let booked = booked_before[e.gate.index()] + (drawn - drawn_before);
        assert_eq!(
            sim.gate_energy(e.gate).0.to_bits(),
            booked.0.to_bits(),
            "{} booking",
            e.gate
        );
    }
}

#[test]
fn cached_gate_state_follows_knobs_changed_after_start() {
    // A fanout tree behind one input, mixing kinds and drives, in which
    // every gate reads one distinct net.
    let mut nl = Netlist::new();
    let a = nl.input("a");
    let x1 = nl.gate_with_drive(GateKind::Inv, &[a], 2.0, "x1");
    let x2 = nl.gate(GateKind::Buf, &[x1], "x2");
    let x3 = nl.gate(GateKind::Nand, &[x1, x1], "x3");
    let x4 = nl.gate(GateKind::CElement, &[x2, x2], "x4");
    let x5 = nl.gate_with_drive(GateKind::Inv, &[x4], 0.5, "x5");
    let x6 = nl.gate(GateKind::And, &[x3, x3], "x6");
    nl.mark_output(x5);
    nl.mark_output(x6);
    let gate = |net: NetId| nl.driver_of(net).expect("driven");
    let vdd = Volts(0.9);
    let mut sim = Simulator::new(nl.clone(), DeviceModel::umc90());
    let d = sim.add_domain("vdd", SupplyKind::ideal(Waveform::constant(vdd.0)));
    sim.assign_all(d);
    let mut knobs = Knobs::new(nl.gate_count());
    sim.start();
    sim.run_to_quiescence(100);
    // Every gate has fired once, so its delay memo holds a value the
    // knob changes below must invalidate.
    check_wave(&mut sim, &knobs, a, true, vdd);

    knobs.delay_scale(&mut sim, gate(x4), 1.7);
    check_wave(&mut sim, &knobs, a, false, vdd);

    knobs.delay_scale(&mut sim, gate(x3), 0.6);
    check_wave(&mut sim, &knobs, a, true, vdd);

    sim.inject_stuck_at(gate(x4), false);
    sim.run_to_quiescence(100);
    assert_eq!(sim.stuck_at(gate(x4)), Some(false));
    assert_eq!(sim.stuck_at(gate(x5)), None);
    check_wave(&mut sim, &knobs, a, false, vdd);
    assert!(!sim.value(x4), "a stuck gate never switches");

    // The counts date from before per-gate state moved into one record;
    // the energies of x1, x2 and x5, and so the order of x5 and x6, from
    // when the extra-load knob went.
    let gates: Vec<GateId> = nl.iter_gates().map(|(id, _)| id).collect();
    let counts: Vec<u64> = gates.iter().map(|&g| sim.transition_count(g)).collect();
    let energy: Vec<u64> = gates
        .iter()
        .map(|&g| sim.gate_energy(g).0.to_bits())
        .collect();
    let order: Vec<usize> = sim
        .activity_report()
        .iter()
        .map(|r| r.gate.index())
        .collect();
    assert_eq!(counts, [4, 5, 5, 4, 4, 5, 4]);
    assert_eq!(
        energy,
        [
            0x3cf2_3d55_0417_072e,
            0x3d13_6cd6_b3b7_3eaa,
            0x3d11_828f_0e2a_963c,
            0x3d01_dff2_0920_ceb2,
            0x3cf2_3d55_0417_072c,
            0x3cd5_e332_d1b5_3bc4,
            0x3cdd_2eee_6cf1_a500,
        ]
    );
    assert_eq!(order, [1, 2, 3, 0, 4, 6, 5]);
}
