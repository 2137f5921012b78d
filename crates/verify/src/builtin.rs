//! The built-in verification suite: every circuit family the repository
//! models, closed by a protocol-correct environment, plus deliberately
//! broken fixtures for the known-bad rules.
//!
//! Each environment is an explicit state machine over the circuit's
//! input nets. The speed-independent circuits (counter, WCHB,
//! micropipeline, SRAM control, DIMS adder) get environments that follow
//! the handshake/dual-rail protocol and never disable an excited gate;
//! the bundled-data pipeline gets a *bundling-disciplined* environment
//! (data changes only while the request is at rest and the circuit is
//! quiescent), which models the matched-delay assumption the design is
//! built on — its D flip-flops still carry pinned `TA001` warnings.

use std::sync::Arc;

use emc_async::{
    BundledPipeline, DualRailAdder, DualRailPipeline, MullerPipeline, ToggleRippleCounter,
};
use emc_netlist::{DualRail, GateKind, NetId, Netlist};
use emc_petri::Stg;

use crate::env::{
    act, part, EnvAction, EnvModel, FillDrainEnv, MicropipelineEnv, NetView, WchbEnv,
};
use crate::reduce::{EnvFootprint, EnvPart};
use crate::Circuit;

/// The counter's pulse source: flips `pulse` into a quiescent counter
/// only (fundamental mode).
struct PulseEnv {
    pulse: NetId,
}

impl EnvModel for PulseEnv {
    fn step(&self, _state: u8, view: &dyn NetView, out: &mut Vec<EnvAction>) {
        if view.quiescent() {
            out.push(act(self.pulse, !view.value(self.pulse)));
        }
    }

    fn footprint(&self) -> Option<EnvFootprint> {
        Some(EnvFootprint::new(vec![EnvPart {
            uses_quiescence: true,
            ..part(1, &[self.pulse], &[self.pulse])
        }]))
    }
}

/// Fig. 9/10 charge-to-digital core: a toggle ripple counter driven by a
/// pulse source. The pulse source is modelled fundamental-mode (it only
/// fires into a quiescent counter), as the paper's self-timed pulse
/// generator — whose period is the ring's own settling time — guarantees
/// by construction.
fn counter(bits: usize) -> Circuit<'static> {
    let mut nl = Netlist::new();
    let pulse = nl.input("pulse");
    ToggleRippleCounter::build(&mut nl, bits, pulse, "cnt");
    let mut circuit = Circuit::new("counter", nl, Arc::new(PulseEnv { pulse }));
    // The carry inverters idle high (their q inputs idle low); starting
    // them low would make the initial state inconsistent and arm the
    // next toggle spuriously.
    for i in 0..bits.saturating_sub(1) {
        let carry = circuit
            .netlist
            .find_net(&format!("cnt.carry{i}"))
            .expect("counter carry net exists");
        circuit.initial.push((carry, true));
    }
    circuit
}

/// Design 1: the WCHB dual-rail pipeline with a fully reactive 4-phase
/// sender and receiver — no timing assumption on either side.
fn wchb(stages: usize) -> Circuit<'static> {
    let mut nl = Netlist::new();
    let p = DualRailPipeline::build(&mut nl, stages, "p");
    Circuit::new("wchb", nl, Arc::new(WchbEnv::for_pipeline(&p)))
}

/// The Muller-pipeline control chain with a 4-phase sender at the head
/// and an eager consumer at the tail, checked against the four-phase
/// handshake STG on its (request, first-stage) interface.
fn micropipeline(stages: usize) -> Circuit<'static> {
    let mut nl = Netlist::new();
    let p = MullerPipeline::build(&mut nl, stages, "mp");
    let env = MicropipelineEnv::for_pipeline(&p);
    let (stg, sreq, sack) = Stg::four_phase_handshake();
    let map = vec![(sreq, env.req), (sack, env.head)];
    Circuit::new("micropipeline", nl, Arc::new(env)).with_stg(stg, map)
}

/// The bundled-data pipeline's bundling-disciplined producer: at rest
/// (state 0) it wiggles `data` or launches a request, both only while
/// the logic has settled and `ack` is low; launched (state 1) it
/// withdraws the request once acknowledged.
struct BundlingEnv {
    data: NetId,
    req: NetId,
    ack: NetId,
}

impl EnvModel for BundlingEnv {
    fn step(&self, state: u8, view: &dyn NetView, out: &mut Vec<EnvAction>) {
        match state {
            0 if view.quiescent() && !view.value(self.ack) => out.extend([
                act(self.data, !view.value(self.data)),
                EnvAction {
                    net: self.req,
                    value: true,
                    next: 1,
                },
            ]),
            0 => {}
            _ if view.value(self.ack) => out.push(act(self.req, false)),
            _ => {}
        }
    }

    fn footprint(&self) -> Option<EnvFootprint> {
        Some(EnvFootprint::new(vec![EnvPart {
            uses_quiescence: true,
            stateful: true,
            ..part(1, &[self.data, self.req, self.ack], &[self.data, self.req])
        }]))
    }
}

/// Design 2: the bundled-data pipeline under a bundling-disciplined
/// environment. Clean of errors, but every capture flip-flop carries a
/// pinned `TA001` timing-assumption warning — the static trace of the
/// assumption Fig. 6's Vdd floor comes from.
fn bundled(stages: usize) -> Circuit<'static> {
    let mut nl = Netlist::new();
    let p = BundledPipeline::build(&mut nl, stages, 2, 1.5, "bd");
    let env = BundlingEnv {
        data: p.data_in()[0],
        req: p.req_in(),
        ack: p.ack(),
    };
    let mut circuit = Circuit::new("bundled", nl, Arc::new(env));
    // Each stage's first logic inverter idles high (its data input idles
    // low); see `counter` for why the initial state must be consistent.
    for s in 0..stages {
        let l0 = circuit
            .netlist
            .find_net(&format!("bd.s{s}.b0.l0"))
            .expect("bundled logic net exists");
        circuit.initial.push((l0, true));
    }
    circuit
}

/// The SRAM read's four-phase requester: raises `req` once `done` is
/// low and lowers it once `done` is high.
struct ReadRequestEnv {
    req: NetId,
    done: NetId,
}

impl EnvModel for ReadRequestEnv {
    fn step(&self, _state: u8, view: &dyn NetView, out: &mut Vec<EnvAction>) {
        let req = view.value(self.req);
        if req == view.value(self.done) {
            out.push(act(self.req, !req));
        }
    }

    fn footprint(&self) -> Option<EnvFootprint> {
        Some(EnvFootprint::new(vec![part(
            1,
            &[self.req, self.done],
            &[self.req],
        )]))
    }
}

/// Fig. 5: SRAM read-completion control. The word line is gated by a
/// C-element rendezvous of the request and the (inverted) bit-line
/// completion, so the acknowledge genuinely *follows* the read — the
/// speed-independent alternative to the broken fixture's clocked read.
/// Checked against the four-phase handshake STG on (req, done).
fn sram_control() -> Circuit<'static> {
    let mut nl = Netlist::new();
    let req = nl.input("sram.req");
    let cell = nl.input("sram.cell");
    let ncell = nl.gate(GateKind::Inv, &[cell], "sram.ncell");
    let wl = nl.gate(GateKind::CElement, &[req, req], "sram.wl");
    let bt = nl.gate(GateKind::And, &[wl, cell], "sram.bit.t");
    let bf = nl.gate(GateKind::And, &[wl, ncell], "sram.bit.f");
    let done = nl.gate(GateKind::Or, &[bt, bf], "sram.done");
    let nack = nl.gate(GateKind::Inv, &[done], "sram.nack");
    nl.connect_feedback(wl, nack);
    nl.mark_output(bt);
    nl.mark_output(bf);
    nl.mark_output(done);
    let (stg, sreq, sack) = Stg::four_phase_handshake();
    Circuit::new("sram", nl, Arc::new(ReadRequestEnv { req, done }))
        .with_initial(cell, true)
        .with_stg(stg, vec![(sreq, req), (sack, done)])
}

/// The DIMS dual-rail ripple-carry adder under a 4-phase dual-rail
/// environment: fill with codewords (free rail choice per operand) until
/// completion, then drain to spacer until completion clears.
fn adder() -> Circuit<'static> {
    let mut nl = Netlist::new();
    let add = DualRailAdder::build(&mut nl, 1, "add");
    let rail = |name: &str| nl.find_net(name).expect("adder input rail");
    let pairs = ["a0", "b0"]
        .map(|op| DualRail {
            t: rail(&format!("add.{op}.t")),
            f: rail(&format!("add.{op}.f")),
        })
        .to_vec();
    let env = FillDrainEnv {
        pairs,
        done: add.done(),
    };
    Circuit::new("adder", nl, Arc::new(env))
}

/// The full built-in suite, in a fixed order. `smoke` shrinks the
/// parametric circuits (fewer stages/bits) for a fast CI gate; the rule
/// coverage is identical.
pub fn builtin_suite(smoke: bool) -> Vec<Circuit<'static>> {
    let (cnt_bits, wchb_stages, mp_stages, bd_stages) =
        if smoke { (2, 1, 2, 1) } else { (3, 2, 3, 2) };
    vec![
        counter(cnt_bits),
        wchb(wchb_stages),
        micropipeline(mp_stages),
        bundled(bd_stages),
        sram_control(),
        adder(),
    ]
}

/// Deliberately broken circuits with the **exact** distinct rule set
/// each must trigger (golden data for tests and `emc-lint`'s
/// self-check).
pub fn broken_suite() -> Vec<(Circuit<'static>, &'static [&'static str])> {
    vec![
        (hazard_glitch(), &["SI001"]),
        (dual_rail_short(), &["CD001", "DR001", "DR002"]),
        (unbundled_sram(), &["SI001", "TA001"]),
        (structural_mess(), &["NET001", "NET002", "NET003"]),
    ]
}

/// `y = a ∧ ¬a` — the textbook static hazard: the inverter firing
/// disables the excited AND (and the free-running input disables the
/// inverter). Not speed-independent under any delay assignment.
fn hazard_glitch() -> Circuit<'static> {
    let mut nl = Netlist::new();
    let a = nl.input("a");
    let na = nl.gate(GateKind::Inv, &[a], "na");
    let y = nl.gate(GateKind::And, &[a, na], "y");
    nl.mark_output(y);
    Circuit::new(
        "hazard_glitch",
        nl,
        Arc::new(move |_: u8, v: &dyn NetView, out: &mut Vec<EnvAction>| {
            out.push(act(a, !v.value(a)));
        }),
    )
}

/// Both rails of a "dual-rail" output wired to the same request: the
/// codeword (1,1) is reachable, valid codewords are overwritten without
/// a spacer, and no completion detector observes the pair.
fn dual_rail_short() -> Circuit<'static> {
    let mut nl = Netlist::new();
    let req = nl.input("req");
    let t = nl.gate(GateKind::Buf, &[req], "x.t");
    let f = nl.gate(GateKind::Buf, &[req], "x.f");
    nl.mark_output(t);
    nl.mark_output(f);
    Circuit::new(
        "dual_rail_short",
        nl,
        Arc::new(move |_: u8, v: &dyn NetView, out: &mut Vec<EnvAction>| {
            // Well-behaved driver (waits for both buffers) so the
            // findings are purely the dual-rail protocol ones.
            if v.value(t) == v.value(req) && v.value(f) == v.value(req) {
                out.push(act(req, !v.value(req)));
            }
        }),
    )
}

/// Fig. 5's cautionary tale: an SRAM read latched by the *raw* request
/// (no matched delay, no completion) — the data path races the clock
/// edge, which surfaces as persistence violations on the data logic,
/// plus the flip-flop's standing timing-assumption warning.
fn unbundled_sram() -> Circuit<'static> {
    let mut nl = Netlist::new();
    let req = nl.input("req");
    let cell = nl.input("cell");
    let sense = nl.gate(GateKind::Buf, &[req], "sense");
    let bit = nl.gate(GateKind::And, &[sense, cell], "bit");
    let q = nl.gate(GateKind::Dff, &[req, bit], "q");
    nl.mark_output(q);
    Circuit::new(
        "unbundled_sram",
        nl,
        Arc::new(move |_: u8, v: &dyn NetView, out: &mut Vec<EnvAction>| {
            out.push(act(req, !v.value(req)));
        }),
    )
    .with_initial(cell, true)
}

/// Every structural rule at once: a combinational loop, a multiply-
/// driven net (modelled short) and the floating net the short leaves
/// behind.
fn structural_mess() -> Circuit<'static> {
    let mut nl = Netlist::new();
    let a = nl.input("a");
    let x = nl.gate(GateKind::And, &[a, a], "x");
    let y = nl.gate(GateKind::Inv, &[x], "y");
    nl.connect_feedback(x, y);
    nl.mark_output(y);
    let orphan = nl.gate(GateKind::Buf, &[a], "orphan");
    let short = nl.driver_of(orphan).expect("buffer just built");
    nl.rewire_output(short, x);
    let inert = |_: u8, _: &dyn NetView, _: &mut Vec<EnvAction>| {};
    Circuit::new("structural_mess", nl, Arc::new(inert))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Verifier;

    #[test]
    fn all_builtin_circuits_are_clean() {
        let verifier = Verifier::new();
        for circuit in builtin_suite(true) {
            let report = verifier.verify(&circuit);
            assert!(
                report.is_clean(),
                "{} not clean: {:#?}",
                report.circuit,
                report.diagnostics
            );
            assert!(report.exhaustive, "{} exploration capped", report.circuit);
        }
    }

    #[test]
    fn only_bundled_carries_warnings() {
        let verifier = Verifier::new();
        for circuit in builtin_suite(true) {
            let report = verifier.verify(&circuit);
            let expected: &[&str] = if report.circuit == "bundled" {
                &["TA001"]
            } else {
                &[]
            };
            assert_eq!(
                report.distinct_rules(),
                expected,
                "{} rules: {:#?}",
                report.circuit,
                report.diagnostics
            );
        }
    }

    /// Each builtin's explored state count at full size and at smoke
    /// size, in suite order.
    const STATES: [(&str, usize, usize); 6] = [
        ("counter", 42, 18),
        ("wchb", 132, 30),
        ("micropipeline", 108, 36),
        ("bundled", 188, 34),
        ("sram", 12, 12),
        ("adder", 603, 603),
    ];

    /// The pinned state count of `circuit` at the given size.
    fn pinned_states(circuit: &str, smoke: bool) -> usize {
        let &(_, full, small) = STATES
            .iter()
            .find(|(name, ..)| *name == circuit)
            .unwrap_or_else(|| panic!("{circuit} has no pinned state count"));
        if smoke {
            small
        } else {
            full
        }
    }

    #[test]
    fn full_suite_is_clean_too() {
        let verifier = Verifier::new();
        let suite = builtin_suite(false);
        assert_eq!(suite.len(), STATES.len());
        for (circuit, (name, states, _)) in suite.iter().zip(STATES) {
            let report = verifier.verify(circuit);
            assert!(
                report.is_clean() && report.exhaustive,
                "{}: {:#?}",
                report.circuit,
                report.diagnostics
            );
            assert_eq!(report.circuit, name);
            assert_eq!(report.states, states, "{name}");
        }
    }

    #[test]
    fn broken_fixtures_trigger_exactly_their_rules() {
        let verifier = Verifier::new();
        for (circuit, expected) in broken_suite() {
            let report = verifier.verify(&circuit);
            assert_eq!(
                report.distinct_rules(),
                *expected,
                "{}: {:#?}",
                report.circuit,
                report.diagnostics
            );
        }
    }

    /// The golden equivalence gate for reduction: on every builtin (and
    /// every broken fixture) the reduced explorer must agree with the
    /// full one on rules, cleanliness, and exhaustiveness, and never
    /// visit more states.
    #[test]
    fn reduction_preserves_builtin_verdicts() {
        for smoke in [true, false] {
            let full: Vec<_> = builtin_suite(smoke)
                .iter()
                .map(|c| Verifier::new().verify(c))
                .collect();
            let reduced: Vec<_> = builtin_suite(smoke)
                .iter()
                .map(|c| Verifier::new().with_reduction(true).verify(c))
                .collect();
            // The builtins are deliberately tight handshakes — almost
            // everything interferes, so nothing shrinks here (the
            // generated disjoint-row families are where reduction bites;
            // see `tests/static_analysis.rs` at the workspace root).
            // What this gate pins is *equivalence*, down to the count.
            for (f, r) in full.iter().zip(&reduced) {
                assert_eq!(f.distinct_rules(), r.distinct_rules(), "{}", f.circuit);
                assert_eq!(f.is_clean(), r.is_clean(), "{}", f.circuit);
                assert_eq!(f.exhaustive, r.exhaustive, "{}", f.circuit);
                let states = pinned_states(&f.circuit, smoke);
                assert_eq!(f.states, states, "{} full, smoke {smoke}", f.circuit);
                assert_eq!(r.states, states, "{} reduced, smoke {smoke}", f.circuit);
            }
        }
        for (circuit, expected) in broken_suite() {
            let report = Verifier::new().with_reduction(true).verify(&circuit);
            assert_eq!(report.distinct_rules(), *expected, "{}", report.circuit);
        }
    }

    /// Every builtin's validated symmetry (if any) must commute with
    /// the transition relation on the unreduced graph.
    #[test]
    fn builtin_orbits_commute() {
        for circuit in builtin_suite(true) {
            let checked = crate::reduce::orbit_commutation_check(&circuit, 20_000)
                .unwrap_or_else(|e| panic!("{}: {e}", circuit.name));
            let _ = checked;
        }
    }
}
