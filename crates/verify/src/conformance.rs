//! `STG001` — conformance of simulated circuit behaviour to an STG
//! specification.
//!
//! The check is a product construction between the circuit's reachable
//! state graph (under its environment) and the subset construction of
//! the STG: each combined state is a circuit [`State`] paired with the
//! *set* of STG markings consistent with the trace so far. A transition
//! on a mapped net must be matched by at least one enabled, identically
//! labelled STG transition from some marking in the set; an empty
//! successor set means the circuit produced an edge the specification
//! does not allow.

use std::collections::{BTreeSet, HashSet, VecDeque};

use emc_netlist::{Diagnostic, NetId, Severity};
use emc_petri::{Marking, Polarity, SignalId, Stg};
use emc_units::Joules;

use crate::explore::{Explorer, State};

/// Checks that every behaviour the explorer can produce on the mapped
/// nets is a trace of `stg`. Returns the diagnostics and whether the
/// product graph was explored exhaustively within `cap` combined states.
pub fn check_conformance(
    ex: &Explorer<'_>,
    stg: &Stg,
    map: &[(SignalId, NetId)],
    cap: usize,
) -> (Vec<Diagnostic>, bool) {
    let mut diags = Vec::new();
    let initial = ex.initial_state();

    // The STG's declared initial levels must agree with the circuit's
    // initial net values, or every subsequent edge is off by a phase.
    for &(sig, net) in map {
        let circuit = initial.value(net);
        if circuit != stg.initial_level(sig) {
            diags.push(
                Diagnostic::new(
                    "STG001",
                    Severity::Error,
                    format!(
                        "initial level of net '{}' ({}) disagrees with STG signal \
                         '{}' ({})",
                        ex.netlist().net_name(net),
                        u8::from(circuit),
                        stg.signal_name(sig),
                        u8::from(stg.initial_level(sig)),
                    ),
                )
                .at_net(net),
            );
        }
    }
    if !diags.is_empty() {
        return (diags, true);
    }

    // Scratch net for firing candidate transitions.
    let mut scratch = stg.net().clone();
    let mut budget = Joules(f64::INFINITY);

    let advance = |marks: &BTreeSet<Marking>,
                   sig: SignalId,
                   pol: Polarity,
                   scratch: &mut emc_petri::PetriNet,
                   budget: &mut Joules| {
        let mut next: BTreeSet<Marking> = BTreeSet::new();
        for m in marks {
            for t in stg.net().transition_ids() {
                if stg.label(t) != (sig, pol) {
                    continue;
                }
                scratch.set_marking(m);
                if scratch.fire(t, budget).is_ok() {
                    next.insert(scratch.marking());
                }
            }
        }
        next
    };

    type Combined = (State, BTreeSet<Marking>);
    let m0: BTreeSet<Marking> = BTreeSet::from([stg.net().marking()]);
    let start: Combined = (initial, m0);
    let mut seen: HashSet<Combined> = HashSet::new();
    let mut queue: VecDeque<Combined> = VecDeque::new();
    let mut exhaustive = true;
    seen.insert(start.clone());
    queue.push_back(start);

    'bfs: while let Some((s, marks)) = queue.pop_front() {
        let internal = ex.internal_enabled(&s);
        let env = ex.env_enabled(&s, internal.is_empty());
        for t in internal.iter().chain(env.iter()) {
            let (next_s, _) = ex.apply(&s, t);
            let mapped = map.iter().find(|&&(_, net)| net == t.net);
            let next_marks = match mapped {
                None => marks.clone(),
                Some(&(sig, _)) => {
                    let pol = if t.value {
                        Polarity::Plus
                    } else {
                        Polarity::Minus
                    };
                    let advanced = advance(&marks, sig, pol, &mut scratch, &mut budget);
                    if advanced.is_empty() {
                        let suffix = match pol {
                            Polarity::Plus => "+",
                            Polarity::Minus => "-",
                        };
                        diags.push(
                            Diagnostic::new(
                                "STG001",
                                Severity::Error,
                                format!(
                                    "circuit can produce {}{} on net '{}', which the \
                                     STG specification does not allow here",
                                    stg.signal_name(sig),
                                    suffix,
                                    ex.netlist().net_name(t.net),
                                ),
                            )
                            .at_net(t.net),
                        );
                        // The branch is off-spec; don't chase it further.
                        continue;
                    }
                    advanced
                }
            };
            let combined = (next_s, next_marks);
            if !seen.contains(&combined) {
                if seen.len() >= cap {
                    exhaustive = false;
                    break 'bfs;
                }
                seen.insert(combined.clone());
                queue.push_back(combined);
            }
        }
    }

    // Deduplicate by (net, message-class): one report per signal/edge.
    let mut unique = Vec::new();
    let mut keys: HashSet<String> = HashSet::new();
    for d in diags {
        if keys.insert(d.message.clone()) {
            unique.push(d);
        }
    }
    (unique, exhaustive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{act, EnvAction, NetView};
    use emc_netlist::{GateKind, Netlist};

    /// A four-phase requester: flips `req` whenever `ack` matches it.
    fn requester(req: NetId, ack: NetId) -> impl Fn(u8, &dyn NetView) -> Vec<EnvAction> {
        move |_, v| {
            if v.value(req) == v.value(ack) {
                vec![act(req, !v.value(req))]
            } else {
                Vec::new()
            }
        }
    }

    /// `ack = buf(buf(req))` driven by a 4-phase environment conforms to
    /// the handshake STG.
    #[test]
    fn four_phase_buffer_conforms() {
        let mut nl = Netlist::new();
        let req = nl.input("req");
        let d = nl.gate(GateKind::Buf, &[req], "d");
        let ack = nl.gate(GateKind::Buf, &[d], "ack");
        nl.mark_output(ack);
        let env = requester(req, ack);
        let ex = Explorer::new(&nl, &env, &[], 10_000);
        let (stg, sreq, sack) = Stg::four_phase_handshake();
        let (diags, exhaustive) = check_conformance(&ex, &stg, &[(sreq, req), (sack, ack)], 10_000);
        assert!(exhaustive);
        assert_eq!(diags, Vec::new());
    }

    /// An inverter as "ack" acknowledges before being asked: its very
    /// first edge (ack+ while req is low... actually ack starts excited)
    /// violates the handshake protocol.
    #[test]
    fn eager_ack_violates_handshake() {
        let mut nl = Netlist::new();
        let req = nl.input("req");
        let ack = nl.gate(GateKind::Inv, &[req], "ack");
        nl.mark_output(ack);
        let env = requester(req, ack);
        let ex = Explorer::new(&nl, &env, &[], 10_000);
        let (stg, sreq, sack) = Stg::four_phase_handshake();
        let (diags, _) = check_conformance(&ex, &stg, &[(sreq, req), (sack, ack)], 10_000);
        assert!(
            diags.iter().any(|d| d.rule == "STG001"),
            "expected STG001, got {diags:?}"
        );
    }
}
