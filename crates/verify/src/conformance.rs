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
//!
//! The product runs on the explorer's own unreduced walk
//! ([`Explorer::walk_unreduced`]): each reachable marking set is
//! interned once, and its index is the tag the walk stores with a
//! circuit state.
//!
//! [`State`]: crate::State

use std::collections::{BTreeSet, HashMap};
use std::convert::Infallible;

use emc_netlist::{Diagnostic, NetId, Severity};
use emc_petri::{Marking, Polarity, SignalId, Stg};
use emc_units::Joules;

use crate::explore::{Explorer, Transition};

/// Checks that every behaviour the explorer can produce on the mapped
/// nets is a trace of `stg`. The product walk is unreduced, whatever
/// reduction `ex` carries, and stores at most the explorer's state cap
/// of (circuit state, marking set) pairs. Returns the diagnostics and
/// whether the walk was exhaustive within that cap.
pub fn check_conformance(
    ex: &Explorer<'_>,
    stg: &Stg,
    map: &[(SignalId, NetId)],
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
    // Every marking set reached so far, interned: a set's tag is its
    // index in `sets`.
    let m0: BTreeSet<Marking> = BTreeSet::from([stg.net().marking()]);
    let mut sets = vec![m0.clone()];
    let mut tags = HashMap::from([(m0, 0u32)]);

    let observe = |tag: u32, t: &Transition| {
        let Some(&(sig, _)) = map.iter().find(|&&(_, net)| net == t.net) else {
            return Some(tag);
        };
        let pol = if t.value {
            Polarity::Plus
        } else {
            Polarity::Minus
        };
        let mut next: BTreeSet<Marking> = BTreeSet::new();
        for m in &sets[tag as usize] {
            for tr in stg.net().transition_ids() {
                if stg.label(tr) != (sig, pol) {
                    continue;
                }
                scratch.set_marking(m);
                if scratch.fire(tr, &mut budget).is_ok() {
                    next.insert(scratch.marking());
                }
            }
        }
        if next.is_empty() {
            let message = format!(
                "circuit can produce {}{} on net '{}', which the STG specification does \
                 not allow here",
                stg.signal_name(sig),
                if t.value { "+" } else { "-" },
                ex.netlist().net_name(t.net),
            );
            // One report per signal edge.
            if !diags.iter().any(|d| d.message == message) {
                diags.push(Diagnostic::new("STG001", Severity::Error, message).at_net(t.net));
            }
            // The branch is off-spec; don't chase it further.
            return None;
        }
        Some(*tags.entry(next).or_insert_with_key(|next| {
            sets.push(next.clone());
            u32::try_from(sets.len() - 1).expect("marking sets fit in u32 tags")
        }))
    };
    let Ok((_, exhaustive)) = ex.walk_unreduced(|_, _, _| Ok::<_, Infallible>(()), observe);
    (diags, exhaustive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{act, EnvAction, NetView};
    use emc_netlist::{GateKind, Netlist};

    /// A four-phase requester: flips `req` whenever `ack` matches it.
    fn requester(req: NetId, ack: NetId) -> impl Fn(u8, &dyn NetView, &mut Vec<EnvAction>) {
        move |_, v, out| {
            if v.value(req) == v.value(ack) {
                out.push(act(req, !v.value(req)));
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
        let (diags, exhaustive) = check_conformance(&ex, &stg, &[(sreq, req), (sack, ack)]);
        assert!(exhaustive);
        assert_eq!(diags, Vec::new());
    }

    /// An inverter as "ack" acknowledges before being asked: it starts
    /// excited, and its first edge, ack+, comes while the handshake still
    /// waits for req+.
    #[test]
    fn eager_ack_violates_handshake() {
        let mut nl = Netlist::new();
        let req = nl.input("req");
        let ack = nl.gate(GateKind::Inv, &[req], "ack");
        nl.mark_output(ack);
        let env = requester(req, ack);
        let ex = Explorer::new(&nl, &env, &[], 10_000);
        let (stg, sreq, sack) = Stg::four_phase_handshake();
        let (diags, exhaustive) = check_conformance(&ex, &stg, &[(sreq, req), (sack, ack)]);
        let messages: Vec<(&str, &str)> = diags.iter().map(|d| (d.rule, &*d.message)).collect();
        assert_eq!(
            messages,
            [(
                "STG001",
                "circuit can produce ack+ on net 'ack', which the STG specification does not \
                 allow here"
            )]
        );
        assert!(exhaustive);
    }
}
