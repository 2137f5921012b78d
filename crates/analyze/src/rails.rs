//! Structural rules over dual-rail pairs and timing-assumption gates.
//!
//! Rail pairs follow the repo-wide naming convention established by
//! [`emc_netlist::DualRail::input`]: a signal `x` occupies nets `x.t`
//! and `x.f`. Discovery is purely name-based so hand-built circuits are
//! covered the same as builder-produced ones.
//!
//! These rules predate the rest of the static analyzer (they grew up
//! inside emc-verify) and moved here so the zero-exploration lint tier,
//! the fuzzer pre-filter, and the verifier all share one implementation.
//! `emc_verify` re-exports the public items at its root.

use emc_netlist::{Diagnostic, GateKind, NetId, Netlist, Severity};

/// A discovered dual-rail pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RailPair {
    /// The logical signal name (without the `.t`/`.f` suffix).
    pub name: String,
    /// The true rail.
    pub t: NetId,
    /// The false rail.
    pub f: NetId,
}

/// Finds every `.t`/`.f` net-name pair in the netlist, in net order.
pub fn discover_rail_pairs(netlist: &Netlist) -> Vec<RailPair> {
    let mut pairs = Vec::new();
    for t in netlist.iter_nets() {
        let name = netlist.net_name(t);
        if let Some(base) = name.strip_suffix(".t") {
            if let Some(f) = netlist.find_net(&format!("{base}.f")) {
                pairs.push(RailPair {
                    name: base.to_owned(),
                    t,
                    f,
                });
            }
        }
    }
    pairs
}

/// `CD001`: a dual-rail pair whose **both** rails are marked as circuit
/// outputs should feed a completion detector (at minimum the per-bit
/// validity OR of Fig. 4's Design 1); a pair no OR gate observes cannot
/// contribute to done-signal generation, so the receiver has no
/// speed-independent way to know the bit arrived.
pub fn check_completion_coverage(netlist: &Netlist, pairs: &[RailPair]) -> Vec<Diagnostic> {
    let outputs = netlist.outputs();
    let mut diags = Vec::new();
    for p in pairs {
        if !(outputs.contains(&p.t) && outputs.contains(&p.f)) {
            continue;
        }
        let covered = netlist.iter_gates().any(|(_, g)| {
            matches!(g.kind(), GateKind::Or | GateKind::Nor)
                && g.inputs().contains(&p.t)
                && g.inputs().contains(&p.f)
        });
        if !covered {
            diags.push(
                Diagnostic::new(
                    "CD001",
                    Severity::Warning,
                    format!(
                        "dual-rail output '{}' is not observed by any completion \
                         detector (no OR over both rails)",
                        p.name
                    ),
                )
                .at_net(p.t),
            );
        }
    }
    diags
}

/// `TA001`: every D flip-flop embodies a bundling (set-up/hold) timing
/// assumption — its data input must settle before the clock edge, which
/// unbounded-delay analysis cannot certify. Bundled-data designs carry
/// these by construction (the paper's Design 2 trades them for area);
/// the rule pins where the assumption lives. Toggles are *not* flagged:
/// the paper's counter toggle (Fig. 10, ref \[3\]) is itself a
/// speed-independent circuit that we model as a primitive, and lost
/// events on it are caught dynamically by `SI001` overrun detection.
pub fn check_timing_assumptions(netlist: &Netlist) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (gid, g) in netlist.iter_gates() {
        if g.kind() == GateKind::Dff {
            diags.push(
                Diagnostic::new(
                    "TA001",
                    Severity::Warning,
                    format!(
                        "D flip-flop {gid} ('{}') relies on a bundling timing \
                         assumption (data stable before clock edge)",
                        netlist.net_name(g.output())
                    ),
                )
                .at_gate(gid)
                .at_net(g.output()),
            );
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use emc_netlist::{DualRail, Netlist};

    #[test]
    fn discovers_builder_pairs() {
        let mut nl = Netlist::new();
        let a = DualRail::input(&mut nl, "a");
        let pairs = discover_rail_pairs(&nl);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].name, "a");
        assert_eq!(pairs[0].t, a.t);
        assert_eq!(pairs[0].f, a.f);
    }

    #[test]
    fn uncovered_output_pair_warns_and_covered_does_not() {
        let mut nl = Netlist::new();
        let a = DualRail::input(&mut nl, "a");
        let b = DualRail::input(&mut nl, "b");
        nl.mark_output(a.t);
        nl.mark_output(a.f);
        nl.mark_output(b.t);
        nl.mark_output(b.f);
        nl.gate(GateKind::Or, &[b.t, b.f], "b.v");
        let pairs = discover_rail_pairs(&nl);
        let diags = check_completion_coverage(&nl, &pairs);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "CD001");
        assert_eq!(diags[0].net, Some(a.t));
    }

    #[test]
    fn internal_pairs_are_exempt_from_cd001() {
        let mut nl = Netlist::new();
        DualRail::input(&mut nl, "x");
        let pairs = discover_rail_pairs(&nl);
        assert_eq!(pairs.len(), 1);
        assert!(check_completion_coverage(&nl, &pairs).is_empty());
    }

    #[test]
    fn dff_is_flagged_toggle_is_not() {
        let mut nl = Netlist::new();
        let clk = nl.input("clk");
        let d = nl.input("d");
        nl.gate(GateKind::Dff, &[clk, d], "q");
        nl.gate(GateKind::Toggle, &[clk], "t");
        let diags = check_timing_assumptions(&nl);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "TA001");
    }
}
