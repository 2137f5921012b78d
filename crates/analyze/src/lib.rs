//! # emc-analyze — static netlist analysis
//!
//! The paper's speed-independence guarantees are structural properties
//! of the circuit graph; this crate derives the structural facts once,
//! without exploring any states, and hands them to three consumers:
//!
//! - **emc-verify** consumes the [`Interference`] matrix for
//!   persistent-set partial-order reduction and the [`Orbits`] partition
//!   for symmetry-quotiented state canonicalization;
//! - **emc-lint `--static`** reports the `SA` rule diagnostics (plus the
//!   rail rules that moved here from emc-verify) with zero exploration;
//! - **emc-fuzz** uses static errors as a pre-filter before the
//!   expensive differential oracle.
//!
//! ## Rule registry
//!
//! | rule | severity | finding |
//! |------|----------|---------|
//! | SA001 | warning | unpaired dual-rail net (`x.t` without `x.f`) |
//! | SA002 | warning | completion detectors of a component never converge |
//! | SA003 | warning | closed token-free cycle, stable at the initial state |
//! | SA004 | info | isochronic fork (unacknowledged branch into absorbing gate) |
//! | SA005 | info | gate reads one net in several input slots |
//! | SA006 | error | rails of a pair driven by identical functions |
//!
//! The registry is exported as [`RULES`]; a self-test keeps the table
//! in DESIGN.md in sync with it.

mod independence;
mod lints;
mod orbits;
mod rails;

use std::time::Instant;

use emc_netlist::{Diagnostic, NetId, Netlist, Severity};
use emc_obs::Telemetry;

pub use independence::{may_interfere_matrix, Interference};
use lints::structural_lints;
pub use orbits::{detect_orbits, OrbitGroup, OrbitMember, Orbits};
pub use rails::{
    check_completion_coverage, check_timing_assumptions, discover_rail_pairs, RailPair,
};

/// One entry of the static-analysis rule registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleInfo {
    /// Stable rule identifier (`SA…`).
    pub id: &'static str,
    /// Severity every diagnostic of this rule carries.
    pub severity: Severity,
    /// One-line summary, mirrored in DESIGN.md.
    pub summary: &'static str,
}

/// Registry of the structural `SA` rules this crate can emit. The
/// rail-protocol rules (`CD001`, `TA001`) and the netlist
/// well-formedness rules (`NET00x`) are owned by their home modules but
/// ride along in [`Analysis::diagnostics`].
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "SA001",
        severity: Severity::Warning,
        summary: "unpaired dual-rail net (`x.t` without `x.f`)",
    },
    RuleInfo {
        id: "SA002",
        severity: Severity::Warning,
        summary: "completion detectors of a component never converge",
    },
    RuleInfo {
        id: "SA003",
        severity: Severity::Warning,
        summary: "closed token-free cycle, stable at the initial state",
    },
    RuleInfo {
        id: "SA004",
        severity: Severity::Info,
        summary: "isochronic fork (unacknowledged branch into absorbing gate)",
    },
    RuleInfo {
        id: "SA005",
        severity: Severity::Info,
        summary: "gate reads one net in several input slots",
    },
    RuleInfo {
        id: "SA006",
        severity: Severity::Error,
        summary: "rails of a pair driven by identical functions",
    },
];

/// The full static-analysis result for one netlist.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Every finding — `NET00x` validation, `CD001`/`TA001` rail rules,
    /// and the `SA` lints — sorted by severity (errors first), then
    /// rule, net, gate, message: the same order `emc_verify::Report`
    /// uses.
    pub diagnostics: Vec<Diagnostic>,
    /// Discovered dual-rail pairs (net order).
    pub pairs: Vec<RailPair>,
    /// Conservative may-interfere relation over gate firings.
    pub interference: Interference,
    /// Verified symmetry orbits (empty when validation failed).
    pub orbits: Orbits,
}

impl Analysis {
    /// Findings at [`Severity::Error`].
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Whether any error-severity finding exists.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// Sorted, deduplicated rule ids present in the diagnostics.
    pub fn distinct_rules(&self) -> Vec<&'static str> {
        let mut rules: Vec<&'static str> = self.diagnostics.iter().map(|d| d.rule).collect();
        rules.sort_unstable();
        rules.dedup();
        rules
    }
}

/// Runs every static pass over `netlist` with the explorer's initial
/// net-value overrides (used by the deadlock-candidate lint).
pub fn analyze(netlist: &Netlist, initial: &[(NetId, bool)]) -> Analysis {
    analyze_with(netlist, initial, None)
}

/// [`analyze`], recording per-pass counters and timing gauges into
/// `telemetry` when given. Counter values are deterministic functions
/// of the netlist; the `*.micros` gauges are wall-clock and must stay
/// out of digests.
pub(crate) fn analyze_with(
    netlist: &Netlist,
    initial: &[(NetId, bool)],
    telemetry: Option<&mut Telemetry>,
) -> Analysis {
    let mut pass_micros = Vec::with_capacity(5);
    let mut timed = |name: &'static str, micros: u64| {
        pass_micros.push((name, micros));
    };

    let t0 = Instant::now();
    let mut diagnostics = netlist.validate();
    timed("validate", t0.elapsed().as_micros() as u64);

    let t0 = Instant::now();
    let pairs = discover_rail_pairs(netlist);
    diagnostics.extend(check_completion_coverage(netlist, &pairs));
    diagnostics.extend(check_timing_assumptions(netlist));
    timed("rails", t0.elapsed().as_micros() as u64);

    let t0 = Instant::now();
    let (sa, fork_stats) = structural_lints(netlist, &pairs, initial);
    diagnostics.extend(sa);
    timed("lints", t0.elapsed().as_micros() as u64);

    let t0 = Instant::now();
    let interference = may_interfere_matrix(netlist, &pairs);
    timed("independence", t0.elapsed().as_micros() as u64);

    let t0 = Instant::now();
    let orbits = detect_orbits(netlist, &pairs);
    timed("orbits", t0.elapsed().as_micros() as u64);

    diagnostics.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.rule.cmp(b.rule))
            .then_with(|| a.net.cmp(&b.net))
            .then_with(|| a.gate.cmp(&b.gate))
            .then_with(|| a.message.cmp(&b.message))
    });

    if let Some(t) = telemetry {
        let findings = t.metrics.counter("analyze.findings");
        t.metrics.inc(findings, diagnostics.len() as u64);
        let pairs_c = t.metrics.counter("analyze.independence.pairs");
        t.metrics.inc(pairs_c, interference.pair_count() as u64);
        let groups = t.metrics.counter("analyze.orbits.groups");
        t.metrics.inc(groups, orbits.group_count() as u64);
        let members = t.metrics.counter("analyze.orbits.members");
        t.metrics.inc(members, orbits.member_count() as u64);
        let forks = t.metrics.counter("analyze.forks.isochronic");
        t.metrics.inc(forks, fork_stats.isochronic as u64);
        for &(name, micros) in &pass_micros {
            // Wall-clock: gauge only, never digested.
            let g = t.metrics.gauge(format!("analyze.pass.{name}.micros"));
            t.metrics.set_gauge(g, micros as f64);
        }
    }

    Analysis {
        diagnostics,
        pairs,
        interference,
        orbits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emc_netlist::GateKind;

    #[test]
    fn registry_ids_are_unique_sorted_and_match_emitted_severities() {
        let ids: Vec<&str> = RULES.iter().map(|r| r.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids, sorted, "registry must be sorted and duplicate-free");
        assert!(ids.iter().all(|id| id.starts_with("SA")));
    }

    #[test]
    fn analysis_aggregates_all_passes() {
        let mut nl = Netlist::new();
        let req = nl.input("req");
        let t = nl.gate(GateKind::Buf, &[req], "x.t");
        let f = nl.gate(GateKind::Buf, &[req], "x.f");
        nl.mark_output(t);
        nl.mark_output(f);
        let a = analyze(&nl, &[]);
        assert!(a.has_errors(), "SA006 is an error");
        assert!(a.distinct_rules().contains(&"SA006"));
        assert!(a.distinct_rules().contains(&"CD001"));
        assert_eq!(a.pairs.len(), 1);
        // Errors sort first.
        assert_eq!(a.diagnostics[0].severity, Severity::Error);
    }

    #[test]
    fn telemetry_counters_are_deterministic() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let x = nl.gate(GateKind::Buf, &[a], "x");
        nl.mark_output(x);
        let mut t1 = Telemetry::new();
        let mut t2 = Telemetry::new();
        analyze_with(&nl, &[], Some(&mut t1));
        analyze_with(&nl, &[], Some(&mut t2));
        for name in [
            "analyze.findings",
            "analyze.independence.pairs",
            "analyze.orbits.groups",
        ] {
            assert_eq!(
                t1.metrics.counter_value(name),
                t2.metrics.counter_value(name)
            );
        }
        for pass in ["validate", "rails", "lints", "independence", "orbits"] {
            let gauge = format!("analyze.pass.{pass}.micros");
            assert!(t1.metrics.gauge_value(&gauge).is_some(), "{gauge}");
        }
        assert_eq!(t1.metrics.gauges().len(), 5);
    }

    #[test]
    fn every_emitted_sa_rule_is_registered() {
        // Build a netlist tripping several SA rules and check each
        // diagnostic's severity against the registry.
        let mut nl = Netlist::new();
        let req = nl.input("req");
        let t = nl.gate(GateKind::Buf, &[req], "x.t");
        let f = nl.gate(GateKind::Buf, &[req], "x.f");
        let lone = nl.gate(GateKind::Buf, &[req], "y.t");
        let g = nl.gate(GateKind::And, &[t, f], "g");
        nl.mark_output(lone);
        nl.mark_output(g);
        let a = analyze(&nl, &[]);
        for d in &a.diagnostics {
            if let Some(info) = RULES.iter().find(|r| r.id == d.rule) {
                assert_eq!(d.severity, info.severity, "rule {} severity", d.rule);
            }
        }
        assert!(a.distinct_rules().iter().any(|r| r.starts_with("SA")));
    }
}
