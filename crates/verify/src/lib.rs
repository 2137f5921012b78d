//! Speed-independence checker and netlist lint engine.
//!
//! The paper's central claim — that Design 1 "will work at any Vdd",
//! with energy modulating *throughput* rather than *correctness* —
//! rests on the circuit being **speed-independent**: correct under
//! unbounded gate delays. This crate makes that property checkable. It
//! runs a static-analysis pass over an [`emc_netlist::Netlist`] (and
//! optionally an [`emc_petri::Stg`] specification), exhaustively
//! explores the closed circuit–environment state graph under the
//! unbounded-gate-delay model, and emits structured
//! [`Diagnostic`]s with stable rule identifiers:
//!
//! | rule     | severity | meaning |
//! |----------|----------|---------|
//! | `NET001` | error    | floating net (no driver, not an input) |
//! | `NET002` | error    | multiply-driven net |
//! | `NET003` | error    | combinational loop without a state-holding element |
//! | `NET004` | error    | gate reads a net that nothing drives |
//! | `NET005` | error    | gate arity violation |
//! | `SI001`  | error    | output persistence violated (hazard) / edge-event overrun |
//! | `DR001`  | error    | both rails of a dual-rail pair asserted |
//! | `DR002`  | error    | codeword changed without a return-to-zero spacer |
//! | `CD001`  | warning  | dual-rail output not observed by a completion detector |
//! | `TA001`  | warning  | D flip-flop carries a bundling timing assumption |
//! | `STG001` | error    | reachable behaviour not a trace of the STG spec |
//! | `XPL001` | info     | exploration capped; results are partial |
//! | `PC001`  | error    | adiabatic gate evaluated outside its ramp-up/hold window |
//! | `PC002`  | error    | gate assigned a phase the power clock does not have |
//! | `PC003`  | error    | input consumed while the producing phase was not holding |
//!
//! The `NET*` rules are structural ([`Netlist::validate`]); `CD001` and
//! `TA001` are structural over discovered rail pairs and primitives
//! ([`check_completion_coverage`], [`check_timing_assumptions`], shared
//! with `emc-analyze`); `SI001`/`DR001`/`DR002` are decided on the reachable
//! state graph ([`explore`]); `STG001` is a product construction against
//! the specification ([`conformance`]); the `PC*` rules check recorded
//! power-clock evaluation traces against the adiabatic phase discipline
//! ([`powerclock`]).
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//!
//! use emc_netlist::{GateKind, NetId, Netlist};
//! use emc_verify::{Circuit, EnvAction, EnvModel, NetView, Verifier};
//!
//! /// A free-running input: flips its net whenever it likes.
//! struct Flip(NetId);
//!
//! impl EnvModel for Flip {
//!     fn step(&self, _state: u8, view: &dyn NetView, out: &mut Vec<EnvAction>) {
//!         out.push(EnvAction { net: self.0, value: !view.value(self.0), next: 0 });
//!     }
//! }
//!
//! // y = a AND (NOT a): a textbook hazard under unbounded delays.
//! let mut n = Netlist::new();
//! let a = n.input("a");
//! let na = n.gate(GateKind::Inv, &[a], "na");
//! let y = n.gate(GateKind::And, &[a, na], "y");
//! n.mark_output(y);
//!
//! let report = Verifier::new().verify(&Circuit::new("glitch", n, Arc::new(Flip(a))));
//! assert!(report.errors() > 0);
//! assert!(report.diagnostics.iter().any(|d| d.rule == "SI001"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builtin;
pub mod conformance;
pub mod env;
pub mod explore;
pub mod powerclock;
pub mod reduce;

use std::sync::Arc;

use emc_netlist::{Diagnostic, NetId, Netlist, Severity};
use emc_obs::export::json_string;
use emc_petri::{SignalId, Stg};
use emc_sim::{run_campaign, CampaignConfig, CampaignReport};

use conformance::check_conformance;
pub use emc_analyze::{
    check_completion_coverage, check_timing_assumptions, discover_rail_pairs, RailPair,
};
pub use env::{ComposedEnv, EnvAction, EnvModel, FillDrainEnv, MicropipelineEnv, NetView, WchbEnv};
pub use explore::{ExploreOutcome, Explorer, State, Transition};
pub use powerclock::{check_power_clock, PhaseEvent};
pub use reduce::{
    canonical_key_check, orbit_commutation_check, select_cache_check, EnvFootprint, EnvPart,
};

/// A circuit closed by its environment, ready for verification.
pub struct Circuit<'a> {
    /// Display name (used in reports and JSON output).
    pub name: String,
    /// The netlist under analysis.
    pub netlist: Netlist,
    /// Initial net-value overrides applied before exploration.
    pub initial: Vec<(NetId, bool)>,
    /// The environment protocol machine closing the circuit.
    pub env: Arc<dyn EnvModel + 'a>,
    /// Optional STG specification with a signal→net mapping for
    /// conformance checking.
    pub stg: Option<(Stg, Vec<(SignalId, NetId)>)>,
    /// The environment's declared dependency structure
    /// ([`EnvModel::footprint`]), enabling partial-order/symmetry
    /// reduction (see [`reduce`]). `None` keeps exploration fully
    /// unreduced.
    pub footprint: Option<EnvFootprint>,
}

impl<'a> Circuit<'a> {
    /// A circuit closed by `env`, with its footprint, no initial
    /// overrides and no STG specification.
    pub fn new(name: &str, netlist: Netlist, env: Arc<dyn EnvModel + 'a>) -> Self {
        Self {
            name: name.to_owned(),
            netlist,
            initial: Vec::new(),
            footprint: env.footprint(),
            env,
            stg: None,
        }
    }

    /// Attaches an STG specification and its signal→net mapping.
    pub fn with_stg(mut self, stg: Stg, map: Vec<(SignalId, NetId)>) -> Self {
        self.stg = Some((stg, map));
        self
    }

    /// Adds an initial net-value override.
    pub fn with_initial(mut self, net: NetId, value: bool) -> Self {
        self.initial.push((net, value));
        self
    }
}

/// The outcome of verifying one circuit.
#[derive(Debug, Clone)]
pub struct Report {
    /// The circuit's display name.
    pub circuit: String,
    /// All findings, sorted by severity (errors first), then rule, then
    /// location — a stable order suitable for golden tests.
    pub diagnostics: Vec<Diagnostic>,
    /// Distinct states visited during dynamic exploration.
    pub states: usize,
    /// `false` if any exploration (state graph or STG product) was
    /// capped.
    pub exhaustive: bool,
}

impl Report {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of info-severity findings.
    pub fn infos(&self) -> usize {
        self.count(Severity::Info)
    }

    fn count(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == sev)
            .count()
    }

    /// `true` when the report carries no errors (warnings and infos are
    /// allowed).
    pub fn is_clean(&self) -> bool {
        self.errors() == 0
    }

    /// The sorted, deduplicated set of rule ids that fired.
    pub fn distinct_rules(&self) -> Vec<&'static str> {
        let mut rules: Vec<&'static str> = self.diagnostics.iter().map(|d| d.rule).collect();
        rules.sort_unstable();
        rules.dedup();
        rules
    }

    /// Serialises the report as a JSON object (hand-rolled; the
    /// workspace carries no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"circuit\":{}", json_string(&self.circuit)));
        out.push_str(&format!(",\"states\":{}", self.states));
        out.push_str(&format!(",\"exhaustive\":{}", self.exhaustive));
        out.push_str(&format!(
            ",\"errors\":{},\"warnings\":{},\"infos\":{}",
            self.errors(),
            self.warnings(),
            self.infos()
        ));
        out.push_str(",\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            out.push_str(&format!("\"rule\":{}", json_string(d.rule)));
            out.push_str(&format!(
                ",\"severity\":{}",
                json_string(&d.severity.to_string())
            ));
            out.push_str(&format!(",\"message\":{}", json_string(&d.message)));
            match d.gate {
                Some(g) => out.push_str(&format!(",\"gate\":{}", json_string(&g.to_string()))),
                None => out.push_str(",\"gate\":null"),
            }
            match d.net {
                Some(n) => out.push_str(&format!(",\"net\":{}", json_string(&n.to_string()))),
                None => out.push_str(",\"net\":null"),
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Runs the full rule set over circuits.
pub struct Verifier {
    /// Exact cap on distinct states during dynamic exploration, and on
    /// the (state, marking set) pairs of the STG conformance walk.
    pub state_cap: usize,
    /// When `true`, circuits carrying an [`EnvFootprint`] are explored
    /// with partial-order/symmetry reduction. Default `false`, so all
    /// existing reports and digests are unchanged unless a caller opts
    /// in.
    pub reduce: bool,
}

impl Default for Verifier {
    fn default() -> Self {
        Self::new()
    }
}

impl Verifier {
    /// A verifier with default caps (ample for the built-in circuits).
    pub fn new() -> Self {
        Self {
            state_cap: 50_000,
            reduce: false,
        }
    }

    /// Overrides the state cap (for smoke runs).
    pub fn with_state_cap(mut self, cap: usize) -> Self {
        self.state_cap = cap;
        self
    }

    /// Enables (or disables) reduced exploration for circuits that
    /// declare an environment footprint.
    pub fn with_reduction(mut self, reduce: bool) -> Self {
        self.reduce = reduce;
        self
    }

    /// Runs every rule over `circuit` and returns a sorted report.
    pub fn verify(&self, circuit: &Circuit<'_>) -> Report {
        let nl = &circuit.netlist;
        let mut diagnostics = nl.validate();
        let structurally_sound = diagnostics.is_empty();

        let pairs = discover_rail_pairs(nl);
        diagnostics.extend(check_completion_coverage(nl, &pairs));
        diagnostics.extend(check_timing_assumptions(nl));

        let mut states = 0;
        let mut exhaustive = true;
        // Dynamic rules only make sense on a structurally sound netlist
        // (a multiply-driven or floating net has no defined semantics).
        if structurally_sound {
            let mut ex = Explorer::new(nl, &*circuit.env, &circuit.initial, self.state_cap);
            if self.reduce {
                if let Some(fp) = &circuit.footprint {
                    ex = ex.with_reduction(fp);
                }
            }
            let outcome = ex.explore();
            states = outcome.states;
            exhaustive = outcome.exhaustive;
            diagnostics.extend(outcome.diagnostics);
            if let Some((stg, map)) = &circuit.stg {
                let (stg_diags, stg_exhaustive) = check_conformance(&ex, stg, map);
                diagnostics.extend(stg_diags);
                exhaustive &= stg_exhaustive;
            }
        }

        diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.rule.cmp(b.rule))
                .then_with(|| a.net.cmp(&b.net))
                .then_with(|| a.gate.cmp(&b.gate))
                .then_with(|| a.message.cmp(&b.message))
        });
        Report {
            circuit: circuit.name.clone(),
            diagnostics,
            states,
            exhaustive,
        }
    }
}

/// Verifies every circuit as a deterministic parallel campaign on
/// [`emc_sim::run_campaign`]: the reports come back in circuit order and
/// are identical at any thread count.
pub fn verify_suite(
    circuits: &[Circuit<'_>],
    verifier: &Verifier,
    config: &CampaignConfig,
) -> CampaignReport<Report> {
    run_campaign(circuits, config, |circuit, _| verifier.verify(circuit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::act;
    use emc_netlist::GateKind;

    fn glitch() -> Circuit<'static> {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let na = nl.gate(GateKind::Inv, &[a], "na");
        let y = nl.gate(GateKind::And, &[a, na], "y");
        nl.mark_output(y);
        let env = move |_: u8, v: &dyn NetView, out: &mut Vec<EnvAction>| {
            out.push(act(a, !v.value(a)));
        };
        Circuit::new("glitch", nl, Arc::new(env))
    }

    #[test]
    fn report_is_sorted_and_counts_match() {
        let report = Verifier::new().verify(&glitch());
        assert!(!report.is_clean());
        assert!(report.errors() >= 1);
        for w in report.diagnostics.windows(2) {
            assert!(w[0].severity >= w[1].severity, "severity order violated");
        }
    }

    #[test]
    fn structural_errors_suppress_dynamic_rules() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        // b floats: read but never driven.
        let b = nl.gate(GateKind::Buf, &[a], "b");
        let c = nl.gate(GateKind::And, &[a, b], "c");
        nl.mark_output(c);
        let mut broken = nl.clone();
        let d = broken.gate(GateKind::Buf, &[a], "dangling");
        let _ = d;
        // Simplest structural break: drive c from two gates.
        broken.rewire_output(broken.driver_of(d).unwrap(), c);
        let inert = |_: u8, _: &dyn NetView, _: &mut Vec<EnvAction>| {};
        let report = Verifier::new().verify(&Circuit::new("broken", broken, Arc::new(inert)));
        assert!(report.diagnostics.iter().any(|d| d.rule.starts_with("NET")));
        assert_eq!(report.states, 0, "dynamic pass must not run");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let report = Verifier::new().verify(&glitch());
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"circuit\":\"glitch\""));
        assert!(json.contains("\"rule\":\"SI001\""));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces: {json}"
        );
    }

    #[test]
    fn suite_reports_are_thread_invariant() {
        let circuits = vec![glitch(), glitch(), glitch(), glitch()];
        let verifier = Verifier::new();
        let jsons: Vec<Vec<String>> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                let config = CampaignConfig::new(7).threads(threads);
                let campaign = verify_suite(&circuits, &verifier, &config);
                assert_eq!(campaign.runs.len(), 4);
                campaign.runs.iter().map(Report::to_json).collect()
            })
            .collect();
        assert_eq!(jsons[0], jsons[1]);
        assert_eq!(jsons[1], jsons[2]);
    }
}
