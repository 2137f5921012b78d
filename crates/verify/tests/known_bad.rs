//! Golden tests over the known-bad fixtures: the exact rule sets, the
//! anchors, and the JSON serialisation are all part of the tool
//! contract (CI greps rule ids; goldens pin them).

use std::sync::Arc;

use emc_netlist::{GateId, GateKind, NetId, Netlist};
use emc_petri::Stg;
use emc_sim::CampaignConfig;
use emc_verify::builtin::{broken_suite, builtin_suite};
use emc_verify::{verify_suite, Circuit, EnvAction, EnvModel, NetView, Report, Verifier};

#[test]
fn broken_fixture_rule_sets_are_golden() {
    let verifier = Verifier::new();
    let golden: Vec<(&str, Vec<&str>)> = vec![
        ("hazard_glitch", vec!["SI001"]),
        ("dual_rail_short", vec!["CD001", "DR001", "DR002"]),
        ("unbundled_sram", vec!["SI001", "TA001"]),
        ("structural_mess", vec!["NET001", "NET002", "NET003"]),
    ];
    let suite = broken_suite();
    assert_eq!(suite.len(), golden.len());
    for ((circuit, _), (name, rules)) in suite.iter().zip(&golden) {
        let report = verifier.verify(circuit);
        assert_eq!(&report.circuit, name);
        assert_eq!(
            &report.distinct_rules(),
            rules,
            "{name}: {:#?}",
            report.diagnostics
        );
        assert!(!report.is_clean() || report.errors() == 0);
    }
}

#[test]
fn hazard_glitch_diagnostic_is_anchored_and_worded() {
    let (circuit, _) = &broken_suite()[0];
    let report = Verifier::new().verify(circuit);
    let si = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "SI001")
        .expect("SI001 present");
    assert!(si.gate.is_some(), "SI001 anchors to the hazarded gate");
    assert!(si.net.is_some(), "SI001 anchors to the hazarded net");
    assert!(
        si.message.contains("output persistence violated"),
        "message: {}",
        si.message
    );
    let rendered = si.to_string();
    assert!(rendered.starts_with("error [SI001]"), "{rendered}");
}

#[test]
fn dual_rail_short_names_the_signal() {
    let (circuit, _) = &broken_suite()[1];
    let report = Verifier::new().verify(circuit);
    for rule in ["DR001", "DR002", "CD001"] {
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.rule == rule)
            .unwrap_or_else(|| panic!("{rule} missing"));
        assert!(d.message.contains("'x'"), "{rule} message: {}", d.message);
    }
}

#[test]
fn unbundled_sram_flags_the_race_and_the_latch() {
    let (circuit, _) = &broken_suite()[2];
    let report = Verifier::new().verify(circuit);
    assert!(report.errors() >= 1, "{:#?}", report.diagnostics);
    let ta = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "TA001")
        .expect("TA001 present");
    assert!(ta.message.contains("timing"), "{}", ta.message);
    // Errors sort before warnings: the race is reported first.
    assert_eq!(report.diagnostics[0].rule, "SI001");
}

#[test]
fn structural_mess_skips_dynamic_analysis() {
    let (circuit, _) = &broken_suite()[3];
    let report = Verifier::new().verify(circuit);
    assert_eq!(report.states, 0, "dynamic pass must not run on a short");
    assert_eq!(
        report.distinct_rules(),
        vec!["NET001", "NET002", "NET003"],
        "{:#?}",
        report.diagnostics
    );
}

#[test]
fn broken_fixture_json_is_stable() {
    // The JSON for a fixed fixture must be byte-identical run to run
    // (exploration is deterministic and the sort is total).
    let reports: Vec<String> = (0..2)
        .map(|_| {
            let (circuit, _) = &broken_suite()[1];
            Verifier::new().verify(circuit).to_json()
        })
        .collect();
    assert_eq!(reports[0], reports[1]);
    assert!(reports[0].contains("\"circuit\":\"dual_rail_short\""));
    assert!(reports[0].contains("\"rule\":\"DR001\""));
}

#[test]
fn campaign_over_full_suite_is_deterministic_across_thread_counts() {
    let verifier = Verifier::new();
    let mut jsons: Vec<Vec<String>> = Vec::new();
    for threads in [1usize, 2, 8] {
        let circuits: Vec<_> = builtin_suite(true)
            .into_iter()
            .chain(broken_suite().into_iter().map(|(c, _)| c))
            .collect();
        let config = CampaignConfig::new(42).threads(threads);
        let campaign = verify_suite(&circuits, &verifier, &config);
        jsons.push(campaign.runs.iter().map(|r| r.to_json()).collect());
    }
    assert_eq!(jsons[0], jsons[1]);
    assert_eq!(jsons[1], jsons[2]);
}

/// A four-phase requester on `req`: flips it whenever `ack` matches it.
fn requester(req: NetId, ack: NetId) -> Arc<dyn EnvModel> {
    Arc::new(move |_: u8, v: &dyn NetView, out: &mut Vec<EnvAction>| {
        if v.value(req) == v.value(ack) {
            out.push(EnvAction {
                net: req,
                value: !v.value(req),
                next: 0,
            });
        }
    })
}

/// The `STG001` findings of `report`: message, gate and net anchors.
fn stg001(report: &Report) -> Vec<(&str, Option<GateId>, Option<NetId>)> {
    report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "STG001")
        .map(|d| (d.message.as_str(), d.gate, d.net))
        .collect()
}

#[test]
fn eager_ack_violates_the_handshake_stg() {
    // `ack = NOT req` is excited before any request: its first edge,
    // ack+, comes while the STG still waits for req+. The product walk
    // drops that branch and goes on along req+.
    let mut nl = Netlist::new();
    let req = nl.input("req");
    let ack = nl.gate(GateKind::Inv, &[req], "ack");
    nl.mark_output(ack);
    let (stg, sreq, sack) = Stg::four_phase_handshake();
    let circuit = Circuit::new("eager_ack", nl, requester(req, ack))
        .with_stg(stg, vec![(sreq, req), (sack, ack)]);
    let report = Verifier::new().verify(&circuit);
    assert_eq!(
        stg001(&report),
        [(
            "circuit can produce ack+ on net 'ack', which the STG specification does not \
             allow here",
            None,
            Some(ack),
        )]
    );
    // req+ also disables the excited inverter.
    assert_eq!(report.distinct_rules(), ["SI001", "STG001"]);
    assert!(report.exhaustive);
    assert_eq!(report.states, 3);
}

#[test]
fn an_undeclared_initial_level_violates_the_stg() {
    // `ack = buf(buf(req))` conforms from rest, but here `req` starts
    // high while the STG declares it low, so the check stops at the
    // initial state.
    let mut nl = Netlist::new();
    let req = nl.input("req");
    let d = nl.gate(GateKind::Buf, &[req], "d");
    let ack = nl.gate(GateKind::Buf, &[d], "ack");
    nl.mark_output(ack);
    let (stg, sreq, sack) = Stg::four_phase_handshake();
    let circuit = Circuit::new("early_req", nl, requester(req, ack))
        .with_stg(stg, vec![(sreq, req), (sack, ack)])
        .with_initial(req, true);
    let report = Verifier::new().verify(&circuit);
    assert_eq!(
        stg001(&report),
        [(
            "initial level of net 'req' (1) disagrees with STG signal 'req' (0)",
            None,
            Some(req),
        )]
    );
    assert_eq!(report.distinct_rules(), ["STG001"]);
    assert!(report.exhaustive);
    assert_eq!(report.states, 6);
}
