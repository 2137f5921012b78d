//! Fleet determinism pins: bit-identical digests, reports and merged
//! per-node ledgers at 1, 2 and 8 worker threads, plus the merge
//! associativity property the sharded aggregation relies on.

use emc_fleet::{run_fleet, CalibDepth, DroughtSpec, FleetConfig, NodeLedger, TopologyKind};
use emc_prng::{Rng, SplitMix64, StdRng};

fn smoke_config(nodes: u32, epochs: u64, seed: u64) -> FleetConfig {
    FleetConfig {
        calib: CalibDepth::Smoke,
        ..FleetConfig::new(nodes, epochs, seed)
    }
}

/// Reference digest of the 600-node, 5-epoch, seed-2011 smoke fleet on
/// each topology. A change to event pop order, routing or the ledger
/// moves these.
const FLEET_DIGESTS: [(TopologyKind, u64); 3] = [
    (TopologyKind::Ring, 0x9c61_f07b_cfb1_abac),
    (TopologyKind::Grid, 0x13a6_de80_1077_dc02),
    (TopologyKind::Clustered, 0x833f_b79f_4691_109a),
];

/// The tentpole invariant: digests, JSON bytes, merged counters and the
/// merged femtojoule ledger must not depend on the worker thread count,
/// and the digest itself is pinned.
#[test]
fn fleet_is_bit_identical_at_1_2_8_threads() {
    for (topology, pinned) in FLEET_DIGESTS {
        let mut config = smoke_config(600, 5, 2011);
        config.topology = topology;
        let reference = run_fleet(&config, 1);
        assert!(reference.summary.completed > 0, "fleet did no work");
        assert_eq!(
            reference.digest,
            pinned,
            "{} fleet digest moved: got {:#018x}",
            topology.name(),
            reference.digest
        );
        for threads in [2usize, 8] {
            let report = run_fleet(&config, threads);
            assert_eq!(
                reference.digest,
                report.digest,
                "digest diverged at {threads} threads on {}",
                topology.name()
            );
            assert_eq!(reference.to_json(), report.to_json());
            assert_eq!(reference.summary, report.summary);
            assert_eq!(reference.ledger, report.ledger);
        }
    }
}

/// The merged per-node ledgers, rendered through `emc-obs`, export the
/// same bytes at every thread count.
#[test]
fn merged_ledgers_export_identically_across_threads() {
    let config = smoke_config(300, 4, 7);
    let reference = run_fleet(&config, 1).telemetry();
    let ref_jsonl = emc_obs::export::to_jsonl(&reference);
    assert!(ref_jsonl.contains("fleet/harvested"));
    for threads in [2usize, 8] {
        let t = run_fleet(&config, threads).telemetry();
        assert_eq!(ref_jsonl, emc_obs::export::to_jsonl(&t));
    }
}

/// Different seeds must change the digest (the pin is not vacuous).
#[test]
fn seed_changes_the_digest() {
    let a = run_fleet(&smoke_config(120, 3, 1), 1);
    let b = run_fleet(&smoke_config(120, 3, 2), 1);
    assert_ne!(a.digest, b.digest);
}

/// A drought run is deterministic too, and differs from the healthy
/// run.
#[test]
fn drought_runs_are_deterministic() {
    let mut config = smoke_config(150, 8, 42);
    config.drought = Some(DroughtSpec {
        from_epoch: 2,
        until_epoch: 8,
        factor: 0.1,
    });
    let a = run_fleet(&config, 1);
    let b = run_fleet(&config, 8);
    assert_eq!(a.digest, b.digest);
    let healthy = run_fleet(&smoke_config(150, 8, 42), 1);
    assert_ne!(a.digest, healthy.digest);
}

/// Associativity property test for the node-ledger merge: the integer
/// femtojoule buckets make `(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)` *exact* —
/// the property that lets the engine merge shard results in any
/// grouping. (An f64 ledger would fail this bit-for-bit.)
#[test]
fn node_ledger_merge_is_associative_and_commutative() {
    let mut rng = StdRng::seed_from_u64(0xF1EE7);
    let random_ledger = |rng: &mut StdRng| NodeLedger {
        harvested_fj: rng.gen_range(0..u64::MAX / 8),
        spilled_fj: rng.gen_range(0..1u64 << 40),
        sense_fj: rng.gen_range(0..1u64 << 40),
        compute_fj: rng.gen_range(0..1u64 << 40),
        radio_fj: rng.gen_range(0..1u64 << 40),
        idle_fj: rng.gen_range(0..1u64 << 40),
        loss_fj: rng.gen_range(0..1u64 << 40),
        deficit_fj: rng.gen_range(0..1u64 << 40),
        stored_fj: rng.gen_range(0..1u64 << 40),
    };
    for _ in 0..200 {
        let a = random_ledger(&mut rng);
        let b = random_ledger(&mut rng);
        let c = random_ledger(&mut rng);
        assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
        assert_eq!(a.merge(&b), b.merge(&a));
    }
    // Identity element.
    let a = random_ledger(&mut rng);
    assert_eq!(a.merge(&NodeLedger::default()), a);
}

/// Any shard grouping of per-node ledgers merges to the same total —
/// the statement the engine actually depends on, checked directly.
#[test]
fn ledger_merge_is_grouping_invariant() {
    let mut rng = StdRng::seed_from_u64(SplitMix64::mix(99, 1));
    let ledgers: Vec<NodeLedger> = (0..64)
        .map(|_| NodeLedger {
            harvested_fj: rng.gen_range(0..1u64 << 50),
            compute_fj: rng.gen_range(0..1u64 << 50),
            ..Default::default()
        })
        .collect();
    let flat = ledgers
        .iter()
        .fold(NodeLedger::default(), |acc, l| acc.merge(l));
    for chunk in [3usize, 7, 16, 64] {
        let grouped = ledgers
            .chunks(chunk)
            .map(|c| c.iter().fold(NodeLedger::default(), |acc, l| acc.merge(l)))
            .fold(NodeLedger::default(), |acc, l| acc.merge(&l));
        assert_eq!(flat, grouped, "grouping by {chunk} changed the merge");
    }
}
