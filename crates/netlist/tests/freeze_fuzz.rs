//! Freeze-invalidation fuzz: random interleavings of builder mutations
//! and [`Netlist::freeze`] calls must leave the CSR fanout snapshot
//! indistinguishable from a single freeze over the same construction.
//!
//! The simulator and verifier trust `fanout()` / `fanout_load_units()`
//! unconditionally after freezing; a stale snapshot surviving a
//! mutation would silently corrupt event propagation. Each seeded
//! round replays one random op sequence twice — once with freezes
//! sprinkled between mutations (including queries against the
//! intermediate snapshots, forcing them to be built), once with a
//! single final freeze — and then compares every observable.
//!
//! The same traces, with net names drawn from a small pool so that
//! duplicates are common, check that `find_net`'s lazily built name
//! index stays first-created-wins however and whenever it is built.

use emc_netlist::{GateKind, NetId, Netlist};
use emc_prng::{Rng, StdRng};

/// One structural mutation, pre-drawn so both replicas apply the exact
/// same sequence.
#[derive(Clone)]
enum Op {
    Input,
    Gate { kind: GateKind, a: usize, b: usize },
    Feedback { target: usize, net: usize },
    MarkOutput { net: usize },
}

fn draw_ops(rng: &mut StdRng, count: usize) -> Vec<Op> {
    let kinds = [
        GateKind::Inv,
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Xor,
        GateKind::CElement,
    ];
    let mut ops = vec![Op::Input, Op::Input];
    for _ in 0..count {
        ops.push(match rng.gen_range(0u8..8) {
            0 => Op::Input,
            1..=4 => Op::Gate {
                kind: kinds[rng.gen_range(0..kinds.len())],
                a: rng.gen::<u64>() as usize,
                b: rng.gen::<u64>() as usize,
            },
            5 => Op::Feedback {
                target: rng.gen::<u64>() as usize,
                net: rng.gen::<u64>() as usize,
            },
            _ => Op::MarkOutput {
                net: rng.gen::<u64>() as usize,
            },
        });
    }
    ops
}

/// Applies one op, naming the net it creates (if any) `name`; indices
/// are reduced modulo the current net count so every drawn sequence is
/// valid for every prefix.
fn apply(nl: &mut Netlist, op: &Op, name: &str) {
    let nets = nl.net_count();
    let pick = |raw: usize| NetId::from_order(nl, raw % nets);
    match op {
        Op::Input => {
            nl.input(name);
        }
        Op::Gate { kind, a, b } => {
            let ins: Vec<NetId> = match kind.arity().0 {
                1 => vec![pick(*a)],
                _ => vec![pick(*a), pick(*b)],
            };
            nl.gate(*kind, &ins, name);
        }
        Op::Feedback { target, net } => {
            // Only C-elements accept unbounded extra inputs; retarget
            // the draw onto one if any exists, else skip.
            let c_gates: Vec<NetId> = nl
                .iter_gates()
                .filter(|(_, g)| g.kind() == GateKind::CElement)
                .map(|(_, g)| g.output())
                .collect();
            if c_gates.is_empty() {
                return;
            }
            let t = c_gates[target % c_gates.len()];
            nl.connect_feedback(t, pick(*net));
        }
        Op::MarkOutput { net } => {
            nl.mark_output(pick(*net));
        }
    }
}

/// Helper: nets are created densely, so the n-th net can be recovered
/// by order of iteration.
trait NthNet {
    fn from_order(nl: &Netlist, order: usize) -> NetId;
}

impl NthNet for NetId {
    fn from_order(nl: &Netlist, order: usize) -> NetId {
        nl.iter_nets().nth(order).expect("net order in range")
    }
}

/// Net count, gate count, each net's fanout gate indices and fanout
/// load, the outputs, and the number of validation findings.
type Snapshot = (usize, usize, Vec<Vec<usize>>, Vec<f64>, Vec<NetId>, usize);

fn snapshot(nl: &Netlist) -> Snapshot {
    let fanouts = nl
        .iter_nets()
        .map(|n| nl.fanout(n).iter().map(|g| g.index()).collect())
        .collect();
    let loads = nl.iter_nets().map(|n| nl.fanout_load_units(n)).collect();
    (
        nl.net_count(),
        nl.gate_count(),
        fanouts,
        loads,
        nl.outputs().to_vec(),
        nl.validate().len(),
    )
}

#[test]
fn refreeze_after_random_mutations_equals_fresh_freeze() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let ops = draw_ops(&mut rng, 40);
        // Freeze points: after which op indices the mutated replica
        // freezes and immediately exercises the snapshot.
        let freeze_after: Vec<bool> = (0..ops.len()).map(|_| rng.gen_range(0u8..4) == 0).collect();

        let mut mutated = Netlist::new();
        for (i, op) in ops.iter().enumerate() {
            apply(&mut mutated, op, &format!("n{i}"));
            if freeze_after[i] {
                mutated.freeze();
                assert!(mutated.is_frozen(), "seed {seed}: freeze did not stick");
                // Touch the CSR so a stale arena would be observable.
                for n in mutated.iter_nets() {
                    let _ = mutated.fanout(n);
                    let _ = mutated.fanout_load_units(n);
                }
            }
        }
        mutated.freeze();

        let mut fresh = Netlist::new();
        for (i, op) in ops.iter().enumerate() {
            apply(&mut fresh, op, &format!("n{i}"));
        }
        fresh.freeze();

        assert_eq!(
            snapshot(&mutated),
            snapshot(&fresh),
            "seed {seed}: interleaved freezes diverged from single freeze"
        );
    }
}

#[test]
fn every_mutator_drops_the_snapshot() {
    let mut nl = Netlist::new();
    let a = nl.input("a");
    let b = nl.input("b");
    nl.freeze();
    assert!(nl.is_frozen());
    let y = nl.gate(GateKind::CElement, &[a, b], "y");
    assert!(!nl.is_frozen(), "gate() must drop the freeze");

    nl.freeze();
    nl.connect_feedback(y, y);
    assert!(!nl.is_frozen(), "connect_feedback() must drop the freeze");

    // After re-freezing, the feedback arc must be visible in the CSR.
    nl.freeze();
    let y_driver = nl.driver_of(y).expect("driver");
    assert!(
        nl.fanout(y).contains(&y_driver),
        "feedback edge missing from rebuilt CSR"
    );
}

/// Names drawn for duplicate-name traces: `dup0`..`dup{NAME_POOL - 1}`.
const NAME_POOL: usize = 5;

/// Asserts `find_net` agrees with a linear scan for the first net of
/// every pool name, and finds nothing for a name never used.
fn assert_first_created_wins(nl: &Netlist, context: &str) {
    for k in 0..=NAME_POOL {
        let name = format!("dup{k}");
        let first = nl.iter_nets().find(|&n| nl.net_name(n) == name);
        assert_eq!(nl.find_net(&name), first, "{context}: '{name}'");
    }
}

#[test]
fn find_net_is_first_created_wins_whenever_the_index_is_built() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let ops = draw_ops(&mut rng, 40);
        let names: Vec<String> = (0..ops.len())
            .map(|_| format!("dup{}", rng.gen_range(0..NAME_POOL)))
            .collect();
        let first_lookup = rng.gen_range(1..ops.len());

        // The first lookup comes mid-trace: every later net must enter
        // the built index without displacing an earlier one, in the
        // netlist and in a clone taken right after the lookup.
        let mut early = Netlist::new();
        let mut clone = None;
        for (i, (op, name)) in ops.iter().zip(&names).enumerate() {
            if i == first_lookup {
                let _ = early.find_net(name);
                clone = Some(early.clone());
            }
            apply(&mut early, op, name);
            if let Some(c) = clone.as_mut() {
                apply(c, op, name);
            }
        }
        assert_first_created_wins(&early, &format!("seed {seed}, lookup mid-trace"));
        let clone = clone.expect("first lookup lies inside the trace");
        assert_first_created_wins(&clone, &format!("seed {seed}, clone of a built index"));

        // The first lookup comes after the whole trace.
        let mut late = Netlist::new();
        for (op, name) in ops.iter().zip(&names) {
            apply(&mut late, op, name);
        }
        assert_first_created_wins(&late, &format!("seed {seed}, lookup after the trace"));
        assert_first_created_wins(&late.clone(), &format!("seed {seed}, clone after lookups"));
    }
}
