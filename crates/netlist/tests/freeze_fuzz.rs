//! Fanout fuzz: random construction sequences checked against a reference
//! model of the fanout lists after every op.
//!
//! The simulator and verifier trust `fanout()` / `fanout_load_units()`
//! as they stand: the order of a net's readers fixes the `seq` order of
//! equal-time events, and the load sum's float order fixes every
//! gate's output load. The netlist builds its fanout lists lazily from
//! a flat store and drops them on mutation. The model here keeps
//! `Vec<Vec<_>>` lists the way the netlist once stored them: each
//! `gate`/`connect_feedback` call pushes its reader onto each input
//! net's list in call order, duplicates included, and a net's load is
//! the sum over its list in that order. After every op, with no
//! `freeze()` call, every query must agree with the model bit for bit.
//!
//! The same traces, with net names drawn from a small pool so that
//! duplicates are common, check that `find_net`'s lazily built name
//! index stays first-created-wins however and whenever it is built.

use emc_netlist::{GateId, GateKind, NetId, Netlist};
use emc_prng::{Rng, StdRng};

/// One structural mutation, pre-drawn so replicas apply the exact same
/// sequence. Raw indices are reduced modulo the current net or gate
/// count, so every drawn sequence is valid for every prefix.
#[derive(Clone)]
enum Op {
    Input,
    /// A gate over two (or, for a C-element, three) drawn nets.
    Gate {
        kind: GateKind,
        a: usize,
        b: usize,
        c: usize,
    },
    /// A gate reading one drawn net on every input.
    GateDup {
        kind: GateKind,
        a: usize,
    },
    Feedback {
        target: usize,
        net: usize,
    },
    MarkOutput {
        net: usize,
    },
    Rewire {
        gate: usize,
        net: usize,
    },
}

const KINDS: [GateKind; 6] = [
    GateKind::Inv,
    GateKind::And,
    GateKind::Or,
    GateKind::Nand,
    GateKind::Xor,
    GateKind::CElement,
];

fn draw_ops(rng: &mut StdRng, count: usize) -> Vec<Op> {
    let mut raw = || rng.gen::<u64>() as usize;
    let mut ops = vec![Op::Input, Op::Input];
    for _ in 0..count {
        let pick = raw() % 16;
        ops.push(match pick {
            0..=1 => Op::Input,
            2..=6 => Op::Gate {
                kind: KINDS[raw() % KINDS.len()],
                a: raw(),
                b: raw(),
                c: raw(),
            },
            7..=8 => Op::GateDup {
                kind: KINDS[1 + raw() % (KINDS.len() - 1)],
                a: raw(),
            },
            9..=11 => Op::Feedback {
                target: raw(),
                net: raw(),
            },
            12..=13 => Op::MarkOutput {
                // A small range, so marks repeat.
                net: raw() % 6,
            },
            _ => Op::Rewire {
                gate: raw(),
                net: raw(),
            },
        });
    }
    ops
}

/// The fanout lists as the netlist once stored them: one list per
/// net, pushed in call order.
#[derive(Clone, Default)]
struct Model {
    kinds: Vec<GateKind>,
    inputs: Vec<Vec<NetId>>,
    outputs_of: Vec<NetId>,
    drivers: Vec<Option<GateId>>,
    fanout: Vec<Vec<GateId>>,
    outputs: Vec<NetId>,
}

/// What the ops exercised, so the fuzz can assert it reached every
/// case it claims to cover.
#[derive(Default)]
struct Coverage {
    duplicate_inputs: usize,
    feedback_lower: usize,
    feedback_higher: usize,
    repeated_marks: usize,
    rewires: usize,
}

impl Model {
    fn add(&mut self, gid: GateId, kind: GateKind, ins: &[NetId], out: NetId) {
        assert_eq!(gid.index(), self.kinds.len());
        assert_eq!(out.index(), self.drivers.len());
        self.kinds.push(kind);
        self.inputs.push(ins.to_vec());
        self.outputs_of.push(out);
        self.drivers.push(Some(gid));
        self.fanout.push(Vec::new());
        for n in ins {
            self.fanout[n.index()].push(gid);
        }
    }

    fn load(&self, net: NetId) -> f64 {
        self.fanout[net.index()]
            .iter()
            .map(|g| self.kinds[g.index()].input_load_factor())
            .sum()
    }
}

/// Applies `op` to the netlist and the model, naming the net it creates
/// (if any) `name`.
fn apply(nl: &mut Netlist, model: &mut Model, cov: &mut Coverage, op: &Op, name: &str) {
    let nets = nl.net_count();
    let pick = |raw: usize| nl.net_id(raw % nets);
    match *op {
        Op::Input => {
            let out = nl.input(name);
            model.add(
                nl.driver_of(out).expect("driven"),
                GateKind::Input,
                &[],
                out,
            );
        }
        Op::Gate { kind, a, b, c } => {
            let ins: Vec<NetId> = match kind {
                GateKind::Inv => vec![pick(a)],
                GateKind::CElement => vec![pick(a), pick(b), pick(c)],
                _ => vec![pick(a), pick(b)],
            };
            let out = nl.gate(kind, &ins, name);
            model.add(nl.driver_of(out).expect("driven"), kind, &ins, out);
        }
        Op::GateDup { kind, a } => {
            let ins = [pick(a); 2];
            let out = nl.gate(kind, &ins, name);
            model.add(nl.driver_of(out).expect("driven"), kind, &ins, out);
            cov.duplicate_inputs += 1;
        }
        Op::Feedback { target, net } => {
            // Feedback closes onto a C-element that still drives its
            // output (a rewired gate cannot be reached through it);
            // retarget the draw onto one if any exists, else skip.
            let c_gates: Vec<GateId> = nl
                .iter_gates()
                .filter(|&(id, g)| {
                    g.kind() == GateKind::CElement && nl.driver_of(g.output()) == Some(id)
                })
                .map(|(id, _)| id)
                .collect();
            if c_gates.is_empty() {
                return;
            }
            let gid = c_gates[target % c_gates.len()];
            let net = pick(net);
            let own = nl.gate_ref(gid).output();
            nl.connect_feedback(own, net);
            model.inputs[gid.index()].push(net);
            model.fanout[net.index()].push(gid);
            if net < own {
                cov.feedback_lower += 1;
            } else {
                cov.feedback_higher += 1;
            }
        }
        Op::MarkOutput { net } => {
            let net = pick(net);
            nl.mark_output(net);
            if model.outputs.contains(&net) {
                cov.repeated_marks += 1;
            } else {
                model.outputs.push(net);
            }
        }
        Op::Rewire { gate, net } => {
            let gid = nl.gate_id(gate % nl.gate_count());
            if nl.gate_ref(gid).kind().is_source() {
                return;
            }
            let net = pick(net);
            nl.rewire_output(gid, net);
            let old = model.outputs_of[gid.index()];
            if old != net {
                model.outputs_of[gid.index()] = net;
                if model.drivers[old.index()] == Some(gid) {
                    model.drivers[old.index()] = None;
                }
                if model.drivers[net.index()].is_none() {
                    model.drivers[net.index()] = Some(gid);
                }
            }
            cov.rewires += 1;
        }
    }
}

/// Every query the netlist answers, against the model, bit for bit.
fn assert_matches_model(nl: &Netlist, model: &Model, context: &str) {
    assert_eq!(nl.net_count(), model.fanout.len(), "{context}: net count");
    assert_eq!(nl.gate_count(), model.kinds.len(), "{context}: gate count");
    for (gid, g) in nl.iter_gates() {
        let i = gid.index();
        assert_eq!(g.kind(), model.kinds[i], "{context}: kind of {gid}");
        assert_eq!(g.inputs(), model.inputs[i], "{context}: inputs of {gid}");
        assert_eq!(
            g.output(),
            model.outputs_of[i],
            "{context}: output of {gid}"
        );
    }
    for net in nl.iter_nets() {
        let i = net.index();
        assert_eq!(
            nl.driver_of(net),
            model.drivers[i],
            "{context}: driver of {net}"
        );
        assert_eq!(
            nl.fanout(net),
            model.fanout[i],
            "{context}: fanout of {net}"
        );
        assert_eq!(
            nl.fanout_load_units(net).to_bits(),
            model.load(net).to_bits(),
            "{context}: load of {net}"
        );
    }
    assert_eq!(nl.outputs(), model.outputs, "{context}: outputs");
}

#[test]
fn fanout_matches_a_push_order_model_after_every_op() {
    let mut cov = Coverage::default();
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let ops = draw_ops(&mut rng, 48);
        let mut nl = Netlist::new();
        let mut model = Model::default();
        for (i, op) in ops.iter().enumerate() {
            apply(&mut nl, &mut model, &mut cov, op, &format!("n{i}"));
            assert_matches_model(&nl, &model, &format!("seed {seed}, op {i}"));
        }
    }
    for (case, count) in [
        ("duplicate inputs", cov.duplicate_inputs),
        ("feedback to a lower net", cov.feedback_lower),
        ("feedback to a higher net", cov.feedback_higher),
        ("repeated mark_output", cov.repeated_marks),
        ("rewire_output", cov.rewires),
    ] {
        assert!(count >= 20, "the fuzz reached {case} only {count} times");
    }
}

/// Net count, gate count, each net's fanout gate indices and fanout
/// load, the outputs, and the number of validation findings.
type Snapshot = (usize, usize, Vec<Vec<usize>>, Vec<u64>, Vec<NetId>, usize);

fn snapshot(nl: &Netlist) -> Snapshot {
    let fanouts = nl
        .iter_nets()
        .map(|n| nl.fanout(n).iter().map(|g| g.index()).collect())
        .collect();
    let loads = nl
        .iter_nets()
        .map(|n| nl.fanout_load_units(n).to_bits())
        .collect();
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
        // freezes and immediately queries the fanout lists.
        let freeze_after: Vec<bool> = (0..ops.len()).map(|_| rng.gen_range(0u8..4) == 0).collect();

        let mut mutated = Netlist::new();
        let mut model = Model::default();
        let mut cov = Coverage::default();
        for (i, op) in ops.iter().enumerate() {
            apply(&mut mutated, &mut model, &mut cov, op, &format!("n{i}"));
            if freeze_after[i] {
                mutated.freeze();
                // Touch the lists so stale ones would be observable.
                for n in mutated.iter_nets() {
                    let _ = mutated.fanout(n);
                    let _ = mutated.fanout_load_units(n);
                }
            }
        }
        mutated.freeze();

        let mut fresh = Netlist::new();
        let mut model = Model::default();
        for (i, op) in ops.iter().enumerate() {
            apply(&mut fresh, &mut model, &mut cov, op, &format!("n{i}"));
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
fn every_mutator_is_visible_to_the_next_query() {
    let mut nl = Netlist::new();
    let a = nl.input("a");
    let b = nl.input("b");
    nl.freeze();
    assert_eq!(nl.find_net("y"), None, "builds the name index");
    assert_eq!(nl.fanout(a), []);

    let y = nl.gate(GateKind::CElement, &[a, b, a], "y");
    let y_gate = nl.driver_of(y).expect("driver");
    assert_eq!(nl.fanout(a), [y_gate, y_gate], "gate() adds each reference");
    assert_eq!(
        nl.fanout_load_units(a),
        2.0 * GateKind::CElement.input_load_factor()
    );
    assert_eq!(nl.fanout(y), []);
    assert_eq!(nl.find_net("y"), Some(y), "gate() names its net");

    nl.freeze();
    let z = nl.gate(GateKind::Inv, &[y], "z");
    let z_gate = nl.driver_of(z).expect("driver");
    nl.connect_feedback(y, z);
    assert_eq!(nl.gate_ref(y_gate).inputs(), [a, b, a, z]);
    assert_eq!(nl.fanout(z), [y_gate], "connect_feedback() adds its reader");
    nl.connect_feedback(y, a);
    assert_eq!(nl.fanout(a), [y_gate, y_gate, y_gate], "after the others");
    assert_eq!(nl.gate_ref(z_gate).inputs(), [y], "other runs untouched");

    nl.freeze();
    let w = nl.gate(GateKind::Buf, &[z], "w");
    let w_gate = nl.driver_of(w).expect("driver");
    let rules: Vec<&str> = nl.validate().iter().map(|d| d.rule).collect();
    assert_eq!(rules, ["NET001"], "w floats");
    nl.mark_output(w);
    assert_eq!(nl.outputs(), [w], "mark_output()");
    assert!(nl.validate().is_empty(), "a marked output does not float");

    nl.freeze();
    nl.rewire_output(z_gate, y);
    assert_eq!(nl.gate_ref(z_gate).output(), y, "rewire_output()");
    assert_eq!(nl.driver_of(z), None);
    assert_eq!(
        nl.driver_of(y),
        Some(y_gate),
        "the first driver keeps the net"
    );
    assert_eq!(nl.fanout(z), [y_gate, w_gate], "readers stay with the net");
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
        let mut cov = Coverage::default();

        // The first lookup comes mid-trace: every later net must enter
        // the built index without displacing an earlier one, in the
        // netlist and in a clone taken right after the lookup.
        let mut early = Netlist::new();
        let mut early_model = Model::default();
        let mut clone = None;
        for (i, (op, name)) in ops.iter().zip(&names).enumerate() {
            if i == first_lookup {
                let _ = early.find_net(name);
                clone = Some((early.clone(), early_model.clone()));
            }
            apply(&mut early, &mut early_model, &mut cov, op, name);
            if let Some((c, m)) = clone.as_mut() {
                apply(c, m, &mut cov, op, name);
            }
        }
        assert_first_created_wins(&early, &format!("seed {seed}, lookup mid-trace"));
        let (clone, _) = clone.expect("first lookup lies inside the trace");
        assert_first_created_wins(&clone, &format!("seed {seed}, clone of a built index"));

        // The first lookup comes after the whole trace.
        let mut late = Netlist::new();
        let mut late_model = Model::default();
        for (op, name) in ops.iter().zip(&names) {
            apply(&mut late, &mut late_model, &mut cov, op, name);
        }
        assert_first_created_wins(&late, &format!("seed {seed}, lookup after the trace"));
        assert_first_created_wins(&late.clone(), &format!("seed {seed}, clone after lookups"));
    }
}
