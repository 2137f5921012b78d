//! Soundness and equivalence gates for the static-analysis engine
//! (`emc-analyze`) and the reductions it powers in the verifier.
//!
//! Five properties are pinned here, over the built-in suite and the
//! generator's pinned corpus seeds:
//!
//! 1. **Independence soundness** — the static may-interfere relation is
//!    conservative: every dynamically observed interference between two
//!    gate firings (one disables the other, or the diamond fails to
//!    close) involves a pair the matrix already marks.
//! 2. **Orbit soundness** — every validated symmetry orbit commutes
//!    with the transition relation on the explored graph
//!    ([`emc_verify::orbit_commutation_check`]).
//! 3. **Reduction equivalence** — verification under partial-order +
//!    symmetry reduction reaches the same verdict (rules, cleanliness,
//!    exhaustiveness) as the unreduced explorer, never explores more
//!    states, and explores at least 2x fewer on the pipelined-array
//!    workload whose rows are independent and symmetric.
//! 4. **Selection caching** — the stubborn set an exploration answers
//!    from its per-run cache equals a fresh computation at every state
//!    ([`emc_verify::select_cache_check`]).
//! 5. **Compact orbit keys** — canonicalizing a state through the
//!    compiled orbit keys gives the same state as keying every slot bit
//!    by bit ([`emc_verify::canonical_key_check`]).

use std::collections::{HashSet, VecDeque};

use emc_analyze::{discover_rail_pairs, may_interfere_matrix};
use emc_gen::{GenBounds, Plan};
use emc_verify::builtin::builtin_suite;
use emc_verify::{
    canonical_key_check, orbit_commutation_check, select_cache_check, Circuit, Explorer, Verifier,
};

/// The exemplar corpus seeds pinned in `crates/gen/tests/fixtures/`
/// (one per generator family).
const CORPUS_SEEDS: [u64; 6] = [
    0x057e_cade_6a7c_2132, // micropipeline
    0xbe02_0c31_9a78_d0d8, // dims-adder
    0x83ac_adce_c37d_6309, // block-graph
    0x1042_c69e_32ed_66bb, // wchb-datapath
    0x4206_68b9_c7e0_f0f1, // pipelined-array
    0x29de_4a7b_b761_e8a6, // completion-tree
];

fn corpus_circuits() -> Vec<Circuit<'static>> {
    CORPUS_SEEDS
        .iter()
        .map(|&seed| {
            Plan::from_seed(seed, &GenBounds::smoke())
                .build()
                .verify_circuit()
        })
        .collect()
}

/// Walks (a bounded prefix of) the reachable graph of `c` and checks
/// that every statically-independent pair of enabled gate transitions
/// actually commutes: neither disables the other, and both orders land
/// in the same state. A violation would make persistent-set reduction
/// unsound.
fn assert_observed_interference_is_static(c: &Circuit<'_>, state_budget: usize) -> usize {
    let pairs = discover_rail_pairs(&c.netlist);
    let inter = may_interfere_matrix(&c.netlist, &pairs);
    let ex = Explorer::new(&c.netlist, &c.env, &c.initial, state_budget * 4);
    let mut seen: HashSet<emc_verify::State> = HashSet::new();
    let mut queue = VecDeque::new();
    let s0 = ex.initial_state();
    seen.insert(s0.clone());
    queue.push_back(s0);
    let mut checked_pairs = 0usize;
    while let Some(s) = queue.pop_front() {
        let internal = ex.internal_enabled(&s);
        let env = ex.env_enabled(&s, internal.is_empty());
        for (i, t1) in internal.iter().enumerate() {
            let g1 = t1.gate.expect("internal transition carries a gate");
            let (s1, _) = ex.apply(&s, t1);
            for t2 in internal.iter().skip(i + 1) {
                let g2 = t2.gate.expect("internal transition carries a gate");
                if inter.may_interfere(g1, g2) {
                    // Statically dependent: nothing to prove.
                    continue;
                }
                checked_pairs += 1;
                // Independent by the matrix: t2 must survive t1
                // unchanged and the diamond must close.
                let after1 = ex.internal_enabled(&s1);
                let t2b = after1
                    .iter()
                    .find(|t| t.gate == t2.gate && t.net == t2.net && t.value == t2.value)
                    .unwrap_or_else(|| {
                        panic!(
                            "{}: gates {g1:?}/{g2:?} marked independent but firing \
                             the first disabled the second",
                            c.name
                        )
                    });
                let (s12, _) = ex.apply(&s1, t2b);
                let (s2, _) = ex.apply(&s, t2);
                let after2 = ex.internal_enabled(&s2);
                let t1b = after2
                    .iter()
                    .find(|t| t.gate == t1.gate && t.net == t1.net && t.value == t1.value)
                    .unwrap_or_else(|| {
                        panic!(
                            "{}: gates {g2:?}/{g1:?} marked independent but firing \
                             the first disabled the second",
                            c.name
                        )
                    });
                let (s21, _) = ex.apply(&s2, t1b);
                assert_eq!(
                    s12, s21,
                    "{}: statically independent gates {g1:?}/{g2:?} do not commute",
                    c.name
                );
            }
        }
        if seen.len() >= state_budget {
            continue; // drain the queue without expanding further
        }
        for t in internal.iter().chain(env.iter()) {
            let (n, _) = ex.apply(&s, t);
            if !seen.contains(&n) {
                seen.insert(n.clone());
                queue.push_back(n);
            }
        }
    }
    checked_pairs
}

#[test]
fn static_independence_is_sound_on_builtins() {
    // The tight built-in handshakes can legitimately have zero
    // statically independent pairs (every firing interferes); the
    // property is vacuous there but must still hold state-by-state.
    for c in builtin_suite(true) {
        assert_observed_interference_is_static(&c, 1_500);
    }
}

#[test]
fn static_independence_is_sound_on_generated_corpus() {
    let mut checked = 0;
    for c in corpus_circuits() {
        checked += assert_observed_interference_is_static(&c, 1_000);
    }
    // The pipelined array's rows are disjoint, so the corpus walk must
    // exercise genuinely independent pairs.
    assert!(
        checked > 0,
        "corpus walk found no independent pairs to check"
    );
}

#[test]
fn orbits_commute_on_builtins_and_corpus() {
    for c in builtin_suite(true).iter().chain(corpus_circuits().iter()) {
        match orbit_commutation_check(c, 20_000) {
            Ok(_) => {}
            Err(e) => panic!("{}: orbit commutation failed: {e}", c.name),
        }
    }
}

/// Full-vs-reduced verdict equivalence on one circuit; returns the two
/// state counts.
fn verdicts_match(c: &Circuit<'static>) -> (usize, usize) {
    let full = Verifier::new().verify(c);
    let reduced = Verifier::new().with_reduction(true).verify(c);
    assert_eq!(
        full.distinct_rules(),
        reduced.distinct_rules(),
        "{}: rule set diverged under reduction",
        c.name
    );
    assert_eq!(
        full.is_clean(),
        reduced.is_clean(),
        "{}: verdict diverged",
        c.name
    );
    assert_eq!(
        full.exhaustive, reduced.exhaustive,
        "{}: exhaustiveness diverged",
        c.name
    );
    assert!(
        reduced.states <= full.states,
        "{}: reduction grew the state count ({} > {})",
        c.name,
        reduced.states,
        full.states
    );
    (full.states, reduced.states)
}

#[test]
fn reduced_verification_is_equivalent_on_builtins() {
    for c in builtin_suite(true) {
        verdicts_match(&c);
    }
}

#[test]
fn reduced_verification_is_equivalent_on_generated_corpus() {
    for c in corpus_circuits() {
        verdicts_match(&c);
    }
}

#[test]
fn pipelined_array_reduces_at_least_two_fold() {
    // Two independent, mutually symmetric rows: both the persistent-set
    // and the orbit-quotient machinery must bite here.
    let c = emc_gen::pipelined_array(2, 2, "sa-array").verify_circuit();
    assert!(
        c.footprint.is_some(),
        "pipelined array declares a footprint"
    );
    let (full, reduced) = verdicts_match(&c);
    assert!(
        reduced * 2 <= full,
        "expected >=2x state reduction on the pipelined array, got {full} -> {reduced}"
    );
}

#[test]
fn cached_selection_matches_fresh_on_array_and_corpus() {
    // The array is where selection reduces and its cache hits most;
    // the WCHB datapath adds a corpus circuit of another family.
    let array = emc_gen::pipelined_array(2, 2, "sa-array").verify_circuit();
    let wchb = corpus_circuits().swap_remove(3);
    for c in [array, wchb] {
        match select_cache_check(&c, 50_000) {
            Ok(checked) => assert!(checked > 0, "{}: no state checked", c.name),
            Err(e) => panic!("{}: cached selection diverged: {e}", c.name),
        }
    }
}

#[test]
fn compact_orbit_keys_match_the_per_bit_reference() {
    // The arrays are where the keys matter: one group of 2, 3 or 6
    // rows. In the 6x2 array the last row's nets 55-65 straddle the
    // first state word, so its key is read in two runs.
    let arrays = [(2, 2), (3, 2), (6, 2)]
        .map(|(rows, cols)| emc_gen::pipelined_array(rows, cols, "sa").verify_circuit());
    let mut symmetric = 0;
    for c in builtin_suite(false)
        .into_iter()
        .chain(corpus_circuits())
        .chain(arrays)
    {
        match canonical_key_check(&c, 50_000) {
            Ok(checked) => symmetric += usize::from(checked > 0),
            Err(e) => panic!("{}: compact keys diverged: {e}", c.name),
        }
    }
    assert!(
        symmetric >= 4,
        "only {symmetric} circuits had a symmetry to check"
    );
}
