//! Parameterized circuit families.
//!
//! Every constructor returns a [`GeneratedCircuit`]: a closed netlist
//! plus the environment model that drives it, directly consumable by
//! the verifier, the simulator, and the campaign engine. The families
//! cover the repository's speed-independent design space:
//!
//! * [`completion_tree`] — a W-bit completion detector under fill/drain;
//! * [`wchb_datapath`] — an N-stage, W-bit WCHB dual-rail pipeline;
//! * [`dims_adder`] — a W-bit DIMS ripple-carry adder datapath;
//! * [`micropipeline`] — an M-stage Muller control pipeline;
//! * [`pipelined_array`] — an R×C array of independent pipeline rows;
//! * [`block_graph`] — a random DAG of DIMS gates closed by a single
//!   completion detector over every unconsumed dual-rail signal.

use std::sync::Arc;

use emc_async::{dims_gate2, DualRailAdder, DualRailPipeline, MullerPipeline};
use emc_netlist::{completion_detector, DualRail, Netlist};
use emc_verify::{ComposedEnv, EnvModel, FillDrainEnv, MicropipelineEnv, WchbEnv};

use crate::GeneratedCircuit;

/// One DIMS block in a [`block_graph`] plan: a 2-input function applied
/// to two earlier signals. Operand references are raw draws reduced
/// modulo the signal pool size at build time, so *any* subsequence of a
/// block list is itself a valid plan — which is what makes differential
/// failures shrinkable by plain list bisection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockSpec {
    /// Function selector, reduced modulo `BLOCK_FUNCTIONS.len()`.
    pub func: u8,
    /// Raw draw for the left operand (mod pool size at build time).
    pub lhs: u64,
    /// Raw draw for the right operand (mod pool size at build time).
    pub rhs: u64,
}

/// A named 2-input boolean function usable as a [`BlockSpec`] body.
pub(crate) type BlockFunction = (&'static str, fn(bool, bool) -> bool);

/// The 2-input functions a [`BlockSpec`] may select: every non-trivial
/// symmetric-complete choice that keeps both DIMS output rails driven
/// by real minterms (constant functions would tie a rail to `Const0`
/// and never produce a codeword).
pub(crate) const BLOCK_FUNCTIONS: [BlockFunction; 6] = [
    ("and", |a, b| a & b),
    ("or", |a, b| a | b),
    ("xor", |a, b| a ^ b),
    ("nand", |a, b| !(a & b)),
    ("nor", |a, b| !(a | b)),
    ("xnor", |a, b| !(a ^ b)),
];

/// A W-bit completion detector (per-bit validity OR into a C-element
/// tree — the paper's Fig. 4 Design 1) closed by a fill/drain
/// environment gated on its own `done` output.
///
/// # Panics
///
/// Panics if `width == 0` or `width > 64`.
pub fn completion_tree(width: usize, name: &str) -> GeneratedCircuit {
    assert!((1..=64).contains(&width), "width must be in 1..=64");
    let mut nl = Netlist::new();
    let pairs: Vec<DualRail> = (0..width)
        .map(|i| DualRail::input(&mut nl, &format!("{name}.w{i}")))
        .collect();
    let done = completion_detector(&mut nl, &pairs, &format!("{name}.cd"));
    nl.mark_output(done);
    GeneratedCircuit {
        name: format!("{name}-tree{width}"),
        netlist: nl,
        initial: Vec::new(),
        env: Arc::new(FillDrainEnv { pairs, done }),
        domains: Vec::new(),
    }
}

/// An `stages`-deep, `width`-bit WCHB dual-rail pipeline with a fully
/// reactive four-phase sender and receiver.
///
/// # Panics
///
/// Panics if `stages == 0`, `width == 0`, or `width > 64`.
pub fn wchb_datapath(stages: usize, width: usize, name: &str) -> GeneratedCircuit {
    let mut nl = Netlist::new();
    let p = DualRailPipeline::build_wide(&mut nl, stages, width, name);
    GeneratedCircuit {
        name: format!("{name}-wchb{stages}x{width}"),
        netlist: nl,
        initial: Vec::new(),
        env: Arc::new(WchbEnv::for_pipeline(&p)),
        domains: Vec::new(),
    }
}

/// A `width`-bit DIMS ripple-carry adder under the four-phase dual-rail
/// fill/drain environment.
///
/// # Panics
///
/// Panics if `width` is not in `1..=63`.
pub fn dims_adder(width: usize, name: &str) -> GeneratedCircuit {
    let mut nl = Netlist::new();
    let add = DualRailAdder::build(&mut nl, width, name);
    let mut pairs = Vec::with_capacity(2 * width);
    for op in ["a", "b"] {
        for i in 0..width {
            pairs.push(DualRail {
                t: nl
                    .find_net(&format!("{name}.{op}{i}.t"))
                    .expect("adder input rail"),
                f: nl
                    .find_net(&format!("{name}.{op}{i}.f"))
                    .expect("adder input rail"),
            });
        }
    }
    let done = add.done();
    GeneratedCircuit {
        name: format!("{name}-adder{width}"),
        netlist: nl,
        initial: Vec::new(),
        env: Arc::new(FillDrainEnv { pairs, done }),
        domains: Vec::new(),
    }
}

/// An `stages`-stage Muller control pipeline with a two-phase sender
/// and an eager consumer.
///
/// # Panics
///
/// Panics if `stages == 0`.
pub fn micropipeline(stages: usize, name: &str) -> GeneratedCircuit {
    let mut nl = Netlist::new();
    let p = MullerPipeline::build(&mut nl, stages, name);
    GeneratedCircuit {
        name: format!("{name}-mp{stages}"),
        netlist: nl,
        initial: Vec::new(),
        env: Arc::new(MicropipelineEnv::for_pipeline(&p)),
        domains: Vec::new(),
    }
}

/// An `rows` × `cols` pipelined array block: independent 1-bit WCHB
/// rows of depth `cols`, each closed by its own sender/receiver pair.
/// The joint state space is the product of the rows', so the whole
/// block exercises concurrent token flow without any cross-row timing
/// coupling.
///
/// # Panics
///
/// Panics if `rows == 0` or `cols == 0`.
pub fn pipelined_array(rows: usize, cols: usize, name: &str) -> GeneratedCircuit {
    assert!(rows >= 1, "array needs at least one row");
    let mut nl = Netlist::new();
    let mut parts: Vec<Arc<dyn EnvModel>> = Vec::with_capacity(rows);
    for r in 0..rows {
        let p = DualRailPipeline::build(&mut nl, cols, &format!("{name}.r{r}"));
        parts.push(Arc::new(WchbEnv::for_pipeline(&p)));
    }
    GeneratedCircuit {
        name: format!("{name}-array{rows}x{cols}"),
        netlist: nl,
        initial: Vec::new(),
        env: Arc::new(ComposedEnv { parts }),
        domains: Vec::new(),
    }
}

/// [`pipelined_array`] with a suggested Vdd-domain decomposition: row
/// `r`, its inputs included, goes to domain `r % parts`. Rows are
/// mutually independent, so no net crosses the cut and
/// `emc_sim::PdesSimulator` accepts it.
///
/// # Panics
///
/// Panics if `rows == 0`, `cols == 0`, or `parts == 0`.
pub fn pipelined_array_domains(
    rows: usize,
    cols: usize,
    parts: usize,
    name: &str,
) -> GeneratedCircuit {
    assert!(rows >= 1, "array needs at least one row");
    assert!(parts >= 1, "at least one domain");
    let mut nl = Netlist::new();
    let mut envs: Vec<Arc<dyn EnvModel>> = Vec::with_capacity(rows);
    let n_domains = parts.min(rows);
    let mut domains = vec![Vec::new(); n_domains];
    for r in 0..rows {
        let lo = nl.gate_count();
        let p = DualRailPipeline::build(&mut nl, cols, &format!("{name}.r{r}"));
        for i in lo..nl.gate_count() {
            domains[r % n_domains].push(nl.gate_id(i));
        }
        envs.push(Arc::new(WchbEnv::for_pipeline(&p)));
    }
    GeneratedCircuit {
        name: format!("{name}-array{rows}x{cols}d{}", domains.len()),
        netlist: nl,
        initial: Vec::new(),
        env: Arc::new(ComposedEnv { parts: envs }),
        domains,
    }
}

/// A random SI-composable block graph: `width` dual-rail inputs, one
/// DIMS gate per [`BlockSpec`] over the growing signal pool, and a
/// single completion detector over every signal no later block
/// consumes (including unconsumed inputs), closed by a fill/drain
/// environment on that detector.
///
/// Speed independence is by construction: the environment only drains
/// after `done` rises, `done` only rises once every pool signal's cone
/// is valid, and only falls once every cone is back at spacer — so no
/// excited gate is ever disabled.
///
/// # Panics
///
/// Panics if `width == 0` or `width > 64`.
pub fn block_graph(width: usize, blocks: &[BlockSpec], name: &str) -> GeneratedCircuit {
    assert!((1..=64).contains(&width), "width must be in 1..=64");
    let mut nl = Netlist::new();
    let inputs: Vec<DualRail> = (0..width)
        .map(|i| DualRail::input(&mut nl, &format!("{name}.x{i}")))
        .collect();
    let mut pool: Vec<DualRail> = inputs.clone();
    let mut consumed = vec![false; width];
    for (k, b) in blocks.iter().enumerate() {
        let li = (b.lhs % pool.len() as u64) as usize;
        let ri = (b.rhs % pool.len() as u64) as usize;
        let (fname, f) = BLOCK_FUNCTIONS[b.func as usize % BLOCK_FUNCTIONS.len()];
        let out = dims_gate2(
            &mut nl,
            f,
            pool[li],
            pool[ri],
            &format!("{name}.g{k}_{fname}"),
        );
        consumed[li] = true;
        consumed[ri] = true;
        pool.push(out);
        consumed.push(false);
    }
    let observed: Vec<DualRail> = pool
        .iter()
        .zip(&consumed)
        .filter(|(_, &c)| !c)
        .map(|(p, _)| *p)
        .collect();
    let done = completion_detector(&mut nl, &observed, &format!("{name}.cd"));
    nl.mark_output(done);
    GeneratedCircuit {
        name: format!("{name}-graph{width}b{}", blocks.len()),
        netlist: nl,
        initial: Vec::new(),
        env: Arc::new(FillDrainEnv {
            pairs: inputs,
            done,
        }),
        domains: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emc_verify::Verifier;

    fn assert_clean(gc: &GeneratedCircuit) {
        assert!(
            gc.netlist.validate().is_empty(),
            "{}: structural diagnostics",
            gc.name
        );
        let report = Verifier::new()
            .with_state_cap(200_000)
            .verify(&gc.verify_circuit());
        assert!(
            report.is_clean(),
            "{}: {:#?}",
            report.circuit,
            report.diagnostics
        );
        assert!(report.exhaustive, "{}: exploration capped", report.circuit);
        assert!(
            report.states > 1,
            "{}: degenerate state space",
            report.circuit
        );
    }

    #[test]
    fn completion_trees_verify_clean() {
        for width in [1, 2, 3] {
            assert_clean(&completion_tree(width, "t"));
        }
    }

    #[test]
    fn wchb_datapaths_verify_clean() {
        assert_clean(&wchb_datapath(1, 1, "p"));
        assert_clean(&wchb_datapath(2, 1, "p"));
        assert_clean(&wchb_datapath(1, 2, "p"));
        assert_clean(&wchb_datapath(2, 2, "p"));
    }

    #[test]
    fn dims_adders_verify_clean() {
        assert_clean(&dims_adder(1, "a"));
        assert_clean(&dims_adder(2, "a"));
    }

    #[test]
    fn micropipelines_verify_clean() {
        for stages in [1, 2, 4] {
            assert_clean(&micropipeline(stages, "m"));
        }
    }

    #[test]
    fn pipelined_arrays_verify_clean() {
        assert_clean(&pipelined_array(1, 1, "ar"));
        assert_clean(&pipelined_array(2, 2, "ar"));
    }

    /// The benchmark's arrays have no edge-triggered gate and fewer than
    /// 57 nets, so the explorer keys each state by one word: the net
    /// values with the env byte on top.
    #[test]
    fn benchmark_arrays_key_a_state_by_one_word() {
        for (rows, cols) in [(2, 3), (3, 2)] {
            let c = pipelined_array(rows, cols, "pa").verify_circuit();
            let ex = emc_verify::Explorer::new(&c.netlist, &*c.env, &c.initial, 1);
            assert_eq!(ex.key_words(), 1, "{rows}x{cols}");
        }
    }

    #[test]
    fn block_graphs_verify_clean() {
        // A layered DAG: g0 = x0 op x1, g1 = g0 op x2, g2 = g0 op g1
        // (shared fan-out), plus a block list that leaves an input
        // unconsumed.
        let blocks = [
            BlockSpec {
                func: 0,
                lhs: 0,
                rhs: 1,
            },
            BlockSpec {
                func: 2,
                lhs: 3,
                rhs: 2,
            },
            BlockSpec {
                func: 4,
                lhs: 3,
                rhs: 4,
            },
        ];
        assert_clean(&block_graph(3, &blocks, "bg"));
        // Empty block list degenerates to a completion tree.
        assert_clean(&block_graph(2, &[], "bg"));
    }

    #[test]
    fn domain_variants_cover_every_gate_and_verify_clean() {
        let gc = pipelined_array_domains(2, 2, 2, "ar");
        assert_eq!(gc.domains.len(), 2);
        assert_eq!(
            gc.domains.iter().map(Vec::len).sum::<usize>(),
            gc.netlist.gate_count(),
            "every gate gets a domain"
        );
        assert_eq!(gc.domain_assignment().len(), gc.netlist.gate_count());
        assert_clean(&gc);
    }

    #[test]
    fn domain_variants_clamp_partition_count() {
        // More requested domains than rows collapse to the row count.
        assert_eq!(pipelined_array_domains(2, 1, 8, "ar").domains.len(), 2);
    }

    #[test]
    fn generated_netlists_round_trip_as_text() {
        let gc = wchb_datapath(2, 2, "p");
        let text = emc_netlist::to_text(&gc.netlist);
        let imported = emc_netlist::from_text(&text).expect("round trip");
        assert_eq!(emc_netlist::to_text(&imported), text);
        assert_eq!(imported.net_count(), gc.netlist.net_count());
    }
}
