//! Seed → circuit plans, and shrinking of failing plans.
//!
//! A [`Plan`] is the *recipe* for a generated circuit: the family and
//! its parameter draw, derived deterministically from a single `u64`
//! seed by [`Plan::from_seed`]. Keeping the recipe explicit (instead of
//! generating the netlist straight off the RNG stream) is what makes
//! failures reproducible from the seed alone and shrinkable: any
//! subsequence of a block list, or any smaller parameter value, is
//! itself a valid plan.

use emc_prng::{Rng, StdRng};

use crate::families::{
    block_graph, completion_tree, dims_adder, micropipeline, pipelined_array, wchb_datapath,
    BlockSpec,
};
use crate::GeneratedCircuit;

/// Upper bounds for each family's parameter draw. Bounds trade fuzzing
/// reach against exhaustive-verification cost: every drawn circuit
/// should stay within the verifier's state cap so the differential
/// check can assert reachable-set membership, not just digest equality.
#[derive(Debug, Clone)]
pub struct GenBounds {
    /// Completion-tree width (bits).
    pub(crate) max_tree_width: usize,
    /// WCHB pipeline depth (stages).
    pub(crate) max_wchb_stages: usize,
    /// WCHB pipeline width (bits).
    pub(crate) max_wchb_width: usize,
    /// DIMS adder width (bits).
    pub(crate) max_adder_width: usize,
    /// Muller pipeline depth (stages).
    pub(crate) max_mp_stages: usize,
    /// Pipelined-array rows.
    pub(crate) max_array_rows: usize,
    /// Pipelined-array columns (row depth).
    pub(crate) max_array_cols: usize,
    /// Block-graph dual-rail inputs.
    pub(crate) max_graph_inputs: usize,
    /// Block-graph DIMS blocks.
    pub(crate) max_graph_blocks: usize,
}

impl GenBounds {
    /// Bounds for the CI smoke tier: every family stays exhaustively
    /// explorable in well under a second per seed.
    pub fn smoke() -> Self {
        Self {
            max_tree_width: 6,
            max_wchb_stages: 3,
            max_wchb_width: 2,
            max_adder_width: 2,
            max_mp_stages: 5,
            max_array_rows: 2,
            max_array_cols: 2,
            max_graph_inputs: 3,
            max_graph_blocks: 4,
        }
    }

    /// Bounds for overnight fuzzing: larger draws whose exploration may
    /// hit the state cap (the differential check then falls back to
    /// digest-equality only).
    pub fn full() -> Self {
        Self {
            max_tree_width: 64,
            max_wchb_stages: 6,
            max_wchb_width: 4,
            max_adder_width: 4,
            max_mp_stages: 12,
            max_array_rows: 3,
            max_array_cols: 3,
            max_graph_inputs: 4,
            max_graph_blocks: 10,
        }
    }
}

/// A family plus its concrete parameter draw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FamilyPlan {
    /// [`completion_tree`] of the given width.
    CompletionTree {
        /// Word width in bits.
        width: usize,
    },
    /// [`wchb_datapath`] of the given depth and width.
    WchbDatapath {
        /// Pipeline depth in stages.
        stages: usize,
        /// Datapath width in bits.
        width: usize,
    },
    /// [`dims_adder`] of the given width.
    DimsAdder {
        /// Operand width in bits.
        width: usize,
    },
    /// [`micropipeline`] of the given depth.
    Micropipeline {
        /// Control pipeline depth in stages.
        stages: usize,
    },
    /// [`pipelined_array`] of the given shape.
    PipelinedArray {
        /// Independent pipeline rows.
        rows: usize,
        /// Stages per row.
        cols: usize,
    },
    /// [`block_graph`] over the given inputs and block list.
    BlockGraph {
        /// Dual-rail input count.
        width: usize,
        /// DIMS blocks, applied in order over the signal pool.
        blocks: Vec<BlockSpec>,
    },
}

/// A reproducible generation recipe: seed plus the resolved draw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// The seed this plan was drawn from (also names the circuit).
    pub seed: u64,
    /// The resolved family and parameters.
    pub family: FamilyPlan,
}

impl Plan {
    /// Draws a plan from `seed` within `bounds`. Deterministic: the
    /// same seed and bounds always produce the same plan.
    pub fn from_seed(seed: u64, bounds: &GenBounds) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let family = match rng.gen_range(0u8..6) {
            0 => FamilyPlan::CompletionTree {
                width: rng.gen_range(1..=bounds.max_tree_width),
            },
            1 => FamilyPlan::WchbDatapath {
                stages: rng.gen_range(1..=bounds.max_wchb_stages),
                width: rng.gen_range(1..=bounds.max_wchb_width),
            },
            2 => FamilyPlan::DimsAdder {
                width: rng.gen_range(1..=bounds.max_adder_width),
            },
            3 => FamilyPlan::Micropipeline {
                stages: rng.gen_range(1..=bounds.max_mp_stages),
            },
            4 => FamilyPlan::PipelinedArray {
                rows: rng.gen_range(1..=bounds.max_array_rows),
                cols: rng.gen_range(1..=bounds.max_array_cols),
            },
            _ => {
                let width = rng.gen_range(1..=bounds.max_graph_inputs);
                let n = rng.gen_range(0..=bounds.max_graph_blocks);
                let blocks = (0..n)
                    .map(|_| BlockSpec {
                        func: rng.gen_range(0u8..=255),
                        lhs: rng.gen::<u64>(),
                        rhs: rng.gen::<u64>(),
                    })
                    .collect();
                FamilyPlan::BlockGraph { width, blocks }
            }
        };
        Plan { seed, family }
    }

    /// Builds the circuit this plan describes.
    pub fn build(&self) -> GeneratedCircuit {
        let name = format!("s{:016x}", self.seed);
        match &self.family {
            FamilyPlan::CompletionTree { width } => completion_tree(*width, &name),
            FamilyPlan::WchbDatapath { stages, width } => wchb_datapath(*stages, *width, &name),
            FamilyPlan::DimsAdder { width } => dims_adder(*width, &name),
            FamilyPlan::Micropipeline { stages } => micropipeline(*stages, &name),
            FamilyPlan::PipelinedArray { rows, cols } => pipelined_array(*rows, *cols, &name),
            FamilyPlan::BlockGraph { width, blocks } => block_graph(*width, blocks, &name),
        }
    }

    /// A one-line human description of the draw.
    pub fn summary(&self) -> String {
        match &self.family {
            FamilyPlan::CompletionTree { width } => format!("completion-tree w={width}"),
            FamilyPlan::WchbDatapath { stages, width } => {
                format!("wchb-datapath n={stages} w={width}")
            }
            FamilyPlan::DimsAdder { width } => format!("dims-adder w={width}"),
            FamilyPlan::Micropipeline { stages } => format!("micropipeline n={stages}"),
            FamilyPlan::PipelinedArray { rows, cols } => {
                format!("pipelined-array {rows}x{cols}")
            }
            FamilyPlan::BlockGraph { width, blocks } => {
                format!("block-graph w={width} b={}", blocks.len())
            }
        }
    }

    /// Strictly smaller plans to try when this one fails: parameters
    /// stepped down (halved toward 1 and decremented), and — for block
    /// graphs — the block list bisected and individually thinned. Every
    /// candidate is a valid plan (operand draws rebind modulo the new
    /// pool size).
    pub(crate) fn shrink_candidates(&self) -> Vec<Plan> {
        let mut out = Vec::new();
        let mut push = |family: FamilyPlan| {
            let p = Plan {
                seed: self.seed,
                family,
            };
            if p != *self && !out.contains(&p) {
                out.push(p);
            }
        };
        let steps = |v: usize| [v / 2, v - 1].into_iter().filter(|&s| s >= 1);
        match &self.family {
            FamilyPlan::CompletionTree { width } => {
                for w in steps(*width) {
                    push(FamilyPlan::CompletionTree { width: w });
                }
            }
            FamilyPlan::WchbDatapath { stages, width } => {
                for n in steps(*stages) {
                    push(FamilyPlan::WchbDatapath {
                        stages: n,
                        width: *width,
                    });
                }
                for w in steps(*width) {
                    push(FamilyPlan::WchbDatapath {
                        stages: *stages,
                        width: w,
                    });
                }
            }
            FamilyPlan::DimsAdder { width } => {
                for w in steps(*width) {
                    push(FamilyPlan::DimsAdder { width: w });
                }
            }
            FamilyPlan::Micropipeline { stages } => {
                for n in steps(*stages) {
                    push(FamilyPlan::Micropipeline { stages: n });
                }
            }
            FamilyPlan::PipelinedArray { rows, cols } => {
                for r in steps(*rows) {
                    push(FamilyPlan::PipelinedArray {
                        rows: r,
                        cols: *cols,
                    });
                }
                for c in steps(*cols) {
                    push(FamilyPlan::PipelinedArray {
                        rows: *rows,
                        cols: c,
                    });
                }
            }
            FamilyPlan::BlockGraph { width, blocks } => {
                if !blocks.is_empty() {
                    let mid = blocks.len() / 2;
                    push(FamilyPlan::BlockGraph {
                        width: *width,
                        blocks: blocks[..mid].to_vec(),
                    });
                    push(FamilyPlan::BlockGraph {
                        width: *width,
                        blocks: blocks[mid..].to_vec(),
                    });
                    for drop in 0..blocks.len() {
                        let mut thin = blocks.clone();
                        thin.remove(drop);
                        push(FamilyPlan::BlockGraph {
                            width: *width,
                            blocks: thin,
                        });
                    }
                }
                for w in steps(*width) {
                    push(FamilyPlan::BlockGraph {
                        width: w,
                        blocks: blocks.clone(),
                    });
                }
            }
        }
        out
    }
}

/// Greedily shrinks a failing plan: repeatedly replaces it with the
/// first strictly smaller candidate that still fails, until none does.
/// `fails` must be deterministic (re-running the same check).
pub fn shrink(mut plan: Plan, fails: impl Fn(&Plan) -> bool) -> Plan {
    loop {
        let Some(smaller) = plan.shrink_candidates().into_iter().find(&fails) else {
            return plan;
        };
        plan = smaller;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seed_is_deterministic_and_in_bounds() {
        let bounds = GenBounds::smoke();
        for seed in 0..200u64 {
            let a = Plan::from_seed(seed, &bounds);
            let b = Plan::from_seed(seed, &bounds);
            assert_eq!(a, b);
            match &a.family {
                FamilyPlan::CompletionTree { width } => {
                    assert!((1..=bounds.max_tree_width).contains(width));
                }
                FamilyPlan::WchbDatapath { stages, width } => {
                    assert!((1..=bounds.max_wchb_stages).contains(stages));
                    assert!((1..=bounds.max_wchb_width).contains(width));
                }
                FamilyPlan::DimsAdder { width } => {
                    assert!((1..=bounds.max_adder_width).contains(width));
                }
                FamilyPlan::Micropipeline { stages } => {
                    assert!((1..=bounds.max_mp_stages).contains(stages));
                }
                FamilyPlan::PipelinedArray { rows, cols } => {
                    assert!((1..=bounds.max_array_rows).contains(rows));
                    assert!((1..=bounds.max_array_cols).contains(cols));
                }
                FamilyPlan::BlockGraph { width, blocks } => {
                    assert!((1..=bounds.max_graph_inputs).contains(width));
                    assert!(blocks.len() <= bounds.max_graph_blocks);
                }
            }
        }
    }

    #[test]
    fn seeds_cover_every_family() {
        let bounds = GenBounds::smoke();
        let mut seen = [false; 6];
        for seed in 0..64u64 {
            let idx = match Plan::from_seed(seed, &bounds).family {
                FamilyPlan::CompletionTree { .. } => 0,
                FamilyPlan::WchbDatapath { .. } => 1,
                FamilyPlan::DimsAdder { .. } => 2,
                FamilyPlan::Micropipeline { .. } => 3,
                FamilyPlan::PipelinedArray { .. } => 4,
                FamilyPlan::BlockGraph { .. } => 5,
            };
            seen[idx] = true;
        }
        assert_eq!(seen, [true; 6], "64 seeds should hit all six families");
    }

    #[test]
    fn shrink_candidates_are_strictly_smaller_valid_plans() {
        let bounds = GenBounds::smoke();
        for seed in 0..40u64 {
            let plan = Plan::from_seed(seed, &bounds);
            for cand in plan.shrink_candidates() {
                assert_ne!(cand, plan);
                // Every candidate must still build without panicking.
                let gc = cand.build();
                assert!(gc.netlist.gate_count() > 0);
            }
        }
    }

    #[test]
    fn shrink_reaches_a_local_minimum() {
        // A predicate that "fails" whenever the block list has at least
        // two blocks: the shrinker must land on exactly two.
        let plan = Plan {
            seed: 7,
            family: FamilyPlan::BlockGraph {
                width: 3,
                blocks: (0..6)
                    .map(|i| BlockSpec {
                        func: i as u8,
                        lhs: i,
                        rhs: i + 1,
                    })
                    .collect(),
            },
        };
        let fails = |p: &Plan| match &p.family {
            FamilyPlan::BlockGraph { blocks, .. } => blocks.len() >= 2,
            _ => false,
        };
        let min = shrink(plan, fails);
        match &min.family {
            FamilyPlan::BlockGraph { blocks, .. } => assert_eq!(blocks.len(), 2),
            other => panic!("unexpected family {other:?}"),
        }
    }
}
