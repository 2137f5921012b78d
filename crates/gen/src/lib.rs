//! Parameterized netlist generation and seeded differential checking.
//!
//! The paper's central claim is that a speed-independent circuit
//! computes the **same function at every supply voltage** — energy
//! modulates throughput, never correctness. This crate turns that claim
//! into a falsifiable, fuzzable property over *generated* circuits:
//!
//! 1. [`families`] builds parameterized speed-independent designs
//!    (completion trees, WCHB datapaths, DIMS adders, micropipelines,
//!    pipelined arrays, random DIMS block graphs) from the
//!    [`emc_netlist::dualrail`] primitives, each packaged as a
//!    [`GeneratedCircuit`]: a closed netlist plus an
//!    [`emc_verify::EnvModel`] environment.
//! 2. [`plan`] maps a PRNG seed to a family + parameter draw
//!    ([`plan::Plan::from_seed`]) and shrinks failing draws to minimal
//!    reproducers ([`plan::shrink`]).
//! 3. [`differential`] runs the check: exhaustive verification
//!    (semimodularity, output persistency, dual-rail protocol), then
//!    event-driven simulation under several Vdd schedules with a seeded
//!    driver, asserting every simulated state lies in the verifier's
//!    reachable set and that the quiescent-state trace digest is
//!    **identical across schedules** — the diamond-property argument
//!    made executable.
//!
//! Because speed-independent closed circuits are semimodular, their
//! transition systems have the diamond property: from any state the
//! reachable quiescent state is unique regardless of firing order, so a
//! fixed environment seed yields the same quiescent-state sequence under
//! a nominal 1.0 V rail, a 0.3 V sub-threshold rail, or a harvested AC
//! sine. A digest mismatch is a hard counterexample to the paper's
//! thesis (or, in practice, to the generator's SI-composition rules).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod differential;
pub mod families;
pub mod plan;

use std::sync::Arc;

use emc_netlist::{GateId, NetId, Netlist};
use emc_verify::{Circuit, EnvModel};

pub use differential::{check_generated, CheckOptions, CheckOutcome, SimView};
pub use families::{
    block_graph, completion_tree, dims_adder, micropipeline, pipelined_array,
    pipelined_array_domains, wchb_datapath, BlockSpec,
};
pub use plan::{shrink, FamilyPlan, GenBounds, Plan};

/// A generated closed circuit: netlist, initial net overrides, and the
/// environment model that closes it. Directly consumable by the
/// verifier (via [`GeneratedCircuit::verify_circuit`]), by the
/// simulator (replay the same [`EnvModel`] against a live
/// [`emc_sim::Simulator`]), and by the campaign engine.
pub struct GeneratedCircuit {
    /// Human-readable family + parameter tag, e.g. `p-wchb4x8`.
    pub name: String,
    /// The closed netlist.
    pub netlist: Netlist,
    /// Nets forced high in the initial state (none for the current
    /// families — all start at the all-low reset state).
    pub initial: Vec<(NetId, bool)>,
    /// The environment protocol machine closing the circuit.
    pub env: Arc<dyn EnvModel>,
    /// Suggested Vdd-domain decomposition: `domains[d]` lists the gates
    /// of domain `d`, sources included. Empty for single-domain
    /// families; [`pipelined_array_domains`] fills it, and
    /// [`GeneratedCircuit::domain_assignment`] turns it into the
    /// per-gate table `emc_sim::PdesSimulator` takes.
    pub domains: Vec<Vec<GateId>>,
}

impl GeneratedCircuit {
    /// Per-gate partition assignment derived from
    /// [`GeneratedCircuit::domains`]. Source entries count like any
    /// other: an input belongs in the partition of the gates that read
    /// it. Gates not listed land in partition 0, so with no
    /// decomposition the table is a single partition.
    pub fn domain_assignment(&self) -> Vec<u32> {
        let mut table = vec![0u32; self.netlist.gate_count()];
        for (d, gates) in self.domains.iter().enumerate() {
            for g in gates {
                table[g.index()] = d as u32;
            }
        }
        table
    }

    /// Number of suggested Vdd domains (at least 1).
    pub fn domain_count(&self) -> usize {
        self.domains.len().max(1)
    }

    /// Packages this circuit for [`emc_verify::Verifier::verify`].
    pub fn verify_circuit(&self) -> Circuit<'static> {
        Circuit {
            initial: self.initial.clone(),
            ..Circuit::new(&self.name, self.netlist.clone(), Arc::clone(&self.env))
        }
    }
}
