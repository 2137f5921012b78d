//! Petri nets with energy tokens — the modelling substrate for
//! energy-modulated task scheduling (\[15\] in the paper).
//!
//! The paper's conclusion points to "Petri net based models with energy
//! tokens" as the mathematical underpinning of energy-modulated
//! computing: a transition (a unit of computation) is enabled not only by
//! its *logical* preconditions (ordinary tokens) but also by the
//! availability of an *energy quantum*. Scheduling under a harvester then
//! becomes a token game in which the environment drips energy into the
//! net.
//!
//! * [`PetriNet`] — places, transitions, weighted arcs, and per-
//!   transition energy costs drawn from a shared budget; its enabled set
//!   under a budget tells energy starvation from a logical deadlock;
//! * [`Stg`] — signal transition graphs, the specifications that
//!   `emc-verify` checks circuits against;
//! * [`TaskGraph`] — a dependency DAG of energy-costed tasks compiled
//!   into a net (one place per dependency edge, one "done" place per
//!   task).
//!
//! # Examples
//!
//! A transition gated by energy:
//!
//! ```
//! use emc_petri::PetriNet;
//! use emc_units::Joules;
//!
//! let mut net = PetriNet::new();
//! let ready = net.add_place("ready", 1);
//! let done = net.add_place("done", 0);
//! let work = net.add_transition("work");
//! net.add_input_arc(work, ready, 1);
//! net.add_output_arc(work, done, 1);
//! net.set_energy_cost(work, Joules(2.0));
//!
//! let mut budget = Joules(1.0);
//! assert!(net.enabled(budget).is_empty()); // logically ready, energy-starved
//! budget += Joules(1.5);
//! net.fire(work, &mut budget).unwrap();
//! assert_eq!(net.tokens(done), 1);
//! assert!((budget.0 - 0.5).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod net;
pub mod stg;
pub mod taskgraph;

pub use net::{FireError, Marking, PetriNet, PlaceId, TransitionId};
pub use stg::{Polarity, SignalId, Stg, StgError};
pub use taskgraph::{CompiledGraph, Task, TaskGraph, TaskId};
