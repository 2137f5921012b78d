//! Gate-level netlist representation for self-timed circuits.
//!
//! The circuits of the paper — dual-rail counters, completion detectors,
//! toggle flip-flops, SRAM handshake controllers — are all built from a
//! small set of gate primitives, with the **Muller C-element** (the
//! rendezvous gate of speed-independent design) alongside the ordinary
//! Boolean gates. This crate provides:
//!
//! * [`GateKind`] — the primitive alphabet with per-gate next-state
//!   functions (the C-element and set/reset latch are *state-holding*:
//!   their next output depends on the current one);
//! * [`Netlist`] — an append-only circuit graph with a builder-style API,
//!   well-formedness checks (single driver per net, arity, combinational
//!   loops) and fanout queries used by the simulator for load computation;
//! * [`DualRail`] — the two-wire (true-rail / false-rail) signal encoding
//!   used by Design 1 in the paper's power-proportionality argument.
//!
//! # Examples
//!
//! Build the canonical speed-independent rendezvous:
//!
//! ```
//! use emc_netlist::{GateKind, Netlist};
//!
//! let mut n = Netlist::new();
//! let a = n.input("a");
//! let b = n.input("b");
//! let y = n.gate(GateKind::CElement, &[a, b], "y");
//! n.mark_output(y);
//! n.check().unwrap();
//! assert_eq!(n.fanout(a), [n.driver_of(y).unwrap()]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod dualrail;
pub mod export;
pub mod gate;
pub mod graph;
pub mod partition;
pub mod textio;

pub use diag::{Diagnostic, Severity};
pub use dualrail::{completion_detector, DualRail, DualRailValue};
pub use export::{to_dot, to_verilog};
pub use gate::{GateKind, ParseGateKindError};
pub use graph::{Gate, GateId, NetId, Netlist, NetlistError};
pub use partition::{CrossingNet, Partitioned};
pub use textio::{from_text, to_text, TextFormatError};
