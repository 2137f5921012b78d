//! # emc-fleet — deterministic fleet-scale node simulation
//!
//! The paper's headline scenario is not one circuit on one supply but
//! *populations* of energy-harvesting devices whose computation is
//! modulated by whatever power the environment delivers. This crate
//! scales the reproduction from "replay Fig. 7" to thousands-to-
//! millions of communicating sensor nodes:
//!
//! * each [`node::NodeState`] bundles a real [`emc_power::PowerChain`]
//!   (seed-jittered vibration or solar harvester → storage cap →
//!   DC-DC), the calibrated charge-to-digital sensor front-end, and an
//!   abstracted self-timed logic island whose throughput and
//!   energy-per-op curves are **calibrated from gate-level `emc-sim`
//!   runs** of the builtin counting rig ([`island::IslandModel`]) — so
//!   fleets never step netlists in the hot loop;
//! * nodes exchange messages over a [`topology::Topology`] with
//!   per-link latencies of one-to-four epochs, through shard-local
//!   [`event::EventQueue`]s (execution yields successor events — the
//!   `akshayknarayan/simulator` event/node/topology split). Since no
//!   event schedules another inside its own epoch, a shard runs each
//!   epoch as one batch, node-major: grouped by node in index order,
//!   each node's events in `(time, seq)` order, which is exact because
//!   nodes share nothing within an epoch;
//! * tasks run under the **energy-token discipline**
//!   ([`emc_power::PowerChain::draw_quantum`]): the whole quantum is
//!   banked up front or the task does not start, and the
//!   **game-theoretic power manager** ([`emc_core::PowerGame`]) turns
//!   each epoch's measured harvest into per-class duty quotas;
//! * the engine shards nodes across the [`emc_sim::fan_out`] worker
//!   pool with splitmix-derived per-node seeds, an epoch barrier whose
//!   lookahead is the minimum link latency (it routes messages and adds
//!   per-shard totals; shards sort their own inboxes), and
//!   exact-integer femtojoule ledgers ([`node::NodeLedger`],
//!   associative merge) — so fleet digests and JSON reports are
//!   **bit-identical at any worker thread count**, and every run checks
//!   that messages are conserved (sent = received + dropped + in
//!   flight).
//!
//! ```
//! use emc_fleet::{run_fleet, CalibDepth, FleetConfig};
//!
//! let config = FleetConfig {
//!     calib: CalibDepth::Smoke,
//!     ..FleetConfig::new(96, 4, 2011)
//! };
//! let a = run_fleet(&config, 1);
//! let b = run_fleet(&config, 2);
//! assert_eq!(a.digest, b.digest);
//! assert_eq!(a.to_json(), b.to_json());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod island;
pub mod node;
pub mod topology;

pub use engine::{
    run_fleet, shard_count, ClassReport, DroughtSpec, EpochRow, FleetConfig, FleetReport,
};
pub use event::{EventKind, EventQueue, FleetEvent, Message, Nanos};
pub use island::{CalibDepth, IslandModel, IslandPoint, SensorModel, SensorPoint, TaskCost};
pub use node::{NodeClass, NodeLedger, NodeState, NodeSummary, TaskOutcome, CLASSES};
pub use topology::{Link, Topology, TopologyKind, CLUSTER_SIZE};
