//! Power-adaptive scheduling, stochastic concurrency analysis and
//! game-theoretic power management.
//!
//! The paper's conclusion sketches the system layer of energy-modulated
//! computing: "(i) perform task scheduling according to the power
//! profile, and (ii) optimize the supply to the load needs", backed by
//! three companion techniques this crate implements:
//!
//! * [`energy_token`] — scheduling on Petri nets with energy tokens
//!   \[15\]: the [`EnergyTokenScheduler`] starts the first ready task, in
//!   dependency order, whose energy quantum is banked, against a
//!   [`GreedyScheduler`] baseline that starts tasks eagerly and *wastes*
//!   the invested energy whenever the reservoir browns out mid-task;
//! * [`stochastic`] — the power/latency/degree-of-concurrency analysis
//!   of \[12\]: a birth-death continuous-time Markov chain of a `K`-server
//!   station with finite buffer, solved in closed form
//!   ([`ConcurrencyModel`]);
//! * [`elastic`] — power-elastic concurrency control \[11\]: the
//!   [`ConcurrencyController`] picks the degree of concurrency that the
//!   available power allows;
//! * [`game`] — game-theoretic power management \[16\]: tasks bid for
//!   shares of a power budget by best-response dynamics
//!   ([`PowerGame`]), compared against a static equal split.
//!
//! # Examples
//!
//! ```
//! use emc_sched::ConcurrencyModel;
//!
//! let m = ConcurrencyModel::new(8.0, 1.0, 16);
//! let low = m.evaluate(1);   // sequential
//! let high = m.evaluate(8);  // 8-way concurrent
//! assert!(high.mean_latency < low.mean_latency);
//! assert!(high.mean_power > low.mean_power);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod elastic;
pub mod energy_token;
pub mod game;
pub mod stochastic;

pub use elastic::ConcurrencyController;
pub use energy_token::{EnergyTokenScheduler, GreedyScheduler, ScheduleReport};
pub use game::{PowerGame, TaskBid};
pub use stochastic::{ConcurrencyModel, ConcurrencyPoint};
