//! Energy harvesters, storage, DC-DC conversion and power chains.
//!
//! Section II-B of *Energy-modulated computing* contrasts battery supply
//! (stable voltage, ample current) with energy-harvester supply: possibly
//! infinite energy but **small, unstable power** that makes maintaining a
//! stable Vdd expensive. This crate models the supply side of that
//! argument:
//!
//! * [`harvester`] — micro-generator models: a resonant
//!   [`VibrationHarvester`] (power falls off a Lorentzian as the tuning
//!   drifts from resonance — the thing MPPT tracks), a [`SolarCell`] with
//!   an I–V curve and irradiance profile, and [`HarvestSource`]'s plain
//!   power profile;
//! * [`storage`] — [`StorageCap`]: the super-capacitor buffer with charge
//!   bookkeeping and a voltage clamp;
//! * [`converter`] — [`DcDcConverter`]: a regulated output with a
//!   conversion-ratio-dependent efficiency curve and quiescent draw, the
//!   "significant effort (again costing energy!)" of the paper;
//! * [`mppt`] — [`PerturbObserve`]: the classic maximum-power-point
//!   tracker used on the generation side;
//! * [`chain`] — [`PowerChain`]: harvester → storage → converter composed
//!   into one steppable object with full energy accounting, plus
//!   [`chain::ac_supply`] for the raw AC rail of the paper's Fig. 4;
//! * [`power_clock`] — [`PowerClock`]: the trapezoidal/sinusoidal n-phase
//!   ramped supply of adiabatic logic, with the phase-discipline queries
//!   the `emc-verify` `PC` rules and `emc-altlogic` build on.
//!
//! # Examples
//!
//! ```
//! use emc_power::{PowerChain, StorageCap, DcDcConverter, VibrationHarvester};
//! use emc_units::{Farads, Hertz, Seconds, Volts, Watts};
//!
//! let harvester = VibrationHarvester::new(Hertz(120.0), Watts(100e-6), 8.0);
//! let storage = StorageCap::new(Farads(10e-6), Volts(0.0), Volts(1.2));
//! let dcdc = DcDcConverter::new(Volts(0.5));
//! let mut chain = PowerChain::new(harvester.into_source(Hertz(120.0)), storage, dcdc);
//! // One millisecond of harvesting with no load charges the reservoir.
//! chain.tick(Seconds(1e-3), Watts(0.0));
//! assert!(chain.storage().voltage() > Volts(0.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod battery;
pub mod chain;
pub mod converter;
pub mod harvester;
pub mod mppt;
pub mod power_clock;
pub mod storage;

pub use battery::Battery;
pub use chain::{ChainReport, PowerChain};
pub use converter::DcDcConverter;
pub use harvester::{HarvestSource, SolarCell, VibrationHarvester};
pub use mppt::PerturbObserve;
pub use power_clock::{ClockShape, PhasePos, PowerClock};
pub use storage::StorageCap;
