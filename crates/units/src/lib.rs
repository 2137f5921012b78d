//! Typed physical quantities and waveforms for the energy-modulated
//! computing simulation stack.
//!
//! Everything in the reproduction of *Energy-modulated computing*
//! (Yakovlev, DATE 2011) is denominated in physical units: gate delays in
//! seconds, supply rails in volts, switching energy in joules, sampling
//! capacitors in farads. Carrying those dimensions in the type system
//! prevents the classic simulator bug of, say, adding a charge to an
//! energy.
//!
//! The two halves of this crate are:
//!
//! * [`quantity`] — zero-cost `f64` newtypes ([`Volts`], [`Seconds`],
//!   [`Joules`], …) with the physically meaningful cross-unit operators
//!   (`Volts * Amps = Watts`, `Watts * Seconds = Joules`, …) and SI-prefix
//!   display;
//! * [`waveform`] — [`Waveform`], a function of time (a constant, a sine, a
//!   piecewise-linear or staircase schedule, gated by a product or
//!   clamped) used to describe supply-voltage trajectories, harvester
//!   output and traces recorded by the simulator.
//!
//! # Examples
//!
//! ```
//! use emc_units::{Volts, Farads, Seconds};
//!
//! let vdd = Volts(0.4);
//! let c_sample = Farads(100e-12);
//! // Charge on the sampling capacitor of the charge-to-digital converter:
//! let q = c_sample * vdd;
//! // Energy stored: E = C V^2 / 2.
//! let e = q * vdd * 0.5;
//! assert!((e.0 - 8e-12).abs() < 1e-18);
//! let _dt = Seconds(1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod quantity;
pub mod si;
pub mod waveform;

pub use quantity::{
    Amps, Celsius, Coulombs, Farads, Hertz, Joules, Kelvin, Ohms, Seconds, Volts, Watts,
};
pub use waveform::Waveform;
