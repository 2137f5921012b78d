//! Self-timed component library: toggles, counters, dual-rail pipelines
//! and the bundled-data baseline.
//!
//! These are the building blocks of the paper's two contrasted design
//! styles (§II-A):
//!
//! * **Design 1 — speed-independent dual-rail** with completion
//!   detection: [`DualRailPipeline`], a classical weak-conditioned
//!   half-buffer (WCHB) Muller pipeline. More gates and more transitions
//!   per token, but *correct at any supply voltage* above the device
//!   floor and under arbitrary delay variation — the power-proportional
//!   end of Fig. 2.
//! * **Design 2 — bundled data**: [`BundledPipeline`], single-rail data
//!   latched under a matched delay line. Fewer transitions per token
//!   (power-efficient at nominal Vdd), but carries a *timing assumption*
//!   that process variation in sub-threshold destroys — the
//!   power-efficient end of Fig. 2.
//!
//! Plus the counting machinery of the charge-to-digital converter
//! (Figs. 9–11): [`ToggleRippleCounter`], a chain of toggle flip-flops in
//! which the pulse frequency halves at every stage, and
//! [`SelfTimedOscillator`], the enabled ring that generates the `R0`
//! pulse train when the sampling capacitor powers up.
//!
//! # Examples
//!
//! A 4-bit ripple counter counts oscillator pulses:
//!
//! ```
//! use emc_async::{SelfTimedOscillator, ToggleRippleCounter};
//! use emc_device::DeviceModel;
//! use emc_netlist::Netlist;
//! use emc_sim::{Simulator, SupplyKind};
//! use emc_units::{Seconds, Waveform};
//!
//! let mut nl = Netlist::new();
//! let osc = SelfTimedOscillator::build(&mut nl, "osc");
//! let counter = ToggleRippleCounter::build(&mut nl, 4, osc.output(), "cnt");
//! let mut sim = Simulator::new(nl, DeviceModel::umc90());
//! let vdd = sim.add_domain("vdd", SupplyKind::ideal(Waveform::constant(1.0)));
//! sim.assign_all(vdd);
//! osc.prime(&mut sim);
//! sim.start();
//! sim.run_until(Seconds(20e-9));
//! assert!(counter.read(&sim) > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbiter;
pub mod bundled;
pub mod counter;
pub mod dims;
pub mod micropipeline;
pub mod wchb;

pub use arbiter::Arbiter;
pub use bundled::{BundledPipeline, DelayLine};
pub use counter::{SelfTimedOscillator, ToggleRippleCounter};
pub use dims::{dims_full_adder, dims_gate2, DualRailAdder};
pub use micropipeline::MullerPipeline;
pub use wchb::DualRailPipeline;
