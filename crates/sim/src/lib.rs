//! Discrete-event gate-level simulator with time-varying supply voltage
//! and per-transition energy accounting.
//!
//! This is the behavioural replacement for the analog (Cadence/Spectre)
//! simulations in *Energy-modulated computing* (Yakovlev, DATE 2011).
//! Three properties of that paper's circuits drive the design:
//!
//! 1. **Delay depends on the supply at the moment of switching.** Every
//!    gate's propagation delay is the solution of the *work integral*
//!    `∫ dt / td(Vdd(t)) = 1` over the supply waveform (see
//!    [`delay::completion_time`]). Under the AC supply of Fig. 4 this
//!    yields the pause-and-resume behaviour of self-timed logic for free:
//!    while Vdd is below the operating floor the integrand is zero and the
//!    transition simply waits.
//! 2. **Energy is drawn per transition.** A rising output edge draws
//!    `C·V²` from its gate's [`PowerDomain`]; leakage integrates
//!    continuously. A domain backed by a finite capacitor sags as charge
//!    drains — which is the entire operating principle of the paper's
//!    charge-to-digital converter.
//! 3. **Speed-independence is checkable.** The simulator records a
//!    [`Hazard`] whenever a pending gate transition is disabled by a later
//!    input change (non-persistence). A speed-independent circuit must
//!    finish every run hazard-free under arbitrary per-gate delay scaling;
//!    the test suites exploit this with randomised scalings.
//!
//! # Examples
//!
//! A ring of three inverters oscillates, and slows down as Vdd drops:
//!
//! ```
//! use emc_device::DeviceModel;
//! use emc_netlist::{GateKind, Netlist};
//! use emc_sim::{Simulator, SupplyKind};
//! use emc_units::{Seconds, Volts, Waveform};
//!
//! let mut n = Netlist::new();
//! let en = n.input("en");
//! let g1 = n.gate(GateKind::Nand, &[en, en], "g1");
//! let g2 = n.gate(GateKind::Inv, &[g1], "g2");
//! let g3 = n.gate(GateKind::Inv, &[g2], "g3");
//! n.connect_feedback(g1, g3);
//! n.mark_output(g3);
//!
//! let mut sim = Simulator::new(n, DeviceModel::umc90());
//! let vdd = sim.add_domain("vdd", SupplyKind::ideal(Waveform::constant(1.0)));
//! sim.assign_all(vdd);
//! // A consistent quiescent state while `en` is low…
//! sim.set_initial(g1, true);
//! sim.set_initial(g3, true);
//! // …then raise `en` to let the ring run.
//! sim.schedule_input(en, Seconds(0.0), true);
//! sim.start();
//! let stats = sim.run_until(Seconds(10e-9));
//! assert!(stats.fired > 20); // it oscillates
//! assert!(sim.hazards().is_empty());
//! # let _ = Volts(1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod delay;
pub mod domain;
pub mod fnv;
mod obs;
pub mod pdes;
pub mod simulator;
pub mod sta;
pub mod trace;
pub mod vcd;

pub use campaign::{
    run_campaign, CampaignConfig, CampaignReport, RunContext, RunReport, SimCampaign, SimJob,
    StopCondition,
};
pub use domain::{DomainId, PowerDomain, SupplyKind};
pub use fnv::Fnv64;
pub use pdes::{round_robin_assignment, PdesPartitionSpec, PdesSimulator, PdesStats};
pub use simulator::{ActivityRecord, FiredEvent, Hazard, PdesEmission, RunStats, Simulator};
pub use sta::{longest_path, StaReport};
pub use trace::{Trace, TraceEntry};
pub use vcd::{to_vcd, to_vcd_with_analog, AnalogTrack};
