//! Speed-independent SRAM with completion detection, plus the
//! delay-line (bundled) and replica-column baselines.
//!
//! This crate reproduces Section III-A of *Energy-modulated computing*:
//! a 1-kbit (64 × 16) 6T SRAM designed to work from 0.2 V to 1 V under an
//! unstable supply. The crux is the paper's Fig. 5: **SRAM bit lines and
//! logic gates scale differently with Vdd** (50 inverter delays per read
//! at 1 V, 158 at 190 mV), so a fixed delay line matched at nominal
//! supply *cannot* time the array at low voltage. Three timing
//! disciplines are provided:
//!
//! * [`TimingDiscipline::Completion`] — the paper's design \[7\]: genuine
//!   completion detection on every column; write completion solved by
//!   **reading before writing** and waiting for bit-line/new-data
//!   equality. Correct at any operating voltage, costs extra detection
//!   logic (latency and energy overhead at nominal supply);
//! * [`TimingDiscipline::Bundled`] — conventional: every phase timed by
//!   an inverter delay line sized with a safety margin at a chosen
//!   design voltage. Fast and cheap at that voltage; **silently corrupts
//!   data** once the Fig. 5 mismatch eats the margin;
//! * [`TimingDiscipline::Replica`] — the "smart latency bundling" of \[8\]:
//!   one replica column carries completion detection and times its 15
//!   sibling columns, vulnerable only to column-to-column variation.
//!
//! The energy model is calibrated to the paper's published numbers —
//! 5.8 pJ per 16-bit write at 1 V, 1.9 pJ at 0.4 V, minimum energy point
//! at 0.4 V — and the access engine evaluates phase latencies under an
//! arbitrary supply [`Waveform`](emc_units::Waveform), reproducing the
//! slow-write/fast-write trace of Fig. 7. Callers issue one access at a
//! time: [`Sram::read_at`] / [`Sram::write_at`] at a fixed Vdd under any
//! discipline, [`Sram::read_under`] / [`Sram::write_under`] under a
//! waveform with completion detection.
//!
//! # Examples
//!
//! ```
//! use emc_sram::{SramConfig, Sram, TimingDiscipline};
//! use emc_units::Volts;
//!
//! let mut sram = Sram::new(SramConfig::paper_1kbit());
//! let w = sram.write_at(Volts(0.4), 3, 0xBEEF, TimingDiscipline::Completion);
//! assert!(w.correct);
//! let r = sram.read_at(Volts(0.4), 3, TimingDiscipline::Completion);
//! assert_eq!(r.data, Some(0xBEEF));
//! // Near the paper's minimum-energy point: ≈1.9 pJ per 16-bit write.
//! assert!(w.energy.0 > 1e-12 && w.energy.0 < 3e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod energy;
pub mod failure;
pub mod sram;
pub mod timing;

pub use cell::CellKind;
pub use energy::EnergyCalibration;
pub use failure::FailureAnalysis;
pub use sram::{AccessOutcome, Sram, SramConfig, TimingDiscipline};
pub use timing::{Phase, SramTiming};
