//! The SRAM macro: storage, access engines and timing disciplines.

use std::cell::RefCell;

use emc_device::DeviceModel;
use emc_obs::metrics::latency_bounds;
use emc_obs::{CounterId, EnergyKind, HistogramId, Telemetry};
use emc_sim::delay::{completion_time, Completion};
use emc_units::{Joules, Seconds, Volts, Waveform};

use crate::cell::CellKind;
use crate::energy::{EnergyCalibration, Op};
use crate::failure::FailureAnalysis;
use crate::timing::{Phase, SramTiming};

/// Static configuration of one SRAM macro.
#[derive(Debug, Clone)]
pub struct SramConfig {
    /// Number of words (rows).
    pub rows: usize,
    /// Word width in bits (columns).
    pub word_bits: usize,
    /// Bit-cell flavour.
    pub cell: CellKind,
    /// Completion-detection segments per column (1 = whole column).
    pub segments: usize,
    /// Device model (corner / temperature already applied).
    pub device: DeviceModel,
}

impl SramConfig {
    /// The paper's experimental macro: 1 kbit as 64 × 16, 6T cells,
    /// whole-column completion detection, typical UMC 90 nm.
    pub fn paper_1kbit() -> Self {
        Self {
            rows: 64,
            word_bits: 16,
            cell: CellKind::SixT,
            segments: 1,
            device: DeviceModel::umc90(),
        }
    }
}

/// How accesses are timed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimingDiscipline {
    /// Genuine completion detection on every column (\[7\]; read-before-
    /// write gives write completion). Always correct; pays detection
    /// latency and energy.
    Completion,
    /// Conventional delay-line timing, sized at `design_vdd` with the
    /// given safety `margin`. Fails silently when the Fig. 5 mismatch
    /// outgrows the margin.
    Bundled {
        /// Voltage the delay lines were sized at.
        design_vdd: Volts,
        /// Safety factor on every line.
        margin: f64,
    },
    /// Smart latency bundling \[8\]: one replica column with completion
    /// detection times its siblings with a small margin.
    Replica {
        /// Safety factor of the replica's timing over its siblings.
        margin: f64,
    },
}

impl TimingDiscipline {
    /// A bundled discipline sized at 1 V with 2× margin — the
    /// conventional design the paper argues against.
    pub fn bundled_nominal() -> Self {
        TimingDiscipline::Bundled {
            design_vdd: Volts(1.0),
            margin: 2.0,
        }
    }

    /// A replica discipline with the 1.3× margin used in \[8\].
    pub fn replica_default() -> Self {
        TimingDiscipline::Replica { margin: 1.3 }
    }
}

/// Result of one access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessOutcome {
    /// Data returned by a read (writes echo the written word); `None`
    /// when sensing mistimed and the output is garbage.
    pub data: Option<u64>,
    /// `true` if the access met its timing and the stored/read data is
    /// trustworthy.
    pub correct: bool,
    /// Wall-clock latency of the access.
    pub latency: Seconds,
    /// Energy drawn by the access.
    pub energy: Joules,
    /// `false` if the access never finished (supply stalled below the
    /// device floor for the whole integration horizon).
    pub completed: bool,
}

/// Live access instrumentation of an observed [`Sram`].
///
/// Sits in a `RefCell` because reads take `&self`; every access makes
/// one short, non-reentrant `borrow_mut`.
#[derive(Debug, Clone)]
struct SramObs {
    telemetry: Telemetry,
    reads: CounterId,
    writes: CounterId,
    mistimed: CounterId,
    incomplete: CounterId,
    read_latency: HistogramId,
    write_latency: HistogramId,
}

impl SramObs {
    fn new() -> Self {
        let mut telemetry = Telemetry::new();
        let reads = telemetry.metrics.counter("sram.reads");
        let writes = telemetry.metrics.counter("sram.writes");
        let mistimed = telemetry.metrics.counter("sram.accesses_mistimed");
        let incomplete = telemetry.metrics.counter("sram.accesses_incomplete");
        // 1 ns up through tens of ms: nominal-Vdd reads to deep
        // sub-threshold stalls.
        let bounds = latency_bounds(1e-9, 8);
        let read_latency = telemetry.metrics.histogram("sram.read.latency_s", &bounds);
        let write_latency = telemetry.metrics.histogram("sram.write.latency_s", &bounds);
        Self {
            telemetry,
            reads,
            writes,
            mistimed,
            incomplete,
            read_latency,
            write_latency,
        }
    }

    fn record(&mut self, op: Op, out: &AccessOutcome) {
        let (count, latency, account) = match op {
            Op::Read => (self.reads, self.read_latency, "op/read"),
            Op::Write => (self.writes, self.write_latency, "op/write"),
        };
        self.telemetry.metrics.inc(count, 1);
        if out.completed {
            self.telemetry.metrics.observe(latency, out.latency.0);
        } else {
            self.telemetry.metrics.inc(self.incomplete, 1);
        }
        if !out.correct {
            self.telemetry.metrics.inc(self.mistimed, 1);
        }
        self.telemetry
            .energy
            .add(account, EnergyKind::Dissipated, out.energy.0);
    }

    fn record_span(&mut self, op: Op, addr: usize, t0: Seconds, t_end: Seconds) {
        let name = match op {
            Op::Read => format!("read@{addr:#x}"),
            Op::Write => format!("write@{addr:#x}"),
        };
        self.telemetry
            .spans
            .record(name, "sram", addr as u32, t0.0, t_end.0);
    }
}

/// The SRAM macro with live storage.
#[derive(Debug, Clone)]
pub struct Sram {
    config: SramConfig,
    timing: SramTiming,
    energy: EnergyCalibration,
    storage: Vec<u64>,
    /// Completion-detected phases in the SI discipline (bit line + write
    /// equality).
    completion_phases: usize,
    /// Cached sensing floor: reads below this voltage are unreliable.
    min_operating: Option<Volts>,
    /// Access instrumentation; `None` until [`Sram::enable_obs`].
    obs: Option<RefCell<SramObs>>,
}

impl Sram {
    /// Builds the macro; storage starts zeroed.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero rows/bits, word wider
    /// than 64) or the energy anchors are unsolvable for the device.
    pub fn new(config: SramConfig) -> Self {
        assert!(config.rows > 0, "rows must be positive");
        assert!(
            config.word_bits > 0 && config.word_bits <= 64,
            "word bits must be in 1..=64"
        );
        let timing = SramTiming::new(
            config.device.clone(),
            config.rows,
            config.segments,
            config.cell,
        );
        let completion_phases = 2;
        let energy = EnergyCalibration::solve(&timing, completion_phases)
            .expect("paper energy anchors must be solvable");
        let min_operating = FailureAnalysis::new(config.rows, config.segments, config.cell)
            .min_operating_voltage(&config.device);
        Self {
            storage: vec![0; config.rows],
            timing,
            energy,
            completion_phases,
            min_operating,
            config,
            obs: None,
        }
    }

    /// Turns on access instrumentation: counts, latency histograms,
    /// per-operation energy accounts and (for the `*_under` engines)
    /// sim-time access spans. Idempotent.
    pub fn enable_obs(&mut self) {
        if self.obs.is_none() {
            self.obs = Some(RefCell::new(SramObs::new()));
        }
    }

    /// `true` once [`Sram::enable_obs`] has been called.
    pub fn obs_enabled(&self) -> bool {
        self.obs.is_some()
    }

    /// Snapshots the access telemetry recorded so far (empty when
    /// observability was never enabled).
    pub fn telemetry(&self) -> Telemetry {
        match &self.obs {
            Some(o) => o.borrow().telemetry.clone(),
            None => Telemetry::new(),
        }
    }

    /// `true` if sensing is reliable at `vdd` (cached failure analysis).
    pub(crate) fn senses_reliably(&self, vdd: Volts) -> bool {
        match self.min_operating {
            Some(v) => vdd >= v,
            None => false,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SramConfig {
        &self.config
    }

    /// The timing model.
    pub fn timing(&self) -> &SramTiming {
        &self.timing
    }

    /// The calibrated energy model.
    pub fn energy_model(&self) -> &EnergyCalibration {
        &self.energy
    }

    /// Direct (test-bench) view of a stored word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn peek(&self, addr: usize) -> u64 {
        self.storage[addr]
    }

    fn word_mask(&self) -> u64 {
        if self.config.word_bits == 64 {
            u64::MAX
        } else {
            (1 << self.config.word_bits) - 1
        }
    }

    fn energy_factor(disc: TimingDiscipline) -> f64 {
        match disc {
            // The published numbers were measured on the SI design.
            TimingDiscipline::Completion => 1.0,
            // No completion network; delay lines are cheap.
            TimingDiscipline::Bundled { .. } => 0.85,
            // One column of completion detection out of the word width.
            TimingDiscipline::Replica { .. } => 0.92,
        }
    }

    /// Latency of the given op at constant `vdd` under `disc`, together
    /// with whether the timing is actually *met* (bundled/replica may
    /// mistime).
    fn latency_and_correct(&self, op: Op, vdd: Volts, disc: TimingDiscipline) -> (Seconds, bool) {
        let phases: &[Phase] = match op {
            Op::Read => &Phase::READ,
            Op::Write => &Phase::WRITE,
        };
        match disc {
            TimingDiscipline::Completion => {
                let t = match op {
                    Op::Read => self.timing.read_latency(vdd, self.completion_phases),
                    Op::Write => self.timing.write_latency(vdd, self.completion_phases),
                };
                (t, self.senses_reliably(vdd))
            }
            TimingDiscipline::Bundled { design_vdd, margin } => {
                let inv = self.config.device.inverter_delay(vdd);
                let mut total_units = 0.0;
                let mut met = true;
                for &p in phases {
                    let budget = margin * self.timing.phase_inverter_units(p, design_vdd);
                    let needed = self.timing.phase_inverter_units(p, vdd);
                    if needed > budget {
                        met = false;
                    }
                    total_units += budget;
                }
                (
                    Seconds(inv.0 * total_units),
                    met && self.senses_reliably(vdd),
                )
            }
            TimingDiscipline::Replica { margin } => {
                // The replica column completes genuinely; siblings get its
                // time × margin. Latency scales accordingly; correctness
                // at the nominal (variation-free) model is preserved —
                // statistical failures live in `FailureAnalysis`.
                let t = match op {
                    Op::Read => self.timing.read_latency(vdd, 1),
                    Op::Write => self.timing.write_latency(vdd, 1),
                };
                (t * margin, self.senses_reliably(vdd))
            }
        }
    }

    /// Reads `addr` at constant `vdd`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn read_at(&self, vdd: Volts, addr: usize, disc: TimingDiscipline) -> AccessOutcome {
        let word = self.storage[addr];
        let (latency, correct) = self.latency_and_correct(Op::Read, vdd, disc);
        let energy =
            self.energy.access_energy(&self.timing, Op::Read, vdd) * Self::energy_factor(disc);
        let completed = latency.0.is_finite();
        let outcome = AccessOutcome {
            data: if correct && completed {
                Some(word)
            } else {
                None
            },
            correct: correct && completed,
            latency,
            energy: if completed { energy } else { Joules(0.0) },
            completed,
        };
        if let Some(o) = &self.obs {
            o.borrow_mut().record(Op::Read, &outcome);
        }
        outcome
    }

    /// Writes `word` to `addr` at constant `vdd`. A mistimed bundled
    /// write commits only the bits whose drivers finished in the timing
    /// budget (low bits first) — the silent partial-write corruption of a
    /// real bundling violation.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range or `word` exceeds the word width.
    pub fn write_at(
        &mut self,
        vdd: Volts,
        addr: usize,
        word: u64,
        disc: TimingDiscipline,
    ) -> AccessOutcome {
        assert!(word <= self.word_mask(), "word exceeds width");
        let (latency, correct) = self.latency_and_correct(Op::Write, vdd, disc);
        let completed = latency.0.is_finite();
        if completed {
            if correct {
                self.storage[addr] = word;
            } else {
                // Partial write: the fraction of the needed drive time
                // that the (too short) budget covered.
                let frac = self.write_budget_fraction(vdd, disc);
                let bits = (self.config.word_bits as f64 * frac.clamp(0.0, 1.0)) as u32;
                let mask = if bits == 0 { 0 } else { (1u64 << bits) - 1 };
                self.storage[addr] = (self.storage[addr] & !mask) | (word & mask);
            }
        }
        let energy =
            self.energy.access_energy(&self.timing, Op::Write, vdd) * Self::energy_factor(disc);
        let outcome = AccessOutcome {
            data: Some(word),
            correct: correct && completed,
            latency,
            energy: if completed { energy } else { Joules(0.0) },
            completed,
        };
        if let Some(o) = &self.obs {
            o.borrow_mut().record(Op::Write, &outcome);
        }
        outcome
    }

    fn write_budget_fraction(&self, vdd: Volts, disc: TimingDiscipline) -> f64 {
        match disc {
            TimingDiscipline::Bundled { design_vdd, margin } => {
                let budget = margin
                    * self
                        .timing
                        .phase_inverter_units(Phase::WriteDrive, design_vdd);
                let needed = self.timing.phase_inverter_units(Phase::WriteDrive, vdd);
                budget / needed
            }
            _ => 1.0,
        }
    }

    /// Reads under a time-varying supply, starting at `t0`: each phase's
    /// duration solves the work integral over the waveform (the SI
    /// controller genuinely waits; Fig. 7's slow-then-fast writes fall
    /// out of this).
    ///
    /// Only the [`TimingDiscipline::Completion`] engine is meaningful
    /// under varying supply; call it through this method.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn read_under(
        &self,
        supply: &Waveform,
        t0: Seconds,
        addr: usize,
        resolution: Seconds,
        horizon: Seconds,
    ) -> AccessOutcome {
        let word = self.storage[addr];
        let (t_end, completed) = self.phases_under(&Phase::READ, supply, t0, resolution, horizon);
        let v_end = Volts(supply.value_at(t_end));
        let correct = completed && self.senses_reliably(v_end);
        let energy = if completed {
            self.energy.access_energy(
                &self.timing,
                Op::Read,
                Volts(supply.value_at(t0).max(v_end.0)),
            )
        } else {
            Joules(0.0)
        };
        let outcome = AccessOutcome {
            data: if correct { Some(word) } else { None },
            correct,
            latency: Seconds(t_end.0 - t0.0),
            energy,
            completed,
        };
        if let Some(o) = &self.obs {
            let mut o = o.borrow_mut();
            o.record(Op::Read, &outcome);
            o.record_span(Op::Read, addr, t0, t_end);
        }
        outcome
    }

    /// Writes under a time-varying supply (see [`Self::read_under`]).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range or `word` exceeds the word width.
    pub fn write_under(
        &mut self,
        supply: &Waveform,
        t0: Seconds,
        addr: usize,
        word: u64,
        resolution: Seconds,
        horizon: Seconds,
    ) -> AccessOutcome {
        assert!(word <= self.word_mask(), "word exceeds width");
        let (t_end, completed) = self.phases_under(&Phase::WRITE, supply, t0, resolution, horizon);
        if completed {
            self.storage[addr] = word;
        }
        let v_rep = Volts(supply.value_at(t_end));
        let energy = if completed {
            self.energy
                .access_energy(&self.timing, Op::Write, v_rep.max(Volts(0.2)))
        } else {
            Joules(0.0)
        };
        let outcome = AccessOutcome {
            data: Some(word),
            correct: completed,
            latency: Seconds(t_end.0 - t0.0),
            energy,
            completed,
        };
        if let Some(o) = &self.obs {
            let mut o = o.borrow_mut();
            o.record(Op::Write, &outcome);
            o.record_span(Op::Write, addr, t0, t_end);
        }
        outcome
    }

    /// Runs the phase sequence (plus completion settles) under the
    /// supply waveform; returns the end time and whether it completed.
    fn phases_under(
        &self,
        phases: &[Phase],
        supply: &Waveform,
        t0: Seconds,
        resolution: Seconds,
        horizon: Seconds,
    ) -> (Seconds, bool) {
        let mut t = t0;
        let run = |phase: Phase, t: Seconds| -> Option<Seconds> {
            let td = |at: Seconds| self.timing.phase_latency(phase, Volts(supply.value_at(at)));
            match completion_time(t, td, resolution, horizon) {
                Completion::At(end) => Some(end),
                Completion::StalledUntilHorizon { .. } => None,
            }
        };
        for &p in phases {
            match run(p, t) {
                Some(end) => t = end,
                None => return (horizon, false),
            }
        }
        for _ in 0..self.completion_phases {
            match run(Phase::Completion, t) {
                Some(end) => t = end,
                None => return (horizon, false),
            }
        }
        (t, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sram() -> Sram {
        Sram::new(SramConfig::paper_1kbit())
    }

    #[test]
    fn write_then_read_round_trip_across_vdd() {
        let mut s = sram();
        for (i, v) in [0.25, 0.4, 0.7, 1.0].iter().enumerate() {
            let w = s.write_at(
                Volts(*v),
                i,
                0x1234 + i as u64,
                TimingDiscipline::Completion,
            );
            assert!(w.correct, "write failed at {v} V");
            let r = s.read_at(Volts(*v), i, TimingDiscipline::Completion);
            assert_eq!(r.data, Some(0x1234 + i as u64));
            assert!(r.correct);
        }
    }

    #[test]
    fn energy_anchors_visible_through_api() {
        let mut s = sram();
        let w1 = s.write_at(Volts(1.0), 0, 1, TimingDiscipline::Completion);
        let w04 = s.write_at(Volts(0.4), 0, 2, TimingDiscipline::Completion);
        assert!(
            (w1.energy.0 - 5.8e-12).abs() < 1e-14,
            "E(1V) = {}",
            w1.energy
        );
        assert!(
            (w04.energy.0 - 1.9e-12).abs() < 1e-14,
            "E(0.4V) = {}",
            w04.energy
        );
    }

    #[test]
    fn completion_discipline_slower_but_correct_at_low_vdd() {
        let mut s = sram();
        s.write_at(Volts(1.0), 5, 0xABCD, TimingDiscipline::Completion);
        let si = s.read_at(Volts(0.25), 5, TimingDiscipline::Completion);
        assert!(si.correct);
        assert_eq!(si.data, Some(0xABCD));
        let bundled = s.read_at(Volts(0.25), 5, TimingDiscipline::bundled_nominal());
        assert!(!bundled.correct, "bundled must mistime at 0.25 V");
        assert_eq!(bundled.data, None);
    }

    #[test]
    fn bundled_faster_and_cheaper_at_nominal() {
        let mut s = sram();
        s.write_at(Volts(1.0), 1, 7, TimingDiscipline::Completion);
        let si = s.read_at(Volts(1.0), 1, TimingDiscipline::Completion);
        let b = s.read_at(Volts(1.0), 1, TimingDiscipline::bundled_nominal());
        assert!(b.correct);
        assert_eq!(b.data, Some(7));
        assert!(
            b.energy < si.energy,
            "bundled energy {} vs SI {}",
            b.energy,
            si.energy
        );
        // The 2× margin makes bundled *latency* similar or worse; its win
        // is energy. Correctness of the comparison matters, not order.
        assert!(si.correct);
    }

    #[test]
    fn bundled_write_corrupts_partially_below_failure_voltage() {
        let mut s = sram();
        s.write_at(Volts(1.0), 9, 0x0000, TimingDiscipline::Completion);
        let w = s.write_at(Volts(0.2), 9, 0xFFFF, TimingDiscipline::bundled_nominal());
        assert!(!w.correct);
        let stored = s.peek(9);
        assert_ne!(stored, 0xFFFF, "mistimed write must not complete");
        // Low bits (near the drivers) did get written.
        assert_ne!(stored, 0x0000, "some bits should have been driven");
    }

    #[test]
    fn replica_latency_between_bundled_and_completion_at_nominal() {
        let mut s = sram();
        s.write_at(Volts(1.0), 2, 3, TimingDiscipline::Completion);
        let si = s.read_at(Volts(1.0), 2, TimingDiscipline::Completion);
        let rep = s.read_at(Volts(1.0), 2, TimingDiscipline::replica_default());
        assert!(rep.correct);
        assert!(rep.energy < si.energy);
    }

    #[test]
    fn fig7_scenario_slow_write_low_vdd_fast_write_high_vdd() {
        let mut s = sram();
        // Supply ramps from 0.25 V to 1 V at t = 10 µs.
        let supply = Waveform::pwl([
            (Seconds(0.0), 0.25),
            (Seconds(10e-6), 0.25),
            (Seconds(11e-6), 1.0),
        ]);
        let res = Seconds(50e-9);
        let horizon = Seconds(1.0);
        let w_slow = s.write_under(&supply, Seconds(0.0), 0, 0xAAAA, res, horizon);
        assert!(w_slow.correct, "low-Vdd write must still complete");
        let w_fast = s.write_under(&supply, Seconds(12e-6), 1, 0x5555, res, horizon);
        assert!(w_fast.correct);
        assert!(
            w_slow.latency.0 > 10.0 * w_fast.latency.0,
            "slow {} vs fast {}",
            w_slow.latency,
            w_fast.latency
        );
        assert_eq!(s.peek(0), 0xAAAA);
        assert_eq!(s.peek(1), 0x5555);
    }

    #[test]
    fn write_straddling_the_ramp_finishes_after_it() {
        let mut s = sram();
        let supply = Waveform::pwl([
            (Seconds(0.0), 0.0),
            (Seconds(5e-6), 0.0),
            (Seconds(5.5e-6), 0.8),
        ]);
        // Starts while the supply is dead: all the work happens after the
        // ramp at 5 µs.
        let w = s.write_under(
            &supply,
            Seconds(0.0),
            3,
            0x00FF,
            Seconds(20e-9),
            Seconds(1.0),
        );
        assert!(w.correct);
        assert!(
            w.latency.0 > 5e-6,
            "latency {} must include the dead time",
            w.latency
        );
    }

    #[test]
    fn dead_supply_never_completes() {
        let mut s = sram();
        let supply = Waveform::constant(0.05);
        let w = s.write_under(&supply, Seconds(0.0), 0, 1, Seconds(1e-6), Seconds(1e-3));
        assert!(!w.completed);
        assert!(!w.correct);
        assert_eq!(s.peek(0), 0);
        assert_eq!(w.energy, Joules(0.0));
    }

    #[test]
    fn accesses_under_a_noisy_supply_are_correct_and_slower() {
        // 0.5 V mean with a ±0.2 V wobble, accesses issued back to back.
        let supply = Waveform::sine(0.5, 0.2, emc_units::Hertz(50e3), 0.0);
        let (res, horizon) = (Seconds(100e-9), Seconds(10.0));
        let words = [(0, 0x1234), (7, 0xBEEF), (63, 0x0F0F), (8, 0x00FF)];
        let mut s = sram();
        let mut t = Seconds(0.0);
        for &(a, w) in &words {
            let out = s.write_under(&supply, t, a, w, res, horizon);
            assert!(out.correct, "write of {w:#x} to {a}");
            t += out.latency;
        }
        for &(a, w) in &words {
            let out = s.read_under(&supply, t, a, res, horizon);
            assert!(out.correct, "read of {a}");
            assert_eq!(out.data, Some(w));
            t += out.latency;
        }

        let mut steady = sram();
        let vdd = Volts(0.7);
        let mut t_steady = Seconds(0.0);
        for &(a, w) in &words {
            t_steady += steady
                .write_at(vdd, a, w, TimingDiscipline::Completion)
                .latency;
        }
        for &(a, _) in &words {
            t_steady += steady.read_at(vdd, a, TimingDiscipline::Completion).latency;
        }
        assert!(t > t_steady, "noisy {t} vs steady {t_steady}");
    }

    #[test]
    fn read_latency_ratio_between_0v19_and_1v_is_large() {
        let s = sram();
        let fast = s
            .read_at(Volts(1.0), 0, TimingDiscipline::Completion)
            .latency;
        let slow = s
            .read_at(Volts(0.19), 0, TimingDiscipline::Completion)
            .latency;
        // Inverter slowdown (~1000×) times the mismatch growth (~3×).
        let ratio = slow.0 / fast.0;
        assert!(ratio > 500.0, "ratio {ratio}");
    }

    #[test]
    fn telemetry_counts_accesses_and_books_energy() {
        let mut s = sram();
        s.enable_obs();
        let w = s.write_at(Volts(1.0), 0, 0xBEEF, TimingDiscipline::Completion);
        let r = s.read_at(Volts(1.0), 0, TimingDiscipline::Completion);
        let bad = s.read_at(Volts(0.25), 0, TimingDiscipline::bundled_nominal());
        assert!(!bad.correct);
        let t = s.telemetry();
        assert_eq!(t.metrics.counter_value("sram.reads"), Some(2));
        assert_eq!(t.metrics.counter_value("sram.writes"), Some(1));
        assert_eq!(t.metrics.counter_value("sram.accesses_mistimed"), Some(1));
        let booked = t
            .energy
            .get("op/read", EnergyKind::Dissipated)
            .expect("read energy booked");
        assert!((booked - (r.energy.0 + bad.energy.0)).abs() < 1e-20);
        assert!(
            (t.energy.get("op/write", EnergyKind::Dissipated).unwrap() - w.energy.0).abs() < 1e-20
        );
        // Spans only come from the *_under engines.
        assert!(t.spans.is_empty());
        let supply = Waveform::constant(0.8);
        s.write_under(&supply, Seconds(0.0), 1, 0x55, Seconds(50e-9), Seconds(1.0));
        let t = s.telemetry();
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans.spans()[0].cat, "sram");
        assert!(t.spans.spans()[0].duration() > 0.0);
    }

    #[test]
    fn disabled_obs_yields_empty_telemetry() {
        let mut s = sram();
        let _ = s.write_at(Volts(1.0), 0, 1, TimingDiscipline::Completion);
        assert!(!s.obs_enabled());
        let t = s.telemetry();
        assert!(t.metrics.is_empty());
        assert!(t.energy.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds width")]
    fn oversized_word_panics() {
        let mut s = sram();
        let _ = s.write_at(Volts(1.0), 0, 0x1_0000, TimingDiscipline::Completion);
    }

    #[test]
    #[should_panic]
    fn out_of_range_address_panics() {
        let s = sram();
        let _ = s.read_at(Volts(1.0), 64, TimingDiscipline::Completion);
    }
}
