//! Power-clocked adiabatic pipeline with phase-disciplined scheduling.
//!
//! An [`AdiabaticPipeline`] is a cascade of stages, each powered by one
//! phase of a staggered [`PowerClock`] ladder. Operations ripple through
//! the cascade wave-style: op `j` evaluates in stage `k` during the
//! ramp-up of global slot `j + k`, exactly while the previous stage's
//! phase holds its rail — the 2N2P/PFAL discipline. Every evaluation is
//! recorded as an [`emc_verify::PhaseEvent`], and the run carries the
//! `PC001`–`PC003` diagnostics of `emc-verify`'s phase-discipline
//! checker, so a run whose schedule breaks the discipline says so.
//!
//! Energy follows [`emc_device::AdiabaticModel`]: each gate evaluation
//! draws `C·V²` plus half the frictional ramp loss from the clock,
//! returns the recoverable remainder on ramp-down, and burns the
//! `½·C·Vt²` non-adiabatic residue plus a leakage floor over its
//! occupation window.

use emc_device::AdiabaticModel;
use emc_netlist::Diagnostic;
use emc_obs::{EnergyKind, Telemetry};
use emc_power::PowerClock;
use emc_units::{Farads, Joules, Seconds};
use emc_verify::{check_power_clock, PhaseEvent};

/// A phase-clocked cascade of adiabatic stages.
///
/// # Examples
///
/// ```
/// use emc_altlogic::AdiabaticPipeline;
/// use emc_device::{AdiabaticModel, DeviceModel};
/// use emc_power::{ClockShape, PowerClock};
/// use emc_units::{Farads, Seconds, Volts};
///
/// let clock = PowerClock::symmetric(Volts(0.5), Seconds(50e-9), 4, ClockShape::Trapezoid);
/// let pipe = AdiabaticPipeline::new(clock, AdiabaticModel::new(DeviceModel::umc90()), 4, 16, Farads(2e-15));
/// let run = pipe.run(100);
/// assert!(run.clean());
/// assert!(run.recovered.0 > run.dissipated().0);
/// ```
#[derive(Debug, Clone)]
pub struct AdiabaticPipeline {
    clock: PowerClock,
    model: AdiabaticModel,
    stages: usize,
    gates_per_stage: usize,
    c_gate: Farads,
}

/// Aggregate result of running operations through the cascade.
#[derive(Debug, Clone, PartialEq)]
pub struct AdiabaticRun {
    /// Number of operations completed.
    pub ops: usize,
    /// One recorded evaluation per (op, stage), schedule order.
    pub events: Vec<PhaseEvent>,
    /// Total energy drawn from the power clock.
    pub supplied: Joules,
    /// Energy returned to the clock resonator on ramp-down.
    pub recovered: Joules,
    /// Frictional channel loss across the ramps.
    pub ramp_loss: Joules,
    /// Non-adiabatic `½·C·Vt²` residue.
    pub residue: Joules,
    /// Leakage integrated over the occupation windows.
    pub leakage: Joules,
    /// Time from the first ramp to the end of the last activation.
    pub duration: Seconds,
    /// Phase-discipline diagnostics (`PC001`–`PC003`) for the schedule.
    pub diagnostics: Vec<Diagnostic>,
}

impl AdiabaticRun {
    /// Energy actually lost (not recovered): friction + residue +
    /// leakage.
    pub fn dissipated(&self) -> Joules {
        self.ramp_loss + self.residue + self.leakage
    }

    /// Dissipated energy per operation.
    pub fn energy_per_op(&self) -> Joules {
        if self.ops == 0 {
            Joules(0.0)
        } else {
            Joules(self.dissipated().0 / self.ops as f64)
        }
    }

    /// Fraction of supplied energy returned to the clock.
    pub(crate) fn recovery_fraction(&self) -> f64 {
        if self.supplied.0 <= 0.0 {
            0.0
        } else {
            self.recovered.0 / self.supplied.0
        }
    }

    /// Operations per second.
    pub fn throughput(&self) -> f64 {
        if self.duration.0 <= 0.0 {
            0.0
        } else {
            self.ops as f64 / self.duration.0
        }
    }

    /// `true` when the schedule satisfied the phase discipline.
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

impl AdiabaticPipeline {
    /// A cascade of `stages` stages of `gates_per_stage` gates, each
    /// gate switching `c_gate`, powered by `clock` (stage `k` on phase
    /// `k mod phases`).
    ///
    /// # Panics
    ///
    /// Panics if `stages` or `gates_per_stage` is zero, or `c_gate` is
    /// not strictly positive.
    pub fn new(
        clock: PowerClock,
        model: AdiabaticModel,
        stages: usize,
        gates_per_stage: usize,
        c_gate: Farads,
    ) -> Self {
        assert!(stages > 0, "pipeline needs at least one stage");
        assert!(gates_per_stage > 0, "stages need at least one gate");
        assert!(c_gate.0 > 0.0, "gate capacitance must be positive");
        Self {
            clock,
            model,
            stages,
            gates_per_stage,
            c_gate,
        }
    }

    /// The power clock driving the cascade.
    pub fn clock(&self) -> &PowerClock {
        &self.clock
    }

    /// Number of cascade stages.
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// The disciplined wave schedule for `ops` operations: op `j`
    /// evaluates in stage `k` at the midpoint of the ramp-up of global
    /// slot `j + k`, consuming the previous slot's phase (held then by
    /// the stagger).
    pub fn schedule(&self, ops: usize) -> Vec<PhaseEvent> {
        let phases = self.clock.phases();
        let ramp = self.clock.ramp_time().0;
        let mut events = Vec::with_capacity(ops * self.stages);
        for op in 0..ops {
            for stage in 0..self.stages {
                let slot = op + stage;
                let phase = slot % phases;
                let cycle = (slot / phases) as u64;
                let time = Seconds(self.clock.phase_start(phase, cycle).0 + 0.5 * ramp);
                events.push(PhaseEvent {
                    time,
                    phase,
                    consumes: (stage > 0).then_some((slot + phases - 1) % phases),
                    gate: None,
                    label: format!("op{op}.s{stage}"),
                });
            }
        }
        events
    }

    /// Runs `ops` operations through the cascade on the wave schedule,
    /// aggregating the energy books and checking the schedule against
    /// the clock's phase discipline.
    pub fn run(&self, ops: usize) -> AdiabaticRun {
        let events = self.schedule(ops);
        let diagnostics = check_power_clock(&self.clock, &events);
        let shape = self.clock.shape().ramp_loss_factor();
        let window_ramps = self.clock.active_span().0 / self.clock.ramp_time().0;
        let per_gate = self.model.op_energy(
            self.clock.v_peak(),
            self.c_gate,
            self.clock.ramp_time(),
            shape,
            window_ramps,
        );
        let n = (ops * self.stages * self.gates_per_stage) as f64;
        let duration = events
            .last()
            .map(|e| {
                // Last evaluation is mid-ramp; the activation runs to the
                // end of its ramp-down.
                Seconds(e.time.0 - 0.5 * self.clock.ramp_time().0 + self.clock.active_span().0)
            })
            .unwrap_or(Seconds(0.0));
        AdiabaticRun {
            ops,
            events,
            supplied: Joules(per_gate.supplied.0 * n),
            recovered: Joules(per_gate.recovered.0 * n),
            ramp_loss: Joules(per_gate.ramp_loss.0 * n),
            residue: Joules(per_gate.residue.0 * n),
            leakage: Joules(per_gate.leakage.0 * n),
            duration,
            diagnostics,
        }
    }

    /// Books a run into a telemetry bundle under `altlogic/adiabatic`:
    /// friction + residue as `dissipated`, the leakage floor as
    /// `leaked`, and the ramp-down return as `recovered`.
    pub fn telemetry(&self, run: &AdiabaticRun) -> Telemetry {
        let mut t = Telemetry::new();
        t.energy.add_joules(
            "altlogic/adiabatic",
            EnergyKind::Dissipated,
            run.ramp_loss + run.residue,
        );
        t.energy
            .add_joules("altlogic/adiabatic", EnergyKind::Leaked, run.leakage);
        t.energy
            .add_joules("altlogic/adiabatic", EnergyKind::Recovered, run.recovered);
        let c = t.metrics.counter("altlogic.adiabatic.ops");
        t.metrics.inc(c, run.ops as u64);
        let g = t.metrics.gauge("altlogic.adiabatic.recovery_fraction");
        t.metrics.set_gauge(g, run.recovery_fraction());
        t.spans
            .record("adiabatic-run", "altlogic", 0, 0.0, run.duration.0);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emc_device::DeviceModel;
    use emc_power::ClockShape;
    use emc_units::Volts;

    fn pipe(ramp_ns: f64) -> AdiabaticPipeline {
        let clock = PowerClock::symmetric(
            Volts(0.5),
            Seconds(ramp_ns * 1e-9),
            4,
            ClockShape::Trapezoid,
        );
        AdiabaticPipeline::new(
            clock,
            AdiabaticModel::new(DeviceModel::umc90()),
            4,
            16,
            Farads(2e-15),
        )
    }

    #[test]
    fn wave_schedule_satisfies_phase_discipline() {
        let run = pipe(50.0).run(32);
        assert!(run.clean(), "diagnostics: {:?}", run.diagnostics);
        assert_eq!(run.events.len(), 32 * 4);
    }

    #[test]
    fn tampered_schedule_is_caught() {
        let p = pipe(50.0);
        let mut events = p.schedule(4);
        // Push one evaluation into its phase's ramp-down.
        events[0].time =
            Seconds(events[0].time.0 + p.clock().ramp_time().0 + p.clock().hold_time().0);
        let diags = check_power_clock(p.clock(), &events);
        assert!(diags.iter().any(|d| d.rule == "PC001"));
    }

    #[test]
    fn energy_books_balance() {
        let run = pipe(50.0).run(16);
        let accounted = run.recovered.0 + run.ramp_loss.0 + run.residue.0;
        assert!(
            (run.supplied.0 - accounted).abs() < 1e-9 * run.supplied.0,
            "supplied {} vs accounted {accounted}",
            run.supplied
        );
    }

    #[test]
    fn slower_ramp_recovers_a_larger_fraction() {
        let fast = pipe(5.0).run(16);
        let slow = pipe(500.0).run(16);
        assert!(
            slow.recovery_fraction() > fast.recovery_fraction(),
            "slow {} vs fast {}",
            slow.recovery_fraction(),
            fast.recovery_fraction()
        );
        // And the throughput price is paid.
        assert!(slow.throughput() < fast.throughput());
    }

    #[test]
    fn telemetry_books_all_three_kinds() {
        let p = pipe(50.0);
        let run = p.run(8);
        let t = p.telemetry(&run);
        let dis = t
            .energy
            .get("altlogic/adiabatic", EnergyKind::Dissipated)
            .expect("dissipated entry");
        let rec = t
            .energy
            .get("altlogic/adiabatic", EnergyKind::Recovered)
            .expect("recovered entry");
        let leak = t
            .energy
            .get("altlogic/adiabatic", EnergyKind::Leaked)
            .expect("leaked entry");
        assert!(dis > 0.0 && rec > 0.0 && leak > 0.0);
        assert_eq!(t.metrics.counter_value("altlogic.adiabatic.ops"), Some(8));
    }

    #[test]
    fn run_is_deterministic() {
        assert_eq!(pipe(50.0).run(16), pipe(50.0).run(16));
    }
}
