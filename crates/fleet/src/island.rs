//! The calibrated SI logic island and sensor front-end.
//!
//! A million-node fleet cannot step gate-level netlists, so each node
//! carries an *abstracted* island instead: throughput (ops/s) and
//! energy-per-op curves over rail voltage, **calibrated once per fleet**
//! by actually running `emc-sim` on the repository's builtin counting
//! rig (a [`emc_async::SelfTimedOscillator`] driving an 8-bit
//! [`emc_async::ToggleRippleCounter`] — the circuit `perfbench`'s
//! `ac_counter` workload drives) at a grid of supply points. Between grid points the island
//! interpolates piecewise-linearly; below the lowest firing grid point
//! the island stalls (rate 0), which is exactly the self-timed story:
//! computation slows with the rail and stops, it never wrongs.
//!
//! The sensor front-end is calibrated the same way from the gate-level
//! [`emc_sensors::ChargeToDigitalConverter`]: a handful of real
//! conversions pin the code/energy/duration curves that fleet nodes
//! then interpolate.

use emc_async::{SelfTimedOscillator, ToggleRippleCounter};
use emc_device::DeviceModel;
use emc_netlist::Netlist;
use emc_sensors::ChargeToDigitalConverter;
use emc_sim::{Simulator, SupplyKind};
use emc_units::{Farads, Volts, Waveform};

/// How much gate-level work to spend on calibration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CalibDepth {
    /// Dense Vdd grid, more events per point — for real fleet runs.
    Full,
    /// Sparse grid and tiny event budgets — for `--smoke` and tests.
    Smoke,
}

/// One calibrated supply point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IslandPoint {
    /// Rail voltage of the measurement.
    pub vdd: f64,
    /// Gate firings per simulated second at this rail.
    pub(crate) ops_per_sec: f64,
    /// Supply energy drawn per gate firing, joules.
    pub(crate) joules_per_op: f64,
}

/// Piecewise-linear throughput/energy model of a self-timed island.
#[derive(Debug, Clone, PartialEq)]
pub struct IslandModel {
    points: Vec<IslandPoint>,
}

/// What a task of a fixed op count costs the island at a fixed rail.
/// A node class has one rail and one task size, so a fleet run reads
/// the curves once per class (`IslandModel::task_cost`), not once per
/// task attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TaskCost {
    /// Firing rate at the rail, ops per second; zero where the island
    /// stalls.
    pub rate: f64,
    /// Compute energy of the task, joules.
    pub energy: f64,
    /// Compute time of the task, seconds (infinite where the island
    /// stalls).
    pub time: f64,
}

impl IslandModel {
    /// Calibrates the island from gate-level runs of the counting rig.
    ///
    /// Every grid voltage is simulated to `events` fired events (or
    /// quiescence); points where the rig fails to fire are recorded as
    /// stalled. Deterministic: the rig, the device model and the event
    /// budget fully determine the curves.
    pub fn calibrate(depth: CalibDepth) -> Self {
        let (grid, events): (&[f64], u64) = match depth {
            CalibDepth::Full => (
                &[
                    0.16, 0.18, 0.20, 0.24, 0.28, 0.32, 0.36, 0.40, 0.45, 0.50, 0.60, 0.70, 0.80,
                    0.90, 1.00,
                ],
                3_000,
            ),
            CalibDepth::Smoke => (&[0.20, 0.30, 0.50, 0.80, 1.00], 400),
        };
        let points = grid
            .iter()
            .map(|&vdd| calibrate_point(vdd, events))
            .collect();
        Self { points }
    }

    /// Builds a model directly from points, a fixture for unit tests.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or not sorted by voltage.
    #[cfg(test)]
    pub(crate) fn from_points(points: Vec<IslandPoint>) -> Self {
        assert!(!points.is_empty(), "island model needs points");
        assert!(
            points.windows(2).all(|w| w[0].vdd < w[1].vdd),
            "island points must be sorted by vdd"
        );
        Self { points }
    }

    /// The calibration grid.
    pub fn points(&self) -> &[IslandPoint] {
        &self.points
    }

    /// Interpolated firing rate at `vdd` (ops per simulated second).
    /// Zero below the lowest live grid point — the island stalls.
    pub(crate) fn ops_per_sec(&self, vdd: f64) -> f64 {
        self.interp(vdd, |p| p.ops_per_sec)
    }

    /// Interpolated energy per op at `vdd`, joules.
    pub(crate) fn joules_per_op(&self, vdd: f64) -> f64 {
        self.interp(vdd, |p| p.joules_per_op)
    }

    /// The cost of a task of `ops` operations at `vdd`.
    pub(crate) fn task_cost(&self, vdd: f64, ops: u64) -> TaskCost {
        let rate = self.ops_per_sec(vdd);
        TaskCost {
            rate,
            energy: ops as f64 * self.joules_per_op(vdd),
            time: ops as f64 / rate,
        }
    }

    fn interp(&self, vdd: f64, f: impl Fn(&IslandPoint) -> f64) -> f64 {
        let pts = &self.points;
        if vdd <= pts[0].vdd {
            // Below the calibrated range: stalled unless the lowest
            // point itself is live and we are exactly on it.
            return if vdd == pts[0].vdd { f(&pts[0]) } else { 0.0 };
        }
        if vdd >= pts[pts.len() - 1].vdd {
            return f(&pts[pts.len() - 1]);
        }
        let hi = pts.partition_point(|p| p.vdd < vdd);
        let (a, b) = (&pts[hi - 1], &pts[hi]);
        let t = (vdd - a.vdd) / (b.vdd - a.vdd);
        f(a) + t * (f(b) - f(a))
    }
}

/// Runs the counting rig at a constant `vdd` and measures its firing
/// rate and per-op energy.
fn calibrate_point(vdd: f64, events: u64) -> IslandPoint {
    let mut nl = Netlist::new();
    let osc = SelfTimedOscillator::build(&mut nl, "osc");
    let _cnt = ToggleRippleCounter::build(&mut nl, 8, osc.output(), "cnt");
    let mut sim = Simulator::new(nl, DeviceModel::umc90());
    let d = sim.add_domain("vdd", SupplyKind::ideal(Waveform::constant(vdd)));
    sim.assign_all(d);
    osc.prime(&mut sim);
    sim.start();
    let fired = sim.run_to_quiescence(events);
    let elapsed = sim.now().0;
    if fired == 0 || elapsed <= 0.0 {
        return IslandPoint {
            vdd,
            ops_per_sec: 0.0,
            joules_per_op: 0.0,
        };
    }
    let energy = sim.energy_drawn(d).0;
    IslandPoint {
        vdd,
        ops_per_sec: fired as f64 / elapsed,
        joules_per_op: energy / fired as f64,
    }
}

/// One calibrated sensor operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorPoint {
    /// Sampled input voltage.
    pub v_in: f64,
    /// Digital code produced.
    pub code: u64,
    /// Energy spent by the conversion, joules.
    pub energy: f64,
    /// Conversion duration, seconds.
    pub duration: f64,
}

/// Piecewise-linear model of the charge-to-digital front-end.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorModel {
    points: Vec<SensorPoint>,
}

impl SensorModel {
    /// Calibrates from real gate-level conversions across the node's
    /// sensing range.
    pub fn calibrate(depth: CalibDepth) -> Self {
        let (bits, samples) = match depth {
            CalibDepth::Full => (8, 7),
            CalibDepth::Smoke => (6, 3),
        };
        let adc = ChargeToDigitalConverter::new(Farads(2e-12), bits);
        let points = adc
            .code_curve(Volts(0.30), Volts(1.0), samples)
            .into_iter()
            .map(|(v, r)| SensorPoint {
                v_in: v.0,
                code: r.code,
                energy: r.energy.0,
                duration: r.duration.0,
            })
            .collect();
        Self { points }
    }

    /// The calibration points.
    pub fn points(&self) -> &[SensorPoint] {
        &self.points
    }

    /// Interpolated `(code, energy_j, duration_s)` for a sample at
    /// `v_in` (clamped to the calibrated range).
    pub fn sample(&self, v_in: f64) -> (u64, f64, f64) {
        let pts = &self.points;
        if v_in <= pts[0].v_in {
            let p = &pts[0];
            return (p.code, p.energy, p.duration);
        }
        if v_in >= pts[pts.len() - 1].v_in {
            let p = &pts[pts.len() - 1];
            return (p.code, p.energy, p.duration);
        }
        let hi = pts.partition_point(|p| p.v_in < v_in);
        let (a, b) = (&pts[hi - 1], &pts[hi]);
        let t = (v_in - a.v_in) / (b.v_in - a.v_in);
        let code = a.code as f64 + t * (b.code as f64 - a.code as f64);
        (
            code.round() as u64,
            a.energy + t * (b.energy - a.energy),
            a.duration + t * (b.duration - a.duration),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_calibration_is_monotone_in_rate() {
        let m = IslandModel::calibrate(CalibDepth::Smoke);
        let live: Vec<&IslandPoint> = m.points().iter().filter(|p| p.ops_per_sec > 0.0).collect();
        assert!(live.len() >= 2, "rig never fired during calibration");
        for w in live.windows(2) {
            assert!(
                w[1].ops_per_sec > w[0].ops_per_sec,
                "self-timed rate must grow with vdd"
            );
        }
    }

    #[test]
    fn interpolation_brackets_grid_points() {
        let m = IslandModel::from_points(vec![
            IslandPoint {
                vdd: 0.2,
                ops_per_sec: 0.0,
                joules_per_op: 0.0,
            },
            IslandPoint {
                vdd: 0.4,
                ops_per_sec: 1e6,
                joules_per_op: 1e-12,
            },
            IslandPoint {
                vdd: 0.8,
                ops_per_sec: 5e6,
                joules_per_op: 2e-12,
            },
        ]);
        assert_eq!(m.ops_per_sec(0.1), 0.0); // below range: stalled
        assert_eq!(m.ops_per_sec(0.4), 1e6);
        let mid = m.ops_per_sec(0.6);
        assert!(mid > 1e6 && mid < 5e6);
        assert_eq!(m.ops_per_sec(1.5), 5e6); // clamped above
    }

    #[test]
    fn sensor_calibration_codes_increase_with_voltage() {
        let s = SensorModel::calibrate(CalibDepth::Smoke);
        let first = s.points().first().expect("points");
        let last = s.points().last().expect("points");
        assert!(last.code > first.code);
        let (code, energy, duration) = s.sample(0.65);
        assert!(code >= first.code && code <= last.code);
        assert!(energy > 0.0 && duration > 0.0);
    }

    #[test]
    fn calibration_is_deterministic() {
        let a = IslandModel::calibrate(CalibDepth::Smoke);
        let b = IslandModel::calibrate(CalibDepth::Smoke);
        assert_eq!(a, b);
    }
}
