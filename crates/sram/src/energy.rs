//! Energy-per-access calibration against the paper's published numbers.
//!
//! The paper reports for the 1-kbit SI SRAM in UMC 90 nm: **5.8 pJ per
//! 16-bit write at Vdd = 1 V, 1.9 pJ at 0.4 V, with the minimum energy
//! point at 0.4 V**. Energy per access decomposes as
//!
//! ```text
//! E(V) = A·V²  +  B·P_leak(V)·t_access(V)
//!        dynamic   static (leakage over the — exploding — access time)
//! ```
//!
//! with `A` the switched capacitance of one access and `B` the macro's
//! leakage width in unit gates. [`EnergyCalibration::solve`] inverts the
//! two published anchors for `(A, B)` as a 2×2 linear system; the
//! *minimum energy point falling at ≈0.4 V is then a prediction*, not an
//! input, and the test suite checks it.

use emc_units::{Joules, Volts};

use crate::timing::SramTiming;

/// Operation flavour for energy queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// A read access.
    Read,
    /// A 16-bit write access (read-before-write included).
    Write,
}

/// Errors from [`EnergyCalibration::solve`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolveEnergyError {
    /// Human-readable reason the anchors are unsatisfiable.
    reason: String,
}

impl core::fmt::Display for SolveEnergyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "energy calibration unsolvable: {}", self.reason)
    }
}

impl std::error::Error for SolveEnergyError {}

/// Solved energy model of one SRAM macro.
#[derive(Debug, Clone)]
pub struct EnergyCalibration {
    /// Switched capacitance per write access, farads.
    cap_write: f64,
    /// Leakage width in unit gates.
    leak_units: f64,
    /// Reads switch fewer lines full-swing.
    read_fraction: f64,
    completion_phases: usize,
}

/// The paper's nominal-voltage anchor: 5.8 pJ per 16-bit write at 1 V.
pub(crate) const WRITE_ENERGY_1V: Joules = Joules(5.8e-12);

/// The paper's low-voltage anchor: 1.9 pJ per 16-bit write at 0.4 V.
pub(crate) const WRITE_ENERGY_0V4: Joules = Joules(1.9e-12);

impl EnergyCalibration {
    /// Solves the `(A, B)` pair against the paper's anchors for the given
    /// timing model, assuming `completion_phases` completion-detected
    /// phases per access (the SI discipline's overhead is *included* in
    /// the published numbers, which were measured on the SI design).
    ///
    /// # Errors
    ///
    /// Returns an error if the anchors would require negative switched
    /// capacitance or leakage.
    pub fn solve(timing: &SramTiming, completion_phases: usize) -> Result<Self, SolveEnergyError> {
        let g = |v: Volts| {
            let t = timing.write_latency(v, completion_phases);
            (timing.device().leakage_power(v) * t.0).0
        };
        let (v1, e1) = (Volts(1.0), WRITE_ENERGY_1V.0);
        let (v2, e2) = (Volts(0.4), WRITE_ENERGY_0V4.0);
        // A·v1² + B·g1 = e1 ;  A·v2² + B·g2 = e2.
        let (g1, g2) = (g(v1), g(v2));
        let det = v1.0 * v1.0 * g2 - v2.0 * v2.0 * g1;
        if det.abs() < 1e-40 {
            return Err(SolveEnergyError {
                reason: "anchor system is singular".into(),
            });
        }
        let a = (e1 * g2 - e2 * g1) / det;
        let b = (v1.0 * v1.0 * e2 - v2.0 * v2.0 * e1) / det;
        if a <= 0.0 || b <= 0.0 {
            return Err(SolveEnergyError {
                reason: format!("non-physical solution A = {a}, B = {b}"),
            });
        }
        Ok(Self {
            cap_write: a,
            leak_units: b,
            read_fraction: 0.55,
            completion_phases,
        })
    }

    /// Leakage width (unit gates).
    pub fn leak_units(&self) -> f64 {
        self.leak_units
    }

    /// Energy of one access at constant `vdd` under the calibrated SI
    /// discipline.
    pub fn access_energy(&self, timing: &SramTiming, op: Op, vdd: Volts) -> Joules {
        let (frac, latency) = match op {
            Op::Read => (
                self.read_fraction,
                timing.read_latency(vdd, self.completion_phases),
            ),
            Op::Write => (1.0, timing.write_latency(vdd, self.completion_phases)),
        };
        let dynamic = self.cap_write * frac * vdd.0 * vdd.0;
        let leak = (timing.device().leakage_power(vdd) * self.leak_units * latency.0).0;
        Joules(dynamic + leak)
    }

    /// Static (retention) power of the whole macro at `vdd`, scaled by
    /// the cell flavour's leakage factor.
    pub fn retention_power(
        &self,
        timing: &SramTiming,
        vdd: Volts,
        cell_leak_factor: f64,
    ) -> emc_units::Watts {
        timing.device().leakage_power(vdd) * self.leak_units * cell_leak_factor
    }

    /// Sweeps energy per access over `[v_lo, v_hi]` and returns the
    /// voltage minimising it — the minimum-energy point the paper puts
    /// at 0.4 V.
    ///
    /// # Panics
    ///
    /// Panics if the interval is inverted or `n < 2`.
    pub fn minimum_energy_point(
        &self,
        timing: &SramTiming,
        op: Op,
        v_lo: Volts,
        v_hi: Volts,
        n: usize,
    ) -> (Volts, Joules) {
        assert!(n >= 2 && v_hi > v_lo, "bad sweep parameters");
        let mut best = (v_lo, Joules(f64::INFINITY));
        for i in 0..n {
            let v = Volts(v_lo.0 + (v_hi.0 - v_lo.0) * i as f64 / (n - 1) as f64);
            let e = self.access_energy(timing, op, v);
            if e < best.1 {
                best = (v, e);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;
    use emc_device::DeviceModel;

    fn rig() -> (SramTiming, EnergyCalibration) {
        let timing = SramTiming::new(DeviceModel::umc90(), 64, 1, CellKind::SixT);
        let cal = EnergyCalibration::solve(&timing, 2).expect("anchors solvable");
        (timing, cal)
    }

    #[test]
    fn anchors_are_reproduced() {
        let (t, c) = rig();
        let e1 = c.access_energy(&t, Op::Write, Volts(1.0));
        let e2 = c.access_energy(&t, Op::Write, Volts(0.4));
        assert!((e1.0 - 5.8e-12).abs() < 1e-15, "E(1 V) = {e1}");
        assert!((e2.0 - 1.9e-12).abs() < 1e-15, "E(0.4 V) = {e2}");
    }

    #[test]
    fn minimum_energy_point_is_predicted_near_0v4() {
        let (t, c) = rig();
        let (v_min, e_min) = c.minimum_energy_point(&t, Op::Write, Volts(0.15), Volts(1.0), 400);
        assert!(
            (0.3..=0.5).contains(&v_min.0),
            "minimum energy point at {v_min}, paper says 0.4 V"
        );
        assert!(e_min <= c.access_energy(&t, Op::Write, Volts(0.4)));
    }

    #[test]
    fn energy_rises_below_the_minimum_point() {
        let (t, c) = rig();
        let (v_min, _) = c.minimum_energy_point(&t, Op::Write, Volts(0.15), Volts(1.0), 400);
        let below = c.access_energy(&t, Op::Write, Volts(v_min.0 - 0.1));
        let at = c.access_energy(&t, Op::Write, v_min);
        assert!(below > at, "leakage must dominate below the MEP");
    }

    #[test]
    fn reads_cheaper_than_writes() {
        let (t, c) = rig();
        for v in [0.3, 0.4, 0.7, 1.0] {
            assert!(
                c.access_energy(&t, Op::Read, Volts(v)) < c.access_energy(&t, Op::Write, Volts(v))
            );
        }
    }

    #[test]
    fn solved_parameters_are_physical() {
        let (_, c) = rig();
        // Switched capacitance of a 1-kbit access: hundreds of fF to a
        // few pF is the plausible range.
        assert!(
            c.cap_write > 1e-13 && c.cap_write < 2e-11,
            "A = {}",
            c.cap_write
        );
        assert!(
            c.leak_units() > 10.0 && c.leak_units() < 1e6,
            "B = {}",
            c.leak_units()
        );
    }

    #[test]
    fn retention_power_scales_with_cell_factor() {
        let (t, c) = rig();
        let p6 = c.retention_power(&t, Volts(0.5), CellKind::SixT.leakage_factor());
        let p8 = c.retention_power(&t, Volts(0.5), CellKind::EightT.leakage_factor());
        assert!(p8.0 < p6.0 * 0.5);
    }
}
