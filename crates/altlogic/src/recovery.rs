//! Charge-recovery toggle memory with a configurable return rail.
//!
//! The paper's charge-to-digital converter drains its sampling
//! capacitor to the device floor: everything not spent on switching is
//! stranded as residual charge and thrown away at the next sample. A
//! charge-recovery memory instead runs the same self-timed oscillator +
//! toggle ripple counter for a **bounded burst** of counts, then
//! recycles the (still substantial) residual charge back to the supply
//! through a recovery rail with return efficiency `η`: the next
//! operation only needs a *fresh* top-up of `E(V_op) − η·E(V_res)`.
//!
//! Each burst is a gate-level simulation on a capacitor-backed domain —
//! the oscillator slows as the rail sags, exactly as in the converter —
//! so codes, residuals and energy splits are simulation outcomes, not
//! assumptions.

use emc_async::{SelfTimedOscillator, ToggleRippleCounter};
use emc_device::DeviceModel;
use emc_netlist::Netlist;
use emc_obs::{EnergyKind, Telemetry};
use emc_sim::{Simulator, SupplyKind};
use emc_units::{Farads, Joules, Seconds, Volts};

/// One memory operation (count burst + charge return).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryOp {
    /// Counts registered by the LSB toggle during the burst.
    pub code: u64,
    /// Rail voltage when the burst ended.
    pub v_residual: Volts,
    /// Sim-time duration of the burst.
    pub duration: Seconds,
    /// Energy lost inside the operation: `E(V_op) − E(V_res)`.
    pub(crate) op_dissipated: Joules,
    /// Residual energy recycled through the return rail: `η·E(V_res)`.
    pub(crate) returned: Joules,
    /// Residual energy lost in the return conversion: `(1−η)·E(V_res)`.
    pub(crate) return_loss: Joules,
    /// Fresh energy the supply provides to restore the rail for the
    /// next operation: `E(V_op) − returned`.
    pub fresh: Joules,
}

/// A sequence of recovery operations with aggregate books.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoverySession {
    /// Operating (recharge) voltage.
    pub(crate) v_op: Volts,
    /// Per-operation results, in order.
    pub ops: Vec<RecoveryOp>,
}

impl RecoverySession {
    /// Total fresh energy drawn from the supply.
    pub fn fresh_total(&self) -> Joules {
        Joules(self.ops.iter().map(|o| o.fresh.0).sum())
    }

    /// Total energy recycled through the return rail.
    pub(crate) fn returned_total(&self) -> Joules {
        Joules(self.ops.iter().map(|o| o.returned.0).sum())
    }

    /// Total energy dissipated (in-op switching + return losses).
    pub(crate) fn dissipated_total(&self) -> Joules {
        Joules(
            self.ops
                .iter()
                .map(|o| o.op_dissipated.0 + o.return_loss.0)
                .sum(),
        )
    }

    /// Fresh energy per count across the session — the figure-of-merit
    /// the recovery rail improves.
    pub(crate) fn fresh_per_count(&self) -> Joules {
        let counts: u64 = self.ops.iter().map(|o| o.code).sum();
        if counts == 0 {
            Joules(0.0)
        } else {
            Joules(self.fresh_total().0 / counts as f64)
        }
    }
}

/// The charge-recovery toggle memory.
///
/// # Examples
///
/// ```
/// use emc_altlogic::ChargeRecoveryMemory;
/// use emc_units::{Farads, Volts};
///
/// let mem = ChargeRecoveryMemory::new(Farads(2e-12), 12, 16, 0.8);
/// let session = mem.run(Volts(0.8), 4);
/// assert_eq!(session.ops.len(), 4);
/// // Recycling beats recharging from scratch.
/// assert!(session.ops[0].fresh.0 < Volts(0.8).cv2(Farads(2e-12)).0);
/// ```
#[derive(Debug, Clone)]
pub struct ChargeRecoveryMemory {
    c_store: Farads,
    bits: usize,
    counts_per_op: u64,
    return_efficiency: f64,
    device: DeviceModel,
}

impl ChargeRecoveryMemory {
    /// A memory over the default UMC 90 nm device model. `counts_per_op`
    /// bounds each burst (`u64::MAX` drains to the floor like the plain
    /// converter); `return_efficiency` is the recovery rail's `η`.
    ///
    /// # Panics
    ///
    /// Panics unless the capacitance is strictly positive, `bits` is in
    /// `1..=63`, `counts_per_op > 0` and `return_efficiency` is in
    /// `[0, 1]`.
    pub fn new(c_store: Farads, bits: usize, counts_per_op: u64, return_efficiency: f64) -> Self {
        assert!(c_store.0 > 0.0, "storage capacitance must be positive");
        assert!((1..=63).contains(&bits), "counter width must be in 1..=63");
        assert!(counts_per_op > 0, "bursts need at least one count");
        assert!(
            (0.0..=1.0).contains(&return_efficiency),
            "return efficiency must be in [0, 1]"
        );
        Self {
            c_store,
            bits,
            counts_per_op,
            return_efficiency,
            device: DeviceModel::umc90(),
        }
    }

    /// Runs one count burst from a rail charged to `v_op`: a gate-level
    /// oscillator + counter simulation driven until the LSB registers
    /// `counts_per_op` events or the rail stalls.
    pub(crate) fn run_op(&self, v_op: Volts) -> RecoveryOp {
        assert!(v_op.0 >= 0.0, "negative operating voltage");
        let mut nl = Netlist::new();
        let osc = SelfTimedOscillator::build(&mut nl, "osc");
        let counter = ToggleRippleCounter::build(&mut nl, self.bits, osc.output(), "cnt");
        let mut sim = Simulator::new(nl, self.device.clone());
        let cap = sim.add_domain("cs", SupplyKind::capacitor(self.c_store, v_op));
        sim.assign_all(cap);
        osc.prime(&mut sim);
        sim.start();
        let lsb = counter.toggles()[0];
        // `env` runs once before the first event and once after each, so
        // `calls` counts the fired events: a burst stops at 50,000,000.
        let mut calls = 0u64;
        sim.drive_until(Seconds(f64::INFINITY), |sim| {
            calls += 1;
            calls > 50_000_000 || sim.transition_count(lsb) >= self.counts_per_op
        });
        let v_residual = sim.domain_voltage(cap);
        let e_op = self.c_store.stored_energy(v_op);
        let e_res = self.c_store.stored_energy(v_residual);
        let returned = Joules(self.return_efficiency * e_res.0);
        RecoveryOp {
            code: sim.transition_count(lsb),
            v_residual,
            duration: sim.now(),
            op_dissipated: Joules(e_op.0 - e_res.0),
            returned,
            return_loss: Joules(e_res.0 - returned.0),
            fresh: Joules(e_op.0 - returned.0),
        }
    }

    /// Runs `n_ops` identical bursts, recycling the residual charge
    /// between them.
    ///
    /// # Panics
    ///
    /// Panics if `n_ops == 0` or `v_op` is negative.
    pub fn run(&self, v_op: Volts, n_ops: usize) -> RecoverySession {
        assert!(n_ops > 0, "session needs at least one operation");
        // Bursts are deterministic from identical initial conditions, so
        // one simulation serves the whole session.
        let op = self.run_op(v_op);
        RecoverySession {
            v_op,
            ops: vec![op; n_ops],
        }
    }

    /// Books a session into a telemetry bundle under
    /// `altlogic/recovery`: supply top-ups as `harvested`, in-op
    /// switching and return losses as `dissipated`, and the recycled
    /// residuals as `recovered`.
    pub fn telemetry(&self, session: &RecoverySession) -> Telemetry {
        let mut t = Telemetry::new();
        t.energy.add_joules(
            "altlogic/recovery",
            EnergyKind::Harvested,
            session.fresh_total(),
        );
        t.energy.add_joules(
            "altlogic/recovery",
            EnergyKind::Dissipated,
            session.dissipated_total(),
        );
        t.energy.add_joules(
            "altlogic/recovery",
            EnergyKind::Recovered,
            session.returned_total(),
        );
        let c = t.metrics.counter("altlogic.recovery.ops");
        t.metrics.inc(c, session.ops.len() as u64);
        let g = t.metrics.gauge("altlogic.recovery.fresh_per_count_j");
        t.metrics.set_gauge(g, session.fresh_per_count().0);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(counts: u64, eta: f64) -> ChargeRecoveryMemory {
        ChargeRecoveryMemory::new(Farads(2e-12), 12, counts, eta)
    }

    #[test]
    fn books_balance_per_op() {
        let op = mem(16, 0.8).run_op(Volts(0.8));
        // fresh = dissipated-in-op + return loss: what the supply pays
        // is exactly what the cycle lost.
        assert!(
            (op.fresh.0 - (op.op_dissipated.0 + op.return_loss.0)).abs() < 1e-18,
            "fresh {} vs losses {}",
            op.fresh.0,
            op.op_dissipated.0 + op.return_loss.0
        );
        assert!(op.code >= 16);
        assert!(op.v_residual.0 > 0.0);
    }

    #[test]
    fn higher_return_efficiency_needs_less_fresh_energy() {
        let lossless = mem(16, 1.0).run(Volts(0.8), 4);
        let lossy = mem(16, 0.5).run(Volts(0.8), 4);
        let none = mem(16, 0.0).run(Volts(0.8), 4);
        assert!(lossless.fresh_total() < lossy.fresh_total());
        assert!(lossy.fresh_total() < none.fresh_total());
        // η = 1 pays only the in-op dissipation.
        let op = &lossless.ops[0];
        assert!((op.fresh.0 - op.op_dissipated.0).abs() < 1e-18);
    }

    #[test]
    fn bounded_burst_keeps_residual_high() {
        let short = mem(8, 0.8).run_op(Volts(0.8));
        let drain = mem(u64::MAX, 0.8).run_op(Volts(0.8));
        assert!(
            short.v_residual.0 > 2.0 * drain.v_residual.0,
            "short burst residual {} vs full drain {}",
            short.v_residual,
            drain.v_residual
        );
        assert!(short.returned.0 > drain.returned.0);
    }

    #[test]
    fn full_drain_matches_charge_to_digital_converter() {
        use emc_sensors::ChargeToDigitalConverter;
        // η = 0 and an unbounded burst is exactly the paper's converter.
        let op = mem(u64::MAX, 0.0).run_op(Volts(0.8));
        let cdc = ChargeToDigitalConverter::new(Farads(2e-12), 12).convert(Volts(0.8));
        assert_eq!(op.code, cdc.code);
        assert_eq!(op.v_residual, cdc.v_residual);
        assert_eq!(op.returned, Joules(0.0));
    }

    #[test]
    fn session_is_deterministic() {
        let a = mem(16, 0.8).run(Volts(0.8), 3);
        let b = mem(16, 0.8).run(Volts(0.8), 3);
        assert_eq!(a, b);
    }

    #[test]
    fn telemetry_books_recovery_accounts() {
        let m = mem(16, 0.8);
        let s = m.run(Volts(0.8), 3);
        let t = m.telemetry(&s);
        assert_eq!(
            t.energy.get("altlogic/recovery", EnergyKind::Recovered),
            Some(s.returned_total().0)
        );
        assert_eq!(
            t.energy.get("altlogic/recovery", EnergyKind::Harvested),
            Some(s.fresh_total().0)
        );
        assert_eq!(t.metrics.counter_value("altlogic.recovery.ops"), Some(3));
    }

    #[test]
    #[should_panic(expected = "return efficiency")]
    fn efficiency_above_one_panics() {
        let _ = ChargeRecoveryMemory::new(Farads(1e-12), 8, 4, 1.2);
    }
}
