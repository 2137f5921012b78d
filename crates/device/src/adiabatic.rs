//! Energy-per-operation model for adiabatic (charge-recovery) gates.
//!
//! A conventional static-CMOS transition dumps the full `C·V²` of
//! supplied energy: half burnt in the channel while charging, half
//! thrown away on discharge. An adiabatic gate instead charges its load
//! through the channel from a *ramped* supply over a ramp time `T`: the
//! average current is `C·V/T`, the channel drop is `I·R`, and the
//! dissipation per edge shrinks to
//!
//! ```text
//! E_ramp = ξ · (R·C / T) · C·V²
//! ```
//!
//! — the `1/T` law of Zulehner, Frank & Wille's *Design Automation for
//! Adiabatic Circuits* (ξ is a waveform shape factor: 1 for a linear
//! ramp, π²/8 per edge for a sinusoid). Slowing down by 2× halves the
//! energy per operation, so the energy·delay² product `E·T²`…`∝ T` is
//! the figure adiabatic design trades in, where conventional CMOS has a
//! `T`-independent energy floor.
//!
//! Two effects keep the real curve from falling forever:
//!
//! * a **non-adiabatic residue**: threshold drops and un-recovered nodes
//!   lose `≈ ½·C·Vt²` per operation no matter how slow the ramp;
//! * a **leakage floor**: the op occupies the gate for a window
//!   proportional to `T`, integrating `P_leak·T` — so `E(T)` is convex,
//!   with its minimum where the `1/T` friction and the leakage balance,
//!   at `T* = sqrt(ξ·R·C²·V² / (P_leak·w))` for a window of `w` ramps.

use emc_units::{Farads, Joules, Ohms, Seconds, Volts};

use crate::model::DeviceModel;

/// Breakdown of one adiabatic operation's energy at the supply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdiabaticOpEnergy {
    /// Energy drawn from the power-clock while ramping up: `C·V²` of
    /// charge delivery plus the channel loss.
    pub supplied: Joules,
    /// Channel (frictional) loss across both ramps: `ξ·(RC/T)·C·V²`.
    pub ramp_loss: Joules,
    /// Non-adiabatic residue lost regardless of ramp time: `½·C·Vt²`.
    pub residue: Joules,
    /// Leakage integrated over the operation window.
    pub leakage: Joules,
    /// Energy returned to the supply resonator on ramp-down.
    pub recovered: Joules,
}

impl AdiabaticOpEnergy {
    /// Total energy dissipated (not recovered): ramp loss + residue +
    /// leakage.
    pub fn dissipated(&self) -> Joules {
        self.ramp_loss + self.residue + self.leakage
    }
}

/// Adiabatic energy model over a [`DeviceModel`].
///
/// # Examples
///
/// ```
/// use emc_device::{AdiabaticModel, DeviceModel};
/// use emc_units::{Farads, Seconds, Volts};
///
/// let adb = AdiabaticModel::new(DeviceModel::umc90());
/// let c = Farads(2e-15);
/// let fast = adb.op_energy(Volts(0.5), c, Seconds(1e-9), 1.0, 1.0);
/// let slow = adb.op_energy(Volts(0.5), c, Seconds(2e-9), 1.0, 1.0);
/// // Doubling the ramp time halves the frictional ramp loss.
/// assert!((fast.ramp_loss.0 / slow.ramp_loss.0 - 2.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AdiabaticModel {
    device: DeviceModel,
}

impl AdiabaticModel {
    /// A model over an explicit device.
    pub fn new(device: DeviceModel) -> Self {
        Self { device }
    }

    /// The underlying device model.
    pub fn device(&self) -> &DeviceModel {
        &self.device
    }

    /// Effective charging resistance of a unit-drive channel at peak
    /// supply `v`: `R = V / I_on(V)`. Below the operating floor the
    /// channel never turns on and the resistance is `+∞`.
    pub(crate) fn channel_resistance(&self, v: Volts) -> Ohms {
        if !self.device.operational(v) {
            return Ohms(f64::INFINITY);
        }
        Ohms(v.0 / self.device.on_current(v).0)
    }

    /// Frictional loss of charging *and* recovering `c` through the
    /// channel with ramp time `t_ramp` and waveform shape factor
    /// `shape` (see `emc_power::ClockShape::ramp_loss_factor`):
    /// `ξ·(RC/T)·C·V²`, clamped at the conventional `C·V²` for ramps
    /// faster than the `RC` corner (an abrupt ramp cannot dissipate
    /// more than full charge-and-dump).
    ///
    /// # Panics
    ///
    /// Panics unless `t_ramp`, `c` and `shape` are strictly positive.
    pub fn ramp_loss(&self, v: Volts, c: Farads, t_ramp: Seconds, shape: f64) -> Joules {
        assert!(t_ramp.0 > 0.0, "ramp time must be positive");
        assert!(c.0 > 0.0, "load capacitance must be positive");
        assert!(shape > 0.0, "shape factor must be positive");
        let r = self.channel_resistance(v);
        if r.0.is_infinite() {
            return Joules(0.0); // gate never switches below the floor
        }
        let cv2 = v.cv2(c).0;
        Joules((shape * r.0 * c.0 / t_ramp.0 * cv2).min(cv2))
    }

    /// Non-adiabatic residue per operation: `½·C·Vt²` lost across
    /// threshold drops however slow the ramp.
    pub fn residue(&self, c: Farads) -> Joules {
        let vt = self.device.params().vt;
        Joules(0.5 * c.0 * vt.0 * vt.0)
    }

    /// Full energy breakdown of one operation switching `c` at peak
    /// supply `v` with ramp time `t_ramp`, waveform shape factor
    /// `shape`, and an occupation window of `window_ramps` ramp times
    /// (a 4-phase cascade occupies its gate for several slots).
    ///
    /// Below the device floor everything is zero except leakage.
    ///
    /// # Panics
    ///
    /// As for [`Self::ramp_loss`]; `window_ramps` must be positive.
    pub fn op_energy(
        &self,
        v: Volts,
        c: Farads,
        t_ramp: Seconds,
        shape: f64,
        window_ramps: f64,
    ) -> AdiabaticOpEnergy {
        assert!(window_ramps > 0.0, "window must be positive");
        let window = Seconds(t_ramp.0 * window_ramps);
        let leakage = Joules(self.device.leakage_power(v).0 * window.0);
        if !self.device.operational(v) {
            return AdiabaticOpEnergy {
                supplied: Joules(0.0),
                ramp_loss: Joules(0.0),
                residue: Joules(0.0),
                leakage,
                recovered: Joules(0.0),
            };
        }
        let ramp_loss = self.ramp_loss(v, c, t_ramp, shape);
        let residue = self.residue(c);
        let cv2 = v.cv2(c);
        // The clock delivers the full C·V² plus the up-ramp's half of
        // the friction; ramp-down returns what survives the friction's
        // other half and the residue.
        let supplied = cv2 + Joules(0.5 * ramp_loss.0);
        let recovered = Joules((supplied.0 - ramp_loss.0 - residue.0).max(0.0));
        AdiabaticOpEnergy {
            supplied,
            ramp_loss,
            residue,
            leakage,
            recovered,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adb() -> AdiabaticModel {
        AdiabaticModel::new(DeviceModel::umc90())
    }

    const C: Farads = Farads(2e-15);

    #[test]
    fn ramp_loss_scales_inversely_with_ramp_time() {
        let m = adb();
        let e1 = m.ramp_loss(Volts(0.5), C, Seconds(1e-9), 1.0);
        let e4 = m.ramp_loss(Volts(0.5), C, Seconds(4e-9), 1.0);
        assert!((e1.0 / e4.0 - 4.0).abs() < 1e-9, "1/T scaling violated");
    }

    #[test]
    fn abrupt_ramp_clamps_at_conventional_cv2() {
        let m = adb();
        // A femtosecond "ramp" is a conventional step: loss = C·V².
        let e = m.ramp_loss(Volts(0.5), C, Seconds(1e-15), 1.0);
        assert_eq!(e, Volts(0.5).cv2(C));
    }

    #[test]
    fn slow_ramp_beats_conventional_switching() {
        let m = adb();
        let v = Volts(0.5);
        let conventional = v.cv2(C);
        let op = m.op_energy(v, C, Seconds(100e-9), 1.0, 4.0);
        assert!(
            op.dissipated().0 < 0.5 * conventional.0,
            "adiabatic {} vs conventional {conventional}",
            op.dissipated()
        );
    }

    #[test]
    fn residue_is_ramp_time_independent() {
        let m = adb();
        let a = m.op_energy(Volts(0.8), C, Seconds(1e-9), 1.0, 4.0);
        let b = m.op_energy(Volts(0.8), C, Seconds(100e-9), 1.0, 4.0);
        assert_eq!(a.residue, b.residue);
        let vt = m.device().params().vt;
        assert!((a.residue.0 - 0.5 * C.0 * vt.0 * vt.0).abs() < 1e-30);
    }

    #[test]
    fn energy_books_balance() {
        let m = adb();
        let op = m.op_energy(Volts(0.6), C, Seconds(10e-9), 1.0, 4.0);
        // supplied = recovered + ramp_loss + residue (leakage is drawn
        // from the DC keep-alive rail, not the clock).
        let balance = op.recovered.0 + op.ramp_loss.0 + op.residue.0;
        assert!(
            (op.supplied.0 - balance).abs() < 1e-12 * op.supplied.0,
            "supplied {} vs accounted {balance}",
            op.supplied
        );
        assert!(op.recovered.0 > 0.0);
    }

    #[test]
    fn dissipation_is_convex_with_an_interior_minimum() {
        let m = adb();
        let v = Volts(0.5);
        // Ramp times from 1 ps to 1 s, four per decade.
        let dissipated: Vec<f64> = (0..=48)
            .map(|k| {
                let t_ramp = Seconds(1e-12 * 10f64.powf(f64::from(k) / 4.0));
                m.op_energy(v, C, t_ramp, 1.0, 4.0).dissipated().0
            })
            .collect();
        let best = (0..dissipated.len())
            .min_by(|&a, &b| dissipated[a].total_cmp(&dissipated[b]))
            .expect("non-empty sweep");
        assert!(
            4 <= best && best + 4 < dissipated.len(),
            "minimum at the sweep's edge ({best})"
        );
        let e_star = dissipated[best];
        assert!(
            e_star < dissipated[best - 4],
            "minimum not below a 10x faster ramp"
        );
        assert!(
            e_star < dissipated[best + 4],
            "minimum not below a 10x slower ramp"
        );
    }

    #[test]
    fn sine_shape_dissipates_more_than_trapezoid() {
        let m = adb();
        let tz = m.ramp_loss(Volts(0.5), C, Seconds(10e-9), 1.0);
        let sn = m.ramp_loss(
            Volts(0.5),
            C,
            Seconds(10e-9),
            std::f64::consts::PI.powi(2) / 8.0,
        );
        assert!(sn > tz);
    }

    #[test]
    fn below_floor_only_leaks() {
        let m = adb();
        let op = m.op_energy(Volts(0.05), C, Seconds(1e-9), 1.0, 4.0);
        assert_eq!(op.supplied, Joules(0.0));
        assert_eq!(op.recovered, Joules(0.0));
        assert_eq!(op.ramp_loss, Joules(0.0));
        assert!(op.leakage.0 > 0.0);
    }

    #[test]
    fn channel_resistance_falls_with_vdd() {
        let m = adb();
        assert!(m.channel_resistance(Volts(0.3)) > m.channel_resistance(Volts(1.0)));
        assert!(m.channel_resistance(Volts(0.05)).0.is_infinite());
    }

    #[test]
    #[should_panic(expected = "ramp time must be positive")]
    fn zero_ramp_panics() {
        let _ = adb().ramp_loss(Volts(0.5), C, Seconds(0.0), 1.0);
    }
}
