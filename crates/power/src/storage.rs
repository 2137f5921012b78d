//! The storage reservoir between harvester and load.

use emc_units::{Coulombs, Farads, Joules, Seconds, Volts};

/// A super-capacitor (or large on-chip MIM cap) with charge bookkeeping,
/// an over-voltage clamp and exponential self-discharge.
///
/// # Examples
///
/// ```
/// use emc_power::StorageCap;
/// use emc_units::{Farads, Joules, Volts};
///
/// let mut cap = StorageCap::new(Farads(10e-6), Volts(0.4), Volts(1.2));
/// let accepted = cap.deposit(Joules(1e-6));
/// assert!(accepted.0 > 0.0);
/// assert!(cap.voltage() > Volts(0.4));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StorageCap {
    capacitance: Farads,
    charge: Coulombs,
    v_max: Volts,
    /// Self-discharge time constant; `None` disables leakage.
    tau: Option<Seconds>,
}

impl StorageCap {
    /// A capacitor of the given size, initial voltage, and over-voltage
    /// clamp, with self-discharge disabled.
    ///
    /// # Panics
    ///
    /// Panics if the capacitance is not strictly positive, the initial
    /// voltage is negative, or the clamp is below the initial voltage.
    pub fn new(capacitance: Farads, v0: Volts, v_max: Volts) -> Self {
        assert!(capacitance.0 > 0.0, "capacitance must be positive");
        assert!(v0.0 >= 0.0, "initial voltage must be non-negative");
        assert!(v_max >= v0, "clamp below initial voltage");
        Self {
            capacitance,
            charge: capacitance * v0,
            v_max,
            tau: None,
        }
    }

    /// Enables exponential self-discharge with time constant `tau`.
    ///
    /// # Panics
    ///
    /// Panics if `tau` is not strictly positive.
    pub fn with_self_discharge(mut self, tau: Seconds) -> Self {
        assert!(tau.0 > 0.0, "self-discharge constant must be positive");
        self.tau = Some(tau);
        self
    }

    /// The capacitance.
    pub fn capacitance(&self) -> Farads {
        self.capacitance
    }

    /// Present terminal voltage.
    pub fn voltage(&self) -> Volts {
        self.capacitance.voltage_for_charge(self.charge)
    }

    /// Present stored energy `C·V²/2`.
    pub fn stored_energy(&self) -> Joules {
        self.capacitance.stored_energy(self.voltage())
    }

    /// Energy headroom before the clamp engages.
    pub fn headroom(&self) -> Joules {
        self.capacitance.stored_energy(self.v_max) - self.stored_energy()
    }

    /// Deposits up to `energy`; returns the amount actually accepted
    /// (clamped by the over-voltage limit).
    ///
    /// # Panics
    ///
    /// Panics if `energy` is negative.
    pub fn deposit(&mut self, energy: Joules) -> Joules {
        assert!(energy.0 >= 0.0, "cannot deposit negative energy");
        let stored = self.stored_energy();
        let headroom = self.capacitance.stored_energy(self.v_max) - stored;
        let accepted = Joules(energy.0.min(headroom.0));
        let new_e = stored + accepted;
        let v = Volts((2.0 * new_e.0 / self.capacitance.0).sqrt());
        self.charge = self.capacitance * v;
        accepted
    }

    /// Withdraws up to `energy`; returns the amount actually delivered
    /// (limited by the stored energy).
    ///
    /// # Panics
    ///
    /// Panics if `energy` is negative.
    pub fn withdraw(&mut self, energy: Joules) -> Joules {
        assert!(energy.0 >= 0.0, "cannot withdraw negative energy");
        let stored = self.stored_energy();
        let granted = Joules(energy.0.min(stored.0));
        let new_e = stored - granted;
        let v = Volts((2.0 * new_e.0.max(0.0) / self.capacitance.0).sqrt());
        self.charge = self.capacitance * v;
        granted
    }

    /// Applies self-discharge over an elapsed interval `dt`.
    pub fn age(&mut self, dt: Seconds) {
        if let Some(tau) = self.tau {
            let factor = (-dt.0 / tau.0).exp();
            self.charge = Coulombs(self.charge.0 * factor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cap() -> StorageCap {
        StorageCap::new(Farads(10e-6), Volts(0.5), Volts(1.0))
    }

    #[test]
    fn initial_state() {
        let c = cap();
        assert_eq!(c.voltage(), Volts(0.5));
        assert!((c.stored_energy().0 - 1.25e-6).abs() < 1e-15);
        assert_eq!(c.capacitance(), Farads(10e-6));
    }

    #[test]
    fn deposit_and_withdraw_round_trip() {
        let mut c = cap();
        let e0 = c.stored_energy();
        let put = c.deposit(Joules(1e-6));
        assert_eq!(put, Joules(1e-6));
        let got = c.withdraw(Joules(1e-6));
        assert!((got.0 - 1e-6).abs() < 1e-15);
        assert!((c.stored_energy().0 - e0.0).abs() < 1e-14);
    }

    #[test]
    fn clamp_limits_deposit() {
        let mut c = cap();
        // Headroom to 1 V: 5 µJ − 1.25 µJ = 3.75 µJ.
        let put = c.deposit(Joules(100e-6));
        assert!((put.0 - 3.75e-6).abs() < 1e-12);
        assert!((c.voltage().0 - 1.0).abs() < 1e-9);
        // Further deposits are refused.
        assert_eq!(c.deposit(Joules(1e-6)).0, 0.0);
    }

    #[test]
    fn withdraw_limited_by_store() {
        let mut c = cap();
        let got = c.withdraw(Joules(100e-6));
        assert!((got.0 - 1.25e-6).abs() < 1e-12);
        assert_eq!(c.voltage(), Volts(0.0));
        assert_eq!(c.withdraw(Joules(1e-6)).0, 0.0);
    }

    #[test]
    fn self_discharge_decays_voltage() {
        let mut c = StorageCap::new(Farads(1e-6), Volts(1.0), Volts(1.2))
            .with_self_discharge(Seconds(10.0));
        c.age(Seconds(10.0));
        assert!((c.voltage().0 - (-1.0_f64).exp()).abs() < 1e-9);
        // Ageing with leakage disabled is a no-op.
        let mut d = cap();
        let v = d.voltage();
        d.age(Seconds(1e9));
        assert_eq!(d.voltage(), v);
    }

    #[test]
    #[should_panic(expected = "clamp below initial")]
    fn bad_clamp_panics() {
        let _ = StorageCap::new(Farads(1e-6), Volts(1.0), Volts(0.5));
    }

    #[test]
    #[should_panic(expected = "negative energy")]
    fn negative_deposit_panics() {
        let mut c = cap();
        let _ = c.deposit(Joules(-1.0));
    }
}
