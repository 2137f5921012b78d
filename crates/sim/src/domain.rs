//! Power domains: the supplies gates draw their switching energy from.

use emc_units::{Coulombs, Farads, Joules, Seconds, Volts, Watts, Waveform};

/// Identifier of a power domain within one simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId(pub(crate) usize);

impl DomainId {
    /// Dense index of this domain.
    pub fn index(self) -> usize {
        self.0
    }
}

/// How a domain sources its energy.
#[derive(Debug, Clone, PartialEq)]
pub enum SupplyKind {
    /// An ideal (infinite-charge) source whose voltage follows the given
    /// waveform — e.g. a bench supply, or the AC harvester of Fig. 4.
    Ideal {
        /// Supply voltage as a function of absolute simulation time.
        waveform: Waveform,
        /// Integration resolution for the work-integral solver. Must be
        /// well below the waveform's fastest feature.
        resolution: Seconds,
    },
    /// A finite storage capacitor that is *not* recharged by anything but
    /// explicit `PowerDomain::recharge` calls: every transition drains
    /// charge and the rail sags. This is the sampling capacitor of the
    /// charge-to-digital converter (Figs. 9–11).
    Capacitor {
        /// Storage capacitance.
        capacitance: Farads,
        /// Voltage the capacitor starts at.
        initial_voltage: Volts,
    },
}

impl SupplyKind {
    /// Ideal supply with a default integration resolution of 2 ns —
    /// suitable for constant or slowly varying rails. For fast AC rails
    /// use [`SupplyKind::ideal_with_resolution`].
    pub fn ideal(waveform: Waveform) -> Self {
        SupplyKind::Ideal {
            waveform,
            resolution: Seconds(2e-9),
        }
    }

    /// Ideal supply with explicit integration resolution.
    pub fn ideal_with_resolution(waveform: Waveform, resolution: Seconds) -> Self {
        SupplyKind::Ideal {
            waveform,
            resolution,
        }
    }

    /// Finite sampling/storage capacitor charged to `v0`.
    pub fn capacitor(capacitance: Farads, v0: Volts) -> Self {
        SupplyKind::Capacitor {
            capacitance,
            initial_voltage: v0,
        }
    }
}

/// Runtime state of one power domain.
///
/// Tracks the rail voltage, cumulative energy drawn (switching and
/// leakage separately) and — for capacitor-backed domains — the remaining
/// charge.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerDomain {
    name: String,
    kind: SupplyKind,
    /// Remaining charge; only meaningful for capacitor supplies.
    charge: Coulombs,
    /// Absolute time of the last lazy update.
    last_update: Seconds,
    switching_energy: Joules,
    leakage_energy: Joules,
    /// Count of unit-gate leakage paths assigned to this domain (sum of
    /// gate input-load factors, a proxy for total device width).
    leak_units: f64,
}

impl PowerDomain {
    pub(crate) fn new(name: &str, kind: SupplyKind) -> Self {
        let charge = match &kind {
            SupplyKind::Ideal { .. } => Coulombs(0.0),
            SupplyKind::Capacitor {
                capacitance,
                initial_voltage,
            } => *capacitance * *initial_voltage,
        };
        Self {
            name: name.to_owned(),
            kind,
            charge,
            last_update: Seconds(0.0),
            switching_energy: Joules(0.0),
            leakage_energy: Joules(0.0),
            leak_units: 0.0,
        }
    }

    /// The name this domain was created with.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The supply description.
    pub fn kind(&self) -> &SupplyKind {
        &self.kind
    }

    /// Rail voltage at absolute time `t`.
    ///
    /// For capacitor supplies the voltage reflects charge as of the last
    /// internal update; the simulator updates domains at every event.
    pub fn voltage(&self, t: Seconds) -> Volts {
        match &self.kind {
            SupplyKind::Ideal { waveform, .. } => Volts(waveform.value_at(t)),
            SupplyKind::Capacitor { capacitance, .. } => {
                capacitance.voltage_for_charge(self.charge).max(Volts(0.0))
            }
        }
    }

    /// Remaining stored charge (zero for ideal supplies).
    pub fn charge(&self) -> Coulombs {
        self.charge
    }

    /// Cumulative switching energy drawn from this domain.
    pub fn switching_energy(&self) -> Joules {
        self.switching_energy
    }

    /// Cumulative leakage energy drawn from this domain.
    pub fn leakage_energy(&self) -> Joules {
        self.leakage_energy
    }

    /// Total energy drawn (switching + leakage).
    pub fn total_energy(&self) -> Joules {
        self.switching_energy + self.leakage_energy
    }

    pub(crate) fn add_leak_units(&mut self, units: f64) {
        self.leak_units += units;
    }

    /// Draws one switching quantum `C·V²` at time `t`. For capacitor
    /// supplies the corresponding charge `C·V` leaves the store.
    pub(crate) fn draw_switching(&mut self, c_load: Farads, t: Seconds) {
        let v = self.voltage(t);
        if v.0 <= 0.0 {
            return;
        }
        self.switching_energy += v.cv2(c_load);
        if matches!(self.kind, SupplyKind::Capacitor { .. }) {
            self.charge -= c_load * v;
            self.charge = self.charge.max(Coulombs(0.0));
        }
    }

    /// Integrates leakage from the last update to `t` given the per-unit
    /// leakage power evaluated at the current rail voltage.
    pub(crate) fn advance(&mut self, t: Seconds, leak_power_per_unit: impl Fn(Volts) -> Watts) {
        if t <= self.last_update {
            return;
        }
        let dt = t - self.last_update;
        let v = self.voltage(self.last_update);
        let p = leak_power_per_unit(v) * self.leak_units;
        let e = p * dt;
        self.leakage_energy += e;
        if matches!(self.kind, SupplyKind::Capacitor { .. }) && v.0 > 0.0 {
            self.charge -= e / v;
            self.charge = self.charge.max(Coulombs(0.0));
        }
        self.last_update = t;
    }

    /// Adds charge to a capacitor supply (an external recharge, e.g. the
    /// sample switch closing in the converter's sample phase).
    ///
    /// # Panics
    ///
    /// Panics if called on an ideal supply.
    pub(crate) fn recharge(&mut self, to_voltage: Volts) {
        match &self.kind {
            SupplyKind::Capacitor { capacitance, .. } => {
                self.charge = *capacitance * to_voltage;
            }
            SupplyKind::Ideal { .. } => panic!("cannot recharge an ideal supply"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_tracks_waveform() {
        let d = PowerDomain::new(
            "vdd",
            SupplyKind::ideal(Waveform::ramp(0.2, 1.0, Seconds(0.0), Seconds(1.0))),
        );
        assert_eq!(d.voltage(Seconds(0.0)), Volts(0.2));
        assert!((d.voltage(Seconds(0.5)).0 - 0.6).abs() < 1e-12);
        assert_eq!(d.voltage(Seconds(2.0)), Volts(1.0));
        assert_eq!(d.charge(), Coulombs(0.0));
    }

    #[test]
    fn capacitor_starts_at_initial_voltage() {
        let d = PowerDomain::new("cs", SupplyKind::capacitor(Farads(100e-12), Volts(0.8)));
        assert!((d.voltage(Seconds(0.0)).0 - 0.8).abs() < 1e-12);
        assert!((d.charge().0 - 80e-12).abs() < 1e-20);
    }

    #[test]
    fn switching_draw_sags_capacitor() {
        let mut d = PowerDomain::new("cs", SupplyKind::capacitor(Farads(1e-12), Volts(1.0)));
        d.draw_switching(Farads(1e-14), Seconds(0.0));
        // ΔV = C_load/C_store · V = 1 %.
        assert!((d.voltage(Seconds(0.0)).0 - 0.99).abs() < 1e-9);
        assert!(d.switching_energy().0 > 0.0);
    }

    #[test]
    fn switching_draw_does_not_sag_ideal() {
        let mut d = PowerDomain::new("vdd", SupplyKind::ideal(Waveform::constant(1.0)));
        d.draw_switching(Farads(1e-14), Seconds(0.0));
        assert_eq!(d.voltage(Seconds(1.0)), Volts(1.0));
        assert!((d.switching_energy().0 - 1e-14).abs() < 1e-26);
    }

    #[test]
    fn capacitor_never_goes_negative() {
        let mut d = PowerDomain::new("cs", SupplyKind::capacitor(Farads(1e-15), Volts(0.2)));
        for _ in 0..100 {
            d.draw_switching(Farads(1e-15), Seconds(0.0));
        }
        assert!(d.voltage(Seconds(0.0)).0 >= 0.0);
        assert!(d.charge().0 >= 0.0);
    }

    #[test]
    fn leakage_advance_accumulates_and_is_monotone_in_time() {
        let mut d = PowerDomain::new("vdd", SupplyKind::ideal(Waveform::constant(1.0)));
        d.add_leak_units(10.0);
        d.advance(Seconds(1.0), |v| Watts(1e-9 * v.0));
        let e1 = d.leakage_energy();
        assert!((e1.0 - 1e-8).abs() < 1e-20);
        // Going backwards is a no-op.
        d.advance(Seconds(0.5), |v| Watts(1e-9 * v.0));
        assert_eq!(d.leakage_energy(), e1);
        d.advance(Seconds(2.0), |v| Watts(1e-9 * v.0));
        assert!(d.leakage_energy() > e1);
        assert_eq!(d.total_energy(), d.switching_energy() + d.leakage_energy());
    }

    #[test]
    fn leakage_drains_capacitor_charge() {
        let mut d = PowerDomain::new("cs", SupplyKind::capacitor(Farads(1e-12), Volts(1.0)));
        d.add_leak_units(1.0);
        let q0 = d.charge();
        d.advance(Seconds(1.0), |_| Watts(1e-13));
        assert!(d.charge() < q0);
    }

    #[test]
    fn recharge_restores_voltage() {
        let mut d = PowerDomain::new("cs", SupplyKind::capacitor(Farads(1e-12), Volts(1.0)));
        d.draw_switching(Farads(1e-13), Seconds(0.0));
        d.recharge(Volts(0.7));
        assert!((d.voltage(Seconds(0.0)).0 - 0.7).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cannot recharge")]
    fn recharge_ideal_panics() {
        let mut d = PowerDomain::new("vdd", SupplyKind::ideal(Waveform::constant(1.0)));
        d.recharge(Volts(0.5));
    }
}
