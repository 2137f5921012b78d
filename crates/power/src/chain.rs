//! The composed power chain: harvester → storage → DC-DC → load.

use emc_obs::{EnergyKind, Telemetry};
use emc_units::{Hertz, Joules, Seconds, Volts, Watts, Waveform};

use crate::converter::DcDcConverter;
use crate::harvester::HarvestSource;
use crate::storage::StorageCap;

/// The raw AC rail of the paper's Fig. 4: a rectified-free sinusoid
/// `dc ± amplitude` at `frequency`, clamped at 0 V (the rail cannot go
/// negative into the logic).
pub fn ac_supply(dc: Volts, amplitude: Volts, frequency: Hertz) -> Waveform {
    Waveform::sine(dc.0, amplitude.0, frequency, 0.0).clamped(0.0, f64::INFINITY)
}

/// Cumulative energy bookkeeping of a [`PowerChain`] run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChainReport {
    /// Energy produced by the harvester.
    pub harvested: Joules,
    /// Portion of harvested energy the reservoir could not accept
    /// (over-voltage clamp) — wasted.
    pub spilled: Joules,
    /// Energy delivered to the load at the regulated rail.
    pub delivered: Joules,
    /// Energy lost in conversion (inefficiency + quiescent draw).
    pub conversion_loss: Joules,
    /// Load demand that could not be met from the reservoir.
    pub deficit: Joules,
}

impl ChainReport {
    /// End-to-end efficiency: delivered / harvested (zero when nothing
    /// was harvested).
    pub(crate) fn end_to_end_efficiency(&self) -> f64 {
        if self.harvested.0 <= 0.0 {
            0.0
        } else {
            self.delivered.0 / self.harvested.0
        }
    }
}

/// Harvester, reservoir and converter composed into one steppable chain
/// (the supply side of the paper's Fig. 3 holistic view).
///
/// Call [`PowerChain::tick`] with the load's power demand for each time
/// slice; the chain harvests, buffers, converts, and accounts for every
/// nanojoule in its [`ChainReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct PowerChain {
    source: HarvestSource,
    storage: StorageCap,
    converter: DcDcConverter,
    now: Seconds,
    report: ChainReport,
}

impl PowerChain {
    /// Composes a chain; time starts at zero.
    pub fn new(source: HarvestSource, storage: StorageCap, converter: DcDcConverter) -> Self {
        Self {
            source,
            storage,
            converter,
            now: Seconds(0.0),
            report: ChainReport::default(),
        }
    }

    /// The storage reservoir.
    pub fn storage(&self) -> &StorageCap {
        &self.storage
    }

    /// The DC-DC converter (immutable).
    pub fn converter(&self) -> &DcDcConverter {
        &self.converter
    }

    /// Mutable converter access — the holistic controller's Vdd knob.
    pub fn converter_mut(&mut self) -> &mut DcDcConverter {
        &mut self.converter
    }

    /// Current simulation time of the chain.
    pub fn now(&self) -> Seconds {
        self.now
    }

    /// The cumulative energy report.
    pub fn report(&self) -> &ChainReport {
        &self.report
    }

    /// Advances the chain by `dt` with the load drawing `load_power` at
    /// the regulated rail. Returns the energy actually delivered (≤
    /// `load_power·dt` if the reservoir runs dry).
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive or `load_power` is
    /// negative.
    pub fn tick(&mut self, dt: Seconds, load_power: Watts) -> Joules {
        assert!(dt.0 > 0.0, "tick duration must be positive");
        assert!(load_power.0 >= 0.0, "negative load power");
        let t_mid = Seconds(self.now.0 + dt.0 * 0.5);

        // Harvest into the reservoir.
        let harvested = self.source.power(t_mid) * dt;
        let accepted = self.storage.deposit(harvested);
        self.report.harvested += harvested;
        self.report.spilled += harvested - accepted;

        // Serve the load through the converter.
        let demand = load_power * dt;
        let eta = self.converter.efficiency(self.storage.voltage());
        let mut delivered = Joules(0.0);
        if let Some(required) = self.converter.input_energy_for(demand, eta, dt) {
            let withdrawn = self.storage.withdraw(required);
            delivered = self.converter.output_energy_for(withdrawn, eta, dt);
            self.report.conversion_loss += withdrawn - delivered;
        }
        self.report.delivered += delivered;
        self.report.deficit += (demand - delivered).max(Joules(0.0));

        self.now = Seconds(self.now.0 + dt.0);
        delivered
    }

    /// Attempts an *all-or-nothing* energy-token withdrawal: the load
    /// wants `demand` joules delivered at the regulated rail over an
    /// activity window `dt`. The reservoir input energy (inefficiency
    /// plus quiescent draw over `dt`) is computed first; the quantum is
    /// granted only if the reservoir holds all of it. This is the
    /// energy-token discipline of `emc-sched` pushed down into the
    /// supply: a task either banks its whole quantum up front or does
    /// not start at all (no half-finished work on a dying rail).
    ///
    /// Returns `true` and books delivered/conversion-loss energy when
    /// granted; returns `false` and books the unmet `demand` as deficit
    /// when refused. Chain time does not advance — harvesting happens in
    /// [`PowerChain::tick`], which the caller is expected to drive
    /// separately for each wall-clock slice.
    ///
    /// # Panics
    ///
    /// Panics if `demand` is negative or `dt` is not strictly positive.
    pub fn draw_quantum(&mut self, demand: Joules, dt: Seconds) -> bool {
        assert!(demand.0 >= 0.0, "negative quantum demand");
        assert!(dt.0 > 0.0, "quantum window must be positive");
        let eta = self.converter.efficiency(self.storage.voltage());
        let Some(required) = self.converter.input_energy_for(demand, eta, dt) else {
            self.report.deficit += demand;
            return false;
        };
        if self.storage.stored_energy() < required {
            self.report.deficit += demand;
            return false;
        }
        let withdrawn = self.storage.withdraw(required);
        let delivered = self.converter.output_energy_for(withdrawn, eta, dt);
        self.report.delivered += delivered;
        self.report.conversion_loss += withdrawn - delivered;
        true
    }

    /// A telemetry snapshot of the chain so far: every stage of the
    /// cumulative [`ChainReport`] as a `chain/<stage>` ledger account,
    /// the reservoir's current stored energy, and efficiency / deficit /
    /// reservoir-voltage gauges. Accounts are booked in a fixed order,
    /// so the snapshot exports identical bytes for identical runs.
    pub fn telemetry(&self) -> Telemetry {
        let mut t = Telemetry::new();
        let r = &self.report;
        t.energy
            .add_joules("chain/harvested", EnergyKind::Harvested, r.harvested);
        t.energy
            .add_joules("chain/spilled", EnergyKind::Leaked, r.spilled);
        t.energy
            .add_joules("chain/delivered", EnergyKind::Dissipated, r.delivered);
        t.energy
            .add_joules("chain/conversion", EnergyKind::Leaked, r.conversion_loss);
        t.energy.add_joules(
            "chain/reservoir",
            EnergyKind::Stored,
            self.storage.stored_energy(),
        );
        let g = t.metrics.gauge("chain.efficiency");
        t.metrics.set_gauge(g, r.end_to_end_efficiency());
        let g = t.metrics.gauge("chain.deficit_j");
        t.metrics.set_gauge(g, r.deficit.0);
        let g = t.metrics.gauge("chain.reservoir.voltage_v");
        t.metrics.set_gauge(g, self.storage.voltage().0);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harvester::VibrationHarvester;
    use emc_units::Farads;

    fn chain_100uw() -> PowerChain {
        let h = VibrationHarvester::new(Hertz(120.0), Watts(100e-6), 8.0);
        PowerChain::new(
            h.into_source(Hertz(120.0)),
            StorageCap::new(Farads(10e-6), Volts(0.0), Volts(1.2)),
            DcDcConverter::new(Volts(0.5)),
        )
    }

    #[test]
    fn ac_supply_matches_fig4_parameters() {
        let w = ac_supply(Volts(0.2), Volts(0.1), Hertz(1e6));
        assert!((w.value_at(Seconds(0.25e-6)) - 0.3).abs() < 1e-9);
        assert!((w.value_at(Seconds(0.75e-6)) - 0.1).abs() < 1e-9);
        // Larger amplitude would clamp at zero, never below.
        let deep = ac_supply(Volts(0.1), Volts(0.3), Hertz(1e6));
        assert_eq!(deep.value_at(Seconds(0.75e-6)), 0.0);
    }

    #[test]
    fn idle_chain_accumulates_charge() {
        let mut c = chain_100uw();
        for _ in 0..100 {
            c.tick(Seconds(1e-3), Watts(0.0));
        }
        // 100 µW × 100 ms = 10 µJ harvested (minus nothing: no load).
        assert!((c.report().harvested.0 - 10e-6).abs() < 1e-8);
        assert!(c.storage().voltage().0 > 0.9);
        assert_eq!(c.report().delivered.0, 0.0);
    }

    #[test]
    fn sustainable_load_is_served() {
        let mut c = chain_100uw();
        // Pre-charge.
        for _ in 0..50 {
            c.tick(Seconds(1e-3), Watts(0.0));
        }
        // 50 µW load from a 100 µW harvest is sustainable through a 90 %
        // converter.
        let mut total = Joules(0.0);
        for _ in 0..100 {
            total += c.tick(Seconds(1e-3), Watts(50e-6));
        }
        assert!((total.0 - 5e-6).abs() < 1e-8, "delivered {total}");
        // No real deficit — only round-off dust from the η round trip.
        assert!(
            c.report().deficit.0 < 1e-15,
            "deficit {}",
            c.report().deficit
        );
    }

    #[test]
    fn overload_records_deficit() {
        let mut c = chain_100uw();
        // 1 mW from a 100 µW harvester starting empty must starve.
        let mut delivered = Joules(0.0);
        for _ in 0..100 {
            delivered += c.tick(Seconds(1e-3), Watts(1e-3));
        }
        assert!(c.report().deficit.0 > 0.0);
        assert!(delivered.0 < 100e-6 * 0.1);
    }

    #[test]
    fn clamp_spills_energy() {
        let mut c = chain_100uw();
        for _ in 0..2_000 {
            c.tick(Seconds(1e-3), Watts(0.0));
        }
        assert!(c.report().spilled.0 > 0.0, "reservoir never clamped");
        let e_max = c.storage().capacitance().stored_energy(Volts(1.2));
        assert!((c.storage().stored_energy().0 - e_max.0).abs() < 1e-9);
    }

    #[test]
    fn conversion_loss_is_positive_under_load() {
        let mut c = chain_100uw();
        for _ in 0..50 {
            c.tick(Seconds(1e-3), Watts(0.0));
        }
        for _ in 0..50 {
            c.tick(Seconds(1e-3), Watts(30e-6));
        }
        let r = c.report();
        assert!(r.conversion_loss.0 > 0.0);
        let eff = r.end_to_end_efficiency();
        assert!(eff > 0.0 && eff < 1.0, "eff {eff}");
        // Books balance: harvested = spilled + stored + delivered + loss
        // + (deficit is unmet demand, not energy).
        let stored = c.storage().stored_energy();
        let balance = r.spilled.0 + stored.0 + r.delivered.0 + r.conversion_loss.0;
        assert!(
            (r.harvested.0 - balance).abs() < r.harvested.0 * 1e-6,
            "harvested {} vs accounted {balance}",
            r.harvested
        );
    }

    #[test]
    fn draw_quantum_is_all_or_nothing() {
        let mut c = chain_100uw();
        // Empty reservoir: every draw refused, demand booked as deficit.
        assert!(!c.draw_quantum(Joules(1e-6), Seconds(1e-3)));
        assert!((c.report().deficit.0 - 1e-6).abs() < 1e-18);
        assert_eq!(c.report().delivered.0, 0.0);
        // Charge up, then a small quantum must be granted in full.
        for _ in 0..100 {
            c.tick(Seconds(1e-3), Watts(0.0));
        }
        let stored_before = c.storage().stored_energy();
        assert!(c.draw_quantum(Joules(1e-6), Seconds(1e-3)));
        assert!(c.report().delivered.0 >= 1e-6 * 0.99);
        // The withdrawal covers the delivery plus conversion loss.
        let spent = stored_before.0 - c.storage().stored_energy().0;
        assert!(spent > 1e-6, "withdrew {spent}");
        // A quantum bigger than the whole reservoir is refused and the
        // reservoir is left untouched (all-or-nothing).
        let stored = c.storage().stored_energy();
        let deficit_before = c.report().deficit;
        assert!(!c.draw_quantum(Joules(1.0), Seconds(1e-3)));
        assert_eq!(c.storage().stored_energy(), stored);
        assert!((c.report().deficit.0 - deficit_before.0 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn draw_quantum_zero_energy_quantum() {
        // On an empty reservoir a zero quantum is refused (the
        // converter's quiescent draw still needs banking) and books a
        // zero deficit — the report stays exactly as it was.
        let mut c = chain_100uw();
        assert!(!c.draw_quantum(Joules(0.0), Seconds(1e-3)));
        assert_eq!(c.report().deficit, Joules(0.0));
        assert_eq!(c.report().delivered, Joules(0.0));

        // Charged: the zero quantum is granted, delivers nothing, and
        // the reservoir pays only the quiescent slice (all of it booked
        // as conversion loss).
        for _ in 0..100 {
            c.tick(Seconds(1e-3), Watts(0.0));
        }
        let stored_before = c.storage().stored_energy();
        let loss_before = c.report().conversion_loss;
        assert!(c.draw_quantum(Joules(0.0), Seconds(1e-3)));
        assert_eq!(c.report().delivered, Joules(0.0));
        let spent = stored_before.0 - c.storage().stored_energy().0;
        let loss = c.report().conversion_loss.0 - loss_before.0;
        assert!(
            (spent - loss).abs() < 1e-18,
            "quiescent slice {spent} must all be conversion loss, got {loss}"
        );
    }

    #[test]
    fn draw_quantum_exceeding_capacity_refused_even_when_full() {
        let mut c = chain_100uw();
        // Charge until the reservoir caps out (harvest starts spilling).
        for _ in 0..10_000 {
            c.tick(Seconds(1e-3), Watts(0.0));
        }
        assert!(c.report().spilled.0 > 0.0, "reservoir should be full");
        let stored = c.storage().stored_energy();
        // A demand above everything the full reservoir holds can never
        // be granted, and the refusal must not touch the store.
        assert!(!c.draw_quantum(Joules(stored.0 * 1.01), Seconds(1e-3)));
        assert_eq!(c.storage().stored_energy(), stored);
    }

    #[test]
    fn repeated_refusals_accumulate_deficit() {
        let mut c = chain_100uw();
        let demand = Joules(3e-7);
        for i in 1..=5 {
            assert!(!c.draw_quantum(demand, Seconds(1e-3)));
            assert!(
                (c.report().deficit.0 - demand.0 * i as f64).abs() < 1e-18,
                "after {i} refusals deficit {} != {i}×{demand}",
                c.report().deficit
            );
        }
        assert_eq!(c.report().delivered, Joules(0.0));
        assert_eq!(c.storage().stored_energy(), Joules(0.0));
    }

    #[test]
    fn draw_quantum_ledger_invariant_under_random_interleaving() {
        use emc_prng::{Rng, StdRng};
        // Property: whatever order ticks, grants and refusals happen
        // in, the ledger balances — everything harvested is spilled,
        // still stored, delivered or lost in conversion; and the
        // deficit equals exactly the demand of the refused quanta.
        let mut c = chain_100uw();
        let mut rng = StdRng::seed_from_u64(0xD1CE);
        let mut refused = 0.0f64;
        for _ in 0..500 {
            if rng.gen_bool(0.5) {
                c.tick(Seconds(1e-3), Watts(0.0));
            } else {
                let demand = Joules(rng.gen_range(0.0..2e-6));
                if !c.draw_quantum(demand, Seconds(1e-3)) {
                    refused += demand.0;
                }
            }
        }
        let r = c.report();
        assert!(r.harvested.0 > 0.0 && r.delivered.0 > 0.0 && r.deficit.0 > 0.0);
        let accounted =
            r.spilled.0 + c.storage().stored_energy().0 + r.delivered.0 + r.conversion_loss.0;
        assert!(
            (r.harvested.0 - accounted).abs() < r.harvested.0 * 1e-9,
            "harvested {} vs accounted {accounted}",
            r.harvested
        );
        assert!(
            (r.deficit.0 - refused).abs() < 1e-15,
            "deficit {} vs refused demand {refused}",
            r.deficit
        );
    }

    #[test]
    fn draw_quantum_books_conversion_loss() {
        let mut c = chain_100uw();
        for _ in 0..100 {
            c.tick(Seconds(1e-3), Watts(0.0));
        }
        let loss_before = c.report().conversion_loss;
        assert!(c.draw_quantum(Joules(2e-6), Seconds(1e-3)));
        assert!(c.report().conversion_loss > loss_before);
    }

    #[test]
    fn report_efficiency_zero_when_nothing_harvested() {
        assert_eq!(ChainReport::default().end_to_end_efficiency(), 0.0);
    }

    #[test]
    fn telemetry_mirrors_the_report() {
        let mut c = chain_100uw();
        for _ in 0..50 {
            c.tick(Seconds(1e-3), Watts(0.0));
        }
        for _ in 0..50 {
            c.tick(Seconds(1e-3), Watts(30e-6));
        }
        let t = c.telemetry();
        let r = c.report();
        assert_eq!(
            t.energy.get("chain/harvested", EnergyKind::Harvested),
            Some(r.harvested.0)
        );
        assert_eq!(
            t.energy.get("chain/delivered", EnergyKind::Dissipated),
            Some(r.delivered.0)
        );
        assert_eq!(
            t.energy.get("chain/conversion", EnergyKind::Leaked),
            Some(r.conversion_loss.0)
        );
        assert_eq!(
            t.energy.get("chain/reservoir", EnergyKind::Stored),
            Some(c.storage().stored_energy().0)
        );
        assert_eq!(
            t.metrics.gauge_value("chain.efficiency"),
            Some(r.end_to_end_efficiency())
        );
        assert_eq!(
            t.metrics.gauge_value("chain.reservoir.voltage_v"),
            Some(c.storage().voltage().0)
        );
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn zero_dt_panics() {
        let mut c = chain_100uw();
        let _ = c.tick(Seconds(0.0), Watts(0.0));
    }
}
