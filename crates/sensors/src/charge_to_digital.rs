//! The asynchronous charge-to-digital converter (paper Figs. 9–11, \[9\]).

use emc_async::{SelfTimedOscillator, ToggleRippleCounter};
use emc_device::DeviceModel;
use emc_netlist::Netlist;
use emc_obs::Telemetry;
use emc_sim::{Simulator, SupplyKind};
use emc_units::{Coulombs, Farads, Joules, Seconds, Volts};

/// Result of one conversion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConversionResult {
    /// The conversion code: the number of count events registered by the
    /// LSB toggle. (The ripple register itself can strand mid-carry when
    /// the rail stalls, so the LSB event count is the robust readout —
    /// the same quantity the paper's "number of transitions and, hence,
    /// counts performed by the counter" refers to.)
    pub code: u64,
    /// The raw ripple-register contents at stall (may lag `code` by a
    /// partially propagated carry).
    pub(crate) register: u64,
    /// Total gate transitions fired — the "amount of computation" the
    /// charge quantum bought.
    pub transitions: u64,
    /// Wall-clock duration until the rail stalled.
    pub duration: Seconds,
    /// Energy drawn from the sampling capacitor (switching + leakage).
    pub energy: Joules,
    /// Residual rail voltage when the counter stalled.
    pub v_residual: Volts,
    /// Charge consumed from the sampling capacitor.
    pub charge_used: Coulombs,
}

/// The converter: a self-timed oscillator + toggle ripple counter
/// powered from the sampling capacitor.
///
/// Conversion is a gate-level simulation: every transition drains
/// `C·V²` from the capacitor domain, the oscillator slows as the rail
/// sags (frequency modulation), and counting stops when the rail falls
/// below the device operating floor. The proportionality between sampled
/// charge and final code is an *outcome* of the simulation, not an
/// assumption.
#[derive(Debug, Clone)]
pub struct ChargeToDigitalConverter {
    c_sample: Farads,
    bits: usize,
    device: DeviceModel,
}

impl ChargeToDigitalConverter {
    /// A converter with the given sampling capacitor and counter width,
    /// on the default UMC 90 nm device model.
    ///
    /// # Panics
    ///
    /// Panics if the capacitance is not strictly positive or
    /// `bits` is not in `1..=63`.
    pub fn new(c_sample: Farads, bits: usize) -> Self {
        assert!(c_sample.0 > 0.0, "sampling capacitance must be positive");
        assert!((1..=63).contains(&bits), "counter width must be in 1..=63");
        Self {
            c_sample,
            bits,
            device: DeviceModel::umc90(),
        }
    }

    /// The sampling capacitance.
    pub fn c_sample(&self) -> Farads {
        self.c_sample
    }

    /// Counter width in bits.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Samples `vin` onto the capacitor and converts it to a code.
    ///
    /// # Panics
    ///
    /// Panics if `vin` is negative.
    pub fn convert(&self, vin: Volts) -> ConversionResult {
        self.run_conversion(vin, false).0
    }

    /// [`Self::convert`], also returning the conversion's telemetry:
    /// the internal simulator's bundle (event counts, `domain/cs`
    /// energy split) plus sensor-level metrics — conversion count, the
    /// code, charge-per-count — and a sim-time `conversion` span. The
    /// [`ConversionResult`] is identical to an unobserved conversion.
    pub fn convert_instrumented(&self, vin: Volts) -> (ConversionResult, Telemetry) {
        let (result, t) = self.run_conversion(vin, true);
        let mut t = t.expect("telemetry requested");
        let c = t.metrics.counter("sensor.conversions");
        t.metrics.inc(c, 1);
        let g = t.metrics.gauge("sensor.code");
        t.metrics.set_gauge(g, result.code as f64);
        if result.code > 0 {
            let g = t.metrics.gauge("sensor.charge_per_count_c");
            t.metrics
                .set_gauge(g, result.charge_used.0 / result.code as f64);
        }
        t.spans
            .record("conversion", "sensor", 0, 0.0, result.duration.0);
        (result, t)
    }

    fn run_conversion(&self, vin: Volts, observe: bool) -> (ConversionResult, Option<Telemetry>) {
        assert!(vin.0 >= 0.0, "negative sample voltage");
        let mut nl = Netlist::new();
        let osc = SelfTimedOscillator::build(&mut nl, "osc");
        let counter = ToggleRippleCounter::build(&mut nl, self.bits, osc.output(), "cnt");
        let mut sim = Simulator::new(nl, self.device.clone());
        let cap = sim.add_domain("cs", SupplyKind::capacitor(self.c_sample, vin));
        sim.assign_all(cap);
        osc.prime(&mut sim);
        if observe {
            sim.enable_obs();
        }
        sim.start();
        // Run until the rail stalls (queue drains) — bounded generously.
        sim.run_to_quiescence(50_000_000);
        let q0 = self.c_sample * vin;
        let result = ConversionResult {
            code: sim.transition_count(counter.toggles()[0]),
            register: counter.read(&sim),
            transitions: sim.total_transitions(),
            duration: sim.now(),
            energy: sim.energy_drawn(cap),
            v_residual: sim.domain_voltage(cap),
            charge_used: q0 - sim.domain(cap).charge(),
        };
        let telemetry = observe.then(|| sim.telemetry());
        (result, telemetry)
    }

    /// Sweeps `convert` over `n` input voltages in `[v_lo, v_hi]` — the
    /// data series of the paper's Fig. 11.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or the interval is inverted.
    pub fn code_curve(&self, v_lo: Volts, v_hi: Volts, n: usize) -> Vec<(Volts, ConversionResult)> {
        assert!(n >= 2 && v_hi > v_lo, "bad sweep");
        (0..n)
            .map(|i| {
                let v = Volts(v_lo.0 + (v_hi.0 - v_lo.0) * i as f64 / (n - 1) as f64);
                (v, self.convert(v))
            })
            .collect()
    }

    /// Builds a calibration table and returns a voltage estimator: given
    /// a code, the estimator returns the table voltage whose code is
    /// nearest — the "core of an ultra-energy-efficient ADC".
    pub fn calibrate(&self, v_lo: Volts, v_hi: Volts, n: usize) -> impl Fn(u64) -> Volts {
        let table: Vec<(u64, f64)> = self
            .code_curve(v_lo, v_hi, n)
            .into_iter()
            .map(|(v, r)| (r.code, v.0))
            .collect();
        move |code: u64| {
            let best = table
                .iter()
                .min_by_key(|(c, _)| c.abs_diff(code))
                .expect("non-empty calibration table");
            Volts(best.1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cdc() -> ChargeToDigitalConverter {
        ChargeToDigitalConverter::new(Farads(2e-12), 12)
    }

    #[test]
    fn code_monotone_in_vin() {
        let curve = cdc().code_curve(Volts(0.4), Volts(1.0), 7);
        for w in curve.windows(2) {
            assert!(
                w[1].1.code >= w[0].1.code,
                "code not monotone: {} -> {}",
                w[0].1.code,
                w[1].1.code
            );
        }
        // And strictly more over the whole range.
        assert!(curve.last().unwrap().1.code > curve[0].1.code + 10);
    }

    #[test]
    fn zero_input_yields_zero_code() {
        let r = cdc().convert(Volts(0.05)); // below the operating floor
        assert_eq!(r.code, 0);
        assert_eq!(r.register, 0);
        // Only the environment's enable edge fires; no gate computes.
        assert!(r.transitions <= 1);
    }

    #[test]
    fn conversion_is_deterministic() {
        let a = cdc().convert(Volts(0.8));
        let b = cdc().convert(Volts(0.8));
        assert_eq!(a, b);
    }

    #[test]
    fn energy_books_balance_against_capacitor() {
        // Energy drawn from the domain must equal the capacitor's stored
        // energy loss: E0 − E_res = drawn (the simulator's charge
        // bookkeeping removes Q = C·V per event at the prevailing V, so
        // allow the V²-vs-½V² accounting difference of up to 2×).
        let c = Farads(2e-12);
        let r = ChargeToDigitalConverter::new(c, 12).convert(Volts(1.0));
        let e0 = c.stored_energy(Volts(1.0));
        let e_res = c.stored_energy(r.v_residual);
        let lost = e0.0 - e_res.0;
        assert!(lost > 0.0);
        assert!(
            r.energy.0 > 0.4 * lost && r.energy.0 < 2.5 * lost,
            "drawn {} vs stored loss {lost}",
            r.energy
        );
    }

    #[test]
    fn counter_runs_down_to_the_operating_floor() {
        let r = cdc().convert(Volts(0.9));
        assert!(
            r.v_residual.0 < 0.2,
            "rail should sag to the floor, stopped at {}",
            r.v_residual
        );
    }

    #[test]
    fn code_follows_log_law_of_capacitor_discharge() {
        // Each rising edge drains dQ = C_load·V: codes grow as
        // ln(V0/V_stop). Check the ratio of codes at two inputs against
        // the log model with the measured stop voltages.
        let conv = cdc();
        let a = conv.convert(Volts(0.6));
        let b = conv.convert(Volts(1.0));
        let model =
            (1.0_f64 / b.v_residual.0.max(0.12)).ln() / (0.6_f64 / a.v_residual.0.max(0.12)).ln();
        let measured = b.code as f64 / a.code as f64;
        assert!(
            (measured / model - 1.0).abs() < 0.35,
            "measured ratio {measured}, log model {model}"
        );
    }

    #[test]
    fn bigger_capacitor_buys_proportionally_more_counts() {
        let small = ChargeToDigitalConverter::new(Farads(1e-12), 12).convert(Volts(0.8));
        let big = ChargeToDigitalConverter::new(Farads(4e-12), 12).convert(Volts(0.8));
        let ratio = big.code as f64 / small.code as f64;
        assert!(
            (3.0..5.0).contains(&ratio),
            "4× capacitor should buy ≈4× counts, got {ratio}"
        );
    }

    #[test]
    fn transitions_exceed_code_by_the_ripple_factor() {
        // Every LSB increment costs oscillator + carry transitions: the
        // total transition count must exceed the code but stay within a
        // small multiple (strictly sequential firing, no hazards).
        let r = cdc().convert(Volts(0.8));
        assert!(r.transitions > r.code);
        // The register tracks the LSB event count up to a stranded carry.
        assert!(r.register <= r.code);
        assert!(
            r.transitions < r.code * 30,
            "transitions {} for code {}",
            r.transitions,
            r.code
        );
    }

    #[test]
    fn calibration_inverts_codes() {
        let conv = ChargeToDigitalConverter::new(Farads(2e-12), 12);
        let estimate = conv.calibrate(Volts(0.4), Volts(1.0), 25);
        for &v in &[0.5, 0.7, 0.9] {
            let code = conv.convert(Volts(v)).code;
            let est = estimate(code);
            assert!((est.0 - v).abs() < 0.030, "estimated {est} for true {v} V");
        }
    }

    #[test]
    fn charge_used_is_positive_and_bounded() {
        let c = Farads(2e-12);
        let r = ChargeToDigitalConverter::new(c, 12).convert(Volts(0.8));
        assert!(r.charge_used.0 > 0.0);
        assert!(r.charge_used.0 <= (c * Volts(0.8)).0 * (1.0 + 1e-9));
    }

    #[test]
    #[should_panic(expected = "width must be")]
    fn zero_bits_panics() {
        let _ = ChargeToDigitalConverter::new(Farads(1e-12), 0);
    }

    #[test]
    fn instrumented_conversion_matches_plain_and_books_telemetry() {
        use emc_obs::EnergyKind;
        let conv = cdc();
        let plain = conv.convert(Volts(0.8));
        let (observed, t) = conv.convert_instrumented(Volts(0.8));
        assert_eq!(observed, plain, "observation must not perturb the result");
        assert_eq!(t.metrics.counter_value("sensor.conversions"), Some(1));
        assert_eq!(
            t.metrics.gauge_value("sensor.code"),
            Some(observed.code as f64)
        );
        let cpc = t
            .metrics
            .gauge_value("sensor.charge_per_count_c")
            .expect("nonzero code books charge per count");
        assert!((cpc - observed.charge_used.0 / observed.code as f64).abs() < 1e-30);
        // The internal simulator contributes the capacitor-domain ledger.
        let drained = t
            .energy
            .get("domain/cs", EnergyKind::Dissipated)
            .expect("domain/cs dissipation entry");
        assert!(drained > 0.0);
        // One sim-time span covering the whole conversion.
        let span = t
            .spans
            .spans()
            .iter()
            .find(|s| s.name == "conversion")
            .expect("conversion span");
        assert!((span.end - observed.duration.0).abs() < 1e-18);
    }
}
