//! Fig. 12 — reference-free voltage measurement: the SRAM-vs-ruler race
//! transfer curve, 200 mV – 1 V operating range, ≤ 10 mV accuracy.

use emc_bench::{outln, Series};
use emc_sensors::{ReferenceFreeSensor, RingOscillatorSensor};
use emc_units::{Seconds, Volts};

fn main() {
    let sensor = ReferenceFreeSensor::new(8);
    let mut s = Series::new(
        "fig12",
        "reference-free sensor: thermometer code and decode error vs Vdd",
        &["vdd_V", "code", "decoded_V", "error_mV"],
    );
    for (v, code) in sensor.transfer_curve(33) {
        let decoded = sensor.decode(code);
        s.push(vec![
            v.0,
            code as f64,
            decoded.0,
            (decoded.0 - v.0).abs() * 1e3,
        ]);
    }
    s.emit();

    outln!(
        "worst-case error over 0.2-1.0 V: {:.1} mV (paper claims 10 mV)",
        sensor.worst_case_error().0 * 1e3
    );
    outln!("ruler length required: {} stages", sensor.ruler_length());

    // Contrast: the conventional ring-oscillator sensor degrades with
    // its time reference; the race sensor has no reference to degrade.
    let ring = RingOscillatorSensor::new(31, Seconds(1e-6));
    outln!();
    outln!("ring-oscillator baseline at 0.5 V under reference-clock error:");
    for rel in [0.0, 0.02, 0.05, 0.10] {
        outln!(
            "  {:>4.0} % clock error -> {:>5.1} mV voltage error",
            rel * 100.0,
            ring.error_with_reference(Volts(0.5), rel).0 * 1e3
        );
    }
    outln!();
    outln!("Shape check: monotone digital transfer curve over the full");
    outln!("0.2-1 V range with ≤10 mV inversion error and no analog");
    outln!("references — the claims of §III-C.");
}
