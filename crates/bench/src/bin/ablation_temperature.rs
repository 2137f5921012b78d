//! S7 — temperature behaviour of the sub-threshold stack: gate speed,
//! the SRAM minimum-energy point, and the reference-free sensor's
//! thermal drift (its honest remaining dependence).

use emc_bench::{outln, Series};
use emc_device::{DeviceModel, ProcessParams};
use emc_sensors::ReferenceFreeSensor;
use emc_sram::energy::Op;
use emc_sram::{EnergyCalibration, SramTiming};
use emc_units::{Kelvin, Volts};

fn main() {
    let mut s = Series::new(
        "ablation_temperature",
        "temperature sweep: sub-threshold speed, SRAM MEP, sensor drift",
        &["temp_K", "inv_delay_0v3_ns", "mep_mV", "sensor_drift_mV"],
    );
    // The sensor is calibrated once, at room temperature.
    let sensor = ReferenceFreeSensor::new(8);
    for t in [260.0, 280.0, 300.0, 320.0, 340.0, 360.0] {
        let params = ProcessParams::umc90().at_temperature(Kelvin(t));
        let device = DeviceModel::new(params);
        let inv = device.inverter_delay(Volts(0.3));
        let timing = SramTiming::new(device.clone(), 64, 1, emc_sram::CellKind::SixT);
        // Re-solve the energy anchors for this die temperature and find
        // its minimum-energy point.
        let mep = EnergyCalibration::solve(&timing, 2)
            .map(|cal| {
                cal.minimum_energy_point(&timing, Op::Write, Volts(0.15), Volts(1.0), 300)
                    .0
                     .0
                    * 1e3
            })
            .unwrap_or(f64::NAN);
        let drift = sensor.worst_case_error_at(device).0 * 1e3;
        s.push(vec![t, inv.0 * 1e9, mep, drift]);
    }
    s.emit();
    outln!("Shape check: heat makes sub-threshold logic *faster* (Vt drops,");
    outln!("φt rises), shifts the SRAM minimum-energy point, and drifts the");
    outln!("room-temperature-calibrated reference-free sensor well past its");
    outln!("10 mV spec — temperature is the one reference the sensor still");
    outln!("implicitly carries.");
}
