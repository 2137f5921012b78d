//! S6 — body-bias leakage control (the low-level adaptation knob of
//! §II-B): reverse bias in idle, forward bias for sprints.

use emc_bench::{outln, Series};
use emc_device::{DeviceModel, ProcessParams};
use emc_sram::{CellKind, Sram, SramConfig};
use emc_units::Volts;

fn main() {
    let mut s = Series::new(
        "ablation_body_bias",
        "delay / leakage trade-off vs body bias at 0.4 V",
        &[
            "bias_mV",
            "inverter_delay_ns",
            "leakage_nA",
            "sram_retention_uW_0v4",
        ],
    );
    for bias_mv in [-400.0_f64, -200.0, 0.0, 200.0, 400.0] {
        let params = ProcessParams::umc90().at_body_bias(Volts(bias_mv / 1e3));
        let device = DeviceModel::new(params);
        let sram = Sram::new(SramConfig {
            device: device.clone(),
            ..SramConfig::paper_1kbit()
        });
        let retention = sram.energy_model().retention_power(
            sram.timing(),
            Volts(0.4),
            CellKind::SixT.leakage_factor(),
        );
        s.push(vec![
            bias_mv,
            device.inverter_delay(Volts(0.4)).0 * 1e9,
            device.leakage_current(Volts(0.4)).0 * 1e9,
            retention.0 * 1e6,
        ]);
    }
    s.emit();
    outln!("Shape check: reverse bias (negative) slows sub-threshold gates");
    outln!("but cuts leakage near-exponentially — the idle-mode knob; forward");
    outln!("bias buys speed at a leakage premium — the sprint knob. Together");
    outln!("with Vdd adaptation this spans the paper's low-level adaptation");
    outln!("space (\"leakage control mechanisms such as body biasing\").");
}
