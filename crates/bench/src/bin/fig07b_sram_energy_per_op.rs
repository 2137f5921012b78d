//! In-text numbers of §III-A — energy per access across Vdd: 5.8 pJ per
//! 16-bit write at 1 V, 1.9 pJ at 0.4 V, minimum energy point at 0.4 V.

use emc_bench::{outln, Series};
use emc_sram::energy::Op;
use emc_sram::{Sram, SramConfig, TimingDiscipline};
use emc_units::Volts;

fn main() {
    let mut sram = Sram::new(SramConfig::paper_1kbit());
    let mut s = Series::new(
        "fig07b",
        "energy per access vs Vdd (completion discipline)",
        &["vdd_V", "write_pJ", "read_pJ", "write_latency_ns"],
    );
    let mut v = 0.20;
    while v <= 1.0 + 1e-9 {
        let w = sram.write_at(Volts(v), 0, 0xFFFF, TimingDiscipline::Completion);
        let r = sram.read_at(Volts(v), 0, TimingDiscipline::Completion);
        s.push(vec![
            v,
            w.energy.0 * 1e12,
            r.energy.0 * 1e12,
            w.latency.0 * 1e9,
        ]);
        v += 0.05;
    }
    s.emit();

    let (mep, e_min) = sram.energy_model().minimum_energy_point(
        sram.timing(),
        Op::Write,
        Volts(0.15),
        Volts(1.0),
        400,
    );
    outln!(
        "anchors: E_write(1.0 V) = {:.2} pJ (paper: 5.8), E_write(0.4 V) = {:.2} pJ (paper: 1.9)",
        sram.write_at(Volts(1.0), 0, 1, TimingDiscipline::Completion)
            .energy
            .0
            * 1e12,
        sram.write_at(Volts(0.4), 0, 1, TimingDiscipline::Completion)
            .energy
            .0
            * 1e12,
    );
    outln!(
        "minimum energy point: {:.0} mV at {:.2} pJ (paper: 400 mV)",
        mep.0 * 1e3,
        e_min.0 * 1e12
    );
    outln!();
    outln!("Shape check: quadratic dynamic energy above the MEP, a leakage-");
    outln!("driven blow-up below it — the canonical sub-threshold energy bowl.");
}
