//! S5 — the §III-A design extensions: segmented completion detection
//! (pushing the low-Vdd limit into sub-threshold) and 8T cells (cutting
//! leakage), plus the corner table of \[8\].

use emc_bench::{outln, Series};
use emc_device::DeviceModel;
use emc_sram::energy::Op;
use emc_sram::{CellKind, FailureAnalysis, Sram, SramConfig};
use emc_units::Volts;

fn main() {
    let device = DeviceModel::umc90();

    // Segmentation sweep.
    let mut seg = Series::new(
        "ablation_segments",
        "completion-detection segmentation: minimum operating voltage",
        &["segments", "min_vdd_mV", "read_units_at_0v3"],
    );
    for segments in [1usize, 2, 4, 8, 16] {
        let fa = FailureAnalysis::new(64, segments, CellKind::SixT);
        let min_v = fa
            .min_operating_voltage(&device)
            .map_or(f64::NAN, |v| v.0 * 1e3);
        let sram = Sram::new(SramConfig {
            segments,
            ..SramConfig::paper_1kbit()
        });
        let units = sram
            .timing()
            .phase_inverter_units(emc_sram::Phase::BitLine, Volts(0.3));
        seg.push(vec![segments as f64, min_v, units]);
    }
    seg.emit();

    // Cell flavour comparison.
    let mut cells = Series::new(
        "ablation_cells",
        "6T vs 8T cells: leakage, area, minimum voltage",
        &[
            "cell_is_8t",
            "retention_uW_at_0v5",
            "area_factor",
            "min_vdd_mV",
        ],
    );
    for cell in [CellKind::SixT, CellKind::EightT] {
        let sram = Sram::new(SramConfig {
            cell,
            ..SramConfig::paper_1kbit()
        });
        let p =
            sram.energy_model()
                .retention_power(sram.timing(), Volts(0.5), cell.leakage_factor());
        let fa = FailureAnalysis::new(64, 1, cell);
        let min_v = fa
            .min_operating_voltage(&device)
            .map_or(f64::NAN, |v| v.0 * 1e3);
        cells.push(vec![
            matches!(cell, CellKind::EightT) as u8 as f64,
            p.0 * 1e6,
            cell.area_factor(),
            min_v,
        ]);
        let _ = sram
            .energy_model()
            .access_energy(sram.timing(), Op::Read, Volts(0.5));
    }
    cells.emit();

    // Corner table.
    let fa = FailureAnalysis::new(64, 1, CellKind::SixT);
    let mut corners = Series::new(
        "ablation_corners",
        "process corners: min Vdd and 0.3 V read latency",
        &["corner_index", "min_vdd_mV", "read_latency_0v3_ns"],
    );
    outln!("corner legend:");
    for (i, row) in fa.corner_table(&device).iter().enumerate() {
        outln!(
            "  {} = {} (min Vdd {:.0} mV, read @0.3 V {:.0} ns)",
            i,
            row.corner,
            row.min_vdd.0 * 1e3,
            row.read_latency_0v3 * 1e9
        );
        corners.push(vec![
            i as f64,
            row.min_vdd.0 * 1e3,
            row.read_latency_0v3 * 1e9,
        ]);
    }
    corners.emit();

    outln!("Shape check: segmentation lowers the usable voltage floor (the");
    outln!("§III-A suggestion of 8-bit completion segments); 8T cells cut");
    outln!("retention power ~2.5x for 1.4x area; the slow-slow corner is the");
    outln!("limiting one, as in the failure analysis of [8].");
}
