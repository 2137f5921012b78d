//! Failure and corner analysis of the SRAM timing disciplines
//! (the analysis of \[8\] in the paper).

use emc_device::{DeviceModel, ProcessCorner};
use emc_units::Volts;

use crate::cell::CellKind;
use crate::timing::{Phase, SramTiming};

/// One row of the corner table.
#[derive(Debug, Clone, PartialEq)]
pub struct CornerRow {
    /// The process corner analysed.
    pub corner: ProcessCorner,
    /// Lowest Vdd at which a read still senses correctly.
    pub min_vdd: Volts,
    /// Read latency at 0.3 V (completion discipline), seconds.
    pub read_latency_0v3: f64,
}

/// Failure analysis over one SRAM configuration.
#[derive(Debug, Clone)]
pub struct FailureAnalysis {
    rows: usize,
    segments: usize,
    cell: CellKind,
    /// Fraction of the precharged level the bit line may droop through
    /// aggressor leakage before sensing becomes unreliable.
    droop_margin: f64,
}

impl FailureAnalysis {
    /// Analysis for an array of `rows` words with `segments` completion
    /// segments per column and the given cell flavour.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `segments` is zero, or `segments > rows`.
    pub fn new(rows: usize, segments: usize, cell: CellKind) -> Self {
        assert!(rows > 0 && segments > 0 && segments <= rows, "bad geometry");
        Self {
            rows,
            segments,
            cell,
            droop_margin: 0.2,
        }
    }

    /// The sensing-failure criterion at `vdd` for a given device: during
    /// the bit-line development time, the unaccessed cells' leakage
    /// droops the opposite bit line; sensing fails when the droop exceeds
    /// the margin. Returns the droop as a fraction of `vdd`.
    ///
    /// Droop = (I_leak_per_cell · cells_per_segment · t_bitline) / C_segment,
    /// with C_segment ∝ cells_per_segment, so the droop scales with the
    /// *total column length over segments* — the exact reason §III-A
    /// proposes segmenting the completion detection to push the low-Vdd
    /// limit into sub-threshold.
    pub(crate) fn relative_droop(&self, device: &DeviceModel, vdd: Volts) -> f64 {
        let timing = SramTiming::new(device.clone(), self.rows, self.segments, self.cell);
        let t_bl = timing.phase_latency(Phase::BitLine, vdd);
        if !t_bl.0.is_finite() {
            return f64::INFINITY;
        }
        let i_cell = device.leakage_current(vdd).0 * self.cell.leakage_factor();
        let cells_per_segment = self.rows as f64 / self.segments as f64;
        // Per-cell bit-line capacitance contribution (drain junction).
        let c_per_cell = device.params().drain_cap.0;
        let c_segment = c_per_cell * cells_per_segment;
        let droop_v = i_cell * cells_per_segment * t_bl.0 / c_segment;
        droop_v / vdd.0
    }

    /// `true` if a read senses reliably at `vdd`.
    pub(crate) fn read_ok(&self, device: &DeviceModel, vdd: Volts) -> bool {
        self.relative_droop(device, vdd) < self.droop_margin
    }

    /// Lowest operating voltage (10 mV resolution) at which reads sense
    /// reliably, searching down from 1 V. Returns `None` if the array
    /// fails even at 1 V.
    pub fn min_operating_voltage(&self, device: &DeviceModel) -> Option<Volts> {
        if !self.read_ok(device, Volts(1.0)) {
            return None;
        }
        let mut v = 1.0;
        while v > 0.10 {
            let next = v - 0.01;
            if !self.read_ok(device, Volts(next)) {
                return Some(Volts(v));
            }
            v = next;
        }
        Some(Volts(v))
    }

    /// The corner table: minimum operating voltage and 0.3 V read latency
    /// across the five corners.
    pub fn corner_table(&self, base: &DeviceModel) -> Vec<CornerRow> {
        ProcessCorner::ALL
            .iter()
            .map(|&corner| {
                let device = DeviceModel::new(base.params().at_corner(corner));
                let min_vdd = self
                    .min_operating_voltage(&device)
                    .unwrap_or(Volts(f64::NAN));
                let timing = SramTiming::new(device, self.rows, self.segments, self.cell);
                CornerRow {
                    corner,
                    min_vdd,
                    read_latency_0v3: timing.read_latency(Volts(0.3), 2).0,
                }
            })
            .collect()
    }

    /// Voltage below which a **bundled** (delay-line) design with the
    /// given margin, sized at `design_vdd`, mistimes the bit-line phase:
    /// the delay line tracks inverters while the bit line follows the
    /// Fig. 5 mismatch, so the line is too short once
    /// `ratio(v) > margin · ratio(design_vdd)`.
    ///
    /// Returns `None` if the margin holds everywhere above 0.11 V.
    pub fn bundled_failure_voltage(
        &self,
        device: &DeviceModel,
        design_vdd: Volts,
        margin: f64,
    ) -> Option<Volts> {
        assert!(margin >= 1.0, "a bundled design needs margin >= 1");
        let timing = SramTiming::new(device.clone(), self.rows, self.segments, self.cell);
        let budget = margin * timing.phase_inverter_units(Phase::BitLine, design_vdd);
        let mut v = design_vdd.0;
        while v > 0.11 {
            if timing.phase_inverter_units(Phase::BitLine, Volts(v)) > budget {
                return Some(Volts(v));
            }
            v -= 0.005;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fa() -> FailureAnalysis {
        FailureAnalysis::new(64, 1, CellKind::SixT)
    }

    #[test]
    fn droop_grows_as_vdd_falls() {
        let d = DeviceModel::umc90();
        let a = fa().relative_droop(&d, Volts(1.0));
        let b = fa().relative_droop(&d, Volts(0.25));
        assert!(b > a, "droop at 0.25 V ({b}) vs 1 V ({a})");
    }

    #[test]
    fn min_operating_voltage_in_plausible_band() {
        let d = DeviceModel::umc90();
        let v = fa().min_operating_voltage(&d).expect("works at 1 V");
        // The paper's SI SRAM operates to ≈0.2 V with margin to spare.
        assert!((0.11..0.35).contains(&v.0), "min Vdd = {v}");
    }

    #[test]
    fn segmentation_pushes_min_vdd_down() {
        let d = DeviceModel::umc90();
        let full = fa().min_operating_voltage(&d).unwrap();
        let seg8 = FailureAnalysis::new(64, 8, CellKind::SixT)
            .min_operating_voltage(&d)
            .unwrap();
        assert!(
            seg8 < full,
            "8-way segmentation ({seg8}) must beat full column ({full})"
        );
    }

    #[test]
    fn eight_t_cells_leak_less_and_go_lower() {
        let d = DeviceModel::umc90();
        let v6 = fa().min_operating_voltage(&d).unwrap();
        let v8 = FailureAnalysis::new(64, 1, CellKind::EightT)
            .min_operating_voltage(&d)
            .unwrap();
        assert!(v8 <= v6, "8T ({v8}) should not be worse than 6T ({v6})");
    }

    #[test]
    fn corner_table_covers_all_corners() {
        let d = DeviceModel::umc90();
        let table = fa().corner_table(&d);
        assert_eq!(table.len(), 5);
        // Slow-slow is the worst corner for minimum voltage.
        let tt = table
            .iter()
            .find(|r| r.corner == ProcessCorner::Typical)
            .unwrap();
        let ss = table
            .iter()
            .find(|r| r.corner == ProcessCorner::SlowSlow)
            .unwrap();
        assert!(ss.read_latency_0v3 > tt.read_latency_0v3);
    }

    #[test]
    fn bundled_design_fails_at_low_voltage() {
        let d = DeviceModel::umc90();
        let v_fail = fa()
            .bundled_failure_voltage(&d, Volts(1.0), 2.0)
            .expect("a 2x margin cannot cover the 3.16x Fig. 5 growth");
        // The mismatch curve is steep around threshold: a 2× margin dies
        // in the 0.3 – 0.5 V region, well above the 0.2 V the paper's SI
        // design reaches.
        assert!(
            (0.25..0.55).contains(&v_fail.0),
            "bundled failure at {v_fail}"
        );
        // A big enough margin covers the whole range.
        assert!(fa().bundled_failure_voltage(&d, Volts(1.0), 4.0).is_none());
    }

    #[test]
    fn bundled_failure_voltage_monotone_in_margin() {
        let d = DeviceModel::umc90();
        let m15 = fa().bundled_failure_voltage(&d, Volts(1.0), 1.5).unwrap();
        let m25 = fa().bundled_failure_voltage(&d, Volts(1.0), 2.5).unwrap();
        assert!(m15 > m25, "more margin must fail lower: {m15} vs {m25}");
    }

    #[test]
    #[should_panic(expected = "margin >= 1")]
    fn sub_unity_margin_panics() {
        let d = DeviceModel::umc90();
        let _ = fa().bundled_failure_voltage(&d, Volts(1.0), 0.5);
    }
}
