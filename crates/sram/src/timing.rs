//! Phase-level timing of an SRAM access, derived from the calibrated
//! device model.
//!
//! The SRAM is modelled at the granularity the paper's Fig. 6 draws: the
//! handshake phases of the controller (precharge, word line, bit-line
//! transient, sense / write drive, completion detection). Every phase
//! latency is expressed in *inverter delays at the prevailing Vdd* — the
//! logic phases with constant factors, the bit-line phase through the
//! calibrated Fig. 5 mismatch curve, which is exactly why a delay line
//! that matches at 1 V is 3× too short at 190 mV.

use emc_device::{DeviceModel, SramLogicCalibration};
use emc_units::{Seconds, Volts};

use crate::cell::CellKind;

/// One phase of an SRAM access (the paper's Fig. 6 handshakes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Pre-charging the bit lines high.
    Precharge,
    /// Address decode and word-line assertion.
    WordLine,
    /// Bit-line differential development through the cell (the phase
    /// that scales like an SRAM, not like logic — Fig. 5).
    BitLine,
    /// Sense amplification / read buffering.
    Sense,
    /// Write drivers forcing the bit lines full swing.
    WriteDrive,
    /// Completion-detection network settling (speed-independent
    /// disciplines only).
    Completion,
}

impl Phase {
    /// The phases of a read, in order.
    pub const READ: [Phase; 4] = [
        Phase::Precharge,
        Phase::WordLine,
        Phase::BitLine,
        Phase::Sense,
    ];

    /// The phases of a write *with read-before-write* (the paper's
    /// completion trick): a full read first, then the drive, then the
    /// equality check (folded into `WriteDrive` + `Completion`).
    pub const WRITE: [Phase; 5] = [
        Phase::Precharge,
        Phase::WordLine,
        Phase::BitLine,
        Phase::Sense,
        Phase::WriteDrive,
    ];
}

/// Timing model for one SRAM macro.
#[derive(Debug, Clone)]
pub struct SramTiming {
    device: DeviceModel,
    cal: SramLogicCalibration,
    rows: usize,
    segments: usize,
    cell: CellKind,
}

impl SramTiming {
    /// Builds the timing model.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `segments` is zero, or `segments > rows`.
    pub fn new(device: DeviceModel, rows: usize, segments: usize, cell: CellKind) -> Self {
        assert!(rows > 0, "rows must be positive");
        assert!(
            segments > 0 && segments <= rows,
            "segments must be in 1..=rows"
        );
        let cal = SramLogicCalibration::solve(device.clone());
        Self {
            device,
            cal,
            rows,
            segments,
            cell,
        }
    }

    /// The underlying device model.
    pub fn device(&self) -> &DeviceModel {
        &self.device
    }

    /// The Fig. 5 mismatch calibration in use.
    pub fn calibration(&self) -> &SramLogicCalibration {
        &self.cal
    }

    /// Rows (words) in the array.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Latency of one phase at a constant supply `vdd`, in seconds
    /// (infinite below the device floor).
    pub fn phase_latency(&self, phase: Phase, vdd: Volts) -> Seconds {
        let inv = self.device.inverter_delay(vdd);
        if inv.0.is_infinite() {
            return inv;
        }
        let in_inverters = self.phase_inverter_units(phase, vdd);
        Seconds(inv.0 * in_inverters)
    }

    /// Latency of one phase expressed in inverter delays at `vdd` — the
    /// unit of the paper's Fig. 5.
    pub fn phase_inverter_units(&self, phase: Phase, vdd: Volts) -> f64 {
        match phase {
            Phase::Precharge => 6.0,
            // Decode depth grows with log2(rows); plus word-line RC.
            Phase::WordLine => 2.0 * (self.rows as f64).log2() + 4.0,
            Phase::BitLine => {
                // The calibrated mismatch curve, divided by segmentation
                // (shorter bit-line per completion segment), plus the 8T
                // read-port elevation where applicable.
                let extra = self.cell.extra_read_vt();
                let base = if extra.0 == 0.0 {
                    self.cal.delay_ratio(vdd)
                } else {
                    // Re-evaluate the current ratio with the elevated
                    // read-stack threshold.
                    let logic = self.device.on_current(vdd).0;
                    let vt = Volts(self.cal.sram_vt().0 + extra.0);
                    let sram = self.device.on_current_with_vt(vdd, vt).0;
                    self.cal.cap_scale() * logic / sram
                };
                base / self.segments as f64
            }
            Phase::Sense => 4.0,
            // Full-swing write drive: strong drivers, half a development
            // time plus driver logic.
            Phase::WriteDrive => 10.0 + 0.5 * self.phase_inverter_units(Phase::BitLine, vdd),
            // C-element tree over the word plus the equality check.
            Phase::Completion => 8.0,
        }
    }

    /// Total read latency at constant `vdd` for the given discipline
    /// overhead (`completion_phases` = number of phases that are
    /// completion-detected and add a [`Phase::Completion`] settle).
    pub(crate) fn read_latency(&self, vdd: Volts, completion_phases: usize) -> Seconds {
        let mut t = 0.0;
        for p in Phase::READ {
            t += self.phase_latency(p, vdd).0;
        }
        t += completion_phases as f64 * self.phase_latency(Phase::Completion, vdd).0;
        Seconds(t)
    }

    /// Total write latency (read-before-write) at constant `vdd`.
    pub(crate) fn write_latency(&self, vdd: Volts, completion_phases: usize) -> Seconds {
        let mut t = 0.0;
        for p in Phase::WRITE {
            t += self.phase_latency(p, vdd).0;
        }
        t += completion_phases as f64 * self.phase_latency(Phase::Completion, vdd).0;
        Seconds(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> SramTiming {
        SramTiming::new(DeviceModel::umc90(), 64, 1, CellKind::SixT)
    }

    #[test]
    fn bitline_phase_reproduces_fig5_anchors() {
        let t = timing();
        let at_1v = t.phase_inverter_units(Phase::BitLine, Volts(1.0));
        let at_190mv = t.phase_inverter_units(Phase::BitLine, Volts(0.19));
        assert!((at_1v - 50.0).abs() < 0.5, "1 V: {at_1v} inverters");
        assert!(
            (at_190mv - 158.0).abs() < 2.0,
            "190 mV: {at_190mv} inverters"
        );
    }

    #[test]
    fn logic_phases_are_constant_in_inverter_units() {
        let t = timing();
        for p in [
            Phase::Precharge,
            Phase::WordLine,
            Phase::Sense,
            Phase::Completion,
        ] {
            let a = t.phase_inverter_units(p, Volts(1.0));
            let b = t.phase_inverter_units(p, Volts(0.2));
            assert_eq!(a, b, "{p:?} should scale exactly like an inverter");
        }
    }

    #[test]
    fn segmentation_divides_bitline_units() {
        let seg4 = SramTiming::new(DeviceModel::umc90(), 64, 4, CellKind::SixT);
        let base = timing();
        let full = base.phase_inverter_units(Phase::BitLine, Volts(0.3));
        let quarter = seg4.phase_inverter_units(Phase::BitLine, Volts(0.3));
        assert!((full / quarter - 4.0).abs() < 1e-9);
    }

    #[test]
    fn eight_t_read_is_slightly_slower() {
        let t6 = timing();
        let t8 = SramTiming::new(DeviceModel::umc90(), 64, 1, CellKind::EightT);
        let v = Volts(0.3);
        assert!(
            t8.phase_inverter_units(Phase::BitLine, v) > t6.phase_inverter_units(Phase::BitLine, v)
        );
    }

    #[test]
    fn read_latency_about_1ns_at_nominal() {
        let t = timing();
        let lat = t.read_latency(Volts(1.0), 0);
        assert!(lat.0 > 0.5e-9 && lat.0 < 3e-9, "read latency {lat}");
    }

    #[test]
    fn write_slower_than_read() {
        let t = timing();
        for v in [0.25, 0.4, 1.0] {
            assert!(t.write_latency(Volts(v), 2) > t.read_latency(Volts(v), 2));
        }
    }

    #[test]
    fn completion_phases_add_latency() {
        let t = timing();
        assert!(t.read_latency(Volts(0.5), 3) > t.read_latency(Volts(0.5), 0));
    }

    #[test]
    fn latency_infinite_below_floor() {
        let t = timing();
        assert!(t.read_latency(Volts(0.05), 2).0.is_infinite());
    }

    #[test]
    #[should_panic(expected = "segments must be")]
    fn too_many_segments_panics() {
        let _ = SramTiming::new(DeviceModel::umc90(), 8, 16, CellKind::SixT);
    }
}
