//! SRAM bit-cell flavours.

use emc_units::Volts;

/// The bit-cell circuit used by the array.
///
/// The paper's experimental design uses the standard 6T cell; §III-A
/// suggests switching to 8T cells (two stacked NMOS in the read path) to
/// cut leakage at the cost of area and a slightly slower read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CellKind {
    /// The standard 6-transistor cell.
    #[default]
    SixT,
    /// The 8-transistor read-decoupled cell: ~40 % larger, roughly 2.5×
    /// lower leakage (stack effect), slightly higher read-path threshold.
    EightT,
}

impl CellKind {
    /// Multiplier on cell leakage relative to the 6T cell.
    pub fn leakage_factor(self) -> f64 {
        match self {
            CellKind::SixT => 1.0,
            // Two NMOS in series in the read stack: the classic ~60 %
            // stack-effect reduction applied twice.
            CellKind::EightT => 0.4,
        }
    }

    /// Additional read-path threshold elevation relative to the 6T read
    /// stack (the decoupled 8T read port is one transistor deeper).
    pub(crate) fn extra_read_vt(self) -> Volts {
        match self {
            CellKind::SixT => Volts(0.0),
            CellKind::EightT => Volts(0.015),
        }
    }

    /// Relative cell area (layout cost reported alongside leakage wins).
    pub fn area_factor(self) -> f64 {
        match self {
            CellKind::SixT => 1.0,
            CellKind::EightT => 1.4,
        }
    }
}

impl core::fmt::Display for CellKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CellKind::SixT => f.write_str("6T"),
            CellKind::EightT => f.write_str("8T"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_t_trades_area_for_leakage() {
        assert!(CellKind::EightT.leakage_factor() < CellKind::SixT.leakage_factor());
        assert!(CellKind::EightT.area_factor() > CellKind::SixT.area_factor());
        assert!(CellKind::EightT.extra_read_vt() > CellKind::SixT.extra_read_vt());
    }

    #[test]
    fn display_and_default() {
        assert_eq!(CellKind::default(), CellKind::SixT);
        assert_eq!(CellKind::SixT.to_string(), "6T");
        assert_eq!(CellKind::EightT.to_string(), "8T");
    }
}
