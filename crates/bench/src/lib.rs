//! Shared plumbing for the figure-regeneration binaries and the `emc-*`
//! check tools.
//!
//! Every `fig*`/`ablation*` binary in `src/bin/` regenerates one figure
//! or result of *Energy-modulated computing* (see `DESIGN.md` §3 for the
//! index). Each prints a human-readable table **and** dumps the same
//! series as JSON under `target/figures/`, so EXPERIMENTS.md numbers can
//! be re-derived mechanically. Like the `emc-*` tools, they print
//! through [`out!`] and [`outln!`], so a reader that closes their stdout
//! early ends the output, not the run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod cli;
pub mod pdes_rig;

pub use campaign::{campaign_series, print_campaign_summary, CampaignArgs};
pub use pdes_rig::{
    drive_array, pdes_array, pdes_parallel, pdes_sequential, DriveSim, PdesArray, PDES_STEP,
};

use std::fs;
use std::path::PathBuf;

use emc_obs::export::{json_number, json_string};

/// The process's peak resident set in KiB: the `VmHWM` line of
/// `/proc/self/status`, or `None` where there is none (outside Linux).
/// The probe examples print it after each phase they time.
pub fn peak_rss_kib() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A figure data series: named columns and numeric rows.
#[derive(Debug, Clone)]
pub struct Series {
    /// Experiment id, e.g. `"fig05"`.
    pub id: String,
    /// What the series shows.
    pub title: String,
    /// Column names.
    pub(crate) columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<f64>>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Self {
        Self {
            id: id.to_owned(),
            title: title.to_owned(),
            columns: columns.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the column count.
    pub fn push(&mut self, row: Vec<f64>) {
        assert_eq!(row.len(), self.columns.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Prints the series as an aligned table.
    pub fn print(&self) {
        crate::outln!("== {} — {} ==", self.id, self.title);
        let widths: Vec<usize> = self.columns.iter().map(|c| c.len().max(12)).collect();
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        crate::outln!("  {}", header.join("  "));
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(v, w)| format!("{:>w$}", format_number(*v)))
                .collect();
            crate::outln!("  {}", cells.join("  "));
        }
    }

    /// Serialises the series as pretty-printed JSON. Hand-rolled (the
    /// workspace builds offline with no registry access): the format is
    /// fixed — string id/title, string columns, `f64` rows — so a full
    /// serialisation framework buys nothing here.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"id\": {},\n", json_string(&self.id)));
        out.push_str(&format!("  \"title\": {},\n", json_string(&self.title)));
        let cols: Vec<String> = self.columns.iter().map(|c| json_string(c)).collect();
        out.push_str(&format!("  \"columns\": [{}],\n", cols.join(", ")));
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let cells: Vec<String> = row.iter().map(|v| json_number(*v)).collect();
            let sep = if i + 1 == self.rows.len() { "" } else { "," };
            out.push_str(&format!("    [{}]{}\n", cells.join(", "), sep));
        }
        out.push_str("  ]\n}");
        out
    }

    /// Writes the series as JSON to `target/figures/<id>.json` and
    /// prints + returns the path.
    ///
    /// # Panics
    ///
    /// Panics if the directory or file cannot be written (benches run in
    /// a writable workspace by construction).
    pub(crate) fn save(&self) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/figures");
        fs::create_dir_all(&dir).expect("create target/figures");
        let path = dir.join(format!("{}.json", self.id));
        fs::write(&path, self.to_json()).expect("write series JSON");
        crate::outln!("  [saved {}]", path.display());
        path
    }

    /// Prints and saves in one call.
    pub fn emit(&self) {
        self.print();
        self.save();
        crate::outln!();
    }
}

/// Compact number formatting for table cells: engineering-ish without
/// trailing noise.
pub(crate) fn format_number(v: f64) -> String {
    if v == 0.0 {
        "0".to_owned()
    } else if !v.is_finite() {
        format!("{v}")
    } else {
        let a = v.abs();
        if !(1e-3..1e6).contains(&a) {
            format!("{v:.3e}")
        } else if a >= 100.0 {
            format!("{v:.1}")
        } else {
            format!("{v:.4}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_round_trip() {
        let mut s = Series::new("test", "a test", &["x", "y"]);
        s.push(vec![1.0, 2.0]);
        s.push(vec![3.0, 4.0]);
        assert_eq!(s.rows.len(), 2);
        let path = s.save();
        let text = fs::read_to_string(path).unwrap();
        assert!(text.contains("\"id\": \"test\""));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut s = Series::new("t", "t", &["x"]);
        s.push(vec![1.0, 2.0]);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(format_number(0.0), "0");
        assert_eq!(format_number(1.5), "1.5000");
        assert_eq!(format_number(123.45), "123.5");
        assert_eq!(format_number(5.8e-12), "5.800e-12");
    }
}
