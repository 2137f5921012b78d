//! Glue between the [`emc_sim::campaign`] engine and the figure
//! binaries: a tiny CLI contract and a `CampaignReport → Series`
//! converter.
//!
//! Every campaign-backed binary understands three flags:
//!
//! * `--smoke` — shrink the sweep to a few points so CI can exercise
//!   the full binary path in well under a second;
//! * `--threads N` — worker thread count (`0` = one per core, the
//!   default), which by the engine's determinism guarantee changes
//!   wall-clock only, never output;
//! * `--seed S` — override the campaign seed (each binary carries a
//!   fixed default so figures are reproducible by default).
//!
//! After the sweep the binary prints a one-line campaign summary —
//! runs, threads, wall-clock, digest — so serial-vs-parallel timings
//! and byte-identity can be read straight off two invocations.

use emc_sim::campaign::{CampaignConfig, CampaignReport};

use crate::cli::{Flags, UsageError};
use crate::Series;

/// Parsed command-line contract of a campaign-backed figure binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignArgs {
    /// `--smoke`: run a reduced sweep for CI.
    pub smoke: bool,
    /// `--threads N`: worker count (`0` = one per core).
    pub threads: usize,
    /// `--seed S`: campaign seed (default supplied by the binary).
    pub seed: u64,
}

impl CampaignArgs {
    /// The flag synopsis on the usage line.
    const SYNOPSIS: &'static str = "[--smoke] [--threads N] [--seed S]";

    /// Parses the process arguments with `default_seed` as the campaign seed
    /// unless `--seed` overrides it. A bad command line exits with
    /// status 2 and a usage line naming the binary (see [`crate::cli`]).
    pub fn parse(default_seed: u64) -> Self {
        Flags::from_env(Self::SYNOPSIS)
            .and_then(|flags| Self::from_flags(flags, default_seed))
            .unwrap_or_else(|e| e.exit())
    }

    fn from_flags(mut flags: Flags, default_seed: u64) -> Result<Self, UsageError> {
        let mut out = Self {
            smoke: false,
            threads: 0,
            seed: default_seed,
        };
        while let Some(flag) = flags.next_flag() {
            match flag.as_str() {
                "--smoke" => out.smoke = true,
                "--threads" => out.threads = flags.value(&flag)?,
                "--seed" => out.seed = flags.value(&flag)?,
                _ => return Err(flags.unknown(&flag)),
            }
        }
        Ok(out)
    }

    /// The engine config these args describe.
    pub fn config(&self) -> CampaignConfig {
        CampaignConfig::new(self.seed).threads(self.threads)
    }

    /// `smoke.max(3)`-style helper: picks the sweep point count, using
    /// `smoke_points` when `--smoke` is set.
    pub fn points(&self, full: usize, smoke_points: usize) -> usize {
        if self.smoke {
            smoke_points
        } else {
            full
        }
    }
}

/// Converts an aggregated campaign into a figure series: one row per
/// run, straight from each run's `values`.
pub fn campaign_series(id: &str, title: &str, columns: &[&str], report: &CampaignReport) -> Series {
    let mut s = Series::new(id, title, columns);
    for row in report.rows() {
        s.push(row);
    }
    s
}

/// Prints the one-line summary every campaign binary ends with:
/// determinism digest plus the numbers needed for serial-vs-parallel
/// wall-clock comparisons.
pub fn print_campaign_summary(report: &CampaignReport) {
    crate::outln!(
        "  [campaign: {} runs on {} thread(s), {:.1} ms wall, {} events, digest {:016x}]",
        report.runs.len(),
        report.threads,
        report.wall_clock.as_secs_f64() * 1e3,
        report.total_fired(),
        report.digest(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use emc_sim::campaign::{run_campaign, RunReport};

    fn parse(words: &[&str]) -> Result<CampaignArgs, UsageError> {
        let flags = Flags::new(
            "fig",
            CampaignArgs::SYNOPSIS,
            words.iter().map(|s| (*s).to_owned()),
        );
        CampaignArgs::from_flags(flags, 42)
    }

    #[test]
    fn defaults_and_flags() {
        let a = parse(&[]).unwrap();
        assert_eq!(
            a,
            CampaignArgs {
                smoke: false,
                threads: 0,
                seed: 42
            }
        );
        let a = parse(&["--smoke", "--threads", "8", "--seed", "7"]).unwrap();
        assert_eq!(
            a,
            CampaignArgs {
                smoke: true,
                threads: 8,
                seed: 7
            }
        );
        assert_eq!(a.config(), CampaignConfig::new(7).threads(8));
        assert_eq!(a.points(20, 4), 4);
        assert_eq!(parse(&[]).unwrap().points(20, 4), 20);
    }

    #[test]
    fn rejects_unknown_flags() {
        let e = parse(&["--frobnicate"]).unwrap_err();
        assert_eq!(e.message, "unknown flag \"--frobnicate\"");
        assert_eq!(e.usage, "fig [--smoke] [--threads N] [--seed S]");
    }

    #[test]
    fn series_conversion_keeps_rows() {
        let jobs = [1.0f64, 2.0, 3.0];
        let report = run_campaign(&jobs, &CampaignConfig::new(1).threads(2), |&x, ctx| {
            RunReport::from_values(ctx, vec![x, x * x])
        });
        let s = campaign_series("t", "t", &["x", "x2"], &report);
        assert_eq!(s.rows, vec![vec![1.0, 1.0], vec![2.0, 4.0], vec![3.0, 9.0]]);
    }
}
