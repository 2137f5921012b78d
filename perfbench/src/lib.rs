//! The repository's benchmark: four workloads, each a job an existing
//! tool already runs, timed from outside through the crates' public
//! functions and checked against pinned simulated outputs on every
//! operation. See `perfbench/README.md` for the workloads, the layer map
//! and the metric definitions.

pub mod check;
pub mod host;
pub mod pins;
pub mod report;
pub mod span;
pub mod speed;
pub mod stats;
pub mod workloads;

use std::time::Instant;

use check::Checks;
use span::Recorder;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 4 oscillator and counter on the AC rail.
    AcCounter,
    /// The WCHB pipeline array, sequential and PDES.
    WchbArray,
    /// Full and reduced speed-independence exploration.
    SiVerify,
    /// The harvester-powered node fleet.
    Fleet,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::AcCounter,
        Workload::WchbArray,
        Workload::SiVerify,
        Workload::Fleet,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AcCounter => "ac_counter",
            Workload::WchbArray => "wchb_array",
            Workload::SiVerify => "si_verify",
            Workload::Fleet => "fleet",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether the measured calls start worker threads.
    pub fn parallel(self) -> bool {
        matches!(self, Workload::WchbArray | Workload::Fleet)
    }
}

/// Workload size: the benchmark's own, or a tiny one for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Benchmark size.
    Full,
    /// Seconds-long smoke size.
    Smoke,
}

/// The seed the pin table was recorded for first.
pub const DEFAULT_SEED: u64 = 2011;
/// A second pinned seed, never used while tuning the workloads.
pub const HELD_OUT_SEED: u64 = 4242;

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    /// What to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measure for about this long (after the minimum iterations).
    pub seconds: f64,
    /// Interleave traced iterations and report per-layer metrics.
    pub trace: bool,
    /// Workload size.
    pub size: Size,
    /// Worker threads for PDES and the fleet.
    pub threads: usize,
    /// Iterations run even when `seconds` has already passed.
    pub min_iterations: usize,
}

/// What one workload iteration does, plus how its layers are read.
pub trait Bench {
    /// The fixed work of one iteration, for the text report.
    fn work(&self) -> String;
    /// Runs one iteration: construction, measured calls and checks.
    fn iteration(&mut self, rec: &mut Recorder, checks: &mut Checks);
    /// The workload's per-layer metrics from the traced iterations.
    fn per_layer(&self, rec: &Recorder) -> Vec<(&'static str, f64)>;
    /// Peak resident set over the run, MiB.
    fn peak_rss_mb(&self) -> f64 {
        host::peak_rss_mb().unwrap_or(0.0)
    }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// The configuration run.
    pub config: Config,
    /// Fixed work per iteration.
    pub work: String,
    /// Check tally and observed outputs.
    pub checks: Checks,
    /// Timings and spans.
    pub recorder: Recorder,
    /// Peak resident set, MiB.
    pub peak_rss_mb: f64,
    /// Per-layer metrics (empty unless traced).
    pub per_layer: Vec<(&'static str, f64)>,
    /// The host-speed reference timed around every iteration.
    pub reference: speed::Reference,
}

/// Whether to start another iteration after `done` of them took
/// `elapsed` seconds: only if, at the mean iteration length so far, it
/// would end less than half an iteration past `config.seconds`. A run
/// then lasts about `seconds`, however long one iteration is.
fn another_fits(elapsed: f64, done: usize, config: &Config) -> bool {
    let mean = elapsed / done.max(1) as f64;
    elapsed + mean / 2.0 < config.seconds
}

/// Runs the configured workload against `pins`.
///
/// # Panics
///
/// Panics if `config.threads` exceeds the host's hardware threads.
pub fn run(config: &Config, pins: &pins::Pins) -> Outcome {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert!(
        config.threads >= 1 && config.threads <= nproc,
        "worker threads ({}) must be between 1 and nproc ({nproc})",
        config.threads
    );
    let mut bench = workloads::make(config, pins);
    let mut rec = Recorder::new();
    let mut checks = Checks::default();
    // A single-threaded workload stays on one CPU, so the reference
    // kernel is timed where it runs.
    let home = if config.workload.parallel() && config.threads > 1 {
        speed::CpuSet::current()
    } else {
        speed::CpuSet::here().filter(|cpu| cpu.apply())
    };
    // The first kernel run pays for the process's first heap pages.
    speed::time_kernel();
    let mut reference = speed::Reference::new(home);
    reference.time_batch(0.0);
    let mut work_s = 0.0;
    let start = Instant::now();
    let mut i = 0;
    while i < config.min_iterations || another_fits(start.elapsed().as_secs_f64(), i, config) {
        // Traced runs alternate untraced and traced iterations, so the
        // tracing overhead is measured under the same host conditions.
        rec.begin_iteration(config.trace && i % 2 == 1);
        bench.iteration(&mut rec, &mut checks);
        let t = rec.end_iteration();
        work_s += t.setup_s + t.run_s;
        reference.time_batch(work_s);
        i += 1;
    }
    let per_layer = if config.trace {
        bench.per_layer(&rec)
    } else {
        Vec::new()
    };
    Outcome {
        config: config.clone(),
        work: bench.work(),
        checks,
        peak_rss_mb: bench.peak_rss_mb(),
        recorder: rec,
        per_layer,
        reference,
    }
}
