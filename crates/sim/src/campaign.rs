//! Parallel, deterministic simulation campaigns.
//!
//! Every headline result of *Energy-modulated computing* is a sweep —
//! delay ratio vs Vdd (Fig. 5), SRAM energy vs Vdd (Fig. 7), count vs
//! Vdd (Fig. 11) — and the dependability story is a fault-injection
//! campaign over every gate of a design. All of those decompose into
//! **independent runs**, so this module fans them out across OS threads
//! while keeping a hard guarantee the experiments depend on:
//!
//! > A campaign's report is **bit-identical regardless of thread
//! > count**, and any single run can be re-derived in isolation from
//! > `(campaign seed, run index)` for debugging.
//!
//! Three ingredients deliver that:
//!
//! 1. **Derived seeding.** Run `i` of a campaign with seed `s` always
//!    receives `SplitMix64::mix(s, i)` — no shared generator whose
//!    stream order would depend on scheduling.
//! 2. **Index-slotted results.** Workers pull the next unclaimed run
//!    index from a shared atomic counter (a degenerate work-stealing
//!    queue: stealing is just incrementing first) and write the report
//!    into its own slot, so aggregation order is the submission order.
//! 3. **No cross-run state.** The worker closure gets `&T` and a fresh
//!    [`RunContext`]; each run builds its own [`Simulator`].
//!
//! The generic entry point is [`run_campaign`]; [`SimCampaign`] is the
//! convenience wrapper for the common (netlist builder, supply
//! waveform, seed, stop condition) shape.
//!
//! # Examples
//!
//! A four-point Vdd sweep of a free-running counter, in parallel:
//!
//! ```
//! use emc_device::DeviceModel;
//! use emc_netlist::{GateKind, Netlist};
//! use emc_sim::campaign::{run_campaign, CampaignConfig, RunReport};
//! use emc_sim::{Simulator, SupplyKind};
//! use emc_units::{Seconds, Waveform};
//!
//! let vdds = [0.4, 0.6, 0.8, 1.0];
//! let cfg = CampaignConfig::new(7).threads(2);
//! let report = run_campaign(&vdds, &cfg, |&vdd, ctx| {
//!     let mut nl = Netlist::new();
//!     let en = nl.input("en");
//!     let g1 = nl.gate(GateKind::Nand, &[en, en], "g1");
//!     let g2 = nl.gate(GateKind::Inv, &[g1], "g2");
//!     let g3 = nl.gate(GateKind::Inv, &[g2], "g3");
//!     nl.connect_feedback(g1, g3);
//!     nl.mark_output(g3);
//!     let mut sim = Simulator::new(nl, DeviceModel::umc90());
//!     let d = sim.add_domain("vdd", SupplyKind::ideal(Waveform::constant(vdd)));
//!     sim.assign_all(d);
//!     sim.set_initial(g1, true);
//!     sim.set_initial(g3, true);
//!     sim.schedule_input(en, Seconds(0.0), true);
//!     sim.start();
//!     let stats = sim.run_until(Seconds(50e-9));
//!     RunReport::from_sim(&sim, ctx, stats, vec![vdd, stats.fired as f64])
//! });
//! assert_eq!(report.runs.len(), 4);
//! // Same seed, different thread count: bit-identical outcome.
//! let serial = run_campaign(&vdds, &CampaignConfig::new(7).threads(1), |&vdd, ctx| {
//! #    let mut nl = Netlist::new();
//! #    let en = nl.input("en");
//! #    let g1 = nl.gate(GateKind::Nand, &[en, en], "g1");
//! #    let g2 = nl.gate(GateKind::Inv, &[g1], "g2");
//! #    let g3 = nl.gate(GateKind::Inv, &[g2], "g3");
//! #    nl.connect_feedback(g1, g3);
//! #    nl.mark_output(g3);
//! #    let mut sim = Simulator::new(nl, DeviceModel::umc90());
//! #    let d = sim.add_domain("vdd", SupplyKind::ideal(Waveform::constant(vdd)));
//! #    sim.assign_all(d);
//! #    sim.set_initial(g1, true);
//! #    sim.set_initial(g3, true);
//! #    sim.schedule_input(en, Seconds(0.0), true);
//! #    sim.start();
//! #    let stats = sim.run_until(Seconds(50e-9));
//! #    RunReport::from_sim(&sim, ctx, stats, vec![vdd, stats.fired as f64])
//! });
//! assert_eq!(report.digest(), serial.digest());
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use emc_device::DeviceModel;
use emc_netlist::Netlist;
use emc_obs::Telemetry;
use emc_prng::SplitMix64;
use emc_units::{Joules, Seconds};

use crate::domain::SupplyKind;
use crate::fnv::Fnv64;
use crate::simulator::{RunStats, Simulator};

/// Campaign-wide knobs: the seed every run's seed is derived from, and
/// the worker thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignConfig {
    /// The campaign seed. Run `i` receives `SplitMix64::mix(seed, i)`.
    pub seed: u64,
    /// Worker threads. `0` means one per available core.
    pub threads: usize,
}

impl CampaignConfig {
    /// A config with the given seed and one thread per available core.
    pub fn new(seed: u64) -> Self {
        Self { seed, threads: 0 }
    }

    /// Overrides the worker thread count (builder style).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The effective thread count: the override, or available
    /// parallelism.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// The derived seed of run `index` — the contract that lets a run be
    /// replayed in isolation.
    pub fn run_seed(&self, index: usize) -> u64 {
        SplitMix64::mix(self.seed, index as u64)
    }
}

/// Per-run identity handed to the worker: which run this is and the
/// seed derived for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunContext {
    /// Position of this run in the campaign's job list.
    pub index: usize,
    /// `SplitMix64::mix(campaign_seed, index)` — the only randomness a
    /// run may consume.
    pub seed: u64,
}

/// What one run contributes to the campaign report.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Position of this run in the campaign's job list.
    pub index: usize,
    /// The run's derived seed (recorded so a run is replayable from its
    /// report alone).
    pub seed: u64,
    /// Simulator stats of the run (zeros for non-simulator jobs).
    pub stats: RunStats,
    /// Energy drawn across all power domains.
    pub energy: Joules,
    /// Hazards (persistence violations) observed.
    pub hazards: u64,
    /// [`crate::Trace::digest`] of the run's trace (0 when untraced).
    pub trace_digest: u64,
    /// The figure-row payload: whatever numbers the experiment sweeps.
    pub values: Vec<f64>,
    /// The run's telemetry bundle, when the run was observed.
    ///
    /// Deliberately **excluded from [`RunReport::fold_into`]** so that
    /// enabling observability can never move a pinned campaign digest.
    pub telemetry: Option<Box<Telemetry>>,
}

impl RunReport {
    /// A report carrying only figure values — for campaign jobs that
    /// don't go through the event simulator (e.g. the Fig. 5
    /// calibration sweep).
    pub fn from_values(ctx: &RunContext, values: Vec<f64>) -> Self {
        Self {
            index: ctx.index,
            seed: ctx.seed,
            stats: RunStats::default(),
            energy: Joules(0.0),
            hazards: 0,
            trace_digest: 0,
            values,
            telemetry: None,
        }
    }

    /// Collects stats, total domain energy, hazard count and trace
    /// digest from a finished simulator. When the simulator's
    /// observability is enabled ([`Simulator::enable_obs`]), its
    /// telemetry snapshot rides along on the report.
    pub fn from_sim(sim: &Simulator, ctx: &RunContext, stats: RunStats, values: Vec<f64>) -> Self {
        let energy = (0..sim.domain_count())
            .map(|i| sim.energy_drawn(sim.domain_id(i)).0)
            .sum();
        Self {
            index: ctx.index,
            seed: ctx.seed,
            stats,
            energy: Joules(energy),
            hazards: sim.hazards().len() as u64,
            trace_digest: sim.trace().digest(),
            values,
            telemetry: sim.obs_enabled().then(|| Box::new(sim.telemetry())),
        }
    }

    /// Attaches a telemetry bundle (builder style) — for jobs that
    /// build their telemetry outside the event simulator.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(Box::new(telemetry));
        self
    }

    fn fold_into(&self, h: &mut Fnv64) {
        h.write_u64(self.index as u64);
        h.write_u64(self.seed);
        h.write_u64(self.stats.fired);
        h.write_u64(self.stats.hazards);
        h.write_u64(self.energy.0.to_bits());
        h.write_u64(self.hazards);
        h.write_u64(self.trace_digest);
        for v in &self.values {
            h.write_u64(v.to_bits());
        }
    }
}

/// The aggregated outcome of a campaign: every run's report in
/// submission order, plus the wall-clock the fan-out took.
///
/// Everything except `wall_clock` is a pure function of the job list
/// and the campaign seed; [`CampaignReport::digest`] covers exactly
/// that deterministic part.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The seed the campaign ran under.
    pub seed: u64,
    /// Thread count actually used.
    pub threads: usize,
    /// Per-run reports, indexed by submission order (never by
    /// completion order).
    pub runs: Vec<RunReport>,
    /// How long the fan-out took (excluded from the digest: timing is
    /// the one thing threads are allowed to change).
    pub wall_clock: Duration,
}

impl CampaignReport {
    /// Digest of the deterministic content: seed and every run report,
    /// in order. Equal digests ⇒ byte-identical figure data.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.seed);
        h.write_u64(self.runs.len() as u64);
        for r in &self.runs {
            r.fold_into(&mut h);
        }
        h.finish()
    }

    /// Sum of events fired across runs.
    pub fn total_fired(&self) -> u64 {
        self.runs.iter().map(|r| r.stats.fired).sum()
    }

    /// Sum of hazards across runs.
    pub fn total_hazards(&self) -> u64 {
        self.runs.iter().map(|r| r.hazards).sum()
    }

    /// Total energy drawn across runs.
    pub fn total_energy(&self) -> Joules {
        Joules(self.runs.iter().map(|r| r.energy.0).sum())
    }

    /// The figure rows: each run's `values`, in submission order — the
    /// shape `emc_bench::Series` consumes directly.
    pub fn rows(&self) -> Vec<Vec<f64>> {
        self.runs.iter().map(|r| r.values.clone()).collect()
    }

    /// Folds every observed run's telemetry into one bundle, in
    /// submission-index order. Because the fold order is the run index —
    /// never the completion order — the merged bundle (and anything
    /// exported from it) is identical at any thread count.
    pub fn merged_telemetry(&self) -> Telemetry {
        let mut t = Telemetry::new();
        for r in &self.runs {
            if let Some(rt) = &r.telemetry {
                t.merge_from(rt);
            }
        }
        t
    }
}

/// Fans `jobs` out across worker threads and aggregates the reports.
///
/// `worker` is called once per job with the job and its [`RunContext`];
/// it must derive all randomness from `ctx.seed`. The returned report
/// is bit-identical for any thread count (see the module docs for why).
///
/// # Panics
///
/// Panics if a worker thread panics (the panic is propagated).
pub fn run_campaign<T, F>(jobs: &[T], config: &CampaignConfig, worker: F) -> CampaignReport
where
    T: Sync,
    F: Fn(&T, &RunContext) -> RunReport + Sync,
{
    let threads = config.effective_threads().min(jobs.len().max(1));
    let started = Instant::now();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<RunReport>>> = (0..jobs.len()).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= jobs.len() {
                    break;
                }
                let ctx = RunContext {
                    index,
                    seed: config.run_seed(index),
                };
                let report = worker(&jobs[index], &ctx);
                *slots[index].lock().expect("unpoisoned slot") = Some(report);
            });
        }
    });

    let runs: Vec<RunReport> = slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .expect("unpoisoned slot")
                .unwrap_or_else(|| panic!("run {i} produced no report"))
        })
        .collect();
    CampaignReport {
        seed: config.seed,
        threads,
        runs,
        wall_clock: started.elapsed(),
    }
}

/// When a [`SimCampaign`] run stops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopCondition {
    /// Run until the event queue passes `t` ([`Simulator::run_until`]).
    At(Seconds),
    /// Run to quiescence or `max_events`, whichever first
    /// ([`Simulator::run_to_quiescence`]).
    Quiescence {
        /// Event budget for the run.
        max_events: u64,
    },
}

/// Builder hook of a [`SimJob`]: netlist plus device model, per run.
pub type BuildFn<'a> = Box<dyn Fn(&RunContext) -> (Netlist, DeviceModel) + Sync + 'a>;
/// Preparation hook of a [`SimJob`], between domain assignment and start.
pub type PrepareFn<'a> = Box<dyn Fn(&mut Simulator, &RunContext) + Sync + 'a>;
/// Measurement hook of a [`SimJob`]: the figure row after the run.
pub type MeasureFn<'a> = Box<dyn Fn(&Simulator, &RunContext) -> Vec<f64> + Sync + 'a>;

/// One (netlist builder, supply waveform, stop condition) simulation
/// job — the campaign shape the paper's sweeps share. The run's seed
/// arrives in the builder's [`RunContext`] for randomised workloads,
/// delay scalings or fault picks.
pub struct SimJob<'a> {
    /// Builds the netlist and returns it with the device model to
    /// simulate under. Called once, on the worker thread.
    pub build: BuildFn<'a>,
    /// The supply the whole netlist runs from.
    pub supply: SupplyKind,
    /// Hook between domain assignment and `start()`: initial values,
    /// watches, scheduled inputs, delay scaling, extra loads.
    pub prepare: PrepareFn<'a>,
    /// When the run stops.
    pub stop: StopCondition,
    /// Extracts the figure row after the run.
    pub measure: MeasureFn<'a>,
}

/// A campaign over [`SimJob`]s: builds, runs and measures each job on
/// the engine, producing one [`RunReport`] per job.
pub struct SimCampaign<'a> {
    jobs: Vec<SimJob<'a>>,
}

impl<'a> Default for SimCampaign<'a> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> SimCampaign<'a> {
    /// An empty campaign.
    pub fn new() -> Self {
        Self { jobs: Vec::new() }
    }

    /// Queues one job.
    pub fn push(&mut self, job: SimJob<'a>) -> &mut Self {
        self.jobs.push(job);
        self
    }

    /// Number of queued jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` if no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Runs the campaign on the engine.
    pub fn run(&self, config: &CampaignConfig) -> CampaignReport {
        run_campaign(&self.jobs, config, |job, ctx| {
            let (netlist, device) = (job.build)(ctx);
            let mut sim = Simulator::new(netlist, device);
            let d = sim.add_domain("vdd", job.supply.clone());
            sim.assign_all(d);
            (job.prepare)(&mut sim, ctx);
            sim.start();
            let stats = match job.stop {
                StopCondition::At(t) => sim.run_until(t),
                StopCondition::Quiescence { max_events } => {
                    let fired = sim.run_to_quiescence(max_events);
                    RunStats {
                        fired,
                        hazards: sim.hazards().len() as u64,
                    }
                }
            };
            let values = (job.measure)(&sim, ctx);
            RunReport::from_sim(&sim, ctx, stats, values)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emc_netlist::GateKind;
    use emc_units::Waveform;

    fn ring_job(vdd: f64) -> SimJob<'static> {
        SimJob {
            build: Box::new(|_| {
                let mut nl = Netlist::new();
                let en = nl.input("en");
                let g1 = nl.gate(GateKind::Nand, &[en, en], "g1");
                let g2 = nl.gate(GateKind::Inv, &[g1], "g2");
                let g3 = nl.gate(GateKind::Inv, &[g2], "g3");
                nl.connect_feedback(g1, g3);
                nl.mark_output(g3);
                (nl, DeviceModel::umc90())
            }),
            supply: SupplyKind::ideal(Waveform::constant(vdd)),
            prepare: Box::new(|sim, _| {
                let nl = sim.netlist();
                let g1 = nl.find_net("g1").expect("g1");
                let g3 = nl.find_net("g3").expect("g3");
                let en = nl.find_net("en").expect("en");
                sim.set_initial(g1, true);
                sim.set_initial(g3, true);
                sim.watch(g3);
                sim.schedule_input(en, Seconds(0.0), true);
            }),
            stop: StopCondition::At(Seconds(30e-9)),
            measure: Box::new(|sim, _| vec![sim.total_transitions() as f64]),
        }
    }

    #[test]
    fn workers_genuinely_run_concurrently() {
        // All four workers must be alive at once for the barrier to
        // release — a serial (or under-spawned) engine would deadlock
        // here instead of passing. This holds even on a 1-CPU host,
        // where wall-clock speedup cannot be observed.
        let barrier = std::sync::Barrier::new(4);
        let jobs = [0u64; 4];
        let report = run_campaign(&jobs, &CampaignConfig::new(0).threads(4), |_, ctx| {
            barrier.wait();
            RunReport::from_values(ctx, vec![ctx.index as f64])
        });
        assert_eq!(report.threads, 4);
        assert_eq!(report.runs.len(), 4);
    }

    #[test]
    fn blocking_runs_overlap_in_wall_clock() {
        // For runs that block (I/O, sleeps), the fan-out's wall-clock
        // follows the slowest run, not the sum — measurable even on one
        // core. 6 × 30 ms serial would be ≥ 180 ms; overlapped it is
        // ~30 ms. The 120 ms threshold leaves wide scheduling margin.
        let jobs = [0u64; 6];
        let report = run_campaign(&jobs, &CampaignConfig::new(0).threads(6), |_, ctx| {
            std::thread::sleep(Duration::from_millis(30));
            RunReport::from_values(ctx, vec![])
        });
        assert!(
            report.wall_clock < Duration::from_millis(120),
            "fan-out did not overlap: {:?}",
            report.wall_clock
        );
    }

    #[test]
    fn seeds_are_per_run_and_stable() {
        let cfg = CampaignConfig::new(99);
        let s0 = cfg.run_seed(0);
        let s1 = cfg.run_seed(1);
        assert_ne!(s0, s1);
        assert_eq!(s0, CampaignConfig::new(99).run_seed(0));
    }

    #[test]
    fn generic_campaign_preserves_submission_order() {
        let jobs: Vec<u64> = (0..37).collect();
        let report = run_campaign(&jobs, &CampaignConfig::new(1).threads(4), |&j, ctx| {
            RunReport::from_values(ctx, vec![j as f64 * 2.0])
        });
        for (i, r) in report.runs.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.values, vec![i as f64 * 2.0]);
        }
    }

    #[test]
    fn sim_campaign_runs_and_reports() {
        let mut c = SimCampaign::new();
        for vdd in [0.5, 0.8, 1.0] {
            c.push(ring_job(vdd));
        }
        let report = c.run(&CampaignConfig::new(3).threads(2));
        assert_eq!(report.runs.len(), 3);
        for r in &report.runs {
            assert!(r.stats.fired > 5, "ring must oscillate: {r:?}");
            assert!(r.energy.0 > 0.0);
            assert_ne!(r.trace_digest, 0);
        }
        // Higher Vdd, more transitions in the same window.
        assert!(report.runs[2].stats.fired > report.runs[0].stats.fired);
    }

    #[test]
    fn empty_campaign_is_fine() {
        let jobs: Vec<u64> = Vec::new();
        let report = run_campaign(&jobs, &CampaignConfig::new(5), |_, ctx| {
            RunReport::from_values(ctx, vec![])
        });
        assert!(report.runs.is_empty());
        assert_eq!(report.digest(), {
            let mut h = Fnv64::new();
            h.write_u64(5);
            h.write_u64(0);
            h.finish()
        });
    }
}
