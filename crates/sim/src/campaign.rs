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
//! 2. **Index-slotted results.** [`fan_out`], the one worker pool of
//!    the workspace, hands each worker the next `(index, job, result
//!    slot)` from a shared queue, and the worker writes the run's result
//!    into that slot, so aggregation order is the submission order.
//! 3. **No cross-run state.** The worker closure gets `&T` and a fresh
//!    [`RunContext`]; each run builds its own [`Simulator`].
//!
//! [`run_campaign`] is [`fan_out`] plus the per-run seeds and the wall
//! clock. A run returns whatever the experiment measures: a typed point
//! comes back as it is, and a [`RunReport`] adds the simulator counts,
//! figure row and telemetry that [`CampaignReport`] digests and merges.
//! PDES partitions ([`crate::PdesSimulator`]) and fleet shards run on
//! [`fan_out`] directly.
//!
//! # Examples
//!
//! A four-point Vdd sweep of a free-running counter, in parallel:
//!
//! ```
//! use emc_device::DeviceModel;
//! use emc_netlist::{GateKind, Netlist};
//! use emc_sim::campaign::{run_campaign, CampaignConfig, RunContext, RunReport};
//! use emc_sim::{Simulator, SupplyKind};
//! use emc_units::{Seconds, Waveform};
//!
//! let ring = |&vdd: &f64, ctx: &RunContext| {
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
//! };
//! let vdds = [0.4, 0.6, 0.8, 1.0];
//! let report = run_campaign(&vdds, &CampaignConfig::new(7).threads(2), ring);
//! assert_eq!(report.runs.len(), 4);
//! // Same seed, different thread count: bit-identical outcome.
//! let serial = run_campaign(&vdds, &CampaignConfig::new(7).threads(1), ring);
//! assert_eq!(report.digest(), serial.digest());
//! ```

use std::sync::Mutex;
use std::time::{Duration, Instant};

use emc_obs::Telemetry;
use emc_prng::SplitMix64;
use emc_units::Joules;

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

/// What one figure-producing run contributes to the campaign report.
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
    /// Deliberately **excluded from [`CampaignReport::digest`]** so that
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
        Self {
            index: ctx.index,
            seed: ctx.seed,
            stats,
            energy: sim.total_energy(),
            hazards: sim.hazards().len() as u64,
            trace_digest: sim.trace().digest(),
            values,
            telemetry: sim.obs_enabled().then(|| Box::new(sim.telemetry())),
        }
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

/// The aggregated outcome of a campaign: every run's result in
/// submission order, plus the wall-clock the fan-out took.
///
/// Everything except `wall_clock` is a pure function of the job list
/// and the campaign seed. For [`RunReport`] runs,
/// [`CampaignReport::digest`] covers exactly that deterministic part.
#[derive(Debug, Clone)]
pub struct CampaignReport<R = RunReport> {
    /// The seed the campaign ran under.
    pub seed: u64,
    /// Thread count actually used.
    pub threads: usize,
    /// Per-run results, indexed by submission order (never by
    /// completion order).
    pub runs: Vec<R>,
    /// How long the fan-out took (excluded from the digest: timing is
    /// the one thing threads are allowed to change).
    pub wall_clock: Duration,
}

impl CampaignReport<RunReport> {
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

/// The worker count for `items` items: `threads`, or one per available
/// core when it is 0, never more than the items and at least one.
fn worker_count(threads: usize, items: usize) -> usize {
    let threads = if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    };
    threads.min(items.max(1))
}

/// Runs `f(index, item)` for every item on a scoped pool of worker
/// threads and returns the results in item order.
///
/// `threads == 0` means one worker per available core; there are never
/// more workers than items, and an empty list gets one worker. Each
/// worker takes the next `(index, item, result slot)` from one shared
/// queue and writes its result into that slot, so a slow item holds up
/// no other worker and the output order never depends on scheduling.
///
/// # Panics
///
/// Re-raises a worker's panic with its payload.
pub fn fan_out<I, R, F>(items: Vec<I>, threads: usize, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(usize, I) -> R + Sync,
{
    let workers = worker_count(threads, items.len());
    // The caller allocates every result slot and the queue hands each out
    // with its item, so workers allocate nothing here. On the
    // `wchb_array` benchmark, workers that collected results in a `Vec`
    // of their own (or took the stripe `i % threads`) raised peak RSS
    // from about 249 MB to 284–313 MB; per-thread malloc arenas are the
    // likely, unverified cause.
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    let queue = Mutex::new(items.into_iter().zip(&mut slots).enumerate());
    let work = || loop {
        // The guard drops at the end of this statement: the lock is
        // never held while `f` runs.
        let next = queue.lock().expect("no panic holds the queue lock").next();
        let Some((index, (item, slot))) = next else {
            break;
        };
        *slot = Some(f(index, item));
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
        for handle in handles {
            handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every item ran"))
        .collect()
}

/// Fans `jobs` out on [`fan_out`] and collects what each run returns.
///
/// `worker` is called once per job with the job and its [`RunContext`];
/// it must derive all randomness from `ctx.seed`. The returned report
/// is bit-identical for any thread count (see the module docs for why).
///
/// # Panics
///
/// Panics if a worker panics (the panic is propagated).
pub fn run_campaign<T, R, F>(jobs: &[T], config: &CampaignConfig, worker: F) -> CampaignReport<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T, &RunContext) -> R + Sync,
{
    let threads = worker_count(config.threads, jobs.len());
    let started = Instant::now();
    let runs = fan_out(jobs.iter().collect(), threads, |index, job| {
        let ctx = RunContext {
            index,
            seed: config.run_seed(index),
        };
        worker(job, &ctx)
    });
    CampaignReport {
        seed: config.seed,
        threads,
        runs,
        wall_clock: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            ctx.index
        });
        assert_eq!(report.threads, 4);
        assert_eq!(report.runs, [0, 1, 2, 3]);
    }

    #[test]
    fn blocking_runs_overlap_in_wall_clock() {
        // For runs that block (I/O, sleeps), the fan-out's wall-clock
        // follows the slowest run, not the sum — measurable even on one
        // core. 6 × 30 ms serial would be ≥ 180 ms; overlapped it is
        // ~30 ms. The 120 ms threshold leaves wide scheduling margin.
        let jobs = [0u64; 6];
        let report = run_campaign(&jobs, &CampaignConfig::new(0).threads(6), |_, _| {
            std::thread::sleep(Duration::from_millis(30));
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
            assert_eq!(r.seed, CampaignConfig::new(1).run_seed(i));
            assert_eq!(r.values, vec![i as f64 * 2.0]);
        }
    }

    #[test]
    fn empty_campaign_is_fine() {
        let jobs: Vec<u64> = Vec::new();
        let report = run_campaign(&jobs, &CampaignConfig::new(5), |_, ctx| {
            RunReport::from_values(ctx, vec![])
        });
        assert!(report.runs.is_empty());
        assert_eq!(report.threads, 1);
        assert_eq!(report.digest(), {
            let mut h = Fnv64::new();
            h.write_u64(5);
            h.write_u64(0);
            h.finish()
        });
    }

    #[test]
    fn fan_out_returns_results_in_item_order_whatever_their_cost() {
        // Early items are the slow ones, so they finish last.
        let items: Vec<u64> = (0..24).collect();
        for threads in [1, 2, 8] {
            let out = fan_out(items.clone(), threads, |index, item| {
                std::thread::sleep(Duration::from_micros(200 * (24 - item)));
                (index, item * 3)
            });
            let expected: Vec<(usize, u64)> = (0..24).map(|i| (i as usize, i * 3)).collect();
            assert_eq!(out, expected, "at {threads} thread(s)");
        }
    }

    #[test]
    fn fan_out_visits_every_mut_item_exactly_once() {
        let mut visits = vec![0u32; 41];
        let indices = fan_out(visits.iter_mut().collect(), 3, |index, v: &mut u32| {
            *v += 1;
            index
        });
        assert_eq!(indices, (0..41).collect::<Vec<_>>());
        assert!(visits.iter().all(|&v| v == 1), "{visits:?}");
    }

    #[test]
    #[should_panic(expected = "item 5 failed")]
    fn fan_out_reraises_a_worker_panic() {
        fan_out((0..8).collect(), 2, |index, item: u32| {
            assert!(index != 5, "item {index} failed");
            item
        });
    }

    #[test]
    fn fan_out_takes_an_empty_list_and_zero_threads() {
        assert!(fan_out(Vec::<u8>::new(), 4, |_, x| x).is_empty());
        assert!(fan_out(Vec::<u8>::new(), 0, |_, x| x).is_empty());
        assert_eq!(fan_out(vec![1, 2, 3], 0, |_, x| x * 10), [10, 20, 30]);
        assert_eq!(worker_count(0, 0), 1);
        assert_eq!(worker_count(8, 3), 3);
        assert_eq!(worker_count(2, 100), 2);
    }
}
