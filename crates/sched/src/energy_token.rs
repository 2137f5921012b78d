//! Energy-token scheduling versus eager (greedy) scheduling under a
//! harvester (\[15\]).
//!
//! Both schedulers run the same [`TaskGraph`] against the same energy
//! income. The difference is *when a task may start*:
//!
//! * the [`EnergyTokenScheduler`] banks the task's full energy quantum
//!   (its "energy token") before starting, so a started task always
//!   finishes;
//! * the [`GreedyScheduler`] starts any dependency-ready task
//!   immediately and pays as it goes — when the reservoir browns out
//!   mid-task the invested energy is *wasted* and the task restarts
//!   later.
//!
//! Under abundant power greedy wins on makespan (no banking delay);
//! under the sporadic, weak income of an energy harvester the token
//! scheduler completes more work per harvested joule — the paper's
//! "schedule the computations in the load … to modulate them to the
//! supply".

use emc_petri::{CompiledGraph, TaskGraph, TaskId};
use emc_units::Joules;

/// Outcome of a scheduling run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ScheduleReport {
    /// Tasks completed within the tick budget.
    pub completed: usize,
    /// Task abortions (greedy only: brown-outs mid-task).
    pub aborted: usize,
    /// Energy invested in aborted runs — gone for nothing.
    pub wasted_energy: Joules,
    /// Total energy income over the run.
    pub harvested: Joules,
    /// Ticks until the last completion (or the tick budget).
    pub(crate) makespan_ticks: usize,
    /// Total energy of the *completed* tasks — work actually retired.
    pub(crate) completed_energy: Joules,
}

impl ScheduleReport {
    /// Completions per harvested joule — the figure of merit of
    /// Fig. 3's holistic view.
    pub fn completions_per_joule(&self) -> f64 {
        if self.harvested.0 <= 0.0 {
            0.0
        } else {
            self.completed as f64 / self.harvested.0
        }
    }
}

#[derive(Debug, Clone)]
struct Running {
    task: TaskId,
    ticks_left: usize,
    energy_per_tick: Joules,
    invested: Joules,
    /// Greedy pays per tick; token runs are prepaid.
    prepaid: bool,
}

/// Common engine: the policy decides starts; the engine moves energy.
#[derive(Debug, Clone)]
struct Engine {
    graph: TaskGraph,
    compiled: CompiledGraph,
    reservoir: Joules,
    capacity: Joules,
    running: Vec<Running>,
    started: Vec<bool>,
    done: Vec<bool>,
    ticks_per_task: Vec<usize>,
    report: ScheduleReport,
    concurrency: usize,
}

impl Engine {
    fn new(graph: TaskGraph, capacity: Joules, concurrency: usize, tick_seconds: f64) -> Self {
        assert!(capacity.0 > 0.0, "reservoir capacity must be positive");
        assert!(concurrency > 0, "need at least one execution slot");
        assert!(tick_seconds > 0.0, "tick must be positive");
        let compiled = graph.compile();
        let n = graph.len();
        let ticks_per_task = graph
            .ids()
            .map(|t| (graph.task(t).duration.0 / tick_seconds).ceil().max(1.0) as usize)
            .collect();
        Self {
            compiled,
            reservoir: Joules(0.0),
            capacity,
            running: Vec::new(),
            started: vec![false; n],
            done: vec![false; n],
            ticks_per_task,
            report: ScheduleReport::default(),
            concurrency,
            graph,
        }
    }

    fn ready_tasks(&self) -> Vec<TaskId> {
        self.graph
            .ids()
            .filter(|t| {
                !self.started[t.index()]
                    && self
                        .compiled
                        .net
                        .logically_enabled(self.compiled.transition_of[t.index()])
            })
            .collect()
    }

    fn harvest(&mut self, income: Joules) {
        self.report.harvested += income;
        self.reservoir = (self.reservoir + income).min(self.capacity);
    }

    fn start(&mut self, task: TaskId, prepaid: bool) {
        let ticks = self.ticks_per_task[task.index()];
        let energy = self.graph.task(task).energy;
        if prepaid {
            debug_assert!(self.reservoir >= energy);
            self.reservoir -= energy;
        }
        self.started[task.index()] = true;
        self.running.push(Running {
            task,
            ticks_left: ticks,
            energy_per_tick: energy / ticks as f64,
            invested: if prepaid { energy } else { Joules(0.0) },
            prepaid,
        });
    }

    /// Advances running tasks one tick; returns completions this tick.
    fn advance(&mut self, tick: usize) -> usize {
        let mut completions = 0;
        let mut still_running = Vec::with_capacity(self.running.len());
        let running = std::mem::take(&mut self.running);
        for mut r in running {
            if !r.prepaid {
                if self.reservoir >= r.energy_per_tick {
                    self.reservoir -= r.energy_per_tick;
                    r.invested += r.energy_per_tick;
                } else {
                    // Brown-out: the run dies, investment wasted.
                    self.report.aborted += 1;
                    self.report.wasted_energy += r.invested;
                    self.started[r.task.index()] = false;
                    continue;
                }
            }
            r.ticks_left -= 1;
            if r.ticks_left == 0 {
                self.done[r.task.index()] = true;
                let mut infinite = Joules(f64::INFINITY);
                self.compiled
                    .net
                    .fire(self.compiled.transition_of[r.task.index()], &mut infinite)
                    .expect("completion transition must be enabled");
                self.report.completed += 1;
                self.report.completed_energy += self.graph.task(r.task).energy;
                self.report.makespan_ticks = tick + 1;
                completions += 1;
            } else {
                still_running.push(r);
            }
        }
        self.running = still_running;
        completions
    }
}

/// The energy-token policy: bank the full quantum, then run.
#[derive(Debug, Clone)]
pub struct EnergyTokenScheduler;

/// The eager policy: start as soon as dependencies allow, pay as you go.
#[derive(Debug, Clone)]
pub struct GreedyScheduler;

impl EnergyTokenScheduler {
    /// Runs `graph` for at most `max_ticks`, harvesting
    /// `income_per_tick(t)` each tick into a reservoir of `capacity`,
    /// with at most `concurrency` tasks in flight. `tick_seconds`
    /// converts task durations to ticks. Each free slot goes to the first
    /// ready task, in insertion (dependency) order, whose quantum is on
    /// hand.
    pub fn run(
        graph: TaskGraph,
        capacity: Joules,
        concurrency: usize,
        tick_seconds: f64,
        max_ticks: usize,
        mut income_per_tick: impl FnMut(usize) -> Joules,
    ) -> ScheduleReport {
        let mut e = Engine::new(graph, capacity, concurrency, tick_seconds);
        for tick in 0..max_ticks {
            e.harvest(income_per_tick(tick));
            // Bank-and-start: only tasks whose full quantum is on hand.
            while e.running.len() < e.concurrency {
                let affordable = e
                    .ready_tasks()
                    .into_iter()
                    .find(|t| e.graph.task(*t).energy <= e.reservoir);
                match affordable {
                    Some(t) => e.start(t, true),
                    None => break,
                }
            }
            e.advance(tick);
            if e.report.completed == e.graph.len() {
                break;
            }
        }
        e.report
    }
}

impl GreedyScheduler {
    /// Runs `graph` with the eager policy (see
    /// [`EnergyTokenScheduler::run`] for the parameters).
    pub fn run(
        graph: TaskGraph,
        capacity: Joules,
        concurrency: usize,
        tick_seconds: f64,
        max_ticks: usize,
        mut income_per_tick: impl FnMut(usize) -> Joules,
    ) -> ScheduleReport {
        let mut e = Engine::new(graph, capacity, concurrency, tick_seconds);
        for tick in 0..max_ticks {
            e.harvest(income_per_tick(tick));
            while e.running.len() < e.concurrency {
                match e.ready_tasks().first().copied() {
                    Some(t) => e.start(t, false),
                    None => break,
                }
            }
            e.advance(tick);
            if e.report.completed == e.graph.len() {
                break;
            }
        }
        e.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emc_units::Seconds;

    fn workload() -> TaskGraph {
        TaskGraph::fork_join(4, 3, Joules(10e-6), Seconds(4.0))
    }

    #[test]
    fn abundant_energy_completes_everything_both_ways() {
        let income = |_| Joules(100e-6);
        let a = EnergyTokenScheduler::run(workload(), Joules(1e-3), 4, 1.0, 10_000, income);
        let b = GreedyScheduler::run(workload(), Joules(1e-3), 4, 1.0, 10_000, income);
        assert_eq!(a.completed, 12);
        assert_eq!(b.completed, 12);
        assert_eq!(b.aborted, 0);
        // Greedy never waits to bank: at least as fast.
        assert!(b.makespan_ticks <= a.makespan_ticks);
    }

    #[test]
    fn sporadic_income_wastes_greedy_energy() {
        // Income arrives in rare bursts far apart relative to task
        // duration: greedy starts on a burst, then browns out.
        let income = |t: usize| {
            if t.is_multiple_of(40) {
                Joules(12e-6)
            } else {
                Joules(0.3e-6)
            }
        };
        let token = EnergyTokenScheduler::run(workload(), Joules(40e-6), 2, 1.0, 4_000, income);
        let greedy = GreedyScheduler::run(workload(), Joules(40e-6), 2, 1.0, 4_000, income);
        assert!(greedy.aborted > 0, "greedy should brown out");
        assert!(greedy.wasted_energy.0 > 0.0);
        assert_eq!(token.aborted, 0, "token runs are prepaid");
        assert_eq!(token.wasted_energy.0, 0.0);
        assert!(
            token.completed >= greedy.completed,
            "token {} vs greedy {} completions",
            token.completed,
            greedy.completed
        );
        assert!(token.completions_per_joule() >= greedy.completions_per_joule());
    }

    #[test]
    fn dependencies_are_respected() {
        // Serial chain: completions can only appear one after another.
        let mut g = TaskGraph::new();
        let a = g.add_task("a", Joules(1e-6), Seconds(2.0), &[]);
        let b = g.add_task("b", Joules(1e-6), Seconds(2.0), &[a]);
        let _c = g.add_task("c", Joules(1e-6), Seconds(2.0), &[b]);
        let r = EnergyTokenScheduler::run(g, Joules(1e-3), 4, 1.0, 100, |_| Joules(10e-6));
        assert_eq!(r.completed, 3);
        // Three serial 2-tick tasks cannot finish before tick 6.
        assert!(r.makespan_ticks >= 6, "makespan {}", r.makespan_ticks);
    }

    #[test]
    fn concurrency_limit_enforced() {
        // 3 independent 10-tick tasks, 1 slot: makespan ≥ 30 ticks.
        let mut g = TaskGraph::new();
        for i in 0..3 {
            let _ = g.add_task(&format!("t{i}"), Joules(1e-6), Seconds(10.0), &[]);
        }
        let r = EnergyTokenScheduler::run(g, Joules(1e-3), 1, 1.0, 1_000, |_| Joules(10e-6));
        assert_eq!(r.completed, 3);
        assert!(r.makespan_ticks >= 30);
    }

    #[test]
    fn starvation_completes_nothing() {
        let r = EnergyTokenScheduler::run(workload(), Joules(1e-3), 4, 1.0, 100, |_| Joules(0.0));
        assert_eq!(r.completed, 0);
        assert_eq!(r.completions_per_joule(), 0.0);
    }

    #[test]
    fn reservoir_capacity_caps_banking() {
        // Capacity below a single quantum: the token scheduler can never
        // bank enough and completes nothing; greedy limps through
        // pay-as-you-go.
        let income = |_| Joules(5e-6);
        let token = EnergyTokenScheduler::run(workload(), Joules(8e-6), 1, 1.0, 2_000, income);
        assert_eq!(token.completed, 0, "cannot bank a 10 µJ quantum in 8 µJ");
        let greedy = GreedyScheduler::run(workload(), Joules(8e-6), 1, 1.0, 2_000, income);
        assert!(greedy.completed > 0);
    }
}
