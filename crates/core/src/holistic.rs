//! The holistic power-adaptive loop of the paper's Fig. 3: harvester →
//! storage → DC-DC → sensing → scheduling → computation, closed both
//! ways.

use emc_petri::TaskGraph;
use emc_power::{DcDcConverter, HarvestSource, PowerChain, StorageCap};
use emc_sched::{EnergyTokenScheduler, GreedyScheduler, ScheduleReport};
use emc_units::{Farads, Joules, Seconds, Volts, Watts, Waveform};

/// Result of one holistic run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HolisticReport {
    /// Tasks completed.
    pub completed: usize,
    /// Energy the harvester produced.
    pub harvested: Joules,
    /// Energy that reached the load rail.
    pub delivered: Joules,
    /// Energy invested in work that was thrown away (brown-outs).
    pub(crate) wasted: Joules,
    /// Completions per harvested joule — the "useful energy consumption
    /// … maximized for a given amount of energy produced" of Fig. 3.
    pub completions_per_joule: f64,
}

/// The experiment: the same task workload and the same harvest profile,
/// run through an *adaptive* (energy-token scheduling, rail matched to
/// the minimum-energy point) or *non-adaptive* (greedy scheduling at the
/// nominal rail) system.
#[derive(Debug, Clone)]
pub struct HolisticExperiment {
    /// Mean harvested power.
    pub income: Watts,
    /// Burst period of the (sporadic) harvest profile.
    pub burst_period: Seconds,
    /// Total simulated time.
    pub duration: Seconds,
}

impl HolisticExperiment {
    /// The default scenario: 30 µW average arriving in 50 ms bursts over
    /// 4 s.
    pub fn new_default() -> Self {
        Self {
            income: Watts(30e-6),
            burst_period: Seconds(50e-3),
            duration: Seconds(4.0),
        }
    }

    fn workload() -> TaskGraph {
        // 5 stages of 4 parallel tasks; each task needs 2 µJ at the rail
        // and nominally lasts 8 ms.
        TaskGraph::fork_join(5, 4, Joules(2e-6), Seconds(8e-3))
    }

    fn chain(&self, v_out: Volts) -> PowerChain {
        // Bursty harvest: the average is `income`, delivered in the first
        // fifth of every burst period.
        let period = self.burst_period.0;
        let peak = self.income.0 * 5.0;
        let profile = Waveform::steps(
            (0..((self.duration.0 / period).ceil() as usize))
                .flat_map(|k| {
                    [
                        (Seconds(k as f64 * period), peak),
                        (Seconds(k as f64 * period + period / 5.0), 0.0),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        PowerChain::new(
            HarvestSource::Profile(profile),
            StorageCap::new(Farads(22e-6), Volts(0.3), Volts(1.1)),
            DcDcConverter::new(v_out),
        )
    }

    /// Runs the experiment. `adaptive = true` uses the energy-token
    /// scheduler with the rail at the SRAM minimum-energy point (0.4 V —
    /// ops are cheap, so each task's rail-side quantum is small);
    /// `adaptive = false` uses the greedy scheduler at the 1 V nominal
    /// rail (each task costs `(1.0/0.4)² = 6.25×` more at the rail).
    pub fn run(&self, adaptive: bool) -> HolisticReport {
        let tick = Seconds(1e-3);
        let ticks = (self.duration.0 / tick.0) as usize;
        let (v_rail, energy_scale) = if adaptive {
            (Volts(0.4), 1.0)
        } else {
            // CV² at the nominal rail: same work, 6.25× the energy.
            (Volts(1.0), (1.0_f64 / 0.4).powi(2))
        };

        // Scale the workload's task energies to the rail.
        let mut graph = TaskGraph::new();
        {
            let base = Self::workload();
            let mut ids = Vec::new();
            for id in base.ids() {
                let t = base.task(id);
                let deps: Vec<_> = t.deps.iter().map(|d| ids[d.index()]).collect();
                let nid = graph.add_task(&t.name, t.energy * energy_scale, t.duration, &deps);
                ids.push(nid);
            }
        }

        // Drive the chain tick by tick; the delivered energy is the
        // scheduler's income.
        let mut chain = self.chain(v_rail);
        let total = graph.len();
        let run_sched = |income: &mut dyn FnMut(usize) -> Joules| -> ScheduleReport {
            if adaptive {
                EnergyTokenScheduler::run(graph.clone(), Joules(50e-6), 4, tick.0, ticks, income)
            } else {
                GreedyScheduler::run(graph.clone(), Joules(50e-6), 4, tick.0, ticks, income)
            }
        };
        // The load demand per tick: enough rail power for the active
        // tasks; we request a fixed draw matched to 4 concurrent tasks.
        let demand = Watts(4.0 * 2e-6 * energy_scale / 8e-3);
        let mut income_fn = |_t: usize| chain.tick(tick, demand);
        let report = run_sched(&mut income_fn);

        let chain_report = *chain.report();
        HolisticReport {
            completed: report.completed.min(total),
            harvested: chain_report.harvested,
            delivered: chain_report.delivered,
            wasted: report.wasted_energy,
            completions_per_joule: if chain_report.harvested.0 > 0.0 {
                report.completed as f64 / chain_report.harvested.0
            } else {
                0.0
            },
        }
    }
}

impl Default for HolisticExperiment {
    fn default() -> Self {
        Self::new_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_completes_more_per_joule() {
        let exp = HolisticExperiment::new_default();
        let adaptive = exp.run(true);
        let fixed = exp.run(false);
        assert!(
            adaptive.completions_per_joule > fixed.completions_per_joule,
            "adaptive {} vs fixed {} completions/J",
            adaptive.completions_per_joule,
            fixed.completions_per_joule
        );
        assert!(adaptive.completed >= fixed.completed);
    }

    #[test]
    fn adaptive_wastes_nothing() {
        let exp = HolisticExperiment::new_default();
        let adaptive = exp.run(true);
        assert_eq!(adaptive.wasted, Joules(0.0));
    }

    #[test]
    fn energy_accounting_is_sane() {
        let exp = HolisticExperiment::new_default();
        let r = exp.run(true);
        assert!(r.harvested.0 > 0.0);
        assert!(r.delivered.0 > 0.0);
        assert!(r.delivered <= r.harvested);
    }

    #[test]
    fn abundant_power_completes_everything_either_way() {
        let exp = HolisticExperiment {
            income: Watts(5e-3),
            burst_period: Seconds(50e-3),
            duration: Seconds(2.0),
        };
        let adaptive = exp.run(true);
        let fixed = exp.run(false);
        assert_eq!(adaptive.completed, 20);
        assert_eq!(fixed.completed, 20);
    }
}
