//! S2 — energy-token scheduling \[15\] versus eager scheduling under a
//! sporadic harvest: completions, abortions and wasted energy.

use emc_bench::{outln, Series};
use emc_petri::TaskGraph;
use emc_sched::{EnergyTokenScheduler, GreedyScheduler};
use emc_units::{Joules, Seconds};

fn main() {
    let mut s = Series::new(
        "ablation_energy_tokens",
        "token vs greedy scheduling across burst sparsity",
        &[
            "burst_every_ticks",
            "token_done",
            "greedy_done",
            "greedy_aborts",
            "greedy_wasted_uJ",
            "token_per_mJ",
            "greedy_per_mJ",
        ],
    );
    for burst_every in [10usize, 20, 40, 80, 160] {
        let workload = || TaskGraph::fork_join(4, 3, Joules(10e-6), Seconds(4.0));
        let income = move |t: usize| {
            if t.is_multiple_of(burst_every) {
                Joules(12e-6)
            } else {
                Joules(0.3e-6)
            }
        };
        let token = EnergyTokenScheduler::run(workload(), Joules(40e-6), 2, 1.0, 4_000, income);
        let greedy = GreedyScheduler::run(workload(), Joules(40e-6), 2, 1.0, 4_000, income);
        s.push(vec![
            burst_every as f64,
            token.completed as f64,
            greedy.completed as f64,
            greedy.aborted as f64,
            greedy.wasted_energy.0 * 1e6,
            token.completions_per_joule() * 1e-3,
            greedy.completions_per_joule() * 1e-3,
        ]);
    }
    s.emit();
    outln!("Shape check: as bursts get sparser the greedy scheduler browns");
    outln!("out more often and throws energy away; the energy-token policy");
    outln!("never aborts and keeps the higher completions-per-joule.");
}
