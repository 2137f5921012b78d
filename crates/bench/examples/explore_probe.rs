//! Micro-probe for the speed-independence explorer: explores
//! `pipelined_array(rows, cols)` in full and with POR and orbit
//! reduction, and prints each run's states, transitions, wall-clock ns
//! per state, verdict and key width (the bytes the state store keeps
//! per visited state, besides its index table), plus the reduction's
//! work counters (stubborn-set cache hits and misses, proviso
//! expansions, canonical rewrites). Last it prints the process's peak
//! resident set (`VmHWM` from `/proc/self/status`, where there is one).
//! It measures one rung of a size ladder without a benchmark run:
//! `explore_probe 2 3` and `explore_probe 3 2` are the `si_verify`
//! benchmark's arrays, and `explore_probe 2 4` the next rung. Timings
//! include the telemetry counters' own cost; the counts are exact and
//! repeat from run to run.
//!
//! Usage: `explore_probe ROWS COLS [CAP]` (default cap 4,000,000 states)

use emc_bench::peak_rss_kib;
use emc_gen::pipelined_array;
use emc_verify::Explorer;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let arg = |i: usize, default: Option<usize>| -> usize {
        match args.get(i) {
            Some(s) => s.parse().unwrap_or_else(|_| panic!("bad argument '{s}'")),
            None => default.unwrap_or_else(|| panic!("usage: explore_probe ROWS COLS [CAP]")),
        }
    };
    let (rows, cols, cap) = (arg(1, None), arg(2, None), arg(3, Some(4_000_000)));
    let c = pipelined_array(rows, cols, "pa").verify_circuit();
    let footprint = c.footprint.as_ref().expect("arrays declare a footprint");
    println!(
        "{}: {} gates, {} nets, cap {cap} states",
        c.name,
        c.netlist.gate_count(),
        c.netlist.net_count()
    );
    for reduced in [false, true] {
        let mut ex = Explorer::new(&c.netlist, &c.env, &c.initial, cap);
        if reduced {
            ex = ex.with_reduction(footprint);
        }
        let t0 = Instant::now();
        let (out, t) = ex.explore_with_telemetry();
        let secs = t0.elapsed().as_secs_f64();
        let count = |id: &str| t.metrics.counter_value(id).unwrap_or(0);
        let mut rules: Vec<&str> = out.diagnostics.iter().map(|d| d.rule).collect();
        rules.sort_unstable();
        rules.dedup();
        println!(
            "{}: {} states, {} transitions, {secs:.3} s ({:.0} ns/state), key {} B/state, {}, {}",
            if reduced { "reduced" } else { "full" },
            out.states,
            count("verify.transitions_applied"),
            secs / out.states as f64 * 1e9,
            8 * ex.key_words(),
            if out.exhaustive {
                "exhaustive"
            } else {
                "capped"
            },
            if rules.is_empty() {
                "clean".to_owned()
            } else {
                rules.join(",")
            }
        );
        if reduced {
            println!(
                "  select cache {} hits / {} misses, {} proviso expansions, {} canonical rewrites",
                count("verify.reduce.select_cache_hits"),
                count("verify.reduce.select_cache_misses"),
                count("verify.reduce.proviso_expansions"),
                count("verify.reduce.canonical_rewrites")
            );
        }
    }
    match peak_rss_kib() {
        Some(kib) => println!("peak RSS (VmHWM): {:.1} MiB", kib as f64 / 1024.0),
        None => println!("peak RSS (VmHWM): unavailable"),
    }
}
