//! Micro-probe for the PDES benchmark rig: builds an R×C WCHB array and
//! times the build, the sequential-oracle setup, and the driven run in
//! isolation, so build-path and event-kernel regressions can be told
//! apart without a full benchmark run. (This probe is how the
//! quadratic `Netlist::mark_output` was isolated: build time at
//! 512×500 was 156 s before the fix, ~1 s after, while the event
//! kernel was healthy all along.)
//!
//! The drive line reports ns per event and the run's canonical trace
//! digest, so a size sweep measures the event loop's cache residency on
//! a checked run: `pdes_probe 8 500 8 12` (16k gates) against
//! `pdes_probe 128 500 8 12` (256k gates) fires the same events per
//! gate, and each digest must repeat from build to build.
//!
//! Usage: `pdes_probe [rows] [cols] [parts] [ticks]`

use emc_bench::{drive_array, pdes_array, pdes_sequential};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let arg = |i: usize, default: usize| -> usize {
        args.get(i).map_or(default, |s| {
            s.parse().unwrap_or_else(|_| panic!("bad argument '{s}'"))
        })
    };
    let rows = arg(1, 64);
    let cols = arg(2, 100);
    let parts = arg(3, 8);
    let ticks = arg(4, 6);
    let t0 = Instant::now();
    let rig = pdes_array(rows, cols, parts);
    println!(
        "build: {} gates in {:?}",
        rig.netlist.gate_count(),
        t0.elapsed()
    );
    let t0 = Instant::now();
    let mut sim = pdes_sequential(&rig);
    println!("seq setup: {:?}", t0.elapsed());
    let t0 = Instant::now();
    let fired = drive_array(&mut sim, &rig, ticks);
    let secs = t0.elapsed().as_secs_f64();
    println!(
        "seq drive: {fired} events in {secs:.3} s ({:.0} ev/s, {:.1} ns/event), digest {:#018x}",
        fired as f64 / secs,
        secs / fired as f64 * 1e9,
        sim.trace().canonical_digest()
    );
}
