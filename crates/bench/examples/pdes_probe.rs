//! Micro-probe for the PDES benchmark rig: builds an R×C WCHB array and
//! times each phase of a `wchb_array`-style run in isolation — build,
//! freeze, the sequential oracle's set-up and drive, then a 2-thread
//! `PdesSimulator`'s set-up and drive — so build-path, memory and
//! event-kernel regressions can be told apart without a full benchmark
//! run. (This probe is how the quadratic `Netlist::mark_output` was
//! isolated: build time at 512×500 was 156 s before the fix, ~1 s
//! after, while the event kernel was healthy all along.)
//!
//! After each phase it prints the process's peak resident set (`VmHWM`
//! from `/proc/self/status`, where there is one), so the phase that
//! sets the peak is the first whose figure jumps. As in the benchmark,
//! the sequential simulator is dropped before the PDES set-up.
//!
//! The drive lines report ns per event and the run's canonical trace
//! digest, so a size sweep measures the event loop's cache residency on
//! a checked run: `pdes_probe 8 500 8 12` (16k gates) against
//! `pdes_probe 128 500 8 12` (256k gates) fires the same events per
//! gate, and each digest must repeat from build to build. The PDES leg
//! must fire the same events and reach the same digest as the
//! sequential one, or the probe panics.
//!
//! Usage: `pdes_probe [rows] [cols] [parts] [ticks]`

use emc_bench::{drive_array, pdes_array, pdes_parallel, pdes_sequential, peak_rss_kib};
use std::time::Instant;

/// Prints one phase's wall-clock time and the peak RSS so far.
fn phase(name: &str, t0: Instant, detail: &str) {
    let peak = peak_rss_kib().map_or("unavailable".to_owned(), |kib| {
        format!("{:.1} MiB", kib as f64 / 1024.0)
    });
    println!(
        "{name}: {:.3} s{detail}; peak RSS (VmHWM) {peak}",
        t0.elapsed().as_secs_f64()
    );
}

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
    let mut rig = pdes_array(rows, cols, parts);
    let gates = rig.netlist.gate_count();
    phase("build", t0, &format!(", {gates} gates"));
    let t0 = Instant::now();
    rig.netlist.freeze();
    phase("freeze", t0, "");

    let t0 = Instant::now();
    let mut sim = pdes_sequential(&rig);
    phase("seq setup", t0, "");
    let t0 = Instant::now();
    let fired = drive_array(&mut sim, &rig, ticks);
    let secs = t0.elapsed().as_secs_f64();
    let digest = sim.trace().canonical_digest();
    phase(
        "seq drive",
        t0,
        &format!(
            ", {fired} events ({:.0} ev/s, {:.1} ns/event), digest {digest:#018x}",
            fired as f64 / secs,
            secs / fired as f64 * 1e9,
        ),
    );
    drop(sim);

    let t0 = Instant::now();
    let mut par = pdes_parallel(&rig, 2, false);
    phase("pdes setup", t0, ", 2 threads");
    let t0 = Instant::now();
    let par_fired = drive_array(&mut par, &rig, ticks);
    let secs = t0.elapsed().as_secs_f64();
    let par_digest = par.trace().digest();
    phase(
        "pdes drive",
        t0,
        &format!(
            ", {par_fired} events ({:.1} ns/event), digest {par_digest:#018x}",
            secs / par_fired as f64 * 1e9,
        ),
    );
    assert_eq!(
        (par_fired, par_digest),
        (fired, digest),
        "PDES diverged from the sequential run"
    );
}
