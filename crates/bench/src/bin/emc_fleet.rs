//! `emc-fleet` — the fleet-scale simulation front-end.
//!
//! Simulates a fleet of harvester-powered sensor nodes (see
//! `crates/fleet`): per-node power chains, calibrated self-timed
//! islands, message passing over a latency topology, energy-token task
//! admission and game-theoretic duty arbitration — sharded across the
//! campaign worker pool.
//!
//! By default the run is repeated at 1, 2 and 8 worker threads and the
//! report digests (and JSON bytes) are asserted identical — the same
//! self-checking sweep `emc-fuzz` performs. Pass `--threads N` to run
//! once at a fixed worker count instead.
//!
//! Flags:
//! * `--nodes N` (default 10000), `--epochs N` (default 50), each at
//!   least 1
//! * `--topology ring|grid|clustered` (default ring)
//! * `--seed N` (default 2011), `--threads N` (0 = available)
//! * `--drought FROM:UNTIL:FACTOR` — throttle every harvester to
//!   FACTOR, in `[0, 1]`, from epoch FROM until epoch UNTIL ≥ FROM (the
//!   EXPERIMENTS.md QoS sweep)
//! * `--smoke` — tiny fleet, sparse calibration (tier-1 gate)
//! * `--json` — print the full deterministic report JSON
//! * `--out PATH` — also write the JSON to a file
//!
//! A bad command line exits 2 with a usage line, before any work.

use std::num::{NonZeroU32, NonZeroU64};

use emc_bench::cli::{Flags, UsageError};
use emc_fleet::{run_fleet, CalibDepth, DroughtSpec, FleetConfig, FleetReport, TopologyKind};

struct Args {
    nodes: u32,
    epochs: u64,
    topology: TopologyKind,
    seed: u64,
    threads: Option<usize>,
    drought: Option<DroughtSpec>,
    smoke: bool,
    json: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, UsageError> {
    let mut flags = Flags::from_env(
        "[--nodes N] [--epochs N] [--topology ring|grid|clustered] [--seed S] [--threads N] \
         [--drought FROM:UNTIL:FACTOR] [--smoke] [--json] [--out PATH]",
    )?;
    let mut args = Args {
        nodes: 10_000,
        epochs: 50,
        topology: TopologyKind::Ring,
        seed: 2011,
        threads: None,
        drought: None,
        smoke: false,
        json: false,
        out: None,
    };
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--nodes" => args.nodes = flags.value::<NonZeroU32>(&flag)?.get(),
            "--epochs" => args.epochs = flags.value::<NonZeroU64>(&flag)?.get(),
            "--topology" => {
                let v: String = flags.value(&flag)?;
                args.topology = TopologyKind::parse(&v).ok_or_else(|| {
                    flags.error(format!(
                        "--topology {v:?}: expected ring, grid or clustered"
                    ))
                })?;
            }
            "--seed" => args.seed = flags.value(&flag)?,
            "--threads" => args.threads = Some(flags.value(&flag)?),
            "--drought" => {
                let v: String = flags.value(&flag)?;
                args.drought = Some(parse_drought(&v).ok_or_else(|| {
                    flags.error(format!(
                        "--drought {v:?}: expected FROM:UNTIL:FACTOR with epochs \
                         FROM <= UNTIL and FACTOR in [0, 1]"
                    ))
                })?);
            }
            "--smoke" => args.smoke = true,
            "--json" => args.json = true,
            "--out" => args.out = Some(flags.value(&flag)?),
            _ => return Err(flags.unknown(&flag)),
        }
    }
    Ok(args)
}

/// `FROM:UNTIL:FACTOR`, with `FROM <= UNTIL` and `FACTOR` in `[0, 1]`
/// (the range [`DroughtSpec::factor`] documents).
fn parse_drought(v: &str) -> Option<DroughtSpec> {
    let mut parts = v.split(':');
    let spec = DroughtSpec {
        from_epoch: parts.next()?.parse().ok()?,
        until_epoch: parts.next()?.parse().ok()?,
        factor: parts.next()?.parse().ok()?,
    };
    let valid = parts.next().is_none()
        && spec.from_epoch <= spec.until_epoch
        && (0.0..=1.0).contains(&spec.factor);
    valid.then_some(spec)
}

fn print_summary(report: &FleetReport) {
    let secs = report.wall.as_secs_f64();
    let node_epochs = report.nodes as u64 * report.epochs;
    println!(
        "  {} nodes x {} epochs ({} shards, {} topology): {} wakes, {} deliveries in {:.3} s",
        report.nodes,
        report.epochs,
        report.shards,
        report.topology,
        report.wakes,
        report.deliveries,
        secs
    );
    println!(
        "    {:.0} node-epochs/s, {:.0} fleet events/s",
        node_epochs as f64 / secs.max(1e-9),
        report.events() as f64 / secs.max(1e-9)
    );
    println!(
        "    tasks {}/{} completed ({} refused), msgs {} sent / {} received / {} dropped / {} in flight",
        report.summary.completed,
        report.summary.expected,
        report.summary.refused,
        report.summary.sent,
        report.summary.received,
        report.summary.dropped,
        report.inflight
    );
    for c in &report.classes {
        println!(
            "    class {:<9} {:>7} nodes  qos {:.3}",
            c.name,
            c.nodes,
            c.qos()
        );
    }
    println!("    digest {:016x}", report.digest);
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| e.exit());
    let (nodes, epochs, calib) = if args.smoke {
        (400, 6, CalibDepth::Smoke)
    } else {
        (args.nodes, args.epochs, CalibDepth::Full)
    };
    let config = FleetConfig {
        nodes,
        epochs,
        epoch: 1_000_000,
        seed: args.seed,
        topology: args.topology,
        calib,
        drought: args.drought,
    };
    println!(
        "== emc-fleet — deterministic fleet simulation ({}, {} nodes, {} epochs, seed {}) ==",
        if args.smoke { "smoke" } else { "full" },
        config.nodes,
        config.epochs,
        config.seed
    );

    let report = match args.threads {
        Some(t) => {
            let report = run_fleet(&config, t);
            println!("  [threads {t}]");
            print_summary(&report);
            report
        }
        None => {
            // The thread sweep is itself an assertion: the fleet digest
            // and the full report JSON must not depend on the worker
            // thread count.
            let mut reference: Option<(u64, String)> = None;
            let mut last = None;
            for threads in [1usize, 2, 8] {
                let report = run_fleet(&config, threads);
                println!("  [sweep {threads}t: {:.3} s]", report.wall.as_secs_f64());
                match &reference {
                    None => reference = Some((report.digest, report.to_json())),
                    Some((digest, json)) => {
                        assert_eq!(
                            *digest, report.digest,
                            "fleet digest diverged at {threads} threads — determinism broken"
                        );
                        assert_eq!(
                            *json,
                            report.to_json(),
                            "fleet report JSON diverged at {threads} threads"
                        );
                    }
                }
                last = Some(report);
            }
            let report = last.expect("sweep ran");
            println!("  digest invariant held at 1/2/8 threads");
            print_summary(&report);
            report
        }
    };

    if args.json {
        print!("{}", report.to_json());
    }
    if let Some(path) = &args.out {
        std::fs::write(path, report.to_json())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("  [saved {path}]");
    }
}
