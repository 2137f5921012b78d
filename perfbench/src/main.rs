//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--commit ID]`
//!
//! Runs one workload for about `S` seconds and prints a text report
//! whose last line is the JSON result; failed checks are reported there,
//! not through the exit code. Exits 2 on a usage error.

use std::process::ExitCode;

use perfbench::host::Host;
use perfbench::pins::pins_for;
use perfbench::{report, run, Config, Size, Workload};

const USAGE: &str = "usage: perfbench --workload ac_counter|wchb_array|si_verify|fleet \
                     --seed N --seconds S --trace 0|1 [--commit ID]";

fn parse(args: &[String], nproc: usize) -> Result<(Config, String), String> {
    let mut workload = None;
    let mut seed = perfbench::DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut commit = "unknown".to_owned();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--commit" => commit = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let config = Config {
        workload,
        seed,
        seconds,
        trace,
        size: Size::Full,
        // PDES and the fleet run at 2 worker threads, never more than nproc.
        threads: nproc.min(2),
        min_iterations: if trace { 4 } else { 3 },
    };
    Ok((config, commit))
}

fn main() -> ExitCode {
    let host = Host::detect();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (config, commit) = match parse(&args, host.host_threads) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let pins = pins_for(config.size, config.seed);
    let outcome = run(&config, &pins);
    print!("{}", report::render(&outcome, &host, &commit));
    ExitCode::SUCCESS
}
