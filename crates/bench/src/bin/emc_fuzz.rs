//! `emc-fuzz` — seeded generative differential fuzzing front-end.
//!
//! Per seed: draw a circuit plan ([`emc_gen::Plan::from_seed`]), build
//! it, and run the full [`emc_gen::check_generated`] pipeline —
//! structural validation, exhaustive speed-independence verification,
//! reachable-set membership of every simulated state, differential
//! simulation under nominal / sub-threshold / AC-sine Vdd schedules
//! with cross-schedule digest equality, and a byte-stable text
//! round-trip.
//!
//! Seeds are expanded through the campaign engine (splitmix64 per
//! index), and the whole sweep is run at 1, 2 and 8 worker threads with
//! the typed per-seed runs, failure messages included, asserted equal —
//! the report this binary prints is byte-identical at any thread count.
//!
//! On failure the first failing seed's plan is shrunk to a local minimum
//! (parameters stepped down, block lists bisected and thinned) and the
//! minimal netlist is written to `crates/gen/tests/fixtures/` with the
//! seed in the filename, then the process exits non-zero.
//!
//! `--import <dir>` switches to *corpus mutation* mode: every
//! `*.emcnet` file in the directory (sorted by name) becomes mutation
//! stock, and each campaign seed picks one file and applies 1–3 seeded
//! text-level mutations (input swaps, gate-kind flips, drive tweaks,
//! dropped outputs, truncation, token noise). The oracle: the mutated
//! text must either be *rejected* by the importer with a classified
//! error, or parse into a netlist on which `validate` and the static
//! analyzer run without panicking and whose canonical export reparses
//! byte-identically (`export ∘ import ∘ export` idempotence); a panic
//! in the oracle is a failure. The same 1/2/8-thread sweep applies; the
//! first failing mutant in seed order is written to
//! `crates/gen/tests/fixtures/` and the process exits non-zero.
//!
//! Flags: `--smoke` (small generation bounds and budgets, for the
//! tier-1 gate), `--seeds N` (default 32), `--seed BASE` (default
//! 2011), `--import DIR` (mutate an existing corpus instead of
//! generating), `--out PATH` (also write the per-seed rows to a file).
//! A bad command line, an unwritable `--out` included, exits 2 with a
//! usage line; a failed check exits 1.

use std::fmt::Debug;

use emc_bench::cli::{Flags, OutFile, UsageError};
use emc_bench::{out, outln};
use emc_gen::{check_generated, shrink, CheckOptions, CheckOutcome, GenBounds, Plan};
use emc_prng::{Rng, StdRng};
use emc_sim::campaign::{run_campaign, CampaignConfig};

struct Args {
    smoke: bool,
    seeds: usize,
    seed: u64,
    /// `--import DIR`: the directory and its `.emcnet` files.
    import: Option<(String, Vec<(String, String)>)>,
    out: Option<OutFile>,
}

fn parse_args() -> Result<Args, UsageError> {
    let mut flags =
        Flags::from_env("[--smoke] [--seeds N] [--seed BASE] [--import DIR] [--out PATH]")?;
    let mut args = Args {
        smoke: false,
        seeds: 32,
        seed: 2011,
        import: None,
        out: None,
    };
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            "--seeds" => args.seeds = flags.value(&flag)?,
            "--seed" => args.seed = flags.value(&flag)?,
            "--import" => {
                let dir: String = flags.value(&flag)?;
                let files =
                    read_corpus(&dir).map_err(|e| flags.error(format!("--import {dir:?}: {e}")))?;
                args.import = Some((dir, files));
            }
            "--out" => args.out = Some(flags.out_file(&flag)?),
            _ => return Err(flags.unknown(&flag)),
        }
    }
    Ok(args)
}

fn bounds_and_options(smoke: bool) -> (GenBounds, CheckOptions) {
    if smoke {
        (
            GenBounds::smoke(),
            CheckOptions {
                state_cap: 60_000,
                rounds: 6,
            },
        )
    } else {
        (
            GenBounds::full(),
            CheckOptions {
                state_cap: 200_000,
                rounds: 12,
            },
        )
    }
}

/// Gate-kind mnemonics the kind-flip mutation draws from (a mix of
/// arity-compatible and arity-breaking flips — both outcomes are
/// interesting to the importer).
const FLIP_KINDS: [&str; 10] = [
    "INPUT", "BUF", "INV", "AND", "NAND", "OR", "NOR", "XOR", "C", "TGL",
];

/// Junk tokens for the token-noise mutation.
const NOISE_TOKENS: [&str; 5] = ["q7", "FROB", "n999999", "-", "0x1"];

/// Replacement drive fields: some legal, some that must be rejected.
const DRIVE_TWEAKS: [&str; 6] = ["0", "-2", "0.25", "3.5", "1e309", "nope"];

/// Applies one seeded text-level mutation to `lines`, returning its
/// name, or `None` if no applicable site was found this attempt.
fn mutate_once(lines: &mut Vec<String>, rng: &mut StdRng) -> Option<&'static str> {
    let gate_lines: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].starts_with("g "))
        .collect();
    match rng.gen_range(0..6u32) {
        // Swap two input references on one gate line.
        0 => {
            let li = *pick(&gate_lines, rng)?;
            let mut parts: Vec<String> = lines[li].splitn(5, ' ').map(str::to_string).collect();
            let inputs: Vec<&str> = parts.get(3)?.split(',').collect();
            if inputs.len() < 2 {
                return None;
            }
            let a = rng.gen_range(0..inputs.len());
            let b = rng.gen_range(0..inputs.len());
            let mut swapped: Vec<&str> = inputs.clone();
            swapped.swap(a, b);
            parts[3] = swapped.join(",");
            lines[li] = parts.join(" ");
            Some("swap-inputs")
        }
        // Replace the gate kind with another mnemonic.
        1 => {
            let li = *pick(&gate_lines, rng)?;
            let mut parts: Vec<String> = lines[li].splitn(5, ' ').map(str::to_string).collect();
            if parts.len() < 4 {
                return None;
            }
            parts[1] = FLIP_KINDS[rng.gen_range(0..FLIP_KINDS.len())].to_string();
            lines[li] = parts.join(" ");
            Some("kind-flip")
        }
        // Replace the drive field.
        2 => {
            let li = *pick(&gate_lines, rng)?;
            let mut parts: Vec<String> = lines[li].splitn(5, ' ').map(str::to_string).collect();
            if parts.len() < 4 {
                return None;
            }
            parts[2] = DRIVE_TWEAKS[rng.gen_range(0..DRIVE_TWEAKS.len())].to_string();
            lines[li] = parts.join(" ");
            Some("drive-tweak")
        }
        // Drop one output mark.
        3 => {
            let out_lines: Vec<usize> = (0..lines.len())
                .filter(|&i| lines[i].starts_with("o "))
                .collect();
            let li = *pick(&out_lines, rng)?;
            lines.remove(li);
            Some("drop-output")
        }
        // Truncate the file at a random line.
        4 => {
            if lines.len() < 2 {
                return None;
            }
            lines.truncate(rng.gen_range(1..lines.len()));
            Some("truncate")
        }
        // Replace one whitespace-separated token with junk.
        _ => {
            let li = rng.gen_range(0..lines.len());
            let mut tokens: Vec<String> =
                lines[li].split_whitespace().map(str::to_string).collect();
            if tokens.is_empty() {
                return None;
            }
            let ti = rng.gen_range(0..tokens.len());
            tokens[ti] = NOISE_TOKENS[rng.gen_range(0..NOISE_TOKENS.len())].to_string();
            lines[li] = tokens.join(" ");
            Some("token-noise")
        }
    }
}

fn pick<'a, T>(items: &'a [T], rng: &mut StdRng) -> Option<&'a T> {
    if items.is_empty() {
        None
    } else {
        Some(&items[rng.gen_range(0..items.len())])
    }
}

/// Applies 1–3 seeded mutations and returns the mutant plus the names
/// of the mutations that actually landed.
fn mutate_text(text: &str, rng: &mut StdRng) -> (String, Vec<&'static str>) {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let wanted = rng.gen_range(1..=3usize);
    let mut applied = Vec::new();
    let mut attempts = 0;
    while applied.len() < wanted && attempts < 16 {
        attempts += 1;
        if let Some(name) = mutate_once(&mut lines, rng) {
            applied.push(name);
        }
    }
    (lines.join("\n") + "\n", applied)
}

/// What the import oracle observed on one mutant.
#[derive(Debug, PartialEq)]
struct ImportOutcome {
    parsed: bool,
    valid: bool,
    gates: usize,
    failure: Option<String>,
}

impl ImportOutcome {
    /// `ok`, `parse-reject` or `FAIL`. A failure never counts as a clean
    /// rejection, even when nothing was parsed.
    fn status(&self) -> &'static str {
        match (&self.failure, self.parsed) {
            (Some(_), _) => "FAIL",
            (None, true) => "ok",
            (None, false) => "parse-reject",
        }
    }
}

/// Runs `oracle`, turning a panic into a failure: a panic is exactly the
/// bug class the import mode hunts, and catching it lets the sweep
/// complete and the mutant be written out.
fn caught(oracle: impl FnOnce() -> ImportOutcome + std::panic::UnwindSafe) -> ImportOutcome {
    std::panic::catch_unwind(oracle).unwrap_or_else(|_| ImportOutcome {
        parsed: false,
        valid: false,
        gates: 0,
        failure: Some("oracle panicked on mutant".to_string()),
    })
}

/// The corpus-mutation oracle: a mutant must either be cleanly
/// rejected by the importer, or parse into a netlist that survives
/// `validate` + static analysis without panicking and whose canonical
/// export is a fixed point of `import ∘ export`.
fn import_oracle(text: &str) -> ImportOutcome {
    match emc_netlist::from_text(text) {
        Err(_) => ImportOutcome {
            parsed: false,
            valid: false,
            gates: 0,
            failure: None,
        },
        Ok(netlist) => {
            let issues = netlist.validate();
            let analysis = emc_analyze::analyze(&netlist, &[]);
            let valid = issues.is_empty() && !analysis.has_errors();
            let canonical = emc_netlist::to_text(&netlist);
            let failure = match emc_netlist::from_text(&canonical) {
                Err(e) => Some(format!("canonical export failed to reparse: {e}")),
                Ok(again) => (emc_netlist::to_text(&again) != canonical)
                    .then(|| "export-import-export is not idempotent".to_string()),
            };
            ImportOutcome {
                parsed: true,
                valid,
                gates: netlist.gate_count(),
                failure,
            }
        }
    }
}

/// Every `.emcnet` file in `dir` as `(file name, text)`, sorted by
/// name; an error if the directory or a file cannot be read, or if it
/// holds no `.emcnet` file.
fn read_corpus(dir: &str) -> Result<Vec<(String, String)>, String> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        let path = entry.map_err(|e| e.to_string())?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if path.extension().is_some_and(|e| e == "emcnet") {
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{name}: {e}"))?;
            files.push((name.to_string(), text));
        }
    }
    if files.is_empty() {
        return Err("no .emcnet files".to_string());
    }
    files.sort();
    Ok(files)
}

/// Runs `worker` on every seed of the campaign at 1, 2 and 8 worker
/// threads and returns the runs in seed order. The thread sweep is
/// itself an assertion: the typed runs must be equal at every count.
fn sweep<R: Send + PartialEq + Debug>(args: &Args, worker: impl Fn(u64) -> R + Sync) -> Vec<R> {
    let jobs = vec![(); args.seeds];
    let mut reference: Option<Vec<R>> = None;
    for threads in [1usize, 2, 8] {
        let cfg = CampaignConfig::new(args.seed).threads(threads);
        let report = run_campaign(&jobs, &cfg, |_, ctx| worker(ctx.seed));
        outln!(
            "  sweep {threads}t: {:.2} ms",
            report.wall_clock.as_secs_f64() * 1e3
        );
        match &reference {
            None => reference = Some(report.runs),
            Some(runs) => assert_eq!(
                *runs, report.runs,
                "runs diverged at {threads} threads — determinism broken"
            ),
        }
    }
    reference.expect("the sweep ran")
}

/// Prints the per-seed `rows` and the `summary` line, and writes the
/// rows to `--out`.
fn report(args: &Args, rows: &str, summary: &str) {
    out!("{rows}");
    outln!("  {summary}, identical at 1/2/8 threads");
    if let Some(out) = &args.out {
        out.write(rows);
        outln!("  [saved {}]", out.path);
    }
}

/// One seed of the corpus-mutation mode.
#[derive(Debug, PartialEq)]
struct ImportRun {
    seed: u64,
    /// Index of the mutated corpus file.
    file: usize,
    /// The mutations that landed.
    muts: Vec<&'static str>,
    mutant: String,
    outcome: ImportOutcome,
}

/// The `--import` entry point: corpus-mutation fuzzing over the
/// `.emcnet` `files` read from `dir`, thread-sweep asserted like the
/// generative mode. Exits non-zero after writing the first failing
/// mutant in seed order.
fn run_import(args: &Args, dir: &str, files: &[(String, String)]) {
    outln!(
        "== emc-fuzz — corpus mutation ({} files from {dir}, {} seeds, base {}) ==",
        files.len(),
        args.seeds,
        args.seed
    );
    let runs = sweep(args, |seed| {
        let file = (seed % files.len() as u64) as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let (mutant, muts) = mutate_text(&files[file].1, &mut rng);
        let outcome = caught(|| import_oracle(&mutant));
        ImportRun {
            seed,
            file,
            muts,
            mutant,
            outcome,
        }
    });

    let rows: String = runs
        .iter()
        .map(|run| {
            format!(
                "seed {:016x} {:36} muts={:<36} gates={:4} {}\n",
                run.seed,
                files[run.file].0,
                run.muts.join(","),
                run.outcome.gates,
                run.outcome.status(),
            )
        })
        .collect();
    let status = |want: &str| runs.iter().filter(|r| r.outcome.status() == want).count();
    let (ok, rejected) = (args.seeds - status("FAIL"), status("parse-reject"));
    report(
        args,
        &rows,
        &format!(
            "{ok}/{} mutants ok, {rejected} cleanly rejected",
            args.seeds
        ),
    );

    if let Some((run, message)) = runs
        .iter()
        .find_map(|r| Some((r, r.outcome.failure.as_deref()?)))
    {
        let seed = run.seed;
        eprintln!("FAIL: seed {seed:016x}: {message}");
        write_reproducer(
            &format!("import_seed{seed:016x}.emcnet"),
            "failing mutant",
            format!(
                "# emc-fuzz --import reproducer\n# seed {seed:016x}\n# failure {message}\n{}",
                run.mutant
            ),
        );
    }
}

/// Writes a failing seed's reproducer to `crates/gen/tests/fixtures/`
/// and exits with status 1.
fn write_reproducer(name: &str, what: &str, body: String) -> ! {
    let dir = std::path::Path::new("crates/gen/tests/fixtures");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(name);
    match std::fs::write(&path, body) {
        Ok(()) => eprintln!("  {what} written to {}", path.display()),
        Err(e) => eprintln!("  could not write {}: {e}", path.display()),
    }
    std::process::exit(1)
}

/// One seed of the generative mode.
#[derive(Debug, PartialEq)]
struct GenRun {
    seed: u64,
    /// The plan's [`Plan::summary`].
    plan: String,
    gates: usize,
    /// The differential oracle's outcome, or the static pre-filter's
    /// rejection.
    outcome: Result<CheckOutcome, String>,
}

impl GenRun {
    fn failure(&self) -> Option<&str> {
        match &self.outcome {
            Ok(out) => out.failure.as_deref(),
            Err(rejection) => Some(rejection),
        }
    }
}

/// The generative entry point. Exits non-zero after writing the shrunk
/// plan of the first failing seed in seed order.
fn run_generative(args: &Args) {
    let (bounds, opts) = bounds_and_options(args.smoke);
    outln!(
        "== emc-fuzz — generative differential fuzzing ({}, {} seeds, base {}) ==",
        if args.smoke { "smoke" } else { "full" },
        args.seeds,
        args.seed
    );
    let runs = sweep(args, |seed| {
        let plan = Plan::from_seed(seed, &bounds);
        let gc = plan.build();
        // Zero-exploration pre-filter: a static error (rail short,
        // malformed netlist) is a generator bug the expensive
        // differential oracle need never see. A rejection fails the run.
        let analysis = emc_analyze::analyze(&gc.netlist, &gc.initial);
        let outcome = if analysis.has_errors() {
            Err(format!(
                "static pre-filter rejected: {:?}",
                analysis.distinct_rules()
            ))
        } else {
            Ok(check_generated(&gc, seed, &opts))
        };
        GenRun {
            seed,
            plan: plan.summary(),
            gates: gc.netlist.gate_count(),
            outcome,
        }
    });

    let rows: String = runs
        .iter()
        .map(|run| {
            let (states, digest, status) = match &run.outcome {
                Err(_) => (0, 0, "STATIC-REJECT"),
                Ok(out) => (
                    out.verify_states,
                    out.digest,
                    if out.is_ok() { "ok" } else { "FAIL" },
                ),
            };
            format!(
                "seed {:016x} {:28} gates={:5} states={states:6} digest={digest:016x} {status}\n",
                run.seed, run.plan, run.gates,
            )
        })
        .collect();
    let checked = || runs.iter().filter_map(|r| r.outcome.as_ref().ok());
    let ok = checked().filter(|out| out.is_ok()).count();
    let exhaustive = checked().filter(|out| out.verify_exhaustive).count();
    let rejected = runs.iter().filter(|r| r.outcome.is_err()).count();
    report(
        args,
        &rows,
        &format!(
            "{ok}/{} seeds ok, {exhaustive} exhaustively verified, {rejected} statically rejected",
            args.seeds
        ),
    );

    if let Some((seed, message)) = runs.iter().find_map(|r| Some((r.seed, r.failure()?))) {
        eprintln!("FAIL: seed {seed:016x}: {message}");
        let plan = Plan::from_seed(seed, &bounds);
        let minimal = shrink(plan, |p| !check_generated(&p.build(), seed, &opts).is_ok());
        let gc = minimal.build();
        let out = check_generated(&gc, seed, &opts);
        write_reproducer(
            &format!("fuzz_seed{seed:016x}.emcnet"),
            "minimal reproducer",
            format!(
                "# emc-fuzz reproducer\n# seed {seed:016x}\n# plan {}\n# failure {}\n{}",
                minimal.summary(),
                out.failure
                    .as_deref()
                    .unwrap_or("(no longer fails after shrink)"),
                emc_netlist::to_text(&gc.netlist)
            ),
        );
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| e.exit());
    match &args.import {
        Some((dir, files)) => run_import(&args, dir, files),
        None => run_generative(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_oracle_fails_its_row_and_is_no_rejection() {
        let panicked = caught(|| panic!("oracle bug"));
        assert_eq!(panicked.status(), "FAIL");
        assert_eq!(
            panicked.failure.as_deref(),
            Some("oracle panicked on mutant")
        );
        assert_eq!(
            caught(|| import_oracle("g FROB\n")).status(),
            "parse-reject"
        );
        let parsed = |failure: Option<&str>| ImportOutcome {
            parsed: true,
            valid: true,
            gates: 3,
            failure: failure.map(str::to_string),
        };
        assert_eq!(parsed(None).status(), "ok");
        assert_eq!(parsed(Some("not idempotent")).status(), "FAIL");
    }
}
