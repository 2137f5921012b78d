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
//! the campaign digests asserted identical — the report this binary
//! prints is byte-identical at any thread count.
//!
//! On failure the offending plan is shrunk to a local minimum
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
//! byte-identically (`export ∘ import ∘ export` idempotence). The same
//! 1/2/8-thread digest sweep applies; a failing mutant is written to
//! `crates/gen/tests/fixtures/` and the process exits non-zero.
//!
//! Flags: `--smoke` (small generation bounds and budgets, for the
//! tier-1 gate), `--seeds N` (default 32), `--seed BASE` (default
//! 2011), `--import DIR` (mutate an existing corpus instead of
//! generating), `--out PATH` (also write the report to a file). A bad
//! command line exits 2 with a usage line; a failed check exits 1.

use std::sync::Mutex;

use emc_bench::cli::{Flags, UsageError};
use emc_gen::{check_generated, shrink, CheckOptions, GenBounds, Plan};
use emc_prng::{Rng, SplitMix64, StdRng};
use emc_sim::campaign::{run_campaign, CampaignConfig, RunContext, RunReport};

struct Args {
    smoke: bool,
    seeds: usize,
    seed: u64,
    /// `--import DIR`: the directory and its `.emcnet` files.
    import: Option<(String, Vec<(String, String)>)>,
    out: Option<String>,
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
            "--out" => args.out = Some(flags.value(&flag)?),
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

fn fixture_path(seed: u64) -> std::path::PathBuf {
    std::path::Path::new("crates/gen/tests/fixtures").join(format!("fuzz_seed{seed:016x}.emcnet"))
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
struct ImportOutcome {
    parsed: bool,
    valid: bool,
    roundtrip: bool,
    gates: usize,
    failure: Option<String>,
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
            roundtrip: false,
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
                roundtrip: failure.is_none(),
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

/// The `--import` entry point: corpus-mutation fuzzing over the
/// `.emcnet` `files` read from `dir`, thread-sweep asserted like the
/// generative mode. Exits non-zero after writing the mutant on failure.
fn run_import(args: &Args, dir: &str, files: &[(String, String)]) {
    println!(
        "== emc-fuzz — corpus mutation ({} files from {dir}, {} seeds, base {}) ==",
        files.len(),
        args.seeds,
        args.seed
    );

    let failures: Mutex<Vec<(u64, String, String)>> = Mutex::new(Vec::new());
    let jobs: Vec<usize> = (0..args.seeds).collect();
    let worker = |_: &usize, ctx: &RunContext| -> RunReport {
        let file_ix = (ctx.seed % files.len() as u64) as usize;
        let mut rng = StdRng::seed_from_u64(ctx.seed);
        let (mutant, muts) = mutate_text(&files[file_ix].1, &mut rng);
        // A panic anywhere in the oracle is exactly the bug class this
        // mode hunts; catch it so the sweep completes and the mutant
        // can be written out.
        let outcome = std::panic::catch_unwind(|| import_oracle(&mutant));
        let (parsed, valid, roundtrip, gates, ok) = match &outcome {
            Err(_) => {
                failures.lock().expect("failure list poisoned").push((
                    ctx.seed,
                    "oracle panicked on mutant".to_string(),
                    mutant.clone(),
                ));
                (false, false, false, 0, false)
            }
            Ok(o) => {
                if let Some(f) = &o.failure {
                    failures.lock().expect("failure list poisoned").push((
                        ctx.seed,
                        f.clone(),
                        mutant.clone(),
                    ));
                }
                (o.parsed, o.valid, o.roundtrip, o.gates, o.failure.is_none())
            }
        };
        RunReport::from_values(
            ctx,
            vec![
                file_ix as f64,
                muts.len() as f64,
                f64::from(u8::from(parsed)),
                f64::from(u8::from(valid)),
                f64::from(u8::from(roundtrip)),
                gates as f64,
                f64::from(u8::from(ok && outcome.is_ok())),
            ],
        )
    };

    let mut reference = None;
    let mut final_report = None;
    for threads in [1usize, 2, 8] {
        failures.lock().expect("failure list poisoned").clear();
        let cfg = CampaignConfig::new(args.seed).threads(threads);
        let report = run_campaign(&jobs, &cfg, worker);
        let digest = report.digest();
        match reference {
            None => reference = Some(digest),
            Some(r) => assert_eq!(
                r, digest,
                "campaign digest diverged at {threads} threads — determinism broken"
            ),
        }
        println!(
            "  sweep {threads}t: digest {digest:#018x} in {:.2} ms",
            report.wall_clock.as_secs_f64() * 1e3
        );
        final_report = Some(report);
    }
    let report = final_report.expect("at least one sweep ran");

    let mut text = String::new();
    let mut ok_count = 0usize;
    let mut rejected = 0usize;
    for run in &report.runs {
        let v = &run.values;
        let file = &files[v[0] as usize].0;
        let mut rng = StdRng::seed_from_u64(run.seed);
        let (_, muts) = mutate_text(&files[v[0] as usize].1, &mut rng);
        let ok = v[6] != 0.0;
        ok_count += usize::from(ok);
        rejected += usize::from(v[2] == 0.0);
        text.push_str(&format!(
            "seed {:016x} {:36} muts={:<36} gates={:4} {}\n",
            run.seed,
            file,
            muts.join(","),
            v[5] as u64,
            if v[2] == 0.0 {
                "parse-reject"
            } else if ok {
                "ok"
            } else {
                "FAIL"
            },
        ));
    }
    print!("{text}");
    println!(
        "  {}/{} mutants ok, {} cleanly rejected, campaign digest {:#018x}",
        ok_count,
        args.seeds,
        rejected,
        reference.expect("reference digest set")
    );

    if let Some(path) = &args.out {
        std::fs::write(path, &text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("  [saved {path}]");
    }

    let failed = failures.into_inner().expect("failure list poisoned");
    if let Some((seed, message, mutant)) = failed.first() {
        eprintln!("FAIL: seed {seed:016x}: {message}");
        let path = std::path::Path::new("crates/gen/tests/fixtures")
            .join(format!("import_seed{seed:016x}.emcnet"));
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let body = format!(
            "# emc-fuzz --import reproducer\n# seed {seed:016x}\n# failure {message}\n{mutant}"
        );
        match std::fs::write(&path, body) {
            Ok(()) => eprintln!("  failing mutant written to {}", path.display()),
            Err(e) => eprintln!("  could not write {}: {e}", path.display()),
        }
        std::process::exit(1);
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| e.exit());
    if let Some((dir, files)) = &args.import {
        run_import(&args, dir, files);
        return;
    }
    let (bounds, opts) = bounds_and_options(args.smoke);

    println!(
        "== emc-fuzz — generative differential fuzzing ({}, {} seeds, base {}) ==",
        if args.smoke { "smoke" } else { "full" },
        args.seeds,
        args.seed
    );

    let failures: Mutex<Vec<(u64, String)>> = Mutex::new(Vec::new());
    let jobs: Vec<usize> = (0..args.seeds).collect();
    let worker = |_: &usize, ctx: &RunContext| -> RunReport {
        let plan = Plan::from_seed(ctx.seed, &bounds);
        let gc = plan.build();
        // Zero-exploration pre-filter: a static error (rail short,
        // malformed netlist) is a generator bug the expensive
        // differential oracle need never see. Rejections are counted in
        // the report (value index 7) and still fail the run.
        let analysis = emc_analyze::analyze(&gc.netlist, &gc.initial);
        if analysis.has_errors() {
            let rules = analysis.distinct_rules();
            failures
                .lock()
                .expect("failure list poisoned")
                .push((ctx.seed, format!("static pre-filter rejected: {rules:?}")));
            return RunReport::from_values(
                ctx,
                vec![
                    gc.netlist.gate_count() as f64,
                    gc.netlist.net_count() as f64,
                    0.0,
                    0.0,
                    0.0,
                    0.0,
                    0.0,
                    1.0, // static_rejected
                ],
            );
        }
        let out = check_generated(&gc, ctx.seed, &opts);
        if let Some(f) = &out.failure {
            failures
                .lock()
                .expect("failure list poisoned")
                .push((ctx.seed, f.clone()));
        }
        RunReport::from_values(
            ctx,
            vec![
                out.gates as f64,
                out.nets as f64,
                out.verify_states as f64,
                f64::from(u8::from(out.verify_exhaustive)),
                f64::from_bits(out.digest),
                out.fired_total as f64,
                f64::from(u8::from(out.is_ok())),
                0.0, // static_rejected
            ],
        )
    };

    // The thread sweep is itself an assertion: the campaign digest (an
    // FNV fold over every run's values, in index order) must not depend
    // on the worker-thread count.
    let mut reference = None;
    let mut final_report = None;
    for threads in [1usize, 2, 8] {
        failures.lock().expect("failure list poisoned").clear();
        let cfg = CampaignConfig::new(args.seed).threads(threads);
        let report = run_campaign(&jobs, &cfg, worker);
        let digest = report.digest();
        match reference {
            None => reference = Some(digest),
            Some(r) => assert_eq!(
                r, digest,
                "campaign digest diverged at {threads} threads — determinism broken"
            ),
        }
        println!(
            "  sweep {threads}t: digest {digest:#018x} in {:.2} ms",
            report.wall_clock.as_secs_f64() * 1e3
        );
        final_report = Some(report);
    }
    let report = final_report.expect("at least one sweep ran");

    // The per-seed report, reconstructed from the index-ordered rows —
    // byte-identical at every thread count by the assertion above.
    let mut text = String::new();
    let mut ok_count = 0usize;
    let mut exhaustive_count = 0usize;
    let mut static_rejected = 0usize;
    for run in &report.runs {
        let seed = SplitMix64::mix(args.seed, run.index as u64);
        debug_assert_eq!(seed, run.seed);
        let plan = Plan::from_seed(run.seed, &bounds);
        let v = &run.values;
        let rejected = v[7] != 0.0;
        let ok = v[6] != 0.0;
        ok_count += usize::from(ok);
        exhaustive_count += usize::from(v[3] != 0.0);
        static_rejected += usize::from(rejected);
        text.push_str(&format!(
            "seed {:016x} {:28} gates={:5} states={:6} digest={:016x} {}\n",
            run.seed,
            plan.summary(),
            v[0] as u64,
            v[2] as u64,
            v[4].to_bits(),
            if rejected {
                "STATIC-REJECT"
            } else if ok {
                "ok"
            } else {
                "FAIL"
            },
        ));
    }
    print!("{text}");
    println!(
        "  {}/{} seeds ok, {} exhaustively verified, {} statically rejected, campaign digest {:#018x}",
        ok_count,
        args.seeds,
        exhaustive_count,
        static_rejected,
        reference.expect("reference digest set")
    );

    if let Some(path) = &args.out {
        std::fs::write(path, &text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("  [saved {path}]");
    }

    let failed = failures.into_inner().expect("failure list poisoned");
    if let Some((seed, message)) = failed.first() {
        eprintln!("FAIL: seed {seed:016x}: {message}");
        let plan = Plan::from_seed(*seed, &bounds);
        let minimal = shrink(plan, |p| !check_generated(&p.build(), *seed, &opts).is_ok());
        let gc = minimal.build();
        let out = check_generated(&gc, *seed, &opts);
        let path = fixture_path(*seed);
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let body = format!(
            "# emc-fuzz reproducer\n# seed {:016x}\n# plan {}\n# failure {}\n{}",
            seed,
            minimal.summary(),
            out.failure
                .as_deref()
                .unwrap_or("(no longer fails after shrink)"),
            emc_netlist::to_text(&gc.netlist)
        );
        match std::fs::write(&path, body) {
            Ok(()) => eprintln!("  minimal reproducer written to {}", path.display()),
            Err(e) => eprintln!("  could not write {}: {e}", path.display()),
        }
        std::process::exit(1);
    }
}
