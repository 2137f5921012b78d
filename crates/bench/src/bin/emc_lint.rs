//! `emc-lint` — run the full `emc-verify` rule set over every built-in
//! circuit plus the known-bad fixtures, as a deterministic parallel
//! campaign.
//!
//! ```text
//! emc-lint [--smoke] [--static] [--threads N] [--seed S] [--json]
//! ```
//!
//! * `--smoke` shrinks the parametric circuits (CI gate);
//! * `--static` runs the zero-exploration `emc-analyze` tier instead of
//!   exhaustive verification: every built-in, every known-bad fixture
//!   and every pinned `.emcnet` corpus file is analyzed structurally
//!   and checked against pinned static rule sets;
//! * `--threads N` changes wall-clock only — the reports and the
//!   campaign digest are byte-identical for any worker count;
//! * `--json` emits one JSON object per circuit (a JSON array on
//!   stdout) and nothing else, for tooling.
//!
//! Exit status is 1 if any speed-independent built-in circuit reports
//! an error (or an unexpected warning), or if a known-bad fixture fails
//! to reproduce its golden rule set — so the binary is its own
//! regression test in both tiers. A bad command line exits 2 with a
//! usage line.

use emc_bench::cli::{Flags, UsageError};
use emc_bench::print_campaign_summary;
use emc_sim::campaign::CampaignConfig;
use emc_verify::builtin::{broken_suite, builtin_suite};
use emc_verify::{verify_suite, Circuit, Report, Verifier};

struct Args {
    smoke: bool,
    static_tier: bool,
    threads: usize,
    seed: u64,
    json: bool,
}

fn parse_args() -> Result<Args, UsageError> {
    let mut flags = Flags::from_env("[--smoke] [--static] [--threads N] [--seed S] [--json]")?;
    let mut out = Args {
        smoke: false,
        static_tier: false,
        threads: 0,
        seed: 2011,
        json: false,
    };
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--smoke" => out.smoke = true,
            "--static" => out.static_tier = true,
            "--json" => out.json = true,
            "--threads" => out.threads = flags.value(&flag)?,
            "--seed" => out.seed = flags.value(&flag)?,
            _ => return Err(flags.unknown(&flag)),
        }
    }
    Ok(out)
}

/// Pinned static rule sets for the named circuits the `--static` tier
/// analyzes. Corpus `.emcnet` files are not listed: for those the gate
/// is "no error-severity finding".
const STATIC_GOLDEN: &[(&str, &[&str])] = &[
    ("counter", &[]),
    ("wchb", &["SA004", "SA005"]),
    ("micropipeline", &["SA005"]),
    ("bundled", &["SA004", "TA001"]),
    ("sram", &["SA004", "SA005"]),
    ("adder", &["SA001", "SA004"]),
    ("hazard_glitch", &["SA004"]),
    ("dual_rail_short", &["CD001", "SA006"]),
    ("unbundled_sram", &["SA004", "TA001"]),
    (
        "structural_mess",
        &["NET001", "NET002", "NET003", "SA004", "SA005"],
    ),
];

/// The zero-exploration tier: run `emc_analyze::analyze` over the
/// built-ins, the known-bad fixtures, and the pinned generator corpus,
/// then self-check against [`STATIC_GOLDEN`].
fn run_static(args: &Args) -> ! {
    let mut rows: Vec<(String, emc_analyze::Analysis)> = Vec::new();
    for circuit in builtin_suite(args.smoke) {
        let a = emc_analyze::analyze(&circuit.netlist, &circuit.initial);
        rows.push((circuit.name.clone(), a));
    }
    for (circuit, _) in broken_suite() {
        let a = emc_analyze::analyze(&circuit.netlist, &circuit.initial);
        rows.push((circuit.name.clone(), a));
    }
    // The pinned corpus: every committed `.emcnet` fixture, in name
    // order so output is deterministic.
    let corpus_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../gen/tests/fixtures");
    let mut corpus: Vec<std::path::PathBuf> = std::fs::read_dir(corpus_dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|e| e == "emcnet"))
                .collect()
        })
        .unwrap_or_default();
    corpus.sort();
    let mut corpus_names: Vec<String> = Vec::new();
    for path in &corpus {
        let text = std::fs::read_to_string(path).expect("read corpus fixture");
        let netlist =
            emc_netlist::from_text(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("corpus")
            .to_string();
        corpus_names.push(name.clone());
        rows.push((name, emc_analyze::analyze(&netlist, &[])));
    }

    if args.json {
        let body: Vec<String> = rows
            .iter()
            .map(|(name, a)| {
                let rules: Vec<String> =
                    a.distinct_rules().iter().map(|r| format!("{r:?}")).collect();
                format!(
                    "{{\"circuit\":{name:?},\"findings\":{},\"rules\":[{}],\"orbit_groups\":{},\"interfering_pairs\":{}}}",
                    a.diagnostics.len(),
                    rules.join(","),
                    a.orbits.group_count(),
                    a.interference.pair_count(),
                )
            })
            .collect();
        println!("[{}]", body.join(","));
    } else {
        println!(
            "emc-lint --static: {} circuit(s), zero exploration",
            rows.len()
        );
        for (name, a) in &rows {
            println!(
                "  {:<28} {:>3} finding(s)  rules {:?}  orbits {} group(s)",
                name,
                a.diagnostics.len(),
                a.distinct_rules(),
                a.orbits.group_count(),
            );
        }
    }

    let mut failures = Vec::new();
    for (name, a) in &rows {
        if let Some((_, expected)) = STATIC_GOLDEN.iter().find(|(n, _)| n == name) {
            let rules = a.distinct_rules();
            if rules != *expected {
                failures.push(format!(
                    "{name}: expected static rules {expected:?}, got {rules:?}"
                ));
            }
        } else if corpus_names.iter().any(|n| n == name) {
            if a.has_errors() {
                failures.push(format!(
                    "{name}: corpus fixture has static errors: {:?}",
                    a.distinct_rules()
                ));
            }
        } else {
            failures.push(format!("{name}: no pinned static expectation"));
        }
    }
    if corpus_names.is_empty() {
        failures.push(format!("no corpus fixtures found under {corpus_dir}"));
    }
    if !failures.is_empty() {
        eprintln!("emc-lint --static: golden self-check FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    if !args.json {
        println!("emc-lint --static: OK — all static rule sets match the pinned goldens");
    }
    std::process::exit(0);
}

/// The golden expectation for one circuit: clean with exactly these
/// warning rules (built-ins), or exactly this distinct rule set
/// (fixtures).
enum Expect {
    CleanWithWarnings(&'static [&'static str]),
    ExactRules(&'static [&'static str]),
}

fn check(report: &Report, expect: &Expect) -> Result<(), String> {
    match expect {
        Expect::CleanWithWarnings(warn_rules) => {
            if !report.is_clean() {
                return Err(format!(
                    "{}: expected clean, got {} error(s)",
                    report.circuit,
                    report.errors()
                ));
            }
            if !report.exhaustive {
                return Err(format!("{}: exploration was capped", report.circuit));
            }
            let rules = report.distinct_rules();
            if rules != *warn_rules {
                return Err(format!(
                    "{}: expected warnings {warn_rules:?}, got {rules:?}",
                    report.circuit
                ));
            }
            Ok(())
        }
        Expect::ExactRules(expected) => {
            let rules = report.distinct_rules();
            if rules != *expected {
                return Err(format!(
                    "{}: expected rules {expected:?}, got {rules:?}",
                    report.circuit
                ));
            }
            Ok(())
        }
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| e.exit());
    if args.static_tier {
        run_static(&args);
    }

    let mut circuits: Vec<Circuit<'static>> = Vec::new();
    let mut expectations: Vec<Expect> = Vec::new();
    for circuit in builtin_suite(args.smoke) {
        let warns: &'static [&'static str] = if circuit.name == "bundled" {
            &["TA001"]
        } else {
            &[]
        };
        expectations.push(Expect::CleanWithWarnings(warns));
        circuits.push(circuit);
    }
    for (circuit, rules) in broken_suite() {
        expectations.push(Expect::ExactRules(rules));
        circuits.push(circuit);
    }

    let verifier = Verifier::new();
    let config = CampaignConfig::new(args.seed).threads(args.threads);
    let (reports, campaign) = verify_suite(&circuits, &verifier, &config);

    if args.json {
        // Machine output: a JSON array, nothing else (no timings or
        // thread counts, so the bytes are invocation-invariant).
        let body: Vec<String> = reports.iter().map(Report::to_json).collect();
        println!("[{}]", body.join(","));
    } else {
        println!("emc-lint: {} circuit(s)", reports.len());
        for report in &reports {
            println!(
                "  {:<16} {:>6} state(s)  {} error(s), {} warning(s), {} note(s){}",
                report.circuit,
                report.states,
                report.errors(),
                report.warnings(),
                report.infos(),
                if report.exhaustive { "" } else { "  [capped]" },
            );
            for d in &report.diagnostics {
                println!("    {d}");
            }
        }
        print_campaign_summary(&campaign);
    }

    let mut failures = Vec::new();
    for (report, expect) in reports.iter().zip(&expectations) {
        if let Err(e) = check(report, expect) {
            failures.push(e);
        }
    }
    if !failures.is_empty() {
        eprintln!("emc-lint: golden self-check FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    if !args.json {
        println!("emc-lint: OK — all speed-independent circuits clean, all fixtures reproduce");
    }
}
