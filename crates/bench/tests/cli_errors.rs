//! The command-line error contract of the `emc-*` tools and the
//! campaign-backed figure binaries: an unknown flag, a flag missing its
//! value, a value that does not parse or is out of range, an `--import`
//! directory without a readable corpus, an `--out` path that cannot be
//! created, or an argument that is not UTF-8, exits with status 2 and a
//! usage line on stderr, before any work starts, and never panics. A
//! stdout closed by its reader changes no tool's exit status either.

use std::ffi::OsStr;
use std::fmt::Debug;
use std::process::Command;

fn assert_usage_error<A: AsRef<OsStr> + Debug>(bin: &str, args: &[A]) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let name = std::path::Path::new(bin)
        .file_stem()
        .and_then(|s| s.to_str())
        .expect("binary name");
    let what = format!("{name} {args:?}");
    assert_eq!(out.status.code(), Some(2), "{what}: stderr {stderr}");
    assert!(stderr.starts_with("error: "), "{what}: stderr {stderr}");
    assert!(
        stderr.contains(&format!("usage: {name} ")),
        "{what}: stderr {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{what}: stderr {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{what}: work started before the error"
    );
}

/// The three malformed command lines every binary must reject.
fn assert_rejects_malformed(bin: &str, valued_flag: &str) {
    assert_usage_error(bin, &["--frobnicate"]);
    assert_usage_error(bin, &["--smoke", valued_flag]);
    assert_usage_error(bin, &[valued_flag, "many"]);
}

#[test]
fn emc_lint_rejects_bad_flags() {
    let bin = env!("CARGO_BIN_EXE_emc-lint");
    assert_rejects_malformed(bin, "--threads");
    assert_usage_error(bin, &["--seed", "-1"]);
}

#[test]
fn emc_stats_rejects_bad_flags_scenarios_and_format_pairs() {
    let bin = env!("CARGO_BIN_EXE_emc-stats");
    assert_rejects_malformed(bin, "--seed");
    assert_usage_error(bin, &["--scenario", "nope"]);
    assert_usage_error(bin, &["--json", "--prom"]);
    assert_usage_error(bin, &["--chrome-trace", "--chrome-trace"]);
}

#[test]
fn emc_fuzz_rejects_bad_flags() {
    let bin = env!("CARGO_BIN_EXE_emc-fuzz");
    assert_rejects_malformed(bin, "--seeds");
    assert_usage_error(bin, &["--smoke", "--import"]);
    assert_usage_error(bin, &["--import", "no/such/corpus"]);
    let no_emcnet = concat!(env!("CARGO_MANIFEST_DIR"), "/src");
    assert_usage_error(bin, &["--import", no_emcnet]);
}

#[test]
fn emc_fleet_rejects_bad_flags_and_out_of_range_values() {
    let bin = env!("CARGO_BIN_EXE_emc-fleet");
    assert_rejects_malformed(bin, "--nodes");
    for drought in [
        "5:2:0.5",
        "1:3:nan",
        "1:2",
        "1:2:3:0.5",
        "1:2:1.5",
        "1:2:-0.1",
    ] {
        assert_usage_error(bin, &["--smoke", "--threads", "1", "--drought", drought]);
    }
    assert_usage_error(bin, &["--nodes", "0", "--threads", "1"]);
    assert_usage_error(bin, &["--epochs", "0", "--threads", "1"]);
    assert_usage_error(bin, &["--topology", "star"]);
}

/// A path whose parent is a regular file, so it can never be created.
const UNWRITABLE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/report.out");

#[test]
fn an_unwritable_out_path_is_a_usage_error() {
    for (bin, args) in [
        (
            env!("CARGO_BIN_EXE_emc-stats"),
            &["--scenario", "sensor", "--json"][..],
        ),
        (env!("CARGO_BIN_EXE_emc-fleet"), &["--threads", "1"]),
        (env!("CARGO_BIN_EXE_emc-fuzz"), &["--seeds", "2"]),
    ] {
        assert_usage_error(bin, &[&["--smoke"], args, &["--out", UNWRITABLE]].concat());
    }
}

#[cfg(unix)]
#[test]
fn a_non_utf8_argument_is_a_usage_error() {
    use std::os::unix::ffi::OsStrExt;
    let arg = OsStr::from_bytes(b"--seed\xff");
    assert_usage_error(env!("CARGO_BIN_EXE_emc-lint"), &[arg]);
}

/// Each tool, and a campaign, a plain and an ablation figure binary,
/// writing to a pipe whose read end is already closed, as under
/// `| head -c 20` once `head` has exited: the output is dropped, the
/// run finishes with the status it would have had (0 for these passing
/// runs), and nothing panics.
#[test]
fn a_closed_stdout_keeps_the_exit_status() {
    for (bin, args) in [
        (
            env!("CARGO_BIN_EXE_emc-fleet"),
            &["--smoke", "--threads", "1", "--json"][..],
        ),
        (
            env!("CARGO_BIN_EXE_emc-fleet"),
            &["--smoke", "--threads", "1"],
        ),
        (env!("CARGO_BIN_EXE_emc-lint"), &["--smoke"]),
        (env!("CARGO_BIN_EXE_emc-lint"), &["--smoke", "--json"]),
        (env!("CARGO_BIN_EXE_emc-lint"), &["--static"]),
        (env!("CARGO_BIN_EXE_emc-fuzz"), &["--smoke", "--seeds", "4"]),
        (
            env!("CARGO_BIN_EXE_emc-stats"),
            &["--smoke", "--scenario", "verify", "--json"],
        ),
        (
            env!("CARGO_BIN_EXE_fig02_qos_vs_power"),
            &["--smoke", "--threads", "1"],
        ),
        (env!("CARGO_BIN_EXE_fig06_handshake_trace"), &[]),
        (
            env!("CARGO_BIN_EXE_ablation_fault_injection"),
            &["--smoke", "--threads", "1"],
        ),
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(bin)
            .args(args)
            .stdout(writer)
            .output()
            .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        let what = format!("{bin} {args:?}");
        assert_eq!(out.status.code(), Some(0), "{what}: stderr {stderr}");
        assert!(!stderr.contains("panicked"), "{what}: stderr {stderr}");
    }
}

#[test]
fn campaign_binaries_reject_bad_flags() {
    assert_rejects_malformed(env!("CARGO_BIN_EXE_fig02_qos_vs_power"), "--threads");
}
