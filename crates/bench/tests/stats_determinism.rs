//! The `emc-stats` determinism contract: exported telemetry is a pure
//! function of scenario + seed, so stdout is **byte-identical at any
//! `--threads` count** and across repeated invocations.

use std::process::Command;

fn stats(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_emc-stats"))
        .args(args)
        .output()
        .expect("run emc-stats");
    assert!(
        out.status.success(),
        "emc-stats {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("emc-stats output is UTF-8")
}

#[test]
fn campaign_jsonl_is_thread_count_invariant() {
    let at = |threads: &'static str| {
        stats(&[
            "--smoke",
            "--json",
            "--scenario",
            "campaign",
            "--threads",
            threads,
        ])
    };
    let t1 = at("1");
    let t2 = at("2");
    let t8 = at("8");
    assert!(!t1.is_empty());
    assert_eq!(
        t1, t2,
        "campaign telemetry diverged between 1 and 2 threads"
    );
    assert_eq!(
        t1, t8,
        "campaign telemetry diverged between 1 and 8 threads"
    );
}

#[test]
fn full_scenario_jsonl_is_reproducible_across_threads() {
    let a = stats(&["--smoke", "--json", "--threads", "1"]);
    let b = stats(&["--smoke", "--json", "--threads", "2"]);
    assert_eq!(a, b, "merged all-scenario telemetry is thread-dependent");
    // Every subsystem contributed to the merged bundle.
    for needle in [
        "\"id\":\"sim.events_fired\"",
        "\"id\":\"verify.states_popped\"",
        "\"id\":\"sram.reads\"",
        "\"id\":\"sensor.conversions\"",
        "\"account\":\"chain/harvested\"",
        "\"id\":\"fleet.wakes\"",
        "\"account\":\"fleet/harvested\"",
        "\"type\":\"span\"",
    ] {
        assert!(a.contains(needle), "JSONL lacks {needle}");
    }
}

#[test]
fn seed_changes_move_the_output() {
    let a = stats(&["--smoke", "--json", "--scenario", "sram", "--seed", "1"]);
    let b = stats(&["--smoke", "--json", "--scenario", "sram", "--seed", "2"]);
    assert_ne!(a, b, "seed is not reaching the sram workload");
}

#[test]
fn chrome_trace_and_prometheus_render() {
    let trace = stats(&["--smoke", "--chrome-trace", "--scenario", "sram"]);
    assert!(trace.starts_with("{\"traceEvents\":["));
    assert!(trace.trim_end().ends_with('}'));
    assert!(trace.contains("\"cat\":\"sram\""));

    let prom = stats(&["--smoke", "--prom", "--scenario", "sim"]);
    assert!(prom.contains("# TYPE emc_sim_events_fired counter"));
    assert!(prom.contains("emc_sim_queue_depth_bucket"));
}
