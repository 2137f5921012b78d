//! The text report and the final JSON line.

use std::fmt::Write as _;

use crate::host::Host;
use crate::span::IterationTotals;
use crate::speed;
use crate::stats::{median, Timing};
use crate::Outcome;

/// End-to-end metrics, `(name, unit)`, printed by untraced runs.
pub const END_TO_END: [(&str, &str); 4] = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
];

/// Layers whose `Run`-phase self time is a per-layer metric, named
/// `<layer>.self_s`. The benchmark's own drive loop, layer `bench`, is
/// reported as `driver_s`.
pub const RUN_LAYERS: [(&str, &str); 5] = [
    ("sim", "sim.self_s"),
    ("sim.pdes", "sim.pdes.self_s"),
    ("verify", "verify.self_s"),
    ("verify.reduce", "verify.reduce.self_s"),
    ("fleet", "fleet.self_s"),
];

/// Per-layer metrics, `(name, unit)`, printed by traced runs. A layer
/// that does no work in a workload reports 0 there.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("sim.run_until_s", "s"),
    ("sim.ns_per_event", "ns"),
    ("sim.events", "count"),
    ("sim.trace_entries", "count"),
    ("sim.queue_high_water", "count"),
    ("sim.digest_s", "s"),
    ("async.build_s", "s"),
    ("netlist.freeze_s", "s"),
    ("sim.new_s", "s"),
    ("gen.build_s", "s"),
    ("sim.pdes.new_s", "s"),
    ("sim.pdes.run_until_s", "s"),
    ("sim.pdes.ns_per_event", "ns"),
    ("sim.pdes.trace_merge_s", "s"),
    ("sim.pdes.speedup", "ratio"),
    ("sim.pdes.sync_rounds", "count"),
    ("sim.pdes.crossing_events", "count"),
    ("sim.pdes.stalled_epochs", "count"),
    ("driver_s", "s"),
    ("verify.new_s", "s"),
    ("verify.full_explore_s", "s"),
    ("verify.full_ns_per_state", "ns"),
    ("verify.full_states", "count"),
    ("verify.full_transitions", "count"),
    ("verify.full_peak_rss_mb", "MB"),
    ("verify.reduce_build_s", "s"),
    ("verify.reduced_explore_s", "s"),
    ("verify.reduced_ns_per_state", "ns"),
    ("verify.reduced_states", "count"),
    ("verify.reduced_transitions", "count"),
    ("verify.reduced_peak_rss_mb", "MB"),
    ("verify.state_ratio_2x3", "ratio"),
    ("verify.reduce.skipped_transitions", "count"),
    ("verify.reduce.proviso_expansions", "count"),
    ("fleet.run_fleet_s", "s"),
    ("fleet.ns_per_node_epoch", "ns"),
    ("fleet.calibrate_s", "s"),
    ("fleet.topology_s", "s"),
    ("fleet.events", "count"),
    ("fleet.wakes", "count"),
    ("fleet.deliveries", "count"),
    ("fleet.inflight", "count"),
    ("fleet.shards", "count"),
    ("sim.self_s", "s"),
    ("sim.pdes.self_s", "s"),
    ("verify.self_s", "s"),
    ("verify.reduce.self_s", "s"),
    ("fleet.self_s", "s"),
    ("trace.run_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
];

/// A number as JSON: every digit Rust prints for it, 0 if not finite.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// What the traced half of a run adds: layer self times and the tracing
/// overhead, which is traced minus untraced `run_s` in this process, both
/// rescaled like the end-to-end `run_s`.
fn trace_metrics(o: &Outcome) -> Vec<(&'static str, f64)> {
    let rec = &o.recorder;
    let run_s = |traced: bool| -> f64 {
        let v: Vec<f64> = rec
            .iterations()
            .iter()
            .enumerate()
            .filter(|(_, t)| t.traced == traced)
            .map(|(i, t)| t.run_s * o.reference.factor(i))
            .collect();
        median(&v)
    };
    let (traced, untraced) = (run_s(true), run_s(false));
    let layers = layer_medians(o);
    let mut out: Vec<(&'static str, f64)> = RUN_LAYERS
        .iter()
        .map(|&(layer, name)| {
            let own = layers.iter().find(|(l, _)| l == layer).map_or(0.0, |v| v.1);
            (name, own)
        })
        .collect();
    out.push(("trace.run_s", traced));
    out.push(("trace.untraced_run_s", untraced));
    out.push(("trace.overhead_s", traced - untraced));
    let share = if untraced > 0.0 {
        (traced - untraced) / untraced
    } else {
        0.0
    };
    out.push(("trace.overhead_share", share));
    out
}

/// Median self wall seconds of every layer over the traced iterations.
fn layer_medians(o: &Outcome) -> Vec<(String, f64)> {
    let layers = o.recorder.layer_self_times();
    let mut names: Vec<&String> = layers.iter().flat_map(|m| m.keys()).collect();
    names.sort();
    names.dedup();
    names
        .into_iter()
        .map(|name| {
            let v: Vec<f64> = layers
                .iter()
                .map(|m| m.get(name).copied().unwrap_or(0.0))
                .collect();
            (name.clone(), median(&v))
        })
        .collect()
}

/// The full report: host line, workload, timings, checks, the layer
/// table when traced, and the JSON result as the last line.
pub fn render(o: &Outcome, host: &Host, commit: &str) -> String {
    let c = &o.config;
    let rec = &o.recorder;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "host {{\"host_threads\": {}, \"cpu\": \"{}\", \"kernel\": \"{}\", \"rustc\": \"{}\", \
         \"commit\": \"{}\", \"seed\": {}, \"worker_threads\": {}}}",
        host.host_threads,
        esc(&host.cpu),
        esc(&host.kernel),
        esc(&host.rustc),
        esc(commit),
        c.seed,
        c.threads
    );
    let _ = writeln!(s, "workload {}: {}", c.workload.name(), o.work);

    // End-to-end figures come from untraced iterations only, with CPU
    // seconds rescaled to the nominal host speed (`speed`).
    let untraced: Vec<(f64, &IterationTotals)> = rec
        .iterations()
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.traced)
        .map(|(i, t)| (o.reference.factor(i), t))
        .collect();
    let timing = |field: fn(&IterationTotals) -> f64, rescale: bool| {
        let v: Vec<f64> = untraced
            .iter()
            .map(|&(f, t)| field(t) * if rescale { f } else { 1.0 })
            .collect();
        Timing::of(&v)
    };
    let (run_t, setup_t) = (timing(|t| t.run_s, true), timing(|t| t.setup_s, true));
    let _ = writeln!(
        s,
        "run_s        {} (CPU at nominal host speed)",
        run_t.describe("s")
    );
    let _ = writeln!(
        s,
        "setup_s      {} (CPU at nominal host speed)",
        setup_t.describe("s")
    );
    let _ = writeln!(
        s,
        "reference    {} (hash-set kernel, CPU; nominal {} s)",
        Timing::of(&o.reference.timings()).describe("s"),
        speed::NOMINAL_S
    );
    let _ = writeln!(
        s,
        "run CPU      {}",
        timing(|t| t.run_s, false).describe("s")
    );
    let _ = writeln!(
        s,
        "setup CPU    {}",
        timing(|t| t.setup_s, false).describe("s")
    );
    let _ = writeln!(
        s,
        "run wall     {}",
        timing(|t| t.run_wall_s, false).describe("s")
    );
    let _ = writeln!(
        s,
        "setup wall   {}",
        timing(|t| t.setup_wall_s, false).describe("s")
    );
    let ch = &o.checks;
    let pass_ratio = (ch.attempted - ch.failed) as f64 / ch.attempted.max(1) as f64;
    let _ = writeln!(s, "peak_rss_mb {} MB (VmHWM)", o.peak_rss_mb);
    let _ = writeln!(
        s,
        "pass_ratio {pass_ratio}: {} of {} checked operations passed (fail_ratio {})",
        ch.attempted - ch.failed,
        ch.attempted,
        ch.failed as f64 / ch.attempted.max(1) as f64
    );
    for line in &ch.outputs {
        let _ = writeln!(s, "output {line}");
    }
    for line in &ch.failures {
        let _ = writeln!(s, "FAILED {line}");
    }

    let metrics: Vec<(&str, &str, f64)> = if c.trace {
        let mut values = o.per_layer.clone();
        values.extend(trace_metrics(o));
        let traced: Vec<f64> = rec
            .iterations()
            .iter()
            .filter(|t| t.traced)
            .map(|t| t.run_wall_s)
            .collect();
        let traced_wall = median(&traced).max(f64::MIN_POSITIVE);
        let _ = writeln!(
            s,
            "layer self time, wall, median of {} traced iterations ({} spans), and share of \
             the traced wall run time {traced_wall} s:",
            traced.len(),
            rec.spans().len()
        );
        let mut covered = 0.0;
        for (layer, own) in layer_medians(o) {
            covered += own;
            let share = 100.0 * own / traced_wall;
            let _ = writeln!(s, "  {layer:<14} {own:.6} s  {share:.1}%");
        }
        let _ = writeln!(
            s,
            "  (layers cover {:.1}% of it)",
            100.0 * covered / traced_wall
        );
        for (name, v) in &values {
            if name.starts_with("trace.") {
                let _ = writeln!(s, "{name} {v}");
            }
        }
        PER_LAYER
            .iter()
            .map(|&(n, u)| {
                let v = values.iter().find(|(m, _)| *m == n).map_or(0.0, |v| v.1);
                (n, u, v)
            })
            .collect()
    } else {
        let values = [run_t.median, setup_t.median, o.peak_rss_mb, pass_ratio];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, u, v))
            .collect()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    let _ = writeln!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ch.failed == 0 && ch.attempted > 0,
        ch.attempted,
        ch.failed,
        body.join(", ")
    );
    s
}
