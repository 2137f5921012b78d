//! Golden-equivalence suite for the hot-kernel rewrite: the figure
//! rigs' `Trace::digest` values and `emc-lint --json` bytes are pinned
//! here, and every simulator rig is run through the campaign engine at
//! 1, 2 and 8 worker threads — so an event reordered, a delay nudged,
//! or a scheduling-dependent seed mixup in *any* kernel change fails
//! this suite even when the end results still look plausible.
//!
//! If a deliberate model change moves a constant, regenerate with
//! `cargo test -p emc-bench --test golden_equivalence -- --ignored --nocapture`
//! and update it alongside the change that justified it.

use std::process::Command;

use emc_async::{DualRailAdder, SelfTimedOscillator, ToggleRippleCounter};
use emc_bench::{drive_array, pdes_array, pdes_parallel, pdes_sequential, PdesArray};
use emc_device::DeviceModel;
use emc_gen::{
    block_graph, completion_tree, dims_adder, micropipeline, pipelined_array,
    pipelined_array_domains, wchb_datapath, BlockSpec,
};
use emc_netlist::{GateKind, NetId, Netlist, Partitioned};
use emc_power::chain::ac_supply;
use emc_prng::{Rng, StdRng};
use emc_sim::campaign::{run_campaign, CampaignConfig, RunContext, RunReport};
use emc_sim::{Fnv64, Simulator, SupplyKind, Trace};
use emc_units::{Hertz, Seconds, Volts, Waveform};
use emc_verify::builtin::builtin_suite;

/// Fig. 4 rig (2-bit self-timed counter, AC 200 mV ± 100 mV at 1 MHz),
/// 10 supply periods.
const FIG04_DIGEST: u64 = 0xb3b7_d73d_66fa_a96b;

/// Fig. 6-style handshake rig: one four-phase addition on the 8-bit
/// DIMS dual-rail adder at a constant 0.5 V.
const FIG06_HANDSHAKE_DIGEST: u64 = 0xe9cb_a956_e39a_352c;

/// Fig. 7-style rig: 4-bit counter under the time-varying supply
/// 0.45 V ± 0.25 V at 2 MHz, 8 supply periods.
const FIG07_VARYING_VDD_DIGEST: u64 = 0x9dfd_9daf_8a9e_e8c1;

/// Seeded ring-oscillator bursts (campaign seed 0xE4C, runs 0..3): the
/// seed-consuming workload, one digest per run.
const SEEDED_RING_DIGESTS: [u64; 3] = [
    0x9281_77d7_5d32_afc4,
    0xd841_d98e_9882_9341,
    0xd34e_1b7e_db61_923c,
];

/// Deep-queue rig: a sequential drive of the 64×64-stage
/// `emc_bench::pdes_array` (8 Vdd domains, 3 driver ticks) with every
/// gate output watched. Its event queue peaks at rows × cols − 1 =
/// 4,095 pending events, so its recording-order trace digest pins the
/// pop order of a deep queue.
const DEEP_QUEUE_FIRED: u64 = 41_216;
const DEEP_QUEUE_DIGEST: u64 = 0xfb46_38dc_80c7_4d6d;

/// FNV-1a of `emc-lint --json --smoke` stdout bytes.
const LINT_JSON_DIGEST: u64 = 0x4b94_c385_f659_1c4e;

/// FNV-1a of `emc-lint --json` stdout bytes at full size, where the
/// micropipeline's STG conformance walk reaches 108 states (36 at smoke
/// size).
const LINT_FULL_JSON_DIGEST: u64 = 0xb450_b69b_19e5_3700;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// [`structure_digest`] of every netlist [`structure_cases`] builds, in
/// its order: the built-in suite at full size, one `emc-gen` circuit per
/// family, the `pdes_array(8, 50, 4)` rig and that rig's four
/// `Partitioned` slices.
const STRUCTURE_DIGESTS: [(&str, u64); 18] = [
    ("builtin/counter", 0xf032_7850_1b30_4fdd),
    ("builtin/wchb", 0x4e99_1d1e_3c06_e081),
    ("builtin/micropipeline", 0xafa8_54c5_beb4_c044),
    ("builtin/bundled", 0x6d30_11ce_f05d_bef2),
    ("builtin/sram", 0xe835_1805_d276_022c),
    ("builtin/adder", 0xb8c6_40b3_73ce_c090),
    ("gen/tree", 0x09d3_a649_3ad4_ca83),
    ("gen/wchb", 0x5d95_50b2_87c9_60e4),
    ("gen/adder", 0x012d_d8fb_3e93_d73a),
    ("gen/micropipeline", 0xb7aa_1df6_a48d_d591),
    ("gen/array", 0x4d3c_3482_31a5_e3a3),
    ("gen/array-domains", 0x66b6_c59a_b9ee_8771),
    ("gen/blocks", 0xdee6_895b_15a4_e657),
    ("pdes_array", 0xf510_d0a5_1db4_97ab),
    ("pdes_array/slice0", 0x1a3f_fcce_0419_90ca),
    ("pdes_array/slice1", 0xd498_0a73_3f1f_5f06),
    ("pdes_array/slice2", 0x11d9_307e_6cf6_3826),
    ("pdes_array/slice3", 0xf7db_a105_0ef2_e4da),
];

/// FNV-1a over the parts of the `pdes_array(8, 50, 4)` partition map
/// the slices do not hold: every global net's site.
const STRUCTURE_SITES_DIGEST: u64 = 0x1d74_134a_ae9b_b82d;

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

fn fig04_digest() -> u64 {
    let freq = Hertz(1e6);
    let mut nl = Netlist::new();
    let osc = SelfTimedOscillator::build(&mut nl, "osc");
    let counter = ToggleRippleCounter::build(&mut nl, 2, osc.output(), "cnt");
    let mut sim = Simulator::new(nl, DeviceModel::umc90());
    let supply = ac_supply(Volts(0.2), Volts(0.1), freq);
    let d = sim.add_domain(
        "ac",
        SupplyKind::ideal_with_resolution(supply, Seconds(freq.period().0 / 128.0)),
    );
    sim.assign_all(d);
    counter.watch(&mut sim);
    sim.watch(osc.output());
    osc.prime(&mut sim);
    sim.start();
    sim.run_until(Seconds(10.0 * freq.period().0));
    assert!(!sim.trace().is_empty(), "fig04 rig must run");
    sim.trace().digest()
}

fn fig06_handshake_digest() -> u64 {
    let mut nl = Netlist::new();
    let adder = DualRailAdder::build(&mut nl, 8, "add");
    let mut sim = Simulator::new(nl, DeviceModel::umc90());
    let d = sim.add_domain("vdd", SupplyKind::ideal(Waveform::constant(0.5)));
    sim.assign_all(d);
    sim.watch(adder.done());
    sim.watch(adder.carry_out().t);
    sim.watch(adder.carry_out().f);
    sim.start();
    sim.run_to_quiescence(100_000);
    let deadline = Seconds(sim.now().0 + 1.0);
    let sum = adder.add(&mut sim, 137, 85, deadline);
    assert_eq!(sum, Some(222), "the adder must complete its handshake");
    sim.run_to_quiescence(100_000);
    assert!(!sim.trace().is_empty(), "fig06 rig must run");
    sim.trace().digest()
}

fn fig07_varying_vdd_digest() -> u64 {
    let freq = Hertz(2e6);
    let mut nl = Netlist::new();
    let osc = SelfTimedOscillator::build(&mut nl, "osc");
    let counter = ToggleRippleCounter::build(&mut nl, 4, osc.output(), "cnt");
    let mut sim = Simulator::new(nl, DeviceModel::umc90());
    let supply = Waveform::sine(0.45, 0.25, freq, 0.0).clamped(0.0, 2.0);
    let d = sim.add_domain(
        "vdd",
        SupplyKind::ideal_with_resolution(supply, Seconds(freq.period().0 / 96.0)),
    );
    sim.assign_all(d);
    counter.watch(&mut sim);
    sim.watch(osc.output());
    osc.prime(&mut sim);
    sim.start();
    sim.run_until(Seconds(8.0 * freq.period().0));
    assert!(!sim.trace().is_empty(), "fig07 rig must run");
    sim.trace().digest()
}

fn deep_queue_rig() -> PdesArray {
    pdes_array(64, 64, 8)
}

/// Every gate output of the rig, so the trace also records the
/// start-up burst that fills the queue.
fn gate_outputs(rig: &PdesArray) -> Vec<NetId> {
    rig.netlist.iter_gates().map(|(_, g)| g.output()).collect()
}

/// Drives the deep-queue rig sequentially with observability on and
/// returns `(fired, trace, queue high-water mark)`.
fn deep_queue_run(rig: &PdesArray) -> (u64, Trace, f64) {
    let mut sim = pdes_sequential(rig);
    sim.enable_obs();
    for net in gate_outputs(rig) {
        sim.watch(net);
    }
    let fired = drive_array(&mut sim, rig, 3);
    let high_water = sim
        .telemetry()
        .metrics
        .gauge_value("sim.queue.high_water")
        .expect("observed run records its queue high-water mark");
    (fired, sim.trace().clone(), high_water)
}

/// The seed-consuming campaign worker: a ring oscillator perturbed by a
/// seed-derived burst of enable toggles (the shape the campaign
/// determinism suite pins).
fn seeded_ring_worker(_job: &u64, ctx: &RunContext) -> RunReport {
    let mut nl = Netlist::new();
    let en = nl.input("en");
    let g1 = nl.gate(GateKind::Nand, &[en, en], "g1");
    let g2 = nl.gate(GateKind::Inv, &[g1], "g2");
    let g3 = nl.gate(GateKind::Inv, &[g2], "g3");
    nl.connect_feedback(g1, g3);
    nl.mark_output(g3);
    let mut sim = Simulator::new(nl, DeviceModel::umc90());
    let d = sim.add_domain("vdd", SupplyKind::ideal(Waveform::constant(0.6)));
    sim.assign_all(d);
    sim.set_initial(g1, true);
    sim.set_initial(g3, true);
    sim.watch(g3);
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let mut t = 0.0;
    let mut level = true;
    for _ in 0..8 {
        sim.schedule_input(en, Seconds(t), level);
        t += rng.gen_range(1e-9..10e-9);
        level = !level;
    }
    sim.schedule_input(en, Seconds(t), true);
    sim.start();
    let stats = sim.run_until(Seconds(t + 40e-9));
    RunReport::from_sim(&sim, ctx, stats, vec![stats.fired as f64])
}

/// Runs `digest_fn` as identical campaign jobs at every thread count and
/// asserts each run reproduces `expected`.
fn assert_rig_digest_at_all_thread_counts(name: &str, expected: u64, digest_fn: fn() -> u64) {
    for threads in THREAD_COUNTS {
        let jobs = [(); 2];
        let cfg = CampaignConfig::new(1).threads(threads);
        let report = run_campaign(&jobs, &cfg, |_, _| digest_fn());
        for &got in &report.runs {
            assert_eq!(
                got, expected,
                "{name} digest moved at {threads} thread(s): got {got:#018x}. If a \
                 model change makes this intentional, regenerate with `cargo test -p \
                 emc-bench --test golden_equivalence -- --ignored --nocapture`."
            );
        }
    }
}

#[test]
fn fig04_trace_digest_pinned_at_all_thread_counts() {
    assert_rig_digest_at_all_thread_counts("fig04", FIG04_DIGEST, fig04_digest);
}

#[test]
fn fig06_handshake_trace_digest_pinned_at_all_thread_counts() {
    assert_rig_digest_at_all_thread_counts(
        "fig06-handshake",
        FIG06_HANDSHAKE_DIGEST,
        fig06_handshake_digest,
    );
}

#[test]
fn fig07_varying_vdd_trace_digest_pinned_at_all_thread_counts() {
    assert_rig_digest_at_all_thread_counts(
        "fig07-varying-vdd",
        FIG07_VARYING_VDD_DIGEST,
        fig07_varying_vdd_digest,
    );
}

#[test]
fn seeded_ring_digests_pinned_across_seeds_and_thread_counts() {
    let jobs = [0u64; 3];
    for threads in THREAD_COUNTS {
        let cfg = CampaignConfig::new(0xE4C).threads(threads);
        let report = run_campaign(&jobs, &cfg, seeded_ring_worker);
        for (i, run) in report.runs.iter().enumerate() {
            assert_eq!(
                run.trace_digest, SEEDED_RING_DIGESTS[i],
                "seeded ring run {i} digest moved at {threads} thread(s): got \
                 {:#018x}",
                run.trace_digest
            );
        }
        // Distinct seeds must produce distinct traces, or the seeds
        // never reached the runs and the pins above are vacuous.
        assert_ne!(report.runs[0].trace_digest, report.runs[1].trace_digest);
    }
}

#[test]
fn deep_queue_rig_pinned_sequentially_and_under_pdes() {
    let rig = deep_queue_rig();
    let (fired, trace, high_water) = deep_queue_run(&rig);
    assert!(
        high_water > 2048.0,
        "the rig must exercise a deep queue: high water {high_water}"
    );
    let digest = trace.digest();
    assert_eq!(
        (fired, digest),
        (DEEP_QUEUE_FIRED, DEEP_QUEUE_DIGEST),
        "deep-queue rig moved: got fired {fired}, digest {digest:#018x}"
    );
    for threads in [1, 2] {
        let mut par = pdes_parallel(&rig, threads, false);
        for net in gate_outputs(&rig) {
            par.watch(net);
        }
        assert_eq!(drive_array(&mut par, &rig, 3), fired);
        assert_eq!(
            par.trace().canonical_digest(),
            trace.canonical_digest(),
            "PDES at {threads} thread(s) diverged from the sequential run"
        );
    }
}

/// Everything a netlist exposes about its structure, hashed in a fixed
/// order. Per gate: kind, drive bits, output and inputs. Per net: name bytes,
/// driver, the fanout list in order with duplicates, and the
/// `fanout_load_units` bits. Then the outputs in order. The fanout
/// order fixes the `seq` order of equal-time events and the float order
/// of the load sums, so a change that keeps the set but not the order
/// moves this digest.
fn structure_digest(nl: &Netlist) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(nl.gate_count() as u64);
    for (_, g) in nl.iter_gates() {
        h.write(g.kind().to_string().as_bytes());
        h.write_u64(g.drive().to_bits());
        h.write_u64(g.output().index() as u64);
        h.write_u64(g.inputs().len() as u64);
        for n in g.inputs() {
            h.write_u64(n.index() as u64);
        }
    }
    h.write_u64(nl.net_count() as u64);
    for net in nl.iter_nets() {
        let name = nl.net_name(net);
        h.write_u64(name.len() as u64);
        h.write(name.as_bytes());
        h.write_u64(nl.driver_of(net).map_or(u64::MAX, |g| g.index() as u64));
        let fanout = nl.fanout(net);
        h.write_u64(fanout.len() as u64);
        for g in fanout {
            h.write_u64(g.index() as u64);
        }
        h.write_u64(nl.fanout_load_units(net).to_bits());
    }
    h.write_u64(nl.outputs().len() as u64);
    for n in nl.outputs() {
        h.write_u64(n.index() as u64);
    }
    h.finish()
}

/// The PDES rig whose slices [`structure_cases`] pins.
fn structure_rig() -> (PdesArray, Partitioned) {
    let rig = pdes_array(8, 50, 4);
    let parts =
        Partitioned::build(&rig.netlist, &rig.assignment, rig.parts).expect("rows share no net");
    (rig, parts)
}

/// `(name, structure digest)` of every netlist [`STRUCTURE_DIGESTS`]
/// pins, in its order.
fn structure_cases() -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = builtin_suite(false)
        .iter()
        .map(|c| (format!("builtin/{}", c.name), structure_digest(&c.netlist)))
        .collect();
    let blocks = [
        BlockSpec {
            func: 0,
            lhs: 0,
            rhs: 1,
        },
        BlockSpec {
            func: 2,
            lhs: 5,
            rhs: 2,
        },
        BlockSpec {
            func: 4,
            lhs: 7,
            rhs: 3,
        },
        BlockSpec {
            func: 5,
            lhs: 1,
            rhs: 6,
        },
    ];
    for (name, gc) in [
        ("tree", completion_tree(5, "t")),
        ("wchb", wchb_datapath(3, 2, "w")),
        ("adder", dims_adder(3, "a")),
        ("micropipeline", micropipeline(4, "m")),
        ("array", pipelined_array(2, 3, "p")),
        ("array-domains", pipelined_array_domains(4, 3, 2, "d")),
        ("blocks", block_graph(3, &blocks, "b")),
    ] {
        out.push((format!("gen/{name}"), structure_digest(&gc.netlist)));
    }
    let (rig, parts) = structure_rig();
    out.push(("pdes_array".to_owned(), structure_digest(&rig.netlist)));
    for p in 0..parts.parts() {
        out.push((
            format!("pdes_array/slice{p}"),
            structure_digest(parts.slice(p)),
        ));
    }
    out
}

/// FNV-1a over every global net's `(part, local net)` site and its
/// round trip through `global_net`.
fn structure_sites_digest() -> u64 {
    let (rig, parts) = structure_rig();
    let mut h = Fnv64::new();
    for net in rig.netlist.iter_nets() {
        let (p, local) = parts.site(net);
        assert_eq!(parts.global_net(p, local), net, "site round trip");
        h.write_u64(p as u64);
        h.write_u64(local.index() as u64);
    }
    h.finish()
}

#[test]
fn netlist_structure_digests_pinned() {
    let got = structure_cases();
    let names: Vec<&str> = got.iter().map(|(n, _)| n.as_str()).collect();
    let pinned: Vec<&str> = STRUCTURE_DIGESTS.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, pinned, "structure cases changed");
    for ((name, digest), (_, expected)) in got.iter().zip(STRUCTURE_DIGESTS) {
        assert_eq!(
            *digest, expected,
            "{name} structure moved: got {digest:#018x}"
        );
    }
    assert_eq!(
        structure_sites_digest(),
        STRUCTURE_SITES_DIGEST,
        "pdes_array site map moved: got {:#018x}",
        structure_sites_digest()
    );
}

fn lint_json_bytes(smoke: bool, threads: usize) -> Vec<u8> {
    let threads = threads.to_string();
    let mut args = vec!["--json", "--threads", &threads];
    if smoke {
        args.push("--smoke");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_emc-lint"))
        .args(args)
        .output()
        .expect("emc-lint runs");
    assert!(
        out.status.success(),
        "emc-lint failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// The `emc-lint --json` bytes at 1 thread, checked equal at 2 and 8.
fn lint_json_at_all_thread_counts(smoke: bool) -> Vec<u8> {
    let reference = lint_json_bytes(smoke, 1);
    for threads in [2usize, 8] {
        assert_eq!(
            lint_json_bytes(smoke, threads),
            reference,
            "emc-lint --json (smoke: {smoke}) bytes differ at {threads} thread(s)"
        );
    }
    reference
}

#[test]
fn emc_lint_json_bytes_identical_across_thread_counts_and_pinned() {
    let reference = lint_json_at_all_thread_counts(true);
    assert_eq!(
        fnv64(&reference),
        LINT_JSON_DIGEST,
        "emc-lint --json bytes moved: got {:#018x}",
        fnv64(&reference)
    );
    // Seed must not leak into the machine output either.
    let other_seed = Command::new(env!("CARGO_BIN_EXE_emc-lint"))
        .args(["--json", "--smoke", "--seed", "7"])
        .output()
        .expect("emc-lint runs");
    assert_eq!(
        other_seed.stdout, reference,
        "seed leaked into --json bytes"
    );
}

#[test]
fn full_size_emc_lint_json_bytes_identical_across_thread_counts_and_pinned() {
    let reference = lint_json_at_all_thread_counts(false);
    assert_eq!(
        fnv64(&reference),
        LINT_FULL_JSON_DIGEST,
        "full-size emc-lint --json bytes moved: got {:#018x}",
        fnv64(&reference)
    );
}

/// Regeneration helper: prints every golden constant in this file.
#[test]
#[ignore = "regeneration helper, run with --ignored --nocapture"]
fn print_golden_constants() {
    println!("FIG04_DIGEST: {:#018x}", fig04_digest());
    println!("FIG06_HANDSHAKE_DIGEST: {:#018x}", fig06_handshake_digest());
    println!(
        "FIG07_VARYING_VDD_DIGEST: {:#018x}",
        fig07_varying_vdd_digest()
    );
    let jobs = [0u64; 3];
    let report = run_campaign(
        &jobs,
        &CampaignConfig::new(0xE4C).threads(1),
        seeded_ring_worker,
    );
    for (i, run) in report.runs.iter().enumerate() {
        println!("SEEDED_RING_DIGESTS[{i}]: {:#018x}", run.trace_digest);
    }
    let (fired, trace, _) = deep_queue_run(&deep_queue_rig());
    println!("DEEP_QUEUE_FIRED: {fired}");
    println!("DEEP_QUEUE_DIGEST: {:#018x}", trace.digest());
    println!(
        "LINT_JSON_DIGEST: {:#018x}",
        fnv64(&lint_json_bytes(true, 1))
    );
    println!(
        "LINT_FULL_JSON_DIGEST: {:#018x}",
        fnv64(&lint_json_bytes(false, 1))
    );
    for (name, digest) in structure_cases() {
        println!("STRUCTURE_DIGESTS {name}: {digest:#018x}");
    }
    println!("STRUCTURE_SITES_DIGEST: {:#018x}", structure_sites_digest());
}
