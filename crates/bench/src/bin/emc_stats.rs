//! `emc-stats` — run an instrumented scenario and export its telemetry.
//!
//! Runs the workspace's kernels with the [`emc_obs`] layer enabled and
//! renders the resulting [`Telemetry`] bundle (timing them is
//! `perfbench`'s job). Because
//! telemetry is a pure function of workload + seed, the exported bytes
//! are **identical at any `--threads` count** — the integration test
//! `stats_determinism` pins this by diffing `--threads 1/2/8` output.
//!
//! Scenarios (`--scenario NAME`, default `all`):
//!
//! * `sim` — the self-timed counter rig with simulator obs enabled;
//! * `verify` — the built-in suite through the explorer's telemetry path;
//! * `sram` — a write/read mix across the Vdd range plus two
//!   supply-ramp accesses (which record sim-time spans);
//! * `sensor` — charge-to-digital conversions via
//!   `convert_instrumented`;
//! * `chain` — the harvester → reservoir → DC-DC chain snapshot;
//! * `campaign` — a Vdd-sweep campaign with per-run bundles merged in
//!   submission-index order;
//! * `pdes` — the Vdd-domain-partitioned parallel simulator on the
//!   shared pipeline-array rig, exporting the `sim.pdes.*` counters
//!   (partitions, sync rounds, and the crossing counters, always 0)
//!   merged with the per-partition simulator bundles;
//! * `altlogic` — the alternative logic families' ledgers: an adiabatic
//!   cascade run and a charge-recovery session, with `recovered` energy
//!   booked next to `dissipated` and `leaked`;
//! * `fleet` — a ring fleet of harvester-powered nodes: the `fleet.*`
//!   event and message counters, per-class QoS gauges and the merged
//!   femtojoule ledger as `fleet/<bucket>` accounts;
//! * `all` — every scenario above, merged into one bundle.
//!
//! Output: a human summary by default, or exactly one of `--json`
//! (JSONL), `--chrome-trace` (trace-event JSON) or `--prom` (Prometheus
//! text). `--out PATH` writes the export to a file instead of stdout.
//! `--smoke` shrinks every workload for the tier-1 gate. A bad command
//! line, an unknown scenario included, exits 2 with a usage line.

use emc_altlogic::{AdiabaticPipeline, ChargeRecoveryMemory};
use emc_async::{SelfTimedOscillator, ToggleRippleCounter};
use emc_bench::cli::{Flags, OutFile, UsageError};
use emc_bench::{drive_array, pdes_array, pdes_parallel};
use emc_bench::{out, outln};
use emc_device::{AdiabaticModel, DeviceModel};
use emc_fleet::{run_fleet, CalibDepth, FleetConfig};
use emc_netlist::{GateKind, Netlist};
use emc_obs::{to_chrome_trace, to_jsonl, to_prometheus, EnergyKind, Telemetry};
use emc_power::{
    ClockShape, DcDcConverter, PowerChain, PowerClock, StorageCap, VibrationHarvester,
};
use emc_prng::{Rng, StdRng};
use emc_sensors::ChargeToDigitalConverter;
use emc_sim::campaign::{run_campaign, CampaignConfig, RunContext, RunReport};
use emc_sim::{Simulator, SupplyKind};
use emc_sram::{Sram, SramConfig, TimingDiscipline};
use emc_units::{Farads, Hertz, Seconds, Volts, Watts, Waveform};
use emc_verify::builtin::builtin_suite;
use emc_verify::Explorer;

/// The self-timed oscillator and 8-bit ripple counter (the circuit of
/// `perfbench`'s `ac_counter`, here on a constant 1 V rail), with
/// observability on.
fn scenario_sim(smoke: bool) -> Telemetry {
    let mut nl = Netlist::new();
    let osc = SelfTimedOscillator::build(&mut nl, "osc");
    let _cnt = ToggleRippleCounter::build(&mut nl, 8, osc.output(), "cnt");
    let mut sim = Simulator::new(nl, DeviceModel::umc90());
    let d = sim.add_domain("vdd", SupplyKind::ideal(Waveform::constant(1.0)));
    sim.assign_all(d);
    osc.prime(&mut sim);
    sim.enable_obs();
    sim.start();
    let budget = if smoke { 2_000 } else { 100_000 };
    let fired = sim.run_to_quiescence(budget);
    assert!(fired > 0, "sim scenario fired no events");
    sim.telemetry()
}

/// The built-in verification suite through the telemetry explorer.
fn scenario_verify(smoke: bool) -> Telemetry {
    let mut merged = Telemetry::new();
    for circuit in &builtin_suite(smoke) {
        let ex = Explorer::new(&circuit.netlist, &circuit.env, &circuit.initial, 500_000);
        let (outcome, t) = ex.explore_with_telemetry();
        assert!(outcome.exhaustive, "{} exploration capped", circuit.name);
        merged.merge_from(&t);
    }
    merged
}

/// A deterministic write/read mix over the Vdd range, plus two accesses
/// under a rising supply so the span log is exercised.
fn scenario_sram(smoke: bool, seed: u64) -> Telemetry {
    let mut sram = Sram::new(SramConfig::paper_1kbit());
    sram.enable_obs();
    let mut rng = StdRng::seed_from_u64(seed);
    let n = if smoke { 32 } else { 512 };
    for i in 0..n {
        let vdd = Volts(rng.gen_range(0.45..1.0));
        let addr = i % 64;
        let word = (rng.gen_range(0.0..65536.0)) as u64 & 0xFFFF;
        let w = sram.write_at(vdd, addr, word, TimingDiscipline::Completion);
        let r = sram.read_at(vdd, addr, TimingDiscipline::Completion);
        assert!(w.completed && r.completed, "completion access must finish");
    }
    // Fig. 7's ramp: a slow write under a depleted rail, a fast one
    // under a healthy rail — both land in the span log.
    let supply = Waveform::pwl([
        (Seconds(0.0), 0.25),
        (Seconds(30e-6), 0.25),
        (Seconds(32e-6), 1.0),
    ]);
    let res = Seconds(50e-9);
    let horizon = Seconds(1.0);
    sram.write_under(&supply, Seconds(0.0), 0, 0xAAAA, res, horizon);
    sram.read_under(&supply, Seconds(40e-6), 0, res, horizon);
    sram.telemetry()
}

/// Charge-to-digital conversions with the sensor's own metrics.
fn scenario_sensor(smoke: bool) -> Telemetry {
    let conv = ChargeToDigitalConverter::new(Farads(2e-12), 12);
    let inputs: &[f64] = if smoke { &[0.6] } else { &[0.5, 0.8, 1.0] };
    let mut merged = Telemetry::new();
    for &vin in inputs {
        let (r, t) = conv.convert_instrumented(Volts(vin));
        assert!(r.code > 0, "conversion produced no counts at {vin} V");
        merged.merge_from(&t);
    }
    merged
}

/// The composed power chain under a pre-charge-then-load profile.
fn scenario_chain(smoke: bool) -> Telemetry {
    let h = VibrationHarvester::new(Hertz(120.0), Watts(100e-6), 8.0);
    let mut chain = PowerChain::new(
        h.into_source(Hertz(120.0)),
        StorageCap::new(Farads(10e-6), Volts(0.0), Volts(1.2)),
        DcDcConverter::new(Volts(0.5)),
    );
    let ticks = if smoke { 100 } else { 1_000 };
    for i in 0..ticks {
        let load = if i < ticks / 2 {
            Watts(0.0)
        } else {
            Watts(40e-6)
        };
        chain.tick(Seconds(1e-3), load);
    }
    chain.telemetry()
}

/// One campaign job: a three-gate ring oscillator gated by a seeded
/// burst of enable edges, with observability enabled so the run carries
/// a telemetry bundle.
fn campaign_worker(vdd: &f64, ctx: &RunContext) -> RunReport {
    let mut nl = Netlist::new();
    let en = nl.input("en");
    let g1 = nl.gate(GateKind::Nand, &[en, en], "g1");
    let g2 = nl.gate(GateKind::Inv, &[g1], "g2");
    let g3 = nl.gate(GateKind::Inv, &[g2], "g3");
    nl.connect_feedback(g1, g3);
    nl.mark_output(g3);
    let mut sim = Simulator::new(nl, DeviceModel::umc90());
    let d = sim.add_domain("vdd", SupplyKind::ideal(Waveform::constant(*vdd)));
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
    sim.enable_obs();
    sim.start();
    let stats = sim.run_until(Seconds(t + 40e-9));
    RunReport::from_sim(&sim, ctx, stats, vec![*vdd, stats.fired as f64])
}

/// The Vdd-domain-partitioned parallel simulator on the shared
/// pipeline-array rig, with per-partition observability enabled. The
/// exported bundle — per-partition simulator metrics plus the
/// `sim.pdes.*` counters — is a pure function of the workload,
/// so it is byte-identical at any `--threads` count: the determinism
/// demonstration in telemetry form.
fn scenario_pdes(smoke: bool, threads: usize) -> Telemetry {
    let (rows, cols, parts, ticks) = if smoke { (4, 3, 2, 7) } else { (8, 6, 3, 13) };
    let rig = pdes_array(rows, cols, parts);
    let mut sim = pdes_parallel(&rig, threads, true);
    let fired = drive_array(&mut sim, &rig, ticks);
    assert!(fired > 0, "pdes scenario fired no events");
    sim.telemetry()
}

/// A Vdd-sweep campaign; per-run bundles merge in submission order, so
/// the aggregate is byte-identical at any thread count.
fn scenario_campaign(smoke: bool, threads: usize, seed: u64) -> Telemetry {
    let jobs = if smoke { 4 } else { 16 };
    let vdds: Vec<f64> = (0..jobs).map(|i| 0.4 + 0.05 * i as f64).collect();
    let cfg = CampaignConfig::new(seed).threads(threads);
    let report = run_campaign(&vdds, &cfg, campaign_worker);
    report.merged_telemetry()
}

/// The alternative logic families' energy ledgers: a phase-disciplined
/// adiabatic run and a charge-recovery session, booked through their
/// telemetry hooks (`recovered` next to `dissipated`/`leaked`).
fn scenario_altlogic(smoke: bool) -> Telemetry {
    let clock = PowerClock::symmetric(Volts(0.5), Seconds(50e-9), 4, ClockShape::Trapezoid);
    let pipe = AdiabaticPipeline::new(
        clock,
        AdiabaticModel::new(DeviceModel::umc90()),
        3,
        24,
        Farads(2e-15),
    );
    let run = pipe.run(if smoke { 8 } else { 64 });
    assert!(
        run.clean(),
        "adiabatic schedule must satisfy the discipline"
    );
    let mut t = pipe.telemetry(&run);
    let mem = ChargeRecoveryMemory::new(Farads(2e-12), 12, 16, 0.8);
    let session = mem.run(Volts(0.8), if smoke { 2 } else { 8 });
    t.merge_from(&mem.telemetry(&session));
    t
}

/// A ring fleet (the `emc-fleet` tool's size, or its `--smoke` size)
/// through [`emc_fleet::FleetReport::telemetry`]: event and message
/// counters, per-class QoS gauges and the femtojoule ledger. Shard
/// ledgers merge as exact integers, so the bundle is byte-identical at
/// any thread count.
fn scenario_fleet(smoke: bool, threads: usize, seed: u64) -> Telemetry {
    let config = if smoke {
        FleetConfig {
            calib: CalibDepth::Smoke,
            ..FleetConfig::new(400, 6, seed)
        }
    } else {
        FleetConfig::new(10_000, 50, seed)
    };
    let report = run_fleet(&config, threads);
    assert!(
        report.summary.completed > 0,
        "fleet scenario completed no task"
    );
    report.telemetry()
}

/// The scenarios `--scenario` takes, besides `all`, in the order `all`
/// merges them.
const SCENARIOS: [&str; 9] = [
    "sim", "verify", "sram", "sensor", "chain", "campaign", "pdes", "altlogic", "fleet",
];

fn run_scenario(name: &str, smoke: bool, threads: usize, seed: u64) -> Telemetry {
    match name {
        "sim" => scenario_sim(smoke),
        "verify" => scenario_verify(smoke),
        "sram" => scenario_sram(smoke, seed),
        "sensor" => scenario_sensor(smoke),
        "chain" => scenario_chain(smoke),
        "campaign" => scenario_campaign(smoke, threads, seed),
        "pdes" => scenario_pdes(smoke, threads),
        "altlogic" => scenario_altlogic(smoke),
        "fleet" => scenario_fleet(smoke, threads, seed),
        "all" => SCENARIOS
            .iter()
            .map(|s| run_scenario(s, smoke, threads, seed))
            .reduce(|mut t, next| {
                t.merge_from(&next);
                t
            })
            .expect("SCENARIOS is not empty"),
        other => unreachable!("scenario {other:?} passed parse_args"),
    }
}

/// The default human rendering: every metric, ledger account and the
/// span count, in registration order (fully deterministic).
fn summarize(t: &Telemetry) -> String {
    let mut out = String::new();
    out.push_str("== telemetry summary ==\n");
    for c in t.metrics.counters() {
        out.push_str(&format!("  counter   {:<36} {}\n", c.id, c.value));
    }
    for g in t.metrics.gauges() {
        if let Some(v) = g.value {
            out.push_str(&format!("  gauge     {:<36} {v}\n", g.id));
        }
    }
    for h in t.metrics.histograms() {
        out.push_str(&format!(
            "  histogram {:<36} count={} sum={}\n",
            h.id, h.count, h.sum
        ));
    }
    for e in t.energy.entries() {
        out.push_str(&format!(
            "  energy    {:<36} {} J ({})\n",
            e.account,
            e.joules,
            e.kind.label()
        ));
    }
    out.push_str(&format!("  spans     {}\n", t.spans.len()));
    for kind in [
        EnergyKind::Dissipated,
        EnergyKind::Leaked,
        EnergyKind::Harvested,
        EnergyKind::Stored,
    ] {
        out.push_str(&format!(
            "  total {:<10} {} J\n",
            kind.label(),
            t.energy.total(kind)
        ));
    }
    out
}

#[derive(PartialEq, Eq, Clone, Copy)]
enum Format {
    Summary,
    Jsonl,
    ChromeTrace,
    Prometheus,
}

struct Args {
    smoke: bool,
    scenario: String,
    threads: usize,
    seed: u64,
    format: Format,
    out: Option<OutFile>,
}

fn parse_args() -> Result<Args, UsageError> {
    let mut flags = Flags::from_env(
        "[--smoke] [--scenario NAME] [--threads N] [--seed S] \
         [--json | --chrome-trace | --prom] [--out PATH]",
    )?;
    let mut args = Args {
        smoke: false,
        scenario: "all".to_owned(),
        threads: 0,
        seed: 2011,
        format: Format::Summary,
        out: None,
    };
    let set_format = |args: &mut Args, flags: &Flags, f: Format| {
        if args.format != Format::Summary {
            return Err(flags.error("--json, --chrome-trace and --prom are mutually exclusive"));
        }
        args.format = f;
        Ok(())
    };
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            "--json" => set_format(&mut args, &flags, Format::Jsonl)?,
            "--chrome-trace" => set_format(&mut args, &flags, Format::ChromeTrace)?,
            "--prom" => set_format(&mut args, &flags, Format::Prometheus)?,
            "--scenario" => {
                args.scenario = flags.value(&flag)?;
                if args.scenario != "all" && !SCENARIOS.contains(&args.scenario.as_str()) {
                    return Err(flags.error(format!(
                        "--scenario {:?}: expected all or one of {}",
                        args.scenario,
                        SCENARIOS.join(", ")
                    )));
                }
            }
            "--threads" => args.threads = flags.value(&flag)?,
            "--seed" => args.seed = flags.value(&flag)?,
            "--out" => args.out = Some(flags.out_file(&flag)?),
            _ => return Err(flags.unknown(&flag)),
        }
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| e.exit());
    let t = run_scenario(&args.scenario, args.smoke, args.threads, args.seed);
    assert!(
        !t.metrics.is_empty() || !t.energy.is_empty(),
        "scenario {} produced no telemetry",
        args.scenario
    );
    let rendered = match args.format {
        Format::Summary => summarize(&t),
        Format::Jsonl => to_jsonl(&t),
        Format::ChromeTrace => to_chrome_trace(&t),
        Format::Prometheus => to_prometheus(&t),
    };
    match &args.out {
        Some(out) => {
            out.write(&rendered);
            outln!("[saved {}]", out.path);
        }
        None => out!("{rendered}"),
    }
}
