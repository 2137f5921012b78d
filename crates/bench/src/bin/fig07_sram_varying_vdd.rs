//! Fig. 7 — operation of the SI SRAM under varying Vdd: the first write
//! under a depleted supply takes long; the second, under a healthy
//! supply, is fast; both are correct.
//!
//! The two-write story is the paper's figure; the campaign engine then
//! sweeps write/read latency and energy over the full Vdd range, one
//! independent SRAM per point (`--smoke`, `--threads`, `--seed`).

use emc_bench::{campaign_series, outln, print_campaign_summary, CampaignArgs, Series};
use emc_sim::campaign::{run_campaign, RunReport};
use emc_sram::{Sram, SramConfig};
use emc_units::{Seconds, Waveform};

fn main() {
    let args = CampaignArgs::parse(0x000f_1507);
    let mut sram = Sram::new(SramConfig::paper_1kbit());
    // The supply ramps 0.25 V → 1.0 V at t = 30 µs.
    let supply = Waveform::pwl([
        (Seconds(0.0), 0.25),
        (Seconds(30e-6), 0.25),
        (Seconds(32e-6), 1.0),
    ]);
    let res = Seconds(50e-9);
    let horizon = Seconds(1.0);

    let w1 = sram.write_under(&supply, Seconds(0.0), 0, 0xAAAA, res, horizon);
    let w2 = sram.write_under(&supply, Seconds(35e-6), 1, 0x5555, res, horizon);
    let r1 = sram.read_under(&supply, Seconds(40e-6), 0, res, horizon);
    let r2 = sram.read_under(&supply, Seconds(41e-6), 1, res, horizon);

    // Dump the ramping rail as an analog-only VCD: the slow-then-fast
    // write story is legible straight off the supply trace in a viewer.
    {
        let rail = emc_sim::AnalogTrack::sample(
            "vdd_ramp",
            &supply,
            Seconds(0.0),
            Seconds(45e-6),
            Seconds(250e-9),
        );
        let vcd = emc_sim::to_vcd_with_analog(
            &emc_sim::Trace::new(),
            &emc_netlist::Netlist::new(),
            &[],
            &[],
            1000,
            std::slice::from_ref(&rail),
        );
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/figures");
        std::fs::create_dir_all(&dir).expect("create figures dir");
        let path = dir.join("fig07_supply.vcd");
        std::fs::write(&path, vcd).expect("write VCD");
        outln!("  [saved {}]", path.display());
    }

    let mut s = Series::new(
        "fig07",
        "two writes under a rising supply: latency and correctness",
        &["op", "t_start_us", "vdd_V", "latency_us", "correct"],
    );
    s.push(vec![
        1.0,
        0.0,
        0.25,
        w1.latency.0 * 1e6,
        w1.correct as u8 as f64,
    ]);
    s.push(vec![
        2.0,
        35.0,
        1.0,
        w2.latency.0 * 1e6,
        w2.correct as u8 as f64,
    ]);
    s.emit();

    // The sweep behind the figure: one self-contained SRAM per Vdd
    // point, writing then reading back under a constant supply.
    let (lo, hi) = (0.25, 1.0);
    let n = args.points(16, 4);
    let vdds: Vec<f64> = (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect();
    let report = run_campaign(&vdds, &args.config(), |&vdd, ctx| {
        let mut sram = Sram::new(SramConfig::paper_1kbit());
        let supply = Waveform::constant(vdd);
        let w = sram.write_under(&supply, Seconds(0.0), 0, 0xA5A5, res, horizon);
        let r = sram.read_under(&supply, Seconds(w.latency.0 + 1e-9), 0, res, horizon);
        let ok = w.correct && r.correct && r.data == Some(0xA5A5);
        RunReport::from_values(
            ctx,
            vec![
                vdd,
                w.latency.0 * 1e6,
                r.latency.0 * 1e6,
                (w.energy.0 + r.energy.0) * 1e12,
                ok as u8 as f64,
            ],
        )
    });
    let sweep = campaign_series(
        "fig07_sweep",
        "SI SRAM write+read latency and energy vs constant Vdd",
        &[
            "vdd_V",
            "write_latency_us",
            "read_latency_us",
            "energy_pJ",
            "correct",
        ],
        &report,
    );
    sweep.emit();
    print_campaign_summary(&report);

    outln!(
        "write #1 @ 0.25 V: {:>9.2} µs ({})",
        w1.latency.0 * 1e6,
        if w1.correct { "correct" } else { "FAILED" }
    );
    outln!(
        "write #2 @ 1.00 V: {:>9.3} µs ({})",
        w2.latency.0 * 1e6,
        if w2.correct { "correct" } else { "FAILED" }
    );
    outln!(
        "read-back: {:#06x} and {:#06x} (expected 0xaaaa / 0x5555)",
        r1.data.unwrap_or(0),
        r2.data.unwrap_or(0)
    );
    outln!("latency ratio: {:.0}x", w1.latency.0 / w2.latency.0);
    outln!();
    outln!("Shape check: exactly the paper's Fig. 7 story — \"the first");
    outln!("writing works under low Vdd, it takes long time, while the second");
    outln!("write, at high Vdd, works much faster\", with no data corruption.");
}
