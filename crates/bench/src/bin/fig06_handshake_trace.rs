//! Fig. 6 — handshake-based control of the self-timed SRAM: the phase
//! sequence of a read and of a read-before-write write, with per-phase
//! completion times at two supply voltages.

use emc_bench::{outln, Series};
use emc_sram::{Phase, Sram, SramConfig};
use emc_units::Volts;

fn trace(sram: &Sram, phases: &[Phase], vdd: Volts, id: &str, title: &str) {
    let mut s = Series::new(id, title, &["phase_index", "start_ns", "end_ns"]);
    let mut t = 0.0;
    outln!("  {:>18}   start [ns]   end [ns]   (Vdd = {vdd})", "phase");
    for (i, &p) in phases.iter().enumerate() {
        let d = sram.timing().phase_latency(p, vdd).0 * 1e9;
        outln!("  {:>18}   {:>9.2}   {:>8.2}", format!("{p:?}"), t, t + d);
        s.push(vec![i as f64, t, t + d]);
        t += d;
    }
    // Two completion-detection settles (bit line + write equality).
    for k in 0..2 {
        let d = sram.timing().phase_latency(Phase::Completion, vdd).0 * 1e9;
        outln!(
            "  {:>18}   {:>9.2}   {:>8.2}",
            format!("Completion#{k}"),
            t,
            t + d
        );
        s.push(vec![(phases.len() + k) as f64, t, t + d]);
        t += d;
    }
    s.emit();
}

fn main() {
    let sram = Sram::new(SramConfig::paper_1kbit());
    outln!("READ handshake sequence (precharge → word line → bit line → sense):");
    trace(
        &sram,
        &Phase::READ,
        Volts(1.0),
        "fig06_read_1v",
        "read handshake phases at 1 V",
    );
    trace(
        &sram,
        &Phase::READ,
        Volts(0.3),
        "fig06_read_0v3",
        "read handshake phases at 0.3 V",
    );
    outln!("WRITE handshake sequence — note the paper's trick: a write");
    outln!("*starts with a read* so that completion can be detected as");
    outln!("equality between the bit lines and the new value:");
    trace(
        &sram,
        &Phase::WRITE,
        Volts(0.3),
        "fig06_write_0v3",
        "write (read-before-write) handshake phases at 0.3 V",
    );
    outln!("Shape check: the same causal phase order at every voltage, with");
    outln!("every phase stretching as Vdd falls — no clocks, no assumptions.");
}
