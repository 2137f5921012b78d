//! Value-change-dump (VCD) export of recorded traces.
//!
//! The paper's Figs. 4 and 7 are waveform screenshots; this module lets
//! any simulation produce the same thing for a standard waveform viewer
//! (GTKWave etc.): watch nets, run, then [`to_vcd`].

use emc_netlist::{NetId, Netlist};
use emc_units::{Seconds, Waveform};

use crate::trace::Trace;

/// A sampled analog quantity — typically a supply-voltage waveform —
/// emitted alongside the digital nets as a VCD `real` variable, so a
/// waveform viewer shows Fig. 4/7's sagging rail under the logic that
/// rides on it.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalogTrack {
    name: String,
    samples: Vec<(Seconds, f64)>,
}

impl AnalogTrack {
    /// A track from explicit time-ordered samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or not sorted by time.
    pub fn new(name: &str, samples: Vec<(Seconds, f64)>) -> Self {
        assert!(
            !samples.is_empty(),
            "analog track needs at least one sample"
        );
        assert!(
            samples.windows(2).all(|w| w[0].0 .0 <= w[1].0 .0),
            "analog samples must be time-ordered"
        );
        Self {
            name: sanitise(name),
            samples,
        }
    }

    /// Samples `waveform` on the closed interval `[t0, t1]` at `step`.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not strictly positive or the interval is
    /// inverted.
    pub fn sample(
        name: &str,
        waveform: &Waveform,
        t0: Seconds,
        t1: Seconds,
        step: Seconds,
    ) -> Self {
        assert!(step.0 > 0.0, "sampling step must be positive");
        assert!(t1.0 >= t0.0, "inverted sampling interval");
        let n = ((t1.0 - t0.0) / step.0).round() as usize;
        let samples = (0..=n)
            .map(|i| {
                let t = Seconds(t0.0 + i as f64 * step.0);
                (t, waveform.value_at(t))
            })
            .collect();
        Self::new(name, samples)
    }

    /// The (sanitised) variable name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Renders a trace as a VCD document.
///
/// * `timescale_fs` — femtoseconds per VCD time unit (1000 = 1 ps);
/// * `nets` — the nets to declare, in display order (entries recorded
///   for other nets are ignored);
/// * `initial` — the value each declared net held before the first
///   recorded change.
///
/// # Panics
///
/// Panics if `timescale_fs` is zero, `nets` is empty, or `initial` has
/// a different length from `nets`.
pub fn to_vcd(
    trace: &Trace,
    netlist: &Netlist,
    nets: &[NetId],
    initial: &[bool],
    timescale_fs: u64,
) -> String {
    assert!(!nets.is_empty(), "declare at least one net");
    to_vcd_with_analog(trace, netlist, nets, initial, timescale_fs, &[])
}

/// [`to_vcd`] plus analog tracks as VCD `real` variables, value changes
/// interleaved with the digital ones in time order. `nets` may be empty
/// when at least one analog track is given (a supply-only dump).
///
/// # Panics
///
/// Panics if `timescale_fs` is zero, both `nets` and `analog` are
/// empty, or `initial` has a different length from `nets`.
pub fn to_vcd_with_analog(
    trace: &Trace,
    netlist: &Netlist,
    nets: &[NetId],
    initial: &[bool],
    timescale_fs: u64,
    analog: &[AnalogTrack],
) -> String {
    assert!(timescale_fs > 0, "timescale must be positive");
    assert!(
        !nets.is_empty() || !analog.is_empty(),
        "declare at least one net or analog track"
    );
    assert_eq!(nets.len(), initial.len(), "initial values length mismatch");

    let code = |i: usize| -> String {
        // Printable VCD identifier codes: ! .. ~ in base 94.
        let mut n = i;
        let mut s = String::new();
        loop {
            s.push((33 + (n % 94)) as u8 as char);
            n /= 94;
            if n == 0 {
                break;
            }
        }
        s
    };

    let mut out = String::new();
    out.push_str("$comment energy-modulated simulation trace $end\n");
    out.push_str(&format!("$timescale {timescale_fs} fs $end\n"));
    out.push_str("$scope module emc $end\n");
    for (i, &net) in nets.iter().enumerate() {
        let name = sanitise(netlist.net_name(net));
        out.push_str(&format!("$var wire 1 {} {name} $end\n", code(i)));
    }
    for (j, track) in analog.iter().enumerate() {
        out.push_str(&format!(
            "$var real 64 {} {} $end\n",
            code(nets.len() + j),
            track.name
        ));
    }
    out.push_str("$upscope $end\n$enddefinitions $end\n");

    // Initial values: digital levels, then each track's first sample.
    out.push_str("#0\n$dumpvars\n");
    for (i, &v) in initial.iter().enumerate() {
        out.push_str(&format!("{}{}\n", v as u8, code(i)));
    }
    for (j, track) in analog.iter().enumerate() {
        out.push_str(&format!(
            "r{} {}\n",
            track.samples[0].1,
            code(nets.len() + j)
        ));
    }
    out.push_str("$end\n");

    let to_ticks = |t: Seconds| -> u64 { (t.0 * 1e15 / timescale_fs as f64).round() as u64 };

    // Merge digital and analog change streams by tick. The stable sort
    // preserves in-stream order and keeps digital changes ahead of
    // analog ones at equal ticks.
    let mut changes: Vec<(u64, String)> = Vec::new();
    for e in trace.entries() {
        let Some(idx) = nets.iter().position(|&n| n == e.net) else {
            continue;
        };
        changes.push((to_ticks(e.time), format!("{}{}", e.value as u8, code(idx))));
    }
    for (j, track) in analog.iter().enumerate() {
        for &(t, v) in &track.samples[1..] {
            changes.push((to_ticks(t), format!("r{v} {}", code(nets.len() + j))));
        }
    }
    changes.sort_by_key(|&(tick, _)| tick);

    let mut last_tick = 0u64;
    for (tick, line) in changes {
        if tick != last_tick {
            out.push_str(&format!("#{tick}\n"));
            last_tick = tick;
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

fn sanitise(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_whitespace() { '_' } else { c })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Simulator, SupplyKind};
    use emc_device::DeviceModel;
    use emc_netlist::{GateKind, Netlist};
    use emc_units::Waveform;

    fn traced_inverter() -> (Simulator, NetId, NetId) {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let y = nl.gate(GateKind::Inv, &[a], "y");
        nl.mark_output(y);
        let mut sim = Simulator::new(nl, DeviceModel::umc90());
        let d = sim.add_domain("vdd", SupplyKind::ideal(Waveform::constant(1.0)));
        sim.assign_all(d);
        sim.watch(a);
        sim.watch(y);
        sim.set_initial(y, true);
        sim.start();
        sim.schedule_input(a, Seconds(1e-9), true);
        sim.run_until(Seconds(5e-9));
        (sim, a, y)
    }

    #[test]
    fn vcd_contains_header_and_changes() {
        let (sim, a, y) = traced_inverter();
        let vcd = to_vcd(sim.trace(), sim.netlist(), &[a, y], &[false, true], 1000);
        assert!(vcd.contains("$timescale 1000 fs $end"));
        assert!(vcd.contains("$var wire 1 ! a $end"));
        assert!(vcd.contains("$var wire 1 \" y $end"));
        assert!(vcd.contains("$dumpvars"));
        // Input rise at 1 ns = tick 1000 (1 ps units).
        assert!(vcd.contains("#1000\n1!"), "missing input edge:\n{vcd}");
        // Output falls a gate delay later.
        assert!(vcd.contains("0\""), "missing output edge:\n{vcd}");
    }

    #[test]
    fn unwatched_nets_are_ignored() {
        let (sim, a, _) = traced_inverter();
        let vcd = to_vcd(sim.trace(), sim.netlist(), &[a], &[false], 1000);
        assert!(!vcd.contains('"'), "only one identifier expected");
    }

    #[test]
    fn identifier_codes_stay_printable_for_many_nets() {
        let mut nl = Netlist::new();
        let nets: Vec<NetId> = (0..200).map(|i| nl.input(&format!("n{i}"))).collect();
        let initial = vec![false; 200];
        let tr = Trace::new();
        let vcd = to_vcd(&tr, &nl, &nets, &initial, 1);
        assert!(vcd.is_ascii());
        // Net 94 rolls over to a two-character code: '!' then '"'.
        assert!(vcd.contains("$var wire 1 !\" n94 $end"), "{vcd}");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn initial_length_checked() {
        let (sim, a, _) = traced_inverter();
        let _ = to_vcd(sim.trace(), sim.netlist(), &[a], &[false, true], 1000);
    }

    #[test]
    fn analog_track_declares_a_real_variable_and_interleaves() {
        let (sim, a, y) = traced_inverter();
        // 0.5 V at t=0, ramping to 1.0 V at 4 ns, sampled every 2 ns.
        let supply = Waveform::pwl([(Seconds(0.0), 0.5), (Seconds(4e-9), 1.0)]);
        let track = AnalogTrack::sample("vdd", &supply, Seconds(0.0), Seconds(4e-9), Seconds(2e-9));
        let vcd = to_vcd_with_analog(
            sim.trace(),
            sim.netlist(),
            &[a, y],
            &[false, true],
            1000,
            std::slice::from_ref(&track),
        );
        // Declared after the two wires, so its code is '#'.
        assert!(vcd.contains("$var real 64 # vdd $end"), "{vcd}");
        // First sample lands in $dumpvars, later ones at their ticks.
        assert!(vcd.contains("r0.5 #"), "{vcd}");
        assert!(vcd.contains("#2000\nr0.75 #"), "{vcd}");
        assert!(vcd.contains("#4000\nr1 #"), "{vcd}");
        // Digital edge at 1 ns still present, between the samples.
        let rail_mid = vcd.find("r0.75 #").expect("mid sample");
        let edge = vcd.find("#1000\n1!").expect("input edge");
        assert!(edge < rail_mid, "changes not time-ordered:\n{vcd}");
    }

    #[test]
    fn analog_only_dump_needs_no_nets() {
        let nl = Netlist::new();
        let tr = Trace::new();
        let track = AnalogTrack::new("rail", vec![(Seconds(0.0), 0.25), (Seconds(1e-6), 1.0)]);
        let vcd = to_vcd_with_analog(&tr, &nl, &[], &[], 1000, std::slice::from_ref(&track));
        assert!(vcd.contains("$var real 64 ! rail $end"));
        assert!(vcd.contains("r0.25 !"));
        assert!(vcd.contains("#1000000\nr1 !"), "{vcd}");
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn unsorted_analog_samples_panic() {
        let _ = AnalogTrack::new("x", vec![(Seconds(1.0), 0.0), (Seconds(0.0), 1.0)]);
    }
}
