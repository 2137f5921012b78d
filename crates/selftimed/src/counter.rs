//! Toggle-flip-flop ripple counters and the self-timed pulse generator —
//! the counting core of the paper's charge-to-digital converter (Fig. 9).

use emc_netlist::{GateId, GateKind, NetId, Netlist};
use emc_sim::Simulator;

/// An N-bit ripple counter built from toggle flip-flops.
///
/// Bit 0 toggles on every rising edge of the pulse input; each subsequent
/// bit toggles when the previous bit *falls* (through an inverter), so the
/// word counts in natural binary and — exactly as the paper describes —
/// "the frequency of the pulses … is progressively divided by 2" along
/// the chain. Every gate fires strictly in sequence, which is the source
/// of the strong charge-to-count proportionality.
#[derive(Debug, Clone)]
pub struct ToggleRippleCounter {
    bits: Vec<NetId>,
    toggles: Vec<GateId>,
    input: NetId,
}

impl ToggleRippleCounter {
    /// Appends an `n`-bit counter clocked by rising edges of `pulse` to
    /// `netlist`. Net names are prefixed with `name`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn build(netlist: &mut Netlist, n: usize, pulse: NetId, name: &str) -> Self {
        assert!(n > 0, "counter needs at least one bit");
        let mut bits = Vec::with_capacity(n);
        let mut toggles = Vec::with_capacity(n);
        let mut clk = pulse;
        for i in 0..n {
            let q = netlist.gate(GateKind::Toggle, &[clk], &format!("{name}.q{i}"));
            toggles.push(netlist.driver_of(q).expect("toggle just built"));
            bits.push(q);
            if i + 1 < n {
                // The next stage advances when this bit falls: a binary
                // carry, made of a rising edge via an inverter.
                clk = netlist.gate(GateKind::Inv, &[q], &format!("{name}.carry{i}"));
            }
            netlist.mark_output(q);
        }
        Self {
            bits,
            toggles,
            input: pulse,
        }
    }

    /// The per-bit output nets, LSB first.
    pub fn bits(&self) -> &[NetId] {
        &self.bits
    }

    /// The gate ids of the toggle flip-flops, LSB first.
    pub fn toggles(&self) -> &[GateId] {
        &self.toggles
    }

    /// The pulse input net this counter was attached to.
    pub fn input(&self) -> NetId {
        self.input
    }

    /// Decodes the current count from the simulator state.
    pub fn read(&self, sim: &Simulator) -> u64 {
        self.bits
            .iter()
            .enumerate()
            .map(|(i, &b)| (sim.value(b) as u64) << i)
            .sum()
    }

    /// Registers every bit with the simulator's trace recorder.
    pub fn watch(&self, sim: &mut Simulator) {
        for &b in &self.bits {
            sim.watch(b);
        }
    }

    /// Reconstructs the sequence of count values from a trace of watched
    /// bits, starting from `initial` (usually 0). Each entry is
    /// `(time, count)` at a bit-change instant.
    ///
    /// Because carries ripple with non-zero delay, transient codes appear
    /// between the old and new value of a multi-bit increment; use
    /// [`Self::settled_sequence`] to extract the settled codes only.
    pub fn count_sequence(&self, sim: &Simulator, initial: u64) -> Vec<(emc_units::Seconds, u64)> {
        let mut value = initial;
        let mut out = Vec::new();
        for e in sim.trace().entries() {
            if let Some(pos) = self.bits.iter().position(|&b| b == e.net) {
                let mask = 1u64 << pos;
                value = if e.value { value | mask } else { value & !mask };
                out.push((e.time, value));
            }
        }
        out
    }

    /// The settled count after each LSB toggle: the subsequence of
    /// [`Self::count_sequence`] sampled once the carry ripple of each
    /// increment has finished (i.e. the last code before the next LSB
    /// change, plus the final code).
    pub fn settled_sequence(&self, sim: &Simulator, initial: u64) -> Vec<u64> {
        settled_from_seq(&self.count_sequence(sim, initial))
    }
}

/// Extracts settled codes: the code immediately before each LSB-driven
/// increment begins, plus the final code.
fn settled_from_seq(seq: &[(emc_units::Seconds, u64)]) -> Vec<u64> {
    // An increment begins at an LSB change and may ripple through higher
    // bits. A code is "settled" when it is followed by an LSB change (or
    // the end of the trace): the ripple of one increment never revisits
    // the LSB.
    let mut settled = Vec::new();
    for (i, &(_, v)) in seq.iter().enumerate() {
        let is_last = i + 1 == seq.len();
        if is_last {
            settled.push(v);
        } else {
            let this_lsb = v & 1;
            let next_lsb = seq[i + 1].1 & 1;
            if this_lsb != next_lsb {
                settled.push(v);
            }
        }
    }
    settled
}

/// The self-timed pulse generator of Fig. 9: an enabled ring oscillator
/// (NAND + two inverters) that free-runs while `enable` is high and its
/// supply is above the device floor. Its frequency is modulated by the
/// rail voltage — the property the charge-to-digital converter exploits.
#[derive(Debug, Clone, Copy)]
pub struct SelfTimedOscillator {
    enable: NetId,
    stage1: NetId,
    stage2: NetId,
    output: NetId,
}

impl SelfTimedOscillator {
    /// Appends the oscillator to `netlist`. Net names are prefixed with
    /// `name`.
    pub fn build(netlist: &mut Netlist, name: &str) -> Self {
        let enable = netlist.input(&format!("{name}.en"));
        let stage1 = netlist.gate(GateKind::Nand, &[enable, enable], &format!("{name}.s1"));
        let stage2 = netlist.gate(GateKind::Inv, &[stage1], &format!("{name}.s2"));
        let output = netlist.gate(GateKind::Inv, &[stage2], &format!("{name}.r0"));
        netlist.connect_feedback(stage1, output);
        netlist.mark_output(output);
        Self {
            enable,
            stage1,
            stage2,
            output,
        }
    }

    /// The enable input net.
    pub fn enable(&self) -> NetId {
        self.enable
    }

    /// The pulse output net (`R0` in the paper's Fig. 9).
    pub fn output(&self) -> NetId {
        self.output
    }

    /// Initialises the ring to its quiescent disabled state and schedules
    /// the enable at t = 0. Call between domain assignment and
    /// [`Simulator::start`].
    pub fn prime(&self, sim: &mut Simulator) {
        // en = 0 ⇒ s1 = 1, s2 = 0, r0 = 1: consistent and quiescent.
        sim.set_initial(self.stage1, true);
        sim.set_initial(self.stage2, false);
        sim.set_initial(self.output, true);
        sim.schedule_input(self.enable, sim.now(), true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emc_device::DeviceModel;
    use emc_sim::SupplyKind;
    use emc_units::{Seconds, Waveform};

    fn counting_rig(
        bits: usize,
        vdd: f64,
    ) -> (Simulator, ToggleRippleCounter, SelfTimedOscillator) {
        let mut nl = Netlist::new();
        let osc = SelfTimedOscillator::build(&mut nl, "osc");
        let cnt = ToggleRippleCounter::build(&mut nl, bits, osc.output(), "cnt");
        let mut sim = Simulator::new(nl, DeviceModel::umc90());
        let d = sim.add_domain("vdd", SupplyKind::ideal(Waveform::constant(vdd)));
        sim.assign_all(d);
        cnt.watch(&mut sim);
        osc.prime(&mut sim);
        sim.start();
        (sim, cnt, osc)
    }

    #[test]
    fn oscillator_runs_and_counter_counts_binary() {
        let (mut sim, cnt, _) = counting_rig(4, 1.0);
        sim.run_until(Seconds(50e-9));
        let count = cnt.read(&sim);
        assert!(count > 2, "count = {count}");
        assert!(sim.hazards().is_empty());
    }

    #[test]
    fn settled_sequence_is_consecutive_mod_2n() {
        let (mut sim, cnt, _) = counting_rig(3, 1.0);
        sim.run_until(Seconds(60e-9));
        let settled = cnt.settled_sequence(&sim, 0);
        assert!(settled.len() > 4, "too few increments: {settled:?}");
        for w in settled.windows(2) {
            assert_eq!(
                (w[0] + 1) % 8,
                w[1],
                "non-consecutive codes {w:?} in {settled:?}"
            );
        }
    }

    #[test]
    fn each_stage_halves_the_toggle_rate() {
        let (mut sim, cnt, _) = counting_rig(4, 1.0);
        sim.run_until(Seconds(200e-9));
        let t0 = sim.transition_count(cnt.toggles()[0]);
        let t1 = sim.transition_count(cnt.toggles()[1]);
        let t2 = sim.transition_count(cnt.toggles()[2]);
        assert!(t0 > 16);
        let r01 = t0 as f64 / t1 as f64;
        let r12 = t1 as f64 / t2 as f64;
        assert!((r01 - 2.0).abs() < 0.3, "bit0/bit1 = {r01}");
        assert!((r12 - 2.0).abs() < 0.4, "bit1/bit2 = {r12}");
    }

    #[test]
    fn oscillator_frequency_tracks_vdd() {
        let period = |vdd: f64| {
            let (mut sim, _, osc) = counting_rig(2, vdd);
            sim.watch(osc.output());
            // Window sized to capture a handful of periods at either
            // voltage without simulating millions of events.
            let window = if vdd > 0.5 { 20e-9 } else { 5e-6 };
            sim.run_until(Seconds(window));
            let edges = sim.trace().rising_edges(osc.output());
            assert!(edges.len() > 4, "too few edges at {vdd} V");
            (edges[edges.len() - 1].0 - edges[2].0) / (edges.len() - 3) as f64
        };
        let fast = period(1.0);
        let slow = period(0.3);
        assert!(slow / fast > 10.0, "period ratio {}", slow / fast);
    }

    #[test]
    fn counter_pauses_through_supply_trough_without_corruption() {
        // AC supply dipping below the device floor: counting stalls in the
        // troughs, resumes in the crests, and the code sequence stays
        // consecutive — the claim of the paper's Fig. 4.
        let mut nl = Netlist::new();
        let osc = SelfTimedOscillator::build(&mut nl, "osc");
        let cnt = ToggleRippleCounter::build(&mut nl, 3, osc.output(), "cnt");
        let mut sim = Simulator::new(nl, DeviceModel::umc90());
        let period = 1e-6;
        let d = sim.add_domain(
            "ac",
            SupplyKind::ideal_with_resolution(
                Waveform::sine(0.2, 0.1, emc_units::Hertz(1.0 / period), 0.0)
                    .clamped(0.0, f64::INFINITY),
                Seconds(period / 128.0),
            ),
        );
        sim.assign_all(d);
        cnt.watch(&mut sim);
        osc.prime(&mut sim);
        sim.start();
        sim.run_until(Seconds(40.0 * period));
        let settled = cnt.settled_sequence(&sim, 0);
        assert!(settled.len() > 3, "never counted under AC: {settled:?}");
        for w in settled.windows(2) {
            assert_eq!((w[0] + 1) % 8, w[1], "corrupted sequence {settled:?}");
        }
    }

    #[test]
    fn read_agrees_with_trace_after_quiescence() {
        let (mut sim, cnt, osc) = counting_rig(4, 1.0);
        sim.run_until(Seconds(120e-9));
        // Stop the oscillator and let everything settle.
        sim.schedule_input(osc.enable(), sim.now(), false);
        sim.run_to_quiescence(10_000);
        let settled = cnt.settled_sequence(&sim, 0);
        let direct = cnt.read(&sim);
        assert!(direct > 0);
        assert_eq!(direct, *settled.last().unwrap());
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_width_counter_panics() {
        let mut nl = Netlist::new();
        let p = nl.input("p");
        let _ = ToggleRippleCounter::build(&mut nl, 0, p, "cnt");
    }
}
