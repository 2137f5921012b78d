//! The bundled-data pipeline — "Design 2": single-rail data validated by
//! a matched delay line. Cheap at nominal supply — one delay line is
//! shared by the whole data word — but built on a timing assumption that
//! low-voltage operation erodes.

use emc_netlist::{GateId, GateKind, NetId, Netlist};
use emc_sim::Simulator;
use emc_units::Seconds;

use crate::wchb::TransferOutcome;

/// A chain of buffers used as a matched (bundling) delay.
#[derive(Debug, Clone)]
pub struct DelayLine {
    gates: Vec<GateId>,
    output: NetId,
}

impl DelayLine {
    /// Appends `stages` buffers after `input`; returns the line.
    ///
    /// # Panics
    ///
    /// Panics if `stages == 0`.
    pub fn build(netlist: &mut Netlist, stages: usize, input: NetId, name: &str) -> Self {
        assert!(stages > 0, "delay line needs at least one stage");
        let mut gates = Vec::with_capacity(stages);
        let mut prev = input;
        for i in 0..stages {
            prev = netlist.gate(GateKind::Buf, &[prev], &format!("{name}.d{i}"));
            gates.push(netlist.driver_of(prev).expect("buffer just built"));
        }
        Self {
            gates,
            output: prev,
        }
    }

    /// The delayed output net.
    pub fn output(&self) -> NetId {
        self.output
    }

    /// Gate ids of the buffers (for delay-scale injection).
    pub fn gates(&self) -> &[GateId] {
        &self.gates
    }

    /// Number of buffer stages.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// `true` if the line has no stages (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }
}

/// One stage of the bundled pipeline (kept for delay-scale injection).
#[derive(Debug, Clone)]
pub struct BundledStage {
    /// Inverter gates of the data (logic) paths, all bits concatenated.
    pub logic_gates: Vec<GateId>,
}

/// An N-stage, W-bit bundled-data pipeline.
///
/// Each stage passes every data bit through `logic_depth` inverters (the
/// "computation") and captures the word in D flip-flops clocked by the
/// request after it has traversed a **single shared** buffer delay line
/// sized to `margin × logic_depth` inverter delays:
///
/// ```text
/// data[b] ─[INV × logic_depth]─ D  Q ─ … next stage   (× W bits)
/// req ─────[BUF × k]─────────── clk ─ … next stage, ack (shared)
/// ```
///
/// The **timing assumption**: the delay line is at least as slow as the
/// slowest data bit. It is checked implicitly — late data means the
/// flip-flop captures a stale value and the received words are simply
/// wrong, which is exactly how a real bundled-data design fails silently.
#[derive(Debug, Clone)]
pub struct BundledPipeline {
    width: usize,
    data_in: Vec<NetId>,
    req_in: NetId,
    ack: NetId,
    data_out: Vec<NetId>,
    stages: Vec<BundledStage>,
    inverting: bool,
}

impl BundledPipeline {
    /// Appends a 1-bit pipeline (see [`Self::build_wide`]).
    ///
    /// # Panics
    ///
    /// As for [`Self::build_wide`].
    pub fn build(
        netlist: &mut Netlist,
        n_stages: usize,
        logic_depth: usize,
        margin: f64,
        name: &str,
    ) -> Self {
        Self::build_wide(netlist, n_stages, 1, logic_depth, margin, name)
    }

    /// Appends an `n_stages`, `width`-bit bundled pipeline to `netlist`,
    /// each stage with `logic_depth` inverters per bit and one shared
    /// delay line sized by `margin` (≥ 1.0 for a nominally safe design).
    ///
    /// # Panics
    ///
    /// Panics if `n_stages == 0`, `width` is not in `1..=64`,
    /// `logic_depth == 0`, or `margin` is not strictly positive.
    pub fn build_wide(
        netlist: &mut Netlist,
        n_stages: usize,
        width: usize,
        logic_depth: usize,
        margin: f64,
        name: &str,
    ) -> Self {
        assert!(n_stages > 0, "pipeline needs at least one stage");
        assert!(width > 0 && width <= 64, "width must be in 1..=64");
        assert!(logic_depth > 0, "logic depth must be positive");
        assert!(margin > 0.0, "margin must be positive");
        let data_in: Vec<NetId> = (0..width)
            .map(|b| netlist.input(&format!("{name}.data{b}")))
            .collect();
        let req_in = netlist.input(&format!("{name}.req"));

        // Buffers have delay factor 2.0 vs the inverter's 1.0, so a line
        // of ceil(margin·depth/2) buffers matches margin·depth inverters.
        let line_len = ((margin * logic_depth as f64) / 2.0).ceil().max(1.0) as usize;

        let mut data = data_in.clone();
        let mut req = req_in;
        let mut stages = Vec::with_capacity(n_stages);
        for s in 0..n_stages {
            let mut logic_gates = Vec::new();
            let mut latched = Vec::with_capacity(width);
            let line = DelayLine::build(netlist, line_len, req, &format!("{name}.s{s}.dl"));
            for (b, &din) in data.iter().enumerate() {
                let mut d = din;
                for i in 0..logic_depth {
                    d = netlist.gate(GateKind::Inv, &[d], &format!("{name}.s{s}.b{b}.l{i}"));
                    logic_gates.push(netlist.driver_of(d).expect("gate just built"));
                }
                let q = netlist.gate(
                    GateKind::Dff,
                    &[line.output(), d],
                    &format!("{name}.s{s}.b{b}.q"),
                );
                latched.push(q);
            }
            stages.push(BundledStage { logic_gates });
            data = latched;
            req = line.output();
        }
        for &q in &data {
            netlist.mark_output(q);
        }
        netlist.mark_output(req);
        Self {
            width,
            data_in,
            req_in,
            ack: req,
            data_out: data,
            stages,
            inverting: (n_stages * logic_depth) % 2 == 1,
        }
    }

    /// `true` if the pipeline logically inverts its data (odd total
    /// inversion count per bit).
    pub fn inverting(&self) -> bool {
        self.inverting
    }

    /// The environment-driven data inputs, LSB first.
    pub fn data_in(&self) -> &[NetId] {
        &self.data_in
    }

    /// The environment-driven request input.
    pub fn req_in(&self) -> NetId {
        self.req_in
    }

    /// The acknowledge the environment observes (the request after all
    /// delay lines).
    pub fn ack(&self) -> NetId {
        self.ack
    }

    /// Per-stage gate handles for fault/variation injection.
    pub fn stages(&self) -> &[BundledStage] {
        &self.stages
    }

    /// Drives `words` through the pipeline with a reactive 4-phase
    /// environment (set data with request; wait acknowledge; return to
    /// zero; wait acknowledge low). Output words are read at each
    /// acknowledge **fall** — by then the capture flip-flops have long
    /// settled — and corrected for the pipeline's logical inversion.
    /// The delay lines are in series, so one request cycle carries a word
    /// through *every* stage: on a timing-correct run `received` equals
    /// `words`.
    ///
    /// # Panics
    ///
    /// Panics if a word exceeds the pipeline width.
    pub fn transfer(
        &self,
        sim: &mut Simulator,
        words: &[u64],
        deadline: Seconds,
    ) -> TransferOutcome {
        #[derive(PartialEq)]
        enum Tx {
            Launch,
            WaitAckHigh,
            WaitAckLow,
        }
        for &w in words {
            assert!(
                self.width == 64 || w < (1u64 << self.width),
                "word {w} exceeds pipeline width {}",
                self.width
            );
        }
        let energy_before = sim.total_energy();
        let t_begin = sim.now();
        let mut tx = Tx::Launch;
        let mut received = Vec::new();
        let completed = sim.drive_until(deadline, |sim| {
            if tx == Tx::WaitAckLow && !sim.value(self.ack) {
                // Captured word is stable now: one full delay-line
                // traversal after the capture edge.
                received.push(read_word(sim, &self.data_out, self.inverting));
                tx = Tx::Launch;
            }
            match tx {
                Tx::Launch => {
                    let Some(&w) = words.get(received.len()) else {
                        return true;
                    };
                    launch_word(sim, &self.data_in, self.req_in, w);
                    tx = Tx::WaitAckHigh;
                }
                Tx::WaitAckHigh if sim.value(self.ack) => {
                    sim.schedule_input(self.req_in, sim.now(), false);
                    tx = Tx::WaitAckLow;
                }
                Tx::WaitAckHigh | Tx::WaitAckLow => {}
            }
            false
        });
        TransferOutcome {
            received,
            completed,
            duration: Seconds(sim.now().0 - t_begin.0),
            energy: sim.total_energy() - energy_before,
        }
    }
}

/// Sets the single-rail data inputs to `word` (LSB first; only the bits
/// that change are scheduled) and raises the request, all at the
/// current time.
pub fn launch_word(sim: &mut Simulator, data_in: &[NetId], req_in: NetId, word: u64) {
    for (b, &din) in data_in.iter().enumerate() {
        let want = (word >> b) & 1 == 1;
        if sim.value(din) != want {
            sim.schedule_input(din, sim.now(), want);
        }
    }
    sim.schedule_input(req_in, sim.now(), true);
}

/// Reads the single-rail word on `nets` (LSB first), undoing the data
/// path's logical inversion when `inverting` is set.
pub fn read_word(sim: &Simulator, nets: &[NetId], inverting: bool) -> u64 {
    let mut w = 0u64;
    for (b, &q) in nets.iter().enumerate() {
        if sim.value(q) != inverting {
            w |= 1 << b;
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use emc_device::DeviceModel;
    use emc_sim::SupplyKind;
    use emc_units::Waveform;

    /// A started pipeline on a `vdd` rail, not yet settled.
    fn rig_on(
        stages: usize,
        width: usize,
        depth: usize,
        margin: f64,
        vdd: Waveform,
    ) -> (Simulator, BundledPipeline) {
        let mut nl = Netlist::new();
        let p = BundledPipeline::build_wide(&mut nl, stages, width, depth, margin, "b");
        nl.check().expect("well-formed");
        let mut sim = Simulator::new(nl, DeviceModel::umc90());
        let d = sim.add_domain("vdd", SupplyKind::ideal(vdd));
        sim.assign_all(d);
        sim.start();
        (sim, p)
    }

    fn rig(
        stages: usize,
        width: usize,
        depth: usize,
        margin: f64,
        vdd: f64,
    ) -> (Simulator, BundledPipeline) {
        let (mut sim, p) = rig_on(stages, width, depth, margin, Waveform::constant(vdd));
        sim.run_to_quiescence(100_000);
        (sim, p)
    }

    #[test]
    fn correct_at_nominal_with_margin() {
        let words = [1, 0, 1, 1, 0, 0, 1, 0];
        let (mut sim, p) = rig(1, 1, 6, 2.0, 1.0);
        let out = p.transfer(&mut sim, &words, Seconds(1e-3));
        assert!(out.completed);
        assert_eq!(out.received, words.to_vec());
    }

    #[test]
    fn multi_stage_wide_correct_at_nominal() {
        let words = [0xA5, 0x3C, 0x00, 0xFF, 0x81, 0x42, 0x18, 0x99, 0x11, 0xEE];
        let (mut sim, p) = rig(3, 8, 4, 2.0, 1.0);
        let out = p.transfer(&mut sim, &words, Seconds(1e-3));
        assert!(out.completed);
        assert_eq!(out.received, words.to_vec());
    }

    #[test]
    fn odd_inversion_count_is_corrected() {
        let words = [1, 0, 1, 0];
        let (mut sim, p) = rig(1, 1, 5, 2.0, 1.0);
        assert!(p.inverting());
        let out = p.transfer(&mut sim, &words, Seconds(1e-3));
        assert!(out.completed);
        assert_eq!(out.received, words.to_vec());
    }

    #[test]
    fn fails_when_logic_slowed_past_margin() {
        let words = [1, 0, 1, 0, 1, 0];
        let (mut sim, p) = rig(1, 1, 6, 2.0, 1.0);
        // Sabotage: slow every logic gate 8× (margin is only 2×). This is
        // what sub-threshold Vt variation does to a bundled design.
        for g in &p.stages()[0].logic_gates {
            sim.set_delay_scale(*g, 8.0);
        }
        let out = p.transfer(&mut sim, &words, Seconds(1e-3));
        assert!(out.completed, "handshake itself still completes");
        assert_ne!(
            out.received,
            words.to_vec(),
            "bundling violation must corrupt data"
        );
    }

    #[test]
    fn margin_protects_against_moderate_slowdown() {
        let words = [1, 0, 1, 0, 1, 0];
        let (mut sim, p) = rig(1, 1, 6, 3.0, 1.0);
        for g in &p.stages()[0].logic_gates {
            sim.set_delay_scale(*g, 2.0); // within the 3× margin
        }
        let out = p.transfer(&mut sim, &words, Seconds(1e-3));
        assert!(out.completed);
        assert_eq!(out.received, words.to_vec());
    }

    #[test]
    fn cheaper_per_token_than_dual_rail_at_nominal_for_wide_words() {
        use crate::wchb::DualRailPipeline;
        let words = vec![0xA5, 0x5A, 0xFF, 0x00, 0x3C, 0xC3, 0x81, 0x18, 0x55, 0xAA];
        let (mut sim_b, pb) = rig(3, 8, 2, 2.0, 1.0);
        let out_b = pb.transfer(&mut sim_b, &words, Seconds(1e-3));
        assert!(out_b.completed);

        let mut nl = emc_netlist::Netlist::new();
        let pd = DualRailPipeline::build_wide(&mut nl, 3, 8, "p");
        let mut sim_d = Simulator::new(nl, DeviceModel::umc90());
        let d = sim_d.add_domain("vdd", SupplyKind::ideal(Waveform::constant(1.0)));
        sim_d.assign_all(d);
        sim_d.start();
        sim_d.run_to_quiescence(10_000);
        let out_d = pd.transfer(&mut sim_d, &words, Seconds(1e-3));
        assert!(out_d.completed);

        let eb = out_b.energy_per_token().0;
        let ed = out_d.energy_per_token().0;
        assert!(
            eb < 0.8 * ed,
            "bundled ({eb} J/token) should clearly beat dual-rail ({ed} J/token) at nominal Vdd"
        );
    }

    #[test]
    fn delay_line_length_accessors() {
        let mut nl = Netlist::new();
        let input = nl.input("x");
        let dl = DelayLine::build(&mut nl, 5, input, "dl");
        assert_eq!(dl.len(), 5);
        assert!(!dl.is_empty());
        nl.mark_output(dl.output());
        assert!(nl.check().is_ok());
    }

    #[test]
    fn works_at_half_volt_without_variation() {
        // Without variation the bundled design scales fine: both logic
        // and delay line are inverter-class gates.
        let words = [1, 0, 1, 0];
        let (mut sim, p) = rig(1, 1, 4, 2.0, 0.5);
        let out = p.transfer(&mut sim, &words, Seconds(1e-3));
        assert!(out.completed);
        assert_eq!(out.received, words.to_vec());
    }

    #[test]
    fn transfer_below_the_floor_gives_up_at_the_deadline() {
        // The ramp never climbs to the 0.10-V floor, so no gate fires and
        // every integration window comes up short: the transfer must
        // stop at its deadline instead of re-integrating forever.
        let ramp = Waveform::ramp(0.08, 0.05, Seconds(0.0), Seconds(1e-9));
        let (mut sim, p) = rig_on(2, 2, 3, 2.0, ramp);
        sim.run_until(Seconds(100e-9));
        let deadline = Seconds(sim.now().0 + 1e-3);
        let out = p.transfer(&mut sim, &[1, 2], deadline);
        assert!(!out.completed);
        assert!(sim.now() <= deadline, "now {}", sim.now());
        assert!(sim.total_energy().0.is_finite());
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_stage_delay_line_panics() {
        let mut nl = Netlist::new();
        let input = nl.input("x");
        let _ = DelayLine::build(&mut nl, 0, input, "dl");
    }
}
