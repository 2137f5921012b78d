//! The weak-conditioned half-buffer (WCHB) dual-rail Muller pipeline —
//! "Design 1": speed-independent, completion-detected, correct at any
//! supply the devices can switch at.

use emc_netlist::{completion_detector, DualRail, GateKind, NetId, Netlist};
use emc_sim::Simulator;
use emc_units::{Joules, Seconds};

/// Outcome of pushing a token train through a pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferOutcome {
    /// Data words observed at the pipeline output, in arrival order.
    pub received: Vec<u64>,
    /// `true` if every sent token arrived (and the protocol returned to
    /// its rest state) before the deadline.
    pub completed: bool,
    /// Time from first input action to protocol completion, or to the
    /// last event that fired by the deadline.
    pub duration: Seconds,
    /// Energy drawn from the simulator's domains during the transfer.
    pub energy: Joules,
}

impl TransferOutcome {
    /// Tokens per second achieved (zero if nothing arrived).
    pub fn throughput(&self) -> f64 {
        if self.received.is_empty() || self.duration.0 <= 0.0 {
            0.0
        } else {
            self.received.len() as f64 / self.duration.0
        }
    }

    /// Energy per received token (infinite if nothing arrived).
    pub fn energy_per_token(&self) -> Joules {
        if self.received.is_empty() {
            Joules(f64::INFINITY)
        } else {
            Joules(self.energy.0 / self.received.len() as f64)
        }
    }
}

/// An N-stage, W-bit dual-rail WCHB pipeline.
///
/// Per stage and bit, two 2-input C-elements (one per rail) gated by the
/// inverted acknowledge of the next stage; the stage acknowledge is a
/// word-level completion detector (per-bit OR into a C-element tree):
///
/// ```text
/// out.t[i] = C(in.t[i], ¬ack_next)     out.f[i] = C(in.f[i], ¬ack_next)
/// ack      = C-tree( out.t[i] ∨ out.f[i] … )
/// ```
///
/// The paper's "Design 1": roughly twice the wires and gates of the
/// bundled design, but the completion detector makes its timing *causal*
/// — tokens simply take longer when Vdd sags, with no assumption to
/// violate.
#[derive(Debug, Clone)]
pub struct DualRailPipeline {
    width: usize,
    inputs: Vec<DualRail>,
    stages: Vec<Vec<DualRail>>,
    /// `acks[i]` = word completion of stage `i`; `acks\[0\]` is the
    /// acknowledge seen by the environment's sender.
    acks: Vec<NetId>,
    sink_ack: NetId,
}

impl DualRailPipeline {
    /// Appends an `n_stages`, 1-bit pipeline (the common case in tests).
    ///
    /// # Panics
    ///
    /// Panics if `n_stages == 0`.
    pub fn build(netlist: &mut Netlist, n_stages: usize, name: &str) -> Self {
        Self::build_wide(netlist, n_stages, 1, name)
    }

    /// Appends an `n_stages`, `width`-bit pipeline to `netlist`.
    ///
    /// # Panics
    ///
    /// Panics if `n_stages == 0`, `width == 0`, or `width > 64`.
    pub fn build_wide(netlist: &mut Netlist, n_stages: usize, width: usize, name: &str) -> Self {
        assert!(n_stages > 0, "pipeline needs at least one stage");
        assert!(width > 0 && width <= 64, "width must be in 1..=64");
        let inputs: Vec<DualRail> = (0..width)
            .map(|b| DualRail::input(netlist, &format!("{name}.in{b}")))
            .collect();
        let sink_ack = netlist.input(&format!("{name}.sink_ack"));

        let mut stages: Vec<Vec<DualRail>> = Vec::with_capacity(n_stages);
        let mut acks = Vec::with_capacity(n_stages);
        let mut prev = inputs.clone();
        for i in 0..n_stages {
            let mut outs = Vec::with_capacity(width);
            for (b, p) in prev.iter().enumerate() {
                let t = netlist.gate(
                    GateKind::CElement,
                    &[p.t, p.t],
                    &format!("{name}.s{i}.b{b}.t"),
                );
                let f = netlist.gate(
                    GateKind::CElement,
                    &[p.f, p.f],
                    &format!("{name}.s{i}.b{b}.f"),
                );
                outs.push(DualRail { t, f });
            }
            let ack = completion_detector(netlist, &outs, &format!("{name}.s{i}.cd"));
            stages.push(outs.clone());
            acks.push(ack);
            prev = outs;
        }
        // Close the ¬ack feedback: stage i's C-elements wait on the
        // inverted acknowledge of stage i+1 (or the environment sink).
        for i in 0..n_stages {
            let next_ack = if i + 1 < n_stages {
                acks[i + 1]
            } else {
                sink_ack
            };
            let nack = netlist.gate(GateKind::Inv, &[next_ack], &format!("{name}.s{i}.nack"));
            for bit in &stages[i] {
                netlist.connect_feedback(bit.t, nack);
                netlist.connect_feedback(bit.f, nack);
            }
        }
        for s in &stages {
            for bit in s {
                netlist.mark_output(bit.t);
                netlist.mark_output(bit.f);
            }
        }
        for &a in &acks {
            netlist.mark_output(a);
        }
        Self {
            width,
            inputs,
            stages,
            acks,
            sink_ack,
        }
    }

    /// The environment-driven input rails, LSB first.
    pub fn inputs(&self) -> &[DualRail] {
        &self.inputs
    }

    /// The final stage's rails (the pipeline output), LSB first.
    pub fn outputs(&self) -> &[DualRail] {
        self.stages.last().expect("non-empty pipeline")
    }

    /// The acknowledge the sender observes (stage 0 completion).
    pub fn sender_ack(&self) -> NetId {
        self.acks[0]
    }

    /// The environment-driven sink acknowledge input.
    pub fn sink_ack(&self) -> NetId {
        self.sink_ack
    }

    fn output_state(&self, sim: &Simulator) -> (bool, bool, u64) {
        // (all_valid, all_spacer, word)
        let mut word = 0u64;
        let mut all_valid = true;
        let mut all_spacer = true;
        for (b, rail) in self.outputs().iter().enumerate() {
            let t = sim.value(rail.t);
            let f = sim.value(rail.f);
            if t ^ f {
                all_spacer = false;
                if t {
                    word |= 1 << b;
                }
            } else {
                all_valid = false;
                if t && f {
                    all_spacer = false;
                }
            }
        }
        (all_valid, all_spacer, word)
    }

    /// Drives `words` through the pipeline with a fully reactive 4-phase
    /// environment until done or `deadline`; no event past it fires.
    ///
    /// The sender raises one rail per bit, waits for the stage-0
    /// acknowledge, returns all rails to spacer and waits for the
    /// acknowledge to drop. The receiver raises `sink_ack` when the
    /// output completion would (all bits valid) and drops it on all-
    /// spacer. Neither side assumes anything about timing — exactly the
    /// speed-independent protocol of the paper.
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
            RaiseRails,
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
        let mut tx = Tx::RaiseRails;
        let mut sent = 0usize;
        let mut received = Vec::new();
        let mut sink_high = false;
        let mut out_was_valid = false;
        let completed = sim.drive_until(deadline, |sim| {
            if tx == Tx::WaitAckLow && !sim.value(self.sender_ack()) {
                sent += 1;
                tx = Tx::RaiseRails;
            }
            match tx {
                Tx::RaiseRails if sent < words.len() => {
                    self.set_rails(sim, words[sent], true);
                    tx = Tx::WaitAckHigh;
                }
                Tx::WaitAckHigh if sim.value(self.sender_ack()) => {
                    self.set_rails(sim, words[sent], false);
                    tx = Tx::WaitAckLow;
                }
                _ => {}
            }

            let (valid, spacer, word) = self.output_state(sim);
            if valid && !out_was_valid {
                received.push(word);
                out_was_valid = true;
            }
            if valid && !sink_high {
                sim.schedule_input(self.sink_ack, sim.now(), true);
                sink_high = true;
            }
            if spacer {
                out_was_valid = false;
                if sink_high {
                    sim.schedule_input(self.sink_ack, sim.now(), false);
                    sink_high = false;
                }
            }
            sent == words.len() && received.len() >= words.len() && spacer && !sink_high
        });
        TransferOutcome {
            received,
            completed,
            duration: Seconds(sim.now().0 - t_begin.0),
            energy: sim.total_energy() - energy_before,
        }
    }

    /// Schedules, at the current time, one rail per bit of `word` (the
    /// t-rail of a 1, the f-rail of a 0) to `level`. Raising an already
    /// high rail is skipped.
    fn set_rails(&self, sim: &mut Simulator, word: u64, level: bool) {
        for (b, rail) in self.inputs.iter().enumerate() {
            let net = if (word >> b) & 1 == 1 { rail.t } else { rail.f };
            if !level || !sim.value(net) {
                sim.schedule_input(net, sim.now(), level);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emc_device::DeviceModel;
    use emc_prng::Rng;
    use emc_prng::StdRng;
    use emc_sim::SupplyKind;
    use emc_units::{Hertz, Waveform};

    /// A started pipeline on a `vdd` rail, not yet settled.
    fn rig_on(stages: usize, width: usize, vdd: Waveform) -> (Simulator, DualRailPipeline) {
        let mut nl = Netlist::new();
        let p = DualRailPipeline::build_wide(&mut nl, stages, width, "p");
        nl.check().expect("pipeline netlist is well-formed");
        let mut sim = Simulator::new(nl, DeviceModel::umc90());
        let d = sim.add_domain("vdd", SupplyKind::ideal(vdd));
        sim.assign_all(d);
        sim.start();
        (sim, p)
    }

    fn rig(stages: usize, width: usize, vdd: Waveform) -> (Simulator, DualRailPipeline) {
        let (mut sim, p) = rig_on(stages, width, vdd);
        sim.run_to_quiescence(10_000); // settle the ¬ack inverters
        (sim, p)
    }

    #[test]
    fn single_token_passes_through() {
        let (mut sim, p) = rig(3, 1, Waveform::constant(1.0));
        let out = p.transfer(&mut sim, &[1], Seconds(1e-6));
        assert!(out.completed, "transfer did not complete: {out:?}");
        assert_eq!(out.received, vec![1]);
        assert!(sim.hazards().is_empty());
    }

    #[test]
    fn token_train_preserves_order_and_values() {
        let words = [1, 0, 0, 1, 1, 0, 1, 0];
        let (mut sim, p) = rig(4, 1, Waveform::constant(1.0));
        let out = p.transfer(&mut sim, &words, Seconds(10e-6));
        assert!(out.completed);
        assert_eq!(out.received, words.to_vec());
        assert!(sim.hazards().is_empty());
        assert!(out.throughput() > 0.0);
        assert!(out.energy_per_token().0 > 0.0);
    }

    #[test]
    fn wide_words_travel_intact() {
        let words = [0xA5, 0x00, 0xFF, 0x3C, 0x81];
        let (mut sim, p) = rig(3, 8, Waveform::constant(1.0));
        let out = p.transfer(&mut sim, &words, Seconds(10e-6));
        assert!(out.completed);
        assert_eq!(out.received, words.to_vec());
        assert!(sim.hazards().is_empty());
    }

    #[test]
    fn works_at_deep_subthreshold() {
        let words = [1, 0, 1];
        let (mut sim, p) = rig(3, 1, Waveform::constant(0.15));
        let out = p.transfer(&mut sim, &words, Seconds(1.0));
        assert!(out.completed, "sub-threshold transfer failed");
        assert_eq!(out.received, words.to_vec());
        assert!(sim.hazards().is_empty());
    }

    #[test]
    fn throughput_scales_with_vdd() {
        let words = vec![1; 6];
        let tp = |v: f64| {
            let (mut sim, p) = rig(3, 1, Waveform::constant(v));
            let out = p.transfer(&mut sim, &words, Seconds(1.0));
            assert!(out.completed);
            out.throughput()
        };
        let fast = tp(1.0);
        let slow = tp(0.3);
        assert!(fast / slow > 20.0, "ratio {}", fast / slow);
    }

    #[test]
    fn speed_independent_under_adversarial_delay_scaling() {
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..8 {
            let mut nl = Netlist::new();
            let p = DualRailPipeline::build_wide(&mut nl, 3, 4, "p");
            let mut sim = Simulator::new(nl, DeviceModel::umc90());
            let d = sim.add_domain("vdd", SupplyKind::ideal(Waveform::constant(0.5)));
            sim.assign_all(d);
            for i in 0..sim.netlist().gate_count() {
                let id = sim.netlist().gate_id(i);
                let s = rng.gen_range(0.05_f64..20.0);
                sim.set_delay_scale(id, s);
            }
            sim.start();
            sim.run_to_quiescence(10_000);
            let words = [0xA, 0x5, 0xF, 0x0];
            let out = p.transfer(&mut sim, &words, Seconds(1.0));
            assert!(out.completed, "trial {trial} did not complete");
            assert_eq!(out.received, words.to_vec(), "trial {trial} corrupted data");
            assert!(
                sim.hazards().is_empty(),
                "trial {trial} hazards: {:?}",
                sim.hazards()
            );
        }
    }

    #[test]
    fn survives_ac_supply_with_deep_troughs() {
        let wave = Waveform::sine(0.2, 0.1, Hertz(1e6), 0.0).clamped(0.0, 2.0);
        let mut nl = Netlist::new();
        let p = DualRailPipeline::build_wide(&mut nl, 3, 2, "p");
        let mut sim = Simulator::new(nl, DeviceModel::umc90());
        let d = sim.add_domain(
            "ac",
            SupplyKind::ideal_with_resolution(wave, Seconds(1e-6 / 128.0)),
        );
        sim.assign_all(d);
        sim.start();
        sim.run_until(Seconds(3e-6));
        let words = [2, 1, 3];
        let out = p.transfer(&mut sim, &words, Seconds(2e-3));
        assert!(out.completed, "AC transfer failed: {out:?}");
        assert_eq!(out.received, words.to_vec());
        assert!(sim.hazards().is_empty());
    }

    #[test]
    fn deadline_reports_incomplete() {
        let (mut sim, p) = rig(3, 1, Waveform::constant(0.15));
        // Far too tight a deadline for sub-threshold operation.
        let out = p.transfer(&mut sim, &[1], Seconds(1e-9));
        assert!(!out.completed);
    }

    #[test]
    fn transfer_below_the_floor_gives_up_at_the_deadline() {
        // The ramp never climbs to the 0.10-V floor: no gate fires, and
        // the transfer must stop at its deadline instead of
        // re-integrating forever.
        let ramp = Waveform::ramp(0.08, 0.05, Seconds(0.0), Seconds(1e-9));
        let (mut sim, p) = rig_on(2, 2, ramp);
        sim.run_until(Seconds(100e-9));
        let deadline = Seconds(sim.now().0 + 1e-3);
        let out = p.transfer(&mut sim, &[1, 2], deadline);
        assert!(!out.completed);
        assert!(sim.now() <= deadline, "now {}", sim.now());
        assert!(sim.total_energy().0.is_finite());
    }

    #[test]
    fn energy_per_token_grows_with_vdd_squared() {
        let words = vec![1; 8];
        let ept = |v: f64| {
            let (mut sim, p) = rig(3, 1, Waveform::constant(v));
            let out = p.transfer(&mut sim, &words, Seconds(1.0));
            assert!(out.completed);
            out.energy_per_token().0
        };
        let e_nom = ept(1.0);
        let e_half = ept(0.5);
        let ratio = e_nom / e_half;
        // CV²: 4× expected; leakage at 0.5 V adds a little.
        assert!((3.0..5.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_stage_pipeline_panics() {
        let mut nl = Netlist::new();
        let _ = DualRailPipeline::build(&mut nl, 0, "p");
    }

    #[test]
    #[should_panic(expected = "exceeds pipeline width")]
    fn oversized_word_panics() {
        let (mut sim, p) = rig(1, 2, Waveform::constant(1.0));
        let _ = p.transfer(&mut sim, &[4], Seconds(1e-6));
    }
}
