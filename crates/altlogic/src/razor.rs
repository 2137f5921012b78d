//! Razor-style bundled data: shadow-latch error detection, replay, and
//! a DVS controller that servoes Vdd to a target error rate.
//!
//! The bundled-data pipeline ("Design 2") fails *silently*: when
//! variation slows the logic past the delay-line margin, the capture
//! flip-flop latches a stale value and nobody notices. Razor (Ernst et
//! al., MICRO-36) makes that failure observable: every capture flip-flop
//! gets a **shadow latch** clocked by an extended delay line, and a
//! per-bit XOR flags any disagreement — the main latch captured too
//! early. Detection turns the worst-case timing margin into a *tunable*
//! error rate: the word is **replayed** with stretched timing (an energy
//! penalty paid only on error), and a [`RazorDvsController`] walks Vdd
//! down until errors begin to appear instead of guard-banding for the
//! worst case.
//!
//! Detection is sound as long as the shadow margin covers the actual
//! slowdown — the same assumption real Razor makes of its shadow clock
//! phase.

use emc_netlist::{GateId, GateKind, NetId, Netlist};
use emc_sim::Simulator;
use emc_units::{Joules, Seconds, Volts};

use emc_async::{launch_word, read_word, DelayLine};

/// One Razor pipeline stage (handles kept for delay injection).
#[derive(Debug, Clone)]
pub struct RazorStage {
    /// Inverter gates of the data paths, all bits concatenated.
    pub logic_gates: Vec<GateId>,
    /// Buffer gates of the main (bundling) delay line.
    pub delay_gates: Vec<GateId>,
    /// Buffer gates of the shadow extension line.
    pub(crate) shadow_gates: Vec<GateId>,
    /// The stage's error flag: OR of per-bit main/shadow disagreements.
    pub error: NetId,
}

/// Outcome of a Razor transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct RazorOutcome {
    /// Data words accepted at the pipeline output, in order.
    pub received: Vec<u64>,
    /// Handshakes whose error flag was raised (detected violations).
    pub errors_detected: usize,
    /// Replays performed (≤ `errors_detected` · max replays).
    pub replays: usize,
    /// Words still flagged after the replay budget was exhausted.
    pub unresolved: usize,
    /// `true` if every word was carried before the deadline.
    pub completed: bool,
    /// Time from first input action to completion.
    pub duration: Seconds,
    /// Total energy drawn during the transfer.
    pub energy: Joules,
    /// Portion of `energy` spent on replay handshakes — the price of
    /// recovery.
    pub replay_energy: Joules,
}

impl RazorOutcome {
    /// Accepted words per second.
    pub fn throughput(&self) -> f64 {
        if self.duration.0 <= 0.0 {
            0.0
        } else {
            self.received.len() as f64 / self.duration.0
        }
    }

    /// Energy per accepted word.
    pub fn energy_per_word(&self) -> Joules {
        if self.received.is_empty() {
            Joules(0.0)
        } else {
            Joules(self.energy.0 / self.received.len() as f64)
        }
    }
}

/// A bundled-data pipeline with Razor shadow latches.
///
/// Per stage, per bit:
///
/// ```text
/// data ─[INV × depth]─┬─ D  Q ──── next stage        (main, clk = main line)
///                     └─ D  Q' ─┐
///            main Q ── XOR ─────┴─→ OR → error       (shadow, clk = extended line)
/// req ─[BUF × k]─ clk ─[BUF × k']─ clk' ─ next stage, ack
/// ```
///
/// The acknowledge is taken *after* the shadow line, so when the
/// environment sees the handshake complete, every shadow latch has
/// captured and the error flags are valid.
#[derive(Debug, Clone)]
pub struct RazorPipeline {
    width: usize,
    data_in: Vec<NetId>,
    req_in: NetId,
    ack: NetId,
    data_out: Vec<NetId>,
    stages: Vec<RazorStage>,
    inverting: bool,
}

impl RazorPipeline {
    /// Appends an `n_stages` × `width`-bit Razor pipeline to `netlist`:
    /// `logic_depth` inverters per bit per stage, a main delay line
    /// sized by `margin`, and a shadow extension sized so the shadow
    /// capture waits `shadow_margin × logic_depth` inverter delays in
    /// total (`shadow_margin > margin`).
    ///
    /// # Panics
    ///
    /// Panics if `n_stages == 0`, `width` is not in `1..=64`,
    /// `logic_depth == 0`, `margin` is not strictly positive, or
    /// `shadow_margin <= margin`.
    pub fn build_wide(
        netlist: &mut Netlist,
        n_stages: usize,
        width: usize,
        logic_depth: usize,
        margin: f64,
        shadow_margin: f64,
        name: &str,
    ) -> Self {
        assert!(n_stages > 0, "pipeline needs at least one stage");
        assert!(width > 0 && width <= 64, "width must be in 1..=64");
        assert!(logic_depth > 0, "logic depth must be positive");
        assert!(margin > 0.0, "margin must be positive");
        assert!(
            shadow_margin > margin,
            "shadow margin must exceed the main margin"
        );
        let data_in: Vec<NetId> = (0..width)
            .map(|b| netlist.input(&format!("{name}.data{b}")))
            .collect();
        let req_in = netlist.input(&format!("{name}.req"));

        // Buffers have delay factor 2.0 vs the inverter's 1.0 (as in the
        // plain bundled pipeline).
        let line_len = ((margin * logic_depth as f64) / 2.0).ceil().max(1.0) as usize;
        let shadow_len = (((shadow_margin - margin) * logic_depth as f64) / 2.0)
            .ceil()
            .max(1.0) as usize;

        let mut data = data_in.clone();
        let mut req = req_in;
        let mut stages = Vec::with_capacity(n_stages);
        for s in 0..n_stages {
            let main_line = DelayLine::build(netlist, line_len, req, &format!("{name}.s{s}.dl"));
            let shadow_line = DelayLine::build(
                netlist,
                shadow_len,
                main_line.output(),
                &format!("{name}.s{s}.sdl"),
            );
            let mut logic_gates = Vec::new();
            let mut latched = Vec::with_capacity(width);
            let mut disagree = Vec::with_capacity(width);
            for (b, &din) in data.iter().enumerate() {
                let mut d = din;
                for i in 0..logic_depth {
                    d = netlist.gate(GateKind::Inv, &[d], &format!("{name}.s{s}.b{b}.l{i}"));
                    logic_gates.push(netlist.driver_of(d).expect("gate just built"));
                }
                let q = netlist.gate(
                    GateKind::Dff,
                    &[main_line.output(), d],
                    &format!("{name}.s{s}.b{b}.q"),
                );
                let sq = netlist.gate(
                    GateKind::Dff,
                    &[shadow_line.output(), d],
                    &format!("{name}.s{s}.b{b}.sq"),
                );
                disagree.push(netlist.gate(
                    GateKind::Xor,
                    &[q, sq],
                    &format!("{name}.s{s}.b{b}.err"),
                ));
                latched.push(q);
            }
            let error = if disagree.len() == 1 {
                disagree[0]
            } else {
                netlist.gate(GateKind::Or, &disagree, &format!("{name}.s{s}.err"))
            };
            netlist.mark_output(error);
            stages.push(RazorStage {
                logic_gates,
                delay_gates: main_line.gates().to_vec(),
                shadow_gates: shadow_line.gates().to_vec(),
                error,
            });
            data = latched;
            req = shadow_line.output();
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

    /// Per-stage gate handles for delay injection.
    pub fn stages(&self) -> &[RazorStage] {
        &self.stages
    }

    /// The acknowledge the environment observes.
    pub fn ack(&self) -> NetId {
        self.ack
    }

    fn any_error(&self, sim: &Simulator) -> bool {
        self.stages.iter().any(|s| sim.value(s.error))
    }

    /// Multiplies the delay of every delay-line buffer (main and
    /// shadow) by `k` on top of its current scale — the replay
    /// slowdown. `k = 1/slowdown` undoes a previous stretch.
    fn scale_lines(&self, sim: &mut Simulator, k: f64) {
        for s in &self.stages {
            for &g in s.delay_gates.iter().chain(&s.shadow_gates) {
                let cur = sim.delay_scale(g);
                sim.set_delay_scale(g, cur * k);
            }
        }
    }

    /// Drives `words` through the pipeline with the 4-phase protocol of
    /// the plain bundled pipeline, plus Razor recovery: after each
    /// handshake the stage error flags are read; a raised flag counts a
    /// detected violation and the word is **replayed** with every delay
    /// line stretched by `replay_slowdown` (restored once the word is
    /// accepted). A word still flagged after `max_replays` attempts is
    /// accepted as-is and counted in `unresolved`.
    ///
    /// # Panics
    ///
    /// Panics if a word exceeds the pipeline width,
    /// `replay_slowdown < 1` or `max_replays == 0`.
    pub fn transfer(
        &self,
        sim: &mut Simulator,
        words: &[u64],
        deadline: Seconds,
        replay_slowdown: f64,
        max_replays: usize,
    ) -> RazorOutcome {
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
        assert!(replay_slowdown >= 1.0, "replay must not speed timing up");
        assert!(max_replays > 0, "need at least one replay attempt");
        let energy_before = sim.total_energy();
        let t_begin = sim.now();
        let mut tx = Tx::Launch;
        let mut attempts = 0usize; // replays already spent on this word
        let mut stretched = false;
        let mut handshake_energy_mark = Joules(0.0);
        let mut received = Vec::new();
        let mut errors_detected = 0usize;
        let mut replays = 0usize;
        let mut unresolved = 0usize;
        let mut replay_energy = Joules(0.0);
        let completed = sim.drive_until(deadline, |sim| {
            if tx == Tx::WaitAckLow && !sim.value(self.ack) {
                if stretched {
                    replay_energy += sim.total_energy() - handshake_energy_mark;
                }
                let error = self.any_error(sim);
                errors_detected += usize::from(error);
                if error && attempts < max_replays {
                    // Replay the same word with slower timing.
                    if !stretched {
                        self.scale_lines(sim, replay_slowdown);
                        stretched = true;
                    }
                    attempts += 1;
                    replays += 1;
                } else {
                    unresolved += usize::from(error);
                    received.push(read_word(sim, &self.data_out, self.inverting));
                    if stretched {
                        self.scale_lines(sim, 1.0 / replay_slowdown);
                        stretched = false;
                    }
                    attempts = 0;
                }
                tx = Tx::Launch;
            }
            match tx {
                Tx::Launch => {
                    let Some(&w) = words.get(received.len()) else {
                        return true;
                    };
                    handshake_energy_mark = sim.total_energy();
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
        if stretched {
            self.scale_lines(sim, 1.0 / replay_slowdown);
        }
        RazorOutcome {
            received,
            errors_detected,
            replays,
            unresolved,
            completed,
            duration: Seconds(sim.now().0 - t_begin.0),
            energy: sim.total_energy() - energy_before,
            replay_energy,
        }
    }
}

/// A DVS controller servoing Vdd to a target detected-error rate.
///
/// Razor's premise: the most efficient operating point is *not* the
/// error-free one — it is just past the point of first failure, where
/// occasional replays cost less than the worst-case voltage margin.
/// The controller walks Vdd down while the observed error rate is
/// comfortably below target and back up when it overshoots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RazorDvsController {
    vdd: Volts,
    v_min: Volts,
    v_max: Volts,
    step: Volts,
    target: f64,
}

impl RazorDvsController {
    /// A controller starting at `vdd`, stepping by `step` within
    /// `[v_min, v_max]`, aiming for `target` detected errors per word.
    ///
    /// # Panics
    ///
    /// Panics unless `v_min < v_max`, `vdd` lies within the band,
    /// `step` is strictly positive and `target` is in `(0, 1)`.
    pub fn new(vdd: Volts, v_min: Volts, v_max: Volts, step: Volts, target: f64) -> Self {
        assert!(v_min.0 < v_max.0, "inverted voltage band");
        assert!(
            (v_min.0..=v_max.0).contains(&vdd.0),
            "start voltage outside band"
        );
        assert!(step.0 > 0.0, "step must be positive");
        assert!(target > 0.0 && target < 1.0, "target rate must be in (0,1)");
        Self {
            vdd,
            v_min,
            v_max,
            step,
            target,
        }
    }

    /// The current operating voltage.
    pub fn vdd(&self) -> Volts {
        self.vdd
    }

    /// Feeds one measurement window (detected errors over words
    /// carried) and returns the next operating voltage: up a step when
    /// the rate overshoots the target, down a step when it sits below
    /// half the target, unchanged in the dead band.
    pub fn observe(&mut self, errors: usize, words: usize) -> Volts {
        let rate = if words == 0 {
            1.0 // no throughput: treat as failing, back off upward
        } else {
            errors as f64 / words as f64
        };
        if rate > self.target {
            self.vdd = Volts((self.vdd.0 + self.step.0).min(self.v_max.0));
        } else if rate < 0.5 * self.target {
            self.vdd = Volts((self.vdd.0 - self.step.0).max(self.v_min.0));
        }
        self.vdd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emc_device::DeviceModel;
    use emc_sim::SupplyKind;
    use emc_units::Waveform;

    const DEADLINE: Seconds = Seconds(1e-3);

    /// A started pipeline on a `vdd` rail, not yet settled.
    fn rig_on(
        stages: usize,
        width: usize,
        depth: usize,
        margin: f64,
        shadow_margin: f64,
        vdd: Waveform,
    ) -> (Simulator, RazorPipeline) {
        let mut nl = Netlist::new();
        let p =
            RazorPipeline::build_wide(&mut nl, stages, width, depth, margin, shadow_margin, "r");
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
        shadow_margin: f64,
        vdd: f64,
    ) -> (Simulator, RazorPipeline) {
        let (mut sim, p) = rig_on(
            stages,
            width,
            depth,
            margin,
            shadow_margin,
            Waveform::constant(vdd),
        );
        sim.run_to_quiescence(1_000_000);
        (sim, p)
    }

    fn slow_logic(sim: &mut Simulator, p: &RazorPipeline, scale: f64) {
        for s in p.stages() {
            for &g in &s.logic_gates {
                sim.set_delay_scale(g, scale);
            }
        }
    }

    #[test]
    fn error_free_at_nominal() {
        let words = [0xA5, 0x3C, 0x00, 0xFF, 0x81, 0x42, 0x18, 0x99];
        let (mut sim, p) = rig(2, 8, 6, 2.0, 6.0, 1.0);
        let out = p.transfer(&mut sim, &words, DEADLINE, 2.0, 2);
        assert!(out.completed);
        assert_eq!(out.received, words.to_vec());
        assert_eq!(out.errors_detected, 0);
        assert_eq!(out.replays, 0);
        assert_eq!(out.replay_energy, Joules(0.0));
    }

    #[test]
    fn violations_detected_replayed_and_results_bit_identical() {
        let words = [0xA5, 0x3C, 0x00, 0xFF, 0x81, 0x42, 0x18, 0x99, 0x5A, 0xC3];
        // Error-free reference at nominal Vdd.
        let (mut sim_ref, p_ref) = rig(1, 8, 6, 2.0, 24.0, 1.0);
        let reference = p_ref.transfer(&mut sim_ref, &words, DEADLINE, 2.0, 2);
        assert_eq!(reference.received, words.to_vec());

        // Same pipeline with logic slowed 8×. The main delay line's
        // effective margin is well above its nominal 2× because its last
        // buffer drives all eight DFF clock pins, so the sabotage must
        // comfortably exceed the loaded margin; the 24× shadow coverage
        // keeps detection sound.
        let (mut sim, p) = rig(1, 8, 6, 2.0, 24.0, 1.0);
        slow_logic(&mut sim, &p, 8.0);
        let out = p.transfer(&mut sim, &words, DEADLINE, 8.0, 2);
        assert!(out.completed);
        assert!(
            out.errors_detected > 0,
            "sabotage beyond margin must raise error flags"
        );
        assert_eq!(out.replays, out.errors_detected, "every violation replayed");
        assert_eq!(out.unresolved, 0, "replay slowdown covers the sabotage");
        assert_eq!(
            out.received, reference.received,
            "replayed results must be bit-identical to the error-free run"
        );
        assert!(
            out.replay_energy.0 > 0.0,
            "recovery must book an energy penalty"
        );
        assert!(out.replay_energy.0 < out.energy.0);
    }

    #[test]
    fn silent_corruption_becomes_detected_error() {
        // The same sabotage on the plain bundled pipeline corrupts
        // silently; Razor's flags make it visible.
        use emc_async::BundledPipeline;
        let words = [1, 0, 1, 0, 1, 0];
        let mut nl = Netlist::new();
        let pb = BundledPipeline::build_wide(&mut nl, 1, 1, 6, 2.0, "b");
        let mut sim = Simulator::new(nl, DeviceModel::umc90());
        let d = sim.add_domain("vdd", SupplyKind::ideal(Waveform::constant(1.0)));
        sim.assign_all(d);
        sim.start();
        sim.run_to_quiescence(1_000_000);
        for g in &pb.stages()[0].logic_gates {
            sim.set_delay_scale(*g, 8.0);
        }
        let out_b = pb.transfer(&mut sim, &words, DEADLINE);
        assert!(out_b.completed);
        assert_ne!(out_b.received, words.to_vec(), "bundled corrupts silently");

        let (mut sim_r, pr) = rig(1, 1, 6, 2.0, 12.0, 1.0);
        slow_logic(&mut sim_r, &pr, 8.0);
        let out_r = pr.transfer(&mut sim_r, &words, DEADLINE, 8.0, 2);
        assert!(out_r.errors_detected > 0, "razor must flag the violation");
        assert_eq!(out_r.received, words.to_vec(), "and repair it by replay");
    }

    #[test]
    fn replay_restores_delay_scales() {
        let words = [0x1, 0x2];
        let (mut sim, p) = rig(1, 4, 6, 2.0, 8.0, 1.0);
        slow_logic(&mut sim, &p, 4.0);
        let before: Vec<f64> = p.stages()[0]
            .delay_gates
            .iter()
            .map(|&g| sim.delay_scale(g))
            .collect();
        let out = p.transfer(&mut sim, &words, DEADLINE, 4.0, 2);
        assert!(out.replays > 0);
        let after: Vec<f64> = p.stages()[0]
            .delay_gates
            .iter()
            .map(|&g| sim.delay_scale(g))
            .collect();
        assert_eq!(before, after, "scales must be restored after recovery");
    }

    #[test]
    fn transfer_is_deterministic() {
        let words = [0xA5, 0x3C, 0x7E];
        let (mut s1, p1) = rig(2, 8, 4, 2.0, 6.0, 0.8);
        let (mut s2, p2) = rig(2, 8, 4, 2.0, 6.0, 0.8);
        let a = p1.transfer(&mut s1, &words, DEADLINE, 2.0, 2);
        let b = p2.transfer(&mut s2, &words, DEADLINE, 2.0, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn transfer_below_the_floor_gives_up_at_the_deadline() {
        // Where DVS walks Vdd down: a ramp that never climbs to the
        // 0.10-V floor. No gate fires, and the transfer must stop at its
        // deadline instead of re-integrating forever.
        let ramp = Waveform::ramp(0.08, 0.05, Seconds(0.0), Seconds(1e-9));
        let (mut sim, p) = rig_on(2, 2, 3, 2.0, 6.0, ramp);
        sim.run_until(Seconds(100e-9));
        let deadline = Seconds(sim.now().0 + 1e-3);
        let out = p.transfer(&mut sim, &[1, 2], deadline, 2.0, 2);
        assert!(!out.completed);
        assert!(sim.now() <= deadline, "now {}", sim.now());
        assert!(sim.total_energy().0.is_finite());
    }

    #[test]
    fn dvs_controller_servoes_toward_target_band() {
        // Surrogate plant: detected-error rate rises as Vdd falls.
        let rate_at = |vdd: Volts| -> f64 { ((0.8 - vdd.0) * 2.5).clamp(0.0, 1.0) };
        let mut ctl =
            RazorDvsController::new(Volts(1.0), Volts(0.3), Volts(1.0), Volts(0.05), 0.10);
        for _ in 0..40 {
            let rate = rate_at(ctl.vdd());
            let errors = (rate * 100.0).round() as usize;
            ctl.observe(errors, 100);
        }
        let final_rate = rate_at(ctl.vdd());
        // Converged below nominal into the dead band around the first
        // failures (the band's edges alternate, so only the band itself
        // is pinned, not a single voltage).
        assert!(
            (0.7..=0.85).contains(&ctl.vdd().0),
            "controller should settle near the error onset, vdd {}",
            ctl.vdd()
        );
        assert!(
            final_rate <= 0.10 + 1e-9,
            "rate {final_rate} must not exceed target"
        );
    }

    #[test]
    fn dvs_controller_backs_off_when_starved() {
        let mut ctl =
            RazorDvsController::new(Volts(0.4), Volts(0.3), Volts(1.0), Volts(0.05), 0.05);
        // Zero words carried: treated as failing, voltage must rise.
        let v = ctl.observe(0, 0);
        assert!(v.0 > 0.4);
    }

    #[test]
    #[should_panic(expected = "shadow margin must exceed")]
    fn shadow_margin_must_exceed_margin() {
        let mut nl = Netlist::new();
        let _ = RazorPipeline::build_wide(&mut nl, 1, 1, 4, 2.0, 2.0, "r");
    }
}
