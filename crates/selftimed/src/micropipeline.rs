//! Muller-pipeline (micropipeline) control: the canonical self-timed
//! FIFO control structure — a chain of C-elements, each gated by the
//! inverted state of its successor:
//!
//! ```text
//! c[i] = C( c[i-1], ¬c[i+1] )
//! ```
//!
//! A request wave entering the chain propagates as fast as the gates
//! allow, but never overruns: stage `i` can only accept a new event once
//! stage `i+1` has absorbed the previous one. This is the control
//! skeleton of Sutherland's micropipelines and the backbone every
//! handshake-pipeline datapath (including this crate's WCHB) hangs off.

use emc_netlist::{GateId, GateKind, NetId, Netlist};
use emc_sim::Simulator;
use emc_units::Seconds;

/// An N-stage Muller pipeline control chain.
#[derive(Debug, Clone)]
pub struct MullerPipeline {
    request: NetId,
    stages: Vec<NetId>,
    c_gates: Vec<GateId>,
    /// The environment-driven acknowledge at the tail (active low on the
    /// C-input, wired through an inverter like every inter-stage link).
    tail_ack: NetId,
}

impl MullerPipeline {
    /// Appends an `n`-stage control chain to `netlist`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn build(netlist: &mut Netlist, n: usize, name: &str) -> Self {
        assert!(n > 0, "pipeline needs at least one stage");
        let request = netlist.input(&format!("{name}.req"));
        let tail_ack = netlist.input(&format!("{name}.tail_ack"));
        let mut stages = Vec::with_capacity(n);
        let mut c_gates = Vec::with_capacity(n);
        let mut prev = request;
        // Forward pass: build each C with a placeholder second input
        // (its own predecessor), then close the successor feedback.
        for i in 0..n {
            let c = netlist.gate(GateKind::CElement, &[prev, prev], &format!("{name}.c{i}"));
            c_gates.push(netlist.driver_of(c).expect("gate just built"));
            stages.push(c);
            prev = c;
        }
        for i in 0..n {
            let next = if i + 1 < n { stages[i + 1] } else { tail_ack };
            let nack = netlist.gate(GateKind::Inv, &[next], &format!("{name}.nack{i}"));
            netlist.connect_feedback(stages[i], nack);
        }
        for &s in &stages {
            netlist.mark_output(s);
        }
        Self {
            request,
            stages,
            c_gates,
            tail_ack,
        }
    }

    /// The head request input.
    pub fn request(&self) -> NetId {
        self.request
    }

    /// The tail acknowledge input (environment-driven).
    pub fn tail_ack(&self) -> NetId {
        self.tail_ack
    }

    /// Per-stage control outputs, head first.
    pub fn stages(&self) -> &[NetId] {
        &self.stages
    }

    /// The C-element gate ids (for delay injection).
    pub fn c_gates(&self) -> &[GateId] {
        &self.c_gates
    }

    /// Number of stages.
    pub fn depth(&self) -> usize {
        self.stages.len()
    }

    /// Number of tokens currently held (stages whose level differs from
    /// their successor's — the classic occupancy rule for a Muller
    /// chain).
    pub fn occupancy(&self, sim: &Simulator) -> usize {
        let mut count = 0;
        for i in 0..self.stages.len() {
            let here = sim.value(self.stages[i]);
            let next = if i + 1 < self.stages.len() {
                sim.value(self.stages[i + 1])
            } else {
                sim.value(self.tail_ack)
            };
            if here != next {
                count += 1;
            }
        }
        count
    }

    /// Pushes `events` request transitions through the head while the
    /// tail absorbs everything immediately (2-phase: each event is one
    /// edge). Returns the time the last stage fired its last event, or
    /// `None` on deadline.
    pub fn stream_through(
        &self,
        sim: &mut Simulator,
        events: usize,
        deadline: Seconds,
    ) -> Option<Seconds> {
        let last = *self.stages.last().expect("non-empty");
        let mut sent = 0usize;
        let mut req_level = sim.value(self.request);
        let mut seen_at_tail = 0usize;
        let mut tail_level = sim.value(last);
        let mut last_time = sim.now();
        loop {
            // Head: issue the next edge as soon as the first stage has
            // caught up with the current level.
            if sent < events && sim.value(self.stages[0]) == req_level {
                req_level = !req_level;
                sim.schedule_input(self.request, sim.now(), req_level);
                sent += 1;
            }
            // Tail: acknowledge instantly (maximal throughput).
            if sim.value(last) != tail_level {
                tail_level = sim.value(last);
                seen_at_tail += 1;
                last_time = sim.now();
                sim.schedule_input(self.tail_ack, sim.now(), tail_level);
            }
            if seen_at_tail >= events {
                return Some(last_time);
            }
            if sim.now() > deadline {
                return None;
            }
            if sim.step().is_none() {
                // Quiescent but incomplete: check the env can still act.
                let head_can = sent < events && sim.value(self.stages[0]) == req_level;
                let tail_can = sim.value(last) != tail_level;
                if !head_can && !tail_can {
                    return None;
                }
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
    use emc_units::Waveform;

    fn rig(n: usize, vdd: f64) -> (Simulator, MullerPipeline) {
        let mut nl = Netlist::new();
        let p = MullerPipeline::build(&mut nl, n, "mp");
        let mut sim = Simulator::new(nl, DeviceModel::umc90());
        let d = sim.add_domain("vdd", SupplyKind::ideal(Waveform::constant(vdd)));
        sim.assign_all(d);
        sim.start();
        sim.run_to_quiescence(10_000);
        (sim, p)
    }

    #[test]
    fn single_event_reaches_the_tail() {
        let (mut sim, p) = rig(5, 1.0);
        let done = p.stream_through(&mut sim, 1, Seconds(1e-6));
        assert!(done.is_some());
        assert!(sim.hazards().is_empty());
        // Tail acked: chain returns to uniform level, zero occupancy.
        sim.run_to_quiescence(10_000);
        assert_eq!(p.occupancy(&sim), 0);
    }

    #[test]
    fn events_never_overrun() {
        // With a deliberately slow tail stage, occupancy stays bounded by
        // the stage count at every simulation step.
        let (mut sim, p) = rig(4, 1.0);
        // Slow the last C-element 50×.
        sim.set_delay_scale(*p.c_gates().last().unwrap(), 50.0);
        let mut req_level = false;
        for _ in 0..6 {
            req_level = !req_level;
            sim.schedule_input(p.request(), sim.now(), req_level);
            for _ in 0..200 {
                if sim.step().is_none() {
                    break;
                }
                assert!(p.occupancy(&sim) <= p.depth(), "overrun!");
            }
        }
        assert!(sim.hazards().is_empty());
    }

    #[test]
    fn throughput_tracks_vdd() {
        let time_for = |vdd: f64| {
            let (mut sim, p) = rig(6, vdd);
            let t0 = sim.now();
            let done = p
                .stream_through(&mut sim, 12, Seconds(t0.0 + 1.0))
                .expect("stream completed");
            done.0 - t0.0
        };
        let fast = time_for(1.0);
        let slow = time_for(0.3);
        assert!(slow / fast > 30.0, "ratio {}", slow / fast);
    }

    #[test]
    fn delay_insensitive_under_random_scaling() {
        let mut rng = StdRng::seed_from_u64(123);
        for trial in 0..5 {
            let mut nl = Netlist::new();
            let p = MullerPipeline::build(&mut nl, 5, "mp");
            let mut sim = Simulator::new(nl, DeviceModel::umc90());
            let d = sim.add_domain("vdd", SupplyKind::ideal(Waveform::constant(0.5)));
            sim.assign_all(d);
            for i in 0..sim.netlist().gate_count() {
                let id = sim.netlist().gate_id(i);
                sim.set_delay_scale(id, rng.gen_range(0.1..10.0));
            }
            sim.start();
            sim.run_to_quiescence(10_000);
            let deadline = Seconds(sim.now().0 + 10.0);
            let done = p.stream_through(&mut sim, 8, deadline);
            assert!(done.is_some(), "trial {trial} did not complete");
            assert!(sim.hazards().is_empty(), "trial {trial} hazards");
        }
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_stages_panics() {
        let mut nl = Netlist::new();
        let _ = MullerPipeline::build(&mut nl, 0, "mp");
    }
}
