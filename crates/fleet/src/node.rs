//! A fleet node: power chain + sensor front-end + calibrated island.
//!
//! Each node owns a real [`emc_power::PowerChain`] (vibration harvester
//! or solar cell → storage cap → DC-DC) and executes *tasks* under the
//! energy-token discipline: a task's whole quantum (sense + compute +
//! radio) is banked from the reservoir through
//! [`emc_power::PowerChain::draw_quantum`] before any of it runs —
//! all-or-nothing, no half-finished work on a dying rail. What it may
//! attempt per wake is capped by the fleet-level duty quota the
//! game-theoretic power manager assigns to its QoS class.
//!
//! All node energy accounting is kept in a [`NodeLedger`] of integer
//! femtojoules, so ledger merging is *exactly* associative and
//! commutative — f64 accumulation would make the merged fleet ledger
//! depend on merge grouping, which the deterministic sharding forbids.

use emc_power::{DcDcConverter, PowerChain, SolarCell, StorageCap, VibrationHarvester};
use emc_prng::{Rng, SplitMix64, StdRng};
use emc_sim::Fnv64;
use emc_units::{Farads, Hertz, Joules, Seconds, Volts, Watts, Waveform};

use crate::event::Nanos;
use crate::island::{SensorModel, TaskCost};

/// Joules → integer femtojoules (saturating, never negative).
pub(crate) fn to_femtojoules(j: f64) -> u64 {
    if j <= 0.0 {
        0
    } else {
        (j * 1e15).round().min(u64::MAX as f64) as u64
    }
}

/// Integer femtojoules → joules.
pub(crate) fn from_femtojoules(fj: u64) -> f64 {
    fj as f64 * 1e-15
}

/// Per-node energy ledger in integer femtojoules. Integer buckets make
/// [`NodeLedger::merge`] exactly associative *and* commutative — the
/// property the fleet's sharded merge (and its property test) relies
/// on; see `emc_obs::EnergyLedger` for the exported float view.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeLedger {
    /// Energy produced by the harvester.
    pub harvested_fj: u64,
    /// Harvested energy the reservoir could not accept (clamp).
    pub spilled_fj: u64,
    /// Energy delivered into sensor conversions.
    pub sense_fj: u64,
    /// Energy delivered into island compute.
    pub compute_fj: u64,
    /// Energy delivered into the radio (tx + rx).
    pub radio_fj: u64,
    /// Idle / standing draw delivered outside task quanta.
    pub idle_fj: u64,
    /// Conversion loss (inefficiency + quiescent).
    pub loss_fj: u64,
    /// Demand the reservoir could not meet (refused quanta).
    pub deficit_fj: u64,
    /// Energy still stored in the reservoir at the end of the run.
    pub stored_fj: u64,
}

impl NodeLedger {
    /// Exact bucket-wise sum (saturating).
    pub fn merge(&self, other: &NodeLedger) -> NodeLedger {
        NodeLedger {
            harvested_fj: self.harvested_fj.saturating_add(other.harvested_fj),
            spilled_fj: self.spilled_fj.saturating_add(other.spilled_fj),
            sense_fj: self.sense_fj.saturating_add(other.sense_fj),
            compute_fj: self.compute_fj.saturating_add(other.compute_fj),
            radio_fj: self.radio_fj.saturating_add(other.radio_fj),
            idle_fj: self.idle_fj.saturating_add(other.idle_fj),
            loss_fj: self.loss_fj.saturating_add(other.loss_fj),
            deficit_fj: self.deficit_fj.saturating_add(other.deficit_fj),
            stored_fj: self.stored_fj.saturating_add(other.stored_fj),
        }
    }

    /// Renders the integer buckets into an `emc-obs` energy ledger
    /// under `fleet/<bucket>` accounts (fixed booking order → identical
    /// export bytes for identical runs).
    pub(crate) fn to_energy_ledger(self) -> emc_obs::EnergyLedger {
        use emc_obs::EnergyKind;
        let mut l = emc_obs::EnergyLedger::new();
        l.add(
            "fleet/harvested",
            EnergyKind::Harvested,
            from_femtojoules(self.harvested_fj),
        );
        l.add(
            "fleet/spilled",
            EnergyKind::Leaked,
            from_femtojoules(self.spilled_fj),
        );
        l.add(
            "fleet/sense",
            EnergyKind::Dissipated,
            from_femtojoules(self.sense_fj),
        );
        l.add(
            "fleet/compute",
            EnergyKind::Dissipated,
            from_femtojoules(self.compute_fj),
        );
        l.add(
            "fleet/radio",
            EnergyKind::Dissipated,
            from_femtojoules(self.radio_fj),
        );
        l.add(
            "fleet/idle",
            EnergyKind::Dissipated,
            from_femtojoules(self.idle_fj),
        );
        l.add(
            "fleet/conversion",
            EnergyKind::Leaked,
            from_femtojoules(self.loss_fj),
        );
        l.add(
            "fleet/reservoir",
            EnergyKind::Stored,
            from_femtojoules(self.stored_fj),
        );
        l
    }

    /// Fold the ledger into an FNV-1a accumulator (digest building).
    pub(crate) fn fold_digest(&self, h: &mut Fnv64) {
        for v in [
            self.harvested_fj,
            self.spilled_fj,
            self.sense_fj,
            self.compute_fj,
            self.radio_fj,
            self.idle_fj,
            self.loss_fj,
            self.deficit_fj,
            self.stored_fj,
        ] {
            h.write_u64(v);
        }
    }
}

/// QoS class of a node — its duty period, workload and radio appetite.
/// Nodes are assigned round-robin (`node_id % 3`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeClass {
    /// Fast shallow sampling: wake every epoch, tiny compute.
    Sentinel,
    /// Medium-rate monitoring with moderate compute per task.
    Monitor,
    /// Slow deep aggregation: long period, heavy compute.
    Archiver,
}

/// Number of QoS classes.
pub(crate) const CLASSES: usize = 3;

impl NodeClass {
    /// Every class, in [`NodeClass::index`] order.
    pub const ALL: [NodeClass; CLASSES] =
        [NodeClass::Sentinel, NodeClass::Monitor, NodeClass::Archiver];

    /// Class of `node_id` (round-robin assignment).
    pub fn of(node_id: u32) -> Self {
        match node_id % 3 {
            0 => NodeClass::Sentinel,
            1 => NodeClass::Monitor,
            _ => NodeClass::Archiver,
        }
    }

    /// Class index (0..[`CLASSES`]).
    pub fn index(&self) -> usize {
        match self {
            NodeClass::Sentinel => 0,
            NodeClass::Monitor => 1,
            NodeClass::Archiver => 2,
        }
    }

    /// Stable lower-case name.
    pub fn name(&self) -> &'static str {
        match self {
            NodeClass::Sentinel => "sentinel",
            NodeClass::Monitor => "monitor",
            NodeClass::Archiver => "archiver",
        }
    }

    /// Wake period in epochs.
    pub(crate) fn period_epochs(&self) -> u64 {
        match self {
            NodeClass::Sentinel => 1,
            NodeClass::Monitor => 2,
            NodeClass::Archiver => 4,
        }
    }

    /// Island operations per task.
    pub(crate) fn ops_per_task(&self) -> u64 {
        match self {
            NodeClass::Sentinel => 64,
            NodeClass::Monitor => 256,
            NodeClass::Archiver => 1024,
        }
    }

    /// Regulated rail the node's converter targets.
    pub fn rail(&self) -> Volts {
        match self {
            NodeClass::Sentinel => Volts(0.4),
            NodeClass::Monitor => Volts(0.5),
            NodeClass::Archiver => Volts(0.7),
        }
    }
}

/// Radio energy per transmitted message (delivered joules). Sized so
/// the radio dominates the task quantum — per-epoch demand is then
/// comparable to per-epoch harvest, which is what makes the fleet
/// *energy-modulated*: duty cycles track harvest, and a drought
/// visibly starves the reservoir within tens of epochs.
pub(crate) const TX_J: f64 = 60e-9;
/// Radio energy per received message.
pub(crate) const RX_J: f64 = 25e-9;
/// Standing idle draw of the always-on wake timer.
pub(crate) const IDLE_W: f64 = 1.5e-6;

/// Counters a node accumulates over a run (all exact integers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeSummary {
    /// Tasks the duty cycle expected (one per wake, plus backlog cap
    /// overflow counts as expected-but-lost).
    pub expected: u64,
    /// Tasks completed under the token discipline.
    pub completed: u64,
    /// Task attempts refused by the reservoir (token not granted).
    pub refused: u64,
    /// Island operations executed.
    pub ops: u64,
    /// Messages transmitted.
    pub sent: u64,
    /// Messages received (rx quantum granted).
    pub received: u64,
    /// Messages dropped at the receiver (rx quantum refused).
    pub dropped: u64,
    /// Wake events processed.
    pub wakes: u64,
}

impl NodeSummary {
    /// Exact element-wise sum.
    pub fn merge(&self, o: &NodeSummary) -> NodeSummary {
        NodeSummary {
            expected: self.expected + o.expected,
            completed: self.completed + o.completed,
            refused: self.refused + o.refused,
            ops: self.ops + o.ops,
            sent: self.sent + o.sent,
            received: self.received + o.received,
            dropped: self.dropped + o.dropped,
            wakes: self.wakes + o.wakes,
        }
    }

    /// Fold the counters into an FNV-1a accumulator.
    pub(crate) fn fold_digest(&self, h: &mut Fnv64) {
        for v in [
            self.expected,
            self.completed,
            self.refused,
            self.ops,
            self.sent,
            self.received,
            self.dropped,
            self.wakes,
        ] {
            h.write_u64(v);
        }
    }
}

/// Maximum backlog of unserved wakes a node will try to catch up on.
const BACKLOG_CAP: u64 = 16;

/// One harvester-powered sensor node.
#[derive(Debug)]
pub(crate) struct NodeState {
    /// Fleet-wide node id.
    pub id: u32,
    /// QoS class.
    pub(crate) class: NodeClass,
    /// The real supply chain (harvester → cap → DC-DC).
    pub chain: PowerChain,
    /// Per-node seeded RNG (`SplitMix64::mix(fleet_seed, id)`) — every
    /// random choice this node ever makes is independent of sharding.
    pub rng: StdRng,
    /// Simulation time of the node's last chain tick.
    pub last_tick: Nanos,
    /// Unserved task backlog (capped at `BACKLOG_CAP`).
    pub(crate) backlog: u64,
    /// Sequence number for outgoing messages.
    pub(crate) msg_seq: u32,
    /// Phase of the sensed environment signal, radians.
    pub(crate) sense_phase: f64,
    /// Accumulated counters.
    pub summary: NodeSummary,
    /// Accumulated energy ledger (integer femtojoules).
    pub ledger: NodeLedger,
    /// Checksum of sensed codes (folds sensing into the digest).
    pub(crate) sense_digest: Fnv64,
}

impl NodeState {
    /// Builds node `id` with a seed-jittered supply chain. Everything
    /// here is a pure function of `(fleet_seed, id)`.
    pub fn new(fleet_seed: u64, id: u32, drought: Option<&Waveform>) -> Self {
        let mut rng = StdRng::seed_from_u64(SplitMix64::mix(fleet_seed, u64::from(id)));
        let class = NodeClass::of(id);

        // Harvester: two in three nodes ride machinery vibration with a
        // per-node detuning; the rest carry a small solar cell. A
        // drought envelope (if any) throttles every harvester alike.
        let peak = Watts(60e-6 + 60e-6 * rng.gen::<f64>());
        let source = if rng.gen_bool(2.0 / 3.0) {
            let resonance = Hertz(120.0);
            let mut h = VibrationHarvester::new(resonance, peak, 8.0);
            if let Some(env) = drought {
                h = h.with_envelope(env.clone());
            }
            let detune = Hertz(resonance.0 * (1.0 + 0.04 * (rng.gen::<f64>() - 0.5)));
            h.into_source(detune)
        } else {
            let mut irradiance = Waveform::constant(0.55 + 0.4 * rng.gen::<f64>());
            if let Some(env) = drought {
                irradiance = irradiance.times(env.clone());
            }
            // i_sc sized so the ~0.7 V operating point yields ≈ 2·peak
            // under full irradiance.
            SolarCell::new(1.0, 3.0 * peak.0)
                .with_irradiance(irradiance)
                .into_source(0.7)
        };

        // Reservoir: 0.68–1.36 µF — a few epochs of task demand, so
        // storage smooths harvest ripple without hiding a drought.
        // Pre-charged to 45–85 % of the 1.2 V clamp so the fleet is
        // not uniformly dead at t = 0.
        let cap = Farads(0.68e-6 * (1.0 + rng.gen::<f64>()));
        let v_max = Volts(1.2);
        let v0 = Volts(v_max.0 * (0.45 + 0.4 * rng.gen::<f64>()));
        let storage = StorageCap::new(cap, v0, v_max);
        let converter = DcDcConverter::new(class.rail());

        let sense_phase = rng.gen::<f64>() * std::f64::consts::TAU;
        Self {
            id,
            class,
            chain: PowerChain::new(source, storage, converter),
            rng,
            last_tick: 0,
            backlog: 0,
            msg_seq: 0,
            sense_phase,
            summary: NodeSummary::default(),
            ledger: NodeLedger::default(),
            sense_digest: Fnv64::new(),
        }
    }

    /// First wake time: a per-node jitter inside the first period, so
    /// a class's nodes don't all fire on the same nanosecond.
    pub(crate) fn initial_wake(&mut self, epoch: Nanos) -> Nanos {
        let period = self.class.period_epochs() * epoch;
        self.rng.gen_range(0..period.max(1))
    }

    /// Advances the power chain to `now`: harvest at the real
    /// (possibly droughted) source power, pay the idle draw, and book
    /// the deltas into the integer ledger.
    pub(crate) fn tick_chain(&mut self, now: Nanos) {
        if now <= self.last_tick {
            return;
        }
        let dt = Seconds((now - self.last_tick) as f64 * 1e-9);
        let before = *self.chain.report();
        self.chain.tick(dt, Watts(IDLE_W));
        let after = self.chain.report();
        self.ledger.harvested_fj += to_femtojoules(after.harvested.0 - before.harvested.0);
        self.ledger.spilled_fj += to_femtojoules(after.spilled.0 - before.spilled.0);
        self.ledger.idle_fj += to_femtojoules(after.delivered.0 - before.delivered.0);
        self.ledger.loss_fj += to_femtojoules(after.conversion_loss.0 - before.conversion_loss.0);
        self.last_tick = now;
    }

    /// The environment signal this node is sensing (volts) — a slow
    /// per-node-phased oscillation across the sensor's calibrated
    /// range.
    pub(crate) fn sense_voltage(&self, now: Nanos) -> f64 {
        let t = now as f64 * 1e-9;
        0.62 + 0.32 * (std::f64::consts::TAU * 3.0 * t + self.sense_phase).sin()
    }

    /// Attempts one task at time `now`: bank the whole quantum (sense +
    /// compute + tx), then execute. `cost` is the island cost of this
    /// node's class's task at its rail
    /// ([`IslandModel::task_cost`](crate::island::IslandModel::task_cost)).
    /// Returns the message to send on success (`None` when the island
    /// is stalled, the token was refused, or the node has no
    /// neighbours).
    pub(crate) fn attempt_task(
        &mut self,
        now: Nanos,
        cost: &TaskCost,
        sensor: &SensorModel,
        links: &[crate::topology::Link],
    ) -> TaskOutcome {
        if cost.rate <= 0.0 {
            // Rail below the island's calibrated floor: computation has
            // stopped, not failed — the defining self-timed behaviour.
            self.summary.refused += 1;
            return TaskOutcome::Stalled;
        }
        let (code, e_sense, t_sense) = sensor.sample(self.sense_voltage(now));
        let e_compute = cost.energy;
        let will_send = !links.is_empty();
        let e_radio = if will_send { TX_J } else { 0.0 };
        let quantum = e_sense + e_compute + e_radio;
        let window = Seconds((t_sense + cost.time).max(1e-9));
        if !self.chain.draw_quantum(Joules(quantum), window) {
            self.ledger.deficit_fj += to_femtojoules(quantum);
            self.summary.refused += 1;
            return TaskOutcome::Refused;
        }
        // Quantum banked: book the split and the loss delta.
        self.ledger.sense_fj += to_femtojoules(e_sense);
        self.ledger.compute_fj += to_femtojoules(e_compute);
        self.ledger.radio_fj += to_femtojoules(e_radio);
        self.summary.completed += 1;
        self.summary.ops += self.class.ops_per_task();
        self.sense_digest.write_u64(code);
        if will_send {
            let link = links[self.rng.gen_range(0..links.len())];
            let seq = self.msg_seq;
            self.msg_seq += 1;
            self.summary.sent += 1;
            TaskOutcome::Sent {
                dst: link.dst,
                deliver: now + link.latency,
                seq,
            }
        } else {
            TaskOutcome::Done
        }
    }

    /// Handles a message arrival: the rx quantum is drawn under the
    /// same all-or-nothing discipline; refusal drops the message.
    pub(crate) fn receive(&mut self, src: u32, msg_seq: u32) {
        // Fold the arrival into the digest so routing bugs change it.
        self.sense_digest
            .write_u64(u64::from(src) << 32 | u64::from(msg_seq));
        if self.chain.draw_quantum(Joules(RX_J), Seconds(1e-6)) {
            self.ledger.radio_fj += to_femtojoules(RX_J);
            self.summary.received += 1;
        } else {
            self.ledger.deficit_fj += to_femtojoules(RX_J);
            self.summary.dropped += 1;
        }
    }

    /// One wake: tick the chain, grow the backlog by the one task this
    /// wake expects, then attempt up to `quota` tasks of island cost
    /// `cost`. Returns messages to route.
    pub(crate) fn wake(
        &mut self,
        now: Nanos,
        quota: u32,
        cost: &TaskCost,
        sensor: &SensorModel,
        links: &[crate::topology::Link],
        out: &mut Vec<crate::event::Message>,
    ) {
        self.summary.wakes += 1;
        self.summary.expected += 1;
        self.backlog = (self.backlog + 1).min(BACKLOG_CAP);
        self.tick_chain(now);
        let attempts = u64::from(quota).min(self.backlog);
        for _ in 0..attempts {
            match self.attempt_task(now, cost, sensor, links) {
                TaskOutcome::Sent { dst, deliver, seq } => {
                    self.backlog -= 1;
                    out.push(crate::event::Message {
                        deliver,
                        dst,
                        src: self.id,
                        seq,
                    });
                }
                TaskOutcome::Done => {
                    self.backlog -= 1;
                }
                // One refusal ends the wake: the reservoir that just
                // refused this quantum will refuse the next one too.
                TaskOutcome::Refused | TaskOutcome::Stalled => break,
            }
        }
    }

    /// Finalises the ledger at end of run (records remaining stored
    /// energy) and returns the node's digest contribution.
    pub fn finish(&mut self) -> u64 {
        self.ledger.stored_fj = to_femtojoules(self.chain.storage().stored_energy().0);
        let mut h = Fnv64::new();
        self.summary.fold_digest(&mut h);
        self.ledger.fold_digest(&mut h);
        h.write_u64(self.sense_digest.finish());
        h.finish()
    }
}

/// What a task attempt produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TaskOutcome {
    /// Completed and transmitted to a neighbour.
    Sent {
        /// Destination node.
        dst: u32,
        /// Absolute delivery time.
        deliver: Nanos,
        /// Sender sequence number.
        seq: u32,
    },
    /// Completed without a transmission (isolated node).
    Done,
    /// Reservoir refused the quantum.
    Refused,
    /// Rail below the island's floor.
    Stalled,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::island::{CalibDepth, IslandModel, IslandPoint};

    fn test_island() -> IslandModel {
        IslandModel::from_points(vec![
            IslandPoint {
                vdd: 0.3,
                ops_per_sec: 0.0,
                joules_per_op: 0.0,
            },
            IslandPoint {
                vdd: 0.4,
                ops_per_sec: 2e6,
                joules_per_op: 0.5e-12,
            },
            IslandPoint {
                vdd: 1.0,
                ops_per_sec: 2e7,
                joules_per_op: 2e-12,
            },
        ])
    }

    #[test]
    fn node_construction_is_seed_deterministic() {
        let a = NodeState::new(42, 7, None);
        let b = NodeState::new(42, 7, None);
        assert_eq!(
            a.chain.storage().stored_energy(),
            b.chain.storage().stored_energy()
        );
        assert_eq!(a.sense_phase, b.sense_phase);
        let c = NodeState::new(42, 8, None);
        assert_ne!(a.sense_phase, c.sense_phase);
    }

    #[test]
    fn ledger_merge_is_exact() {
        let a = NodeLedger {
            harvested_fj: 10,
            sense_fj: 3,
            ..Default::default()
        };
        let b = NodeLedger {
            harvested_fj: 5,
            compute_fj: 7,
            ..Default::default()
        };
        let ab = a.merge(&b);
        assert_eq!(ab.harvested_fj, 15);
        assert_eq!(ab.sense_fj, 3);
        assert_eq!(ab.compute_fj, 7);
        assert_eq!(a.merge(&b), b.merge(&a));
    }

    #[test]
    fn wake_executes_tasks_under_token_discipline() {
        let island = test_island();
        let sensor = SensorModel::calibrate(CalibDepth::Smoke);
        let mut node = NodeState::new(1, 0, None);
        let links = [crate::topology::Link {
            dst: 1,
            latency: 2_000_000,
        }];
        let mut out = Vec::new();
        // Pre-charged reservoir: the first wake must complete its task.
        let cost = island.task_cost(node.class.rail().0, node.class.ops_per_task());
        node.wake(1_000_000, 1, &cost, &sensor, &links, &mut out);
        assert_eq!(node.summary.completed, 1);
        assert_eq!(out.len(), 1);
        assert!(out[0].deliver >= 3_000_000);
        assert!(node.ledger.compute_fj > 0);
        assert!(node.ledger.radio_fj > 0);
    }

    #[test]
    fn stalled_island_refuses_every_task() {
        let island = IslandModel::from_points(vec![IslandPoint {
            vdd: 2.0, // rail far below the only calibrated point
            ops_per_sec: 1e6,
            joules_per_op: 1e-12,
        }]);
        let sensor = SensorModel::calibrate(CalibDepth::Smoke);
        let mut node = NodeState::new(1, 0, None);
        let mut out = Vec::new();
        let cost = island.task_cost(node.class.rail().0, node.class.ops_per_task());
        node.wake(1_000_000, 4, &cost, &sensor, &[], &mut out);
        assert_eq!(node.summary.completed, 0);
        assert_eq!(node.summary.refused, 1);
        assert!(out.is_empty());
    }

    #[test]
    fn receive_drops_when_reservoir_is_empty() {
        let mut node = NodeState::new(9, 3, None);
        // Drain the reservoir.
        while node.chain.draw_quantum(Joules(50e-9), Seconds(1e-6)) {}
        node.receive(0, 0);
        // Either received on residual charge or dropped — but the
        // counters must account for exactly one message.
        assert_eq!(node.summary.received + node.summary.dropped, 1);
    }

    #[test]
    fn femtojoule_conversion_round_trips() {
        assert_eq!(to_femtojoules(0.0), 0);
        assert_eq!(to_femtojoules(-1.0), 0);
        let j = 123.456e-9;
        let fj = to_femtojoules(j);
        assert!((from_femtojoules(fj) - j).abs() < 1e-15);
    }
}
