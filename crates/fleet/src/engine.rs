//! The fleet engine: epoch-barriered conservative PDES over the
//! campaign worker pool.
//!
//! # Determinism architecture
//!
//! The fleet is split into **shards** of contiguous node ranges; the
//! shard count is a pure function of the node count — never of the
//! thread count. Within one *epoch* every shard simulates its own
//! event queue completely independently: the topology guarantees every
//! link latency is at least one epoch (the PDES lookahead), so no
//! message sent during epoch `k` can be deliverable before epoch
//! `k+1`. Shards are fanned out across [`emc_sim::campaign`]'s worker
//! pool (splitmix-seeded, submission-order merged), and between epochs
//! a single-threaded barrier
//!
//! 1. drains every shard's outbox *in shard order*,
//! 2. sorts all in-flight messages by `(deliver, dst, src, seq)` — a
//!    total order independent of which worker produced them first,
//! 3. routes them into the destination shards' inboxes, and
//! 4. runs the fleet-wide duty arbitration for the next epoch: the
//!    game-theoretic power manager ([`emc_core::PowerGame`]) turns the
//!    epoch's measured harvest power into per-class duty quotas.
//!
//! Every number crossing the barrier is an exact integer (femtojoule
//! ledgers, event counters), so the arbitration input — and hence the
//! whole run — is bit-identical at any worker-thread count.

use std::sync::Mutex;
use std::time::Instant;

use emc_core::{PowerGame, TaskBid};
use emc_obs::Telemetry;
use emc_sim::campaign::{run_campaign, CampaignConfig, RunContext, RunReport};
use emc_sim::Fnv64;
use emc_units::{Seconds, Waveform};

use crate::event::{EventKind, EventQueue, Message, Nanos};
use crate::island::{CalibDepth, IslandModel, SensorModel};
use crate::node::{from_femtojoules, NodeClass, NodeLedger, NodeState, NodeSummary, CLASSES};
use crate::topology::{Topology, TopologyKind};

/// A harvest drought: every harvester in the fleet is throttled to
/// `factor` of its envelope between two epochs (the EXPERIMENTS.md
/// sweep drives this).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DroughtSpec {
    /// First epoch of the drought.
    pub from_epoch: u64,
    /// First epoch after the drought.
    pub until_epoch: u64,
    /// Envelope multiplier during the drought, in `[0, 1]`.
    pub factor: f64,
}

/// Fleet run parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of nodes.
    pub nodes: u32,
    /// Number of epochs to simulate.
    pub epochs: u64,
    /// Epoch length in nanoseconds (also the minimum link latency).
    pub epoch: Nanos,
    /// Master seed; per-node seeds are `SplitMix64::mix(seed, id)`.
    pub seed: u64,
    /// Fleet shape.
    pub topology: TopologyKind,
    /// Calibration depth for the island/sensor models.
    pub calib: CalibDepth,
    /// Optional harvest drought.
    pub drought: Option<DroughtSpec>,
}

impl FleetConfig {
    /// A 1 ms-epoch ring fleet with full calibration.
    pub fn new(nodes: u32, epochs: u64, seed: u64) -> Self {
        Self {
            nodes,
            epochs,
            epoch: 1_000_000,
            seed,
            topology: TopologyKind::Ring,
            calib: CalibDepth::Full,
            drought: None,
        }
    }

    /// The drought envelope as a waveform over fleet time, if any.
    fn drought_envelope(&self) -> Option<Waveform> {
        let d = self.drought?;
        let t0 = Seconds(d.from_epoch as f64 * self.epoch as f64 * 1e-9);
        let t1 = Seconds(d.until_epoch as f64 * self.epoch as f64 * 1e-9);
        Some(Waveform::steps([
            (Seconds(0.0), 1.0),
            (t0, d.factor.clamp(0.0, 1.0)),
            (t1, 1.0),
        ]))
    }
}

/// Shard count for a fleet: a pure function of the node count (never
/// of threads), targeting ~256 nodes per shard, capped at 1024 shards.
pub fn shard_count(nodes: u32) -> usize {
    (nodes as usize).div_ceil(256).clamp(1, 1024)
}

/// One shard: a contiguous node range with its own event queue.
struct Shard {
    base: u32,
    nodes: Vec<NodeState>,
    queue: EventQueue,
    inbox: Vec<Message>,
    outbox: Vec<Message>,
    wakes: u64,
    deliveries: u64,
}

impl Shard {
    /// Simulates every event strictly before `horizon`.
    fn run_epoch(
        &mut self,
        horizon: Nanos,
        epoch: Nanos,
        quotas: &[u32; CLASSES],
        topo: &Topology,
        island: &IslandModel,
        sensor: &SensorModel,
    ) {
        // Inject the barrier-routed inbox (already in total message
        // order) into the local queue.
        for m in std::mem::take(&mut self.inbox) {
            self.queue.push(
                m.deliver,
                m.dst,
                EventKind::Deliver {
                    src: m.src,
                    msg_seq: m.seq,
                },
            );
        }
        while let Some(ev) = self.queue.pop_before(horizon) {
            let node = &mut self.nodes[(ev.node - self.base) as usize];
            match ev.kind {
                EventKind::Wake => {
                    self.wakes += 1;
                    node.wake(
                        ev.time,
                        quotas[node.class.index()],
                        island,
                        sensor,
                        topo.links(ev.node),
                        &mut self.outbox,
                    );
                    let next = ev.time + node.class.period_epochs() * epoch;
                    self.queue.push(next, ev.node, EventKind::Wake);
                }
                EventKind::Deliver { src, msg_seq } => {
                    self.deliveries += 1;
                    node.receive(src, msg_seq);
                }
            }
        }
    }
}

/// Per-class fleet totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassReport {
    /// Stable class name.
    pub name: &'static str,
    /// Nodes in the class.
    pub nodes: u32,
    /// Tasks the duty cycle expected.
    pub expected: u64,
    /// Tasks completed under the token discipline.
    pub completed: u64,
}

impl ClassReport {
    /// Quality of service: completed over expected (1.0 when idle).
    pub fn qos(&self) -> f64 {
        if self.expected == 0 {
            1.0
        } else {
            self.completed as f64 / self.expected as f64
        }
    }
}

/// One epoch's arbitration decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRow {
    /// Epoch index.
    pub epoch: u64,
    /// Measured fleet harvest power over the previous epoch, watts.
    pub budget_w: f64,
    /// Per-class task quota per wake for this epoch.
    pub quotas: [u32; CLASSES],
}

/// The result of a fleet run. Everything except `wall` is a pure
/// function of the [`FleetConfig`]; [`FleetReport::to_json`] excludes
/// `wall` so its bytes are thread-count-invariant.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The run's configuration echo.
    pub nodes: u32,
    /// Epochs simulated.
    pub epochs: u64,
    /// Epoch length, nanoseconds.
    pub epoch: Nanos,
    /// Master seed.
    pub seed: u64,
    /// Worker threads used (0 = all available).
    pub threads: usize,
    /// Shard count (node-count-derived).
    pub shards: usize,
    /// Topology name.
    pub topology: &'static str,
    /// Wake events processed.
    pub wakes: u64,
    /// Message deliveries processed.
    pub deliveries: u64,
    /// Messages still in flight when the run ended.
    pub inflight: u64,
    /// Fleet-wide merged counters.
    pub summary: NodeSummary,
    /// Fleet-wide merged energy ledger (integer femtojoules).
    pub ledger: NodeLedger,
    /// Per-class totals.
    pub classes: [ClassReport; CLASSES],
    /// Per-epoch arbitration decisions.
    pub epoch_rows: Vec<EpochRow>,
    /// FNV-1a digest over every node's counters, ledger and sensing
    /// history plus the arbitration trace — the determinism pin.
    pub digest: u64,
    /// Wall-clock time of the run (excluded from `to_json`).
    pub wall: std::time::Duration,
}

impl FleetReport {
    /// Total events processed (wakes + deliveries).
    pub fn events(&self) -> u64 {
        self.wakes + self.deliveries
    }

    /// The merged fleet telemetry: the associative femtojoule ledger
    /// rendered into `emc-obs` accounts, plus fleet counters and
    /// per-class QoS gauges.
    pub fn telemetry(&self) -> Telemetry {
        let mut t = Telemetry::new();
        t.energy = self.ledger.to_energy_ledger();
        let c = t.metrics.counter("fleet.wakes");
        t.metrics.inc(c, self.wakes);
        let c = t.metrics.counter("fleet.deliveries");
        t.metrics.inc(c, self.deliveries);
        let c = t.metrics.counter("fleet.tasks.completed");
        t.metrics.inc(c, self.summary.completed);
        let c = t.metrics.counter("fleet.tasks.refused");
        t.metrics.inc(c, self.summary.refused);
        let c = t.metrics.counter("fleet.msgs.sent");
        t.metrics.inc(c, self.summary.sent);
        let c = t.metrics.counter("fleet.msgs.dropped");
        t.metrics.inc(c, self.summary.dropped);
        for class in &self.classes {
            let g = t.metrics.gauge(format!("fleet.qos.{}", class.name));
            t.metrics.set_gauge(g, class.qos());
        }
        t
    }

    /// Renders the report as deterministic JSON: no wall-clock, no
    /// float formatting surprises (energies are printed as exact
    /// femtojoule integers and rates as bit-exact shortest-round-trip
    /// floats).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"nodes\": {},\n", self.nodes));
        s.push_str(&format!("  \"epochs\": {},\n", self.epochs));
        s.push_str(&format!("  \"epoch_ns\": {},\n", self.epoch));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"shards\": {},\n", self.shards));
        s.push_str(&format!("  \"topology\": \"{}\",\n", self.topology));
        s.push_str(&format!("  \"wakes\": {},\n", self.wakes));
        s.push_str(&format!("  \"deliveries\": {},\n", self.deliveries));
        s.push_str(&format!("  \"inflight\": {},\n", self.inflight));
        let sm = &self.summary;
        s.push_str(&format!("  \"tasks_expected\": {},\n", sm.expected));
        s.push_str(&format!("  \"tasks_completed\": {},\n", sm.completed));
        s.push_str(&format!("  \"tasks_refused\": {},\n", sm.refused));
        s.push_str(&format!("  \"island_ops\": {},\n", sm.ops));
        s.push_str(&format!("  \"msgs_sent\": {},\n", sm.sent));
        s.push_str(&format!("  \"msgs_received\": {},\n", sm.received));
        s.push_str(&format!("  \"msgs_dropped\": {},\n", sm.dropped));
        let l = &self.ledger;
        s.push_str(&format!("  \"harvested_fj\": {},\n", l.harvested_fj));
        s.push_str(&format!("  \"spilled_fj\": {},\n", l.spilled_fj));
        s.push_str(&format!("  \"sense_fj\": {},\n", l.sense_fj));
        s.push_str(&format!("  \"compute_fj\": {},\n", l.compute_fj));
        s.push_str(&format!("  \"radio_fj\": {},\n", l.radio_fj));
        s.push_str(&format!("  \"idle_fj\": {},\n", l.idle_fj));
        s.push_str(&format!("  \"conversion_loss_fj\": {},\n", l.loss_fj));
        s.push_str(&format!("  \"deficit_fj\": {},\n", l.deficit_fj));
        s.push_str(&format!("  \"reservoir_fj\": {},\n", l.stored_fj));
        s.push_str("  \"classes\": [\n");
        for (i, c) in self.classes.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"nodes\": {}, \"expected\": {}, \"completed\": {}, \"qos\": {}}}{}\n",
                c.name,
                c.nodes,
                c.expected,
                c.completed,
                c.qos(),
                if i + 1 < self.classes.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"epoch_quotas\": [\n");
        for (i, r) in self.epoch_rows.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"epoch\": {}, \"budget_w\": {}, \"quotas\": [{}, {}, {}]}}{}\n",
                r.epoch,
                r.budget_w,
                r.quotas[0],
                r.quotas[1],
                r.quotas[2],
                if i + 1 < self.epoch_rows.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!("  \"digest\": \"{:016x}\"\n", self.digest));
        s.push_str("}\n");
        s
    }
}

/// Estimated delivered-energy quantum of one class task (arbitration's
/// workload unit; the real per-task quantum varies with the sensed
/// voltage, this uses the mid-range sensing point).
fn class_task_energy(class: NodeClass, island: &IslandModel, sensor: &SensorModel) -> f64 {
    let (_, e_sense, _) = sensor.sample(0.62);
    e_sense + class.ops_per_task() as f64 * island.joules_per_op(class.rail().0) + crate::node::TX_J
}

/// Runs the fleet-wide duty arbitration for one epoch: the measured
/// harvest power is the budget of a proportional-share power game
/// whose players are the QoS classes; each class's equilibrium power
/// share becomes extra task attempts per wake on top of the base duty
/// of one.
fn arbitrate(
    budget_w: f64,
    pending: &[u64; CLASSES],
    class_nodes: &[u32; CLASSES],
    task_energy: &[f64; CLASSES],
    epoch_secs: f64,
) -> [u32; CLASSES] {
    let mut quotas = [1u32; CLASSES];
    if budget_w <= 1e-12 {
        return quotas;
    }
    let classes = [NodeClass::Sentinel, NodeClass::Monitor, NodeClass::Archiver];
    let bids: Vec<TaskBid> = classes
        .iter()
        .enumerate()
        .map(|(i, class)| TaskBid {
            // Outstanding work in joules (≥ a whole task so the game
            // stays well-posed when a class is fully drained).
            workload: pending[i].max(1) as f64 * task_energy[i].max(1e-15),
            deadline: class.period_epochs() as f64 * epoch_secs,
        })
        .collect();
    let game = PowerGame::new(budget_w, 1e-3, bids);
    let (bid_vec, _rounds) = game.best_response_dynamics(32);
    let alloc = game.allocation(&bid_vec);
    for i in 0..CLASSES {
        if class_nodes[i] == 0 {
            continue;
        }
        // Energy the class share delivers over one wake period, per
        // node, in whole tasks — extra attempts beyond the base duty.
        let period = classes[i].period_epochs() as f64 * epoch_secs;
        let per_node = alloc[i] * period / f64::from(class_nodes[i]);
        let extra = (per_node / task_energy[i].max(1e-15)).floor().min(7.0) as u32;
        quotas[i] = 1 + extra;
    }
    quotas
}

/// Runs a fleet to completion. `threads` is the campaign worker count
/// (0 = available parallelism); the returned report is bit-identical
/// for any value of it.
pub fn run_fleet(config: &FleetConfig, threads: usize) -> FleetReport {
    assert!(config.nodes > 0, "a fleet needs nodes");
    assert!(config.epochs > 0, "a fleet needs at least one epoch");
    let t0 = Instant::now();

    // Calibrate once per run: gate-level emc-sim runs of the counting
    // rig pin the island curves; gate-level ADC conversions pin the
    // sensor curves.
    let island = IslandModel::calibrate(config.calib);
    let sensor = SensorModel::calibrate(config.calib);
    let topo = Topology::build(config.topology, config.nodes, config.epoch, config.seed);
    assert!(
        topo.min_latency() >= config.epoch,
        "PDES lookahead violated: a link is faster than the epoch barrier"
    );
    let drought = config.drought_envelope();

    // Build shards (contiguous node ranges) and seed the initial wakes
    // in node order.
    let n_shards = shard_count(config.nodes);
    let per_shard = (config.nodes as usize).div_ceil(n_shards);
    let mut shards: Vec<Mutex<Shard>> = Vec::with_capacity(n_shards);
    for s in 0..n_shards {
        let base = (s * per_shard) as u32;
        let end = ((s + 1) * per_shard).min(config.nodes as usize) as u32;
        let mut shard = Shard {
            base,
            nodes: Vec::with_capacity((end - base) as usize),
            queue: EventQueue::new(),
            inbox: Vec::new(),
            outbox: Vec::new(),
            wakes: 0,
            deliveries: 0,
        };
        for id in base..end {
            let mut node = NodeState::new(config.seed, id, drought.as_ref());
            let first = node.initial_wake(config.epoch);
            shard.queue.push(first, id, EventKind::Wake);
            shard.nodes.push(node);
        }
        shards.push(Mutex::new(shard));
    }

    let mut class_nodes = [0u32; CLASSES];
    for id in 0..config.nodes {
        class_nodes[NodeClass::of(id).index()] += 1;
    }
    let task_energy = [
        class_task_energy(NodeClass::Sentinel, &island, &sensor),
        class_task_energy(NodeClass::Monitor, &island, &sensor),
        class_task_energy(NodeClass::Archiver, &island, &sensor),
    ];
    let epoch_secs = config.epoch as f64 * 1e-9;

    let mut epoch_rows = Vec::with_capacity(config.epochs as usize);
    let mut quotas = [1u32; CLASSES];
    let mut prev_harvest_fj = 0u64;
    let mut inflight = 0u64;
    let campaign_jobs: Vec<usize> = (0..n_shards).collect();

    for e in 0..config.epochs {
        let applied = quotas;
        let horizon = (e + 1) * config.epoch;
        let cfg = CampaignConfig::new(config.seed ^ e).threads(threads);
        let worker = |idx: &usize, ctx: &RunContext| -> RunReport {
            let mut shard = shards[*idx].lock().expect("shard lock poisoned");
            shard.run_epoch(horizon, config.epoch, &quotas, &topo, &island, &sensor);
            RunReport::from_values(ctx, Vec::new())
        };
        run_campaign(&campaign_jobs, &cfg, worker);

        // ---- Barrier (single-threaded) ----
        // Route messages: drain outboxes in shard order, sort into the
        // total message order, deliver into destination inboxes.
        let mut in_flight: Vec<Message> = Vec::new();
        for shard in &shards {
            let mut shard = shard.lock().expect("shard lock poisoned");
            in_flight.append(&mut shard.outbox);
        }
        in_flight.sort_unstable();
        let last_epoch = e + 1 == config.epochs;
        if last_epoch {
            inflight = in_flight.len() as u64;
        } else {
            for m in in_flight {
                let shard_idx = (m.dst as usize) / per_shard;
                shards[shard_idx]
                    .lock()
                    .expect("shard lock poisoned")
                    .inbox
                    .push(m);
            }
        }

        // Measure the harvest since the previous barrier (exact
        // integer sum over all nodes) and the per-class backlog, then
        // arbitrate the next epoch's duty quotas. The row records the
        // quotas that *applied* during this epoch alongside the budget
        // measured at its end.
        let mut budget_w = 0.0;
        if !last_epoch {
            let mut harvest_fj = 0u64;
            let mut pending = [0u64; CLASSES];
            for shard in &shards {
                let shard = shard.lock().expect("shard lock poisoned");
                for node in &shard.nodes {
                    harvest_fj += node.ledger.harvested_fj;
                    pending[node.class.index()] += node.backlog;
                }
            }
            let delta_fj = harvest_fj - prev_harvest_fj;
            prev_harvest_fj = harvest_fj;
            budget_w = from_femtojoules(delta_fj) / epoch_secs;
            quotas = arbitrate(budget_w, &pending, &class_nodes, &task_energy, epoch_secs);
        }
        epoch_rows.push(EpochRow {
            epoch: e,
            budget_w,
            quotas: applied,
        });
    }

    // ---- Final merge (single-threaded, node order) ----
    let mut digest = Fnv64::new();
    let mut summary = NodeSummary::default();
    let mut ledger = NodeLedger::default();
    let mut classes = [
        ClassReport {
            name: NodeClass::Sentinel.name(),
            nodes: class_nodes[0],
            expected: 0,
            completed: 0,
        },
        ClassReport {
            name: NodeClass::Monitor.name(),
            nodes: class_nodes[1],
            expected: 0,
            completed: 0,
        },
        ClassReport {
            name: NodeClass::Archiver.name(),
            nodes: class_nodes[2],
            expected: 0,
            completed: 0,
        },
    ];
    let mut wakes = 0u64;
    let mut deliveries = 0u64;
    for shard in &shards {
        let mut shard = shard.lock().expect("shard lock poisoned");
        wakes += shard.wakes;
        deliveries += shard.deliveries;
        // Messages routed into a queue but not yet delivered when the
        // run ended are still in flight (latencies run to 4 epochs).
        inflight += shard.queue.pending_deliveries();
        for node in &mut shard.nodes {
            digest.write_u64(node.finish());
            summary = summary.merge(&node.summary);
            ledger = ledger.merge(&node.ledger);
            let ci = node.class.index();
            classes[ci].expected += node.summary.expected;
            classes[ci].completed += node.summary.completed;
        }
    }
    // Fold the arbitration trace and loose ends into the digest.
    for row in &epoch_rows {
        digest.write_u64(row.budget_w.to_bits());
        for q in row.quotas {
            digest.write_u64(u64::from(q));
        }
    }
    digest.write_u64(inflight);

    FleetReport {
        nodes: config.nodes,
        epochs: config.epochs,
        epoch: config.epoch,
        seed: config.seed,
        threads,
        shards: n_shards,
        topology: config.topology.name(),
        wakes,
        deliveries,
        inflight,
        summary,
        ledger,
        classes,
        epoch_rows,
        digest: digest.finish(),
        wall: t0.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_config(nodes: u32) -> FleetConfig {
        FleetConfig {
            calib: CalibDepth::Smoke,
            ..FleetConfig::new(nodes, 6, 2011)
        }
    }

    #[test]
    fn shard_count_is_node_derived() {
        assert_eq!(shard_count(1), 1);
        assert_eq!(shard_count(256), 1);
        assert_eq!(shard_count(257), 2);
        assert_eq!(shard_count(100_000), 391);
        assert_eq!(shard_count(1_000_000), 1024);
    }

    #[test]
    fn small_fleet_runs_and_conserves_energy() {
        let report = run_fleet(&smoke_config(60), 1);
        assert_eq!(report.nodes, 60);
        assert!(report.wakes > 0);
        assert!(report.summary.completed > 0, "no tasks completed");
        // Books balance: harvested = spilled + task/idle delivery +
        // loss + stored-now − stored-at-start. The start charge is not
        // in the ledger, so delivered+loss+stored can exceed harvested,
        // but never by more than the initial reservoir bound.
        let l = &report.ledger;
        let delivered = l.sense_fj + l.compute_fj + l.radio_fj + l.idle_fj;
        assert!(l.harvested_fj > 0);
        assert!(delivered > 0);
        // QoS is a ratio in [0, 1].
        for c in &report.classes {
            let q = c.qos();
            assert!((0.0..=1.0).contains(&q), "{} qos {q}", c.name);
        }
    }

    #[test]
    fn messages_flow_between_nodes() {
        let report = run_fleet(&smoke_config(48), 1);
        assert!(report.summary.sent > 0, "no messages sent");
        assert_eq!(
            report.summary.sent,
            report.summary.received + report.summary.dropped + report.inflight,
            "message conservation violated"
        );
    }

    #[test]
    fn drought_degrades_qos() {
        let mut base = smoke_config(90);
        base.epochs = 12;
        let healthy = run_fleet(&base, 1);
        let mut dry = base.clone();
        dry.drought = Some(DroughtSpec {
            from_epoch: 2,
            until_epoch: 12,
            factor: 0.0,
        });
        let drought = run_fleet(&dry, 1);
        let qos = |r: &FleetReport| {
            let e: u64 = r.classes.iter().map(|c| c.expected).sum();
            let c: u64 = r.classes.iter().map(|c| c.completed).sum();
            c as f64 / e.max(1) as f64
        };
        assert!(
            qos(&drought) < qos(&healthy),
            "drought {} vs healthy {}",
            qos(&drought),
            qos(&healthy)
        );
        assert!(drought.ledger.harvested_fj < healthy.ledger.harvested_fj);
    }

    #[test]
    fn json_is_stable_and_wall_free() {
        let report = run_fleet(&smoke_config(30), 1);
        let json = report.to_json();
        assert!(json.contains("\"digest\""));
        assert!(!json.contains("wall"));
        // Same config → byte-identical JSON.
        let again = run_fleet(&smoke_config(30), 1);
        assert_eq!(json, again.to_json());
    }
}
