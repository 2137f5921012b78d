//! Parallel discrete-event simulation over Vdd-domain partitions that
//! share no net.
//!
//! The paper's energy-modulated designs decompose into power domains
//! whose activity rates scale independently with Vdd. Each partition is
//! one [`Simulator`] over a [`Partitioned`] slice of the netlist, and
//! [`Partitioned::build`] accepts only an assignment under which no net
//! is driven in one partition and read in another: every partition is a
//! union of connected components. Partitions therefore exchange no
//! events and need no synchronization protocol.
//! [`PdesSimulator::run_until`] runs every partition's own
//! [`Simulator::run_until`] side by side on the shared worker pool,
//! [`fan_out`].
//!
//! # What equivalent means
//!
//! A partition holds its domain's gates in the same relative order as
//! the whole netlist, and no event from outside reaches it, so it
//! replays the history of the same domain in a sequential run with the
//! same per-gate domain assignment. Fired counts and per-domain
//! switching, leakage and total energy are bit-identical to that run on
//! any supply kind — constant, time-varying or capacitor-backed. The
//! merged trace is sorted by `(time, net, value)`, so its digest equals
//! the sequential run's [`Trace::canonical_digest`]: equal-time firings
//! in different partitions have no recording order to compare. Every
//! result is bit-identical at any thread count; only wall-clock time
//! changes.

use emc_device::DeviceModel;
use emc_netlist::{CrossingNet, GateKind, NetId, Netlist, Partitioned};
use emc_obs::Telemetry;
use emc_units::{Joules, Seconds};

use crate::campaign::fan_out;
use crate::domain::SupplyKind;
use crate::simulator::{Hazard, RunStats, Simulator};
use crate::trace::{Trace, TraceEntry};

/// One partition's supply description: the partition *is* a Vdd
/// domain. Names must be distinct — they key the merged per-domain
/// energy accounts and voltage gauges.
#[derive(Debug, Clone)]
pub struct PdesPartitionSpec {
    /// Domain name (used in telemetry accounts).
    pub name: String,
    /// The partition's supply.
    pub supply: SupplyKind,
}

/// Lifetime counters of a [`PdesSimulator`]. The two always-zero
/// fields keep the shape of the reports that read them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PdesStats {
    /// [`PdesSimulator::run_until`] calls in which some partition had
    /// an event queued at or before the end time.
    pub sync_rounds: u64,
    /// Always 0: partitions share no net, so no transition crosses.
    pub crossing_events: u64,
    /// Always 0: no partition ever waits for another.
    pub stalled_epochs: u64,
}

/// A parallel simulator: one [`Simulator`] per Vdd-domain partition,
/// run side by side as described in the [module docs](self).
///
/// The public surface mirrors the sequential [`Simulator`] (initial
/// values, input scheduling, watching, runs, value/energy queries) with
/// global [`NetId`]s and gate ids; the mapping onto partition slices is
/// internal.
#[derive(Debug)]
pub struct PdesSimulator {
    global: Netlist,
    index: Partitioned,
    slices: Vec<Simulator>,
    threads: usize,
    started: bool,
    stats: PdesStats,
}

impl PdesSimulator {
    /// Builds a parallel simulator over `netlist`. `specs[p]` names and
    /// powers partition `p`; `assignment[g]` is the partition of gate
    /// `g`, sources included.
    ///
    /// # Errors
    ///
    /// Returns the [`CrossingNet`] from [`Partitioned::build`] when a
    /// gate reads a net driven in another partition.
    ///
    /// # Panics
    ///
    /// Panics on an empty `specs`, a malformed `assignment` (see
    /// [`Partitioned::build`]), or duplicate spec names.
    pub fn new(
        netlist: Netlist,
        device: DeviceModel,
        specs: &[PdesPartitionSpec],
        assignment: &[u32],
    ) -> Result<Self, CrossingNet> {
        assert!(!specs.is_empty(), "at least one partition");
        for (i, a) in specs.iter().enumerate() {
            for b in &specs[..i] {
                assert_ne!(a.name, b.name, "partition names must be distinct");
            }
        }
        let mut index = Partitioned::build(&netlist, assignment, specs.len())?;
        let slices = specs
            .iter()
            .enumerate()
            .map(|(p, spec)| {
                let mut sim = Simulator::new(index.take_slice(p), device.clone());
                let d = sim.add_domain(&spec.name, spec.supply.clone());
                for i in 0..sim.netlist().gate_count() {
                    let gid = sim.netlist().gate_id(i);
                    // Inputs are domain-less, as in a sequential run.
                    if sim.netlist().gate_ref(gid).kind() != GateKind::Input {
                        sim.assign_domain(gid, d);
                    }
                }
                sim
            })
            .collect();
        Ok(Self {
            global: netlist,
            index,
            slices,
            threads: 1,
            started: false,
            stats: PdesStats::default(),
        })
    }

    /// Sets the worker thread count used by subsequent runs, with
    /// [`fan_out`]'s meaning: 0 is one worker per core, and never more
    /// workers than partitions. Results are bit-identical at any value;
    /// this only changes wall-clock time.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.slices.len()
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> PdesStats {
        self.stats
    }

    /// The source netlist (global ids).
    pub fn netlist(&self) -> &Netlist {
        &self.global
    }

    /// Enables live observability on every partition simulator.
    pub fn enable_obs(&mut self) {
        for s in &mut self.slices {
            s.enable_obs();
        }
    }

    /// The simulator and local net of a global net.
    fn site_mut(&mut self, net: NetId) -> (&mut Simulator, NetId) {
        let (p, ln) = self.index.site(net);
        (&mut self.slices[p], ln)
    }

    /// Sets a global net's value before the simulation starts.
    ///
    /// # Panics
    ///
    /// Panics after [`PdesSimulator::start`].
    pub fn set_initial(&mut self, net: NetId, value: bool) {
        let (sim, ln) = self.site_mut(net);
        sim.set_initial(ln, value);
    }

    /// Schedules an external input transition on a global input net.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not input-driven or `time` is in the past.
    pub fn schedule_input(&mut self, net: NetId, time: Seconds, value: bool) {
        let (sim, ln) = self.site_mut(net);
        sim.schedule_input(ln, time, value);
    }

    /// Marks a global net for trace recording.
    pub fn watch(&mut self, net: NetId) {
        let (sim, ln) = self.site_mut(net);
        sim.watch(ln);
    }

    /// Starts every partition simulator.
    ///
    /// # Panics
    ///
    /// Panics on a second call.
    pub fn start(&mut self) {
        for s in &mut self.slices {
            s.start();
        }
        self.started = true;
    }

    /// Current logic value of a global net.
    pub fn value(&self, net: NetId) -> bool {
        let (p, ln) = self.index.site(net);
        self.slices[p].value(ln)
    }

    /// Latest partition clock (after [`PdesSimulator::run_until`], every
    /// partition sits exactly at the bound).
    pub fn now(&self) -> Seconds {
        let t = self.slices.iter().map(|s| s.now().0).fold(0.0, f64::max);
        Seconds(t)
    }

    /// Total energy (switching + leakage) drawn by partition `p`.
    /// Bit-identical to the same domain's account in a sequential run.
    pub fn energy_drawn(&self, p: usize) -> Joules {
        let sim = &self.slices[p];
        sim.energy_drawn(sim.domain_id(0))
    }

    /// Switching energy drawn by partition `p`. Bit-identical to the
    /// same domain's account in a sequential run.
    pub fn switching_energy(&self, p: usize) -> Joules {
        let sim = &self.slices[p];
        sim.domain(sim.domain_id(0)).switching_energy()
    }

    /// Leakage energy drawn by partition `p`. Bit-identical to the same
    /// domain's account in a sequential run.
    pub fn leakage_energy(&self, p: usize) -> Joules {
        let sim = &self.slices[p];
        sim.domain(sim.domain_id(0)).leakage_energy()
    }

    /// Total transitions fired, as a whole-netlist simulation counts
    /// them.
    pub fn total_transitions(&self) -> u64 {
        self.slices.iter().map(Simulator::total_transitions).sum()
    }

    /// All hazards recorded so far, with global gate ids, sorted by
    /// `(time, gate)`.
    pub fn hazards(&self) -> Vec<Hazard> {
        let mut out = Vec::new();
        for (p, sim) in self.slices.iter().enumerate() {
            for h in sim.hazards() {
                let local_out = sim.netlist().gate_ref(h.gate).output();
                let global_net = self.index.global_net(p, local_out);
                out.push(Hazard {
                    gate: self.global.driver_of(global_net).expect("driver"),
                    ..*h
                });
            }
        }
        out.sort_by(|a, b| {
            a.time
                .0
                .total_cmp(&b.time.0)
                .then_with(|| a.gate.index().cmp(&b.gate.index()))
        });
        out
    }

    /// The merged trace over all partitions, remapped to global nets
    /// and sorted canonically by `(time, net, value)` — directly
    /// comparable (and digest-equal) to a sequential run's
    /// [`Trace::canonical_digest`].
    pub fn trace(&self) -> Trace {
        let mut all: Vec<TraceEntry> = Vec::new();
        for (p, sim) in self.slices.iter().enumerate() {
            all.extend(sim.trace().entries().iter().map(|e| TraceEntry {
                net: self.index.global_net(p, e.net),
                ..*e
            }));
        }
        all.sort_by(|a, b| {
            a.time
                .0
                .total_cmp(&b.time.0)
                .then_with(|| a.net.index().cmp(&b.net.index()))
                .then_with(|| a.value.cmp(&b.value))
        });
        let mut t = Trace::new();
        for e in all {
            t.record(e.time, e.net, e.value);
        }
        t
    }

    /// Merged telemetry: every partition's snapshot (domain energy
    /// accounts, counters) plus the `sim.pdes.*` counters.
    pub fn telemetry(&self) -> Telemetry {
        let mut t = Telemetry::new();
        for s in &self.slices {
            t.merge_from(&s.telemetry());
        }
        for (name, value) in [
            ("sim.pdes.partitions", self.slices.len() as u64),
            ("sim.pdes.crossing_nets", 0),
            ("sim.pdes.sync_rounds", self.stats.sync_rounds),
            ("sim.pdes.crossing_events", self.stats.crossing_events),
            ("sim.pdes.stalled_epochs", self.stats.stalled_epochs),
        ] {
            let c = t.metrics.counter(name);
            t.metrics.inc(c, value);
        }
        t
    }

    /// Runs every partition until its queue holds nothing at or before
    /// `t_end`, then advances all partition clocks (and leakage) to
    /// `t_end` — the parallel equivalent of [`Simulator::run_until`],
    /// with the same fired and hazard counts.
    ///
    /// # Panics
    ///
    /// Panics before [`PdesSimulator::start`].
    pub fn run_until(&mut self, t_end: Seconds) -> RunStats {
        assert!(self.started, "run before start");
        if self
            .slices
            .iter()
            .any(|s| s.next_event_time().is_some_and(|t| t <= t_end))
        {
            self.stats.sync_rounds += 1;
        }
        let slices = self.slices.iter_mut().collect();
        fan_out(slices, self.threads, |_, sim: &mut Simulator| {
            sim.run_until(t_end)
        })
        .into_iter()
        .fold(RunStats::default(), |a, b| RunStats {
            fired: a.fired + b.fired,
            hazards: a.hazards + b.hazards,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emc_units::Waveform;

    const T_END: Seconds = Seconds(200e-9);

    /// Two gated ring oscillators, each with its own enable, plus a
    /// watched input no gate reads: ring `a` and the probe in partition
    /// 0, ring `b` in partition 1. The probe is the highest net but
    /// fires with `en_b`, so only a merge sorted by net puts `en_b`
    /// first.
    fn two_rings() -> (Netlist, Vec<u32>) {
        let mut n = Netlist::new();
        let mut assignment = Vec::new();
        for (p, tag) in ["a", "b"].into_iter().enumerate() {
            let en = n.input(&format!("en_{tag}"));
            let g1 = n.gate(GateKind::Nand, &[en, en], &format!("g1_{tag}"));
            let g2 = n.gate(GateKind::Inv, &[g1], &format!("g2_{tag}"));
            let g3 = n.gate(GateKind::Inv, &[g2], &format!("g3_{tag}"));
            n.connect_feedback(g1, g3);
            n.mark_output(g3);
            assignment.resize(n.gate_count(), p as u32);
        }
        let probe = n.input("probe");
        n.mark_output(probe);
        assignment.push(0);
        // No check(): a gated ring is a deliberate combinational loop,
        // like the crate-level doc example.
        (n, assignment)
    }

    fn specs() -> Vec<PdesPartitionSpec> {
        [("vdd0", 1.0), ("vdd1", 0.8)]
            .map(|(name, v)| PdesPartitionSpec {
                name: name.into(),
                supply: SupplyKind::ideal(Waveform::constant(v)),
            })
            .to_vec()
    }

    /// What both engines must agree on.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        fired: u64,
        transitions: u64,
        digest: u64,
        energy: Vec<u64>,
    }

    /// Quiescent while the enables are low (see the crate-level doc
    /// example); the stimulus then starts both rings and raises the
    /// probe.
    fn drive(n: &Netlist, set: &mut dyn FnMut(NetId, bool), input: &mut dyn FnMut(NetId, f64)) {
        let net = |name: &str| n.find_net(name).expect(name);
        for name in ["g1_a", "g3_a", "g1_b", "g3_b"] {
            set(net(name), true);
        }
        input(net("en_a"), 1e-9);
        input(net("en_b"), 3e-9);
        input(net("probe"), 3e-9);
    }

    fn run_sequential(n: &Netlist, assignment: &[u32]) -> (Outcome, Trace) {
        let mut sim = Simulator::new(n.clone(), DeviceModel::umc90());
        let doms: Vec<_> = specs()
            .iter()
            .map(|s| sim.add_domain(&s.name, s.supply.clone()))
            .collect();
        for (gid, g) in n.iter_gates() {
            if g.kind() != GateKind::Input {
                sim.assign_domain(gid, doms[assignment[gid.index()] as usize]);
            }
        }
        for net in n.iter_nets() {
            sim.watch(net);
        }
        let mut inputs = Vec::new();
        drive(n, &mut |net, v| sim.set_initial(net, v), &mut |net, t| {
            inputs.push((net, t));
        });
        for (net, t) in inputs {
            sim.schedule_input(net, Seconds(t), true);
        }
        sim.start();
        let stats = sim.run_until(T_END);
        assert_eq!(stats.hazards, 0, "SI rings stay hazard-free");
        let outcome = Outcome {
            fired: stats.fired,
            transitions: sim.total_transitions(),
            digest: sim.trace().canonical_digest(),
            energy: doms
                .iter()
                .map(|&d| sim.energy_drawn(d).0.to_bits())
                .collect(),
        };
        (outcome, sim.trace().clone())
    }

    fn pdes(n: &Netlist, assignment: &[u32], threads: usize) -> PdesSimulator {
        let mut sim = PdesSimulator::new(n.clone(), DeviceModel::umc90(), &specs(), assignment)
            .expect("the rings share no net");
        sim.set_threads(threads);
        for net in n.iter_nets() {
            sim.watch(net);
        }
        let mut inputs = Vec::new();
        drive(n, &mut |net, v| sim.set_initial(net, v), &mut |net, t| {
            inputs.push((net, t));
        });
        for (net, t) in inputs {
            sim.schedule_input(net, Seconds(t), true);
        }
        sim.start();
        sim
    }

    fn run_pdes(n: &Netlist, assignment: &[u32], threads: usize) -> (Outcome, Trace) {
        let mut sim = pdes(n, assignment, threads);
        let stats = sim.run_until(T_END);
        assert_eq!(stats.hazards, 0, "SI rings stay hazard-free");
        let trace = sim.trace();
        let outcome = Outcome {
            fired: stats.fired,
            transitions: sim.total_transitions(),
            digest: trace.digest(),
            energy: (0..2).map(|p| sim.energy_drawn(p).0.to_bits()).collect(),
        };
        (outcome, trace)
    }

    #[test]
    fn independent_rings_match_sequential_at_any_thread_count() {
        let (n, assignment) = two_rings();
        let (seq, _) = run_sequential(&n, &assignment);
        assert!(seq.fired > 40, "both rings oscillate");
        for threads in [0, 1, 2, 8] {
            let (par, _) = run_pdes(&n, &assignment, threads);
            assert_eq!(seq, par, "at {threads} threads");
        }
    }

    #[test]
    fn unread_watched_input_fires_into_the_merged_trace() {
        let (n, assignment) = two_rings();
        let probe = n.find_net("probe").expect("probe");
        let (_, seq) = run_sequential(&n, &assignment);
        let (_, par) = run_pdes(&n, &assignment, 2);
        assert_eq!(seq.for_net(probe), par.for_net(probe));
        assert_eq!(par.rising_edges(probe), [Seconds(3e-9)]);
    }

    #[test]
    fn crossing_cut_is_rejected() {
        let (n, mut assignment) = two_rings();
        // g2_a moves to partition 1: it reads g1_a across the cut.
        assignment[2] = 1;
        let err = PdesSimulator::new(n.clone(), DeviceModel::umc90(), &specs(), &assignment)
            .expect_err("g1_a crosses");
        assert_eq!(
            err,
            CrossingNet {
                net: n.find_net("g1_a").expect("g1_a"),
                from: 0,
                to: 1,
            }
        );
    }

    #[test]
    fn values_clock_and_counters_are_consistent() {
        let (n, assignment) = two_rings();
        let mut sim = pdes(&n, &assignment, 2);
        sim.run_until(Seconds(100e-9));
        sim.run_until(Seconds(150e-9));
        assert_eq!(sim.partitions(), 2);
        assert!(sim.value(n.find_net("probe").expect("probe")));
        assert_eq!(sim.now(), Seconds(150e-9));
        assert!(sim.energy_drawn(0).0 > 0.0 && sim.energy_drawn(1).0 > 0.0);
        assert_eq!(
            sim.energy_drawn(1),
            sim.switching_energy(1) + sim.leakage_energy(1)
        );
        assert_eq!(
            sim.stats(),
            PdesStats {
                sync_rounds: 2,
                crossing_events: 0,
                stalled_epochs: 0,
            }
        );
        let t = sim.telemetry();
        for (name, value) in [
            ("sim.pdes.partitions", 2),
            ("sim.pdes.crossing_nets", 0),
            ("sim.pdes.sync_rounds", 2),
            ("sim.pdes.crossing_events", 0),
            ("sim.pdes.stalled_epochs", 0),
        ] {
            assert_eq!(t.metrics.counter_value(name), Some(value), "{name}");
        }
    }
}
