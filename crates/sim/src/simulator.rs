//! The event-driven simulation engine.

use std::cell::Cell;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use emc_device::DeviceModel;
use emc_netlist::{GateId, GateKind, NetId, Netlist};
use emc_obs::{EnergyKind, Telemetry};
use emc_units::{Farads, Joules, Seconds, Volts, Watts};

use crate::delay::{completion_time, Completion};
use crate::domain::{DomainId, PowerDomain, SupplyKind};
use crate::obs::SimObs;
use crate::trace::Trace;

/// A transition the simulator has committed to the circuit state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiredEvent {
    /// Absolute time of the transition.
    pub time: Seconds,
    /// The gate whose output switched.
    pub gate: GateId,
    /// The gate's output net.
    pub net: NetId,
    /// The new output value.
    pub value: bool,
}

/// A speed-independence (persistence) violation: a gate's pending output
/// transition was disabled by a later input change.
///
/// A correctly designed speed-independent circuit never produces these,
/// at any combination of gate delays; a bundled-data circuit driven
/// outside its timing assumptions does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hazard {
    /// The gate whose pending transition was disabled.
    pub gate: GateId,
    /// When the disabling input change happened.
    pub time: Seconds,
    /// The output value the cancelled transition would have produced.
    pub(crate) cancelled_value: bool,
}

/// One row of [`Simulator::activity_report`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivityRecord {
    /// The gate.
    pub gate: GateId,
    /// Output transitions fired.
    pub transitions: u64,
    /// Switching energy drawn by this gate's rising output edges.
    pub energy: Joules,
}

/// Summary of a [`Simulator::run_until`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Number of transitions fired during the run.
    pub fired: u64,
    /// Number of hazards recorded during the run.
    pub hazards: u64,
}

#[derive(Debug, Clone, Copy)]
struct QueuedEvent {
    time: f64,
    seq: u64,
    gate: usize,
    value: bool,
    epoch: u64,
    /// Work already accumulated when this (continuation) entry was queued;
    /// 0 for freshly scheduled transitions, in `(0, 1)` for transitions
    /// that hit the integration window while stalled.
    progress: f64,
    /// `false` if this entry only marks an integration-window boundary and
    /// the transition must be re-integrated from `time`.
    complete: bool,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Natural ascending (time, seq) order; the queue wraps entries
        // in `Reverse` to pop its minimum first.
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

#[derive(Debug)]
enum StepOutcome {
    /// A transition was committed.
    Fired(FiredEvent),
    /// Internal progress only (an integration window was crossed).
    Progressed,
    /// Nothing left at or before the bound.
    Exhausted,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    value: bool,
    /// `true` if the transition sits on a rail that cannot progress: no
    /// queue entry exists. On a capacitor rail below the operating floor
    /// the transition waits for [`Simulator::recharge_domain`]; on a
    /// constant ideal rail below it, the transition never fires.
    stalled: bool,
}

/// Integration-resolution steps per stall-continuation window on a
/// varying ideal rail.
const WINDOW_STEPS: f64 = 4096.0;

/// [`GateState::domain`] of a gate not yet assigned to a power domain.
const NO_DOMAIN: u16 = u16::MAX;

// Bits of `GateState::flags`.
const PENDING: u8 = 1;
const PENDING_VALUE: u8 = 1 << 1;
const PENDING_STALLED: u8 = 1 << 2;
const STUCK: u8 = 1 << 3;
const STUCK_VALUE: u8 = 1 << 4;

/// Everything the event loop reads or writes about one gate, packed into
/// one cache line, so popping an event and re-evaluating each fanout
/// gate touches one record per gate.
#[derive(Debug, Clone)]
#[repr(align(64))]
struct GateState {
    /// `(voltage bits, delay seconds)` memo for
    /// [`Simulator::delay_at_voltage`]: the device delay law runs `exp`
    /// per evaluation, and on a constant rail every event re-asks the
    /// same question. Keyed on exact `f64` bits so the memo can never
    /// change a result; invalidated by the per-gate knob
    /// [`Simulator::set_delay_scale`].
    delay_memo: Cell<(u64, f64)>,
    /// Output load, computed once at construction: the gate's own drain
    /// parasitic (scaled by drive) plus the gate capacitance of its
    /// fanout.
    load: Farads,
    /// Switching energy drawn by this gate's rising output edges.
    energy: Joules,
    /// Output transitions fired.
    transitions: u64,
    /// Bumped to invalidate the gate's queued events.
    epoch: u64,
    /// Output net index.
    output: u32,
    /// Input nets: `inputs[input_start..input_start + input_count]` of
    /// the simulator's input arena.
    input_start: u32,
    input_count: u32,
    /// Power domain index, or [`NO_DOMAIN`].
    domain: u16,
    kind: GateKind,
    /// [`PENDING`] (with its value and stall bits) and [`STUCK`] (with
    /// its value bit).
    flags: u8,
}

// One record per cache line.
const _: () = assert!(std::mem::size_of::<GateState>() == 64);

impl GateState {
    fn pending(&self) -> Option<Pending> {
        (self.flags & PENDING != 0).then_some(Pending {
            value: self.flags & PENDING_VALUE != 0,
            stalled: self.flags & PENDING_STALLED != 0,
        })
    }

    fn set_pending(&mut self, pending: Option<Pending>) {
        self.flags &= !(PENDING | PENDING_VALUE | PENDING_STALLED);
        if let Some(p) = pending {
            self.flags |= PENDING;
            if p.value {
                self.flags |= PENDING_VALUE;
            }
            if p.stalled {
                self.flags |= PENDING_STALLED;
            }
        }
    }

    fn stuck(&self) -> Option<bool> {
        (self.flags & STUCK != 0).then_some(self.flags & STUCK_VALUE != 0)
    }

    fn set_stuck(&mut self, value: bool) {
        self.flags &= !STUCK_VALUE;
        self.flags |= STUCK;
        if value {
            self.flags |= STUCK_VALUE;
        }
    }

    fn domain(&self) -> Option<DomainId> {
        (self.domain != NO_DOMAIN).then_some(DomainId(usize::from(self.domain)))
    }

    fn inputs<'a>(&self, arena: &'a [NetId]) -> &'a [NetId] {
        let start = self.input_start as usize;
        &arena[start..start + self.input_count as usize]
    }
}

/// The discrete-event simulator. See the [crate documentation](crate) for
/// the modelling rules.
#[derive(Debug, Clone)]
pub struct Simulator {
    netlist: Netlist,
    device: DeviceModel,
    domains: Vec<PowerDomain>,
    /// Per-gate event-loop state, indexed by gate.
    gates: Vec<GateState>,
    /// Every gate's input nets, back to back, in gate order.
    inputs: Vec<NetId>,
    values: Vec<bool>,
    queue: BinaryHeap<Reverse<QueuedEvent>>,
    seq: u64,
    now: Seconds,
    started: bool,
    hazards: Vec<Hazard>,
    delay_scale: Vec<f64>,
    watched: Vec<bool>,
    trace: Trace,
    /// `(voltage bits, watts)` memo for the device leakage law (also an
    /// `exp`), shared by all domains — the key is the voltage alone.
    leak_memo: Cell<(u64, f64)>,
    /// Live observability state; `None` (the default) keeps the event
    /// loop's only obs cost at one pointer-is-null branch per event.
    obs: Option<Box<SimObs>>,
}

/// Memo key that no rail voltage produces: a quiet-NaN bit pattern. A
/// NaN voltage would already have poisoned the simulation arithmetic, so
/// colliding with it cannot change an outcome that mattered.
const MEMO_INVALID: u64 = f64::NAN.to_bits();

impl Simulator {
    /// Creates a simulator over `netlist` with the given device model.
    ///
    /// All nets start at logic 0 except constant-1 sources. Assign every
    /// gate to a power domain ([`Simulator::add_domain`] /
    /// [`Simulator::assign_all`]) before calling [`Simulator::start`].
    pub fn new(mut netlist: Netlist, device: DeviceModel) -> Self {
        // The simulator owns the netlist and never mutates it: build the
        // fanout CSR and loads once, up front, for the event loop.
        netlist.freeze();
        let gates = netlist.gate_count();
        let nets = netlist.net_count();
        let mut values = vec![false; nets];
        let narrow = |n: usize| u32::try_from(n).expect("net and input indices fit in u32");
        let mut states = Vec::with_capacity(gates);
        let mut inputs = Vec::new();
        let p = device.params();
        for (_, g) in netlist.iter_gates() {
            if g.kind() == GateKind::Const1 {
                values[g.output().index()] = true;
            }
            let fanout_units = netlist.fanout_load_units(g.output());
            states.push(GateState {
                delay_memo: Cell::new((MEMO_INVALID, 0.0)),
                load: Farads(p.drain_cap.0 * g.drive() + p.gate_cap.0 * fanout_units),
                energy: Joules(0.0),
                transitions: 0,
                epoch: 0,
                output: narrow(g.output().index()),
                input_start: narrow(inputs.len()),
                input_count: narrow(g.inputs().len()),
                domain: NO_DOMAIN,
                kind: g.kind(),
                flags: 0,
            });
            inputs.extend_from_slice(g.inputs());
        }
        Self {
            netlist,
            device,
            domains: Vec::new(),
            gates: states,
            inputs,
            values,
            queue: BinaryHeap::new(),
            seq: 0,
            now: Seconds(0.0),
            started: false,
            hazards: Vec::new(),
            delay_scale: vec![1.0; gates],
            watched: vec![false; nets],
            trace: Trace::new(),
            leak_memo: Cell::new((MEMO_INVALID, 0.0)),
            obs: None,
        }
    }

    /// The netlist under simulation.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The device model in use.
    pub fn device(&self) -> &DeviceModel {
        &self.device
    }

    /// Registers a power domain and returns its id.
    ///
    /// # Panics
    ///
    /// Panics past 65,535 domains.
    pub fn add_domain(&mut self, name: &str, kind: SupplyKind) -> DomainId {
        assert!(
            self.domains.len() < usize::from(NO_DOMAIN),
            "at most {NO_DOMAIN} power domains"
        );
        let id = DomainId(self.domains.len());
        self.domains.push(PowerDomain::new(name, kind));
        id
    }

    /// Assigns one gate to a domain.
    ///
    /// # Panics
    ///
    /// Panics if the domain id is foreign or the simulation has started.
    pub fn assign_domain(&mut self, gate: GateId, domain: DomainId) {
        assert!(!self.started, "cannot reassign domains after start");
        assert!(domain.0 < self.domains.len(), "unknown domain");
        let g = &mut self.gates[gate.index()];
        let units = g.kind.input_load_factor();
        if let Some(old) = g.domain() {
            self.domains[old.0].add_leak_units(-units);
        }
        g.domain = domain.0 as u16;
        self.domains[domain.0].add_leak_units(units);
    }

    /// Assigns every gate to `domain`.
    pub fn assign_all(&mut self, domain: DomainId) {
        for i in 0..self.netlist.gate_count() {
            self.assign_domain(self.netlist.gate_id(i), domain);
        }
    }

    /// Multiplies one gate's delay by `scale` — the hook used for process
    /// variation and for adversarial delay scaling in speed-independence
    /// tests.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not strictly positive.
    pub fn set_delay_scale(&mut self, gate: GateId, scale: f64) {
        assert!(
            scale > 0.0 && scale.is_finite(),
            "delay scale must be positive"
        );
        self.delay_scale[gate.index()] = scale;
        self.gates[gate.index()].delay_memo.set((MEMO_INVALID, 0.0));
    }

    /// The current delay scale of a gate (1.0 unless overridden) — lets
    /// callers stack a temporary slowdown on top of injected variation
    /// and restore it afterwards.
    pub fn delay_scale(&self, gate: GateId) -> f64 {
        self.delay_scale[gate.index()]
    }

    /// Sets a net's value before the simulation starts (initialising
    /// C-element state, pre-charged lines, …).
    ///
    /// # Panics
    ///
    /// Panics after [`Simulator::start`].
    pub fn set_initial(&mut self, net: NetId, value: bool) {
        assert!(!self.started, "cannot set initial values after start");
        self.values[net.index()] = value;
    }

    /// Schedules an external input transition.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not driven by an [`GateKind::Input`] gate or
    /// `time` is in the simulated past.
    pub fn schedule_input(&mut self, net: NetId, time: Seconds, value: bool) {
        let gate = self.netlist.driver_of(net).expect("net has no driver");
        assert_eq!(
            self.netlist.gate_ref(gate).kind(),
            GateKind::Input,
            "schedule_input on a non-input net"
        );
        assert!(time >= self.now, "input scheduled in the past");
        let seq = self.next_seq();
        self.push_event(QueuedEvent {
            time: time.0,
            seq,
            gate: gate.index(),
            value,
            epoch: self.gates[gate.index()].epoch,
            progress: 0.0,
            complete: true,
        });
    }

    /// Begins the simulation: every gate whose inputs already contradict
    /// its output gets an initial transition scheduled.
    ///
    /// # Panics
    ///
    /// Panics if any gate lacks a power domain, or on a second call.
    pub fn start(&mut self) {
        assert!(!self.started, "start called twice");
        for (i, g) in self.gates.iter().enumerate() {
            assert!(
                g.domain().is_some() || g.kind == GateKind::Input,
                "gate {} has no power domain",
                self.netlist.gate_id(i)
            );
        }
        self.started = true;
        for gate in 0..self.gates.len() {
            if self.gates[gate].kind.is_source() {
                continue;
            }
            let target = self.eval_gate(gate);
            if target != self.values[self.gates[gate].output as usize] {
                self.schedule_transition(gate, target, self.now);
            }
        }
    }

    /// Marks a net for trace recording.
    pub fn watch(&mut self, net: NetId) {
        self.watched[net.index()] = true;
    }

    /// The recorded trace of watched nets.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Current simulation time.
    pub fn now(&self) -> Seconds {
        self.now
    }

    /// Current logic value of a net.
    pub fn value(&self, net: NetId) -> bool {
        self.values[net.index()]
    }

    /// Rail voltage of a domain at the current simulation time.
    pub fn domain_voltage(&self, domain: DomainId) -> Volts {
        self.domains[domain.0].voltage(self.now)
    }

    /// Read access to a domain's bookkeeping.
    pub fn domain(&self, domain: DomainId) -> &PowerDomain {
        &self.domains[domain.0]
    }

    /// Number of registered power domains.
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// Recovers the [`DomainId`] at dense `index` (ids are issued densely
    /// from zero in [`Simulator::add_domain`] order).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.domain_count()`.
    pub fn domain_id(&self, index: usize) -> DomainId {
        assert!(index < self.domains.len(), "domain index out of range");
        DomainId(index)
    }

    /// Total energy (switching + leakage) drawn from a domain so far.
    pub fn energy_drawn(&self, domain: DomainId) -> Joules {
        self.domains[domain.0].total_energy()
    }

    /// Total energy drawn from every domain so far, summed in domain
    /// order.
    pub fn total_energy(&self) -> Joules {
        self.domains.iter().map(PowerDomain::total_energy).sum()
    }

    /// Transition count of one gate.
    pub fn transition_count(&self, gate: GateId) -> u64 {
        self.gates[gate.index()].transitions
    }

    /// Total transitions fired so far.
    pub fn total_transitions(&self) -> u64 {
        self.gates.iter().map(|g| g.transitions).sum()
    }

    /// Switching energy attributed to one gate's output so far.
    pub fn gate_energy(&self, gate: GateId) -> Joules {
        self.gates[gate.index()].energy
    }

    /// The switching-activity report: per-gate transition counts and
    /// attributed switching energy, sorted by energy descending — the
    /// "where do my joules go" view a power-conscious designer starts
    /// from.
    pub fn activity_report(&self) -> Vec<ActivityRecord> {
        let mut rows: Vec<ActivityRecord> = self
            .gates
            .iter()
            .enumerate()
            .map(|(i, g)| ActivityRecord {
                gate: self.netlist.gate_id(i),
                transitions: g.transitions,
                energy: g.energy,
            })
            .collect();
        rows.sort_by(|a, b| b.energy.0.total_cmp(&a.energy.0));
        rows
    }

    /// All hazards recorded so far.
    pub fn hazards(&self) -> &[Hazard] {
        &self.hazards
    }

    /// Turns on live observability: event counts, queue-depth
    /// distribution, stale-drop counts and recharge energy are recorded
    /// from here on. Idempotent; leaves the event loop untouched when
    /// never called.
    pub fn enable_obs(&mut self) {
        if self.obs.is_none() {
            self.obs = Some(Box::new(SimObs::new()));
        }
    }

    /// `true` once [`Simulator::enable_obs`] has been called.
    pub fn obs_enabled(&self) -> bool {
        self.obs.is_some()
    }

    /// Snapshots this simulator's telemetry: the live hot-path metrics
    /// (when enabled) plus everything derivable from the simulator's
    /// own bookkeeping — totals, per-domain energy split and rail
    /// voltages, and switching energy attributed per gate group (the
    /// output-net name up to the first `.`).
    ///
    /// Works with observability disabled too; the live counters are
    /// simply absent then.
    pub fn telemetry(&self) -> Telemetry {
        let mut t = match &self.obs {
            Some(o) => o.telemetry.clone(),
            None => Telemetry::new(),
        };
        let c = t.metrics.counter("sim.transitions_total");
        t.metrics.inc(c, self.total_transitions());
        let c = t.metrics.counter("sim.hazards");
        t.metrics.inc(c, self.hazards.len() as u64);
        for d in &self.domains {
            let g = t
                .metrics
                .gauge(format!("sim.domain.voltage_v{{domain=\"{}\"}}", d.name()));
            t.metrics.set_gauge(g, d.voltage(self.now).0);
            let account = format!("domain/{}", d.name());
            t.energy.add(
                account.clone(),
                EnergyKind::Dissipated,
                d.switching_energy().0,
            );
            t.energy
                .add(account.clone(), EnergyKind::Leaked, d.leakage_energy().0);
            if let SupplyKind::Capacitor { capacitance, .. } = d.kind() {
                let stored = capacitance.stored_energy(d.voltage(self.now));
                t.energy.add(account, EnergyKind::Stored, stored.0);
            }
        }
        for g in &self.gates {
            let e = g.energy.0;
            if e <= 0.0 {
                continue;
            }
            let name = self
                .netlist
                .net_name(self.netlist.net_id(g.output as usize));
            let prefix = name.split('.').next().unwrap_or(name);
            t.energy
                .add(format!("group/{prefix}"), EnergyKind::Dissipated, e);
        }
        t
    }

    /// Injects a stuck-at fault: `gate`'s output is forced to `value`
    /// from the current simulation time on and never switches again.
    ///
    /// If the output currently differs, one final (fault-driven)
    /// transition to the forced value is committed immediately, so
    /// downstream logic reacts to the fault; any pending transition is
    /// cancelled. Use this for the dependability experiments: a
    /// speed-independent circuit must **deadlock rather than deliver
    /// wrong data** under a stuck-at, while a bundled design corrupts
    /// silently.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Simulator::start`] or on a source gate.
    pub fn inject_stuck_at(&mut self, gate: GateId, value: bool) {
        assert!(self.started, "inject after start()");
        let g = &mut self.gates[gate.index()];
        assert!(!g.kind.is_source(), "cannot stick a source gate");
        g.set_stuck(value);
        // Cancel anything in flight.
        g.epoch += 1;
        g.set_pending(None);
        let out = g.output as usize;
        if self.values[out] != value {
            let now = self.now;
            let _ = self.commit(gate.index(), out, value, now);
        }
    }

    /// The stuck-at value injected on `gate`, if any.
    pub fn stuck_at(&self, gate: GateId) -> Option<bool> {
        self.gates[gate.index()].stuck()
    }

    /// Restores a capacitor-backed domain to `v` and releases any gates
    /// whose transitions had stalled on its depleted rail.
    ///
    /// # Panics
    ///
    /// Panics if the domain is ideal.
    pub fn recharge_domain(&mut self, domain: DomainId, v: Volts) {
        if self.obs.is_some() {
            let d = &self.domains[domain.0];
            if let SupplyKind::Capacitor { capacitance, .. } = d.kind() {
                let delta =
                    capacitance.stored_energy(v) - capacitance.stored_energy(d.voltage(self.now));
                let name = d.name().to_owned();
                self.obs
                    .as_deref_mut()
                    .expect("obs just checked")
                    .record_recharge(&name, delta.0);
            }
        }
        self.domains[domain.0].recharge(v);
        for gate in 0..self.gates.len() {
            let g = &mut self.gates[gate];
            if g.domain() != Some(domain) {
                continue;
            }
            if let Some(p) = g.pending() {
                if p.stalled {
                    g.set_pending(None);
                    self.schedule_transition(gate, p.value, self.now);
                }
            }
        }
    }

    fn step_outcome(&mut self, bound: Option<f64>) -> StepOutcome {
        loop {
            let Some(Reverse(head)) = self.queue.peek() else {
                return StepOutcome::Exhausted;
            };
            // A stale head past the bound is dropped below like any
            // other, so a bounded caller stops only at a live event.
            if bound.is_some_and(|b| head.time > b) && !self.is_stale(head) {
                return StepOutcome::Exhausted;
            }
            let Reverse(ev) = self.queue.pop().expect("peeked entry vanished");
            if self.is_stale(&ev) {
                if let Some(obs) = self.obs.as_deref_mut() {
                    obs.telemetry.metrics.inc(obs.stale_drops, 1);
                }
                continue;
            }
            let g = &mut self.gates[ev.gate];
            let kind = g.kind;
            self.now = Seconds(self.now.0.max(ev.time));
            if !ev.complete {
                // Integration-window boundary: resume the work integral.
                g.set_pending(None);
                self.schedule_transition_with_progress(ev.gate, ev.value, self.now, ev.progress);
                if let Some(obs) = self.obs.as_deref_mut() {
                    obs.telemetry.metrics.inc(obs.windows, 1);
                }
                return StepOutcome::Progressed;
            }
            let out = g.output as usize;
            if kind == GateKind::Input {
                if self.values[out] == ev.value {
                    continue; // redundant input level
                }
            } else {
                g.set_pending(None);
            }
            if self.obs.is_some() {
                let depth = self.queue.len() as f64;
                let obs = self.obs.as_deref_mut().expect("obs just checked");
                obs.telemetry.metrics.inc(obs.events_fired, 1);
                obs.telemetry.metrics.observe(obs.queue_depth, depth);
                obs.telemetry
                    .metrics
                    .raise_gauge(obs.queue_high_water, depth);
            }
            return StepOutcome::Fired(self.commit(ev.gate, out, ev.value, Seconds(ev.time)));
        }
    }

    /// Fires the next event, if any. Returns `None` when the queue is
    /// exhausted (the circuit is quiescent or fully stalled).
    ///
    /// A transition on a capacitor or constant rail below the operating
    /// floor stalls without a queue entry, so it cannot hold this up.
    /// Only a varying ideal rail that never recovers above the floor can
    /// make this spin through integration windows without ever firing;
    /// use [`Simulator::run_until`] for a time-bounded run, and
    /// [`Simulator::drive_until`] for a handshake with a deadline.
    pub fn step(&mut self) -> Option<FiredEvent> {
        loop {
            match self.step_outcome(None) {
                StepOutcome::Fired(e) => return Some(e),
                StepOutcome::Progressed => continue,
                StepOutcome::Exhausted => return None,
            }
        }
    }

    /// Runs a handshake whose environment is `env`, until `env` returns
    /// `true` (its protocol is done) or the run cannot go on.
    ///
    /// `env` runs before the first step, after every fired event, and
    /// once more when the queue runs dry; it may schedule inputs. This
    /// returns `false` when the next live event lies past `deadline`, or
    /// when the queue is empty and `env` scheduled nothing. No event
    /// past `deadline` fires, and integration-window progress is not an
    /// event, so a varying rail that never recovers above the floor ends
    /// the run at the deadline. Unlike [`Simulator::run_until`], time
    /// stays at the last fired event.
    pub fn drive_until(
        &mut self,
        deadline: Seconds,
        mut env: impl FnMut(&mut Self) -> bool,
    ) -> bool {
        if env(self) {
            return true;
        }
        loop {
            let dry = match self.step_outcome(Some(deadline.0)) {
                StepOutcome::Fired(_) => false,
                StepOutcome::Progressed => continue,
                StepOutcome::Exhausted if self.queue.is_empty() => true,
                StepOutcome::Exhausted => return false,
            };
            if env(self) {
                return true;
            }
            if dry && self.queue.is_empty() {
                return false;
            }
        }
    }

    /// Runs until the queue is empty or the next event lies beyond
    /// `t_end`; advances time (and leakage) to `t_end`.
    pub fn run_until(&mut self, t_end: Seconds) -> RunStats {
        let mut stats = RunStats::default();
        let hazards_before = self.hazards.len();
        loop {
            match self.step_outcome(Some(t_end.0)) {
                StepOutcome::Fired(_) => stats.fired += 1,
                StepOutcome::Progressed => {}
                StepOutcome::Exhausted => break,
            }
        }
        self.now = Seconds(self.now.0.max(t_end.0));
        self.advance_domains(self.now);
        stats.hazards = (self.hazards.len() - hazards_before) as u64;
        stats
    }

    /// Runs until quiescence (empty queue) or until `max_events` fired,
    /// whichever comes first. Returns the number of events fired.
    ///
    /// Integration-window progress on stalled supplies is bounded too
    /// (at 1024 windows per allowed event), so this always terminates.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> u64 {
        let mut fired = 0;
        let mut spins = 0u64;
        while fired < max_events && spins < max_events.saturating_mul(1024) {
            match self.step_outcome(None) {
                StepOutcome::Fired(_) => fired += 1,
                StepOutcome::Progressed => spins += 1,
                StepOutcome::Exhausted => break,
            }
        }
        self.advance_domains(self.now);
        fired
    }

    /// Time of the earliest queued event, if any. A queued event may
    /// turn out stale when popped, so this is a lower bound on the next
    /// firing.
    pub fn next_event_time(&self) -> Option<Seconds> {
        self.queue.peek().map(|Reverse(e)| Seconds(e.time))
    }

    // ----- internals ------------------------------------------------

    /// `true` if `ev` was cancelled or superseded after it was queued.
    fn is_stale(&self, ev: &QueuedEvent) -> bool {
        let g = &self.gates[ev.gate];
        g.kind != GateKind::Input && ev.epoch != g.epoch
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn push_event(&mut self, ev: QueuedEvent) {
        self.queue.push(Reverse(ev));
    }

    fn eval_gate(&self, gate: usize) -> bool {
        let g = &self.gates[gate];
        g.kind.eval_map(
            g.inputs(&self.inputs),
            |n| self.values[n.index()],
            self.values[g.output as usize],
        )
    }

    /// The memoised device leakage law (see the `leak_memo` field).
    fn leakage_memo(device: &DeviceModel, memo: &Cell<(u64, f64)>, v: Volts) -> Watts {
        let bits = v.0.to_bits();
        let (key, watts) = memo.get();
        if key == bits {
            return Watts(watts);
        }
        let p = device.leakage_power(v);
        memo.set((bits, p.0));
        p
    }

    /// Constant-supply delay of `gate` at rail voltage `v`, memoised on
    /// the exact voltage bits (see [`GateState::delay_memo`]).
    fn delay_at_voltage(&self, gate: usize, v: Volts) -> Seconds {
        let bits = v.0.to_bits();
        let g = &self.gates[gate];
        let (key, delay) = g.delay_memo.get();
        if key == bits {
            return Seconds(delay);
        }
        let drive = self.netlist.gate_ref(self.netlist.gate_id(gate)).drive();
        let base = self.device.gate_delay(v, g.load, drive);
        let td = base * g.kind.delay_factor() * self.delay_scale[gate];
        g.delay_memo.set((bits, td.0));
        td
    }

    fn schedule_transition(&mut self, gate: usize, value: bool, from: Seconds) {
        self.schedule_transition_with_progress(gate, value, from, 0.0);
    }

    fn schedule_transition_with_progress(
        &mut self,
        gate: usize,
        value: bool,
        from: Seconds,
        progress: f64,
    ) {
        debug_assert!(self.gates[gate].pending().is_none());
        let domain_id = self.gates[gate].domain().expect("gate without domain");
        let remaining = 1.0 - progress;

        /// What phase 1 decided, carried across the borrow boundary:
        /// everything below is computed under immutable borrows of the
        /// domain (and its waveform, in place — no clone), then the
        /// mutations happen with those borrows released.
        enum Plan {
            /// Capacitor or constant ideal rail below the floor: queue
            /// nothing. A capacitor rail waits for an explicit recharge;
            /// a constant rail never recovers.
            Stall,
            /// Fires at the given absolute time.
            FireAt(f64),
            /// Integration window crossed while stalled: continue at
            /// `time` with `progress` of the work already done.
            Window { time: f64, progress: f64 },
        }

        let plan = {
            let domain = &self.domains[domain_id.0];
            match domain.kind() {
                SupplyKind::Capacitor { .. } => {
                    // Capacitor rails are piecewise constant between
                    // events: a single-step exact solution, or a stall if
                    // depleted.
                    let v = domain.voltage(from);
                    let td = self.delay_at_voltage(gate, v);
                    if td.0.is_infinite() {
                        Plan::Stall
                    } else {
                        Plan::FireAt(from.0 + td.0 * remaining)
                    }
                }
                SupplyKind::Ideal {
                    waveform,
                    resolution,
                } => {
                    // Constant rails need no numerical integration: the
                    // remaining work completes in one exact step.
                    // (Without this, a millisecond-scale sub-threshold
                    // delay would be ground through at nanosecond
                    // resolution.)
                    if let Some(v) = waveform.as_constant() {
                        let td = self.delay_at_voltage(gate, Volts(v));
                        if td.0.is_finite() {
                            Plan::FireAt(from.0 + td.0 * remaining)
                        } else {
                            Plan::Stall
                        }
                    } else {
                        let horizon = Seconds(from.0 + resolution.0 * WINDOW_STEPS);
                        // Scaling every delay by the remaining work makes
                        // the solver's work target of 1 equal `remaining`
                        // of the original transition.
                        let td_at = |t: Seconds| {
                            let v = Volts(waveform.value_at(t));
                            self.delay_at_voltage(gate, v) * remaining
                        };
                        match completion_time(from, td_at, *resolution, horizon) {
                            Completion::At(t) => Plan::FireAt(t.0),
                            Completion::StalledUntilHorizon { progress: p } => Plan::Window {
                                time: horizon.0,
                                // Convert chunk progress back to absolute
                                // progress.
                                progress: progress + p * remaining,
                            },
                        }
                    }
                }
            }
        };

        let (time, progress, complete) = match plan {
            Plan::Stall => {
                self.gates[gate].set_pending(Some(Pending {
                    value,
                    stalled: true,
                }));
                return;
            }
            Plan::FireAt(t) => (t, 0.0, true),
            Plan::Window { time, progress } => (time, progress, false),
        };
        self.gates[gate].set_pending(Some(Pending {
            value,
            stalled: false,
        }));
        let ev = QueuedEvent {
            time,
            seq: self.next_seq(),
            gate,
            value,
            epoch: self.gates[gate].epoch,
            progress,
            complete,
        };
        self.push_event(ev);
    }

    fn commit(&mut self, gate: usize, net: usize, value: bool, time: Seconds) -> FiredEvent {
        let g = &mut self.gates[gate];
        // Leakage catch-up for the firing gate's domain (inputs are
        // domain-less and draw nothing).
        if let Some(d) = g.domain() {
            let device = &self.device;
            let memo = &self.leak_memo;
            let domain = &mut self.domains[d.0];
            domain.advance(time, |v| Self::leakage_memo(device, memo, v));
            if value {
                let before = domain.switching_energy();
                domain.draw_switching(g.load, time);
                g.energy += domain.switching_energy() - before;
            }
        }
        g.transitions += 1;
        let net_id = self.netlist.net_id(net);
        self.values[net] = value;
        if self.watched[net] {
            self.trace.record(time, net_id, value);
        }
        // Propagate to fanout. Indexed loop: `fanout()` is a borrow of
        // the netlist (two array reads on its CSR), and the loop
        // body needs `&mut self` to schedule.
        for fi in 0..self.netlist.fanout(net_id).len() {
            let f = self.netlist.fanout(net_id)[fi].index();
            let g = &self.gates[f];
            if g.kind.is_source() || g.stuck().is_some() {
                continue; // sources and stuck gates never react
            }
            let current = self.values[g.output as usize];
            let target = {
                let inputs = g.inputs(&self.inputs);
                let pos = inputs.iter().position(|&n| n == net_id);
                g.kind.eval_map_with_edge(
                    inputs,
                    |n| self.values[n.index()],
                    current,
                    pos.map(|p| (p, value)),
                )
            };
            match g.pending() {
                None => {
                    if target != current {
                        self.schedule_transition(f, target, time);
                    }
                }
                Some(p) => {
                    if target == p.value {
                        // Pending transition still enabled: inertial keep.
                    } else {
                        // target == current: the pending transition was
                        // disabled — a persistence violation.
                        let g = &mut self.gates[f];
                        g.epoch += 1;
                        g.set_pending(None);
                        self.hazards.push(Hazard {
                            gate: self.netlist.gate_id(f),
                            time,
                            cancelled_value: p.value,
                        });
                    }
                }
            }
        }
        FiredEvent {
            time,
            gate: self.netlist.gate_id(gate),
            net: net_id,
            value,
        }
    }

    fn advance_domains(&mut self, t: Seconds) {
        let device = &self.device;
        let memo = &self.leak_memo;
        for d in &mut self.domains {
            d.advance(t, |v| Self::leakage_memo(device, memo, v));
        }
    }
}
