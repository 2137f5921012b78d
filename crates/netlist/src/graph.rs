//! The circuit graph: nets, gates, builder API and well-formedness checks.

use std::collections::BTreeMap;
use std::fmt;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::OnceLock;

use crate::diag::{Diagnostic, Severity};
use crate::gate::GateKind;

/// Identifier of a net (a wire). Created by the [`Netlist`] builder
/// methods; only meaningful for the netlist that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(u32);

impl NetId {
    /// Dense index of this net in `0..netlist.net_count()`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a gate instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(u32);

impl GateId {
    /// Dense index of this gate in `0..netlist.gate_count()`.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The gate that created `net`: in a netlist without
    /// [`Netlist::rewire_output`] surgery, gate `i` drives net `i`.
    pub(crate) fn creator_of(net: NetId) -> GateId {
        GateId(net.0)
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

// Ids are 4 bytes: the input arena, the fanout arena and every id table
// built over a netlist hold one per entry.
const _: () = assert!(std::mem::size_of::<NetId>() == 4);
const _: () = assert!(std::mem::size_of::<GateId>() == 4);

/// Narrows a net, gate or arena index to the 4 bytes ids are stored in.
/// `u32::MAX` stays free: it marks a driverless net.
fn narrow(index: usize) -> u32 {
    u32::try_from(index)
        .ok()
        .filter(|&i| i != u32::MAX)
        .expect("netlists hold fewer than 2^32 - 1 nets, gates and input references")
}

/// One gate instance: a `Copy` view into its [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate<'a> {
    kind: GateKind,
    inputs: &'a [NetId],
    output: NetId,
    drive: f64,
}

impl<'a> Gate<'a> {
    /// The gate's primitive kind.
    pub fn kind(self) -> GateKind {
        self.kind
    }

    /// Input nets, in declaration order.
    pub fn inputs(self) -> &'a [NetId] {
        self.inputs
    }

    /// The single output net.
    pub fn output(self) -> NetId {
        self.output
    }

    /// Drive strength relative to a unit inverter.
    pub fn drive(self) -> f64 {
        self.drive
    }
}

/// Structural problems reported by [`Netlist::check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A cycle passes through combinational gates only; with no
    /// state-holding gate to break it the circuit would oscillate or
    /// deadlock analysis.
    CombinationalLoop {
        /// One net on the offending cycle.
        witness: NetId,
    },
    /// A net drives nothing and was not marked as a circuit output.
    FloatingNet {
        /// The undriven-fanout net.
        net: NetId,
    },
    /// More than one gate claims the same output net (only possible
    /// through [`Netlist::rewire_output`] surgery — a modelled short).
    MultiplyDrivenNet {
        /// The contested net.
        net: NetId,
    },
    /// A net has consumers but no driving gate (the abandoned output of
    /// a rewired gate).
    UndrivenNet {
        /// The driverless net.
        net: NetId,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::CombinationalLoop { witness } => {
                write!(f, "combinational loop through net {witness}")
            }
            NetlistError::FloatingNet { net } => {
                write!(f, "net {net} has no fanout and is not an output")
            }
            NetlistError::MultiplyDrivenNet { net } => {
                write!(f, "net {net} is driven by more than one gate")
            }
            NetlistError::UndrivenNet { net } => {
                write!(f, "net {net} has consumers but no driver")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

/// An append-only gate-level circuit.
///
/// Every builder method (`input`, `gate`, …) allocates and returns the
/// gate's output [`NetId`]; inputs of later gates refer to earlier nets,
/// so a netlist is constructed in topological order of declaration (which
/// does **not** restrict connectivity: state-holding feedback is closed
/// with [`Netlist::connect_feedback`]).
///
/// The storage is flat: fixed-size gate records over one input arena,
/// one name arena, a `u32` driver table and an output bitset, so a
/// netlist holds no heap allocation per gate or per net. The fanout
/// lists are built from it on first use (see [`Netlist::fanout`]).
///
/// # Examples
///
/// A toggle stage's rendezvous (see the paper's Fig. 10):
///
/// ```
/// use emc_netlist::{GateKind, Netlist};
///
/// let mut n = Netlist::new();
/// let req = n.input("req");
/// let ack = n.input("ack");
/// let c = n.gate(GateKind::CElement, &[req, ack], "sync");
/// n.mark_output(c);
/// assert!(n.check().is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    gates: Vec<GateRecord>,
    /// Every gate's input nets, one run per gate. A run grows at the end
    /// of the arena; [`Netlist::connect_feedback`] moves a run that is
    /// not last there first, leaving its old slots unused.
    inputs: Vec<NetId>,
    /// Per net: the index of its driving gate, or `u32::MAX`.
    drivers: Vec<u32>,
    names: Names,
    outputs: Vec<NetId>,
    /// Membership bits of `outputs`, one per net, so marking stays O(1)
    /// on netlists with hundreds of thousands of declared outputs.
    output_bits: Vec<u64>,
    /// Every [`Netlist::connect_feedback`] call, in call order: the only
    /// input references whose place in a fanout list the gate order
    /// does not give.
    feedback: Vec<FeedbackArc>,
    /// First net created under each name. Built by the first
    /// [`Netlist::find_net`], so netlists nobody searches (slices,
    /// clones, simulator copies) never pay for it; `new_net` keeps a
    /// built index current.
    name_index: OnceLock<NameIndex>,
    /// The fanout lists, built on first use and dropped by the mutators
    /// that add a net or an input reference.
    fanout: OnceLock<Fanout>,
}

/// A gate's fixed-size record: its inputs are
/// `inputs[start..start + len]` of the netlist's input arena.
#[derive(Debug, Clone, Copy)]
struct GateRecord {
    drive: f64,
    start: u32,
    len: u32,
    output: NetId,
    kind: GateKind,
}

/// One [`Netlist::connect_feedback`] call.
#[derive(Debug, Clone, Copy)]
struct FeedbackArc {
    /// Gates that existed at the call: the arc follows the input
    /// references of gate `gates - 1` in every fanout list and precedes
    /// those of gate `gates`.
    gates: u32,
    gate: GateId,
    net: NetId,
}

/// Every net name back to back in one string: net `n`'s name ends at
/// `ends[n]` and starts where net `n - 1`'s ends.
#[derive(Debug, Clone, Default)]
struct Names {
    text: String,
    ends: Vec<u32>,
}

impl Names {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn get(&self, net: usize) -> &str {
        let start = if net == 0 { 0 } else { self.ends[net - 1] };
        &self.text[start as usize..self.ends[net] as usize]
    }

    fn push(&mut self, name: &str) {
        self.text.push_str(name);
        self.ends.push(narrow(self.text.len()));
    }
}

/// First-created-wins index from a name to its net: an open-addressed
/// table of `net + 1` (0 marks an empty slot), probed linearly from the
/// name's hash and kept at most half full.
#[derive(Debug, Clone)]
struct NameIndex {
    slots: Vec<u32>,
    len: usize,
}

impl NameIndex {
    fn build(names: &Names) -> Self {
        let mut index = NameIndex {
            slots: vec![0; (2 * names.len()).next_power_of_two().max(16)],
            len: 0,
        };
        for net in 0..names.len() {
            index.insert(names, net);
        }
        index
    }

    /// The slot holding `name`, or the empty slot where it would go.
    fn probe(&self, names: &Names, name: &str) -> usize {
        let mut h = DefaultHasher::new();
        name.hash(&mut h);
        let mask = self.slots.len() - 1;
        let mut slot = h.finish() as usize & mask;
        while self.slots[slot] != 0 && names.get(self.slots[slot] as usize - 1) != name {
            slot = (slot + 1) & mask;
        }
        slot
    }

    fn get(&self, names: &Names, name: &str) -> Option<NetId> {
        let entry = self.slots[self.probe(names, name)];
        entry.checked_sub(1).map(NetId)
    }

    /// Indexes `net` unless an earlier net has its name.
    fn insert(&mut self, names: &Names, net: usize) {
        if 2 * (self.len + 1) > self.slots.len() {
            let doubled = vec![0; 2 * self.slots.len()];
            let old = std::mem::replace(&mut self.slots, doubled);
            for entry in old.into_iter().filter(|&e| e != 0) {
                let slot = self.probe(names, names.get(entry as usize - 1));
                self.slots[slot] = entry;
            }
        }
        let slot = self.probe(names, names.get(net));
        if self.slots[slot] == 0 {
            self.slots[slot] = narrow(net) + 1;
            self.len += 1;
        }
    }
}

/// The fanout lists in CSR form: net `n`'s readers are
/// `readers[offsets[n]..offsets[n + 1]]`, and `load_units[n]` sums
/// their input load factors in that order.
#[derive(Debug, Clone)]
struct Fanout {
    offsets: Vec<u32>,
    readers: Vec<GateId>,
    load_units: Vec<f64>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Self::default()
    }

    fn new_net(&mut self, name: &str) -> NetId {
        let id = NetId(narrow(self.names.len()));
        self.names.push(name);
        self.drivers.push(u32::MAX);
        if let Some(index) = self.name_index.get_mut() {
            index.insert(&self.names, id.index());
        }
        id
    }

    /// Adds an external input and returns its net.
    pub fn input(&mut self, name: &str) -> NetId {
        self.add_gate(GateKind::Input, &[], 1.0, name)
    }

    /// Adds a constant-0 or constant-1 source and returns its net.
    pub fn constant(&mut self, value: bool, name: &str) -> NetId {
        let kind = if value {
            GateKind::Const1
        } else {
            GateKind::Const0
        };
        self.add_gate(kind, &[], 1.0, name)
    }

    /// Adds a unit-drive gate and returns its output net.
    ///
    /// # Panics
    ///
    /// Panics if the input count violates the kind's arity or any input
    /// net does not belong to this netlist.
    pub fn gate(&mut self, kind: GateKind, inputs: &[NetId], name: &str) -> NetId {
        self.add_gate(kind, inputs, 1.0, name)
    }

    /// Adds a gate with explicit drive strength and returns its output net.
    ///
    /// # Panics
    ///
    /// Panics on arity violation, foreign input nets, or non-positive
    /// `drive`.
    pub fn gate_with_drive(
        &mut self,
        kind: GateKind,
        inputs: &[NetId],
        drive: f64,
        name: &str,
    ) -> NetId {
        self.add_gate(kind, inputs, drive, name)
    }

    fn add_gate(&mut self, kind: GateKind, inputs: &[NetId], drive: f64, name: &str) -> NetId {
        let (lo, hi) = kind.arity();
        assert!(
            inputs.len() >= lo && inputs.len() <= hi,
            "{kind} expects between {lo} and {hi} inputs, got {} (gate '{name}')",
            inputs.len()
        );
        assert!(
            drive > 0.0,
            "drive strength must be positive (gate '{name}')"
        );
        for &i in inputs {
            assert!(
                i.index() < self.net_count(),
                "input net {i} does not belong to this netlist (gate '{name}')"
            );
        }
        self.fanout.take();
        let output = self.new_net(name);
        let gid = narrow(self.gates.len());
        let start = narrow(self.inputs.len());
        self.inputs.extend_from_slice(inputs);
        let len = narrow(self.inputs.len()) - start;
        self.gates.push(GateRecord {
            drive,
            start,
            len,
            output,
            kind,
        });
        self.drivers[output.index()] = gid;
        output
    }

    /// Appends `net` to the input list of the gate driving `target` —
    /// closing a feedback arc that could not be expressed during forward
    /// construction (e.g. a C-element waiting on its own downstream
    /// acknowledge).
    ///
    /// # Panics
    ///
    /// Panics if `target` has no driver, the extended input list would
    /// violate the driver's arity, or either net is foreign.
    pub fn connect_feedback(&mut self, target: NetId, net: NetId) {
        assert!(net.index() < self.net_count(), "foreign feedback net");
        let gate = self
            .driver_of(target)
            .expect("feedback target has no driver");
        let g = &mut self.gates[gate.index()];
        let (lo, hi) = g.kind.arity();
        let len = g.len as usize + 1;
        assert!(
            len >= lo && len <= hi,
            "feedback would violate {} arity",
            g.kind
        );
        let end = (g.start + g.len) as usize;
        if end != self.inputs.len() {
            let start = g.start as usize;
            g.start = narrow(self.inputs.len());
            self.inputs.extend_from_within(start..end);
        }
        self.inputs.push(net);
        g.len = narrow(self.inputs.len()) - g.start;
        self.fanout.take();
        self.feedback.push(FeedbackArc {
            gates: narrow(self.gates.len()),
            gate,
            net,
        });
    }

    /// Declares `net` as a circuit output (observed by the environment),
    /// exempting it from the floating-net check.
    pub fn mark_output(&mut self, net: NetId) {
        let (word, bit) = (net.index() / 64, net.index() % 64);
        if word >= self.output_bits.len() {
            self.output_bits.resize(word + 1, 0);
        }
        if self.output_bits[word] & (1 << bit) == 0 {
            self.output_bits[word] |= 1 << bit;
            self.outputs.push(net);
        }
    }

    /// Declared circuit outputs.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    fn is_output(&self, net: NetId) -> bool {
        self.output_bits
            .get(net.index() / 64)
            .is_some_and(|w| w >> (net.index() % 64) & 1 == 1)
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.names.len()
    }

    /// Number of gate instances.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    #[inline]
    fn view(&self, g: &GateRecord) -> Gate<'_> {
        Gate {
            kind: g.kind,
            inputs: &self.inputs[g.start as usize..(g.start + g.len) as usize],
            output: g.output,
            drive: g.drive,
        }
    }

    /// The gate with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn gate_ref(&self, id: GateId) -> Gate<'_> {
        self.view(&self.gates[id.index()])
    }

    /// Recovers the [`GateId`] at dense `index` (the inverse of
    /// [`GateId::index`]).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.gate_count()`.
    pub fn gate_id(&self, index: usize) -> GateId {
        assert!(index < self.gates.len(), "gate index out of range");
        GateId(index as u32)
    }

    /// Recovers the [`NetId`] at dense `index` (the inverse of
    /// [`NetId::index`]).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.net_count()`.
    pub fn net_id(&self, index: usize) -> NetId {
        assert!(index < self.net_count(), "net index out of range");
        NetId(index as u32)
    }

    /// Iterates over `(GateId, Gate)` in construction order.
    pub fn iter_gates(&self) -> impl Iterator<Item = (GateId, Gate<'_>)> {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (GateId(i as u32), self.view(g)))
    }

    /// All net ids in construction order.
    pub fn iter_nets(&self) -> impl Iterator<Item = NetId> {
        (0..self.net_count() as u32).map(NetId)
    }

    /// The name given to `net` at construction.
    pub fn net_name(&self, net: NetId) -> &str {
        self.names.get(net.index())
    }

    /// Looks a net up by its construction name; if several nets share a
    /// name, the first created wins. The first call builds a name index
    /// in O(nets); later calls are O(1).
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.name_index
            .get_or_init(|| NameIndex::build(&self.names))
            .get(&self.names, name)
    }

    /// The gate driving `net`, if any (inputs and constants drive their own
    /// nets, so in a checked netlist this is always `Some`).
    #[inline]
    pub fn driver_of(&self, net: NetId) -> Option<GateId> {
        let d = self.drivers[net.index()];
        (d != u32::MAX).then_some(GateId(d))
    }

    /// Gates whose inputs include `net`, as a borrowed slice: one entry
    /// per input reference, in the order the references were made
    /// ([`Netlist::gate`] and [`Netlist::connect_feedback`] calls), so a
    /// gate reading `net` twice appears twice. Built for every net on
    /// the first call after a structural mutation.
    #[inline]
    pub fn fanout(&self, net: NetId) -> &[GateId] {
        let f = self.fanout_lists();
        &f.readers[f.offsets[net.index()] as usize..f.offsets[net.index() + 1] as usize]
    }

    /// Total input load presented by the fanout of `net`, in unit-inverter
    /// gate capacitances (see [`GateKind::input_load_factor`]), summed in
    /// [`Netlist::fanout`] order. Built with the fanout lists.
    #[inline]
    pub fn fanout_load_units(&self, net: NetId) -> f64 {
        self.fanout_lists().load_units[net.index()]
    }

    /// Builds the fanout lists and loads now, so a timed event loop does
    /// not pay for them on its first event. Idempotent; the queries build
    /// them on first use anyway.
    pub fn freeze(&mut self) {
        self.fanout_lists();
    }

    /// The fanout lists, in reference order: gate by gate, each gate's
    /// construction-time inputs, then the feedback arcs closed before
    /// the next gate was added.
    #[inline]
    fn fanout_lists(&self) -> &Fanout {
        self.fanout.get_or_init(|| {
            let nets = self.net_count();
            let mut offsets = vec![0u32; nets + 1];
            for g in &self.gates {
                for n in self.view(g).inputs {
                    offsets[n.index() + 1] += 1;
                }
            }
            for i in 0..nets {
                offsets[i + 1] += offsets[i];
            }
            let mut feedback_len = vec![0u32; self.gates.len()];
            for arc in &self.feedback {
                feedback_len[arc.gate.index()] += 1;
            }
            let mut next = offsets.clone();
            let mut readers = vec![GateId(0); offsets[nets] as usize];
            let mut push = |net: NetId, gate: GateId| {
                readers[next[net.index()] as usize] = gate;
                next[net.index()] += 1;
            };
            let mut arcs = self.feedback.iter().peekable();
            for (i, g) in self.gates.iter().enumerate() {
                let forward = g.start as usize..(g.start + g.len - feedback_len[i]) as usize;
                for &n in &self.inputs[forward] {
                    push(n, GateId(i as u32));
                }
                while let Some(arc) = arcs.next_if(|a| a.gates as usize == i + 1) {
                    push(arc.net, arc.gate);
                }
            }
            let load_units = (0..nets)
                .map(|n| {
                    readers[offsets[n] as usize..offsets[n + 1] as usize]
                        .iter()
                        .map(|g| self.gates[g.index()].kind.input_load_factor())
                        .sum()
                })
                .collect();
            Fanout {
                offsets,
                readers,
                load_units,
            }
        })
    }

    /// Histogram of gate kinds — the "transistor budget" report.
    pub fn kind_histogram(&self) -> BTreeMap<String, usize> {
        let mut h = BTreeMap::new();
        for g in &self.gates {
            *h.entry(g.kind.to_string()).or_insert(0) += 1;
        }
        h
    }

    /// Re-points `gate`'s output to `net` — netlist **surgery**, the
    /// escape hatch for modelling wiring faults (shorted outputs,
    /// abandoned nets) that the builder API deliberately cannot express.
    ///
    /// After the call `net` may be **multiply driven** (its original
    /// driver keeps priority for simulation) and the gate's former output
    /// net is left **undriven**; [`Netlist::validate`] reports both as
    /// `NET002` / `NET004` diagnostics. Intended for constructing
    /// known-bad verifier fixtures, not for ordinary circuit building.
    ///
    /// # Panics
    ///
    /// Panics if either id is foreign or `gate` is a source gate (inputs
    /// and constants own their nets).
    pub fn rewire_output(&mut self, gate: GateId, net: NetId) {
        assert!(gate.index() < self.gates.len(), "foreign gate id");
        assert!(net.index() < self.net_count(), "foreign net id");
        let g = &mut self.gates[gate.index()];
        assert!(!g.kind.is_source(), "cannot rewire a source gate's output");
        let old = g.output;
        if old == net {
            return;
        }
        g.output = net;
        if self.drivers[old.index()] == gate.0 {
            self.drivers[old.index()] = u32::MAX;
        }
        if self.drivers[net.index()] == u32::MAX {
            self.drivers[net.index()] = gate.0;
        }
    }
    /// Validates the netlist structure, returning **all** findings as
    /// structured diagnostics instead of failing on the first:
    ///
    /// * `NET001` (error) — a non-output net with no fanout;
    /// * `NET002` (error) — a net driven by more than one gate;
    /// * `NET003` (error) — a combinational loop with no state-holding
    ///   element to break it;
    /// * `NET004` (error) — a net with consumers but no driver;
    /// * `NET005` (error) — a gate whose input count violates its kind's
    ///   arity (defensive: the builder enforces arity, so this indicates
    ///   internal corruption).
    ///
    /// An empty vector means the netlist is well-formed. This is the
    /// machine-readable face of [`Netlist::check`], and what the
    /// `emc-verify` lint pass consumes.
    pub fn validate(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        // Driver census: by construction each gate owns its output net,
        // but `rewire_output` can short two outputs together or abandon
        // a net entirely.
        let mut drivers: Vec<u32> = vec![0; self.net_count()];
        for g in &self.gates {
            drivers[g.output.index()] += 1;
        }
        for net in self.iter_nets() {
            let name = self.net_name(net);
            if self.fanout(net).is_empty() && !self.is_output(net) {
                out.push(
                    Diagnostic::new(
                        "NET001",
                        Severity::Error,
                        format!("net {net} ('{name}') has no fanout and is not a circuit output"),
                    )
                    .at_net(net),
                );
            }
            let count = drivers[net.index()];
            if count > 1 {
                out.push(
                    Diagnostic::new(
                        "NET002",
                        Severity::Error,
                        format!(
                            "net {net} ('{name}') is driven by {count} gates (shorted outputs)"
                        ),
                    )
                    .at_net(net),
                );
            }
            if count == 0 && !self.fanout(net).is_empty() {
                out.push(
                    Diagnostic::new(
                        "NET004",
                        Severity::Error,
                        format!("net {net} ('{name}') has consumers but no driving gate"),
                    )
                    .at_net(net),
                );
            }
        }
        if let Some(witness) = self.find_combinational_loop() {
            out.push(
                Diagnostic::new(
                    "NET003",
                    Severity::Error,
                    format!(
                        "combinational loop through net {witness} ('{}') with no \
                         state-holding element",
                        self.net_name(witness)
                    ),
                )
                .at_net(witness),
            );
        }
        for (id, g) in self.iter_gates() {
            let (lo, hi) = g.kind().arity();
            if g.inputs().len() < lo || g.inputs().len() > hi {
                out.push(
                    Diagnostic::new(
                        "NET005",
                        Severity::Error,
                        format!(
                            "gate {id} ({}) has {} inputs, outside its arity {lo}..={hi}",
                            g.kind(),
                            g.inputs().len()
                        ),
                    )
                    .at_gate(id)
                    .at_net(g.output()),
                );
            }
        }
        out
    }

    /// Validates the netlist structure, failing on the first finding.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::FloatingNet`] if a non-output net has no fanout;
    /// * [`NetlistError::MultiplyDrivenNet`] / [`NetlistError::UndrivenNet`]
    ///   after [`Netlist::rewire_output`] surgery;
    /// * [`NetlistError::CombinationalLoop`] if a cycle exists that passes
    ///   through combinational gates only.
    ///
    /// [`Netlist::validate`] returns the same findings as structured
    /// diagnostics, all of them at once.
    pub fn check(&self) -> Result<(), NetlistError> {
        if let Some(d) = self.validate().into_iter().next() {
            let net = d.net.expect("netlist diagnostics anchor to a net");
            return Err(match d.rule {
                "NET001" => NetlistError::FloatingNet { net },
                "NET002" => NetlistError::MultiplyDrivenNet { net },
                "NET003" => NetlistError::CombinationalLoop { witness: net },
                "NET004" => NetlistError::UndrivenNet { net },
                other => unreachable!("unknown netlist rule {other}"),
            });
        }
        Ok(())
    }

    /// First combinational loop found, as a witness net: DFS over gates,
    /// not entering state-holding or source gates (they legitimately
    /// close feedback).
    fn find_combinational_loop(&self) -> Option<NetId> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let mut marks = vec![Mark::White; self.gates.len()];
        // Iterative DFS with an explicit stack to survive deep chains.
        for start in 0..self.gates.len() {
            if marks[start] != Mark::White
                || self.gates[start].kind.is_state_holding()
                || self.gates[start].kind.is_source()
            {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            marks[start] = Mark::Grey;
            while let Some(&mut (g, ref mut next)) = stack.last_mut() {
                let inputs = self.view(&self.gates[g]).inputs;
                if *next < inputs.len() {
                    let input_net = inputs[*next];
                    *next += 1;
                    if let Some(pred) = self.driver_of(input_net) {
                        let p = pred.index();
                        let pk = self.gates[p].kind;
                        if pk.is_state_holding() || pk.is_source() {
                            continue;
                        }
                        match marks[p] {
                            Mark::Grey => {
                                return Some(self.gates[p].output);
                            }
                            Mark::White => {
                                marks[p] = Mark::Grey;
                                stack.push((p, 0));
                            }
                            Mark::Black => {}
                        }
                    }
                } else {
                    marks[g] = Mark::Black;
                    stack.pop();
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_allocates_sequential_ids() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let y = n.gate(GateKind::Nand, &[a, b], "y");
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(y.index(), 2);
        assert_eq!(n.net_count(), 3);
        assert_eq!(n.gate_count(), 3);
        assert_eq!(n.net_name(y), "y");
    }

    #[test]
    fn driver_and_fanout_queries() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let y = n.gate(GateKind::Inv, &[a], "y");
        let z = n.gate(GateKind::Inv, &[a], "z");
        let drv_y = n.driver_of(y).unwrap();
        assert_eq!(n.gate_ref(drv_y).kind(), GateKind::Inv);
        assert_eq!(n.gate_ref(drv_y).inputs(), &[a]);
        assert_eq!(n.fanout(a).len(), 2);
        assert_eq!(n.fanout(z).len(), 0);
        assert!((n.fanout_load_units(a) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "expects between")]
    fn arity_enforced_at_construction() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let _ = n.gate(GateKind::CElement, &[a], "bad");
    }

    #[test]
    #[should_panic(expected = "drive strength")]
    fn non_positive_drive_rejected() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let _ = n.gate_with_drive(GateKind::Inv, &[a], 0.0, "bad");
    }

    #[test]
    fn floating_net_detected_and_output_exempts() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let y = n.gate(GateKind::Inv, &[a], "y");
        assert_eq!(n.check(), Err(NetlistError::FloatingNet { net: y }));
        n.mark_output(y);
        assert!(n.check().is_ok());
        assert_eq!(n.outputs(), &[y]);
    }

    #[test]
    fn combinational_loop_detected() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let y = n.gate(GateKind::Nand, &[a, a], "y"); // placeholder second input
        let z = n.gate(GateKind::Inv, &[y], "z");
        // Close the loop z → y through combinational gates only.
        n.connect_feedback(y, z);
        n.mark_output(z);
        assert!(matches!(
            n.check(),
            Err(NetlistError::CombinationalLoop { .. })
        ));
    }

    #[test]
    fn state_holding_gate_breaks_loop() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let c = n.gate(GateKind::CElement, &[a, a], "c");
        let inv = n.gate(GateKind::Inv, &[c], "inv");
        n.connect_feedback(c, inv); // ring oscillator through a C-element
        n.mark_output(inv);
        assert!(n.check().is_ok());
    }

    #[test]
    fn ring_oscillator_through_invs_is_a_loop() {
        let mut n = Netlist::new();
        let a = n.input("en");
        let g1 = n.gate(GateKind::Nand, &[a, a], "g1");
        let g2 = n.gate(GateKind::Inv, &[g1], "g2");
        let g3 = n.gate(GateKind::Inv, &[g2], "g3");
        n.connect_feedback(g1, g3);
        n.mark_output(g3);
        assert!(matches!(
            n.check(),
            Err(NetlistError::CombinationalLoop { .. })
        ));
    }

    #[test]
    fn feedback_updates_fanout() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let c = n.gate(GateKind::CElement, &[a, a], "c");
        let inv = n.gate(GateKind::Inv, &[c], "inv");
        n.connect_feedback(c, inv);
        assert!(n.fanout(inv).contains(&n.driver_of(c).unwrap()));
        let g = n.gate_ref(n.driver_of(c).unwrap());
        assert_eq!(g.inputs().len(), 3);
    }

    #[test]
    fn find_net_first_created_wins_on_duplicates() {
        let mut n = Netlist::new();
        let first = n.input("dup");
        let a = n.input("a");
        let second = n.gate(GateKind::Inv, &[a], "dup");
        assert_ne!(first, second);
        // The indexed lookup must preserve the original linear-scan
        // contract: the first net created under a name wins, however
        // many later nets reuse it.
        assert_eq!(n.find_net("dup"), Some(first));
        assert_eq!(n.find_net("a"), Some(a));
        assert_eq!(n.find_net("absent"), None);
    }

    #[test]
    fn freeze_preserves_queries_and_mutators_are_visible() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let c = n.gate(GateKind::CElement, &[a, a], "c");
        let inv = n.gate(GateKind::Inv, &[c], "inv");
        n.mark_output(inv);
        let before: Vec<Vec<GateId>> = n.iter_nets().map(|x| n.fanout(x).to_vec()).collect();
        let loads: Vec<f64> = n.iter_nets().map(|x| n.fanout_load_units(x)).collect();

        n.freeze();
        n.freeze(); // idempotent
        for (i, net) in n.iter_nets().enumerate() {
            assert_eq!(n.fanout(net), before[i].as_slice());
            assert!((n.fanout_load_units(net) - loads[i]).abs() < 1e-12);
        }

        // Every structural mutator must be visible to the next query.
        let c_gate = n.driver_of(c).unwrap();
        n.connect_feedback(c, inv);
        assert_eq!(n.fanout(inv), [c_gate]);

        n.freeze();
        let z = n.gate(GateKind::Inv, &[inv], "z");
        let z_gate = n.driver_of(z).unwrap();
        assert_eq!(n.fanout(inv), [c_gate, z_gate]);
        assert_eq!(n.fanout(z), []);
        n.rewire_output(z_gate, inv);
        assert_eq!(n.gate_ref(z_gate).output(), inv);
        assert_eq!(n.driver_of(z), None);
    }

    #[test]
    fn constants_and_histogram() {
        let mut n = Netlist::new();
        let one = n.constant(true, "vdd_tie");
        let zero = n.constant(false, "gnd_tie");
        let y = n.gate(GateKind::Or, &[one, zero], "y");
        n.mark_output(y);
        assert!(n.check().is_ok());
        let h = n.kind_histogram();
        assert_eq!(h.get("CONST1"), Some(&1));
        assert_eq!(h.get("CONST0"), Some(&1));
        assert_eq!(h.get("OR"), Some(&1));
    }

    #[test]
    fn mark_output_is_idempotent() {
        let mut n = Netlist::new();
        let a = n.input("a");
        n.mark_output(a);
        n.mark_output(a);
        assert_eq!(n.outputs().len(), 1);
    }

    #[test]
    fn display_ids() {
        let mut n = Netlist::new();
        let a = n.input("a");
        assert_eq!(a.to_string(), "n0");
        assert_eq!(n.driver_of(a).unwrap().to_string(), "g0");
    }

    #[test]
    fn validate_reports_all_findings_at_once() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let _floating = n.gate(GateKind::Inv, &[a], "floating");
        let y = n.gate(GateKind::Nand, &[a, a], "y");
        let z = n.gate(GateKind::Inv, &[y], "z");
        n.connect_feedback(y, z);
        n.mark_output(z);
        let diags = n.validate();
        let rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"NET001"), "{rules:?}");
        assert!(rules.contains(&"NET003"), "{rules:?}");
        assert!(diags.iter().all(|d| d.severity == Severity::Error));
        assert!(diags.iter().all(|d| d.net.is_some()));
    }

    #[test]
    fn validate_is_empty_on_well_formed_netlist() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let y = n.gate(GateKind::CElement, &[a, b], "y");
        n.mark_output(y);
        assert!(n.validate().is_empty());
    }

    #[test]
    fn rewire_output_models_short_and_abandoned_net() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let y = n.gate(GateKind::Inv, &[a], "y");
        let z = n.gate(GateKind::Buf, &[a], "z");
        let sink = n.gate(GateKind::And, &[y, z], "sink");
        n.mark_output(sink);
        assert!(n.check().is_ok());
        // Short z's driver onto y: y becomes multiply driven, z undriven.
        n.rewire_output(n.driver_of(z).unwrap(), y);
        let rules: Vec<&str> = n.validate().iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"NET002"), "{rules:?}");
        assert!(rules.contains(&"NET004"), "{rules:?}");
        // check() surfaces the first finding as a typed error.
        assert!(matches!(
            n.check(),
            Err(NetlistError::MultiplyDrivenNet { net }) if net == y
        ));
        // The original driver keeps the net for simulation purposes.
        assert_eq!(n.driver_of(y), Some(n.gate_id(1)));
    }

    #[test]
    #[should_panic(expected = "source gate")]
    fn rewire_output_rejects_source_gates() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let y = n.gate(GateKind::Inv, &[a], "y");
        n.rewire_output(n.driver_of(a).unwrap(), y);
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        let mut n = Netlist::new();
        let mut prev = n.input("a");
        for i in 0..50_000 {
            prev = n.gate(GateKind::Inv, &[prev], &format!("i{i}"));
        }
        n.mark_output(prev);
        assert!(n.check().is_ok());
    }
}
