//! The circuit graph: nets, gates, builder API and well-formedness checks.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::OnceLock;

use crate::diag::{Diagnostic, Severity};
use crate::gate::GateKind;

/// Identifier of a net (a wire). Created by the [`Netlist`] builder
/// methods; only meaningful for the netlist that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(usize);

impl NetId {
    /// Dense index of this net in `0..netlist.net_count()`.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a gate instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(usize);

impl GateId {
    /// Dense index of this gate in `0..netlist.gate_count()`.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// One gate instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    kind: GateKind,
    inputs: Vec<NetId>,
    output: NetId,
    drive: f64,
}

impl Gate {
    /// The gate's primitive kind.
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// Input nets, in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// The single output net.
    pub fn output(&self) -> NetId {
        self.output
    }

    /// Drive strength relative to a unit inverter.
    pub fn drive(&self) -> f64 {
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
    gates: Vec<Gate>,
    net_driver: Vec<Option<GateId>>,
    net_names: Vec<String>,
    fanout: Vec<Vec<GateId>>,
    outputs: Vec<NetId>,
    /// Membership mirror of `outputs`, so marking stays O(1) on netlists
    /// with hundreds of thousands of declared outputs.
    output_set: HashSet<NetId>,
    /// First net created under each name (duplicates never overwrite).
    /// Built in net order by the first [`Netlist::find_net`], so
    /// netlists nobody searches (slices, clones, simulator copies) never
    /// pay for it; [`Netlist::new_net`] keeps a built index current.
    name_index: OnceLock<HashMap<String, NetId>>,
    /// CSR snapshot of the fanout lists, built by [`Netlist::freeze`] and
    /// dropped by any structural mutation.
    frozen: Option<Frozen>,
}

/// Flattened fanout adjacency: one contiguous [`GateId`] arena indexed by
/// `offsets[net]..offsets[net + 1]`, plus the per-net input load totals,
/// so the per-event hot path touches two cache lines instead of chasing a
/// `Vec<Vec<_>>` and re-summing load factors.
#[derive(Debug, Clone)]
struct Frozen {
    offsets: Vec<u32>,
    arena: Vec<GateId>,
    load_units: Vec<f64>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Self::default()
    }

    fn new_net(&mut self, name: &str) -> NetId {
        let id = NetId(self.net_names.len());
        self.net_names.push(name.to_owned());
        self.net_driver.push(None);
        self.fanout.push(Vec::new());
        // First-created-wins, matching the documented `find_net` contract.
        if let Some(index) = self.name_index.get_mut() {
            index.entry(name.to_owned()).or_insert(id);
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
                i.0 < self.net_names.len(),
                "input net {i} does not belong to this netlist (gate '{name}')"
            );
        }
        self.frozen = None;
        let output = self.new_net(name);
        let gid = GateId(self.gates.len());
        self.gates.push(Gate {
            kind,
            inputs: inputs.to_vec(),
            output,
            drive,
        });
        self.net_driver[output.0] = Some(gid);
        for &i in inputs {
            self.fanout[i.0].push(gid);
        }
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
        assert!(net.0 < self.net_names.len(), "foreign feedback net");
        self.frozen = None;
        let gid = self.net_driver[target.0].expect("feedback target has no driver");
        let gate = &mut self.gates[gid.0];
        gate.inputs.push(net);
        let (lo, hi) = gate.kind.arity();
        assert!(
            gate.inputs.len() >= lo && gate.inputs.len() <= hi,
            "feedback would violate {} arity",
            gate.kind
        );
        self.fanout[net.0].push(gid);
    }

    /// Declares `net` as a circuit output (observed by the environment),
    /// exempting it from the floating-net check.
    pub fn mark_output(&mut self, net: NetId) {
        if self.output_set.insert(net) {
            self.outputs.push(net);
        }
    }

    /// Declared circuit outputs.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.net_names.len()
    }

    /// Number of gate instances.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// The gate with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn gate_ref(&self, id: GateId) -> &Gate {
        &self.gates[id.0]
    }

    /// Recovers the [`GateId`] at dense `index` (the inverse of
    /// [`GateId::index`]).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.gate_count()`.
    pub fn gate_id(&self, index: usize) -> GateId {
        assert!(index < self.gates.len(), "gate index out of range");
        GateId(index)
    }

    /// Recovers the [`NetId`] at dense `index` (the inverse of
    /// [`NetId::index`]).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.net_count()`.
    pub fn net_id(&self, index: usize) -> NetId {
        assert!(index < self.net_names.len(), "net index out of range");
        NetId(index)
    }

    /// Iterates over `(GateId, &Gate)` in construction order.
    pub fn iter_gates(&self) -> impl Iterator<Item = (GateId, &Gate)> {
        self.gates.iter().enumerate().map(|(i, g)| (GateId(i), g))
    }

    /// All net ids in construction order.
    pub fn iter_nets(&self) -> impl Iterator<Item = NetId> {
        (0..self.net_names.len()).map(NetId)
    }

    /// The name given to `net` at construction.
    pub fn net_name(&self, net: NetId) -> &str {
        &self.net_names[net.0]
    }

    /// Looks a net up by its construction name; if several nets share a
    /// name, the first created wins. The first call builds a name index
    /// in O(nets); later calls are O(1).
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.name_index
            .get_or_init(|| {
                let mut index = HashMap::with_capacity(self.net_names.len());
                for (i, n) in self.net_names.iter().enumerate() {
                    index.entry(n.clone()).or_insert(NetId(i));
                }
                index
            })
            .get(name)
            .copied()
    }

    /// The gate driving `net`, if any (inputs and constants drive their own
    /// nets, so in a checked netlist this is always `Some`).
    pub fn driver_of(&self, net: NetId) -> Option<GateId> {
        self.net_driver[net.0]
    }

    /// Gates whose inputs include `net`, as a borrowed slice (from the
    /// CSR arena when frozen, the per-net list otherwise).
    pub fn fanout(&self, net: NetId) -> &[GateId] {
        if let Some(f) = &self.frozen {
            &f.arena[f.offsets[net.0] as usize..f.offsets[net.0 + 1] as usize]
        } else {
            &self.fanout[net.0]
        }
    }

    /// Total input load presented by the fanout of `net`, in unit-inverter
    /// gate capacitances (see [`GateKind::input_load_factor`]). Cached by
    /// [`Netlist::freeze`]; recomputed per call on an unfrozen netlist.
    pub fn fanout_load_units(&self, net: NetId) -> f64 {
        if let Some(f) = &self.frozen {
            return f.load_units[net.0];
        }
        self.fanout[net.0]
            .iter()
            .map(|g| self.gates[g.0].kind.input_load_factor())
            .sum()
    }

    /// Builds the flattened CSR fanout snapshot and the per-net load
    /// cache. Idempotent; any later structural mutation (adding a gate,
    /// closing feedback, rewiring an output) drops the snapshot, and the
    /// query methods transparently fall back to the builder lists. The
    /// simulator and verifier freeze their netlists before entering
    /// their event loops.
    pub fn freeze(&mut self) {
        if self.frozen.is_some() {
            return;
        }
        let nets = self.net_names.len();
        let mut offsets = Vec::with_capacity(nets + 1);
        let mut arena = Vec::with_capacity(self.fanout.iter().map(Vec::len).sum());
        let mut load_units = Vec::with_capacity(nets);
        offsets.push(0u32);
        for list in &self.fanout {
            arena.extend_from_slice(list);
            offsets.push(u32::try_from(arena.len()).expect("fanout arena fits in u32"));
            load_units.push(
                list.iter()
                    .map(|g| self.gates[g.0].kind.input_load_factor())
                    .sum(),
            );
        }
        self.frozen = Some(Frozen {
            offsets,
            arena,
            load_units,
        });
    }

    /// Whether a [`Netlist::freeze`] snapshot is currently live.
    pub fn is_frozen(&self) -> bool {
        self.frozen.is_some()
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
        assert!(gate.0 < self.gates.len(), "foreign gate id");
        assert!(net.0 < self.net_names.len(), "foreign net id");
        assert!(
            !self.gates[gate.0].kind.is_source(),
            "cannot rewire a source gate's output"
        );
        self.frozen = None;
        let old = self.gates[gate.0].output;
        if old == net {
            return;
        }
        self.gates[gate.0].output = net;
        if self.net_driver[old.0] == Some(gate) {
            self.net_driver[old.0] = None;
        }
        if self.net_driver[net.0].is_none() {
            self.net_driver[net.0] = Some(gate);
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
        let mut drivers: Vec<u32> = vec![0; self.net_names.len()];
        for g in &self.gates {
            drivers[g.output.0] += 1;
        }
        for net in self.iter_nets() {
            if self.fanout[net.0].is_empty() && !self.output_set.contains(&net) {
                out.push(
                    Diagnostic::new(
                        "NET001",
                        Severity::Error,
                        format!(
                            "net {net} ('{}') has no fanout and is not a circuit output",
                            self.net_names[net.0]
                        ),
                    )
                    .at_net(net),
                );
            }
            if drivers[net.0] > 1 {
                out.push(
                    Diagnostic::new(
                        "NET002",
                        Severity::Error,
                        format!(
                            "net {net} ('{}') is driven by {} gates (shorted outputs)",
                            self.net_names[net.0], drivers[net.0]
                        ),
                    )
                    .at_net(net),
                );
            }
            if drivers[net.0] == 0 && !self.fanout[net.0].is_empty() {
                out.push(
                    Diagnostic::new(
                        "NET004",
                        Severity::Error,
                        format!(
                            "net {net} ('{}') has consumers but no driving gate",
                            self.net_names[net.0]
                        ),
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
                        self.net_names[witness.0]
                    ),
                )
                .at_net(witness),
            );
        }
        for (id, g) in self.iter_gates() {
            let (lo, hi) = g.kind.arity();
            if g.inputs.len() < lo || g.inputs.len() > hi {
                out.push(
                    Diagnostic::new(
                        "NET005",
                        Severity::Error,
                        format!(
                            "gate {id} ({}) has {} inputs, outside its arity {lo}..={hi}",
                            g.kind,
                            g.inputs.len()
                        ),
                    )
                    .at_gate(id)
                    .at_net(g.output),
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
                let gate = &self.gates[g];
                if *next < gate.inputs.len() {
                    let input_net = gate.inputs[*next];
                    *next += 1;
                    if let Some(pred) = self.net_driver[input_net.0] {
                        let p = pred.0;
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
    fn freeze_preserves_queries_and_mutators_invalidate() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let c = n.gate(GateKind::CElement, &[a, a], "c");
        let inv = n.gate(GateKind::Inv, &[c], "inv");
        n.mark_output(inv);
        let before: Vec<Vec<GateId>> = n.iter_nets().map(|x| n.fanout(x).to_vec()).collect();
        let loads: Vec<f64> = n.iter_nets().map(|x| n.fanout_load_units(x)).collect();

        n.freeze();
        assert!(n.is_frozen());
        n.freeze(); // idempotent
        for (i, net) in n.iter_nets().enumerate() {
            assert_eq!(n.fanout(net), before[i].as_slice());
            assert!((n.fanout_load_units(net) - loads[i]).abs() < 1e-12);
        }

        // Every structural mutator must drop the snapshot, and the
        // fallback path must see the mutation immediately.
        n.connect_feedback(c, inv);
        assert!(!n.is_frozen());
        assert!(n.fanout(inv).contains(&n.driver_of(c).unwrap()));

        n.freeze();
        let z = n.gate(GateKind::Inv, &[inv], "z");
        assert!(!n.is_frozen());
        n.freeze();
        n.rewire_output(n.driver_of(z).unwrap(), inv);
        assert!(!n.is_frozen());
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
