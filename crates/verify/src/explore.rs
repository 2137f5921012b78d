//! Exhaustive state-graph exploration under the unbounded-gate-delay
//! (speed-independent) model.
//!
//! A state assigns a Boolean to every net, a *pending* event to every
//! edge-triggered gate, and a small control byte to the environment. An
//! internal gate is **excited** when its next-state function disagrees
//! with its present output; excited gates and environment actions are the
//! enabled transitions, and any interleaving of them may occur — delays
//! are unbounded, so the explorer tries them all (breadth-first, with an
//! exact state cap like `emc_petri::analysis::reachable_markings`).
//!
//! States are bit-packed (one `u64` word per 64 nets, two per 64 gates
//! for the pending events) and stored once each, in discovery order, in
//! one flat `u64` arena behind an open-addressed index table
//! (`WordTable`), keyed by only the bits that can vary (`StateStore`).
//! The visited set is that table and the BFS frontier is the range of
//! arena indices not yet expanded, so no state is ever boxed on its own.
//!
//! Two families of rules are decided on the fly:
//!
//! * **output persistence** (`SI001`): an excited gate may only lose its
//!   excitation by firing. If some other transition disables (or
//!   retargets) it, the gate can glitch under the wrong delay assignment
//!   — the state-graph definition of a hazard, the property the paper's
//!   Design 1 circuits owe their "correct at any Vdd" behaviour to.
//!   Edge-triggered primitives are covered by the companion *overrun*
//!   check: a second arming edge while an event is still pending means an
//!   event was lost.
//! * **dual-rail protocol** (`DR001`/`DR002`): no reachable state may
//!   assert both rails of a discovered pair, and a codeword must return
//!   to spacer before the pair changes again.

use std::collections::HashSet;

use emc_analyze::{discover_rail_pairs, RailPair};
use emc_netlist::{Diagnostic, GateId, GateKind, NetId, Netlist, Severity};
use emc_obs::metrics::pow2_bounds;
use emc_obs::{CounterId, GaugeId, HistogramId, Telemetry};

use crate::env::{EnvAction, EnvModel, NetView};
use crate::reduce::{EnvFootprint, ReduceScratch, ReductionEngine};

/// One global state of the closed circuit–environment system,
/// bit-packed: `words` holds the net values (one bit per net), then a
/// pending-present bit per gate, then the pending-target bit per gate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct State {
    words: Box<[u64]>,
    /// Number of leading words holding net values.
    value_words: u32,
    /// Number of words in each of the two pending planes.
    pending_words: u32,
    /// The environment's control state (the phase of its protocol machine).
    pub env: u8,
}

impl State {
    pub(crate) fn empty(nets: usize, gates: usize, env: u8) -> Self {
        let value_words = nets.div_ceil(64);
        let pending_words = gates.div_ceil(64);
        State {
            words: vec![0u64; value_words + 2 * pending_words].into_boxed_slice(),
            value_words: u32::try_from(value_words).expect("net count fits in u32 words"),
            pending_words: u32::try_from(pending_words).expect("gate count fits in u32 words"),
            env,
        }
    }

    /// Bit `i` of the packed words.
    #[inline]
    pub(crate) fn bit(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets bit `i` of the packed words to `v`.
    #[inline]
    pub(crate) fn set_bit(&mut self, i: usize, v: bool) {
        let w = &mut self.words[i / 64];
        *w = *w & !(1 << (i % 64)) | u64::from(v) << (i % 64);
    }

    /// The `len` bits from bit `i` up, bit `i` lowest. They must lie in
    /// one word: `i % 64 + len <= 64`, `len >= 1`.
    #[inline]
    pub(crate) fn bits(&self, i: usize, len: usize) -> u64 {
        debug_assert!(
            len >= 1 && i % 64 + len <= 64,
            "bits {i}+{len} cross a word"
        );
        self.words[i / 64] >> (i % 64) & u64::MAX >> (64 - len)
    }

    /// Sets the `len` bits from bit `i` up to the low bits of `v` (the
    /// rest of `v` is ignored), within one word like [`State::bits`].
    #[inline]
    pub(crate) fn set_bits(&mut self, i: usize, len: usize, v: u64) {
        debug_assert!(
            len >= 1 && i % 64 + len <= 64,
            "bits {i}+{len} cross a word"
        );
        let mask = u64::MAX >> (64 - len) << (i % 64);
        let w = &mut self.words[i / 64];
        *w = *w & !mask | v << (i % 64) & mask;
    }

    /// The positions of `gate`'s pending-present and pending-target bits.
    #[inline]
    fn pending_bits(&self, gate: GateId) -> (usize, usize) {
        let present = 64 * self.value_words as usize + gate.index();
        (present, present + 64 * self.pending_words as usize)
    }

    /// The positions, for [`State::bit`] and [`State::set_bit`], of
    /// `net`'s value bit and of `gate`'s pending-present and
    /// pending-target bits.
    pub(crate) fn slot_bits(&self, net: NetId, gate: GateId) -> [usize; 3] {
        let (present, target) = self.pending_bits(gate);
        [net.index(), present, target]
    }

    /// The current value of `net`.
    #[inline]
    pub fn value(&self, net: NetId) -> bool {
        self.bit(net.index())
    }

    #[inline]
    pub(crate) fn set_value(&mut self, net: NetId, v: bool) {
        self.set_bit(net.index(), v);
    }

    /// The pending event of an edge-triggered `gate`: `Some(target)` when
    /// armed but not yet fired, `None` otherwise (and always `None` for
    /// level gates).
    #[inline]
    pub fn pending(&self, gate: GateId) -> Option<bool> {
        let (present, target) = self.pending_bits(gate);
        self.bit(present).then(|| self.bit(target))
    }

    #[inline]
    pub(crate) fn set_pending(&mut self, gate: GateId, p: Option<bool>) {
        let (present, target) = self.pending_bits(gate);
        // Keep the target bit canonical (zero when absent) so equal
        // states are bit-identical for `Eq`/`Hash`.
        self.set_bit(present, p.is_some());
        self.set_bit(target, p == Some(true));
    }

    /// Overwrites `self` with `other` without reallocating (the layouts
    /// must match — both came from the same explorer).
    pub(crate) fn copy_from(&mut self, other: &State) {
        self.words.copy_from_slice(&other.words);
        self.env = other.env;
    }
}

/// One enabled transition: a net taking a new value, caused by a gate
/// firing (`gate: Some`) or by the environment (`gate: None`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    /// The gate that fires, or `None` for an environment action.
    pub gate: Option<GateId>,
    /// The net that changes.
    pub net: NetId,
    /// Its new value.
    pub value: bool,
    /// The environment's control state after the transition (unchanged
    /// for gates).
    pub env_next: u8,
}

/// What an [`EnvModel`] observes of an explored state.
struct EnvView<'v> {
    state: &'v State,
    quiescent: bool,
}

impl NetView for EnvView<'_> {
    fn value(&self, net: NetId) -> bool {
        self.state.value(net)
    }

    fn quiescent(&self) -> bool {
        self.quiescent
    }
}

/// Outcome of one exploration.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// Deduplicated findings, in discovery order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of distinct states visited.
    pub states: usize,
    /// `false` if the state cap stopped the search early.
    pub exhaustive: bool,
}

/// Collects diagnostics deduplicated by `(rule, anchor)` so a hazard in a
/// tight protocol loop reports once, not once per reachable state.
struct Sink {
    diags: Vec<Diagnostic>,
    seen: HashSet<(&'static str, usize)>,
}

impl Sink {
    fn new() -> Self {
        Self {
            diags: Vec::new(),
            seen: HashSet::new(),
        }
    }

    fn push(&mut self, anchor: usize, d: Diagnostic) {
        if self.seen.insert((d.rule, anchor)) {
            self.diags.push(d);
        }
    }
}

/// Marks a free slot of a [`WordTable`].
const EMPTY: u32 = u32::MAX;

/// Fixed-width `u64` keys stored once each in one flat arena: key `i`
/// occupies `arena[i * stride..(i + 1) * stride]`, so indices are dense
/// in insertion order. Lookups go through an open-addressed table of
/// those indices (linear probing, power-of-two capacity, load ≤ ½),
/// rebuilt from the arena when it grows.
pub(crate) struct WordTable {
    stride: usize,
    arena: Vec<u64>,
    slots: Vec<u32>,
}

impl WordTable {
    /// An empty table of `stride`-word keys.
    pub(crate) fn new(stride: usize) -> Self {
        assert!(stride > 0, "keys span at least one word");
        Self {
            stride,
            arena: Vec::new(),
            slots: vec![EMPTY; 16],
        }
    }

    /// Number of stored keys.
    fn len(&self) -> usize {
        self.arena.len() / self.stride
    }

    /// The key stored at `index`.
    fn key(&self, index: usize) -> &[u64] {
        &self.arena[index * self.stride..(index + 1) * self.stride]
    }

    /// Looks `key` up: `Ok(index)` when stored, otherwise `Err(slot)`,
    /// the free slot for [`WordTable::insert_at`].
    pub(crate) fn find(&self, key: &[u64]) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut at = mix(key) as usize & mask;
        loop {
            match self.slots[at] {
                EMPTY => return Err(at),
                i if self.key(i as usize) == key => return Ok(i as usize),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Stores the absent `key` at the `slot` that [`WordTable::find`]
    /// just returned for it, and returns its index.
    pub(crate) fn insert_at(&mut self, slot: usize, key: &[u64]) -> usize {
        assert_eq!(key.len(), self.stride, "key width");
        assert_eq!(self.slots[slot], EMPTY, "insert_at needs a free slot");
        let index = self.len();
        self.slots[slot] = u32::try_from(index)
            .ok()
            .filter(|&i| i != EMPTY)
            .expect("table index fits in u32");
        self.arena.extend_from_slice(key);
        if 2 * self.len() > self.slots.len() {
            // The rehash reads only the arena, so the old table goes
            // before the doubled one is allocated: the two never coexist.
            let doubled = 2 * self.slots.len();
            self.slots = Vec::new();
            let mut slots = vec![EMPTY; doubled];
            let mask = slots.len() - 1;
            for (i, key) in (0u32..).zip(self.arena.chunks_exact(self.stride)) {
                let mut at = mix(key) as usize & mask;
                while slots[at] != EMPTY {
                    at = (at + 1) & mask;
                }
                slots[at] = i;
            }
            self.slots = slots;
        }
        index
    }
}

/// [`WordTable`]'s hash: a folded 64×64→128-bit multiply per word. It
/// is a fixed function with no random seed, so a run probes the same
/// slots every time.
fn mix(key: &[u64]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    key.iter().fold(K, |h, &w| {
        let p = u128::from(h ^ w) * u128::from(K);
        p as u64 ^ (p >> 64) as u64
    })
}

/// Where the env byte sits in a key word that packs it.
const ENV_SHIFT: u32 = 56;

/// Where a state's tag sits in the env word of an unpacked key: above
/// the env byte.
const TAG_SHIFT: u32 = 8;

/// Which bits of a state a [`StateStore`] key holds: the bits that can
/// vary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct KeyLayout {
    /// Leading state words kept: the net values, then both pending
    /// planes when the netlist has a `Toggle` or `Dff`, the only kinds
    /// [`Explorer::apply_into`] arms (otherwise the planes stay zero).
    kept: usize,
    /// `true` when the env byte rides in the top byte of the last kept
    /// word, which no bit of the state uses; otherwise it takes one more
    /// word, which also holds a `u32` tag above the env byte
    /// ([`Explorer::walk_unreduced`]).
    packed: bool,
}

impl KeyLayout {
    /// The layout for the states of `netlist`.
    fn of(netlist: &Netlist) -> Self {
        let edge_triggered = netlist
            .iter_gates()
            .any(|(_, g)| matches!(g.kind(), GateKind::Toggle | GateKind::Dff));
        let (nets, gates) = (netlist.net_count(), netlist.gate_count());
        // The last kept word ends the last plane kept, of `plane` bits,
        // and uses the low `(plane - 1) % 64 + 1` of its own.
        let (kept, plane) = if edge_triggered {
            (nets.div_ceil(64) + 2 * gates.div_ceil(64), gates)
        } else {
            (nets.div_ceil(64), nets)
        };
        Self {
            kept,
            packed: kept > 0 && (plane - 1) % 64 < ENV_SHIFT as usize,
        }
    }

    /// The key's width in words.
    fn words(self) -> usize {
        self.kept + usize::from(!self.packed)
    }
}

/// The explorer's visited states in a [`WordTable`], each keyed as its
/// [`KeyLayout`] says, with a `u32` tag that an unpacked key stores and
/// a packed one holds at 0. Keys are equal exactly when states and tags
/// are, because every bit a key drops is zero in every state.
struct StateStore {
    table: WordTable,
    layout: KeyLayout,
    /// Scratch: the key of the state being looked up or inserted.
    key: Vec<u64>,
}

impl StateStore {
    /// An empty store keyed by `layout`.
    fn new(layout: KeyLayout) -> Self {
        Self {
            table: WordTable::new(layout.words()),
            layout,
            key: vec![0; layout.words()],
        }
    }

    fn len(&self) -> usize {
        self.table.len()
    }

    /// Writes the key of `s` and `tag` into the scratch `key`.
    fn fill_key(&mut self, s: &State, tag: u32) {
        let KeyLayout { kept, packed } = self.layout;
        debug_assert!(
            s.words[kept..].iter().all(|&w| w == 0),
            "a pending bit is set in a netlist with no edge-triggered gate"
        );
        self.key[..kept].copy_from_slice(&s.words[..kept]);
        let env = u64::from(s.env);
        if packed {
            debug_assert_eq!(
                self.key[kept - 1] >> ENV_SHIFT,
                0,
                "a state bit in the env byte"
            );
            assert_eq!(tag, 0, "a tag in a packed key");
            self.key[kept - 1] |= env << ENV_SHIFT;
        } else {
            self.key[kept] = env | u64::from(tag) << TAG_SHIFT;
        }
    }

    /// Looks `s` tagged `tag` up: `Ok(index)` when stored, otherwise
    /// `Err(slot)` for [`StateStore::insert_at`].
    fn find(&mut self, s: &State, tag: u32) -> Result<usize, usize> {
        self.fill_key(s, tag);
        self.table.find(&self.key)
    }

    /// Stores the absent `s` tagged `tag` at the `slot` that
    /// [`StateStore::find`] just returned for them, and returns its index.
    fn insert_at(&mut self, slot: usize, s: &State, tag: u32) -> usize {
        self.fill_key(s, tag);
        self.table.insert_at(slot, &self.key)
    }

    /// Overwrites `s` with the state stored at `index` and returns its
    /// tag.
    fn load(&self, index: usize, s: &mut State) -> u32 {
        let KeyLayout { kept, packed } = self.layout;
        let key = self.table.key(index);
        s.words[..kept].copy_from_slice(&key[..kept]);
        s.words[kept..].fill(0);
        if packed {
            s.env = (key[kept - 1] >> ENV_SHIFT) as u8;
            s.words[kept - 1] &= (1 << ENV_SHIFT) - 1;
            0
        } else {
            s.env = key[kept] as u8;
            (key[kept] >> TAG_SHIFT) as u32
        }
    }
}

/// The state-graph explorer for one circuit + environment pair.
pub struct Explorer<'a> {
    netlist: &'a Netlist,
    env: &'a dyn EnvModel,
    initial: &'a [(NetId, bool)],
    state_cap: usize,
    pairs: Vec<RailPair>,
    /// Net index → index into `pairs`, for O(1) protocol checks.
    pair_of_net: Vec<Option<usize>>,
    /// Partial-order/symmetry reduction, when enabled and available.
    reduction: Option<ReductionEngine>,
    /// What the visited-state store keeps of each state.
    key: KeyLayout,
}

impl<'a> Explorer<'a> {
    /// Builds an explorer over `netlist` closed by `env`, with `initial`
    /// net-value overrides (constants are set automatically) and an exact
    /// cap on visited states.
    pub fn new(
        netlist: &'a Netlist,
        env: &'a dyn EnvModel,
        initial: &'a [(NetId, bool)],
        state_cap: usize,
    ) -> Self {
        let pairs = discover_rail_pairs(netlist);
        let mut pair_of_net = vec![None; netlist.net_count()];
        for (i, p) in pairs.iter().enumerate() {
            pair_of_net[p.t.index()] = Some(i);
            pair_of_net[p.f.index()] = Some(i);
        }
        Self {
            key: KeyLayout::of(netlist),
            netlist,
            env,
            initial,
            state_cap,
            pairs,
            pair_of_net,
            reduction: None,
        }
    }

    /// Enables partial-order and symmetry reduction, justified by the
    /// declared environment `footprint`. A no-op when the engine
    /// declines the circuit (see [`crate::reduce`]); exploration then
    /// proceeds unreduced. The reduced search visits a subset of the
    /// full state graph that preserves every `SI001`/`DR00x`/overrun
    /// verdict, so reports agree with the unreduced explorer on rules,
    /// cleanliness, and exhaustiveness — only the state count shrinks.
    pub fn with_reduction(mut self, footprint: &EnvFootprint) -> Self {
        self.reduction = ReductionEngine::build(self.netlist, self.initial, footprint);
        self
    }

    /// The netlist under analysis.
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// The `u64` words [`Explorer::explore`] stores per visited state:
    /// the net-value words, both pending planes only when the netlist has
    /// an edge-triggered gate, and the env byte packed into the last of
    /// those when its top byte is free, else in one more word
    /// ([`Explorer::walk_unreduced`] always takes that word, for its
    /// tags).
    pub fn key_words(&self) -> usize {
        self.key.words()
    }

    /// The initial state: all nets low except constants-1 and the
    /// explicit overrides; nothing pending; the environment in its
    /// initial control state.
    pub fn initial_state(&self) -> State {
        let mut s = State::empty(
            self.netlist.net_count(),
            self.netlist.gate_count(),
            self.env.initial(),
        );
        for (_, g) in self.netlist.iter_gates() {
            if g.kind() == GateKind::Const1 {
                s.set_value(g.output(), true);
            }
        }
        for &(net, v) in self.initial {
            s.set_value(net, v);
        }
        s
    }

    fn eval_gate(&self, gate: GateId, s: &State) -> bool {
        let g = self.netlist.gate_ref(gate);
        g.kind()
            .eval_map(g.inputs(), |n| s.value(n), s.value(g.output()))
    }

    /// Lists the enabled internal transitions of `s` into `out`: excited
    /// level gates and armed edge-triggered gates, in gate order
    /// (deterministic). Also refills `level` with one bit per gate, set
    /// for each excited *level* gate: the only gates whose output
    /// persistence another firing can violate. The search loops reuse
    /// both buffers for a whole run.
    pub fn internal_enabled_into(
        &self,
        s: &State,
        out: &mut Vec<Transition>,
        level: &mut Vec<u64>,
    ) {
        out.clear();
        level.clear();
        level.resize(self.netlist.gate_count().div_ceil(64), 0);
        for (gid, g) in self.netlist.iter_gates() {
            if g.kind().is_source() {
                continue;
            }
            if matches!(g.kind(), GateKind::Toggle | GateKind::Dff) {
                if let Some(target) = s.pending(gid) {
                    out.push(Transition {
                        gate: Some(gid),
                        net: g.output(),
                        value: target,
                        env_next: s.env,
                    });
                }
            } else {
                let cur = s.value(g.output());
                let target = g.kind().eval_map(g.inputs(), |n| s.value(n), cur);
                if target != cur {
                    level[gid.index() / 64] |= 1 << (gid.index() % 64);
                    out.push(Transition {
                        gate: Some(gid),
                        net: g.output(),
                        value: target,
                        env_next: s.env,
                    });
                }
            }
        }
    }

    /// Enabled environment transitions into `out` (`quiescent` is
    /// precomputed by the caller from [`Explorer::internal_enabled_into`]),
    /// stepping the environment into the caller's `actions` buffer.
    pub(crate) fn env_enabled_into(
        &self,
        s: &State,
        quiescent: bool,
        actions: &mut Vec<EnvAction>,
        out: &mut Vec<Transition>,
    ) {
        actions.clear();
        out.clear();
        let view = EnvView {
            state: s,
            quiescent,
        };
        self.env.step(s.env, &view, actions);
        out.extend(
            actions
                .iter()
                .filter(|a| s.value(a.net) != a.value)
                .map(|a| Transition {
                    gate: None,
                    net: a.net,
                    value: a.value,
                    env_next: a.next,
                }),
        );
    }

    /// Fires `t` in `s`, writing the successor into `next` (a state of
    /// this explorer's shape, such as a clone of `s`) and the
    /// edge-triggered gates that **overran** (received an arming edge
    /// while an event was still pending — a lost event) into `overruns`.
    /// The search loops reuse one successor and one overrun list for a
    /// whole run.
    pub fn apply_into(
        &self,
        s: &State,
        t: &Transition,
        next: &mut State,
        overruns: &mut Vec<GateId>,
    ) {
        next.copy_from(s);
        overruns.clear();
        next.set_value(t.net, t.value);
        next.env = t.env_next;
        if let Some(g) = t.gate {
            if matches!(
                self.netlist.gate_ref(g).kind(),
                GateKind::Toggle | GateKind::Dff
            ) {
                next.set_pending(g, None);
            }
        }
        for &h in self.netlist.fanout(t.net) {
            let gate = self.netlist.gate_ref(h);
            match gate.kind() {
                // Toggle arms on a rising edge of its (only) input; two
                // arming edges before a fire cancel out — and lose an
                // event, which the caller reports.
                GateKind::Toggle if gate.inputs()[0] == t.net && t.value => {
                    if next.pending(h).is_some() {
                        overruns.push(h);
                        next.set_pending(h, None);
                    } else {
                        let cur = next.value(gate.output());
                        next.set_pending(h, Some(!cur));
                    }
                }
                // Dff captures `d` on the rising clock edge; a recapture
                // supersedes an unfired one (last edge wins).
                GateKind::Dff if gate.inputs()[0] == t.net && t.value => {
                    let d = next.value(gate.inputs()[1]);
                    let cur = next.value(gate.output());
                    next.set_pending(h, if d != cur { Some(d) } else { None });
                }
                _ => {}
            }
        }
    }

    fn pair_levels(&self, s: &State, p: &RailPair) -> (bool, bool) {
        (s.value(p.t), s.value(p.f))
    }

    /// Explores every reachable state, checking output persistence and
    /// the dual-rail protocol. The state bound is exact (at most
    /// `state_cap` states are ever recorded); hitting it yields an
    /// `XPL001` note and `exhaustive = false`.
    pub fn explore(&self) -> ExploreOutcome {
        self.explore_impl(None)
    }

    /// [`Explorer::explore`] with telemetry: the outcome plus a bundle
    /// recording states popped, transitions applied, the BFS frontier
    /// depth distribution and high-water mark, final arena occupancy and
    /// the diagnostic count. The exploration itself is unchanged — the
    /// outcome is identical to an unobserved run.
    pub fn explore_with_telemetry(&self) -> (ExploreOutcome, Telemetry) {
        let mut t = Telemetry::new();
        let outcome = self.explore_impl(Some(&mut t));
        (outcome, t)
    }

    /// Breadth-first walk of the **unreduced** reachable graph, checking
    /// no rule, with a deterministic observer. Each stored state carries
    /// a `u32` tag, 0 for the initial state: `observe(tag, t)` returns
    /// the tag of the successor along `t` of a state tagged `tag`, or
    /// `None` to drop that successor, and a state reached under two tags
    /// is stored twice. Calls `visit` with every stored state, in
    /// discovery order, and its enabled internal and environment
    /// transitions. At most `state_cap` states are stored (the initial
    /// state always is). Returns the number of states visited and
    /// whether the walk was exhaustive (`false` when the cap left a
    /// successor out), or `visit`'s first error.
    pub fn walk_unreduced<E>(
        &self,
        mut visit: impl FnMut(&State, &[Transition], &[Transition]) -> Result<(), E>,
        mut observe: impl FnMut(u32, &Transition) -> Option<u32>,
    ) -> Result<(usize, bool), E> {
        let mut current = self.initial_state();
        // The tag needs the unpacked key's env word.
        let mut store = StateStore::new(KeyLayout {
            packed: false,
            ..self.key
        });
        let slot = store.find(&current, 0).expect_err("the store starts empty");
        store.insert_at(slot, &current, 0);
        let mut next = current.clone();
        let mut internal: Vec<Transition> = Vec::new();
        let mut actions: Vec<EnvAction> = Vec::new();
        let mut env: Vec<Transition> = Vec::new();
        let mut overruns: Vec<GateId> = Vec::new();
        let mut level: Vec<u64> = Vec::new();
        let mut exhaustive = true;
        let mut popped = 0usize;
        while popped < store.len() {
            let tag = store.load(popped, &mut current);
            popped += 1;
            self.internal_enabled_into(&current, &mut internal, &mut level);
            self.env_enabled_into(&current, internal.is_empty(), &mut actions, &mut env);
            visit(&current, &internal, &env)?;
            for t in internal.iter().chain(&env) {
                let Some(next_tag) = observe(tag, t) else {
                    continue;
                };
                self.apply_into(&current, t, &mut next, &mut overruns);
                if let Err(slot) = store.find(&next, next_tag) {
                    if store.len() < self.state_cap {
                        store.insert_at(slot, &next, next_tag);
                    } else {
                        exhaustive = false;
                    }
                }
            }
        }
        Ok((popped, exhaustive))
    }

    fn explore_impl(&self, telemetry: Option<&mut Telemetry>) -> ExploreOutcome {
        // Pre-registered handles so the BFS loop's obs cost is one
        // `Option` check plus array adds.
        struct ExpObs<'t> {
            t: &'t mut Telemetry,
            pops: CounterId,
            transitions: CounterId,
            frontier: HistogramId,
            frontier_high: GaugeId,
        }
        let mut obs = telemetry.map(|t| {
            let pops = t.metrics.counter("verify.states_popped");
            let transitions = t.metrics.counter("verify.transitions_applied");
            let frontier = t
                .metrics
                .histogram("verify.frontier.depth", &pow2_bounds(24));
            let frontier_high = t.metrics.gauge("verify.frontier.high_water");
            ExpObs {
                t,
                pops,
                transitions,
                frontier,
                frontier_high,
            }
        });

        let mut sink = Sink::new();
        let mut initial = self.initial_state();
        let mut store = StateStore::new(self.key);
        let mut capped = self.state_cap == 0;

        // Reduction machinery: the engine (if enabled and accepted),
        // its scratch, and local counters flushed to telemetry once.
        let engine = self.reduction.as_ref();
        let mut rsc: Option<ReduceScratch> = engine.map(|e| e.scratch());
        let mut reduced_states = 0u64;
        let mut proviso_expansions = 0u64;
        let mut skipped_transitions = 0u64;
        let mut canonical_rewrites = 0u64;

        if !capped {
            if let (Some(e), Some(sc)) = (engine, rsc.as_mut()) {
                e.canonicalize(sc, &mut initial);
            }
            self.check_pair_invariants(None, &initial, &mut sink);
            let slot = store.find(&initial, 0).expect_err("the store starts empty");
            store.insert_at(slot, &initial, 0);
        }

        // Scratch buffers reused across the whole search: the popped
        // state (copied out of the arena so successors can be stored
        // while it is read), the successor, the transition lists and the
        // environment's actions, the excited level gates and the gates a
        // firing may disable.
        let mut current = initial.clone();
        let mut next = initial;
        let mut internal: Vec<Transition> = Vec::new();
        let mut actions: Vec<EnvAction> = Vec::new();
        let mut env: Vec<Transition> = Vec::new();
        let mut overruns: Vec<GateId> = Vec::new();
        let mut level: Vec<u64> = Vec::new();
        let mut touched: Vec<GateId> = Vec::new();

        // States are stored in discovery order, so the BFS frontier is
        // the index range `popped..store.len()`.
        let mut popped = 0usize;
        'bfs: while popped < store.len() {
            store.load(popped, &mut current);
            popped += 1;
            if let Some(o) = obs.as_mut() {
                o.t.metrics.inc(o.pops, 1);
                let depth = (store.len() - popped) as f64;
                o.t.metrics.observe(o.frontier, depth);
                o.t.metrics.raise_gauge(o.frontier_high, depth);
            }
            let s = &current;
            self.internal_enabled_into(s, &mut internal, &mut level);
            self.env_enabled_into(s, internal.is_empty(), &mut actions, &mut env);

            // Choose the transitions to fire: a stubborn subset when the
            // engine finds one, everything otherwise.
            let use_mask = match (engine, rsc.as_mut()) {
                (Some(e), Some(sc)) => e.select(self.netlist, sc, s, &internal, &env),
                _ => false,
            };
            if use_mask {
                reduced_states += 1;
            }

            // Pass 0 fires the chosen set; pass 1 (reduction only) fires
            // the deferred remainder when no chosen transition reached a
            // new state — the BFS ignoring-proviso, which guarantees no
            // transition is postponed around a cycle forever.
            let mut fresh = false;
            let mut applied = 0u64;
            for pass in 0..2u8 {
                for (i, t) in internal.iter().chain(env.iter()).enumerate() {
                    let chosen = !use_mask || rsc.as_ref().expect("mask set").mask[i];
                    if chosen != (pass == 0) {
                        continue;
                    }
                    applied += 1;
                    if let Some(o) = obs.as_mut() {
                        o.t.metrics.inc(o.transitions, 1);
                    }
                    self.apply_into(s, t, &mut next, &mut overruns);
                    for &h in &overruns {
                        let out = self.netlist.gate_ref(h).output();
                        sink.push(
                            h.index(),
                            Diagnostic::new(
                                "SI001",
                                Severity::Error,
                                format!(
                                    "edge-triggered gate {h} ('{}') received a second arming \
                                     edge before firing — an event was lost",
                                    self.netlist.net_name(out)
                                ),
                            )
                            .at_gate(h)
                            .at_net(out),
                        );
                    }
                    // Persistence: the firing changes only `t.net`'s
                    // value (pending bits are not read by level gates),
                    // so only an excited level gate reading `t.net` can
                    // lose its excitation. (An excited gate's target
                    // does not depend on its own output, so a second
                    // driver of that output cannot disable it either.)
                    // Pending edge-triggered events
                    // survive anything but their own fire (overruns are
                    // flagged above). Every such gate is checked, also a
                    // deferred one, so a reduced run still sees every
                    // disabling the chosen transitions can cause. Sorted,
                    // they come in `internal`'s gate order, which fixes
                    // the order diagnostics are found in.
                    touched.clear();
                    touched.extend(self.netlist.fanout(t.net).iter().filter(|&&h| {
                        t.gate != Some(h) && level[h.index() / 64] >> (h.index() % 64) & 1 == 1
                    }));
                    touched.sort_unstable();
                    touched.dedup();
                    for &g in &touched {
                        let out = self.netlist.gate_ref(g).output();
                        let target = !s.value(out);
                        if self.eval_gate(g, &next) != target {
                            sink.push(
                                g.index(),
                                Diagnostic::new(
                                    "SI001",
                                    Severity::Error,
                                    format!(
                                        "gate {g} ('{}') excited to {} was disabled by {} \
                                         ('{}') firing — output persistence violated (hazard)",
                                        self.netlist.net_name(out),
                                        u8::from(target),
                                        t.gate
                                            .map(|x| x.to_string())
                                            .unwrap_or_else(|| "the environment".to_owned()),
                                        self.netlist.net_name(t.net),
                                    ),
                                )
                                .at_gate(g)
                                .at_net(out),
                            );
                        }
                    }
                    self.check_pair_invariants(Some((s, t.net)), &next, &mut sink);
                    // All checks ran on the raw successor; store its
                    // canonical representative.
                    if let (Some(e), Some(sc)) = (engine, rsc.as_mut()) {
                        if e.canonicalize(sc, &mut next) {
                            canonical_rewrites += 1;
                        }
                    }
                    if let Err(slot) = store.find(&next, 0) {
                        if store.len() >= self.state_cap {
                            capped = true;
                            break 'bfs;
                        }
                        store.insert_at(slot, &next, 0);
                        fresh = true;
                    }
                }
                if pass == 0 {
                    if !use_mask || fresh {
                        break;
                    }
                    proviso_expansions += 1;
                }
            }
            skipped_transitions += (internal.len() + env.len()) as u64 - applied;
        }

        if capped {
            sink.push(
                usize::MAX,
                Diagnostic::new(
                    "XPL001",
                    Severity::Info,
                    format!(
                        "state-graph exploration capped at {} states — results are partial",
                        self.state_cap
                    ),
                ),
            );
        }
        if let Some(o) = obs.as_mut() {
            let arena = o.t.metrics.gauge("verify.arena.states");
            o.t.metrics.set_gauge(arena, store.len() as f64);
            let diags = o.t.metrics.counter("verify.diagnostics");
            o.t.metrics.inc(diags, sink.diags.len() as u64);
            if let Some(sc) = &rsc {
                let c = o.t.metrics.counter("verify.reduce.reduced_states");
                o.t.metrics.inc(c, reduced_states);
                let c = o.t.metrics.counter("verify.reduce.proviso_expansions");
                o.t.metrics.inc(c, proviso_expansions);
                let c = o.t.metrics.counter("verify.reduce.skipped_transitions");
                o.t.metrics.inc(c, skipped_transitions);
                let c = o.t.metrics.counter("verify.reduce.select_cache_hits");
                o.t.metrics.inc(c, sc.cache_hits);
                let c = o.t.metrics.counter("verify.reduce.select_cache_misses");
                o.t.metrics.inc(c, sc.cache_misses);
                let c = o.t.metrics.counter("verify.reduce.canonical_rewrites");
                o.t.metrics.inc(c, canonical_rewrites);
            }
        }
        ExploreOutcome {
            diagnostics: sink.diags,
            states: store.len(),
            exhaustive: !capped,
        }
    }

    /// Dual-rail invariants for the pair touched by the transition into
    /// `next` (or every pair, for the initial state).
    fn check_pair_invariants(&self, step: Option<(&State, NetId)>, next: &State, sink: &mut Sink) {
        let check_one = |i: usize, sink: &mut Sink| {
            let p = &self.pairs[i];
            let (t, f) = self.pair_levels(next, p);
            if t && f {
                sink.push(
                    p.t.index(),
                    Diagnostic::new(
                        "DR001",
                        Severity::Error,
                        format!(
                            "both rails of dual-rail signal '{}' are asserted in a \
                             reachable state (illegal codeword)",
                            p.name
                        ),
                    )
                    .at_net(p.t),
                );
            }
            if let Some((prev, _)) = step {
                let (pt, pf) = self.pair_levels(prev, p);
                if (pt ^ pf) && t && f {
                    sink.push(
                        p.f.index(),
                        Diagnostic::new(
                            "DR002",
                            Severity::Error,
                            format!(
                                "dual-rail signal '{}' left a valid codeword without \
                                 returning to the spacer (return-to-zero violated)",
                                p.name
                            ),
                        )
                        .at_net(p.f),
                    );
                }
            }
        };
        match step {
            Some((_, net)) => {
                if let Some(i) = self.pair_of_net[net.index()] {
                    check_one(i, sink);
                }
            }
            None => {
                for i in 0..self.pairs.len() {
                    check_one(i, sink);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;
    use std::convert::Infallible;

    use super::*;
    use crate::env::act;
    use emc_netlist::GateKind;

    /// `y = a AND (NOT a)` — the textbook static-1 hazard: firing the
    /// inverter disables the excited AND.
    fn glitch_circuit() -> (Netlist, NetId) {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let inv = nl.gate(GateKind::Inv, &[a], "na");
        let y = nl.gate(GateKind::And, &[a, inv], "y");
        nl.mark_output(y);
        (nl, a)
    }

    /// An environment that flips `net` whenever it likes.
    fn flip_env(net: NetId) -> impl EnvModel {
        move |_: u8, v: &dyn NetView, out: &mut Vec<EnvAction>| out.push(act(net, !v.value(net)))
    }

    /// An environment that never acts.
    fn inert(_: u8, _: &dyn NetView, _: &mut Vec<EnvAction>) {}

    #[test]
    fn persistence_violation_detected() {
        let (nl, a) = glitch_circuit();
        let env = flip_env(a);
        let ex = Explorer::new(&nl, &env, &[], 1000);
        let out = ex.explore();
        assert!(out.exhaustive);
        assert!(
            out.diagnostics.iter().any(|d| d.rule == "SI001"),
            "{:?}",
            out.diagnostics
        );
    }

    #[test]
    fn c_element_rendezvous_is_persistent() {
        // c = C(a, b) with a well-behaved 4-phase environment: no rule
        // fires and the handshake state space is tiny.
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let c = nl.gate(GateKind::CElement, &[a, b], "c");
        nl.mark_output(c);
        let env = move |_: u8, v: &dyn NetView, out: &mut Vec<EnvAction>| {
            // Each input follows the C output: rise when both low, fall
            // when both high.
            out.extend(
                [a, b]
                    .into_iter()
                    .filter(|&net| v.value(net) == v.value(c))
                    .map(|net| act(net, !v.value(net))),
            );
        };
        let ex = Explorer::new(&nl, &env, &[], 1000);
        let out = ex.explore();
        assert!(out.exhaustive);
        assert_eq!(out.diagnostics, Vec::new());
        assert!(out.states >= 8, "4-phase over two inputs: {}", out.states);
    }

    #[test]
    fn both_rails_high_detected() {
        let mut nl = Netlist::new();
        let req = nl.input("req");
        let t = nl.gate(GateKind::Buf, &[req], "x.t");
        let f = nl.gate(GateKind::Buf, &[req], "x.f");
        nl.mark_output(t);
        nl.mark_output(f);
        let env = flip_env(req);
        let ex = Explorer::new(&nl, &env, &[], 1000);
        let out = ex.explore();
        let rules: Vec<&str> = out.diagnostics.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"DR001"), "{rules:?}");
        assert!(rules.contains(&"DR002"), "{rules:?}");
    }

    #[test]
    fn toggle_overrun_detected_under_free_running_input() {
        // A free-running pulse may re-arm the toggle before it fires —
        // exactly the timing assumption a ripple stage hides.
        let mut nl = Netlist::new();
        let p = nl.input("p");
        let q = nl.gate(GateKind::Toggle, &[p], "q");
        nl.mark_output(q);
        let env = flip_env(p);
        let ex = Explorer::new(&nl, &env, &[], 1000);
        let out = ex.explore();
        assert!(
            out.diagnostics.iter().any(|d| d.rule == "SI001"),
            "{:?}",
            out.diagnostics
        );
    }

    #[test]
    fn toggle_with_completion_aware_env_is_clean() {
        let mut nl = Netlist::new();
        let p = nl.input("p");
        let q = nl.gate(GateKind::Toggle, &[p], "q");
        nl.mark_output(q);
        let env = move |_: u8, v: &dyn NetView, out: &mut Vec<EnvAction>| {
            if v.quiescent() {
                out.push(act(p, !v.value(p)));
            }
        };
        let ex = Explorer::new(&nl, &env, &[], 1000);
        let out = ex.explore();
        assert!(out.exhaustive);
        assert_eq!(out.diagnostics, Vec::new());
    }

    #[test]
    fn telemetry_matches_outcome_and_leaves_it_unchanged() {
        let (nl, a) = glitch_circuit();
        let env = flip_env(a);
        let ex = Explorer::new(&nl, &env, &[], 1000);
        let plain = ex.explore();
        let (observed, t) = ex.explore_with_telemetry();
        assert_eq!(plain.states, observed.states);
        assert_eq!(plain.diagnostics, observed.diagnostics);
        assert_eq!(
            t.metrics.counter_value("verify.states_popped"),
            Some(plain.states as u64)
        );
        assert_eq!(
            t.metrics.gauge_value("verify.arena.states"),
            Some(plain.states as f64)
        );
        assert_eq!(
            t.metrics.counter_value("verify.diagnostics"),
            Some(plain.diagnostics.len() as u64)
        );
        assert!(
            t.metrics
                .counter_value("verify.transitions_applied")
                .unwrap()
                > 0
        );
    }

    #[test]
    fn state_cap_is_exact_and_noted() {
        let (nl, a) = glitch_circuit();
        let env = flip_env(a);
        let ex = Explorer::new(&nl, &env, &[], 2);
        let out = ex.explore();
        assert!(!out.exhaustive);
        assert!(out.states <= 2);
        assert!(out.diagnostics.iter().any(|d| d.rule == "XPL001"));
    }

    #[test]
    fn constants_initialised() {
        let mut nl = Netlist::new();
        let one = nl.constant(true, "one");
        let zero = nl.constant(false, "zero");
        let y = nl.gate(GateKind::And, &[one, zero], "y");
        nl.mark_output(y);
        let ex = Explorer::new(&nl, &inert, &[], 100);
        let s = ex.initial_state();
        assert!(s.value(one));
        assert!(!s.value(zero));
        assert!(!s.value(y));
        let out = ex.explore();
        assert!(out.exhaustive);
        assert_eq!(out.diagnostics, Vec::new());
    }

    /// The three key layouts: 69 inputs and a toggle (70 nets and 70
    /// gates, so every plane spans two words and the planes stay),
    /// 30 inputs (the env byte packs into the one value word) and 64
    /// inputs (the value word is full, so the env byte takes a second).
    fn layout_netlists() -> [(Netlist, KeyLayout); 3] {
        let inputs = |n: usize| {
            let mut nl = Netlist::new();
            for i in 0..n {
                nl.input(&format!("n{i}"));
            }
            nl
        };
        let mut toggled = inputs(69);
        let n0 = toggled.net_id(0);
        toggled.gate(GateKind::Toggle, &[n0], "q");
        [
            (
                toggled,
                KeyLayout {
                    kept: 6,
                    packed: true,
                },
            ),
            (
                inputs(30),
                KeyLayout {
                    kept: 1,
                    packed: true,
                },
            ),
            (
                inputs(64),
                KeyLayout {
                    kept: 1,
                    packed: false,
                },
            ),
        ]
    }

    #[test]
    fn state_store_agrees_with_a_hash_set() {
        let layouts = layout_netlists().into_iter().zip([(6, 7), (1, 2), (2, 2)]);
        for ((nl, layout), (words, unpacked_words)) in layouts {
            let ex = Explorer::new(&nl, &inert, &[], 10);
            assert_eq!(ex.key, layout, "{} nets", nl.net_count());
            assert_eq!(ex.key_words(), words, "{} nets", nl.net_count());
            let pending = layout.kept > nl.net_count().div_ceil(64);
            // Each layout keys states as `explore` does, untagged, then
            // unpacked with tags, as `walk_unreduced` does.
            for tagged in [false, true] {
                let layout = KeyLayout {
                    packed: layout.packed && !tagged,
                    ..layout
                };
                // State `k`'s bits come from an xorshift seeded by `k / 9`
                // (`k / 3` untagged), its env byte from `k % 3` and its
                // tag from `k / 3 % 3` (0 untagged), so some states differ
                // only in env and, tagged, some only in tag; the env bytes
                // reach 255 and the tags `u32::MAX`. Pending events are
                // drawn only where the layout keeps their planes.
                let state_of = |k: u64| {
                    let seed = if tagged { k / 9 } else { k / 3 };
                    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
                    let mut bit = || {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x & 1 == 1
                    };
                    let mut s = ex.initial_state();
                    for n in nl.iter_nets() {
                        s.set_value(n, bit());
                    }
                    if pending {
                        for i in 0..nl.gate_count() {
                            let p = if bit() { Some(bit()) } else { None };
                            s.set_pending(nl.gate_id(i), p);
                        }
                    }
                    s.env = [0, 128, 255][(k % 3) as usize];
                    let tag = if tagged {
                        [0, 1, u32::MAX][(k / 3 % 3) as usize]
                    } else {
                        0
                    };
                    (s, tag)
                };

                let mut store = StateStore::new(layout);
                assert_eq!(store.key.len(), if tagged { unpacked_words } else { words });
                let mut seen: HashSet<(State, u32)> = HashSet::new();
                let mut order: Vec<(State, u32)> = Vec::new();
                // Draws repeat, so both lookup outcomes are exercised.
                for draw in 0..6_000u64 {
                    let st = state_of(draw * 7_919 % 3_001);
                    match store.find(&st.0, st.1) {
                        Ok(i) => {
                            assert!(seen.contains(&st), "draw {draw}: found an absent state");
                            assert_eq!(order[i], st, "draw {draw}: found at the wrong index");
                        }
                        Err(slot) => {
                            assert!(
                                seen.insert(st.clone()),
                                "draw {draw}: missed a stored state"
                            );
                            let index = store.insert_at(slot, &st.0, st.1);
                            assert_eq!(index, order.len(), "indices are dense");
                            order.push(st);
                        }
                    }
                    assert_eq!(store.len(), order.len());
                }
                assert!(order.len() > 2_000, "{} distinct states", order.len());
                let untagged: HashSet<&State> = order.iter().map(|(s, _)| s).collect();
                assert_eq!(
                    untagged.len() < order.len(),
                    tagged,
                    "states that differ only in their tag are stored apart"
                );
                assert!(
                    store.table.slots.len() >= 16 << 3,
                    "at least three table growths"
                );
                let mut loaded = ex.initial_state();
                for (i, (s, tag)) in order.iter().enumerate() {
                    assert_eq!(store.load(i, &mut loaded), *tag, "index {i}");
                    assert_eq!(&loaded, s, "index {i}");
                }
            }
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "no edge-triggered gate")]
    fn a_dropped_pending_bit_is_caught() {
        let [_, (nl, layout), _] = layout_netlists();
        let ex = Explorer::new(&nl, &inert, &[], 10);
        let mut s = ex.initial_state();
        s.set_pending(nl.gate_id(3), Some(true));
        let _ = StateStore::new(layout).find(&s, 0);
    }

    /// The reference for [`Explorer::walk_unreduced`]: a breadth-first
    /// search over a `HashSet` of (state, tag) pairs that stores at most
    /// `cap` of them. Returns the visited states in order and whether
    /// the search was exhaustive.
    fn reference_walk(
        ex: &Explorer<'_>,
        cap: usize,
        mut observe: impl FnMut(u32, &Transition) -> Option<u32>,
    ) -> (Vec<State>, bool) {
        let start = (ex.initial_state(), 0);
        let mut seen: HashSet<(State, u32)> = HashSet::from([start.clone()]);
        let mut queue = VecDeque::from([start]);
        let mut visited = Vec::new();
        let mut exhaustive = true;
        while let Some((s, tag)) = queue.pop_front() {
            let mut internal = Vec::new();
            ex.internal_enabled_into(&s, &mut internal, &mut Vec::new());
            let mut env = Vec::new();
            ex.env_enabled_into(&s, internal.is_empty(), &mut Vec::new(), &mut env);
            for t in internal.iter().chain(&env) {
                let Some(next_tag) = observe(tag, t) else {
                    continue;
                };
                let mut next = (s.clone(), next_tag);
                ex.apply_into(&s, t, &mut next.0, &mut Vec::new());
                if !seen.contains(&next) {
                    if seen.len() < cap {
                        seen.insert(next.clone());
                        queue.push_back(next);
                    } else {
                        exhaustive = false;
                    }
                }
            }
            visited.push(s);
        }
        (visited, exhaustive)
    }

    #[test]
    fn walk_unreduced_agrees_with_a_reference_bfs() {
        // c = C(a, b) under the rendezvous environment. The observer's
        // tag is the parity of the rising edges so far, and it drops
        // every b+ at odd parity.
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let c = nl.gate(GateKind::CElement, &[a, b], "c");
        nl.mark_output(c);
        let env = move |_: u8, v: &dyn NetView, out: &mut Vec<EnvAction>| {
            out.extend(
                [a, b]
                    .into_iter()
                    .filter(|&net| v.value(net) == v.value(c))
                    .map(|net| act(net, !v.value(net))),
            );
        };
        let observe = |tag: u32, t: &Transition| {
            (!(t.net == b && t.value && tag == 1)).then_some(tag ^ u32::from(t.value))
        };
        for cap in [1_000, 5] {
            let ex = Explorer::new(&nl, &env, &[], cap);
            let mut want_calls = Vec::new();
            let (want, want_exhaustive) = reference_walk(&ex, cap, |tag, t| {
                want_calls.push((tag, t.clone()));
                observe(tag, t)
            });
            let mut got = Vec::new();
            let mut got_calls = Vec::new();
            let Ok((visited, exhaustive)) = ex.walk_unreduced(
                |s, _, _| {
                    got.push(s.clone());
                    Ok::<_, Infallible>(())
                },
                |tag, t| {
                    got_calls.push((tag, t.clone()));
                    observe(tag, t)
                },
            );
            assert_eq!(visited, want.len(), "cap {cap}: visit count");
            assert_eq!(got, want, "cap {cap}: visit order");
            assert_eq!(got_calls, want_calls, "cap {cap}: observed tags");
            assert_eq!(exhaustive, want_exhaustive, "cap {cap}: exhaustiveness");
            assert_eq!(exhaustive, cap == 1_000, "cap {cap}");
            if exhaustive {
                // Not vacuous: some state is stored under both tags, and
                // some successor is dropped.
                let distinct: HashSet<&State> = got.iter().collect();
                assert!(distinct.len() < visited, "{} of {visited}", distinct.len());
                assert!(got_calls.iter().any(|(tag, t)| observe(*tag, t).is_none()));
            }
        }
    }

    #[test]
    fn packed_state_accessors_round_trip() {
        // 70 nets / 70 gates straddle the word boundary on every plane.
        let mut nl = Netlist::new();
        let mut nets = Vec::new();
        for i in 0..70 {
            nets.push(nl.input(&format!("n{i}")));
        }
        let ex = Explorer::new(&nl, &inert, &[], 10);
        let mut s = ex.initial_state();
        for (i, &n) in nets.iter().enumerate() {
            assert!(!s.value(n));
            s.set_value(n, i % 3 == 0);
        }
        for (i, &n) in nets.iter().enumerate() {
            assert_eq!(s.value(n), i % 3 == 0, "net {i}");
        }
        for i in 0..70 {
            let g = nl.gate_id(i);
            assert_eq!(s.pending(g), None);
            let p = match i % 3 {
                0 => Some(true),
                1 => Some(false),
                _ => None,
            };
            s.set_pending(g, p);
            assert_eq!(s.pending(g), p, "gate {i}");
        }
        // Clearing a Some(true) pending must restore bit-identity with a
        // state that never had it (canonical target plane).
        let mut a = ex.initial_state();
        let b = ex.initial_state();
        a.set_pending(nl.gate_id(65), Some(true));
        a.set_pending(nl.gate_id(65), None);
        assert_eq!(a, b);
    }
}
