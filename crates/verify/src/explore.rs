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
//! ([`WordTable`]). The visited set is that table and the BFS frontier is
//! the range of arena indices not yet expanded, so no state is ever boxed
//! on its own.
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

use std::borrow::Cow;
use std::collections::HashSet;

use emc_analyze::{discover_rail_pairs, RailPair};
use emc_netlist::{Diagnostic, GateId, GateKind, NetId, Netlist, Severity};
use emc_obs::metrics::pow2_bounds;
use emc_obs::{CounterId, GaugeId, HistogramId, Telemetry};

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
    /// Environment control state (phase of its protocol machine).
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
    /// Environment state after the transition (unchanged for gates).
    pub env_next: u8,
}

/// One environment action: drive `net` to `value`, move to state `next`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvAction {
    /// The input net to drive (must be an `Input` gate's output).
    pub net: NetId,
    /// The level to drive it to (actions restating the current level are
    /// ignored).
    pub value: bool,
    /// The environment state after the action.
    pub next: u8,
}

/// What the environment closure may observe of the current state.
pub struct EnvView<'v> {
    state: &'v State,
    quiescent: bool,
}

impl EnvView<'_> {
    /// The current value of `net`.
    pub fn value(&self, net: NetId) -> bool {
        self.state.value(net)
    }

    /// `true` when no internal gate is excited or pending — the circuit
    /// has settled. Environments gated on this model *fundamental-mode*
    /// (or bundling-discipline) operation; fully speed-independent
    /// environments never need it.
    pub fn quiescent(&self) -> bool {
        self.quiescent
    }
}

/// The environment half of a closed system: an explicit-state protocol
/// machine offering input actions as a function of its state and the
/// visible net values.
pub struct Environment<'a> {
    /// Initial control state.
    pub initial: u8,
    /// Enabled actions in a given state. Must be deterministic in its
    /// arguments (same state ⇒ same action list) for reproducible
    /// exploration.
    pub step: StepFn<'a>,
}

/// The step closure of an [`Environment`].
pub type StepFn<'a> = Box<dyn Fn(u8, &EnvView<'_>) -> Vec<EnvAction> + Sync + 'a>;

impl Environment<'_> {
    /// An environment that never acts (for closed or structural-only
    /// circuits).
    pub fn inert() -> Self {
        Environment {
            initial: 0,
            step: Box::new(|_, _| Vec::new()),
        }
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
            let mut slots = vec![EMPTY; 2 * self.slots.len()];
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

/// The explorer's visited states in a [`WordTable`], each keyed by its
/// words followed by its env byte.
struct StateStore {
    table: WordTable,
    /// Scratch: the key of the state being looked up or inserted.
    key: Vec<u64>,
}

impl StateStore {
    /// An empty store for states of `words` words.
    fn new(words: usize) -> Self {
        Self {
            table: WordTable::new(words + 1),
            key: vec![0; words + 1],
        }
    }

    fn len(&self) -> usize {
        self.table.len()
    }

    fn fill_key(&mut self, s: &State) {
        let (words, env) = self.key.split_at_mut(s.words.len());
        words.copy_from_slice(&s.words);
        env[0] = u64::from(s.env);
    }

    /// Looks `s` up: `Ok(index)` when stored, otherwise `Err(slot)` for
    /// [`StateStore::insert_at`].
    fn find(&mut self, s: &State) -> Result<usize, usize> {
        self.fill_key(s);
        self.table.find(&self.key)
    }

    /// Stores the absent `s` at the `slot` that [`StateStore::find`] just
    /// returned for it, and returns its index.
    fn insert_at(&mut self, slot: usize, s: &State) -> usize {
        self.fill_key(s);
        self.table.insert_at(slot, &self.key)
    }

    /// Overwrites `s` with the state stored at `index`.
    fn load(&self, index: usize, s: &mut State) {
        let (words, env) = self.table.key(index).split_at(s.words.len());
        s.words.copy_from_slice(words);
        s.env = env[0] as u8;
    }
}

/// The state-graph explorer for one circuit + environment pair.
pub struct Explorer<'a> {
    /// Borrowed when the caller already froze the netlist; otherwise a
    /// private frozen clone, so `fanout()` always hits the CSR arena.
    netlist: Cow<'a, Netlist>,
    env: &'a Environment<'a>,
    initial: &'a [(NetId, bool)],
    state_cap: usize,
    pairs: Vec<RailPair>,
    /// Net index → index into `pairs`, for O(1) protocol checks.
    pair_of_net: Vec<Option<usize>>,
    /// Partial-order/symmetry reduction, when enabled and available.
    reduction: Option<ReductionEngine>,
}

impl<'a> Explorer<'a> {
    /// Builds an explorer over `netlist` closed by `env`, with `initial`
    /// net-value overrides (constants are set automatically) and an exact
    /// cap on visited states.
    pub fn new(
        netlist: &'a Netlist,
        env: &'a Environment<'a>,
        initial: &'a [(NetId, bool)],
        state_cap: usize,
    ) -> Self {
        let pairs = discover_rail_pairs(netlist);
        let mut pair_of_net = vec![None; netlist.net_count()];
        for (i, p) in pairs.iter().enumerate() {
            pair_of_net[p.t.index()] = Some(i);
            pair_of_net[p.f.index()] = Some(i);
        }
        let netlist = if netlist.is_frozen() {
            Cow::Borrowed(netlist)
        } else {
            let mut own = netlist.clone();
            own.freeze();
            Cow::Owned(own)
        };
        Self {
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
        self.reduction = ReductionEngine::build(&self.netlist, self.initial, footprint);
        self
    }

    /// The netlist under analysis.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The initial state: all nets low except constants-1 and the
    /// explicit overrides; nothing pending; the environment in its
    /// initial control state.
    pub fn initial_state(&self) -> State {
        let mut s = State::empty(
            self.netlist.net_count(),
            self.netlist.gate_count(),
            self.env.initial,
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

    /// Enabled internal transitions: excited level gates and armed
    /// edge-triggered gates, in gate order (deterministic).
    pub fn internal_enabled(&self, s: &State) -> Vec<Transition> {
        let mut out = Vec::new();
        let mut level = vec![0; self.netlist.gate_count().div_ceil(64)];
        self.internal_enabled_into(s, &mut out, &mut level);
        out
    }

    /// [`Explorer::internal_enabled`] into `out`, also setting bit `g` of
    /// `level` for each excited *level* gate `g`: the only gates whose
    /// output persistence another firing can violate.
    fn internal_enabled_into(&self, s: &State, out: &mut Vec<Transition>, level: &mut [u64]) {
        out.clear();
        level.fill(0);
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

    /// Enabled environment transitions (`quiescent` is precomputed by
    /// the caller from [`Explorer::internal_enabled`]).
    pub fn env_enabled(&self, s: &State, quiescent: bool) -> Vec<Transition> {
        let mut out = Vec::new();
        self.env_enabled_into(s, quiescent, &mut out);
        out
    }

    fn env_enabled_into(&self, s: &State, quiescent: bool, out: &mut Vec<Transition>) {
        out.clear();
        let view = EnvView {
            state: s,
            quiescent,
        };
        out.extend(
            (self.env.step)(s.env, &view)
                .into_iter()
                .filter(|a| s.value(a.net) != a.value)
                .map(|a| Transition {
                    gate: None,
                    net: a.net,
                    value: a.value,
                    env_next: a.next,
                }),
        );
    }

    /// Fires `t` in `s`: the successor state plus any edge-triggered
    /// gates that **overran** (received an arming edge while an event was
    /// still pending — a lost event).
    pub fn apply(&self, s: &State, t: &Transition) -> (State, Vec<GateId>) {
        let mut next = s.clone();
        let mut overruns = Vec::new();
        self.apply_into(s, t, &mut next, &mut overruns);
        (next, overruns)
    }

    /// [`Explorer::apply`] into caller-owned buffers — the BFS inner loop
    /// reuses one successor state and one overrun list for the whole run.
    fn apply_into(&self, s: &State, t: &Transition, next: &mut State, overruns: &mut Vec<GateId>) {
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
        let mut store = StateStore::new(initial.words.len());
        let mut capped = self.state_cap == 0;

        // Reduction machinery: the engine (if enabled and accepted),
        // its scratch, and local counters flushed to telemetry once.
        let engine = self.reduction.as_ref();
        let mut rsc: Option<ReduceScratch> = engine.map(|e| e.scratch());
        let mut reduced_states = 0u64;
        let mut proviso_expansions = 0u64;
        let mut skipped_transitions = 0u64;

        if !capped {
            if let (Some(e), Some(sc)) = (engine, rsc.as_mut()) {
                e.canonicalize(sc, &mut initial);
            }
            self.check_pair_invariants(None, &initial, &mut sink);
            let slot = store.find(&initial).expect_err("the store starts empty");
            store.insert_at(slot, &initial);
        }

        // Scratch buffers reused across the whole search: the popped
        // state (copied out of the arena so successors can be stored
        // while it is read), the successor, the transition lists, the
        // excited level gates and the gates a firing may disable.
        let mut current = initial.clone();
        let mut next = initial;
        let mut internal: Vec<Transition> = Vec::new();
        let mut env: Vec<Transition> = Vec::new();
        let mut overruns: Vec<GateId> = Vec::new();
        let mut level = vec![0u64; self.netlist.gate_count().div_ceil(64)];
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
            self.env_enabled_into(s, internal.is_empty(), &mut env);

            // Choose the transitions to fire: a stubborn subset when the
            // engine finds one, everything otherwise.
            let use_mask = match (engine, rsc.as_mut()) {
                (Some(e), Some(sc)) => e.select(&self.netlist, sc, s, &internal, &env),
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
                        e.canonicalize(sc, &mut next);
                    }
                    if let Err(slot) = store.find(&next) {
                        if store.len() >= self.state_cap {
                            capped = true;
                            break 'bfs;
                        }
                        store.insert_at(slot, &next);
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
    use super::*;
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

    fn flip_env(net: NetId) -> Environment<'static> {
        Environment {
            initial: 0,
            step: Box::new(move |_, v| {
                vec![EnvAction {
                    net,
                    value: !v.value(net),
                    next: 0,
                }]
            }),
        }
    }

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
        let env = Environment {
            initial: 0,
            step: Box::new(move |_, v| {
                let mut acts = Vec::new();
                for net in [a, b] {
                    // Each input follows the C output: rise when both
                    // low, fall when both high.
                    if v.value(net) == v.value(c) {
                        acts.push(EnvAction {
                            net,
                            value: !v.value(net),
                            next: 0,
                        });
                    }
                }
                acts
            }),
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
        let env = Environment {
            initial: 0,
            step: Box::new(move |_, v| {
                if v.quiescent() {
                    vec![EnvAction {
                        net: p,
                        value: !v.value(p),
                        next: 0,
                    }]
                } else {
                    Vec::new()
                }
            }),
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
        let env = Environment::inert();
        let ex = Explorer::new(&nl, &env, &[], 100);
        let s = ex.initial_state();
        assert!(s.value(one));
        assert!(!s.value(zero));
        assert!(!s.value(y));
        let out = ex.explore();
        assert!(out.exhaustive);
        assert_eq!(out.diagnostics, Vec::new());
    }

    #[test]
    fn state_store_agrees_with_a_hash_set() {
        // 70 nets / 70 gates: the value plane and both pending planes
        // each span two words.
        let mut nl = Netlist::new();
        let nets: Vec<NetId> = (0..70).map(|i| nl.input(&format!("n{i}"))).collect();
        let env = Environment::inert();
        let ex = Explorer::new(&nl, &env, &[], 10);
        // State `k`'s bits come from an xorshift seeded by `k / 3`, its
        // env byte from `k % 3`, so some states differ only in env.
        let state_of = |k: u64| {
            let mut x = (k / 3).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut bit = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x & 1 == 1
            };
            let mut s = ex.initial_state();
            for &n in &nets {
                s.set_value(n, bit());
            }
            for i in 0..70 {
                let p = if bit() { Some(bit()) } else { None };
                s.set_pending(nl.gate_id(i), p);
            }
            s.env = (k % 3) as u8;
            s
        };

        let mut store = StateStore::new(ex.initial_state().words.len());
        let mut seen: HashSet<State> = HashSet::new();
        let mut order: Vec<State> = Vec::new();
        // Draws repeat, so both lookup outcomes are exercised.
        for draw in 0..6_000u64 {
            let s = state_of(draw * 7_919 % 3_001);
            match store.find(&s) {
                Ok(i) => {
                    assert!(seen.contains(&s), "draw {draw}: found an absent state");
                    assert_eq!(order[i], s, "draw {draw}: found at the wrong index");
                }
                Err(slot) => {
                    assert!(seen.insert(s.clone()), "draw {draw}: missed a stored state");
                    assert_eq!(store.insert_at(slot, &s), order.len(), "indices are dense");
                    order.push(s);
                }
            }
            assert_eq!(store.len(), order.len());
        }
        assert!(order.len() > 2_000, "{} distinct states", order.len());
        assert!(
            store.table.slots.len() >= 16 << 3,
            "at least three table growths"
        );
        let mut loaded = ex.initial_state();
        for (i, s) in order.iter().enumerate() {
            store.load(i, &mut loaded);
            assert_eq!(&loaded, s, "index {i}");
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
        let env = Environment::inert();
        let ex = Explorer::new(&nl, &env, &[], 10);
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
