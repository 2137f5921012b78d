//! Persistent-set partial-order reduction and symmetry-quotient state
//! canonicalization, driven by `emc-analyze`'s static facts.
//!
//! ## Partial-order reduction (stubborn sets)
//!
//! The explorer's transitions are firings of *agents*: one agent per
//! gate, plus one per declared [`EnvPart`] of the environment. Two
//! agents that cannot enable, disable, hazard, or race each other may
//! be fired in either order with the same outcome, so exploring both
//! orders is waste. Per state the engine computes a **stubborn set**
//! `T` seeded from one enabled agent:
//!
//! - an *enabled* agent in `T` pulls in every agent it may interfere
//!   with (keeping interfering pairs together is what lets the
//!   on-the-fly `SI001`/`DR00x` checks see every race);
//! - a *disabled* agent in `T` pulls in its necessary enabling set
//!   (the writers of the nets its enabledness reads).
//!
//! Only `enabled ∩ T` is fired. Every enabled seed is tried and the
//! smallest result wins (deterministically — seeds ascend by agent
//! index). The closure reads nothing of the state but the set of enabled
//! agents, so each exploration memoizes the chosen `T` per enabled set.
//! The explorer's BFS ignoring-proviso re-expands the deferred
//! transitions whenever the chosen set reaches no new state, so no
//! transition is postponed forever.
//!
//! The gate–gate half of the interference relation is
//! [`emc_analyze::may_interfere_matrix`]; the environment half comes
//! from the caller-declared [`EnvFootprint`]. **No footprint, no
//! reduction** — an opaque environment closure may read anything, so
//! commuting around it would be unsound. Runtime guards fall back to
//! full expansion in any state where the declaration is violated (an
//! action on an undeclared net, or a declared-stateless part moving
//! the control byte).
//!
//! ## Symmetry reduction
//!
//! [`emc_analyze::detect_orbits`] proves sets of connected components
//! pairwise isomorphic. After validating that the *dynamic* side is
//! symmetric too — equal initial overrides slot-by-slot, environment
//! parts assigned whole to single members and structurally identical
//! across members, nothing stateful or quiescence-gated inside a
//! group — the explorer canonicalizes every state by sorting each
//! group's member sub-states, exploring the quotient graph instead.
//! [`orbit_commutation_check`] independently validates the permutation
//! argument on the unreduced graph.

use std::collections::{HashMap, HashSet, VecDeque};

use emc_analyze::{detect_orbits, discover_rail_pairs, may_interfere_matrix, Interference, Orbits};
use emc_netlist::{GateId, NetId, Netlist};

use crate::explore::{Explorer, State, Transition, WordTable};

/// One independent piece of an environment's behaviour, as declared by
/// the circuit author: the nets whose values its actions depend on, the
/// nets it drives, and whether it couples to global state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvPart {
    /// Nets this part's enabledness/actions read.
    pub reads: Vec<NetId>,
    /// Nets this part drives (each must be an `Input` gate's output,
    /// like every [`crate::EnvAction`](crate::explore::EnvAction)).
    pub drives: Vec<NetId>,
    /// `true` when the part consults
    /// [`EnvView::quiescent`](crate::explore::EnvView::quiescent) — it
    /// then depends on every gate's excitation and disables reduction
    /// around itself.
    pub uses_quiescence: bool,
    /// `true` when the part reads or writes the environment control
    /// byte.
    pub stateful: bool,
    /// Behavioural discriminator: two parts with equal `tag` and
    /// structurally corresponding nets are promised to behave
    /// identically under that renaming (used by symmetry validation).
    pub tag: u64,
}

/// The declared dependency structure of an
/// [`Environment`](crate::explore::Environment) closure, decomposed
/// into independent [`EnvPart`]s. The declaration is a promise: every
/// action the closure emits must be attributable to a part driving
/// that net, reading only that part's `reads` (plus the control byte
/// if `stateful`, plus quiescence if `uses_quiescence`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EnvFootprint {
    /// The declared parts.
    pub parts: Vec<EnvPart>,
}

impl EnvFootprint {
    /// A footprint from parts.
    pub fn new(parts: Vec<EnvPart>) -> Self {
        Self { parts }
    }

    /// Appends another footprint's parts (for composed environments).
    pub fn extend(&mut self, other: EnvFootprint) {
        self.parts.extend(other.parts);
    }
}

const WORD: usize = 64;

#[inline]
fn bit_get(words: &[u64], i: usize) -> bool {
    words[i / WORD] >> (i % WORD) & 1 == 1
}

/// Sets bit `i`; returns `true` if it was previously clear.
#[inline]
fn bit_set(words: &mut [u64], i: usize) -> bool {
    let w = &mut words[i / WORD];
    let mask = 1u64 << (i % WORD);
    let fresh = *w & mask == 0;
    *w |= mask;
    fresh
}

/// One validated orbit group: `members[m][k]` is the `(net, gate)` slot
/// at aligned position `k` of member `m`; `members[0]` belongs to the
/// representative.
pub(crate) struct ValidGroup {
    pub(crate) members: Vec<Vec<(NetId, GateId)>>,
    /// Member `m`'s canonicalization key, as state bit positions: slot
    /// `k`'s value, pending-present and pending-target bits at
    /// `bits[3 * (m * slots + k)..][..3]`.
    bits: Vec<usize>,
}

/// Per-exploration scratch for [`ReductionEngine`] queries, so the BFS
/// inner loop stays allocation-free.
pub(crate) struct ReduceScratch {
    t_set: Vec<u64>,
    best: Vec<u64>,
    enabled: Vec<u64>,
    work: Vec<usize>,
    env_parts: Vec<usize>,
    /// Filled by [`ReductionEngine::select`]: one flag per transition
    /// in `internal ++ env`, `true` = fire in the reduced pass.
    pub(crate) mask: Vec<bool>,
    /// The enabled-agent sets [`ReductionEngine::select`] has answered.
    cache: WordTable,
    /// Per `cache` entry, the chosen T-set (as wide as the key), all
    /// zero for "no useful reduction".
    answers: Vec<u64>,
    /// Selections answered from `cache`.
    pub(crate) cache_hits: u64,
    /// Selections computed and added to `cache`.
    pub(crate) cache_misses: u64,
    /// [`ReductionEngine::canonicalize`]'s member keys, side by side.
    keys: Vec<u64>,
    order: Vec<usize>,
}

/// The per-circuit reduction engine: static interference + validated
/// symmetry, built once before exploration.
pub(crate) struct ReductionEngine {
    gates: usize,
    parts: Vec<EnvPart>,
    inter: Interference,
    /// Per part: bitset over gate agents it may interfere with.
    part_vs_gate: Vec<Vec<u64>>,
    /// Per part: single-word bitset (≤ 64 parts) over parts.
    part_vs_part: Vec<u64>,
    /// Per net: mask of parts driving it.
    parts_driving: Vec<u64>,
    pub(crate) groups: Vec<ValidGroup>,
}

impl ReductionEngine {
    /// Builds the engine, or `None` when reduction is unavailable: an
    /// empty or oversized netlist (closure cost would dominate), more
    /// than 64 declared parts, or a declared net outside the netlist.
    pub(crate) fn build(
        netlist: &Netlist,
        initial: &[(NetId, bool)],
        footprint: &EnvFootprint,
    ) -> Option<Self> {
        let gates = netlist.gate_count();
        let nets = netlist.net_count();
        if gates == 0 || gates > 10_000 || footprint.parts.len() > WORD {
            return None;
        }
        for p in &footprint.parts {
            if p.reads.iter().chain(&p.drives).any(|n| n.index() >= nets) {
                return None;
            }
        }
        let pairs = discover_rail_pairs(netlist);
        let mut partner: Vec<Option<NetId>> = vec![None; nets];
        for p in &pairs {
            partner[p.t.index()] = Some(p.f);
            partner[p.f.index()] = Some(p.t);
        }
        let inter = may_interfere_matrix(netlist, &pairs);
        let orbits = detect_orbits(netlist, &pairs);
        let layout = State::empty(nets, gates, 0);
        let groups = validate_groups(&orbits, initial, &footprint.parts, &layout);

        let parts = footprint.parts.clone();
        let npart = parts.len();
        let mut parts_driving = vec![0u64; nets];
        let mut parts_reading = vec![0u64; nets];
        for (pi, p) in parts.iter().enumerate() {
            for &n in &p.drives {
                parts_driving[n.index()] |= 1 << pi;
            }
            for &n in &p.reads {
                parts_reading[n.index()] |= 1 << pi;
            }
        }

        let gate_words = gates.div_ceil(WORD);
        let all_parts = if npart == WORD {
            u64::MAX
        } else {
            (1u64 << npart) - 1
        };
        let mut part_vs_gate = Vec::with_capacity(npart);
        let mut part_vs_part = vec![0u64; npart];
        for (pi, p) in parts.iter().enumerate() {
            let mut set = vec![0u64; gate_words];
            let mut pp = 1u64 << pi; // reflexive
            if p.uses_quiescence {
                // Quiescence observes every gate's excitation: the part
                // interferes with everything.
                set.fill(u64::MAX);
                if !gates.is_multiple_of(WORD) {
                    set[gate_words - 1] = (1u64 << (gates % WORD)) - 1;
                }
                pp = all_parts;
            } else {
                // Gates writing what the part reads; parts co-writing.
                for &n in &p.reads {
                    if let Some(d) = netlist.driver_of(n) {
                        bit_set(&mut set, d.index());
                    }
                    pp |= parts_driving[n.index()];
                }
                for &n in &p.drives {
                    // Gates reading what the part drives, and — via the
                    // common-reader rule — the drivers of those gates'
                    // sibling inputs (a part firing can hazard a gate
                    // excited by a sibling input's change).
                    for &h in netlist.fanout(n) {
                        bit_set(&mut set, h.index());
                        for &m in netlist.gate_ref(h).inputs() {
                            if let Some(d) = netlist.driver_of(m) {
                                bit_set(&mut set, d.index());
                            }
                            pp |= parts_driving[m.index()];
                        }
                    }
                    // Rail coupling: the partner rail's writers (DR001
                    // is a joint property of both rails).
                    if let Some(r) = partner[n.index()] {
                        if let Some(d) = netlist.driver_of(r) {
                            bit_set(&mut set, d.index());
                        }
                        pp |= parts_driving[r.index()];
                    }
                    // Parts reading or co-driving this net.
                    pp |= parts_reading[n.index()] | parts_driving[n.index()];
                }
                if p.stateful {
                    for (qi, q) in parts.iter().enumerate() {
                        if q.stateful {
                            pp |= 1 << qi;
                        }
                    }
                }
                // A quiescence-gated part interferes with everything,
                // symmetrically.
                for (qi, q) in parts.iter().enumerate() {
                    if q.uses_quiescence {
                        pp |= 1 << qi;
                    }
                }
            }
            part_vs_gate.push(set);
            part_vs_part[pi] = pp;
        }
        // Close part-vs-part under symmetry (the construction is nearly
        // symmetric already; this guarantees it).
        for a in 0..npart {
            for b in 0..npart {
                if part_vs_part[a] >> b & 1 == 1 {
                    part_vs_part[b] |= 1 << a;
                }
            }
        }

        Some(Self {
            gates,
            parts,
            inter,
            part_vs_gate,
            part_vs_part,
            parts_driving,
            groups,
        })
    }

    pub(crate) fn scratch(&self) -> ReduceScratch {
        let agents = self.gates + self.parts.len();
        let words = agents.div_ceil(WORD);
        ReduceScratch {
            t_set: vec![0; words],
            best: vec![0; words],
            enabled: vec![0; words],
            work: Vec::new(),
            env_parts: Vec::new(),
            mask: Vec::new(),
            cache: WordTable::new(words),
            answers: Vec::new(),
            cache_hits: 0,
            cache_misses: 0,
            keys: Vec::new(),
            order: Vec::new(),
        }
    }

    /// Chooses the transitions to fire from `s`, filling `sc.mask` (one
    /// flag per transition in `internal ++ env`, `true` = chosen).
    /// Returns `false` — full expansion, mask unspecified — when no
    /// useful reduction exists or a footprint guard trips.
    pub(crate) fn select(
        &self,
        netlist: &Netlist,
        sc: &mut ReduceScratch,
        s: &State,
        internal: &[Transition],
        env: &[Transition],
    ) -> bool {
        // Attribute each env transition to exactly one declared part;
        // any undeclared behaviour voids the declaration for this state.
        sc.env_parts.clear();
        for t in env {
            let mask = self.parts_driving[t.net.index()];
            if mask.count_ones() != 1 {
                return false;
            }
            let p = mask.trailing_zeros() as usize;
            if t.env_next != s.env && !self.parts[p].stateful {
                return false;
            }
            sc.env_parts.push(p);
        }

        sc.enabled.fill(0);
        for t in internal {
            bit_set(
                &mut sc.enabled,
                t.gate.expect("internal transitions carry a gate").index(),
            );
        }
        for &p in &sc.env_parts {
            bit_set(&mut sc.enabled, self.gates + p);
        }

        // Past the guards the answer depends on the enabled set alone.
        let entry = match sc.cache.find(&sc.enabled) {
            Ok(entry) => {
                sc.cache_hits += 1;
                entry
            }
            Err(slot) => {
                sc.cache_misses += 1;
                self.choose(netlist, sc);
                sc.answers.extend_from_slice(&sc.best);
                sc.cache.insert_at(slot, &sc.enabled)
            }
        };
        let words = sc.best.len();
        let best = &sc.answers[entry * words..(entry + 1) * words];
        if best.iter().all(|&w| w == 0) {
            return false;
        }

        sc.mask.clear();
        for t in internal {
            let a = t.gate.expect("internal transitions carry a gate").index();
            sc.mask.push(bit_get(best, a));
        }
        for &p in &sc.env_parts {
            sc.mask.push(bit_get(best, self.gates + p));
        }
        true
    }

    /// Fills `sc.best` with the smallest stubborn set over the agents
    /// enabled in `sc.enabled`, or with zeros when none fires fewer
    /// than all of them.
    fn choose(&self, netlist: &Netlist, sc: &mut ReduceScratch) {
        sc.best.fill(0);
        let enabled_count: usize = sc.enabled.iter().map(|w| w.count_ones() as usize).sum();
        if enabled_count <= 1 {
            return;
        }
        // Try every enabled seed (ascending, deterministic); keep the
        // smallest |enabled ∩ T|.
        let mut best_score = usize::MAX;
        'seeds: for w in 0..sc.enabled.len() {
            let mut bits = sc.enabled[w];
            while bits != 0 {
                let seed = w * WORD + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let score = self.closure(netlist, sc, seed);
                if score < best_score {
                    best_score = score;
                    sc.best.copy_from_slice(&sc.t_set);
                    if score == 1 {
                        break 'seeds;
                    }
                }
            }
        }
        if best_score >= enabled_count {
            sc.best.fill(0);
        }
    }

    /// Stubborn closure from `seed` into `sc.t_set`; returns
    /// `|enabled ∩ T|`.
    fn closure(&self, netlist: &Netlist, sc: &mut ReduceScratch, seed: usize) -> usize {
        sc.t_set.fill(0);
        sc.work.clear();
        bit_set(&mut sc.t_set, seed);
        sc.work.push(seed);
        let mut score = 0usize;
        while let Some(a) = sc.work.pop() {
            let enabled = bit_get(&sc.enabled, a);
            if enabled {
                score += 1;
            }
            if a < self.gates {
                if enabled {
                    // Pull in every agent the gate may interfere with.
                    let row = self.inter.row(netlist.gate_id(a));
                    for (w, &bits) in row.iter().enumerate() {
                        let mut add = bits & !sc.t_set[w];
                        // Mask tail bits of the word straddling the end
                        // of the gate range (they alias part agents).
                        if (w + 1) * WORD > self.gates {
                            let valid = self.gates - w * WORD;
                            if valid < WORD {
                                add &= (1u64 << valid) - 1;
                            }
                        }
                        while add != 0 {
                            let b = w * WORD + add.trailing_zeros() as usize;
                            add &= add - 1;
                            bit_set(&mut sc.t_set, b);
                            sc.work.push(b);
                        }
                    }
                    for (pi, pv) in self.part_vs_gate.iter().enumerate() {
                        if bit_get(pv, a) && bit_set(&mut sc.t_set, self.gates + pi) {
                            sc.work.push(self.gates + pi);
                        }
                    }
                } else {
                    // Necessary enabling set: writers of the nets this
                    // gate's excitation reads (its inputs; the output
                    // is written only by the gate itself).
                    let g = netlist.gate_ref(netlist.gate_id(a));
                    if g.kind().is_source() {
                        continue; // never fires; nothing enables it
                    }
                    for &n in g.inputs() {
                        if let Some(d) = netlist.driver_of(n) {
                            if d.index() != a && bit_set(&mut sc.t_set, d.index()) {
                                sc.work.push(d.index());
                            }
                        }
                        let mut pm = self.parts_driving[n.index()];
                        while pm != 0 {
                            let p = pm.trailing_zeros() as usize;
                            pm &= pm - 1;
                            if bit_set(&mut sc.t_set, self.gates + p) {
                                sc.work.push(self.gates + p);
                            }
                        }
                    }
                }
            } else {
                let pi = a - self.gates;
                let p = &self.parts[pi];
                if enabled {
                    let pv = &self.part_vs_gate[pi];
                    for (w, &bits) in pv.iter().enumerate() {
                        let mut add = bits & !sc.t_set[w];
                        if (w + 1) * WORD > self.gates {
                            let valid = self.gates - w * WORD;
                            if valid < WORD {
                                add &= (1u64 << valid) - 1;
                            }
                        }
                        while add != 0 {
                            let b = w * WORD + add.trailing_zeros() as usize;
                            add &= add - 1;
                            bit_set(&mut sc.t_set, b);
                            sc.work.push(b);
                        }
                    }
                    let mut pm = self.part_vs_part[pi];
                    while pm != 0 {
                        let q = pm.trailing_zeros() as usize;
                        pm &= pm - 1;
                        if bit_set(&mut sc.t_set, self.gates + q) {
                            sc.work.push(self.gates + q);
                        }
                    }
                } else if p.uses_quiescence {
                    // Enabledness depends on everything.
                    for b in 0..self.gates + self.parts.len() {
                        if bit_set(&mut sc.t_set, b) {
                            sc.work.push(b);
                        }
                    }
                } else {
                    // NES of a disabled part: writers of what it reads
                    // or drives (its actions restate levels, so a drive
                    // target at the wrong level blocks it).
                    for &n in p.reads.iter().chain(&p.drives) {
                        if let Some(d) = netlist.driver_of(n) {
                            if bit_set(&mut sc.t_set, d.index()) {
                                sc.work.push(d.index());
                            }
                        }
                        let mut pm = self.parts_driving[n.index()];
                        while pm != 0 {
                            let q = pm.trailing_zeros() as usize;
                            pm &= pm - 1;
                            if bit_set(&mut sc.t_set, self.gates + q) {
                                sc.work.push(self.gates + q);
                            }
                        }
                    }
                    if p.stateful {
                        for (qi, q) in self.parts.iter().enumerate() {
                            if q.stateful && bit_set(&mut sc.t_set, self.gates + qi) {
                                sc.work.push(self.gates + qi);
                            }
                        }
                    }
                }
            }
        }
        score
    }

    /// Rewrites `s` to the canonical representative of its symmetry
    /// orbit: within each validated group, member sub-states are
    /// sorted. Returns `true` if anything moved.
    pub(crate) fn canonicalize(&self, sc: &mut ReduceScratch, s: &mut State) -> bool {
        let mut moved = false;
        for group in &self.groups {
            let m = group.members.len();
            let per = group.bits.len() / m;
            let kw = per.div_ceil(WORD);
            sc.keys.resize(m * kw, 0);
            for (key, bits) in sc
                .keys
                .chunks_exact_mut(kw)
                .zip(group.bits.chunks_exact(per))
            {
                for (word, bits) in key.iter_mut().zip(bits.chunks(WORD)) {
                    *word = (0..)
                        .zip(bits)
                        .fold(0, |w, (i, &b)| w | u64::from(s.bit(b)) << i);
                }
            }
            let key = |i: usize| &sc.keys[i * kw..(i + 1) * kw];
            if (1..m).all(|i| key(i - 1) <= key(i)) {
                continue;
            }
            moved = true;
            sc.order.clear();
            sc.order.extend(0..m);
            sc.order.sort_by(|&a, &b| key(a).cmp(key(b)));
            // Member j takes the key of the j-th smallest member.
            for (j, &src) in sc.order.iter().enumerate() {
                if src != j {
                    let key = key(src);
                    for (i, &b) in group.bits[j * per..(j + 1) * per].iter().enumerate() {
                        s.set_bit(b, bit_get(key, i));
                    }
                }
            }
        }
        moved
    }
}

/// Validates orbit groups against the dynamic side (initial overrides
/// and environment parts); only fully symmetric groups survive.
fn validate_groups(
    orbits: &Orbits,
    initial: &[(NetId, bool)],
    parts: &[EnvPart],
    layout: &State,
) -> Vec<ValidGroup> {
    let mut init: HashMap<NetId, bool> = HashMap::new();
    for &(n, v) in initial {
        init.insert(n, v); // later overrides win, like the explorer
    }
    let init_of = |n: NetId| init.get(&n).copied().unwrap_or(false);

    let mut out = Vec::new();
    'group: for group in &orbits.groups {
        let rep = &group.members[0];
        let k = rep.nets.len();
        // Initial overrides must agree slot-by-slot (constants already
        // agree by kind symmetry).
        for member in &group.members[1..] {
            for pos in 0..k {
                if init_of(rep.nets[pos]) != init_of(member.nets[pos]) {
                    continue 'group;
                }
            }
        }
        // Net → member over the whole group.
        let mut member_of: HashMap<NetId, usize> = HashMap::new();
        for (mi, member) in group.members.iter().enumerate() {
            for &n in &member.nets {
                member_of.insert(n, mi);
            }
        }
        // Assign env parts to members; reject parts that straddle
        // members or sit half inside the group.
        let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); group.members.len()];
        for (pi, p) in parts.iter().enumerate() {
            let mut member: Option<usize> = None;
            let mut inside = 0usize;
            let total = p.reads.len() + p.drives.len();
            for &n in p.reads.iter().chain(&p.drives) {
                if let Some(&mi) = member_of.get(&n) {
                    inside += 1;
                    match member {
                        None => member = Some(mi),
                        Some(prev) if prev == mi => {}
                        Some(_) => continue 'group,
                    }
                }
            }
            if inside == 0 {
                continue; // disjoint from the group: fine
            }
            if inside != total {
                continue 'group; // half in, half out
            }
            if p.stateful || p.uses_quiescence {
                continue 'group; // global coupling breaks the symmetry
            }
            assigned[member.expect("inside > 0 implies a member")].push(pi);
        }
        // Part correspondence: each member's assigned parts must match
        // the representative's under the positional net map.
        let rep_parts = &assigned[0];
        for (mi, member_parts) in assigned.iter().enumerate().skip(1) {
            if member_parts.len() != rep_parts.len() {
                continue 'group;
            }
            let to_rep: HashMap<NetId, NetId> = group.members[mi]
                .nets
                .iter()
                .zip(&rep.nets)
                .map(|(&m, &r)| (m, r))
                .collect();
            let map_nets = |nets: &[NetId]| -> Option<Vec<NetId>> {
                nets.iter().map(|n| to_rep.get(n).copied()).collect()
            };
            let mut used = vec![false; rep_parts.len()];
            for &qi in member_parts {
                let q = &parts[qi];
                let (Some(reads), Some(drives)) = (map_nets(&q.reads), map_nets(&q.drives)) else {
                    continue 'group;
                };
                let matched = rep_parts.iter().enumerate().position(|(slot, &ri)| {
                    let r = &parts[ri];
                    !used[slot] && r.tag == q.tag && r.reads == reads && r.drives == drives
                });
                match matched {
                    Some(slot) => used[slot] = true,
                    None => continue 'group,
                }
            }
        }
        let members: Vec<Vec<(NetId, GateId)>> = group
            .members
            .iter()
            .map(|m| {
                m.nets
                    .iter()
                    .copied()
                    .zip(m.gates.iter().copied())
                    .collect()
            })
            .collect();
        let bits = members
            .iter()
            .flatten()
            .flat_map(|&(net, gate)| layout.slot_bits(net, gate))
            .collect();
        out.push(ValidGroup { members, bits });
    }
    out
}

/// Breadth-first walk of `ex`'s **unreduced** reachable graph (up to
/// `cap` states), calling `visit` with every state and its enabled
/// internal and environment transitions. Returns the number of states
/// visited, or `visit`'s first error.
fn walk_unreduced(
    ex: &Explorer<'_>,
    cap: usize,
    mut visit: impl FnMut(&State, &[Transition], &[Transition]) -> Result<(), String>,
) -> Result<usize, String> {
    let mut seen: HashSet<State> = HashSet::new();
    let mut queue: VecDeque<State> = VecDeque::new();
    let initial = ex.initial_state();
    seen.insert(initial.clone());
    queue.push_back(initial);
    let mut visited = 0usize;
    while let Some(s) = queue.pop_front() {
        visited += 1;
        let internal = ex.internal_enabled(&s);
        let env = ex.env_enabled(&s, internal.is_empty());
        visit(&s, &internal, &env)?;
        for t in internal.iter().chain(env.iter()) {
            let (next, _) = ex.apply(&s, t);
            if !seen.contains(&next) && seen.len() < cap {
                seen.insert(next.clone());
                queue.push_back(next);
            }
        }
    }
    Ok(visited)
}

/// Walks the **unreduced** reachable graph of `circuit` (up to `cap`
/// states) and checks, for every validated orbit group and every
/// state, that swapping the representative with each other member
/// commutes with the transition relation: the permuted state's enabled
/// transitions are the permuted originals, and firing corresponding
/// transitions reaches permuted-corresponding successors. Returns the
/// number of states checked (0 when the circuit has no validated
/// symmetry to check).
pub fn orbit_commutation_check(circuit: &crate::Circuit<'_>, cap: usize) -> Result<usize, String> {
    let footprint = circuit.footprint.clone().unwrap_or_default();
    let Some(engine) = ReductionEngine::build(&circuit.netlist, &circuit.initial, &footprint)
    else {
        return Ok(0);
    };
    if engine.groups.is_empty() {
        return Ok(0);
    }
    let ex = Explorer::new(&circuit.netlist, &circuit.env, &circuit.initial, cap);
    walk_unreduced(&ex, cap, |s, internal, env| {
        for group in &engine.groups {
            for other in 1..group.members.len() {
                check_swap(&ex, group, other, s, internal, env)?;
            }
        }
        Ok(())
    })
}

/// Walks the **unreduced** reachable graph of `circuit` (up to `cap`
/// states) and checks that the stubborn-set selection an exploration
/// answers from its per-run cache — one scratch kept across the whole
/// walk — equals a fresh computation at every state: the same verdict
/// and, when it reduces, the same chosen transitions. Returns the
/// number of states checked (0 when the circuit declares no footprint
/// or reduction declines it).
pub fn select_cache_check(circuit: &crate::Circuit<'_>, cap: usize) -> Result<usize, String> {
    let Some(footprint) = &circuit.footprint else {
        return Ok(0);
    };
    let Some(engine) = ReductionEngine::build(&circuit.netlist, &circuit.initial, footprint) else {
        return Ok(0);
    };
    let ex = Explorer::new(&circuit.netlist, &circuit.env, &circuit.initial, cap);
    let mut cached = engine.scratch();
    walk_unreduced(&ex, cap, |s, internal, env| {
        let mut fresh = engine.scratch();
        let want = engine.select(ex.netlist(), &mut fresh, s, internal, env);
        let got = engine.select(ex.netlist(), &mut cached, s, internal, env);
        if got != want || (want && cached.mask != fresh.mask) {
            return Err(format!(
                "cached selection (reduces: {got}, mask {:?}) differs from a fresh one \
                 (reduces: {want}, mask {:?})",
                cached.mask, fresh.mask
            ));
        }
        Ok(())
    })
}

/// Checks one transposition (member 0 ↔ member `other`) at one state.
fn check_swap(
    ex: &Explorer<'_>,
    group: &ValidGroup,
    other: usize,
    s: &State,
    internal: &[Transition],
    env: &[Transition],
) -> Result<(), String> {
    let a = &group.members[0];
    let b = &group.members[other];
    let mut net_map: HashMap<NetId, NetId> = HashMap::new();
    let mut gate_map: HashMap<GateId, GateId> = HashMap::new();
    for (&(na, ga), &(nb, gb)) in a.iter().zip(b.iter()) {
        net_map.insert(na, nb);
        net_map.insert(nb, na);
        gate_map.insert(ga, gb);
        gate_map.insert(gb, ga);
    }
    let pi_state = |s: &State| -> State {
        let mut out = s.clone();
        for (&(na, ga), &(nb, gb)) in a.iter().zip(b.iter()) {
            out.set_value(na, s.value(nb));
            out.set_value(nb, s.value(na));
            out.set_pending(ga, s.pending(gb));
            out.set_pending(gb, s.pending(ga));
        }
        out
    };
    let pi_transition = |t: &Transition| -> Transition {
        Transition {
            gate: t.gate.map(|g| gate_map.get(&g).copied().unwrap_or(g)),
            net: net_map.get(&t.net).copied().unwrap_or(t.net),
            value: t.value,
            env_next: t.env_next,
        }
    };

    let ps = pi_state(s);
    let p_internal = ex.internal_enabled(&ps);
    let p_env = ex.env_enabled(&ps, p_internal.is_empty());
    // Enabled sets must correspond under the permutation.
    let mut expect: Vec<_> = internal
        .iter()
        .chain(env.iter())
        .map(pi_transition)
        .collect();
    let mut got: Vec<_> = p_internal.iter().chain(p_env.iter()).cloned().collect();
    let key = |t: &Transition| {
        (
            t.gate.map(|g| g.index()),
            t.net.index(),
            t.value,
            t.env_next,
        )
    };
    expect.sort_by_key(key);
    got.sort_by_key(key);
    if expect != got {
        return Err(format!(
            "orbit swap does not commute with enabledness: expected {} transitions, got {}",
            expect.len(),
            got.len()
        ));
    }
    // Successors must correspond: π(apply(s, t)) == apply(π(s), π(t)).
    for t in internal.iter().chain(env.iter()) {
        let (n1, o1) = ex.apply(s, t);
        let (n2, o2) = ex.apply(&ps, &pi_transition(t));
        if pi_state(&n1) != n2 {
            return Err(format!(
                "orbit swap does not commute with apply at the transition on net {}",
                t.net
            ));
        }
        let mut m1: Vec<usize> = o1
            .iter()
            .map(|g| gate_map.get(g).copied().unwrap_or(*g).index())
            .collect();
        let mut m2: Vec<usize> = o2.iter().map(|g| g.index()).collect();
        m1.sort_unstable();
        m2.sort_unstable();
        if m1 != m2 {
            return Err("orbit swap does not commute with overrun detection".to_owned());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{EnvAction, Environment};
    use crate::{Circuit, Verifier};
    use emc_netlist::{GateKind, Netlist};

    /// Two independent two-buffer chains, each closed by its own
    /// completion-aware part — symmetric, hazard-free, and reducible.
    fn twin_chains() -> Circuit<'static> {
        let mut nl = Netlist::new();
        let mut ends = Vec::new();
        for i in 0..2 {
            let a = nl.input(&format!("r{i}.a"));
            let b = nl.gate(GateKind::Buf, &[a], &format!("r{i}.b"));
            let c = nl.gate(GateKind::Buf, &[b], &format!("r{i}.c"));
            nl.mark_output(c);
            ends.push((a, c));
        }
        let moved = ends.clone();
        let env = Environment {
            initial: 0,
            step: Box::new(move |_, v| {
                let mut acts = Vec::new();
                for &(a, c) in &moved {
                    if v.value(a) == v.value(c) {
                        acts.push(EnvAction {
                            net: a,
                            value: !v.value(a),
                            next: 0,
                        });
                    }
                }
                acts
            }),
        };
        let parts = ends
            .iter()
            .map(|&(a, c)| EnvPart {
                reads: vec![a, c],
                drives: vec![a],
                uses_quiescence: false,
                stateful: false,
                tag: 7,
            })
            .collect();
        Circuit::new("twin", nl, env).with_footprint(EnvFootprint::new(parts))
    }

    fn verdict(c: &Circuit<'_>, reduce: bool) -> (Vec<&'static str>, bool, bool, usize) {
        let r = Verifier::new().with_reduction(reduce).verify(c);
        (r.distinct_rules(), r.is_clean(), r.exhaustive, r.states)
    }

    #[test]
    fn reduced_run_matches_full_and_shrinks_states() {
        let (rules_f, clean_f, exh_f, states_f) = verdict(&twin_chains(), false);
        let (rules_r, clean_r, exh_r, states_r) = verdict(&twin_chains(), true);
        assert_eq!(rules_f, rules_r);
        assert_eq!(clean_f, clean_r);
        assert_eq!(exh_f, exh_r);
        assert!(
            states_r < states_f,
            "expected a strict reduction: {states_r} vs {states_f}"
        );
    }

    #[test]
    fn engine_finds_symmetry_and_parts() {
        let c = twin_chains();
        let fp = c.footprint.clone().unwrap();
        let engine = ReductionEngine::build(&c.netlist, &c.initial, &fp).unwrap();
        assert!(!engine.groups.is_empty());
        assert_eq!(engine.groups.len(), 1);
        assert_eq!(engine.groups[0].members.len(), 2);
        assert_eq!(engine.parts.len(), 2);
    }

    #[test]
    fn commutation_check_accepts_twin_chains() {
        let checked = orbit_commutation_check(&twin_chains(), 10_000).expect("must commute");
        assert!(checked > 0, "symmetry present, states must be checked");
    }

    #[test]
    fn asymmetric_initial_override_drops_the_group() {
        let mut c = twin_chains();
        let b0 = c.netlist.find_net("r0.b").unwrap();
        c.initial.push((b0, true));
        let fp = c.footprint.clone().unwrap();
        let engine = ReductionEngine::build(&c.netlist, &c.initial, &fp).unwrap();
        assert!(engine.groups.is_empty(), "override breaks the orbit");
        // Still sound: POR alone must agree with the full run.
        let (rules_f, clean_f, exh_f, states_f) = verdict(&c, false);
        let (rules_r, clean_r, exh_r, states_r) = verdict(&c, true);
        assert_eq!((rules_f, clean_f, exh_f), (rules_r, clean_r, exh_r));
        assert!(states_r <= states_f);
    }

    #[test]
    fn undeclared_env_net_forces_full_expansion() {
        // Footprint declares only one of the two driven inputs: every
        // state with an action on the undeclared net must fall back to
        // full expansion, keeping the result identical to the full run.
        let mut c = twin_chains();
        let fp = c.footprint.take().unwrap();
        let c = c.with_footprint(EnvFootprint::new(vec![fp.parts[0].clone()]));
        let (rules_f, clean_f, exh_f, states_f) = verdict(&c, false);
        let (rules_r, clean_r, exh_r, states_r) = verdict(&c, true);
        assert_eq!((rules_f, clean_f, exh_f), (rules_r, clean_r, exh_r));
        assert_eq!(
            states_r, states_f,
            "guard must disable reduction wholesale here"
        );
    }

    #[test]
    fn hazard_is_still_detected_under_reduction() {
        // y = a AND (NOT a) driven free-running: the SI001 hazard must
        // survive reduction (interfering pairs are kept together).
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let na = nl.gate(GateKind::Inv, &[a], "na");
        let y = nl.gate(GateKind::And, &[a, na], "y");
        nl.mark_output(y);
        let env = Environment {
            initial: 0,
            step: Box::new(move |_, v| {
                vec![EnvAction {
                    net: a,
                    value: !v.value(a),
                    next: 0,
                }]
            }),
        };
        let c = Circuit::new("glitch", nl, env).with_footprint(EnvFootprint::new(vec![EnvPart {
            reads: vec![a],
            drives: vec![a],
            uses_quiescence: false,
            stateful: false,
            tag: 1,
        }]));
        let (rules_f, ..) = verdict(&c, false);
        let (rules_r, ..) = verdict(&c, true);
        assert!(rules_r.contains(&"SI001"), "{rules_r:?}");
        assert_eq!(rules_f, rules_r);
    }

    #[test]
    fn cached_selection_matches_fresh_on_builtins() {
        // The built-ins' tight handshakes never reduce; the twin chains
        // do, so cached answers that reduce are compared too.
        for c in crate::builtin::builtin_suite(false)
            .into_iter()
            .chain([twin_chains()])
        {
            assert!(c.footprint.is_some(), "{} declares a footprint", c.name);
            match select_cache_check(&c, 50_000) {
                Ok(checked) => assert!(checked > 0, "{}: no state checked", c.name),
                Err(e) => panic!("{}: {e}", c.name),
            }
        }
    }

    #[test]
    fn select_cache_counters_cover_every_selection_past_the_guards() {
        let counters = |c: &Circuit<'_>, reduce: bool| {
            let mut ex = Explorer::new(&c.netlist, &c.env, &c.initial, 10_000);
            if reduce {
                ex = ex.with_reduction(c.footprint.as_ref().expect("footprint"));
            }
            let (_, t) = ex.explore_with_telemetry();
            let get = |id: &str| t.metrics.counter_value(id);
            (
                get("verify.reduce.select_cache_hits"),
                get("verify.reduce.select_cache_misses"),
                get("verify.states_popped").expect("always recorded"),
            )
        };
        // An accurate footprint never trips a guard: every state's
        // selection reaches the cache.
        let c = twin_chains();
        let (hits, misses, popped) = counters(&c, true);
        let (hits, misses) = (hits.expect("recorded"), misses.expect("recorded"));
        assert!(hits > 0 && misses > 0, "{hits} hits, {misses} misses");
        assert_eq!(hits + misses, popped);
        // Unreduced telemetry does not carry the counters.
        assert_eq!(counters(&c, false).0, None);

        // With chain 1's part undeclared, a state offering its action
        // trips the guard before the cache. Reduction then visits the
        // full graph (see `undeclared_env_net_forces_full_expansion`),
        // so the selections reaching the cache are that graph's states
        // whose every action belongs to the declared part.
        let mut c = twin_chains();
        let fp = c.footprint.take().expect("footprint");
        let declared = fp.parts[0].clone();
        let c = c.with_footprint(EnvFootprint::new(vec![declared.clone()]));
        let ex = Explorer::new(&c.netlist, &c.env, &c.initial, 10_000);
        let mut guarded = 0u64;
        let all = walk_unreduced(&ex, 10_000, |_, _, env| {
            if env.iter().all(|t| declared.drives.contains(&t.net)) {
                guarded += 1;
            }
            Ok(())
        })
        .expect("the walk has no check");
        let (hits, misses, popped) = counters(&c, true);
        assert_eq!(popped, all as u64);
        assert!(guarded < popped, "some state must trip the guard");
        assert_eq!(hits.expect("recorded") + misses.expect("recorded"), guarded);
    }

    #[test]
    fn canonicalize_sorts_member_substates() {
        let c = twin_chains();
        let fp = c.footprint.clone().unwrap();
        let engine = ReductionEngine::build(&c.netlist, &c.initial, &fp).unwrap();
        let mut sc = engine.scratch();
        let ex = Explorer::new(&c.netlist, &c.env, &c.initial, 10);
        let mut s = ex.initial_state();
        let r0a = c.netlist.find_net("r0.a").unwrap();
        let r1a = c.netlist.find_net("r1.a").unwrap();
        s.set_value(r0a, true);
        let mut t = s.clone();
        // An asserted chain 0 sorts after the idle chain 1, so the
        // member sub-states must swap...
        assert!(engine.canonicalize(&mut sc, &mut t));
        assert!(t.value(r0a) != t.value(r1a), "swap preserves the multiset");
        // ...and the symmetric image must canonicalize to the same
        // representative.
        let mut u = ex.initial_state();
        u.set_value(r1a, true);
        engine.canonicalize(&mut sc, &mut u);
        assert_eq!(t, u);
        // Idempotent.
        let before = t.clone();
        assert!(!engine.canonicalize(&mut sc, &mut t));
        assert_eq!(before, t);
    }
}
