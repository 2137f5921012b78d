//! Symmetry orbit detection: isomorphic connected subcircuits.
//!
//! Replicated structures — SRAM columns, the rows of a pipelined array,
//! parallel WCHB lanes — produce reachable state spaces that are
//! permutations of each other. The verifier can quotient its search by
//! any *structural automorphism* it can prove, so this pass finds them:
//!
//! 1. Partition gates into connected components of the undirected
//!    driver/reader graph (rail partners united too, since the protocol
//!    rules couple them).
//! 2. Color-refine every gate (Weisfeiler–Leman style: seed with
//!    kind/arity/output-mark/rail-role, iterate with input-driver colors
//!    in slot order plus the sorted reader colors) and group components
//!    whose sorted color multisets match.
//! 3. For each candidate group, align members to the representative by
//!    creation order (ascending [`GateId`] — replicated builders emit
//!    gates in the same order) and **verify** the alignment is an exact
//!    isomorphism: kinds, slot-ordered inputs, drive strengths, output
//!    marks, and rail-pair structure must all map. Members that fail
//!    verification are dropped, so every emitted orbit is proven, not
//!    hashed.
//!
//! The result is a partition of (some) gates into [`OrbitGroup`]s whose
//! members can be permuted freely — provided the *dynamic* side (initial
//! overrides, environment footprint) respects the same symmetry, which
//! is the consumer's obligation to check (emc-verify does).

use std::collections::HashMap;

use emc_netlist::{GateId, NetId, Netlist};

use crate::rails::RailPair;

/// One member subcircuit of an orbit group. `gates[k]` and `nets[k]`
/// (the gate's output) correspond across members at equal `k`.
#[derive(Debug, Clone)]
pub struct OrbitMember {
    /// Member gates, ascending by id.
    pub gates: Vec<GateId>,
    /// `nets[k]` is the output net of `gates[k]`.
    pub nets: Vec<NetId>,
}

/// A set of ≥ 2 mutually isomorphic members; `members[0]` is the
/// representative (smallest leading gate id).
#[derive(Debug, Clone)]
pub struct OrbitGroup {
    /// Isomorphic members, representative first.
    pub members: Vec<OrbitMember>,
}

/// All orbit groups found in a netlist, in representative order.
#[derive(Debug, Clone, Default)]
pub struct Orbits {
    /// Verified groups; empty when the netlist has no replicated
    /// structure (or failed validation).
    pub groups: Vec<OrbitGroup>,
}

impl Orbits {
    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Total members across all groups.
    pub(crate) fn member_count(&self) -> usize {
        self.groups.iter().map(|g| g.members.len()).sum()
    }

    /// Whether no symmetry was found.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }
}

fn fnv(seed: u64, v: u64) -> u64 {
    (seed ^ v).wrapping_mul(0x100000001b3)
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Smaller root wins, keeping component ids deterministic.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

/// Detects verified symmetry orbits. Returns no orbits on a netlist
/// that fails [`Netlist::validate`] (undriven reads would leave the
/// component graph ill-defined).
pub fn detect_orbits(netlist: &Netlist, pairs: &[RailPair]) -> Orbits {
    if netlist.gate_count() == 0 || !netlist.validate().is_empty() {
        return Orbits::default();
    }
    let gates = netlist.gate_count();
    let nets = netlist.net_count();

    // Net-index lookups used throughout.
    let mut pair_partner: Vec<Option<NetId>> = vec![None; nets];
    for p in pairs {
        pair_partner[p.t.index()] = Some(p.f);
        pair_partner[p.f.index()] = Some(p.t);
    }
    let mut rail_role = vec![0u8; nets]; // 0 plain, 1 true rail, 2 false rail
    for p in pairs {
        rail_role[p.t.index()] = 1;
        rail_role[p.f.index()] = 2;
    }
    let mut marked = vec![false; nets];
    for &o in netlist.outputs() {
        marked[o.index()] = true;
    }

    // 1. Connected components over drivers, readers, and rail partners.
    let mut uf = UnionFind::new(gates);
    for net in netlist.iter_nets() {
        if let Some(d) = netlist.driver_of(net) {
            for &h in netlist.fanout(net) {
                uf.union(d.index(), h.index());
            }
        }
    }
    for p in pairs {
        if let (Some(dt), Some(df)) = (netlist.driver_of(p.t), netlist.driver_of(p.f)) {
            uf.union(dt.index(), df.index());
        }
    }

    // 2. Weisfeiler–Leman color refinement over the whole netlist.
    let mut color: Vec<u64> = (0..gates)
        .map(|i| {
            let g = netlist.gate_ref(netlist.gate_id(i));
            let out = g.output().index();
            let mut h = fnv(0xcbf29ce484222325, g.kind() as u64);
            h = fnv(h, g.inputs().len() as u64);
            h = fnv(h, u64::from(marked[out]));
            h = fnv(h, u64::from(rail_role[out]));
            h = fnv(h, g.drive().to_bits());
            h
        })
        .collect();
    let rounds = 2 + (usize::BITS - gates.leading_zeros()) as usize;
    let mut next = vec![0u64; gates];
    let mut reader_colors: Vec<u64> = Vec::new();
    for _ in 0..rounds {
        for i in 0..gates {
            let g = netlist.gate_ref(netlist.gate_id(i));
            let mut h = fnv(0x9e3779b97f4a7c15, color[i]);
            for &n in g.inputs() {
                let d = netlist
                    .driver_of(n)
                    .expect("validated netlist has a driver per read net");
                h = fnv(h, color[d.index()]);
            }
            reader_colors.clear();
            reader_colors.extend(netlist.fanout(g.output()).iter().map(|r| color[r.index()]));
            reader_colors.sort_unstable();
            for &c in &reader_colors {
                h = fnv(h, c);
            }
            next[i] = h;
        }
        std::mem::swap(&mut color, &mut next);
    }

    // Collect components (ascending gate order) and signature them by
    // sorted color multiset.
    let mut comps: HashMap<usize, Vec<usize>> = HashMap::new();
    for i in 0..gates {
        comps.entry(uf.find(i)).or_default().push(i);
    }
    let mut by_sig: HashMap<(usize, u64), Vec<Vec<usize>>> = HashMap::new();
    let mut roots: Vec<usize> = comps.keys().copied().collect();
    roots.sort_unstable();
    for root in roots {
        let members = comps.remove(&root).expect("root collected above");
        let mut colors: Vec<u64> = members.iter().map(|&i| color[i]).collect();
        colors.sort_unstable();
        let sig = colors.iter().fold(0xcbf29ce484222325u64, |h, &c| fnv(h, c));
        by_sig
            .entry((members.len(), sig))
            .or_default()
            .push(members);
    }

    // 3. Verify creation-order bijections against the representative.
    let mut keys: Vec<(usize, u64)> = by_sig.keys().copied().collect();
    keys.sort_unstable();
    let mut groups = Vec::new();
    for key in keys {
        let cands = by_sig.remove(&key).expect("key collected above");
        if cands.len() < 2 {
            continue;
        }
        let rep = &cands[0]; // candidates arrive in ascending root order
        let mut members = vec![member_of(netlist, rep)];
        for cand in &cands[1..] {
            if isomorphic(netlist, rep, cand, &pair_partner, &marked) {
                members.push(member_of(netlist, cand));
            }
        }
        if members.len() >= 2 {
            groups.push(OrbitGroup { members });
        }
    }
    groups.sort_by_key(|g| g.members[0].gates[0]);
    Orbits { groups }
}

fn member_of(netlist: &Netlist, gates: &[usize]) -> OrbitMember {
    let ids: Vec<GateId> = gates.iter().map(|&i| netlist.gate_id(i)).collect();
    let nets = ids.iter().map(|&g| netlist.gate_ref(g).output()).collect();
    OrbitMember { gates: ids, nets }
}

/// Checks that the position-wise map `rep[k] -> cand[k]` is an exact
/// isomorphism of the induced subcircuits.
fn isomorphic(
    netlist: &Netlist,
    rep: &[usize],
    cand: &[usize],
    pair_partner: &[Option<NetId>],
    marked: &[bool],
) -> bool {
    debug_assert_eq!(rep.len(), cand.len());
    // Net map keyed by rep gate outputs. Every net a rep gate reads is
    // driven by a gate in the same component (validated netlist +
    // union by driver edges), so output nets cover all reads.
    let mut net_map: HashMap<NetId, NetId> = HashMap::with_capacity(rep.len());
    for (&r, &c) in rep.iter().zip(cand) {
        let (gr, gc) = (
            netlist.gate_ref(netlist.gate_id(r)),
            netlist.gate_ref(netlist.gate_id(c)),
        );
        net_map.insert(gr.output(), gc.output());
    }
    for (&r, &c) in rep.iter().zip(cand) {
        let (gr, gc) = (
            netlist.gate_ref(netlist.gate_id(r)),
            netlist.gate_ref(netlist.gate_id(c)),
        );
        if gr.kind() != gc.kind()
            || gr.inputs().len() != gc.inputs().len()
            || gr.drive() != gc.drive()
        {
            return false;
        }
        // Slot-ordered inputs must map.
        for (&ir, &ic) in gr.inputs().iter().zip(gc.inputs()) {
            if net_map.get(&ir) != Some(&ic) {
                return false;
            }
        }
        let (or, oc) = (gr.output(), gc.output());
        // Output marks must agree (the environment observes marked nets).
        if marked[or.index()] != marked[oc.index()] {
            return false;
        }
        // Rail-pair structure must be preserved: partner maps to partner.
        match (pair_partner[or.index()], pair_partner[oc.index()]) {
            (None, None) => {}
            (Some(pr), Some(pc)) => {
                if net_map.get(&pr) != Some(&pc) {
                    return false;
                }
            }
            _ => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rails::discover_rail_pairs;
    use emc_netlist::{GateKind, Netlist};

    fn ring(nl: &mut Netlist, tag: &str) -> Vec<GateId> {
        // A tiny diamond: input -> buf -> inv, inv joins the input at an
        // And whose output is a marked circuit output. Same shape per tag.
        let a = nl.input(&format!("{tag}.a"));
        let b = nl.gate(GateKind::Buf, &[a], &format!("{tag}.b"));
        let c = nl.gate(GateKind::Inv, &[b], &format!("{tag}.c"));
        let d = nl.gate(GateKind::And, &[a, c], &format!("{tag}.d"));
        nl.mark_output(d);
        (nl.gate_count() - 4..nl.gate_count())
            .map(|i| nl.gate_id(i))
            .collect()
    }

    #[test]
    fn twin_components_form_one_group() {
        let mut nl = Netlist::new();
        let r0 = ring(&mut nl, "r0");
        let r1 = ring(&mut nl, "r1");
        let orbits = detect_orbits(&nl, &[]);
        assert_eq!(orbits.group_count(), 1);
        let g = &orbits.groups[0];
        assert_eq!(g.members.len(), 2);
        assert_eq!(g.members[0].gates, r0);
        assert_eq!(g.members[1].gates, r1);
        // Aligned nets are the gate outputs.
        assert_eq!(g.members[0].nets[1], nl.gate_ref(r0[1]).output());
        assert_eq!(g.members[1].nets[1], nl.gate_ref(r1[1]).output());
    }

    #[test]
    fn kind_mismatch_is_rejected() {
        let mut nl = Netlist::new();
        ring(&mut nl, "r0");
        // Same component shape but one gate kind differs.
        let a = nl.input("q.a");
        let b = nl.gate(GateKind::Buf, &[a], "q.b");
        let c = nl.gate(GateKind::Buf, &[b], "q.c"); // Buf, not Inv
        let d = nl.gate(GateKind::And, &[a, c], "q.d");
        nl.mark_output(d);
        let orbits = detect_orbits(&nl, &[]);
        assert!(orbits.is_empty());
    }

    #[test]
    fn output_mark_asymmetry_is_rejected() {
        let mut nl = Netlist::new();
        let r0 = ring(&mut nl, "r0");
        ring(&mut nl, "r1");
        // r0's internal buf output is additionally marked; r1's is not.
        nl.mark_output(nl.gate_ref(r0[1]).output());
        assert!(nl.validate().is_empty());
        let orbits = detect_orbits(&nl, &[]);
        assert!(orbits.is_empty());
    }

    #[test]
    fn rail_structure_must_map() {
        let mut nl = Netlist::new();
        for tag in ["p", "q"] {
            let a = nl.input(&format!("{tag}.a"));
            let b = nl.input(&format!("{tag}.b"));
            let t = nl.gate(GateKind::Buf, &[a], &format!("{tag}x.t"));
            let f = nl.gate(GateKind::Buf, &[b], &format!("{tag}x.f"));
            let v = nl.gate(GateKind::Or, &[t, f], &format!("{tag}.v"));
            nl.mark_output(v);
        }
        let pairs = discover_rail_pairs(&nl);
        assert_eq!(pairs.len(), 2);
        let orbits = detect_orbits(&nl, &pairs);
        assert_eq!(orbits.group_count(), 1);
        assert_eq!(orbits.groups[0].members.len(), 2);
    }

    #[test]
    fn invalid_netlist_yields_no_orbits() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        nl.gate(GateKind::Buf, &[a], "floating"); // no fanout, not marked
        assert!(!nl.validate().is_empty());
        assert!(detect_orbits(&nl, &[]).is_empty());
    }
}
