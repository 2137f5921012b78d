//! Vdd-domain partitioning: slicing a netlist into per-domain
//! sub-netlists plus a crossing-net index, the freeze-time artifact a
//! conservative parallel simulator runs on.
//!
//! The partitioner assigns every *real* gate to exactly one part; the
//! part's slice is a self-contained [`Netlist`] holding
//!
//! * the part's own gates, in the same relative order and with the same
//!   kinds, drive strengths, input order and net names as the source
//!   netlist;
//! * a **mirror** of every source gate (input or constant) any of its
//!   gates consume — sources are replicated, not owned, since they fire
//!   identically everywhere;
//! * an **import**: a fresh [`GateKind::Input`] gate standing in for
//!   each foreign-owned net the part consumes. The parallel driver
//!   replays the owning part's committed transitions into the import.
//!
//! Each part-crossing net is described by a [`Crossing`]: the owning
//! slice's driver gate, the consuming parts with their import nets, and
//! the net's *global* fanout load (the owner slice cannot see foreign
//! consumers, so a simulator must present this figure to its delay and
//! energy laws to stay bit-identical with a whole-netlist run).
//!
//! Feedback arcs — input references at or above the gate's own output
//! net index, which the builder API can only create via
//! [`Netlist::connect_feedback`] — are reconstructed the same way
//! (`emcnet` text import uses the identical technique), so slices
//! round-trip state-holding loops exactly.

use crate::gate::GateKind;
use crate::graph::{GateId, NetId, Netlist};

/// Owner value for source gates (inputs and constants), which are
/// mirrored into every consuming part rather than owned by one.
pub const UNOWNED: u32 = u32::MAX;

/// Maximum number of parts (consumer sets are tracked as a `u64`
/// bitmask; real designs have a handful of Vdd domains).
pub const MAX_PARTS: usize = 64;

/// One partition-crossing net.
#[derive(Debug, Clone, PartialEq)]
pub struct Crossing {
    /// The driving gate, as a gate id **in the owner part's slice**.
    pub local_gate: GateId,
    /// The driven net in the source netlist.
    pub global_net: NetId,
    /// Fanout load of the net in the source netlist, in input-load
    /// units — foreign consumers included.
    pub global_fanout_units: f64,
    /// Consuming foreign parts, ascending, each with the output net of
    /// its import `Input` gate.
    pub dst: Vec<(u32, NetId)>,
}

/// A netlist sliced into per-part sub-netlists. Built once by
/// [`Partitioned::build`]; the slices are handed out by value (they are
/// independent netlists) while the index stays here.
#[derive(Debug, Clone)]
pub struct Partitioned {
    parts: usize,
    slices: Vec<Netlist>,
    /// Per global gate: owning part, or [`UNOWNED`] for sources.
    owner: Vec<u32>,
    /// Per owner part, ascending by local gate id.
    crossings: Vec<Vec<Crossing>>,
    /// Per part: local gate index → index into `crossings[part]`, or
    /// `u32::MAX` when the gate's output stays inside the part.
    export_of: Vec<Vec<u32>>,
    /// Per global net: every `(part, local net)` site — the owner's real
    /// net, source mirrors, and imports — ascending by part.
    sites: Vec<Vec<(u32, NetId)>>,
    /// Per global net: the canonical site whose transitions equal the
    /// whole-netlist simulation's (the owner part for gate-driven nets,
    /// the first consuming part for sources). `None` for a source net
    /// no part consumes.
    home: Vec<Option<(u32, NetId)>>,
    /// Per part: local net → global net.
    globals: Vec<Vec<NetId>>,
}

impl Partitioned {
    /// Slices `netlist` into `parts` sub-netlists. `assignment[g]`
    /// names the part owning gate `g`; entries for source gates are
    /// ignored (sources are mirrored into consuming parts).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is 0 or exceeds [`MAX_PARTS`], `assignment` is
    /// the wrong length, or a non-source gate is assigned out of range.
    pub fn build(netlist: &Netlist, assignment: &[u32], parts: usize) -> Self {
        assert!((1..=MAX_PARTS).contains(&parts), "1..={MAX_PARTS} parts");
        assert_eq!(assignment.len(), netlist.gate_count(), "assignment length");
        let nets = netlist.net_count();

        let mut owner = vec![UNOWNED; netlist.gate_count()];
        for (gid, g) in netlist.iter_gates() {
            if g.kind().is_source() {
                continue;
            }
            let p = assignment[gid.index()];
            assert!(
                (p as usize) < parts,
                "gate {gid} assigned to part {p}, but there are only {parts}"
            );
            owner[gid.index()] = p;
        }

        // Which parts consume each net (feedback arcs included: they
        // are ordinary fanout entries).
        let mut consumers = vec![0u64; nets];
        for (gid, g) in netlist.iter_gates() {
            let o = owner[gid.index()];
            if o == UNOWNED {
                continue;
            }
            for &inp in g.inputs() {
                consumers[inp.index()] |= 1u64 << o;
            }
        }

        let mut slices: Vec<Netlist> = (0..parts).map(|_| Netlist::new()).collect();
        // Every slice net is recorded here as it is created, so a global
        // net's local net in part `p` is its site there (a net has at
        // most a few sites).
        let mut sites: Vec<Vec<(u32, NetId)>> = vec![Vec::new(); nets];
        let mut home: Vec<Option<(u32, NetId)>> = vec![None; nets];
        let local = |sites: &[Vec<(u32, NetId)>], net: NetId, p: usize| -> NetId {
            sites[net.index()]
                .iter()
                .find(|&&(q, _)| q as usize == p)
                .map(|&(_, ln)| ln)
                .expect("net has a site in every part that uses it")
        };

        // The builder invariant "gate index == output net index" holds
        // for any builder-constructed netlist, so the driver of net n is
        // gate n and input references below a gate's own output index
        // were present at construction; the rest arrived later through
        // `connect_feedback` and are re-closed the same way in pass 2.
        let split_at = |g: &crate::graph::Gate| {
            let own = g.output().index();
            g.inputs()
                .iter()
                .position(|n| n.index() >= own)
                .unwrap_or(g.inputs().len())
        };

        // Pass 1: create gates, mirrors and imports in global order.
        for (gid, g) in netlist.iter_gates() {
            let out = g.output();
            let name = netlist.net_name(out);
            let kind = g.kind();
            if kind.is_source() {
                let mut bits = consumers[out.index()];
                while bits != 0 {
                    let p = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let ln = match kind {
                        GateKind::Const0 => slices[p].constant(false, name),
                        GateKind::Const1 => slices[p].constant(true, name),
                        _ => slices[p].input(name),
                    };
                    sites[out.index()].push((p as u32, ln));
                    if home[out.index()].is_none() {
                        home[out.index()] = Some((p as u32, ln));
                    }
                }
            } else {
                let p = owner[gid.index()] as usize;
                let split = split_at(g);
                let prefix: Vec<NetId> = g.inputs()[..split]
                    .iter()
                    .map(|&n| local(&sites, n, p))
                    .collect();
                let ln = slices[p].gate_with_drive(kind, &prefix, g.drive(), name);
                sites[out.index()].push((p as u32, ln));
                home[out.index()] = Some((p as u32, ln));
                let mut bits = consumers[out.index()] & !(1u64 << p);
                while bits != 0 {
                    let q = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let iln = slices[q].input(name);
                    sites[out.index()].push((q as u32, iln));
                }
                sites[out.index()].sort_unstable_by_key(|&(part, _)| part);
            }
        }

        // Pass 2: re-close feedback arcs, in global gate order.
        for (gid, g) in netlist.iter_gates() {
            if g.kind().is_source() {
                continue;
            }
            let p = owner[gid.index()] as usize;
            let out = g.output();
            for &fb in &g.inputs()[split_at(g)..] {
                let target = local(&sites, out, p);
                let net = local(&sites, fb, p);
                slices[p].connect_feedback(target, net);
            }
        }

        // Pass 3: crossing index, reverse net maps, output marks.
        let mut crossings: Vec<Vec<Crossing>> = vec![Vec::new(); parts];
        let mut export_of: Vec<Vec<u32>> = (0..parts)
            .map(|p| vec![u32::MAX; slices[p].gate_count()])
            .collect();
        for (gid, g) in netlist.iter_gates() {
            let o = owner[gid.index()];
            if o == UNOWNED {
                continue;
            }
            let out = g.output();
            let foreign = consumers[out.index()] & !(1u64 << o);
            if foreign == 0 {
                continue;
            }
            let p = o as usize;
            let local_net = local(&sites, out, p);
            let local_gate = slices[p]
                .driver_of(local_net)
                .expect("slice net created by its gate");
            let mut dst = Vec::new();
            let mut bits = foreign;
            while bits != 0 {
                let q = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                dst.push((q as u32, local(&sites, out, q)));
            }
            export_of[p][local_gate.index()] =
                u32::try_from(crossings[p].len()).expect("crossing table fits in u32");
            crossings[p].push(Crossing {
                local_gate,
                global_net: out,
                global_fanout_units: netlist.fanout_load_units(out),
                dst,
            });
            // A crossing net may have no local fanout at all; mark it an
            // output so the slice stays well-formed under validate().
            slices[p].mark_output(local_net);
        }
        for &out in netlist.outputs() {
            for &(p, ln) in &sites[out.index()] {
                slices[p as usize].mark_output(ln);
            }
        }

        // Every slice net is one site, so the reverse maps are total and
        // the placeholders are always overwritten.
        let mut globals: Vec<Vec<NetId>> = slices
            .iter()
            .map(|s| vec![netlist.net_id(0); s.net_count()])
            .collect();
        for (gn, net_sites) in netlist.iter_nets().zip(&sites) {
            for &(p, ln) in net_sites {
                globals[p as usize][ln.index()] = gn;
            }
        }

        Partitioned {
            parts,
            slices,
            owner,
            crossings,
            export_of,
            sites,
            home,
            globals,
        }
    }

    /// Number of parts.
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// Borrow of part `p`'s slice netlist.
    pub fn slice(&self, p: usize) -> &Netlist {
        &self.slices[p]
    }

    /// Takes ownership of part `p`'s slice netlist (leaving an empty
    /// one behind) — for handing it to a simulator.
    pub fn take_slice(&mut self, p: usize) -> Netlist {
        std::mem::take(&mut self.slices[p])
    }

    /// The part owning `gate`, or [`UNOWNED`] for sources.
    pub fn owner_of(&self, gate: GateId) -> u32 {
        self.owner[gate.index()]
    }

    /// The crossings owned by part `p`, ascending by local gate id.
    pub fn crossings(&self, p: usize) -> &[Crossing] {
        &self.crossings[p]
    }

    /// Total number of part-crossing nets.
    pub fn crossing_count(&self) -> usize {
        self.crossings.iter().map(Vec::len).sum()
    }

    /// Per-local-gate export table for part `p`: the index into
    /// [`Partitioned::crossings`]`(p)` of the gate's crossing, or
    /// `u32::MAX`.
    pub fn export_table(&self, p: usize) -> &[u32] {
        &self.export_of[p]
    }

    /// Every `(part, local net)` site of a global net, ascending by
    /// part: the owner's real net, source mirrors, and imports.
    pub fn sites(&self, net: NetId) -> &[(u32, NetId)] {
        &self.sites[net.index()]
    }

    /// The canonical site of a global net (owner part for gate-driven
    /// nets, first consuming part for sources); `None` for a source net
    /// nothing consumes.
    pub fn home_site(&self, net: NetId) -> Option<(u32, NetId)> {
        self.home[net.index()]
    }

    /// Maps a local net of part `p` back to its global net.
    pub fn global_net(&self, p: usize, local: NetId) -> NetId {
        self.globals[p][local.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-stage handshake whose stages land in different parts, with
    /// a feedback arc inside each stage and a source shared by both.
    fn crossing_fixture() -> (Netlist, Vec<u32>) {
        let mut n = Netlist::new();
        let req = n.input("req"); // consumed by both parts
        let a = n.gate(GateKind::CElement, &[req, req], "a"); // part 0
        let inv_a = n.gate(GateKind::Inv, &[a], "inv_a"); // part 0
        n.connect_feedback(a, inv_a);
        let b = n.gate(GateKind::CElement, &[a, req], "b"); // part 1
        let inv_b = n.gate(GateKind::Inv, &[b], "inv_b"); // part 1
        n.connect_feedback(b, inv_b);
        n.mark_output(inv_b);
        n.check().expect("fixture is well-formed");
        let assignment = vec![0, 0, 0, 1, 1];
        (n, assignment)
    }

    #[test]
    fn slices_preserve_structure_and_cross_net_is_indexed() {
        let (n, assignment) = crossing_fixture();
        let p = Partitioned::build(&n, &assignment, 2);
        assert_eq!(p.parts(), 2);
        // Part 0: req mirror + a + inv_a. Part 1: req mirror + import
        // of a + b + inv_b.
        assert_eq!(p.slice(0).gate_count(), 3);
        assert_eq!(p.slice(1).gate_count(), 4);
        assert_eq!(p.crossing_count(), 1);
        let c = &p.crossings(0)[0];
        assert_eq!(n.net_name(c.global_net), "a");
        assert_eq!(c.dst.len(), 1);
        assert_eq!(c.dst[0].0, 1);
        // The import in part 1 is an Input gate named like the net.
        let (q, iln) = c.dst[0];
        let imp = p.slice(q as usize).driver_of(iln).expect("import driver");
        assert_eq!(p.slice(q as usize).gate_ref(imp).kind(), GateKind::Input);
        assert_eq!(p.slice(q as usize).net_name(iln), "a");
        // Global fanout of `a` counts both inv_a (part 0) and b
        // (part 1): visible nowhere in part 0's slice alone.
        assert!(
            c.global_fanout_units
                > p.slice(0)
                    .fanout_load_units(p.slice(0).gate_ref(c.local_gate).output())
        );
    }

    #[test]
    fn feedback_arcs_are_reclosed_per_slice() {
        let (n, assignment) = crossing_fixture();
        let p = Partitioned::build(&n, &assignment, 2);
        for part in 0..2 {
            let s = p.slice(part);
            let c_gate = s
                .iter_gates()
                .find(|(_, g)| g.kind() == GateKind::CElement)
                .map(|(id, _)| id)
                .expect("each part holds one C-element");
            assert_eq!(
                s.gate_ref(c_gate).inputs().len(),
                3,
                "2 forward inputs + 1 feedback arc"
            );
        }
    }

    #[test]
    fn sites_and_home_cover_sources_and_imports() {
        let (n, assignment) = crossing_fixture();
        let p = Partitioned::build(&n, &assignment, 2);
        let req = n.find_net("req").expect("req");
        let a = n.find_net("a").expect("a");
        // req is mirrored into both parts; its home is the first.
        assert_eq!(p.sites(req).len(), 2);
        assert_eq!(p.home_site(req).expect("home").0, 0);
        // a lives in part 0 and is imported into part 1.
        assert_eq!(p.sites(a).len(), 2);
        let (hp, hl) = p.home_site(a).expect("home");
        assert_eq!(hp, 0);
        assert_eq!(p.global_net(0, hl), a);
        // Ownership: sources unowned, gates owned per the assignment.
        assert_eq!(p.owner_of(n.driver_of(req).expect("driver")), UNOWNED);
        assert_eq!(p.owner_of(n.driver_of(a).expect("driver")), 0);
    }

    #[test]
    fn single_part_build_reproduces_the_netlist() {
        let (n, _) = crossing_fixture();
        let assignment = vec![0; n.gate_count()];
        let p = Partitioned::build(&n, &assignment, 1);
        assert_eq!(p.crossing_count(), 0);
        let s = p.slice(0);
        assert_eq!(s.gate_count(), n.gate_count());
        assert_eq!(s.net_count(), n.net_count());
        for (gid, g) in n.iter_gates() {
            let sg = s.gate_ref(s.gate_id(gid.index()));
            assert_eq!(sg.kind(), g.kind());
            assert_eq!(sg.inputs(), g.inputs());
            assert_eq!(sg.output(), g.output());
        }
    }

    #[test]
    #[should_panic(expected = "assigned to part")]
    fn out_of_range_assignment_rejected() {
        let (n, mut assignment) = crossing_fixture();
        assignment[2] = 7;
        let _ = Partitioned::build(&n, &assignment, 2);
    }
}
