//! Vdd-domain partitioning: slicing a netlist into per-domain
//! sub-netlists that share no net, the build-time artifact a parallel
//! simulator runs on.
//!
//! The partitioner places every gate — sources included — in exactly
//! the part the assignment names. Each part's slice is a self-contained
//! [`Netlist`] holding that part's gates, in the same relative order and
//! with the same kinds, drive strengths, input order and net names as
//! the source netlist. A net whose driver and one of its consumers sit
//! in different parts would need its transitions carried across the cut,
//! so [`Partitioned::build`] rejects such an assignment with a
//! [`CrossingNet`]: every part is a union of connected components, and
//! every net has exactly one site.
//!
//! Feedback arcs — input references at or above the gate's own output
//! net index, which the builder API can only create via
//! [`Netlist::connect_feedback`] — are reconstructed the same way
//! (`emcnet` text import uses the identical technique), so slices
//! round-trip state-holding loops exactly.

use std::fmt;

use crate::graph::{Gate, GateId, NetId, Netlist};

/// A net read outside the part that drives it: the reason
/// [`Partitioned::build`] refused an assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossingNet {
    /// The net, in the source netlist.
    pub net: NetId,
    /// The part of the net's driver.
    pub from: u32,
    /// The part of a gate reading the net.
    pub to: u32,
}

impl fmt::Display for CrossingNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "net {} is driven in part {} but read in part {}",
            self.net, self.from, self.to
        )
    }
}

impl std::error::Error for CrossingNet {}

/// A netlist sliced into per-part sub-netlists that share no net. Built
/// once by [`Partitioned::build`]; the slices are handed out by value
/// (they are independent netlists) while the net maps stay here.
#[derive(Debug, Clone)]
pub struct Partitioned {
    slices: Vec<Netlist>,
    /// Per global net: its part and its net in that part's slice.
    sites: Vec<(u32, NetId)>,
    /// Per part: local net → global net.
    globals: Vec<Vec<NetId>>,
}

impl Partitioned {
    /// Slices `netlist` into `parts` sub-netlists. `assignment[g]` names
    /// the part of gate `g`, sources included.
    ///
    /// # Errors
    ///
    /// Returns the first [`CrossingNet`], in gate and input order, when
    /// a gate reads a net driven in another part.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is 0, `assignment` is the wrong length, a gate
    /// is assigned out of range, or a gate's output was moved by
    /// [`Netlist::rewire_output`].
    pub fn build(netlist: &Netlist, assignment: &[u32], parts: usize) -> Result<Self, CrossingNet> {
        assert!(parts >= 1, "at least one part");
        assert_eq!(assignment.len(), netlist.gate_count(), "assignment length");
        for (gid, &p) in netlist.iter_gates().map(|(gid, _)| gid).zip(assignment) {
            assert!(
                (p as usize) < parts,
                "gate {gid} assigned to part {p}, but there are only {parts}"
            );
        }

        // The builder invariant "gate index == output net index" holds
        // for any builder-constructed netlist, so the driver of net n is
        // gate n and input references below a gate's own output index
        // were present at construction; the rest arrived later through
        // `connect_feedback` and are re-closed the same way in pass 2.
        for (gid, g) in netlist.iter_gates() {
            let to = assignment[gid.index()];
            for &net in g.inputs() {
                let from = assignment[net.index()];
                if from != to {
                    return Err(CrossingNet { net, from, to });
                }
            }
        }
        let split_at = |g: Gate| {
            let own = g.output().index();
            g.inputs()
                .iter()
                .position(|n| n.index() >= own)
                .unwrap_or(g.inputs().len())
        };

        // Pass 1: create every gate in its part, in global order.
        let mut slices: Vec<Netlist> = (0..parts).map(|_| Netlist::new()).collect();
        let mut globals: Vec<Vec<NetId>> = vec![Vec::new(); parts];
        let mut sites: Vec<(u32, NetId)> = Vec::with_capacity(netlist.net_count());
        let mut prefix = Vec::new();
        for (gid, g) in netlist.iter_gates() {
            let p = assignment[gid.index()];
            prefix.clear();
            prefix.extend(g.inputs()[..split_at(g)].iter().map(|n| sites[n.index()].1));
            let out = g.output();
            let ln = slices[p as usize].gate_with_drive(
                g.kind(),
                &prefix,
                g.drive(),
                netlist.net_name(out),
            );
            assert_eq!(out.index(), sites.len(), "driver of net n is gate n");
            sites.push((p, ln));
            globals[p as usize].push(out);
        }

        // Pass 2: re-close feedback arcs, in global gate order.
        for (gid, g) in netlist.iter_gates() {
            let p = assignment[gid.index()] as usize;
            for &fb in &g.inputs()[split_at(g)..] {
                slices[p].connect_feedback(sites[g.output().index()].1, sites[fb.index()].1);
            }
        }
        for &out in netlist.outputs() {
            let (p, ln) = sites[out.index()];
            slices[p as usize].mark_output(ln);
        }

        Ok(Partitioned {
            slices,
            sites,
            globals,
        })
    }

    /// Number of parts.
    pub fn parts(&self) -> usize {
        self.slices.len()
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

    /// The only site of a global net: its part and its net there.
    pub fn site(&self, net: NetId) -> (usize, NetId) {
        let (p, ln) = self.sites[net.index()];
        (p as usize, ln)
    }

    /// Maps a local net of part `p` back to its global net.
    pub fn global_net(&self, p: usize, local: NetId) -> NetId {
        self.globals[p][local.index()]
    }

    /// Maps a gate of part `p`'s slice back to its global gate. Gate
    /// `i` drives net `i` in the source netlist and in every slice, so
    /// this is [`Partitioned::global_net`] of the gate's output.
    pub fn global_gate(&self, p: usize, local: GateId) -> GateId {
        GateId::creator_of(self.globals[p][local.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;

    /// Two independent handshake stages, each with a feedback arc and
    /// its own request input; the second also reads a constant. The
    /// returned assignment places the first stage in part 0 and the
    /// second, with the constant, in part 1.
    fn two_stage_fixture() -> (Netlist, Vec<u32>) {
        let mut n = Netlist::new();
        let req_a = n.input("req_a");
        let a = n.gate(GateKind::CElement, &[req_a, req_a], "a");
        let inv_a = n.gate(GateKind::Inv, &[a], "inv_a");
        n.connect_feedback(a, inv_a);
        let tie = n.constant(true, "tie");
        let req_b = n.input("req_b");
        let b = n.gate(GateKind::CElement, &[req_b, tie], "b");
        let inv_b = n.gate(GateKind::Inv, &[b], "inv_b");
        n.connect_feedback(b, inv_b);
        n.mark_output(inv_a);
        n.mark_output(inv_b);
        n.check().expect("fixture is well-formed");
        (n, vec![0, 0, 0, 1, 1, 1, 1])
    }

    #[test]
    fn slices_hold_their_gates_and_map_nets_both_ways() {
        let (n, assignment) = two_stage_fixture();
        let p = Partitioned::build(&n, &assignment, 2).expect("no net crosses");
        assert_eq!(p.parts(), 2);
        assert_eq!(p.slice(0).gate_count(), 3);
        assert_eq!(p.slice(1).gate_count(), 4);
        for net in n.iter_nets() {
            let (part, ln) = p.site(net);
            assert_eq!(part as u32, assignment[net.index()], "driver's part");
            assert_eq!(p.global_net(part, ln), net);
            assert_eq!(p.slice(part).net_name(ln), n.net_name(net));
        }
        for (gid, g) in n.iter_gates() {
            let (part, ln) = p.site(g.output());
            let local = p.slice(part).driver_of(ln).expect("driver");
            assert_eq!(p.global_gate(part, local), gid);
        }
        let tie = p.site(n.find_net("tie").expect("tie"));
        let tie_gate = p.slice(1).driver_of(tie.1).expect("driver");
        assert_eq!(p.slice(1).gate_ref(tie_gate).kind(), GateKind::Const1);
        assert_eq!(p.slice(0).outputs().len(), 1);
        assert_eq!(p.slice(1).outputs().len(), 1);
    }

    #[test]
    fn feedback_arcs_are_reclosed_per_slice() {
        let (n, assignment) = two_stage_fixture();
        let p = Partitioned::build(&n, &assignment, 2).expect("no net crosses");
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
            s.check().expect("each slice is well-formed");
        }
    }

    #[test]
    fn single_part_build_reproduces_the_netlist() {
        let (n, _) = two_stage_fixture();
        let assignment = vec![0; n.gate_count()];
        let p = Partitioned::build(&n, &assignment, 1).expect("one part");
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
    fn a_net_read_in_another_part_is_rejected() {
        let (n, mut assignment) = two_stage_fixture();
        // inv_a moves to part 1; `a` in part 0 reads it back first.
        assignment[2] = 1;
        let err = Partitioned::build(&n, &assignment, 2).expect_err("inv_a crosses");
        assert_eq!(
            err,
            CrossingNet {
                net: n.find_net("inv_a").expect("inv_a"),
                from: 1,
                to: 0,
            }
        );
        assert_eq!(
            err.to_string(),
            format!("net {} is driven in part 1 but read in part 0", err.net)
        );
    }

    #[test]
    fn an_input_read_in_two_parts_is_rejected() {
        let mut n = Netlist::new();
        let req = n.input("req");
        let a = n.gate(GateKind::Buf, &[req], "a");
        let b = n.gate(GateKind::Inv, &[req], "b");
        n.mark_output(a);
        n.mark_output(b);
        let err = Partitioned::build(&n, &[1, 1, 0], 2).expect_err("req is read in both");
        assert_eq!(
            err,
            CrossingNet {
                net: req,
                from: 1,
                to: 0
            }
        );
    }

    #[test]
    #[should_panic(expected = "assigned to part")]
    fn out_of_range_assignment_rejected() {
        let (n, mut assignment) = two_stage_fixture();
        assignment[3] = 7;
        let _ = Partitioned::build(&n, &assignment, 2);
    }
}
