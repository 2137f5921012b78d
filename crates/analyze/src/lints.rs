//! Structural SA lints: zero-exploration findings over the gate graph.
//!
//! Each rule here is decidable from the netlist alone (plus the initial
//! value overrides), without exploring a single state — the `--static`
//! tier of `emc-lint` and the pre-filter of `emc-fuzz` run exactly this
//! module plus the rail rules of [`crate::rails`]. Rule IDs live in the
//! [`crate::RULES`] registry and are documented in DESIGN.md.

use std::collections::HashMap;

use emc_netlist::{Diagnostic, GateKind, NetId, Netlist, Severity};

use crate::rails::RailPair;

/// Fork census produced alongside the SA004 pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ForkStats {
    /// Nets read by ≥ 2 distinct gates.
    pub(crate) forks: usize,
    /// Forks with at least one unacknowledged (isochronic) branch.
    pub(crate) isochronic: usize,
}

/// Runs every SA structural lint, returning the diagnostics (unsorted)
/// and the fork census.
pub(crate) fn structural_lints(
    netlist: &Netlist,
    pairs: &[RailPair],
    initial: &[(NetId, bool)],
) -> (Vec<Diagnostic>, ForkStats) {
    let mut diags = Vec::new();
    sa001_unpaired_rails(netlist, &mut diags);
    sa002_completion_convergence(netlist, pairs, &mut diags);
    sa003_deadlock_candidates(netlist, initial, &mut diags);
    let stats = sa004_isochronic_forks(netlist, &mut diags);
    sa005_duplicate_inputs(netlist, &mut diags);
    sa006_rail_aliasing(netlist, pairs, &mut diags);
    (diags, stats)
}

/// `SA001`: a net named `x.t` with no `x.f` sibling (or vice versa).
/// The dual-rail protocol checks key on complete pairs, so a lone rail
/// silently opts out of `DR001`/`DR002`/`CD001` coverage.
fn sa001_unpaired_rails(netlist: &Netlist, diags: &mut Vec<Diagnostic>) {
    for net in netlist.iter_nets() {
        let name = netlist.net_name(net);
        let (base, missing) = if let Some(b) = name.strip_suffix(".t") {
            (b, format!("{b}.f"))
        } else if let Some(b) = name.strip_suffix(".f") {
            (b, format!("{b}.t"))
        } else {
            continue;
        };
        if netlist.find_net(&missing).is_none() {
            diags.push(
                Diagnostic::new(
                    "SA001",
                    Severity::Warning,
                    format!(
                        "net '{name}' looks like a dual-rail signal '{base}' but its \
                         partner '{missing}' does not exist — rail unpaired, protocol \
                         checks cannot cover it"
                    ),
                )
                .at_net(net),
            );
        }
    }
}

/// `SA002`: within one connected component, the per-bit validity
/// detectors of ≥ 2 dual-rail output pairs never converge on a common
/// downstream gate. Each bit may be individually covered (so `CD001`
/// stays quiet) yet no single completion signal can testify that *all*
/// bits arrived — the component lacks a completion tree root.
fn sa002_completion_convergence(
    netlist: &Netlist,
    pairs: &[RailPair],
    diags: &mut Vec<Diagnostic>,
) {
    let outputs = netlist.outputs();
    // (component root, pair, validity gates) for covered output pairs.
    let mut covered: Vec<(usize, &RailPair, Vec<usize>)> = Vec::new();
    let comp = components(netlist, pairs);
    for p in pairs {
        if !(outputs.contains(&p.t) && outputs.contains(&p.f)) {
            continue;
        }
        let validity: Vec<usize> = netlist
            .iter_gates()
            .filter(|(_, g)| {
                matches!(g.kind(), GateKind::Or | GateKind::Nor)
                    && g.inputs().contains(&p.t)
                    && g.inputs().contains(&p.f)
            })
            .map(|(id, _)| id.index())
            .collect();
        if validity.is_empty() {
            continue; // CD001's territory.
        }
        let root = match netlist.driver_of(p.t) {
            Some(d) => comp[d.index()],
            None => continue,
        };
        covered.push((root, p, validity));
    }
    type CoveredEntry<'a> = (usize, &'a RailPair, Vec<usize>);
    let mut by_comp: HashMap<usize, Vec<&CoveredEntry<'_>>> = HashMap::new();
    for entry in &covered {
        by_comp.entry(entry.0).or_default().push(entry);
    }
    let mut roots: Vec<usize> = by_comp.keys().copied().collect();
    roots.sort_unstable();
    for root in roots {
        let entries = &by_comp[&root];
        if entries.len() < 2 {
            continue;
        }
        // Intersect the forward-reachable gate sets of each pair's
        // validity detectors; empty intersection = no shared root.
        let mut common: Option<Vec<bool>> = None;
        for (_, _, validity) in entries.iter() {
            let reach = forward_reach(netlist, validity);
            common = Some(match common {
                None => reach,
                Some(mut c) => {
                    for (ci, ri) in c.iter_mut().zip(&reach) {
                        *ci &= ri;
                    }
                    c
                }
            });
        }
        if common.is_some_and(|c| !c.iter().any(|&b| b)) {
            let first = entries[0].1;
            diags.push(
                Diagnostic::new(
                    "SA002",
                    Severity::Warning,
                    format!(
                        "completion signals of {} dual-rail outputs (first: '{}') never \
                         converge on a shared completion detector — no gate can testify \
                         that every bit arrived",
                        entries.len(),
                        first.name
                    ),
                )
                .at_net(first.t),
            );
        }
    }
}

/// Gate→component-root labels of the undirected driver/reader graph
/// (rail partners united, matching the orbit pass).
fn components(netlist: &Netlist, pairs: &[RailPair]) -> Vec<usize> {
    let gates = netlist.gate_count();
    let mut parent: Vec<usize> = (0..gates).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let union = |parent: &mut Vec<usize>, a: usize, b: usize| {
        let (ra, rb) = (find(parent, a), find(parent, b));
        if ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            parent[hi] = lo;
        }
    };
    for net in netlist.iter_nets() {
        if let Some(d) = netlist.driver_of(net) {
            for &h in netlist.fanout(net) {
                union(&mut parent, d.index(), h.index());
            }
        }
    }
    for p in pairs {
        if let (Some(dt), Some(df)) = (netlist.driver_of(p.t), netlist.driver_of(p.f)) {
            union(&mut parent, dt.index(), df.index());
        }
    }
    (0..gates).map(|i| find(&mut parent, i)).collect()
}

/// Gates reachable (inclusive) by following driver→reader edges from
/// `seeds`, as a dense membership vector.
fn forward_reach(netlist: &Netlist, seeds: &[usize]) -> Vec<bool> {
    let mut seen = vec![false; netlist.gate_count()];
    let mut stack: Vec<usize> = seeds.to_vec();
    for &s in seeds {
        seen[s] = true;
    }
    while let Some(i) = stack.pop() {
        let out = netlist.gate_ref(netlist.gate_id(i)).output();
        for &h in netlist.fanout(out) {
            if !seen[h.index()] {
                seen[h.index()] = true;
                stack.push(h.index());
            }
        }
    }
    seen
}

/// `SA003`: a gate-graph cycle with **no input from outside the cycle**
/// and **no gate excited at the initial assignment** can never fire —
/// the classic token-free ring. Reported as a candidate (the lint
/// cannot see environment writes to arbitrary nets), which is why it is
/// a warning rather than an error.
fn sa003_deadlock_candidates(
    netlist: &Netlist,
    initial: &[(NetId, bool)],
    diags: &mut Vec<Diagnostic>,
) {
    let gates = netlist.gate_count();
    if gates == 0 {
        return;
    }
    // Initial net assignment: all-low, constants, then overrides — the
    // same convention the explorer starts from.
    let mut value = vec![false; netlist.net_count()];
    for (_, g) in netlist.iter_gates() {
        if g.kind() == GateKind::Const1 {
            value[g.output().index()] = true;
        }
    }
    for &(net, v) in initial {
        value[net.index()] = v;
    }

    for scc in tarjan_sccs(netlist) {
        // Only true cycles: size ≥ 2, or a single gate reading itself.
        let cyclic = scc.len() >= 2 || {
            let g = netlist.gate_ref(netlist.gate_id(scc[0]));
            g.inputs().contains(&g.output())
        };
        if !cyclic {
            continue;
        }
        let mut in_scc = vec![false; gates];
        for &i in &scc {
            in_scc[i] = true;
        }
        // Constants outside the cycle cannot wake it; anything else
        // (inputs the environment drives, upstream logic) can.
        let closed = scc.iter().all(|&i| {
            netlist
                .gate_ref(netlist.gate_id(i))
                .inputs()
                .iter()
                .all(|&n| {
                    netlist.driver_of(n).is_some_and(|d| {
                        in_scc[d.index()]
                            || matches!(
                                netlist.gate_ref(d).kind(),
                                GateKind::Const0 | GateKind::Const1
                            )
                    })
                })
        });
        if !closed {
            continue;
        }
        let excited = scc.iter().any(|&i| {
            let g = netlist.gate_ref(netlist.gate_id(i));
            match g.kind() {
                // Edge-triggered primitives hold no pending edge at the
                // initial state; sources never fire on their own.
                GateKind::Toggle | GateKind::Dff => false,
                k if k.is_source() => false,
                k => {
                    let ins: Vec<bool> = g.inputs().iter().map(|&n| value[n.index()]).collect();
                    k.eval(&ins, value[g.output().index()]) != value[g.output().index()]
                }
            }
        });
        if !excited {
            let anchor = netlist.gate_id(*scc.iter().min().expect("non-empty scc"));
            let out = netlist.gate_ref(anchor).output();
            diags.push(
                Diagnostic::new(
                    "SA003",
                    Severity::Warning,
                    format!(
                        "closed cycle of {} gate(s) through net '{}' is stable at the \
                         initial state and takes no outside input — static deadlock \
                         candidate (token-free ring)",
                        scc.len(),
                        netlist.net_name(out)
                    ),
                )
                .at_gate(anchor)
                .at_net(out),
            );
        }
    }
}

/// Iterative Tarjan over the gate digraph (driver → reader). Returns
/// SCCs with member indices ascending, ordered by smallest member.
fn tarjan_sccs(netlist: &Netlist) -> Vec<Vec<usize>> {
    let n = netlist.gate_count();
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    // Explicit DFS frames: (gate, edge cursor).
    let mut frames: Vec<(usize, usize)> = Vec::new();

    let succ = |i: usize, k: usize| -> Option<usize> {
        let out = netlist.gate_ref(netlist.gate_id(i)).output();
        netlist.fanout(out).get(k).map(|g| g.index())
    };

    for start in 0..n {
        if index[start] != UNSET {
            continue;
        }
        frames.push((start, 0));
        index[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;
        while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
            if let Some(w) = succ(v, *cursor) {
                *cursor += 1;
                if index[w] == UNSET {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    scc.sort_unstable();
                    sccs.push(scc);
                }
            }
        }
    }
    sccs.sort_by_key(|s| s[0]);
    sccs
}

/// `SA004`: a fork whose branch enters an absorbing multi-input gate
/// (And/Or/Nand/Nor/Majority3) or a D flip-flop is only safe under the
/// isochronic-fork timing assumption — the branch transition can be
/// swallowed without acknowledgement. C-elements, latches and toggles
/// acknowledge every input eventually; Xor flips on every input; single-
/// input gates acknowledge trivially. Reported as info: the assumption
/// is standard in quasi-delay-insensitive design, but knowing *where*
/// the assumptions live is what separates QDI from merely hopeful.
fn sa004_isochronic_forks(netlist: &Netlist, diags: &mut Vec<Diagnostic>) -> ForkStats {
    let mut stats = ForkStats::default();
    let mut readers: Vec<usize> = Vec::new();
    for net in netlist.iter_nets() {
        readers.clear();
        readers.extend(netlist.fanout(net).iter().map(|g| g.index()));
        readers.sort_unstable();
        readers.dedup();
        if readers.len() < 2 {
            continue;
        }
        stats.forks += 1;
        let assumed: Vec<usize> = readers
            .iter()
            .copied()
            .filter(|&i| {
                matches!(
                    netlist.gate_ref(netlist.gate_id(i)).kind(),
                    GateKind::And
                        | GateKind::Or
                        | GateKind::Nand
                        | GateKind::Nor
                        | GateKind::Majority3
                        | GateKind::Dff
                )
            })
            .collect();
        if assumed.is_empty() {
            continue;
        }
        stats.isochronic += 1;
        let first = netlist.gate_id(assumed[0]);
        diags.push(
            Diagnostic::new(
                "SA004",
                Severity::Info,
                format!(
                    "fork of net '{}' ({} branches) relies on isochronicity: \
                     unacknowledged branch into {} {first}",
                    netlist.net_name(net),
                    readers.len(),
                    netlist.gate_ref(first).kind(),
                ),
            )
            .at_net(net)
            .at_gate(first),
        );
    }
    stats
}

/// `SA005`: a gate reading the same net in several input slots. Legal
/// (the SRAM word-line C-element does it deliberately to make a Buf
/// with C-element switching), but worth surfacing: duplicate slots
/// often indicate a mis-wired builder.
fn sa005_duplicate_inputs(netlist: &Netlist, diags: &mut Vec<Diagnostic>) {
    for (gid, g) in netlist.iter_gates() {
        let mut ins: Vec<NetId> = g.inputs().to_vec();
        ins.sort_unstable();
        let mut i = 0;
        while i < ins.len() {
            let j = ins[i..].iter().take_while(|&&n| n == ins[i]).count();
            if j >= 2 {
                diags.push(
                    Diagnostic::new(
                        "SA005",
                        Severity::Info,
                        format!(
                            "gate {gid} ('{}') reads net '{}' in {j} input slots",
                            netlist.net_name(g.output()),
                            netlist.net_name(ins[i]),
                        ),
                    )
                    .at_gate(gid)
                    .at_net(ins[i]),
                );
            }
            i += j;
        }
    }
}

/// `SA006`: both rails of a discovered pair computed by *identical*
/// gates (same kind, same slot-ordered inputs). The rails are then the
/// same Boolean function, so the illegal dual-rail codeword `(1,1)` is
/// reachable by construction — a hard protocol violation visible
/// without exploring anything.
fn sa006_rail_aliasing(netlist: &Netlist, pairs: &[RailPair], diags: &mut Vec<Diagnostic>) {
    for p in pairs {
        let (Some(dt), Some(df)) = (netlist.driver_of(p.t), netlist.driver_of(p.f)) else {
            continue;
        };
        if dt == df {
            continue; // one gate cannot drive two nets
        }
        let (gt, gf) = (netlist.gate_ref(dt), netlist.gate_ref(df));
        if gt.kind().is_source() || gf.kind().is_source() {
            continue;
        }
        if gt.kind() == gf.kind() && gt.inputs() == gf.inputs() {
            diags.push(
                Diagnostic::new(
                    "SA006",
                    Severity::Error,
                    format!(
                        "rails of '{}' are driven by identical {} gates over the same \
                         inputs — the illegal codeword (1,1) is reachable by construction",
                        p.name,
                        gt.kind(),
                    ),
                )
                .at_net(p.t)
                .at_gate(dt),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rails::discover_rail_pairs;

    #[test]
    fn unpaired_rail_warns() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        nl.gate(GateKind::Buf, &[a], "x.t");
        let (diags, _) = structural_lints(&nl, &discover_rail_pairs(&nl), &[]);
        assert!(diags.iter().any(|d| d.rule == "SA001"));
        let mut nl2 = Netlist::new();
        let a2 = nl2.input("a");
        nl2.gate(GateKind::Buf, &[a2], "x.t");
        nl2.gate(GateKind::Inv, &[a2], "x.f");
        let (diags2, _) = structural_lints(&nl2, &discover_rail_pairs(&nl2), &[]);
        assert!(!diags2.iter().any(|d| d.rule == "SA001"));
    }

    #[test]
    fn divergent_completion_trees_warn_convergent_do_not() {
        // Two output pairs, each with its own validity OR, no shared
        // downstream gate -> SA002.
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let xt = nl.gate(GateKind::Buf, &[a], "x.t");
        let xf = nl.gate(GateKind::Inv, &[a], "x.f");
        let yt = nl.gate(GateKind::Buf, &[a], "y.t");
        let yf = nl.gate(GateKind::Inv, &[a], "y.f");
        for n in [xt, xf, yt, yf] {
            nl.mark_output(n);
        }
        let vx = nl.gate(GateKind::Or, &[xt, xf], "x.v");
        let vy = nl.gate(GateKind::Or, &[yt, yf], "y.v");
        nl.mark_output(vx);
        nl.mark_output(vy);
        let pairs = discover_rail_pairs(&nl);
        let (diags, _) = structural_lints(&nl, &pairs, &[]);
        assert!(diags.iter().any(|d| d.rule == "SA002"));

        // Joining the validity signals with a C-element clears it.
        let done = nl.gate(GateKind::CElement, &[vx, vy], "done");
        nl.mark_output(done);
        let (diags, _) = structural_lints(&nl, &pairs, &[]);
        assert!(!diags.iter().any(|d| d.rule == "SA002"));
    }

    #[test]
    fn env_fed_ring_is_not_a_deadlock_candidate() {
        // C-element loop whose inputs include an environment-driven
        // net: open cycle, the env can wake it, no warning.
        let mut nl = Netlist::new();
        let seed = nl.input("seed");
        let p = nl.gate(GateKind::CElement, &[seed, seed], "p");
        let q = nl.gate(GateKind::CElement, &[p, p], "q");
        nl.connect_feedback(p, q);
        nl.mark_output(q);
        let (diags, _) = structural_lints(&nl, &[], &[]);
        assert!(!diags.iter().any(|d| d.rule == "SA003"));
    }

    #[test]
    fn closed_stable_loop_trips_sa003() {
        // Cross-coupled C-elements fed only by a constant: the cycle is
        // closed (constants never fire), stable at all-low, token-free.
        let mut nl = Netlist::new();
        let k = nl.constant(false, "k");
        let p = nl.gate(GateKind::CElement, &[k, k], "p");
        let q = nl.gate(GateKind::CElement, &[p, p], "q");
        nl.connect_feedback(p, q);
        nl.mark_output(q);
        assert!(nl.validate().is_empty());
        let (diags, _) = structural_lints(&nl, &[], &[]);
        let d = diags
            .iter()
            .find(|d| d.rule == "SA003")
            .expect("SA003 fires");
        assert_eq!(d.severity, Severity::Warning);

        // Seeding a token via an initial override clears the candidate:
        // with p high, q is excited and the ring runs.
        let (diags, _) = structural_lints(&nl, &[], &[(p, true)]);
        assert!(!diags.iter().any(|d| d.rule == "SA003"));
    }

    #[test]
    fn isochronic_fork_classification() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.gate(GateKind::Buf, &[a], "b");
        let g = nl.gate(GateKind::And, &[a, b], "g");
        nl.mark_output(g);
        let (diags, stats) = structural_lints(&nl, &[], &[]);
        assert_eq!(stats.forks, 1);
        assert_eq!(stats.isochronic, 1);
        assert!(diags.iter().any(|d| d.rule == "SA004"));

        // Fork into two C-elements: acknowledged, no assumption.
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let x = nl.input("x");
        let c1 = nl.gate(GateKind::CElement, &[a, x], "c1");
        let c2 = nl.gate(GateKind::CElement, &[a, x], "c2");
        nl.mark_output(c1);
        nl.mark_output(c2);
        let (diags, stats) = structural_lints(&nl, &[], &[]);
        assert_eq!(stats.isochronic, 0);
        assert!(!diags.iter().any(|d| d.rule == "SA004"));
    }

    #[test]
    fn duplicate_input_slots_are_info() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let c = nl.gate(GateKind::CElement, &[a, a], "c");
        nl.mark_output(c);
        let (diags, _) = structural_lints(&nl, &[], &[]);
        let d = diags
            .iter()
            .find(|d| d.rule == "SA005")
            .expect("SA005 fires");
        assert_eq!(d.severity, Severity::Info);
    }

    #[test]
    fn aliased_rails_are_an_error() {
        let mut nl = Netlist::new();
        let req = nl.input("req");
        let t = nl.gate(GateKind::Buf, &[req], "x.t");
        let f = nl.gate(GateKind::Buf, &[req], "x.f");
        nl.mark_output(t);
        nl.mark_output(f);
        let pairs = discover_rail_pairs(&nl);
        let (diags, _) = structural_lints(&nl, &pairs, &[]);
        let d = diags
            .iter()
            .find(|d| d.rule == "SA006")
            .expect("SA006 fires");
        assert_eq!(d.severity, Severity::Error);

        // Differing inputs: legal encoding, no SA006.
        let mut nl = Netlist::new();
        let rq = nl.input("rq");
        let nrq = nl.gate(GateKind::Inv, &[rq], "nrq");
        let t = nl.gate(GateKind::Buf, &[rq], "y.t");
        let f = nl.gate(GateKind::Buf, &[nrq], "y.f");
        nl.mark_output(t);
        nl.mark_output(f);
        let pairs = discover_rail_pairs(&nl);
        let (diags, _) = structural_lints(&nl, &pairs, &[]);
        assert!(!diags.iter().any(|d| d.rule == "SA006"));
    }
}
