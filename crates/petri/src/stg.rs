//! Signal Transition Graphs (STGs): Petri nets whose transitions are
//! signal edges — the specification formalism of speed-independent
//! design (Varshavsky/Kishinevsky school, ref \[3\] of the paper).
//!
//! An STG specifies a circuit's allowed behaviour as a net in which each
//! transition is labelled `x+` or `x−`. Two properties make an STG
//! implementable as a speed-independent circuit, and both are checked
//! here by bounded reachability:
//!
//! * **consistency** — along every reachable path, each signal strictly
//!   alternates `+` and `−` (and the level at a marking is unique);
//! * **output persistence** — an enabled *output* transition can only be
//!   disabled by firing itself (no circuit-internal choice), the
//!   net-level counterpart of the simulator's hazard freedom.
//!
//! The module also decides *trace membership*: whether a recorded event
//! sequence is a behaviour of the specification — used to check
//! simulated circuits against their contracts.

use std::collections::HashMap;

use emc_units::Joules;

use crate::net::{Marking, PetriNet, PlaceId, TransitionId};

/// Identifier of an STG signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalId(usize);

impl SignalId {
    /// Dense index of this signal.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Direction of a signal edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Polarity {
    /// Rising edge (`x+`).
    Plus,
    /// Falling edge (`x−`).
    Minus,
}

impl core::fmt::Display for Polarity {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Polarity::Plus => "+",
            Polarity::Minus => "-",
        })
    }
}

/// Why an STG fails its implementability checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StgError {
    /// A transition fired against the current signal level (e.g. `x+`
    /// while `x` was already high).
    Inconsistent {
        /// The offending signal.
        signal: SignalId,
        /// The polarity that misfired.
        polarity: Polarity,
    },
    /// The same marking was reached with two different level vectors.
    AmbiguousLevels,
    /// An enabled non-input transition was disabled by another firing.
    NotOutputPersistent {
        /// The transition that lost its enabling.
        disabled: TransitionId,
        /// The transition whose firing disabled it.
        by: TransitionId,
    },
    /// Bounded exploration hit the cap before finishing.
    ExplorationCapped,
}

impl core::fmt::Display for StgError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StgError::Inconsistent { signal, polarity } => {
                write!(f, "signal s{} fired {polarity} against its level", signal.0)
            }
            StgError::AmbiguousLevels => write!(f, "marking reached with two level vectors"),
            StgError::NotOutputPersistent { disabled, by } => write!(
                f,
                "output transition {} disabled by {}",
                disabled.index(),
                by.index()
            ),
            StgError::ExplorationCapped => write!(f, "state space larger than the cap"),
        }
    }
}

impl std::error::Error for StgError {}

/// A signal transition graph.
#[derive(Debug, Clone, Default)]
pub struct Stg {
    net: PetriNet,
    signal_names: Vec<String>,
    initial_levels: Vec<bool>,
    is_input: Vec<bool>,
    labels: Vec<(SignalId, Polarity)>,
}

impl Stg {
    /// An empty STG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a signal with its initial level; `is_input` marks
    /// environment-controlled signals (exempt from output persistence).
    pub(crate) fn add_signal(&mut self, name: &str, initial: bool, is_input: bool) -> SignalId {
        self.signal_names.push(name.to_owned());
        self.initial_levels.push(initial);
        self.is_input.push(is_input);
        SignalId(self.signal_names.len() - 1)
    }

    /// Adds a labelled transition `signal±` and returns its id.
    pub(crate) fn add_edge(&mut self, signal: SignalId, polarity: Polarity) -> TransitionId {
        let name = format!("{}{polarity}", self.signal_names[signal.0]);
        let t = self.net.add_transition(&name);
        self.labels.push((signal, polarity));
        debug_assert_eq!(self.labels.len(), t.index() + 1);
        t
    }

    /// Adds a place with `initial` tokens.
    pub fn add_place(&mut self, name: &str, initial: u32) -> PlaceId {
        self.net.add_place(name, initial)
    }

    /// Arc `place → transition`, for unit tests that build choice places
    /// and unbounded places, which [`Stg::arc`] cannot.
    ///
    /// # Panics
    ///
    /// Panics on foreign ids or zero weight (see [`PetriNet`]).
    #[cfg(test)]
    pub(crate) fn connect_in(&mut self, t: TransitionId, p: PlaceId) {
        self.net.add_input_arc(t, p, 1);
    }

    /// Arc `transition → place`, the other half of [`Stg::connect_in`].
    ///
    /// # Panics
    ///
    /// Panics on foreign ids or zero weight (see [`PetriNet`]).
    #[cfg(test)]
    pub(crate) fn connect_out(&mut self, t: TransitionId, p: PlaceId) {
        self.net.add_output_arc(t, p, 1);
    }

    /// Convenience: a fresh place from `a` to `b` (the usual STG arc
    /// `a → b` with an implicit place).
    pub(crate) fn arc(&mut self, a: TransitionId, b: TransitionId) {
        let p = self.net.add_place(
            &format!(
                "{}->{}",
                self.net.transition_name(a),
                self.net.transition_name(b)
            ),
            0,
        );
        self.net.add_output_arc(a, p, 1);
        self.net.add_input_arc(b, p, 1);
    }

    /// As [`Stg::arc`] with an initial token — closes a cycle.
    pub(crate) fn arc_with_token(&mut self, a: TransitionId, b: TransitionId) {
        let p = self.net.add_place(
            &format!(
                "{}=>{}",
                self.net.transition_name(a),
                self.net.transition_name(b)
            ),
            1,
        );
        self.net.add_output_arc(a, p, 1);
        self.net.add_input_arc(b, p, 1);
    }

    /// The underlying net (read-only).
    pub fn net(&self) -> &PetriNet {
        &self.net
    }

    /// Number of declared signals.
    pub fn signal_count(&self) -> usize {
        self.signal_names.len()
    }

    /// The label of a transition.
    pub fn label(&self, t: TransitionId) -> (SignalId, Polarity) {
        self.labels[t.index()]
    }

    /// Name of a signal.
    pub fn signal_name(&self, s: SignalId) -> &str {
        &self.signal_names[s.0]
    }

    /// The level `s` was declared with (the level at the initial marking).
    pub fn initial_level(&self, s: SignalId) -> bool {
        self.initial_levels[s.0]
    }

    fn fire_label(&self, levels: &mut [bool], t: TransitionId) -> Result<(), StgError> {
        let (s, pol) = self.labels[t.index()];
        let expected_level = matches!(pol, Polarity::Minus);
        if levels[s.0] != expected_level {
            return Err(StgError::Inconsistent {
                signal: s,
                polarity: pol,
            });
        }
        levels[s.0] = !levels[s.0];
        Ok(())
    }

    /// Checks consistency and output persistence by exploring up to
    /// `cap` markings.
    ///
    /// # Errors
    ///
    /// The first violation found, or [`StgError::ExplorationCapped`] if
    /// the bounded search could not finish.
    pub fn check(&self, cap: usize) -> Result<(), StgError> {
        let mut scratch = self.net.clone();
        let initial = scratch.marking();
        let mut seen: HashMap<Marking, Vec<bool>> = HashMap::new();
        let mut queue: Vec<(Marking, Vec<bool>)> = Vec::new();
        seen.insert(initial.clone(), self.initial_levels.clone());
        queue.push((initial, self.initial_levels.clone()));
        let infinite = Joules(f64::INFINITY);

        while let Some((marking, levels)) = queue.pop() {
            if seen.len() > cap {
                return Err(StgError::ExplorationCapped);
            }
            scratch.set_marking(&marking);
            let enabled: Vec<TransitionId> = scratch.enabled(infinite);
            for &t in &enabled {
                scratch.set_marking(&marking);
                let mut budget = infinite;
                scratch
                    .fire(t, &mut budget)
                    .expect("enabled transition fires");
                let next_marking = scratch.marking();
                let mut next_levels = levels.clone();
                self.fire_label(&mut next_levels, t)?;

                // Output persistence: every *other* enabled non-input
                // transition must still be enabled after t fired.
                for &u in &enabled {
                    if u == t {
                        continue;
                    }
                    let (s, _) = self.labels[u.index()];
                    if self.is_input[s.0] {
                        continue;
                    }
                    scratch.set_marking(&next_marking);
                    if !scratch.logically_enabled(u) {
                        return Err(StgError::NotOutputPersistent { disabled: u, by: t });
                    }
                }

                match seen.get(&next_marking) {
                    Some(existing) => {
                        if *existing != next_levels {
                            return Err(StgError::AmbiguousLevels);
                        }
                    }
                    None => {
                        seen.insert(next_marking.clone(), next_levels.clone());
                        queue.push((next_marking, next_levels));
                    }
                }
            }
        }
        Ok(())
    }

    /// Decides whether an edge sequence is a prefix of the STG's
    /// language (depth-first over label-matching enabled transitions —
    /// handles nondeterministic label choices).
    pub fn accepts(&self, word: &[(SignalId, Polarity)]) -> bool {
        fn go(
            stg: &Stg,
            scratch: &mut PetriNet,
            marking: &Marking,
            word: &[(SignalId, Polarity)],
        ) -> bool {
            let Some(&(s, pol)) = word.first() else {
                return true;
            };
            let infinite = Joules(f64::INFINITY);
            scratch.set_marking(marking);
            let enabled = scratch.enabled(infinite);
            for t in enabled {
                if stg.labels[t.index()] != (s, pol) {
                    continue;
                }
                scratch.set_marking(marking);
                let mut budget = infinite;
                scratch
                    .fire(t, &mut budget)
                    .expect("enabled transition fires");
                let next = scratch.marking();
                if go(stg, scratch, &next, &word[1..]) {
                    return true;
                }
            }
            false
        }
        let mut scratch = self.net.clone();
        let initial = scratch.marking();
        go(self, &mut scratch, &initial, word)
    }

    // ----- classic specifications -----------------------------------

    /// The four-phase handshake: `req+ → ack+ → req− → ack−` in a cycle,
    /// with `req` an input and `ack` an output. Returns
    /// `(stg, req, ack)`.
    pub fn four_phase_handshake() -> (Self, SignalId, SignalId) {
        let mut stg = Stg::new();
        let req = stg.add_signal("req", false, true);
        let ack = stg.add_signal("ack", false, false);
        let rp = stg.add_edge(req, Polarity::Plus);
        let ap = stg.add_edge(ack, Polarity::Plus);
        let rm = stg.add_edge(req, Polarity::Minus);
        let am = stg.add_edge(ack, Polarity::Minus);
        stg.arc(rp, ap);
        stg.arc(ap, rm);
        stg.arc(rm, am);
        stg.arc_with_token(am, rp);
        (stg, req, ack)
    }

    /// The Muller C-element specification: output `c` rises after both
    /// inputs rise and falls after both fall. Returns
    /// `(stg, a, b, c)`.
    pub fn c_element() -> (Self, SignalId, SignalId, SignalId) {
        let mut stg = Stg::new();
        let a = stg.add_signal("a", false, true);
        let b = stg.add_signal("b", false, true);
        let c = stg.add_signal("c", false, false);
        let ap = stg.add_edge(a, Polarity::Plus);
        let bp = stg.add_edge(b, Polarity::Plus);
        let cp = stg.add_edge(c, Polarity::Plus);
        let am = stg.add_edge(a, Polarity::Minus);
        let bm = stg.add_edge(b, Polarity::Minus);
        let cm = stg.add_edge(c, Polarity::Minus);
        stg.arc(ap, cp);
        stg.arc(bp, cp);
        stg.arc(cp, am);
        stg.arc(cp, bm);
        stg.arc(am, cm);
        stg.arc(bm, cm);
        stg.arc_with_token(cm, ap);
        stg.arc_with_token(cm, bp);
        (stg, a, b, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_spec_is_implementable() {
        let (stg, _, _) = Stg::four_phase_handshake();
        assert_eq!(stg.check(1000), Ok(()));
        assert_eq!(stg.signal_count(), 2);
    }

    #[test]
    fn handshake_language() {
        use Polarity::{Minus, Plus};
        let (stg, req, ack) = Stg::four_phase_handshake();
        // The canonical cycle, twice.
        assert!(stg.accepts(&[
            (req, Plus),
            (ack, Plus),
            (req, Minus),
            (ack, Minus),
            (req, Plus),
            (ack, Plus),
        ]));
        // Prefixes are accepted.
        assert!(stg.accepts(&[(req, Plus)]));
        assert!(stg.accepts(&[]));
        // Violations are rejected.
        assert!(!stg.accepts(&[(ack, Plus)]), "ack before req");
        assert!(!stg.accepts(&[(req, Plus), (req, Minus)]), "withdrawn req");
        assert!(
            !stg.accepts(&[(req, Plus), (ack, Plus), (ack, Minus)]),
            "early ack drop"
        );
    }

    #[test]
    fn c_element_spec_is_implementable_and_concurrent() {
        use Polarity::{Minus, Plus};
        let (stg, a, b, c) = Stg::c_element();
        assert_eq!(stg.check(1000), Ok(()));
        // Inputs may rise in either order.
        assert!(stg.accepts(&[(a, Plus), (b, Plus), (c, Plus)]));
        assert!(stg.accepts(&[(b, Plus), (a, Plus), (c, Plus)]));
        // The output never fires early.
        assert!(!stg.accepts(&[(a, Plus), (c, Plus)]));
        // Full cycle.
        assert!(stg.accepts(&[
            (a, Plus),
            (b, Plus),
            (c, Plus),
            (a, Minus),
            (b, Minus),
            (c, Minus),
            (a, Plus),
        ]));
    }

    #[test]
    fn inconsistent_spec_is_caught() {
        // a+ followed directly by a+ again.
        let mut stg = Stg::new();
        let a = stg.add_signal("a", false, true);
        let t1 = stg.add_edge(a, Polarity::Plus);
        let t2 = stg.add_edge(a, Polarity::Plus);
        let p = stg.add_place("p", 1);
        stg.connect_in(t1, p);
        let q = stg.add_place("q", 0);
        stg.connect_out(t1, q);
        stg.connect_in(t2, q);
        assert!(matches!(
            stg.check(100),
            Err(StgError::Inconsistent {
                polarity: Polarity::Plus,
                ..
            })
        ));
    }

    #[test]
    fn output_choice_is_not_persistent() {
        // One token feeding two *output* transitions: firing either
        // disables the other — a circuit cannot implement this without
        // arbitration.
        let mut stg = Stg::new();
        let x = stg.add_signal("x", false, false);
        let y = stg.add_signal("y", false, false);
        let tx = stg.add_edge(x, Polarity::Plus);
        let ty = stg.add_edge(y, Polarity::Plus);
        let p = stg.add_place("choice", 1);
        stg.connect_in(tx, p);
        stg.connect_in(ty, p);
        assert!(matches!(
            stg.check(100),
            Err(StgError::NotOutputPersistent { .. })
        ));
    }

    #[test]
    fn input_choice_is_allowed() {
        // The same free choice on *input* signals is legal (the
        // environment decides). The branches must lead to distinct
        // markings — otherwise the level vector would be ambiguous.
        let mut stg = Stg::new();
        let x = stg.add_signal("x", false, true);
        let y = stg.add_signal("y", false, true);
        let tx = stg.add_edge(x, Polarity::Plus);
        let ty = stg.add_edge(y, Polarity::Plus);
        let p = stg.add_place("choice", 1);
        stg.connect_in(tx, p);
        stg.connect_in(ty, p);
        let px = stg.add_place("took_x", 0);
        let py = stg.add_place("took_y", 0);
        stg.connect_out(tx, px);
        stg.connect_out(ty, py);
        assert_eq!(stg.check(100), Ok(()));
    }

    #[test]
    fn merged_marking_with_differing_levels_is_ambiguous() {
        // An input choice whose branches converge on the same marking
        // carries two level vectors — unimplementable.
        let mut stg = Stg::new();
        let x = stg.add_signal("x", false, true);
        let y = stg.add_signal("y", false, true);
        let tx = stg.add_edge(x, Polarity::Plus);
        let ty = stg.add_edge(y, Polarity::Plus);
        let p = stg.add_place("choice", 1);
        stg.connect_in(tx, p);
        stg.connect_in(ty, p);
        assert_eq!(stg.check(100), Err(StgError::AmbiguousLevels));
    }

    #[test]
    fn exploration_cap_reported() {
        // A consistent cycle that deposits one token per lap into a
        // place nobody consumes: infinitely many markings, all levels
        // consistent — only the cap can stop the search.
        let mut stg = Stg::new();
        let x = stg.add_signal("x", false, false);
        let tp = stg.add_edge(x, Polarity::Plus);
        let tm = stg.add_edge(x, Polarity::Minus);
        stg.arc(tp, tm);
        stg.arc_with_token(tm, tp);
        let grow = stg.add_place("grow", 0);
        stg.connect_out(tp, grow);
        assert_eq!(stg.check(20), Err(StgError::ExplorationCapped));
    }

    #[test]
    fn labels_and_names() {
        let (stg, req, _) = Stg::four_phase_handshake();
        assert_eq!(stg.signal_name(req), "req");
        let (s, pol) = stg.label(stg.net().transition_ids().next().unwrap());
        assert_eq!(s, req);
        assert_eq!(pol, Polarity::Plus);
        assert_eq!(format!("{pol}"), "+");
    }

    #[test]
    fn error_display() {
        for e in [
            StgError::Inconsistent {
                signal: SignalId(0),
                polarity: Polarity::Plus,
            },
            StgError::AmbiguousLevels,
            StgError::ExplorationCapped,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
