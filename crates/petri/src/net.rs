//! The energy-token Petri net structure and firing rule.

use std::fmt;

use emc_units::Joules;

/// Identifier of a place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlaceId(usize);

/// Identifier of a transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransitionId(usize);

impl TransitionId {
    /// Dense index of this transition.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A marking: token counts per place, in place order.
pub type Marking = Vec<u32>;

/// Errors from [`PetriNet::fire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FireError {
    /// An input place lacks the tokens the arc weight demands.
    NotEnabled,
    /// Logically enabled, but the energy budget cannot pay the cost.
    InsufficientEnergy,
}

impl fmt::Display for FireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FireError::NotEnabled => write!(f, "transition is not logically enabled"),
            FireError::InsufficientEnergy => write!(f, "energy budget below transition cost"),
        }
    }
}

impl std::error::Error for FireError {}

#[derive(Debug, Clone, Default)]
struct Transition {
    name: String,
    inputs: Vec<(PlaceId, u32)>,
    outputs: Vec<(PlaceId, u32)>,
    energy_cost: Joules,
}

/// A place/transition net with weighted arcs and per-transition energy
/// costs paid from a caller-held budget.
#[derive(Debug, Clone, Default)]
pub struct PetriNet {
    place_names: Vec<String>,
    tokens: Vec<u32>,
    transitions: Vec<Transition>,
}

impl PetriNet {
    /// An empty net.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a place with an initial token count.
    pub fn add_place(&mut self, name: &str, initial: u32) -> PlaceId {
        self.place_names.push(name.to_owned());
        self.tokens.push(initial);
        PlaceId(self.place_names.len() - 1)
    }

    /// Adds a transition (no arcs, zero energy cost).
    pub fn add_transition(&mut self, name: &str) -> TransitionId {
        self.transitions.push(Transition {
            name: name.to_owned(),
            ..Transition::default()
        });
        TransitionId(self.transitions.len() - 1)
    }

    /// Adds an input arc `place → transition` with the given weight.
    ///
    /// # Panics
    ///
    /// Panics on foreign ids or zero weight.
    pub fn add_input_arc(&mut self, t: TransitionId, p: PlaceId, weight: u32) {
        assert!(weight > 0, "arc weight must be positive");
        assert!(p.0 < self.tokens.len(), "foreign place");
        self.transitions[t.0].inputs.push((p, weight));
    }

    /// Adds an output arc `transition → place` with the given weight.
    ///
    /// # Panics
    ///
    /// Panics on foreign ids or zero weight.
    pub fn add_output_arc(&mut self, t: TransitionId, p: PlaceId, weight: u32) {
        assert!(weight > 0, "arc weight must be positive");
        assert!(p.0 < self.tokens.len(), "foreign place");
        self.transitions[t.0].outputs.push((p, weight));
    }

    /// Sets the energy quantum consumed by each firing of `t`.
    ///
    /// # Panics
    ///
    /// Panics if the cost is negative.
    pub fn set_energy_cost(&mut self, t: TransitionId, cost: Joules) {
        assert!(cost.0 >= 0.0, "negative energy cost");
        self.transitions[t.0].energy_cost = cost;
    }

    /// Name of a transition.
    pub(crate) fn transition_name(&self, t: TransitionId) -> &str {
        &self.transitions[t.0].name
    }

    /// Number of places.
    pub fn place_count(&self) -> usize {
        self.place_names.len()
    }

    /// Number of transitions.
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// All transition ids.
    pub fn transition_ids(&self) -> impl Iterator<Item = TransitionId> {
        (0..self.transitions.len()).map(TransitionId)
    }

    /// Tokens currently in `p`.
    pub fn tokens(&self, p: PlaceId) -> u32 {
        self.tokens[p.0]
    }

    /// The current marking (token counts in place order).
    pub fn marking(&self) -> Marking {
        self.tokens.clone()
    }

    /// Replaces the current marking (for reachability exploration).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the place count.
    pub fn set_marking(&mut self, m: &Marking) {
        assert_eq!(m.len(), self.tokens.len(), "marking length mismatch");
        self.tokens.copy_from_slice(m);
    }

    /// `true` if `t`'s input places carry enough tokens (energy ignored).
    pub fn logically_enabled(&self, t: TransitionId) -> bool {
        self.transitions[t.0]
            .inputs
            .iter()
            .all(|&(p, w)| self.tokens[p.0] >= w)
    }

    /// Transitions that are both logically enabled and affordable within
    /// `budget`.
    pub fn enabled(&self, budget: Joules) -> Vec<TransitionId> {
        self.transition_ids()
            .filter(|&t| self.logically_enabled(t) && self.transitions[t.0].energy_cost <= budget)
            .collect()
    }

    /// Fires `t`, consuming input tokens and its energy cost from
    /// `budget`, and producing output tokens.
    ///
    /// # Errors
    ///
    /// [`FireError::NotEnabled`] if tokens are missing;
    /// [`FireError::InsufficientEnergy`] if the budget cannot pay.
    pub fn fire(&mut self, t: TransitionId, budget: &mut Joules) -> Result<(), FireError> {
        if !self.logically_enabled(t) {
            return Err(FireError::NotEnabled);
        }
        let cost = self.transitions[t.0].energy_cost;
        if cost > *budget {
            return Err(FireError::InsufficientEnergy);
        }
        for &(p, w) in &self.transitions[t.0].inputs {
            self.tokens[p.0] -= w;
        }
        for &(p, w) in &self.transitions[t.0].outputs {
            self.tokens[p.0] += w;
        }
        *budget -= cost;
        Ok(())
    }

    /// Renders the net as a Graphviz digraph: circles for places
    /// (labelled with their token count), boxes for transitions.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph petri {\n  rankdir=LR;\n");
        for (i, name) in self.place_names.iter().enumerate() {
            let _ = writeln!(
                out,
                "  p{i} [shape=circle label=\"{name}\\n{}\"];",
                self.tokens[i]
            );
        }
        for (i, t) in self.transitions.iter().enumerate() {
            let _ = writeln!(out, "  t{i} [shape=box label=\"{}\"];", t.name);
            for &(p, w) in &t.inputs {
                let lbl = if w > 1 {
                    format!(" [label={w}]")
                } else {
                    String::new()
                };
                let _ = writeln!(out, "  p{} -> t{i}{lbl};", p.0);
            }
            for &(p, w) in &t.outputs {
                let lbl = if w > 1 {
                    format!(" [label={w}]")
                } else {
                    String::new()
                };
                let _ = writeln!(out, "  t{i} -> p{}{lbl};", p.0);
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-slot producer/consumer ring.
    fn producer_consumer() -> (PetriNet, [PlaceId; 2], [TransitionId; 2]) {
        let mut n = PetriNet::new();
        let empty = n.add_place("empty", 2);
        let full = n.add_place("full", 0);
        let produce = n.add_transition("produce");
        let consume = n.add_transition("consume");
        n.add_input_arc(produce, empty, 1);
        n.add_output_arc(produce, full, 1);
        n.add_input_arc(consume, full, 1);
        n.add_output_arc(consume, empty, 1);
        (n, [empty, full], [produce, consume])
    }

    #[test]
    fn producer_consumer_token_game() {
        let (mut n, [empty, full], [produce, consume]) = producer_consumer();
        let mut e = Joules(f64::INFINITY);
        assert!(n.fire(produce, &mut e).is_ok());
        assert!(n.fire(produce, &mut e).is_ok());
        assert_eq!(n.tokens(empty), 0);
        assert_eq!(n.tokens(full), 2);
        // Buffer full: produce disabled.
        assert_eq!(n.fire(produce, &mut e), Err(FireError::NotEnabled));
        assert!(n.fire(consume, &mut e).is_ok());
        assert_eq!(n.tokens(full), 1);
    }

    #[test]
    fn slot_count_is_invariant() {
        let (mut n, [empty, full], [produce, consume]) = producer_consumer();
        let mut e = Joules(f64::INFINITY);
        let before = n.tokens(empty) + n.tokens(full);
        for t in [produce, consume, produce, produce, consume] {
            let _ = n.fire(t, &mut e);
            assert_eq!(n.tokens(empty) + n.tokens(full), before);
        }
    }

    #[test]
    fn energy_gating() {
        let (mut n, _, [produce, _]) = producer_consumer();
        n.set_energy_cost(produce, Joules(5.0));
        let mut e = Joules(4.0);
        assert!(n.enabled(e).is_empty());
        assert_eq!(n.fire(produce, &mut e), Err(FireError::InsufficientEnergy));
        e += Joules(1.0);
        assert_eq!(n.enabled(e), vec![produce]);
        n.fire(produce, &mut e).unwrap();
        assert_eq!(e, Joules(0.0));

        // An input place that never gets a token: stuck at any budget.
        let mut stuck = PetriNet::new();
        let p = stuck.add_place("p", 0);
        let t = stuck.add_transition("t");
        stuck.add_input_arc(t, p, 1);
        assert!(stuck.enabled(Joules(f64::INFINITY)).is_empty());
    }

    #[test]
    fn weighted_arcs() {
        let mut n = PetriNet::new();
        let p = n.add_place("p", 3);
        let q = n.add_place("q", 0);
        let t = n.add_transition("t");
        n.add_input_arc(t, p, 2);
        n.add_output_arc(t, q, 5);
        let mut e = Joules(f64::INFINITY);
        n.fire(t, &mut e).unwrap();
        assert_eq!(n.tokens(p), 1);
        assert_eq!(n.tokens(q), 5);
        // Only one token left: weight-2 arc disables t.
        assert!(!n.logically_enabled(t));
    }

    #[test]
    fn marking_round_trip() {
        let (mut n, _, [produce, _]) = producer_consumer();
        let m0 = n.marking();
        let mut e = Joules(f64::INFINITY);
        n.fire(produce, &mut e).unwrap();
        assert_ne!(n.marking(), m0);
        n.set_marking(&m0);
        assert_eq!(n.marking(), m0);
    }

    #[test]
    fn names_are_kept() {
        let (n, [empty, _], [produce, _]) = producer_consumer();
        assert!(n
            .to_dot()
            .contains(&format!("p{} [shape=circle label=\"empty\\n", empty.0)));
        assert_eq!(n.transition_name(produce), "produce");
        assert_eq!(n.place_count(), 2);
        assert_eq!(n.transition_count(), 2);
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn zero_weight_arc_panics() {
        let mut n = PetriNet::new();
        let p = n.add_place("p", 0);
        let t = n.add_transition("t");
        n.add_input_arc(t, p, 0);
    }

    #[test]
    fn dot_export_contains_places_transitions_and_arcs() {
        let (n, _, _) = producer_consumer();
        let d = n.to_dot();
        assert!(d.contains("p0 [shape=circle"));
        assert!(d.contains("t0 [shape=box"));
        assert_eq!(d.matches(" -> ").count(), 4);
        // Token counts appear in place labels.
        assert!(d.contains("empty\\n2"));
    }

    #[test]
    fn dot_export_labels_weighted_arcs() {
        let mut n = PetriNet::new();
        let p = n.add_place("p", 3);
        let t = n.add_transition("t");
        n.add_input_arc(t, p, 2);
        let d = n.to_dot();
        assert!(d.contains("[label=2]"), "{d}");
    }

    mod properties {
        use super::*;
        use emc_prng::{Rng, StdRng};

        /// Random *conservative* nets: every transition moves exactly one
        /// token (one unit-weight input, one unit-weight output), so the
        /// total token count is invariant under any firing sequence.
        #[test]
        fn conservative_nets_preserve_tokens() {
            let mut rng = StdRng::seed_from_u64(0x9e7);
            for _ in 0..128 {
                let places: Vec<u32> = (0..rng.gen_range(2usize..6))
                    .map(|_| rng.gen_range(0u32..5))
                    .collect();
                let arcs: Vec<(usize, usize)> = (0..rng.gen_range(1usize..8))
                    .map(|_| (rng.gen_range(0usize..100), rng.gen_range(0usize..100)))
                    .collect();
                let fires: Vec<usize> = (0..rng.gen_range(0usize..40))
                    .map(|_| rng.gen_range(0usize..100))
                    .collect();
                let mut net = PetriNet::new();
                let pids: Vec<PlaceId> = places
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| net.add_place(&format!("p{i}"), t))
                    .collect();
                let mut tids = Vec::new();
                for (i, &(a, b)) in arcs.iter().enumerate() {
                    let t = net.add_transition(&format!("t{i}"));
                    net.add_input_arc(t, pids[a % pids.len()], 1);
                    net.add_output_arc(t, pids[b % pids.len()], 1);
                    tids.push(t);
                }
                let total: u32 = net.marking().iter().sum();
                let mut budget = Joules(f64::INFINITY);
                for &f in &fires {
                    let _ = net.fire(tids[f % tids.len()], &mut budget);
                }
                let after: u32 = net.marking().iter().sum();
                assert_eq!(total, after);
            }
        }

        /// Firing any enabled transition never drives a place negative
        /// (trivially true by construction, but the u32 would wrap and
        /// the sum check above would scream — belt and braces).
        #[test]
        fn tokens_never_wrap() {
            for seed in 0u64..50 {
                let mut net = PetriNet::new();
                let p = net.add_place("p", (seed % 3) as u32);
                let t = net.add_transition("t");
                net.add_input_arc(t, p, 2);
                let mut budget = Joules(f64::INFINITY);
                let _ = net.fire(t, &mut budget);
                assert!(net.tokens(p) < u32::MAX / 2);
            }
        }
    }

    #[test]
    fn fire_error_display() {
        assert!(!FireError::NotEnabled.to_string().is_empty());
        assert!(!FireError::InsufficientEnergy.to_string().is_empty());
    }
}
