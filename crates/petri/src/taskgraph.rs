//! Task dependency graphs and their compilation to energy-token nets.

use emc_units::{Joules, Seconds};

use crate::net::{PetriNet, TransitionId};

/// Identifier of a task within a [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(usize);

impl TaskId {
    /// Dense index of this task.
    pub fn index(self) -> usize {
        self.0
    }
}

/// One task: an energy quantum, a nominal duration and dependencies.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Human-readable name.
    pub name: String,
    /// Energy consumed by one execution.
    pub energy: Joules,
    /// Nominal duration at the reference voltage.
    pub duration: Seconds,
    /// Tasks that must complete first.
    pub deps: Vec<TaskId>,
}

/// A dependency DAG of energy-costed tasks.
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    tasks: Vec<Task>,
}

/// The compiled net plus the id maps needed to drive it.
#[derive(Debug, Clone)]
pub struct CompiledGraph {
    /// The energy-token net.
    pub net: PetriNet,
    /// Transition of each task.
    pub transition_of: Vec<TransitionId>,
}

impl TaskGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a task; `deps` must refer to previously added tasks (which
    /// makes cycles impossible by construction).
    ///
    /// # Panics
    ///
    /// Panics if a dependency id is not yet defined, the energy is
    /// negative, or the duration is not strictly positive.
    pub fn add_task(
        &mut self,
        name: &str,
        energy: Joules,
        duration: Seconds,
        deps: &[TaskId],
    ) -> TaskId {
        assert!(energy.0 >= 0.0, "negative task energy");
        assert!(duration.0 > 0.0, "task duration must be positive");
        for d in deps {
            assert!(d.0 < self.tasks.len(), "dependency on a later task");
        }
        self.tasks.push(Task {
            name: name.to_owned(),
            energy,
            duration,
            deps: deps.to_vec(),
        });
        TaskId(self.tasks.len() - 1)
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` if the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The task with the given id.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.0]
    }

    /// All task ids in insertion (topological) order.
    pub fn ids(&self) -> impl Iterator<Item = TaskId> {
        (0..self.tasks.len()).map(TaskId)
    }

    /// Total energy of all tasks.
    pub fn total_energy(&self) -> Joules {
        self.tasks.iter().map(|t| t.energy).sum()
    }

    /// Compiles the graph into an energy-token net: each task becomes a
    /// transition consuming one "ready" token per dependency (produced
    /// into per-edge places by the dependency's firing) plus its own
    /// start token, and producing a "done" token.
    pub fn compile(&self) -> CompiledGraph {
        let mut net = PetriNet::new();
        let mut transition_of = Vec::with_capacity(self.tasks.len());
        // Create transitions + start/done places first.
        for (i, task) in self.tasks.iter().enumerate() {
            let t = net.add_transition(&task.name);
            let start = net.add_place(&format!("{}.start", task.name), 1);
            let done = net.add_place(&format!("{}.done", task.name), 0);
            net.add_input_arc(t, start, 1);
            net.add_output_arc(t, done, 1);
            net.set_energy_cost(t, task.energy);
            transition_of.push(t);
            let _ = i;
        }
        // One place per dependency edge.
        for (i, task) in self.tasks.iter().enumerate() {
            for d in &task.deps {
                let edge = net.add_place(&format!("{}->{}", self.tasks[d.0].name, task.name), 0);
                net.add_output_arc(transition_of[d.0], edge, 1);
                net.add_input_arc(transition_of[i], edge, 1);
            }
        }
        CompiledGraph { net, transition_of }
    }

    /// A synthetic fork-join pipeline workload: `stages` sequential
    /// stages of `width` parallel tasks each, all tasks costing `energy`
    /// and lasting `duration`.
    ///
    /// # Panics
    ///
    /// Panics if `stages` or `width` is zero.
    pub fn fork_join(stages: usize, width: usize, energy: Joules, duration: Seconds) -> Self {
        assert!(stages > 0 && width > 0, "degenerate fork-join shape");
        let mut g = TaskGraph::new();
        let mut prev: Vec<TaskId> = Vec::new();
        for s in 0..stages {
            let mut this = Vec::with_capacity(width);
            for w in 0..width {
                let id = g.add_task(&format!("s{s}w{w}"), energy, duration, &prev);
                this.push(id);
            }
            prev = this;
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::FireError;

    #[test]
    fn diamond_compiles_and_runs_in_order() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", Joules(1.0), Seconds(1.0), &[]);
        let b = g.add_task("b", Joules(1.0), Seconds(1.0), &[a]);
        let c = g.add_task("c", Joules(1.0), Seconds(1.0), &[a]);
        let d = g.add_task("d", Joules(1.0), Seconds(1.0), &[b, c]);
        let mut compiled = g.compile();
        let mut e = Joules(f64::INFINITY);
        // Only `a` is enabled initially.
        assert_eq!(
            compiled.net.enabled(e),
            vec![compiled.transition_of[a.index()]]
        );
        compiled
            .net
            .fire(compiled.transition_of[a.index()], &mut e)
            .unwrap();
        // Now b and c; d still blocked.
        let en = compiled.net.enabled(e);
        assert_eq!(en.len(), 2);
        assert!(!en.contains(&compiled.transition_of[d.index()]));
        compiled
            .net
            .fire(compiled.transition_of[b.index()], &mut e)
            .unwrap();
        compiled
            .net
            .fire(compiled.transition_of[c.index()], &mut e)
            .unwrap();
        compiled
            .net
            .fire(compiled.transition_of[d.index()], &mut e)
            .unwrap();
        // Places are each task's start and done place, in task order,
        // then one per dependency edge: every done place holds a token.
        assert_eq!(compiled.net.marking(), [0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0]);
        // Everything done: net is quiescent.
        assert!(compiled.net.enabled(e).is_empty());
    }

    #[test]
    fn tasks_fire_once_only() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", Joules(1.0), Seconds(1.0), &[]);
        let mut compiled = g.compile();
        let mut e = Joules(f64::INFINITY);
        compiled
            .net
            .fire(compiled.transition_of[a.index()], &mut e)
            .unwrap();
        assert!(compiled
            .net
            .fire(compiled.transition_of[a.index()], &mut e)
            .is_err());
    }

    #[test]
    fn energy_costs_transfer_to_net() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", Joules(3.5), Seconds(1.0), &[]);
        let mut compiled = g.compile();
        let t = compiled.transition_of[a.index()];
        let mut e = Joules(3.4);
        assert_eq!(
            compiled.net.fire(t, &mut e),
            Err(FireError::InsufficientEnergy)
        );
        e = Joules(3.5);
        compiled.net.fire(t, &mut e).unwrap();
        assert_eq!(e, Joules(0.0));
        assert_eq!(g.total_energy(), Joules(3.5));
    }

    #[test]
    fn fork_join_shape() {
        let g = TaskGraph::fork_join(3, 4, Joules(1.0), Seconds(1.0));
        assert_eq!(g.len(), 12);
        // Second-stage tasks depend on all four first-stage tasks.
        let t = g.task(TaskId(5));
        assert_eq!(t.deps.len(), 4);
        // First stage has no deps.
        assert!(g.task(TaskId(0)).deps.is_empty());
    }

    #[test]
    #[should_panic(expected = "later task")]
    fn forward_dependency_panics() {
        let mut g = TaskGraph::new();
        let _ = g.add_task("a", Joules(1.0), Seconds(1.0), &[TaskId(3)]);
    }

    #[test]
    fn empty_graph_reports_empty() {
        let g = TaskGraph::new();
        assert!(g.is_empty());
        assert_eq!(g.len(), 0);
        assert_eq!(g.total_energy(), Joules(0.0));
    }
}
