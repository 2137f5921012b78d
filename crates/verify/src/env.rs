//! Models of a circuit's environment: the protocol machines that close it.
//!
//! Speed independence is a property of a circuit *and* its environment,
//! so every explored [`Circuit`](crate::Circuit) is closed by an
//! [`EnvModel`]: an explicit-state machine that offers input actions as
//! a function of its control state and the net values it observes
//! through a [`NetView`]. The same model closes the circuit for
//! exhaustive exploration and, through a [`NetView`] over a live
//! simulator, drives an event-driven simulation one action at a time.
//! A model also declares its own dependency structure
//! ([`EnvModel::footprint`]), which is what lets the explorer reduce
//! around it.
//!
//! The shared models here are *fully reactive* (speed-independent):
//! every action is enabled by observed net values alone, never by
//! elapsed time or quiescence, so they are sound under the
//! unbounded-delay model and under any Vdd schedule.

use std::sync::Arc;

use emc_async::{DualRailPipeline, MullerPipeline};
use emc_netlist::{DualRail, NetId};

use crate::reduce::{EnvFootprint, EnvPart};

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

/// What an environment model may observe: current net values, plus the
/// settledness flag fundamental-mode environments gate on.
pub trait NetView {
    /// The current value of `net`.
    fn value(&self, net: NetId) -> bool;
    /// `true` when the circuit has no excited or pending gate. Models
    /// gated on this describe *fundamental-mode* (or
    /// bundling-discipline) operation; fully speed-independent models
    /// never need it.
    fn quiescent(&self) -> bool;
}

/// An environment protocol machine closing a circuit.
pub trait EnvModel: Send + Sync {
    /// Initial control state (most models here are stateless).
    fn initial(&self) -> u8 {
        0
    }

    /// Enabled actions in control state `state` given the observed net
    /// values. Must be deterministic in its arguments (same state ⇒
    /// same action list) for reproducible exploration.
    fn step(&self, state: u8, view: &dyn NetView) -> Vec<EnvAction>;

    /// The model's declared dependency structure, enabling
    /// partial-order/symmetry reduction in the verifier. `None` (the
    /// default) keeps exploration fully unreduced; models returning
    /// `Some` promise that every action [`EnvModel::step`] emits is
    /// attributable to one declared part (see [`EnvFootprint`]).
    fn footprint(&self) -> Option<EnvFootprint> {
        None
    }
}

/// A closure is a model that starts in control state 0 and declares no
/// footprint.
impl<F> EnvModel for F
where
    F: Fn(u8, &dyn NetView) -> Vec<EnvAction> + Send + Sync,
{
    fn step(&self, state: u8, view: &dyn NetView) -> Vec<EnvAction> {
        self(state, view)
    }
}

/// A shared model is a model. `&Arc<dyn EnvModel>` does not coerce to
/// `&dyn EnvModel` by deref (the compiler tries to unsize the `Arc`
/// itself), so this is what lets `&circuit.env` close an
/// [`Explorer`](crate::Explorer); `&*circuit.env` saves the extra call.
impl<T: EnvModel + ?Sized> EnvModel for Arc<T> {
    fn initial(&self) -> u8 {
        (**self).initial()
    }

    fn step(&self, state: u8, view: &dyn NetView) -> Vec<EnvAction> {
        (**self).step(state, view)
    }

    fn footprint(&self) -> Option<EnvFootprint> {
        (**self).footprint()
    }
}

/// A stateless, quiescence-free environment part (every shared model in
/// this module is fully reactive).
pub(crate) fn part(tag: u64, reads: &[NetId], drives: &[NetId]) -> EnvPart {
    EnvPart {
        reads: reads.to_vec(),
        drives: drives.to_vec(),
        uses_quiescence: false,
        stateful: false,
        tag,
    }
}

/// An action that leaves the control state at 0.
pub(crate) fn act(net: NetId, value: bool) -> EnvAction {
    EnvAction {
        net,
        value,
        next: 0,
    }
}

/// Four-phase dual-rail producer against a completion (`done`) signal:
/// while `done` is low, offer either rail of every still-spacer pair (a
/// free choice per pair); while `done` is high, drain whatever is high.
/// `done` cannot rise until every pair is valid nor fall until every
/// pair is back at spacer, which is exactly what makes the protocol
/// speed-independent. Closes completion detectors, DIMS datapaths and
/// DIMS block graphs.
pub struct FillDrainEnv {
    /// The environment-driven dual-rail input pairs.
    pub pairs: Vec<DualRail>,
    /// The circuit's completion output observed by the producer.
    pub done: NetId,
}

impl EnvModel for FillDrainEnv {
    fn step(&self, _state: u8, view: &dyn NetView) -> Vec<EnvAction> {
        let mut acts = Vec::new();
        if !view.value(self.done) {
            for p in &self.pairs {
                if !view.value(p.t) && !view.value(p.f) {
                    acts.push(act(p.t, true));
                    acts.push(act(p.f, true));
                }
            }
        } else {
            for p in &self.pairs {
                for rail in [p.t, p.f] {
                    if view.value(rail) {
                        acts.push(act(rail, false));
                    }
                }
            }
        }
        acts
    }

    fn footprint(&self) -> Option<EnvFootprint> {
        // One part per pair: each action reads `done` plus its own
        // pair's rails, so pairs fill/drain independently.
        Some(EnvFootprint::new(
            self.pairs
                .iter()
                .map(|p| part(1, &[self.done, p.t, p.f], &[p.t, p.f]))
                .collect(),
        ))
    }
}

/// Four-phase sender and receiver around a W-bit WCHB pipeline (Design
/// 1): the sender offers a fresh codeword (free rail choice per bit)
/// from spacer while the stage-0 completion acknowledge is low, and
/// drains once it rises; the receiver acknowledges when every output
/// bit is valid and releases on all-spacer. The width-1 case closes the
/// builtin suite's WCHB pipeline.
pub struct WchbEnv {
    /// Input rails, LSB first.
    pub inputs: Vec<DualRail>,
    /// Stage-0 completion acknowledge observed by the sender.
    pub sender_ack: NetId,
    /// Final-stage rails observed by the receiver.
    pub outputs: Vec<DualRail>,
    /// The environment-driven sink acknowledge.
    pub sink_ack: NetId,
}

impl WchbEnv {
    /// The sender and receiver around `p`.
    pub fn for_pipeline(p: &DualRailPipeline) -> Self {
        Self {
            inputs: p.inputs().to_vec(),
            sender_ack: p.sender_ack(),
            outputs: p.outputs().to_vec(),
            sink_ack: p.sink_ack(),
        }
    }
}

impl EnvModel for WchbEnv {
    fn step(&self, _state: u8, view: &dyn NetView) -> Vec<EnvAction> {
        let mut acts = Vec::new();
        let ack = view.value(self.sender_ack);
        for p in &self.inputs {
            let (t, f) = (view.value(p.t), view.value(p.f));
            if !t && !f && !ack {
                acts.push(act(p.t, true));
                acts.push(act(p.f, true));
            }
            if t && ack {
                acts.push(act(p.t, false));
            }
            if f && ack {
                acts.push(act(p.f, false));
            }
        }
        let all_valid = self
            .outputs
            .iter()
            .all(|p| view.value(p.t) ^ view.value(p.f));
        let all_spacer = self
            .outputs
            .iter()
            .all(|p| !view.value(p.t) && !view.value(p.f));
        if all_valid && !view.value(self.sink_ack) {
            acts.push(act(self.sink_ack, true));
        }
        if all_spacer && view.value(self.sink_ack) {
            acts.push(act(self.sink_ack, false));
        }
        acts
    }

    fn footprint(&self) -> Option<EnvFootprint> {
        // One sender part per input pair (reads the shared acknowledge
        // plus its own rails) and one receiver part over all output
        // rails and the sink acknowledge.
        let mut parts: Vec<EnvPart> = self
            .inputs
            .iter()
            .map(|p| part(1, &[self.sender_ack, p.t, p.f], &[p.t, p.f]))
            .collect();
        let mut receiver_reads: Vec<NetId> = self.outputs.iter().flat_map(|p| [p.t, p.f]).collect();
        receiver_reads.push(self.sink_ack);
        parts.push(part(2, &receiver_reads, &[self.sink_ack]));
        Some(EnvFootprint::new(parts))
    }
}

/// Two-phase sender and eager consumer for a Muller control pipeline:
/// the request flips once the head stage has matched it, and the tail
/// acknowledge copies the last stage.
pub struct MicropipelineEnv {
    /// The environment-driven request.
    pub req: NetId,
    /// The first C-element stage (sender-side acknowledge).
    pub head: NetId,
    /// The last C-element stage.
    pub tail: NetId,
    /// The environment-driven tail acknowledge.
    pub tail_ack: NetId,
}

impl MicropipelineEnv {
    /// The sender and consumer at the ends of `p`.
    pub fn for_pipeline(p: &MullerPipeline) -> Self {
        Self {
            req: p.request(),
            head: p.stages()[0],
            tail: *p.stages().last().expect("non-empty pipeline"),
            tail_ack: p.tail_ack(),
        }
    }
}

impl EnvModel for MicropipelineEnv {
    fn step(&self, _state: u8, view: &dyn NetView) -> Vec<EnvAction> {
        let mut acts = Vec::new();
        if view.value(self.head) == view.value(self.req) {
            acts.push(act(self.req, !view.value(self.req)));
        }
        if view.value(self.tail_ack) != view.value(self.tail) {
            acts.push(act(self.tail_ack, view.value(self.tail)));
        }
        acts
    }

    fn footprint(&self) -> Option<EnvFootprint> {
        Some(EnvFootprint::new(vec![
            part(1, &[self.head, self.req], &[self.req]),
            part(2, &[self.tail_ack, self.tail], &[self.tail_ack]),
        ]))
    }
}

/// The product of independent stateless environments (used by the
/// pipelined-array family, where every row has its own sender and
/// receiver): the enabled actions are the union of the parts'.
pub struct ComposedEnv {
    /// The component environments. Each must be stateless (control
    /// state 0 throughout); the composition does not multiplex the
    /// shared control byte.
    pub parts: Vec<Arc<dyn EnvModel>>,
}

impl EnvModel for ComposedEnv {
    fn step(&self, state: u8, view: &dyn NetView) -> Vec<EnvAction> {
        self.parts
            .iter()
            .flat_map(|p| p.step(state, view))
            .collect()
    }

    fn footprint(&self) -> Option<EnvFootprint> {
        // The concatenation of the components' declarations — available
        // only when every component declares one.
        let mut fp = EnvFootprint::default();
        for p in &self.parts {
            fp.extend(p.footprint()?);
        }
        Some(fp)
    }
}
