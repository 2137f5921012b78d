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

    /// Appends the actions enabled in control state `state`, given the
    /// observed net values, to `out`, leaving what `out` already holds
    /// in place. Must be deterministic in its arguments (same state ⇒
    /// same actions, in the same order) for reproducible exploration.
    fn step(&self, state: u8, view: &dyn NetView, out: &mut Vec<EnvAction>);

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
    F: Fn(u8, &dyn NetView, &mut Vec<EnvAction>) + Send + Sync,
{
    fn step(&self, state: u8, view: &dyn NetView, out: &mut Vec<EnvAction>) {
        self(state, view, out)
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

    fn step(&self, state: u8, view: &dyn NetView, out: &mut Vec<EnvAction>) {
        (**self).step(state, view, out)
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
    fn step(&self, _state: u8, view: &dyn NetView, out: &mut Vec<EnvAction>) {
        if !view.value(self.done) {
            for p in &self.pairs {
                if !view.value(p.t) && !view.value(p.f) {
                    out.push(act(p.t, true));
                    out.push(act(p.f, true));
                }
            }
        } else {
            for p in &self.pairs {
                for rail in [p.t, p.f] {
                    if view.value(rail) {
                        out.push(act(rail, false));
                    }
                }
            }
        }
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
    fn step(&self, _state: u8, view: &dyn NetView, out: &mut Vec<EnvAction>) {
        let ack = view.value(self.sender_ack);
        for p in &self.inputs {
            let (t, f) = (view.value(p.t), view.value(p.f));
            if !t && !f && !ack {
                out.push(act(p.t, true));
                out.push(act(p.f, true));
            }
            if t && ack {
                out.push(act(p.t, false));
            }
            if f && ack {
                out.push(act(p.f, false));
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
            out.push(act(self.sink_ack, true));
        }
        if all_spacer && view.value(self.sink_ack) {
            out.push(act(self.sink_ack, false));
        }
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
    fn step(&self, _state: u8, view: &dyn NetView, out: &mut Vec<EnvAction>) {
        if view.value(self.head) == view.value(self.req) {
            out.push(act(self.req, !view.value(self.req)));
        }
        if view.value(self.tail_ack) != view.value(self.tail) {
            out.push(act(self.tail_ack, view.value(self.tail)));
        }
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
/// receiver): the enabled actions are the union of the parts', in part
/// order.
pub struct ComposedEnv {
    /// The component environments. Each must be stateless (control
    /// state 0 throughout); the composition does not multiplex the
    /// shared control byte.
    pub parts: Vec<Arc<dyn EnvModel>>,
}

impl EnvModel for ComposedEnv {
    fn step(&self, state: u8, view: &dyn NetView, out: &mut Vec<EnvAction>) {
        for p in &self.parts {
            p.step(state, view, out);
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use emc_netlist::Netlist;

    /// A hand-built view: the listed nets read 1, every other net 0. The
    /// shared models never ask about quiescence.
    struct Levels(Vec<NetId>);

    impl NetView for Levels {
        fn value(&self, net: NetId) -> bool {
            self.0.contains(&net)
        }

        fn quiescent(&self) -> bool {
            false
        }
    }

    fn view(high: &[NetId]) -> Levels {
        Levels(high.to_vec())
    }

    /// `N` distinct nets.
    fn nets<const N: usize>() -> [NetId; N] {
        let mut nl = Netlist::new();
        std::array::from_fn(|i| nl.input(&format!("n{i}")))
    }

    fn stepped(env: &dyn EnvModel, view: &dyn NetView) -> Vec<EnvAction> {
        let mut out = Vec::new();
        env.step(0, view, &mut out);
        out
    }

    fn rail(t: NetId, f: NetId) -> DualRail {
        DualRail { t, f }
    }

    #[test]
    fn wchb_env_offers_codewords_drains_and_acknowledges() {
        let [t0, f0, t1, f1, ack, ot, of, sink] = nets();
        let env = WchbEnv {
            inputs: vec![rail(t0, f0), rail(t1, f1)],
            sender_ack: ack,
            outputs: vec![rail(ot, of)],
            sink_ack: sink,
        };
        // Spacer everywhere, acknowledge low: either rail of each pair.
        assert_eq!(
            stepped(&env, &view(&[])),
            [act(t0, true), act(f0, true), act(t1, true), act(f1, true)]
        );
        // A pair still at spacer is offered; a valid one waits.
        assert_eq!(stepped(&env, &view(&[t0])), [act(t1, true), act(f1, true)]);
        // Acknowledged: drain the high rails; a valid output is
        // acknowledged by the receiver.
        assert_eq!(
            stepped(&env, &view(&[ack, t0, f1, ot])),
            [act(t0, false), act(f1, false), act(sink, true)]
        );
        // Outputs back at spacer: the receiver releases.
        assert_eq!(stepped(&env, &view(&[ack, sink])), [act(sink, false)]);
        // Outputs valid and already acknowledged: nothing to do.
        assert_eq!(stepped(&env, &view(&[ack, of, sink])), []);
    }

    #[test]
    fn fill_drain_env_fills_before_done_and_drains_after() {
        let [t0, f0, t1, f1, done] = nets();
        let env = FillDrainEnv {
            pairs: vec![rail(t0, f0), rail(t1, f1)],
            done,
        };
        assert_eq!(stepped(&env, &view(&[f1])), [act(t0, true), act(f0, true)]);
        assert_eq!(
            stepped(&env, &view(&[done, t0, f1])),
            [act(t0, false), act(f1, false)]
        );
        assert_eq!(stepped(&env, &view(&[done])), []);
    }

    #[test]
    fn micropipeline_env_flips_the_request_and_copies_the_tail() {
        let [req, head, tail, tail_ack] = nets();
        let env = MicropipelineEnv {
            req,
            head,
            tail,
            tail_ack,
        };
        // The head has matched the request: flip it.
        assert_eq!(stepped(&env, &view(&[])), [act(req, true)]);
        assert_eq!(stepped(&env, &view(&[req, head])), [act(req, false)]);
        // The head lags the request: the sender waits.
        assert_eq!(stepped(&env, &view(&[head])), []);
        // The tail acknowledge copies the tail.
        assert_eq!(stepped(&env, &view(&[req, tail])), [act(tail_ack, true)]);
        assert_eq!(
            stepped(&env, &view(&[tail_ack])),
            [act(req, true), act(tail_ack, false)]
        );
    }

    #[test]
    fn composed_env_emits_its_parts_actions_in_part_order() {
        let [r0, h0, t0, a0, r1, h1, t1, a1] = nets();
        let row = |req, head, tail, tail_ack| -> Arc<dyn EnvModel> {
            Arc::new(MicropipelineEnv {
                req,
                head,
                tail,
                tail_ack,
            })
        };
        let v = view(&[t0, t1]);
        let rows = [row(r0, h0, t0, a0), row(r1, h1, t1, a1)];
        let forward = ComposedEnv {
            parts: rows.to_vec(),
        };
        let backward = ComposedEnv {
            parts: rows.iter().rev().cloned().collect(),
        };
        let (first, second) = (stepped(&*rows[0], &v), stepped(&*rows[1], &v));
        assert_eq!(first, [act(r0, true), act(a0, true)]);
        assert_eq!(second, [act(r1, true), act(a1, true)]);
        assert_eq!(stepped(&forward, &v), [&first[..], &second[..]].concat());
        assert_eq!(stepped(&backward, &v), [&second[..], &first[..]].concat());
    }

    #[test]
    fn step_appends_to_a_non_empty_buffer() {
        let [req, head, tail, tail_ack, t, f] = nets();
        let micro = MicropipelineEnv {
            req,
            head,
            tail,
            tail_ack,
        };
        let models: Vec<Arc<dyn EnvModel>> = vec![
            Arc::new(move |_: u8, v: &dyn NetView, out: &mut Vec<EnvAction>| {
                out.push(act(t, !v.value(t)));
            }),
            Arc::new(FillDrainEnv {
                pairs: vec![rail(t, f)],
                done: head,
            }),
            Arc::new(WchbEnv {
                inputs: vec![rail(t, f)],
                sender_ack: head,
                outputs: Vec::new(),
                sink_ack: tail_ack,
            }),
            Arc::new(ComposedEnv {
                parts: vec![
                    Arc::new(micro),
                    Arc::new(FillDrainEnv {
                        pairs: vec![rail(t, f)],
                        done: head,
                    }),
                ],
            }),
        ];
        let sentinel = EnvAction {
            net: tail,
            value: true,
            next: 7,
        };
        let v = view(&[]);
        for (i, m) in models.iter().enumerate() {
            let fresh = stepped(m, &v);
            assert!(!fresh.is_empty(), "model {i} offers something");
            let mut out = vec![sentinel.clone(), sentinel.clone()];
            m.step(0, &v, &mut out);
            assert_eq!(out[..2], [sentinel.clone(), sentinel.clone()], "model {i}");
            assert_eq!(out[2..], fresh[..], "model {i}");
        }
    }
}
