//! The fleet event queue: totally ordered, deterministic, shard-local.
//!
//! Modeled on the `event.rs` split of the `akshayknarayan/simulator`
//! exemplar (SNIPPETS.md): events carry a time, the executor pops them
//! in time order, and executing an event yields successor events. Two
//! departures keep the fleet bit-deterministic at any thread count:
//!
//! * the queue key is the full triple `(time, node, seq)` — never just
//!   the time — so same-instant events pop in one canonical order;
//! * queues are *shard-local*. Cross-node messages never enter another
//!   shard's queue directly; they go to an outbox and are routed by the
//!   single-threaded epoch barrier (see [`crate::engine`]).
//!
//! Storage is a plain binary min-heap, as in the exemplar.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Fleet simulation time in integer nanoseconds. Integer time makes
/// event ordering exact — no float-comparison ties to break.
pub type Nanos = u64;

/// What a popped event asks a node to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The node's duty-cycle timer fired: harvest, then attempt tasks.
    Wake,
    /// A message from `src` arrives at the node.
    Deliver {
        /// Originating node id.
        src: u32,
        /// Sender's per-message sequence number (for total ordering).
        msg_seq: u32,
    },
}

/// One scheduled event, keyed for total ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetEvent {
    /// Absolute firing time.
    pub time: Nanos,
    /// Destination node id.
    pub node: u32,
    /// Shard-local insertion sequence — the final tiebreak, assigned in
    /// deterministic insertion order by [`EventQueue::push`].
    pub seq: u64,
    /// Payload.
    pub kind: EventKind,
}

impl Ord for FleetEvent {
    /// `(time, node, seq)`: `seq` is unique within a queue, so no two
    /// queued events compare equal and the payload never breaks a tie.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.node, self.seq).cmp(&(other.time, other.node, other.seq))
    }
}

impl PartialOrd for FleetEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A min-queue of [`FleetEvent`]s with deterministic pop order.
#[derive(Debug, Default)]
pub struct EventQueue {
    queue: BinaryHeap<Reverse<FleetEvent>>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` at `node` for absolute time `time`. The
    /// insertion sequence number is assigned here, so callers get a
    /// deterministic queue exactly when their insertion order is
    /// deterministic.
    pub fn push(&mut self, time: Nanos, node: u32, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse(FleetEvent {
            time,
            node,
            seq,
            kind,
        }));
    }

    /// Pops the next event strictly before `horizon`, or `None` when the
    /// earliest event (if any) is at or past it. Events at or beyond the
    /// horizon stay queued for a later epoch.
    pub fn pop_before(&mut self, horizon: Nanos) -> Option<FleetEvent> {
        match self.queue.peek() {
            Some(Reverse(ev)) if ev.time < horizon => self.queue.pop().map(|Reverse(ev)| ev),
            _ => None,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Number of queued [`EventKind::Deliver`] events — messages routed
    /// to this queue but not yet delivered (message-conservation
    /// accounting at end of run).
    pub fn pending_deliveries(&self) -> u64 {
        self.queue
            .iter()
            .filter(|Reverse(e)| matches!(e.kind, EventKind::Deliver { .. }))
            .count() as u64
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

/// A cross-node message in flight. Ordering (for barrier routing) is by
/// `(deliver, dst, src, seq)` — a total order independent of which shard
/// produced the message first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Message {
    /// Absolute delivery time (send time + link latency).
    pub deliver: Nanos,
    /// Destination node id.
    pub dst: u32,
    /// Source node id.
    pub src: u32,
    /// Sender-assigned sequence number, unique per source node.
    pub seq: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_node_seq_order() {
        let mut q = EventQueue::new();
        q.push(50, 7, EventKind::Wake);
        q.push(10, 9, EventKind::Wake);
        q.push(10, 3, EventKind::Wake);
        q.push(10, 3, EventKind::Deliver { src: 1, msg_seq: 0 });
        let order: Vec<(Nanos, u32, u64)> = std::iter::from_fn(|| q.pop_before(Nanos::MAX))
            .map(|e| (e.time, e.node, e.seq))
            .collect();
        // Same time → lower node id first; same node → insertion order.
        assert_eq!(order, vec![(10, 3, 2), (10, 3, 3), (10, 9, 1), (50, 7, 0)]);
    }

    #[test]
    fn horizon_is_exclusive() {
        let mut q = EventQueue::new();
        q.push(100, 0, EventKind::Wake);
        assert!(q.pop_before(100).is_none());
        assert!(q.pop_before(101).is_some());
        assert!(q.is_empty());
    }

    #[test]
    fn message_order_is_by_deliver_dst_src_seq() {
        let mut msgs = [
            Message {
                deliver: 5,
                dst: 2,
                src: 9,
                seq: 0,
            },
            Message {
                deliver: 5,
                dst: 1,
                src: 0,
                seq: 3,
            },
            Message {
                deliver: 4,
                dst: 9,
                src: 9,
                seq: 9,
            },
        ];
        msgs.sort();
        assert_eq!(msgs[0].deliver, 4);
        assert_eq!((msgs[1].dst, msgs[2].dst), (1, 2));
    }
}
