//! The fleet event queue: totally ordered, deterministic, shard-local.
//!
//! Modeled on the `event.rs` split of the `akshayknarayan/simulator`
//! exemplar (SNIPPETS.md): events carry a time, the executor runs them
//! in time order, and executing an event yields successor events. Two
//! departures keep the fleet bit-deterministic at any thread count:
//!
//! * the queue key is the full triple `(time, node, seq)` — never just
//!   the time — so same-instant events run in one canonical order;
//! * queues are *shard-local*. Cross-node messages never enter another
//!   shard's queue directly; they go to an outbox and are routed by the
//!   single-threaded epoch barrier (see [`crate::engine`]).
//!
//! Storage is one unsorted `Vec`, not a heap. The engine's lookahead
//! contract — every link latency and every wake period is at least one
//! epoch — means no event run in an epoch schedules another one before
//! that epoch's horizon. So a shard takes each epoch's events as one
//! batch, sorted once ([`EventQueue::take_before`]), and runs it in
//! order: exactly the order in which a min-heap would have popped them.
//! [`EventQueue::push`] panics on an event that would break the
//! contract.

/// Fleet simulation time in integer nanoseconds. Integer time makes
/// event ordering exact — no float-comparison ties to break.
pub type Nanos = u64;

/// What an event asks a node to do.
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

/// A shard's pending [`FleetEvent`]s, taken one epoch batch at a time
/// in `(time, node, seq)` order.
#[derive(Debug, Default)]
pub struct EventQueue {
    pending: Vec<FleetEvent>,
    next_seq: u64,
    /// Horizon of the last batch taken: every later event is due at or
    /// after it.
    taken: Nanos,
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
    ///
    /// # Panics
    ///
    /// Panics if `time` is before the horizon of a batch already taken:
    /// the event would have had to run in an epoch that is over, so the
    /// lookahead contract is broken.
    pub fn push(&mut self, time: Nanos, node: u32, kind: EventKind) {
        assert!(
            time >= self.taken,
            "event at {time} ns for node {node} lands before the horizon \
             {} ns already taken: the lookahead contract is broken",
            self.taken
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push(FleetEvent {
            time,
            node,
            seq,
            kind,
        });
    }

    /// Moves every event strictly before `horizon` into a new batch,
    /// sorted by `(time, node, seq)`. Events at or beyond the horizon
    /// stay queued for a later epoch. From now on [`EventQueue::push`]
    /// refuses events before `horizon`.
    pub fn take_before(&mut self, horizon: Nanos) -> Vec<FleetEvent> {
        let mut batch: Vec<FleetEvent> =
            self.pending.extract_if(.., |e| e.time < horizon).collect();
        // `seq` is unique, so the unstable sort is the one total order.
        batch.sort_unstable();
        self.taken = self.taken.max(horizon);
        batch
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Number of queued [`EventKind::Deliver`] events — messages routed
    /// to this queue but not yet delivered (message-conservation
    /// accounting at end of run).
    pub fn pending_deliveries(&self) -> u64 {
        self.pending
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Deliver { .. }))
            .count() as u64
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

/// A cross-node message in flight. Ordering (the order a shard queues
/// its inbox in) is by `(deliver, dst, src, seq)` — a total order
/// independent of which shard produced the message first.
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
    fn takes_in_time_node_seq_order() {
        let mut q = EventQueue::new();
        q.push(50, 7, EventKind::Wake);
        q.push(10, 9, EventKind::Wake);
        q.push(10, 3, EventKind::Wake);
        q.push(10, 3, EventKind::Deliver { src: 1, msg_seq: 0 });
        let order: Vec<(Nanos, u32, u64)> = q
            .take_before(Nanos::MAX)
            .into_iter()
            .map(|e| (e.time, e.node, e.seq))
            .collect();
        // Same time → lower node id first; same node → insertion order.
        assert_eq!(order, vec![(10, 3, 2), (10, 3, 3), (10, 9, 1), (50, 7, 0)]);
        assert!(q.is_empty());
    }

    #[test]
    fn horizon_is_exclusive() {
        let mut q = EventQueue::new();
        q.push(100, 0, EventKind::Wake);
        assert!(q.take_before(100).is_empty());
        assert_eq!(q.len(), 1);
        // An event exactly at a taken horizon is due in a later batch.
        q.push(100, 1, EventKind::Deliver { src: 0, msg_seq: 0 });
        assert_eq!(q.pending_deliveries(), 1);
        assert_eq!(q.take_before(101).len(), 2);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "event at 99 ns for node 4 lands before the horizon 100 ns")]
    fn push_before_a_taken_horizon_panics() {
        let mut q = EventQueue::new();
        q.push(10, 4, EventKind::Wake);
        let _ = q.take_before(100);
        q.push(99, 4, EventKind::Wake);
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
