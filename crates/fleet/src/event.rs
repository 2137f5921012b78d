//! The fleet event queue: node-major, deterministic, shard-local.
//!
//! Modeled on the `event.rs` split of the `akshayknarayan/simulator`
//! exemplar (SNIPPETS.md): events carry a time, the executor runs them
//! in order, and executing an event yields successor events. Three
//! departures keep the fleet bit-deterministic at any thread count:
//!
//! * queues are *shard-local*. Cross-node messages never enter another
//!   shard's queue directly; they go to an outbox and are routed by the
//!   single-threaded epoch barrier (see [`crate::engine`]);
//! * a shard runs each epoch as one batch. The engine's lookahead
//!   contract — every link latency and every wake period is at least
//!   one epoch — means no event run in an epoch schedules another one
//!   before that epoch's horizon, so a shard knows the whole batch when
//!   the epoch starts (`EventQueue::take_before`). The queue panics on
//!   an event that would break the contract;
//! * the batch is *node-major*: grouped by node in index order, each
//!   node's events in `(time, seq)` order. An event reads and writes
//!   only its own node's state, so every node sees exactly the events,
//!   in exactly the order, that a time-ordered heap would have given it,
//!   while the shard visits each of its nodes once, in memory order
//!   (DESIGN.md §8 has the whole argument).
//!
//! The queue is indexed by node. Every node always has exactly one wake
//! pending, so wakes live in one slot per node; deliveries are kept
//! sorted by `(node, time, seq)`. Taking a batch is then one linear pass
//! over both.

/// Fleet simulation time in integer nanoseconds. Integer time makes
/// event ordering exact — no float-comparison ties to break.
pub(crate) type Nanos = u64;

/// What an event asks a node to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventKind {
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
pub(crate) struct FleetEvent {
    /// Absolute firing time.
    pub time: Nanos,
    /// Destination node id.
    pub(crate) node: u32,
    /// Shard-local insertion sequence — the final tiebreak, assigned in
    /// deterministic insertion order when the event is queued.
    pub seq: u64,
    /// Payload.
    pub kind: EventKind,
}

impl Ord for FleetEvent {
    /// `(node, time, seq)`, the batch order: `seq` is unique within a
    /// queue, so no two queued events compare equal and the payload
    /// never breaks a tie.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.node, self.time, self.seq).cmp(&(other.node, other.time, other.seq))
    }
}

impl PartialOrd for FleetEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The `(time, seq)` of a wake slot with no wake pending: never due.
const NO_WAKE: (Nanos, u64) = (Nanos::MAX, u64::MAX);

/// A shard's pending [`FleetEvent`]s, taken one epoch batch at a time
/// in `(node, time, seq)` order.
#[derive(Debug)]
pub(crate) struct EventQueue {
    /// Id of the shard's first node.
    base: u32,
    /// Each node's pending wake as `(time, seq)`, indexed by
    /// `node - base` ([`NO_WAKE`] from when a batch takes it until the
    /// next one is scheduled).
    wakes: Vec<(Nanos, u64)>,
    /// Pending deliveries, sorted by `(node, time, seq)`.
    deliveries: Vec<FleetEvent>,
    next_seq: u64,
    /// Horizon of the last batch taken: every later event is due at or
    /// after it.
    taken: Nanos,
}

impl EventQueue {
    /// An empty queue for the nodes `base..base + nodes`.
    pub fn new(base: u32, nodes: u32) -> Self {
        Self {
            base,
            wakes: vec![NO_WAKE; nodes as usize],
            deliveries: Vec::new(),
            next_seq: 0,
            taken: 0,
        }
    }

    /// Takes the next sequence number, after checking the lookahead
    /// contract for an event at `time` for `node`.
    fn assign_seq(&mut self, time: Nanos, node: u32) -> u64 {
        assert!(
            time >= self.taken,
            "event at {time} ns for node {node} lands before the horizon \
             {} ns already taken: the lookahead contract is broken",
            self.taken
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `node`'s next wake for absolute time `time`. The
    /// insertion sequence number is assigned here, so callers get a
    /// deterministic queue exactly when their insertion order is
    /// deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `time` is before the horizon of a batch already taken
    /// (the event would have had to run in an epoch that is over, so the
    /// lookahead contract is broken), if `node` is not one of the
    /// queue's, or if it already has a wake pending.
    pub(crate) fn schedule_wake(&mut self, time: Nanos, node: u32) {
        let seq = self.assign_seq(time, node);
        let slot = &mut self.wakes[node.wrapping_sub(self.base) as usize];
        assert_eq!(*slot, NO_WAKE, "node {node} already has a wake pending");
        *slot = (time, seq);
    }

    /// Queues a batch of routed messages as deliveries. They take their
    /// sequence numbers in the total message order ([`Message`]'s
    /// `Ord`), so the routing order does not matter. The inbox is freed.
    ///
    /// # Panics
    ///
    /// As [`EventQueue::schedule_wake`], for a message delivered before
    /// a taken horizon or to a node that is not the queue's.
    pub(crate) fn deliver(&mut self, mut inbox: Vec<Message>) {
        inbox.sort_unstable();
        let end = self.base + self.wakes.len() as u32;
        self.deliveries.reserve(inbox.len());
        for m in inbox {
            assert!(
                (self.base..end).contains(&m.dst),
                "message for node {} routed to the queue of nodes {}..{end}",
                m.dst,
                self.base
            );
            let seq = self.assign_seq(m.deliver, m.dst);
            self.deliveries.push(FleetEvent {
                time: m.deliver,
                node: m.dst,
                seq,
                kind: EventKind::Deliver {
                    src: m.src,
                    msg_seq: m.seq,
                },
            });
        }
        // Two sorted runs — the queued deliveries, then the new ones,
        // whose sequence numbers are above every queued one — which the
        // stable sort merges in one linear pass.
        self.deliveries.sort();
    }

    /// Moves every event strictly before `horizon` into a new batch,
    /// grouped by node in index order, each node's events in
    /// `(time, seq)` order. Events at or beyond the horizon stay queued
    /// for a later epoch, and each taken wake leaves its node without a
    /// pending one. From now on the queue refuses events before
    /// `horizon`.
    pub(crate) fn take_before(&mut self, horizon: Nanos) -> Vec<FleetEvent> {
        let mut batch = Vec::with_capacity(self.wakes.len() + self.deliveries.len());
        let mut kept = 0;
        let mut next = 0;
        for (node, slot) in (self.base..).zip(&mut self.wakes) {
            let (time, seq) = *slot;
            let wake = FleetEvent {
                time,
                node,
                seq,
                kind: EventKind::Wake,
            };
            let mut wake_due = time < horizon;
            while let Some(&d) = self.deliveries.get(next).filter(|d| d.node == node) {
                next += 1;
                if d.time >= horizon {
                    self.deliveries[kept] = d;
                    kept += 1;
                    continue;
                }
                if wake_due && (time, seq) < (d.time, d.seq) {
                    batch.push(wake);
                    wake_due = false;
                }
                batch.push(d);
            }
            if wake_due {
                batch.push(wake);
            }
            if time < horizon {
                *slot = NO_WAKE;
            }
        }
        self.deliveries.truncate(kept);
        self.taken = self.taken.max(horizon);
        batch
    }

    /// Number of queued [`EventKind::Deliver`] events — messages routed
    /// to this queue but not yet delivered (message-conservation
    /// accounting at end of run).
    pub(crate) fn pending_deliveries(&self) -> u64 {
        self.deliveries.len() as u64
    }
}

/// A cross-node message in flight. Ordering (the order a shard queues
/// its inbox in) is by `(dst, deliver, src, seq)` — a total order
/// independent of which shard produced the message first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Message {
    /// Destination node id.
    pub dst: u32,
    /// Absolute delivery time (send time + link latency).
    pub(crate) deliver: Nanos,
    /// Source node id.
    pub src: u32,
    /// Sender-assigned sequence number, unique per source node.
    pub seq: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn message(deliver: Nanos, dst: u32, src: u32, seq: u32) -> Message {
        Message {
            dst,
            deliver,
            src,
            seq,
        }
    }

    fn take(q: &mut EventQueue, horizon: Nanos) -> Vec<(u32, Nanos, u64)> {
        q.take_before(horizon)
            .into_iter()
            .map(|e| (e.node, e.time, e.seq))
            .collect()
    }

    #[test]
    fn takes_in_node_time_seq_order() {
        let mut q = EventQueue::new(0, 10);
        q.schedule_wake(50, 7);
        q.schedule_wake(10, 9);
        q.schedule_wake(30, 3);
        q.deliver(vec![message(10, 3, 1, 0), message(40, 9, 2, 0)]);
        // Lower node id first, whatever the times; within a node, time
        // order. The deliveries take their seqs in message order.
        assert_eq!(
            take(&mut q, Nanos::MAX),
            vec![(3, 10, 3), (3, 30, 2), (7, 50, 0), (9, 10, 1), (9, 40, 4)]
        );
        assert!(q.take_before(Nanos::MAX).is_empty());
    }

    /// A wake and a delivery for one node at the same nanosecond run in
    /// the order they were queued, both ways round, beside a second
    /// node's events.
    #[test]
    fn same_instant_wake_and_delivery_keep_their_queueing_order() {
        let mut q = EventQueue::new(4, 2);
        // Node 4: delivery queued before the wake was scheduled.
        q.deliver(vec![message(100, 4, 9, 0)]);
        q.schedule_wake(100, 4);
        // Node 5: wake scheduled before the delivery was queued, and a
        // later delivery queued before both.
        q.deliver(vec![message(150, 5, 8, 0)]);
        q.schedule_wake(100, 5);
        q.deliver(vec![message(100, 5, 9, 1)]);
        let batch = q.take_before(200);
        let order: Vec<(u32, Nanos, u64, bool)> = batch
            .iter()
            .map(|e| (e.node, e.time, e.seq, e.kind == EventKind::Wake))
            .collect();
        assert_eq!(
            order,
            vec![
                (4, 100, 0, false),
                (4, 100, 1, true),
                (5, 100, 3, true),
                (5, 100, 4, false),
                (5, 150, 2, false),
            ]
        );
        // Each node's events are in `(time, seq)` order, the nodes in
        // index order.
        assert!(batch.windows(2).all(|w| w[0] < w[1]));
        assert!(q.take_before(Nanos::MAX).is_empty());
    }

    #[test]
    fn horizon_is_exclusive() {
        let mut q = EventQueue::new(0, 2);
        q.schedule_wake(100, 0);
        assert!(q.take_before(100).is_empty());
        // An event exactly at a taken horizon is due in a later batch:
        // the wake and the delivery both come out of the next one.
        q.deliver(vec![message(100, 1, 0, 0)]);
        assert_eq!(q.pending_deliveries(), 1);
        assert_eq!(q.take_before(101).len(), 2);
        assert!(q.take_before(Nanos::MAX).is_empty());
    }

    #[test]
    #[should_panic(expected = "event at 99 ns for node 4 lands before the horizon 100 ns")]
    fn push_before_a_taken_horizon_panics() {
        let mut q = EventQueue::new(4, 1);
        q.schedule_wake(10, 4);
        let _ = q.take_before(100);
        q.schedule_wake(99, 4);
    }

    #[test]
    #[should_panic(expected = "node 2 already has a wake pending")]
    fn a_second_pending_wake_panics() {
        let mut q = EventQueue::new(0, 3);
        q.schedule_wake(10, 2);
        q.schedule_wake(20, 2);
    }

    #[test]
    fn message_order_is_by_dst_deliver_src_seq() {
        let mut msgs = [
            message(5, 2, 9, 0),
            message(5, 1, 0, 3),
            message(4, 9, 9, 9),
        ];
        msgs.sort();
        assert_eq!(msgs.map(|m| m.dst), [1, 2, 9]);
        let mut msgs = [
            message(5, 1, 0, 3),
            message(4, 1, 7, 0),
            message(4, 1, 2, 5),
        ];
        msgs.sort();
        assert_eq!(msgs.map(|m| (m.deliver, m.src)), [(4, 2), (4, 7), (5, 0)]);
    }
}
