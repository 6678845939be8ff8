//! The engine's timer queue: a binary heap with O(1) lazy cancellation.
//!
//! The engine schedules timers keyed by `(deadline, seq)` — `seq` is a
//! monotone per-engine counter, so the key is unique and pop order is total.
//! [`TimerQueue`] keeps its entries in a `BinaryHeap` on that key, so it pops
//! them in strictly ascending `(deadline, seq)` order, which is what makes
//! simulation output byte-stable. DESIGN.md §13.1 records why there is no
//! timing wheel in front of it.
//!
//! # Cancellation and tombstones
//!
//! [`TimerQueue::cancel`] is O(1): the id goes into a tombstone set and the
//! entry is discarded — *consuming* the tombstone — when it next reaches the
//! top of the heap. A live-id set makes cancelling an id the queue no longer
//! holds (already popped, already cancelled, never inserted) a no-op, so a
//! tombstone always shadows a stored entry and a drained queue holds none.
//! The engine asserts that (debug builds) at quiescence and on drop via
//! [`TimerQueue::outstanding_tombstones`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use crate::time::SimTime;

/// Identifies a scheduled timer. Ids are never reused.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TimerId(pub(crate) u64);

impl TimerId {
    /// Build a raw id — for queue tests that drive a [`TimerQueue`]
    /// directly (the engine allocates its own ids).
    pub fn from_raw(raw: u64) -> Self {
        TimerId(raw)
    }
}

/// One scheduled timer as stored in a queue. Ordered by `(deadline, seq)`;
/// `seq` is unique per engine, making the order total.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct QueueEntry {
    /// Absolute deadline.
    pub deadline: SimTime,
    /// Schedule-order tie-breaker (monotone, unique).
    pub seq: u64,
    /// The timer's id (cancellation key).
    pub id: TimerId,
    /// Opaque completion tag.
    pub tag: u64,
}

/// `BinaryHeap` + tombstone timer queue. See module docs.
#[derive(Default)]
pub struct TimerQueue {
    heap: BinaryHeap<Reverse<QueueEntry>>,
    /// Tombstones for cancelled-but-not-yet-consumed entries.
    cancelled: HashSet<TimerId>,
    /// Ids currently stored and not tombstoned.
    live_ids: HashSet<TimerId>,
}

impl TimerQueue {
    /// Empty queue.
    pub fn new() -> Self {
        TimerQueue::default()
    }

    /// Add an entry.
    pub fn insert(&mut self, entry: QueueEntry) {
        self.live_ids.insert(entry.id);
        self.heap.push(Reverse(entry));
    }

    /// Cancel by id, O(1). A no-op when the queue does not hold the id
    /// live (callers may race a cancellation against the timer firing).
    pub fn cancel(&mut self, id: TimerId) {
        if self.live_ids.remove(&id) {
            self.cancelled.insert(id);
        }
    }

    /// Earliest live deadline, or `None` when drained. Consumes the
    /// tombstones of cancelled entries it finds on top (hence `&mut`).
    pub fn peek_deadline(&mut self) -> Option<SimTime> {
        loop {
            match self.heap.peek() {
                Some(Reverse(e)) if self.cancelled.contains(&e.id) => {
                    let Reverse(e) = self.heap.pop().expect("peeked");
                    self.cancelled.remove(&e.id);
                }
                Some(Reverse(e)) => return Some(e.deadline),
                None => return None,
            }
        }
    }

    /// Pop the earliest live entry.
    pub fn pop(&mut self) -> Option<QueueEntry> {
        self.peek_deadline()?;
        let Reverse(e) = self.heap.pop().expect("peeked live entry");
        self.live_ids.remove(&e.id);
        Some(e)
    }

    /// Number of live (non-cancelled) entries.
    pub fn live_len(&self) -> usize {
        self.live_ids.len()
    }

    /// Entries stored, including cancelled-but-not-yet-consumed ones.
    pub fn stored_len(&self) -> usize {
        self.heap.len()
    }

    /// Tombstones not yet consumed: 0 whenever [`TimerQueue::stored_len`]
    /// is 0, since every tombstone shadows a stored entry.
    pub fn outstanding_tombstones(&self) -> usize {
        self.cancelled.len()
    }

    /// Live entries in ascending `(deadline, seq)` order, for stall
    /// diagnostics (heap order is not observable).
    pub fn live_entries(&self) -> Vec<QueueEntry> {
        let mut out: Vec<QueueEntry> = self
            .heap
            .iter()
            .map(|Reverse(e)| *e)
            .filter(|e| !self.cancelled.contains(&e.id))
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(t: u64, seq: u64) -> QueueEntry {
        QueueEntry {
            deadline: SimTime(t),
            seq,
            id: TimerId(seq),
            tag: seq,
        }
    }

    fn drain(q: &mut TimerQueue) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(x) = q.pop() {
            out.push((x.deadline.0, x.seq));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = TimerQueue::new();
        for (t, s) in [(5u64, 1u64), (5, 2), (70, 3), (4096, 4), (5, 5), (1 << 40, 6), (6, 7)] {
            q.insert(e(t, s));
        }
        assert_eq!(
            drain(&mut q),
            vec![(5, 1), (5, 2), (5, 5), (6, 7), (70, 3), (4096, 4), (1 << 40, 6)]
        );
        assert_eq!(q.stored_len(), 0);
        assert_eq!(q.outstanding_tombstones(), 0);
    }

    #[test]
    fn cancelled_entries_are_consumed_when_they_surface() {
        let mut q = TimerQueue::new();
        // One cancelled on top of the heap, two below it.
        q.insert(e(10, 1));
        q.insert(e(10, 2));
        q.insert(e(50, 3));
        q.insert(e(1 << 20, 4));
        for id in [1, 3, 4] {
            q.cancel(TimerId(id));
        }
        assert_eq!(q.live_len(), 1);
        assert_eq!(q.stored_len(), 4);
        assert_eq!(q.peek_deadline(), Some(SimTime(10)));
        assert_eq!(q.outstanding_tombstones(), 2, "only the top was consumed");
        assert_eq!(drain(&mut q), vec![(10, 2)]);
        assert_eq!(q.outstanding_tombstones(), 0, "all tombstones consumed");
        assert_eq!(q.stored_len(), 0);
    }

    #[test]
    fn live_entries_sorted_and_exclude_cancelled() {
        let mut q = TimerQueue::new();
        q.insert(e(300, 1));
        q.insert(e(7, 2));
        q.insert(e(7, 3));
        q.cancel(TimerId(3));
        let live = q.live_entries();
        let keys: Vec<_> = live.iter().map(|x| (x.deadline.0, x.seq)).collect();
        assert_eq!(keys, vec![(7, 2), (300, 1)]);
    }

    #[test]
    fn stale_cancel_is_a_noop() {
        // Cancelling an already-popped or never-inserted id must not create
        // a tombstone, corrupt accounting, or affect later entries.
        let mut q = TimerQueue::new();
        q.insert(e(1, 1));
        assert_eq!(q.pop().map(|x| x.seq), Some(1));
        q.cancel(TimerId(1)); // already fired
        q.cancel(TimerId(99)); // never existed
        assert_eq!(q.live_len(), 0);
        assert_eq!(q.stored_len(), 0);
        assert_eq!(q.outstanding_tombstones(), 0);
        q.insert(e(2, 2));
        assert_eq!(q.pop().map(|x| x.seq), Some(2));
    }

    #[test]
    fn far_future_and_max_tick() {
        let mut q = TimerQueue::new();
        q.insert(e(u64::MAX, 1));
        q.insert(e(0, 2));
        assert_eq!(drain(&mut q), vec![(0, 2), (u64::MAX, 1)]);
    }
}
