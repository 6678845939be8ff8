//! The engine's timer queue: a binary heap with O(1) lazy cancellation.
//!
//! The engine schedules timers keyed by `(deadline, seq)` — `seq` is a
//! monotone per-queue counter, so the key is unique and pop order is total.
//! [`TimerQueue`] keeps its entries in a `BinaryHeap` on that key, so it pops
//! them in strictly ascending `(deadline, seq)` order, which is what makes
//! simulation output byte-stable. DESIGN.md §13.1 records why there is no
//! timing wheel in front of it.
//!
//! # Slots, cancellation and tombstones
//!
//! Each stored entry holds a slot of a slot table until it leaves the heap,
//! and its [`TimerId`] names that slot beside the entry's `seq`. The slot
//! records its occupant's `seq` and a cancelled flag, so every id check is
//! one comparison against a column, with no hashing. [`TimerQueue::cancel`]
//! is O(1): when the slot still holds the id's entry and it is live, the
//! flag is set (a tombstone), and the entry is discarded — releasing the
//! slot and consuming the tombstone — when it next reaches the top of the
//! heap. An id whose slot holds another occupant or none (already popped,
//! already consumed, slot since reused) is a no-op, as is a second cancel,
//! so a tombstone always shadows a stored entry and a drained queue holds
//! none. The engine asserts that (debug builds) at quiescence and on drop
//! via [`TimerQueue::outstanding_tombstones`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Identifies a scheduled timer: its never-reused `seq` and the slot its
/// entry holds while stored. Ordered by `seq`, i.e. schedule order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TimerId {
    seq: u64,
    slot: u32,
}

impl TimerId {
    /// The schedule-order sequence number (unique per queue, from 1).
    pub fn seq(self) -> u64 {
        self.seq
    }
}

/// One scheduled timer as stored in a queue. Ordered by `(deadline, seq)`;
/// `seq` is unique per queue, making the order total.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct QueueEntry {
    /// Absolute deadline.
    pub deadline: SimTime,
    /// The timer's id; its `seq` is the schedule-order tie-breaker.
    pub id: TimerId,
    /// Opaque completion tag.
    pub tag: u64,
}

/// `occupant` value of a free slot (sequence numbers start at 1).
const FREE: u64 = 0;

/// `BinaryHeap` + slot-table timer queue. See module docs.
#[derive(Default)]
pub struct TimerQueue {
    heap: BinaryHeap<Reverse<QueueEntry>>,
    /// `seq` of the stored entry holding each slot, or [`FREE`].
    occupant: Vec<u64>,
    /// The slot's entry is cancelled but still stored (a tombstone).
    cancelled: Vec<bool>,
    /// Released slots, reused before the table grows.
    free: Vec<u32>,
    /// Last `seq` handed out.
    seq: u64,
    /// Stored entries not cancelled.
    live: usize,
    /// Stored entries cancelled.
    tombstones: usize,
}

impl TimerQueue {
    /// Empty queue.
    pub fn new() -> Self {
        TimerQueue::default()
    }

    /// Schedule `tag` at `deadline`, returning the new timer's id. Its
    /// `seq` is one more than the last insert's.
    pub fn insert(&mut self, deadline: SimTime, tag: u64) -> TimerId {
        self.seq += 1;
        let slot = self.free.pop().unwrap_or_else(|| {
            self.occupant.push(FREE);
            self.cancelled.push(false);
            (self.occupant.len() - 1) as u32
        });
        self.occupant[slot as usize] = self.seq;
        let id = TimerId {
            seq: self.seq,
            slot,
        };
        self.heap.push(Reverse(QueueEntry { deadline, id, tag }));
        self.live += 1;
        id
    }

    /// Cancel by id, O(1). A no-op unless the queue holds the id live
    /// (callers may race a cancellation against the timer firing).
    pub fn cancel(&mut self, id: TimerId) {
        let s = id.slot as usize;
        if self.occupant.get(s) == Some(&id.seq) && !self.cancelled[s] {
            self.cancelled[s] = true;
            self.live -= 1;
            self.tombstones += 1;
        }
    }

    /// Free a slot whose entry just left the heap.
    fn release(&mut self, slot: u32) {
        self.occupant[slot as usize] = FREE;
        self.cancelled[slot as usize] = false;
        self.free.push(slot);
    }

    /// Earliest live deadline, or `None` when drained. Consumes the
    /// tombstones of cancelled entries it finds on top (hence `&mut`).
    pub fn peek_deadline(&mut self) -> Option<SimTime> {
        loop {
            let &Reverse(top) = self.heap.peek()?;
            if !self.cancelled[top.id.slot as usize] {
                return Some(top.deadline);
            }
            self.heap.pop();
            self.tombstones -= 1;
            self.release(top.id.slot);
        }
    }

    /// Pop the earliest live entry.
    pub fn pop(&mut self) -> Option<QueueEntry> {
        self.peek_deadline()?;
        let Reverse(e) = self.heap.pop().expect("peeked live entry");
        self.live -= 1;
        self.release(e.id.slot);
        Some(e)
    }

    /// Number of live (non-cancelled) entries.
    pub fn live_len(&self) -> usize {
        self.live
    }

    /// Entries stored, including cancelled-but-not-yet-consumed ones.
    pub fn stored_len(&self) -> usize {
        self.heap.len()
    }

    /// Tombstones not yet consumed: 0 whenever [`TimerQueue::stored_len`]
    /// is 0, since every tombstone shadows a stored entry.
    pub fn outstanding_tombstones(&self) -> usize {
        self.tombstones
    }

    /// Live entries in ascending `(deadline, seq)` order, for stall
    /// diagnostics (heap order is not observable).
    pub fn live_entries(&self) -> Vec<QueueEntry> {
        let mut out: Vec<QueueEntry> = self
            .heap
            .iter()
            .map(|Reverse(e)| *e)
            .filter(|e| !self.cancelled[e.id.slot as usize])
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Insert at `t` with the tag the queue's next `seq` will be.
    fn ins(q: &mut TimerQueue, t: u64) -> TimerId {
        let id = q.insert(SimTime(t), q.seq + 1);
        assert_eq!(id.seq(), q.seq);
        id
    }

    fn drain(q: &mut TimerQueue) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(x) = q.pop() {
            assert_eq!(x.tag, x.id.seq());
            out.push((x.deadline.0, x.id.seq()));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = TimerQueue::new();
        for t in [5u64, 5, 70, 4096, 5, 1 << 40, 6] {
            ins(&mut q, t);
        }
        assert_eq!(
            drain(&mut q),
            vec![
                (5, 1),
                (5, 2),
                (5, 5),
                (6, 7),
                (70, 3),
                (4096, 4),
                (1 << 40, 6)
            ]
        );
        assert_eq!(q.stored_len(), 0);
        assert_eq!(q.outstanding_tombstones(), 0);
    }

    #[test]
    fn cancelled_entries_are_consumed_when_they_surface() {
        let mut q = TimerQueue::new();
        // One cancelled on top of the heap, two below it.
        let ids = [10, 10, 50, 1 << 20].map(|t| ins(&mut q, t));
        for i in [0, 2, 3] {
            q.cancel(ids[i]);
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
        ins(&mut q, 300);
        ins(&mut q, 7);
        let third = ins(&mut q, 7);
        q.cancel(third);
        let live = q.live_entries();
        let keys: Vec<_> = live.iter().map(|x| (x.deadline.0, x.id.seq())).collect();
        assert_eq!(keys, vec![(7, 2), (300, 1)]);
    }

    #[test]
    fn stale_cancel_is_a_noop() {
        // Cancelling an already-popped or never-inserted id must not create
        // a tombstone, corrupt accounting, or affect later entries.
        let mut q = TimerQueue::new();
        let first = ins(&mut q, 1);
        assert_eq!(q.pop().map(|x| x.id), Some(first));
        q.cancel(first); // already fired
        q.cancel(TimerId { seq: 99, slot: 0 }); // never existed
        q.cancel(TimerId { seq: 1, slot: 7 }); // slot never allocated
        assert_eq!(q.live_len(), 0);
        assert_eq!(q.stored_len(), 0);
        assert_eq!(q.outstanding_tombstones(), 0);
        ins(&mut q, 2);
        assert_eq!(q.pop().map(|x| x.id.seq()), Some(2));
    }

    #[test]
    fn stale_id_cannot_cancel_its_slots_next_occupant() {
        let mut q = TimerQueue::new();
        let fired = ins(&mut q, 1);
        assert_eq!(q.pop().map(|x| x.id), Some(fired));
        // The next timer takes the fired one's slot under a new seq.
        let next = ins(&mut q, 2);
        assert_eq!(next.slot, fired.slot);
        assert_ne!(next, fired);
        q.cancel(fired);
        assert_eq!(q.live_len(), 1, "a stale id cancelled a live timer");
        assert_eq!(q.outstanding_tombstones(), 0);
        assert_eq!(q.live_entries().len(), 1);
        assert_eq!(q.pop().map(|x| x.id), Some(next));
        // Same after a cancelled entry's slot is reused: its tombstone went
        // with it.
        let dead = ins(&mut q, 3);
        q.cancel(dead);
        q.cancel(dead);
        assert_eq!(q.outstanding_tombstones(), 1, "a second cancel counted");
        assert_eq!(q.peek_deadline(), None);
        let reborn = ins(&mut q, 4);
        assert_eq!(reborn.slot, dead.slot);
        assert_eq!(q.peek_deadline(), Some(SimTime(4)));
        q.cancel(dead);
        assert_eq!(q.pop().map(|x| x.id), Some(reborn));
        assert_eq!(q.stored_len(), 0);
        assert_eq!(q.outstanding_tombstones(), 0);
    }

    #[test]
    fn far_future_and_max_tick() {
        let mut q = TimerQueue::new();
        ins(&mut q, u64::MAX);
        ins(&mut q, 0);
        assert_eq!(drain(&mut q), vec![(0, 2), (u64::MAX, 1)]);
    }
}
