//! Timer queue vs ordered-map model.
//!
//! The engine's only timer queue is `queue::TimerQueue`, a `BinaryHeap`
//! whose cancellations leave tombstones that are consumed lazily. These
//! tests run it in lockstep with the obvious model of the live timers, a
//! `BTreeMap<(deadline, seq), QueueEntry>`, and demand **identical** pops —
//! entry for entry, including ids and tags — across any interleaving of
//! inserts, O(1) cancellations, stale cancellations and pops, because event
//! order is what makes simulation output byte-stable. Ids come from
//! `insert`; a stale id (popped or cancelled earlier) may name a slot that
//! a later insert reuses, and cancelling it must leave that slot's new
//! timer live. They also pin the
//! accounting: `live_len` is the model's size, every stored entry is live
//! or tombstoned, `live_entries` lists the model in `(deadline, seq)` order,
//! and a drained queue stores nothing and holds no tombstone.
//!
//! Deadlines are scattered from the current watermark (same tick, next
//! tick, near ties, the far future), cancels target live entries by index,
//! stale cancels target dead ids by index, and pops advance the watermark. Case count honours `PROPTEST_CASES` (CI
//! runs 512; the nightly long-fuzz raises it further).

use std::collections::BTreeMap;

use proptest::prelude::*;
use simcore::queue::{QueueEntry, TimerQueue};
use simcore::{SimTime, TimerId};

/// One step of a queue script.
#[derive(Debug, Clone)]
enum Op {
    /// Insert at `watermark + delta` picoseconds.
    Insert(u64),
    /// Cancel the n-th live entry in `(deadline, seq)` order (modulo the
    /// live count at application time).
    Cancel(usize),
    /// Cancel again the n-th id popped or cancelled so far (modulo their
    /// count): a no-op, even when a later insert reuses its slot.
    StaleCancel(usize),
    /// Pop once from queue and model and compare; advances the watermark.
    Pop,
}

/// Deadline deltas from equal keys (0) and near ties through
/// power-of-two boundaries to the far future.
fn delta() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        0u64..4,
        0u64..64,
        60u64..70,
        0u64..4096,
        4090u64..4200,
        0u64..(1 << 24),
        (1u64 << 30)..(1 << 34),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    // Repetition stands in for arm weights
    // (~4 insert : 1 cancel : 1 stale cancel : 3 pop).
    prop_oneof![
        delta().prop_map(Op::Insert).boxed(),
        delta().prop_map(Op::Insert).boxed(),
        delta().prop_map(Op::Insert).boxed(),
        delta().prop_map(Op::Insert).boxed(),
        (0..64usize).prop_map(Op::Cancel).boxed(),
        (0..256usize).prop_map(Op::StaleCancel).boxed(),
        Just(Op::Pop).boxed(),
        Just(Op::Pop).boxed(),
        Just(Op::Pop).boxed(),
    ]
}

/// The live timers, keyed in the order the queue must pop them.
type Model = BTreeMap<(SimTime, u64), QueueEntry>;

/// The queue's accounting and diagnostic view must match the model.
fn assert_agrees(q: &TimerQueue, model: &Model) {
    assert_eq!(q.live_len(), model.len(), "live accounting diverged");
    assert_eq!(
        q.stored_len(),
        q.live_len() + q.outstanding_tombstones(),
        "a stored entry is neither live nor tombstoned"
    );
    let want: Vec<QueueEntry> = model.values().copied().collect();
    assert_eq!(q.live_entries(), want, "live_entries diverged");
}

/// Pop once from both and compare, listing the popped id as dead. Every
/// third popped entry is then cancelled again, which must be a no-op.
fn pop_both(
    q: &mut TimerQueue,
    model: &mut Model,
    watermark: &mut u64,
    dead: &mut Vec<TimerId>,
) -> Option<QueueEntry> {
    let want = model.pop_first().map(|(_, e)| e);
    assert_eq!(q.peek_deadline(), want.map(|e| e.deadline));
    let got = q.pop();
    assert_eq!(
        got, want,
        "queue and model popped different entries (watermark {watermark})"
    );
    if let Some(e) = got {
        *watermark = e.deadline.0;
        dead.push(e.id);
        if e.id.seq() % 3 == 0 {
            let tombstones = q.outstanding_tombstones();
            q.cancel(e.id);
            assert_eq!(
                q.outstanding_tombstones(),
                tombstones,
                "stale cancel left a tombstone"
            );
        }
    }
    assert_agrees(q, model);
    got
}

/// Drive queue and model through one script in lockstep, comparing after
/// every step, then drain both and require an empty queue with no
/// tombstone left.
fn run_script(ops: &[Op]) {
    let mut q = TimerQueue::new();
    let mut model = Model::new();
    let mut watermark = 0u64;
    let mut inserts = 0u64;
    // Ids popped or cancelled so far.
    let mut dead: Vec<TimerId> = Vec::new();

    for o in ops {
        match o {
            Op::Insert(delta) => {
                inserts += 1;
                let deadline = SimTime(watermark.saturating_add(*delta));
                let tag = inserts ^ 0xA5A5;
                let id = q.insert(deadline, tag);
                assert_eq!(id.seq(), inserts, "seq is the insert count");
                let e = QueueEntry { deadline, id, tag };
                model.insert((deadline, id.seq()), e);
            }
            Op::Cancel(i) => {
                if !model.is_empty() {
                    let key = *model.keys().nth(i % model.len()).expect("in range");
                    let id = model.remove(&key).expect("listed").id;
                    q.cancel(id);
                    dead.push(id);
                }
            }
            Op::StaleCancel(i) => {
                if !dead.is_empty() {
                    let tombstones = q.outstanding_tombstones();
                    q.cancel(dead[i % dead.len()]);
                    assert_eq!(
                        q.outstanding_tombstones(),
                        tombstones,
                        "stale cancel changed the tombstones"
                    );
                }
            }
            Op::Pop => {
                pop_both(&mut q, &mut model, &mut watermark, &mut dead);
            }
        }
        assert_agrees(&q, &model);
    }
    while pop_both(&mut q, &mut model, &mut watermark, &mut dead).is_some() {}
    assert_eq!(q.stored_len(), 0);
    assert_eq!(q.outstanding_tombstones(), 0, "queue leaked tombstones");
}

proptest! {
    /// Randomized insert/cancel/advance scripts: the queue pops the model's
    /// (time, seq) sequence, entry for entry.
    #[test]
    fn queue_matches_model_pop_sequence(ops in prop::collection::vec(op(), 1..120)) {
        run_script(&ops);
    }
}

#[test]
fn deterministic_boundary_script() {
    // Hand-picked corner mix: same-instant bursts, cancels of the earliest
    // and of later entries, pops interleaved with inserts at the watermark.
    let ops = vec![
        Op::Insert(0),
        Op::Insert(0),
        Op::Insert(63),
        Op::Insert(64),
        Op::Insert(4095),
        Op::Insert(4096),
        Op::Cancel(2),
        Op::Pop,
        Op::Insert(1 << 33),
        Op::Insert(0),
        Op::Pop,
        Op::Pop,
        Op::Cancel(0),
        Op::StaleCancel(0),
        Op::Insert(1),
        Op::StaleCancel(3),
        Op::Pop,
        Op::StaleCancel(1),
        Op::Pop,
    ];
    run_script(&ops);
}
