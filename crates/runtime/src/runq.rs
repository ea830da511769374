//! The scheduler's run queue: FIFO order with O(1) unlinking.
//!
//! `VecDeque::remove(i)` shifts up to half the queue on every pick —
//! O(n) per scheduling decision under the random policy or a decider,
//! which pick from the middle. This queue keeps the same observable
//! FIFO semantics but unlinks by *tombstoning*: removal blanks the
//! entry in place, and compaction runs only when tombstones outnumber
//! live entries, so the amortized cost per operation is O(1) while the
//! iteration order stays byte-identical to the `VecDeque` it replaced.

use std::collections::VecDeque;

use crate::ids::ThreadId;

/// An order-preserving queue of runnable threads.
#[derive(Debug, Default)]
pub(crate) struct RunQueue {
    buf: VecDeque<Option<ThreadId>>,
    /// Number of tombstones (`None` entries) in `buf`.
    dead: usize,
}

impl RunQueue {
    pub(crate) fn new() -> Self {
        RunQueue::default()
    }

    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.buf.len() - self.dead
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        self.dead = 0;
    }

    pub(crate) fn push_back(&mut self, tid: ThreadId) {
        self.buf.push_back(Some(tid));
    }

    /// Pre-grows the buffer for a batch of `additional` pushes, so a
    /// mass wakeup (one virtual tick's worth of sleepers) pays for
    /// at most one reallocation instead of amortizing per push.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Pops the first live entry; amortized O(1).
    pub(crate) fn pop_front(&mut self) -> Option<ThreadId> {
        while let Some(entry) = self.buf.pop_front() {
            match entry {
                Some(tid) => return Some(tid),
                None => self.dead -= 1,
            }
        }
        None
    }

    /// Live entries in FIFO order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = ThreadId> + '_ {
        self.buf.iter().filter_map(|s| *s)
    }

    /// Live entries in FIFO order, paired with raw buffer positions that
    /// stay valid for [`RunQueue::take_at`] until the next mutation.
    pub(crate) fn iter_with_pos(&self) -> impl Iterator<Item = (usize, ThreadId)> + '_ {
        self.buf
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|t| (i, t)))
    }

    /// Unlinks the entry at raw position `pos` (as yielded by
    /// [`RunQueue::iter_with_pos`]); O(1) plus amortized compaction.
    pub(crate) fn take_at(&mut self, pos: usize) -> ThreadId {
        let tid = self.buf[pos].take().expect("live entry at position");
        self.dead += 1;
        self.maybe_compact();
        tid
    }

    /// Unlinks the `i`-th live entry in FIFO order.
    pub(crate) fn remove_live(&mut self, i: usize) -> ThreadId {
        let pos = self.iter_with_pos().nth(i).expect("live index in range").0;
        self.take_at(pos)
    }

    fn maybe_compact(&mut self) {
        if self.dead * 2 > self.buf.len() {
            self.buf.retain(Option::is_some);
            self.dead = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::tid;

    fn drain(q: &mut RunQueue) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some(t) = q.pop_front() {
            out.push(t.index());
        }
        out
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut q = RunQueue::new();
        for i in 0..5 {
            q.push_back(tid(i));
        }
        assert_eq!(q.len(), 5);
        assert_eq!(drain(&mut q), [0, 1, 2, 3, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn remove_live_matches_vecdeque_remove() {
        let mut q = RunQueue::new();
        for i in 0..5 {
            q.push_back(tid(i));
        }
        assert_eq!(q.remove_live(2).index(), 2);
        assert_eq!(q.remove_live(0).index(), 0);
        assert_eq!(q.len(), 3);
        assert_eq!(q.iter().map(ThreadId::index).collect::<Vec<_>>(), [1, 3, 4]);
        assert_eq!(drain(&mut q), [1, 3, 4]);
    }

    #[test]
    fn take_at_uses_positions_from_iter_with_pos() {
        let mut q = RunQueue::new();
        for i in 0..4 {
            q.push_back(tid(i));
        }
        q.remove_live(1); // introduce a tombstone
        let pairs: Vec<_> = q.iter_with_pos().collect();
        assert_eq!(
            pairs.iter().map(|(_, t)| t.index()).collect::<Vec<_>>(),
            [0, 2, 3]
        );
        let (pos, t) = pairs[1];
        assert_eq!(q.take_at(pos), t);
        assert_eq!(drain(&mut q), [0, 3]);
    }

    #[test]
    fn compaction_bounds_the_buffer() {
        let mut q = RunQueue::new();
        for round in 0..1_000u64 {
            q.push_back(tid(round));
            q.push_back(tid(round + 1_000_000));
            q.remove_live(1);
            q.pop_front();
        }
        assert!(q.is_empty());
        // Tombstones never exceed live entries + 1 between operations.
        assert!(q.buf.len() <= 2);
    }

    #[test]
    fn interleaved_push_pop_remove() {
        let mut q = RunQueue::new();
        for i in 0..6 {
            q.push_back(tid(i));
        }
        assert_eq!(q.pop_front().unwrap().index(), 0);
        assert_eq!(q.remove_live(3).index(), 4);
        q.push_back(tid(6));
        assert_eq!(
            q.iter().map(ThreadId::index).collect::<Vec<_>>(),
            [1, 2, 3, 5, 6]
        );
        assert_eq!(q.len(), 5);
    }
}
