//! The sleeper queue behind `Io::sleep`: a binary min-heap keyed by
//! `(wake_at, seq)`. `seq` is unique, so the key is a total order and
//! [`TimerWheel::pop_earliest_into`] hands over each tick's entries in
//! exactly that order. The population is small (at most one entry per
//! thread slot, plus stale ones), so O(log n) per insert and pop is cheap.
//!
//! Lazy invalidation is the caller's business: the scheduler leaves
//! interrupted sleepers' entries in place (they fail its validity check
//! when popped) and calls [`TimerWheel::retain`] to compact once stale
//! entries outnumber live ones.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled timer: an absolute wake time, the insertion sequence
/// number that breaks ties deterministically, and the caller's payload
/// (the scheduler stores the sleeping `ThreadId`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerEntry<T> {
    /// Absolute virtual time (microseconds) at which to fire.
    pub wake_at: u64,
    /// Insertion sequence number; the deterministic tiebreak in a tick.
    pub seq: u64,
    /// Caller data carried with the entry.
    pub payload: T,
}

/// A heap element, ordered by `(wake_at, seq)` reversed so that the
/// max-heap `BinaryHeap` yields the earliest entry first.
#[derive(Debug)]
struct Due<T>(TimerEntry<T>);

impl<T> Ord for Due<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        let key = |due: &Self| (due.0.wake_at, due.0.seq);
        key(other).cmp(&key(self))
    }
}

impl<T> PartialOrd for Due<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Due<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl<T> Eq for Due<T> {}

/// The sleeper queue: a binary heap. The name is the timer wheel's it
/// replaced, kept because callers outside the crate import it.
#[derive(Debug)]
pub struct TimerWheel<T> {
    heap: BinaryHeap<Due<T>>,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<T> TimerWheel<T> {
    pub fn new() -> Self {
        TimerWheel {
            heap: BinaryHeap::new(),
        }
    }

    /// Number of stored entries (live *and* lazily-invalidated).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Empties the queue, keeping its allocation.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Files `entry`, where `now` is the caller's current time; an entry
    /// may not be due before it is filed.
    pub fn insert(&mut self, now: u64, entry: TimerEntry<T>) {
        debug_assert!(entry.wake_at >= now, "inserting an already-due timer");
        self.heap.push(Due(entry));
    }

    /// Pops the earliest tick: clears `out`, fills it with every entry
    /// of that tick sorted by `seq`, and returns its wake time. Returns
    /// `None` (leaving `out` empty) if the queue is empty.
    pub fn pop_earliest_into(&mut self, out: &mut Vec<TimerEntry<T>>) -> Option<u64> {
        out.clear();
        let wake = self.peek_earliest_wake()?;
        while self.heap.peek().is_some_and(|due| due.0.wake_at == wake) {
            out.extend(self.heap.pop().map(|due| due.0));
        }
        Some(wake)
    }

    /// The earliest stored wake time, without popping anything: a capped
    /// run's "when could a sleeper next fire?" probe.
    pub fn peek_earliest_wake(&self) -> Option<u64> {
        self.heap.peek().map(|due| due.0.wake_at)
    }

    /// Keeps only entries satisfying `f`: the compaction primitive for
    /// lazily-invalidated (cancelled) timers. Survivors keep their keys,
    /// so their wake order is unchanged. O(stored).
    pub fn retain(&mut self, mut f: impl FnMut(&TimerEntry<T>) -> bool) {
        self.heap.retain(|due| f(&due.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue() -> TimerWheel<u64> {
        TimerWheel::new()
    }

    fn entry(wake_at: u64, seq: u64) -> TimerEntry<u64> {
        TimerEntry {
            wake_at,
            seq,
            payload: seq,
        }
    }

    /// Drains the queue, returning (wake_at, seq) in pop order.
    fn drain(w: &mut TimerWheel<u64>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut buf = Vec::new();
        while let Some(wake) = w.pop_earliest_into(&mut buf) {
            for e in &buf {
                assert_eq!(e.wake_at, wake);
                out.push((e.wake_at, e.seq));
            }
        }
        out
    }

    #[test]
    fn pops_in_wake_then_seq_order() {
        let mut w = queue();
        // Deterministic pseudo-random wake times over a wide range.
        let mut x: u64 = 0x9e3779b97f4a7c15;
        let mut expect = Vec::new();
        for seq in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let wake = x % 1_000_000;
            w.insert(0, entry(wake, seq));
            expect.push((wake, seq));
        }
        expect.sort_unstable();
        assert_eq!(w.len(), 500);
        assert_eq!(drain(&mut w), expect);
        assert!(w.is_empty());
    }

    #[test]
    fn same_tick_batch_pops_together_sorted_by_seq() {
        let mut w = queue();
        w.insert(0, entry(70, 3));
        w.insert(0, entry(70, 1));
        w.insert(0, entry(5, 2));
        let mut buf = Vec::new();
        assert_eq!(w.pop_earliest_into(&mut buf), Some(5));
        assert_eq!(buf.len(), 1);
        assert_eq!(w.pop_earliest_into(&mut buf), Some(70));
        assert_eq!(buf.iter().map(|e| e.seq).collect::<Vec<_>>(), [1, 3]);
        assert_eq!(w.pop_earliest_into(&mut buf), None);
        assert!(buf.is_empty());
    }

    #[test]
    fn retain_false_empties_and_stays_consistent() {
        let mut w = queue();
        for seq in 0..1_000 {
            w.insert(0, entry(seq * 37 + 1, seq));
        }
        assert_eq!(w.len(), 1_000);
        w.retain(|_| false);
        assert_eq!(w.len(), 0);
        let mut buf = Vec::new();
        assert_eq!(w.pop_earliest_into(&mut buf), None);
    }

    #[test]
    fn retain_keeps_order_of_survivors() {
        let mut w = queue();
        for seq in 0..200 {
            w.insert(0, entry(1 + seq % 97, seq));
        }
        w.retain(|e| e.seq % 3 == 0);
        let popped = drain(&mut w);
        let mut expect: Vec<(u64, u64)> = (0..200)
            .filter(|s| s % 3 == 0)
            .map(|s| (1 + s % 97, s))
            .collect();
        expect.sort_unstable();
        assert_eq!(popped, expect);
    }

    #[test]
    fn cursor_rebases_when_emptied() {
        let mut w = queue();
        w.insert(0, entry(1_000, 1));
        let mut buf = Vec::new();
        assert_eq!(w.pop_earliest_into(&mut buf), Some(1_000));
        // Empty again: a caller whose clock stayed behind may insert.
        w.insert(500, entry(501, 2));
        assert_eq!(w.pop_earliest_into(&mut buf), Some(501));
    }

    #[test]
    fn huge_deltas_file_at_top_levels_and_pop_in_order() {
        let mut w = queue();
        w.insert(0, entry(u64::MAX, 1));
        w.insert(0, entry(1 << 40, 2));
        w.insert(0, entry(3, 3));
        assert_eq!(drain(&mut w), [(3, 3), (1 << 40, 2), (u64::MAX, 1)]);
    }

    #[test]
    fn interleaved_insert_pop_cascade() {
        let mut w = queue();
        let mut buf = Vec::new();
        w.insert(0, entry(64, 1));
        w.insert(0, entry(66, 2));
        assert_eq!(w.pop_earliest_into(&mut buf), Some(64));
        // Filed after a pop, between two stored ticks.
        w.insert(64, entry(65, 3));
        assert_eq!(w.pop_earliest_into(&mut buf), Some(65));
        assert_eq!(w.pop_earliest_into(&mut buf), Some(66));
        assert!(w.is_empty());
    }

    #[test]
    fn peek_matches_pop_at_every_step() {
        let mut w = queue();
        let mut x: u64 = 0x243f6a8885a308d3;
        for seq in 0..300 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            w.insert(0, entry(x % 500_000, seq));
        }
        let mut buf = Vec::new();
        loop {
            let peeked = w.peek_earliest_wake();
            let popped = w.pop_earliest_into(&mut buf);
            assert_eq!(peeked, popped);
            if popped.is_none() {
                break;
            }
        }
    }

    #[test]
    fn peek_does_not_mutate() {
        let mut w = queue();
        w.insert(0, entry(1 << 20, 1));
        w.insert(0, entry(70, 2));
        assert_eq!(w.peek_earliest_wake(), Some(70));
        assert_eq!(w.peek_earliest_wake(), Some(70));
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn insert_with_clock_ahead_of_cursor_files_fine() {
        let mut w = queue();
        w.insert(0, entry(10, 1));
        let mut buf = Vec::new();
        assert_eq!(w.pop_earliest_into(&mut buf), Some(10));
        w.insert(10, entry(5_000, 2));
        // An epoch-synced caller's clock may run ahead of the last pop.
        w.insert(2_000, entry(2_500, 3));
        assert_eq!(drain(&mut w), [(2_500, 3), (5_000, 2)]);
    }

    /// The queue against the structure whose order it promises: a
    /// `BTreeSet<(wake_at, seq)>`. A random interleaving of inserts
    /// (deltas of every magnitude, ticks that repeat, a clock that may
    /// run ahead of the last pop), pops, peeks and compactions must agree
    /// on pop *order*, `peek` and `len` after every operation.
    #[test]
    fn random_interleavings_match_an_ordered_set() {
        use std::collections::BTreeSet;
        // Deltas are drawn one 6-bit digit at a time, at every digit
        // position of a `u64`.
        const DIGIT_BITS: u64 = 6;
        const DIGITS: u64 = 11;
        for round in 0..40_u64 {
            let mut x = 0x9e3779b97f4a7c15 ^ round.wrapping_mul(0xd1342543de82ef95);
            let mut rand = move || {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x >> 11
            };
            let mut w = queue();
            let mut model: BTreeSet<(u64, u64)> = BTreeSet::new();
            let mut buf = Vec::new();
            // The last popped tick, or wherever the clock was when the
            // queue was last found empty: the clock never runs behind it.
            let mut floor = 0_u64;
            let mut last_wake = 0_u64;
            for op in 0..600_u64 {
                // Distinct but not monotone (389 is odd, so this permutes
                // 0..1024): a tick's batch must come out sorted by `seq`
                // whatever order it went in.
                let seq = op * 389 % 1024;
                match rand() % 8 {
                    0..=3 => {
                        // The clock sits anywhere from the floor up to
                        // the earliest sleeper (an epoch-synced shard
                        // fast-forwards it), or anywhere when empty.
                        let earliest = model.first().map_or(u64::MAX, |&(wake, _)| wake);
                        let now = if model.is_empty() {
                            floor = rand() % (1 << (rand() % 60));
                            floor
                        } else {
                            floor + rand() % (earliest - floor).saturating_add(1)
                        };
                        let wake = if rand() % 4 == 0 {
                            last_wake.max(now)
                        } else {
                            let digit = rand() % DIGITS;
                            let coarse = (rand() % (1 << DIGIT_BITS)) << (digit * DIGIT_BITS);
                            let delta = coarse | (rand() % (1 << DIGIT_BITS));
                            now.saturating_add(delta)
                        };
                        last_wake = wake;
                        w.insert(now, entry(wake, seq));
                        model.insert((wake, seq));
                    }
                    4..=5 => {
                        let popped = w.pop_earliest_into(&mut buf);
                        let tick = model.first().map(|&(wake, _)| wake);
                        assert_eq!(popped, tick, "round {round} op {op}");
                        let got: Vec<_> = buf.iter().map(|e| (e.wake_at, e.seq)).collect();
                        let due = |e: &(u64, u64)| Some(e.0) == tick;
                        let want: Vec<_> = model.iter().copied().take_while(due).collect();
                        model.retain(|e| !due(e));
                        assert_eq!(got, want, "round {round} op {op}");
                        floor = tick.unwrap_or(floor);
                    }
                    6 => {
                        let keep = rand() % 3;
                        w.retain(|e| e.seq % 3 != keep);
                        model.retain(|&(_, s)| s % 3 != keep);
                    }
                    _ => {}
                }
                assert_eq!(w.len(), model.len(), "round {round} op {op}");
                assert_eq!(
                    w.peek_earliest_wake(),
                    model.first().map(|&(wake, _)| wake),
                    "round {round} op {op}"
                );
            }
        }
    }

    #[test]
    fn clear_keeps_it_reusable() {
        let mut w = queue();
        for seq in 0..100 {
            w.insert(0, entry(seq + 1, seq));
        }
        w.clear();
        assert!(w.is_empty());
        w.insert(7, entry(9, 1));
        let mut buf = Vec::new();
        assert_eq!(w.pop_earliest_into(&mut buf), Some(9));
    }
}
