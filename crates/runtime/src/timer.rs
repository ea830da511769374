//! A hierarchical timer wheel: the sleeper queue behind `Io::sleep`.
//!
//! The scheduler used to keep sleepers in a `BinaryHeap` ordered by
//! `(wake_at, seq)`. That is O(log n) per insert and per pop with
//! cache-hostile sift paths, and under `timeout`-and-kill churn the heap
//! additionally pays periodic O(n) compaction rebuilds. At the scale the
//! sharded httpd bench runs (100k+ concurrent sleepers, one `timeout`
//! per connection read), the heap is the hot structure.
//!
//! The wheel files each entry by its *absolute* wake time into one of
//! [`LEVELS`] levels of [`SLOTS`] slots; level `l` slots are `64^l`
//! microseconds wide, so 11 levels cover the full `u64` range and there
//! is no overflow list. Insert, cancel (via [`TimerWheel::retain`]) and
//! expiry are O(1) amortized: a per-level occupancy bitmap finds the
//! next non-empty slot with one `trailing_zeros`, and an entry cascades
//! to a finer level at most [`LEVELS`] times over its whole life.
//!
//! ## Determinism: the wheel pops in exactly the heap's order
//!
//! The scheduler's observable wake order is `(wake_at, seq)` — the heap
//! popped entries one at a time in that order. The wheel pops one
//! level-0 slot at a time instead, and a level-0 slot holds exactly the
//! entries of a single microsecond tick (see the invariant below), so
//! [`TimerWheel::pop_earliest_into`] returns *all* entries of the
//! earliest tick, sorted by `seq`. Consuming the popped batch in order
//! therefore reproduces the heap's sequence exactly; the scheduler's
//! `advance_clock` additionally wakes the whole batch before the next
//! scheduling decision, which is precisely what the heap's drain loop
//! (`while wake_at <= clock { pop }`) did.
//!
//! ## The cursor invariant
//!
//! `cursor` is the wheel's notion of "now": the wake time of the last
//! popped slot (the scheduler's clock never runs ahead of it, and
//! equals it whenever a live sleeper was woken). Every stored entry
//! satisfies `wake_at >= cursor`, and an entry files at the level of
//! the *highest* 6-bit group in which its wake time differs from the
//! cursor. Two consequences carry the whole design:
//!
//! 1. At its filing level, an entry's slot index is `>=` the cursor's
//!    index at that level (higher groups agree, the filing group is
//!    strictly greater), so scanning each level's bitmap from the
//!    cursor's index *upward* never needs wraparound.
//! 2. While the cursor sits inside some level-`l` window, that window's
//!    own level-`l` slot is empty: it was cascaded down the moment the
//!    cursor entered the window, and any later insert inside the window
//!    differs from the cursor only in lower groups, so it files at a
//!    finer level. Hence a level-0 slot is never shared by two ticks
//!    from different 64µs windows.
//!
//! Lazy invalidation is the caller's business: the scheduler leaves
//! interrupted sleepers' entries in place (they fail its validity check
//! when popped) and calls [`TimerWheel::retain`] to compact once stale
//! entries outnumber live ones — the same accounting the heap used.

/// log2 of the slots per level.
const SLOT_BITS: usize = 6;
/// Slots per level; one level-0 slot spans one virtual microsecond.
pub const SLOTS: usize = 1 << SLOT_BITS;
/// Levels in the wheel. `64^11 = 2^66 > u64::MAX`, so any wake time
/// files somewhere and no overflow list is needed.
pub const LEVELS: usize = 11;

/// One scheduled timer: an absolute wake time, the insertion sequence
/// number that breaks ties deterministically, and the caller's payload
/// (the scheduler stores the sleeping `ThreadId`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerEntry<T> {
    /// Absolute virtual time (microseconds) at which to fire.
    pub wake_at: u64,
    /// Insertion sequence number; the deterministic tiebreak within a
    /// tick, identical to the old heap's second key.
    pub seq: u64,
    /// Caller data carried with the entry.
    pub payload: T,
}

/// The wheel itself. See the module docs for the invariants.
#[derive(Debug)]
pub struct TimerWheel<T> {
    /// `LEVELS * SLOTS` buckets, level-major. Entries within a bucket
    /// are in insertion order; because `seq` is monotone and cascades
    /// preserve relative order, buckets stay seq-sorted — the pop path
    /// still sorts defensively (cheap on already-sorted input).
    slots: Vec<Vec<TimerEntry<T>>>,
    /// One bit per slot and level: slot is non-empty.
    occupied: [u64; LEVELS],
    /// Total stored entries.
    len: usize,
    /// The wheel's "now" (see module docs). Rebased on insert-into-empty.
    cursor: u64,
    /// Reusable buffer for cascading a coarse slot without losing the
    /// bucket's allocation.
    cascade_scratch: Vec<TimerEntry<T>>,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<T> TimerWheel<T> {
    pub fn new() -> Self {
        TimerWheel {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            len: 0,
            cursor: 0,
            cascade_scratch: Vec::new(),
        }
    }

    /// Number of stored entries (live *and* lazily-invalidated).
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Empties the wheel, keeping bucket allocations. O(occupied slots),
    /// so a reset between explorer schedules costs almost nothing.
    pub fn clear(&mut self) {
        for level in 0..LEVELS {
            let mut occ = self.occupied[level];
            while occ != 0 {
                let slot = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                self.slots[level * SLOTS + slot].clear();
            }
            self.occupied[level] = 0;
        }
        self.len = 0;
        self.cursor = 0;
    }

    /// Files `entry`, where `now` is the caller's current time. `now`
    /// must be at or past the cursor unless the wheel is empty (in
    /// which case the cursor rebases to `now`). A plain `run` keeps
    /// `now == cursor` exactly — the clock and the cursor only advance
    /// together, to the wake time of a popped slot — but an epoch-synced
    /// shard (see `parallel`) may silently fast-forward its clock past
    /// the cursor at a barrier; filing only needs `wake_at >= cursor`,
    /// which `wake_at >= now >= cursor` implies.
    pub fn insert(&mut self, now: u64, entry: TimerEntry<T>) {
        if self.len == 0 {
            self.cursor = now;
        }
        debug_assert!(
            now >= self.cursor,
            "timer wheel cursor ran ahead of the caller's clock"
        );
        debug_assert!(entry.wake_at >= now, "inserting an already-due timer");
        self.file(entry);
    }

    /// Files an entry at the highest level where its wake time differs
    /// from the cursor (level 0 if equal). O(1).
    fn file(&mut self, e: TimerEntry<T>) {
        debug_assert!(e.wake_at >= self.cursor);
        let x = e.wake_at ^ self.cursor;
        let level = if x == 0 {
            0
        } else {
            (63 - x.leading_zeros()) as usize / SLOT_BITS
        };
        let idx = ((e.wake_at >> (level * SLOT_BITS)) & (SLOTS as u64 - 1)) as usize;
        self.slots[level * SLOTS + idx].push(e);
        self.occupied[level] |= 1 << idx;
        self.len += 1;
    }

    /// Pops the earliest non-empty tick: clears `out`, fills it with
    /// every entry of that tick sorted by `seq`, advances the cursor to
    /// the tick, and returns its wake time. Returns `None` (leaving
    /// `out` empty) if the wheel is empty. Amortized O(1) plus the
    /// batch size: each entry cascades at most [`LEVELS`] times over
    /// its lifetime, and each scan step is one bitmap probe.
    pub fn pop_earliest_into(&mut self, out: &mut Vec<TimerEntry<T>>) -> Option<u64> {
        out.clear();
        if self.len == 0 {
            return None;
        }
        let mut t = self.cursor;
        'scan: loop {
            for level in 0..LEVELS {
                let idx = ((t >> (level * SLOT_BITS)) & (SLOTS as u64 - 1)) as usize;
                let mask = self.occupied[level] & (!0u64 << idx);
                if mask == 0 {
                    continue;
                }
                let slot = mask.trailing_zeros() as usize;
                if level == 0 {
                    let wake = (t >> SLOT_BITS << SLOT_BITS) | slot as u64;
                    let bucket = &mut self.slots[slot];
                    debug_assert!(!bucket.is_empty());
                    self.len -= bucket.len();
                    out.append(bucket);
                    self.occupied[0] &= !(1u64 << slot);
                    self.cursor = wake;
                    out.sort_unstable_by_key(|e| e.seq);
                    debug_assert!(out.iter().all(|e| e.wake_at == wake));
                    return Some(wake);
                }
                // A coarse slot is due: advance to its window and
                // cascade its entries to finer levels (each strictly
                // descends), then rescan from level 0.
                let shift = level * SLOT_BITS;
                // Bits above the slot's own group (none at the top
                // level, where the group reaches past bit 63).
                let upper = if shift + SLOT_BITS >= 64 {
                    0
                } else {
                    (t >> (shift + SLOT_BITS)) << (shift + SLOT_BITS)
                };
                let slot_start = upper | ((slot as u64) << shift);
                // `slot == idx` can only be the transient mid-pop state
                // (module docs, invariant 2); then the window began at
                // or before `t` and the cursor must not move backward.
                let t2 = t.max(slot_start);
                let mut entries = std::mem::take(&mut self.cascade_scratch);
                std::mem::swap(&mut entries, &mut self.slots[level * SLOTS + slot]);
                self.occupied[level] &= !(1u64 << slot);
                self.len -= entries.len();
                self.cursor = t2;
                for e in entries.drain(..) {
                    self.file(e);
                }
                self.cascade_scratch = entries;
                t = t2;
                continue 'scan;
            }
            unreachable!("timer wheel has {} entries but no occupied slot", self.len);
        }
    }

    /// Returns the earliest stored wake time without popping anything —
    /// the scheduler's "when could a sleeper next fire?" probe for
    /// epoch-capped runs. Replays [`TimerWheel::pop_earliest_into`]'s
    /// level-ascending scan without cascading: the first occupied slot
    /// found is the earliest time window (finer levels cover the
    /// cursor's own window; coarser levels hold strictly later
    /// windows), so its minimum `wake_at` is the global minimum. O(1)
    /// bitmap probes plus one bucket scan.
    pub fn peek_earliest_wake(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let t = self.cursor;
        for level in 0..LEVELS {
            let idx = ((t >> (level * SLOT_BITS)) & (SLOTS as u64 - 1)) as usize;
            let mask = self.occupied[level] & (!0u64 << idx);
            if mask == 0 {
                continue;
            }
            let slot = mask.trailing_zeros() as usize;
            if level == 0 {
                return Some((t >> SLOT_BITS << SLOT_BITS) | slot as u64);
            }
            // A coarse slot: its entries share a window but not a tick;
            // the earliest is the bucket minimum.
            return self.slots[level * SLOTS + slot]
                .iter()
                .map(|e| e.wake_at)
                .min();
        }
        unreachable!("timer wheel has {} entries but no occupied slot", self.len);
    }

    /// Keeps only entries satisfying `f` — the compaction primitive for
    /// lazily-invalidated (cancelled) timers. Entries do not move
    /// between slots, so surviving wake order is unchanged. O(stored).
    pub fn retain(&mut self, mut f: impl FnMut(&TimerEntry<T>) -> bool) {
        let mut len = 0;
        for level in 0..LEVELS {
            let mut occ = self.occupied[level];
            while occ != 0 {
                let slot = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                let bucket = &mut self.slots[level * SLOTS + slot];
                bucket.retain(&mut f);
                if bucket.is_empty() {
                    self.occupied[level] &= !(1u64 << slot);
                } else {
                    len += bucket.len();
                }
            }
        }
        self.len = len;
    }

    /// Structural audit: every occupancy bit matches its bucket, the
    /// length matches the stored total, and every entry sits at or
    /// above the cursor in a slot its wake time actually maps to. Used
    /// in `debug_assert!`s after compaction.
    pub fn check_consistent(&self) -> bool {
        let mut total = 0;
        for level in 0..LEVELS {
            for slot in 0..SLOTS {
                let bucket = &self.slots[level * SLOTS + slot];
                let bit = (self.occupied[level] >> slot) & 1 == 1;
                if bit == bucket.is_empty() {
                    return false;
                }
                for e in bucket {
                    let idx = ((e.wake_at >> (level * SLOT_BITS)) & (SLOTS as u64 - 1)) as usize;
                    if idx != slot || e.wake_at < self.cursor {
                        return false;
                    }
                }
                total += bucket.len();
            }
        }
        total == self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wheel() -> TimerWheel<u64> {
        TimerWheel::new()
    }

    fn entry(wake_at: u64, seq: u64) -> TimerEntry<u64> {
        TimerEntry {
            wake_at,
            seq,
            payload: seq,
        }
    }

    /// Drains the wheel, returning (wake_at, seq) in pop order.
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
        let mut w = wheel();
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
        assert!(w.check_consistent());
    }

    #[test]
    fn same_tick_batch_pops_together_sorted_by_seq() {
        let mut w = wheel();
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
        let mut w = wheel();
        for seq in 0..1_000 {
            w.insert(0, entry(seq * 37 + 1, seq));
        }
        assert_eq!(w.len(), 1_000);
        w.retain(|_| false);
        assert_eq!(w.len(), 0);
        assert!(w.check_consistent());
        let mut buf = Vec::new();
        assert_eq!(w.pop_earliest_into(&mut buf), None);
    }

    #[test]
    fn retain_keeps_order_of_survivors() {
        let mut w = wheel();
        for seq in 0..200 {
            w.insert(0, entry(1 + seq % 97, seq));
        }
        w.retain(|e| e.seq % 3 == 0);
        assert!(w.check_consistent());
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
        let mut w = wheel();
        w.insert(0, entry(1_000, 1));
        let mut buf = Vec::new();
        assert_eq!(w.pop_earliest_into(&mut buf), Some(1_000));
        // Empty again: a caller whose clock stayed behind may insert.
        w.insert(500, entry(501, 2));
        assert_eq!(w.pop_earliest_into(&mut buf), Some(501));
    }

    #[test]
    fn huge_deltas_file_at_top_levels_and_pop_in_order() {
        let mut w = wheel();
        w.insert(0, entry(u64::MAX, 1));
        w.insert(0, entry(1 << 40, 2));
        w.insert(0, entry(3, 3));
        assert_eq!(drain(&mut w), [(3, 3), (1 << 40, 2), (u64::MAX, 1)]);
    }

    #[test]
    fn interleaved_insert_pop_cascade() {
        let mut w = wheel();
        let mut buf = Vec::new();
        w.insert(0, entry(64, 1)); // level 1 from t=0
        w.insert(0, entry(66, 2)); // same level-1 slot
        assert_eq!(w.pop_earliest_into(&mut buf), Some(64));
        // Cursor is now 64; a later tick in the same window files fine.
        w.insert(64, entry(65, 3));
        assert_eq!(w.pop_earliest_into(&mut buf), Some(65));
        assert_eq!(w.pop_earliest_into(&mut buf), Some(66));
        assert!(w.check_consistent());
        assert!(w.is_empty());
    }

    #[test]
    fn peek_matches_pop_at_every_step() {
        let mut w = wheel();
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
        let mut w = wheel();
        w.insert(0, entry(1 << 20, 1));
        w.insert(0, entry(70, 2));
        assert_eq!(w.peek_earliest_wake(), Some(70));
        assert_eq!(w.peek_earliest_wake(), Some(70));
        assert!(w.check_consistent());
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn insert_with_clock_ahead_of_cursor_files_fine() {
        let mut w = wheel();
        w.insert(0, entry(10, 1));
        let mut buf = Vec::new();
        assert_eq!(w.pop_earliest_into(&mut buf), Some(10));
        w.insert(10, entry(5_000, 2));
        // An epoch-synced caller's clock may run ahead of the cursor.
        w.insert(2_000, entry(2_500, 3));
        assert_eq!(drain(&mut w), [(2_500, 3), (5_000, 2)]);
    }

    /// The wheel against the structure whose order it promises: a
    /// `BTreeSet<(wake_at, seq)>`. A random interleaving of inserts
    /// (deltas reaching every level, ticks that repeat, a clock that may
    /// run ahead of the cursor), pops, peeks and compactions must agree
    /// on pop *order*, `peek` and `len` after every operation.
    #[test]
    fn random_interleavings_match_an_ordered_set() {
        use std::collections::BTreeSet;
        for round in 0..40_u64 {
            let mut x = 0x9e3779b97f4a7c15 ^ round.wrapping_mul(0xd1342543de82ef95);
            let mut rand = move || {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x >> 11
            };
            let mut w = wheel();
            let mut model: BTreeSet<(u64, u64)> = BTreeSet::new();
            let mut buf = Vec::new();
            // The last popped tick, or wherever the clock was when the
            // wheel was last found empty.
            let mut cursor = 0_u64;
            let mut last_wake = 0_u64;
            for op in 0..600_u64 {
                // Distinct but not monotone (389 is odd, so this permutes
                // 0..1024): a tick's batch must come out sorted by `seq`
                // whatever order it went in.
                let seq = op * 389 % 1024;
                match rand() % 8 {
                    0..=3 => {
                        // The clock sits anywhere from the cursor up to
                        // the earliest sleeper (an epoch-synced shard
                        // fast-forwards it); an empty wheel rebases.
                        let earliest = model.first().map_or(u64::MAX, |&(wake, _)| wake);
                        let now = if model.is_empty() {
                            cursor = rand() % (1 << (rand() % 60));
                            cursor
                        } else {
                            cursor + rand() % (earliest - cursor).saturating_add(1)
                        };
                        let wake = if rand() % 4 == 0 {
                            last_wake.max(now)
                        } else {
                            let level = rand() % LEVELS as u64;
                            let coarse = (rand() % SLOTS as u64) << (level * SLOT_BITS as u64);
                            let delta = coarse | (rand() % SLOTS as u64);
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
                        cursor = tick.unwrap_or(cursor);
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
                assert!(w.check_consistent(), "round {round} op {op}");
            }
        }
    }

    #[test]
    fn clear_keeps_it_reusable() {
        let mut w = wheel();
        for seq in 0..100 {
            w.insert(0, entry(seq + 1, seq));
        }
        w.clear();
        assert!(w.is_empty());
        assert!(w.check_consistent());
        w.insert(7, entry(9, 1));
        let mut buf = Vec::new();
        assert_eq!(w.pop_earliest_into(&mut buf), Some(9));
    }
}
