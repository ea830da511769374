//! The virtual clock: the sleeper queue, the one clock advance, and
//! the bookkeeping of lazily-invalidated (stale) sleeper entries.

use super::{lookup, Runtime, Slot};
use crate::ids::ThreadId;
use crate::thread::{Status, StuckReason};
use crate::trace::IoEvent;
use crate::value::Value;

/// Is `tid` still genuinely asleep until exactly `wake_at`?
///
/// Sleeper entries are invalidated lazily: an interrupted sleeper keeps
/// its entry, which this check skips. A free function over the thread
/// table (rather than a method) so compaction can filter the queue in
/// place while borrowing `threads` alongside the `&mut` queue borrow.
fn sleeper_entry_is_valid(threads: &[Slot], tid: ThreadId, wake_at: u64) -> bool {
    lookup(threads, tid).is_some_and(|t| t.status == Status::Stuck(StuckReason::Sleep { wake_at }))
}

impl Runtime {
    /// Advances the virtual clock to the earliest tick with a live
    /// sleeper — at or before the inclusive `cap`, if one is given — and
    /// wakes that tick's sleepers. Returns `false` if there is none.
    ///
    /// The queue hands over one virtual tick at a time, already in
    /// `(wake_at, seq)` order, so the whole batch is woken through one
    /// reserved run-queue extension before the next scheduling decision.
    ///
    /// The cap makes one difference besides the peek: under a cap, a
    /// tick whose sleepers were all interrupted still moves the clock to
    /// it (with its own `TimeAdvance`, keeping the trace's advance sum
    /// equal to the clock delta). That is the rule a capped shard's
    /// virtual times and traces were pinned under, and keeping it keeps
    /// them as they are. Uncapped, no thread runs between a stale pop and
    /// the next live wake, so the whole delta is folded into the next
    /// live advance and the traces of [`Runtime::run`] carry no split
    /// advances.
    pub(super) fn advance_clock(&mut self, cap: Option<u64>) -> bool {
        let mut due = std::mem::take(&mut self.due_scratch);
        let woke = loop {
            if cap.is_some_and(|cap| self.sleepers.peek_earliest_wake().is_none_or(|w| w > cap)) {
                break false;
            }
            let Some(wake_at) = self.sleepers.pop_earliest_into(&mut due) else {
                break false;
            };
            // Drop lazily-invalidated entries (interrupted sleepers) and
            // balance the stale accounting: every stale entry was counted
            // exactly once, when its sleeper was invalidated, so the
            // counter cannot underflow — the assert catches a double
            // decrement in debug builds, release builds saturate.
            let threads = &self.threads;
            let before = due.len();
            self.stats.timer_ops += before as u64;
            due.retain(|e| sleeper_entry_is_valid(threads, e.payload, wake_at));
            let stale = before - due.len();
            debug_assert!(
                self.stale_sleepers >= stale,
                "stale-sleeper accounting: popped a stale entry that was never counted"
            );
            self.stale_sleepers = self.stale_sleepers.saturating_sub(stale);
            if cap.is_some() || !due.is_empty() {
                self.sync_clock_forward(wake_at);
            }
            if due.is_empty() {
                // The whole tick was stale; keep scanning forward.
                continue;
            }
            self.run_queue.reserve(due.len());
            for e in &due {
                self.wake(e.payload, Value::Unit);
            }
            break true;
        };
        self.due_scratch = due;
        woke
    }

    /// Fast-forwards the clock to `t` if it lags, recorded as a
    /// `TimeAdvance` so the trace's advance sum equals the clock delta.
    /// Also the epoch-barrier clock sync, safe there because the shard
    /// is quiescent: every live sleeper's wake time is past the epoch
    /// being synced to (the epoch only advances when all shards report
    /// `Idle` with wakes beyond the old cap), so no due sleeper is
    /// skipped.
    pub(crate) fn sync_clock_forward(&mut self, t: u64) {
        if t > self.clock {
            self.trace.push(IoEvent::TimeAdvance(t - self.clock));
            self.clock = t;
        }
    }

    /// Compacts the sleeper queue once stale entries outnumber the live
    /// ones. Interrupted sleepers invalidate their queue entry in place
    /// (the status check in [`sleeper_entry_is_valid`] fails), which is
    /// O(1) — but under sustained `timeout`-and-kill churn the dead
    /// entries would pile up until their original `wake_at`. Compacting
    /// at the >half-stale threshold keeps the queue proportional to the
    /// number of *live* sleepers at amortized O(1) per interruption, and
    /// cannot change wake order: survivors of [`TimerWheel::retain`] keep
    /// their `(wake_at, seq)` keys.
    ///
    /// [`TimerWheel::retain`]: crate::timer::TimerWheel::retain
    pub(super) fn maybe_compact_sleepers(&mut self) {
        if self.stale_sleepers * 2 <= self.sleepers.len() {
            return;
        }
        let threads = &self.threads;
        self.sleepers
            .retain(|e| sleeper_entry_is_valid(threads, e.payload, e.wake_at));
        self.stale_sleepers = 0;
    }

    /// Number of entries (live or stale) in the sleeper queue.
    /// Exposed for leak regression tests: after a quiesced run the queue
    /// must be empty.
    pub fn sleeper_queue_len(&self) -> usize {
        self.sleepers.len()
    }
}
