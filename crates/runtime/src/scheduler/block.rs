//! Blocking and waking: §5.3's block-or-receive, the wait structures a
//! stuck thread sits in, the one stuck → runnable transition, and the
//! `MVar` operations built on them.

use super::deliver::Delivery;
use super::{enqueue_runnable, lookup_mut, Runtime};
use crate::ids::{MVarId, ThreadId};
use crate::thread::{Code, Status, StuckReason, Thread};
use crate::timer::TimerEntry;
use crate::trace::IoEvent;
use crate::value::Value;

impl Runtime {
    /// §5.3, the one place a thread blocks: an interruptible operation
    /// that finds its resource unavailable receives a pending exception
    /// at that moment, whatever the mask, and only otherwise becomes
    /// stuck for `reason`. Returns whether it blocked; a caller whose
    /// wait carries a payload (`putMVar`'s value, §9's exception) files
    /// it then.
    pub(super) fn block_on(&mut self, th: &mut Thread, reason: StuckReason) -> bool {
        if let Some(p) = th.take_pending() {
            self.raise_async(th, p, Delivery::Interrupt);
            return false;
        }
        self.enter_wait(th.tid, &reason);
        self.stats.blocks += 1;
        if self.config.record_sched_events {
            self.trace.push(IoEvent::BlockedOn {
                tid: th.tid,
                site: reason.site(),
            });
        }
        th.status = Status::Stuck(reason);
        true
    }

    /// Files `tid` in the structure that will wake it from `reason`.
    fn enter_wait(&mut self, tid: ThreadId, reason: &StuckReason) {
        match *reason {
            StuckReason::TakeMVar(m) => self.mvars[m.0 as usize].take_queue.push_back(tid),
            StuckReason::Sleep { wake_at } => {
                self.sleep_seq += 1;
                self.sleepers.insert(
                    self.clock,
                    TimerEntry {
                        wake_at,
                        seq: self.sleep_seq,
                        payload: tid,
                    },
                );
                self.stats.max_sleeper_heap = self.stats.max_sleeper_heap.max(self.sleepers.len());
                self.stats.timer_ops += 1;
            }
            StuckReason::GetChar => self.console_waiters.push_back(tid),
            // Filed by the caller, with the payload: the put queue
            // entry holds the value, the target's pending entry the
            // exception.
            StuckReason::PutMVar(_) | StuckReason::SyncThrow { .. } => {}
        }
    }

    /// (Interrupt): removes `tid` from the structure [`Runtime::enter_wait`]
    /// (or its caller) filed it in.
    pub(super) fn leave_wait(&mut self, tid: ThreadId, reason: &StuckReason) {
        match *reason {
            StuckReason::TakeMVar(m) | StuckReason::PutMVar(m) => {
                self.mvars[m.0 as usize].forget_waiter(tid);
            }
            StuckReason::Sleep { .. } => {
                // The sleeper entry is invalidated by the status change and
                // skipped when popped; count it so compaction can evict
                // piles of dead entries before their wake_at arrives.
                self.stale_sleepers += 1;
                self.maybe_compact_sleepers();
            }
            StuckReason::GetChar => self.console_waiters.retain(|&t| t != tid),
            // The exception we sent stays queued at the target (the wart
            // of the synchronous design, §9); `wake_sync_thrower` tells
            // its eventual receipt from the wait of a later throw.
            StuckReason::SyncThrow { .. } => {}
        }
    }

    /// Makes the stuck thread `tid` runnable again, the operation it was
    /// blocked in returning `v`.
    ///
    /// Inlined, like the two `MVar` halves below, into its handful of
    /// call sites: a `Value` crossing a call boundary by value costs
    /// ≈5 ns per `MVar` operation (`runtime.mvar.probe.*`), a tenth of
    /// an uncontended take/put pair.
    #[inline(always)]
    pub(super) fn wake(&mut self, tid: ThreadId, v: Value) {
        let th = lookup_mut(&mut self.threads, tid).expect("a waiting thread exists");
        debug_assert!(th.is_stuck());
        th.status = Status::Runnable;
        th.code = Code::ReturnVal(v);
        enqueue_runnable(&mut self.run_queue, th);
    }

    /// The non-blocking half of `takeMVar`: empties a full `m`, admitting
    /// the first queued putter (if any) — its value refills the cell and
    /// it wakes with `()`. `None` if `m` is empty.
    #[inline(always)]
    pub(super) fn try_take(&mut self, m: MVarId) -> Option<Value> {
        let cell = &mut self.mvars[m.0 as usize];
        let v = cell.contents.take()?;
        self.stats.mvar_ops += 1;
        if let Some((putter, next)) = cell.put_queue.pop_front() {
            cell.contents = Some(next);
            self.wake(putter, Value::Unit);
            self.stats.mvar_ops += 1;
        }
        Some(v)
    }

    /// The non-blocking half of `putMVar`: fills an empty `m`, or hands
    /// `v` directly to the first waiting taker (FIFO hand-off, so no
    /// woken thread retries). Gives `v` back if `m` is full.
    #[inline(always)]
    pub(super) fn try_put(&mut self, m: MVarId, v: Value) -> Result<(), Value> {
        let cell = &mut self.mvars[m.0 as usize];
        if cell.contents.is_some() {
            return Err(v);
        }
        self.stats.mvar_ops += 1;
        match cell.take_queue.pop_front() {
            None => cell.contents = Some(v),
            Some(taker) => {
                self.wake(taker, v);
                self.stats.mvar_ops += 1;
            }
        }
        Ok(())
    }
}
