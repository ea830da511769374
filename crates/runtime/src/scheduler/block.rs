//! Blocking and waking: §5.3's block-or-receive, the wait structures a
//! stuck thread sits in, the one stuck → runnable transition, and the
//! `MVar` operations built on them.

use std::collections::VecDeque;

use super::deliver::Delivery;
use super::{enqueue_runnable, lookup_mut, Runtime, Slot};
use crate::ids::{MVarId, ThreadId};
use crate::io::Action;
use crate::mvar::MVarCell;
use crate::thread::{Mode, Status, StuckReason, Thread};
use crate::timer::TimerEntry;
use crate::trace::IoEvent;
use crate::value::Value;

/// Makes the stuck thread `th` runnable again, the operation it was
/// blocked in returning `v`: the one stuck → runnable transition.
///
/// Inlined, like the two `MVar` halves below, into its handful of
/// call sites: a `Value` crossing a call boundary by value costs
/// ≈5 ns per `MVar` operation (`runtime.mvar.probe.*`), a tenth of
/// an uncontended take/put pair.
#[inline(always)]
fn wake_thread(run_queue: &mut VecDeque<ThreadId>, th: &mut Thread, v: Value) {
    debug_assert!(th.is_stuck());
    th.status = Status::Runnable;
    th.mode = Mode::Return;
    th.code = Action::Pure(v);
    enqueue_runnable(run_queue, th);
}

/// Unlinks the first thread waiting on `cell` and returns it, still
/// stuck: the one table lookup of a hand-off both reads its link and
/// lets the caller wake it.
#[inline(always)]
fn pop_waiter<'t>(cell: &mut MVarCell, threads: &'t mut [Slot]) -> Option<&'t mut Thread> {
    let first = cell.first?;
    let th = lookup_mut(threads, first);
    debug_assert!(th.is_some(), "waiter {first} is not in the thread table");
    let th = th?;
    cell.unlink_first(th.mvar_link().and_then(|link| *link));
    Some(th)
}

impl Runtime {
    /// §5.3, the one place a thread blocks: an interruptible operation
    /// that finds its resource unavailable receives a pending exception
    /// at that moment, whatever the mask, and only otherwise becomes
    /// stuck for `reason`. Returns whether it blocked; the §9 thrower
    /// files its exception at the target then.
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
            // Takers and putters alike join the end of the cell's list.
            StuckReason::TakeMVar { m, .. } | StuckReason::PutMVar { m, .. } => {
                let cell = &mut self.mvars[m.0 as usize];
                match cell.last.replace(tid) {
                    None => cell.first = Some(tid),
                    Some(last) => {
                        let link = lookup_mut(&mut self.threads, last).and_then(Thread::mvar_link);
                        debug_assert!(link.is_some(), "last waiter {last} on {m} is not waiting");
                        if let Some(link) = link {
                            *link = Some(tid);
                        }
                    }
                }
            }
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
            // Filed by the caller: the target's pending entry holds the
            // exception.
            StuckReason::SyncThrow { .. } => {}
        }
    }

    /// (Interrupt): removes `tid` from the structure [`Runtime::enter_wait`]
    /// (or its caller) filed it in.
    pub(super) fn leave_wait(&mut self, tid: ThreadId, reason: &StuckReason) {
        match *reason {
            StuckReason::TakeMVar { m, next } | StuckReason::PutMVar { m, next } => {
                self.unlink_waiter(m, tid, next);
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

    /// Unlinks `tid`, whose link is `next`, from `m`'s waiters. `tid`
    /// itself is out of the table (being interrupted), so the walk stops
    /// at the waiter before it.
    fn unlink_waiter(&mut self, m: MVarId, tid: ThreadId, next: Option<ThreadId>) {
        let cell = &mut self.mvars[m.0 as usize];
        if cell.first == Some(tid) {
            cell.unlink_first(next);
            return;
        }
        let mut at = cell.first;
        while let Some(prev) = at {
            let Some(link) = lookup_mut(&mut self.threads, prev).and_then(Thread::mvar_link) else {
                break;
            };
            if *link == Some(tid) {
                *link = next;
                if next.is_none() {
                    cell.last = Some(prev);
                }
                return;
            }
            at = *link;
        }
        debug_assert!(false, "{tid} is not among the waiters on {m}");
    }

    /// Makes the stuck thread `tid` runnable again, the operation it was
    /// blocked in returning `v`. Its callers have just seen it stuck in
    /// the table.
    #[inline(always)]
    pub(super) fn wake(&mut self, tid: ThreadId, v: Value) {
        if let Some(th) = lookup_mut(&mut self.threads, tid) {
            wake_thread(&mut self.run_queue, th, v);
        }
    }

    /// The non-blocking half of `takeMVar`: empties a full `m`, admitting
    /// the first waiting putter (if any) — the value in its code refills
    /// the cell and it wakes with `()`. `None` if `m` is empty.
    #[inline(always)]
    pub(super) fn try_take(&mut self, m: MVarId) -> Option<Value> {
        let cell = &mut self.mvars[m.0 as usize];
        let v = cell.contents.take()?;
        self.stats.mvar_ops += 1;
        if let Some(putter) = pop_waiter(cell, &mut self.threads) {
            debug_assert!(matches!(putter.code, Action::PutMVar(..)));
            if let Action::PutMVar(_, value) = &mut putter.code {
                cell.contents = Some(std::mem::take(value));
            }
            wake_thread(&mut self.run_queue, putter, Value::Unit);
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
        match pop_waiter(cell, &mut self.threads) {
            None => cell.contents = Some(v),
            Some(taker) => {
                wake_thread(&mut self.run_queue, taker, v);
                self.stats.mvar_ops += 1;
            }
        }
        Ok(())
    }
}
