//! Exception delivery: rules (Receive) and (Interrupt) as the one
//! `raise_async`, `throwTo`'s effect on its target, and the §9
//! synchronous thrower's wake-up.

use super::{enqueue_runnable, lookup, slot_index, Runtime};
use crate::exception::Exception;
use crate::ids::ThreadId;
use crate::io::Action;
use crate::thread::{Mode, PendingExc, RaiseOrigin, Status, StuckReason, Thread};
use crate::value::Value;

/// Which rule delivers an exception — what [`Stats`] tells apart.
///
/// [`Stats`]: crate::stats::Stats
pub(super) enum Delivery {
    /// (Receive): an unblocked thread, at a step or a polling safe point.
    Receive,
    /// (Interrupt): a stuck thread, or (§5.3) one about to block.
    Interrupt,
}

impl Runtime {
    /// `throwTo`'s effect on `target`: rule (Interrupt) at once if it is
    /// stuck (whatever its mask), else the exception joins its pending
    /// queue to await (Receive) or a block point. `notify` is the §9
    /// synchronous thrower to wake on receipt.
    ///
    /// Does nothing if the target no longer exists: `throwTo` to a dead
    /// thread trivially succeeds.
    pub(super) fn enqueue_exception(
        &mut self,
        target: ThreadId,
        exc: Exception,
        notify: Option<ThreadId>,
    ) {
        let Some(slot) = slot_index(&self.threads, target) else {
            return;
        };
        // Out of the table for the delivery, like a running thread.
        let Some(mut th) = self.threads[slot].thread.take() else {
            return;
        };
        let p = PendingExc {
            exc,
            notify,
            enqueued_step: self.stats.steps,
        };
        if th.is_stuck() {
            // A thread only blocks with an empty queue (`block_on`) and
            // is interrupted by the first exception to arrive.
            debug_assert!(th.pending.is_empty());
            self.raise_async(&mut th, p, Delivery::Interrupt);
        } else {
            th.pending.push_back(p);
        }
        self.threads[slot].thread = Some(th);
    }

    /// Delivers `p` to `th`, which is outside the thread table (running,
    /// or taken out by [`Runtime::enqueue_exception`]): the one place an
    /// asynchronous exception becomes a raise, with its accounting. A
    /// stuck thread also leaves its wait structure and rejoins the run
    /// queue — ahead of the §9 thrower that the receipt wakes.
    pub(super) fn raise_async(&mut self, th: &mut Thread, p: PendingExc, rule: Delivery) {
        match rule {
            Delivery::Receive => self.stats.async_deliveries += 1,
            Delivery::Interrupt => self.stats.interrupted_blocked += 1,
        }
        self.stats.delivery_latency_total += self.stats.steps - p.enqueued_step;
        self.stats.delivery_latency_samples += 1;
        th.mode = Mode::Raise;
        th.code = Action::Rethrow(p.exc, RaiseOrigin::Async);
        if let Status::Stuck(reason) = std::mem::replace(&mut th.status, Status::Runnable) {
            self.leave_wait(th.tid, &reason);
            enqueue_runnable(&mut self.run_queue, th);
        }
        self.wake_sync_thrower(p.notify, th.tid, p.enqueued_step);
    }

    /// §9: `receiver` has received (or died holding) an exception queued
    /// at step `since_step`; if it came from a synchronous `throwTo`
    /// whose thrower is still waiting *for that very exception*, the
    /// thrower goes on. The thrower may have been interrupted out of
    /// that wait since, leaving the exception behind (the wart §9
    /// notes), and be waiting again — on another target, or on a later
    /// throw to this one — so a wait is identified by its target and
    /// issuing step (a thread issues one `throwTo` per step at most),
    /// not merely by being a sync-throw wait.
    pub(super) fn wake_sync_thrower(
        &mut self,
        notify: Option<ThreadId>,
        receiver: ThreadId,
        since_step: u64,
    ) {
        let Some(thrower) = notify else {
            return;
        };
        let waiting_for_it = Status::Stuck(StuckReason::SyncThrow {
            target: receiver,
            since_step,
        });
        if lookup(&self.threads, thrower).is_some_and(|t| t.status == waiting_for_it) {
            self.wake(thrower, Value::Unit);
        }
    }
}
