//! Externally-driven scheduling: the hook a model checker drives.
//!
//! Once a [`Decider`] is installed
//! ([`Runtime::set_decider`](crate::scheduler::Runtime::set_decider)),
//! the runtime makes no scheduling decisions of its own: at every step
//! boundary where a decision exists it asks a [`Decider`] which runnable
//! thread moves next, and — when the chosen thread is unmasked with
//! pending asynchronous exceptions — whether the (Receive) rule fires
//! *now* or is deferred to a later step. Together those two choices span exactly the
//! nondeterminism of the paper's Figure 4/5 transition rules that the
//! scheduler otherwise resolves by round-robin or seeded randomness:
//!
//! * which runnable thread performs the next transition (the scheduling
//!   context choice of §6.2), and
//! * the program point at which a pending `throwTo` lands (the freedom
//!   of rule (Receive), which may fire "at any point").
//!
//! The (Interrupt) rule for *stuck* threads and the §5.3
//! interruptible-operation delivery stay eager: given a schedule, their
//! effect is deterministic, so exposing them as extra choice points
//! would only square the search space without adding behaviours — the
//! moment a stuck thread is interrupted is already fixed by when the
//! `throwTo` step itself is scheduled.
//!
//! Each runnable thread is presented as a [`ThreadView`] carrying a
//! [`StepFootprint`] — a conservative summary of what its *next* step
//! touches. Drivers use footprints for partial-order reduction: two
//! steps whose footprints are independent commute, so schedules that
//! differ only in their order need not both be explored.

use crate::ids::{MVarId, ThreadId};

/// What a thread's next small-step will touch, conservatively.
///
/// Footprints exist so that exploration drivers can prune: a step
/// classified [`StepFootprint::Local`] commutes with every step of every
/// other thread (provided neither thread has pending asynchronous
/// exceptions — a pending queue makes every step a potential delivery
/// point, which is why [`ThreadView::pending`] must be consulted
/// alongside the footprint). Anything the classifier is unsure about
/// must map to a conservative variant such as [`StepFootprint::Effect`],
/// which is treated as dependent on everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepFootprint {
    /// A thread-local step: pushing/popping stack frames, pure
    /// computation, reading its own thread id or masking state.
    Local,
    /// A mask-state change (`block`/`unblock` entry). Local to the
    /// thread, but a delivery-relevant boundary, so kept distinct for
    /// trace readability.
    Mask,
    /// Unwinding: the next step pops a frame with an in-flight
    /// exception. Local to the thread.
    Raise,
    /// The thread's next step completes it (normal return or uncaught
    /// exception at an empty stack). Terminal steps end threads, wake
    /// sync-throw notifiers and — for the main thread — stop the world,
    /// so they are dependent on everything.
    Terminal,
    /// An operation on a specific `MVar`.
    MVar(MVarId),
    /// Allocation of a fresh `MVar` (ids are allocated globally, so two
    /// allocations conflict with each other but nothing else).
    Alloc,
    /// Console input or output.
    Console,
    /// The virtual clock: `sleep` or reading `now`.
    Time,
    /// Forking a thread (thread ids are allocated globally, so two forks
    /// conflict with each other).
    Fork,
    /// `throwTo`/`throwToSync` aimed at the given thread. Mutates the
    /// target's state, so dependent on everything the target does.
    Throw(ThreadId),
    /// A native [`Io::effect`](crate::io::Io::effect) closure: arbitrary
    /// observable side effects, dependent on everything.
    Effect,
    /// A scheduler-visible nondeterministic choice
    /// ([`Io::choose`](crate::io::Io::choose)): the oracle the fault
    /// plane branches on. The step itself touches only the choosing
    /// thread (the arm lands in its own continuation), so it commutes
    /// with every other thread's non-exception step — but it is a real
    /// branch point, never fast-forwarded: *which* arm was taken is a
    /// separate choice recorded by the driver.
    Oracle,
}

impl StepFootprint {
    /// Is this step safe to *fast-forward* — run ahead of every other
    /// enabled step without creating a branch point? True only for
    /// [`StepFootprint::Local`]: a local step neither touches shared
    /// state nor changes anything delivery-relevant about its own
    /// thread, so it commutes even with a `throwTo` aimed at it.
    ///
    /// [`StepFootprint::Mask`] and [`StepFootprint::Raise`] are *not*
    /// fast-forwardable, although they touch only their own thread: they
    /// change the thread's mask state or handler stack, and an exception
    /// thrown *before* versus *after* such a step lands against a
    /// different handler configuration — the orders are observably
    /// different (this is precisely the §7.1 window `bracket` closes by
    /// moving the acquire inside `block`).
    pub fn is_local(self) -> bool {
        matches!(self, StepFootprint::Local)
    }

    /// Conservative independence: `true` only when the two steps
    /// provably commute (run in either order, they reach the same
    /// machine state up to run-queue order and produce the same
    /// observable trace). Callers must additionally check that neither
    /// thread has pending asynchronous exceptions.
    pub fn independent(self, other: StepFootprint) -> bool {
        use StepFootprint::*;
        match (self, other) {
            // Terminal / Throw / Effect conflict with everything — in
            // particular a throw conflicts even with the target's local
            // steps, since it opens a delivery point at the target.
            (Terminal | Throw(_) | Effect, _) | (_, Terminal | Throw(_) | Effect) => false,
            // Steps confined to their own thread commute with any other
            // thread's non-exception step. An Oracle step is confined
            // too: the chosen arm flows into the choosing thread's own
            // continuation only (the choice itself is a driver-recorded
            // branch point, not a shared-state effect).
            (Local | Mask | Raise | Oracle, _) | (_, Local | Mask | Raise | Oracle) => true,
            // Same-resource conflicts.
            (MVar(a), MVar(b)) => a != b,
            (Alloc, Alloc) => false,
            (Console, Console) => false,
            (Time, Time) => false,
            (Fork, Fork) => false,
            // Distinct resources commute.
            (MVar(_) | Alloc | Console | Time | Fork, MVar(_) | Alloc | Console | Time | Fork) => {
                true
            }
        }
    }

    /// The complement of [`independent`](StepFootprint::independent):
    /// `true` when the two steps may not commute. This is the dependence
    /// relation a happens-before race detector (dynamic partial-order
    /// reduction) closes over: two executed steps are causally ordered
    /// exactly when a chain of dependent steps connects them, and a
    /// dependent, *unordered* pair is a race whose reversal must be
    /// explored.
    pub fn dependent(self, other: StepFootprint) -> bool {
        !self.independent(other)
    }
}

/// A runnable thread as shown to a [`Decider`].
#[derive(Debug, Clone, Copy)]
pub struct ThreadView {
    /// The thread's id.
    pub tid: ThreadId,
    /// What its next step will touch.
    pub footprint: StepFootprint,
    /// How many asynchronous exceptions are queued for it.
    pub pending: usize,
    /// Whether delivery is currently masked (`block`).
    pub masked: bool,
}

/// A [`Decider::choose_thread`] answer: which thread steps next, and
/// whether that step is an *invisible move*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pick {
    /// Index into the `runnable` list the decider was shown.
    pub index: usize,
    /// The decider promises that this pick was no decision: the thread's
    /// step is [`StepFootprint::Local`] with nothing pending, and while
    /// that stays so the decider would pick the same thread again and
    /// change none of its own state in doing so. The scheduler then
    /// keeps stepping the thread without asking (see
    /// [`Decider::choose_thread`]).
    pub invisible: bool,
}

impl Pick {
    /// A pick the decider wants to be asked about again after one step.
    pub fn visible(index: usize) -> Pick {
        Pick {
            index,
            invisible: false,
        }
    }

    /// A pick whose run of local steps needs no further questions.
    pub fn invisible(index: usize) -> Pick {
        Pick {
            index,
            invisible: true,
        }
    }
}

/// The external scheduling driver, consulted whenever one is installed
/// ([`Runtime::set_decider`](crate::scheduler::Runtime::set_decider)),
/// whatever the configured [`SchedulingPolicy`](crate::config::SchedulingPolicy).
///
/// The runtime asks at every step boundary where there is something to
/// decide: before every step, except inside a run of invisible moves
/// the decider itself announced ([`Pick::invisible`]). Implementations
/// must be deterministic functions of their own state and the
/// arguments: the same sequence of calls with the same arguments must
/// yield the same answers, or replay guarantees break.
pub trait Decider {
    /// Picks the next thread to run, as an index into `runnable`
    /// (non-empty). `previous` is the thread that executed the
    /// immediately preceding step, whether or not it is still runnable
    /// — drivers use it for preemption bounding.
    ///
    /// The picked thread takes one step and the decider is asked again
    /// — unless the pick is [`Pick::invisible`]: then the thread goes
    /// on stepping, unasked, for as long as its next step is
    /// [`StepFootprint::Local`], it has no exception pending and the
    /// run's step limit leaves room, and the next question comes at the
    /// first boundary where one of those fails. A local step forks,
    /// wakes and throws at nobody, so the decider would have been shown
    /// the same threads with the same footprints at every boundary in
    /// between.
    fn choose_thread(&mut self, runnable: &[ThreadView], previous: Option<ThreadId>) -> Pick;

    /// The chosen thread is unmasked with `view.pending > 0` queued
    /// exceptions: deliver the first one at this step (`true`, the
    /// (Receive) rule fires) or defer it and let the thread take its
    /// ordinary step (`false`)?
    fn deliver_now(&mut self, view: ThreadView) -> bool;

    /// The chosen thread's step is an [`Io::choose`](crate::io::Io::choose)
    /// oracle with `arms` alternatives: pick the arm (must be
    /// `< arms`). The default takes arm 0 — the "nothing unusual
    /// happens" convention — so deciders written before the fault plane
    /// keep their behaviour.
    fn choose_arm(&mut self, view: ThreadView, arms: u8) -> u8 {
        let _ = (view, arms);
        0
    }
}

/// A trivial [`Decider`]: always the first runnable thread, one step at
/// a time, always deliver pending exceptions immediately. Gives the
/// same behaviour as round-robin with a quantum of 1.
#[derive(Debug, Default, Clone)]
pub struct FirstRunnable;

impl Decider for FirstRunnable {
    fn choose_thread(&mut self, _runnable: &[ThreadView], _previous: Option<ThreadId>) -> Pick {
        Pick::visible(0)
    }

    fn deliver_now(&mut self, _view: ThreadView) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::tid;

    #[test]
    fn locals_are_independent_of_non_exception_steps() {
        let benign = [
            StepFootprint::Local,
            StepFootprint::Mask,
            StepFootprint::Raise,
            StepFootprint::MVar(MVarId(1)),
            StepFootprint::Alloc,
            StepFootprint::Console,
            StepFootprint::Time,
            StepFootprint::Fork,
            StepFootprint::Oracle,
        ];
        for f in benign {
            assert!(StepFootprint::Local.independent(f));
            assert!(f.independent(StepFootprint::Local));
            assert!(StepFootprint::Oracle.independent(f));
            assert!(f.independent(StepFootprint::Oracle));
        }
        // But a throw conflicts even with local steps: it opens a
        // delivery point at its target.
        let throw = StepFootprint::Throw(tid(2));
        for f in [
            StepFootprint::Local,
            StepFootprint::Mask,
            StepFootprint::Raise,
        ] {
            assert!(!throw.independent(f));
            assert!(!f.independent(throw));
        }
    }

    #[test]
    fn only_plain_local_steps_fast_forward() {
        assert!(StepFootprint::Local.is_local());
        assert!(!StepFootprint::Mask.is_local());
        assert!(!StepFootprint::Raise.is_local());
        assert!(!StepFootprint::Effect.is_local());
        // An oracle is confined to its thread but is a real branch
        // point: fast-forwarding it would hide the arm choice.
        assert!(!StepFootprint::Oracle.is_local());
    }

    #[test]
    fn conflicts_are_symmetric_and_conservative() {
        let m1 = StepFootprint::MVar(MVarId(1));
        let m2 = StepFootprint::MVar(MVarId(2));
        assert!(!m1.independent(m1));
        assert!(m1.independent(m2));
        assert!(m2.independent(m1));
        assert!(!StepFootprint::Console.independent(StepFootprint::Console));
        assert!(!StepFootprint::Effect.independent(m1));
        assert!(!m1.independent(StepFootprint::Terminal));
        assert!(!StepFootprint::Fork.independent(StepFootprint::Fork));
        assert!(StepFootprint::Fork.independent(m1));
    }

    #[test]
    fn dependent_is_the_complement_of_independent() {
        let m1 = StepFootprint::MVar(MVarId(1));
        let m2 = StepFootprint::MVar(MVarId(2));
        assert!(m1.dependent(m1));
        assert!(!m1.dependent(m2));
        assert!(StepFootprint::Effect.dependent(StepFootprint::Local));
        assert!(StepFootprint::Throw(tid(1)).dependent(StepFootprint::Mask));
    }
}
