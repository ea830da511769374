//! Per-thread state: the §8 implementation design.
//!
//! Each green thread carries exactly the data §8.1 prescribes:
//!
//! * a **frame stack** with bind frames, catch frames (which record the
//!   masking state at the time they were pushed), and block/unblock
//!   frames (represented as `Frame::Restore`: "set the masking state to
//!   this when control returns here");
//! * the current **masking state** (blocked or unblocked);
//! * a FIFO **queue of pending asynchronous exceptions** waiting to be
//!   delivered.
//!
//! `Thread::enter_mask` implements the 4-step algorithm of §8.1, for
//! `block` and `unblock` alike, including the adjacent-frame collapse (step 3) that
//! lets mask-recursive functions run in constant stack space. The collapse
//! can be disabled ([`crate::config::RuntimeConfig::collapse_mask_frames`])
//! for the ablation benchmark.

use std::collections::VecDeque;

use crate::decide::StepFootprint;
use crate::exception::Exception;
use crate::ids::{MVarId, ThreadId};
use crate::io::{Action, BindNode, Handler};
use crate::trace::BlockSite;

/// The asynchronous-exception masking state of a thread (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MaskState {
    /// Asynchronous exceptions may be delivered (the initial state).
    Unblocked,
    /// Delivery is postponed; only interruptible operations that actually
    /// block can receive exceptions (§5.3).
    Blocked,
}

/// A frame on a thread's control stack (§8).
pub(crate) enum Frame {
    /// The continuation of `>>=`: the bind's own node, its left action
    /// already moved out and running.
    Bind(Box<dyn BindNode>),
    /// A `catch` frame: handler plus the masking state when pushed, which
    /// is restored before the handler runs (§8, "Extend the catch frame to
    /// include the state ... of asynchronous exceptions").
    Catch {
        handler: Handler,
        saved_mask: MaskState,
    },
    /// A block/unblock frame: on return (normal or exceptional), set the
    /// masking state to the recorded value. `Restore(Unblocked)` is the
    /// paper's "unblock frame", `Restore(Blocked)` its "block frame".
    Restore(MaskState),
}

impl std::fmt::Debug for Frame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Frame::Bind(_) => write!(f, "Bind"),
            Frame::Catch { saved_mask, .. } => write!(f, "Catch(saved={saved_mask:?})"),
            Frame::Restore(s) => write!(f, "Restore({s:?})"),
        }
    }
}

/// How an exception came to be raised in a thread.
///
/// The paper keeps one `Exception` type but §8 (thunk treatment) and §9
/// (the exceptions-vs-alerts alternative) both need to know whether a
/// given raise was the deterministic result of running the code
/// (synchronous) or an external interruption (asynchronous).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RaiseOrigin {
    /// Raised by `throw` or by pure evaluation: re-running the same code
    /// would raise it again (§8: safe to overwrite a thunk with it).
    Sync,
    /// Delivered by `throwTo` (or deadlock recovery): an external event
    /// that says nothing about the interrupted code itself.
    Async,
}

/// What the thread will do with its `code` at its next step. Switching
/// mode writes this byte and leaves the value or exception where it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Interpret the action.
    Run,
    /// Return the value of the `Pure(v)` to the top frame.
    Return,
    /// Unwind the stack with the exception of the `Throw(e)` (origin
    /// [`RaiseOrigin::Sync`]) or `Rethrow(e, origin)`.
    Raise,
}

/// Why a thread cannot currently run (the ⊛ state of §6.3).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum StuckReason {
    /// Waiting in `takeMVar` on the empty `m`.
    TakeMVar {
        /// The cell waited on.
        m: MVarId,
        /// The thread queued behind this one on `m`, if any.
        next: Option<ThreadId>,
    },
    /// Waiting in `putMVar` on the full `m`; the value waits in the
    /// thread's own `code`, `Action::PutMVar(_, v)`.
    PutMVar {
        /// The cell waited on.
        m: MVarId,
        /// The thread queued behind this one on `m`, if any.
        next: Option<ThreadId>,
    },
    /// Sleeping until the virtual clock reaches `wake_at`.
    Sleep {
        /// Absolute virtual time (µs) at which to wake.
        wake_at: u64,
    },
    /// Waiting in `getChar` for console input.
    GetChar,
    /// Waiting in a synchronous `throwTo` (§9 variant) for the target to
    /// receive the exception.
    SyncThrow {
        /// The thread we threw to.
        target: ThreadId,
        /// The step the throw was issued at — the `enqueued_step` of the
        /// [`PendingExc`] whose receipt ends this wait, which tells it
        /// from one an earlier, interrupted wait left behind.
        since_step: u64,
    },
}

impl StuckReason {
    /// Human-readable description for deadlock reports.
    pub(crate) fn describe(&self) -> String {
        match self {
            StuckReason::TakeMVar { m, .. } => format!("blocked in takeMVar on {m}"),
            StuckReason::PutMVar { m, .. } => format!("blocked in putMVar on {m}"),
            StuckReason::Sleep { wake_at } => format!("sleeping until t={wake_at}"),
            StuckReason::GetChar => "blocked in getChar".to_owned(),
            StuckReason::SyncThrow { target, .. } => {
                format!("waiting for synchronous throwTo to {target}")
            }
        }
    }

    /// The kind of resource, as [`IoEvent::BlockedOn`](crate::trace::IoEvent)
    /// reports it.
    pub(crate) fn site(&self) -> BlockSite {
        match self {
            StuckReason::TakeMVar { .. } => BlockSite::TakeMVar,
            StuckReason::PutMVar { .. } => BlockSite::PutMVar,
            StuckReason::Sleep { .. } => BlockSite::Sleep,
            StuckReason::GetChar => BlockSite::GetChar,
            StuckReason::SyncThrow { .. } => BlockSite::SyncThrow,
        }
    }
}

/// Scheduling status of a thread.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Status {
    /// May be chosen by the scheduler (∘ in §6.3).
    Runnable,
    /// Blocked on a resource (⊛ in §6.3); always interruptible.
    Stuck(StuckReason),
}

/// An asynchronous exception queued for delivery (§8.2).
#[derive(Debug)]
pub(crate) struct PendingExc {
    /// The exception to raise in the target.
    pub exc: Exception,
    /// For the synchronous `throwTo` design (§9): the thread to wake once
    /// this exception has been received.
    pub notify: Option<ThreadId>,
    /// Global step count at enqueue time, for delivery-latency stats.
    pub enqueued_step: u64,
}

/// One green thread.
pub(crate) struct Thread {
    pub tid: ThreadId,
    /// The action to run, or, by `mode`, the value being returned or
    /// the exception being raised.
    pub code: Action,
    pub mode: Mode,
    pub stack: Vec<Frame>,
    pub mask: MaskState,
    pub pending: VecDeque<PendingExc>,
    pub status: Status,
    /// Count of `Restore` frames currently on the stack (for the §8.1
    /// max-mask-frames statistic).
    pub mask_frames: usize,
    /// Cached [`StepFootprint`] of the next step. Maintained by the
    /// scheduler: refreshed whenever the thread is (re-)enqueued on the
    /// run queue, and guaranteed fresh only while the thread sits there
    /// (nothing mutates a queued thread's code or stack).
    pub footprint: StepFootprint,
}

impl Thread {
    /// A fresh thread about to run `action`, unblocked and runnable.
    #[cfg(test)]
    pub(crate) fn new(tid: ThreadId, action: Action) -> Self {
        Thread::with_buffers(tid, action, Vec::new(), VecDeque::new())
    }

    /// Like [`Thread::new`], but reusing recycled stack/pending buffers
    /// (emptied, capacity retained) from previously finished threads, so
    /// fork-heavy workloads stop paying one heap allocation per frame
    /// stack per thread.
    pub(crate) fn with_buffers(
        tid: ThreadId,
        action: Action,
        stack: Vec<Frame>,
        pending: VecDeque<PendingExc>,
    ) -> Self {
        debug_assert!(stack.is_empty() && pending.is_empty());
        Thread {
            tid,
            code: action,
            mode: Mode::Run,
            stack,
            mask: MaskState::Unblocked,
            pending,
            status: Status::Runnable,
            mask_frames: 0,
            footprint: StepFootprint::Local,
        }
    }

    /// Reinitializes a recycled thread in place for a new spawn: same
    /// effect as [`Thread::with_buffers`] on the thread's own buffers,
    /// without moving the (boxed) thread. The stack and pending queue
    /// must already be empty — retirement clears them, keeping capacity.
    pub(crate) fn reinit(&mut self, tid: ThreadId, action: Action) {
        debug_assert!(self.stack.is_empty() && self.pending.is_empty());
        self.tid = tid;
        self.code = action;
        self.mode = Mode::Run;
        self.mask = MaskState::Unblocked;
        self.status = Status::Runnable;
        self.mask_frames = 0;
        self.footprint = StepFootprint::Local;
    }

    /// Pushes the frame `build` makes, maintaining the mask-frame count.
    ///
    /// The frame is built inside the `extend`, after the stack has grown
    /// if it must, so it is stored straight into its slot. A frame built
    /// first goes through the native stack, and `push` reloads it with a
    /// load wider than the stores that built it: a store-forwarding stall
    /// on every bind, catch and mask frame.
    pub(crate) fn push_frame(&mut self, build: impl FnOnce() -> Frame) {
        self.stack.extend(std::iter::once_with(build));
        if matches!(self.stack.last(), Some(Frame::Restore(_))) {
            self.mask_frames += 1;
        }
    }

    /// Pops a frame, maintaining the mask-frame count.
    pub(crate) fn pop_frame(&mut self) -> Option<Frame> {
        let f = self.stack.pop();
        if matches!(f, Some(Frame::Restore(_))) {
            self.mask_frames -= 1;
        }
        f
    }

    /// Enters a `block` (`to == Blocked`) or `unblock` scope: the §8.1
    /// algorithm, which is its own mirror image.
    ///
    /// Returns `true` if an adjacent frame was collapsed (step 3's removal)
    /// — the quantity the ablation bench counts.
    pub(crate) fn enter_mask(&mut self, to: MaskState, collapse: bool) -> bool {
        // Step 1: already in that state => nothing to do.
        if self.mask == to {
            return false;
        }
        // Step 2: set the state.
        let from = std::mem::replace(&mut self.mask, to);
        // Step 3: right under a frame that would restore `to` (entering
        // `block`, the paper's "block frame"), remove that frame instead
        // of pushing the one that restores `from` (an "unblock frame").
        if collapse && matches!(self.stack.last(), Some(Frame::Restore(s)) if *s == to) {
            self.pop_frame();
            true
        } else {
            self.push_frame(|| Frame::Restore(from));
            false
        }
    }

    /// Is this thread currently stuck?
    pub(crate) fn is_stuck(&self) -> bool {
        matches!(self.status, Status::Stuck(_))
    }

    /// The link to the thread queued behind this one on an `MVar`, if
    /// this one is waiting on an `MVar`.
    pub(crate) fn mvar_link(&mut self) -> Option<&mut Option<ThreadId>> {
        match &mut self.status {
            Status::Stuck(
                StuckReason::TakeMVar { next, .. } | StuckReason::PutMVar { next, .. },
            ) => Some(next),
            _ => None,
        }
    }

    /// Takes the first pending exception, if any.
    pub(crate) fn take_pending(&mut self) -> Option<PendingExc> {
        self.pending.pop_front()
    }
}

impl std::fmt::Debug for Thread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Thread")
            .field("tid", &self.tid)
            .field("mask", &self.mask)
            .field("status", &self.status)
            .field("stack_depth", &self.stack.len())
            .field("pending", &self.pending.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::bind_node;
    use crate::value::Value;

    fn fresh() -> Thread {
        Thread::new(crate::ids::tid(0), Action::Pure(Value::Unit))
    }

    #[test]
    fn starts_unblocked_runnable() {
        let t = fresh();
        assert_eq!(t.mask, MaskState::Unblocked);
        assert_eq!(t.status, Status::Runnable);
        assert!(t.stack.is_empty());
    }

    #[test]
    fn block_pushes_unblock_frame() {
        let mut t = fresh();
        let collapsed = t.enter_mask(MaskState::Blocked, true);
        assert!(!collapsed);
        assert_eq!(t.mask, MaskState::Blocked);
        assert!(matches!(
            t.stack.last(),
            Some(Frame::Restore(MaskState::Unblocked))
        ));
        assert_eq!(t.mask_frames, 1);
    }

    #[test]
    fn nested_block_is_noop() {
        let mut t = fresh();
        t.enter_mask(MaskState::Blocked, true);
        let depth = t.stack.len();
        t.enter_mask(MaskState::Blocked, true);
        // §5.2: no counting of scopes — second block changes nothing.
        assert_eq!(t.stack.len(), depth);
        assert_eq!(t.mask, MaskState::Blocked);
    }

    #[test]
    fn unblock_in_tail_position_collapses_block_scope() {
        // §8.1 reversed step 3: an unblock whose stack top is the enclosing
        // block's unblock-frame removes it instead of pushing.
        let mut t = fresh();
        t.enter_mask(MaskState::Blocked, true);
        let collapsed = t.enter_mask(MaskState::Unblocked, true);
        assert!(collapsed);
        assert_eq!(t.mask, MaskState::Unblocked);
        assert!(t.stack.is_empty());
        assert_eq!(t.mask_frames, 0);
    }

    #[test]
    fn unblock_in_non_tail_position_pushes_block_frame() {
        // With an intervening frame (a pending `>>=` continuation), the
        // collapse cannot fire and a block-frame is pushed.
        let mut t = fresh();
        t.enter_mask(MaskState::Blocked, true);
        t.push_frame(|| Frame::Bind(bind_node(Action::Pure(Value::Unit), Action::Pure)));
        let collapsed = t.enter_mask(MaskState::Unblocked, true);
        assert!(!collapsed);
        assert_eq!(t.mask, MaskState::Unblocked);
        assert!(matches!(
            t.stack.last(),
            Some(Frame::Restore(MaskState::Blocked))
        ));
        assert_eq!(t.mask_frames, 2);
    }

    #[test]
    fn block_collapses_adjacent_block_frame() {
        // §8.1 step 3 exactly: inside an unblock scope (which pushed a
        // block-frame), a tail-position block removes that frame.
        let mut t = fresh();
        t.mask = MaskState::Blocked;
        t.enter_mask(MaskState::Unblocked, true); // pushes Restore(Blocked)
        assert_eq!(t.stack.len(), 1);
        let collapsed = t.enter_mask(MaskState::Blocked, true);
        assert!(collapsed);
        assert!(t.stack.is_empty());
        assert_eq!(t.mask_frames, 0);
        assert_eq!(t.mask, MaskState::Blocked);
    }

    #[test]
    fn no_collapse_grows_stack() {
        let mut t = fresh();
        t.enter_mask(MaskState::Blocked, false);
        t.enter_mask(MaskState::Unblocked, false);
        let collapsed = t.enter_mask(MaskState::Blocked, false);
        assert!(!collapsed);
        assert_eq!(t.stack.len(), 3);
        assert_eq!(t.mask_frames, 3);
    }

    #[test]
    fn collapse_keeps_recursion_constant_space() {
        let mut t = fresh();
        t.enter_mask(MaskState::Blocked, true);
        for _ in 0..1000 {
            t.enter_mask(MaskState::Unblocked, true);
            t.enter_mask(MaskState::Blocked, true);
        }
        assert_eq!(t.stack.len(), 1);
    }

    #[test]
    fn without_collapse_recursion_grows_linearly() {
        let mut t = fresh();
        t.enter_mask(MaskState::Blocked, false);
        for _ in 0..100 {
            t.enter_mask(MaskState::Unblocked, false);
            t.enter_mask(MaskState::Blocked, false);
        }
        assert_eq!(t.stack.len(), 201);
    }

    #[test]
    fn frame_debug_output_is_stable() {
        // Failure certificates print these.
        let bind = Frame::Bind(bind_node(Action::Pure(Value::Unit), Action::Pure));
        assert_eq!(format!("{bind:?}"), "Bind");
        let catch = Frame::Catch {
            handler: Box::new(|e, _| Action::Throw(e)),
            saved_mask: MaskState::Blocked,
        };
        assert_eq!(format!("{catch:?}"), "Catch(saved=Blocked)");
        let restore = Frame::Restore(MaskState::Unblocked);
        assert_eq!(format!("{restore:?}"), "Restore(Unblocked)");
    }

    #[test]
    fn pending_is_fifo() {
        let mut t = fresh();
        t.pending.push_back(PendingExc {
            exc: Exception::custom("first"),
            notify: None,
            enqueued_step: 0,
        });
        t.pending.push_back(PendingExc {
            exc: Exception::custom("second"),
            notify: None,
            enqueued_step: 0,
        });
        assert_eq!(t.take_pending().unwrap().exc, Exception::custom("first"));
        assert_eq!(t.take_pending().unwrap().exc, Exception::custom("second"));
        assert!(t.take_pending().is_none());
    }

    /// What a step reads, writes and moves: a byte added to any of these
    /// is paid on every step (`MVarCell`: on every cell).
    #[test]
    fn hot_path_types_keep_their_sizes() {
        use crate::mvar::MVarCell;
        use std::mem::size_of;
        let sizes = [
            ("Value", size_of::<Value>()),
            ("Exception", size_of::<Exception>()),
            ("Action", size_of::<Action>()),
            ("Frame", size_of::<Frame>()),
            ("Thread", size_of::<Thread>()),
            ("MVarCell", size_of::<MVarCell>()),
        ];
        assert_eq!(
            sizes,
            [
                ("Value", 32),
                ("Exception", 32),
                ("Action", 48),
                ("Frame", 24),
                ("Thread", 168),
                ("MVarCell", 56),
            ]
        );
    }

    #[test]
    fn stuck_reason_descriptions() {
        assert!(StuckReason::TakeMVar {
            m: MVarId(1),
            next: None
        }
        .describe()
        .contains("takeMVar"));
        assert!(StuckReason::Sleep { wake_at: 5 }.describe().contains('5'));
        assert!(StuckReason::GetChar.describe().contains("getChar"));
    }
}
