//! The small-step interpreter: one [`Action`] node, frame pop or
//! delivery per step of the running thread.

use super::deliver::Delivery;
use super::{lookup, Runtime, MAX_THREAD_SLOTS};
use crate::config::DeliveryMode;
use crate::decide::StepFootprint;
use crate::error::RunError;
use crate::exception::Exception;
use crate::ids::{MVarId, ThreadId};
use crate::io::Action;
use crate::mvar::MVarCell;
use crate::thread::{Frame, MaskState, Mode, PendingExc, RaiseOrigin, StuckReason, Thread};
use crate::trace::IoEvent;
use crate::value::Value;

/// What one [`Runtime::step`] did to the thread it stepped.
pub(super) enum Step {
    /// The thread took a step and is still in the scheduler's hands
    /// (runnable, stuck or yielded — its `status` says which).
    Ran,
    /// The thread returned or raised with an empty stack: its `code`
    /// holds the final `Pure(v)` or the uncaught exception.
    Ended,
}

/// Moves `th`'s code out, leaving a spent `return ()` in its place.
pub(super) fn take_code(th: &mut Thread) -> Action {
    std::mem::replace(&mut th.code, Action::Pure(Value::Unit))
}

/// Sets `th`'s mode and writes its next action: with
/// [`BindNode::resume`](crate::io::BindNode::resume), which builds a
/// continuation's action in the slot itself, the one write of `th.code`
/// in a step. What it overwrites is spent — the `return ()`
/// [`take_code`] leaves, or the running node once its payload was taken
/// or was `Copy` — and owns nothing, so it is forgotten instead of going
/// through `Action`'s out-of-line drop glue. `raise_async` and `wake`,
/// which overwrite live code, assign plainly.
#[inline]
fn set_code(th: &mut Thread, mode: Mode, code: Action) {
    debug_assert!(
        matches!(
            th.code,
            Action::Pure(Value::Unit)
                | Action::GetMaskingState
                | Action::MyThreadId
                | Action::NewMVar(None)
                | Action::TakeMVar(_)
                | Action::PutMVar(_, Value::Unit)
                | Action::TryTakeMVar(_)
                | Action::TryPutMVar(_, Value::Unit)
                | Action::Sleep(_)
                | Action::GetChar
                | Action::PutChar(_)
                | Action::Compute {
                    result: Value::Unit,
                    ..
                }
                | Action::PollSafePoint
                | Action::Yield
                | Action::Now
                | Action::Choose(_)
        ),
        "overwriting live code {:?}",
        th.code
    );
    th.mode = mode;
    std::mem::forget(std::mem::replace(&mut th.code, code));
}

/// [`set_code`] for a step that returns `v` to the top frame.
#[inline]
fn set_return(th: &mut Thread, v: Value) {
    set_code(th, Mode::Return, Action::Pure(v));
}

impl Runtime {
    /// Records new high-water marks of `th`'s stack.
    fn note_stack_growth(&mut self, th: &Thread) {
        self.stats.max_stack_depth = self.stats.max_stack_depth.max(th.stack.len());
        self.stats.max_mask_frames = self.stats.max_mask_frames.max(th.mask_frames);
    }

    /// Pushes the frame `build` makes ([`Thread::push_frame`]), enforcing
    /// the stack limit; on overflow the thread raises `StackOverflow` and
    /// `false` is returned.
    fn push_frame_checked(&mut self, th: &mut Thread, build: impl FnOnce() -> Frame) -> bool {
        if let Some(limit) = self.config.stack_limit {
            if th.stack.len() >= limit {
                set_code(
                    th,
                    Mode::Raise,
                    Action::Throw(Exception::new(
                        crate::exception::ExceptionKind::StackOverflow,
                    )),
                );
                return false;
            }
        }
        th.push_frame(build);
        self.note_stack_growth(th);
        true
    }

    /// (Block)/(Unblock): runs `body` with the mask set to `to`, by the
    /// §8.1 frame algorithm ([`Thread::enter_mask`]).
    fn enter_mask_scope(&mut self, th: &mut Thread, to: MaskState, body: Action) {
        if self.config.record_sched_events {
            self.trace.push(match to {
                MaskState::Blocked => IoEvent::Mask(th.tid),
                MaskState::Unblocked => IoEvent::Unmask(th.tid),
            });
        }
        if th.enter_mask(to, self.config.collapse_mask_frames) {
            self.stats.mask_frames_collapsed += 1;
        }
        self.note_stack_growth(th);
        set_code(th, Mode::Run, body);
    }

    /// The accounting every `throwTo`, of either design, starts with.
    fn note_throw_to(&mut self, from: ThreadId, to: ThreadId) {
        self.stats.throwtos += 1;
        if self.config.record_sched_events {
            self.trace.push(IoEvent::ThrowTo { from, to });
        }
    }

    /// (Receive): asynchronous delivery at any program point, for
    /// unblocked threads, in fully-asynchronous mode — tried at every
    /// step that starts with an exception pending; returns whether one
    /// was delivered. Delivery does not preempt an exception already
    /// being raised: §8 treats raising as atomic (the stack is truncated
    /// to the handler in one go), so a mid-unwind thread is not a
    /// delivery point. An installed decider picks the
    /// delivery step: deferring leaves the exception queued and the
    /// thread takes its ordinary step, so the decider sees the same
    /// choice again at the thread's next unmasked step.
    ///
    /// Cold and out of line: the step loop tests only the queue length.
    #[cold]
    fn receive(&mut self, th: &mut Thread) -> bool {
        let deliver = th.mask == MaskState::Unblocked
            && self.config.delivery == DeliveryMode::FullyAsync
            && th.mode != Mode::Raise
            && self
                .with_decider(|rt, d| d.deliver_now(rt.view(th, footprint_of(th))))
                .unwrap_or(true);
        if deliver {
            let p = th.take_pending().expect("tried with one pending");
            self.raise_async(th, p, Delivery::Receive);
        }
        deliver
    }

    /// Executes one small step of the running thread `th`, which the
    /// scheduler loop holds outside the thread table.
    ///
    /// `th.code` is stepped where it sits: an arm moves the node out only
    /// when it has an owned payload to consume, so the steps that merely
    /// count down, pop a mask frame or read a `Copy` operand touch a few
    /// bytes instead of rewriting the whole 48-byte `Action`, and `return`,
    /// `throw` and re-`throw` switch `th.mode` and leave the value or
    /// exception where it is.
    pub(super) fn step(&mut self, th: &mut Thread) -> Step {
        debug_assert!(
            match th.mode {
                Mode::Run => true,
                Mode::Return => matches!(th.code, Action::Pure(_)),
                Mode::Raise => matches!(th.code, Action::Throw(_) | Action::Rethrow(_, _)),
            },
            "{:?} mode over {:?}",
            th.mode,
            th.code
        );
        self.stats.steps += 1;
        if !th.pending.is_empty() && self.receive(th) {
            return Step::Ran;
        }
        if th.mode == Mode::Run {
            self.run_action(th);
            return Step::Ran;
        }
        // Returning or raising: control reaches the top frame.
        let Some(frame) = th.pop_frame() else {
            return Step::Ended;
        };
        match frame {
            Frame::Restore(s) => th.mask = s,
            // A raise drops the continuations it unwinds past.
            Frame::Bind(node) => {
                if let (Mode::Return, Action::Pure(v)) = (th.mode, &mut th.code) {
                    let v = std::mem::take(v);
                    th.mode = Mode::Run;
                    node.resume(v, &mut th.code);
                }
            }
            // A return drops the handler it leaves the scope of.
            Frame::Catch { .. } if th.mode != Mode::Raise => {}
            Frame::Catch {
                handler,
                saved_mask,
            } => {
                th.mask = saved_mask;
                self.stats.catches += 1;
                let next = match take_code(th) {
                    Action::Throw(e) => handler(e, RaiseOrigin::Sync),
                    Action::Rethrow(e, origin) => handler(e, origin),
                    code => unreachable!("{code:?} is not a raise"),
                };
                set_code(th, Mode::Run, next);
            }
        }
        Step::Ran
    }

    /// Interprets the action node `th` is about to run.
    ///
    /// `th` is outside the thread table for the duration, so helper
    /// methods that touch *other* threads are safe to call.
    fn run_action(&mut self, th: &mut Thread) {
        // `Copy` operands are bound by value and `Value`s are taken through
        // the reference; `return` and `throw` only switch the mode; the
        // arms that consume a box or an exception move the node out, all
        // in `run_owned_action`.
        match th.code {
            Action::Pure(_) => th.mode = Mode::Return,
            Action::Throw(_) | Action::Rethrow(_, _) => {
                self.stats.sync_throws += 1;
                th.mode = Mode::Raise;
            }
            Action::Bind(_)
            | Action::Catch(_, _)
            | Action::Block(_)
            | Action::Unblock(_)
            | Action::Fork(_)
            | Action::Effect(_)
            | Action::ThrowTo(_, _)
            | Action::ThrowToSync(_, _) => self.run_owned_action(th),
            Action::GetMaskingState => {
                let blocked = th.mask == MaskState::Blocked;
                set_return(th, Value::Bool(blocked));
            }
            Action::MyThreadId => {
                let tid = th.tid;
                set_return(th, Value::ThreadId(tid));
            }
            Action::NewMVar(ref mut contents) => {
                let id = MVarId(self.mvars.len() as u64);
                self.mvars.push(match contents.take() {
                    None => MVarCell::empty(),
                    Some(v) => MVarCell::full(v),
                });
                set_return(th, Value::MVar(id));
            }
            Action::TakeMVar(m) => match self.try_take(m) {
                // Full: take succeeds atomically — *not* a delivery point,
                // even with pending exceptions (§5.3: "an interruptible
                // operation cannot be interrupted if the resource ... is
                // available").
                Some(v) => set_return(th, v),
                None => {
                    self.block_on(th, StuckReason::TakeMVar { m, next: None });
                }
            },
            Action::PutMVar(m, ref mut v) => match self.try_put(m, std::mem::take(v)) {
                Ok(()) => set_return(th, Value::Unit),
                Err(back) => {
                    // The value waits in the putter's own code until a
                    // take admits it.
                    *v = back;
                    self.block_on(th, StuckReason::PutMVar { m, next: None });
                }
            },
            Action::TryTakeMVar(m) => {
                set_return(
                    th,
                    match self.try_take(m) {
                        None => Value::Nothing,
                        Some(v) => Value::Just(Box::new(v)),
                    },
                );
            }
            Action::TryPutMVar(m, ref mut v) => {
                let stored = self.try_put(m, std::mem::take(v)).is_ok();
                set_return(th, Value::Bool(stored));
            }
            Action::Sleep(0) => set_return(th, Value::Unit),
            Action::Sleep(d) => {
                let wake_at = self.clock + d;
                self.block_on(th, StuckReason::Sleep { wake_at });
            }
            Action::GetChar => match self.console.try_read() {
                Some(c) => {
                    self.trace.push(IoEvent::Get(c));
                    set_return(th, Value::Char(c));
                }
                None => {
                    self.block_on(th, StuckReason::GetChar);
                }
            },
            Action::PutChar(c) => {
                self.console.write(c);
                self.trace.push(IoEvent::Put(c));
                set_return(th, Value::Unit);
            }
            Action::Compute {
                ref mut steps,
                ref mut result,
            } => {
                if *steps <= 1 {
                    let result = std::mem::take(result);
                    set_return(th, result);
                } else {
                    *steps -= 1;
                }
            }
            Action::PollSafePoint => {
                let p = match th.mask {
                    MaskState::Unblocked => th.take_pending(),
                    MaskState::Blocked => None,
                };
                match p {
                    Some(p) => self.raise_async(th, p, Delivery::Receive),
                    None => set_return(th, Value::Unit),
                }
            }
            Action::Yield => {
                self.yielded = true;
                set_return(th, Value::Unit);
            }
            Action::Now => set_return(th, Value::Int(self.clock as i64)),
            Action::Choose(arms) => {
                // A scheduler-visible oracle: the installed decider picks
                // the arm (the explorer records it as a branch point);
                // without a decider the choice collapses to arm 0.
                let arm = self
                    .with_decider(|rt, d| d.choose_arm(rt.view(th, StepFootprint::Oracle), arms))
                    .unwrap_or(0);
                assert!(
                    arm < arms,
                    "Decider::choose_arm returned arm {arm} for {arms} arms"
                );
                set_return(th, Value::Int(arm as i64));
            }
        }
    }

    /// The actions that consume a box or an exception: the node is moved
    /// out of `th.code` once, here.
    fn run_owned_action(&mut self, th: &mut Thread) {
        match take_code(th) {
            Action::Bind(mut node) => {
                let left = node.take_left();
                if self.push_frame_checked(th, || Frame::Bind(node)) {
                    set_code(th, Mode::Run, left);
                }
            }
            Action::Catch(body, handler) => {
                let saved_mask = th.mask;
                if self.push_frame_checked(th, || Frame::Catch {
                    handler,
                    saved_mask,
                }) {
                    set_code(th, Mode::Run, *body);
                }
            }
            Action::Block(body) => self.enter_mask_scope(th, MaskState::Blocked, *body),
            Action::Unblock(body) => {
                self.enter_mask_scope(th, MaskState::Unblocked, *body);
            }
            Action::Fork(body) => {
                let mask = if self.config.fork_inherits_mask {
                    th.mask
                } else {
                    MaskState::Unblocked
                };
                let Some(child) = self.spawn(*body, mask) else {
                    // The scheduler loop ends the quantum at `main_result`;
                    // this thread never takes another step.
                    self.main_result = Some(Err(RunError::ThreadLimitExceeded {
                        limit: MAX_THREAD_SLOTS,
                    }));
                    return;
                };
                self.stats.forks += 1;
                if self.config.record_sched_events {
                    self.trace.push(IoEvent::Fork {
                        parent: th.tid,
                        child,
                    });
                }
                set_return(th, Value::ThreadId(child));
            }
            Action::Effect(f) => set_return(th, f()),
            Action::ThrowTo(target, e) => {
                self.note_throw_to(th.tid, target);
                if target == th.tid {
                    // Self-throw: queue it; it is delivered at the next
                    // delivery point if unmasked, like any other pending
                    // asynchronous exception.
                    th.pending.push_back(PendingExc {
                        exc: e,
                        notify: None,
                        enqueued_step: self.stats.steps,
                    });
                } else {
                    self.enqueue_exception(target, e, None);
                }
                set_return(th, Value::Unit);
            }
            Action::ThrowToSync(target, e) => {
                self.note_throw_to(th.tid, target);
                if target == th.tid {
                    // §9: special case — a thread throwing to itself raises
                    // the exception immediately.
                    set_code(th, Mode::Raise, Action::Rethrow(e, RaiseOrigin::Async));
                    return;
                }
                match lookup(&self.threads, target).map(Thread::is_stuck) {
                    None => {}
                    // A stuck target receives via (Interrupt) the moment the
                    // exception is enqueued, so the thrower has nothing to
                    // wait for. Waiting would in fact deadlock: the wake
                    // happens during this very step, while the thrower is
                    // detached from the thread table and not yet suspended.
                    // (With an exception of its own pending the thrower
                    // receives that instead, below: §9 makes the
                    // synchronous throwTo interruptible.)
                    Some(true) if th.pending.is_empty() => self.enqueue_exception(target, e, None),
                    Some(_) => {
                        let since_step = self.stats.steps;
                        if self.block_on(th, StuckReason::SyncThrow { target, since_step }) {
                            self.enqueue_exception(target, e, Some(th.tid));
                        }
                        return;
                    }
                }
                set_return(th, Value::Unit);
            }
            code => unreachable!("{code:?} does not own its payload"),
        }
    }
}

/// Classifies what `th`'s next step will touch (see [`StepFootprint`]).
///
/// Conservative in the required direction: anything not provably local to
/// the thread maps to a variant that conflicts with more, never less.
pub(super) fn footprint_of(th: &Thread) -> StepFootprint {
    match th.mode {
        Mode::Return => {
            if th.stack.is_empty() {
                StepFootprint::Terminal
            } else {
                StepFootprint::Local
            }
        }
        Mode::Raise => {
            if th.stack.is_empty() {
                StepFootprint::Terminal
            } else {
                StepFootprint::Raise
            }
        }
        Mode::Run => match &th.code {
            Action::Pure(_)
            | Action::Bind(_)
            | Action::GetMaskingState
            | Action::MyThreadId
            | Action::Compute { .. }
            | Action::Yield => StepFootprint::Local,
            // Catch installs a handler: an exception delivered before vs
            // after the push lands differently, so this is not a plain
            // local step (it must not be fast-forwarded past a throw).
            Action::Catch(_, _) => StepFootprint::Raise,
            Action::Throw(_) | Action::Rethrow(_, _) => StepFootprint::Raise,
            // Under polling delivery this is itself a delivery point.
            Action::PollSafePoint => StepFootprint::Effect,
            Action::Block(_) | Action::Unblock(_) => StepFootprint::Mask,
            Action::NewMVar(_) => StepFootprint::Alloc,
            Action::TakeMVar(m)
            | Action::PutMVar(m, _)
            | Action::TryTakeMVar(m)
            | Action::TryPutMVar(m, _) => StepFootprint::MVar(*m),
            Action::Sleep(_) | Action::Now => StepFootprint::Time,
            Action::GetChar | Action::PutChar(_) => StepFootprint::Console,
            Action::Fork(_) => StepFootprint::Fork,
            Action::ThrowTo(t, _) | Action::ThrowToSync(t, _) => StepFootprint::Throw(*t),
            Action::Effect(_) => StepFootprint::Effect,
            Action::Choose(_) => StepFootprint::Oracle,
        },
    }
}
