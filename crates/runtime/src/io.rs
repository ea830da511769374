//! The embedded `IO` monad.
//!
//! [`Io<T>`] is a deep embedding of Concurrent Haskell's `IO` actions
//! (§3–§5 of the paper): a tree of primitive operations that the
//! [`Runtime`](crate::scheduler::Runtime) interprets one small step at a
//! time. Because actions are *data*, the scheduler can suspend a thread
//! between any two steps — which is exactly what makes truly asynchronous
//! exceptions implementable: a `throwTo` can land at any step boundary,
//! including in the middle of a pure computation ([`Io::compute`]).
//!
//! The typed surface (`Io<T>`) is a zero-cost phantom wrapper over the
//! untyped `Action` tree; values are converted at the boundaries via
//! [`IntoValue`]/[`FromValue`].
//!
//! # Examples
//!
//! ```
//! use conch_runtime::prelude::*;
//!
//! // do { m <- newEmptyMVar; putMVar m 42; takeMVar m }
//! let prog = Io::new_empty_mvar::<i64>().and_then(|m| {
//!     m.put(42).and_then(move |_| m.take())
//! });
//! let mut rt = Runtime::new();
//! assert_eq!(rt.run(prog).unwrap(), 42);
//! ```

use std::marker::PhantomData;

use crate::exception::Exception;
use crate::ids::{MVarId, ThreadId};
use crate::mvar::MVar;
use crate::value::{FromValue, IntoValue, Value};

/// `m >>= k` as one heap object: the left action and the continuation
/// live in the same box. The interpreter first moves the left action out
/// to run it ([`BindNode::take_left`]), then parks the very same box on
/// the frame stack as [`Frame::Bind`](crate::thread::Frame), and finally
/// consumes it when the left action's result comes back
/// ([`BindNode::resume`]) — so a bind costs one allocation, not one for
/// the action and one for the closure.
pub(crate) trait BindNode {
    /// Moves the left action out, leaving a spent `Pure(())` in its slot.
    fn take_left(&mut self) -> Action;
    /// Runs the continuation on the left action's result.
    fn resume(self: Box<Self>, v: Value) -> Action;
}

/// The one implementor of [`BindNode`]; generic so the continuation is
/// stored inline rather than behind a second box.
struct Bind<K> {
    left: Action,
    k: K,
}

impl<K: FnOnce(Value) -> Action> BindNode for Bind<K> {
    fn take_left(&mut self) -> Action {
        std::mem::replace(&mut self.left, Action::Pure(Value::Unit))
    }

    fn resume(self: Box<Self>, v: Value) -> Action {
        let Bind { left, k } = *self;
        // The `Pure(())` `take_left` left behind owns nothing: forgetting
        // it skips `Action`'s out-of-line drop glue.
        debug_assert!(
            matches!(left, Action::Pure(Value::Unit)),
            "resumed before its left action ran: {left:?}"
        );
        std::mem::forget(left);
        k(v)
    }
}

/// Builds the node for `left >>= k`.
pub(crate) fn bind_node(
    left: Action,
    k: impl FnOnce(Value) -> Action + 'static,
) -> Box<dyn BindNode> {
    Box::new(Bind { left, k })
}

/// An exception handler: the second argument of `catch`. Receives the
/// exception together with how it was raised (see
/// [`RaiseOrigin`](crate::thread::RaiseOrigin)).
pub(crate) type Handler = Box<dyn FnOnce(Exception, crate::thread::RaiseOrigin) -> Action>;

/// The untyped action tree interpreted by the scheduler.
///
/// Each variant corresponds to a primitive of the paper's language
/// (Figure 1 plus the asynchronous-exception extension of §5 and the
/// measurement/baseline primitives motivated in §2 and §10).
pub(crate) enum Action {
    /// `return v`.
    Pure(Value),
    /// `m >>= k`.
    Bind(Box<dyn BindNode>),
    /// `catch m h`.
    Catch(Box<Action>, Handler),
    /// `throw e` — raise a synchronous exception.
    Throw(Exception),
    /// Re-raise an exception preserving its recorded origin (used by
    /// library code that must pass an asynchronous exception along
    /// without laundering it into a synchronous one).
    Rethrow(Exception, crate::thread::RaiseOrigin),
    /// `throwTo t e` — asynchronous delivery, returns immediately (§5).
    ThrowTo(ThreadId, Exception),
    /// The §9 design alternative: synchronous `throwTo` that waits for
    /// the exception to be delivered (and is therefore interruptible).
    ThrowToSync(ThreadId, Exception),
    /// `block m` — scoped masking (§5.2).
    Block(Box<Action>),
    /// `unblock m` — scoped unmasking (§5.2).
    Unblock(Box<Action>),
    /// Reads the current masking state (true = blocked).
    GetMaskingState,
    /// `forkIO m`.
    Fork(Box<Action>),
    /// `myThreadId`.
    MyThreadId,
    /// `newEmptyMVar` (None) or `newMVar v` (Some).
    NewMVar(Option<Value>),
    /// `takeMVar m` — blocking, interruptible (§5.3).
    TakeMVar(MVarId),
    /// `putMVar m v` — blocking, interruptible (§5.3).
    PutMVar(MVarId, Value),
    /// Non-blocking take; returns `Nothing` when empty.
    TryTakeMVar(MVarId),
    /// Non-blocking put; returns `False` when full.
    TryPutMVar(MVarId, Value),
    /// `sleep d` — wait `d` virtual microseconds; interruptible.
    Sleep(u64),
    /// `getChar` — blocking on console input; interruptible.
    GetChar,
    /// `putChar c`.
    PutChar(char),
    /// Pure computation burning `steps` interpreter steps, then returning
    /// the given value. Models a long-running purely-functional
    /// evaluation — the code region where the paper argues polling is
    /// impossible and full asynchrony is required (§2).
    Compute { steps: u64, result: Value },
    /// An explicit polling point: in [`DeliveryMode::Polling`]
    /// (crate::config::DeliveryMode::Polling) this is the *only* place a
    /// runnable thread receives asynchronous exceptions. In fully
    /// asynchronous mode it is a no-op (delivery can happen anywhere).
    PollSafePoint,
    /// Voluntarily end the current scheduling quantum.
    Yield,
    /// Read the virtual clock (microseconds).
    Now,
    /// Escape hatch: run native Rust code atomically and return its value.
    Effect(Box<dyn FnOnce() -> Value>),
    /// A scheduler-visible nondeterministic choice among `0..arms`
    /// alternatives. Under external scheduling the installed
    /// [`Decider`](crate::decide::Decider) picks the arm
    /// ([`Decider::choose_arm`](crate::decide::Decider::choose_arm)), so
    /// an explorer can enumerate all of them; otherwise arm 0 is taken.
    /// This is the oracle primitive the fault-injection plane
    /// (`conch-faults`) builds on.
    Choose(u8),
}

impl std::fmt::Debug for Action {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Action::Pure(v) => return write!(f, "Pure({v})"),
            Action::Bind(_) => "Bind",
            Action::Catch(_, _) => "Catch",
            Action::Throw(e) => return write!(f, "Throw({e})"),
            Action::Rethrow(e, o) => return write!(f, "Rethrow({e}, {o:?})"),
            Action::ThrowTo(t, e) => return write!(f, "ThrowTo({t}, {e})"),
            Action::ThrowToSync(t, e) => return write!(f, "ThrowToSync({t}, {e})"),
            Action::Block(_) => "Block",
            Action::Unblock(_) => "Unblock",
            Action::GetMaskingState => "GetMaskingState",
            Action::Fork(_) => "Fork",
            Action::MyThreadId => "MyThreadId",
            Action::NewMVar(_) => "NewMVar",
            Action::TakeMVar(m) => return write!(f, "TakeMVar({m})"),
            Action::PutMVar(m, v) => return write!(f, "PutMVar({m}, {v})"),
            Action::TryTakeMVar(m) => return write!(f, "TryTakeMVar({m})"),
            Action::TryPutMVar(m, v) => return write!(f, "TryPutMVar({m}, {v})"),
            Action::Sleep(d) => return write!(f, "Sleep({d})"),
            Action::GetChar => "GetChar",
            Action::PutChar(c) => return write!(f, "PutChar({c:?})"),
            Action::Compute { steps, .. } => return write!(f, "Compute({steps})"),
            Action::PollSafePoint => "PollSafePoint",
            Action::Yield => "Yield",
            Action::Now => "Now",
            Action::Effect(_) => "Effect",
            Action::Choose(n) => return write!(f, "Choose({n})"),
        };
        f.write_str(name)
    }
}

/// A typed `IO` action returning a `T`.
///
/// `Io<T>` values are inert descriptions; nothing happens until they are
/// passed to [`Runtime::run`](crate::scheduler::Runtime::run). Combine them
/// with [`Io::and_then`] (the paper's `>>=`), [`Io::catch`], and the
/// concurrency primitives.
///
/// # Examples
///
/// ```
/// use conch_runtime::prelude::*;
///
/// let prog = Io::pure(20_i64).map(|n| n * 2);
/// let mut rt = Runtime::new();
/// assert_eq!(rt.run(prog).unwrap(), 40);
/// ```
pub struct Io<T> {
    pub(crate) action: Action,
    marker: PhantomData<fn() -> T>,
}

impl<T> std::fmt::Debug for Io<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Io({:?})", self.action)
    }
}

impl<T> Io<T> {
    pub(crate) fn from_action(action: Action) -> Self {
        Io {
            action,
            marker: PhantomData,
        }
    }

    /// Forgets the result type, keeping the effects.
    pub fn erase(self) -> Io<Value> {
        Io::from_action(self.action)
    }
}

impl<T: IntoValue + 'static> Io<T> {
    /// `return v` — an action that does nothing and yields `v`.
    pub fn pure(v: T) -> Io<T> {
        Io::from_action(Action::Pure(v.into_value()))
    }
}

impl Io<()> {
    /// The do-nothing action, `return ()`.
    pub fn unit() -> Io<()> {
        Io::from_action(Action::Pure(Value::Unit))
    }

    /// `putChar c` — writes one character to the console.
    pub fn put_char(c: char) -> Io<()> {
        Io::from_action(Action::PutChar(c))
    }

    /// Writes a whole string, one `putChar` at a time.
    ///
    /// Unfolded lazily — each character's continuation builds the next
    /// character's action — so only one node is ever live and dropping
    /// the action part-way (an unrun program, a killed writer) frees a
    /// constant amount instead of recursing once per character.
    pub fn put_str(s: impl Into<String>) -> Io<()> {
        fn go(s: String, at: usize) -> Io<()> {
            match s[at..].chars().next() {
                None => Io::unit(),
                Some(c) => Io::put_char(c).and_then(move |_| go(s, at + c.len_utf8())),
            }
        }
        go(s.into(), 0)
    }

    /// `sleep d` — suspends the thread for `d` virtual microseconds.
    ///
    /// Sleeping is an *interruptible* operation: an asynchronous exception
    /// wakes the sleeper immediately, even inside `block` (§5.3).
    pub fn sleep(micros: u64) -> Io<()> {
        Io::from_action(Action::Sleep(micros))
    }

    /// `throwTo t e` — queue exception `e` for thread `t` and return
    /// immediately (the asynchronous design chosen in §9).
    ///
    /// If `t` has already finished, the call trivially succeeds. `throwTo`
    /// is *not* interruptible.
    pub fn throw_to(t: ThreadId, e: Exception) -> Io<()> {
        Io::from_action(Action::ThrowTo(t, e))
    }

    /// The §9 design alternative: `throwTo` that *waits* until the target
    /// has actually received the exception.
    ///
    /// Because it can block indefinitely, it is an interruptible operation.
    /// A thread throwing to itself raises the exception immediately.
    pub fn throw_to_sync(t: ThreadId, e: Exception) -> Io<()> {
        Io::from_action(Action::ThrowToSync(t, e))
    }

    /// Burns `steps` interpreter steps of pure computation.
    ///
    /// In fully-asynchronous mode an exception can arrive at any of the
    /// intermediate steps; in polling mode it cannot — reproducing the §2
    /// argument that polling is incompatible with purely-functional code.
    pub fn compute(steps: u64) -> Io<()> {
        Io::from_action(Action::Compute {
            steps,
            result: Value::Unit,
        })
    }

    /// An explicit safe point (§7.4): in polling delivery mode, the only
    /// place a runnable thread checks for pending asynchronous exceptions.
    pub fn poll_safe_point() -> Io<()> {
        Io::from_action(Action::PollSafePoint)
    }

    /// Ends the current scheduling quantum, letting other threads run.
    pub fn yield_now() -> Io<()> {
        Io::from_action(Action::Yield)
    }
}

impl Io<char> {
    /// `getChar` — reads one character from the console.
    ///
    /// Blocks while no input is available; blocking on input is an
    /// interruptible operation (§5.3, rule (Stuck GetChar)).
    pub fn get_char() -> Io<char> {
        Io::from_action(Action::GetChar)
    }
}

impl Io<ThreadId> {
    /// `forkIO m` — runs `m` in a new thread, returning its `ThreadId`.
    ///
    /// The child starts in the *unblocked* masking state, runnable, and its
    /// final result or uncaught exception is discarded (rules (Return GC)
    /// and (Throw GC)).
    pub fn fork<A>(body: Io<A>) -> Io<ThreadId> {
        Io::from_action(Action::Fork(Box::new(body.action)))
    }

    /// `myThreadId` — the calling thread's own id.
    pub fn my_thread_id() -> Io<ThreadId> {
        Io::from_action(Action::MyThreadId)
    }
}

impl Io<bool> {
    /// Reads the current masking state: `true` inside `block`, `false`
    /// inside `unblock` or at top level.
    pub fn masking_state() -> Io<bool> {
        Io::from_action(Action::GetMaskingState)
    }
}

impl Io<i64> {
    /// Reads the virtual clock, in microseconds since the runtime started.
    pub fn now() -> Io<i64> {
        Io::from_action(Action::Now)
    }

    /// A scheduler-visible nondeterministic choice: yields some arm in
    /// `0..arms`.
    ///
    /// An installed [`Decider`](crate::decide::Decider) picks the arm via
    /// [`choose_arm`](crate::decide::Decider::choose_arm), which lets
    /// `conch-explore` enumerate every alternative as a first-class branch
    /// point (fault × schedule exploration). Without a decider, under
    /// either scheduling policy, the choice resolves to arm `0`, so
    /// programs are deterministic by default and arm `0` should encode
    /// "nothing unusual happens".
    ///
    /// `arms` must be at least 1.
    pub fn choose(arms: u8) -> Io<i64> {
        assert!(arms >= 1, "Io::choose needs at least one arm");
        Io::from_action(Action::Choose(arms))
    }
}

impl Io<()> {
    /// `newEmptyMVar` — allocates a fresh, empty `MVar`.
    pub fn new_empty_mvar<T: FromValue + IntoValue + 'static>() -> Io<MVar<T>> {
        Io::from_action(Action::NewMVar(None))
    }

    /// `newMVar v` — allocates a fresh `MVar` already containing `v`.
    pub fn new_mvar<T: FromValue + IntoValue + 'static>(v: T) -> Io<MVar<T>> {
        Io::from_action(Action::NewMVar(Some(v.into_value())))
    }
}

impl<T: FromValue + 'static> Io<T> {
    /// `m >>= k` — sequencing. Runs `self`, passes its result to `k`.
    pub fn and_then<U, F>(self, k: F) -> Io<U>
    where
        F: FnOnce(T) -> Io<U> + 'static,
    {
        Io::from_action(Action::Bind(bind_node(self.action, move |v| {
            k(T::from_value_or_panic(v)).action
        })))
    }

    /// `m >> n` — sequencing that discards the first result.
    pub fn then<U: 'static>(self, next: Io<U>) -> Io<U> {
        self.and_then(move |_| next)
    }

    /// `fmap` — applies a pure function to the result.
    pub fn map<U, F>(self, f: F) -> Io<U>
    where
        U: IntoValue + 'static,
        F: FnOnce(T) -> U + 'static,
    {
        self.and_then(move |t| Io::pure(f(t)))
    }
}

impl<T> Io<T> {
    /// `throw e` — raises a synchronous exception.
    ///
    /// Typed at any result because it never returns normally.
    pub fn throw(e: Exception) -> Io<T> {
        Io::from_action(Action::Throw(e))
    }

    /// `catch m h` — runs `m`; if it raises an exception (synchronous or
    /// asynchronous), runs the handler `h` with it.
    ///
    /// Per §8, the catch frame records the masking state at entry and
    /// restores it before the handler runs, so a handler inside `block`
    /// always starts blocked even if the exception was raised inside an
    /// inner `unblock`.
    pub fn catch<H>(self, h: H) -> Io<T>
    where
        H: FnOnce(Exception) -> Io<T> + 'static,
    {
        Io::from_action(Action::Catch(
            Box::new(self.action),
            Box::new(move |e, _origin| h(e).action),
        ))
    }

    /// Like [`Io::catch`], but the handler also learns whether the
    /// exception was raised synchronously (by the code itself) or
    /// delivered asynchronously by `throwTo`.
    ///
    /// This is the hook for the §9 "exceptions vs alerts" design
    /// alternative and for the §8 thunk treatment, both built in
    /// `conch-combinators`.
    pub fn catch_info<H>(self, h: H) -> Io<T>
    where
        H: FnOnce(Exception, crate::thread::RaiseOrigin) -> Io<T> + 'static,
    {
        Io::from_action(Action::Catch(
            Box::new(self.action),
            Box::new(move |e, origin| h(e, origin).action),
        ))
    }

    /// Re-raises `e` with an explicit origin, so a handler can pass an
    /// asynchronous exception along without making it look synchronous.
    pub fn rethrow(e: Exception, origin: crate::thread::RaiseOrigin) -> Io<T> {
        Io::from_action(Action::Rethrow(e, origin))
    }

    /// `block m` — runs `m` with asynchronous exceptions blocked (§5.2).
    ///
    /// Scoped and idempotent: nesting `block` inside `block` has no further
    /// effect, and the previous masking state is restored on exit, whether
    /// the exit is normal or exceptional. Interruptible operations inside
    /// `m` may still receive asynchronous exceptions *while blocked on an
    /// unavailable resource* (§5.3).
    pub fn block(m: Io<T>) -> Io<T> {
        Io::from_action(Action::Block(Box::new(m.action)))
    }

    /// `unblock m` — runs `m` with asynchronous exceptions deliverable
    /// (§5.2). Always unblocks, regardless of nesting depth.
    pub fn unblock(m: Io<T>) -> Io<T> {
        Io::from_action(Action::Unblock(Box::new(m.action)))
    }

    /// Runs arbitrary Rust code atomically within one interpreter step.
    ///
    /// This is an escape hatch for tests and instrumentation (e.g. pushing
    /// to a shared log). The closure runs exactly once, with asynchronous
    /// exceptions unable to interrupt it mid-flight.
    pub fn effect<F>(f: F) -> Io<T>
    where
        T: IntoValue + 'static,
        F: FnOnce() -> T + 'static,
    {
        Io::from_action(Action::Effect(Box::new(move || f().into_value())))
    }

    /// Burns `steps` interpreter steps of pure computation, then yields
    /// `result` — a pure evaluation with a known outcome.
    pub fn compute_returning(steps: u64, result: T) -> Io<T>
    where
        T: IntoValue,
    {
        Io::from_action(Action::Compute {
            steps,
            result: result.into_value(),
        })
    }
}

/// Sequences a vector of actions, collecting the results.
///
/// # Examples
///
/// ```
/// use conch_runtime::prelude::*;
/// use conch_runtime::io::sequence;
///
/// let prog = sequence(vec![Io::pure(1_i64), Io::pure(2), Io::pure(3)]);
/// let mut rt = Runtime::new();
/// assert_eq!(rt.run(prog).unwrap(), vec![1, 2, 3]);
/// ```
pub fn sequence<T>(actions: Vec<Io<T>>) -> Io<Vec<T>>
where
    T: FromValue + IntoValue + 'static,
{
    fn go<T>(mut acts: std::vec::IntoIter<Io<T>>, mut acc: Vec<T>) -> Io<Vec<T>>
    where
        T: FromValue + IntoValue + 'static,
    {
        match acts.next() {
            None => Io::pure(acc),
            Some(a) => a.and_then(move |t| {
                acc.push(t);
                go(acts, acc)
            }),
        }
    }
    go(actions.into_iter(), Vec::new())
}

/// Runs `body(i)` for each `i` in `0..n`, discarding results.
pub fn for_each<F, A>(n: u64, body: F) -> Io<()>
where
    F: Fn(u64) -> Io<A> + 'static,
    A: FromValue + 'static,
{
    fn go<F, A>(i: u64, n: u64, body: F) -> Io<()>
    where
        F: Fn(u64) -> Io<A> + 'static,
        A: FromValue + 'static,
    {
        if i >= n {
            Io::unit()
        } else {
            body(i).and_then(move |_| go(i + 1, n, body))
        }
    }
    go(0, n, body)
}

/// Runs `body` `n` times, discarding results (`replicateM_`).
pub fn replicate<F, A>(n: u64, body: F) -> Io<()>
where
    F: Fn() -> Io<A> + 'static,
    A: FromValue + 'static,
{
    for_each(n, move |_| body())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::Runtime;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn pure_and_map() {
        let mut rt = Runtime::new();
        assert_eq!(rt.run(Io::pure(5_i64).map(|n| n + 1)).unwrap(), 6);
    }

    #[test]
    fn bind_threads_values() {
        let mut rt = Runtime::new();
        let prog = Io::pure(3_i64).and_then(|a| Io::pure(4_i64).map(move |b| a * b));
        assert_eq!(rt.run(prog).unwrap(), 12);
    }

    #[test]
    fn put_str_emits_in_order() {
        let mut rt = Runtime::new();
        rt.run(Io::put_str("abc")).unwrap();
        assert_eq!(rt.output(), "abc");
    }

    #[test]
    fn sequence_collects_in_order() {
        let mut rt = Runtime::new();
        let prog = sequence(vec![Io::pure(1_i64), Io::pure(2), Io::pure(3)]);
        assert_eq!(rt.run(prog).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn for_each_counts() {
        let mut rt = Runtime::new();
        let prog = Io::new_mvar(0_i64).and_then(|m| {
            for_each(5, move |_| m.take().and_then(move |n| m.put(n + 1))).then(m.take())
        });
        assert_eq!(rt.run(prog).unwrap(), 5);
    }

    #[test]
    fn effect_runs_native_code() {
        let mut rt = Runtime::new();
        let prog = Io::effect(|| 99_i64);
        assert_eq!(rt.run(prog).unwrap(), 99);
    }

    #[test]
    fn compute_returning_yields_result() {
        let mut rt = Runtime::new();
        let prog = Io::compute_returning(100, 7_i64);
        assert_eq!(rt.run(prog).unwrap(), 7);
    }

    #[test]
    fn debug_render_is_nonempty() {
        let io = Io::pure(1_i64);
        assert!(!format!("{io:?}").is_empty());
    }

    /// Counts how often it is dropped; moved into a closure, it counts
    /// how often the closure is.
    struct DropCount(Rc<Cell<u32>>);

    impl Drop for DropCount {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    /// A continuation that bumps `ran` when called and `dropped` when its
    /// captures are released, whether or not it ever ran.
    fn counted(ran: &Rc<Cell<u32>>, dropped: &Rc<Cell<u32>>) -> impl FnOnce(i64) -> Io<i64> {
        let ran = Rc::clone(ran);
        let guard = DropCount(Rc::clone(dropped));
        move |n| {
            let _guard = guard;
            ran.set(ran.get() + 1);
            Io::pure(n + 1)
        }
    }

    fn counters() -> (Rc<Cell<u32>>, Rc<Cell<u32>>) {
        (Rc::new(Cell::new(0)), Rc::new(Cell::new(0)))
    }

    #[test]
    fn bind_node_runs_and_drops_its_continuation_once() {
        let (ran, dropped) = counters();
        let k = counted(&ran, &dropped);
        let mut node = bind_node(Action::Pure(Value::Int(1)), move |v| {
            k(i64::from_value_or_panic(v)).action
        });
        assert_eq!(format!("{:?}", node.take_left()), "Pure(1)");
        // The slot the left action came out of is spent, not duplicated.
        assert_eq!(format!("{:?}", node.take_left()), "Pure(())");
        assert_eq!((ran.get(), dropped.get()), (0, 0));
        assert_eq!(format!("{:?}", node.resume(Value::Int(4))), "Pure(5)");
        assert_eq!((ran.get(), dropped.get()), (1, 1));
    }

    #[test]
    fn continuations_run_once_and_drop_once() {
        let (ran, dropped) = counters();
        let prog = Io::pure(0_i64)
            .and_then(counted(&ran, &dropped))
            .and_then(counted(&ran, &dropped))
            .and_then(counted(&ran, &dropped));
        let mut rt = Runtime::new();
        assert_eq!(rt.run(prog).unwrap(), 3);
        assert_eq!((ran.get(), dropped.get()), (3, 3));
    }

    #[test]
    fn killed_under_three_binds_drops_each_continuation_once_unrun() {
        let (ran, dropped) = counters();
        let (r, d) = (Rc::clone(&ran), Rc::clone(&dropped));
        let prog = Io::new_empty_mvar::<i64>().and_then(move |hole| {
            let victim = hole
                .take()
                .and_then(counted(&r, &d))
                .and_then(counted(&r, &d))
                .and_then(counted(&r, &d));
            // The victim parks in `take` with three bind frames stacked;
            // the kill unwinds all three without returning into any.
            Io::fork(victim).and_then(|v| {
                Io::sleep(1)
                    .then(Io::throw_to(v, Exception::kill_thread()))
                    .then(Io::sleep(1))
            })
        });
        let mut rt = Runtime::new();
        rt.run(prog).unwrap();
        assert_eq!(rt.stats().kill_thread_deaths, 1);
        assert_eq!((ran.get(), dropped.get()), (0, 3));
    }

    #[test]
    fn bind_frame_overflow_drops_left_action_and_continuation() {
        use crate::config::RuntimeConfig;
        use crate::error::RunError;
        use crate::exception::ExceptionKind;

        let (ran, dropped) = counters();
        let left_ran = Rc::clone(&ran);
        let left_guard = DropCount(Rc::clone(&dropped));
        let left = Io::effect(move || {
            let _guard = &left_guard;
            left_ran.set(left_ran.get() + 1);
            0_i64
        });
        // The outer bind takes the only frame; pushing the inner one
        // overflows with its left action and continuation still aboard.
        let prog = left
            .and_then(counted(&ran, &dropped))
            .and_then(counted(&ran, &dropped));
        let mut rt = Runtime::with_config(RuntimeConfig::new().stack_limit(1));
        match rt.run(prog) {
            Err(RunError::Uncaught(e)) => assert_eq!(e.kind(), &ExceptionKind::StackOverflow),
            other => panic!("expected an uncaught StackOverflow, got {other:?}"),
        }
        assert_eq!((ran.get(), dropped.get()), (0, 3));
    }

    #[test]
    fn action_debug_output_is_stable() {
        // Failure certificates print these.
        let bind = Io::pure(1_i64).and_then(|n| Io::pure(n + 1));
        assert_eq!(format!("{bind:?}"), "Io(Bind)");
        assert_eq!(format!("{:?}", Io::pure(1_i64).map(|n| n + 1)), "Io(Bind)");
        assert_eq!(format!("{:?}", Io::unit().then(Io::unit())), "Io(Bind)");
        assert_eq!(format!("{:?}", Io::pure(7_i64)), "Io(Pure(7))");
        assert_eq!(
            format!("{:?}", Io::pure(7_i64).catch(|_| Io::pure(0))),
            "Io(Catch)"
        );
        assert_eq!(format!("{:?}", Io::compute(3)), "Io(Compute(3))");
    }

    #[test]
    fn choose_defaults_to_arm_zero() {
        // Without an external decider the oracle always collapses to
        // arm 0, so programs stay deterministic by default.
        let mut rt = Runtime::new();
        assert_eq!(rt.run(Io::choose(4)).unwrap(), 0);
    }
}
