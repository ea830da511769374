//! Shared suspended computations — the §8 thunk treatment.
//!
//! §8 of the paper discusses what an implementation must do with
//! "computations in progress" (thunks) when an exception strikes the
//! thread evaluating them:
//!
//! * **Synchronous** exception: re-evaluating the thunk would raise the
//!   same exception again, so it is safe to overwrite the thunk with a
//!   closure that immediately re-raises it.
//! * **Asynchronous** exception: nothing can be concluded about the
//!   thunk, so it must be *reverted* to its initial state (or frozen as
//!   a resumable black hole — "the difference between the two techniques
//!   is operational only, the effect is not observable").
//!
//! [`Thunk`] reproduces this at the library level: a computation shared
//! between threads, evaluated at most once, with exactly the paper's
//! failure policy (sticky synchronous failures, reverted asynchronous
//! interruptions) — distinguished via
//! [`RaiseOrigin`](conch_runtime::RaiseOrigin). While one thread
//! evaluates, the state `MVar` is empty, so concurrent forcers block on
//! it — the classic black-hole behaviour, and (being a `takeMVar`) an
//! interruptible operation per §5.3.

use std::rc::Rc;

use conch_runtime::host_value;
use conch_runtime::io::Io;
use conch_runtime::mvar::MVar;
use conch_runtime::value::{FromValue, IntoValue, Value};
use conch_runtime::RaiseOrigin;

use crate::locking::modify_mvar_pure;

/// The stored state of a thunk cell.
#[derive(Debug, Clone, PartialEq)]
enum ThunkState {
    /// Never successfully evaluated.
    Unevaluated,
    /// Evaluated to this value.
    Evaluated(Value),
    /// Failed synchronously: re-raise the same exception on every force.
    FailedSync(conch_runtime::Exception),
}

host_value!(ThunkState);

/// A computation shared between threads and evaluated at most once.
///
/// # Examples
///
/// ```
/// use conch_runtime::prelude::*;
/// use conch_combinators::Thunk;
///
/// let mut rt = Runtime::new();
/// let prog = Io::new_mvar(0_i64).and_then(|evals| {
///     let body = move || {
///         conch_combinators::modify_mvar(evals, |n| Io::pure(n + 1))
///             .then(Io::pure(21_i64))
///     };
///     Thunk::suspend(body, move |t| {
///         // Forced twice, evaluated once.
///         t.force().and_then(move |a| t.force().map(move |b| a + b))
///             .and_then(move |sum| evals.take().map(move |e| (sum, e)))
///     })
/// });
/// assert_eq!(rt.run(prog).unwrap(), (42, 1));
/// ```
pub struct Thunk<T> {
    state: MVar<ThunkState>,
    body: Rc<dyn Fn() -> Io<T>>,
}

impl<T> Clone for Thunk<T> {
    fn clone(&self) -> Self {
        Thunk {
            state: self.state,
            body: Rc::clone(&self.body),
        }
    }
}

impl<T> std::fmt::Debug for Thunk<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Thunk({:?})", self.state)
    }
}

impl<T: FromValue + IntoValue + 'static> Thunk<T> {
    /// Suspends `body` as a shareable thunk, handing the handle to the
    /// continuation `k` (continuation style because a [`Thunk`] carries
    /// native code and so cannot itself travel through the `Value`
    /// world).
    ///
    /// The body is a factory because an interrupted evaluation may have
    /// to run it again (the §8 *revert* policy).
    pub fn suspend<R, K>(body: impl Fn() -> Io<T> + 'static, k: K) -> Io<R>
    where
        R: 'static,
        K: FnOnce(Thunk<T>) -> Io<R> + 'static,
    {
        let body: Rc<dyn Fn() -> Io<T>> = Rc::new(body);
        Io::new_mvar(ThunkState::Unevaluated).and_then(move |state| k(Thunk { state, body }))
    }

    /// Demands the thunk's value.
    ///
    /// * First successful force evaluates the body; later forces return
    ///   the cached value.
    /// * If the body raises **synchronously**, the failure is recorded
    ///   and every subsequent force re-raises the same exception
    ///   without re-evaluating (§8's overwrite-with-raise).
    /// * If the forcing thread is interrupted **asynchronously**, the
    ///   thunk reverts to unevaluated and the exception propagates; a
    ///   later force re-evaluates from scratch.
    /// * While one thread evaluates, other forcers block (interruptibly)
    ///   on the state cell — the black hole of §8.
    pub fn force(&self) -> Io<T> {
        let state = self.state;
        let body = Rc::clone(&self.body);
        // block: the bookkeeping around the user body must not itself be
        // torn by an asynchronous exception (same shape as §5.2 locking).
        Io::block(state.take().and_then(move |st| {
            match st {
                ThunkState::Evaluated(v) => state
                    .put(ThunkState::Evaluated(v.clone()))
                    .then(Io::pure(T::from_value_or_panic(v))),
                ThunkState::FailedSync(e) => state
                    .put(ThunkState::FailedSync(e.clone()))
                    .then(Io::throw(e)),
                ThunkState::Unevaluated => Io::unblock(body())
                    .catch_info(move |e, origin| {
                        let restored = match origin {
                            // §8: synchronous failures are deterministic —
                            // make the failure sticky.
                            RaiseOrigin::Sync => ThunkState::FailedSync(e.clone()),
                            // §8: asynchronous interruptions say nothing
                            // about the thunk — revert it.
                            RaiseOrigin::Async => ThunkState::Unevaluated,
                        };
                        // The state cell is empty here, so this put is
                        // non-interruptible (§5.3).
                        state.put(restored).then(Io::rethrow(e, origin))
                    })
                    .and_then(move |t: T| {
                        let v = t.into_value();
                        let give_back = v.clone();
                        state
                            .put(ThunkState::Evaluated(v))
                            .then(Io::pure(T::from_value_or_panic(give_back)))
                    }),
            }
        }))
    }

    /// Non-blocking peek: `Some(value)` if already evaluated.
    pub fn peek(&self) -> Io<Option<T>> {
        modify_mvar_pure(self.state, |st| match st {
            ThunkState::Evaluated(v) => Some(T::from_value_or_panic(v.clone())),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modify_mvar;
    use conch_runtime::prelude::*;

    fn counting_thunk(evals: MVar<i64>, result: i64) -> impl Fn() -> Io<i64> + 'static {
        move || modify_mvar(evals, |n| Io::pure(n + 1)).then(Io::pure(result))
    }

    #[test]
    fn evaluates_once() {
        let mut rt = Runtime::new();
        let prog = Io::new_mvar(0_i64).and_then(|evals| {
            Thunk::suspend(counting_thunk(evals, 5), move |t| {
                let (t2, t3) = (t.clone(), t.clone());
                t.force()
                    .then(t2.force())
                    .then(t3.force())
                    .and_then(move |v| evals.take().map(move |e| (v, e)))
            })
        });
        assert_eq!(rt.run(prog).unwrap(), (5, 1));
    }

    #[test]
    fn peek_before_and_after() {
        let mut rt = Runtime::new();
        let prog = Io::new_mvar(0_i64).and_then(|evals| {
            Thunk::suspend(counting_thunk(evals, 9), move |t| {
                let (t2, t3) = (t.clone(), t.clone());
                t.peek().and_then(move |before| {
                    t2.force().then(t3.peek()).map(move |after| (before, after))
                })
            })
        });
        assert_eq!(rt.run(prog).unwrap(), (None, Some(9)));
    }

    #[test]
    fn sync_failure_is_sticky() {
        let mut rt = Runtime::new();
        let prog = Io::new_mvar(0_i64).and_then(|evals| {
            let body = move || {
                modify_mvar(evals, |n| Io::pure(n + 1))
                    .then(Io::<i64>::throw(Exception::error_call("bad thunk")))
            };
            Thunk::suspend(body, move |t| {
                let t2 = t.clone();
                t.force()
                    .catch(|_| Io::pure(-1))
                    .then(t2.force().catch(|e| {
                        assert_eq!(e, Exception::error_call("bad thunk"));
                        Io::pure(-2)
                    }))
                    .and_then(move |r| evals.take().map(move |e| (r, e)))
            })
        });
        // Second force re-raised WITHOUT re-evaluating: evals == 1.
        assert_eq!(rt.run(prog).unwrap(), (-2, 1));
    }

    #[test]
    fn async_interruption_reverts() {
        let mut rt = Runtime::new();
        // A forcer is killed mid-evaluation; afterwards a fresh force
        // re-evaluates and succeeds.
        let prog = Io::new_mvar(0_i64).and_then(|evals| {
            let body = move || {
                modify_mvar(evals, |n| Io::pure(n + 1))
                    .then(Io::compute(5_000))
                    .then(Io::pure(7_i64))
            };
            Thunk::suspend(body, move |t| {
                let t2 = t.clone();
                let forcer = t.force().map(|_| ()).catch(|_| Io::unit());
                Io::<ThreadId>::block(Io::fork(forcer)).and_then(move |f| {
                    Io::sleep(0)
                        .then(Io::throw_to(f, Exception::kill_thread()))
                        .then(Io::sleep(1_000))
                        .then(t2.force())
                        .and_then(move |v| evals.take().map(move |e| (v, e)))
                })
            })
        });
        let (v, evals) = rt.run(prog).unwrap();
        assert_eq!(v, 7);
        // Evaluated twice iff the kill landed mid-evaluation; once if the
        // kill landed before the body's first step. Either way the value
        // is correct and the thunk was never poisoned.
        assert!(evals == 1 || evals == 2, "evals = {evals}");
    }

    #[test]
    fn concurrent_forcers_black_hole() {
        let mut rt = Runtime::new();
        // Two threads force concurrently; the body is slow; both get the
        // value, and it is evaluated exactly once.
        let prog = Io::new_mvar(0_i64).and_then(|evals| {
            let body = move || {
                modify_mvar(evals, |n| Io::pure(n + 1))
                    .then(Io::compute(2_000))
                    .then(Io::pure(3_i64))
            };
            Thunk::suspend(body, move |t| {
                let t2 = t.clone();
                Io::new_empty_mvar::<i64>().and_then(move |out| {
                    Io::fork(t.force().and_then(move |v| out.put(v)))
                        .then(Io::fork(t2.force().and_then(move |v| out.put(v))))
                        .then(out.take())
                        .and_then(move |a| out.take().map(move |b| (a, b)))
                        .and_then(move |pair| evals.take().map(move |e| (pair, e)))
                })
            })
        });
        let ((a, b), evals) = rt.run(prog).unwrap();
        assert_eq!((a, b), (3, 3));
        assert_eq!(evals, 1, "black hole must prevent double evaluation");
    }

    #[test]
    fn blocked_forcer_is_interruptible() {
        let mut rt = Runtime::new();
        // Forcer B blocks on the black hole while A evaluates; B is
        // killed while blocked (the §5.3 guarantee), A still finishes.
        let prog = Io::new_mvar(0_i64).and_then(|evals| {
            let body = move || {
                modify_mvar(evals, |n| Io::pure(n + 1))
                    .then(Io::compute(5_000))
                    .then(Io::pure(4_i64))
            };
            Thunk::suspend(body, move |t| {
                let tb = t.clone();
                Io::new_empty_mvar::<String>().and_then(move |out| {
                    let b_thread = tb
                        .force()
                        .map(|v| format!("B got {v}"))
                        .catch(|e| Io::pure(format!("B interrupted by {e}")))
                        .and_then(move |s| out.put(s));
                    Io::fork(t.force().map(|_| ())).and_then(move |_a| {
                        Io::<ThreadId>::block(Io::fork(b_thread)).and_then(move |b| {
                            Io::sleep(0)
                                .then(Io::throw_to(b, Exception::kill_thread()))
                                .then(out.take())
                        })
                    })
                })
            })
        });
        let msg = rt.run(prog).unwrap();
        assert!(
            msg == "B interrupted by KillThread" || msg == "B got 4",
            "unexpected: {msg}"
        );
    }
}
