//! Safe locking with `MVar`s (§5.1–§5.3).
//!
//! An `MVar` holding the current state is Concurrent Haskell's standard
//! lock. The paper's §5.1 develops the exception-safe update pattern in
//! three stages:
//!
//! 1. [`modify_mvar_naive`] — safe against *synchronous* exceptions only.
//!    There is a race window between `takeMVar` and `catch` during which
//!    an asynchronous exception loses the lock forever. Provided here so
//!    tests and benches can demonstrate the race the paper describes.
//! 2. [`modify_mvar`] — the fixed version with scoped `block`/`unblock`
//!    (§5.2) and the interruptible `takeMVar` (§5.3): no window remains,
//!    and the thread does not wait for the lock in an uninterruptible
//!    state.
//! 3. [`modify_mvar_masked`] — the §7.4 variant for directly-mutable
//!    structures, which omits `unblock` around the user function entirely
//!    (use [`crate::safe_point`] inside long computations).
//! 4. [`modify_mvar_pure`] — §7.4 with a *pure* state function: the one
//!    transaction every single-cell structure in the stack (mailbox,
//!    server counters, worker registry, actor control cell, supervisor's
//!    child list, semaphore count) is built from.
//!
//! [`retry_interrupted`] is the other shape those structures share: a
//! commit that must happen is attempted again whenever an asynchronous
//! exception interrupts it. [`await_signal`] is how a caller of
//! [`modify_mvar_then`] waits before it tries again.

use conch_runtime::io::Io;
use conch_runtime::mvar::MVar;
use conch_runtime::value::{FromValue, HostValue, IntoValue, Value};

use crate::alerts::catch_alert;

/// The paper's *broken* locking pattern (§5.1):
///
/// ```haskell
/// do a <- takeMVar m
///    b <- catch (compute a) (\e -> do putMVar m a; throw e)
///    putMVar m b
/// ```
///
/// Correct for synchronous exceptions; **unsafe** for asynchronous ones —
/// an exception arriving between `takeMVar` and `catch` (or between
/// `catch` and the final `putMVar`) leaves the `MVar` empty and deadlocks
/// later users. Kept as the baseline that motivates `block`/`unblock`.
pub fn modify_mvar_naive<T, F>(m: MVar<T>, compute: F) -> Io<()>
where
    T: FromValue + IntoValue + Clone + 'static,
    F: FnOnce(T) -> Io<T> + 'static,
{
    m.take().and_then(move |a| {
        let saved = a.clone();
        compute(a)
            .catch(move |e| m.put(saved).then(Io::throw(e)))
            .and_then(move |b| m.put(b))
    })
}

/// The paper's *safe* locking pattern (§5.2–§5.3):
///
/// ```haskell
/// block (do a <- takeMVar m
///           b <- catch (unblock (compute a))
///                      (\e -> do putMVar m a; throw e)
///           putMVar m b)
/// ```
///
/// The `takeMVar` is interruptible right up until it acquires the value
/// (so the thread never waits uninterruptibly while holding nothing), and
/// once acquired there is no window in which an asynchronous exception can
/// lose the lock: the handler's `putMVar` runs masked and — the `MVar`
/// being known empty — is itself non-interruptible.
pub fn modify_mvar<T, F>(m: MVar<T>, compute: F) -> Io<()>
where
    T: FromValue + IntoValue + Clone + 'static,
    F: FnOnce(T) -> Io<T> + 'static,
{
    Io::block(m.take().and_then(move |a| {
        let saved = a.clone();
        Io::unblock(compute(a))
            .catch(move |e| m.put(saved).then(Io::throw(e)))
            .and_then(move |b| m.put(b))
    }))
}

/// Safe locking that also returns a result alongside the new state.
///
/// The state function returns `(new_state, result)`; the `MVar` is
/// restored to its old value if the function raises.
pub fn modify_mvar_with<T, R, F>(m: MVar<T>, compute: F) -> Io<R>
where
    T: FromValue + IntoValue + Clone + 'static,
    R: FromValue + IntoValue + 'static,
    F: FnOnce(T) -> Io<(T, R)> + 'static,
{
    Io::block(m.take().and_then(move |a| {
        let saved = a.clone();
        Io::unblock(compute(a))
            .catch(move |e| m.put(saved).then(Io::throw(e)))
            .and_then(move |(b, r)| m.put(b).then(Io::pure(r)))
    }))
}

/// Runs `body` with the `MVar`'s value, restoring the *same* value after,
/// whether `body` succeeds or raises (`withMVar`).
pub fn with_mvar<T, R, F>(m: MVar<T>, body: F) -> Io<R>
where
    T: FromValue + IntoValue + Clone + 'static,
    R: FromValue + IntoValue + 'static,
    F: FnOnce(T) -> Io<R> + 'static,
{
    Io::block(m.take().and_then(move |a| {
        let restore_err = a.clone();
        let restore_ok = a.clone();
        Io::unblock(body(a))
            .catch(move |e| m.put(restore_err).then(Io::throw(e)))
            .and_then(move |r| m.put(restore_ok).then(Io::pure(r)))
    }))
}

/// The §7.4 variant for shared *mutable* structures: the update runs
/// entirely masked (no `unblock`), so the structure can never be observed
/// mid-mutation. Long computations should call [`crate::safe_point`]
/// at consistent states.
pub fn modify_mvar_masked<T, F>(m: MVar<T>, compute: F) -> Io<()>
where
    T: FromValue + IntoValue + Clone + 'static,
    F: FnOnce(T) -> Io<T> + 'static,
{
    Io::block(m.take().and_then(move |a| {
        let saved = a.clone();
        compute(a)
            .catch(move |e| m.put(saved).then(Io::throw(e)))
            .and_then(move |b| m.put(b))
    }))
}

/// §7.4 with a pure body — one masked transaction over one cell:
///
/// ```haskell
/// block (do s <- takeMVar m
///           let r = f (&mut s)
///           putMVar m s
///           return r)
/// ```
///
/// Nothing in it needs undoing, so there is no `unblock`, no rollback
/// copy of the state and no handler. By §5.3 a masked thread receives an
/// asynchronous exception only at an operation that is *waiting*: the
/// `takeMVar` waits while another thread holds the cell, and a kill
/// landing there finds nothing taken; the `putMVar` refills the cell this
/// thread just emptied, so it cannot wait and is not a delivery point.
/// The transaction therefore happens entirely or not at all — which is
/// all a caller's conservation argument needs. `f` mutates the state
/// where it sits in its `Value::Host` box: no transaction unboxes and
/// re-boxes it, whatever its size.
///
/// # Panics
///
/// The transaction panics if the cell holds anything but a host `T` — a
/// handle reached through [`MVar::cast`] to the wrong type.
pub fn modify_mvar_pure<T, R, F>(m: MVar<T>, f: F) -> Io<R>
where
    T: HostValue + FromValue + IntoValue,
    R: IntoValue + 'static,
    F: FnOnce(&mut T) -> R + 'static,
{
    modify_mvar_then(m, f, Io::pure)
}

/// [`modify_mvar_pure`] that goes on, still masked, with `k` applied to
/// what `f` returned:
///
/// ```haskell
/// block (do s <- takeMVar m
///           let r = f (&mut s)
///           putMVar m s
///           k r)
/// ```
///
/// No asynchronous exception can separate `k` from the commit — the
/// shape for a commit that must wake a waiter (a signal `MVar` filled
/// with a `try_put`, which cannot wait), or for a caller that must wait
/// before it tries again (a blocking `take` is interruptible, and then
/// the commit is whole). [`modify_mvar_pure`] is the case `k = return`.
///
/// # Panics
///
/// As [`modify_mvar_pure`].
pub fn modify_mvar_then<T, R, U, F, K>(m: MVar<T>, f: F, k: K) -> Io<U>
where
    T: HostValue + FromValue + IntoValue,
    R: 'static,
    U: 'static,
    F: FnOnce(&mut T) -> R + 'static,
    K: FnOnce(R) -> Io<U> + 'static,
{
    let cell: MVar<Value> = m.cast();
    Io::block(cell.take().and_then(move |mut s| {
        let r = match s.host_mut() {
            Some(state) => f(state),
            None => cell_confusion(std::any::type_name::<T>(), &s),
        };
        cell.put(s).and_then(move |_| k(r))
    }))
}

/// Takes the token from `signal` — blocking until a commit fills it —
/// then runs `retry`. An exception that lands in `retry` before its
/// commit puts the token back for the next waiter and is re-raised as it
/// came; one that lands while this caller still waits took nothing.
///
/// A token says only that something *may* have changed: whoever fills
/// `signal` does so with a `try_put`, so tokens that land before a
/// waiter takes them collapse into one, and a spare one costs its taker
/// one more try of `retry`.
pub fn await_signal<T, F>(signal: MVar<()>, retry: F) -> Io<T>
where
    T: 'static,
    F: FnOnce() -> Io<T> + 'static,
{
    signal.take().and_then(move |_| {
        retry().catch_info(move |e, origin| signal.try_put(()).then(Io::rethrow(e, origin)))
    })
}

/// The panic of a transaction on a cell that holds no `expected`: cold,
/// so what the cell does hold is named only here.
#[cold]
#[inline(never)]
fn cell_confusion(expected: &'static str, contents: &Value) -> ! {
    let actual = match contents {
        Value::Host(h) => (**h).type_name(),
        other => other.shape(),
    };
    panic!("type confusion in a cell transaction: expected {expected}, got a {actual} value")
}

/// Runs `attempt()` until one run of it is not interrupted: an
/// asynchronous exception landing in an attempt is absorbed and the
/// attempt made again, a synchronous one propagates at once (running the
/// same code again would only raise it again).
///
/// The caller owes one precondition: an attempt can be interrupted only
/// *before* its commit — it is a masked section whose waits all come
/// first, like [`modify_mvar_pure`]'s `take` — so a retry never commits
/// twice. Each further exception costs one retry, so any finite storm
/// lets the attempt complete; what was absorbed is gone, and a caller
/// that must still die re-throws the first exception itself. This is for
/// a cleanup that has to happen; [`bracket`](crate::bracket()) and
/// [`finally`](crate::finally()) stay the paper's §7.1 transcriptions and
/// run theirs once.
pub fn retry_interrupted<R, F>(attempt: F) -> Io<R>
where
    R: 'static,
    F: Fn() -> Io<R> + 'static,
{
    catch_alert(attempt(), move |_| retry_interrupted(attempt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use conch_explore::{ExploreConfig, Explorer, RunOutcome, TestCase};
    use conch_runtime::io::for_each;
    use conch_runtime::prelude::*;
    use conch_runtime::RaiseOrigin;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn modify_mvar_updates_state() {
        let mut rt = Runtime::new();
        let prog =
            Io::new_mvar(10_i64).and_then(|m| modify_mvar(m, |n| Io::pure(n + 5)).then(m.take()));
        assert_eq!(rt.run(prog).unwrap(), 15);
    }

    #[test]
    fn modify_mvar_restores_on_sync_exception() {
        let mut rt = Runtime::new();
        let prog = Io::new_mvar(10_i64).and_then(|m| {
            modify_mvar(m, |_| {
                Io::<i64>::throw(Exception::error_call("compute failed"))
            })
            .catch(|_| Io::unit())
            .then(m.take())
        });
        // Old state restored; a later take succeeds instead of deadlocking.
        assert_eq!(rt.run(prog).unwrap(), 10);
    }

    #[test]
    fn modify_mvar_with_returns_result() {
        let mut rt = Runtime::new();
        let prog = Io::new_mvar(3_i64).and_then(|m| {
            modify_mvar_with(m, |n| Io::pure((n * 2, n)))
                .and_then(move |old| m.take().map(move |new| (old, new)))
        });
        assert_eq!(rt.run(prog).unwrap(), (3, 6));
    }

    #[test]
    fn with_mvar_restores_same_value() {
        let mut rt = Runtime::new();
        let prog = Io::new_mvar(9_i64).and_then(|m| {
            with_mvar(m, |n| Io::pure(n * 100))
                .and_then(move |r| m.take().map(move |still| (r, still)))
        });
        assert_eq!(rt.run(prog).unwrap(), (900, 9));
    }

    #[test]
    fn with_mvar_restores_on_exception() {
        let mut rt = Runtime::new();
        let prog = Io::new_mvar(9_i64).and_then(|m| {
            with_mvar(m, |_: i64| {
                Io::<i64>::throw(Exception::error_call("user code"))
            })
            .catch(|_| Io::pure(-1))
            .then(m.take())
        });
        assert_eq!(rt.run(prog).unwrap(), 9);
    }

    #[test]
    fn naive_version_loses_lock_under_async_exception() {
        // Reproduce the §5.1 race deterministically: the async exception
        // lands inside `compute`, *outside* naive's catch-installed window?
        // No — inside compute naive IS protected by catch. The hole is
        // between takeMVar and catch. We hit it by having the exception
        // pending (masked parent fork keeps ordering deterministic) and a
        // compute window that lets delivery happen after take but before
        // catch is installed.
        let mut rt = Runtime::new();
        let prog = Io::new_mvar(1_i64).and_then(|m| {
            let worker = modify_mvar_naive(m, |n| Io::compute(1_000).then(Io::pure(n + 1)))
                .catch(|_| Io::unit());
            Io::fork(worker).and_then(move |w| {
                // Let the worker pass takeMVar, then kill it mid-compute?
                // mid-compute is protected; instead kill immediately after
                // take. With quantum 11 the worker's take happens within
                // its first quantum; the kill is queued while the worker
                // is between take and catch only if we time it there. We
                // conservatively assert the *observable* failure: the MVar
                // can end up empty, deadlocking the next take.
                Io::sleep(1)
                    .then(Io::throw_to(w, Exception::kill_thread()))
                    .then(Io::sleep(1))
                    .then(m.try_take())
            })
        });
        // We do not assert which interleaving occurred — only that the safe
        // version below never exhibits the empty-MVar outcome, while the
        // naive version *can*. This test documents the naive behaviour for
        // the default schedule: whatever happened, the program ends (no
        // deadlock of the main thread).
        let result = rt.run(prog).unwrap();
        // Either the worker finished/restored (Some) or the lock was lost
        // (None). Both are possible for the naive version depending on the
        // schedule; the integration tests sweep schedules to show the race.
        let _ = result;
    }

    #[test]
    fn safe_version_never_loses_lock_across_schedules() {
        // Every schedule and every delivery point: with modify_mvar the
        // MVar is always full again after the dust settles.
        let explorer = Explorer::with_config(ExploreConfig {
            max_depth: 256,
            ..ExploreConfig::default()
        });
        let result = explorer.check(|| {
            let prog = Io::new_mvar(1_i64).and_then(|m| {
                let worker = modify_mvar(m, |n| Io::compute(100).then(Io::pure(n + 1)))
                    .catch(|_| Io::unit());
                Io::fork(worker).and_then(move |w| {
                    Io::throw_to(w, Exception::kill_thread())
                        .then(Io::sleep(10_000))
                        .then(m.try_take())
                })
            });
            TestCase::new(prog, |out: &RunOutcome<Option<i64>>| match out.result {
                Ok(Some(_)) => Ok(()),
                ref other => Err(format!(
                    "lock lost despite block/unblock protection: {other:?}"
                )),
            })
        });
        let report = result.expect_pass();
        assert!(report.complete, "{report}");
    }

    #[test]
    fn masked_modify_ignores_exception_until_done() {
        let mut rt = Runtime::new();
        let prog = Io::new_mvar(0_i64).and_then(|m| {
            let worker = modify_mvar_masked(m, |n| Io::compute(500).then(Io::pure(n + 1)))
                .catch(|_| Io::unit());
            Io::<ThreadId>::block(Io::fork(worker)).and_then(move |w| {
                Io::throw_to(w, Exception::kill_thread())
                    .then(Io::sleep(10))
                    .then(m.try_take())
            })
        });
        // The masked update always completes: the state is the *new* value.
        assert_eq!(rt.run(prog).unwrap(), Some(1));
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Tally(i64);
    #[derive(Debug, Clone, PartialEq)]
    struct Gauge(i64);
    conch_runtime::host_value!(Tally, Gauge);

    #[test]
    fn pure_transaction_mutates_in_place_and_returns_the_result() {
        let mut rt = Runtime::new();
        let prog = Io::new_mvar(Tally(3)).and_then(|m| {
            modify_mvar_pure(m, |t| {
                t.0 += 4;
                t.0 * 10
            })
            .and_then(move |r| m.take().map(move |t| (r, t.0)))
        });
        assert_eq!(rt.run(prog).unwrap(), (70, 7));
    }

    #[test]
    #[should_panic(expected = "expected conch_combinators::locking::tests::Tally, \
                    got a conch_combinators::locking::tests::Gauge value")]
    fn a_cell_cast_to_the_wrong_host_type_panics_naming_both_types() {
        let prog =
            Io::new_mvar(Gauge(1)).and_then(|m| modify_mvar_pure(m.cast::<Tally>(), |t| t.0));
        let _ = Runtime::new().run(prog);
    }

    #[test]
    #[should_panic(expected = "type confusion in a cell transaction: \
                    expected conch_combinators::locking::tests::Tally, got a int value")]
    fn a_primitive_cell_cast_to_a_host_type_panics_naming_its_shape() {
        let prog = Io::new_mvar(5_i64).and_then(|m| modify_mvar_pure(m.cast::<Tally>(), |t| t.0));
        let _ = Runtime::new().run(prog);
    }

    /// Main holds the cell, so the masked victim's transaction waits at
    /// its `take`; each synchronous kill returns once it has interrupted
    /// that wait. Passes if `kills + 1` attempts made one commit.
    fn interrupted(kills: u64) -> TestCase<i64> {
        let attempts = Rc::new(Cell::new(0));
        let count = Rc::clone(&attempts);
        let prog = Io::new_mvar(Tally(0)).and_then(move |cell| {
            Io::new_empty_mvar::<i64>().and_then(move |done| {
                let commit = retry_interrupted(move || {
                    count.set(count.get() + 1);
                    modify_mvar_pure(cell, |t| t.0 += 1)
                });
                cell.take().and_then(move |held| {
                    Io::block(Io::fork(commit.then(done.put(1)))).and_then(move |victim| {
                        for_each(kills, move |_| {
                            Io::throw_to_sync(victim, Exception::kill_thread())
                        })
                        .then(cell.put(held))
                        .then(done.take())
                        .then(cell.take())
                        .map(|t| t.0)
                    })
                })
            })
        });
        TestCase::new(prog, move |out: &RunOutcome<i64>| {
            match (attempts.get(), &out.result) {
                (n, Ok(1)) if n == kills as usize + 1 => Ok(()),
                other => Err(format!("(attempts, commits) = {other:?}")),
            }
        })
    }

    #[test]
    fn an_attempt_interrupted_n_times_commits_exactly_once() {
        for (kills, schedules) in [(1, 80), (2, 480), (3, 2_880)] {
            let result = Explorer::new().check(|| interrupted(kills));
            let report = result.expect_pass();
            assert_eq!(
                (report.explored, report.complete),
                (schedules, true),
                "{kills} kills: {report}"
            );
        }
    }

    #[test]
    fn a_synchronous_exception_is_not_retried() {
        let attempts = Rc::new(Cell::new(0));
        let count = Rc::clone(&attempts);
        let failing = retry_interrupted(move || {
            count.set(count.get() + 1);
            Io::<bool>::throw(Exception::error_call("bang"))
        });
        let prog = failing.catch_info(|e, origin| {
            Io::pure(e == Exception::error_call("bang") && origin == RaiseOrigin::Sync)
        });
        assert!(Runtime::new().run(prog).unwrap());
        assert_eq!(attempts.get(), 1);
    }
}
