//! Experiment B2's functional half: the §9 design alternative —
//! synchronous `throwTo` — behaves as the paper describes.
//!
//! §9's claims, each tested below:
//!
//! 1. the synchronous version "provides a guarantee that the target
//!    thread has received the exception" before the caller resumes;
//! 2. it is an *interruptible* operation (it can block indefinitely);
//! 3. "the asynchronous version can easily be implemented in terms of
//!    the synchronous one simply by forking a new thread to perform the
//!    throwTo";
//! 4. a thread throwing synchronously to itself raises immediately (the
//!    special case the semantics would need);
//! 5. throwing to a finished thread trivially succeeds in both designs.

use conch_explore::{props, Explorer, RunOutcome, TestCase};
use conch_runtime::prelude::*;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Claim 1: after `throw_to_sync` returns, the target has the exception.
///
/// The victim stays receptive until the exception arrives: a short
/// unmasked computation, then a wait on a cell nobody fills. On some
/// schedules the exception lands mid-computation (Receive), on others
/// it interrupts the wait (Interrupt); on none can the victim finish
/// without it.
#[test]
fn sync_throwto_guarantees_receipt() {
    let result = Explorer::new().check(|| {
        let received = Rc::new(Cell::new(false));
        let r2 = Rc::clone(&received);
        let prog = Io::new_empty_mvar::<i64>().and_then(move |done| {
            Io::new_empty_mvar::<i64>().and_then(move |never| {
                let r3 = Rc::clone(&r2);
                let victim = Io::<i64>::unblock(Io::compute(5).then(never.take()))
                    .catch(move |_| Io::effect(move || r3.set(true)).map(|_| 0))
                    .then(done.put(1));
                Io::<ThreadId>::block(Io::fork(victim)).and_then(move |v| {
                    let r4 = Rc::clone(&r2);
                    Io::throw_to_sync(v, Exception::kill_thread())
                        // At this exact moment the exception must have
                        // been received (the handler may still be running,
                        // but the *delivery* — the raise — has happened).
                        .then(Io::effect(move || r4.get()))
                        .and_then(move |seen| done.take().map(move |_| seen))
                })
            })
        });
        TestCase::new(prog, move |out: &RunOutcome<bool>| {
            // Delivery means the raise replaced the victim's
            // continuation; the handler effect itself may run a step
            // later. What is guaranteed observable: at least one
            // delivery happened before throw_to_sync returned.
            match (&out.result, out.stats().total_deliveries(), received.get()) {
                (Ok(_), 1.., true) => Ok(()),
                other => Err(format!("exception never handled: {other:?}")),
            }
        })
    });
    let report = result.expect_pass();
    assert!(report.complete, "{report}");
}

/// Claims 1 and 2 together: the caller *waits* on an unreceptive target
/// (one that is masked and never blocks), and while waiting it is itself
/// interruptible — a third thread can kill the stuck thrower.
///
/// Note on the victim: a masked thread that never unmasks and never
/// blocks keeps the run queue busy forever, so the test cannot use
/// virtual-time sleeps to sequence events — the killer paces itself with
/// `compute` instead (scheduler steps always advance).
#[test]
fn sync_throwto_blocks_and_is_interruptible() {
    let mut rt = Runtime::new();
    let prog = Io::new_empty_mvar::<String>().and_then(|out| {
        // Victim: masked, runnable, unreceptive. (A masked *stuck* thread
        // would still be interruptible per §5.3, so spinning is the only
        // truly unreceptive state.)
        let victim = Io::<()>::block(Io::compute(u64::MAX));
        Io::fork(victim).and_then(move |v| {
            let thrower = Io::throw_to_sync(v, Exception::custom("A"))
                .map(|_| "delivered".to_owned())
                .catch(|e| Io::pure(format!("thrower killed by {e}")))
                .and_then(move |s| out.put(s));
            Io::fork(thrower).and_then(move |t| {
                // Pace by steps, not virtual time: the spinner never lets
                // the clock advance.
                Io::compute(500)
                    .then(Io::throw_to(t, Exception::kill_thread()))
                    .then(out.take())
            })
        })
    });
    // The thrower never completed its sync throw (the victim is
    // unreceptive) — it died *waiting*, which proves it was blocked, and
    // the kill proves the wait is interruptible.
    assert_eq!(rt.run(prog).unwrap(), "thrower killed by KillThread");
}

/// Claim 3: async throwTo = fork (sync throwTo). The derived version
/// passes the same observable test as the primitive one.
#[test]
fn async_derivable_from_sync() {
    fn async_via_fork(t: ThreadId, e: Exception) -> Io<()> {
        Io::fork(Io::throw_to_sync(t, e)).map(|_| ())
    }
    let result = Explorer::new().check(|| {
        let prog = Io::new_empty_mvar::<String>().and_then(|out| {
            let victim = Io::new_empty_mvar::<i64>()
                .and_then(|hole| hole.take())
                .map(|_| String::new())
                .catch(|e| Io::pure(format!("got {e}")))
                .and_then(move |s| out.put(s));
            Io::fork(victim).and_then(move |v| {
                Io::sleep(10)
                    .then(async_via_fork(v, Exception::custom("Derived")))
                    .then(out.take())
            })
        });
        TestCase::new(prog, props::returns("got Derived".to_owned()))
    });
    let report = result.expect_pass();
    assert!(report.complete, "{report}");
}

/// Claim 4: self-throw raises immediately.
#[test]
fn sync_self_throw_raises_immediately() {
    let mut rt = Runtime::new();
    let prog = Io::my_thread_id()
        .and_then(|me| {
            Io::throw_to_sync(me, Exception::custom("SelfSync"))
                .then(Io::pure("survived".to_owned()))
        })
        .catch(|e| {
            Io::pure(if e == Exception::custom("SelfSync") {
                "raised".to_owned()
            } else {
                "other".to_owned()
            })
        });
    assert_eq!(rt.run(prog).unwrap(), "raised");
}

/// Claim 4 contrast: the *asynchronous* self-throw queues and only fires
/// at the next delivery point, so masked code continues first.
#[test]
fn async_self_throw_is_deferred() {
    let mut rt = Runtime::new();
    let log = Rc::new(RefCell::new(Vec::<&'static str>::new()));
    let (l1, l2) = (Rc::clone(&log), Rc::clone(&log));
    let prog = Io::<()>::block(Io::my_thread_id().and_then(move |me| {
        Io::throw_to(me, Exception::custom("SelfAsync"))
            .then(Io::effect(move || l1.borrow_mut().push("after-throw")))
            .then(Io::<()>::unblock(Io::unit()))
            .then(Io::effect(|| ()))
    }))
    .catch(move |_| Io::effect(move || l2.borrow_mut().push("handler")));
    rt.run(prog).unwrap();
    assert_eq!(*log.borrow(), ["after-throw", "handler"]);
}

/// Claim 5: both designs trivially succeed against dead threads.
#[test]
fn both_designs_succeed_on_dead_targets() {
    let mut rt = Runtime::new();
    let prog = Io::fork(Io::unit()).and_then(|t| {
        Io::sleep(10)
            .then(Io::throw_to(t, Exception::kill_thread()))
            .then(Io::throw_to_sync(t, Exception::kill_thread()))
            .then(Io::pure(1_i64))
    });
    assert_eq!(rt.run(prog).unwrap(), 1);
}

/// Multiple sync throwers queue up against one target and all eventually
/// return as the target drains its pending exceptions handler by handler.
#[test]
fn multiple_sync_throwers_all_complete() {
    let mut rt = Runtime::new();
    let prog = Io::new_mvar(0_i64).and_then(|completions| {
        // Victim: loops forever in unmasked compute, catching each
        // exception and continuing.
        fn resilient(n: u64) -> Io<()> {
            if n == 0 {
                Io::unit()
            } else {
                Io::<()>::unblock(Io::compute(10_000)).catch(move |_| resilient(n - 1))
            }
        }
        Io::<ThreadId>::block(Io::fork(resilient(5))).and_then(move |v| {
            let thrower = move || {
                Io::throw_to_sync(v, Exception::custom("S"))
                    .then(conch_combinators::modify_mvar(completions, |n| {
                        Io::pure(n + 1)
                    }))
            };
            Io::fork(thrower())
                .then(Io::fork(thrower()))
                .then(Io::fork(thrower()))
                .then(Io::sleep(1_000_000))
                .then(completions.take())
        })
    });
    assert_eq!(rt.run(prog).unwrap(), 3);
}

/// The program behind the two stale-notifier tests. `A` starts a sync
/// throw of `e1` at masked `B`, is interrupted out of that wait by
/// `poke` (leaving `e1` — and its request to notify `A` — queued at
/// `B`), and starts a second sync throw, of `e2`, at `second_target`.
/// `B` then unmasks and receives `e1`. Only the receipt of `e2` may let
/// `A` go on to write "returned".
fn interrupted_then_rethrown(
    b_body: Io<()>,
    second_target: impl FnOnce(ThreadId, ThreadId) -> ThreadId + 'static,
) -> Result<String, RunError> {
    let mut rt = Runtime::with_config(RuntimeConfig::new().max_steps(400_000));
    let prog = Io::new_empty_mvar::<String>().and_then(move |out| {
        // Masked and spinning: never receives anything.
        let d_body = Io::<()>::block(Io::compute(u64::MAX));
        Io::fork(b_body).and_then(move |b| {
            Io::fork(d_body).and_then(move |d| {
                let a_body = Io::throw_to_sync(b, Exception::custom("e1"))
                    .catch(|_| Io::unit())
                    .then(Io::throw_to_sync(
                        second_target(b, d),
                        Exception::custom("e2"),
                    ))
                    .then(out.put("returned".to_owned()));
                Io::fork(a_body).and_then(move |a| {
                    Io::compute(2_000)
                        .then(Io::throw_to(a, Exception::custom("poke")))
                        .then(out.take())
                })
            })
        })
    });
    rt.run(prog)
}

/// Claim 1 again: `throw_to_sync(D, e2)` must not return because some
/// *other* exception the thrower once sent was received. (It used to:
/// any thread in a sync-throw wait was woken by any notifier.)
#[test]
fn stale_notifier_does_not_end_a_wait_on_another_target() {
    let b_body = Io::<()>::block(Io::compute(20_000))
        .then(Io::<()>::unblock(Io::compute(1_000)))
        .catch(|_| Io::unit());
    assert_eq!(
        interrupted_then_rethrown(b_body, |_b, d| d),
        Err(RunError::StepLimitExceeded { limit: 400_000 })
    );
}

/// The same with the second throw aimed at `B` again: the receipt of
/// `e1` is not the receipt of `e2`. `B` handles `e1` masked; if it never
/// unmasks again `A` waits forever, and if it does, `A` returns then.
#[test]
fn stale_notifier_does_not_end_a_later_wait_on_the_same_target() {
    let b_body = |after_e1: Io<()>| {
        Io::<()>::block(
            Io::compute(20_000)
                .then(Io::<()>::unblock(Io::compute(1_000)).catch(move |_| after_e1)),
        )
    };
    assert_eq!(
        interrupted_then_rethrown(b_body(Io::compute(u64::MAX)), |b, _d| b),
        Err(RunError::StepLimitExceeded { limit: 400_000 })
    );
    let receptive =
        Io::compute(5_000).then(Io::<()>::unblock(Io::compute(1_000)).catch(|_| Io::unit()));
    assert_eq!(
        interrupted_then_rethrown(b_body(receptive), |b, _d| b),
        Ok("returned".to_owned())
    );
}
