//! Property tests for the §7 combinators under adversarial scheduling
//! and random asynchronous-exception injection (experiments E3–E5).
//!
//! The common harness runs a victim computation built from the
//! combinators while a killer thread fires `KillThread` after a random
//! number of scheduler steps (implemented as a random `compute` delay),
//! on schedules and delivery points of the kill the schedule explorer
//! samples (PCT) or, where the space is small enough, enumerates. The
//! properties are the ones the paper's abstractions promise:
//!
//! * `finally`/`bracket`: the finalizer/release runs **exactly once** on
//!   every path (E3);
//! * `bracket`: acquisitions and releases balance — no leaked resource
//!   (E3);
//! * `modify_mvar`: the lock is never lost and the state is never
//!   half-updated (E1/E2);
//! * nested `timeout`s: inner expiry never disturbs the outer result
//!   shape, and timers do not leak (E5).

use std::cell::RefCell;
use std::rc::Rc;

use conch_combinators::{bracket, finally, modify_mvar, timeout};
use conch_explore::{props, ExploreConfig, Explorer, Reduction, RunOutcome, Strategy, TestCase};
use conch_runtime::prelude::*;
use conch_runtime::value::FromValue;
use proptest::prelude::*;

/// A property checked after the run, on state the victim shares.
type After = Box<dyn FnOnce() -> Result<(), String>>;

/// Checks `case`'s property on every schedule (sleep sets, at the
/// given preemption bound), asserting the search complete.
fn on_every_schedule<T: FromValue>(bound: Option<usize>, case: impl FnMut() -> TestCase<T>) {
    let explorer = Explorer::with_config(ExploreConfig {
        strategy: Strategy::Exhaustive(Reduction::SleepSets {
            preemption_bound: bound,
        }),
        ..ExploreConfig::default()
    });
    let report = explorer.check(case).expect_pass().clone();
    assert!(report.complete, "{report}");
}

/// Checks `case`'s property on 16 PCT-sampled schedules: the spaces
/// under fire do not finish within the default 10 000 schedules. Depth
/// 512 lets the sampler defer a kill across a 200-step body.
fn on_sampled_schedules<T: FromValue>(case: impl FnMut() -> TestCase<T>) {
    let explorer = Explorer::with_config(ExploreConfig {
        max_schedules: 16,
        max_depth: 512,
        strategy: Strategy::Pct { depth: 3, seed: 7 },
        ..ExploreConfig::default()
    });
    assert_eq!(explorer.check(case).expect_pass().explored, 16);
}

/// Runs the victim `case` builds (forked masked, so it can install
/// handlers, then unmasked inside) while a killer fires after `delay`
/// compute steps, and checks its property once both the victim is
/// dead/done and the killer finished.
fn under_fire(delay: u64, mut case: impl FnMut() -> (Io<()>, After)) {
    on_sampled_schedules(|| {
        let (victim, after) = case();
        let prog = Io::new_empty_mvar::<i64>().and_then(move |done| {
            let body = victim.catch(|_| Io::unit()).then(done.put(1));
            Io::<ThreadId>::block(Io::fork(body)).and_then(move |victim_tid| {
                Io::compute(delay)
                    .then(Io::throw_to(victim_tid, Exception::kill_thread()))
                    .then(done.take())
                    .map(|_| ())
            })
        });
        TestCase::new(prog, move |out: &RunOutcome<()>| match &out.result {
            Ok(()) => after(),
            Err(e) => Err(format!("harness wedged: {e}")),
        })
    });
}

fn counter() -> (Rc<RefCell<i64>>, impl Fn() -> Io<()> + Clone) {
    let c = Rc::new(RefCell::new(0_i64));
    let c2 = Rc::clone(&c);
    (c, move || {
        let c3 = Rc::clone(&c2);
        Io::effect(move || {
            *c3.borrow_mut() += 1;
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// E3: `finally`'s finalizer runs exactly once whether the body
    /// completes, is killed mid-body, or is killed before starting.
    #[test]
    fn finally_runs_exactly_once_under_fire(
        delay in 0u64..400,
        body_len in 0u64..200,
    ) {
        under_fire(delay, || {
            let (count, bump) = counter();
            // The body opens an unmask window (finally masks around it
            // would be wrong — finally itself unmasks the body).
            let victim = finally(Io::compute(body_len), bump);
            let after = move || match *count.borrow() {
                1 => Ok(()),
                n => Err(format!("finalizer ran {n} times")),
            };
            (victim, Box::new(after) as After)
        });
    }

    /// E3: bracket acquire/release balance under fire — whatever was
    /// acquired is released, and nothing is released twice.
    #[test]
    fn bracket_balances_under_fire(
        delay in 0u64..400,
        body_len in 0u64..200,
    ) {
        under_fire(delay, || {
            let open = Rc::new(RefCell::new(0_i64));
            let peak = Rc::new(RefCell::new(0_i64));
            let (o1, o2) = (Rc::clone(&open), Rc::clone(&open));
            let p1 = Rc::clone(&peak);
            let victim = bracket(
                Io::effect(move || {
                    *o1.borrow_mut() += 1;
                    let now = *o1.borrow();
                    let mut pk = p1.borrow_mut();
                    if now > *pk { *pk = now; }
                    7_i64
                }),
                move |_| {
                    let o = Rc::clone(&o2);
                    Io::effect(move || { *o.borrow_mut() -= 1; })
                },
                move |_| Io::compute(body_len),
            );
            let after = move || match (*open.borrow(), *peak.borrow()) {
                (0, ..=1) => Ok(()),
                (open, peak) => Err(format!("leaked or double-released: open {open}, peak {peak}")),
            };
            (victim.map(|_| ()), Box::new(after) as After)
        });
    }

    /// E1/E2: `modify_mvar` never loses the lock and never exposes a
    /// torn state: afterwards the MVar is full, holding either the old
    /// or the new value.
    #[test]
    fn modify_mvar_atomic_under_fire(
        delay in 0u64..400,
        body_len in 0u64..200,
    ) {
        on_sampled_schedules(|| {
            let prog = Io::new_mvar(100_i64).and_then(move |m| {
                let worker = modify_mvar(m, move |v| {
                    Io::compute(body_len).then(Io::pure(v + 11))
                })
                .catch(|_| Io::unit());
                Io::fork(worker).and_then(move |w| {
                    Io::compute(delay)
                        .then(Io::throw_to(w, Exception::kill_thread()))
                        .then(Io::sleep(1_000_000))
                        .then(m.try_take())
                })
            });
            TestCase::new(prog, |out: &RunOutcome<Option<i64>>| match out.result {
                Ok(Some(100 | 111)) => Ok(()),
                ref other => Err(format!("lock lost, state torn or harness wedged: {other:?}")),
            })
        });
    }

    /// E5: nested timeouts — the outer timeout's verdict depends only on
    /// the outer budget vs. the actual runtime, never on the inner
    /// timeout's machinery.
    #[test]
    fn nested_timeouts_do_not_interfere(
        inner_budget in 1u64..2_000,
        outer_budget in 1u64..2_000,
        work in 1u64..2_000,
    ) {
        on_sampled_schedules(|| nested_timeouts(inner_budget, outer_budget, work));
    }

    /// Mask nesting is idempotent (§5.2: "no counting of scopes"):
    /// `block (block m)` observes the same masking states as `block m`.
    #[test]
    fn mask_nesting_is_idempotent(depth in 1usize..6) {
        let build = move |n: usize| {
            let mut io: Io<bool> = Io::masking_state();
            for _ in 0..n {
                io = Io::<bool>::block(io);
            }
            io.and_then(|inside| Io::masking_state().map(move |outside| (inside, outside)))
        };
        for n in [1, depth] {
            on_every_schedule(None, || TestCase::new(build(n), props::returns((true, false))));
        }
    }
}

/// Deterministic programs produce identical results under every
/// schedule (scheduler-independence of sequential code).
#[test]
fn sequential_programs_are_schedule_independent() {
    let prog = || {
        Io::get_char().and_then(|c1| {
            Io::put_char(c1)
                .then(Io::compute(50))
                .then(Io::get_char())
                .and_then(move |c2| Io::put_char(c2).then(Io::pure((c1, c2))))
        })
    };
    let mut rt = Runtime::new();
    rt.feed_input("abc");
    let base = (rt.run(prog()).unwrap(), rt.output().to_owned());
    on_every_schedule(None, || {
        let base = base.clone();
        TestCase::new(prog(), move |out: &RunOutcome<(char, char)>| {
            match (&out.result, &out.output) {
                (Ok(r), o) if (*r, o.clone()) == base => Ok(()),
                other => Err(format!("{other:?} differs from {base:?}")),
            }
        })
        .input("abc")
    });
}

/// E5: the outer timeout's verdict depends only on the outer budget vs.
/// the actual runtime, never on the inner timeout's machinery, and no
/// timer thread outlives the run.
fn nested_timeouts(
    inner_budget: u64,
    outer_budget: u64,
    work: u64,
) -> TestCase<Option<Option<i64>>> {
    let prog = timeout(
        outer_budget,
        timeout(inner_budget, Io::sleep(work).map(|_| 1_i64)),
    )
    // Let every killed loser finish dying before main exits, so
    // the leak accounting below sees all threads.
    .and_then(|r| Io::sleep(10_000_000).then(Io::pure(r)));
    TestCase::new(prog, move |out: &RunOutcome<Option<Option<i64>>>| {
        let result = out
            .result
            .clone()
            .map_err(|e| format!("must not wedge: {e}"))?;
        // Virtual time is exact, so the expected shape is decidable.
        // Races at exactly-equal deadlines may go either way, so
        // strict inequalities only.
        let expected = if work < inner_budget && work < outer_budget {
            Some(Some(Some(1)))
        } else if inner_budget < work && inner_budget < outer_budget {
            Some(Some(None))
        } else if outer_budget < work && outer_budget < inner_budget {
            Some(None)
        } else {
            None
        };
        if expected.is_some_and(|e| e != result) {
            return Err(format!("got {result:?}, expected {expected:?}"));
        }
        // No thread leaked: after the run only the main thread finished.
        let st = out.stats();
        match st.died_threads + st.finished_threads == st.forks + 1 {
            true => Ok(()),
            false => Err(format!("a thread leaked: {st:?}")),
        }
    })
}

/// A case proptest once shrank a failure to: the inner timeout fires
/// alone, at a deadline the outer one shares with the work. Unbounded,
/// its space passes 10⁶ schedules; at three preemptions it is 3 649.
#[test]
fn nested_timeouts_inner_first_at_the_outer_deadline() {
    on_every_schedule(Some(3), || nested_timeouts(1, 2, 2));
}

/// E3, deterministic corner: a finalizer that *itself* blocks is still
/// executed to completion because `finally` masks it.
#[test]
fn blocking_finalizer_completes() {
    let mut rt = Runtime::new();
    let prog = Io::new_mvar(0_i64).and_then(|log| {
        Io::new_empty_mvar::<i64>().and_then(move |gate| {
            // Somebody eventually opens the gate.
            let opener = Io::sleep(500).then(gate.put(1));
            let victim = finally(Io::compute(10_000), move || {
                gate.take().then(modify_mvar(log, |n| Io::pure(n + 1)))
            })
            .catch(|_| Io::unit());
            Io::fork(opener)
                .then(Io::<ThreadId>::block(Io::fork(victim)))
                .and_then(move |v| {
                    Io::throw_to(v, Exception::kill_thread())
                        .then(Io::sleep(1_000_000))
                        .then(log.take())
                })
        })
    });
    assert_eq!(rt.run(prog).unwrap(), 1);
}

/// The §5.3 fine print: inside `block`, an interruptible `takeMVar` can
/// be interrupted only *while the MVar is empty*; once full it wins.
#[test]
fn interruptible_window_closes_when_resource_appears() {
    on_every_schedule(None, || {
        let prog = Io::new_empty_mvar::<i64>().and_then(|m| {
            Io::new_empty_mvar::<String>().and_then(move |out| {
                let victim = Io::<()>::block(
                    m.take()
                        .and_then(move |v| out.put(format!("took {v}")))
                        .catch(move |e| out.put(format!("interrupted by {e}"))),
                );
                Io::<ThreadId>::block(Io::fork(victim)).and_then(move |v| {
                    Io::fork(Io::sleep(10).then(m.put(5)))
                        .then(Io::sleep(20))
                        .then(Io::throw_to(v, Exception::kill_thread()))
                        .then(out.take())
                })
            })
        });
        // Whichever way the race goes, the outcome is one of exactly two
        // clean states — never a taken-then-interrupted mixture.
        TestCase::new(prog, |out: &RunOutcome<String>| match &out.result {
            Ok(o) if o == "took 5" || o == "interrupted by KillThread" => Ok(()),
            other => Err(format!("unexpected outcome {other:?}")),
        })
    });
}
