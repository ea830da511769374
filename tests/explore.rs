//! Exhaustive small-bound verification of the paper's claims with the
//! schedule explorer (`conch-explore`).
//!
//! Where `tests/conformance.rs` checks single schedules and
//! `tests/chaos.rs` samples random ones, these tests *enumerate* every
//! schedule (thread interleaving × asynchronous-delivery point) of small
//! programs and assert properties over all of them:
//!
//! * §5.3 — `block (takeMVar m)` on a **full** `MVar` is atomic: there
//!   is no delivery point between committing to the take and completing
//!   it, on any schedule.
//! * §7.1 — `bracket` releases on every path; a deliberately broken
//!   variant (acquire outside `block`) is caught, its failing schedule
//!   shrunk to a minimal certificate and replayed deterministically in a
//!   second `Runtime`.
//! * §7.2 — `both` and `either`/`race` behave correctly under every
//!   interleaving at small sizes.

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use conch_combinators::{both, bracket, race, Either};
use conch_explore::{
    props, ExploreConfig, Explorer, Reduction, RunOutcome, Schedule, Strategy, TestCase,
};
use conch_pins as pins;
use conch_runtime::prelude::*;

// ---------------------------------------------------------------------
// §5.3: block (takeMVar m) on a full MVar admits no interruption.
// ---------------------------------------------------------------------

/// A sibling sprays a kill at the main thread while it performs
/// `block (takeMVar m >> putChar 't')` on a *full* `MVar`. Returns the
/// guarded result (`-1` if the kill was caught) and whether the value is
/// still in the `MVar` afterwards.
fn block_take_program() -> Io<(i64, bool)> {
    Io::new_mvar(7_i64).and_then(|m| {
        Io::my_thread_id().and_then(move |me| {
            Io::fork(Io::throw_to(me, Exception::kill_thread()))
                .then(Io::block(
                    m.take().and_then(|v| Io::put_char('t').map(move |_| v)),
                ))
                .catch(|_| Io::pure(-1))
                .and_then(move |r| m.try_take().map(move |left| (r, left.is_some())))
        })
    })
}

#[test]
fn block_take_on_full_mvar_is_atomic_on_every_schedule() {
    let outputs = Rc::new(RefCell::new(BTreeSet::new()));
    let result = Explorer::new().check(|| {
        let outputs = Rc::clone(&outputs);
        TestCase::new(
            block_take_program(),
            move |out: &RunOutcome<(i64, bool)>| {
                outputs.borrow_mut().insert(out.output.clone());
                match &out.result {
                    Ok((_, still_full)) => {
                        let took = out.output.contains('t');
                        if took && *still_full {
                            Err("'t' printed but the MVar still holds a value".into())
                        } else if !took && !*still_full {
                            // The §5.3 violation: the value was consumed but the
                            // take's continuation never ran — the exception landed
                            // *inside* the supposedly atomic block(takeMVar).
                            Err("MVar drained without completing block(takeMVar)".into())
                        } else {
                            Ok(())
                        }
                    }
                    // The kill may land after the guarded region (past the catch);
                    // that is outside this property's scope.
                    Err(RunError::Uncaught(_)) => Ok(()),
                    Err(e) => Err(e.to_string()),
                }
            },
        )
    });
    let report = result.expect_pass();
    assert!(
        report.complete,
        "the §5.3 check must be exhaustive, got {report}"
    );
    // Coverage sanity: we really did see both the kill-before-take and the
    // take-completed classes of schedule.
    let outputs = outputs.borrow();
    assert!(
        outputs.contains("") && outputs.contains("t"),
        "expected both outcome classes, saw {outputs:?}"
    );
}

// ---------------------------------------------------------------------
// §7.1: bracket releases on every path; a broken variant is caught,
// shrunk and replayed.
// ---------------------------------------------------------------------

/// A correct bracket: acquire ('a') inside `block`, release ('r') on
/// both the normal and the exceptional path.
fn good_bracket() -> Io<i64> {
    bracket(
        Io::put_char('a').map(|_| 0_i64),
        |_| Io::put_char('r'),
        |_| Io::pure(1_i64),
    )
}

/// The seeded bug: the acquire runs *outside* `block`, so an exception
/// landing between the acquire and the block leaks the resource — the
/// exact mistake §7.1's `bracket` exists to prevent.
fn broken_bracket() -> Io<i64> {
    Io::put_char('a').map(|_| 0_i64).and_then(|_| {
        Io::block(
            Io::unblock(Io::pure(1_i64))
                .catch(|e| Io::put_char('r').then(Io::throw(e)))
                .and_then(|r| Io::put_char('r').map(move |_| r)),
        )
    })
}

/// Fork a worker running `body` and immediately aim a kill at it; the
/// settling sleep returns only once the worker has finished or died.
fn killed_worker(body: Io<i64>) -> Io<()> {
    Io::fork(body.map(|_| ()).catch(|_| Io::unit()))
        .and_then(|w| Io::throw_to(w, Exception::kill_thread()))
        .then(Io::sleep(1))
}

#[test]
fn bracket_releases_on_every_schedule() {
    let result = Explorer::new().check(|| {
        TestCase::new(
            killed_worker(good_bracket()),
            props::releases_balanced('a', 'r'),
        )
    });
    let report = result.expect_pass();
    assert!(
        report.complete,
        "bracket check must be exhaustive: {report}"
    );
}

#[test]
fn broken_bracket_race_is_found_shrunk_and_replayed() {
    let explorer = Explorer::new();
    let result = explorer.check(|| {
        TestCase::new(
            killed_worker(broken_bracket()),
            props::releases_balanced('a', 'r'),
        )
    });
    let failure = result.expect_fail();
    assert!(
        failure.message.contains("unbalanced"),
        "{}",
        failure.message
    );
    assert!(
        failure.schedule.len() <= failure.original.len(),
        "shrinking must not grow the certificate"
    );

    // The certificate survives serialization…
    let text = failure.schedule.to_string();
    let parsed: Schedule = text.parse().expect("certificate text parses");
    assert_eq!(parsed, failure.schedule);

    // …and replays deterministically in a *second* Runtime: same leak,
    // twice in a row, from nothing but the choice list.
    let replayer = Explorer::new();
    let mut outputs = Vec::new();
    for _ in 0..2 {
        let (outcome, check) = replayer.replay(
            TestCase::new(
                killed_worker(broken_bracket()),
                props::releases_balanced('a', 'r'),
            ),
            &parsed,
        );
        assert!(check.is_err(), "replay must reproduce the violation");
        outputs.push(outcome.output);
    }
    assert_eq!(outputs[0], outputs[1], "replay must be deterministic");
    assert_eq!(
        outputs[0].matches('a').count(),
        outputs[0].matches('r').count() + 1,
        "the minimal schedule exhibits exactly the leaked acquire"
    );

    // Minimality: deleting any single choice from the shrunk schedule
    // makes the failure disappear.
    for i in 0..failure.schedule.len() {
        let mut candidate = failure.schedule.clone();
        candidate.choices.remove(i);
        let (_, check) = replayer.replay(
            TestCase::new(
                killed_worker(broken_bracket()),
                props::releases_balanced('a', 'r'),
            ),
            &candidate,
        );
        assert!(
            check.is_ok(),
            "choice {i} of certificate {} is redundant",
            failure.schedule
        );
    }
}

// ---------------------------------------------------------------------
// §7.2: both / either, exhaustively at small sizes.
// ---------------------------------------------------------------------

#[test]
fn both_returns_the_pair_on_every_schedule() {
    let outputs = Rc::new(RefCell::new(BTreeSet::new()));
    let result = Explorer::new().check(|| {
        let outputs = Rc::clone(&outputs);
        TestCase::new(
            both(
                Io::put_char('x').map(|_| 1_i64),
                Io::put_char('y').map(|_| 2_i64),
            ),
            move |out: &RunOutcome<(i64, i64)>| {
                outputs.borrow_mut().insert(out.output.clone());
                match &out.result {
                    Ok((1, 2)) => Ok(()),
                    other => Err(format!("expected Ok((1, 2)), got {other:?}")),
                }
            },
        )
    });
    let report = result.expect_pass();
    assert!(report.complete, "both() check must be exhaustive: {report}");
    let outputs = outputs.borrow();
    assert!(
        outputs.contains("xy") && outputs.contains("yx"),
        "both child orders must be reachable, saw {outputs:?}"
    );
}

#[test]
fn either_always_commits_to_one_winner() {
    let winners = Rc::new(RefCell::new(BTreeSet::new()));
    // race() is the biggest small program here (two children, a result
    // MVar, kills for both losers): its full space is ~10k schedules,
    // just over the default cap.
    let cfg = ExploreConfig {
        max_schedules: 50_000,
        ..ExploreConfig::default()
    };
    let result = Explorer::with_config(cfg).check(|| {
        let winners = Rc::clone(&winners);
        TestCase::new(
            race(Io::pure('l'), Io::pure('r')),
            move |out: &RunOutcome<Either<char, char>>| match &out.result {
                Ok(Either::Left('l')) => {
                    winners.borrow_mut().insert('l');
                    Ok(())
                }
                Ok(Either::Right('r')) => {
                    winners.borrow_mut().insert('r');
                    Ok(())
                }
                other => Err(format!("race produced {other:?}")),
            },
        )
    });
    let report = result.expect_pass();
    assert!(report.complete, "race() check must be exhaustive: {report}");
    let winners = winners.borrow();
    assert!(
        winners.contains(&'l') && winners.contains(&'r'),
        "both winners must be reachable, saw {winners:?}"
    );
}

// ---------------------------------------------------------------------
// §7.2 / ids: re-delivery to a dead-and-reused thread slot is a no-op.
// ---------------------------------------------------------------------

/// The `race`/`both` parent loop (`await_result`) re-throws any
/// asynchronous exception it receives to *both* children and resumes
/// waiting. Those children may long since have finished — and their
/// thread slots may have been reclaimed and handed to unrelated threads.
/// This program engineers exactly that hazard: the race's children
/// finish instantly, a bystander thread is forked afterwards (so on many
/// schedules it *reuses* a child's slot), and an outside poke hits the
/// racing parent mid-wait. The re-thrown poke then targets the
/// children's stale `ThreadId`s; only the generation tag in the id
/// stands between it and friendly fire against the bystander.
///
/// Returns (racer outcome, bystander token). The bystander must deliver
/// its token on every schedule — if a stale re-throw could land, the
/// bystander dies, the token never arrives, and the run deadlocks.
///
/// A forked thread starts unmasked, so a poke can land before the
/// racer's first step, outside its `catch`; the racer would then die
/// without reporting, and main would wait on `done` forever. The racer
/// therefore says `ready` from inside its `catch`, and main pokes only
/// after hearing it.
fn stale_redelivery_program() -> Io<(i64, i64)> {
    Io::new_empty_mvar::<i64>().and_then(|done| {
        Io::new_empty_mvar::<i64>().and_then(move |token| {
            Io::new_empty_mvar::<()>().and_then(move |ready| stale_redelivery(done, token, ready))
        })
    })
}

fn stale_redelivery(done: MVar<i64>, token: MVar<i64>, ready: MVar<()>) -> Io<(i64, i64)> {
    // The poke may land anywhere in the racer — inside the race
    // or between the race and the `done.put` — so the catch
    // covers the put too and reports via the non-blocking
    // `try_put` (a no-op if the result already made it out).
    let racer = ready
        .put(())
        .then(race(Io::pure(1_i64), Io::pure(2_i64)))
        .map(|r| match r {
            Either::Left(v) | Either::Right(v) => v,
        })
        .and_then(move |v| done.put(v))
        .catch(move |e| {
            if e == Exception::custom("poke") {
                done.try_put(-1).map(|_| ())
            } else {
                Io::throw(e)
            }
        });
    Io::fork(racer).and_then(move |racer_id| {
        // Forked after the racer, so whenever the race's children
        // are already dead this thread takes over a freed slot.
        // The sleep keeps it alive (and killable) through the
        // poke window.
        let bystander = Io::sleep(50).then(token.put(42));
        Io::fork(bystander).and_then(move |_| {
            ready
                .take()
                .then(Io::throw_to(racer_id, Exception::custom("poke")))
                .then(done.take())
                .and_then(move |r| token.take().map(move |t| (r, t)))
        })
    })
}

#[test]
fn stale_redelivery_to_reused_slot_is_a_noop_on_every_schedule() {
    // Sleep sets at preemption bound 2 keep the space tractable
    // (`pins::STALE_REDELIVERY_BOUND_2` schedules; unbounded DPOR does
    // not finish in 200 000)
    // without losing the hazard: reaching "children dead, slot reused,
    // poke mid-wait" needs a single preemption of the main thread (all
    // other switches happen at blocking points, which are free), and
    // exception-delivery points branch fully whatever the bound.
    let cfg = ExploreConfig {
        max_schedules: 200_000,
        strategy: Strategy::Exhaustive(Reduction::SleepSets {
            preemption_bound: Some(2),
        }),
        ..ExploreConfig::default()
    };
    let result = Explorer::with_config(cfg).check(|| {
        TestCase::new(
            stale_redelivery_program(),
            |out: &RunOutcome<(i64, i64)>| match &out.result {
                Ok((r, 42)) if [1, 2, -1].contains(r) => Ok(()),
                Ok(other) => Err(format!("unexpected outcome {other:?}")),
                Err(e) => Err(format!(
                    "run failed (a stale re-throw likely killed the bystander): {e:?}"
                )),
            },
        )
    });
    let report = result.expect_pass();
    assert!(
        report.complete && report.explored == pins::STALE_REDELIVERY_BOUND_2,
        "stale-redelivery check must be exhaustive: {report}"
    );
}

// ---------------------------------------------------------------------
// §8: a kill landing on live code drops it exactly once.
// ---------------------------------------------------------------------

/// Counts its drops; moved into a closure, it counts the closure's.
struct DropCount(Rc<Cell<u32>>);

impl Drop for DropCount {
    fn drop(&mut self) {
        self.0.set(self.0.get() + 1);
    }
}

/// A host value that counts its drops (atomically: a host value is
/// `Send`).
#[derive(Debug, Clone)]
struct Payload(Arc<AtomicU32>);

impl PartialEq for Payload {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Drop for Payload {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

conch_runtime::host_value!(Payload);

/// The interpreter overwrites spent code without dropping it; a kill
/// instead lands on live code — a `Catch`, `Bind` or `Block` node, or a
/// `Compute` carrying a host result — which must then be dropped, once.
/// Each continuation and handler records whether it ran and carries a
/// [`DropCount`]; on every schedule all three are released exactly once,
/// and so is the host result.
#[test]
fn a_kill_landing_on_live_code_drops_it_exactly_once() {
    let seen = Rc::new(RefCell::new(BTreeSet::new()));
    let result = Explorer::new().check(|| {
        let ran = Rc::new(RefCell::new(Vec::new()));
        let dropped = Rc::new(Cell::new(0));
        let payload_drops = Arc::new(AtomicU32::new(0));
        let guard = |name: &'static str| {
            let (ran, g) = (Rc::clone(&ran), DropCount(Rc::clone(&dropped)));
            move || {
                let _g = g;
                ran.borrow_mut().push(name);
            }
        };
        let (effect, cont, handler) = (guard("effect"), guard("cont"), guard("handler"));
        let victim = Io::block(Io::effect(effect))
            .then(Io::compute_returning(
                3,
                Payload(Arc::clone(&payload_drops)),
            ))
            .and_then(move |_: Payload| Io::effect(cont))
            .catch(move |_| {
                handler();
                Io::unit()
            });
        let program = Io::fork(victim)
            .and_then(|v| Io::throw_to(v, Exception::kill_thread()))
            .then(Io::sleep(1));
        let seen = Rc::clone(&seen);
        TestCase::new(program, move |out: &RunOutcome<()>| {
            seen.borrow_mut().insert(ran.borrow().clone());
            let drops = (dropped.get(), payload_drops.load(Ordering::Relaxed));
            match &out.result {
                Ok(()) if drops == (3, 1) => Ok(()),
                Ok(()) => Err(format!("(guards, payload) dropped {drops:?}, not (3, 1)")),
                Err(e) => Err(e.to_string()),
            }
        })
    });
    let report = result.expect_pass();
    assert!(
        report.complete,
        "the drop check must be exhaustive: {report}"
    );
    // The kill landed before the catch frame, inside it before and after
    // the block, and not at all.
    let seen = seen.borrow();
    let classes: [&[&str]; 4] = [
        &[],
        &["handler"],
        &["effect", "handler"],
        &["effect", "cont"],
    ];
    for ran in classes {
        assert!(seen.contains(ran), "no schedule ran just {ran:?}: {seen:?}");
    }
}

// ---------------------------------------------------------------------
// Bounds behave as documented.
// ---------------------------------------------------------------------

#[test]
fn preemption_bound_trades_coverage_for_speed() {
    let run = |preemption_bound: Option<usize>| {
        let cfg = ExploreConfig {
            strategy: Strategy::Exhaustive(Reduction::SleepSets { preemption_bound }),
            ..ExploreConfig::default()
        };
        let result = Explorer::with_config(cfg)
            .check(|| TestCase::new(killed_worker(good_bracket()), props::terminates));
        result.report().clone()
    };
    let unbounded = run(None);
    let bounded = run(Some(0));
    assert!(
        bounded.explored <= unbounded.explored,
        "preemption bound must not enlarge the schedule space: {} vs {}",
        bounded.explored,
        unbounded.explored
    );
}
