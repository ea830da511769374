//! Experiment E1 end-to-end: the §5.1 locking race at *both* levels.
//!
//! The formal level (model checker) proves the naive pattern racy and
//! the safe pattern race-free by exhaustive exploration; the runtime
//! level reproduces the same dichotomy with the schedule explorer,
//! on every schedule and delivery point of the kill. Together they show
//! the paper's central worked example holds in this reproduction.

use conch_combinators::{modify_mvar, modify_mvar_naive};
use conch_explore::{CheckResult, Explorer, RunOutcome, Strategy, TestCase};
use conch_pins as pins;
use conch_runtime::prelude::*;
use conch_semantics::engine::{ExploreConfig, Lts, Safety, State};
use conch_semantics::programs::{lock_scenario, naive_lock_update, safe_lock_update};
use conch_semantics::rules::{RuleConfig, RuleName};
use conch_semantics::term::{Term, TidName};
use std::rc::Rc;

// ------------------------------------------------------------------
// Formal level
// ------------------------------------------------------------------

fn lock_graph(body: fn(Rc<Term>, u32) -> Rc<Term>, steps: u32) -> Lts {
    let prog = lock_scenario(|m| body(m, steps));
    Lts::explore(&State::new(prog, ""), &ExploreConfig::default())
}

fn lost_lock(s: &State) -> bool {
    s.is_deadlocked(&RuleConfig::default())
}

#[test]
fn model_checker_finds_the_naive_race() {
    match lock_graph(naive_lock_update, 2).check_safety(lost_lock) {
        Ok(Safety::Violation(d)) => {
            // The shortest interleaving that loses the lock (EXPERIMENTS.md
            // E1): main stores 0, forks the worker, throws to it and blocks
            // on takeMVar; the worker takes the lock and receives the kill
            // before the `catch` that would put it back is in place, so
            // its outer handler swallows the kill and it finishes holding
            // the lock.
            use RuleName::*;
            let t0 = Some(TidName(0));
            let t1 = Some(TidName(1));
            let expected = [
                (NewMVar, t0),
                (Bind, t0),
                (Eval, t0),
                (PutMVar, t0),
                (Bind, t0),
                (Eval, t0),
                (Fork, t0),
                (Bind, t0),
                (Eval, t0),
                (ThrowTo, t0),
                (Bind, t0),
                (Eval, t0),
                (TakeMVar, t1),
                (StuckTakeMVar, t0),
                (Receive, t1),
                (Propagate, t1),
                (Catch, t1),
                (Eval, t1),
                (ReturnGC, t1),
            ];
            let got: Vec<_> = d.steps.iter().map(|s| (s.rule, s.tid)).collect();
            assert_eq!(got, expected, "{}", d.render());
            // It ends with an empty MVar and a stuck main thread.
            assert!(d.deadlocked);
            let state = d.state.soup.render();
            assert!(
                state.contains("⟨⟩m"),
                "final state should have an empty MVar: {state}"
            );
            assert!(
                state.contains('⊛'),
                "final state should have a stuck thread: {state}"
            );
        }
        other => panic!("naive locking must be racy: {other:?}"),
    }
}

#[test]
fn model_checker_proves_safe_locking() {
    match lock_graph(safe_lock_update, 2).check_safety(lost_lock) {
        Ok(Safety::Safe { states }) => assert_eq!(
            states,
            pins::E1_LOCK_GRAPH_STATES[1].1,
            "the E1 state space moved"
        ),
        Ok(Safety::Violation(d)) => panic!("safe locking raced:\n{}", d.render()),
        Err(e) => panic!("{e}"),
    }
}

#[test]
fn safe_locking_state_space_is_larger_but_safe() {
    // Sanity on the experiment itself: both searches explore nontrivial
    // state spaces (the safe one isn't vacuously safe), exactly.
    let sizes = |steps| {
        (
            lock_graph(naive_lock_update, steps).states(),
            lock_graph(safe_lock_update, steps).states(),
        )
    };
    assert_eq!([sizes(1), sizes(2)], pins::E1_LOCK_GRAPH_STATES);
}

// ------------------------------------------------------------------
// Runtime level
// ------------------------------------------------------------------

/// The locking trial on every schedule and delivery point: a worker
/// updates the cell while main kills it; the property is that the MVar
/// is full again afterwards. The safe space needs depth 128 to finish.
fn runtime_trial(safe: bool, work: u64) -> CheckResult {
    let explorer = Explorer::with_config(conch_explore::ExploreConfig {
        max_depth: 128,
        ..conch_explore::ExploreConfig::default()
    });
    explorer.check(|| {
        let prog = Io::new_mvar(0_i64).and_then(move |m| {
            let body = move |n: i64| Io::compute(work).then(Io::pure(n + 1));
            let update = if safe {
                modify_mvar(m, body)
            } else {
                modify_mvar_naive(m, body)
            };
            let worker = update.catch(|_| Io::unit());
            Io::fork(worker).and_then(move |w| {
                Io::throw_to(w, Exception::kill_thread())
                    .then(Io::sleep(1_000_000))
                    .then(m.try_take())
                    .map(|v| v.is_some())
            })
        });
        TestCase::new(prog, |out: &RunOutcome<bool>| match out.result {
            Ok(true) => Ok(()),
            ref other => Err(format!("lock lost: {other:?}")),
        })
    })
}

#[test]
fn runtime_reproduces_the_naive_race() {
    let failure = runtime_trial(false, 20);
    let failure = failure.expect_fail();
    // The worker takes the lock and the kill lands before its `catch`
    // is in place: two steps of the worker's, shrunk from the third
    // schedule explored.
    assert_eq!(failure.schedule.to_string(), "t1.t1");
    assert_eq!(failure.report.explored, pins::E1_NAIVE_RACE_EXPLORED);
}

#[test]
fn runtime_safe_pattern_never_loses_the_lock() {
    let result = runtime_trial(true, 20);
    let report = result.expect_pass();
    assert!(report.complete, "{report}");
}

#[test]
fn contended_safe_locking_is_exception_safe() {
    // Several workers hammer one counter while a killer sprays
    // exceptions; at quiescence the MVar is full and holds a value
    // consistent with "every completed update applied exactly once".
    // Three workers are too many to enumerate: PCT-sample the space.
    let explorer = Explorer::with_config(conch_explore::ExploreConfig {
        max_schedules: 200,
        strategy: Strategy::Pct { depth: 3, seed: 1 },
        ..conch_explore::ExploreConfig::default()
    });
    let result = explorer.check(|| {
        let prog = Io::new_mvar(0_i64).and_then(move |m| {
            let spawn_worker = move || {
                let w =
                    modify_mvar(m, |n| Io::compute(30).then(Io::pure(n + 1))).catch(|_| Io::unit());
                Io::fork(w)
            };
            spawn_worker().and_then(move |w1| {
                spawn_worker().and_then(move |w2| {
                    spawn_worker().and_then(move |w3| {
                        Io::throw_to(w1, Exception::kill_thread())
                            .then(Io::throw_to(w3, Exception::kill_thread()))
                            .then(Io::sleep(1_000_000))
                            .then(m.try_take())
                            .map(move |v| {
                                let _ = w2;
                                v
                            })
                    })
                })
            })
        });
        TestCase::new(prog, |out: &RunOutcome<Option<i64>>| match out.result {
            Ok(Some(n)) if (0..=3).contains(&n) => Ok(()),
            Ok(Some(n)) => Err(format!("impossible count {n}")),
            ref other => Err(format!("lock lost under contention: {other:?}")),
        })
    });
    assert_eq!(result.expect_pass().explored, 200);
}
