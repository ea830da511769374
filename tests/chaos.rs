//! Chaos testing: the runtime's internal invariants under heavy random
//! fire. No specific behaviour is asserted about the *programs* — only
//! that the machine itself never wedges unexpectedly, never loses track
//! of a thread, and keeps its accounting consistent, across hundreds of
//! PCT-sampled, exception-riddled runs.

use conch_combinators::{finally, modify_mvar, race, timeout, Chan, Sem};
use conch_explore::{ExploreConfig, Explorer, RunOutcome, TestCase};
use conch_runtime::prelude::*;
use proptest::prelude::*;

/// A tangle of everything: semaphore-gated workers hammering a counter,
/// a channel pipeline, a racer, timeouts, and a killer spraying
/// exceptions at every thread id it has seen.
fn tangle(workers: u64, kills: u64) -> Io<i64> {
    Io::new_mvar(0_i64).and_then(move |counter| {
        Sem::new(2).and_then(move |sem| {
            Chan::<i64>::new().and_then(move |pipe| {
                Io::new_mvar(Value::List(Vec::new())).and_then(move |tids| {
                    let remember = move |t: ThreadId| {
                        modify_mvar(tids, move |v: Value| {
                            let mut xs = match v {
                                Value::List(xs) => xs,
                                _ => unreachable!(),
                            };
                            xs.push(Value::ThreadId(t));
                            Io::pure(Value::List(xs))
                        })
                    };
                    // Workers: gated increments + pipeline sends, wrapped in
                    // finally so their bookkeeping survives kills.
                    let spawn_workers = conch_runtime::io::for_each(workers, move |i| {
                        let job = sem.with(move || {
                            Io::compute(20 + i * 7)
                                .then(modify_mvar(counter, |n| Io::pure(n + 1)))
                                .then(pipe.send(i as i64))
                                .then(Io::pure(0_i64))
                        });
                        let guarded = finally(job, Io::unit).map(|_| ()).catch(|_| Io::unit());
                        Io::fork(guarded).and_then(remember)
                    });
                    // A consumer that drains the pipe under a timeout.
                    let consumer = timeout(
                        50_000,
                        conch_runtime::io::replicate(workers, move || pipe.recv()),
                    )
                    .map(|_| ())
                    .catch(|_| Io::unit());
                    // A racer that may or may not finish.
                    let racer = race(Io::sleep(100).map(|_| 1_i64), Io::compute_returning(500, 2))
                        .map(|_| ())
                        .catch(|_| Io::unit());
                    // The killer: sprays kills at remembered tids.
                    let killer = conch_runtime::io::for_each(kills, move |k| {
                        conch_combinators::with_mvar(tids, move |v: Value| {
                            let xs = match v {
                                Value::List(xs) => xs,
                                _ => unreachable!(),
                            };
                            if xs.is_empty() {
                                Io::unit()
                            } else {
                                let t = xs[(k as usize * 7 + 3) % xs.len()]
                                    .as_thread_id()
                                    .expect("stored tids");
                                Io::throw_to(t, Exception::kill_thread())
                            }
                        })
                        .then(Io::yield_now())
                    });
                    spawn_workers
                        .then(Io::fork(consumer))
                        .then(Io::fork(racer))
                        .then(killer)
                        .then(Io::sleep(1_000_000)) // settle
                        .then(conch_combinators::with_mvar(counter, Io::pure))
                })
            })
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn machine_invariants_under_chaos(
        workers in 1u64..8,
        kills in 0u64..12,
    ) {
        // Four PCT samples per tangle, thread picks and delivery points
        // both drawn.
        let explorer = Explorer::with_config(ExploreConfig {
            max_schedules: 4,
            max_depth: 256,
            step_budget: 2_000_000,
            strategy: conch_explore::Strategy::Pct { depth: 3, seed: 3 },
            ..ExploreConfig::default()
        });
        let result = explorer.check(|| {
            TestCase::new(tangle(workers, kills), move |out: &RunOutcome<i64>| {
                // The harness itself must terminate (settling sleep ends
                // the run).
                let counter = out.result.clone().map_err(|e| {
                    format!("chaos harness must not wedge the machine: {e}")
                })?;
                // Invariants:
                let st = out.stats();
                // 1. No worker increments more than once; no phantom
                //    increments.
                if !(0..=workers as i64).contains(&counter) {
                    return Err(format!("counter {counter}"));
                }
                // 2. Every fork is accounted for: finished, died, or
                //    reaped at ProcGC (none unaccounted negative).
                if st.finished_threads + st.died_threads > st.forks + 1 {
                    return Err(format!("unaccounted threads: {st:?}"));
                }
                // 3. Deliveries never exceed throws plus
                //    deadlock-recovery.
                if st.total_deliveries() > st.throwtos + kills + 4 {
                    return Err(format!("phantom deliveries: {st:?}"));
                }
                // 4. Mask-frame accounting stayed sane.
                match st.max_mask_frames <= st.max_stack_depth.max(2) {
                    true => Ok(()),
                    false => Err(format!("mask frames: {st:?}")),
                }
            })
        });
        prop_assert_eq!(result.expect_pass().explored, 4);
    }
}

/// The same tangle, deterministic, repeated on one runtime instance:
/// reuse must not leak state between runs. Under round-robin every run
/// on the reused runtime is the run a fresh runtime makes, result and
/// statistics alike.
#[test]
fn runtime_reuse_is_clean() {
    let mut fresh = Runtime::new();
    let expected = fresh.run(tangle(4, 6)).expect("run completes");
    assert!((0..=4).contains(&expected));
    let mut rt = Runtime::new();
    for run in 0..5 {
        assert_eq!(rt.run(tangle(4, 6)), Ok(expected), "run {run}");
        assert_eq!(rt.stats(), fresh.stats(), "run {run}");
    }
}

/// A miniature of the tangle — one guarded worker, one killer — but
/// explored *systematically* instead of sampled: every interleaving and
/// every delivery point within bounds, with the same machine invariants
/// asserted on each. Random chaos finds what it finds; this finds
/// everything at its (small) scale.
#[test]
fn mini_tangle_is_sane_on_every_schedule() {
    let cfg = ExploreConfig {
        max_schedules: 50_000,
        ..ExploreConfig::default()
    };
    let result = Explorer::with_config(cfg).check(|| {
        let prog = Io::new_mvar(0_i64).and_then(|counter| {
            Io::fork(modify_mvar(counter, |n| Io::pure(n + 1)).catch(|_| Io::unit()))
                .and_then(|w| Io::throw_to(w, Exception::kill_thread()))
                .then(Io::sleep(10))
                .then(conch_combinators::with_mvar(counter, Io::pure))
        });
        TestCase::new(prog, |out: &RunOutcome<i64>| match &out.result {
            // The kill may land before or after the increment, but the
            // exception-safe modify_mvar must never lose the cell: the
            // final with_mvar read must always succeed.
            Ok(0) | Ok(1) => Ok(()),
            other => Err(format!("counter corrupted or machine wedged: {other:?}")),
        })
    });
    let report = result.expect_pass();
    assert!(report.complete, "mini-tangle must be exhaustive: {report}");
    assert!(report.explored > 1, "expected real branching: {report}");
}
