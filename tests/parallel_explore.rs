//! Determinism of parallel schedule exploration.
//!
//! The work-stealing explorer promises (see DESIGN.md) that its results
//! are a function of the schedule space alone, not of how the tree is
//! carved across OS threads: passing reports are bit-identical for any
//! worker count, and failing runs shrink to the byte-identical
//! certificate the sequential DFS would have produced.

use conch_explore::{
    ExploreConfig, Explorer, Reduction, Report, RunOutcome, Schedule, Strategy, TestCase,
};
use conch_pins as pins;
use conch_runtime::exception::Exception;
use conch_runtime::io::{for_each, Io};
use conch_runtime::mvar::MVar;

// `check_parallel` spawns the worker count it is given, so 4 and 8
// genuinely mean 4 and 8 OS threads even on a 1-CPU CI box.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The G5 golden workload (see `tests/golden_traces.rs`): two MVar
/// writers racing a reader, plus an async kill (`pins::G5_EXPLORED`
/// schedules).
fn three_way_race() -> Io<i64> {
    Io::new_empty_mvar::<i64>().and_then(|m| {
        Io::fork(m.put(1))
            .then(Io::fork(m.put(2)))
            .and_then(move |t2| {
                Io::throw_to(t2, Exception::kill_thread())
                    .then(m.take())
                    .catch(|_| Io::pure(-1))
            })
    })
}

/// Two independent MVar pairs — exercises sleep-set pruning, so the
/// `pruned` counter is non-trivial.
fn independent_pairs() -> Io<i64> {
    Io::new_empty_mvar::<i64>().and_then(|a| {
        Io::new_empty_mvar::<i64>().and_then(move |b| {
            Io::fork(a.put(1))
                .then(Io::fork(b.put(2)))
                .then(a.take())
                .and_then(move |x| b.take().map(move |y| x + y))
        })
    })
}

/// The classic two-way output race used by the G4 goldens.
fn output_race() -> Io<()> {
    Io::fork(Io::put_char('b'))
        .then(Io::put_char('a'))
        .then(Io::sleep(1))
}

fn explorer() -> Explorer {
    Explorer::with_config(ExploreConfig {
        max_schedules: 100_000,
        ..ExploreConfig::default()
    })
}

fn passing_report(workers: usize, program: fn() -> Io<i64>) -> Report {
    explorer()
        .check_parallel(workers, || {
            TestCase::new(program(), |out: &RunOutcome<i64>| match out.result {
                Ok(_) => Ok(()),
                Err(ref e) => Err(e.to_string()),
            })
        })
        .expect_pass()
        .clone()
}

#[test]
fn passing_counts_identical_for_every_worker_count() {
    for program in [three_way_race as fn() -> Io<i64>, independent_pairs] {
        // The sequential engine is the reference...
        let sequential = explorer()
            .check(|| {
                TestCase::new(program(), |out: &RunOutcome<i64>| match out.result {
                    Ok(_) => Ok(()),
                    Err(ref e) => Err(e.to_string()),
                })
            })
            .expect_pass()
            .clone();
        assert!(sequential.complete);
        // ...and every worker count reproduces it bit for bit,
        // including merged runtime stats (`Report` is `Eq`).
        for workers in WORKER_COUNTS {
            let parallel = passing_report(workers, program);
            assert_eq!(
                parallel, sequential,
                "report diverged at workers={workers}: {parallel:?} vs {sequential:?}"
            );
        }
    }
}

#[test]
fn pinned_g5_counts_hold_under_parallelism() {
    for workers in WORKER_COUNTS {
        let report = passing_report(workers, three_way_race);
        assert_eq!(report.explored, pins::G5_EXPLORED, "workers={workers}");
        assert_eq!(report.pruned, pins::G5_PRUNED, "workers={workers}");
        assert_eq!(report.truncated, 0, "workers={workers}");
        assert!(report.complete, "workers={workers}");
    }
}

fn racy_case() -> TestCase<()> {
    TestCase::new(output_race(), |out: &RunOutcome<()>| {
        if out.output == "ba" {
            Err("child won the race".to_owned())
        } else {
            Ok(())
        }
    })
}

#[test]
fn failure_certificates_identical_for_every_worker_count() {
    let reference = explorer().check(racy_case);
    let reference = reference.expect_fail();
    for workers in WORKER_COUNTS {
        let result = explorer().check_parallel(workers, racy_case);
        let failure = result.expect_fail();
        assert_eq!(
            failure.schedule, reference.schedule,
            "shrunk certificate diverged at workers={workers}"
        );
        assert_eq!(
            failure.original, reference.original,
            "original certificate diverged at workers={workers}"
        );
        assert_eq!(
            failure.message, reference.message,
            "failure message diverged at workers={workers}"
        );
        // Shrinking starts from the same original, so its cost is
        // identical too.
        assert_eq!(failure.report.shrink_runs, reference.report.shrink_runs);
    }
}

#[test]
fn parallel_find_shrink_replay_round_trip() {
    // Find a race with the parallel engine...
    let result = explorer().check_parallel(4, racy_case);
    let failure = result.expect_fail();
    // ...replay its minimal certificate in a brand-new runtime, twice...
    for _ in 0..2 {
        let (outcome, check) = Explorer::new().replay(racy_case(), &failure.schedule);
        assert_eq!(outcome.output, "ba");
        assert!(check.is_err());
    }
    // ...check it is minimal (every choice is necessary)...
    for i in 0..failure.schedule.len() {
        let mut candidate = failure.schedule.clone();
        candidate.choices.remove(i);
        let (_, check) = Explorer::new().replay(racy_case(), &candidate);
        assert!(
            check.is_ok(),
            "choice {i} of {} is redundant",
            failure.schedule
        );
    }
    // ...and the text form round-trips.
    let parsed: Schedule = failure.schedule.to_string().parse().unwrap();
    assert_eq!(parsed, failure.schedule);
}

#[test]
fn workers_zero_uses_available_parallelism() {
    let report = explorer()
        .check_parallel(0, || {
            TestCase::new(output_race(), |_: &RunOutcome<()>| Ok(()))
        })
        .expect_pass()
        .clone();
    let sequential = explorer()
        .check(|| TestCase::new(output_race(), |_: &RunOutcome<()>| Ok(())))
        .expect_pass()
        .clone();
    assert_eq!(report, sequential);
}

#[test]
fn oversubscribed_workers_are_deterministic() {
    // Far more workers than the space has schedules (or the host has
    // CPUs): most never see an item, and the report is still
    // bit-identical to the sequential reference.
    let oversubscribed = explorer()
        .check_parallel(16, || {
            TestCase::new(output_race(), |_: &RunOutcome<()>| Ok(()))
        })
        .expect_pass()
        .clone();
    let sequential = explorer()
        .check(|| TestCase::new(output_race(), |_: &RunOutcome<()>| Ok(())))
        .expect_pass()
        .clone();
    assert_eq!(oversubscribed, sequential);
}

// Pinned spaces (EXPERIMENTS.md B9 / X1). The counts are functions of
// the programs alone; a change to any of them is a change to what the
// explorer enumerates, not noise.

/// An exhaustive explorer with room for the largest pinned space.
fn space(reduction: Reduction) -> Explorer {
    Explorer::with_config(ExploreConfig {
        max_schedules: 2_000_000,
        strategy: Strategy::Exhaustive(reduction),
        ..ExploreConfig::default()
    })
}

/// Every outcome is accepted: these tests pin the size of a space, and
/// the pipeline's includes wedged runs.
fn any_outcome(program: fn() -> Io<i64>) -> TestCase<i64> {
    TestCase::new(program(), |_: &RunOutcome<i64>| Ok(()))
}

/// B9: three threads, one `MVar`, one `throwTo` — worker 1 increments,
/// worker 2 adds ten, the main thread kills worker 1 somewhere in
/// between and reads what the survivor left.
fn three_thread_mvar_throwto() -> Io<i64> {
    Io::new_mvar(0_i64).and_then(|m| {
        let add = move |k: i64| {
            m.take()
                .and_then(move |n| m.put(n + k))
                .catch(|_| Io::unit())
        };
        Io::fork(add(1)).and_then(move |w1| {
            Io::fork(add(10))
                .then(Io::throw_to(w1, Exception::kill_thread()))
                .then(Io::sleep(5))
                .then(m.take())
        })
    })
}

#[test]
fn pinned_b9_counts_hold_for_every_reduction_bound_and_worker_count() {
    let sleep_sets = |preemption_bound| Reduction::SleepSets { preemption_bound };
    for (reduction, (explored, pruned)) in [
        (sleep_sets(None), pins::B9_SLEEP_SETS),
        (sleep_sets(Some(2)), pins::B9_SLEEP_SETS_BOUND_2),
        (sleep_sets(Some(0)), pins::B9_SLEEP_SETS_BOUND_0),
        (Reduction::Dpor, pins::B9_DPOR),
    ] {
        let sequential = space(reduction)
            .check(|| any_outcome(three_thread_mvar_throwto))
            .expect_pass()
            .clone();
        let counts = (sequential.explored, sequential.pruned, sequential.truncated);
        assert_eq!(counts, (explored, pruned, 0), "{reduction:?}");
        assert!(sequential.complete, "{reduction:?}");
        if reduction == Reduction::Dpor {
            assert!(sequential.stats.races_detected > 0);
            assert!(sequential.stats.backtracks_installed > 0);
        }
        for workers in WORKER_COUNTS {
            let parallel = space(reduction)
                .check_parallel(workers, || any_outcome(three_thread_mvar_throwto))
                .expect_pass()
                .clone();
            assert_eq!(
                parallel, sequential,
                "{reduction:?} diverged at workers={workers}"
            );
        }
    }
}

/// X1: `producers` one-shot threads each putting into a private `MVar`
/// while the main thread writes `logs` characters to the console before
/// collecting — independent of the console, which only DPOR can prove.
fn log_fanin(producers: u64, logs: u64) -> Io<i64> {
    fn build(i: u64, n: u64, logs: u64, acc: Io<i64>) -> Io<i64> {
        if i == n {
            let log = (0..logs).fold(Io::unit(), |log, _| log.then(Io::put_char('.')));
            return log.then(acc);
        }
        Io::new_empty_mvar::<i64>().and_then(move |resp| {
            Io::fork(resp.put(i as i64 + 1)).then(build(
                i + 1,
                n,
                logs,
                acc.and_then(move |sum| resp.take().map(move |v| sum + v)),
            ))
        })
    }
    build(0, producers, logs, Io::pure(0))
}

/// X1: a server thread takes requests from a shared queue for ever,
/// `clients` forked clients each submit one, and the main thread kills
/// the server once it says every request is served (§11 without the
/// HTTP).
fn accept_loop(clients: u64) -> Io<i64> {
    fn server(queue: MVar<i64>, served: MVar<i64>, all: i64, done: MVar<()>) -> Io<()> {
        queue
            .take()
            .and_then(move |v| {
                served.take().and_then(move |s| {
                    let last = if s + v == all {
                        done.put(())
                    } else {
                        Io::unit()
                    };
                    served.put(s + v).then(last)
                })
            })
            .and_then(move |_| server(queue, served, all, done))
    }
    let all = (1 << clients) - 1;
    Io::new_empty_mvar::<i64>().and_then(move |queue| {
        Io::new_mvar(0_i64).and_then(move |served| {
            Io::new_empty_mvar().and_then(move |done| {
                let srv = server(queue, served, all, done).catch(|_| Io::unit());
                Io::fork(srv).and_then(move |srv| {
                    for_each(clients, move |i| Io::fork(queue.put(1 << i)))
                        .then(done.take())
                        .then(Io::throw_to(srv, Exception::kill_thread()))
                        .then(served.take())
                })
            })
        })
    })
}

/// X1: a `stages`-deep `MVar` pipeline whose first stage the main
/// thread kills mid-flight (§5.3 cancellation). Each stage works on its
/// own scratch `MVar` between take and hand-off — free for DPOR, a
/// combinatorial liability for sleep sets. A kill that lands before the
/// first stage installs its `catch` wedges `tail.take()`: not every
/// schedule terminates, and the wedged runs are outcomes like any other.
fn pipeline(stages: u64) -> Io<i64> {
    fn stage(input: MVar<i64>, scratch: MVar<i64>, out: MVar<i64>) -> Io<()> {
        input
            .take()
            .and_then(move |v| {
                scratch
                    .put(v + 1)
                    .then(scratch.take())
                    .and_then(move |v| out.put(v))
            })
            .catch(move |_| out.put(-1).catch(|_| Io::unit()))
    }
    // Scratch cells are allocated before the fork: program order, no race.
    fn extend(input: MVar<i64>, left: u64) -> Io<MVar<i64>> {
        if left == 0 {
            return Io::pure(input);
        }
        Io::new_empty_mvar::<i64>().and_then(move |out| {
            Io::new_empty_mvar::<i64>().and_then(move |scratch| {
                Io::fork(stage(input, scratch, out)).then(extend(out, left - 1))
            })
        })
    }
    Io::new_empty_mvar::<i64>().and_then(move |head| {
        Io::new_empty_mvar::<i64>().and_then(move |m1| {
            Io::new_empty_mvar::<i64>().and_then(move |s1| {
                Io::fork(stage(head, s1, m1)).and_then(move |w1| {
                    extend(m1, stages - 1).and_then(move |tail| {
                        head.put(1)
                            .then(Io::throw_to(w1, Exception::kill_thread()))
                            .then(tail.take())
                    })
                })
            })
        })
    })
}

/// `(explored, pruned, races, backtracks)` of one complete exploration.
fn complete_counts(reduction: Reduction, program: fn() -> Io<i64>) -> (usize, usize, u64, u64) {
    let result = space(reduction).check(|| any_outcome(program));
    let report = result.expect_pass();
    assert!(report.complete && report.truncated == 0, "{report}");
    (
        report.explored,
        report.pruned,
        report.stats.races_detected,
        report.stats.backtracks_installed,
    )
}

#[test]
#[ignore = "release"]
fn pinned_x1_log_fanin_five_threads() {
    let sleep = complete_counts(Reduction::default(), || log_fanin(4, 4));
    let dpor = complete_counts(Reduction::Dpor, || log_fanin(4, 4));
    assert_eq!(sleep, pins::X1_LOG_FANIN_SLEEP_SETS);
    assert_eq!(dpor, pins::X1_LOG_FANIN_DPOR);
    assert!(sleep.0 >= 15 * dpor.0);
}

#[test]
#[ignore = "release"]
fn pinned_x1_accept_loop_two_clients() {
    let sleep = complete_counts(Reduction::default(), || accept_loop(2));
    let dpor = complete_counts(Reduction::Dpor, || accept_loop(2));
    assert_eq!(sleep, pins::X1_ACCEPT_LOOP_SLEEP_SETS);
    assert_eq!(dpor, pins::X1_ACCEPT_LOOP_DPOR);
}

/// DPOR only: sleep sets do not finish this space inside the 2 M cap,
/// and an incomplete baseline asserts nothing.
#[test]
#[ignore = "release"]
fn pinned_x1_pipeline_three_stages() {
    let dpor = complete_counts(Reduction::Dpor, || pipeline(3));
    assert_eq!(dpor, pins::X1_PIPELINE_DPOR);
}

// ---------------------------------------------------------------------
// The same determinism contract must hold under DPOR: each round's
// tree is fixed, insertions are a commutative union, so counters and
// certificates are functions of the schedule space alone (see
// crates/explore/src/dpor.rs).
// ---------------------------------------------------------------------

fn dpor_explorer() -> Explorer {
    Explorer::with_config(ExploreConfig {
        max_schedules: 100_000,
        strategy: Strategy::Exhaustive(Reduction::Dpor),
        ..ExploreConfig::default()
    })
}

#[test]
fn dpor_counts_identical_for_every_worker_count() {
    for program in [three_way_race as fn() -> Io<i64>, independent_pairs] {
        // The sequential engine is the reference; every worker count
        // must reproduce its report bit for bit (`Report` is `Eq`; the
        // wall-clock `timing` field is excluded from equality).
        let sequential = dpor_explorer()
            .check(|| {
                TestCase::new(program(), |out: &RunOutcome<i64>| match out.result {
                    Ok(_) => Ok(()),
                    Err(ref e) => Err(e.to_string()),
                })
            })
            .expect_pass()
            .clone();
        assert!(sequential.complete);
        for workers in WORKER_COUNTS {
            let parallel = dpor_explorer()
                .check_parallel(workers, || {
                    TestCase::new(program(), |out: &RunOutcome<i64>| match out.result {
                        Ok(_) => Ok(()),
                        Err(ref e) => Err(e.to_string()),
                    })
                })
                .expect_pass()
                .clone();
            assert_eq!(
                parallel, sequential,
                "DPOR report diverged at workers={workers}"
            );
        }
    }
}

#[test]
fn dpor_explores_fewer_schedules_than_sleep_sets_on_g5() {
    let sleep = passing_report(1, three_way_race);
    let dpor = dpor_explorer()
        .check(|| {
            TestCase::new(three_way_race(), |out: &RunOutcome<i64>| match out.result {
                Ok(_) => Ok(()),
                Err(ref e) => Err(e.to_string()),
            })
        })
        .expect_pass()
        .clone();
    assert!(sleep.complete && dpor.complete);
    assert!(
        dpor.explored < sleep.explored,
        "DPOR must strictly reduce G5: {} vs {}",
        dpor.explored,
        sleep.explored
    );
    assert!(dpor.stats.races_detected > 0);
    assert!(dpor.stats.backtracks_installed > 0);
}

#[test]
fn dpor_failure_certificates_identical_for_every_worker_count() {
    let check = || {
        Explorer::with_config(ExploreConfig {
            max_schedules: 100_000,
            strategy: Strategy::Exhaustive(Reduction::Dpor),
            ..ExploreConfig::default()
        })
    };
    let reference = check().check(racy_case);
    let reference = reference.expect_fail();
    for workers in WORKER_COUNTS {
        let result = check().check_parallel(workers, racy_case);
        let failure = result.expect_fail();
        assert_eq!(
            failure.schedule, reference.schedule,
            "DPOR shrunk certificate diverged at workers={workers}"
        );
        assert_eq!(failure.original, reference.original);
        assert_eq!(failure.message, reference.message);
        // DPOR drains its whole fixpoint before shrinking, so even the
        // coverage counters of a failing search are deterministic.
        assert_eq!(
            failure.report, reference.report,
            "DPOR failing report diverged at workers={workers}"
        );
    }
}

// ---------------------------------------------------------------------
// Sampling strategies share the determinism contract: a sample's
// schedule is a pure function of (strategy, index), workers claim
// indices from a shared counter and always drain the whole budget, so
// reports and certificates are bit-identical for every worker count.
// ---------------------------------------------------------------------

fn sampling_strategies() -> Vec<Strategy> {
    vec![
        Strategy::Pct {
            depth: 3,
            seed: 0xC0FFEE,
        },
        Strategy::Pct { depth: 1, seed: 1 },
    ]
}

fn sampler(strategy: Strategy, samples: usize) -> Explorer {
    Explorer::with_config(ExploreConfig {
        max_schedules: samples,
        strategy,
        ..ExploreConfig::default()
    })
}

#[test]
fn sampled_passing_reports_identical_for_every_worker_count() {
    for strategy in sampling_strategies() {
        let reference = sampler(strategy.clone(), 64)
            .check(|| {
                TestCase::new(three_way_race(), |out: &RunOutcome<i64>| match out.result {
                    Ok(_) => Ok(()),
                    Err(ref e) => Err(e.to_string()),
                })
            })
            .expect_pass()
            .clone();
        assert!(!reference.complete, "sampling never claims coverage");
        assert_eq!(reference.stats.sampled, 64);
        for workers in WORKER_COUNTS {
            let parallel = sampler(strategy.clone(), 64)
                .check_parallel(workers, || {
                    TestCase::new(three_way_race(), |out: &RunOutcome<i64>| match out.result {
                        Ok(_) => Ok(()),
                        Err(ref e) => Err(e.to_string()),
                    })
                })
                .expect_pass()
                .clone();
            assert_eq!(
                parallel, reference,
                "sampled report diverged at workers={workers} under {strategy:?}"
            );
        }
    }
}

#[test]
fn sampled_failure_certificates_identical_for_every_worker_count() {
    for strategy in sampling_strategies() {
        let reference = sampler(strategy.clone(), 256).check(racy_case);
        let reference = reference.expect_fail();
        let first = reference
            .report
            .first_failing_sample
            .expect("a sampled failure must carry its sample index");
        for workers in WORKER_COUNTS {
            let result = sampler(strategy.clone(), 256).check_parallel(workers, racy_case);
            let failure = result.expect_fail();
            assert_eq!(
                failure.report.first_failing_sample,
                Some(first),
                "earliest failing sample diverged at workers={workers} under {strategy:?}"
            );
            assert_eq!(
                failure.schedule, reference.schedule,
                "sampled shrunk certificate diverged at workers={workers} under {strategy:?}"
            );
            assert_eq!(failure.original, reference.original);
            assert_eq!(failure.message, reference.message);
            assert_eq!(
                failure.report, reference.report,
                "sampled failing report diverged at workers={workers} under {strategy:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// A panicking worker stops the search under every engine: its peers
// drain out and the caller sees the worker's own panic.
// ---------------------------------------------------------------------

/// The panic message `check_parallel(4, …)` dies with when the property
/// panics on the first run executed (and passes on every other), plus
/// how many test cases the factory built in total.
fn panic_on_first_run(config: ExploreConfig) -> (String, usize) {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    let built = AtomicUsize::new(0);
    let first = AtomicBool::new(true);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Explorer::with_config(config).check_parallel(4, || {
            built.fetch_add(1, Ordering::Relaxed);
            let boom = first.swap(false, Ordering::Relaxed);
            TestCase::new(output_race(), move |_: &RunOutcome<()>| {
                assert!(!boom, "the property exploded");
                Ok(())
            })
        })
    }));
    let panic = outcome.expect_err("the worker's panic must reach the caller");
    let message = panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .expect("a panic message");
    (message, built.load(Ordering::Relaxed))
}

#[test]
fn a_panicking_worker_stops_every_engine() {
    for strategy in [
        Strategy::default(),
        Strategy::Exhaustive(Reduction::Dpor),
        Strategy::Pct { depth: 2, seed: 1 },
    ] {
        let (message, _) = panic_on_first_run(ExploreConfig {
            max_schedules: 1_000,
            strategy: strategy.clone(),
            ..ExploreConfig::default()
        });
        assert!(
            message.contains("the property exploded"),
            "wrong panic under {strategy:?}: {message}"
        );
    }
}

#[test]
fn a_panicking_sampler_does_not_drain_the_budget() {
    // Without the stop the three surviving workers would draw all
    // 200 000 samples before the panic could propagate; with it they
    // draw the few thousand that fit in the time one thread unwinds.
    let budget = 200_000;
    let (message, built) = panic_on_first_run(ExploreConfig {
        max_schedules: budget,
        strategy: Strategy::Pct { depth: 2, seed: 1 },
        ..ExploreConfig::default()
    });
    assert!(
        built < budget / 2,
        "peers kept sampling after the panic: {built} cases built"
    );
    assert!(message.contains("the property exploded"), "{message}");
}
