//! DPOR soundness corpus: dynamic partial-order reduction must be a
//! pure *reduction* — fewer executed schedules, identical verdicts.
//!
//! Every program below whose unbounded sleep-set space is tractable is
//! explored twice, under unbounded `Reduction::SleepSets` and
//! `Reduction::Dpor`, asserting:
//!
//! * the same pass/fail verdict, and on failure the same message and
//!   the byte-identical shrunk certificate;
//! * the identical set of observable outcomes (result + console
//!   output) across all explored schedules — Mazurkiewicz-equivalent
//!   traces agree on both, so dropping redundant interleavings must
//!   not lose (or invent) behaviours;
//! * DPOR explores no more schedules than sleep sets;
//! * every coverage counter — explored, pruned, races detected,
//!   backtracks installed — is bit-identical at workers 1 and 4. (In
//!   this debug build every DPOR run here also asserts the incremental
//!   race analysis equal to the full-recompute reference, inside
//!   `RaceState::analyze`.)
//!
//! The rest (nested timeouts, the actor layer, `Chan` and `Sem` under
//! kills) are checked under sleep sets at preemption bound 2, which
//! completes; where unbounded DPOR completes too, its outcome set must
//! contain the bounded one. Where a brute-force search that prunes
//! nothing finishes, both reductions' outcome sets must equal its own.
//!
//! The corpus covers the paper's load-bearing cases: the §5.3
//! `block(takeMVar)` atomicity argument, §7.1 `bracket` (plus a
//! seeded-bug variant whose failure must be found, shrunk and reported
//! identically), the §7.2 `both`/`either` combinators, asynchronous
//! delivery-point programs, plain MVar/console races, and the
//! `conch-actors` layer (mailbox backpressure, monitor
//! registration/death races, link cascades).

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

use conch_actors::{link, monitor, spawn_actor, ActorRef, Down, Mailbox};
use conch_combinators::{both, bracket, race, timeout, Chan, Either, Sem};
use conch_explore::{ExploreConfig, Explorer, Reduction, RunOutcome, Strategy, TestCase};
use conch_runtime::exception::ExitReason;
use conch_runtime::prelude::*;
use conch_runtime::value::{FromValue, Value};

/// Everything one exploration of one corpus program produced.
struct ModeResult {
    outcomes: BTreeSet<String>,
    explored: usize,
    pruned: usize,
    races_detected: u64,
    backtracks_installed: u64,
    complete: bool,
    /// `(message, shrunk schedule, original schedule)` on failure.
    failure: Option<(String, String, String)>,
}

/// The corpus's bounds. Depth and step budgets are raised above the
/// defaults for the actor-layer programs, whose polling mailboxes run
/// longer threads; programs that fit the defaults explore identically
/// (the limits only matter when hit, and every passing corpus run is
/// `complete`).
fn corpus_config(reduction: Reduction, max_schedules: usize) -> ExploreConfig {
    ExploreConfig {
        max_schedules,
        max_depth: 512,
        step_budget: 100_000,
        strategy: Strategy::Exhaustive(reduction),
        ..ExploreConfig::default()
    }
}

fn run_mode<T: FromValue + Debug + 'static>(
    reduction: Reduction,
    max_schedules: usize,
    program: fn() -> Io<T>,
    fail_if: fn(&RunOutcome<T>) -> Option<String>,
) -> ModeResult {
    let outcomes: Rc<RefCell<BTreeSet<String>>> = Rc::new(RefCell::new(BTreeSet::new()));
    let cfg = corpus_config(reduction, max_schedules);
    let result = Explorer::with_config(cfg).check(|| {
        let outcomes = Rc::clone(&outcomes);
        TestCase::new(program(), move |out: &RunOutcome<T>| {
            outcomes
                .borrow_mut()
                .insert(format!("{:?} | {:?}", out.result, out.output));
            match fail_if(out) {
                Some(msg) => Err(msg),
                None => Ok(()),
            }
        })
    });
    let report = result.report().clone();
    let seen = outcomes.borrow().clone();
    ModeResult {
        outcomes: seen,
        explored: report.explored,
        pruned: report.pruned,
        races_detected: report.stats.races_detected,
        backtracks_installed: report.stats.backtracks_installed,
        complete: report.complete,
        failure: result.failure().map(|f| {
            (
                f.message.clone(),
                f.schedule.to_string(),
                f.original.to_string(),
            )
        }),
    }
}

/// One DPOR exploration's coverage counters at an explicit worker
/// count: [`Explorer::check_parallel`] spawns exactly `workers` OS
/// threads, so the test exercises that many even on a small CI box.
fn dpor_counters<T: FromValue + Debug + 'static>(
    max_schedules: usize,
    workers: usize,
    program: fn() -> Io<T>,
    fail_if: fn(&RunOutcome<T>) -> Option<String>,
) -> (usize, usize, u64, u64) {
    let cfg = corpus_config(Reduction::Dpor, max_schedules);
    let explorer = Explorer::with_config(cfg);
    let factory = move || {
        TestCase::new(program(), move |out: &RunOutcome<T>| match fail_if(out) {
            Some(msg) => Err(msg),
            None => Ok(()),
        })
    };
    let result = if workers == 1 {
        explorer.check(factory)
    } else {
        explorer.check_parallel(workers, factory)
    };
    let report = result.report();
    (
        report.explored,
        report.pruned,
        report.stats.races_detected,
        report.stats.backtracks_installed,
    )
}

/// Explore `program` under both reductions and assert DPOR changed
/// nothing but the schedule count. Returns the shared verdict: the
/// failure message, if `fail_if` fired on some schedule.
fn assert_equiv<T: FromValue + Debug + 'static>(
    name: &str,
    max_schedules: usize,
    program: fn() -> Io<T>,
    fail_if: fn(&RunOutcome<T>) -> Option<String>,
) -> Option<String> {
    let sleep = run_mode(Reduction::default(), max_schedules, program, fail_if);
    let dpor = run_mode(Reduction::Dpor, max_schedules, program, fail_if);
    // A failing exploration is never `complete` (it reports coverage up
    // to the failure); only passing corpus runs must be exhaustive.
    if sleep.failure.is_none() || dpor.failure.is_none() {
        assert!(
            sleep.complete && dpor.complete,
            "{name}: corpus programs must be exhaustively explorable \
             (sleep {}, dpor {})",
            sleep.complete,
            dpor.complete
        );
    }
    assert_eq!(
        sleep.failure.is_some(),
        dpor.failure.is_some(),
        "{name}: verdict diverged"
    );
    if let (Some(s), Some(d)) = (&sleep.failure, &dpor.failure) {
        assert_eq!(s.0, d.0, "{name}: failure message diverged");
        assert_eq!(s.1, d.1, "{name}: shrunk certificate diverged");
    }
    // On a failure each mode stops at its first failing run, so the
    // outcome sets are legitimately partial; only passing (complete)
    // explorations must agree on the full behaviour set.
    if sleep.failure.is_none() {
        assert_eq!(
            sleep.outcomes, dpor.outcomes,
            "{name}: observable behaviours diverged"
        );
    }
    // The schedule-count comparison only makes sense on passes: a
    // failing sleep-set DFS stops at its first failing run, while DPOR
    // deliberately drains its whole fixpoint so the certificate stays
    // a deterministic function of the run set (see `crates/explore`).
    if sleep.failure.is_none() {
        assert!(
            dpor.explored <= sleep.explored,
            "{name}: DPOR explored more ({}) than sleep sets ({})",
            dpor.explored,
            sleep.explored
        );
    }
    // Every coverage counter must be independent of the worker count.
    let sequential = (
        dpor.explored,
        dpor.pruned,
        dpor.races_detected,
        dpor.backtracks_installed,
    );
    let parallel = dpor_counters(max_schedules, 4, program, fail_if);
    assert_eq!(
        parallel, sequential,
        "{name}: DPOR counters diverged at workers=4"
    );
    sleep.failure.map(|(message, _, _)| message)
}

/// Sleep sets at preemption bound 2: the space the programs whose
/// unbounded sleep-set space is intractable (five threads for the
/// nested timeouts, polling mailboxes for the actors) are checked in.
/// Exception-delivery points branch fully whatever the bound, so the
/// asynchronous-exception dimension stays exhaustive within it.
const BOUND_2: Reduction = Reduction::SleepSets {
    preemption_bound: Some(2),
};

/// Explore `program` under [`BOUND_2`], assert the property held and
/// the search completed with `explored` schedules, and return it.
fn assert_bounded<T: FromValue + Debug + 'static>(
    name: &str,
    explored: usize,
    program: fn() -> Io<T>,
    fail_if: fn(&RunOutcome<T>) -> Option<String>,
) -> ModeResult {
    let sleep = run_mode(BOUND_2, 500_000, program, fail_if);
    assert_eq!(sleep.failure, None, "{name}: bound 2");
    assert!(sleep.complete, "{name}: bound 2 must complete");
    assert_eq!(sleep.explored, explored, "{name}: bound-2 schedules");
    sleep
}

/// [`assert_bounded`] for a program whose unbounded DPOR space also
/// completes, in `dpor_explored` schedules: DPOR must pass, see every
/// outcome the bounded search saw, and report the same counters at
/// workers 1 and 4.
fn assert_dpor_covers_bounded<T: FromValue + Debug + 'static>(
    name: &str,
    explored: usize,
    dpor_explored: usize,
    program: fn() -> Io<T>,
    fail_if: fn(&RunOutcome<T>) -> Option<String>,
) {
    let sleep = assert_bounded(name, explored, program, fail_if);
    let dpor = run_mode(Reduction::Dpor, 500_000, program, fail_if);
    assert_eq!(dpor.failure, None, "{name}: unbounded DPOR");
    assert!(dpor.complete, "{name}: unbounded DPOR must complete");
    assert_eq!(dpor.explored, dpor_explored, "{name}: DPOR schedules");
    assert!(
        sleep.outcomes.is_subset(&dpor.outcomes),
        "{name}: bound 2 saw an outcome unbounded DPOR did not"
    );
    let sequential = (
        dpor.explored,
        dpor.pruned,
        dpor.races_detected,
        dpor.backtracks_installed,
    );
    let parallel = dpor_counters(500_000, 4, program, fail_if);
    assert_eq!(
        parallel, sequential,
        "{name}: DPOR counters diverged at workers=4"
    );
}

fn no_failure<T>(_: &RunOutcome<T>) -> Option<String> {
    None
}

// ------------------------------------------------- executed == explored
//
// A search pays for a schedule by building its program, so the factory
// is the one place a run can be counted from outside: an engine that
// executed a schedule it then threw away (as the DPOR rounds once did
// with every registered path on a dirty spine, 2.48x over this corpus)
// calls the factory more often than it reports.

/// Explore `program` under each of `reductions` at workers 1 and 4 and
/// assert the factory was called exactly once per reported run —
/// explored schedules plus shrink replays. The property is the bracket
/// corpus's leak check, so some programs pass, some fail on a few
/// schedules and some on all: the equality is owed either way.
fn assert_one_run_per_schedule<T: FromValue + Debug + 'static>(
    name: &str,
    reductions: &[Reduction],
    program: fn() -> Io<T>,
) {
    for &reduction in reductions {
        for workers in [1, 4] {
            let calls = AtomicUsize::new(0);
            let cfg = corpus_config(reduction, 500_000);
            let result = Explorer::with_config(cfg).check_parallel(workers, || {
                calls.fetch_add(1, Ordering::Relaxed);
                TestCase::new(program(), |out: &RunOutcome<T>| {
                    let a = out.output.matches('a').count();
                    let r = out.output.matches('r').count();
                    (a == r).then_some(()).ok_or_else(|| "leak".to_owned())
                })
            });
            let report = result.report();
            assert_eq!(
                calls.into_inner(),
                report.explored + report.shrink_runs,
                "{name}: {reduction:?} at workers={workers} executed a run it did not report \
                 ({report}, {} shrink runs)",
                report.shrink_runs
            );
        }
    }
}

#[test]
fn the_factory_runs_once_per_reported_run() {
    // Unbounded sleep sets and DPOR where both complete; bound 2, and
    // unbounded DPOR where it completes in under 5 000 schedules, for
    // the rest. Outer_tight's 88 746 DPOR schedules are checked in
    // release, by `corpus_nested_timeout_outer_tight_dpor`.
    let both = &[Reduction::default(), Reduction::Dpor];
    let bounded = &[BOUND_2];
    let bounded_and_dpor = &[BOUND_2, Reduction::Dpor];
    assert_one_run_per_schedule("output_race", both, output_race);
    assert_one_run_per_schedule("three_way_race", both, three_way_race);
    assert_one_run_per_schedule("independent_pairs", both, independent_pairs);
    assert_one_run_per_schedule("block_take", both, block_take);
    assert_one_run_per_schedule("good_bracket", both, good_bracket_under_kill);
    assert_one_run_per_schedule("broken_bracket", both, broken_bracket_under_kill);
    assert_one_run_per_schedule("both", both, both_pair);
    assert_one_run_per_schedule("either", both, either_race);
    assert_one_run_per_schedule("masked_delivery", both, masked_delivery);
    assert_one_run_per_schedule("kill_blocked_worker", both, kill_blocked_worker);
    assert_one_run_per_schedule("timeout_zero", both, timeout_zero);
    assert_one_run_per_schedule("outer_tight", bounded, nested_timeout_outer_tight);
    assert_one_run_per_schedule("inner_wins", bounded, nested_timeout_inner_wins);
    assert_one_run_per_schedule("actor_mailbox_race", bounded_and_dpor, actor_mailbox_race);
    assert_one_run_per_schedule("actor_monitor_race", bounded_and_dpor, actor_monitor_race);
    assert_one_run_per_schedule("actor_link_cascade", bounded_and_dpor, actor_link_cascade);
    assert_one_run_per_schedule("chan_ends_under_kill", bounded, chan_ends_under_kill);
    assert_one_run_per_schedule("chan_send_visible", both, chan_send_is_visible_on_return);
    assert_one_run_per_schedule("sem_under_kill", bounded, sem_under_kill);
}

// ------------------------------------------------- brute-force ground truth
//
// Sleep sets and DPOR both prune, each by its own dependence relation,
// so their agreement shows only that they prune alike. `BruteForce`
// prunes nothing: every step is a decision (`Pick::visible`, no
// fast-forward), and every runnable thread, both delivery arms and
// every oracle arm is a branch the search takes. Its outcome set is the
// reference both engines' sets must equal wherever it finishes under a
// run cap.

/// The decisions of the brute-force search: the alternative taken and
/// how many there were, at every decision of the current path. A run
/// replays the path and takes alternative 0 past its end.
#[derive(Default)]
struct BrutePath {
    path: Vec<(usize, usize)>,
    pos: usize,
}

impl BrutePath {
    fn decide(&mut self, of: usize) -> usize {
        if self.pos == self.path.len() {
            self.path.push((0, of));
        }
        self.pos += 1;
        self.path[self.pos - 1].0
    }

    /// Move to the next path: take the next alternative at the deepest
    /// decision that has one, and forget what came after it. `false`
    /// once every path has been run.
    fn advance(&mut self) -> bool {
        self.pos = 0;
        while let Some((taken, of)) = self.path.pop() {
            if taken + 1 < of {
                self.path.push((taken + 1, of));
                return true;
            }
        }
        false
    }
}

/// Every runnable thread, both delivery arms and every oracle arm.
struct BruteForce(Rc<RefCell<BrutePath>>);

impl Decider for BruteForce {
    fn choose_thread(&mut self, runnable: &[ThreadView], _: Option<ThreadId>) -> Pick {
        Pick::visible(self.0.borrow_mut().decide(runnable.len()))
    }

    fn deliver_now(&mut self, _: ThreadView) -> bool {
        self.0.borrow_mut().decide(2) == 0
    }

    fn choose_arm(&mut self, _: ThreadView, arms: u8) -> u8 {
        self.0.borrow_mut().decide(usize::from(arms)) as u8
    }
}

/// The brute-force run cap: a program with more paths is listed as cut.
const BRUTE_CAP: usize = 200_000;

/// Every `result | output` of `program` on every path, in the corpus's
/// outcome format and under its step budget; `None` when the paths
/// outnumber [`BRUTE_CAP`].
fn brute_force_outcomes<T: FromValue + Debug>(program: fn() -> Io<T>) -> Option<BTreeSet<String>> {
    let path = Rc::new(RefCell::new(BrutePath::default()));
    let mut rt = Runtime::with_config(RuntimeConfig::new().max_steps(100_000));
    rt.set_decider(Box::new(BruteForce(Rc::clone(&path))));
    let mut outcomes = BTreeSet::new();
    for _ in 0..BRUTE_CAP {
        rt.reset();
        let result = rt.run(program());
        outcomes.insert(format!("{result:?} | {:?}", rt.output()));
        if !path.borrow_mut().advance() {
            return Some(outcomes);
        }
    }
    None
}

/// Assert that unbounded sleep sets and DPOR both complete on `program`
/// and see exactly the outcomes the brute-force search sees.
fn assert_ground_truth<T: FromValue + Debug + 'static>(name: &str, program: fn() -> Io<T>) {
    let truth = brute_force_outcomes(program)
        .unwrap_or_else(|| panic!("{name}: more than {BRUTE_CAP} brute-force paths"));
    for reduction in [Reduction::default(), Reduction::Dpor] {
        let mode = run_mode(reduction, 500_000, program, no_failure);
        assert!(mode.complete, "{name}: {reduction:?} must complete");
        assert_eq!(
            mode.outcomes, truth,
            "{name}: {reduction:?} outcomes differ from brute force"
        );
    }
}

#[test]
fn both_reductions_see_exactly_the_brute_force_outcomes() {
    assert_ground_truth("output_race", output_race);
    assert_ground_truth("three_way_race", three_way_race);
    assert_ground_truth("independent_pairs", independent_pairs);
    assert_ground_truth("block_take", block_take);
    assert_ground_truth("good_bracket", good_bracket_under_kill);
    assert_ground_truth("broken_bracket", broken_bracket_under_kill);
    assert_ground_truth("masked_delivery", masked_delivery);
    assert_ground_truth("late_output_after_handoff", late_output_after_handoff);
    assert_ground_truth("late_output_after_fork", late_output_after_fork);
}

/// The rest of the corpus has more than [`BRUTE_CAP`] paths (EXPERIMENTS.md
/// X1 lists them): a program that comes under the cap belongs in the
/// test above.
#[test]
#[ignore = "release"]
fn the_brute_force_cap_cuts_the_rest_of_the_corpus() {
    fn assert_cut<T: FromValue + Debug>(name: &str, program: fn() -> Io<T>) {
        assert!(
            brute_force_outcomes(program).is_none(),
            "{name} has at most {BRUTE_CAP} brute-force paths"
        );
    }
    assert_cut("both", both_pair);
    assert_cut("either", either_race);
    assert_cut("kill_blocked_worker", kill_blocked_worker);
    assert_cut("timeout_zero", timeout_zero);
    assert_cut("chan_send_visible", chan_send_is_visible_on_return);
    assert_cut("outer_tight", nested_timeout_outer_tight);
    assert_cut("inner_wins", nested_timeout_inner_wins);
    assert_cut("actor_mailbox_race", actor_mailbox_race);
    assert_cut("actor_monitor_race", actor_monitor_race);
    assert_cut("actor_link_cascade", actor_link_cascade);
    assert_cut("chan_ends_under_kill", chan_ends_under_kill);
    assert_cut("sem_under_kill", sem_under_kill);
}

// ------------------------------------------- sampling detection harness
//
// PCT sampling must *find* the corpus's seeded bugs — not exhaustively,
// but within a pinned sample budget at a pinned seed, so the assertion
// is deterministic — and the sampled failure must flow through the very
// same certificate machinery as an exhaustive one: the original
// schedule replays the failure in a default (exhaustive-configured)
// explorer, and shrinking lands on the byte-identical minimal
// certificate the sleep-set DFS produces.

/// Sample `program` under `Strategy::Pct` and assert the seeded bug is
/// found within `budget` samples, the certificate replays through the
/// exhaustive machinery, and the shrunk certificate matches the
/// sleep-set reference byte for byte.
fn assert_pct_detects<T: FromValue + Debug + 'static>(
    name: &str,
    depth: usize,
    seed: u64,
    budget: usize,
    program: fn() -> Io<T>,
    fail_if: fn(&RunOutcome<T>) -> Option<String>,
) {
    let case = move || {
        TestCase::new(program(), move |out: &RunOutcome<T>| match fail_if(out) {
            Some(msg) => Err(msg),
            None => Ok(()),
        })
    };
    let sampled = Explorer::with_config(ExploreConfig {
        max_schedules: budget,
        max_depth: 512,
        step_budget: 100_000,
        strategy: Strategy::Pct { depth, seed },
        ..ExploreConfig::default()
    })
    .check(case);
    let failure = sampled.expect_fail();
    let index = failure
        .report
        .first_failing_sample
        .expect("{name}: sampled failures carry their sample index");
    assert!(
        (index as usize) < budget,
        "{name}: first failing sample {index} outside the pinned budget {budget}"
    );
    // Byte-compatibility: an exhaustive-configured explorer replays
    // both certificates — the schedules mention only branch points the
    // enumerator also sees.
    let exhaustive = || {
        Explorer::with_config(ExploreConfig {
            max_schedules: 100_000,
            max_depth: 512,
            step_budget: 100_000,
            ..ExploreConfig::default()
        })
    };
    for schedule in [&failure.original, &failure.schedule] {
        let (_, check) = exhaustive().replay(case(), schedule);
        assert!(
            check.is_err(),
            "{name}: certificate {schedule} must replay the failure exhaustively"
        );
    }
    // And the shrunk certificate is the one the exhaustive search
    // produces: shrinking normalizes whatever sample tripped first down
    // to the same minimal counterexample.
    let reference = exhaustive().check(case);
    let reference = reference.expect_fail();
    assert_eq!(
        failure.schedule, reference.schedule,
        "{name}: sampled shrunk certificate diverged from the exhaustive one"
    );
    assert_eq!(failure.message, reference.message);
}

#[test]
fn pct_detects_output_race() {
    assert_pct_detects("output_race", 3, 0xC0FFEE, 64, output_race, |out| {
        (out.output == "ba").then(|| "child won the race".to_owned())
    });
}

#[test]
fn pct_detects_broken_bracket_leak() {
    // Depth 4 at this seed lands on a sample whose greedy shrink
    // reaches the global minimum (`t1.t1`); shallower streams find the
    // leak just as fast but shrink into a longer local minimum, which
    // would break the byte-equality obligation below.
    assert_pct_detects(
        "broken_bracket",
        4,
        0x63,
        128,
        broken_bracket_under_kill,
        |out| {
            let a = out.output.matches('a').count();
            let r = out.output.matches('r').count();
            (a != r).then(|| format!("leak: acquired {a}, released {r}"))
        },
    );
}

#[test]
fn swarm_detects_the_seeded_bugs_too() {
    // Swarm runs interleaved PCT streams at varied depths; at a pinned
    // seed vector it must still land on both corpus bugs within the
    // same order-of-magnitude budget.
    let strategies = Strategy::Swarm {
        seeds: vec![0xC0FFEE, 0xC0FFEF, 0xC0FFF0, 0xC0FFF1],
    };
    let sampled = Explorer::with_config(ExploreConfig {
        max_schedules: 256,
        max_depth: 512,
        step_budget: 100_000,
        strategy: strategies,
        ..ExploreConfig::default()
    })
    .check(|| {
        TestCase::new(broken_bracket_under_kill(), |out: &RunOutcome<i64>| {
            let a = out.output.matches('a').count();
            let r = out.output.matches('r').count();
            if a != r {
                Err(format!("leak: acquired {a}, released {r}"))
            } else {
                Ok(())
            }
        })
    });
    let failure = sampled.expect_fail();
    assert!(failure.report.first_failing_sample.is_some());
}

// --------------------------------------------------------------- corpus

/// 1. The classic two-thread console race.
fn output_race() -> Io<()> {
    Io::fork(Io::put_char('b'))
        .then(Io::put_char('a'))
        .then(Io::sleep(1))
}

#[test]
fn corpus_output_race() {
    assert_equiv("output_race", 10_000, output_race, no_failure);
}

/// 2. The same race as a seeded failure: both engines must find it,
///    report the same message, and shrink to the same certificate.
#[test]
fn corpus_output_race_failing() {
    assert_equiv("output_race_failing", 10_000, output_race, |out| {
        (out.output == "ba").then(|| "child won the race".to_owned())
    });
}

/// 3. The G5 golden workload: two MVar writers racing a reader plus an
///    async kill (448 schedules under sleep sets).
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

#[test]
fn corpus_three_way_race() {
    assert_equiv("three_way_race", 10_000, three_way_race, no_failure);
}

/// 4. Two independent MVar pairs — the sleep-set showcase; DPOR must
///    not regress it.
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

#[test]
fn corpus_independent_pairs() {
    assert_equiv(
        "independent_pairs",
        10_000,
        independent_pairs,
        |out| match out.result {
            Ok(3) => None,
            ref other => Some(format!("expected Ok(3), got {other:?}")),
        },
    );
}

/// 5. §5.3: `block (takeMVar m)` on a full MVar is atomic — no
///    delivery point may split the take from its continuation.
fn block_take() -> Io<(i64, bool)> {
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
fn corpus_block_take_atomicity() {
    assert_equiv("block_take", 10_000, block_take, |out| match &out.result {
        Ok((_, still_full)) => {
            let took = out.output.contains('t');
            if took && *still_full {
                Some("'t' printed but the MVar still holds a value".into())
            } else if !took && !*still_full {
                Some("MVar drained without completing block(takeMVar)".into())
            } else {
                None
            }
        }
        Err(RunError::Uncaught(_)) => None,
        Err(e) => Some(e.to_string()),
    });
}

/// 6. §7.1: a correct `bracket` under an async kill releases on every
///    schedule.
fn good_bracket_under_kill() -> Io<i64> {
    let body = bracket(
        Io::put_char('a').map(|_| 0_i64),
        |_| Io::put_char('r'),
        |_| Io::pure(1_i64),
    );
    Io::fork(body.map(|_| ()).catch(|_| Io::unit()))
        .and_then(|w| Io::throw_to(w, Exception::kill_thread()))
        .then(Io::sleep(1))
        .map(|_| 0)
}

#[test]
fn corpus_good_bracket() {
    assert_equiv("good_bracket", 50_000, good_bracket_under_kill, |out| {
        let a = out.output.matches('a').count();
        let r = out.output.matches('r').count();
        (a != r).then(|| format!("acquired {a} but released {r} (output {:?})", out.output))
    });
}

/// 7. §7.1 seeded bug: the acquire runs *outside* the protected
///    region, so a kill landing right after it leaks the resource. Both
///    engines must catch it identically.
fn broken_bracket_under_kill() -> Io<i64> {
    let body = Io::put_char('a').map(|_| 0_i64).and_then(|_| {
        Io::block(
            Io::unblock(Io::pure(1_i64))
                .catch(|e| Io::put_char('r').then(Io::throw(e)))
                .and_then(|v| Io::put_char('r').map(move |_| v)),
        )
    });
    Io::fork(body.map(|_| ()).catch(|_| Io::unit()))
        .and_then(|w| Io::throw_to(w, Exception::kill_thread()))
        .then(Io::sleep(1))
        .map(|_| 0)
}

#[test]
fn corpus_broken_bracket_seeded_bug() {
    assert_equiv("broken_bracket", 50_000, broken_bracket_under_kill, |out| {
        let a = out.output.matches('a').count();
        let r = out.output.matches('r').count();
        (a != r).then(|| format!("leak: acquired {a}, released {r}"))
    });
}

/// 8. §7.2 `both`: the pair always materializes, both child orders
///    reachable.
fn both_pair() -> Io<(i64, i64)> {
    both(
        Io::put_char('x').map(|_| 1_i64),
        Io::put_char('y').map(|_| 2_i64),
    )
}

#[test]
fn corpus_both() {
    assert_equiv("both", 50_000, both_pair, |out| match &out.result {
        Ok((1, 2)) => None,
        other => Some(format!("expected Ok((1, 2)), got {other:?}")),
    });
}

/// 9. §7.2 `either`/`race`: exactly one winner on every schedule.
fn either_race() -> Io<Either<char, char>> {
    race(Io::pure('l'), Io::pure('r'))
}

#[test]
fn corpus_either() {
    assert_equiv("either", 100_000, either_race, |out| match &out.result {
        Ok(Either::Left('l')) | Ok(Either::Right('r')) => None,
        other => Some(format!("race produced {other:?}")),
    });
}

/// 10. Delivery points under `block`/`unblock`: the kill may land at
///     several distinct unmasked points (or never); DPOR must see every
///     landing site the full exploration sees.
fn masked_delivery() -> Io<i64> {
    Io::my_thread_id().and_then(|me| {
        Io::fork(Io::throw_to(me, Exception::kill_thread()))
            .then(Io::block(Io::put_char('x').then(Io::put_char('y'))))
            .then(Io::put_char('z'))
            .map(|_| 0_i64)
            .catch(|_| Io::pure(1_i64))
    })
}

#[test]
fn corpus_masked_delivery() {
    assert_equiv("masked_delivery", 10_000, masked_delivery, no_failure);
}

/// 11. A throwTo aimed at a worker blocked on an MVar — the
///     blocked-target dependence rule (the delivery races with the wake-up,
///     not with the target's last executed step).
fn kill_blocked_worker() -> Io<i64> {
    Io::new_empty_mvar::<i64>().and_then(|m| {
        Io::fork(m.take().map(|_| ()).catch(|_| Io::unit())).and_then(move |w| {
            Io::fork(m.put(5))
                .then(Io::throw_to(w, Exception::kill_thread()))
                .then(Io::sleep(2))
                .then(m.try_take().map(|v| v.unwrap_or(-1)))
        })
    })
}

#[test]
fn corpus_kill_blocked_worker() {
    assert_equiv(
        "kill_blocked_worker",
        50_000,
        kill_blocked_worker,
        no_failure,
    );
}

/// 12. §7.3 degenerate budget: `timeout 0` races `sleep 0` against an
///     instant computation. Which side wins is a pure scheduling choice,
///     but on *no* schedule may any timeout exception escape — the §7.3
///     construction has no timeout exception to leak.
fn timeout_zero() -> Io<Option<i64>> {
    timeout(0, Io::pure(7_i64))
}

#[test]
fn corpus_timeout_zero() {
    assert_equiv("timeout_zero", 100_000, timeout_zero, |out| {
        match &out.result {
            Ok(None) | Ok(Some(7)) => None,
            other => Some(format!("timeout(0, pure 7) produced {other:?}")),
        }
    });
}

/// 13. §7.3 nested timeouts, outer tighter (a < b): the action cannot
///     beat the outer clock, so the outer `None` must win on every
///     schedule — the inner timeout's machinery (its own racer, sleeper
///     and kills) must never garble the outer verdict.
fn nested_timeout_outer_tight() -> Io<Option<Option<i64>>> {
    timeout(5, timeout(50, Io::sleep(10).map(|_| 7_i64)))
}

fn outer_fires_first(out: &RunOutcome<Option<Option<i64>>>) -> Option<String> {
    match &out.result {
        Ok(None) => None,
        other => Some(format!("outer timeout must fire first, got {other:?}")),
    }
}

#[test]
fn corpus_nested_timeout_outer_tight() {
    assert_bounded(
        "nested_timeout_outer_tight",
        149,
        nested_timeout_outer_tight,
        outer_fires_first,
    );
}

/// The DPOR half of the test above: its killed timeout threads run
/// before main's exit, and no sound rule can know they never print, so
/// unbounded DPOR takes 88 746 schedules, too many for a debug run. The
/// same 88 746 must each be executed exactly once.
#[test]
#[ignore = "release"]
fn corpus_nested_timeout_outer_tight_dpor() {
    assert_dpor_covers_bounded(
        "nested_timeout_outer_tight",
        149,
        88_746,
        nested_timeout_outer_tight,
        outer_fires_first,
    );
    let dpor = &[Reduction::Dpor];
    assert_one_run_per_schedule("outer_tight", dpor, nested_timeout_outer_tight);
}

/// 14. §7.3 nested timeouts, equal budgets (a == b) with an instant
///     action: the action beats both clocks, so the inner result must
///     come through intact (`Some(Some(7))`) on every schedule — virtual
///     time cannot advance while the action is runnable.
fn nested_timeout_inner_wins() -> Io<Option<Option<i64>>> {
    timeout(5, timeout(5, Io::pure(7_i64)))
}

#[test]
fn corpus_nested_timeout_inner_wins() {
    // Unbounded DPOR does not finish this space in 300 000 schedules.
    assert_bounded(
        "nested_timeout_inner_wins",
        514,
        nested_timeout_inner_wins,
        |out| match &out.result {
            Ok(Some(Some(7))) => None,
            other => Some(format!("inner result must win, got {other:?}")),
        },
    );
}

/// 15. A child that prints after main hands it its last value: main's
///     exit can land before or after the child's `putChar`, so the
///     output is `""` or `"x"`. The exit cuts the child's pending step
///     off; DPOR sees the race only if the child's print is in the log,
///     i.e. if its runs take the child as far as it can go first.
fn late_output_after_handoff() -> Io<i64> {
    Io::new_empty_mvar::<i64>().and_then(|m| {
        Io::fork(m.take().then(Io::put_char('x')))
            .then(m.put(1))
            .map(|_| 7)
    })
}

#[test]
fn corpus_late_output_after_handoff() {
    assert_late_output("late_output_after_handoff", late_output_after_handoff);
}

/// 16. A child forked just before main returns, which allocates a cell
///     and then prints: whether it prints depends only on whether it
///     gets that far before main's exit.
fn late_output_after_fork() -> Io<i64> {
    Io::fork(Io::new_empty_mvar::<i64>().then(Io::put_char('x'))).map(|_| 7)
}

#[test]
fn corpus_late_output_after_fork() {
    assert_late_output("late_output_after_fork", late_output_after_fork);
}

/// [`assert_equiv`] on a late-output program, and DPOR's outcomes are
/// exactly main returning 7 with and without the child's `x`.
fn assert_late_output(name: &str, program: fn() -> Io<i64>) {
    assert_equiv(name, 10_000, program, no_failure);
    let dpor = run_mode(Reduction::Dpor, 10_000, program, no_failure);
    let late = ["Ok(7) | \"\"", "Ok(7) | \"x\""].map(String::from);
    assert_eq!(dpor.outcomes, BTreeSet::from(late), "{name}");
}

// ----------------------------------------------------- actor-layer corpus
//
// The `conch-actors` programs fork actor shells with polling mailboxes,
// so their unbounded sleep-set spaces are intractable; like the nested
// timeouts they are checked under preemption bound 2 (exception
// delivery and mailbox hand-offs still branch fully), and their
// unbounded DPOR spaces complete.

/// Polls until the actor commits an exit reason, coded as an integer
/// (0 normal, 1 killed, 2 crashed by exit signal, 3 crashed).
fn actor_exit_code(a: ActorRef<Value>) -> Io<i64> {
    a.exit_reason().and_then(move |r| match r {
        Some(ExitReason::Normal) => Io::pure(0),
        Some(ExitReason::Killed) => Io::pure(1),
        Some(ExitReason::Crashed(e)) if e.is_exit_signal() => Io::pure(2),
        Some(ExitReason::Crashed(_)) => Io::pure(3),
        None => Io::sleep(25).then(actor_exit_code(a)),
    })
}

/// 17. Mailbox backpressure race: two producers into a capacity-1
///     mailbox — the loser polls for the free slot — and the consumer
///     drains both. Both messages must arrive on every schedule,
///     whichever producer wins the slot.
fn actor_mailbox_race() -> Io<i64> {
    Mailbox::<i64>::new(1).and_then(|mb| {
        Io::fork(mb.send(1))
            .then(Io::fork(mb.send(2)))
            .then(mb.recv())
            .and_then(move |x: i64| mb.recv().map(move |y: i64| x + y))
    })
}

#[test]
fn corpus_actor_mailbox_race() {
    assert_dpor_covers_bounded(
        "actor_mailbox_race",
        12,
        880,
        actor_mailbox_race,
        |out| match &out.result {
            Ok(3) => None,
            other => Some(format!("both messages must arrive, got {other:?}")),
        },
    );
}

/// 18. Monitor registration racing the target's death: the actor exits
///     immediately, so `monitor` may find it alive (Down delivered on
///     death) or already dead (Down delivered retroactively). Either
///     way exactly one Down with the caller's reference arrives.
fn actor_monitor_race() -> Io<i64> {
    Mailbox::<Down>::new(2).and_then(|watcher| {
        spawn_actor(1, |_mb: Mailbox<i64>| Io::unit()).and_then(move |a| {
            monitor(&a, watcher, 11).then(watcher.recv().map(|down: Down| down.mref))
        })
    })
}

#[test]
fn corpus_actor_monitor_race() {
    assert_dpor_covers_bounded(
        "actor_monitor_race",
        3,
        10,
        actor_monitor_race,
        |out| match &out.result {
            Ok(11) => None,
            other => Some(format!("expected the Down(mref 11), got {other:?}")),
        },
    );
}

/// 19. Link cascade: `a` crashes while `b` is blocked in `recv`; the
///     link turns `a`'s crash into an exit signal, so `b` dies
///     crashed-by-signal (code 2) on every schedule — whichever side of
///     the link registration the crash lands on.
fn actor_link_cascade() -> Io<i64> {
    spawn_actor(1, |mb: Mailbox<i64>| mb.recv().map(|_: i64| ())).and_then(|b| {
        spawn_actor(1, |_mb: Mailbox<i64>| {
            Io::throw(Exception::error_call("crash"))
        })
        .and_then(move |a| link(&a, &b).then(actor_exit_code(b.erase())))
    })
}

#[test]
fn corpus_actor_link_cascade() {
    assert_dpor_covers_bounded(
        "actor_link_cascade",
        15,
        4_588,
        actor_link_cascade,
        |out| match &out.result {
            Ok(2) => None,
            other => Some(format!(
                "peer must die crashed-by-signal (2), got {other:?}"
            )),
        },
    );
}

// ------------------------------------------------------------ Chan corpus
//
// Each end of a `Chan` is one masked take→mutate→put with no `unblock`,
// and the only handler sits around `recv`'s stream-cell take. These two
// programs are that design's proof obligations; each fails on one
// deliberately broken variant (no handler in `recv`; `send` releasing
// the write end before it fills the hole). The first is checked under
// preemption bound 2 like the other three-thread programs — kill
// delivery still branches at every step — and unbounded DPOR does not
// finish it in 300 000 schedules.

/// Receives until `last` arrives, returning everything before it.
fn drain_until(ch: Chan<i64>, last: i64, mut acc: Vec<i64>) -> Io<Vec<i64>> {
    ch.recv().and_then(move |v| {
        if v == last {
            Io::pure(acc)
        } else {
            acc.push(v);
            drain_until(ch, last, acc)
        }
    })
}

/// Sends `v` and, once the send has returned, prints it as a digit.
fn send_and_tell(ch: Chan<i64>, v: u8) -> Io<()> {
    ch.send(i64::from(v)).then(Io::put_char((b'0' + v) as char))
}

/// 20. Main kills a sender (items 1 then 2, each announced once its
///     `send` returns) and a receiver (two items, each logged under the
///     same mask as its `recv`, so the receiver cannot die holding one)
///     at every step of both; when all is quiet it sends 99 and reads
///     the channel dry. Returns `(receiver's log, main's drain)`.
fn chan_ends_under_kill() -> Io<(Vec<i64>, Vec<i64>)> {
    Chan::<i64>::new().and_then(|ch| {
        Io::new_mvar(Vec::<i64>::new()).and_then(move |got| {
            let recv = move || {
                Io::block(ch.recv().and_then(move |v| {
                    got.take().and_then(move |mut log| {
                        log.push(v);
                        got.put(log)
                    })
                }))
            };
            let sender = send_and_tell(ch, 1).then(send_and_tell(ch, 2));
            let receiver = recv().then(recv());
            Io::fork(sender.catch(|_| Io::unit())).and_then(move |s| {
                Io::fork(receiver.catch(|_| Io::unit())).and_then(move |r| {
                    Io::throw_to(s, Exception::kill_thread())
                        .then(Io::throw_to(r, Exception::kill_thread()))
                        .then(Io::sleep(1))
                        .then(ch.send(99))
                        .then(drain_until(ch, 99, Vec::new()))
                        .and_then(move |rest| got.take().map(move |got| (got, rest)))
                })
            })
        })
    })
}

#[test]
fn corpus_chan_ends_under_kill() {
    assert_bounded(
        "chan_ends_under_kill",
        9_168,
        chan_ends_under_kill,
        |out| match &out.result {
            Ok((got, rest)) => {
                // FIFO and nothing duplicated: what came out, in order,
                // is a prefix of what the sender put in. Nothing lost:
                // the prefix covers every send that returned.
                let all: Vec<i64> = got.iter().chain(rest).copied().collect();
                let ok = all.len() <= 2 && all == [1, 2][..all.len()];
                (!ok || all.len() < out.output.len()).then(|| {
                    format!(
                        "sends {:?} returned; received {got:?}, then {rest:?}",
                        out.output
                    )
                })
            }
            // A lost end leaves main stuck in its own send or drain.
            Err(e) => Some(e.to_string()),
        },
    );
}

/// 21. Two senders and nobody else receiving: a forked one (item 1,
///     killed by main at every step) races main (item 2). The moment
///     main's own `send` has returned, a `try_recv` must find an item —
///     whatever the other sender is in the middle of. Returns that
///     first item and the rest of the channel.
fn chan_send_is_visible_on_return() -> Io<(Option<i64>, Vec<i64>)> {
    Chan::<i64>::new().and_then(|ch| {
        Io::fork(send_and_tell(ch, 1).catch(|_| Io::unit())).and_then(move |s| {
            Io::throw_to(s, Exception::kill_thread())
                .then(ch.send(2))
                .then(ch.try_recv())
                .and_then(move |first| {
                    Io::sleep(1)
                        .then(ch.send(99))
                        .then(drain_until(ch, 99, Vec::new()))
                        .map(move |rest| (first, rest))
                })
        })
    })
}

#[test]
fn corpus_chan_send_is_visible_on_return() {
    let verdict = assert_equiv(
        "chan_send_is_visible_on_return",
        500_000,
        chan_send_is_visible_on_return,
        |out| match &out.result {
            Ok((first, rest)) => {
                let mut all: Vec<i64> = first.iter().chain(rest).copied().collect();
                all.sort_unstable();
                // Main's item exactly once; the other sender's exactly
                // once if its send returned, at most once if it died.
                let ok = first.is_some() && (all == [2] && out.output.is_empty() || all == [1, 2]);
                (!ok).then(|| {
                    format!(
                        "sends {:?} and main's returned; try_recv {first:?}, then {rest:?}",
                        out.output
                    )
                })
            }
            Err(e) => Some(e.to_string()),
        },
    );
    assert_eq!(verdict, None);
}

// ------------------------------------------------------------- Sem corpus
//
// `Sem`'s operations are masked sections over one `(available, waiters)`
// cell; the only handler sits around the take of a waiter's own wake-up
// cell. The program below is that design's proof obligation, checked
// under preemption bound 2 like the Chan program above (unbounded DPOR
// does not finish it in 300 000 schedules either).

/// 22. Main is the holder: it takes the one unit of `Sem::new(1)` before
///     anyone else runs. A waiter queues for it and a signaller hands it
///     back on main's behalf; each notes success in a cell of its own
///     under the same mask as the operation, so neither can die between
///     the two. Main kills both at every step of both. When all is quiet
///     it reads `available`, gives back what is still out — its own unit
///     if the `signal` never happened, the waiter's if its `wait`
///     returned — and tries a fresh `wait` under a `timeout`. Returns
///     `(available at quiet, waiter got the unit, signal happened, fresh
///     wait succeeded)`.
fn sem_under_kill() -> Io<(i64, bool, bool, bool)> {
    fn give_back(sem: Sem, out: bool) -> Io<()> {
        if out {
            sem.signal()
        } else {
            Io::unit()
        }
    }
    Sem::new(1).and_then(|sem| {
        Io::new_empty_mvar::<()>().and_then(move |got| {
            Io::new_empty_mvar::<()>().and_then(move |given| {
                let waiter = Io::block(sem.wait().then(got.put(())));
                let signaller = Io::block(sem.signal().then(given.put(())));
                sem.wait()
                    .then(Io::fork(waiter.catch(|_| Io::unit())))
                    .and_then(move |w| {
                        Io::fork(signaller.catch(|_| Io::unit())).and_then(move |s| {
                            Io::throw_to(w, Exception::kill_thread())
                                .then(Io::throw_to(s, Exception::kill_thread()))
                                .then(Io::sleep(1))
                                .then(sem.available())
                                .and_then(move |available| {
                                    got.try_take().and_then(move |got| {
                                        given.try_take().and_then(move |given| {
                                            let (got, given) = (got.is_some(), given.is_some());
                                            give_back(sem, !given)
                                                .then(give_back(sem, got))
                                                .then(timeout(1, sem.wait()))
                                                .map(move |fresh| {
                                                    (available, got, given, fresh.is_some())
                                                })
                                        })
                                    })
                                })
                        })
                    })
            })
        })
    })
}

#[test]
fn corpus_sem_under_kill() {
    assert_bounded("sem_under_kill", 4_720, sem_under_kill, |out| {
        match out.result {
            // One unit, wherever it is — banked, with the waiter, or
            // still with the holder — and it can be had again.
            Ok((available, got, given, fresh)) => {
                let held = i64::from(got) + i64::from(!given);
                (available + held != 1 || !fresh).then(|| {
                    format!(
                        "available {available}, waiter holds {got}, signal happened {given}, \
                         fresh wait succeeded {fresh}"
                    )
                })
            }
            Err(ref e) => Some(e.to_string()),
        }
    });
}
