//! Golden-trace corpus: byte-exact determinism pins for the runtime and
//! the schedule explorer.
//!
//! Every value asserted here was captured from the runtime *before* the
//! hot-path optimisations (scratch-buffer scheduling decisions, cached
//! footprints, run-queue tombstoning, thread-slot reclamation) landed.
//! The optimisations must not change a single observable byte: rendered
//! traces, console output, step counts, schedule-space sizes and shrunk
//! failure certificates are all pinned exactly. If any assertion in this
//! file fires, a perf change has altered observable scheduling
//! behaviour — that is a semantics regression, not a test to update
//! casually.
//!
//! To regenerate after an *intentional* semantics change:
//!
//! ```text
//! cargo test --test golden_traces -- --ignored --nocapture print_golden_values
//! ```

use conch_combinators::timeout;
use conch_explore::{ExploreConfig, Explorer, RunOutcome, TestCase};
use conch_pins as pins;
use conch_runtime::prelude::*;
use conch_runtime::trace::render_trace;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

// ---------------------------------------------------------------------
// Corpus programs
// ---------------------------------------------------------------------

/// G1: masked fork + async kill + MVar hand-off under round-robin.
fn g1_program() -> Io<i64> {
    Io::new_empty_mvar::<i64>().and_then(|m| {
        let child = Io::<()>::unblock(Io::put_char('x').then(m.put(1)).map(|_| ()));
        Io::<ThreadId>::block(Io::fork(child)).and_then(move |c| {
            Io::put_char('y')
                .then(Io::sleep(5))
                .then(Io::throw_to(c, Exception::kill_thread()))
                .then(m.take())
        })
    })
}

/// G2: console echo across two threads, with `getChar` blocking.
fn g2_program() -> Io<()> {
    Io::fork(Io::get_char().and_then(Io::put_char))
        .then(Io::sleep(3))
        .then(Io::get_char())
        .and_then(Io::put_char)
        .then(Io::put_char('!'))
}

/// G3: a three-way counter race, on every schedule the explorer runs.
fn g3_program() -> Io<i64> {
    Io::new_mvar(0_i64).and_then(|m| {
        let bump = move || m.take().and_then(move |n| m.put(n + 1));
        Io::fork(bump().then(bump()))
            .then(Io::fork(bump()))
            .then(Io::sleep(1_000))
            .then(m.take())
    })
}

/// G6: httpd-style churn — a sequential loop of expiring timeouts, each
/// killing a sleeper mid-sleep (the stale-sleeper-entry stress case).
fn g6_program(n: u64) -> Io<()> {
    if n == 0 {
        Io::unit()
    } else {
        timeout(5, Io::sleep(50)).and_then(move |_| g6_program(n - 1))
    }
}

/// The explorer race used for the certificate goldens (G4).
fn g4_program() -> Io<()> {
    Io::fork(Io::put_char('b'))
        .then(Io::put_char('a'))
        .then(Io::sleep(1))
}

/// The three-thread workload whose full schedule space is pinned (G5):
/// two MVar writers racing a reader, plus an async kill. This is the
/// same shape as the `schedules` bench workload.
fn g5_program() -> Io<i64> {
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

// ---------------------------------------------------------------------
// Capture helpers
// ---------------------------------------------------------------------

struct RunGolden {
    trace: String,
    output: String,
    steps: u64,
    context_switches: u64,
    clock: u64,
}

fn run_golden<T: FromValue>(config: RuntimeConfig, input: &str, program: Io<T>) -> RunGolden {
    let mut rt = Runtime::with_config(config);
    rt.feed_input(input);
    rt.run(program).expect("golden corpus program must succeed");
    RunGolden {
        trace: render_trace(rt.io_trace()),
        output: rt.output().to_owned(),
        steps: rt.stats().steps,
        context_switches: rt.stats().context_switches,
        clock: rt.clock(),
    }
}

fn g1_golden() -> RunGolden {
    run_golden(
        RuntimeConfig::new().record_sched_events(true),
        "",
        g1_program(),
    )
}

fn g2_golden() -> RunGolden {
    run_golden(
        RuntimeConfig::new().record_sched_events(true),
        "hi",
        g2_program(),
    )
}

/// G3: every schedule of the counter race, as the explored-schedule
/// count and the distinct (result, rendered trace) outcomes it reached.
fn g3_golden() -> (usize, BTreeSet<(i64, String)>) {
    let outcomes = Rc::new(RefCell::new(BTreeSet::new()));
    let result = Explorer::with_config(ExploreConfig {
        runtime: RuntimeConfig::new().record_sched_events(true),
        ..ExploreConfig::default()
    })
    .check(|| {
        let outcomes = Rc::clone(&outcomes);
        TestCase::new(g3_program(), move |out: &RunOutcome<i64>| {
            let n = out.result.clone().map_err(|e| e.to_string())?;
            outcomes.borrow_mut().insert((n, render_trace(out.trace())));
            Ok(())
        })
    });
    let report = result.expect_pass();
    assert!(report.complete, "{report}");
    (report.explored, outcomes.take())
}

fn g6_golden() -> RunGolden {
    run_golden(RuntimeConfig::new(), "", g6_program(40))
}

/// G4: find the race, shrink it, and report the certificate.
fn g4_golden() -> (String, String, usize, usize, bool) {
    let result = Explorer::new().check(|| {
        TestCase::new(g4_program(), |out: &RunOutcome<()>| {
            if out.output == "ba" {
                Err("child won the race".into())
            } else {
                Ok(())
            }
        })
    });
    let failure = result.expect_fail();
    (
        failure.schedule.to_string(),
        failure.message.clone(),
        failure.report.explored,
        failure.report.shrink_runs,
        failure.report.complete,
    )
}

/// G4b: the same race with the property inverted, so the first explored
/// schedule passes and the certificate is a non-empty choice list.
fn g4b_golden() -> (String, String, usize, usize) {
    let result = Explorer::new().check(|| {
        TestCase::new(g4_program(), |out: &RunOutcome<()>| {
            if out.output == "ab" {
                Err("main won the race".into())
            } else {
                Ok(())
            }
        })
    });
    let failure = result.expect_fail();
    (
        failure.schedule.to_string(),
        failure.original.to_string(),
        failure.report.explored,
        failure.report.shrink_runs,
    )
}

/// G5: the full (unbounded) schedule space of the three-thread workload.
fn g5_golden() -> (usize, usize, usize, bool) {
    let result = Explorer::with_config(ExploreConfig {
        max_schedules: 100_000,
        ..ExploreConfig::default()
    })
    .check(|| {
        TestCase::new(g5_program(), |out: &RunOutcome<i64>| match out.result {
            Ok(_) => Ok(()),
            Err(ref e) => Err(e.to_string()),
        })
    });
    let report = result.expect_pass();
    (
        report.explored,
        report.pruned,
        report.truncated,
        report.complete,
    )
}

// ---------------------------------------------------------------------
// The pinned goldens
// ---------------------------------------------------------------------

const G1_TRACE: &str = "[t0#b][t0+t1][t1#u]!x!y[t0*sleep]$5[t0^t1]";
const G1_OUTPUT: &str = "xy";
const G1_STEPS: u64 = 29;
const G1_SWITCHES: u64 = 3;

const G2_TRACE: &str = "[t0+t1][t0*sleep]?h!h$3?i!i!!";
const G2_OUTPUT: &str = "hi!";
const G2_STEPS: u64 = 19;

const G3_OUTCOMES: &[(i64, &str)] = &[
    (3, "[t0+t1][t0+t2][t0*sleep]$1000"),
    (3, "[t0+t1][t0+t2][t0*sleep][t1*takeMVar]$1000"),
    (3, "[t0+t1][t0+t2][t0*sleep][t2*takeMVar]$1000"),
    (3, "[t0+t1][t0+t2][t0*sleep][t2*takeMVar][t1*takeMVar]$1000"),
    (3, "[t0+t1][t0+t2][t1*takeMVar][t0*sleep]$1000"),
    (3, "[t0+t1][t0+t2][t2*takeMVar][t0*sleep]$1000"),
    (3, "[t0+t1][t0+t2][t2*takeMVar][t1*takeMVar][t0*sleep]$1000"),
];

const G4_SCHEDULE: &str = "";
const G4_MESSAGE: &str = "child won the race";

const G4B_SCHEDULE: &str = "t0";
const G4B_ORIGINAL: &str = "t0.t1.t0";

const G6_TRACE: &str =
    "$5$5$5$5$5$5$5$5$5$5$5$5$5$5$5$5$5$5$5$5$5$5$5$5$5$5$5$5$5$5$5$5$5$5$5$5$5$5$5$5";
const G6_STEPS: u64 = 1842;
const G6_CLOCK: u64 = 200;

#[test]
fn g1_round_robin_masked_kill_is_byte_identical() {
    let g = g1_golden();
    assert_eq!(g.trace, G1_TRACE);
    assert_eq!(g.output, G1_OUTPUT);
    assert_eq!(g.steps, G1_STEPS);
    assert_eq!(g.context_switches, G1_SWITCHES);
}

#[test]
fn g2_console_echo_is_byte_identical() {
    let g = g2_golden();
    assert_eq!(g.trace, G2_TRACE);
    assert_eq!(g.output, G2_OUTPUT);
    assert_eq!(g.steps, G2_STEPS);
}

#[test]
fn g3_counter_race_outcomes_are_byte_identical() {
    let (explored, outcomes) = g3_golden();
    assert_eq!(explored, pins::G3_EXPLORED);
    let outcomes: Vec<_> = outcomes.iter().map(|(n, t)| (*n, t.as_str())).collect();
    assert_eq!(outcomes, G3_OUTCOMES);
}

#[test]
fn g4_shrunk_explorer_certificate_is_byte_identical() {
    let (schedule, message, explored, shrink_runs, complete) = g4_golden();
    assert_eq!(schedule, G4_SCHEDULE);
    assert_eq!(message, G4_MESSAGE);
    assert_eq!(explored, pins::G4_EXPLORED);
    assert_eq!(shrink_runs, pins::G4_SHRINK_RUNS);
    assert!(!complete, "a failure stops exploration early");
    // The certificate replays to the same failing outcome.
    let schedule: conch_explore::Schedule = schedule.parse().expect("certificate parses");
    let (outcome, _) = Explorer::new().replay(
        TestCase::new(g4_program(), |_: &RunOutcome<()>| Ok(())),
        &schedule,
    );
    assert_eq!(outcome.output, "ba");
}

#[test]
fn g4b_nonempty_certificate_is_byte_identical() {
    let (schedule, original, explored, shrink_runs) = g4b_golden();
    assert_eq!(schedule, G4B_SCHEDULE);
    assert_eq!(original, G4B_ORIGINAL);
    assert_eq!(explored, pins::G4B_EXPLORED);
    assert_eq!(shrink_runs, pins::G4B_SHRINK_RUNS);
    // The certificate replays to the same failing outcome.
    let schedule: conch_explore::Schedule = schedule.parse().expect("certificate parses");
    let (outcome, _) = Explorer::new().replay(
        TestCase::new(g4_program(), |_: &RunOutcome<()>| Ok(())),
        &schedule,
    );
    assert_eq!(outcome.output, "ab");
}

#[test]
fn g5_schedule_space_is_exactly_reproduced() {
    let (explored, pruned, truncated, complete) = g5_golden();
    assert_eq!(explored, pins::G5_EXPLORED);
    assert_eq!(pruned, pins::G5_PRUNED);
    assert_eq!(truncated, 0);
    assert!(complete);
}

#[test]
fn g6_timeout_churn_is_byte_identical() {
    let g = g6_golden();
    assert_eq!(g.trace, G6_TRACE);
    assert_eq!(g.steps, G6_STEPS);
    assert_eq!(g.clock, G6_CLOCK);
}

/// Prints the current values of every golden in paste-ready form; the
/// `pub const` lines are explorer counts and go to `crates/pins`.
#[test]
#[ignore = "generator: run with --ignored --nocapture to re-capture"]
fn print_golden_values() {
    let g1 = g1_golden();
    let g2 = g2_golden();
    let g3 = g3_golden();
    let (g4s, g4m, g4e, g4sr, _) = g4_golden();
    let (g4bs, g4bo, g4be, g4bsr) = g4b_golden();
    let (g5e, g5p, _, _) = g5_golden();
    let g6 = g6_golden();
    println!("const G1_TRACE: &str = {:?};", g1.trace);
    println!("const G1_OUTPUT: &str = {:?};", g1.output);
    println!("const G1_STEPS: u64 = {};", g1.steps);
    println!("const G1_SWITCHES: u64 = {};", g1.context_switches);
    println!();
    println!("const G2_TRACE: &str = {:?};", g2.trace);
    println!("const G2_OUTPUT: &str = {:?};", g2.output);
    println!("const G2_STEPS: u64 = {};", g2.steps);
    println!();
    println!("pub const G3_EXPLORED: usize = {};", g3.0);
    println!(
        "const G3_OUTCOMES: &[(i64, &str)] = &{:?};",
        g3.1.iter().collect::<Vec<_>>()
    );
    println!();
    println!("const G4_SCHEDULE: &str = {g4s:?};");
    println!("const G4_MESSAGE: &str = {g4m:?};");
    println!("pub const G4_EXPLORED: usize = {g4e};");
    println!("pub const G4_SHRINK_RUNS: usize = {g4sr};");
    println!();
    println!("const G4B_SCHEDULE: &str = {g4bs:?};");
    println!("const G4B_ORIGINAL: &str = {g4bo:?};");
    println!("pub const G4B_EXPLORED: usize = {g4be};");
    println!("pub const G4B_SHRINK_RUNS: usize = {g4bsr};");
    println!();
    println!("pub const G5_EXPLORED: usize = {g5e};");
    println!("pub const G5_PRUNED: usize = {g5p};");
    println!();
    println!("const G6_TRACE: &str = {:?};", g6.trace);
    println!("const G6_STEPS: u64 = {};", g6.steps);
    println!("const G6_CLOCK: u64 = {};", g6.clock);
}
