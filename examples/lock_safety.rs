//! The §5.1 locking race, demonstrated empirically (experiment E1's
//! runtime half).
//!
//! Run with `cargo run --example lock_safety`.
//!
//! A worker updates an `MVar`-protected counter while a killer thread
//! fires `KillThread` at it. The schedule explorer runs every schedule
//! and every delivery point of the kill for three variants:
//!
//! * the paper's **naive** pattern (`takeMVar`/`catch`/`putMVar`), which
//!   has race windows where the lock is lost;
//! * the paper's **safe** pattern (`block` + `unblock` + interruptible
//!   `takeMVar`), which has none;
//! * the **masked** variant (§7.4) for mutable structures.
//!
//! The naive variant's failure is shrunk to a minimal schedule that
//! replays the lost lock; the other two pass on the whole space.

use conch::prelude::*;
use conch_combinators::{modify_mvar_masked, modify_mvar_naive};
use conch_explore::{CheckResult, ExploreConfig, Explorer, RunOutcome, TestCase};
use conch_runtime::io::Io;

/// One trial's program: `true` if the lock survived (MVar full
/// afterwards).
fn trial(which: Variant) -> Io<bool> {
    Io::new_mvar(0_i64).and_then(move |m| {
        let body = |n: i64| Io::compute(20).then(Io::pure(n + 1));
        let update = match which {
            Variant::Naive => modify_mvar_naive(m, body),
            Variant::Safe => modify_mvar(m, body),
            Variant::Masked => modify_mvar_masked(m, body),
        };
        let worker = update.catch(|_| Io::unit());
        Io::fork(worker).and_then(move |w| {
            Io::throw_to(w, Exception::kill_thread())
                .then(Io::sleep(100_000)) // let the dust settle
                .then(m.try_take())
                .map(|contents| contents.is_some())
        })
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    Naive,
    Safe,
    Masked,
}

fn check(which: Variant) -> CheckResult {
    let explorer = Explorer::with_config(ExploreConfig {
        max_depth: 128,
        ..ExploreConfig::default()
    });
    explorer.check(|| {
        TestCase::new(trial(which), |out: &RunOutcome<bool>| match out.result {
            Ok(true) => Ok(()),
            ref other => Err(format!("lock lost: {other:?}")),
        })
    })
}

fn main() {
    let naive = check(Variant::Naive);
    let failure = naive.expect_fail();
    println!(
        "naive  (§5.1): lock lost after {} schedules, minimal certificate {:?}  <- the race the paper describes",
        failure.report.explored,
        failure.schedule.to_string()
    );
    for (which, name, why) in [
        (
            Variant::Safe,
            "safe   (§5.2)",
            "block/unblock closes every window",
        ),
        (
            Variant::Masked,
            "masked (§7.4)",
            "update runs to completion",
        ),
    ] {
        let result = check(which);
        let report = result.expect_pass();
        assert!(report.complete, "{name}: {report}");
        println!(
            "{name}: lock kept on all {} schedules  <- {why}",
            report.explored
        );
    }

    // The certificate replays to the lost lock in a fresh runtime.
    let (outcome, _) = Explorer::new().replay(
        TestCase::new(trial(Variant::Naive), |_: &RunOutcome<bool>| Ok(())),
        &failure.schedule,
    );
    assert_eq!(outcome.result, Ok(false), "the certificate must replay");
    println!("verdict: reproduction of §5.1 confirmed — only the naive pattern races");
}
