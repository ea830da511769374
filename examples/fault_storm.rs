//! Sampling a fault × schedule space against the httpd server, and
//! checking it recovers on every sampled run.
//!
//! Run with `cargo run --release --example fault_storm`.
//!
//! Two canonical spaces from [`conch::faults::spaces`] are sampled
//! with PCT (128 runs at depth 3 each). Neither finishes under an
//! exhaustive search: sleep sets at preemption bound 2 leave the
//! connection space incomplete at 100 000 schedules. A sample
//! certifies only the runs it drew, so the reports say `complete:
//! false`; a violation would come with a replayable certificate.
//!
//! * **connection faults** — one client visit where the injector
//!   chooses, as an explorer branch point, between a healthy request,
//!   dropping the connection, stalling forever, closing mid-request,
//!   and sending garbage;
//! * **kill storm** — a stalled connection parks a worker mid-read,
//!   then the explorer decides where a `throwTo KillThread` storm
//!   lands.
//!
//! On every sampled run, whichever fault arm it took, three invariants
//! are checked after the quiescent audit (`shutdown_sync → drain →
//! snapshot`):
//!
//! 1. **still serving** — a healthy probe sent after the fault episode
//!    is answered `200`;
//! 2. **no leaks** — `drain` terminates with `active == 0`: no worker
//!    thread or connection outlives its request;
//! 3. **conservation** — `accepted == served + timed-out + errored +
//!    aborted + killed + shed`: every accepted connection gets exactly
//!    one outcome, wherever the kill landed.
//!
//! Each space is then re-sampled on 4 workers and the reports are
//! asserted bit-identical — sample `i` is a pure function of the seed
//! and `i`, whatever the worker count.

use conch::explore::{
    CheckResult, ExploreConfig, Explorer, Report, RunOutcome, Strategy, TestCase,
};
use conch::faults::spaces::{conn_fault_space, holds_invariants, storm_space};
use conch::httpd::server::StatsSnapshot;
use conch::runtime::io::Io;

type Space = fn() -> Io<(i64, i64, StatsSnapshot)>;

fn check(out: &RunOutcome<(i64, i64, StatsSnapshot)>) -> Result<(), String> {
    match &out.result {
        Ok(v) => holds_invariants(v),
        Err(e) => Err(format!("run failed: {e:?}")),
    }
}

fn explore(space: Space, workers: usize) -> Report {
    let explorer = Explorer::with_config(ExploreConfig {
        max_schedules: 128,
        max_depth: 512,
        step_budget: 100_000,
        strategy: Strategy::Pct {
            depth: 3,
            seed: 0xC0FFEE,
        },
        ..ExploreConfig::default()
    });
    let result = if workers == 1 {
        explorer.check(|| TestCase::new(space(), check))
    } else {
        explorer.check_parallel(workers, move || TestCase::new(space(), check))
    };
    match result {
        CheckResult::Passed(report) => *report,
        CheckResult::Failed(f) => {
            println!("invariant VIOLATED: {}", f.message);
            println!("  shrunk certificate: {}", f.schedule);
            std::process::exit(1);
        }
    }
}

fn main() {
    for (name, space) in [
        ("connection faults", conn_fault_space as Space),
        ("kill storm", storm_space as Space),
    ] {
        println!("== {name} ==");
        let sequential = explore(space, 1);
        assert!(
            !sequential.complete,
            "a sample certifies no schedule it did not draw: {sequential:?}"
        );
        assert!(
            sequential.faults_injected > 0,
            "the fault arms must actually be visited: {sequential:?}"
        );
        println!(
            "  sampled {} schedules ({} faults injected), complete: {}",
            sequential.explored, sequential.faults_injected, sequential.complete,
        );
        println!("  invariants held on every sampled run: still serving (probe answered 200),");
        println!("  no leaked workers or connections (drained to active == 0),");
        println!("  counters conserved (accepted == outcomes).");

        let parallel = explore(space, 4);
        assert_eq!(
            sequential, parallel,
            "coverage must be bit-identical across engines"
        );
        println!("  4-worker engine: identical report, bit for bit.\n");
    }
    println!("both fault × schedule spaces sampled with no violation.");
}
