//! Fault × schedule exploration: the tentpole integration tests.
//!
//! Each test explores one of the canonical spaces from
//! [`conch_faults::spaces`], where every injection site is an
//! `Io::choose` branch point, so `conch-explore` searches the
//! *product* of fault decisions and scheduling decisions. Where sleep
//! sets at preemption bound 2 finish that product (the actor and
//! cross-shard spaces), the search is exhaustive and its counts are
//! pinned; the four httpd spaces do not finish in a million schedules,
//! so they are PCT-sampled with a pinned budget and never claim
//! `complete`. The properties checked on every explored run are the
//! recovery invariants the server is hardened for:
//!
//! * **conservation** — after the server drains,
//!   `accepted == served + timed-out + errored + aborted + killed + shed`
//!   and `active == 0`: no connection's outcome is lost or
//!   double-counted, whatever fault fired and wherever `KillThread`
//!   landed;
//! * **no leaks** — `drain` terminates (so the active count really
//!   reaches zero) on every explored run, and an exhaustive search is
//!   `complete` (no run was cut off by depth or step budgets while
//!   threads still held resources);
//! * **liveness after faults** — a healthy probe sent after the fault
//!   sequence is answered `200` on every explored run;
//! * **the episode's own outcome** — the fault that fired moved exactly
//!   the counter it should: a stall times out, a garbage request is a
//!   parse error, a strike is recorded as a kill. A sampled space must
//!   also see every episode outcome it has: a spared and a struck run.
//!
//! Each space is explored twice — sequential engine and 4-worker
//! work-stealing engine — and the coverage reports must be equal, the
//! determinism contract extended to fault branch points.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use conch_explore::{ExploreConfig, Explorer, Reduction, Report, RunOutcome, Strategy, TestCase};
use conch_faults::spaces::{
    actor_space, conn_fault_space, cross_shard_kill_space, holds_actor_invariants,
    holds_cross_shard_invariants, holds_invariants, sharded_pipeline_space, storm_space,
    supervised_pool_space,
};
use conch_faults::{prepared_connection, ConnFault};
use conch_httpd::http::Response;
use conch_httpd::net::Listener;
use conch_httpd::pool::{start_pooled, PoolConfig};
use conch_httpd::server::{handler, StatsSnapshot};
use conch_pins as pins;
use conch_runtime::error::RunError;
use conch_runtime::io::Io;
use conch_runtime::value::FromValue;

type Out = (i64, i64, StatsSnapshot);

/// Sleep sets at a preemption bound: fault arms and exception-delivery
/// points branch fully whatever the bound (only *preemptive* thread
/// switches are rationed), so a search that completes has tried every
/// fault at every delivery point within the bound.
const fn sleep_sets(bound: usize) -> Strategy {
    Strategy::Exhaustive(Reduction::SleepSets {
        preemption_bound: Some(bound),
    })
}

/// The bound the actor and cross-shard spaces complete at.
const BOUNDED: Strategy = sleep_sets(2);

/// PCT draws schedules straight from the unbounded space — the httpd
/// fault spaces are the motivating case for sampling: sleep sets at
/// bound 2 leave them incomplete at a million schedules, and at bound
/// 0 past 200 000 — and sample `i` is a pure function of the strategy
/// and `i`, so every worker count produces the same report.
const PCT: Strategy = Strategy::Pct {
    depth: 3,
    seed: 0xC0FFEE,
};
const SAMPLES: usize = 128;

/// Explores `space` with `strategy` on `workers` engine threads (1 is
/// the sequential engine), checks `property` on every run, and returns
/// the report of the pass. A sampled schedule may starve a drain loop
/// past the step budget: that sample is truncated, not a violation.
fn explore<T: FromValue + 'static>(
    space: fn() -> Io<T>,
    property: impl Fn(&T) -> Result<(), String> + Send + Sync + 'static,
    strategy: Strategy,
    workers: usize,
) -> Report {
    let sampled = strategy.is_sampling();
    let explorer = Explorer::with_config(ExploreConfig {
        max_schedules: if sampled { SAMPLES } else { 1_000_000 },
        max_depth: 512,
        step_budget: 100_000,
        strategy,
        ..ExploreConfig::default()
    });
    let property = Arc::new(property);
    let result = explorer.check_parallel(workers, || {
        let property = Arc::clone(&property);
        TestCase::new(space(), move |out: &RunOutcome<T>| match &out.result {
            Ok(v) => property(v),
            Err(RunError::StepLimitExceeded { .. }) if sampled => Ok(()),
            Err(e) => Err(format!("run failed: {e:?}")),
        })
    });
    result.expect_pass().clone()
}

/// The search was exhaustive, and is the same search as ever:
/// `(explored, pruned, faults injected)`.
fn assert_exhaustive(report: &Report, counts: (usize, usize, u64)) {
    assert!(report.complete && report.truncated == 0, "{report:?}");
    let got = (report.explored, report.pruned, report.faults_injected);
    assert_eq!(got, counts, "{report:?}");
}

/// The search drew the whole [`PCT`] budget, one explored run per draw
/// and nothing pruned, reached the fault arms, and — being a sample —
/// certified nothing.
fn assert_sampled(report: &Report) {
    assert!(
        !report.complete,
        "sampling must never claim exhaustive coverage: {report:?}"
    );
    assert_eq!(report.explored, SAMPLES, "{report:?}");
    assert_eq!(report.stats.sampled, SAMPLES as u64, "{report:?}");
    assert_eq!(report.pruned, 0, "sampling prunes nothing: {report:?}");
    assert!(
        report.stats.distinct_schedules > 0
            && report.stats.distinct_schedules <= report.stats.sampled,
        "{report:?}"
    );
    assert!(
        report.faults_injected > 0,
        "random priorities must still reach the fault arms: {report:?}"
    );
}

/// Samples `space` under [`PCT`] with `property`, and returns the
/// episode codes (the first field of the outcome) the passing runs saw.
fn sampled_codes(
    space: fn() -> Io<Out>,
    property: fn(&Out) -> Result<(), String>,
) -> BTreeSet<i64> {
    let seen = Arc::new(Mutex::new(BTreeSet::new()));
    let codes = Arc::clone(&seen);
    let property = move |out: &Out| {
        codes.lock().unwrap().insert(out.0);
        property(out)
    };
    assert_sampled(&explore(space, property, PCT, 1));
    let codes = seen.lock().unwrap().clone();
    codes
}

/// [`holds_invariants`], and `expected` of the episode's code and the
/// audited counters.
fn outcome(out: &Out, expected: fn(i64, &StatsSnapshot) -> bool) -> Result<(), String> {
    holds_invariants(out)?;
    let (code, _, snap) = out;
    if expected(*code, snap) {
        Ok(())
    } else {
        Err(format!("episode {code} left {snap:?}"))
    }
}

/// The visit's code decides the one counter it moved (the probe is the
/// other `served`).
fn conn_outcome(out: &Out) -> Result<(), String> {
    outcome(out, |code, s| match code {
        200 => s.served == 2,
        408 => s.read_timeouts == 1,
        400 => s.parse_errors == 1,
        -1 => s.aborted == 1,
        _ => false,
    })
}

/// A spared stall times out; a struck one is recorded killed.
fn storm_outcome(out: &Out) -> Result<(), String> {
    outcome(out, |kills, s| match kills {
        0 => s.read_timeouts == 1 && s.killed == 0,
        _ => s.killed == 1,
    })
}

/// Spared, both pipelined requests and the probe are served; struck,
/// the in-flight request is killed and only the probe is served.
fn sharded_outcome(out: &Out) -> Result<(), String> {
    outcome(out, |kills, s| match kills {
        0 => s.served == 3,
        1 => s.served == 1 && s.killed == 1,
        _ => false,
    })
}

// The actor spaces return `Vec<i64>`; their invariants take slices.
#[allow(clippy::ptr_arg)]
fn actor_outcome(out: &Vec<i64>) -> Result<(), String> {
    holds_actor_invariants(out)
}

#[allow(clippy::ptr_arg)]
fn relay_outcome(out: &Vec<i64>) -> Result<(), String> {
    holds_cross_shard_invariants(out)
}

// The four httpd spaces are sampled: each test checks its outcome on
// every one of the `SAMPLES` runs, not on every schedule, and its twin
// compares the sampled reports at 1 and 4 workers.

#[test]
fn conn_fault_space_holds_invariants_on_every_sampled_run() {
    // Five arms; drop and mid-request close both go unanswered.
    let codes = sampled_codes(conn_fault_space, conn_outcome);
    assert_eq!(codes, BTreeSet::from([-1, 200, 400, 408]));
}

#[test]
fn conn_fault_space_reports_identically_at_any_worker_count() {
    assert_eq!(
        explore(conn_fault_space, conn_outcome, PCT, 1),
        explore(conn_fault_space, conn_outcome, PCT, 4),
        "fault×schedule coverage must be bit-identical across engines"
    );
}

#[test]
fn storm_space_holds_invariants_on_every_sampled_run() {
    // Spared (0 kills) and struck (1).
    let kills = sampled_codes(storm_space, storm_outcome);
    assert_eq!(kills, BTreeSet::from([0, 1]));
}

#[test]
fn storm_space_reports_identically_at_any_worker_count() {
    assert_eq!(
        explore(storm_space, storm_outcome, PCT, 1),
        explore(storm_space, storm_outcome, PCT, 4)
    );
}

#[test]
fn supervised_pool_space_holds_invariants_on_every_sampled_run() {
    // Two targets (worker, pool supervisor), each struck or spared.
    let kills = sampled_codes(supervised_pool_space, storm_outcome);
    assert_eq!(kills, BTreeSet::from([0, 1, 2]));
}

#[test]
fn supervised_pool_space_reports_identically_at_any_worker_count() {
    assert_eq!(
        explore(supervised_pool_space, storm_outcome, PCT, 1),
        explore(supervised_pool_space, storm_outcome, PCT, 4),
        "pool fault×schedule coverage must be bit-identical across engines"
    );
}

/// Two kills at the pooled acceptor. It accounts for a connection in
/// the stats cell and then enqueues it into the accept queue — two
/// cells, so the enqueue sits under a guard that enqueues again if a
/// kill interrupts it. Here the acceptor is hit by `shutdown` and then
/// `shutdown_sync` while a drainer's snapshot keeps the stats cell
/// contended, so the first kill can land in the accounting's blocked
/// `take`. Main then drains — it blocks until the worker has served
/// whatever was accounted — and audits. The client has already hung
/// up, so serving the connection is one read that fails: a served
/// request costs the explorer a thousand times the schedules and says
/// nothing more about the acceptor.
fn pooled_acceptor_two_kill_space() -> Io<StatsSnapshot> {
    let cfg = PoolConfig {
        workers: 1,
        queue_capacity: 2,
        ..PoolConfig::default()
    };
    Listener::bind().and_then(move |l| {
        start_pooled(l, handler(|_| Io::pure(Response::ok("hi"))), cfg).and_then(move |server| {
            prepared_connection(ConnFault::Drop, "/x").and_then(move |conn| {
                let plane = server.plane;
                // The first sleep parks main until the tree has started
                // and every thread in it waits.
                Io::sleep(1)
                    .then(Io::fork(plane.stats.snapshot()))
                    .then(l.inject(conn))
                    .then(plane.shutdown())
                    .then(plane.shutdown_sync())
                    .then(plane.drain())
                    .then(plane.stats.snapshot())
                    .and_then(move |snap| server.stop_sync().map(move |_| snap))
            })
        })
    })
}

/// The connection was accounted for exactly as often as it was queued:
/// never (the kills reached the acceptor first — nothing entered the
/// law) or once, and then the worker recorded its one outcome.
fn queued_is_accounted(snap: &StatsSnapshot) -> Result<(), String> {
    if snap.conserved() && snap.accepted == snap.aborted {
        Ok(())
    } else {
        Err(format!("queued and accounted disagree: {snap:?}"))
    }
}

#[test]
fn two_kills_at_the_pooled_acceptor_lose_no_queued_connection_on_any_schedule() {
    let space = pooled_acceptor_two_kill_space;
    let report = explore(space, queued_is_accounted, sleep_sets(1), 1);
    assert_exhaustive(&report, pins::FAULTS_POOLED_TWO_KILLS_BOUND_1);
}

/// The bound at which the space reached the second kill landing in the
/// acceptor's guard while the guard sat on the accounting: with a guard
/// that accounted again only once it failed where bounds 1 and 2
/// passed. The guard now sits on the enqueue, and nothing in this space
/// holds the queue cell while the acceptor enqueues, so the space no
/// longer reaches it — and at bound 3 it no longer completes within the
/// 1 000 000-schedule cap, so this test fails. A forked read of the
/// queue cell as a second contender does not rescue it: a retry-once
/// guard still passes at bound 2, the last bound that completes
/// (EXPERIMENTS.md X2). `cargo test --release -p conch-faults --test
/// explore_faults -- --ignored`, as CI does.
#[test]
#[ignore = "release; fails, see its doc"]
fn two_kills_at_the_pooled_acceptor_at_the_bound_that_reaches_the_guard() {
    let space = pooled_acceptor_two_kill_space;
    let report = explore(space, queued_is_accounted, sleep_sets(3), 1);
    assert_exhaustive(&report, pins::FAULTS_POOLED_TWO_KILLS_BOUND_3);
}

/// Satellite of the sharded-plane PR: a `KillThread` between two
/// pipelined requests must not lose the in-flight request from the
/// conservation law. The space certifies the *quiescent-aggregate*
/// protocol (per-shard drain, then summed snapshots) on every sampled
/// run of the strike × delivery product, and the untouched shard must
/// keep serving (`200` probe) throughout.
#[test]
fn sharded_pipeline_space_holds_invariants_on_every_sampled_run() {
    // Spared (0 kills) and struck (1).
    let kills = sampled_codes(sharded_pipeline_space, sharded_outcome);
    assert_eq!(kills, BTreeSet::from([0, 1]));
}

#[test]
fn sharded_pipeline_space_reports_identically_at_any_worker_count() {
    assert_eq!(
        explore(sharded_pipeline_space, sharded_outcome, PCT, 1),
        explore(sharded_pipeline_space, sharded_outcome, PCT, 4),
        "sharded fault×schedule coverage must be bit-identical across engines"
    );
}

#[test]
fn actor_space_holds_invariants_on_every_schedule() {
    // Four episode arms: nothing, poison, kill, wedge then kill.
    let report = explore(actor_space, actor_outcome, BOUNDED, 1);
    assert_exhaustive(&report, pins::FAULTS_ACTOR_SPACE);
}

#[test]
fn actor_space_reports_identically_at_any_worker_count() {
    assert_eq!(
        explore(actor_space, actor_outcome, BOUNDED, 1),
        explore(actor_space, actor_outcome, BOUNDED, 4),
        "actor fault×schedule coverage must be bit-identical across engines"
    );
}

#[test]
fn cross_shard_kill_space_holds_invariants_on_every_schedule() {
    // Three episode arms: the no-kill drain, the racing kill, and the
    // stale kill to a dead slot.
    let report = explore(cross_shard_kill_space, relay_outcome, BOUNDED, 1);
    assert_exhaustive(&report, pins::FAULTS_CROSS_SHARD_KILL_SPACE);
}

#[test]
fn cross_shard_kill_space_reports_identically_at_any_worker_count() {
    assert_eq!(
        explore(cross_shard_kill_space, relay_outcome, BOUNDED, 1),
        explore(cross_shard_kill_space, relay_outcome, BOUNDED, 4),
        "cross-shard fault×schedule coverage must be bit-identical across engines"
    );
}
