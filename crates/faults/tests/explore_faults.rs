//! Fault × schedule exploration: the tentpole integration tests.
//!
//! Each test explores one of the canonical spaces from
//! [`conch_faults::spaces`]: an httpd server under
//! [`Injector::Explore`](conch_faults::Injector), so every injection
//! site is an `Io::choose` branch point, and `conch-explore` enumerates
//! the *product* of fault decisions and scheduling decisions. The
//! properties checked on every run of every explored schedule are the
//! recovery invariants the PR hardens the server for:
//!
//! * **conservation** — after the server drains,
//!   `accepted == served + timed-out + errored + aborted + killed + shed`
//!   and `active == 0`: no connection's outcome is lost or
//!   double-counted, whatever fault fired and wherever `KillThread`
//!   landed;
//! * **no leaks** — `drain` terminates (so the active count really
//!   reaches zero) on every schedule, and the whole exploration is
//!   `complete` (no run was cut off by depth or step budgets while
//!   threads still held resources);
//! * **liveness after faults** — a healthy probe sent after the fault
//!   sequence is answered `200` on every schedule.
//!
//! Each space is explored twice — sequential engine and 4-worker
//! work-stealing engine — and the coverage reports must be equal, the
//! determinism contract extended to fault branch points.

use conch_actors::POLL_INTERVAL;
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
use conch_runtime::io::Io;

fn check_invariants(out: &RunOutcome<(i64, i64, StatsSnapshot)>) -> Result<(), String> {
    match &out.result {
        Ok(v) => holds_invariants(v),
        Err(e) => Err(format!("run failed: {e:?}")),
    }
}

fn explore(space: fn() -> Io<(i64, i64, StatsSnapshot)>, workers: usize) -> Report {
    // Preemption bound 2: fault arms and exception-delivery points
    // always branch fully regardless of the bound (only *preemptive*
    // thread switches are rationed), so fault coverage stays exhaustive
    // while the schedule dimension stays tractable — these spaces
    // complete in milliseconds, where the unbounded product runs past
    // 400k schedules without converging.
    let cfg = ExploreConfig {
        max_schedules: 100_000,
        max_depth: 512,
        step_budget: 100_000,
        preemption_bound: Some(2),
        strategy: Strategy::Exhaustive(Reduction::Dpor),
        ..ExploreConfig::default()
    };
    let explorer = Explorer::with_config(cfg);
    let result = if workers == 1 {
        explorer.check(|| TestCase::new(space(), check_invariants))
    } else {
        explorer.check_parallel(workers, move || TestCase::new(space(), check_invariants))
    };
    result.report().clone()
}

#[test]
fn conn_fault_space_holds_invariants_on_every_schedule() {
    let report = explore(conn_fault_space, 1);
    assert!(
        report.complete,
        "exploration must be exhaustive: {report:?}"
    );
    assert!(
        report.faults_injected > 0,
        "the fault arms must actually be visited: {report:?}"
    );
    // Five arms, each with at least one schedule.
    assert!(report.explored >= 5, "{report:?}");
}

#[test]
fn conn_fault_space_reports_identically_at_any_worker_count() {
    let sequential = explore(conn_fault_space, 1);
    let parallel = explore(conn_fault_space, 4);
    assert_eq!(
        sequential, parallel,
        "fault×schedule coverage must be bit-identical across engines"
    );
}

#[test]
fn storm_space_holds_invariants_on_every_schedule() {
    let report = explore(storm_space, 1);
    assert!(
        report.complete,
        "exploration must be exhaustive: {report:?}"
    );
    assert!(
        report.faults_injected > 0,
        "some schedule must deliver the strike: {report:?}"
    );
    assert!(report.explored >= 2, "{report:?}");
}

#[test]
fn storm_space_reports_identically_at_any_worker_count() {
    let sequential = explore(storm_space, 1);
    let parallel = explore(storm_space, 4);
    assert_eq!(sequential, parallel);
}

#[test]
fn supervised_pool_space_holds_invariants_on_every_schedule() {
    let report = explore(supervised_pool_space, 1);
    assert!(
        report.complete,
        "exploration must be exhaustive: {report:?}"
    );
    assert!(
        report.faults_injected > 0,
        "worker and supervisor strikes must be visited: {report:?}"
    );
    // Two targets (worker, pool supervisor), each struck or spared.
    assert!(report.explored >= 4, "{report:?}");
}

#[test]
fn supervised_pool_space_reports_identically_at_any_worker_count() {
    let sequential = explore(supervised_pool_space, 1);
    let parallel = explore(supervised_pool_space, 4);
    assert_eq!(
        sequential, parallel,
        "pool fault×schedule coverage must be bit-identical across engines"
    );
}

/// Two kills at the pooled acceptor. It enqueues a connection into the
/// accept queue and then accounts for it in the stats cell — two cells,
/// so the accounting sits under a guard that accounts again if a kill
/// interrupts it. Here the acceptor is hit by `shutdown` and then
/// `shutdown_sync` while a drainer's snapshot keeps the stats cell
/// contended, so the first kill can land in the accounting's blocked
/// `take` and the second in the guard's. Main then parks for one mailbox
/// poll — long enough for the worker to serve whatever was queued — and
/// audits. The client has already hung up, so serving the connection is
/// one read that fails: a served request costs the explorer a thousand
/// times the schedules and says nothing more about the acceptor.
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
                    .then(Io::sleep(POLL_INTERVAL))
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
fn queued_is_accounted(out: &RunOutcome<StatsSnapshot>) -> Result<(), String> {
    match &out.result {
        Ok(snap) if snap.conserved() && snap.accepted == snap.aborted => Ok(()),
        Ok(snap) => Err(format!("queued and accounted disagree: {snap:?}")),
        Err(e) => Err(format!("run failed: {e:?}")),
    }
}

/// Sleep sets: bounded DPOR under-explores (ROADMAP's first item).
fn explore_two_kills(preemption_bound: usize) -> Report {
    let cfg = ExploreConfig {
        max_schedules: 1_000_000,
        max_depth: 512,
        step_budget: 100_000,
        preemption_bound: Some(preemption_bound),
        strategy: Strategy::Exhaustive(Reduction::SleepSets),
        ..ExploreConfig::default()
    };
    let result = Explorer::with_config(cfg)
        .check(|| TestCase::new(pooled_acceptor_two_kill_space(), queued_is_accounted));
    let report = result.expect_pass().clone();
    assert!(
        report.complete,
        "exploration must be exhaustive: {report:?}"
    );
    report
}

#[test]
fn two_kills_at_the_pooled_acceptor_lose_no_queued_connection_on_any_schedule() {
    let report = explore_two_kills(1);
    assert!(report.explored > 1_000, "{report:?}");
}

/// The bound at which the space reaches the second kill landing in the
/// acceptor's guard: with a guard that accounts again only once, this
/// fails (the worker then serves a connection nobody accepted) where
/// bounds 1 and 2 pass. 217 431 schedules — `cargo test --release -p
/// conch-faults --test explore_faults -- --ignored`, as CI does.
#[test]
#[ignore = "217k schedules: run in release"]
fn two_kills_at_the_pooled_acceptor_at_the_bound_that_reaches_the_guard() {
    let report = explore_two_kills(3);
    assert!(report.explored > 200_000, "{report:?}");
}

/// Satellite of the sharded-plane PR: a `KillThread` between two
/// pipelined requests must not lose the in-flight request from the
/// conservation law. The space certifies the *quiescent-aggregate*
/// protocol (per-shard drain, then summed snapshots) on every schedule
/// of the strike × delivery product, and the untouched shard must keep
/// serving (`200` probe) throughout.
#[test]
fn sharded_pipeline_space_holds_invariants_on_every_schedule() {
    let report = explore(sharded_pipeline_space, 1);
    assert!(
        report.complete,
        "exploration must be exhaustive: {report:?}"
    );
    assert!(
        report.faults_injected > 0,
        "some schedule must strike the pipelined handler: {report:?}"
    );
    // Struck or spared, each with at least one schedule.
    assert!(report.explored >= 2, "{report:?}");
}

#[test]
fn sharded_pipeline_space_reports_identically_at_any_worker_count() {
    let sequential = explore(sharded_pipeline_space, 1);
    let parallel = explore(sharded_pipeline_space, 4);
    assert_eq!(
        sequential, parallel,
        "sharded fault×schedule coverage must be bit-identical across engines"
    );
}

// ------------------------------------------------------------- sampling
//
// The fault spaces are the motivating case for schedule *sampling*:
// their unbounded products are unenumerable, and PCT draws schedules
// straight from the unbounded space — no preemption bound — while
// keeping the determinism contract (sample i is a pure function of the
// strategy and i, so every worker count produces the same report).

/// Like [`check_invariants`], but sampling-aware: a drawn schedule may
/// legitimately starve the drain loop past the step budget — that
/// sample is *truncated*, not a violation, so it must not be reported
/// as one.
fn check_sampled_invariants(out: &RunOutcome<(i64, i64, StatsSnapshot)>) -> Result<(), String> {
    match &out.result {
        Ok(v) => holds_invariants(v),
        Err(conch_runtime::error::RunError::StepLimitExceeded { .. }) => Ok(()),
        Err(e) => Err(format!("run failed: {e:?}")),
    }
}

fn sample_space(space: fn() -> Io<(i64, i64, StatsSnapshot)>, workers: usize) -> Report {
    let cfg = ExploreConfig {
        max_schedules: 128,
        max_depth: 512,
        step_budget: 100_000,
        strategy: Strategy::Pct {
            depth: 3,
            seed: 0xC0FFEE,
        },
        ..ExploreConfig::default()
    };
    let explorer = Explorer::with_config(cfg);
    let result = if workers == 1 {
        explorer.check(|| TestCase::new(space(), check_sampled_invariants))
    } else {
        explorer.check_parallel(workers, move || {
            TestCase::new(space(), check_sampled_invariants)
        })
    };
    match result {
        conch_explore::CheckResult::Passed(report) => *report,
        conch_explore::CheckResult::Failed(f) => {
            panic!(
                "sampled fault space violated recovery invariants: {}",
                f.message
            )
        }
    }
}

#[test]
fn pct_sampling_covers_the_fault_spaces() {
    for space in [conn_fault_space, storm_space] {
        let report = sample_space(space, 1);
        assert!(
            !report.complete,
            "sampling must never claim exhaustive coverage: {report:?}"
        );
        assert_eq!(report.stats.sampled, 128, "{report:?}");
        assert_eq!(
            report.explored as u64, report.stats.sampled,
            "every draw is one explored run: {report:?}"
        );
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
}

#[test]
fn pct_sampling_reports_identically_at_any_worker_count() {
    let sequential = sample_space(conn_fault_space, 1);
    let parallel = sample_space(conn_fault_space, 4);
    assert_eq!(
        sequential, parallel,
        "sampled fault×schedule reports must be bit-identical across engines"
    );
}

fn check_actor_invariants(out: &RunOutcome<Vec<i64>>) -> Result<(), String> {
    match &out.result {
        Ok(v) => holds_actor_invariants(v),
        Err(e) => Err(format!("run failed: {e:?}")),
    }
}

fn explore_actor(workers: usize) -> Report {
    let cfg = ExploreConfig {
        max_schedules: 100_000,
        max_depth: 512,
        step_budget: 100_000,
        preemption_bound: Some(2),
        strategy: Strategy::Exhaustive(Reduction::Dpor),
        ..ExploreConfig::default()
    };
    let explorer = Explorer::with_config(cfg);
    let result = if workers == 1 {
        explorer.check(|| TestCase::new(actor_space(), check_actor_invariants))
    } else {
        explorer.check_parallel(workers, move || {
            TestCase::new(actor_space(), check_actor_invariants)
        })
    };
    result.report().clone()
}

#[test]
fn actor_space_holds_invariants_on_every_schedule() {
    let report = explore_actor(1);
    assert!(
        report.complete,
        "exploration must be exhaustive: {report:?}"
    );
    assert!(
        report.faults_injected > 0,
        "the crash/kill/wedge arms must be visited: {report:?}"
    );
    // Four episode arms, each with at least one schedule.
    assert!(report.explored >= 4, "{report:?}");
}

#[test]
fn actor_space_reports_identically_at_any_worker_count() {
    let sequential = explore_actor(1);
    let parallel = explore_actor(4);
    assert_eq!(
        sequential, parallel,
        "actor fault×schedule coverage must be bit-identical across engines"
    );
}

fn check_cross_shard_invariants(out: &RunOutcome<Vec<i64>>) -> Result<(), String> {
    match &out.result {
        Ok(v) => holds_cross_shard_invariants(v),
        Err(e) => Err(format!("run failed: {e:?}")),
    }
}

fn explore_cross_shard(workers: usize) -> Report {
    let cfg = ExploreConfig {
        max_schedules: 100_000,
        max_depth: 512,
        step_budget: 100_000,
        preemption_bound: Some(2),
        strategy: Strategy::Exhaustive(Reduction::Dpor),
        ..ExploreConfig::default()
    };
    let explorer = Explorer::with_config(cfg);
    let result = if workers == 1 {
        explorer.check(|| TestCase::new(cross_shard_kill_space(), check_cross_shard_invariants))
    } else {
        explorer.check_parallel(workers, move || {
            TestCase::new(cross_shard_kill_space(), check_cross_shard_invariants)
        })
    };
    result.report().clone()
}

#[test]
fn cross_shard_kill_space_holds_invariants_on_every_schedule() {
    let report = explore_cross_shard(1);
    assert!(
        report.complete,
        "exploration must be exhaustive: {report:?}"
    );
    // Three episode arms, each with at least one schedule: the no-kill
    // drain, the racing kill, and the stale kill to a dead slot.
    assert!(report.explored >= 3, "{report:?}");
}

#[test]
fn cross_shard_kill_space_reports_identically_at_any_worker_count() {
    let sequential = explore_cross_shard(1);
    let parallel = explore_cross_shard(4);
    assert_eq!(
        sequential, parallel,
        "cross-shard fault×schedule coverage must be bit-identical across engines"
    );
}
