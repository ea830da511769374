//! Integration pins for the wall-clock parallel plane
//! (`conch_runtime::parallel`): whatever the OS-thread count, a
//! `MultiRuntime` run must be **bit-identical** — merged stats,
//! per-shard rendered traces, cross-shard drain order, final virtual
//! clocks. `os_threads = 1` is the semantic oracle; every other value
//! is just a faster way to compute the same run.
//!
//! The drain log of a small two-shard ping-pong is pinned byte-exactly
//! (the golden-trace discipline from `tests/golden_traces.rs` extended
//! to the channel plane). To regenerate after an *intentional*
//! semantics change:
//!
//! ```text
//! cargo test --test parallel_runtime -- --ignored --nocapture print_parallel_golden_values
//! ```

use conch_httpd::http::Response;
use conch_httpd::parallel::{wall_parallel_load, WallConfig};
use conch_httpd::server::{handler, Handler};
use conch_runtime::parallel::{MultiConfig, MultiRuntime, ShardCtx, ShardProgram};
use conch_runtime::prelude::*;

fn config(os_threads: usize, epoch_us: u64) -> MultiConfig {
    MultiConfig {
        epoch_us,
        os_threads,
        ..MultiConfig::default()
    }
}

// ---------------------------------------------------------------------
// The ring workload: cross-shard chatter, local forks, skewed sleeps
// ---------------------------------------------------------------------

/// One shard of the token ring: receive `recvs` tokens; for each,
/// fork a short-lived local thread, sleep a shard-skewed amount (so
/// the shards' virtual clocks genuinely diverge between barriers),
/// and forward the decremented token unless it is spent.
fn ring_lap(ctx: ShardCtx, recvs: u32, acc: i64) -> Io<Value> {
    if recvs == 0 {
        return Io::pure(Value::Int(acc));
    }
    let shard = ctx.shard();
    let shards = ctx.shards();
    ctx.clone().recv().and_then(move |v| {
        let n = v.as_int().expect("ring token");
        let forward = if n > 1 {
            ctx.send((shard + 1) % shards, Value::Int(n - 1))
        } else {
            Io::unit()
        };
        Io::fork(Io::sleep(5))
            .then(Io::sleep(u64::from(shard) * 7 + 3))
            .then(forward)
            .then(ring_lap(ctx, recvs - 1, acc + n))
    })
}

/// A 3-shard ring passing a 9-hop token: shard 0 injects, every shard
/// sees exactly three tokens, and the per-shard sums are fixed.
fn ring_programs() -> Vec<ShardProgram> {
    (0..3u16)
        .map(|shard| {
            Box::new(move |ctx: &ShardCtx| {
                let ctx = ctx.clone();
                let kickoff = if shard == 0 {
                    ctx.send(1, Value::Int(9))
                } else {
                    Io::unit()
                };
                kickoff.then(ring_lap(ctx, 3, 0))
            }) as ShardProgram
        })
        .collect()
}

#[test]
fn ring_reports_are_identical_at_any_os_thread_count() {
    let base = MultiRuntime::new(config(1, 100)).run(ring_programs());
    // Hops 9..1 land on shards 1,2,0 cyclically: 0 sums 7+4+1, 1 sums
    // 9+6+3, 2 sums 8+5+2.
    let sums: Vec<_> = base.shards.iter().map(|s| s.result.clone()).collect();
    assert_eq!(
        sums,
        vec![Ok(Value::Int(12)), Ok(Value::Int(18)), Ok(Value::Int(15))]
    );
    for os_threads in [2, 3, 8] {
        let par = MultiRuntime::new(config(os_threads, 100)).run(ring_programs());
        assert_eq!(par.drain_log, base.drain_log, "os_threads={os_threads}");
        assert_eq!(par.rounds, base.rounds, "os_threads={os_threads}");
        assert_eq!(par.messages, base.messages, "os_threads={os_threads}");
        for (i, (p, b)) in par.shards.iter().zip(base.shards.iter()).enumerate() {
            assert_eq!(
                p.result, b.result,
                "shard {i} result, os_threads={os_threads}"
            );
            assert_eq!(p.trace, b.trace, "shard {i} trace, os_threads={os_threads}");
            assert_eq!(p.clock, b.clock, "shard {i} clock, os_threads={os_threads}");
            assert_eq!(p.stats, b.stats, "shard {i} stats, os_threads={os_threads}");
            assert_eq!(
                p.output, b.output,
                "shard {i} console, os_threads={os_threads}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// A host value crosses shards — and OS threads — as itself
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
struct Parcel {
    hops: i64,
    route: String,
}

host_value!(Parcel);

/// Shard 0 posts a parcel to shard 1, which stamps it and posts it back.
fn parcel_programs() -> Vec<ShardProgram> {
    let there: ShardProgram = Box::new(|ctx: &ShardCtx| {
        let parcel = Parcel {
            hops: 0,
            route: "0".to_owned(),
        };
        ctx.send(1, parcel.into_value()).then(ctx.recv())
    });
    let back: ShardProgram = Box::new(|ctx: &ShardCtx| {
        let ctx = ctx.clone();
        ctx.recv().and_then(move |v| {
            let mut parcel = Parcel::from_value_or_panic(v);
            parcel.hops += 1;
            parcel.route.push_str(" -> 1 -> 0");
            ctx.send(0, parcel.into_value()).map(|()| Value::Unit)
        })
    });
    vec![there, back]
}

#[test]
fn a_host_value_crosses_shards_identically_at_one_and_two_os_threads() {
    let base = MultiRuntime::new(config(1, 100)).run(parcel_programs());
    let stamped = Parcel {
        hops: 1,
        route: "0 -> 1 -> 0".to_owned(),
    };
    assert_eq!(base.shards[0].result, Ok(stamped.into_value()));
    assert_eq!(base.messages, 2);
    let par = MultiRuntime::new(config(2, 100)).run(parcel_programs());
    assert_eq!(par.drain_log, base.drain_log);
    for (p, b) in par.shards.iter().zip(&base.shards) {
        assert_eq!(p.result, b.result);
        assert_eq!(p.stats, b.stats);
    }
}

// ---------------------------------------------------------------------
// The httpd wall plane: merged StatsSnapshot is the oracle observable
// ---------------------------------------------------------------------

fn echo_factory() -> impl Fn() -> Handler + Send + Clone + 'static {
    || handler(|_req| Io::pure(Response::ok("hi")))
}

#[test]
fn wall_plane_merged_stats_are_identical_at_any_os_thread_count() {
    let cfg = |os_threads| WallConfig {
        shards: 4,
        clients: 200,
        requests_per_conn: 5,
        os_threads,
        ..WallConfig::default()
    };
    let base = wall_parallel_load(echo_factory(), cfg(1));
    assert_eq!(base.oks, 200 * 5);
    assert!(base.merged.conserved());
    assert_eq!(base.merged, base.host_merged());
    for os_threads in [2, 4] {
        let par = wall_parallel_load(echo_factory(), cfg(os_threads));
        assert_eq!(par.merged, base.merged, "os_threads={os_threads}");
        assert_eq!(par.per_shard, base.per_shard, "os_threads={os_threads}");
        assert_eq!(
            par.oks_per_shard, base.oks_per_shard,
            "os_threads={os_threads}"
        );
        assert_eq!(par.drain_log, base.drain_log, "os_threads={os_threads}");
        assert_eq!(par.rounds, base.rounds, "os_threads={os_threads}");
    }
}

// ---------------------------------------------------------------------
// Golden drain order: a pinned two-shard ping-pong
// ---------------------------------------------------------------------

/// The pinned workload: shard 0 serves a 4-hop ping-pong with shard 1.
/// Every hop is one cross-shard message, so the drain log records the
/// full conversation in `(epoch round, source, sequence)` order.
fn pingpong_programs() -> Vec<ShardProgram> {
    (0..2u16)
        .map(|shard| {
            Box::new(move |ctx: &ShardCtx| {
                let ctx = ctx.clone();
                let kickoff = if shard == 0 {
                    ctx.send(1, Value::Int(4))
                } else {
                    Io::unit()
                };
                kickoff.then(ring_lap(ctx, 2, 0))
            }) as ShardProgram
        })
        .collect()
}

#[test]
fn pingpong_drain_log_matches_golden() {
    let report = MultiRuntime::new(config(1, 100)).run(pingpong_programs());
    assert_eq!(
        report.shards[0].result,
        Ok(Value::Int(3 + 1)),
        "shard 0 sees hops 3 and 1"
    );
    assert_eq!(
        report.shards[1].result,
        Ok(Value::Int(4 + 2)),
        "shard 1 sees hops 4 and 2"
    );
    assert_eq!(
        report.drain_log,
        vec![
            "r1 s0.0->s1 data",
            "r2 s1.0->s0 data",
            "r3 s0.1->s1 data",
            "r4 s1.1->s0 data",
        ],
        "the cross-shard drain order is pinned byte-exactly"
    );
    assert_eq!(report.messages, 4);
    assert_eq!(report.rounds, 5);
    // Shards stop on their own virtual clocks: shard 0's last act is a
    // receive, shard 1 sleeps after its final token.
    assert_eq!(report.shards[0].clock, 8);
    assert_eq!(report.shards[1].clock, 20);
    // The per-shard traces are pure time-advances (all the chatter is
    // channel-plane, not intra-shard), pinned byte-exactly.
    assert_eq!(report.shards[0].trace, "$3$2$3");
    assert_eq!(report.shards[1].trace, "$5$5$5$5");
}

/// Regenerates the pinned values above (run with `--ignored`).
#[test]
#[ignore]
fn print_parallel_golden_values() {
    let report = MultiRuntime::new(config(1, 100)).run(pingpong_programs());
    println!(
        "results: {:?}",
        report.shards.iter().map(|s| &s.result).collect::<Vec<_>>()
    );
    println!("drain_log: {:#?}", report.drain_log);
    println!("messages: {}", report.messages);
    println!("rounds: {}", report.rounds);
    println!(
        "clocks: {:?}",
        report.shards.iter().map(|s| s.clock).collect::<Vec<_>>()
    );
    for (i, s) in report.shards.iter().enumerate() {
        println!("shard {i} trace:\n{}", s.trace);
    }
}
