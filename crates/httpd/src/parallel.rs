//! The wall-clock parallel serving plane: one scheduler per shard.
//!
//! The sharded plane (`crate::shard`) proved *virtual-time* scaling —
//! 16 shards serve 16x the requests per virtual second — but a single
//! [`Runtime`](conch_runtime::Runtime) still interprets every shard's
//! threads on one OS thread, so *wall* throughput stays flat at any
//! shard count. This module re-homes the plane onto
//! [`MultiRuntime`](conch_runtime::parallel::MultiRuntime): each shard's
//! acceptor, workers, bounded accept `Mailbox` and `ServerStats` cell
//! live on their **own** runtime, pinned to an OS thread, so shards
//! genuinely run in parallel on real hardware.
//!
//! Concretely each shard program is a self-contained single-shard
//! plane: `ShardedListener::bind(1, ..)` + `start_sharded` plus that
//! shard's share of the load clients — the per-shard accept queue and
//! stats cell from the sharded plane become runtime-local for free.
//! Cross-shard traffic uses the deterministic epoch-synced channels:
//! after its local quiescent audit, every shard ships its
//! `(oks, snapshot)` as an **aggregate-stat message** to shard 0, which
//! folds them with [`StatsSnapshot::merge`] — so the conservation-law
//! aggregate itself crosses the channel plane, and the merged result is
//! bit-identical for any `os_threads` count.
//!
//! The handler is `Rc`-based and deliberately not `Send`, so callers
//! hand over a handler *factory* (`Fn() -> Handler + Send + Clone`):
//! each shard builds its own handler inside its pinned thread.

use conch_runtime::parallel::{MultiConfig, MultiRuntime, ShardCtx, ShardProgram};
use conch_runtime::value::{FromValue, IntoValue, Value};
use conch_runtime::{Io, RuntimeConfig};

use crate::core::{Handler, StatsSnapshot};
use crate::shard::{per_shard, sharded_load, LoadConfig, ShardConfig};

/// Shape of a wall-parallel load run.
#[derive(Debug, Clone, Copy)]
pub struct WallConfig {
    /// Accept shards — and independent schedulers.
    pub shards: usize,
    /// Total keep-alive connections, split evenly over the shards.
    pub clients: usize,
    /// Pipelined requests per connection.
    pub requests_per_conn: usize,
    /// Virtual µs between arrivals, per shard.
    pub arrival_gap: u64,
    /// Accept-queue bound per shard.
    pub queue_capacity: i64,
    /// Per-request budgets.
    pub server: ShardConfig,
    /// OS threads to spread the shards over (results are identical for
    /// every value; wall time is not).
    pub os_threads: usize,
    /// Epoch width for the cross-shard barriers. The load plane only
    /// crosses shards for the final aggregate, so wide epochs amortize
    /// barrier costs without adding observable latency.
    pub epoch_us: u64,
}

impl Default for WallConfig {
    fn default() -> Self {
        WallConfig {
            shards: 4,
            clients: 1_000,
            requests_per_conn: 10,
            arrival_gap: 100,
            queue_capacity: 1_024,
            server: ShardConfig::default(),
            os_threads: 1,
            epoch_us: 10_000,
        }
    }
}

/// What a wall-parallel load run produced.
#[derive(Debug, Clone)]
pub struct WallReport {
    /// Total `200` responses collected, summed across shards *by shard
    /// 0 over the channel plane*.
    pub oks: i64,
    /// The cross-shard aggregate snapshot, folded by shard 0 from the
    /// per-shard aggregate-stat messages with [`StatsSnapshot::merge`].
    pub merged: StatsSnapshot,
    /// Each shard's own quiescent snapshot, in shard order.
    pub per_shard: Vec<StatsSnapshot>,
    /// Each shard's own `200` count, in shard order.
    pub oks_per_shard: Vec<i64>,
    /// Barrier rounds the coordinator executed.
    pub rounds: u64,
    /// Cross-shard messages delivered (the aggregate-stat reports).
    pub messages: u64,
    /// The deterministic cross-shard drain log.
    pub drain_log: Vec<String>,
}

impl WallReport {
    /// Re-merges the per-shard snapshots host-side. Equality with
    /// [`merged`](Self::merged) (which travelled through the channel
    /// plane) is the end-to-end determinism check the bench asserts.
    pub fn host_merged(&self) -> StatsSnapshot {
        self.per_shard.iter().sum()
    }
}

/// One shard's program: its slice of the load against its own
/// single-shard plane, then the aggregate-stat exchange. Every shard
/// returns `((oks, snapshot), aggregate)` where `aggregate` is `Some`
/// only on shard 0.
fn shard_program(cfg: WallConfig, shard: usize, h: Handler) -> impl FnOnce(&ShardCtx) -> Io<Value> {
    move |ctx: &ShardCtx| {
        let load = LoadConfig {
            clients: per_shard(cfg.clients, cfg.shards, shard),
            shards: 1,
            requests_per_conn: cfg.requests_per_conn,
            arrival_gap: cfg.arrival_gap,
            queue_capacity: cfg.queue_capacity,
            server: cfg.server,
        };
        let ctx = ctx.clone();
        sharded_load(h, load).and_then(move |(oks, snap)| {
            if ctx.shard() == 0 {
                let waiting = ctx.shards() - 1;
                gather(ctx, waiting, oks, snap, (oks, snap))
            } else {
                ctx.send(0, (oks, snap).into_value())
                    .map(move |()| encode((oks, snap), None))
            }
        })
    }
}

/// Shard 0's fold over the other shards' aggregate-stat messages.
fn gather(
    ctx: ShardCtx,
    left: u16,
    total: i64,
    merged: StatsSnapshot,
    own: (i64, StatsSnapshot),
) -> Io<Value> {
    if left == 0 {
        return Io::pure(encode(own, Some((total, merged))));
    }
    ctx.clone().recv().and_then(move |v| {
        let (oks, snap) = <(i64, StatsSnapshot)>::from_value_or_panic(v);
        gather(ctx, left - 1, total + oks, merged.merge(&snap), own)
    })
}

type ShardAnswer = ((i64, StatsSnapshot), Option<(i64, StatsSnapshot)>);

fn encode(own: (i64, StatsSnapshot), agg: Option<(i64, StatsSnapshot)>) -> Value {
    (own, agg).into_value()
}

/// Runs the wall-parallel load: `cfg.shards` independent schedulers on
/// `cfg.os_threads` OS threads.
///
/// # Panics
///
/// Panics if any shard program fails (a load bug, not an expected
/// outcome: the plane has no fault injection).
pub fn wall_parallel_load<F>(make_handler: F, cfg: WallConfig) -> WallReport
where
    F: Fn() -> Handler + Send + Clone + 'static,
{
    assert!(cfg.shards >= 1);
    let programs: Vec<ShardProgram> = (0..cfg.shards)
        .map(|shard| {
            let mk = make_handler.clone();
            Box::new(move |ctx: &ShardCtx| shard_program(cfg, shard, mk())(ctx)) as ShardProgram
        })
        .collect();
    let mut mr = MultiRuntime::new(MultiConfig {
        epoch_us: cfg.epoch_us,
        epoch_steps: None,
        os_threads: cfg.os_threads,
        runtime: RuntimeConfig::default(),
    });
    let report = mr.run(programs);

    let mut per_shard_snaps = Vec::with_capacity(cfg.shards);
    let mut oks_per_shard = Vec::with_capacity(cfg.shards);
    let mut aggregate = None;
    for (i, shard) in report.shards.iter().enumerate() {
        let v = shard
            .result
            .clone()
            .unwrap_or_else(|e| panic!("shard {i} failed: {e}"));
        let ((oks, snap), agg) = ShardAnswer::from_value_or_panic(v);
        per_shard_snaps.push(snap);
        oks_per_shard.push(oks);
        if let Some(a) = agg {
            assert!(i == 0 && aggregate.is_none(), "only shard 0 aggregates");
            aggregate = Some(a);
        }
    }
    let (oks, merged) = aggregate.expect("shard 0 reported the aggregate");
    WallReport {
        oks,
        merged,
        per_shard: per_shard_snaps,
        oks_per_shard,
        rounds: report.rounds,
        messages: report.messages,
        drain_log: report.drain_log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Response;
    use crate::server::handler;

    fn echo_factory() -> impl Fn() -> Handler + Send + Clone + 'static {
        || handler(|_req| Io::pure(Response::ok("hi")))
    }

    fn small(shards: usize, os_threads: usize) -> WallConfig {
        WallConfig {
            shards,
            clients: 40,
            requests_per_conn: 5,
            os_threads,
            ..WallConfig::default()
        }
    }

    #[test]
    fn wall_load_serves_and_conserves() {
        let report = wall_parallel_load(echo_factory(), small(4, 1));
        assert_eq!(report.oks, 40 * 5);
        assert_eq!(report.merged.served, 40 * 5);
        assert!(report.merged.conserved());
        assert_eq!(report.merged, report.host_merged());
        assert_eq!(report.messages, 3);
        assert_eq!(report.per_shard.len(), 4);
    }

    #[test]
    fn os_thread_count_is_invisible() {
        let base = wall_parallel_load(echo_factory(), small(4, 1));
        for os_threads in [2, 4, 8] {
            let par = wall_parallel_load(echo_factory(), small(4, os_threads));
            assert_eq!(par.oks, base.oks);
            assert_eq!(par.merged, base.merged);
            assert_eq!(par.per_shard, base.per_shard);
            assert_eq!(par.oks_per_shard, base.oks_per_shard);
            assert_eq!(par.drain_log, base.drain_log);
            assert_eq!(par.rounds, base.rounds);
        }
    }

    #[test]
    fn single_shard_wall_plane_degenerates_cleanly() {
        let report = wall_parallel_load(echo_factory(), small(1, 1));
        assert_eq!(report.oks, 40 * 5);
        assert!(report.merged.conserved());
        assert_eq!(report.messages, 0);
    }
}
