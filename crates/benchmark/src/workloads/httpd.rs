//! The two httpd workloads: the same serving layer used two ways.
//!
//! `httpd_keepalive` drives the sharded plane (`shard.rs`,
//! `FrameConnection`, the `Mailbox` accept queue, stats-cell
//! transactions) on its steady pipelined path. `httpd_churn` drives the
//! §11 fork-per-connection server (`server.rs`, char-wire `Connection`)
//! with a thread and two timeouts per connection, a tenth of which
//! misbehave so the timeouts really fire. A gain on one serving path
//! that costs the other shows in the other's row.
//!
//! In host time both are closed loops (the next rep starts when the
//! last finishes); inside a rep, arrivals are open-loop in *virtual*
//! time, one every `arrival_gap` µs. Computation takes zero virtual
//! time in this runtime, so the virtual makespan is a closed form of
//! the load shape — a check, not a metric.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use conch_actors::mailbox::POLL_INTERVAL;
use conch_combinators::Chan;
use conch_httpd::client::{garbage_client, good_client, stalling_client, trickling_client};
use conch_httpd::http::Response;
use conch_httpd::net::Listener;
use conch_httpd::parallel::{wall_parallel_load, WallConfig, WallReport};
use conch_httpd::server::{handler, start, Handler, ServerConfig, StatsSnapshot};
use conch_httpd::shard::{sharded_load, LoadConfig};
use conch_runtime::io::for_each;
use conch_runtime::prelude::*;
use conch_runtime::MVar;

use super::programs::recv_n;
use super::{build_and_run, Rep, Rng, Serve, Size, Workload};
use crate::span::Tracer;

const SHARDS: usize = 4;
const REQUESTS_PER_CONN: usize = 10;
const KEEPALIVE_GAP_US: u64 = 100;

fn keepalive_clients(size: Size) -> usize {
    size.pick(1_200, 40)
}

/// Seeded response bodies of one fixed length: the seed relabels what
/// the handler answers without changing what an answer costs.
fn bodies(rng: &mut Rng) -> Rc<Vec<String>> {
    Rc::new(
        (0..16)
            .map(|_| {
                (0..32)
                    .map(|_| (b'a' + rng.below(26) as u8) as char)
                    .collect()
            })
            .collect(),
    )
}

/// The benchmark's handler: answers `200` with the next seeded body,
/// and counts calls and requests for any path but `expect_prefix`. The
/// layer calls back into it, so in a traced run each call is timed as a
/// `handler` callback.
fn counting_handler(
    bodies: Rc<Vec<String>>,
    expect_prefix: &'static str,
    calls: Rc<Cell<u64>>,
    strays: Rc<Cell<u64>>,
    tracer: Tracer,
) -> Handler {
    handler(move |req| {
        tracer.callback("handler", || {
            let n = calls.get();
            calls.set(n + 1);
            if !req.path.starts_with(expect_prefix) {
                strays.set(strays.get() + 1);
            }
            Io::pure(Response::ok(bodies[n as usize % bodies.len()].clone()))
        })
    })
}

struct Keepalive {
    load: LoadConfig,
    bodies: Rc<Vec<String>>,
}

pub fn make_keepalive(seed: u64, size: Size) -> Box<dyn Workload> {
    Box::new(Keepalive {
        load: LoadConfig {
            clients: keepalive_clients(size),
            shards: SHARDS,
            requests_per_conn: REQUESTS_PER_CONN,
            arrival_gap: KEEPALIVE_GAP_US,
            queue_capacity: 1_024,
            ..LoadConfig::default()
        },
        bodies: bodies(&mut Rng::new(seed, 4)),
    })
}

impl Workload for Keepalive {
    fn rep(&self, tracer: &Tracer) -> Rep {
        let calls = Rc::new(Cell::new(0));
        let strays = Rc::new(Cell::new(0));
        let (result, rt) = build_and_run(tracer, || {
            let h = counting_handler(
                Rc::clone(&self.bodies),
                "/bench",
                Rc::clone(&calls),
                Rc::clone(&strays),
                tracer.clone(),
            );
            sharded_load(h, self.load)
        });
        let _s = tracer.span("verify");
        let want = (self.load.clients * self.load.requests_per_conn) as u64;
        let mut rep = Rep {
            ops: want,
            stats: rt.stats().clone(),
            ..Rep::default()
        };
        match result {
            Ok((oks, snap)) => {
                rep.failed = want.saturating_sub(oks.max(0) as u64);
                rep.check(rep.failed == 0, || {
                    format!("httpd_keepalive: {oks} of {want} requests came back 200")
                });
                rep.check_all(snap.served as u64 == want && snap.conserved(), || {
                    format!("httpd_keepalive: conservation broken: {snap:?}")
                });
                rep.serve = Some(Serve {
                    snapshot: snap,
                    handler_calls: calls.get(),
                });
            }
            Err(e) => rep.check_all(false, || format!("httpd_keepalive: run failed: {e}")),
        }
        rep.check_all(calls.get() == want && strays.get() == 0, || {
            format!(
                "httpd_keepalive: handler saw {} calls, {} stray paths",
                calls.get(),
                strays.get()
            )
        });
        // Each shard's feeder sleeps one gap before each of its
        // connections and nothing else takes virtual time, except that
        // the acceptor polls its accept queue: the last connection
        // waits one poll interval to be taken.
        let per_shard = self.load.clients.div_ceil(self.load.shards) as u64;
        let makespan = per_shard * self.load.arrival_gap + POLL_INTERVAL;
        rep.check_all(rt.clock() == makespan, || {
            format!(
                "httpd_keepalive: virtual makespan {} µs, closed form {makespan} µs",
                rt.clock()
            )
        });
        rep
    }
}

/// The `httpd_keepalive` load through `wall_parallel_load` at 2 shards
/// — one scheduler per shard on `os_threads` OS threads. Returns the
/// report and the wall seconds; the caller compares `os_threads` 1
/// against 2 for `runtime.parallel.*`.
pub fn keepalive_wall_parallel(size: Size, os_threads: usize) -> (WallReport, f64) {
    let cfg = WallConfig {
        shards: 2,
        clients: keepalive_clients(size),
        requests_per_conn: REQUESTS_PER_CONN,
        arrival_gap: KEEPALIVE_GAP_US,
        os_threads,
        ..WallConfig::default()
    };
    let start = Instant::now();
    let report = wall_parallel_load(|| handler(|_| Io::pure(Response::ok("ok"))), cfg);
    (report, start.elapsed().as_secs_f64())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Client {
    Good,
    /// Sends a partial request and stops: the read timeout answers 408.
    Stalling,
    /// Trickles the request in well inside the read budget: 200.
    TrickleFast,
    /// Trickles too slowly to finish inside the read budget: 408.
    TrickleSlow,
    /// Not HTTP: 400.
    Garbage,
}

impl Client {
    fn expected_status(self) -> i64 {
        match self {
            Client::Good | Client::TrickleFast => 200,
            Client::Stalling | Client::TrickleSlow => 408,
            Client::Garbage => 400,
        }
    }
}

const CHURN_GAP_US: u64 = 50;
/// A `GET /c<i> HTTP/1.0` request is ~22 characters: at 50 µs each it
/// arrives in ~1 ms, at 1 000 µs each it needs ~22 ms — either side of
/// the 10 ms read budget by a wide margin.
const TRICKLE_FAST_US: u64 = 50;
const TRICKLE_SLOW_US: u64 = 1_000;
const READ_TIMEOUT_US: u64 = 10_000;
/// The last connections of a churn rep are all well-behaved, for long
/// enough (in arrival gaps) that every stalled or trickling connection
/// before them has been timed out and has left: the rep's virtual
/// makespan is then the same closed form for every seed.
const CHURN_GOOD_TAIL_US: u64 = 30_000;

struct Churn {
    clients: Rc<Vec<Client>>,
    bodies: Rc<Vec<String>>,
}

pub fn make_churn(seed: u64, size: Size) -> Box<dyn Workload> {
    let n: usize = size.pick(1_500, 800);
    let mut rng = Rng::new(seed, 5);
    let tail = (CHURN_GOOD_TAIL_US / CHURN_GAP_US) as usize;
    let (stalling, trickling, garbage) = (n * 4 / 100, n * 3 / 100, n * 3 / 100);
    let mut clients = Vec::with_capacity(n);
    clients.extend(std::iter::repeat_n(Client::Stalling, stalling));
    clients.extend(std::iter::repeat_n(
        Client::TrickleFast,
        trickling.div_ceil(2),
    ));
    clients.extend(std::iter::repeat_n(Client::TrickleSlow, trickling / 2));
    clients.extend(std::iter::repeat_n(Client::Garbage, garbage));
    assert!(clients.len() + tail <= n, "the good tail must fit");
    clients.resize(n - tail, Client::Good);
    rng.shuffle(&mut clients);
    clients.resize(n, Client::Good);
    Box::new(Churn {
        clients: Rc::new(clients),
        bodies: bodies(&mut rng),
    })
}

/// Connection `i`: run its client, then pass `(i, status)` to the
/// collector.
fn churn_client(l: Listener, i: usize, kind: Client, results: Chan<(i64, i64)>) -> Io<()> {
    Io::new_empty_mvar::<i64>().and_then(move |report: MVar<i64>| {
        // Fixed width, so that what a connection sends does not depend
        // on where the seed placed it.
        let path = format!("/c{i:04}");
        let client = match kind {
            Client::Good => good_client(l, path, report),
            Client::Stalling => stalling_client(l, report),
            Client::TrickleFast => trickling_client(l, path, TRICKLE_FAST_US, report),
            Client::TrickleSlow => trickling_client(l, path, TRICKLE_SLOW_US, report),
            Client::Garbage => garbage_client(l, report),
        };
        client
            .then(report.take())
            .and_then(move |status| results.send((i as i64, status)))
    })
}

fn churn_program(clients: Rc<Vec<Client>>, h: Handler) -> Io<(Vec<(i64, i64)>, StatsSnapshot)> {
    let config = ServerConfig {
        read_timeout: READ_TIMEOUT_US,
        // Never shed: every connection must reach its own outcome.
        max_active: clients.len() as i64,
        ..ServerConfig::default()
    };
    let n = clients.len();
    Listener::bind().and_then(move |l| {
        start(l, h, config).and_then(move |server| {
            Chan::<(i64, i64)>::new().and_then(move |results| {
                let feeder = for_each(n as u64, move |i| {
                    let i = i as usize;
                    Io::sleep(CHURN_GAP_US).then(Io::fork(churn_client(l, i, clients[i], results)))
                });
                Io::fork(feeder)
                    .then(recv_n(results, n))
                    .and_then(move |statuses| {
                        server
                            .shutdown_sync()
                            .then(server.drain())
                            .then(server.stats.snapshot())
                            .map(move |snap| (statuses, snap))
                    })
            })
        })
    })
}

impl Workload for Churn {
    fn rep(&self, tracer: &Tracer) -> Rep {
        let calls = Rc::new(Cell::new(0));
        let strays = Rc::new(Cell::new(0));
        let (result, rt) = build_and_run(tracer, || {
            let h = counting_handler(
                Rc::clone(&self.bodies),
                "/c",
                Rc::clone(&calls),
                Rc::clone(&strays),
                tracer.clone(),
            );
            churn_program(Rc::clone(&self.clients), h)
        });
        let _s = tracer.span("verify");
        let n = self.clients.len();
        let mut rep = Rep {
            ops: n as u64,
            stats: rt.stats().clone(),
            ..Rep::default()
        };
        let count = |status: i64| {
            self.clients
                .iter()
                .filter(|c| c.expected_status() == status)
                .count() as i64
        };
        match result {
            Ok((statuses, snap)) => {
                let mut seen = vec![false; n];
                for (i, status) in statuses {
                    let i = i as usize;
                    let ok = i < n && !seen[i] && status == self.clients[i].expected_status();
                    if i < n {
                        seen[i] = true;
                    }
                    if !rep.check(ok, || format!("httpd_churn: connection {i} got {status}")) {
                        rep.failed += 1;
                    }
                }
                let want = StatsSnapshot {
                    served: count(200),
                    read_timeouts: count(408),
                    parse_errors: count(400),
                    accepted: n as i64,
                    ..StatsSnapshot::default()
                };
                rep.check_all(snap == want && snap.conserved(), || {
                    format!("httpd_churn: outcomes {snap:?}, expected {want:?}")
                });
                rep.serve = Some(Serve {
                    snapshot: snap,
                    handler_calls: calls.get(),
                });
            }
            Err(e) => rep.check_all(false, || format!("httpd_churn: run failed: {e}")),
        }
        rep.check_all(
            calls.get() as i64 == count(200) && strays.get() == 0,
            || {
                format!(
                    "httpd_churn: handler saw {} calls, {} stray paths",
                    calls.get(),
                    strays.get()
                )
            },
        );
        // The feeder sleeps one gap before each connection; the last
        // connections are well-behaved and take no virtual time.
        let makespan = n as u64 * CHURN_GAP_US;
        rep.check_all(rt.clock() == makespan, || {
            format!(
                "httpd_churn: virtual makespan {} µs, closed form {makespan} µs",
                rt.clock()
            )
        });
        rep
    }
}
