//! The production-scale serving plane: N accept shards over keep-alive
//! [`Connection`]s.
//!
//! The fork plane accounts per *connection* through one stats cell
//! behind one accept loop; at 100k+ concurrent simulated clients that
//! single transactional cell is the measured bottleneck (every accept
//! and every outcome serializes on it), and one request per connection
//! pays a connection's set-up and a worker per request. This module
//! scales both axes:
//!
//! * **Sharding** — [`ShardedListener`] carries one bounded
//!   `Mailbox<Connection>` accept queue *per shard*, and
//!   [`start_sharded`] launches one [`Server`] (accept loop, stats
//!   cell, worker registry) per shard. Connections on different shards
//!   never contend on a stats cell or an accept queue.
//! * **Keep-alive + pipelining** — a connection carries many requests
//!   ([`Connection`] chunks concatenate into one byte stream);
//!   accounting moves from per-connection to **per-request**: a request
//!   enters the law when its final `\r\n\r\n` has been parsed out of
//!   the stream and leaves it through the same `finish` commit point
//!   the one-request planes use.
//! * **Bounded per-connection allocation** — each connection reuses one
//!   read buffer (drained in place per parsed request) and one response
//!   buffer (flushed whenever the parse buffer holds no further
//!   complete request, so `k` pipelined requests cost one outbound
//!   channel send — a batched wakeup for the waiting client, not `k`).
//!
//! The audit is [`crate::core`]'s protocol run over every shard:
//! [`ShardedServer::shutdown_sync`] → [`ShardedServer::drain`] →
//! [`ShardedServer::aggregate`], the sum of the quiesced per-shard
//! snapshots. The `sharded_pipeline` explorer space in `conch-faults`
//! certifies it on every schedule of a kill×schedule product, including
//! a `KillThread` landing between two pipelined requests.

use std::rc::Rc;

use conch_actors::Mailbox;
use conch_combinators::{timeout, Chan};
use conch_runtime::host_value;
use conch_runtime::ids::ThreadId;
use conch_runtime::io::{for_each, sequence, Io};
use conch_runtime::mvar::MVar;

use crate::core::{
    finish, register_worker, serve_request, Handler, Outcome, Server, ServerStats, StatsSnapshot,
    Workers,
};
use crate::http::{Request, Response};
use crate::net::{request_end, Connection};

/// Per-request budgets for the sharded plane (virtual microseconds).
/// Queue capacity is a property of the [`ShardedListener`]; shard count
/// is a property of whoever binds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Budget for reading the next wire segment off a keep-alive
    /// connection. An idle connection that times out with an empty
    /// buffer closes silently (normal keep-alive expiry, no request in
    /// the law); a timeout with a partial request buffered is answered
    /// `408` and accounted `accepted + read_timeout` in one transaction.
    pub read_timeout: u64,
    /// Budget for the handler to produce a response.
    pub handler_timeout: u64,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            read_timeout: 10_000,
            handler_timeout: 50_000,
        }
    }
}

/// N bounded accept queues, one per shard. Clients pick a shard (the
/// load driver routes round-robin; a real frontend would hash); the
/// bounded mailbox is the backpressure: `connect` blocks while the
/// shard's queue is full.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedListener {
    queues: Vec<Mailbox<Connection>>,
}

impl ShardedListener {
    /// Binds `shards` accept queues of `queue_capacity` connections each.
    pub fn bind(shards: usize, queue_capacity: i64) -> Io<ShardedListener> {
        assert!(shards >= 1, "a sharded listener needs at least one shard");
        let mut io: Io<Vec<Mailbox<Connection>>> = Io::pure(Vec::new());
        for _ in 0..shards {
            io = io.and_then(move |mut qs| {
                Mailbox::<Connection>::new(queue_capacity).map(move |q| {
                    qs.push(q);
                    qs
                })
            });
        }
        io.map(|queues| ShardedListener { queues })
    }

    /// The shard's accept queue (for feeders that cache the handle).
    pub(crate) fn queue(&self, shard: usize) -> Mailbox<Connection> {
        self.queues[shard]
    }

    /// Client side: open a connection on the given shard. Blocks while
    /// the shard's queue is full (backpressure, not shedding).
    pub fn connect(&self, shard: usize) -> Io<Connection> {
        let q = self.queue(shard);
        Connection::open().and_then(move |conn| q.send(conn).map(move |_| conn))
    }

    /// Hands an already-open connection to a shard's queue — the
    /// fault-injection entry point, mirroring `Listener::inject`: the
    /// connection's whole wire history can be composed before the
    /// server ever sees it.
    pub fn inject(&self, shard: usize, conn: Connection) -> Io<()> {
        self.queue(shard).send(conn)
    }
}

/// A running sharded server: one [`Server`] handle per accept shard,
/// each with its private stats cell and worker registry.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedServer {
    pub(crate) shards: Vec<Server>,
}

host_value!(ShardedListener, ShardedServer);

impl ShardedServer {
    /// [`Server::shutdown_sync`] on every shard, in shard order: once
    /// this returns, no shard can account another request, so each
    /// shard's `accepted` is final (in-flight requests still run to
    /// their outcome).
    pub fn shutdown_sync(&self) -> Io<()> {
        let stop = |io: Io<()>, sh: &Server| io.then(sh.shutdown_sync());
        self.shards.iter().fold(Io::unit(), stop)
    }

    /// [`Server::drain`] on every shard. Shards quiesce independently;
    /// polling them in order is fine because `active` never rises again
    /// after [`shutdown_sync`](Self::shutdown_sync) has returned and
    /// the shard's own queue has drained.
    pub fn drain(&self) -> Io<()> {
        let drain = |io: Io<()>, sh: &Server| io.then(sh.drain());
        self.shards.iter().fold(Io::unit(), drain)
    }

    /// The quiescent aggregate: the per-shard snapshots summed.
    /// Meaningful as a conservation-law witness only after
    /// `shutdown_sync` + `drain` (each cell must be final).
    pub fn aggregate(&self) -> Io<StatsSnapshot> {
        sequence(self.shards.iter().map(|sh| sh.stats.snapshot()).collect())
            .map(|per: Vec<StatsSnapshot>| per.iter().sum())
    }

    /// Every connection-handler thread id ever forked, across all
    /// shards in shard order — the kill-storm target list.
    pub fn worker_ids(&self) -> Io<Vec<ThreadId>> {
        sequence(self.shards.iter().map(Server::worker_ids).collect()).map(|per| per.concat())
    }
}

/// Launches one accept loop + stats cell + registry per listener shard.
pub fn start_sharded(l: &ShardedListener, h: Handler, cfg: ShardConfig) -> Io<ShardedServer> {
    let launches = l.queues.iter().map(|&q| {
        let h = Rc::clone(&h);
        Server::launch(move |stats, workers| shard_accept_loop(q, h, cfg, stats, workers))
    });
    sequence(launches.collect()).map(|shards| ShardedServer { shards })
}

/// One shard's acceptor: pop a connection, fork its handler, loop.
/// Runs masked so a shutdown `KillThread` can only land while the
/// `recv` *waits* (an interruptible operation). Unlike the one-request
/// acceptors there is no accounting here at all — requests, not
/// connections, enter the law, and they do so inside the handler when
/// parsed. A kill between `recv` and `fork` therefore cannot strand
/// anything: an unforked connection simply has no requests in the law.
fn shard_accept_loop(
    q: Mailbox<Connection>,
    h: Handler,
    cfg: ShardConfig,
    stats: ServerStats,
    workers: MVar<Workers>,
) -> Io<()> {
    let h2 = Rc::clone(&h);
    Io::block(q.recv().and_then(move |conn| {
        let worker = handle_frame_connection(conn, h, cfg, stats);
        Io::fork(worker).and_then(move |tid| register_worker(workers, tid))
    }))
    .and_then(move |_| shard_accept_loop(q, h2, cfg, stats, workers))
}

/// One keep-alive connection, start to close. Forked masked (mask
/// inheritance from the acceptor); only the per-request serve runs
/// unblocked. The top-level catch absorbs a `KillThread` that lands at
/// a blocking point with *no request mid-flight* — while the accept
/// transaction's `take` still waits (nothing committed) or while the
/// frame read blocks (the next request was never parsed, so it was
/// never accepted) — tearing the connection down without touching the
/// conservation law. A kill *during* a request is handled inside
/// [`conn_loop`]: the catch there records `Killed` through [`finish`].
fn handle_frame_connection(
    conn: Connection,
    h: Handler,
    cfg: ShardConfig,
    stats: ServerStats,
) -> Io<()> {
    conn_loop(conn, h, cfg, stats, String::new(), false, String::new()).catch(|_| Io::unit())
}

/// The keep-alive request loop. `buf` accumulates inbound bytes and is
/// drained in place per parsed request; `fin` records an already-seen
/// FIN (frames behind it may still hold complete requests); `respbuf`
/// batches rendered responses until no complete request remains
/// buffered, then flushes once.
fn conn_loop(
    conn: Connection,
    h: Handler,
    cfg: ShardConfig,
    stats: ServerStats,
    mut buf: String,
    fin: bool,
    respbuf: String,
) -> Io<()> {
    let Ok(complete) = request_end(&buf, 0) else {
        // The next request (terminated or not) has outgrown the buffer
        // cap: answer 400 behind whatever is already batched, account
        // it as a parse error and close — the stream cannot be resynced.
        let mut respbuf = respbuf;
        respbuf.push_str(&Response::status(400).render());
        return stats
            .accept_concluded(Outcome::ParseError)
            .then(conn.send_response(respbuf));
    };
    if let Some(end) = complete {
        // A complete request is buffered: it enters the law now (never
        // shed — backpressure is the bounded accept queue). From here
        // exactly one outcome is guaranteed: the unblocked serve either
        // returns one (possibly timeout/500-shaped) or a kill lands and
        // the catch turns it into `Killed`; either way `finish` commits
        // the outcome with the active decrement.
        let serve = serve_request(&buf[..end], &h, cfg.handler_timeout);
        buf.drain(..end);
        return stats
            .accept_or_shed(|_| true)
            .then(Io::unblock(serve).catch(|_| Io::pure((Outcome::Killed, String::new()))))
            .and_then(move |(outcome, resp)| {
                finish(stats, outcome).then(if outcome == Outcome::Killed {
                    // Torn down mid-request: the outcome is recorded;
                    // the connection dies without flushing.
                    Io::unit()
                } else {
                    let mut respbuf = respbuf;
                    if respbuf.is_empty() {
                        // First response of a flush window: size the
                        // batch once, guessing that the rest of the
                        // buffered run looks like this request. Only a
                        // hint — a guess too big to grant is dropped
                        // and `push_str` grows the batch as it goes.
                        let run = 1 + buf.len() / end;
                        let _ = respbuf.try_reserve(resp.len().saturating_mul(run));
                    }
                    respbuf.push_str(&resp);
                    conn_loop(conn, h, cfg, stats, buf, fin, respbuf)
                })
            });
    }
    // No complete request buffered: flush the batched responses (one
    // channel send wakes the client once for the whole pipelined run;
    // sends never block, so flushing is safe under the mask).
    let flush = if respbuf.is_empty() {
        Io::unit()
    } else {
        conn.send_response(respbuf)
    };
    if fin {
        return flush.then(if buf.is_empty() {
            Io::unit()
        } else {
            // Trailing partial request, then FIN: the peer hung up
            // mid-request.
            stats.accept_concluded(Outcome::Aborted)
        });
    }
    // Read exactly one frame per iteration, so the timeout budget is
    // per wire segment and — crucially — `buf` reflects every byte that
    // has actually arrived when the budget lapses: a frame that lands
    // mid-wait re-enters the loop (re-evaluating the partial/idle
    // decision against the grown buffer) instead of being discarded
    // with the killed read.
    let had_partial = !buf.is_empty();
    flush.then(
        timeout(cfg.read_timeout, conn.recv_frame()).and_then(move |r| match r {
            Some((frame, fin)) => {
                let mut buf = buf;
                buf.push_str(&frame);
                conn_loop(conn, h, cfg, stats, buf, fin, String::new())
            }
            // Stalled mid-request: answer 408 and account the partial
            // request.
            None if had_partial => stats
                .accept_concluded(Outcome::ReadTimeout)
                .then(conn.send_response(Response::status(408).render())),
            // Idle keep-alive expiry: no bytes buffered, no request in
            // the law — close silently.
            None => Io::unit(),
        }),
    )
}

// ---------------------------------------------------------------------
// The synthetic production-scale load driver
// ---------------------------------------------------------------------

/// Shape of a load run: `clients` keep-alive connections spread over
/// `shards`, each carrying `requests_per_conn` pipelined requests in a
/// single FIN-terminated frame, arrivals paced `arrival_gap` virtual
/// microseconds apart *per shard* (so the virtual makespan is
/// `(clients / shards) × arrival_gap` — sharding buys virtual-time
/// throughput linearly, on top of splitting the stats-cell contention).
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    pub clients: usize,
    pub shards: usize,
    pub requests_per_conn: usize,
    pub arrival_gap: u64,
    pub queue_capacity: i64,
    pub server: ShardConfig,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            clients: 1_000,
            shards: 4,
            requests_per_conn: 10,
            arrival_gap: 100,
            queue_capacity: 1_024,
            server: ShardConfig::default(),
        }
    }
}

/// Runs the full load against `h` and returns `(oks, aggregate)`:
/// the number of `200` responses every client collected, and the
/// quiescent-aggregate snapshot after the audit protocol, so
/// `aggregate.conserved()` is the conservation-law verdict. Clients
/// split evenly over the shards ([`per_shard`]); per shard one feeder
/// thread paces its connections in and one collector thread reads each
/// connection's single batched response frame.
pub fn sharded_load(h: Handler, cfg: LoadConfig) -> Io<(i64, StatsSnapshot)> {
    assert!(cfg.shards >= 1 && cfg.requests_per_conn >= 1);
    ShardedListener::bind(cfg.shards, cfg.queue_capacity).and_then(move |l| {
        start_sharded(&l, h, cfg.server).and_then(move |server| {
            Chan::<i64>::new().and_then(move |report| {
                let mut forks = Io::unit();
                for shard in 0..cfg.shards {
                    let conns = per_shard(cfg.clients, cfg.shards, shard) as u64;
                    let q = l.queue(shard);
                    forks = forks.then(Chan::<Connection>::new().and_then(move |pipe| {
                        Io::fork(feeder(q, pipe, conns, cfg))
                            .then(Io::fork(collector(pipe, conns, report)))
                            .map(|_| ())
                    }));
                }
                forks
                    .then(sum_reports(report, cfg.shards as u64, 0))
                    .and_then(move |oks| {
                        server
                            .shutdown_sync()
                            .then(server.drain())
                            .then(server.aggregate())
                            .map(move |aggregate| (oks, aggregate))
                    })
            })
        })
    })
}

/// Connections shard `i` carries: an even split, remainder to the
/// lowest-numbered shards.
pub(crate) fn per_shard(clients: usize, shards: usize, i: usize) -> usize {
    clients / shards + usize::from(i < clients % shards)
}

/// One shard's load feeder: every `arrival_gap` µs, open a connection,
/// pre-write its entire pipelined run as one FIN-terminated frame
/// (channel sends never block, so composing the wire history costs no
/// interleaving), enqueue it on the shard, and pass the handle to the
/// collector.
fn feeder(q: Mailbox<Connection>, pipe: Chan<Connection>, conns: u64, cfg: LoadConfig) -> Io<()> {
    let one = Request::get("/bench").render();
    let frame = one.repeat(cfg.requests_per_conn);
    for_each(conns, move |_| {
        let frame = frame.clone();
        Io::sleep(cfg.arrival_gap).then(Connection::open().and_then(move |conn| {
            conn.send_frame_fin(frame)
                .then(q.send(conn))
                .then(pipe.send(conn))
        }))
    })
}

/// One shard's collector: for each connection the feeder opened, read
/// its single batched response frame and count the `200`s, then report
/// the shard total.
fn collector(pipe: Chan<Connection>, conns: u64, report: Chan<i64>) -> Io<()> {
    fn go(pipe: Chan<Connection>, left: u64, acc: i64, report: Chan<i64>) -> Io<()> {
        if left == 0 {
            return report.send(acc);
        }
        pipe.recv().and_then(move |conn| {
            conn.read_response().and_then(move |resp| {
                let got = resp.matches("HTTP/1.0 200").count() as i64;
                go(pipe, left - 1, acc + got, report)
            })
        })
    }
    go(pipe, conns, 0, report)
}

fn sum_reports(report: Chan<i64>, left: u64, acc: i64) -> Io<i64> {
    if left == 0 {
        return Io::pure(acc);
    }
    report
        .recv()
        .and_then(move |n| sum_reports(report, left - 1, acc + n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::handler;
    use conch_runtime::prelude::*;

    fn hello() -> Handler {
        handler(|req| Io::pure(Response::ok(format!("hello {}", req.path))))
    }

    fn start_one_shard() -> Io<(ShardedListener, ShardedServer)> {
        ShardedListener::bind(1, 16)
            .and_then(|l| start_sharded(&l, hello(), ShardConfig::default()).map(move |s| (l, s)))
    }

    fn audit(server: ShardedServer) -> Io<StatsSnapshot> {
        server
            .shutdown_sync()
            .then(server.drain())
            .then(server.aggregate())
    }

    #[test]
    fn pipelined_requests_batch_into_one_response_frame() {
        let mut rt = Runtime::new();
        let prog = start_one_shard().and_then(|(l, server)| {
            // Unequal lengths: each request is cut from the front of
            // the one read buffer at its own terminator.
            let frame: String = ["/a", "/a/much/longer/path", "/b"]
                .map(|path| Request::get(path).render())
                .concat();
            l.connect(0).and_then(move |conn| {
                conn.send_frame_fin(frame)
                    .then(conn.read_response())
                    .and_then(move |resp| audit(server).map(move |agg| (resp, agg)))
            })
        });
        let (resp, agg) = rt.run(prog).unwrap();
        let bodies = ["hello /a", "hello /a/much/longer/path", "hello /b"];
        let expected: String = bodies.map(|body| Response::ok(body).render()).concat();
        assert_eq!(resp, expected);
        assert_eq!(agg.accepted, 3);
        assert_eq!(agg.served, 3);
        assert!(agg.conserved(), "{agg:?}");
    }

    #[test]
    fn interactive_keep_alive_flushes_per_request() {
        let mut rt = Runtime::new();
        let prog = start_one_shard().and_then(|(l, server)| {
            l.connect(0).and_then(move |conn| {
                conn.send_text(Request::get("/one").render())
                    .then(conn.read_response())
                    .and_then(move |first| {
                        conn.send_frame_fin(Request::get("/two").render())
                            .then(conn.read_response())
                            .and_then(move |second| {
                                audit(server).map(move |agg| (first, second, agg))
                            })
                    })
            })
        });
        let (first, second, agg) = rt.run(prog).unwrap();
        assert!(first.contains("hello /one"), "got {first}");
        assert!(second.contains("hello /two"), "got {second}");
        assert_eq!(agg.served, 2);
        assert!(agg.conserved(), "{agg:?}");
    }

    #[test]
    fn request_spanning_frames_is_reassembled() {
        let mut rt = Runtime::new();
        let prog = start_one_shard().and_then(|(l, server)| {
            let text = Request::get("/split").render();
            let (a, b) = text.split_at(7);
            let (a, b) = (a.to_owned(), b.to_owned());
            l.connect(0).and_then(move |conn| {
                conn.send_text(a)
                    .then(conn.send_frame_fin(b))
                    .then(conn.read_response())
                    .and_then(move |resp| audit(server).map(move |agg| (resp, agg)))
            })
        });
        let (resp, agg) = rt.run(prog).unwrap();
        assert!(resp.contains("hello /split"), "got {resp}");
        assert_eq!(agg.accepted, 1);
        assert!(agg.conserved(), "{agg:?}");
    }

    #[test]
    fn idle_connection_expires_silently_outside_the_law() {
        let mut rt = Runtime::new();
        let prog = ShardedListener::bind(1, 16).and_then(|l| {
            let cfg = ShardConfig {
                read_timeout: 1_000,
                ..ShardConfig::default()
            };
            start_sharded(&l, hello(), cfg).and_then(move |server| {
                // Connect, send nothing, let the keep-alive budget lapse.
                l.connect(0).then(Io::sleep(5_000)).then(audit(server))
            })
        });
        let agg = rt.run(prog).unwrap();
        assert_eq!(agg.accepted, 0, "{agg:?}");
        assert!(agg.conserved(), "{agg:?}");
    }

    #[test]
    fn load_runs_spread_over_shards_and_conserve() {
        let mut rt = Runtime::new();
        let cfg = LoadConfig {
            clients: 40,
            shards: 4,
            requests_per_conn: 5,
            arrival_gap: 10,
            ..LoadConfig::default()
        };
        let (oks, agg) = rt.run(sharded_load(hello(), cfg)).unwrap();
        assert_eq!(oks, 200);
        assert_eq!(agg.accepted, 200);
        assert_eq!(agg.served, 200);
        assert!(agg.conserved(), "{agg:?}");
    }

    #[test]
    fn uneven_client_counts_split_across_shards() {
        assert_eq!(per_shard(10, 3, 0), 4);
        assert_eq!(per_shard(10, 3, 1), 3);
        assert_eq!(per_shard(10, 3, 2), 3);
        let mut rt = Runtime::new();
        let cfg = LoadConfig {
            clients: 7,
            shards: 3,
            requests_per_conn: 2,
            arrival_gap: 10,
            ..LoadConfig::default()
        };
        let (oks, agg) = rt.run(sharded_load(hello(), cfg)).unwrap();
        assert_eq!(oks, 14);
        assert!(agg.conserved(), "{agg:?}");
    }
}
