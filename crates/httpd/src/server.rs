//! The fork-per-connection plane (§11, after \[8\]): one worker thread
//! per connection, one request per connection.
//!
//! Per connection the server makes "heavy use of time-outs,
//! multithreading and exceptions", all via the paper's combinators:
//!
//! * `forkIO` per connection;
//! * [`timeout`] on reading the request (defeats stalled clients) and on
//!   running the handler (defeats slow handlers) — composable because
//!   timeouts carry no exception (§7.3);
//! * `catch` around the handler, turning crashes into `500`s;
//! * graceful shutdown by `throwTo KillThread` at the acceptor — safe
//!   because a blocked `accept` is an interruptible operation (§5.3).
//!
//! The counters, the handler guard and the audit protocol are the
//! shared [`crate::core`]; this module is the accept policy (shed on
//! `max_active`, else fork) and the one-request connection body.

use std::rc::Rc;

use conch_combinators::timeout;
use conch_runtime::io::Io;
use conch_runtime::mvar::MVar;

use crate::core::{finish, register_worker, serve_request, Outcome, Workers};
pub use crate::core::{handler, Handler, Server, ServerStats, StatsSnapshot};
use crate::http::Response;
use crate::net::{connection_closed, request_too_large, Connection, Listener};

/// Server tuning knobs (virtual microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Budget for receiving the complete request.
    pub read_timeout: u64,
    /// Budget for the handler to produce a response.
    pub handler_timeout: u64,
    /// Load-shedding threshold: when this many connections are already
    /// active, new connections are answered `503` + `Retry-After`
    /// instead of getting a worker.
    pub max_active: i64,
    /// The `Retry-After` hint (virtual seconds) on shed responses.
    pub retry_after: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            read_timeout: 10_000,
            handler_timeout: 50_000,
            max_active: 64,
            retry_after: 1,
        }
    }
}

/// Starts the server: forks the acceptor loop and returns immediately.
pub fn start(listener: Listener, h: Handler, config: ServerConfig) -> Io<Server> {
    Server::launch(move |stats, workers| accept_loop(listener, h, config, stats, workers))
}

/// The acceptor: accept, account, shed or fork a worker, loop. The
/// post-accept bookkeeping runs inside `block` so a graceful-shutdown
/// `KillThread` can only land while the acceptor *waits* (accept is an
/// interruptible operation, §5.3) — never between taking a connection
/// off the queue and accounting for it, which would strand the
/// connection outside the conservation law.
fn accept_loop(
    listener: Listener,
    h: Handler,
    config: ServerConfig,
    stats: ServerStats,
    workers: MVar<Workers>,
) -> Io<()> {
    let h2 = Rc::clone(&h);
    Io::block(listener.accept().and_then(move |conn| {
        stats
            .accept_or_shed(move |active| active < config.max_active)
            .and_then(move |admitted| {
                if admitted {
                    // The worker inherits the acceptor's mask, so its
                    // killed-path catch is installed before any
                    // asynchronous exception can land.
                    let worker = handle_connection(conn, h, config, stats);
                    Io::fork(worker).and_then(move |tid| register_worker(workers, tid))
                } else {
                    // Graceful degradation: answer 503 + Retry-After
                    // without spending a worker. `send_response` never
                    // blocks, so the shed path cannot wedge the acceptor.
                    conn.send_response(Response::unavailable(config.retry_after).render())
                }
            })
    }))
    .and_then(move |_| accept_loop(listener, h2, config, stats, workers))
}

/// Handles one admitted connection: every exit path (normal outcome,
/// peer abort, asynchronous kill) funnels into [`finish`].
fn handle_connection(
    conn: Connection,
    h: Handler,
    config: ServerConfig,
    stats: ServerStats,
) -> Io<()> {
    // Runs masked when forked by the acceptor (mask inheritance), and
    // the catch is installed while still masked: a catch handler runs
    // at its *saved* mask. Only serve_one runs unblocked. Anything
    // still uncaught after serve_one's own recovery is a worker torn
    // down by an asynchronous exception (e.g. a KillThread storm) —
    // its outcome is `Killed`.
    Io::unblock(serve_one(conn, h, config))
        .catch(|_| Io::pure(Outcome::Killed))
        .and_then(move |outcome| finish(stats, outcome))
}

/// The one-request connection: read with a timeout, serve, send.
pub(crate) fn serve_one(conn: Connection, h: Handler, config: ServerConfig) -> Io<Outcome> {
    let answer = move |(outcome, resp)| conn.send_response(resp).map(move |_| outcome);
    timeout(config.read_timeout, conn.read_request_text())
        .and_then(move |text| match text {
            None => Io::pure((Outcome::ReadTimeout, Response::status(408).render())),
            Some(text) => serve_request(&text, &h, config.handler_timeout),
        })
        .and_then(answer)
        .catch(move |e| {
            if e == connection_closed() {
                // A peer that closes mid-request is an aborted
                // connection, not a server failure: account it and send
                // nothing (nobody is reading).
                Io::pure(Outcome::Aborted)
            } else if e == request_too_large() {
                answer((Outcome::ParseError, Response::status(400).render()))
            } else {
                Io::throw(e)
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Request;
    use conch_runtime::prelude::*;

    fn hello_handler() -> Handler {
        handler(|req| Io::pure(Response::ok(format!("hello {}", req.path))))
    }

    fn run_one_request(
        h: Handler,
        cfg: ServerConfig,
        request_io: impl Fn(Connection) -> Io<()> + 'static,
    ) -> (String, StatsSnapshot) {
        let mut rt = Runtime::new();
        let prog = Listener::bind().and_then(move |l| {
            start(l, h, cfg).and_then(move |server| {
                l.connect().and_then(move |conn| {
                    Io::fork(request_io(conn))
                        .then(conn.read_response())
                        .and_then(move |resp| {
                            server
                                .shutdown()
                                .then(server.drain())
                                .then(server.stats.snapshot())
                                .map(move |snap| (resp, snap))
                        })
                })
            })
        });
        rt.run(prog).unwrap()
    }

    #[test]
    fn slow_client_within_budget_is_served() {
        let cfg = ServerConfig {
            read_timeout: 100_000,
            ..ServerConfig::default()
        };
        let (resp, snap) = run_one_request(hello_handler(), cfg, |c| {
            c.send_text_slowly(Request::get("/slow").render(), 100)
        });
        assert!(resp.contains("200"), "got {resp}");
        assert_eq!(snap.served, 1);
        assert_eq!(snap.read_timeouts, 0);
    }

    #[test]
    fn serves_many_concurrent_connections() {
        let mut rt = Runtime::new();
        let n: i64 = 8;
        let prog = Listener::bind().and_then(move |l| {
            start(l, hello_handler(), ServerConfig::default()).and_then(move |server| {
                // n clients, each on its own thread, each reporting success.
                Io::new_empty_mvar().and_then(move |done| {
                    conch_runtime::io::for_each(n as u64, move |i| {
                        let client = l.connect().and_then(move |conn| {
                            conn.send_text(Request::get(format!("/{i}")).render())
                                .then(conn.read_response())
                                .and_then(move |resp| {
                                    assert!(resp.contains("200"), "got {resp}");
                                    done.put(())
                                })
                        });
                        Io::fork(client)
                    })
                    .then(conch_runtime::io::for_each(n as u64, move |_| done.take()))
                    .then(server.shutdown())
                    .then(server.drain())
                    .then(server.stats.snapshot())
                })
            })
        });
        let snap = rt.run(prog).unwrap();
        assert_eq!(snap.served, n);
        assert_eq!(snap.active, 0);
    }

    #[test]
    fn shutdown_stops_accepting_but_not_inflight() {
        let mut rt = Runtime::new();
        // A slow-ish handler; shutdown arrives mid-request; the in-flight
        // request still completes.
        let slowish = handler(|_| Io::sleep(5_000).map(|_| Response::ok("done")));
        let prog = Listener::bind().and_then(move |l| {
            start(l, slowish, ServerConfig::default()).and_then(move |server| {
                l.connect().and_then(move |conn| {
                    Io::fork(conn.send_text(Request::get("/").render()))
                        .then(Io::sleep(1_000)) // request is now in flight
                        .then(server.shutdown())
                        .then(conn.read_response())
                        .and_then(move |resp| server.drain().then(Io::pure(resp)))
                })
            })
        });
        let resp = rt.run(prog).unwrap();
        assert!(resp.contains("200"), "got {resp}");
    }
}
