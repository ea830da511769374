//! Exception storms: bursts of `throwTo KillThread` at worker threads.
//!
//! The §11 fault-tolerance story run in reverse — instead of a
//! supervisor keeping workers alive, an adversary tries to kill them
//! at the worst possible moment, and the server's bracket discipline
//! has to keep the counters conserved anyway. Each potential strike is
//! an injector decision, so in explore mode the engine enumerates every
//! subset of workers × every delivery interleaving.
//!
//! Striking a worker that already finished is deliberately fine:
//! thread ids are generation-tagged, so the `throwTo` is a no-op
//! rather than friendly fire against an unrelated thread that reused
//! the slot.
//!
//! Against the supervised pool ([`kill_storm_pooled`]) the storm also
//! targets the **pool supervisor itself** — a supervisor is a thread
//! like any other, and the tree must heal around its death. Those
//! strikes are delivered with the §9 *synchronous* `throwTo`: a pool
//! worker outlives any one connection, so an asynchronous strike still
//! in flight when the storm "ends" could land on a connection accepted
//! *after* the episode (the audit's healthy probe). That would not be
//! a fault-tolerance failure, just an unanswerable client — so the
//! pooled storm is over when it returns.

use conch_combinators::kill_thread;
use conch_httpd::pool::PooledServer;
use conch_httpd::server::Server;
use conch_runtime::exception::Exception;
use conch_runtime::ids::ThreadId;
use conch_runtime::io::Io;

use crate::inject::Injector;

/// One storm pass over an explicit target list: for every thread, ask
/// the injector whether to strike it with `KillThread`. Returns how
/// many strikes were delivered (thrown — a strike at an
/// already-finished thread still counts, and is still harmless).
/// `sync` selects the §9 synchronous `throwTo` for each strike.
pub fn kill_storm_targets(tids: Vec<ThreadId>, inj: &Injector, sync: bool) -> Io<i64> {
    strike_each(inj.clone(), sync, tids.into_iter(), 0)
}

/// One storm pass: every worker the server has ever forked is a
/// potential target.
pub fn kill_storm(server: &Server, inj: &Injector) -> Io<i64> {
    let inj = inj.clone();
    server
        .worker_ids()
        .and_then(move |tids| kill_storm_targets(tids, &inj, false))
}

/// One storm pass against the supervised pool: every worker
/// incarnation ever started *and* the current pool-supervisor
/// incarnation are potential targets (the root is spared — it is the
/// trusted base that heals the tree). Strikes are synchronous; see the
/// module docs for why.
pub fn kill_storm_pooled(server: &PooledServer, inj: &Injector) -> Io<i64> {
    let inj = inj.clone();
    let server = *server;
    server.plane.worker_ids().and_then(move |mut tids| {
        server.pool_supervisor_ids().and_then(move |sups| {
            tids.extend(sups);
            kill_storm_targets(tids, &inj, true)
        })
    })
}

fn strike_each(
    inj: Injector,
    sync: bool,
    mut tids: std::vec::IntoIter<ThreadId>,
    kills: i64,
) -> Io<i64> {
    match tids.next() {
        None => Io::pure(kills),
        Some(tid) => inj.strike().and_then(move |hit| {
            if hit {
                let strike = if sync {
                    Io::throw_to_sync(tid, Exception::kill_thread())
                } else {
                    kill_thread(tid)
                };
                strike.and_then(move |_| strike_each(inj, sync, tids, kills + 1))
            } else {
                strike_each(inj, sync, tids, kills)
            }
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::prepared_connection;
    use crate::fault::ConnFault;
    use conch_httpd::http::Response;
    use conch_httpd::net::Listener;
    use conch_httpd::server::{handler, start, ServerConfig};
    use conch_runtime::prelude::*;

    #[test]
    fn storm_kills_live_workers_and_counters_conserve() {
        let mut rt = Runtime::new();
        let cfg = ServerConfig {
            read_timeout: 10_000,
            handler_timeout: 10_000,
            ..ServerConfig::default()
        };
        // A stalled connection parks a worker in its read; the storm
        // kills it; the counters must still conserve (killed, not
        // leaked).
        let prog = Listener::bind().and_then(move |l| {
            start(l, handler(|_| Io::pure(Response::ok("hi"))), cfg).and_then(move |server| {
                prepared_connection(ConnFault::Stall, "/x").and_then(move |conn| {
                    l.inject(conn)
                        .then(Io::sleep(100)) // let the worker park in the read
                        .then(kill_storm(&server, &Injector::scripted([1])))
                        .and_then(move |kills| {
                            server
                                .drain()
                                .then(server.shutdown())
                                .then(server.stats.snapshot())
                                .map(move |snap| (kills, snap))
                        })
                })
            })
        });
        let (kills, snap) = rt.run(prog).unwrap();
        assert_eq!(kills, 1);
        assert_eq!(snap.killed, 1, "{snap:?}");
        assert!(snap.conserved(), "{snap:?}");
    }

    #[test]
    fn storm_against_finished_workers_is_a_no_op() {
        let mut rt = Runtime::new();
        let cfg = ServerConfig::default();
        // Serve a request to completion, then storm the (finished)
        // worker: the strike is thrown but lands nowhere.
        let prog = Listener::bind().and_then(move |l| {
            start(l, handler(|_| Io::pure(Response::ok("hi"))), cfg).and_then(move |server| {
                prepared_connection(ConnFault::None, "/x").and_then(move |conn| {
                    l.inject(conn)
                        .then(conn.read_response())
                        .then(server.drain())
                        .then(kill_storm(&server, &Injector::scripted([1])))
                        .and_then(move |kills| {
                            server
                                .shutdown()
                                .then(server.stats.snapshot())
                                .map(move |snap| (kills, snap))
                        })
                })
            })
        });
        let (kills, snap) = rt.run(prog).unwrap();
        assert_eq!(kills, 1, "the strike is thrown even at a finished worker");
        assert_eq!(snap.served, 1);
        assert_eq!(
            snap.killed, 0,
            "a dead slot must absorb the strike: {snap:?}"
        );
        assert!(snap.conserved(), "{snap:?}");
    }

    #[test]
    fn pooled_storm_strikes_worker_and_supervisor_and_pool_heals() {
        use conch_httpd::pool::{start_pooled, PoolConfig};
        let mut rt = Runtime::new();
        let cfg = PoolConfig {
            workers: 1,
            queue_capacity: 2,
            server: ServerConfig::default(),
            ..PoolConfig::default()
        };
        // Strike both targets: the one worker and the pool supervisor.
        // The root restarts the pool; a follow-up request is served and
        // the counters conserve.
        let prog = Listener::bind().and_then(move |l| {
            start_pooled(l, handler(|_| Io::pure(Response::ok("hi"))), cfg).and_then(
                move |server| {
                    prepared_connection(ConnFault::Stall, "/x").and_then(move |conn| {
                        l.inject(conn)
                            .then(Io::sleep(100))
                            .then(kill_storm_pooled(&server, &Injector::scripted([1, 1])))
                            .and_then(move |kills| {
                                prepared_connection(ConnFault::None, "/again").and_then(
                                    move |probe| {
                                        l.inject(probe).then(probe.read_response()).and_then(
                                            move |resp| {
                                                server
                                                    .plane
                                                    .shutdown_sync()
                                                    .then(server.plane.drain())
                                                    .then(server.plane.stats.snapshot())
                                                    .and_then(move |snap| {
                                                        server
                                                            .stop_sync()
                                                            .map(move |_| (kills, resp, snap))
                                                    })
                                            },
                                        )
                                    },
                                )
                            })
                    })
                },
            )
        });
        let (kills, resp, snap) = rt.run(prog).unwrap();
        assert_eq!(kills, 2, "worker and pool supervisor both struck");
        assert!(resp.contains("200"), "got {resp}");
        assert_eq!(
            snap.killed, 1,
            "the stalled connection died with its worker: {snap:?}"
        );
        assert!(snap.conserved(), "{snap:?}");
    }

    #[test]
    fn quiet_injector_spares_everyone() {
        let mut rt = Runtime::new();
        let prog = Listener::bind().and_then(move |l| {
            start(
                l,
                handler(|_| Io::pure(Response::ok("hi"))),
                ServerConfig::default(),
            )
            .and_then(move |server| {
                prepared_connection(ConnFault::None, "/x").and_then(move |conn| {
                    l.inject(conn)
                        .then(conn.read_response())
                        .then(server.drain())
                        .then(kill_storm(&server, &Injector::quiet()))
                })
            })
        });
        assert_eq!(rt.run(prog).unwrap(), 0);
    }
}
