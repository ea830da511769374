//! The supervised-pool plane: a fixed set of worker actors behind a
//! bounded accept queue, one request per connection.
//!
//! Where the fork plane ([`crate::server::start`]) forks one worker per
//! connection and sheds on an `active` threshold, this plane serves
//! from `conch-actors`:
//!
//! * a bounded [`Mailbox<Connection>`] is the accept queue — its
//!   capacity *is* the load-shedding bound, enforced by the mailbox's
//!   own kill-safe transactions;
//! * a fixed set of worker actors shares that mailbox
//!   ([`spawn_actor_on`]), each serving connections in a loop;
//! * the workers sit under a **two-level supervision tree**: a
//!   one-for-one pool supervisor restarts crashed or killed workers on
//!   the *same* queue (no queued connection is lost to a restart), and
//!   a root supervisor restarts the pool supervisor itself if a fault
//!   storm takes it out. Kill storms may target workers *and* the pool
//!   supervisor (see `conch-faults`); the root is the trusted base that
//!   makes the tree self-healing.
//!
//! Counters, guard and audit are the shared [`crate::core`]. The one
//! subtlety of this accept policy is the acceptor's two-resource
//! commit: enqueueing into the mailbox and accounting in the stats cell
//! are different `MVar`s, so after the enqueue commits the accounting
//! step is guarded by a commit-then-rethrow `catch` — a `KillThread`
//! landing between the two commits, and any that land in the guard after
//! it, still account the queued connection before the acceptor dies,
//! keeping `active` and the queue in agreement.

use std::rc::Rc;

use conch_actors::{
    child_spec, spawn_actor_on, spawn_supervisor, supervisor_child, ChildSpec, Mailbox, Strategy,
    Supervisor, SupervisorSpec,
};
use conch_combinators::retry_interrupted;
use conch_runtime::host_value;
use conch_runtime::ids::ThreadId;
use conch_runtime::io::Io;
use conch_runtime::mvar::MVar;

use crate::core::{finish, register_worker, Handler, Outcome, Server, ServerStats, Workers};
use crate::http::Response;
use crate::net::{Connection, Listener};
use crate::server::{serve_one, ServerConfig};

/// Pool sizing and restart budget, on top of the per-request
/// [`ServerConfig`] knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Number of worker actors sharing the accept queue.
    pub workers: usize,
    /// Accept-queue capacity — the load-shedding bound: a connection
    /// arriving while the queue is full is answered `503`.
    pub queue_capacity: i64,
    /// Restart budget for each supervisor in the tree: more than
    /// `max_restarts` abnormal worker exits within `window` virtual
    /// microseconds and the pool supervisor gives up (the root then
    /// restarts the whole pool).
    pub max_restarts: usize,
    /// The sliding intensity window, in virtual microseconds.
    pub window: i64,
    /// Per-request timeouts and the `Retry-After` hint.
    pub server: ServerConfig,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: 4,
            queue_capacity: 8,
            max_restarts: 16,
            window: 1_000_000,
            server: ServerConfig::default(),
        }
    }
}

/// A running pooled server: the plane handle (acceptor, counters,
/// every worker incarnation ever (re)started), the accept queue and
/// the supervision tree's root.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PooledServer {
    /// Acceptor, counters and worker registry — shut down, drained and
    /// audited exactly like the fork plane's. The workers outlive the
    /// acceptor, so queued connections still finish after a shutdown.
    pub plane: Server,
    /// The accept queue the workers consume.
    pub(crate) queue: Mailbox<Connection>,
    /// Root of the supervision tree. Its single child is the pool
    /// supervisor; the workers are the pool supervisor's children.
    pub(crate) root: Supervisor,
}

impl PooledServer {
    /// Tears the whole tree down: acceptor first (synchronously), then
    /// the root supervisor, whose exit guard reaps the pool supervisor,
    /// whose guard reaps every worker — no orphans.
    pub fn stop_sync(&self) -> Io<()> {
        self.plane.shutdown_sync().then(self.root.shutdown_sync())
    }

    /// The *current* pool-supervisor incarnation's thread ids — the
    /// supervisor-level storm targets. The root is deliberately not
    /// listed: it is the trusted base that heals the tree.
    pub fn pool_supervisor_ids(&self) -> Io<Vec<ThreadId>> {
        self.root
            .child_refs()
            .map(|refs| refs.iter().map(|c| c.tid()).collect())
    }
}

host_value!(PooledServer);

/// Starts the pooled server: spawns the supervision tree (which starts
/// the workers), then forks the acceptor.
pub fn start_pooled(listener: Listener, h: Handler, config: PoolConfig) -> Io<PooledServer> {
    ServerStats::new().and_then(move |stats| {
        Io::new_mvar(Workers::default()).and_then(move |workers| {
            Mailbox::<Connection>::new(config.queue_capacity).and_then(move |queue| {
                let mut pool = SupervisorSpec::new(Strategy::OneForOne)
                    .intensity(config.max_restarts, config.window);
                for _ in 0..config.workers.max(1) {
                    pool = pool.child(pool_worker(
                        queue,
                        Rc::clone(&h),
                        config.server,
                        stats,
                        workers,
                    ));
                }
                let root = SupervisorSpec::new(Strategy::OneForOne)
                    .intensity(config.max_restarts, config.window)
                    .child(supervisor_child(pool));
                spawn_supervisor(root).and_then(move |root| {
                    Io::fork(pool_accept_loop(listener, queue, config.server, stats)).map(
                        move |acceptor| PooledServer {
                            plane: Server {
                                acceptor,
                                stats,
                                workers,
                            },
                            queue,
                            root,
                        },
                    )
                })
            })
        })
    })
}

/// One worker child: an actor consuming the shared accept queue. Every
/// (re)start registers the new incarnation's thread id for the storm
/// registry. Restarting on the same mailbox is what makes restarts
/// lossless for queued connections.
fn pool_worker(
    queue: Mailbox<Connection>,
    h: Handler,
    config: ServerConfig,
    stats: ServerStats,
    workers: MVar<Workers>,
) -> ChildSpec {
    child_spec(move || {
        let h = Rc::clone(&h);
        spawn_actor_on(queue, move |q| worker_loop(q, h, config, stats))
            .and_then(move |a| register_worker(workers, a.tid()).map(move |_| a.erase()))
    })
}

/// The worker body: receive, serve, repeat. Runs masked (the actor
/// shell), so between `recv`'s committed dequeue and the guard below
/// there is no interruptible point — a connection, once dequeued, is
/// always accounted.
fn worker_loop(
    queue: Mailbox<Connection>,
    h: Handler,
    config: ServerConfig,
    stats: ServerStats,
) -> Io<()> {
    queue.recv().and_then(move |conn| {
        let next = worker_loop(queue, Rc::clone(&h), config, stats);
        serve_guarded(conn, h, config, stats).then(next)
    })
}

/// Serves one dequeued connection. The request itself runs unmasked
/// (`serve_one` needs its timeouts interruptible); any exception that
/// escapes it — in practice an asynchronous `KillThread` from a storm
/// or a supervisor sweep — records the in-flight connection as
/// `Killed` *before* re-raising, so the worker dies with its books
/// balanced and the supervisor's replacement starts from a clean
/// queue. The fork plane's worker absorbs the kill instead; a pool
/// worker must re-raise so its shell reports the true exit reason and
/// the restart machinery engages.
fn serve_guarded(conn: Connection, h: Handler, config: ServerConfig, stats: ServerStats) -> Io<()> {
    Io::unblock(serve_one(conn, h, config))
        .and_then(move |outcome| finish(stats, outcome))
        .catch_info(move |e, origin| finish(stats, Outcome::Killed).then(Io::rethrow(e, origin)))
}

/// The pooled acceptor: accept, try to enqueue, account, answer `503`
/// on overflow, loop. Runs masked like the fork plane's acceptor; the
/// commit-then-rethrow guard around the accounting covers the window
/// between the queue commit and the stats commit (two cells cannot
/// change in one transaction).
fn pool_accept_loop(
    listener: Listener,
    queue: Mailbox<Connection>,
    config: ServerConfig,
    stats: ServerStats,
) -> Io<()> {
    Io::block(listener.accept().and_then(move |conn| {
        queue.try_send(conn).and_then(move |queued| {
            let account = move || stats.accept_or_shed(move |_| queued);
            account()
                .catch(move |e| retry_interrupted(account).then(Io::throw(e)))
                .and_then(move |queued| {
                    if queued {
                        Io::unit()
                    } else {
                        // Shed: answer without spending a worker.
                        // `send_response` never blocks, so this cannot
                        // wedge the acceptor.
                        conn.send_response(Response::unavailable(config.retry_after).render())
                    }
                })
        })
    }))
    .and_then(move |_| pool_accept_loop(listener, queue, config, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::StatsSnapshot;
    use crate::http::{Request, Response};
    use crate::server::handler;
    use conch_explore::{ExploreConfig, Explorer, Reduction, RunOutcome, Strategy, TestCase};
    use conch_runtime::prelude::*;

    fn hello() -> Handler {
        handler(|req| Io::pure(Response::ok(format!("hello {}", req.path))))
    }

    fn small_pool() -> PoolConfig {
        PoolConfig {
            workers: 2,
            queue_capacity: 4,
            ..PoolConfig::default()
        }
    }

    #[test]
    fn pooled_server_serves_more_connections_than_workers() {
        let mut rt = Runtime::new();
        let n: i64 = 6;
        // Queue deep enough to hold every client at once: all six may
        // connect before either worker dequeues the first.
        let cfg = PoolConfig {
            workers: 2,
            queue_capacity: 8,
            ..PoolConfig::default()
        };
        let prog = Listener::bind().and_then(move |l| {
            start_pooled(l, hello(), cfg).and_then(move |server| {
                conch_runtime::io::for_each(n as u64, move |i| {
                    let client = l.connect().and_then(move |conn| {
                        conn.send_text(Request::get(format!("/{i}")).render())
                            .then(conn.read_response())
                            .map(|resp| assert!(resp.contains("200"), "got {resp}"))
                    });
                    Io::fork(client)
                })
                .then(wait_served(server.plane.stats, n))
                .then(server.plane.shutdown_sync())
                .then(server.plane.drain())
                .then(server.plane.stats.snapshot())
                .and_then(move |snap| server.stop_sync().map(move |_| snap))
            })
        });
        fn wait_served(stats: ServerStats, n: i64) -> Io<()> {
            stats.snapshot().and_then(move |s| {
                if s.served >= n {
                    Io::unit()
                } else {
                    Io::sleep(50).then(wait_served(stats, n))
                }
            })
        }
        let snap = rt.run(prog).unwrap();
        assert_eq!(snap.served, n);
        assert!(snap.conserved(), "unbalanced counters: {snap:?}");
    }

    /// The acceptor alone, no workers: what it queued stays queued, so
    /// the queue's length is the number of connections that must be
    /// `active`. A contender keeps the stats cell busy, so on some
    /// schedules the first kill finds the accounting's `take` blocked
    /// and the second finds the guard's. Main reads both cells once the
    /// acceptor has settled: `throw_to_sync` returns when the second
    /// kill is received, which may be inside the guard's retry, before
    /// its commit. Sleep sets at preemption bound 4 (2 867 schedules),
    /// the smallest bound that catches a guard that retries only once.
    #[test]
    fn two_kills_at_the_acceptor_leave_queue_and_active_in_agreement() {
        let explorer = Explorer::with_config(ExploreConfig {
            max_depth: 256,
            strategy: Strategy::Exhaustive(Reduction::SleepSets {
                preemption_bound: Some(4),
            }),
            ..ExploreConfig::default()
        });
        let result = explorer.check(|| {
            let prog = Listener::bind().and_then(|l| {
                ServerStats::new().and_then(move |stats| {
                    Mailbox::<Connection>::new(4).and_then(move |queue| {
                        let accept = pool_accept_loop(l, queue, ServerConfig::default(), stats);
                        Io::fork(accept).and_then(move |acceptor| {
                            let contend = conch_runtime::io::for_each(8, move |_| stats.snapshot());
                            Io::fork(contend)
                                .then(l.connect())
                                .then(Io::throw_to(acceptor, Exception::kill_thread()))
                                .then(Io::throw_to_sync(acceptor, Exception::kill_thread()))
                                .then(Io::sleep(1))
                                .then(queue.len())
                                .and_then(move |queued| stats.snapshot().map(move |s| (queued, s)))
                        })
                    })
                })
            });
            TestCase::new(prog, |out: &RunOutcome<(i64, StatsSnapshot)>| {
                match &out.result {
                    Ok((queued, snap)) if (*queued, *queued) == (snap.active, snap.accepted) => {
                        Ok(())
                    }
                    other => Err(format!("a queued connection went unaccounted: {other:?}")),
                }
            })
        });
        let report = result.expect_pass();
        assert!(report.complete, "{report}");
    }

    #[test]
    fn killed_worker_is_restarted_and_service_resumes() {
        let mut rt = Runtime::new();
        let prog = Listener::bind().and_then(move |l| {
            start_pooled(
                l,
                hello(),
                PoolConfig {
                    workers: 1,
                    queue_capacity: 4,
                    ..PoolConfig::default()
                },
            )
            .and_then(move |server| {
                // Serve one request, then kill the (only) worker, then
                // serve another: the restarted incarnation answers it.
                l.connect().and_then(move |c1| {
                    c1.send_text(Request::get("/a").render())
                        .then(c1.read_response())
                        .then(server.plane.worker_ids())
                        .and_then(move |tids| {
                            Io::throw_to_sync(tids[0], Exception::kill_thread())
                                .then(wait_workers(server, 2))
                                .then(l.connect())
                                .and_then(move |c2| {
                                    c2.send_text(Request::get("/b").render())
                                        .then(c2.read_response())
                                        .and_then(move |resp| {
                                            server
                                                .plane
                                                .shutdown_sync()
                                                .then(server.plane.drain())
                                                .then(server.plane.stats.snapshot())
                                                .and_then(move |snap| {
                                                    server.stop_sync().map(move |_| (resp, snap))
                                                })
                                        })
                                })
                        })
                })
            })
        });
        fn wait_workers(server: PooledServer, n: usize) -> Io<()> {
            server.plane.worker_ids().and_then(move |tids| {
                if tids.len() >= n {
                    Io::unit()
                } else {
                    Io::sleep(50).then(wait_workers(server, n))
                }
            })
        }
        let (resp, snap) = rt.run(prog).unwrap();
        assert!(resp.contains("200"), "got {resp}");
        assert_eq!(snap.served, 2);
        assert!(snap.conserved(), "unbalanced counters: {snap:?}");
    }

    #[test]
    fn killed_pool_supervisor_heals_and_service_resumes() {
        let mut rt = Runtime::new();
        let prog = Listener::bind().and_then(move |l| {
            start_pooled(l, hello(), small_pool()).and_then(move |server| {
                l.connect().and_then(move |c1| {
                    c1.send_text(Request::get("/a").render())
                        .then(c1.read_response())
                        .then(server.pool_supervisor_ids())
                        .and_then(move |sups| {
                            assert_eq!(sups.len(), 1, "one pool supervisor expected");
                            // Kill the pool supervisor: its guard reaps
                            // the workers, the root restarts the pool.
                            Io::throw_to_sync(sups[0], Exception::kill_thread())
                                .then(wait_new_sup(server, sups[0]))
                                .then(l.connect())
                                .and_then(move |c2| {
                                    c2.send_text(Request::get("/b").render())
                                        .then(c2.read_response())
                                        .and_then(move |resp| {
                                            server
                                                .plane
                                                .shutdown_sync()
                                                .then(server.plane.drain())
                                                .then(server.plane.stats.snapshot())
                                                .and_then(move |snap| {
                                                    server.stop_sync().map(move |_| (resp, snap))
                                                })
                                        })
                                })
                        })
                })
            })
        });
        fn wait_new_sup(server: PooledServer, old: conch_runtime::ids::ThreadId) -> Io<()> {
            server.pool_supervisor_ids().and_then(move |sups| {
                if sups.len() == 1 && sups[0] != old {
                    Io::unit()
                } else {
                    Io::sleep(50).then(wait_new_sup(server, old))
                }
            })
        }
        let (resp, snap) = rt.run(prog).unwrap();
        assert!(resp.contains("200"), "got {resp}");
        assert_eq!(snap.served, 2);
        assert!(snap.conserved(), "unbalanced counters: {snap:?}");
    }

    #[test]
    fn stop_sync_reaps_every_worker() {
        let mut rt = Runtime::new();
        let prog = Listener::bind().and_then(move |l| {
            start_pooled(l, hello(), small_pool()).and_then(move |server| {
                wait_pool_started(server)
                    .and_then(move |pools| server.stop_sync().then(wait_pool_dead(pools[0])))
            })
        });
        // The tree starts asynchronously; wait for the root to record
        // its pool-supervisor child before aiming at it.
        fn wait_pool_started(server: PooledServer) -> Io<Vec<conch_actors::ActorRef<Value>>> {
            server.root.child_refs().and_then(move |pools| {
                if pools.is_empty() {
                    Io::sleep(50).then(wait_pool_started(server))
                } else {
                    Io::pure(pools)
                }
            })
        }
        fn wait_pool_dead(pool: conch_actors::ActorRef<Value>) -> Io<i64> {
            pool.exit_reason().and_then(move |r| match r {
                Some(_) => Io::pure(1),
                None => Io::sleep(50).then(wait_pool_dead(pool)),
            })
        }
        assert_eq!(rt.run(prog).unwrap(), 1);
    }
}
