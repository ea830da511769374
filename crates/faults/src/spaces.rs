//! Canonical fault × schedule spaces, shared by the explorer test
//! suite and `examples/fault_storm.rs` — one definition, so the numbers
//! CI pins and the numbers the docs quote are the same program.
//!
//! Each space is a self-contained `Io` program: it starts an httpd
//! server, runs a fault episode whose every injection site is an
//! [`Io::choose`] branch point, then audits the server with the
//! quiescent observation protocol. The returned triple is
//! `(fault episode code, healthy-probe status, counter snapshot)`;
//! [`holds_invariants`] is the property every schedule must satisfy.
//!
//! ## The observation protocol
//!
//! The audit tail of every space is `shutdown_sync → drain → snapshot`,
//! in that order:
//!
//! 1. **`shutdown_sync`** (§9 synchronous `throwTo`) returns only once
//!    the acceptor is dead, so `accepted` is final;
//! 2. **`drain`** waits for `active == 0` — and because a worker's
//!    outcome is recorded in the *same transaction* as its active
//!    decrement, drain returning means the books are closed;
//! 3. **`snapshot`** reads every counter in one atomic take/put.
//!
//! Weaker protocols are genuinely unsound — the explorer exhibited
//! torn-counter interleavings for both the asynchronous-shutdown and
//! the snapshot-before-drain variants while this module was built.

use conch_actors::{
    child_spec, spawn_actor_on, spawn_supervisor, ActorRef, ChildSpec, Mailbox, Strategy,
    Supervisor, SupervisorSpec,
};
use conch_httpd::http::{Request, Response};
use conch_httpd::net::{Connection, Listener};
use conch_httpd::pool::{start_pooled, PoolConfig};
use conch_httpd::server::{handler, start, Server, ServerConfig, StatsSnapshot};
use conch_httpd::shard::{start_sharded, ShardConfig, ShardedListener};
use conch_runtime::exception::Exception;
use conch_runtime::io::Io;
use conch_runtime::mvar::MVar;
use conch_runtime::value::Value;

use crate::client::{faulty_client, prepared_connection, status_code};
use crate::fault::ConnFault;
use crate::storm::kill_storm;

fn server_config() -> ServerConfig {
    ServerConfig {
        read_timeout: 1_000,
        handler_timeout: 5_000,
        ..ServerConfig::default()
    }
}

/// Sends the healthy `probe` after the fault episode, then runs the
/// `audit` (see the module docs for why its order is load-bearing).
fn probe_then_audit(
    fault_code: i64,
    probe: Io<String>,
    audit: Io<StatsSnapshot>,
) -> Io<(i64, i64, StatsSnapshot)> {
    probe.and_then(move |resp| {
        let probe_code = status_code(&resp);
        audit.map(move |snap| (fault_code, probe_code, snap))
    })
}

/// A healthy request injected at `l`, and its answer.
fn probe(l: Listener) -> Io<String> {
    prepared_connection(ConnFault::None, "/probe")
        .and_then(move |conn| l.inject(conn).then(conn.read_response()))
}

/// `shutdown_sync → drain → snapshot` on one server.
fn audit(server: Server) -> Io<StatsSnapshot> {
    server
        .shutdown_sync()
        .then(server.drain())
        .then(server.stats.snapshot())
}

/// One faulty visit — all five [`ConnFault`] arms (none / drop / stall
/// / mid-request close / garbage) as explorer branches — then the
/// healthy probe and the audit.
pub fn conn_fault_space() -> Io<(i64, i64, StatsSnapshot)> {
    Listener::bind().and_then(|l| {
        start(
            l,
            handler(|_| Io::pure(Response::ok("hi"))),
            server_config(),
        )
        .and_then(move |server| {
            faulty_client(l, "/x".into(), 50_000)
                .and_then(move |code| probe_then_audit(code, probe(l), audit(server)))
        })
    })
}

/// A stalled connection parks a worker in its read; a `KillThread`
/// storm at every worker the server has forked (each strike an
/// explorer branch) may kill it mid-read; then the healthy probe and
/// the audit.
pub fn storm_space() -> Io<(i64, i64, StatsSnapshot)> {
    Listener::bind().and_then(|l| {
        start(
            l,
            handler(|_| Io::pure(Response::ok("hi"))),
            server_config(),
        )
        .and_then(move |server| {
            prepared_connection(ConnFault::Stall, "/x").and_then(move |conn| {
                // The sleep parks this thread (a blocked switch is
                // free under preemption bounding), guaranteeing the
                // worker is forked and parked in its read — well
                // within the stall's read-timeout budget — before
                // the storm picks targets.
                l.inject(conn)
                    .then(Io::sleep(100))
                    .then(server.worker_ids().and_then(|tids| kill_storm(tids, false)))
                    .and_then(move |kills| probe_then_audit(kills, probe(l), audit(server)))
            })
        })
    })
}

/// The recovery invariants every schedule of every space must satisfy:
///
/// * **liveness after faults** — the healthy probe is answered `200`
///   whatever fault fired and wherever the kills landed;
/// * **conservation / no leaks** — the audited snapshot satisfies
///   [`StatsSnapshot::conserved`]: `active == 0` (drain terminated, no
///   leaked worker or connection) and every accepted connection
///   recorded exactly one outcome.
pub fn holds_invariants(out: &(i64, i64, StatsSnapshot)) -> Result<(), String> {
    let (_, probe_code, snap) = out;
    if *probe_code != 200 {
        return Err(format!(
            "healthy probe after the fault episode got {probe_code}, want 200"
        ));
    }
    if !snap.conserved() {
        return Err(format!("counters not conserved: {snap:?}"));
    }
    Ok(())
}

/// The [`storm_space`] episode against the supervised worker pool
/// (`conch_httpd::pool`): a stalled connection parks the pool's single
/// worker in its read, then a synchronous `KillThread` storm — each
/// strike an explorer branch — targets every worker incarnation ever
/// started *and the current pool supervisor itself* (the root is
/// spared — it is the trusted base that heals the tree). Whatever
/// subset dies, the supervision tree must restart enough of itself
/// that the healthy probe is answered `200` and the counters conserve
/// ([`holds_invariants`], unchanged: the pool commits outcomes through
/// the same `finish` transaction). The audit ends with a full tree
/// teardown so no supervisor or worker outlives it.
pub fn supervised_pool_space() -> Io<(i64, i64, StatsSnapshot)> {
    let cfg = PoolConfig {
        workers: 1,
        queue_capacity: 2,
        max_restarts: 4,
        window: 1_000_000,
        server: server_config(),
    };
    Listener::bind().and_then(move |l| {
        start_pooled(l, handler(|_| Io::pure(Response::ok("hi"))), cfg).and_then(move |server| {
            prepared_connection(ConnFault::Stall, "/x").and_then(move |conn| {
                let targets = server.plane.worker_ids().and_then(move |mut tids| {
                    server.pool_supervisor_ids().and_then(move |sups| {
                        tids.extend(sups);
                        kill_storm(tids, true)
                    })
                });
                let teardown =
                    audit(server.plane).and_then(move |snap| server.stop_sync().map(move |_| snap));
                l.inject(conn)
                    .then(Io::sleep(100))
                    .then(targets)
                    .and_then(move |kills| probe_then_audit(kills, probe(l), teardown))
            })
        })
    })
}

// -- the sharded plane -----------------------------------------------------

/// A `KillThread` between two pipelined requests on the sharded plane
/// (`conch_httpd::shard`): shard 0 receives one keep-alive connection
/// carrying **two** pipelined requests in a single FIN-terminated
/// frame; the handler sleeps mid-request, so a storm strike (struck or
/// spared — an explorer branch) can land while the *first* request is
/// in flight and the second sits parsed-but-unaccepted in the read
/// buffer. The per-request accounting must not lose either request
/// from the law, on any schedule:
///
/// * strike lands mid-serve → the in-flight request is recorded
///   `Killed` in the same transaction pattern as the classic server,
///   and the buffered second request — never parsed into the law —
///   simply dies with the connection;
/// * strike lands at a blocking point with nothing mid-flight → the
///   top-level catch tears the connection down with zero requests
///   accepted;
/// * no strike → both requests are served.
///
/// The audit then probes the *other* shard (liveness: shard 1 must be
/// unaffected) and checks the conservation law on the **quiescent
/// aggregate** (`shutdown_sync` over every acceptor, `drain` until
/// every shard's `active` is zero, then the per-shard snapshots summed)
/// — the sharded observation protocol, checked on every explored run.
pub fn sharded_pipeline_space() -> Io<(i64, i64, StatsSnapshot)> {
    let cfg = ShardConfig {
        read_timeout: 1_000,
        handler_timeout: 5_000,
    };
    ShardedListener::bind(2, 2).and_then(move |l| {
        start_sharded(
            &l,
            handler(|_| Io::sleep(1_000).then(Io::pure(Response::ok("hi")))),
            cfg,
        )
        .and_then(move |server| {
            Connection::open().and_then(move |conn| {
                let audit = server
                    .shutdown_sync()
                    .then(server.drain())
                    .then(server.aggregate());
                conn.send_frame_fin(Request::get("/a").render().repeat(2))
                    .then(l.inject(0, conn))
                    // Park main so the shard-0 handler is forked and
                    // mid-first-request (asleep in the handler) before
                    // the storm picks targets.
                    .then(Io::sleep(100))
                    .then(server.worker_ids())
                    .and_then(move |tids| {
                        let probe = Connection::open().and_then(move |probe| {
                            probe
                                .send_frame_fin(Request::get("/probe").render())
                                .then(l.inject(1, probe))
                                .then(probe.read_response())
                        });
                        kill_storm(tids, true)
                            .and_then(move |kills| probe_then_audit(kills, probe, audit))
                    })
            })
        })
    })
}

// -- the actor space -------------------------------------------------------

/// A supervised counter actor under fault injection: one
/// [`Io::choose`] site picks the episode — nothing, a poison message
/// (synchronous crash), an untrappable kill, or a wedge (the actor
/// sleeps on a slow message) followed by a kill. After the episode a
/// probe message must still be served (the supervisor restarted the
/// child on the *same* mailbox and state cell, so the counter reaches
/// exactly 4 — state transactionality across restarts), the
/// supervisor is shut down, and the audit checks that the child was
/// reaped (no orphans) and that the mailbox lost no capacity to the
/// kills (both `try_send`s into the emptied 2-slot mailbox must fit).
///
/// Returns `[counter, child-exit code, fit1, fit2, arm]`;
/// [`holds_actor_invariants`] pins the first four.
pub fn actor_space() -> Io<Vec<i64>> {
    Io::new_mvar(0_i64).and_then(|state| {
        Mailbox::<i64>::new(2).and_then(move |inbox| {
            let spec = SupervisorSpec::new(Strategy::OneForOne)
                .intensity(3, 1_000_000)
                .child(counter_child(state, inbox));
            spawn_supervisor(spec).and_then(move |sup| {
                inbox
                    .send(1)
                    .then(poll(state, |n| n >= 2))
                    .then(Io::choose(4))
                    .and_then(move |arm| {
                        episode(sup, inbox, arm)
                            .then(inbox.send(1)) // the probe: +2, whoever serves it
                            .then(poll(state, |n| n >= 4))
                            .and_then(move |n| {
                                current_child(sup).and_then(move |child| {
                                    sup.shutdown_sync().then(wait_child_dead(child)).and_then(
                                        move |code| {
                                            inbox.try_send(9).and_then(move |fit1| {
                                                inbox.try_send(9).map(move |fit2| {
                                                    vec![
                                                        n,
                                                        code,
                                                        i64::from(fit1),
                                                        i64::from(fit2),
                                                        arm,
                                                    ]
                                                })
                                            })
                                        },
                                    )
                                })
                            })
                    })
            })
        })
    })
}

/// The fault episode for [`actor_space`], by chosen arm.
fn episode(sup: Supervisor, inbox: Mailbox<i64>, arm: i64) -> Io<()> {
    match arm {
        // Poison: the child crashes synchronously on the message.
        1 => inbox.send(-1),
        // Kill: untrappable asynchronous death of the current child.
        2 => current_child(sup).and_then(|child| child.kill_sync()),
        // Wedge then kill: the child parks in a long sleep first, so
        // the kill lands mid-computation rather than at the recv wait.
        3 => inbox
            .send(-2)
            .then(Io::sleep(50))
            .then(current_child(sup).and_then(|child| child.kill_sync())),
        _ => Io::unit(),
    }
}

/// The child spec for [`actor_space`]: `-1` crashes, `-2` wedges
/// (sleeps 5 000 virtual microseconds), anything else adds 2 to the
/// shared counter in one masked transaction.
fn counter_child(state: MVar<i64>, inbox: Mailbox<i64>) -> ChildSpec {
    child_spec(move || {
        spawn_actor_on(inbox, move |mb: Mailbox<i64>| counter_loop(mb, state)).map(|a| a.erase())
    })
}

fn counter_loop(mb: Mailbox<i64>, state: MVar<i64>) -> Io<()> {
    mb.recv().and_then(move |msg| match msg {
        -1 => Io::throw(Exception::error_call("poison")),
        -2 => Io::sleep(5_000).then(counter_loop(mb, state)),
        _ => Io::block(state.take().and_then(move |n| state.put(n + 2)))
            .then(counter_loop(mb, state)),
    })
}

/// The current child incarnation (polls: restarts swap it briefly).
fn current_child(sup: Supervisor) -> Io<ActorRef<Value>> {
    sup.child_refs().and_then(move |kids| match kids.first() {
        Some(kid) => Io::pure(*kid),
        None => Io::sleep(50).then(current_child(sup)),
    })
}

/// Polls until the child records an exit reason; 1 = killed, the code
/// the supervisor's shutdown sweep must produce.
fn wait_child_dead(child: ActorRef<Value>) -> Io<i64> {
    child.exit_reason().and_then(move |r| match r {
        Some(conch_runtime::exception::ExitReason::Killed) => Io::pure(1),
        Some(_) => Io::pure(2),
        None => Io::sleep(50).then(wait_child_dead(child)),
    })
}

/// The supervision invariants for [`actor_space`], on every schedule:
/// the counter reaches exactly 4 (restarts preserve the state cell and
/// the unconsumed queue), the child is reaped as `Killed` by the
/// supervisor's shutdown (no orphans), and the emptied mailbox still
/// has its full 2-slot capacity (kills leak no slots).
pub fn holds_actor_invariants(out: &[i64]) -> Result<(), String> {
    match out {
        [4, 1, 1, 1, _] => Ok(()),
        other => Err(format!(
            "want [counter=4, killed=1, fit=1, fit=1, _], got {other:?}"
        )),
    }
}

// -- the cross-shard kill space --------------------------------------------

/// A single-runtime model of the parallel plane's cross-shard
/// `throwTo` relay (`conch_runtime::parallel`): on the wall-clock
/// plane a kill crosses shards as a channel message and is delivered
/// by the destination runtime at its next epoch barrier — a step
/// boundary, exactly like a host-side `throwTo`. This space models
/// that drain protocol with explorer-visible pieces so sleep sets can
/// close the schedule space (within preemption bound 2) that the real
/// OS-thread plane cannot enumerate:
///
/// * the **victim** is a worker on the "destination shard" — it arms
///   itself (bit 16), works (a sleep), and records completion (bit 1),
///   all inside a catch whose handler records the kill (bit 2) only if
///   the work never completed;
/// * the **relay** is the destination shard's barrier drain: it takes
///   one envelope off the channel `MVar` and, for a kill envelope,
///   waits for the victim to be armed and then delivers the `throwTo`;
///   bit 8 records the drain completing;
/// * the **arm** (an [`Io::choose`] site) picks the episode: `0` — no
///   kill crosses the channel; `1` — a kill races the victim's work;
///   `2` — a *late* kill: the victim is already done, a new tenant
///   thread (bit 4) has been forked — eligible to reuse the victim's
///   slot — and the relayed `throwTo` still names the old
///   [`ThreadId`](conch_runtime::ids::ThreadId).
///   Generation tags make the stale delivery a no-op on every
///   schedule: the tenant must survive.
///
/// Returns `[outcome bits, arm]`;
/// [`holds_cross_shard_invariants`] pins the admissible combinations.
pub fn cross_shard_kill_space() -> Io<Vec<i64>> {
    Io::new_mvar(0_i64).and_then(|log| {
        Io::new_empty_mvar::<i64>().and_then(move |chan| {
            Io::fork(relay_victim(log)).and_then(move |victim| {
                Io::fork(kill_relay(chan, victim, log)).and_then(move |_relay| {
                    Io::choose(3).and_then(move |arm| {
                        let episode = match arm {
                            // A kill envelope races the victim's work.
                            1 => chan.put(1),
                            // The late kill: only after the victim has
                            // finished does the tenant fork and the
                            // (now stale) envelope cross the channel.
                            2 => poll(log, has(1))
                                .then(Io::fork(set_bit(log, 4)).map(|_| ()))
                                .then(chan.put(1)),
                            // No kill — the relay still drains.
                            _ => chan.put(0),
                        };
                        let settled = match arm {
                            // Either the work completed or the kill
                            // was recorded — plus the relay's drain.
                            1 => poll(log, |n| n & (1 | 2) != 0).then(poll(log, has(8))),
                            2 => poll(log, has(1 | 4 | 8)),
                            _ => poll(log, has(1 | 8)),
                        };
                        episode
                            .then(settled)
                            .then(peek(log))
                            .map(move |bits| vec![bits, arm])
                    })
                })
            })
        })
    })
}

/// The victim worker: arm (bit 16), work (a sleep), complete (bit 1) —
/// under a catch that records a mid-work kill as bit 2. The handler
/// checks bit 1 first so a kill landing *after* completion (still
/// inside the catch scope) cannot double-record the outcome.
fn relay_victim(log: MVar<i64>) -> Io<()> {
    set_bit(log, 16)
        .then(Io::sleep(100))
        .then(set_bit(log, 1))
        .catch(move |_| {
            Io::block(
                log.take()
                    .and_then(move |n| log.put(if n & 1 != 0 { n } else { n | 2 })),
            )
        })
}

/// The destination shard's barrier drain: one envelope, then bit 8.
/// A kill envelope waits for the victim to be armed (its catch frame
/// is then live) before the step-boundary `throwTo` — mirroring how
/// the real relay only delivers at an epoch barrier, never mid-step.
fn kill_relay(chan: MVar<i64>, victim: conch_runtime::ids::ThreadId, log: MVar<i64>) -> Io<()> {
    chan.take()
        .and_then(move |code| {
            if code == 1 {
                poll(log, has(16)).then(Io::throw_to(
                    victim,
                    Exception::error_call("cross-shard kill"),
                ))
            } else {
                Io::unit()
            }
        })
        .then(set_bit(log, 8))
}

/// ORs `bit` into the log in one masked transaction.
fn set_bit(log: MVar<i64>, bit: i64) -> Io<()> {
    Io::block(log.take().and_then(move |n| log.put(n | bit)))
}

/// Reads `cell` in one masked take/put.
fn peek(cell: MVar<i64>) -> Io<i64> {
    Io::block(cell.take().and_then(move |n| cell.put(n).map(move |_| n)))
}

/// Polls `cell` every 50 µs until `done` holds of it; returns the value
/// that satisfied it.
fn poll(cell: MVar<i64>, done: impl Fn(i64) -> bool + 'static) -> Io<i64> {
    peek(cell).and_then(move |n| {
        if done(n) {
            Io::pure(n)
        } else {
            Io::sleep(50).then(poll(cell, done))
        }
    })
}

/// "Every bit of `mask` is set", for [`poll`].
fn has(mask: i64) -> impl Fn(i64) -> bool {
    move |n| n & mask == mask
}

/// The cross-shard kill invariants, on every schedule. Bits: 16 armed,
/// 8 relay drained, 4 tenant survived, 2 killed mid-work, 1 completed.
///
/// * arm 0 (no kill): armed + completed + drained, nothing else;
/// * arm 1 (racing kill): exactly one of completed/killed — the
///   outcome is never lost and never double-counted;
/// * arm 2 (stale kill): the victim completed, the relayed `throwTo`
///   named a dead (possibly reused) slot, and the tenant survived it.
pub fn holds_cross_shard_invariants(out: &[i64]) -> Result<(), String> {
    const ARMED: i64 = 16;
    const DRAINED: i64 = 8;
    const TENANT: i64 = 4;
    const KILLED: i64 = 2;
    const DONE: i64 = 1;
    match out {
        [bits, 0] if *bits == ARMED | DRAINED | DONE => Ok(()),
        [bits, 1] if *bits == ARMED | DRAINED | DONE || *bits == ARMED | DRAINED | KILLED => Ok(()),
        [bits, 2] if *bits == ARMED | DRAINED | TENANT | DONE => Ok(()),
        other => Err(format!("inadmissible cross-shard outcome {other:?}")),
    }
}
