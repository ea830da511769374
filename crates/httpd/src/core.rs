//! The serving core every plane shares: the counters and their
//! conservation law, the §9 handler guard, the worker registry, and the
//! handle + audit protocol of a running plane.
//!
//! A *plane* is an accept policy over the wire: fork-per-connection
//! ([`crate::server`]) and a supervised pool ([`crate::pool`]), each
//! reading one request per connection, and keep-alive pipelining behind
//! sharded accept queues ([`crate::shard`]). Planes differ in *when* a unit of work enters the
//! law and who serves it; everything that makes the server safe under
//! `throwTo` is written here, once:
//!
//! * **The law.** Every accepted unit (a connection on the
//!   one-request planes, a request on the keep-alive plane) records
//!   exactly one outcome:
//!   `accepted == outcomes` whenever `active == 0`. The counters live in
//!   one `MVar` cell and change only through three mutators —
//!   `ServerStats::accept_or_shed`, `ServerStats::accept_concluded`
//!   and `finish` — each a single §7.4 masked take→mutate→put
//!   ([`modify_mvar_pure`]). The cell itself is private to this module,
//!   so no plane can restate (or mis-state) the law.
//! * **The guard.** `serve_request` runs the handler under a timeout
//!   and a `catch` that re-throws the timeout's own `KillThread` (§9).
//! * **The audit.** [`Server::shutdown_sync`] → [`Server::drain`] →
//!   [`ServerStats::snapshot`]: once the acceptor is synchronously dead
//!   `accepted` is final, once `active == 0` every outcome is visible
//!   (outcome and decrement commit together), so the snapshot of a
//!   quiesced cell satisfies [`StatsSnapshot::conserved`]. Quiesced
//!   cells sum (`StatsSnapshot::merge`) to a snapshot that obeys the
//!   same law — the sharded aggregate needs no cross-cell atomic read.

use std::rc::Rc;

use conch_combinators::{
    await_signal, kill_thread, modify_mvar_pure, modify_mvar_then, retry_interrupted, timeout,
    with_mvar, Either,
};
use conch_runtime::exception::Exception;
use conch_runtime::host_value;
use conch_runtime::ids::ThreadId;
use conch_runtime::io::Io;
use conch_runtime::mvar::MVar;
use conch_runtime::value::{FromValue, IntoValue, Value};

use crate::http::{parse_request, Request, Response};

/// A request handler: maps a request to an `Io` action producing a
/// response. Shared across connections, hence `Rc<dyn Fn…>`.
pub type Handler = Rc<dyn Fn(Request) -> Io<Response>>;

/// Wraps a plain closure as a [`Handler`].
pub fn handler(f: impl Fn(Request) -> Io<Response> + 'static) -> Handler {
    Rc::new(f)
}

/// The counters themselves — both the live state inside the
/// [`ServerStats`] cell and the value returned by an atomic
/// [`snapshot`](ServerStats::snapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Requests answered with the handler's response.
    pub served: i64,
    /// Requests whose read phase timed out (answered 408).
    pub read_timeouts: i64,
    /// Requests whose handler timed out (answered 504).
    pub handler_timeouts: i64,
    /// Requests whose handler raised (answered 500).
    pub handler_errors: i64,
    /// Requests that failed to parse (answered 400).
    pub parse_errors: i64,
    /// Units currently being handled.
    pub active: i64,
    /// Units that entered the law — its left-hand side: every accepted
    /// unit ends up in exactly one of `served`, `read_timeouts`,
    /// `handler_timeouts`, `handler_errors`, `parse_errors`, `aborted`,
    /// `killed` or `shed`.
    pub accepted: i64,
    /// Units the peer closed mid-request (no response sent).
    pub aborted: i64,
    /// Workers terminated by an asynchronous exception (e.g. a
    /// `KillThread` storm) before recording any other outcome.
    pub killed: i64,
    /// Connections answered `503` by the load shedder.
    pub shed: i64,
}

impl StatsSnapshot {
    /// The sum of all terminal-outcome counters. Conservation means
    /// this equals [`accepted`](Self::accepted) whenever nothing is in
    /// flight (`active == 0`).
    pub fn outcomes(&self) -> i64 {
        self.served
            + self.read_timeouts
            + self.handler_timeouts
            + self.handler_errors
            + self.parse_errors
            + self.aborted
            + self.killed
            + self.shed
    }

    /// Checks the conservation law for a quiesced plane: every accepted
    /// unit recorded exactly one outcome.
    pub fn conserved(&self) -> bool {
        self.active == 0 && self.outcomes() == self.accepted
    }

    /// Field-wise sum, for aggregating quiesced cells.
    pub(crate) fn merge(mut self, other: &StatsSnapshot) -> StatsSnapshot {
        self.served += other.served;
        self.read_timeouts += other.read_timeouts;
        self.handler_timeouts += other.handler_timeouts;
        self.handler_errors += other.handler_errors;
        self.parse_errors += other.parse_errors;
        self.active += other.active;
        self.accepted += other.accepted;
        self.aborted += other.aborted;
        self.killed += other.killed;
        self.shed += other.shed;
        self
    }
}

impl<'a> std::iter::Sum<&'a StatsSnapshot> for StatsSnapshot {
    fn sum<I: Iterator<Item = &'a StatsSnapshot>>(iter: I) -> StatsSnapshot {
        iter.fold(StatsSnapshot::default(), StatsSnapshot::merge)
    }
}

host_value!(StatsSnapshot, ServerStats, Server, Workers);

/// The terminal outcome of one accepted unit — exactly one of these is
/// recorded per accept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    Served,
    ReadTimeout,
    HandlerTimeout,
    HandlerError,
    ParseError,
    Aborted,
    Killed,
}

impl Outcome {
    fn record(self, s: &mut StatsSnapshot) {
        match self {
            Outcome::Served => s.served += 1,
            Outcome::ReadTimeout => s.read_timeouts += 1,
            Outcome::HandlerTimeout => s.handler_timeouts += 1,
            Outcome::HandlerError => s.handler_errors += 1,
            Outcome::ParseError => s.parse_errors += 1,
            Outcome::Aborted => s.aborted += 1,
            Outcome::Killed => s.killed += 1,
        }
    }
}

impl IntoValue for Outcome {
    fn into_value(self) -> Value {
        Value::Int(self as i64)
    }
}

impl FromValue for Outcome {
    fn from_value(v: Value) -> Option<Self> {
        match v.as_int()? {
            0 => Some(Outcome::Served),
            1 => Some(Outcome::ReadTimeout),
            2 => Some(Outcome::HandlerTimeout),
            3 => Some(Outcome::HandlerError),
            4 => Some(Outcome::ParseError),
            5 => Some(Outcome::Aborted),
            6 => Some(Outcome::Killed),
            _ => None,
        }
    }
}

/// One plane's counters, held in a **single** `MVar` cell — one
/// transactional unit, updated with the §7.4 masked pattern.
///
/// The design is forced by asynchronous exceptions. Splitting the
/// counters over separate `MVar`s makes the conservation law
/// unenforceable: two cells can never change atomically, so a
/// `KillThread` aimed at the acceptor or a worker can always land
/// *between* two bumps and strand an accepted unit without an outcome;
/// and a snapshot read across ten cells tears. The general-purpose
/// update combinators (`modify_mvar`, `with_mvar`) deliberately
/// `unblock` around the user computation — correct for arbitrary user
/// code, but a genuine delivery window when the caller thought it was
/// masked. The schedule explorer exhibited concrete interleavings for
/// each failure mode (see the `conch-faults` test-suite docs).
///
/// One cell fixes all three: the whole snapshot is taken, mutated by
/// pure Rust code, and put back, fully masked ([`modify_mvar_pure`]).
/// The only interruptible point is the `take` while it *blocks* — at
/// which moment nothing has been taken and nothing can tear.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerStats {
    cell: MVar<Counters>,
}

/// What the stats cell holds: the counters, and the signal the
/// [`finish`] that brings `active` to 0 fills for a [`Server::drain`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct Counters {
    snap: StatsSnapshot,
    idle: MVar<()>,
}

host_value!(Counters);

impl ServerStats {
    pub(crate) fn new() -> Io<ServerStats> {
        Io::new_empty_mvar().and_then(|idle| {
            let snap = StatsSnapshot::default();
            Io::new_mvar(Counters { snap, idle }).map(|cell| ServerStats { cell })
        })
    }

    /// Reads all counters in one atomic, masked transaction — a
    /// snapshot can never observe a half-committed update.
    pub fn snapshot(&self) -> Io<StatsSnapshot> {
        modify_mvar_pure(self.cell, |c| c.snap)
    }

    /// A unit enters the law: `accepted` rises and, *in the same
    /// commit*, either `active` does (`admit` said yes — someone will
    /// serve it and [`finish`] it) or `shed` does (it is already
    /// concluded). Returns whether it was admitted. `admit` sees the
    /// `active` count inside the transaction, so a shedding decision
    /// can never race the count it is based on; and there is no
    /// interleaving in which [`Server::drain`] can observe an accepted
    /// unit that is neither shed, active, nor recorded.
    pub(crate) fn accept_or_shed(&self, admit: impl FnOnce(i64) -> bool + 'static) -> Io<bool> {
        modify_mvar_pure(self.cell, move |c| {
            let s = &mut c.snap;
            s.accepted += 1;
            let admitted = admit(s.active);
            if admitted {
                s.active += 1;
            } else {
                s.shed += 1;
            }
            admitted
        })
    }

    /// A unit enters the law already concluded (the keep-alive
    /// plane's abort, 408 and oversize paths: the partial request never
    /// reached a handler). `active` never rises, so nothing can tear.
    pub(crate) fn accept_concluded(&self, outcome: Outcome) -> Io<()> {
        modify_mvar_pure(self.cell, move |c| {
            c.snap.accepted += 1;
            outcome.record(&mut c.snap);
        })
    }
}

/// An admitted unit's single commit point: record its outcome and lower
/// the active count, atomically; the commit that brings `active` to 0
/// also fills the `idle` signal a [`Server::drain`] waits on, in the
/// same masked section, so no kill separates the two. If a
/// `KillThread` lands while the transaction's `take` is still blocked
/// (the cell is contended — by a snapshot, say), nothing was committed
/// yet: retry with the *same* outcome ([`retry_interrupted`]).
pub(crate) fn finish(stats: ServerStats, outcome: Outcome) -> Io<()> {
    retry_interrupted(move || {
        let commit = move |c: &mut Counters| {
            let s = &mut c.snap;
            debug_assert!(s.active > 0, "active underflow recording {outcome:?}");
            outcome.record(s);
            s.active -= 1;
            (s.active == 0).then_some(c.idle)
        };
        modify_mvar_then(stats.cell, commit, |idle| match idle {
            Some(idle) => idle.try_put(()).map(drop),
            None => Io::unit(),
        })
    })
}

/// Serves one complete request text, unmasked: parse, run the handler
/// under its timeout, and return the outcome with the rendered
/// response (the caller owns the wire and decides when to send).
///
/// §9 warns that a universal `catch` inside timed code can intercept
/// the timeout mechanism itself. Our `timeout` kills the racing
/// computation with `KillThread`, so the handler guard must re-throw
/// that and convert only genuine handler failures into 500s. The guard
/// *tags* the result (Left = crashed, Right = answered) so that exactly
/// one outcome is reported per request.
pub(crate) fn serve_request(
    text: &str,
    h: &Handler,
    handler_timeout: u64,
) -> Io<(Outcome, String)> {
    let Ok(req) = parse_request(text) else {
        return Io::pure((Outcome::ParseError, Response::status(400).render()));
    };
    let guarded = h(req).map(Either::<Response, Response>::Right).catch(|e| {
        if e.is_kill_thread() {
            Io::throw(e)
        } else {
            Io::pure(Either::Left(Response {
                status: 500,
                body: format!("handler failed: {e}"),
                retry_after: None,
            }))
        }
    });
    timeout(handler_timeout, guarded).map(|resp| match resp {
        None => (Outcome::HandlerTimeout, Response::status(504).render()),
        Some(Either::Right(r)) => (Outcome::Served, r.render()),
        Some(Either::Left(r)) => (Outcome::HandlerError, r.render()),
    })
}

/// A running plane (or one shard of one): the acceptor's thread id, the
/// counters, and the worker registry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Server {
    /// The acceptor thread (kill it to stop accepting).
    pub(crate) acceptor: ThreadId,
    /// The plane's counters.
    pub stats: ServerStats,
    /// The registry a fault injector aims its `KillThread` storms at.
    pub(crate) workers: MVar<Workers>,
}

/// Every worker thread ever started, in start order. Ids are never
/// removed: throwing to a finished worker is a no-op thanks to
/// generation-tagged ids.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct Workers(Vec<ThreadId>);

impl Server {
    /// Allocates a plane's counters and registry and forks its
    /// acceptor.
    pub(crate) fn launch(
        accept_loop: impl FnOnce(ServerStats, MVar<Workers>) -> Io<()> + 'static,
    ) -> Io<Server> {
        ServerStats::new().and_then(move |stats| {
            Io::new_mvar(Workers::default()).and_then(move |workers| {
                Io::fork(accept_loop(stats, workers)).map(move |acceptor| Server {
                    acceptor,
                    stats,
                    workers,
                })
            })
        })
    }

    /// Stops accepting (in-flight work finishes).
    ///
    /// The acceptor waits on an `MVar`, an interruptible operation, so
    /// the `KillThread` lands even though the acceptor spends its life
    /// blocked — the whole reason §5.3 exists.
    pub fn shutdown(&self) -> Io<()> {
        kill_thread(self.acceptor)
    }

    /// Stops accepting with the §9 *synchronous* `throwTo`: returns
    /// only once the `KillThread` has actually been delivered, i.e.
    /// the acceptor is dead and will never account another unit.
    ///
    /// This is the shutdown to use before auditing the counters. With
    /// the asynchronous [`shutdown`](Self::shutdown), the acceptor may
    /// still be mid-iteration (masked, bookkeeping an accept) when the
    /// caller moves on — a concurrent [`drain`](Self::drain) +
    /// [`snapshot`](ServerStats::snapshot) can then observe a *torn*
    /// state: `accepted` already bumped, the worker's `active` not yet
    /// visible, nothing recorded. The schedule explorer found exactly
    /// that interleaving; synchronous delivery closes it, because the
    /// throw cannot land inside the acceptor's masked bookkeeping —
    /// only while it waits or between iterations.
    pub fn shutdown_sync(&self) -> Io<()> {
        Io::throw_to_sync(self.acceptor, Exception::kill_thread())
    }

    /// Blocks until nothing is in flight: while `active > 0` it waits on
    /// the signal the last `finish` fills, then reads again. Because
    /// an outcome is recorded in the *same transaction* as its active
    /// decrement, `drain` returning means every finished unit's outcome
    /// is already visible. A drainer passes the signal on when it
    /// returns, and [`await_signal`] puts it back if a kill lands before
    /// it has read again, so concurrent drainers all wake. A worker wedged for ever
    /// leaves the drainer blocked: a deadlock the runtime names.
    pub fn drain(&self) -> Io<()> {
        let server = *self;
        let read = |c: &mut Counters| (c.snap.active == 0, c.idle);
        modify_mvar_then(self.stats.cell, read, move |(quiet, idle)| {
            if quiet {
                // Pass the signal on to any other drainer.
                idle.try_put(()).map(drop)
            } else {
                await_signal(idle, move || server.drain())
            }
        })
    }

    /// Every worker thread id ever registered, in start order.
    pub fn worker_ids(&self) -> Io<Vec<ThreadId>> {
        with_mvar(self.workers, Io::pure).map(|workers| workers.0)
    }
}

/// Appends a freshly started worker's id to the registry. If a
/// `KillThread` lands while the transaction's `take` still waits, the
/// worker is already forked and accounted — it merely goes
/// unregistered, which only makes it invisible to kill storms.
pub(crate) fn register_worker(workers: MVar<Workers>, tid: ThreadId) -> Io<()> {
    modify_mvar_pure(workers, move |ids| ids.0.push(tid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use conch_runtime::ids::MVarId;
    use conch_runtime::scheduler::Runtime;
    use conch_runtime::{RunError, RuntimeConfig};
    use proptest::prelude::*;

    /// `drain` behind a unit that never finishes — its worker wedged on
    /// a cell nothing fills — is a deadlock the runtime names, not a
    /// poll that runs into the step budget.
    #[test]
    fn drain_behind_a_wedged_worker_is_a_deadlock() {
        let prog = Io::new_empty_mvar::<()>().and_then(|admitted| {
            let wedged = move |stats: ServerStats, _| {
                let wedge = Io::new_empty_mvar::<()>().and_then(|cell| cell.take());
                stats
                    .accept_or_shed(|_| true)
                    .then(admitted.put(()))
                    .then(wedge)
            };
            Server::launch(wedged).and_then(move |server| admitted.take().then(server.drain()))
        });
        let mut rt = Runtime::with_config(RuntimeConfig::default().max_steps(100_000));
        match rt.run(prog) {
            Err(RunError::Deadlock { stuck }) => assert_eq!(stuck.len(), 2, "{stuck:?}"),
            other => panic!("expected a deadlock, got {other:?}"),
        }
    }

    proptest! {
        #[test]
        fn counters_and_handles_round_trip_as_host_values(
            c in prop::collection::vec(any::<i64>(), 10..11),
            ids in prop::collection::vec(any::<u64>(), 3..4),
        ) {
            let snap = StatsSnapshot {
                served: c[0],
                read_timeouts: c[1],
                handler_timeouts: c[2],
                handler_errors: c[3],
                parse_errors: c[4],
                active: c[5],
                accepted: c[6],
                aborted: c[7],
                killed: c[8],
                shed: c[9],
            };
            prop_assert_eq!(StatsSnapshot::from_value(snap.into_value()), Some(snap));
            let server = Server {
                acceptor: ThreadId::from_index(ids[0]),
                stats: ServerStats { cell: MVar::from_id(MVarId::from_index(ids[1])) },
                workers: MVar::from_id(MVarId::from_index(ids[2])),
            };
            prop_assert_eq!(Server::from_value(server.into_value()), Some(server));
            prop_assert_eq!(ServerStats::from_value(server.stats.into_value()), Some(server.stats));
            // A handle is not the record it points at, nor another handle.
            prop_assert_eq!(ServerStats::from_value(server.into_value()), None);
            prop_assert_eq!(StatsSnapshot::from_value(server.stats.into_value()), None);
        }
    }
}
