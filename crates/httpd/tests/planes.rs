//! One plane × misbehaviour table: every accept policy against every
//! way a client or handler can misbehave. Per cell the
//! test checks the status the client saw, the exact counters the
//! episode left behind, and the conservation law after the audit
//! protocol (`shutdown_sync → drain → snapshot`).

use conch_combinators::timeout;
use conch_httpd::client::{status_of, ClientOutcome};
use conch_httpd::core::{handler, Handler, Server, StatsSnapshot};
use conch_httpd::http::{Request, Response};
use conch_httpd::net::{Connection, Listener};
use conch_httpd::pool::{start_pooled, PoolConfig, PooledServer};
use conch_httpd::server::{start, ServerConfig};
use conch_httpd::shard::{start_sharded, ShardConfig, ShardedListener, ShardedServer};
use conch_runtime::io::sequence;
use conch_runtime::prelude::*;
use conch_runtime::value::{FromValue, IntoValue};

const READ_TIMEOUT: u64 = 1_000;
const HANDLER_TIMEOUT: u64 = 5_000;
/// How long a client waits before concluding no response is coming —
/// well past both server budgets.
const CLIENT_PATIENCE: u64 = 20_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Case {
    Good,
    Garbage,
    Oversized,
    Stalled,
    CrashingHandler,
    SlowHandler,
    MidRequestClose,
    WorkerKilled,
    Overload,
}

const CASES: [Case; 9] = [
    Case::Good,
    Case::Garbage,
    Case::Oversized,
    Case::Stalled,
    Case::CrashingHandler,
    Case::SlowHandler,
    Case::MidRequestClose,
    Case::WorkerKilled,
    Case::Overload,
];

impl Case {
    fn handler(self) -> Handler {
        match self {
            Case::CrashingHandler => {
                handler(|_| Io::throw(Exception::error_call("bug in handler")))
            }
            // Outlives the handler budget (504) and the kill (at 100 µs).
            Case::SlowHandler | Case::WorkerKilled => {
                handler(|_| Io::sleep(1_000_000).map(|_| Response::ok("too late")))
            }
            // Long enough to hold a worker while the overload builds,
            // short enough to be served within the handler budget.
            Case::Overload => handler(|_| Io::sleep(3_000).map(|_| Response::ok("held"))),
            _ => handler(|req| Io::pure(Response::ok(format!("hello {}", req.path)))),
        }
    }

    /// The status the (measured) client must see and the counters the
    /// episode must leave.
    fn expected(self) -> (Option<i64>, StatsSnapshot) {
        let one = StatsSnapshot {
            accepted: 1,
            ..StatsSnapshot::default()
        };
        match self {
            Case::Good => (Some(200), StatsSnapshot { served: 1, ..one }),
            Case::Garbage | Case::Oversized => (
                Some(400),
                StatsSnapshot {
                    parse_errors: 1,
                    ..one
                },
            ),
            Case::Stalled => (
                Some(408),
                StatsSnapshot {
                    read_timeouts: 1,
                    ..one
                },
            ),
            Case::CrashingHandler => (
                Some(500),
                StatsSnapshot {
                    handler_errors: 1,
                    ..one
                },
            ),
            Case::SlowHandler => (
                Some(504),
                StatsSnapshot {
                    handler_timeouts: 1,
                    ..one
                },
            ),
            Case::MidRequestClose => (None, StatsSnapshot { aborted: 1, ..one }),
            Case::WorkerKilled => (None, StatsSnapshot { killed: 1, ..one }),
            // Two connections hold the plane's whole capacity and are
            // served; the third is shed.
            Case::Overload => (
                Some(503),
                StatsSnapshot {
                    accepted: 3,
                    served: 2,
                    shed: 1,
                    ..StatsSnapshot::default()
                },
            ),
        }
    }
}

/// What the table needs from a plane — a `(listener, handle)` pair:
/// start it with capacity for exactly two connections, connect to it,
/// find its workers, audit it.
trait Plane: Clone + FromValue + IntoValue + 'static {
    const NAME: &'static str;
    /// Whether the accept policy sheds at all (the sharded plane
    /// applies backpressure instead).
    const SHEDS: bool;

    fn start(h: Handler) -> Io<Self>;
    fn connect(&self) -> Io<Connection>;
    fn worker_ids(&self) -> Io<Vec<ThreadId>>;
    fn audit(&self) -> Io<StatsSnapshot>;
}

fn server_config() -> ServerConfig {
    ServerConfig {
        read_timeout: READ_TIMEOUT,
        handler_timeout: HANDLER_TIMEOUT,
        max_active: 2,
        ..ServerConfig::default()
    }
}

fn audit_one(server: Server) -> Io<StatsSnapshot> {
    server
        .shutdown_sync()
        .then(server.drain())
        .then(server.stats.snapshot())
}

type Fork = (Listener, Server);

impl Plane for Fork {
    const NAME: &'static str = "fork";
    const SHEDS: bool = true;

    fn start(h: Handler) -> Io<Self> {
        Listener::bind().and_then(|l| start(l, h, server_config()).map(move |s| (l, s)))
    }
    fn connect(&self) -> Io<Connection> {
        self.0.connect()
    }
    fn worker_ids(&self) -> Io<Vec<ThreadId>> {
        self.1.worker_ids()
    }
    fn audit(&self) -> Io<StatsSnapshot> {
        audit_one(self.1)
    }
}

type Pool = (Listener, PooledServer);

impl Plane for Pool {
    const NAME: &'static str = "pool";
    const SHEDS: bool = true;

    fn start(h: Handler) -> Io<Self> {
        // One worker plus one queue slot: capacity two.
        let cfg = PoolConfig {
            workers: 1,
            queue_capacity: 1,
            server: server_config(),
            ..PoolConfig::default()
        };
        Listener::bind().and_then(move |l| start_pooled(l, h, cfg).map(move |s| (l, s)))
    }
    fn connect(&self) -> Io<Connection> {
        self.0.connect()
    }
    fn worker_ids(&self) -> Io<Vec<ThreadId>> {
        self.1.plane.worker_ids()
    }
    fn audit(&self) -> Io<StatsSnapshot> {
        let server = self.1;
        audit_one(server.plane).and_then(move |snap| server.stop_sync().map(move |_| snap))
    }
}

type Shard = (ShardedListener, ShardedServer);

impl Plane for Shard {
    const NAME: &'static str = "shard";
    const SHEDS: bool = false;

    fn start(h: Handler) -> Io<Self> {
        let cfg = ShardConfig {
            read_timeout: READ_TIMEOUT,
            handler_timeout: HANDLER_TIMEOUT,
        };
        ShardedListener::bind(2, 2)
            .and_then(move |l| start_sharded(&l, h, cfg).map(move |s| (l, s)))
    }
    fn connect(&self) -> Io<Connection> {
        self.0.connect(1)
    }
    fn worker_ids(&self) -> Io<Vec<ThreadId>> {
        self.1.worker_ids()
    }
    fn audit(&self) -> Io<StatsSnapshot> {
        let server = self.1.clone();
        server
            .shutdown_sync()
            .then(server.drain())
            .then(server.aggregate())
    }
}

/// The status a client sees, or `None` once its patience runs out.
fn status(conn: Connection) -> Io<Option<i64>> {
    timeout(CLIENT_PATIENCE, conn.read_response()).map(|resp| {
        resp.map(|r| match status_of(&r) {
            ClientOutcome::Status(code) => i64::from(code),
            ClientOutcome::Garbled => panic!("garbled response {r:?}"),
        })
    })
}

/// One client episode against a started plane.
fn episode<P: Plane>(plane: P, case: Case) -> Io<Option<i64>> {
    let request = Request::get("/x").render();
    let workers = plane.clone();
    let send = move |text: String| {
        plane
            .connect()
            .and_then(move |conn| conn.send_text(text).map(move |_| conn))
    };
    match case {
        Case::Good | Case::CrashingHandler | Case::SlowHandler => send(request).and_then(status),
        Case::Garbage => send("NONSENSE\r\n\r\n".into()).and_then(status),
        // Terminator-free bytes well inside the read budget: the server
        // must cut the peer off, not buffer without limit.
        Case::Oversized => send("x".repeat(64 * 1024)).and_then(status),
        Case::Stalled => send("GET / HT".into()).and_then(status),
        Case::MidRequestClose => {
            send("GET / HT".into()).and_then(|conn| conn.close().then(status(conn)))
        }
        Case::WorkerKilled => {
            send(request).and_then(move |conn| {
                // Park until the worker is asleep inside the handler,
                // then kill every registered worker.
                Io::sleep(100)
                    .then(workers.worker_ids())
                    .and_then(|tids| {
                        assert!(!tids.is_empty(), "no worker registered");
                        let kill = |t| Io::throw_to_sync(t, Exception::kill_thread());
                        sequence(tids.into_iter().map(kill).collect())
                    })
                    .then(status(conn))
            })
        }
        // Let each holder settle (be dequeued / forked) before the next
        // connection arrives.
        Case::Overload => send(request.clone())
            .then(Io::sleep(200))
            .then(send(request.clone()))
            .then(Io::sleep(200))
            .then(send(request))
            .and_then(status),
    }
}

fn run_cell<P: Plane>(case: Case) -> Result<(), String> {
    if case == Case::Overload && !P::SHEDS {
        return Ok(());
    }
    let mut rt = Runtime::new();
    let prog = P::start(case.handler()).and_then(move |plane| {
        episode(plane.clone(), case)
            .and_then(move |seen| plane.audit().map(move |snap| (seen, snap)))
    });
    let (seen, snap) = rt
        .run(prog)
        .map_err(|e| format!("{} × {case:?}: run failed: {e}", P::NAME))?;
    let (want_status, want_snap) = case.expected();
    if seen != want_status || snap != want_snap || !snap.conserved() {
        return Err(format!(
            "{} × {case:?}: client saw {seen:?} (want {want_status:?}), counters {snap:?} (want {want_snap:?})",
            P::NAME
        ));
    }
    Ok(())
}

#[test]
fn every_plane_accounts_every_misbehaviour() {
    let mut failures = Vec::new();
    for case in CASES {
        failures.extend(run_cell::<Fork>(case).err());
        failures.extend(run_cell::<Pool>(case).err());
        failures.extend(run_cell::<Shard>(case).err());
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
