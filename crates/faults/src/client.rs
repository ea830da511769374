//! Faulty clients: connections with pre-composed wire histories.
//!
//! The trick that keeps fault exploration tractable: the client does
//! not *run* concurrently with the server at all. Its entire wire
//! history — full request, truncated request, garbage, bare close — is
//! written into the connection's channels first, as one chunk of bytes
//! and at most one close (channel sends never block, and the acceptor
//! is still parked on an empty accept queue, so no other thread is
//! runnable and the writes introduce **zero branch points**), and only
//! then handed to the server with
//! [`Listener::inject`]. The explorer's work stays proportional to the
//! real nondeterminism: which fault was chosen, and how the server's
//! own threads interleave while serving it.

use conch_combinators::timeout;
use conch_httpd::client::{status_of, ClientOutcome};
use conch_httpd::net::{Connection, Listener};
use conch_runtime::io::Io;

use crate::fault::ConnFault;
use crate::inject::Injector;

/// A connection pre-loaded with `fault`'s wire history for `path`,
/// ready to [`inject`](Listener::inject).
pub fn prepared_connection(fault: ConnFault, path: &str) -> Io<Connection> {
    let (text, close) = fault.wire(path);
    Connection::open().and_then(move |conn| {
        let hang_up = if close { conn.close() } else { Io::unit() };
        conn.send_text(text).then(hang_up).map(move |_| conn)
    })
}

/// One client visit with an injector-chosen connection fault.
///
/// Composes the faulty connection, injects it, and waits up to
/// `response_budget` virtual µs for the server's answer. Returns the
/// observed HTTP status code, `-1` if no response arrived within the
/// budget (expected for [`ConnFault::Drop`] and
/// [`ConnFault::MidRequestClose`] — the server aborts those without
/// answering), or `-2` for an unparseable response.
///
/// The budget must exceed the server's read timeout for the
/// [`ConnFault::Stall`] arm to observe its 408.
pub fn faulty_client(l: Listener, inj: &Injector, path: String, response_budget: u64) -> Io<i64> {
    inj.conn_fault().and_then(move |fault| {
        prepared_connection(fault, &path).and_then(move |conn| {
            l.inject(conn)
                .then(timeout(response_budget, conn.read_response()))
                .map(|resp| match resp {
                    Some(text) => match status_of(&text) {
                        ClientOutcome::Status(code) => i64::from(code),
                        ClientOutcome::Garbled => -2,
                    },
                    None => -1,
                })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use conch_httpd::http::Response;
    use conch_httpd::server::{handler, start, Server, ServerConfig};
    use conch_runtime::prelude::*;

    fn visit(arm: u8) -> (i64, conch_httpd::server::StatsSnapshot) {
        let mut rt = Runtime::new();
        let cfg = ServerConfig {
            read_timeout: 1_000,
            handler_timeout: 10_000,
            ..ServerConfig::default()
        };
        let prog = Listener::bind().and_then(move |l| {
            start(l, handler(|_| Io::pure(Response::ok("hi"))), cfg).and_then(move |server| {
                let inj = Injector::scripted([arm]);
                faulty_client(l, &inj, "/x".into(), 50_000).and_then(move |code| {
                    server
                        .drain()
                        .then(server.shutdown())
                        .then(server.stats.snapshot())
                        .map(move |snap| (code, snap))
                })
            })
        });
        rt.run(prog).unwrap()
    }

    #[test]
    fn no_fault_arm_is_served() {
        let (code, snap) = visit(ConnFault::None.arm());
        assert_eq!(code, 200);
        assert_eq!(snap.served, 1);
        assert!(snap.conserved(), "counters must conserve: {snap:?}");
    }

    #[test]
    fn drop_arm_is_aborted_unanswered() {
        let (code, snap) = visit(ConnFault::Drop.arm());
        assert_eq!(code, -1, "a dropped connection gets no response");
        assert_eq!(snap.aborted, 1);
        assert!(snap.conserved(), "counters must conserve: {snap:?}");
    }

    #[test]
    fn stall_arm_times_out_with_408() {
        let (code, snap) = visit(ConnFault::Stall.arm());
        assert_eq!(code, 408);
        assert_eq!(snap.read_timeouts, 1);
        assert!(snap.conserved(), "counters must conserve: {snap:?}");
    }

    #[test]
    fn mid_request_close_arm_is_aborted() {
        let (code, snap) = visit(ConnFault::MidRequestClose.arm());
        assert_eq!(code, -1);
        assert_eq!(snap.aborted, 1);
        assert!(snap.conserved(), "counters must conserve: {snap:?}");
    }

    #[test]
    fn garbage_arm_is_rejected_with_400() {
        let (code, snap) = visit(ConnFault::Garbage.arm());
        assert_eq!(code, 400);
        assert_eq!(snap.parse_errors, 1);
        assert!(snap.conserved(), "counters must conserve: {snap:?}");
    }

    #[test]
    fn server_survives_every_fault_and_still_serves() {
        // One server, the whole menu in sequence, then a healthy probe:
        // the recovery invariant the explorer checks, here as a plain
        // deterministic run.
        let mut rt = Runtime::new();
        let cfg = ServerConfig {
            read_timeout: 1_000,
            handler_timeout: 10_000,
            ..ServerConfig::default()
        };
        let prog = Listener::bind().and_then(move |l| {
            start(l, handler(|_| Io::pure(Response::ok("hi"))), cfg).and_then(move |server| {
                let inj = Injector::scripted([1, 2, 3, 4]);
                fn visit_all(l: Listener, inj: Injector, left: u8, server: Server) -> Io<i64> {
                    if left == 0 {
                        // The healthy probe after the storm of faults.
                        return faulty_client(l, &Injector::quiet(), "/probe".into(), 50_000)
                            .and_then(move |code| {
                                server
                                    .drain()
                                    .then(server.shutdown())
                                    .then(server.stats.snapshot())
                                    .map(move |snap| {
                                        assert!(snap.conserved(), "{snap:?}");
                                        assert_eq!(snap.accepted, 5);
                                        code
                                    })
                            });
                    }
                    faulty_client(l, &inj.clone(), "/x".into(), 50_000)
                        .and_then(move |_| visit_all(l, inj, left - 1, server))
                }
                visit_all(l, inj, 4, server)
            })
        });
        assert_eq!(
            rt.run(prog).unwrap(),
            200,
            "post-fault probe must be served"
        );
    }
}
