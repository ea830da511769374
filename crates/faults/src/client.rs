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

/// A connection pre-loaded with `fault`'s wire history for `path`,
/// ready to [`inject`](Listener::inject).
pub fn prepared_connection(fault: ConnFault, path: &str) -> Io<Connection> {
    let (text, close) = fault.wire(path);
    Connection::open().and_then(move |conn| {
        let hang_up = if close { conn.close() } else { Io::unit() };
        conn.send_text(text).then(hang_up).map(move |_| conn)
    })
}

/// One client visit whose connection fault is an explorer branch point
/// (see [`visit`]).
pub(crate) fn faulty_client(l: Listener, path: String, response_budget: u64) -> Io<i64> {
    ConnFault::choose().and_then(move |fault| visit(l, fault, &path, response_budget))
}

/// One client visit with `fault`: composes the faulty connection,
/// injects it, and waits up to `response_budget` virtual µs for the
/// server's answer. Returns the observed HTTP status code, `-1` if no
/// response arrived within the budget (expected for [`ConnFault::Drop`]
/// and [`ConnFault::MidRequestClose`] — the server aborts those without
/// answering), or `-2` for an unparseable response.
///
/// The budget must exceed the server's read timeout for the
/// [`ConnFault::Stall`] arm to observe its 408.
fn visit(l: Listener, fault: ConnFault, path: &str, response_budget: u64) -> Io<i64> {
    prepared_connection(fault, path).and_then(move |conn| {
        l.inject(conn)
            .then(timeout(response_budget, conn.read_response()))
            .map(|resp| resp.map_or(-1, |text| status_code(&text)))
    })
}

/// A response's status code, or `-2` if it does not parse.
pub(crate) fn status_code(resp: &str) -> i64 {
    match status_of(resp) {
        ClientOutcome::Status(code) => i64::from(code),
        ClientOutcome::Garbled => -2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conch_httpd::http::Response;
    use conch_httpd::server::{handler, start, ServerConfig, StatsSnapshot};
    use conch_runtime::prelude::*;

    fn config() -> ServerConfig {
        ServerConfig {
            read_timeout: 1_000,
            handler_timeout: 10_000,
            ..ServerConfig::default()
        }
    }

    /// `episode` against a fresh server, then the audit; on one plain
    /// (round-robin) run.
    fn audited<T: FromValue + IntoValue + 'static>(
        episode: fn(Listener) -> Io<T>,
    ) -> (T, StatsSnapshot) {
        let prog = Listener::bind().and_then(move |l| {
            start(l, handler(|_| Io::pure(Response::ok("hi"))), config()).and_then(move |server| {
                episode(l).and_then(move |out| {
                    server
                        .drain()
                        .then(server.shutdown())
                        .then(server.stats.snapshot())
                        .map(move |snap| (out, snap))
                })
            })
        });
        Runtime::new().run(prog).unwrap()
    }

    #[test]
    fn no_fault_arm_is_served() {
        let (code, snap) = audited(|l| visit(l, ConnFault::None, "/x", 50_000));
        assert_eq!(code, 200);
        assert_eq!(snap.served, 1);
        assert!(snap.conserved(), "counters must conserve: {snap:?}");
    }

    #[test]
    fn drop_arm_is_aborted_unanswered() {
        let (code, snap) = audited(|l| visit(l, ConnFault::Drop, "/x", 50_000));
        assert_eq!(code, -1, "a dropped connection gets no response");
        assert_eq!(snap.aborted, 1);
        assert!(snap.conserved(), "counters must conserve: {snap:?}");
    }

    #[test]
    fn stall_arm_times_out_with_408() {
        let (code, snap) = audited(|l| visit(l, ConnFault::Stall, "/x", 50_000));
        assert_eq!(code, 408);
        assert_eq!(snap.read_timeouts, 1);
        assert!(snap.conserved(), "counters must conserve: {snap:?}");
    }

    #[test]
    fn mid_request_close_arm_is_aborted() {
        let (code, snap) = audited(|l| visit(l, ConnFault::MidRequestClose, "/x", 50_000));
        assert_eq!(code, -1);
        assert_eq!(snap.aborted, 1);
        assert!(snap.conserved(), "counters must conserve: {snap:?}");
    }

    #[test]
    fn garbage_arm_is_rejected_with_400() {
        let (code, snap) = audited(|l| visit(l, ConnFault::Garbage, "/x", 50_000));
        assert_eq!(code, 400);
        assert_eq!(snap.parse_errors, 1);
        assert!(snap.conserved(), "counters must conserve: {snap:?}");
    }

    #[test]
    fn server_survives_every_fault_and_still_serves() {
        // One server, the whole menu in sequence, then a healthy probe:
        // the recovery invariant the explorer checks, here as a plain
        // deterministic run.
        let (code, snap) = audited(|l| {
            let faults = [
                ConnFault::Drop,
                ConnFault::Stall,
                ConnFault::MidRequestClose,
                ConnFault::Garbage,
            ];
            faults
                .into_iter()
                .fold(Io::pure(0), |io, fault| {
                    io.then(visit(l, fault, "/x", 50_000))
                })
                .then(visit(l, ConnFault::None, "/probe", 50_000))
        });
        assert_eq!(code, 200, "post-fault probe must be served");
        assert_eq!(snap.accepted, 5);
        assert!(snap.conserved(), "{snap:?}");
    }
}
