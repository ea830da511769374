//! Load-generation clients for the case study and the benchmarks.
//!
//! Each client style exercises a different failure mode of the paper's
//! server: well-behaved requests, stalled (slowloris) connections, slow
//! trickled requests, and garbage.

use conch_runtime::io::Io;
use conch_runtime::mvar::MVar;

use crate::http::Request;
use crate::net::{Connection, Listener};

/// What a client run observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientOutcome {
    /// Response with this status code.
    Status(u16),
    /// The response could not be parsed.
    Garbled,
}

/// Extracts the status code from a response's status line.
pub fn status_of(resp: &str) -> ClientOutcome {
    resp.strip_prefix("HTTP/1.0 ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|code| code.parse().ok())
        .map_or(ClientOutcome::Garbled, ClientOutcome::Status)
}

/// The tail every client shares: connect, send what `send` writes,
/// await the response and record its status (`-1` if garbled) into
/// `report`.
fn exchange(
    l: Listener,
    send: impl FnOnce(Connection) -> Io<()> + 'static,
    report: MVar<i64>,
) -> Io<()> {
    l.connect().and_then(move |conn| {
        send(conn)
            .then(conn.read_response())
            .and_then(move |resp| match status_of(&resp) {
                ClientOutcome::Status(s) => report.put(i64::from(s)),
                ClientOutcome::Garbled => report.put(-1),
            })
    })
}

/// A well-behaved client: connect, send `GET path`, await the response,
/// record the status into `report`.
pub fn good_client(l: Listener, path: String, report: MVar<i64>) -> Io<()> {
    exchange(
        l,
        move |conn| conn.send_text(Request::get(path).render()),
        report,
    )
}

/// A stalling client: sends a partial request and never finishes. The
/// server's read timeout should answer 408.
pub fn stalling_client(l: Listener, report: MVar<i64>) -> Io<()> {
    exchange(l, |conn| conn.send_text("GET /stall HTTP"), report)
}

/// A trickling client: sends the whole request, but `gap` µs per
/// character. Served iff the total transfer fits the read budget.
pub fn trickling_client(l: Listener, path: String, gap: u64, report: MVar<i64>) -> Io<()> {
    exchange(
        l,
        move |conn| conn.send_text_slowly(Request::get(path).render(), gap),
        report,
    )
}

/// A garbage client: sends bytes that are not HTTP.
pub fn garbage_client(l: Listener, report: MVar<i64>) -> Io<()> {
    exchange(
        l,
        |conn| conn.send_text("%%% not http at all %%%\r\n\r\n"),
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Response;
    use crate::server::{handler, start, ServerConfig};
    use conch_runtime::prelude::*;

    fn echo_handler() -> crate::server::Handler {
        handler(|req| Io::pure(Response::ok(req.path)))
    }

    fn run_client(
        mk: impl FnOnce(Listener, MVar<i64>) -> Io<()> + 'static,
        cfg: ServerConfig,
    ) -> i64 {
        let mut rt = Runtime::new();
        let prog = Listener::bind().and_then(move |l| {
            start(l, echo_handler(), cfg).and_then(move |_server| {
                Io::new_empty_mvar::<i64>()
                    .and_then(move |report| Io::fork(mk(l, report)).then(report.take()))
            })
        });
        rt.run(prog).unwrap()
    }

    #[test]
    fn good_client_gets_200() {
        let code = run_client(
            |l, r| good_client(l, "/ok".into(), r),
            ServerConfig::default(),
        );
        assert_eq!(code, 200);
    }

    #[test]
    fn stalling_client_gets_408() {
        let code = run_client(stalling_client, ServerConfig::default());
        assert_eq!(code, 408);
    }

    #[test]
    fn garbage_client_gets_400() {
        let code = run_client(garbage_client, ServerConfig::default());
        assert_eq!(code, 400);
    }

    #[test]
    fn trickling_client_served_within_budget() {
        let code = run_client(
            |l, r| trickling_client(l, "/t".into(), 10, r),
            ServerConfig {
                read_timeout: 100_000,
                ..ServerConfig::default()
            },
        );
        assert_eq!(code, 200);
    }

    #[test]
    fn trickling_client_times_out_beyond_budget() {
        let code = run_client(
            |l, r| trickling_client(l, "/t".into(), 1_000, r),
            ServerConfig {
                read_timeout: 2_000,
                ..ServerConfig::default()
            },
        );
        assert_eq!(code, 408);
    }

    #[test]
    fn status_parser() {
        assert_eq!(
            status_of("HTTP/1.0 200 OK\r\n\r\nx"),
            ClientOutcome::Status(200)
        );
        assert_eq!(status_of("garbage"), ClientOutcome::Garbled);
    }
}
