//! Handler faults: crashes and wedges injected around a real handler.

use conch_httpd::server::{handler, Handler};
use conch_runtime::exception::Exception;
use conch_runtime::io::Io;

use crate::fault::HandlerFault;
use crate::inject::Injector;

/// The exception an injected [`HandlerFault::Crash`] raises.
pub(crate) fn handler_crash() -> Exception {
    Exception::custom("InjectedHandlerCrash")
}

/// Wraps `inner` so every request first asks `inj` whether to fault.
///
/// * [`HandlerFault::None`] — the real handler runs untouched;
/// * [`HandlerFault::Crash`] — raises [`handler_crash`] synchronously
///   (the server's guard answers 500 and counts `handler_errors`);
/// * [`HandlerFault::Wedge`] — sleeps `wedge_sleep` virtual µs before
///   running the real handler. Pick `wedge_sleep` beyond the server's
///   handler timeout and the wedge becomes a 504; the sleep is bounded
///   so even an unsupervised run terminates.
pub fn faulty_handler(inj: Injector, wedge_sleep: u64, inner: Handler) -> Handler {
    handler(move |req| {
        let inner = std::rc::Rc::clone(&inner);
        inj.handler_fault().and_then(move |fault| match fault {
            HandlerFault::None => inner(req),
            HandlerFault::Crash => Io::throw(handler_crash()),
            HandlerFault::Wedge => Io::sleep(wedge_sleep).then(inner(req)),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::faulty_client;
    use conch_httpd::http::Response;
    use conch_httpd::net::Listener;
    use conch_httpd::server::{start, ServerConfig};
    use conch_runtime::prelude::*;

    fn visit_with_handler_arm(arm: u8) -> (i64, conch_httpd::server::StatsSnapshot) {
        let mut rt = Runtime::new();
        let cfg = ServerConfig {
            read_timeout: 1_000,
            handler_timeout: 5_000,
            ..ServerConfig::default()
        };
        let h = faulty_handler(
            Injector::scripted([arm]),
            20_000, // well past the 5ms handler budget
            handler(|_| Io::pure(Response::ok("hi"))),
        );
        let prog = Listener::bind().and_then(move |l| {
            start(l, h, cfg).and_then(move |server| {
                faulty_client(l, &Injector::quiet(), "/x".into(), 50_000).and_then(move |code| {
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
    fn no_fault_serves_normally() {
        let (code, snap) = visit_with_handler_arm(HandlerFault::None.arm());
        assert_eq!(code, 200);
        assert_eq!(snap.served, 1);
        assert!(snap.conserved(), "{snap:?}");
    }

    #[test]
    fn crash_becomes_500() {
        let (code, snap) = visit_with_handler_arm(HandlerFault::Crash.arm());
        assert_eq!(code, 500);
        assert_eq!(snap.handler_errors, 1);
        assert!(snap.conserved(), "{snap:?}");
    }

    #[test]
    fn wedge_becomes_504() {
        let (code, snap) = visit_with_handler_arm(HandlerFault::Wedge.arm());
        assert_eq!(code, 504);
        assert_eq!(snap.handler_timeouts, 1);
        assert!(snap.conserved(), "{snap:?}");
    }
}
