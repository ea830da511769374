//! The simulated network substrate.
//!
//! The paper's web-server case study ran on real sockets; here (per the
//! repro substitution in DESIGN.md) a [`Connection`] is a pair of `Chan`s
//! — request characters flowing to the server, response text flowing
//! back — and a [`Listener`] is a `Chan` of connections. Everything is
//! built from `MVar`s, so blocking accepts and reads are *interruptible
//! operations* in the §5.3 sense, which is precisely what lets the
//! server time them out.

use conch_combinators::Chan;
use conch_runtime::exception::Exception;
use conch_runtime::io::Io;
use conch_runtime::value::{FromValue, IntoValue, Value};

/// The in-band end-of-transmission sentinel a closing client pushes
/// onto its request channel (ASCII EOT). Never part of an HTTP
/// request, so the server can tell "peer hung up" from request bytes.
pub(crate) const EOT: char = '\u{4}';

/// The exception [`Connection::read_request_text`] raises when the
/// peer closed the connection mid-request.
pub fn connection_closed() -> Exception {
    Exception::custom("ConnectionClosed")
}

/// One simulated TCP connection.
///
/// The server reads request characters from `inbound` and writes the
/// rendered response to `outbound`; the client does the reverse.
#[derive(Debug, Clone, Copy)]
pub struct Connection {
    /// Client → server request characters.
    pub inbound: Chan<char>,
    /// Server → client response text (one message per response).
    pub outbound: Chan<String>,
}

impl Connection {
    /// Allocates a fresh connection (both channels empty).
    pub fn open() -> Io<Connection> {
        Chan::<char>::new().and_then(|inbound| {
            Chan::<String>::new().map(move |outbound| Connection { inbound, outbound })
        })
    }

    /// Client side: send raw request text, one character at a time.
    ///
    /// Unfolded lazily, like [`Connection::send_text_slowly`]: one live
    /// node at a time, so dropping a half-sent (or never-run) action
    /// does not recurse once per character.
    pub fn send_text(&self, text: impl Into<String>) -> Io<()> {
        fn go(inbound: Chan<char>, text: String, at: usize) -> Io<()> {
            match text[at..].chars().next() {
                None => Io::unit(),
                Some(c) => inbound
                    .send(c)
                    .and_then(move |_| go(inbound, text, at + c.len_utf8())),
            }
        }
        go(self.inbound, text.into(), 0)
    }

    /// Client side: send text slowly — `gap` virtual microseconds between
    /// characters. This is the slowloris-style client the paper's
    /// timeouts defend against.
    ///
    /// The gap paces *between* characters: the first character goes out
    /// immediately, so `n` characters take `(n - 1) * gap` microseconds
    /// (an earlier version slept before the first character too, adding
    /// a spurious `gap` of latency to every request).
    pub fn send_text_slowly(&self, text: impl Into<String>, gap: u64) -> Io<()> {
        let chars: Vec<char> = text.into().chars().collect();
        let inbound = self.inbound;
        fn go(
            inbound: Chan<char>,
            mut chars: std::vec::IntoIter<char>,
            gap: u64,
            first: bool,
        ) -> Io<()> {
            match chars.next() {
                None => Io::unit(),
                Some(c) => {
                    let pace = if first { Io::unit() } else { Io::sleep(gap) };
                    pace.then(inbound.send(c))
                        .and_then(move |_| go(inbound, chars, gap, false))
                }
            }
        }
        go(inbound, chars.into_iter(), gap, true)
    }

    /// Client side: close the connection. The server's next (or
    /// in-progress) request read raises [`connection_closed`] instead of
    /// waiting forever for bytes that will never come.
    pub fn close(&self) -> Io<()> {
        self.inbound.send(EOT)
    }

    /// Client side: wait for the response text.
    pub fn read_response(&self) -> Io<String> {
        self.outbound.recv()
    }

    /// Server side: read request characters until the header-terminating
    /// blank line (`\r\n\r\n`), returning the accumulated text.
    ///
    /// # Errors (as `Io` exceptions)
    ///
    /// Raises [`connection_closed`] if the peer [`close`](Self::close)s
    /// the connection before the request is complete.
    pub fn read_request_text(&self) -> Io<String> {
        let inbound = self.inbound;
        fn go(inbound: Chan<char>, mut acc: String) -> Io<String> {
            inbound.recv().and_then(move |c| {
                if c == EOT {
                    return Io::throw(connection_closed());
                }
                acc.push(c);
                if acc.ends_with("\r\n\r\n") {
                    Io::pure(acc)
                } else {
                    go(inbound, acc)
                }
            })
        }
        go(inbound, String::new())
    }

    /// Server side: send the response text.
    pub fn send_response(&self, text: impl Into<String>) -> Io<()> {
        self.outbound.send(text.into())
    }
}

impl FromValue for Connection {
    fn from_value(v: Value) -> Option<Self> {
        match v {
            Value::Pair(i, o) => Some(Connection {
                inbound: Chan::from_value(*i)?,
                outbound: Chan::from_value(*o)?,
            }),
            _ => None,
        }
    }
}

impl IntoValue for Connection {
    fn into_value(self) -> Value {
        Value::Pair(
            Box::new(self.inbound.into_value()),
            Box::new(self.outbound.into_value()),
        )
    }
}

/// A keep-alive connection whose unit of transfer is a *frame* (one
/// simulated TCP segment carrying a string of bytes) instead of a
/// single character.
///
/// [`Connection`] moves one `MVar` handoff per byte — perfect for the
/// slowloris/timeout studies, hopeless at a million requests per run.
/// A `FrameConnection` carries a whole pipelined batch of requests in
/// one channel message, and the server replies with one frame per
/// flushed batch of responses, so the wire cost of `k` pipelined
/// requests is O(1) channel operations, not O(bytes). Framing does not
/// change the byte-stream semantics: frames concatenate to the same
/// stream the char model would carry, a request may span several
/// frames, and one frame may hold several requests.
///
/// Close is in-band, like [`Connection::close`]: the final frame ends
/// with the [`EOT`] sentinel (a piggybacked FIN), or a lone-EOT frame
/// is sent. EOT never appears mid-frame.
#[derive(Debug, Clone, Copy)]
pub struct FrameConnection {
    /// Client → server request frames.
    pub inbound: Chan<String>,
    /// Server → client response frames.
    pub outbound: Chan<String>,
}

impl FrameConnection {
    /// Allocates a fresh connection (both channels empty).
    pub fn open() -> Io<FrameConnection> {
        Chan::<String>::new().and_then(|inbound| {
            Chan::<String>::new().map(move |outbound| FrameConnection { inbound, outbound })
        })
    }

    /// Client side: send one frame of request bytes.
    pub fn send_frame(&self, text: impl Into<String>) -> Io<()> {
        let text: String = text.into();
        debug_assert!(!text.contains(EOT), "EOT may only terminate a frame");
        self.inbound.send(text)
    }

    /// Client side: send a final frame with the FIN piggybacked — the
    /// bytes followed by the in-band [`EOT`]. After this the server
    /// will serve every complete request in the stream and then close.
    pub fn send_frame_fin(&self, text: impl Into<String>) -> Io<()> {
        let mut text: String = text.into();
        debug_assert!(!text.contains(EOT), "EOT may only terminate a frame");
        text.push(EOT);
        self.inbound.send(text)
    }

    /// Client side: close without sending further bytes (a bare FIN).
    pub fn close(&self) -> Io<()> {
        self.inbound.send(EOT.to_string())
    }

    /// Client side: wait for the next response frame. One frame may
    /// carry several pipelined responses back to back.
    pub fn read_response_frame(&self) -> Io<String> {
        self.outbound.recv()
    }

    /// Server side: receive the next raw frame. Returns the payload
    /// bytes and whether the frame carried the FIN.
    pub fn recv_frame(&self) -> Io<(String, bool)> {
        self.inbound.recv().map(|mut frame| {
            let fin = frame.ends_with(EOT);
            if fin {
                frame.pop();
                debug_assert!(!frame.contains(EOT), "EOT may only terminate a frame");
            }
            (frame, fin)
        })
    }

    /// Server side: send one frame of response bytes. Channel sends
    /// never block, so a masked server loop can flush safely.
    pub fn send_response_frame(&self, text: impl Into<String>) -> Io<()> {
        self.outbound.send(text.into())
    }
}

impl FromValue for FrameConnection {
    fn from_value(v: Value) -> Option<Self> {
        match v {
            Value::Pair(i, o) => Some(FrameConnection {
                inbound: Chan::from_value(*i)?,
                outbound: Chan::from_value(*o)?,
            }),
            _ => None,
        }
    }
}

impl IntoValue for FrameConnection {
    fn into_value(self) -> Value {
        Value::Pair(
            Box::new(self.inbound.into_value()),
            Box::new(self.outbound.into_value()),
        )
    }
}

/// The accept queue: clients push fresh connections, the server pops
/// them. Accepting blocks on an `MVar` inside the `Chan`, so it is
/// interruptible — a graceful shutdown simply `throwTo`s the acceptor.
#[derive(Debug, Clone, Copy)]
pub struct Listener {
    accept_queue: Chan<Connection>,
}

impl Listener {
    /// Creates a listener with an empty accept queue.
    pub fn bind() -> Io<Listener> {
        Chan::<Connection>::new().map(|accept_queue| Listener { accept_queue })
    }

    /// Client side: open a connection to this listener.
    pub fn connect(&self) -> Io<Connection> {
        let q = self.accept_queue;
        Connection::open().and_then(move |conn| q.send(conn).map(move |_| conn))
    }

    /// Server side: wait for the next connection.
    pub fn accept(&self) -> Io<Connection> {
        self.accept_queue.recv()
    }

    /// Hands an already-open connection to the accept queue.
    ///
    /// This is the fault-injection entry point: a test (or
    /// `conch-faults`) can compose the connection's entire wire history
    /// — a full request, a truncated one, garbage, or a bare close —
    /// *before* the server ever sees it. Because `Chan` sends never
    /// block, the composition runs with no other thread runnable, so a
    /// schedule explorer pays no interleaving cost for the bytes
    /// themselves; the nondeterminism stays where it belongs, in which
    /// fault was chosen and how the server's threads interleave.
    pub fn inject(&self, conn: Connection) -> Io<()> {
        self.accept_queue.send(conn)
    }
}

impl FromValue for Listener {
    fn from_value(v: Value) -> Option<Self> {
        Some(Listener {
            accept_queue: Chan::from_value(v)?,
        })
    }
}

impl IntoValue for Listener {
    fn into_value(self) -> Value {
        self.accept_queue.into_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conch_combinators::timeout;
    use conch_runtime::prelude::*;

    #[test]
    fn request_text_round_trip() {
        let mut rt = Runtime::new();
        let prog = Connection::open().and_then(|c| {
            c.send_text("GET / HTTP/1.0\r\n\r\n")
                .then(c.read_request_text())
        });
        assert_eq!(rt.run(prog).unwrap(), "GET / HTTP/1.0\r\n\r\n");
    }

    #[test]
    fn response_round_trip() {
        let mut rt = Runtime::new();
        let prog = Connection::open().and_then(|c| {
            c.send_response("HTTP/1.0 200 OK\r\n\r\n")
                .then(c.read_response())
        });
        assert_eq!(rt.run(prog).unwrap(), "HTTP/1.0 200 OK\r\n\r\n");
    }

    #[test]
    fn slow_send_advances_clock() {
        let mut rt = Runtime::new();
        let prog = Connection::open().and_then(|c| {
            Io::fork(c.send_text_slowly("ab\r\n\r\n", 100)).then(c.read_request_text())
        });
        assert_eq!(rt.run(prog).unwrap(), "ab\r\n\r\n");
        // 6 characters paced at 100µs between characters: 500µs total.
        assert!(rt.clock() >= 500);
    }

    #[test]
    fn slow_send_paces_between_characters_not_before() {
        // Regression: the first character must go out at t=0, so a
        // single character costs no virtual time at all, and n
        // characters cost exactly (n-1)·gap.
        let mut rt = Runtime::new();
        let prog = Connection::open()
            .and_then(|c| Io::fork(c.send_text_slowly("x", 1_000_000)).then(c.inbound.recv()));
        assert_eq!(rt.run(prog).unwrap(), 'x');
        assert_eq!(
            rt.clock(),
            0,
            "gap must not be charged before the first char"
        );

        let mut rt = Runtime::new();
        let prog = Connection::open().and_then(|c| {
            Io::fork(c.send_text_slowly("ab\r\n\r\n", 100)).then(c.read_request_text())
        });
        assert_eq!(rt.run(prog).unwrap(), "ab\r\n\r\n");
        assert_eq!(
            rt.clock(),
            500,
            "6 chars at gap 100 must take exactly 500µs"
        );
    }

    #[test]
    fn closed_connection_raises_on_read() {
        let mut rt = Runtime::new();
        let prog = Connection::open().and_then(|c| {
            Io::fork(c.send_text("GET / HT").then(c.close()))
                .then(c.read_request_text())
                .map(|_| "completed".to_owned())
                .catch(|e| Io::pure(format!("{e}")))
        });
        assert_eq!(rt.run(prog).unwrap(), "ConnectionClosed");
    }

    #[test]
    fn reading_partial_request_can_time_out() {
        let mut rt = Runtime::new();
        // Client sends only half a request, then stalls forever.
        let prog = Connection::open().and_then(|c| {
            Io::fork(c.send_text("GET / HT")).then(timeout(1_000, c.read_request_text()))
        });
        assert_eq!(rt.run(prog).unwrap(), None);
    }

    #[test]
    fn listener_hands_out_connections() {
        let mut rt = Runtime::new();
        let prog = Listener::bind().and_then(|l| {
            // Client thread connects and sends; server accepts and reads.
            let client = l
                .connect()
                .and_then(|c| c.send_text("GET /a HTTP/1.0\r\n\r\n"));
            Io::fork(client)
                .then(l.accept())
                .and_then(|c| c.read_request_text())
        });
        assert_eq!(rt.run(prog).unwrap(), "GET /a HTTP/1.0\r\n\r\n");
    }

    #[test]
    fn accept_blocks_until_connect() {
        let mut rt = Runtime::new();
        let prog = Listener::bind().and_then(|l| {
            Io::fork(Io::sleep(50).then(l.connect().map(|_| ())))
                .then(l.accept())
                .map(|_| true)
        });
        assert!(rt.run(prog).unwrap());
        assert!(rt.clock() >= 50);
    }
}
