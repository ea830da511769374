//! The simulated network substrate.
//!
//! The paper's web-server case study ran on real sockets; here (per the
//! repro substitution in DESIGN.md) a [`Connection`] is a pair of `Chan`s
//! — request bytes flowing to the server in chunks, response text
//! flowing back — and a [`Listener`] is a `Chan` of connections.
//! Everything is built from `MVar`s, so blocking accepts and reads are
//! *interruptible operations* in the §5.3 sense, which is precisely what
//! lets the server time them out.

use conch_combinators::Chan;
use conch_runtime::exception::Exception;
use conch_runtime::host_value;
use conch_runtime::io::Io;

/// The in-band end-of-transmission sentinel a closing client pushes
/// onto its request channel (ASCII EOT). Never part of an HTTP
/// request, so the server can tell "peer hung up" from request bytes.
pub(crate) const EOT: char = '\u{4}';

/// The most bytes one request may occupy, terminator included. A peer
/// that keeps sending terminator-free bytes inside the read budget is
/// cut off here and answered `400` instead of growing the server's
/// buffer without limit.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// The exception [`Connection::read_request_text`] raises when the
/// peer closed the connection mid-request.
pub(crate) fn connection_closed() -> Exception {
    Exception::custom("ConnectionClosed")
}

/// The exception [`Connection::read_request_text`] raises when the
/// request outgrows the 8 KiB cap (`MAX_REQUEST_BYTES`).
pub(crate) fn request_too_large() -> Exception {
    Exception::custom("RequestTooLarge")
}

/// Where the first request in `buf` ends — one past its `\r\n\r\n`,
/// looked for from byte `from` on — or `None` while it is incomplete.
///
/// # Errors
///
/// [`request_too_large`] once the request, complete or not, exceeds
/// [`MAX_REQUEST_BYTES`]: both readers of the wire stop buffering here.
pub(crate) fn request_end(buf: &str, from: usize) -> Result<Option<usize>, Exception> {
    let end = buf[from..].find("\r\n\r\n").map(|at| from + at + 4);
    if end.unwrap_or(buf.len()) > MAX_REQUEST_BYTES {
        Err(request_too_large())
    } else {
        Ok(end)
    }
}

/// One simulated TCP connection: a byte stream each way, moved in
/// *chunks* (simulated TCP segments).
///
/// A chunk is what the sender wrote in one go — a whole request, a
/// pipelined batch of them, or a single character from a trickling
/// client — and costs one channel message however long it is. Chunking
/// does not change the byte-stream semantics: chunks concatenate, a
/// request may span several chunks, one chunk may hold several
/// requests, and a reader sees the same bytes whatever the partition.
///
/// Close is in-band: the final chunk ends with the [`EOT`] sentinel (a
/// piggybacked FIN), or a lone-EOT chunk is sent. EOT never appears
/// mid-chunk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Connection {
    /// Client → server request chunks.
    pub(crate) inbound: Chan<String>,
    /// Server → client response chunks (one per flushed batch of
    /// responses).
    pub(crate) outbound: Chan<String>,
}

impl Connection {
    /// Allocates a fresh connection (both channels empty).
    pub fn open() -> Io<Connection> {
        Chan::<String>::new().and_then(|inbound| {
            Chan::<String>::new().map(move |outbound| Connection { inbound, outbound })
        })
    }

    /// Client side: send request bytes as one chunk. Empty text sends
    /// nothing (a zero-length write is not a segment).
    pub fn send_text(&self, text: impl Into<String>) -> Io<()> {
        let text: String = text.into();
        debug_assert!(!text.contains(EOT), "EOT may only terminate a chunk");
        if text.is_empty() {
            Io::unit()
        } else {
            self.inbound.send(text)
        }
    }

    /// Client side: send a final chunk with the FIN piggybacked — the
    /// bytes followed by the in-band [`EOT`]. After this the server
    /// will serve every complete request in the stream and then close.
    pub fn send_frame_fin(&self, text: impl Into<String>) -> Io<()> {
        let mut text: String = text.into();
        debug_assert!(!text.contains(EOT), "EOT may only terminate a chunk");
        text.push(EOT);
        self.inbound.send(text)
    }

    /// Client side: send text slowly — one character per chunk, `gap`
    /// virtual microseconds apart. This is the slowloris-style client
    /// the paper's timeouts defend against.
    ///
    /// The gap paces *between* characters: the first character goes out
    /// immediately, so `n` characters take `(n - 1) * gap` microseconds
    /// (an earlier version slept before the first character too, adding
    /// a spurious `gap` of latency to every request).
    pub(crate) fn send_text_slowly(&self, text: impl Into<String>, gap: u64) -> Io<()> {
        fn go(conn: Connection, text: String, at: usize, gap: u64) -> Io<()> {
            match text[at..].chars().next() {
                None => Io::unit(),
                Some(c) => {
                    let pace = if at == 0 { Io::unit() } else { Io::sleep(gap) };
                    pace.then(conn.send_text(c))
                        .and_then(move |_| go(conn, text, at + c.len_utf8(), gap))
                }
            }
        }
        go(*self, text.into(), 0, gap)
    }

    /// Client side: close without sending further bytes (a bare FIN).
    /// The server's next (or in-progress) request read raises
    /// [`connection_closed`] instead of waiting forever for bytes that
    /// will never come.
    pub fn close(&self) -> Io<()> {
        self.send_frame_fin("")
    }

    /// Client side: wait for the next response chunk. One chunk may
    /// carry several pipelined responses back to back.
    pub fn read_response(&self) -> Io<String> {
        self.outbound.recv()
    }

    /// Server side: receive the next raw chunk. Returns the payload
    /// bytes and whether the chunk carried the FIN.
    pub fn recv_frame(&self) -> Io<(String, bool)> {
        self.inbound.recv().map(|mut chunk| {
            let fin = chunk.ends_with(EOT);
            if fin {
                chunk.pop();
            }
            debug_assert!(!chunk.contains(EOT), "EOT may only terminate a chunk");
            (chunk, fin)
        })
    }

    /// Server side: read chunks until the header-terminating blank line
    /// (`\r\n\r\n`), returning the text up to and including it. Bytes
    /// behind the terminator in the same chunk are dropped: this is the
    /// one-request-per-connection read.
    ///
    /// # Errors (as `Io` exceptions)
    ///
    /// Raises [`request_too_large`] once the request (terminated or
    /// not) exceeds the 8 KiB cap, and [`connection_closed`] if
    /// the peer [`close`](Self::close)s the connection before the
    /// request is complete.
    pub(crate) fn read_request_text(&self) -> Io<String> {
        fn go(conn: Connection, mut acc: String) -> Io<String> {
            conn.recv_frame().and_then(move |(chunk, fin)| {
                // A terminator straddling chunks has at most its first
                // three bytes in `acc`; they are ASCII, so backing up to
                // a character boundary cannot skip one.
                let scan_from = acc.floor_char_boundary(acc.len().saturating_sub(3));
                acc.push_str(&chunk);
                match request_end(&acc, scan_from) {
                    Err(too_large) => Io::throw(too_large),
                    Ok(Some(end)) => {
                        acc.truncate(end);
                        Io::pure(acc)
                    }
                    Ok(None) if fin => Io::throw(connection_closed()),
                    Ok(None) => go(conn, acc),
                }
            })
        }
        go(*self, String::new())
    }

    /// Server side: send one chunk of response bytes. Channel sends
    /// never block, so a masked server loop can flush safely.
    pub(crate) fn send_response(&self, text: impl Into<String>) -> Io<()> {
        self.outbound.send(text.into())
    }
}

/// The wire under its frame-vocabulary name, which (with the three
/// `*_frame` aliases below) `crates/benchmark` calls; that crate is
/// frozen, so the names stay until its declared unfreeze.
pub type FrameConnection = Connection;

impl Connection {
    /// [`send_text`](Self::send_text).
    pub fn send_frame(&self, text: impl Into<String>) -> Io<()> {
        self.send_text(text)
    }

    /// [`read_response`](Self::read_response).
    pub fn read_response_frame(&self) -> Io<String> {
        self.read_response()
    }

    /// [`send_response`](Self::send_response).
    pub fn send_response_frame(&self, text: impl Into<String>) -> Io<()> {
        self.send_response(text)
    }
}

host_value!(Connection, Listener);

/// The accept queue: clients push fresh connections, the server pops
/// them. Accepting blocks on an `MVar` inside the `Chan`, so it is
/// interruptible — a graceful shutdown simply `throwTo`s the acceptor.
#[derive(Debug, Clone, Copy, PartialEq)]
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
    pub(crate) fn accept(&self) -> Io<Connection> {
        self.accept_queue.recv()
    }

    /// Hands an already-open connection to the accept queue.
    ///
    /// This is the fault-injection entry point: a test (or
    /// `conch-faults`) can compose the connection's entire wire history
    /// — a full request, a truncated one, garbage, or a bare close —
    /// *before* the server ever sees it, in O(1) sends (the bytes are
    /// one chunk, the close another). Because `Chan` sends never block,
    /// the composition runs with no other thread runnable, so a
    /// schedule explorer pays no interleaving cost for the bytes
    /// themselves; the nondeterminism stays where it belongs, in which
    /// fault was chosen and how the server's threads interleave.
    pub fn inject(&self, conn: Connection) -> Io<()> {
        self.accept_queue.send(conn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conch_combinators::timeout;
    use conch_runtime::prelude::*;
    use proptest::prelude::*;

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
        assert_eq!(rt.run(prog).unwrap(), "x");
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

    // ------------------------------------------- chunking is invisible

    /// What a request read came to.
    #[derive(Debug, PartialEq)]
    enum Read {
        Text(String),
        Raised(Exception),
        /// Still waiting for bytes when the budget lapsed.
        Blocked,
    }

    /// The reference: the reader this wire replaced, which took the
    /// stream one character at a time and looked at it after each.
    fn per_character_read(stream: &str, fin: bool) -> Read {
        let mut acc = String::new();
        for c in stream.chars() {
            acc.push(c);
            if acc.len() > MAX_REQUEST_BYTES {
                return Read::Raised(request_too_large());
            }
            if acc.ends_with("\r\n\r\n") {
                return Read::Text(acc);
            }
        }
        if fin {
            Read::Raised(connection_closed())
        } else {
            Read::Blocked
        }
    }

    /// How the stream ends: still open, FIN piggybacked on the last
    /// chunk, or a bare FIN behind it.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Fin {
        Open,
        Piggybacked,
        Bare,
    }

    /// Writes `chunks` (then the FIN) into a fresh connection and reads
    /// one request off it.
    fn read_chunked(mut chunks: Vec<String>, fin: Fin) -> Read {
        let last = if fin == Fin::Piggybacked {
            chunks.pop()
        } else {
            None
        };
        let chunks = std::rc::Rc::new(chunks);
        let prog = Connection::open().and_then(move |c| {
            let n = chunks.len() as u64;
            let hang_up = match fin {
                Fin::Open => Io::unit(),
                Fin::Piggybacked => c.send_frame_fin(last.unwrap_or_default()),
                Fin::Bare => c.close(),
            };
            conch_runtime::io::for_each(n, move |i| c.send_text(chunks[i as usize].clone()))
                .then(hang_up)
                .then(timeout(1_000, c.read_request_text()))
        });
        match Runtime::new().run(prog) {
            Ok(Some(text)) => Read::Text(text),
            Ok(None) => Read::Blocked,
            Err(RunError::Uncaught(e)) => Read::Raised(e),
            Err(e) => panic!("run failed: {e}"),
        }
    }

    /// Splits `stream` after every character whose `cut` (cycled) says so.
    fn partition(stream: &str, cut: &[bool]) -> Vec<String> {
        let mut chunks = vec![String::new()];
        for (i, c) in stream.chars().enumerate() {
            chunks.last_mut().unwrap().push(c);
            if cut[i % cut.len()] {
                chunks.push(String::new());
            }
        }
        chunks.retain(|chunk| !chunk.is_empty());
        chunks
    }

    /// Terminator pieces and 1- to 4-byte characters, so random text is
    /// dense in near-terminators and in multi-byte tails.
    const ALPHABET: [char; 8] = ['\r', '\n', 'G', '/', ' ', 'é', '日', '𝄞'];

    fn text(len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
        prop::collection::vec(0..ALPHABET.len(), len)
            .prop_map(|ixs| ixs.into_iter().map(|i| ALPHABET[i]).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

        /// Whatever the partition — whole, per character, the
        /// terminator straddling 2, 3 or 4 chunks, bytes trailing it,
        /// FIN before or after it, at or around the size cap — the
        /// reader returns the text, or raises the exception, the
        /// per-character stream did.
        #[test]
        fn chunking_is_invisible_to_the_reader(
            pad in prop_oneof![Just(0), Just(0), MAX_REQUEST_BYTES - 40..MAX_REQUEST_BYTES + 8],
            head in text(0..24),
            terminated in any::<bool>(),
            tail in text(0..6),
            fin in prop_oneof![Just(Fin::Open), Just(Fin::Piggybacked), Just(Fin::Bare)],
            shape in 0u8..4,
            cut in prop::collection::vec(any::<bool>(), 1..48),
        ) {
            let terminator = if terminated { "\r\n\r\n" } else { "" };
            let stream = format!("{}{head}{terminator}{tail}", "x".repeat(pad));
            let cut = match shape {
                0 => vec![false],
                1 => vec![true],
                _ => cut,
            };
            let chunks = partition(&stream, &cut);
            prop_assert_eq!(chunks.concat(), stream.clone());
            prop_assert_eq!(
                read_chunked(chunks.clone(), fin),
                per_character_read(&stream, fin != Fin::Open),
                "stream {:?} as {:?}, {:?}", stream, chunks, fin
            );
        }
    }

    #[test]
    fn a_terminator_straddling_chunks_behind_a_multibyte_character_is_found() {
        // Regression: with "…本\r" buffered, three bytes back from the
        // end is inside 本 — slicing there would panic.
        for chunks in [
            vec!["GET /日本\r", "\n\r\n"],
            vec!["GET /日本\r\n", "\r\n"],
            vec!["GET /日本\r\n\r", "\n"],
            vec!["GET /日本", "\r", "\n\r", "\n"],
            vec!["GET /日本", "\r", "\n", "\r", "\n"],
        ] {
            let chunks: Vec<String> = chunks.into_iter().map(String::from).collect();
            let read = read_chunked(chunks.clone(), Fin::Open);
            assert_eq!(read, Read::Text("GET /日本\r\n\r\n".into()), "{chunks:?}");
        }
    }

    #[test]
    fn an_empty_send_sends_nothing() {
        let mut rt = Runtime::new();
        let prog = Connection::open().and_then(|c| {
            c.send_text("")
                .then(c.send_text("x"))
                .then(c.inbound.recv())
        });
        assert_eq!(rt.run(prog).unwrap(), "x");
        assert_eq!(read_chunked(vec![String::new()], Fin::Open), Read::Blocked);
    }
}
