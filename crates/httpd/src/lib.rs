//! # conch-httpd
//!
//! The paper's §11 case study: "a prototype fault-tolerant HTTP server
//! which makes heavy use of time-outs, multithreading and exceptions"
//! (\[8\], Marlow's Haskell web server) — rebuilt on `conch-runtime` and
//! `conch-combinators` over a simulated network (see DESIGN.md for the
//! substitution).
//!
//! * [`http`] — an HTTP/1.0-subset parser and response renderer.
//! * [`net`] — `MVar`-channel connections (one wire: a byte stream moved
//!   in chunks) and listeners; blocking reads and accepts are
//!   interruptible operations (§5.3), which is what makes the timeouts
//!   and the graceful shutdown possible.
//! * [`core`] — what every serving plane shares, written once: the
//!   counters and their conservation law (one `MVar` cell, three §7.4
//!   masked mutators), the §9 handler guard, the worker registry, and
//!   the [`core::Server`] handle with the quiescent audit protocol
//!   (`shutdown_sync` → `drain` → `snapshot`).
//! * Three accept policies over it:
//!   [`server`] — fork a worker per connection, shed on `max_active`
//!   (one request per [`net::Connection`]);
//!   [`pool`] — a bounded accept queue feeding a fixed set of worker
//!   actors under a self-healing two-level supervision tree
//!   (`conch-actors`; one request per connection);
//!   [`shard`] — N accept shards with per-shard bounded queues and
//!   stats cells over keep-alive/pipelined connections with
//!   per-request accounting and batched response flushes, plus the
//!   synthetic load driver.
//! * [`parallel`] — the sharded plane re-homed onto `MultiRuntime`: one
//!   scheduler per shard, pinned to its own OS thread.
//! * [`client`] — load-generating clients: well-behaved, stalling,
//!   trickling and garbage.
//!
//! ## Example
//!
//! ```
//! use conch_runtime::prelude::*;
//! use conch_httpd::http::{Request, Response};
//! use conch_httpd::net::Listener;
//! use conch_httpd::server::{handler, start, ServerConfig};
//!
//! let mut rt = Runtime::new();
//! let prog = Listener::bind().and_then(|l| {
//!     start(l, handler(|_| Io::pure(Response::ok("hi"))), ServerConfig::default())
//!         .and_then(move |_srv| {
//!             l.connect().and_then(|conn| {
//!                 conn.send_text(Request::get("/").render())
//!                     .then(conn.read_response())
//!             })
//!         })
//! });
//! let resp = rt.run(prog).unwrap();
//! assert!(resp.contains("200 OK"));
//! ```

// `pub` means reachable from another crate: an item used only in here is
// `pub(crate)`, and `dead_code` then names what nothing uses at all.
#![warn(unreachable_pub)]

pub mod client;
pub mod core;
pub mod http;
pub mod net;
pub mod parallel;
pub mod pool;
pub mod server;
pub mod shard;
