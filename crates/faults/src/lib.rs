//! # conch-faults
//!
//! Deterministic fault injection for the conch runtime and its httpd
//! case study.
//!
//! The paper's thesis is that asynchronous exceptions can be given
//! *semantics* — that failure is not an excuse for nondeterminism the
//! programmer cannot reason about. This crate extends that stance to
//! injected failures: every fault here is a first-class **branch
//! point**, not a random event. Each injection site is an
//! [`Io::choose`](conch_runtime::io::Io::choose) oracle, which
//! `conch-explore` enumerates exactly like a scheduling decision — so
//! `Explorer::check` walks the full *fault × schedule* product space
//! (exhaustively where a sound search finishes it, by PCT sampling
//! where none does), and the parallel engine reports bit-identical
//! coverage counters at any worker count. Outside exploration nobody
//! decides, every choice takes arm `0`, and the program runs healthy.
//!
//! Two fault families cover the server's attack surface:
//!
//! * **connection faults** ([`ConnFault`]) — drop, stall-forever,
//!   mid-request close, garbage bytes — composed as *pre-written wire
//!   histories* ([`prepared_connection`]) and handed to the server via
//!   [`Listener::inject`](conch_httpd::net::Listener::inject), so the
//!   bytes themselves cost the explorer nothing;
//! * **kill storms** — bursts of `throwTo KillThread` aimed at the
//!   server's worker threads (and the pool's supervisor), the §11
//!   fault-tolerance scenario made adversarial.
//!
//! The [`spaces`] compose them into the canonical fault × schedule
//! programs the explorer tests check.
//!
//! Arm `0` of every choice is "no fault", so a program under injection
//! is, by construction, a superset of the healthy program.

// `pub` means reachable from another crate: an item used only in here is
// `pub(crate)`, and `dead_code` then names what nothing uses at all.
#![warn(unreachable_pub)]

mod client;
mod fault;
pub mod spaces;
mod storm;

pub use crate::client::prepared_connection;
pub use crate::fault::ConnFault;
