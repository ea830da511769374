//! # conch-faults
//!
//! Deterministic fault injection for the conch runtime and its httpd
//! case study.
//!
//! The paper's thesis is that asynchronous exceptions can be given
//! *semantics* — that failure is not an excuse for nondeterminism the
//! programmer cannot reason about. This crate extends that stance to
//! injected failures: every fault here is a first-class **branch
//! point**, not a random event. In explore mode
//! ([`Injector::Explore`]) each injection site compiles to an
//! [`Io::choose`](conch_runtime::io::Io::choose) oracle, which
//! `conch-explore` enumerates exactly like a scheduling decision — so
//! `Explorer::check` walks the full *fault × schedule* product space,
//! DPOR prunes it, and the parallel engine reports bit-identical
//! coverage counters at any worker count. In scripted mode
//! ([`Injector::Scripted`]) the same sites drain a fixed [`FaultPlan`],
//! giving plain `Runtime` runs (benches, stress tests, demos) one
//! reproducible fault sequence.
//!
//! Three fault families cover the server's attack surface:
//!
//! * **connection faults** ([`ConnFault`]) — drop, stall-forever,
//!   mid-request close, garbage bytes — composed as *pre-written wire
//!   histories* and handed to the server via
//!   [`Listener::inject`](conch_httpd::net::Listener::inject), so the
//!   bytes themselves cost the explorer nothing;
//! * **handler faults** ([`HandlerFault`]) — synchronous crashes and
//!   wedged handlers, wrapped around any [`Handler`](conch_httpd::server::Handler)
//!   by [`faulty_handler`];
//! * **exception storms** ([`kill_storm`]) — bursts of
//!   `throwTo KillThread` aimed at the server's worker threads, the §11
//!   fault-tolerance scenario made adversarial.
//!
//! Arm `0` of every choice is "no fault", so a program under injection
//! is, by construction, a superset of the healthy program.

// `pub` means reachable from another crate: an item used only in here is
// `pub(crate)`, and `dead_code` then names what nothing uses at all.
#![warn(unreachable_pub)]

mod client;
mod fault;
mod handler;
mod inject;
pub mod spaces;
mod storm;

pub use crate::client::{faulty_client, prepared_connection};
pub use crate::fault::{ConnFault, HandlerFault};
pub use crate::handler::faulty_handler;
pub use crate::inject::{FaultPlan, Injector};
pub use crate::storm::{kill_storm, kill_storm_pooled, kill_storm_targets};
