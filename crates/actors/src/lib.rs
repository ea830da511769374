//! # conch-actors
//!
//! Erlang-style typed actors built directly on the paper's
//! asynchronous-exception primitives — the layer "An Exceptional Actor
//! System" (PAPERS.md) shows is the canonical next storey above
//! `throwTo` + `mask` + `bracket`:
//!
//! * [`Mailbox<M>`] — bounded typed FIFO with backpressure, whose
//!   single-cell masked transactions make capacity unleakable and
//!   whose `recv` closes the take→deliver window against asynchronous
//!   kills (see the module docs for the pre-fix lost-message bug the
//!   explorer regression test exhibits).
//! * [`spawn_actor`] / [`ActorRef<M>`] — a thread wrapped in a masked
//!   shell that classifies every termination into an
//!   [`ExitReason`](conch_runtime::exception::ExitReason) and notifies
//!   peers on *every* exit path, the `bracket` discipline applied to
//!   lifecycle bookkeeping.
//! * [`link`] / [`monitor`] — crash propagation via
//!   `throwTo(ExitSignal)` and exactly-once [`Down`] messages;
//!   trap-exits via `mask` + [`Mailbox::recv_trapping`].
//! * [`Supervisor`] — one-for-one / all-for-one / rest-for-one restart
//!   strategies with sliding max-restart-intensity windows, composing
//!   into supervision trees via [`supervisor_child`].
//!
//! Everything here is deterministic under `conch-explore`: the
//! supervision invariants (no orphans after supervisor death, restarts
//! preserve state, monitors fire exactly once) are checked on *every*
//! schedule in `tests/explore_actors.rs` and under fault injection in
//! `conch-faults`.

// `pub` means reachable from another crate: an item used only in here is
// `pub(crate)`, and `dead_code` then names what nothing uses at all.
#![warn(unreachable_pub)]

pub mod actor;
pub mod mailbox;
pub mod supervisor;

pub use actor::{link, monitor, spawn_actor, spawn_actor_on, ActorRef, Down, Signal};
pub use mailbox::Mailbox;
pub use supervisor::{
    child_spec, spawn_supervisor, supervisor_child, ChildSpec, Strategy, Supervisor, SupervisorSpec,
};
