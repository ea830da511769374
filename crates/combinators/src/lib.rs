//! # conch-combinators
//!
//! Robust abstractions over the asynchronous-exception primitives of
//! [`conch-runtime`](conch_runtime), transcribing §7 of *Asynchronous
//! Exceptions in Haskell* (PLDI 2001):
//!
//! * bracketing (§7.1): [`finally`], [`later`], [`bracket`],
//!   [`bracket_on_error`], [`on_exception`];
//! * symmetric process abstractions (§7.2): [`race`] (the paper's
//!   `either`) and [`both`];
//! * composable time-outs (§7.3): [`timeout`];
//! * safe points (§7.4): [`safe_point`];
//! * the safe-locking patterns of §5.1–§5.3: [`modify_mvar`],
//!   [`with_mvar`], [`modify_mvar_masked`], plus the deliberately racy
//!   [`modify_mvar_naive`] baseline, and [`modify_mvar_pure`] — the
//!   §7.4 masked transaction with a pure body that the layers above
//!   build their single-cell structures from, and [`modify_mvar_then`],
//!   the same transaction with a masked tail for a commit that wakes or
//!   waits, and [`await_signal`] for the wait — with
//!   [`retry_interrupted`] for a commit that must survive a storm;
//! * the datatypes §4 says are buildable from MVars: [`Chan`] and
//!   [`Sem`];
//! * paper-adjacent extensions: [`Thunk`] (§8's thunk treatment),
//!   [`catch_sync`]/[`catch_alert`] (§9's exceptions-vs-alerts),
//!   [`supervise`] (§11's fault-tolerance idiom).
//!
//! The paper's point is that these can be built *as a library*, with no
//! further runtime support than `throwTo`, `block`/`unblock` and
//! interruptible operations — and this crate uses nothing else.
//!
//! ## Example: a timed race
//!
//! ```
//! use conch_runtime::prelude::*;
//! use conch_combinators::{race, timeout, Either};
//!
//! let mut rt = Runtime::new();
//! // Race two "searches"; give the whole thing a budget of 1ms.
//! let search = race(
//!     Io::sleep(100).map(|_| "breadth-first".to_owned()),
//!     Io::sleep(300).map(|_| "depth-first".to_owned()),
//! );
//! let prog = timeout(1_000, search);
//! let winner = rt.run(prog).unwrap();
//! assert_eq!(winner, Some(Either::Left("breadth-first".to_owned())));
//! ```

// `pub` means reachable from another crate: an item used only in here is
// `pub(crate)`, and `dead_code` then names what nothing uses at all.
#![warn(unreachable_pub)]

mod alerts;
mod bracket;
mod chan;
mod either;
mod locking;
mod race;
mod sem;
mod supervise;
mod thunk;

pub use crate::alerts::{catch_alert, catch_sync};
pub use crate::bracket::{
    bracket, bracket_on_error, finally, kill_thread, later, on_exception, safe_point,
};
pub use crate::chan::Chan;
pub use crate::either::Either;
pub use crate::locking::{
    await_signal, modify_mvar, modify_mvar_masked, modify_mvar_naive, modify_mvar_pure,
    modify_mvar_then, modify_mvar_with, retry_interrupted, with_mvar,
};
pub use crate::race::{both, race, timeout};
pub use crate::sem::Sem;
pub use crate::supervise::{supervise, Supervised};
pub use crate::thunk::Thunk;
