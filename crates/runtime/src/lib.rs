//! # conch-runtime
//!
//! A green-thread runtime for **Concurrent Haskell with asynchronous
//! exceptions**, reproducing the design of Marlow, Peyton Jones, Moran &
//! Reppy, *Asynchronous Exceptions in Haskell* (PLDI 2001) in Rust.
//!
//! The paper's primitives map onto this crate as follows:
//!
//! | Paper | Here |
//! |---|---|
//! | `return` / `>>=` | [`Io::pure`] / [`Io::and_then`] |
//! | `throw` / `catch` | [`Io::throw`] / [`Io::catch`] |
//! | `forkIO` / `myThreadId` | [`Io::fork`] / [`Io::my_thread_id`] |
//! | `newEmptyMVar` / `takeMVar` / `putMVar` | [`Io::new_empty_mvar`] / [`MVar::take`] / [`MVar::put`] |
//! | `throwTo` (§5) | [`Io::throw_to`] |
//! | `block` / `unblock` (§5.2) | [`Io::block`] / [`Io::unblock`] |
//! | interruptible operations (§5.3) | built into `takeMVar`/`putMVar`/`sleep`/`getChar` |
//! | `sleep`, `getChar`, `putChar` | [`Io::sleep`], [`Io::get_char`], [`Io::put_char`] |
//! | synchronous `throwTo` (§9) | [`Io::throw_to_sync`] |
//!
//! Rust has no killable native threads, so the runtime is a deterministic
//! *interpreter*: every `Io` action is data, threads advance one small
//! step at a time, and an asynchronous exception can land at any step
//! boundary — the paper's "any program point". Scheduling is
//! deterministic round-robin unless a [`Decider`] is installed, which
//! is how the schedule explorer (`conch-explore`) enumerates the subtle
//! interleavings of §5 reproducibly.
//!
//! ## Quickstart
//!
//! ```
//! use conch_runtime::prelude::*;
//!
//! // A child thread blocks on an MVar; we interrupt it with throwTo and
//! // observe the exception being handled.
//! let prog = Io::new_empty_mvar::<i64>().and_then(|hole| {
//!     Io::new_empty_mvar::<String>().and_then(move |report| {
//!         let child = hole
//!             .take()
//!             .map(|_| "value".to_owned())
//!             .catch(|e| Io::pure(format!("interrupted: {e}")))
//!             .and_then(move |s| report.put(s));
//!         Io::fork(child).and_then(move |tid| {
//!             Io::sleep(10)
//!                 .then(Io::throw_to(tid, Exception::kill_thread()))
//!                 .then(report.take())
//!         })
//!     })
//! });
//!
//! let mut rt = Runtime::new();
//! assert_eq!(rt.run(prog).unwrap(), "interrupted: KillThread");
//! ```

// `pub` means reachable from another crate: an item used only in here is
// `pub(crate)`, and `dead_code` then names what nothing uses at all.
#![warn(unreachable_pub)]

pub mod config;
mod console;
pub mod decide;
pub mod error;
pub mod exception;
pub mod ids;
pub mod io;
pub mod mvar;
pub mod parallel;
pub mod scheduler;
pub mod stats;
pub mod thread;
pub mod timer;
pub mod trace;
pub mod value;

pub use crate::config::{DeliveryMode, RuntimeConfig};
pub use crate::decide::{Decider, MVarOp, Pick, StepFootprint, ThreadView};
pub use crate::error::RunError;
pub use crate::exception::{ArithError, Exception, ExceptionKind, ExitReason};
pub use crate::ids::{MVarId, ThreadId};
pub use crate::io::Io;
pub use crate::mvar::MVar;
pub use crate::parallel::{
    MultiConfig, MultiReport, MultiRuntime, ShardCtx, ShardProgram, ShardReport,
};
pub use crate::scheduler::Runtime;
pub use crate::stats::Stats;
pub use crate::thread::{MaskState, RaiseOrigin};
pub use crate::timer::{TimerEntry, TimerWheel};
pub use crate::trace::{BlockSite, IoEvent};
pub use crate::value::{FromValue, IntoValue, Value};

/// The most commonly used names, for glob import.
pub mod prelude {
    pub use crate::config::{DeliveryMode, RuntimeConfig};
    pub use crate::decide::{Decider, Pick, StepFootprint, ThreadView};
    pub use crate::error::RunError;
    pub use crate::exception::{Exception, ExceptionKind, ExitReason};
    pub use crate::host_value;
    pub use crate::ids::ThreadId;
    pub use crate::io::Io;
    pub use crate::mvar::MVar;
    pub use crate::scheduler::Runtime;
    pub use crate::thread::RaiseOrigin;
    pub use crate::value::{FromValue, IntoValue, Value};
}
