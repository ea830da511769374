//! # conch-explore
//!
//! Bounded schedule exploration ("model checking", in the style of loom
//! and shuttle) for [`conch-runtime`](conch_runtime), the Rust
//! reproduction of *Asynchronous Exceptions in Haskell* (Marlow, Peyton
//! Jones, Moran & Reppy, PLDI 2001).
//!
//! The paper's semantics (Figures 4 and 5) is nondeterministic in
//! exactly two places:
//!
//! 1. **Which thread steps next** — the soup evaluation context picks an
//!    arbitrary runnable thread.
//! 2. **When a pending asynchronous exception lands** — the (Receive)
//!    rule may fire at any step boundary of an unmasked thread.
//!
//! This crate enumerates those choices systematically. An [`Explorer`]
//! installs a scripted [`Decider`](conch_runtime::decide::Decider) into
//! a deterministic [`Runtime`](conch_runtime::scheduler::Runtime) — one
//! per worker, reset to pristine before every schedule — and walks the
//! choice tree depth-first, subject to
//! bounds (schedule count, branch-point depth, step budget — see
//! [`ExploreConfig`]; sleep sets also take a preemption budget, see
//! [`Reduction`]). Sleep-set pruning skips
//! interleavings that only reorder *independent* steps (different
//! `MVar`s, disjoint effects — see
//! [`StepFootprint`](conch_runtime::decide::StepFootprint)), so the
//! count in the final [`Report`] reflects distinct behaviours, not raw
//! permutations.
//!
//! Every execution is summarized by a [`Schedule`] — the exact list of
//! choices taken — which works as a *failure certificate*: it replays
//! byte-for-byte in a new `Runtime` ([`Explorer::replay`]), serializes
//! to a compact text form (`t1.d-.t0`), and is automatically shrunk to
//! a minimal failing schedule when a property fails.
//!
//! Because an execution is a pure function of its schedule, the search
//! is embarrassingly parallel: [`Explorer::check_parallel`] fans the
//! same DFS out over OS threads with prefix-based work stealing, with
//! coverage counts and certificates bit-identical to the sequential
//! search for any worker count (see `DESIGN.md` for the argument).
//!
//! When the space is too large to enumerate, a sampling [`Strategy`]
//! (PCT priority sampling — see [`Strategy::Pct`]) draws seeded
//! schedules through the same driver
//! instead: every sampled failure yields the same replayable,
//! shrinkable certificate, and reports stay bit-identical across
//! worker counts.
//!
//! ```
//! use conch_explore::{Explorer, TestCase, RunOutcome};
//! use conch_runtime::prelude::*;
//!
//! // Race: does the child's 'b' or the main thread's 'a' print first?
//! let result = Explorer::new().check(|| {
//!     TestCase::new(
//!         Io::fork(Io::put_char('b')).then(Io::put_char('a')).then(Io::sleep(1)),
//!         |out: &RunOutcome<()>| {
//!             if out.output == "ba" {
//!                 Err("child won the race".into())
//!             } else {
//!                 Ok(())
//!             }
//!         },
//!     )
//! });
//! let failure = result.expect_fail();
//! // The minimal certificate replays deterministically:
//! let (outcome, _) = Explorer::new().replay(
//!     TestCase::new(
//!         Io::fork(Io::put_char('b')).then(Io::put_char('a')).then(Io::sleep(1)),
//!         |_: &RunOutcome<()>| Ok(()),
//!     ),
//!     &failure.schedule,
//! );
//! assert_eq!(outcome.output, "ba");
//! ```

// `pub` means reachable from another crate: an item used only in here is
// `pub(crate)`, and `dead_code` then names what nothing uses at all.
#![warn(unreachable_pub)]

mod clocks;
mod dfs;
mod dpor;
mod driver;
pub mod explorer;
mod frontier;
mod inline;
pub mod props;
mod rng;
mod sample;
pub mod schedule;
mod worker;

pub use crate::explorer::{
    CheckResult, ExploreConfig, Explorer, Failure, Reduction, Report, RunOutcome, Strategy,
    TestCase, Timing,
};
pub use crate::schedule::{Choice, ParseScheduleError, Schedule};
