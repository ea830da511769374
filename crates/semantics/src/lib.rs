//! # conch-semantics
//!
//! An executable transcription of the operational semantics of
//! *Asynchronous Exceptions in Haskell* (PLDI 2001), §6 — the paper's
//! central formal contribution and, per the paper, the first formal
//! account of a fully-asynchronous signalling mechanism.
//!
//! | Paper artifact | Module |
//! |---|---|
//! | Figure 1 — syntax of values and terms | [`term`] |
//! | Figure 2 — program states | [`process`] |
//! | Figure 3 — structural congruence | [`congruence`] |
//! | §6.2 inner semantics (`M ⇓ V`, `M ⇓ e`) | [`eval`] |
//! | §6.2/§6.3 evaluation contexts `Ê`/`E` | [`context`] |
//! | Figures 4 & 5 — transition rules | [`rules`] |
//! | exploration, model checking, conformance | [`engine`] |
//! | the paper's worked examples (§5.1 etc.) | [`programs`] |
//!
//! The transition system is *enumerable*: [`rules::enabled_transitions`]
//! returns every rule instance a state admits, so the [`engine`] can
//! model-check safety properties (finding, e.g., the §5.1 locking race as
//! a concrete counterexample trace) and decide whether an I/O trace
//! observed from the `conch-runtime` interpreter is admitted by the
//! formal semantics.
//!
//! ## Example: model-checking the §5.1 race
//!
//! ```
//! use conch_semantics::engine::{check_safety, CheckResult, ExploreConfig, State};
//! use conch_semantics::programs::{lock_scenario, naive_lock_update};
//!
//! let prog = lock_scenario(|m| naive_lock_update(m, 1));
//! let cfg = ExploreConfig::default();
//! let result = check_safety(&State::new(prog, ""), &cfg, |s| {
//!     s.is_deadlocked(&cfg.rules)
//! });
//! assert!(matches!(result, CheckResult::Violation { .. })); // the race!
//! ```

pub mod congruence;
pub mod context;
pub mod derivation;
pub mod engine;
pub mod equiv;
pub mod eval;
pub mod process;
pub mod programs;
pub mod rules;
pub mod term;

pub use crate::derivation::{derive, derive_first, derive_random, DerivStep, Derivation};
pub use crate::engine::{admits_trace, check_safety, CheckResult, ExploreConfig, Obs, State};
pub use crate::equiv::{trace_equivalent, trace_set, Truncated, TruncationLimit};
pub use crate::process::{Mark, ProcTerm, Soup};
pub use crate::rules::{enabled_transitions, Label, RuleConfig, RuleName, Transition};
pub use crate::term::{Exc, MVarName, Term, TidName};
