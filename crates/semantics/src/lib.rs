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
//! | the state graph: model checking, trace admission, trace sets | [`engine`] |
//! | single runs, rendered rule by rule | [`derivation`] |
//! | trace equivalence and its laws | [`equiv`] |
//! | the paper's worked examples (§5.1 etc.) | [`programs`] |
//!
//! The transition system is *enumerable*: [`rules::enabled_transitions`]
//! returns every rule instance a state admits, so [`Lts::explore`] can
//! build a program's whole reachable state graph once and answer every
//! question on it: model-check safety properties (finding, e.g., the §5.1
//! locking race as a concrete counterexample derivation), decide whether
//! an I/O trace observed from the `conch-runtime` interpreter is admitted
//! by the formal semantics, and enumerate the outcomes that
//! [`equiv::trace_equivalent`] compares.
//!
//! ## Example: model-checking the §5.1 race
//!
//! ```
//! use conch_semantics::engine::{ExploreConfig, Lts, Safety, State};
//! use conch_semantics::programs::{lock_scenario, naive_lock_update};
//!
//! let prog = lock_scenario(|m| naive_lock_update(m, 1));
//! let cfg = ExploreConfig::default();
//! let lts = Lts::explore(&State::new(prog, ""), &cfg);
//! let result = lts.check_safety(|s| s.is_deadlocked(&cfg.rules));
//! assert!(matches!(result, Ok(Safety::Violation(_)))); // the race!
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

pub use crate::derivation::{derive, derive_first, DerivStep, Derivation};
pub use crate::engine::{ExploreConfig, Lts, Obs, Safety, State, Truncated};
pub use crate::equiv::trace_equivalent;
pub use crate::process::{Mark, ProcTerm, Soup};
pub use crate::rules::{enabled_transitions, Label, RuleConfig, RuleName, Transition};
pub use crate::term::{Exc, MVarName, Term, TidName};
