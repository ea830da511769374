//! Observational equivalence — the paper's "simple equational theory".
//!
//! §11: "We hope to be able to formulate proofs, using this semantics,
//! that simple combinators built using these primitives have the
//! properties that we expect. We believe that there are two useful
//! theories … a simple equational theory, and a more subtle theory based
//! on a commitment ordering."
//!
//! This module mechanizes the first theory for *finite-state* programs:
//! two programs are **trace-equivalent** when the sets of observable
//! I/O traces of their complete runs coincide ([`trace_equivalent`]),
//! computed by exhaustive enumeration of the transition system. The
//! tests use it to verify the laws one expects of the combinators —
//! mask idempotence (§5.2 "there is no counting of scopes"), the monad
//! laws, the `catch`/`throw` algebra — as theorems about the *semantics*
//! rather than spot checks of the implementation.

use crate::engine::{ExploreConfig, Lts, Obs, State, Truncated};

/// How a maximal run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EndState {
    /// The main thread finished (normally or by an uncaught exception).
    Done,
    /// No transition was enabled but the main thread is still alive —
    /// the program wedged (deadlock).
    Wedged,
}

/// An observable outcome: the I/O trace of a maximal run plus how the
/// run ended. Including [`EndState::Wedged`] outcomes makes the theory
/// fine enough to distinguish, e.g., a masked critical section from an
/// unmasked one under a concurrent killer (the unmasked one admits a
/// wedged outcome the masked one forbids).
pub type Outcome = (Vec<Obs>, EndState);

/// Decides bounded observational (trace) equivalence of two programs by
/// comparing the [`Lts::trace_set`]s of their state graphs.
///
/// Returns `Err(Truncated)` when either side's exploration exceeded the
/// bounds — never a verdict over an incomplete set.
pub fn trace_equivalent(a: &State, b: &State, config: &ExploreConfig) -> Result<bool, Truncated> {
    Ok(Lts::explore(a, config).trace_set()? == Lts::explore(b, config).trace_set()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::build::*;
    use crate::term::Term;
    use std::rc::Rc;

    fn equiv(a: Rc<Term>, b: Rc<Term>) -> bool {
        let cfg = ExploreConfig::default();
        trace_equivalent(&State::new(a, "xy"), &State::new(b, "xy"), &cfg)
            .expect("programs must be finite-state within bounds")
    }

    /// A small observable computation to plug into laws.
    fn obs(c: char) -> Rc<Term> {
        put_char(ch(c))
    }

    #[test]
    fn mask_idempotence_block() {
        // §5.2: "two nested blocks behave the same as a single block".
        let m = seq(obs('a'), obs('b'));
        assert!(equiv(block(block(m.clone())), block(m)));
    }

    #[test]
    fn mask_idempotence_unblock() {
        let m = seq(obs('a'), obs('b'));
        assert!(equiv(unblock(unblock(m.clone())), unblock(m)));
    }

    #[test]
    fn innermost_mask_wins_law() {
        // block (unblock M) ≡ unblock M when nothing observes the outer
        // state afterwards (M is the whole program).
        let m = seq(obs('a'), obs('b'));
        assert!(equiv(block(unblock(m.clone())), unblock(m)));
    }

    #[test]
    fn monad_left_identity() {
        // return x >>= f ≡ f x.
        let f = lam("x", put_char(var("x")));
        let lhs = bind(ret(ch('q')), f.clone());
        let rhs = app(f, ch('q'));
        assert!(equiv(lhs, rhs));
    }

    #[test]
    fn monad_right_identity() {
        // m >>= return ≡ m  (with return as the η-expanded \x -> return x).
        let m = seq(obs('a'), get_char());
        let lhs = bind(m.clone(), lam("x", ret(var("x"))));
        assert!(equiv(lhs, m));
    }

    #[test]
    fn monad_associativity() {
        // (m >>= f) >>= g ≡ m >>= (\x -> f x >>= g).
        let m = get_char();
        let f = lam("x", put_char(var("x")));
        let g = lam("_y", put_char(ch('!')));
        let lhs = bind(bind(m.clone(), f.clone()), g.clone());
        let rhs = bind(m, lam("x", bind(app(f, var("x")), g)));
        assert!(equiv(lhs, rhs));
    }

    #[test]
    fn throw_annihilates_continuations() {
        // throw e >>= k ≡ throw e.
        let lhs = bind(throw(exc("E")), lam("_x", obs('a')));
        let rhs = throw(exc("E"));
        assert!(equiv(lhs, rhs));
    }

    #[test]
    fn catch_of_return_is_identity() {
        // catch (return v) H ≡ return v.
        let lhs = catch(ret(int(3)), lam("_e", obs('h')));
        let rhs = ret(int(3));
        assert!(equiv(lhs, rhs));
    }

    #[test]
    fn catch_of_throw_applies_handler() {
        // catch (throw e) H ≡ H e.
        let h = lam("_e", obs('h'));
        let lhs = catch(throw(exc("E")), h.clone());
        let rhs = app(h, exc("E"));
        assert!(equiv(lhs, rhs));
    }

    #[test]
    fn catch_distributes_over_completed_prefix() {
        // putChar a ; catch (throw e) H ≡ catch (putChar a ; throw e) H —
        // true here because the prefix cannot raise.
        let h = lam("_e", obs('h'));
        let lhs = seq(obs('a'), catch(throw(exc("E")), h.clone()));
        let rhs = catch(seq(obs('a'), throw(exc("E"))), h);
        assert!(equiv(lhs, rhs));
    }

    #[test]
    fn masking_forbids_the_split_wedge() {
        // Sharper witness: main waits for the child via an MVar. The
        // unmasked child can be killed between its puts, wedging main —
        // an outcome (["x"], Wedged) the masked child provably forbids.
        let victim = |protected: bool| {
            let core = seq(obs('x'), seq(obs('y'), put_mvar(var("m"), unit())));
            let child = if protected { block(core) } else { core };
            bind(
                new_empty_mvar(),
                lam(
                    "m",
                    bind(
                        fork(child),
                        lam("t", seq(throw_to(var("t"), exc("K")), take_mvar(var("m")))),
                    ),
                ),
            )
        };
        let cfg = ExploreConfig::default();
        let outcomes = |protected| {
            Lts::explore(&State::new(victim(protected), ""), &cfg)
                .trace_set()
                .unwrap()
        };
        let (masked, unmasked) = (outcomes(true), outcomes(false));
        let split_wedge: Outcome = (vec![Obs::Put('x')], EndState::Wedged);
        assert!(unmasked.contains(&split_wedge), "{unmasked:?}");
        assert!(!masked.contains(&split_wedge), "{masked:?}");
        // The masked child always completes: the only outcome is the
        // full trace, terminated.
        assert_eq!(
            masked.into_iter().collect::<Vec<_>>(),
            vec![(vec![Obs::Put('x'), Obs::Put('y')], EndState::Done)]
        );
    }

    #[test]
    fn sequencing_order_is_observable() {
        // Non-law sanity: putChar a; putChar b ≢ putChar b; putChar a.
        assert!(!equiv(seq(obs('a'), obs('b')), seq(obs('b'), obs('a'))));
    }

    #[test]
    fn trace_set_reports_truncation() {
        // An infinite loop exhausts the budget: a Truncated error, not a
        // wrong answer.
        let omega = || {
            // let rec loop u = putChar 'l' >> loop u — Y with an explicit
            // unit argument so `rec` is always a function.
            let y = lam(
                "f",
                app(
                    lam("x", app(var("f"), app(var("x"), var("x")))),
                    lam("x", app(var("f"), app(var("x"), var("x")))),
                ),
            );
            app(
                app(
                    y,
                    lam(
                        "rec",
                        lam("u", seq(put_char(ch('l')), app(var("rec"), unit()))),
                    ),
                ),
                unit(),
            )
        };
        let cfg = ExploreConfig {
            max_states: 2_000,
            ..ExploreConfig::default()
        };
        let err = Lts::explore(&State::new(omega(), ""), &cfg)
            .trace_set()
            .expect_err("an infinite loop cannot have a complete trace set");
        assert_eq!(err.max_states, 2_000, "{err}");
        // And the verdict-level API refuses too, rather than comparing
        // incomplete sets.
        trace_equivalent(&State::new(omega(), ""), &State::new(omega(), ""), &cfg)
            .expect_err("equivalence over truncated sets must not produce a verdict");
    }
}
