//! The paper's example programs, as reusable term builders.
//!
//! These are the worked examples of §5.1–§5.3 transcribed into the object
//! language, used by the unit tests, the model-checking integration tests
//! (experiment E1), the semantics benchmarks, and the
//! `semantics_explorer` example binary.

use std::rc::Rc;

use crate::term::build::*;
use crate::term::Term;

/// The §5.1 *naive* locking pattern, unsafe under asynchronous exceptions:
///
/// ```haskell
/// do a <- takeMVar m
///    b <- catch (compute a) (\e -> do putMVar m a; throw e)
///    putMVar m b
/// ```
///
/// `compute` is `\a -> return (a + 1)` preceded by `steps` dummy bind
/// steps, giving the scheduler room to deliver an exception in the
/// vulnerable windows.
pub fn naive_lock_update(m: Rc<Term>, steps: u32) -> Rc<Term> {
    bind(
        take_mvar(m.clone()),
        lam(
            "a",
            bind(
                catch(
                    compute_then_return(var("a"), steps),
                    lam("e", seq(put_mvar(m.clone(), var("a")), throw(var("e")))),
                ),
                lam("b", put_mvar(m, var("b"))),
            ),
        ),
    )
}

/// The §5.2/§5.3 *safe* locking pattern:
///
/// ```haskell
/// block (do a <- takeMVar m
///           b <- catch (unblock (compute a)) (\e -> do putMVar m a; throw e)
///           putMVar m b)
/// ```
pub fn safe_lock_update(m: Rc<Term>, steps: u32) -> Rc<Term> {
    block(bind(
        take_mvar(m.clone()),
        lam(
            "a",
            bind(
                catch(
                    unblock(compute_then_return(var("a"), steps)),
                    lam("e", seq(put_mvar(m.clone(), var("a")), throw(var("e")))),
                ),
                lam("b", put_mvar(m, var("b"))),
            ),
        ),
    ))
}

/// `compute a`: `steps` no-op monadic binds, then `return (a + 1)` —
/// enough transitions for an asynchronous exception to land mid-compute.
pub fn compute_then_return(a: Rc<Term>, steps: u32) -> Rc<Term> {
    let mut t = ret(add(a, int(1)));
    for _ in 0..steps {
        t = seq(ret(unit()), t);
    }
    t
}

/// The full E1 scenario: a fresh `MVar` holding `0`, a worker running the
/// given locking body, and a killer thread. The *bad* states are those
/// where every thread is done or stuck and the `MVar` is empty — the lock
/// was lost.
///
/// ```haskell
/// do m <- newMVar 0            -- modelled as newEmptyMVar + putMVar
///    w <- forkIO (catch lockBody (\e -> return ()))
///    throwTo w KillThread
///    takeMVar m                 -- deadlocks iff the lock was lost
/// ```
pub fn lock_scenario(body: impl FnOnce(Rc<Term>) -> Rc<Term>) -> Rc<Term> {
    bind(
        new_empty_mvar(),
        lam("m", {
            let worker = catch(body(var("m")), lam("_e", ret(unit())));
            seq(
                put_mvar(var("m"), int(0)),
                bind(
                    fork(worker),
                    lam(
                        "w",
                        seq(
                            throw_to(var("w"), exc("KillThread")),
                            bind(take_mvar(var("m")), lam("v", ret(var("v")))),
                        ),
                    ),
                ),
            )
        }),
    )
}

/// `do { c <- getChar; putChar c }` — the paper's §3 example.
pub fn echo() -> Rc<Term> {
    bind(get_char(), lam("c", put_char(var("c"))))
}

/// The §7.4 safe point: `unblock (return ())`.
pub fn safe_point() -> Rc<Term> {
    unblock(ret(unit()))
}

/// A masked worker with an explicit safe point between two critical
/// sections — the §7.4 pattern.
pub fn masked_with_safe_point() -> Rc<Term> {
    block(seq(put_char(ch('1')), seq(safe_point(), put_char(ch('2')))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ExploreConfig, Lts, Obs, Safety, State};
    use crate::rules::RuleName;

    fn lts(prog: Rc<Term>, input: &str) -> Lts {
        Lts::explore(&State::new(prog, input), &ExploreConfig::default())
    }

    #[test]
    fn echo_echoes() {
        let g = lts(echo(), "k");
        assert_eq!(
            g.admits_trace(&[Obs::Get('k'), Obs::Put('k')], true),
            Ok(true)
        );
    }

    #[test]
    fn naive_locking_race_is_reachable() {
        // E1 (counterexample half): with the naive pattern, the model
        // checker finds an interleaving that loses the lock (main
        // deadlocks on takeMVar).
        let cfg = ExploreConfig::default();
        let g = lts(lock_scenario(|m| naive_lock_update(m, 2)), "");
        match g.check_safety(|s| s.is_deadlocked(&cfg.rules)) {
            Ok(Safety::Violation(d)) => {
                // The counterexample must involve an asynchronous delivery.
                let rules = d.rules();
                assert!(
                    rules.contains(&RuleName::Receive) || rules.contains(&RuleName::Interrupt),
                    "counterexample without async delivery: {rules:?}"
                );
            }
            other => panic!("naive locking must be racy — the paper's whole point: {other:?}"),
        }
    }

    #[test]
    fn safe_locking_has_no_reachable_deadlock() {
        // E1 (safety half): the block/unblock pattern closes every window.
        let cfg = ExploreConfig::default();
        let g = lts(lock_scenario(|m| safe_lock_update(m, 2)), "");
        match g.check_safety(|s| s.is_deadlocked(&cfg.rules)) {
            Ok(Safety::Safe { .. }) => {}
            Ok(Safety::Violation(d)) => panic!("safe locking deadlocked:\n{}", d.render()),
            Err(e) => panic!("{e}"),
        }
    }

    #[test]
    fn safe_point_opens_exactly_one_window() {
        // masked_with_safe_point: '1' is protected; the safe point lets a
        // pending kill fire before '2'.
        let prog = bind(
            fork(masked_with_safe_point()),
            lam("t", seq(throw_to(var("t"), exc("K")), take_forever())),
        );
        fn take_forever() -> Rc<Term> {
            // Block main forever so (Proc GC) cannot reap the child.
            bind(new_empty_mvar(), lam("mm", take_mvar(var("mm"))))
        }
        let g = lts(prog, "");
        // '1' then killed at the safe point: !1 with no !2, main stuck =
        // deadlocked state where output ended at 1. Check reachability of
        // a state where the child is dead: via safety search on "child
        // dead and only '1' printed" — we approximate with trace checks:
        // both !1 (killed at safe point, then child dead) and !1!2
        // (survived) are admissible prefixes.
        assert_eq!(g.admits_trace(&[Obs::Put('1')], false), Ok(true));
        assert_eq!(
            g.admits_trace(&[Obs::Put('1'), Obs::Put('2')], false),
            Ok(true)
        );
    }
}
