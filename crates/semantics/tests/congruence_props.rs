//! Property tests for Figure 3's structural-congruence laws (experiment
//! F3) over randomly generated process terms, and structural invariants
//! of the transition rules (F4/F5) over every reachable state.

use std::rc::Rc;

use conch_semantics::congruence::{congruent, to_soup};
use conch_semantics::engine::{ExploreConfig, Lts, Safety, State};
use conch_semantics::process::{Mark, ProcTerm};
use conch_semantics::rules::enabled_transitions;
use conch_semantics::term::build as tb;
use conch_semantics::term::{Exc, MVarName, Term, TidName};
use proptest::prelude::*;

// ------------------------------------------------------------------
// Random process terms
// ------------------------------------------------------------------

/// Small object-language terms to sit inside threads and MVars.
fn term_strategy() -> impl Strategy<Value = Rc<Term>> {
    prop_oneof![
        Just(tb::ret(tb::unit())),
        (0i64..5).prop_map(|n| tb::ret(tb::int(n))),
        prop::char::range('a', 'c').prop_map(|c| tb::put_char(tb::ch(c))),
        (0u32..3).prop_map(|m| tb::take_mvar(tb::mvar(MVarName(m)))),
        (0u32..3).prop_map(|m| tb::put_mvar(tb::mvar(MVarName(m)), tb::unit())),
        (0u32..3).prop_map(|t| tb::throw_to(tb::tid(TidName(t)), tb::exc("E"))),
        Just(tb::block(tb::ret(tb::unit()))),
    ]
}

/// Atoms with names drawn from small, possibly-overlapping pools. To
/// keep processes well-formed (no duplicate names), atoms get distinct
/// name indices by position; ν-binders are layered on top.
fn atom(idx: u32) -> impl Strategy<Value = ProcTerm> {
    term_strategy().prop_flat_map(move |t| {
        prop_oneof![
            Just(ProcTerm::Thread(
                TidName(idx),
                Rc::clone(&t),
                Mark::Runnable
            )),
            Just(ProcTerm::Thread(TidName(idx), Rc::clone(&t), Mark::Stuck)),
            Just(ProcTerm::Dead(TidName(idx))),
            Just(ProcTerm::EmptyMVar(MVarName(idx))),
            Just(ProcTerm::FullMVar(MVarName(idx), Rc::clone(&t))),
            Just(ProcTerm::InFlight(TidName(idx), Exc::new("E"))),
        ]
    })
}

/// A parallel composition of 1–5 distinct atoms, with random tree shape
/// and random ν-binders wrapped around prefixes.
fn proc_strategy() -> impl Strategy<Value = ProcTerm> {
    prop::collection::vec(any::<bool>(), 1..5)
        .prop_flat_map(|shape| {
            let n = shape.len() as u32;
            let atoms: Vec<_> = (0..n).map(atom).collect();
            (atoms, Just(shape))
        })
        .prop_map(|(atoms, shape)| {
            let mut it = atoms.into_iter();
            let mut p = it.next().expect("at least one atom");
            for (a, left) in it.zip(shape) {
                p = if left {
                    ProcTerm::par(a, p)
                } else {
                    ProcTerm::par(p, a)
                };
            }
            p
        })
}

const MAIN: TidName = TidName(0);

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// (Comm): P | Q ≡ Q | P.
    #[test]
    fn comm_law(p in proc_strategy(), q_idx in 100u32..110) {
        let q = ProcTerm::EmptyMVar(MVarName(q_idx));
        let pq = ProcTerm::par(p.clone(), q.clone());
        let qp = ProcTerm::par(q, p);
        prop_assert!(congruent(&pq, &qp, MAIN));
    }

    /// (Assoc): P | (Q | R) ≡ (P | Q) | R.
    #[test]
    fn assoc_law(p in proc_strategy()) {
        let q = ProcTerm::Dead(TidName(200));
        let r = ProcTerm::EmptyMVar(MVarName(201));
        let left = ProcTerm::par(p.clone(), ProcTerm::par(q.clone(), r.clone()));
        let right = ProcTerm::par(ProcTerm::par(p, q), r);
        prop_assert!(congruent(&left, &right, MAIN));
    }

    /// (Extrude): (νm.P) | Q ≡ νm.(P | Q) when m ∉ fn(Q).
    #[test]
    fn extrude_law(p in proc_strategy(), bound in 300u32..310) {
        // Wrap p's MVar name `bound`… p doesn't use it, which is fine:
        // restriction of an unused name is still congruence-relevant.
        let inner = ProcTerm::par(ProcTerm::EmptyMVar(MVarName(bound)), p.clone());
        let q = ProcTerm::Dead(TidName(400));
        let left = ProcTerm::par(
            ProcTerm::NuMVar(MVarName(bound), Box::new(inner.clone())),
            q.clone(),
        );
        let right = ProcTerm::NuMVar(MVarName(bound), Box::new(ProcTerm::par(inner, q)));
        prop_assert!(congruent(&left, &right, MAIN));
    }

    /// (Alpha): renaming a bound name preserves congruence.
    #[test]
    fn alpha_law(p in proc_strategy(), a in 500u32..505, b in 505u32..510) {
        let mk = |name: u32| {
            ProcTerm::NuMVar(
                MVarName(name),
                Box::new(ProcTerm::par(
                    ProcTerm::FullMVar(MVarName(name), tb::ret(tb::unit())),
                    p.clone(),
                )),
            )
        };
        prop_assert!(congruent(&mk(a), &mk(b), MAIN));
    }

    /// Congruence is reflexive and flattening is deterministic.
    #[test]
    fn congruence_reflexive(p in proc_strategy()) {
        prop_assert!(congruent(&p, &p, MAIN));
        prop_assert_eq!(to_soup(&p, MAIN), to_soup(&p, MAIN));
    }

    /// Swapping the two halves of any Par node anywhere in the term
    /// preserves congruence (congruence-closure of Comm).
    #[test]
    fn comm_inside_nu(p in proc_strategy(), bound in 600u32..605) {
        let a = ProcTerm::EmptyMVar(MVarName(bound));
        let left = ProcTerm::NuMVar(
            MVarName(bound),
            Box::new(ProcTerm::par(a.clone(), p.clone())),
        );
        let right = ProcTerm::NuMVar(MVarName(bound), Box::new(ProcTerm::par(p, a)));
        prop_assert!(congruent(&left, &right, MAIN));
    }
}

// ------------------------------------------------------------------
// Structural invariants of the transition system
// ------------------------------------------------------------------

fn program_strategy() -> impl Strategy<Value = Rc<Term>> {
    // Small well-formed closed programs.
    let leaf = prop_oneof![
        Just(tb::ret(tb::unit())),
        prop::char::range('a', 'c').prop_map(|c| tb::put_char(tb::ch(c))),
        Just(tb::throw(tb::exc("E"))),
        Just(tb::get_char()),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| tb::seq(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| tb::catch(a, tb::lam("_e", b))),
            inner.clone().prop_map(tb::block),
            inner.clone().prop_map(tb::unblock),
            inner.clone().prop_map(|a| tb::seq(
                tb::bind(
                    tb::fork(a),
                    tb::lam("t", tb::throw_to(tb::var("t"), tb::exc("K")))
                ),
                tb::ret(tb::unit())
            )),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Every state the LTS reaches is well-formed: every in-flight
    /// exception targets a known thread, and a terminal state ("main is
    /// dead") holds no thread, `MVar` or in-flight exception and enables
    /// no transition. Thread names are unique by construction (BTreeMap).
    #[test]
    fn every_reachable_state_is_wellformed(prog in program_strategy()) {
        let cfg = ExploreConfig::default();
        let lts = Lts::explore(&State::new(prog, "xyz"), &cfg);
        let ill_formed = |s: &State| {
            let soup = &s.soup;
            let dangling = soup.inflight.iter().any(|(target, _)| !soup.threads.contains_key(target));
            let leftover = !soup.threads.is_empty()
                || !soup.mvars.is_empty()
                || !soup.inflight.is_empty()
                || !enabled_transitions(soup, &s.input, &cfg.rules).is_empty();
            dangling || s.is_terminal() && leftover
        };
        match lts.check_safety(ill_formed) {
            Ok(Safety::Safe { .. }) => {}
            Ok(Safety::Violation(d)) => panic!("an ill-formed state is reachable:\n{}", d.render()),
            Err(t) => panic!("the state graph is not complete: {t:?}"),
        }
        prop_assert!(lts.complete().is_ok());
    }
}
