//! Experiment C1: conformance of the runtime (§8's implementation) to the
//! formal semantics (§6's transition system).
//!
//! A common first-order program DSL compiles both to `conch-runtime`
//! `Io` actions and to `conch-semantics` terms. Each program is executed
//! on the runtime under every schedule the explorer enumerates — every
//! thread choice and every delivery point; every observable I/O trace
//! the runtime produces must be admitted by the formal labelled
//! transition system: one [`Lts`] per program, every trace checked
//! against it with [`Lts::admits_trace`].
//!
//! The runtime is configured with `fork_inherits_mask(false)` to match
//! the paper's (Fork) rule exactly (see DESIGN.md).

use conch_explore::{Explorer, RunOutcome, TestCase};
use conch_runtime::io::Io;
use conch_runtime::mvar::MVar;
use conch_runtime::prelude::*;
use conch_runtime::trace::IoEvent;
use conch_runtime::value::Value;
use conch_semantics::engine::{ExploreConfig, Lts, Obs, State};
use conch_semantics::equiv::{EndState, Outcome};
use conch_semantics::term::build as tb;
use conch_semantics::term::Term;
use conch_semantics::RuleConfig;
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// The bridged program language. First-order and value-free (only unit
/// and characters flow), so that compilation to both targets is direct.
#[derive(Debug, Clone)]
enum Prog {
    /// `return ()`.
    Skip,
    /// `putChar c`.
    Put(char),
    /// `getChar >>= putChar`.
    Echo,
    /// `throw e`.
    Throw(u8),
    /// Sequential composition.
    Seq(Box<Prog>, Box<Prog>),
    /// `catch body (\_ -> handler)`.
    Catch(Box<Prog>, Box<Prog>),
    /// `block body`.
    Block(Box<Prog>),
    /// `unblock body`.
    Unblock(Box<Prog>),
    /// `forkIO child` (the child's tid is pushed on the fork stack).
    Fork(Box<Prog>),
    /// `throwTo <most recently forked tid> e`; no-op if none.
    ThrowToLast(u8),
    /// `takeMVar m_i` (blocking; result discarded).
    Take(u8),
    /// `putMVar m_i ()` (blocking when full).
    PutM(u8),
    /// `sleep d` for a tiny d — exercises the `$d` labels, which the
    /// conformance projection treats as internal.
    Nap(u8),
}

const MVAR_SLOTS: u8 = 2;

fn exc_name(i: u8) -> String {
    format!("E{i}")
}

// --------------------------------------------------------------------
// Compilation to the runtime
// --------------------------------------------------------------------

type RtEnv = Vec<ThreadId>;
type RtKont = Box<dyn FnOnce(RtEnv) -> Io<()>>;

fn to_io(p: Prog, mvars: Rc<Vec<MVar<Value>>>, env: RtEnv, k: RtKont) -> Io<()> {
    match p {
        Prog::Skip => k(env),
        Prog::Put(c) => Io::put_char(c).and_then(move |_| k(env)),
        Prog::Echo => Io::get_char().and_then(move |c| Io::put_char(c).and_then(move |_| k(env))),
        Prog::Throw(e) => Io::throw(Exception::custom(exc_name(e))),
        Prog::Seq(a, b) => {
            let mv = Rc::clone(&mvars);
            to_io(*a, mvars, env, Box::new(move |env| to_io(*b, mv, env, k)))
        }
        Prog::Catch(body, handler) => {
            let body_io = to_io(
                *body,
                Rc::clone(&mvars),
                env.clone(),
                Box::new(|_| Io::unit()),
            );
            let henv = env.clone();
            let hm = Rc::clone(&mvars);
            body_io
                .catch(move |_| to_io(*handler, hm, henv, Box::new(|_| Io::unit())))
                .and_then(move |_| k(env))
        }
        Prog::Block(b) => {
            let inner = to_io(*b, Rc::clone(&mvars), env.clone(), Box::new(|_| Io::unit()));
            Io::<()>::block(inner).and_then(move |_| k(env))
        }
        Prog::Unblock(b) => {
            let inner = to_io(*b, Rc::clone(&mvars), env.clone(), Box::new(|_| Io::unit()));
            Io::<()>::unblock(inner).and_then(move |_| k(env))
        }
        Prog::Fork(child) => {
            let child_io = to_io(
                *child,
                Rc::clone(&mvars),
                env.clone(),
                Box::new(|_| Io::unit()),
            );
            Io::fork(child_io).and_then(move |t| {
                let mut env = env;
                env.push(t);
                k(env)
            })
        }
        Prog::ThrowToLast(e) => match env.last().copied() {
            None => k(env),
            Some(t) => Io::throw_to(t, Exception::custom(exc_name(e))).and_then(move |_| k(env)),
        },
        Prog::Take(i) => mvars[usize::from(i % MVAR_SLOTS)]
            .take()
            .and_then(move |_| k(env)),
        Prog::PutM(i) => mvars[usize::from(i % MVAR_SLOTS)]
            .put(Value::Unit)
            .and_then(move |_| k(env)),
        Prog::Nap(d) => Io::sleep(u64::from(d % 4)).and_then(move |_| k(env)),
    }
}

fn runtime_program(p: Prog) -> Io<()> {
    // Prelude: allocate the MVar slots, then run the compiled body.
    Io::new_empty_mvar::<Value>().and_then(move |m0| {
        Io::new_empty_mvar::<Value>().and_then(move |m1| {
            let mvars = Rc::new(vec![m0, m1]);
            to_io(p, mvars, Vec::new(), Box::new(|_| Io::unit()))
        })
    })
}

// --------------------------------------------------------------------
// Compilation to the semantics
// --------------------------------------------------------------------

#[derive(Clone)]
struct TmCtx {
    tid_vars: Vec<String>,
    fresh: u32,
}

type TmKont = Box<dyn FnOnce(TmCtx) -> Rc<Term>>;

fn mvar_var(i: u8) -> Rc<Term> {
    tb::var(&format!("mv{}", i % MVAR_SLOTS))
}

fn to_term(p: Prog, mut ctx: TmCtx, k: TmKont) -> Rc<Term> {
    match p {
        Prog::Skip => k(ctx),
        Prog::Put(c) => tb::seq(tb::put_char(tb::ch(c)), k(ctx)),
        Prog::Echo => tb::bind(
            tb::get_char(),
            tb::lam("c", tb::seq(tb::put_char(tb::var("c")), k(ctx))),
        ),
        Prog::Throw(e) => tb::throw(tb::exc(&exc_name(e))),
        Prog::Seq(a, b) => to_term(*a, ctx, Box::new(move |ctx| to_term(*b, ctx, k))),
        Prog::Catch(body, handler) => {
            let hctx = ctx.clone();
            let body_t = to_term(*body, ctx.clone(), Box::new(|_| tb::ret(tb::unit())));
            let handler_t = to_term(*handler, hctx, Box::new(|_| tb::ret(tb::unit())));
            tb::seq(tb::catch(body_t, tb::lam("_exc", handler_t)), k(ctx))
        }
        Prog::Block(b) => {
            let inner = to_term(*b, ctx.clone(), Box::new(|_| tb::ret(tb::unit())));
            tb::seq(tb::block(inner), k(ctx))
        }
        Prog::Unblock(b) => {
            let inner = to_term(*b, ctx.clone(), Box::new(|_| tb::ret(tb::unit())));
            tb::seq(tb::unblock(inner), k(ctx))
        }
        Prog::Fork(child) => {
            let child_t = to_term(*child, ctx.clone(), Box::new(|_| tb::ret(tb::unit())));
            let tvar = format!("tid{}", ctx.fresh);
            ctx.fresh += 1;
            ctx.tid_vars.push(tvar.clone());
            tb::bind(tb::fork(child_t), tb::lam(&tvar, k(ctx)))
        }
        Prog::ThrowToLast(e) => match ctx.tid_vars.last().cloned() {
            None => k(ctx),
            Some(t) => tb::seq(tb::throw_to(tb::var(&t), tb::exc(&exc_name(e))), k(ctx)),
        },
        Prog::Take(i) => tb::bind(tb::take_mvar(mvar_var(i)), tb::lam("_tk", k(ctx))),
        Prog::PutM(i) => tb::seq(tb::put_mvar(mvar_var(i), tb::unit()), k(ctx)),
        Prog::Nap(d) => tb::seq(tb::sleep(tb::int(i64::from(d % 4))), k(ctx)),
    }
}

fn semantics_program(p: Prog) -> Rc<Term> {
    let body = to_term(
        p,
        TmCtx {
            tid_vars: Vec::new(),
            fresh: 0,
        },
        Box::new(|_| tb::ret(tb::unit())),
    );
    // Prelude mirrors runtime_program's MVar allocation.
    tb::bind(
        tb::new_empty_mvar(),
        tb::lam("mv0", tb::bind(tb::new_empty_mvar(), tb::lam("mv1", body))),
    )
}

// --------------------------------------------------------------------
// The conformance check itself
// --------------------------------------------------------------------

fn observed(events: &[IoEvent]) -> Vec<Obs> {
    events
        .iter()
        .filter_map(|e| match e {
            IoEvent::Put(c) => Some(Obs::Put(*c)),
            IoEvent::Get(c) => Some(Obs::Get(*c)),
            // Clock advances and scheduler-visible events (fork, throwTo,
            // mask transitions, blocking) are not part of the paper's
            // observable alphabet.
            _ => None,
        })
        .collect()
}

/// The program's Figure 1–5 state graph, at the default budget.
fn semantics_graph(prog: &Prog, input: &str) -> Lts {
    let init = State::new(semantics_program(prog.clone()), input);
    Lts::explore(&init, &ExploreConfig::default())
}

/// Runs `prog` on the runtime under every schedule and delivery point
/// (sleep sets, unbounded, at the default depth); asserts the search
/// complete and every observed trace admitted by the LTS. `Prog` has no
/// loops or recursion, so every interleaving ends: the default budget
/// must hold the program's whole graph and trace set. Returns the
/// schedules explored and the distinct runtime outcomes — trace and
/// end state, comparable with [`Lts::trace_set`].
fn assert_conformance(prog: &Prog, input: &str) -> (usize, usize) {
    let lts = Rc::new(semantics_graph(prog, input));
    assert_eq!(lts.complete(), Ok(()), "{prog:?}");
    assert!(lts.trace_set().is_ok(), "{prog:?}");
    let outcomes: Rc<RefCell<BTreeSet<Outcome>>> = Rc::default();
    let explorer = Explorer::with_config(conch_explore::ExploreConfig {
        runtime: RuntimeConfig::new().fork_inherits_mask(false),
        ..conch_explore::ExploreConfig::default()
    });
    let result = explorer.check(|| {
        let (lts, outcomes) = (Rc::clone(&lts), Rc::clone(&outcomes));
        TestCase::new(runtime_program(prog.clone()), move |out: &RunOutcome<()>| {
            let trace = observed(out.trace());
            // Terminated: the full trace must be a complete LTS run.
            // Wedged or truncated: the trace must be an admissible prefix.
            let terminated = matches!(out.result, Ok(()) | Err(RunError::Uncaught(_)));
            let admitted = lts.admits_trace(&trace, terminated);
            let end = if terminated {
                EndState::Done
            } else {
                EndState::Wedged
            };
            outcomes.borrow_mut().insert((trace.clone(), end));
            match admitted {
                Ok(true) => Ok(()),
                other => Err(format!(
                    "runtime trace {trace:?} not admitted ({end:?}): {other:?}"
                )),
            }
        })
        .input(input)
    });
    let report = result.expect_pass();
    assert!(report.complete, "{prog:?}: {report}");
    let distinct = outcomes.borrow().len();
    (report.explored, distinct)
}

// Convenience constructors.
fn sq(a: Prog, b: Prog) -> Prog {
    Prog::Seq(Box::new(a), Box::new(b))
}
fn sq3(a: Prog, b: Prog, c: Prog) -> Prog {
    sq(a, sq(b, c))
}

/// C1's curated scenarios, each named after the test that runs it: the
/// program and its scripted input.
fn scenario(name: &str) -> (Prog, &'static str) {
    match name {
        "put_sequence" => (sq3(Prog::Put('a'), Prog::Put('b'), Prog::Put('c')), ""),
        "echo_conforms" => (sq(Prog::Echo, Prog::Echo), "xy"),
        "throw_and_catch" => (
            sq(
                Prog::Catch(
                    Box::new(sq(Prog::Put('a'), Prog::Throw(0))),
                    Box::new(Prog::Put('h')),
                ),
                Prog::Put('z'),
            ),
            "",
        ),
        "uncaught_throw" => (sq(Prog::Put('a'), Prog::Throw(1)), ""),
        "forked_puts_interleave" => (
            sq(
                Prog::Fork(Box::new(sq(Prog::Put('a'), Prog::Put('b')))),
                sq(Prog::Put('x'), Prog::Put('y')),
            ),
            "",
        ),
        // Child puts; main takes then prints.
        "mvar_rendezvous" => (
            sq(
                Prog::Fork(Box::new(sq(Prog::Put('c'), Prog::PutM(0)))),
                sq(Prog::Take(0), Prog::Put('m')),
            ),
            "",
        ),
        "deadlocked_take_is_an_admissible_prefix" => (sq(Prog::Put('a'), Prog::Take(0)), ""),
        // Fork a printer, kill it: every interleaving the runtime picks
        // must be admitted (killed before 'a', between 'a' and 'b', after
        // both, or reaped by Proc GC).
        "kill_between_puts" => (
            sq3(
                Prog::Fork(Box::new(sq(Prog::Put('a'), Prog::Put('b')))),
                Prog::ThrowToLast(0),
                Prog::Put('z'),
            ),
            "",
        ),
        // The child masks its puts: the runtime must never produce a
        // trace with 'a' but not 'b' while the main thread is still
        // observably active afterwards — and whatever it produces, the
        // LTS admits it.
        "masked_child_kill" => (
            sq3(
                Prog::Fork(Box::new(Prog::Block(Box::new(sq(
                    Prog::Put('a'),
                    Prog::Put('b'),
                ))))),
                Prog::ThrowToLast(0),
                sq(Prog::Put('z'), Prog::Take(0)), // keep main alive (deadlock)
            ),
            "",
        ),
        "unblock_window_inside_block" => (
            sq3(
                Prog::Fork(Box::new(Prog::Block(Box::new(sq3(
                    Prog::Put('a'),
                    Prog::Unblock(Box::new(Prog::Put('u'))),
                    Prog::Put('b'),
                ))))),
                Prog::ThrowToLast(1),
                Prog::Put('z'),
            ),
            "",
        ),
        "catch_of_async_exception_conforms" => (
            sq3(
                Prog::Fork(Box::new(Prog::Catch(
                    Box::new(sq(Prog::Put('a'), Prog::Take(0))), // blocks: interruptible
                    Box::new(Prog::Put('h')),                    // handler prints
                ))),
                Prog::ThrowToLast(0),
                sq(Prog::Put('z'), Prog::Take(1)), // keep main alive
            ),
            "",
        ),
        // Sleeps interleaved with puts across two threads: the runtime's
        // global clock partitions time differently than the LTS's
        // per-sleep labels, and the projection must still line up.
        "sleeping_threads_conform" => (
            sq3(
                Prog::Fork(Box::new(sq3(Prog::Nap(2), Prog::Put('a'), Prog::Nap(1)))),
                Prog::Nap(3),
                Prog::Put('z'),
            ),
            "",
        ),
        // Interrupting a stuck sleeper exercises the (Interrupt) rule on
        // the semantics side and the sleep-queue removal on the runtime
        // side.
        "kill_a_sleeper_conforms" => (
            sq3(
                Prog::Fork(Box::new(sq(Prog::Nap(3), Prog::Put('a')))),
                Prog::ThrowToLast(0),
                Prog::Put('z'),
            ),
            "",
        ),
        _ => unreachable!("no scenario named {name}"),
    }
}

fn run_scenario(name: &str) {
    let (prog, input) = scenario(name);
    let (explored, outcomes) = assert_conformance(&prog, input);
    let pin = CURATED_SCHEDULES.iter().find(|(n, ..)| *n == name);
    assert_eq!(pin, Some(&(name, explored, outcomes)), "{name}");
}

#[test]
fn put_sequence() {
    run_scenario("put_sequence");
}

#[test]
fn echo_conforms() {
    run_scenario("echo_conforms");
}

#[test]
fn throw_and_catch() {
    run_scenario("throw_and_catch");
}

#[test]
fn uncaught_throw() {
    run_scenario("uncaught_throw");
}

#[test]
fn forked_puts_interleave() {
    run_scenario("forked_puts_interleave");
}

#[test]
fn mvar_rendezvous() {
    run_scenario("mvar_rendezvous");
}

#[test]
fn deadlocked_take_is_an_admissible_prefix() {
    run_scenario("deadlocked_take_is_an_admissible_prefix");
}

#[test]
fn kill_between_puts() {
    run_scenario("kill_between_puts");
}

#[test]
fn masked_child_kill() {
    run_scenario("masked_child_kill");
}

#[test]
fn unblock_window_inside_block() {
    run_scenario("unblock_window_inside_block");
}

#[test]
fn catch_of_async_exception_conforms() {
    run_scenario("catch_of_async_exception_conforms");
}

#[test]
fn sleeping_threads_conform() {
    run_scenario("sleeping_threads_conform");
}

#[test]
fn kill_a_sleeper_conforms() {
    run_scenario("kill_a_sleeper_conforms");
}

/// C1's curated scenarios as (scenario, distinct states, distinct
/// outcomes): the graph each scenario's traces are checked against,
/// complete at the default budget.
const CURATED: [(&str, usize, usize); 13] = [
    ("put_sequence", 17, 1),
    ("echo_conforms", 20, 1),
    ("throw_and_catch", 21, 1),
    ("uncaught_throw", 11, 1),
    ("forked_puts_interleave", 80, 10),
    ("mvar_rendezvous", 64, 1),
    ("deadlocked_take_is_an_admissible_prefix", 11, 1),
    ("kill_between_puts", 98, 6),
    ("masked_child_kill", 131, 3),
    ("unblock_window_inside_block", 197, 10),
    ("catch_of_async_exception_conforms", 134, 5),
    ("sleeping_threads_conform", 138, 3),
    ("kill_a_sleeper_conforms", 107, 3),
];

/// C1's curated scenarios on the runtime side, as (scenario, schedules
/// explored, distinct runtime outcomes): each scenario's test asserts
/// its row. Against `CURATED`'s outcome count, the last column is the
/// refinement gap — how much of what the semantics allows the runtime
/// ever does. It exceeds it twice: in `masked_child_kill` and
/// `catch_of_async_exception_conforms` the runtime also ends `!z`
/// wedged. With `fork_inherits_mask(false)` a child starts unmasked and
/// takes a step to enter its `block` or `catch`, and the kill can land
/// in that step; a semantics thread is inside its evaluation context
/// from the start. The trace is still an admitted prefix.
const CURATED_SCHEDULES: [(&str, usize, usize); 13] = [
    ("put_sequence", 1, 1),
    ("echo_conforms", 1, 1),
    ("throw_and_catch", 1, 1),
    ("uncaught_throw", 1, 1),
    ("forked_puts_interleave", 20, 10),
    ("mvar_rendezvous", 7, 1),
    ("deadlocked_take_is_an_admissible_prefix", 1, 1),
    ("kill_between_puts", 135, 6),
    ("masked_child_kill", 172, 4),
    ("unblock_window_inside_block", 784, 10),
    ("catch_of_async_exception_conforms", 160, 6),
    ("sleeping_threads_conform", 6, 1),
    ("kill_a_sleeper_conforms", 13, 1),
];

#[test]
fn curated_state_graphs_are_pinned() {
    for (name, states, outcomes) in CURATED {
        let (prog, input) = scenario(name);
        let lts = semantics_graph(&prog, input);
        assert_eq!(lts.complete(), Ok(()), "{name}");
        assert_eq!(lts.states(), states, "{name}");
        assert_eq!(lts.trace_set().map(|s| s.len()), Ok(outcomes), "{name}");
    }
}

/// `RuleConfig::device_stuckness` adds the (Stuck PutChar) and (Stuck
/// GetChar) transitions of runnable threads. On C1's programs they add
/// interleavings, and outcomes only in `masked_child_kill`: a stuck
/// thread is interruptible even under `block`, so the kill can land
/// before the masked 'a' or between the masked 'a' and 'b'.
#[test]
fn device_stuckness_adds_outcomes_only_where_a_masked_put_is_killed() {
    let stuckness = ExploreConfig {
        rules: RuleConfig {
            device_stuckness: true,
        },
        ..ExploreConfig::default()
    };
    let wedged = |w: &[char]| {
        (
            w.iter().map(|&c| Obs::Put(c)).collect::<Vec<_>>(),
            EndState::Wedged,
        )
    };
    for (name, _, _) in CURATED {
        let (prog, input) = scenario(name);
        let init = State::new(semantics_program(prog), input);
        let off = Lts::explore(&init, &ExploreConfig::default()).trace_set();
        let on = Lts::explore(&init, &stuckness).trace_set();
        let (off, on) = (off.expect(name), on.expect(name));
        assert!(off.is_subset(&on), "{name}");
        let added: Vec<_> = on.difference(&off).cloned().collect();
        let expected = match name {
            "masked_child_kill" => vec![wedged(&['a', 'z']), wedged(&['z']), wedged(&['z', 'a'])],
            _ => vec![],
        };
        assert_eq!(added, expected, "{name}");
    }
}

#[test]
fn negative_control_oracle_rejects_wrong_traces() {
    // The oracle must not be vacuously true: it rejects reordered output,
    // phantom output, and truncated terminating runs.
    let lts = semantics_graph(&sq(Prog::Put('a'), Prog::Put('b')), "");
    let admits = |w: &[Obs], require_termination| {
        lts.admits_trace(w, require_termination)
            .expect("a complete graph answers")
    };
    assert!(admits(&[Obs::Put('a'), Obs::Put('b')], true));
    assert!(!admits(&[Obs::Put('b'), Obs::Put('a')], true));
    assert!(!admits(&[Obs::Put('a')], true));
    assert!(!admits(
        &[Obs::Put('a'), Obs::Put('b'), Obs::Put('c')],
        true
    ));
    // And for a masked child: killing cannot split the masked pair.
    let masked = sq3(
        Prog::Fork(Box::new(Prog::Block(Box::new(sq(
            Prog::Put('a'),
            Prog::Put('b'),
        ))))),
        Prog::ThrowToLast(0),
        sq(Prog::Put('z'), Prog::Take(0)), // main then blocks forever
    );
    let lts = semantics_graph(&masked, "");
    let admits = |w: &[Obs], require_termination| {
        lts.admits_trace(w, require_termination)
            .expect("a complete graph answers")
    };
    // 'a' printed, child killed before 'b', 'z' printed, then 'b' never
    // comes: the trace !a!z must only be admissible as a *prefix* (the
    // child may still be between its puts), but the same trace extended
    // by nothing can never be a *terminating* run (main deadlocks) —
    // and !a!z!b IS admissible as a prefix.
    assert!(admits(&[Obs::Put('a'), Obs::Put('z')], false));
    assert!(!admits(&[Obs::Put('a'), Obs::Put('z')], true));
    assert!(admits(
        &[Obs::Put('a'), Obs::Put('z'), Obs::Put('b')],
        false
    ));
    // The masked pair cannot be split by the kill: a run in which 'b'
    // never appears while the soup still contains the (live, unkillable-
    // between-puts) child can only be a prefix where 'b' is still to
    // come. A trace claiming 'a' then 'x' (phantom output) is rejected
    // outright.
    assert!(!admits(&[Obs::Put('a'), Obs::Put('x')], false));
}

// --------------------------------------------------------------------
// Randomized conformance
// --------------------------------------------------------------------

fn leaf() -> impl Strategy<Value = Prog> {
    prop_oneof![
        Just(Prog::Skip),
        prop::char::range('a', 'd').prop_map(Prog::Put),
        Just(Prog::Echo),
        (0u8..2).prop_map(Prog::Throw),
        (0u8..2).prop_map(Prog::ThrowToLast),
        (0u8..MVAR_SLOTS).prop_map(Prog::Take),
        (0u8..MVAR_SLOTS).prop_map(Prog::PutM),
        (0u8..4).prop_map(Prog::Nap),
    ]
}

fn prog_strategy() -> impl Strategy<Value = Prog> {
    leaf().prop_recursive(3, 10, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| sq(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Prog::Catch(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| Prog::Block(Box::new(a))),
            inner.clone().prop_map(|a| Prog::Unblock(Box::new(a))),
            inner.prop_map(|a| Prog::Fork(Box::new(a))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        max_shrink_iters: 200,
    })]

    /// Every trace of every random program on every schedule is
    /// admitted by the formal semantics, from a graph the default
    /// budget holds whole (2 000 programs from this strategy reach at
    /// most 654 states and 9 outcomes).
    #[test]
    fn random_programs_conform(prog in prog_strategy()) {
        assert_conformance(&prog, "qrs");
    }
}
