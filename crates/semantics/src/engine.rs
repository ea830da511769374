//! Exploring the labelled transition system.
//!
//! The rules of [`crate::rules`] define, for each state, the set of
//! enabled transitions. [`Lts::explore`] searches them once, breadth
//! first, interning every reachable state up to a budget; every question
//! about a program is then a query on that graph (a single run, scripted
//! or seeded-random, is a [`Derivation`]):
//!
//! * [`Lts::check_safety`] — model checking: a derivation to the first
//!   reachable state satisfying a "bad" predicate. Used to *prove* the
//!   §5.1 naive-locking race reachable and its `block`/`unblock` fix safe.
//! * [`Lts::admits_trace`] — does the semantics admit an observable I/O
//!   trace (as recorded by the `conch-runtime` interpreter)? This is the
//!   conformance oracle.
//! * [`Lts::trace_set`] — the outcomes of all maximal runs, which
//!   [`crate::equiv`] compares.
//!
//! A witness found inside the budget is sound even when the graph was
//! truncated; a negative answer from a truncated graph is [`Truncated`].

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::rc::Rc;

use crate::derivation::{DerivStep, Derivation};
use crate::equiv::{EndState, Outcome};
use crate::process::Soup;
use crate::rules::{enabled_transitions, Label, RuleConfig, RuleName, Transition};
use crate::term::{Term, TidName};

/// A program state under exploration: the process soup plus the remaining
/// (scripted) standard input.
#[derive(Debug, Clone)]
pub struct State {
    /// The process soup.
    pub soup: Soup,
    /// Characters standard input will still deliver.
    pub input: Vec<char>,
}

impl State {
    /// The initial state of `term` with scripted input.
    pub fn new(term: Rc<Term>, input: &str) -> State {
        State {
            soup: Soup::initial(term),
            input: input.chars().collect(),
        }
    }

    /// A canonical key for interning states.
    fn key(&self) -> String {
        let mut k = self.soup.render();
        k.push('⊢');
        k.extend(self.input.iter());
        k
    }

    /// All successor states, with the transitions that produce them.
    pub fn successors(&self, config: &RuleConfig) -> Vec<(Transition, State)> {
        enabled_transitions(&self.soup, &self.input, config)
            .into_iter()
            .map(|t| {
                let input = if t.consumed_input {
                    self.input[1..].to_vec()
                } else {
                    self.input.clone()
                };
                let state = State {
                    soup: t.soup.clone(),
                    input,
                };
                (t, state)
            })
            .collect()
    }

    /// Has the program finished (main thread dead)?
    pub fn is_terminal(&self) -> bool {
        self.soup.is_terminal()
    }

    /// Is the program wedged: not finished, but no transition enabled?
    ///
    /// This is the semantics' picture of deadlock — e.g. every thread
    /// stuck on an `MVar` that nobody will ever fill.
    pub fn is_deadlocked(&self, config: &RuleConfig) -> bool {
        !self.is_terminal() && enabled_transitions(&self.soup, &self.input, config).is_empty()
    }
}

/// Budget for exhaustive exploration.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Intern at most this many distinct states (and, in
    /// [`Lts::trace_set`], visit at most this many (state, trace) pairs).
    pub max_states: usize,
    /// Rule-level configuration.
    pub rules: RuleConfig,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_states: 200_000,
            rules: RuleConfig::default(),
        }
    }
}

/// Evidence that a search hit [`ExploreConfig::max_states`] before it
/// could answer: a negative answer over part of the state space is not
/// an answer, so a capped check can never silently pass or fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Truncated {
    /// The budget that was exhausted.
    pub max_states: usize,
}

impl std::fmt::Display for Truncated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "search truncated at max_states = {}", self.max_states)
    }
}

impl std::error::Error for Truncated {}

/// The answer of [`Lts::check_safety`].
#[derive(Debug, Clone)]
pub enum Safety {
    /// No reachable state satisfies the bad predicate.
    Safe {
        /// Distinct reachable states.
        states: usize,
    },
    /// A bad state is reachable; here is a shortest way there.
    Violation(Derivation),
}

/// An observable event for conformance checking: the `!c`/`?c` labels
/// (time labels are treated as internal — the runtime's virtual clock
/// partitions time differently than the per-sleep `$d` labels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Obs {
    /// A character written.
    Put(char),
    /// A character read.
    Get(char),
}

impl Obs {
    /// The observable event of a transition label; `None` for τ and `$d`.
    fn of(label: Label) -> Option<Obs> {
        match label {
            Label::Tau | Label::Time(_) => None,
            Label::Put(c) => Some(Obs::Put(c)),
            Label::Get(c) => Some(Obs::Get(c)),
        }
    }
}

/// One transition of the graph: the fields of a [`DerivStep`], with the
/// target state by id.
#[derive(Debug, Clone, Copy)]
struct Edge {
    to: usize,
    rule: RuleName,
    label: Label,
    tid: Option<TidName>,
}

/// The reachable state graph of one program: each state interned once,
/// in breadth-first discovery order (id 0 is the initial state).
#[derive(Debug)]
pub struct Lts {
    states: Vec<State>,
    /// Each state's transitions, in [`enabled_transitions`] order.
    edges: Vec<Vec<Edge>>,
    /// The (state, edge index) that first discovered each state.
    parent: Vec<Option<(usize, usize)>>,
    config: ExploreConfig,
    truncated: bool,
}

impl Lts {
    /// Explores every state reachable from `init`, breadth first. A
    /// successor that would exceed `config.max_states` is dropped and
    /// the graph remembers it is incomplete.
    pub fn explore(init: &State, config: &ExploreConfig) -> Lts {
        let mut ids = HashMap::from([(init.key(), 0)]);
        let mut lts = Lts {
            states: vec![init.clone()],
            edges: Vec::new(),
            parent: vec![None],
            config: config.clone(),
            truncated: false,
        };
        // States are expanded in id order, which is discovery order.
        while lts.edges.len() < lts.states.len() {
            let from = lts.edges.len();
            let mut out = Vec::new();
            for (t, next) in lts.states[from].successors(&config.rules) {
                let to = match ids.entry(next.key()) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(_) if lts.states.len() >= config.max_states => {
                        lts.truncated = true;
                        continue;
                    }
                    Entry::Vacant(e) => {
                        e.insert(lts.states.len());
                        lts.states.push(next);
                        lts.parent.push(Some((from, out.len())));
                        lts.states.len() - 1
                    }
                };
                out.push(Edge {
                    to,
                    rule: t.rule,
                    label: t.label,
                    tid: t.tid,
                });
            }
            lts.edges.push(out);
        }
        lts
    }

    /// Distinct states interned.
    pub fn states(&self) -> usize {
        self.states.len()
    }

    /// `Ok` when every reachable state is in the graph.
    pub fn complete(&self) -> Result<(), Truncated> {
        if self.truncated {
            Err(Truncated {
                max_states: self.config.max_states,
            })
        } else {
            Ok(())
        }
    }

    /// The shortest derivation from the initial state to state `id`.
    fn derivation(&self, id: usize) -> Derivation {
        let mut steps = Vec::new();
        let mut at = id;
        while let Some((from, i)) = self.parent[at] {
            let e = self.edges[from][i];
            steps.push(DerivStep {
                rule: e.rule,
                label: e.label,
                tid: e.tid,
                state: self.states[at].soup.render(),
            });
            at = from;
        }
        steps.reverse();
        let state = self.states[id].clone();
        Derivation {
            initial: self.states[0].soup.render(),
            steps,
            terminated: state.is_terminal(),
            deadlocked: state.is_deadlocked(&self.config.rules),
            state,
        }
    }

    /// Model checking: a derivation to the first state, in breadth-first
    /// order, where `bad` holds, or proof that none is reachable.
    pub fn check_safety(&self, bad: impl Fn(&State) -> bool) -> Result<Safety, Truncated> {
        match self.states.iter().position(bad) {
            Some(id) => Ok(Safety::Violation(self.derivation(id))),
            None => self.complete().map(|()| Safety::Safe {
                states: self.states(),
            }),
        }
    }

    /// Does the semantics admit the observable trace `w` from the initial
    /// state and (if `require_termination`) end in a terminal state?
    ///
    /// Depth-first search on (state, position): internal transitions (τ
    /// and `$d`) advance the state freely; `!c`/`?c` labels must match
    /// the next event of `w`.
    pub fn admits_trace(&self, w: &[Obs], require_termination: bool) -> Result<bool, Truncated> {
        let mut seen = HashSet::new();
        let mut stack = vec![(0, 0)];
        while let Some((id, pos)) = stack.pop() {
            if pos == w.len() && (!require_termination || self.states[id].is_terminal()) {
                return Ok(true);
            }
            if !seen.insert((id, pos)) {
                continue;
            }
            for e in &self.edges[id] {
                match Obs::of(e.label) {
                    None => stack.push((e.to, pos)),
                    Some(o) if w.get(pos) == Some(&o) => stack.push((e.to, pos + 1)),
                    Some(_) => {}
                }
            }
        }
        self.complete().map(|()| false)
    }

    /// The set of observable outcomes of all maximal runs.
    ///
    /// Time labels are projected out (they are environment stimuli, not
    /// program outputs). `max_states` also caps the (state, trace) pairs
    /// visited, so a program with unboundedly many traces is
    /// [`Truncated`] rather than enumerated forever.
    pub fn trace_set(&self) -> Result<BTreeSet<Outcome>, Truncated> {
        self.complete()?;
        let mut seen = HashSet::new();
        let mut stack = vec![(0, Vec::new())];
        let mut outcomes = BTreeSet::new();
        while let Some((id, trace)) = stack.pop() {
            if self.states[id].is_terminal() {
                outcomes.insert((trace, EndState::Done));
                continue;
            }
            if seen.len() >= self.config.max_states {
                return Err(Truncated {
                    max_states: self.config.max_states,
                });
            }
            if !seen.insert((id, trace.clone())) {
                continue;
            }
            if self.edges[id].is_empty() {
                outcomes.insert((trace, EndState::Wedged));
                continue;
            }
            for e in &self.edges[id] {
                let mut next = trace.clone();
                next.extend(Obs::of(e.label));
                stack.push((e.to, next));
            }
        }
        Ok(outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::build::*;

    fn lts(prog: Rc<Term>, input: &str) -> Lts {
        Lts::explore(&State::new(prog, input), &ExploreConfig::default())
    }

    #[test]
    fn hello_terminates() {
        let g = lts(seq(put_char(ch('h')), put_char(ch('i'))), "");
        match g.check_safety(|_| false) {
            Ok(Safety::Safe { states }) => assert!(states > 2),
            other => panic!("no bad predicate given: {other:?}"),
        }
    }

    #[test]
    fn admits_correct_trace() {
        let g = lts(seq(put_char(ch('h')), put_char(ch('i'))), "");
        assert_eq!(
            g.admits_trace(&[Obs::Put('h'), Obs::Put('i')], true),
            Ok(true)
        );
        assert_eq!(
            g.admits_trace(&[Obs::Put('i'), Obs::Put('h')], true),
            Ok(false)
        );
        assert_eq!(g.admits_trace(&[Obs::Put('h')], true), Ok(false));
        // ...but 'h' alone is fine if termination is not required.
        assert_eq!(g.admits_trace(&[Obs::Put('h')], false), Ok(true));
    }

    #[test]
    fn echo_program_traces() {
        // do { c <- getChar; putChar c }
        let g = lts(bind(get_char(), lam("c", put_char(var("c")))), "z");
        assert_eq!(
            g.admits_trace(&[Obs::Get('z'), Obs::Put('z')], true),
            Ok(true)
        );
        assert_eq!(g.admits_trace(&[Obs::Put('z')], true), Ok(false));
    }

    #[test]
    fn concurrent_puts_admit_both_orders() {
        // forkIO (putChar 'a') >> putChar 'b': both !a!b and !b!a legal.
        let g = lts(seq(fork(put_char(ch('a'))), put_char(ch('b'))), "");
        assert_eq!(
            g.admits_trace(&[Obs::Put('a'), Obs::Put('b')], true),
            Ok(true)
        );
        assert_eq!(
            g.admits_trace(&[Obs::Put('b'), Obs::Put('a')], true),
            Ok(true)
        );
        assert_eq!(
            g.admits_trace(&[Obs::Put('a'), Obs::Put('a')], true),
            Ok(false)
        );
        // The child's output may be lost if main finishes first: (Proc GC).
        assert_eq!(g.admits_trace(&[Obs::Put('b')], true), Ok(true));
    }

    #[test]
    fn a_capped_search_says_so() {
        // 44 states; the legal trace !x!y!a!b is not reachable in the
        // first ten, so a capped graph cannot deny it — nor call the
        // space safe or its trace set known.
        let prog = seq(
            fork(seq(put_char(ch('a')), put_char(ch('b')))),
            seq(put_char(ch('x')), put_char(ch('y'))),
        );
        assert_eq!(lts(prog.clone(), "").states(), 44);
        let cfg = ExploreConfig {
            max_states: 10,
            ..ExploreConfig::default()
        };
        let g = Lts::explore(&State::new(prog, ""), &cfg);
        let capped = Err(Truncated { max_states: 10 });
        let w = [Obs::Put('x'), Obs::Put('y'), Obs::Put('a'), Obs::Put('b')];
        assert_eq!(g.admits_trace(&w, true), capped);
        assert!(g.check_safety(|_| false).is_err());
        assert!(g.trace_set().is_err());
        // A witness inside the budget still counts.
        assert_eq!(g.admits_trace(&[], false), Ok(true));
    }

    #[test]
    fn deadlock_detected() {
        let cfg = ExploreConfig::default();
        let g = lts(bind(new_empty_mvar(), lam("m", take_mvar(var("m")))), "");
        match g.check_safety(|s| s.is_deadlocked(&cfg.rules)) {
            Ok(Safety::Violation(d)) => {
                assert!(d.deadlocked);
                assert!(d.rules().contains(&RuleName::StuckTakeMVar));
            }
            other => panic!("expected a deadlock: {other:?}"),
        }
    }

    #[test]
    fn kill_thread_reaches_the_target() {
        // main forks a putChar-looper? Simpler: fork a sleeper, then
        // throwTo it; check a state is reachable where the child has an
        // exception at its redex.
        let prog = bind(
            fork(seq(sleep(int(5)), put_char(ch('L')))),
            lam(
                "t",
                seq(throw_to(var("t"), exc("KillThread")), put_char(ch('M'))),
            ),
        );
        let g = lts(prog, "");
        // Bad = the loser printed L *after* being killed is impossible to
        // state directly; instead: verify !M alone is admissible (child
        // killed before printing) AND !L!M, !M!L are admissible (child
        // won the race or interleaved).
        assert_eq!(g.admits_trace(&[Obs::Put('M')], true), Ok(true));
        assert_eq!(
            g.admits_trace(&[Obs::Put('L'), Obs::Put('M')], true),
            Ok(true)
        );
        assert_eq!(
            g.admits_trace(&[Obs::Put('M'), Obs::Put('L')], true),
            Ok(true)
        );
    }

    #[test]
    fn masked_region_protects_against_kill() {
        // main: m <- newEmptyMVar; t <- fork child; throwTo t K; takeMVar m
        // child: (putChar 'x'; putChar 'y'; putMVar m ()), optionally
        // wrapped in block.
        //
        // Unprotected child: the kill can land between the puts and the
        // putMVar — main then waits forever: DEADLOCK REACHABLE.
        // Protected child: the child is masked from its very first step
        // (the fork body *is* the block), putChar is not interruptible
        // while runnable, so the child always completes: DEADLOCK
        // UNREACHABLE. This is E1's shape at the semantics level.
        let mk = |protect: bool| {
            let core = seq(
                put_char(ch('x')),
                seq(put_char(ch('y')), put_mvar(var("m"), unit())),
            );
            let child = if protect { block(core) } else { core };
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

        let r = lts(mk(false), "").check_safety(|s| s.is_deadlocked(&cfg.rules));
        assert!(
            matches!(r, Ok(Safety::Violation(_))),
            "unprotected child must be killable mid-sequence, deadlocking main"
        );

        match lts(mk(true), "").check_safety(|s| s.is_deadlocked(&cfg.rules)) {
            Ok(Safety::Safe { .. }) => {}
            Ok(Safety::Violation(d)) => {
                panic!("block failed to protect the child:\n{}", d.render())
            }
            Err(e) => panic!("{e}"),
        }
    }

    #[test]
    fn device_stuckness_lets_a_kill_interrupt_a_masked_put() {
        // main: m <- newEmptyMVar; t <- fork (block (io; putMVar m ()));
        //       throwTo t K; takeMVar m
        let outcomes = |io: Rc<Term>, input: &str, device_stuckness: bool| {
            let prog = bind(
                new_empty_mvar(),
                lam(
                    "m",
                    bind(
                        fork(block(seq(io, put_mvar(var("m"), unit())))),
                        lam("t", seq(throw_to(var("t"), exc("K")), take_mvar(var("m")))),
                    ),
                ),
            );
            let config = ExploreConfig {
                rules: RuleConfig { device_stuckness },
                ..ExploreConfig::default()
            };
            Lts::explore(&State::new(prog, input), &config).trace_set()
        };
        // Masked and runnable, the child defers the kill to its end.
        // (Stuck PutChar) / (Stuck GetChar) make the device operation an
        // interruptible wait: the kill lands inside `block`, the child
        // dies before its `putMVar` and main waits on.
        let wedged = (vec![], EndState::Wedged);
        for (io, input, obs) in [
            (put_char(ch('x')), "", Obs::Put('x')),
            (get_char(), "x", Obs::Get('x')),
        ] {
            let done = (vec![obs], EndState::Done);
            let off = BTreeSet::from([done.clone()]);
            assert_eq!(outcomes(io.clone(), input, false), Ok(off), "{obs:?}");
            let on = BTreeSet::from([wedged.clone(), done]);
            assert_eq!(outcomes(io, input, true), Ok(on), "{obs:?}");
        }
    }
}
