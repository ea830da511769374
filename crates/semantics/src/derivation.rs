//! Recording and rendering derivations.
//!
//! A derivation is a finite run of the transition system with each step
//! labelled by its rule, in the notation of the paper's Figures 4 and 5
//! — the kind of trace one writes out by hand when working through the
//! §5.1 example. [`derive()`] produces one under a caller-supplied
//! scheduling choice; [`Derivation::render`] pretty-prints it.

use crate::engine::State;
use crate::rules::{Label, RuleConfig, RuleName};
use crate::term::TidName;

/// One step of a recorded derivation.
#[derive(Debug, Clone, PartialEq)]
pub struct DerivStep {
    /// The rule that fired.
    pub rule: RuleName,
    /// Its label (τ, `!c`, `?c`, `$d`).
    pub label: Label,
    /// The thread it fired in, if thread-local.
    pub tid: Option<TidName>,
    /// The state reached, rendered in the paper's notation.
    pub state: String,
}

/// A recorded run: initial state plus the steps taken.
#[derive(Debug, Clone)]
pub struct Derivation {
    /// The initial state, rendered.
    pub initial: String,
    /// The steps, in order.
    pub steps: Vec<DerivStep>,
    /// Whether the run ended in a terminal state (main thread dead).
    pub terminated: bool,
    /// Whether the run ended wedged (no transition enabled, not terminal).
    pub deadlocked: bool,
    /// The state the run ended in.
    pub state: State,
}

impl Derivation {
    /// Pretty-prints the whole derivation, one rule per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("     {}\n", self.initial));
        for (i, s) in self.steps.iter().enumerate() {
            let tid = s.tid.map(|t| format!(" @{t}")).unwrap_or_default();
            let label = match s.label {
                Label::Tau => String::new(),
                other => format!(" --{other}-->"),
            };
            out.push_str(&format!(
                "{:>4}. {}{}{}\n      {}\n",
                i + 1,
                s.rule,
                tid,
                label,
                s.state
            ));
        }
        if self.terminated {
            out.push_str("      ∎ (main thread finished)\n");
        } else if self.deadlocked {
            out.push_str("      ⊥ (no transition enabled)\n");
        }
        out
    }

    /// The observable labels of the run, in order (τ steps omitted).
    pub fn observables(&self) -> Vec<Label> {
        self.steps
            .iter()
            .map(|s| s.label)
            .filter(|l| *l != Label::Tau)
            .collect()
    }

    /// The rules fired, in order.
    pub fn rules(&self) -> Vec<RuleName> {
        self.steps.iter().map(|s| s.rule).collect()
    }
}

/// Runs the transition system from `init`, letting `choose` pick among
/// the enabled transitions at each step (it receives the rule names and
/// returns an index), for at most `max_steps`.
pub fn derive(
    init: &State,
    config: &RuleConfig,
    max_steps: usize,
    mut choose: impl FnMut(&[(RuleName, Label)]) -> usize,
) -> Derivation {
    let mut state = init.clone();
    let mut steps = Vec::new();
    let mut deadlocked = false;
    for _ in 0..max_steps {
        if state.is_terminal() {
            break;
        }
        let succ = state.successors(config);
        if succ.is_empty() {
            deadlocked = true;
            break;
        }
        let menu: Vec<(RuleName, Label)> = succ.iter().map(|(t, _)| (t.rule, t.label)).collect();
        let i = choose(&menu).min(succ.len() - 1);
        let (t, next) = succ.into_iter().nth(i).expect("index clamped");
        steps.push(DerivStep {
            rule: t.rule,
            label: t.label,
            tid: t.tid,
            state: next.soup.render(),
        });
        state = next;
    }
    Derivation {
        initial: init.soup.render(),
        terminated: state.is_terminal(),
        deadlocked,
        steps,
        state,
    }
}

/// [`derive()`] with the always-first choice: the deterministic canonical
/// schedule (thread order is name order).
pub fn derive_first(init: &State, config: &RuleConfig, max_steps: usize) -> Derivation {
    derive(init, config, max_steps, |_| 0)
}

/// [`derive()`] with seeded-random choices: a uniformly random enabled
/// transition at each step, the same walk for the same seed.
pub fn derive_random(init: &State, config: &RuleConfig, max_steps: usize, seed: u64) -> Derivation {
    // SplitMix64, the stream of `conch_runtime::rng::SplitMix64` seeded
    // with `seed ^ 0x9E37_79B9_7F4A_7C15`: a private copy, because this
    // crate does not depend on the runtime.
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    derive(init, config, max_steps, move |menu| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % menu.len() as u64) as usize
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::build::*;

    #[test]
    fn sequential_puts_derivation() {
        let prog = seq(put_char(ch('h')), put_char(ch('i')));
        let d = derive_first(&State::new(prog, ""), &RuleConfig::default(), 100);
        assert!(d.terminated);
        assert!(!d.deadlocked);
        assert_eq!(d.observables(), vec![Label::Put('h'), Label::Put('i')]);
        let rules = d.rules();
        assert_eq!(rules.first(), Some(&crate::rules::RuleName::PutChar));
        assert!(rules.contains(&crate::rules::RuleName::Bind));
        assert_eq!(rules.last(), Some(&crate::rules::RuleName::ReturnGC));
    }

    #[test]
    fn render_is_readable() {
        let prog = put_char(ch('x'));
        let d = derive_first(&State::new(prog, ""), &RuleConfig::default(), 10);
        let text = d.render();
        assert!(text.contains("(PutChar)"), "{text}");
        assert!(text.contains("--!x-->"), "{text}");
        assert!(text.contains("∎"), "{text}");
    }

    #[test]
    fn deadlock_is_marked() {
        let prog = bind(new_empty_mvar(), lam("m", take_mvar(var("m"))));
        let d = derive_first(&State::new(prog, ""), &RuleConfig::default(), 50);
        assert!(d.deadlocked);
        assert!(d.render().contains('⊥'));
    }

    #[test]
    fn random_derivations_replayable() {
        let prog = seq(
            fork(put_char(ch('a'))),
            seq(put_char(ch('b')), put_char(ch('c'))),
        );
        let mk = || State::new(prog.clone(), "");
        let cfg = RuleConfig::default();
        let d1 = derive_random(&mk(), &cfg, 200, 5);
        let d2 = derive_random(&mk(), &cfg, 200, 5);
        assert_eq!(d1.rules(), d2.rules());
        assert_eq!(d1.observables(), d2.observables());
    }

    #[test]
    fn derive_random_is_deterministic_per_seed() {
        let prog = seq(
            fork(put_char(ch('a'))),
            seq(fork(put_char(ch('b'))), put_char(ch('c'))),
        );
        let mk = || State::new(prog.clone(), "");
        let cfg = RuleConfig::default();
        let r1 = derive_random(&mk(), &cfg, 500, 99);
        let r2 = derive_random(&mk(), &cfg, 500, 99);
        assert_eq!(r1.steps, r2.steps);
        // The walk itself is pinned, not just its repeatability: a seed
        // must name the same derivation on every version.
        let walk = |seed| {
            let d = derive_random(&mk(), &cfg, 500, seed);
            let tids: Vec<String> = d
                .steps
                .iter()
                .map(|s| s.tid.map_or("-".into(), |t| t.to_string()))
                .collect();
            let out: String = d
                .observables()
                .iter()
                .map(|l| match l {
                    Label::Put(c) => *c,
                    other => panic!("unexpected label {other}"),
                })
                .collect();
            (tids.join(","), out)
        };
        assert_eq!(
            walk(0),
            ("t0,t1,t0,t1,t0,t0,t0,t2,t0,t2,t0,t0".into(), "abc".into())
        );
        assert_eq!(
            walk(1),
            ("t0,t1,t0,t0,t1,t0,t0,t0,t0,t2,t2,t0".into(), "acb".into())
        );
    }

    #[test]
    fn derive_random_reports_deadlock() {
        let prog = bind(new_empty_mvar(), lam("m", take_mvar(var("m"))));
        let r = derive_random(&State::new(prog, ""), &RuleConfig::default(), 100, 1);
        assert!(r.deadlocked);
        assert!(!r.terminated);
    }

    #[test]
    fn echo_derivation_consumes_input() {
        let prog = bind(get_char(), lam("c", put_char(var("c"))));
        let d = derive_first(&State::new(prog, "Q"), &RuleConfig::default(), 50);
        assert!(d.terminated);
        assert_eq!(d.observables(), vec![Label::Get('Q'), Label::Put('Q')]);
    }
}
