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
    fn echo_derivation_consumes_input() {
        let prog = bind(get_char(), lam("c", put_char(var("c"))));
        let d = derive_first(&State::new(prog, "Q"), &RuleConfig::default(), 50);
        assert!(d.terminated);
        assert_eq!(d.observables(), vec![Label::Get('Q'), Label::Put('Q')]);
    }
}
