//! The transition rules — Figures 4 and 5 of the paper.
//!
//! [`enabled_transitions`] enumerates *every* transition a program state
//! admits, each tagged with the paper's rule name and (for I/O and time)
//! its label. [`crate::engine::Lts`] explores this labelled transition
//! system exhaustively; [`crate::derivation`] walks single runs of it.
//!
//! Design notes:
//!
//! * **Stuck marking.** Figure 5's (Stuck *) rules let operations that
//!   wait on the outside world become stuck (⊛). The rules that are
//!   forced — `takeMVar` on an empty `MVar`, `putMVar` on a full one,
//!   `getChar` with no input, and `sleep` — are always enabled; the
//!   purely device-driven ones (`putChar`/`getChar` stuck even though the
//!   device is ready) are behind [`RuleConfig::device_stuckness`]: they
//!   add interleavings, and they add outcomes where a masked
//!   `putChar`/`getChar` is the target of a `throwTo`, because a stuck
//!   thread is interruptible even under `block` (rule (Interrupt)).
//! * **Administrative normalization.** After every rule we drop in-flight
//!   exceptions whose target thread no longer exists (`throwTo` to a dead
//!   thread trivially succeeds, §5) and apply (Proc GC) when the main
//!   thread is dead. Neither is observable: no rule can fire on the
//!   removed processes.

use std::rc::Rc;

use crate::context::{decompose, CtxFrame};
use crate::eval::{eval, Outcome};
use crate::process::{Mark, Soup, ThreadState};
use crate::term::{Exc, Term, TidName};

/// The names of the paper's transition rules (Figures 4 and 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum RuleName {
    Bind,
    PutChar,
    GetChar,
    Sleep,
    PutMVar,
    TakeMVar,
    NewMVar,
    Fork,
    ThreadId,
    Propagate,
    Catch,
    Handle,
    ReturnGC,
    ThrowGC,
    Eval,
    Raise,
    BlockReturn,
    UnblockReturn,
    BlockThrow,
    UnblockThrow,
    ThrowTo,
    Receive,
    Interrupt,
    StuckPutChar,
    StuckGetChar,
    StuckSleep,
    StuckPutMVar,
    StuckTakeMVar,
}

impl RuleName {
    /// The rule's name as printed in the paper.
    pub fn paper_name(self) -> &'static str {
        match self {
            RuleName::Bind => "(Bind)",
            RuleName::PutChar => "(PutChar)",
            RuleName::GetChar => "(GetChar)",
            RuleName::Sleep => "(Sleep)",
            RuleName::PutMVar => "(PutMVar)",
            RuleName::TakeMVar => "(TakeMVar)",
            RuleName::NewMVar => "(NewMVar)",
            RuleName::Fork => "(Fork)",
            RuleName::ThreadId => "(ThreadId)",
            RuleName::Propagate => "(Propagate)",
            RuleName::Catch => "(Catch)",
            RuleName::Handle => "(Handle)",
            RuleName::ReturnGC => "(Return GC)",
            RuleName::ThrowGC => "(Throw GC)",
            RuleName::Eval => "(Eval)",
            RuleName::Raise => "(Raise)",
            RuleName::BlockReturn => "(Block Return)",
            RuleName::UnblockReturn => "(Unblock Return)",
            RuleName::BlockThrow => "(Block Throw)",
            RuleName::UnblockThrow => "(Unblock Throw)",
            RuleName::ThrowTo => "(ThrowTo)",
            RuleName::Receive => "(Receive)",
            RuleName::Interrupt => "(Interrupt)",
            RuleName::StuckPutChar => "(Stuck PutChar)",
            RuleName::StuckGetChar => "(Stuck GetChar)",
            RuleName::StuckSleep => "(Stuck Sleep)",
            RuleName::StuckPutMVar => "(Stuck PutMVar)",
            RuleName::StuckTakeMVar => "(Stuck TakeMVar)",
        }
    }
}

impl std::fmt::Display for RuleName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.paper_name())
    }
}

/// The label on a transition: the paper's events `!c`, `?c`, `$d`, or the
/// unlabelled (internal) transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// An internal step.
    Tau,
    /// `!c` — `c` written to standard output.
    Put(char),
    /// `?c` — `c` read from standard input.
    Get(char),
    /// `$d` — `d` microseconds of external time.
    Time(u64),
}

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Label::Tau => f.write_str("τ"),
            Label::Put(c) => write!(f, "!{c}"),
            Label::Get(c) => write!(f, "?{c}"),
            Label::Time(d) => write!(f, "${d}"),
        }
    }
}

/// One enabled transition out of a state.
#[derive(Debug, Clone)]
pub struct Transition {
    /// Which rule fired.
    pub rule: RuleName,
    /// The transition's label.
    pub label: Label,
    /// The thread the rule fired in (if thread-local).
    pub tid: Option<TidName>,
    /// The successor program state (already normalized).
    pub soup: Soup,
    /// Whether one character of input was consumed (rule (GetChar)).
    pub consumed_input: bool,
}

/// Tunables for rule enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleConfig {
    /// Fuel for each inner (Eval) invocation.
    pub eval_fuel: u64,
    /// Enable the purely device-driven stuckness transitions
    /// ((Stuck PutChar) always; (Stuck GetChar) even when input is
    /// available). Off by default: they multiply interleavings, and they
    /// make a masked `putChar`/`getChar` an interruptible wait, so a
    /// `throwTo` can land inside `block` where it otherwise could not.
    pub device_stuckness: bool,
}

impl Default for RuleConfig {
    fn default() -> Self {
        RuleConfig {
            eval_fuel: 100_000,
            device_stuckness: false,
        }
    }
}

/// Drops unobservable processes: in-flight exceptions aimed at
/// nonexistent threads, and — once the main thread is dead — everything
/// else (rule (Proc GC)).
pub fn normalize(soup: &mut Soup) {
    let threads = &soup.threads;
    soup.inflight.retain(|(t, _)| threads.contains_key(t));
    if soup.main_finished() {
        soup.threads.clear();
        soup.mvars.clear();
        soup.inflight.clear();
        let main = soup.main;
        soup.dead.retain(|t| *t == main);
    }
}

/// Enumerates every transition enabled in `soup`, given the remaining
/// `input` characters.
pub fn enabled_transitions(soup: &Soup, input: &[char], config: &RuleConfig) -> Vec<Transition> {
    let mut out = Vec::new();
    if soup.main_finished() {
        return out;
    }
    for (&tid, st) in &soup.threads {
        thread_transitions(soup, tid, st, input, config, &mut out);
    }
    out
}

/// Pushes a successor built from `soup` by replacing thread `tid`'s term.
#[allow(clippy::too_many_arguments)]
fn push(
    out: &mut Vec<Transition>,
    soup: &Soup,
    tid: TidName,
    rule: RuleName,
    label: Label,
    new_term: Rc<Term>,
    new_mark: Mark,
    consumed_input: bool,
    tweak: impl FnOnce(&mut Soup),
) {
    let mut next = soup.clone();
    if let Some(t) = next.threads.get_mut(&tid) {
        t.term = new_term;
        t.mark = new_mark;
    }
    tweak(&mut next);
    normalize(&mut next);
    out.push(Transition {
        rule,
        label,
        tid: Some(tid),
        soup: next,
        consumed_input,
    });
}

#[allow(clippy::too_many_lines, clippy::collapsible_match)]
fn thread_transitions(
    soup: &Soup,
    tid: TidName,
    st: &ThreadState,
    input: &[char],
    config: &RuleConfig,
    out: &mut Vec<Transition>,
) {
    let d = decompose(&st.term);
    let runnable = st.mark == Mark::Runnable;

    // ---- (Interrupt): a stuck thread receives any in-flight exception
    // aimed at it, in any context (masked or not), and becomes runnable.
    if st.mark == Mark::Stuck {
        for (i, (target, e)) in soup.inflight.iter().enumerate() {
            if *target == tid {
                let new_term = d.plug(Rc::new(Term::Throw(Rc::new(Term::ExcLit(e.clone())))));
                push(
                    out,
                    soup,
                    tid,
                    RuleName::Interrupt,
                    Label::Tau,
                    new_term,
                    Mark::Runnable,
                    false,
                    |s| {
                        s.inflight.remove(i);
                    },
                );
            }
        }
    }

    // ---- (Receive): a runnable thread in an unblocked context receives
    // an in-flight exception at the evaluation site.
    if runnable && !d.masked() {
        for (i, (target, e)) in soup.inflight.iter().enumerate() {
            if *target == tid {
                let new_term = d.plug(Rc::new(Term::Throw(Rc::new(Term::ExcLit(e.clone())))));
                push(
                    out,
                    soup,
                    tid,
                    RuleName::Receive,
                    Label::Tau,
                    new_term,
                    Mark::Runnable,
                    false,
                    |s| {
                        s.inflight.remove(i);
                    },
                );
            }
        }
    }

    // The remaining rules are driven by the redex.
    match &*d.redex {
        // ---- (Eval)/(Raise): lift the inner semantics. Runnable only.
        r if !r.is_value() => {
            if runnable {
                let mut fuel = config.eval_fuel;
                match eval(&d.redex, &mut fuel) {
                    Outcome::Value(v) => {
                        debug_assert!(*v != *d.redex, "(Eval) requires M ≠ V");
                        push(
                            out,
                            soup,
                            tid,
                            RuleName::Eval,
                            Label::Tau,
                            d.plug(v),
                            Mark::Runnable,
                            false,
                            |_| {},
                        );
                    }
                    Outcome::Raised(e) => {
                        let t = d.plug(Rc::new(Term::Throw(Rc::new(Term::ExcLit(e)))));
                        push(
                            out,
                            soup,
                            tid,
                            RuleName::Raise,
                            Label::Tau,
                            t,
                            Mark::Runnable,
                            false,
                            |_| {},
                        );
                    }
                    // Divergent or wedged pure code: no transition.
                    Outcome::OutOfFuel | Outcome::Wedged(_) => {}
                }
            }
        }

        // ---- return V meets its context.
        Term::Return(n) => {
            if !runnable {
                return;
            }
            match d.innermost() {
                None => {
                    // (Return GC): the final value is lost; thread dies.
                    let mut next = soup.clone();
                    next.threads.remove(&tid);
                    next.dead.insert(tid);
                    normalize(&mut next);
                    out.push(Transition {
                        rule: RuleName::ReturnGC,
                        label: Label::Tau,
                        tid: Some(tid),
                        soup: next,
                        consumed_input: false,
                    });
                }
                Some(CtxFrame::BindK(k)) => {
                    // (Bind): E[return N >>= M] → E[M N].
                    let new = d.pop_plug(Rc::new(Term::App(Rc::clone(k), Rc::clone(n))));
                    push(
                        out,
                        soup,
                        tid,
                        RuleName::Bind,
                        Label::Tau,
                        new,
                        Mark::Runnable,
                        false,
                        |_| {},
                    );
                }
                Some(CtxFrame::CatchH(_)) => {
                    // (Handle): E[catch (return M) H] → E[return M].
                    let new = d.pop_plug(Rc::new(Term::Return(Rc::clone(n))));
                    push(
                        out,
                        soup,
                        tid,
                        RuleName::Handle,
                        Label::Tau,
                        new,
                        Mark::Runnable,
                        false,
                        |_| {},
                    );
                }
                Some(CtxFrame::Block) => {
                    let new = d.pop_plug(Rc::new(Term::Return(Rc::clone(n))));
                    push(
                        out,
                        soup,
                        tid,
                        RuleName::BlockReturn,
                        Label::Tau,
                        new,
                        Mark::Runnable,
                        false,
                        |_| {},
                    );
                }
                Some(CtxFrame::Unblock) => {
                    let new = d.pop_plug(Rc::new(Term::Return(Rc::clone(n))));
                    push(
                        out,
                        soup,
                        tid,
                        RuleName::UnblockReturn,
                        Label::Tau,
                        new,
                        Mark::Runnable,
                        false,
                        |_| {},
                    );
                }
            }
        }

        // ---- throw e meets its context.
        Term::Throw(e) => {
            if !runnable {
                return;
            }
            match d.innermost() {
                None => {
                    // (Throw GC): uncaught exception; thread dies.
                    let mut next = soup.clone();
                    next.threads.remove(&tid);
                    next.dead.insert(tid);
                    normalize(&mut next);
                    out.push(Transition {
                        rule: RuleName::ThrowGC,
                        label: Label::Tau,
                        tid: Some(tid),
                        soup: next,
                        consumed_input: false,
                    });
                }
                Some(CtxFrame::BindK(_)) => {
                    // (Propagate): E[throw e >>= M] → E[throw e].
                    let new = d.pop_plug(Rc::new(Term::Throw(Rc::clone(e))));
                    push(
                        out,
                        soup,
                        tid,
                        RuleName::Propagate,
                        Label::Tau,
                        new,
                        Mark::Runnable,
                        false,
                        |_| {},
                    );
                }
                Some(CtxFrame::CatchH(h)) => {
                    // (Catch): E[catch (throw e) H] → E[H e].
                    let new = d.pop_plug(Rc::new(Term::App(Rc::clone(h), Rc::clone(e))));
                    push(
                        out,
                        soup,
                        tid,
                        RuleName::Catch,
                        Label::Tau,
                        new,
                        Mark::Runnable,
                        false,
                        |_| {},
                    );
                }
                Some(CtxFrame::Block) => {
                    let new = d.pop_plug(Rc::new(Term::Throw(Rc::clone(e))));
                    push(
                        out,
                        soup,
                        tid,
                        RuleName::BlockThrow,
                        Label::Tau,
                        new,
                        Mark::Runnable,
                        false,
                        |_| {},
                    );
                }
                Some(CtxFrame::Unblock) => {
                    let new = d.pop_plug(Rc::new(Term::Throw(Rc::clone(e))));
                    push(
                        out,
                        soup,
                        tid,
                        RuleName::UnblockThrow,
                        Label::Tau,
                        new,
                        Mark::Runnable,
                        false,
                        |_| {},
                    );
                }
            }
        }

        // ---- (PutChar): applies to runnable *and* stuck threads (the
        // labelled event is the impetus that wakes a stuck writer).
        Term::PutChar(c) => {
            if let Term::Char(c) = &**c {
                push(
                    out,
                    soup,
                    tid,
                    RuleName::PutChar,
                    Label::Put(*c),
                    d.plug(Rc::new(Term::Return(Rc::new(Term::Unit)))),
                    Mark::Runnable,
                    false,
                    |_| {},
                );
                if runnable && config.device_stuckness {
                    push(
                        out,
                        soup,
                        tid,
                        RuleName::StuckPutChar,
                        Label::Tau,
                        Rc::clone(&st.term),
                        Mark::Stuck,
                        false,
                        |_| {},
                    );
                }
            }
        }

        // ---- (GetChar) / (Stuck GetChar).
        Term::GetChar => {
            if let Some(&c) = input.first() {
                push(
                    out,
                    soup,
                    tid,
                    RuleName::GetChar,
                    Label::Get(c),
                    d.plug(Rc::new(Term::Return(Rc::new(Term::Char(c))))),
                    Mark::Runnable,
                    true,
                    |_| {},
                );
                if runnable && config.device_stuckness {
                    push(
                        out,
                        soup,
                        tid,
                        RuleName::StuckGetChar,
                        Label::Tau,
                        Rc::clone(&st.term),
                        Mark::Stuck,
                        false,
                        |_| {},
                    );
                }
            } else if runnable {
                // No input: the reader can only become stuck.
                push(
                    out,
                    soup,
                    tid,
                    RuleName::StuckGetChar,
                    Label::Tau,
                    Rc::clone(&st.term),
                    Mark::Stuck,
                    false,
                    |_| {},
                );
            }
        }

        // ---- (Sleep) / (Stuck Sleep).
        Term::Sleep(dur) => {
            if let Term::Int(dur) = &**dur {
                let micros = (*dur).max(0) as u64;
                push(
                    out,
                    soup,
                    tid,
                    RuleName::Sleep,
                    Label::Time(micros),
                    d.plug(Rc::new(Term::Return(Rc::new(Term::Unit)))),
                    Mark::Runnable,
                    false,
                    |_| {},
                );
                if runnable {
                    push(
                        out,
                        soup,
                        tid,
                        RuleName::StuckSleep,
                        Label::Tau,
                        Rc::clone(&st.term),
                        Mark::Stuck,
                        false,
                        |_| {},
                    );
                }
            }
        }

        // ---- (PutMVar) / (Stuck PutMVar).
        Term::PutMVar(m, n) => {
            if let Term::MVarRef(m) = &**m {
                match soup.mvars.get(m) {
                    Some(None) => {
                        let n = Rc::clone(n);
                        let m = *m;
                        push(
                            out,
                            soup,
                            tid,
                            RuleName::PutMVar,
                            Label::Tau,
                            d.plug(Rc::new(Term::Return(Rc::new(Term::Unit)))),
                            Mark::Runnable,
                            false,
                            move |s| {
                                s.mvars.insert(m, Some(n));
                            },
                        );
                    }
                    Some(Some(_)) => {
                        if runnable {
                            push(
                                out,
                                soup,
                                tid,
                                RuleName::StuckPutMVar,
                                Label::Tau,
                                Rc::clone(&st.term),
                                Mark::Stuck,
                                false,
                                |_| {},
                            );
                        }
                    }
                    None => {} // unknown MVar: wedged
                }
            }
        }

        // ---- (TakeMVar) / (Stuck TakeMVar).
        Term::TakeMVar(m) => {
            if let Term::MVarRef(m) = &**m {
                match soup.mvars.get(m) {
                    Some(Some(v)) => {
                        let v = Rc::clone(v);
                        let m = *m;
                        push(
                            out,
                            soup,
                            tid,
                            RuleName::TakeMVar,
                            Label::Tau,
                            d.plug(Rc::new(Term::Return(v))),
                            Mark::Runnable,
                            false,
                            move |s| {
                                s.mvars.insert(m, None);
                            },
                        );
                    }
                    Some(None) => {
                        if runnable {
                            push(
                                out,
                                soup,
                                tid,
                                RuleName::StuckTakeMVar,
                                Label::Tau,
                                Rc::clone(&st.term),
                                Mark::Stuck,
                                false,
                                |_| {},
                            );
                        }
                    }
                    None => {}
                }
            }
        }

        // ---- (NewMVar).
        Term::NewEmptyMVar => {
            if runnable {
                let mut next = soup.clone();
                let m = next.fresh_mvar();
                next.mvars.insert(m, None);
                if let Some(t) = next.threads.get_mut(&tid) {
                    t.term = d.plug(Rc::new(Term::Return(Rc::new(Term::MVarRef(m)))));
                }
                normalize(&mut next);
                out.push(Transition {
                    rule: RuleName::NewMVar,
                    label: Label::Tau,
                    tid: Some(tid),
                    soup: next,
                    consumed_input: false,
                });
            }
        }

        // ---- (Fork).
        Term::Fork(body) => {
            if runnable {
                let mut next = soup.clone();
                let u = next.fresh_tid();
                next.threads.insert(
                    u,
                    ThreadState {
                        term: Rc::clone(body),
                        mark: Mark::Runnable,
                    },
                );
                if let Some(t) = next.threads.get_mut(&tid) {
                    t.term = d.plug(Rc::new(Term::Return(Rc::new(Term::TidRef(u)))));
                }
                normalize(&mut next);
                out.push(Transition {
                    rule: RuleName::Fork,
                    label: Label::Tau,
                    tid: Some(tid),
                    soup: next,
                    consumed_input: false,
                });
            }
        }

        // ---- (ThreadId).
        Term::MyThreadId => {
            if runnable {
                push(
                    out,
                    soup,
                    tid,
                    RuleName::ThreadId,
                    Label::Tau,
                    d.plug(Rc::new(Term::Return(Rc::new(Term::TidRef(tid))))),
                    Mark::Runnable,
                    false,
                    |_| {},
                );
            }
        }

        // ---- (ThrowTo).
        Term::ThrowTo(target, e) => {
            if runnable {
                if let (Term::TidRef(u), Term::ExcLit(e)) = (&**target, &**e) {
                    let u = *u;
                    let e: Exc = e.clone();
                    push(
                        out,
                        soup,
                        tid,
                        RuleName::ThrowTo,
                        Label::Tau,
                        d.plug(Rc::new(Term::Return(Rc::new(Term::Unit)))),
                        Mark::Runnable,
                        false,
                        move |s| {
                            s.add_inflight(u, e);
                        },
                    );
                }
            }
        }

        // Values with no rule at the redex (e.g. a bare constant in IO
        // position): wedged, no transition.
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::build::*;
    use crate::term::MVarName;

    fn singleton(term: crate::term::build::T) -> Soup {
        Soup::initial(term)
    }

    fn rules_of(soup: &Soup, input: &[char]) -> Vec<RuleName> {
        enabled_transitions(soup, input, &RuleConfig::default())
            .into_iter()
            .map(|t| t.rule)
            .collect()
    }

    fn step_one(soup: &Soup, input: &[char], rule: RuleName) -> Soup {
        let ts = enabled_transitions(soup, input, &RuleConfig::default());
        let matching: Vec<_> = ts.into_iter().filter(|t| t.rule == rule).collect();
        assert_eq!(matching.len(), 1, "expected exactly one {rule} transition");
        matching.into_iter().next().unwrap().soup
    }

    #[test]
    fn bind_fires_on_return() {
        let s = singleton(bind(ret(int(1)), lam("x", ret(var("x")))));
        assert_eq!(rules_of(&s, &[]), vec![RuleName::Bind]);
        let s2 = step_one(&s, &[], RuleName::Bind);
        // E[M N]: an application, so next comes (Eval).
        assert_eq!(rules_of(&s2, &[]), vec![RuleName::Eval]);
    }

    #[test]
    fn putchar_emits_label() {
        let s = singleton(put_char(ch('x')));
        let ts = enabled_transitions(&s, &[], &RuleConfig::default());
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].rule, RuleName::PutChar);
        assert_eq!(ts[0].label, Label::Put('x'));
    }

    #[test]
    fn getchar_consumes_input() {
        let s = singleton(get_char());
        let ts = enabled_transitions(&s, &['q'], &RuleConfig::default());
        // (GetChar) plus (Stuck GetChar) is gated off when input exists.
        let get: Vec<_> = ts.iter().filter(|t| t.rule == RuleName::GetChar).collect();
        assert_eq!(get.len(), 1);
        assert_eq!(get[0].label, Label::Get('q'));
        assert!(get[0].consumed_input);
    }

    #[test]
    fn getchar_without_input_can_only_stick() {
        let s = singleton(get_char());
        assert_eq!(rules_of(&s, &[]), vec![RuleName::StuckGetChar]);
    }

    #[test]
    fn eval_reduces_pure_redex() {
        let s = singleton(put_char(ite(boolean(true), ch('a'), ch('b'))));
        let s2 = step_one(&s, &[], RuleName::Eval);
        let t = &s2.threads[&s2.main].term;
        assert_eq!(t.to_string(), "(putChar 'a')");
    }

    #[test]
    fn raise_lifts_pure_exception() {
        let s = singleton(bind(ret(div(int(1), int(0))), lam("x", ret(var("x")))));
        // return (1/0) >>= k: (Bind) gives k (1/0); then (Eval)... actually
        // return's argument is lazy; the bind substitutes, apply forces.
        let s2 = step_one(&s, &[], RuleName::Bind);
        let s3 = step_one(&s2, &[], RuleName::Eval);
        // k (1/0) = return (1/0) — still lazy! A further Eval is impossible
        // (it's a value). The division is never forced: call-by-name.
        let t = &s3.threads[&s3.main].term;
        assert!(matches!(&**t, Term::Return(_)));
    }

    #[test]
    fn raise_fires_when_value_is_demanded() {
        let s = singleton(put_char(div(int(1), int(0))));
        let ts = enabled_transitions(&s, &[], &RuleConfig::default());
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].rule, RuleName::Raise);
        let t = &ts[0].soup.threads[&ts[0].soup.main].term;
        assert_eq!(t.to_string(), "(throw DivideByZero)");
    }

    #[test]
    fn catch_handles_throw() {
        let s = singleton(catch(throw(exc("E")), lam("e", ret(var("e")))));
        let s2 = step_one(&s, &[], RuleName::Catch);
        let t = &s2.threads[&s2.main].term;
        assert_eq!(t.to_string(), "((\\e -> (return e)) E)");
    }

    #[test]
    fn handle_passes_success_through() {
        let s = singleton(catch(ret(int(1)), var("h")));
        let s2 = step_one(&s, &[], RuleName::Handle);
        assert_eq!(s2.threads[&s2.main].term.to_string(), "(return 1)");
    }

    #[test]
    fn propagate_skips_bind() {
        let s = singleton(bind(throw(exc("E")), var("k")));
        let s2 = step_one(&s, &[], RuleName::Propagate);
        assert_eq!(s2.threads[&s2.main].term.to_string(), "(throw E)");
    }

    #[test]
    fn return_gc_kills_thread() {
        let s = singleton(ret(int(3)));
        let s2 = step_one(&s, &[], RuleName::ReturnGC);
        assert!(s2.main_finished());
        assert!(s2.threads.is_empty());
    }

    #[test]
    fn fork_creates_runnable_child() {
        let s = singleton(bind(fork(put_char(ch('c'))), lam("t", ret(unit()))));
        let s2 = step_one(&s, &[], RuleName::Fork);
        assert_eq!(s2.threads.len(), 2);
        let child = s2.threads.keys().find(|t| **t != s2.main).copied().unwrap();
        assert_eq!(s2.threads[&child].mark, Mark::Runnable);
    }

    #[test]
    fn mvar_rules() {
        // newEmptyMVar >>= \m -> putMVar m 5 >>= \_ -> takeMVar m
        let prog = bind(
            new_empty_mvar(),
            lam(
                "m",
                bind(put_mvar(var("m"), int(5)), lam("_", take_mvar(var("m")))),
            ),
        );
        let s = singleton(prog);
        let s = step_one(&s, &[], RuleName::NewMVar);
        let s = step_one(&s, &[], RuleName::Bind);
        let s = step_one(&s, &[], RuleName::Eval); // beta-reduce
        let s = step_one(&s, &[], RuleName::PutMVar);
        assert!(s.mvars.values().next().unwrap().is_some());
        let s = step_one(&s, &[], RuleName::Bind);
        let s = step_one(&s, &[], RuleName::Eval);
        let s = step_one(&s, &[], RuleName::TakeMVar);
        assert!(s.mvars.values().next().unwrap().is_none());
        let t = &s.threads[&s.main].term;
        assert_eq!(t.to_string(), "(return 5)");
    }

    #[test]
    fn take_on_empty_sticks() {
        let prog = bind(new_empty_mvar(), lam("m", take_mvar(var("m"))));
        let s = singleton(prog);
        let s = step_one(&s, &[], RuleName::NewMVar);
        let s = step_one(&s, &[], RuleName::Bind);
        let s = step_one(&s, &[], RuleName::Eval);
        assert_eq!(rules_of(&s, &[]), vec![RuleName::StuckTakeMVar]);
        let s = step_one(&s, &[], RuleName::StuckTakeMVar);
        assert_eq!(s.threads[&s.main].mark, Mark::Stuck);
        // A stuck thread with a full... no help coming: no transitions.
        assert!(rules_of(&s, &[]).is_empty());
    }

    #[test]
    fn throwto_spawns_inflight() {
        let s = singleton(throw_to(tid(TidName(0)), exc("E")));
        let ts = enabled_transitions(&s, &[], &RuleConfig::default());
        let tt: Vec<_> = ts.iter().filter(|t| t.rule == RuleName::ThrowTo).collect();
        assert_eq!(tt.len(), 1);
        assert_eq!(tt[0].soup.inflight.len(), 1);
    }

    #[test]
    fn receive_only_in_unblocked_context() {
        // Masked thread: the in-flight exception cannot be received.
        let mut s = singleton(block(ret(int(1))));
        s.add_inflight(TidName(0), Exc::new("E"));
        let rules = rules_of(&s, &[]);
        assert!(!rules.contains(&RuleName::Receive), "got {rules:?}");
        // Unmasked: it can.
        let mut s2 = singleton(unblock(ret(int(1))));
        s2.add_inflight(TidName(0), Exc::new("E"));
        let rules2 = rules_of(&s2, &[]);
        assert!(rules2.contains(&RuleName::Receive));
    }

    #[test]
    fn receive_replaces_redex_with_throw() {
        let mut s = singleton(put_char(ch('x')));
        s.add_inflight(TidName(0), Exc::new("E"));
        let ts = enabled_transitions(&s, &[], &RuleConfig::default());
        let rcv: Vec<_> = ts.iter().filter(|t| t.rule == RuleName::Receive).collect();
        assert_eq!(rcv.len(), 1);
        assert_eq!(rcv[0].soup.threads[&s.main].term.to_string(), "(throw E)");
        assert!(rcv[0].soup.inflight.is_empty());
    }

    #[test]
    fn interrupt_fires_even_in_blocked_context() {
        // block (takeMVar m) with m empty: thread sticks, then Interrupt
        // applies despite the block — §5.3's interruptible operation.
        let m = MVarName(0);
        let mut s = singleton(block(take_mvar(mvar(m))));
        s.mvars.insert(m, None);
        let s = step_one(&s, &[], RuleName::StuckTakeMVar);
        let mut s2 = s.clone();
        s2.add_inflight(TidName(0), Exc::kill_thread());
        let rules = rules_of(&s2, &[]);
        assert!(rules.contains(&RuleName::Interrupt), "got {rules:?}");
        let s3 = step_one(&s2, &[], RuleName::Interrupt);
        assert_eq!(s3.threads[&s3.main].mark, Mark::Runnable);
        assert_eq!(
            s3.threads[&s3.main].term.to_string(),
            "(block (throw KillThread))"
        );
    }

    #[test]
    fn blocked_runnable_thread_does_not_receive() {
        // block (putChar 'x'): with an exception in flight, only (PutChar)
        // can fire — the §5.2 guarantee.
        let mut s = singleton(block(put_char(ch('x'))));
        s.add_inflight(TidName(0), Exc::kill_thread());
        let rules = rules_of(&s, &[]);
        assert_eq!(rules, vec![RuleName::PutChar]);
    }

    #[test]
    fn block_and_unblock_return_rules() {
        let s = singleton(block(ret(int(1))));
        let s2 = step_one(&s, &[], RuleName::BlockReturn);
        assert_eq!(s2.threads[&s2.main].term.to_string(), "(return 1)");
        let s3 = singleton(unblock(throw(exc("E"))));
        let s4 = step_one(&s3, &[], RuleName::UnblockThrow);
        assert_eq!(s4.threads[&s4.main].term.to_string(), "(throw E)");
    }

    #[test]
    fn inflight_to_dead_thread_is_dropped() {
        // Fork a child that dies; then throw to it: the in-flight entry
        // normalizes away (throwTo to a dead thread trivially succeeds).
        let prog = bind(fork(ret(unit())), lam("t", throw_to(var("t"), exc("E"))));
        let s = singleton(prog);
        let s = step_one(&s, &[], RuleName::Fork);
        let s = step_one(&s, &[], RuleName::Bind);
        let s = step_one(&s, &[], RuleName::Eval);
        // Let the child die first.
        let child_dead = {
            let ts = enabled_transitions(&s, &[], &RuleConfig::default());
            ts.into_iter()
                .find(|t| t.rule == RuleName::ReturnGC)
                .expect("child can die")
                .soup
        };
        let ts = enabled_transitions(&child_dead, &[], &RuleConfig::default());
        let tt = ts
            .into_iter()
            .find(|t| t.rule == RuleName::ThrowTo)
            .expect("main can throw");
        assert!(tt.soup.inflight.is_empty(), "inflight to dead thread kept");
    }

    #[test]
    fn proc_gc_reaps_after_main_death() {
        let prog = bind(fork(sleep(int(100))), lam("_", ret(unit())));
        let s = singleton(prog);
        let s = step_one(&s, &[], RuleName::Fork);
        let s = step_one(&s, &[], RuleName::Bind);
        let s = step_one(&s, &[], RuleName::Eval);
        let ts = enabled_transitions(&s, &[], &RuleConfig::default());
        let dead = ts
            .into_iter()
            .find(|t| t.rule == RuleName::ReturnGC)
            .expect("main can finish");
        assert!(dead.soup.main_finished());
        assert!(dead.soup.threads.is_empty(), "(Proc GC) must reap children");
    }

    #[test]
    fn sleep_emits_time_label_and_can_stick() {
        let s = singleton(sleep(int(7)));
        let ts = enabled_transitions(&s, &[], &RuleConfig::default());
        let rules: Vec<_> = ts.iter().map(|t| t.rule).collect();
        assert!(rules.contains(&RuleName::Sleep));
        assert!(rules.contains(&RuleName::StuckSleep));
        let sl = ts.iter().find(|t| t.rule == RuleName::Sleep).unwrap();
        assert_eq!(sl.label, Label::Time(7));
        // A stuck sleeper can still be woken by the (Sleep) rule.
        let stuck = ts.iter().find(|t| t.rule == RuleName::StuckSleep).unwrap();
        let ts2 = enabled_transitions(&stuck.soup, &[], &RuleConfig::default());
        assert!(ts2.iter().any(|t| t.rule == RuleName::Sleep));
    }

    #[test]
    fn rule_names_render_like_the_paper() {
        assert_eq!(RuleName::BlockReturn.to_string(), "(Block Return)");
        assert_eq!(RuleName::StuckTakeMVar.to_string(), "(Stuck TakeMVar)");
        assert_eq!(RuleName::Handle.to_string(), "(Handle)");
    }
}
