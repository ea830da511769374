//! Where a schedule is run and accounted for — once, for every engine.
//!
//! A [`Runner`] is a reset-and-reuse [`Runtime`] plus the one
//! [`DriverState`] scripted into it: load a script, [`run`](Runner::run)
//! a case, read the outcome. Certificate replay and shrinking need no
//! more than that. A [`Worker`] is a `Runner` taking part in a search:
//! it times each run, accounts the runs that count against the shared
//! [`Frontier`], applies the global caps, folds its totals in when it
//! is done — and stops its peers if it dies. The engines
//! ([`crate::dfs`], [`crate::dpor`], [`crate::sample`]) decide only
//! what differs between them: where the next script comes from, what a
//! finished run contributes, how a new branch point becomes a node.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use conch_runtime::error::RunError;
use conch_runtime::scheduler::Runtime;
use conch_runtime::stats::Stats;
use conch_runtime::value::FromValue;

use crate::driver::{DriverState, ScriptedDecider};
use crate::explorer::{ExploreConfig, RunOutcome, TestCase};
use crate::frontier::Frontier;
use crate::schedule::Schedule;

/// One run's outcome and its property's verdict on it.
pub(crate) type Run<T> = (RunOutcome<T>, Result<(), String>);

/// A runtime configured for driven exploration and the driver state
/// scripted into it, both reset between runs so the per-schedule cost
/// is interpretation, not allocation. The `Rc` never leaves its thread.
pub(crate) struct Runner {
    rt: Runtime,
    pub(crate) state: Rc<RefCell<DriverState>>,
}

impl Runner {
    pub(crate) fn new(config: &ExploreConfig) -> Self {
        let runtime = config.runtime.clone().max_steps(config.step_budget);
        let state = Rc::new(RefCell::new(DriverState::new(
            config.preemption_bound,
            config.max_depth,
        )));
        let decider = ScriptedDecider(Rc::clone(&state));
        #[cfg(test)]
        let decider = tests::Probed(decider);
        // Installed once: `Runtime::reset` keeps the decider.
        let mut rt = Runtime::with_config(runtime);
        rt.set_decider(Box::new(decider));
        Runner { rt, state }
    }

    /// Make `schedule` the loaded script, with no sleep entries: choices
    /// past its end (or that no longer fit, after shrinking spliced the
    /// list) fall back to the deterministic defaults.
    pub(crate) fn load(&mut self, schedule: &Schedule) {
        let mut st = self.state.borrow_mut();
        st.reset();
        st.script.extend_from_slice(&schedule.choices);
    }

    /// One driven execution of `case` under the loaded script, on the
    /// runtime reset to pristine, and the case's property applied to it.
    pub(crate) fn run<T: FromValue>(&mut self, case: TestCase<T>) -> Run<T> {
        self.rt.reset();
        let result = self.rt.run(case.program);
        let choices: Vec<_> = self
            .state
            .borrow()
            .record
            .iter()
            .map(|p| p.chosen)
            .collect();
        let outcome = RunOutcome {
            result,
            output: self.rt.output().to_owned(),
            stats: self.rt.stats().clone(),
            schedule: Schedule::from(choices),
        };
        let verdict = (case.check)(&outcome);
        #[cfg(test)]
        tests::note_run(&self.state.borrow(), &outcome, &verdict);
        (outcome, verdict)
    }
}

/// One worker of a search: everything a thread owns while it runs
/// schedules for an engine.
pub(crate) struct Worker<'a> {
    pub(crate) config: &'a ExploreConfig,
    pub(crate) frontier: &'a Frontier,
    runner: Runner,
    /// Runtime statistics merged over the runs this worker accounted;
    /// engines add the counters only they know (races, samples).
    pub(crate) stats: Stats,
    replay_ns: u64,
    analysis_ns: u64,
}

impl<'a> Worker<'a> {
    pub(crate) fn new(config: &'a ExploreConfig, frontier: &'a Frontier) -> Self {
        Worker {
            config,
            frontier,
            runner: Runner::new(config),
            stats: Stats::default(),
            replay_ns: 0,
            analysis_ns: 0,
        }
    }

    /// The driver state: engines load the next script into it and read
    /// the branch points the run recorded out of it.
    pub(crate) fn state(&self) -> &RefCell<DriverState> {
        &self.runner.state
    }

    /// Build a case and run the loaded script on it, on the replay
    /// stopwatch.
    pub(crate) fn run<T: FromValue>(&mut self, factory: &mut dyn FnMut() -> TestCase<T>) -> Run<T> {
        let t0 = Instant::now();
        let run = self.runner.run(factory());
        self.replay_ns += t0.elapsed().as_nanos() as u64;
        run
    }

    /// Run an engine's race analysis, on the analysis stopwatch.
    pub(crate) fn analysis<R>(&mut self, analyze: impl FnOnce(&DriverState) -> R) -> R {
        let t0 = Instant::now();
        let result = analyze(&self.runner.state.borrow());
        self.analysis_ns += t0.elapsed().as_nanos() as u64;
        result
    }

    /// Account a run that counts: the shared counters, the merged
    /// statistics and — if its property failed — the failure candidate,
    /// ranked under the caller's `key`. Returns whether it failed.
    pub(crate) fn account<T>(
        &mut self,
        (outcome, verdict): Run<T>,
        key: impl FnOnce(&DriverState) -> Vec<u32>,
    ) -> bool {
        let st = self.runner.state.borrow();
        let truncated =
            st.depth_hit || matches!(outcome.result, Err(RunError::StepLimitExceeded { .. }));
        self.frontier
            .note_run(truncated, outcome.stats.steps, &outcome.schedule.choices);
        self.stats.merge(&outcome.stats);
        match verdict {
            Ok(()) => false,
            Err(message) => {
                self.frontier
                    .offer_failure(key(&st), outcome.schedule, message);
                true
            }
        }
    }

    /// Apply the global cap: once the schedule budget is spent the
    /// whole search stops (and reports `complete = false`).
    pub(crate) fn over_caps(&self) -> bool {
        let over = self.frontier.explored() >= self.config.max_schedules;
        if over {
            self.frontier.request_stop();
        }
        over
    }

    /// Fold this worker's totals into the frontier.
    pub(crate) fn finish(self) {
        self.frontier
            .fold_worker(&self.stats, self.replay_ns, self.analysis_ns);
    }
}

/// A worker that panics (in the property, the factory or the engine)
/// stops the search, so its peers drain out instead of waiting for
/// donations that will never come or finishing a budget nobody will
/// read; the panic itself propagates through `std::thread::scope`.
impl Drop for Worker<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.frontier.request_stop();
        }
    }
}

#[cfg(test)]
mod tests {
    //! The elision of decider calls inside an invisible run, proved by
    //! running whole searches both ways: every [`Runner`] a test builds
    //! has its decider wrapped in a [`Probed`], which counts the
    //! questions asked and — when [`ASK_EVERY_STEP`] is set on the
    //! searching thread — takes back every "invisible", so the scheduler
    //! asks before each step as it did before it could be told not to.

    use std::cell::{Cell, RefCell};

    use conch_combinators::timeout;
    use conch_runtime::decide::{Decider, Pick, ThreadView};
    use conch_runtime::exception::Exception;
    use conch_runtime::ids::ThreadId;
    use conch_runtime::io::Io;

    use super::*;
    use crate::explorer::{CheckResult, Explorer, Reduction, Strategy};

    thread_local! {
        static ASK_EVERY_STEP: Cell<bool> = const { Cell::new(false) };
        /// `choose_thread` calls made on this thread.
        static QUESTIONS: Cell<u64> = const { Cell::new(0) };
        /// One entry per run on this thread: everything the driver
        /// recorded and everything the run produced.
        static RUNS: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) struct Probed(pub(super) ScriptedDecider);

    impl Decider for Probed {
        fn choose_thread(&mut self, runnable: &[ThreadView], previous: Option<ThreadId>) -> Pick {
            QUESTIONS.set(QUESTIONS.get() + 1);
            let pick = self.0.choose_thread(runnable, previous);
            Pick {
                invisible: pick.invisible && !ASK_EVERY_STEP.get(),
                ..pick
            }
        }

        fn deliver_now(&mut self, view: ThreadView) -> bool {
            self.0.deliver_now(view)
        }

        fn choose_arm(&mut self, view: ThreadView, arms: u8) -> u8 {
            self.0.choose_arm(view, arms)
        }
    }

    pub(super) fn note_run<T>(
        st: &DriverState,
        outcome: &RunOutcome<T>,
        verdict: &Result<(), String>,
    ) {
        let result = outcome.result.as_ref().map(|_| ());
        let run = format!(
            "{:?} {:?} {:?} {result:?} {:?} {:?} {} {verdict:?}",
            st.record, st.exec_log, st.births, outcome.output, outcome.stats, outcome.schedule
        );
        RUNS.with_borrow_mut(|runs| runs.push(run));
    }

    /// One search of `program` on this thread: its result, every run it
    /// made, the questions its deciders were asked and the steps its
    /// runs took.
    fn search<T: FromValue + 'static>(
        reduction: Reduction,
        ask_every_step: bool,
        program: fn() -> Io<T>,
        wrong: fn(&RunOutcome<T>) -> bool,
    ) -> (CheckResult, Vec<String>, u64, u64) {
        ASK_EVERY_STEP.set(ask_every_step);
        QUESTIONS.set(0);
        RUNS.take();
        let steps = Rc::new(Cell::new(0));
        let explorer = Explorer::with_config(ExploreConfig {
            strategy: Strategy::Exhaustive(reduction),
            ..ExploreConfig::default()
        });
        let result = explorer.check(|| {
            let steps = Rc::clone(&steps);
            TestCase::new(program(), move |out: &RunOutcome<T>| {
                steps.set(steps.get() + out.stats.steps);
                match wrong(out) {
                    true => Err(format!("wrong: output {:?}", out.output)),
                    false => Ok(()),
                }
            })
        });
        ASK_EVERY_STEP.set(false);
        (result, RUNS.take(), QUESTIONS.get(), steps.get())
    }

    /// §7.1's seeded bug (the acquire outside the protected region)
    /// under a `throwTo`: a failing space, so shrinking is compared too.
    fn broken_bracket_under_kill() -> Io<()> {
        let body = Io::put_char('a').and_then(|_| {
            Io::<()>::block(
                Io::<()>::unblock(Io::compute(2))
                    .catch(|e| Io::put_char('r').then(Io::throw(e)))
                    .then(Io::put_char('r')),
            )
        });
        Io::fork(body.catch(|_| Io::unit()))
            .and_then(|w| Io::throw_to(w, Exception::kill_thread()))
            .then(Io::sleep(1))
    }

    /// §7.3: a timeout racing a computation long enough to be a run of
    /// invisible moves.
    fn timeout_of_a_computation() -> Io<Option<i64>> {
        timeout(0, Io::compute_returning(4, 7_i64))
    }

    /// A fault-plane space: an oracle picks how long the child computes
    /// before it races the parent for the console.
    fn oracle_then_race() -> Io<i64> {
        Io::choose(3).and_then(|arm| {
            Io::fork(Io::compute(1 + arm as u64).then(Io::put_char('b')))
                .then(Io::compute(2))
                .then(Io::put_char('a'))
                .then(Io::sleep(1))
                .map(move |_| arm)
        })
    }

    fn assert_elision_changes_nothing<T: FromValue + 'static>(
        name: &str,
        program: fn() -> Io<T>,
        wrong: fn(&RunOutcome<T>) -> bool,
        fails: bool,
    ) {
        for reduction in [Reduction::SleepSets, Reduction::Dpor] {
            let (result, runs, questions, steps) = search(reduction, false, program, wrong);
            let (asked, asked_runs, every_step, _) = search(reduction, true, program, wrong);
            let at = format!("{name} under {reduction:?}");
            assert_eq!(runs, asked_runs, "{at}: some run differs");
            assert_eq!(result.report(), asked.report(), "{at}");
            let certificate = |r: &CheckResult| {
                r.failure()
                    .map(|f| (f.schedule.clone(), f.original.clone(), f.message.clone()))
            };
            assert_eq!(certificate(&result), certificate(&asked), "{at}");
            assert_eq!(result.failure().is_some(), fails, "{at}");
            assert!(runs.len() > 3, "{at}: only {} runs", runs.len());
            // Asked before every step, a search asks once per step — its
            // explored runs' and its shrink candidates'; told which
            // picks are invisible, strictly less often than it steps.
            let report = result.report();
            assert_eq!(every_step, report.steps + report.shrink_steps, "{at}");
            assert!(questions < every_step, "{at}: {questions} of {every_step}");
            assert_eq!(steps, every_step, "{at}: the property saw every run");
        }
    }

    #[test]
    fn a_search_is_the_same_search_asked_before_every_step() {
        let leaks = |out: &RunOutcome<()>| {
            out.output.matches('a').count() != out.output.matches('r').count()
        };
        assert_elision_changes_nothing("broken_bracket", broken_bracket_under_kill, leaks, true);
        let escapes = |out: &RunOutcome<Option<i64>>| !matches!(out.result, Ok(None | Some(7)));
        assert_elision_changes_nothing("timeout", timeout_of_a_computation, escapes, false);
        let garbled =
            |out: &RunOutcome<i64>| !matches!(out.result, Ok(0..=2)) || out.output.len() != 2;
        assert_elision_changes_nothing("oracle", oracle_then_race, garbled, false);
    }
}
