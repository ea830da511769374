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
        let runtime = config
            .runtime
            .clone()
            .external_scheduling()
            .max_steps(config.step_budget);
        let state = Rc::new(RefCell::new(DriverState::new(
            config.preemption_bound,
            config.max_depth,
        )));
        // Installed once: `Runtime::reset` keeps the decider.
        let mut rt = Runtime::with_config(runtime);
        rt.set_decider(Box::new(ScriptedDecider(Rc::clone(&state))));
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

    /// Apply the global caps: once the schedule or step budget is spent
    /// the whole search stops (and reports `complete = false`).
    pub(crate) fn over_caps(&self) -> bool {
        let over = self.frontier.explored() >= self.config.max_schedules
            || self
                .config
                .max_total_steps
                .is_some_and(|budget| self.frontier.steps() >= budget);
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
