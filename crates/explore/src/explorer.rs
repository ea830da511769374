//! The bounded schedule explorer's public face: configuration, reports
//! and the [`Explorer`] itself — the one search that turns a
//! [`Strategy`] into an engine (`dfs`, `dpor`, `sample`) on one or
//! many workers, then replay and greedy schedule shrinking.

use conch_runtime::config::RuntimeConfig;
use conch_runtime::error::RunError;
use conch_runtime::io::Io;
use conch_runtime::stats::Stats;
use conch_runtime::trace::IoEvent;
use conch_runtime::value::FromValue;

use crate::dfs::sleep_set_worker;
use crate::dpor::dpor_worker;
use crate::frontier::Frontier;
use crate::sample::{sample_index, sample_worker, Samples};
use crate::schedule::Schedule;
use crate::worker::{Runner, Worker};

/// Cap on extra runs spent shrinking a failing schedule.
const MAX_SHRINK_RUNS: usize = 512;

/// Which schedule-space reduction the explorer applies.
///
/// Unbounded, both modes explore the same *behaviours* — every
/// reachable (result, console output) pair of every program, at the
/// configured depth and step budgets; they differ only in how many
/// redundant interleavings they execute to get there. Only sleep sets
/// take a preemption bound: DPOR's backtrack sets assume every race can
/// be reversed, and a bound that forbids the reversal drops behaviours
/// while the search still reports `complete`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduction {
    /// Sleep sets plus invisible-move fast-forwarding — the historical
    /// default (unbounded).
    SleepSets {
        /// CHESS-style bound on preemptive context switches per run
        /// (`None` = unbounded): once a run has used it, a
        /// still-runnable previous thread is forced. A bounded search
        /// that completes has covered every schedule within the bound
        /// or one equivalent to it — which may need more preemptions
        /// than the bound allows, so a bound covers less than it names
        /// (DESIGN.md §3.5).
        preemption_bound: Option<usize>,
    },
    /// Dynamic partial-order reduction: vector-clock happens-before
    /// race detection over each executed run, with backtrack flags
    /// installed only where a race proves the reversal matters (see
    /// the `dpor` module). Typically explores far fewer schedules than
    /// sleep sets on programs with many independent threads.
    ///
    /// What DPOR preserves is main's result and the console output,
    /// and nothing else: two schedules it treats as equivalent may
    /// differ in [`RunOutcome::stats`] and [`RunOutcome::trace`], which
    /// are telemetry. A property that reads them must use sleep sets,
    /// which keep main's exit dependent on every step — but take a
    /// blocking take and put on one cell, and a fork and another
    /// thread's exit, to commute as DPOR does, so a count such as
    /// `Stats::blocks` is seen for one of the two orders.
    /// Main's exit runs last in every DPOR run, so a thread that never
    /// blocks or ends runs the run into the step budget.
    ///
    /// DPOR is one sequential search: its backtrack sets grow on the
    /// DFS stack, so [`Explorer::check_parallel`] runs it on one
    /// thread, as [`Explorer::check`] does.
    Dpor,
}

impl Default for Reduction {
    fn default() -> Self {
        Reduction::SleepSets {
            preemption_bound: None,
        }
    }
}

/// How the explorer picks the schedules it executes.
///
/// The exhaustive strategies *enumerate* the bounded schedule space
/// (with a [`Reduction`] deciding how many redundant interleavings they
/// skip) and can certify `complete = true`. The sampling strategies
/// *draw* `max_schedules` schedules instead — the right tool once the
/// space stops being enumerable (the 3-stage pipeline leaves sleep sets
/// incomplete at 2M schedules; a production fault×schedule space never
/// finishes). A sampled run can only ever report `complete = false`,
/// but each sample carries a quantifiable bug-finding probability, and
/// any failure it finds yields the same replayable, shrinkable
/// certificate the exhaustive engines produce.
///
/// Every sampling strategy is fully seeded: the run set is a pure
/// function of the configuration, so reports are bit-identical for any
/// worker count and a failing seed reproduces forever.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Strategy {
    /// Enumerate the bounded space under the given reduction — the
    /// historical behaviour, and the default
    /// (`Exhaustive(Reduction::default())`, unbounded sleep sets).
    Exhaustive(Reduction),
    /// Probabilistic concurrency testing: random thread priorities at
    /// first sight plus `depth − 1` random priority-change points per
    /// run. A bug needing `d` ordering constraints is found with
    /// probability ≥ `1/(k·n^(d−1))` per sample (`k` threads, `n`
    /// scheduling decisions). `depth` ≥ 1; `depth = 1` is priority
    /// scheduling with no change points (the `sample` module).
    Pct {
        /// PCT bug depth `d`: the number of ordering constraints the
        /// sampler can force per run (`d − 1` priority-change points).
        depth: usize,
        /// Base seed of the sample stream.
        seed: u64,
    },
}

impl Default for Strategy {
    fn default() -> Self {
        Strategy::Exhaustive(Reduction::default())
    }
}

impl Strategy {
    /// `true` for the strategies that draw schedules instead of
    /// enumerating them (everything except [`Strategy::Exhaustive`]).
    pub fn is_sampling(&self) -> bool {
        !matches!(self, Strategy::Exhaustive(_))
    }
}

/// One driven execution: its result and console output — what a
/// program's behaviour is, and all that [`Reduction::Dpor`] preserves —
/// plus the run's statistics, I/O trace and schedule, which are
/// telemetry of the one schedule taken.
#[derive(Debug)]
pub struct RunOutcome<T> {
    /// What `Runtime::run` returned.
    pub result: Result<T, RunError>,
    /// Everything the program printed.
    pub output: String,
    /// Step counters for the run.
    pub(crate) stats: Stats,
    /// The run's I/O trace. The buffer goes back to the runner once
    /// the run is accounted, so a warm search copies into it without
    /// allocating.
    pub(crate) trace: Vec<IoEvent>,
    /// The complete schedule of the run — replaying it reproduces this
    /// outcome exactly.
    pub(crate) schedule: Schedule,
}

impl<T> RunOutcome<T> {
    /// The runtime's statistics for this run.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The run's I/O trace: what
    /// [`Runtime::io_trace`](conch_runtime::scheduler::Runtime::io_trace)
    /// read at its end.
    pub fn trace(&self) -> &[IoEvent] {
        &self.trace
    }
}

/// A boxed property over one execution: `Err(reason)` fails the check.
pub(crate) type Property<T> = Box<dyn FnOnce(&RunOutcome<T>) -> Result<(), String>>;

/// A program plus the property its executions must satisfy.
///
/// `Io` values are consumed by running them, so [`Explorer::check`]
/// takes a *factory* that builds a fresh `TestCase` per explored
/// schedule.
pub struct TestCase<T> {
    /// The program to run.
    pub(crate) program: Io<T>,
    /// Console input fed to the program before it starts.
    pub(crate) input: String,
    /// The property: `Err(reason)` fails the check for this schedule.
    pub(crate) check: Property<T>,
}

impl<T> TestCase<T> {
    /// Pair a program with a property.
    pub fn new(
        program: Io<T>,
        check: impl FnOnce(&RunOutcome<T>) -> Result<(), String> + 'static,
    ) -> Self {
        TestCase {
            program,
            input: String::new(),
            check: Box::new(check),
        }
    }

    /// The case with `input` queued on the console, for `getChar` to
    /// read (see
    /// [`Runtime::feed_input`](conch_runtime::scheduler::Runtime::feed_input)).
    pub fn input(mut self, input: impl Into<String>) -> Self {
        self.input = input.into();
        self
    }
}

/// Exploration limits and the base runtime configuration.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Stop after this many schedules; under a sampling
    /// [`Strategy`], the number of samples to draw. 0 = unlimited is
    /// not supported (use a large number) and is rejected by
    /// [`Explorer::with_config`].
    pub max_schedules: usize,
    /// Maximum branch points per run; beyond it choices are forced to
    /// defaults and the run counts as truncated.
    pub max_depth: usize,
    /// Step budget per run. A run that exhausts it counts as truncated
    /// (so the search is not `complete`), and its property still sees
    /// it: the outcome's `result` is
    /// [`RunError::StepLimitExceeded`], which a property that demands a
    /// value — [`props::returns`](crate::props::returns) — fails on.
    pub step_budget: u64,
    /// Base runtime configuration. `max_steps` is forced to
    /// `step_budget`, and the explorer's installed decider makes every
    /// scheduling decision, one step at a time.
    pub runtime: RuntimeConfig,
    /// How schedules are picked: exhaustive enumeration under a
    /// [`Reduction`], or seeded sampling (default
    /// `Exhaustive(Reduction::default())`). A preemption bound, when
    /// wanted, is a field of [`Reduction::SleepSets`].
    pub strategy: Strategy,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_schedules: 10_000,
            max_depth: 64,
            step_budget: 20_000,
            runtime: RuntimeConfig::new(),
            strategy: Strategy::default(),
        }
    }
}

/// Wall-clock telemetry for one exploration, split by phase: schedule
/// execution (`replay_seconds`) vs race analysis (`analysis_seconds`,
/// zero outside DPOR). Machine-dependent by nature, so it is excluded
/// from [`Report`] equality — the determinism contract covers the
/// counters, not the stopwatch.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    /// Seconds spent executing schedules, summed across workers: the
    /// [`Report::explored`] runs and nothing else (shrink replays are
    /// not timed).
    pub replay_seconds: f64,
    /// Seconds spent in vector-clock race analysis, summed across
    /// workers.
    pub analysis_seconds: f64,
}

impl PartialEq for Timing {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for Timing {}

/// What an exploration covered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// Schedules executed, under every strategy and reduction: each
    /// counted run was built by the factory and run once, and no run
    /// was executed that is not counted here (or, for a shrink
    /// candidate, in `shrink_runs`).
    pub explored: usize,
    /// Alternatives skipped by the sleep-set rule (each would have
    /// re-reached an already-explored state); under DPOR, the
    /// alternatives of each branch point that no run took.
    pub pruned: usize,
    /// Runs cut short by the depth or step budget.
    pub truncated: usize,
    /// Extra runs spent validating shrink candidates.
    pub shrink_runs: usize,
    /// Interpreter steps spent replaying shrink candidates, kept apart
    /// from `steps`. A ledger, not a setting: with `steps` it accounts
    /// for every step a search ran, which the decider-elision test in
    /// `worker.rs` checks step for step.
    pub shrink_steps: u64,
    /// Under a sampling [`Strategy`]: the index of the earliest failing
    /// sample (0-based), `None` on a pass or under exhaustive
    /// strategies. Deterministic for every worker count — workers drain
    /// the whole sample budget and the lowest index wins.
    pub first_failing_sample: Option<u64>,
    /// Total interpreter steps across all explored schedules — the
    /// deterministic cost measure of a search.
    pub steps: u64,
    /// Runtime statistics merged (via
    /// [`Stats::merge`](conch_runtime::stats::Stats::merge)) over every
    /// explored schedule: counters add, high-water marks take the max.
    /// Covers exploration runs only, not shrink replays.
    pub stats: Stats,
    /// Total fault-arm choices taken across all explored schedules: the
    /// number of `Choice::Arm(k)` branch points with `k > 0` (arm 0 is
    /// the no-fault arm by convention). A sum over the explored run
    /// set, so bit-identical for every worker count.
    pub faults_injected: u64,
    /// `true` iff the DFS exhausted the (bounded) schedule space with no
    /// run truncated — i.e. the verification is complete at this bound.
    pub complete: bool,
    /// Wall-clock telemetry (replay vs analysis seconds). Always equal
    /// under `==`: timing is measurement, not coverage.
    pub timing: Timing,
}

impl Report {
    /// How many times fewer schedules this exploration executed than
    /// `baseline` — the same workload explored under a weaker
    /// reduction: `baseline.explored / self.explored`. Kept as a method
    /// rather than a field so `Report` stays `Eq` (bit-comparable
    /// across worker counts in the determinism tests).
    pub fn reduction_ratio(&self, baseline: &Report) -> f64 {
        if self.explored == 0 {
            1.0
        } else {
            baseline.explored as f64 / self.explored as f64
        }
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "explored {} / pruned {} / truncated {} ({})",
            self.explored,
            self.pruned,
            self.truncated,
            if self.complete { "complete" } else { "partial" }
        )
    }
}

/// A property violation, with its replayable certificates.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Why the property failed (on the minimal schedule).
    pub message: String,
    /// The minimal failing schedule found by shrinking.
    pub schedule: Schedule,
    /// The original (unshrunk) failing schedule.
    pub original: Schedule,
    /// Coverage up to (and including) the failing run.
    pub report: Report,
}

/// Result of [`Explorer::check`].
#[derive(Debug)]
pub enum CheckResult {
    /// Every explored schedule satisfied the property.
    Passed(Box<Report>),
    /// Some schedule violated the property.
    Failed(Box<Failure>),
}

impl CheckResult {
    /// The failure, if any.
    pub fn failure(&self) -> Option<&Failure> {
        match self {
            CheckResult::Passed(_) => None,
            CheckResult::Failed(f) => Some(f),
        }
    }

    /// The coverage report (of the pass, or up to the failure).
    pub fn report(&self) -> &Report {
        match self {
            CheckResult::Passed(r) => r,
            CheckResult::Failed(f) => &f.report,
        }
    }

    /// Panic with the failure message unless the check passed.
    pub fn expect_pass(&self) -> &Report {
        match self {
            CheckResult::Passed(r) => r,
            CheckResult::Failed(f) => panic!(
                "property failed: {} (schedule {}, {})",
                f.message, f.schedule, f.report
            ),
        }
    }

    /// Panic unless the check failed; returns the failure.
    pub fn expect_fail(&self) -> &Failure {
        match self {
            CheckResult::Passed(r) => panic!("expected a property failure, but passed: {r}"),
            CheckResult::Failed(f) => f,
        }
    }
}

/// The exploration engine. See the crate docs for the model.
#[derive(Debug, Clone, Default)]
pub struct Explorer {
    config: ExploreConfig,
}

impl Explorer {
    /// An explorer with default bounds.
    pub fn new() -> Self {
        Explorer::with_config(ExploreConfig::default())
    }

    /// An explorer with explicit bounds.
    ///
    /// # Panics
    ///
    /// If the configuration is unusable, rather than exploring nothing
    /// and reporting `complete = true`:
    /// * `max_schedules == 0` (documented as unsupported);
    /// * `Strategy::Pct { depth: 0, .. }` (PCT needs at least one
    ///   priority level).
    pub fn with_config(config: ExploreConfig) -> Self {
        assert!(
            config.max_schedules >= 1,
            "ExploreConfig.max_schedules must be at least 1, got 0 \
             (a zero budget would explore nothing yet report complete)"
        );
        if let Strategy::Pct { depth, .. } = config.strategy {
            assert!(
                depth >= 1,
                "Strategy::Pct.depth must be at least 1, got 0 \
                 (PCT needs at least one priority level per run)"
            );
        }
        Explorer { config }
    }

    /// Explore the schedule space of the program produced by `factory`,
    /// checking each execution's property. On failure the schedule is
    /// shrunk to a minimal failing certificate. Under
    /// [`Reduction::Dpor`] this is also what
    /// [`check_parallel`](Explorer::check_parallel) runs.
    pub fn check<T, F>(&self, mut factory: F) -> CheckResult
    where
        T: FromValue,
        F: FnMut() -> TestCase<T>,
    {
        self.search(1, &mut factory, None)
    }

    /// [`Explorer::check`] fanned out over `workers` OS threads with
    /// prefix-based work stealing (see `DESIGN.md`). `workers = 0` means
    /// [`std::thread::available_parallelism`]; `workers = 1` is exactly
    /// [`Explorer::check`]; any other count is the number of threads
    /// spawned, whatever the host — counters and certificates are
    /// worker-count-independent, so oversubscribing a small machine
    /// costs wall-clock time, never a result.
    ///
    /// Under [`Reduction::Dpor`] `workers` is ignored: the search is
    /// [`Explorer::check`]'s, on the calling thread, because DPOR grows
    /// its backtrack sets on the stack of one depth-first search.
    ///
    /// Each worker owns its own runtime and driver and builds fresh
    /// `TestCase`s from `factory` (which is why, unlike `check`, the
    /// factory must be `Fn + Sync`) — programs and runtimes never cross
    /// threads; only plain-data schedule prefixes, counters and failure
    /// certificates do.
    ///
    /// # Determinism
    ///
    /// On a pass, `explored`/`pruned`/`truncated`/`steps`/`complete`
    /// are bit-identical for every worker count, because the work items
    /// partition the schedule space and the branch points of a run
    /// depend only on its own path. On a failure, the shrunk and
    /// original certificates and the message are bit-identical too (the
    /// DFS-earliest failing run wins, which is the run sequential
    /// search fails on); only the coverage counters in the failure's
    /// `report` may exceed the sequential ones, since other workers
    /// keep exploring DFS-earlier subtrees while the candidate stands.
    /// Likewise, when the global cap (`max_schedules`) binds
    /// mid-search, in-flight runs may overshoot it; whenever the
    /// search completes within its cap the counts are exact.
    pub fn check_parallel<T, F>(&self, workers: usize, factory: F) -> CheckResult
    where
        T: FromValue,
        F: Fn() -> TestCase<T> + Sync,
    {
        let workers = match workers {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        self.search(workers, &mut || factory(), Some(&factory))
    }

    /// The one search: turn the configured [`Strategy`] into an engine,
    /// run it on `workers` workers, and settle the verdict. A single
    /// worker runs inline on `factory` — the plain sequential search,
    /// with the same runs in the same order as ever, and no `Sync`
    /// asked of anything; more run on scoped threads, each building its
    /// cases from `shared`.
    fn search<T: FromValue>(
        &self,
        workers: usize,
        factory: &mut dyn FnMut() -> TestCase<T>,
        shared: Option<&(dyn Fn() -> TestCase<T> + Sync)>,
    ) -> CheckResult {
        type Engine<'e, T> = dyn Fn(&mut Worker<'_>, &mut dyn FnMut() -> TestCase<T>) + Sync + 'e;
        // DPOR grows its backtrack sets on the stack of one DFS.
        let workers = match self.config.strategy {
            Strategy::Exhaustive(Reduction::Dpor) => 1,
            _ => workers,
        };
        let frontier = Frontier::new(workers);
        let mut fan_out = |engine: &Engine<'_, T>| {
            let work = |factory: &mut dyn FnMut() -> TestCase<T>| {
                let mut worker = Worker::new(&self.config, &frontier);
                engine(&mut worker, factory);
                worker.finish();
            };
            match shared {
                Some(shared) if workers > 1 => std::thread::scope(|s| {
                    let spawned: Vec<_> = (0..workers)
                        .map(|_| s.spawn(|| work(&mut || shared())))
                        .collect();
                    // Re-raise a worker's own panic (its peers have been
                    // told to stop) rather than the scope's generic one.
                    for handle in spawned {
                        if let Err(panic) = handle.join() {
                            std::panic::resume_unwind(panic);
                        }
                    }
                }),
                _ => work(&mut *factory),
            }
        };
        let report = match &self.config.strategy {
            Strategy::Exhaustive(Reduction::Dpor) => {
                fan_out(&|w, factory| dpor_worker(w, factory));
                frontier.report()
            }
            Strategy::Exhaustive(Reduction::SleepSets { .. }) => {
                fan_out(&|w, factory| sleep_set_worker(w, factory));
                frontier.report()
            }
            Strategy::Pct { .. } => {
                let samples = Samples::default();
                fan_out(&|w, factory| sample_worker(w, factory, &samples));
                // Distinctness is read off the shared hash set, not
                // summed per worker — the same sampled schedule counted
                // once.
                let mut report = frontier.report();
                report.stats.distinct_schedules = samples.distinct();
                report
            }
        };
        self.finalize(&frontier, report, factory)
    }

    /// Turn a finished search into a [`CheckResult`], shrinking the
    /// surviving failure candidate if there is one.
    fn finalize<T: FromValue>(
        &self,
        frontier: &Frontier,
        mut report: Report,
        factory: &mut dyn FnMut() -> TestCase<T>,
    ) -> CheckResult {
        let sampling = self.config.strategy.is_sampling();
        let Some(candidate) = frontier.take_failure() else {
            // A sampled pass never certifies the space: samples are
            // draws, not an enumeration.
            report.complete = !sampling && !frontier.is_stopped() && report.truncated == 0;
            return CheckResult::Passed(Box::new(report));
        };
        if sampling {
            report.first_failing_sample = Some(sample_index(&candidate.key));
        }
        let original = candidate.schedule;
        let (schedule, message) =
            self.shrink(factory, original.clone(), candidate.message, &mut report);
        CheckResult::Failed(Box::new(Failure {
            message,
            schedule,
            original,
            report,
        }))
    }

    /// Replay a schedule byte-for-byte in a fresh `Runtime` and apply the
    /// case's property. Choices past the end of the schedule (or that no
    /// longer fit, after shrinking spliced the list) fall back to
    /// deterministic defaults.
    pub fn replay<T: FromValue>(
        &self,
        case: TestCase<T>,
        schedule: &Schedule,
    ) -> (RunOutcome<T>, Result<(), String>) {
        let mut runner = Runner::new(&self.config);
        runner.load(schedule);
        runner.run(case)
    }

    /// Greedily shrink a failing schedule: first the shortest failing
    /// prefix, then repeated single-choice deletion, each candidate
    /// validated by a full replay.
    fn shrink<T: FromValue>(
        &self,
        factory: &mut dyn FnMut() -> TestCase<T>,
        original: Schedule,
        original_message: String,
        report: &mut Report,
    ) -> (Schedule, String) {
        let mut runner = Runner::new(&self.config);
        let mut best = original;
        let mut best_message = original_message;
        let budget = MAX_SHRINK_RUNS;

        let mut fails = |sched: &Schedule, report: &mut Report| -> Option<String> {
            report.shrink_runs += 1;
            runner.load(sched);
            let (outcome, verdict) = runner.run(factory());
            report.shrink_steps += outcome.stats.steps;
            runner.take_back(outcome.trace);
            verdict.err()
        };

        // Phase 1: shortest failing prefix.
        for len in 0..best.len() {
            if report.shrink_runs >= budget {
                return (best, best_message);
            }
            let prefix = Schedule::from(best.choices[..len].to_vec());
            if let Some(msg) = fails(&prefix, report) {
                best = prefix;
                best_message = msg;
                break;
            }
        }

        // Phase 2: delete single choices until a fixpoint.
        loop {
            let mut improved = false;
            let mut i = 0;
            while i < best.len() {
                if report.shrink_runs >= budget {
                    return (best, best_message);
                }
                let mut candidate = best.clone();
                candidate.choices.remove(i);
                match fails(&candidate, report) {
                    Some(msg) => {
                        best = candidate;
                        best_message = msg;
                        improved = true;
                    }
                    None => i += 1,
                }
            }
            if !improved {
                return (best, best_message);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conch_runtime::exception::Exception;
    use std::cell::RefCell;
    use std::collections::BTreeSet;
    use std::rc::Rc;

    /// fork (putChar 'b'); putChar 'a'; sleep 1 — the classic two-way
    /// output race.
    fn race_program() -> Io<()> {
        Io::fork(Io::put_char('b'))
            .then(Io::put_char('a'))
            .then(Io::sleep(1))
    }

    #[test]
    fn explores_both_orders_of_a_two_thread_race() {
        let seen = Rc::new(RefCell::new(BTreeSet::new()));
        let result = Explorer::new().check(|| {
            let seen = Rc::clone(&seen);
            TestCase::new(race_program(), move |out: &RunOutcome<()>| {
                seen.borrow_mut().insert(out.output.clone());
                Ok(())
            })
        });
        let report = result.expect_pass();
        assert!(report.complete, "small race should be fully explored");
        let seen = seen.borrow();
        assert!(seen.contains("ab") && seen.contains("ba"), "saw {seen:?}");
    }

    #[test]
    fn failing_schedule_replays_deterministically() {
        let explorer = Explorer::new();
        let result = explorer.check(|| {
            TestCase::new(race_program(), |out: &RunOutcome<()>| {
                if out.output == "ba" {
                    Err(format!("child won: {:?}", out.output))
                } else {
                    Ok(())
                }
            })
        });
        let failure = result.expect_fail();
        // The certificate replays to the same failing output in a brand
        // new Runtime — twice.
        for _ in 0..2 {
            let case = TestCase::new(race_program(), |out: &RunOutcome<()>| {
                if out.output == "ba" {
                    Err("child won".to_owned())
                } else {
                    Ok(())
                }
            });
            let (outcome, check) = explorer.replay(case, &failure.schedule);
            assert_eq!(outcome.output, "ba");
            assert!(check.is_err());
        }
        // And the serialized form round-trips.
        let parsed: Schedule = failure.schedule.to_string().parse().unwrap();
        assert_eq!(parsed, failure.schedule);
    }

    #[test]
    fn shrinking_minimizes_the_certificate() {
        let explorer = Explorer::new();
        let result = explorer.check(|| {
            TestCase::new(race_program(), |out: &RunOutcome<()>| {
                if out.output == "ba" {
                    Err("child won".to_owned())
                } else {
                    Ok(())
                }
            })
        });
        let failure = result.expect_fail();
        assert!(
            failure.schedule.len() <= failure.original.len(),
            "shrunk {} > original {}",
            failure.schedule,
            failure.original
        );
        // Every choice in the minimal schedule is necessary: deleting any
        // one of them makes the failure disappear.
        for i in 0..failure.schedule.len() {
            let mut cand = failure.schedule.clone();
            cand.choices.remove(i);
            let case = TestCase::new(race_program(), |out: &RunOutcome<()>| {
                if out.output == "ba" {
                    Err("child won".to_owned())
                } else {
                    Ok(())
                }
            });
            let (_, check) = explorer.replay(case, &cand);
            assert!(
                check.is_ok(),
                "choice {i} of {} is redundant",
                failure.schedule
            );
        }
    }

    #[test]
    fn delivery_points_are_both_explored() {
        // main masks, forks a child that throws back, then unmasks and
        // loops briefly: the exploration must cover both delivering at
        // the first opportunity and deferring.
        let outcomes = Rc::new(RefCell::new(BTreeSet::new()));
        let prog = || {
            Io::my_thread_id().and_then(|me| {
                Io::fork(Io::throw_to(me, Exception::kill_thread()))
                    .then(Io::put_char('x'))
                    .then(Io::put_char('y'))
                    .map(|_| 0i64)
                    .catch(|_| Io::pure(1i64))
            })
        };
        let result = Explorer::new().check(|| {
            let outcomes = Rc::clone(&outcomes);
            TestCase::new(prog(), move |out: &RunOutcome<i64>| {
                outcomes
                    .borrow_mut()
                    .insert((out.result.clone().ok(), out.output.clone()));
                Ok(())
            })
        });
        result.expect_pass();
        let outcomes = outcomes.borrow();
        // Depending on where the exception lands, the handler runs after
        // zero, one, or two characters (or the kill never lands before
        // the program finishes).
        assert!(outcomes.len() >= 2, "only saw {outcomes:?}");
    }

    #[test]
    fn sleep_sets_prune_independent_interleavings() {
        // Two children touching *different* MVars are independent; sleep
        // sets must skip at least one redundant interleaving.
        let prog = || {
            Io::new_empty_mvar::<i64>().and_then(|a| {
                Io::new_empty_mvar::<i64>().and_then(move |b| {
                    Io::fork(a.put(1))
                        .then(Io::fork(b.put(2)))
                        .then(a.take())
                        .and_then(move |x| b.take().map(move |y| x + y))
                })
            })
        };
        let result = Explorer::new().check(|| {
            TestCase::new(prog(), |out: &RunOutcome<i64>| match &out.result {
                Ok(3) => Ok(()),
                other => Err(format!("expected Ok(3), got {other:?}")),
            })
        });
        let report = result.expect_pass();
        assert!(report.complete);
        assert!(report.pruned > 0, "no pruning happened: {report}");
    }

    #[test]
    fn depth_budget_marks_runs_truncated() {
        let cfg = ExploreConfig {
            max_depth: 0,
            ..ExploreConfig::default()
        };
        let result = Explorer::with_config(cfg)
            .check(|| TestCase::new(race_program(), |_: &RunOutcome<()>| Ok(())));
        let report = result.expect_pass();
        assert!(report.truncated > 0);
        assert!(!report.complete);
    }

    #[test]
    fn input_trace_and_stats_reach_the_property_on_every_run() {
        // Two readers race for the two fed characters: each run reads
        // both, in either order, and its trace and statistics say so.
        let seen = Rc::new(RefCell::new(BTreeSet::new()));
        let result = Explorer::new().check(|| {
            let seen = Rc::clone(&seen);
            let prog = Io::fork(Io::get_char().and_then(Io::put_char))
                .then(Io::get_char())
                .and_then(Io::put_char)
                .then(Io::sleep(1));
            TestCase::new(prog, move |out: &RunOutcome<()>| {
                let gets = out.trace().iter().filter(|e| matches!(e, IoEvent::Get(_)));
                match (gets.count(), out.stats().forks) {
                    (2, 1) => {
                        seen.borrow_mut().insert(out.output.clone());
                        Ok(())
                    }
                    other => Err(format!("gets and forks {other:?}")),
                }
            })
            .input("xy")
        });
        assert!(result.expect_pass().complete);
        let seen: Vec<_> = seen.borrow().iter().cloned().collect();
        assert_eq!(seen, ["xy", "yx"]);
    }

    #[test]
    fn a_step_budget_overrun_is_truncated_and_seen_by_the_property() {
        let cfg = ExploreConfig {
            step_budget: 100,
            ..ExploreConfig::default()
        };
        let spin = || Io::compute_returning(1_000, 7_i64);
        let report = Explorer::with_config(cfg.clone())
            .check(|| TestCase::new(spin(), |_: &RunOutcome<i64>| Ok(())))
            .expect_pass()
            .clone();
        assert_eq!((report.explored, report.truncated), (1, 1));
        assert!(!report.complete);
        let failure = Explorer::with_config(cfg)
            .check(|| TestCase::new(spin(), crate::props::returns(7)))
            .expect_fail()
            .clone();
        assert_eq!(
            failure.message,
            "expected Ok(7), got Err(StepLimitExceeded { limit: 100 })"
        );
    }

    #[test]
    fn schedule_cap_stops_exploration_incomplete() {
        let cfg = ExploreConfig {
            max_schedules: 1,
            ..ExploreConfig::default()
        };
        let result = Explorer::with_config(cfg)
            .check(|| TestCase::new(race_program(), |_: &RunOutcome<()>| Ok(())));
        let report = result.expect_pass();
        assert_eq!(report.explored, 1);
        assert!(!report.complete);
    }

    #[test]
    #[should_panic(expected = "max_schedules")]
    fn zero_schedule_budget_is_rejected_at_construction() {
        // Previously accepted silently: explored nothing, reported
        // complete = true.
        let _ = Explorer::with_config(ExploreConfig {
            max_schedules: 0,
            ..ExploreConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn zero_pct_depth_is_rejected_at_construction() {
        let _ = Explorer::with_config(ExploreConfig {
            strategy: Strategy::Pct { depth: 0, seed: 1 },
            ..ExploreConfig::default()
        });
    }

    #[test]
    fn pct_sampling_finds_the_race_and_certifies_it() {
        let cfg = ExploreConfig {
            max_schedules: 64,
            strategy: Strategy::Pct {
                depth: 3,
                seed: 0xC0FFEE,
            },
            ..ExploreConfig::default()
        };
        let explorer = Explorer::with_config(cfg);
        let result = explorer.check(|| {
            TestCase::new(race_program(), |out: &RunOutcome<()>| {
                if out.output == "ba" {
                    Err("child won".to_owned())
                } else {
                    Ok(())
                }
            })
        });
        let failure = result.expect_fail();
        let sample = failure
            .report
            .first_failing_sample
            .expect("sampled failures carry their sample index");
        assert!(sample < 64, "index within the budget, got {sample}");
        // The sampled certificate is byte-compatible with the
        // exhaustive machinery: a default (exhaustive) explorer replays
        // both the original and the shrunk schedule to the failure.
        for schedule in [&failure.original, &failure.schedule] {
            let case = TestCase::new(race_program(), |out: &RunOutcome<()>| {
                if out.output == "ba" {
                    Err("child won".to_owned())
                } else {
                    Ok(())
                }
            });
            let (outcome, check) = Explorer::new().replay(case, schedule);
            assert_eq!(outcome.output, "ba");
            assert!(check.is_err());
        }
    }

    #[test]
    fn sampling_reports_draws_not_coverage() {
        for strategy in [
            Strategy::Pct { depth: 1, seed: 7 },
            Strategy::Pct { depth: 2, seed: 7 },
        ] {
            let cfg = ExploreConfig {
                max_schedules: 32,
                strategy,
                ..ExploreConfig::default()
            };
            let result = Explorer::with_config(cfg)
                .check(|| TestCase::new(race_program(), |_: &RunOutcome<()>| Ok(())));
            let report = result.expect_pass();
            assert_eq!(report.explored, 32, "the sample budget is drained");
            assert_eq!(report.stats.sampled, 32);
            assert!(!report.complete, "samples are draws, not an enumeration");
            let distinct = report.stats.distinct_schedules;
            assert!(
                (1..=32).contains(&distinct),
                "distinct_schedules out of range: {distinct}"
            );
            assert_eq!(report.pruned, 0, "sampling never prunes");
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let check = |seed: u64| {
            let cfg = ExploreConfig {
                max_schedules: 48,
                strategy: Strategy::Pct { depth: 2, seed },
                ..ExploreConfig::default()
            };
            Explorer::with_config(cfg).check(|| {
                TestCase::new(race_program(), |out: &RunOutcome<()>| {
                    if out.output == "ba" {
                        Err("child won".to_owned())
                    } else {
                        Ok(())
                    }
                })
            })
        };
        let (a, b) = (check(11), check(11));
        let (fa, fb) = (a.expect_fail(), b.expect_fail());
        assert_eq!(fa.original, fb.original, "same seed, same failing run");
        assert_eq!(fa.schedule, fb.schedule);
        assert_eq!(fa.report, fb.report);
    }

    #[test]
    fn preemption_bound_zero_still_finds_non_preemptive_schedules() {
        let cfg = ExploreConfig {
            strategy: Strategy::Exhaustive(Reduction::SleepSets {
                preemption_bound: Some(0),
            }),
            ..ExploreConfig::default()
        };
        let seen = Rc::new(RefCell::new(BTreeSet::new()));
        let result = Explorer::with_config(cfg).check(|| {
            let seen = Rc::clone(&seen);
            TestCase::new(race_program(), move |out: &RunOutcome<()>| {
                seen.borrow_mut().insert(out.output.clone());
                Ok(())
            })
        });
        result.expect_pass();
        // With zero preemptions the scheduler may still switch at blocking
        // points, so "ab" (main runs to its sleep, then child) survives.
        assert!(seen.borrow().contains("ab"), "saw {:?}", seen.borrow());
    }
}
