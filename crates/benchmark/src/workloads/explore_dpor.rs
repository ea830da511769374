//! `explore_dpor` — `Explorer::check` under exhaustive DPOR, one
//! worker, to completion on four programs: three that must pass on
//! every schedule and one seeded bug that must fail and shrink.
//!
//! The op is the *verdict*, not the schedule: a user waits for a
//! correct answer, so a sharper reduction that reaches it through fewer
//! schedules scores higher. Schedule counts are reported, not asserted.

use conch_explore::{
    CheckResult, ExploreConfig, Explorer, Reduction, RunOutcome, Strategy, TestCase,
};
use conch_runtime::RunError;

use super::programs::{broken_bracket, log_fanin, pipeline, three_thread_throwto};
use super::{Explored, Rep, Rng, Size, Workload};
use crate::span::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Space {
    LogFanin,
    Pipeline,
    ThreeThread,
    BrokenBracket,
}

struct ExploreDpor {
    /// The four explorations in seeded order.
    order: Vec<Space>,
    /// What each fan-in producer contributes.
    fanin_values: Vec<i64>,
    pipeline_value: i64,
    addends: (i64, i64),
    /// The characters the broken bracket prints on acquire / release.
    marks: (char, char),
}

pub fn make(seed: u64, size: Size) -> Box<dyn Workload> {
    let mut rng = Rng::new(seed, 6);
    let mut order = vec![
        Space::LogFanin,
        Space::Pipeline,
        Space::ThreeThread,
        Space::BrokenBracket,
    ];
    rng.shuffle(&mut order);
    let acquire = (b'a' + rng.below(13) as u8) as char;
    let release = (b'n' + rng.below(13) as u8) as char;
    Box::new(ExploreDpor {
        order,
        fanin_values: (0..size.pick(FANIN_PRODUCERS, 2))
            .map(|_| rng.between(1, 1_000) as i64)
            .collect(),
        pipeline_value: rng.between(1, 1_000) as i64,
        addends: (rng.between(1, 9) as i64, rng.between(10, 99) as i64),
        marks: (acquire, release),
    })
}

/// Log fan-in at 3 producers and 3 log writes is ~1 600 schedules under
/// DPOR; a fourth producer multiplies that by 13 and would make one
/// exploration most of a second — too long a rep for the fastest of a
/// run's reps to dodge a busy neighbour on a shared host.
const FANIN_PRODUCERS: usize = 3;
const FANIN_LOGS: u64 = 3;

fn config() -> ExploreConfig {
    ExploreConfig {
        max_schedules: 2_000_000,
        strategy: Strategy::Exhaustive(Reduction::Dpor),
        ..ExploreConfig::default()
    }
}

/// Fails a schedule whose run ended neither in one of `allowed` nor —
/// where the program has schedules that legally wedge — in a deadlock.
fn result_in(
    allowed: Vec<i64>,
    may_deadlock: bool,
) -> impl Fn(&RunOutcome<i64>) -> Result<(), String> {
    move |out| match &out.result {
        Ok(v) if allowed.contains(v) => Ok(()),
        Err(RunError::Deadlock { .. }) if may_deadlock => Ok(()),
        other => Err(format!("result {other:?} not in {allowed:?}")),
    }
}

impl ExploreDpor {
    /// One exploration. The program factory is the benchmark's own
    /// code running inside the explorer's loop, so it is timed as a
    /// callback and reported as `explore.factory_share`.
    fn explore(&self, space: Space, tracer: &Tracer) -> CheckResult {
        let explorer = Explorer::with_config(config());
        match space {
            Space::LogFanin => {
                let values = self.fanin_values.clone();
                let want: i64 = values.iter().sum();
                explorer.check(|| {
                    tracer.callback("factory", || {
                        TestCase::new(
                            log_fanin(values.clone(), FANIN_LOGS),
                            result_in(vec![want], false),
                        )
                    })
                })
            }
            Space::Pipeline => {
                // Either both stages add one, or the killed first stage
                // forwards -1 and the second adds one to that, or the
                // kill lands before the first stage installs its
                // handler and the pipeline wedges.
                let v = self.pipeline_value;
                explorer.check(|| {
                    tracer.callback("factory", || {
                        TestCase::new(pipeline(2, v), result_in(vec![v + 2, 0], true))
                    })
                })
            }
            Space::ThreeThread => {
                // A kill between worker 1's take and put empties the
                // MVar for good; that deadlock is a legal outcome of
                // this program, so only the explorer's completion is
                // checked, as in the bench row this restates.
                let (a, b) = self.addends;
                explorer.check(|| {
                    tracer.callback("factory", || {
                        TestCase::new(three_thread_throwto(a, b), |_: &RunOutcome<i64>| Ok(()))
                    })
                })
            }
            Space::BrokenBracket => {
                let (acquire, release) = self.marks;
                explorer.check(|| {
                    tracer.callback("factory", || {
                        TestCase::new(
                            broken_bracket(acquire, release),
                            move |out: &RunOutcome<i64>| {
                                let a = out.output.matches(acquire).count();
                                let r = out.output.matches(release).count();
                                if a == r {
                                    Ok(())
                                } else {
                                    Err(format!("leak: acquired {a}, released {r}"))
                                }
                            },
                        )
                    })
                })
            }
        }
    }
}

impl Workload for ExploreDpor {
    fn rep(&self, tracer: &Tracer) -> Rep {
        {
            // Programs are built per schedule, inside `run`, by the
            // factory; all there is to build up front is the config.
            let _s = tracer.span("build");
            std::hint::black_box(config());
        }
        let results: Vec<(Space, CheckResult)> = {
            let _s = tracer.span("run");
            self.order
                .iter()
                .map(|space| (*space, self.explore(*space, tracer)))
                .collect()
        };
        let _s = tracer.span("verify");
        let mut rep = Rep {
            ops: results.len() as u64,
            ..Rep::default()
        };
        let mut explored = Explored::default();
        for (space, result) in &results {
            let report = result.report();
            explored.add(report);
            rep.stats.merge(&report.stats);
            let ok = match (space, result) {
                (Space::BrokenBracket, CheckResult::Failed(f)) => {
                    f.message.starts_with("leak")
                        && f.schedule.len() <= f.original.len()
                        && report.shrink_runs > 0
                }
                (Space::BrokenBracket, CheckResult::Passed(_)) => false,
                (_, CheckResult::Passed(report)) => report.complete && report.truncated == 0,
                (_, CheckResult::Failed(_)) => false,
            };
            if !rep.check(ok, || {
                format!(
                    "explore_dpor: wrong verdict on {space:?}: {} ({report})",
                    result
                        .failure()
                        .map_or("passed".to_owned(), |f| f.message.clone())
                )
            }) {
                rep.failed += 1;
            }
        }
        rep.explored = Some(explored);
        rep
    }
}
