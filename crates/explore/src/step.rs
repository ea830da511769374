//! One step of a run as both exhaustive engines see it, and the one
//! dependence relation over such steps.
//!
//! A [`Step`] is what the runtime reports of a thread's next step
//! ([`ThreadView`]): its thread, its footprint, which blocking `MVar`
//! operation it is, and the wait it cancels when it is a throw at a
//! stuck thread. It is a branch point's candidate
//! ([`Alt`](crate::driver::Alt)), a sleep-set entry, and a logged
//! event of the DPOR race analysis
//! ([`ExecEvent`](crate::clocks::ExecEvent)). [`dependent`] decides,
//! for both engines, whether two steps of different threads may fail
//! to commute: sleep sets wake an entry when a dependent step executes
//! (`driver::note_exec`), and DPOR reverses dependent steps that are
//! not happens-before ordered (`clocks`). DESIGN.md §3.5 proves each
//! rule.

use conch_runtime::decide::{MVarOp, StepFootprint, ThreadView};
use conch_runtime::ids::MVarId;

/// One thread's step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Step {
    /// The spawn sequence number [`ThreadId::index`] widens: kept at
    /// its own width so a branch point's candidates stay small.
    ///
    /// [`ThreadId::index`]: conch_runtime::ids::ThreadId::index
    tid: u32,
    /// What the step touches.
    pub(crate) fp: StepFootprint,
    /// A blocking `takeMVar` / `putMVar` by a thread with no exception
    /// pending. `None` for every other step, and for one taken with an
    /// exception pending: that step may be interrupted instead of
    /// blocking (§5.3), or take from a full cell with no delivery point.
    pub(crate) op: Option<MVarOp>,
    /// For a `throwTo` at a stuck thread: the wait it cancels
    /// ([`ThreadView::cancels`]).
    wait: Option<Wait>,
}

/// [`ThreadView::cancels`] at half the width of a footprint, so a step
/// fits in 32 bytes: a branch point records one per candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wait {
    MVar(u32),
    Time,
    Console,
    Effect,
}

impl Wait {
    fn of(fp: StepFootprint) -> Wait {
        match fp {
            StepFootprint::MVar(m) => {
                Wait::MVar(u32::try_from(m.index()).expect("fewer than 2^32 MVars in a run"))
            }
            StepFootprint::Time => Wait::Time,
            StepFootprint::Console => Wait::Console,
            _ => Wait::Effect,
        }
    }

    fn footprint(self) -> StepFootprint {
        match self {
            Wait::MVar(i) => StepFootprint::MVar(MVarId::from_index(u64::from(i))),
            Wait::Time => StepFootprint::Time,
            Wait::Console => StepFootprint::Console,
            Wait::Effect => StepFootprint::Effect,
        }
    }
}

impl Step {
    /// A step with no operation and no cancelled wait.
    pub(crate) fn new(tid: u64, fp: StepFootprint) -> Step {
        Step {
            tid: tid as u32,
            fp,
            op: None,
            wait: None,
        }
    }

    /// The next step of the thread `view` shows.
    pub(crate) fn of(view: &ThreadView) -> Step {
        Step {
            op: view.mvar_op.filter(|_| view.pending == 0),
            wait: view.cancels.map(Wait::of),
            ..Step::new(view.tid.index(), view.footprint)
        }
    }

    pub(crate) fn tid(&self) -> u64 {
        self.tid as u64
    }

    /// The wait a throw at a stuck thread cancels.
    pub(crate) fn cancels(&self) -> Option<StepFootprint> {
        self.wait.map(Wait::footprint)
    }
}

impl Default for Step {
    fn default() -> Self {
        Step::new(0, StepFootprint::Local)
    }
}

/// Main's exit: the step that ends the program. It is the one rule the
/// two engines read differently, because they preserve different
/// things.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MainExit {
    /// The main thread.
    pub(crate) tid: u64,
    /// DPOR preserves main's result and the console output only, and
    /// its default choice runs the exit last: the exit is dependent on
    /// console steps alone. Under sleep sets the exit is dependent on
    /// every step, so how far the other threads got shows in each
    /// run's trace and statistics, which properties read.
    pub(crate) console_only: bool,
}

/// May two steps of different threads fail to commute? Must
/// over-approximate: a pair it calls independent must reach the same
/// state in either order, up to run-queue order and thread-slot
/// numbering, and neither may disable the other.
pub(crate) fn dependent(a: &Step, b: &Step, exit: MainExit) -> bool {
    debug_assert_ne!(a.tid, b.tid);
    acts_on(a, b, exit) || acts_on(b, a, exit) || same_resource(a, b)
}

/// The rules that single out one of the two steps: `a` reaches `b`.
fn acts_on(a: &Step, b: &Step, exit: MainExit) -> bool {
    use StepFootprint::*;
    match a.fp {
        // Arbitrary host code.
        Effect => true,
        // A throw acts on its target only (§6's ⌈t ⇐ e⌉): it conflicts
        // with the target's steps and other throws at it, and — when
        // the target is stuck — with the steps on the wait it cancels.
        Throw(t) => {
            t.index() == b.tid()
                || b.fp == a.fp
                || a.cancels().is_some_and(|w| w == Effect || w == b.fp)
        }
        Terminal if a.tid() == exit.tid => !exit.console_only || b.fp == Console,
        _ => false,
    }
}

/// Two steps on one resource. A blocking take and a blocking put on one
/// cell commute under FIFO hand-off.
fn same_resource(a: &Step, b: &Step) -> bool {
    use StepFootprint::*;
    match (a.fp, b.fp) {
        (MVar(x), MVar(y)) => x == y && !matches!((a.op, b.op), (Some(p), Some(q)) if p != q),
        (Alloc, Alloc) | (Console, Console) | (Time, Time) | (Fork, Fork) => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conch_runtime::ids::ThreadId;
    use StepFootprint::*;

    const DPOR: MainExit = MainExit {
        tid: 0,
        console_only: true,
    };
    const SLEEP_SETS: MainExit = MainExit {
        tid: 0,
        console_only: false,
    };

    fn m(i: u64) -> StepFootprint {
        MVar(MVarId::from_index(i))
    }

    fn t(i: u64) -> ThreadId {
        ThreadId::from_index(i)
    }

    /// Every footprint, in the order of [`PLAIN`]'s rows and columns.
    fn palette() -> [StepFootprint; 13] {
        [
            Local,
            Mask,
            Raise,
            Oracle,
            Terminal,
            m(1),
            m(2),
            Alloc,
            Console,
            Time,
            Fork,
            Throw(t(9)),
            Effect,
        ]
    }

    /// Steps of threads 1 and 2 — neither main, neither thrown at —
    /// with no operation and no cancelled wait: `x` is dependent.
    const PLAIN: [&str; 13] = [
        "            x", // Local
        "            x", // Mask
        "            x", // Raise
        "            x", // Oracle
        "            x", // Terminal
        "     x      x", // MVar(1)
        "      x     x", // MVar(2)
        "       x    x", // Alloc
        "        x   x", // Console
        "         x  x", // Time
        "          x x", // Fork
        "           xx", // Throw(9)
        "xxxxxxxxxxxxx", // Effect
    ];

    fn view(tid: u64, fp: StepFootprint) -> ThreadView {
        ThreadView {
            tid: t(tid),
            footprint: fp,
            pending: 0,
            masked: false,
            mvar_op: None,
            cancels: None,
        }
    }

    /// Every view the runtime can report of one of threads 0 (main),
    /// 1 and 2: each footprint, each operation an `MVar` step can
    /// carry, nothing or something pending, and each wait a throw can
    /// cancel.
    fn views() -> Vec<ThreadView> {
        let waits = [None, Some(m(1)), Some(m(2)), Some(Console), Some(Time)];
        let mut all = Vec::new();
        for tid in 0..3 {
            let fps = palette().into_iter().chain((0..3).map(|u| Throw(t(u))));
            for fp in fps {
                let ops: &[Option<MVarOp>] = match fp {
                    MVar(_) => &[None, Some(MVarOp::Take), Some(MVarOp::Put)],
                    _ => &[None],
                };
                let cancels: &[Option<StepFootprint>] = match fp {
                    Throw(_) => &waits,
                    _ => &[None],
                };
                for (&mvar_op, &cancels, pending) in ops
                    .iter()
                    .flat_map(|op| cancels.iter().map(move |c| (op, c)))
                    .flat_map(|(op, c)| [0, 1].map(|p| (op, c, p)))
                {
                    all.push(ThreadView {
                        pending,
                        mvar_op,
                        cancels,
                        ..view(tid, fp)
                    });
                }
            }
        }
        all.extend([0, 1, 2].map(|tid| ThreadView {
            cancels: Some(Effect),
            ..view(tid, Throw(t(9)))
        }));
        all
    }

    #[test]
    fn the_relation_is_symmetric_over_every_pair_of_views_and_exit_rule() {
        let views = views();
        let mut pairs = 0;
        for a in &views {
            for b in views.iter().filter(|b| b.tid != a.tid) {
                let (a, b) = (Step::of(a), Step::of(b));
                for exit in [DPOR, SLEEP_SETS] {
                    assert_eq!(
                        dependent(&a, &b, exit),
                        dependent(&b, &a, exit),
                        "{a:?} / {b:?} under {exit:?}"
                    );
                    pairs += 1;
                }
            }
        }
        assert!(pairs > 50_000, "only {pairs} pairs");
    }

    #[test]
    fn footprints_conflict_on_one_resource_or_an_effect() {
        let fps = palette();
        for (row, a) in PLAIN.iter().zip(fps) {
            for (col, b) in row.chars().zip(fps) {
                for exit in [DPOR, SLEEP_SETS] {
                    let got = dependent(&Step::new(1, a), &Step::new(2, b), exit);
                    assert_eq!(got, col == 'x', "{a:?} / {b:?} under {exit:?}");
                }
            }
        }
    }

    /// A throw acts on its target and its target's other throwers, and
    /// on the resource a stuck target's cancelled wait names.
    #[test]
    fn a_throw_reaches_its_target_and_the_wait_it_cancels() {
        let at_2 = Step::new(1, Throw(t(2)));
        for fp in palette() {
            assert!(dependent(&at_2, &Step::new(2, fp), DPOR), "{fp:?}");
        }
        assert!(dependent(&at_2, &Step::new(3, Throw(t(2))), DPOR));
        // A throw at thread 9 is the `PLAIN` row `Throw(9)`, plus the
        // resource of the wait it cancels.
        let fps = palette();
        for wait in [m(1), Console, Time, Effect] {
            let cancels = Step::of(&ThreadView {
                cancels: Some(wait),
                ..view(1, Throw(t(9)))
            });
            for (col, fp) in PLAIN[11].chars().zip(fps) {
                let expected = col == 'x' || wait == Effect || fp == wait;
                for exit in [DPOR, SLEEP_SETS] {
                    let got = dependent(&cancels, &Step::new(3, fp), exit);
                    assert_eq!(got, expected, "cancels {wait:?} / {fp:?}");
                }
            }
        }
    }

    /// Main's exit: console steps only under DPOR, everything under
    /// sleep sets. Any other thread's exit is a plain `Terminal` row.
    #[test]
    fn mains_exit_reads_the_exit_rule() {
        let exit = Step::new(0, Terminal);
        for fp in palette() {
            let other = Step::new(1, fp);
            let console = matches!(fp, Console | Effect);
            assert_eq!(dependent(&exit, &other, DPOR), console, "{fp:?}");
            assert!(dependent(&exit, &other, SLEEP_SETS), "{fp:?}");
        }
        // Main's exit is only main's terminal.
        let not_main = MainExit {
            tid: 5,
            ..SLEEP_SETS
        };
        assert!(!dependent(&exit, &Step::new(1, Console), not_main));
    }

    /// Only a blocking take against a blocking put on one cell commutes,
    /// and only with nothing pending on either side.
    #[test]
    fn only_a_take_and_a_put_with_nothing_pending_commute() {
        use MVarOp::{Put, Take};
        let on = |tid, fp, op, pending| {
            Step::of(&ThreadView {
                mvar_op: op,
                pending,
                ..view(tid, fp)
            })
        };
        for (x, y, pa, pb, apart) in [
            (Some(Take), Some(Put), 0, 0, true),
            (Some(Take), Some(Put), 1, 0, false),
            (Some(Take), Some(Put), 0, 1, false),
            (Some(Take), Some(Take), 0, 0, false),
            (Some(Put), Some(Put), 0, 0, false),
            (Some(Take), None, 0, 0, false),
            (Some(Put), None, 0, 0, false),
            (None, None, 0, 0, false),
        ] {
            for exit in [DPOR, SLEEP_SETS] {
                let (a, b) = (on(1, m(1), x, pa), on(2, m(1), y, pb));
                assert_eq!(!dependent(&a, &b, exit), apart, "{x:?}/{pa} {y:?}/{pb}");
                assert!(!dependent(&a, &on(2, m(2), y, pb), exit));
            }
        }
    }
}
