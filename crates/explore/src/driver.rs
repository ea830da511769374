//! The scripted [`Decider`] the explorer installs into a [`Runtime`]
//! (see [`conch_runtime::scheduler::Runtime::set_decider`]).
//!
//! One `DriverState` drives one run. It replays a *script* — the choice
//! at every branch point of some prefix — and past the end of the
//! script makes default choices, recording every branch point it passes
//! so the DFS in [`crate::dfs`] can backtrack.
//!
//! Three reductions keep the branch-point count down:
//!
//! * **Invisible-move fast-forwarding** — a runnable thread whose next
//!   step is local to itself ([`StepFootprint::is_local`]) and that has
//!   no pending asynchronous exceptions is always run first, without a
//!   branch point: its step commutes with every other thread's, so
//!   scheduling it eagerly explores one representative of each
//!   equivalence class of interleavings. The driver decides it
//!   ([`Pick::invisible`]); the scheduler carries it out, stepping the
//!   thread to the end of its run of such moves without asking again.
//! * **Sleep sets** — when the DFS has already explored running thread
//!   `a` at a branch point and comes back to try sibling `b`, `a` is
//!   put to sleep: in the `b` subtree `a` is not chosen again until
//!   some step *dependent* on `a`'s (per [`dependent`]) executes,
//!   because until then `b…a` reaches the same state as the
//!   already-explored `a…b`.
//! * **Preemption bounding** — under sleep sets, optionally, once a run
//!   has used its budget of preemptions (choosing against a
//!   still-runnable previous thread), the previous thread is forced,
//!   CHESS-style. DPOR and the samplers never carry a bound.
//!
//! Under DPOR (`trace_exec` on) the default choice at a branch point
//! also runs main's exit last: it picks main's terminal step only when
//! no other awake thread can run, so a run logs every console step the
//! other threads reach before main exits (see [`crate::clocks`]).
//!
//! Crucially, *which* step boundaries count as branch points is a
//! deterministic function of the executed path alone — never of the
//! sleep sets — so a bare list of choices ([`crate::Schedule`]) is
//! enough to replay a run exactly, with no DFS bookkeeping attached.
//!
//! A run allocates nothing here once the buffers are warm: what it
//! records per branch point is one [`Point`], whose candidate list is
//! inline ([`Alts`]) and carries the sleep marks itself.

use std::cell::RefCell;
use std::rc::Rc;

use conch_runtime::decide::{Decider, Pick, StepFootprint, ThreadView};
use conch_runtime::ids::ThreadId;

use crate::clocks::{Birth, ExecEvent};
use crate::inline::InlineVec;
use crate::sample::SamplePolicy;
use crate::schedule::Choice;
use crate::step::{dependent, MainExit, Step};

/// One candidate of a scheduling point: a runnable thread's next step,
/// and whether it was asleep when the point was first created (a
/// candidate the DFS will skip).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Alt {
    /// The step, which is also the sleep-set entry that puts this
    /// candidate to sleep.
    pub(crate) step: Step,
    pub(crate) asleep: bool,
}

impl Alt {
    pub(crate) fn new(step: Step) -> Self {
        Alt {
            step,
            asleep: false,
        }
    }

    pub(crate) fn tid(&self) -> u64 {
        self.step.tid()
    }
}

/// The candidate list of a branch point, in run-queue order. A run
/// records one per scheduling point; up to four threads it is plain
/// inline data.
pub(crate) type Alts = InlineVec<Alt, 4>;

/// A branch point recorded during a run.
#[derive(Debug, Clone)]
pub(crate) struct Point {
    /// For scheduling points: the full candidate list. Empty for
    /// delivery and oracle points.
    pub(crate) alts: Alts,
    /// The choice taken this run.
    pub(crate) chosen: Choice,
    /// For oracle points ([`Io::choose`](conch_runtime::io::Io::choose)):
    /// the number of arms. Zero for scheduling and delivery points.
    pub(crate) arms: u8,
}

/// Mutable driver state for one run, shared between the [`Decider`]
/// installed in the runtime and the explorer that owns the run.
///
/// The explorer keeps one `DriverState` alive for a whole exploration
/// and [`reset`](DriverState::reset)s it between runs, so the `script`,
/// `extra_sleep`, `record` and `sleep` buffers keep their capacity
/// instead of being reallocated tens of thousands of times.
pub(crate) struct DriverState {
    /// Choices to replay, one per branch point, in order.
    pub(crate) script: Vec<Choice>,
    /// Sibling alternatives already explored at scripted points, to be
    /// added to the sleep set there: `(script position, entry)` pairs in
    /// ascending position order (a flat list, not one `Vec` per point,
    /// so refilling it between runs allocates nothing once warm).
    pub(crate) extra_sleep: Vec<(usize, Step)>,
    /// Cursor into `extra_sleep`.
    extra_pos: usize,
    /// Next script position.
    pos: usize,
    /// Every branch point passed this run (scripted and frontier).
    pub(crate) record: Vec<Point>,
    /// The current sleep set.
    sleep: Vec<Step>,
    /// The main thread: the one the run's first decision shows.
    main: Option<u64>,
    /// Preemptions used so far this run.
    preemptions: usize,
    preemption_bound: Option<usize>,
    /// Branch-point budget; beyond it choices are forced to defaults.
    max_points: usize,
    /// Whether the branch-point budget was hit (the run is truncated:
    /// schedules below this point were not enumerated).
    pub(crate) depth_hit: bool,
    /// When set, every executed non-invisible step is appended to
    /// `exec_log` (with thread births in `births`) for the DPOR race
    /// analysis. Off for sleep-set exploration and replay, where the
    /// log would be pure overhead.
    pub(crate) trace_exec: bool,
    /// The executed-step log (see [`crate::clocks`]). Thread-local
    /// steps are omitted — they can never participate in a race.
    pub(crate) exec_log: Vec<ExecEvent>,
    /// Creation edges: each thread's first appearance, with the fork
    /// event that created it when identifiable.
    pub(crate) births: Vec<Birth>,
    /// Every thread id ever observed in a runnable view this run.
    known_tids: Vec<u64>,
    /// Whether the scheduling decision of the current step boundary
    /// pushed an event onto `exec_log`. When the boundary then turns
    /// into a delivery ([`DriverState::deliver_point`] chooses to
    /// deliver), that event is a phantom — the thread's ordinary step
    /// never executed — and must be popped again.
    sched_logged: bool,
    /// Sampling policy consulted at *unscripted* branch points (see
    /// [`crate::sample`]). `None` for exhaustive exploration and for
    /// certificate replay, where unscripted choices fall back to the
    /// deterministic defaults as ever. The policy only ever substitutes
    /// for a default choice — the forced paths (single runnable,
    /// invisible-move fast-forward, depth budget) stay ahead of it, so which step boundaries become branch points
    /// is the same function of the executed path under sampling as
    /// under enumeration. That is what makes a sampled certificate
    /// byte-compatible with an exhaustive one.
    pub(crate) policy: Option<SamplePolicy>,
}

impl DriverState {
    /// An empty script under the given bounds; the caller fills
    /// `script` (and `extra_sleep`, `policy`) before each run.
    pub(crate) fn new(preemption_bound: Option<usize>, max_points: usize) -> Self {
        DriverState {
            script: Vec::new(),
            extra_sleep: Vec::new(),
            extra_pos: 0,
            pos: 0,
            record: Vec::new(),
            sleep: Vec::new(),
            main: None,
            preemptions: 0,
            preemption_bound,
            max_points,
            depth_hit: false,
            trace_exec: false,
            exec_log: Vec::new(),
            births: Vec::new(),
            known_tids: Vec::new(),
            sched_logged: false,
            policy: None,
        }
    }

    /// Clears all per-run state (keeping buffer capacity) so the same
    /// `DriverState` can drive the next run. The caller refills `script`
    /// and `extra_sleep` afterwards.
    pub(crate) fn reset(&mut self) {
        self.script.clear();
        self.extra_sleep.clear();
        self.extra_pos = 0;
        self.pos = 0;
        self.record.clear();
        self.sleep.clear();
        self.main = None;
        self.preemptions = 0;
        self.depth_hit = false;
        self.exec_log.clear();
        self.births.clear();
        self.known_tids.clear();
        self.sched_logged = false;
        self.policy = None;
    }

    /// Note the threads visible at a step boundary, recording births
    /// (first appearances) with a creation edge to the immediately
    /// preceding event when it was a fork. Only called when
    /// `trace_exec` is on.
    fn note_views(&mut self, runnable: &[ThreadView]) {
        for v in runnable {
            let tid = v.tid.index();
            if !self.known_tids.contains(&tid) {
                self.known_tids.push(tid);
                // Exactly one step executes between consecutive
                // decisions, so if the last logged event was a fork it
                // is the step that created this thread. (A local
                // step could also have executed and gone unlogged —
                // but a local step cannot fork.)
                let parent_event = match self.exec_log.last() {
                    Some(e) if e.step.fp == StepFootprint::Fork => {
                        Some((self.exec_log.len() - 1) as u32)
                    }
                    _ => None,
                };
                self.births.push(Birth { tid, parent_event });
            }
        }
    }

    /// How main's exit relates to other steps: console steps only
    /// under DPOR (`trace_exec`), every step under sleep sets.
    pub(crate) fn exit(&self) -> MainExit {
        MainExit {
            tid: self.main.unwrap_or(0),
            console_only: self.trace_exec,
        }
    }

    /// Log one executed step for the race analysis. Returns whether an
    /// event was actually pushed (local steps are skipped — they cannot
    /// participate in a race; the explicit delivery branch points cover
    /// the only nondeterminism a pending queue adds).
    fn log_exec(&mut self, step: Step, point: Option<u32>) -> bool {
        if !self.trace_exec {
            return false;
        }
        if step.fp.is_local() || step.fp == StepFootprint::Oracle {
            // Local steps cannot race; an oracle step is confined to
            // its thread too — its nondeterminism is carried entirely
            // by the explicit `Choice::Arm` branch point, which the
            // engines always branch fully.
            return false;
        }
        self.exec_log.push(ExecEvent { step, point });
        true
    }

    /// `step` is about to execute: wake every sleep entry that is
    /// dependent on it (and its own thread, should it somehow be
    /// asleep).
    fn note_exec(&mut self, step: Step) {
        if self.sleep.is_empty() {
            return;
        }
        let exit = self.exit();
        self.sleep
            .retain(|q| q.tid() != step.tid() && !dependent(&step, q, exit));
    }

    fn is_asleep(&self, tid: u64) -> bool {
        self.sleep.iter().any(|q| q.tid() == tid)
    }

    /// The scheduling decision for a branch point with candidates
    /// `runnable`. Returns the index to run.
    fn sched_point(&mut self, runnable: &[ThreadView], previous: Option<ThreadId>) -> usize {
        // Preemption bounding: out of budget and the previous thread can
        // continue => force it (deterministically, so this is not a
        // branch point and consumes no script entry).
        let mut forced = None;
        if let (Some(bound), Some(prev)) = (self.preemption_bound, previous) {
            if self.preemptions >= bound {
                forced = runnable.iter().position(|v| v.tid == prev);
            }
        }
        // Branch-point budget: beyond it, force the default choice.
        if forced.is_none() && self.record.len() >= self.max_points {
            self.depth_hit = true;
            forced = Some(0);
        }
        if let Some(i) = forced {
            let step = Step::of(&runnable[i]);
            self.note_exec(step);
            self.sched_logged = self.log_exec(step, None);
            return i;
        }

        // Scripted or frontier choice.
        let scripted = if self.pos < self.script.len() {
            while let Some(&(p, entry)) = self.extra_sleep.get(self.extra_pos) {
                if p > self.pos {
                    break;
                }
                self.extra_pos += 1;
                // Entries whose position was consumed by a delivery
                // point (possible only when replaying a spliced
                // schedule) are skipped, exactly as the old
                // position-indexed lookup never applied them.
                if p == self.pos && !self.is_asleep(entry.tid()) {
                    self.sleep.push(entry);
                }
            }
            let c = self.script[self.pos];
            self.pos += 1;
            Some(c)
        } else {
            None
        };

        let mut alts = Alts::new();
        for v in runnable {
            let mut alt = Alt::new(Step::of(v));
            alt.asleep = self.is_asleep(alt.tid());
            alts.push(alt);
        }

        // Under DPOR the default runs main's exit last: while any other
        // awake thread can move, the exit is not the default, so every
        // console step the others can reach is logged and raced against
        // it, the one kind of step the exit is dependent on there.
        let rule = self.exit();
        let exit = |a: &Alt| {
            rule.console_only && a.step.fp == StepFootprint::Terminal && a.tid() == rule.tid
        };
        let default_index = || {
            (alts.iter().position(|a| !a.asleep && !exit(a)))
                .or_else(|| alts.iter().position(|a| !a.asleep))
                .unwrap_or(0)
        };
        let index = match scripted {
            Some(Choice::Thread(t)) => alts
                .iter()
                .position(|a| a.tid() == t)
                .unwrap_or_else(default_index),
            // A delivery or arm choice at a scheduling point can only
            // happen when replaying a spliced (shrunk) schedule; fall
            // back. Unscripted points ask the sampling policy first,
            // when one is installed.
            Some(Choice::Deliver(_) | Choice::Arm(_)) | None => match self.policy.as_mut() {
                Some(policy) => policy.pick_thread(&alts),
                None => default_index(),
            },
        };

        if let Some(prev) = previous {
            if runnable[index].tid != prev && runnable.iter().any(|v| v.tid == prev) {
                self.preemptions += 1;
            }
        }
        let step = alts[index].step;
        self.record.push(Point {
            alts,
            chosen: Choice::Thread(step.tid()),
            arms: 0,
        });
        let point = (self.record.len() - 1) as u32;
        self.sched_logged = self.log_exec(step, Some(point));
        self.note_exec(step);
        index
    }

    /// When the boundary delivers, the ordinary step logged by
    /// [`sched_point`](DriverState::sched_point) never executed: pop
    /// the phantom. The delivery transition itself is not logged — it
    /// is local to the target (the nondeterminism of *where* a pending
    /// exception lands is entirely carried by the explicit
    /// `Choice::Deliver` branch points, whose both arms the DPOR engine
    /// always explores).
    fn unlog_phantom(&mut self) {
        if self.trace_exec && self.sched_logged {
            self.exec_log.pop();
            self.sched_logged = false;
        }
    }

    fn deliver_point(&mut self, view: ThreadView) -> bool {
        if self.record.len() >= self.max_points {
            self.depth_hit = true;
            self.unlog_phantom();
            return true;
        }
        let scripted = if self.pos < self.script.len() {
            let c = self.script[self.pos];
            self.pos += 1;
            Some(c)
        } else {
            None
        };
        let deliver = match scripted {
            Some(Choice::Deliver(b)) => b,
            // A thread or arm choice here means a spliced schedule;
            // default. Unscripted points ask the sampling policy first.
            Some(Choice::Thread(_) | Choice::Arm(_)) | None => match self.policy.as_mut() {
                Some(policy) => policy.pick_deliver(),
                None => true,
            },
        };
        if deliver {
            // The delivered exception starts unwinding the target: a step
            // local to that thread, but conservatively wake everything
            // that was sleeping on the target's originally-intended step.
            self.note_exec(Step::new(view.tid.index(), StepFootprint::Effect));
        }
        self.record.push(Point {
            alts: Alts::new(),
            chosen: Choice::Deliver(deliver),
            arms: 0,
        });
        if deliver {
            self.unlog_phantom();
        }
        deliver
    }

    /// The arm decision for an [`Io::choose`](conch_runtime::io::Io::choose)
    /// oracle. Recorded as a full branch point (every arm is a sibling
    /// the DFS will visit), even when the thread choice leading here was
    /// forced. Oracle steps are never logged for the race analysis —
    /// their nondeterminism is entirely carried by this explicit choice.
    fn arm_point(&mut self, _view: ThreadView, arms: u8) -> u8 {
        if self.record.len() >= self.max_points {
            self.depth_hit = true;
            return 0;
        }
        let scripted = if self.pos < self.script.len() {
            let c = self.script[self.pos];
            self.pos += 1;
            Some(c)
        } else {
            None
        };
        let arm = match scripted {
            // An out-of-range arm (or a thread/delivery choice) here
            // means a spliced schedule; take the default arm.
            // Unscripted points ask the sampling policy first.
            Some(Choice::Arm(a)) if a < arms => a,
            _ => match self.policy.as_mut() {
                Some(policy) => policy.pick_arm(arms),
                None => 0,
            },
        };
        self.record.push(Point {
            alts: Alts::new(),
            chosen: Choice::Arm(arm),
            arms,
        });
        arm
    }
}

/// The [`Decider`] facade over a shared [`DriverState`].
pub(crate) struct ScriptedDecider(pub Rc<RefCell<DriverState>>);

impl Decider for ScriptedDecider {
    fn choose_thread(&mut self, runnable: &[ThreadView], previous: Option<ThreadId>) -> Pick {
        let mut st = self.0.borrow_mut();
        st.main.get_or_insert(runnable[0].tid.index());
        if st.trace_exec {
            st.note_views(runnable);
        }
        // Forced: only one thread can run.
        if runnable.len() == 1 {
            let v = runnable[0];
            let step = Step::of(&v);
            st.note_exec(step);
            st.sched_logged = st.log_exec(step, None);
            return Pick {
                index: 0,
                invisible: v.pending == 0 && v.footprint.is_local(),
            };
        }
        // Invisible-move fast-forward: run a local, exception-free step
        // without branching (lowest thread id for determinism). Local
        // steps never participate in races, so the exec log skips them.
        let local = runnable
            .iter()
            .enumerate()
            .filter(|(_, v)| v.pending == 0 && v.footprint.is_local())
            .min_by_key(|(_, v)| v.tid);
        if let Some((i, v)) = local {
            st.note_exec(Step::of(v));
            // Never logged, and never followed by a delivery check
            // (fast-forwarding requires no pending exceptions).
            st.sched_logged = false;
            return Pick::invisible(i);
        }
        Pick::visible(st.sched_point(runnable, previous))
    }

    fn deliver_now(&mut self, view: ThreadView) -> bool {
        self.0.borrow_mut().deliver_point(view)
    }

    fn choose_arm(&mut self, view: ThreadView, arms: u8) -> u8 {
        self.0.borrow_mut().arm_point(view, arms)
    }
}
