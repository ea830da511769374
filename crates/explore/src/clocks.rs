//! Vector-clock happens-before tracking and race detection over one
//! executed run — the analysis half of dynamic partial-order reduction
//! (Flanagan & Godefroid, POPL 2005), over the explorer's one
//! dependence relation ([`dependent`]).
//!
//! The driver logs every executed *non-invisible* step as an
//! [`ExecEvent`]: thread-local steps commute with everything and can
//! never participate in a race, so they are skipped at the source, and
//! delivery transitions are never logged (the nondeterminism of where a
//! pending exception lands is carried entirely by the explicit
//! `Choice::Deliver` branch points, which the DPOR engine branches both
//! ways unconditionally).
//!
//! Happens-before is the transitive closure of
//!
//! * **program order** — consecutive steps of one thread,
//! * **dependence** — logged steps that may not commute ([`dependent`],
//!   with main's exit dependent on console steps only: DPOR's default
//!   choice runs it last, DESIGN.md §3.5), and
//! * **creation** — a forked thread's first step follows its parent's
//!   `fork` ([`Birth`]).
//!
//! Two logged steps in different threads form a **race** when they are
//! dependent but *not* happens-before ordered: executing them in the
//! other order is a genuinely different behaviour that some schedule
//! must cover. For each race the analysis reports the branch point at
//! which the earlier step was chosen (when it was chosen at one — a
//! forced step has no alternatives, and classic DPOR then relies on the
//! race re-appearing at an earlier, branchable point of some other
//! run), so the search can install a backtrack entry there instead of
//! branching on every enabled alternative everywhere.

use conch_runtime::decide::StepFootprint;

use crate::inline::InlineVec;
use crate::step::{dependent, MainExit, Step};

/// One logged step of an executed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ExecEvent {
    pub(crate) step: Step,
    /// Index into the run's branch-point record when this step was
    /// chosen at a branch point; `None` for forced steps (sole runnable
    /// thread, depth-budget forcing).
    pub(crate) point: Option<u32>,
}

impl ExecEvent {
    fn tid(&self) -> u64 {
        self.step.tid()
    }
}

/// A thread observed for the first time, with the event that created it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Birth {
    pub(crate) tid: u64,
    /// Index into the event log of the parent's `fork` step, when the
    /// step executed immediately before the thread first appeared was a
    /// fork. `None` (no creation edge, which only *over*-approximates
    /// concurrency and so over-explores, never under-explores) otherwise.
    pub(crate) parent_event: Option<u32>,
}

/// A reversible race: the branch point of the earlier step, and the
/// thread whose later dependent step should be tried there instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RaceFlag {
    /// Index into the run's branch-point record.
    pub(crate) point: u32,
    /// The thread of the later step of the race.
    pub(crate) later_tid: u64,
    /// Flanagan–Godefroid's E set: threads whose *first* event after
    /// the branch point already happens-before the later step of the
    /// race (always includes `later_tid` itself). When `later_tid` is
    /// not enabled at the branch point, forcing any one enabled witness
    /// makes progress toward the reversal — a far narrower fallback
    /// than flagging every untried sibling.
    pub(crate) witnesses: InlineVec<u64, 4>,
}

/// The result of analyzing one run.
#[cfg(any(test, debug_assertions))]
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct RaceAnalysis {
    /// Backtrack requests, in log order (deduplicated).
    pub(crate) flags: Vec<RaceFlag>,
    /// Total dependent-but-unordered pairs found, including those at
    /// forced (unbranchable) steps — the `races_detected` telemetry.
    pub(crate) races: u64,
}

/// A dense vector clock: one component per thread index.
#[cfg(any(test, debug_assertions))]
type Clock = Vec<u32>;

#[cfg(any(test, debug_assertions))]
fn join(into: &mut Clock, other: &Clock) {
    if into.len() < other.len() {
        into.resize(other.len(), 0);
    }
    for (a, b) in into.iter_mut().zip(other) {
        *a = (*a).max(*b);
    }
}

/// Detect every race of one executed run, recomputing everything from
/// the log — the *reference* the incremental [`RaceState`] is checked
/// against (in every debug-build DPOR run and by the unit-test fuzzer),
/// not a mode anyone can select.
///
/// This is a deterministic function of the log alone: two runs of the
/// same choice prefix produce the same log, hence the same flags.
#[cfg(any(test, debug_assertions))]
pub(crate) fn analyze(events: &[ExecEvent], births: &[Birth], exit: MainExit) -> RaceAnalysis {
    let mut analysis = RaceAnalysis::default();
    if events.len() < 2 {
        return analysis;
    }

    // Dense thread indices, in order of first appearance in the log.
    let mut tids: Vec<u64> = Vec::new();
    let thread_index = |tids: &mut Vec<u64>, tid: u64| -> usize {
        match tids.iter().position(|&t| t == tid) {
            Some(i) => i,
            None => {
                tids.push(tid);
                tids.len() - 1
            }
        }
    };

    // Per-event post clocks, the running per-thread clocks, and each
    // thread's executed-event count (its own clock component).
    let mut post: Vec<Clock> = Vec::with_capacity(events.len());
    let mut thread_clock: Vec<Clock> = Vec::new();
    let mut thread_seq: Vec<u32> = Vec::new();
    // Per-event sequence number within its thread (1-based).
    let mut seq: Vec<u32> = Vec::with_capacity(events.len());
    // Races at branchable points, as (earlier, later) event indices;
    // flags are built after the pass, once every post clock is final.
    let mut race_pairs: Vec<(usize, usize)> = Vec::new();

    for (n, e) in events.iter().enumerate() {
        let t = thread_index(&mut tids, e.tid());
        if t == thread_clock.len() {
            // First event of this thread: inherit the creating fork's
            // clock, if known.
            let mut c = Clock::new();
            if let Some(b) = births.iter().find(|b| b.tid == e.tid()) {
                if let Some(p) = b.parent_event {
                    if let Some(pc) = post.get(p as usize) {
                        c = pc.clone();
                    }
                }
            }
            thread_clock.push(c);
            thread_seq.push(0);
        }

        // Walk earlier events newest-first, folding dependent events'
        // clocks into an accumulator as we go: event `i` races with `n`
        // exactly when it is dependent and *not yet* covered by the
        // accumulated clock — i.e. no chain of later dependent events
        // (or program order) already orders it before `n`.
        let mut acc = thread_clock[t].clone();
        for i in (0..n).rev() {
            let ei = &events[i];
            if ei.tid() == e.tid() || !dependent(&ei.step, &e.step, exit) {
                continue;
            }
            let ti = thread_index(&mut tids, ei.tid());
            if acc.get(ti).copied().unwrap_or(0) < seq[i] {
                analysis.races += 1;
                if ei.point.is_some() {
                    race_pairs.push((i, n));
                }
            }
            join(&mut acc, &post[i]);
        }

        // Commit: bump this thread's own component and store the post
        // clock.
        thread_seq[t] += 1;
        if acc.len() <= t {
            acc.resize(t + 1, 0);
        }
        acc[t] = thread_seq[t];
        seq.push(thread_seq[t]);
        thread_clock[t] = acc.clone();
        post.push(acc);
    }

    // Build the flags, deduplicated on (point, later_tid), with each
    // flag's witness set: the threads whose first event strictly after
    // the earlier step is happens-before the later step (computed from
    // the now-final post clocks; the later step always witnesses
    // itself).
    for (i, n) in race_pairs {
        let point = events[i]
            .point
            .expect("race pair recorded at a branch point");
        let later_tid = events[n].tid();
        if analysis
            .flags
            .iter()
            .any(|f| f.point == point && f.later_tid == later_tid)
        {
            continue;
        }
        let mut witnesses = InlineVec::new();
        let mut seen: Vec<u64> = Vec::new();
        for (j, ej) in events.iter().enumerate().take(n + 1).skip(i + 1) {
            if seen.contains(&ej.tid()) {
                continue;
            }
            seen.push(ej.tid());
            let tj = tids
                .iter()
                .position(|&t| t == ej.tid())
                .expect("every logged thread has an index");
            if post[n].get(tj).copied().unwrap_or(0) >= seq[j] {
                witnesses.push(ej.tid());
            }
        }
        analysis.flags.push(RaceFlag {
            point,
            later_tid,
            witnesses,
        });
    }
    analysis
}

/// Inline length of a [`VClock`]: runs of up to this many threads keep
/// every clock in place.
const CLOCK_INLINE: usize = 8;

/// The incremental analyzer's vector clock: one component per dense
/// thread index, trailing zeros absent. A clock is as long as the
/// highest-indexed thread it orders, so it lives inline — copied by
/// value where the analyzer snapshots one per event, joined in place —
/// and only a run of more than [`CLOCK_INLINE`] threads puts one on the
/// heap.
type VClock = InlineVec<u32, CLOCK_INLINE>;

fn component(clock: &VClock, t: u32) -> u32 {
    clock.get(t as usize).copied().unwrap_or(0)
}

/// Pointwise maximum.
fn join_into(into: &mut VClock, other: &VClock) {
    while into.len() < other.len() {
        into.push(0);
    }
    for (a, b) in into.iter_mut().zip(other.iter()) {
        *a = (*a).max(*b);
    }
}

/// Interned footprint class of a resource-bearing footprint: a small
/// integer key for the per-object candidate index, so list lookup and
/// bucketing index a `Vec` instead of matching footprint structs —
/// `MVar` indices restart at 0 with every run, so the classes are
/// dense. Footprints without a same-resource conflict class (`Local`,
/// `Mask`, `Raise`, `Oracle`, `Throw`, `Terminal`, `Effect`) have none
/// — their dependence arcs run through the per-thread, throw and
/// always lists instead.
fn fp_class(fp: StepFootprint) -> Option<usize> {
    use StepFootprint::*;
    match fp {
        Alloc => Some(0),
        Console => Some(CONSOLE_CLASS),
        Time => Some(2),
        Fork => Some(3),
        MVar(x) => Some(4 + x.index() as usize),
        _ => None,
    }
}

/// [`fp_class`] of `Console`, whose list also holds the main thread's
/// exit.
const CONSOLE_CLASS: usize = 1;

/// The list at `key`, if one was ever pushed to.
fn list_at(lists: &[Vec<u32>], key: usize) -> &[u32] {
    lists.get(key).map_or(&[], Vec::as_slice)
}

fn push_at(lists: &mut Vec<Vec<u32>>, key: usize, n: u32) {
    if lists.len() <= key {
        lists.resize_with(key + 1, Vec::new);
    }
    lists[key].push(n);
}

/// Drop the entries of an ascending list that are `>= limit`.
fn truncate_list(list: &mut Vec<u32>, limit: u32) {
    list.truncate(list.partition_point(|&n| n < limit));
}

/// The incremental race analyzer: vector-clock state for the *current*
/// event log, updated per executed step and rolled back to the common
/// prefix when the search backtracks, instead of recomputed from
/// scratch on every run (the reference [`analyze`]).
///
/// # Why rollback is sound
///
/// Everything stored here about events `0..k` is a pure function of
/// those events (plus the births of the threads appearing in them,
/// which the driver fixes before a thread's first logged step) — the
/// same guarantee the reference analyzer's determinism rests on. Two runs
/// sharing an event-log prefix therefore share every per-event
/// artifact over it: post clocks, sequence numbers, the candidate
/// indices — and the flags: a flag is found at its race's *later*
/// event and reads nothing past it, and the flags an earlier event
/// found are the only ones that can shadow it. So on a new run the
/// state is truncated to the longest common prefix, flags included,
/// and only the new suffix is analyzed.
///
/// # Why the candidate indices lose no race
///
/// For a new event `e` the analyzer walks candidate earlier events
/// newest-first exactly like the reference full scan, but gathers the
/// candidates from per-object lists instead of the whole prefix: the
/// same-resource list of `e`'s footprint class (which also holds the
/// throws whose cancelled wait is on that resource, and for the console
/// the main thread's exit), the throws aimed at `e`'s thread, (for a
/// throw) the target's events and its other throwers, (for a throw at
/// a stuck target) its cancelled wait's list, (for the main thread's
/// exit) the console steps, and the `always` list (`Effect` steps and
/// cancelled sync-throw waits) — a transcription of [`dependent`],
/// case by case, into list membership, checked by the unit tests
/// against the exhaustive scan. The union is a *superset* of every
/// possibly-dependent event; each candidate is then re-checked with
/// `dependent` itself, so the dependent
/// subsequence — and with it the accumulator walk, the race count,
/// the flags and their witness sets — is bit-identical to the
/// reference analyzer's.
#[derive(Default)]
pub(crate) struct RaceState {
    events: Vec<ExecEvent>,
    /// Dense thread indices, in order of first appearance: the threads
    /// with at least one event in the log.
    tids: Vec<u64>,
    /// Event `n`'s thread, as its dense index.
    thread_of: Vec<u32>,
    /// Event `n`'s post clock — also the clock of its thread until that
    /// thread's next event.
    post: Vec<VClock>,
    /// Event `n`'s 1-based position among its thread's events.
    seq: Vec<u32>,
    /// Cumulative dependent-but-unordered pair count through event `n`
    /// — the run's `races` telemetry is the last entry.
    cum_races: Vec<u64>,
    /// The run's backtrack requests in first-found order, and the later
    /// event of the race each was found at (ascending).
    flags: Vec<RaceFlag>,
    flag_later: Vec<u32>,
    // Candidate indices: ascending event positions, truncated on
    // rollback. `by_thread` is indexed by dense thread index (lists
    // past `tids.len()` are empty, kept for their capacity),
    // `res_lists` by footprint class, `throws_at` by the target's
    // thread id — all dense, so none needs hashing.
    by_thread: Vec<Vec<u32>>,
    res_lists: Vec<Vec<u32>>,
    throws_at: Vec<Vec<u32>>,
    always: Vec<u32>,
    scratch: Vec<u32>,
    /// Branchable races of the event being pushed: `(earlier event, its
    /// branch point)`, in walk order.
    new_pairs: Vec<(u32, u32)>,
}

impl RaceState {
    /// Analyze one run's event log, reusing the shared-prefix state of
    /// the previous call. Returns the run's race count; its flags are
    /// [`flags`](RaceState::flags) — together exactly what [`analyze`]
    /// would return. `exit` is DPOR's: console steps only, which the
    /// candidate indices assume.
    pub(crate) fn analyze(
        &mut self,
        events: &[ExecEvent],
        births: &[Birth],
        exit: MainExit,
    ) -> u64 {
        debug_assert!(exit.console_only);
        let keep = self
            .events
            .iter()
            .zip(events)
            .take_while(|(a, b)| a == b)
            .count();
        self.rollback(keep);
        for e in &events[keep..] {
            self.push_event(*e, births, exit);
        }
        let races = self.cum_races.last().copied().unwrap_or(0);
        #[cfg(debug_assertions)]
        {
            let reference = analyze(events, births, exit);
            assert_eq!(
                (self.flags(), races),
                (&reference.flags[..], reference.races),
                "incremental race analysis diverged from the full recompute"
            );
        }
        races
    }

    /// The backtrack requests of the log last analyzed, in log order
    /// (deduplicated).
    pub(crate) fn flags(&self) -> &[RaceFlag] {
        &self.flags
    }

    /// Truncate the state to the first `keep` events.
    fn rollback(&mut self, keep: usize) {
        self.events.truncate(keep);
        self.thread_of.truncate(keep);
        self.post.truncate(keep);
        self.seq.truncate(keep);
        self.cum_races.truncate(keep);
        let limit = keep as u32;
        truncate_list(&mut self.flag_later, limit);
        self.flags.truncate(self.flag_later.len());
        let lists = self.by_thread.iter_mut();
        let lists = lists.chain(&mut self.res_lists).chain(&mut self.throws_at);
        for list in lists.chain([&mut self.always]) {
            truncate_list(list, limit);
        }
        // Threads are introduced in index order, so the ones left
        // without an event are the last.
        let live = self.by_thread.iter().take_while(|l| !l.is_empty()).count();
        self.tids.truncate(live);
    }

    fn thread_index(&self, tid: u64) -> Option<usize> {
        self.tids.iter().position(|&x| x == tid)
    }

    /// Extend the state by one event: gather the candidate earlier
    /// events from the per-object indices, run the newest-first
    /// accumulator walk over them, commit the event's clock and index
    /// entries, and turn the branchable races it closed into flags.
    fn push_event(&mut self, e: ExecEvent, births: &[Birth], rule: MainExit) {
        let n = self.events.len() as u32;
        let (fp, w) = (e.step.fp, e.step.cancels());
        let t = self.thread_index(e.tid()).unwrap_or_else(|| {
            self.tids.push(e.tid());
            if self.by_thread.len() < self.tids.len() {
                self.by_thread.push(Vec::new());
            }
            self.tids.len() - 1
        });

        // Candidates, descending and deduped. An `Effect` step and a
        // cancelled sync-throw wait are dependent with everything — fall
        // back to the full prefix.
        let full_walk = fp == StepFootprint::Effect || w == Some(StepFootprint::Effect);
        let exit = fp == StepFootprint::Terminal && e.tid() == rule.tid;
        let exit_class = exit.then_some(CONSOLE_CLASS);
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        if full_walk {
            scratch.extend((0..n).rev());
        } else {
            scratch.extend_from_slice(&self.always);
            scratch.extend_from_slice(list_at(&self.throws_at, e.tid() as usize));
            // The exit and a cancelled wait on a resource (`res !=
            // Effect`: that took the full-walk path) conflict with
            // that resource's steps.
            for class in [fp_class(fp), exit_class, w.and_then(fp_class)]
                .into_iter()
                .flatten()
            {
                scratch.extend_from_slice(list_at(&self.res_lists, class));
            }
            if let StepFootprint::Throw(target) = fp {
                let target = target.index();
                if let Some(t2) = self.thread_index(target) {
                    scratch.extend_from_slice(&self.by_thread[t2]);
                }
                scratch.extend_from_slice(list_at(&self.throws_at, target as usize));
            }
            scratch.sort_unstable_by(|a, b| b.cmp(a));
            scratch.dedup();
        }

        // The thread's clock so far: its last event's post clock, or —
        // first event of this thread — the creating fork's, if known.
        let mut acc = match self.by_thread[t].last() {
            Some(&last) => self.post[last as usize].clone(),
            None => births
                .iter()
                .find(|b| b.tid == e.tid())
                .and_then(|b| self.post.get(b.parent_event? as usize))
                .cloned()
                .unwrap_or_default(),
        };

        // The accumulator walk of `analyze`, restricted to the
        // candidates: the skipped events are provably independent, so
        // the dependent subsequence — and the accumulator's evolution
        // along it — is identical to the full scan's.
        let mut new_races = 0u64;
        self.new_pairs.clear();
        for &i in &scratch {
            let ei = &self.events[i as usize];
            if ei.tid() == e.tid() || !dependent(&ei.step, &e.step, rule) {
                continue;
            }
            if component(&acc, self.thread_of[i as usize]) < self.seq[i as usize] {
                new_races += 1;
                if let Some(point) = ei.point {
                    self.new_pairs.push((i, point));
                }
            }
            join_into(&mut acc, &self.post[i as usize]);
        }
        self.scratch = scratch;

        // Commit the clock, bumping this thread's own component.
        let sq = self.by_thread[t].len() as u32 + 1;
        while acc.len() <= t {
            acc.push(0);
        }
        acc[t] = sq;
        self.post.push(acc);
        self.seq.push(sq);
        self.thread_of.push(t as u32);
        let total = self.cum_races.last().copied().unwrap_or(0) + new_races;
        self.cum_races.push(total);

        // Commit index entries.
        self.by_thread[t].push(n);
        // A later step on a resource finds the exit (console) and a
        // cancelled wait on that resource on the resource's list.
        for class in [fp_class(fp), exit_class, w.and_then(fp_class)]
            .into_iter()
            .flatten()
        {
            push_at(&mut self.res_lists, class, n);
        }
        if let StepFootprint::Throw(target) = fp {
            push_at(&mut self.throws_at, target.index() as usize, n);
        }
        if full_walk {
            self.always.push(n);
        }
        self.events.push(e);
        self.flag_new_pairs(n);
    }

    /// Turn the branchable races that event `n` (just committed) is the
    /// later step of into flags, deduplicated on `(point, later_tid)`
    /// against every flag found so far, each with its witness set: the
    /// threads whose first event strictly after the earlier step
    /// happens-before `n` (read off `n`'s post clock, final since the
    /// commit; `n` always witnesses itself) — flag for flag what
    /// [`analyze`] builds from its race pairs after the pass.
    fn flag_new_pairs(&mut self, n: u32) {
        let later_tid = self.events[n as usize].tid();
        let clock = &self.post[n as usize];
        for &(i, point) in &self.new_pairs {
            if self
                .flags
                .iter()
                .any(|f| f.point == point && f.later_tid == later_tid)
            {
                continue;
            }
            let mut witnesses = InlineVec::new();
            // Threads already seen between the two steps, by dense index.
            self.scratch.clear();
            for j in i + 1..=n {
                let tj = self.thread_of[j as usize];
                if self.scratch.contains(&tj) {
                    continue;
                }
                self.scratch.push(tj);
                if component(clock, tj) >= self.seq[j as usize] {
                    witnesses.push(self.events[j as usize].tid());
                }
            }
            self.flags.push(RaceFlag {
                point,
                later_tid,
                witnesses,
            });
            self.flag_later.push(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conch_runtime::decide::{MVarOp, ThreadView};
    use conch_runtime::ids::{MVarId, ThreadId};

    /// DPOR's exit rule, main being thread 0.
    const EXIT: MainExit = MainExit {
        tid: 0,
        console_only: true,
    };

    fn ev(tid: u64, fp: StepFootprint, point: Option<u32>) -> ExecEvent {
        ExecEvent {
            step: Step::new(tid, fp),
            point,
        }
    }

    fn analyze(events: &[ExecEvent], births: &[Birth]) -> RaceAnalysis {
        super::analyze(events, births, EXIT)
    }

    fn has_flag(a: &RaceAnalysis, point: u32, later_tid: u64) -> bool {
        a.flags
            .iter()
            .any(|f| f.point == point && f.later_tid == later_tid)
    }

    #[test]
    fn two_console_steps_race() {
        let log = [
            ev(0, StepFootprint::Console, Some(0)),
            ev(1, StepFootprint::Console, None),
        ];
        let a = analyze(&log, &[]);
        assert_eq!(a.races, 1);
        assert_eq!(a.flags.len(), 1);
        assert!(has_flag(&a, 0, 1));
        // The later step always witnesses itself.
        assert_eq!(*a.flags[0].witnesses, [1]);
    }

    #[test]
    fn program_order_is_not_a_race() {
        let log = [
            ev(0, StepFootprint::Console, Some(0)),
            ev(0, StepFootprint::Console, Some(1)),
        ];
        let a = analyze(&log, &[]);
        assert_eq!(a.races, 0);
        assert!(a.flags.is_empty());
    }

    #[test]
    fn independent_steps_do_not_race() {
        let log = [
            ev(0, StepFootprint::MVar(MVarId::from_index(1)), Some(0)),
            ev(1, StepFootprint::MVar(MVarId::from_index(2)), None),
        ];
        let a = analyze(&log, &[]);
        assert_eq!(a.races, 0);
    }

    #[test]
    fn dependence_chains_order_distant_events() {
        // t0:m1 → t1:m1 (dependent, adjacent) → t1:m2 → t2:m2. The
        // pair (t0:m1, t1:m1) races and (t1:m2, t2:m2) races, but
        // t0:m1 does NOT race with anything in t2: it is ordered before
        // t2:m2 only through... actually t0:m1 and t2:m2 are
        // independent (different MVars), so only the two adjacent
        // races exist.
        let log = [
            ev(0, StepFootprint::MVar(MVarId::from_index(1)), Some(0)),
            ev(1, StepFootprint::MVar(MVarId::from_index(1)), Some(1)),
            ev(1, StepFootprint::MVar(MVarId::from_index(2)), None),
            ev(2, StepFootprint::MVar(MVarId::from_index(2)), Some(2)),
        ];
        let a = analyze(&log, &[]);
        assert_eq!(a.races, 2);
        // Only the first race yields a flag: the earlier event of the
        // second race (t1:m2) was not taken at a branchable point
        // (`point = None`), so there is nothing to reverse there.
        assert_eq!(a.flags.len(), 1);
        assert!(has_flag(&a, 0, 1));
    }

    #[test]
    fn happens_before_via_intermediate_suppresses_race() {
        // t0:console, then t1:effect (dependent on both sides), then
        // t2:console. t0's console is ordered before t2's console via
        // the effect, so only two races are reported: (t0, t1) and
        // (t1, t2).
        let log = [
            ev(0, StepFootprint::Console, Some(0)),
            ev(1, StepFootprint::Effect, Some(1)),
            ev(2, StepFootprint::Console, Some(2)),
        ];
        let a = analyze(&log, &[]);
        assert_eq!(a.races, 2);
        assert!(has_flag(&a, 0, 1));
        assert!(has_flag(&a, 1, 2));
    }

    #[test]
    fn fork_creates_happens_before() {
        // Parent forks (event 0), child prints (event 1), parent prints
        // (event 2). The child's console step inherits the fork's clock,
        // but fork→console is independent... use Effect to force
        // dependence checking: parent's fork then child console and
        // parent console race with each other, but NOT with the fork
        // (fork is independent of console). With the birth edge the
        // child's console still races with the parent's later console.
        let log = [
            ev(0, StepFootprint::Fork, Some(0)),
            ev(1, StepFootprint::Console, Some(1)),
            ev(0, StepFootprint::Console, None),
        ];
        let births = [Birth {
            tid: 1,
            parent_event: Some(0),
        }];
        let a = analyze(&log, &births);
        // console(child) vs console(parent): dependent, concurrent.
        assert_eq!(a.races, 1);
        assert_eq!(a.flags.len(), 1);
        assert!(has_flag(&a, 1, 0));
    }

    #[test]
    fn birth_edge_orders_child_after_forks_past() {
        // t0: console (event 0), t0: fork (event 1), t1 (child):
        // console (event 2). The child inherits the fork's clock, which
        // includes t0's console via program order — no race.
        let log = [
            ev(0, StepFootprint::Console, Some(0)),
            ev(0, StepFootprint::Fork, Some(1)),
            ev(1, StepFootprint::Console, None),
        ];
        let births = [Birth {
            tid: 1,
            parent_event: Some(1),
        }];
        let a = analyze(&log, &births);
        assert_eq!(a.races, 0, "creation edge must order the child");
    }

    #[test]
    fn missing_birth_edge_over_approximates_to_a_race() {
        // Same log, no birth edge: the child's console looks concurrent
        // with the parent's — a spurious race, which is the sound
        // direction (extra exploration, never missed behaviour).
        let log = [
            ev(0, StepFootprint::Console, Some(0)),
            ev(0, StepFootprint::Fork, Some(1)),
            ev(1, StepFootprint::Console, None),
        ];
        let a = analyze(&log, &[]);
        assert_eq!(a.races, 1);
    }

    #[test]
    fn main_exit_races_console_steps_only() {
        // The child writes an MVar and prints; main exits. Only the
        // print decides what the exit cuts off.
        let log = [
            ev(1, StepFootprint::MVar(MVarId::from_index(1)), Some(0)),
            ev(1, StepFootprint::Console, Some(1)),
            ev(1, StepFootprint::Time, Some(2)),
            ev(0, StepFootprint::Terminal, None),
        ];
        let births = [0, 1].map(|tid| Birth {
            tid,
            parent_event: None,
        });
        let a = analyze(&log, &births);
        assert_eq!(a.races, 1);
        assert_eq!(a.flags.len(), 1);
        assert!(has_flag(&a, 1, 0));
    }

    // --------------------------------------------------- incremental

    /// Minimal deterministic LCG so the fuzz below needs no external
    /// crate and reruns identically.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self, bound: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) % bound.max(1)
        }
    }

    /// A random event over a palette covering every footprint class the
    /// candidate indices distinguish: same-resource classes, throws
    /// (at runnable and at stuck targets), terminals, effects, locals. An
    /// `MVar` step is a blocking take, a blocking put, or neither, so
    /// the hand-off rule thins the same-cell candidate lists.
    /// `MVar` indices reach far past a fresh class list's length, and a
    /// throw may aim at a thread that never logs a step.
    fn random_event(rng: &mut Lcg, threads: u64, next_point: &mut u32) -> ExecEvent {
        let tid = rng.next(threads);
        let fp = match rng.next(12) {
            0 => StepFootprint::Local,
            1 => StepFootprint::Mask,
            2 => StepFootprint::Terminal,
            3 => StepFootprint::MVar(MVarId::from_index(1)),
            4 => StepFootprint::MVar(MVarId::from_index(2 + rng.next(3) * 19)),
            5 => StepFootprint::Alloc,
            6 => StepFootprint::Console,
            7 => StepFootprint::Time,
            8 => StepFootprint::Fork,
            9 => StepFootprint::Effect,
            _ => StepFootprint::Throw(ThreadId::from_index(rng.next(threads + 3))),
        };
        // A throw at a stuck target cancels a wait on one of the
        // resources a wait can name.
        let cancels = match (fp, rng.next(6)) {
            (StepFootprint::Throw(_), 1) => Some(StepFootprint::MVar(MVarId::from_index(1))),
            (StepFootprint::Throw(_), 2) => Some(StepFootprint::Console),
            (StepFootprint::Throw(_), 3) => Some(StepFootprint::Time),
            (StepFootprint::Throw(_), 4) => Some(StepFootprint::Effect),
            _ => None,
        };
        let op = match (fp, rng.next(3)) {
            (StepFootprint::MVar(_), 1) => Some(MVarOp::Take),
            (StepFootprint::MVar(_), 2) => Some(MVarOp::Put),
            _ => None,
        };
        let point = if rng.next(3) > 0 {
            *next_point += 1;
            Some(*next_point - 1)
        } else {
            None
        };
        let step = Step::of(&ThreadView {
            tid: ThreadId::from_index(tid),
            footprint: fp,
            pending: 0,
            masked: false,
            mvar_op: op,
            cancels,
        });
        ExecEvent { step, point }
    }

    /// What the incremental analyzer says of `log`, in the reference's
    /// shape.
    fn incremental(st: &mut RaceState, log: &[ExecEvent], births: &[Birth]) -> RaceAnalysis {
        let races = st.analyze(log, births, EXIT);
        RaceAnalysis {
            flags: st.flags().to_vec(),
            races,
        }
    }

    /// The incremental analyzer against the reference full recompute, over
    /// DFS-shaped log sequences: each run keeps a prefix of the previous
    /// run (exercising [`RaceState::rollback`] at every depth, including
    /// 0 and full length) and appends a fresh random suffix. Thread
    /// counts straddle [`CLOCK_INLINE`], so clocks are joined inline,
    /// across the spill and on the heap; every third run cuts *through*
    /// a kept flag — between its race's earlier and later event — so a
    /// flag that must go sits next to ones that must stay. The two must
    /// agree exactly — race count, flags, witnesses.
    #[test]
    fn incremental_matches_reference_on_backtracking_log_sequences() {
        let (mut widest, mut cuts) = (0, 0);
        for seed in 0..40_u64 {
            // Wrapping: the seed spread deliberately overflows u64 (it
            // always wrapped in release; debug builds must agree).
            let mut rng = Lcg(0x9E3779B97F4A7C15 ^ seed.wrapping_mul(0x5851F42D4C957F2D));
            let threads = 2 + rng.next(2 * CLOCK_INLINE as u64 - 1);
            widest = widest.max(threads);
            let births: Vec<Birth> = (0..threads)
                .map(|t| Birth {
                    tid: t,
                    // Arbitrary but fixed creation edges (t born of an
                    // early event of t-1), consistent across the runs
                    // of one "exploration" like the driver guarantees.
                    // Lazily: `then_some` would evaluate `t - 1` even
                    // at t = 0 and underflow in debug builds.
                    parent_event: (t > 0).then(|| (t - 1) as u32),
                })
                .collect();
            let mut st = RaceState::default();
            let mut log: Vec<ExecEvent> = Vec::new();
            for run in 0..60 {
                let mut keep = rng.next(log.len() as u64 + 1) as usize;
                if run % 3 == 2 && !st.flags.is_empty() {
                    let k = rng.next(st.flags.len() as u64) as usize;
                    let (point, later) = (st.flags[k].point, st.flag_later[k] as usize);
                    let earlier = log.iter().position(|e| e.point == Some(point)).unwrap();
                    keep = earlier + 1 + rng.next((later - earlier) as u64) as usize;
                    cuts += 1;
                }
                log.truncate(keep);
                let grow = 1 + rng.next(15);
                let mut next_point = log.iter().filter(|e| e.point.is_some()).count() as u32;
                for _ in 0..grow {
                    let e = random_event(&mut rng, threads, &mut next_point);
                    log.push(e);
                }
                let expected = analyze(&log, &births);
                let got = incremental(&mut st, &log, &births);
                assert_eq!(
                    got, expected,
                    "seed={seed} diverged on log {log:?} births {births:?}"
                );
                assert!(st.flag_later.windows(2).all(|w| w[0] <= w[1]));
            }
        }
        assert_eq!(widest, 2 * CLOCK_INLINE as u64, "a clock must have spilled");
        assert!(cuts > 100, "only {cuts} rollbacks cut through a kept flag");
    }

    /// The kept flags are the first found for their `(point, later_tid)`
    /// in the *current* log, wherever the previous log found them. Two
    /// events here share branch point 0 (no driver log does that; it is
    /// what makes a second race flag the same pair), so thread 1 races
    /// at point 0 twice per log — once on the console, once on the
    /// clock — in an order the two logs disagree on past their shared
    /// first event.
    #[test]
    fn a_kept_flag_is_the_first_found_in_the_current_log() {
        let console = |tid, point| ev(tid, StepFootprint::Console, point);
        let time = |tid, point| ev(tid, StepFootprint::Time, point);
        // Console race first (later event 1), clock race deduplicated.
        let console_first = [
            console(0, Some(0)),
            console(1, None),
            time(2, Some(0)),
            time(1, None),
        ];
        // Clock race first (later event 2), console race deduplicated.
        let clock_first = [
            console(0, Some(0)),
            time(2, Some(0)),
            time(1, None),
            console(1, None),
        ];
        // Shares `console_first`'s flag-bearing prefix, then races on
        // the clock the other way round: thread 2 is the later one.
        let kept_then_new = [
            console(0, Some(0)),
            console(1, None),
            time(1, Some(0)),
            time(2, None),
        ];
        let mut st = RaceState::default();
        let mut check = |log: &[ExecEvent], found_at: &[u32]| {
            assert_eq!(incremental(&mut st, log, &[]), analyze(log, &[]));
            assert_eq!(st.flag_later, found_at);
        };
        // The flag found in the suffix goes with it...
        check(&console_first, &[1]);
        check(&clock_first, &[2]);
        // ...and is found anew where this log has it first.
        check(&console_first, &[1]);
        // A flag found in the kept prefix stays and still shadows.
        check(&kept_then_new, &[1, 3]);
        check(&console_first, &[1]);
    }

    /// Rollback all the way to the empty log must leave the state
    /// indistinguishable from fresh.
    #[test]
    fn incremental_survives_rollback_to_empty() {
        let births = [Birth {
            tid: 0,
            parent_event: None,
        }];
        let long = [
            ev(0, StepFootprint::Console, Some(0)),
            ev(1, StepFootprint::Console, Some(1)),
            ev(0, StepFootprint::MVar(MVarId::from_index(1)), Some(2)),
            ev(1, StepFootprint::MVar(MVarId::from_index(1)), None),
        ];
        let short = [
            ev(1, StepFootprint::Time, Some(0)),
            ev(0, StepFootprint::Time, None),
        ];
        let mut st = RaceState::default();
        assert_eq!(
            incremental(&mut st, &long, &births),
            analyze(&long, &births)
        );
        // Disjoint first event: common prefix is empty.
        assert_eq!(
            incremental(&mut st, &short, &births),
            analyze(&short, &births)
        );
        assert_eq!(
            incremental(&mut st, &long, &births),
            analyze(&long, &births)
        );
    }
}
