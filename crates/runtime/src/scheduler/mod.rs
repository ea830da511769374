//! The green-thread scheduler and small-step interpreter.
//!
//! This module is the executable counterpart of §8 of the paper: it owns
//! the thread table, `MVar` cells, the virtual clock, and the console, and
//! interprets one [`Action`](crate::io::Io) node per step. Preemption is a
//! scheduling quantum measured in interpreter steps, so a `throwTo` can
//! take effect at *any* step boundary of the target — truly asynchronous
//! delivery, including in the middle of a pure computation.
//!
//! Delivery discipline (matching §5 and Figure 5) — each rule is one
//! function, and every site that needs the rule calls it:
//!
//! * **(Receive)** — a runnable, *unblocked* thread receives the first
//!   pending exception at its next step (in
//!   [`FullyAsync`](crate::config::DeliveryMode::FullyAsync) mode; the
//!   polling baseline defers this to explicit safe points):
//!   `Runtime::receive` → `Runtime::raise_async`.
//! * **(Interrupt)** — a *stuck* thread (blocked `takeMVar`/`putMVar`,
//!   `sleep`, `getChar`, sync-`throwTo`) is interruptible regardless of its
//!   masking state, and becomes runnable with the exception raised:
//!   `Runtime::enqueue_exception` → `Runtime::raise_async`.
//! * **Interruptible operations** (§5.3) — a blocked-mask thread that is
//!   *about to block* on an unavailable resource receives its pending
//!   exception instead of blocking; if the resource is available the
//!   operation completes atomically without a delivery point:
//!   `Runtime::block_on`.
//! * **(Block)/(Unblock)** — `Runtime::enter_mask_scope` over
//!   `Thread::enter_mask`.
//! * **(Proc GC)** — `Runtime::clear_run_state`.

use std::collections::VecDeque;

use crate::config::{RuntimeConfig, SchedulingPolicy};
use crate::console::BufferConsole;
use crate::decide::{Decider, StepFootprint, ThreadView};
use crate::error::RunError;
use crate::exception::Exception;
use crate::ids::{MVarId, ThreadId};
use crate::io::{Action, Io};
use crate::mvar::MVarCell;
use crate::rng::SplitMix64;
use crate::stats::Stats;
use crate::thread::{Code, MaskState, Status, Thread};
use crate::timer::{TimerEntry, TimerWheel};
use crate::trace::IoEvent;
use crate::value::{FromValue, Value};

use self::interp::{footprint_of, take_code, Step};

/// The runtime: scheduler, thread table, `MVar` store, clock and console.
///
/// A `Runtime` is reusable: each [`Runtime::run`] spawns a fresh main
/// thread, while `MVar` cells, the console and the virtual clock persist
/// across runs (statistics reset per run).
///
/// # Examples
///
/// ```
/// use conch_runtime::prelude::*;
///
/// let mut rt = Runtime::new();
/// let result = rt.run(Io::pure(2_i64).map(|n| n + 2)).unwrap();
/// assert_eq!(result, 4);
/// ```
pub struct Runtime {
    config: RuntimeConfig,
    threads: Vec<Slot>,
    /// Vacated thread-table slots available for reuse (LIFO).
    free_slots: Vec<u16>,
    /// Spawn sequence counter: the next thread's observable identity.
    next_seq: u32,
    /// Runnable threads in FIFO order. A plain `VecDeque`: a decider's
    /// or a random pick removes from the middle in O(n), and n is small —
    /// traced `measure --seed 1` reads the longest queue as 1 / 5 / 14 /
    /// 12 / 11 / 4 threads on the six workloads.
    run_queue: VecDeque<ThreadId>,
    mvars: Vec<MVarCell>,
    clock: u64,
    sleep_seq: u64,
    /// Sleeping threads in a binary heap keyed by `(wake_at, seq)`,
    /// popped a whole tick at a time (see [`crate::timer`]).
    sleepers: TimerWheel<ThreadId>,
    /// Sleeper entries whose sleeper was interrupted (or died) and which
    /// therefore will never wake anyone. Drives eager compaction.
    stale_sleepers: usize,
    /// Reusable buffer for the batch of entries popped from `sleepers` in
    /// [`Runtime::advance_clock`] (one virtual tick's sleepers at a time).
    due_scratch: Vec<TimerEntry<ThreadId>>,
    console_waiters: VecDeque<ThreadId>,
    console: BufferConsole,
    stats: Stats,
    rng: Option<SplitMix64>,
    trace: Vec<IoEvent>,
    main_tid: Option<ThreadId>,
    /// The run's outcome, once decided: the main thread's result, or
    /// the error that ends the run early ([`RunError::ThreadLimitExceeded`]).
    main_result: Option<Result<Value, RunError>>,
    yielded: bool,
    /// The thread scheduled by the previous `pick_next`, for
    /// context-switch accounting. A field (not a `run_value` local) so
    /// an epoch-capped [`Runtime::pump`] counts switches across pump
    /// boundaries exactly as one uninterrupted run would.
    last_scheduled: Option<ThreadId>,
    /// External scheduling driver: once installed it answers every pick
    /// and every delivery, and `rng` goes unused. Kept in an `Option` so
    /// it can be temporarily moved out while the runtime is borrowed.
    decider: Option<Box<dyn Decider>>,
    /// Reusable buffer for the per-decision `ThreadView` list handed to
    /// the decider (which is asked before every visible step, so
    /// without this the scheduler would allocate a fresh `Vec` each time).
    view_scratch: Vec<ThreadView>,
    /// Recycled thread boxes from finished threads (stacks and pending
    /// queues emptied, capacity kept), reused by later spawns so
    /// fork-heavy workloads stop allocating per thread. The boxes are
    /// the pooled resource — they move straight back into a `Slot` —
    /// so `Vec<Box<_>>` is exactly right here, not an accident.
    #[allow(clippy::vec_box)]
    thread_pool: Vec<Box<Thread>>,
}

/// One thread-table entry: the occupant (if any) plus the slot's
/// generation, bumped each time an occupant is retired so stale
/// [`ThreadId`] handles miss instead of hitting the slot's next tenant.
#[derive(Debug, Default)]
struct Slot {
    generation: u16,
    /// Boxed so scheduling a thread moves 8 bytes, not the whole
    /// 160-byte `Thread`: the scheduler loop takes the running thread
    /// out of the table for its whole quantum (so helpers may touch
    /// other threads) and puts it back once when the quantum ends.
    thread: Option<Box<Thread>>,
}

/// Cap on recycled thread boxes kept for reuse.
const THREAD_POOL_MAX: usize = 256;

/// Most threads that can be alive at once: a [`ThreadId`] names its
/// slot in 16 bits.
const MAX_THREAD_SLOTS: usize = u16::MAX as usize + 1;

/// Why a capped [`Runtime::pump`] handed control back to its driver.
#[derive(Debug)]
pub(crate) enum PumpOutcome {
    /// The main thread finished (or hit the configured `max_steps` /
    /// local deadlock, in the uncapped path): the run is over and (Proc
    /// GC) has recycled every other thread.
    Finished(Result<Value, RunError>),
    /// Nothing is runnable and no sleeper is due at or before the clock
    /// cap. `next_wake` is the earliest stored wake time (possibly of a
    /// lazily-invalidated sleeper), `None` if the sleeper queue is empty.
    Idle { next_wake: Option<u64> },
}

/// The table index `tid` names, if the slot's generation is still the
/// one in the handle — the one place a stale [`ThreadId`] is told from
/// a live one. Free functions over the table (rather than methods) so a
/// caller can hold the result alongside a borrow of another field.
fn slot_index(threads: &[Slot], tid: ThreadId) -> Option<usize> {
    let i = tid.slot as usize;
    (threads.get(i)?.generation == tid.generation).then_some(i)
}

/// The live thread `tid` names, unless it is the one running (which is
/// outside the table for its quantum).
fn lookup(threads: &[Slot], tid: ThreadId) -> Option<&Thread> {
    threads[slot_index(threads, tid)?].thread.as_deref()
}

fn lookup_mut(threads: &mut [Slot], tid: ThreadId) -> Option<&mut Thread> {
    threads[slot_index(threads, tid)?].thread.as_deref_mut()
}

/// Enqueues a runnable thread, refreshing its cached next-step
/// footprint — the single choke point every path to the run queue
/// goes through, so a queued thread's `footprint` field is always
/// current (nothing mutates a thread while it waits in the queue).
fn enqueue_runnable(run_queue: &mut VecDeque<ThreadId>, th: &mut Thread) {
    debug_assert_eq!(th.status, Status::Runnable);
    th.footprint = footprint_of(th);
    run_queue.push_back(th.tid);
}

/// The scheduling RNG `config` asks for. The XOR is part of the pinned
/// stream: G3's random-scheduling golden and every recorded seed rest
/// on it.
fn rng_for(config: &RuntimeConfig) -> Option<SplitMix64> {
    match config.scheduling {
        SchedulingPolicy::Random { seed } => Some(SplitMix64::new(seed ^ 0x9E37_79B9_7F4A_7C15)),
        SchedulingPolicy::RoundRobin => None,
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field(
                "live_threads",
                &self.threads.iter().filter(|s| s.thread.is_some()).count(),
            )
            .field("clock", &self.clock)
            .field("steps", &self.stats.steps)
            .finish()
    }
}

impl Default for Runtime {
    fn default() -> Self {
        Runtime::new()
    }
}

impl Runtime {
    /// A runtime with the default (paper-design) configuration.
    pub fn new() -> Self {
        Runtime::with_config(RuntimeConfig::default())
    }

    /// A runtime with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.quantum` is 0. The [`RuntimeConfig::quantum`]
    /// builder rejects 0 up front, but the field is `pub`, so a struct
    /// literal could otherwise smuggle in a quantum that would make the
    /// scheduler spin forever (round-robin) or panic deep inside the
    /// RNG (`gen_range(1..=0)`, random policy). Validating here covers
    /// both construction paths.
    pub fn with_config(config: RuntimeConfig) -> Self {
        assert!(
            config.quantum >= 1,
            "RuntimeConfig.quantum must be at least 1 interpreter step, got 0 \
             (a zero quantum would never execute any thread)"
        );
        Runtime {
            rng: rng_for(&config),
            config,
            threads: Vec::new(),
            free_slots: Vec::new(),
            next_seq: 0,
            run_queue: VecDeque::new(),
            mvars: Vec::new(),
            clock: 0,
            sleep_seq: 0,
            sleepers: TimerWheel::new(),
            stale_sleepers: 0,
            due_scratch: Vec::new(),
            console_waiters: VecDeque::new(),
            console: BufferConsole::new(),
            stats: Stats::default(),
            trace: Vec::new(),
            main_tid: None,
            main_result: None,
            yielded: false,
            last_scheduled: None,
            decider: None,
            view_scratch: Vec::new(),
            thread_pool: Vec::new(),
        }
    }

    /// Restores the runtime to its just-constructed state — fresh `MVar`
    /// store, console, clock and statistics — while keeping allocated
    /// capacity (thread table, run queue, scratch buffers, recycled
    /// stacks) and any installed decider. This is the cheap way to run
    /// many independent programs on one runtime: the schedule explorer
    /// calls it between schedules instead of building a new `Runtime`
    /// per run.
    pub fn reset(&mut self) {
        self.clear_run_state();
        self.stats = Stats::default();
        self.trace.clear();
        self.mvars.clear();
        self.clock = 0;
        self.sleep_seq = 0;
        self.console = BufferConsole::new();
        self.rng = rng_for(&self.config);
        self.main_tid = None;
        self.yielded = false;
    }

    /// Forgets every thread: empties the table (recycling the occupants)
    /// and every structure that names a thread — free list and spawn
    /// counter, run queue, sleepers, console waiters, the last-scheduled
    /// marker, an uncollected result. Rule (Proc GC) at the end of a run
    /// and the per-run reset at the start of the next are both this;
    /// what a run *produced* (statistics, trace, `MVar`s, console,
    /// clock) is not touched.
    fn clear_run_state(&mut self) {
        for i in 0..self.threads.len() {
            if let Some(th) = self.threads[i].thread.take() {
                self.recycle(th);
            }
        }
        self.threads.clear();
        self.free_slots.clear();
        self.next_seq = 0;
        self.run_queue.clear();
        self.sleepers.clear();
        self.stale_sleepers = 0;
        self.console_waiters.clear();
        self.main_result = None;
        self.last_scheduled = None;
    }

    /// Runs `io` to completion as the main thread.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Uncaught`] if the main thread dies with an
    /// uncaught exception, [`RunError::Deadlock`] if every live thread is
    /// stuck forever, [`RunError::StepLimitExceeded`] if the configured
    /// step budget runs out, or [`RunError::ThreadLimitExceeded`] if a
    /// `fork` finds every thread slot occupied.
    pub fn run<T: FromValue>(&mut self, io: Io<T>) -> Result<T, RunError> {
        self.run_value(io.action).map(T::from_value_or_panic)
    }

    pub(crate) fn run_value(&mut self, action: Action) -> Result<Value, RunError> {
        self.begin_run(action);
        match self.pump_inner(None, true) {
            PumpOutcome::Finished(res) => res,
            out => unreachable!("uncapped pump returned {out:?} instead of finishing"),
        }
    }

    /// Spawns `action` as a fresh main thread without running it yet —
    /// the first half of [`Runtime::run`], split out so an epoch-synced
    /// shard (see [`crate::parallel`]) can start a program and then
    /// drive it in capped [`Runtime::pump`] slices. Resets per-run state
    /// (threads, run queue, sleepers, stats, trace); `MVar`s, the
    /// console and the clock persist, so host-allocated mailboxes stay
    /// valid across `begin_run`.
    pub(crate) fn begin_run(&mut self, action: Action) {
        self.clear_run_state();
        self.stats = Stats::default();
        self.trace.clear();
        let main = self.spawn(action, MaskState::Unblocked);
        self.main_tid = Some(main.expect("an empty thread table has a free slot"));
    }

    /// Runs the program started by [`Runtime::begin_run`] until it
    /// finishes or goes idle with no sleeper due at or before
    /// `clock_cap` (the inclusive end of the current epoch). Never
    /// applies the deadlock policy — a capped shard that is locally
    /// stuck may still be woken by a cross-shard message, so only the
    /// coordinator, seeing every shard idle with nothing in flight, can
    /// declare a global deadlock.
    pub(crate) fn pump(&mut self, clock_cap: u64) -> PumpOutcome {
        self.pump_inner(Some(clock_cap), false)
    }

    /// The scheduler loop shared by [`Runtime::run`] (uncapped,
    /// `local_deadlock`) and [`Runtime::pump`] (epoch-capped).
    fn pump_inner(&mut self, clock_cap: Option<u64>, local_deadlock: bool) -> PumpOutcome {
        'sched: loop {
            if let Some(res) = self.main_result.take() {
                // (Proc GC): once the main thread is finished, all other
                // threads die.
                self.clear_run_state();
                return PumpOutcome::Finished(res);
            }
            // The one `max_steps` test: no quantum is granted more steps
            // than the limit leaves, so a thread that reaches it ends its
            // quantum the ordinary way (back in its slot and the run
            // queue) and the run stops here, on exactly `limit` steps.
            let allowance = match self.config.max_steps {
                Some(limit) if self.stats.steps >= limit => {
                    return PumpOutcome::Finished(Err(RunError::StepLimitExceeded { limit }));
                }
                Some(limit) => limit - self.stats.steps,
                None => u64::MAX,
            };
            if self.run_queue.is_empty() {
                if self.advance_clock(clock_cap) {
                    continue;
                }
                if local_deadlock {
                    return PumpOutcome::Finished(Err(self.deadlock_error()));
                }
                // The next wake may belong to a lazily-invalidated
                // sleeper; the coordinator tolerates that (the next
                // round's capped advance discards it and re-reports).
                return PumpOutcome::Idle {
                    next_wake: self.sleepers.peek_earliest_wake(),
                };
            }
            let (tid, invisible) = self.pick_next(self.last_scheduled);
            if self.last_scheduled != Some(tid) {
                self.stats.context_switches += 1;
                self.last_scheduled = Some(tid);
            }
            let mut steps_left = self.quantum_for().min(allowance);
            self.yielded = false;
            // The running thread lives outside the table for its whole
            // quantum, so the helpers a step calls on *other* threads
            // never alias it. Every way out of the quantum either
            // retires the thread or falls through to the put-back below.
            let slot = tid.slot as usize;
            let mut th = self.threads[slot]
                .thread
                .take()
                .expect("scheduled thread exists");
            debug_assert_eq!(th.status, Status::Runnable);
            let requeue = loop {
                if let Step::Ended = self.step(&mut th) {
                    self.retire_thread(th);
                    continue 'sched;
                }
                steps_left -= 1;
                if th.is_stuck() {
                    break false;
                }
                // `main_result` mid-quantum is a failed fork ending the run.
                if steps_left == 0 || self.yielded || self.main_result.is_some() {
                    if invisible && self.invisible_run_goes_on(&th) {
                        steps_left = 1;
                        continue;
                    }
                    break true;
                }
            };
            if requeue {
                enqueue_runnable(&mut self.run_queue, &mut th);
            }
            self.threads[slot].thread = Some(th);
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Everything the program has written with `putChar` so far.
    pub fn output(&self) -> &str {
        self.console.output()
    }

    /// Appends input for subsequent `getChar`s (between runs).
    pub fn feed_input(&mut self, input: impl Into<String>) {
        self.console.feed(input);
    }

    /// The observable I/O trace of the last run.
    pub fn io_trace(&self) -> &[IoEvent] {
        &self.trace
    }

    /// Statistics of the last run.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The virtual clock, in microseconds.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The `ThreadId` the main thread had in the last run.
    ///
    /// # Panics
    ///
    /// Panics if nothing has been run yet.
    pub fn main_thread_id(&self) -> ThreadId {
        self.main_tid.expect("no run has started yet")
    }

    /// The configuration this runtime was built with.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    // ------------------------------------------------------------------
    // External scheduling
    // ------------------------------------------------------------------

    /// Installs an external scheduling driver: from the next run on,
    /// every thread-selection and exception-delivery decision is made by
    /// `decider`, one step at a time, whatever the configured
    /// [`SchedulingPolicy`]. The decider persists across runs (and
    /// [`Runtime::reset`]) until replaced.
    pub fn set_decider(&mut self, decider: Box<dyn Decider>) {
        self.decider = Some(decider);
    }

    /// Consults the installed decider, if any: it is moved out for the
    /// call, so `ask` may use the rest of the runtime, and put back.
    /// `None` means no decider is installed and the caller's default
    /// applies.
    fn with_decider<R>(&mut self, ask: impl FnOnce(&mut Self, &mut dyn Decider) -> R) -> Option<R> {
        let mut decider = self.decider.take()?;
        let answer = ask(self, decider.as_mut());
        self.decider = Some(decider);
        Some(answer)
    }

    /// The currently-runnable threads, in run-queue order, each with the
    /// conservative footprint of its next step. Useful to exploration
    /// drivers and for post-mortem debugging (after a deadlock, this is
    /// empty; see [`RunError::Deadlock`] for the stuck set).
    pub fn runnable(&self) -> Vec<ThreadView> {
        self.run_queue.iter().map(|&t| self.view_of(t)).collect()
    }

    fn view_of(&self, tid: ThreadId) -> ThreadView {
        let th = lookup(&self.threads, tid).expect("runnable thread exists");
        debug_assert_eq!(
            th.footprint,
            footprint_of(th),
            "cached footprint went stale for {tid}"
        );
        view(th, th.footprint)
    }

    // ------------------------------------------------------------------
    // Thread table helpers
    // ------------------------------------------------------------------

    /// Starts a thread, or returns `None` when all [`MAX_THREAD_SLOTS`]
    /// slots hold live threads.
    fn spawn(&mut self, action: Action, mask: MaskState) -> Option<ThreadId> {
        let (slot, generation) = match self.free_slots.pop() {
            Some(slot) => (slot, self.threads[slot as usize].generation),
            None if self.threads.len() == MAX_THREAD_SLOTS => return None,
            None => {
                self.threads.push(Slot::default());
                ((self.threads.len() - 1) as u16, 0)
            }
        };
        let seq = self.next_seq;
        self.next_seq = self
            .next_seq
            .checked_add(1)
            .expect("more than u32::MAX threads spawned in one run");
        let tid = ThreadId::fresh(seq, slot, generation);
        let mut th = match self.thread_pool.pop() {
            Some(mut b) => {
                b.reinit(tid, action);
                b
            }
            None => Box::new(Thread::with_buffers(
                tid,
                action,
                Vec::new(),
                VecDeque::new(),
            )),
        };
        th.mask = mask;
        enqueue_runnable(&mut self.run_queue, &mut th);
        debug_assert!(self.threads[slot as usize].thread.is_none());
        self.threads[slot as usize].thread = Some(th);
        self.stats.max_thread_slots = self.stats.max_thread_slots.max(self.threads.len());
        Some(tid)
    }

    fn quantum_for(&mut self) -> u64 {
        if self.decider.is_some() {
            // One step per decision: the driver sees every step boundary
            // but those inside an invisible run it announced itself.
            return 1;
        }
        let q = self.config.quantum;
        match &mut self.rng {
            Some(rng) => 1 + rng.below(q),
            None => q,
        }
    }

    /// An invisible run (see [`Decider::choose_thread`]) is one quantum:
    /// at each of its step boundaries the decider's answer could not
    /// differ, so `th` steps on unasked — while its next step is still
    /// local with nothing pending, the run is not over, and `max_steps`
    /// is not spent. Out of line: only a decider's quantum end gets
    /// here, and inlined into the step loop it cost the other policies
    /// ≈ 3 % (EXPERIMENTS.md X1).
    #[inline(never)]
    fn invisible_run_goes_on(&self, th: &Thread) -> bool {
        self.main_result.is_none()
            && th.pending.is_empty()
            && footprint_of(th).is_local()
            && self
                .config
                .max_steps
                .is_none_or(|end| self.stats.steps < end)
    }

    /// The thread that runs next, and whether a decider called the pick
    /// an invisible move (only a decider ever does).
    fn pick_next(&mut self, previous: Option<ThreadId>) -> (ThreadId, bool) {
        if let Some(pick) = self.with_decider(|rt, d| rt.pick_with(d, previous)) {
            return pick;
        }
        // Round-robin, or a seeded random pick.
        let tid = match &mut self.rng {
            None => self.run_queue.pop_front(),
            Some(rng) => {
                let i = rng.below(self.run_queue.len() as u64) as usize;
                self.run_queue.remove(i)
            }
        };
        (tid.expect("non-empty run queue"), false)
    }

    /// Lets `decider` choose among the runnable threads.
    fn pick_with(
        &mut self,
        decider: &mut dyn Decider,
        previous: Option<ThreadId>,
    ) -> (ThreadId, bool) {
        // Forced move: one runnable thread. The decider is still
        // consulted (it keeps sleep-set bookkeeping per visible step),
        // but the scratch view list is skipped.
        if self.run_queue.len() == 1 {
            let tid = self.run_queue.pop_front().expect("non-empty run queue");
            let view = self.view_of(tid);
            let pick = decider.choose_thread(std::slice::from_ref(&view), previous);
            assert!(
                pick.index == 0,
                "Decider::choose_thread returned index {} for 1 runnable thread",
                pick.index
            );
            return (tid, pick.invisible);
        }
        // Build the decision's view list into the reusable scratch
        // buffer: no allocation after warm-up, and the footprints come
        // from the per-thread cache instead of being recomputed for
        // every queued thread.
        let mut views = std::mem::take(&mut self.view_scratch);
        views.clear();
        views.extend(self.run_queue.iter().map(|&tid| self.view_of(tid)));
        let pick = decider.choose_thread(&views, previous);
        assert!(
            pick.index < views.len(),
            "Decider::choose_thread returned index {} for {} runnable threads",
            pick.index,
            views.len()
        );
        let tid = views[pick.index].tid;
        self.run_queue.remove(pick.index);
        self.view_scratch = views;
        (tid, pick.invisible)
    }

    pub(crate) fn deadlock_error(&self) -> RunError {
        // Slot order is storage order; report in spawn order, which is
        // what the table order used to be before slot reclamation.
        let mut stuck: Vec<_> = self
            .threads
            .iter()
            .filter_map(|s| s.thread.as_ref())
            .filter_map(|t| match &t.status {
                Status::Stuck(r) => Some((t.tid, r.describe())),
                Status::Runnable => None,
            })
            .collect();
        stuck.sort_by_key(|(tid, _)| *tid);
        RunError::Deadlock { stuck }
    }

    // ------------------------------------------------------------------
    // Host-side operations (the epoch-barrier surface)
    //
    // The parallel coordinator acts on a shard's runtime only while the
    // shard is between pumps — no program thread is mid-step — so these
    // are ordinary step-boundary events, exactly where the paper allows
    // asynchronous delivery.
    // ------------------------------------------------------------------

    /// Allocates a fresh empty `MVar` from outside any thread. Unlike
    /// per-run thread state, `MVar` cells persist across
    /// [`Runtime::begin_run`] (only [`Runtime::reset`] clears them), so
    /// a host-allocated mailbox outlives the program it is handed to.
    pub(crate) fn host_alloc_mvar(&mut self) -> MVarId {
        let id = MVarId(self.mvars.len() as u64);
        self.mvars.push(MVarCell::empty());
        id
    }

    /// `tryPutMVar` from outside any thread: fills the cell (waking a
    /// blocked taker, if any) and returns `true`, or returns `false` if
    /// it is already full — the same non-blocking semantics as
    /// `Action::TryPutMVar`, minus a thread to return the bool to.
    pub(crate) fn host_try_put_mvar(&mut self, m: MVarId, v: Value) -> bool {
        self.try_put(m, v).is_ok()
    }

    /// `throwTo` from outside any thread: enqueues `exc` for `target`,
    /// interrupting it immediately if stuck (rule (Interrupt)). A
    /// `target` that is dead — or a stale `ThreadId` whose slot was
    /// reused, which the generation check distinguishes — is a no-op,
    /// matching the paper's "throwTo to a finished thread trivially
    /// succeeds". This is how a cross-shard `throwTo` lands at an epoch
    /// barrier.
    pub(crate) fn host_throw_to(&mut self, target: ThreadId, exc: Exception) {
        self.stats.throwtos += 1;
        self.enqueue_exception(target, exc, None);
    }

    // ------------------------------------------------------------------
    // Thread termination
    // ------------------------------------------------------------------

    /// Retires a thread whose code returned or raised with an empty
    /// stack: records how it ended (a death is a kill, a propagated-link
    /// exit signal, or an ordinary crash — the actor layer's
    /// `ExitReason` mirrors this split), returns its slot to the free
    /// list and its box to the spawn pool. Bumping the slot's generation
    /// makes every outstanding `ThreadId` for it a stale handle: lookups
    /// miss, so a late `throwTo` at the reused slot stays a no-op
    /// instead of killing the new occupant.
    fn retire_thread(&mut self, mut th: Box<Thread>) {
        let outcome = match take_code(&mut th) {
            Code::ReturnVal(v) => {
                self.stats.finished_threads += 1;
                Ok(v)
            }
            Code::Raise(exc, _) => {
                if exc.is_kill_thread() {
                    self.stats.kill_thread_deaths += 1;
                } else if exc.is_exit_signal() {
                    self.stats.exit_signal_deaths += 1;
                }
                self.stats.died_threads += 1;
                Err(RunError::Uncaught(exc))
            }
            Code::Run(_) => unreachable!("only a return or a raise ends a thread"),
        };
        if Some(th.tid) == self.main_tid {
            self.main_result = Some(outcome);
        }
        let slot = th.tid.slot as usize;
        debug_assert!(self.threads[slot].thread.is_none(), "thread was taken");
        self.threads[slot].generation = self.threads[slot].generation.wrapping_add(1);
        self.free_slots.push(th.tid.slot);
        // Exceptions still queued will now never be received: delivery
        // to a dead thread trivially succeeds, so their sync throwers
        // (§9) go on.
        while let Some(p) = th.take_pending() {
            self.wake_sync_thrower(p.notify, th.tid, p.enqueued_step);
        }
        self.recycle(th);
    }

    /// Returns a dead thread's box (buffers emptied, capacity kept) to
    /// the spawn pool.
    fn recycle(&mut self, mut th: Box<Thread>) {
        if self.thread_pool.len() < THREAD_POOL_MAX {
            th.stack.clear();
            th.pending.clear();
            self.thread_pool.push(th);
        }
    }
}

/// The decider's view of `th`, about to take a step with `footprint`.
fn view(th: &Thread, footprint: StepFootprint) -> ThreadView {
    ThreadView {
        tid: th.tid,
        footprint,
        pending: th.pending.len(),
        masked: th.mask == MaskState::Blocked,
    }
}

mod block;
mod clock;
mod deliver;
mod interp;

#[cfg(test)]
mod origin_tests;
#[cfg(test)]
mod slice_tests;
#[cfg(test)]
mod tests;
