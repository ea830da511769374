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
//!   `Runtime::step` → `Runtime::raise_async`.
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

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{DeadlockPolicy, DeliveryMode, RuntimeConfig, SchedulingPolicy};
use crate::console::{BufferConsole, Console};
use crate::decide::{Decider, StepFootprint, ThreadView};
use crate::error::RunError;
use crate::exception::Exception;
use crate::ids::{MVarId, ThreadId};
use crate::io::{Action, Io};
use crate::mvar::MVarCell;
use crate::runq::RunQueue;
use crate::stats::Stats;
use crate::thread::{Code, Frame, MaskState, PendingExc, RaiseOrigin, Status, StuckReason, Thread};
use crate::timer::{TimerEntry, TimerWheel};
use crate::trace::IoEvent;
use crate::value::{FromValue, Value};

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
    run_queue: RunQueue,
    mvars: Vec<MVarCell>,
    clock: u64,
    sleep_seq: u64,
    /// Sleeping threads, filed by absolute wake time in a hierarchical
    /// timer wheel. Pops whole ticks in `(wake_at, seq)` order — exactly
    /// the order the old `BinaryHeap` produced — at amortized O(1) per
    /// entry instead of O(log n) (see [`crate::timer`]).
    sleepers: TimerWheel<ThreadId>,
    /// Wheel entries whose sleeper was interrupted (or died) and which
    /// therefore will never wake anyone. Drives eager compaction.
    stale_sleepers: usize,
    /// Reusable buffer for the batch of entries popped from the wheel in
    /// [`Runtime::advance_clock`] (one virtual tick's sleepers at a time).
    due_scratch: Vec<TimerEntry<ThreadId>>,
    console_waiters: VecDeque<ThreadId>,
    console: BufferConsole,
    stats: Stats,
    rng: Option<StdRng>,
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
    /// External scheduling driver (only consulted under
    /// [`SchedulingPolicy::External`]). Kept in an `Option` so it can be
    /// temporarily moved out while the runtime is borrowed.
    decider: Option<Box<dyn Decider>>,
    /// Reusable buffer for the per-decision `ThreadView` list handed to
    /// the decider (External policy runs quantum=1, so without this the
    /// scheduler would allocate a fresh `Vec` on *every* step).
    view_scratch: Vec<ThreadView>,
    /// Run-queue positions matching `view_scratch`, for O(1) unlinking
    /// of the chosen thread.
    pos_scratch: Vec<usize>,
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
    /// The per-pump step budget ran out with work still queued.
    Budget,
    /// Nothing is runnable and no sleeper is due at or before the clock
    /// cap. `next_wake` is the earliest stored wake time (possibly of a
    /// lazily-invalidated sleeper), `None` if the wheel is empty.
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
fn enqueue_runnable(run_queue: &mut RunQueue, th: &mut Thread) {
    debug_assert_eq!(th.status, Status::Runnable);
    th.footprint = footprint_of(th);
    run_queue.push_back(th.tid);
}

/// The scheduling RNG `config` asks for.
fn rng_for(config: &RuntimeConfig) -> Option<StdRng> {
    match config.scheduling {
        SchedulingPolicy::Random { seed } => Some(StdRng::seed_from_u64(seed)),
        SchedulingPolicy::RoundRobin | SchedulingPolicy::External => None,
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
            run_queue: RunQueue::new(),
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
            pos_scratch: Vec::new(),
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
        match self.pump_inner(None, None, true) {
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
    /// finishes, exhausts `step_budget` interpreter steps, or goes idle
    /// with no sleeper due at or before `clock_cap` (the inclusive end
    /// of the current epoch). Never applies the deadlock policy — a
    /// capped shard that is locally stuck may still be woken by a
    /// cross-shard message, so only the coordinator, seeing every shard
    /// idle with nothing in flight, can declare a global deadlock.
    pub(crate) fn pump(&mut self, clock_cap: u64, step_budget: Option<u64>) -> PumpOutcome {
        self.pump_inner(Some(clock_cap), step_budget, false)
    }

    /// The scheduler loop shared by [`Runtime::run`] (uncapped,
    /// `local_deadlock`) and [`Runtime::pump`] (epoch-capped).
    fn pump_inner(
        &mut self,
        clock_cap: Option<u64>,
        step_budget: Option<u64>,
        local_deadlock: bool,
    ) -> PumpOutcome {
        let budget_end = step_budget.map(|b| self.stats.steps.saturating_add(b));
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
            if let Some(end) = budget_end {
                if self.stats.steps >= end {
                    return PumpOutcome::Budget;
                }
            }
            if self.run_queue.is_empty() {
                if self.advance_clock(clock_cap) {
                    continue;
                }
                if local_deadlock {
                    match self.config.deadlock {
                        DeadlockPolicy::Report => {
                            return PumpOutcome::Finished(Err(self.deadlock_error()))
                        }
                        DeadlockPolicy::RaiseBlockedIndefinitely => {
                            if self.interrupt_all_stuck() {
                                continue;
                            }
                            return PumpOutcome::Finished(Err(self.deadlock_error()));
                        }
                    }
                }
                // The next wake may belong to a lazily-invalidated
                // sleeper; the coordinator tolerates that (the next
                // round's capped advance discards it and re-reports).
                return PumpOutcome::Idle {
                    next_wake: self.sleepers.peek_earliest_wake(),
                };
            }
            let tid = self.pick_next(self.last_scheduled);
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

    /// Installs an external scheduling driver and switches the runtime to
    /// [`SchedulingPolicy::External`]: from the next run on, every
    /// thread-selection and exception-delivery decision is made by
    /// `decider`. The decider persists across runs until replaced or
    /// removed with [`Runtime::clear_decider`].
    pub fn set_decider(&mut self, decider: Box<dyn Decider>) {
        self.config.scheduling = SchedulingPolicy::External;
        self.rng = None;
        self.decider = Some(decider);
    }

    /// Removes the external scheduling driver, if any, and returns it.
    /// The policy stays [`SchedulingPolicy::External`] (degrading to
    /// round-robin with quantum 1) until reconfigured.
    pub fn clear_decider(&mut self) -> Option<Box<dyn Decider>> {
        self.decider.take()
    }

    /// Consults the installed decider, if any: it is moved out for the
    /// call, so `ask` may use the rest of the runtime, and put back.
    /// `None` means no decider is installed and the caller's default
    /// applies. A decider is only ever installed by
    /// [`Runtime::set_decider`], which also switches the policy to
    /// [`SchedulingPolicy::External`].
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
        self.run_queue.iter().map(|t| self.view_of(t)).collect()
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
        if self.threads.len() > self.stats.max_thread_slots {
            self.stats.max_thread_slots = self.threads.len();
        }
        Some(tid)
    }

    fn quantum_for(&mut self) -> u64 {
        if self.config.scheduling == SchedulingPolicy::External {
            // One step per decision: the driver sees every step boundary.
            return 1;
        }
        let q = self.config.quantum;
        match &mut self.rng {
            Some(rng) => rng.gen_range(1..=q),
            None => q,
        }
    }

    fn pick_next(&mut self, previous: Option<ThreadId>) -> ThreadId {
        if let Some(tid) = self.with_decider(|rt, d| rt.pick_with(d, previous)) {
            return tid;
        }
        // Round-robin, which external scheduling without a decider
        // degrades to, or a seeded random pick.
        match &mut self.rng {
            None => self.run_queue.pop_front().expect("non-empty run queue"),
            Some(rng) => {
                let i = rng.gen_range(0..self.run_queue.len());
                self.run_queue.remove_live(i)
            }
        }
    }

    /// Lets `decider` choose among the runnable threads.
    fn pick_with(&mut self, decider: &mut dyn Decider, previous: Option<ThreadId>) -> ThreadId {
        // Forced move: one runnable thread. The decider is still
        // consulted (it keeps sleep-set bookkeeping per step), but the
        // scratch buffers and position list are skipped.
        if self.run_queue.len() == 1 {
            let tid = self.run_queue.pop_front().expect("non-empty run queue");
            let view = self.view_of(tid);
            let i = decider.choose_thread(std::slice::from_ref(&view), previous);
            assert!(
                i == 0,
                "Decider::choose_thread returned index {i} for 1 runnable thread"
            );
            return tid;
        }
        // Build the decision's view list into the reusable scratch
        // buffers: no allocation after warm-up, and the footprints come
        // from the per-thread cache instead of being recomputed for
        // every queued thread.
        let mut views = std::mem::take(&mut self.view_scratch);
        let mut positions = std::mem::take(&mut self.pos_scratch);
        views.clear();
        positions.clear();
        for (pos, tid) in self.run_queue.iter_with_pos() {
            views.push(self.view_of(tid));
            positions.push(pos);
        }
        let i = decider.choose_thread(&views, previous);
        assert!(
            i < views.len(),
            "Decider::choose_thread returned index {i} for {} runnable threads",
            views.len()
        );
        let tid = self.run_queue.take_at(positions[i]);
        self.view_scratch = views;
        self.pos_scratch = positions;
        tid
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

    /// GHC-style deadlock recovery: throw `BlockedIndefinitely` to every
    /// stuck thread. Returns `true` if any thread was interrupted.
    pub(crate) fn interrupt_all_stuck(&mut self) -> bool {
        let mut stuck: Vec<ThreadId> = self
            .threads
            .iter()
            .filter_map(|s| s.thread.as_ref())
            .filter(|t| t.is_stuck())
            .map(|t| t.tid)
            .collect();
        // Interrupt in spawn order (the pre-reclamation table order), so
        // the wake-up sequence is independent of slot reuse.
        stuck.sort_unstable();
        let any = !stuck.is_empty();
        for tid in stuck {
            self.enqueue_exception(tid, Exception::blocked_indefinitely(), None);
        }
        any
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
        if self.mvars[m.0 as usize].contents.is_some() {
            return false;
        }
        self.fill_or_handoff(m, v);
        self.stats.mvar_ops += 1;
        true
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
    /// stack: records how it ended (a death is a kill, a link-cascade
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

// ----------------------------------------------------------------------
// The clock: sleepers and virtual time
// ----------------------------------------------------------------------

/// Is `tid` still genuinely asleep until exactly `wake_at`?
///
/// Wheel entries are invalidated lazily: an interrupted sleeper keeps
/// its entry, which this check skips. A free function over the thread
/// table (rather than a method) so compaction can filter the wheel in
/// place while borrowing `threads` alongside the `&mut` wheel borrow.
fn sleeper_entry_is_valid(threads: &[Slot], tid: ThreadId, wake_at: u64) -> bool {
    lookup(threads, tid).is_some_and(|t| t.status == Status::Stuck(StuckReason::Sleep { wake_at }))
}

impl Runtime {
    /// Advances the virtual clock to the earliest tick with a live
    /// sleeper — at or before the inclusive `cap`, if one is given — and
    /// wakes that tick's sleepers. Returns `false` if there is none.
    ///
    /// The wheel hands over one virtual tick at a time, already in
    /// `(wake_at, seq)` order, so the whole batch is woken through one
    /// reserved run-queue extension before the next scheduling decision
    /// — the same observable order the old heap's pop-one-at-a-time
    /// drain loop produced, without n log n queue churn on a mass wake.
    ///
    /// The cap makes one difference besides the peek. A tick whose
    /// sleepers were all interrupted still advances the wheel's cursor
    /// when popped, and a capped caller may then return to its driver
    /// and run threads that insert new timers — so under a cap the clock
    /// advances to the stale tick too (with its own `TimeAdvance`,
    /// keeping the trace's advance sum equal to the clock delta) to
    /// preserve `clock >= cursor` for [`TimerWheel::insert`]. Uncapped,
    /// no thread runs between a stale pop and the next live wake, so the
    /// whole delta is folded into the next live advance and the traces
    /// of [`Runtime::run`] carry no split advances.
    pub(super) fn advance_clock(&mut self, cap: Option<u64>) -> bool {
        let mut due = std::mem::take(&mut self.due_scratch);
        let woke = loop {
            if cap.is_some_and(|cap| self.sleepers.peek_earliest_wake().is_none_or(|w| w > cap)) {
                break false;
            }
            let Some(wake_at) = self.sleepers.pop_earliest_into(&mut due) else {
                break false;
            };
            // Drop lazily-invalidated entries (interrupted sleepers),
            // balancing the stale accounting per entry like the heap did.
            let threads = &self.threads;
            let before = due.len();
            self.stats.timer_ops += before as u64;
            due.retain(|e| sleeper_entry_is_valid(threads, e.payload, wake_at));
            for _ in due.len()..before {
                self.note_stale_sleeper_popped();
            }
            if cap.is_some() || !due.is_empty() {
                self.sync_clock_forward(wake_at);
            }
            if due.is_empty() {
                // The whole tick was stale; keep scanning forward.
                continue;
            }
            self.run_queue.reserve(due.len());
            for e in due.drain(..) {
                self.wake(e.payload, Value::Unit);
            }
            break true;
        };
        self.due_scratch = due;
        woke
    }

    /// Fast-forwards the clock to `t` if it lags, recorded as a
    /// `TimeAdvance` so the trace's advance sum equals the clock delta.
    /// Also the epoch-barrier clock sync, safe there because the shard
    /// is quiescent: every live sleeper's wake time is past the epoch
    /// being synced to (the epoch only advances when all shards report
    /// `Idle` with wakes beyond the old cap), so no due sleeper is
    /// skipped.
    pub(crate) fn sync_clock_forward(&mut self, t: u64) {
        if t > self.clock {
            self.trace.push(IoEvent::TimeAdvance(t - self.clock));
            self.clock = t;
        }
    }

    /// Balances [`Runtime::stale_sleepers`] when a stale wheel entry is
    /// popped. Every stale entry is counted exactly once at the moment
    /// its sleeper is invalidated, so the counter can never underflow;
    /// the assert catches a double-decrement accounting bug in debug
    /// builds, while release builds saturate rather than wrap.
    fn note_stale_sleeper_popped(&mut self) {
        debug_assert!(
            self.stale_sleepers > 0,
            "stale-sleeper accounting: popped a stale entry that was never counted"
        );
        self.stale_sleepers = self.stale_sleepers.saturating_sub(1);
    }

    /// Compacts the timer wheel once stale entries outnumber the live
    /// ones. Interrupted sleepers invalidate their wheel entry in place
    /// (the status check in [`sleeper_entry_is_valid`] fails), which is
    /// O(1) — but under sustained `timeout`-and-kill churn the dead
    /// entries would pile up until their original `wake_at`. Compacting
    /// at the >half-stale threshold keeps the wheel proportional to the
    /// number of *live* sleepers at amortized O(1) per interruption, and
    /// cannot change wake order: [`TimerWheel::retain`] removes entries
    /// in place, so survivors keep their `(wake_at, seq)` keys and slots.
    pub(super) fn maybe_compact_sleepers(&mut self) {
        if self.stale_sleepers * 2 <= self.sleepers.len() {
            return;
        }
        let threads = &self.threads;
        self.sleepers
            .retain(|e| sleeper_entry_is_valid(threads, e.payload, e.wake_at));
        self.stale_sleepers = 0;
        debug_assert!(
            self.sleepers.check_consistent(),
            "timer wheel inconsistent after stale-sleeper compaction"
        );
    }

    /// Number of entries (live or stale) in the sleeper timer wheel.
    /// Exposed for leak regression tests: after a quiesced run the wheel
    /// must be empty.
    pub fn sleeper_queue_len(&self) -> usize {
        self.sleepers.len()
    }
}

// ----------------------------------------------------------------------
// Exception delivery: (Receive), (Interrupt), §9
// ----------------------------------------------------------------------

/// Which rule delivers an exception — what [`Stats`] tells apart.
pub(super) enum Delivery {
    /// (Receive): an unblocked thread, at a step or a polling safe point.
    Receive,
    /// (Interrupt): a stuck thread, or (§5.3) one about to block.
    Interrupt,
}

impl Runtime {
    /// `throwTo`'s effect on `target`: rule (Interrupt) at once if it is
    /// stuck (whatever its mask), else the exception joins its pending
    /// queue to await (Receive) or a block point. `notify` is the §9
    /// synchronous thrower to wake on receipt.
    ///
    /// Does nothing if the target no longer exists: `throwTo` to a dead
    /// thread trivially succeeds.
    pub(super) fn enqueue_exception(
        &mut self,
        target: ThreadId,
        exc: Exception,
        notify: Option<ThreadId>,
    ) {
        let Some(slot) = slot_index(&self.threads, target) else {
            return;
        };
        // Out of the table for the delivery, like a running thread.
        let Some(mut th) = self.threads[slot].thread.take() else {
            return;
        };
        let p = PendingExc {
            exc,
            notify,
            enqueued_step: self.stats.steps,
        };
        if th.is_stuck() {
            // A thread only blocks with an empty queue (`block_on`) and
            // is interrupted by the first exception to arrive.
            debug_assert!(th.pending.is_empty());
            self.raise_async(&mut th, p, Delivery::Interrupt);
        } else {
            th.pending.push_back(p);
        }
        self.threads[slot].thread = Some(th);
    }

    /// Delivers `p` to `th`, which is outside the thread table (running,
    /// or taken out by [`Runtime::enqueue_exception`]): the one place an
    /// asynchronous exception becomes a raise, with its accounting. A
    /// stuck thread also leaves its wait structure and rejoins the run
    /// queue — ahead of the §9 thrower that the receipt wakes.
    pub(super) fn raise_async(&mut self, th: &mut Thread, p: PendingExc, rule: Delivery) {
        match rule {
            Delivery::Receive => self.stats.async_deliveries += 1,
            Delivery::Interrupt => self.stats.interrupted_blocked += 1,
        }
        self.stats.delivery_latency_total += self.stats.steps - p.enqueued_step;
        self.stats.delivery_latency_samples += 1;
        th.code = Code::Raise(p.exc, RaiseOrigin::Async);
        if let Status::Stuck(reason) = std::mem::replace(&mut th.status, Status::Runnable) {
            self.leave_wait(th.tid, &reason);
            enqueue_runnable(&mut self.run_queue, th);
        }
        self.wake_sync_thrower(p.notify, th.tid, p.enqueued_step);
    }

    /// §9: `receiver` has received (or died holding) an exception queued
    /// at step `since_step`; if it came from a synchronous `throwTo`
    /// whose thrower is still waiting *for that very exception*, the
    /// thrower goes on. The thrower may have been interrupted out of
    /// that wait since, leaving the exception behind (the wart §9
    /// notes), and be waiting again — on another target, or on a later
    /// throw to this one — so a wait is identified by its target and
    /// issuing step (a thread issues one `throwTo` per step at most),
    /// not merely by being a sync-throw wait.
    pub(super) fn wake_sync_thrower(
        &mut self,
        notify: Option<ThreadId>,
        receiver: ThreadId,
        since_step: u64,
    ) {
        let Some(thrower) = notify else {
            return;
        };
        let waiting_for_it = Status::Stuck(StuckReason::SyncThrow {
            target: receiver,
            since_step,
        });
        if lookup(&self.threads, thrower).is_some_and(|t| t.status == waiting_for_it) {
            self.wake(thrower, Value::Unit);
        }
    }
}

// ----------------------------------------------------------------------
// Blocking and waking: §5.3, MVars
// ----------------------------------------------------------------------

impl Runtime {
    /// §5.3, the one place a thread blocks: an interruptible operation
    /// that finds its resource unavailable receives a pending exception
    /// at that moment, whatever the mask, and only otherwise becomes
    /// stuck for `reason`. Returns whether it blocked; a caller whose
    /// wait carries a payload (`putMVar`'s value, §9's exception) files
    /// it then.
    pub(super) fn block_on(&mut self, th: &mut Thread, reason: StuckReason) -> bool {
        if let Some(p) = th.take_pending() {
            self.raise_async(th, p, Delivery::Interrupt);
            return false;
        }
        self.enter_wait(th.tid, &reason);
        self.stats.blocks += 1;
        if self.config.record_sched_events {
            self.trace.push(IoEvent::BlockedOn {
                tid: th.tid,
                site: reason.site(),
            });
        }
        th.status = Status::Stuck(reason);
        true
    }

    /// Files `tid` in the structure that will wake it from `reason`.
    fn enter_wait(&mut self, tid: ThreadId, reason: &StuckReason) {
        match *reason {
            StuckReason::TakeMVar(m) => self.mvars[m.0 as usize].take_queue.push_back(tid),
            StuckReason::Sleep { wake_at } => {
                self.sleep_seq += 1;
                self.sleepers.insert(
                    self.clock,
                    TimerEntry {
                        wake_at,
                        seq: self.sleep_seq,
                        payload: tid,
                    },
                );
                if self.sleepers.len() > self.stats.max_sleeper_heap {
                    self.stats.max_sleeper_heap = self.sleepers.len();
                }
                self.stats.timer_ops += 1;
            }
            StuckReason::GetChar => self.console_waiters.push_back(tid),
            // Filed by the caller, with the payload: the put queue
            // entry holds the value, the target's pending entry the
            // exception.
            StuckReason::PutMVar(_) | StuckReason::SyncThrow { .. } => {}
        }
    }

    /// (Interrupt): removes `tid` from the structure [`Runtime::enter_wait`]
    /// (or its caller) filed it in.
    pub(super) fn leave_wait(&mut self, tid: ThreadId, reason: &StuckReason) {
        match *reason {
            StuckReason::TakeMVar(m) | StuckReason::PutMVar(m) => {
                self.mvars[m.0 as usize].forget_waiter(tid);
            }
            StuckReason::Sleep { .. } => {
                // The wheel entry is invalidated by the status change and
                // skipped when popped; count it so compaction can evict
                // piles of dead entries before their wake_at arrives.
                self.stale_sleepers += 1;
                self.maybe_compact_sleepers();
            }
            StuckReason::GetChar => self.console_waiters.retain(|&t| t != tid),
            // The exception we sent stays queued at the target (the wart
            // of the synchronous design, §9); `wake_sync_thrower` tells
            // its eventual receipt from the wait of a later throw.
            StuckReason::SyncThrow { .. } => {}
        }
    }

    /// Makes the stuck thread `tid` runnable again, the operation it was
    /// blocked in returning `v`.
    pub(super) fn wake(&mut self, tid: ThreadId, v: Value) {
        let th = lookup_mut(&mut self.threads, tid).expect("a waiting thread exists");
        debug_assert!(th.is_stuck());
        th.status = Status::Runnable;
        th.code = Code::ReturnVal(v);
        enqueue_runnable(&mut self.run_queue, th);
    }

    pub(super) fn do_take_mvar(&mut self, th: &mut Thread, m: MVarId) {
        match self.mvars[m.0 as usize].contents.take() {
            Some(v) => {
                // Full: take succeeds atomically — *not* a delivery point,
                // even with pending exceptions (§5.3: "an interruptible
                // operation cannot be interrupted if the resource ... is
                // available").
                self.refill_from_put_queue(m);
                self.stats.mvar_ops += 1;
                th.code = Code::ReturnVal(v);
            }
            None => {
                self.block_on(th, StuckReason::TakeMVar(m));
            }
        }
    }

    pub(super) fn do_put_mvar(&mut self, th: &mut Thread, m: MVarId, v: Value) {
        if self.mvars[m.0 as usize].contents.is_none() {
            self.fill_or_handoff(m, v);
            self.stats.mvar_ops += 1;
            th.code = Code::ReturnVal(Value::Unit);
        } else if self.block_on(th, StuckReason::PutMVar(m)) {
            self.mvars[m.0 as usize].put_queue.push_back((th.tid, v));
        }
    }

    /// Puts `v` into the empty `MVar` `m`, or hands it directly to the
    /// first waiting taker (FIFO hand-off, so no woken thread retries).
    pub(super) fn fill_or_handoff(&mut self, m: MVarId, v: Value) {
        match self.mvars[m.0 as usize].take_queue.pop_front() {
            None => self.mvars[m.0 as usize].contents = Some(v),
            Some(taker) => {
                self.wake(taker, v);
                self.stats.mvar_ops += 1;
            }
        }
    }

    /// After a take empties `m`, admits the first queued putter (if any):
    /// its value fills the cell and the putter wakes with `()`.
    pub(super) fn refill_from_put_queue(&mut self, m: MVarId) {
        if let Some((putter, v)) = self.mvars[m.0 as usize].put_queue.pop_front() {
            self.mvars[m.0 as usize].contents = Some(v);
            self.wake(putter, Value::Unit);
            self.stats.mvar_ops += 1;
        }
    }
}

// ----------------------------------------------------------------------
// The interpreter
// ----------------------------------------------------------------------

/// What one [`Runtime::step`] did to the thread it stepped.
pub(super) enum Step {
    /// The thread took a step and is still in the scheduler's hands
    /// (runnable, stuck or yielded — its `status` says which).
    Ran,
    /// The thread returned or raised with an empty stack: its `code`
    /// holds the final value or the uncaught exception.
    Ended,
}

/// Moves `th`'s code out, leaving `return ()` in its place.
pub(super) fn take_code(th: &mut Thread) -> Code {
    std::mem::replace(&mut th.code, Code::ReturnVal(Value::Unit))
}

impl Runtime {
    /// Records new high-water marks of `th`'s stack.
    fn note_stack_growth(&mut self, th: &Thread) {
        if th.stack.len() > self.stats.max_stack_depth {
            self.stats.max_stack_depth = th.stack.len();
        }
        if th.mask_frames > self.stats.max_mask_frames {
            self.stats.max_mask_frames = th.mask_frames;
        }
    }

    /// Pushes a frame, enforcing the stack limit; on overflow the thread's
    /// code becomes `Raise(StackOverflow)` and `false` is returned.
    fn push_frame_checked(&mut self, th: &mut Thread, frame: Frame) -> bool {
        if let Some(limit) = self.config.stack_limit {
            if th.stack.len() >= limit {
                th.code = Code::Raise(
                    Exception::new(crate::exception::ExceptionKind::StackOverflow),
                    RaiseOrigin::Sync,
                );
                return false;
            }
        }
        th.push_frame(frame);
        self.note_stack_growth(th);
        true
    }

    /// (Block)/(Unblock): runs `body` with the mask set to `to`, by the
    /// §8.1 frame algorithm ([`Thread::enter_mask`]).
    fn enter_mask_scope(&mut self, th: &mut Thread, to: MaskState, body: Action) {
        if self.config.record_sched_events {
            self.trace.push(match to {
                MaskState::Blocked => IoEvent::Mask(th.tid),
                MaskState::Unblocked => IoEvent::Unmask(th.tid),
            });
        }
        if th.enter_mask(to, self.config.collapse_mask_frames) {
            self.stats.mask_frames_collapsed += 1;
        }
        self.note_stack_growth(th);
        th.code = Code::Run(body);
    }

    /// The accounting every `throwTo`, of either design, starts with.
    fn note_throw_to(&mut self, from: ThreadId, to: ThreadId) {
        self.stats.throwtos += 1;
        if self.config.record_sched_events {
            self.trace.push(IoEvent::ThrowTo { from, to });
        }
    }

    /// Executes one small step of the running thread `th`, which the
    /// scheduler loop holds outside the thread table.
    ///
    /// `th.code` is stepped where it sits: an arm moves the node out only
    /// when it has an owned payload to consume, so the steps that merely
    /// count down, pop a mask frame or read a `Copy` operand touch a few
    /// bytes instead of rewriting the whole 48-byte `Code`.
    pub(super) fn step(&mut self, th: &mut Thread) -> Step {
        self.stats.steps += 1;

        // (Receive): asynchronous delivery at any program point, for
        // unblocked threads, in fully-asynchronous mode. Delivery does not
        // preempt an exception already being raised: §8 treats raising as
        // atomic (the stack is truncated to the handler in one go), so a
        // mid-unwind thread is not a delivery point. Under external
        // scheduling the decider picks the delivery step: deferring here
        // leaves the exception queued and the thread takes its ordinary
        // step, so the decider sees the same choice again at the thread's
        // next unmasked step.
        if !th.pending.is_empty()
            && th.mask == MaskState::Unblocked
            && self.config.delivery == DeliveryMode::FullyAsync
            && !matches!(th.code, Code::Raise(_, _))
            && self
                .with_decider(|_, d| d.deliver_now(view(th, footprint_of(th))))
                .unwrap_or(true)
        {
            let p = th.take_pending().expect("pending checked non-empty");
            self.raise_async(th, p, Delivery::Receive);
            return Step::Ran;
        }

        if let Code::Run(_) = th.code {
            self.run_action(th);
            return Step::Ran;
        }
        // Returning or raising: control reaches the top frame.
        let Some(frame) = th.pop_frame() else {
            return Step::Ended;
        };
        match frame {
            Frame::Restore(s) => th.mask = s,
            // A raise drops the continuations it unwinds past.
            Frame::Bind(node) => {
                if let Code::ReturnVal(v) = &mut th.code {
                    let v = std::mem::take(v);
                    th.code = Code::Run(node.resume(v));
                }
            }
            // A return drops the handler it leaves the scope of.
            Frame::Catch { .. } if !matches!(th.code, Code::Raise(_, _)) => {}
            Frame::Catch {
                handler,
                saved_mask,
            } => {
                th.mask = saved_mask;
                self.stats.catches += 1;
                match take_code(th) {
                    Code::Raise(e, origin) => th.code = Code::Run(handler(e, origin)),
                    code => unreachable!("{code:?} is not a raise"),
                }
            }
        }
        Step::Ran
    }

    /// Interprets the action node `th` is about to run.
    ///
    /// `th` is outside the thread table for the duration, so helper
    /// methods that touch *other* threads are safe to call.
    fn run_action(&mut self, th: &mut Thread) {
        let Code::Run(action) = &mut th.code else {
            unreachable!("run_action on a thread that is returning or raising");
        };
        // `Copy` operands are bound by value and `Value`s are taken through
        // the reference; the arms that own a box or an exception move the
        // node out, all in `run_owned_action`.
        match *action {
            Action::Pure(ref mut v) => th.code = Code::ReturnVal(std::mem::take(v)),
            Action::Bind(_)
            | Action::Catch(_, _)
            | Action::Throw(_)
            | Action::Rethrow(_, _)
            | Action::Block(_)
            | Action::Unblock(_)
            | Action::Fork(_)
            | Action::Effect(_)
            | Action::ThrowTo(_, _)
            | Action::ThrowToSync(_, _) => self.run_owned_action(th),
            Action::GetMaskingState => {
                th.code = Code::ReturnVal(Value::Bool(th.mask == MaskState::Blocked));
            }
            Action::MyThreadId => th.code = Code::ReturnVal(Value::ThreadId(th.tid)),
            Action::NewMVar(ref mut contents) => {
                let id = MVarId(self.mvars.len() as u64);
                self.mvars.push(match contents.take() {
                    None => MVarCell::empty(),
                    Some(v) => MVarCell::full(v),
                });
                th.code = Code::ReturnVal(Value::MVar(id));
            }
            Action::TakeMVar(m) => self.do_take_mvar(th, m),
            Action::PutMVar(m, ref mut v) => {
                let v = std::mem::take(v);
                self.do_put_mvar(th, m, v);
            }
            Action::TryTakeMVar(m) => match self.mvars[m.0 as usize].contents.take() {
                None => th.code = Code::ReturnVal(Value::Nothing),
                Some(v) => {
                    self.refill_from_put_queue(m);
                    self.stats.mvar_ops += 1;
                    th.code = Code::ReturnVal(Value::Just(Box::new(v)));
                }
            },
            Action::TryPutMVar(m, ref mut v) => {
                let stored = self.mvars[m.0 as usize].contents.is_none();
                if stored {
                    let v = std::mem::take(v);
                    self.fill_or_handoff(m, v);
                    self.stats.mvar_ops += 1;
                }
                th.code = Code::ReturnVal(Value::Bool(stored));
            }
            Action::Sleep(0) => th.code = Code::ReturnVal(Value::Unit),
            Action::Sleep(d) => {
                let wake_at = self.clock + d;
                self.block_on(th, StuckReason::Sleep { wake_at });
            }
            Action::GetChar => match self.console.try_read() {
                Some(c) => {
                    self.trace.push(IoEvent::Get(c));
                    th.code = Code::ReturnVal(Value::Char(c));
                }
                None => {
                    self.block_on(th, StuckReason::GetChar);
                }
            },
            Action::PutChar(c) => {
                self.console.write(c);
                self.trace.push(IoEvent::Put(c));
                th.code = Code::ReturnVal(Value::Unit);
            }
            Action::Compute {
                ref mut steps,
                ref mut result,
            } => {
                if *steps <= 1 {
                    th.code = Code::ReturnVal(std::mem::take(result));
                } else {
                    *steps -= 1;
                }
            }
            Action::PollSafePoint => {
                let p = match th.mask {
                    MaskState::Unblocked => th.take_pending(),
                    MaskState::Blocked => None,
                };
                match p {
                    Some(p) => self.raise_async(th, p, Delivery::Receive),
                    None => th.code = Code::ReturnVal(Value::Unit),
                }
            }
            Action::Yield => {
                self.yielded = true;
                th.code = Code::ReturnVal(Value::Unit);
            }
            Action::Now => th.code = Code::ReturnVal(Value::Int(self.clock as i64)),
            Action::Choose(arms) => {
                // A scheduler-visible oracle: the installed decider picks
                // the arm (the explorer records it as a branch point);
                // without a decider the choice collapses to arm 0.
                let arm = self
                    .with_decider(|_, d| d.choose_arm(view(th, StepFootprint::Oracle), arms))
                    .unwrap_or(0);
                assert!(
                    arm < arms,
                    "Decider::choose_arm returned arm {arm} for {arms} arms"
                );
                th.code = Code::ReturnVal(Value::Int(arm as i64));
            }
        }
    }

    /// The actions that own a box or an exception: the node is moved out
    /// of `th.code` once, here, and consumed.
    fn run_owned_action(&mut self, th: &mut Thread) {
        match take_code(th) {
            Code::Run(Action::Bind(mut node)) => {
                let left = node.take_left();
                if self.push_frame_checked(th, Frame::Bind(node)) {
                    th.code = Code::Run(left);
                }
            }
            Code::Run(Action::Catch(body, handler)) => {
                let saved_mask = th.mask;
                if self.push_frame_checked(
                    th,
                    Frame::Catch {
                        handler,
                        saved_mask,
                    },
                ) {
                    th.code = Code::Run(*body);
                }
            }
            Code::Run(Action::Throw(e)) => {
                self.stats.sync_throws += 1;
                th.code = Code::Raise(e, RaiseOrigin::Sync);
            }
            Code::Run(Action::Rethrow(e, origin)) => {
                self.stats.sync_throws += 1;
                th.code = Code::Raise(e, origin);
            }
            Code::Run(Action::Block(body)) => self.enter_mask_scope(th, MaskState::Blocked, *body),
            Code::Run(Action::Unblock(body)) => {
                self.enter_mask_scope(th, MaskState::Unblocked, *body);
            }
            Code::Run(Action::Fork(body)) => {
                let mask = if self.config.fork_inherits_mask {
                    th.mask
                } else {
                    MaskState::Unblocked
                };
                let Some(child) = self.spawn(*body, mask) else {
                    // The scheduler loop ends the quantum at `main_result`;
                    // this thread never takes another step.
                    self.main_result = Some(Err(RunError::ThreadLimitExceeded {
                        limit: MAX_THREAD_SLOTS,
                    }));
                    return;
                };
                self.stats.forks += 1;
                if self.config.record_sched_events {
                    self.trace.push(IoEvent::Fork {
                        parent: th.tid,
                        child,
                    });
                }
                th.code = Code::ReturnVal(Value::ThreadId(child));
            }
            Code::Run(Action::Effect(f)) => th.code = Code::ReturnVal(f()),
            Code::Run(Action::ThrowTo(target, e)) => {
                self.note_throw_to(th.tid, target);
                if target == th.tid {
                    // Self-throw: queue it; it is delivered at the next
                    // delivery point if unmasked, like any other pending
                    // asynchronous exception.
                    th.pending.push_back(PendingExc {
                        exc: e,
                        notify: None,
                        enqueued_step: self.stats.steps,
                    });
                } else {
                    self.enqueue_exception(target, e, None);
                }
                th.code = Code::ReturnVal(Value::Unit);
            }
            Code::Run(Action::ThrowToSync(target, e)) => {
                self.note_throw_to(th.tid, target);
                if target == th.tid {
                    // §9: special case — a thread throwing to itself raises
                    // the exception immediately.
                    th.code = Code::Raise(e, RaiseOrigin::Async);
                    return;
                }
                match lookup(&self.threads, target).map(Thread::is_stuck) {
                    None => {}
                    // A stuck target receives via (Interrupt) the moment the
                    // exception is enqueued, so the thrower has nothing to
                    // wait for. Waiting would in fact deadlock: the wake
                    // happens during this very step, while the thrower is
                    // detached from the thread table and not yet suspended.
                    // (With an exception of its own pending the thrower
                    // receives that instead, below: §9 makes the
                    // synchronous throwTo interruptible.)
                    Some(true) if th.pending.is_empty() => self.enqueue_exception(target, e, None),
                    Some(_) => {
                        let since_step = self.stats.steps;
                        if self.block_on(th, StuckReason::SyncThrow { target, since_step }) {
                            self.enqueue_exception(target, e, Some(th.tid));
                        }
                        return;
                    }
                }
                th.code = Code::ReturnVal(Value::Unit);
            }
            code => unreachable!("{code:?} does not own its payload"),
        }
    }
}

/// Classifies what `th`'s next step will touch (see [`StepFootprint`]).
///
/// Conservative in the required direction: anything not provably local to
/// the thread maps to a variant that conflicts with more, never less.
pub(super) fn footprint_of(th: &Thread) -> StepFootprint {
    match &th.code {
        Code::ReturnVal(_) => {
            if th.stack.is_empty() {
                StepFootprint::Terminal
            } else {
                StepFootprint::Local
            }
        }
        Code::Raise(_, _) => {
            if th.stack.is_empty() {
                StepFootprint::Terminal
            } else {
                StepFootprint::Raise
            }
        }
        Code::Run(action) => match action {
            Action::Pure(_)
            | Action::Bind(_)
            | Action::GetMaskingState
            | Action::MyThreadId
            | Action::Compute { .. }
            | Action::Yield => StepFootprint::Local,
            // Catch installs a handler: an exception delivered before vs
            // after the push lands differently, so this is not a plain
            // local step (it must not be fast-forwarded past a throw).
            Action::Catch(_, _) => StepFootprint::Raise,
            Action::Throw(_) | Action::Rethrow(_, _) => StepFootprint::Raise,
            // Under polling delivery this is itself a delivery point.
            Action::PollSafePoint => StepFootprint::Effect,
            Action::Block(_) | Action::Unblock(_) => StepFootprint::Mask,
            Action::NewMVar(_) => StepFootprint::Alloc,
            Action::TakeMVar(m)
            | Action::PutMVar(m, _)
            | Action::TryTakeMVar(m)
            | Action::TryPutMVar(m, _) => StepFootprint::MVar(*m),
            Action::Sleep(_) | Action::Now => StepFootprint::Time,
            Action::GetChar | Action::PutChar(_) => StepFootprint::Console,
            Action::Fork(_) => StepFootprint::Fork,
            Action::ThrowTo(t, _) | Action::ThrowToSync(t, _) => StepFootprint::Throw(*t),
            Action::Effect(_) => StepFootprint::Effect,
            Action::Choose(_) => StepFootprint::Oracle,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_program_runs() {
        let mut rt = Runtime::new();
        assert_eq!(rt.run(Io::pure(1_i64)).unwrap(), 1);
    }

    #[test]
    fn uncaught_throw_is_reported() {
        let mut rt = Runtime::new();
        let r = rt.run(Io::<i64>::throw(Exception::error_call("bang")));
        assert_eq!(r, Err(RunError::Uncaught(Exception::error_call("bang"))));
    }

    #[test]
    fn catch_handles_sync_exception() {
        let mut rt = Runtime::new();
        let prog = Io::<i64>::throw(Exception::error_call("bang")).catch(|_| Io::pure(5_i64));
        assert_eq!(rt.run(prog).unwrap(), 5);
    }

    #[test]
    fn catch_passes_through_success() {
        let mut rt = Runtime::new();
        let prog = Io::pure(3_i64).catch(|_| Io::pure(0_i64));
        assert_eq!(rt.run(prog).unwrap(), 3);
    }

    #[test]
    fn handler_receives_the_exception() {
        let mut rt = Runtime::new();
        let prog = Io::<String>::throw(Exception::custom("E1")).catch(|e| Io::pure(e.to_string()));
        assert_eq!(rt.run(prog).unwrap(), "E1");
    }

    #[test]
    fn fork_runs_concurrently() {
        let mut rt = Runtime::new();
        // Child fills the MVar; parent waits for it.
        let prog = Io::new_empty_mvar::<i64>().and_then(|m| Io::fork(m.put(10)).then(m.take()));
        assert_eq!(rt.run(prog).unwrap(), 10);
    }

    #[test]
    fn take_on_empty_blocks_until_put() {
        let mut rt = Runtime::new();
        let prog = Io::new_empty_mvar::<i64>().and_then(|m| {
            // Parent takes first (blocks); child sleeps then puts.
            Io::fork(Io::sleep(100).then(m.put(42))).then(m.take())
        });
        assert_eq!(rt.run(prog).unwrap(), 42);
        assert!(rt.clock() >= 100);
    }

    #[test]
    fn deadlock_is_detected() {
        let mut rt = Runtime::new();
        let prog = Io::new_empty_mvar::<i64>().and_then(|m| m.take());
        match rt.run(prog) {
            Err(RunError::Deadlock { stuck }) => assert_eq!(stuck.len(), 1),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn deadlock_policy_can_raise() {
        let cfg = RuntimeConfig::new().deadlock_policy(DeadlockPolicy::RaiseBlockedIndefinitely);
        let mut rt = Runtime::with_config(cfg);
        let prog = Io::new_empty_mvar::<i64>()
            .and_then(|m| m.take())
            .catch(|e| {
                assert_eq!(e, Exception::blocked_indefinitely());
                Io::pure(0_i64)
            });
        assert_eq!(rt.run(prog).unwrap(), 0);
    }

    #[test]
    fn sleep_advances_virtual_clock() {
        let mut rt = Runtime::new();
        rt.run(Io::sleep(500)).unwrap();
        assert_eq!(rt.clock(), 500);
    }

    #[test]
    fn sleeps_wake_in_time_order() {
        let mut rt = Runtime::new();
        let prog = Io::new_empty_mvar::<i64>().and_then(|m| {
            Io::fork(Io::sleep(200).then(m.put(2)))
                .then(Io::fork(Io::sleep(100).then(Io::unit())))
                .then(m.take())
        });
        assert_eq!(rt.run(prog).unwrap(), 2);
        assert_eq!(rt.clock(), 200);
    }

    #[test]
    fn get_char_reads_input() {
        let mut rt = Runtime::new();
        rt.feed_input("x");
        assert_eq!(rt.run(Io::get_char()).unwrap(), 'x');
    }

    #[test]
    fn get_char_blocks_without_input() {
        let mut rt = Runtime::new();
        match rt.run(Io::get_char()) {
            Err(RunError::Deadlock { stuck }) => {
                assert!(stuck[0].1.contains("getChar"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn step_limit_is_enforced() {
        let cfg = RuntimeConfig::new().max_steps(50);
        let mut rt = Runtime::with_config(cfg);
        let r = rt.run(Io::compute(1000));
        assert_eq!(r, Err(RunError::StepLimitExceeded { limit: 50 }));
    }

    #[test]
    fn stack_limit_raises_stack_overflow() {
        use crate::exception::ExceptionKind;
        let cfg = RuntimeConfig::new().stack_limit(16);
        let mut rt = Runtime::with_config(cfg);
        fn deep(n: i64) -> Io<i64> {
            if n == 0 {
                Io::pure(0)
            } else {
                deep(n - 1).and_then(move |x| Io::pure(x + 1))
            }
        }
        // Each recursion level needs a Bind frame before any returns, so 100
        // levels overflow a 16-frame stack.
        let prog = deep(100).catch(|e| {
            assert_eq!(e.kind(), &ExceptionKind::StackOverflow);
            Io::pure(-1)
        });
        assert_eq!(rt.run(prog).unwrap(), -1);
    }

    #[test]
    fn throw_to_kills_runnable_thread() {
        let mut rt = Runtime::new();
        // Child loops forever; parent kills it, then finishes.
        let prog = Io::new_empty_mvar::<i64>().and_then(|_m| {
            Io::fork(Io::compute(u64::MAX)).and_then(|child| {
                Io::throw_to(child, Exception::kill_thread()).then(Io::pure(1_i64))
            })
        });
        assert_eq!(rt.run(prog).unwrap(), 1);
    }

    #[test]
    fn throw_to_dead_thread_trivially_succeeds() {
        let mut rt = Runtime::new();
        let prog = Io::fork(Io::unit()).and_then(|child| {
            // Give the child time to finish, then throw.
            Io::sleep(10)
                .then(Io::throw_to(child, Exception::kill_thread()))
                .then(Io::pure(7_i64))
        });
        assert_eq!(rt.run(prog).unwrap(), 7);
    }

    #[test]
    fn throw_to_interrupts_stuck_takemvar() {
        let mut rt = Runtime::new();
        // Child blocks on an empty MVar; parent interrupts it; child's
        // handler reports via another MVar.
        let prog = Io::new_empty_mvar::<i64>().and_then(|hole| {
            Io::new_empty_mvar::<String>().and_then(move |report| {
                let child_body = hole
                    .take()
                    .map(|_| "no exception".to_owned())
                    .catch(|e| Io::pure(format!("caught {e}")))
                    .and_then(move |s| report.put(s));
                Io::fork(child_body).and_then(move |child| {
                    Io::sleep(10)
                        .then(Io::throw_to(child, Exception::kill_thread()))
                        .then(report.take())
                })
            })
        });
        assert_eq!(rt.run(prog).unwrap(), "caught KillThread");
        assert!(rt.stats().interrupted_blocked >= 1);
    }

    #[test]
    fn block_defers_async_exception() {
        let mut rt = Runtime::new();
        // Child computes inside block; the exception must wait until the
        // child unblocks. The fork happens inside a block so the child
        // inherits the blocked state and there is no pre-block window.
        let prog = Io::new_empty_mvar::<i64>().and_then(|m| {
            let body = Io::compute(50)
                .then(m.put(1)) // protected: must complete
                .then(Io::<()>::unblock(Io::compute(1000))); // killable
            Io::<ThreadId>::block(Io::fork(body))
                .and_then(move |child| Io::throw_to(child, Exception::kill_thread()).then(m.take()))
        });
        // The put under the inherited mask always happens even though the
        // kill was thrown before it ran.
        assert_eq!(rt.run(prog).unwrap(), 1);
    }

    #[test]
    fn unblock_inside_block_restores_on_exit() {
        let mut rt = Runtime::new();
        let prog = Io::<bool>::block(Io::<bool>::unblock(Io::masking_state()).and_then(
            |inside_unblock| {
                Io::masking_state().map(move |after| {
                    assert!(!inside_unblock, "inside unblock must be unmasked");
                    after
                })
            },
        ));
        // After leaving unblock we are blocked again.
        assert!(rt.run(prog).unwrap());
    }

    #[test]
    fn mask_restored_after_block_exits() {
        let mut rt = Runtime::new();
        let prog = Io::<bool>::block(Io::masking_state())
            .and_then(|inside| Io::masking_state().map(move |outside| (inside, outside)));
        let (inside, outside) = rt.run(prog).unwrap();
        assert!(inside);
        assert!(!outside);
    }

    #[test]
    fn self_throw_to_is_deferred_while_masked() {
        let mut rt = Runtime::new();
        let prog = Io::<i64>::block(Io::my_thread_id().and_then(|me| {
            Io::throw_to(me, Exception::kill_thread())
                // Still alive here because we are masked.
                .then(Io::compute_returning(10, 42_i64))
        }))
        .catch(|e| {
            assert!(e.is_kill_thread());
            Io::pure(-1)
        });
        // On leaving block, the pending exception fires before the result
        // can be returned, so the handler runs.
        assert_eq!(rt.run(prog).unwrap(), -1);
    }

    #[test]
    fn sync_throw_to_self_raises_immediately() {
        let mut rt = Runtime::new();
        let prog = Io::my_thread_id()
            .and_then(|me| Io::throw_to_sync(me, Exception::custom("self")).then(Io::pure(0_i64)))
            .catch(|e| {
                assert_eq!(e, Exception::custom("self"));
                Io::pure(1)
            });
        assert_eq!(rt.run(prog).unwrap(), 1);
    }

    #[test]
    fn sync_throw_to_waits_for_delivery() {
        let mut rt = Runtime::new();
        // Child is forked masked (no pre-handler window), installs a catch,
        // and unmasks; parent sync-throws. The parent can only proceed after
        // the child actually receives the exception.
        let prog = Io::new_empty_mvar::<i64>().and_then(|m| {
            let child_body = Io::<()>::unblock(Io::compute(100_000)).catch(move |_| m.put(99));
            Io::<ThreadId>::block(Io::fork(child_body)).and_then(move |child| {
                Io::throw_to_sync(child, Exception::kill_thread()).then(m.take())
            })
        });
        assert_eq!(rt.run(prog).unwrap(), 99);
        assert!(rt.stats().async_deliveries >= 1);
    }

    #[test]
    fn interruptible_take_in_block_receives_exception() {
        let mut rt = Runtime::new();
        // §5.3: takeMVar inside block is interruptible while the MVar is
        // empty.
        let prog = Io::new_empty_mvar::<i64>().and_then(|hole| {
            Io::new_empty_mvar::<i64>().and_then(move |report| {
                let child = Io::<()>::block(
                    hole.take()
                        .map(|_| ())
                        .catch(move |_| report.put(1).map(|_| ())),
                );
                Io::fork(child).and_then(move |c| {
                    Io::sleep(5)
                        .then(Io::throw_to(c, Exception::kill_thread()))
                        .then(report.take())
                })
            })
        });
        assert_eq!(rt.run(prog).unwrap(), 1);
    }

    #[test]
    fn noninterruptible_take_when_mvar_full() {
        let mut rt = Runtime::new();
        // §5.3: with the resource available, take inside block completes
        // even with a pending exception; the exception arrives only at the
        // next delivery point.
        let prog = Io::new_mvar(5_i64).and_then(|m| {
            Io::<i64>::block(Io::my_thread_id().and_then(move |me| {
                Io::throw_to(me, Exception::kill_thread()).then(m.take()) // must succeed despite pending kill
            }))
            .catch(|_| Io::pure(-1))
        });
        // take succeeded inside block; kill delivered on unmasking at exit,
        // caught by the handler. The handler observes... the take result is
        // lost because the exception fires before block returns it.
        assert_eq!(rt.run(prog).unwrap(), -1);
        assert!(rt.stats().mvar_ops >= 1);
    }

    #[test]
    fn polling_mode_defers_to_safe_point() {
        let cfg = RuntimeConfig::new().delivery_mode(DeliveryMode::Polling);
        let mut rt = Runtime::with_config(cfg);
        let prog = Io::new_empty_mvar::<i64>().and_then(|m| {
            let child = Io::compute(100)
                .then(m.put(1)) // completes despite pending exception
                .then(Io::poll_safe_point()) // exception fires here
                .then(m.take().map(|_| ()))
                .catch(move |_| Io::unit());
            Io::fork(child)
                .and_then(move |c| Io::throw_to(c, Exception::kill_thread()).then(m.take()))
        });
        // If polling mode delivered mid-compute, the put would never happen
        // and this would deadlock.
        assert_eq!(rt.run(prog).unwrap(), 1);
    }

    #[test]
    fn fifo_delivery_of_multiple_pending() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let mut rt = Runtime::new();
        let log = Rc::new(RefCell::new(Vec::<String>::new()));
        let l1 = Rc::clone(&log);
        let l2 = Rc::clone(&log);
        // Queue two exceptions while masked, then open two unmask windows;
        // each window receives exactly one exception, in FIFO order, and
        // each handler runs masked (saved catch state), so the second
        // exception waits for the second window.
        let prog = Io::<()>::block(Io::my_thread_id().and_then(move |me| {
            Io::throw_to(me, Exception::custom("first"))
                .then(Io::throw_to(me, Exception::custom("second")))
                .then(Io::<()>::unblock(Io::unit()))
                .catch(move |e| Io::effect(move || l1.borrow_mut().push(e.to_string())))
                .then(Io::<()>::unblock(Io::unit()))
                .catch(move |e| Io::effect(move || l2.borrow_mut().push(e.to_string())))
        }));
        rt.run(prog).unwrap();
        assert_eq!(*log.borrow(), ["first".to_owned(), "second".to_owned()]);
    }

    #[test]
    fn random_scheduling_is_deterministic_per_seed() {
        let run_with = |seed: u64| {
            let cfg = RuntimeConfig::new().random_scheduling(seed);
            let mut rt = Runtime::with_config(cfg);
            let prog = Io::new_mvar(0_i64).and_then(|m| {
                let bump = move || m.take().and_then(move |n| m.put(n + 1));
                Io::fork(bump().then(bump()))
                    .then(Io::fork(bump()))
                    .then(Io::sleep(1000))
                    .then(m.take())
            });
            (rt.run(prog).unwrap(), rt.stats().context_switches)
        };
        assert_eq!(run_with(7), run_with(7));
    }

    #[test]
    fn stats_count_forks_and_switches() {
        let mut rt = Runtime::new();
        let prog = Io::fork(Io::unit())
            .then(Io::fork(Io::unit()))
            .then(Io::sleep(1));
        rt.run(prog).unwrap();
        assert_eq!(rt.stats().forks, 2);
        assert!(rt.stats().context_switches >= 1);
        assert_eq!(rt.stats().finished_threads, 3);
    }

    #[test]
    fn output_and_trace_are_recorded() {
        let mut rt = Runtime::new();
        rt.feed_input("a");
        let prog = Io::get_char().and_then(|c| Io::put_char(c).then(Io::put_char('!')));
        rt.run(prog).unwrap();
        assert_eq!(rt.output(), "a!");
        assert_eq!(
            rt.io_trace(),
            &[IoEvent::Get('a'), IoEvent::Put('a'), IoEvent::Put('!')]
        );
    }

    #[test]
    fn yield_rotates_scheduler() {
        let mut rt = Runtime::new();
        // Two threads alternate via yield; both finish.
        let prog = Io::new_mvar(0_i64).and_then(|m| {
            Io::fork(Io::yield_now().then(m.take().and_then(move |n| m.put(n + 1))))
                .then(Io::yield_now())
                .then(Io::sleep(10))
                .then(m.take())
        });
        assert_eq!(rt.run(prog).unwrap(), 1);
    }

    #[test]
    fn sync_throw_to_stuck_target_does_not_deadlock() {
        // Regression: a sync throwTo at a *stuck* target used to suspend
        // the thrower forever — the target's (Interrupt) wake-up fired
        // while the thrower was mid-step and not yet suspended, so the
        // notification was lost. Delivery to a stuck target is immediate,
        // so the thrower must not wait at all.
        let mut rt = Runtime::new();
        let prog = Io::new_empty_mvar::<i64>().and_then(|hole| {
            Io::new_empty_mvar::<i64>().and_then(move |report| {
                let victim = hole
                    .take()
                    .map(|_| ())
                    .catch(move |_| report.put(1).map(|_| ()));
                Io::fork(victim).and_then(move |v| {
                    Io::sleep(5) // let the victim block on the take
                        .then(Io::throw_to_sync(v, Exception::kill_thread()))
                        .then(report.take())
                })
            })
        });
        assert_eq!(rt.run(prog).unwrap(), 1);
    }

    /// Picks the lowest or highest `ThreadId` among the runnable set.
    struct Prefer {
        highest: bool,
    }

    impl crate::decide::Decider for Prefer {
        fn choose_thread(
            &mut self,
            runnable: &[crate::decide::ThreadView],
            _previous: Option<ThreadId>,
        ) -> usize {
            let mut best = 0;
            for (i, v) in runnable.iter().enumerate() {
                let better = if self.highest {
                    v.tid > runnable[best].tid
                } else {
                    v.tid < runnable[best].tid
                };
                if better {
                    best = i;
                }
            }
            best
        }

        fn deliver_now(&mut self, _view: crate::decide::ThreadView) -> bool {
            true
        }
    }

    #[test]
    fn external_decider_controls_interleaving() {
        let run_with = |highest: bool| {
            let mut rt = Runtime::with_config(RuntimeConfig::new().external_scheduling());
            rt.set_decider(Box::new(Prefer { highest }));
            let prog = Io::fork(Io::put_char('b'))
                .then(Io::put_char('a'))
                .then(Io::sleep(1));
            rt.run(prog).unwrap();
            rt.output().to_owned()
        };
        // Preferring the main thread runs it to its sleep before the
        // child's put; preferring the child flips the order.
        assert_eq!(run_with(false), "ab");
        assert_eq!(run_with(true), "ba");
    }

    #[test]
    fn external_decider_controls_delivery_point() {
        struct Defer;
        impl crate::decide::Decider for Defer {
            fn choose_thread(
                &mut self,
                _runnable: &[crate::decide::ThreadView],
                _previous: Option<ThreadId>,
            ) -> usize {
                0
            }
            fn deliver_now(&mut self, _view: crate::decide::ThreadView) -> bool {
                false
            }
        }
        // An unmasked self-throw is normally delivered at the very next
        // step; a decider that keeps deferring lets the program run to
        // completion with the exception still pending.
        let prog = || {
            Io::my_thread_id().and_then(|me| {
                Io::throw_to(me, Exception::custom("later")).then(Io::compute_returning(3, 7_i64))
            })
        };
        let mut plain = Runtime::new();
        assert!(plain.run(prog()).is_err());

        let mut driven = Runtime::with_config(RuntimeConfig::new().external_scheduling());
        driven.set_decider(Box::new(Defer));
        assert_eq!(driven.run(prog()).unwrap(), 7);
    }

    #[test]
    fn external_without_decider_is_round_robin() {
        let mut rt = Runtime::with_config(RuntimeConfig::new().external_scheduling());
        let prog = Io::new_empty_mvar::<i64>().and_then(|m| Io::fork(m.put(10)).then(m.take()));
        assert_eq!(rt.run(prog).unwrap(), 10);
    }

    #[test]
    fn sched_events_recorded_when_enabled() {
        let mut rt = Runtime::with_config(RuntimeConfig::new().record_sched_events(true));
        let prog = Io::new_empty_mvar::<i64>().and_then(|m| {
            Io::<ThreadId>::block(Io::fork(m.take().map(|_| ()))).and_then(move |child| {
                Io::sleep(5)
                    .then(Io::throw_to(child, Exception::kill_thread()))
                    .then(Io::pure(0_i64))
            })
        });
        rt.run(prog).unwrap();
        let trace = rt.io_trace();
        assert!(trace.iter().any(|e| matches!(e, IoEvent::Mask(_))));
        assert!(trace.iter().any(|e| matches!(e, IoEvent::Fork { .. })));
        assert!(trace.iter().any(|e| matches!(
            e,
            IoEvent::BlockedOn {
                site: crate::trace::BlockSite::TakeMVar,
                ..
            }
        )));
        assert!(trace.iter().any(|e| matches!(e, IoEvent::ThrowTo { .. })));
    }

    #[test]
    fn sched_events_absent_by_default() {
        let mut rt = Runtime::new();
        let prog = Io::fork(Io::unit()).then(Io::sleep(1));
        rt.run(prog).unwrap();
        assert!(!rt
            .io_trace()
            .iter()
            .any(|e| matches!(e, IoEvent::Fork { .. } | IoEvent::BlockedOn { .. })));
    }

    #[test]
    fn mask_frames_collapse_stat() {
        // A mask-recursive loop: block(unblock(block(...))).
        fn looped(n: u64) -> Io<()> {
            if n == 0 {
                Io::unit()
            } else {
                Io::<()>::block(Io::<()>::unblock(
                    Io::unit().and_then(move |_| looped(n - 1)),
                ))
            }
        }
        let mut rt = Runtime::new();
        rt.run(looped(50)).unwrap();
        let with = rt.stats().max_mask_frames;
        assert!(rt.stats().mask_frames_collapsed > 0);

        let cfg = RuntimeConfig::new().collapse_mask_frames(false);
        let mut rt2 = Runtime::with_config(cfg);
        rt2.run(looped(50)).unwrap();
        let without = rt2.stats().max_mask_frames;
        assert!(
            without > with,
            "collapse should bound mask frames: with={with}, without={without}"
        );
    }
}

#[cfg(test)]
mod slice_tests {
    //! The quantum-resident loop must be invisible to a driver that
    //! slices a run into capped pumps: same program, same everything.

    use super::*;
    use crate::io::for_each;

    /// A program that leaves its quantum every way a thread can: quantum
    /// exhausted (compute chunks, bind chains), finished and died (fork +
    /// exit, an uncaught exception in a child), blocked (`take`, `sleep`),
    /// yielded, and receiving a masked and an unmasked `throwTo`.
    fn every_exit() -> Io<i64> {
        Io::new_empty_mvar::<i64>().and_then(|m| {
            let worker = for_each(5, |i| Io::compute(7 + i))
                .then(Io::sleep(30))
                .then(m.put(5));
            let yielder = for_each(4, |_| Io::put_char('y').then(Io::yield_now()));
            let crasher = Io::compute(5).then(Io::<()>::throw(Exception::error_call("child")));
            let unmasked = Io::compute(u64::MAX);
            // Forked under `block`, so the kill below waits for the
            // `unblock` window: the 'm' is always written.
            let masked = Io::compute(40)
                .then(Io::put_char('m'))
                .then(Io::<()>::unblock(Io::compute(u64::MAX)));
            // The virtual clock only moves when nothing is runnable, so
            // both immortal computations are killed before anyone relies
            // on a sleeper waking.
            Io::fork(worker)
                .then(Io::fork(yielder))
                .then(Io::fork(crasher))
                .then(Io::fork(unmasked))
                .and_then(move |victim| {
                    Io::<ThreadId>::block(Io::fork(masked)).and_then(move |shielded| {
                        Io::throw_to(shielded, Exception::kill_thread())
                            .then(Io::throw_to(victim, Exception::kill_thread()))
                            .then(m.take())
                            .and_then(|v| Io::sleep(10).then(Io::put_char('.')).then(Io::pure(v)))
                    })
                })
        })
    }

    fn config(quantum: u64) -> RuntimeConfig {
        RuntimeConfig::new()
            .quantum(quantum)
            .record_sched_events(true)
    }

    /// Live threads are exactly the table's occupants: nothing a pump
    /// returns from may leave the running thread outside its slot.
    fn assert_live_threads_resolve(rt: &Runtime) {
        let occupants = rt.threads.iter().filter(|s| s.thread.is_some()).count() as u64;
        let live = u64::from(rt.next_seq) - rt.stats.finished_threads - rt.stats.died_threads;
        assert_eq!(occupants, live, "a live thread is missing from the table");
    }

    #[test]
    fn a_sliced_run_equals_an_uncapped_run() {
        for quantum in [1, 3, 11] {
            let mut whole = Runtime::with_config(config(quantum));
            let expected = whole.run(every_exit());
            assert_eq!(expected, Ok(5));
            assert_eq!(whole.output(), "yyyym.");
            for budget in [1, 3, 11, 64] {
                let mut rt = Runtime::with_config(config(quantum));
                rt.begin_run(every_exit().action);
                let result = loop {
                    match rt.pump(u64::MAX, Some(budget)) {
                        PumpOutcome::Finished(res) => break res,
                        PumpOutcome::Budget => assert_live_threads_resolve(&rt),
                        PumpOutcome::Idle { .. } => panic!("idle with the clock uncapped"),
                    }
                };
                let label = format!("quantum {quantum}, budget {budget}");
                assert_eq!(result.map(i64::from_value_or_panic), expected, "{label}");
                assert_eq!(rt.output(), whole.output(), "{label}");
                assert_eq!(rt.io_trace(), whole.io_trace(), "{label}");
                assert_eq!(rt.stats(), whole.stats(), "{label}");
                assert_eq!(rt.clock(), whole.clock(), "{label}");
            }
        }
    }

    #[test]
    fn host_throw_at_a_slice_boundary_reaches_the_thread_that_was_running() {
        for quantum in [1, 3, 11] {
            let mut rt = Runtime::with_config(config(quantum));
            let prog = Io::compute_returning(1_000, 0_i64).catch(|e| {
                assert!(e.is_kill_thread());
                Io::pure(1_i64)
            });
            rt.begin_run(prog.action);
            assert!(matches!(rt.pump(u64::MAX, Some(7)), PumpOutcome::Budget));
            // The main thread was mid-compute when the budget ran out.
            rt.host_throw_to(rt.main_thread_id(), Exception::kill_thread());
            let PumpOutcome::Finished(result) = rt.pump(u64::MAX, None) else {
                panic!("an unbudgeted pump of a live program must finish");
            };
            assert_eq!(result, Ok(Value::Int(1)), "quantum {quantum}");
            assert_eq!(rt.stats().async_deliveries, 1);
        }
    }

    /// A timeout that does not fire: main kills the timer thread at t=10,
    /// before its tick at t=50, which stays in the wheel with nobody to
    /// wake (the bystander keeps the wheel too full for compaction to
    /// evict it), and sleeps on to t=100. The handler runs only if the
    /// host interrupts that sleep.
    fn unfired_timeout() -> Io<()> {
        Io::fork(Io::sleep(1_000))
            .then(Io::fork(Io::sleep(50).then(Io::put_char('t'))))
            .and_then(|timer| {
                Io::sleep(10)
                    .then(Io::throw_to(timer, Exception::kill_thread()))
                    .then(Io::sleep(90).catch(|_| Io::sleep(5)))
                    .then(Io::put_char('.'))
            })
    }

    /// The trace with every run of `TimeAdvance`s summed into one.
    fn advances_merged(trace: &[IoEvent]) -> Vec<IoEvent> {
        let mut merged: Vec<IoEvent> = Vec::new();
        for &event in trace {
            match (merged.last_mut(), event) {
                (Some(IoEvent::TimeAdvance(sum)), IoEvent::TimeAdvance(d)) => *sum += d,
                _ => merged.push(event),
            }
        }
        merged
    }

    fn advance_sum(rt: &Runtime) -> u64 {
        let advances = rt.io_trace().iter().map(|e| match e {
            IoEvent::TimeAdvance(d) => *d,
            _ => 0,
        });
        advances.sum()
    }

    /// Runs [`unfired_timeout`] up to an epoch ending at t=60, between
    /// the stale tick and the live one.
    fn pumped_to_the_stale_tick() -> Runtime {
        let mut rt = Runtime::with_config(config(11));
        rt.begin_run(unfired_timeout().action);
        let idle = rt.pump(60, None);
        assert!(
            matches!(
                idle,
                PumpOutcome::Idle {
                    next_wake: Some(100)
                }
            ),
            "{idle:?}"
        );
        // The capped advance stopped *at* the stale tick, where the
        // wheel's cursor now is.
        assert_eq!((rt.clock(), advance_sum(&rt)), (50, 50));
        rt
    }

    #[test]
    fn an_all_stale_tick_splits_a_capped_advance_and_nothing_else() {
        let mut whole = Runtime::with_config(config(11));
        assert_eq!(whole.run(unfired_timeout()), Ok(()));
        assert_eq!(
            (whole.output(), whole.clock(), advance_sum(&whole)),
            (".", 100, 100)
        );

        let mut rt = pumped_to_the_stale_tick();
        let rest = rt.pump(u64::MAX, None);
        assert!(
            matches!(rest, PumpOutcome::Finished(Ok(Value::Unit))),
            "{rest:?}"
        );
        assert_eq!(rt.output(), whole.output());
        assert_eq!(rt.stats(), whole.stats());
        assert_eq!((rt.clock(), advance_sum(&rt)), (100, 100));
        // Uncapped, the stale tick's 40 µs are folded into the next live
        // advance; capped, they are an advance of their own.
        assert_ne!(rt.io_trace(), whole.io_trace());
        assert_eq!(
            advances_merged(rt.io_trace()),
            advances_merged(whole.io_trace())
        );
    }

    #[test]
    fn a_timer_filed_right_after_a_capped_stale_pop_is_not_behind_the_cursor() {
        let mut rt = pumped_to_the_stale_tick();
        // Main's handler sleeps: a timer filed at the current clock, with
        // the wheel (bystander, main's dead entry) not empty, so its
        // cursor does not rebase — `TimerWheel::insert` asserts the clock
        // has kept up with it.
        rt.host_throw_to(rt.main_thread_id(), Exception::custom("host"));
        let rest = rt.pump(u64::MAX, None);
        assert!(
            matches!(rest, PumpOutcome::Finished(Ok(Value::Unit))),
            "{rest:?}"
        );
        assert_eq!(rt.output(), ".");
        assert_eq!((rt.clock(), advance_sum(&rt)), (55, 55));
    }
}

#[cfg(test)]
mod origin_tests {
    use crate::prelude::*;
    use crate::thread::RaiseOrigin;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn throw_reports_sync_origin() {
        let mut rt = Runtime::new();
        let prog = Io::<i64>::throw(Exception::error_call("mine"))
            .catch_info(|_, origin| Io::pure(i64::from(origin == RaiseOrigin::Sync)));
        assert_eq!(rt.run(prog).unwrap(), 1);
    }

    #[test]
    fn delivered_exception_reports_async_origin() {
        let mut rt = Runtime::new();
        let origins = Rc::new(RefCell::new(Vec::<RaiseOrigin>::new()));
        let o2 = Rc::clone(&origins);
        let prog = Io::new_empty_mvar::<i64>().and_then(move |done| {
            let victim = Io::<()>::unblock(Io::compute(100_000))
                .catch_info(move |_, origin| {
                    let o3 = Rc::clone(&o2);
                    Io::effect(move || o3.borrow_mut().push(origin))
                })
                .then(done.put(1));
            Io::<ThreadId>::block(Io::fork(victim))
                .and_then(move |v| Io::throw_to(v, Exception::kill_thread()).then(done.take()))
        });
        rt.run(prog).unwrap();
        assert_eq!(*origins.borrow(), [RaiseOrigin::Async]);
    }

    #[test]
    fn interrupted_blocked_take_reports_async_origin() {
        let mut rt = Runtime::new();
        let prog = Io::new_empty_mvar::<i64>().and_then(|hole| {
            Io::new_empty_mvar::<i64>().and_then(move |report| {
                let victim = hole
                    .take()
                    .catch_info(move |_, origin| {
                        report
                            .put(i64::from(origin == RaiseOrigin::Async))
                            .then(Io::pure(0))
                    })
                    .map(|_| ());
                Io::fork(victim).and_then(move |v| {
                    Io::sleep(5)
                        .then(Io::throw_to(v, Exception::kill_thread()))
                        .then(report.take())
                })
            })
        });
        assert_eq!(rt.run(prog).unwrap(), 1);
    }

    #[test]
    fn rethrow_preserves_async_origin_across_handlers() {
        let mut rt = Runtime::new();
        let prog = Io::new_empty_mvar::<i64>().and_then(|report| {
            let inner = Io::<()>::unblock(Io::compute(100_000));
            let victim = inner
                // Inner handler passes it along with origin intact.
                .catch_info(Io::rethrow)
                // Outer handler still sees Async.
                .catch_info(move |_, origin| {
                    report
                        .put(i64::from(origin == RaiseOrigin::Async))
                        .map(|_| ())
                });
            Io::<ThreadId>::block(Io::fork(victim))
                .and_then(move |v| Io::throw_to(v, Exception::kill_thread()).then(report.take()))
        });
        assert_eq!(rt.run(prog).unwrap(), 1);
    }

    #[test]
    fn plain_rethrow_launders_to_sync() {
        // Documented behaviour: re-raising with Io::throw makes it look
        // synchronous to outer handlers (use Io::rethrow to preserve).
        let mut rt = Runtime::new();
        let prog = Io::new_empty_mvar::<i64>().and_then(|report| {
            let victim = Io::<()>::unblock(Io::compute(100_000))
                .catch(Io::throw)
                .catch_info(move |_, origin| {
                    report
                        .put(i64::from(origin == RaiseOrigin::Sync))
                        .map(|_| ())
                });
            Io::<ThreadId>::block(Io::fork(victim))
                .and_then(move |v| Io::throw_to(v, Exception::kill_thread()).then(report.take()))
        });
        assert_eq!(rt.run(prog).unwrap(), 1);
    }

    #[test]
    fn self_sync_throwto_is_async_origin() {
        let mut rt = Runtime::new();
        let prog = Io::my_thread_id()
            .and_then(|me| Io::throw_to_sync(me, Exception::custom("self")).then(Io::pure(0_i64)))
            .catch_info(|_, origin| Io::pure(i64::from(origin == RaiseOrigin::Async)));
        assert_eq!(rt.run(prog).unwrap(), 1);
    }
}
