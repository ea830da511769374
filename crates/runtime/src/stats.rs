//! Execution statistics.
//!
//! Stats make the paper's informal performance claims measurable:
//! `max_mask_frames` quantifies the §8.1 frame-collapse optimization,
//! `async_deliveries`/`interrupted_blocked` separate the (Receive) and
//! (Interrupt) delivery paths, and `delivery_latency` samples back the
//! §2/§10 async-vs-polling comparison.

/// Counters accumulated by a [`Runtime`](crate::scheduler::Runtime) run.
///
/// # Examples
///
/// ```
/// use conch_runtime::prelude::*;
///
/// let mut rt = Runtime::new();
/// rt.run(Io::compute(100)).unwrap();
/// assert!(rt.stats().steps >= 100);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Total interpreter small-steps executed.
    pub steps: u64,
    /// Times the scheduler switched from one thread to another.
    pub context_switches: u64,
    /// Threads created with `forkIO` (excluding the main thread).
    pub forks: u64,
    /// Threads that finished normally.
    pub finished_threads: u64,
    /// Threads that died with an uncaught exception (rule (Throw GC)).
    pub died_threads: u64,
    /// Of `died_threads`, those torn down by an uncaught `KillThread` —
    /// the scheduler's exit-reason classification the actor layer's
    /// `ExitReason::Killed` mirrors.
    pub kill_thread_deaths: u64,
    /// Of `died_threads`, those that died of an uncaught `ExitSignal`,
    /// i.e. a propagated link signal reached a non-trapping actor.
    pub exit_signal_deaths: u64,
    /// Asynchronous exceptions delivered to *runnable* threads
    /// (rule (Receive)).
    pub async_deliveries: u64,
    /// Asynchronous exceptions delivered to *stuck* threads
    /// (rule (Interrupt)) — i.e. interruptible operations interrupted.
    pub interrupted_blocked: u64,
    /// Synchronous `throw`s raised.
    pub sync_throws: u64,
    /// Exceptions caught by `catch` handlers.
    pub catches: u64,
    /// `throwTo` calls issued (async and sync designs combined).
    pub throwtos: u64,
    /// takeMVar/putMVar operations that completed.
    pub mvar_ops: u64,
    /// Times a thread blocked on an MVar, sleep, console or sync-throw.
    pub blocks: u64,
    /// Deepest frame stack observed on any thread.
    pub max_stack_depth: usize,
    /// Deepest count of mask (block/unblock) frames observed on any
    /// thread's stack — the quantity §8.1's optimization keeps constant.
    pub max_mask_frames: usize,
    /// Block/unblock frame pushes avoided by the §8.1 collapse.
    pub mask_frames_collapsed: u64,
    /// Sum and count of delivery latencies: interpreter steps between a
    /// `throwTo` enqueue and the exception being raised in the target.
    pub delivery_latency_total: u64,
    /// Number of latency samples in `delivery_latency_total`.
    pub delivery_latency_samples: u64,
    /// High-water mark of the thread-table slot count. With slot
    /// reclamation this tracks the peak number of *concurrent* threads,
    /// not the total number ever forked — the bound that keeps a
    /// long-running fork-per-connection server at constant memory.
    pub max_thread_slots: usize,
    /// High-water mark of the sleeper heap length. Eager compaction of
    /// interrupted sleepers keeps this proportional to the number of
    /// *live* sleepers, not the total number of timeouts ever started.
    pub max_sleeper_heap: usize,
    /// Sleeper-queue operations performed: sleeper insertions plus
    /// entries popped at expiry (stale entries included — a lazy
    /// cancellation is paid for at its pop). The denominator for the
    /// `timer_ops_per_sec` throughput the benchmarks report.
    pub timer_ops: u64,
    /// Happens-before races detected by a schedule explorer's dynamic
    /// partial-order reduction over runs of this runtime (pairs of
    /// dependent, causally-unordered steps). Zero for plain runs; the
    /// explorer accumulates it here so worker totals merge with the
    /// same commutative rule as every other counter.
    pub races_detected: u64,
    /// Backtrack points installed by dynamic partial-order reduction:
    /// distinct (schedule prefix, alternative) pairs the race analysis
    /// asked the search to explore. Zero for plain runs.
    pub backtracks_installed: u64,
    /// Schedules drawn by a schedule explorer's sampling strategy
    /// (PCT). Zero for plain runs and for exhaustive
    /// exploration; under sampling it equals the explored count.
    pub sampled: u64,
    /// Distinct schedules among the sampled ones, read off a shared
    /// hash set at the end of a sampling exploration (not a per-run
    /// counter, so it merges by `max`, like a high-water mark).
    pub distinct_schedules: u64,
}

impl Stats {
    /// Folds `other` into `self`: counters add, high-water marks take the
    /// maximum. This is the aggregation the parallel schedule explorer
    /// uses to combine per-run statistics from many worker-owned
    /// runtimes into one deterministic total — addition and `max` are
    /// commutative and associative, so the merged result is independent
    /// of the order workers finish in.
    pub fn merge(&mut self, other: &Stats) {
        self.steps += other.steps;
        self.context_switches += other.context_switches;
        self.forks += other.forks;
        self.finished_threads += other.finished_threads;
        self.died_threads += other.died_threads;
        self.kill_thread_deaths += other.kill_thread_deaths;
        self.exit_signal_deaths += other.exit_signal_deaths;
        self.async_deliveries += other.async_deliveries;
        self.interrupted_blocked += other.interrupted_blocked;
        self.sync_throws += other.sync_throws;
        self.catches += other.catches;
        self.throwtos += other.throwtos;
        self.mvar_ops += other.mvar_ops;
        self.blocks += other.blocks;
        self.max_stack_depth = self.max_stack_depth.max(other.max_stack_depth);
        self.max_mask_frames = self.max_mask_frames.max(other.max_mask_frames);
        self.mask_frames_collapsed += other.mask_frames_collapsed;
        self.delivery_latency_total += other.delivery_latency_total;
        self.delivery_latency_samples += other.delivery_latency_samples;
        self.max_thread_slots = self.max_thread_slots.max(other.max_thread_slots);
        self.max_sleeper_heap = self.max_sleeper_heap.max(other.max_sleeper_heap);
        self.timer_ops += other.timer_ops;
        self.races_detected += other.races_detected;
        self.backtracks_installed += other.backtracks_installed;
        self.sampled += other.sampled;
        self.distinct_schedules = self.distinct_schedules.max(other.distinct_schedules);
    }

    /// Mean steps between `throwTo` and delivery, if any were delivered.
    pub fn mean_delivery_latency(&self) -> Option<f64> {
        if self.delivery_latency_samples == 0 {
            None
        } else {
            Some(self.delivery_latency_total as f64 / self.delivery_latency_samples as f64)
        }
    }

    /// Total asynchronous deliveries over both paths.
    pub fn total_deliveries(&self) -> u64 {
        self.async_deliveries + self.interrupted_blocked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_mean_empty_is_none() {
        assert_eq!(Stats::default().mean_delivery_latency(), None);
    }

    #[test]
    fn latency_mean_computes() {
        let s = Stats {
            delivery_latency_total: 30,
            delivery_latency_samples: 3,
            ..Stats::default()
        };
        assert_eq!(s.mean_delivery_latency(), Some(10.0));
    }

    #[test]
    fn merge_adds_counters_and_maxes_high_water_marks() {
        let mut a = Stats {
            steps: 10,
            forks: 1,
            mvar_ops: 4,
            max_stack_depth: 7,
            max_thread_slots: 3,
            delivery_latency_total: 5,
            delivery_latency_samples: 1,
            ..Stats::default()
        };
        let b = Stats {
            steps: 32,
            forks: 2,
            mvar_ops: 1,
            max_stack_depth: 4,
            max_thread_slots: 9,
            delivery_latency_total: 15,
            delivery_latency_samples: 2,
            ..Stats::default()
        };
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab.steps, 42);
        assert_eq!(ab.forks, 3);
        assert_eq!(ab.mvar_ops, 5);
        assert_eq!(ab.max_stack_depth, 7);
        assert_eq!(ab.max_thread_slots, 9);
        assert_eq!(ab.mean_delivery_latency(), Some(20.0 / 3.0));

        // Order-independent: b.merge(a) == a.merge(b).
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);

        // Identity: merging the default is a no-op.
        a.merge(&Stats::default());
        assert_eq!(a.steps, 10);
    }

    #[test]
    fn total_deliveries_sums_paths() {
        let s = Stats {
            async_deliveries: 2,
            interrupted_blocked: 3,
            ..Stats::default()
        };
        assert_eq!(s.total_deliveries(), 5);
    }
}
