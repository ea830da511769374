//! Runtime configuration.
//!
//! The configuration exists to make the paper's design choices
//! *togglable*, so the ablations in `tests/ablations.rs` (EXPERIMENTS.md
//! B1–B5) and the conformance tests (C1) can count what each one buys:
//!
//! * [`DeliveryMode`] — fully-asynchronous delivery (the paper's design)
//!   versus the polling / safe-point baseline used by Java, Modula-3 and
//!   PThreads deferred cancellation (§2, §10; B3).
//! * [`RuntimeConfig::collapse_mask_frames`] — the §8.1 stack-frame
//!   optimization that lets mask-recursive functions run in constant
//!   stack (B1).
//! * [`RuntimeConfig::fork_inherits_mask`] — GHC's `forkIO` versus the
//!   paper-exact (Fork) rule (C1).
//! * [`SchedulingPolicy`] — deterministic round-robin or seeded random
//!   preemption, so tests can explore interleavings reproducibly.
//!
//! The rest bound a run (`quantum`, `max_steps`, `stack_limit`) or
//! record it (`record_sched_events`). What no experiment varies is not
//! a setting: every deadlock ends the run in
//! [`RunError::Deadlock`](crate::error::RunError::Deadlock).

/// How asynchronous exceptions are delivered to *runnable* threads.
///
/// Blocked (stuck) threads are always interruptible per the (Interrupt)
/// rule, in both modes — this matches Java, where `interrupt()` wakes a
/// `wait`/`sleep` immediately but otherwise only sets a flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeliveryMode {
    /// The paper's design: pending exceptions are delivered at every
    /// interpreter step boundary while the thread is unmasked — i.e. at
    /// *any* program point, including mid-`compute`.
    FullyAsync,
    /// The semi-asynchronous baseline (§2, §10): a runnable thread only
    /// receives pending exceptions at explicit
    /// [`Io::poll_safe_point`](crate::io::Io::poll_safe_point) calls.
    Polling,
}

/// Which thread runs next, and for how long — unless a
/// [`Decider`](crate::decide::Decider) is installed
/// ([`Runtime::set_decider`](crate::scheduler::Runtime::set_decider)):
/// then the decider answers every pick and every delivery, one step at
/// a time, and the policy is not consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulingPolicy {
    /// Deterministic round-robin with a fixed quantum of interpreter steps.
    RoundRobin,
    /// Seeded pseudo-random choice of the next thread and quantum length.
    /// Deterministic for a given seed; used to explore interleavings.
    ///
    /// Only tests (about 20 sites) and `examples/lock_safety.rs` select
    /// it. It stays until ROADMAP's conformance-bridge item replaces
    /// C1's random-schedule sampling with the explorer.
    Random {
        /// RNG seed.
        seed: u64,
    },
}

/// Configuration for a [`Runtime`](crate::scheduler::Runtime).
///
/// # Examples
///
/// ```
/// use conch_runtime::prelude::*;
/// use conch_runtime::config::{DeliveryMode, RuntimeConfig};
///
/// let cfg = RuntimeConfig::new().delivery_mode(DeliveryMode::Polling);
/// let mut rt = Runtime::with_config(cfg);
/// assert_eq!(rt.run(Io::pure(1_i64)).unwrap(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    /// Delivery mode for asynchronous exceptions. Default: `FullyAsync`;
    /// ablation B3 selects the `Polling` baseline.
    pub delivery: DeliveryMode,
    /// Scheduling policy. Default: round-robin.
    pub scheduling: SchedulingPolicy,
    /// Steps a thread runs before preemption. Default: 11 (a prime, so
    /// round-robin interleavings don't accidentally synchronize with
    /// loop bodies).
    pub quantum: u64,
    /// Apply the §8.1 adjacent block/unblock frame-collapse optimization.
    /// Default: `true`; ablation B1 disables it.
    pub collapse_mask_frames: bool,
    /// Hard cap on total interpreter steps (guards against accidental
    /// non-termination in tests). `None` = unbounded. Default: `None`.
    pub max_steps: Option<u64>,
    /// Hard cap on a single thread's frame-stack depth, modelling the
    /// finite stack of §2/§8.1. Exceeding it raises `StackOverflow` in the
    /// offending thread. `None` = unbounded. Default: `None`.
    ///
    /// Only tests set it, but it is the runtime's one bound on a
    /// thread's memory, and exhaustion must end in a typed error
    /// (ROADMAP's robustness aim).
    pub stack_limit: Option<usize>,
    /// Whether `forkIO` children inherit the parent's masking state.
    ///
    /// The paper's (Fork) rule starts children unblocked; GHC later changed
    /// `forkIO` to inherit the mask precisely so that combinators like
    /// `either` (§7.2) can install their child-side handlers without a
    /// race. Default: `true` (GHC behaviour). Set `false` for paper-exact
    /// semantics (the conformance tests do, C1).
    pub fork_inherits_mask: bool,
    /// Record scheduler-visible events (fork, throwTo, mask transitions,
    /// blocking) in the I/O trace alongside the observable console/clock
    /// events. Off by default so existing trace output is unchanged;
    /// `tests/golden_traces.rs` turns it on to pin rendered traces.
    pub record_sched_events: bool,
}

impl RuntimeConfig {
    /// The default configuration (the paper's design on every axis).
    pub fn new() -> Self {
        RuntimeConfig {
            delivery: DeliveryMode::FullyAsync,
            scheduling: SchedulingPolicy::RoundRobin,
            quantum: 11,
            collapse_mask_frames: true,
            max_steps: None,
            stack_limit: None,
            fork_inherits_mask: true,
            record_sched_events: false,
        }
    }

    /// Sets the delivery mode.
    pub fn delivery_mode(mut self, mode: DeliveryMode) -> Self {
        self.delivery = mode;
        self
    }

    /// Sets the scheduling policy.
    pub fn scheduling(mut self, policy: SchedulingPolicy) -> Self {
        self.scheduling = policy;
        self
    }

    /// Sets the preemption quantum (in interpreter steps).
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub fn quantum(mut self, quantum: u64) -> Self {
        assert!(quantum > 0, "quantum must be at least 1 step");
        self.quantum = quantum;
        self
    }

    /// Enables or disables the §8.1 frame-collapse optimization.
    pub fn collapse_mask_frames(mut self, on: bool) -> Self {
        self.collapse_mask_frames = on;
        self
    }

    /// Caps the total number of interpreter steps.
    pub fn max_steps(mut self, steps: u64) -> Self {
        self.max_steps = Some(steps);
        self
    }

    /// Caps per-thread stack depth (frames).
    pub fn stack_limit(mut self, frames: usize) -> Self {
        self.stack_limit = Some(frames);
        self
    }

    /// Convenience: seeded random scheduling.
    pub fn random_scheduling(self, seed: u64) -> Self {
        self.scheduling(SchedulingPolicy::Random { seed })
    }

    /// Enables or disables scheduler-visible events in the I/O trace.
    pub fn record_sched_events(mut self, on: bool) -> Self {
        self.record_sched_events = on;
        self
    }

    /// Sets whether `forkIO` children inherit the parent's masking state.
    pub fn fork_inherits_mask(mut self, on: bool) -> Self {
        self.fork_inherits_mask = on;
        self
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig::new()
    }
}

// The parallel schedule explorer builds one runtime per worker thread
// from a shared `&RuntimeConfig`; this compile-time assertion keeps the
// config plain `Send + Sync` data so that stays possible.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<RuntimeConfig>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_design() {
        let cfg = RuntimeConfig::default();
        assert_eq!(cfg.delivery, DeliveryMode::FullyAsync);
        assert!(cfg.collapse_mask_frames);
        assert_eq!(cfg.scheduling, SchedulingPolicy::RoundRobin);
    }

    #[test]
    fn builder_chains() {
        let cfg = RuntimeConfig::new()
            .delivery_mode(DeliveryMode::Polling)
            .quantum(3)
            .collapse_mask_frames(false)
            .max_steps(1000)
            .stack_limit(64)
            .random_scheduling(42);
        assert_eq!(cfg.delivery, DeliveryMode::Polling);
        assert_eq!(cfg.quantum, 3);
        assert!(!cfg.collapse_mask_frames);
        assert_eq!(cfg.max_steps, Some(1000));
        assert_eq!(cfg.stack_limit, Some(64));
        assert_eq!(cfg.scheduling, SchedulingPolicy::Random { seed: 42 });
    }

    #[test]
    #[should_panic(expected = "quantum")]
    fn zero_quantum_rejected() {
        let _ = RuntimeConfig::new().quantum(0);
    }
}
