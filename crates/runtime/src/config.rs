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
//!
//! The rest bound a run (`max_steps`, `stack_limit`) or record it
//! (`record_sched_events`). What no experiment varies is not a setting:
//! every deadlock ends the run in
//! [`RunError::Deadlock`](crate::error::RunError::Deadlock), and the
//! scheduler is deterministic round-robin with a fixed slice of 11
//! steps. A test that varies the schedule installs a
//! [`Decider`](crate::decide::Decider) instead — in practice the
//! schedule explorer (`conch-explore`), which enumerates or samples
//! both of the semantics' choices: which thread steps next, and when a
//! pending exception is received.

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
    /// The default configuration: the paper's design on every axis but
    /// one. `fork_inherits_mask` is `true`, GHC's `forkIO` rather than
    /// the paper's (Fork) rule, so that §7.2's `either` can install its
    /// child-side handlers without a race; C1 sets it `false`.
    pub fn new() -> Self {
        RuntimeConfig {
            delivery: DeliveryMode::FullyAsync,
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
        // The one GHC axis: children inherit the mask so §7.2's `either`
        // installs its child-side handlers without a race.
        assert!(cfg.fork_inherits_mask);
    }

    #[test]
    fn builder_chains() {
        let cfg = RuntimeConfig::new()
            .delivery_mode(DeliveryMode::Polling)
            .collapse_mask_frames(false)
            .max_steps(1000)
            .stack_limit(64);
        assert_eq!(cfg.delivery, DeliveryMode::Polling);
        assert!(!cfg.collapse_mask_frames);
        assert_eq!(cfg.max_steps, Some(1000));
        assert_eq!(cfg.stack_limit, Some(64));
    }
}
