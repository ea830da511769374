//! Errors returned by [`Runtime::run`](crate::scheduler::Runtime::run).

use std::error::Error;
use std::fmt;

use crate::exception::Exception;
use crate::ids::ThreadId;

/// Why a run of the main action failed.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The main thread died with an uncaught exception.
    Uncaught(Exception),
    /// Every live thread is stuck and no sleeper can ever wake: the
    /// program can make no further transition (the semantics' stuck soup).
    Deadlock {
        /// The threads that are stuck, with a human-readable reason each.
        stuck: Vec<(ThreadId, String)>,
    },
    /// The configured [`max_steps`](crate::config::RuntimeConfig::max_steps)
    /// budget was exhausted before the main thread finished.
    StepLimitExceeded {
        /// The configured limit.
        limit: u64,
    },
    /// A `fork` needed a thread slot while `limit` threads were already
    /// alive (thread ids name their slot in 16 bits). Finished threads
    /// free their slots, so only *concurrent* threads count.
    ThreadLimitExceeded {
        /// The most threads that can be alive at once.
        limit: usize,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Uncaught(e) => write!(f, "main thread died with uncaught exception: {e}"),
            RunError::Deadlock { stuck } => {
                write!(f, "deadlock: all {} live threads are stuck (", stuck.len())?;
                for (i, (t, why)) in stuck.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{t} {why}")?;
                }
                write!(f, ")")
            }
            RunError::StepLimitExceeded { limit } => {
                write!(f, "step limit of {limit} exceeded")
            }
            RunError::ThreadLimitExceeded { limit } => {
                write!(f, "fork failed: {limit} threads are already alive")
            }
        }
    }
}

impl Error for RunError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::tid;

    #[test]
    fn display_uncaught() {
        let e = RunError::Uncaught(Exception::kill_thread());
        assert!(e.to_string().contains("KillThread"));
    }

    #[test]
    fn display_deadlock_lists_threads() {
        let e = RunError::Deadlock {
            stuck: vec![(tid(0), "waiting on mvar#1".into())],
        };
        let s = e.to_string();
        assert!(s.contains("deadlock"));
        assert!(s.contains("thread#0"));
        assert!(s.contains("mvar#1"));
    }

    #[test]
    fn display_step_limit() {
        let e = RunError::StepLimitExceeded { limit: 10 };
        assert!(e.to_string().contains("10"));
    }
}
