//! Exception values.
//!
//! The paper (following \[15\], "imprecise exceptions") uses a single
//! `Exception` datatype for both synchronous exceptions (raised by `throw`
//! or by pure evaluation via `raise`) and asynchronous exceptions
//! (delivered by `throwTo`). Section 9 discusses splitting the two in the
//! type system; like the paper, we keep one type and record *how* an
//! exception arrived separately (see [`crate::stats::Stats`]).

use std::error::Error;
use std::fmt;

/// An exception of the embedded language.
///
/// Exceptions compare by structural equality, which is what `catch`
/// handlers typically need.
///
/// # Examples
///
/// ```
/// use conch_runtime::exception::Exception;
///
/// let e = Exception::error_call("boom");
/// assert_eq!(e, Exception::error_call("boom"));
/// assert_ne!(e, Exception::kill_thread());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Exception {
    kind: ExceptionKind,
}

/// The kinds of exception the runtime and the paper's examples use.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ExceptionKind {
    /// `KillThread` — the exception `either` sends to the losing child (§7.2).
    KillThread,
    /// A timeout notification, one of §2's named sources of
    /// asynchronous exceptions. Nothing here raises it: the paper's
    /// `timeout` combinator needs no exception (§7.3).
    Timeout,
    /// `error` calls / user errors with a message.
    ErrorCall(String),
    /// Division by zero and friends, raised by pure evaluation.
    Arithmetic(ArithError),
    /// A pattern-match failure in pure code (Figure 1's inner language).
    PatternMatchFail,
    /// Stack exhaustion (§2, resource exhaustion).
    StackOverflow,
    /// Heap exhaustion (§2, resource exhaustion).
    HeapOverflow,
    /// A user pressing the interrupt key (§2, user interrupt).
    UserInterrupt,
    /// An application-defined exception identified by name.
    Custom(String),
    /// An actor exit signal: the thread with spawn sequence `from`
    /// terminated with `reason`. This is the typed payload a linked
    /// actor delivers to its peers via `throwTo` — the Erlang-style
    /// layer ("An Exceptional Actor System") built on the paper's
    /// asynchronous exceptions. A trapping actor converts it into a
    /// mailbox message instead of dying (see `conch-actors`).
    ExitSignal {
        /// Spawn sequence number of the terminated thread.
        from: u64,
        /// Why it terminated.
        reason: Box<ExitReason>,
    },
}

/// Why a thread (actor) terminated — the payload of
/// [`ExceptionKind::ExitSignal`] and the classification the scheduler
/// records on the (Throw GC) path.
///
/// The three-way split mirrors Erlang: `Normal` exits do not kill
/// linked peers, `Killed` marks an asynchronous `KillThread` (the
/// untrappable `exit(Pid, kill)` analogue), and `Crashed` carries the
/// uncaught exception itself.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ExitReason {
    /// The thread's body returned normally.
    Normal,
    /// The thread died with this uncaught exception.
    Crashed(Box<Exception>),
    /// The thread was torn down by an asynchronous `KillThread`.
    Killed,
}

impl ExitReason {
    /// `true` for every reason except [`ExitReason::Normal`].
    pub fn is_abnormal(&self) -> bool {
        !matches!(self, ExitReason::Normal)
    }
}

impl fmt::Display for ExitReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExitReason::Normal => write!(f, "normal"),
            ExitReason::Crashed(e) => write!(f, "crashed: {e}"),
            ExitReason::Killed => write!(f, "killed"),
        }
    }
}

/// Arithmetic failure modes for [`ExceptionKind::Arithmetic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithError {
    /// Division by zero.
    DivideByZero,
    /// Integer overflow.
    Overflow,
}

impl Exception {
    /// Creates an exception of the given kind.
    pub fn new(kind: ExceptionKind) -> Self {
        Exception { kind }
    }

    /// The `KillThread` exception (§7.2).
    pub fn kill_thread() -> Self {
        Exception::new(ExceptionKind::KillThread)
    }

    /// A timeout exception.
    pub fn timeout() -> Self {
        Exception::new(ExceptionKind::Timeout)
    }

    /// A user error carrying a message.
    pub fn error_call(msg: impl Into<String>) -> Self {
        Exception::new(ExceptionKind::ErrorCall(msg.into()))
    }

    /// A division-by-zero exception.
    pub fn divide_by_zero() -> Self {
        Exception::new(ExceptionKind::Arithmetic(ArithError::DivideByZero))
    }

    /// An application-defined exception identified by `name`.
    pub fn custom(name: impl Into<String>) -> Self {
        Exception::new(ExceptionKind::Custom(name.into()))
    }

    /// An exit signal from the thread with spawn sequence `from`.
    pub fn exit_signal(from: u64, reason: ExitReason) -> Self {
        Exception::new(ExceptionKind::ExitSignal {
            from,
            reason: Box::new(reason),
        })
    }

    /// The kind of this exception.
    pub fn kind(&self) -> &ExceptionKind {
        &self.kind
    }

    /// Returns `true` if this is the `KillThread` exception.
    pub fn is_kill_thread(&self) -> bool {
        self.kind == ExceptionKind::KillThread
    }

    /// Returns `true` if this is an exit signal.
    pub fn is_exit_signal(&self) -> bool {
        matches!(self.kind, ExceptionKind::ExitSignal { .. })
    }
}

impl From<ExceptionKind> for Exception {
    fn from(kind: ExceptionKind) -> Self {
        Exception::new(kind)
    }
}

impl fmt::Display for Exception {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ExceptionKind::KillThread => write!(f, "KillThread"),
            ExceptionKind::Timeout => write!(f, "Timeout"),
            ExceptionKind::ErrorCall(m) => write!(f, "ErrorCall({m:?})"),
            ExceptionKind::Arithmetic(ArithError::DivideByZero) => {
                write!(f, "divide by zero")
            }
            ExceptionKind::Arithmetic(ArithError::Overflow) => write!(f, "overflow"),
            ExceptionKind::PatternMatchFail => write!(f, "pattern match failure"),
            ExceptionKind::StackOverflow => write!(f, "stack overflow"),
            ExceptionKind::HeapOverflow => write!(f, "heap overflow"),
            ExceptionKind::UserInterrupt => write!(f, "user interrupt"),
            ExceptionKind::Custom(name) => write!(f, "{name}"),
            ExceptionKind::ExitSignal { from, reason } => {
                write!(f, "ExitSignal(thread#{from}, {reason})")
            }
        }
    }
}

impl Error for Exception {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_is_structural() {
        assert_eq!(Exception::kill_thread(), Exception::kill_thread());
        assert_eq!(Exception::error_call("x"), Exception::error_call("x"));
        assert_ne!(Exception::error_call("x"), Exception::error_call("y"));
        assert_ne!(Exception::custom("a"), Exception::custom("b"));
    }

    #[test]
    fn predicates() {
        assert!(Exception::kill_thread().is_kill_thread());
        assert!(!Exception::timeout().is_kill_thread());
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(Exception::kill_thread().to_string(), "KillThread");
        assert_eq!(
            Exception::error_call("bad").to_string(),
            "ErrorCall(\"bad\")"
        );
        assert_eq!(Exception::divide_by_zero().to_string(), "divide by zero");
        assert_eq!(Exception::custom("MyExc").to_string(), "MyExc");
    }

    #[test]
    fn kind_accessor() {
        let e = Exception::custom("E");
        assert_eq!(e.kind(), &ExceptionKind::Custom("E".into()));
    }

    #[test]
    fn implements_error_trait() {
        fn takes_error<E: std::error::Error>(_: E) {}
        takes_error(Exception::timeout());
    }

    #[test]
    fn exit_signal_accessors_and_display() {
        let crash = ExitReason::Crashed(Box::new(Exception::error_call("boom")));
        let e = Exception::exit_signal(7, crash.clone());
        assert!(e.is_exit_signal());
        assert!(!e.is_kill_thread());
        assert_eq!(
            e.to_string(),
            "ExitSignal(thread#7, crashed: ErrorCall(\"boom\"))"
        );
        assert_eq!(
            Exception::exit_signal(1, ExitReason::Killed).to_string(),
            "ExitSignal(thread#1, killed)"
        );
    }

    #[test]
    fn exit_reason_abnormality() {
        assert!(!ExitReason::Normal.is_abnormal());
        assert!(ExitReason::Killed.is_abnormal());
        assert!(ExitReason::Crashed(Box::new(Exception::timeout())).is_abnormal());
        assert_eq!(ExitReason::Normal.to_string(), "normal");
    }
}
