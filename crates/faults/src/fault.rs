//! The connection-fault menu: what can go wrong on the wire, as
//! enumerable arms.
//!
//! The arm numbering is fixed. Arm `0` is the no-fault case, matching
//! the [`Io::choose`] convention that arm `0` is what happens when
//! nobody is deciding (no decider installed — i.e. outside exploration
//! — every choice resolves to `0`).

use conch_httpd::http::Request;
use conch_runtime::io::Io;
use conch_runtime::value::{FromValue, IntoValue, Value};

/// A fault in the connection's wire behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnFault {
    /// No fault: a complete, well-formed request.
    None,
    /// The peer connects and immediately hangs up without sending a
    /// byte. The server's request read raises `ConnectionClosed` at
    /// once.
    Drop,
    /// The peer sends a partial request and then stalls forever
    /// (slowloris). Only the server's read timeout ends it.
    Stall,
    /// The peer sends a partial request and then closes mid-read.
    MidRequestClose,
    /// The peer sends bytes that are not HTTP (but does terminate the
    /// header block, so the server parses — and rejects — them).
    Garbage,
}

impl ConnFault {
    /// Number of arms in this menu, for [`Io::choose`].
    pub(crate) const ARMS: u8 = 5;

    /// The fault for one incoming connection: an explorer branch point
    /// over every arm.
    pub(crate) fn choose() -> Io<ConnFault> {
        Io::choose(ConnFault::ARMS).map(ConnFault::from_arm)
    }

    /// Decodes a chosen arm; out-of-range arms mean no fault.
    fn from_arm(arm: i64) -> ConnFault {
        match arm {
            1 => ConnFault::Drop,
            2 => ConnFault::Stall,
            3 => ConnFault::MidRequestClose,
            4 => ConnFault::Garbage,
            _ => ConnFault::None,
        }
    }

    /// This fault's arm number.
    pub(crate) fn arm(self) -> u8 {
        match self {
            ConnFault::None => 0,
            ConnFault::Drop => 1,
            ConnFault::Stall => 2,
            ConnFault::MidRequestClose => 3,
            ConnFault::Garbage => 4,
        }
    }

    /// The wire history a connection exhibiting this fault writes
    /// before the server sees it: `(request text, peer closes?)`.
    ///
    /// [`Stall`](ConnFault::Stall) is "partial text, never closed" —
    /// stalling forever needs no live sender thread, just bytes that
    /// stop coming; the virtual clock then runs straight to the
    /// server's read timeout.
    pub(crate) fn wire(self, path: &str) -> (String, bool) {
        match self {
            ConnFault::None => (Request::get(path).render(), false),
            ConnFault::Drop => (String::new(), true),
            ConnFault::Stall => (format!("GET {path} HT"), false),
            ConnFault::MidRequestClose => (format!("GET {path} HT"), true),
            ConnFault::Garbage => ("%%% not http %%%\r\n\r\n".to_owned(), false),
        }
    }
}

impl IntoValue for ConnFault {
    fn into_value(self) -> Value {
        Value::Int(i64::from(self.arm()))
    }
}

impl FromValue for ConnFault {
    fn from_value(v: Value) -> Option<Self> {
        Some(ConnFault::from_arm(v.as_int()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arms_round_trip() {
        for arm in 0..i64::from(ConnFault::ARMS) {
            assert_eq!(i64::from(ConnFault::from_arm(arm).arm()), arm);
        }
    }

    #[test]
    fn out_of_range_arms_are_no_fault() {
        assert_eq!(ConnFault::from_arm(99), ConnFault::None);
        assert_eq!(ConnFault::from_arm(-1), ConnFault::None);
    }

    #[test]
    fn wire_histories() {
        let (text, close) = ConnFault::None.wire("/x");
        assert!(text.starts_with("GET /x") && text.ends_with("\r\n\r\n"));
        assert!(!close);
        assert_eq!(ConnFault::Drop.wire("/x"), (String::new(), true));
        let (text, close) = ConnFault::MidRequestClose.wire("/x");
        assert!(!text.ends_with("\r\n\r\n") && close);
        let (text, close) = ConnFault::Garbage.wire("/x");
        assert!(text.ends_with("\r\n\r\n") && !close);
    }
}
