//! Typed `MVar` handles and the runtime's `MVar` cells.
//!
//! An `MVar` (§4, after Id's M-structures) is a box that is either empty or
//! holds one value. [`MVar::take`] blocks while the box is empty and
//! [`MVar::put`] blocks while it is full; both are *interruptible*
//! operations in the sense of §5.3 — inside `block` they can still receive
//! asynchronous exceptions, but only while the resource is unavailable.
//!
//! Wake-up uses direct hand-off: a `put` to an empty `MVar` with waiting
//! takers passes the value straight to the first taker (FIFO), so no woken
//! thread ever has to retry. This is one deterministic refinement of the
//! paper's nondeterministic (PutMVar)/(TakeMVar) rules.

use std::marker::PhantomData;

use crate::ids::{MVarId, ThreadId};
use crate::io::{Action, Io};
use crate::value::{read_copy, read_copy_or_panic, FromValue, IntoValue, Value};

/// A typed handle to an `MVar` cell holding values of type `T`.
///
/// Handles are small and copyable; the cell itself lives in the
/// [`Runtime`](crate::scheduler::Runtime).
///
/// # Examples
///
/// ```
/// use conch_runtime::prelude::*;
///
/// let prog = Io::new_empty_mvar::<i64>()
///     .and_then(|m| m.put(1).then(m.take()));
/// let mut rt = Runtime::new();
/// assert_eq!(rt.run(prog).unwrap(), 1);
/// ```
pub struct MVar<T> {
    id: MVarId,
    marker: PhantomData<fn(T) -> T>,
}

impl<T> Clone for MVar<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for MVar<T> {}

impl<T> std::fmt::Debug for MVar<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MVar({})", self.id)
    }
}

impl<T> PartialEq for MVar<T> {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl<T> Eq for MVar<T> {}

impl<T: FromValue + IntoValue + 'static> MVar<T> {
    /// Wraps a raw cell id in a typed handle.
    ///
    /// Exposed for the semantics bridge; user code obtains handles from
    /// [`Io::new_empty_mvar`] instead.
    pub fn from_id(id: MVarId) -> Self {
        MVar {
            id,
            marker: PhantomData,
        }
    }

    /// The raw cell id of this handle.
    pub fn id(&self) -> MVarId {
        self.id
    }

    /// `takeMVar` — removes and returns the contents, blocking while empty.
    ///
    /// Interruptible: inside `block`, asynchronous exceptions can arrive
    /// right up until the value is acquired, but not after (§5.3).
    pub fn take(&self) -> Io<T> {
        Io::from_action(Action::TakeMVar(self.id))
    }

    /// `putMVar` — fills the box, blocking while it is already full.
    ///
    /// Interruptible only while the box is full; a `put` to an `MVar` that
    /// is known empty (e.g. in an exception handler that restores state,
    /// §5.3) cannot be interrupted.
    pub fn put(&self, v: T) -> Io<()> {
        Io::from_action(Action::PutMVar(self.id, v.into_value()))
    }

    /// Non-blocking take: `Just` the contents, or `Nothing` if empty.
    pub fn try_take(&self) -> Io<Option<T>> {
        Io::from_action(Action::TryTakeMVar(self.id))
    }

    /// Non-blocking put: `true` if the value was stored, `false` if full.
    pub fn try_put(&self, v: T) -> Io<bool> {
        Io::from_action(Action::TryPutMVar(self.id, v.into_value()))
    }

    /// Reinterprets the element type of the handle.
    ///
    /// Useful when a protocol stores differently-shaped values in one cell;
    /// a shape mismatch at `take` time panics with a conversion error.
    pub fn cast<U: FromValue + IntoValue + 'static>(&self) -> MVar<U> {
        MVar {
            id: self.id,
            marker: PhantomData,
        }
    }
}

impl<T: FromValue + IntoValue + 'static> FromValue for MVar<T> {
    fn from_value(v: Value) -> Option<Self> {
        read_copy(v, |v| v.as_mvar_id().map(MVar::from_id))
    }

    fn from_value_or_panic(v: Value) -> Self {
        read_copy_or_panic(v, |v| v.as_mvar_id().map(MVar::from_id))
    }
}

impl<T: FromValue + IntoValue + 'static> IntoValue for MVar<T> {
    fn into_value(self) -> Value {
        Value::MVar(self.id)
    }
}

/// The state of one `MVar` cell inside the runtime.
///
/// The threads blocked on the cell form one FIFO list linked through
/// the waiters themselves: the cell holds its ends, and each waiter's
/// [`StuckReason`](crate::thread::StuckReason) the link to the next one
/// (as GHC links a blocked `MVar`'s TSOs). Takers wait only while the
/// cell is empty and putters only while it is full, so the list holds
/// one kind at a time; a putter's value waits in its own code.
#[derive(Debug, Default)]
pub(crate) struct MVarCell {
    /// `Some(v)` when full.
    pub contents: Option<Value>,
    /// The longest-waiting thread, served first.
    pub first: Option<ThreadId>,
    /// The most recent waiter, which the next one links after.
    pub last: Option<ThreadId>,
}

impl MVarCell {
    /// An empty cell.
    pub(crate) fn empty() -> Self {
        MVarCell::default()
    }

    /// A full cell holding `v`.
    pub(crate) fn full(v: Value) -> Self {
        MVarCell {
            contents: Some(v),
            ..MVarCell::default()
        }
    }

    /// Drops the first waiter from the list: `next`, the thread linked
    /// behind it, becomes the first.
    pub(crate) fn unlink_first(&mut self, next: Option<ThreadId>) {
        self.first = next;
        if next.is_none() {
            self.last = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    #[test]
    fn handle_is_copy_and_eq() {
        let a: MVar<i64> = MVar::from_id(MVarId(1));
        let b = a;
        assert_eq!(a, b);
        let c: MVar<i64> = MVar::from_id(MVarId(2));
        assert_ne!(a, c);
    }

    #[test]
    fn new_mvar_starts_full() {
        let mut rt = Runtime::new();
        let prog = Io::new_mvar(7_i64).and_then(|m| m.take());
        assert_eq!(rt.run(prog).unwrap(), 7);
    }

    #[test]
    fn try_take_on_empty_is_nothing() {
        let mut rt = Runtime::new();
        let prog = Io::new_empty_mvar::<i64>().and_then(|m| m.try_take());
        assert_eq!(rt.run(prog).unwrap(), None);
    }

    #[test]
    fn try_take_on_full_takes() {
        let mut rt = Runtime::new();
        let prog = Io::new_mvar(5_i64).and_then(|m| {
            m.try_take()
                .and_then(move |v| m.try_take().map(move |w| (v, w)))
        });
        // Second try_take sees the now-empty box.
        let (first, second) = rt.run(prog).unwrap();
        assert_eq!(first, Some(5));
        assert_eq!(second, None);
    }

    #[test]
    fn try_put_respects_fullness() {
        let mut rt = Runtime::new();
        let prog = Io::new_empty_mvar::<i64>().and_then(|m| {
            m.try_put(1)
                .and_then(move |a| m.try_put(2).map(move |b| (a, b)))
        });
        assert_eq!(rt.run(prog).unwrap(), (true, false));
    }

    #[test]
    fn cast_reinterprets_element_type() {
        let mut rt = Runtime::new();
        let prog = Io::new_empty_mvar::<Value>().and_then(|m| {
            let typed: MVar<i64> = m.cast();
            typed.put(3).then(typed.take())
        });
        assert_eq!(rt.run(prog).unwrap(), 3);
    }
}
