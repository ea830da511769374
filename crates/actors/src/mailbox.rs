//! Typed bounded mailboxes.
//!
//! A [`Mailbox<M>`] is the actor layer's message queue: a bounded FIFO
//! whose *entire* state — queue contents and capacity — lives in one
//! `MVar`, manipulated only by §7.4 masked take→mutate→put
//! transactions ([`modify_mvar_pure`]). That single-cell design is what
//! makes the mailbox kill-safe:
//!
//! * **No separate capacity tokens.** A semaphore-based bound would
//!   leak a slot whenever an asynchronous exception tears down a
//!   sender between "token taken" and "message enqueued". Here free
//!   space *is* `capacity - queue.len()`, so a killed sender or
//!   receiver cannot strand capacity: either its transaction committed
//!   or the state is untouched.
//! * **The masked take→deliver window.** [`Mailbox::recv`] wraps the
//!   dequeue transaction *and* the continuation that hands the message
//!   to the caller in one `block` section. Once the transaction pops
//!   the message there is no interruptible point left before `recv`
//!   returns, so an asynchronous exception can only land while the
//!   receiver is still *waiting* — before anything was dequeued.
//!   `tests/explore_actors.rs` builds the pre-fix shape from
//!   [`Mailbox::try_recv`] (dequeue, then an unmasked step, then
//!   return) so the schedule explorer can exhibit the lost-message
//!   interleaving the fix closes, and proves `recv` has no such
//!   schedule.
//!
//! Waiting is by polling: a full `send` / empty `recv` sleeps
//! [`POLL_INTERVAL`] virtual microseconds and retries. Polling costs
//! nothing in virtual time (the clock only advances when every thread
//! is blocked) and dodges the abandoned-waiter-cell pathologies of
//! real wait queues under `KillThread` storms; the trade-off is that a
//! sleeping poller holds no claim at all, so a kill landing in the
//! sleep loses neither messages nor capacity.

use std::collections::VecDeque;
use std::marker::PhantomData;

use conch_combinators::modify_mvar_pure;
use conch_runtime::exception::ExceptionKind;
use conch_runtime::host_value;
use conch_runtime::io::Io;
use conch_runtime::mvar::MVar;
use conch_runtime::value::{FromValue, IntoValue, Value};

use crate::actor::Signal;

/// Virtual microseconds between polls of a full (send) or empty
/// (recv) mailbox. Large relative to a scheduler step so explored
/// programs spend few branch points idling, irrelevant to wall time.
pub const POLL_INTERVAL: u64 = 25;

/// A bounded multi-producer multi-consumer FIFO mailbox carrying
/// messages of type `M`.
///
/// Copyable like `Chan`: the handle is one `MVar` reference plus a
/// phantom type, so actors, supervisors and fault injectors can all
/// hold the same mailbox.
///
/// # Examples
///
/// ```
/// use conch_runtime::prelude::*;
/// use conch_actors::Mailbox;
///
/// let mut rt = Runtime::new();
/// let prog = Mailbox::<i64>::new(2).and_then(|mb| {
///     mb.send(1)
///         .then(mb.try_send(2))
///         .then(mb.try_send(3)) // full: rejected, not blocked
///         .and_then(move |fit| mb.recv().map(move |a| (a, fit)))
/// });
/// assert_eq!(rt.run(prog).unwrap(), (1, false));
/// ```
pub struct Mailbox<M> {
    state: MVar<MailboxState>,
    marker: PhantomData<fn(M) -> M>,
}

impl<M> Clone for Mailbox<M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for Mailbox<M> {}

impl<M> std::fmt::Debug for Mailbox<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Mailbox({:?})", self.state)
    }
}

impl<M> PartialEq for Mailbox<M> {
    fn eq(&self, other: &Self) -> bool {
        self.state == other.state
    }
}

/// The whole mailbox state. Messages are queued as `Value`s: the
/// message type belongs to the handle, which [`Mailbox::cast`] can
/// reinterpret.
#[derive(Debug, Clone, PartialEq)]
struct MailboxState {
    queue: VecDeque<Value>,
    capacity: i64,
}

host_value!(MailboxState);
host_value!(<M> Mailbox<M>);

impl MailboxState {
    /// Pushes `v` if there is room; a full mailbox hands it back.
    fn offer(&mut self, v: Value) -> Option<Value> {
        if self.free_slots() > 0 {
            self.queue.push_back(v);
            None
        } else {
            Some(v)
        }
    }

    fn free_slots(&self) -> i64 {
        self.capacity - self.queue.len() as i64
    }
}

fn send_loop(state: MVar<MailboxState>, v: Value) -> Io<()> {
    modify_mvar_pure(state, move |st| st.offer(v)).and_then(move |rejected| match rejected {
        None => Io::unit(),
        Some(v) => Io::sleep(POLL_INTERVAL).then(send_loop(state, v)),
    })
}

fn recv_loop(state: MVar<MailboxState>) -> Io<Value> {
    modify_mvar_pure(state, |st| st.queue.pop_front()).and_then(move |got| match got {
        Some(v) => Io::pure(v),
        None => Io::sleep(POLL_INTERVAL).then(recv_loop(state)),
    })
}

impl<M: FromValue + IntoValue + 'static> Mailbox<M> {
    /// Creates a mailbox holding at most `capacity` messages
    /// (clamped to at least 1).
    pub fn new(capacity: i64) -> Io<Mailbox<M>> {
        let empty = MailboxState {
            queue: VecDeque::new(),
            capacity: capacity.max(1),
        };
        Io::new_mvar(empty).map(|state| Mailbox {
            state,
            marker: PhantomData,
        })
    }

    /// Enqueues `m`, waiting while the mailbox is full — the
    /// backpressure edge. The commit is a single masked transaction,
    /// so a kill landing mid-`send` either left the message out
    /// entirely or delivered it entirely.
    pub fn send(&self, m: M) -> Io<()> {
        send_loop(self.state, m.into_value())
    }

    /// Enqueues `m` if there is room, never waiting. Returns whether
    /// the message was accepted — `false` is the signal to shed load.
    pub fn try_send(&self, m: M) -> Io<bool> {
        let v = m.into_value();
        modify_mvar_pure(self.state, move |st| st.offer(v).is_none())
    }

    /// Dequeues the oldest message, waiting while the mailbox is
    /// empty.
    ///
    /// The whole of `recv` — dequeue transaction *and* the hand-off of
    /// the message to the caller — runs inside one `block` section:
    /// the masked take→deliver window. An asynchronous exception can
    /// only land while the receiver still waits (transaction take
    /// blocked, or sleeping between polls), in which case the message
    /// is still in the mailbox. A caller that must also protect the
    /// first step of *processing* runs `recv().and_then(handle)` under
    /// its own mask, as the actor shell does.
    pub fn recv(&self) -> Io<M> {
        Io::block(recv_loop(self.state)).map(M::from_value_or_panic)
    }

    /// Dequeues the oldest message if there is one, never waiting.
    pub fn try_recv(&self) -> Io<Option<M>> {
        modify_mvar_pure(self.state, |st| st.queue.pop_front())
            .map(|got: Option<Value>| got.map(M::from_value_or_panic))
    }

    /// Like [`recv`](Self::recv), but converts an
    /// [`ExitSignal`](conch_runtime::exception::ExceptionKind::ExitSignal)
    /// landing while this receiver waits into a [`Signal::Exit`]
    /// message — the trap-exit mode. The conversion is sound because
    /// actors run masked (see `spawn_actor`): the signal can only be
    /// delivered at `recv`'s interruptible points, all of which are
    /// inside this catch. `KillThread` is not trapped; like Erlang's
    /// `exit(Pid, kill)` it always terminates.
    pub fn recv_trapping(&self) -> Io<Signal<M>> {
        Io::block(recv_loop(self.state))
            .map(|v| Signal::Msg(M::from_value_or_panic(v)))
            .catch(|e| {
                if let ExceptionKind::ExitSignal { from, reason } = e.kind() {
                    let (from, reason) = (*from, (**reason).clone());
                    Io::pure(Signal::Exit { from, reason })
                } else {
                    Io::throw(e)
                }
            })
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> Io<i64> {
        modify_mvar_pure(self.state, |st| st.queue.len() as i64)
    }

    /// Remaining room: `capacity - len`. Mailbox-slot conservation is
    /// `len + free_slots == capacity` — which this representation makes
    /// unfalsifiable by kills, exactly the point.
    pub fn free_slots(&self) -> Io<i64> {
        modify_mvar_pure(self.state, |st| st.free_slots())
    }

    /// Reinterprets the message type. The queue is dynamically typed
    /// underneath; use for erasing to `Mailbox<Value>` or for shared
    /// work queues consumed by actors of a narrower type.
    pub(crate) fn cast<U: FromValue + IntoValue + 'static>(&self) -> Mailbox<U> {
        Mailbox {
            state: self.state,
            marker: PhantomData,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conch_runtime::scheduler::Runtime;

    fn run<T: FromValue + IntoValue + 'static>(io: Io<T>) -> T {
        Runtime::new().run(io).unwrap()
    }

    #[test]
    fn fifo_order() {
        let got = run(Mailbox::<i64>::new(4).and_then(|mb| {
            mb.send(1)
                .then(mb.send(2))
                .then(mb.send(3))
                .then(mb.recv())
                .and_then(move |a| {
                    mb.recv()
                        .and_then(move |b| mb.recv().map(move |c| vec![a, b, c]))
                })
        }));
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn try_send_respects_capacity() {
        let got = run(Mailbox::<i64>::new(2).and_then(|mb| {
            mb.try_send(1).and_then(move |a| {
                mb.try_send(2).and_then(move |b| {
                    mb.try_send(3)
                        .and_then(move |c| mb.len().map(move |n| (a, b, c, n)))
                })
            })
        }));
        assert_eq!(got, (true, true, false, 2));
    }

    #[test]
    fn send_blocks_until_room() {
        // A full mailbox delays the sender until the consumer makes room.
        let got = run(Mailbox::<i64>::new(1).and_then(|mb| {
            mb.send(10).then(Io::fork(mb.send(20))).then(
                // Main drains both; the forked sender can only finish
                // after the first recv frees the slot.
                mb.recv().and_then(move |a| mb.recv().map(move |b| a + b)),
            )
        }));
        assert_eq!(got, 30);
    }

    #[test]
    fn try_recv_empty_is_none() {
        let got = run(Mailbox::<i64>::new(1).and_then(|mb| {
            mb.try_recv()
                .and_then(move |x| mb.free_slots().map(move |f| (x, f)))
        }));
        assert_eq!(got, (None, 1));
    }

    #[test]
    fn conservation_across_operations() {
        let got = run(Mailbox::<i64>::new(3).and_then(|mb| {
            mb.send(1).then(mb.send(2)).then(
                mb.len()
                    .and_then(move |n| mb.free_slots().map(move |f| (n, f))),
            )
        }));
        assert_eq!(got.0 + got.1, 3);
    }

    #[test]
    fn value_round_trip() {
        let got = run(Mailbox::<i64>::new(2).and_then(|mb| {
            let v = mb.into_value();
            let same = Mailbox::<i64>::from_value(v).unwrap();
            same.send(9).then(mb.recv())
        }));
        assert_eq!(got, 9);
    }
}
