//! Actors: a mailbox, a thread, and an exit protocol.
//!
//! [`spawn_actor`] forks a thread whose body runs inside a *shell*
//! that implements the Erlang exit protocol on the paper's
//! primitives:
//!
//! * The shell runs **masked** (`block`), so asynchronous exceptions —
//!   `KillThread` from a supervisor or storm, `ExitSignal` from a
//!   linked peer — land only at interruptible points: mailbox waits,
//!   sleeps, blocked takes. This is the §7.4 discipline that lets the
//!   exit bookkeeping below run to completion on *every* termination
//!   path, the role `bracket` plays for scalar acquire/release.
//! * On any exit — normal return, synchronous crash, asynchronous
//!   kill — the shell classifies an [`ExitReason`], atomically marks
//!   the actor's control cell dead (taking the registered peer list
//!   *exactly once*), then notifies: linked peers get
//!   `throwTo(ExitSignal)` on abnormal exits, monitors get a [`Down`]
//!   message on every exit. Finally the original exception (if any) is
//!   re-raised with its original origin, so the runtime's (Throw GC)
//!   accounting and exit-reason counters see the true cause of death.
//! * Registration races are settled by the control cell: [`link`] /
//!   [`monitor`] against an already-dead actor observe the recorded
//!   reason and deliver immediately — never zero times, never twice.
//!
//! Trap-exits: an actor that wants to *observe* peer deaths instead
//! of dying with them masks (which the shell already provides) and
//! receives with [`Mailbox::recv_trapping`], which converts an
//! `ExitSignal` landing at the wait into a [`Signal::Exit`] message.

use conch_combinators::{modify_mvar_pure, retry_interrupted};
use conch_runtime::exception::{Exception, ExitReason};
use conch_runtime::host_value;
use conch_runtime::ids::ThreadId;
use conch_runtime::io::Io;
use conch_runtime::mvar::MVar;
use conch_runtime::value::{FromValue, IntoValue, Value};
use conch_runtime::RaiseOrigin;

use crate::mailbox::Mailbox;

/// A monitor notification: the actor spawned as thread `from`
/// terminated with `reason`; `mref` is the reference the watcher chose
/// at [`monitor`] time (supervisors use the child's spec index).
#[derive(Debug, Clone, PartialEq)]
pub struct Down {
    /// Watcher-chosen monitor reference.
    pub mref: i64,
    /// Spawn sequence number of the dead actor's thread.
    pub from: u64,
    /// Why it died.
    pub reason: ExitReason,
}

host_value!(Down);

/// What a trapping receive yields: an ordinary message, or a trapped
/// exit signal from a linked peer (see [`Mailbox::recv_trapping`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Signal<M> {
    /// An ordinary mailbox message.
    Msg(M),
    /// A trapped `ExitSignal`.
    Exit {
        /// Spawn sequence number of the dead peer.
        from: u64,
        /// Why it died.
        reason: ExitReason,
    },
}

impl<M: IntoValue> IntoValue for Signal<M> {
    fn into_value(self) -> Value {
        match self {
            Signal::Msg(m) => Value::Left(Box::new(m.into_value())),
            Signal::Exit { from, reason } => Value::Right(Box::new(Value::Pair(
                Box::new(Value::Int(from as i64)),
                Box::new(reason.into_value()),
            ))),
        }
    }
}

impl<M: FromValue> FromValue for Signal<M> {
    fn from_value(v: Value) -> Option<Self> {
        match v {
            Value::Left(m) => Some(Signal::Msg(M::from_value(*m)?)),
            Value::Right(p) => match *p {
                Value::Pair(from, reason) => Some(Signal::Exit {
                    from: from.as_int()? as u64,
                    reason: ExitReason::from_value(*reason)?,
                }),
                _ => None,
            },
            _ => None,
        }
    }
}

/// A handle on a running (or dead) actor: its thread, its mailbox and
/// its control cell. Copyable; stale handles are harmless — `throwTo`
/// at a retired thread slot is a no-op, and the control cell remembers
/// the exit reason forever.
pub struct ActorRef<M> {
    tid: ThreadId,
    mailbox: Mailbox<M>,
    ctl: MVar<Ctl>,
}

impl<M> Clone for ActorRef<M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for ActorRef<M> {}

impl<M> std::fmt::Debug for ActorRef<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ActorRef({})", self.tid)
    }
}

impl<M> PartialEq for ActorRef<M> {
    fn eq(&self, other: &Self) -> bool {
        (self.tid, self.mailbox, self.ctl) == (other.tid, other.mailbox, other.ctl)
    }
}

host_value!(<M> ActorRef<M>);

/// What an actor's control cell holds.
#[derive(Debug, Clone, PartialEq)]
enum Ctl {
    /// The registered links and monitors of a live actor.
    Alive(Vec<Entry>),
    Dead(ExitReason),
}

host_value!(Ctl);

/// One registered peer of an actor.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Entry {
    Link(ThreadId),
    Monitor { mref: i64, watcher: Mailbox<Down> },
}

/// Registers `entry` in `ctl` if the actor is alive; otherwise returns
/// the recorded exit reason so the caller can deliver immediately.
/// Registered-or-immediate is exclusive, which is where "monitors fire
/// exactly once" comes from even when registration races death.
fn add_entry(ctl: MVar<Ctl>, entry: Entry) -> Io<Option<ExitReason>> {
    modify_mvar_pure(ctl, move |state| match state {
        Ctl::Alive(entries) => {
            entries.push(entry);
            None
        }
        Ctl::Dead(reason) => Some(reason.clone()),
    })
}

/// Marks the actor dead and returns the state that was there: `Alive`
/// with the peers to notify — or `Dead`, if some earlier exit already
/// claimed them. The single transaction is the exactly-once source for
/// every notification.
fn claim_entries(ctl: MVar<Ctl>, reason: ExitReason) -> Io<Ctl> {
    modify_mvar_pure(ctl, move |state| match state {
        Ctl::Alive(_) => std::mem::replace(state, Ctl::Dead(reason)),
        Ctl::Dead(_) => state.clone(),
    })
}

/// Delivers one death notice, retrying on interruption
/// ([`retry_interrupted`]): the commit inside (a `throwTo`, or a
/// mailbox-send transaction) can only be aborted *before* it happens,
/// so the retry never double-delivers. A dying actor absorbs further
/// kills here — killing the already-dying is a no-op, as in Erlang.
fn deliver_one(entry: Entry, me: u64, reason: ExitReason) -> Io<()> {
    retry_interrupted(move || {
        let reason = reason.clone();
        match entry {
            Entry::Link(peer) if reason.is_abnormal() => {
                Io::throw_to(peer, Exception::exit_signal(me, reason))
            }
            // Erlang: 'normal' exit signals do not disturb links.
            Entry::Link(_) => Io::unit(),
            Entry::Monitor { mref, watcher } => watcher.send(Down {
                mref,
                from: me,
                reason,
            }),
        }
    })
}

fn deliver_all(mut entries: Vec<Entry>, me: u64, reason: ExitReason) -> Io<()> {
    match entries.pop() {
        None => Io::unit(),
        Some(e) => {
            let r = reason.clone();
            deliver_one(e, me, r).then(deliver_all(entries, me, reason))
        }
    }
}

/// The exit path: claim the peer list (exactly once) and notify
/// everyone. Runs masked — the shell is inside `block`, and every
/// blocking step on this path is either retried (`deliver_one`) or
/// pre-commit-abortable (`claim_entries`' take).
fn notify_exit(ctl: MVar<Ctl>, me: u64, reason: ExitReason) -> Io<()> {
    claim_entries(ctl, reason.clone()).and_then(move |claimed| match claimed {
        Ctl::Alive(entries) => deliver_all(entries, me, reason),
        Ctl::Dead(_) => Io::unit(),
    })
}

fn classify(e: &Exception, origin: RaiseOrigin) -> ExitReason {
    if origin == RaiseOrigin::Async && e.is_kill_thread() {
        ExitReason::Killed
    } else {
        ExitReason::Crashed(Box::new(e.clone()))
    }
}

/// The shell wrapped around every actor body (see module docs).
fn actor_shell(ctl: MVar<Ctl>, body: Io<()>) -> Io<()> {
    Io::block(Io::my_thread_id().and_then(move |me| {
        body.map(|_| (ExitReason::Normal, None))
            .catch_info(|e, origin| {
                let reason = classify(&e, origin);
                let is_async = origin == RaiseOrigin::Async;
                Io::pure((reason, Some((e, is_async))))
            })
            .and_then(
                move |(reason, rethrow): (ExitReason, Option<(Exception, bool)>)| {
                    notify_exit(ctl, me.index(), reason).then(match rethrow {
                        None => Io::unit(),
                        Some((e, true)) => Io::rethrow(e, RaiseOrigin::Async),
                        Some((e, false)) => Io::rethrow(e, RaiseOrigin::Sync),
                    })
                },
            )
    }))
}

/// Spawns an actor with a fresh mailbox of the given capacity. The
/// body runs masked (see module docs); exceptions land only at its
/// interruptible points, mailbox waits above all.
pub fn spawn_actor<M, F>(capacity: i64, body: F) -> Io<ActorRef<M>>
where
    M: FromValue + IntoValue + 'static,
    F: FnOnce(Mailbox<M>) -> Io<()> + 'static,
{
    Mailbox::new(capacity).and_then(move |mb| spawn_actor_on(mb, body))
}

/// Spawns an actor consuming an existing mailbox — the shape shared
/// work queues use (several pool workers, one queue), and the shape
/// supervisors use to give a restarted child its predecessor's
/// unconsumed messages.
pub fn spawn_actor_on<M, F>(mb: Mailbox<M>, body: F) -> Io<ActorRef<M>>
where
    M: FromValue + IntoValue + 'static,
    F: FnOnce(Mailbox<M>) -> Io<()> + 'static,
{
    Io::new_mvar(Ctl::Alive(Vec::new())).and_then(move |ctl| {
        // Fork under `block` so the child *inherits* the mask: a kill
        // aimed at a freshly spawned actor is deferred until the body's
        // first interruptible point, by which time the shell's exit
        // bookkeeping is installed. Without this, a fast kill could land
        // before the shell's own `block` executes and the actor would
        // die without ever marking its control cell.
        Io::block(Io::fork(actor_shell(ctl, body(mb)))).map(move |tid| ActorRef {
            tid,
            mailbox: mb,
            ctl,
        })
    })
}

/// Links two actors: if either dies abnormally, the other receives an
/// `ExitSignal` via `throwTo` — death by default, a [`Signal::Exit`]
/// message if the survivor traps. If one is already dead with an
/// abnormal reason, the signal is delivered to the other immediately.
pub fn link<A, B>(a: &ActorRef<A>, b: &ActorRef<B>) -> Io<()> {
    let (ta, tb) = (a.tid, b.tid);
    let (ca, cb) = (a.ctl, b.ctl);
    add_entry(ca, Entry::Link(tb)).and_then(move |a_dead| {
        add_entry(cb, Entry::Link(ta)).and_then(move |b_dead| {
            let signal_b = match a_dead {
                Some(r) if r.is_abnormal() => {
                    Io::throw_to(tb, Exception::exit_signal(ta.index(), r))
                }
                _ => Io::unit(),
            };
            let signal_a = match b_dead {
                Some(r) if r.is_abnormal() => {
                    Io::throw_to(ta, Exception::exit_signal(tb.index(), r))
                }
                _ => Io::unit(),
            };
            signal_b.then(signal_a)
        })
    })
}

/// Registers `watcher` to receive a [`Down`] message (tagged `mref`)
/// when `target` dies — immediately, if it already has. Fires exactly
/// once per monitor call, on every schedule: registration and death
/// race through the same control-cell transaction.
pub fn monitor<A>(target: &ActorRef<A>, watcher: Mailbox<Down>, mref: i64) -> Io<()> {
    let (tid, ctl) = (target.tid, target.ctl);
    let entry = Entry::Monitor { mref, watcher };
    add_entry(ctl, entry).and_then(move |already| match already {
        None => Io::unit(),
        Some(reason) => deliver_one(entry, tid.index(), reason),
    })
}

impl<M: FromValue + IntoValue + 'static> ActorRef<M> {
    /// The actor's thread id.
    pub fn tid(&self) -> ThreadId {
        self.tid
    }

    /// Enqueues a message for this actor (blocking backpressure).
    pub fn send(&self, m: M) -> Io<()> {
        self.mailbox.send(m)
    }

    /// Waits for the actor's exit and returns its reason: a [`monitor`]
    /// into a fresh one-slot mailbox, then one blocking `recv`. The
    /// `Down` is sent once the shell has *committed* the exit, so an
    /// actor that never exits leaves its joiner blocked — a deadlock the
    /// runtime names — not polling.
    pub fn join(&self) -> Io<ExitReason> {
        let me = *self;
        Mailbox::<Down>::new(1).and_then(move |watcher| {
            monitor(&me, watcher, 0)
                .then(watcher.recv())
                .map(|down| down.reason)
        })
    }

    /// Sends the untrappable `KillThread` with the §9 synchronous
    /// `throwTo`: returns once the exception is delivered (or the actor
    /// is already gone).
    pub fn kill_sync(&self) -> Io<()> {
        Io::throw_to_sync(self.tid, Exception::kill_thread())
    }

    /// Erases the message type, for heterogeneous child lists.
    pub fn erase(&self) -> ActorRef<Value> {
        ActorRef {
            tid: self.tid,
            mailbox: self.mailbox.cast(),
            ctl: self.ctl,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conch_runtime::scheduler::Runtime;
    use proptest::prelude::*;

    fn run<T: FromValue + IntoValue + 'static>(io: Io<T>) -> T {
        Runtime::new().run(io).unwrap()
    }

    proptest! {
        #[test]
        fn down_round_trips_as_a_host_value(
            mref in any::<i64>(),
            from in any::<u64>(),
            reason in prop_oneof![
                Just(ExitReason::Normal),
                Just(ExitReason::Killed),
                any::<u64>().prop_map(|n| {
                    ExitReason::Crashed(Box::new(Exception::error_call(format!("crash {n}"))))
                }),
            ],
        ) {
            let down = Down { mref, from, reason };
            prop_assert_eq!(Down::from_value(down.clone().into_value()), Some(down));
        }
    }

    #[test]
    fn handles_round_trip_as_host_values_and_keep_their_message_type() {
        let (a, v) =
            run(spawn_actor(1, |_mb: Mailbox<i64>| Io::unit()).map(|a| (a, a.into_value())));
        assert_eq!(ActorRef::<i64>::from_value(v.clone()), Some(a));
        assert_eq!(ActorRef::<Value>::from_value(v), None);
        assert_eq!(
            ActorRef::<Value>::from_value(a.erase().into_value()),
            Some(a.erase())
        );
    }

    #[test]
    fn normal_exit_records_reason() {
        let got = run(spawn_actor(1, |_mb: Mailbox<i64>| Io::unit()).and_then(|a| a.join()));
        assert_eq!(got, ExitReason::Normal);
    }

    #[test]
    fn crash_records_exception() {
        let got = run(spawn_actor(1, |_mb: Mailbox<i64>| {
            Io::throw(Exception::error_call("boom"))
        })
        .and_then(|a| a.join()));
        assert_eq!(
            got,
            ExitReason::Crashed(Box::new(Exception::error_call("boom")))
        );
    }

    #[test]
    fn kill_records_killed() {
        let got = run(spawn_actor(1, |mb: Mailbox<i64>| mb.recv().map(|_| ()))
            .and_then(|a| a.kill_sync().then(a.join())));
        assert_eq!(got, ExitReason::Killed);
    }

    #[test]
    fn monitor_fires_on_crash() {
        let got = run(Mailbox::<Down>::new(2).and_then(|watcher| {
            spawn_actor(1, |mb: Mailbox<i64>| {
                mb.recv().then(Io::throw(Exception::error_call("die")))
            })
            .and_then(move |a| {
                monitor(&a, watcher, 42)
                    .then(a.send(0))
                    .then(watcher.recv())
            })
        }));
        assert_eq!(got.mref, 42);
        assert!(got.reason.is_abnormal());
    }

    #[test]
    fn monitor_on_already_dead_actor_fires_immediately() {
        let got = run(Mailbox::<Down>::new(2).and_then(|watcher| {
            spawn_actor(1, |_mb: Mailbox<i64>| Io::unit()).and_then(move |a| {
                // Wait until the exit has committed, then register.
                a.join().then(monitor(&a, watcher, 7)).then(watcher.recv())
            })
        }));
        assert_eq!(
            got,
            Down {
                mref: 7,
                from: got.from,
                reason: ExitReason::Normal
            }
        );
    }

    #[test]
    fn link_kills_non_trapping_peer() {
        // b waits forever; when a crashes, the exit signal cascades.
        let got = run(
            spawn_actor(1, |mb: Mailbox<i64>| mb.recv().map(|_| ())).and_then(|b| {
                spawn_actor(1, |_mb: Mailbox<i64>| {
                    Io::throw(Exception::error_call("crash"))
                })
                .and_then(move |a| link(&a, &b).then(b.join()))
            }),
        );
        match got {
            ExitReason::Crashed(e) => assert!(e.is_exit_signal()),
            other => panic!("expected crashed-by-signal, got {other:?}"),
        }
    }

    #[test]
    fn trapping_peer_survives_and_observes() {
        let got = run(spawn_actor(2, |mb: Mailbox<i64>| {
            // Trap: convert the incoming exit signal into a message and
            // report its reason tag on our own mailbox... instead we
            // just exit normally after observing it.
            mb.recv_trapping().map(|sig| {
                assert!(matches!(sig, Signal::Exit { .. }));
            })
        })
        .and_then(|b| {
            spawn_actor(1, |_mb: Mailbox<i64>| Io::throw(Exception::error_call("x")))
                .and_then(move |a| link(&a, &b).then(b.join()))
        }));
        // The trapping actor observed the signal and finished normally.
        assert_eq!(got, ExitReason::Normal);
    }

    #[test]
    fn normal_exit_does_not_signal_links() {
        let got = run(
            spawn_actor(1, |mb: Mailbox<i64>| mb.recv().map(|_| ())).and_then(|b| {
                spawn_actor(1, |_mb: Mailbox<i64>| Io::unit()).and_then(move |a| {
                    link(&a, &b)
                        .then(a.join())
                        // b must still be alive and serviceable.
                        .then(b.send(1))
                        .then(b.join())
                })
            }),
        );
        assert_eq!(got, ExitReason::Normal);
    }
}
