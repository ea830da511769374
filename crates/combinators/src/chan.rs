//! Unbounded FIFO channels built from `MVar`s.
//!
//! §4 of the paper notes that "using only MVars, many complex datatypes
//! for concurrent communication can be built, including typed channels,
//! semaphores and so on". This is the classic Concurrent Haskell `Chan`:
//! a linked list of stream cells, with one `MVar` holding the read end
//! and one the write end.
//!
//! Each end is one `block`ed take→mutate→put with no `unblock` — the §7.4
//! shape for a structure that must never be seen mid-mutation
//! ([`crate::modify_mvar`] remains the §5.1 pattern for *user* code run
//! under a lock). An end's body fills or empties a second cell, so it is
//! spelled out here and not written as [`crate::modify_mvar_pure`], whose
//! body is pure. Two sentences of §5.3 make that kill-safe:
//!
//! * Interruptible operations "may receive asynchronous exceptions even
//!   within an enclosing block, but only while the resource is
//!   unavailable". The first take of an end waits while another thread
//!   holds it; a kill landing there finds nothing taken. In
//!   [`Chan::recv`] the take of an unfilled stream cell waits too, with
//!   the read end held: that one operation carries a handler, which puts
//!   the read end back and re-throws.
//! * "An interruptible operation cannot be interrupted if the resource
//!   ... is available": every `putMVar` here fills a cell only its own
//!   thread can fill — the end it just took, or the hole that only the
//!   holder of the write end can reach — so none can wait, none is a
//!   delivery point, and [`Chan::send`], [`Chan::try_recv`] and `recv`'s
//!   handler have nothing to undo.

use conch_runtime::host_value;
use conch_runtime::io::Io;
use conch_runtime::mvar::MVar;
use conch_runtime::value::{FromValue, IntoValue, Value};

/// A stream cell: empty until a sender fills it with an item and the
/// next cell (an `MVar<Value>` to be [`cast`](MVar::cast) — the type is
/// recursive).
type Cell<T> = MVar<(T, MVar<Value>)>;

/// An unbounded multi-producer multi-consumer FIFO channel.
///
/// # Examples
///
/// ```
/// use conch_runtime::prelude::*;
/// use conch_combinators::Chan;
///
/// let mut rt = Runtime::new();
/// let prog = Chan::<i64>::new().and_then(|ch| {
///     ch.send(1).then(ch.send(2)).then(ch.recv()).and_then(move |a| {
///         ch.recv().map(move |b| (a, b))
///     })
/// });
/// assert_eq!(rt.run(prog).unwrap(), (1, 2));
/// ```
pub struct Chan<T> {
    /// Holds the stream cell the next read will consume.
    read_end: MVar<Cell<T>>,
    /// Holds the (empty) stream cell the next write will fill.
    write_end: MVar<Cell<T>>,
}

impl<T> Clone for Chan<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Chan<T> {}

impl<T> PartialEq for Chan<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.read_end, self.write_end) == (other.read_end, other.write_end)
    }
}

host_value!(<T> Chan<T>);

impl<T> std::fmt::Debug for Chan<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Chan(read={:?}, write={:?})",
            self.read_end, self.write_end
        )
    }
}

impl<T: FromValue + IntoValue + 'static> Chan<T> {
    /// Creates an empty channel.
    pub fn new() -> Io<Chan<T>> {
        // hole <- newEmptyMVar; read <- newMVar hole; write <- newMVar hole
        Io::new_empty_mvar().and_then(|hole: Cell<T>| {
            Io::new_mvar(hole).and_then(move |read_end| {
                Io::new_mvar(hole).map(move |write_end| Chan {
                    read_end,
                    write_end,
                })
            })
        })
    }

    /// Appends a value to the channel. Never blocks indefinitely (the
    /// write-end `MVar` is only held for the duration of a write).
    pub fn send(&self, v: T) -> Io<()> {
        let write_end = self.write_end;
        Io::new_empty_mvar().and_then(move |new_hole: Cell<T>| {
            // Only the take can wait. The hole must be filled before the
            // write end reappears: the next sender fills `new_hole`, and
            // a reader must find this item in front of that one.
            Io::block(write_end.take().and_then(move |old_hole| {
                old_hole
                    .put((v, new_hole.cast()))
                    .then(write_end.put(new_hole))
            }))
        })
    }

    /// Removes and returns the channel's oldest value, blocking while the
    /// channel is empty.
    ///
    /// Blocking happens inside the stream-cell `takeMVar`, which is
    /// interruptible (§5.3); if an asynchronous exception arrives while
    /// waiting, the read end is restored and the channel stays usable.
    pub fn recv(&self) -> Io<T> {
        let read_end = self.read_end;
        Io::block(read_end.take().and_then(move |cell| {
            cell.take()
                .catch(move |e| read_end.put(cell).then(Io::throw(e)))
                .and_then(move |(v, next)| read_end.put(next.cast()).map(move |_| v))
        }))
    }

    /// Non-blocking receive: `Some(v)` if a value is ready.
    ///
    /// Puts the same stream cell back in the read end if the channel is
    /// empty, so it composes with concurrent senders. (Like `recv` it
    /// queues behind a reader that holds the read end.)
    pub fn try_recv(&self) -> Io<Option<T>> {
        let read_end = self.read_end;
        Io::block(read_end.take().and_then(move |cell| {
            cell.try_take().and_then(move |item| match item {
                None => read_end.put(cell).map(|_| None),
                Some((v, next)) => read_end.put(next.cast()).map(move |_| Some(v)),
            })
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locking::modify_mvar_with;
    use crate::timeout;
    use conch_explore::{ExploreConfig, Explorer, RunOutcome, TestCase};
    use conch_runtime::prelude::*;
    use proptest::prelude::*;

    #[test]
    fn fifo_order() {
        let mut rt = Runtime::new();
        let prog = Chan::<i64>::new().and_then(|ch| {
            ch.send(1)
                .then(ch.send(2))
                .then(ch.send(3))
                .then(conch_runtime::io::sequence(vec![
                    ch.recv(),
                    ch.recv(),
                    ch.recv(),
                ]))
        });
        assert_eq!(rt.run(prog).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn recv_blocks_until_send() {
        let mut rt = Runtime::new();
        let prog = Chan::<i64>::new()
            .and_then(|ch| Io::fork(Io::sleep(50).then(ch.send(9))).then(ch.recv()));
        assert_eq!(rt.run(prog).unwrap(), 9);
        assert!(rt.clock() >= 50);
    }

    #[test]
    fn crosses_thread_boundaries() {
        let mut rt = Runtime::new();
        // Producer and consumer threads; consumer reports sum via MVar.
        let prog = Chan::<i64>::new().and_then(|ch| {
            Io::new_empty_mvar::<i64>().and_then(move |result| {
                let producer = conch_runtime::io::for_each(10, move |i| ch.send(i as i64));
                fn consume(ch: Chan<i64>, n: u64, acc: i64, result: MVar<i64>) -> Io<()> {
                    if n == 0 {
                        result.put(acc)
                    } else {
                        ch.recv()
                            .and_then(move |v| consume(ch, n - 1, acc + v, result))
                    }
                }
                Io::fork(producer)
                    .then(Io::fork(consume(ch, 10, 0, result)))
                    .then(result.take())
                    .map(|sum| sum)
            })
        });
        assert_eq!(rt.run(prog).unwrap(), 45);
    }

    #[test]
    fn try_recv_on_empty_is_none() {
        let mut rt = Runtime::new();
        let prog = Chan::<i64>::new().and_then(|ch| ch.try_recv());
        assert_eq!(rt.run(prog).unwrap(), None);
    }

    #[test]
    fn try_recv_then_recv_consistent() {
        let mut rt = Runtime::new();
        let prog = Chan::<i64>::new().and_then(|ch| {
            ch.send(7)
                .then(ch.try_recv())
                .and_then(move |a| ch.send(8).then(ch.recv()).map(move |b| (a, b)))
        });
        assert_eq!(rt.run(prog).unwrap(), (Some(7), 8));
    }

    #[test]
    fn interrupted_reader_leaves_channel_usable() {
        let mut rt = Runtime::new();
        // A reader blocks on an empty channel and is killed; afterwards
        // the channel still delivers to a new reader.
        let prog = Chan::<i64>::new().and_then(|ch| {
            let doomed = ch.recv().map(|_| ()).catch(|_| Io::unit());
            Io::fork(doomed).and_then(move |reader| {
                Io::sleep(10)
                    .then(Io::throw_to(reader, Exception::kill_thread()))
                    .then(Io::sleep(10))
                    .then(ch.send(42))
                    .then(ch.recv())
            })
        });
        assert_eq!(rt.run(prog).unwrap(), 42);
    }

    #[test]
    fn timeout_recv_composes() {
        let mut rt = Runtime::new();
        let prog = Chan::<i64>::new().and_then(|ch| timeout(20, ch.recv()));
        assert_eq!(rt.run(prog).unwrap(), None);
    }

    #[test]
    fn value_round_trip() {
        let mut rt = Runtime::new();
        // A Chan can itself travel through an MVar (it is just a pair of
        // MVar references).
        let prog = Chan::<i64>::new().and_then(|ch| {
            Io::new_empty_mvar::<Chan<i64>>().and_then(move |carrier| {
                carrier
                    .put(ch)
                    .then(carrier.take())
                    .and_then(move |ch2| ch2.send(5).then(ch.recv()))
            })
        });
        assert_eq!(rt.run(prog).unwrap(), 5);
    }

    // Differential check against the channel this module used to be:
    // the same linked list with each end under `modify_mvar_with`.

    /// One implementation of the three operations over a [`Chan`]'s cells.
    trait Ends: 'static {
        fn send(ch: Chan<i64>, v: i64) -> Io<()>;
        fn recv(ch: Chan<i64>) -> Io<i64>;
        fn try_recv(ch: Chan<i64>) -> Io<Option<i64>>;
    }

    /// The module's own.
    struct Masked;

    impl Ends for Masked {
        fn send(ch: Chan<i64>, v: i64) -> Io<()> {
            ch.send(v)
        }
        fn recv(ch: Chan<i64>) -> Io<i64> {
            ch.recv()
        }
        fn try_recv(ch: Chan<i64>) -> Io<Option<i64>> {
            ch.try_recv()
        }
    }

    /// The reference: `unblock` around each end's body and a handler
    /// that rolls the end back. Sound only where this test takes it — a
    /// kill that finds the reader *waiting*; one landing just after the
    /// body's take or put rolls back an end whose cell has changed,
    /// which is why it was replaced.
    struct Reference;

    impl Ends for Reference {
        fn send(ch: Chan<i64>, v: i64) -> Io<()> {
            modify_mvar_with(ch.write_end, move |old_hole| {
                Io::new_empty_mvar().and_then(move |new_hole: Cell<i64>| {
                    old_hole
                        .put((v, new_hole.cast()))
                        .map(move |_| (new_hole, ()))
                })
            })
        }
        fn recv(ch: Chan<i64>) -> Io<i64> {
            modify_mvar_with(ch.read_end, |cell| {
                cell.take().map(|(v, next)| (next.cast(), v))
            })
        }
        fn try_recv(ch: Chan<i64>) -> Io<Option<i64>> {
            modify_mvar_with(ch.read_end, |cell| {
                cell.try_take().map(move |item| match item {
                    None => (cell, None),
                    Some((v, next)) => (next.cast(), Some(v)),
                })
            })
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Send,
        /// A `recv` that could wait for ever runs under a `timeout`.
        Recv {
            budget: u64,
        },
        TryRecv,
        /// Fork a reader, let it take an item or settle into its wait,
        /// kill it, and carry on with the same channel.
        KilledReader,
    }

    /// `script` on the main thread (item values 1, 2, …), returning one
    /// entry per receive — `Some(v)` or `None`, a killed reader's in
    /// arrival order — followed by the channel's final contents.
    fn observe<E: Ends>(script: Vec<Op>) -> Io<Vec<Option<i64>>> {
        fn step<E: Ends>(ch: Chan<i64>, log: MVar<Vec<Option<i64>>>, op: Op, sent: i64) -> Io<()> {
            let note = move |r: Option<i64>| {
                log.take().and_then(move |mut seen| {
                    seen.push(r);
                    log.put(seen)
                })
            };
            match op {
                Op::Send => E::send(ch, sent),
                Op::Recv { budget } => timeout(budget, E::recv(ch)).and_then(note),
                Op::TryRecv => E::try_recv(ch).and_then(note),
                Op::KilledReader => {
                    let reader = Io::block(E::recv(ch).and_then(move |v| note(Some(v))));
                    Io::fork(reader.catch(|_| Io::unit())).and_then(|reader| {
                        Io::sleep(1)
                            .then(Io::throw_to(reader, Exception::kill_thread()))
                            .then(Io::sleep(1))
                    })
                }
            }
        }
        fn drain<E: Ends>(ch: Chan<i64>, mut seen: Vec<Option<i64>>) -> Io<Vec<Option<i64>>> {
            E::try_recv(ch).and_then(move |item| match item {
                None => Io::pure(seen),
                Some(v) => {
                    seen.push(Some(v));
                    drain::<E>(ch, seen)
                }
            })
        }
        Chan::new().and_then(move |ch| {
            Io::new_mvar(Vec::new()).and_then(move |log| {
                let (mut run, mut sent) = (Io::unit(), 0);
                for op in script {
                    sent += i64::from(matches!(op, Op::Send));
                    run = run.then(step::<E>(ch, log, op, sent));
                }
                run.then(log.take())
                    .and_then(move |seen| drain::<E>(ch, seen))
            })
        })
    }

    /// Checks that `E` observes exactly `expected` on 16 PCT-sampled
    /// schedules of `script`, delivery points of its kills and timeouts
    /// included. A script's space is too wide to enumerate: a script of
    /// 21 operations passes more than 64 branch points on every
    /// schedule.
    fn observes_on_sampled_schedules<E: Ends>(script: &[Op], expected: &[Option<i64>]) {
        let explorer = Explorer::with_config(ExploreConfig {
            max_schedules: 16,
            max_depth: 256,
            strategy: conch_explore::Strategy::Pct { depth: 3, seed: 5 },
            ..ExploreConfig::default()
        });
        let result = explorer.check(|| {
            let expected = expected.to_vec();
            TestCase::new(
                observe::<E>(script.to_vec()),
                move |out: &RunOutcome<_>| match &out.result {
                    Ok(seen) if *seen == expected => Ok(()),
                    other => Err(format!("observed {other:?}, expected {expected:?}")),
                },
            )
        });
        assert_eq!(result.expect_pass().explored, 16, "{script:?}");
    }

    proptest! {
        #[test]
        fn handle_round_trips_as_a_host_value(r in any::<u64>(), w in any::<u64>()) {
            use conch_runtime::ids::MVarId;
            let end = |id| MVar::from_id(MVarId::from_index(id));
            let ch: Chan<i64> = Chan { read_end: end(r), write_end: end(w) };
            prop_assert_eq!(Chan::<i64>::from_value(ch.into_value()), Some(ch));
            // The element type belongs to the handle's type.
            prop_assert_eq!(Chan::<String>::from_value(ch.into_value()), None);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        #[test]
        fn agrees_with_the_modify_mvar_channel(
            script in prop::collection::vec(
                prop_oneof![
                    Just(Op::Send),
                    Just(Op::Send),
                    (1u64..40).prop_map(|budget| Op::Recv { budget }),
                    Just(Op::TryRecv),
                    Just(Op::KilledReader),
                ],
                0..24,
            ),
        ) {
            let sent = script.iter().filter(|op| matches!(op, Op::Send)).count();
            let new = Runtime::new()
                .run(observe::<Masked>(script.clone()))
                .expect("a script never leaves main waiting for ever");
            // Both ends observe the same, whatever the schedule.
            observes_on_sampled_schedules::<Masked>(&script, &new);
            observes_on_sampled_schedules::<Reference>(&script, &new);
            // And that is a FIFO: every item, once, in the order sent.
            let items: Vec<i64> = new.into_iter().flatten().collect();
            prop_assert_eq!(items, (1..=sent as i64).collect::<Vec<_>>(), "{:?}", script);
        }
    }
}
