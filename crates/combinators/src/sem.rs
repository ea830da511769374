//! Counting semaphores built from `MVar`s (§4: "using only MVars, many
//! complex datatypes for concurrent communication can be built,
//! including typed channels, semaphores and so on").
//!
//! The representation is the classic Concurrent Haskell `QSem`: an
//! `MVar` holding the available count and a wake-up queue that carries
//! one empty `MVar` per blocked waiter. Every operation is one masked
//! section over that cell with no `unblock` (§7.4), so by §5.3 an
//! asynchronous exception can land only where a section *waits*:
//!
//! * on the first take of the state cell, held by another thread — and
//!   then nothing was taken, the operation did not happen;
//! * in [`Sem::wait`], on the take of the waiter's own wakeup cell,
//!   with the state cell already released. That take carries the
//!   module's one handler, which leaves the queue — or, if a `signal`
//!   got to the cell first, passes the unit it granted on to the next
//!   waiter — and re-throws.
//!
//! [`Sem::signal`]'s put into the cell it de-queued happens *inside*
//! its section: the cell is empty by construction, so the put cannot
//! wait, and no kill can separate the de-queue from the wake-up. Hence
//! a waiter that is timed out or killed loses no unit, and a killed
//! signaller strands no waiter (`tests/dpor_equiv.rs`,
//! `corpus_sem_under_kill`, kills both at every step).

use std::collections::VecDeque;

use conch_runtime::host_value;
use conch_runtime::io::Io;
use conch_runtime::mvar::MVar;
use conch_runtime::value::{FromValue, IntoValue};

use crate::locking::{modify_mvar_pure, retry_interrupted};

/// A counting semaphore.
///
/// # Examples
///
/// ```
/// use conch_runtime::prelude::*;
/// use conch_combinators::Sem;
///
/// let mut rt = Runtime::new();
/// let prog = Sem::new(2).and_then(|sem| {
///     sem.wait().then(sem.wait()).then(sem.try_wait())
/// });
/// // Two units acquired; the third attempt fails.
/// assert_eq!(rt.run(prog).unwrap(), false);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sem {
    state: MVar<SemState>,
}

/// What the state cell holds.
#[derive(Debug, Clone, PartialEq)]
struct SemState {
    available: i64,
    /// One empty wake-up cell per blocked waiter, longest wait first.
    waiters: VecDeque<MVar<()>>,
}

host_value!(Sem, SemState);

impl Sem {
    /// A semaphore with `units` initially available.
    ///
    /// # Panics
    ///
    /// Panics if `units` is negative.
    pub fn new(units: i64) -> Io<Sem> {
        assert!(units >= 0, "a semaphore cannot start in debt");
        Io::new_mvar(SemState {
            available: units,
            waiters: VecDeque::new(),
        })
        .map(|state| Sem { state })
    }

    /// Acquires one unit, blocking while none are available.
    ///
    /// Interrupted while it waits, it acquires nothing: the unit stays
    /// with — or goes back to — the semaphore.
    pub fn wait(&self) -> Io<()> {
        let state = self.state;
        Io::block(state.take().and_then(move |mut st| {
            if st.available > 0 {
                st.available -= 1;
                return state.put(st);
            }
            Io::new_empty_mvar::<()>().and_then(move |cell| {
                st.waiters.push_back(cell);
                state.put(st).then(
                    cell.take()
                        // A step of its own, which the pinned schedule
                        // counts of `corpus_sem_under_kill` include.
                        .map(|_| ())
                        .catch(move |e| abandon(state, cell).then(Io::throw(e))),
                )
            })
        }))
    }

    /// Releases one unit, waking the longest-waiting blocked thread.
    ///
    /// Waits only for the state cell, which is held momentarily; once
    /// it has that, the release is certain.
    pub fn signal(&self) -> Io<()> {
        let state = self.state;
        Io::block(state.take().and_then(move |st| grant(state, st)))
    }

    /// Non-blocking acquire: `true` if a unit was taken.
    pub fn try_wait(&self) -> Io<bool> {
        modify_mvar_pure(self.state, |st| {
            let taken = st.available > 0;
            st.available -= i64::from(taken);
            taken
        })
    }

    /// The currently available units (momentary snapshot).
    pub fn available(&self) -> Io<i64> {
        modify_mvar_pure(self.state, |st| st.available)
    }

    /// Runs `body` holding one unit and releases it however `body`
    /// exits — `bracket`-style (§7.1), so an asynchronous exception in
    /// `wait` or in `body` cannot leak a unit.
    pub fn with<T, F>(&self, body: F) -> Io<T>
    where
        T: FromValue + IntoValue + 'static,
        F: FnOnce() -> Io<T> + 'static,
    {
        let sem = *self;
        crate::bracket::bracket(
            sem.wait().map(|_| 0_i64), // the resource token (unit-ish)
            move |_| sem.signal(),
            move |_| body(),
        )
    }
}

/// With the state cell taken: gives one unit to the longest waiter, or
/// banks it, and puts the state back. Neither put can wait — a queued
/// cell is empty until its one grant, the state cell was just emptied.
fn grant(state: MVar<SemState>, mut st: SemState) -> Io<()> {
    match st.waiters.pop_front() {
        None => {
            st.available += 1;
            state.put(st)
        }
        Some(cell) => cell.put(()).then(state.put(st)),
    }
}

/// `wait`'s handler (so it runs masked): an interrupted waiter leaves
/// the queue. If its cell is no longer queued a `signal` has already
/// granted it a unit, which goes to the next in line instead. The state
/// cell may be held, so this take can be interrupted in turn — with
/// nothing taken, so it starts over ([`retry_interrupted`]); the first
/// exception is the one `wait` re-throws.
fn abandon(state: MVar<SemState>, cell: MVar<()>) -> Io<()> {
    retry_interrupted(move || {
        state.take().and_then(
            move |mut st| match st.waiters.iter().position(|w| *w == cell) {
                Some(queued) => {
                    st.waiters.remove(queued);
                    state.put(st)
                }
                None => grant(state, st),
            },
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{modify_mvar, timeout};
    use conch_explore::{ExploreConfig, Explorer, RunOutcome, Strategy, TestCase};
    use conch_runtime::prelude::*;

    #[test]
    fn counts_down_and_up() {
        let mut rt = Runtime::new();
        let prog = Sem::new(1).and_then(|s| {
            s.wait()
                .then(s.available())
                .and_then(move |a| s.signal().then(s.available()).map(move |b| (a, b)))
        });
        assert_eq!(rt.run(prog).unwrap(), (0, 1));
    }

    #[test]
    fn try_wait_respects_count() {
        let mut rt = Runtime::new();
        let prog = Sem::new(1).and_then(|s| {
            s.try_wait()
                .and_then(move |a| s.try_wait().map(move |b| (a, b)))
        });
        assert_eq!(rt.run(prog).unwrap(), (true, false));
    }

    #[test]
    fn blocked_waiter_wakes_on_signal() {
        let mut rt = Runtime::new();
        let prog = Sem::new(0).and_then(|s| {
            Io::new_empty_mvar::<i64>().and_then(move |out| {
                Io::fork(s.wait().then(out.put(1)))
                    .then(Io::sleep(10))
                    .then(s.signal())
                    .then(out.take())
            })
        });
        assert_eq!(rt.run(prog).unwrap(), 1);
    }

    #[test]
    fn fifo_wakeup_order() {
        let mut rt = Runtime::new();
        let prog = Sem::new(0).and_then(|s| {
            crate::Chan::<i64>::new().and_then(move |order| {
                Io::fork(s.wait().then(order.send(1)))
                    .then(Io::sleep(5))
                    .then(Io::fork(s.wait().then(order.send(2))))
                    .then(Io::sleep(5))
                    .then(s.signal())
                    .then(Io::sleep(5))
                    .then(s.signal())
                    .then(Io::sleep(5))
                    .then(order.recv())
                    .and_then(move |a| order.recv().map(move |b| (a, b)))
            })
        });
        assert_eq!(rt.run(prog).unwrap(), (1, 2));
    }

    #[test]
    fn with_releases_on_exception() {
        let mut rt = Runtime::new();
        let prog = Sem::new(1).and_then(|s| {
            s.with(|| Io::<i64>::throw(Exception::error_call("inside")))
                .catch(|_| Io::pure(0))
                .then(s.available())
        });
        assert_eq!(rt.run(prog).unwrap(), 1);
    }

    #[test]
    fn timed_out_waiter_does_not_corrupt_sem() {
        let mut rt = Runtime::new();
        // A waiter times out while blocked; a unit released later is
        // still there for someone else.
        let prog = Sem::new(0).and_then(|s| {
            timeout(100, s.wait()).and_then(move |r| {
                assert_eq!(r, None);
                s.signal().then(s.available())
            })
        });
        // The timed-out waiter left the queue, so the unit is banked
        // rather than poured into its abandoned cell.
        assert_eq!(rt.run(prog).unwrap(), 1);
    }

    #[test]
    fn mutual_exclusion_under_load() {
        // Three workers do not finish within 10 000 schedules:
        // PCT-sample the space instead.
        let explorer = Explorer::with_config(ExploreConfig {
            max_schedules: 200,
            strategy: Strategy::Pct { depth: 3, seed: 1 },
            ..ExploreConfig::default()
        });
        let result = explorer.check(|| {
            let prog = Sem::new(1).and_then(|s| {
                Io::new_mvar(0_i64).and_then(move |inside| {
                    Io::new_mvar(0_i64).and_then(move |peak| {
                        Io::new_mvar(0_i64).and_then(move |done| {
                            let worker = move || {
                                s.with(move || {
                                    modify_mvar(inside, |n| Io::pure(n + 1))
                                        .then(crate::with_mvar(inside, move |n| {
                                            modify_mvar(peak, move |p| Io::pure(p.max(n)))
                                                .then(Io::pure(n))
                                        }))
                                        .then(Io::compute(20))
                                        .then(modify_mvar(inside, |n| Io::pure(n - 1)))
                                        .then(Io::pure(0_i64))
                                })
                                .then(modify_mvar(done, |d| Io::pure(d + 1)))
                            };
                            Io::fork(worker())
                                .then(Io::fork(worker()))
                                .then(Io::fork(worker()))
                                .then(Io::sleep(1_000_000))
                                .then(peak.take())
                                .and_then(move |p| done.take().map(move |d| (p, d)))
                        })
                    })
                })
            });
            TestCase::new(prog, |out: &RunOutcome<(i64, i64)>| match out.result {
                Ok((1, 3)) => Ok(()),
                Ok((_, done)) if done != 3 => Err(format!("{done} of 3 workers finished")),
                ref other => Err(format!("mutual exclusion violated: {other:?}")),
            })
        });
        assert_eq!(result.expect_pass().explored, 200);
    }
}
