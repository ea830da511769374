//! Supervisors: monitored children, restart strategies, intensity
//! windows, and trees.
//!
//! A supervisor is itself an actor (so supervisors compose into trees
//! via [`supervisor_child`]): its mailbox carries [`Down`] messages
//! from a [`monitor`] on each child, tagged with the child's spec
//! index. The loop:
//!
//! * ignores *stale* notices (a `Down` whose `from` is not the current
//!   incarnation's thread — e.g. the delayed notice of a child the
//!   supervisor itself killed during an all-for-one sweep);
//! * removes children that exited [`ExitReason::Normal`](conch_runtime::exception::ExitReason::Normal) without
//!   restarting them;
//! * on an abnormal exit, slides the restart-intensity window: if more
//!   than `max_restarts` abnormal exits land within `window` virtual
//!   microseconds, the supervisor gives up — kills every child and
//!   crashes, escalating to *its* supervisor;
//! * otherwise restarts per strategy: the crashed child
//!   ([`Strategy::OneForOne`]), every child ([`Strategy::AllForOne`]),
//!   or the crashed child and all later-started ones
//!   ([`Strategy::RestForOne`]). Replaced incarnations are killed
//!   synchronously (§9 `throwTo`) before their successors start.
//!
//! **No orphans**: the whole supervisor body is guarded so that *any*
//! exit — give-up, crash, or an asynchronous kill from a storm or a
//! parent supervisor — first kills every live child. Children spawned
//! with [`spawn_actor_on`](crate::actor::spawn_actor_on) keep their mailbox across restarts, so
//! unconsumed messages survive the crash: restart preserves queue
//! state, and any application state the child keeps in external
//! `MVar`s is protected by its own masked transactions.

use std::rc::Rc;

use conch_combinators::{modify_mvar_pure, retry_interrupted};
use conch_runtime::exception::Exception;
use conch_runtime::host_value;
use conch_runtime::io::Io;
use conch_runtime::mvar::MVar;
use conch_runtime::value::Value;

use crate::actor::{monitor, spawn_actor, ActorRef, Down};
use crate::mailbox::Mailbox;

/// Which children a crash takes down with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Restart only the crashed child.
    OneForOne,
    /// Kill and restart every child.
    AllForOne,
    /// Kill and restart the crashed child and all later-started ones.
    RestForOne,
}

/// How to (re)start one child. The closure runs once at supervisor
/// start and once per restart; capture `Copy` handles (mailboxes,
/// state cells) to give successive incarnations shared state.
#[derive(Clone)]
pub struct ChildSpec {
    start: Rc<dyn Fn() -> Io<ActorRef<Value>>>,
}

/// Builds a [`ChildSpec`] from a start closure.
pub fn child_spec(start: impl Fn() -> Io<ActorRef<Value>> + 'static) -> ChildSpec {
    ChildSpec {
        start: Rc::new(start),
    }
}

/// A supervisor's configuration: strategy, restart budget, children.
#[derive(Clone)]
pub struct SupervisorSpec {
    strategy: Strategy,
    /// Maximum abnormal exits tolerated within `window` before giving up.
    max_restarts: usize,
    /// Sliding window, in virtual microseconds.
    window: i64,
    children: Vec<ChildSpec>,
}

impl SupervisorSpec {
    /// A spec with the given strategy, no children yet, and a default
    /// budget of 3 restarts per 1 000 000 virtual microseconds.
    pub fn new(strategy: Strategy) -> Self {
        SupervisorSpec {
            strategy,
            max_restarts: 3,
            window: 1_000_000,
            children: Vec::new(),
        }
    }

    /// Sets the restart-intensity budget.
    pub fn intensity(mut self, max_restarts: usize, window: i64) -> Self {
        self.max_restarts = max_restarts;
        self.window = window.max(1);
        self
    }

    /// Appends a child (start order is rest-for-one order).
    pub fn child(mut self, spec: ChildSpec) -> Self {
        self.children.push(spec);
        self
    }
}

/// A running supervisor: the supervisor actor plus the cell naming
/// the *current* child incarnations, which
/// [`child_refs`](Supervisor::child_refs) reads so audits and kill
/// storms can aim at live children.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Supervisor {
    /// The supervisor actor (its mailbox carries `Down` notices).
    actor: ActorRef<Down>,
    /// Current children, updated by the restart loop.
    children_cell: MVar<Children>,
}

/// The current incarnation at each live spec index, in index order.
#[derive(Debug, Clone, PartialEq)]
struct Children(Vec<(usize, ActorRef<Value>)>);

host_value!(Supervisor, Children);

impl Supervisor {
    /// The current child incarnations, in spec-index order.
    ///
    /// A restarted incarnation can run before it is listed: a restart
    /// removes the old incarnation, then spawns, monitors and records
    /// the new one, so in between the list lacks that index. An audit
    /// that needs the restarted child has the child's start announce it
    /// instead.
    pub fn child_refs(&self) -> Io<Vec<ActorRef<Value>>> {
        modify_mvar_pure(self.children_cell, |kids| {
            kids.0.iter().map(|(_, c)| *c).collect()
        })
    }

    /// Kills the supervisor with the §9 synchronous `throwTo`; its exit
    /// guard kills every child, so no orphan survives.
    pub fn shutdown_sync(&self) -> Io<()> {
        self.actor.kill_sync()
    }
}

/// Starts child `idx`, monitors it into the supervisor's mailbox
/// (mref = spec index) and records the incarnation.
fn start_child(
    spec: Rc<SupervisorSpec>,
    idx: usize,
    inbox: Mailbox<Down>,
    cell: MVar<Children>,
) -> Io<()> {
    (spec.children[idx].start)().and_then(move |child| {
        monitor(&child, inbox, idx as i64).then(modify_mvar_pure(cell, move |kids| {
            kids.0.retain(|(i, _)| *i != idx);
            kids.0.push((idx, child));
            kids.0.sort_by_key(|(i, _)| *i);
        }))
    })
}

fn start_range(
    spec: Rc<SupervisorSpec>,
    indices: Vec<usize>,
    inbox: Mailbox<Down>,
    cell: MVar<Children>,
) -> Io<()> {
    let mut indices = indices;
    match indices.pop() {
        None => Io::unit(),
        Some(last) => {
            // Keep start order: recurse on the front first.
            let front = indices;
            let spec2 = Rc::clone(&spec);
            start_range(spec2, front, inbox, cell).then(start_child(spec, last, inbox, cell))
        }
    }
}

/// Synchronously kills the recorded incarnations whose index `doomed`
/// picks (dead targets are no-ops) — read, kill, remove, in that order.
/// A child leaves the cell only once its kill has returned, so when an
/// exception interrupts a `kill_sync` the children not yet reached are
/// still recorded, for the exit guard's sweep and its retry to find.
fn kill_children(cell: MVar<Children>, doomed: impl Fn(usize) -> bool + 'static) -> Io<()> {
    modify_mvar_pure(cell, move |kids| {
        let picked = kids.0.iter().filter(|(i, _)| doomed(*i));
        picked.map(|(_, c)| *c).collect()
    })
    .and_then(move |killed: Vec<ActorRef<Value>>| {
        let sweep = kill_refs(killed.clone());
        sweep.then(modify_mvar_pure(cell, move |kids| {
            kids.0.retain(|(_, c)| !killed.contains(c))
        }))
    })
}

fn kill_refs(mut doomed: Vec<ActorRef<Value>>) -> Io<()> {
    match doomed.pop() {
        None => Io::unit(),
        Some(c) => c.kill_sync().then(kill_refs(doomed)),
    }
}

/// Kills every live child, retrying if an asynchronous exception (a
/// storm striking the dying supervisor) interrupts the sweep
/// ([`retry_interrupted`]). The retry reads the cell again, which still
/// names every child whose kill has not returned; a kill is idempotent —
/// `throwTo` at a dead thread is a no-op — so killing the others again
/// is harmless. This is the no-orphan guarantee.
fn kill_all_children(cell: MVar<Children>) -> Io<()> {
    retry_interrupted(move || kill_children(cell, |_| true))
}

/// Slides the intensity window and decides: `None` = give up,
/// `Some(times)` = proceed with the updated restart history.
fn admit_restart(mut times: Vec<i64>, now: i64, spec: &SupervisorSpec) -> Option<Vec<i64>> {
    times.retain(|t| now - *t <= spec.window);
    times.push(now);
    if times.len() > spec.max_restarts {
        None
    } else {
        Some(times)
    }
}

fn sup_loop(
    inbox: Mailbox<Down>,
    spec: Rc<SupervisorSpec>,
    cell: MVar<Children>,
    restarts: Vec<i64>,
) -> Io<()> {
    inbox.recv().and_then(move |down: Down| {
        let idx = down.mref as usize;
        // Stale-notice filter: only the *current* incarnation's death
        // is actionable. (We learn the current tid from the cell; a
        // notice from a replaced incarnation is dropped.)
        modify_mvar_pure(cell, move |kids| {
            kids.0
                .iter()
                .find(|(i, _)| *i == idx)
                .map(|(_, c)| c.tid().index() as i64)
        })
        .and_then(move |current: Option<i64>| {
            let stale = current != Some(down.from as i64);
            if stale || idx >= spec.children.len() {
                return sup_loop(inbox, spec, cell, restarts);
            }
            if !down.reason.is_abnormal() {
                // Normal exit: remove, do not restart.
                return modify_mvar_pure(cell, move |kids| kids.0.retain(|(i, _)| *i != idx))
                    .then(sup_loop(inbox, spec, cell, restarts));
            }
            Io::now().and_then(move |now| match admit_restart(restarts, now, &spec) {
                None => {
                    // Budget exhausted: give up and escalate. The body
                    // guard in sup_body will (re-)kill the children.
                    Io::throw(Exception::error_call(
                        "supervisor: restart intensity exceeded",
                    ))
                }
                Some(times) => {
                    let n = spec.children.len();
                    let to_restart: Vec<usize> = match spec.strategy {
                        Strategy::OneForOne => vec![idx],
                        Strategy::AllForOne => (0..n).collect(),
                        Strategy::RestForOne => (idx..n).collect(),
                    };
                    let spec2 = Rc::clone(&spec);
                    let doomed = to_restart.clone();
                    kill_children(cell, move |i| doomed.contains(&i))
                        .then(start_range(spec2, to_restart, inbox, cell))
                        .then(sup_loop(inbox, spec, cell, times))
                }
            })
        })
    })
}

fn sup_body(inbox: Mailbox<Down>, spec: Rc<SupervisorSpec>, cell: MVar<Children>) -> Io<()> {
    let n = spec.children.len();
    let spec2 = Rc::clone(&spec);
    start_range(spec2, (0..n).collect(), inbox, cell)
        .then(sup_loop(inbox, spec, cell, Vec::new()))
        .catch_info(move |e, origin| kill_all_children(cell).then(Io::rethrow(e, origin)))
}

/// Spawns a supervisor running `spec`. The supervisor's mailbox is
/// sized to hold a `Down` from every child plus slack, so exit
/// delivery to the supervisor never blocks a dying child for long.
pub fn spawn_supervisor(spec: SupervisorSpec) -> Io<Supervisor> {
    let capacity = (spec.children.len() as i64 * 2).max(4);
    Io::new_mvar(Children(Vec::new())).and_then(move |cell| {
        let spec = Rc::new(spec);
        spawn_actor(capacity, move |inbox: Mailbox<Down>| {
            sup_body(inbox, spec, cell)
        })
        .map(move |actor| Supervisor {
            actor,
            children_cell: cell,
        })
    })
}

/// Wraps a whole supervisor as a child of another supervisor — the
/// tree combinator. If the inner supervisor gives up (or is killed),
/// its parent restarts the entire subtree with a fresh spec copy.
pub fn supervisor_child(spec: SupervisorSpec) -> ChildSpec {
    child_spec(move || spawn_supervisor(spec.clone()).map(|sup| sup.actor.erase()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::spawn_actor_on;
    use conch_explore::{
        self as explore, ExploreConfig, Explorer, Reduction, RunOutcome, TestCase,
    };
    use conch_pins as pins;
    use conch_runtime::exception::ExitReason;
    use conch_runtime::scheduler::Runtime;
    use conch_runtime::value::{FromValue, IntoValue};

    fn run<T: FromValue + IntoValue + 'static>(io: Io<T>) -> T {
        Runtime::new().run(io).unwrap()
    }

    /// A counter worker: any message adds 2 to the shared cell and fills
    /// `bumped` for the test thread, its one waiter, in one masked
    /// section; message `-1` makes it crash. Each incarnation announces
    /// itself and its spec index on `born` as it starts.
    fn counter_child(
        state: MVar<i64>,
        bumped: MVar<()>,
        inbox: Mailbox<i64>,
        born: Mailbox<(i64, ActorRef<Value>)>,
        idx: i64,
    ) -> ChildSpec {
        child_spec(move || {
            spawn_actor_on(inbox, move |mb: Mailbox<i64>| {
                counter_loop(mb, state, bumped)
            })
            .and_then(move |a| born.send((idx, a.erase())).map(move |_| a.erase()))
        })
    }

    fn counter_loop(mb: Mailbox<i64>, state: MVar<i64>, bumped: MVar<()>) -> Io<()> {
        mb.recv().and_then(move |msg| {
            if msg < 0 {
                Io::throw(Exception::error_call("poison"))
            } else {
                let bump = state.take().and_then(move |n| state.put(n + 2));
                Io::block(bump.then(bumped.try_put(()))).then(counter_loop(mb, state, bumped))
            }
        })
    }

    /// Blocks until the counter reaches `at_least`.
    fn wait_counter(state: MVar<i64>, bumped: MVar<()>, at_least: i64) -> Io<i64> {
        Io::block(state.take().and_then(move |n| state.put(n).map(move |_| n))).and_then(move |n| {
            if n >= at_least {
                Io::pure(n)
            } else {
                bumped.take().then(wait_counter(state, bumped, at_least))
            }
        })
    }

    /// Runs `body` with a fresh counter, its signal, and a `born` box.
    fn with_counter<T: FromValue + IntoValue + 'static>(
        body: impl FnOnce(MVar<i64>, MVar<()>, Mailbox<(i64, ActorRef<Value>)>) -> Io<T> + 'static,
    ) -> T {
        run(Io::new_mvar(0_i64).and_then(|state| {
            Io::new_empty_mvar().and_then(move |bumped| {
                Mailbox::new(8).and_then(move |born| body(state, bumped, born))
            })
        }))
    }

    #[test]
    fn one_for_one_restarts_crashed_child_and_keeps_state() {
        let got = with_counter(|state, bumped, born| {
            Mailbox::<i64>::new(8).and_then(move |inbox| {
                let spec = SupervisorSpec::new(Strategy::OneForOne)
                    .intensity(5, 1_000_000)
                    .child(counter_child(state, bumped, inbox, born, 0));
                spawn_supervisor(spec).and_then(move |sup| {
                    inbox
                        .send(1) // +2
                        .then(inbox.send(-1)) // crash
                        .then(inbox.send(1)) // +2, served by the restart
                        .then(wait_counter(state, bumped, 4))
                        .and_then(move |n| sup.shutdown_sync().map(move |_| n))
                })
            })
        });
        assert_eq!(got, 4);
    }

    #[test]
    fn give_up_after_intensity_exceeded() {
        let got = with_counter(|state, bumped, born| {
            Mailbox::<i64>::new(8).and_then(move |inbox| {
                let spec = SupervisorSpec::new(Strategy::OneForOne)
                    .intensity(1, 1_000_000)
                    .child(counter_child(state, bumped, inbox, born, 0));
                spawn_supervisor(spec).and_then(move |sup| {
                    // Two crashes within the window exceed a budget of 1.
                    inbox.send(-1).then(inbox.send(-1)).then(sup.actor.join())
                })
            })
        });
        match got {
            ExitReason::Crashed(e) => {
                assert_eq!(
                    *e,
                    Exception::error_call("supervisor: restart intensity exceeded")
                )
            }
            other => panic!("expected give-up crash, got {other:?}"),
        }
    }

    /// Takes announcements off `born` into `seqs` (the thread at each
    /// spec index) until `done` holds of them and of how many it took.
    fn births(
        born: Mailbox<(i64, ActorRef<Value>)>,
        mut seqs: Vec<i64>,
        took: usize,
        done: impl Fn(&[i64], usize) -> bool + 'static,
    ) -> Io<Vec<i64>> {
        if done(&seqs, took) {
            return Io::pure(seqs);
        }
        born.recv()
            .and_then(move |(idx, child): (i64, ActorRef<Value>)| {
                seqs[idx as usize] = child.tid().index() as i64;
                births(born, seqs, took + 1, done)
            })
    }

    /// Crashes the child at index 1 (via its own mailbox poison) and
    /// returns the incarnations before and after. The restart round is
    /// over once child 1 is reborn and the supervisor waits again, which
    /// is where `shutdown_sync` can first reach it; the births it
    /// announced by then are the round's.
    fn seq_change_matrix(strategy: Strategy) -> (Vec<i64>, Vec<i64>) {
        with_counter(move |state, bumped, born| {
            let mailboxes = [Mailbox::<i64>::new(4), Mailbox::new(4), Mailbox::new(4)];
            let [mb0, poison_box, mb2] = mailboxes;
            mb0.and_then(move |mb0| {
                poison_box.and_then(move |poison_box| {
                    mb2.and_then(move |mb2| {
                        let spec = SupervisorSpec::new(strategy)
                            .intensity(5, 1_000_000)
                            .child(counter_child(state, bumped, mb0, born, 0))
                            .child(counter_child(state, bumped, poison_box, born, 1))
                            .child(counter_child(state, bumped, mb2, born, 2));
                        spawn_supervisor(spec).and_then(move |sup| {
                            births(born, vec![0; 3], 0, |_, took| took == 3).and_then(
                                move |before| {
                                    let old = before[1];
                                    let reborn = move |seqs: &[i64], _| seqs[1] != old;
                                    poison_box
                                        .send(-1)
                                        .then(births(born, before.clone(), 0, reborn))
                                        .and_then(move |after| {
                                            sup.shutdown_sync()
                                                .then(born.len())
                                                .and_then(move |late| {
                                                    let seen =
                                                        move |_: &[i64], took| took as i64 == late;
                                                    births(born, after, 0, seen)
                                                })
                                                .map(move |after| (before, after))
                                        })
                                },
                            )
                        })
                    })
                })
            })
        })
    }

    #[test]
    fn one_for_one_replaces_only_the_crashed_child() {
        let (before, after) = seq_change_matrix(Strategy::OneForOne);
        assert_eq!(before[0], after[0]);
        assert_ne!(before[1], after[1]);
        assert_eq!(before[2], after[2]);
    }

    #[test]
    fn all_for_one_replaces_every_child() {
        let (before, after) = seq_change_matrix(Strategy::AllForOne);
        assert_ne!(before[0], after[0]);
        assert_ne!(before[1], after[1]);
        assert_ne!(before[2], after[2]);
    }

    #[test]
    fn rest_for_one_replaces_crashed_and_later_children() {
        let (before, after) = seq_change_matrix(Strategy::RestForOne);
        assert_eq!(before[0], after[0]);
        assert_ne!(before[1], after[1]);
        assert_ne!(before[2], after[2]);
    }

    #[test]
    fn shutdown_leaves_no_orphans() {
        let got = with_counter(|state, bumped, born| {
            Mailbox::<i64>::new(4).and_then(move |inbox| {
                let spec = SupervisorSpec::new(Strategy::OneForOne)
                    .child(counter_child(state, bumped, inbox, born, 0));
                spawn_supervisor(spec).and_then(move |sup| {
                    born.recv()
                        .and_then(move |(_, kid): (i64, ActorRef<Value>)| {
                            sup.shutdown_sync().then(kid.join())
                        })
                })
            })
        });
        assert_eq!(got, ExitReason::Killed);
    }

    /// ROADMAP's reproduction of the orphaned-children bug: the exit
    /// guard's sweep is stuck in a `kill_sync` — its target is masked
    /// and computing — when a second kill strikes the supervisor. The
    /// retry must still find, and kill, every child: an orphan would
    /// leave its `join` blocked for ever, a deadlock.
    #[test]
    fn a_second_kill_mid_sweep_orphans_no_child() {
        /// Starts masked and computing, so a `kill_sync` aimed at it has
        /// to wait; its start announces it on `born`.
        fn busy_child(born: Mailbox<ActorRef<Value>>) -> ChildSpec {
            child_spec(move || {
                spawn_actor(1, |mb: Mailbox<i64>| {
                    Io::compute(40).then(mb.recv().map(|_| ()))
                })
                .and_then(move |a| born.send(a.erase()).map(move |_| a.erase()))
            })
        }
        let case = || {
            let prog = Mailbox::new(2).and_then(|born| {
                let spec = SupervisorSpec::new(Strategy::OneForOne)
                    .child(busy_child(born))
                    .child(busy_child(born));
                spawn_supervisor(spec).and_then(move |sup| {
                    born.recv().and_then(move |a| {
                        born.recv().and_then(move |b| {
                            sup.shutdown_sync()
                                .then(Io::yield_now())
                                .then(Io::yield_now())
                                .then(Io::yield_now())
                                .then(Io::throw_to(sup.actor.tid(), Exception::kill_thread()))
                                .then(a.join())
                                .and_then(move |a| b.join().map(move |b| vec![a, b]))
                        })
                    })
                })
            });
            TestCase::new(prog, |out: &RunOutcome<Vec<ExitReason>>| {
                match &out.result {
                    Ok(v) if v == &vec![ExitReason::Killed, ExitReason::Killed] => Ok(()),
                    other => Err(format!("a child was orphaned: {other:?}")),
                }
            })
        };
        let explorer = Explorer::with_config(ExploreConfig {
            max_depth: 256,
            step_budget: 200_000,
            strategy: explore::Strategy::Exhaustive(Reduction::SleepSets {
                preemption_bound: Some(2),
            }),
            ..ExploreConfig::default()
        });
        let result = explorer.check(case);
        let report = result.expect_pass();
        assert_eq!(
            (report.explored, report.complete),
            (pins::SUPERVISOR_SECOND_KILL_MID_SWEEP, true),
            "{report}"
        );
    }

    #[test]
    fn supervision_tree_restarts_a_whole_subtree() {
        // Root supervises a child supervisor which supervises a
        // counter. Killing the mid supervisor restarts the subtree and
        // service resumes on the same mailbox.
        let got = with_counter(|state, bumped, born| {
            Mailbox::<i64>::new(8).and_then(move |inbox| {
                let mid = SupervisorSpec::new(Strategy::OneForOne)
                    .intensity(5, 1_000_000)
                    .child(counter_child(state, bumped, inbox, born, 0));
                let root_spec = SupervisorSpec::new(Strategy::OneForOne)
                    .intensity(5, 1_000_000)
                    .child(supervisor_child(mid));
                spawn_supervisor(root_spec).and_then(move |root| {
                    inbox.send(1).then(wait_counter(state, bumped, 2)).then(
                        // Kill the mid supervisor (root's only child).
                        root.child_refs().and_then(move |kids| {
                            kids[0].kill_sync().then(
                                inbox
                                    .send(1)
                                    .then(wait_counter(state, bumped, 4))
                                    .and_then(move |n| root.shutdown_sync().map(move |_| n)),
                            )
                        }),
                    )
                })
            })
        });
        assert_eq!(got, 4);
    }
}
