//! Supervision invariants, proved on every schedule.
//!
//! Each test explores a small actor program under `conch-explore` and
//! checks an invariant on *every* schedule of the space within
//! preemption bound 2, under sleep sets (each search completes, and its
//! schedule count is pinned):
//!
//! * **no lost messages** — an asynchronous `KillThread` landing
//!   anywhere in `Mailbox::recv` leaves the message either still
//!   queued or fully delivered (`len + delivered == sent`); the
//!   companion test shows the pre-fix `recv`, rebuilt here as
//!   [`recv_racy`], *does* have a lost-message schedule, which the explorer finds and
//!   shrinks — the regression certificate for the masked take→deliver
//!   window;
//! * **monitors fire exactly once** — even when registration races the
//!   target's death;
//! * **links cascade / trap-exits observe** — an abnormal exit signals
//!   every linked peer on every schedule, and a trapping peer converts
//!   the signal to a message and survives;
//! * **restarts preserve state, shutdown leaves no orphans** — a
//!   supervised counter crashes mid-stream and the restarted
//!   incarnation (same mailbox, same state cell) finishes the stream;
//!   killing the supervisor always reaps the child.
//!
//! The key spaces are explored by both the sequential and the 4-worker
//! engine and the coverage reports must be bit-identical — the
//! determinism contract extended to the actor layer.

use conch_actors::{
    child_spec, link, monitor, spawn_actor, spawn_actor_on, spawn_supervisor, supervisor_child,
    ActorRef, ChildSpec, Down, Mailbox, Signal, Strategy, SupervisorSpec,
};
use conch_combinators::Chan;
use conch_explore::{
    CheckResult, ExploreConfig, Explorer, Reduction, Report, RunOutcome, TestCase,
};
use conch_pins as pins;
use conch_runtime::exception::{Exception, ExitReason};
use conch_runtime::ids::ThreadId;
use conch_runtime::io::Io;
use conch_runtime::mvar::MVar;
use conch_runtime::value::Value;

type Space = fn() -> Io<Vec<i64>>;
type Check = fn(&RunOutcome<Vec<i64>>) -> Result<(), String>;

fn explore(space: Space, check: Check, workers: usize) -> CheckResult {
    // Preemption bound 2 keeps the schedule dimension tractable while
    // exception-delivery points still branch fully, so kill placement
    // is exhaustive within the bound.
    let explorer = Explorer::with_config(ExploreConfig {
        max_schedules: 100_000,
        max_depth: 512,
        step_budget: 100_000,
        strategy: conch_explore::Strategy::Exhaustive(Reduction::SleepSets {
            preemption_bound: Some(2),
        }),
        ..ExploreConfig::default()
    });
    if workers == 1 {
        explorer.check(move || TestCase::new(space(), check))
    } else {
        explorer.check_parallel(workers, move || TestCase::new(space(), check))
    }
}

fn explore_pass(space: Space, check: Check, workers: usize) -> Report {
    explore(space, check, workers).expect_pass().clone()
}

/// The search covered every schedule within the bound, and is the same
/// search as ever.
fn assert_complete(report: &Report, explored: usize) {
    assert!(
        report.complete,
        "exploration must be exhaustive: {report:?}"
    );
    assert_eq!(report.explored, explored, "{report:?}");
}

fn reason_code(r: &ExitReason) -> i64 {
    match r {
        ExitReason::Normal => 0,
        ExitReason::Killed => 1,
        ExitReason::Crashed(e) if e.is_exit_signal() => 2,
        ExitReason::Crashed(_) => 3,
    }
}

/// Waits for the actor to commit an exit reason.
fn wait_dead_code(a: ActorRef<Value>) -> Io<i64> {
    a.join().map(|r| reason_code(&r))
}

// -- satellite: recv must not lose a dequeued message ----------------------

/// One message, one receiver, one kill. The receiver dequeues with the
/// masked take→deliver window and records delivery in `sink` under the
/// same mask (the actor-shell usage pattern). The kill is delivered
/// with the §9 synchronous `throwTo`, so by the time the audit reads
/// the state the receiver is dead (or done). Returns
/// `[queued, delivered]`.
fn recv_no_loss_space() -> Io<Vec<i64>> {
    Mailbox::<i64>::new(1).and_then(|mb| {
        Io::new_mvar(0_i64).and_then(move |sink| {
            mb.send(7).then(
                Io::fork(Io::block(mb.recv().and_then(move |_| {
                    Io::block(sink.take().and_then(move |n| sink.put(n + 1)))
                })))
                .and_then(move |tid| {
                    Io::throw_to_sync(tid, Exception::kill_thread())
                        .then(mb.len())
                        .and_then(move |len| {
                            Io::block(sink.take().and_then(move |n| sink.put(n).map(move |_| n)))
                                .map(move |got| vec![len, got])
                        })
                }),
            )
        })
    })
}

/// The pre-fix `Mailbox::recv`, from public calls: dequeue in a
/// transaction, then an unmasked yield, then return the message. It
/// keeps the pre-fix wait too, a sleep and a retry: only public calls
/// reach the mailbox here.
fn recv_racy(mb: Mailbox<i64>) -> Io<i64> {
    mb.try_recv().and_then(move |got| match got {
        Some(v) => Io::yield_now().map(move |_| v),
        None => Io::sleep(25).then(recv_racy(mb)),
    })
}

/// The pre-fix shape: dequeue, then an unmasked step, then record. On
/// the schedule where the kill lands in that window the message is
/// neither queued nor delivered.
fn recv_racy_space() -> Io<Vec<i64>> {
    Mailbox::<i64>::new(1).and_then(|mb| {
        Io::new_mvar(0_i64).and_then(move |sink| {
            mb.send(7).then(
                Io::fork(recv_racy(mb).and_then(move |_: i64| {
                    Io::block(sink.take().and_then(move |n| sink.put(n + 1)))
                }))
                .and_then(move |tid| {
                    Io::throw_to_sync(tid, Exception::kill_thread())
                        .then(mb.len())
                        .and_then(move |len| {
                            Io::block(sink.take().and_then(move |n| sink.put(n).map(move |_| n)))
                                .map(move |got| vec![len, got])
                        })
                }),
            )
        })
    })
}

fn message_conserved(out: &RunOutcome<Vec<i64>>) -> Result<(), String> {
    match &out.result {
        Ok(v) if v[0] + v[1] == 1 => Ok(()),
        Ok(v) => Err(format!(
            "message lost or duplicated: queued {} + delivered {} != 1",
            v[0], v[1]
        )),
        Err(e) => Err(format!("run failed: {e:?}")),
    }
}

#[test]
fn recv_never_loses_a_message_on_any_schedule() {
    let report = explore_pass(recv_no_loss_space, message_conserved, 1);
    assert_complete(&report, pins::ACTORS_RECV_NEVER_LOSES);
}

#[test]
fn recv_racy_has_a_lost_message_schedule() {
    // The regression direction: the explorer must *find* the bug the
    // masked window in `recv` closes, and shrink it to a certificate.
    let result = explore(recv_racy_space, message_conserved, 1);
    let failure = result.expect_fail();
    assert!(
        failure.message.contains("message lost"),
        "unexpected failure: {}",
        failure.message
    );
    assert_eq!(
        failure.schedule.to_string(),
        "t0.d-",
        "shrinking must leave a replayable schedule"
    );
}

// -- monitors fire exactly once --------------------------------------------

/// Registration races the target's death: the actor exits immediately
/// while the main thread monitors it. Returns `[mref, extra]` where
/// `extra` is whatever is left in the watcher mailbox after the one
/// expected `Down` — any second delivery would queue there.
fn monitor_once_space() -> Io<Vec<i64>> {
    Mailbox::<Down>::new(2).and_then(|watcher| {
        spawn_actor(1, |_mb: Mailbox<i64>| Io::unit()).and_then(move |a| {
            monitor(&a, watcher, 11).then(watcher.recv().and_then(move |down: Down| {
                Io::sleep(50)
                    .then(watcher.len())
                    .map(move |extra| vec![down.mref, extra])
            }))
        })
    })
}

fn monitor_fired_once(out: &RunOutcome<Vec<i64>>) -> Result<(), String> {
    match &out.result {
        Ok(v) if v == &vec![11, 0] => Ok(()),
        Ok(v) => Err(format!("expected exactly one Down(mref 11), got {v:?}")),
        Err(e) => Err(format!("run failed: {e:?}")),
    }
}

#[test]
fn monitor_fires_exactly_once_under_registration_death_race() {
    let report = explore_pass(monitor_once_space, monitor_fired_once, 1);
    // Both sides of the registration/death race.
    assert_complete(&report, 6);
}

// -- links cascade; trap-exits observe -------------------------------------

/// `a` crashes; `b` (non-trapping, blocked on recv) is linked to it.
/// Returns `[b's exit code]` — on every schedule `b` dies crashed by
/// the exit signal, whichever side of the link registration `a`'s
/// death lands on.
fn link_cascade_space() -> Io<Vec<i64>> {
    spawn_actor(1, |mb: Mailbox<i64>| mb.recv().map(|_| ())).and_then(|b| {
        spawn_actor(1, |_mb: Mailbox<i64>| {
            Io::throw(Exception::error_call("crash"))
        })
        .and_then(move |a| link(&a, &b).then(wait_dead_code(b.erase()).map(|code| vec![code])))
    })
}

fn cascaded(out: &RunOutcome<Vec<i64>>) -> Result<(), String> {
    match &out.result {
        Ok(v) if v == &vec![2] => Ok(()),
        Ok(v) => Err(format!("peer should die crashed-by-signal (2), got {v:?}")),
        Err(e) => Err(format!("run failed: {e:?}")),
    }
}

#[test]
fn link_cascades_on_every_schedule() {
    let report = explore_pass(link_cascade_space, cascaded, 1);
    assert_complete(&report, pins::ACTORS_LINK_CASCADES);
}

/// Same crash, but `b` traps: it converts the signal to a message,
/// records which variant arrived, and exits normally. Returns
/// `[observed, b's exit code]` — `[1, 0]` on every schedule.
fn trap_exit_space() -> Io<Vec<i64>> {
    Io::new_mvar(0_i64).and_then(|cell| {
        spawn_actor(2, move |mb: Mailbox<i64>| {
            mb.recv_trapping().and_then(move |sig| {
                let v = match sig {
                    Signal::Exit { .. } => 1,
                    Signal::Msg(_) => 2,
                };
                Io::block(cell.take().and_then(move |_| cell.put(v)))
            })
        })
        .and_then(move |b| {
            spawn_actor(1, |_mb: Mailbox<i64>| Io::throw(Exception::error_call("x"))).and_then(
                move |a| {
                    link(&a, &b).then(wait_dead_code(b.erase()).and_then(move |code| {
                        Io::block(cell.take().and_then(move |v| cell.put(v).map(move |_| v)))
                            .map(move |seen| vec![seen, code])
                    }))
                },
            )
        })
    })
}

fn trapped(out: &RunOutcome<Vec<i64>>) -> Result<(), String> {
    match &out.result {
        Ok(v) if v == &vec![1, 0] => Ok(()),
        Ok(v) => Err(format!(
            "trapping peer should observe Exit and survive ([1, 0]), got {v:?}"
        )),
        Err(e) => Err(format!("run failed: {e:?}")),
    }
}

#[test]
fn trap_exit_observes_and_survives_on_every_schedule() {
    let report = explore_pass(trap_exit_space, trapped, 1);
    assert_complete(&report, pins::ACTORS_TRAP_EXIT);
}

// -- supervised restart preserves state; shutdown reaps --------------------

/// Any message adds 2 to the shared counter in one masked transaction,
/// and the bump that makes it 4 announces itself on `four`; `-1`
/// crashes.
fn counter_loop(mb: Mailbox<i64>, state: MVar<i64>, four: MVar<()>) -> Io<()> {
    mb.recv().and_then(move |msg| {
        if msg < 0 {
            Io::throw(Exception::error_call("poison"))
        } else {
            Io::block(
                state
                    .take()
                    .and_then(move |n| state.put(n + 2).map(move |_| n + 2)),
            )
            .and_then(move |n| if n == 4 { four.put(()) } else { Io::unit() })
            .then(counter_loop(mb, state, four))
        }
    })
}

/// A counter incarnation on `inbox`, announced on `born` as it starts.
fn counter_child(
    state: MVar<i64>,
    four: MVar<()>,
    inbox: Mailbox<i64>,
    born: MVar<ActorRef<Value>>,
) -> ChildSpec {
    child_spec(move || {
        spawn_actor_on(inbox, move |mb: Mailbox<i64>| counter_loop(mb, state, four))
            .and_then(move |a| born.put(a.erase()).map(move |_| a.erase()))
    })
}

/// A supervised counter receives `+2`, poison (crash), `+2`. The
/// restarted incarnation shares mailbox and state cell, so on every
/// schedule the counter reaches 4 — no update lost to the crash, no
/// message lost to the restart. Then the supervisor is killed, the
/// audit waits for the child to be reaped — the second incarnation
/// announced on `born` — and reads the counter. Returns
/// `[counter, child exit code]`.
fn restart_state_space() -> Io<Vec<i64>> {
    Io::new_mvar(0_i64).and_then(|state| {
        Io::new_empty_mvar().and_then(move |four| {
            Io::new_empty_mvar().and_then(move |born| {
                Mailbox::<i64>::new(8).and_then(move |inbox| {
                    let spec = SupervisorSpec::new(Strategy::OneForOne)
                        .intensity(5, 1_000_000)
                        .child(counter_child(state, four, inbox, born));
                    spawn_supervisor(spec).and_then(move |sup| {
                        inbox
                            .send(1)
                            .then(inbox.send(-1))
                            .then(inbox.send(1))
                            .then(four.take())
                            .then(born.take())
                            .then(born.take())
                            .and_then(move |kid| {
                                sup.shutdown_sync().then(wait_dead_code(kid)).and_then(
                                    move |code| {
                                        Io::block(state.take().and_then(move |n| {
                                            state.put(n).map(move |_| vec![n, code])
                                        }))
                                    },
                                )
                            })
                    })
                })
            })
        })
    })
}

fn restarted_and_reaped(out: &RunOutcome<Vec<i64>>) -> Result<(), String> {
    match &out.result {
        Ok(v) if v == &vec![4, 1] => Ok(()),
        Ok(v) => Err(format!(
            "expected counter 4 and a Killed (1) child, got {v:?}"
        )),
        Err(e) => Err(format!("run failed: {e:?}")),
    }
}

#[test]
fn supervised_restart_preserves_state_and_shutdown_reaps() {
    let report = explore_pass(restart_state_space, restarted_and_reaped, 1);
    assert_complete(&report, pins::ACTORS_SUPERVISED_RESTART);
    assert!(
        report.stats.kill_thread_deaths > 0,
        "the shutdown path must actually kill: {report:?}"
    );
}

// -- a second kill mid-sweep orphans no child ------------------------------

/// A child that starts masked and *running*, so a `kill_sync` aimed at
/// it has to wait for its `recv`; its start announces it, with the
/// supervisor that started it, on `born`.
fn busy_child(born: Chan<(ActorRef<Value>, ThreadId)>) -> ChildSpec {
    child_spec(move || {
        spawn_actor(1, |mb: Mailbox<i64>| {
            Io::compute(2).then(mb.recv().map(|_| ()))
        })
        .and_then(move |a| {
            Io::my_thread_id()
                .and_then(move |sup| born.send((a.erase(), sup)).map(move |_| a.erase()))
        })
    })
}

/// A supervisor of two busy children is killed, and killed again while
/// its exit guard sweeps them (the root above it never restarts, so
/// nothing else can reap them). Returns the two children's exit codes.
fn double_kill_space() -> Io<Vec<i64>> {
    Chan::new().and_then(|born| {
        let mid = SupervisorSpec::new(Strategy::OneForOne)
            .child(busy_child(born))
            .child(busy_child(born));
        let root = SupervisorSpec::new(Strategy::OneForOne)
            .intensity(0, 1_000_000)
            .child(supervisor_child(mid));
        spawn_supervisor(root).and_then(move |_root| {
            born.recv()
                .and_then(move |(first, mid): (ActorRef<Value>, ThreadId)| {
                    born.recv()
                        .and_then(move |(second, _): (ActorRef<Value>, ThreadId)| {
                            Io::throw_to_sync(mid, Exception::kill_thread())
                                .then(Io::throw_to(mid, Exception::kill_thread()))
                                .then(wait_dead_code(first))
                                .and_then(move |a| wait_dead_code(second).map(move |b| vec![a, b]))
                        })
                })
        })
    })
}

fn both_reaped(out: &RunOutcome<Vec<i64>>) -> Result<(), String> {
    match &out.result {
        Ok(v) if v == &vec![1, 1] => Ok(()),
        Ok(v) => Err(format!("expected two Killed (1) children, got {v:?}")),
        Err(e) => Err(format!("a child was orphaned: {e:?}")),
    }
}

#[test]
fn a_second_kill_mid_sweep_orphans_no_child_on_any_schedule() {
    let report = explore_pass(double_kill_space, both_reaped, 1);
    assert_complete(&report, pins::ACTORS_SECOND_KILL_MID_SWEEP);
}

// -- determinism: worker counts must not change coverage -------------------

#[test]
fn actor_spaces_report_identically_at_any_worker_count() {
    for (space, check) in [
        (recv_no_loss_space as Space, message_conserved as Check),
        (monitor_once_space, monitor_fired_once),
        (restart_state_space, restarted_and_reaped),
    ] {
        let sequential = explore_pass(space, check, 1);
        let parallel = explore_pass(space, check, 4);
        assert_eq!(
            sequential, parallel,
            "actor-space coverage must be bit-identical across engines"
        );
    }
}
