//! Pub-sub chat fan-out on the `conch-actors` layer, with a supervised
//! room and crash-proof state.
//!
//! Run plain (`cargo run --release --example actor_chat`) to watch the
//! scenario once under the deterministic runtime, or with `--explore`
//! to prove its invariants on **every schedule** of the bounded space
//! (`cargo run --release --example actor_chat -- --explore`).
//!
//! The scenario:
//!
//! * a **room** actor owns a bounded inbox of [`RoomMsg`]s — `Join`
//!   registers a subscriber's mailbox, `Say` fans the message out to
//!   every subscriber;
//! * the subscriber roster lives in an `MVar` *outside* the actor, and
//!   the room is supervised via [`spawn_actor_on`] on a fixed inbox —
//!   so when a poison pill crashes it mid-stream, the supervisor's
//!   restart resumes with the same inbox and the same roster: queued
//!   messages survive, subscriptions survive;
//! * a **monitor** watches the restarted room, and the supervisor
//!   shutdown at the end delivers exactly one `Down{Killed}` to it —
//!   no orphan room outlives its supervisor.
//!
//! Under `--explore`, exhaustive exploration (sleep sets, preemption
//! bound 3, exception-delivery points branching fully;
//! `pins::ACTOR_CHAT_EXPLORED` schedules)
//! checks on every schedule
//! that both subscribers receive the pre-crash broadcast, both receive
//! the post-restart broadcast, and the shutdown reaps the room with a
//! single `Down` — then re-explores on the 4-worker engine and asserts
//! the coverage report is bit-identical.

use conch::actors::spawn_supervisor;
use conch::actors::{
    child_spec, monitor, spawn_actor_on, ActorRef, ChildSpec, Down, Mailbox, Strategy,
    SupervisorSpec,
};
use conch::explore::{
    CheckResult, ExploreConfig, Explorer, Reduction, Report, RunOutcome, TestCase,
};
use conch::prelude::*;
use conch::runtime::exception::ExitReason;
use conch::runtime::value::Value;
use conch_pins as pins;

/// What a chat room understands.
#[derive(Debug, Clone, PartialEq)]
enum RoomMsg {
    /// Register a subscriber's inbox for future broadcasts.
    Join(Mailbox<i64>),
    /// Broadcast a message id to every subscriber. Negative ids are
    /// poison pills: the room crashes processing them.
    Say(i64),
}

// A message type rides through mailboxes as itself.
host_value!(RoomMsg);

/// The subscribers, in join order.
type Roster = MVar<Vec<Mailbox<i64>>>;

/// Appends a subscriber to the shared roster (one masked transaction).
fn register(roster: Roster, inbox: Mailbox<i64>) -> Io<()> {
    Io::block(roster.take().and_then(move |mut subs| {
        subs.push(inbox);
        roster.put(subs)
    }))
}

/// Reads the roster, then fans `n` out to every subscriber in join
/// order (the sends run unmasked — a full subscriber inbox applies
/// backpressure to the room, not deadlock under the mask).
fn broadcast(roster: Roster, n: i64) -> Io<()> {
    Io::block(
        roster
            .take()
            .and_then(move |subs| roster.put(subs.clone()).map(move |_| subs)),
    )
    .and_then(move |subs| {
        let mut io = Io::unit();
        for s in subs {
            io = io.then(s.send(n));
        }
        io
    })
}

/// The room body: FIFO over its inbox, state entirely in `roster`, so
/// a restarted incarnation picks up exactly where the crash left off.
fn room_loop(mb: Mailbox<RoomMsg>, roster: Roster) -> Io<()> {
    mb.recv().and_then(move |msg: RoomMsg| match msg {
        RoomMsg::Join(inbox) => register(roster, inbox).then(room_loop(mb, roster)),
        RoomMsg::Say(n) if n < 0 => Io::throw(Exception::error_call("poison pill")),
        RoomMsg::Say(n) => broadcast(roster, n).then(room_loop(mb, roster)),
    })
}

/// A room incarnation on `inbox`, announced on `born` as it starts.
fn room_child(
    inbox: Mailbox<RoomMsg>,
    roster: Roster,
    born: Mailbox<ActorRef<Value>>,
) -> ChildSpec {
    child_spec(move || {
        spawn_actor_on(inbox, move |mb: Mailbox<RoomMsg>| room_loop(mb, roster))
            .and_then(move |a| born.send(a.erase()).map(move |_| a.erase()))
    })
}

fn down_code(r: &ExitReason) -> i64 {
    match r {
        ExitReason::Normal => 0,
        ExitReason::Killed => 1,
        ExitReason::Crashed(e) if e.is_exit_signal() => 2,
        ExitReason::Crashed(_) => 3,
    }
}

/// The latest room incarnation announced on `born` so far, after `kid`.
fn latest_room(born: Mailbox<ActorRef<Value>>, kid: ActorRef<Value>) -> Io<ActorRef<Value>> {
    born.try_recv().and_then(move |next| match next {
        Some(kid) => latest_room(born, kid),
        None => Io::pure(kid),
    })
}

/// The whole scenario as one program. Returns
/// `[alice#1, bob#1, alice#2, bob#2, down mref, down reason, extra]`.
/// The poison pill is sent from a *forked* troll thread racing the
/// second broadcast, so the crash may land before or after `Say(2)` in
/// the room's FIFO — on every schedule both subscribers still get
/// broadcast 2 exactly once (the roster and queue survive the
/// restart), and the monitor fires exactly once (`extra == 0`).
fn chat_scenario() -> Io<Vec<i64>> {
    Io::new_mvar(Vec::new()).and_then(|roster: Roster| {
        Mailbox::<RoomMsg>::new(8).and_then(move |lobby| {
            Mailbox::new(2).and_then(move |born| {
                let spec = SupervisorSpec::new(Strategy::OneForOne)
                    .intensity(3, 1_000_000)
                    .child(room_child(lobby, roster, born));
                spawn_supervisor(spec).and_then(move |sup| {
                    Mailbox::<i64>::new(8).and_then(move |alice| {
                        Mailbox::<i64>::new(8).and_then(move |bob| {
                            lobby
                                .send(RoomMsg::Join(alice))
                                .then(lobby.send(RoomMsg::Join(bob)))
                                .then(lobby.send(RoomMsg::Say(1)))
                                .then(alice.recv())
                                .and_then(move |a1: i64| {
                                    bob.recv().and_then(move |b1: i64| {
                                        // The troll's poison races Say(2) into the
                                        // room's FIFO. Whichever order they land,
                                        // the supervisor restarts the room on the
                                        // same inbox and roster, so broadcast 2
                                        // reaches both subscribers exactly once.
                                        Io::fork(lobby.send(RoomMsg::Say(-1)))
                                            .then(lobby.send(RoomMsg::Say(2)))
                                            .then(alice.recv())
                                            .and_then(move |a2: i64| {
                                                bob.recv().and_then(move |b2: i64| {
                                                    finale(sup, born).map(move |tail| {
                                                        let mut v = vec![a1, b1, a2, b2];
                                                        v.extend(tail);
                                                        v
                                                    })
                                                })
                                            })
                                    })
                                })
                        })
                    })
                })
            })
        })
    })
}

/// Monitors the latest room incarnation announced so far (the first
/// one, if the poison has not restarted it yet), shuts the supervisor down,
/// and collects the single `Down` the reaping must deliver — plus
/// whatever else is in the watcher mailbox after a settling sleep (any
/// double delivery would queue there). Returns `[mref, code, extra]`.
fn finale(sup: conch::actors::Supervisor, born: Mailbox<ActorRef<Value>>) -> Io<Vec<i64>> {
    Mailbox::<Down>::new(2).and_then(move |watcher| {
        born.recv()
            .and_then(move |first| latest_room(born, first))
            .and_then(move |kid| {
                monitor(&kid, watcher, 7)
                    .then(sup.shutdown_sync())
                    .then(watcher.recv())
                    .and_then(move |down: Down| {
                        Io::sleep(50)
                            .then(watcher.len())
                            .map(move |extra| vec![down.mref, down_code(&down.reason), extra])
                    })
            })
    })
}

fn check(out: &RunOutcome<Vec<i64>>) -> Result<(), String> {
    match &out.result {
        // The monitored incarnation dies Killed (1) by the shutdown
        // sweep, or Crashed (3) if the racing poison reached it after
        // the monitor was registered — never by exit signal, and never
        // more than once.
        Ok(v) if matches!(v.as_slice(), [1, 1, 2, 2, 7, 1 | 3, 0]) => Ok(()),
        Ok(v) => Err(format!("expected [1, 1, 2, 2, 7, 1|3, 0], got {v:?}")),
        Err(e) => Err(format!("run failed: {e:?}")),
    }
}

fn explore(workers: usize) -> Report {
    let explorer = Explorer::with_config(ExploreConfig {
        max_schedules: 100_000,
        max_depth: 512,
        step_budget: 100_000,
        strategy: conch::explore::Strategy::Exhaustive(Reduction::SleepSets {
            preemption_bound: Some(3),
        }),
        ..ExploreConfig::default()
    });
    let result = if workers == 1 {
        explorer.check(|| TestCase::new(chat_scenario(), check))
    } else {
        explorer.check_parallel(workers, || TestCase::new(chat_scenario(), check))
    };
    match result {
        CheckResult::Passed(report) => *report,
        CheckResult::Failed(f) => {
            println!("invariant VIOLATED: {}", f.message);
            println!("  shrunk certificate: {}", f.schedule);
            std::process::exit(1);
        }
    }
}

fn main() {
    if std::env::args().any(|a| a == "--explore") {
        println!("== actor chat under exhaustive exploration ==");
        let sequential = explore(1);
        assert!(
            sequential.complete && sequential.explored == pins::ACTOR_CHAT_EXPLORED,
            "exploration must be exhaustive, and the same as ever: {sequential:?}"
        );
        println!(
            "  explored {} schedules ({} pruned), complete: {}",
            sequential.explored, sequential.pruned, sequential.complete
        );
        println!("  on every schedule within preemption bound 3: both subscribers saw");
        println!("  broadcast 1, the poison crash was restarted with roster and queue");
        println!("  intact, both saw broadcast 2, and shutdown delivered exactly one Down.");
        let parallel = explore(4);
        assert_eq!(
            sequential, parallel,
            "coverage must be bit-identical across engines"
        );
        println!("  4-worker engine: identical report, bit for bit.");
        return;
    }

    println!("== actor chat: supervised pub-sub fan-out ==");
    let mut rt = Runtime::new();
    let out = rt.run(chat_scenario()).expect("scenario runs clean");
    println!("  broadcast 1 -> alice got {}, bob got {}", out[0], out[1]);
    println!("  poison pill crashed the room; supervisor restarted it on the");
    println!("  same inbox and roster (subscriptions and queued messages kept)");
    println!("  broadcast 2 -> alice got {}, bob got {}", out[2], out[3]);
    println!(
        "  shutdown reaped the room: Down {{ mref: {}, reason: {} }}, {} extra",
        out[4],
        match out[5] {
            0 => "Normal",
            1 => "Killed",
            2 => "Crashed(exit signal)",
            _ => "Crashed",
        },
        out[6],
    );
    assert!(
        matches!(out.as_slice(), [1, 1, 2, 2, 7, 1 | 3, 0]),
        "invariant violated: {out:?}"
    );
    println!("  (run with --explore to prove this on every schedule)");
}
