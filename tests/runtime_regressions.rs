//! Regression tests pinning runtime edge cases that the slot-reclaiming,
//! footprint-caching scheduler must preserve:
//!
//! * The sleeper `BinaryHeap` is purged of stale entries, so a server
//!   pattern of repeated timeout-then-kill cycles runs in bounded
//!   memory instead of accumulating one dead entry per cycle.
//! * §5/§9 semantics of throwing at dead threads: an asynchronous
//!   `throwTo` aimed at a finished thread is a no-op — including when
//!   the finished thread's table slot has been reclaimed and reused by
//!   a live thread (generation-tagged `ThreadId`s must not let the old
//!   id alias the new occupant). The synchronous variant returns `()`
//!   without blocking in the same situations.
//! * A `fork` that finds all 65 536 thread slots occupied ends the run
//!   with `RunError::ThreadLimitExceeded` instead of panicking.
//! * §9's special case: a thread throwing *synchronously to itself*
//!   raises immediately, even inside `block`, and the raise carries the
//!   asynchronous origin.
//! * `max_steps` tripping in the middle of a quantum leaves the thread
//!   that was running in `Runtime::runnable()`, the post-mortem view.
//! * A million-character `put_str` / `send_text` can be dropped unrun,
//!   reaped by (Proc GC) or killed mid-write without overflowing the
//!   host stack: `put_str` unfolds one character at a time, and
//!   `send_text` is one chunk, so neither builds an n-deep action.

use conch_runtime::io::for_each;
use conch_runtime::prelude::*;

// ---------------------------------------------------------------------
// Sleeper-heap compaction
// ---------------------------------------------------------------------

/// 10k cycles of "fork a sleeper, kill it". Every kill interrupts the
/// sleep and strands a stale entry in the sleeper heap; without purging,
/// the heap (and the thread table) would grow by one entry per cycle.
#[test]
fn sleeper_heap_stays_bounded_across_timeout_kill_cycles() {
    const CYCLES: u64 = 10_000;
    let mut rt = Runtime::new();
    let prog = for_each(CYCLES, |_| {
        Io::fork(Io::sleep(1_000_000).catch(|_| Io::unit())).and_then(|child| {
            // Let the child reach its sleep, then interrupt it.
            Io::yield_now().then(Io::throw_to(child, Exception::kill_thread()))
        })
    });
    rt.run(prog).unwrap();
    let stats = rt.stats();
    assert!(
        stats.interrupted_blocked >= CYCLES / 2,
        "the cycles did not actually interrupt sleeping threads \
         (interrupted_blocked = {})",
        stats.interrupted_blocked
    );
    assert!(
        stats.max_sleeper_heap < 64,
        "sleeper heap grew without bound: high-water {} after {} cycles",
        stats.max_sleeper_heap,
        CYCLES
    );
    assert!(
        stats.max_thread_slots < 64,
        "thread table grew without bound: high-water {} slots after {} cycles",
        stats.max_thread_slots,
        CYCLES
    );
}

/// A mass cancellation: 1k threads all asleep at once, then a kill storm
/// interrupts every one of them. Each kill lazily invalidates a sleeper-
/// queue entry; the >half-stale compaction must evict the pile long
/// before its 1-second wake time, and the queue must hold zero entries
/// once the run has quiesced.
#[test]
fn interrupting_1k_sleepers_leaves_an_empty_timer_wheel() {
    const SLEEPERS: usize = 1_000;
    let mut rt = Runtime::new();
    let mut spawn: Io<Vec<ThreadId>> = Io::pure(Vec::new());
    for _ in 0..SLEEPERS {
        spawn = spawn.and_then(|mut tids| {
            Io::fork(Io::sleep(1_000_000).catch(|_| Io::unit())).map(move |tid| {
                tids.push(tid);
                tids
            })
        });
    }
    let prog = spawn.and_then(|tids| {
        // Park main briefly so every child reaches its sleep; the queue
        // high-water is then all 1k children plus main's own entry.
        Io::sleep(5)
            .then({
                let mut kills = Io::unit();
                for tid in tids {
                    kills = kills.then(Io::throw_to(tid, Exception::kill_thread()));
                }
                kills
            })
            // One more short sleep: had compaction not evicted the 1k
            // stale entries, this insert would find them still filed and
            // push the high-water past its phase-1 value.
            .then(Io::sleep(10))
    });
    rt.run(prog).unwrap();
    let stats = rt.stats();
    assert_eq!(
        stats.interrupted_blocked, SLEEPERS as u64,
        "every kill should interrupt a sleeping thread"
    );
    assert_eq!(
        stats.max_sleeper_heap,
        SLEEPERS + 1,
        "sleeper-queue high-water should be the 1k sleepers + main, and the \
         post-storm sleep must not see the stale pile still filed"
    );
    assert_eq!(
        rt.clock(),
        15,
        "no stale entry may advance the clock toward the dead 1s wakes"
    );
    assert_eq!(
        rt.sleeper_queue_len(),
        0,
        "sleeper queue must hold zero entries after quiesce"
    );
}

// ---------------------------------------------------------------------
// Throwing at dead (and reclaimed) threads
// ---------------------------------------------------------------------

/// §5: an asynchronous `throwTo` at a thread that already finished is a
/// no-op; nothing is delivered anywhere.
#[test]
fn async_throw_to_a_finished_thread_is_a_no_op() {
    let mut rt = Runtime::new();
    let prog = Io::fork(Io::unit()).and_then(|child| {
        Io::sleep(1) // the child finishes during the sleep
            .then(Io::throw_to(child, Exception::kill_thread()))
            .then(Io::pure(7_i64))
    });
    assert_eq!(rt.run(prog).unwrap(), 7);
    let stats = rt.stats();
    assert_eq!(stats.finished_threads, 2, "main + child finish normally");
    assert_eq!(
        stats.async_deliveries + stats.interrupted_blocked,
        0,
        "the exception aimed at the dead thread must not land anywhere"
    );
}

/// The finished thread's slot is reclaimed and reused by a live thread;
/// the old `ThreadId` must *not* alias the new occupant (its generation
/// differs), so the kill is still a no-op and the new thread survives.
#[test]
fn async_throw_to_a_dead_and_reused_slot_spares_the_new_occupant() {
    let mut rt = Runtime::new();
    let prog = Io::new_empty_mvar::<i64>().and_then(|m| {
        Io::new_empty_mvar::<i64>().and_then(move |done| {
            Io::fork(Io::unit()).and_then(move |ghost| {
                Io::sleep(1) // the ghost finishes; its slot is freed
                    .then(Io::fork(m.take().and_then(move |v| done.put(v))))
                    .then(Io::throw_to(ghost, Exception::kill_thread()))
                    .then(m.put(42))
                    .then(done.take())
            })
        })
    });
    assert_eq!(rt.run(prog).unwrap(), 42);
    // Exactly two slots ever existed concurrently (main + one child), so
    // the second child really did reuse the ghost's slot: the test
    // genuinely exercises the generation check, not just a missing slot.
    assert_eq!(rt.stats().max_thread_slots, 2);
}

/// §9: the synchronous variant returns `()` without blocking when the
/// target is dead — again including a dead-and-reused slot.
#[test]
fn sync_throw_to_a_dead_or_reused_slot_returns_unit_without_blocking() {
    let mut rt = Runtime::new();
    let prog = Io::new_empty_mvar::<i64>().and_then(|m| {
        Io::new_empty_mvar::<i64>().and_then(move |done| {
            Io::fork(Io::unit()).and_then(move |ghost| {
                Io::sleep(1)
                    .then(Io::fork(m.take().and_then(move |v| done.put(v))))
                    // If this blocked (waiting for a "receipt" from a thread
                    // that will never exist again), the run would deadlock.
                    .then(Io::throw_to_sync(ghost, Exception::kill_thread()))
                    .then(m.put(8))
                    .then(done.take())
            })
        })
    });
    assert_eq!(rt.run(prog).unwrap(), 8);
    assert_eq!(rt.stats().max_thread_slots, 2);
}

// ---------------------------------------------------------------------
// Masked synchronous self-throw
// ---------------------------------------------------------------------

/// §9's special case: `throwTo` (sync) to oneself raises *immediately*,
/// even under `block` — the mask defers delivery of queued asynchronous
/// exceptions, but a self-throw never queues. The raise must carry the
/// asynchronous origin, since it arrived via `throwTo`.
#[test]
fn masked_self_sync_throw_raises_immediately_with_async_origin() {
    let mut rt = Runtime::new();
    let prog = Io::<i64>::block(
        Io::my_thread_id()
            .and_then(|me| Io::throw_to_sync(me, Exception::kill_thread()))
            // Unreachable: the self-throw raises before this runs.
            .then(Io::pure(0_i64)),
    )
    .catch_info(|e, origin| {
        assert_eq!(origin, RaiseOrigin::Async, "self-throw must look async");
        assert_eq!(e.to_string(), "KillThread");
        Io::pure(1_i64)
    });
    assert_eq!(rt.run(prog).unwrap(), 1);
    assert_eq!(rt.stats().catches, 1);
}

/// Contrast: an *asynchronous* self-throw under `block` is queued, not
/// raised — the thread keeps running until it unmasks.
#[test]
fn masked_self_async_throw_is_deferred_until_unmask() {
    let mut rt = Runtime::new();
    let prog = Io::<i64>::block(
        Io::my_thread_id()
            .and_then(|me| Io::throw_to(me, Exception::kill_thread()))
            // Still reachable: the async self-throw only queued the
            // exception and the mask holds it back.
            .then(Io::pure(10_i64)),
    )
    .catch_info(|_, origin| {
        assert_eq!(origin, RaiseOrigin::Async);
        Io::pure(-1_i64)
    });
    // After `block` exits, the pending kill lands before the catch frame
    // is popped, so the handler runs.
    assert_eq!(rt.run(prog).unwrap(), -1);
}

// ---------------------------------------------------------------------
// Cross-shard throwTo at dead and reused slots (the parallel plane)
// ---------------------------------------------------------------------

/// The dead-and-reused-slot guarantee crosses the channel plane: a
/// `ShardCtx::throw_to` relayed from a *remote* shard and delivered at
/// the destination's epoch barrier must still be a no-op when the
/// target `ThreadId` names a thread that has since died — even though
/// a new occupant has reused its table slot. The generation tag, not
/// the slot index, is the identity the barrier delivery checks.
///
/// Shard 1 forks a ghost, lets it die, forks a new occupant into the
/// freed slot, and only then ships the ghost's id to shard 0, which
/// relays a kill back. The ack message is sequenced *after* the throw
/// (same source, ascending seq), so when shard 1's `recv` returns, the
/// stale kill has already been drained at the same barrier. If the old
/// id aliased the new occupant, the occupant would die holding the
/// `MVar` and the run would deadlock instead of returning 42.
#[test]
fn cross_shard_throw_to_a_dead_and_reused_slot_spares_the_new_occupant() {
    use conch_runtime::parallel::{MultiConfig, MultiRuntime, ShardCtx, ShardProgram};
    use conch_runtime::value::Value;

    let programs: Vec<ShardProgram> = vec![
        // Shard 0: the relay — kill whatever id shard 1 reports, then
        // ack so shard 1 knows the kill has been drained.
        Box::new(|ctx: &ShardCtx| {
            let ctx = ctx.clone();
            ctx.clone().recv().and_then(move |v| {
                let ghost = v.as_thread_id().expect("ghost tid");
                ctx.clone()
                    .throw_to(1, ghost, Exception::kill_thread())
                    .then(ctx.send(1, Value::Int(0)))
                    .map(|()| Value::Int(0))
            })
        }),
        // Shard 1: the victim shard with the reused slot.
        Box::new(|ctx: &ShardCtx| {
            let ctx = ctx.clone();
            Io::new_empty_mvar::<i64>().and_then(move |m| {
                Io::new_empty_mvar::<i64>().and_then(move |done| {
                    Io::fork(Io::unit()).and_then(move |ghost| {
                        Io::sleep(1) // the ghost finishes; its slot is freed
                            .then(Io::fork(m.take().and_then(move |v| done.put(v))))
                            .then(ctx.clone().send(0, Value::ThreadId(ghost)))
                            .then(ctx.recv()) // the kill is drained by now
                            .then(m.put(42))
                            .then(done.take())
                            .map(Value::Int)
                    })
                })
            })
        }),
    ];
    let report = MultiRuntime::new(MultiConfig {
        epoch_us: 100,
        ..MultiConfig::default()
    })
    .run(programs);
    assert_eq!(report.shards[0].result, Ok(Value::Int(0)));
    assert_eq!(
        report.shards[1].result,
        Ok(Value::Int(42)),
        "the new occupant must survive the stale cross-shard kill"
    );
    // Shard 1 never held more than two live slots (main + one child),
    // so the occupant genuinely reused the ghost's slot — the test
    // exercises the generation check, not a missing slot.
    assert_eq!(report.shards[1].stats.max_thread_slots, 2);
    // Three messages crossed the plane: tid, throw, ack — the throw
    // logged between the two data messages.
    assert_eq!(report.messages, 3);
    assert!(
        report.drain_log.iter().any(|l| l.contains("throw")),
        "{:?}",
        report.drain_log
    );
}

// ---------------------------------------------------------------------
// Thread-slot exhaustion is a typed error, not a panic
// ---------------------------------------------------------------------

/// Forks `n` threads that park forever on an empty `MVar`, then
/// returns `n` from the main thread.
fn park_threads(n: u64) -> Result<i64, RunError> {
    let prog = Io::new_empty_mvar::<i64>()
        .and_then(move |gate| for_each(n, move |_| Io::fork(gate.take())).map(move |_| n as i64));
    Runtime::new().run(prog)
}

#[test]
fn forking_past_the_thread_slot_limit_is_a_typed_error() {
    // Thread ids name their slot in 16 bits: 65 536 threads can be
    // alive at once, the main thread among them.
    assert_eq!(park_threads(65_535), Ok(65_535));
    assert_eq!(
        park_threads(65_536),
        Err(RunError::ThreadLimitExceeded { limit: 65_536 })
    );
}

// ---------------------------------------------------------------------
// A step limit that falls mid-quantum keeps the running thread queued
// ---------------------------------------------------------------------

#[test]
fn step_limit_mid_quantum_leaves_the_interrupted_thread_runnable() {
    // Main spends steps 1-11 (bind, fork, return, compute...), the child
    // 12-22, and main is 8 steps into its second quantum of 11 when step
    // 30 trips the limit.
    let config = RuntimeConfig::new().max_steps(30);
    let mut rt = Runtime::with_config(config);
    let prog = Io::fork(Io::compute(u64::MAX)).then(Io::compute(u64::MAX));
    assert_eq!(rt.run(prog), Err(RunError::StepLimitExceeded { limit: 30 }));
    assert_eq!(rt.stats().steps, 30);
    let runnable: Vec<ThreadId> = rt.runnable().iter().map(|v| v.tid).collect();
    assert_eq!(runnable.len(), 2, "{runnable:?}");
    let main = rt.main_thread_id();
    assert!(
        runnable.contains(&main),
        "the thread the limit interrupted ({main}) is missing from {runnable:?}"
    );
    assert!(runnable.iter().any(|&t| t != main), "{runnable:?}");
}

// ---------------------------------------------------------------------
// Long writes unfold lazily: dropping one is O(1) deep
// ---------------------------------------------------------------------

const LONG: usize = 1_000_000;

/// Drops `write` unrun, then lets (Proc GC) reap a thread that is part-way
/// through it, then kills one part-way through it.
fn drop_reap_and_kill_mid_string(write: impl Fn() -> Io<()>) -> Runtime {
    drop(write());

    let mut rt = Runtime::new();
    rt.run(Io::fork(write()).then(Io::unit())).unwrap();

    let killed = Io::fork(write()).and_then(|writer| {
        Io::yield_now()
            .then(Io::throw_to(writer, Exception::kill_thread()))
            .then(Io::yield_now())
    });
    rt.run(killed).unwrap();
    assert_eq!(rt.stats().kill_thread_deaths, 1);
    rt
}

#[test]
fn a_million_character_put_str_can_be_dropped_reaped_and_killed() {
    let rt = drop_reap_and_kill_mid_string(|| Io::put_str("x".repeat(LONG)));
    let written = rt.output().len();
    assert!(0 < written && written < LONG, "{written}");
}

#[test]
fn a_million_character_send_text_can_be_dropped_reaped_and_killed() {
    use conch::httpd::net::Connection;

    // Unrun: `send_text` needs a connection, which takes a run to open.
    let conn = Runtime::new().run(Connection::open()).unwrap();
    drop(conn.send_text("x".repeat(LONG)));

    // The text travels as one chunk, so there is no per-character
    // action left to recurse on; what is reaped or killed part-way is
    // the open-then-send itself. A writer cut off mid-`send` leaves its
    // channel half-updated, so each doomed writer gets a connection of
    // its own.
    drop_reap_and_kill_mid_string(|| {
        Connection::open().and_then(|conn| conn.send_text("x".repeat(LONG)))
    });
}
