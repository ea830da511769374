//! The quantum-resident loop must be invisible to a driver that
//! slices a run into clock-capped pumps: same program, same everything.

use super::*;
use crate::decide::Pick;
use crate::io::for_each;

/// A program that leaves its quantum every way a thread can: quantum
/// exhausted (compute chunks, bind chains), finished and died (fork +
/// exit, an uncaught exception in a child), blocked (`take`, `sleep`),
/// yielded, and receiving a masked and an unmasked `throwTo`. `stretch`
/// lengthens every compute chunk, so quantum ends land at other offsets.
fn every_exit(stretch: u64) -> Io<i64> {
    Io::new_empty_mvar::<i64>().and_then(move |m| {
        let worker = for_each(5, move |i| Io::compute(7 + stretch + i))
            .then(Io::sleep(30))
            .then(m.put(5));
        let yielder = for_each(4, |_| Io::put_char('y').then(Io::yield_now()));
        let crasher =
            Io::compute(5 + stretch).then(Io::<()>::throw(Exception::error_call("child")));
        let unmasked = Io::compute(u64::MAX);
        // Forked under `block`, so the kill below waits for the
        // `unblock` window: the 'm' is always written.
        let masked = Io::compute(40 + stretch)
            .then(Io::put_char('m'))
            .then(Io::<()>::unblock(Io::compute(u64::MAX)));
        // The virtual clock only moves when nothing is runnable, so
        // both immortal computations are killed before anyone relies
        // on a sleeper waking.
        Io::fork(worker)
            .then(Io::fork(yielder))
            .then(Io::fork(crasher))
            .then(Io::fork(unmasked))
            .and_then(move |victim| {
                Io::<ThreadId>::block(Io::fork(masked)).and_then(move |shielded| {
                    Io::throw_to(shielded, Exception::kill_thread())
                        .then(Io::throw_to(victim, Exception::kill_thread()))
                        .then(m.take())
                        .and_then(|v| Io::sleep(10).then(Io::put_char('.')).then(Io::pure(v)))
                })
            })
    })
}

fn config() -> RuntimeConfig {
    RuntimeConfig::new().record_sched_events(true)
}

/// The first runnable thread, one step per pick, every pending
/// exception delivered at once: round-robin with a slice of one step.
struct OneStep;

impl Decider for OneStep {
    fn choose_thread(&mut self, _runnable: &[ThreadView], _previous: Option<ThreadId>) -> Pick {
        Pick::visible(0)
    }

    fn deliver_now(&mut self, _view: ThreadView) -> bool {
        true
    }
}

/// A runtime under round-robin, or under [`OneStep`] if `one_step`.
fn runtime(one_step: bool) -> Runtime {
    let mut rt = Runtime::with_config(config());
    if one_step {
        rt.set_decider(Box::new(OneStep));
    }
    rt
}

/// Live threads are exactly the table's occupants: nothing a pump
/// returns from may leave the running thread outside its slot.
fn assert_live_threads_resolve(rt: &Runtime) {
    let occupants = rt.threads.iter().filter(|s| s.thread.is_some()).count() as u64;
    let live = u64::from(rt.next_seq) - rt.stats.finished_threads - rt.stats.died_threads;
    assert_eq!(occupants, live, "a live thread is missing from the table");
}

#[test]
fn a_sliced_run_equals_an_uncapped_run() {
    for one_step in [false, true] {
        for stretch in 0..QUANTUM {
            let mut whole = runtime(one_step);
            let expected = whole.run(every_exit(stretch));
            assert_eq!(expected, Ok(5));
            assert_eq!(whole.output(), "yyyym.");
            for epoch in [1, 3, 11, 64] {
                let mut rt = runtime(one_step);
                rt.begin_run(every_exit(stretch).action);
                let mut cap = epoch - 1;
                let result = loop {
                    match rt.pump(cap) {
                        PumpOutcome::Finished(res) => break res,
                        PumpOutcome::Idle { next_wake } => {
                            assert!(next_wake.is_some(), "idle with no sleeper left");
                            assert_live_threads_resolve(&rt);
                            cap += epoch;
                        }
                    }
                };
                let label = format!("one step {one_step}, stretch {stretch}, epoch {epoch}");
                assert_eq!(result.map(i64::from_value_or_panic), expected, "{label}");
                assert_eq!(rt.output(), whole.output(), "{label}");
                assert_eq!(
                    advances_merged(rt.io_trace()),
                    advances_merged(whole.io_trace()),
                    "{label}"
                );
                assert_eq!(rt.stats(), whole.stats(), "{label}");
                assert_eq!(rt.clock(), whole.clock(), "{label}");
            }
        }
    }
}

/// A timeout that does not fire: main kills the timer thread at t=10,
/// before its tick at t=50, which stays in the sleeper queue with
/// nobody to wake (the bystander keeps the queue too full for
/// compaction to evict it), and sleeps on to t=100. The handler runs
/// only if the host interrupts that sleep.
fn unfired_timeout() -> Io<()> {
    Io::fork(Io::sleep(1_000))
        .then(Io::fork(Io::sleep(50).then(Io::put_char('t'))))
        .and_then(|timer| {
            Io::sleep(10)
                .then(Io::throw_to(timer, Exception::kill_thread()))
                .then(Io::sleep(90).catch(|_| Io::sleep(5)))
                .then(Io::put_char('.'))
        })
}

/// The trace with every run of `TimeAdvance`s summed into one.
fn advances_merged(trace: &[IoEvent]) -> Vec<IoEvent> {
    let mut merged: Vec<IoEvent> = Vec::new();
    for &event in trace {
        match (merged.last_mut(), event) {
            (Some(IoEvent::TimeAdvance(sum)), IoEvent::TimeAdvance(d)) => *sum += d,
            _ => merged.push(event),
        }
    }
    merged
}

fn advance_sum(rt: &Runtime) -> u64 {
    let advances = rt.io_trace().iter().map(|e| match e {
        IoEvent::TimeAdvance(d) => *d,
        _ => 0,
    });
    advances.sum()
}

/// Runs [`unfired_timeout`] up to an epoch ending at t=60, between
/// the stale tick and the live one.
fn pumped_to_the_stale_tick() -> Runtime {
    let mut rt = Runtime::with_config(config());
    rt.begin_run(unfired_timeout().action);
    let idle = rt.pump(60);
    assert!(
        matches!(
            idle,
            PumpOutcome::Idle {
                next_wake: Some(100)
            }
        ),
        "{idle:?}"
    );
    // The capped advance stopped *at* the stale tick: under a cap an
    // all-stale tick moves the clock too.
    assert_eq!((rt.clock(), advance_sum(&rt)), (50, 50));
    rt
}

#[test]
fn an_all_stale_tick_splits_a_capped_advance_and_nothing_else() {
    let mut whole = Runtime::with_config(config());
    assert_eq!(whole.run(unfired_timeout()), Ok(()));
    assert_eq!(
        (whole.output(), whole.clock(), advance_sum(&whole)),
        (".", 100, 100)
    );

    let mut rt = pumped_to_the_stale_tick();
    let rest = rt.pump(u64::MAX);
    assert!(
        matches!(rest, PumpOutcome::Finished(Ok(Value::Unit))),
        "{rest:?}"
    );
    assert_eq!(rt.output(), whole.output());
    assert_eq!(rt.stats(), whole.stats());
    assert_eq!((rt.clock(), advance_sum(&rt)), (100, 100));
    // Uncapped, the stale tick's 40 µs are folded into the next live
    // advance; capped, they are an advance of their own.
    assert_ne!(rt.io_trace(), whole.io_trace());
    assert_eq!(
        advances_merged(rt.io_trace()),
        advances_merged(whole.io_trace())
    );
}

#[test]
fn a_timer_filed_right_after_a_capped_stale_pop_is_not_behind_the_cursor() {
    let mut rt = pumped_to_the_stale_tick();
    // Main's handler sleeps: a timer filed at the clock the capped
    // advance left behind, with the queue (bystander, main's dead
    // entry) not empty; its wake and the final clock are pinned.
    rt.host_throw_to(rt.main_thread_id(), Exception::custom("host"));
    let rest = rt.pump(u64::MAX);
    assert!(
        matches!(rest, PumpOutcome::Finished(Ok(Value::Unit))),
        "{rest:?}"
    );
    assert_eq!(rt.output(), ".");
    assert_eq!((rt.clock(), advance_sum(&rt)), (55, 55));
}
