//! The paper's design claims as exact counts (EXPERIMENTS.md B1–B5).
//!
//! The paper has no timing tables: what it says about §8.1 frame
//! collapse, §9 synchronous `throwTo`, §2/§10 polling, §5.1 safe locking
//! and §7.3 nested timeouts are shapes in frames, forks and interpreter
//! steps, which this interpreter reproduces exactly on any machine. The
//! wall-clock side of the same operations is the benchmark's probes.

use conch_combinators::{modify_mvar, modify_mvar_naive, timeout};
use conch_pins as pins;
use conch_runtime::io::replicate;
use conch_runtime::prelude::*;
use conch_runtime::{FromValue, Stats};

fn run<T: FromValue>(config: RuntimeConfig, io: Io<T>) -> (T, Stats) {
    let mut rt = Runtime::with_config(config);
    let v = rt.run(io).expect("ablation program must succeed");
    (v, rt.stats().clone())
}

fn polling() -> RuntimeConfig {
    RuntimeConfig::new().delivery_mode(DeliveryMode::Polling)
}

// B1 — §8.1: "the stack grows by two frames per iteration" without the
// collapse, constant space with it.

/// `block (…; unblock (…; block …))` in tail position, `n` levels deep.
fn mask_recursive_loop(n: u64) -> Io<()> {
    if n == 0 {
        Io::unit()
    } else {
        Io::<()>::block(Io::<()>::unblock(
            Io::unit().and_then(move |_| mask_recursive_loop(n - 1)),
        ))
    }
}

#[test]
fn b1_mask_loop_holds_one_frame_collapsed_and_two_per_level_uncollapsed() {
    for n in [100_u64, 1_000, 10_000] {
        let on = run(RuntimeConfig::new(), mask_recursive_loop(n)).1;
        let off = run(
            RuntimeConfig::new().collapse_mask_frames(false),
            mask_recursive_loop(n),
        )
        .1;
        assert_eq!(on.max_mask_frames, 1, "n={n}");
        assert_eq!(off.max_mask_frames as u64, 2 * n, "n={n}");
        // One avoided push per iteration; the other is the frame the
        // loop keeps.
        assert_eq!(on.mask_frames_collapsed, n, "n={n}");
        assert_eq!(off.mask_frames_collapsed, 0, "n={n}");
        // A frame never pushed is never popped: two steps an iteration.
        assert_eq!(
            on.steps,
            pins::B1_STEPS_PER_LEVEL_COLLAPSED * n + 2,
            "n={n}"
        );
        assert_eq!(
            off.steps,
            pins::B1_STEPS_PER_LEVEL_UNCOLLAPSED * n + 2,
            "n={n}"
        );
    }
}

// B2 — §9: synchronous vs asynchronous `throwTo`.

type Throw = fn(ThreadId, Exception) -> Io<()>;

/// Kill a victim mid-computation and wait for its handler's receipt.
fn kill_and_confirm(throw: Throw) -> Io<()> {
    Io::new_empty_mvar::<i64>().and_then(move |ack| {
        let victim = Io::<()>::unblock(Io::compute(u64::MAX)).catch(move |_| ack.put(1));
        Io::<ThreadId>::block(Io::fork(victim)).and_then(move |v| {
            throw(v, Exception::kill_thread())
                .then(ack.take())
                .map(|_| ())
        })
    })
}

/// Fire-and-forget: `n` throws at a victim that catches each one and
/// keeps going, the thrower never waiting for receipt.
fn spray(n: u64, throw: Throw) -> Io<()> {
    fn resilient(lives: u64) -> Io<()> {
        if lives == 0 {
            Io::unit()
        } else {
            Io::<()>::unblock(Io::compute(u64::MAX)).catch(move |_| resilient(lives - 1))
        }
    }
    Io::<ThreadId>::block(Io::fork(resilient(n))).and_then(move |v| {
        replicate(n, move || {
            throw(v, Exception::kill_thread()).then(Io::yield_now())
        })
    })
}

/// §9: "the asynchronous version can easily be implemented in terms of
/// the synchronous one simply by forking a new thread".
fn sync_via_fork(v: ThreadId, e: Exception) -> Io<()> {
    Io::fork(Io::throw_to_sync(v, e)).map(|_| ())
}

/// A confirmed kill costs the same in both designs: the asynchronous one
/// pays for the acknowledgement what the synchronous one pays for the
/// rendezvous.
#[test]
fn b2_kill_and_confirm_costs_the_same_steps_in_both_designs() {
    let asynchronous = run(RuntimeConfig::new(), kill_and_confirm(Io::throw_to)).1;
    let synchronous = run(RuntimeConfig::new(), kill_and_confirm(Io::throw_to_sync)).1;
    let steps = pins::B2_KILL_AND_CONFIRM_STEPS;
    assert_eq!((asynchronous.steps, asynchronous.forks), (steps, 1));
    assert_eq!((synchronous.steps, synchronous.forks), (steps, 1));
}

/// Fire-and-forget is where the designs part: encoding it on the
/// synchronous primitive costs a thread per signal — 17 steps a throw
/// against 22, and `n` extra forks.
#[test]
fn b2_fire_and_forget_via_sync_costs_a_fork_and_five_steps_per_throw() {
    for (n, (async_steps, sync_steps)) in [10, 100].into_iter().zip(pins::B2_SPRAY_STEPS) {
        let asynchronous = run(RuntimeConfig::new(), spray(n, Io::throw_to)).1;
        let via_fork = run(RuntimeConfig::new(), spray(n, sync_via_fork)).1;
        assert_eq!((asynchronous.steps, asynchronous.forks), (async_steps, 1));
        assert_eq!((via_fork.steps, via_fork.forks), (sync_steps, 1 + n));
    }
}

// B3 — §2/§10: fully asynchronous delivery vs polling.

/// A victim that computes in chunks of `interval` steps with a safe
/// point between chunks, killed by its parent once it is under way.
fn polled_victim_round(interval: u64) -> Io<()> {
    fn worker(interval: u64) -> Io<()> {
        Io::compute(interval)
            .then(Io::poll_safe_point())
            .and_then(move |_| worker(interval))
    }
    Io::new_empty_mvar::<i64>().and_then(move |ack| {
        let victim = worker(interval).catch(move |_| ack.put(1));
        Io::fork(victim).and_then(move |v| {
            Io::yield_now()
                .then(Io::throw_to(v, Exception::kill_thread()))
                .then(ack.take())
                .map(|_| ())
        })
    })
}

/// `total` steps of pure computation with a safe point every `chunk`
/// steps — what polling costs when no exception ever arrives.
fn polled_compute(total: u64, chunk: u64) -> Io<()> {
    if total == 0 {
        return Io::unit();
    }
    let step = chunk.min(total);
    Io::compute(step)
        .then(Io::poll_safe_point())
        .and_then(move |_| polled_compute(total - step, chunk))
}

/// Steps from `throwTo` to the raise: flat under full asynchrony, the
/// poll interval (less the four steps the victim was already into its
/// chunk) under polling.
#[test]
fn b3_delivery_latency_is_flat_when_asynchronous_and_the_interval_when_polled() {
    let latency = |config: RuntimeConfig, io: Io<()>| {
        let stats = run(config, io).1;
        stats.mean_delivery_latency().expect("one delivery")
    };
    let fully_async = RuntimeConfig::new;
    let flat = pins::B3_ASYNC_LATENCY_STEPS;
    assert_eq!(latency(fully_async(), kill_and_confirm(Io::throw_to)), flat);
    let intervals = [10, 100, 1_000, 10_000];
    for (interval, polled) in intervals.into_iter().zip(pins::B3_POLLED_LATENCY_STEPS) {
        assert_eq!(latency(fully_async(), polled_victim_round(interval)), flat);
        assert_eq!(latency(polling(), polled_victim_round(interval)), polled);
    }
}

/// The tax with no exception in sight: five steps per safe point on a
/// 100 000-step computation — +50 %, +5 %, +0.5 % at poll-every 10, 100,
/// 1 000 — so low latency and low tax cannot be had together.
#[test]
fn b3_polling_taxes_pure_computation_five_steps_per_safe_point() {
    const TOTAL: u64 = 100_000;
    let unpolled = run(RuntimeConfig::new(), Io::compute(TOTAL)).1;
    assert_eq!(unpolled.steps, TOTAL + 1);
    for (chunk, total) in [10, 100, 1_000]
        .into_iter()
        .zip(pins::B3_POLLED_COMPUTE_STEPS)
    {
        assert_eq!(run(polling(), polled_compute(TOTAL, chunk)).1.steps, total);
        assert_eq!(total, TOTAL + 2 + 5 * (TOTAL / chunk));
    }
}

// B4 — §5.1: what exception safety costs an MVar update.

type Update = fn(MVar<i64>) -> Io<()>;

fn updates(n: u64, update: Update) -> Io<i64> {
    Io::new_mvar(0_i64).and_then(move |m| replicate(n, move || update(m)).then(m.take()))
}

/// Steps per update: raw, with the naive `catch`, and with the
/// §5.2-safe `block` + `catch` + `unblock`.
#[test]
fn b4_steps_per_update_raw_naive_and_safe() {
    let styles: [Update; 3] = [
        |m| m.take().and_then(move |v| m.put(v + 1)),
        |m| modify_mvar_naive(m, |v| Io::pure(v + 1)),
        |m| modify_mvar(m, |v| Io::pure(v + 1)),
    ];
    for (update, per_update) in styles.into_iter().zip(pins::B4_STEPS_PER_UPDATE) {
        let (value, stats) = run(RuntimeConfig::new(), updates(1_000, update));
        assert_eq!(value, 1_000);
        assert_eq!(stats.steps, 8 + 1_000 * per_update);
    }
}

// B5 — §7.3: timeouts nest at a constant cost per level.

/// `depth` nested timeouts, all generous, around `work` compute steps.
fn nested_timeouts(depth: u32, work: u64) -> Io<i64> {
    (0..depth).fold(Io::compute_returning(work, 7_i64), |inner, _| {
        timeout(1 << 40, inner).map(|r| r.expect("budget generous"))
    })
}

/// The same steps and two forks per level at every depth: linear, no
/// interference, and the timed computation itself is untouched.
#[test]
fn b5_each_timeout_level_costs_the_same_steps() {
    for depth in [0, 1, 2, 4, 8] {
        let (value, stats) = run(RuntimeConfig::new(), nested_timeouts(depth, 1_000));
        assert_eq!(value, 7);
        let per_level = pins::B5_STEPS_PER_TIMEOUT_LEVEL;
        assert_eq!(
            stats.steps,
            1_001 + per_level * u64::from(depth),
            "depth={depth}"
        );
        assert_eq!(stats.forks, 2 * u64::from(depth), "depth={depth}");
    }
}
