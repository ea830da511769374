//! Program builders shared by the workloads and the probes.
//!
//! The four explorer programs restate builders from
//! `crates/bench/src/lib.rs`: they are copied, not imported, so that
//! folding `conch-bench` cannot move the instrument.

use conch_combinators::Chan;
use conch_runtime::prelude::*;
use conch_runtime::MVar;

/// Receives `n` values from `chan`, in arrival order.
pub fn recv_n<T: FromValue + IntoValue + 'static>(chan: Chan<T>, n: usize) -> Io<Vec<T>> {
    fn go<T: FromValue + IntoValue + 'static>(
        chan: Chan<T>,
        left: usize,
        mut acc: Vec<T>,
    ) -> Io<Vec<T>> {
        if left == 0 {
            return Io::pure(acc);
        }
        chan.recv().and_then(move |v| {
            acc.push(v);
            go(chan, left - 1, acc)
        })
    }
    go(chan, n, Vec::with_capacity(n))
}

/// §8.1: `block (unblock (block …))`, `n` levels deep. With frame
/// collapse the mask-frame stack stays O(1).
pub fn mask_recursive_loop(n: u64) -> Io<()> {
    if n == 0 {
        Io::unit()
    } else {
        Io::<()>::block(Io::<()>::unblock(
            Io::unit().and_then(move |_| mask_recursive_loop(n - 1)),
        ))
    }
}

/// Kill a computing victim with the asynchronous `throwTo` and wait for
/// its handler's acknowledgement.
pub fn kill_round() -> Io<()> {
    Io::new_empty_mvar::<i64>().and_then(|ack| {
        let victim = Io::<()>::unblock(Io::compute(u64::MAX)).catch(move |_| ack.put(1));
        Io::<ThreadId>::block(Io::fork(victim)).and_then(move |v| {
            Io::throw_to(v, Exception::kill_thread())
                .then(ack.take())
                .map(|_| ())
        })
    })
}

/// Log fan-in: `values.len()` one-shot producers each put into a
/// private `MVar` while the main thread writes `logs` console
/// characters and then sums the results. DPOR proves the producers
/// independent of the console; weaker reductions enumerate every
/// interleaving.
pub fn log_fanin(values: Vec<i64>, logs: u64) -> Io<i64> {
    fn build(mut rest: std::vec::IntoIter<i64>, logs: u64, acc: Io<i64>) -> Io<i64> {
        let Some(v) = rest.next() else {
            let mut log = Io::unit();
            for _ in 0..logs {
                log = log.then(Io::put_char('.'));
            }
            return log.then(acc);
        };
        Io::new_empty_mvar::<i64>().and_then(move |resp| {
            Io::fork(resp.put(v)).then(build(
                rest,
                logs,
                acc.and_then(move |sum| resp.take().map(move |v| sum + v)),
            ))
        })
    }
    build(values.into_iter(), logs, Io::pure(0))
}

/// An MVar pipeline with `throwTo` cancellation: stage `i` takes, adds
/// one (through a private scratch `MVar`), hands on; the main thread
/// feeds `seed_value`, kills the first stage mid-flight and takes from
/// the tail. A killed stage forwards `-1` — unless the kill lands before
/// it has installed its handler, in which case the pipeline wedges.
pub fn pipeline(stages: u64, seed_value: i64) -> Io<i64> {
    fn stage(input: MVar<i64>, scratch: MVar<i64>, out: MVar<i64>) -> Io<()> {
        input
            .take()
            .and_then(move |v| {
                scratch
                    .put(v + 1)
                    .then(scratch.take())
                    .and_then(move |v| out.put(v))
            })
            .catch(move |_| out.put(-1).catch(|_| Io::unit()))
    }
    fn extend(input: MVar<i64>, left: u64) -> Io<MVar<i64>> {
        if left == 0 {
            return Io::pure(input);
        }
        Io::new_empty_mvar::<i64>().and_then(move |out| {
            Io::new_empty_mvar::<i64>().and_then(move |scratch| {
                Io::fork(stage(input, scratch, out)).then(extend(out, left - 1))
            })
        })
    }
    Io::new_empty_mvar::<i64>().and_then(move |head| {
        Io::new_empty_mvar::<i64>().and_then(move |m1| {
            Io::new_empty_mvar::<i64>().and_then(move |s1| {
                Io::fork(stage(head, s1, m1)).and_then(move |w1| {
                    extend(m1, stages - 1).and_then(move |tail| {
                        head.put(seed_value)
                            .then(Io::throw_to(w1, Exception::kill_thread()))
                            .then(tail.take())
                    })
                })
            })
        })
    })
}

/// B9: three threads, one `MVar`, one `throwTo` — worker 1 adds `a`,
/// worker 2 adds `b`, the main thread kills worker 1 somewhere in
/// between and reads what survived.
pub fn three_thread_throwto(a: i64, b: i64) -> Io<i64> {
    Io::new_mvar(0_i64).and_then(move |m| {
        Io::fork(
            m.take()
                .and_then(move |n| m.put(n + a))
                .catch(|_| Io::unit()),
        )
        .and_then(move |w1| {
            Io::fork(
                m.take()
                    .and_then(move |n| m.put(n + b))
                    .catch(|_| Io::unit()),
            )
            .then(Io::throw_to(w1, Exception::kill_thread()))
            .then(Io::sleep(5))
            .then(m.take())
        })
    })
}

/// §7.1 with the acquire *outside* the protected region: a kill landing
/// right after it leaks the resource (`acquire` printed, `release`
/// not). The seeded bug the explorer must find and shrink.
pub fn broken_bracket(acquire: char, release: char) -> Io<i64> {
    let body = Io::put_char(acquire).map(|_| 0_i64).and_then(move |_| {
        Io::block(
            Io::unblock(Io::pure(1_i64))
                .catch(move |e| Io::put_char(release).then(Io::throw(e)))
                .and_then(move |v| Io::put_char(release).map(move |_| v)),
        )
    });
    Io::fork(body.map(|_| ()).catch(|_| Io::unit()))
        .and_then(|w| Io::throw_to(w, Exception::kill_thread()))
        .then(Io::sleep(1))
        .map(|_| 0_i64)
}
