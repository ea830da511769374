//! The paper-adjacent extensions: thunks (§8), alerts (§9), semaphores
//! (§4) and supervision (§11).
//!
//! Run with `cargo run --example extensions`.

use conch::prelude::*;
use conch_combinators::{catch_sync, supervise, Sem, Supervised, Thunk};
use conch_runtime::io::for_each;

fn main() {
    thunks_survive_interruption();
    alerts_vs_exceptions();
    semaphore_pool();
    supervised_service();
}

/// §8: a shared thunk forced by a doomed thread reverts; a later forcer
/// re-evaluates and still gets the value. A thunk that fails on its own
/// becomes sticky.
fn thunks_survive_interruption() {
    let mut rt = Runtime::new();
    let prog = Io::new_mvar(0_i64).and_then(|evals| {
        let body = move || {
            conch_combinators::modify_mvar(evals, |n| Io::pure(n + 1))
                .then(Io::compute(2_000))
                .then(Io::pure("expensive result".to_owned()))
        };
        Thunk::suspend(body, move |t| {
            let t2 = t.clone();
            let doomed = t.force().map(|_| ()).catch(|_| Io::unit());
            Io::<ThreadId>::block(Io::fork(doomed)).and_then(move |f| {
                Io::sleep(0)
                    .then(Io::throw_to(f, Exception::kill_thread()))
                    .then(Io::sleep(100))
                    .then(t2.force())
                    .and_then(move |v| evals.take().map(move |e| (v, e)))
            })
        })
    });
    let (v, evals) = rt.run(prog).unwrap();
    println!("[thunk] value after interrupted force: {v:?} (evaluations: {evals})");
    assert_eq!(v, "expensive result");
}

/// §9: `catch_sync` handles the code's own errors but cannot swallow an
/// interruption — a universal handler that is still kill-safe.
fn alerts_vs_exceptions() {
    let mut rt = Runtime::new();
    let prog = Io::new_empty_mvar::<String>().and_then(|out| {
        let worker = catch_sync(Io::<()>::unblock(Io::compute(1_000_000)), |e| {
            println!("[alerts] sync handler saw: {e} (never printed)");
            Io::unit()
        })
        .map(|_| "finished".to_owned())
        .catch(|e| Io::pure(format!("stopped by {e}")))
        .and_then(move |s| out.put(s));
        Io::<ThreadId>::block(Io::fork(worker))
            .and_then(move |w| Io::throw_to(w, Exception::custom("Shutdown")).then(out.take()))
    });
    let fate = rt.run(prog).unwrap();
    println!("[alerts] worker with universal catch_sync: {fate}");
    assert_eq!(fate, "stopped by Shutdown");
}

/// §4: a 3-unit semaphore gates 10 workers; peak concurrency never
/// exceeds 3, and exceptions cannot leak units thanks to `Sem::with`.
fn semaphore_pool() {
    let mut rt = Runtime::new();
    let prog = Sem::new(3).and_then(|sem| {
        Io::new_mvar(0_i64).and_then(move |inside| {
            Io::new_mvar(0_i64).and_then(move |peak| {
                Io::new_empty_mvar().and_then(move |done| {
                    for_each(10, move |i| {
                        let job = sem.with(move || {
                            conch_combinators::modify_mvar(inside, |n| Io::pure(n + 1))
                                .then(conch_combinators::with_mvar(inside, move |n| {
                                    conch_combinators::modify_mvar(peak, move |p| {
                                        Io::pure(p.max(n))
                                    })
                                    .then(Io::pure(n))
                                }))
                                .then(Io::sleep(50 + i * 3))
                                .then(conch_combinators::modify_mvar(inside, |n| Io::pure(n - 1)))
                                .then(Io::pure(0_i64))
                        });
                        Io::fork(job.then(done.put(())))
                    })
                    .then(for_each(10, move |_| done.take()))
                    .then(peak.take())
                    .and_then(move |p| sem.available().map(move |a| (p, a)))
                })
            })
        })
    });
    let (peak, available) = rt.run(prog).unwrap();
    println!(
        "[sem]   10 jobs through a 3-unit pool: peak concurrency {peak}, units back: {available}"
    );
    assert!(peak <= 3);
    assert_eq!(available, 3);
}

/// §11: a flaky service under supervision — restarted through its own
/// crashes, but still terminable from outside.
fn supervised_service() {
    let mut rt = Runtime::new();
    let prog = Io::new_mvar(0_i64).and_then(|attempts| {
        supervise(10, move || {
            conch_combinators::modify_mvar_with(attempts, |n| Io::pure((n + 1, n + 1))).and_then(
                |n| {
                    if n < 4 {
                        Io::throw(Exception::error_call(format!("crash #{n}")))
                    } else {
                        Io::pure(n)
                    }
                },
            )
        })
        .and_then(move |outcome| attempts.take().map(move |a| (outcome, a)))
    });
    let (outcome, attempts) = rt.run(prog).unwrap();
    match outcome {
        Supervised::Finished(n) => {
            println!("[super] service came up on attempt {n} (total attempts: {attempts})");
            assert_eq!(n, 4);
        }
        Supervised::GaveUp(e) => panic!("supervision gave up: {e}"),
    }
}
