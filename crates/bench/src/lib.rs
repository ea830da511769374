//! Shared workload builders for the benchmark suite.
//!
//! Each function builds one of the workloads named in DESIGN.md's
//! experiment index (B1–B7, S1); the Criterion benches in `benches/`
//! sweep their parameters. Keeping the builders here lets the
//! experiment-table generator and the benches share exactly the same
//! code paths.

use conch_actors::{spawn_actor_on, Mailbox};
use conch_combinators::{modify_mvar, modify_mvar_naive, timeout};
use conch_explore::{ExploreConfig, Explorer, Reduction, Report, RunOutcome, Strategy, TestCase};
use conch_httpd::client::good_client;
use conch_httpd::http::Response;
use conch_httpd::net::Listener;
use conch_httpd::parallel::{wall_parallel_load, WallConfig};
use conch_httpd::pool::{start_pooled, PoolConfig};
use conch_httpd::server::{handler, start, Handler, ServerConfig, StatsSnapshot};
use conch_httpd::shard::{sharded_load, sharded_load_skewed, LoadConfig};
use conch_runtime::io::{for_each, sequence, Io};
use conch_runtime::prelude::*;
use conch_runtime::timer::{TimerEntry, TimerWheel};

/// B1: a mask-recursive loop — `block (…; unblock (…; block …))` — of
/// the §8.1 shape, `n` levels deep. With frame collapse the stack stays
/// O(1); without it, O(n).
pub fn mask_recursive_loop(n: u64) -> Io<()> {
    if n == 0 {
        Io::unit()
    } else {
        Io::<()>::block(Io::<()>::unblock(
            Io::unit().and_then(move |_| mask_recursive_loop(n - 1)),
        ))
    }
}

/// Runs a program on a fresh runtime with the given config; panics on
/// error (benches must not silently fail).
pub fn run<T: FromValue>(config: RuntimeConfig, io: Io<T>) -> (T, Runtime) {
    let mut rt = Runtime::with_config(config);
    let v = rt.run(io).expect("bench workload must succeed");
    (v, rt)
}

/// B2: kill a victim and wait for confirmation, with the asynchronous
/// `throwTo` plus an MVar acknowledgement.
pub fn kill_round_async() -> Io<()> {
    Io::new_empty_mvar::<i64>().and_then(|ack| {
        let victim = Io::<()>::unblock(Io::compute(u64::MAX)).catch(move |_| ack.put(1));
        Io::<ThreadId>::block(Io::fork(victim)).and_then(move |v| {
            Io::throw_to(v, Exception::kill_thread())
                .then(ack.take())
                .map(|_| ())
        })
    })
}

/// B2: the same round with the §9 synchronous `throwTo` (its return is
/// already the delivery guarantee, but we keep the ack for symmetry).
pub fn kill_round_sync() -> Io<()> {
    Io::new_empty_mvar::<i64>().and_then(|ack| {
        let victim = Io::<()>::unblock(Io::compute(u64::MAX)).catch(move |_| ack.put(1));
        Io::<ThreadId>::block(Io::fork(victim)).and_then(move |v| {
            Io::throw_to_sync(v, Exception::kill_thread())
                .then(ack.take())
                .map(|_| ())
        })
    })
}

/// B2: fire-and-forget — `n` asynchronous throws at a resilient victim
/// that catches each one and keeps going.
pub fn spray_async(n: u64) -> Io<()> {
    fn resilient(lives: u64) -> Io<()> {
        if lives == 0 {
            Io::unit()
        } else {
            Io::<()>::unblock(Io::compute(u64::MAX)).catch(move |_| resilient(lives - 1))
        }
    }
    Io::<ThreadId>::block(Io::fork(resilient(n))).and_then(move |v| {
        conch_runtime::io::replicate(n, move || {
            Io::throw_to(v, Exception::kill_thread()).then(Io::yield_now())
        })
    })
}

/// B3: a polling victim — computes in chunks of `poll_interval` steps
/// with an explicit safe point between chunks — killed by the parent.
/// Returns once the victim has died. Use with
/// [`DeliveryMode::Polling`](conch_runtime::DeliveryMode).
pub fn polled_victim_round(poll_interval: u64) -> Io<()> {
    fn worker(poll_interval: u64) -> Io<()> {
        Io::compute(poll_interval)
            .then(Io::poll_safe_point())
            .and_then(move |_| worker(poll_interval))
    }
    Io::new_empty_mvar::<i64>().and_then(move |ack| {
        let victim = worker(poll_interval).catch(move |_| ack.put(1));
        Io::fork(victim).and_then(move |v| {
            // Let the victim get going before the kill, so the latency we
            // measure is a mid-computation delivery.
            Io::yield_now()
                .then(Io::throw_to(v, Exception::kill_thread()))
                .then(ack.take())
                .map(|_| ())
        })
    })
}

/// B3 overhead side: pure computation of `total` steps, broken into
/// chunks with a safe point between each — the cost polling imposes even
/// when no exception ever arrives. `chunk = 0` means no polling at all.
pub fn polling_overhead(total: u64, chunk: u64) -> Io<()> {
    if chunk == 0 {
        return Io::compute(total);
    }
    fn go(left: u64, chunk: u64) -> Io<()> {
        if left == 0 {
            Io::unit()
        } else {
            let step = chunk.min(left);
            Io::compute(step)
                .then(Io::poll_safe_point())
                .and_then(move |_| go(left - step, chunk))
        }
    }
    go(total, chunk)
}

/// B4: `n` uncontended take/put pairs on one MVar.
pub fn mvar_uncontended(n: u64) -> Io<i64> {
    Io::new_mvar(0_i64).and_then(move |m| {
        conch_runtime::io::replicate(n, move || m.take().and_then(move |v| m.put(v + 1)))
            .then(m.take())
    })
}

/// B4: the same updates through the §5.2-safe [`modify_mvar`].
pub fn mvar_safe_updates(n: u64) -> Io<i64> {
    Io::new_mvar(0_i64).and_then(move |m| {
        conch_runtime::io::replicate(n, move || modify_mvar(m, |v| Io::pure(v + 1))).then(m.take())
    })
}

/// B4: the same updates through the racy [`modify_mvar_naive`] baseline.
pub fn mvar_naive_updates(n: u64) -> Io<i64> {
    Io::new_mvar(0_i64).and_then(move |m| {
        conch_runtime::io::replicate(n, move || modify_mvar_naive(m, |v| Io::pure(v + 1)))
            .then(m.take())
    })
}

/// B4: a producer/consumer ping-pong across two threads, `n` rounds.
pub fn mvar_pingpong(n: u64) -> Io<()> {
    Io::new_empty_mvar::<i64>().and_then(move |ping| {
        Io::new_empty_mvar::<i64>().and_then(move |pong| {
            let echoer =
                conch_runtime::io::replicate(n, move || ping.take().and_then(move |v| pong.put(v)));
            Io::fork(echoer).and_then(move |_| {
                conch_runtime::io::replicate(n, move || ping.put(1).then(pong.take()))
            })
        })
    })
}

/// B5: `depth` nested timeouts around `work` compute steps. All budgets
/// are generous, so the work always completes; this measures pure
/// combinator overhead.
pub fn nested_timeout_compute(depth: u32, work: u64) -> Io<i64> {
    fn wrap(depth: u32, inner: Io<i64>) -> Io<i64> {
        if depth == 0 {
            inner
        } else {
            wrap(
                depth - 1,
                timeout(1 << 40, inner).map(|r| r.expect("budget generous")),
            )
        }
    }
    wrap(depth, Io::compute_returning(work, 7_i64))
}

/// B6: fork `n` trivial children and wait for all (via a counter MVar).
pub fn fork_join(n: u64) -> Io<i64> {
    Io::new_mvar(0_i64).and_then(move |count| {
        conch_runtime::io::replicate(n, move || Io::fork(modify_mvar(count, |c| Io::pure(c + 1))))
            .then(wait_until(count, n as i64))
            .then(count.take())
    })
}

/// B9: the schedule-exploration workload — three threads, one `MVar`,
/// one `throwTo`: worker 1 increments, worker 2 adds ten, the main
/// thread kills worker 1 somewhere in between and reads the survivor's
/// arithmetic.
pub fn explore_workload() -> Io<i64> {
    Io::new_mvar(0_i64).and_then(|m| {
        Io::fork(
            m.take()
                .and_then(move |n| m.put(n + 1))
                .catch(|_| Io::unit()),
        )
        .and_then(move |w1| {
            Io::fork(
                m.take()
                    .and_then(move |n| m.put(n + 10))
                    .catch(|_| Io::unit()),
            )
            .then(Io::throw_to(w1, Exception::kill_thread()))
            .then(Io::sleep(5))
            .then(m.take())
        })
    })
}

/// B9: one full exploration of [`explore_workload`] at the given
/// preemption bound, returning the coverage report.
pub fn explore_once(preemption_bound: Option<usize>) -> Report {
    let cfg = ExploreConfig {
        max_schedules: 100_000,
        preemption_bound,
        ..ExploreConfig::default()
    };
    let result = Explorer::with_config(cfg)
        .check(|| TestCase::new(explore_workload(), |_: &RunOutcome<i64>| Ok(())));
    result.report().clone()
}

/// B9 explored with the work-stealing parallel engine at the given
/// worker count. Coverage counters are bit-identical to
/// [`explore_once`] for any `workers` (the determinism contract of
/// [`Explorer::check_parallel`]); only wall-clock time changes. A
/// `workers: N` bench row really ran N OS threads, even on a machine
/// with fewer cores.
pub fn explore_once_parallel(preemption_bound: Option<usize>, workers: usize) -> Report {
    let cfg = ExploreConfig {
        max_schedules: 100_000,
        preemption_bound,
        ..ExploreConfig::default()
    };
    let result = Explorer::with_config(cfg).check_parallel(workers, || {
        TestCase::new(explore_workload(), |_: &RunOutcome<i64>| Ok(()))
    });
    result.report().clone()
}

/// X1: the `workers + 1`-thread fan-in with a console log — `workers`
/// one-shot producers each putting into a private `MVar`, while the
/// main thread writes `logs` progress characters to the console before
/// collecting the results. Producer terminations interleave freely
/// with the log writes and with each other; under the conservative
/// footprint relation every such interleaving is a distinct schedule,
/// while the vector-clock race analysis proves the producers
/// independent of the console — the workload where DPOR's sharper
/// dependence relation pays off most.
pub fn log_fanin_workload(workers: u64, logs: u64) -> Io<i64> {
    fn build(i: u64, n: u64, logs: u64, acc: Io<i64>) -> Io<i64> {
        if i == n {
            let mut log = Io::unit();
            for _ in 0..logs {
                log = log.then(Io::put_char('.'));
            }
            return log.then(acc);
        }
        Io::new_empty_mvar::<i64>().and_then(move |resp| {
            Io::fork(resp.put(i as i64 + 1)).then(build(
                i + 1,
                n,
                logs,
                acc.and_then(move |sum| resp.take().map(move |v| sum + v)),
            ))
        })
    }
    build(0, workers, logs, Io::pure(0))
}

/// B9/X1: an `n + 1`-thread MVar pipeline with `throwTo` cancellation —
/// the ≥5-thread exploration workload the DPOR benchmarks measure
/// reduction on. Stage `i` takes from its input MVar, adds one, and
/// puts to its output; the main thread feeds the head, kills the first
/// stage mid-flight (the §5.3 cancellation pattern), and takes from the
/// tail. A stage killed once its handler is installed forwards `-1`, so
/// the pipeline drains and *where* the kill lands decides which value
/// comes out the far end. A kill that lands earlier — before the first
/// stage has run far enough to install its `catch` — kills the stage
/// outright, nothing is ever forwarded, and `tail.take()` deadlocks:
/// not every schedule terminates, and an exhaustive exploration must
/// count the wedged runs as outcomes (the repo benchmark's
/// `explore_dpor` accepts the deadlock for the same program).
pub fn pipeline_workload(stages: u64) -> Io<i64> {
    // One stage: take the value, do private scratch work on the
    // stage's own pre-allocated MVar (independent of every other
    // thread — free for DPOR, a combinatorial liability for the plain
    // DFS), hand off. The scratch MVar is allocated by the main thread
    // before the fork so allocation order is program-ordered, not a
    // race of its own.
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
                        head.put(1)
                            .then(Io::throw_to(w1, Exception::kill_thread()))
                            .then(tail.take())
                    })
                })
            })
        })
    })
}

/// B9/X1: an httpd-style accept loop — a server thread takes requests
/// from a shared queue MVar forever, `clients` forked clients each
/// submit one request, and the main thread shuts the server down with
/// `throwTo` once every request is served (the §11 server shape without
/// the HTTP plumbing). Returns the served total: client `i` contributes
/// `2^i`, so a full run returns `2^clients - 1` on every schedule.
pub fn accept_loop_workload(clients: u64) -> Io<i64> {
    fn server(queue: MVar<i64>, served: MVar<i64>) -> Io<()> {
        queue
            .take()
            .and_then(move |v| served.take().and_then(move |s| served.put(s + v)))
            .and_then(move |_| server(queue, served))
    }
    Io::new_empty_mvar::<i64>().and_then(move |queue| {
        Io::new_mvar(0_i64).and_then(move |served| {
            Io::fork(server(queue, served).catch(|_| Io::unit())).and_then(move |srv| {
                for_each(clients, move |i| Io::fork(queue.put(1 << i)))
                    .then(wait_until(served, (1 << clients) - 1))
                    .then(Io::throw_to(srv, Exception::kill_thread()))
                    .then(served.take())
            })
        })
    })
}

/// One full exploration of an arbitrary workload under an explicit
/// reduction mode and worker count (`workers = 1` uses the sequential
/// engine; more spawn exactly that many threads, so bench rows
/// measure the worker count they claim). The common
/// core of the X1 reduction benchmarks.
pub fn explore_reduced<G>(
    reduction: Reduction,
    preemption_bound: Option<usize>,
    workers: usize,
    workload: G,
) -> Report
where
    G: Fn() -> Io<i64> + Sync,
{
    let cfg = ExploreConfig {
        max_schedules: 2_000_000,
        preemption_bound,
        strategy: Strategy::Exhaustive(reduction),
        ..ExploreConfig::default()
    };
    let explorer = Explorer::with_config(cfg);
    let result = if workers == 1 {
        explorer.check(|| TestCase::new(workload(), |_: &RunOutcome<i64>| Ok(())))
    } else {
        explorer.check_parallel(workers, || {
            TestCase::new(workload(), |_: &RunOutcome<i64>| Ok(()))
        })
    };
    result.report().clone()
}

/// X2: one full exploration of a canonical fault × schedule space from
/// [`conch_faults::spaces`], checking the recovery invariants
/// ([`conch_faults::spaces::holds_invariants`]) on every schedule.
/// DPOR with preemption bound 2 — fault arms and delivery points still
/// branch fully (only preemptive switches are rationed), so fault
/// coverage stays exhaustive while the space converges in
/// milliseconds. Panics on a violation: the bench regenerates verified
/// numbers and must not silently record a failing space.
pub fn explore_fault_space(space: fn() -> Io<(i64, i64, StatsSnapshot)>, workers: usize) -> Report {
    fn check(out: &RunOutcome<(i64, i64, StatsSnapshot)>) -> Result<(), String> {
        match &out.result {
            Ok(v) => conch_faults::spaces::holds_invariants(v),
            Err(e) => Err(format!("run failed: {e:?}")),
        }
    }
    let cfg = ExploreConfig {
        max_schedules: 100_000,
        max_depth: 512,
        step_budget: 100_000,
        preemption_bound: Some(2),
        strategy: Strategy::Exhaustive(Reduction::Dpor),
        ..ExploreConfig::default()
    };
    let explorer = Explorer::with_config(cfg);
    let result = if workers == 1 {
        explorer.check(|| TestCase::new(space(), check))
    } else {
        explorer.check_parallel(workers, move || TestCase::new(space(), check))
    };
    match result {
        conch_explore::CheckResult::Passed(report) => *report,
        conch_explore::CheckResult::Failed(f) => {
            panic!("fault space violated recovery invariants: {}", f.message)
        }
    }
}

/// X4: the known-seeded bugs the PCT sampling rows measure detection
/// on. Both come from the `tests/dpor_equiv.rs` corpus, so the bench
/// numbers describe the same programs the equivalence suite certifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeededBug {
    /// The classic two-thread console race: forked `putChar 'b'` racing
    /// the parent's `putChar 'a'`; the bug fires when the child wins.
    OutputRace,
    /// §7.1 with the acquire *outside* the protected region: a kill
    /// landing right after it leaks the resource (`a` with no `r`).
    BrokenBracket,
}

/// X4: draw `samples` PCT schedules (depth 3, the given seed) against
/// one seeded bug and report `(report, samples_to_first_bug)` —
/// `None` when the budget never hit the bug. The sampler drains the
/// whole budget either way, so every counter in the report is
/// bit-identical for every `workers` (CI asserts 1 vs 4).
pub fn pct_sample_bug(
    bug: SeededBug,
    workers: usize,
    samples: usize,
    seed: u64,
) -> (Report, Option<u64>) {
    fn sample<T: FromValue + 'static>(
        workers: usize,
        samples: usize,
        seed: u64,
        program: impl Fn() -> Io<T> + Sync,
        fail_if: fn(&RunOutcome<T>) -> Option<String>,
    ) -> (Report, Option<u64>) {
        let cfg = ExploreConfig {
            max_schedules: samples,
            max_depth: 512,
            step_budget: 100_000,
            strategy: Strategy::Pct { depth: 3, seed },
            ..ExploreConfig::default()
        };
        let explorer = Explorer::with_config(cfg);
        let factory = || {
            TestCase::new(program(), move |out: &RunOutcome<T>| match fail_if(out) {
                Some(msg) => Err(msg),
                None => Ok(()),
            })
        };
        let result = if workers == 1 {
            explorer.check(factory)
        } else {
            explorer.check_parallel(workers, factory)
        };
        let report = result.report().clone();
        let first = report.first_failing_sample;
        (report, first)
    }
    match bug {
        SeededBug::OutputRace => sample(
            workers,
            samples,
            seed,
            || {
                Io::fork(Io::put_char('b'))
                    .then(Io::put_char('a'))
                    .then(Io::sleep(1))
            },
            |out| (out.output == "ba").then(|| "child won the race".to_owned()),
        ),
        SeededBug::BrokenBracket => sample(
            workers,
            samples,
            seed,
            || {
                let body = Io::put_char('a').map(|_| 0_i64).and_then(|_| {
                    Io::block(
                        Io::unblock(Io::pure(1_i64))
                            .catch(|e| Io::put_char('r').then(Io::throw(e)))
                            .and_then(|v| Io::put_char('r').map(move |_| v)),
                    )
                });
                Io::fork(body.map(|_| ()).catch(|_| Io::unit()))
                    .and_then(|w| Io::throw_to(w, Exception::kill_thread()))
                    .then(Io::sleep(1))
                    .map(|_| 0_i64)
            },
            |out| {
                let a = out.output.matches('a').count();
                let r = out.output.matches('r').count();
                (a != r).then(|| format!("leak: acquired {a}, released {r}"))
            },
        ),
    }
}

/// X3: an actor-ring token pass — `actors` relay actors chained
/// mailbox-to-mailbox, the main thread closing the ring: each lap it
/// injects the token at the head and collects it at the tail, and each
/// relay increments it on the way through. Every relay does exactly
/// `laps` hand-offs, so every schedule terminates, and on all of them
/// the result is `actors * laps` — mailbox backpressure (capacity-1
/// queues) may reorder the polling but never the tokens.
pub fn actor_ring_workload(actors: u64, laps: u64) -> Io<i64> {
    fn relay(mb: Mailbox<i64>, next: Mailbox<i64>, left: u64) -> Io<()> {
        if left == 0 {
            return Io::unit();
        }
        mb.recv()
            .and_then(move |v: i64| next.send(v + 1).then(relay(mb, next, left - 1)))
    }
    fn chain(left: u64, laps: u64, input: Mailbox<i64>) -> Io<Mailbox<i64>> {
        if left == 0 {
            return Io::pure(input);
        }
        Mailbox::<i64>::new(1).and_then(move |out| {
            spawn_actor_on(input, move |mb: Mailbox<i64>| relay(mb, out, laps))
                .and_then(move |_| chain(left - 1, laps, out))
        })
    }
    fn drive(head: Mailbox<i64>, tail: Mailbox<i64>, left: u64, token: i64) -> Io<i64> {
        if left == 0 {
            return Io::pure(token);
        }
        head.send(token)
            .then(tail.recv())
            .and_then(move |v: i64| drive(head, tail, left - 1, v))
    }
    Mailbox::<i64>::new(1).and_then(move |head| {
        chain(actors, laps, head).and_then(move |tail| drive(head, tail, laps, 0))
    })
}

/// X3: one full exploration of the actor ring at the canonical bench
/// size (3 actors, 2 laps), under the same bounds as the fault spaces
/// (DPOR, preemption bound 2 — hand-offs and exception-delivery points
/// still branch fully). Panics if any schedule garbles the token: the
/// bench regenerates verified numbers and must not silently record a
/// failing workload.
pub fn explore_actor_ring(workers: usize) -> Report {
    const ACTORS: u64 = 3;
    const LAPS: u64 = 2;
    fn check(out: &RunOutcome<i64>) -> Result<(), String> {
        match &out.result {
            Ok(v) if *v == (ACTORS * LAPS) as i64 => Ok(()),
            other => Err(format!("ring token garbled: {other:?}")),
        }
    }
    let cfg = ExploreConfig {
        max_schedules: 100_000,
        max_depth: 512,
        step_budget: 100_000,
        preemption_bound: Some(2),
        strategy: Strategy::Exhaustive(Reduction::Dpor),
        ..ExploreConfig::default()
    };
    let explorer = Explorer::with_config(cfg);
    let result = if workers == 1 {
        explorer.check(|| TestCase::new(actor_ring_workload(ACTORS, LAPS), check))
    } else {
        explorer.check_parallel(workers, || {
            TestCase::new(actor_ring_workload(ACTORS, LAPS), check)
        })
    };
    match result {
        conch_explore::CheckResult::Passed(report) => *report,
        conch_explore::CheckResult::Failed(f) => {
            panic!("actor ring violated its invariant: {}", f.message)
        }
    }
}

/// S1 under the supervised pool: the same well-behaved load served by
/// the `conch-actors` worker pool behind the accept loop instead of a
/// fork per connection. The queue is sized to the load so nothing is
/// shed; every request must come back `200`. Returns the quiesced
/// snapshot so callers can record — and CI can assert — that the
/// conservation law (`accepted == outcomes`) survives the pool.
pub fn serve_n_good_pooled(n: u64) -> Io<StatsSnapshot> {
    fn routes() -> Handler {
        handler(|_| Io::pure(Response::ok("ok")))
    }
    let config = PoolConfig {
        queue_capacity: n as i64,
        ..PoolConfig::default()
    };
    Listener::bind().and_then(move |l| {
        start_pooled(l, routes(), config).and_then(move |server| {
            Io::new_empty_mvar::<i64>().and_then(move |report| {
                for_each(n, move |i| {
                    Io::fork(good_client(l, format!("/{i}"), report))
                })
                .then(sequence((0..n).map(|_| report.take()).collect()))
                .and_then(move |codes| {
                    assert!(codes.iter().all(|c| *c == 200));
                    server
                        .plane
                        .shutdown_sync()
                        .then(server.plane.drain())
                        .then(server.plane.stats.snapshot())
                        .and_then(move |snap| server.stop_sync().map(move |_| snap))
                })
            })
        })
    })
}

/// S1: the §11 server answering `n` well-behaved requests, one forked
/// client (and one forked per-connection server thread) per request.
pub fn serve_n_good(n: u64) -> Io<()> {
    fn routes() -> Handler {
        handler(|_| Io::pure(Response::ok("ok")))
    }
    Listener::bind().and_then(move |l| {
        start(l, routes(), ServerConfig::default()).and_then(move |server| {
            Io::new_empty_mvar::<i64>().and_then(move |report| {
                for_each(n, move |i| {
                    Io::fork(good_client(l, format!("/{i}"), report))
                })
                .then(sequence((0..n).map(|_| report.take()).collect()))
                .and_then(move |codes| {
                    assert!(codes.iter().all(|c| *c == 200));
                    server.shutdown().then(server.drain())
                })
            })
        })
    })
}

/// S1 with a realistic arrival process: client `i` connects at virtual
/// time `i * gap_us` instead of everyone piling in at t = 0.
///
/// With simultaneous arrivals the run queue never goes empty, so the
/// virtual clock — which only advances when every thread is waiting on
/// time — stays at 0 for the whole run and "requests per virtual
/// second" is undefined. Paced arrivals give the clock real work to do:
/// the run's virtual duration is deterministic under round-robin
/// scheduling, so the derived throughput is a pinnable number.
pub fn serve_n_good_paced(n: u64, gap_us: u64) -> Io<()> {
    fn routes() -> Handler {
        handler(|_| Io::pure(Response::ok("ok")))
    }
    Listener::bind().and_then(move |l| {
        start(l, routes(), ServerConfig::default()).and_then(move |server| {
            Io::new_empty_mvar::<i64>().and_then(move |report| {
                for_each(n, move |i| {
                    Io::fork(Io::sleep(i * gap_us).then(good_client(l, format!("/{i}"), report)))
                })
                .then(sequence((0..n).map(|_| report.take()).collect()))
                .and_then(move |codes| {
                    assert!(codes.iter().all(|c| *c == 200));
                    server.shutdown().then(server.drain())
                })
            })
        })
    })
}

/// S2: the production-scale sharded plane — `clients` keep-alive
/// connections over `shards` accept shards, each connection carrying
/// `requests_per_conn` pipelined requests in one FIN-terminated frame
/// (`conch_httpd::shard::sharded_load`). Arrivals are paced per shard,
/// so the virtual makespan is `(clients / shards) × gap`: the derived
/// "requests per virtual second" is deterministic and scales linearly
/// with the shard count. Returns the ok-count and the
/// quiescent-aggregate snapshot; panics unless every request was
/// served — the bench must not record a lossy run.
pub fn serve_sharded(clients: usize, shards: usize, requests_per_conn: usize) -> Io<StatsSnapshot> {
    let cfg = LoadConfig {
        clients,
        shards,
        requests_per_conn,
        arrival_gap: 100,
        queue_capacity: 1_024,
        ..LoadConfig::default()
    };
    let want = (clients * requests_per_conn) as i64;
    sharded_load(handler(|_| Io::pure(Response::ok("ok"))), cfg).map(move |(oks, snap)| {
        assert_eq!(oks, want, "every pipelined request must come back 200");
        assert_eq!(snap.served, want, "aggregate must record every serve");
        snap
    })
}

/// S3: [`serve_sharded`] with a skewed arrival pattern — `hot_percent`%
/// of the clients land on shard 0 (`conch_httpd::shard::sharded_load_skewed`).
/// Returns the quiescent aggregate plus the per-shard snapshots whose
/// `accepted` counters expose the imbalance; panics unless every request
/// was served and the aggregate conserves, so the skew costs no
/// requests — only fairness.
pub fn serve_sharded_skewed(
    clients: usize,
    shards: usize,
    requests_per_conn: usize,
    hot_percent: usize,
) -> Io<(StatsSnapshot, Vec<StatsSnapshot>)> {
    let cfg = LoadConfig {
        clients,
        shards,
        requests_per_conn,
        arrival_gap: 100,
        queue_capacity: 1_024,
        ..LoadConfig::default()
    };
    let want = (clients * requests_per_conn) as i64;
    sharded_load_skewed(handler(|_| Io::pure(Response::ok("ok"))), cfg, hot_percent).map(
        move |(oks, agg, per_shard)| {
            assert_eq!(oks, want, "skewed load must still serve every request");
            assert_eq!(agg.served, want, "skewed aggregate must record every serve");
            assert!(agg.conserved(), "skewed aggregate must conserve");
            (agg, per_shard)
        },
    )
}

/// W1: the wall-clock parallel plane — `shards` independent schedulers
/// spread over `os_threads` OS threads
/// (`conch_httpd::parallel::wall_parallel_load`). Panics unless every
/// request was served, the channel-plane aggregate conserves, and the
/// merged snapshot that travelled through the cross-shard channels
/// equals the host-side re-merge — so the bench numbers are only ever
/// recorded for a run the determinism machinery fully validated.
pub fn serve_wall_parallel(
    clients: usize,
    shards: usize,
    requests_per_conn: usize,
    os_threads: usize,
) -> conch_httpd::parallel::WallReport {
    let cfg = WallConfig {
        shards,
        clients,
        requests_per_conn,
        os_threads,
        ..WallConfig::default()
    };
    let report = wall_parallel_load(|| handler(|_| Io::pure(Response::ok("ok"))), cfg);
    let want = (clients * requests_per_conn) as i64;
    assert_eq!(report.oks, want, "wall plane must serve every request");
    assert_eq!(report.merged.served, want);
    assert!(report.merged.conserved(), "wall aggregate must conserve");
    assert_eq!(
        report.merged,
        report.host_merged(),
        "channel-plane aggregate must equal the host-side re-merge"
    );
    report
}

/// T1: the timer-wheel churn microbench, production-shaped: `standing`
/// far-future entries model idle keep-alive connection timers (they
/// never fire), and `cycles` ticks each insert `batch` near-term
/// entries and then expire them together — the batched-wakeup shape the
/// scheduler produces when a whole tick of sleepers becomes runnable at
/// one `advance_clock`. The old `BinaryHeap` pays O(log n) against the
/// standing population on *every* insert and every expiry sift; the
/// hierarchical wheel files each entry in O(1) and drains the tick with
/// one bucket grab, untouched by the standing mass. Returns a checksum
/// (fired-entry payload sum) so the work cannot be optimised away —
/// both implementations must agree on it.
pub fn timer_wheel_churn(standing: u64, cycles: u64, batch: u64) -> u64 {
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    let mut seq = 0_u64;
    for i in 0..standing {
        wheel.insert(
            0,
            TimerEntry {
                wake_at: 1 << 40,
                seq,
                payload: i,
            },
        );
        seq += 1;
    }
    let mut out = Vec::new();
    let mut sum = 0_u64;
    for i in 0..cycles {
        let now = i;
        for b in 0..batch {
            wheel.insert(
                now,
                TimerEntry {
                    wake_at: now + 1,
                    seq,
                    payload: i.wrapping_mul(batch).wrapping_add(b),
                },
            );
            seq += 1;
        }
        // The whole batch is due at `now + 1`; the standing mass stays
        // filed in the top levels and is never touched.
        let wake = wheel.pop_earliest_into(&mut out).expect("a due tick");
        debug_assert_eq!(wake, now + 1);
        for e in out.drain(..) {
            sum = sum.wrapping_add(e.payload);
        }
    }
    sum
}

/// T1 baseline: the identical workload through the scheduler's old
/// sleeper structure — a `BinaryHeap` of `(wake_at, seq)`-ordered
/// entries popped one sift at a time. Same checksum as
/// [`timer_wheel_churn`].
pub fn timer_heap_churn(standing: u64, cycles: u64, batch: u64) -> u64 {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
    let mut seq = 0_u64;
    for i in 0..standing {
        heap.push(Reverse((1 << 40, seq, i)));
        seq += 1;
    }
    let mut sum = 0_u64;
    for i in 0..cycles {
        let now = i;
        for b in 0..batch {
            heap.push(Reverse((
                now + 1,
                seq,
                i.wrapping_mul(batch).wrapping_add(b),
            )));
            seq += 1;
        }
        while let Some(Reverse((wake, _, payload))) = heap.peek().copied() {
            if wake > now + 1 {
                break;
            }
            heap.pop();
            sum = sum.wrapping_add(payload);
        }
    }
    sum
}

/// Polls (sleeping) until the counter reaches `target`.
pub fn wait_until(count: conch_runtime::MVar<i64>, target: i64) -> Io<()> {
    conch_combinators::with_mvar(count, Io::pure).and_then(move |c| {
        if c >= target {
            Io::unit()
        } else {
            Io::sleep(10).then(wait_until(count, target))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_run_clean() {
        let cfg = RuntimeConfig::new;
        assert_eq!(run(cfg(), mvar_uncontended(10)).0, 10);
        assert_eq!(run(cfg(), mvar_safe_updates(10)).0, 10);
        assert_eq!(run(cfg(), mvar_naive_updates(10)).0, 10);
        run(cfg(), mvar_pingpong(5));
        run(cfg(), mask_recursive_loop(50));
        run(cfg(), kill_round_async());
        run(cfg(), kill_round_sync());
        run(cfg(), spray_async(5));
        assert_eq!(run(cfg(), nested_timeout_compute(3, 100)).0, 7);
        assert_eq!(run(cfg(), fork_join(10)).0, 10);
        run(cfg(), polling_overhead(500, 50));
        let polling = RuntimeConfig::new().delivery_mode(DeliveryMode::Polling);
        run(polling, polled_victim_round(50));
    }

    #[test]
    fn actor_and_pool_workloads_run_clean() {
        let cfg = RuntimeConfig::new;
        assert_eq!(run(cfg(), actor_ring_workload(3, 2)).0, 6);
        let snap = run(cfg(), serve_n_good_pooled(10)).0;
        assert_eq!(snap.served, 10);
        assert!(snap.conserved(), "{snap:?}");
    }

    #[test]
    fn sharded_workload_runs_clean_and_conserves() {
        let snap = run(RuntimeConfig::new(), serve_sharded(24, 4, 5)).0;
        assert_eq!(snap.accepted, 120);
        assert!(snap.conserved(), "{snap:?}");
    }

    #[test]
    fn timer_churn_checksums_agree() {
        assert_eq!(
            timer_wheel_churn(1_000, 2_000, 8),
            timer_heap_churn(1_000, 2_000, 8)
        );
    }

    /// Prints wheel-vs-heap ratios across batch sizes; run with
    /// `cargo test --release -p conch-bench timer_churn_timing -- --ignored --nocapture`.
    #[test]
    #[ignore = "timing probe, release-only"]
    fn timer_churn_timing() {
        for batch in [1_u64, 8, 32, 64] {
            let cycles = 2_000_000 / batch;
            let t0 = std::time::Instant::now();
            let w = timer_wheel_churn(100_000, cycles, batch);
            let tw = t0.elapsed().as_secs_f64();
            let t1 = std::time::Instant::now();
            let h = timer_heap_churn(100_000, cycles, batch);
            let th = t1.elapsed().as_secs_f64();
            assert_eq!(w, h);
            println!(
                "batch {batch:3}: wheel {tw:.3}s heap {th:.3}s ratio {:.2}",
                th / tw
            );
        }
    }

    #[test]
    fn mask_loop_collapse_shape() {
        let (_, rt) = run(RuntimeConfig::new(), mask_recursive_loop(200));
        let with = rt.stats().max_mask_frames;
        let (_, rt2) = run(
            RuntimeConfig::new().collapse_mask_frames(false),
            mask_recursive_loop(200),
        );
        let without = rt2.stats().max_mask_frames;
        assert!(with <= 2, "collapse keeps mask frames O(1), got {with}");
        assert!(
            without >= 200,
            "no collapse grows mask frames O(n), got {without}"
        );
    }

    #[test]
    fn polling_latency_grows_with_interval() {
        let lat = |interval: u64| {
            let cfg = RuntimeConfig::new().delivery_mode(DeliveryMode::Polling);
            let (_, rt) = run(cfg, polled_victim_round(interval));
            rt.stats().mean_delivery_latency().expect("one delivery")
        };
        let fast = lat(10);
        let slow = lat(1_000);
        assert!(
            slow > fast * 5.0,
            "polling latency must scale with poll interval: {fast} vs {slow}"
        );
        // Fully-async latency is independent of any interval and small.
        let (_, rt) = run(RuntimeConfig::new(), kill_round_async());
        let async_lat = rt.stats().mean_delivery_latency().expect("one delivery");
        assert!(
            async_lat < fast.max(20.0) * 3.0,
            "async latency {async_lat}"
        );
    }
}
