//! `probe.*` — direct timed calls into each layer's public functions,
//! made during the traced run.
//!
//! A probe runs one small operation in a loop on a fresh `Runtime` and
//! reports its cost per operation, with the cost of the loop itself
//! (one `for_each` iteration) subtracted. The `_ns` figure is the
//! fastest of three batches; the matching `_steps` figure is the
//! interpreter-step count of one operation, which is exact and repeats
//! bit-for-bit.

use std::hint::black_box;
use std::time::Instant;

use conch_actors::Mailbox;
use conch_combinators::{both, bracket, modify_mvar, race, timeout, Chan};
use conch_httpd::http::{parse_request, Request, Response};
use conch_httpd::net::FrameConnection;
use conch_runtime::io::for_each;
use conch_runtime::prelude::*;
use conch_runtime::timer::{TimerEntry, TimerWheel};
use conch_runtime::Stats;

use crate::span::Tracer;
use crate::workloads::programs::{kill_round, mask_recursive_loop};
use crate::workloads::Size;

const BATCHES: usize = 3;

/// Fastest of [`BATCHES`] timings of `f`, in seconds.
fn fastest_of(mut f: impl FnMut()) -> f64 {
    (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Runs `program` on a fresh runtime: `(fastest seconds, stats)`.
fn run_io(program: &dyn Fn() -> Io<()>) -> (f64, Stats) {
    let mut stats = Stats::default();
    let secs = fastest_of(|| {
        let mut rt = Runtime::with_config(RuntimeConfig::new());
        rt.run(program()).expect("probe programs never fail");
        stats = rt.stats().clone();
    });
    (secs, stats)
}

/// Cost of one `for_each` iteration around a no-op body: what every
/// looped probe pays on top of the operation it measures.
struct LoopCost {
    ns: f64,
    steps: f64,
}

/// A looped probe: `program(n)` sets up whatever the operation needs
/// and performs it `n` times. Returns `(ns, steps)` per operation.
fn looped(n: u64, base: &LoopCost, program: fn(u64) -> Io<()>) -> (f64, f64) {
    let (secs, stats) = run_io(&|| program(n));
    let (_, fixed) = run_io(&|| program(0));
    let steps = (stats.steps - fixed.steps) as f64 / n as f64;
    (
        (secs * 1e9 / n as f64 - base.ns).max(0.0),
        (steps - base.steps).max(0.0),
    )
}

fn empty_loop(n: u64) -> Io<()> {
    for_each(n, |_| Io::unit())
}

fn timer_wheel_churn(size: Size) -> f64 {
    const STANDING: u64 = 100_000;
    const BATCH: u64 = 8;
    let cycles = iterations(20_000, size);
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    let mut seq = 0;
    for i in 0..STANDING {
        let entry = TimerEntry {
            wake_at: 1 << 40,
            seq,
            payload: i,
        };
        wheel.insert(0, entry);
        seq += 1;
    }
    let mut now = 0;
    let mut out = Vec::new();
    let secs = fastest_of(|| {
        let mut sum = 0_u64;
        for _ in 0..cycles {
            for b in 0..BATCH {
                let entry = TimerEntry {
                    wake_at: now + 1,
                    seq,
                    payload: b,
                };
                wheel.insert(now, entry);
                seq += 1;
            }
            now = wheel.pop_earliest_into(&mut out).expect("a due tick");
            sum += out.drain(..).map(|e| e.payload).sum::<u64>();
        }
        black_box(sum);
    });
    secs * 1e9 / (cycles * BATCH) as f64
}

/// Loop length of a probe: the stated count, or a fiftieth of it at
/// smoke size (the `_steps` figures are per operation and do not move).
fn iterations(full: u64, size: Size) -> u64 {
    size.pick(full, full / 50)
}

/// Every `probe.*` metric, by its full name. Each probe is recorded as
/// a span named after its metric.
pub fn run(tracer: &Tracer, size: Size) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let _all = tracer.span("probes");

    // The interpreter: a long pure computation, and the bare bind loop.
    let base = {
        let _s = tracer.span("runtime.interp.probe.compute_ns_per_step");
        let (secs, stats) = run_io(&|| Io::compute(iterations(2_000_000, size)));
        out.push((
            "runtime.interp.probe.compute_ns_per_step",
            secs * 1e9 / stats.steps as f64,
        ));
        drop(_s);
        let _s = tracer.span("runtime.interp.probe.bind_ns_per_step");
        let n = iterations(200_000, size);
        let (secs, stats) = run_io(&|| empty_loop(n));
        let (_, fixed) = run_io(&|| empty_loop(0));
        out.push((
            "runtime.interp.probe.bind_ns_per_step",
            secs * 1e9 / stats.steps as f64,
        ));
        LoopCost {
            ns: secs * 1e9 / n as f64,
            steps: (stats.steps - fixed.steps) as f64 / n as f64,
        }
    };

    /// `(ns metric, steps metric or "", iterations, program)`.
    type Looped = (&'static str, &'static str, u64, fn(u64) -> Io<()>);
    let looped_probes: [Looped; 14] = [
        ("runtime.interp.probe.catch_frame_ns", "", 100_000, |n| {
            for_each(n, |_| Io::unit().catch(|_| Io::unit()))
        }),
        ("runtime.sched.probe.fork_exit_ns", "", 50_000, |n| {
            for_each(n, |_| Io::fork(Io::unit()).then(Io::yield_now()))
        }),
        ("runtime.mvar.probe.uncontended_pair_ns", "", 100_000, |n| {
            Io::new_mvar(0_i64)
                .and_then(move |m| for_each(n, move |_| m.take().and_then(move |v| m.put(v + 1))))
        }),
        ("runtime.timer.probe.sleep_wake_ns", "", 50_000, |n| {
            for_each(n, |_| Io::sleep(1))
        }),
        ("runtime.exception.probe.kill_round_ns", "", 10_000, |n| {
            for_each(n, |_| kill_round())
        }),
        (
            "combinators.probe.timeout_unfired_ns",
            "combinators.probe.timeout_unfired_steps",
            5_000,
            |n| for_each(n, |_| timeout(1 << 30, Io::compute_returning(8, 1_i64))),
        ),
        (
            "combinators.probe.timeout_fired_ns",
            "combinators.probe.timeout_fired_steps",
            5_000,
            |n| for_each(n, |_| timeout(5, Io::sleep(1_000).map(|_| 1_i64))),
        ),
        (
            "combinators.probe.race_ns",
            "combinators.probe.race_steps",
            5_000,
            |n| {
                for_each(n, |_| {
                    race(
                        Io::compute_returning(8, 1_i64),
                        Io::compute_returning(1 << 40, 2_i64),
                    )
                })
            },
        ),
        (
            "combinators.probe.both_ns",
            "combinators.probe.both_steps",
            5_000,
            |n| {
                for_each(n, |_| {
                    both(
                        Io::compute_returning(8, 1_i64),
                        Io::compute_returning(8, 2_i64),
                    )
                })
            },
        ),
        (
            "combinators.probe.bracket_ns",
            "combinators.probe.bracket_steps",
            50_000,
            |n| for_each(n, |_| bracket(Io::pure(1_i64), |_| Io::unit(), Io::pure)),
        ),
        (
            "combinators.probe.modify_mvar_ns",
            "combinators.probe.modify_mvar_steps",
            50_000,
            |n| {
                Io::new_mvar(0_i64)
                    .and_then(move |m| for_each(n, move |_| modify_mvar(m, |v| Io::pure(v + 1))))
            },
        ),
        (
            "combinators.probe.chan_item_ns",
            "combinators.probe.chan_item_steps",
            20_000,
            |n| {
                Chan::<i64>::new().and_then(move |c| for_each(n, move |_| c.send(1).then(c.recv())))
            },
        ),
        (
            "actors.probe.mailbox_send_recv_ns",
            "actors.probe.mailbox_send_recv_steps",
            20_000,
            |n| {
                Mailbox::<i64>::new(16)
                    .and_then(move |mb| for_each(n, move |_| mb.send(1).then(mb.recv())))
            },
        ),
        (
            "httpd.net.probe.frame_roundtrip_ns",
            "httpd.net.probe.frame_roundtrip_steps",
            10_000,
            |n| {
                FrameConnection::open().and_then(move |conn| {
                    for_each(n, move |_| {
                        conn.send_frame(Request::get("/bench").render())
                            .then(conn.recv_frame())
                            .then(conn.send_response_frame(Response::ok("ok").render()))
                            .then(conn.read_response_frame())
                    })
                })
            },
        ),
    ];
    for (ns_name, steps_name, n, program) in looped_probes {
        let _s = tracer.span(ns_name);
        let (ns, steps) = looped(iterations(n, size), &base, program);
        out.push((ns_name, ns));
        if !steps_name.is_empty() {
            out.push((steps_name, steps));
        }
    }

    {
        // Two threads that only yield: every quantum ends in a switch.
        let _s = tracer.span("runtime.sched.probe.yield_switch_ns");
        let n = iterations(100_000, size);
        let spin = || for_each(n, |_| Io::yield_now());
        let (secs, stats) = run_io(&|| Io::fork(spin()).then(spin()));
        out.push((
            "runtime.sched.probe.yield_switch_ns",
            secs * 1e9 / stats.context_switches as f64,
        ));
    }
    {
        // One blocked hand-off each way per iteration.
        let _s = tracer.span("runtime.mvar.probe.handoff_ns");
        let n = iterations(50_000, size);
        let (secs, _) = run_io(&|| {
            Io::new_empty_mvar::<i64>().and_then(move |ping| {
                Io::new_empty_mvar::<i64>().and_then(move |pong| {
                    let echo = for_each(n, move |_| ping.take().and_then(move |v| pong.put(v)));
                    Io::fork(echo).then(for_each(n, move |_| ping.put(1).then(pong.take())))
                })
            })
        });
        out.push((
            "runtime.mvar.probe.handoff_ns",
            (secs * 1e9 / n as f64 - base.ns).max(0.0) / 2.0,
        ));
    }
    {
        let _s = tracer.span("runtime.sched.probe.runtime_new_ns");
        let n = iterations(2_000, size);
        let secs = fastest_of(|| {
            for _ in 0..n {
                black_box(Runtime::with_config(RuntimeConfig::new()));
            }
        });
        out.push(("runtime.sched.probe.runtime_new_ns", secs * 1e9 / n as f64));
    }
    {
        // `reset` after a small concurrent run, as the explorer calls it
        // between schedules. Only the resets are timed.
        let _s = tracer.span("runtime.sched.probe.runtime_reset_ns");
        let n = iterations(500, size);
        let mut rts: Vec<Runtime> = (0..n).map(|_| Runtime::new()).collect();
        let mut best = f64::INFINITY;
        for _ in 0..BATCHES {
            for rt in &mut rts {
                rt.run(for_each(4, |_| Io::fork(Io::sleep(1))).then(Io::sleep(2)))
                    .expect("probe programs never fail");
            }
            let t = Instant::now();
            for rt in &mut rts {
                rt.reset();
            }
            best = best.min(t.elapsed().as_secs_f64());
        }
        out.push((
            "runtime.sched.probe.runtime_reset_ns",
            best * 1e9 / n as f64,
        ));
    }
    {
        let _s = tracer.span("runtime.timer.probe.wheel_insert_expire_ns");
        out.push((
            "runtime.timer.probe.wheel_insert_expire_ns",
            timer_wheel_churn(size),
        ));
    }
    {
        // One `block (unblock …)` pair per level of a deep nest.
        let _s = tracer.span("runtime.exception.probe.mask_pair_ns");
        let n = iterations(100_000, size);
        let (secs, _) = run_io(&|| mask_recursive_loop(n));
        out.push((
            "runtime.exception.probe.mask_pair_ns",
            secs * 1e9 / n as f64,
        ));
    }
    {
        let _s = tracer.span("httpd.http.probe.parse_request_ns");
        let n = iterations(50_000, size);
        let text = Request::get("/bench").render();
        let secs = fastest_of(|| {
            for _ in 0..n {
                black_box(parse_request(black_box(&text)).is_ok());
            }
        });
        out.push(("httpd.http.probe.parse_request_ns", secs * 1e9 / n as f64));
    }
    {
        let _s = tracer.span("httpd.http.probe.render_response_ns");
        let n = iterations(50_000, size);
        let response = Response::ok("x".repeat(32));
        let secs = fastest_of(|| {
            for _ in 0..n {
                black_box(black_box(&response).render());
            }
        });
        out.push(("httpd.http.probe.render_response_ns", secs * 1e9 / n as f64));
    }
    out
}
