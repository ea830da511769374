//! `mvar_sched` — the run queue, context switches, block/wake and
//! `MVar`s do the work: a 64-thread token ring, a `Chan` producer and
//! consumer, and fork/join churn. No timer is ever armed and no
//! exception thrown, so a change to the timer wheel or to delivery must
//! not move this workload.

use std::rc::Rc;

use conch_combinators::Chan;
use conch_runtime::io::{for_each, sequence};
use conch_runtime::prelude::*;
use conch_runtime::MVar;

use super::{build_and_run, Rep, Rng, Size, Workload};
use crate::span::Tracer;

const RING: usize = 64;
/// `Runtime` panics past 65 535 concurrent threads (README, "Known
/// limits"), so fork/join churn joins each batch before the next. One
/// batch is always exactly this big, which pins the rep's peak thread
/// count — and with it its peak memory — for every seed.
const MAX_BATCH: u64 = 10_000;

struct MvarSched {
    laps: u64,
    /// What each ring thread adds to the token as it passes.
    increments: Rc<Vec<i64>>,
    token: i64,
    items: Rc<Vec<i64>>,
    /// Fork/join batch sizes; the seed shapes them, their sum is fixed.
    batches: Rc<Vec<u64>>,
}

pub fn make(seed: u64, size: Size) -> Box<dyn Workload> {
    let mut rng = Rng::new(seed, 2);
    let small = |rng: &mut Rng| rng.below(1 << 20) as i64;
    let increments = (0..RING).map(|_| small(&mut rng)).collect();
    let token = small(&mut rng);
    let items = (0..size.pick(40_000, 200))
        .map(|_| small(&mut rng))
        .collect();
    let (largest, mean) = size.pick((MAX_BATCH, 8_000), (50, 40));
    let d = rng.below(mean / 4);
    let mut batches = vec![largest, mean - d, mean + d];
    rng.shuffle(&mut batches);
    assert!(batches.iter().all(|b| *b <= MAX_BATCH));
    Box::new(MvarSched {
        laps: size.pick(1_000, 5),
        increments: Rc::new(increments),
        token,
        items: Rc::new(items),
        batches: Rc::new(batches),
    })
}

/// Ring thread `i`: `laps` times, take the token from its own cell, add
/// its increment, hand on. The very last hand-off goes to `out`.
fn ring_thread(i: usize, laps: u64, inc: i64, cells: Rc<Vec<MVar<i64>>>, out: MVar<i64>) -> Io<()> {
    for_each(laps, move |lap| {
        let last = i == RING - 1 && lap == laps - 1;
        let next = if last { out } else { cells[(i + 1) % RING] };
        cells[i].take().and_then(move |v| next.put(v + inc))
    })
}

fn ring(laps: u64, token: i64, increments: Rc<Vec<i64>>) -> Io<i64> {
    let cells = sequence((0..RING).map(|_| Io::new_empty_mvar::<i64>()).collect());
    cells.and_then(move |cells| {
        let cells = Rc::new(cells);
        Io::new_empty_mvar::<i64>().and_then(move |out| {
            let first = cells[0];
            for_each(RING as u64, move |i| {
                let i = i as usize;
                Io::fork(ring_thread(i, laps, increments[i], Rc::clone(&cells), out))
            })
            .then(first.put(token))
            .then(out.take())
        })
    })
}

fn channel(items: Rc<Vec<i64>>) -> Io<i64> {
    fn consume(chan: Chan<i64>, left: usize, sum: i64) -> Io<i64> {
        if left == 0 {
            return Io::pure(sum);
        }
        chan.recv()
            .and_then(move |v| consume(chan, left - 1, sum.wrapping_add(v)))
    }
    let n = items.len();
    Chan::<i64>::new().and_then(move |chan| {
        let producer = for_each(n as u64, move |i| chan.send(items[i as usize]));
        Io::fork(producer).then(consume(chan, n, 0))
    })
}

/// Forks `batch` children that each hand their index to the parent
/// through one shared cell, and joins them all.
fn fork_join(batch: u64) -> Io<i64> {
    fn join(done: MVar<i64>, left: u64, sum: i64) -> Io<i64> {
        if left == 0 {
            return Io::pure(sum);
        }
        done.take().and_then(move |v| join(done, left - 1, sum + v))
    }
    Io::new_empty_mvar::<i64>().and_then(move |done| {
        for_each(batch, move |j| Io::fork(done.put(j as i64 + 1))).then(join(done, batch, 0))
    })
}

fn churn(batches: Rc<Vec<u64>>) -> Io<i64> {
    fn go(i: usize, sum: i64, batches: Rc<Vec<u64>>) -> Io<i64> {
        if i == batches.len() {
            return Io::pure(sum);
        }
        fork_join(batches[i]).and_then(move |s| go(i + 1, sum + s, batches))
    }
    go(0, 0, batches)
}

impl Workload for MvarSched {
    fn rep(&self, tracer: &Tracer) -> Rep {
        let (result, rt) = build_and_run(tracer, || {
            let (items, batches) = (Rc::clone(&self.items), Rc::clone(&self.batches));
            ring(self.laps, self.token, Rc::clone(&self.increments)).and_then(|t| {
                channel(items).and_then(move |c| churn(batches).map(move |j| (t, c, j)))
            })
        });
        let _s = tracer.span("verify");
        let hops = RING as u64 * self.laps;
        let sent = self.items.len() as u64;
        let forks: u64 = self.batches.iter().sum();
        let mut rep = Rep {
            ops: hops + sent + forks,
            stats: rt.stats().clone(),
            ..Rep::default()
        };
        let want_token = self.token + self.laps as i64 * self.increments.iter().sum::<i64>();
        let want_sum = self.items.iter().fold(0_i64, |a, v| a.wrapping_add(*v));
        let want_join: i64 = self.batches.iter().map(|b| (b * (b + 1) / 2) as i64).sum();
        match result {
            Ok((token, sum, join)) => {
                for (ok, ops, what) in [
                    (token == want_token, hops, "ring token"),
                    (sum == want_sum, sent, "channel sum"),
                    (join == want_join, forks, "fork/join sum"),
                ] {
                    if !rep.check(ok, || format!("mvar_sched: wrong {what}")) {
                        rep.failed += ops;
                    }
                }
            }
            Err(e) => rep.check_all(false, || format!("mvar_sched: run failed: {e}")),
        }
        let stats = rep.stats.clone();
        rep.check_all(stats.forks == RING as u64 + 1 + forks, || {
            format!("mvar_sched: {} forks", stats.forks)
        });
        rep.bypasses("timer_ops", stats.timer_ops);
        rep.bypasses("throwtos", stats.throwtos);
        rep
    }
}
