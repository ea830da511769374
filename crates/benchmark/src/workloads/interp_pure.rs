//! `interp_pure` — one thread, no concurrency: half the steps are
//! `Io::compute` chunks, half are `pure`/`map`/`and_then`/`catch` chains
//! in which nothing ever throws. The interpreter step and `Io`/`Value`
//! allocation do all the work; a change to the scheduler, `MVar`s, the
//! timer wheel or exception delivery must not move this workload.

use std::rc::Rc;

use conch_runtime::prelude::*;

use super::{build_and_run, Rep, Rng, Size, Workload};
use crate::span::Tracer;

/// Mean `Io::compute` chunk, in steps.
const MEAN_CHUNK: u64 = 96;
/// Chain links per iteration; one link is 11 interpreter steps, so a
/// chain roughly matches the mean chunk and the two halves weigh the
/// same (the rep checks the split).
const LINKS: u64 = 8;

struct InterpPure {
    /// Compute-chunk lengths; the seed shapes them, their sum is fixed.
    chunks: Rc<Vec<u64>>,
    /// One operand per iteration, folded through the chain.
    operands: Rc<Vec<i64>>,
}

pub fn make(seed: u64, size: Size) -> Box<dyn Workload> {
    let iterations = size.pick(20_000, 300);
    let mut rng = Rng::new(seed, 1);
    let mut chunks = Vec::with_capacity(iterations);
    for _ in 0..iterations / 2 {
        let d = rng.below(MEAN_CHUNK / 2);
        chunks.push(MEAN_CHUNK - d);
        chunks.push(MEAN_CHUNK + d);
    }
    rng.shuffle(&mut chunks);
    let operands = (0..iterations).map(|_| rng.next_u64() as i64).collect();
    Box::new(InterpPure {
        chunks: Rc::new(chunks),
        operands: Rc::new(operands),
    })
}

fn mix(a: i64, x: i64) -> i64 {
    a.wrapping_mul(31).wrapping_add(x)
}

fn fold(a: i64, x: i64) -> i64 {
    a ^ (x >> 3)
}

/// One chain link: every bind form once, under a `catch` whose handler
/// never runs.
fn link(a: i64, x: i64) -> Io<i64> {
    Io::pure(a)
        .map(move |a| mix(a, x))
        .and_then(move |a| Io::pure(fold(a, x)))
        .catch(|_| Io::pure(0))
}

fn chain(links: u64, a: i64, x: i64) -> Io<i64> {
    if links == 0 {
        Io::pure(a)
    } else {
        link(a, x).and_then(move |a| chain(links - 1, a, x))
    }
}

fn program(i: usize, acc: i64, chunks: Rc<Vec<u64>>, operands: Rc<Vec<i64>>) -> Io<i64> {
    if i == chunks.len() {
        return Io::pure(acc);
    }
    Io::compute(chunks[i])
        .then(chain(LINKS, acc, operands[i]))
        .and_then(move |acc| program(i + 1, acc, chunks, operands))
}

impl Workload for InterpPure {
    fn rep(&self, tracer: &Tracer) -> Rep {
        let (result, rt) = build_and_run(tracer, || {
            program(0, 0, Rc::clone(&self.chunks), Rc::clone(&self.operands))
        });
        let _s = tracer.span("verify");
        let stats = rt.stats().clone();
        let mut rep = Rep {
            ops: stats.steps,
            ..Rep::default()
        };
        let want = self.operands.iter().fold(0_i64, |acc, &x| {
            (0..LINKS).fold(acc, |a, _| fold(mix(a, x), x))
        });
        rep.check_all(result == Ok(want), || {
            format!("interp_pure: result {result:?}, expected {want}")
        });
        let compute_steps: u64 = self.chunks.iter().sum();
        rep.check_all(
            compute_steps * 2 <= stats.steps + stats.steps / 10
                && compute_steps * 2 + stats.steps / 10 >= stats.steps,
            || {
                format!(
                    "interp_pure: compute is {compute_steps} of {} steps, expected half",
                    stats.steps
                )
            },
        );
        rep.bypasses("forks", stats.forks);
        rep.bypasses("mvar_ops", stats.mvar_ops);
        rep.bypasses("timer_ops", stats.timer_ops);
        rep.bypasses("throwtos", stats.throwtos);
        rep.bypasses("sync_throws", stats.sync_throws);
        rep.stats = stats;
        rep
    }
}
