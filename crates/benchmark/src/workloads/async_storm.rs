//! `async_storm` — the paper's own machinery does the work: `throwTo`,
//! mask/deliver, the timer wheel and the §7 combinators. Eight workers
//! each run a seeded sequence of rounds:
//!
//! * a `timeout` that fires on a blocked `sleep` or `takeMVar`
//!   (rule (Interrupt)),
//! * a `timeout` that does not fire over a `compute` (timer cancel, the
//!   sleeping child killed),
//! * `race` / `both` of computes (the loser killed while runnable, rule
//!   (Receive)),
//! * `finally` + `modify_mvar` on a shared counter, beside a `bracket`
//!   victim that hammers the same counter until a killer thread sprays
//!   it with `KillThread`s,
//! * depth-64 `block`/`unblock` nesting (§8.1).
//!
//! The seed orders the rounds and picks their values; each worker runs
//! the same multiset of rounds on every seed.

use std::cell::Cell;
use std::rc::Rc;

use conch_combinators::{both, bracket, finally, modify_mvar, race, timeout, Chan, Either};
use conch_runtime::io::for_each;
use conch_runtime::prelude::*;
use conch_runtime::MVar;

use super::programs::{mask_recursive_loop, recv_n};
use super::{build_and_run, Rep, Rng, Size, Workload};
use crate::span::Tracer;

const WORKERS: usize = 8;
/// Throws the killer aims at each victim: the first one lands, the rest
/// find it dying or dead — the wasted throws `delivered_share` reports.
const SPRAYS: u64 = 3;
const MASK_DEPTH: u64 = 64;
const SHORT_COMPUTE: u64 = 32;
const LONG_COMPUTE: u64 = 1 << 40;

/// A worker's id and the result code of each of its rounds, in order.
type WorkerCodes = (i64, Vec<i64>);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Round {
    FiresOnSleep { budget: u64 },
    FiresOnTake { budget: u64 },
    Holds { value: i64 },
    Race { left_wins: bool, value: i64 },
    Both { a: i64, b: i64 },
    Guarded,
    MaskNest,
}

impl Round {
    /// What the round must report back.
    fn expected(self) -> i64 {
        match self {
            Round::FiresOnSleep { .. } | Round::FiresOnTake { .. } => -1,
            Round::Holds { value } => value,
            Round::Race { left_wins, value } => side_code(left_wins, value),
            Round::Both { a, b } => pair_code(a, b),
            Round::Guarded => 1,
            Round::MaskNest => 0,
        }
    }
}

fn side_code(left: bool, value: i64) -> i64 {
    if left {
        value
    } else {
        !value
    }
}

fn pair_code(a: i64, b: i64) -> i64 {
    a * 31 + b
}

/// Host-side tallies bumped through `Io::effect`, which is one atomic
/// step: it cannot block, so even a masked handler running it can never
/// be interrupted half-way by a second sprayed kill.
#[derive(Default)]
struct Tallies {
    acquired: Cell<u64>,
    released: Cell<u64>,
    finalized: Cell<u64>,
}

fn bump(cell: fn(&Tallies) -> &Cell<u64>, tallies: &Rc<Tallies>) -> Io<()> {
    let tallies = Rc::clone(tallies);
    Io::effect(move || {
        let c = cell(&tallies);
        c.set(c.get() + 1);
    })
}

struct AsyncStorm {
    rounds: Vec<Rc<Vec<Round>>>,
}

pub fn make(seed: u64, size: Size) -> Box<dyn Workload> {
    // Per worker, in twentieths: 3 + 3 fire, 4 hold, 3 race, 3 both,
    // 2 guarded, 2 mask nests.
    let twentieth = size.pick(120, 1);
    let mut rng = Rng::new(seed, 3);
    let value = |rng: &mut Rng| rng.between(1, 1 << 30) as i64;
    let rounds = (0..WORKERS)
        .map(|_| {
            let mut rounds = Vec::new();
            for _ in 0..twentieth {
                for _ in 0..3 {
                    rounds.push(Round::FiresOnSleep {
                        budget: rng.between(10, 100),
                    });
                    rounds.push(Round::FiresOnTake {
                        budget: rng.between(10, 100),
                    });
                    rounds.push(Round::Race {
                        left_wins: rng.below(2) == 0,
                        value: value(&mut rng),
                    });
                    rounds.push(Round::Both {
                        a: value(&mut rng),
                        b: value(&mut rng),
                    });
                }
                for _ in 0..4 {
                    rounds.push(Round::Holds {
                        value: value(&mut rng),
                    });
                }
                rounds.extend([Round::Guarded, Round::Guarded]);
                rounds.extend([Round::MaskNest, Round::MaskNest]);
            }
            rng.shuffle(&mut rounds);
            Rc::new(rounds)
        })
        .collect();
    Box::new(AsyncStorm { rounds })
}

/// The victim: holds a bracketed resource and hammers the shared
/// counter with identity updates until killed. Whether the kill lands
/// in the unblocked compute, on the blocked `take`, or before the
/// bracket is even entered, the counter keeps its value and the
/// resource is released iff it was acquired.
fn victim(counter: MVar<i64>, tallies: &Rc<Tallies>) -> Io<()> {
    fn hammer(counter: MVar<i64>) -> Io<()> {
        modify_mvar(counter, |c| Io::compute(SHORT_COMPUTE).then(Io::pure(c)))
            .and_then(move |_| hammer(counter))
    }
    let release = Rc::clone(tallies);
    bracket(
        bump(|t| &t.acquired, tallies),
        move |_| bump(|t| &t.released, &release),
        move |_| hammer(counter),
    )
}

fn round(r: Round, counter: MVar<i64>, victims: Chan<ThreadId>, tallies: &Rc<Tallies>) -> Io<i64> {
    match r {
        Round::FiresOnSleep { budget } => {
            timeout(budget, Io::sleep(budget * 50).map(|_| 1_i64)).map(|r| r.unwrap_or(-1))
        }
        Round::FiresOnTake { budget } => Io::new_empty_mvar::<i64>()
            .and_then(move |never| timeout(budget, never.take()))
            .map(|r| r.unwrap_or(-1)),
        Round::Holds { value } => {
            timeout(1 << 30, Io::compute_returning(SHORT_COMPUTE, value)).map(|r| r.unwrap_or(-1))
        }
        Round::Race { left_wins, value } => {
            let winner = Io::compute_returning(SHORT_COMPUTE, value);
            let loser = Io::compute_returning(LONG_COMPUTE, 0_i64);
            let (a, b) = if left_wins {
                (winner, loser)
            } else {
                (loser, winner)
            };
            race(a, b).map(|r| match r {
                Either::Left(v) => side_code(true, v),
                Either::Right(v) => side_code(false, v),
            })
        }
        Round::Both { a, b } => both(
            Io::compute_returning(SHORT_COMPUTE, a),
            Io::compute_returning(2 * SHORT_COMPUTE, b),
        )
        .map(|(a, b)| pair_code(a, b)),
        Round::Guarded => {
            let fin = Rc::clone(tallies);
            Io::fork(victim(counter, tallies))
                .and_then(move |v| victims.send(v))
                .then(finally(
                    modify_mvar(counter, |c| {
                        Io::compute(SHORT_COMPUTE).then(Io::pure(c + 1))
                    }),
                    move || bump(|t| &t.finalized, &fin),
                ))
                .map(|_| 1_i64)
        }
        Round::MaskNest => mask_recursive_loop(MASK_DEPTH)
            .then(Io::masking_state())
            .map(i64::from),
    }
}

fn worker(
    id: usize,
    rounds: Rc<Vec<Round>>,
    counter: MVar<i64>,
    victims: Chan<ThreadId>,
    tallies: Rc<Tallies>,
    done: Chan<WorkerCodes>,
) -> Io<()> {
    fn go(
        i: usize,
        mut codes: Vec<i64>,
        rounds: Rc<Vec<Round>>,
        counter: MVar<i64>,
        victims: Chan<ThreadId>,
        tallies: Rc<Tallies>,
    ) -> Io<Vec<i64>> {
        if i == rounds.len() {
            return Io::pure(codes);
        }
        round(rounds[i], counter, victims, &tallies).and_then(move |code| {
            codes.push(code);
            go(i + 1, codes, rounds, counter, victims, tallies)
        })
    }
    let n = rounds.len();
    go(0, Vec::with_capacity(n), rounds, counter, victims, tallies)
        .and_then(move |codes| done.send((id as i64, codes)))
}

/// Takes each victim's id off the channel and sprays it.
fn killer(victims: Chan<ThreadId>, expected: u64, finished: MVar<i64>) -> Io<()> {
    for_each(expected, move |_| {
        victims
            .recv()
            .and_then(|v| for_each(SPRAYS, move |_| Io::throw_to(v, Exception::kill_thread())))
    })
    .then(finished.put(1))
}

impl AsyncStorm {
    fn guarded_rounds(&self) -> u64 {
        self.rounds
            .iter()
            .flat_map(|rs| rs.iter())
            .filter(|r| **r == Round::Guarded)
            .count() as u64
    }

    fn program(&self, tallies: &Rc<Tallies>) -> Io<(Vec<WorkerCodes>, i64)> {
        let rounds = self.rounds.clone();
        let guarded = self.guarded_rounds();
        let tallies = Rc::clone(tallies);
        Io::new_mvar(0_i64).and_then(move |counter| {
            Chan::<ThreadId>::new().and_then(move |victims| {
                Chan::<WorkerCodes>::new().and_then(move |done| {
                    Io::new_empty_mvar::<i64>().and_then(move |finished| {
                        let mut forks = Io::fork(killer(victims, guarded, finished)).map(|_| ());
                        for (id, rs) in rounds.into_iter().enumerate() {
                            let w = worker(id, rs, counter, victims, Rc::clone(&tallies), done);
                            forks = forks.then(Io::fork(w)).map(|_| ());
                        }
                        forks.then(recv_n(done, WORKERS)).and_then(move |codes| {
                            // Once the killer is through, one virtual
                            // µs of sleep lets every sprayed victim
                            // (all runnable or interruptible) die
                            // before the clock may advance.
                            finished
                                .take()
                                .then(Io::sleep(1))
                                .then(counter.take())
                                .map(move |count| (codes, count))
                        })
                    })
                })
            })
        })
    }
}

impl Workload for AsyncStorm {
    fn rep(&self, tracer: &Tracer) -> Rep {
        let tallies = Rc::new(Tallies::default());
        let (result, rt) = build_and_run(tracer, || self.program(&tallies));
        let _s = tracer.span("verify");
        let guarded = self.guarded_rounds();
        let mut rep = Rep {
            ops: self.rounds.iter().map(|rs| rs.len() as u64).sum(),
            stats: rt.stats().clone(),
            ..Rep::default()
        };
        match result {
            Ok((per_worker, count)) => {
                rep.check_all(per_worker.len() == WORKERS, || {
                    format!("async_storm: {} workers reported", per_worker.len())
                });
                for (id, codes) in per_worker {
                    let want = &self.rounds[id as usize];
                    rep.check_all(codes.len() == want.len(), || {
                        format!("async_storm: worker {id} ran {} rounds", codes.len())
                    });
                    for (i, (code, round)) in codes.iter().zip(want.iter()).enumerate() {
                        if !rep.check(*code == round.expected(), || {
                            format!("async_storm: worker {id} round {i} {round:?} gave {code}")
                        }) {
                            rep.failed += 1;
                        }
                    }
                }
                rep.check_all(count as u64 == guarded, || {
                    format!("async_storm: counter {count}, {guarded} modify rounds")
                });
            }
            Err(e) => rep.check_all(false, || format!("async_storm: run failed: {e}")),
        }
        let (acquired, released) = (tallies.acquired.get(), tallies.released.get());
        rep.check_all(acquired == released, || {
            format!("async_storm: {acquired} acquires, {released} releases")
        });
        rep.check_all(tallies.finalized.get() == guarded, || {
            format!(
                "async_storm: {} finalizers for {guarded} guarded rounds",
                tallies.finalized.get()
            )
        });
        let deaths = rep.stats.kill_thread_deaths;
        rep.check_all(deaths == guarded, || {
            format!("async_storm: {deaths} kill deaths, {guarded} victims")
        });
        rep
    }
}
