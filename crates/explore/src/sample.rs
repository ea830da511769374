//! Probabilistic schedule sampling: the PCT strategy over the same driver machinery as the exhaustive DFS.
//!
//! Where the exhaustive engines *enumerate* the branch points recorded
//! by [`crate::driver::DriverState`], the sampler *draws* one schedule
//! at a time: each run installs a [`SamplePolicy`] into the driver, and
//! the policy answers exactly the choices the script does not cover —
//! which is all of them, since sampled runs start from an empty script.
//! Everything else is unchanged: the same invisible-move
//! fast-forwarding, the same branch-point structure (a function of the
//! executed path alone), the same recorded [`Schedule`](crate::Schedule).
//! A sampled failure certificate is therefore byte-compatible with an
//! exhaustive one — it replays and shrinks through the very machinery
//! `Explorer::check` already has.
//!
//! The default policy is **PCT** (probabilistic concurrency testing, in
//! the Coyote/shuttle lineage): every thread gets a random priority at
//! first sight, the highest-priority runnable candidate runs at each
//! branch point, and `depth − 1` priority-*change* points — scheduling
//! decisions drawn uniformly up front — each demote the currently
//! leading thread below everyone else. For a bug that needs `d`
//! ordering constraints among `k` threads over `n` decisions, PCT finds
//! it with probability at least `1/(k·n^(d−1))` per sample — which is
//! what makes a fixed sample budget a meaningful statistical statement
//! about the unenumerable spaces (the sharded httpd under the fault
//! plane) the exhaustive engines cannot finish.
//!
//! # Determinism
//!
//! Sample `i` of a run with base seed `s` is driven entirely by
//! [`stream_seed`]`(s, i)` — never by what other samples observed — so
//! the *set* of sampled runs is a pure function of the configuration.
//! Workers claim sample indices from a shared counter and the budget is
//! always drained (a failure does not stop the sampler), so every
//! counter is a sum over that fixed set and the reported failure (the
//! lowest failing sample index) is bit-identical for any worker count.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use conch_runtime::value::FromValue;

use crate::driver::Alt;
use crate::explorer::{Strategy, TestCase};
use crate::frontier::lock;
use crate::rng::SplitMix64;
use crate::schedule::Choice;
use crate::worker::Worker;

/// The seed of sample `index` in the stream rooted at `base`. A pure
/// function of `(base, index)` — per-sample behaviour must not depend
/// on which worker ran which earlier sample, or worker counts would
/// diverge.
pub(crate) fn stream_seed(base: u64, index: u64) -> u64 {
    SplitMix64::new(base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// The per-run PCT policy the driver consults at unscripted branch
/// points (see [`crate::driver::DriverState`]). One policy drives one
/// sample and is discarded; all its state is derived from the sample's
/// seed.
pub(crate) struct SamplePolicy {
    rng: SplitMix64,
    /// Random priority per thread, assigned at first sight (in
    /// candidate-list order, which is deterministic per run). Higher
    /// runs first.
    priorities: Vec<(u64, i64)>,
    /// The `depth − 1` scheduling-decision indices at which the
    /// leading thread is demoted. Drawn up front from `1..=horizon`
    /// (the branch-point budget), so they are fixed before the run
    /// starts, as PCT requires.
    change_points: Vec<u32>,
    /// Scheduling decisions made so far this run.
    decisions: u32,
    /// Next demotion priority; decreases so later demotions rank below
    /// earlier ones, and all demotions rank below every initial
    /// (non-negative) priority.
    demote_next: i64,
}

impl SamplePolicy {
    pub(crate) fn pct(depth: usize, seed: u64, horizon: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let horizon = horizon.max(1) as u64;
        let change_points = (1..depth).map(|_| rng.below(horizon) as u32 + 1).collect();
        SamplePolicy {
            rng,
            priorities: Vec::new(),
            change_points,
            decisions: 0,
            demote_next: -1,
        }
    }

    /// The scheduling decision at an unscripted branch point:
    /// `alts` is the candidate list in run-queue order, with the ones
    /// the sleep-set rule would skip marked asleep (none are in sampled
    /// runs, which carry no DFS context; honored anyway so the policy
    /// composes with scripted prefixes). Returns an index into `alts`.
    pub(crate) fn pick_thread(&mut self, alts: &[Alt]) -> usize {
        let eligible = |i: &usize| !alts[*i].asleep;
        for tid in alts.iter().map(Alt::tid) {
            if !self.priorities.iter().any(|&(t, _)| t == tid) {
                // Initial priorities are non-negative, so every
                // demotion (negative) outranks none of them.
                let p = (self.rng.next_u64() >> 2) as i64;
                self.priorities.push((tid, p));
            }
        }
        self.decisions += 1;
        let leader = |st: &SamplePolicy| {
            (0..alts.len())
                .filter(eligible)
                .max_by_key(|&i| {
                    st.priorities
                        .iter()
                        .find(|&&(t, _)| t == alts[i].tid())
                        .map(|&(_, p)| p)
                        .unwrap_or(i64::MIN)
                })
                .unwrap_or(0)
        };
        if self.change_points.contains(&self.decisions) {
            // A change point fires: the thread that would run is
            // demoted below everyone, handing the lead over.
            let demoted = alts[leader(self)].tid();
            let p = self.demote_next;
            self.demote_next -= 1;
            if let Some(e) = self.priorities.iter_mut().find(|e| e.0 == demoted) {
                e.1 = p;
            }
        }
        leader(self)
    }

    /// The delivery decision at an unscripted delivery point. PCT has
    /// no native notion of delivery points (they are this semantics'
    /// extra nondeterminism, §5), so it flips a fair coin — each
    /// landing site of a pending exception keeps probability
    /// ≥ 2^-(sites).
    pub(crate) fn pick_deliver(&mut self) -> bool {
        self.rng.coin()
    }

    /// The arm decision at an unscripted oracle point: uniform over the
    /// arms, so every fault arm of an `Io::choose` site keeps
    /// probability `1/arms` per visit.
    pub(crate) fn pick_arm(&mut self, arms: u8) -> u8 {
        self.rng.below(arms.max(1) as u64) as u8
    }
}

/// The policy driving sample `index` under a sampling `strategy`. A
/// pure function of `(strategy, index, horizon)` — see the module docs
/// on determinism.
pub(crate) fn policy_for(strategy: &Strategy, index: u64, horizon: usize) -> SamplePolicy {
    match strategy {
        Strategy::Exhaustive(_) => unreachable!("exhaustive strategies enumerate, never sample"),
        Strategy::Pct { depth, seed } => {
            SamplePolicy::pct(*depth, stream_seed(*seed, index), horizon)
        }
    }
}

/// FNV-1a over the choice list — the key of the `distinct_schedules`
/// counter. A collision would undercount distinctness but (being a
/// function of the choices alone) never breaks worker-count
/// determinism.
pub(crate) fn schedule_hash(choices: &[Choice]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for c in choices {
        match c {
            Choice::Thread(t) => {
                eat(1);
                eat(*t);
            }
            Choice::Deliver(b) => {
                eat(2);
                eat(*b as u64);
            }
            Choice::Arm(a) => {
                eat(3);
                eat(*a as u64);
            }
        }
    }
    h
}

/// The failure-ranking key of sample `index`: two big-endian limbs, so
/// lexicographic key order is numeric index order and
/// [`Frontier::offer_failure`](crate::frontier::Frontier::offer_failure)
/// keeps the lowest failing sample — the run the sequential sampler
/// fails on first.
pub(crate) fn sample_key(index: usize) -> Vec<u32> {
    let i = index as u64;
    vec![(i >> 32) as u32, i as u32]
}

/// The sample index a [`sample_key`] was built from.
pub(crate) fn sample_index(key: &[u32]) -> u64 {
    ((key[0] as u64) << 32) | key[1] as u64
}

/// The state sampling workers share.
#[derive(Default)]
pub(crate) struct Samples {
    /// Next sample index to hand out. The counter partitions the fixed
    /// index set `0..max_schedules` across workers; each sample's
    /// behaviour is a pure function of its index, so the partition
    /// never changes the run set.
    next: AtomicUsize,
    /// Hashes of every sampled schedule — the `distinct_schedules`
    /// counter. Shared (not per-worker) so duplicates across workers
    /// collapse the same way they do sequentially.
    hashes: Mutex<HashSet<u64>>,
}

impl Samples {
    /// Distinct schedules among the sampled ones.
    pub(crate) fn distinct(&self) -> u64 {
        lock(&self.hashes).len() as u64
    }
}

/// Run one sampling worker to completion: claim sample indices from
/// the shared counter, drive each through a fresh policy, record
/// counters and the lowest-index failure. The budget is always drained
/// (failures don't stop the loop), so reports are worker-count
/// independent even on failing spaces.
pub(crate) fn sample_worker<T: FromValue>(
    w: &mut Worker<'_>,
    factory: &mut dyn FnMut() -> TestCase<T>,
    samples: &Samples,
) {
    let config = w.config;
    while !w.frontier.is_stopped() {
        // Workers race on the counter, but since sample `i` behaves
        // identically whoever runs it, the race is coverage-invisible.
        let index = samples.next.fetch_add(1, Ordering::Relaxed);
        if index >= config.max_schedules {
            break;
        }
        {
            let mut st = w.state().borrow_mut();
            st.reset();
            st.policy = Some(policy_for(&config.strategy, index as u64, config.max_depth));
        }
        let run = w.run(factory);
        lock(&samples.hashes).insert(schedule_hash(&run.0.schedule.choices));
        w.account(run, |_| sample_key(index));
        w.stats.sampled += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_stream_is_pinned() {
        // The stream is part of the replay contract: a seed in a bug
        // report must generate the same schedule forever.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn stream_seeds_are_index_sensitive() {
        let a = stream_seed(42, 0);
        let b = stream_seed(42, 1);
        assert_ne!(a, b);
        assert_eq!(a, stream_seed(42, 0), "pure function of (base, index)");
    }

    #[test]
    fn pct_change_point_demotes_the_leader() {
        // depth 2 with horizon 2 puts the single change point on
        // decision 1 or 2 depending on the seed. When it lands on
        // decision 2, the leader of pick 1 is demoted below everyone
        // at pick 2 — the lead must transfer and then stay put.
        let alts = [0, 1].map(|t| {
            Alt::new(
                conch_runtime::ids::ThreadId::from_index(t),
                conch_runtime::decide::StepFootprint::Local,
            )
        });
        let mut transfers = 0;
        for seed in 0..32 {
            let mut p = SamplePolicy::pct(2, seed, 2);
            let first = p.pick_thread(&alts);
            let second = p.pick_thread(&alts);
            let third = p.pick_thread(&alts);
            if first != second {
                // Change point fired at decision 2: lead transferred,
                // and with all change points spent it stays put.
                transfers += 1;
                assert_eq!(
                    second, third,
                    "priorities must be stable after the last change point"
                );
            }
        }
        assert!(
            transfers > 0,
            "some seed must place the change point mid-run"
        );
    }

    #[test]
    fn schedule_hash_distinguishes_choice_kinds() {
        let a = schedule_hash(&[Choice::Thread(1)]);
        let b = schedule_hash(&[Choice::Arm(1)]);
        let c = schedule_hash(&[Choice::Deliver(true)]);
        assert!(a != b && b != c && a != c);
    }

    #[test]
    fn sample_keys_order_numerically() {
        assert!(sample_key(1) < sample_key(2));
        assert!(sample_key(u32::MAX as usize) < sample_key(u32::MAX as usize + 1));
    }
}
