//! The six workloads.
//!
//! A workload is a fixed-size deterministic job. [`Spec::make`]
//! generates its inputs from the seed; [`Workload::rep`] then runs one
//! repetition on a fresh `Runtime`/`Explorer` — `build`, `run`,
//! `verify` — and returns what the layers counted. The seed drives
//! input generation only: it permutes and relabels, and never changes
//! how much work a rep is, so throughput is comparable across seeds.

use conch_explore::{Report, Timing};
use conch_httpd::server::StatsSnapshot;
use conch_runtime::prelude::*;
use conch_runtime::Stats;

use crate::span::Tracer;

mod async_storm;
mod explore_dpor;
mod httpd;
mod interp_pure;
mod mvar_sched;
pub mod programs;

pub use httpd::keepalive_wall_parallel;

/// How big a repetition is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Sized to ≈60–90 ms per rep on the 2-CPU host the issue names:
    /// short enough that some of a run's ~130 reps dodge a busy
    /// neighbour, long enough that per-rep set-up does not show.
    Full,
    /// The same programs and checks at a size the crate's tests can run
    /// in debug builds.
    Smoke,
}

impl Size {
    /// Picks the full or the smoke value of a size parameter.
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Size::Full => full,
            Size::Smoke => smoke,
        }
    }
}

/// What the serving layer counted in one httpd rep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Serve {
    pub snapshot: StatsSnapshot,
    pub handler_calls: u64,
}

/// What the explorer counted in one `explore_dpor` rep, summed over the
/// rep's four explorations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Explored {
    pub explored: u64,
    pub pruned: u64,
    pub steps: u64,
    pub races: u64,
    pub backtracks: u64,
    pub shrink_runs: u64,
    /// The explorer's own stopwatch. `Timing` is always equal under
    /// `==` (timing is measurement, not coverage), so it rides along
    /// without breaking the bit-for-bit comparison.
    pub timing: Timing,
}

impl Explored {
    pub fn add(&mut self, report: &Report) {
        self.explored += report.explored as u64;
        self.pruned += report.pruned as u64;
        self.steps += report.steps;
        self.races += report.stats.races_detected;
        self.backtracks += report.stats.backtracks_installed;
        self.shrink_runs += report.shrink_runs as u64;
        self.timing.replay_seconds += report.timing.replay_seconds;
        self.timing.analysis_seconds += report.timing.analysis_seconds;
    }
}

/// Everything one repetition observed. Equality covers exactly the
/// seed-deterministic part, which must repeat bit-for-bit from rep to
/// rep and from run to run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Rep {
    /// Operations attempted (the workload names its op).
    pub ops: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Human-readable reasons for every failed check or broken bypass
    /// assertion.
    pub violations: Vec<String>,
    /// Runtime counters, merged over every `Runtime` the rep ran.
    pub stats: Stats,
    pub serve: Option<Serve>,
    pub explored: Option<Explored>,
}

impl Rep {
    /// Records a failed check; returns `ok` so callers can count.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.violations.push(what());
        }
        ok
    }

    /// A check that voids the whole rep when it fails: a wrong final
    /// value or a broken bypass assertion says nothing about which op
    /// went wrong, so every op of the rep counts as failed.
    pub fn check_all(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !self.check(ok, what) {
            self.failed = self.ops;
        }
    }

    /// Enforces a bypass assertion: a layer this workload is built to
    /// avoid did no work at all.
    pub fn bypasses(&mut self, layer: &str, count: u64) {
        self.check_all(count == 0, || {
            format!("bypass broken: {layer} = {count}, expected 0")
        });
    }
}

/// The first two phases of a rep on the runtime: `build` (the program
/// and a fresh `Runtime`) and `run`, each under its span. The caller
/// opens `verify` and reads counters and the clock off the runtime.
pub fn build_and_run<T: FromValue>(
    tracer: &Tracer,
    build: impl FnOnce() -> Io<T>,
) -> (Result<T, RunError>, Runtime) {
    let (mut rt, program) = {
        let _s = tracer.span("build");
        (Runtime::with_config(RuntimeConfig::new()), build())
    };
    let _s = tracer.span("run");
    let result = rt.run(program);
    (result, rt)
}

/// One workload with its inputs generated.
pub trait Workload {
    /// Runs one repetition: build, run, verify.
    fn rep(&self, tracer: &Tracer) -> Rep;
}

/// A workload's name, its op, why it exists, and its input generator.
pub struct Spec {
    pub name: &'static str,
    /// What `ops_per_host_s` counts on this workload.
    pub op: &'static str,
    pub why: &'static str,
    pub make: fn(seed: u64, size: Size) -> Box<dyn Workload>,
}

pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "interp_pure",
        op: "step",
        why: "one thread of compute chunks and bind/map/catch chains: only the interpreter step and Io/Value allocation work; scheduler, MVar, timer and exception layers are bypassed",
        make: interp_pure::make,
    },
    Spec {
        name: "mvar_sched",
        op: "handoff",
        why: "64-thread token ring, a Chan pair and fork/join churn: run queue, context switch, block/wake and MVar do the work; timers and throwTo are bypassed",
        make: mvar_sched::make,
    },
    Spec {
        name: "async_storm",
        op: "round",
        why: "8 workers of timeouts that fire and do not, race/both, bracket/finally/modify_mvar under a killer, deep block/unblock: the paper's own machinery works, httpd is bypassed",
        make: async_storm::make,
    },
    Spec {
        name: "httpd_keepalive",
        op: "request",
        why: "1200 keep-alive connections x 10 pipelined GETs over 4 shards: the full stack on the steady pipelined path (shard, FrameConnection, Mailbox accept queue, stats cell)",
        make: httpd::make_keepalive,
    },
    Spec {
        name: "httpd_churn",
        op: "request",
        why: "fork-per-connection server, 1500 one-request connections, 10% misbehaving: a thread and two timeouts per connection, timeouts that really fire, char wire - the other serving path",
        make: httpd::make_churn,
    },
    Spec {
        name: "explore_dpor",
        op: "verdict",
        why: "exhaustive DPOR to completion on four programs, one of which must fail and shrink: time to a correct verdict is what an explorer user waits for, so fewer schedules scores higher",
        make: explore_dpor::make,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: the seed-to-inputs generator. Hand-rolled so the input
/// stream can never shift under a dependency.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for one workload: the salt keeps workloads' inputs
    /// independent under one seed.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` ≥ 1; the modulo bias is irrelevant at
    /// these sizes).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_pure_function_of_seed_and_salt() {
        let draw = |seed, salt| {
            let mut r = Rng::new(seed, salt);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 1), draw(1, 1));
        assert_ne!(draw(1, 1), draw(2, 1));
        assert_ne!(draw(1, 1), draw(1, 2));
        let mut r = Rng::new(7, 0);
        let mut xs: Vec<u64> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert!((0..100).all(|_| (3..=9).contains(&r.between(3, 9))));
    }

    /// Every workload at smoke size passes its own checks, repeats its
    /// counts bit-for-bit across two runs of one seed, and still passes
    /// on a second seed.
    #[test]
    fn smoke_reps_pass_and_repeat() {
        for spec in &WORKLOADS {
            let first = (spec.make)(1, Size::Smoke).rep(&Tracer::off());
            assert_eq!(first.violations, Vec::<String>::new(), "{}", spec.name);
            assert_eq!(first.failed, 0, "{}", spec.name);
            assert!(first.ops > 0, "{}", spec.name);
            let again = (spec.make)(1, Size::Smoke).rep(&Tracer::off());
            assert_eq!(first, again, "{} must repeat for one seed", spec.name);
            let other = (spec.make)(2, Size::Smoke).rep(&Tracer::off());
            assert_eq!(other.violations, Vec::<String>::new(), "{}", spec.name);
            assert_eq!(
                other.ops, first.ops,
                "{}: the seed must not resize the job",
                spec.name
            );
        }
    }

    #[test]
    fn traced_reps_record_build_run_verify_under_rep() {
        for spec in &WORKLOADS {
            let tracer = Tracer::on();
            {
                let _r = tracer.rep_span(0);
                (spec.make)(1, Size::Smoke).rep(&tracer);
            }
            let spans = tracer.spans();
            for phase in ["build", "run", "verify"] {
                let s = spans
                    .iter()
                    .find(|s| s.name == phase)
                    .unwrap_or_else(|| panic!("{}: no {phase} span", spec.name));
                assert_eq!(s.parent, Some(0), "{}: {phase}", spec.name);
                assert_eq!(s.rep, Some(0));
            }
        }
    }
}
