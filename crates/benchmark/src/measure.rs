//! How a number is taken: one process, one workload, set-up then timed
//! repetitions.
//!
//! Set-up is input generation from the seed, program and wire
//! construction and one warm-up rep; it is done fifteen times and the
//! median over three groups of each group's fastest is reported
//! (`summary::grouped_fastest`). Then the same fixed-size rep runs back to back
//! (a closed loop in host time) for the run's duration. Host-time
//! throughput comes from the **fastest** rep (`summary::fastest`);
//! median, p75 and spread are reported beside it under `host.*`.
//!
//! With a tracer switched on, a second batch of reps follows the timed
//! one with the span recorder and the allocator tally on. End-to-end
//! metrics only ever come from the first, untraced batch.

use std::time::Instant;

use crate::alloc::{self, AllocCounts};
use crate::json::Json;
use crate::metrics::{self, rep_counts};
use crate::span::Tracer;
use crate::summary::{fastest, grouped_fastest, median, percentile, ratio, spread};
use crate::workloads::{keepalive_wall_parallel, Rep, Size, Spec};

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    pub size: Size,
    /// How long the timed reps run, in seconds; a traced run splits it
    /// between the untraced and the traced batch.
    pub seconds: f64,
    /// Times set-up is repeated (at least 1).
    pub setups: usize,
    /// Timed reps run even when `seconds` is already over.
    pub min_reps: usize,
}

/// What the traced batch adds.
#[derive(Debug, Clone)]
pub struct Traced {
    pub rep_seconds: Vec<f64>,
    pub alloc: AllocCounts,
    /// `(calls, ns)` in the benchmark's `handler` / `factory` callbacks.
    pub handler: (u64, u64),
    pub factory: (u64, u64),
    /// Summed duration of the traced `run` spans, for `factory_share`.
    pub run_ns: u64,
}

/// One process's reading of one workload.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub workload: &'static str,
    pub op: &'static str,
    pub seed: u64,
    pub size: Size,
    pub setup_seconds: Vec<f64>,
    pub rep_seconds: Vec<f64>,
    /// The first rep; every later rep must equal it.
    pub rep: Rep,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub peak_rss_mib: f64,
    pub traced: Option<Traced>,
}

/// The process's resident-set high-water mark, from `VmHWM`.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs reps until `seconds` have passed and at least `min_reps` ran.
/// Returns each rep's wall seconds.
fn rep_loop(
    seconds: f64,
    min_reps: usize,
    m: &mut Measurement,
    mut one: impl FnMut(u64) -> Rep,
) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let rep = one(times.len() as u64);
        times.push(t.elapsed().as_secs_f64());
        m.account(rep);
    }
    times
}

impl Measurement {
    /// Adds one rep's ops and failures, and holds it to the first rep:
    /// counts must repeat bit-for-bit.
    fn account(&mut self, rep: Rep) {
        self.attempted += rep.ops;
        self.failed += rep.failed;
        if rep.violations.is_empty() && rep != self.rep && self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(format!(
                "{}: a rep's counts differ from the first rep's",
                self.workload
            ));
        }
        for v in rep.violations {
            if self.violations.len() < MAX_VIOLATIONS {
                self.violations.push(v);
            }
        }
    }

    /// No output check failed and no bypass assertion broke.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// `(name, value)` for every end-to-end metric.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("setup_s", grouped_fastest(&self.setup_seconds)),
            (
                "ops_per_host_s",
                ratio(self.rep.ops as f64, fastest(&self.rep_seconds)),
            ),
            ("peak_rss_mib", self.peak_rss_mib),
            (
                "failed_share",
                ratio(self.failed as f64, self.attempted as f64),
            ),
        ]
    }

    /// `(name, value)` for the per-layer metrics this process took
    /// itself: the rep's counts, and everything timed on the workload.
    /// Probes and the wall-parallel block are added by the caller.
    pub fn per_layer(&self) -> Vec<(&'static str, f64)> {
        let mut out = rep_counts(&self.rep);
        let min = fastest(&self.rep_seconds);
        let ms = |s: f64| s * 1e3;
        out.extend([
            (
                "runtime.interp.ns_per_step",
                ratio(min * 1e9, self.rep.stats.steps as f64),
            ),
            ("host.reps", self.rep_seconds.len() as f64),
            ("host.rep_ms_min", ms(min)),
            ("host.rep_ms_p50", ms(median(&self.rep_seconds))),
            ("host.rep_ms_p75", ms(percentile(&self.rep_seconds, 75.0))),
            ("host.rep_spread", spread(&self.rep_seconds)),
        ]);
        let explored = self.rep.explored.clone().unwrap_or_default();
        out.extend([
            (
                "explore.schedules_per_host_s",
                ratio(explored.explored as f64, min),
            ),
            (
                "explore.replay_share",
                ratio(explored.timing.replay_seconds, min),
            ),
            (
                "explore.analysis_share",
                ratio(explored.timing.analysis_seconds, min),
            ),
        ]);
        if let Some(t) = &self.traced {
            let ops = (t.rep_seconds.len() as u64 * self.rep.ops) as f64;
            out.extend([
                (
                    "host.trace_overhead_share",
                    ratio(fastest(&t.rep_seconds), min) - 1.0,
                ),
                (
                    "httpd.serve.handler_self_ns",
                    ratio(t.handler.1 as f64, t.handler.0 as f64),
                ),
                (
                    "explore.factory_share",
                    ratio(t.factory.1 as f64, t.run_ns as f64),
                ),
                ("alloc.allocs_per_op", ratio(t.alloc.allocs as f64, ops)),
                ("alloc.bytes_per_op", ratio(t.alloc.bytes as f64, ops)),
                ("alloc.reallocs_per_op", ratio(t.alloc.reallocs as f64, ops)),
                (
                    "alloc.peak_live_mib",
                    t.alloc.peak_live_bytes as f64 / (1024.0 * 1024.0),
                ),
            ]);
        }
        out
    }

    /// Everything the driver needs from a child, as one JSON object.
    pub fn detail(&self) -> Json {
        let nums = |xs: &[f64]| Json::Arr(xs.iter().map(|x| Json::Num(*x)).collect());
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("op", Json::str(self.op)),
            ("seed", Json::Num(self.seed as f64)),
            ("smoke", Json::Bool(self.size == Size::Smoke)),
            ("ops_per_rep", Json::Num(self.rep.ops as f64)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "violations",
                Json::Arr(self.violations.iter().map(Json::str).collect()),
            ),
            ("setup_seconds", nums(&self.setup_seconds)),
            ("rep_seconds", nums(&self.rep_seconds)),
            ("peak_rss_mib", Json::Num(self.peak_rss_mib)),
            (
                "counts",
                Json::obj(
                    rep_counts(&self.rep)
                        .into_iter()
                        .map(|(k, v)| (k, Json::Num(v))),
                ),
            ),
        ])
    }
}

/// Violations kept per measurement; a broken workload fails thousands
/// of ops the same way.
const MAX_VIOLATIONS: usize = 20;

/// Measures one workload in this process.
pub fn measure(spec: &'static Spec, opts: Options, tracer: &Tracer) -> Measurement {
    let off = Tracer::off();
    let mut setup_seconds = Vec::new();
    let mut ready = None;
    for _ in 0..opts.setups.max(1) {
        let t = Instant::now();
        let workload = (spec.make)(opts.seed, opts.size);
        let warm_up = workload.rep(&off);
        setup_seconds.push(t.elapsed().as_secs_f64());
        ready = Some((workload, warm_up));
    }
    let (workload, warm_up) = ready.expect("set-up ran at least once");
    let mut m = Measurement {
        workload: spec.name,
        op: spec.op,
        seed: opts.seed,
        size: opts.size,
        setup_seconds,
        rep_seconds: Vec::new(),
        rep: warm_up.clone(),
        attempted: 0,
        failed: 0,
        violations: Vec::new(),
        peak_rss_mib: 0.0,
        traced: None,
    };
    // A warm-up that fails its checks must fail the run even though its
    // ops are not counted.
    m.account(warm_up);
    (m.attempted, m.failed) = (0, 0);

    let untraced_seconds = if tracer.is_on() {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    m.rep_seconds = rep_loop(untraced_seconds, opts.min_reps, &mut m, |_| {
        workload.rep(&off)
    });
    m.peak_rss_mib = peak_rss_mib();

    if tracer.is_on() {
        let _w = tracer.span(spec.name);
        let handler_before = tracer.callback_total("handler");
        let factory_before = tracer.callback_total("factory");
        let run_before = tracer.total_ns_of("run");
        alloc::start();
        let rep_seconds = rep_loop(opts.seconds / 2.0, opts.min_reps, &mut m, |i| {
            let _r = tracer.rep_span(i);
            workload.rep(tracer)
        });
        let alloc = alloc::stop();
        let since = |now: (u64, u64), before: (u64, u64)| (now.0 - before.0, now.1 - before.1);
        m.traced = Some(Traced {
            rep_seconds,
            alloc,
            handler: since(tracer.callback_total("handler"), handler_before),
            factory: since(tracer.callback_total("factory"), factory_before),
            run_ns: tracer.total_ns_of("run") - run_before,
        });
    }
    m
}

/// `runtime.parallel.*`: the `httpd_keepalive` load through
/// `wall_parallel_load` at 2 shards, on one OS thread and on two.
/// Fastest of `reps` alternating pairs. Per-layer and traced-run only:
/// on a shared 2-core host its spread is too wide to gate on.
pub fn wall_parallel(size: Size, reps: usize, tracer: &Tracer) -> Vec<(&'static str, f64)> {
    let _s = tracer.span("runtime.parallel");
    let mut best = [f64::INFINITY; 2];
    let mut counts = (0, 0);
    let mut requests = 0.0;
    for _ in 0..reps.max(1) {
        for (slot, os_threads) in [1, 2].into_iter().enumerate() {
            let _r = tracer.span(if os_threads == 1 {
                "wall_parallel_load.os1"
            } else {
                "wall_parallel_load.os2"
            });
            let (report, secs) = keepalive_wall_parallel(size, os_threads);
            best[slot] = best[slot].min(secs);
            counts = (report.rounds, report.messages);
            requests = report.oks as f64;
        }
    }
    vec![
        ("runtime.parallel.os1_ops_per_host_s", requests / best[0]),
        ("runtime.parallel.os2_ops_per_host_s", requests / best[1]),
        ("runtime.parallel.wall_speedup_os2", best[0] / best[1]),
        ("runtime.parallel.rounds", counts.0 as f64),
        ("runtime.parallel.messages", counts.1 as f64),
    ]
}

/// Fills every per-layer metric: readings that were taken, 0 for a
/// layer this run did not enter. Ordered as [`metrics::PER_LAYER`].
pub fn complete_per_layer(taken: &[(&'static str, f64)]) -> Vec<(&'static metrics::PerLayer, f64)> {
    metrics::PER_LAYER
        .iter()
        .map(|m| {
            let value = taken
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(0.0, |t| t.1);
            (m, value)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use std::collections::BTreeSet;

    fn smoke() -> Options {
        Options {
            seed: 1,
            size: Size::Smoke,
            seconds: 0.0,
            setups: 2,
            min_reps: 3,
        }
    }

    #[test]
    fn untraced_measurement_takes_end_to_end_only() {
        let m = measure(&WORKLOADS[0], smoke(), &Tracer::off());
        assert!(m.correct(), "{:?}", m.violations);
        assert_eq!(m.setup_seconds.len(), 2);
        assert_eq!(m.rep_seconds.len(), 3);
        assert_eq!(m.attempted, 3 * m.rep.ops);
        assert!(m.traced.is_none());
        let e2e = m.end_to_end();
        let names: Vec<&str> = e2e.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            metrics::END_TO_END
                .iter()
                .map(|m| m.name)
                .collect::<Vec<_>>()
        );
        assert!(e2e.iter().all(|(n, v)| *n == "failed_share" || *v > 0.0));
        assert_eq!(
            crate::json::parse(&m.detail().render()).unwrap(),
            m.detail()
        );
    }

    #[test]
    fn traced_run_reports_every_per_layer_metric() {
        let tracer = Tracer::on();
        let spec = crate::workloads::find("httpd_keepalive").unwrap();
        let m = measure(spec, smoke(), &tracer);
        assert!(m.correct(), "{:?}", m.violations);
        let mut taken = m.per_layer();
        taken.extend(crate::probes::run(&tracer, Size::Smoke));
        taken.extend(wall_parallel(Size::Smoke, 1, &tracer));
        let names: BTreeSet<&str> = taken.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), taken.len(), "a metric was reported twice");
        let all: BTreeSet<&str> = metrics::PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, all);
        let value = |n: &str| taken.iter().find(|(k, _)| *k == n).unwrap().1;
        assert_eq!(value("httpd.serve.handler_calls_per_op"), 1.0);
        assert!(value("httpd.serve.handler_self_ns") > 0.0);
        assert!(value("combinators.probe.timeout_fired_steps") > 0.0);
        assert_eq!(value("runtime.parallel.messages"), 1.0);
        assert!(value("host.trace_overhead_share") > -1.0);

        // The top-level span is the workload; reps hang off it.
        let spans = tracer.spans();
        let top = spans.iter().position(|s| s.name == spec.name).unwrap();
        assert_eq!(spans[top].parent, None);
        assert!(spans
            .iter()
            .any(|s| s.name == "rep" && s.parent == Some(top) && s.rep == Some(2)));
        assert!(spans.iter().any(|s| s.name == "handler" && s.rep.is_some()));
    }

    #[test]
    fn failed_checks_surface_in_the_measurement() {
        let mut m = measure(&WORKLOADS[0], smoke(), &Tracer::off());
        let mut bad = m.rep.clone();
        bad.bypasses("forks", 3);
        m.account(bad);
        assert!(!m.correct());
        assert!(m.failed > 0);
        assert!(m.violations.iter().any(|v| v.contains("bypass broken")));
        let share = m.end_to_end()[3];
        assert!(share.0 == "failed_share" && share.1 > 0.0);
    }
}
