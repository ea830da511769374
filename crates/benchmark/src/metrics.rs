//! The metric tables: every name the benchmark prints, with its unit,
//! its direction, and — for end-to-end metrics — the bound by which it
//! may worsen before a change counts as a regression.
//!
//! `BENCHMARK.json` restates these tables for the driver; a test keeps
//! the two in step.

use crate::summary::ratio;
use crate::workloads::Rep;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// By what share of `a` the reading `b` is worse (negative: better).
    pub fn worsening(self, a: f64, b: f64) -> f64 {
        match self {
            Better::Higher => ratio(a - b, a),
            Better::Lower => ratio(b - a, a),
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the earlier reading by which the later may be worse.
    pub bound: f64,
    /// A worsening smaller than this in absolute terms never counts:
    /// a quarter of a 40 ms set-up is below what this host resolves.
    pub absolute_floor: f64,
}

/// What a user of the system sees. Taken only ever with tracing off.
///
/// The bounds are what this 2-vCPU shared host resolves. In calm
/// stretches the spread over ten runs, each with another seed, is
/// 0.6–8 % for `ops_per_host_s` and 0.5–3.6 % for `peak_rss_mib`, and
/// each bound is at least three times that. But the host also has busy
/// stretches of a minute or two in which even the fastest of a run's
/// 130 reps is 20–35 % slow; two of four ten-run sets caught one and
/// read spreads of 18 % and 22 % on the workload they hit. A bound
/// under that would reject the same code against itself, so
/// `ops_per_host_s` takes the largest bound a metric may have, as
/// `setup_s` does.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        absolute_floor: 0.05,
    },
    EndToEnd {
        name: "ops_per_host_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        absolute_floor: 0.0,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.12,
        absolute_floor: 0.0,
    },
    EndToEnd {
        name: "failed_share",
        unit: "share",
        better: Better::Lower,
        bound: 0.0,
        absolute_floor: 0.0,
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Where a per-layer reading comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Public `Stats` / `Report` / `StatsSnapshot` after a rep: exact,
    /// and must repeat bit-for-bit for a seed.
    Count,
    /// A stopwatch, the allocator tally, or a share of one.
    Measured,
    /// A `probe.*` `_steps` figure or a `runtime.parallel` count: exact
    /// like `Count`, but only the traced run takes it.
    TracedCount,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
}

/// One row per metric: name, unit, which way is better, source. A macro
/// only so that each row stays on one line.
macro_rules! per_layer {
    ($($name:literal $unit:literal $better:ident $source:ident;)*) => {
        [$(PerLayer {
            name: $name,
            unit: $unit,
            better: Better::$better,
            source: Source::$source,
        }),*]
    };
}

/// Every per-layer metric, layer by layer (layer = module). None has a
/// bound. README says which `ops_per_host_s` each is predicted to move.
pub const PER_LAYER: [PerLayer; 87] = per_layer! {
    "runtime.interp.steps_per_op" "steps" Lower Count;
    "runtime.interp.ns_per_step" "ns" Lower Measured;
    "runtime.interp.probe.compute_ns_per_step" "ns" Lower Measured;
    "runtime.interp.probe.bind_ns_per_step" "ns" Lower Measured;
    "runtime.interp.probe.catch_frame_ns" "ns" Lower Measured;
    "runtime.sched.context_switches_per_op" "count" Lower Count;
    "runtime.sched.forks_per_op" "count" Lower Count;
    "runtime.sched.blocks_per_op" "count" Lower Count;
    "runtime.sched.max_thread_slots" "count" Lower Count;
    "runtime.sched.max_stack_depth" "count" Lower Count;
    "runtime.sched.probe.fork_exit_ns" "ns" Lower Measured;
    "runtime.sched.probe.yield_switch_ns" "ns" Lower Measured;
    "runtime.sched.probe.runtime_new_ns" "ns" Lower Measured;
    "runtime.sched.probe.runtime_reset_ns" "ns" Lower Measured;
    "runtime.mvar.ops_per_op" "count" Lower Count;
    "runtime.mvar.probe.uncontended_pair_ns" "ns" Lower Measured;
    "runtime.mvar.probe.handoff_ns" "ns" Lower Measured;
    "runtime.timer.ops_per_op" "count" Lower Count;
    "runtime.timer.max_sleepers" "count" Lower Count;
    "runtime.timer.probe.wheel_insert_expire_ns" "ns" Lower Measured;
    "runtime.timer.probe.sleep_wake_ns" "ns" Lower Measured;
    "runtime.exception.throwtos_per_op" "count" Lower Count;
    "runtime.exception.deliveries_per_op" "count" Lower Count;
    "runtime.exception.delivered_share" "share" Higher Count;
    "runtime.exception.interrupted_share" "share" Lower Count;
    "runtime.exception.catches_per_op" "count" Lower Count;
    "runtime.exception.sync_throws_per_op" "count" Lower Count;
    "runtime.exception.kill_deaths_per_op" "count" Lower Count;
    "runtime.exception.delivery_latency_steps_mean" "steps" Lower Count;
    "runtime.exception.mask_frames_collapsed_per_op" "count" Higher Count;
    "runtime.exception.max_mask_frames" "count" Lower Count;
    "runtime.exception.probe.kill_round_ns" "ns" Lower Measured;
    "runtime.exception.probe.mask_pair_ns" "ns" Lower Measured;
    "combinators.probe.timeout_unfired_ns" "ns" Lower Measured;
    "combinators.probe.timeout_unfired_steps" "steps" Lower TracedCount;
    "combinators.probe.timeout_fired_ns" "ns" Lower Measured;
    "combinators.probe.timeout_fired_steps" "steps" Lower TracedCount;
    "combinators.probe.race_ns" "ns" Lower Measured;
    "combinators.probe.race_steps" "steps" Lower TracedCount;
    "combinators.probe.both_ns" "ns" Lower Measured;
    "combinators.probe.both_steps" "steps" Lower TracedCount;
    "combinators.probe.bracket_ns" "ns" Lower Measured;
    "combinators.probe.bracket_steps" "steps" Lower TracedCount;
    "combinators.probe.modify_mvar_ns" "ns" Lower Measured;
    "combinators.probe.modify_mvar_steps" "steps" Lower TracedCount;
    "combinators.probe.chan_item_ns" "ns" Lower Measured;
    "combinators.probe.chan_item_steps" "steps" Lower TracedCount;
    "actors.probe.mailbox_send_recv_ns" "ns" Lower Measured;
    "actors.probe.mailbox_send_recv_steps" "steps" Lower TracedCount;
    "httpd.http.probe.parse_request_ns" "ns" Lower Measured;
    "httpd.http.probe.render_response_ns" "ns" Lower Measured;
    "httpd.net.probe.frame_roundtrip_ns" "ns" Lower Measured;
    "httpd.net.probe.frame_roundtrip_steps" "steps" Lower TracedCount;
    "httpd.serve.handler_calls_per_op" "count" Lower Count;
    "httpd.serve.handler_self_ns" "ns" Lower Measured;
    "httpd.serve.outcome.served_share" "share" Higher Count;
    "httpd.serve.outcome.read_timeout_share" "share" Lower Count;
    "httpd.serve.outcome.parse_error_share" "share" Lower Count;
    "httpd.serve.outcome.aborted_share" "share" Lower Count;
    "httpd.serve.outcome.killed_share" "share" Lower Count;
    "httpd.serve.outcome.shed_share" "share" Lower Count;
    "runtime.parallel.os1_ops_per_host_s" "1/s" Higher Measured;
    "runtime.parallel.os2_ops_per_host_s" "1/s" Higher Measured;
    "runtime.parallel.wall_speedup_os2" "x" Higher Measured;
    "runtime.parallel.rounds" "count" Lower TracedCount;
    "runtime.parallel.messages" "count" Lower TracedCount;
    "explore.schedules_explored" "count" Lower Count;
    "explore.schedules_pruned" "count" Lower Count;
    "explore.useful_share" "share" Higher Count;
    "explore.schedules_per_host_s" "1/s" Higher Measured;
    "explore.steps_per_schedule" "steps" Lower Count;
    "explore.replay_share" "share" Lower Measured;
    "explore.analysis_share" "share" Lower Measured;
    "explore.factory_share" "share" Lower Measured;
    "explore.races_per_schedule" "count" Lower Count;
    "explore.backtracks_installed" "count" Lower Count;
    "explore.shrink_runs" "count" Lower Count;
    "alloc.allocs_per_op" "count" Lower Measured;
    "alloc.bytes_per_op" "B" Lower Measured;
    "alloc.reallocs_per_op" "count" Lower Measured;
    "alloc.peak_live_mib" "MiB" Lower Measured;
    "host.reps" "count" Higher Measured;
    "host.rep_ms_min" "ms" Lower Measured;
    "host.rep_ms_p50" "ms" Lower Measured;
    "host.rep_ms_p75" "ms" Lower Measured;
    "host.rep_spread" "share" Lower Measured;
    "host.trace_overhead_share" "share" Lower Measured;
};

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// The [`Source::Count`] metrics of one rep. A layer the workload never
/// enters reads 0.
pub fn rep_counts(rep: &Rep) -> Vec<(&'static str, f64)> {
    let s = &rep.stats;
    let ops = rep.ops as f64;
    let per_op = |n: u64| ratio(n as f64, ops);
    let deliveries = s.total_deliveries();
    let mut out = vec![
        ("runtime.interp.steps_per_op", per_op(s.steps)),
        (
            "runtime.sched.context_switches_per_op",
            per_op(s.context_switches),
        ),
        ("runtime.sched.forks_per_op", per_op(s.forks)),
        ("runtime.sched.blocks_per_op", per_op(s.blocks)),
        ("runtime.sched.max_thread_slots", s.max_thread_slots as f64),
        ("runtime.sched.max_stack_depth", s.max_stack_depth as f64),
        ("runtime.mvar.ops_per_op", per_op(s.mvar_ops)),
        ("runtime.timer.ops_per_op", per_op(s.timer_ops)),
        ("runtime.timer.max_sleepers", s.max_sleeper_heap as f64),
        ("runtime.exception.throwtos_per_op", per_op(s.throwtos)),
        ("runtime.exception.deliveries_per_op", per_op(deliveries)),
        (
            "runtime.exception.delivered_share",
            ratio(deliveries as f64, s.throwtos as f64),
        ),
        (
            "runtime.exception.interrupted_share",
            ratio(s.interrupted_blocked as f64, deliveries as f64),
        ),
        ("runtime.exception.catches_per_op", per_op(s.catches)),
        (
            "runtime.exception.sync_throws_per_op",
            per_op(s.sync_throws),
        ),
        (
            "runtime.exception.kill_deaths_per_op",
            per_op(s.kill_thread_deaths),
        ),
        (
            "runtime.exception.delivery_latency_steps_mean",
            s.mean_delivery_latency().unwrap_or(0.0),
        ),
        (
            "runtime.exception.mask_frames_collapsed_per_op",
            per_op(s.mask_frames_collapsed),
        ),
        (
            "runtime.exception.max_mask_frames",
            s.max_mask_frames as f64,
        ),
    ];
    let serve = rep.serve.as_ref();
    let snap = serve.map(|s| s.snapshot).unwrap_or_default();
    let share = |n: i64| ratio(n as f64, snap.accepted as f64);
    out.extend([
        (
            "httpd.serve.handler_calls_per_op",
            per_op(serve.map_or(0, |s| s.handler_calls)),
        ),
        ("httpd.serve.outcome.served_share", share(snap.served)),
        (
            "httpd.serve.outcome.read_timeout_share",
            share(snap.read_timeouts),
        ),
        (
            "httpd.serve.outcome.parse_error_share",
            share(snap.parse_errors),
        ),
        ("httpd.serve.outcome.aborted_share", share(snap.aborted)),
        ("httpd.serve.outcome.killed_share", share(snap.killed)),
        ("httpd.serve.outcome.shed_share", share(snap.shed)),
    ]);
    let e = rep.explored.clone().unwrap_or_default();
    let explored = e.explored as f64;
    out.extend([
        ("explore.schedules_explored", explored),
        ("explore.schedules_pruned", e.pruned as f64),
        (
            "explore.useful_share",
            ratio(explored, explored + e.pruned as f64),
        ),
        (
            "explore.steps_per_schedule",
            ratio(e.steps as f64, explored),
        ),
        (
            "explore.races_per_schedule",
            ratio(e.races as f64, explored),
        ),
        ("explore.backtracks_installed", e.backtracks as f64),
        ("explore.shrink_runs", e.shrink_runs as f64),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let names: Vec<&str> = PER_LAYER
            .iter()
            .map(|m| m.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .collect();
        assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len());
        for n in names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn rep_counts_are_exactly_the_count_metrics() {
        let got: BTreeSet<&str> = rep_counts(&Rep::default())
            .iter()
            .map(|(n, _)| *n)
            .collect();
        let want: BTreeSet<&str> = PER_LAYER
            .iter()
            .filter(|m| m.source == Source::Count)
            .map(|m| m.name)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((Better::Higher.worsening(100.0, 93.0) - 0.07).abs() < 1e-12);
        assert!((Better::Lower.worsening(100.0, 105.0) - 0.05).abs() < 1e-12);
        assert!(Better::Lower.worsening(100.0, 90.0) < 0.0);
    }

    /// `BENCHMARK.json` is what the driver reads; it must name exactly
    /// the workloads and metrics this crate prints, with these units.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let rows = |key: &str| -> Vec<(String, Option<String>, Option<String>)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|row| {
                    let field = |k: &str| row.get(k).and_then(Json::as_str).map(str::to_owned);
                    (field("name").unwrap(), field("unit"), field("better"))
                })
                .collect()
        };
        let workloads: Vec<String> = rows("workloads").into_iter().map(|r| r.0).collect();
        let ours: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
        let per_layer: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    Some(m.unit.to_owned()),
                    Some(m.better.as_str().to_owned()),
                )
            })
            .collect();
        assert_eq!(rows("per_layer"), per_layer);
        // `failed_share` is reported through the result line's
        // `attempted` / `failed`, not as a driver metric: the driver
        // refuses a metric that reads 0.
        let end_to_end: Vec<_> = END_TO_END
            .iter()
            .filter(|m| m.name != "failed_share")
            .map(|m| {
                (
                    m.name.to_owned(),
                    Some(m.unit.to_owned()),
                    Some(m.better.as_str().to_owned()),
                )
            })
            .collect();
        assert_eq!(rows("end_to_end"), end_to_end);
        for row in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let name = row.get("name").and_then(Json::as_str).unwrap();
            assert_eq!(
                row.get("bound").and_then(Json::as_f64),
                Some(end_to_end_bound(name)),
                "{name}"
            );
        }
    }

    fn end_to_end_bound(name: &str) -> f64 {
        end_to_end(name).unwrap().bound
    }
}
