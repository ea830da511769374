//! `conch-benchmark compare <a.json> <b.json>` — holds two result files
//! from `run` against the benchmark's own bounds.
//!
//! One row per workload × end-to-end metric. A row is `ok` when `b` is
//! no worse than `a` by more than the metric's bound, `regressed` when
//! it is, and `unresolved` when either file's own block-to-block spread
//! of that metric is wider than the bound — the two files then cannot
//! tell a change of that size from noise (unless `b` simply reads
//! better). Seed-deterministic per-layer counts must be bit-identical,
//! and neither file may hold a failed op.

use crate::json::Json;
use crate::metrics::END_TO_END;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a: f64,
    pub b: f64,
    /// Share of `a` by which `b` is worse (negative: better).
    pub worse_by: f64,
    pub bound: f64,
    /// The wider of the two files' own spreads of this metric.
    pub spread: f64,
    pub verdict: Verdict,
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct Comparison {
    pub rows: Vec<Row>,
    /// Per-layer counts that differ, missing workloads, failed ops.
    pub mismatches: Vec<String>,
}

impl Comparison {
    /// The two files agree within the benchmark's bounds.
    pub fn agrees(&self) -> bool {
        self.mismatches.is_empty() && self.rows.iter().all(|r| r.verdict != Verdict::Regressed)
    }
}

fn workloads(doc: &Json) -> Result<&[Json], String> {
    doc.get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| "not a `conch-benchmark run` result file: no \"workloads\"".to_owned())
}

fn name(workload: &Json) -> &str {
    workload.get("name").and_then(Json::as_str).unwrap_or("?")
}

/// Compares result `b` (the later reading) against `a`.
pub fn compare(a: &Json, b: &Json) -> Result<Comparison, String> {
    let mut out = Comparison::default();
    for key in ["seed", "smoke"] {
        if a.get(key) != b.get(key) {
            out.mismatches.push(format!(
                "the files differ in \"{key}\": inputs are not the same"
            ));
        }
    }
    let (a_workloads, b_workloads) = (workloads(a)?, workloads(b)?);
    for wa in a_workloads {
        let workload = name(wa);
        let Some(wb) = b_workloads.iter().find(|w| name(w) == workload) else {
            out.mismatches.push(format!("{workload}: missing from b"));
            continue;
        };
        for (side, w) in [("a", wa), ("b", wb)] {
            let failed = w.get("failed").and_then(Json::as_f64).unwrap_or(f64::NAN);
            if failed != 0.0 {
                out.mismatches
                    .push(format!("{workload}: {failed} failed ops in {side}"));
            }
        }
        for metric in &END_TO_END {
            let read = |w: &Json, field: &str| {
                w.get("end_to_end")
                    .and_then(|e| e.get(metric.name))
                    .and_then(|m| m.get(field))
                    .and_then(Json::as_f64)
            };
            let (Some(va), Some(vb)) = (read(wa, "value"), read(wb, "value")) else {
                out.mismatches
                    .push(format!("{workload}: no {} in one file", metric.name));
                continue;
            };
            let spread = read(wa, "spread")
                .unwrap_or(0.0)
                .max(read(wb, "spread").unwrap_or(0.0));
            let worse_by = metric.better.worsening(va, vb);
            let negligible = (vb - va).abs() < metric.absolute_floor;
            let verdict = if worse_by <= 0.0 || negligible {
                Verdict::Ok
            } else if spread > metric.bound {
                Verdict::Unresolved
            } else if worse_by <= metric.bound {
                Verdict::Ok
            } else {
                Verdict::Regressed
            };
            out.rows.push(Row {
                workload: workload.to_owned(),
                metric: metric.name,
                unit: metric.unit,
                a: va,
                b: vb,
                worse_by,
                bound: metric.bound,
                spread,
                verdict,
            });
        }
        let counts = |w: &Json| {
            w.get("counts")
                .and_then(Json::as_obj)
                .unwrap_or(&[])
                .to_vec()
        };
        let (ca, cb) = (counts(wa), counts(wb));
        if ca.is_empty() {
            out.mismatches.push(format!("{workload}: no counts in a"));
        }
        for (key, va) in &ca {
            match cb.iter().find(|(k, _)| k == key) {
                Some((_, vb)) if va == vb => {}
                Some((_, vb)) => out.mismatches.push(format!(
                    "{workload}: {key} is {} in a but {} in b",
                    va.render(),
                    vb.render()
                )),
                None => out
                    .mismatches
                    .push(format!("{workload}: {key} missing from b")),
            }
        }
    }
    for wb in b_workloads {
        if !a_workloads.iter().any(|w| name(w) == name(wb)) {
            out.mismatches.push(format!("{}: missing from a", name(wb)));
        }
    }
    Ok(out)
}

/// The comparison as the table `compare` prints.
pub fn render(c: &Comparison) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:<15} {:>14} {:>14} {:>8} {:>6} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse", "bound", "spread"
    );
    for r in &c.rows {
        let _ = writeln!(
            out,
            "{:<16} {:<15} {:>14.4} {:>14.4} {:>7.1}% {:>5.0}% {:>6.1}%  {} ({})",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.spread * 100.0,
            r.verdict.as_str(),
            r.unit,
        );
    }
    for m in &c.mismatches {
        let _ = writeln!(out, "MISMATCH {m}");
    }
    let unresolved = c
        .rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    let _ = writeln!(
        out,
        "{}: {} rows, {} regressed, {} unresolved, {} mismatches",
        if c.agrees() { "AGREE" } else { "DISAGREE" },
        c.rows.len(),
        c.rows
            .iter()
            .filter(|r| r.verdict == Verdict::Regressed)
            .count(),
        unresolved,
        c.mismatches.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-workload result file, as `run` writes it.
    #[derive(Clone, Copy)]
    struct File {
        setup: f64,
        ops: f64,
        ops_spread: f64,
        rss: f64,
        steps_per_op: f64,
        failed: f64,
    }

    const BASE: File = File {
        setup: 0.40,
        ops: 5.0e7,
        ops_spread: 0.01,
        rss: 12.0,
        steps_per_op: 1.0,
        failed: 0.0,
    };

    impl File {
        fn json(self) -> Json {
            let metric = |value: f64, spread: f64| {
                Json::obj([("value", Json::Num(value)), ("spread", Json::Num(spread))])
            };
            Json::obj([
                ("seed", Json::Num(1.0)),
                ("smoke", Json::Bool(false)),
                (
                    "workloads",
                    Json::Arr(vec![Json::obj([
                        ("name", Json::str("interp_pure")),
                        ("failed", Json::Num(self.failed)),
                        (
                            "end_to_end",
                            Json::obj([
                                ("setup_s", metric(self.setup, 0.02)),
                                ("ops_per_host_s", metric(self.ops, self.ops_spread)),
                                ("peak_rss_mib", metric(self.rss, 0.0)),
                                ("failed_share", metric(0.0, 0.0)),
                            ]),
                        ),
                        (
                            "counts",
                            Json::obj([(
                                "runtime.interp.steps_per_op",
                                Json::Num(self.steps_per_op),
                            )]),
                        ),
                    ])]),
                ),
            ])
        }
    }

    fn cmp(a: File, b: File) -> Comparison {
        compare(&a.json(), &b.json()).unwrap()
    }

    fn verdict(c: &Comparison, metric: &str) -> Verdict {
        c.rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn same_code_twice_agrees() {
        let b = File {
            ops: 4.9e7,
            ops_spread: 0.02,
            rss: 12.1,
            ..BASE
        };
        let c = cmp(BASE, b);
        assert!(c.agrees(), "{}", render(&c));
        assert_eq!(c.rows.len(), 4);
        assert!(c.rows.iter().all(|r| r.verdict == Verdict::Ok));
    }

    #[test]
    fn a_worsening_past_the_bound_regresses() {
        let c = cmp(BASE, File { ops: 3.5e7, ..BASE });
        assert_eq!(verdict(&c, "ops_per_host_s"), Verdict::Regressed);
        assert!(!c.agrees());
        // 12 % more memory is the bound: 10 % is inside it, 15 % over.
        let c = cmp(BASE, File { rss: 13.8, ..BASE });
        assert_eq!(verdict(&c, "peak_rss_mib"), Verdict::Regressed);
        assert_eq!(
            verdict(&cmp(BASE, File { rss: 13.2, ..BASE }), "peak_rss_mib"),
            Verdict::Ok
        );
    }

    #[test]
    fn noise_wider_than_the_bound_is_unresolved_unless_b_is_better() {
        let noisy = File {
            ops_spread: 0.30,
            ..BASE
        };
        let worse = cmp(noisy, File { ops: 4.9e7, ..BASE });
        assert_eq!(verdict(&worse, "ops_per_host_s"), Verdict::Unresolved);
        assert!(worse.agrees());
        let better = cmp(noisy, File { ops: 5.2e7, ..BASE });
        assert_eq!(verdict(&better, "ops_per_host_s"), Verdict::Ok);
    }

    #[test]
    fn a_small_absolute_setup_change_never_counts() {
        let c = cmp(
            File {
                setup: 0.030,
                ..BASE
            },
            File {
                setup: 0.045,
                ..BASE
            },
        );
        let row = c.rows.iter().find(|r| r.metric == "setup_s").unwrap();
        assert!(row.worse_by > 0.25, "{row:?}");
        assert_eq!(row.verdict, Verdict::Ok);
        let c = cmp(
            BASE,
            File {
                setup: 0.55,
                ..BASE
            },
        );
        assert_eq!(verdict(&c, "setup_s"), Verdict::Regressed);
    }

    #[test]
    fn counts_must_be_bit_identical_and_nothing_may_fail() {
        let drifted = File {
            steps_per_op: 1.000_000_1,
            ..BASE
        };
        let c = cmp(BASE, drifted);
        assert!(!c.agrees());
        assert!(c.mismatches[0].contains("runtime.interp.steps_per_op"));
        let c = cmp(
            BASE,
            File {
                failed: 3.0,
                ..BASE
            },
        );
        assert!(c.mismatches.iter().any(|m| m.contains("failed ops in b")));
        assert!(compare(&Json::Null, &Json::Null).is_err());
    }
}
