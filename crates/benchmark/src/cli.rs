//! The command line: `run`, `trace`, `compare`, and `measure` — the
//! single-workload entry the repo's `BENCHMARK.json` names.
//!
//! `run` is a driver that only spawns children: each child is this same
//! binary in `measure` mode, one workload block per process, visited
//! round-robin across workloads so that a slow phase of a shared host
//! falls on every workload alike. Never two load-generating processes
//! at once.

use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;

use crate::compare;
use crate::json::{self, Json};
use crate::measure::{complete_per_layer, measure, wall_parallel, Measurement, Options};
use crate::metrics::{self, END_TO_END};
use crate::probes;
use crate::span::Tracer;
use crate::summary::{fastest, grouped_fastest, median, percentile, ratio, spread, SETUP_GROUP};
use crate::workloads::{self, Size, Spec, WORKLOADS};

const USAGE: &str = "\
usage: conch-benchmark <command>

  run     [--seed <n>] [--workload <name>] [--smoke]
          every workload, every output check, every end-to-end metric;
          writes crates/benchmark/out/run.json
  trace   [--seed <n>] [--workload <name>] [--smoke]
          the traced run: every per-layer metric, spans to
          crates/benchmark/out/trace.json
  compare <a.json> <b.json>
          two `run` result files against the benchmark's own bounds
  measure --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
          one workload in this process; last stdout line is the result
";

/// Where `run` and `trace` leave their files, relative to the working
/// directory (the repo root, as `cargo run` is invoked there).
const OUT_DIR: &str = "crates/benchmark/out";

/// Times set-up is repeated in one process: three groups of five, see
/// `summary::grouped_fastest`.
const SETUPS: usize = 3 * SETUP_GROUP;
/// Timed reps a process runs at least.
const MIN_REPS: usize = 5;
/// `run`: blocks per workload, and seconds of timed reps per block.
const BLOCKS: usize = 4;
const BLOCK_SECONDS: u64 = 2;
/// `trace`: seconds per workload, split between untraced and traced.
const TRACE_SECONDS: f64 = 4.0;
/// Alternating os_threads 1 / 2 pairs behind `runtime.parallel.*`.
const WALL_PARALLEL_PAIRS: usize = 3;

#[derive(Debug, Default)]
struct Flags {
    seed: Option<u64>,
    workload: Option<String>,
    smoke: bool,
    seconds: Option<u64>,
    trace: Option<bool>,
}

fn parse_flags(args: &[String], allowed: &[&str]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !allowed.contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag:?}"));
        }
        if flag == "--smoke" {
            flags.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--seed" => flags.seed = Some(number()?),
            "--seconds" => flags.seconds = Some(number()?),
            "--trace" => {
                flags.trace = Some(match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            "--workload" => {
                if workloads::find(value).is_none() {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload {value:?}; one of {}",
                        names.join(", ")
                    ));
                }
                flags.workload = Some(value.clone());
            }
            _ => unreachable!("every allowed flag is handled"),
        }
    }
    Ok(flags)
}

impl Flags {
    fn size(&self) -> Size {
        if self.smoke {
            Size::Smoke
        } else {
            Size::Full
        }
    }

    fn selected(&self) -> Vec<&'static Spec> {
        WORKLOADS
            .iter()
            .filter(|w| self.workload.as_deref().is_none_or(|n| n == w.name))
            .collect()
    }
}

/// Entry point: `args` excludes the program name.
pub fn main(args: &[String]) -> ExitCode {
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "measure" => cmd_measure(rest),
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "trace" => cmd_trace(rest),
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(rest),
        _ => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

fn write_file(name: &str, contents: &str) -> Result<String, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/{name}");
    std::fs::write(&path, contents).map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(path)
}

fn print_violations(m: &Measurement) {
    for v in &m.violations {
        eprintln!("FAILED CHECK {v}");
    }
}

/// `{"name": {"value": v, "unit": "u"}, …}`.
fn metrics_json<'a>(rows: impl IntoIterator<Item = (&'a str, &'a str, f64)>) -> Json {
    Json::obj(rows.into_iter().map(|(name, unit, value)| {
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    }))
}

/// One workload, this process, the contract of `BENCHMARK.json`: the
/// last stdout line is `{"correct", "attempted", "failed", "metrics"}`
/// with every end-to-end metric (`--trace 0`) or every per-layer metric
/// (`--trace 1`). The line before it carries the detail `run` reads.
fn cmd_measure(args: &[String]) -> Result<bool, String> {
    let flags = parse_flags(
        args,
        &["--workload", "--seed", "--seconds", "--trace", "--smoke"],
    )?;
    let missing = |flag: &str| format!("measure needs {flag}\n\n{USAGE}");
    let name = flags
        .workload
        .as_deref()
        .ok_or_else(|| missing("--workload"))?;
    let spec = workloads::find(name).expect("validated while parsing");
    let traced = flags.trace.ok_or_else(|| missing("--trace"))?;
    let opts = Options {
        seed: flags.seed.ok_or_else(|| missing("--seed"))?,
        size: flags.size(),
        seconds: flags.seconds.ok_or_else(|| missing("--seconds"))? as f64,
        setups: SETUPS,
        min_reps: MIN_REPS,
    };
    let tracer = if traced { Tracer::on() } else { Tracer::off() };
    let m = measure(spec, opts, &tracer);
    print_violations(&m);
    let metrics = if traced {
        let mut taken = m.per_layer();
        taken.extend(probes::run(&tracer, opts.size));
        if spec.name == "httpd_keepalive" {
            taken.extend(wall_parallel(opts.size, WALL_PARALLEL_PAIRS, &tracer));
        }
        let path = write_file("trace.json", &tracer.chrome_trace().render())?;
        eprintln!("spans written to {path}");
        metrics_json(
            complete_per_layer(&taken)
                .iter()
                .map(|(m, v)| (m.name, m.unit, *v)),
        )
    } else {
        // `failed_share` travels as `failed` / `attempted`: a metric
        // that reads 0 on every healthy run cannot be gated by ratio.
        let values = m.end_to_end();
        metrics_json(
            END_TO_END
                .iter()
                .zip(values)
                .filter(|(e, _)| e.name != "failed_share")
                .map(|(e, (_, v))| (e.name, e.unit, v)),
        )
    };
    println!("detail {}", m.detail().render());
    let result = Json::obj([
        ("correct", Json::Bool(m.correct())),
        ("attempted", Json::Num(m.attempted as f64)),
        ("failed", Json::Num(m.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
    Ok(m.correct())
}

/// Spawns one `measure` child and returns its `detail` object.
fn spawn_block(spec: &Spec, flags: &Flags, seed: u64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["measure", "--workload", spec.name, "--trace", "0"])
        .args(["--seed", &seed.to_string()]);
    if flags.smoke {
        cmd.args(["--seconds", "0", "--smoke"]);
    } else {
        cmd.args(["--seconds", &BLOCK_SECONDS.to_string()]);
    }
    // `output` waits for the child to end before returning.
    let output = cmd
        .output()
        .map_err(|e| format!("cannot spawn {}: {e}", spec.name))?;
    std::io::Write::write_all(&mut std::io::stderr(), &output.stderr).ok();
    let stdout = String::from_utf8_lossy(&output.stdout);
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("detail "))
        .ok_or_else(|| format!("{}: child printed no detail line", spec.name))?;
    json::parse(detail)
}

fn numbers(detail: &Json, key: &str) -> Vec<f64> {
    detail
        .get(key)
        .and_then(Json::as_arr)
        .map(|xs| xs.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn number(detail: &Json, key: &str) -> f64 {
    detail.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// One workload's row of the result file.
struct Row {
    spec: &'static Spec,
    ops_per_rep: f64,
    attempted: f64,
    failed: f64,
    /// `(value, spread)` per [`END_TO_END`] metric. The spread is the
    /// block-to-block spread of the very statistic reported, which is
    /// what `compare` calls noise.
    end_to_end: [(f64, f64); 4],
    /// The pooled reps, under the `host.*` names.
    host: [(&'static str, f64); 5],
    counts: Json,
    violations: Vec<String>,
}

/// Folds one workload's blocks into its row.
fn aggregate(spec: &'static Spec, blocks: &[Json]) -> Row {
    let reps: Vec<f64> = blocks
        .iter()
        .flat_map(|b| numbers(b, "rep_seconds"))
        .collect();
    let ops = number(&blocks[0], "ops_per_rep");
    let per_block = |f: &dyn Fn(&Json) -> f64| blocks.iter().map(f).collect::<Vec<f64>>();
    let block_ops = per_block(&|b| ratio(ops, fastest(&numbers(b, "rep_seconds"))));
    let block_setup = per_block(&|b| grouped_fastest(&numbers(b, "setup_seconds")));
    let block_rss = per_block(&|b| number(b, "peak_rss_mib"));
    let attempted: f64 = blocks.iter().map(|b| number(b, "attempted")).sum();
    let failed: f64 = blocks.iter().map(|b| number(b, "failed")).sum();
    let mut violations = Vec::new();
    for b in blocks {
        for v in b.get("violations").and_then(Json::as_arr).unwrap_or(&[]) {
            violations.push(v.as_str().unwrap_or("?").to_owned());
        }
        if b.get("counts") != blocks[0].get("counts") {
            violations.push(format!("{}: counts differ between blocks", spec.name));
        }
    }
    Row {
        spec,
        ops_per_rep: ops,
        attempted,
        failed,
        end_to_end: [
            (median(&block_setup), spread(&block_setup)),
            (ratio(ops, fastest(&reps)), spread(&block_ops)),
            (median(&block_rss), spread(&block_rss)),
            (ratio(failed, attempted), 0.0),
        ],
        host: [
            ("host.reps", reps.len() as f64),
            ("host.rep_ms_min", fastest(&reps) * 1e3),
            ("host.rep_ms_p50", median(&reps) * 1e3),
            ("host.rep_ms_p75", percentile(&reps, 75.0) * 1e3),
            ("host.rep_spread", spread(&reps)),
        ],
        counts: blocks[0].get("counts").cloned().unwrap_or(Json::Null),
        violations,
    }
}

impl Row {
    fn ok(&self) -> bool {
        self.violations.is_empty() && self.failed == 0.0
    }

    /// Every metric of the row by name, with its unit.
    fn print(&self) {
        let name = self.spec.name;
        for (m, (value, _)) in END_TO_END.iter().zip(self.end_to_end) {
            print_metric(name, m.name, value, m.unit);
        }
        let counts = self.counts.as_obj().unwrap_or(&[]).iter();
        let counts = counts.map(|(k, v)| (k.as_str(), v.as_f64().unwrap_or(0.0)));
        // A layer the workload never enters reads 0; the result file
        // keeps those rows, the table leaves them out.
        for (metric, value) in self.host.into_iter().chain(counts) {
            if value != 0.0 {
                print_metric(name, metric, value, unit_of(metric));
            }
        }
        for v in &self.violations {
            eprintln!("FAILED CHECK {v}");
        }
    }

    fn json(&self) -> Json {
        let end_to_end = END_TO_END
            .iter()
            .zip(self.end_to_end)
            .map(|(m, (value, spread))| {
                let fields = [
                    ("value", Json::Num(value)),
                    ("unit", Json::str(m.unit)),
                    ("spread", Json::Num(spread)),
                ];
                (m.name, Json::obj(fields))
            });
        Json::obj([
            ("name", Json::str(self.spec.name)),
            ("op", Json::str(self.spec.op)),
            ("ops_per_rep", Json::Num(self.ops_per_rep)),
            ("attempted", Json::Num(self.attempted)),
            ("failed", Json::Num(self.failed)),
            ("end_to_end", Json::obj(end_to_end)),
            (
                "host",
                Json::obj(self.host.iter().map(|(k, v)| (*k, Json::Num(*v)))),
            ),
            ("counts", self.counts.clone()),
            (
                "violations",
                Json::Arr(self.violations.iter().map(Json::str).collect()),
            ),
        ])
    }
}

fn unit_of(per_layer_metric: &str) -> &'static str {
    metrics::per_layer(per_layer_metric).map_or("", |m| m.unit)
}

fn print_metric(workload: &str, name: &str, value: f64, unit: &str) {
    println!("{workload:<16} {name:<48} {value:>18.6} {unit}");
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let flags = parse_flags(args, &["--seed", "--workload", "--smoke"])?;
    let seed = flags.seed.unwrap_or(1);
    let selected = flags.selected();
    let started = Instant::now();
    let mut blocks: Vec<Vec<Json>> = vec![Vec::new(); selected.len()];
    for block in 0..BLOCKS {
        for (i, spec) in selected.iter().enumerate() {
            let t = Instant::now();
            blocks[i].push(spawn_block(spec, &flags, seed)?);
            eprintln!(
                "block {}/{BLOCKS} {:<16} {:>6.2} s",
                block + 1,
                spec.name,
                t.elapsed().as_secs_f64()
            );
        }
    }
    let rows: Vec<Row> = selected
        .iter()
        .zip(&blocks)
        .map(|(spec, blocks)| aggregate(spec, blocks))
        .collect();
    rows.iter().for_each(Row::print);
    let ok = rows.iter().all(Row::ok);
    let doc = Json::obj([
        ("benchmark", Json::str("conch-benchmark run")),
        ("seed", Json::Num(seed as f64)),
        ("smoke", Json::Bool(flags.smoke)),
        ("blocks", Json::Num(BLOCKS as f64)),
        (
            "host_cpus",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("wall_seconds", Json::Num(started.elapsed().as_secs_f64())),
        ("workloads", Json::Arr(rows.iter().map(Row::json).collect())),
    ]);
    let path = write_file("run.json", &doc.render_pretty())?;
    eprintln!(
        "{} in {:.1} s; results written to {path}",
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        },
        started.elapsed().as_secs_f64()
    );
    Ok(ok)
}

/// The traced run, all selected workloads in this one process: reps
/// with the span recorder and the allocator tally on, then the probes,
/// then the wall-parallel block. One `trace.json`, written at exit.
fn cmd_trace(args: &[String]) -> Result<bool, String> {
    let flags = parse_flags(args, &["--seed", "--workload", "--smoke"])?;
    let started = Instant::now();
    let tracer = Tracer::on();
    let opts = Options {
        seed: flags.seed.unwrap_or(1),
        size: flags.size(),
        seconds: if flags.smoke { 0.0 } else { TRACE_SECONDS },
        setups: 1,
        min_reps: MIN_REPS,
    };
    let mut ok = true;
    for spec in flags.selected() {
        let t = Instant::now();
        let m = measure(spec, opts, &tracer);
        print_violations(&m);
        ok &= m.correct();
        for (name, value) in m.per_layer() {
            if value != 0.0 {
                print_metric(spec.name, name, value, unit_of(name));
            }
        }
        eprintln!("{:<16} {:>6.2} s", spec.name, t.elapsed().as_secs_f64());
    }
    let mut shared = probes::run(&tracer, opts.size);
    if flags
        .workload
        .as_deref()
        .is_none_or(|w| w == "httpd_keepalive")
    {
        shared.extend(wall_parallel(opts.size, WALL_PARALLEL_PAIRS, &tracer));
    }
    for (name, value) in shared {
        print_metric("-", name, value, unit_of(name));
    }
    let path = write_file("trace.json", &tracer.chrome_trace().render())?;
    eprintln!(
        "{} spans written to {path} in {:.1} s",
        tracer.spans().len(),
        started.elapsed().as_secs_f64()
    );
    Ok(ok)
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(format!("compare takes two result files\n\n{USAGE}"));
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(Path::new(path))
            .map_err(|e| format!("cannot read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let comparison = compare::compare(&load(a)?, &load(b)?)?;
    print!("{}", compare::render(&comparison));
    Ok(comparison.agrees())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn run_and_trace_take_seed_workload_smoke_and_nothing_else() {
        let allowed = ["--seed", "--workload", "--smoke"];
        let f = parse_flags(&args("--seed 7 --workload async_storm --smoke"), &allowed).unwrap();
        assert_eq!((f.seed, f.smoke), (Some(7), true));
        assert_eq!(f.selected().len(), 1);
        assert_eq!(parse_flags(&[], &allowed).unwrap().selected().len(), 6);
        for bad in [
            "--seconds 3",
            "--reps 9",
            "--seed",
            "--seed x",
            "--workload nope",
        ] {
            assert!(parse_flags(&args(bad), &allowed).is_err(), "{bad}");
        }
    }

    #[test]
    fn measure_needs_every_contract_flag() {
        assert!(cmd_measure(&args("--workload interp_pure --seed 1 --seconds 1")).is_err());
        assert!(cmd_measure(&args(
            "--workload interp_pure --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
    }

    #[test]
    fn blocks_fold_into_one_row_with_the_fastest_rep() {
        let block = |reps: [f64; 2], rss: f64| {
            Json::obj([
                ("ops_per_rep", Json::Num(1000.0)),
                ("attempted", Json::Num(2000.0)),
                ("failed", Json::Num(0.0)),
                ("violations", Json::Arr(Vec::new())),
                (
                    "setup_seconds",
                    Json::Arr(vec![Json::Num(0.5), Json::Num(0.3)]),
                ),
                (
                    "rep_seconds",
                    Json::Arr(reps.iter().map(|r| Json::Num(*r)).collect()),
                ),
                ("peak_rss_mib", Json::Num(rss)),
                (
                    "counts",
                    Json::obj([("runtime.interp.steps_per_op", Json::Num(1.0))]),
                ),
            ])
        };
        let blocks = [block([0.25, 0.20], 10.0), block([0.40, 0.50], 12.0)];
        let row = aggregate(&WORKLOADS[0], &blocks);
        assert!(row.ok());
        let [setup, ops, rss, failed_share] = row.end_to_end;
        assert_eq!(ops.0, 5000.0);
        assert!(ops.1 > 0.3, "blocks at 5000/s and 2500/s are far apart");
        assert_eq!(setup.0, 0.3);
        assert_eq!(rss.0, 11.0);
        assert_eq!(failed_share.0, 0.0);
        assert_eq!(row.attempted, 4000.0);
        assert_eq!(row.host[0], ("host.reps", 4.0));
        let doc = row.json();
        let read = doc.get("end_to_end").and_then(|e| e.get("ops_per_host_s"));
        assert_eq!(
            read.and_then(|m| m.get("unit")).and_then(Json::as_str),
            Some("1/s")
        );

        let mut drifted = blocks.to_vec();
        drifted[1] = Json::obj([("counts", Json::obj([("x", Json::Num(2.0))]))]);
        assert!(!aggregate(&WORKLOADS[0], &drifted).ok());
    }
}
