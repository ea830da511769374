//! Finding, shrinking and replaying a masking bug by exhaustive
//! schedule exploration — or by seeded schedule *sampling*.
//!
//! Run with `cargo run --example explore_races`. Pass `--workers N` to
//! spread the exploration over `N` OS threads (default: available
//! parallelism) — the counts and the certificate below come out
//! identical for every `N`; only the wall-clock time changes. Pass
//! `--reduction {sleep,dpor}` to pick the schedule-space reduction
//! (default: sleep sets); with `dpor` the sleep-set baseline is run
//! too and the reduction ratio is printed.
//!
//! Pass `--sample {pct,swarm}` to *draw* schedules instead of
//! enumerating them (`--samples N` for the budget, default 2048;
//! `--seed S` for the stream, default 0xC0FFEE). Sampling is the tool
//! for spaces too large to enumerate; here it demonstrates that a
//! sampled failure hands back the very same replayable, shrinkable
//! certificate the exhaustive search does, plus the index of the first
//! failing sample.
//!
//! The victim is a hand-rolled resource guard with the classic mistake
//! §7.1 warns about: the **acquire runs outside `block`**, so an
//! asynchronous exception landing between the acquire and the start of
//! the protected region leaks the resource. Random stress tests hit
//! that window occasionally; the explorer hits it *always*, and hands
//! back a minimal, replayable schedule certificate.

use conch::explore::{props, CheckResult, ExploreConfig, Explorer, Reduction, Strategy, TestCase};
use conch::prelude::*;
use conch_combinators::bracket;

/// The buggy guard: acquire ('a') unmasked, release ('r') afterwards.
/// Compare with [`conch_combinators::bracket`], which wraps the acquire
/// in `block`.
fn unmasked_acquire_guard() -> Io<i64> {
    Io::put_char('a').map(|_| 0_i64).and_then(|_| {
        Io::block(
            Io::unblock(Io::pure(1_i64))
                .catch(|e| Io::put_char('r').then(Io::throw(e)))
                .and_then(|r| Io::put_char('r').map(move |_| r)),
        )
    })
}

/// The correct §7.1 bracket over the same resource.
fn proper_bracket() -> Io<i64> {
    bracket(
        Io::put_char('a').map(|_| 0_i64),
        |_| Io::put_char('r'),
        |_| Io::pure(1_i64),
    )
}

/// Fork a worker running `body` and aim a `KillThread` at it; the
/// settling sleep ends the run once the worker finished or died.
fn under_fire(body: Io<i64>) -> Io<()> {
    Io::fork(body.map(|_| ()).catch(|_| Io::unit()))
        .and_then(|w| Io::throw_to(w, Exception::kill_thread()))
        .then(Io::sleep(1))
}

struct Cli {
    workers: usize,
    strategy: Strategy,
    samples: usize,
}

/// `--workers N` (0, the default, lets `check_parallel` pick the
/// machine's available parallelism), `--reduction {sleep,dpor}`,
/// `--sample {pct,swarm}`, `--samples N` and `--seed S` from
/// the command line.
fn cli_args() -> Cli {
    let mut workers = 0;
    let mut reduction = Reduction::default();
    let mut sample: Option<String> = None;
    let mut samples = 2048;
    let mut seed = 0xC0FFEE_u64;
    let mut args = std::env::args().skip(1);
    let number = |args: &mut dyn Iterator<Item = String>, flag: &str| -> u64 {
        let value = args.next().unwrap_or_else(|| {
            eprintln!("{flag} needs a number");
            std::process::exit(2);
        });
        value.parse().unwrap_or_else(|_| {
            eprintln!("{flag} needs a number, got {value:?}");
            std::process::exit(2);
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => workers = number(&mut args, "--workers") as usize,
            "--samples" => samples = number(&mut args, "--samples") as usize,
            "--seed" => seed = number(&mut args, "--seed"),
            "--reduction" => {
                reduction = match args.next().as_deref() {
                    Some("sleep") => Reduction::default(),
                    Some("dpor") => Reduction::Dpor,
                    other => {
                        eprintln!("--reduction needs 'sleep' or 'dpor', got {other:?}");
                        std::process::exit(2);
                    }
                };
            }
            "--sample" => match args.next().as_deref() {
                Some(name @ ("pct" | "swarm")) => sample = Some(name.to_owned()),
                other => {
                    eprintln!("--sample needs 'pct' or 'swarm', got {other:?}");
                    std::process::exit(2);
                }
            },
            _ => {}
        }
    }
    let strategy = match sample.as_deref() {
        None => Strategy::Exhaustive(reduction),
        Some("pct") => Strategy::Pct { depth: 3, seed },
        // Four PCT streams, one per seed, each with its own depth.
        Some(_) => Strategy::Swarm {
            seeds: (0..4).map(|i| seed.wrapping_add(i)).collect(),
        },
    };
    Cli {
        workers,
        strategy,
        samples,
    }
}

fn explorer_for(strategy: Strategy, samples: usize) -> Explorer {
    let max_schedules = if strategy.is_sampling() {
        samples
    } else {
        ExploreConfig::default().max_schedules
    };
    Explorer::with_config(ExploreConfig {
        max_schedules,
        strategy,
        ..ExploreConfig::default()
    })
}

fn main() {
    let cli = cli_args();
    let explorer = explorer_for(cli.strategy.clone(), cli.samples);
    println!("strategy: {:?}, workers: {}", cli.strategy, cli.workers);

    // The correct bracket survives every schedule.
    println!("\n== proper bracket ==");
    let ok = explorer.check_parallel(cli.workers, || {
        TestCase::new(
            under_fire(proper_bracket()),
            props::releases_balanced('a', 'r'),
        )
    });
    match &ok {
        CheckResult::Passed(report) => {
            if cli.strategy.is_sampling() {
                println!(
                    "every sampled acquire released: {} samples, {} distinct schedules",
                    report.stats.sampled, report.stats.distinct_schedules
                );
            } else {
                println!("every acquire released on every schedule: {report}");
            }
            if cli.strategy == Strategy::Exhaustive(Reduction::Dpor) {
                // Run the sleep-set baseline on the same program so the
                // summary can state the reduction directly.
                let baseline = explorer_for(Strategy::default(), 0)
                    .check_parallel(cli.workers, || {
                        TestCase::new(
                            under_fire(proper_bracket()),
                            props::releases_balanced('a', 'r'),
                        )
                    })
                    .expect_pass()
                    .clone();
                println!(
                    "sleep-set baseline explored {}, DPOR explored {} — reduction ratio {:.2}x \
                     ({} races detected, {} backtracks installed)",
                    baseline.explored,
                    report.explored,
                    report.reduction_ratio(&baseline),
                    report.stats.races_detected,
                    report.stats.backtracks_installed,
                );
            }
        }
        CheckResult::Failed(f) => println!("unexpectedly failed: {}", f.message),
    }

    // The buggy guard does not.
    println!("\n== unmasked-acquire guard ==");
    let bad = explorer.check_parallel(cli.workers, || {
        TestCase::new(
            under_fire(unmasked_acquire_guard()),
            props::releases_balanced('a', 'r'),
        )
    });
    // A sampler can legitimately exhaust a small budget without hitting
    // the bug — that is a coverage statement, not a panic.
    if cli.strategy.is_sampling() {
        if let CheckResult::Passed(report) = &bad {
            println!(
                "no violation in {} samples ({} distinct schedules) — \
                 raise --samples or change --seed",
                report.stats.sampled, report.stats.distinct_schedules
            );
            return;
        }
    }
    let failure = bad.expect_fail();
    println!("violation found: {}", failure.message);
    if let Some(index) = failure.report.first_failing_sample {
        println!(
            "  first failing sample: #{index} (of {} drawn)",
            failure.report.explored
        );
    }
    println!(
        "  original certificate: {} ({} choices)",
        failure.original,
        failure.original.len()
    );
    println!(
        "  shrunk    certificate: {} ({} choices)",
        failure.schedule,
        failure.schedule.len()
    );
    println!("  coverage: {}", failure.report);

    // Replay the minimal certificate in a fresh Runtime: the leak is
    // reproduced deterministically from the choice list alone.
    let (outcome, check) = explorer.replay(
        TestCase::new(
            under_fire(unmasked_acquire_guard()),
            props::releases_balanced('a', 'r'),
        ),
        &failure.schedule,
    );
    println!(
        "\nreplayed schedule {} in a second runtime:",
        failure.schedule
    );
    println!(
        "  output: {:?} (the 'a' with no matching 'r' is the leak)",
        outcome.output
    );
    println!("  verdict: {}", check.unwrap_err());
}
