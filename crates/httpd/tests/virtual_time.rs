//! Virtual-time pins for the serving planes (EXPERIMENTS.md B10 / B11).
//!
//! The virtual clock advances only when every thread waits on time, so
//! under round-robin scheduling a paced run's makespan — and the
//! "requests per virtual second" derived from it — is an exact number.
//! CI runs the `#[ignore]`d rows of the sharded sweep in release.

use conch_httpd::client::good_client;
use conch_httpd::core::handler;
use conch_httpd::http::Response;
use conch_httpd::net::Listener;
use conch_httpd::server::{start, ServerConfig};
use conch_httpd::shard::{sharded_load, LoadConfig};
use conch_pins as pins;
use conch_runtime::io::{for_each, sequence};
use conch_runtime::prelude::*;

/// The §11 fork-per-connection server answering `n` well-behaved
/// clients, client `i` connecting at virtual time `i × gap_us`. With
/// everyone connecting at t = 0 the run queue never drains and the
/// clock stays at 0; paced arrivals give it work to do.
fn serve_paced(n: u64, gap_us: u64) -> Io<()> {
    Listener::bind().and_then(move |l| {
        let routes = handler(|_| Io::pure(Response::ok("ok")));
        start(l, routes, ServerConfig::default()).and_then(move |server| {
            Io::new_empty_mvar::<i64>().and_then(move |report| {
                for_each(n, move |i| {
                    Io::fork(Io::sleep(i * gap_us).then(good_client(l, format!("/{i}"), report)))
                })
                .then(sequence((0..n).map(|_| report.take()).collect()))
                .and_then(move |codes| {
                    assert!(codes.iter().all(|c| *c == 200));
                    server.shutdown().then(server.drain())
                })
            })
        })
    })
}

#[test]
fn paced_requests_end_at_the_pinned_virtual_clock() {
    let mut rt = Runtime::new();
    rt.run(serve_paced(50, 100)).expect("server run");
    assert_eq!(rt.clock(), pins::PACED_FIFTY_CLOCK);
}

/// One point of the sharded sweep: `clients` keep-alive connections of
/// ten pipelined requests over `shards` accept shards, arrivals 100 µs
/// apart per shard. Every request must come back `200` and the
/// quiescent aggregate must account for each exactly once. Returns the
/// requests per virtual second and the thread-slot and sleeper-queue
/// high-waters.
fn sweep_point(clients: usize, shards: usize) -> (f64, usize, usize) {
    const PIPELINE: usize = 10;
    let cfg = LoadConfig {
        clients,
        shards,
        requests_per_conn: PIPELINE,
        arrival_gap: 100,
        queue_capacity: 1_024,
        ..LoadConfig::default()
    };
    let requests = (clients * PIPELINE) as i64;
    let mut rt = Runtime::new();
    let (oks, snap) = rt
        .run(sharded_load(handler(|_| Io::pure(Response::ok("ok"))), cfg))
        .expect("sharded run");
    assert_eq!(oks, requests, "{clients} x {shards}");
    assert!(snap.conserved(), "{clients} x {shards}: {snap:?}");
    assert_eq!(
        (snap.accepted, snap.outcomes(), snap.served),
        (requests, requests, requests),
        "{clients} x {shards}"
    );
    let per_virtual_sec = requests as f64 / (rt.clock() as f64 / 1e6);
    let stats = rt.stats();
    (
        per_virtual_sec,
        stats.max_thread_slots,
        stats.max_sleeper_heap,
    )
}

/// Requests per virtual second at 1, 4 and 16 shards, compared at the
/// one decimal the pins carry.
fn assert_sweep_row(clients: usize, pins: [f64; 3]) -> [(f64, usize, usize); 3] {
    let row = [1, 4, 16].map(|shards| sweep_point(clients, shards));
    for ((got, _, _), pin) in row.iter().zip(pins) {
        assert_eq!(
            format!("{got:.1}"),
            format!("{pin:.1}"),
            "{clients} clients"
        );
    }
    row
}

/// The sleeper queue's high-water is the same at every client count:
/// like the thread slots, it grows with the shards only.
#[test]
fn sharded_sweep_1k_clients() {
    let row = assert_sweep_row(1_000, pins::SWEEP_1K_PER_VIRTUAL_SEC);
    assert_eq!(row.map(|(_, _, sleepers)| sleepers), pins::SWEEP_SLEEPERS);
}

#[test]
#[ignore = "release"]
fn sharded_sweep_10k_clients() {
    assert_sweep_row(10_000, pins::SWEEP_10K_100K_PER_VIRTUAL_SEC);
}

/// A million requests a point. Throughput in virtual time scales with
/// the shard count, and the live-thread footprint is O(shards), not
/// O(clients): a retired connection's slot is reclaimed before the next
/// arrival needs one, and so is its sleeper entry.
#[test]
#[ignore = "release"]
fn sharded_sweep_100k_clients() {
    let row = assert_sweep_row(100_000, pins::SWEEP_10K_100K_PER_VIRTUAL_SEC);
    assert!(row[2].0 / row[0].0 >= 3.0);
    assert_eq!(row.map(|(_, slots, _)| slots), pins::SWEEP_THREAD_SLOTS);
    assert_eq!(row.map(|(_, _, sleepers)| sleepers), pins::SWEEP_SLEEPERS);
}
