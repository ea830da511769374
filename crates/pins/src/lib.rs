//! Every pinned count of the conch workspace, written once.
//!
//! A pin is a measured count, or a ceiling on one, that moves when
//! behaviour moves: schedules explored and pruned, races, backtracks
//! and shrink replays; the B1–B5 ablation counts; the virtual-time
//! sweep; the semantics' state-graph sizes; and the benchmark's layer
//! counts and allocation ceilings. Caps, budgets and program inputs are
//! not pins: they stay at their use site.
//!
//! Tests and examples read a pin as `pins::NAME` (`use conch_pins as
//! pins;`); the docs cite it by that name and never by its value, and
//! `tests/experiments_citations.rs` fails on a pinned value written
//! anywhere else. A re-pin edits this file and adds a CHANGES.md line.
//!
//! The pins marked `` /// `measure` <workload> `<metric>` <op> `` are
//! read by CI's "Pin interpreter layer counts" step, which runs the
//! benchmark's traced `measure` on each workload at seed 1 and compares
//! the metric to the value: `==` to the digit, `<=` as a ceiling. A pin
//! marked `` `measure --smoke` `` is read from a `--smoke` run.

#![no_std]

// ------------------------------------------- tests/golden_traces.rs

/// G3: every schedule of the counter race.
pub const G3_EXPLORED: usize = 20;
/// G4: the failing race is found on the first schedule …
pub const G4_EXPLORED: usize = 1;
/// … and its certificate shrinks in one replay.
pub const G4_SHRINK_RUNS: usize = 1;
/// G4b: the inverted property fails on the fourth schedule …
pub const G4B_EXPLORED: usize = 4;
/// … and shrinks in three replays.
pub const G4B_SHRINK_RUNS: usize = 3;
/// G5: two `MVar` writers racing a reader plus an async kill, under
/// unbounded sleep sets, at every worker count.
pub const G5_EXPLORED: usize = 148;
/// G5's pruned alternatives.
pub const G5_PRUNED: usize = 81;

// ------------------------------------------- tests/parallel_explore.rs

/// B9 `(explored, pruned)`: three threads, one `MVar` and a `throwTo`,
/// under unbounded sleep sets.
pub const B9_SLEEP_SETS: (usize, usize) = (1_287, 1_512);
/// B9 under sleep sets at preemption bound 2.
pub const B9_SLEEP_SETS_BOUND_2: (usize, usize) = (101, 106);
/// B9 under sleep sets at preemption bound 0.
pub const B9_SLEEP_SETS_BOUND_0: (usize, usize) = (16, 0);
/// B9 under DPOR.
pub const B9_DPOR: (usize, usize) = (141, 292);

/// X1 `(explored, pruned, races, backtracks)`: log fan-in, four
/// producers into four logs, under unbounded sleep sets (release).
pub const X1_LOG_FANIN_SLEEP_SETS: (usize, usize, u64, u64) = (512, 4_163, 0, 0);
/// X1 log fan-in under DPOR.
pub const X1_LOG_FANIN_DPOR: (usize, usize, u64, u64) = (1, 12, 0, 0);
/// X1 accept loop, two clients, under unbounded sleep sets (release).
pub const X1_ACCEPT_LOOP_SLEEP_SETS: (usize, usize, u64, u64) = (3_832, 7_516, 0, 0);
/// X1 accept loop under DPOR.
pub const X1_ACCEPT_LOOP_DPOR: (usize, usize, u64, u64) = (18, 139, 66, 20);
/// X1 three-stage pipeline under DPOR (release; sleep sets do not
/// finish it).
pub const X1_PIPELINE_DPOR: (usize, usize, u64, u64) = (68, 419, 144, 26);

// ------------------------------------------- tests/dpor_equiv.rs

/// Corpus 13, nested timeouts with the outer one tight: sleep sets at
/// preemption bound 2.
pub const CORPUS_OUTER_TIGHT_BOUND_2: usize = 85;
/// Corpus 13 under unbounded DPOR (release).
pub const CORPUS_OUTER_TIGHT_DPOR: usize = 888;
/// Corpus 14, nested timeouts with equal budgets: bound 2.
pub const CORPUS_INNER_WINS_BOUND_2: usize = 93;
/// Corpus 17, mailbox backpressure race: bound 2.
pub const CORPUS_ACTOR_MAILBOX_RACE_BOUND_2: usize = 17;
/// Corpus 17 under unbounded DPOR.
pub const CORPUS_ACTOR_MAILBOX_RACE_DPOR: usize = 550;
/// Corpus 18, monitor registration racing the target's death: bound 2.
pub const CORPUS_ACTOR_MONITOR_RACE_BOUND_2: usize = 6;
/// Corpus 18 under unbounded DPOR.
pub const CORPUS_ACTOR_MONITOR_RACE_DPOR: usize = 21;
/// Corpus 19, link cascade: bound 2.
pub const CORPUS_ACTOR_LINK_CASCADE_BOUND_2: usize = 18;
/// Corpus 19 under unbounded DPOR.
pub const CORPUS_ACTOR_LINK_CASCADE_DPOR: usize = 641;
/// Corpus 20, a `Chan` sender and receiver killed at every step: bound 2.
pub const CORPUS_CHAN_ENDS_UNDER_KILL_BOUND_2: usize = 2_479;
/// Corpus 22, a `Sem` waiter and signaller killed at every step: bound 2.
pub const CORPUS_SEM_UNDER_KILL_BOUND_2: usize = 1_051;

// ------------------------------------------- tests/explore.rs

/// The stale-redelivery program (four threads, one `race`, one poke):
/// sleep sets at preemption bound 2.
pub const STALE_REDELIVERY_BOUND_2: usize = 2_146;

// ------------------------------------------- tests/ablations.rs

/// B1: interpreter steps per `block (unblock …)` level with §8.1's
/// frame collapse (plus two for the whole loop).
pub const B1_STEPS_PER_LEVEL_COLLAPSED: u64 = 5;
/// B1: the same level with the collapse off.
pub const B1_STEPS_PER_LEVEL_UNCOLLAPSED: u64 = 7;
/// B2: steps of one confirmed kill, asynchronous or synchronous.
pub const B2_KILL_AND_CONFIRM_STEPS: u64 = 23;
/// B2 `(asynchronous, via a forked synchronous throw)` steps of 10 and
/// of 100 fire-and-forget throws.
pub const B2_SPRAY_STEPS: [(u64, u64); 2] = [(171, 236), (1_701, 2_216)];
/// B3: mean steps from `throwTo` to the raise under full asynchrony.
pub const B3_ASYNC_LATENCY_STEPS: f64 = 3.0;
/// B3: the same latency under polling, at poll intervals of 10, 100,
/// 1 000 and 10 000 steps.
pub const B3_POLLED_LATENCY_STEPS: [f64; 4] = [6.0, 96.0, 996.0, 9_996.0];
/// B3: steps of a 100 000-step computation polled every 10, 100 and
/// 1 000 steps.
pub const B3_POLLED_COMPUTE_STEPS: [u64; 3] = [150_002, 105_002, 100_502];
/// B4: steps per `MVar` update: raw, naive `catch`, §5.2-safe.
pub const B4_STEPS_PER_UPDATE: [u64; 3] = [6, 11, 15];
/// B5: steps per nested `timeout` level.
pub const B5_STEPS_PER_TIMEOUT_LEVEL: u64 = 46;

// ------------------------------------------- tests/locking.rs

/// E1 `(naive, safe)` lock-update state graphs at one and two worker
/// steps; the safe graph at two steps is the one proved safe.
pub const E1_LOCK_GRAPH_STATES: [(usize, usize); 2] = [(229, 230), (247, 248)];
/// E1: schedules the runtime explores before the naive update's race.
pub const E1_NAIVE_RACE_EXPLORED: usize = 3;

// ------------------------------------------- tests/conformance.rs

/// C1's curated scenarios as (scenario, distinct states, distinct
/// outcomes) of their semantics graph, complete at the default budget.
pub const C1_STATE_GRAPHS: [(&str, usize, usize); 13] = [
    ("put_sequence", 17, 1),
    ("echo_conforms", 20, 1),
    ("throw_and_catch", 21, 1),
    ("uncaught_throw", 11, 1),
    ("forked_puts_interleave", 80, 10),
    ("mvar_rendezvous", 64, 1),
    ("deadlocked_take_is_an_admissible_prefix", 11, 1),
    ("kill_between_puts", 98, 6),
    ("masked_child_kill", 131, 3),
    ("unblock_window_inside_block", 197, 10),
    ("catch_of_async_exception_conforms", 134, 5),
    ("sleeping_threads_conform", 138, 3),
    ("kill_a_sleeper_conforms", 107, 3),
];
/// C1's curated scenarios on the runtime, as (scenario, schedules
/// explored, distinct runtime outcomes). Against
/// [`C1_STATE_GRAPHS`]' outcome count, the last column is the
/// refinement gap. It exceeds it twice: in `masked_child_kill` and
/// `catch_of_async_exception_conforms` the runtime also ends `!z`
/// wedged. With `fork_inherits_mask(false)` a child starts unmasked and
/// takes a step to enter its `block` or `catch`, and the kill can land
/// in that step; a semantics thread is inside its evaluation context
/// from the start. The trace is still an admitted prefix.
pub const C1_RUNTIME_SCHEDULES: [(&str, usize, usize); 13] = [
    ("put_sequence", 1, 1),
    ("echo_conforms", 1, 1),
    ("throw_and_catch", 1, 1),
    ("uncaught_throw", 1, 1),
    ("forked_puts_interleave", 19, 10),
    ("mvar_rendezvous", 4, 1),
    ("deadlocked_take_is_an_admissible_prefix", 1, 1),
    ("kill_between_puts", 132, 6),
    ("masked_child_kill", 169, 4),
    ("unblock_window_inside_block", 781, 10),
    ("catch_of_async_exception_conforms", 160, 6),
    ("sleeping_threads_conform", 6, 1),
    ("kill_a_sleeper_conforms", 13, 1),
];

// ------------------------------------------- crates/combinators

/// `locking::tests`: schedules of one retried transaction under 1, 2
/// and 3 kills, unbounded sleep sets.
pub const LOCKING_RETRY_UNDER_KILLS: [usize; 3] = [40, 240, 1_440];

// ------------------------------------------- crates/actors

/// `supervisor::tests`: a second kill mid-sweep, sleep sets at bound 2.
pub const SUPERVISOR_SECOND_KILL_MID_SWEEP: usize = 321;
/// `explore_actors`, sleep sets at bound 2: no lost mailbox message.
pub const ACTORS_RECV_NEVER_LOSES: usize = 22;
/// `explore_actors`: a link cascades on every schedule.
pub const ACTORS_LINK_CASCADES: usize = 18;
/// `explore_actors`: `trap_exit` observes and survives.
pub const ACTORS_TRAP_EXIT: usize = 17;
/// `explore_actors`: a supervised restart keeps state, shutdown reaps.
pub const ACTORS_SUPERVISED_RESTART: usize = 75;
/// `explore_actors`: a second kill mid-sweep orphans no child.
pub const ACTORS_SECOND_KILL_MID_SWEEP: usize = 738;

// ------------------------------------------- crates/faults

/// `explore_faults` `(explored, pruned, faults injected)`: two kills at
/// the pooled acceptor, sleep sets at bound 1.
pub const FAULTS_POOLED_TWO_KILLS_BOUND_1: (usize, usize, u64) = (4_279, 4_179, 0);
/// The same space at bound 3 (release).
pub const FAULTS_POOLED_TWO_KILLS_BOUND_3: (usize, usize, u64) = (128_371, 171_304, 0);
/// The actor fault space at bound 2.
pub const FAULTS_ACTOR_SPACE: (usize, usize, u64) = (544, 3_158, 459);
/// The cross-shard kill space at bound 2.
pub const FAULTS_CROSS_SHARD_KILL_SPACE: (usize, usize, u64) = (146, 481, 129);

// ------------------------------------------- crates/httpd

/// `pool::tests`: two kills at the acceptor alone, sleep sets at
/// preemption bound 5.
pub const POOL_TWO_KILLS_AT_THE_ACCEPTOR: usize = 5_073;

// ------------------------------------------- crates/httpd/tests/virtual_time.rs

/// Virtual µs for fifty requests paced 100 µs apart.
pub const PACED_FIFTY_CLOCK: u64 = 4_900;
/// Requests per virtual second at 1, 4 and 16 shards, 1 000 clients.
pub const SWEEP_1K_PER_VIRTUAL_SEC: [f64; 3] = [100_000.0, 400_000.0, 1_587_301.6];
/// The same at 10 000 and at 100 000 clients (release).
pub const SWEEP_10K_100K_PER_VIRTUAL_SEC: [f64; 3] = [100_000.0, 400_000.0, 1_600_000.0];
/// Thread-slot high-water at 1, 4 and 16 shards, whatever the clients.
pub const SWEEP_THREAD_SLOTS: [usize; 3] = [7, 25, 97];
/// Sleeper-heap high-water at 1, 4 and 16 shards, whatever the clients.
pub const SWEEP_SLEEPERS: [usize; 3] = [3, 12, 48];

// ------------------------------------------- examples/actor_chat.rs

/// `actor_chat --explore`: sleep sets at preemption bound 3.
pub const ACTOR_CHAT_EXPLORED: usize = 907;

// ------------------------------------------- CI: layer counts

/// `measure` httpd_churn `runtime.interp.steps_per_op` ==
pub const CHURN_STEPS_PER_OP: f64 = 328.826;
/// `measure` httpd_churn `runtime.mvar.ops_per_op` ==
pub const CHURN_MVAR_OPS_PER_OP: f64 = 41.26266666666667;
/// `measure` httpd_churn `runtime.sched.blocks_per_op` ==
pub const CHURN_BLOCKS_PER_OP: f64 = 9.000666666666667;
/// `measure` httpd_keepalive `runtime.interp.steps_per_op` ==
pub const KEEPALIVE_STEPS_PER_OP: f64 = 106.14766666666667;
/// `measure` httpd_keepalive `runtime.mvar.ops_per_op` ==
pub const KEEPALIVE_MVAR_OPS_PER_OP: f64 = 10.104666666666667;
/// `measure` httpd_keepalive `runtime.sched.blocks_per_op` ==
pub const KEEPALIVE_BLOCKS_PER_OP: f64 = 2.600416666666667;
/// `measure` httpd_keepalive `runtime.timer.ops_per_op` ==
pub const KEEPALIVE_TIMER_OPS_PER_OP: f64 = 1.3;
/// `measure` interp_pure `runtime.interp.steps_per_op` ==
pub const PURE_STEPS_PER_OP: f64 = 1.0;
/// `measure` interp_pure `runtime.mvar.ops_per_op` ==
pub const PURE_MVAR_OPS_PER_OP: f64 = 0.0;
/// `measure` async_storm `runtime.interp.steps_per_op` ==
pub const STORM_STEPS_PER_OP: f64 = 119.49489583333333;
/// `measure` async_storm `runtime.mvar.ops_per_op` ==
pub const STORM_MVAR_OPS_PER_OP: f64 = 3.5524479166666665;
/// `measure` async_storm `runtime.sched.blocks_per_op` ==
pub const STORM_BLOCKS_PER_OP: f64 = 1.9505729166666668;
/// `measure` async_storm `runtime.exception.deliveries_per_op` ==
pub const STORM_DELIVERIES_PER_OP: f64 = 0.75;
/// `measure` async_storm `runtime.exception.interrupted_share` ==
pub const STORM_INTERRUPTED_SHARE: f64 = 0.6668055555555555;
/// `measure` async_storm `runtime.timer.ops_per_op` ==
pub const STORM_TIMER_OPS_PER_OP: f64 = 0.9501041666666666;
/// `measure` async_storm `runtime.exception.mask_frames_collapsed_per_op` ==
pub const STORM_MASK_FRAMES_COLLAPSED_PER_OP: f64 = 6.5;
/// `measure` mvar_sched `runtime.interp.steps_per_op` ==
pub const MVAR_SCHED_STEPS_PER_OP: f64 = 13.78906923076923;
/// `measure` mvar_sched `runtime.mvar.ops_per_op` ==
pub const MVAR_SCHED_MVAR_OPS_PER_OP: f64 = 3.2307846153846156;
/// `measure` mvar_sched `runtime.sched.blocks_per_op` ==
pub const MVAR_SCHED_BLOCKS_PER_OP: f64 = 0.6923;
/// `measure` mvar_sched `combinators.probe.chan_item_steps` ==
pub const CHAN_ITEM_STEPS: f64 = 27.0;
/// `measure` mvar_sched `httpd.net.probe.frame_roundtrip_steps` ==
pub const FRAME_ROUNDTRIP_STEPS: f64 = 60.0;
/// `measure` explore_dpor `explore.schedules_explored` ==
pub const DPOR_BENCH_EXPLORED: f64 = 212.0;
/// `measure` explore_dpor `explore.schedules_pruned` ==
pub const DPOR_BENCH_PRUNED: f64 = 617.0;
/// `measure` explore_dpor `explore.steps_per_schedule` ==
pub const DPOR_BENCH_STEPS_PER_SCHEDULE: f64 = 39.79245283018868;
/// `measure` explore_dpor `explore.races_per_schedule` ==
pub const DPOR_BENCH_RACES_PER_SCHEDULE: f64 = 3.25;
/// `measure` explore_dpor `explore.backtracks_installed` ==
pub const DPOR_BENCH_BACKTRACKS: f64 = 103.0;
/// `measure` explore_dpor `explore.shrink_runs` ==
pub const DPOR_BENCH_SHRINK_RUNS: f64 = 11.0;

// ------------------------------------------- CI: allocation ceilings
//
// Just above the readings, so one allocation brought back per bind,
// channel end, pipelined request or explored schedule fails.

/// `measure` httpd_churn `alloc.allocs_per_op` <=
pub const CHURN_ALLOCS_MAX: f64 = 186.0;
/// `measure` httpd_keepalive `alloc.allocs_per_op` <=
pub const KEEPALIVE_ALLOCS_MAX: f64 = 66.5;
/// `measure` mvar_sched `alloc.allocs_per_op` <=
pub const MVAR_SCHED_ALLOCS_MAX: f64 = 6.2;
/// `measure` async_storm `alloc.allocs_per_op` <=
pub const STORM_ALLOCS_MAX: f64 = 45.5;
/// `measure` interp_pure `alloc.allocs_per_op` <=
pub const PURE_ALLOCS_MAX: f64 = 0.2;
/// `measure` explore_dpor `alloc.allocs_per_op` <=
pub const DPOR_BENCH_ALLOCS_MAX: f64 = 1_010.0;
/// `measure` httpd_churn `alloc.bytes_per_op` <=
pub const CHURN_BYTES_MAX: f64 = 12_900.0;
/// `measure` httpd_keepalive `alloc.bytes_per_op` <=
pub const KEEPALIVE_BYTES_MAX: f64 = 4_150.0;
/// `measure` mvar_sched `alloc.bytes_per_op` <=
pub const MVAR_SCHED_BYTES_MAX: f64 = 470.0;
/// `measure` async_storm `alloc.bytes_per_op` <=
pub const STORM_BYTES_MAX: f64 = 2_870.0;
/// `measure` explore_dpor `alloc.bytes_per_op` <=
pub const DPOR_BENCH_BYTES_MAX: f64 = 104_000.0;
/// `measure` httpd_keepalive `alloc.reallocs_per_op` <=
pub const KEEPALIVE_REALLOCS_MAX: f64 = 0.3;
/// `measure` explore_dpor `alloc.reallocs_per_op` <=
pub const DPOR_BENCH_REALLOCS_MAX: f64 = 30.0;
/// DPOR keeps only its DFS stack and the race analysis of one run
/// live. Read at `--smoke`'s fixed rep count: at `--seconds 1` the
/// reading steps up with the reps the second fits.
///
/// `measure --smoke` explore_dpor `alloc.peak_live_mib` <=
pub const DPOR_BENCH_PEAK_LIVE_MAX: f64 = 0.07;
/// A blocked thread waits in its own state, so no cell keeps a queue
/// buffer.
///
/// `measure` mvar_sched `alloc.peak_live_mib` <=
pub const MVAR_SCHED_PEAK_LIVE_MAX: f64 = 6.5;
/// `measure` async_storm `alloc.peak_live_mib` <=
pub const STORM_PEAK_LIVE_MAX: f64 = 3.2;
/// `measure` httpd_keepalive `alloc.peak_live_mib` <=
pub const KEEPALIVE_PEAK_LIVE_MAX: f64 = 2.5;
/// `measure` httpd_churn `alloc.peak_live_mib` <=
pub const CHURN_PEAK_LIVE_MAX: f64 = 3.0;
