//! Wall-clock parallelism: one scheduler per shard, epoch-synced.
//!
//! A single [`Runtime`] interprets every thread of every httpd shard on
//! one OS thread, so virtual-time scaling (16x at 16 shards) never
//! becomes hardware scaling — wall throughput stays flat at any shard
//! count. [`MultiRuntime`] removes that last serial wall by pinning N
//! *independent* `Runtime` instances to OS threads, each with its own
//! run queue, sleeper queue, thread table and stats, and connecting them
//! with deterministic cross-runtime channels.
//!
//! ## The epoch-barrier discipline
//!
//! Shards share nothing while they run. Virtual time is partitioned
//! into **epochs** of [`MultiConfig::epoch_us`] microseconds; within an
//! epoch every shard interprets its own threads freely (its clock is
//! capped at the epoch's end), and all cross-shard traffic — data
//! sends, cross-shard `throwTo`, aggregate-stat messages — is buffered
//! in a shard-local outbox. At the **barrier** between rounds the
//! coordinator drains every outbox, orders the messages by
//! `(source_shard, seq)`, and delivers them before any shard takes its
//! next step. Delivery order therefore depends only on program
//! behaviour, never on OS scheduling: every run is bit-identical for
//! any `os_threads` count, and `os_threads = 1` is the semantic oracle
//! for `os_threads = N`.
//!
//! An epoch may take several **rounds**: a shard woken by a barrier
//! delivery runs again under the same clock cap. The epoch advances
//! only when every shard is idle and nothing is in flight,
//! fast-forwarding straight to the epoch containing the earliest
//! pending wake — so mostly-sleeping programs cost barriers
//! proportional to activity, not to virtual time.
//!
//! The rule a shard program follows: **a shard reaches a barrier only
//! by going idle or finishing.** There is no step budget that forces a
//! busy shard to the barrier; its messages wait, delayed arbitrarily
//! but never reordered, until it blocks. A loop that polls
//! [`ShardCtx::try_recv`] without ever taking a blocking step therefore
//! never sees another shard's message — wait with [`ShardCtx::recv`].
//!
//! ## Asynchronous exceptions across the boundary
//!
//! The paper lets a `throwTo` land at *any step boundary* of the
//! target. A cross-shard throw is buffered like any other message and
//! lands at the next epoch barrier — which **is** a step boundary of
//! the target shard (no thread is mid-step while the coordinator owns
//! the runtime), so rules (Receive)/(Interrupt) apply unchanged; the
//! throw is merely delayed, which the paper's semantics always
//! permitted (delivery was never promised to be prompt, only sound).
//! A throw addressed to a thread that has died — even if its slot was
//! reused by a later spawn — is a no-op, exactly as within one runtime:
//! the generation-tagged [`ThreadId`] misses the new occupant.
//!
//! ## Deadlock
//!
//! A locally-stuck shard may still be woken by a message, so a capped
//! shard never declares its own deadlock. Only the coordinator —
//! seeing every shard idle with no sleeper anywhere and no message in
//! flight — declares the *global* deadlock: it stops the barrier loop,
//! and every unfinished shard reports its own stuck set.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::mpsc;
use std::thread;

use crate::config::RuntimeConfig;
use crate::error::RunError;
use crate::exception::Exception;
use crate::ids::{MVarId, ThreadId};
use crate::io::Io;
use crate::mvar::MVar;
use crate::scheduler::{PumpOutcome, Runtime};
use crate::stats::Stats;
use crate::trace::render_trace;
use crate::value::Value;

/// Configuration for a [`MultiRuntime`].
#[derive(Debug, Clone)]
pub struct MultiConfig {
    /// Width of one virtual-time epoch, in microseconds. Cross-shard
    /// messages are delivered only at epoch/round barriers, so smaller
    /// epochs mean lower cross-shard latency but more barriers.
    pub epoch_us: u64,
    /// OS threads to spread the shards over. Results are bit-identical
    /// for every value; `1` is the semantic oracle.
    pub os_threads: usize,
    /// Configuration for each per-shard [`Runtime`].
    pub runtime: RuntimeConfig,
}

impl Default for MultiConfig {
    fn default() -> Self {
        MultiConfig {
            epoch_us: 1_000,
            os_threads: 1,
            runtime: RuntimeConfig::default(),
        }
    }
}

/// A message crossing the shard boundary at an epoch barrier.
#[derive(Debug, Clone, PartialEq)]
enum CrossMsg {
    /// A value sent with [`ShardCtx::send`], delivered into the
    /// destination shard's inbox.
    Data(Value),
    /// A cross-shard `throwTo`, delivered via the destination runtime's
    /// host-side throw (a no-op if `target` is dead or its slot was
    /// reused — the generation check misses).
    Throw {
        /// The target thread *within the destination shard*.
        target: ThreadId,
        /// The exception to deliver.
        exc: Exception,
    },
}

/// One buffered cross-shard message with its deterministic ordering
/// key: barrier delivery is sorted by `(src, seq)`, and `seq` is the
/// per-source send counter, so the drain order is a pure function of
/// program behaviour.
#[derive(Debug, Clone, PartialEq)]
struct Envelope {
    /// Sending shard.
    src: u16,
    /// Per-source monotone send counter.
    seq: u64,
    /// Destination shard.
    dest: u16,
    /// The payload.
    msg: CrossMsg,
}

#[derive(Default)]
struct Outbox {
    next_seq: u64,
    msgs: Vec<Envelope>,
}

/// A shard program's handle to the cross-shard channel plane. Cloneable
/// and cheap (a few `Rc`s); every `Io` it builds captures clones, so
/// one ctx serves any number of threads within the shard.
#[derive(Clone)]
pub struct ShardCtx {
    shard: u16,
    shards: u16,
    outbox: Rc<RefCell<Outbox>>,
    inbox: Rc<RefCell<VecDeque<Value>>>,
    /// Wakeup token for blocked receivers: the barrier try-puts it
    /// after delivering data, and a receiver that drains a value while
    /// more remain passes it on, so a non-empty inbox always has
    /// a token or an awake consumer.
    signal: MVarId,
}

impl ShardCtx {
    /// This shard's index.
    pub fn shard(&self) -> u16 {
        self.shard
    }

    /// Total number of shards in the [`MultiRuntime`].
    pub fn shards(&self) -> u16 {
        self.shards
    }

    /// Buffers `v` for `dest`'s inbox; it is delivered at the next
    /// epoch barrier, in `(src, seq)` order.
    ///
    /// # Panics
    ///
    /// The returned action panics when run if `dest` is out of range.
    pub fn send(&self, dest: u16, v: Value) -> Io<()> {
        self.post(dest, CrossMsg::Data(v))
    }

    /// Buffers a `throwTo` for thread `target` on shard `dest`; it
    /// lands at the next epoch barrier — a step boundary of the target
    /// shard — and is a no-op if the target died by then.
    pub fn throw_to(&self, dest: u16, target: ThreadId, exc: Exception) -> Io<()> {
        self.post(dest, CrossMsg::Throw { target, exc })
    }

    fn post(&self, dest: u16, msg: CrossMsg) -> Io<()> {
        let outbox = self.outbox.clone();
        let src = self.shard;
        let shards = self.shards;
        Io::effect(move || {
            assert!(dest < shards, "shard {dest} out of range ({shards} shards)");
            let mut ob = outbox.borrow_mut();
            let seq = ob.next_seq;
            ob.next_seq += 1;
            ob.msgs.push(Envelope {
                src,
                seq,
                dest,
                msg,
            });
        })
    }

    /// Pops the next delivered value without blocking, `None` if the
    /// inbox is empty.
    pub fn try_recv(&self) -> Io<Option<Value>> {
        self.pop_and_pass_on()
    }

    /// Blocks until a cross-shard value arrives. Interruptible like any
    /// blocking take: waiting happens on the shard-local signal `MVar`,
    /// so an async exception can land while the thread is parked.
    pub fn recv(&self) -> Io<Value> {
        let ctx = self.clone();
        self.pop_and_pass_on().and_then(move |got| match got {
            Some(v) => Io::pure(v),
            None => {
                let sig: MVar<i64> = MVar::from_id(ctx.signal);
                let again = ctx.clone();
                sig.take().and_then(move |_| again.recv())
            }
        })
    }

    /// Pops one value and, if more remain, re-arms the signal token so
    /// another blocked receiver (if any) wakes too.
    fn pop_and_pass_on(&self) -> Io<Option<Value>> {
        let inbox = self.inbox.clone();
        let sig: MVar<i64> = MVar::from_id(self.signal);
        Io::effect(move || {
            let mut ib = inbox.borrow_mut();
            let v = ib.pop_front();
            let more = !ib.is_empty();
            (v, more)
        })
        .and_then(move |(v, more): (Option<Value>, bool)| {
            if more {
                sig.try_put(1).map(move |_| v)
            } else {
                Io::pure(v)
            }
        })
    }
}

/// A shard's program: built *inside* its pinned OS thread from this
/// `Send` closure, because the `Io` graph it returns (and the `Runtime`
/// interpreting it) are deliberately not `Send`.
pub type ShardProgram = Box<dyn FnOnce(&ShardCtx) -> Io<Value> + Send>;

/// What one shard produced.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// The shard main thread's result. A shard left unfinished by a
    /// global deadlock reports its own `Deadlock` stuck-set.
    pub result: Result<Value, RunError>,
    /// The shard runtime's counters.
    pub stats: Stats,
    /// Everything the shard wrote to its console.
    pub output: String,
    /// The shard's rendered I/O trace (golden-testable; record
    /// scheduling events via the runtime config as usual).
    pub trace: String,
    /// The shard's final virtual clock, µs.
    pub clock: u64,
}

/// The result of a [`MultiRuntime::run`]: per-shard reports plus the
/// global barrier record.
#[derive(Debug, Clone)]
pub struct MultiReport {
    /// One report per shard, in shard order.
    pub shards: Vec<ShardReport>,
    /// Every cross-shard message in global drain order, rendered as
    /// `r<round> s<src>.<seq>->s<dest> <kind>` — the bit-identical
    /// artifact the determinism tests pin.
    pub drain_log: Vec<String>,
    /// Barrier rounds executed.
    pub rounds: u64,
    /// Cross-shard messages delivered.
    pub messages: u64,
}

enum Cmd {
    Round {
        sync_to: u64,
        cap: u64,
        /// Deliveries per *local* shard, in the worker's shard order.
        deliveries: Vec<Vec<Envelope>>,
    },
    Finish,
}

#[derive(Debug, Clone, Copy)]
enum Outcome {
    Finished,
    Idle { next_wake: Option<u64> },
    Done,
}

enum Reply {
    Round {
        outcomes: Vec<Outcome>,
        outmsgs: Vec<Envelope>,
    },
    /// Reports in the worker's local shard order; the coordinator maps
    /// them back to global indices via its assignment table.
    Finish(Vec<ShardReport>),
}

/// Coordinator-side status of one shard.
#[derive(Debug, Clone, Copy)]
enum Status {
    Running,
    Idle { next_wake: Option<u64> },
    Finished,
}

struct WorkerShard {
    rt: Runtime,
    outbox: Rc<RefCell<Outbox>>,
    inbox: Rc<RefCell<VecDeque<Value>>>,
    signal: MVarId,
    done: Option<Result<Value, RunError>>,
}

fn worker_main(
    runtime_config: RuntimeConfig,
    shard_count: u16,
    programs: Vec<(u16, ShardProgram)>,
    rx: mpsc::Receiver<Cmd>,
    tx: mpsc::Sender<Reply>,
) {
    let mut shards: Vec<WorkerShard> = programs
        .into_iter()
        .map(|(global, program)| {
            let mut rt = Runtime::with_config(runtime_config.clone());
            let signal = rt.host_alloc_mvar();
            let outbox = Rc::new(RefCell::new(Outbox::default()));
            let inbox = Rc::new(RefCell::new(VecDeque::new()));
            let ctx = ShardCtx {
                shard: global,
                shards: shard_count,
                outbox: Rc::clone(&outbox),
                inbox: Rc::clone(&inbox),
                signal,
            };
            let action = program(&ctx).action;
            rt.begin_run(action);
            WorkerShard {
                rt,
                outbox,
                inbox,
                signal,
                done: None,
            }
        })
        .collect();

    for cmd in rx {
        match cmd {
            Cmd::Round {
                sync_to,
                cap,
                deliveries,
            } => {
                let mut outcomes = Vec::with_capacity(shards.len());
                let mut outmsgs = Vec::new();
                for (ws, delivery) in shards.iter_mut().zip(deliveries) {
                    if ws.done.is_some() {
                        // Deliveries to a finished shard are dropped:
                        // (Proc GC) killed every thread, so a data send
                        // has no receiver and a throw has no target.
                        outcomes.push(Outcome::Done);
                        continue;
                    }
                    ws.rt.sync_clock_forward(sync_to);
                    let mut any_data = false;
                    for env in delivery {
                        match env.msg {
                            CrossMsg::Data(v) => {
                                ws.inbox.borrow_mut().push_back(v);
                                any_data = true;
                            }
                            CrossMsg::Throw { target, exc } => ws.rt.host_throw_to(target, exc),
                        }
                    }
                    if any_data {
                        ws.rt.host_try_put_mvar(ws.signal, Value::Int(1));
                    }
                    let outcome = match ws.rt.pump(cap) {
                        PumpOutcome::Finished(res) => {
                            ws.done = Some(res);
                            Outcome::Finished
                        }
                        PumpOutcome::Idle { next_wake } => Outcome::Idle { next_wake },
                    };
                    outcomes.push(outcome);
                    outmsgs.append(&mut ws.outbox.borrow_mut().msgs);
                }
                let _ = tx.send(Reply::Round { outcomes, outmsgs });
            }
            Cmd::Finish => {
                let reports = shards
                    .iter_mut()
                    .map(|ws| {
                        let result = match ws.done.take() {
                            Some(r) => r,
                            None => Err(ws.rt.deadlock_error()),
                        };
                        ShardReport {
                            result,
                            stats: ws.rt.stats().clone(),
                            output: ws.rt.output().to_owned(),
                            trace: render_trace(ws.rt.io_trace()),
                            clock: ws.rt.clock(),
                        }
                    })
                    .collect::<Vec<_>>();
                let _ = tx.send(Reply::Finish(reports));
                return;
            }
        }
    }
}

/// N pinned schedulers plus the barrier coordinator. See the module
/// docs for the discipline; see `conch_httpd`'s wall-parallel plane and
/// the bench's `wall_parallel` rows for the payoff.
pub struct MultiRuntime {
    config: MultiConfig,
}

impl MultiRuntime {
    /// A multi-runtime with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_us` is 0 (epochs must have positive width) or
    /// `os_threads` is 0.
    pub fn new(config: MultiConfig) -> Self {
        assert!(config.epoch_us >= 1, "epoch_us must be at least 1µs");
        assert!(config.os_threads >= 1, "os_threads must be at least 1");
        MultiRuntime { config }
    }

    /// The configuration this multi-runtime was built with.
    pub fn config(&self) -> &MultiConfig {
        &self.config
    }

    /// Runs one program per shard to completion and returns the
    /// per-shard reports plus the global drain log. Bit-identical for
    /// any `os_threads`.
    ///
    /// # Panics
    ///
    /// Panics if `programs` is empty, has more than `u16::MAX` shards,
    /// or if a shard program panics (the panic is propagated).
    pub fn run(&mut self, programs: Vec<ShardProgram>) -> MultiReport {
        let shard_count = programs.len();
        assert!(shard_count >= 1, "need at least one shard program");
        assert!(shard_count <= u16::MAX as usize, "too many shards");
        let workers = self.config.os_threads.min(shard_count);
        let epoch_us = self.config.epoch_us;

        // Distribute shards round-robin over workers; within a worker,
        // shards run in ascending global order, so the concatenation of
        // worker outboxes is already src-ascending per worker and one
        // global sort by (src, seq) fixes the total drain order.
        let mut per_worker: Vec<Vec<(u16, ShardProgram)>> =
            (0..workers).map(|_| Vec::new()).collect();
        for (i, p) in programs.into_iter().enumerate() {
            per_worker[i % workers].push((i as u16, p));
        }
        let assignment: Vec<Vec<u16>> = per_worker
            .iter()
            .map(|v| v.iter().map(|(g, _)| *g).collect())
            .collect();

        let mut cmd_txs = Vec::with_capacity(workers);
        let mut reply_rxs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for progs in per_worker {
            let (cmd_tx, cmd_rx) = mpsc::channel::<Cmd>();
            let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
            let rc = self.config.runtime.clone();
            let sc = shard_count as u16;
            handles.push(
                thread::Builder::new()
                    .name("conch-shard".into())
                    .spawn(move || worker_main(rc, sc, progs, cmd_rx, reply_tx))
                    .expect("spawn shard worker"),
            );
            cmd_txs.push(cmd_tx);
            reply_rxs.push(reply_rx);
        }

        let mut statuses = vec![Status::Running; shard_count];
        let mut pending: Vec<Envelope> = Vec::new();
        let mut drain_log = Vec::new();
        let mut epoch: u64 = 0;
        let mut rounds: u64 = 0;
        let mut messages: u64 = 0;

        loop {
            if statuses.iter().all(|s| matches!(s, Status::Finished)) {
                break;
            }
            let all_idle = statuses
                .iter()
                .all(|s| matches!(s, Status::Idle { .. } | Status::Finished));
            if pending.is_empty() && all_idle {
                let min_wake = statuses
                    .iter()
                    .filter_map(|s| match s {
                        Status::Idle { next_wake } => *next_wake,
                        _ => None,
                    })
                    .min();
                // No wake anywhere is the global deadlock: nothing
                // runnable, nothing sleeping, nothing in flight.
                let Some(w) = min_wake else { break };
                // Every idle shard's next wake is past the old cap, so
                // this strictly advances the epoch.
                epoch = epoch.max(w / epoch_us);
            }

            let sync_to = epoch * epoch_us;
            let cap = sync_to + (epoch_us - 1);
            let mut per_shard: Vec<Vec<Envelope>> = vec![Vec::new(); shard_count];
            for env in pending.drain(..) {
                per_shard[env.dest as usize].push(env);
            }
            for (w, tx) in cmd_txs.iter().enumerate() {
                let deliveries = assignment[w]
                    .iter()
                    .map(|&g| std::mem::take(&mut per_shard[g as usize]))
                    .collect();
                tx.send(Cmd::Round {
                    sync_to,
                    cap,
                    deliveries,
                })
                .expect("worker alive");
            }
            rounds += 1;
            let mut outgoing: Vec<Envelope> = Vec::new();
            for (w, rx) in reply_rxs.iter().enumerate() {
                match rx.recv().expect("worker alive") {
                    Reply::Round { outcomes, outmsgs } => {
                        for (&g, outcome) in assignment[w].iter().zip(outcomes) {
                            statuses[g as usize] = match outcome {
                                Outcome::Finished | Outcome::Done => Status::Finished,
                                Outcome::Idle { next_wake } => Status::Idle { next_wake },
                            };
                        }
                        outgoing.extend(outmsgs);
                    }
                    _ => unreachable!("expected Round reply"),
                }
            }
            outgoing.sort_by_key(|e| (e.src, e.seq));
            for env in &outgoing {
                messages += 1;
                drain_log.push(match &env.msg {
                    CrossMsg::Data(_) => {
                        format!("r{} s{}.{}->s{} data", rounds, env.src, env.seq, env.dest)
                    }
                    CrossMsg::Throw { target, .. } => format!(
                        "r{} s{}.{}->s{} throw t{}",
                        rounds,
                        env.src,
                        env.seq,
                        env.dest,
                        target.index()
                    ),
                });
            }
            pending = outgoing;
        }

        for tx in &cmd_txs {
            tx.send(Cmd::Finish).expect("worker alive");
        }
        let mut reports: Vec<Option<ShardReport>> = (0..shard_count).map(|_| None).collect();
        for (w, rx) in reply_rxs.iter().enumerate() {
            match rx.recv().expect("worker alive") {
                Reply::Finish(rs) => {
                    for (&g, report) in assignment[w].iter().zip(rs) {
                        reports[g as usize] = Some(report);
                    }
                }
                _ => unreachable!("expected Finish reply"),
            }
        }
        for h in handles {
            if let Err(p) = h.join() {
                std::panic::resume_unwind(p);
            }
        }

        MultiReport {
            shards: reports
                .into_iter()
                .map(|r| r.expect("every shard reported"))
                .collect(),
            drain_log,
            rounds,
            messages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(os_threads: usize) -> MultiConfig {
        MultiConfig {
            epoch_us: 1_000,
            os_threads,
            runtime: RuntimeConfig::default(),
        }
    }

    /// Shard 0 sends `rounds` ints to shard 1, which doubles and echoes
    /// them back; shard 0 returns the sum of echoes.
    fn ping_pong_programs() -> Vec<ShardProgram> {
        fn ping(ctx: ShardCtx, i: i64, acc: i64) -> Io<i64> {
            if i == 0 {
                return Io::pure(acc);
            }
            let ctx2 = ctx.clone();
            ctx.send(1, Value::Int(i))
                .then(ctx.recv())
                .and_then(move |v| {
                    let Value::Int(n) = v else { panic!("int") };
                    ping(ctx2, i - 1, acc + n)
                })
        }
        fn pong(ctx: ShardCtx, i: i64) -> Io<i64> {
            if i == 0 {
                return Io::pure(0);
            }
            let ctx2 = ctx.clone();
            ctx.recv().and_then(move |v| {
                let Value::Int(n) = v else { panic!("int") };
                ctx2.send(0, Value::Int(2 * n))
                    .then(pong(ctx2.clone(), i - 1))
            })
        }
        vec![
            Box::new(|ctx: &ShardCtx| ping(ctx.clone(), 5, 0).map(Value::Int)),
            Box::new(|ctx: &ShardCtx| pong(ctx.clone(), 5).map(Value::Int)),
        ]
    }

    #[test]
    fn ping_pong_round_trips_across_shards() {
        let report = MultiRuntime::new(config(1)).run(ping_pong_programs());
        assert_eq!(
            report.shards[0].result,
            Ok(Value::Int(2 * (5 + 4 + 3 + 2 + 1)))
        );
        assert_eq!(report.shards[1].result, Ok(Value::Int(0)));
        assert_eq!(report.messages, 10);
    }

    #[test]
    fn one_worker_is_the_oracle_for_many() {
        let base = MultiRuntime::new(config(1)).run(ping_pong_programs());
        for os_threads in [2, 4] {
            let par = MultiRuntime::new(config(os_threads)).run(ping_pong_programs());
            assert_eq!(par.drain_log, base.drain_log);
            assert_eq!(par.rounds, base.rounds);
            for (a, b) in base.shards.iter().zip(&par.shards) {
                assert_eq!(a.result, b.result);
                assert_eq!(a.stats, b.stats);
                assert_eq!(a.trace, b.trace);
                assert_eq!(a.clock, b.clock);
            }
        }
    }

    #[test]
    fn sleepy_shards_fast_forward_epochs() {
        let mk = || -> Vec<ShardProgram> {
            vec![
                Box::new(|_: &ShardCtx| Io::sleep(50_000).map(|()| Value::Int(1))),
                Box::new(|_: &ShardCtx| Io::sleep(70_000).map(|()| Value::Int(2))),
            ]
        };
        let report = MultiRuntime::new(config(2)).run(mk());
        assert_eq!(report.shards[0].result, Ok(Value::Int(1)));
        assert_eq!(report.shards[1].result, Ok(Value::Int(2)));
        assert_eq!(report.shards[0].clock, 50_000);
        assert_eq!(report.shards[1].clock, 70_000);
        // Epochs are skipped, not walked: 70 epochs of virtual time in
        // a handful of rounds.
        assert!(report.rounds < 10, "rounds = {}", report.rounds);
    }

    #[test]
    fn global_deadlock_reports_per_shard_stuck_sets() {
        let mk = || -> Vec<ShardProgram> {
            vec![
                Box::new(|ctx: &ShardCtx| ctx.recv()),
                Box::new(|ctx: &ShardCtx| ctx.recv()),
            ]
        };
        let report = MultiRuntime::new(config(2)).run(mk());
        for shard in &report.shards {
            assert!(
                matches!(shard.result, Err(RunError::Deadlock { .. })),
                "expected deadlock, got {:?}",
                shard.result
            );
        }
    }

    #[test]
    fn cross_shard_throw_to_lands_at_the_barrier() {
        let mk = || -> Vec<ShardProgram> {
            vec![
                // Shard 0: report the victim tid, then sleep forever
                // unless interrupted.
                Box::new(|ctx: &ShardCtx| {
                    let ctx = ctx.clone();
                    Io::my_thread_id().and_then(move |tid| {
                        ctx.send(1, Value::ThreadId(tid)).then(
                            Io::sleep(1_000_000)
                                .map(|()| Value::Str("overslept".into()))
                                .catch(|e| Io::pure(Value::Str(format!("killed: {e}")))),
                        )
                    })
                }),
                // Shard 1: kill whatever tid shard 0 reported.
                Box::new(|ctx: &ShardCtx| {
                    let ctx = ctx.clone();
                    ctx.clone().recv().and_then(move |v| {
                        let Value::ThreadId(tid) = v else {
                            panic!("tid")
                        };
                        ctx.throw_to(0, tid, Exception::kill_thread())
                            .map(|()| Value::Int(1))
                    })
                }),
            ]
        };
        let report = MultiRuntime::new(config(2)).run(mk());
        assert_eq!(
            report.shards[0].result,
            Ok(Value::Str("killed: KillThread".into()))
        );
        assert_eq!(report.shards[1].result, Ok(Value::Int(1)));
        // One data message (the tid) and one throw crossed the plane.
        assert_eq!(report.messages, 2);
        assert!(
            report.drain_log[1].contains("throw"),
            "{:?}",
            report.drain_log
        );
    }

    #[test]
    fn send_to_out_of_range_shard_panics_the_run() {
        let mk = || -> Vec<ShardProgram> {
            vec![Box::new(|ctx: &ShardCtx| {
                ctx.send(7, Value::Int(1)).map(|()| Value::Unit)
            })]
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            MultiRuntime::new(config(1)).run(mk())
        }));
        assert!(result.is_err());
    }
}
