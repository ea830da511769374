//! Work distribution for parallel schedule exploration.
//!
//! A [`WorkItem`] is a frozen, replayable description of an unexplored
//! region of the schedule tree: a choice prefix (plain `Send` data), the
//! sleep-set entries accumulated along it, the prefix's DFS key, and
//! optionally the branch point whose remaining alternatives the item
//! covers. Items partition the schedule space — every schedule belongs
//! to exactly one item's subtree — so per-run counters aggregated
//! across workers are independent of how items are distributed, and the
//! `Io`/`Value` `Rc` graphs never have to cross a thread: each worker
//! rebuilds its program from the factory and replays the prefix.
//!
//! The [`Frontier`] is the shared pool: a LIFO stack of items behind a
//! mutex/condvar (LIFO keeps freshly split subtrees — the deepest,
//! chunkiest work — at the top), the atomic run counters, the
//! DFS-earliest failure candidate, and the merged runtime statistics.
//!
//! # Determinism
//!
//! Which step boundaries become branch points is a function of the
//! executed path alone (see [`crate::driver`]), so the set of runs, the
//! per-point `sleeping` lists, and each run's step count are all
//! independent of how the tree is carved into items. Counters are sums
//! over that fixed set, hence bit-identical for any worker count. For
//! failures, every run is ranked by its [DFS key](dfs_key); workers keep
//! only the lexicographically smallest failing run and prune subtrees
//! that are strictly later, so the surviving candidate is exactly the
//! run the sequential DFS would have failed on first.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

use conch_runtime::stats::Stats;

use crate::driver::{Point, SleepEntry};
use crate::explorer::{Report, Timing};
use crate::inline::InlineVec;
use crate::schedule::{Choice, Schedule};

/// Poison-tolerant lock: a worker that panicked has already flagged the
/// search as stopped (see [`Frontier::request_stop`]), and the data
/// under each mutex stays structurally sound, so survivors take the
/// lock anyway, observe the stop flag, and drain out.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One node of a DFS stack: a branch point whose `chosen` is the
/// alternative currently being explored below it.
///
/// A node may carry a *restriction*: an explicit child order (the
/// DPOR backtrack set, default choice first) that replaces "every
/// alternative in `alts` order". Restricted nodes are how each DPOR
/// round walks only the subtree its backtrack sets justify while
/// reusing the whole DFS machinery — sleep entries, donation, keys.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub(crate) point: Point,
    /// Under DPOR, the run-trie node this branch point sits at — the
    /// stack's cursor into [`crate::dpor::Trie`], which travels with a
    /// donated node. Unused (0) by the sleep-set engine.
    pub(crate) at: u32,
    /// The explicit child order (thread ids) and the position of the
    /// current child in it; `None` explores all of `alts`.
    restrict: Option<(InlineVec<u64, 4>, usize)>,
    /// The node's remaining alternatives were donated to another worker
    /// as a [`WorkItem`]; locally it is exhausted.
    pub(crate) sealed: bool,
}

impl Node {
    pub(crate) fn from_point(point: Point) -> Self {
        Node {
            point,
            at: 0,
            restrict: None,
            sealed: false,
        }
    }

    /// A node of a DPOR round, at trie node `at`. A scheduling point is
    /// restricted to its default choice (the one `point` took) followed
    /// by the node's backtrack set as of this round in canonical order
    /// — `backtrack` yields it latest entry first. Delivery and oracle
    /// points take no restriction: they branch all their alternatives
    /// in every round (a delivery is dependent on every step of its
    /// target, and an oracle's arms are first-class behaviours).
    pub(crate) fn in_round(point: Point, at: u32, backtrack: impl Iterator<Item = u64>) -> Self {
        let mut node = Node::from_point(point);
        node.at = at;
        if let Choice::Thread(default) = node.point.chosen {
            let mut order = InlineVec::new();
            order.push(default);
            backtrack
                .filter(|&t| t != default)
                .for_each(|t| order.push(t));
            order[1..].reverse();
            node.restrict = Some((order, 0));
        }
        node
    }

    /// Visit the alternatives already explored at this node (to be
    /// slept in sibling subtrees). Delivery and arm alternatives are
    /// not threads, so they contribute no sleep entries.
    pub(crate) fn each_explored(&self, mut f: impl FnMut(SleepEntry)) {
        let Choice::Thread(_) = self.point.chosen else {
            return;
        };
        match &self.restrict {
            None => {
                for alt in &self.point.alts[..point_key(&self.point) as usize] {
                    f(alt.entry());
                }
            }
            Some((order, pos)) => {
                for &tid in &order[..*pos] {
                    if let Some(i) = alt_index(&self.point, tid) {
                        f(self.point.alts[i].entry());
                    }
                }
            }
        }
    }

    /// Move to the next unexplored alternative. Returns `false` when the
    /// node is exhausted (or its remainder was donated away).
    pub(crate) fn advance(&mut self) -> bool {
        if self.sealed {
            return false;
        }
        let point = &mut self.point;
        let next = match (point.chosen, &mut self.restrict) {
            // Deliver-now is explored first; defer second; then done.
            (Choice::Deliver(now), _) => now.then_some(Choice::Deliver(false)),
            // Arms are explored in ascending order, 0 first.
            (Choice::Arm(a), _) => (a + 1 < point.arms).then_some(Choice::Arm(a + 1)),
            // A backtrack member that is asleep here, or was never a
            // candidate, is skipped at exploration time.
            (Choice::Thread(_), Some((order, pos))) => loop {
                *pos += 1;
                match order.get(*pos) {
                    None => break None,
                    Some(&tid) if alt_index(point, tid).is_some_and(|i| !point.alts[i].asleep) => {
                        break Some(Choice::Thread(tid));
                    }
                    Some(_) => {}
                }
            },
            (Choice::Thread(_), None) => point.alts[point_key(point) as usize + 1..]
                .iter()
                .find(|a| !a.asleep)
                .map(|a| Choice::Thread(a.tid())),
        };
        match next {
            Some(choice) => {
                point.chosen = choice;
                true
            }
            None => false,
        }
    }
}

/// Position of thread `tid` among the candidates of `point`.
pub(crate) fn alt_index(point: &Point, tid: u64) -> Option<usize> {
    point.alts.iter().position(|a| a.tid() == tid)
}

/// Position of the taken alternative in `p`'s exploration order. The
/// DFS visits smaller positions first, so concatenating them along a
/// path yields a key that orders whole runs by sequential visit order
/// (see [`dfs_key`]) — by full-`alts` position even under a DPOR
/// restriction, so failure keys stay comparable across reductions.
pub(crate) fn point_key(p: &Point) -> u32 {
    match p.chosen {
        Choice::Deliver(now) => !now as u32,
        Choice::Arm(a) => a as u32,
        Choice::Thread(t) => {
            alt_index(p, t).expect("a thread choice must be among its point's alternatives") as u32
        }
    }
}

/// The DFS key of a recorded path: one [`point_key`] per branch point.
/// The sequential DFS visits runs in lexicographic key order, so
/// "found earlier sequentially" is exactly "lexicographically smaller".
pub(crate) fn dfs_key(record: &[Point]) -> Vec<u32> {
    record.iter().map(point_key).collect()
}

/// A replayable region of the schedule tree, handed between workers.
/// Only plain data — no `Rc`, no program values.
#[derive(Default)]
pub(crate) struct WorkItem {
    /// Choices leading to the region's root, replayed verbatim.
    pub(crate) prefix: Vec<Choice>,
    /// Sleep-set entries accumulated along the prefix
    /// (`(script position, entry)` pairs, ascending).
    pub(crate) base_sleep: Vec<(usize, SleepEntry)>,
    /// DFS key of the prefix (one entry per prefix choice).
    pub(crate) base_key: Vec<u32>,
    /// The branch point whose remaining alternatives this item covers;
    /// `None` for the root item (the whole tree).
    pub(crate) node: Option<Node>,
}

impl WorkItem {
    pub(crate) fn root() -> Self {
        WorkItem::default()
    }
}

/// The DFS-earliest property failure seen so far.
pub(crate) struct FailureCandidate {
    pub(crate) key: Vec<u32>,
    /// The full (unshrunk) schedule of the failing run.
    pub(crate) schedule: Schedule,
    /// The property's message on that run.
    pub(crate) message: String,
}

struct QueueState {
    items: Vec<WorkItem>,
    /// Workers currently processing an item. The search is over when
    /// the queue is empty *and* nobody is busy (a busy worker may still
    /// donate new items).
    busy: usize,
}

/// Shared state of one (possibly parallel) exploration — what every
/// engine needs: the work queue, the run counters and the earliest
/// failure. What only one engine reads lives with that engine
/// ([`crate::dpor::Trie`], [`crate::sample::Samples`]).
pub(crate) struct Frontier {
    workers: usize,
    queue: Mutex<QueueState>,
    available: Condvar,
    /// Workers currently blocked waiting for an item — the signal that
    /// busy workers should split their subtrees.
    starving: AtomicUsize,
    stopped: AtomicBool,
    has_failure: AtomicBool,
    explored: AtomicUsize,
    pruned: AtomicUsize,
    truncated: AtomicUsize,
    steps: AtomicU64,
    /// Wall-clock nanoseconds spent executing (replaying) schedules,
    /// summed over workers — telemetry only, never part of the
    /// determinism contract.
    replay_ns: AtomicU64,
    /// Wall-clock nanoseconds spent in race analysis (DPOR only).
    analysis_ns: AtomicU64,
    /// Faults injected across all explored runs: non-default oracle
    /// arms taken (`Choice::Arm(k)` with `k > 0`, the fault plane's
    /// "something goes wrong" arms). A sum over the fixed run set, so
    /// bit-identical for any worker count.
    faults: AtomicU64,
    failure: Mutex<Option<FailureCandidate>>,
    stats: Mutex<Stats>,
}

impl Frontier {
    /// A frontier holding just the root item.
    pub(crate) fn new(workers: usize) -> Self {
        Frontier {
            workers,
            queue: Mutex::new(QueueState {
                items: vec![WorkItem::root()],
                busy: 0,
            }),
            available: Condvar::new(),
            starving: AtomicUsize::new(0),
            stopped: AtomicBool::new(false),
            has_failure: AtomicBool::new(false),
            explored: AtomicUsize::new(0),
            pruned: AtomicUsize::new(0),
            truncated: AtomicUsize::new(0),
            steps: AtomicU64::new(0),
            replay_ns: AtomicU64::new(0),
            analysis_ns: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            failure: Mutex::new(None),
            stats: Mutex::new(Stats::default()),
        }
    }

    /// Pop an item, or block until one is donated. Returns `None` when
    /// the search is over: stop requested, or queue empty with no busy
    /// worker left to donate. A returned item MUST be paired with a
    /// later [`finish_item`](Frontier::finish_item).
    pub(crate) fn next_item(&self) -> Option<WorkItem> {
        let mut q = lock(&self.queue);
        loop {
            if self.is_stopped() {
                return None;
            }
            if let Some(item) = q.items.pop() {
                q.busy += 1;
                return Some(item);
            }
            if q.busy == 0 {
                return None;
            }
            self.starving.fetch_add(1, Ordering::Relaxed);
            q = self.available.wait(q).unwrap_or_else(|e| e.into_inner());
            self.starving.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Declare the item from the matching [`next_item`](Frontier::next_item)
    /// done (fully explored, donated away, or abandoned on stop).
    pub(crate) fn finish_item(&self) {
        let mut q = lock(&self.queue);
        q.busy -= 1;
        if q.busy == 0 {
            // Wake starving workers so they can observe termination.
            self.available.notify_all();
        }
    }

    /// Donate several items in one lock acquisition — a donor splitting
    /// for multiple starving thieves batches its chunks so each thief
    /// wakes to a multi-schedule region instead of contending for
    /// single splits.
    pub(crate) fn push_batch(&self, items: Vec<WorkItem>) {
        if items.is_empty() {
            return;
        }
        let n = items.len();
        lock(&self.queue).items.extend(items);
        if n == 1 {
            self.available.notify_one();
        } else {
            self.available.notify_all();
        }
    }

    /// How many workers are blocked waiting for an item right now — the
    /// signal that busy workers should split their subtrees, and the
    /// batch size to aim for. Always 0 for a single-worker search, so
    /// the `workers = 1` engine is the sequential DFS, bit for bit.
    pub(crate) fn starving(&self) -> usize {
        if self.workers > 1 {
            self.starving.load(Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Abort the search (a global cap was hit, or a worker panicked).
    pub(crate) fn request_stop(&self) {
        self.stopped.store(true, Ordering::Release);
        drop(lock(&self.queue));
        self.available.notify_all();
    }

    pub(crate) fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::Acquire)
    }

    /// Reset the work queue for the next DPOR round: the whole
    /// (grown) tree is re-walked from the root. Counters, the failure
    /// candidate, and the stop flag all persist.
    pub(crate) fn start_round(&self) {
        let mut q = lock(&self.queue);
        debug_assert_eq!(q.busy, 0, "a round must be fully drained first");
        q.items = vec![WorkItem::root()];
        drop(q);
        self.available.notify_all();
    }

    /// Record one executed run. `choices` is the run's full schedule,
    /// from which the injected-fault count (non-default oracle arms) is
    /// tallied.
    pub(crate) fn note_run(&self, truncated: bool, run_steps: u64, choices: &[Choice]) {
        self.explored.fetch_add(1, Ordering::Relaxed);
        self.truncated
            .fetch_add(truncated as usize, Ordering::Relaxed);
        self.steps.fetch_add(run_steps, Ordering::Relaxed);
        let faults = choices
            .iter()
            .filter(|c| matches!(c, Choice::Arm(a) if *a > 0))
            .count() as u64;
        self.faults.fetch_add(faults, Ordering::Relaxed);
    }

    pub(crate) fn add_pruned(&self, n: usize) {
        self.pruned.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn explored(&self) -> usize {
        self.explored.load(Ordering::Relaxed)
    }

    pub(crate) fn steps(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Fold a finished worker's runtime statistics and wall-clock
    /// telemetry (nanoseconds) into the totals.
    pub(crate) fn fold_worker(&self, stats: &Stats, replay_ns: u64, analysis_ns: u64) {
        lock(&self.stats).merge(stats);
        self.replay_ns.fetch_add(replay_ns, Ordering::Relaxed);
        self.analysis_ns.fetch_add(analysis_ns, Ordering::Relaxed);
    }

    /// The coverage every engine counts the same way, read once the
    /// workers are done; the caller adds what its engine alone knows.
    pub(crate) fn report(&self) -> Report {
        Report {
            explored: self.explored(),
            pruned: self.pruned.load(Ordering::Relaxed),
            truncated: self.truncated.load(Ordering::Relaxed),
            steps: self.steps(),
            stats: lock(&self.stats).clone(),
            faults_injected: self.faults.load(Ordering::Relaxed),
            timing: Timing {
                replay_seconds: self.replay_ns.load(Ordering::Relaxed) as f64 / 1e9,
                analysis_seconds: self.analysis_ns.load(Ordering::Relaxed) as f64 / 1e9,
            },
            ..Report::default()
        }
    }

    /// Offer a failing run; kept only if DFS-earlier than the current
    /// candidate.
    pub(crate) fn offer_failure(&self, key: Vec<u32>, schedule: Schedule, message: String) {
        let mut slot = lock(&self.failure);
        if slot.as_ref().is_none_or(|best| key < best.key) {
            *slot = Some(FailureCandidate {
                key,
                schedule,
                message,
            });
            self.has_failure.store(true, Ordering::Release);
        }
    }

    pub(crate) fn has_failure(&self) -> bool {
        self.has_failure.load(Ordering::Acquire)
    }

    /// `true` iff a failure candidate exists and `prefix_key` is
    /// strictly DFS-later — no run under that prefix can precede the
    /// candidate, so its whole subtree may be skipped. (A prefix *of*
    /// the candidate's key compares smaller, so the path to the
    /// candidate itself is never pruned and DFS-earlier failures can
    /// still be found and take over.)
    pub(crate) fn prune_later(&self, prefix_key: &[u32]) -> bool {
        match lock(&self.failure).as_ref() {
            Some(best) => prefix_key > best.key.as_slice(),
            None => false,
        }
    }

    pub(crate) fn take_failure(&self) -> Option<FailureCandidate> {
        lock(&self.failure).take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(s: &str) -> Schedule {
        s.parse().unwrap()
    }

    #[test]
    fn offer_failure_keeps_dfs_earliest() {
        let f = Frontier::new(4);
        f.offer_failure(vec![1, 0], sched("t1.t0"), "later".into());
        f.offer_failure(vec![0, 2], sched("t0.t2"), "earlier".into());
        f.offer_failure(vec![0, 3], sched("t0.t3"), "in between".into());
        let best = f.take_failure().unwrap();
        assert_eq!(best.key, vec![0, 2]);
        assert_eq!(best.message, "earlier");
    }

    #[test]
    fn prune_later_is_strict_and_prefix_safe() {
        let f = Frontier::new(4);
        assert!(!f.prune_later(&[5, 5]), "no candidate, nothing to prune");
        f.offer_failure(vec![1, 1, 0], sched("t1.t1.t0"), "x".into());
        // Strictly later prefixes are pruned.
        assert!(f.prune_later(&[1, 2]));
        assert!(f.prune_later(&[2]));
        // Extensions of the candidate's key are later too.
        assert!(f.prune_later(&[1, 1, 0, 0]));
        // Prefixes of (and paths before) the candidate are kept: a
        // DFS-earlier failure may still hide there.
        assert!(!f.prune_later(&[1, 1]));
        assert!(!f.prune_later(&[1, 0, 7]));
        assert!(!f.prune_later(&[0]));
    }

    #[test]
    fn queue_counts_busy_and_terminates_when_drained() {
        let f = Frontier::new(1);
        let item = f.next_item().expect("root item");
        assert!(item.node.is_none() && item.prefix.is_empty());
        // Donate one child, finish the root: child still pending.
        f.push_batch(vec![WorkItem::root()]);
        f.finish_item();
        assert!(f.next_item().is_some());
        f.finish_item();
        // Queue empty, nobody busy: the search is over.
        assert!(f.next_item().is_none());
    }

    #[test]
    fn stop_drains_immediately() {
        let f = Frontier::new(2);
        f.request_stop();
        assert!(f.next_item().is_none());
        assert!(f.is_stopped());
    }

    #[test]
    fn counters_accumulate() {
        let f = Frontier::new(1);
        f.note_run(false, 10, &[Choice::Thread(0), Choice::Arm(0)]);
        f.note_run(
            true,
            32,
            &[Choice::Arm(2), Choice::Deliver(true), Choice::Arm(1)],
        );
        f.add_pruned(3);
        let report = f.report();
        assert_eq!(report.explored, 2);
        assert_eq!(report.truncated, 1);
        assert_eq!(report.steps, 42);
        assert_eq!(report.pruned, 3);
        // Arm 0 is the no-fault arm; only non-default arms count.
        assert_eq!(report.faults_injected, 2);
    }

    #[test]
    fn single_worker_is_never_hungry() {
        let f = Frontier::new(1);
        assert_eq!(f.starving(), 0);
    }
}
