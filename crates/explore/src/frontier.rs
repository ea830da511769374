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

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

use conch_runtime::stats::Stats;

use crate::driver::{Point, SleepEntry};
use crate::schedule::{Choice, Schedule};

/// Poison-tolerant lock: a worker that panicked mid-item has already
/// flagged the search as stopped (see [`Frontier::request_stop`]), and
/// the data under each mutex stays structurally sound, so survivors
/// take the lock anyway, observe the stop flag, and drain out.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One node of a DFS stack: a branch point plus the index of the
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
    /// For scheduling nodes: index into `point.alts` of the current
    /// choice. Unused for delivery nodes. Maintained even under a
    /// restriction, so [`key_index`](Node::key_index) always ranks by
    /// full-`alts` position and failure keys stay comparable across
    /// reduction modes.
    chosen_idx: usize,
    /// The explicit child order (thread ids) and the position of the
    /// current child in it; `None` explores all of `alts`.
    restrict: Option<(Vec<u64>, usize)>,
    /// The node's remaining alternatives were donated to another worker
    /// as a [`WorkItem`]; locally it is exhausted.
    pub(crate) sealed: bool,
}

impl Node {
    pub(crate) fn from_point(point: Point) -> Self {
        let chosen_idx = match point.chosen {
            Choice::Thread(t) => point
                .alts
                .iter()
                .position(|&(a, _)| a == t)
                .expect("recorded choice must be among its alternatives"),
            // Delivery and arm nodes track their current alternative in
            // `point.chosen` itself.
            Choice::Deliver(_) | Choice::Arm(_) => 0,
        };
        Node {
            point,
            chosen_idx,
            restrict: None,
            sealed: false,
        }
    }

    /// A scheduling node restricted to `order` (the executed default
    /// choice first, then the backtrack entries in canonical order).
    /// Every entry must name a thread in `point.alts`.
    pub(crate) fn restricted(point: Point, order: Vec<u64>) -> Self {
        debug_assert!(!point.is_delivery() && !point.is_arm());
        debug_assert_eq!(
            Some(order[0]),
            match point.chosen {
                Choice::Thread(t) => Some(t),
                _ => None,
            }
        );
        let chosen_idx = point
            .alts
            .iter()
            .position(|&(a, _)| a == order[0])
            .expect("restricted choice must be among the point's alternatives");
        Node {
            point,
            chosen_idx,
            restrict: Some((order, 0)),
            sealed: false,
        }
    }

    pub(crate) fn choice(&self) -> Choice {
        if self.point.is_delivery() || self.point.is_arm() {
            self.point.chosen
        } else {
            Choice::Thread(self.point.alts[self.chosen_idx].0)
        }
    }

    /// Visit the alternatives already explored at this node (to be
    /// slept in sibling subtrees). Delivery and arm alternatives are
    /// not threads, so they contribute no sleep entries.
    pub(crate) fn each_explored(&self, mut f: impl FnMut(SleepEntry)) {
        if self.point.is_delivery() || self.point.is_arm() {
            return;
        }
        match &self.restrict {
            None => {
                for &entry in &self.point.alts[..self.chosen_idx] {
                    f(entry);
                }
            }
            Some((order, pos)) => {
                for &tid in &order[..*pos] {
                    if let Some(&entry) = self.point.alts.iter().find(|&&(a, _)| a == tid) {
                        f(entry);
                    }
                }
            }
        }
    }

    /// Position of the current alternative in this node's exploration
    /// order: the DFS visits smaller key indices first, so
    /// concatenating them along a path yields a key that orders whole
    /// runs by sequential visit order (see [`dfs_key`]).
    pub(crate) fn key_index(&self) -> u32 {
        match self.point.chosen {
            Choice::Deliver(true) => 0,
            Choice::Deliver(false) => 1,
            Choice::Arm(a) => a as u32,
            Choice::Thread(_) => self.chosen_idx as u32,
        }
    }

    /// Move to the next unexplored alternative. Returns `false` when the
    /// node is exhausted (or its remainder was donated away).
    pub(crate) fn advance(&mut self) -> bool {
        if self.sealed {
            return false;
        }
        if self.point.is_delivery() {
            // Deliver-now is explored first; defer second; then done.
            if self.point.chosen == Choice::Deliver(true) {
                self.point.chosen = Choice::Deliver(false);
                true
            } else {
                false
            }
        } else if let Choice::Arm(a) = self.point.chosen {
            // Arms are explored in ascending order, 0 first.
            if a + 1 < self.point.arms {
                self.point.chosen = Choice::Arm(a + 1);
                true
            } else {
                false
            }
        } else if let Some((order, pos)) = &mut self.restrict {
            loop {
                *pos += 1;
                let Some(&tid) = order.get(*pos) else {
                    return false;
                };
                if self.point.sleeping.contains(&tid) {
                    continue;
                }
                let Some(i) = self.point.alts.iter().position(|&(a, _)| a == tid) else {
                    continue;
                };
                self.chosen_idx = i;
                return true;
            }
        } else {
            match (self.chosen_idx + 1..self.point.alts.len())
                .find(|&i| !self.point.sleeping.contains(&self.point.alts[i].0))
            {
                Some(i) => {
                    self.chosen_idx = i;
                    true
                }
                None => false,
            }
        }
    }
}

/// The DFS key of a recorded path: one entry per branch point — the
/// position of the taken alternative in that point's exploration order.
/// The sequential DFS visits runs in lexicographic key order, so
/// "found earlier sequentially" is exactly "lexicographically smaller".
pub(crate) fn dfs_key(record: &[Point]) -> Vec<u32> {
    record.iter().map(point_key).collect()
}

pub(crate) fn point_key(p: &Point) -> u32 {
    match p.chosen {
        Choice::Deliver(now) => {
            if now {
                0
            } else {
                1
            }
        }
        Choice::Arm(a) => a as u32,
        Choice::Thread(t) => {
            p.alts
                .iter()
                .position(|&(a, _)| a == t)
                .expect("recorded choice must be among its alternatives") as u32
        }
    }
}

/// A replayable region of the schedule tree, handed between workers.
/// Only plain data — no `Rc`, no program values.
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
        WorkItem {
            prefix: Vec::new(),
            base_sleep: Vec::new(),
            base_key: Vec::new(),
            node: None,
        }
    }
}

/// The DFS-earliest property failure seen so far.
pub(crate) struct FailureCandidate {
    pub(crate) key: Vec<u32>,
    /// The full (unshrunk) schedule of the failing run.
    pub schedule: Schedule,
    /// The property's message on that run.
    pub message: String,
}

struct QueueState {
    items: Vec<WorkItem>,
    /// Workers currently processing an item. The search is over when
    /// the queue is empty *and* nobody is busy (a busy worker may still
    /// donate new items).
    busy: usize,
}

/// One node of the DPOR run-path trie.
#[derive(Default)]
struct TrieNode {
    /// Outgoing edges: the choices actually taken from this node by
    /// registered runs.
    edges: Vec<(Choice, u32)>,
    /// Number of alternatives available at this node's branch point —
    /// `alts.len()` for scheduling points, 2 for delivery points; 0
    /// until some registered run passes through and reports it. Every
    /// run through a given choice prefix sees the same branch point
    /// there (branch-point structure is a function of the path), so
    /// the value is well-defined.
    candidates: u32,
    /// A registered run's choice path ends exactly here.
    run_end: bool,
    /// The node's backtrack set: thread ids some race analysis asked to
    /// force here, in canonical order (appended round by round, sorted
    /// within each round). Append-only, so the exploration order of
    /// already-present children never changes between rounds.
    backtrack: Vec<u64>,
    /// `true` iff the last round barrier grew the backtrack set of this
    /// node *or of some node below it* — i.e. the current round's tree
    /// differs from the previous round's somewhere in this subtree.
    /// Subtrees with `dirty_below == false` were walked to completion
    /// by an earlier round and have not changed since, so re-executing
    /// them contributes nothing; the round DFS skips them wholesale
    /// ([`Frontier::dpor_subtree_clean`]). The root starts dirty so the
    /// first round explores.
    dirty_below: bool,
}

/// Shared state specific to dynamic partial-order reduction
/// ([`Reduction::Dpor`](crate::explorer::Reduction)): the registry of
/// executed run paths, per-node backtrack sets, and the insertions
/// requested during the current round.
///
/// # Determinism
///
/// The search proceeds in *rounds*. Within a round the backtrack sets
/// are frozen, so the round's tree is fixed and the work-stealing DFS
/// over it is deterministic (the [`Frontier`] queue discipline). The
/// insertions a run requests are a pure function of its choice path,
/// and only the *first* registration of a path emits them, so the set
/// of pending insertions at the end of a round is a set union —
/// independent of worker count and timing. The barrier
/// ([`Frontier::dpor_apply_pending`]) folds that set in canonically
/// (grouped per node, new tids sorted ascending, appended), so the next
/// round's tree is again a deterministic function of the previous one.
/// By induction every counter and the DFS-earliest failure certificate
/// are bit-identical for any worker count.
struct DporShared {
    nodes: Vec<TrieNode>,
    /// Backtrack insertions requested during the current round:
    /// `(trie node, thread id)` pairs, applied at the round barrier.
    pending: Vec<(u32, u64)>,
}

/// Shared state of one (possibly parallel) exploration.
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
    dpor: Mutex<DporShared>,
    /// Next sample index to hand out (sampling strategies only). The
    /// counter partitions the fixed index set `0..max_schedules` across
    /// workers; each sample's behaviour is a pure function of its
    /// index, so the partition never changes the run set.
    next_sample: AtomicUsize,
    /// Hashes of every sampled schedule — the `distinct_schedules`
    /// counter. Shared (not per-worker) so duplicates across workers
    /// collapse the same way they do sequentially.
    sampled_hashes: Mutex<HashSet<u64>>,
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
            dpor: Mutex::new(DporShared {
                nodes: vec![TrieNode {
                    dirty_below: true,
                    ..TrieNode::default()
                }],
                pending: Vec::new(),
            }),
            next_sample: AtomicUsize::new(0),
            sampled_hashes: Mutex::new(HashSet::new()),
        }
    }

    /// Claim the next sample index, or `None` once `total` samples have
    /// been handed out (or a stop was requested). Sampling's equivalent
    /// of [`next_item`](Frontier::next_item): workers race on the
    /// counter, but since sample `i` behaves identically whoever runs
    /// it, the race is coverage-invisible.
    pub(crate) fn claim_sample(&self, total: usize) -> Option<usize> {
        if self.is_stopped() {
            return None;
        }
        let index = self.next_sample.fetch_add(1, Ordering::Relaxed);
        if index < total {
            Some(index)
        } else {
            None
        }
    }

    /// Record one sampled schedule's hash for the distinctness counter.
    pub(crate) fn note_schedule_hash(&self, hash: u64) {
        lock(&self.sampled_hashes).insert(hash);
    }

    /// Distinct schedules among the sampled ones.
    pub(crate) fn distinct_schedules(&self) -> usize {
        lock(&self.sampled_hashes).len()
    }

    /// Pop an item, or block until one is donated. Returns `None` when
    /// the search is over: stop requested, or queue empty with no busy
    /// worker left to donate. A returned item MUST be paired with a
    /// later [`finish_item`](Frontier::finish_item).
    pub(crate) fn next_item(&self) -> Option<WorkItem> {
        let mut q = lock(&self.queue);
        loop {
            if self.stopped.load(Ordering::Acquire) {
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
        let mut q = lock(&self.queue);
        q.items.extend(items);
        drop(q);
        if n == 1 {
            self.available.notify_one();
        } else {
            self.available.notify_all();
        }
    }

    /// Fold a worker's accumulated wall-clock telemetry into the
    /// totals (`replay` = schedule execution, `analysis` = race
    /// analysis; both in nanoseconds).
    pub(crate) fn add_timing(&self, replay_ns: u64, analysis_ns: u64) {
        self.replay_ns.fetch_add(replay_ns, Ordering::Relaxed);
        self.analysis_ns.fetch_add(analysis_ns, Ordering::Relaxed);
    }

    /// Accumulated (replay, analysis) wall-clock seconds.
    pub(crate) fn timing(&self) -> (f64, f64) {
        (
            self.replay_ns.load(Ordering::Relaxed) as f64 / 1e9,
            self.analysis_ns.load(Ordering::Relaxed) as f64 / 1e9,
        )
    }

    /// Should busy workers split their subtrees? True when some worker
    /// is starving; always false for a single-worker search, so the
    /// `workers = 1` engine is the sequential DFS, bit for bit.
    pub(crate) fn hungry(&self) -> bool {
        self.workers > 1 && self.starving.load(Ordering::Relaxed) > 0
    }

    /// How many workers are blocked waiting for an item right now — the
    /// batch size a donor should aim for when splitting its stack, so
    /// one donation pass feeds every thief at once.
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

    /// Record one executed run. `choices` is the run's full schedule,
    /// from which the injected-fault count (non-default oracle arms) is
    /// tallied.
    pub(crate) fn note_run(&self, depth_hit: bool, run_steps: u64, choices: &[Choice]) {
        self.explored.fetch_add(1, Ordering::Relaxed);
        if depth_hit {
            self.truncated.fetch_add(1, Ordering::Relaxed);
        }
        self.steps.fetch_add(run_steps, Ordering::Relaxed);
        let faults = choices
            .iter()
            .filter(|c| matches!(c, Choice::Arm(a) if *a > 0))
            .count() as u64;
        if faults > 0 {
            self.faults.fetch_add(faults, Ordering::Relaxed);
        }
    }

    pub(crate) fn add_pruned(&self, n: usize) {
        if n > 0 {
            self.pruned.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub(crate) fn explored(&self) -> usize {
        self.explored.load(Ordering::Relaxed)
    }

    pub(crate) fn pruned(&self) -> usize {
        self.pruned.load(Ordering::Relaxed)
    }

    pub(crate) fn truncated(&self) -> usize {
        self.truncated.load(Ordering::Relaxed)
    }

    pub(crate) fn steps(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    pub(crate) fn faults(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }

    /// Offer a failing run; kept only if DFS-earlier than the current
    /// candidate.
    pub(crate) fn offer_failure(&self, key: Vec<u32>, schedule: Schedule, message: String) {
        let mut slot = lock(&self.failure);
        let earlier = match slot.as_ref() {
            None => true,
            Some(best) => key < best.key,
        };
        if earlier {
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

    /// Register an executed run's choice path in the DPOR trie.
    /// `candidates[d]` is the number of alternatives at the run's `d`-th
    /// branch point. Returns `true` iff the path was not registered
    /// before — only then may the caller count the run, analyze it, and
    /// install its flags; a duplicate execution must contribute nothing.
    pub(crate) fn dpor_register_run(&self, choices: &[Choice], candidates: &[u32]) -> bool {
        debug_assert_eq!(choices.len(), candidates.len());
        let mut d = lock(&self.dpor);
        let mut node = 0usize;
        let mut created = false;
        for (c, &cand) in choices.iter().zip(candidates) {
            debug_assert!(
                d.nodes[node].candidates == 0 || d.nodes[node].candidates == cand,
                "branch-point structure must be a function of the choice prefix"
            );
            d.nodes[node].candidates = cand;
            let found = d.nodes[node]
                .edges
                .iter()
                .find(|&&(e, _)| e == *c)
                .map(|&(_, n)| n);
            node = match found {
                Some(n) => n as usize,
                None => {
                    let next = d.nodes.len() as u32;
                    d.nodes.push(TrieNode::default());
                    d.nodes[node].edges.push((*c, next));
                    created = true;
                    next as usize
                }
            };
        }
        let new = created || !d.nodes[node].run_end;
        d.nodes[node].run_end = true;
        new
    }

    /// Request backtrack insertions derived from one registered run:
    /// `inserts` holds `(branch-point index, thread id)` pairs, where
    /// the index refers to a position along `choices` (the run's path).
    /// The requests are buffered; they take effect only at the round
    /// barrier ([`dpor_apply_pending`](Frontier::dpor_apply_pending)).
    pub(crate) fn dpor_request_inserts(&self, choices: &[Choice], inserts: &[(usize, u64)]) {
        if inserts.is_empty() {
            return;
        }
        let mut d = lock(&self.dpor);
        // Map each path position to its trie node with one walk.
        let mut node_at = Vec::with_capacity(choices.len());
        let mut node = 0u32;
        for c in choices {
            node_at.push(node);
            node = d.nodes[node as usize]
                .edges
                .iter()
                .find(|&&(e, _)| e == *c)
                .map(|&(_, n)| n)
                .expect("insert requests must come from a registered run");
        }
        for &(point, tid) in inserts {
            d.pending.push((node_at[point], tid));
        }
    }

    /// Round barrier: fold the pending insertions into the trie's
    /// backtrack sets. Requests are grouped per node; tids already
    /// present are dropped; the genuinely new ones are appended in
    /// ascending order.
    /// Because the pending set is a union over first-registered runs,
    /// the result is independent of worker timing. Returns `true` iff
    /// any set grew — i.e. the next round has new work.
    ///
    /// The barrier also recomputes every node's
    /// [`dirty_below`](TrieNode::dirty_below) flag: a node whose set
    /// grew is dirty, and dirtiness propagates to every ancestor, so
    /// the next round's DFS can skip any registered subtree with
    /// `dirty_below == false` — its tree is unchanged since the round
    /// that drained it.
    pub(crate) fn dpor_apply_pending(&self) -> bool {
        let mut d = lock(&self.dpor);
        let mut pending = std::mem::take(&mut d.pending);
        pending.sort_unstable();
        pending.dedup();
        for n in &mut d.nodes {
            n.dirty_below = false;
        }
        let mut grew = false;
        for (node, tid) in pending {
            let n = &mut d.nodes[node as usize];
            if n.backtrack.contains(&tid) {
                continue;
            }
            // Sorted dedup'd pending means per-node tids arrive
            // ascending, so plain append keeps the canonical
            // (round added, tid) order.
            n.backtrack.push(tid);
            n.dirty_below = true;
            grew = true;
        }
        // Propagate dirtiness to ancestors. Registration appends child
        // nodes while walking root → leaf, so every child's index is
        // strictly greater than its parent's and one reverse scan sees
        // each child before its parent.
        for i in (0..d.nodes.len()).rev() {
            if d.nodes[i].dirty_below {
                continue;
            }
            let dirty = d.nodes[i]
                .edges
                .iter()
                .any(|&(_, c)| d.nodes[c as usize].dirty_below);
            d.nodes[i].dirty_below = dirty;
        }
        grew
    }

    /// `true` iff `script` names a registered trie node whose entire
    /// subtree is free of backtrack entries added at the last round
    /// barrier. Such a subtree is exactly the tree a previous round
    /// already drained: every path in it is registered, its sleep
    /// contexts are unchanged (child order is append-only), so
    /// re-executing it can register no new run, merge no stats, and
    /// request no insertion — the round DFS skips it wholesale instead
    /// of replaying every schedule in it.
    ///
    /// A script that walks off the trie is never clean: it denotes a
    /// path no registered run has taken, so this round must execute
    /// it. A node created *during* the current round is unreachable
    /// here — the DFS generates each script before any run through it
    /// registers, and never re-generates a script afterwards — so a
    /// successful walk always lands on a node some earlier round
    /// drained completely.
    pub(crate) fn dpor_subtree_clean(&self, script: &[Choice]) -> bool {
        let d = lock(&self.dpor);
        let mut node = 0usize;
        for c in script {
            match d.nodes[node].edges.iter().find(|&&(e, _)| e == *c) {
                Some(&(_, n)) => node = n as usize,
                None => return false,
            }
        }
        !d.nodes[node].dirty_below
    }

    /// The backtrack lists along an executed path, for stack expansion:
    /// entry `i` is the (possibly empty) backtrack set at branch point
    /// `from + i` of `choices`. Missing trie nodes (the path's new
    /// suffix, not yet registered when expansion happens first) yield
    /// empty lists.
    pub(crate) fn dpor_backtrack_lists(&self, choices: &[Choice], from: usize) -> Vec<Vec<u64>> {
        let d = lock(&self.dpor);
        let mut lists = Vec::with_capacity(choices.len().saturating_sub(from));
        let mut node = Some(0u32);
        for (i, c) in choices.iter().enumerate() {
            if i >= from {
                lists.push(match node {
                    Some(n) => d.nodes[n as usize].backtrack.clone(),
                    None => Vec::new(),
                });
            }
            node = node.and_then(|n| {
                d.nodes[n as usize]
                    .edges
                    .iter()
                    .find(|&&(e, _)| e == *c)
                    .map(|&(_, nx)| nx)
            });
        }
        lists
    }

    /// Reset the work queue for the next DPOR round: the whole
    /// (grown) tree is re-walked from the root. Counters, the trie,
    /// the failure candidate, and the stop flag all persist.
    pub(crate) fn start_round(&self) {
        let mut q = lock(&self.queue);
        debug_assert_eq!(q.busy, 0, "a round must be fully drained first");
        q.items = vec![WorkItem::root()];
        drop(q);
        self.available.notify_all();
    }

    /// Schedules pruned under DPOR: over every branch node of the run
    /// trie, the alternatives no run ever took. A deterministic
    /// function of the final trie, computed once at finalization.
    pub(crate) fn dpor_pruned(&self) -> usize {
        let d = lock(&self.dpor);
        d.nodes
            .iter()
            .map(|n| (n.candidates as usize).saturating_sub(n.edges.len()))
            .sum()
    }

    /// Total backtrack-set entries installed by the race analysis —
    /// the `backtracks_installed` telemetry.
    pub(crate) fn dpor_backtracks(&self) -> u64 {
        lock(&self.dpor)
            .nodes
            .iter()
            .map(|n| n.backtrack.len() as u64)
            .sum()
    }

    /// Fold a worker's accumulated runtime statistics into the total.
    pub(crate) fn merge_stats(&self, local: &Stats) {
        lock(&self.stats).merge(local);
    }

    pub(crate) fn total_stats(&self) -> Stats {
        lock(&self.stats).clone()
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
        assert_eq!(f.explored(), 2);
        assert_eq!(f.truncated(), 1);
        assert_eq!(f.steps(), 42);
        assert_eq!(f.pruned(), 3);
        // Arm 0 is the no-fault arm; only non-default arms count.
        assert_eq!(f.faults(), 2);
    }

    #[test]
    fn single_worker_is_never_hungry() {
        let f = Frontier::new(1);
        assert!(!f.hungry());
    }
}
