//! The dynamic partial-order reduction engine
//! ([`Reduction::Dpor`](crate::explorer::Reduction)).
//!
//! Instead of branching on every enabled alternative at every branch
//! point (the sleep-set engine in [`crate::dfs`]), DPOR lets each
//! executed run *tell* the search which alternatives matter: the run's
//! step log is analyzed for races ([`crate::clocks`]), and for each
//! race a backtrack entry is installed at the earlier step's branch
//! point, forcing the later thread there in some future run. Branch
//! points whose alternatives commute with everything that follows are
//! never branched at all — the win over the conservative footprint
//! relation the sleep-set DFS prunes with.
//!
//! # Shape of the search: rounds
//!
//! The search is a fixpoint of *rounds*. Each round is a complete DFS
//! over the tree the current backtrack sets justify:
//!
//! 1. Every scheduling branch point becomes a node
//!    ([`Node::in_round`]) whose children are
//!    the executed default choice plus the point's backtrack set
//!    (frozen for the round). Delivery points always branch both arms
//!    — a delivery is dependent on every step of its target, so both
//!    orders are always relevant. The DFS machinery is the same one
//!    the sleep-set engine uses: per-sibling sleep entries, donation
//!    based work stealing, DFS keys.
//! 2. Each executed run is registered in a shared trie, counted, its
//!    stats merged, its races analyzed and its backtrack insertions
//!    requested — a pure function of the path. The trie keeps the
//!    branch point each run found below its script, so it is also the
//!    tree the next rounds walk: where the script on the DFS stack
//!    names a registered path, what lies below is read back
//!    ([`Trie::recall`]) and nothing is executed. Re-walking the grown
//!    tree costs no run — every path is executed exactly once.
//! 3. At the round barrier the pending insertions are folded into the
//!    trie canonically ([`Trie::apply_pending`]); if nothing
//!    grew, the backtrack sets are closed under the race analysis and
//!    the search is done.
//!
//! Within a round the tree is fixed, so the work-stealing DFS is
//! deterministic; the insertion set is a union over the executed
//! runs, so the barrier's output is timing-independent; by induction
//! every counter and the DFS-earliest failure certificate are
//! bit-identical for any worker count. To keep the certificate a
//! function of the run set alone, a failing run neither stops a round
//! nor prunes DFS-later work — the fixpoint drains completely.
//!
//! # Sleep discipline
//!
//! Rounds compose with sleep sets exactly as in classical DPOR: a
//! backtrack member that is asleep at its point (its step is already
//! covered by the sibling subtree that put it to sleep) is skipped at
//! exploration time (`Node::advance`), never at planning time —
//! whether a thread is asleep depends on the exploration context,
//! while the planned insertions must stay a pure function of the path.

use std::sync::Mutex;

use conch_runtime::value::FromValue;

use crate::clocks::{RaceFlag, RaceState};
use crate::dfs::walk;
use crate::driver::{Alt, Alts, DriverState, Point};
use crate::explorer::TestCase;
use crate::frontier::{alt_index, dfs_key, lock, Node};
use crate::schedule::Choice;
use crate::worker::Worker;

/// The empty link of the trie's child, sibling and backtrack lists.
const NONE: u32 = u32::MAX;

/// One node of the DPOR run-path trie: a choice prefix some registered
/// run took, and the branch point that run found at its end.
struct TrieNode {
    /// The choice that leads here from the parent (unused at the root).
    edge: Choice,
    /// The children — the choices registered runs took from here — are
    /// the list `first_child`, then each child's `next_sibling`. The
    /// first child is the *default*: the one the run that stored this
    /// node's point took, unscripted.
    first_child: u32,
    next_sibling: u32,
    /// Where in [`Trie::entries`] this node's branch point is stored.
    point: u32,
    /// Head of the node's backtrack set in [`Trie::backtracks`]: thread
    /// ids some race analysis asked to force here. Its canonical order
    /// is the order of arrival (round by round, sorted within each
    /// round) and the list is a stack, latest entry at the head. It
    /// only ever grows, so the exploration order of already-present
    /// children never changes between rounds.
    backtrack: u32,
    /// Number of alternatives at this node's branch point
    /// ([`Point::candidates`]); 0 until the first run to pass through
    /// stores it. Every run through a given choice prefix sees the same
    /// branch point there (branch-point structure is a function of the
    /// path), so the value is well-defined.
    candidates: u32,
    /// A registered run's choice path ends exactly here.
    run_end: bool,
    /// `true` iff the last round barrier grew the backtrack set of this
    /// node *or of some node below it* — i.e. the current round's tree
    /// differs from the previous round's somewhere in this subtree.
    /// Subtrees with `dirty_below == false` were walked to completion
    /// by an earlier round and have not changed since, so the round DFS
    /// passes over them ([`Trie::recall`]). The root starts dirty so
    /// the first round explores.
    dirty_below: bool,
}

impl TrieNode {
    fn new(edge: Choice, next_sibling: u32) -> Self {
        TrieNode {
            edge,
            first_child: NONE,
            next_sibling,
            point: 0,
            backtrack: NONE,
            candidates: 0,
            run_end: false,
            dirty_below: false,
        }
    }
}

/// The list that starts at `first` and follows `next` to [`NONE`].
fn chain<'a>(first: u32, next: impl Fn(u32) -> u32 + 'a) -> impl Iterator<Item = u32> + 'a {
    let link = |n: u32| (n != NONE).then_some(n);
    std::iter::successors(link(first), move |&n| link(next(n)))
}

/// The state DPOR workers share: the registry of executed run paths
/// with the branch point found at each node, per-node backtrack sets,
/// and the insertions requested during the current round.
///
/// The trie is the tree the round DFS walks: a script that names a
/// registered path is never executed again — what lies below it is read
/// back ([`Trie::recall`]) from what the run that first passed there
/// stored. That is sound because restricted child orders are
/// append-only, so the sleep context of an existing path is the same in
/// every later round, and because branch-point structure is a function
/// of the choice prefix.
///
/// # Determinism
///
/// The search proceeds in *rounds*. Within a round the backtrack sets
/// are frozen, so the round's tree is fixed and the work-stealing DFS
/// over it is deterministic (the [`Frontier`](crate::frontier::Frontier)
/// queue discipline). The insertions a run requests are a pure function
/// of its choice path, and each path is executed once, so the set of
/// pending insertions at the end of a round is a set union —
/// independent of worker count and timing. The barrier
/// ([`Trie::apply_pending`]) folds that set in canonically (grouped per
/// node, new tids sorted ascending, appended), so the next round's tree
/// is again a deterministic function of the previous one. By induction
/// every counter and the DFS-earliest failure certificate are
/// bit-identical for any worker count.
pub(crate) struct Trie {
    nodes: Vec<TrieNode>,
    /// The stored branch points, one range per node: a scheduling
    /// point's candidates in run-queue order, each marked asleep or
    /// not as the storing run found it. Delivery and oracle points
    /// store nothing here — their arm count is [`TrieNode::candidates`].
    entries: Vec<Alt>,
    /// Every backtrack entry: a thread id and the next entry of the
    /// same node's set.
    backtracks: Vec<(u64, u32)>,
    /// Backtrack insertions requested during the current round:
    /// `(trie node, thread id)` pairs, applied at the round barrier.
    pending: Vec<(u32, u64)>,
}

impl Default for Trie {
    fn default() -> Self {
        Trie {
            nodes: vec![TrieNode {
                dirty_below: true,
                ..TrieNode::new(Choice::Arm(0), NONE)
            }],
            entries: Vec::new(),
            backtracks: Vec::new(),
            pending: Vec::new(),
        }
    }
}

impl Trie {
    fn children(&self, node: u32) -> impl Iterator<Item = u32> + '_ {
        let first = self.nodes[node as usize].first_child;
        chain(first, |c| self.nodes[c as usize].next_sibling)
    }

    /// The child of `node` along `choice`, if some registered run took it.
    fn child(&self, node: u32, choice: Choice) -> Option<u32> {
        self.children(node)
            .find(|&c| self.nodes[c as usize].edge == choice)
    }

    /// Register an executed run: `record` is its branch points, of
    /// which the first `scripted` were replayed from the DFS stack.
    /// `path` is refilled with the trie node of every branch point (the
    /// node the choice leaves from) — what [`request`](Trie::request)
    /// indexes and the stack carries as its cursor. The points below
    /// the script are stored for [`recall`](Trie::recall). Returns
    /// `true` iff the path was not registered before, as every executed
    /// run's must be.
    pub(crate) fn register(
        &mut self,
        record: &[Point],
        scripted: usize,
        path: &mut Vec<u32>,
    ) -> bool {
        path.clear();
        let mut node = 0u32;
        for (i, p) in record.iter().enumerate() {
            path.push(node);
            if i >= scripted {
                self.store(node, p);
            }
            debug_assert_eq!(
                self.nodes[node as usize].candidates,
                p.candidates(),
                "branch-point structure must be a function of the choice prefix"
            );
            node = self
                .child(node, p.chosen)
                .unwrap_or_else(|| self.add_child(node, p.chosen));
        }
        // A path that created a node ends on it, so the end alone tells.
        !std::mem::replace(&mut self.nodes[node as usize].run_end, true)
    }

    /// Store `p` as the branch point at `node`. Only the run that finds
    /// the point *below* its script may: a later run that passes it
    /// scripted has the siblings the DFS explored marked asleep in
    /// `p.alts`, which is not what a fresh descent sees. Each node
    /// lies below the script of exactly one run — the one that creates
    /// it (the first run, for the root) — so the store is write-once.
    fn store(&mut self, node: u32, p: &Point) {
        let n = &mut self.nodes[node as usize];
        assert!(
            n.candidates == 0,
            "a branch point lies below the script of exactly one run"
        );
        n.candidates = p.candidates();
        n.point = self.entries.len() as u32;
        self.entries.extend_from_slice(&p.alts);
    }

    /// A new child of `parent` along `edge`, linked in behind the first
    /// child so the default stays first.
    fn add_child(&mut self, parent: u32, edge: Choice) -> u32 {
        let new = self.nodes.len() as u32;
        let link = match self.nodes[parent as usize].first_child {
            NONE => &mut self.nodes[parent as usize].first_child,
            first => &mut self.nodes[first as usize].next_sibling,
        };
        let next_sibling = std::mem::replace(link, new);
        self.nodes.push(TrieNode::new(edge, next_sibling));
        new
    }

    /// Look up the script `stack` denotes. `false` if no registered run
    /// took it: it walks off the trie (a new backtrack child, a second
    /// delivery arm, an oracle arm), or it is the empty script and
    /// nothing has run yet — the caller must execute it. Otherwise
    /// nothing is executed: the default continuation below the script
    /// is pushed as the run that first passed there stored it, each
    /// scheduling node restricted to the backtrack set *of this round*,
    /// down to the first node whose subtree the last barrier left
    /// unchanged. Such a subtree is exactly the tree an earlier round
    /// drained — every path in it is registered and its sleep contexts
    /// are unchanged — so nothing of it is pushed, and a registered
    /// leaf pushes nothing either.
    ///
    /// A node created *during* the current round is never the one the
    /// script names — the DFS generates each script before any run
    /// through it registers, and never re-generates a script afterwards
    /// — so every flag read here was set by the last barrier.
    pub(crate) fn recall(&self, stack: &mut Vec<Node>) -> bool {
        let top = stack.last();
        let Some(mut at) = top.map_or(Some(0), |top| self.child(top.at, top.point.chosen)) else {
            return false;
        };
        let mut node = &self.nodes[at as usize];
        if node.first_child == NONE && !node.run_end {
            return false;
        }
        while node.dirty_below && node.first_child != NONE {
            let default = &self.nodes[node.first_child as usize];
            let (threads, arms) = match default.edge {
                Choice::Thread(_) => (node.candidates as usize, 0),
                Choice::Deliver(_) => (0, 0),
                Choice::Arm(_) => (0, node.candidates as u8),
            };
            let mut alts = Alts::new();
            self.entries[node.point as usize..][..threads]
                .iter()
                .for_each(|&e| alts.push(e));
            let point = Point {
                alts,
                chosen: default.edge,
                arms,
            };
            stack.push(Node::in_round(point, at, self.backtrack(at)));
            (at, node) = (node.first_child, default);
        }
        true
    }

    /// Request backtrack insertions — `(trie node, thread id)` pairs
    /// derived from registered runs. Buffered: they take effect only at
    /// the round barrier ([`apply_pending`](Trie::apply_pending)).
    pub(crate) fn request(&mut self, inserts: impl IntoIterator<Item = (u32, u64)>) {
        self.pending.extend(inserts);
    }

    /// The backtrack set of `node`, frozen for the round, latest entry
    /// first.
    fn backtrack(&self, node: u32) -> impl Iterator<Item = u64> + '_ {
        let first = self.nodes[node as usize].backtrack;
        chain(first, |b| self.backtracks[b as usize].1).map(|b| self.backtracks[b as usize].0)
    }

    /// Round barrier: fold the pending insertions into the backtrack
    /// sets. Requests are grouped per node; tids already present are
    /// dropped; the genuinely new ones are added in ascending order.
    /// Because the pending set is a union over the registered runs,
    /// the result is independent of worker timing. Returns `true` iff
    /// any set grew — i.e. the next round has new work.
    ///
    /// The barrier also recomputes every node's
    /// [`dirty_below`](TrieNode::dirty_below) flag: a node whose set
    /// grew is dirty, and dirtiness propagates to every ancestor, so
    /// the next round's DFS can pass over any registered subtree with
    /// `dirty_below == false` — its tree is unchanged since the round
    /// that drained it.
    pub(crate) fn apply_pending(&mut self) -> bool {
        let mut pending = std::mem::take(&mut self.pending);
        pending.sort_unstable();
        pending.dedup();
        for n in &mut self.nodes {
            n.dirty_below = false;
        }
        let grew = self.backtracks.len();
        for (node, tid) in pending {
            if self.backtrack(node).any(|t| t == tid) {
                continue;
            }
            // Sorted dedup'd pending means per-node tids arrive
            // ascending, so pushing each keeps the canonical (round
            // added, tid) order.
            let n = &mut self.nodes[node as usize];
            let below = std::mem::replace(&mut n.backtrack, self.backtracks.len() as u32);
            self.backtracks.push((tid, below));
            n.dirty_below = true;
        }
        // Propagate dirtiness to ancestors. Registration appends child
        // nodes while walking root → leaf, so every child's index is
        // strictly greater than its parent's and one reverse scan sees
        // each child before its parent.
        for i in (0..self.nodes.len()).rev() {
            let below = |c| self.nodes[c as usize].dirty_below;
            if self.children(i as u32).any(below) {
                self.nodes[i].dirty_below = true;
            }
        }
        self.backtracks.len() > grew
    }

    /// Schedules pruned under DPOR: over every branch node of the run
    /// trie, the alternatives no run ever took. A deterministic
    /// function of the final trie, computed once at finalization.
    pub(crate) fn pruned(&self) -> usize {
        (0..self.nodes.len())
            .map(|i| {
                (self.nodes[i].candidates as usize).saturating_sub(self.children(i as u32).count())
            })
            .sum()
    }

    /// Total backtrack-set entries installed by the race analysis —
    /// the `backtracks_installed` telemetry.
    pub(crate) fn backtracks(&self) -> u64 {
        self.backtracks.len() as u64
    }
}

/// Run one worker of one DPOR round to completion: the shared
/// [depth-first walk](walk), restricted to the round's backtrack sets,
/// executing, registering and analyzing each path no earlier run took.
/// The caller loops rounds until [`Trie::apply_pending`] reports
/// closure.
///
/// Re-walking the grown tree each round is what makes the fixpoint
/// simple, and it costs no execution: where the script on the stack
/// names a registered path, the trie says what lies below it
/// ([`Trie::recall`]). Only a script that walks off the trie builds a
/// program and runs it, so the runs executed are exactly the runs
/// counted.
pub(crate) fn round_worker<T: FromValue>(
    w: &mut Worker<'_>,
    factory: &mut dyn FnMut() -> TestCase<T>,
    trie: &Mutex<Trie>,
) {
    w.state().borrow_mut().trace_exec = true;
    let mut races = RaceState::default();
    let mut path: Vec<u32> = Vec::new();
    // Insertions are a set union folded in at the barrier, so a worker
    // collects its own and hands them over once, when its round is done.
    let mut inserts: Vec<(u32, u64)> = Vec::new();
    walk(
        w,
        factory,
        |_, stack| lock(trie).recall(stack),
        |w, run, scripted, stack| {
            let new = lock(trie).register(&w.state().borrow().record, scripted, &mut path);
            assert!(new, "a script that names a registered path is never run");
            // A failure neither stops the round nor prunes DFS-later
            // work: the fixpoint must drain completely so the counters
            // and the DFS-earliest certificate are functions of the run
            // set alone.
            w.account(run, |st| dfs_key(&st.record));
            w.stats.races_detected += w.analysis(|st| races.analyze(&st.exec_log, &st.births));
            plan_inserts(&w.state().borrow(), races.flags(), |point, tid| {
                inserts.push((path[point], tid))
            });
            // The nodes below the script were created by this run, so
            // their backtrack sets are empty until the next barrier.
            let mut st = w.state().borrow_mut();
            for (point, &at) in st.record.drain(scripted..).zip(&path[scripted..]) {
                stack.push(Node::in_round(point, at, std::iter::empty()));
            }
            true
        },
    );
    lock(trie).request(inserts);
}

/// Translate one run's race flags into backtrack insertions — a pure
/// function of the executed path, so analyzing each path once, on
/// whichever worker runs it, is sound. For each race at branch point `i` with later thread `q`:
/// force `q` at `i` when it was an enabled alternative there.
/// Otherwise walk the race's happens-before witnesses
/// (Flanagan–Godefroid's E set, in log order): forcing any enabled
/// witness makes progress toward the reversal, and a witness equal to
/// the chosen thread means the progress path is this run's own subtree
/// — nothing to add. Only when no witness qualifies does the
/// conservative clause fire: insert every sibling.
fn plan_inserts(st: &DriverState, flags: &[RaceFlag], mut insert: impl FnMut(usize, u64)) {
    for flag in flags {
        let point = flag.point as usize;
        let p = &st.record[point];
        // Both delivery arms are always explored; the reversal of a
        // race whose earlier event is the delivery transition is the
        // opposite arm. Oracle points likewise branch every arm
        // unconditionally (and their steps are never logged, so no race
        // should flag one anyway).
        let Choice::Thread(chosen) = p.chosen else {
            continue;
        };
        if flag.later_tid == chosen {
            continue;
        }
        let enabled = |tid: u64| alt_index(p, tid).is_some();
        if enabled(flag.later_tid) {
            insert(point, flag.later_tid);
            continue;
        }
        match flag.witnesses.iter().find(|&&w| w == chosen || enabled(w)) {
            Some(&w) if w == chosen => {}
            Some(&w) => insert(point, w),
            None => {
                for a in p.alts.iter().filter(|a| a.tid() != chosen) {
                    insert(point, a.tid());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conch_runtime::decide::StepFootprint;
    use conch_runtime::ids::ThreadId;
    use Choice::{Deliver, Thread};

    /// A scheduling point over threads `0..candidates`.
    fn sched(chosen: u64, candidates: u64, sleeping: &[u64]) -> Point {
        let mut alts = Alts::new();
        for t in 0..candidates {
            let mut alt = Alt::new(ThreadId::from_index(t), StepFootprint::Effect);
            alt.asleep = sleeping.contains(&t);
            alts.push(alt);
        }
        Point {
            alts,
            chosen: Thread(chosen),
            arms: 0,
        }
    }

    fn point(choice: Choice, candidates: u64) -> Point {
        match choice {
            Thread(t) => sched(t, candidates, &[]),
            _ => Point {
                alts: Alts::new(),
                chosen: choice,
                arms: 0,
            },
        }
    }

    /// Register a run of scheduling points with `candidates` threads
    /// each (delivery points have two arms), scripted as the DFS would
    /// script it: through every node some run has passed. Returns
    /// (new, node path).
    fn register(trie: &mut Trie, choices: &[Choice], candidates: u64) -> (bool, Vec<u32>) {
        let record: Vec<Point> = choices.iter().map(|&c| point(c, candidates)).collect();
        let mut node = Some(0);
        let passed = choices.iter().take_while(|&&c| {
            let at = node.filter(|&n| trie.nodes[n as usize].first_child != NONE);
            node = at.and_then(|n| trie.child(n, c));
            at.is_some()
        });
        let scripted = passed.count();
        let mut path = Vec::new();
        let new = trie.register(&record, scripted, &mut path);
        (new, path)
    }

    /// What [`Trie::recall`] pushes below `script` (`None`: a miss).
    fn recall(trie: &Trie, script: &[Choice]) -> Option<Vec<Node>> {
        let mut stack = Vec::new();
        if let Some((&last, prefix)) = script.split_last() {
            let at = prefix
                .iter()
                .try_fold(0, |node, &c| trie.child(node, c))
                .expect("the script's prefix is registered");
            stack.push(Node::in_round(point(last, 1), at, std::iter::empty()));
        }
        let scripted = stack.len();
        trie.recall(&mut stack).then(|| stack.split_off(scripted))
    }

    /// A node's backtrack set in canonical order.
    fn backtrack(trie: &Trie, node: u32) -> Vec<u64> {
        let mut set: Vec<u64> = trie.backtrack(node).collect();
        set.reverse();
        set
    }

    fn dirty(trie: &Trie) -> Vec<usize> {
        (0..trie.nodes.len())
            .filter(|&i| trie.nodes[i].dirty_below)
            .collect()
    }

    #[test]
    fn a_path_is_new_exactly_once() {
        let mut trie = Trie::default();
        let (new, path) = register(&mut trie, &[Thread(0), Thread(1)], 2);
        assert!(new);
        assert_eq!(path, [0, 1], "one node per branch point, root first");
        let (again, same) = register(&mut trie, &[Thread(0), Thread(1)], 2);
        assert!(!again, "a duplicate execution is told so");
        assert_eq!(same, path);
        // A proper prefix ends at an interior node no run ended on, and
        // a sibling creates a node: both are new paths.
        assert!(register(&mut trie, &[Thread(0)], 2).0);
        assert!(!register(&mut trie, &[Thread(0)], 2).0);
        assert!(register(&mut trie, &[Thread(0), Thread(0)], 2).0);
    }

    #[test]
    fn the_barrier_dedups_sorts_and_marks_what_grew() {
        let mut trie = Trie::default();
        // Nodes: 0 -t0-> 1 -t1-> 2 -t0-> 3, and 0 -t1-> 4 -t0-> 5.
        let (_, left) = register(&mut trie, &[Thread(0), Thread(1), Thread(0)], 3);
        let (_, right) = register(&mut trie, &[Thread(1), Thread(0)], 3);
        assert_eq!(
            (left.as_slice(), right.as_slice()),
            (&[0, 1, 2][..], &[0, 4][..])
        );
        assert!(!trie.apply_pending(), "nothing requested, nothing grew");
        assert_eq!(dirty(&trie), [] as [usize; 0]);

        // Two workers hand over overlapping requests, out of order.
        trie.request([(2, 2), (2, 1)]);
        trie.request([(2, 2), (2, 1)]);
        assert_eq!(
            backtrack(&trie, 2),
            [] as [u64; 0],
            "frozen until the barrier"
        );
        assert!(trie.apply_pending());
        assert_eq!(backtrack(&trie, 2), [1, 2], "deduplicated, ascending");
        assert_eq!(dirty(&trie), [0, 1, 2], "the grown node and its ancestors");

        // Next round: one entry already present, one new at another
        // node. Earlier entries keep their place; only the new spine is
        // dirty.
        trie.request([(2, 1), (4, 0), (2, 0)]);
        assert!(trie.apply_pending());
        assert_eq!(backtrack(&trie, 2), [1, 2, 0], "appended, not sorted in");
        assert_eq!(backtrack(&trie, 4), [0]);
        assert_eq!(dirty(&trie), [0, 1, 2, 4]);

        // Only known entries: closure.
        trie.request([(2, 2), (4, 0)]);
        assert!(!trie.apply_pending());
        assert_eq!(dirty(&trie), [] as [usize; 0]);
        assert_eq!(trie.backtracks(), 4);
    }

    #[test]
    fn only_a_drained_unchanged_subtree_is_clean() {
        let mut trie = Trie::default();
        // Clean: a hit with nothing left to walk.
        let clean =
            |trie: &Trie, script: &[Choice]| recall(trie, script).is_some_and(|v| v.is_empty());
        register(&mut trie, &[Thread(0), Deliver(true)], 2);
        register(&mut trie, &[Thread(1)], 2);
        trie.request([(1, 7)]);
        assert!(trie.apply_pending());
        // The spine to the grown node is dirty; its sibling subtree and
        // the leaf below it were drained and have not changed.
        assert!(!clean(&trie, &[]));
        assert!(!clean(&trie, &[Thread(0)]));
        assert!(clean(&trie, &[Thread(0), Deliver(true)]));
        assert!(clean(&trie, &[Thread(1)]));
        // A script that walks off the trie names a path no run took.
        assert!(recall(&trie, &[Thread(0), Deliver(false)]).is_none());
        assert!(recall(&trie, &[Thread(1), Thread(0)]).is_none());
        assert!(recall(&trie, &[Thread(2)]).is_none());
    }

    #[test]
    fn recall_misses_where_no_run_has_passed_and_a_leaf_pushes_nothing() {
        let mut trie = Trie::default();
        assert!(
            recall(&trie, &[]).is_none(),
            "the empty script reaches the root, but nothing has run: round one executes"
        );
        register(&mut trie, &[Thread(0), Deliver(true), Thread(1)], 2);
        // Mid-round only the root is dirty — a node this round created
        // has nothing more to walk until a barrier says so.
        let below = recall(&trie, &[]).expect("a run has passed the root");
        assert_eq!(below.len(), 1);
        trie.request([(2, 0)]);
        assert!(trie.apply_pending());
        // The default continuation comes back down the dirty spine,
        // scheduling and delivery points alike, each at its trie node.
        let below = recall(&trie, &[]).expect("a run has passed the root");
        let at: Vec<_> = below.iter().map(|n| (n.at, n.point.chosen)).collect();
        assert_eq!(at, [(0, Thread(0)), (1, Deliver(true)), (2, Thread(1))]);
        let candidates: Vec<_> = below.iter().map(|n| n.point.candidates()).collect();
        assert_eq!(candidates, [2, 2, 2]);
        // A registered leaf is a hit with nothing below it, dirty
        // ancestors or not.
        let leaf = [Thread(0), Deliver(true), Thread(1)];
        assert_eq!(recall(&trie, &leaf).map(|v| v.len()), Some(0));
        // A program with no branch point at all: the root is the leaf.
        let mut single = Trie::default();
        assert!(single.register(&[], 0, &mut Vec::new()));
        assert_eq!(recall(&single, &[]).map(|v| v.len()), Some(0));
    }

    #[test]
    fn a_point_is_stored_by_the_run_that_finds_it_below_its_script() {
        let mut trie = Trie::default();
        let mut path = Vec::new();
        // The first run finds both points unscripted; t1 is asleep at
        // the second.
        let first = [sched(0, 3, &[]), sched(0, 3, &[1])];
        assert!(trie.register(&first, 0, &mut path));
        // The DFS comes back to the second point for t2: that run
        // passes it scripted, with the explored sibling t0 folded into
        // its sleeping set.
        let second = [sched(0, 3, &[]), sched(2, 3, &[0, 1])];
        assert!(trie.register(&second, 2, &mut path));
        trie.request([(1, 1)]);
        assert!(trie.apply_pending());
        let below = recall(&trie, &[]).expect("registered");
        let asleep = |p: &Point| p.alts.iter().map(|a| a.asleep).collect::<Vec<_>>();
        assert_eq!(
            asleep(&below[1].point),
            [false, true, false],
            "as the fresh descent saw it"
        );
        assert_eq!(
            below[1].point.chosen,
            Thread(0),
            "the default child stays first"
        );
        assert_eq!(below[1].point.alts.len(), 3);
    }

    #[test]
    #[should_panic(expected = "below the script of exactly one run")]
    fn a_stored_point_is_never_overwritten() {
        let mut trie = Trie::default();
        let mut path = Vec::new();
        trie.register(&[sched(0, 2, &[])], 0, &mut path);
        trie.register(&[sched(1, 2, &[0])], 0, &mut path);
    }

    #[test]
    fn a_recalled_node_is_restricted_to_this_rounds_backtrack_set() {
        let mut trie = Trie::default();
        register(&mut trie, &[Thread(0), Thread(0)], 3);
        let advance = |trie: &Trie| {
            let mut root = recall(trie, &[]).expect("registered").swap_remove(0);
            std::iter::from_fn(|| root.advance().then_some(root.point.chosen)).collect::<Vec<_>>()
        };
        assert_eq!(advance(&trie), [], "registered with an empty set");
        trie.request([(0, 2)]);
        assert!(trie.apply_pending());
        assert_eq!(advance(&trie), [Thread(2)]);
        // The default never appears twice, later rounds append.
        trie.request([(0, 0), (0, 1)]);
        assert!(trie.apply_pending());
        assert_eq!(advance(&trie), [Thread(2), Thread(1)]);
    }

    /// The trie is nearly all of a DPOR search's live memory (CI caps
    /// `alloc.peak_live_mib`): a field added here is paid per node.
    #[test]
    fn a_trie_node_stays_forty_bytes() {
        assert!(std::mem::size_of::<TrieNode>() <= 40);
    }

    #[test]
    fn pruned_counts_the_alternatives_no_run_took() {
        let mut trie = Trie::default();
        assert_eq!((trie.pruned(), trie.backtracks()), (0, 0));
        // Root: 3 candidates, 2 taken. Below t0: a delivery point, one
        // arm taken. Below t1: 3 candidates, 1 taken.
        register(&mut trie, &[Thread(0), Deliver(true)], 3);
        register(&mut trie, &[Thread(1), Thread(2)], 3);
        assert_eq!(trie.pruned(), 1 + 1 + 2);
        register(&mut trie, &[Thread(0), Deliver(false)], 3);
        assert_eq!(trie.pruned(), 1 + 2);
        trie.request([(0, 2), (0, 1)]);
        trie.apply_pending();
        assert_eq!(trie.backtracks(), 2);
    }
}
