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
//! 1. Every scheduling branch point becomes a
//!    [`Node::restricted`] whose children are
//!    the executed default choice plus the point's backtrack set
//!    (frozen for the round). Delivery points always branch both arms
//!    — a delivery is dependent on every step of its target, so both
//!    orders are always relevant. The DFS machinery is the same one
//!    the sleep-set engine uses: per-sibling sleep entries, donation
//!    based work stealing, DFS keys.
//! 2. Each completed run is registered in a shared trie. Only the
//!    *first* registration of a path counts the run, merges its
//!    stats, analyzes its races, and requests backtrack insertions —
//!    a pure function of the path, so re-executions in later rounds
//!    (the price of re-walking the grown tree) contribute nothing.
//! 3. At the round barrier the pending insertions are folded into the
//!    trie canonically ([`Trie::apply_pending`]); if nothing
//!    grew, the backtrack sets are closed under the race analysis and
//!    the search is done.
//!
//! Within a round the tree is fixed, so the work-stealing DFS is
//! deterministic; the insertion set is a union over first-registered
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
use crate::driver::DriverState;
use crate::explorer::TestCase;
use crate::frontier::{alt_index, dfs_key, lock, Node};
use crate::schedule::Choice;
use crate::worker::Worker;

/// One node of the DPOR run-path trie.
#[derive(Default)]
struct TrieNode {
    /// Outgoing edges: the choices actually taken from this node by
    /// registered runs.
    edges: Vec<(Choice, u32)>,
    /// Number of alternatives available at this node's branch point
    /// ([`Point::candidates`](crate::driver::Point::candidates)); 0
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
    /// ([`Trie::subtree_clean`]). The root starts dirty so the first
    /// round explores.
    dirty_below: bool,
}

/// The state DPOR workers share: the registry of executed run paths,
/// per-node backtrack sets, and the insertions requested during the
/// current round.
///
/// # Determinism
///
/// The search proceeds in *rounds*. Within a round the backtrack sets
/// are frozen, so the round's tree is fixed and the work-stealing DFS
/// over it is deterministic (the [`Frontier`](crate::frontier::Frontier)
/// queue discipline). The insertions a run requests are a pure function
/// of its choice path, and only the *first* registration of a path
/// emits them, so the set of pending insertions at the end of a round
/// is a set union — independent of worker count and timing. The barrier
/// ([`Trie::apply_pending`]) folds that set in canonically (grouped per
/// node, new tids sorted ascending, appended), so the next round's tree
/// is again a deterministic function of the previous one. By induction
/// every counter and the DFS-earliest failure certificate are
/// bit-identical for any worker count.
pub(crate) struct Trie {
    nodes: Vec<TrieNode>,
    /// Backtrack insertions requested during the current round:
    /// `(trie node, thread id)` pairs, applied at the round barrier.
    pending: Vec<(u32, u64)>,
}

impl Default for Trie {
    fn default() -> Self {
        Trie {
            nodes: vec![TrieNode {
                dirty_below: true,
                ..TrieNode::default()
            }],
            pending: Vec::new(),
        }
    }
}

impl Trie {
    /// The child of `node` along `choice`, if some registered run took it.
    fn child(&self, node: u32, choice: Choice) -> Option<u32> {
        let edges = &self.nodes[node as usize].edges;
        edges.iter().find(|&&(e, _)| e == choice).map(|&(_, n)| n)
    }

    /// Register an executed run: `steps` yields, per branch point, the
    /// choice taken and the number of alternatives there. `path` is
    /// refilled with the trie node of every branch point (the node the
    /// choice leaves from) — what [`request`](Trie::request) and
    /// [`backtrack`](Trie::backtrack) index. Returns `true` iff the path
    /// was not registered before — only then may the caller count the
    /// run, analyze it, and request insertions; a duplicate execution
    /// must contribute nothing.
    pub(crate) fn register(
        &mut self,
        steps: impl Iterator<Item = (Choice, u32)>,
        path: &mut Vec<u32>,
    ) -> bool {
        path.clear();
        let mut node = 0u32;
        let mut created = false;
        for (choice, candidates) in steps {
            path.push(node);
            let here = &mut self.nodes[node as usize];
            debug_assert!(
                here.candidates == 0 || here.candidates == candidates,
                "branch-point structure must be a function of the choice prefix"
            );
            here.candidates = candidates;
            node = self.child(node, choice).unwrap_or_else(|| {
                created = true;
                let next = self.nodes.len() as u32;
                self.nodes.push(TrieNode::default());
                self.nodes[node as usize].edges.push((choice, next));
                next
            });
        }
        let end = &mut self.nodes[node as usize];
        let new = created || !end.run_end;
        end.run_end = true;
        new
    }

    /// Request backtrack insertions — `(trie node, thread id)` pairs
    /// derived from registered runs. Buffered: they take effect only at
    /// the round barrier ([`apply_pending`](Trie::apply_pending)).
    pub(crate) fn request(&mut self, inserts: impl IntoIterator<Item = (u32, u64)>) {
        self.pending.extend(inserts);
    }

    /// The backtrack set of `node`, frozen for the round.
    pub(crate) fn backtrack(&self, node: u32) -> &[u64] {
        &self.nodes[node as usize].backtrack
    }

    /// Round barrier: fold the pending insertions into the backtrack
    /// sets. Requests are grouped per node; tids already present are
    /// dropped; the genuinely new ones are appended in ascending order.
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
    pub(crate) fn apply_pending(&mut self) -> bool {
        let mut pending = std::mem::take(&mut self.pending);
        pending.sort_unstable();
        pending.dedup();
        for n in &mut self.nodes {
            n.dirty_below = false;
        }
        let mut grew = false;
        for (node, tid) in pending {
            let n = &mut self.nodes[node as usize];
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
        for i in (0..self.nodes.len()).rev() {
            let n = &self.nodes[i];
            let dirty = n.dirty_below
                || n.edges
                    .iter()
                    .any(|&(_, c)| self.nodes[c as usize].dirty_below);
            self.nodes[i].dirty_below = dirty;
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
    pub(crate) fn subtree_clean(&self, script: impl Iterator<Item = Choice>) -> bool {
        let mut node = Some(0u32);
        for choice in script {
            node = node.and_then(|n| self.child(n, choice));
        }
        node.is_some_and(|n| !self.nodes[n as usize].dirty_below)
    }

    /// Schedules pruned under DPOR: over every branch node of the run
    /// trie, the alternatives no run ever took. A deterministic
    /// function of the final trie, computed once at finalization.
    pub(crate) fn pruned(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| (n.candidates as usize).saturating_sub(n.edges.len()))
            .sum()
    }

    /// Total backtrack-set entries installed by the race analysis —
    /// the `backtracks_installed` telemetry.
    pub(crate) fn backtracks(&self) -> u64 {
        self.nodes.iter().map(|n| n.backtrack.len() as u64).sum()
    }
}

/// Run one worker of one DPOR round to completion: the shared
/// [depth-first walk](walk), restricted to the round's backtrack sets,
/// registering and analyzing each first-executed path. The caller loops
/// rounds until [`Trie::apply_pending`] reports closure.
///
/// Re-walking the grown tree each round is what makes the fixpoint
/// simple, but most of the tree is unchanged from round to round — so
/// before executing a script the worker asks the trie whether the
/// subtree below it is *clean* ([`Trie::subtree_clean`]): registered in
/// full by an earlier round, with no backtrack entry added since. A
/// clean subtree would replay only already-registered paths (which
/// contribute nothing — registration is first-run-only), so it is
/// skipped without executing anything. Only dirty spines and genuinely
/// new paths are ever replayed, which collapses the per-round cost from
/// O(tree) to O(changed subtrees).
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
    // Sleep entries are always on under DPOR.
    walk(
        w,
        factory,
        true,
        |item, stack| {
            let script = item.prefix.iter().copied();
            lock(trie).subtree_clean(script.chain(stack.iter().map(|n| n.point.chosen)))
        },
        |w, run, scripted, stack| {
            // One lock, one walk: register the path and read off, for
            // each branch point below the scripted prefix, the child
            // order this round explores there. Scheduling points get
            // the executed choice, then the round's backtrack set.
            // Delivery and oracle points get none: they branch all
            // their alternatives in every round (a delivery is
            // dependent on every step of its target, and an oracle's
            // arms are first-class behaviours), so backtrack sets never
            // restrict them.
            let (new_path, orders) = {
                let st = w.state().borrow();
                let mut trie = lock(trie);
                let steps = st.record.iter().map(|p| (p.chosen, p.candidates()));
                let new_path = trie.register(steps, &mut path);
                let below = st.record[scripted..].iter().zip(&path[scripted..]);
                let orders: Vec<Option<Vec<u64>>> = below
                    .map(|(p, &node)| match p.chosen {
                        Choice::Thread(chosen) => {
                            let backtrack = trie.backtrack(node);
                            let mut order = Vec::with_capacity(1 + backtrack.len());
                            order.push(chosen);
                            order.extend(backtrack.iter().filter(|&&t| t != chosen));
                            Some(order)
                        }
                        Choice::Deliver(_) | Choice::Arm(_) => None,
                    })
                    .collect();
                (new_path, orders)
            };
            if new_path {
                // A failure neither stops the round nor prunes
                // DFS-later work: the fixpoint must drain completely so
                // the counters and the DFS-earliest certificate are
                // functions of the run set alone.
                w.account(run, |st| dfs_key(&st.record));
                let analysis = w.analysis(|st| races.analyze(&st.exec_log, &st.births));
                w.stats.races_detected += analysis.races;
                plan_inserts(&w.state().borrow(), &analysis.flags, |point, tid| {
                    inserts.push((path[point], tid))
                });
            }
            let mut st = w.state().borrow_mut();
            for (point, order) in st.record.drain(scripted..).zip(orders) {
                stack.push(match order {
                    Some(order) => Node::restricted(point, order),
                    None => Node::from_point(point),
                });
            }
            true
        },
    );
    lock(trie).request(inserts);
}

/// Translate one run's race flags into backtrack insertions — a pure
/// function of the executed path, so first-registration-only analysis
/// is sound. For each race at branch point `i` with later thread `q`:
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
                for &(a, _) in p.alts.iter().filter(|&&(a, _)| a != chosen) {
                    insert(point, a);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Choice::{Deliver, Thread};

    /// Register a run of scheduling points with `candidates` threads
    /// each (delivery points have two arms); returns (new, node path).
    fn register(trie: &mut Trie, choices: &[Choice], candidates: u32) -> (bool, Vec<u32>) {
        let mut path = Vec::new();
        let steps = choices.iter().map(|&c| match c {
            Deliver(_) => (c, 2),
            _ => (c, candidates),
        });
        let new = trie.register(steps, &mut path);
        (new, path)
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
        assert!(!again, "a duplicate execution must contribute nothing");
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
            trie.backtrack(2),
            [] as [u64; 0],
            "frozen until the barrier"
        );
        assert!(trie.apply_pending());
        assert_eq!(trie.backtrack(2), [1, 2], "deduplicated, ascending");
        assert_eq!(dirty(&trie), [0, 1, 2], "the grown node and its ancestors");

        // Next round: one entry already present, one new at another
        // node. Earlier entries keep their place; only the new spine is
        // dirty.
        trie.request([(2, 1), (4, 0)]);
        assert!(trie.apply_pending());
        assert_eq!(trie.backtrack(2), [1, 2]);
        assert_eq!(trie.backtrack(4), [0]);
        assert_eq!(dirty(&trie), [0, 4]);

        // Only known entries: closure.
        trie.request([(2, 2), (4, 0)]);
        assert!(!trie.apply_pending());
        assert_eq!(dirty(&trie), [] as [usize; 0]);
        assert_eq!(trie.backtracks(), 3);
    }

    #[test]
    fn only_a_drained_unchanged_subtree_is_clean() {
        let mut trie = Trie::default();
        let clean = |trie: &Trie, script: &[Choice]| trie.subtree_clean(script.iter().copied());
        assert!(
            !clean(&trie, &[]),
            "the root starts dirty: round one explores"
        );
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
        assert!(!clean(&trie, &[Thread(0), Deliver(false)]));
        assert!(!clean(&trie, &[Thread(1), Thread(0)]));
        assert!(!clean(&trie, &[Thread(2)]));
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
