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
//! # Shape of the search: one DFS
//!
//! The search is the depth-first [`walk`] the sleep-set engine uses,
//! with one worker, and its backtrack sets live on the DFS stack
//! (Flanagan–Godefroid). Every scheduling branch point becomes a node
//! ([`Node::dpor`]) whose only child, at first, is the default choice
//! the run took. After each run the race analysis names branch points
//! on the current path, all of them on the stack, and
//! [`plan_inserts`] adds each entry to its node's set
//! ([`Node::add_backtrack`]). The node explores it after the children
//! it has already taken, with those asleep. A node is popped when its
//! set is exhausted; what it never took is counted as pruned then.
//! Delivery points always branch both arms: a delivery is dependent on
//! every step of its target, so both orders are always relevant.
//!
//! A run only appends entries, so the first failing run is where the
//! search stops, as under sleep sets.
//!
//! # Sleep discipline
//!
//! A backtrack entry that is asleep at its point (its step is already
//! covered by the sibling subtree that put it to sleep) is skipped at
//! exploration time (`Node::advance`), never at planning time —
//! whether a thread is asleep depends on the exploration context,
//! while the planned insertions stay a pure function of the path.

use conch_runtime::value::FromValue;

use crate::clocks::{RaceFlag, RaceState};
use crate::dfs::walk;
use crate::driver::DriverState;
use crate::explorer::TestCase;
use crate::frontier::{alt_index, dfs_key, Node};
use crate::schedule::Choice;
use crate::worker::Worker;

/// The DPOR engine: the shared [depth-first walk](walk) on one worker,
/// executing and analyzing each run, and growing the backtrack sets of
/// the nodes on its stack. A branch point's index in a run's record is
/// its node's index on the stack: the search is one item, the root.
pub(crate) fn dpor_worker<T: FromValue>(
    w: &mut Worker<'_>,
    factory: &mut dyn FnMut() -> TestCase<T>,
) {
    w.state().borrow_mut().trace_exec = true;
    let mut races = RaceState::default();
    // Planned against the record, added once its new points are nodes.
    let mut inserts: Vec<(usize, u64)> = Vec::new();
    walk(w, factory, |w, run, scripted, stack| {
        if w.account(run, |st| dfs_key(&st.record)) {
            return false;
        }
        w.stats.races_detected +=
            w.analysis(|st| races.analyze(&st.exec_log, &st.births, st.exit()));
        let mut st = w.state().borrow_mut();
        plan_inserts(&st, races.flags(), |point, tid| inserts.push((point, tid)));
        stack.extend(st.record.drain(scripted..).map(Node::dpor));
        drop(st);
        for (point, tid) in inserts.drain(..) {
            w.stats.backtracks_installed += stack[point].add_backtrack(tid) as u64;
        }
        true
    });
}

/// Translate one run's race flags into backtrack insertions — a pure
/// function of the executed path. For each race at branch point `i`
/// with later thread `q`:
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
    use conch_runtime::decide::StepFootprint;

    use super::*;
    use crate::driver::{Alt, Alts, Point};
    use crate::step::Step;
    use Choice::{Deliver, Thread};

    /// A scheduling point over threads `0..candidates` that took
    /// `chosen`, with `sleeping` asleep when it was recorded.
    fn sched(chosen: u64, candidates: u64, sleeping: &[u64]) -> Point {
        let mut alts = Alts::new();
        for t in 0..candidates {
            let mut alt = Alt::new(Step::new(t, StepFootprint::Effect));
            alt.asleep = sleeping.contains(&t);
            alts.push(alt);
        }
        Point {
            alts,
            chosen: Thread(chosen),
            arms: 0,
        }
    }

    /// The threads asleep at the start of the current child's subtree.
    fn asleep(node: &Node) -> Vec<u64> {
        let mut tids = Vec::new();
        node.each_explored(|step| tids.push(step.tid()));
        tids
    }

    /// Every child the node takes from here on.
    fn rest(node: &mut Node) -> Vec<Choice> {
        std::iter::from_fn(|| node.advance().then_some(node.point.chosen)).collect()
    }

    #[test]
    fn an_entry_added_on_the_stack_comes_after_the_earlier_children_with_them_asleep() {
        let mut node = Node::dpor(sched(0, 3, &[]));
        assert_eq!(asleep(&node), [] as [u64; 0]);
        // A run below the default asks for t2.
        assert!(node.add_backtrack(2));
        assert!(node.advance());
        assert_eq!((node.point.chosen, asleep(&node)), (Thread(2), vec![0]));
        // A run below t2 asks for t1: it comes after both, both asleep.
        assert!(node.add_backtrack(1));
        assert!(node.advance());
        assert_eq!((node.point.chosen, asleep(&node)), (Thread(1), vec![0, 2]));
        assert!(!node.advance());
    }

    #[test]
    fn a_repeated_entry_or_the_default_is_explored_once_and_counted_once() {
        let mut node = Node::dpor(sched(1, 3, &[]));
        let added = [2, 2, 1, 1, 0, 2].map(|tid| node.add_backtrack(tid));
        assert_eq!(added, [true, false, true, false, true, false]);
        assert_eq!(rest(&mut node), [Thread(2), Thread(0)]);
        // An entry for a child already taken is not taken again.
        assert!(!node.add_backtrack(0));
        assert_eq!(rest(&mut node), []);
    }

    #[test]
    fn pruned_at_pop_is_candidates_minus_children_taken() {
        // Four candidates, t3 asleep when the point was recorded.
        let mut node = Node::dpor(sched(0, 4, &[3]));
        assert_eq!(node.pruned(), 3, "alone, the default is the one child");
        node.add_backtrack(3);
        node.add_backtrack(1);
        assert_eq!(rest(&mut node), [Thread(1)], "an asleep entry is skipped");
        assert_eq!(node.pruned(), 4 - 2);
        // A delivery point branches both arms: it prunes nothing.
        let deliver = Point {
            alts: Alts::new(),
            chosen: Deliver(true),
            arms: 0,
        };
        let mut node = Node::dpor(deliver);
        assert_eq!(rest(&mut node), [Deliver(false)]);
        assert_eq!(node.pruned(), 0);
    }
}
