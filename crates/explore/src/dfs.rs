//! The depth-first walk shared by the two exhaustive engines, and the
//! sleep-set engine itself.
//!
//! [`walk`] is the whole search, parameterized by the [`Frontier`] its
//! [`Worker`] belongs to: with one worker nobody ever
//! [starves](Frontier::starving), donation never happens, and the loop
//! is the classic sequential DFS (run, drain new branch points,
//! backtrack) — the `workers = 1` counters and certificates are
//! bit-identical to the historical single-threaded explorer. With many
//! workers, each runs this same loop on its own OS thread with its own
//! [`Worker`] and fresh `TestCase`s from the caller's factory; only
//! plain-data [`WorkItem`]s, counters and failure certificates cross
//! threads.
//!
//! Work splitting donates the *shallowest* unexhausted branch point of
//! the current stack: its remaining alternatives are the biggest
//! subtrees the worker owns, which keeps donated items chunky and the
//! donation rate low (a worker donates at most once per executed run,
//! and only while some other worker is actually starving).

use std::cell::RefCell;

use conch_runtime::value::FromValue;

use crate::driver::DriverState;
use crate::explorer::TestCase;
use crate::frontier::{dfs_key, point_key, Frontier, Node, WorkItem};
use crate::worker::{Run, Worker};

/// Run one worker to completion: pull items, walk each subtree depth
/// first, donate when peers starve, stop on global caps or search end.
/// The engine supplies what differs, `visit(worker, run, scripted,
/// stack)`: account a finished run and push its branch points past the
/// first `scripted` as new nodes. `false` abandons the rest of the item.
pub(crate) fn walk<T: FromValue>(
    w: &mut Worker<'_>,
    factory: &mut dyn FnMut() -> TestCase<T>,
    mut visit: impl FnMut(&mut Worker<'_>, Run<T>, usize, &mut Vec<Node>) -> bool,
) {
    let frontier = w.frontier;
    let mut stack: Vec<Node> = Vec::new();
    while let Some(item) = frontier.next_item() {
        stack.clear();
        stack.extend(item.node.clone());
        while !frontier.is_stopped() {
            // Once some worker holds a failing run, subtrees strictly
            // DFS-later than it can't change the verdict: skip them.
            let later = frontier.has_failure() && frontier.prune_later(&prefix_key(&item, &stack));
            if !later {
                load_script(w.state(), &item, &stack);
                let run = w.run(factory);
                if !visit(w, run, item.prefix.len() + stack.len(), &mut stack) {
                    break;
                }
            }
            if frontier.starving() > 0 {
                donate(frontier, &item, &mut stack);
            }
            if !backtrack(&mut stack, frontier) || w.over_caps() {
                break;
            }
        }
        frontier.finish_item();
    }
}

/// The sleep-set engine ([`Reduction::SleepSets`](crate::Reduction)).
pub(crate) fn sleep_set_worker<T: FromValue>(
    w: &mut Worker<'_>,
    factory: &mut dyn FnMut() -> TestCase<T>,
) {
    walk(w, factory, |w, run, scripted, stack| {
        // A failing run stops this item (everything left in it is
        // DFS-later) but lets the search drain: other items may
        // hold a DFS-earlier failure that should win.
        if w.account(run, |st| dfs_key(&st.record)) {
            return false;
        }
        // Newly discovered branch points below the scripted prefix
        // become fresh DFS nodes. Draining (rather than taking) the
        // record keeps its buffer capacity for the next run.
        let mut pruned = 0;
        for point in w.state().borrow_mut().record.drain(scripted..) {
            pruned += point.alts.iter().filter(|a| a.asleep).count();
            stack.push(Node::from_point(point));
        }
        w.frontier.add_pruned(pruned);
        true
    });
}

/// Refill the driver's script and sleep entries for the schedule the
/// item prefix + stack currently denote.
fn load_script(state: &RefCell<DriverState>, item: &WorkItem, stack: &[Node]) {
    let mut st = state.borrow_mut();
    st.reset();
    st.script.extend_from_slice(&item.prefix);
    st.extra_sleep.extend_from_slice(&item.base_sleep);
    let base = item.prefix.len();
    for (i, node) in stack.iter().enumerate() {
        st.script.push(node.point.chosen);
        node.each_explored(|entry| st.extra_sleep.push((base + i, entry)));
    }
}

/// DFS key of the schedule prefix the stack currently denotes.
fn prefix_key(item: &WorkItem, stack: &[Node]) -> Vec<u32> {
    let mut key = item.base_key.clone();
    key.extend(stack.iter().map(|node| point_key(&node.point)));
    key
}

/// Advance the deepest advanceable node, popping exhausted ones and
/// counting what they never took; `false` when the item's subtree is
/// exhausted.
fn backtrack(stack: &mut Vec<Node>, frontier: &Frontier) -> bool {
    loop {
        match stack.last_mut() {
            None => return false,
            Some(node) => {
                if node.advance() {
                    return true;
                }
                frontier.add_pruned(node.pruned());
                stack.pop();
            }
        }
    }
}

/// Split the shallowest unexhausted branch points of the stack into
/// [`WorkItem`]s covering their remaining alternatives, and seal them
/// locally. Each donated item carries the full replay context — prefix
/// choices, accumulated sleep entries, DFS key — so any worker can pick
/// it up cold. One pass donates up to one item per *currently starving*
/// thief, pushed as a single batch: every thief wakes to its own
/// multi-schedule chunk instead of the whole pool contending for one
/// split per executed run.
fn donate(frontier: &Frontier, item: &WorkItem, stack: &mut [Node]) {
    let want = frontier.starving().max(1);
    let mut batch: Vec<WorkItem> = Vec::new();
    for i in 0..stack.len() {
        if batch.len() >= want {
            break;
        }
        if stack[i].sealed {
            continue;
        }
        let mut remainder = stack[i].clone();
        if !remainder.advance() {
            continue;
        }
        let base = item.prefix.len();
        let mut prefix = item.prefix.clone();
        let mut base_sleep = item.base_sleep.clone();
        let mut base_key = item.base_key.clone();
        for (j, node) in stack[..i].iter().enumerate() {
            prefix.push(node.point.chosen);
            node.each_explored(|entry| base_sleep.push((base + j, entry)));
            base_key.push(point_key(&node.point));
        }
        batch.push(WorkItem {
            prefix,
            base_sleep,
            base_key,
            node: Some(remainder),
        });
        stack[i].sealed = true;
    }
    frontier.push_batch(batch);
}
