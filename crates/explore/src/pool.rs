//! The DFS engine shared by sequential and parallel exploration.
//!
//! [`worker_loop`] is the whole search, parameterized by a
//! [`Frontier`]: with one worker the frontier never reports
//! [`hungry`](Frontier::hungry), donation never happens, and the loop
//! is the classic sequential DFS (run, drain new branch points,
//! backtrack) — the `workers = 1` counters and certificates are
//! bit-identical to the historical single-threaded explorer. With many
//! workers, each runs this same loop on its own OS thread with its own
//! reset-and-reuse [`Runtime`], its own [`DriverState`], and fresh
//! `TestCase`s from the caller's factory; only plain-data
//! [`WorkItem`]s, counters and failure certificates cross threads.
//!
//! Work splitting donates the *shallowest* unexhausted branch point of
//! the current stack: its remaining alternatives are the biggest
//! subtrees the worker owns, which keeps donated items chunky and the
//! donation rate low (a worker donates at most once per executed run,
//! and only while some other worker is actually starving).

use std::cell::RefCell;
use std::rc::Rc;

use conch_runtime::stats::Stats;
use conch_runtime::value::FromValue;

use crate::driver::DriverState;
use crate::explorer::{Explorer, Reduction, Strategy, TestCase};
use crate::frontier::{dfs_key, Frontier, Node, WorkItem};

/// Balances every `next_item` with a `finish_item`, even if the worker
/// panics mid-item (a panicking worker also aborts the search so its
/// peers don't wait forever for donations that will never come; the
/// panic itself propagates through `std::thread::scope`).
pub(crate) struct ItemGuard<'a>(pub(crate) &'a Frontier);

impl Drop for ItemGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.request_stop();
        }
        self.0.finish_item();
    }
}

/// Run one worker to completion: pull items, DFS each subtree, donate
/// when peers starve, stop on global caps or search end.
pub(crate) fn worker_loop<T, F>(explorer: &Explorer, frontier: &Frontier, mut factory: F)
where
    T: FromValue,
    F: FnMut() -> TestCase<T>,
{
    let config = explorer.config();
    // Under `Reduction::Off` sleep entries are simply never loaded into
    // the driver, so every alternative is enumerated — the unreduced
    // baseline the benchmarks measure reductions against.
    let use_sleep = config.strategy != Strategy::Exhaustive(Reduction::Off);
    // One runtime and one driver state per worker, reset between
    // schedules, so the per-schedule cost is interpretation, not
    // allocation. The `Rc` never leaves this thread.
    let mut rt = explorer.make_runtime();
    let state = Rc::new(RefCell::new(DriverState::new(
        Vec::new(),
        Vec::new(),
        config.preemption_bound,
        config.max_depth,
    )));
    let mut stack: Vec<Node> = Vec::new();
    let mut local_stats = Stats::default();
    let mut replay_ns = 0u64;

    while let Some(item) = frontier.next_item() {
        let _guard = ItemGuard(frontier);
        stack.clear();
        if let Some(node) = item.node.clone() {
            stack.push(node);
        }
        'dfs: loop {
            if frontier.is_stopped() {
                break 'dfs;
            }
            // Once some worker holds a failing run, subtrees strictly
            // DFS-later than it can't change the verdict: skip them.
            if frontier.has_failure() && frontier.prune_later(&prefix_key(&item, &stack)) {
                if backtrack(&mut stack) {
                    continue 'dfs;
                }
                break 'dfs;
            }
            load_script(&state, &item, &stack, use_sleep);
            let t0 = std::time::Instant::now();
            let (run, schedule) = explorer.run_once(&mut rt, factory(), &state);
            replay_ns += t0.elapsed().as_nanos() as u64;
            frontier.note_run(run.depth_hit, run.stats.steps, &schedule.choices);
            local_stats.merge(&run.stats);
            if let Err(message) = run.check_result {
                // Stop this item (everything left in it is DFS-later
                // than the failing run) but let the search drain: other
                // items may hold a DFS-earlier failure that should win.
                let key = dfs_key(&state.borrow().record);
                frontier.offer_failure(key, schedule, message);
                break 'dfs;
            }
            // Newly discovered branch points below the scripted prefix
            // become fresh DFS nodes. Draining (rather than taking) the
            // record keeps its buffer capacity for the next run.
            {
                let mut st = state.borrow_mut();
                let scripted = item.prefix.len() + stack.len();
                let mut pruned = 0;
                for point in st.record.drain(scripted..) {
                    pruned += point.sleeping.len();
                    stack.push(Node::from_point(point));
                }
                frontier.add_pruned(pruned);
            }
            if frontier.hungry() {
                donate(frontier, &item, &mut stack);
            }
            if !backtrack(&mut stack) {
                break 'dfs;
            }
            if frontier.explored() >= config.max_schedules {
                frontier.request_stop();
                break 'dfs;
            }
            if let Some(budget) = config.max_total_steps {
                if frontier.steps() >= budget {
                    frontier.request_stop();
                    break 'dfs;
                }
            }
        }
    }
    frontier.merge_stats(&local_stats);
    frontier.add_timing(replay_ns, 0);
}

/// Refill the driver's script and sleep entries for the schedule the
/// item prefix + stack currently denote.
pub(crate) fn load_script(
    state: &Rc<RefCell<DriverState>>,
    item: &WorkItem,
    stack: &[Node],
    use_sleep: bool,
) {
    let mut st = state.borrow_mut();
    st.reset();
    st.script.extend_from_slice(&item.prefix);
    if use_sleep {
        st.extra_sleep.extend_from_slice(&item.base_sleep);
    }
    let base = item.prefix.len();
    for (i, node) in stack.iter().enumerate() {
        st.script.push(node.choice());
        if use_sleep {
            node.each_explored(|entry| st.extra_sleep.push((base + i, entry)));
        }
    }
}

/// DFS key of the schedule prefix the stack currently denotes.
fn prefix_key(item: &WorkItem, stack: &[Node]) -> Vec<u32> {
    let mut key = item.base_key.clone();
    key.extend(stack.iter().map(Node::key_index));
    key
}

/// Advance the deepest advanceable node; `false` when the item's
/// subtree is exhausted.
pub(crate) fn backtrack(stack: &mut Vec<Node>) -> bool {
    loop {
        match stack.last_mut() {
            None => return false,
            Some(node) => {
                if node.advance() {
                    return true;
                }
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
pub(crate) fn donate(frontier: &Frontier, item: &WorkItem, stack: &mut [Node]) {
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
            prefix.push(node.choice());
            node.each_explored(|entry| base_sleep.push((base + j, entry)));
            base_key.push(node.key_index());
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
