//! The dynamic partial-order reduction engine
//! ([`Reduction::Dpor`](crate::explorer::Reduction)).
//!
//! Instead of branching on every enabled alternative at every branch
//! point (the sleep-set DFS in [`crate::pool`]), DPOR lets each
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
//!    [`Node::restricted`](crate::frontier::Node) whose children are
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
//!    trie canonically ([`Frontier::dpor_apply_pending`]); if nothing
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

use std::cell::RefCell;
use std::rc::Rc;

use conch_runtime::stats::Stats;
use conch_runtime::value::FromValue;

use crate::clocks::{RaceFlag, RaceState};
use crate::driver::DriverState;
use crate::explorer::{Explorer, TestCase};
use crate::frontier::{dfs_key, Frontier, Node};
use crate::pool::{backtrack, donate, load_script, ItemGuard};
use crate::schedule::Choice;

/// Run one worker of one DPOR round to completion: pull items, DFS
/// each subtree restricted to the round's backtrack sets, register and
/// analyze each first-executed path, donate when peers starve. The
/// caller loops rounds until [`Frontier::dpor_apply_pending`] reports
/// closure.
///
/// Re-walking the grown tree each round is what makes the fixpoint
/// simple, but most of the tree is unchanged from round to round — so
/// before executing a script the worker asks the trie whether the
/// subtree below it is *clean* ([`Frontier::dpor_subtree_clean`]):
/// registered in full by an earlier round, with no backtrack entry
/// added since. A clean subtree would replay only already-registered
/// paths (which contribute nothing — registration is first-run-only),
/// so it is skipped without executing anything. Only dirty spines and
/// genuinely new paths are ever replayed, which collapses the
/// per-round cost from O(tree) to O(changed subtrees).
pub(crate) fn dpor_round_loop<T, F>(explorer: &Explorer, frontier: &Frontier, mut factory: F)
where
    T: FromValue,
    F: FnMut() -> TestCase<T>,
{
    let config = explorer.config();
    let mut rt = explorer.make_runtime();
    let state = Rc::new(RefCell::new(DriverState::new(
        Vec::new(),
        Vec::new(),
        config.preemption_bound,
        config.max_depth,
    )));
    state.borrow_mut().trace_exec = true;
    let mut stack: Vec<Node> = Vec::new();
    let mut script: Vec<Choice> = Vec::new();
    let mut local_stats = Stats::default();
    let mut races = RaceState::default();
    let mut replay_ns = 0u64;
    let mut analysis_ns = 0u64;

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
            script.clear();
            script.extend_from_slice(&item.prefix);
            script.extend(stack.iter().map(Node::choice));
            if frontier.dpor_subtree_clean(&script) {
                // Every path below this script is registered and its
                // backtrack sets have not changed since the round that
                // drained it: replaying it would register nothing, so
                // skip the whole subtree.
                if !backtrack(&mut stack) {
                    break 'dfs;
                }
                continue 'dfs;
            }
            // Sleep entries are always on under DPOR.
            load_script(&state, &item, &stack, true);
            let t0 = std::time::Instant::now();
            let (run, schedule) = explorer.run_once(&mut rt, factory(), &state);
            replay_ns += t0.elapsed().as_nanos() as u64;
            let st = state.borrow();
            let candidates: Vec<u32> = st
                .record
                .iter()
                .map(|p| {
                    if p.is_delivery() {
                        2
                    } else if p.is_arm() {
                        p.arms as u32
                    } else {
                        p.alts.len() as u32
                    }
                })
                .collect();
            let new_path = frontier.dpor_register_run(&schedule.choices, &candidates);
            if new_path {
                frontier.note_run(run.depth_hit, run.stats.steps, &schedule.choices);
                local_stats.merge(&run.stats);
                if let Err(message) = run.check_result {
                    // A failure neither stops the round nor prunes
                    // DFS-later work: the fixpoint must drain
                    // completely so the counters and the DFS-earliest
                    // certificate are functions of the run set alone.
                    frontier.offer_failure(dfs_key(&st.record), schedule.clone(), message);
                }
                let t1 = std::time::Instant::now();
                let analysis = races.analyze(&st.exec_log, &st.births);
                analysis_ns += t1.elapsed().as_nanos() as u64;
                local_stats.races_detected += analysis.races;
                let inserts = plan_inserts(&st, &analysis.flags);
                frontier.dpor_request_inserts(&schedule.choices, &inserts);
            }
            drop(st);
            // Newly discovered branch points below the scripted prefix
            // become DFS nodes restricted to the round's backtrack
            // sets (registered above, so the trie walk resolves the
            // whole path even on a first execution).
            {
                let scripted = item.prefix.len() + stack.len();
                let lists = frontier.dpor_backtrack_lists(&schedule.choices, scripted);
                let mut st = state.borrow_mut();
                for (point, backtrack) in st.record.drain(scripted..).zip(lists) {
                    if point.is_delivery() || point.is_arm() {
                        // Delivery and oracle points branch all their
                        // alternatives in every round — a delivery is
                        // dependent on every step of its target, and an
                        // oracle's arms are first-class behaviours, so
                        // neither is ever restricted by backtrack sets.
                        stack.push(Node::from_point(point));
                    } else {
                        let chosen = match point.chosen {
                            Choice::Thread(t) => t,
                            Choice::Deliver(_) | Choice::Arm(_) => {
                                unreachable!("scheduling point")
                            }
                        };
                        let mut order = Vec::with_capacity(1 + backtrack.len());
                        order.push(chosen);
                        order.extend(backtrack.into_iter().filter(|&t| t != chosen));
                        stack.push(Node::restricted(point, order));
                    }
                }
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
    frontier.add_timing(replay_ns, analysis_ns);
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
fn plan_inserts(st: &DriverState, flags: &[RaceFlag]) -> Vec<(usize, u64)> {
    let mut inserts: Vec<(usize, u64)> = Vec::new();
    for flag in flags {
        let point = flag.point as usize;
        let p = &st.record[point];
        if p.is_delivery() || p.is_arm() {
            // Both delivery arms are always explored; the reversal of
            // a race whose earlier event is the delivery transition is
            // the opposite arm. Oracle points likewise branch every
            // arm unconditionally (and their steps are never logged,
            // so no race should flag one anyway).
            continue;
        }
        let chosen = match p.chosen {
            Choice::Thread(t) => t,
            Choice::Deliver(_) | Choice::Arm(_) => {
                unreachable!("scheduling point must hold a thread choice")
            }
        };
        if flag.later_tid == chosen {
            continue;
        }
        if p.alts.iter().any(|&(a, _)| a == flag.later_tid) {
            inserts.push((point, flag.later_tid));
            continue;
        }
        let mut handled = false;
        for &w in &flag.witnesses {
            if w == chosen {
                handled = true;
                break;
            }
            if p.alts.iter().any(|&(a, _)| a == w) {
                inserts.push((point, w));
                handled = true;
                break;
            }
        }
        if !handled {
            for &(a, _) in p.alts.iter() {
                if a != chosen {
                    inserts.push((point, a));
                }
            }
        }
    }
    inserts
}
