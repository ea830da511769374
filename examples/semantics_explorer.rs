//! Model-checking the paper's locking example (experiment E1, formal
//! half) and printing a concrete counterexample derivation.
//!
//! Run with `cargo run --example semantics_explorer`.
//!
//! Feeds the §5.1 naive-locking program and its §5.2 safe fix to the
//! executable semantics' model checker. For the naive version it prints
//! the interleaving — rule by rule, in the paper's notation — that loses
//! the lock; for the safe version it reports the exhaustively-verified
//! absence of such an interleaving.

use conch_semantics::engine::{ExploreConfig, Lts, Safety, State};
use conch_semantics::programs::{lock_scenario, naive_lock_update, safe_lock_update};

fn main() {
    let cfg = ExploreConfig::default();
    let lost_lock = |s: &State| s.is_deadlocked(&cfg.rules);

    println!("=== naive locking (§5.1) ===");
    let naive = lock_scenario(|m| naive_lock_update(m, 2));
    let lts = Lts::explore(&State::new(naive, ""), &cfg);
    match lts.check_safety(lost_lock) {
        Ok(Safety::Violation(d)) => {
            println!("RACE FOUND among {} states.", lts.states());
            println!("counterexample derivation ({} steps):", d.steps.len());
            print!("{}", d.render());
            println!("  -> the MVar is empty and every thread is stuck: the lock is lost.\n");
        }
        other => panic!("expected the naive pattern to be racy: {other:?}"),
    }

    println!("=== safe locking (§5.2 + §5.3) ===");
    let safe = lock_scenario(|m| safe_lock_update(m, 2));
    match Lts::explore(&State::new(safe, ""), &cfg).check_safety(lost_lock) {
        Ok(Safety::Safe { states }) => {
            println!("exhaustively explored {states} states: no interleaving loses the lock.");
            println!("block/unblock + interruptible takeMVar close every race window.");
        }
        Ok(Safety::Violation(d)) => panic!("safe locking lost the lock:\n{}", d.render()),
        Err(e) => panic!("{e}"),
    }
}
