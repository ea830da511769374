//! Exception storms: bursts of `throwTo KillThread` at worker threads.
//!
//! The §11 fault-tolerance story run in reverse — instead of a
//! supervisor keeping workers alive, an adversary tries to kill them
//! at the worst possible moment, and the server's bracket discipline
//! has to keep the counters conserved anyway. Each potential strike is
//! an [`Io::choose`] branch point, so the explorer enumerates every
//! subset of targets × every delivery interleaving.
//!
//! Striking a worker that already finished is deliberately fine:
//! thread ids are generation-tagged, so the `throwTo` is a no-op
//! rather than friendly fire against an unrelated thread that reused
//! the slot.
//!
//! A storm against a plane whose workers outlive one connection (the
//! supervised pool, the shards) strikes with the §9 *synchronous*
//! `throwTo`: an asynchronous strike still in flight when the storm
//! "ends" could land on a connection accepted *after* the episode (the
//! audit's healthy probe). That would not be a fault-tolerance
//! failure, just an unanswerable client — so a synchronous storm is
//! over when it returns.

use conch_combinators::kill_thread;
use conch_runtime::exception::Exception;
use conch_runtime::ids::ThreadId;
use conch_runtime::io::Io;

/// One storm pass over `tids`: for every thread, an explorer branch
/// decides whether to strike it with `KillThread`. Returns how many
/// strikes were delivered (thrown — a strike at an already-finished
/// thread still counts, and is still harmless). `sync` selects the §9
/// synchronous `throwTo` for each strike.
pub(crate) fn kill_storm(tids: Vec<ThreadId>, sync: bool) -> Io<i64> {
    strike_each(sync, tids.into_iter(), 0)
}

fn strike_each(sync: bool, mut tids: std::vec::IntoIter<ThreadId>, kills: i64) -> Io<i64> {
    match tids.next() {
        None => Io::pure(kills),
        Some(tid) => Io::choose(2).map(|a| a == 1).and_then(move |hit| {
            if hit {
                let strike = if sync {
                    Io::throw_to_sync(tid, Exception::kill_thread())
                } else {
                    kill_thread(tid)
                };
                strike.and_then(move |_| strike_each(sync, tids, kills + 1))
            } else {
                strike_each(sync, tids, kills)
            }
        }),
    }
}
