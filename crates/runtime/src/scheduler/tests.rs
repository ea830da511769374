use super::*;
use crate::config::DeliveryMode;
use crate::decide::Pick;

#[test]
fn pure_program_runs() {
    let mut rt = Runtime::new();
    assert_eq!(rt.run(Io::pure(1_i64)).unwrap(), 1);
}

#[test]
fn uncaught_throw_is_reported() {
    let mut rt = Runtime::new();
    let r = rt.run(Io::<i64>::throw(Exception::error_call("bang")));
    assert_eq!(r, Err(RunError::Uncaught(Exception::error_call("bang"))));
}

#[test]
fn catch_handles_sync_exception() {
    let mut rt = Runtime::new();
    let prog = Io::<i64>::throw(Exception::error_call("bang")).catch(|_| Io::pure(5_i64));
    assert_eq!(rt.run(prog).unwrap(), 5);
}

#[test]
fn catch_passes_through_success() {
    let mut rt = Runtime::new();
    let prog = Io::pure(3_i64).catch(|_| Io::pure(0_i64));
    assert_eq!(rt.run(prog).unwrap(), 3);
}

#[test]
fn handler_receives_the_exception() {
    let mut rt = Runtime::new();
    let prog = Io::<String>::throw(Exception::custom("E1")).catch(|e| Io::pure(e.to_string()));
    assert_eq!(rt.run(prog).unwrap(), "E1");
}

#[test]
fn fork_runs_concurrently() {
    let mut rt = Runtime::new();
    // Child fills the MVar; parent waits for it.
    let prog = Io::new_empty_mvar::<i64>().and_then(|m| Io::fork(m.put(10)).then(m.take()));
    assert_eq!(rt.run(prog).unwrap(), 10);
}

#[test]
fn take_on_empty_blocks_until_put() {
    let mut rt = Runtime::new();
    let prog = Io::new_empty_mvar::<i64>().and_then(|m| {
        // Parent takes first (blocks); child sleeps then puts.
        Io::fork(Io::sleep(100).then(m.put(42))).then(m.take())
    });
    assert_eq!(rt.run(prog).unwrap(), 42);
    assert!(rt.clock() >= 100);
}

#[test]
fn deadlock_is_detected() {
    let mut rt = Runtime::new();
    let prog = Io::new_empty_mvar::<i64>().and_then(|m| m.take());
    match rt.run(prog) {
        Err(RunError::Deadlock { stuck }) => assert_eq!(stuck.len(), 1),
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn sleep_advances_virtual_clock() {
    let mut rt = Runtime::new();
    rt.run(Io::sleep(500)).unwrap();
    assert_eq!(rt.clock(), 500);
}

#[test]
fn sleeps_wake_in_time_order() {
    let mut rt = Runtime::new();
    let prog = Io::new_empty_mvar::<i64>().and_then(|m| {
        Io::fork(Io::sleep(200).then(m.put(2)))
            .then(Io::fork(Io::sleep(100).then(Io::unit())))
            .then(m.take())
    });
    assert_eq!(rt.run(prog).unwrap(), 2);
    assert_eq!(rt.clock(), 200);
}

#[test]
fn get_char_reads_input() {
    let mut rt = Runtime::new();
    rt.feed_input("x");
    assert_eq!(rt.run(Io::get_char()).unwrap(), 'x');
}

#[test]
fn get_char_blocks_without_input() {
    let mut rt = Runtime::new();
    match rt.run(Io::get_char()) {
        Err(RunError::Deadlock { stuck }) => {
            assert!(stuck[0].1.contains("getChar"));
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn step_limit_is_enforced() {
    let cfg = RuntimeConfig::new().max_steps(50);
    let mut rt = Runtime::with_config(cfg);
    let r = rt.run(Io::compute(1000));
    assert_eq!(r, Err(RunError::StepLimitExceeded { limit: 50 }));
}

#[test]
fn stack_limit_raises_stack_overflow() {
    use crate::exception::ExceptionKind;
    let cfg = RuntimeConfig::new().stack_limit(16);
    let mut rt = Runtime::with_config(cfg);
    fn deep(n: i64) -> Io<i64> {
        if n == 0 {
            Io::pure(0)
        } else {
            deep(n - 1).and_then(move |x| Io::pure(x + 1))
        }
    }
    // Each recursion level needs a Bind frame before any returns, so 100
    // levels overflow a 16-frame stack.
    let prog = deep(100).catch(|e| {
        assert_eq!(e.kind(), &ExceptionKind::StackOverflow);
        Io::pure(-1)
    });
    assert_eq!(rt.run(prog).unwrap(), -1);
}

#[test]
fn throw_to_kills_runnable_thread() {
    let mut rt = Runtime::new();
    // Child loops forever; parent kills it, then finishes.
    let prog = Io::new_empty_mvar::<i64>().and_then(|_m| {
        Io::fork(Io::compute(u64::MAX))
            .and_then(|child| Io::throw_to(child, Exception::kill_thread()).then(Io::pure(1_i64)))
    });
    assert_eq!(rt.run(prog).unwrap(), 1);
}

#[test]
fn throw_to_dead_thread_trivially_succeeds() {
    let mut rt = Runtime::new();
    let prog = Io::fork(Io::unit()).and_then(|child| {
        // Give the child time to finish, then throw.
        Io::sleep(10)
            .then(Io::throw_to(child, Exception::kill_thread()))
            .then(Io::pure(7_i64))
    });
    assert_eq!(rt.run(prog).unwrap(), 7);
}

#[test]
fn throw_to_interrupts_stuck_takemvar() {
    let mut rt = Runtime::new();
    // Child blocks on an empty MVar; parent interrupts it; child's
    // handler reports via another MVar.
    let prog = Io::new_empty_mvar::<i64>().and_then(|hole| {
        Io::new_empty_mvar::<String>().and_then(move |report| {
            let child_body = hole
                .take()
                .map(|_| "no exception".to_owned())
                .catch(|e| Io::pure(format!("caught {e}")))
                .and_then(move |s| report.put(s));
            Io::fork(child_body).and_then(move |child| {
                Io::sleep(10)
                    .then(Io::throw_to(child, Exception::kill_thread()))
                    .then(report.take())
            })
        })
    });
    assert_eq!(rt.run(prog).unwrap(), "caught KillThread");
    assert!(rt.stats().interrupted_blocked >= 1);
}

#[test]
fn block_defers_async_exception() {
    let mut rt = Runtime::new();
    // Child computes inside block; the exception must wait until the
    // child unblocks. The fork happens inside a block so the child
    // inherits the blocked state and there is no pre-block window.
    let prog = Io::new_empty_mvar::<i64>().and_then(|m| {
        let body = Io::compute(50)
            .then(m.put(1)) // protected: must complete
            .then(Io::<()>::unblock(Io::compute(1000))); // killable
        Io::<ThreadId>::block(Io::fork(body))
            .and_then(move |child| Io::throw_to(child, Exception::kill_thread()).then(m.take()))
    });
    // The put under the inherited mask always happens even though the
    // kill was thrown before it ran.
    assert_eq!(rt.run(prog).unwrap(), 1);
}

#[test]
fn unblock_inside_block_restores_on_exit() {
    let mut rt = Runtime::new();
    let prog = Io::<bool>::block(Io::<bool>::unblock(Io::masking_state()).and_then(
        |inside_unblock| {
            Io::masking_state().map(move |after| {
                assert!(!inside_unblock, "inside unblock must be unmasked");
                after
            })
        },
    ));
    // After leaving unblock we are blocked again.
    assert!(rt.run(prog).unwrap());
}

#[test]
fn mask_restored_after_block_exits() {
    let mut rt = Runtime::new();
    let prog = Io::<bool>::block(Io::masking_state())
        .and_then(|inside| Io::masking_state().map(move |outside| (inside, outside)));
    let (inside, outside) = rt.run(prog).unwrap();
    assert!(inside);
    assert!(!outside);
}

#[test]
fn self_throw_to_is_deferred_while_masked() {
    let mut rt = Runtime::new();
    let prog = Io::<i64>::block(Io::my_thread_id().and_then(|me| {
        Io::throw_to(me, Exception::kill_thread())
            // Still alive here because we are masked.
            .then(Io::compute_returning(10, 42_i64))
    }))
    .catch(|e| {
        assert!(e.is_kill_thread());
        Io::pure(-1)
    });
    // On leaving block, the pending exception fires before the result
    // can be returned, so the handler runs.
    assert_eq!(rt.run(prog).unwrap(), -1);
}

#[test]
fn sync_throw_to_self_raises_immediately() {
    let mut rt = Runtime::new();
    let prog = Io::my_thread_id()
        .and_then(|me| Io::throw_to_sync(me, Exception::custom("self")).then(Io::pure(0_i64)))
        .catch(|e| {
            assert_eq!(e, Exception::custom("self"));
            Io::pure(1)
        });
    assert_eq!(rt.run(prog).unwrap(), 1);
}

#[test]
fn sync_throw_to_waits_for_delivery() {
    let mut rt = Runtime::new();
    // Child is forked masked (no pre-handler window), installs a catch,
    // and unmasks; parent sync-throws. The parent can only proceed after
    // the child actually receives the exception.
    let prog = Io::new_empty_mvar::<i64>().and_then(|m| {
        let child_body = Io::<()>::unblock(Io::compute(100_000)).catch(move |_| m.put(99));
        Io::<ThreadId>::block(Io::fork(child_body)).and_then(move |child| {
            Io::throw_to_sync(child, Exception::kill_thread()).then(m.take())
        })
    });
    assert_eq!(rt.run(prog).unwrap(), 99);
    assert!(rt.stats().async_deliveries >= 1);
}

#[test]
fn interruptible_take_in_block_receives_exception() {
    let mut rt = Runtime::new();
    // §5.3: takeMVar inside block is interruptible while the MVar is
    // empty.
    let prog = Io::new_empty_mvar::<i64>().and_then(|hole| {
        Io::new_empty_mvar::<i64>().and_then(move |report| {
            let child = Io::<()>::block(
                hole.take()
                    .map(|_| ())
                    .catch(move |_| report.put(1).map(|_| ())),
            );
            Io::fork(child).and_then(move |c| {
                Io::sleep(5)
                    .then(Io::throw_to(c, Exception::kill_thread()))
                    .then(report.take())
            })
        })
    });
    assert_eq!(rt.run(prog).unwrap(), 1);
}

#[test]
fn noninterruptible_take_when_mvar_full() {
    let mut rt = Runtime::new();
    // §5.3: with the resource available, take inside block completes
    // even with a pending exception; the exception arrives only at the
    // next delivery point.
    let prog = Io::new_mvar(5_i64).and_then(|m| {
        Io::<i64>::block(Io::my_thread_id().and_then(move |me| {
            Io::throw_to(me, Exception::kill_thread()).then(m.take()) // must succeed despite pending kill
        }))
        .catch(|_| Io::pure(-1))
    });
    // take succeeded inside block; kill delivered on unmasking at exit,
    // caught by the handler. The handler observes... the take result is
    // lost because the exception fires before block returns it.
    assert_eq!(rt.run(prog).unwrap(), -1);
    assert!(rt.stats().mvar_ops >= 1);
}

#[test]
fn polling_mode_defers_to_safe_point() {
    let cfg = RuntimeConfig::new().delivery_mode(DeliveryMode::Polling);
    let mut rt = Runtime::with_config(cfg);
    let prog = Io::new_empty_mvar::<i64>().and_then(|m| {
        let child = Io::compute(100)
            .then(m.put(1)) // completes despite pending exception
            .then(Io::poll_safe_point()) // exception fires here
            .then(m.take().map(|_| ()))
            .catch(move |_| Io::unit());
        Io::fork(child).and_then(move |c| Io::throw_to(c, Exception::kill_thread()).then(m.take()))
    });
    // If polling mode delivered mid-compute, the put would never happen
    // and this would deadlock.
    assert_eq!(rt.run(prog).unwrap(), 1);
}

#[test]
fn fifo_delivery_of_multiple_pending() {
    use std::cell::RefCell;
    use std::rc::Rc;
    let mut rt = Runtime::new();
    let log = Rc::new(RefCell::new(Vec::<String>::new()));
    let l1 = Rc::clone(&log);
    let l2 = Rc::clone(&log);
    // Queue two exceptions while masked, then open two unmask windows;
    // each window receives exactly one exception, in FIFO order, and
    // each handler runs masked (saved catch state), so the second
    // exception waits for the second window.
    let prog = Io::<()>::block(Io::my_thread_id().and_then(move |me| {
        Io::throw_to(me, Exception::custom("first"))
            .then(Io::throw_to(me, Exception::custom("second")))
            .then(Io::<()>::unblock(Io::unit()))
            .catch(move |e| Io::effect(move || l1.borrow_mut().push(e.to_string())))
            .then(Io::<()>::unblock(Io::unit()))
            .catch(move |e| Io::effect(move || l2.borrow_mut().push(e.to_string())))
    }));
    rt.run(prog).unwrap();
    assert_eq!(*log.borrow(), ["first".to_owned(), "second".to_owned()]);
}

#[test]
fn random_scheduling_is_deterministic_per_seed() {
    let run_with = |seed: u64| {
        let cfg = RuntimeConfig::new().random_scheduling(seed);
        let mut rt = Runtime::with_config(cfg);
        let prog = Io::new_mvar(0_i64).and_then(|m| {
            let bump = move || m.take().and_then(move |n| m.put(n + 1));
            Io::fork(bump().then(bump()))
                .then(Io::fork(bump()))
                .then(Io::sleep(1000))
                .then(m.take())
        });
        (rt.run(prog).unwrap(), rt.stats().context_switches)
    };
    assert_eq!(run_with(7), run_with(7));
}

#[test]
fn stats_count_forks_and_switches() {
    let mut rt = Runtime::new();
    let prog = Io::fork(Io::unit())
        .then(Io::fork(Io::unit()))
        .then(Io::sleep(1));
    rt.run(prog).unwrap();
    assert_eq!(rt.stats().forks, 2);
    assert!(rt.stats().context_switches >= 1);
    assert_eq!(rt.stats().finished_threads, 3);
}

#[test]
fn output_and_trace_are_recorded() {
    let mut rt = Runtime::new();
    rt.feed_input("a");
    let prog = Io::get_char().and_then(|c| Io::put_char(c).then(Io::put_char('!')));
    rt.run(prog).unwrap();
    assert_eq!(rt.output(), "a!");
    assert_eq!(
        rt.io_trace(),
        &[IoEvent::Get('a'), IoEvent::Put('a'), IoEvent::Put('!')]
    );
}

#[test]
fn yield_rotates_scheduler() {
    let mut rt = Runtime::new();
    // Two threads alternate via yield; both finish.
    let prog = Io::new_mvar(0_i64).and_then(|m| {
        Io::fork(Io::yield_now().then(m.take().and_then(move |n| m.put(n + 1))))
            .then(Io::yield_now())
            .then(Io::sleep(10))
            .then(m.take())
    });
    assert_eq!(rt.run(prog).unwrap(), 1);
}

#[test]
fn sync_throw_to_stuck_target_does_not_deadlock() {
    // Regression: a sync throwTo at a *stuck* target used to suspend
    // the thrower forever — the target's (Interrupt) wake-up fired
    // while the thrower was mid-step and not yet suspended, so the
    // notification was lost. Delivery to a stuck target is immediate,
    // so the thrower must not wait at all.
    let mut rt = Runtime::new();
    let prog = Io::new_empty_mvar::<i64>().and_then(|hole| {
        Io::new_empty_mvar::<i64>().and_then(move |report| {
            let victim = hole
                .take()
                .map(|_| ())
                .catch(move |_| report.put(1).map(|_| ()));
            Io::fork(victim).and_then(move |v| {
                Io::sleep(5) // let the victim block on the take
                    .then(Io::throw_to_sync(v, Exception::kill_thread()))
                    .then(report.take())
            })
        })
    });
    assert_eq!(rt.run(prog).unwrap(), 1);
}

/// Picks the lowest or highest `ThreadId` among the runnable set.
struct Prefer {
    highest: bool,
}

impl crate::decide::Decider for Prefer {
    fn choose_thread(
        &mut self,
        runnable: &[crate::decide::ThreadView],
        _previous: Option<ThreadId>,
    ) -> crate::decide::Pick {
        let mut best = 0;
        for (i, v) in runnable.iter().enumerate() {
            let better = if self.highest {
                v.tid > runnable[best].tid
            } else {
                v.tid < runnable[best].tid
            };
            if better {
                best = i;
            }
        }
        crate::decide::Pick::visible(best)
    }

    fn deliver_now(&mut self, _view: crate::decide::ThreadView) -> bool {
        true
    }
}

#[test]
fn external_decider_controls_interleaving() {
    let run_with = |highest: bool| {
        let mut rt = Runtime::with_config(RuntimeConfig::new());
        rt.set_decider(Box::new(Prefer { highest }));
        let prog = Io::fork(Io::put_char('b'))
            .then(Io::put_char('a'))
            .then(Io::sleep(1));
        rt.run(prog).unwrap();
        rt.output().to_owned()
    };
    // Preferring the main thread runs it to its sleep before the
    // child's put; preferring the child flips the order.
    assert_eq!(run_with(false), "ab");
    assert_eq!(run_with(true), "ba");
}

#[test]
fn external_decider_controls_delivery_point() {
    struct Defer;
    impl crate::decide::Decider for Defer {
        fn choose_thread(
            &mut self,
            _runnable: &[crate::decide::ThreadView],
            _previous: Option<ThreadId>,
        ) -> crate::decide::Pick {
            crate::decide::Pick::visible(0)
        }
        fn deliver_now(&mut self, _view: crate::decide::ThreadView) -> bool {
            false
        }
    }
    // An unmasked self-throw is normally delivered at the very next
    // step; a decider that keeps deferring lets the program run to
    // completion with the exception still pending.
    let prog = || {
        Io::my_thread_id().and_then(|me| {
            Io::throw_to(me, Exception::custom("later")).then(Io::compute_returning(3, 7_i64))
        })
    };
    let mut plain = Runtime::new();
    assert!(plain.run(prog()).is_err());

    let mut driven = Runtime::with_config(RuntimeConfig::new());
    driven.set_decider(Box::new(Defer));
    assert_eq!(driven.run(prog()).unwrap(), 7);
}

/// Picks the second runnable thread whenever three or more are
/// runnable, else the first: each such pick unlinks a run-queue entry
/// from the middle.
struct SecondOfThree;

impl crate::decide::Decider for SecondOfThree {
    fn choose_thread(
        &mut self,
        runnable: &[crate::decide::ThreadView],
        _previous: Option<ThreadId>,
    ) -> Pick {
        Pick::visible(usize::from(runnable.len() >= 3))
    }

    fn deliver_now(&mut self, _view: crate::decide::ThreadView) -> bool {
        true
    }
}

#[test]
fn a_middle_pick_leaves_the_rest_of_the_queue_in_order() {
    fn say(c: char, times: usize) -> Io<()> {
        (0..times).fold(Io::unit(), |io, _| io.then(Io::put_char(c)))
    }
    let mut rt = Runtime::with_config(RuntimeConfig::new());
    rt.set_decider(Box::new(SecondOfThree));
    let prog = Io::fork(say('a', 4))
        .then(Io::fork(say('b', 4)))
        .then(Io::fork(say('c', 4)))
        .then(say('m', 4))
        .then(Io::sleep(1));
    rt.run(prog).unwrap();
    // Read off the tombstoned run queue this `VecDeque` replaced: a
    // middle removal leaves the others in FIFO order, as it did there.
    assert_eq!(rt.output(), "bbcmbcmbcmcmaaaa");
}

/// What a [`Probe`] was shown of the thread it picked: id, footprint,
/// pending exceptions, masked.
type Asked = (ThreadId, StepFootprint, usize, bool);

/// A decider that picks as the explorer's does — the lowest-numbered
/// thread whose step is local with nothing pending, else the lowest —
/// calls a pick invisible when `announce` says so, and logs every
/// question it is asked.
struct Probe {
    announce: fn(&ThreadView) -> bool,
    deliver: bool,
    asked: std::rc::Rc<std::cell::RefCell<Vec<Asked>>>,
}

fn quiet(v: &ThreadView) -> bool {
    v.pending == 0 && v.footprint.is_local()
}

impl Decider for Probe {
    fn choose_thread(&mut self, runnable: &[ThreadView], _: Option<ThreadId>) -> Pick {
        let lowest = |keep: fn(&ThreadView) -> bool| {
            let kept = runnable.iter().enumerate().filter(|(_, v)| keep(v));
            kept.min_by_key(|(_, v)| v.tid).map(|(i, _)| i)
        };
        let index = lowest(quiet).or(lowest(|_| true)).expect("non-empty");
        let v = runnable[index];
        self.asked
            .borrow_mut()
            .push((v.tid, v.footprint, v.pending, v.masked));
        Pick {
            index,
            invisible: (self.announce)(&v),
        }
    }

    fn deliver_now(&mut self, _view: ThreadView) -> bool {
        self.deliver
    }
}

/// Runs `prog` under a [`Probe`]; returns the runtime and the questions
/// the probe was asked.
fn probed<T: FromValue>(
    config: RuntimeConfig,
    announce: fn(&ThreadView) -> bool,
    deliver: bool,
    prog: Io<T>,
) -> (Runtime, Result<T, RunError>, Vec<Asked>) {
    let asked = std::rc::Rc::default();
    let mut rt = Runtime::with_config(config);
    rt.set_decider(Box::new(Probe {
        announce,
        deliver,
        asked: std::rc::Rc::clone(&asked),
    }));
    let result = rt.run(prog);
    let asked = asked.borrow().clone();
    (rt, result, asked)
}

#[test]
fn an_invisible_run_is_one_question_and_the_same_run() {
    let prog = || {
        Io::fork(Io::compute(20).then(Io::put_char('b')))
            .then(Io::compute(30))
            .then(Io::put_char('a'))
            .then(Io::sleep(1))
    };
    let config = || RuntimeConfig::new().record_sched_events(true);
    let (asked_rt, asked_result, every_step) = probed(config(), |_| false, true, prog());
    let (rt, result, questions) = probed(config(), quiet, true, prog());
    assert_eq!(every_step.len() as u64, asked_rt.stats().steps);
    assert!(
        questions.len() < every_step.len() / 4,
        "{} questions for {} steps",
        questions.len(),
        every_step.len()
    );
    assert_eq!(result, asked_result);
    assert_eq!(rt.stats(), asked_rt.stats());
    assert_eq!(rt.io_trace(), asked_rt.io_trace());
    assert_eq!(rt.output(), asked_rt.output());
    // Every step that is not inside an invisible run is asked about, in
    // the same order: the questions are the asked-every-step run's with
    // the second and later steps of each run of quiet picks left out.
    let mut runs = every_step.clone();
    runs.dedup_by(|next, first| quiet_pick(next) && quiet_pick(first) && next.0 == first.0);
    assert_eq!(questions, runs);
}

fn quiet_pick(&(_, footprint, pending, _): &Asked) -> bool {
    pending == 0 && footprint.is_local()
}

#[test]
fn a_yield_does_not_end_an_invisible_run() {
    // Binds, countdowns and the yield are all local steps of the only
    // thread: one question starts the run, the next is the terminal.
    let prog = || Io::compute(3).then(Io::yield_now()).then(Io::compute(3));
    let config = RuntimeConfig::new();
    let (rt, result, questions) = probed(config, quiet, true, prog());
    assert_eq!(result, Ok(()));
    let footprints: Vec<_> = questions.iter().map(|q| q.1).collect();
    assert_eq!(footprints, [StepFootprint::Local, StepFootprint::Terminal]);
    assert!(rt.stats().steps > 8);
}

#[test]
fn max_steps_inside_an_invisible_run_stops_on_the_limit() {
    let config = RuntimeConfig::new().max_steps(10);
    let (rt, result, questions) = probed(config, quiet, true, Io::compute(100));
    assert_eq!(result, Err(RunError::StepLimitExceeded { limit: 10 }));
    assert_eq!(rt.stats().steps, 10);
    assert_eq!(questions.len(), 1);
}

#[test]
fn a_thread_with_an_exception_queued_is_asked_about_at_every_step() {
    // The scheduler ends an invisible run on its own evidence, not the
    // decider's word: this probe calls *every* pick invisible, and is
    // still asked before each step of a thread with an exception
    // queued — unmasked with the delivery deferred, and masked.
    let deferred = |me| Io::throw_to(me, Exception::custom("later")).then(Io::compute(6));
    let unmasked = move || Io::my_thread_id().and_then(deferred);
    let masked = move || Io::my_thread_id().and_then(move |me| Io::<()>::block(deferred(me)));
    for (prog, masks) in [(unmasked(), false), (masked(), true)] {
        let config = RuntimeConfig::new();
        let (_, _, every_step) = probed(config.clone(), |_| false, false, prog);
        let prog = if masks { masked() } else { unmasked() };
        let (_, _, questions) = probed(config, |_| true, false, prog);
        let queued =
            |asked: &[Asked]| -> Vec<Asked> { asked.iter().filter(|q| q.2 > 0).copied().collect() };
        let compute_steps = queued(&every_step).iter().filter(|q| q.3 == masks).count();
        assert!(compute_steps >= 6, "{compute_steps}");
        assert_eq!(queued(&questions), queued(&every_step));
        assert!(questions.len() < every_step.len());
    }
}

/// A decider that counts the questions it is asked: it always picks
/// the first runnable thread and always defers delivery.
struct Counting {
    picks: std::rc::Rc<std::cell::Cell<u64>>,
    deliveries: std::rc::Rc<std::cell::Cell<u64>>,
}

impl Decider for Counting {
    fn choose_thread(&mut self, _: &[ThreadView], _: Option<ThreadId>) -> Pick {
        self.picks.set(self.picks.get() + 1);
        Pick::visible(0)
    }

    fn deliver_now(&mut self, _view: ThreadView) -> bool {
        self.deliveries.set(self.deliveries.get() + 1);
        false
    }
}

#[test]
fn an_installed_decider_answers_every_pick_and_delivery_under_a_random_policy() {
    let prog = || {
        Io::fork(
            Io::put_char('b')
                .then(Io::compute(5))
                .then(Io::put_char('c')),
        )
        .then(Io::my_thread_id())
        .and_then(|me| {
            Io::throw_to(me, Exception::custom("never"))
                .then(Io::put_char('a'))
                .then(Io::compute_returning(4, 7_i64))
        })
    };
    // Two runs on one runtime, with a reset between them: each run's
    // result, output, steps, and the picks and deliveries it was asked.
    let runs = |config: RuntimeConfig| {
        let picks = std::rc::Rc::default();
        let deliveries = std::rc::Rc::default();
        let mut rt = Runtime::with_config(config);
        rt.set_decider(Box::new(Counting {
            picks: std::rc::Rc::clone(&picks),
            deliveries: std::rc::Rc::clone(&deliveries),
        }));
        let once = |rt: &mut Runtime| {
            picks.set(0);
            deliveries.set(0);
            let result = rt.run(prog());
            let steps = rt.stats().steps;
            assert_eq!(picks.get(), steps, "one pick per step");
            assert!(
                deliveries.get() > 0,
                "the pending throw was never asked about"
            );
            (result, rt.output().to_owned(), steps, deliveries.get())
        };
        let first = once(&mut rt);
        rt.reset();
        let second = once(&mut rt);
        assert_eq!(first, second, "reset kept the decider");
        first
    };
    let round_robin = runs(RuntimeConfig::new());
    assert_eq!((&round_robin.0, &*round_robin.1), (&Ok(7), "bac"));
    for seed in [1, 2, 3, 42] {
        assert_eq!(
            runs(RuntimeConfig::new().random_scheduling(seed)),
            round_robin,
            "seed {seed}"
        );
    }
}

#[test]
fn sched_events_recorded_when_enabled() {
    let mut rt = Runtime::with_config(RuntimeConfig::new().record_sched_events(true));
    let prog = Io::new_empty_mvar::<i64>().and_then(|m| {
        Io::<ThreadId>::block(Io::fork(m.take().map(|_| ()))).and_then(move |child| {
            Io::sleep(5)
                .then(Io::throw_to(child, Exception::kill_thread()))
                .then(Io::pure(0_i64))
        })
    });
    rt.run(prog).unwrap();
    let trace = rt.io_trace();
    assert!(trace.iter().any(|e| matches!(e, IoEvent::Mask(_))));
    assert!(trace.iter().any(|e| matches!(e, IoEvent::Fork { .. })));
    assert!(trace.iter().any(|e| matches!(
        e,
        IoEvent::BlockedOn {
            site: crate::trace::BlockSite::TakeMVar,
            ..
        }
    )));
    assert!(trace.iter().any(|e| matches!(e, IoEvent::ThrowTo { .. })));
}

#[test]
fn sched_events_absent_by_default() {
    let mut rt = Runtime::new();
    let prog = Io::fork(Io::unit()).then(Io::sleep(1));
    rt.run(prog).unwrap();
    assert!(!rt
        .io_trace()
        .iter()
        .any(|e| matches!(e, IoEvent::Fork { .. } | IoEvent::BlockedOn { .. })));
}

#[test]
fn mask_frames_collapse_stat() {
    // A mask-recursive loop: block(unblock(block(...))).
    fn looped(n: u64) -> Io<()> {
        if n == 0 {
            Io::unit()
        } else {
            Io::<()>::block(Io::<()>::unblock(
                Io::unit().and_then(move |_| looped(n - 1)),
            ))
        }
    }
    let mut rt = Runtime::new();
    rt.run(looped(50)).unwrap();
    let with = rt.stats().max_mask_frames;
    assert!(rt.stats().mask_frames_collapsed > 0);

    let cfg = RuntimeConfig::new().collapse_mask_frames(false);
    let mut rt2 = Runtime::with_config(cfg);
    rt2.run(looped(50)).unwrap();
    let without = rt2.stats().max_mask_frames;
    assert!(
        without > with,
        "collapse should bound mask frames: with={with}, without={without}"
    );
}
