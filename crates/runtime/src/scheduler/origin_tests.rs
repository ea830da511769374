use crate::prelude::*;
use crate::thread::RaiseOrigin;
use std::cell::RefCell;
use std::rc::Rc;

#[test]
fn throw_reports_sync_origin() {
    let mut rt = Runtime::new();
    let prog = Io::<i64>::throw(Exception::error_call("mine"))
        .catch_info(|_, origin| Io::pure(i64::from(origin == RaiseOrigin::Sync)));
    assert_eq!(rt.run(prog).unwrap(), 1);
}

#[test]
fn delivered_exception_reports_async_origin() {
    let mut rt = Runtime::new();
    let origins = Rc::new(RefCell::new(Vec::<RaiseOrigin>::new()));
    let o2 = Rc::clone(&origins);
    let prog = Io::new_empty_mvar::<i64>().and_then(move |done| {
        let victim = Io::<()>::unblock(Io::compute(100_000))
            .catch_info(move |_, origin| {
                let o3 = Rc::clone(&o2);
                Io::effect(move || o3.borrow_mut().push(origin))
            })
            .then(done.put(1));
        Io::<ThreadId>::block(Io::fork(victim))
            .and_then(move |v| Io::throw_to(v, Exception::kill_thread()).then(done.take()))
    });
    rt.run(prog).unwrap();
    assert_eq!(*origins.borrow(), [RaiseOrigin::Async]);
}

#[test]
fn interrupted_blocked_take_reports_async_origin() {
    let mut rt = Runtime::new();
    let prog = Io::new_empty_mvar::<i64>().and_then(|hole| {
        Io::new_empty_mvar::<i64>().and_then(move |report| {
            let victim = hole
                .take()
                .catch_info(move |_, origin| {
                    report
                        .put(i64::from(origin == RaiseOrigin::Async))
                        .then(Io::pure(0))
                })
                .map(|_| ());
            Io::fork(victim).and_then(move |v| {
                Io::sleep(5)
                    .then(Io::throw_to(v, Exception::kill_thread()))
                    .then(report.take())
            })
        })
    });
    assert_eq!(rt.run(prog).unwrap(), 1);
}

#[test]
fn rethrow_preserves_async_origin_across_handlers() {
    let mut rt = Runtime::new();
    let prog = Io::new_empty_mvar::<i64>().and_then(|report| {
        let inner = Io::<()>::unblock(Io::compute(100_000));
        let victim = inner
            // Inner handler passes it along with origin intact.
            .catch_info(Io::rethrow)
            // Outer handler still sees Async.
            .catch_info(move |_, origin| {
                report
                    .put(i64::from(origin == RaiseOrigin::Async))
                    .map(|_| ())
            });
        Io::<ThreadId>::block(Io::fork(victim))
            .and_then(move |v| Io::throw_to(v, Exception::kill_thread()).then(report.take()))
    });
    assert_eq!(rt.run(prog).unwrap(), 1);
}

#[test]
fn plain_rethrow_launders_to_sync() {
    // Documented behaviour: re-raising with Io::throw makes it look
    // synchronous to outer handlers (use Io::rethrow to preserve).
    let mut rt = Runtime::new();
    let prog = Io::new_empty_mvar::<i64>().and_then(|report| {
        let victim = Io::<()>::unblock(Io::compute(100_000))
            .catch(Io::throw)
            .catch_info(move |_, origin| {
                report
                    .put(i64::from(origin == RaiseOrigin::Sync))
                    .map(|_| ())
            });
        Io::<ThreadId>::block(Io::fork(victim))
            .and_then(move |v| Io::throw_to(v, Exception::kill_thread()).then(report.take()))
    });
    assert_eq!(rt.run(prog).unwrap(), 1);
}

#[test]
fn self_sync_throwto_is_async_origin() {
    let mut rt = Runtime::new();
    let prog = Io::my_thread_id()
        .and_then(|me| Io::throw_to_sync(me, Exception::custom("self")).then(Io::pure(0_i64)))
        .catch_info(|_, origin| Io::pure(i64::from(origin == RaiseOrigin::Async)));
    assert_eq!(rt.run(prog).unwrap(), 1);
}
