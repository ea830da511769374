//! The injector: where fault decisions come from.
//!
//! An [`Injector`] answers one question — "which arm of this fault
//! menu fires here?" — in one of two ways. [`Injector::Explore`] asks
//! the schedule explorer via [`Io::choose`], making the site a branch
//! point the DPOR engine enumerates alongside scheduling decisions.
//! [`Injector::Scripted`] drains a pre-written [`FaultPlan`], for plain
//! `Runtime` runs that want one reproducible fault sequence.
//!
//! A scripted plan lives in an `Rc<RefCell<…>>` drained through
//! [`Io::effect`]. `Effect` steps are conservatively dependent on
//! everything in the explorer's footprint relation, so scripted
//! injection is for plain runs — under exploration, use
//! [`Injector::Explore`], whose oracle steps are precisely what the
//! race analysis knows how to commute.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use conch_runtime::io::Io;

use crate::fault::{ConnFault, HandlerFault};

/// A fixed script of fault arms, drained one per injection site.
///
/// Sites draw arms in program order; when the script runs out every
/// further site gets arm `0` (no fault), so a plan is always safe to
/// under-specify.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    script: Rc<RefCell<VecDeque<u8>>>,
}

impl FaultPlan {
    /// A plan that injects the given arms, in order.
    pub fn of(arms: impl IntoIterator<Item = u8>) -> FaultPlan {
        FaultPlan {
            script: Rc::new(RefCell::new(arms.into_iter().collect())),
        }
    }

    /// The empty plan: every site resolves to arm `0` (no fault).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Draws the next arm for a site with `arms` alternatives.
    fn next_arm(&self, arms: u8) -> Io<i64> {
        let script = Rc::clone(&self.script);
        Io::effect(move || {
            let arm = script.borrow_mut().pop_front().unwrap_or(0);
            // Out-of-range entries clamp to "no fault" rather than
            // panicking: a plan written for one menu must not crash a
            // site with fewer arms.
            i64::from(if arm < arms { arm } else { 0 })
        })
    }
}

/// Where fault decisions come from. See the module docs.
#[derive(Debug, Clone)]
pub enum Injector {
    /// Every site is an [`Io::choose`] branch point for the explorer.
    Explore,
    /// Sites drain a fixed [`FaultPlan`] (plain runs only).
    Scripted(FaultPlan),
}

impl Injector {
    /// A scripted injector over the given arms.
    pub fn scripted(arms: impl IntoIterator<Item = u8>) -> Injector {
        Injector::Scripted(FaultPlan::of(arms))
    }

    /// A scripted injector that never injects anything.
    pub fn quiet() -> Injector {
        Injector::Scripted(FaultPlan::none())
    }

    /// The raw arm decision for a site with `arms` alternatives.
    pub(crate) fn arm(&self, arms: u8) -> Io<i64> {
        match self {
            Injector::Explore => Io::choose(arms),
            Injector::Scripted(plan) => plan.next_arm(arms),
        }
    }

    /// Decides the connection fault for one incoming connection.
    pub(crate) fn conn_fault(&self) -> Io<ConnFault> {
        self.arm(ConnFault::ARMS).map(ConnFault::from_arm)
    }

    /// Decides the handler fault for one request.
    pub(crate) fn handler_fault(&self) -> Io<HandlerFault> {
        self.arm(HandlerFault::ARMS).map(HandlerFault::from_arm)
    }

    /// Decides whether a storm strike hits (`true`) or spares its
    /// target.
    pub(crate) fn strike(&self) -> Io<bool> {
        self.arm(2).map(|a| a == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conch_runtime::prelude::*;

    #[test]
    fn scripted_plan_drains_in_order_then_defaults_to_zero() {
        let mut rt = Runtime::new();
        let inj = Injector::scripted([3, 1, 1]);
        let prog = inj
            .conn_fault()
            .and_then({
                let inj = inj.clone();
                move |a| inj.handler_fault().map(move |b| (a, b))
            })
            .and_then({
                let inj = inj.clone();
                move |(a, b)| inj.strike().map(move |c| (a, b, c))
            })
            .and_then({
                let inj = inj.clone();
                move |(a, b, c)| inj.conn_fault().map(move |d| (a, b, c, d))
            });
        let (a, b, c, d) = rt.run(prog).unwrap();
        assert_eq!(a, ConnFault::MidRequestClose);
        assert_eq!(b, HandlerFault::Crash);
        assert!(c);
        assert_eq!(d, ConnFault::None, "exhausted plan must mean no fault");
    }

    #[test]
    fn out_of_range_script_entries_clamp_to_no_fault() {
        let mut rt = Runtime::new();
        let inj = Injector::scripted([250]);
        assert_eq!(rt.run(inj.conn_fault()).unwrap(), ConnFault::None);
    }

    #[test]
    fn explore_injector_without_decider_takes_arm_zero() {
        // Outside exploration there is no decider, so every choose
        // resolves to arm 0: explore-mode programs are healthy by
        // default.
        let mut rt = Runtime::new();
        let inj = Injector::Explore;
        assert_eq!(rt.run(inj.conn_fault()).unwrap(), ConnFault::None);
        assert_eq!(rt.run(inj.handler_fault()).unwrap(), HandlerFault::None);
        assert!(!rt.run(inj.strike()).unwrap());
    }
}
