//! The daemon's side of deterministic fault injection.
//!
//! A [`FaultInjector`] applies the request faults of the shared
//! [`FaultPlan`] (`LSML_FAULT_SEED`, see [`lsml_durable::fault`]): workers
//! panic on a schedule and stalls push requests past their deadlines. The
//! integration tests and the `serve` bench run the daemon *with faults on*
//! and assert it keeps serving.
//!
//! The five injected failure classes (mirroring `tests/daemon_faults.rs`):
//!
//! 1. **Panics** inside request execution (every `panic_period`-th request).
//! 2. **Stalls** (`slow_ms` sleeps) that push requests past their deadline.
//! 3. **Malformed frames** — driven by the fuzzer/client, not the plan.
//! 4. **Snapshot corruption** — a bit flip in the written snapshot.
//! 5. **Mid-write kill** — a snapshot write abandoned half-way.
//!
//! Classes 4 and 5 are applied by [`lsml_durable::write_atomic`].

use lsml_durable::fault::FaultPlan;

/// What the injector decided for one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Execute normally.
    None,
    /// Panic inside the (caught) execution boundary.
    Panic,
    /// Sleep this many milliseconds before executing.
    Slow(u64),
}

/// Per-server injector: counts executed requests and applies the plan's
/// periods. The counter is a facade atomic so the whole crate stays
/// model-checkable.
pub struct FaultInjector {
    plan: FaultPlan,
    counter: loom::sync::atomic::AtomicU64,
}

impl FaultInjector {
    /// An injector following `plan`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            counter: loom::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The plan this injector follows.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decides the fault for the next request. Panics win over stalls when
    /// both periods hit (a panicking request has no use for a stall).
    pub fn on_request(&self) -> FaultAction {
        if !self.plan.armed() {
            return FaultAction::None;
        }
        let n = self
            .counter
            .fetch_add(1, loom::sync::atomic::Ordering::Relaxed)
            + 1;
        if self.plan.panic_period != 0 && n.is_multiple_of(self.plan.panic_period) {
            return FaultAction::Panic;
        }
        if self.plan.slow_period != 0 && n.is_multiple_of(self.plan.slow_period) {
            return FaultAction::Slow(self.plan.slow_ms);
        }
        FaultAction::None
    }
}

#[cfg(all(test, not(lsml_loom)))]
mod tests {
    use super::*;

    #[test]
    fn injector_follows_the_periods() {
        let plan = FaultPlan {
            seed: 1,
            panic_period: 3,
            slow_period: 4,
            slow_ms: 10,
            ..FaultPlan::none()
        };
        let inj = FaultInjector::new(plan);
        let acts: Vec<FaultAction> = (0..12).map(|_| inj.on_request()).collect();
        // Request 3, 6, 9, 12 panic; 4, 8 stall (12 is claimed by the panic).
        assert_eq!(acts[2], FaultAction::Panic);
        assert_eq!(acts[3], FaultAction::Slow(10));
        assert_eq!(acts[5], FaultAction::Panic);
        assert_eq!(acts[7], FaultAction::Slow(10));
        assert_eq!(acts[11], FaultAction::Panic);
        assert_eq!(acts[0], FaultAction::None);
        let none = FaultInjector::new(FaultPlan::none());
        assert!((0..8).all(|_| none.on_request() == FaultAction::None));
    }
}
