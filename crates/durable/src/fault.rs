//! The deterministic fault plan shared by the daemon and the sweep.
//!
//! Robustness claims that are never exercised rot. The daemon and the
//! sweep therefore carry their chaos monkey with them: a [`FaultPlan`],
//! derived deterministically from `LSML_FAULT_SEED`, that makes daemon
//! requests panic or stall, corrupts or abandons [`crate::write_atomic`]
//! writes, and makes sweep circuits panic, stall or kill the sweep. The
//! integration tests and the `serve` and `suite` benches run with faults on
//! and assert the service keeps going — the same seed always injects the
//! same faults, so a CI failure replays locally.
//!
//! The daemon's request faults are applied by `lsml-serve`'s
//! `FaultInjector`; the per-circuit faults by the `lsml-suite` engine.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The injection schedule. `Default`/[`FaultPlan::none`] injects nothing.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Seed the plan was derived from (0 for [`FaultPlan::none`]).
    pub seed: u64,
    /// Every Nth executed request panics (0 = never).
    pub panic_period: u64,
    /// Every Nth executed request stalls for `slow_ms` first (0 = never).
    pub slow_period: u64,
    /// Stall length in milliseconds.
    pub slow_ms: u64,
    /// Corrupt one bit of every snapshot write.
    pub snapshot_corrupt: bool,
    /// Abandon every snapshot write half-way (no rename).
    pub snapshot_kill_mid_write: bool,
    /// Every Nth sweep circuit panics inside its isolation boundary
    /// (0 = never). Consumed by `lsml-suite`, not the daemon.
    pub circuit_panic_period: u64,
    /// Every Nth sweep circuit stalls until its deadline fires (0 = never).
    pub circuit_stall_period: u64,
    /// Hard-kill the sweep *before* processing this 0-based circuit index
    /// (0 = never) — the crash the resumable checkpoints exist for.
    pub circuit_kill_after: u64,
}

impl FaultPlan {
    /// No faults — the production plan.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Derives a plan from a seed. Panics and stalls are always on (that is
    /// the point of a fault seed); periods and the snapshot faults vary with
    /// the seed so different seeds explore different schedules.
    pub fn from_seed(seed: u64) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x000F_A017_5EED);
        // New draws append after the existing ones so a given seed keeps
        // injecting the same daemon schedule it always has.
        FaultPlan {
            seed,
            panic_period: rng.gen_range(3u64..9),
            slow_period: rng.gen_range(4u64..11),
            slow_ms: rng.gen_range(20u64..60),
            snapshot_corrupt: rng.gen::<u64>() % 2 == 0,
            snapshot_kill_mid_write: rng.gen::<u64>() % 2 == 0,
            circuit_panic_period: rng.gen_range(11u64..31),
            circuit_stall_period: rng.gen_range(17u64..47),
            circuit_kill_after: rng.gen_range(40u64..400),
        }
    }

    /// Reads `LSML_FAULT_SEED`; unset, empty or `0` means no faults.
    pub fn from_env() -> FaultPlan {
        match std::env::var("LSML_FAULT_SEED")
            .ok()
            .and_then(|s| s.trim().parse::<u64>().ok())
        {
            Some(seed) if seed != 0 => FaultPlan::from_seed(seed),
            _ => FaultPlan::none(),
        }
    }

    /// Whether any request-path fault is armed.
    pub fn armed(&self) -> bool {
        self.panic_period != 0 || self.slow_period != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_in_the_seed() {
        let a = FaultPlan::from_seed(17);
        let b = FaultPlan::from_seed(17);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(a.armed());
        // A fault seed always arms the per-circuit sweep faults too.
        assert!(a.circuit_panic_period != 0);
        assert!(a.circuit_stall_period != 0);
        assert!(a.circuit_kill_after != 0);
        let c = FaultPlan::from_seed(18);
        // Different seeds give different schedules (period ranges overlap,
        // so compare the whole plan).
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
        assert!(!FaultPlan::none().armed());
    }
}
