//! Property tests pinning the lock-striped sharded compile cache: a warm
//! compile that hits the cache must return a circuit identical to the cold
//! compile that populated it, and the shard accounting must verify after
//! every round trip.
//!
//! Lives in its own integration binary on purpose: the caches are
//! process-wide, and the hit/miss counter assertions below would be racy
//! if any other test in the same process cleared or populated the cache
//! concurrently.

use lsml_aig::opt::fixpoint_cache_clear;
use lsml_aig::{Aig, Lit};
use lsml_core::compile::{
    compile_cache_clear, compile_cache_detail, compile_cache_verify, SizeBudget,
};
use lsml_core::problem::LearnedCircuit;
use proptest::prelude::*;

const NUM_INPUTS: usize = 6;

/// Folds a generated op list into an AIG over [`NUM_INPUTS`] inputs.
fn build(ops: &[(u8, u16, u16)]) -> Aig {
    let mut g = Aig::new(NUM_INPUTS);
    let mut pool: Vec<Lit> = g.inputs();
    for &(kind, a, b) in ops {
        let x = pool[a as usize % pool.len()];
        let y = pool[b as usize % pool.len()];
        let lit = match kind % 4 {
            0 => g.and(x, y),
            1 => g.and(x, !y),
            2 => g.xor(x, y),
            _ => !g.and(!x, !y),
        };
        pool.push(lit);
    }
    g.add_output(*pool.last().unwrap());
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cold compile, then recompile the same candidate: the second run
    /// must be served by the sharded cache (hit counter advances) and
    /// return the identical circuit, with exact shard accounting.
    #[test]
    fn sharded_cache_hit_matches_cold_compile(
        ops in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 3..40),
        seed in 0u64..32,
    ) {
        let budget = SizeBudget { seed, ..SizeBudget::exact(5000) };
        let raw = build(&ops);

        compile_cache_clear();
        fixpoint_cache_clear();
        let cold = LearnedCircuit::compile(raw.clone(), "cold", &budget);
        let hits_before = compile_cache_detail().hits;

        let warm = LearnedCircuit::compile(raw.clone(), "warm", &budget);
        let hits_after = compile_cache_detail().hits;

        prop_assert!(
            hits_after > hits_before,
            "recompile did not hit the sharded cache ({hits_before} -> {hits_after})"
        );
        prop_assert_eq!(
            warm.aig.structural_fingerprint(),
            cold.aig.structural_fingerprint(),
            "cache hit returned a different circuit than the cold compile"
        );
        prop_assert_eq!(warm.and_gates(), cold.and_gates());
        compile_cache_verify().unwrap();
    }
}
