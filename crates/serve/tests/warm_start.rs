//! Warm-start hit-identity: a snapshot captured from live caches, pushed
//! through the full encode → decode → install cycle, must serve the same
//! compiles the live caches served — every recompile is a cache *hit*
//! returning the bit-identical circuit.
//!
//! Lives in its own integration binary on purpose: the caches are
//! process-wide and the hit/miss assertions would race with any other test
//! clearing or populating them in the same process (same convention as
//! `lsml-core`'s `cache_props.rs`).

use lsml_aig::opt::{fixpoint_cache_clear, fixpoint_cache_export};
use lsml_aig::{Aig, Lit};
use lsml_core::compile::{
    compile_cache_clear, compile_cache_detail, compile_cache_export, SizeBudget,
};
use lsml_core::problem::LearnedCircuit;
use lsml_serve::snapshot::Snapshot;
use proptest::prelude::*;

const NUM_INPUTS: usize = 6;

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
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Compile a generated batch cold, snapshot, wipe, reinstall from the
    /// decoded snapshot bytes, recompile: every compile must hit, every
    /// result must match, and the reinstalled caches must export the same
    /// contents the live ones did.
    #[test]
    fn snapshot_reload_is_hit_identical(
        batches in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 3..24),
            1..4,
        ),
        seed in 0u64..16,
    ) {
        let budget = SizeBudget { seed, ..SizeBudget::exact(5000) };
        let graphs: Vec<Aig> = batches.iter().map(|ops| build(ops)).collect();

        // Cold-populate the live caches.
        compile_cache_clear();
        fixpoint_cache_clear();
        let cold: Vec<LearnedCircuit> = graphs
            .iter()
            .map(|g| LearnedCircuit::compile(g.clone(), "cold", &budget))
            .collect();

        // Capture what "live" looks like, then go through the full
        // serialize → bytes → deserialize → install cycle.
        let live_fix = fixpoint_cache_export();
        let live_compile: Vec<(u128, u64)> = compile_cache_export()
            .iter()
            .map(|e| (e.graph_fingerprint, e.budget_fingerprint))
            .collect();
        let snap = Snapshot::capture();
        let bytes = snap.encode();
        let reloaded = Snapshot::decode(&bytes).expect("own encoding decodes");

        compile_cache_clear();
        fixpoint_cache_clear();
        reloaded.install();

        // The reinstalled caches hold exactly what the live ones held.
        prop_assert_eq!(fixpoint_cache_export(), live_fix);
        let warm_compile: Vec<(u128, u64)> = compile_cache_export()
            .iter()
            .map(|e| (e.graph_fingerprint, e.budget_fingerprint))
            .collect();
        prop_assert_eq!(warm_compile, live_compile);

        // And they *serve*: every recompile is a pure hit with the
        // identical result.
        for (g, cold) in graphs.iter().zip(&cold) {
            let before = compile_cache_detail();
            let warm = LearnedCircuit::compile(g.clone(), "warm", &budget);
            let after = compile_cache_detail();
            prop_assert!(
                after.hits > before.hits,
                "warm-start compile missed the reinstalled cache"
            );
            prop_assert_eq!(
                after.misses, before.misses,
                "warm-start compile should not miss"
            );
            prop_assert_eq!(
                warm.aig.structural_fingerprint(),
                cold.aig.structural_fingerprint(),
                "snapshot-served circuit differs from the live-cache one"
            );
            prop_assert_eq!(warm.and_gates(), cold.and_gates());
        }
    }
}
