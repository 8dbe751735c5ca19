//! Concurrency stress test for the process-wide compile and fixpoint
//! caches: many std threads hammer insert/lookup/evict simultaneously and
//! the byte accounting must never drift from the sum of resident entries.
//!
//! This is the coarse-grained companion to the exhaustive loom models of
//! the shared `lsml_aig::lru::ShardedLru` primitive in `lsml-aig`'s
//! `tests/loom_lru.rs` (built under `--cfg lsml_loom`): loom proves the
//! invariant over every interleaving of tiny schedules, this test shakes
//! the real global caches with real contention.

use lsml_aig::opt::{fixpoint_cache_verify, Pipeline};
use lsml_aig::Aig;
use lsml_core::compile::{compile_cache_detail, compile_cache_verify, SizeBudget};
use lsml_core::problem::LearnedCircuit;
use std::sync::{Arc, Barrier};

/// A small graph whose structure (and therefore cache key) is derived from
/// `tag`: different tags give different fingerprints, equal tags collide on
/// the same cache entry across threads.
fn tagged_aig(tag: u64) -> Aig {
    let mut g = Aig::new(4);
    let ins = g.inputs();
    let mut cur = ins[(tag % 4) as usize];
    for i in 0..(2 + tag % 5) {
        let rhs = ins[((tag >> 2) + i) as usize % 4];
        cur = if (tag >> i) & 1 == 1 {
            g.xor(cur, rhs)
        } else {
            g.and(cur, !rhs)
        };
    }
    g.add_output(cur);
    g
}

#[test]
fn global_caches_keep_byte_accounting_under_contention() {
    // Shrink both budgets so eviction actually happens under the hammer.
    // Safe to set here: this integration-test binary has no other test that
    // could have initialized the caches first, and the budget `OnceLock`s
    // read the variables on first cache touch below.
    std::env::set_var("LSML_COMPILE_CACHE_BYTES", "8192");
    std::env::set_var("LSML_FIXPOINT_CACHE_BYTES", "2048");

    const THREADS: usize = 8;
    const ROUNDS: usize = 4;
    const KEYS_PER_ROUND: u64 = 12;

    let barrier = Arc::new(Barrier::new(THREADS));
    for round in 0..ROUNDS {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..KEYS_PER_ROUND {
                        // Overlapping key ranges: threads race same-key
                        // compiles (hit/insert races) and distinct-key
                        // compiles (evict races) in every round.
                        let tag = (round as u64) * KEYS_PER_ROUND + (i + t as u64) % KEYS_PER_ROUND;
                        let g = tagged_aig(tag);
                        let c = LearnedCircuit::compile(g, "stress", &SizeBudget::exact(5000));
                        assert!(c.aig.num_ands() <= 5000);
                        // Exercise the fixpoint cache's insert/probe path
                        // directly too (compile reaches it through resyn).
                        let _ = Pipeline::resyn(tag % 3).run_fixpoint(&c.aig, 1);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("stress worker panicked");
        }
        // Between rounds, with the cache quiescent: accounting must be
        // exact, not merely bounded.
        compile_cache_verify().unwrap_or_else(|e| panic!("round {round}: {e}"));
        fixpoint_cache_verify().unwrap_or_else(|e| panic!("round {round}: {e}"));
        let d = compile_cache_detail();
        assert!(
            d.bytes <= d.budget_bytes,
            "round {round}: resident {} bytes exceed budget {}",
            d.bytes,
            d.budget_bytes
        );
        assert!(
            d.hits + d.misses >= (round as u64 + 1) * (THREADS * KEYS_PER_ROUND as usize) as u64,
            "round {round}: counter drift: {} hits + {} misses",
            d.hits,
            d.misses
        );
    }
    let d = compile_cache_detail();
    assert!(d.evictions > 0, "budget never forced an eviction: {d:?}");
}
