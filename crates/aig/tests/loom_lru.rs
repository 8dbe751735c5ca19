//! Model-checked races on the lock-striped, byte-budgeted [`ShardedLru`] —
//! the one primitive under the compile cache, the fixpoint cache and the NPN
//! library.
//!
//! Only built under `RUSTFLAGS="--cfg lsml_loom"` — the CI `model-check`
//! leg. Each model body builds a *fresh* map (the process-wide caches behind
//! `OnceLock`s are not modeled; see the `loom` crate docs) over the same
//! stripes, shadow `Mutex`es and shared atomic byte total the global caches
//! run on.
#![cfg(lsml_loom)]

use loom::{model, thread};
use lsml_aig::lru::ShardedLru;
use lsml_aig::Aig;
use std::sync::Arc;

type Key = (u128, u64);
/// The compile-cache shape: optimized graphs keyed by fingerprint pairs.
type GraphLru = ShardedLru<Key, Arc<Aig>>;

fn shard(key: Key) -> usize {
    GraphLru::shard_of(&key)
}

/// A pair of keys that land on **distinct** stripes (panics if the stripe
/// hash ever degenerates to a single stripe for small keys).
fn cross_shard_keys() -> (Key, Key) {
    let a = (0u128, 0u64);
    for raw in 1..1024u128 {
        let b = (raw, 0u64);
        if shard(b) != shard(a) {
            return (a, b);
        }
    }
    panic!("no second stripe reachable");
}

/// A key colliding with `a`'s stripe but under a different map key.
fn same_shard_other_key(a: Key) -> Key {
    for raw in 1..4096u128 {
        let b = (raw, 1u64);
        if b != a && shard(b) == shard(a) {
            return b;
        }
    }
    panic!("no same-stripe sibling found");
}

/// A two-input graph with `ands` AND gates (distinct sizes → distinct entry
/// costs, so byte accounting is actually exercised).
fn tiny_aig(ands: usize) -> Arc<Aig> {
    let mut g = Aig::new(2);
    let (a, b) = (g.input(0), g.input(1));
    let mut cur = a;
    for i in 0..ands {
        let rhs = if i % 2 == 0 { b } else { a };
        cur = g.and(cur, !rhs);
    }
    g.add_output(cur);
    Arc::new(g)
}

/// The compile cache's entry cost: `(3 + n) · 48 + 160` for an n-AND
/// two-input graph.
fn cost(g: &Arc<Aig>) -> usize {
    g.num_nodes() * 48 + 160
}

fn insert(lru: &GraphLru, key: Key, g: Arc<Aig>) -> Arc<Aig> {
    let bytes = cost(&g);
    lru.insert(key, g, bytes)
}

/// Two threads insert different-size entries under a budget that forces
/// eviction, racing a reader. Across every interleaving the byte accounting
/// must equal the sum of resident entries.
#[test]
fn concurrent_insert_evict_accounting() {
    // Budget fits ~2 tiny entries: the third insert must evict.
    let report = model(|| {
        let lru = Arc::new(GraphLru::new(900));
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let lru = Arc::clone(&lru);
                thread::spawn(move || {
                    insert(&lru, (w as u128, 0), tiny_aig(2 + w * 3));
                    lru.verify(cost).unwrap();
                })
            })
            .collect();
        insert(&lru, (99, 0), tiny_aig(8));
        lru.verify(cost).unwrap();
        let _ = lru.get(&(0, 0));
        for t in writers {
            t.join().unwrap();
        }
        lru.verify(cost).unwrap();
        // Conservation, not liveness: concurrent cross-stripe sweeps can
        // each observe the combined over-budget total and drain the other
        // thread's stripe, so `entries == 0` is a legal quiescent state.
        // What must hold is that all 3 distinct inserts are either
        // resident or counted as evicted — never silently lost.
        let s = lru.stats();
        assert_eq!(
            s.entries as u64 + s.evictions,
            3,
            "lost entries: {} resident + {} evicted ({} bytes)",
            s.entries,
            s.evictions,
            s.bytes
        );
    });
    println!(
        "concurrent_insert_evict_accounting: {} interleavings explored (max depth {})",
        report.iterations, report.max_depth
    );
    assert!(report.iterations > 1);
}

/// Insert/lookup race on one key: a lookup concurrent with the insert
/// either misses or hits, but a hit must never corrupt accounting, and the
/// entry must be resident afterwards.
#[test]
fn insert_lookup_race() {
    let report = model(|| {
        let lru = Arc::new(GraphLru::new(1 << 20));
        let reader = {
            let lru = Arc::clone(&lru);
            thread::spawn(move || lru.get(&(7, 7)).is_some())
        };
        insert(&lru, (7, 7), tiny_aig(3));
        let hit_before = reader.join().unwrap();
        assert!(
            lru.get(&(7, 7)).is_some(),
            "inserted entry must be resident"
        );
        lru.verify(cost).unwrap();
        let s = lru.stats();
        assert_eq!(
            (s.hits, s.misses),
            (1 + u64::from(hit_before), u64::from(!hit_before)),
            "every lookup counts exactly once"
        );
    });
    println!(
        "insert_lookup_race: {} interleavings explored",
        report.iterations
    );
    assert!(report.iterations > 1);
}

/// Same-key double insert (two threads compile the same candidate): first
/// insert wins, both racers get the one resident value back, and its bytes
/// are counted once.
#[test]
fn same_key_double_insert_is_first_insert_wins() {
    let report = model(|| {
        let lru = Arc::new(GraphLru::new(1 << 20));
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let lru = Arc::clone(&lru);
                // Different graph sizes under the SAME key.
                thread::spawn(move || insert(&lru, (1, 1), tiny_aig(1 + w * 4)))
            })
            .collect();
        let got: Vec<Arc<Aig>> = writers.into_iter().map(|t| t.join().unwrap()).collect();
        assert!(Arc::ptr_eq(&got[0], &got[1]), "racers got different values");
        let resident = lru.get(&(1, 1)).expect("the winner stays resident");
        assert!(Arc::ptr_eq(&resident, &got[0]));
        lru.verify(cost).unwrap();
        let s = lru.stats();
        assert_eq!((s.entries, s.bytes), (1, cost(&resident)));
    });
    println!(
        "same_key_double_insert_is_first_insert_wins: {} interleavings explored",
        report.iterations
    );
    assert!(report.iterations > 1);
}

/// Cross-stripe byte-budget accounting race: two threads insert into
/// **distinct stripes** under a budget that forces eviction, so the shared
/// atomic byte total is mutated from both stripes concurrently (including
/// the cross-stripe pressure sweep). Accounting must stay exact across
/// every interleaving — the all-locks `verify` snapshot is sound even
/// mid-race.
#[test]
fn cross_shard_budget_accounting_race() {
    let (ka, kb) = cross_shard_keys();
    // Roomy enough for one entry, tight enough that two force the sweep.
    let report = model(move || {
        let lru = Arc::new(GraphLru::new(500));
        let writer = {
            let lru = Arc::clone(&lru);
            thread::spawn(move || {
                insert(&lru, kb, tiny_aig(5));
                lru.verify(cost).unwrap();
            })
        };
        insert(&lru, ka, tiny_aig(2));
        lru.verify(cost).unwrap();
        writer.join().unwrap();
        lru.verify(cost).unwrap();
        // Dueling sweeps may legally drain both stripes (each observed the
        // combined total while over budget); conservation must still hold.
        let s = lru.stats();
        assert_eq!(
            s.entries as u64 + s.evictions,
            2,
            "lost entries: {} resident + {} evicted",
            s.entries,
            s.evictions
        );
        assert!(
            s.entries > 0 || s.bytes == 0,
            "empty map with residual bytes"
        );
    });
    println!(
        "cross_shard_budget_accounting_race: {} interleavings explored",
        report.iterations
    );
    assert!(report.iterations > 1);
}

/// Concurrent insert and evict on distinct stripes: one stripe inserts
/// within budget while the other is forced over budget and sweeps — the
/// sweep drains *other* stripes one lock at a time, racing the first
/// stripe's insert. No deadlock, no lost or double-counted bytes.
#[test]
fn concurrent_insert_evict_on_distinct_shards() {
    let (ka, kb) = cross_shard_keys();
    let ka2 = same_shard_other_key(ka);
    let kb2 = same_shard_other_key(kb);
    let report = model(move || {
        let lru = Arc::new(GraphLru::new(700));
        let writer = {
            let lru = Arc::clone(&lru);
            thread::spawn(move || {
                // Two same-stripe inserts: the second one's budget check
                // can trigger the cross-stripe sweep into ka's stripe while
                // the main thread is inserting there.
                insert(&lru, kb, tiny_aig(4));
                insert(&lru, kb2, tiny_aig(6));
            })
        };
        insert(&lru, ka, tiny_aig(2));
        insert(&lru, ka2, tiny_aig(3));
        writer.join().unwrap();
        lru.verify(cost).unwrap();
        let s = lru.stats();
        assert_eq!(
            s.entries as u64 + s.evictions,
            4,
            "lost entries: {} resident + {} evicted",
            s.entries,
            s.evictions
        );
    });
    println!(
        "concurrent_insert_evict_on_distinct_shards: {} interleavings explored",
        report.iterations
    );
    assert!(report.iterations > 1);
}

/// The fixpoint-cache shape: equal-cost (64-byte) unit entries under a
/// two-entry budget, inserted from two threads onto two stripes. The byte
/// total must track the resident entries exactly and respect the budget
/// once quiescent.
#[test]
fn equal_cost_inserts_respect_the_budget() {
    const ENTRY: usize = 64;
    let first = (0u128, 0u64);
    let second = (1..1024u128)
        .map(|raw| (raw, 0u64))
        .find(|&k| ShardedLru::<Key, ()>::shard_of(&k) != ShardedLru::<Key, ()>::shard_of(&first))
        .expect("need two stripes");
    let report = model(move || {
        let lru = Arc::new(ShardedLru::<Key, ()>::new(2 * ENTRY));
        let writer = {
            let lru = Arc::clone(&lru);
            // No mid-race budget check: the bound is a *quiescent*
            // guarantee (a stripe's lock is dropped between its own-stripe
            // eviction and the cross-stripe sweep, so the total can exceed
            // the budget while another thread races). Accounting drift is
            // checked mid-race in the models above; the bound only after
            // join.
            thread::spawn(move || {
                lru.insert(second, (), ENTRY);
                lru.insert((second.0 + 4096, 0), (), ENTRY);
            })
        };
        lru.insert(first, (), ENTRY);
        writer.join().unwrap();
        lru.verify(|_| ENTRY).unwrap();
        let s = lru.stats();
        assert!(
            (1..=2).contains(&s.entries),
            "resident {} entries",
            s.entries
        );
        assert!(s.bytes <= s.budget_bytes, "over budget at quiescence");
        assert_eq!(s.entries as u64 + s.evictions, 3);
    });
    println!(
        "equal_cost_inserts_respect_the_budget: {} interleavings explored",
        report.iterations
    );
    assert!(report.iterations > 1);
}
