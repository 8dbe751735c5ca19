//! The lock-striped, byte-budgeted LRU map behind every process-wide memo:
//! the compile cache (`lsml-core`, `compile` module), the pipeline fixpoint
//! cache ([`crate::opt`]) and the NPN structure library ([`crate::npn`]).
//!
//! A [`ShardedLru`] is 16 independently locked maps sharing one
//! atomic byte total against a budget fixed at construction. Each stripe
//! keeps its own LRU clock and hit/miss/eviction counters under its lock,
//! so lookups on different stripes never contend and the lookup path
//! touches no shared atomic. All synchronization routes through
//! `loom::sync`; `tests/loom_lru.rs` model-checks this module under
//! `--cfg lsml_loom`.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;

use loom::sync::atomic::{AtomicU64, Ordering};
use loom::sync::{Mutex, MutexGuard};

/// Lock stripes per map. A power of two: the stripe index is the top bits
/// of the key's mixed hash.
const SHARDS: usize = 16;

/// Keys a [`ShardedLru`] can stripe on (ordered, so exports are sorted;
/// `Debug`, so accounting errors name the key).
pub trait ShardKey: Hash + Ord + Copy + Debug {
    /// A well-mixed 64-bit hash of the key (only the top bits select the
    /// stripe, so the finalizer must mix into the high bits).
    fn shard_hash(&self) -> u64;
}

/// Fibonacci multiplier: spreads structurally close keys over the top bits.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

impl ShardKey for u16 {
    fn shard_hash(&self) -> u64 {
        u64::from(*self).wrapping_mul(FIB)
    }
}

impl ShardKey for u64 {
    fn shard_hash(&self) -> u64 {
        self.wrapping_mul(FIB)
    }
}

/// (graph fingerprint, configuration fingerprint): both halves are folded
/// together before mixing.
impl ShardKey for (u128, u64) {
    fn shard_hash(&self) -> u64 {
        ((self.0 as u64) ^ ((self.0 >> 64) as u64) ^ self.1).wrapping_mul(FIB)
    }
}

/// One shape of cache statistics for every [`ShardedLru`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lifetime lookups that found their key.
    pub hits: u64,
    /// Lifetime lookups that did not.
    pub misses: u64,
    /// Lifetime entries evicted by the byte budget.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Estimated resident bytes.
    pub bytes: usize,
    /// The byte budget fixed at construction.
    pub budget_bytes: usize,
}

/// A byte budget read from the environment: `var` parsed (whitespace
/// trimmed) as a positive byte count, otherwise `default` — `0` and
/// unparsable values fall back too.
pub fn env_budget(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&b| b > 0)
        .unwrap_or(default)
}

/// A resident value, its recorded cost, and the stripe tick of its last
/// touch.
struct Slot<V> {
    value: V,
    bytes: usize,
    tick: u64,
}

/// One stripe. Its bytes are accounted in the owning map's shared atomic,
/// so the budget is enforced across all stripes.
struct Stripe<K, V> {
    map: HashMap<K, Slot<V>>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K, V> Stripe<K, V> {
    /// Evicts the least-recently-touched quarter of this stripe in one O(n)
    /// selection (not a sort, so eviction stays cheap when a sweep floods
    /// the cache) and refunds the freed bytes to the map's `total`. The
    /// stripe must not be empty.
    fn evict_quarter(&mut self, total: &AtomicU64) {
        let mut ticks: Vec<u64> = self.map.values().map(|s| s.tick).collect();
        let cut = ticks.len() / 4;
        let (_, &mut threshold, _) = ticks.select_nth_unstable(cut);
        let before = self.map.len();
        let mut freed = 0usize;
        self.map.retain(|_, s| {
            if s.tick > threshold {
                true
            } else {
                freed += s.bytes;
                false
            }
        });
        self.evictions += (before - self.map.len()) as u64;
        total.fetch_sub(freed as u64, Ordering::Relaxed);
    }
}

/// A lock-striped, byte-budgeted LRU map (see the module docs).
pub struct ShardedLru<K, V> {
    stripes: [Mutex<Stripe<K, V>>; SHARDS],
    /// Recorded bytes of every resident entry across all stripes.
    bytes: AtomicU64,
    budget: usize,
}

/// An unbounded map: budget `usize::MAX`, so it never evicts.
impl<K: ShardKey, V: Clone> Default for ShardedLru<K, V> {
    fn default() -> Self {
        ShardedLru::new(usize::MAX)
    }
}

impl<K: ShardKey, V: Clone> ShardedLru<K, V> {
    /// An empty map holding at most `budget` bytes (enforced after each
    /// insert; `usize::MAX` never evicts).
    pub fn new(budget: usize) -> ShardedLru<K, V> {
        ShardedLru {
            stripes: std::array::from_fn(|_| {
                Mutex::new(Stripe {
                    map: HashMap::new(),
                    tick: 0,
                    hits: 0,
                    misses: 0,
                    evictions: 0,
                })
            }),
            bytes: AtomicU64::new(0),
            budget,
        }
    }

    /// The stripe `key` lives on.
    pub fn shard_of(key: &K) -> usize {
        (key.shard_hash() >> 60) as usize & (SHARDS - 1)
    }

    fn lock(&self, idx: usize) -> MutexGuard<'_, Stripe<K, V>> {
        self.stripes[idx].lock().expect("cache stripe lock")
    }

    fn over_budget(&self) -> bool {
        self.bytes.load(Ordering::Relaxed) > self.budget as u64
    }

    /// LRU-refreshing lookup, holding only the key's stripe.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut guard = self.lock(Self::shard_of(key));
        let st = &mut *guard;
        st.tick += 1;
        match st.map.get_mut(key) {
            Some(slot) => {
                slot.tick = st.tick;
                st.hits += 1;
                Some(slot.value.clone())
            }
            None => {
                st.misses += 1;
                None
            }
        }
    }

    /// First-insert-wins insert of `value` at a cost of `bytes`: a resident
    /// key keeps its value (refreshing its tick), and the resident value is
    /// returned, so results do not depend on which racing thread finished
    /// first. Then, while the *global* total exceeds the budget, the
    /// inserting stripe evicts its least-recently-touched quarter (keeping
    /// at least one entry), and the other stripes are swept one lock at a
    /// time — never two at once, so lock order cannot deadlock.
    pub fn insert(&self, key: K, value: V, bytes: usize) -> V {
        let idx = Self::shard_of(&key);
        let resident = {
            let mut guard = self.lock(idx);
            let st = &mut *guard;
            st.tick += 1;
            let tick = st.tick;
            let resident = match st.map.entry(key) {
                Entry::Occupied(mut e) => {
                    e.get_mut().tick = tick;
                    e.get().value.clone()
                }
                Entry::Vacant(e) => {
                    self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
                    e.insert(Slot { value, bytes, tick }).value.clone()
                }
            };
            while self.over_budget() && st.map.len() > 1 {
                st.evict_quarter(&self.bytes);
            }
            resident
        };
        // The remaining pressure sits in other stripes, which may be
        // drained entirely: only the inserting stripe keeps its newest entry.
        let mut i = (idx + 1) % SHARDS;
        while self.over_budget() && i != idx {
            let mut st = self.lock(i);
            while self.over_budget() && !st.map.is_empty() {
                st.evict_quarter(&self.bytes);
            }
            drop(st);
            i = (i + 1) % SHARDS;
        }
        resident
    }

    /// Empties every stripe (counters keep running).
    pub fn clear(&self) {
        for idx in 0..SHARDS {
            let mut st = self.lock(idx);
            let freed: usize = st.map.values().map(|s| s.bytes).sum();
            st.map.clear();
            self.bytes.fetch_sub(freed as u64, Ordering::Relaxed);
        }
    }

    /// Counters and resident footprint summed over every stripe (one lock
    /// at a time).
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats {
            budget_bytes: self.budget,
            ..CacheStats::default()
        };
        for idx in 0..SHARDS {
            let st = self.lock(idx);
            stats.hits += st.hits;
            stats.misses += st.misses;
            stats.evictions += st.evictions;
            stats.entries += st.map.len();
        }
        stats.bytes = self.bytes.load(Ordering::Relaxed) as usize;
        stats
    }

    /// Every resident entry, sorted by key (so identical contents export
    /// identically). Holds one stripe lock at a time, so live traffic keeps
    /// flowing while an export is cut.
    pub fn export(&self) -> Vec<(K, V)> {
        let mut out = Vec::new();
        for idx in 0..SHARDS {
            let st = self.lock(idx);
            out.extend(st.map.iter().map(|(k, s)| (*k, s.value.clone())));
        }
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// Checks that byte accounting has not drifted: every entry's recorded
    /// cost equals `cost(value)`, and the shared total equals their sum.
    /// Holds **every** stripe lock while reading — mutations only ever
    /// happen under some stripe lock (one at a time), so this observes a
    /// consistent snapshot even while inserts race, and cannot deadlock.
    ///
    /// The budget bound is deliberately not checked: it holds only at
    /// quiescence, since a racing insert can sit between its own-stripe
    /// eviction and its sweep of the other stripes.
    pub fn verify(&self, cost: impl Fn(&V) -> usize) -> Result<(), String> {
        let guards: Vec<_> = (0..SHARDS).map(|idx| self.lock(idx)).collect();
        let mut sum = 0usize;
        for st in &guards {
            for (key, s) in &st.map {
                let expect = cost(&s.value);
                if s.bytes != expect {
                    return Err(format!(
                        "entry {key:?} records {} bytes, its value costs {expect}",
                        s.bytes
                    ));
                }
                sum += s.bytes;
            }
        }
        let accounted = self.bytes.load(Ordering::Relaxed) as usize;
        if sum != accounted {
            return Err(format!(
                "bytes drifted: accounted {accounted} != resident sum {sum}"
            ));
        }
        Ok(())
    }
}

#[cfg(all(test, not(lsml_loom)))]
mod tests {
    use super::*;

    /// `n` keys that all land on `stripe`.
    fn keys_on(stripe: usize, n: usize) -> Vec<u64> {
        (0u64..)
            .filter(|k| ShardedLru::<u64, u64>::shard_of(k) == stripe)
            .take(n)
            .collect()
    }

    #[test]
    fn first_insert_wins_and_counts_bytes_once() {
        let lru: ShardedLru<u64, u64> = ShardedLru::new(usize::MAX);
        assert_eq!(lru.get(&7), None);
        assert_eq!(lru.insert(7, 70, 10), 70);
        assert_eq!(lru.insert(7, 71, 99), 70, "the resident value wins");
        assert_eq!(lru.get(&7), Some(70));
        let s = lru.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.bytes), (1, 1, 1, 10));
        lru.verify(|_| 10).unwrap();
        assert!(lru.verify(|_| 11).is_err(), "a wrong cost must be caught");
        lru.clear();
        let s = lru.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.bytes), (1, 1, 0, 0));
        // Pinned stripes (Fibonacci mixing, top four bits): changing the
        // mixing moves every key of every cache onto another stripe.
        assert_eq!(ShardedLru::<u16, ()>::shard_of(&0x6996), 7);
        assert_eq!(ShardedLru::<u64, ()>::shard_of(&0x0123_4567_89AB_CDEF), 0);
        assert_eq!(ShardedLru::<(u128, u64), ()>::shard_of(&(1, 2)), 13);
    }

    #[test]
    fn eviction_drops_the_least_recently_touched_and_keeps_the_newest() {
        // Four entries of 10 bytes on one stripe fit a 40-byte budget; the
        // fifth pushes it over, and the selection evicts every entry up to
        // the `len / 4`-th stalest tick: the two stalest of five.
        let keys = keys_on(3, 5);
        let lru: ShardedLru<u64, u64> = ShardedLru::new(40);
        for &k in &keys[..4] {
            lru.insert(k, k, 10);
        }
        assert!(lru.get(&keys[0]).is_some(), "touch the oldest entry");
        lru.insert(keys[4], keys[4], 10);
        let s = lru.stats();
        assert_eq!((s.entries, s.bytes, s.evictions), (3, 30, 2));
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(lru.get(k).is_some(), ![1, 2].contains(&i), "key {i}");
        }
        // An entry larger than the whole budget still stays resident alone
        // on its stripe, and the other stripes are drained for it.
        let other = keys_on(9, 1)[0];
        lru.insert(other, other, 1000);
        assert_eq!(lru.stats().entries, 1);
        assert_eq!(lru.get(&other), Some(other));
        lru.verify(|&v| if v == other { 1000 } else { 10 }).unwrap();
        assert_eq!(
            lru.export().iter().map(|e| e.0).collect::<Vec<_>>(),
            vec![other]
        );
    }
}
