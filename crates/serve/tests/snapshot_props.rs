//! Property tests for the snapshot wire format: encode/decode is lossless,
//! and *no* corrupted byte stream ever decodes (or panics) — it cold-starts.
//!
//! These drive the pure [`Snapshot::encode`]/[`Snapshot::decode`] pair, so
//! they are free of the global caches and can fuzz aggressively.

use lsml_aig::{Aig, Lit};
use lsml_core::compile::CompileCacheEntry;
use lsml_serve::snapshot::Snapshot;
use proptest::prelude::*;

const NUM_INPUTS: usize = 5;

/// Folds a generated op list into a small AIG (same scheme as the cache
/// property tests).
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

/// The generated raw material for one snapshot: fixpoint keys (u128 widened
/// from u64 pairs — the vendored proptest has no u128 `any`) and compile
/// entries.
type FixKeys = Vec<(u64, u64, u64)>;
type Entries = Vec<(Vec<(u8, u16, u16)>, u64, u64, bool)>;

fn snapshot_from(fix: &FixKeys, entries: &Entries) -> Snapshot {
    Snapshot {
        fixpoint_keys: fix
            .iter()
            .map(|&(hi, lo, p)| (((hi as u128) << 64) | lo as u128, p))
            .collect(),
        compile_entries: entries
            .iter()
            .map(|(ops, g, b, approx)| CompileCacheEntry {
                graph_fingerprint: ((*g as u128) << 64) | *b as u128,
                budget_fingerprint: *b,
                aig: build(ops),
                approximated: *approx,
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// encode → decode is the identity (keys, flags, and graphs — graphs
    /// compared by structural fingerprint, the identity the cache keys on).
    #[test]
    fn encode_decode_round_trips(
        fix in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..20),
        entries in proptest::collection::vec(
            (
                proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 1..12),
                any::<u64>(),
                any::<u64>(),
                any::<bool>(),
            ),
            0..6,
        ),
    ) {
        let snap = snapshot_from(&fix, &entries);
        let bytes = snap.encode();
        let decoded = Snapshot::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &snap);
        // Determinism: identical contents encode to identical bytes.
        prop_assert_eq!(snapshot_from(&fix, &entries).encode(), bytes);
    }

    /// Any truncation — torn write, partial disk — is rejected cleanly.
    #[test]
    fn truncation_is_rejected(
        fix in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..12),
        cut_seed in any::<u64>(),
    ) {
        let snap = snapshot_from(&fix, &Entries::new());
        let bytes = snap.encode();
        let cut = (cut_seed as usize) % bytes.len();
        prop_assert!(
            Snapshot::decode(&bytes[..cut]).is_err(),
            "truncated snapshot (cut {} of {}) must not decode",
            cut, bytes.len()
        );
    }

    /// Any single flipped bit — magic, version, length, payload or
    /// checksum — is rejected cleanly (the checksum guards the payload, the
    /// header checks guard the rest).
    #[test]
    fn bit_flips_are_rejected(
        fix in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..12),
        entries in proptest::collection::vec(
            (
                proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 1..8),
                any::<u64>(),
                any::<u64>(),
                any::<bool>(),
            ),
            0..3,
        ),
        pos_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let snap = snapshot_from(&fix, &entries);
        let mut bytes = snap.encode();
        let pos = (pos_seed as usize) % bytes.len();
        bytes[pos] ^= 1 << bit;
        prop_assert!(
            Snapshot::decode(&bytes).is_err(),
            "bit {} of byte {} flipped and the snapshot still decoded",
            bit, pos
        );
    }

    /// Arbitrary garbage never panics the decoder.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Snapshot::decode(&bytes);
    }
}
