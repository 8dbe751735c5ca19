//! Crash-safe warm-start persistence for the synthesis caches.
//!
//! On graceful shutdown the daemon serializes the sharded compile and
//! fixpoint caches to a single sealed snapshot file, written with
//! [`lsml_durable::write_atomic`]; on boot it reloads them so a restarted
//! daemon answers repeat compiles from cache — *hit-identically* to the
//! live cache it replaced (pinned by proptest in `tests/warm_start.rs`).
//!
//! Loading **never** trusts the file: [`lsml_durable::open`] verifies
//! magic, version, length and checksum before a byte is decoded, and every
//! payload decode path is bounds-checked. Torn, truncated or bit-flipped
//! snapshots are rejected in favor of a cold start — a bad snapshot costs
//! warm-up time, never correctness and never a crash (pinned by corruption
//! proptests in `tests/snapshot_props.rs`).

use lsml_aig::aiger::{read_aig, write_aig};
use lsml_aig::opt::{fixpoint_cache_export, fixpoint_cache_import};
use lsml_core::compile::{compile_cache_export, compile_cache_import, CompileCacheEntry};
use lsml_durable::{open, seal};
use std::fs;
use std::path::Path;

/// File magic: "LSML" + "SNP" + format generation.
pub const MAGIC: &[u8; 8] = b"LSMLSNP1";
/// Bumped on any layout change; a mismatch cold-starts.
pub const VERSION: u32 = 1;

/// An in-memory image of both caches.
#[derive(Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Fixpoint-cache keys (graph fingerprint, pipeline fingerprint).
    pub fixpoint_keys: Vec<(u128, u64)>,
    /// Full compile-cache entries (key + optimized graph).
    pub compile_entries: Vec<CompileCacheEntry>,
}

impl Snapshot {
    /// Captures the current global cache contents. Export order is sorted by
    /// key, so identical cache contents always produce identical bytes.
    pub fn capture() -> Snapshot {
        Snapshot {
            fixpoint_keys: fixpoint_cache_export(),
            compile_entries: compile_cache_export(),
        }
    }

    /// Installs the snapshot into the global caches through the normal
    /// budget-enforcing insert paths (an oversized snapshot triggers the
    /// caches' own eviction, it cannot blow the memory budget).
    pub fn install(self) {
        fixpoint_cache_import(&self.fixpoint_keys);
        compile_cache_import(self.compile_entries);
    }

    /// Serializes to the on-disk format (header + payload + checksum).
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&(self.fixpoint_keys.len() as u32).to_le_bytes());
        for &(g, p) in &self.fixpoint_keys {
            payload.extend_from_slice(&g.to_le_bytes());
            payload.extend_from_slice(&p.to_le_bytes());
        }
        payload.extend_from_slice(&(self.compile_entries.len() as u32).to_le_bytes());
        for e in &self.compile_entries {
            payload.extend_from_slice(&e.graph_fingerprint.to_le_bytes());
            payload.extend_from_slice(&e.budget_fingerprint.to_le_bytes());
            payload.push(e.approximated as u8);
            let mut aig_bytes = Vec::new();
            write_aig(&e.aig, &mut aig_bytes).expect("Vec write cannot fail");
            payload.extend_from_slice(&(aig_bytes.len() as u32).to_le_bytes());
            payload.extend_from_slice(&aig_bytes);
        }
        seal(MAGIC, VERSION, &payload)
    }

    /// Decodes and verifies a snapshot file's bytes. Any defect — bad magic,
    /// version skew, truncation, checksum mismatch, malformed AIGER —
    /// returns `Err` (→ cold start); this function must never panic on
    /// arbitrary bytes.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, String> {
        let mut p = open(MAGIC, VERSION, bytes)?;
        let n_fix = p.u32()? as usize;
        let mut fixpoint_keys = Vec::with_capacity(n_fix.min(1 << 20));
        for _ in 0..n_fix {
            fixpoint_keys.push((p.u128()?, p.u64()?));
        }
        let n_compile = p.u32()? as usize;
        let mut compile_entries = Vec::with_capacity(n_compile.min(1 << 16));
        for _ in 0..n_compile {
            let graph_fingerprint = p.u128()?;
            let budget_fingerprint = p.u64()?;
            let approximated = p.u8()? != 0;
            let len = p.u32()? as usize;
            let aig_bytes = p.bytes(len)?;
            let aig = read_aig(aig_bytes).map_err(|e| format!("entry AIGER: {e:?}"))?;
            compile_entries.push(CompileCacheEntry {
                graph_fingerprint,
                budget_fingerprint,
                aig,
                approximated,
            });
        }
        if p.remaining() != 0 {
            return Err(format!("{} trailing payload bytes", p.remaining()));
        }
        Ok(Snapshot {
            fixpoint_keys,
            compile_entries,
        })
    }

    /// Total entries across both caches.
    pub fn len(&self) -> usize {
        self.fixpoint_keys.len() + self.compile_entries.len()
    }

    /// Whether the snapshot holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Loads a snapshot, or `None` for *any* failure — missing file, torn
/// write, corruption, version skew. The caller treats `None` as a cold
/// start; it is never an error.
pub fn load(path: &Path) -> Option<Snapshot> {
    let bytes = fs::read(path).ok()?;
    Snapshot::decode(&bytes).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut aig = lsml_aig::Aig::new(3);
        let (a, b) = (aig.input(0), aig.input(1));
        let x = aig.xor(a, b);
        aig.add_output(x);
        Snapshot {
            fixpoint_keys: vec![(1, 2), (3, 4)],
            compile_entries: vec![CompileCacheEntry {
                graph_fingerprint: 0xDEAD,
                budget_fingerprint: 0xBEEF,
                aig,
                approximated: false,
            }],
        }
    }

    #[test]
    fn encoded_bytes_are_pinned() {
        // Snapshots written by earlier builds must keep loading, so the
        // on-disk bytes never change without a VERSION bump.
        let bytes = sample().encode();
        assert_eq!(bytes.len(), 136);
        assert_eq!(lsml_aig::fxhash::fnv1a(&bytes), 0xe1d9_7704_8bea_1e8c);
    }

    #[test]
    fn encode_decode_round_trip() {
        let s = sample();
        let bytes = s.encode();
        let d = Snapshot::decode(&bytes).unwrap();
        assert_eq!(d, s);
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
    }

    #[test]
    fn save_load_atomic_and_fault_paths() {
        use lsml_durable::fault::FaultPlan;
        use lsml_durable::write_atomic;

        let dir = std::env::temp_dir().join("lsml-snap-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.snap");
        let _ = fs::remove_file(&path);

        // Clean save → loads back.
        write_atomic(&path, sample().encode(), &FaultPlan::none()).unwrap();
        assert_eq!(load(&path).unwrap(), sample());

        // Corrupting fault → checksum rejects → cold start (None).
        let corrupt = FaultPlan {
            snapshot_corrupt: true,
            ..FaultPlan::none()
        };
        write_atomic(&path, sample().encode(), &corrupt).unwrap();
        assert!(load(&path).is_none(), "bit flip must not load");

        // Mid-write kill → target never created, only a stray temp file.
        let _ = fs::remove_file(&path);
        let kill = FaultPlan {
            snapshot_kill_mid_write: true,
            ..FaultPlan::none()
        };
        write_atomic(&path, sample().encode(), &kill).unwrap();
        assert!(!path.exists(), "killed write must never reach the target");
        assert!(load(&path).is_none());
        let _ = fs::remove_file(dir.join("unit.snap.tmp"));
    }

    #[test]
    fn garbage_and_truncation_never_panic() {
        assert!(Snapshot::decode(b"").is_err());
        assert!(Snapshot::decode(b"LSMLSNP9").is_err());
        let good = sample().encode();
        for cut in [1, 8, 12, 20, good.len() - 1] {
            assert!(Snapshot::decode(&good[..cut]).is_err(), "cut at {cut}");
        }
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xFF;
        assert!(Snapshot::decode(&flipped).is_err());
        // A huge declared length is rejected, not an overflow.
        let huge = [&MAGIC[..], &VERSION.to_le_bytes(), &u64::MAX.to_le_bytes()].concat();
        assert!(Snapshot::decode(&huge).is_err());
    }
}
