//! Crash-safe warm-start persistence for the synthesis caches.
//!
//! On graceful shutdown the daemon serializes the sharded compile and
//! fixpoint caches (PR 8) to a single checksummed snapshot file; on boot it
//! reloads them so a restarted daemon answers repeat compiles from cache —
//! *hit-identically* to the live cache it replaced (pinned by proptest in
//! `tests/warm_start.rs`).
//!
//! Crash-safety is the classic discipline: encode to bytes, write to a
//! sibling temp file, `fsync`, then atomically rename over the target (and
//! `fsync` the directory on Unix so the rename itself is durable). A crash
//! at any point leaves either the old snapshot or a stray temp file — never
//! a half-written snapshot under the real name.
//!
//! Loading **never** trusts the file: magic, version, length and an FNV-1a
//! checksum over the payload are verified before a byte is decoded, and
//! every decode path is bounds-checked ([`crate::protocol::Wire`]). Torn,
//! truncated or bit-flipped snapshots are rejected in favor of a cold start
//! — a bad snapshot costs warm-up time, never correctness and never a
//! crash (pinned by corruption proptests in `tests/snapshot_props.rs`).

use crate::fault::FaultPlan;
use crate::protocol::Wire;
use lsml_aig::aiger::{read_aig, write_aig};
use lsml_aig::fxhash::fnv1a;
use lsml_aig::opt::{fixpoint_cache_export, fixpoint_cache_import};
use lsml_core::compile::{compile_cache_export, compile_cache_import, CompileCacheEntry};
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// File magic: "LSML" + "SNP" + format generation.
pub const MAGIC: &[u8; 8] = b"LSMLSNP1";
/// Bumped on any layout change; a mismatch cold-starts.
pub const VERSION: u32 = 1;

/// An in-memory image of both caches.
#[derive(Default)]
pub struct Snapshot {
    /// Fixpoint-cache keys (graph fingerprint, pipeline fingerprint).
    pub fixpoint_keys: Vec<(u128, u64)>,
    /// Full compile-cache entries (key + optimized graph).
    pub compile_entries: Vec<SnapshotCompileEntry>,
}

/// One compile-cache entry in snapshot form. Mirrors
/// [`CompileCacheEntry`] but owns a comparable, encodable row.
pub struct SnapshotCompileEntry {
    /// Structural fingerprint of the canonicalized input cone.
    pub graph_fingerprint: u128,
    /// Fingerprint of the budget + pipeline configuration.
    pub budget_fingerprint: u64,
    /// The memoized optimized graph, AIGER-encoded in the file.
    pub aig: lsml_aig::Aig,
    /// Whether approximation traded accuracy away.
    pub approximated: bool,
}

// `Aig` has no PartialEq/Debug of its own; snapshot equality compares graphs
// by structural fingerprint, which is exactly the identity the cache keys on.
impl PartialEq for SnapshotCompileEntry {
    fn eq(&self, other: &Self) -> bool {
        self.graph_fingerprint == other.graph_fingerprint
            && self.budget_fingerprint == other.budget_fingerprint
            && self.approximated == other.approximated
            && self.aig.structural_fingerprint() == other.aig.structural_fingerprint()
    }
}

impl std::fmt::Debug for SnapshotCompileEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCompileEntry")
            .field("graph_fingerprint", &self.graph_fingerprint)
            .field("budget_fingerprint", &self.budget_fingerprint)
            .field("ands", &self.aig.num_ands())
            .field("approximated", &self.approximated)
            .finish()
    }
}

impl PartialEq for Snapshot {
    fn eq(&self, other: &Self) -> bool {
        self.fixpoint_keys == other.fixpoint_keys && self.compile_entries == other.compile_entries
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("fixpoint_keys", &self.fixpoint_keys.len())
            .field("compile_entries", &self.compile_entries)
            .finish()
    }
}

impl Snapshot {
    /// Captures the current global cache contents. Export order is sorted by
    /// key, so identical cache contents always produce identical bytes.
    pub fn capture() -> Snapshot {
        Snapshot {
            fixpoint_keys: fixpoint_cache_export(),
            compile_entries: compile_cache_export()
                .into_iter()
                .map(|e| SnapshotCompileEntry {
                    graph_fingerprint: e.graph_fingerprint,
                    budget_fingerprint: e.budget_fingerprint,
                    aig: e.aig,
                    approximated: e.approximated,
                })
                .collect(),
        }
    }

    /// Installs the snapshot into the global caches through the normal
    /// budget-enforcing insert paths (an oversized snapshot triggers the
    /// caches' own eviction, it cannot blow the memory budget).
    pub fn install(self) {
        fixpoint_cache_import(&self.fixpoint_keys);
        compile_cache_import(self.compile_entries.into_iter().map(|e| CompileCacheEntry {
            graph_fingerprint: e.graph_fingerprint,
            budget_fingerprint: e.budget_fingerprint,
            aig: e.aig,
            approximated: e.approximated,
        }));
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
        let mut out = Vec::with_capacity(MAGIC.len() + 12 + payload.len() + 8);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        out
    }

    /// Decodes and verifies a snapshot file's bytes. Any defect — bad magic,
    /// version skew, truncation, checksum mismatch, malformed AIGER —
    /// returns `Err` (→ cold start); this function must never panic on
    /// arbitrary bytes.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, String> {
        let mut w = Wire::new(bytes);
        if w.bytes(MAGIC.len())? != MAGIC {
            return Err("bad magic".into());
        }
        let version = w.u32()?;
        if version != VERSION {
            return Err(format!("snapshot version {version}, expected {VERSION}"));
        }
        let payload_len = w.u64()? as usize;
        if w.remaining() != payload_len + 8 {
            return Err(format!(
                "torn snapshot: header says {payload_len}B payload + 8B checksum, file has {}B",
                w.remaining()
            ));
        }
        let payload = w.bytes(payload_len)?;
        let want = w.u64()?;
        let got = fnv1a(payload);
        if want != got {
            return Err(format!(
                "checksum mismatch: stored {want:#x}, computed {got:#x}"
            ));
        }
        let mut p = Wire::new(payload);
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
            compile_entries.push(SnapshotCompileEntry {
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

/// Writes `snap` to `path` crash-safely ([`write_atomic`]).
pub fn save(path: &Path, snap: &Snapshot, fault: &FaultPlan) -> io::Result<()> {
    write_atomic(path, snap.encode(), fault)
}

/// Writes checksummed `bytes` to `path` crash-safely: sibling temp file,
/// `fsync`, atomic rename, then `fsync` of the directory. The fault plan
/// can corrupt the bytes (simulating a torn/bit-flipped write) or abandon
/// the write mid-way (simulating a kill) — both leave the *target* path in
/// a state a checksum-verifying loader handles: the corrupt bytes fail the
/// checksum, the abandoned write never reaches the target name at all.
pub fn write_atomic(path: &Path, mut bytes: Vec<u8>, fault: &FaultPlan) -> io::Result<()> {
    if fault.snapshot_corrupt && !bytes.is_empty() {
        // Flip one payload bit; the checksum must catch it on load.
        let i = bytes.len() / 2;
        bytes[i] ^= 0x10;
    }
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        if fault.snapshot_kill_mid_write {
            // Simulated kill: half the bytes land, no fsync, no rename. The
            // stray temp file must never be mistaken for a snapshot.
            f.write_all(&bytes[..bytes.len() / 2])?;
            return Ok(());
        }
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Make the rename itself durable: fsync the containing directory.
    #[cfg(unix)]
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
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
            compile_entries: vec![SnapshotCompileEntry {
                graph_fingerprint: 0xDEAD,
                budget_fingerprint: 0xBEEF,
                aig,
                approximated: false,
            }],
        }
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
        let dir = std::env::temp_dir().join("lsml-snap-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.snap");
        let _ = fs::remove_file(&path);

        // Clean save → loads back.
        save(&path, &sample(), &FaultPlan::none()).unwrap();
        assert_eq!(load(&path).unwrap(), sample());

        // Corrupting fault → checksum rejects → cold start (None).
        let corrupt = FaultPlan {
            snapshot_corrupt: true,
            ..FaultPlan::none()
        };
        save(&path, &sample(), &corrupt).unwrap();
        assert!(load(&path).is_none(), "bit flip must not load");

        // Mid-write kill → target untouched (here: still the corrupt one),
        // only a stray temp file.
        let _ = fs::remove_file(&path);
        let kill = FaultPlan {
            snapshot_kill_mid_write: true,
            ..FaultPlan::none()
        };
        save(&path, &sample(), &kill).unwrap();
        assert!(!path.exists(), "killed write must never reach the target");
        assert!(load(&path).is_none());
        let _ = fs::remove_file(path.with_extension("tmp"));
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
    }
}
