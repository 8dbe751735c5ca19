//! Resumable sweep checkpoints.
//!
//! Every N circuits the engine persists `(config fingerprint, cursor,
//! stats)` through the cache snapshots' crash-safe write
//! ([`lsml_serve::snapshot::write_atomic`]): checksummed payload, temp
//! file, `fsync`, atomic rename, directory `fsync`. Because unit seeds are counter-derived ([`crate::family`]),
//! the cursor *is* the RNG stream state — nothing else needs saving for a
//! resumed sweep to be bit-identical to an uninterrupted one.
//!
//! Loading never trusts the file: any defect (missing, torn, bit-flipped,
//! version skew, or a checkpoint from a *different sweep configuration*)
//! yields `None` and the sweep restarts from unit 0. A bad checkpoint
//! costs progress, never correctness and never a panic.

use crate::stats::SuiteStats;
use lsml_aig::fxhash::fnv1a;
use lsml_serve::fault::FaultPlan;
use lsml_serve::protocol::Wire;
use lsml_serve::snapshot::write_atomic;
use std::fs;
use std::io;
use std::path::Path;

/// File magic: "LSML" + "SWP" (sweep) + format generation.
pub const MAGIC: &[u8; 8] = b"LSMLSWP1";
/// Bumped on any layout change; a mismatch restarts from unit 0.
pub const VERSION: u32 = 1;

/// One persisted sweep position.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Checkpoint {
    /// Fingerprint of the sweep configuration that wrote this checkpoint.
    /// A resume under a different config (families, unit counts, seed,
    /// budgets…) must not splice mismatched stats together, so a mismatch
    /// discards the checkpoint.
    pub config_fingerprint: u64,
    /// Units fully processed; the resume point. Unit `cursor` is the next
    /// one to run.
    pub cursor: u64,
    /// Stats accumulated over units `0..cursor`.
    pub stats: SuiteStats,
}

impl Checkpoint {
    /// Serializes to the on-disk format (header + payload + checksum).
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&self.config_fingerprint.to_le_bytes());
        payload.extend_from_slice(&self.cursor.to_le_bytes());
        self.stats.encode(&mut payload);
        let mut out = Vec::with_capacity(MAGIC.len() + 12 + payload.len() + 8);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        out
    }

    /// Decodes and verifies checkpoint bytes; must never panic on
    /// arbitrary input.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, String> {
        let mut w = Wire::new(bytes);
        if w.bytes(MAGIC.len())? != MAGIC {
            return Err("bad magic".into());
        }
        let version = w.u32()?;
        if version != VERSION {
            return Err(format!("checkpoint version {version}, expected {VERSION}"));
        }
        let payload_len = w.u64()? as usize;
        if w.remaining() != payload_len + 8 {
            return Err(format!(
                "torn checkpoint: header says {payload_len}B payload + 8B checksum, file has {}B",
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
        let cp = Checkpoint {
            config_fingerprint: p.u64()?,
            cursor: p.u64()?,
            stats: SuiteStats::decode(&mut p)?,
        };
        if p.remaining() != 0 {
            return Err(format!("{} trailing payload bytes", p.remaining()));
        }
        Ok(cp)
    }
}

/// Writes `cp` to `path` crash-safely (temp + fsync + atomic rename +
/// directory fsync). The fault plan's snapshot faults apply here too:
/// `snapshot_corrupt` flips a payload bit (the checksum must catch it on
/// load), `snapshot_kill_mid_write` abandons a half-written temp file
/// without renaming (the target name never holds a torn checkpoint).
pub fn save(path: &Path, cp: &Checkpoint, fault: &FaultPlan) -> io::Result<()> {
    write_atomic(path, cp.encode(), fault)
}

/// Loads a checkpoint, or `None` for *any* failure — missing file, torn
/// write, corruption, version skew. The caller treats `None` as "start
/// from unit 0"; it is never an error.
pub fn load(path: &Path) -> Option<Checkpoint> {
    let bytes = fs::read(path).ok()?;
    Checkpoint::decode(&bytes).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::UnitClass;

    fn sample() -> Checkpoint {
        let mut stats = SuiteStats::default();
        stats
            .family_mut("cone")
            .record(UnitClass::Ok, Some(0.97), Some(33));
        stats.record_quarantine("bad.aig", "aig: truncated");
        Checkpoint {
            config_fingerprint: 0xC0FFEE,
            cursor: 41,
            stats,
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let cp = sample();
        assert_eq!(Checkpoint::decode(&cp.encode()).unwrap(), cp);
    }

    #[test]
    fn save_load_and_fault_paths() {
        let dir = std::env::temp_dir().join("lsml-suite-ckpt-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.ckpt");
        let _ = fs::remove_file(&path);

        save(&path, &sample(), &FaultPlan::none()).unwrap();
        assert_eq!(load(&path).unwrap(), sample());

        let corrupt = FaultPlan {
            snapshot_corrupt: true,
            ..FaultPlan::none()
        };
        save(&path, &sample(), &corrupt).unwrap();
        assert!(load(&path).is_none(), "bit flip must not load");

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
    fn garbage_truncation_and_wrong_magic_never_panic() {
        assert!(Checkpoint::decode(b"").is_err());
        assert!(Checkpoint::decode(b"LSMLSNP1").is_err(), "snapshot magic");
        assert!(Checkpoint::decode(&[0xFF; 64]).is_err());
        let good = sample().encode();
        for cut in 0..good.len() {
            assert!(Checkpoint::decode(&good[..cut]).is_err(), "cut at {cut}");
        }
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        assert!(Checkpoint::decode(&flipped).is_err());
    }
}
