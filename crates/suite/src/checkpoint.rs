//! Resumable sweep checkpoints.
//!
//! Every N circuits the engine persists `(config fingerprint, cursor,
//! stats)` as a sealed file ([`lsml_durable::seal`]) written with
//! [`lsml_durable::write_atomic`]: checksummed payload, temp file, `fsync`,
//! atomic rename, directory `fsync`. Because unit seeds are counter-derived
//! ([`crate::family`]), the cursor *is* the RNG stream state — nothing else
//! needs saving for a resumed sweep to be bit-identical to an uninterrupted
//! one.
//!
//! Loading never trusts the file: any defect (missing, torn, bit-flipped,
//! version skew, or a checkpoint from a *different sweep configuration*)
//! yields `None` and the sweep restarts from unit 0. A bad checkpoint
//! costs progress, never correctness and never a panic.

use crate::stats::SuiteStats;
use lsml_durable::{open, seal};
use std::fs;
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
        seal(MAGIC, VERSION, &payload)
    }

    /// Decodes and verifies checkpoint bytes; must never panic on
    /// arbitrary input.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, String> {
        let mut p = open(MAGIC, VERSION, bytes)?;
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
    fn encoded_bytes_are_pinned() {
        // Checkpoints written by earlier builds must keep resuming, so the
        // on-disk bytes never change without a VERSION bump.
        let bytes = sample().encode();
        assert_eq!(bytes.len(), 281);
        assert_eq!(lsml_aig::fxhash::fnv1a(&bytes), 0xbb7b_1e29_9861_14c7);
    }

    #[test]
    fn encode_decode_round_trip() {
        let cp = sample();
        assert_eq!(Checkpoint::decode(&cp.encode()).unwrap(), cp);
    }

    #[test]
    fn save_load_and_fault_paths() {
        use lsml_durable::fault::FaultPlan;
        use lsml_durable::write_atomic;

        let dir = std::env::temp_dir().join("lsml-suite-ckpt-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.ckpt");
        let _ = fs::remove_file(&path);

        write_atomic(&path, sample().encode(), &FaultPlan::none()).unwrap();
        assert_eq!(load(&path).unwrap(), sample());

        let corrupt = FaultPlan {
            snapshot_corrupt: true,
            ..FaultPlan::none()
        };
        write_atomic(&path, sample().encode(), &corrupt).unwrap();
        assert!(load(&path).is_none(), "bit flip must not load");

        let _ = fs::remove_file(&path);
        let kill = FaultPlan {
            snapshot_kill_mid_write: true,
            ..FaultPlan::none()
        };
        write_atomic(&path, sample().encode(), &kill).unwrap();
        assert!(!path.exists(), "killed write must never reach the target");
        assert!(load(&path).is_none());
        let _ = fs::remove_file(dir.join("sweep.ckpt.tmp"));
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
        // A huge declared length is rejected, not an overflow.
        let huge = [&MAGIC[..], &VERSION.to_le_bytes(), &u64::MAX.to_le_bytes()].concat();
        assert!(Checkpoint::decode(&huge).is_err());
    }
}
