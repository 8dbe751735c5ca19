//! `lsml-durable` — the crash-safe file discipline under the daemon's
//! warm-start snapshots (`lsml-serve`) and the sweep's resumable
//! checkpoints (`lsml-suite`).
//!
//! * [`seal`] / [`open`] — the sealed-file layout, all little-endian:
//!
//!   ```text
//!   magic | version u32 | len u64 | payload (len bytes) | fnv1a(payload) u64
//!   ```
//!
//!   Loading never trusts the file: [`open`] checks magic, version, length
//!   and checksum before a payload byte is decoded, and never panics on
//!   arbitrary bytes. A torn, truncated, bit-flipped or version-skewed file
//!   is an `Err` the caller turns into a cold start.
//! * [`write_atomic`] — encode to bytes, write a sibling temp file,
//!   `fsync`, atomically rename over the target, then `fsync` the
//!   directory (on Unix) so the rename itself is durable. A crash at any
//!   point leaves either the old file or a stray temp file — never a
//!   half-written file under the real name.
//! * [`wire::Wire`] — the bounds-checked reader every decoder uses.
//! * [`fault::FaultPlan`] — the deterministic `LSML_FAULT_SEED` schedule,
//!   whose write faults [`write_atomic`] applies.
//!
//! Each codec keeps only its payload; the framing lives here once.

pub mod fault;
pub mod wire;

use fault::FaultPlan;
use lsml_aig::fxhash::fnv1a;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use wire::Wire;

/// Frames `payload` as a sealed file: `magic | version | len | payload |
/// checksum`. Inverse of [`open`].
pub fn seal(magic: &[u8], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(magic.len() + 12 + payload.len() + 8);
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out
}

/// Verifies a sealed file and returns a reader over its payload. Any
/// defect — bad magic, version skew, a length that disagrees with the file,
/// checksum mismatch — is an `Err`; this function never panics on arbitrary
/// bytes.
pub fn open<'a>(magic: &[u8], version: u32, bytes: &'a [u8]) -> Result<Wire<'a>, String> {
    let mut w = Wire::new(bytes);
    if w.bytes(magic.len())? != magic {
        return Err("bad magic".into());
    }
    let found = w.u32()?;
    if found != version {
        return Err(format!("version {found}, expected {version}"));
    }
    // The declared length is untrusted: compare it against what the file
    // holds without computing `len + 8`, which can overflow.
    let len = w.u64()?;
    if w.remaining().checked_sub(8).map(|n| n as u64) != Some(len) {
        return Err(format!(
            "torn file: header says {len}B payload + 8B checksum, file has {}B",
            w.remaining()
        ));
    }
    let payload = w.bytes(len as usize)?;
    let want = w.u64()?;
    let got = fnv1a(payload);
    if want != got {
        return Err(format!(
            "checksum mismatch: stored {want:#x}, computed {got:#x}"
        ));
    }
    Ok(Wire::new(payload))
}

/// Writes checksummed `bytes` to `path` crash-safely: sibling temp file
/// `<file name>.tmp`, `fsync`, atomic rename, then `fsync` of the
/// directory. The fault plan can corrupt the bytes (simulating a
/// torn/bit-flipped write) or abandon the write mid-way (simulating a kill)
/// — both leave the *target* path in a state a checksum-verifying loader
/// handles: the corrupt bytes fail the checksum, the abandoned write never
/// reaches the target name at all.
pub fn write_atomic(path: &Path, mut bytes: Vec<u8>, fault: &FaultPlan) -> io::Result<()> {
    if fault.snapshot_corrupt && !bytes.is_empty() {
        // Flip one payload bit; the checksum must catch it on load.
        let i = bytes.len() / 2;
        bytes[i] ^= 0x10;
    }
    // `<file name>.tmp` is never the target itself, even for a target
    // that ends in `.tmp`, and differs for `a.snap` and `a.ckpt` in one
    // directory.
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = fs::File::create(&tmp)?;
        if fault.snapshot_kill_mid_write {
            // Simulated kill: half the bytes land, no fsync, no rename. The
            // stray temp file must never be mistaken for the target.
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

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"LSMLTST1";

    #[test]
    fn open_inverts_seal_and_rejects_every_defect() {
        let file = seal(MAGIC, 3, b"payload");
        let mut w = open(MAGIC, 3, &file).unwrap();
        assert_eq!(w.bytes(7).unwrap(), b"payload");
        assert_eq!(w.remaining(), 0);
        assert!(open(b"LSMLTST2", 3, &file).is_err(), "magic");
        assert!(open(MAGIC, 4, &file).is_err(), "version");
        for cut in 0..file.len() {
            assert!(open(MAGIC, 3, &file[..cut]).is_err(), "cut at {cut}");
        }
        let mut longer = file.clone();
        longer.push(0);
        assert!(open(MAGIC, 3, &longer).is_err(), "trailing byte");
        for i in 0..file.len() {
            let mut flipped = file.clone();
            flipped[i] ^= 0x01;
            assert!(open(MAGIC, 3, &flipped).is_err(), "flip at {i}");
        }
        // A huge declared length must be rejected, not overflow.
        let mut huge = MAGIC.to_vec();
        huge.extend_from_slice(&3u32.to_le_bytes());
        huge.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(open(MAGIC, 3, &huge).is_err());
        huge.extend_from_slice(&[0; 8]);
        assert!(open(MAGIC, 3, &huge).is_err());
    }

    #[test]
    fn write_atomic_never_leaves_a_torn_target() {
        let dir = std::env::temp_dir().join("lsml-durable-test");
        fs::create_dir_all(&dir).unwrap();
        let bytes = seal(MAGIC, 1, &[7; 100]);
        let corrupt = FaultPlan {
            snapshot_corrupt: true,
            ..FaultPlan::none()
        };
        let kill = FaultPlan {
            snapshot_kill_mid_write: true,
            ..FaultPlan::none()
        };
        // Including a target that itself ends in `.tmp`, and one with no
        // extension at all.
        for name in ["unit.snap", "unit.tmp", "unit"] {
            let path = dir.join(name);
            let tmp = dir.join(format!("{name}.tmp"));
            let _ = fs::remove_file(&path);
            let _ = fs::remove_file(&tmp);

            // Clean write → the exact bytes, no temp file left behind.
            write_atomic(&path, bytes.clone(), &FaultPlan::none()).unwrap();
            assert_eq!(fs::read(&path).unwrap(), bytes, "{name}");
            assert!(!tmp.exists(), "{name}");

            // Corrupting fault → the checksum rejects the file.
            write_atomic(&path, bytes.clone(), &corrupt).unwrap();
            assert!(open(MAGIC, 1, &fs::read(&path).unwrap()).is_err());

            // Mid-write kill → the target keeps its previous bytes (here the
            // corrupt ones) and only the temp file holds the torn half.
            let before = fs::read(&path).unwrap();
            write_atomic(&path, bytes.clone(), &kill).unwrap();
            assert_eq!(fs::read(&path).unwrap(), before, "{name}");
            assert_eq!(fs::read(&tmp).unwrap(), bytes[..bytes.len() / 2]);

            // A killed first write never creates the target at all.
            fs::remove_file(&path).unwrap();
            write_atomic(&path, bytes.clone(), &kill).unwrap();
            assert!(!path.exists(), "{name}: killed write reached the target");
            fs::remove_file(&tmp).unwrap();
        }
    }
}
