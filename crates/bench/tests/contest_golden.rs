//! The whole contest, pinned end to end: the FNV-1a hash of
//! `full_report`'s stdout (Fig. 1, Table III, Figs. 2–4 and the
//! per-benchmark table; progress goes to stderr) at 6 benchmarks × 64
//! samples. All ten teams feed that output, so a change to any learner,
//! pass or score that moves one number fails here.
//!
//! The binary inherits the caller's `LSML_NUM_THREADS`, `LSML_FORCE_SCALAR`
//! and `LSML_CHECK`, so each CI test leg also checks that the output does
//! not depend on the pool width, the kernel backend or the verifiers.
//!
//! A change that moves contest output on purpose re-records the pin: the
//! failure message prints the new length and hash, then the stdout they
//! were taken from.

use std::process::Command;

use lsml_aig::fxhash::fnv1a;

/// Byte length of the pinned stdout.
const GOLDEN_LEN: usize = 3406;
/// FNV-1a of the pinned stdout.
const GOLDEN_FNV1A: u64 = 0xde70_4609_6d26_677b;

#[test]
fn full_report_stdout_is_pinned() {
    let out = Command::new(env!("CARGO_BIN_EXE_full_report"))
        .env("LSML_SAMPLES", "64")
        .env("LSML_BENCH_COUNT", "6")
        .env("LSML_SEED", "0")
        .output()
        .expect("spawn full_report");
    assert!(
        out.status.success(),
        "full_report failed ({}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let hash = fnv1a(&out.stdout);
    assert!(
        out.stdout.len() == GOLDEN_LEN && hash == GOLDEN_FNV1A,
        "contest output moved: {} bytes, fnv1a {hash:#018x} \
         (pinned: {GOLDEN_LEN} bytes, {GOLDEN_FNV1A:#018x}). \
         The Fig. 2 rows and the per-benchmark table show which team moved:\n{}",
        out.stdout.len(),
        String::from_utf8_lossy(&out.stdout)
    );
}
