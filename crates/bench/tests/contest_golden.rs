//! The whole contest, pinned end to end: the FNV-1a hash of
//! `full_report`'s stdout (Fig. 1, Table III, Figs. 2–4 and the
//! per-benchmark table; progress goes to stderr) at 64 samples, over the
//! first 6 benchmarks and over all 100. All ten teams feed that output, so
//! a change to any learner, pass or score that moves one number fails here.
//!
//! The binary inherits the caller's `LSML_NUM_THREADS`, `LSML_FORCE_SCALAR`
//! and `LSML_CHECK`, so each CI test leg also checks that the output does
//! not depend on the pool width, the kernel backend or the verifiers.
//!
//! The 100-benchmark case is ignored because a debug build takes minutes;
//! run it in release:
//! `cargo test --release -p lsml-bench --test contest_golden -- --ignored`.
//!
//! A change that moves contest output on purpose re-records the pins: the
//! failure message prints the new length and hash, then the stdout they
//! were taken from.

use std::process::Command;

use lsml_aig::fxhash::fnv1a;

/// Runs `full_report` on the first `bench_count` benchmarks at 64 samples
/// (seed 0) and asserts its stdout's byte length and FNV-1a.
fn assert_full_report_pinned(bench_count: &str, golden_len: usize, golden_fnv1a: u64) {
    let out = Command::new(env!("CARGO_BIN_EXE_full_report"))
        .env("LSML_SAMPLES", "64")
        .env("LSML_BENCH_COUNT", bench_count)
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
        out.stdout.len() == golden_len && hash == golden_fnv1a,
        "contest output moved: {} bytes, fnv1a {hash:#018x} \
         (pinned: {golden_len} bytes, {golden_fnv1a:#018x}). \
         The Fig. 2 rows and the per-benchmark table show which team moved:\n{}",
        out.stdout.len(),
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn full_report_stdout_is_pinned() {
    assert_full_report_pinned("6", 3406, 0xde70_4609_6d26_677b);
}

#[test]
#[ignore = "minutes in a debug build; CI runs it in release"]
fn full_report_stdout_is_pinned_on_all_100_benchmarks() {
    assert_full_report_pinned("100", 10_877, 0x5a50_78ac_c00e_2d29);
}
