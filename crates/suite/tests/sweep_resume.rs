//! The tentpole guarantees, end to end: a sweep over a corpus containing
//! panicking, stalling, oversized and unparseable units completes with
//! every failure classified; an injected mid-sweep kill plus resume
//! reproduces the uninterrupted run's stats bit-identically; and a
//! trashed checkpoint degrades to a cold start, never a crash.

use lsml_durable::fault::FaultPlan;
use lsml_suite::checkpoint;
use lsml_suite::engine::{run, Limits, RunOutcome, SuiteConfig};
use std::fs;
use std::path::{Path, PathBuf};

/// A scratch dir unique to this test binary run.
fn scratch(name: &str) -> PathBuf {
    let d = std::env::temp_dir()
        .join("lsml-suite-resume-test")
        .join(format!("{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

/// An external corpus: two valid files, one garbage netlist, one file over
/// the ingest cap. Names sort into a stable unit order.
fn write_corpus(dir: &Path) {
    let mut g = lsml_aig::Aig::new(4);
    let (a, b, c) = (g.input(0), g.input(1), g.input(2));
    let x = g.and(a, b);
    let y = g.xor(x, c);
    g.add_output(y);
    let mut aag = Vec::new();
    lsml_aig::aiger::write_aag(&g, &mut aag).unwrap();
    fs::write(dir.join("a_valid.aag"), &aag).unwrap();
    let mut bench = Vec::new();
    lsml_aig::bench::write_bench(&g, &mut bench).unwrap();
    fs::write(dir.join("b_valid.bench"), &bench).unwrap();
    fs::write(dir.join("c_garbage.bench"), b"x = FLIPFLOP(y)\n").unwrap();
    fs::write(dir.join("d_huge.aag"), vec![b'!'; 8192]).unwrap();
}

/// The gauntlet config: every failure mode armed at once.
fn gauntlet_cfg(dir: &Path) -> SuiteConfig {
    SuiteConfig {
        units_per_family: 4,
        samples: 48,
        deadline_ms: 200,
        external_dir: Some(dir.join("corpus")),
        ingest_max_bytes: 4096,
        limits: Limits {
            max_inputs: 16,
            max_nodes: 4096,
        },
        fault: FaultPlan {
            circuit_panic_period: 9,
            circuit_stall_period: 11,
            ..FaultPlan::none()
        },
        ..SuiteConfig::default()
    }
}

#[test]
fn kill_and_resume_matches_uninterrupted_run_exactly() {
    let dir = scratch("resume");
    fs::create_dir_all(dir.join("corpus")).unwrap();
    write_corpus(&dir.join("corpus"));

    // Uninterrupted reference: same sweep, no kill, no checkpoint.
    let reference = match run(&gauntlet_cfg(&dir)).unwrap() {
        RunOutcome::Completed(stats) => stats,
        RunOutcome::Killed { .. } => panic!("no kill configured"),
    };
    // 5 families x 4 + 4 external files.
    assert_eq!(reference.total_units(), 24);

    // Same sweep, killed before unit 13 with checkpoints every 5 units.
    let ckpt = dir.join("sweep.ckpt");
    let mut cfg = SuiteConfig {
        checkpoint_path: Some(ckpt.clone()),
        checkpoint_every: 5,
        ..gauntlet_cfg(&dir)
    };
    cfg.fault.circuit_kill_after = 13;
    assert_eq!(run(&cfg).unwrap(), RunOutcome::Killed { processed: 13 });
    let cp = checkpoint::load(&ckpt).expect("periodic checkpoint must exist");
    assert_eq!(cp.cursor, 10, "last flush before the kill at 13");

    // The supervisor restart: kill disarmed, same checkpoint.
    cfg.fault.circuit_kill_after = 0;
    let resumed = match run(&cfg).unwrap() {
        RunOutcome::Completed(stats) => stats,
        RunOutcome::Killed { .. } => panic!("kill is disarmed"),
    };
    assert_eq!(
        resumed, reference,
        "resumed stats must be bit-identical to the uninterrupted run"
    );
    let final_cp = checkpoint::load(&ckpt).unwrap();
    assert_eq!(final_cp.cursor, 24);
    assert_eq!(final_cp.stats, reference);
}

#[test]
fn gauntlet_classifies_every_failure_mode() {
    let dir = scratch("gauntlet");
    fs::create_dir_all(dir.join("corpus")).unwrap();
    write_corpus(&dir.join("corpus"));
    let stats = match run(&gauntlet_cfg(&dir)).unwrap() {
        RunOutcome::Completed(stats) => stats,
        RunOutcome::Killed { .. } => panic!("gauntlet must complete"),
    };

    assert_eq!(stats.total_units(), 24, "every unit accounted for");
    let failed: u64 = stats.families.values().map(|f| f.failed).sum();
    let timed_out: u64 = stats.families.values().map(|f| f.timed_out).sum();
    // 24 units: panics at 8, 17 (period 9); stalls at 10, 21 (period 11).
    assert_eq!(failed, 2, "injected panics classified Failed");
    assert_eq!(timed_out, 2, "injected stalls classified TimedOut");

    // The two bad external files are quarantined with reasons; the two
    // valid ones are swept (one unit at index 21 stalls — still counted
    // under external).
    assert_eq!(stats.quarantined, 2);
    let reasons: Vec<&str> = stats
        .quarantine_log
        .iter()
        .map(|(f, r)| {
            assert!(!r.is_empty(), "{f}: empty reason");
            f.as_str()
        })
        .collect();
    assert_eq!(reasons, ["c_garbage.bench", "d_huge.aag"]);
    let (_, huge_reason) = &stats.quarantine_log[1];
    assert!(huge_reason.contains("ingest cap"), "{huge_reason}");
    assert_eq!(stats.families["external"].total(), 2);

    // JSON output carries the classification.
    let json = stats.to_json();
    assert!(json.contains("\"total_units\":24"), "{json}");
    assert!(json.contains("c_garbage.bench"), "{json}");
}

#[test]
fn trashed_or_foreign_checkpoints_cold_start() {
    let dir = scratch("coldstart");
    let ckpt = dir.join("sweep.ckpt");
    let cfg = SuiteConfig {
        units_per_family: 2,
        samples: 32,
        checkpoint_path: Some(ckpt.clone()),
        checkpoint_every: 3,
        ..SuiteConfig::default()
    };

    // Garbage under the checkpoint name: the sweep must run from unit 0.
    fs::write(&ckpt, b"not a checkpoint at all").unwrap();
    let RunOutcome::Completed(first) = run(&cfg).unwrap() else {
        panic!("must complete");
    };
    assert_eq!(first.total_units(), 10);

    // A finished checkpoint from a *different* config (other seed) must be
    // discarded, not resumed into: the new sweep again covers all units.
    let other = SuiteConfig {
        seed: cfg.seed + 1,
        ..cfg.clone()
    };
    let RunOutcome::Completed(second) = run(&other).unwrap() else {
        panic!("must complete");
    };
    assert_eq!(
        second.total_units(),
        10,
        "foreign checkpoint must not shortcut the sweep"
    );
}
