//! Smoke harness for the `lsml-suite` streaming sweep engine: a seeded
//! ~500-circuit sweep under an armed [`FaultPlan`] — injected per-circuit
//! panics, stalls and a mid-sweep kill — followed by a checkpoint resume
//! that must reproduce an uninterrupted reference run's stats
//! *bit-identically*, plus an external-ingestion phase over a corpus with
//! hostile files that must all end quarantined with reasons.
//!
//! The run panics — and the CI `suite-smoke` leg fails — if the resumed
//! stats diverge from the reference, if any unit ends unclassified, or if
//! a hostile file escapes quarantine. Results (accuracy/size distributions
//! by family, failure-class counts, timing) land in `BENCH_suite.json`.
//!
//! Set `LSML_FAULT_SEED` to pick the fault schedule (the CI leg does);
//! unset, a fixed seed keeps the fault phases armed.

use lsml_durable::fault::FaultPlan;
use lsml_suite::engine::{run, RunOutcome, SuiteConfig};
use lsml_suite::SuiteStats;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Generated units per family (5 families → a ~500-circuit sweep).
const UNITS_PER_FAMILY: u64 = 100;

fn scratch() -> PathBuf {
    let d = std::env::temp_dir().join(format!("lsml-suite-bench-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

/// External corpus: two healthy circuits, one garbage netlist, one file
/// over the ingest cap.
fn write_corpus(dir: &Path) {
    let mut g = lsml_aig::Aig::new(5);
    let mut acc = g.input(0);
    for i in 1..5 {
        let x = g.input(i);
        acc = g.xor(acc, x);
    }
    g.add_output(acc);
    let mut aag = Vec::new();
    lsml_aig::aiger::write_aag(&g, &mut aag).unwrap();
    fs::write(dir.join("a_parity.aag"), &aag).unwrap();
    let mut bench = Vec::new();
    lsml_aig::bench::write_bench(&g, &mut bench).unwrap();
    fs::write(dir.join("b_parity.bench"), &bench).unwrap();
    fs::write(dir.join("c_hostile.bench"), b"q0 = DFF(d)\n").unwrap();
    fs::write(dir.join("d_oversized.aag"), vec![b'@'; 64 << 10]).unwrap();
}

fn sweep_cfg(dir: &Path, fault: FaultPlan) -> SuiteConfig {
    SuiteConfig {
        units_per_family: UNITS_PER_FAMILY,
        samples: 96,
        deadline_ms: 500,
        external_dir: Some(dir.join("corpus")),
        ingest_max_bytes: 32 << 10,
        fault,
        ..SuiteConfig::default()
    }
}

fn completed(outcome: RunOutcome, what: &str) -> SuiteStats {
    match outcome {
        RunOutcome::Completed(stats) => stats,
        RunOutcome::Killed { processed } => {
            panic!("{what}: unexpected kill after {processed} units")
        }
    }
}

fn main() {
    let dir = scratch();
    fs::create_dir_all(dir.join("corpus")).unwrap();
    write_corpus(&dir.join("corpus"));

    let plan = {
        let env = FaultPlan::from_env();
        if env.armed() {
            env
        } else {
            FaultPlan::from_seed(0x5EED)
        }
    };
    println!("suite streaming sweep smoke:");
    println!(
        "  fault plan: seed {} circuit_panic_period {} circuit_stall_period {} circuit_kill_after {}",
        plan.seed, plan.circuit_panic_period, plan.circuit_stall_period, plan.circuit_kill_after
    );

    // --- Reference: the same faulty sweep, minus the kill, uninterrupted.
    let mut no_kill = plan.clone();
    no_kill.circuit_kill_after = 0;
    let t0 = Instant::now();
    let reference = completed(
        run(&sweep_cfg(&dir, no_kill.clone())).expect("reference sweep"),
        "reference",
    );
    let ref_s = t0.elapsed().as_secs_f64();
    let total = reference.total_units();
    println!(
        "  reference: {} units in {:.1}s ({:.0} units/s), {} failed, {} timed out, {} quarantined",
        total,
        ref_s,
        total as f64 / ref_s.max(1e-9),
        reference.families.values().map(|f| f.failed).sum::<u64>(),
        reference
            .families
            .values()
            .map(|f| f.timed_out)
            .sum::<u64>(),
        reference.quarantined,
    );

    // --- Kill-and-resume: die mid-sweep at the plan's index, restart with
    // the kill disarmed (the supervisor case), require identical stats.
    let ckpt = dir.join("sweep.ckpt");
    let mut cfg = sweep_cfg(&dir, plan.clone());
    cfg.checkpoint_path = Some(ckpt.clone());
    cfg.checkpoint_every = 25;
    let t1 = Instant::now();
    let killed_at = match run(&cfg).expect("killed sweep") {
        RunOutcome::Killed { processed } => processed,
        RunOutcome::Completed(_) => panic!(
            "kill at {} must fire inside a {}-unit sweep",
            plan.circuit_kill_after, total
        ),
    };
    cfg.fault.circuit_kill_after = 0;
    let resumed = completed(run(&cfg).expect("resumed sweep"), "resume");
    let resume_s = t1.elapsed().as_secs_f64();
    assert_eq!(
        resumed, reference,
        "kill-and-resume must reproduce the uninterrupted run bit-identically"
    );
    println!(
        "  kill at unit {killed_at} + resume: {:.1}s, stats bit-identical to reference",
        resume_s
    );

    // --- Conservation under faults: an injected panic/stall may land on an
    // external unit (classifying it before ingestion), but every one of the
    // 4 corpus files must end classified *somewhere*.
    assert_eq!(
        reference.quarantined + reference.families["external"].total(),
        4,
        "every external file classified"
    );

    // --- Ingestion phase (no faults): hostile files quarantined with
    // reasons, healthy files swept — deterministic regardless of the seed.
    let ingest_only = SuiteConfig {
        units_per_family: 0,
        ..sweep_cfg(&dir, FaultPlan::none())
    };
    let ingested = completed(run(&ingest_only).expect("ingest sweep"), "ingest");
    assert_eq!(ingested.quarantined, 2, "both hostile files quarantined");
    for (file, reason) in &ingested.quarantine_log {
        assert!(!reason.is_empty(), "{file}: quarantined without a reason");
        println!("  quarantined {file}: {reason}");
    }
    assert_eq!(
        ingested.families["external"].total(),
        2,
        "both healthy external files swept"
    );

    // --- Every unit classified (the streaming invariant).
    assert_eq!(
        total,
        5 * UNITS_PER_FAMILY + 4,
        "no unit lost or unclassified"
    );
    let scored: u64 = reference.families.values().map(|f| f.acc_n).sum();
    assert!(scored > 0, "some units must reach scoring");

    // --- BENCH_suite.json: the sweep stats plus harness metadata.
    let json = format!(
        concat!(
            "{{\n  \"fault_seed\": {},\n  \"killed_at\": {},\n",
            "  \"reference_seconds\": {:.2},\n  \"resume_seconds\": {:.2},\n",
            "  \"resume_bit_identical\": true,\n  \"sweep\": {}\n}}\n"
        ),
        plan.seed,
        killed_at,
        ref_s,
        resume_s,
        resumed.to_json()
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_suite.json");
    fs::write(out, json).expect("write BENCH_suite.json");
    println!("wrote {out}");
    let _ = fs::remove_dir_all(&dir);
}
