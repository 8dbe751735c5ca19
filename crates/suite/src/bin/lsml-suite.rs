//! `lsml-suite` — run a streaming circuit sweep from the command line.
//!
//! Configuration is entirely environment-driven (`LSML_SUITE_*`,
//! `LSML_INGEST_MAX_BYTES`, `LSML_FAULT_SEED`; see the knob table in
//! `lsml_aig::par`). The binary runs the sweep, auto-resumes once if the
//! fault plan's injected kill fires (disarming the kill, exactly as a
//! supervisor restarting a dead process would), and writes the final stats
//! to the output JSON.

use lsml_suite::engine::{run, RunOutcome, SuiteConfig};
use lsml_suite::ingest;
use std::path::PathBuf;
use std::process::ExitCode;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

fn env_path(name: &str) -> Option<PathBuf> {
    std::env::var(name)
        .ok()
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
}

fn main() -> ExitCode {
    let cfg = SuiteConfig {
        units_per_family: env_u64("LSML_SUITE_UNITS", 20),
        seed: env_u64("LSML_SUITE_SEED", 1),
        deadline_ms: env_u64("LSML_SUITE_DEADLINE_MS", 5_000),
        samples: env_u64("LSML_SUITE_SAMPLES", 256) as usize,
        node_limit: env_u64("LSML_SUITE_NODE_LIMIT", 300) as usize,
        external_dir: env_path("LSML_SUITE_EXTERNAL"),
        checkpoint_path: env_path("LSML_SUITE_CHECKPOINT"),
        checkpoint_every: env_u64("LSML_SUITE_CHECKPOINT_EVERY", 64),
        ingest_max_bytes: ingest::max_bytes_from_env(),
        fault: lsml_durable::fault::FaultPlan::from_env(),
        ..SuiteConfig::default()
    };
    let out = env_path("LSML_SUITE_OUT").unwrap_or_else(|| PathBuf::from("BENCH_suite.json"));

    let mut attempt = cfg.clone();
    let stats = loop {
        match run(&attempt) {
            Ok(RunOutcome::Completed(stats)) => break stats,
            Ok(RunOutcome::Killed { processed }) => {
                eprintln!(
                    "lsml-suite: injected kill after {processed} units (LSML_FAULT_SEED={}); resuming",
                    attempt.fault.seed
                );
                if attempt.checkpoint_path.is_none() {
                    eprintln!("lsml-suite: no checkpoint configured, resume restarts from unit 0");
                }
                // The supervisor's restart: same config, kill disarmed.
                attempt.fault.circuit_kill_after = 0;
            }
            Err(e) => {
                eprintln!("lsml-suite: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let json = stats.to_json();
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("lsml-suite: writing {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!(
        "lsml-suite: {} units swept, {} quarantined -> {}",
        stats.total_units(),
        stats.quarantined,
        out.display()
    );
    ExitCode::SUCCESS
}
