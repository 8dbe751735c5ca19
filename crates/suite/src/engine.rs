//! The streaming sweep engine: construct → compile → score → discard.
//!
//! A sweep is a single global sequence of *units*: first
//! `families × units_per_family` generated circuits (family-major, so unit
//! `i` maps to family `i / units_per_family`, index `i % units_per_family`),
//! then the external files of `external_dir` in sorted name order. Each
//! unit is reconstructed from the sweep seed and its index alone —
//! nothing is retained between units except the [`SuiteStats`]
//! accumulator, which is what keeps a 100k-unit sweep in constant memory
//! and makes the checkpoint cursor a complete resume point.
//!
//! # Isolation boundary
//!
//! Every unit runs inside `catch_unwind` + [`with_token`]:
//!
//! * a panic (real or injected) classifies the unit `Failed`;
//! * the per-circuit deadline ([`SuiteConfig::deadline_ms`]) fires the
//!   token and the unit classifies `TimedOut` — and because the compile
//!   caches skip inserts under a fired token, a timed-out compile is never
//!   memoized;
//! * the resource governor ([`Limits`]) rejects oversized units as
//!   `Skipped` before any expensive work;
//! * an unparseable external file is `Quarantined` with its reason.
//!
//! Nothing short of `SIGKILL` aborts the sweep — and that case is what the
//! checkpoints are for.
//!
//! # Fault injection
//!
//! The [`FaultPlan`]'s per-circuit points are decided by global unit index,
//! so a fault schedule is a pure function of `LSML_FAULT_SEED`:
//! `circuit_panic_period` / `circuit_stall_period` fire inside the
//! isolation boundary (exercising the real containment paths), and
//! `circuit_kill_after` returns [`RunOutcome::Killed`] *before* processing
//! that unit and *without* flushing a checkpoint — the harshest crash the
//! resume path must survive. A resuming caller disarms the kill
//! (`circuit_kill_after = 0`) or the engine will faithfully die at the
//! same index again.

use crate::checkpoint::{self, Checkpoint};
use crate::family::{FamilySpec, UnitOracle};
use crate::ingest::{self, IngestError};
use crate::stats::{SuiteStats, UnitClass};
use lsml_aig::cancel::{with_token, CancelToken};
use lsml_aig::fxhash::fnv1a;
use lsml_aig::Aig;
use lsml_core::problem::LearnedCircuit;
use lsml_core::SizeBudget;
use lsml_dtree::tree::{DecisionTree, TreeConfig};
use lsml_durable::fault::FaultPlan;
use lsml_durable::write_atomic;
use lsml_pla::{Dataset, Pattern};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::thread;
use std::time::Duration;

/// The resource governor's caps: units past either bound classify
/// `Skipped` before any expensive work happens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Limits {
    /// Maximum input arity a unit may have.
    pub max_inputs: usize,
    /// Maximum AND-gate count of the circuit handed to the compiler.
    pub max_nodes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_inputs: 24,
            max_nodes: 4096,
        }
    }
}

/// One sweep's full configuration.
#[derive(Clone, Debug)]
pub struct SuiteConfig {
    /// The generated circuit families, swept in order.
    pub families: Vec<FamilySpec>,
    /// Generated units per family.
    pub units_per_family: u64,
    /// Directory of external `.aag`/`.aig`/`.bench` files to ingest after
    /// the generated units (`None` = generated only).
    pub external_dir: Option<PathBuf>,
    /// The sweep seed every unit seed derives from.
    pub seed: u64,
    /// Per-circuit deadline in milliseconds (`LSML_SUITE_DEADLINE_MS`).
    pub deadline_ms: u64,
    /// AND-gate budget handed to the compiler.
    pub node_limit: usize,
    /// Training and test sample count per generated unit.
    pub samples: usize,
    /// Checkpoint file (`None` = no checkpoints, no resume).
    pub checkpoint_path: Option<PathBuf>,
    /// Flush a checkpoint every N units (`LSML_SUITE_CHECKPOINT_EVERY`;
    /// 0 disables periodic flushes, the final flush still happens).
    pub checkpoint_every: u64,
    /// The resource governor's caps.
    pub limits: Limits,
    /// Ingestion byte cap for external files (`LSML_INGEST_MAX_BYTES`).
    pub ingest_max_bytes: u64,
    /// Deterministic fault schedule (see [`FaultPlan`]).
    pub fault: FaultPlan,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            families: crate::family::default_families(),
            units_per_family: 20,
            external_dir: None,
            seed: 1,
            deadline_ms: 5_000,
            node_limit: 300,
            samples: 256,
            checkpoint_path: None,
            checkpoint_every: 64,
            limits: Limits::default(),
            ingest_max_bytes: 8 << 20,
            fault: FaultPlan::none(),
        }
    }
}

impl SuiteConfig {
    /// Fingerprint of everything that shapes the sweep's *results*:
    /// families, unit counts, seed, budgets, deadline, governor caps, and
    /// the resolved external file list. A checkpoint from a different
    /// fingerprint is discarded — resuming must never splice stats from
    /// two different sweeps. Fault plan and checkpoint cadence are
    /// deliberately excluded: they change *when* the sweep stops, not what
    /// the units compute, and resume-after-kill relies on the disarmed
    /// plan fingerprinting identically.
    fn fingerprint(&self, externals: &[PathBuf]) -> u64 {
        let mut bytes = Vec::new();
        for v in [
            self.units_per_family,
            self.seed,
            self.deadline_ms,
            self.node_limit as u64,
            self.samples as u64,
            self.limits.max_inputs as u64,
            self.limits.max_nodes as u64,
            self.ingest_max_bytes,
        ] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        for fam in &self.families {
            bytes.extend_from_slice(fam.name.as_bytes());
            bytes.push(0);
            bytes.push(fam.kind as u8);
        }
        for p in externals {
            bytes.extend_from_slice(p.to_string_lossy().as_bytes());
            bytes.push(0);
        }
        fnv1a(&bytes)
    }

    fn generated_units(&self) -> u64 {
        self.families.len() as u64 * self.units_per_family
    }
}

/// How a sweep ended.
#[derive(Debug, PartialEq)]
pub enum RunOutcome {
    /// Every unit processed; the final stats (also flushed to the
    /// checkpoint, when one is configured).
    Completed(SuiteStats),
    /// The fault plan's `circuit_kill_after` fired: the process "died"
    /// before unit `processed`, with no checkpoint flush for the units
    /// since the last periodic one. Resume by calling [`run`] again with
    /// the kill disarmed.
    Killed {
        /// Units fully processed before the kill.
        processed: u64,
    },
}

/// What one unit's work function reports back across the isolation
/// boundary.
struct UnitOutcome {
    class: UnitClass,
    accuracy: Option<f64>,
    size: Option<u64>,
}

impl UnitOutcome {
    fn bare(class: UnitClass) -> UnitOutcome {
        UnitOutcome {
            class,
            accuracy: None,
            size: None,
        }
    }
}

/// Runs (or resumes) a sweep. See the [module docs](self) for the unit
/// sequence, isolation guarantees and fault semantics.
///
/// # Errors
///
/// Only environment failures surface as `Err`: an unreadable external
/// directory or an unwritable checkpoint path. Per-unit failures of any
/// kind are classified into the stats, never errors.
pub fn run(cfg: &SuiteConfig) -> io::Result<RunOutcome> {
    let externals = list_externals(cfg)?;
    let total = cfg.generated_units() + externals.len() as u64;
    let fingerprint = cfg.fingerprint(&externals);

    let (mut cursor, mut stats) = match cfg.checkpoint_path.as_deref().and_then(checkpoint::load) {
        Some(cp) if cp.config_fingerprint == fingerprint && cp.cursor <= total => {
            (cp.cursor, cp.stats)
        }
        // Missing, torn, corrupt, version-skewed, or from a different
        // sweep: cold-start from unit 0.
        _ => (0, SuiteStats::default()),
    };

    while cursor < total {
        // The injected crash: die *before* this unit, *without* flushing.
        if cfg.fault.circuit_kill_after != 0 && cursor == cfg.fault.circuit_kill_after {
            return Ok(RunOutcome::Killed { processed: cursor });
        }
        process_unit(cfg, &externals, cursor, &mut stats);
        cursor += 1;
        if cfg.checkpoint_every != 0 && cursor % cfg.checkpoint_every == 0 {
            flush(cfg, fingerprint, cursor, &stats)?;
        }
    }
    flush(cfg, fingerprint, cursor, &stats)?;
    Ok(RunOutcome::Completed(stats))
}

fn flush(cfg: &SuiteConfig, fingerprint: u64, cursor: u64, stats: &SuiteStats) -> io::Result<()> {
    if let Some(path) = &cfg.checkpoint_path {
        let cp = Checkpoint {
            config_fingerprint: fingerprint,
            cursor,
            stats: stats.clone(),
        };
        write_atomic(path, cp.encode(), &cfg.fault)?;
    }
    Ok(())
}

/// The external files of `external_dir`, sorted by file name for a stable
/// global unit order.
fn list_externals(cfg: &SuiteConfig) -> io::Result<Vec<PathBuf>> {
    let Some(dir) = &cfg.external_dir else {
        return Ok(Vec::new());
    };
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    Ok(files)
}

fn process_unit(cfg: &SuiteConfig, externals: &[PathBuf], index: u64, stats: &mut SuiteStats) {
    let plan = &cfg.fault;
    // 1-based so period N means "every Nth unit", matching the daemon's
    // request fault points.
    let inject_panic =
        plan.circuit_panic_period != 0 && (index + 1).is_multiple_of(plan.circuit_panic_period);
    let inject_stall =
        plan.circuit_stall_period != 0 && (index + 1).is_multiple_of(plan.circuit_stall_period);
    let token = CancelToken::with_budget(Duration::from_millis(cfg.deadline_ms));

    let n_gen = cfg.generated_units();
    if index < n_gen {
        let fam = &cfg.families[(index / cfg.units_per_family) as usize];
        let unit = index % cfg.units_per_family;
        let work = || Ok(generated_unit(cfg, fam, unit, &token));
        // Only an external file can be rejected; a generated unit always
        // ends in an outcome.
        if let Ok(outcome) = isolated(&token, inject_panic, inject_stall, work) {
            stats
                .family_mut(&fam.name)
                .record(outcome.class, outcome.accuracy, outcome.size);
        }
    } else {
        // Ingestion runs inside the same boundary: the parsers are proven
        // never-panic, but a quarantine decision still deserves the belt
        // *and* the suspenders.
        let path = &externals[(index - n_gen) as usize];
        let work = || {
            ingest::read_circuit(path, cfg.ingest_max_bytes)
                .map(|aig| external_unit(cfg, aig, &token))
        };
        match isolated(&token, inject_panic, inject_stall, work) {
            Ok(outcome) => {
                stats
                    .family_mut("external")
                    .record(outcome.class, outcome.accuracy, outcome.size);
            }
            Err(err) => {
                let name = path
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_else(|| path.to_string_lossy().into_owned());
                stats.record_quarantine(&name, &err.to_string());
            }
        }
    }
}

/// Runs `work` inside the unit isolation boundary, applying the injected
/// faults *inside* it so they exercise the real containment paths. A panic
/// classifies the unit `Failed`; an `Err` (an unparseable external file)
/// passes through for quarantine.
fn isolated(
    token: &CancelToken,
    inject_panic: bool,
    inject_stall: bool,
    work: impl FnOnce() -> Result<UnitOutcome, IngestError>,
) -> Result<UnitOutcome, IngestError> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        with_token(token, || {
            if inject_panic {
                panic!("injected circuit fault");
            }
            if inject_stall {
                return Ok(stall_until_fired(token));
            }
            work()
        })
    }));
    result.unwrap_or_else(|_| Ok(UnitOutcome::bare(UnitClass::Failed)))
}

/// An injected stall: a diverging unit that only the deadline can stop.
/// Sleeping until the token fires (rather than for a fixed time) makes the
/// classification deterministic — the unit always ends `TimedOut`, on fast
/// and slow machines alike.
fn stall_until_fired(token: &CancelToken) -> UnitOutcome {
    while !token.is_cancelled() {
        thread::sleep(Duration::from_millis(1));
    }
    UnitOutcome::bare(UnitClass::TimedOut)
}

/// One generated unit: materialize the oracle, sample, train, compile,
/// score, discard.
fn generated_unit(
    cfg: &SuiteConfig,
    fam: &FamilySpec,
    unit: u64,
    token: &CancelToken,
) -> UnitOutcome {
    let oracle = fam.oracle(cfg.seed, unit);
    let ni = oracle.num_inputs();
    if ni > cfg.limits.max_inputs {
        return UnitOutcome::bare(UnitClass::Skipped);
    }
    let unit_seed = fam.unit_seed(cfg.seed, unit);
    let (train, test) = sample_datasets(&oracle, unit_seed, cfg.samples);
    if token.is_cancelled() {
        return UnitOutcome::bare(UnitClass::TimedOut);
    }
    let tree = DecisionTree::train(
        &train,
        &TreeConfig {
            max_depth: Some(8),
            seed: unit_seed,
            ..TreeConfig::default()
        },
    );
    let aig = tree.to_aig();
    if aig.num_ands() > cfg.limits.max_nodes {
        return UnitOutcome::bare(UnitClass::Skipped);
    }
    if token.is_cancelled() {
        return UnitOutcome::bare(UnitClass::TimedOut);
    }
    compiled_outcome(cfg, aig, "suite-dtree", Some(&test), token)
}

/// One ingested unit: the parsed graph goes straight to the governor and
/// compiler (no oracle, so no accuracy).
fn external_unit(cfg: &SuiteConfig, aig: Aig, token: &CancelToken) -> UnitOutcome {
    if aig.num_inputs() > cfg.limits.max_inputs || aig.num_ands() > cfg.limits.max_nodes {
        return UnitOutcome::bare(UnitClass::Skipped);
    }
    compiled_outcome(cfg, aig, "suite-external", None, token)
}

/// Compile + classify + (optionally) score. The shared tail of both unit
/// kinds.
fn compiled_outcome(
    cfg: &SuiteConfig,
    aig: Aig,
    method: &str,
    test: Option<&Dataset>,
    token: &CancelToken,
) -> UnitOutcome {
    let budget = SizeBudget::exact(cfg.node_limit);
    let (circuit, verdict) = LearnedCircuit::compile_with_verdict(aig, method, &budget);
    if token.is_cancelled() {
        // A deadline that fired mid-compile: the result is a valid but
        // unfinished optimization, and the caches have already refused to
        // memoize it. Classify by the deadline, not the partial verdict.
        return UnitOutcome::bare(UnitClass::TimedOut);
    }
    let class = match verdict {
        lsml_core::BudgetVerdict::ExactFit => UnitClass::Ok,
        lsml_core::BudgetVerdict::Approximated => UnitClass::Approximated,
        lsml_core::BudgetVerdict::OverBudget { .. } => UnitClass::OverBudget,
    };
    UnitOutcome {
        class,
        accuracy: test.map(|t| circuit.accuracy(t)),
        size: Some(circuit.and_gates() as u64),
    }
}

/// Unit-seeded train/test sampling. Both sets are pure functions of the
/// unit seed, so a resumed sweep rebuilds them exactly.
fn sample_datasets(oracle: &UnitOracle, unit_seed: u64, samples: usize) -> (Dataset, Dataset) {
    let ni = oracle.num_inputs();
    let mut rng = StdRng::seed_from_u64(unit_seed ^ 0x5A17_D47A);
    let mut build = |n: usize| {
        let mut ds = Dataset::new(ni);
        for _ in 0..n {
            let p = Pattern::random(&mut rng, ni);
            let y = oracle.eval(&p);
            ds.push(p, y);
        }
        ds
    };
    let train = build(samples);
    let test = build(samples);
    (train, test)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SuiteConfig {
        SuiteConfig {
            units_per_family: 3,
            samples: 64,
            ..SuiteConfig::default()
        }
    }

    #[test]
    fn clean_sweep_classifies_every_unit() {
        let cfg = small_cfg();
        let RunOutcome::Completed(stats) = run(&cfg).unwrap() else {
            panic!("no kill configured, must complete");
        };
        assert_eq!(stats.total_units(), cfg.generated_units());
        assert_eq!(stats.families.len(), cfg.families.len());
        for (name, fam) in &stats.families {
            assert_eq!(fam.total(), 3, "{name}");
            assert_eq!(fam.failed + fam.timed_out, 0, "{name} must be clean");
        }
    }

    #[test]
    fn sweeps_are_deterministic() {
        let cfg = small_cfg();
        let a = run(&cfg).unwrap();
        let b = run(&cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn injected_panics_are_contained_and_classified() {
        let cfg = SuiteConfig {
            fault: FaultPlan {
                circuit_panic_period: 4,
                ..FaultPlan::none()
            },
            ..small_cfg()
        };
        let RunOutcome::Completed(stats) = run(&cfg).unwrap() else {
            panic!("panics must not abort the sweep");
        };
        let failed: u64 = stats.families.values().map(|f| f.failed).sum();
        // 15 units, every 4th panics: units 3, 7, 11.
        assert_eq!(failed, 3);
        assert_eq!(stats.total_units(), cfg.generated_units());
    }

    #[test]
    fn injected_stalls_time_out_deterministically() {
        let cfg = SuiteConfig {
            deadline_ms: 30,
            fault: FaultPlan {
                circuit_stall_period: 7,
                ..FaultPlan::none()
            },
            ..small_cfg()
        };
        let RunOutcome::Completed(stats) = run(&cfg).unwrap() else {
            panic!("stalls must not abort the sweep");
        };
        let timed_out: u64 = stats.families.values().map(|f| f.timed_out).sum();
        // 15 units, every 7th stalls: units 6, 13.
        assert_eq!(timed_out, 2);
    }

    #[test]
    fn governor_skips_oversized_units() {
        let cfg = SuiteConfig {
            limits: Limits {
                max_inputs: 0,
                max_nodes: 0,
            },
            ..small_cfg()
        };
        let RunOutcome::Completed(stats) = run(&cfg).unwrap() else {
            panic!("governor must not abort the sweep");
        };
        for (name, fam) in &stats.families {
            assert_eq!(fam.skipped, fam.total(), "{name} all units over caps");
        }
    }

    #[test]
    fn kill_fires_before_the_indexed_unit() {
        let cfg = SuiteConfig {
            fault: FaultPlan {
                circuit_kill_after: 5,
                ..FaultPlan::none()
            },
            ..small_cfg()
        };
        assert_eq!(run(&cfg).unwrap(), RunOutcome::Killed { processed: 5 });
    }
}
