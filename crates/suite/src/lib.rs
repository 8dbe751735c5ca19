//! `lsml-suite` — the streaming sweep engine: construct → compile → score →
//! discard over thousands of generated and externally ingested circuits in
//! constant memory, surviving everything a 100k-circuit unattended run can
//! throw at it.
//!
//! The paper's generalization story ("does learned logic transfer across
//! circuit families?") needs sweeps far beyond the contest's 100
//! benchmarks. At that scale, three failure modes dominate and this crate
//! is the robustness answer to each:
//!
//! 1. **Pathological circuits.** One panicking, diverging or oversized unit
//!    must not kill hours of progress. Every unit runs inside an isolation
//!    boundary: `catch_unwind` containment (→ `Failed`), a per-circuit
//!    deadline via [`lsml_aig::cancel::CancelToken`] (→ `TimedOut`, and
//!    timed-out compiles are never memoized), and a resource governor with
//!    input/node caps (→ `Skipped`). See [`engine`].
//! 2. **Hostile external files.** Real benchmark dumps contain truncated,
//!    corrupt, and adversarial files. [`ingest`] parses `.aag`/`.aig`/
//!    `.bench` under a fuzz-proven never-panic contract and quarantines
//!    failures with a reason instead of aborting the sweep.
//! 3. **Process death.** SIGTERM, OOM-kill, a power cut. [`checkpoint`]
//!    persists cursor + accumulated stats every N circuits in the sealed,
//!    checksummed temp+fsync+atomic-rename format that `lsml-durable`
//!    provides for the daemon's snapshots too ([`lsml_durable::seal`],
//!    [`lsml_durable::write_atomic`]), and a resumed sweep reproduces the
//!    uninterrupted run's stats *bit-identically* (proven in CI by an
//!    injected mid-sweep kill).
//!
//! Faults themselves are deterministic: the `LSML_FAULT_SEED` plan
//! ([`lsml_durable::fault::FaultPlan`]) carries per-circuit
//! panic/stall/kill fault points, so every CI failure replays locally.
//!
//! Results stream into `BENCH_suite.json`: accuracy and size distributions
//! by family plus failure-class counts ([`stats`]).
//!
//! Runtime knobs (`LSML_SUITE_*`, `LSML_INGEST_*`) are documented in the
//! consolidated table in [`lsml_aig::par`].

pub mod checkpoint;
pub mod engine;
pub mod family;
pub mod ingest;
pub mod stats;

pub use engine::{run, Limits, RunOutcome, SuiteConfig};
pub use family::{default_families, FamilyKind, FamilySpec};
pub use stats::SuiteStats;
