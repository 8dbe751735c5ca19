//! In-pass parallelism gate and the runtime environment-knob reference.
//!
//! The synthesis hot paths (wavefront cut enumeration in [`crate::cut`],
//! block simulation and candidate verification in [`crate::sweep`], the
//! exact-canonizer lane walk in [`crate::npn`]) fan work out over the
//! vendored work-stealing pool. Every such fan-out is **bit-identical** to
//! the serial path by construction — work is partitioned into fixed chunks
//! whose results merge by a deterministic, schedule-independent rule — so
//! parallelism is a pure throughput knob, never a semantics knob. This
//! module decides how wide a pass fans out: over the pool's workers, or
//! inline when the pool has one (`LSML_NUM_THREADS=1`).
//!
//! # Runtime environment knobs
//!
//! The consolidated reference for every `LSML_*` variable the engine reads
//! (each is read **once**, at first use, and latched for the process):
//!
//! | Knob | Default | Effect |
//! |------|---------|--------|
//! | `LSML_NUM_THREADS` | `available_parallelism()` | Worker count of the process-wide pool (vendored `rayon`). `1` disables the pool: every operation runs strictly inline on the caller. |
//! | `LSML_FORCE_SCALAR` | unset | Forces the scalar fallback kernels in `lsml-pla` (`kernels` module), bypassing the SIMD dispatch. |
//! | `LSML_CHECK` | unset | `1` enables the expensive debug verifiers in release builds: AIG invariant sweeps between pipeline passes (`crate::opt`) and CSR audits after cut enumeration (`crate::cut`). |
//! | `LSML_COMPILE_CACHE_BYTES` | 256 MiB | Byte budget of the process-wide sharded compile cache (`lsml-core`, `compile` module), read once by [`crate::lru::env_budget`]: a positive byte count, whitespace trimmed; `0` or an unparsable value falls back to the default. |
//! | `LSML_FIXPOINT_CACHE_BYTES` | 8 MiB | Byte budget of the sharded pipeline fixpoint cache ([`crate::opt`]), read once by [`crate::lru::env_budget`] like the compile cache's; never below 16 entries (1 KiB). |
//! | `LSML_LOOM_REPLAY` | unset | In `--cfg lsml_loom` builds: replays a single recorded interleaving (the failure trace printed by the `loom` runtime) instead of exploring. |
//! | `LSML_SERVE_ADDR` | `127.0.0.1:7171` | Listen address of the `lsml-serve` daemon (`lsml-serve` crate, `server` module). |
//! | `LSML_SERVE_WORKERS` | `4` | Worker threads popping the daemon's request queue. |
//! | `LSML_SERVE_QUEUE` | `64` | Bounded request-queue capacity; a full queue sheds with a structured `Overloaded`, it never blocks the reader. |
//! | `LSML_SERVE_CLIENT_TOKENS` | `16` | Per-client outstanding-cost budget (admission-control fairness); one oversized request from an idle client is still admitted. |
//! | `LSML_SERVE_MAX_FRAME` | 16 MiB | Maximum accepted frame payload, clamped to `[64 B, 1 GiB]`; larger declared frames are answered `Malformed` and the connection closed. |
//! | `LSML_SERVE_SNAPSHOT` | unset | Path of the crash-safe cache snapshot (checksummed, temp + fsync + atomic rename). Set: warm-start on boot, snapshot on graceful shutdown. A torn or corrupt file cold-starts. |
//! | `LSML_SERVE_DRAIN_MS` | `5000` | Graceful-shutdown drain watchdog: after this long, in-flight requests are cancelled via their deadline tokens so drain always terminates. |
//! | `LSML_FAULT_SEED` | unset/`0` | Arms the deterministic fault-injection plan (`lsml-durable`, `fault` module): seeded worker panics, stalls and snapshot corruption for the robustness harness, plus the `lsml-suite` per-circuit panic/stall/kill points. `0` or unset disables. |
//! | `LSML_SUITE_UNITS` | `20` | Generated units per circuit family in an `lsml-suite` streaming sweep. |
//! | `LSML_SUITE_SEED` | `1` | Sweep seed every per-unit seed derives from (counter-derived, so the checkpoint cursor alone is a complete resume point). |
//! | `LSML_SUITE_DEADLINE_MS` | `5000` | Per-circuit deadline; a unit that outlives it is cancelled via its token and classified `TimedOut` (never memoized). |
//! | `LSML_SUITE_SAMPLES` | `256` | Training and test sample count per generated unit. |
//! | `LSML_SUITE_NODE_LIMIT` | `300` | AND-gate budget handed to the compiler for every sweep unit. |
//! | `LSML_SUITE_EXTERNAL` | unset | Directory of external `.aag`/`.aig`/`.bench` files to ingest after the generated units; unparseable files are quarantined with a reason, never abort the sweep. |
//! | `LSML_SUITE_CHECKPOINT` | unset | Path of the sweep's crash-safe checkpoint (cursor + stats, checksummed, temp + fsync + atomic rename). Set: the sweep resumes from the last flush after a kill, bit-identically. |
//! | `LSML_SUITE_CHECKPOINT_EVERY` | `64` | Units between periodic checkpoint flushes (`0` = final flush only). |
//! | `LSML_SUITE_OUT` | `BENCH_suite.json` | Output path of the sweep's stats document (accuracy/size distributions by family, failure-class counts, quarantine log). |
//! | `LSML_INGEST_MAX_BYTES` | 8 MiB | File-size cap for external ingestion, checked against metadata before any byte is read. |
//!
//! Modules reading a knob link back here; this table is the single place
//! where defaults are documented.

#[cfg(test)]
thread_local! {
    /// Test-only override of [`effective_workers`] (`0` = no override).
    /// The pool's width is latched process-wide at first use, so tests
    /// that need to drive both the serial and the parallel gates within
    /// one process (the `crate::par_props` identity proptests) set this
    /// instead of `LSML_NUM_THREADS`. Thread-local on purpose: every gate
    /// is consulted on the calling thread before any fan-out, and
    /// concurrently running tests must not perturb each other's gate.
    pub(crate) static TEST_FORCE_WORKERS: std::cell::Cell<usize> =
        const { std::cell::Cell::new(0) };
}

/// Number of workers a pass may fan out over: the pool width
/// (`LSML_NUM_THREADS`; starts the pool on first call).
pub fn effective_workers() -> usize {
    #[cfg(test)]
    {
        let forced = TEST_FORCE_WORKERS.with(|c| c.get());
        if forced != 0 {
            return forced;
        }
    }
    rayon::current_num_threads().max(1)
}

/// Splits `items` into at most `effective_workers()` chunks of at least
/// `min_per_chunk` items. Returns the chunk size to use (callers partition
/// `0..items` into consecutive ranges of this size — a *fixed* partition,
/// so results are independent of which worker runs which chunk).
pub fn chunk_len(items: usize, min_per_chunk: usize) -> usize {
    let workers = effective_workers();
    if workers <= 1 || items <= min_per_chunk {
        return items.max(1);
    }
    items.div_ceil(workers).max(min_per_chunk)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_len_covers_all_items_in_at_most_worker_chunks() {
        for items in [1usize, 2, 5, 63, 64, 100, 1000] {
            let len = chunk_len(items, 8);
            assert!(len >= 1);
            let chunks = items.div_ceil(len);
            assert!(chunks <= effective_workers().max(1));
        }
    }

    #[test]
    fn single_item_never_panics() {
        assert_eq!(chunk_len(0, 4), 1);
        assert_eq!(chunk_len(1, 4), 1);
    }
}
