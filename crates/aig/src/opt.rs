//! Composable AIG optimization passes.
//!
//! The contest teams post-processed their AIGs with ABC scripts (`resyn2`,
//! `compress2rs`, …) — *sequences* of DAG-aware passes iterated to a
//! fixpoint. This module is the equivalent: a [`Pass`] is one semantics-
//! preserving graph-to-graph transformation, a [`Pipeline`] chains them, and
//! [`Pipeline::run_fixpoint`] iterates the chain while it keeps helping.
//!
//! Available passes:
//!
//! * [`BalancePass`] — depth-minimal restructuring of maximal AND trees
//!   (ABC's `balance`), via [`balance`];
//! * [`RewritePass`] — DAG-aware cut/NPN rewriting with shared-logic gain
//!   accounting ([`crate::rewrite`]), optionally zero-gain, k ∈ 2..=6;
//! * [`SweepPass`] — simulation-guided equivalence sweeping
//!   ([`crate::sweep`]);
//! * [`CleanupPass`] — drop logic unreachable from the outputs.
//!
//! # The fixpoint cache
//!
//! Pipelines are deterministic, so a graph that already sits at a pipeline's
//! fixpoint will sit there forever. [`Pipeline::run_fixpoint`] therefore
//! remembers, process-wide, every ([`Aig::structural_fingerprint`],
//! [`Pipeline::fingerprint`]) pair it has driven to convergence, and returns
//! immediately when asked to optimize such a graph again. That turns the
//! redundant "exact prelude" of [`crate::approx::reduce`] — and any repeated
//! compile of a structurally identical candidate — into a hash probe; no
//! caller has to thread an "already optimized" flag by hand. The cache is a
//! byte-budgeted [`crate::lru::ShardedLru`] (model-checked in
//! `tests/loom_lru.rs`).
//!
//! # Examples
//!
//! Build the default `resyn2`-style pipeline and run it to a fixpoint:
//!
//! ```
//! use lsml_aig::opt::{BalancePass, CleanupPass, Pipeline, RewritePass, SweepPass};
//! use lsml_aig::Aig;
//!
//! // A deliberately redundant graph: two structurally different XORs.
//! let mut g = Aig::new(3);
//! let (a, b, c) = (g.input(0), g.input(1), g.input(2));
//! let x1 = g.xor(a, b);
//! let o = g.or(a, b);
//! let n = g.and(a, b);
//! let x2 = g.and(o, !n); // also a XOR b
//! let f = g.mux(c, x1, !x2);
//! g.add_output(f);
//!
//! let pipeline = Pipeline::resyn(0); // balance | rewrite | sweep | cleanup
//! let h = pipeline.run_fixpoint(&g, 4);
//! assert!(h.num_ands() < g.num_ands());
//! assert_eq!(h.eval(&[true, false, true]), g.eval(&[true, false, true]));
//!
//! // Pipelines compose freely:
//! let custom = Pipeline::new()
//!     .then(BalancePass)
//!     .then(RewritePass::default())
//!     .then(SweepPass::seeded(7))
//!     .then(CleanupPass);
//! assert_eq!(custom.describe(), "balance | rewrite | sweep | cleanup");
//! ```

use std::sync::OnceLock;

use crate::aig::Aig;
use crate::fxhash::{fnv1a, fnv1a_mix, FNV_OFFSET};
use crate::lit::Lit;
use crate::lru::{env_budget, ShardedLru};
use crate::rewrite::{rewrite, RewriteConfig};
use crate::sweep::{sweep, SweepConfig};

/// Whether the structural verifiers run after every pass: **`LSML_CHECK=1`**
/// in the environment (read once per process). Independent of build profile
/// — release binaries can be checked too; debug builds additionally verify
/// once per [`Pipeline::run_fixpoint`] round regardless of the variable.
/// Listed with every other `LSML_*` runtime knob in the [`crate::par`]
/// module docs.
pub fn check_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| std::env::var("LSML_CHECK").as_deref() == Ok("1"))
}

/// One semantics-preserving AIG transformation.
pub trait Pass: Send + Sync {
    /// Short display name (`"balance"`, `"rewrite"`, …).
    fn name(&self) -> &'static str;

    /// Runs the pass. Implementations must preserve functionality exactly.
    fn run(&self, aig: &Aig) -> Aig;

    /// A stable fingerprint of the pass *configuration*: two passes with
    /// equal fingerprints must transform every graph identically (the
    /// fixpoint cache keys on it). The default hashes only the name —
    /// passes with tunable configuration must fold that in too.
    fn fingerprint(&self) -> u64 {
        fnv1a(self.name().as_bytes())
    }
}

/// ABC-style `balance` as a [`Pass`].
#[derive(Clone, Copy, Debug, Default)]
pub struct BalancePass;

impl Pass for BalancePass {
    fn name(&self) -> &'static str {
        "balance"
    }
    fn run(&self, aig: &Aig) -> Aig {
        balance(aig)
    }
}

/// DAG-aware cut/NPN rewriting as a [`Pass`].
#[derive(Clone, Debug, Default)]
pub struct RewritePass(pub RewriteConfig);

impl RewritePass {
    /// The zero-gain variant (ABC's `rwz`): accepts reshaping replacements
    /// that do not change the node count.
    pub fn zero_gain() -> RewritePass {
        RewritePass(RewriteConfig {
            zero_gain: true,
            ..RewriteConfig::default()
        })
    }

    /// This pass with the given maximum cut size (2..=6).
    pub fn with_cut_size(mut self, cut_size: usize) -> RewritePass {
        self.0.cut_size = cut_size;
        self
    }
}

impl Pass for RewritePass {
    fn name(&self) -> &'static str {
        match (self.0.zero_gain, self.0.cut_size) {
            (false, 6) => "rewrite -K 6",
            (true, 6) => "rewrite -z -K 6",
            (false, _) => "rewrite",
            (true, _) => "rewrite -z",
        }
    }
    fn run(&self, aig: &Aig) -> Aig {
        rewrite(aig, &self.0)
    }
    fn fingerprint(&self) -> u64 {
        let mut h = fnv1a(self.name().as_bytes());
        h = fnv1a_mix(h, u64::from(self.0.zero_gain));
        fnv1a_mix(h, self.0.cut_size as u64)
    }
}

/// Simulation-guided equivalence sweeping as a [`Pass`].
#[derive(Clone, Debug, Default)]
pub struct SweepPass(pub SweepConfig);

impl SweepPass {
    /// A sweep with the given signature seed and no application stimulus.
    pub fn seeded(seed: u64) -> SweepPass {
        SweepPass(SweepConfig {
            seed,
            ..SweepConfig::default()
        })
    }
}

impl Pass for SweepPass {
    fn name(&self) -> &'static str {
        "sweep"
    }
    fn run(&self, aig: &Aig) -> Aig {
        sweep(aig, &self.0)
    }
    fn fingerprint(&self) -> u64 {
        let cfg = &self.0;
        let mut h = fnv1a_mix(fnv1a(self.name().as_bytes()), cfg.seed);
        if let Some(cols) = &cfg.stimulus {
            h = fnv1a_mix(h, cols.num_inputs() as u64);
            h = fnv1a_mix(h, cols.num_examples() as u64);
            for i in 0..cols.num_inputs() {
                for &w in cols.column(i) {
                    h = fnv1a_mix(h, w);
                }
            }
        }
        h
    }
}

/// Dangling-logic removal as a [`Pass`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CleanupPass;

impl Pass for CleanupPass {
    fn name(&self) -> &'static str {
        "cleanup"
    }
    fn run(&self, aig: &Aig) -> Aig {
        let mut g = aig.clone();
        g.cleanup();
        g
    }
}

/// Estimated bytes per fixpoint-cache entry (key + tick + table overhead).
const FIXPOINT_ENTRY_BYTES: usize = 64;

/// The process-wide fixpoint cache: a [`ShardedLru`] of (graph fingerprint,
/// pipeline fingerprint) pairs known to be at a fixpoint. Its budget is
/// `LSML_FIXPOINT_CACHE_BYTES` (default 8 MiB, ~128k entries), never less
/// than 16 entries. Listed with every other `LSML_*` runtime knob in the
/// [`crate::par`] module docs.
fn fixpoint_cache() -> &'static ShardedLru<(u128, u64), ()> {
    static CACHE: OnceLock<ShardedLru<(u128, u64), ()>> = OnceLock::new();
    CACHE.get_or_init(|| {
        let budget = env_budget("LSML_FIXPOINT_CACHE_BYTES", 8 << 20);
        ShardedLru::new(budget.max(16 * FIXPOINT_ENTRY_BYTES))
    })
}

/// Drops every fixpoint-cache entry (benchmark hygiene: lets cold-vs-cold
/// comparisons start from the same state).
pub fn fixpoint_cache_clear() {
    fixpoint_cache().clear();
}

/// `(live entries, LRU evictions so far)` of the process-wide fixpoint
/// cache, summed over its lock stripes.
pub fn fixpoint_cache_stats() -> (usize, u64) {
    let s = fixpoint_cache().stats();
    (s.entries, s.evictions)
}

/// Checks the fixpoint cache's budget and accounting invariants: the
/// shared byte total must match the resident entries, and never exceed the
/// configured budget after an insert has completed. Concurrency stress
/// tests call this between hammer rounds, with the cache quiescent.
pub fn fixpoint_cache_verify() -> Result<(), String> {
    let cache = fixpoint_cache();
    cache
        .verify(|_| FIXPOINT_ENTRY_BYTES)
        .map_err(|e| format!("fixpoint cache {e}"))?;
    let s = cache.stats();
    if s.bytes > s.budget_bytes {
        return Err(format!(
            "fixpoint cache holds {} entries, budget caps it at {}",
            s.entries,
            s.budget_bytes / FIXPOINT_ENTRY_BYTES
        ));
    }
    Ok(())
}

/// Every (graph fingerprint, pipeline fingerprint) pair currently known to
/// be at a fixpoint, across all shards, in sorted order (so identical cache
/// contents export identical snapshots). Warm-start persistence
/// (`lsml-serve`) serializes this; pair with [`fixpoint_cache_import`].
pub fn fixpoint_cache_export() -> Vec<(u128, u64)> {
    fixpoint_cache()
        .export()
        .into_iter()
        .map(|(key, ())| key)
        .collect()
}

/// Re-seeds the fixpoint cache with previously exported keys (a warm boot
/// from a snapshot). Inserts run through the ordinary budget-enforcing
/// path, so an oversized snapshot is trimmed exactly like live pressure.
pub fn fixpoint_cache_import(keys: &[(u128, u64)]) {
    let cache = fixpoint_cache();
    for &key in keys {
        cache.insert(key, (), FIXPOINT_ENTRY_BYTES);
    }
}

/// Fixpoint rounds of the exact pipeline that compilation and the
/// approximation prelude run ([`Pipeline::run_fixpoint`]'s `max_rounds`).
pub const FIXPOINT_ROUNDS: usize = 2;

/// A sequence of passes applied in order.
#[derive(Default)]
pub struct Pipeline {
    passes: Vec<Box<dyn Pass>>,
}

impl Pipeline {
    /// An empty pipeline (identity).
    pub fn new() -> Pipeline {
        Pipeline { passes: Vec::new() }
    }

    /// Appends a pass.
    pub fn then(mut self, pass: impl Pass + 'static) -> Pipeline {
        self.passes.push(Box::new(pass));
        self
    }

    /// The default synthesis script, modeled on ABC's `resyn2`:
    /// `balance | rewrite | rewrite -z | sweep | cleanup`. The seed feeds
    /// the sweep's random signature stimulus.
    pub fn resyn(seed: u64) -> Pipeline {
        Pipeline::resyn_with(
            SweepConfig {
                seed,
                ..SweepConfig::default()
            },
            RewriteConfig::default().cut_size,
        )
    }

    /// [`Pipeline::resyn`] with k = 6 rewriting layered on top of the k = 4
    /// passes (ABC-style `rw; rw -K 6`): the 64-bit-cut rounds only ever
    /// refine what the classic rounds found, so the k = 6 script reduces at
    /// least as much as [`Pipeline::resyn`], at higher per-round cost.
    pub fn resyn_k6(seed: u64) -> Pipeline {
        Pipeline::resyn_with(
            SweepConfig {
                seed,
                ..SweepConfig::default()
            },
            6,
        )
    }

    /// [`Pipeline::resyn`] with a caller-provided sweep configuration (e.g.
    /// application [`BitColumns`](lsml_pla::BitColumns) stimulus feeding the
    /// signatures).
    pub fn resyn_with_sweep(sweep: SweepConfig) -> Pipeline {
        Pipeline::resyn_with(sweep, RewriteConfig::default().cut_size)
    }

    /// The single source of truth for the resyn pass list: caller-provided
    /// sweep configuration and rewrite cut size. A cut size above the
    /// default appends wider-cut rewrite rounds after the classic ones
    /// rather than replacing them.
    pub fn resyn_with(sweep: SweepConfig, cut_size: usize) -> Pipeline {
        let mut p = Pipeline::new()
            .then(BalancePass)
            .then(RewritePass::default())
            .then(RewritePass::zero_gain());
        if cut_size > RewriteConfig::default().cut_size {
            p = p
                .then(RewritePass::default().with_cut_size(cut_size))
                .then(RewritePass::zero_gain().with_cut_size(cut_size));
        }
        p.then(SweepPass(sweep)).then(CleanupPass)
    }

    /// `name | name | …` for logs and tests.
    pub fn describe(&self) -> String {
        self.passes
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join(" | ")
    }

    /// A stable fingerprint of the full pass sequence and every pass's
    /// configuration; the fixpoint cache and the compile cache key on it.
    pub fn fingerprint(&self) -> u64 {
        self.passes
            .iter()
            .fold(FNV_OFFSET, |h, p| fnv1a_mix(h, p.fingerprint()))
    }

    /// Runs every pass once, in order. With `LSML_CHECK=1` (see
    /// [`check_enabled`]) the full structural verifier
    /// ([`Aig::check_invariants`]) runs after every pass and panics naming
    /// the offending pass on the first violation.
    ///
    /// Stops between passes once the calling thread's cancellation token
    /// ([`crate::cancel`]) fires. Every pass is semantics-preserving, so the
    /// early return is a valid (just less optimized) graph.
    pub fn run(&self, aig: &Aig) -> Aig {
        let mut current = aig.clone();
        for pass in &self.passes {
            if crate::cancel::cancelled() {
                return current;
            }
            current = pass.run(&current);
            if check_enabled() {
                if let Err(e) = current.check_invariants() {
                    panic!("AIG invariants violated after pass `{}`: {e}", pass.name());
                }
            }
        }
        current
    }

    /// Iterates the pipeline until the AND count (then the depth) stops
    /// improving, at most `max_rounds` times. Never returns a graph larger
    /// than the cleaned-up input.
    ///
    /// Graphs already driven to this pipeline's fixpoint (in this process)
    /// are recognized by structural fingerprint and returned without
    /// re-running a single pass — see the module docs.
    pub fn run_fixpoint(&self, aig: &Aig, max_rounds: usize) -> Aig {
        let mut best = aig.clone();
        best.cleanup();
        if max_rounds == 0 {
            return best;
        }
        let pipe_fp = self.fingerprint();
        if fixpoint_cache()
            .get(&(best.structural_fingerprint(), pipe_fp))
            .is_some()
        {
            return best;
        }
        let mut converged = false;
        for _ in 0..max_rounds {
            let next = self.run(&best);
            // Debug builds verify every round even without `LSML_CHECK=1`
            // (the per-pass checks inside `run` stay opt-in: they multiply
            // the verifier cost by the pass count).
            #[cfg(debug_assertions)]
            if let Err(e) = next.check_invariants() {
                panic!(
                    "AIG invariants violated by pipeline `{}`: {e}",
                    self.describe()
                );
            }
            let smaller = next.num_ands() < best.num_ands();
            let same_but_shallower =
                next.num_ands() == best.num_ands() && next.depth() < best.depth();
            let improved = smaller || same_but_shallower;
            if improved {
                best = next;
            }
            if crate::cancel::cancelled() {
                // A cancelled round may have skipped passes, so "no
                // improvement" proves nothing about convergence: return the
                // best graph so far and never memoize it as a fixpoint.
                return best;
            }
            if !improved {
                converged = true;
                break;
            }
        }
        if converged {
            fixpoint_cache().insert(
                (best.structural_fingerprint(), pipe_fp),
                (),
                FIXPOINT_ENTRY_BYTES,
            );
        }
        best
    }
}

/// Rebuilds the AIG with every maximal conjunction restructured as a balanced
/// tree (deepest operands combined last). Functionality is preserved; depth
/// typically drops, node count never grows beyond the original cone sizes
/// (structural hashing dedups shared sub-terms). Levels of the fresh graph
/// are tracked incrementally (one push per created node) instead of
/// recomputed per combine, which is what makes the pass linear.
pub fn balance(aig: &Aig) -> Aig {
    let mut b = Balancer {
        fresh: Aig::new(aig.num_inputs()),
        levels: vec![0u32; aig.num_inputs() + 1],
        memo: vec![None; aig.num_nodes()],
    };
    let outputs: Vec<Lit> = aig.outputs().to_vec();
    let mut result = Vec::with_capacity(outputs.len());
    for o in outputs {
        let l = b.build(aig, o.node()).complement_if(o.is_complemented());
        result.push(l);
    }
    for l in result {
        b.fresh.add_output(l);
    }
    b.fresh
}

/// The balancing rebuild state: the fresh graph plus its incrementally
/// maintained levels (`levels.len() == fresh.num_nodes()` at all times) and
/// the old-node → fresh-literal memo.
struct Balancer {
    fresh: Aig,
    levels: Vec<u32>,
    memo: Vec<Option<Lit>>,
}

impl Balancer {
    /// `fresh.and` plus level bookkeeping for newly created nodes.
    fn and_tracked(&mut self, a: Lit, b: Lit) -> Lit {
        let before = self.fresh.num_nodes();
        let l = self.fresh.and(a, b);
        if self.fresh.num_nodes() > before {
            let lv = 1 + self.levels[a.node() as usize].max(self.levels[b.node() as usize]);
            self.levels.push(lv);
        }
        l
    }

    /// Recursively rebuilds node `n` of `old` inside `fresh`.
    fn build(&mut self, old: &Aig, n: u32) -> Lit {
        if let Some(l) = self.memo[n as usize] {
            return l;
        }
        let l = if !old.is_and(n) {
            Lit::new(n, false) // constant or input: same index in `fresh`
        } else {
            // Collect the maximal AND-tree rooted here: leaves are edges that
            // are complemented, non-AND, or AND nodes referenced through
            // complements.
            let mut leaves: Vec<Lit> = Vec::new();
            collect_conjunction(old, Lit::new(n, false), &mut leaves);
            // Rebuild each leaf, then combine from shallowest to deepest.
            let mut built: Vec<Lit> = leaves
                .iter()
                .map(|&leaf| {
                    self.build(old, leaf.node())
                        .complement_if(leaf.is_complemented())
                })
                .collect();
            built.sort_by_key(|l| std::cmp::Reverse(self.levels[l.node() as usize]));
            // Repeatedly AND the two shallowest operands (at the end after
            // the descending sort), re-inserting the fresh AND in level
            // order — the greedy near-optimal tree, matching ABC's balance.
            while built.len() > 1 {
                let a = built.pop().expect("len > 1");
                let b = built.pop().expect("len > 1");
                let ab = self.and_tracked(a, b);
                let lv = self.levels[ab.node() as usize];
                let pos = built
                    .iter()
                    .position(|l| self.levels[l.node() as usize] <= lv)
                    .unwrap_or(built.len());
                built.insert(pos, ab);
            }
            built.pop().unwrap_or(Lit::TRUE)
        };
        self.memo[n as usize] = Some(l);
        l
    }
}

/// Collects the leaves of the maximal conjunction reachable from `root`
/// through uncomplemented AND edges.
fn collect_conjunction(aig: &Aig, root: Lit, leaves: &mut Vec<Lit>) {
    if root.is_complemented() || !aig.is_and(root.node()) {
        leaves.push(root);
        return;
    }
    let (f0, f1) = aig.fanins(root.node());
    collect_conjunction(aig, f0, leaves);
    collect_conjunction(aig, f1, leaves);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::equivalent_exhaustive;

    #[test]
    fn balance_flattens_chains() {
        // Left-deep AND chain over 8 inputs: depth 7 -> balanced depth 3.
        let mut g = Aig::new(8);
        let mut acc = g.input(0);
        for i in 1..8 {
            let x = g.input(i);
            acc = g.and(acc, x);
        }
        g.add_output(acc);
        assert_eq!(g.depth(), 7);
        let h = balance(&g);
        assert_eq!(h.depth(), 3);
        equivalent_exhaustive(&g, &h);
    }

    #[test]
    fn balance_preserves_xor_logic() {
        let mut g = Aig::new(6);
        let ins = g.inputs();
        let mut acc = ins[0];
        for &x in &ins[1..] {
            acc = g.xor(acc, x);
        }
        let chain = g.and_many(&ins[..3]);
        let f = g.and(acc, !chain);
        g.add_output(f);
        let h = balance(&g);
        equivalent_exhaustive(&g, &h);
    }

    #[test]
    fn balance_handles_constants_and_multi_outputs() {
        let mut g = Aig::new(3);
        let (a, b, c) = (g.input(0), g.input(1), g.input(2));
        let x = g.and(a, b);
        g.add_output(Lit::TRUE);
        g.add_output(!x);
        g.add_output(c);
        let h = balance(&g);
        equivalent_exhaustive(&g, &h);
    }

    #[test]
    fn balance_levels_match_recomputed_levels() {
        // The incremental level tracking must agree with Aig::levels on the
        // finished graph.
        let mut g = Aig::new(7);
        let ins = g.inputs();
        let x = g.xor_many(&ins[..5]);
        let y = g.and_many(&ins[2..]);
        let f = g.mux(ins[6], x, y);
        g.add_output(f);
        let h = balance(&g);
        equivalent_exhaustive(&g, &h);
        // Rebuild through the Balancer to inspect its levels.
        let mut b = Balancer {
            fresh: Aig::new(g.num_inputs()),
            levels: vec![0u32; g.num_inputs() + 1],
            memo: vec![None; g.num_nodes()],
        };
        for o in g.outputs().to_vec() {
            b.build(&g, o.node());
        }
        assert_eq!(b.levels, b.fresh.levels());
    }

    /// A cheap compress-style script, `balance | cleanup`, run to its
    /// fixpoint never grows the graph and stays exact.
    #[test]
    fn compress_never_grows() {
        let mut g = Aig::new(10);
        let ins = g.inputs();
        let mut acc = ins[0];
        for &x in &ins[1..] {
            acc = g.and(acc, x);
        }
        let p = g.xor_many(&ins);
        let f = g.or(acc, p);
        g.add_output(f);
        let before = g.num_ands();
        let h = Pipeline::new()
            .then(BalancePass)
            .then(CleanupPass)
            .run_fixpoint(&g, 3);
        assert!(h.num_ands() <= before);
        equivalent_exhaustive(&g, &h);
    }

    #[test]
    fn pipeline_composes_and_describes() {
        let p = Pipeline::resyn(0);
        assert_eq!(
            p.describe(),
            "balance | rewrite | rewrite -z | sweep | cleanup"
        );
        assert_eq!(Pipeline::new().describe(), "");
    }

    #[test]
    fn fingerprints_separate_configurations() {
        assert_eq!(
            Pipeline::resyn(3).fingerprint(),
            Pipeline::resyn(3).fingerprint()
        );
        assert_ne!(
            Pipeline::resyn(3).fingerprint(),
            Pipeline::resyn(4).fingerprint()
        );
        assert_ne!(
            Pipeline::resyn(3).fingerprint(),
            Pipeline::resyn_k6(3).fingerprint()
        );
        assert_ne!(
            Pipeline::new().then(BalancePass).fingerprint(),
            Pipeline::new().then(CleanupPass).fingerprint()
        );
    }

    #[test]
    fn empty_pipeline_is_identity() {
        let mut g = Aig::new(2);
        let (a, b) = (g.input(0), g.input(1));
        let f = g.xor(a, b);
        g.add_output(f);
        let h = Pipeline::new().run(&g);
        equivalent_exhaustive(&g, &h);
        assert_eq!(h.num_ands(), g.num_ands());
    }

    #[test]
    fn resyn_beats_balance_on_redundant_graph() {
        // Three structurally distinct copies of the same function, muxed.
        let mut g = Aig::new(4);
        let (a, b, c, d) = (g.input(0), g.input(1), g.input(2), g.input(3));
        let x1 = g.xor(a, b);
        let o = g.or(a, b);
        let n = g.and(a, b);
        let x2 = g.and(o, !n);
        let p = g.and(a, !b);
        let q = g.and(!a, b);
        let x3 = g.or(p, q);
        let m1 = g.mux(c, x1, x2);
        let f = g.mux(d, m1, x3);
        g.add_output(f);

        let balanced = balance(&g);
        let piped = Pipeline::resyn(0).run_fixpoint(&g, 4);
        assert!(
            piped.num_ands() < balanced.num_ands(),
            "pipeline {} vs balance {}",
            piped.num_ands(),
            balanced.num_ands()
        );
        equivalent_exhaustive(&g, &piped);
        // The whole graph is one XOR: 3 ANDs.
        assert_eq!(piped.num_ands(), 3);
    }

    #[test]
    fn fixpoint_never_grows() {
        let mut g = Aig::new(6);
        let ins = g.inputs();
        let x = g.xor_many(&ins);
        let y = g.and_many(&ins[1..]);
        let f = g.mux(ins[0], x, y);
        g.add_output(f);
        let mut cleaned = g.clone();
        cleaned.cleanup();
        let h = Pipeline::resyn(3).run_fixpoint(&g, 4);
        assert!(h.num_ands() <= cleaned.num_ands());
        equivalent_exhaustive(&g, &h);
    }

    #[test]
    fn cancelled_run_returns_valid_partial_result() {
        use crate::cancel::{with_token, CancelToken};
        let mut g = Aig::new(4);
        let (a, b, c, d) = (g.input(0), g.input(1), g.input(2), g.input(3));
        let x1 = g.xor(a, b);
        let o = g.or(a, b);
        let n = g.and(a, b);
        let x2 = g.and(o, !n);
        let m1 = g.mux(c, x1, x2);
        let f = g.mux(d, m1, x1);
        g.add_output(f);
        let token = CancelToken::new();
        token.cancel();
        let h = with_token(&token, || Pipeline::resyn(0).run(&g));
        // Cancelled before the first pass: the identity graph comes back,
        // still semantically equal.
        assert_eq!(h.num_ands(), g.num_ands());
        equivalent_exhaustive(&g, &h);
    }

    #[test]
    fn cancelled_fixpoint_never_memoizes() {
        use crate::cancel::{with_token, CancelToken};
        let mut g = Aig::new(5);
        let ins = g.inputs();
        let x = g.xor_many(&ins[..4]);
        let y = g.and_many(&ins[1..]);
        let f = g.mux(ins[0], x, y);
        g.add_output(f);
        // A unique seed gives this pipeline a fingerprint no other test
        // shares, so global-cache assertions are race-free.
        let p = Pipeline::resyn(0x00C0_FFEE_CA11);
        let pipe_fp = p.fingerprint();
        let token = CancelToken::new();
        token.cancel();
        let h = with_token(&token, || p.run_fixpoint(&g, 4));
        equivalent_exhaustive(&g, &h);
        let key = (h.structural_fingerprint(), pipe_fp);
        assert!(
            !fixpoint_cache_export().contains(&key),
            "a cancelled run must not be recorded as a fixpoint"
        );
        // The same run without the token converges and IS recorded.
        let done = p.run_fixpoint(&g, 8);
        let key = (done.structural_fingerprint(), pipe_fp);
        assert!(fixpoint_cache_export().contains(&key));
        // Import of an export is idempotent: the key stays resident.
        fixpoint_cache_import(&[key]);
        assert!(fixpoint_cache_export().contains(&key));
    }

    #[test]
    fn fixpoint_cache_returns_identical_results() {
        let mut g = Aig::new(5);
        let ins = g.inputs();
        let x = g.xor_many(&ins[..4]);
        let y = g.and_many(&ins[1..]);
        let f = g.mux(ins[0], x, y);
        g.add_output(f);
        let p = Pipeline::resyn(41);
        let first = p.run_fixpoint(&g, 4);
        // Re-running on the converged result must be the cached no-op path
        // and return the structurally identical graph.
        let again = p.run_fixpoint(&first, 4);
        assert_eq!(
            first.structural_fingerprint(),
            again.structural_fingerprint()
        );
        // A different pipeline seed is a different cache key; results must
        // still be semantically equal.
        let other = Pipeline::resyn(42).run_fixpoint(&first, 4);
        equivalent_exhaustive(&first, &other);
    }
}
