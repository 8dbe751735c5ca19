//! Property tests pinning batched/incremental compilation to the
//! from-scratch path: compiling a candidate out of a [`CompileBatch`]'s
//! shared graph must produce *exactly* the circuit that compiling the same
//! candidate standalone produces — same structural fingerprint (hence same
//! node count) and same exhaustive `eval_patterns_multi` behavior — across
//! random delta sequences, where each round extends the previous round's
//! logic the way boosting rounds and hyperparameter sweeps do.
//!
//! The process-wide compile and fixpoint caches are cleared between the
//! batched and from-scratch phases, so agreement is established by actually
//! re-running the pipeline, not by hitting a memoized entry.

use lsml_aig::opt::fixpoint_cache_clear;
use lsml_aig::sim::eval_patterns_multi;
use lsml_aig::{Aig, Lit};
use lsml_core::compile::{compile_cache_clear, CompileBatch, SizeBudget};
use lsml_core::problem::LearnedCircuit;
use lsml_pla::Pattern;
use proptest::prelude::*;

const NUM_INPUTS: usize = 6;

/// A recipe for building a random AIG: gate ops over already-built literals
/// (same idiom as the aig crate's pipeline property tests).
#[derive(Clone, Debug)]
enum Op {
    And(u8, bool, u8, bool),
    Xor(u8, bool, u8, bool),
    Mux(u8, u8, u8),
}

fn arb_ops(max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<u8>(), any::<bool>(), any::<u8>(), any::<bool>())
                .prop_map(|(a, ca, b, cb)| Op::And(a, ca, b, cb)),
            (any::<u8>(), any::<bool>(), any::<u8>(), any::<bool>())
                .prop_map(|(a, ca, b, cb)| Op::Xor(a, ca, b, cb)),
            (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(s, t, e)| Op::Mux(s, t, e)),
        ],
        3..max_len,
    )
}

/// Replays the first `len` ops into `g` and returns the output literal of
/// that prefix. Replaying a longer prefix into the same graph reuses every
/// node of the shorter one through structural hashing — exactly the "round
/// t+1 is a delta over round t" shape the incremental machinery targets.
fn replay(g: &mut Aig, ops: &[Op], len: usize) -> Lit {
    let mut lits: Vec<Lit> = g.inputs();
    for op in &ops[..len] {
        let pick = |i: u8, lits: &[Lit]| lits[i as usize % lits.len()];
        let l = match *op {
            Op::And(a, ca, b, cb) => {
                let x = pick(a, &lits).complement_if(ca);
                let y = pick(b, &lits).complement_if(cb);
                g.and(x, y)
            }
            Op::Xor(a, ca, b, cb) => {
                let x = pick(a, &lits).complement_if(ca);
                let y = pick(b, &lits).complement_if(cb);
                g.xor(x, y)
            }
            Op::Mux(s, t, e) => {
                let sel = pick(s, &lits);
                let th = pick(t, &lits);
                let el = pick(e, &lits);
                g.mux(sel, th, el)
            }
        };
        lits.push(l);
    }
    *lits.last().expect("non-empty")
}

/// The standalone graph for an op prefix: fresh builder, one output.
fn standalone(ops: &[Op], len: usize) -> Aig {
    let mut g = Aig::new(NUM_INPUTS);
    let out = replay(&mut g, ops, len);
    g.add_output(out);
    g.cleanup();
    g
}

/// The round-prefix lengths of a delta sequence: three growing prefixes
/// ending at the full recipe.
fn prefixes(ops: &[Op]) -> Vec<usize> {
    let n = ops.len();
    let mut p = vec![(n / 3).max(1), (2 * n / 3).max(2), n];
    p.dedup();
    p
}

fn all_patterns() -> Vec<Pattern> {
    (0..1u64 << NUM_INPUTS)
        .map(|m| Pattern::from_index(m, NUM_INPUTS))
        .collect()
}

/// Asserts a batched compile result is bit-identical to its from-scratch
/// counterpart and exhaustively equivalent to the raw candidate.
fn assert_identical(batched: &LearnedCircuit, scratch: &LearnedCircuit, raw: &Aig) {
    assert_eq!(
        batched.aig.structural_fingerprint(),
        scratch.aig.structural_fingerprint(),
        "batched and from-scratch compiles must be bit-identical"
    );
    assert_eq!(batched.and_gates(), scratch.and_gates());
    assert_eq!(batched.method, scratch.method);
    let pats = all_patterns();
    assert_eq!(
        eval_patterns_multi(&batched.aig, &pats),
        eval_patterns_multi(raw, &pats),
        "compiled candidate must preserve the raw candidate's function"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Delta-sequence equivalence on the default (k = 4) pipeline: every
    /// round prefix compiled out of the shared batch equals the same prefix
    /// compiled standalone from scratch.
    #[test]
    fn batched_rounds_match_from_scratch(ops in arb_ops(36), seed in 0u64..64) {
        let budget = SizeBudget { seed, ..SizeBudget::exact(5000) };
        let mut batch = CompileBatch::new(NUM_INPUTS, &budget);
        let mut ids = Vec::new();
        for &len in &prefixes(&ops) {
            let out = replay(batch.shared(), &ops, len);
            ids.push((len, batch.add_cone(out, format!("round-{len}"))));
        }
        let batched: Vec<(usize, LearnedCircuit)> = ids
            .iter()
            .map(|&(len, id)| (len, batch.compile(id)))
            .collect();

        // From-scratch pass with cold caches: equality must come from
        // recompilation, not memoization.
        compile_cache_clear();
        fixpoint_cache_clear();
        for (len, b) in &batched {
            let raw = standalone(&ops, *len);
            let s = LearnedCircuit::compile(raw.clone(), format!("round-{len}"), &budget);
            assert_identical(b, &s, &raw);
        }
    }

    /// Shared-simulation scoring equals per-candidate scoring: the batch's
    /// raw-cone accuracies must match the compiled candidates' accuracies
    /// exactly (same packed words, same division).
    #[test]
    fn batch_accuracies_match_compiled_accuracies(ops in arb_ops(30), seed in 0u64..16) {
        use lsml_pla::Dataset;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let budget = SizeBudget { seed, ..SizeBudget::exact(5000) };
        let mut batch = CompileBatch::new(NUM_INPUTS, &budget);
        for &len in &prefixes(&ops) {
            let out = replay(batch.shared(), &ops, len);
            batch.add_cone(out, format!("round-{len}"));
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mut valid = Dataset::new(NUM_INPUTS);
        for _ in 0..100 {
            valid.push(Pattern::random(&mut rng, NUM_INPUTS), rng.gen());
        }
        let raw_accs = batch.accuracies(&valid);
        let compiled = batch.compile_all();
        for (c, raw_acc) in compiled.iter().zip(&raw_accs) {
            let compiled_acc = c.accuracy(&valid);
            assert_eq!(
                raw_acc.to_bits(),
                compiled_acc.to_bits(),
                "raw-cone score must equal compiled score bit for bit"
            );
        }
    }
}
