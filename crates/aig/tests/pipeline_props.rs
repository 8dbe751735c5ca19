//! Property tests for the optimization pipeline: every pass preserves
//! semantics exactly and the structural passes never grow the graph.
//!
//! Equivalence strategy per the pipeline contract:
//! * graphs with at most 16 inputs are checked **exhaustively** through
//!   `sim::eval_patterns_multi` (all `2^n` patterns, every output);
//! * wider graphs are checked on random patterns *and* through the
//!   column-fed path (`sim::eval_columns` over a random `BitColumns`
//!   dataset), so the two simulation front ends cross-validate each other.

mod common;

use common::{arb_ops, build_gates, Op};
use lsml_aig::aig::Aig;
use lsml_aig::opt::{BalancePass, CleanupPass, Pass, Pipeline, RewritePass, SweepPass};
use lsml_aig::rewrite::{rewrite, RewriteConfig};
use lsml_aig::sim::{eval_columns, eval_patterns_multi};
use lsml_aig::sweep::{sweep, SweepConfig};
use lsml_pla::{Dataset, Pattern};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a multi-output AIG over `ni` inputs from the op recipe: the last
/// literal plus a mid-recipe literal become outputs (one complemented), so
/// multi-output and complemented-output paths are always exercised.
fn build(ops: &[Op], ni: usize) -> Aig {
    let (mut g, lits) = build_gates(ops, ni);
    g.add_output(*lits.last().expect("at least one literal"));
    g.add_output(!lits[lits.len() / 2]);
    g
}

const NARROW: usize = 6;
const WIDE: usize = 24;

/// Exhaustive multi-output truth vectors via the word-parallel simulator.
fn truth_vectors(g: &Aig) -> Vec<Vec<bool>> {
    let ni = g.num_inputs();
    let patterns: Vec<Pattern> = (0..(1u64 << ni))
        .map(|m| Pattern::from_index(m, ni))
        .collect();
    eval_patterns_multi(g, &patterns)
}

/// Cleaned-up AND count (the baseline the passes must never exceed).
fn cleaned_ands(g: &Aig) -> usize {
    let mut c = g.clone();
    c.cleanup();
    c.num_ands()
}

/// Checks agreement between `a` and `b` on random patterns, through both
/// the row-fed and the column-fed simulation paths.
fn agree_wide(a: &Aig, b: &Aig, seed: u64) {
    let ni = a.num_inputs();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ds = Dataset::new(ni);
    for _ in 0..300 {
        ds.push(Pattern::random(&mut rng, ni), rng.gen());
    }
    // Row-fed agreement.
    let pa = eval_patterns_multi(a, ds.patterns());
    let pb = eval_patterns_multi(b, ds.patterns());
    assert_eq!(pa, pb, "row-fed outputs diverge");
    // Column-fed agreement (also cross-checks the two front ends).
    let cols = ds.bit_columns();
    let ca = eval_columns(a, &cols);
    let cb = eval_columns(b, &cols);
    assert_eq!(ca, cb, "column-fed outputs diverge");
    for (o, packed) in ca.iter().enumerate() {
        for (k, &want) in pa[o].iter().enumerate() {
            let got = (packed[k / 64] >> (k % 64)) & 1 == 1;
            assert_eq!(got, want, "row/column disagreement at output {o} row {k}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rewrite_preserves_semantics_and_never_grows(ops in arb_ops(30)) {
        let g = build(&ops, NARROW);
        let before = truth_vectors(&g);
        for zero_gain in [false, true] {
            let cfg = RewriteConfig { zero_gain, ..RewriteConfig::default() };
            let h = rewrite(&g, &cfg);
            prop_assert!(h.num_ands() <= cleaned_ands(&g),
                "rewrite grew {} -> {}", cleaned_ands(&g), h.num_ands());
            prop_assert_eq!(truth_vectors(&h), before.clone());
        }
    }

    #[test]
    fn sweep_preserves_semantics_and_never_grows(ops in arb_ops(30)) {
        let g = build(&ops, NARROW);
        let before = truth_vectors(&g);
        let h = sweep(&g, &SweepConfig::default());
        prop_assert!(h.num_ands() <= cleaned_ands(&g),
            "sweep grew {} -> {}", cleaned_ands(&g), h.num_ands());
        prop_assert_eq!(truth_vectors(&h), before);
    }

    #[test]
    fn full_pipeline_preserves_semantics(ops in arb_ops(40)) {
        let g = build(&ops, NARROW);
        let before = truth_vectors(&g);
        let h = Pipeline::resyn(11).run_fixpoint(&g, 3);
        prop_assert!(h.num_ands() <= cleaned_ands(&g));
        prop_assert_eq!(truth_vectors(&h), before);
    }

    #[test]
    fn every_pass_preserves_structural_invariants(ops in arb_ops(30)) {
        // The structural verifier must hold after *every* pass state the
        // pipeline can produce, at both rewrite cut sizes — including the
        // zero-gain reshaping pass and the post-sweep merge state, which
        // exercise node replacement and strash rebuilds hardest.
        let g = build(&ops, NARROW);
        prop_assert!(g.check_invariants().is_ok(), "freshly built graph invalid");
        for k in [4usize, 6] {
            let passes: Vec<Box<dyn Pass>> = vec![
                Box::new(BalancePass),
                Box::new(RewritePass::default().with_cut_size(k)),
                Box::new(RewritePass::zero_gain().with_cut_size(k)),
                Box::new(SweepPass::seeded(17)),
                Box::new(CleanupPass),
            ];
            let mut current = g.clone();
            for pass in &passes {
                current = pass.run(&current);
                let check = current.check_invariants();
                prop_assert!(check.is_ok(),
                    "invariants violated after `{}` (k={}): {:?}", pass.name(), k, check);
            }
        }
    }

    #[test]
    fn wide_graphs_agree_on_random_and_columnar_stimulus(ops in arb_ops(40)) {
        // 24 inputs: exhaustive checking is out, so random + columnar
        // agreement is the contract.
        let g = build(&ops, WIDE);
        for (tag, h) in [
            ("rewrite", rewrite(&g, &RewriteConfig::default())),
            ("sweep", sweep(&g, &SweepConfig::default())),
            ("pipeline", Pipeline::resyn(13).run_fixpoint(&g, 2)),
        ] {
            let _ = tag;
            prop_assert!(h.num_ands() <= cleaned_ands(&g));
            agree_wide(&g, &h, 0xC0FFEE);
        }
    }
}
