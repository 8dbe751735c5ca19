//! Property tests: random AIGs behave like their reference evaluation under
//! simulation, serialization, cleanup and balancing.

mod common;

use common::{arb_ops, build_gates, Op};
use lsml_aig::aig::Aig;
use lsml_aig::aiger::{read_aag, read_aig, write_aag, write_aig};
use lsml_aig::opt::balance;
use lsml_aig::sim::eval_patterns;
use lsml_pla::Pattern;
use proptest::prelude::*;

const NI: usize = 6;

fn build(ops: &[Op]) -> Aig {
    let (mut g, lits) = build_gates(ops, NI);
    let out = *lits.last().expect("at least one literal");
    g.add_output(out);
    g
}

fn truth_vector(g: &Aig) -> Vec<bool> {
    (0..(1u64 << NI))
        .map(|m| {
            let bits: Vec<bool> = (0..NI).map(|i| (m >> i) & 1 == 1).collect();
            g.eval(&bits)[0]
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn word_simulation_matches_eval(ops in arb_ops(30)) {
        let g = build(&ops);
        let patterns: Vec<Pattern> =
            (0..(1u64 << NI)).map(|m| Pattern::from_index(m, NI)).collect();
        let preds = eval_patterns(&g, &patterns);
        prop_assert_eq!(preds, truth_vector(&g));
    }

    #[test]
    fn cleanup_preserves_function(ops in arb_ops(30)) {
        let g = build(&ops);
        let before = truth_vector(&g);
        let mut h = g.clone();
        h.cleanup();
        prop_assert!(h.num_ands() <= g.num_ands());
        prop_assert_eq!(truth_vector(&h), before);
    }

    #[test]
    fn aiger_roundtrip_preserves_function(ops in arb_ops(30)) {
        let g = build(&ops);
        let mut buf = Vec::new();
        write_aag(&g, &mut buf).expect("write");
        let h = read_aag(buf.as_slice()).expect("read");
        prop_assert_eq!(truth_vector(&h), truth_vector(&g));
    }

    #[test]
    fn binary_aiger_roundtrip_preserves_function(ops in arb_ops(30)) {
        let g = build(&ops);
        let mut buf = Vec::new();
        write_aig(&g, &mut buf).expect("write");
        let h = read_aig(buf.as_slice()).expect("read");
        prop_assert_eq!(h.num_ands(), g.num_ands());
        prop_assert_eq!(truth_vector(&h), truth_vector(&g));
    }

    #[test]
    fn balance_preserves_function_and_depth(ops in arb_ops(30)) {
        let g = build(&ops);
        let h = balance(&g);
        prop_assert_eq!(truth_vector(&h), truth_vector(&g));
        // Balance may reshape but must not blow the depth up.
        prop_assert!(h.depth() <= g.depth().max(1) * 2);
    }

    #[test]
    fn strash_keeps_graph_canonical(ops in arb_ops(30)) {
        // Rebuilding the same ops twice yields identical node counts.
        let g = build(&ops);
        let h = build(&ops);
        prop_assert_eq!(g.num_ands(), h.num_ands());
        prop_assert_eq!(g.outputs()[0], h.outputs()[0]);
    }
}
