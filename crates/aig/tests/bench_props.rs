//! Property tests for `.bench` serialization: a write→read round trip must
//! reproduce the graph *structurally* (identical fingerprint, not merely
//! identical function), and the `.bench` and `.aag` encodings of the same
//! circuit must evaluate identically under word-parallel simulation.

mod common;

use common::{arb_ops, build_gates, Op};
use lsml_aig::aig::Aig;
use lsml_aig::aiger::{read_aag, write_aag};
use lsml_aig::bench::{read_bench, write_bench};
use lsml_aig::sim::eval_patterns_multi;
use lsml_pla::Pattern;
use proptest::prelude::*;

const NI: usize = 6;

fn build(ops: &[Op], extra_outputs: &[u8]) -> Aig {
    let (mut g, lits) = build_gates(ops, NI);
    g.add_output(*lits.last().expect("at least one literal"));
    for &o in extra_outputs {
        // Mix complemented outputs in: the writer's NOT/BUFF output gates
        // and NOT-alias edges both need coverage.
        let l = lits[o as usize % lits.len()];
        g.add_output(if o % 2 == 0 { l } else { !l });
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// write_bench → read_bench reproduces the exact structure: same node
    /// count and the same 128-bit structural fingerprint.
    #[test]
    fn bench_roundtrip_is_structurally_identical(
        ops in arb_ops(30),
        outs in proptest::collection::vec(any::<u8>(), 0..4),
    ) {
        let g = build(&ops, &outs);
        let mut buf = Vec::new();
        write_bench(&g, &mut buf).expect("write_bench");
        let h = read_bench(buf.as_slice()).expect("read_bench");
        prop_assert_eq!(h.num_inputs(), g.num_inputs());
        prop_assert_eq!(h.outputs().len(), g.outputs().len());
        prop_assert_eq!(h.num_nodes(), g.num_nodes());
        prop_assert_eq!(h.structural_fingerprint(), g.structural_fingerprint());
    }

    /// The `.bench` and `.aag` encodings of the same circuit parse back to
    /// graphs that agree on every output for every input pattern.
    #[test]
    fn bench_and_aag_evaluate_identically(
        ops in arb_ops(30),
        outs in proptest::collection::vec(any::<u8>(), 0..4),
    ) {
        let g = build(&ops, &outs);
        let (mut bench_buf, mut aag_buf) = (Vec::new(), Vec::new());
        write_bench(&g, &mut bench_buf).expect("write_bench");
        write_aag(&g, &mut aag_buf).expect("write_aag");
        let from_bench = read_bench(bench_buf.as_slice()).expect("read_bench");
        let from_aag = read_aag(aag_buf.as_slice()).expect("read_aag");
        let patterns: Vec<Pattern> =
            (0..(1u64 << NI)).map(|m| Pattern::from_index(m, NI)).collect();
        let a = eval_patterns_multi(&from_bench, &patterns);
        let b = eval_patterns_multi(&from_aag, &patterns);
        prop_assert_eq!(a, b);
    }
}
