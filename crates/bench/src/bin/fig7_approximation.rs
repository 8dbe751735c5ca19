//! Regenerates **Fig. 7** (Team 1): accuracy and size of LUT-network AIGs
//! before and after size reduction brings them under the 5000-node limit.
//! The paper reports "the accuracy drops at most 5% while reducing 3000-5000
//! nodes" on the learnable benchmarks.
//!
//! Since the compile-path refactor, `approx::reduce` spends the *exact*
//! optimization pipeline (`balance | rewrite | sweep`) before sacrificing
//! accuracy, so the table also reports the intermediate exact-rewrite size:
//! `orig_gates` → `rewrite_gates` (zero accuracy cost) → `approx_gates`
//! (accuracy traded only for the remainder).
//!
//! ```text
//! cargo run -p lsml-bench --bin fig7_approximation --release
//! ```

use lsml_aig::opt::{Pipeline, FIXPOINT_ROUNDS};
use lsml_aig::{reduce, ApproxConfig};
use lsml_bench::RunScale;
use lsml_lutnet::{LutNetConfig, LutNetwork};

fn main() {
    let scale = RunScale::from_env();
    eprintln!(
        "fig7: {} benchmarks x {} samples/split",
        scale.count, scale.samples
    );
    println!("bench,orig_gates,orig_acc,rewrite_gates,approx_gates,approx_acc,acc_drop");
    for bench in scale.benchmarks() {
        let data = scale.sample(&bench);
        // A deliberately large LUT network, like Team 1's 1028x8 shape.
        let net = LutNetwork::train(
            &data.train,
            &LutNetConfig {
                luts_per_layer: 256,
                layers: 4,
                ..LutNetConfig::default()
            },
        );
        let big = net.to_aig();
        let orig_acc = data.test.accuracy_of(|p| net.predict(p));
        let cfg = ApproxConfig {
            node_limit: 5000,
            ..ApproxConfig::default()
        };
        // The exact prefix of the reduction, reported separately; the
        // fixpoint cache makes reduce's own prelude a no-op hash probe on
        // the converged graph rather than a re-optimization.
        let rewritten = Pipeline::resyn(cfg.seed).run_fixpoint(&big, FIXPOINT_ROUNDS);
        let small = reduce(&rewritten, &cfg);
        let preds = lsml_aig::sim::eval_patterns(&small, data.test.patterns());
        let approx_acc = data.test.accuracy_of_slice(&preds);
        println!(
            "{},{},{:.4},{},{},{:.4},{:.4}",
            bench.name,
            big.num_ands(),
            orig_acc,
            rewritten.num_ands(),
            small.num_ands(),
            approx_acc,
            orig_acc - approx_acc
        );
    }
}
