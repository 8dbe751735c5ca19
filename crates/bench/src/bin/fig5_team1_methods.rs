//! Regenerates **Figs. 5 & 6** (Team 1's preliminary experiment): per
//! benchmark, the test accuracy and AIG size of ESPRESSO, the LUT network
//! and the random forest run in isolation.
//!
//! ```text
//! cargo run -p lsml-bench --bin fig5_team1_methods --release
//! ```

use lsml_bench::RunScale;
use lsml_core::Problem;
use lsml_dtree::{RandomForest, RandomForestConfig, TreeConfig};
use lsml_espresso::{cover_to_aig, minimize_dataset, EspressoConfig};
use lsml_lutnet::{LutNetConfig, LutNetwork};

fn main() {
    let scale = RunScale::from_env();
    eprintln!(
        "fig5/6: {} benchmarks x {} samples/split",
        scale.count, scale.samples
    );
    println!("bench,espresso_acc,lutnet_acc,rf_acc,espresso_gates,lutnet_gates,rf_gates");
    for bench in scale.benchmarks() {
        let data = scale.sample(&bench);
        let problem = Problem::new(data.train.clone(), data.valid.clone(), scale.seed);

        // ESPRESSO (first-irredundant), gated exactly like Team 1's pipeline.
        let (esp_acc, esp_gates) = if problem.num_inputs() <= 32 {
            let cover = minimize_dataset(
                &problem.train,
                &EspressoConfig {
                    first_irredundant: true,
                },
            );
            let aig = cover_to_aig(&cover);
            let preds = lsml_aig::sim::eval_patterns(&aig, data.test.patterns());
            (data.test.accuracy_of_slice(&preds), aig.num_ands())
        } else {
            (f64::NAN, 0)
        };

        // LUT network (Team 1's fixed preliminary shape, scaled down).
        let net = LutNetwork::train(
            &problem.train,
            &LutNetConfig {
                luts_per_layer: 64,
                layers: 4,
                ..LutNetConfig::default()
            },
        );
        let lut_aig = net.to_aig();
        let lut_acc = data.test.accuracy_of(|p| net.predict(p));

        // Random forest with 8 estimators.
        let rf = RandomForest::train(
            &problem.train,
            &RandomForestConfig {
                n_trees: 8,
                tree: TreeConfig {
                    max_depth: Some(10),
                    ..TreeConfig::default()
                },
                ..RandomForestConfig::default()
            },
        );
        let rf_aig = rf.to_aig();
        let rf_acc = data.test.accuracy_of(|p| rf.predict(p));

        println!(
            "{},{:.4},{:.4},{:.4},{},{},{}",
            bench.name,
            esp_acc,
            lut_acc,
            rf_acc,
            esp_gates,
            lut_aig.num_ands(),
            rf_aig.num_ands()
        );
    }
}
