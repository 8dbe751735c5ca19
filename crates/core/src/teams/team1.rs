//! Team 1 (U Tokyo / UC Berkeley) — the contest winner.
//!
//! "Take the best one among ESPRESSO, LUT network, RF, and pre-defined
//! standard function matching. If the AIG size exceeds the limit, a simple
//! approximation method is applied": ESPRESSO runs in first-irredundant
//! mode, the LUT network's shape is beam-searched, the random forest's
//! estimator count is explored from 4 to 16, and the approximation pass is
//! the random-simulation constant replacement of `lsml_aig::approx`.
//!
//! ESPRESSO on very wide benchmarks is gated by `espresso_max_inputs`
//! (two-level minimization over hundreds of inputs neither fits the node
//! budget nor generalizes — the paper's own Fig. 5 shows ESPRESSO winning
//! only on narrow cases).

use lsml_dtree::{RandomForest, RandomForestConfig, TreeConfig};
use lsml_espresso::{cover_to_aig, minimize_dataset, EspressoConfig};
use lsml_lutnet::{beam_search, LutNetConfig};
use lsml_matching::match_function;

use crate::compile::{CompileBatch, SizeBudget};
use crate::portfolio::{fan_out, RawCandidateTask};
use crate::problem::{LearnedCircuit, Learner, Problem};
use crate::teams::stage_seed;

/// Team 1's learner.
#[derive(Clone, Debug)]
pub struct Team1 {
    /// Random-forest estimator counts explored ("from 4 to 16").
    pub forest_sizes: Vec<usize>,
    /// Beam-search growth rounds for the LUT network.
    pub beam_rounds: usize,
    /// Input-width cap for the ESPRESSO candidate.
    pub espresso_max_inputs: usize,
}

impl Default for Team1 {
    fn default() -> Self {
        Team1 {
            forest_sizes: vec![4, 8, 16],
            beam_rounds: 2,
            espresso_max_inputs: 32,
        }
    }
}

impl Learner for Team1 {
    fn name(&self) -> &str {
        "team1"
    }

    fn learn(&self, problem: &Problem) -> LearnedCircuit {
        let merged = problem.merged();
        // Every candidate compiles through the shared budgeted path:
        // exact pipeline first, approximation only for circuits that still
        // exceed the limit (Team 1's own recipe, now centralized). The
        // training columns feed the sweep signatures, mirroring Team 1's
        // application-stimulus simulation.
        let budget = SizeBudget {
            seed: stage_seed(problem, 7),
            ..SizeBudget::for_problem(problem)
        };
        // Candidate *construction* fans out over the `rayon` pool:
        // each technique below is an independent boxed task producing a raw
        // graph, and the results come back in push order. Compilation
        // happens afterwards through one shared batch.
        let mut tasks: Vec<RawCandidateTask<'_>> = Vec::new();

        // (a) Standard-function matching — "the most important method in
        // the contest".
        let merged_ref = &merged;
        tasks.push(Box::new(move || {
            match_function(merged_ref).map(|m| (m.aig, "match".to_string()))
        }));

        // (b) ESPRESSO in first-irredundant mode.
        if problem.num_inputs() <= self.espresso_max_inputs {
            tasks.push(Box::new(move || {
                let cfg = EspressoConfig {
                    first_irredundant: true,
                };
                let cover = minimize_dataset(&problem.train, &cfg);
                Some((cover_to_aig(&cover), "espresso".to_string()))
            }));
        }

        // (c) LUT network with beam-searched shape.
        let beam_rounds = self.beam_rounds;
        tasks.push(Box::new(move || {
            let seed_cfg = LutNetConfig {
                luts_per_layer: 16,
                layers: 1,
                seed: stage_seed(problem, 1),
                ..LutNetConfig::default()
            };
            let beam = beam_search(&problem.train, &problem.valid, &seed_cfg, beam_rounds);
            Some((beam.network.to_aig(), "lutnet".to_string()))
        }));

        // (d) Random forests, estimator count explored 4..16.
        for &n in &self.forest_sizes {
            tasks.push(Box::new(move || {
                let rf = RandomForest::train(
                    &problem.train,
                    &RandomForestConfig {
                        n_trees: n,
                        tree: TreeConfig {
                            max_depth: Some(10),
                            ..TreeConfig::default()
                        },
                        seed: stage_seed(problem, 100 + n as u64),
                    },
                );
                Some((rf.to_aig(), format!("rf{n}")))
            }));
        }

        // All candidates land in one shared strashed graph (the forests in
        // particular overlap heavily across estimator counts), compile
        // under the training-columns sweep stimulus, and the batch selector
        // keeps `portfolio::select_best`'s exact semantics.
        let mut batch = CompileBatch::new(problem.train.num_inputs(), &budget)
            .with_sweep_columns(problem.train.bit_columns());
        for (aig, method) in fan_out(tasks) {
            batch.add_aig(&aig, method);
        }
        batch.select_best(&problem.valid, problem.node_limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::teams::testutil::problem_from;

    #[test]
    fn wins_on_matched_symmetric_function() {
        let (problem, test) = problem_from(10, 400, 11, |p| p.count_ones() >= 5);
        let c = Team1::default().learn(&problem);
        assert!(c.accuracy(&test) > 0.97, "acc {}", c.accuracy(&test));
    }

    #[test]
    fn espresso_handles_narrow_benchmarks() {
        let (problem, test) = problem_from(8, 256, 12, |p| p.get(0) && !p.get(3));
        let c = Team1::default().learn(&problem);
        assert!(c.accuracy(&test) > 0.95, "acc {}", c.accuracy(&test));
        assert!(c.fits(5000));
    }

    #[test]
    fn always_within_budget() {
        let (problem, _) = problem_from(24, 400, 13, |p| {
            (p.count_ones() * 7 + usize::from(p.get(3))) % 5 < 2
        });
        let c = Team1::default().learn(&problem);
        assert!(c.fits(5000), "gates {}", c.and_gates());
    }
}
