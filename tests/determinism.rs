//! Determinism guarantees: identical seeds give identical benchmarks,
//! learners and scores — required for reproducible experiment tables.

use lsml_benchgen::{suite, SampleConfig};
use lsml_core::teams::{all_teams, Team1, Team10, Team9};
use lsml_core::{eval, Learner, Problem};

fn cfg() -> SampleConfig {
    SampleConfig {
        samples_per_split: 150,
        seed: 99,
    }
}

#[test]
fn suite_generation_is_reproducible() {
    let a = suite();
    let b = suite();
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.name, y.name);
        let dx = x.sample(&cfg());
        let dy = y.sample(&cfg());
        assert_eq!(dx.train, dy.train, "{}", x.name);
        assert_eq!(dx.test, dy.test, "{}", x.name);
    }
}

#[test]
fn learners_are_deterministic_under_seed() {
    let bench = &suite()[32];
    let data = bench.sample(&cfg());
    let problem = Problem::new(data.train.clone(), data.valid.clone(), 5);
    for learner in [
        Box::new(Team10::default()) as Box<dyn Learner>,
        Box::new(Team9 {
            generations: 300,
            ..Team9::default()
        }),
        Box::new(Team1::default()),
    ] {
        let a = learner.learn(&problem);
        let b = learner.learn(&problem);
        let pa = lsml_aig::sim::eval_patterns(&a.aig, data.test.patterns());
        let pb = lsml_aig::sim::eval_patterns(&b.aig, data.test.patterns());
        assert_eq!(pa, pb, "{} differs across runs", learner.name());
        assert_eq!(a.method, b.method);
    }
}

#[test]
fn different_seeds_change_sampling() {
    let bench = &suite()[60];
    let a = bench.sample(&SampleConfig {
        samples_per_split: 100,
        seed: 1,
    });
    let b = bench.sample(&SampleConfig {
        samples_per_split: 100,
        seed: 2,
    });
    assert_ne!(a.train, b.train);
}

#[test]
fn scores_are_stable_across_runs() {
    let bench = &suite()[36];
    let data = bench.sample(&cfg());
    let problem = Problem::new(data.train.clone(), data.valid.clone(), 17);
    let teams = all_teams();
    let team = &teams[9]; // team10: cheap and deterministic
    let s1 = eval::evaluate(&team.learn(&problem), &data);
    let s2 = eval::evaluate(&team.learn(&problem), &data);
    assert_eq!(s1.test_accuracy, s2.test_accuracy);
    assert_eq!(s1.and_gates, s2.and_gates);
    assert_eq!(s1.levels, s2.levels);
}

/// The four MLP teams' scores on one benchmark, bit for bit: a change to
/// the numerics of `lsml-neural` (a neuron's summation order, the order of
/// the SGD updates) moves at least one of them.
#[test]
fn mlp_team_scores_are_pinned() {
    let bench = &suite()[41];
    let data = bench.sample(&SampleConfig {
        samples_per_split: 64,
        seed: 1,
    });
    let problem = Problem::new(data.train.clone(), data.valid.clone(), 1);
    let teams = all_teams();
    let pins: [(usize, u64, usize, &str); 4] = [
        (3, 0x3fe7_8000_0000_0000, 79, "ensemble[dt+dt+fringe-dt]"),
        (4, 0x3fe1_0000_0000_0000, 105, "afn-sub(k=10,L2)"),
        (5, 0x3fe7_0000_0000_0000, 7, "nn-4feature-search"),
        (8, 0x3fe5_0000_0000_0000, 507, "rf17"),
    ];
    for (team, accuracy_bits, and_gates, method) in pins {
        let circuit = teams[team - 1].learn(&problem);
        let score = eval::evaluate(&circuit, &data);
        assert_eq!(
            (
                score.test_accuracy.to_bits(),
                score.and_gates,
                circuit.method.as_str()
            ),
            (accuracy_bits, and_gates, method),
            "team{team}"
        );
    }
}
