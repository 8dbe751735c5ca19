//! `contest`: the paper's pipeline. One unit is one team learning one drawn
//! benchmark (`Learner::learn`) and the harness scoring it
//! (`eval::evaluate`); a pass is all 10 × 10 units from cold caches, in an
//! order drawn from the run seed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use lsml_aig::opt::fixpoint_cache_clear;
use lsml_benchgen::BenchData;
use lsml_core::compile::compile_cache_clear;
use lsml_core::problem::NODE_LIMIT;
use lsml_core::teams::all_teams;
use lsml_core::{eval, Learner, Problem};

use crate::inputs::{drawn_benchmarks, permutation, sample_all, INPUT_SEED};
use crate::trace::Tracer;
use crate::{Tally, Workload};

/// Samples per split. Small enough that a pass fits a run; Team 4's cost
/// (the 2^16-pattern subspace prediction) does not depend on it.
const SAMPLES: usize = 64;

const TEAM_SPANS: [&str; 10] = [
    "teams.team1.learn",
    "teams.team2.learn",
    "teams.team3.learn",
    "teams.team4.learn",
    "teams.team5.learn",
    "teams.team6.learn",
    "teams.team7.learn",
    "teams.team8.learn",
    "teams.team9.learn",
    "teams.team10.learn",
];

pub struct Contest {
    teams: Vec<Box<dyn Learner>>,
    problems: Vec<(Problem, BenchData)>,
    /// Unit order: unit `u` is team `u % 10` on benchmark `u / 10`.
    order: Vec<usize>,
    /// Each unit's first (test accuracy bits, AND gates), to hold later
    /// passes to.
    first: Vec<Option<(u64, usize)>>,
}

impl Contest {
    pub fn setup(seed: u64, tr: &mut Tracer) -> Contest {
        let data = sample_all(&drawn_benchmarks(), SAMPLES, INPUT_SEED, tr);
        let problems: Vec<_> = data
            .into_iter()
            .map(|d| {
                (
                    Problem::new(d.train.clone(), d.valid.clone(), INPUT_SEED),
                    d,
                )
            })
            .collect();
        let teams = all_teams();
        let units = problems.len() * teams.len();
        Contest {
            teams,
            problems,
            order: permutation(units, seed),
            first: vec![None; units],
        }
    }
}

impl Workload for Contest {
    fn pass(&mut self, tr: &mut Tracer, tally: &mut Tally) {
        compile_cache_clear();
        fixpoint_cache_clear();
        for &unit in &self.order {
            let (problem, data) = &self.problems[unit / self.teams.len()];
            let t = unit % self.teams.len();
            let team = &self.teams[t];
            let span = tr.open("contest.unit", unit as u64);
            let start = Instant::now();
            let score = catch_unwind(AssertUnwindSafe(|| {
                let s = tr.open(TEAM_SPANS[t], unit as u64);
                let circuit = team.learn(problem);
                tr.close(s);
                let s = tr.open("eval.evaluate", unit as u64);
                let score = eval::evaluate(&circuit, data);
                tr.close(s);
                score
            }));
            tally.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
            tr.close(span);
            tally.attempted += 1;
            let Ok(score) = score else {
                tally.failed += 1;
                tally
                    .errors
                    .push(format!("unit {unit}: {} panicked", team.name()));
                continue;
            };
            tally.circuits += 1;
            tally.score(score.test_accuracy, score.and_gates);
            if score.and_gates > NODE_LIMIT {
                tally.failed += 1;
                tally.errors.push(format!(
                    "unit {unit}: {} delivered {} ANDs, over the {NODE_LIMIT} limit",
                    team.name(),
                    score.and_gates
                ));
            }
            let got = (score.test_accuracy.to_bits(), score.and_gates);
            match self.first[unit] {
                None => self.first[unit] = Some(got),
                Some(want) if want != got => tally.errors.push(format!(
                    "unit {unit}: {} gave (accuracy, gates) {:?}, an earlier pass {:?}",
                    team.name(),
                    (score.test_accuracy, score.and_gates),
                    (f64::from_bits(want.0), want.1)
                )),
                Some(_) => {}
            }
        }
    }
}
