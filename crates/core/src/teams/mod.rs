//! The ten contest team pipelines (paper Section IV and appendix).
//!
//! Each team is a [`Learner`] faithful to the description in the paper,
//! built from the workspace substrates. Where a team relied on an
//! external tool (WEKA, scikit-learn, XGBoost, ABC) the equivalent substrate
//! crate stands in; deviations are noted in each team's module docs.
//!
//! Computation budgets (epochs, generations, ensemble sizes) default to
//! values that keep a full 100-benchmark contest run tractable on a laptop;
//! every budget is a public config field so the paper-scale settings can be
//! dialed in.

mod team1;
mod team10;
mod team2;
mod team3;
mod team4;
mod team5;
mod team6;
mod team7;
mod team8;
mod team9;

pub use team1::Team1;
pub use team10::Team10;
pub use team2::Team2;
pub use team3::Team3;
pub use team4::Team4;
pub use team5::Team5;
pub use team6::Team6;
pub use team7::Team7;
pub use team8::Team8;
pub use team9::Team9;

use crate::problem::{Learner, Problem};

/// All ten teams with default budgets, in team-number order.
pub fn all_teams() -> Vec<Box<dyn Learner>> {
    vec![
        Box::new(Team1::default()),
        Box::new(Team2::default()),
        Box::new(Team3::default()),
        Box::new(Team4::default()),
        Box::new(Team5::default()),
        Box::new(Team6::default()),
        Box::new(Team7::default()),
        Box::new(Team8::default()),
        Box::new(Team9::default()),
        Box::new(Team10::default()),
    ]
}

/// Derives a per-stage RNG seed from the problem seed.
pub(crate) fn stage_seed(problem: &Problem, salt: u64) -> u64 {
    problem.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

#[cfg(test)]
pub(crate) mod testutil {
    use lsml_pla::{Dataset, Pattern};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::problem::Problem;

    /// A small problem sampled from a closure oracle.
    pub fn problem_from(
        nv: usize,
        n: usize,
        seed: u64,
        f: impl Fn(&Pattern) -> bool,
    ) -> (Problem, Dataset) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sets: Vec<Dataset> = Vec::new();
        for _ in 0..3 {
            let mut ds = Dataset::new(nv);
            for _ in 0..n {
                let p = Pattern::random(&mut rng, nv);
                let label = f(&p);
                ds.push(p, label);
            }
            sets.push(ds);
        }
        let test = sets.pop().expect("three sets");
        let valid = sets.pop().expect("three sets");
        let train = sets.pop().expect("three sets");
        (Problem::new(train, valid, seed), test)
    }
}
