//! The (1+λ) evolution strategy with 1/5-th-rule mutation adaptation.

use lsml_aig::Aig;
use lsml_pla::{BitColumns, Dataset};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::genome::{EvalBuffer, Genome};

/// Initial per-field mutation probability (adapted by the 1/5-th rule).
const MUTATION_RATE: f64 = 0.02;

/// CGP evolution configuration.
#[derive(Clone, Debug)]
pub struct CgpConfig {
    /// Genome length (grid columns; Team 9 used 500 or 5000 for random
    /// init).
    pub n_nodes: usize,
    /// Offspring per generation — Team 9 used the (1+4)-ES.
    pub lambda: usize,
    /// Number of generations.
    pub generations: usize,
    /// Allow XOR genes (XAIG mode) in addition to AND/INV.
    pub use_xor: bool,
    /// Mini-batch size for fitness evaluation; `None` uses the full
    /// training set every generation.
    pub batch_size: Option<usize>,
    /// Generations between mini-batch refreshes (Team 9 used 1000/2000).
    pub batch_refresh: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CgpConfig {
    fn default() -> Self {
        CgpConfig {
            n_nodes: 500,
            lambda: 4,
            generations: 2000,
            use_xor: true,
            batch_size: None,
            batch_refresh: 1000,
            seed: 0,
        }
    }
}

/// Outcome of an evolution run.
#[derive(Clone, Debug)]
pub struct CgpResult {
    /// The best individual found.
    pub genome: Genome,
    /// Its accuracy on the full training set.
    pub train_accuracy: f64,
    /// Generations actually executed.
    pub generations: usize,
    /// Final (adapted) mutation rate.
    pub final_mutation_rate: f64,
}

impl CgpResult {
    /// Decodes the winner into an AIG.
    pub fn to_aig(&self) -> Aig {
        self.genome.to_aig()
    }
}

/// Evolves from a random individual ("unbiased" flow).
pub fn evolve(ds: &Dataset, cfg: &CgpConfig) -> CgpResult {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let parent = Genome::random(ds.num_inputs().max(1), cfg.n_nodes, cfg.use_xor, &mut rng);
    run(ds, cfg, parent, rng)
}

/// Evolves from a seed AIG ("bootstrapped" flow): the genome is sized at
/// twice the seed circuit and fine-tuned on the training set.
///
/// # Panics
///
/// Panics if the seed AIG does not have exactly one output or its input
/// count differs from the dataset.
pub fn evolve_bootstrapped(ds: &Dataset, seed_aig: &Aig, cfg: &CgpConfig) -> CgpResult {
    assert_eq!(
        seed_aig.num_inputs(),
        ds.num_inputs(),
        "seed AIG arity mismatch"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Twice the original AIG: pad with as many random genes as the encoding
    // used for the functional part.
    let probe = Genome::from_aig(seed_aig, 0, cfg.use_xor, &mut rng);
    let padding = probe.len().max(8);
    let parent = Genome::from_aig(seed_aig, padding, cfg.use_xor, &mut rng);
    run(ds, cfg, parent, rng)
}

fn run(ds: &Dataset, cfg: &CgpConfig, mut parent: Genome, mut rng: StdRng) -> CgpResult {
    if ds.is_empty() {
        let acc = 1.0;
        return CgpResult {
            genome: parent,
            train_accuracy: acc,
            generations: 0,
            final_mutation_rate: MUTATION_RATE,
        };
    }
    // The columns fitness is scored on: the training set's, or the current
    // mini-batch's.
    let mut columns = ds.bit_columns();
    let mut buf = EvalBuffer::default();

    let mut rate = MUTATION_RATE;
    let mut active = parent.active_mask();
    let mut parent_fit = fitness(&parent, &active, &columns, &mut buf);

    for generation in 0..cfg.generations {
        // Refresh the mini-batch periodically (adds stochasticity that Team 9
        // found helps generalization on random-initialized runs).
        if let Some(bs) = cfg.batch_size {
            if generation % cfg.batch_refresh.max(1) == 0 {
                let bs = bs.min(ds.len()).max(1);
                columns = ds.bootstrap(bs, &mut rng).bit_columns();
                // Re-evaluate the parent on the new batch.
                parent_fit = fitness(&parent, &active, &columns, &mut buf);
            }
        }

        // A child whose mutations all missed the parent's phenotype has the
        // parent's fitness and is not evaluated (Goldman & Punch's neutral
        // offspring). It still competes, and may replace the parent.
        let mut best_child: Option<(Genome, (f64, usize), bool)> = None;
        for _ in 0..cfg.lambda {
            let child = parent.mutate(rate, cfg.use_xor, &mut rng);
            let neutral = parent.same_phenotype(&child, &active);
            let fit = if neutral {
                parent_fit
            } else {
                fitness(&child, &child.active_mask(), &columns, &mut buf)
            };
            if best_child.as_ref().is_none_or(|(_, bf, _)| fit > *bf) {
                best_child = Some((child, fit, neutral));
            }
        }
        let (child, child_fit, neutral) = best_child.expect("lambda >= 1");
        // (1+4)-ES acceptance: the child replaces the parent when it is at
        // least as fit (neutral drift); phenotype size breaks ties upward.
        let improved = child_fit.0 > parent_fit.0;
        if child_fit >= parent_fit {
            parent = child;
            parent_fit = child_fit;
            if !neutral {
                active = parent.active_mask();
            }
        }
        // 1/5-th success rule (Doerr & Doerr's discrete variant): grow the
        // rate on success, shrink it gently on failure. The floor keeps the
        // expected number of mutated fields near one per offspring.
        let floor = 1.0 / (3.0 * parent.len().max(1) as f64);
        if improved {
            rate = (rate * 1.5).min(0.25);
        } else {
            rate = (rate * 1.5f64.powf(-0.25)).max(floor.min(0.02));
        }
    }

    let train_accuracy = parent.accuracy(ds);
    CgpResult {
        genome: parent,
        train_accuracy,
        generations: cfg.generations,
        final_mutation_rate: rate,
    }
}

/// Fitness: (accuracy on the columns, phenotype size). Larger phenotypes
/// are preferred on accuracy ties, following Milano & Nolfi's preferential
/// selection of larger solutions.
fn fitness(
    g: &Genome,
    active: &[bool],
    columns: &BitColumns,
    buf: &mut EvalBuffer,
) -> (f64, usize) {
    let acc = columns.accuracy_of_packed(g.eval_columns(active, columns, buf));
    (acc, active.iter().filter(|&&a| a).count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsml_pla::Pattern;

    fn full_dataset(f: impl Fn(u64) -> bool, nv: usize) -> Dataset {
        let mut ds = Dataset::new(nv);
        for m in 0..(1u64 << nv) {
            ds.push(Pattern::from_index(m, nv), f(m));
        }
        ds
    }

    #[test]
    fn evolves_xor_exactly() {
        let ds = full_dataset(|m| (m ^ (m >> 1)) & 1 == 1, 2);
        let cfg = CgpConfig {
            n_nodes: 12,
            generations: 400,
            seed: 1,
            ..CgpConfig::default()
        };
        let r = evolve(&ds, &cfg);
        assert!(
            (r.train_accuracy - 1.0).abs() < 1e-12,
            "accuracy {}",
            r.train_accuracy
        );
    }

    #[test]
    fn aig_matches_genome() {
        let ds = full_dataset(|m| m & 0b11 == 0b01, 4);
        let cfg = CgpConfig {
            n_nodes: 40,
            generations: 300,
            ..CgpConfig::default()
        };
        let r = evolve(&ds, &cfg);
        let aig = r.to_aig();
        for m in 0..16u64 {
            let p = Pattern::from_index(m, 4);
            let bits: Vec<bool> = p.iter().collect();
            assert_eq!(aig.eval(&bits)[0], r.genome.predict(&p), "at {m:04b}");
        }
    }

    #[test]
    fn bootstrap_never_loses_seed_accuracy() {
        let ds = full_dataset(|m| (m & 0b101) == 0b101, 5);
        // Seed: an exact AIG for the target.
        let mut seed = Aig::new(5);
        let (a, c) = (seed.input(0), seed.input(2));
        let f = seed.and(a, c);
        seed.add_output(f);
        let cfg = CgpConfig {
            generations: 200,
            seed: 3,
            ..CgpConfig::default()
        };
        let r = evolve_bootstrapped(&ds, &seed, &cfg);
        assert!((r.train_accuracy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bootstrap_improves_imperfect_seed() {
        // Seed circuit gets ~75% (x0 instead of x0 AND x1).
        let ds = full_dataset(|m| m & 0b11 == 0b11, 4);
        let mut seed = Aig::new(4);
        let a = seed.input(0);
        seed.add_output(a);
        let cfg = CgpConfig {
            generations: 600,
            seed: 5,
            ..CgpConfig::default()
        };
        let r = evolve_bootstrapped(&ds, &seed, &cfg);
        assert!(r.train_accuracy >= 0.75);
    }

    #[test]
    fn minibatch_mode_still_learns() {
        let ds = full_dataset(|m| m & 1 == 1, 6);
        let cfg = CgpConfig {
            n_nodes: 30,
            generations: 500,
            batch_size: Some(32),
            batch_refresh: 100,
            seed: 2,
            ..CgpConfig::default()
        };
        let r = evolve(&ds, &cfg);
        assert!(r.train_accuracy > 0.9, "accuracy {}", r.train_accuracy);
    }

    #[test]
    fn mutation_rate_is_adapted() {
        let ds = full_dataset(|m| m.count_ones() % 2 == 1, 3);
        let cfg = CgpConfig {
            n_nodes: 20,
            generations: 100,
            ..CgpConfig::default()
        };
        let r = evolve(&ds, &cfg);
        assert!(r.final_mutation_rate > 0.0);
        assert!(r.final_mutation_rate <= 0.25);
    }

    #[test]
    fn deterministic_under_seed() {
        let ds = full_dataset(|m| m % 5 < 2, 4);
        let cfg = CgpConfig {
            n_nodes: 25,
            generations: 150,
            seed: 9,
            ..CgpConfig::default()
        };
        let a = evolve(&ds, &cfg);
        let b = evolve(&ds, &cfg);
        assert_eq!(a.genome, b.genome);
    }
}
