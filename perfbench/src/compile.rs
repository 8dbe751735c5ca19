//! `compile`: cold `LearnedCircuit::compile` calls, one at a time, under
//! `SizeBudget::for_problem`, over a fixed corpus of raw learner circuits
//! built in setup and issued in an order drawn from the run seed. A few of
//! the corpus are forests too large for the exact pipeline, so the approx
//! fallback runs on them. Caches are cleared before each pass.
//!
//! The traced run also times, next to each compile and outside the timed
//! phase, one application of each public pass to the same input's
//! canonical cone, and one `approx::reduce_traced` for the circuits that
//! needed approximation.

use std::hint::black_box;
use std::time::Instant;

use lsml_aig::approx::{reduce_traced, ApproxConfig};
use lsml_aig::opt::{fixpoint_cache_clear, BalancePass, CleanupPass, Pass, RewritePass, SweepPass};
use lsml_aig::{sim, Aig};
use lsml_benchgen::BenchData;
use lsml_core::compile::compile_cache_clear;
use lsml_core::{BudgetVerdict, LearnedCircuit, Problem, SizeBudget};
use lsml_dtree::{
    DecisionTree, GradientBoost, GradientBoostConfig, RandomForest, RandomForestConfig, TreeConfig,
};

use crate::inputs::{drawn_benchmarks, permutation, sample_all, INPUT_SEED};
use crate::trace::Tracer;
use crate::{Tally, Workload};

/// Samples per split the corpus learners train on.
const SAMPLES: usize = 1024;

/// Drawn benchmarks (indices into the draw) that also get a large forest:
/// three whose approx calls are among the cheaper ones, so that a pass stays
/// near 2 s on a 2-vCPU host. The cost of approx swings forty-fold with the
/// training data for the same forest shape, one reason the inputs are
/// fixed.
const LARGE: [usize; 3] = [4, 5, 9];

/// Sample seed of the large forests.
const LARGE_SEED: u64 = 7;

/// Raw AND-count window of a large forest: above the exact pipeline's
/// reach, below the size where one approx call would dominate a pass.
const LARGE_MIN_ANDS: usize = 7_000;
const LARGE_MAX_ANDS: usize = 9_000;

struct Item {
    /// Index of the (data, budget) pair it was learned from.
    source: usize,
    raw: Aig,
    method: String,
    /// AND gates of the raw circuit's canonical cone.
    cone_ands: usize,
    /// First pass's result: structural fingerprint, AND gates, verdict and
    /// the circuit itself.
    first: Option<(u128, usize, BudgetVerdict, Aig)>,
}

pub struct Compile {
    sources: Vec<(BenchData, SizeBudget)>,
    items: Vec<Item>,
    checked: bool,
    /// Layer counters: compile calls, approximated ones, and their AND
    /// gates in (canonical cone) and out.
    compiled: u64,
    approximated: u64,
    ands_in: f64,
    ands_out: f64,
}

fn forest(data: &BenchData, n_trees: usize, max_depth: usize, seed: u64) -> Aig {
    RandomForest::train(
        &data.train,
        &RandomForestConfig {
            n_trees,
            tree: TreeConfig {
                max_depth: Some(max_depth),
                ..TreeConfig::default()
            },
            seed,
            ..RandomForestConfig::default()
        },
    )
    .to_aig()
}

fn boost(data: &BenchData, n_rounds: usize, max_depth: usize) -> Aig {
    GradientBoost::train(
        &data.train,
        &GradientBoostConfig {
            n_rounds,
            max_depth,
            ..GradientBoostConfig::default()
        },
    )
    .to_aig()
}

fn tree(data: &BenchData, max_depth: Option<usize>) -> Aig {
    DecisionTree::train(
        &data.train,
        &TreeConfig {
            max_depth,
            ..TreeConfig::default()
        },
    )
    .to_aig()
}

/// The smallest deep forest, by tree count, whose raw size reaches
/// [`LARGE_MIN_ANDS`], trimmed back under [`LARGE_MAX_ANDS`].
fn large_forest(d: &BenchData, seed: u64) -> (Aig, String) {
    let mut n_trees = 9;
    let mut aig = forest(d, n_trees, 16, seed);
    while aig.num_ands() < LARGE_MIN_ANDS && n_trees < 63 {
        n_trees += 6;
        aig = forest(d, n_trees, 16, seed);
    }
    while aig.num_ands() > LARGE_MAX_ANDS && n_trees > 3 {
        n_trees -= 2;
        aig = forest(d, n_trees, 16, seed);
    }
    (aig, format!("forest-{n_trees}x16"))
}

fn source(d: BenchData, seed: u64) -> (BenchData, SizeBudget) {
    let budget = SizeBudget::for_problem(&Problem::new(d.train.clone(), d.valid.clone(), seed));
    (d, budget)
}

impl Compile {
    pub fn setup(seed: u64, tr: &mut Tracer) -> Compile {
        let benches = drawn_benchmarks();
        let mut sources: Vec<_> = sample_all(&benches, SAMPLES, INPUT_SEED, tr)
            .into_iter()
            .map(|d| source(d, INPUT_SEED))
            .collect();
        let mut raws: Vec<(usize, Aig, String)> = Vec::new();
        for (i, (d, _)) in sources.iter().enumerate() {
            raws.push((i, tree(d, Some(6)), "tree-d6".into()));
            raws.push((i, tree(d, None), "tree".into()));
            raws.push((i, forest(d, 5, 6, INPUT_SEED), "forest-5x6".into()));
            raws.push((i, boost(d, 8, 4), "boost-8x4".into()));
            raws.push((i, boost(d, 24, 5), "boost-24x5".into()));
        }
        let large: Vec<_> = LARGE.iter().map(|&b| benches[b].clone()).collect();
        for d in sample_all(&large, SAMPLES, LARGE_SEED, tr) {
            let (aig, method) = large_forest(&d, LARGE_SEED);
            raws.push((sources.len(), aig, method));
            sources.push(source(d, LARGE_SEED));
        }
        let mut raws: Vec<_> = raws.into_iter().map(Some).collect();
        let items = permutation(raws.len(), seed)
            .into_iter()
            .filter_map(|i| raws[i].take())
            .map(|(source, raw, method)| Item {
                source,
                cone_ands: raw.extract_cone(raw.outputs()).num_ands(),
                raw,
                method,
                first: None,
            })
            .collect();
        Compile {
            sources,
            items,
            checked: false,
            compiled: 0,
            approximated: 0,
            ands_in: 0.0,
            ands_out: 0.0,
        }
    }
}

/// One application of each public pass, `aig` and `approx` probes.
fn probe(tr: &mut Tracer, id: u64, raw: &Aig, budget: &SizeBudget, approximated: bool) {
    let s = tr.open("aig.extract_cone", id);
    let cone = raw.extract_cone(raw.outputs());
    tr.close(s);
    let s = tr.open("aig.fingerprint", id);
    black_box(cone.structural_fingerprint());
    tr.close(s);
    let passes: [(&'static str, Box<dyn Pass>); 5] = [
        ("opt.balance", Box::new(BalancePass)),
        ("opt.rewrite", Box::new(RewritePass::default())),
        ("opt.rewrite_z", Box::new(RewritePass::zero_gain())),
        ("opt.sweep", Box::new(SweepPass::seeded(budget.seed))),
        ("opt.cleanup", Box::new(CleanupPass)),
    ];
    for (name, pass) in passes {
        let s = tr.open(name, id);
        black_box(pass.run(&cone));
        tr.close(s);
    }
    if approximated {
        let cfg = ApproxConfig {
            node_limit: budget.node_limit,
            stimulus: budget.stimulus.clone(),
            seed: budget.seed,
            ..ApproxConfig::default()
        };
        let s = tr.open("approx.reduce", id);
        black_box(reduce_traced(&cone, &cfg));
        tr.close(s);
    }
}

impl Workload for Compile {
    fn pass(&mut self, tr: &mut Tracer, tally: &mut Tally) {
        compile_cache_clear();
        fixpoint_cache_clear();
        for (i, item) in self.items.iter_mut().enumerate() {
            let (data, budget) = &self.sources[item.source];
            let span = tr.open("compile.compile", i as u64);
            let start = Instant::now();
            let (circuit, verdict) = LearnedCircuit::compile_with_verdict(
                item.raw.clone(),
                item.method.as_str(),
                budget,
            );
            tally.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
            tr.close(span);
            if tr.is_on() {
                let paused = Instant::now();
                probe(
                    tr,
                    i as u64,
                    &item.raw,
                    budget,
                    verdict == BudgetVerdict::Approximated,
                );
                tally.paused += paused.elapsed();
            }

            tally.attempted += 1;
            tally.circuits += 1;
            let ands = circuit.and_gates();
            tally.score(circuit.accuracy(&data.test), ands);
            self.compiled += 1;
            self.approximated += u64::from(verdict == BudgetVerdict::Approximated);
            self.ands_in += item.cone_ands as f64;
            self.ands_out += ands as f64;
            if let BudgetVerdict::OverBudget { ands, limit } = verdict {
                tally.failed += 1;
                tally.errors.push(format!(
                    "item {i} ({}): {ands} ANDs over the {limit} limit",
                    item.method
                ));
            }
            let fingerprint = circuit.aig.structural_fingerprint();
            match &item.first {
                None => item.first = Some((fingerprint, ands, verdict, circuit.aig)),
                Some((f, a, v, _)) if (*f, *a, *v) != (fingerprint, ands, verdict) => {
                    tally.errors.push(format!(
                        "item {i} ({}): compiled to a different circuit than an earlier pass",
                        item.method
                    ))
                }
                Some(_) => {}
            }
        }
    }

    /// Every compile that took no approximation agrees with its raw circuit
    /// on all of its benchmark's test patterns.
    fn check(&mut self, tally: &mut Tally) {
        if std::mem::replace(&mut self.checked, true) {
            return;
        }
        for (i, item) in self.items.iter().enumerate() {
            let Some((_, _, BudgetVerdict::ExactFit, compiled)) = &item.first else {
                continue;
            };
            let patterns = self.sources[item.source].0.test.patterns();
            if sim::eval_patterns(&item.raw, patterns) != sim::eval_patterns(compiled, patterns) {
                tally.errors.push(format!(
                    "item {i} ({}): exact compile disagrees with its raw circuit on test patterns",
                    item.method
                ));
            }
        }
    }

    fn begin_phase(&mut self) {
        (self.compiled, self.approximated) = (0, 0);
        (self.ands_in, self.ands_out) = (0.0, 0.0);
    }

    fn layer_counters(&self) -> Vec<(&'static str, f64)> {
        let n = self.compiled.max(1) as f64;
        vec![
            ("approx.circuits", self.approximated as f64),
            ("opt.ands_in", self.ands_in / n),
            ("opt.ands_out", self.ands_out / n),
        ]
    }
}
