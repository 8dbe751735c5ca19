//! Inputs shared by the workloads: the drawn benchmarks, their samples and
//! the warm-up.

use lsml_aig::circuits::ripple_add;
use lsml_aig::opt::fixpoint_cache_clear;
use lsml_aig::Aig;
use lsml_benchgen::{suite, BenchData, Benchmark, SampleConfig};
use lsml_core::compile::compile_cache_clear;
use lsml_core::{LearnedCircuit, SizeBudget};

use crate::trace::Tracer;

/// Seed of the benchmark draw. It is fixed, not the run seed, so every run
/// times the same ten benchmarks.
const DRAW_SEED: u64 = 2020;

/// Sample and learner seed of the `contest`, `compile` and `serve` inputs.
/// Fixed as well: at these sample sizes the circuits learned swing with the
/// sample drawn (five seeds moved the contest's mean AND gates between 183
/// and 301), so seeded samples would drown the QoR metrics' signal and the
/// timings' in the draw. Those workloads take the run seed as the order in
/// which they issue their items; `sweep` takes it as its job seeds.
pub const INPUT_SEED: u64 = 1;

/// The benchmark ids the draw yields (checked by a test, and listed in
/// `BENCHMARK.json`).
#[cfg(test)]
const DRAWN_IDS: [usize; 10] = [6, 11, 28, 34, 41, 56, 66, 70, 83, 98];

/// SplitMix64: a small, well-mixed stream for deriving seeds and draws.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// One benchmark from each of the ten Table I categories (ids `10c..10c+9`),
/// drawn with [`DRAW_SEED`]. A draw rather than the suite prefix, whose
/// first ten entries are all adders.
pub fn drawn_benchmarks() -> Vec<Benchmark> {
    let all = suite();
    let mut state = DRAW_SEED;
    (0..10)
        .map(|c| all[10 * c + (splitmix(&mut state) % 10) as usize].clone())
        .collect()
}

/// Samples every benchmark, one `benchgen.sample` span each.
pub fn sample_all(
    benches: &[Benchmark],
    samples_per_split: usize,
    seed: u64,
    tr: &mut Tracer,
) -> Vec<BenchData> {
    let cfg = SampleConfig {
        samples_per_split,
        seed,
    };
    benches
        .iter()
        .map(|b| {
            let span = tr.open("benchgen.sample", b.id as u64);
            let data = b.sample(&cfg);
            tr.close(span);
            data
        })
        .collect()
}

/// Starts the work-stealing pool and fills the lazily built NPN library by
/// compiling a 16-bit adder's carry, then empties the caches it filled.
pub fn warm_up() {
    rayon::join(|| (), || ());
    let mut aig = Aig::new(32);
    let xs: Vec<_> = (0..32).map(|i| aig.input(i)).collect();
    let (_, carry) = ripple_add(&mut aig, &xs[..16], &xs[16..]);
    aig.add_output(carry);
    std::hint::black_box(LearnedCircuit::compile(
        aig,
        "warm-up",
        &SizeBudget::exact(5000),
    ));
    compile_cache_clear();
    fixpoint_cache_clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_seeded_and_complete() {
        let p = permutation(100, 5);
        assert_eq!(p, permutation(100, 5));
        assert_ne!(p, permutation(100, 6));
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn draw_is_fixed_and_covers_every_category() {
        let ids: Vec<usize> = drawn_benchmarks().iter().map(|b| b.id).collect();
        assert_eq!(ids, DRAWN_IDS);
        for (c, id) in ids.iter().enumerate() {
            assert_eq!(id / 10, c);
        }
    }
}
