//! Worker-pool benchmarks: the two acceptance measurements of the
//! runtime + bit-sliced-boosting PR, recorded in `BENCH_pool.json`.
//!
//! * **boost training** — `GradientBoost::train` (packed-mask subsets,
//!   bit-sliced ⟨grad, hess⟩ split search, one thread) vs the retained
//!   row-major reference trainer, on the 1000×32 acceptance dataset.
//! * **portfolio scaling** — scoring a candidate portfolio against a
//!   validation set's cached bit columns, one `portfolio::fan_out` task per
//!   candidate on the `rayon` pool vs the chunked scoped-thread fan-out the
//!   pool replaced (reimplemented below, faithfully), at 1, 2, and all
//!   hardware threads.
//!
//! The pool latches its size from `LSML_NUM_THREADS` at first use, so the
//! pool-side thread sweep re-executes this binary as a child process per
//! thread count (`LSML_POOL_BENCH_CHILD=1` selects the child role); the
//! chunked baseline takes its worker count as a plain parameter and runs
//! in-process.

use criterion::Criterion;
use lsml_aig::Aig;
use lsml_core::portfolio::{fan_out, Task};
use lsml_core::LearnedCircuit;
use lsml_dtree::{GradientBoost, GradientBoostConfig};
use lsml_pla::{Dataset, Pattern};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

const BOOST_EXAMPLES: usize = 1000;
const BOOST_INPUTS: usize = 32;
const BOOST_ROUNDS: usize = 15;

const PORTFOLIO_CANDIDATES: usize = 128;
const PORTFOLIO_EXAMPLES: usize = 4096;
const PORTFOLIO_INPUTS: usize = 32;
const PORTFOLIO_GATES: usize = 400;

fn boost_dataset() -> Dataset {
    let mut rng = StdRng::seed_from_u64(0xb005);
    let mut ds = Dataset::new(BOOST_INPUTS);
    for _ in 0..BOOST_EXAMPLES {
        let p = Pattern::random(&mut rng, BOOST_INPUTS);
        let label = (p.get(1) ^ p.get(9)) || (p.get(4) && p.get(22)) || rng.gen_bool(0.05);
        ds.push(p, label);
    }
    ds
}

fn validation_dataset() -> Dataset {
    let mut rng = StdRng::seed_from_u64(0x7a11);
    let mut ds = Dataset::new(PORTFOLIO_INPUTS);
    for _ in 0..PORTFOLIO_EXAMPLES {
        let p = Pattern::random(&mut rng, PORTFOLIO_INPUTS);
        let label = p.get(0) ^ (p.get(5) && p.get(17)) ^ rng.gen_bool(0.1);
        ds.push(p, label);
    }
    ds
}

/// A random `gates`-AND circuit over the portfolio inputs, built from a
/// growing frontier of literals so depth and sharing vary per candidate.
fn random_candidate(seed: u64) -> LearnedCircuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut aig = Aig::new(PORTFOLIO_INPUTS);
    let mut frontier = aig.inputs();
    for _ in 0..PORTFOLIO_GATES {
        let a = frontier[rng.gen_range(0..frontier.len())];
        let b = frontier[rng.gen_range(0..frontier.len())];
        let lit = match rng.gen_range(0..3u32) {
            0 => aig.and(a, b),
            1 => aig.or(a, b),
            _ => aig.xor(a, b),
        };
        frontier.push(if rng.gen_bool(0.5) { lit } else { !lit });
    }
    let out = *frontier.last().expect("non-empty frontier");
    aig.add_output(out);
    LearnedCircuit::new(aig, format!("candidate-{seed}"))
}

fn candidates() -> Vec<LearnedCircuit> {
    (0..PORTFOLIO_CANDIDATES as u64)
        .map(random_candidate)
        .collect()
}

/// Portfolio evaluation on the `rayon` pool: one [`fan_out`] task per
/// candidate, each an accuracy scan against the cached validation columns.
fn portfolio_pool(cands: &[LearnedCircuit], valid: &Dataset) -> f64 {
    let tasks: Vec<Task<'_, f64>> = cands
        .iter()
        .map(|c| -> Task<'_, f64> { Box::new(move || Some(c.accuracy(valid))) })
        .collect();
    fan_out(tasks).iter().fold(0.0f64, |acc, &a| acc.max(a))
}

/// The PR-1 driver, verbatim semantics: fixed-size chunks pulled off a
/// shared atomic counter by `workers` scoped threads spawned per call.
fn portfolio_chunked(cands: &[LearnedCircuit], valid: &Dataset, workers: usize) -> f64 {
    let n = cands.len();
    if workers <= 1 {
        return cands
            .iter()
            .map(|c| c.accuracy(valid))
            .fold(0.0f64, f64::max);
    }
    let chunk = (n / (workers * 4)).max(1);
    let next = AtomicUsize::new(0);
    let parts: Mutex<Vec<(usize, Vec<f64>)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + chunk).min(n);
                let accs: Vec<f64> = (start..end).map(|i| cands[i].accuracy(valid)).collect();
                parts.lock().expect("worker poisoned").push((start, accs));
            });
        }
    });
    let parts = parts.into_inner().expect("worker poisoned");
    parts
        .iter()
        .flat_map(|(_, accs)| accs.iter())
        .fold(0.0f64, |acc, &a| acc.max(a))
}

/// Child role: measure the pool-side portfolio scan at the pool size the
/// parent chose via `LSML_NUM_THREADS`, print the median, exit.
fn run_child() {
    let valid = validation_dataset();
    let _ = valid.bit_columns();
    let cands = candidates();
    let mut c = Criterion::default().sample_size(15);
    c.bench_function(
        &format!("pool/portfolio/pool_{}t", rayon::current_num_threads()),
        |b| b.iter(|| portfolio_pool(&cands, &valid)),
    );
    let median = c.results()[0].median_ns;
    println!("POOL_MEDIAN_NS={median}");
}

/// Re-runs this binary in child mode at the given pool size.
fn child_pool_median(threads: usize) -> f64 {
    let exe = std::env::current_exe().expect("current_exe");
    let output = std::process::Command::new(exe)
        .env("LSML_POOL_BENCH_CHILD", "1")
        .env("LSML_NUM_THREADS", threads.to_string())
        .output()
        .expect("spawn pool-bench child");
    assert!(
        output.status.success(),
        "pool-bench child failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("POOL_MEDIAN_NS="))
        .and_then(|v| v.parse().ok())
        .expect("child printed no POOL_MEDIAN_NS")
}

fn main() {
    if std::env::var("LSML_POOL_BENCH_CHILD").is_ok() {
        run_child();
        return;
    }

    // ---- (a) bit-sliced vs row-major boosted training -------------------
    let ds = boost_dataset();
    let _ = ds.bit_columns();
    let cfg = GradientBoostConfig {
        n_rounds: BOOST_ROUNDS,
        ..GradientBoostConfig::default()
    };
    // Sanity: the two trainers must agree bitwise before timing them.
    {
        let a = GradientBoost::train(&ds, &cfg);
        let b = GradientBoost::train_row_major(&ds, &cfg);
        for i in 0..64 {
            let p = ds.pattern(i);
            assert_eq!(
                a.score(p).to_bits(),
                b.score(p).to_bits(),
                "trainers diverge"
            );
        }
    }
    let mut c = Criterion::default().sample_size(10);
    c.bench_function("pool/boost_train/rows_1000x32", |b| {
        b.iter(|| GradientBoost::train_row_major(&ds, &cfg))
    });
    c.bench_function("pool/boost_train/bit_sliced_1000x32", |b| {
        b.iter(|| GradientBoost::train(&ds, &cfg))
    });
    let rows_ns = c.results()[0].median_ns;
    let sliced_ns = c.results()[1].median_ns;
    let boost_speedup = rows_ns / sliced_ns;
    println!("boost training speedup (rows / bit-sliced): {boost_speedup:.1}x");

    // ---- (b) portfolio scaling: pool vs chunked fan-out ------------------
    let valid = validation_dataset();
    let _ = valid.bit_columns();
    let cands = candidates();
    let all = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut threads: Vec<usize> = vec![1, 2, all];
    threads.sort_unstable();
    threads.dedup();
    threads.retain(|&t| t <= all.max(2));

    // The two drivers must agree on the scores.
    {
        let a = portfolio_pool(&cands, &valid);
        let b = portfolio_chunked(&cands, &valid, 2);
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "drivers disagree on best accuracy"
        );
    }

    let mut scaling: Vec<(usize, f64, f64)> = Vec::new();
    for &t in &threads {
        let pool_ns = child_pool_median(t);
        let mut c = Criterion::default().sample_size(15);
        c.bench_function(&format!("pool/portfolio/chunked_{t}t"), |b| {
            b.iter(|| portfolio_chunked(&cands, &valid, t))
        });
        let chunked_ns = c.results()[0].median_ns;
        println!(
            "portfolio {t} thread(s): pool {:.3} ms vs chunked {:.3} ms ({:.2}x)",
            pool_ns / 1e6,
            chunked_ns / 1e6,
            chunked_ns / pool_ns
        );
        scaling.push((t, pool_ns, chunked_ns));
    }

    // ---- JSON export -----------------------------------------------------
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"boost_train\": {{\"examples\": {BOOST_EXAMPLES}, \"inputs\": {BOOST_INPUTS}, \"rounds\": {BOOST_ROUNDS}, \"row_major_ns\": {rows_ns:.1}, \"bit_sliced_ns\": {sliced_ns:.1}, \"speedup\": {boost_speedup:.2}}},\n"
    ));
    json.push_str(&format!(
        "  \"portfolio\": {{\n    \"candidates\": {PORTFOLIO_CANDIDATES}, \"examples\": {PORTFOLIO_EXAMPLES}, \"gates_per_candidate\": {PORTFOLIO_GATES}, \"hardware_threads\": {all},\n    \"scaling\": [\n"
    ));
    for (i, (t, pool_ns, chunked_ns)) in scaling.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"threads\": {t}, \"pool_ns\": {pool_ns:.1}, \"chunked_ns\": {chunked_ns:.1}, \"pool_vs_chunked\": {:.2}}}{}\n",
            chunked_ns / pool_ns,
            if i + 1 == scaling.len() { "" } else { "," }
        ));
    }
    json.push_str("    ]\n  }\n}\n");
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pool.json");
    std::fs::write(out, json).expect("write BENCH_pool.json");
    println!("wrote {out}");
}
