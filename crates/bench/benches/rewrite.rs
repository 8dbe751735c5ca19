//! The DAG-aware optimization pipeline vs `balance`-only, measured on two
//! corpora:
//!
//! * **learner-generated AIGs** — decision trees, random forests, boosted
//!   ensembles and LUT networks trained on contest benchmarks (the circuits
//!   the compile path actually sees);
//! * **arithmetic circuits** from `lsml_aig::circuits` (adders, comparators,
//!   multipliers, popcount-threshold, parity mixes).
//!
//! For every circuit the harness records the AND count and wall time after
//! `balance | cleanup` alone and after the full `resyn` pipeline at both
//! cut sizes (k = 4, the default, and k = 6 with 64-bit cut functions), and
//! writes per-circuit reductions plus the median pipeline-vs-balance
//! improvement, pass runtimes, and cached-vs-uncached compile timings to
//! `BENCH_rewrite.json`.
//!
//! Bench-smoke guard: the k = 4 learner-corpus median reduction must not
//! regress below the PR 3 baseline (16%), and k = 6 must reduce the median
//! learner AND count strictly below the k = 4 result — the run panics (and
//! CI fails) otherwise.
//!
//! Thread scaling: the pool latches `LSML_NUM_THREADS` at first use, so
//! (as `BENCH_pool.json` does) the k = 6 learner-corpus sweep re-executes
//! this binary as a child process per thread count — 1, 2 and the default
//! width — recording each leg's wall-clock into `BENCH_rewrite.json`. Two
//! more guards ride on the sweep: per-circuit AND counts must be
//! bit-identical across every leg (parallel passes are a throughput knob,
//! never a semantics knob — see `lsml_aig::par`), and the default-width
//! total must beat the PR 5 serial baseline by ≥ 2.5x.

use std::time::Instant;

use criterion::Criterion;
use lsml_aig::circuits;
use lsml_aig::opt::{BalancePass, CleanupPass, Pipeline};
use lsml_aig::Aig;
use lsml_benchgen::{suite, SampleConfig};
use lsml_core::compile::compile_cache_detail;
use lsml_core::{LearnedCircuit, SizeBudget};
use lsml_dtree::{
    DecisionTree, GradientBoost, GradientBoostConfig, RandomForest, RandomForestConfig, TreeConfig,
};
use lsml_lutnet::{LutNetConfig, LutNetwork};

struct Entry {
    name: String,
    corpus: &'static str,
    raw: usize,
    balanced: usize,
    piped_k4: usize,
    pipe_ms_k4: f64,
    piped_k6: usize,
    pipe_ms_k6: f64,
}

fn learner_corpus() -> Vec<(String, Aig)> {
    let cfg = SampleConfig {
        samples_per_split: 400,
        seed: 7,
    };
    let mut out = Vec::new();
    for &id in &[5usize, 30, 55, 75, 90] {
        let bench = &suite()[id];
        let data = bench.sample(&cfg);
        let tree = DecisionTree::train(
            &data.train,
            &TreeConfig {
                max_depth: Some(10),
                ..TreeConfig::default()
            },
        );
        out.push((format!("dt10/{}", bench.name), tree.to_aig()));
        let rf = RandomForest::train(
            &data.train,
            &RandomForestConfig {
                n_trees: 8,
                tree: TreeConfig {
                    max_depth: Some(8),
                    ..TreeConfig::default()
                },
                seed: 3,
                ..RandomForestConfig::default()
            },
        );
        out.push((format!("rf8/{}", bench.name), rf.to_aig()));
        let gb = GradientBoost::train(
            &data.train,
            &GradientBoostConfig {
                n_rounds: 20,
                max_depth: 4,
                ..GradientBoostConfig::default()
            },
        );
        out.push((format!("gb20/{}", bench.name), gb.to_aig()));
        let net = LutNetwork::train(
            &data.train,
            &LutNetConfig {
                luts_per_layer: 32,
                layers: 2,
                ..LutNetConfig::default()
            },
        );
        out.push((format!("lutnet/{}", bench.name), net.to_aig()));
    }
    out
}

fn circuits_corpus() -> Vec<(String, Aig)> {
    let mut out: Vec<(String, Aig)> = Vec::new();
    out.push(("adder8".into(), circuits::adder_aig(8)));
    out.push(("comparator10".into(), circuits::comparator_aig(10)));
    {
        let mut g = Aig::new(12);
        let ins = g.inputs();
        let (a, b) = ins.split_at(6);
        let prod = circuits::multiply(&mut g, a, b);
        for p in prod {
            g.add_output(p);
        }
        out.push(("multiplier6".into(), g));
    }
    {
        let mut g = Aig::new(24);
        let ins = g.inputs();
        let f = circuits::at_least(&mut g, &ins, 12);
        g.add_output(f);
        out.push(("at_least24".into(), g));
    }
    {
        let mut g = Aig::new(16);
        let ins = g.inputs();
        let p = circuits::parity(&mut g, &ins);
        let m = circuits::majority(&mut g, &ins);
        let f = g.and(p, !m);
        g.add_output(f);
        out.push(("parity_majority16".into(), g));
    }
    out
}

fn measure(name: String, corpus: &'static str, aig: &Aig) -> Entry {
    let mut cleaned = aig.clone();
    cleaned.cleanup();
    let balance_only = Pipeline::new().then(BalancePass).then(CleanupPass);
    let balanced = balance_only.run_fixpoint(&cleaned, 4);
    let pipeline_k4 = Pipeline::resyn(0);
    let t0 = Instant::now();
    let piped_k4 = pipeline_k4.run_fixpoint(&cleaned, 4);
    let pipe_ms_k4 = t0.elapsed().as_secs_f64() * 1e3;
    let pipeline_k6 = Pipeline::resyn_k6(0);
    let t0 = Instant::now();
    let piped_k6 = pipeline_k6.run_fixpoint(&cleaned, 4);
    let pipe_ms_k6 = t0.elapsed().as_secs_f64() * 1e3;
    for (k, piped) in [(4usize, &piped_k4), (6, &piped_k6)] {
        assert!(
            piped.num_ands() <= balanced.num_ands().max(cleaned.num_ands()),
            "{name}: k={k} pipeline grew the graph"
        );
    }
    Entry {
        name,
        corpus,
        raw: cleaned.num_ands(),
        balanced: balanced.num_ands(),
        piped_k4: piped_k4.num_ands(),
        pipe_ms_k4,
        piped_k6: piped_k6.num_ands(),
        pipe_ms_k6,
    }
}

/// `learner_pipeline_ms_total_k6` recorded by the PR 5 run of this bench
/// (the last fully serial in-circuit pipeline), and the speedup the
/// wavefront/parallel-pass PR must deliver against it at default width.
const K6_BASELINE_PR5_MS: f64 = 808.76;
const K6_REQUIRED_SPEEDUP: f64 = 2.5;

/// Child role: time the k = 6 learner-corpus fixpoint sweep at the pool
/// width the parent chose via `LSML_NUM_THREADS`, print the total and the
/// per-circuit AND counts, exit.
fn run_scaling_child() {
    let mut total_ms = 0.0;
    let mut ands = Vec::new();
    for (name, aig) in learner_corpus() {
        let mut cleaned = aig.clone();
        cleaned.cleanup();
        let pipeline = Pipeline::resyn_k6(0);
        let t0 = Instant::now();
        let piped = pipeline.run_fixpoint(&cleaned, 4);
        total_ms += t0.elapsed().as_secs_f64() * 1e3;
        ands.push(format!("{name}:{}", piped.num_ands()));
    }
    println!("REWRITE_SCALE_TOTAL_MS={total_ms}");
    println!("REWRITE_SCALE_ANDS={}", ands.join(";"));
}

/// Re-runs this binary in child mode at the given pool width (`None` =
/// the default width) and returns `(k6 total ms, per-circuit AND counts)`.
fn scaling_child(threads: Option<usize>) -> (f64, String) {
    let exe = std::env::current_exe().expect("current_exe");
    let mut cmd = std::process::Command::new(exe);
    cmd.env("LSML_REWRITE_BENCH_CHILD", "1");
    match threads {
        Some(t) => {
            cmd.env("LSML_NUM_THREADS", t.to_string());
        }
        None => {
            cmd.env_remove("LSML_NUM_THREADS");
        }
    }
    let output = cmd.output().expect("spawn rewrite-bench child");
    assert!(
        output.status.success(),
        "rewrite-bench child ({threads:?} threads) failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let total_ms: f64 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("REWRITE_SCALE_TOTAL_MS="))
        .and_then(|v| v.parse().ok())
        .expect("child printed no REWRITE_SCALE_TOTAL_MS");
    let ands = stdout
        .lines()
        .find_map(|l| l.strip_prefix("REWRITE_SCALE_ANDS="))
        .expect("child printed no REWRITE_SCALE_ANDS")
        .to_string();
    (total_ms, ands)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    if xs.is_empty() {
        return f64::NAN;
    }
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

fn main() {
    if std::env::var("LSML_REWRITE_BENCH_CHILD").is_ok() {
        run_scaling_child();
        return;
    }

    let learner = learner_corpus();
    // Criterion probe: the largest learner circuit, so regressions in pass
    // runtime show up in CI.
    let probe = learner
        .iter()
        .max_by_key(|(_, a)| a.num_ands())
        .expect("non-empty corpus")
        .1
        .clone();

    // Cached-vs-uncached compile timing, measured before anything touches
    // the probe so the cold leg is genuinely cold (no fixpoint-cache help).
    let budget = SizeBudget::exact(5000);
    let t0 = Instant::now();
    let cold = LearnedCircuit::compile(probe.clone(), "probe", &budget);
    let compile_cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let warm = LearnedCircuit::compile(probe.clone(), "probe", &budget);
    let compile_warm_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        cold.and_gates(),
        warm.and_gates(),
        "cache changed the result"
    );
    let cache = compile_cache_detail();
    let (cache_hits, cache_misses) = (cache.hits, cache.misses);
    assert!(
        cache_hits >= 1,
        "second identical compile must hit the cache"
    );

    let mut entries = Vec::new();
    for (name, aig) in learner {
        entries.push(measure(name, "learner", &aig));
    }
    for (name, aig) in circuits_corpus() {
        entries.push(measure(name, "circuits", &aig));
    }
    let mut c = Criterion::default().sample_size(10);
    c.bench_function("rewrite/balance_pass", |b| {
        b.iter(|| lsml_aig::opt::balance(&probe))
    });
    c.bench_function("rewrite/rewrite_pass", |b| {
        b.iter(|| lsml_aig::rewrite::rewrite(&probe, &Default::default()))
    });
    c.bench_function("rewrite/rewrite_pass_k6", |b| {
        b.iter(|| lsml_aig::rewrite::rewrite(&probe, &lsml_aig::rewrite::RewriteConfig::k6()))
    });
    c.bench_function("rewrite/sweep_pass", |b| {
        b.iter(|| lsml_aig::sweep::sweep(&probe, &Default::default()))
    });

    let reduction = |balanced: usize, piped: usize| {
        if balanced == 0 {
            0.0
        } else {
            100.0 * (balanced as f64 - piped as f64) / balanced as f64
        }
    };
    let learner_entries: Vec<&Entry> = entries.iter().filter(|e| e.corpus == "learner").collect();
    let learner_median = median(
        learner_entries
            .iter()
            .map(|e| reduction(e.balanced, e.piped_k4))
            .collect(),
    );
    let learner_median_k6 = median(
        learner_entries
            .iter()
            .map(|e| reduction(e.balanced, e.piped_k6))
            .collect(),
    );
    let circuits_median = median(
        entries
            .iter()
            .filter(|e| e.corpus == "circuits")
            .map(|e| reduction(e.balanced, e.piped_k4))
            .collect(),
    );
    let learner_median_ands_k4 =
        median(learner_entries.iter().map(|e| e.piped_k4 as f64).collect());
    let learner_median_ands_k6 =
        median(learner_entries.iter().map(|e| e.piped_k6 as f64).collect());
    let learner_ms_k4: f64 = learner_entries.iter().map(|e| e.pipe_ms_k4).sum();
    let learner_ms_k6: f64 = learner_entries.iter().map(|e| e.pipe_ms_k6).sum();

    println!("pipeline vs balance-only median reduction:");
    println!("  learner corpus (k=4): {learner_median:.1}%  ({learner_ms_k4:.0} ms total)");
    println!("  learner corpus (k=6): {learner_median_k6:.1}%  ({learner_ms_k6:.0} ms total)");
    println!("  circuits corpus:      {circuits_median:.1}%");
    println!(
        "  learner median ANDs:  k=4 {learner_median_ands_k4:.0} vs k=6 {learner_median_ands_k6:.0}"
    );
    println!(
        "compile cache: cold {compile_cold_ms:.1} ms, warm {compile_warm_ms:.3} ms \
         ({cache_hits} hits / {cache_misses} misses)"
    );
    // Bench-smoke regression guards (the PR 3 baseline was a 16% median
    // learner-corpus reduction; k = 6 must buy strictly smaller medians).
    assert!(
        learner_median >= 16.0,
        "k=4 learner-corpus median reduction {learner_median:.2}% regressed below the 16% baseline"
    );
    assert!(
        learner_median_ands_k6 < learner_median_ands_k4,
        "k=6 median AND count {learner_median_ands_k6} not below k=4 {learner_median_ands_k4}"
    );

    // ---- thread-scaling sweep (child process per pool width) -------------
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let legs: Vec<(Option<usize>, String)> = vec![
        (Some(1), "1".to_string()),
        (Some(2), "2".to_string()),
        (None, format!("default({hw})")),
    ];
    println!("k=6 learner-corpus thread scaling:");
    let mut scale_results = Vec::new();
    for (threads, label) in &legs {
        let (total_ms, ands) = scaling_child(*threads);
        println!("  {label:>10} threads: {total_ms:.0} ms total");
        scale_results.push((label.clone(), total_ms, ands));
    }
    // Bit-identity guard: the parallel passes must never change results,
    // so every leg's per-circuit AND counts must equal the 1-thread leg's.
    for (label, _, ands) in &scale_results[1..] {
        assert_eq!(
            ands, &scale_results[0].2,
            "{label}-thread AND counts diverged from the 1-thread leg"
        );
    }
    // Wall-clock guard on `learner_pipeline_ms_total_k6` — the same
    // in-process measurement PR 5 recorded, so the ratio compares like
    // with like (the child legs above start with cold NPN memo and carry
    // process-startup noise; they are scaling data, not the guard).
    let scale_speedup = K6_BASELINE_PR5_MS / learner_ms_k6.max(1e-9);
    println!(
        "  default-width speedup vs PR 5 baseline ({K6_BASELINE_PR5_MS:.0} ms): {scale_speedup:.2}x"
    );
    assert!(
        scale_speedup >= K6_REQUIRED_SPEEDUP,
        "k=6 learner total {learner_ms_k6:.0} ms is only {scale_speedup:.2}x over the \
         PR 5 baseline {K6_BASELINE_PR5_MS:.0} ms (need {K6_REQUIRED_SPEEDUP}x)"
    );

    let mut json = String::from("{\n  \"circuits\": [\n");
    for (i, e) in entries.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"corpus\": \"{}\", \"raw_ands\": {}, \"balance_ands\": {}, \"pipeline_ands\": {}, \"reduction_vs_balance_pct\": {:.2}, \"pipeline_ms\": {:.2}, \"pipeline_ands_k6\": {}, \"reduction_vs_balance_pct_k6\": {:.2}, \"pipeline_ms_k6\": {:.2}}}{}\n",
            e.name,
            e.corpus,
            e.raw,
            e.balanced,
            e.piped_k4,
            reduction(e.balanced, e.piped_k4),
            e.pipe_ms_k4,
            e.piped_k6,
            reduction(e.balanced, e.piped_k6),
            e.pipe_ms_k6,
            if i + 1 == entries.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n  \"passes\": [\n");
    let results = c.results();
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"median_ns\": {:.1}}}{}\n",
            r.name,
            r.median_ns,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"compile_cache\": {{\"cold_ms\": {compile_cold_ms:.2}, \"warm_ms\": {compile_warm_ms:.4}, \"speedup\": {:.1}, \"hits\": {cache_hits}, \"misses\": {cache_misses}}},\n",
        compile_cold_ms / compile_warm_ms.max(1e-9)
    ));
    json.push_str("  \"thread_scaling\": {\n    \"legs\": [\n");
    for (i, (label, total_ms, _)) in scale_results.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"threads\": \"{label}\", \"learner_k6_total_ms\": {total_ms:.2}}}{}\n",
            if i + 1 == scale_results.len() {
                ""
            } else {
                ","
            }
        ));
    }
    json.push_str(&format!(
        "    ],\n    \"baseline_pr5_k6_ms\": {K6_BASELINE_PR5_MS},\n    \"default_speedup_vs_pr5\": {scale_speedup:.2},\n    \"ands_bit_identical_across_legs\": true\n  }},\n"
    ));
    json.push_str(&format!(
        "  \"learner_median_reduction_pct\": {learner_median:.2},\n  \"learner_median_reduction_pct_k6\": {learner_median_k6:.2},\n  \"circuits_median_reduction_pct\": {circuits_median:.2},\n  \"learner_median_ands_k4\": {learner_median_ands_k4:.1},\n  \"learner_median_ands_k6\": {learner_median_ands_k6:.1},\n  \"learner_pipeline_ms_total_k4\": {learner_ms_k4:.2},\n  \"learner_pipeline_ms_total_k6\": {learner_ms_k6:.2}\n}}\n"
    ));
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_rewrite.json");
    std::fs::write(out, json).expect("write BENCH_rewrite.json");
    println!("wrote {out}");
}
