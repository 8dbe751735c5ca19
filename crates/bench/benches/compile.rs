//! Batched incremental compilation vs per-candidate compilation on the
//! boosting-team driver workload.
//!
//! The workload is the shape Team 7's gradient-boosting sweep produces: one
//! trained XGBoost-style model per benchmark, scored at every round prefix
//! `1..=T` to pick the best train/size trade-off. The **from-scratch**
//! (pre-batch) side rebuilds the majority-of-trees circuit per prefix,
//! compiles each one through [`LearnedCircuit::compile`], and scores each
//! compiled candidate individually. The **batched** side emits the rounds
//! incrementally into one [`CompileBatch`]'s shared strashed graph (round
//! `t+1` strash-reuses round `t`'s trees), scores *all* prefixes with a
//! single shared simulation, and compiles only the winning cone.
//!
//! Both sides start from cleared compile and fixpoint caches, so the
//! comparison measures the machinery, not memoization. The run panics (and
//! CI fails) unless
//!
//! * the winners agree **bit-for-bit** — same round index, same structural
//!   fingerprint, same AND count, same validation accuracy to the last
//!   mantissa bit — and
//! * the end-to-end batched path is at least **3x** faster than the
//!   from-scratch path across the corpus.
//!
//! Per-round timings for both sides, the shared-strash node-reuse ratio,
//! and compile/fixpoint cache hit/eviction counters are written to
//! `BENCH_compile.json`.

use std::time::Instant;

use lsml_aig::opt::{fixpoint_cache_clear, fixpoint_cache_stats};
use lsml_benchgen::{suite, SampleConfig};
use lsml_core::compile::{compile_cache_clear, compile_cache_detail, CompileBatch};
use lsml_core::{LearnedCircuit, SizeBudget};
use lsml_dtree::{GradientBoost, GradientBoostConfig};

/// Boosting rounds scored per benchmark (each one is a candidate prefix).
const ROUNDS: usize = 24;

struct RoundTiming {
    round: usize,
    scratch_ms: f64,
    batched_ms: f64,
}

struct Entry {
    name: String,
    rounds: usize,
    scratch_ms: f64,
    batched_ms: f64,
    best_round: usize,
    best_ands: usize,
    best_accuracy: f64,
    reuse_ratio: f64,
    per_round: Vec<RoundTiming>,
}

fn main() {
    let cfg = SampleConfig {
        samples_per_split: 400,
        seed: 7,
    };
    let budget = SizeBudget::exact(5000);
    let mut entries: Vec<Entry> = Vec::new();

    for &id in &[5usize, 30, 55, 75, 90] {
        let bench = &suite()[id];
        let data = bench.sample(&cfg);
        let gb = GradientBoost::train(
            &data.train,
            &GradientBoostConfig {
                n_rounds: ROUNDS,
                max_depth: 4,
                ..GradientBoostConfig::default()
            },
        );
        let rounds = gb.n_trees();
        assert!(rounds > 0, "{}: boosting produced no trees", bench.name);

        // --- From-scratch side: per-prefix rebuild + compile + score. ---
        compile_cache_clear();
        fixpoint_cache_clear();
        let mut scratch_round_ms = Vec::with_capacity(rounds);
        let mut scratch_best: Option<(f64, usize, LearnedCircuit)> = None;
        let mut offered_ands = 0usize;
        let t_scratch = Instant::now();
        for t in 1..=rounds {
            let t0 = Instant::now();
            let aig = gb.to_aig_rounds(t);
            offered_ands += aig.num_ands();
            let c = LearnedCircuit::compile(aig, format!("xgb-r{t}"), &budget);
            let acc = c.accuracy(&data.valid);
            scratch_round_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            if scratch_best.as_ref().is_none_or(|(bacc, _, _)| acc > *bacc) {
                scratch_best = Some((acc, t, c));
            }
        }
        let scratch_ms = t_scratch.elapsed().as_secs_f64() * 1e3;
        let (scratch_acc, scratch_round, scratch_winner) =
            scratch_best.expect("at least one round");

        // --- Batched side: incremental emission, shared scoring, compile
        // the winner only. ---
        compile_cache_clear();
        fixpoint_cache_clear();
        let mut batched_round_ms = Vec::with_capacity(rounds);
        let t_batched = Instant::now();
        let mut batch = CompileBatch::new(data.train.num_inputs(), &budget);
        for t in 1..=rounds {
            let t0 = Instant::now();
            let out = gb.emit_into(batch.shared(), t);
            batch.add_cone(out, format!("xgb-r{t}"));
            batched_round_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        let accs = batch.accuracies(&data.valid);
        let mut best = 0usize;
        for (i, a) in accs.iter().enumerate() {
            if *a > accs[best] {
                best = i;
            }
        }
        let winner = batch.compile(best);
        let batched_ms = t_batched.elapsed().as_secs_f64() * 1e3;
        // Shared-strash reuse: AND gates the shared graph holds per gate the
        // from-scratch side built (1.0 = no sharing across prefixes).
        let reuse_ratio = batch.shared().num_ands() as f64 / offered_ands.max(1) as f64;

        // Equivalence guards: the batch must pick the same round and produce
        // the bit-identical circuit the from-scratch sweep produced.
        assert_eq!(
            best + 1,
            scratch_round,
            "{}: batched winner round diverged from from-scratch",
            bench.name
        );
        assert_eq!(
            winner.aig.structural_fingerprint(),
            scratch_winner.aig.structural_fingerprint(),
            "{}: batched winner is not bit-identical to from-scratch",
            bench.name
        );
        assert_eq!(winner.and_gates(), scratch_winner.and_gates());
        assert_eq!(
            accs[best].to_bits(),
            scratch_acc.to_bits(),
            "{}: shared-simulation accuracy diverged from per-candidate",
            bench.name
        );

        entries.push(Entry {
            name: bench.name.clone(),
            rounds,
            scratch_ms,
            batched_ms,
            best_round: scratch_round,
            best_ands: winner.and_gates(),
            best_accuracy: scratch_acc,
            reuse_ratio,
            per_round: (1..=rounds)
                .map(|t| RoundTiming {
                    round: t,
                    scratch_ms: scratch_round_ms[t - 1],
                    batched_ms: batched_round_ms[t - 1],
                })
                .collect(),
        });
    }

    let cache = compile_cache_detail();
    let (fixpoint_entries, fixpoint_evictions) = fixpoint_cache_stats();
    let total_scratch_ms: f64 = entries.iter().map(|e| e.scratch_ms).sum();
    let total_batched_ms: f64 = entries.iter().map(|e| e.batched_ms).sum();
    let speedup = total_scratch_ms / total_batched_ms.max(1e-9);

    println!("batched incremental compilation (boosting driver, {ROUNDS} rounds):");
    for e in &entries {
        println!(
            "  {:30} scratch {:8.1} ms  batched {:7.1} ms  ({:4.1}x)  reuse {:.3}  best r{} ({} ANDs, acc {:.4})",
            e.name,
            e.scratch_ms,
            e.batched_ms,
            e.scratch_ms / e.batched_ms.max(1e-9),
            e.reuse_ratio,
            e.best_round,
            e.best_ands,
            e.best_accuracy,
        );
    }
    println!(
        "  total: scratch {total_scratch_ms:.1} ms vs batched {total_batched_ms:.1} ms — {speedup:.1}x"
    );
    println!(
        "  compile cache: {} hits / {} misses / {} evictions ({} entries, {} of {} bytes); fixpoint cache: {} entries, {} evictions",
        cache.hits,
        cache.misses,
        cache.evictions,
        cache.entries,
        cache.bytes,
        cache.budget_bytes,
        fixpoint_entries,
        fixpoint_evictions,
    );

    // Bench-smoke guard: the headline claim of the batched path.
    assert!(
        speedup >= 3.0,
        "batched compilation speedup {speedup:.2}x fell below the 3x floor \
         ({total_scratch_ms:.1} ms scratch vs {total_batched_ms:.1} ms batched)"
    );

    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, e) in entries.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"rounds\": {}, \"from_scratch_ms\": {:.2}, \"batched_ms\": {:.2}, \"speedup\": {:.2}, \"reuse_ratio\": {:.4}, \"best_round\": {}, \"best_and_gates\": {}, \"best_accuracy\": {:.6}, \"per_round\": [",
            e.name,
            e.rounds,
            e.scratch_ms,
            e.batched_ms,
            e.scratch_ms / e.batched_ms.max(1e-9),
            e.reuse_ratio,
            e.best_round,
            e.best_ands,
            e.best_accuracy,
        ));
        for (j, r) in e.per_round.iter().enumerate() {
            json.push_str(&format!(
                "{{\"round\": {}, \"from_scratch_ms\": {:.3}, \"batched_ms\": {:.3}}}{}",
                r.round,
                r.scratch_ms,
                r.batched_ms,
                if j + 1 == e.per_round.len() { "" } else { ", " }
            ));
        }
        json.push_str(&format!(
            "]}}{}\n",
            if i + 1 == entries.len() { "" } else { "," }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"total_from_scratch_ms\": {total_scratch_ms:.2},\n  \"total_batched_ms\": {total_batched_ms:.2},\n  \"speedup\": {speedup:.2},\n"
    ));
    json.push_str(&format!(
        "  \"compile_cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"entries\": {}, \"bytes\": {}, \"budget_bytes\": {}}},\n",
        cache.hits, cache.misses, cache.evictions, cache.entries, cache.bytes, cache.budget_bytes
    ));
    json.push_str(&format!(
        "  \"fixpoint_cache\": {{\"entries\": {fixpoint_entries}, \"evictions\": {fixpoint_evictions}}}\n}}\n"
    ));
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_compile.json");
    std::fs::write(out, json).expect("write BENCH_compile.json");
    println!("wrote {out}");
}
