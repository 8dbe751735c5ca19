//! Kernel-layer benchmarks: scalar vs best-SIMD per popcount kernel, the
//! espresso/BDD columnar scans vs their retained row-major baselines on the
//! 1000×32 acceptance corpus, and an end-to-end learner timing on the same
//! corpus.
//!
//! Besides printing criterion timings, the harness writes the measurements
//! and speedups to `BENCH_kernels.json` at the repository root. When the
//! host has no SIMD backend (`available_backends() == [Scalar]`) the file
//! records scalar-vs-scalar parity instead of a speedup claim.

use criterion::Criterion;
use lsml_bdd::BddManager;
use lsml_dtree::{GradientBoost, GradientBoostConfig};
use lsml_espresso::{minimize_dataset, minimize_dataset_row_major, EspressoConfig};
use lsml_pla::kernels::{self, Backend};
use lsml_pla::{Dataset, Pattern};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const EXAMPLES: usize = 1000;
const INPUTS: usize = 32;
/// Microbench buffer: 8192 words = 64 KiB per operand (cache-resident, so
/// the kernels are compute-bound and the backend difference is visible).
const KERNEL_WORDS: usize = 8192;

fn dataset() -> Dataset {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut ds = Dataset::new(INPUTS);
    for _ in 0..EXAMPLES {
        let p = Pattern::random(&mut rng, INPUTS);
        let label = (p.get(0) ^ p.get(7)) || (p.get(3) && p.get(19)) || rng.gen_bool(0.05);
        ds.push(p, label);
    }
    ds
}

fn main() {
    let mut rng = StdRng::seed_from_u64(0xbeef);
    let a: Vec<u64> = (0..KERNEL_WORDS).map(|_| rng.gen()).collect();
    let b: Vec<u64> = (0..KERNEL_WORDS).map(|_| rng.gen()).collect();
    let c: Vec<u64> = (0..KERNEL_WORDS).map(|_| rng.gen()).collect();

    let backends = kernels::available_backends();
    let best = backends[0];
    println!(
        "host backends: {:?} (active: {})",
        backends.iter().map(|x| x.name()).collect::<Vec<_>>(),
        kernels::active_backend().name()
    );

    // Sanity: every backend agrees before anything is timed.
    for &backend in backends {
        assert_eq!(
            kernels::popcount_with(backend, &a),
            kernels::popcount_with(Backend::Scalar, &a)
        );
        assert_eq!(
            kernels::popcount_and_with(backend, &a, &b),
            kernels::popcount_and_with(Backend::Scalar, &a, &b)
        );
        assert_eq!(
            kernels::popcount_and3_with(backend, &a, &b, &c),
            kernels::popcount_and3_with(Backend::Scalar, &a, &b, &c)
        );
        assert_eq!(
            kernels::popcount_xor_with(backend, &a, &b),
            kernels::popcount_xor_with(Backend::Scalar, &a, &b)
        );
    }

    let ds = dataset();
    let cfg = EspressoConfig {
        first_irredundant: true,
    };
    assert_eq!(
        minimize_dataset(&ds, &cfg).cubes(),
        minimize_dataset_row_major(&ds, &cfg).cubes(),
        "espresso columnar/row covers diverge"
    );
    {
        let mut mgr = BddManager::new(INPUTS);
        let rows = mgr.from_dataset_row_major(&ds);
        let cols = mgr.from_dataset(&ds);
        assert_eq!(rows, cols, "bdd columnar/row refs diverge");
    }

    let mut crit = Criterion::default().sample_size(20);

    // --- Per-kernel scalar vs every available backend. ---
    let kernel_names = ["popcount", "popcount_and", "popcount_and3", "popcount_xor"];
    for &backend in backends {
        let tag = backend.name();
        crit.bench_function(&format!("kernels/popcount/{tag}_8192w"), |bch| {
            bch.iter(|| kernels::popcount_with(backend, &a))
        });
        crit.bench_function(&format!("kernels/popcount_and/{tag}_8192w"), |bch| {
            bch.iter(|| kernels::popcount_and_with(backend, &a, &b))
        });
        crit.bench_function(&format!("kernels/popcount_and3/{tag}_8192w"), |bch| {
            bch.iter(|| kernels::popcount_and3_with(backend, &a, &b, &c))
        });
        crit.bench_function(&format!("kernels/popcount_xor/{tag}_8192w"), |bch| {
            bch.iter(|| kernels::popcount_xor_with(backend, &a, &b))
        });
    }

    // --- Espresso and BDD: columnar vs row-major on the 1000×32 corpus. ---
    crit.bench_function("kernels/espresso/rows_1000x32", |bch| {
        bch.iter(|| minimize_dataset_row_major(&ds, &cfg))
    });
    crit.bench_function("kernels/espresso/columns_1000x32", |bch| {
        bch.iter(|| minimize_dataset(&ds, &cfg))
    });
    crit.bench_function("kernels/bdd_from_dataset/rows_1000x32", |bch| {
        bch.iter(|| {
            let mut mgr = BddManager::new(INPUTS);
            mgr.from_dataset_row_major(&ds)
        })
    });
    crit.bench_function("kernels/bdd_from_dataset/columns_1000x32", |bch| {
        bch.iter(|| {
            let mut mgr = BddManager::new(INPUTS);
            mgr.from_dataset(&ds)
        })
    });

    // --- End-to-end learner on the corpus (boosted trees, bit-sliced). ---
    let gb_cfg = GradientBoostConfig {
        n_rounds: 10,
        max_depth: 4,
        ..GradientBoostConfig::default()
    };
    crit.bench_function("kernels/learner/gradient_boost_10r_1000x32", |bch| {
        bch.iter(|| GradientBoost::train(&ds, &gb_cfg))
    });

    let results = crit.results().to_vec();
    let ns = |name: &str| {
        results
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.median_ns)
            .unwrap_or(f64::NAN)
    };

    let simd_available = backends.len() > 1;
    let mut best_kernel_speedup = 0.0f64;
    let mut kernel_speedups = String::new();
    for (i, k) in kernel_names.iter().enumerate() {
        let scalar = ns(&format!("kernels/{k}/scalar_8192w"));
        let simd = ns(&format!("kernels/{k}/{}_8192w", best.name()));
        let speedup = scalar / simd;
        best_kernel_speedup = best_kernel_speedup.max(speedup);
        println!(
            "{k:<14} scalar {scalar:>10.1} ns | {} {simd:>10.1} ns | {speedup:.2}x",
            best.name()
        );
        kernel_speedups.push_str(&format!(
            "    {{\"kernel\": \"{k}\", \"scalar_ns\": {scalar:.1}, \"best_ns\": {simd:.1}, \"best_backend\": \"{}\", \"speedup\": {speedup:.2}}}{}\n",
            best.name(),
            if i + 1 == kernel_names.len() { "" } else { "," }
        ));
    }
    let espresso_speedup =
        ns("kernels/espresso/rows_1000x32") / ns("kernels/espresso/columns_1000x32");
    let bdd_speedup = ns("kernels/bdd_from_dataset/rows_1000x32")
        / ns("kernels/bdd_from_dataset/columns_1000x32");
    println!("espresso columnar speedup (rows/columns): {espresso_speedup:.2}x");
    println!("bdd from_dataset columnar speedup (rows/columns): {bdd_speedup:.2}x");

    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"median_ns\": {:.1}, \"min_ns\": {:.1}, \"max_ns\": {:.1}}}{}\n",
            r.name,
            r.median_ns,
            r.min_ns,
            r.max_ns,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n  \"kernel_speedups\": [\n");
    json.push_str(&kernel_speedups);
    json.push_str(&format!(
        "  ],\n  \"host\": {{\"arch\": \"{}\", \"backends\": [{}], \"active\": \"{}\", \"simd_available\": {simd_available}}},\n",
        std::env::consts::ARCH,
        backends
            .iter()
            .map(|x| format!("\"{}\"", x.name()))
            .collect::<Vec<_>>()
            .join(", "),
        kernels::active_backend().name()
    ));
    if !simd_available {
        json.push_str(
            "  \"note\": \"host lacks SIMD backends; kernel rows record scalar-vs-scalar parity\",\n",
        );
    }
    json.push_str(&format!(
        "  \"best_kernel_speedup\": {best_kernel_speedup:.2},\n  \"espresso_columnar_speedup\": {espresso_speedup:.2},\n  \"bdd_columnar_speedup\": {bdd_speedup:.2},\n  \"examples\": {EXAMPLES},\n  \"inputs\": {INPUTS}\n}}\n"
    ));
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    std::fs::write(out, json).expect("write BENCH_kernels.json");
    println!("wrote {out}");
}
