//! Steady end-to-end and per-layer benchmark of the contest pipeline and
//! the services around it.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <contest|compile|serve|sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Four workloads drive the crates' `pub` APIs from one process:
//!
//! * `contest` — the ten team learners on ten drawn benchmarks, each unit
//!   `Learner::learn` then `eval::evaluate`;
//! * `compile` — cold `LearnedCircuit::compile` calls on a corpus of raw
//!   learner circuits, some large enough to need the approx fallback;
//! * `serve` — sessions against an in-process `lsml-serve` daemon;
//! * `sweep` — `lsml_suite::run` jobs.
//!
//! Run-to-run noise is kept down by three rules: every timed item is one
//! circuit (a unit, a compile call, a session or a sweep job), the harness
//! issues one item at a time (the pool still serves each item's inner
//! parallelism), and a run is a whole number of passes over a fixed item
//! list, at least two and at least [`MIN_ITEMS`] items. `setup_s` is the
//! median of several setups, each in a fresh process.
//!
//! The last line of standard output is one JSON object: with `--trace 0`
//! the end-to-end metrics, with `--trace 1` the per-layer metrics of a
//! traced phase that follows an untraced one, plus the tracing overhead
//! (traced minus untraced) of every end-to-end metric. The traced run also
//! writes its spans and layer table to `.perfbench-out/`.

mod compile;
mod contest;
mod inputs;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use lsml_aig::npn::NpnLibrary;
use lsml_aig::opt::fixpoint_cache_stats;
use lsml_core::compile::{compile_cache_detail, CompileCacheDetail};
use lsml_pla::kernels::Backend;

use crate::trace::Tracer;

/// End-to-end metrics, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("circuits_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("test_accuracy", "fraction"),
    ("and_gates", "count"),
];

/// Per-layer metrics, as `BENCHMARK.json` lists them. A `_ms` metric is the
/// mean self time of the span named by the rest of it; the others are
/// counters over the traced timed phase. A layer a workload does not reach
/// reads 0.
const PER_LAYER: [(&str, &str); 51] = [
    ("benchgen.sample_ms", "ms"),
    ("teams.team1.learn_ms", "ms"),
    ("teams.team2.learn_ms", "ms"),
    ("teams.team3.learn_ms", "ms"),
    ("teams.team4.learn_ms", "ms"),
    ("teams.team5.learn_ms", "ms"),
    ("teams.team6.learn_ms", "ms"),
    ("teams.team7.learn_ms", "ms"),
    ("teams.team8.learn_ms", "ms"),
    ("teams.team9.learn_ms", "ms"),
    ("teams.team10.learn_ms", "ms"),
    ("eval.evaluate_ms", "ms"),
    ("compile.cache_hits", "count"),
    ("compile.cache_misses", "count"),
    ("compile.cache_evictions", "count"),
    ("compile.cache_bytes", "bytes"),
    ("compile.hit_ratio", "fraction"),
    ("aig.extract_cone_ms", "ms"),
    ("aig.fingerprint_ms", "ms"),
    ("opt.balance_ms", "ms"),
    ("opt.rewrite_ms", "ms"),
    ("opt.rewrite_z_ms", "ms"),
    ("opt.sweep_ms", "ms"),
    ("opt.cleanup_ms", "ms"),
    ("opt.ands_in", "count"),
    ("opt.ands_out", "count"),
    ("opt.fixpoint_entries", "count"),
    ("approx.reduce_ms", "ms"),
    ("approx.circuits", "count"),
    ("npn.library_entries", "count"),
    ("serve.load_dataset_ms", "ms"),
    ("serve.learn_ms", "ms"),
    ("serve.select_best_ms", "ms"),
    ("serve.accepted", "count"),
    ("serve.completed", "count"),
    ("serve.shed", "count"),
    ("serve.deadline_exceeded", "count"),
    ("serve.panics_caught", "count"),
    ("serve.malformed", "count"),
    ("suite.job_ms", "ms"),
    ("suite.units_ok", "count"),
    ("suite.units_over_budget", "count"),
    ("suite.units_failed", "count"),
    ("suite.units_timed_out", "count"),
    ("suite.units_skipped", "count"),
    ("overhead.setup_s", "s"),
    ("overhead.circuits_per_s", "1/s"),
    ("overhead.latency_p50_ms", "ms"),
    ("overhead.latency_tail_ms", "ms"),
    ("overhead.test_accuracy", "fraction"),
    ("overhead.and_gates", "count"),
];

/// Fewest latency samples a run takes: enough for a p90 with ten samples
/// beyond it.
const MIN_ITEMS: usize = 100;

/// Setups per run, each in a fresh process so that each pays the
/// process-wide lazy initialization; `setup_s` is their median.
const SETUP_RUNS: usize = 3;

/// Fresh processes an untraced run spreads its timed phase over, each with
/// its own setup. `sweep`'s speed depends on the address-space layout a
/// process draws: on a 2-vCPU KVM guest one seed read 1210 to 2156
/// circuits/s from process to process, and 1855 to 2017 with layout
/// randomization off. Pooling four layouts per run averages that out. The
/// other workloads showed no such dependence and run in one process.
fn processes(workload: &str) -> usize {
    if workload == "sweep" {
        4
    } else {
        1
    }
}

/// Pool width the benchmark pins unless `LSML_NUM_THREADS` is already set.
const POOL_THREADS: &str = "2";

/// The host the bounds in `BENCHMARK.json` were measured on: a 2-vCPU KVM
/// guest. A run on a host that differs is flagged in its output.
const REFERENCE_HOST: Host = Host {
    nproc: 2,
    pool_threads: 2,
    kernel_backend: Backend::Avx512,
};

/// What a timed phase delivered. Each workload's pass appends to it.
#[derive(Default)]
pub struct Tally {
    /// One latency per timed item, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Circuits delivered.
    pub circuits: u64,
    pub accuracy_sum: f64,
    pub accuracy_n: u64,
    pub gates_sum: f64,
    pub gates_n: u64,
    /// Operations attempted and failed, as `BENCHMARK.json` defines them.
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures.
    pub errors: Vec<String>,
    /// Time spent on traced-only layer probes, excluded from the phase.
    pub paused: Duration,
}

impl Tally {
    pub fn score(&mut self, test_accuracy: f64, and_gates: usize) {
        self.accuracy_sum += test_accuracy;
        self.accuracy_n += 1;
        self.gates_sum += and_gates as f64;
        self.gates_n += 1;
    }

    /// Adds another thread's tally of the same pass.
    pub fn absorb(&mut self, mut other: Tally) {
        self.latencies_ms.append(&mut other.latencies_ms);
        self.circuits += other.circuits;
        self.accuracy_sum += other.accuracy_sum;
        self.accuracy_n += other.accuracy_n;
        self.gates_sum += other.gates_sum;
        self.gates_n += other.gates_n;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.append(&mut other.errors);
        self.paused += other.paused;
    }
}

/// One workload after its setup.
pub trait Workload {
    /// Times one pass over the fixed item list, one item at a time.
    fn pass(&mut self, tr: &mut Tracer, tally: &mut Tally);

    /// Output checks that compare items across passes, after a phase.
    fn check(&mut self, _tally: &mut Tally) {}

    /// Resets the layer counters at the start of a phase.
    fn begin_phase(&mut self) {}

    /// Layer counters accumulated since [`Workload::begin_phase`].
    fn layer_counters(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Run as a child: set up, run an untraced timed phase of `seconds`
    /// (none when 0) and report both on one line.
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut child) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--child" {
            child = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => match value.as_str() {
                "0" | "1" => trace = Some(value == "1"),
                _ => return Err(format!("--trace {value}: expected 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !["contest", "compile", "serve", "sweep"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: if child { seconds } else { seconds.max(1) },
        trace: trace.ok_or("missing --trace")?,
        child,
    })
}

fn setup(name: &str, seed: u64, dir: &Path, tr: &mut Tracer) -> Box<dyn Workload> {
    inputs::warm_up();
    match name {
        "contest" => Box::new(contest::Contest::setup(seed, tr)),
        "compile" => Box::new(compile::Compile::setup(seed, tr)),
        "serve" => Box::new(serve::Serve::setup(seed, tr)),
        "sweep" => Box::new(sweep::Sweep::setup(seed, dir)),
        _ => unreachable!("workload names are checked by parse_args"),
    }
}

/// The end-to-end numbers of one timed phase.
struct Phase {
    passes: usize,
    timed_s: f64,
    tally: Tally,
    tail: stats::Tail,
    p50: f64,
}

impl Phase {
    fn metric(&self, name: &str, setup_s: f64) -> f64 {
        let t = &self.tally;
        match name {
            "setup_s" => setup_s,
            "circuits_per_s" => t.circuits as f64 / self.timed_s,
            "latency_p50_ms" => self.p50,
            "latency_tail_ms" => self.tail.value,
            "test_accuracy" => t.accuracy_sum / t.accuracy_n.max(1) as f64,
            "and_gates" => t.gates_sum / t.gates_n.max(1) as f64,
            _ => unreachable!("not an end-to-end metric: {name}"),
        }
    }

    /// Every end-to-end metric, as the result object reports it.
    fn end_to_end(&self, setup_s: f64) -> Vec<(String, f64, &'static str)> {
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name.to_string(), self.metric(name, setup_s), unit))
            .collect()
    }

    fn new(passes: usize, timed_s: f64, tally: Tally) -> Result<Phase, String> {
        let mut sorted = tally.latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let tail = stats::tail(&sorted).ok_or("too few latency samples for a tail")?;
        Ok(Phase {
            passes,
            timed_s,
            p50: stats::percentile(&sorted, 50.0),
            tail,
            tally,
        })
    }
}

/// Whole passes until `seconds` of timed work, two passes and `min_items`
/// items have gone by; then the cross-pass output checks.
fn timed_phase(
    w: &mut dyn Workload,
    seconds: f64,
    min_items: usize,
    tr: &mut Tracer,
) -> (usize, f64, Tally) {
    let mut tally = Tally::default();
    let start = Instant::now();
    let mut passes = 0;
    loop {
        w.pass(tr, &mut tally);
        passes += 1;
        let timed = start.elapsed().saturating_sub(tally.paused).as_secs_f64();
        if passes >= 2 && tally.latencies_ms.len() >= min_items && timed >= seconds {
            break;
        }
    }
    let timed_s = start.elapsed().saturating_sub(tally.paused).as_secs_f64();
    w.check(&mut tally);
    (passes, timed_s, tally)
}

/// What a child process reported: its setup time and, unless it only set
/// up, its timed phase.
struct ChildReport {
    setup_s: f64,
    passes: usize,
    timed_s: f64,
    tally: Tally,
}

/// The child's side: one line of whitespace-separated numbers, latencies
/// last. Check failures go to standard error, which the parent forwards.
fn child_line(setup_s: f64, passes: usize, timed_s: f64, t: &Tally) -> String {
    let mut line = format!(
        "child {setup_s:?} {passes} {timed_s:?} {} {:?} {} {:?} {} {} {} {}",
        t.circuits,
        t.accuracy_sum,
        t.accuracy_n,
        t.gates_sum,
        t.gates_n,
        t.attempted,
        t.failed,
        t.errors.len()
    );
    for l in &t.latencies_ms {
        line += &format!(" {l:?}");
    }
    line
}

fn parse_child_line(line: &str) -> Option<ChildReport> {
    let mut f = line.strip_prefix("child ")?.split_whitespace();
    let mut num = || f.next()?.parse::<f64>().ok();
    let (setup_s, passes, timed_s) = (num()?, num()? as usize, num()?);
    let mut tally = Tally {
        circuits: num()? as u64,
        accuracy_sum: num()?,
        accuracy_n: num()? as u64,
        gates_sum: num()?,
        gates_n: num()? as u64,
        attempted: num()? as u64,
        failed: num()? as u64,
        ..Tally::default()
    };
    let errors = num()? as usize;
    tally.errors = (0..errors)
        .map(|i| format!("child check failure {}", i + 1))
        .collect();
    tally.latencies_ms = std::iter::from_fn(num).collect();
    Some(ChildReport {
        setup_s,
        passes,
        timed_s,
        tally,
    })
}

/// Runs setup and, for `seconds` > 0, an untraced timed phase in a fresh
/// copy of this program.
fn run_child(args: &Args, seconds: u64) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .args(["--seconds", &seconds.to_string(), "--trace", "0", "--child"])
        .output()
        .map_err(|e| format!("child: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.lines().last().and_then(parse_child_line) {
        Some(report) if out.status.success() => Ok(report),
        _ => Err(format!("child failed ({})", out.status)),
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    stats::percentile(&xs, 50.0)
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct Host {
    nproc: usize,
    pool_threads: usize,
    kernel_backend: Backend,
}

impl Host {
    fn current() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            pool_threads: rayon::current_num_threads(),
            kernel_backend: lsml_pla::kernels::active_backend(),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"pool_threads\": {}, \"kernel_backend\": \"{:?}\"}}",
            self.nproc, self.pool_threads, self.kernel_backend
        )
    }
}

/// The commit being measured, read from `.git` when the checkout has one.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let head = read("HEAD").unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        Some(r) => read(r).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .map(|l| l[..l.find(' ').unwrap_or(0)].to_string())
        }),
        None => Some(head),
    };
    match rev.map(|r| r.trim().to_string()) {
        Some(r) if !r.is_empty() => r,
        _ => "unknown (not a git checkout)".to_string(),
    }
}

/// A fresh per-run directory inside the working directory.
fn fresh_dir() -> Result<PathBuf, String> {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let dir = PathBuf::from(".perfbench-tmp").join(format!("run-{}-{nanos}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn json_metrics(metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run(args: &Args) -> Result<(), String> {
    let dir = fresh_dir()?;
    let result = run_in(args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".perfbench-tmp");
    result
}

fn run_in(args: &Args, dir: &Path) -> Result<(), String> {
    let seconds = args.seconds as f64;
    let mut tr = Tracer::new(args.trace);
    if args.child {
        let t = Instant::now();
        let mut w = setup(&args.workload, args.seed, dir, &mut tr);
        let setup_s = t.elapsed().as_secs_f64();
        let (passes, timed_s, tally) = if args.seconds == 0 {
            (0, 0.0, Tally::default())
        } else {
            let min_items = MIN_ITEMS.div_ceil(processes(&args.workload));
            timed_phase(w.as_mut(), seconds, min_items, &mut tr)
        };
        for e in &tally.errors {
            eprintln!("check failed: {e}");
        }
        println!("{}", child_line(setup_s, passes, timed_s, &tally));
        return Ok(());
    }

    let k = processes(&args.workload);
    if !args.trace && k > 1 {
        // Each child sets up and times a share of the run.
        let share = args.seconds.div_ceil(k as u64);
        let mut setups = Vec::new();
        let (mut passes, mut timed_s, mut tally) = (0, 0.0, Tally::default());
        for _ in 0..k {
            let r = run_child(args, share)?;
            setups.push(r.setup_s);
            passes += r.passes;
            timed_s += r.timed_s;
            tally.absorb(r.tally);
        }
        print_host();
        let phase = Phase::new(passes, timed_s, tally)?;
        report_phase(&args.workload, "untraced", &phase, &setups);
        return print_result(&phase.tally, &phase.end_to_end(median(setups)));
    }

    let t = Instant::now();
    let mut w = setup(&args.workload, args.seed, dir, &mut tr);
    let own_setup_s = t.elapsed().as_secs_f64();
    let mut setups = vec![own_setup_s];
    for _ in 1..SETUP_RUNS {
        setups.push(run_child(args, 0)?.setup_s);
    }
    let child_median = median(setups[1..].to_vec());
    print_host();

    let (passes, timed_s, tally) =
        timed_phase(w.as_mut(), seconds, MIN_ITEMS, &mut Tracer::new(false));
    let untraced = Phase::new(passes, timed_s, tally)?;
    report_phase(&args.workload, "untraced", &untraced, &setups);
    if !args.trace {
        return print_result(&untraced.tally, &untraced.end_to_end(median(setups)));
    }
    let cache_before = compile_cache_detail();
    w.begin_phase();
    let (passes, timed_s, tally) = timed_phase(w.as_mut(), seconds, MIN_ITEMS, &mut tr);
    let traced = Phase::new(passes, timed_s, tally)?;
    report_phase(&args.workload, "traced", &traced, &setups);
    let mut values = layer_values(w.as_ref(), &tr, cache_before);
    // This process set up traced; its fresh children set up untraced.
    for &(name, _) in &END_TO_END {
        values.insert(
            format!("overhead.{name}"),
            traced.metric(name, own_setup_s) - untraced.metric(name, child_median),
        );
    }
    write_trace(args, &tr, &values)?;
    let metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            (
                name.to_string(),
                values.get(name).copied().unwrap_or(0.0),
                unit,
            )
        })
        .collect();
    let mut both = untraced.tally;
    both.absorb(traced.tally);
    print_result(&both, &metrics)
}

/// Records the host and the commit with the result, and flags a host that
/// differs from the reference.
fn print_host() {
    let host = Host::current();
    println!(
        "host {{\"current\": {}, \"reference\": {}, \"matches_reference\": {}, \"git_rev\": \"{}\"}}",
        host.json(),
        REFERENCE_HOST.json(),
        host == REFERENCE_HOST,
        git_rev()
    );
    if host != REFERENCE_HOST {
        eprintln!(
            "warning: host {} differs from the reference host {}; bounds do not apply",
            host.json(),
            REFERENCE_HOST.json()
        );
    }
}

/// The last line of standard output: the contract's result object.
fn print_result(tally: &Tally, metrics: &[(String, f64, &str)]) -> Result<(), String> {
    for e in &tally.errors {
        eprintln!("check failed: {e}");
    }
    if metrics.iter().any(|(_, v, _)| !v.is_finite()) {
        return Err("a metric is not finite".into());
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.errors.is_empty(),
        tally.attempted,
        tally.failed,
        json_metrics(metrics)
    );
    Ok(())
}

/// Per-layer values of the traced phase: each span's mean self time, the
/// deltas of the stats functions since `cache_before`, and the workload's
/// own counters.
fn layer_values(
    w: &dyn Workload,
    tr: &Tracer,
    cache_before: CompileCacheDetail,
) -> BTreeMap<String, f64> {
    let mut values: BTreeMap<String, f64> = trace::layers(tr.spans())
        .into_iter()
        .map(|(name, layer)| (format!("{name}_ms"), layer.mean_self_ms()))
        .collect();
    let cache = compile_cache_detail();
    let hits = (cache.hits - cache_before.hits) as f64;
    let misses = (cache.misses - cache_before.misses) as f64;
    let counters = [
        ("compile.cache_hits", hits),
        ("compile.cache_misses", misses),
        (
            "compile.cache_evictions",
            (cache.evictions - cache_before.evictions) as f64,
        ),
        ("compile.cache_bytes", cache.bytes as f64),
        ("compile.hit_ratio", hits / (hits + misses).max(1.0)),
        ("opt.fixpoint_entries", fixpoint_cache_stats().0 as f64),
        (
            "npn.library_entries",
            NpnLibrary::global().num_semi_entries() as f64,
        ),
    ];
    for (name, v) in counters.into_iter().chain(w.layer_counters()) {
        values.insert(name.to_string(), v);
    }
    values
}

fn report_phase(workload: &str, label: &str, p: &Phase, setups: &[f64]) {
    println!(
        "{workload} {label}: {} passes, {} circuits in {:.3} s timed; latency_tail_ms is \
         p{} of {} samples ({} beyond it); setups {:?} s",
        p.passes,
        p.tally.circuits,
        p.timed_s,
        p.tail.percentile,
        p.tally.latencies_ms.len(),
        p.tail.beyond,
        setups
    );
}

/// Writes the traced run's spans and layer table to `.perfbench-out/`.
fn write_trace(args: &Args, tr: &Tracer, values: &BTreeMap<String, f64>) -> Result<(), String> {
    let dir = Path::new(".perfbench-out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut out = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"host\": {}, \"git_rev\": \"{}\",\n\"layers\": [\n",
        args.workload,
        args.seed,
        Host::current().json(),
        git_rev()
    );
    let rows: Vec<String> = trace::layers(tr.spans())
        .iter()
        .map(|(name, l)| {
            format!(
                "  {{\"span\": \"{name}\", \"count\": {}, \"self_ms\": {:?}, \"total_ms\": {:?}}}",
                l.count,
                l.self_ns as f64 / 1e6,
                l.total_ns as f64 / 1e6
            )
        })
        .collect();
    out += &rows.join(",\n");
    out += "\n],\n\"metrics\": {";
    let metrics: Vec<String> = values
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v:?}"))
        .collect();
    out += &metrics.join(", ");
    out += "},\n\"spans\": [\n";
    let spans: Vec<String> = tr
        .spans()
        .iter()
        .map(|s| {
            format!(
                "  [\"{}\", {}, {}, {}, {}]",
                s.name,
                s.item,
                s.start_ns,
                s.end_ns,
                s.parent.map_or(-1, |p| p as i64)
            )
        })
        .collect();
    out += &spans.join(",\n");
    out += "\n]}\n";
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("trace written to {}", path.display());
    Ok(())
}

fn main() {
    if std::env::var_os("LSML_NUM_THREADS").is_none() {
        // Single-threaded here: nothing has started the pool or any thread.
        std::env::set_var("LSML_NUM_THREADS", POOL_THREADS);
    }
    let code = match parse_args().and_then(|args| run(&args)) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_report_round_trips() {
        let tally = Tally {
            latencies_ms: vec![1.5, 0.1 + 0.2, 1e-9],
            circuits: 3,
            accuracy_sum: 2.0 / 3.0,
            accuracy_n: 3,
            gates_sum: 42.0,
            gates_n: 3,
            attempted: 300,
            failed: 1,
            errors: vec!["unit 7 differs".into()],
            paused: Duration::ZERO,
        };
        let r = parse_child_line(&child_line(0.25, 2, 9.75, &tally)).expect("parses");
        assert_eq!((r.setup_s, r.passes, r.timed_s), (0.25, 2, 9.75));
        assert_eq!(r.tally.latencies_ms, tally.latencies_ms);
        assert_eq!(r.tally.accuracy_sum, tally.accuracy_sum);
        assert_eq!(
            (r.tally.circuits, r.tally.attempted, r.tally.failed),
            (3, 300, 1)
        );
        assert_eq!(r.tally.errors.len(), 1);
        assert!(parse_child_line("setup_s 0.1").is_none());
    }
}
