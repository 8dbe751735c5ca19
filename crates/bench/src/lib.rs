//! Shared harness for the table/figure regeneration binaries.
//!
//! Every binary in `src/bin/` reruns a slice of the paper's evaluation.
//! Scale is controlled by environment variables so the same binaries serve
//! quick smoke runs and full paper-scale reproductions:
//!
//! * `LSML_SAMPLES` — examples per train/valid/test split (default 6400,
//!   the contest value);
//! * `LSML_BENCH_COUNT` — how many of the 100 benchmarks to run (default
//!   100);
//! * `LSML_SEED` — global seed (default 0).

use lsml_benchgen::{suite, BenchData, Benchmark, SampleConfig};
use lsml_core::portfolio::{fan_out, Task};
use lsml_core::report::TeamResults;
use lsml_core::{eval, Learner, Problem, Score};

/// Run-scale parameters read from the environment.
#[derive(Copy, Clone, Debug)]
pub struct RunScale {
    /// Examples per split.
    pub samples: usize,
    /// Number of benchmarks (prefix of the suite).
    pub count: usize,
    /// Global seed.
    pub seed: u64,
}

impl RunScale {
    /// Reads `LSML_SAMPLES`, `LSML_BENCH_COUNT` and `LSML_SEED`.
    pub fn from_env() -> Self {
        let get = |k: &str, d: usize| {
            std::env::var(k)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(d)
        };
        RunScale {
            samples: get("LSML_SAMPLES", 6400),
            count: get("LSML_BENCH_COUNT", 100).min(100),
            seed: get("LSML_SEED", 0) as u64,
        }
    }

    /// The benchmark prefix selected by this scale.
    pub fn benchmarks(&self) -> Vec<Benchmark> {
        suite().into_iter().take(self.count).collect()
    }

    /// Samples one benchmark at this scale.
    pub fn sample(&self, bench: &Benchmark) -> BenchData {
        bench.sample(&SampleConfig {
            samples_per_split: self.samples,
            seed: self.seed,
        })
    }
}

/// Runs one learner over the selected benchmarks (one pool task per
/// benchmark, scores in benchmark order), printing progress to stderr.
pub fn run_team(learner: &dyn Learner, scale: &RunScale) -> TeamResults {
    let tasks: Vec<Task<'_, Score>> = scale
        .benchmarks()
        .into_iter()
        .map(|bench| -> Task<'_, Score> {
            Box::new(move || {
                let data = scale.sample(&bench);
                let problem = Problem::new(data.train.clone(), data.valid.clone(), scale.seed);
                let circuit = learner.learn(&problem);
                let score = eval::evaluate(&circuit, &data);
                eprintln!(
                    "[{}] {}: acc {:.2}% gates {} ({})",
                    learner.name(),
                    bench.name,
                    100.0 * score.test_accuracy,
                    score.and_gates,
                    circuit.method
                );
                Some(score)
            })
        })
        .collect();
    TeamResults {
        team: learner.name().to_owned(),
        scores: fan_out(tasks),
    }
}

/// Runs several learners and collects their results in learner order. The
/// team fan-out nests inside each team's per-benchmark fan-out (and the
/// learners' candidate fan-outs below that); the `rayon` pool schedules
/// every level over one fixed worker set.
pub fn run_teams(learners: &[Box<dyn Learner>], scale: &RunScale) -> Vec<TeamResults> {
    let tasks: Vec<Task<'_, TeamResults>> = learners
        .iter()
        .map(|l| -> Task<'_, TeamResults> { Box::new(move || Some(run_team(l.as_ref(), scale))) })
        .collect();
    fan_out(tasks)
}

/// A crude ASCII scatter/series plot for figure binaries: one line per
/// point, plus a bar rendering for quick visual inspection.
pub fn ascii_series(title: &str, labels: &[String], values: &[f64], unit: &str) -> String {
    let max = values.iter().cloned().fold(f64::EPSILON, f64::max);
    let mut out = format!("# {title}\n");
    for (label, &v) in labels.iter().zip(values.iter()) {
        let bar = "#".repeat(((v / max) * 50.0).round() as usize);
        out.push_str(&format!("{label:<28} {v:>10.2} {unit} |{bar}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsml_core::teams::Team10;

    #[test]
    fn run_team_scores_every_benchmark() {
        let scale = RunScale {
            samples: 60,
            count: 3,
            seed: 1,
        };
        let results = run_team(&Team10::default(), &scale);
        assert_eq!(results.scores.len(), 3);
        assert!(results
            .scores
            .iter()
            .all(|s| s.and_gates <= 5000 && s.test_accuracy >= 0.0));
    }

    #[test]
    fn ascii_series_renders_bars() {
        let s = ascii_series("demo", &["a".to_owned(), "b".to_owned()], &[1.0, 2.0], "u");
        assert!(s.contains("demo"));
        assert!(s.matches('|').count() == 2);
    }
}
