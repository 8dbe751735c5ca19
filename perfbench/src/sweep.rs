//! `sweep`: `lsml_suite::run` jobs with the default `SuiteConfig` (5
//! families × 20 units, 256 samples, a 300-node exact budget), one seed
//! each. Each job checkpoints at the default cadence into a file of its own
//! in the run's fresh directory, so no job resumes another's work. A pass
//! runs every job seed once from cleared caches.

use std::path::{Path, PathBuf};
use std::time::Instant;

use lsml_aig::opt::fixpoint_cache_clear;
use lsml_core::compile::compile_cache_clear;
use lsml_suite::{RunOutcome, SuiteConfig, SuiteStats};

use crate::inputs::splitmix;
use crate::trace::Tracer;
use crate::{Tally, Workload};

/// Jobs per pass.
const JOBS: usize = 8;

pub struct Sweep {
    seeds: Vec<u64>,
    dir: PathBuf,
    jobs_run: u64,
    /// Each job's first stats, to hold later passes to.
    first: Vec<Option<SuiteStats>>,
    /// Unit classes over the phase: ok (exact or approximated), over
    /// budget, failed, timed out, skipped.
    classes: [u64; 5],
}

impl Sweep {
    /// Derives the job seeds and runs one untimed warm-up job on a seed
    /// outside them.
    pub fn setup(seed: u64, dir: &Path) -> Sweep {
        let mut state = seed;
        let seeds: Vec<u64> = (0..JOBS).map(|_| splitmix(&mut state)).collect();
        let warm_up = SuiteConfig {
            seed: splitmix(&mut state),
            checkpoint_path: Some(dir.join("warm-up.ckpt")),
            ..SuiteConfig::default()
        };
        lsml_suite::run(&warm_up).expect("warm-up sweep job");
        compile_cache_clear();
        fixpoint_cache_clear();
        Sweep {
            seeds,
            dir: dir.to_path_buf(),
            jobs_run: 0,
            first: vec![None; JOBS],
            classes: [0; 5],
        }
    }
}

impl Workload for Sweep {
    fn pass(&mut self, tr: &mut Tracer, tally: &mut Tally) {
        compile_cache_clear();
        fixpoint_cache_clear();
        for (j, &seed) in self.seeds.iter().enumerate() {
            let cfg = SuiteConfig {
                seed,
                checkpoint_path: Some(self.dir.join(format!("job-{}.ckpt", self.jobs_run))),
                ..SuiteConfig::default()
            };
            self.jobs_run += 1;
            let expected = cfg.families.len() as u64 * cfg.units_per_family;
            let span = tr.open("suite.job", j as u64);
            let start = Instant::now();
            let outcome = lsml_suite::run(&cfg);
            tally.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
            tr.close(span);
            tally.attempted += expected;
            let stats = match outcome {
                Ok(RunOutcome::Completed(stats)) => stats,
                other => {
                    tally.failed += expected;
                    tally
                        .errors
                        .push(format!("job {j} (seed {seed}): {other:?}"));
                    continue;
                }
            };
            let (mut acc_sum, mut acc_n, mut size_sum, mut size_n) = (0.0, 0, 0, 0);
            for f in stats.families.values() {
                acc_sum += f.acc_sum;
                acc_n += f.acc_n;
                size_sum += f.size_sum;
                size_n += f.size_n;
                let classes = [
                    f.ok + f.approximated,
                    f.over_budget,
                    f.failed,
                    f.timed_out,
                    f.skipped,
                ];
                for (total, n) in self.classes.iter_mut().zip(classes) {
                    *total += n;
                }
                tally.failed += f.failed + f.timed_out + f.skipped;
            }
            tally.circuits += stats.total_units();
            tally.accuracy_sum += acc_sum;
            tally.accuracy_n += acc_n;
            tally.gates_sum += size_sum as f64;
            tally.gates_n += size_n;
            if stats.total_units() != expected {
                tally.errors.push(format!(
                    "job {j} (seed {seed}): {} of {expected} units classified",
                    stats.total_units()
                ));
            }
            match &self.first[j] {
                None => self.first[j] = Some(stats),
                Some(first) if *first != stats => tally.errors.push(format!(
                    "job {j} (seed {seed}): stats differ from an earlier job with the same seed"
                )),
                Some(_) => {}
            }
        }
    }

    fn begin_phase(&mut self) {
        self.classes = [0; 5];
    }

    fn layer_counters(&self) -> Vec<(&'static str, f64)> {
        let names = [
            "suite.units_ok",
            "suite.units_over_budget",
            "suite.units_failed",
            "suite.units_timed_out",
            "suite.units_skipped",
        ];
        names
            .into_iter()
            .zip(self.classes.map(|n| n as f64))
            .collect()
    }
}
