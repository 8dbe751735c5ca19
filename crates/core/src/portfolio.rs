//! Portfolio selection, and the one ordered fan-out the portfolios run on.
//!
//! The paper's headline observation: "there is no approach which is
//! consistently better across all the considered benchmarks. Thus, applying
//! several approaches and deciding which one to use ... seems to be the best
//! strategy." Every team with a top score ran a portfolio and selected by
//! validation accuracy under the node limit; [`select_best`] is that
//! selector.
//!
//! [`fan_out`] runs independent tasks on the `rayon` pool and hands
//! their results back in task order. Teams 1, 3, 4 and 8 build their
//! candidates through it, [`crate::compile::CompileBatch::compile_all`]
//! compiles through it, and the contest harness runs its teams and
//! benchmarks through it.

use lsml_pla::Dataset;

use crate::problem::LearnedCircuit;

/// One deferred task of a [`fan_out`]: a boxed closure, so heterogeneous
/// producers (matcher, ESPRESSO, forests, ...) can share one fan-out.
/// Returning `None` means the task produced nothing (for example, no
/// standard function matched).
pub type Task<'a, T> = Box<dyn FnOnce() -> Option<T> + Send + 'a>;

/// One deferred *raw* candidate construction for the batched compile path:
/// the builder returns an uncompiled graph plus its method label, and the
/// caller feeds the results into a [`crate::compile::CompileBatch`] so every
/// candidate lands in one shared strashed graph before optimization.
pub type RawCandidateTask<'a> = Task<'a, (lsml_aig::Aig, String)>;

/// Runs `tasks` on the `rayon` pool and returns their results in task
/// order with the `None`s dropped, so every downstream tie-break is the one
/// a serial loop over the same tasks would make.
///
/// The list is halved recursively over `rayon::join`, so a fan-out nested
/// inside another (a team's candidates inside the harness's per-benchmark
/// fan-out) reuses the same fixed worker set instead of oversubscribing,
/// and with `LSML_NUM_THREADS=1` the tasks run inline in task order. Every
/// task runs even when one panics; the payload of the first panicking task
/// in task order then reaches the caller.
pub fn fan_out<'a, T: Send>(tasks: Vec<Task<'a, T>>) -> Vec<T> {
    let mut slots: Vec<Option<Task<'a, T>>> = tasks.into_iter().map(Some).collect();
    let mut out: Vec<Option<T>> = std::iter::repeat_with(|| None).take(slots.len()).collect();
    run_halves(&mut slots, &mut out);
    out.into_iter().flatten().collect()
}

fn run_halves<'a, T: Send>(tasks: &mut [Option<Task<'a, T>>], out: &mut [Option<T>]) {
    match tasks.len() {
        0 => {}
        1 => out[0] = (tasks[0].take().expect("task present"))(),
        n => {
            let mid = n / 2;
            let (t_lo, t_hi) = tasks.split_at_mut(mid);
            let (o_lo, o_hi) = out.split_at_mut(mid);
            rayon::join(|| run_halves(t_lo, o_lo), || run_halves(t_hi, o_hi));
        }
    }
}

/// Picks the candidate with the best validation accuracy among those within
/// `node_limit`, breaking ties towards fewer gates, then towards the earlier
/// candidate. When *no* candidate fits, returns the constant circuit
/// matching the validation majority (the safe fallback every team kept in
/// its pocket).
pub fn select_best(
    mut candidates: Vec<LearnedCircuit>,
    valid: &Dataset,
    node_limit: usize,
) -> LearnedCircuit {
    let mut best: Option<(f64, usize, usize)> = None;
    for (i, c) in candidates.iter().enumerate() {
        if !c.fits(node_limit) {
            continue;
        }
        let (acc, size) = (c.accuracy(valid), c.and_gates());
        let better = match &best {
            None => true,
            Some((bacc, bsize, _)) => {
                acc > *bacc + 1e-12 || ((acc - *bacc).abs() <= 1e-12 && size < *bsize)
            }
        };
        if better {
            best = Some((acc, size, i));
        }
    }
    match best {
        Some((_, _, i)) => candidates.swap_remove(i),
        None => {
            let majority = valid.majority();
            LearnedCircuit::new(
                lsml_aig::Aig::constant(valid.num_inputs(), majority),
                "constant-fallback",
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsml_aig::Aig;
    use lsml_pla::Pattern;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn target() -> Dataset {
        let mut ds = Dataset::new(2);
        for m in 0..4u64 {
            ds.push(Pattern::from_index(m, 2), m == 3);
        }
        ds
    }

    fn and_circuit() -> LearnedCircuit {
        let mut aig = Aig::new(2);
        let (a, b) = (aig.input(0), aig.input(1));
        let f = aig.and(a, b);
        aig.add_output(f);
        LearnedCircuit::new(aig, "and")
    }

    fn or_circuit() -> LearnedCircuit {
        let mut aig = Aig::new(2);
        let (a, b) = (aig.input(0), aig.input(1));
        let f = aig.or(a, b);
        aig.add_output(f);
        LearnedCircuit::new(aig, "or")
    }

    #[test]
    fn picks_highest_validation_accuracy() {
        let best = select_best(vec![or_circuit(), and_circuit()], &target(), 5000);
        assert_eq!(best.method, "and");
    }

    #[test]
    fn respects_node_limit() {
        // The perfect circuit is over budget; the weaker one fits.
        let best = select_best(vec![and_circuit(), or_circuit()], &target(), 0);
        assert_eq!(best.method, "constant-fallback");
        let best = select_best(vec![and_circuit()], &target(), 1);
        assert_eq!(best.method, "and");
    }

    #[test]
    fn ties_break_to_smaller() {
        // Two circuits with equal accuracy: constant-false (0 gates) and a
        // false-ish bigger one.
        let mut big = Aig::new(2);
        let (a, b) = (big.input(0), big.input(1));
        let x = big.and(a, b);
        let y = big.and(x, !a); // constant false the long way
        big.add_output(y);
        let c_small = LearnedCircuit::new(Aig::constant(2, false), "small");
        let c_big = LearnedCircuit::new(big, "big");
        let best = select_best(vec![c_big, c_small], &target(), 5000);
        assert_eq!(best.method, "small");
    }

    /// A task whose cost is skewed towards both ends of the list, so the
    /// halves other threads take are uneven; `None` for every fifth index.
    fn skewed_task(i: usize, ran: &AtomicUsize) -> Option<u64> {
        ran.fetch_add(1, Ordering::Relaxed);
        let cost = if (96..4000).contains(&i) { 10 } else { 20_000 };
        let v = (0..cost).fold(i as u64, |acc, x: u64| acc.wrapping_add(x * x));
        (!i.is_multiple_of(5)).then_some(v)
    }

    #[test]
    fn fan_out_keeps_task_order_and_drops_nones() {
        let ran = AtomicUsize::new(0);
        let tasks: Vec<Task<'_, (usize, u64)>> = (0..4096)
            .map(|i| -> Task<'_, (usize, u64)> {
                let ran = &ran;
                Box::new(move || skewed_task(i, ran).map(|v| (i, v)))
            })
            .collect();
        let got = fan_out(tasks);
        assert_eq!(ran.load(Ordering::Relaxed), 4096, "every task runs once");
        let unused = AtomicUsize::new(0);
        let want: Vec<(usize, u64)> = (0..4096)
            .filter_map(|i| skewed_task(i, &unused).map(|v| (i, v)))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn fan_out_of_no_tasks_is_empty() {
        assert!(fan_out::<u8>(Vec::new()).is_empty());
    }

    #[test]
    fn fan_out_nests_inside_its_own_tasks() {
        let tasks: Vec<Task<'_, u64>> = (0..64u64)
            .map(|i| -> Task<'_, u64> {
                Box::new(move || {
                    let inner: Vec<Task<'_, u64>> = vec![
                        Box::new(move || Some((0..=i).sum::<u64>())),
                        Box::new(move || Some((0..=i).map(|x| x * 2).sum::<u64>())),
                    ];
                    Some(fan_out(inner).iter().sum())
                })
            })
            .collect();
        let sums = fan_out(tasks);
        assert_eq!(sums.len(), 64);
        for (i, &s) in sums.iter().enumerate() {
            let tri = (i as u64) * (i as u64 + 1) / 2;
            assert_eq!(s, 3 * tri);
        }
    }

    #[test]
    fn fan_out_hands_the_first_panic_to_the_caller() {
        let ran = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Task<'_, usize>> = (0..16)
                .map(|i| -> Task<'_, usize> {
                    let ran = &ran;
                    Box::new(move || {
                        ran.fetch_add(1, Ordering::SeqCst);
                        if i == 5 || i == 11 {
                            panic!("task {i} failed");
                        }
                        Some(i)
                    })
                })
                .collect();
            fan_out(tasks)
        }))
        .expect_err("the task panic must reach the caller");
        assert_eq!(ran.load(Ordering::SeqCst), 16, "every task still runs");
        let text = caught
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| caught.downcast_ref::<&str>().map(|s| s.to_string()));
        assert_eq!(text.as_deref(), Some("task 5 failed"));
    }

    #[test]
    fn empty_candidates_fall_back_to_majority() {
        let best = select_best(vec![], &target(), 5000);
        assert_eq!(best.method, "constant-fallback");
        // Majority of AND truth table is false.
        assert_eq!(best.aig.eval(&[true, true]), vec![false]);
    }
}
