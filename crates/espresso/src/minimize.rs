//! The EXPAND / IRREDUNDANT / REDUCE loop.
//!
//! # Columnar scans
//!
//! The minimizer's inner loops — "which positives does this cube cover",
//! "does this enlarged cube swallow a negative", "how many offset minterms
//! block this literal" — are all containment scans of one cube against a
//! fixed pattern set. They run *columnar*: the on-set and off-set are
//! transposed once into [`BitColumns`] (64 patterns per word), a cube's
//! containment mask is the `AND` of its literals' columns, and every count
//! is a popcount through `lsml_pla::kernels`. EXPAND tracks per-negative
//! mismatch multiplicity with two bit planes (`ones` = ≥1 mismatch, `twos`
//! = ≥2), so "can literal `v` go" is one fused popcount over
//! `mismatchᵥ ∧ ones ∧ ¬twos` instead of a cube-by-cube offset walk.
//!
//! The pre-columnar row-major implementation is retained, bit-identical,
//! as [`minimize_dataset_row_major`] — the differential-test oracle and
//! the benchmark baseline.

use lsml_pla::kernels::for_each_set_bit;
use lsml_pla::{BitColumns, Cover, Cube, Dataset, Pattern, Trit};

/// Maximum number of EXPAND→IRREDUNDANT→REDUCE iterations.
const MAX_LOOPS: usize = 4;
/// Upper bound on the number of cubes that receive full expansion; any
/// remaining uncovered positive examples are kept as raw minterms. Guards
/// against quadratic blow-up on very wide benchmarks.
const MAX_EXPANDED_CUBES: usize = 20_000;

/// Tuning knobs for the minimizer.
#[derive(Clone, Debug, Default)]
pub struct EspressoConfig {
    /// Stop after the first IRREDUNDANT pass (Team 1's fast mode) instead of
    /// iterating EXPAND/REDUCE to a fixpoint.
    pub first_irredundant: bool,
}

/// Minimizes the incompletely specified function given by a labelled dataset:
/// the result covers every positive example and no negative example.
///
/// # Panics
///
/// Panics if the dataset contains the same pattern with both labels
/// (contradictory care set).
pub fn minimize_dataset(ds: &Dataset, cfg: &EspressoConfig) -> Cover {
    minimize_dataset_impl(ds, cfg, true)
}

/// The pre-columnar minimizer: cube-by-cube `contains` walks over the
/// pattern lists. Kept as the reference implementation for differential
/// tests and the `kernels` benchmark baseline; prefer [`minimize_dataset`].
#[doc(hidden)]
pub fn minimize_dataset_row_major(ds: &Dataset, cfg: &EspressoConfig) -> Cover {
    minimize_dataset_impl(ds, cfg, false)
}

fn minimize_dataset_impl(ds: &Dataset, cfg: &EspressoConfig, columnar: bool) -> Cover {
    let positives: Vec<Pattern> = ds
        .iter()
        .filter(|&(_, o)| o)
        .map(|(p, _)| p.clone())
        .collect();
    let negatives: Vec<Pattern> = ds
        .iter()
        .filter(|&(_, o)| !o)
        .map(|(p, _)| p.clone())
        .collect();
    let seeds: Vec<Cube> = positives.iter().map(Cube::from_pattern).collect();
    minimize(
        ds.num_inputs(),
        seeds,
        &positives,
        &negatives,
        cfg,
        /* verify_consistent = */ true,
        columnar,
    )
}

/// Minimizes a seed cover (for example, the SOP extracted from a decision
/// tree) against a labelled dataset. The result covers every positive example
/// the seed cover covered and adds no negative example beyond those the seed
/// cover already misclassified.
pub fn minimize_cover(seeds: &Cover, ds: &Dataset, cfg: &EspressoConfig) -> Cover {
    assert_eq!(seeds.num_vars(), ds.num_inputs(), "arity mismatch");
    let positives: Vec<Pattern> = ds
        .iter()
        .filter(|(p, o)| *o && seeds.eval(p))
        .map(|(p, _)| p.clone())
        .collect();
    // Blocking set: negatives the seed cover classifies correctly today; we
    // must not lose that. Negatives already inside the seed cover are its
    // training errors and cannot constrain expansion.
    let negatives: Vec<Pattern> = ds
        .iter()
        .filter(|(p, o)| !*o && !seeds.eval(p))
        .map(|(p, _)| p.clone())
        .collect();
    minimize(
        ds.num_inputs(),
        seeds.cubes().to_vec(),
        &positives,
        &negatives,
        cfg,
        false,
        true,
    )
}

/// The containment-scan engine: row-major cube walks or the columnar
/// transpose. Both produce bit-identical covers; `minimize` is generic over
/// the choice so the reference path stays exercised.
enum Engine {
    Rows,
    Columns(Box<ColumnScan>),
}

impl Engine {
    fn new(num_vars: usize, positives: &[Pattern], negatives: &[Pattern], columnar: bool) -> Self {
        if columnar {
            Engine::Columns(Box::new(ColumnScan::new(num_vars, positives, negatives)))
        } else {
            Engine::Rows
        }
    }

    fn expand(
        &mut self,
        num_vars: usize,
        seeds: Vec<Cube>,
        positives: &[Pattern],
        negatives: &[Pattern],
    ) -> Cover {
        match self {
            Engine::Rows => expand_rows(num_vars, seeds, positives, negatives),
            Engine::Columns(scan) => scan.expand(num_vars, seeds),
        }
    }

    fn irredundant(&mut self, cover: &mut Cover, positives: &[Pattern]) {
        match self {
            Engine::Rows => irredundant_rows(cover, positives),
            Engine::Columns(scan) => scan.irredundant(cover, positives.len()),
        }
    }

    fn reduce(&mut self, cover: &mut Cover, positives: &[Pattern]) {
        match self {
            Engine::Rows => reduce_rows(cover, positives),
            Engine::Columns(scan) => scan.reduce(cover, positives),
        }
    }

    /// The consistency pre-check: the index of a positive example that also
    /// appears in the off-set, if any. The columnar engine scans each
    /// negative's containment mask over the on-set columns (a full-pattern
    /// cube contains exactly the equal patterns) — the last row-major scan
    /// in the minimizer, widened onto columns.
    fn find_contradiction(
        &mut self,
        positives: &[Pattern],
        negatives: &[Pattern],
    ) -> Option<usize> {
        match self {
            Engine::Rows => positives.iter().position(|p| negatives.contains(p)),
            Engine::Columns(scan) => scan.find_contradiction(negatives),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn minimize(
    num_vars: usize,
    seeds: Vec<Cube>,
    positives: &[Pattern],
    negatives: &[Pattern],
    cfg: &EspressoConfig,
    verify_consistent: bool,
    columnar: bool,
) -> Cover {
    if positives.is_empty() {
        return Cover::new(num_vars);
    }

    let mut engine = Engine::new(num_vars, positives, negatives, columnar);
    if verify_consistent {
        if let Some(i) = engine.find_contradiction(positives, negatives) {
            panic!("contradictory labels for pattern {}", positives[i]);
        }
    }
    let mut cover = engine.expand(num_vars, seeds, positives, negatives);
    engine.irredundant(&mut cover, positives);
    if cfg.first_irredundant {
        return cover;
    }

    let mut best = cover.clone();
    for _ in 0..MAX_LOOPS {
        engine.reduce(&mut cover, positives);
        cover = engine.expand(num_vars, cover.into_iter().collect(), positives, negatives);
        engine.irredundant(&mut cover, positives);
        if cost(&cover) < cost(&best) {
            best = cover.clone();
        } else {
            break;
        }
    }
    best
}

/// Cover cost: primary = cube count, secondary = literal count.
fn cost(cover: &Cover) -> (usize, usize) {
    (cover.len(), cover.literal_count())
}

/// EXPAND: enlarge each seed cube literal-by-literal, blocked by the offset.
/// Seeds whose positive examples are already covered are skipped, so strong
/// expansion keeps the cube count low. (Row-major reference path.)
fn expand_rows(
    num_vars: usize,
    seeds: Vec<Cube>,
    positives: &[Pattern],
    negatives: &[Pattern],
) -> Cover {
    let mut out = Cover::new(num_vars);
    let mut covered = vec![false; positives.len()];
    let mut expanded = 0usize;

    for seed in seeds {
        // Skip seeds that no longer contribute any uncovered positive.
        let contributes = positives
            .iter()
            .enumerate()
            .any(|(i, p)| !covered[i] && seed.contains(p));
        if !contributes {
            continue;
        }
        let cube = if expanded < MAX_EXPANDED_CUBES {
            expanded += 1;
            expand_cube_rows(&seed, negatives)
        } else {
            seed
        };
        for (i, p) in positives.iter().enumerate() {
            if !covered[i] && cube.contains(p) {
                covered[i] = true;
            }
        }
        out.push(cube);
    }
    out.remove_single_cube_containment();
    out
}

/// Expands one cube: greedily removes literals (in ascending order of how
/// many distance-1 offset minterms block them) as long as the enlarged cube
/// stays clear of every negative example. (Row-major reference path.)
fn expand_cube_rows(seed: &Cube, negatives: &[Pattern]) -> Cube {
    let mut cube = seed.clone();
    // Count, per literal, the offset patterns at distance 1 clashing exactly
    // on that literal — these definitely block its removal, so try the least
    // blocked literals first.
    let mut block = vec![0u32; cube.num_vars()];
    for r in negatives {
        let mut clash_var = None;
        let mut clashes = 0;
        for (var, pol) in cube.literals() {
            if r.get(var) != pol {
                clashes += 1;
                if clashes > 1 {
                    break;
                }
                clash_var = Some(var);
            }
        }
        if clashes == 1 {
            block[clash_var.expect("one clash")] += 1;
        }
    }
    let mut order: Vec<usize> = cube.literals().map(|(v, _)| v).collect();
    order.sort_by_key(|&v| (block[v], v));

    for v in order {
        let candidate = cube.without_literal(v);
        if !negatives.iter().any(|r| candidate.contains(r)) {
            cube = candidate;
        }
    }
    cube
}

/// IRREDUNDANT: drop cubes all of whose positive examples are multiply
/// covered. Cubes with more literals (smaller cubes) are dropped first.
/// (Row-major reference path.)
fn irredundant_rows(cover: &mut Cover, positives: &[Pattern]) {
    // multiplicity[i] = how many cubes cover positive example i.
    let mut multiplicity = vec![0u32; positives.len()];
    let mut covers: Vec<Vec<u32>> = Vec::with_capacity(cover.len());
    for cube in cover.iter() {
        let mut mine = Vec::new();
        for (i, p) in positives.iter().enumerate() {
            if cube.contains(p) {
                multiplicity[i] += 1;
                mine.push(i as u32);
            }
        }
        covers.push(mine);
    }
    drop_multiply_covered(cover, covers, &mut multiplicity);
}

/// Shared tail of IRREDUNDANT once per-cube coverage lists exist: drop
/// cubes (most-literals first) whose positives are all multiply covered.
fn drop_multiply_covered(cover: &mut Cover, covers: Vec<Vec<u32>>, multiplicity: &mut [u32]) {
    let mut order: Vec<usize> = (0..cover.len()).collect();
    order.sort_by_key(|&c| std::cmp::Reverse(cover[c].literal_count()));

    let mut dead = vec![false; cover.len()];
    for c in order {
        let removable = covers[c].iter().all(|&i| multiplicity[i as usize] >= 2);
        if removable {
            dead[c] = true;
            for &i in &covers[c] {
                multiplicity[i as usize] -= 1;
            }
        }
    }
    let mut keep = dead.iter().map(|d| !d);
    cover.cubes_mut().retain(|_| keep.next().expect("mask"));
}

/// REDUCE: shrink every cube to the supercube of the positive examples that
/// only it covers (dropping cubes that uniquely cover nothing).
/// (Row-major reference path.)
fn reduce_rows(cover: &mut Cover, positives: &[Pattern]) {
    let mut multiplicity = vec![0u32; positives.len()];
    for cube in cover.iter() {
        for (i, p) in positives.iter().enumerate() {
            if cube.contains(p) {
                multiplicity[i] += 1;
            }
        }
    }
    let num_vars = cover.num_vars();
    let mut reduced: Vec<Cube> = Vec::with_capacity(cover.len());
    for cube in cover.iter() {
        let unique: Vec<&Pattern> = positives
            .iter()
            .enumerate()
            .filter(|(i, p)| multiplicity[*i] == 1 && cube.contains(p))
            .map(|(_, p)| p)
            .collect();
        if unique.is_empty() {
            // Covered elsewhere: the cube would be redundant; drop it and
            // release its shared examples.
            for (i, p) in positives.iter().enumerate() {
                if cube.contains(p) {
                    multiplicity[i] -= 1;
                }
            }
            continue;
        }
        reduced.push(supercube(num_vars, unique.into_iter()));
    }
    *cover = Cover::from_cubes(num_vars, reduced);
}

/// The columnar containment engine: on-set and off-set transposed once into
/// [`BitColumns`], every stage a batched mask scan. All counts and greedy
/// orders are integers computed in the same order as the row-major
/// reference, so the resulting covers are identical cube for cube.
struct ColumnScan {
    pos: BitColumns,
    neg: BitColumns,
    /// Valid-example mask over the off-set (tail bits cleared).
    neg_valid: Vec<u64>,
    /// Scratch planes for EXPAND's mismatch-multiplicity counting.
    ones: Vec<u64>,
    twos: Vec<u64>,
    /// Scratch for cube containment masks.
    matches: Vec<u64>,
}

impl ColumnScan {
    fn new(num_vars: usize, positives: &[Pattern], negatives: &[Pattern]) -> Self {
        let pos = BitColumns::from_patterns(num_vars, positives);
        let neg = BitColumns::from_patterns(num_vars, negatives);
        let neg_valid = neg.full_mask();
        let nw = neg.words_per_column();
        ColumnScan {
            pos,
            neg,
            neg_valid,
            ones: vec![0; nw],
            twos: vec![0; nw],
            matches: Vec::new(),
        }
    }

    /// Packed mask of `cols` patterns contained in `cube`: the full mask
    /// AND-ed with each literal's (possibly complemented) column. The tail
    /// stays clean because the starting mask's tail is clean.
    fn cube_match_into(cols: &BitColumns, cube: &Cube, out: &mut Vec<u64>) {
        cols.full_mask_into(out);
        for (var, pol) in cube.literals() {
            let col = cols.column(var);
            if pol {
                for (o, &c) in out.iter_mut().zip(col) {
                    *o &= c;
                }
            } else {
                for (o, &c) in out.iter_mut().zip(col) {
                    *o &= !c;
                }
            }
        }
    }

    fn expand(&mut self, num_vars: usize, seeds: Vec<Cube>) -> Cover {
        let mut out = Cover::new(num_vars);
        let mut covered = vec![0u64; self.pos.words_per_column()];
        let mut expanded = 0usize;

        for seed in seeds {
            // Skip seeds that no longer contribute any uncovered positive.
            Self::cube_match_into(&self.pos, &seed, &mut self.matches);
            let contributes = self
                .matches
                .iter()
                .zip(&covered)
                .any(|(&m, &c)| m & !c != 0);
            if !contributes {
                continue;
            }
            let cube = if expanded < MAX_EXPANDED_CUBES {
                expanded += 1;
                self.expand_cube(&seed)
            } else {
                seed
            };
            Self::cube_match_into(&self.pos, &cube, &mut self.matches);
            for (c, &m) in covered.iter_mut().zip(&self.matches) {
                *c |= m;
            }
            out.push(cube);
        }
        out.remove_single_cube_containment();
        out
    }

    /// The word of off-set patterns mismatching literal `(var, pol)` at
    /// word index `w`: a pattern mismatches a positive literal where its
    /// bit is zero, a negative literal where its bit is one.
    #[inline]
    fn mismatch_word(&self, var: usize, pol: bool, w: usize) -> u64 {
        let flip = if pol { u64::MAX } else { 0 };
        (self.neg.column(var)[w] ^ flip) & self.neg_valid[w]
    }

    /// Rebuilds the ≥1/≥2 mismatch-multiplicity planes over the literals
    /// still alive.
    fn rebuild_planes(&mut self, lits: &[(usize, bool)], alive: &[bool]) {
        self.ones.iter_mut().for_each(|w| *w = 0);
        self.twos.iter_mut().for_each(|w| *w = 0);
        for (k, &(var, pol)) in lits.iter().enumerate() {
            if !alive[k] {
                continue;
            }
            for w in 0..self.ones.len() {
                let m = self.mismatch_word(var, pol, w);
                self.twos[w] |= self.ones[w] & m;
                self.ones[w] |= m;
            }
        }
    }

    /// EXPAND one cube against the packed off-set. Greedy literal removal
    /// in ascending (distance-1 block count, variable) order, exactly the
    /// row-major heuristic: a removal is blocked iff some negative's *only*
    /// remaining mismatch is that literal — one fused popcount over
    /// `mismatchᵥ ∧ ones ∧ ¬twos` per candidate instead of an off-set walk.
    fn expand_cube(&mut self, seed: &Cube) -> Cube {
        let lits: Vec<(usize, bool)> = seed.literals().collect();
        if lits.is_empty() {
            return seed.clone();
        }
        let words = self.neg.words_per_column();
        let mut alive = vec![true; lits.len()];
        self.rebuild_planes(&lits, &alive);

        // A negative with zero mismatches is already inside the cube; no
        // removal can ever be accepted (enlarging keeps it inside), which
        // is exactly what the row-major greedy concludes one candidate at
        // a time.
        if (0..words).any(|w| self.neg_valid[w] & !self.ones[w] != 0) {
            return seed.clone();
        }

        // Distance-1 block counts per literal, for the removal order.
        let mut order: Vec<usize> = (0..lits.len()).collect();
        let block: Vec<u64> = lits
            .iter()
            .map(|&(var, pol)| {
                (0..words)
                    .map(|w| {
                        u64::from(
                            (self.mismatch_word(var, pol, w) & self.ones[w] & !self.twos[w])
                                .count_ones(),
                        )
                    })
                    .sum()
            })
            .collect();
        order.sort_by_key(|&k| (block[k], lits[k].0));

        let mut cube = seed.clone();
        for k in order {
            let (var, pol) = lits[k];
            let blocked = (0..words)
                .any(|w| self.mismatch_word(var, pol, w) & self.ones[w] & !self.twos[w] != 0);
            if !blocked {
                alive[k] = false;
                cube.set(var, Trit::Dash);
                self.rebuild_planes(&lits, &alive);
            }
        }
        cube
    }

    fn irredundant(&mut self, cover: &mut Cover, num_positives: usize) {
        let mut multiplicity = vec![0u32; num_positives];
        let mut covers: Vec<Vec<u32>> = Vec::with_capacity(cover.len());
        for cube in cover.iter() {
            Self::cube_match_into(&self.pos, cube, &mut self.matches);
            let mut mine = Vec::new();
            for_each_set_bit(&self.matches, |i| {
                multiplicity[i] += 1;
                mine.push(i as u32);
            });
            covers.push(mine);
        }
        drop_multiply_covered(cover, covers, &mut multiplicity);
    }

    /// Columnar consistency pre-check: for every negative pattern, AND the
    /// on-set columns down to the mask of equal positives (the containment
    /// mask of the negative's full-pattern cube); any set bit names a
    /// contradictory example. Word-parallel over 64 positives at a time,
    /// early-exiting on the first conflict.
    fn find_contradiction(&mut self, negatives: &[Pattern]) -> Option<usize> {
        let mut matches = std::mem::take(&mut self.matches);
        let mut found = None;
        for neg in negatives {
            Self::cube_match_into(&self.pos, &Cube::from_pattern(neg), &mut matches);
            if let Some(w) = matches.iter().position(|&m| m != 0) {
                found = Some(w * 64 + matches[w].trailing_zeros() as usize);
                break;
            }
        }
        self.matches = matches;
        found
    }

    fn reduce(&mut self, cover: &mut Cover, positives: &[Pattern]) {
        let mut multiplicity = vec![0u32; positives.len()];
        let mut match_masks: Vec<Vec<u64>> = Vec::with_capacity(cover.len());
        for cube in cover.iter() {
            Self::cube_match_into(&self.pos, cube, &mut self.matches);
            for_each_set_bit(&self.matches, |i| multiplicity[i] += 1);
            match_masks.push(self.matches.clone());
        }
        let num_vars = cover.num_vars();
        let mut reduced: Vec<Cube> = Vec::with_capacity(cover.len());
        for cube_mask in &match_masks {
            let mut unique: Vec<&Pattern> = Vec::new();
            for_each_set_bit(cube_mask, |i| {
                if multiplicity[i] == 1 {
                    unique.push(&positives[i]);
                }
            });
            if unique.is_empty() {
                // Covered elsewhere: the cube would be redundant; drop it
                // and release its shared examples.
                for_each_set_bit(cube_mask, |i| multiplicity[i] -= 1);
                continue;
            }
            reduced.push(supercube(num_vars, unique.into_iter()));
        }
        *cover = Cover::from_cubes(num_vars, reduced);
    }
}

/// The smallest cube containing all given patterns: variables on which every
/// pattern agrees keep that literal, all others become dashes.
///
/// # Panics
///
/// Panics if the iterator is empty or a pattern's arity differs from
/// `num_vars`.
pub fn supercube<'a>(num_vars: usize, mut patterns: impl Iterator<Item = &'a Pattern>) -> Cube {
    let first = patterns.next().expect("supercube of nothing");
    assert_eq!(first.len(), num_vars, "pattern arity mismatch");
    let mut cube = Cube::from_pattern(first);
    for p in patterns {
        assert_eq!(p.len(), num_vars, "pattern arity mismatch");
        for (var, pol) in cube.clone().literals() {
            if p.get(var) != pol {
                cube = cube.without_literal(var);
            }
        }
    }
    cube
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset_from(f: impl Fn(u64) -> bool, num_vars: usize) -> Dataset {
        let mut ds = Dataset::new(num_vars);
        for m in 0..(1u64 << num_vars) {
            ds.push(Pattern::from_index(m, num_vars), f(m));
        }
        ds
    }

    fn check_valid(cover: &Cover, ds: &Dataset) {
        for (p, o) in ds.iter() {
            assert_eq!(cover.eval(p), o, "cover wrong on {p}");
        }
    }

    #[test]
    fn single_variable_function() {
        let ds = dataset_from(|m| m & 1 == 1, 4);
        let cover = minimize_dataset(&ds, &EspressoConfig::default());
        check_valid(&cover, &ds);
        assert_eq!(cover.len(), 1);
        assert_eq!(cover[0].literal_count(), 1);
    }

    #[test]
    fn completely_specified_majority() {
        let ds = dataset_from(|m| m.count_ones() >= 2, 3);
        let cover = minimize_dataset(&ds, &EspressoConfig::default());
        check_valid(&cover, &ds);
        // Optimal SOP of MAJ3 has 3 cubes of 2 literals.
        assert_eq!(cover.len(), 3);
        assert_eq!(cover.literal_count(), 6);
    }

    #[test]
    fn xor_needs_four_cubes_over_three_vars() {
        let ds = dataset_from(|m| m.count_ones() % 2 == 1, 3);
        let cover = minimize_dataset(&ds, &EspressoConfig::default());
        check_valid(&cover, &ds);
        assert_eq!(cover.len(), 4); // parity has no 2-level sharing
    }

    #[test]
    fn incompletely_specified_generalizes() {
        // Only 4 care minterms of a 4-var space; f = x3 on the care set.
        let mut ds = Dataset::new(4);
        ds.push(Pattern::from_index(0b1000, 4), true);
        ds.push(Pattern::from_index(0b1011, 4), true);
        ds.push(Pattern::from_index(0b0011, 4), false);
        ds.push(Pattern::from_index(0b0100, 4), false);
        let cover = minimize_dataset(&ds, &EspressoConfig::default());
        check_valid(&cover, &ds);
        assert_eq!(cover.len(), 1);
        assert_eq!(cover[0].to_string(), "---1");
    }

    #[test]
    fn first_irredundant_is_still_valid() {
        let ds = dataset_from(|m| (m ^ (m >> 1)) & 1 == 1, 5);
        let cfg = EspressoConfig {
            first_irredundant: true,
        };
        let cover = minimize_dataset(&ds, &cfg);
        check_valid(&cover, &ds);
    }

    #[test]
    fn empty_onset_gives_empty_cover() {
        let ds = dataset_from(|_| false, 3);
        let cover = minimize_dataset(&ds, &EspressoConfig::default());
        assert!(cover.is_empty());
    }

    #[test]
    fn full_onset_gives_tautology_cube() {
        let ds = dataset_from(|_| true, 3);
        let cover = minimize_dataset(&ds, &EspressoConfig::default());
        check_valid(&cover, &ds);
        assert_eq!(cover.len(), 1);
        assert!(cover[0].is_universe());
    }

    #[test]
    #[should_panic(expected = "contradictory labels")]
    fn contradiction_panics() {
        let mut ds = Dataset::new(2);
        ds.push(Pattern::from_index(0b01, 2), true);
        ds.push(Pattern::from_index(0b01, 2), false);
        minimize_dataset(&ds, &EspressoConfig::default());
    }

    #[test]
    #[should_panic(expected = "contradictory labels")]
    fn contradiction_panics_row_major() {
        let mut ds = Dataset::new(2);
        ds.push(Pattern::from_index(0b10, 2), true);
        ds.push(Pattern::from_index(0b10, 2), false);
        minimize_dataset_row_major(&ds, &EspressoConfig::default());
    }

    #[test]
    fn columnar_contradiction_check_finds_deep_duplicates() {
        // The duplicate sits past the first packed word (index >= 64) so
        // the word scan and bit index both get exercised.
        let mut ds = Dataset::new(7);
        for m in 0..80u64 {
            ds.push(Pattern::from_index(m, 7), true);
        }
        for m in 100..110u64 {
            ds.push(Pattern::from_index(m, 7), false);
        }
        ds.push(Pattern::from_index(70, 7), false); // contradicts positive 70
        let caught = std::panic::catch_unwind(|| {
            minimize_dataset(&ds, &EspressoConfig::default());
        });
        let err = caught.expect_err("must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("contradictory labels"),
            "unexpected panic: {msg}"
        );
        assert!(
            msg.contains(&Pattern::from_index(70, 7).to_string()),
            "panic must name the offending pattern: {msg}"
        );
    }

    #[test]
    fn minimize_cover_respects_seed_errors() {
        // Seed cover misclassifies one negative; minimize_cover must not
        // count it as blocking but must keep other negatives excluded.
        let mut ds = Dataset::new(3);
        ds.push(Pattern::from_index(0b001, 3), true);
        ds.push(Pattern::from_index(0b011, 3), true);
        ds.push(Pattern::from_index(0b101, 3), false); // seed error: covered
        ds.push(Pattern::from_index(0b000, 3), false);
        let seeds = Cover::from_cubes(3, vec!["1--".parse().expect("cube")]);
        let out = minimize_cover(&seeds, &ds, &EspressoConfig::default());
        // All positives still covered; the clean negative still excluded.
        assert!(out.eval(&Pattern::from_index(0b001, 3)));
        assert!(out.eval(&Pattern::from_index(0b011, 3)));
        assert!(!out.eval(&Pattern::from_index(0b000, 3)));
    }

    #[test]
    fn supercube_of_patterns() {
        let a = Pattern::from_index(0b1010, 4);
        let b = Pattern::from_index(0b1000, 4);
        let sc = supercube(4, [&a, &b].into_iter());
        assert_eq!(sc.to_string(), "0-01"); // LSB-first display: x0=0, x1 dash, x2=0? check below
        assert!(sc.contains(&a) && sc.contains(&b));
        assert_eq!(sc.literal_count(), 3);
    }

    #[test]
    fn columnar_and_row_major_covers_are_identical() {
        // The columnar engine is a pure scan rewrite: same greedy orders,
        // same integer counts, so the covers must match cube for cube —
        // across complete and sampled care sets, both espresso modes.
        type Oracle = Box<dyn Fn(u64) -> bool>;
        let oracles: Vec<(usize, Oracle)> = vec![
            (4, Box::new(|m| m.count_ones() >= 2)),
            (5, Box::new(|m| (m ^ (m >> 2)) & 1 == 1)),
            (6, Box::new(|m| (m.wrapping_mul(37) >> 2) % 3 == 1)),
        ];
        for (nv, f) in oracles {
            for first_irredundant in [false, true] {
                let cfg = EspressoConfig { first_irredundant };
                // Complete care set.
                let full = dataset_from(&f, nv);
                assert_eq!(
                    minimize_dataset(&full, &cfg).cubes(),
                    minimize_dataset_row_major(&full, &cfg).cubes(),
                    "full {nv}-var care set, first_irredundant={first_irredundant}"
                );
                // Sparse care set (every third minterm).
                let mut sparse = Dataset::new(nv);
                for m in (0..(1u64 << nv)).step_by(3) {
                    sparse.push(Pattern::from_index(m, nv), f(m));
                }
                assert_eq!(
                    minimize_dataset(&sparse, &cfg).cubes(),
                    minimize_dataset_row_major(&sparse, &cfg).cubes(),
                    "sparse {nv}-var care set, first_irredundant={first_irredundant}"
                );
            }
        }
    }

    #[test]
    fn columnar_handles_empty_offset_and_onset() {
        // No negatives: every literal is removable; no positives: empty
        // cover. Both extremes must agree with the row-major engine.
        let mut all_pos = Dataset::new(3);
        for m in 0..8u64 {
            all_pos.push(Pattern::from_index(m, 3), true);
        }
        let cfg = EspressoConfig::default();
        assert_eq!(
            minimize_dataset(&all_pos, &cfg).cubes(),
            minimize_dataset_row_major(&all_pos, &cfg).cubes()
        );
        let mut all_neg = Dataset::new(3);
        for m in 0..8u64 {
            all_neg.push(Pattern::from_index(m, 3), false);
        }
        assert!(minimize_dataset(&all_neg, &cfg).is_empty());
    }

    #[test]
    fn adder_msb_samples_minimize_cleanly() {
        // Second bit of a 2-bit adder: depends on several inputs; espresso
        // must stay exact on the complete care set.
        let ds = dataset_from(
            |m| {
                let a = m & 0b11;
                let b = (m >> 2) & 0b11;
                ((a + b) >> 1) & 1 == 1
            },
            4,
        );
        let cover = minimize_dataset(&ds, &EspressoConfig::default());
        check_valid(&cover, &ds);
        assert!(cover.len() <= 6, "got {} cubes", cover.len());
    }
}
