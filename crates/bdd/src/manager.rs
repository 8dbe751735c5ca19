//! The BDD manager: unique table, apply, restrict-style minimization.

use std::collections::HashMap;

use lsml_aig::{Aig, Lit};
use lsml_pla::{Dataset, Pattern};

/// A reference to a BDD node (index into the manager's arena).
pub type BddRef = u32;

/// How aggressively [`BddManager::minimize`] exploits don't-cares.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum MinimizeStyle {
    /// Sibling substitution only (Coudert–Madre restrict): a branch whose
    /// care cofactor is empty is replaced by its sibling.
    OneSided,
    /// Additionally merge children that agree wherever both care.
    TwoSided,
    /// Additionally recognize children that are *complements* on the common
    /// care set, rebuilding the node as an XOR (Team 1's heuristic, applied
    /// with a bias that prefers the straight merge).
    ComplementedTwoSided,
}

#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
struct Node {
    var: u32,
    lo: BddRef,
    hi: BddRef,
}

/// A reduced ordered BDD manager over a fixed variable count (identity
/// order: variable 0 at the root). No complement edges — functions are
/// plain node references, with `0` = constant false and `1` = constant true.
#[derive(Debug)]
pub struct BddManager {
    num_vars: usize,
    nodes: Vec<Node>,
    unique: HashMap<Node, BddRef>,
    and_cache: HashMap<(BddRef, BddRef), BddRef>,
    or_cache: HashMap<(BddRef, BddRef), BddRef>,
    xor_cache: HashMap<(BddRef, BddRef), BddRef>,
    not_cache: HashMap<BddRef, BddRef>,
}

/// The constant-false BDD.
pub const BDD_FALSE: BddRef = 0;
/// The constant-true BDD.
pub const BDD_TRUE: BddRef = 1;

impl BddManager {
    /// Creates a manager over `num_vars` variables.
    pub fn new(num_vars: usize) -> Self {
        let sentinel = Node {
            var: u32::MAX,
            lo: 0,
            hi: 0,
        };
        BddManager {
            num_vars,
            // Slots 0 and 1 are the terminals.
            nodes: vec![sentinel, sentinel],
            unique: HashMap::new(),
            and_cache: HashMap::new(),
            or_cache: HashMap::new(),
            xor_cache: HashMap::new(),
            not_cache: HashMap::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Total nodes allocated in the arena (monotone; includes both
    /// terminals).
    pub fn arena_size(&self) -> usize {
        self.nodes.len()
    }

    /// The constant BDD for `value`.
    pub fn constant(&self, value: bool) -> BddRef {
        if value {
            BDD_TRUE
        } else {
            BDD_FALSE
        }
    }

    /// The BDD of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars()`.
    pub fn variable(&mut self, var: usize) -> BddRef {
        assert!(var < self.num_vars, "variable index out of range");
        self.mk(var as u32, BDD_FALSE, BDD_TRUE)
    }

    fn var_of(&self, f: BddRef) -> u32 {
        if f <= 1 {
            u32::MAX
        } else {
            self.nodes[f as usize].var
        }
    }

    fn cofactors_at(&self, f: BddRef, var: u32) -> (BddRef, BddRef) {
        if f <= 1 || self.nodes[f as usize].var != var {
            (f, f)
        } else {
            (self.nodes[f as usize].lo, self.nodes[f as usize].hi)
        }
    }

    fn mk(&mut self, var: u32, lo: BddRef, hi: BddRef) -> BddRef {
        if lo == hi {
            return lo;
        }
        let node = Node { var, lo, hi };
        if let Some(&r) = self.unique.get(&node) {
            return r;
        }
        let r = self.nodes.len() as BddRef;
        self.nodes.push(node);
        self.unique.insert(node, r);
        r
    }

    /// Conjunction.
    pub fn and(&mut self, f: BddRef, g: BddRef) -> BddRef {
        if f == BDD_FALSE || g == BDD_FALSE {
            return BDD_FALSE;
        }
        if f == BDD_TRUE {
            return g;
        }
        if g == BDD_TRUE || f == g {
            return f;
        }
        let key = (f.min(g), f.max(g));
        if let Some(&r) = self.and_cache.get(&key) {
            return r;
        }
        let v = self.var_of(f).min(self.var_of(g));
        let (flo, fhi) = self.cofactors_at(f, v);
        let (glo, ghi) = self.cofactors_at(g, v);
        let lo = self.and(flo, glo);
        let hi = self.and(fhi, ghi);
        let r = self.mk(v, lo, hi);
        self.and_cache.insert(key, r);
        r
    }

    /// Disjunction.
    pub fn or(&mut self, f: BddRef, g: BddRef) -> BddRef {
        if f == BDD_TRUE || g == BDD_TRUE {
            return BDD_TRUE;
        }
        if f == BDD_FALSE {
            return g;
        }
        if g == BDD_FALSE || f == g {
            return f;
        }
        let key = (f.min(g), f.max(g));
        if let Some(&r) = self.or_cache.get(&key) {
            return r;
        }
        let v = self.var_of(f).min(self.var_of(g));
        let (flo, fhi) = self.cofactors_at(f, v);
        let (glo, ghi) = self.cofactors_at(g, v);
        let lo = self.or(flo, glo);
        let hi = self.or(fhi, ghi);
        let r = self.mk(v, lo, hi);
        self.or_cache.insert(key, r);
        r
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: BddRef, g: BddRef) -> BddRef {
        if f == BDD_FALSE {
            return g;
        }
        if g == BDD_FALSE {
            return f;
        }
        if f == g {
            return BDD_FALSE;
        }
        if f == BDD_TRUE {
            return self.not(g);
        }
        if g == BDD_TRUE {
            return self.not(f);
        }
        let key = (f.min(g), f.max(g));
        if let Some(&r) = self.xor_cache.get(&key) {
            return r;
        }
        let v = self.var_of(f).min(self.var_of(g));
        let (flo, fhi) = self.cofactors_at(f, v);
        let (glo, ghi) = self.cofactors_at(g, v);
        let lo = self.xor(flo, glo);
        let hi = self.xor(fhi, ghi);
        let r = self.mk(v, lo, hi);
        self.xor_cache.insert(key, r);
        r
    }

    /// Negation.
    pub fn not(&mut self, f: BddRef) -> BddRef {
        if f == BDD_FALSE {
            return BDD_TRUE;
        }
        if f == BDD_TRUE {
            return BDD_FALSE;
        }
        if let Some(&r) = self.not_cache.get(&f) {
            return r;
        }
        let Node { var, lo, hi } = self.nodes[f as usize];
        let nlo = self.not(lo);
        let nhi = self.not(hi);
        let r = self.mk(var, nlo, nhi);
        self.not_cache.insert(f, r);
        self.not_cache.insert(r, f);
        r
    }

    /// If-then-else.
    pub fn ite(&mut self, f: BddRef, g: BddRef, h: BddRef) -> BddRef {
        let fg = self.and(f, g);
        let nf = self.not(f);
        let nfh = self.and(nf, h);
        self.or(fg, nfh)
    }

    /// The BDD of a single minterm (conjunction of all variables with the
    /// pattern's polarities), built bottom-up.
    ///
    /// # Panics
    ///
    /// Panics if the pattern arity differs from `num_vars()`.
    pub fn minterm(&mut self, p: &Pattern) -> BddRef {
        assert_eq!(p.len(), self.num_vars, "pattern arity mismatch");
        let mut acc = BDD_TRUE;
        for var in (0..self.num_vars).rev() {
            acc = if p.get(var) {
                self.mk(var as u32, BDD_FALSE, acc)
            } else {
                self.mk(var as u32, acc, BDD_FALSE)
            };
        }
        acc
    }

    /// Builds `(onset, careset)` BDDs from a labelled dataset: the onset is
    /// the OR of positive minterms, the care set the OR of all minterms.
    ///
    /// Construction is *columnar*: instead of building one minterm BDD per
    /// row and OR-ing them together (quadratic apply-cache churn), the
    /// dataset's cached [`BitColumns`](lsml_pla::BitColumns) transpose is
    /// cofactored top-down — the example subset reaching each recursion is
    /// a packed mask, split by the current variable's column with one
    /// `AND`/`ANDNOT` pass, and a leaf is positive iff `|mask ∧ labels| > 0`
    /// (one popcount). BDDs are canonical per manager, so the result is
    /// node-for-node identical to the row-major construction (retained as
    /// [`BddManager::from_dataset_row_major`]).
    ///
    /// # Panics
    ///
    /// Panics if the dataset arity differs from `num_vars()`.
    pub fn from_dataset(&mut self, ds: &Dataset) -> (BddRef, BddRef) {
        assert_eq!(ds.num_inputs(), self.num_vars, "dataset arity mismatch");
        if ds.is_empty() {
            return (BDD_FALSE, BDD_FALSE);
        }
        let cols = ds.bit_columns();
        let mask = cols.full_mask();
        // Buffer pool for the per-level child masks: the recursion depth is
        // `num_vars`, so at most two live buffers per level.
        let mut pool: Vec<Vec<u64>> = Vec::new();
        self.cofactor_build(&cols, &mask, 0, &mut pool)
    }

    /// The pre-columnar construction: one minterm BDD per row, OR-ed in
    /// dataset order. Kept as the reference for differential tests and the
    /// `kernels` benchmark baseline; prefer [`BddManager::from_dataset`].
    #[doc(hidden)]
    pub fn from_dataset_row_major(&mut self, ds: &Dataset) -> (BddRef, BddRef) {
        let mut onset = BDD_FALSE;
        let mut care = BDD_FALSE;
        for (p, o) in ds.iter() {
            let m = self.minterm(p);
            care = self.or(care, m);
            if o {
                onset = self.or(onset, m);
            }
        }
        (onset, care)
    }

    /// Shannon-expands the example subset in `mask` on variable `var`,
    /// returning `(onset, care)` for the cofactor. Empty subsets terminate
    /// immediately, so the recursion visits only the trie of distinct
    /// example prefixes.
    fn cofactor_build(
        &mut self,
        cols: &lsml_pla::BitColumns,
        mask: &[u64],
        var: usize,
        pool: &mut Vec<Vec<u64>>,
    ) -> (BddRef, BddRef) {
        let count = lsml_pla::BitColumns::count_ones(mask);
        if count == 0 {
            return (BDD_FALSE, BDD_FALSE);
        }
        if var == self.num_vars {
            // All variables assigned: the subset is one repeated minterm.
            // It is care, and on iff any occurrence is labelled positive.
            let on = lsml_pla::BitColumns::count_and(mask, cols.labels()) > 0;
            return (if on { BDD_TRUE } else { BDD_FALSE }, BDD_TRUE);
        }
        let mut lo_mask = pool.pop().unwrap_or_default();
        let mut hi_mask = pool.pop().unwrap_or_default();
        cols.split_mask_into(var, mask, &mut lo_mask, &mut hi_mask);
        let (on_lo, care_lo) = self.cofactor_build(cols, &lo_mask, var + 1, pool);
        let (on_hi, care_hi) = self.cofactor_build(cols, &hi_mask, var + 1, pool);
        pool.push(lo_mask);
        pool.push(hi_mask);
        (
            self.mk(var as u32, on_lo, on_hi),
            self.mk(var as u32, care_lo, care_hi),
        )
    }

    /// Evaluates a BDD on a pattern.
    ///
    /// # Panics
    ///
    /// Panics if the pattern arity differs from `num_vars()`.
    pub fn eval(&self, f: BddRef, p: &Pattern) -> bool {
        assert_eq!(p.len(), self.num_vars, "pattern arity mismatch");
        let mut at = f;
        while at > 1 {
            let Node { var, lo, hi } = self.nodes[at as usize];
            at = if p.get(var as usize) { hi } else { lo };
        }
        at == BDD_TRUE
    }

    /// Number of nodes reachable from `f` (excluding terminals).
    pub fn size(&self, f: BddRef) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f];
        while let Some(n) = stack.pop() {
            if n <= 1 || !seen.insert(n) {
                continue;
            }
            let Node { lo, hi, .. } = self.nodes[n as usize];
            stack.push(lo);
            stack.push(hi);
        }
        seen.len()
    }

    /// Minimizes `f` against the care set `care`: the result agrees with `f`
    /// on every care minterm and is chosen to have a small BDD. This is Team
    /// 1's appendix method; see [`MinimizeStyle`] for the three levels.
    ///
    /// Restrict-style operators can occasionally *grow* the BDD (a known
    /// pathology Team 1 countered with gain thresholds); if that happens the
    /// original `f` is returned unchanged.
    pub fn minimize(&mut self, f: BddRef, care: BddRef, style: MinimizeStyle) -> BddRef {
        let mut cache: HashMap<(BddRef, BddRef), BddRef> = HashMap::new();
        let minimized = self.minimize_rec(f, care, style, &mut cache);
        if self.size(minimized) <= self.size(f) {
            minimized
        } else {
            f
        }
    }

    fn minimize_rec(
        &mut self,
        f: BddRef,
        care: BddRef,
        style: MinimizeStyle,
        cache: &mut HashMap<(BddRef, BddRef), BddRef>,
    ) -> BddRef {
        if care == BDD_FALSE {
            // Entirely don't-care: any function works; constant false is
            // smallest.
            return BDD_FALSE;
        }
        if f <= 1 || care == BDD_TRUE && self.var_of(f) == u32::MAX {
            return f;
        }
        if let Some(&r) = cache.get(&(f, care)) {
            return r;
        }
        let v = self.var_of(f).min(self.var_of(care));
        if v == u32::MAX {
            return f;
        }
        let (flo, fhi) = self.cofactors_at(f, v);
        let (clo, chi) = self.cofactors_at(care, v);

        let result = if clo == BDD_FALSE {
            // One-sided: the lo branch never matters.
            self.minimize_rec(fhi, chi, style, cache)
        } else if chi == BDD_FALSE {
            self.minimize_rec(flo, clo, style, cache)
        } else {
            let mut merged: Option<BddRef> = None;
            if style >= MinimizeStyle::TwoSided {
                // Children compatible where both care?
                let diff = self.xor(flo, fhi);
                let common = self.and(clo, chi);
                let conflict = self.and(diff, common);
                if conflict == BDD_FALSE {
                    let a = self.and(flo, clo);
                    let b = self.and(fhi, chi);
                    let g = self.or(a, b);
                    let cc = self.or(clo, chi);
                    merged = Some(self.minimize_rec(g, cc, style, cache));
                }
            }
            if merged.is_none() && style >= MinimizeStyle::ComplementedTwoSided {
                // Children complementary where both care? Then f = v XOR h.
                let nfhi = self.not(fhi);
                let same = self.xor(flo, nfhi);
                let common = self.and(clo, chi);
                let conflict = self.and(same, common);
                if conflict == BDD_FALSE {
                    let a = self.and(flo, clo);
                    let b = self.and(nfhi, chi);
                    let g = self.or(a, b);
                    let cc = self.or(clo, chi);
                    let h = self.minimize_rec(g, cc, style, cache);
                    let nh = self.not(h);
                    merged = Some(self.mk(v, h, nh));
                }
            }
            match merged {
                Some(r) => r,
                None => {
                    let lo = self.minimize_rec(flo, clo, style, cache);
                    let hi = self.minimize_rec(fhi, chi, style, cache);
                    self.mk(v, lo, hi)
                }
            }
        };
        cache.insert((f, care), result);
        result
    }

    /// Compiles a BDD into an AIG (one multiplexer per reachable node).
    pub fn to_aig(&self, f: BddRef) -> Aig {
        let mut aig = Aig::new(self.num_vars);
        let mut memo: HashMap<BddRef, Lit> = HashMap::new();
        let out = self.build_lit(f, &mut aig, &mut memo);
        aig.add_output(out);
        aig.cleanup();
        aig
    }

    fn build_lit(&self, f: BddRef, aig: &mut Aig, memo: &mut HashMap<BddRef, Lit>) -> Lit {
        if f == BDD_FALSE {
            return Lit::FALSE;
        }
        if f == BDD_TRUE {
            return Lit::TRUE;
        }
        if let Some(&l) = memo.get(&f) {
            return l;
        }
        let Node { var, lo, hi } = self.nodes[f as usize];
        let sel = aig.input(var as usize);
        let llo = self.build_lit(lo, aig, memo);
        let lhi = self.build_lit(hi, aig, memo);
        let l = aig.mux(sel, lhi, llo);
        memo.insert(f, l);
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exhaustive_check(mgr: &BddManager, f: BddRef, nv: usize, expect: impl Fn(u64) -> bool) {
        for m in 0..(1u64 << nv) {
            let p = Pattern::from_index(m, nv);
            assert_eq!(mgr.eval(f, &p), expect(m), "mismatch at {m:b}");
        }
    }

    #[test]
    fn boolean_ops_are_correct() {
        let mut mgr = BddManager::new(3);
        let x0 = mgr.variable(0);
        let x1 = mgr.variable(1);
        let x2 = mgr.variable(2);
        let a = mgr.and(x0, x1);
        let o = mgr.or(a, x2);
        let x = mgr.xor(x0, x1);
        let n = mgr.not(o);
        exhaustive_check(&mgr, a, 3, |m| m & 0b11 == 0b11);
        exhaustive_check(&mgr, o, 3, |m| m & 0b11 == 0b11 || m & 0b100 != 0);
        exhaustive_check(&mgr, x, 3, |m| (m ^ (m >> 1)) & 1 == 1);
        exhaustive_check(&mgr, n, 3, |m| !(m & 0b11 == 0b11 || m & 0b100 != 0));
    }

    #[test]
    fn bdd_is_canonical() {
        let mut mgr = BddManager::new(2);
        let x0 = mgr.variable(0);
        let x1 = mgr.variable(1);
        // x0 AND x1 built two ways is the same node.
        let a = mgr.and(x0, x1);
        let n0 = mgr.not(x0);
        let n1 = mgr.not(x1);
        let no = mgr.or(n0, n1);
        let b = mgr.not(no);
        assert_eq!(a, b);
    }

    #[test]
    fn ite_matches_mux_semantics() {
        let mut mgr = BddManager::new(3);
        let (s, t, e) = (mgr.variable(0), mgr.variable(1), mgr.variable(2));
        let f = mgr.ite(s, t, e);
        exhaustive_check(&mgr, f, 3, |m| {
            if m & 1 == 1 {
                m & 0b10 != 0
            } else {
                m & 0b100 != 0
            }
        });
    }

    #[test]
    fn minterm_and_dataset_roundtrip() {
        let mut mgr = BddManager::new(4);
        let p = Pattern::from_index(0b1010, 4);
        let m = mgr.minterm(&p);
        exhaustive_check(&mgr, m, 4, |x| x == 0b1010);
    }

    #[test]
    fn xor_of_many_vars_shares_nodes() {
        // Parity has a linear-size BDD; this is what let Team 1's BDD learn
        // 24-XOR while trees could not.
        let mut mgr = BddManager::new(10);
        let mut f = BDD_FALSE;
        for v in 0..10 {
            let x = mgr.variable(v);
            f = mgr.xor(f, x);
        }
        assert!(mgr.size(f) <= 2 * 10);
        exhaustive_check(&mgr, f, 10, |m| m.count_ones() % 2 == 1);
    }

    #[test]
    fn one_sided_minimization_generalizes() {
        // f = x1 sampled at 4 points of a 3-var space.
        let mut ds = Dataset::new(3);
        ds.push(Pattern::from_index(0b010, 3), true);
        ds.push(Pattern::from_index(0b111, 3), true);
        ds.push(Pattern::from_index(0b000, 3), false);
        ds.push(Pattern::from_index(0b101, 3), false);
        let mut mgr = BddManager::new(3);
        let (onset, care) = mgr.from_dataset(&ds);
        let f = mgr.minimize(onset, care, MinimizeStyle::OneSided);
        exhaustive_check(&mgr, f, 3, |m| m & 0b10 != 0);
        assert_eq!(mgr.size(f), 1);
    }

    #[test]
    fn minimized_function_agrees_on_care_set() {
        // Random-ish labelled samples; all three styles must stay exact on
        // the care set.
        let mut ds = Dataset::new(6);
        for m in 0..40u64 {
            let x = (m * 37 + 11) % 64;
            ds.push(Pattern::from_index(x, 6), (x * 23 + 7) % 5 < 2);
        }
        for style in [
            MinimizeStyle::OneSided,
            MinimizeStyle::TwoSided,
            MinimizeStyle::ComplementedTwoSided,
        ] {
            let mut mgr = BddManager::new(6);
            let (onset, care) = mgr.from_dataset(&ds);
            let f = mgr.minimize(onset, care, style);
            for (p, o) in ds.iter() {
                assert_eq!(mgr.eval(f, p), o, "style {style:?} wrong on {p}");
            }
            assert!(mgr.size(f) <= mgr.size(onset));
        }
    }

    #[test]
    fn complemented_matching_learns_xor_from_samples() {
        // Samples of x0 XOR x1 over 4 vars; complemented two-sided matching
        // can collapse to the XOR structure.
        let mut ds = Dataset::new(4);
        for m in 0..16u64 {
            ds.push(Pattern::from_index(m, 4), (m ^ (m >> 1)) & 1 == 1);
        }
        let mut mgr = BddManager::new(4);
        let (onset, care) = mgr.from_dataset(&ds);
        let f = mgr.minimize(onset, care, MinimizeStyle::ComplementedTwoSided);
        exhaustive_check(&mgr, f, 4, |m| (m ^ (m >> 1)) & 1 == 1);
        assert!(mgr.size(f) <= 3);
    }

    #[test]
    fn columnar_from_dataset_matches_row_major_node_for_node() {
        // BDDs are canonical per manager: building both ways in one
        // manager must yield the *same refs*, not just equal functions.
        for (nv, stride, salt) in [(1usize, 1u64, 1u64), (4, 3, 5), (6, 7, 11), (8, 5, 23)] {
            let mut ds = Dataset::new(nv);
            for k in 0..200u64 {
                let x = (k * stride + salt) % (1 << nv);
                ds.push(Pattern::from_index(x, nv), (x * 31 + salt) % 7 < 3);
            }
            let mut mgr = BddManager::new(nv);
            let (on_rows, care_rows) = mgr.from_dataset_row_major(&ds);
            let (on_cols, care_cols) = mgr.from_dataset(&ds);
            assert_eq!(on_cols, on_rows, "onset diverges at nv={nv}");
            assert_eq!(care_cols, care_rows, "careset diverges at nv={nv}");
        }
        // Empty dataset: both constant false.
        let mut mgr = BddManager::new(3);
        assert_eq!(mgr.from_dataset(&Dataset::new(3)), (BDD_FALSE, BDD_FALSE));
    }

    #[test]
    fn to_aig_matches_bdd() {
        let mut mgr = BddManager::new(5);
        let x0 = mgr.variable(0);
        let x2 = mgr.variable(2);
        let x4 = mgr.variable(4);
        let t = mgr.xor(x0, x2);
        let f = mgr.ite(x4, t, x0);
        let aig = mgr.to_aig(f);
        for m in 0..32u64 {
            let p = Pattern::from_index(m, 5);
            let bits: Vec<bool> = p.iter().collect();
            assert_eq!(aig.eval(&bits)[0], mgr.eval(f, &p), "at {m:05b}");
        }
    }

    #[test]
    fn size_counts_distinct_nodes() {
        let mut mgr = BddManager::new(2);
        let x0 = mgr.variable(0);
        let x1 = mgr.variable(1);
        let f = mgr.and(x0, x1);
        assert_eq!(mgr.size(f), 2);
        assert_eq!(mgr.size(BDD_TRUE), 0);
    }
}
