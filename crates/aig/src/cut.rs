//! K-feasible cut enumeration with truth-table computation (k ≤ 6).
//!
//! A *cut* of node `n` is a set of nodes (the *leaves*) such that every path
//! from a primary input to `n` passes through a leaf. Cuts are the unit of
//! local resynthesis: the cone between the leaves and `n` computes a Boolean
//! function of at most `k` variables, recorded here as a 64-bit truth table,
//! and DAG-aware rewriting ([`crate::rewrite`]) replaces that cone with a
//! precomputed structure for the function's NPN class.
//!
//! Enumeration is the standard bottom-up cross product (ABC's cut sweep):
//! node indices are already topological (the graph is append-only), so one
//! ascending scan merges the fanins' cut sets. Cut sets are capped per node
//! (priority cuts) and filtered for duplicates and dominated cuts. Truth
//! tables are *normalized*: a leaf the function does not actually depend on
//! is dropped, which both shrinks the cut and exposes redundant cones
//! (`f = leaf`, `f = const`) to the rewriter.
//!
//! # Priority-cut data layout
//!
//! The hot path stores cut sets in a per-pass bump arena ([`CutArena`])
//! instead of per-node `Vec<Cut>`s. The arena is two flat buffers plus a CSR
//! index:
//!
//! * **`leaf_buf`** — every cut's sorted leaf ids, back to back; cut `c`
//!   owns `leaf_buf[starts[c] .. starts[c] + lens[c]]`;
//! * **`tts`** — one 64-bit truth word per cut, parallel to `starts`/`lens`;
//! * **`node_off`** — `node_off[n] .. node_off[n + 1]` is node `n`'s cut
//!   range in the cut arrays (ascending node order, trivial cut last).
//!
//! One [`CutArena::enumerate`] call performs exactly three buffer growths in
//! the steady state (the buffers are retained across passes via the rewrite
//! scratch free list), and dominance filtering runs in-place on a small
//! fixed-capacity candidate scratch before each node's set is committed to
//! the arena. Truth tables are always stored *vacuous-extended*: variables
//! at or above the cut's leaf count are don't-cares, so the low `2^len` bits
//! replicate through all 64. That invariant is what lets the merge step remap
//! a fanin table onto the union leaf set with a handful of bitwise
//! adjacent-variable swaps (`insert_vacuous`) instead of a per-minterm
//! rebuild.
//!
//! The pre-arena `Vec<Vec<Cut>>` enumeration is retained, behaviorally
//! identical, as [`enumerate_cuts`] / [`enumerate_cuts_k`] — the
//! differential-test oracle for the arena (see `tests/cut_npn_props.rs`).

use crate::aig::Aig;
use crate::lit::Lit;

/// Maximum number of leaves per cut.
pub const MAX_LEAVES: usize = 6;

/// Truth table of variable `i` in a 6-variable table (shared with
/// [`crate::npn`]'s canonizers).
pub(crate) const VAR_TT: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// One k-feasible cut: sorted leaf node ids plus the cone's function as a
/// 6-variable truth table (leaf `i` = variable `i`; variables at or above
/// [`Cut::len`] are don't-cares the table provably does not depend on, so
/// the low `2^len` bits replicate through the full word).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Cut {
    leaves: [u32; MAX_LEAVES],
    len: u8,
    /// The cone's function over the leaves.
    pub tt: u64,
}

impl Cut {
    /// The trivial cut `{n}` with function `f = leaf0`.
    pub fn trivial(n: u32) -> Cut {
        Cut {
            leaves: [n, 0, 0, 0, 0, 0],
            len: 1,
            tt: VAR_TT[0],
        }
    }

    /// A cut from explicit parts (used by the arena's views and tests).
    pub fn from_parts(leaves: &[u32], tt: u64) -> Cut {
        assert!(leaves.len() <= MAX_LEAVES, "too many leaves");
        let mut arr = [0u32; MAX_LEAVES];
        arr[..leaves.len()].copy_from_slice(leaves);
        Cut {
            leaves: arr,
            len: leaves.len() as u8,
            tt,
        }
    }

    /// The sorted leaf node ids.
    #[inline]
    pub fn leaves(&self) -> &[u32] {
        &self.leaves[..self.len as usize]
    }

    /// Number of leaves.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the cut has no leaves (the cone is a constant function).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether every leaf of `self` is also a leaf of `other` (two-pointer
    /// subset walk — both leaf lists are sorted).
    fn dominates(&self, other: &Cut) -> bool {
        if self.len > other.len {
            return false;
        }
        let (a, b) = (self.leaves(), other.leaves());
        let mut j = 0usize;
        for &l in a {
            while j < b.len() && b[j] < l {
                j += 1;
            }
            if j == b.len() || b[j] != l {
                return false;
            }
            j += 1;
        }
        true
    }

    /// Drops leaves the truth table does not depend on, compacting both the
    /// leaf array and the table.
    fn normalize(&mut self) {
        let mut v = 0usize;
        while v < self.len as usize {
            let hi = cofactor1(self.tt, v);
            let lo = cofactor0(self.tt, v);
            if hi == lo {
                // Remove variable v: shift higher variables down.
                self.tt = lo;
                for i in v..self.len as usize - 1 {
                    self.leaves[i] = self.leaves[i + 1];
                    self.tt = swap_down(self.tt, i);
                }
                self.len -= 1;
            } else {
                v += 1;
            }
        }
        for i in self.len as usize..MAX_LEAVES {
            self.leaves[i] = 0;
        }
    }
}

/// Negative cofactor of `tt` with respect to variable `v` (the result no
/// longer depends on `v`).
pub(crate) fn cofactor0(tt: u64, v: usize) -> u64 {
    let lo = tt & !VAR_TT[v];
    lo | (lo << (1 << v))
}

/// Positive cofactor of `tt` with respect to variable `v`.
pub(crate) fn cofactor1(tt: u64, v: usize) -> u64 {
    let hi = tt & VAR_TT[v];
    hi | (hi >> (1 << v))
}

/// Swaps adjacent variables `v` and `v + 1` in the truth table — the
/// primitive out of which every permutation is composed.
pub(crate) fn swap_down(tt: u64, v: usize) -> u64 {
    debug_assert!(v < MAX_LEAVES - 1);
    let shift = 1 << v;
    // Bits where var v = 1 and var v+1 = 0 move up; the mirror bits move
    // down.  Masks for the four (v, v+1) value combinations:
    let a = VAR_TT[v] & !VAR_TT[v + 1]; // v=1, v+1=0
    let b = !VAR_TT[v] & VAR_TT[v + 1]; // v=0, v+1=1
    (tt & !(a | b)) | ((tt & a) << shift) | ((tt & b) >> shift)
}

/// Swaps arbitrary variables `a < b` via one delta swap (a table position
/// with bit `a` set and bit `b` clear trades places with its mirror).
/// The NPN lane walk inlines this (shared masks across lanes); kept as the
/// reference primitive for the swap-chain tests.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn swap_vars(tt: u64, a: usize, b: usize) -> u64 {
    debug_assert!(a < b && b < MAX_LEAVES);
    let shift = (1usize << b) - (1usize << a);
    let up = VAR_TT[a] & !VAR_TT[b]; // a=1, b=0 moves up
    let down = !VAR_TT[a] & VAR_TT[b]; // a=0, b=1 moves down
    (tt & !(up | down)) | ((tt & up) << shift) | ((tt & down) >> shift)
}

/// Complements variable `v` (the table of `f(.., !x_v, ..)`).
pub(crate) fn flip_var(tt: u64, v: usize) -> u64 {
    let shift = 1 << v;
    ((tt & VAR_TT[v]) >> shift) | ((tt & !VAR_TT[v]) << shift)
}

/// Inserts a vacuous (don't-care) variable at position `p` of a table whose
/// active width (mapped variables so far) is `active`, shifting every
/// variable in `p..active` one position up. Requires the table to be
/// vacuous-extended above `active` (every stored cut table is): the
/// rotation brings the vacuous variable at `active` down to `p` via
/// adjacent swaps, and swaps entirely above `active` would be no-ops, so
/// they are skipped.
fn insert_vacuous(tt: u64, p: usize, active: usize) -> u64 {
    let mut t = tt;
    for v in (p..active.min(MAX_LEAVES - 1)).rev() {
        t = swap_down(t, v);
    }
    t
}

/// Re-expresses `tt` (over `from` leaves) over the `union` leaf set. `from`
/// is always a sorted subsequence of `union` (the merge step unions sorted
/// leaf lists), so the remap is a left-to-right walk inserting one vacuous
/// variable per union position missing from `from`.
fn expand(tt: u64, from: &[u32], union: &[u32]) -> u64 {
    let mut out = tt;
    let mut j = 0usize;
    let mut active = from.len();
    for (p, &u) in union.iter().enumerate() {
        if j < from.len() && from[j] == u {
            j += 1;
        } else {
            out = insert_vacuous(out, p, active);
            active += 1;
        }
    }
    debug_assert_eq!(j, from.len(), "from is not a subsequence of union");
    out
}

/// Merges two fanin cuts (leaf slices + vacuous-extended truth words) into
/// a cut of the AND node, or `None` when the leaf union exceeds `k`.
/// `c0_compl`/`c1_compl` are the fanin edge complements.
fn merge_parts(
    l0: &[u32],
    t0: u64,
    c0_compl: bool,
    l1: &[u32],
    t1: u64,
    c1_compl: bool,
    k: usize,
) -> Option<Cut> {
    let mut union = [0u32; MAX_LEAVES];
    let mut len = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < l0.len() || j < l1.len() {
        let next = match (l0.get(i), l1.get(j)) {
            (Some(&a), Some(&b)) if a == b => {
                i += 1;
                j += 1;
                a
            }
            (Some(&a), Some(&b)) if a < b => {
                i += 1;
                a
            }
            (Some(_), Some(&b)) => {
                j += 1;
                b
            }
            (Some(&a), None) => {
                i += 1;
                a
            }
            (None, Some(&b)) => {
                j += 1;
                b
            }
            (None, None) => unreachable!(),
        };
        if len == k {
            return None;
        }
        union[len] = next;
        len += 1;
    }
    let t0 = expand(t0, l0, &union[..len]) ^ if c0_compl { u64::MAX } else { 0 };
    let t1 = expand(t1, l1, &union[..len]) ^ if c1_compl { u64::MAX } else { 0 };
    let mut cut = Cut {
        leaves: union,
        len: len as u8,
        tt: t0 & t1,
    };
    cut.normalize();
    Some(cut)
}

/// [`merge_parts`] over owned [`Cut`]s (the reference enumeration).
fn merge(c0: &Cut, c0_compl: bool, c1: &Cut, c1_compl: bool, k: usize) -> Option<Cut> {
    merge_parts(
        c0.leaves(),
        c0.tt,
        c0_compl,
        c1.leaves(),
        c1.tt,
        c1_compl,
        k,
    )
}

/// Configuration for cut enumeration.
#[derive(Copy, Clone, Debug)]
pub struct CutConfig {
    /// Maximum leaves per cut (clamped to `2..=MAX_LEAVES`).
    pub k: usize,
    /// Cuts kept per node, the trivial cut included (at least 2).
    pub max_cuts: usize,
}

impl Default for CutConfig {
    fn default() -> Self {
        CutConfig { k: 4, max_cuts: 8 }
    }
}

impl CutConfig {
    fn clamped(self) -> CutConfig {
        CutConfig {
            k: self.k.clamp(2, MAX_LEAVES),
            max_cuts: self.max_cuts.max(2),
        }
    }
}

/// A borrowed view of one cut stored in a [`CutArena`].
#[derive(Copy, Clone, Debug)]
pub struct CutView<'a> {
    /// The sorted leaf node ids.
    pub leaves: &'a [u32],
    /// The cone's function over the leaves (vacuous-extended).
    pub tt: u64,
}

impl CutView<'_> {
    /// Number of leaves.
    #[inline]
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// Whether the cut has no leaves (constant cone).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// An owned [`Cut`] copy (tests and the reference comparison).
    pub fn to_cut(&self) -> Cut {
        Cut::from_parts(self.leaves, self.tt)
    }
}

/// Per-pass bump arena holding every node's cut set in flat buffers — see
/// the module docs for the exact layout. Reusable across passes: buffers are
/// cleared, not freed, by [`CutArena::enumerate`].
#[derive(Default)]
pub struct CutArena {
    /// Flat leaf storage (all cuts back to back).
    leaf_buf: Vec<u32>,
    /// Truth word per cut.
    tts: Vec<u64>,
    /// Leaf-slice start per cut (into `leaf_buf`).
    starts: Vec<u32>,
    /// Leaf count per cut.
    lens: Vec<u8>,
    /// CSR offsets: node `n` owns cuts `node_off[n] .. node_off[n + 1]`.
    node_off: Vec<u32>,
    /// In-place dominance-filter scratch for the node under construction.
    cand: Vec<Cut>,
    /// Fanin snapshot of the last enumerated graph: `(f0.raw, f1.raw)` per
    /// AND node, `(u32::MAX, u32::MAX)` for the constant and the inputs.
    /// Drives the common-prefix check of the incremental path.
    prev_fanins: Vec<(u32, u32)>,
    /// Input count of the last enumerated graph.
    prev_num_inputs: usize,
    /// Clamped `(k, max_cuts)` of the last enumeration.
    prev_cfg: (usize, usize),
    /// Generation stamp per node: which [`CutArena::enumerate`] call last
    /// (re)computed the node's cut set. Reused prefix nodes keep their old
    /// stamp.
    node_gen: Vec<u32>,
    /// Monotone enumeration counter (the current generation).
    generation: u32,
    /// Nodes (constant and inputs included) whose cut sets survived from
    /// the previous call in the latest enumeration.
    reused_prefix: usize,
}

impl CutArena {
    /// An empty arena.
    pub fn new() -> CutArena {
        CutArena::default()
    }

    /// Enumerates up to `cfg.max_cuts` cuts per node (the trivial cut
    /// included) for every node of the graph. Constants and primary inputs
    /// carry only their trivial cut. Buffers are reused.
    ///
    /// Enumeration is **incremental across calls**: a node's cut set
    /// depends only on its own fanins, the cut sets of lower-indexed nodes
    /// and the (clamped) configuration, so when the new graph shares a node
    /// prefix with the previously enumerated one — the common case when a
    /// candidate is a delta over the last compiled cone, or across rewrite
    /// iterations that only touch the top of the graph — the shared
    /// prefix's cut sets are kept verbatim (validated fanin pair by fanin
    /// pair against a stored snapshot) and enumeration restarts at the
    /// first divergence. Results are always identical to a from-scratch
    /// enumeration; reused nodes keep their [`CutArena::node_generation`]
    /// stamp.
    pub fn enumerate(&mut self, aig: &Aig, cfg: &CutConfig) {
        let cfg = cfg.clamped();
        let n_nodes = aig.num_nodes();
        self.generation = self.generation.wrapping_add(1);

        // Longest common node prefix with the previous enumeration.
        let mut start = 0usize;
        if self.prev_num_inputs == aig.num_inputs() && self.prev_cfg == (cfg.k, cfg.max_cuts) {
            let lim = self.prev_fanins.len().min(n_nodes);
            while start < lim && self.prev_fanins[start] == fanin_snapshot(aig, start as u32) {
                start += 1;
            }
        }
        self.reused_prefix = start;
        if start == 0 {
            self.leaf_buf.clear();
            self.tts.clear();
            self.starts.clear();
            self.lens.clear();
            self.node_off.clear();
            self.node_gen.clear();
            self.node_off.reserve(n_nodes + 1);
            self.node_off.push(0);
        } else {
            // Truncate the CSR buffers to the reused prefix.
            let keep_cuts = self.node_off[start] as usize;
            let keep_leaves = if keep_cuts == self.starts.len() {
                self.leaf_buf.len()
            } else {
                self.starts[keep_cuts] as usize
            };
            self.leaf_buf.truncate(keep_leaves);
            self.tts.truncate(keep_cuts);
            self.starts.truncate(keep_cuts);
            self.lens.truncate(keep_cuts);
            self.node_off.truncate(start + 1);
            self.node_gen.truncate(start);
        }
        self.prev_fanins.truncate(start);
        self.prev_fanins
            .extend((start..n_nodes).map(|n| fanin_snapshot(aig, n as u32)));
        self.prev_num_inputs = aig.num_inputs();
        self.prev_cfg = (cfg.k, cfg.max_cuts);
        self.node_gen.resize(n_nodes, self.generation);

        let mut cand = std::mem::take(&mut self.cand);
        for n in start as u32..n_nodes as u32 {
            if aig.is_and(n) {
                let (f0, f1) = aig.fanins(n);
                self.merge_fanin_cuts(f0, f1, &cfg, &mut cand);
            } else {
                cand.clear();
            }
            cand.push(Cut::trivial(n));
            for c in &cand {
                self.push_cut(c);
            }
            self.node_off.push(self.tts.len() as u32);
        }
        self.cand = cand;
    }

    /// Fills `cand` (cleared first) with the dominance-filtered pairwise
    /// merges of the committed cut sets of an AND node's fanins `f0` and
    /// `f1`, capped at `cfg.max_cuts - 1` (the caller appends the trivial
    /// cut).
    fn merge_fanin_cuts(&self, f0: Lit, f1: Lit, cfg: &CutConfig, cand: &mut Vec<Cut>) {
        cand.clear();
        'merge: for v0 in self.cuts(f0.node()) {
            for v1 in self.cuts(f1.node()) {
                let Some(cut) = merge_parts(
                    v0.leaves,
                    v0.tt,
                    f0.is_complemented(),
                    v1.leaves,
                    v1.tt,
                    f1.is_complemented(),
                    cfg.k,
                ) else {
                    continue;
                };
                // Drop duplicates and dominated cuts; a new cut that is
                // dominated by an existing one is itself dropped.
                if cand.iter().any(|c| c.dominates(&cut)) {
                    continue;
                }
                cand.retain(|c| !cut.dominates(c));
                cand.push(cut);
                if cand.len() >= cfg.max_cuts - 1 {
                    break 'merge;
                }
            }
        }
    }

    /// The cut index range of node `n`.
    #[inline]
    fn range(&self, n: u32) -> std::ops::Range<usize> {
        self.node_off[n as usize] as usize..self.node_off[n as usize + 1] as usize
    }

    #[inline]
    fn view(&self, c: usize) -> CutView<'_> {
        let s = self.starts[c] as usize;
        CutView {
            leaves: &self.leaf_buf[s..s + self.lens[c] as usize],
            tt: self.tts[c],
        }
    }

    fn push_cut(&mut self, cut: &Cut) {
        self.starts.push(self.leaf_buf.len() as u32);
        self.lens.push(cut.len);
        self.leaf_buf.extend_from_slice(cut.leaves());
        self.tts.push(cut.tt);
    }

    /// Iterates the cuts of node `n` in enumeration order (trivial cut
    /// last).
    pub fn cuts(&self, n: u32) -> impl Iterator<Item = CutView<'_>> + '_ {
        self.range(n).map(move |c| self.view(c))
    }

    /// Total number of cuts stored.
    pub fn num_cuts(&self) -> usize {
        self.tts.len()
    }

    /// Number of nodes enumerated.
    pub fn num_nodes(&self) -> usize {
        self.node_off.len().saturating_sub(1)
    }

    /// The enumeration generation that last computed node `n`'s cut set
    /// (nodes reused across calls keep the stamp of the call that actually
    /// built them).
    #[inline]
    pub fn node_generation(&self, n: u32) -> u32 {
        self.node_gen[n as usize]
    }

    /// The current enumeration generation (increments per
    /// [`CutArena::enumerate`] call).
    #[inline]
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// How many leading nodes of the latest [`CutArena::enumerate`] call
    /// reused the previous call's cut sets (constant and inputs included).
    #[inline]
    pub fn reused_prefix(&self) -> usize {
        self.reused_prefix
    }

    /// Debug-mode verifier for the arena's CSR layout (see the module docs
    /// for the layout itself). Returns the first violation as a message.
    ///
    /// Checked invariants:
    ///
    /// * the cut arrays (`starts`/`lens`/`tts`) are parallel and the leaf
    ///   slices tile `leaf_buf` exactly (contiguous, in order, no gaps);
    /// * `node_off` is a well-formed CSR index: starts at 0, nondecreasing,
    ///   ends at the cut count, one nonempty range per node;
    /// * every node's last cut is its trivial cut `{n}` with table `x₀`;
    /// * every cut respects the clamped `k` of the last enumeration, has
    ///   strictly sorted in-range leaves, and its truth table is
    ///   vacuous-extended (no dependence on variables at or above the leaf
    ///   count);
    /// * the per-node generation stamps cover exactly the enumerated nodes.
    ///
    /// Runs in `O(cuts × k)`. The rewrite pass calls this after enumeration
    /// in debug builds and when `LSML_CHECK=1`.
    pub fn check_csr(&self) -> Result<(), String> {
        let n_cuts = self.tts.len();
        if self.starts.len() != n_cuts || self.lens.len() != n_cuts {
            return Err(format!(
                "cut arrays disagree: {} starts, {} lens, {n_cuts} tts",
                self.starts.len(),
                self.lens.len()
            ));
        }
        if self.node_off.is_empty() {
            return if n_cuts == 0 && self.leaf_buf.is_empty() && self.node_gen.is_empty() {
                Ok(())
            } else {
                Err("empty CSR index over non-empty cut arrays".to_string())
            };
        }
        let n_nodes = self.node_off.len() - 1;
        if self.node_off[0] != 0 {
            return Err(format!("node_off[0] = {}, want 0", self.node_off[0]));
        }
        if *self.node_off.last().unwrap() as usize != n_cuts {
            return Err(format!(
                "node_off ends at {} but {n_cuts} cuts are stored",
                self.node_off.last().unwrap()
            ));
        }
        if self.node_gen.len() != n_nodes {
            return Err(format!(
                "{} generation stamps for {n_nodes} nodes",
                self.node_gen.len()
            ));
        }
        // Leaf slices must tile `leaf_buf` back to back.
        let mut expect_start = 0usize;
        for c in 0..n_cuts {
            if self.starts[c] as usize != expect_start {
                return Err(format!(
                    "cut {c} starts at {} but the previous cut ends at {expect_start}",
                    self.starts[c]
                ));
            }
            expect_start += self.lens[c] as usize;
        }
        if expect_start != self.leaf_buf.len() {
            return Err(format!(
                "cuts cover {expect_start} leaf slots of {}",
                self.leaf_buf.len()
            ));
        }
        let k = if self.prev_cfg.0 == 0 {
            MAX_LEAVES
        } else {
            self.prev_cfg.0
        };
        for n in 0..n_nodes {
            let range = self.range(n as u32);
            if range.is_empty() {
                return Err(format!("node {n} has no cuts (not even trivial)"));
            }
            if range.end < range.start || range.end > n_cuts {
                return Err(format!(
                    "node {n} cut range {}..{} is malformed",
                    range.start, range.end
                ));
            }
            let last = self.view(range.end - 1);
            if last.leaves != [n as u32] || last.tt != VAR_TT[0] {
                return Err(format!(
                    "node {n}'s last cut is {:?}/{:#x}, want the trivial cut",
                    last.leaves, last.tt
                ));
            }
            for c in range {
                let v = self.view(c);
                if v.len() > k {
                    return Err(format!(
                        "cut {c} of node {n} has {} leaves, clamped k is {k}",
                        v.len()
                    ));
                }
                if !v.leaves.windows(2).all(|w| w[0] < w[1]) {
                    return Err(format!(
                        "cut {c} of node {n} leaves not strictly sorted: {:?}",
                        v.leaves
                    ));
                }
                if let Some(&l) = v.leaves.iter().find(|&&l| l as usize >= n_nodes) {
                    return Err(format!(
                        "cut {c} of node {n} has out-of-range leaf {l} (of {n_nodes} nodes)"
                    ));
                }
                for var in v.len()..MAX_LEAVES {
                    if cofactor0(v.tt, var) != v.tt {
                        return Err(format!(
                            "cut {c} of node {n} ({} leaves) depends on variable {var}: \
                             table {:#x} is not vacuous-extended",
                            v.len(),
                            v.tt
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// The per-node fanin snapshot used by the incremental prefix check: raw
/// fanin literals for an AND, a sentinel for the constant and the inputs.
#[inline]
fn fanin_snapshot(aig: &Aig, n: u32) -> (u32, u32) {
    if aig.is_and(n) {
        let (f0, f1) = aig.fanins(n);
        (f0.raw(), f1.raw())
    } else {
        (u32::MAX, u32::MAX)
    }
}

/// Reference enumeration returning per-node `Vec<Cut>`s — behaviorally
/// identical to [`CutArena::enumerate`] (same merge order, dominance
/// filtering and caps) but allocation-heavy. Kept as the differential-test
/// oracle; hot paths use the arena.
#[doc(hidden)]
pub fn enumerate_cuts_k(aig: &Aig, k: usize, max_cuts: usize) -> Vec<Vec<Cut>> {
    let cfg = CutConfig { k, max_cuts }.clamped();
    let mut cuts: Vec<Vec<Cut>> = Vec::with_capacity(aig.num_nodes());
    for n in 0..aig.num_nodes() as u32 {
        if !aig.is_and(n) {
            cuts.push(vec![Cut::trivial(n)]);
            continue;
        }
        let (f0, f1) = aig.fanins(n);
        let mut set: Vec<Cut> = Vec::with_capacity(cfg.max_cuts);
        'merge: for c0 in &cuts[f0.node() as usize] {
            for c1 in &cuts[f1.node() as usize] {
                let Some(cut) = merge(c0, f0.is_complemented(), c1, f1.is_complemented(), cfg.k)
                else {
                    continue;
                };
                if set.iter().any(|c| c.dominates(&cut)) {
                    continue;
                }
                set.retain(|c| !cut.dominates(c));
                set.push(cut);
                if set.len() >= cfg.max_cuts - 1 {
                    break 'merge;
                }
            }
        }
        set.push(Cut::trivial(n));
        cuts.push(set);
    }
    cuts
}

/// [`enumerate_cuts_k`] at the full `k = MAX_LEAVES`.
pub fn enumerate_cuts(aig: &Aig, max_cuts: usize) -> Vec<Vec<Cut>> {
    enumerate_cuts_k(aig, MAX_LEAVES, max_cuts)
}

/// Evaluates a cut's truth table on one assignment of its leaves (used by
/// tests and debug assertions).
pub fn eval_cut(cut: &Cut, leaf_values: &[bool]) -> bool {
    assert_eq!(leaf_values.len(), cut.len());
    let mut idx = 0u32;
    for (i, &v) in leaf_values.iter().enumerate() {
        idx |= u32::from(v) << i;
    }
    (cut.tt >> idx) & 1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustively checks every cut of every node against scalar evaluation.
    fn check_all_cuts(g: &Aig) {
        let ni = g.num_inputs();
        let cuts = enumerate_cuts(g, 8);
        for m in 0..(1u64 << ni) {
            let bits: Vec<bool> = (0..ni).map(|i| (m >> i) & 1 == 1).collect();
            // Node values via the public eval path: re-derive by walking.
            let mut values = vec![false; g.num_nodes()];
            for (i, &b) in bits.iter().enumerate() {
                values[i + 1] = b;
            }
            for n in (ni + 1)..g.num_nodes() {
                let (f0, f1) = g.fanins(n as u32);
                let v0 = values[f0.node() as usize] ^ f0.is_complemented();
                let v1 = values[f1.node() as usize] ^ f1.is_complemented();
                values[n] = v0 && v1;
            }
            for n in 0..g.num_nodes() {
                for cut in &cuts[n] {
                    let leaf_values: Vec<bool> =
                        cut.leaves().iter().map(|&l| values[l as usize]).collect();
                    assert_eq!(
                        eval_cut(cut, &leaf_values),
                        values[n],
                        "cut {cut:?} of node {n} wrong on input {m:b}"
                    );
                }
            }
        }
    }

    /// The arena must reproduce the reference sets cut for cut.
    fn check_arena_matches_reference(g: &Aig, k: usize, max_cuts: usize) {
        let reference = enumerate_cuts_k(g, k, max_cuts);
        let mut arena = CutArena::new();
        arena.enumerate(g, &CutConfig { k, max_cuts });
        assert_eq!(arena.num_nodes(), g.num_nodes());
        for n in 0..g.num_nodes() as u32 {
            let got: Vec<Cut> = arena.cuts(n).map(|v| v.to_cut()).collect();
            assert_eq!(got, reference[n as usize], "node {n} (k={k})");
        }
    }

    /// Re-enumerating a mutated graph on a warm arena must match a cold
    /// arena cut for cut, while actually reusing the untouched prefix.
    #[test]
    fn incremental_reenumeration_matches_cold_arena() {
        let mut g = Aig::new(5);
        let ins = g.inputs();
        let x = g.xor(ins[0], ins[1]);
        let y = g.mux(ins[2], x, ins[3]);
        g.add_output(y);

        let cfg = CutConfig { k: 4, max_cuts: 8 };
        let mut warm = CutArena::new();
        warm.enumerate(&g, &cfg);
        let gen1 = warm.generation();
        let prefix_nodes = g.num_nodes();

        // Delta: extend the graph (prefix untouched).
        let z = g.and(y, ins[4]);
        let w = g.xor(z, !x);
        g.add_output(w);
        warm.enumerate(&g, &cfg);
        assert_eq!(warm.reused_prefix(), prefix_nodes);
        assert!(warm.node_generation(y.node()) == gen1);
        assert!(warm.node_generation(w.node()) == warm.generation());
        let mut cold = CutArena::new();
        cold.enumerate(&g, &cfg);
        assert_arenas_equal(&warm, &cold, g.num_nodes());

        // A changed config invalidates everything.
        let k6 = CutConfig { k: 6, max_cuts: 8 };
        warm.enumerate(&g, &k6);
        assert_eq!(warm.reused_prefix(), 0);
        let mut cold6 = CutArena::new();
        cold6.enumerate(&g, &k6);
        assert_arenas_equal(&warm, &cold6, g.num_nodes());

        // Shrinking to an unrelated graph still matches cold enumeration.
        let mut h = Aig::new(5);
        let hins = h.inputs();
        let ho = h.or(hins[1], hins[3]);
        h.add_output(ho);
        warm.enumerate(&h, &cfg);
        let mut coldh = CutArena::new();
        coldh.enumerate(&h, &cfg);
        assert_arenas_equal(&warm, &coldh, h.num_nodes());
    }

    fn assert_arenas_equal(a: &CutArena, b: &CutArena, n_nodes: usize) {
        assert_eq!(a.num_nodes(), n_nodes);
        assert_eq!(b.num_nodes(), n_nodes);
        for n in 0..n_nodes as u32 {
            let ca: Vec<Cut> = a.cuts(n).map(|v| v.to_cut()).collect();
            let cb: Vec<Cut> = b.cuts(n).map(|v| v.to_cut()).collect();
            assert_eq!(ca, cb, "node {n}");
        }
    }

    #[test]
    fn cut_truth_tables_match_simulation() {
        let mut g = Aig::new(4);
        let ins = g.inputs();
        let x = g.xor(ins[0], ins[1]);
        let y = g.mux(ins[2], x, ins[3]);
        let z = g.and(y, !x);
        g.add_output(z);
        check_all_cuts(&g);
        for k in [2, 4, 6] {
            check_arena_matches_reference(&g, k, 8);
        }
    }

    #[test]
    fn parity_cuts() {
        let mut g = Aig::new(4);
        let ins = g.inputs();
        let p = g.xor_many(&ins);
        g.add_output(p);
        check_all_cuts(&g);
        // The root *node* must own a 4-leaf cut computing parity (possibly
        // complemented, when the output literal is a complemented edge).
        let cuts = enumerate_cuts(&g, 8);
        let root = p.node() as usize;
        let parity_cut = cuts[root]
            .iter()
            .find(|c| c.leaves() == [1, 2, 3, 4])
            .expect("4-input cut");
        // 4-var parity vacuous-extended through the 64-bit table.
        let expect = 0x6996_6996_6996_6996u64 ^ if p.is_complemented() { u64::MAX } else { 0 };
        assert_eq!(parity_cut.tt, expect);
    }

    #[test]
    fn six_input_parity_has_full_cut() {
        let mut g = Aig::new(6);
        let ins = g.inputs();
        let p = g.xor_many(&ins);
        g.add_output(p);
        let cuts = enumerate_cuts(&g, 12);
        let root = p.node() as usize;
        let full = cuts[root]
            .iter()
            .find(|c| c.leaves() == [1, 2, 3, 4, 5, 6])
            .expect("6-input cut");
        // 6-var parity: popcount of the index, odd → 1.
        let mut expect = 0u64;
        for m in 0..64u64 {
            if m.count_ones() % 2 == 1 {
                expect |= 1 << m;
            }
        }
        assert_eq!(
            full.tt ^ if p.is_complemented() { u64::MAX } else { 0 },
            expect
        );
    }

    #[test]
    fn redundant_leaves_are_dropped() {
        // f = (a AND b) OR (a AND !b) = a: the 2-leaf cut normalizes to {a}.
        let mut g = Aig::new(2);
        let (a, b) = (g.input(0), g.input(1));
        let t0 = g.and(a, b);
        // Build the redundant form around strash: two distinct AND nodes.
        let t1 = g.and(a, !b);
        let f = g.or(t0, t1);
        g.add_output(f);
        let cuts = enumerate_cuts(&g, 8);
        let root_cuts = &cuts[f.node() as usize];
        assert!(
            root_cuts.iter().any(|c| c.leaves() == [a.node()]),
            "expected a 1-leaf cut {{a}}, got {root_cuts:?}"
        );
        check_all_cuts(&g);
    }

    #[test]
    fn leaves_stay_sorted_and_capped() {
        let mut g = Aig::new(8);
        let ins = g.inputs();
        let f = g.and_many(&ins);
        g.add_output(f);
        for set in enumerate_cuts(&g, 6) {
            assert!(set.len() <= 6);
            for cut in &set {
                assert!(cut.len() <= MAX_LEAVES);
                assert!(cut.leaves().windows(2).all(|w| w[0] < w[1]));
            }
        }
        check_arena_matches_reference(&g, 6, 6);
        check_arena_matches_reference(&g, 4, 8);
    }

    #[test]
    fn cofactor_and_swap_primitives() {
        // tt = x0 XOR x2 as a 6-var table.
        let tt = VAR_TT[0] ^ VAR_TT[2];
        assert_eq!(cofactor0(tt, 0), VAR_TT[2]);
        assert_eq!(cofactor1(tt, 0), !VAR_TT[2]);
        // Swapping vars 0 and 1 turns x0^x2 into x1^x2.
        assert_eq!(swap_down(tt, 0), VAR_TT[1] ^ VAR_TT[2]);
        // Swap is an involution.
        for v in 0..MAX_LEAVES - 1 {
            assert_eq!(
                swap_down(swap_down(0x1234_5678_9ABC_DEF0, v), v),
                0x1234_5678_9ABC_DEF0
            );
        }
        // General delta swap agrees with a chain of adjacent swaps.
        for (a, b) in [(0usize, 2usize), (1, 4), (0, 5), (2, 5)] {
            let t = 0xDEAD_BEEF_0123_4567u64;
            let mut chained = t;
            for v in a..b {
                chained = swap_down(chained, v);
            }
            for v in (a..b - 1).rev() {
                chained = swap_down(chained, v);
            }
            assert_eq!(swap_vars(t, a, b), chained, "swap {a}<->{b}");
        }
        // flip_var is an involution and moves VAR_TT to its complement.
        for (v, &var_tt) in VAR_TT.iter().enumerate() {
            assert_eq!(flip_var(var_tt, v), !var_tt);
            assert_eq!(
                flip_var(flip_var(0x0F1E_2D3C_4B5A_6978, v), v),
                0x0F1E_2D3C_4B5A_6978
            );
        }
    }

    #[test]
    fn insert_vacuous_shifts_variables_up() {
        // tt = x0 & x1 (vacuous-extended); inserting at 0 gives x1 & x2,
        // inserting at 1 gives x0 & x2.
        let tt = VAR_TT[0] & VAR_TT[1];
        assert_eq!(insert_vacuous(tt, 0, 2), VAR_TT[1] & VAR_TT[2]);
        assert_eq!(insert_vacuous(tt, 1, 2), VAR_TT[0] & VAR_TT[2]);
        assert_eq!(insert_vacuous(tt, 2, 2), tt);
        // Skipping swaps above the active width must not change behavior.
        assert_eq!(insert_vacuous(tt, 0, MAX_LEAVES), VAR_TT[1] & VAR_TT[2]);
        // expand maps a 2-leaf table onto a 4-leaf union.
        let out = expand(tt, &[3, 7], &[1, 3, 5, 7]);
        assert_eq!(out, VAR_TT[1] & VAR_TT[3]);
    }
}
