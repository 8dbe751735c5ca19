//! NPN canonization (exact at 4 inputs, semi-canonical at 5–6) and the
//! optimal-structure library.
//!
//! Two functions are NPN-equivalent when one becomes the other under some
//! input **N**egation, input **P**ermutation, and output **N**egation. The
//! 65 536 four-input functions collapse into 222 NPN classes, so a rewriting
//! engine only needs one good AIG structure per *class*: a cut whose
//! function canonizes into a known class is replaced by the class structure
//! with the inverse transform applied at its boundary (ABC's `rewrite -K 4`
//! keeps exactly such a library).
//!
//! # Canonization and the fallback contract
//!
//! Exact canonization is brute force over every transform — 768 for four
//! variables, 92 160 for six. That is affordable once per *class* but not
//! once per *cut*, so the hot path ([`NpnLibrary::entry6`], used by
//! [`crate::rewrite`]) never brute-forces:
//!
//! * **support ≤ 4** — the semi-canonical form *is* the exact canonical
//!   form: the 16-bit projection goes through the memoized 768-transform
//!   canonizer (one map probe after the first encounter of a table) and the
//!   222 shared 4-input class structures are reused directly;
//! * **support 5–6** — [`semi_canonize`] computes a greedy, ABC-style
//!   phase/permutation normal form in a few dozen bitwise word operations:
//!   output phase by onset count, input phases by cofactor-count skew,
//!   variable order by bubble passes that also accept value-decreasing
//!   ties. The greedy key is *semi*-canonical: NPN-equivalent tables
//!   usually, but not always, share it.
//! * **library misses only** — when a semi-canonical key has no structure
//!   yet, the library falls back to the memoized exact canonizer
//!   ([`canonize6`], Heap's-algorithm walk with one delta-swap per step) to
//!   identify the true class, so keys of the same class share one
//!   synthesized structure; the per-key transform is composed and cached,
//!   and every later lookup of that key is a single map probe.
//!
//! The structure library is keyed by the semi-canonical form; exact
//! canonization results and class structures are memoized process-wide
//! behind [`NpnLibrary::global`], in never-evicting
//! [`crate::lru::ShardedLru`] maps (model-checked in `tests/loom_lru.rs`).

use loom::sync::{Arc, OnceLock};

use crate::aig::Aig;
use crate::cut::{cofactor0, cofactor1, flip_var, swap_down, MAX_LEAVES, VAR_TT};
use crate::lit::Lit;
use crate::lru::{ShardKey, ShardedLru};

/// Broadcasts a 4-variable table through the 64-bit vacuous-extended layout.
pub fn broadcast16(tt: u16) -> u64 {
    u64::from(tt) * 0x0001_0001_0001_0001
}

/// Number of variables a vacuous-extended table actually depends on — the
/// highest depended-on variable index plus one.
pub fn support_size(tt: u64) -> usize {
    (0..MAX_LEAVES)
        .rev()
        .find(|&v| cofactor0(tt, v) != cofactor1(tt, v))
        .map_or(0, |v| v + 1)
}

/// All 24 permutations of four elements, generated in lexicographic order.
fn permutations() -> &'static [[u8; 4]; 24] {
    static PERMS: OnceLock<[[u8; 4]; 24]> = OnceLock::new();
    PERMS.get_or_init(|| {
        let mut out = [[0u8; 4]; 24];
        let mut k = 0;
        for a in 0..4u8 {
            for b in 0..4u8 {
                for c in 0..4u8 {
                    for d in 0..4u8 {
                        if a != b && a != c && a != d && b != c && b != d && c != d {
                            out[k] = [a, b, c, d];
                            k += 1;
                        }
                    }
                }
            }
        }
        out
    })
}

/// One 4-variable NPN transform: `apply(tt, t)` computes `g` with
/// `g(y0..y3) = tt(x0..x3) ^ output_neg` where
/// `x_i = y[perm[i]] ^ input_neg[i]`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct NpnTransform {
    /// `perm[i]` is the canonical variable feeding original variable `i`.
    pub perm: [u8; 4],
    /// Bit `i` complements original variable `i` on the way in.
    pub input_neg: u8,
    /// Whether the output is complemented.
    pub output_neg: bool,
}

impl NpnTransform {
    /// The identity transform.
    pub const IDENTITY: NpnTransform = NpnTransform {
        perm: [0, 1, 2, 3],
        input_neg: 0,
        output_neg: false,
    };
}

/// A canonized 4-variable function: the class representative and the
/// transform that maps the original table onto it
/// (`canon == apply(tt, transform)`).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct NpnClass {
    /// The class-representative truth table (minimum over all transforms).
    pub canon: u16,
    /// The transform achieving it.
    pub transform: NpnTransform,
}

/// Applies a 4-variable NPN transform to a truth table (see
/// [`NpnTransform`]).
pub fn apply(tt: u16, t: &NpnTransform) -> u16 {
    let mut g = 0u16;
    for m in 0..16u16 {
        let mut idx = 0u16;
        for i in 0..4 {
            let y = (m >> t.perm[i]) & 1;
            let x = y ^ ((u16::from(t.input_neg) >> i) & 1);
            idx |= x << i;
        }
        let bit = ((tt >> idx) & 1) ^ u16::from(t.output_neg);
        g |= bit << m;
    }
    g
}

/// Exact 4-variable NPN canonization: the minimum table over all 768
/// transforms. Hot paths should go through the memoized
/// [`NpnLibrary::entry6`] instead of calling this per cut.
pub fn canonize(tt: u16) -> NpnClass {
    let mut best = NpnClass {
        canon: u16::MAX,
        transform: NpnTransform::IDENTITY,
    };
    for perm in permutations() {
        for input_neg in 0..16u8 {
            for output_neg in [false, true] {
                let t = NpnTransform {
                    perm: *perm,
                    input_neg,
                    output_neg,
                };
                let cand = apply(tt, &t);
                if cand < best.canon {
                    best = NpnClass {
                        canon: cand,
                        transform: t,
                    };
                }
            }
        }
    }
    best
}

// ---------------------------------------------------------------------------
// Six-variable transforms.
// ---------------------------------------------------------------------------

/// One 6-variable NPN transform with the same semantics as
/// [`NpnTransform`]: `apply6(tt, t)` computes `g` with
/// `g(y0..y5) = tt(x0..x5) ^ output_neg`, `x_i = y[perm[i]] ^ input_neg[i]`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct NpnTransform6 {
    /// `perm[i]` is the canonical variable feeding original variable `i`.
    pub perm: [u8; 6],
    /// Bit `i` complements original variable `i` on the way in.
    pub input_neg: u8,
    /// Whether the output is complemented.
    pub output_neg: bool,
}

impl NpnTransform6 {
    /// The identity transform.
    pub const IDENTITY: NpnTransform6 = NpnTransform6 {
        perm: [0, 1, 2, 3, 4, 5],
        input_neg: 0,
        output_neg: false,
    };

    /// Lifts a 4-variable transform (vars 4 and 5 untouched).
    pub fn from4(t: &NpnTransform) -> NpnTransform6 {
        NpnTransform6 {
            perm: [t.perm[0], t.perm[1], t.perm[2], t.perm[3], 4, 5],
            input_neg: t.input_neg,
            output_neg: t.output_neg,
        }
    }

    /// The composition `t2 ∘ self`: if `apply6(tt, self) == mid` and
    /// `apply6(mid, t2) == out`, then `apply6(tt, result) == out`.
    pub fn then(&self, t2: &NpnTransform6) -> NpnTransform6 {
        let mut perm = [0u8; 6];
        let mut neg = 0u8;
        for (i, p) in perm.iter_mut().enumerate() {
            let mid = self.perm[i] as usize;
            *p = t2.perm[mid];
            let bit = ((self.input_neg >> i) & 1) ^ ((t2.input_neg >> mid) & 1);
            neg |= bit << i;
        }
        NpnTransform6 {
            perm,
            input_neg: neg,
            output_neg: self.output_neg ^ t2.output_neg,
        }
    }
}

/// Applies a 6-variable NPN transform (reference implementation, one minterm
/// at a time — used by tests and the exact canonizer's verification, never
/// on the per-cut hot path).
pub fn apply6(tt: u64, t: &NpnTransform6) -> u64 {
    let mut g = 0u64;
    for m in 0..64u64 {
        let mut idx = 0u64;
        for i in 0..6 {
            let y = (m >> t.perm[i]) & 1;
            let x = y ^ ((u64::from(t.input_neg) >> i) & 1);
            idx |= x << i;
        }
        let bit = ((tt >> idx) & 1) ^ u64::from(t.output_neg);
        g |= bit << m;
    }
    g
}

/// A semi-canonized function: the key the structure library is indexed by
/// and the transform mapping the original table onto it
/// (`key == apply6(tt, transform)`).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct SemiNpn {
    /// The library key (exact canonical at support ≤ 4, greedy at 5–6).
    pub key: u64,
    /// The transform achieving it.
    pub transform: NpnTransform6,
}

/// Semi-canonical NPN form. For tables with support ≤ 4 this **is** the
/// exact canonical form (the 16-bit projection goes through [`canonize`],
/// so every function of an NPN class maps to the same key — the property
/// the rewrite engine's library relies on). For support 5–6 it is the
/// greedy ABC-style normal form described in the module docs: cheap,
/// deterministic, class-collapsing in the common case but not guaranteed
/// canonical — the library deduplicates the remainder via [`canonize6`] on
/// misses.
pub fn semi_canonize(tt: u64) -> SemiNpn {
    if support_size(tt) <= 4 {
        let class = canonize(tt as u16);
        return SemiNpn {
            key: broadcast16(class.canon),
            transform: NpnTransform6::from4(&class.transform),
        };
    }
    semi_canonize_wide(tt)
}

/// The greedy normalization for 5–6-variable support (see
/// [`semi_canonize`]).
fn semi_canonize_wide(tt: u64) -> SemiNpn {
    let mut t = tt;
    let mut tr = NpnTransform6::IDENTITY;

    // Output phase: at most half the minterms on; break the tie towards the
    // smaller table value.
    let ones = t.count_ones();
    if ones > 32 || (ones == 32 && !t < t) {
        t = !t;
        tr.output_neg = true;
    }

    // Input phases: concentrate the onset into the negative cofactor of
    // every variable (flip when the positive cofactor holds more ones).
    for (p, &var_tt) in VAR_TT.iter().enumerate() {
        let c1 = (t & var_tt).count_ones();
        let c0 = (t & !var_tt).count_ones();
        if c1 > c0 {
            t = flip_var(t, p);
            // Record the flip against the original variable feeding
            // position p.
            for i in 0..6 {
                if tr.perm[i] as usize == p {
                    tr.input_neg ^= 1 << i;
                }
            }
        }
    }

    // Permutation: bubble passes ordering positions by ascending positive-
    // cofactor count, accepting equal-count swaps that strictly decrease
    // the table value. Each accepted swap strictly decreases the
    // (count-sequence, table) pair lexicographically, so the loop
    // terminates; the bound is a safety net.
    for _ in 0..64 {
        let mut changed = false;
        for p in 0..5 {
            let a = (t & VAR_TT[p]).count_ones();
            let b = (t & VAR_TT[p + 1]).count_ones();
            let swapped = swap_down(t, p);
            if b < a || (a == b && swapped < t) {
                t = swapped;
                for i in 0..6 {
                    if tr.perm[i] as usize == p {
                        tr.perm[i] = (p + 1) as u8;
                    } else if tr.perm[i] as usize == p + 1 {
                        tr.perm[i] = p as u8;
                    }
                }
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    SemiNpn {
        key: t,
        transform: tr,
    }
}

/// Exact 6-variable NPN canonization: the minimum table over all 92 160
/// transforms. Used only on structure-library misses, memoized by
/// [`NpnLibrary`].
///
/// The search walks Heap's algorithm over the 720 variable orders **once**,
/// advancing all 64 input-negation *lanes* in lockstep: consecutive
/// permutations differ by one transposition, so each step is a single
/// delta-swap (identical masks and shift for every lane) plus a branch-free
/// `min(t, !t) <= best` filter per lane — a loop the compiler vectorizes.
/// A full candidate scan runs only when some lane passes the filter.
///
/// Candidates are totally ordered by `(table, lane, permutation, phase)`
/// and the winner is the global minimum of that key — exactly the
/// first-minimum the classic (negation-outer, permutation-inner,
/// phase-innermost) serial scan keeps. Because the key is a strict total
/// order, *any* partition of lanes into chunks merges to the same winner,
/// which is what makes the multi-worker split bit-identical to the serial
/// walk (`LSML_PAR_PASSES`; see [`crate::par`]). Lanes whose starting table
/// duplicates an earlier lane's (a vacuous or negation-symmetric variable)
/// only ever produce higher-ranked copies of the earlier lane's candidates,
/// so they are dropped up front.
pub fn canonize6(tt: u64) -> (u64, NpnTransform6) {
    // The negation lanes in Gray-code step order, deduplicated by starting
    // table (the dedup scan is quadratic in the worst case, but 64*64
    // word compares are noise next to the 720-permutation walk).
    let mut ids = [0u8; 64];
    let mut negs = [0u8; 64];
    let mut tables = [0u64; 64];
    let mut flipped = tt;
    let mut neg = 0u8;
    let mut n = 0usize;
    for step in 0..64u32 {
        if step > 0 {
            let v = step.trailing_zeros() as usize;
            flipped = flip_var(flipped, v);
            neg ^= 1 << v;
        }
        // A lane starting at a table seen earlier produces rank-for-rank
        // copies of the earlier lane's candidates; one starting at the
        // *complement* of an earlier table produces the earlier lane's
        // candidates with the phases swapped — in both cases at strictly
        // higher ranks, so the lane can never hold the winner.
        if !tables[..n].iter().any(|&x| x == flipped || x == !flipped) {
            ids[n] = step as u8;
            negs[n] = neg;
            tables[n] = flipped;
            n += 1;
        }
    }

    let chunk = crate::par::chunk_len(n, 16);
    let (best, _rank, best_t) = if chunk >= n {
        canonize6_lanes(&ids[..n], &negs[..n], &tables[..n])
    } else {
        use rayon::prelude::*;
        let ranges: Vec<(usize, usize)> = (0..n)
            .step_by(chunk)
            .map(|s| (s, (s + chunk).min(n)))
            .collect();
        ranges
            .par_iter()
            .map(|&(s, e)| canonize6_lanes(&ids[s..e], &negs[s..e], &tables[s..e]))
            .collect::<Vec<_>>()
            .into_iter()
            .reduce(|a, b| if (b.0, b.1) < (a.0, a.1) { b } else { a })
            .expect("at least one lane chunk")
    };
    debug_assert_eq!(apply6(tt, &best_t), best);
    (best, best_t)
}

/// One chunk of negation lanes walked through all 720 variable orders in
/// lockstep (see [`canonize6`]). Returns the chunk minimum of
/// `(table, rank)` and the transform achieving it, where
/// `rank = lane << 11 | permutation << 1 | phase` (11 bits cover
/// `719 << 1 | 1`).
fn canonize6_lanes(ids: &[u8], negs: &[u8], start: &[u64]) -> (u64, u32, NpnTransform6) {
    /// Scans the lanes named by `mask` at the current permutation,
    /// refining the winner. Called only for lanes the branch-free filter
    /// flagged (a strict improvement, or a tie a lower rank must resolve);
    /// ascending bit order keeps the rank tie-break exact.
    #[allow(clippy::too_many_arguments)] // hot inner loop: the winner triple must stay flat &muts
    fn scan(
        mut mask: u64,
        perm_idx: u32,
        ids: &[u8],
        negs: &[u8],
        tables: &[u64],
        loc: &[u8; 6],
        best: &mut u64,
        best_rank: &mut u32,
        best_t: &mut NpnTransform6,
    ) {
        while mask != 0 {
            let j = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let t = tables[j];
            for (cand, phase) in [(t, 0u32), (!t, 1u32)] {
                let rank = (u32::from(ids[j]) << 11) | (perm_idx << 1) | phase;
                if cand < *best || (cand == *best && rank < *best_rank) {
                    *best = cand;
                    *best_rank = rank;
                    *best_t = NpnTransform6 {
                        perm: *loc,
                        input_neg: negs[j],
                        output_neg: phase == 1,
                    };
                }
            }
        }
    }

    let mut lane_buf = [0u64; 64];
    let k = start.len();
    lane_buf[..k].copy_from_slice(start);
    let tables = &mut lane_buf[..k];

    let mut best = u64::MAX;
    let mut best_rank = u32::MAX;
    let mut best_t = NpnTransform6::IDENTITY;
    // arr[p] = which variable currently sits at position p; loc = inverse.
    let mut arr: [u8; 6] = [0, 1, 2, 3, 4, 5];
    let mut loc: [u8; 6] = [0, 1, 2, 3, 4, 5];
    let full = if k == 64 { u64::MAX } else { (1u64 << k) - 1 };
    scan(
        full,
        0,
        ids,
        negs,
        tables,
        &loc,
        &mut best,
        &mut best_rank,
        &mut best_t,
    );
    let mut c = [0usize; 6];
    let mut i = 0usize;
    let mut perm_idx = 0u32;
    while i < 6 {
        if c[i] < i {
            let (a, b) = if i.is_multiple_of(2) {
                (0, i)
            } else {
                (c[i], i)
            };
            let (a, b) = (a.min(b), a.max(b));
            let shift = (1u32 << b) - (1u32 << a);
            let up = VAR_TT[a] & !VAR_TT[b]; // a=1, b=0 moves up
            let down = !VAR_TT[a] & VAR_TT[b]; // a=0, b=1 moves down
            let keep = !(up | down);
            let mut mask = 0u64;
            for (j, t) in tables.iter_mut().enumerate() {
                let nt = (*t & keep) | ((*t & up) << shift) | ((*t & down) >> shift);
                *t = nt;
                mask |= u64::from(nt.min(!nt) <= best) << j;
            }
            let (va, vb) = (arr[a], arr[b]);
            arr.swap(a, b);
            loc[va as usize] = b as u8;
            loc[vb as usize] = a as u8;
            perm_idx += 1;
            if mask != 0 {
                scan(
                    mask,
                    perm_idx,
                    ids,
                    negs,
                    tables,
                    &loc,
                    &mut best,
                    &mut best_rank,
                    &mut best_t,
                );
            }
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    (best, best_rank, best_t)
}

// ---------------------------------------------------------------------------
// Structure synthesis.
// ---------------------------------------------------------------------------

/// Synthesizes a small AIG (4 inputs, 1 output) computing the 4-variable
/// table `tt`: Shannon decomposition tried over all 24 variable orders and
/// both output phases, with structural hashing sharing cofactor cones; the
/// cheapest (fewest ANDs, then shallowest) wins.
fn synthesize(tt: u16) -> Aig {
    let wide = broadcast16(tt);
    let mut best: Option<Aig> = None;
    for perm in permutations() {
        let order = [perm[0], perm[1], perm[2], perm[3], 4, 5];
        for flip in [false, true] {
            try_order(4, wide, &order, flip, &mut best);
        }
    }
    best.expect("at least one synthesis attempt")
}

/// Synthesizes a 6-input, 1-output AIG computing `tt`. Trying all 720
/// orders is too slow per class, so a small diverse order set is used:
/// identity, reverse, influence-sorted (both directions) and the rotations
/// of the influence-descending order — with both output phases each.
fn synthesize6(tt: u64) -> Aig {
    // Influence of a variable: how many minterms its flip changes.
    let mut vars: Vec<u8> = (0..6u8).collect();
    let influence: Vec<u32> = (0..6)
        .map(|v| (cofactor0(tt, v) ^ cofactor1(tt, v)).count_ones())
        .collect();
    vars.sort_by_key(|&v| (influence[v as usize], v));
    let asc: [u8; 6] = vars.clone().try_into().expect("six vars");
    vars.reverse();
    let desc: [u8; 6] = vars.try_into().expect("six vars");

    let mut orders: Vec<[u8; 6]> = vec![[0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0], asc, desc];
    for r in 1..6 {
        let mut rot = desc;
        rot.rotate_left(r);
        orders.push(rot);
    }

    let mut best: Option<Aig> = None;
    for order in &orders {
        for flip in [false, true] {
            try_order(6, tt, order, flip, &mut best);
        }
    }
    best.expect("at least one synthesis attempt")
}

/// One synthesis attempt: Shannon/Davio decomposition of `tt` over `order`
/// with the output phase `flip`, kept if smaller (then shallower) than the
/// current best.
fn try_order(num_inputs: usize, tt: u64, order: &[u8; 6], flip: bool, best: &mut Option<Aig>) {
    let target = if flip { !tt } else { tt };
    let mut g = Aig::new(num_inputs);
    let mut srcs = [Lit::FALSE; 6];
    for (i, s) in srcs.iter_mut().enumerate().take(num_inputs) {
        *s = g.input(i);
    }
    let out = shannon(&mut g, target, &srcs, order, MAX_LEAVES);
    g.add_output(out.complement_if(flip));
    g.cleanup();
    let better = match best {
        None => true,
        Some(b) => {
            g.num_ands() < b.num_ands() || (g.num_ands() == b.num_ands() && g.depth() < b.depth())
        }
    };
    if better {
        *best = Some(g);
    }
}

/// Recursive Shannon expansion of `tt` decomposing on `order[k - 1]`,
/// skipping variables the table does not depend on. Complementary cofactors
/// become an XOR with the decomposition variable (Davio-style), which keeps
/// parity-like classes at their optimal size instead of duplicating cones.
fn shannon(g: &mut Aig, tt: u64, srcs: &[Lit; 6], order: &[u8; 6], k: usize) -> Lit {
    if tt == 0 {
        return Lit::FALSE;
    }
    if tt == u64::MAX {
        return Lit::TRUE;
    }
    debug_assert!(k > 0, "non-constant table with no variables left");
    let var = order[k - 1] as usize;
    let lo = cofactor0(tt, var);
    let hi = cofactor1(tt, var);
    if lo == hi {
        return shannon(g, lo, srcs, order, k - 1);
    }
    if lo == !hi {
        let l = shannon(g, lo, srcs, order, k - 1);
        return g.xor(srcs[var], l);
    }
    let l = shannon(g, lo, srcs, order, k - 1);
    let h = shannon(g, hi, srcs, order, k - 1);
    g.mux(srcs[var], h, l)
}

// ---------------------------------------------------------------------------
// Library entries.
// ---------------------------------------------------------------------------

/// One 4-variable library lookup: the canonization of a cut function plus
/// the shared structure implementing its class representative.
#[derive(Clone)]
pub struct LibEntry {
    /// The canonization of the looked-up table.
    pub class: NpnClass,
    /// A 4-input, 1-output AIG computing `class.canon`.
    pub structure: Arc<Aig>,
}

impl LibEntry {
    /// Maps cut-leaf literals onto the structure's four inputs: canonical
    /// input `perm[i]` is fed `leaf_lits[i] ^ input_neg[i]`. Unused
    /// canonical inputs receive whatever placeholder sits in `leaf_lits`
    /// (the structure provably does not read them).
    pub fn input_map(&self, leaf_lits: &[Lit; 4]) -> [Lit; 4] {
        let t = &self.class.transform;
        let mut m = [Lit::FALSE; 4];
        for i in 0..4 {
            m[t.perm[i] as usize] = leaf_lits[i].complement_if((t.input_neg >> i) & 1 == 1);
        }
        m
    }

    /// Whether the structure's output must be complemented to recover the
    /// original function.
    pub fn output_complement(&self) -> bool {
        self.class.transform.output_neg
    }
}

/// One ≤6-variable library lookup: `structure` computes some representative
/// table `R`, and `apply6(tt, transform) == R` for the looked-up `tt` — so
/// instantiating the structure over [`LibEntry6::input_map`] and
/// complementing per [`LibEntry6::output_complement`] reproduces the
/// original cut function exactly.
#[derive(Clone)]
pub struct LibEntry6 {
    /// Maps the looked-up table onto the structure's table.
    pub transform: NpnTransform6,
    /// A 1-output AIG (4 or 6 inputs) computing the representative.
    pub structure: Arc<Aig>,
}

impl LibEntry6 {
    /// Maps cut-leaf literals onto the structure's inputs: structure input
    /// `perm[i]` is fed `leaf_lits[i] ^ input_neg[i]`. Positions beyond the
    /// structure's input count (or unread by it) keep their placeholder.
    pub fn input_map(&self, leaf_lits: &[Lit; 6]) -> [Lit; 6] {
        let t = &self.transform;
        let mut m = [Lit::FALSE; 6];
        for i in 0..6 {
            m[t.perm[i] as usize] = leaf_lits[i].complement_if((t.input_neg >> i) & 1 == 1);
        }
        m
    }

    /// Whether the structure's output must be complemented to recover the
    /// original function.
    pub fn output_complement(&self) -> bool {
        self.transform.output_neg
    }
}

// ---------------------------------------------------------------------------
// The process-wide library.
// ---------------------------------------------------------------------------

/// The process-wide structure library: canonization results and class
/// structures are computed once and memoized. Every rewriting call shares
/// the same instance via [`NpnLibrary::global`]. Each map is a lock-striped
/// [`ShardedLru`] with an unbounded budget (it never evicts; the whole
/// library is a few thousand small entries): the old single-`Mutex`-per-map
/// design serialized every worker of a batched compile behind one lock per
/// probe.
#[derive(Default)]
pub struct NpnLibrary {
    /// 16-bit exact canonization memo.
    canon_memo: ShardedLru<u16, NpnClass>,
    /// 4-variable class structures, keyed by class representative.
    structures: ShardedLru<u16, Arc<Aig>>,
    /// The hot-path map: semi-canonical key → (key-to-representative
    /// transform, representative structure).
    semi_entries: ShardedLru<u64, (NpnTransform6, Arc<Aig>)>,
    /// Exact 6-variable canonization memo (keyed by semi-canonical key;
    /// consulted only on `semi_entries` misses).
    canon6_memo: ShardedLru<u64, (u64, NpnTransform6)>,
    /// 5–6-variable class structures, keyed by exact class representative.
    structures6: ShardedLru<u64, Arc<Aig>>,
}

/// First-insert-wins publish into a library map: a racing duplicate
/// computation is discarded and the resident value returned, so results are
/// deterministic no matter which worker finishes first. The library never
/// evicts, so an entry's recorded cost is just its shallow size.
fn publish<K: ShardKey, V: Clone>(map: &ShardedLru<K, V>, k: K, v: V) -> V {
    map.insert(k, v, std::mem::size_of::<(K, V)>())
}

impl NpnLibrary {
    /// The shared process-wide library.
    pub fn global() -> &'static NpnLibrary {
        static LIB: OnceLock<NpnLibrary> = OnceLock::new();
        LIB.get_or_init(NpnLibrary::default)
    }

    /// Number of distinct 4-variable NPN classes materialized so far.
    pub fn num_classes(&self) -> usize {
        self.structures.stats().entries
    }

    /// Number of semi-canonical keys with a cached entry.
    pub fn num_semi_entries(&self) -> usize {
        self.semi_entries.stats().entries
    }

    /// Memoized exact 16-bit canonization.
    fn canon4(&self, tt: u16) -> NpnClass {
        self.canon_memo
            .get(&tt)
            .unwrap_or_else(|| publish(&self.canon_memo, tt, canonize(tt)))
    }

    /// The shared 4-variable class structure for representative `canon`.
    fn structure4(&self, canon: u16) -> Arc<Aig> {
        self.structures.get(&canon).unwrap_or_else(|| {
            let s = Arc::new(synthesize(canon));
            publish(&self.structures, canon, s)
        })
    }

    /// Canonizes `tt` (memoized) and returns the 4-variable class structure
    /// (synthesized on first encounter of the class). Stripe locks are held
    /// only for the map probe/insert — canonization and synthesis run
    /// unlocked, so concurrent rewriting passes never serialize behind a
    /// 48-attempt synthesis (a racing thread may compute a duplicate, which
    /// is discarded; results are deterministic either way).
    pub fn entry(&self, tt: u16) -> LibEntry {
        let class = self.canon4(tt);
        let structure = self.structure4(class.canon);
        LibEntry { class, structure }
    }

    /// The hot-path lookup for a ≤6-variable cut function: semi-canonize,
    /// probe the key-indexed map, and only on a miss fall back to the exact
    /// canonizer + synthesis (see the module docs for the full contract).
    /// Callers in a hot loop should additionally keep a pass-local cache
    /// keyed by raw table to avoid repeated lock traffic.
    pub fn entry6(&self, tt: u64) -> LibEntry6 {
        let semi = semi_canonize(tt);
        let (to_rep, structure) = self.semi_entries.get(&semi.key).unwrap_or_else(|| {
            let fresh = if support_size(semi.key) <= 4 {
                // The key is already the lifted exact 4-variable class
                // representative; share the 4-variable class structure.
                (NpnTransform6::IDENTITY, self.structure4(semi.key as u16))
            } else {
                let (canon, t2) = self.canon6(semi.key);
                (t2, self.structure6(canon))
            };
            publish(&self.semi_entries, semi.key, fresh)
        });
        LibEntry6 {
            transform: semi.transform.then(&to_rep),
            structure,
        }
    }

    /// Memoized exact 6-variable canonization (library misses only).
    fn canon6(&self, key: u64) -> (u64, NpnTransform6) {
        self.canon6_memo
            .get(&key)
            .unwrap_or_else(|| publish(&self.canon6_memo, key, canonize6(key)))
    }

    /// The shared 5–6-variable class structure for representative `canon`.
    fn structure6(&self, canon: u64) -> Arc<Aig> {
        self.structures6.get(&canon).unwrap_or_else(|| {
            let s = Arc::new(synthesize6(canon));
            publish(&self.structures6, canon, s)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Truth table computed by a 4-input, 1-output AIG.
    fn aig_tt(g: &Aig) -> u16 {
        let mut tt = 0u16;
        for m in 0..16u16 {
            let bits: Vec<bool> = (0..4).map(|i| (m >> i) & 1 == 1).collect();
            if g.eval(&bits)[0] {
                tt |= 1 << m;
            }
        }
        tt
    }

    /// Truth table computed by a 1-output AIG over up to 6 inputs,
    /// vacuous-extended.
    fn aig_tt6(g: &Aig) -> u64 {
        let ni = g.num_inputs();
        let mut tt = 0u64;
        for m in 0..64u64 {
            let bits: Vec<bool> = (0..ni).map(|i| (m >> i) & 1 == 1).collect();
            if g.eval(&bits)[0] {
                tt |= 1 << m;
            }
        }
        tt
    }

    #[test]
    fn apply_identity_is_identity() {
        for tt in [0x0000u16, 0xFFFF, 0x6996, 0x8000, 0x1234] {
            assert_eq!(apply(tt, &NpnTransform::IDENTITY), tt);
        }
        for tt in [0u64, u64::MAX, 0x6996_9669_0FF0_F00F, 0x0123_4567_89AB_CDEF] {
            assert_eq!(apply6(tt, &NpnTransform6::IDENTITY), tt);
        }
    }

    #[test]
    fn canonization_is_class_invariant() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let tt: u16 = rng.gen();
            let canon = canonize(tt).canon;
            // Any transform of tt canonizes to the same representative.
            let t = NpnTransform {
                perm: permutations()[rng.gen_range(0..24usize)],
                input_neg: rng.gen_range(0..16u8),
                output_neg: rng.gen(),
            };
            assert_eq!(canonize(apply(tt, &t)).canon, canon, "tt {tt:04x}");
            // And the recorded transform reproduces the representative.
            let c = canonize(tt);
            assert_eq!(apply(tt, &c.transform), c.canon);
        }
    }

    #[test]
    fn canonize6_is_class_invariant() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut perm: [u8; 6] = [0, 1, 2, 3, 4, 5];
        for round in 0..6 {
            let tt: u64 = rng.gen();
            let (canon, t) = canonize6(tt);
            assert_eq!(apply6(tt, &t), canon, "recorded transform");
            // A random transform of tt canonizes to the same representative.
            for i in 0..6 {
                let j = rng.gen_range(i..6usize);
                perm.swap(i, j);
            }
            let rt = NpnTransform6 {
                perm,
                input_neg: rng.gen_range(0..64) as u8,
                output_neg: rng.gen(),
            };
            let (canon2, t2) = canonize6(apply6(tt, &rt));
            assert_eq!(canon2, canon, "round {round}, tt {tt:016x}");
            assert_eq!(apply6(apply6(tt, &rt), &t2), canon2);
        }
    }

    #[test]
    fn transform_composition_matches_sequential_application() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut perm: [u8; 6] = [0, 1, 2, 3, 4, 5];
        let mut rand_t = |rng: &mut StdRng| {
            for i in 0..6 {
                let j = rng.gen_range(i..6usize);
                perm.swap(i, j);
            }
            NpnTransform6 {
                perm,
                input_neg: rng.gen_range(0..64) as u8,
                output_neg: rng.gen(),
            }
        };
        for _ in 0..20 {
            let tt: u64 = rng.gen();
            let t1 = rand_t(&mut rng);
            let t2 = rand_t(&mut rng);
            assert_eq!(
                apply6(apply6(tt, &t1), &t2),
                apply6(tt, &t1.then(&t2)),
                "tt {tt:016x}"
            );
        }
    }

    #[test]
    fn semi_canonize_is_exact_at_small_support() {
        let mut rng = StdRng::seed_from_u64(29);
        for _ in 0..40 {
            let tt: u16 = rng.gen();
            let wide = broadcast16(tt);
            let semi = semi_canonize(wide);
            assert_eq!(semi.key, broadcast16(canonize(tt).canon), "tt {tt:04x}");
            assert_eq!(apply6(wide, &semi.transform), semi.key);
        }
    }

    #[test]
    fn semi_canonize_transform_is_valid_and_idempotent() {
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..60 {
            let tt: u64 = rng.gen();
            let semi = semi_canonize(tt);
            assert_eq!(apply6(tt, &semi.transform), semi.key, "tt {tt:016x}");
            // Canonizing the key is a fixpoint.
            assert_eq!(semi_canonize(semi.key).key, semi.key, "tt {tt:016x}");
        }
    }

    #[test]
    fn structures_compute_their_class() {
        let mut rng = StdRng::seed_from_u64(9);
        let lib = NpnLibrary::global();
        for _ in 0..40 {
            let tt: u16 = rng.gen();
            let entry = lib.entry(tt);
            assert_eq!(aig_tt(&entry.structure), entry.class.canon, "tt {tt:04x}");
        }
    }

    #[test]
    fn instantiation_recovers_original_function() {
        // Feeding the structure through input_map + output_complement must
        // reproduce the *original* (pre-canonization) function exactly.
        let mut rng = StdRng::seed_from_u64(11);
        let lib = NpnLibrary::global();
        for _ in 0..40 {
            let tt: u16 = rng.gen();
            let entry = lib.entry(tt);
            let mut host = Aig::new(4);
            let leaves = [host.input(0), host.input(1), host.input(2), host.input(3)];
            let imap = entry.input_map(&leaves);
            let outs = host.append(&entry.structure, &imap);
            host.add_output(outs[0].complement_if(entry.output_complement()));
            assert_eq!(aig_tt(&host), tt, "tt {tt:04x}");
        }
    }

    #[test]
    fn entry6_instantiation_recovers_original_function() {
        let mut rng = StdRng::seed_from_u64(13);
        let lib = NpnLibrary::global();
        // Narrow tables (support ≤ 4, broadcast) and full-width tables.
        let mut tables: Vec<u64> = (0..10).map(|_| broadcast16(rng.gen::<u16>())).collect();
        tables.extend((0..10).map(|_| rng.gen::<u64>()));
        for tt in tables {
            let entry = lib.entry6(tt);
            let mut host = Aig::new(6);
            let mut leaves = [Lit::FALSE; 6];
            for (i, l) in leaves.iter_mut().enumerate() {
                *l = host.input(i);
            }
            let imap = entry.input_map(&leaves);
            let ni = entry.structure.num_inputs();
            let outs = host.append(&entry.structure, &imap[..ni]);
            host.add_output(outs[0].complement_if(entry.output_complement()));
            assert_eq!(aig_tt6(&host), tt, "tt {tt:016x}");
        }
    }

    #[test]
    fn entry6_shares_class_structures_across_semi_keys() {
        let lib = NpnLibrary::global();
        let mut rng = StdRng::seed_from_u64(37);
        let tt: u64 = rng.gen();
        let e1 = lib.entry6(tt);
        // A permuted/negated variant of the same function must resolve to
        // the very same structure (Arc identity), through either the shared
        // semi key or the exact-canonizer fallback.
        let t = NpnTransform6 {
            perm: [3, 1, 4, 0, 5, 2],
            input_neg: 0b10_1101,
            output_neg: true,
        };
        let e2 = lib.entry6(apply6(tt, &t));
        assert!(Arc::ptr_eq(&e1.structure, &e2.structure));
    }

    #[test]
    fn known_structures_are_tight() {
        let lib = NpnLibrary::global();
        // AND2 (tt over vars 0,1) costs one node; XOR2 three; MUX three.
        let and2 = 0xAAAAu16 & 0xCCCC;
        let xor2 = 0xAAAAu16 ^ 0xCCCC;
        let mux = (0xF0F0 & 0xAAAA) | (!0xF0F0 & 0xCCCCu16);
        for (tt, max) in [(and2, 1), (xor2, 3), (mux, 3), (0x6996u16, 9)] {
            let e = lib.entry(tt);
            assert!(
                e.structure.num_ands() <= max,
                "class {:04x} uses {} ANDs (max {max})",
                e.class.canon,
                e.structure.num_ands()
            );
        }
        // 6-input AND and parity through the wide path.
        let and6 = VAR_TT.iter().fold(u64::MAX, |a, &b| a & b);
        let par6 = VAR_TT.iter().fold(0u64, |a, &b| a ^ b);
        for (tt, max) in [(and6, 5), (par6, 15)] {
            let e = lib.entry6(tt);
            assert!(
                e.structure.num_ands() <= max,
                "wide class uses {} ANDs (max {max})",
                e.structure.num_ands()
            );
        }
    }

    #[test]
    fn constant_and_degenerate_tables() {
        let lib = NpnLibrary::global();
        assert_eq!(lib.entry(0x0000).structure.num_ands(), 0);
        assert_eq!(lib.entry(0xFFFF).structure.num_ands(), 0);
        assert_eq!(lib.entry(0xAAAA).structure.num_ands(), 0); // f = x0
        assert_eq!(lib.entry(!0xAAAAu16).structure.num_ands(), 0); // f = !x0
        assert_eq!(lib.entry6(0).structure.num_ands(), 0);
        assert_eq!(lib.entry6(u64::MAX).structure.num_ands(), 0);
        assert_eq!(lib.entry6(VAR_TT[5]).structure.num_ands(), 0); // f = x5
    }

    #[test]
    fn support_size_tracks_dependence() {
        assert_eq!(support_size(0), 0);
        assert_eq!(support_size(u64::MAX), 0);
        assert_eq!(support_size(VAR_TT[0]), 1);
        assert_eq!(support_size(VAR_TT[3]), 4);
        assert_eq!(support_size(VAR_TT[5]), 6);
        assert_eq!(support_size(broadcast16(0x6996)), 4);
        assert_eq!(support_size(VAR_TT[0] ^ VAR_TT[4]), 5);
    }
}
