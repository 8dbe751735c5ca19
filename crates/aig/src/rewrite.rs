//! DAG-aware AIG rewriting (ABC's `rewrite`, cut + NPN flavored).
//!
//! For every AND node, enumerate its k-feasible cuts ([`crate::cut`]),
//! canonize each cut function ([`crate::npn`]), and price the library
//! structure for its class against the logic the graph already contains:
//!
//! * **saved** — the nodes of the cut cone that die with the root (its
//!   maximum fanout-free cone restricted to the cut, found by recursive
//!   dereferencing of fanout counts, exactly ABC's accounting);
//! * **added** — the structure nodes that do *not* already exist, priced by
//!   a dry run against the structural hash ([`Aig::lookup_and`]), so shared
//!   logic is free.
//!
//! A replacement with `saved - added > 0` (or `>= 0` with the zero-gain
//! toggle, useful to reshape the graph between iterations) is recorded; the
//! graph is then rebuilt lazily from the outputs with the recorded
//! replacements applied, which drops every dereferenced cone that really
//! did become unreachable. The pass is purely structural — semantics are
//! preserved exactly — and never returns a graph with more AND nodes than
//! its input.
//!
//! # Allocation discipline
//!
//! The pass is allocation-free per node and per cut: cut sets live in a
//! [`CutArena`] (two flat buffers), and every per-candidate buffer — the
//! MFFC dereference stack, the decrement undo log, the dry-run value map,
//! the pass-local library cache — lives in a `Scratch` bundle recycled
//! through a thread-local free list (the same `_into` discipline the PR 4
//! kernels introduced). Repeated passes on a pool worker therefore reuse
//! one steady-state set of buffers.
//!
//! The pre-arena implementation — per-node `Vec<Cut>` sets, fresh buffers
//! per candidate — is retained as [`rewrite_reference`], the
//! differential-test oracle (`tests/cut_npn_props.rs` checks the two are
//! node-identical on random graphs at k = 4 and k = 6).

use std::cell::RefCell;
use std::collections::HashMap;

use crate::aig::Aig;
use crate::cut::{enumerate_cuts_k, Cut, CutArena, CutConfig, MAX_LEAVES};
use crate::fxhash::FxHashMap;
use crate::lit::Lit;
use crate::npn::{LibEntry6, NpnLibrary};

/// Configuration for [`rewrite`].
#[derive(Clone, Debug)]
pub struct RewriteConfig {
    /// Accept replacements that neither shrink nor grow the graph. Zero-gain
    /// rewriting reshapes structure so a following pass (balance, sweep, or
    /// another rewrite round) can find new gains — ABC's `rwz`.
    pub zero_gain: bool,
    /// Cuts kept per node during enumeration.
    pub max_cuts: usize,
    /// Maximum cut leaves (`2..=6`). `4` is the classic `rewrite -K 4`
    /// sweet spot and the default; `6` finds strictly more reductions at
    /// higher per-pass cost.
    pub cut_size: usize,
}

impl Default for RewriteConfig {
    fn default() -> Self {
        RewriteConfig {
            zero_gain: false,
            max_cuts: 8,
            cut_size: 4,
        }
    }
}

impl RewriteConfig {
    /// The k = 6 configuration (64-bit cut functions, wider cones).
    pub fn k6() -> RewriteConfig {
        RewriteConfig {
            cut_size: 6,
            ..RewriteConfig::default()
        }
    }
}

/// A recorded replacement: express the root over `leaves` with the library
/// structure of `entry`.
#[derive(Clone)]
struct Decision {
    leaves: [u32; MAX_LEAVES],
    len: u8,
    entry: LibEntry6,
}

/// The recycled per-pass buffer bundle (see the module docs).
#[derive(Default)]
struct Scratch {
    arena: CutArena,
    refs: Vec<u32>,
    claimed: Vec<bool>,
    freed_mark: Vec<bool>,
    freed: Vec<u32>,
    touched: Vec<u32>,
    vals: Vec<Option<Lit>>,
    decisions: Vec<Option<Decision>>,
    /// Pass-local library cache keyed by raw truth table: one lock
    /// round-trip per *distinct* cut function per thread, retained across
    /// passes (the table → entry mapping is process-stable).
    lib_cache: FxHashMap<u64, LibEntry6>,
}

thread_local! {
    static SCRATCH_POOL: RefCell<Vec<Scratch>> = const { RefCell::new(Vec::new()) };
}

fn take_scratch() -> Scratch {
    SCRATCH_POOL
        .with(|p| p.borrow_mut().pop())
        .unwrap_or_default()
}

fn recycle_scratch(mut s: Scratch) {
    // Drop per-pass contents but keep capacity; bound the memo so a long
    // portfolio run cannot grow it without limit.
    s.decisions.clear();
    if s.lib_cache.len() > (1 << 16) {
        s.lib_cache.clear();
    }
    SCRATCH_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < 2 {
            pool.push(s);
        }
    });
}

/// Fills `refs` with the fanout reference counts of `aig` (AND fanin edges
/// plus output references) and reports whether any AND node is dangling
/// (unreferenced). A dangling-free graph needs no cleanup before a pass —
/// and rebuilding it through `cleanup` would reproduce the identical node
/// numbering anyway, so skipping the copy is behavior-preserving.
fn fill_refs(aig: &Aig, refs: &mut Vec<u32>) -> bool {
    let n_nodes = aig.num_nodes();
    refs.clear();
    refs.resize(n_nodes, 0);
    for n in (aig.num_inputs() + 1)..n_nodes {
        let (f0, f1) = aig.fanins(n as u32);
        refs[f0.node() as usize] += 1;
        refs[f1.node() as usize] += 1;
    }
    for o in aig.outputs() {
        refs[o.node() as usize] += 1;
    }
    ((aig.num_inputs() + 1)..n_nodes).any(|n| refs[n] == 0)
}

/// One rewriting pass. Semantics are preserved exactly; the result never
/// has more AND nodes than the (cleaned-up) input.
pub fn rewrite(aig: &Aig, cfg: &RewriteConfig) -> Aig {
    if aig.num_ands() == 0 {
        let mut g = aig.clone();
        g.cleanup();
        return g;
    }
    let mut s = take_scratch();
    let Scratch {
        arena,
        refs,
        claimed,
        freed_mark,
        freed,
        touched,
        vals,
        decisions,
        lib_cache,
    } = &mut s;

    // Clone + clean only when the input actually has dangling logic.
    let owned;
    let g: &Aig = if fill_refs(aig, refs) {
        owned = {
            let mut c = aig.clone();
            c.cleanup();
            c
        };
        fill_refs(&owned, refs);
        &owned
    } else {
        aig
    };
    let n_nodes = g.num_nodes();
    let first_and = g.num_inputs() + 1;
    arena.enumerate(
        g,
        &CutConfig {
            k: cfg.cut_size,
            max_cuts: cfg.max_cuts,
        },
    );
    if cfg!(debug_assertions) || crate::opt::check_enabled() {
        if let Err(e) = arena.check_csr() {
            panic!("cut arena CSR invariants violated after enumeration: {e}");
        }
    }

    claimed.clear();
    claimed.resize(n_nodes, false);
    freed_mark.clear();
    freed_mark.resize(n_nodes, false);
    decisions.clear();
    decisions.resize_with(n_nodes, || None);

    let lib = NpnLibrary::global();
    for n in first_and..n_nodes {
        // Deadlines must bind inside the node loop, not only at pass
        // boundaries: one pass over a 200-input external cone can dwarf the
        // whole budget. Decisions made so far still rebuild to a valid
        // graph, so a cancelled pass degrades to a partial rewrite.
        if n & 0x3FF == 0 && crate::cancel::cancelled() {
            break;
        }
        let root = n as u32;
        if claimed[n] {
            continue;
        }
        let mut best: Option<(i64, Decision)> = None;
        for cut in arena.cuts(root) {
            let len = cut.len();
            if len == 1 && cut.leaves[0] == root {
                continue; // the trivial cut rewrites nothing
            }
            if cut.leaves.iter().any(|&l| claimed[l as usize]) {
                continue; // leaf may vanish with an earlier rewrite
            }
            // Borrow the cached entry; it is cloned (two `Arc` bumps) only
            // when a candidate is actually accepted.
            let entry = &*lib_cache
                .entry(cut.tt)
                .or_insert_with(|| lib.entry6(cut.tt));
            let mut leaves = [0u32; MAX_LEAVES];
            leaves[..len].copy_from_slice(cut.leaves);
            let mut leaf_lits = [Lit::FALSE; MAX_LEAVES];
            for (i, &l) in leaves[..len].iter().enumerate() {
                leaf_lits[i] = Lit::new(l, false);
            }
            let imap = entry.input_map(&leaf_lits);

            // Saved: dereference the cone between the cut and the root.
            deref_cone_into(g, root, &leaves[..len], refs, freed, touched);
            for &f in freed.iter() {
                freed_mark[f as usize] = true;
            }
            // Added: dry-run the structure against the structural hash.
            // Nodes claimed by earlier accepted rewrites are dead too —
            // pricing them as free reuse would overstate the gain.
            let (added, out) = dry_run_into(g, &entry.structure, &imap, freed_mark, claimed, vals);
            for &f in freed.iter() {
                freed_mark[f as usize] = false;
            }
            ref_cone(touched, refs);

            // Re-expressing the root as itself is not a rewrite.
            if out.map(|l| l.node()) == Some(root) {
                continue;
            }
            let gain = freed.len() as i64 - added as i64;
            let acceptable = gain > 0 || (cfg.zero_gain && gain == 0);
            if acceptable && best.as_ref().is_none_or(|(bg, _)| gain > *bg) {
                best = Some((
                    gain,
                    Decision {
                        leaves,
                        len: len as u8,
                        entry: entry.clone(),
                    },
                ));
            }
        }
        if let Some((_, dec)) = best {
            // Re-dereference the winning cone permanently and claim it so
            // overlapping rewrites are not double counted this pass.
            deref_cone_into(
                g,
                root,
                &dec.leaves[..dec.len as usize],
                refs,
                freed,
                touched,
            );
            for &f in freed.iter() {
                claimed[f as usize] = true;
            }
            decisions[n] = Some(dec);
        }
    }

    let rebuilt = rebuild(g, decisions);
    let result = if rebuilt.num_ands() <= g.num_ands() {
        rebuilt
    } else {
        g.clone()
    };
    recycle_scratch(s);
    result
}

/// The pre-arena rewriting pass: identical decision logic over per-node
/// `Vec<Cut>` sets with freshly allocated candidate buffers. Kept as the
/// differential-test oracle for [`rewrite`]; prefer the arena path.
#[doc(hidden)]
pub fn rewrite_reference(aig: &Aig, cfg: &RewriteConfig) -> Aig {
    let mut g = aig.clone();
    g.cleanup();
    if g.num_ands() == 0 {
        return g;
    }
    let n_nodes = g.num_nodes();
    let first_and = g.num_inputs() + 1;
    let cuts: Vec<Vec<Cut>> = enumerate_cuts_k(&g, cfg.cut_size, cfg.max_cuts);

    let mut refs = vec![0u32; n_nodes];
    for n in first_and..n_nodes {
        let (f0, f1) = g.fanins(n as u32);
        refs[f0.node() as usize] += 1;
        refs[f1.node() as usize] += 1;
    }
    for o in g.outputs() {
        refs[o.node() as usize] += 1;
    }

    let lib = NpnLibrary::global();
    let mut lib_cache: HashMap<u64, LibEntry6> = HashMap::new();
    let mut claimed = vec![false; n_nodes];
    let mut freed_mark = vec![false; n_nodes];
    let mut decisions: Vec<Option<Decision>> = vec![None; n_nodes];

    for n in first_and..n_nodes {
        let root = n as u32;
        if claimed[n] {
            continue;
        }
        let mut best: Option<(i64, Decision)> = None;
        for cut in &cuts[n] {
            if cut.len() == 1 && cut.leaves()[0] == root {
                continue;
            }
            if cut.leaves().iter().any(|&l| claimed[l as usize]) {
                continue;
            }
            let entry = lib_cache
                .entry(cut.tt)
                .or_insert_with(|| lib.entry6(cut.tt))
                .clone();
            let mut leaf_lits = [Lit::FALSE; MAX_LEAVES];
            for (i, &l) in cut.leaves().iter().enumerate() {
                leaf_lits[i] = Lit::new(l, false);
            }
            let imap = entry.input_map(&leaf_lits);

            let (mut freed, mut touched) = (Vec::new(), Vec::new());
            deref_cone_into(&g, root, cut.leaves(), &mut refs, &mut freed, &mut touched);
            for &f in &freed {
                freed_mark[f as usize] = true;
            }
            let mut vals = Vec::new();
            let (added, out) = dry_run_into(
                &g,
                &entry.structure,
                &imap,
                &freed_mark,
                &claimed,
                &mut vals,
            );
            for &f in &freed {
                freed_mark[f as usize] = false;
            }
            ref_cone(&touched, &mut refs);

            if out.map(|l| l.node()) == Some(root) {
                continue;
            }
            let gain = freed.len() as i64 - added as i64;
            let acceptable = gain > 0 || (cfg.zero_gain && gain == 0);
            if acceptable && best.as_ref().is_none_or(|(bg, _)| gain > *bg) {
                let mut leaves = [0u32; MAX_LEAVES];
                leaves[..cut.len()].copy_from_slice(cut.leaves());
                best = Some((
                    gain,
                    Decision {
                        leaves,
                        len: cut.len() as u8,
                        entry,
                    },
                ));
            }
        }
        if let Some((_, dec)) = best {
            let (mut freed, mut touched) = (Vec::new(), Vec::new());
            deref_cone_into(
                &g,
                root,
                &dec.leaves[..dec.len as usize],
                &mut refs,
                &mut freed,
                &mut touched,
            );
            for f in freed {
                claimed[f as usize] = true;
            }
            decisions[n] = Some(dec);
        }
    }

    let rebuilt = rebuild(&g, &decisions);
    if rebuilt.num_ands() <= g.num_ands() {
        rebuilt
    } else {
        g
    }
}

/// Dereferences the cone of `root` down to the cut leaves: decrements the
/// fanout count of every non-leaf AND fanin of a dying node, collecting the
/// nodes whose count reaches zero (plus the root itself) into `freed`.
/// Fanins already at zero (killed by an earlier accepted rewrite) are left
/// alone and not counted again. `freed` and `touched` are cleared and
/// refilled (`touched` lists every decrement performed, for [`ref_cone`] to
/// undo).
fn deref_cone_into(
    g: &Aig,
    root: u32,
    leaves: &[u32],
    refs: &mut [u32],
    freed: &mut Vec<u32>,
    touched: &mut Vec<u32>,
) {
    freed.clear();
    touched.clear();
    freed.push(root);
    let mut qi = 0;
    while qi < freed.len() {
        let n = freed[qi];
        qi += 1;
        let (f0, f1) = g.fanins(n);
        for f in [f0, f1] {
            let m = f.node();
            if !g.is_and(m) || leaves.contains(&m) || refs[m as usize] == 0 {
                continue;
            }
            refs[m as usize] -= 1;
            touched.push(m);
            if refs[m as usize] == 0 {
                freed.push(m);
            }
        }
    }
}

/// Exact inverse of [`deref_cone_into`] over the recorded decrement list.
fn ref_cone(touched: &[u32], refs: &mut [u32]) {
    for &m in touched {
        refs[m as usize] += 1;
    }
}

/// Prices instantiating `structure` (4 or 6 inputs, 1 output) over `imap`
/// against graph `g` without mutating it. Returns the number of nodes a
/// real instantiation would create, and — when every step resolves to
/// existing logic — the literal the output lands on. Existing nodes inside
/// the candidate's own dying cone (`freed_mark`) or inside a cone claimed
/// by an earlier accepted rewrite (`claimed`) are priced as new: reusing
/// them would just keep dead logic alive. `vals` is the recycled value map.
fn dry_run_into(
    g: &Aig,
    structure: &Aig,
    imap: &[Lit; MAX_LEAVES],
    freed_mark: &[bool],
    claimed: &[bool],
    vals: &mut Vec<Option<Lit>>,
) -> (usize, Option<Lit>) {
    vals.clear();
    vals.resize(structure.num_nodes(), None);
    vals[0] = Some(Lit::FALSE);
    for (i, &l) in imap.iter().enumerate().take(structure.num_inputs()) {
        vals[i + 1] = Some(l);
    }
    let mut added = 0usize;
    for s in (structure.num_inputs() + 1)..structure.num_nodes() {
        let (f0, f1) = structure.fanins(s as u32);
        let a = vals[f0.node() as usize].map(|l| l.complement_if(f0.is_complemented()));
        let b = vals[f1.node() as usize].map(|l| l.complement_if(f1.is_complemented()));
        vals[s] = match (a, b) {
            (Some(x), Some(y)) => match g.lookup_and(x, y) {
                Some(l)
                    if l.is_constant()
                        || (!freed_mark[l.node() as usize] && !claimed[l.node() as usize]) =>
                {
                    Some(l)
                }
                Some(l) => {
                    added += 1;
                    Some(l)
                }
                None => {
                    added += 1;
                    None
                }
            },
            // One side unresolved: constants still fold for free.
            (Some(c), other) | (other, Some(c)) if c == Lit::FALSE => {
                let _ = other;
                Some(Lit::FALSE)
            }
            (Some(c), other) | (other, Some(c)) if c == Lit::TRUE => other,
            _ => {
                added += 1;
                None
            }
        };
    }
    let o = structure.outputs()[0];
    let out = vals[o.node() as usize].map(|l| l.complement_if(o.is_complemented()));
    (added, out)
}

/// Lazily rebuilds `g` from its outputs with the recorded replacements
/// applied; cones nothing references anymore are never materialized.
fn rebuild(g: &Aig, decisions: &[Option<Decision>]) -> Aig {
    let mut fresh = Aig::new(g.num_inputs());
    let mut map: Vec<Option<Lit>> = vec![None; g.num_nodes()];
    for (i, slot) in map.iter_mut().enumerate().take(g.num_inputs() + 1) {
        *slot = Some(Lit::new(i as u32, false));
    }
    let mut stack: Vec<u32> = g.outputs().iter().map(|o| o.node()).collect();
    while let Some(&n) = stack.last() {
        if map[n as usize].is_some() {
            stack.pop();
            continue;
        }
        let mut deps = [0u32; MAX_LEAVES];
        let nd = match &decisions[n as usize] {
            Some(dec) => {
                deps[..dec.len as usize].copy_from_slice(&dec.leaves[..dec.len as usize]);
                dec.len as usize
            }
            None => {
                let (f0, f1) = g.fanins(n);
                deps[0] = f0.node();
                deps[1] = f1.node();
                2
            }
        };
        let mut ready = true;
        for &d in &deps[..nd] {
            if map[d as usize].is_none() {
                stack.push(d);
                ready = false;
            }
        }
        if !ready {
            continue;
        }
        stack.pop();
        let lit = match &decisions[n as usize] {
            Some(dec) => {
                let mut leaf_lits = [Lit::FALSE; MAX_LEAVES];
                for (i, &l) in dec.leaves[..dec.len as usize].iter().enumerate() {
                    leaf_lits[i] = map[l as usize].expect("leaf built");
                }
                let imap = dec.entry.input_map(&leaf_lits);
                let ni = dec.entry.structure.num_inputs();
                let outs = fresh.append(&dec.entry.structure, &imap[..ni]);
                outs[0].complement_if(dec.entry.output_complement())
            }
            None => {
                let (f0, f1) = g.fanins(n);
                let a = map[f0.node() as usize]
                    .expect("fanin built")
                    .complement_if(f0.is_complemented());
                let b = map[f1.node() as usize]
                    .expect("fanin built")
                    .complement_if(f1.is_complemented());
                fresh.and(a, b)
            }
        };
        map[n as usize] = Some(lit);
    }
    for o in g.outputs() {
        let l = map[o.node() as usize]
            .expect("output cone built")
            .complement_if(o.is_complemented());
        fresh.add_output(l);
    }
    fresh
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::equivalent_exhaustive;

    /// A deadline firing inside the node loop stops decision-making early;
    /// the decisions already made still rebuild to an equivalent graph.
    #[test]
    fn tiny_deadline_yields_valid_partial_rewrite() {
        let mut g = Aig::new(8);
        let mut lits = g.inputs();
        let mut state = 0xDEAD_BEEFu64;
        for _ in 0..2500 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = lits[(state >> 16) as usize % lits.len()];
            let b = lits[(state >> 40) as usize % lits.len()];
            let l = if state.is_multiple_of(2) {
                g.and(a, !b)
            } else {
                g.xor(a, b)
            };
            lits.push(l);
        }
        let out = *lits.last().unwrap();
        g.add_output(out);
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        let h = crate::cancel::with_token(&token, || rewrite(&g, &RewriteConfig::default()));
        equivalent_exhaustive(&g, &h);
        let token = crate::cancel::CancelToken::with_budget(std::time::Duration::from_nanos(1));
        let h = crate::cancel::with_token(&token, || rewrite(&g, &RewriteConfig::default()));
        equivalent_exhaustive(&g, &h);
    }

    #[test]
    fn removes_redundant_mux_of_equal_branches() {
        // f = mux(s, g, g') where g and g' are structurally different but
        // equal functions: strash cannot see it, a 4-cut can.
        let mut g = Aig::new(3);
        let (s, a, b) = (g.input(0), g.input(1), g.input(2));
        let t = g.and(a, b);
        let e = {
            // a AND b via double negation of OR-of-complements.
            let o = g.or(!a, !b);
            !o
        };
        let f = g.mux(s, t, e);
        g.add_output(f);
        let before = g.num_ands();
        let h = rewrite(&g, &RewriteConfig::default());
        assert!(h.num_ands() < before, "{} -> {}", before, h.num_ands());
        equivalent_exhaustive(&g, &h);
        // The whole thing is just a AND b.
        assert_eq!(h.num_ands(), 1);
    }

    #[test]
    fn rewrites_sop_to_shared_form() {
        // f = (a & b) | (a & c) | (a & d): 5 ANDs naively, 2 after a*(b|c|d)
        // ... which needs two rewriting steps over 4-cuts.
        let mut g = Aig::new(4);
        let (a, b, c, d) = (g.input(0), g.input(1), g.input(2), g.input(3));
        let ab = g.and(a, b);
        let ac = g.and(a, c);
        let ad = g.and(a, d);
        let o1 = g.or(ab, ac);
        let f = g.or(o1, ad);
        g.add_output(f);
        let before = g.num_ands();
        let h = rewrite(&g, &RewriteConfig::default());
        assert!(h.num_ands() <= before);
        equivalent_exhaustive(&g, &h);
    }

    #[test]
    fn never_grows_and_preserves_multi_output() {
        let mut g = Aig::new(6);
        let ins = g.inputs();
        let x = g.xor_many(&ins[..4]);
        let y = g.and_many(&ins[2..]);
        let z = g.mux(ins[0], x, y);
        g.add_output(x);
        g.add_output(!z);
        g.add_output(Lit::TRUE);
        let before = {
            let mut c = g.clone();
            c.cleanup();
            c.num_ands()
        };
        for zero_gain in [false, true] {
            for cut_size in [4, 6] {
                let h = rewrite(
                    &g,
                    &RewriteConfig {
                        zero_gain,
                        cut_size,
                        ..RewriteConfig::default()
                    },
                );
                assert!(h.num_ands() <= before);
                equivalent_exhaustive(&g, &h);
            }
        }
    }

    #[test]
    fn constant_cone_collapses() {
        // (a XOR b) XOR (a XOR b) = 0 built without strash sharing the two
        // forms: x ^ x folds at the top already, so build x XNOR x' where
        // x' is a structurally different equal function.
        let mut g = Aig::new(2);
        let (a, b) = (g.input(0), g.input(1));
        let x = g.xor(a, b);
        let y = {
            let o = g.or(a, b);
            let n = g.and(a, b);
            g.and(o, !n) // also a XOR b
        };
        let f = g.xnor(x, y); // constant true
        g.add_output(f);
        let h = rewrite(&g, &RewriteConfig::default());
        equivalent_exhaustive(&g, &h);
        assert_eq!(h.num_ands(), 0, "constant cone should vanish");
    }

    #[test]
    fn k6_cuts_reach_across_deeper_cones() {
        // A 6-input redundant structure a 4-cut cannot span at once: two
        // structurally different 6-input parities muxed together.
        let mut g = Aig::new(6);
        let ins = g.inputs();
        let mut chain = ins[0];
        for &x in &ins[1..] {
            chain = g.xor(chain, x);
        }
        let tree = g.xor_many(&ins);
        let f = g.and(chain, tree); // == parity
        g.add_output(f);
        for cfg in [RewriteConfig::default(), RewriteConfig::k6()] {
            let h = rewrite(&g, &cfg);
            assert!(h.num_ands() <= g.num_ands());
            equivalent_exhaustive(&g, &h);
        }
    }

    #[test]
    fn reference_and_arena_paths_agree() {
        let mut g = Aig::new(5);
        let ins = g.inputs();
        let x = g.xor_many(&ins[..4]);
        let y = g.and_many(&ins[1..]);
        let z = g.mux(ins[0], x, y);
        let w = g.or(z, !x);
        g.add_output(w);
        g.add_output(!z);
        for cfg in [
            RewriteConfig::default(),
            RewriteConfig::k6(),
            RewriteConfig {
                zero_gain: true,
                ..RewriteConfig::k6()
            },
        ] {
            let a = rewrite(&g, &cfg);
            let b = rewrite_reference(&g, &cfg);
            assert_eq!(
                a.structural_fingerprint(),
                b.structural_fingerprint(),
                "arena and reference rewrites diverged"
            );
        }
    }

    #[test]
    fn empty_and_tiny_graphs_pass_through() {
        let g = Aig::constant(3, true);
        let h = rewrite(&g, &RewriteConfig::default());
        assert_eq!(h.num_ands(), 0);
        equivalent_exhaustive(&g, &h);

        let mut g = Aig::new(2);
        let (a, b) = (g.input(0), g.input(1));
        let f = g.and(a, b);
        g.add_output(f);
        let h = rewrite(&g, &RewriteConfig::default());
        assert_eq!(h.num_ands(), 1);
        equivalent_exhaustive(&g, &h);
    }
}
