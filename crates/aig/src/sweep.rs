//! Simulation-guided equivalence sweeping (SAT sweeping without the SAT).
//!
//! Structural hashing only merges *syntactically* identical AND nodes; two
//! different structures computing the same function survive it. This pass
//! finds them the way fraiging does:
//!
//! 1. **Signatures** — every node is simulated word-parallel, all stimulus
//!    words at once: the signature matrix is one flat buffer (node `n` owns
//!    words `n*T .. (n+1)*T`), and each AND node's block is a single
//!    [`lsml_pla::kernels::fanin_and_into`] call over its fanins' blocks —
//!    64-word-style batched bitwise work instead of a per-round push onto
//!    per-node `Vec`s. Stimulus is random by default;
//!    [`SweepConfig::stimulus`] prepends the application's own
//!    [`BitColumns`] words as *additional discriminators*: nodes that
//!    random patterns cannot tell apart but the real data does are split
//!    into separate classes early, so fewer candidate pairs reach the
//!    expensive verification step. (Signatures only ever *filter*
//!    candidates — merging itself is always decided by the exhaustive check
//!    below, never by on-distribution agreement.)
//! 2. **Candidate classes** — nodes bucket by a 64-bit hash of their
//!    complement-canonical signature (so `f` and `!f` share a class); a
//!    hash collision merely wastes a verification attempt, never merges.
//! 3. **Verification** — a candidate pair is merged only after *exhaustive*
//!    equivalence checking over the union support of the two cones, and only
//!    when that support is small (at most 12 inputs); everything else is left
//!    untouched. Merging is therefore exact: the pass preserves semantics
//!    bit for bit, unlike [`crate::approx`].
//!
//! The result never has more AND nodes than the (cleaned-up) input.

use std::sync::Arc;

use lsml_pla::{kernels, BitColumns};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::aig::Aig;
use crate::fxhash::{fnv1a_mix, FxHashMap, FNV_OFFSET};
use crate::lit::Lit;

/// Random 64-pattern simulation rounds feeding the signatures (256 random
/// patterns).
const ROUNDS: usize = 4;
/// Candidate pairs whose union cone support exceeds this are skipped
/// (exhaustive verification is `2^support` patterns).
const MAX_SUPPORT: usize = 12;
/// Candidate pairs whose union cone exceeds this many AND nodes are skipped.
const MAX_CONE: usize = 400;
/// Upper bound on verification attempts per pass.
const MAX_PAIRS: usize = 2048;

/// Configuration for [`sweep`].
#[derive(Clone, Debug, Default)]
pub struct SweepConfig {
    /// RNG seed for the random stimulus.
    pub seed: u64,
    /// Optional application stimulus: its packed words are prepended to the
    /// random signature words.
    pub stimulus: Option<Arc<BitColumns>>,
}

/// One sweeping pass with the configured stimulus. Semantics are preserved
/// exactly; the result never has more AND nodes than the cleaned-up input.
pub fn sweep(aig: &Aig, cfg: &SweepConfig) -> Aig {
    let mut g = aig.clone();
    g.cleanup();
    if g.num_ands() == 0 {
        return g;
    }
    let n_nodes = g.num_nodes();
    let ni = g.num_inputs();

    // --- block signatures ------------------------------------------------
    // T words per node: the stimulus columns first, then the random rounds;
    // one flat buffer, filled input blocks first, then one fanin_and_into
    // per AND node in topological (= index) order.
    let stim = cfg
        .stimulus
        .as_ref()
        .filter(|c| c.num_examples() > 0 && c.num_inputs() == ni);
    let stim_words = stim.map_or(0, |c| c.words_per_column());
    let t = stim_words + ROUNDS;
    let mut masks = vec![u64::MAX; t];
    if let Some(cols) = stim {
        masks[stim_words - 1] = cols.tail_mask();
    }

    let mut sig = vec![0u64; n_nodes * t];
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for i in 0..ni {
        let base = (i + 1) * t;
        if let Some(cols) = stim {
            // Tail bits are already clear (the BitColumns invariant).
            sig[base..base + stim_words].copy_from_slice(cols.column(i));
        }
        for w in &mut sig[base + stim_words..base + t] {
            *w = rng.gen();
        }
    }
    for n in ni + 1..n_nodes {
        let (f0, f1) = g.fanins(n as u32);
        let (head, rest) = sig.split_at_mut(n * t);
        let a = &head[f0.node() as usize * t..f0.node() as usize * t + t];
        let b = &head[f1.node() as usize * t..f1.node() as usize * t + t];
        kernels::fanin_and_into(
            a,
            f0.is_complemented(),
            b,
            f1.is_complemented(),
            &mut rest[..t],
        );
    }

    // --- candidate classes + verified merging ---------------------------
    // FNV-1a over the masked complement-canonical words per node.
    // Complemented fanins can raise dead tail bits, so the per-word
    // validity masks are applied here rather than during simulation.
    let hashes: Vec<u64> = (0..n_nodes)
        .map(|n| {
            let block = &sig[n * t..(n + 1) * t];
            let fm = if block[0] & 1 == 1 { u64::MAX } else { 0 };
            let mut h = FNV_OFFSET;
            for (&w, &m) in block.iter().zip(&masks) {
                h = fnv1a_mix(h, (w ^ fm) & m);
            }
            h
        })
        .collect();

    // Representative nodes per canonical-signature hash; AND nodes that
    // verify equivalent to an earlier node are substituted by it.
    let mut buckets: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
    let mut subst: Vec<Option<Lit>> = vec![None; n_nodes];
    let mut attempts = 0usize;
    let mut scratch = VerifyScratch::sized(n_nodes);
    for n in 0..n_nodes as u32 {
        // Same contract as the rewrite node loop: a fired deadline stops
        // candidate verification mid-walk; the substitutions gathered so
        // far are individually proven and still apply.
        if n & 0x3FF == 0 && crate::cancel::cancelled() {
            break;
        }
        let flip = sig[n as usize * t] & 1 == 1;
        let reps = buckets.entry(hashes[n as usize]).or_default();
        let mut merged = false;
        if g.is_and(n) {
            for &r in reps.iter().take(2) {
                if attempts >= MAX_PAIRS {
                    break;
                }
                attempts += 1;
                let r_flip = sig[r as usize * t] & 1 == 1;
                let inv = flip != r_flip;
                if verify_pair(&g, r, n, inv, &mut scratch) {
                    subst[n as usize] = Some(Lit::new(r, false).complement_if(inv));
                    merged = true;
                    break;
                }
            }
        }
        if !merged && reps.len() < 4 {
            reps.push(n);
        }
    }

    // --- apply substitutions -------------------------------------------
    let mut fresh = Aig::new(ni);
    let mut map: Vec<Lit> = vec![Lit::FALSE; n_nodes];
    for (i, slot) in map.iter_mut().enumerate().take(ni + 1) {
        *slot = Lit::new(i as u32, false);
    }
    for n in (ni + 1)..n_nodes {
        map[n] = match subst[n] {
            Some(l) => map[l.node() as usize].complement_if(l.is_complemented()),
            None => {
                let (f0, f1) = g.fanins(n as u32);
                let a = map[f0.node() as usize].complement_if(f0.is_complemented());
                let b = map[f1.node() as usize].complement_if(f1.is_complemented());
                fresh.and(a, b)
            }
        };
    }
    for o in g.outputs() {
        let l = map[o.node() as usize].complement_if(o.is_complemented());
        fresh.add_output(l);
    }
    fresh.cleanup();
    if fresh.num_ands() <= g.num_ands() {
        fresh
    } else {
        g
    }
}

/// Word `k` of the exhaustive enumeration of support variable `j`: patterns
/// are numbered `chunk * 64 + bit`, variable `j`'s value is bit `j` of the
/// pattern number.
fn support_word(j: usize, chunk: u64) -> u64 {
    const TILE: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    if j < 6 {
        TILE[j]
    } else if (chunk >> (j - 6)) & 1 == 1 {
        u64::MAX
    } else {
        0
    }
}

/// Recycled buffers for the pair verifier: the union cone/support lists, a
/// generation-stamped visited marker (no per-pair hash set), and the
/// word-parallel value array.
struct VerifyScratch {
    cone: Vec<u32>,
    support: Vec<u32>,
    /// `seen[m] == stamp` means node `m` was visited for the current pair.
    seen: Vec<u32>,
    stamp: u32,
    stack: Vec<u32>,
    values: Vec<u64>,
}

impl VerifyScratch {
    fn sized(n_nodes: usize) -> VerifyScratch {
        VerifyScratch {
            cone: Vec::new(),
            support: Vec::new(),
            seen: vec![0; n_nodes],
            stamp: 0,
            stack: Vec::new(),
            values: vec![0; n_nodes],
        }
    }
}

/// Exhaustively verifies `value(r) == value(n) ^ inv` over the union support
/// of the two cones. Returns `false` (no merge) when the support or cone is
/// too large for exhaustive checking.
fn verify_pair(g: &Aig, r: u32, n: u32, inv: bool, s: &mut VerifyScratch) -> bool {
    // Collect the union cone (AND nodes) and support (primary inputs).
    s.stamp += 1;
    s.cone.clear();
    s.support.clear();
    s.stack.clear();
    s.stack.push(r);
    s.stack.push(n);
    let VerifyScratch {
        cone,
        support,
        seen,
        stamp,
        stack,
        values,
    } = s;
    while let Some(m) = stack.pop() {
        if seen[m as usize] == *stamp {
            continue;
        }
        seen[m as usize] = *stamp;
        if g.is_and(m) {
            cone.push(m);
            if cone.len() > MAX_CONE {
                return false;
            }
            let (f0, f1) = g.fanins(m);
            stack.push(f0.node());
            stack.push(f1.node());
        } else if g.is_input(m) {
            support.push(m);
            if support.len() > MAX_SUPPORT {
                return false;
            }
        }
    }
    cone.sort_unstable(); // node ids are topological
    support.sort_unstable();

    let s = support.len();
    let chunks = if s > 6 { 1u64 << (s - 6) } else { 1 };
    let valid = if s >= 6 {
        u64::MAX
    } else {
        (1u64 << (1usize << s)) - 1
    };
    for chunk in 0..chunks {
        for (j, &input) in support.iter().enumerate() {
            values[input as usize] = support_word(j, chunk);
        }
        for &m in cone.iter() {
            let (f0, f1) = g.fanins(m);
            let v0 = values[f0.node() as usize] ^ if f0.is_complemented() { u64::MAX } else { 0 };
            let v1 = values[f1.node() as usize] ^ if f1.is_complemented() { u64::MAX } else { 0 };
            values[m as usize] = v0 & v1;
        }
        let vr = values[r as usize];
        let vn = values[n as usize] ^ if inv { u64::MAX } else { 0 };
        if (vr ^ vn) & valid != 0 {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::equivalent_exhaustive;

    /// A few thousand pseudo-random nodes over 10 inputs: big enough that
    /// the in-loop cancellation checks (every 1024 nodes) actually fire.
    fn chunky_graph() -> Aig {
        let mut g = Aig::new(10);
        let mut lits = g.inputs();
        let mut state = 0x9E37_79B9u64;
        for _ in 0..3000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = lits[(state >> 16) as usize % lits.len()];
            let b = lits[(state >> 40) as usize % lits.len()];
            let l = match state % 3 {
                0 => g.and(a, !b),
                1 => g.xor(a, b),
                _ => g.or(!a, b),
            };
            lits.push(l);
        }
        let out = *lits.last().unwrap();
        g.add_output(out);
        g
    }

    /// A deadline that fires mid-walk stops verification early but the
    /// result is still a valid (partially swept) graph — the sweep never
    /// returns garbage or hangs under a tiny deadline.
    #[test]
    fn tiny_deadline_yields_valid_partial_sweep() {
        let g = chunky_graph();
        let token = crate::cancel::CancelToken::new();
        token.cancel(); // already fired: the earliest possible deadline
        let h = crate::cancel::with_token(&token, || sweep(&g, &SweepConfig::default()));
        equivalent_exhaustive(&g, &h);
        // Same under a real (just-about-to-fire) deadline.
        let token = crate::cancel::CancelToken::with_budget(std::time::Duration::from_nanos(1));
        let h = crate::cancel::with_token(&token, || sweep(&g, &SweepConfig::default()));
        equivalent_exhaustive(&g, &h);
    }

    /// Two structurally different XORs: strash keeps both, sweep merges.
    #[test]
    fn merges_equivalent_structures() {
        let mut g = Aig::new(3);
        let (a, b, c) = (g.input(0), g.input(1), g.input(2));
        let x1 = g.xor(a, b);
        let x2 = {
            let o = g.or(a, b);
            let n = g.and(a, b);
            g.and(o, !n)
        };
        let f = g.mux(c, x1, !x2); // uses both forms
        g.add_output(f);
        let before = g.num_ands();
        let h = sweep(&g, &SweepConfig::default());
        assert!(h.num_ands() < before, "{} -> {}", before, h.num_ands());
        equivalent_exhaustive(&g, &h);
    }

    /// A node that is constant over its support collapses to the constant.
    #[test]
    fn detects_hidden_constants() {
        let mut g = Aig::new(2);
        let (a, b) = (g.input(0), g.input(1));
        // (a | b) & (!a | b) & (a | !b) & (!a | !b) == false, structurally
        // irreducible for strash.
        let t0 = g.or(a, b);
        let t1 = g.or(!a, b);
        let t2 = g.or(a, !b);
        let t3 = g.or(!a, !b);
        let u = g.and(t0, t1);
        let v = g.and(t2, t3);
        let f = g.and(u, v);
        let out = g.or(f, a); // == a once f is known false
        g.add_output(out);
        let h = sweep(&g, &SweepConfig::default());
        equivalent_exhaustive(&g, &h);
        assert_eq!(h.num_ands(), 0, "got {}", h.num_ands());
    }

    /// Complement-equivalent nodes merge through the inverted signature.
    #[test]
    fn merges_complement_pairs() {
        let mut g = Aig::new(2);
        let (a, b) = (g.input(0), g.input(1));
        let x = g.xor(a, b);
        let y = {
            // XNOR built positively: (a & b) | (!a & !b).
            let p = g.and(a, b);
            let q = g.and(!a, !b);
            g.or(p, q)
        };
        let f = g.and(x, !y); // x AND !xnor == x
        g.add_output(f);
        let h = sweep(&g, &SweepConfig::default());
        equivalent_exhaustive(&g, &h);
        assert!(h.num_ands() <= 3, "got {}", h.num_ands());
    }

    #[test]
    fn stimulus_driven_signatures_agree_with_random() {
        use lsml_pla::{Dataset, Pattern};
        let mut g = Aig::new(4);
        let ins = g.inputs();
        let x = g.xor_many(&ins);
        let y = g.and_many(&ins);
        let f = g.or(x, y);
        g.add_output(f);
        let mut rng = StdRng::seed_from_u64(5);
        let mut ds = Dataset::new(4);
        for _ in 0..100 {
            ds.push(Pattern::random(&mut rng, 4), rng.gen());
        }
        let cfg = SweepConfig {
            stimulus: Some(ds.bit_columns()),
            ..SweepConfig::default()
        };
        let h = sweep(&g, &cfg);
        equivalent_exhaustive(&g, &h);
        assert!(h.num_ands() <= g.num_ands());
    }

    /// Two parity chains over the same inputs, in opposite orders, compute
    /// one function, and no other node of one equals a node of the other.
    /// Over 12 inputs the sweep merges the two roots; over 13 their union
    /// support exceeds the limit, so nothing merges.
    #[test]
    fn respects_support_limit() {
        fn opposite_parities(ni: usize) -> Aig {
            let mut g = Aig::new(ni);
            let ins = g.inputs();
            let up = ins[1..].iter().fold(ins[0], |acc, &x| g.xor(acc, x));
            let down = ins[..ni - 1]
                .iter()
                .rev()
                .fold(ins[ni - 1], |acc, &x| g.xor(acc, x));
            g.add_output(up);
            g.add_output(down);
            g
        }
        let g = opposite_parities(MAX_SUPPORT);
        let h = sweep(&g, &SweepConfig::default());
        equivalent_exhaustive(&g, &h);
        assert!(h.num_ands() < g.num_ands(), "the roots should merge");

        let g = opposite_parities(MAX_SUPPORT + 1);
        let h = sweep(&g, &SweepConfig::default());
        assert_eq!(h.num_ands(), g.num_ands(), "nothing may merge");
        // `equivalent_exhaustive` stops at 12 inputs; check all 2^13
        // patterns here.
        for m in 0..(1u64 << 13) {
            let bits: Vec<bool> = (0..13).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(g.eval(&bits), h.eval(&bits), "mismatch at {m:b}");
        }
    }
}
