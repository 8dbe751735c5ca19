//! SIMD-dispatched bitwise kernels: the one place in the tree that counts
//! bits.
//!
//! Every statistics and evaluation hot path in the workspace bottoms out in
//! a handful of loops over packed `u64` words — plain popcounts, fused
//! `AND`/`XOR` popcounts, mask splits, and set-bit weight gathers. This
//! module owns those loops; [`crate::BitColumns`], [`crate::Pattern`],
//! [`crate::TruthTable`] and `lsml_aig::sim` all route through it, so there
//! is exactly one popcount implementation in the tree.
//!
//! # Dispatch contract
//!
//! The best [`Backend`] for the host CPU is selected **once**, on first use,
//! and never changes for the life of the process:
//!
//! * `x86_64` — AVX-512-VPOPCNTDQ where present, else AVX2 (Muła's
//!   nibble-shuffle popcount), else hardware `POPCNT`, else scalar;
//! * `aarch64` — NEON (`CNT` + horizontal add);
//! * anything else — the portable scalar fallback (a 4-way unrolled
//!   `u64::count_ones` loop).
//!
//! Setting **`LSML_FORCE_SCALAR=1`** in the environment pins the active
//! backend to [`Backend::Scalar`] regardless of what the CPU supports (read
//! once, at selection time) — CI runs a whole test leg this way to separate
//! kernel bugs from dispatch bugs. The consolidated table of every
//! `LSML_*` runtime knob (pool width, verifiers, cache budgets) lives in
//! the `lsml_aig::par` module docs.
//!
//! Every accelerated variant is **bit-identical** to the scalar reference:
//! the kernels return integer counts or exact bitwise transforms, so there
//! is no tolerance involved — property tests assert `==` across all
//! backends the host can run (see `tests/kernels_props.rs`). The
//! floating-point weight gathers ([`masked_pair_sums`],
//! [`masked_and_pair_sums`]) visit set bits in ascending example order and
//! are deliberately *not* vectorized: callers (the boosted split search)
//! rely on their accumulation order for bitwise reproducibility against
//! row-major references.
//!
//! Tail policy: kernels operate on whole words and count every set bit they
//! are handed. Callers that pack `n` examples into `ceil(n/64)` words keep
//! the dead tail bits of the last word zero (the [`crate::BitColumns`]
//! invariant), so no masking happens here.
//!
//! # Picking a backend explicitly
//!
//! The `*_with` entry points run a specific backend — that is how the
//! equivalence tests and the `kernels` benchmark compare variants. They
//! panic if the requested backend is not in [`available_backends`] (the
//! dispatcher itself can never pick an unavailable one).

use std::sync::OnceLock;

/// One implementation family of the bitwise kernels.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum Backend {
    /// Portable unrolled `u64::count_ones` loop — the reference every other
    /// backend must match bit-for-bit.
    Scalar,
    /// Hardware `POPCNT` (x86_64): same loop, compiled with the feature
    /// enabled so `count_ones` lowers to one instruction.
    #[cfg(target_arch = "x86_64")]
    Popcnt,
    /// AVX2 nibble-shuffle popcount (Muła), 4 words per vector.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// AVX-512 `VPOPCNTDQ`, 8 words per vector.
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// NEON byte-count (`CNT`) plus horizontal add, 2 words per vector.
    #[cfg(target_arch = "aarch64")]
    Neon,
}

impl Backend {
    /// Short stable name, used by the benchmark JSON and test labels.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Backend::Popcnt => "popcnt",
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => "avx512-vpopcntdq",
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => "neon",
        }
    }
}

/// Backends the host CPU can run, best first, [`Backend::Scalar`] always
/// last. Independent of the `LSML_FORCE_SCALAR` override (tests compare
/// every runnable variant even on the forced-scalar CI leg).
pub fn available_backends() -> &'static [Backend] {
    static AVAILABLE: OnceLock<Vec<Backend>> = OnceLock::new();
    AVAILABLE.get_or_init(|| {
        #[allow(unused_mut)]
        let mut list = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512vpopcntdq")
                && is_x86_feature_detected!("popcnt")
            {
                list.push(Backend::Avx512);
            }
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("popcnt") {
                list.push(Backend::Avx2);
            }
            if is_x86_feature_detected!("popcnt") {
                list.push(Backend::Popcnt);
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            if std::arch::is_aarch64_feature_detected!("neon") {
                list.push(Backend::Neon);
            }
        }
        list.push(Backend::Scalar);
        list
    })
}

/// The backend the dispatched kernels use: the first entry of
/// [`available_backends`], unless `LSML_FORCE_SCALAR=1` pinned it to
/// [`Backend::Scalar`]. Latched on first call.
pub fn active_backend() -> Backend {
    static ACTIVE: OnceLock<Backend> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        if force_scalar() {
            Backend::Scalar
        } else {
            available_backends()[0]
        }
    })
}

/// Whether the environment pins the dispatcher to the scalar backend
/// (`LSML_FORCE_SCALAR` set to anything but empty, `0`, or `false`).
fn force_scalar() -> bool {
    match std::env::var("LSML_FORCE_SCALAR") {
        Ok(v) => {
            let v = v.trim();
            !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false")
        }
        Err(_) => false,
    }
}

fn assert_available(backend: Backend) {
    assert!(
        available_backends().contains(&backend),
        "kernel backend {} is not available on this host",
        backend.name()
    );
}

// ---------------------------------------------------------------------------
// Dispatched popcount kernels.
// ---------------------------------------------------------------------------
//
// The argless entry points dispatch on the latched [`active_backend`] and
// skip the availability check: the dispatcher can only ever hand them an
// available backend, and these sit inside tree-growth and scan inner loops
// where a per-call `Vec::contains` would rival a small popcount itself.
// The `*_with` variants (tests/benches, arbitrary backend) do check.

/// Number of set bits in a packed vector.
#[inline]
pub fn popcount(words: &[u64]) -> u64 {
    // SAFETY: active_backend() only returns entries of available_backends().
    unsafe { popcount_unchecked(active_backend(), words) }
}

/// `|a ∧ b|` over two packed vectors.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
#[inline]
pub fn popcount_and(a: &[u64], b: &[u64]) -> u64 {
    assert_eq!(a.len(), b.len(), "packed length mismatch");
    // SAFETY: active_backend() only returns entries of available_backends().
    unsafe { popcount_and_unchecked(active_backend(), a, b) }
}

/// `|a ∧ b ∧ c|` over three packed vectors.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
#[inline]
pub fn popcount_and3(a: &[u64], b: &[u64], c: &[u64]) -> u64 {
    assert_eq!(a.len(), b.len(), "packed length mismatch");
    assert_eq!(a.len(), c.len(), "packed length mismatch");
    // SAFETY: active_backend() only returns entries of available_backends().
    unsafe { popcount_and3_unchecked(active_backend(), a, b, c) }
}

/// `|a ⊕ b|` over two packed vectors (Hamming distance).
///
/// # Panics
///
/// Panics if the vectors have different lengths.
#[inline]
pub fn popcount_xor(a: &[u64], b: &[u64]) -> u64 {
    assert_eq!(a.len(), b.len(), "packed length mismatch");
    // SAFETY: active_backend() only returns entries of available_backends().
    unsafe { popcount_xor_unchecked(active_backend(), a, b) }
}

/// [`popcount`] on an explicit backend (for tests and benchmarks).
///
/// # Panics
///
/// Panics if `backend` is not in [`available_backends`].
pub fn popcount_with(backend: Backend, words: &[u64]) -> u64 {
    assert_available(backend);
    // SAFETY: availability just checked.
    unsafe { popcount_unchecked(backend, words) }
}

/// [`popcount_and`] on an explicit backend (for tests and benchmarks).
///
/// # Panics
///
/// Panics if `backend` is unavailable or the lengths differ.
pub fn popcount_and_with(backend: Backend, a: &[u64], b: &[u64]) -> u64 {
    assert_eq!(a.len(), b.len(), "packed length mismatch");
    assert_available(backend);
    // SAFETY: availability just checked.
    unsafe { popcount_and_unchecked(backend, a, b) }
}

/// [`popcount_and3`] on an explicit backend (for tests and benchmarks).
///
/// # Panics
///
/// Panics if `backend` is unavailable or the lengths differ.
pub fn popcount_and3_with(backend: Backend, a: &[u64], b: &[u64], c: &[u64]) -> u64 {
    assert_eq!(a.len(), b.len(), "packed length mismatch");
    assert_eq!(a.len(), c.len(), "packed length mismatch");
    assert_available(backend);
    // SAFETY: availability just checked.
    unsafe { popcount_and3_unchecked(backend, a, b, c) }
}

/// [`popcount_xor`] on an explicit backend (for tests and benchmarks).
///
/// # Panics
///
/// Panics if `backend` is unavailable or the lengths differ.
pub fn popcount_xor_with(backend: Backend, a: &[u64], b: &[u64]) -> u64 {
    assert_eq!(a.len(), b.len(), "packed length mismatch");
    assert_available(backend);
    // SAFETY: availability just checked.
    unsafe { popcount_xor_unchecked(backend, a, b) }
}

/// # Safety
///
/// `backend` must be in [`available_backends`] (its CPU features verified).
#[inline]
unsafe fn popcount_unchecked(backend: Backend, words: &[u64]) -> u64 {
    match backend {
        Backend::Scalar => popcount_scalar(words),
        #[cfg(target_arch = "x86_64")]
        Backend::Popcnt => x86::popcount_popcnt(words),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => x86::popcount_avx2(words),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => x86::popcount_avx512(words),
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::popcount_neon(words),
    }
}

/// # Safety
///
/// As [`popcount_unchecked`]; slices must be equal length.
#[inline]
unsafe fn popcount_and_unchecked(backend: Backend, a: &[u64], b: &[u64]) -> u64 {
    match backend {
        Backend::Scalar => popcount_and_scalar(a, b),
        #[cfg(target_arch = "x86_64")]
        Backend::Popcnt => x86::popcount_and_popcnt(a, b),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => x86::popcount_and_avx2(a, b),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => x86::popcount_and_avx512(a, b),
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::popcount_and_neon(a, b),
    }
}

/// # Safety
///
/// As [`popcount_unchecked`]; slices must be equal length.
#[inline]
unsafe fn popcount_and3_unchecked(backend: Backend, a: &[u64], b: &[u64], c: &[u64]) -> u64 {
    match backend {
        Backend::Scalar => popcount_and3_scalar(a, b, c),
        #[cfg(target_arch = "x86_64")]
        Backend::Popcnt => x86::popcount_and3_popcnt(a, b, c),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => x86::popcount_and3_avx2(a, b, c),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => x86::popcount_and3_avx512(a, b, c),
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::popcount_and3_neon(a, b, c),
    }
}

/// # Safety
///
/// As [`popcount_unchecked`]; slices must be equal length.
#[inline]
unsafe fn popcount_xor_unchecked(backend: Backend, a: &[u64], b: &[u64]) -> u64 {
    match backend {
        Backend::Scalar => popcount_xor_scalar(a, b),
        #[cfg(target_arch = "x86_64")]
        Backend::Popcnt => x86::popcount_xor_popcnt(a, b),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => x86::popcount_xor_avx2(a, b),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => x86::popcount_xor_avx512(a, b),
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::popcount_xor_neon(a, b),
    }
}

/// `counts[i] += |values[i] ∧ mask|` for every word — the per-node
/// accumulation loop of AIG signal statistics (`lsml_aig::sim`). Unlike the
/// horizontal kernels above, the counts stay per-word.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn accumulate_and_counts(values: &[u64], mask: u64, counts: &mut [u64]) {
    assert_eq!(values.len(), counts.len(), "packed length mismatch");
    match active_backend() {
        Backend::Scalar => accumulate_and_counts_scalar(values, mask, counts),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the active backend was feature-checked at selection time.
        _ => unsafe { x86::accumulate_and_counts_popcnt(values, mask, counts) },
        #[cfg(target_arch = "aarch64")]
        // NEON has no per-64-bit-lane win over the scalar loop here.
        Backend::Neon => accumulate_and_counts_scalar(values, mask, counts),
    }
}

// ---------------------------------------------------------------------------
// Bitwise transforms and set-bit gathers (backend-independent).
// ---------------------------------------------------------------------------

/// Splits a subset mask by a selector column: `lo[w] = mask[w] ∧ ¬col[w]`,
/// `hi[w] = mask[w] ∧ col[w]`. Memory-bound and auto-vectorized, so there is
/// one implementation for every backend.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn and_split_into(col: &[u64], mask: &[u64], lo: &mut [u64], hi: &mut [u64]) {
    assert_eq!(col.len(), mask.len(), "packed length mismatch");
    assert_eq!(col.len(), lo.len(), "packed length mismatch");
    assert_eq!(col.len(), hi.len(), "packed length mismatch");
    for i in 0..col.len() {
        let (c, m) = (col[i], mask[i]);
        lo[i] = m & !c;
        hi[i] = m & c;
    }
}

/// `out[w] = (a[w] ^ a_compl) & (b[w] ^ b_compl)` for every word — the
/// fanin-AND step of block AIG simulation (`lsml_aig::sweep` computes all
/// of a node's signature words in one call instead of word-at-a-time).
/// Memory-bound and auto-vectorized, so there is one implementation for
/// every backend. Complements are applied as whole-word XOR masks, which
/// can raise dead tail bits; callers mask at consumption time (the sweep
/// hashes signatures under its per-word validity masks).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn fanin_and_into(a: &[u64], a_compl: bool, b: &[u64], b_compl: bool, out: &mut [u64]) {
    assert_eq!(a.len(), b.len(), "packed length mismatch");
    assert_eq!(a.len(), out.len(), "packed length mismatch");
    let ax = if a_compl { u64::MAX } else { 0 };
    let bx = if b_compl { u64::MAX } else { 0 };
    for (o, (&x, &y)) in out.iter_mut().zip(a.iter().zip(b)) {
        *o = (x ^ ax) & (y ^ bx);
    }
}

/// Calls `f` with the index of every set bit of one word (bit `k` of word
/// `w_index` is index `64 * w_index + k`), ascending — the single set-bit
/// walk every gather and scatter in the tree shares.
#[inline]
fn for_each_set_bit_of_word(w_index: usize, word: u64, f: &mut impl FnMut(usize)) {
    let mut rest = word;
    while rest != 0 {
        f(w_index * 64 + rest.trailing_zeros() as usize);
        rest &= rest - 1;
    }
}

/// Calls `f` with the index of every set bit of a packed vector, in
/// ascending index order.
#[inline]
pub fn for_each_set_bit(words: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in words.iter().enumerate() {
        for_each_set_bit_of_word(w, word, &mut f);
    }
}

/// Sums `a[i]` and `b[i]` over the set bits of `mask`, visiting bits in
/// ascending index order. The order is a contract: callers compare against
/// row-major scans bit-for-bit, so this gather must never be reassociated
/// (and therefore has no SIMD variant).
///
/// # Panics
///
/// Panics in debug builds if a set bit indexes past `a`/`b`.
pub fn masked_pair_sums(mask: &[u64], a: &[f64], b: &[f64]) -> (f64, f64) {
    let mut sum_a = 0.0;
    let mut sum_b = 0.0;
    for_each_set_bit(mask, |i| {
        sum_a += a[i];
        sum_b += b[i];
    });
    (sum_a, sum_b)
}

/// Sums `a[i]` and `b[i]` over the set bits of `sel ∧ mask` (one `AND` per
/// word, then the same ascending-order gather as [`masked_pair_sums`]).
///
/// # Panics
///
/// Panics if the mask lengths differ; panics in debug builds if a set bit
/// indexes past `a`/`b`.
pub fn masked_and_pair_sums(sel: &[u64], mask: &[u64], a: &[f64], b: &[f64]) -> (f64, f64) {
    assert_eq!(sel.len(), mask.len(), "packed length mismatch");
    let mut sum_a = 0.0;
    let mut sum_b = 0.0;
    let mut gather = |i: usize| {
        sum_a += a[i];
        sum_b += b[i];
    };
    for (w, (&s, &m)) in sel.iter().zip(mask).enumerate() {
        for_each_set_bit_of_word(w, s & m, &mut gather);
    }
    (sum_a, sum_b)
}

// ---------------------------------------------------------------------------
// Scalar reference implementations.
// ---------------------------------------------------------------------------
//
// The 4-way unroll keeps four independent accumulator chains in flight,
// which matters on the baseline x86-64 target where `count_ones` lowers to
// a multi-instruction bit hack. `#[inline(always)]` lets the `popcnt`
// wrappers inline these bodies under their own target features, so the same
// source compiles to hardware-popcount loops there.

#[inline(always)]
fn popcount_scalar(words: &[u64]) -> u64 {
    let mut chunks = words.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0u64, 0u64, 0u64, 0u64);
    for c in &mut chunks {
        s0 += u64::from(c[0].count_ones());
        s1 += u64::from(c[1].count_ones());
        s2 += u64::from(c[2].count_ones());
        s3 += u64::from(c[3].count_ones());
    }
    let rest: u64 = chunks
        .remainder()
        .iter()
        .map(|w| u64::from(w.count_ones()))
        .sum();
    s0 + s1 + s2 + s3 + rest
}

#[inline(always)]
fn popcount_and_scalar(a: &[u64], b: &[u64]) -> u64 {
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0u64, 0u64, 0u64, 0u64);
    for (x, y) in (&mut ca).zip(&mut cb) {
        s0 += u64::from((x[0] & y[0]).count_ones());
        s1 += u64::from((x[1] & y[1]).count_ones());
        s2 += u64::from((x[2] & y[2]).count_ones());
        s3 += u64::from((x[3] & y[3]).count_ones());
    }
    let rest: u64 = ca
        .remainder()
        .iter()
        .zip(cb.remainder())
        .map(|(&x, &y)| u64::from((x & y).count_ones()))
        .sum();
    s0 + s1 + s2 + s3 + rest
}

#[inline(always)]
fn popcount_and3_scalar(a: &[u64], b: &[u64], c: &[u64]) -> u64 {
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    let mut cc = c.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0u64, 0u64, 0u64, 0u64);
    for ((x, y), z) in (&mut ca).zip(&mut cb).zip(&mut cc) {
        s0 += u64::from((x[0] & y[0] & z[0]).count_ones());
        s1 += u64::from((x[1] & y[1] & z[1]).count_ones());
        s2 += u64::from((x[2] & y[2] & z[2]).count_ones());
        s3 += u64::from((x[3] & y[3] & z[3]).count_ones());
    }
    let rest: u64 = ca
        .remainder()
        .iter()
        .zip(cb.remainder().iter().zip(cc.remainder()))
        .map(|(&x, (&y, &z))| u64::from((x & y & z).count_ones()))
        .sum();
    s0 + s1 + s2 + s3 + rest
}

#[inline(always)]
fn popcount_xor_scalar(a: &[u64], b: &[u64]) -> u64 {
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0u64, 0u64, 0u64, 0u64);
    for (x, y) in (&mut ca).zip(&mut cb) {
        s0 += u64::from((x[0] ^ y[0]).count_ones());
        s1 += u64::from((x[1] ^ y[1]).count_ones());
        s2 += u64::from((x[2] ^ y[2]).count_ones());
        s3 += u64::from((x[3] ^ y[3]).count_ones());
    }
    let rest: u64 = ca
        .remainder()
        .iter()
        .zip(cb.remainder())
        .map(|(&x, &y)| u64::from((x ^ y).count_ones()))
        .sum();
    s0 + s1 + s2 + s3 + rest
}

#[inline(always)]
fn accumulate_and_counts_scalar(values: &[u64], mask: u64, counts: &mut [u64]) {
    for (c, &v) in counts.iter_mut().zip(values) {
        *c += u64::from((v & mask).count_ones());
    }
}

// ---------------------------------------------------------------------------
// x86_64 backends.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    // The hardware-popcount wrappers reuse the scalar bodies: inlined under
    // `target_feature(enable = "popcnt")`, `count_ones` compiles to POPCNT.

    /// # Safety
    ///
    /// Caller must ensure POPCNT is available.
    #[target_feature(enable = "popcnt")]
    pub(super) unsafe fn popcount_popcnt(words: &[u64]) -> u64 {
        super::popcount_scalar(words)
    }

    /// # Safety
    ///
    /// Caller must ensure POPCNT is available.
    #[target_feature(enable = "popcnt")]
    pub(super) unsafe fn popcount_and_popcnt(a: &[u64], b: &[u64]) -> u64 {
        super::popcount_and_scalar(a, b)
    }

    /// # Safety
    ///
    /// Caller must ensure POPCNT is available.
    #[target_feature(enable = "popcnt")]
    pub(super) unsafe fn popcount_and3_popcnt(a: &[u64], b: &[u64], c: &[u64]) -> u64 {
        super::popcount_and3_scalar(a, b, c)
    }

    /// # Safety
    ///
    /// Caller must ensure POPCNT is available.
    #[target_feature(enable = "popcnt")]
    pub(super) unsafe fn popcount_xor_popcnt(a: &[u64], b: &[u64]) -> u64 {
        super::popcount_xor_scalar(a, b)
    }

    /// # Safety
    ///
    /// Caller must ensure POPCNT is available.
    #[target_feature(enable = "popcnt")]
    pub(super) unsafe fn accumulate_and_counts_popcnt(
        values: &[u64],
        mask: u64,
        counts: &mut [u64],
    ) {
        super::accumulate_and_counts_scalar(values, mask, counts);
    }

    /// Muła's AVX2 popcount step: per-byte counts of `v` via two nibble
    /// table lookups, summed into four per-64-bit-lane totals by `VPSADBW`.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[inline(always)]
    unsafe fn lane_counts_avx2(v: __m256i) -> __m256i {
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
            3, 3, 4,
        );
        let low = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low);
        let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
        let bytes = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        _mm256_sad_epu8(bytes, _mm256_setzero_si256())
    }

    /// Horizontal sum of the four 64-bit lanes.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[inline(always)]
    unsafe fn hsum_epi64_avx2(v: __m256i) -> u64 {
        let lo = _mm256_castsi256_si128(v);
        let hi = _mm256_extracti128_si256(v, 1);
        let s = _mm_add_epi64(lo, hi);
        (_mm_cvtsi128_si64(s) as u64).wrapping_add(_mm_extract_epi64(s, 1) as u64)
    }

    /// Generates an AVX2 fused-popcount kernel: 4 words per vector, scalar
    /// remainder (POPCNT — every AVX2 selection also requires it).
    macro_rules! avx2_popcount_kernel {
        ($name:ident, ($($arg:ident),+), $combine:expr, $scalar_combine:expr) => {
            #[target_feature(enable = "avx2,popcnt")]
            // SAFETY contract of every generated kernel: caller must ensure the
            // enabled target features are available on the running CPU.
            pub(super) unsafe fn $name($($arg: &[u64]),+) -> u64 {
                let n = first!($($arg),+).len();
                let vec_end = n - n % 4;
                let mut acc = _mm256_setzero_si256();
                let mut i = 0;
                while i < vec_end {
                    $(
                        #[allow(non_snake_case)]
                        let $arg = _mm256_loadu_si256($arg.as_ptr().add(i) as *const __m256i);
                    )+
                    let v = $combine;
                    acc = _mm256_add_epi64(acc, lane_counts_avx2(v));
                    i += 4;
                }
                let mut total = hsum_epi64_avx2(acc);
                while i < n {
                    $(
                        #[allow(non_snake_case)]
                        let $arg = *$arg.get_unchecked(i);
                    )+
                    total += u64::from(($scalar_combine).count_ones());
                    i += 1;
                }
                total
            }
        };
    }

    macro_rules! first {
        ($head:ident $(, $rest:ident)*) => {
            $head
        };
    }

    avx2_popcount_kernel!(popcount_avx2, (a), a, a);
    avx2_popcount_kernel!(popcount_and_avx2, (a, b), _mm256_and_si256(a, b), a & b);
    avx2_popcount_kernel!(
        popcount_and3_avx2,
        (a, b, c),
        _mm256_and_si256(_mm256_and_si256(a, b), c),
        a & b & c
    );
    avx2_popcount_kernel!(popcount_xor_avx2, (a, b), _mm256_xor_si256(a, b), a ^ b);

    /// Generates an AVX-512 `VPOPCNTDQ` kernel: 8 words per vector.
    macro_rules! avx512_popcount_kernel {
        ($name:ident, ($($arg:ident),+), $combine:expr, $scalar_combine:expr) => {
            #[target_feature(enable = "avx512f,avx512vpopcntdq,popcnt")]
            // SAFETY contract of every generated kernel: caller must ensure the
            // enabled target features are available on the running CPU.
            pub(super) unsafe fn $name($($arg: &[u64]),+) -> u64 {
                let n = first!($($arg),+).len();
                let vec_end = n - n % 8;
                let mut acc = _mm512_setzero_si512();
                let mut i = 0;
                while i < vec_end {
                    $(
                        #[allow(non_snake_case)]
                        let $arg = _mm512_loadu_si512($arg.as_ptr().add(i) as *const _);
                    )+
                    let v = $combine;
                    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
                    i += 8;
                }
                let mut total = _mm512_reduce_add_epi64(acc) as u64;
                while i < n {
                    $(
                        #[allow(non_snake_case)]
                        let $arg = *$arg.get_unchecked(i);
                    )+
                    total += u64::from(($scalar_combine).count_ones());
                    i += 1;
                }
                total
            }
        };
    }

    avx512_popcount_kernel!(popcount_avx512, (a), a, a);
    avx512_popcount_kernel!(popcount_and_avx512, (a, b), _mm512_and_si512(a, b), a & b);
    avx512_popcount_kernel!(
        popcount_and3_avx512,
        (a, b, c),
        _mm512_and_si512(_mm512_and_si512(a, b), c),
        a & b & c
    );
    avx512_popcount_kernel!(popcount_xor_avx512, (a, b), _mm512_xor_si512(a, b), a ^ b);
}

// ---------------------------------------------------------------------------
// aarch64 backend.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::*;

    /// Generates a NEON kernel: 2 words per vector via `CNT` on bytes, then
    /// a horizontal add (16 bytes × ≤8 bits = ≤128, fits the u8 reduction).
    macro_rules! neon_popcount_kernel {
        ($name:ident, ($($arg:ident),+), $combine:expr, $scalar_combine:expr) => {
            #[target_feature(enable = "neon")]
            // SAFETY contract of every generated kernel: caller must ensure the
            // enabled target features are available on the running CPU.
            pub(super) unsafe fn $name($($arg: &[u64]),+) -> u64 {
                let n = first!($($arg),+).len();
                let vec_end = n - n % 2;
                let mut total = 0u64;
                let mut i = 0;
                while i < vec_end {
                    $(
                        #[allow(non_snake_case)]
                        let $arg = vld1q_u64($arg.as_ptr().add(i));
                    )+
                    let v = $combine;
                    total += u64::from(vaddvq_u8(vcntq_u8(vreinterpretq_u8_u64(v))));
                    i += 2;
                }
                while i < n {
                    $(
                        #[allow(non_snake_case)]
                        let $arg = *$arg.get_unchecked(i);
                    )+
                    total += u64::from(($scalar_combine).count_ones());
                    i += 1;
                }
                total
            }
        };
    }

    macro_rules! first {
        ($head:ident $(, $rest:ident)*) => {
            $head
        };
    }

    neon_popcount_kernel!(popcount_neon, (a), a, a);
    neon_popcount_kernel!(popcount_and_neon, (a, b), vandq_u64(a, b), a & b);
    neon_popcount_kernel!(
        popcount_and3_neon,
        (a, b, c),
        vandq_u64(vandq_u64(a, b), c),
        a & b & c
    );
    neon_popcount_kernel!(popcount_xor_neon, (a, b), veorq_u64(a, b), a ^ b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_words(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen()).collect()
    }

    #[test]
    fn scalar_backend_is_always_available_and_last() {
        let backends = available_backends();
        assert_eq!(*backends.last().expect("non-empty"), Backend::Scalar);
        assert!(backends.contains(&active_backend()));
    }

    #[test]
    fn every_backend_matches_scalar_on_all_kernels() {
        for len in [0usize, 1, 3, 4, 5, 7, 8, 15, 16, 33, 100, 257] {
            let a = random_words(len, len as u64 * 3 + 1);
            let b = random_words(len, len as u64 * 5 + 2);
            let c = random_words(len, len as u64 * 7 + 3);
            let want = (
                popcount_with(Backend::Scalar, &a),
                popcount_and_with(Backend::Scalar, &a, &b),
                popcount_and3_with(Backend::Scalar, &a, &b, &c),
                popcount_xor_with(Backend::Scalar, &a, &b),
            );
            for &backend in available_backends() {
                let got = (
                    popcount_with(backend, &a),
                    popcount_and_with(backend, &a, &b),
                    popcount_and3_with(backend, &a, &b, &c),
                    popcount_xor_with(backend, &a, &b),
                );
                assert_eq!(got, want, "backend {} at len {len}", backend.name());
            }
        }
    }

    #[test]
    fn popcount_counts_known_patterns() {
        assert_eq!(popcount(&[]), 0);
        assert_eq!(popcount(&[0, u64::MAX, 1, 0x8000_0000_0000_0000]), 66);
        assert_eq!(popcount_and(&[0b1100, 0b1010], &[0b1010, 0b1010]), 3);
        assert_eq!(popcount_xor(&[0b1100], &[0b1010]), 2);
        assert_eq!(popcount_and3(&[!0], &[0b111], &[0b101]), 2);
    }

    #[test]
    fn and_split_into_partitions() {
        let col = [0b1100u64, 0b1u64];
        let mask = [0b1110u64, 0b11u64];
        let mut lo = [0u64; 2];
        let mut hi = [0u64; 2];
        and_split_into(&col, &mask, &mut lo, &mut hi);
        assert_eq!(lo, [0b0010, 0b10]);
        assert_eq!(hi, [0b1100, 0b01]);
        for w in 0..2 {
            assert_eq!(lo[w] & hi[w], 0);
            assert_eq!(lo[w] | hi[w], mask[w]);
        }
    }

    #[test]
    fn fanin_and_into_applies_complements() {
        let a = [0b1100u64, 0b0101u64];
        let b = [0b1010u64, 0b0011u64];
        let mut out = [0u64; 2];
        fanin_and_into(&a, false, &b, false, &mut out);
        assert_eq!(out, [0b1000, 0b0001]);
        fanin_and_into(&a, true, &b, false, &mut out);
        assert_eq!(out, [0b0010, 0b0010]);
        fanin_and_into(&a, true, &b, true, &mut out);
        assert_eq!(out, [!0b1100 & !0b1010, !0b0101 & !0b0011]);
    }

    #[test]
    fn accumulate_and_counts_matches_scalar() {
        let values = random_words(133, 9);
        let mut counts = vec![0u64; 133];
        let mut expect = vec![0u64; 133];
        let mask = 0x0f0f_f0f0_1234_8888u64;
        accumulate_and_counts(&values, mask, &mut counts);
        accumulate_and_counts_scalar(&values, mask, &mut expect);
        assert_eq!(counts, expect);
        // Accumulation adds on top of prior counts.
        accumulate_and_counts(&values, mask, &mut counts);
        for (got, want) in counts.iter().zip(&expect) {
            assert_eq!(*got, 2 * want);
        }
    }

    #[test]
    fn gathers_visit_ascending_order() {
        let a: Vec<f64> = (0..130).map(|i| (i as f64).sin()).collect();
        let b: Vec<f64> = (0..130).map(|i| (i as f64).cos()).collect();
        let mut mask = vec![0u64; 3];
        for k in (0..130).step_by(3) {
            mask[k / 64] |= 1 << (k % 64);
        }
        let (sa, sb) = masked_pair_sums(&mask, &a, &b);
        let (mut ra, mut rb) = (0.0, 0.0);
        for k in (0..130).step_by(3) {
            ra += a[k];
            rb += b[k];
        }
        assert_eq!(sa.to_bits(), ra.to_bits());
        assert_eq!(sb.to_bits(), rb.to_bits());
        let sel = vec![u64::MAX; 3];
        let (ca, cb) = masked_and_pair_sums(&sel, &mask, &a, &b);
        assert_eq!(ca.to_bits(), ra.to_bits());
        assert_eq!(cb.to_bits(), rb.to_bits());
    }
}
