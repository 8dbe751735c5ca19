//! `expf` and the logistic sigmoid, in the crate.
//!
//! [`expf`] is a port of glibc 2.36's `expf`
//! (`sysdeps/ieee754/flt-32/e_expf.c`) as glibc builds it for hosts with
//! FMA (`__expf_fma`), so it returns `f32::exp`'s bits there. All the
//! arithmetic is in `f64`:
//!
//! * range reduction: `z = x · 32/ln 2`, `kd = round(z)` by adding and
//!   subtracting `0x1.8p52`, and `r = fma(32/ln 2, x, −kd)` (only the fused
//!   form matches glibc's);
//! * scale: `s = 2^(k/32)`, read from [`TAB`] with `k`'s high bits added to
//!   the exponent;
//! * result: `fma(fma(C0, r, C1), r², fma(C2, r, 1)) · s`, rounded to `f32`.
//!
//! Inputs with `|x| ≥ 88` or NaN are checked first, as glibc does: `−inf`
//! gives 0, inf and NaN give `x + x`, `x > 0x1.62e42ep6` gives inf and
//! `x < −0x1.9fe368p6` gives 0; the rest take the main path. Every step is
//! a correctly rounded IEEE operation in a fixed order, so the bits are the
//! same on every host (a NaN's payload aside); they equal the host's libm
//! wherever that libm is glibc's FMA variant (an ignored test below
//! compares all 2^32 inputs).
//!
//! [`sigmoid_all`] is the sigmoid over a slice: one pass decides whether
//! any value needs the checks, and when none does (the common case) the
//! main path runs over the slice without a branch, so it vectorizes.

/// glibc's `__exp2f_data.tab`: `TAB[i] = bits(2^(i/32)) − (i << 47)`, so
/// adding `k << 47` for `k ≡ i (mod 32)` gives the bits of `2^(k/32)`.
const TAB: [u64; 32] = [
    0x3ff0_0000_0000_0000,
    0x3fef_d9b0_d315_8574,
    0x3fef_b558_6cf9_890f,
    0x3fef_9301_d012_5b51,
    0x3fef_72b8_3c7d_517b,
    0x3fef_5487_3168_b9aa,
    0x3fef_387a_6e75_6238,
    0x3fef_1e9d_f51f_dee1,
    0x3fef_06fe_0a31_b715,
    0x3fee_f1a7_373a_a9cb,
    0x3fee_dea6_4c12_3422,
    0x3fee_ce08_6061_892d,
    0x3fee_bfda_d536_2a27,
    0x3fee_b42b_569d_4f82,
    0x3fee_ab07_dd48_5429,
    0x3fee_a47e_b03a_5585,
    0x3fee_a09e_667f_3bcd,
    0x3fee_9f75_e8ec_5f74,
    0x3fee_a114_73eb_0187,
    0x3fee_a589_994c_ce13,
    0x3fee_ace5_422a_a0db,
    0x3fee_b737_b0cd_c5e5,
    0x3fee_c491_82a3_f090,
    0x3fee_d503_b23e_255d,
    0x3fee_e89f_995a_d3ad,
    0x3fee_ff76_f2fb_5e47,
    0x3fef_199b_dd85_529c,
    0x3fef_3720_dcef_9069,
    0x3fef_5818_dcfb_a487,
    0x3fef_7c97_337b_9b5f,
    0x3fef_a4af_a2a4_90da,
    0x3fef_d076_5b6e_4540,
];

/// `0x1.71547652b82fep0 · 32`: 32/ln 2.
const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `0x1.8p52`: adding it rounds a value of magnitude below 2^51 to an
/// integer, which lands in the low mantissa bits.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// `0x1.c6af84b912394p-5 / 32³`.
const C0: f64 = f64::from_bits(0x3ebc_6af8_4b91_2394);
/// `0x1.ebfce50fac4f3p-3 / 32²`.
const C1: f64 = f64::from_bits(0x3f2e_bfce_50fa_c4f3);
/// `0x1.62e42ff0c52d6p-1 / 32`.
const C2: f64 = f64::from_bits(0x3f96_2e42_ff0c_52d6);

/// The top 12 bits of `88.0f32`, sign cleared.
const TOP12_88: u32 = 0x42b;
/// The top 12 bits of `f32::INFINITY`.
const TOP12_INF: u32 = 0x7f8;
/// `0x1.62e42ep6`: above it, `e^x` overflows.
const OVERFLOW: f32 = f32::from_bits(0x42b1_7217);
/// `−0x1.9fe368p6`: below it, `e^x` rounds to zero.
const UNDERFLOW: f32 = f32::from_bits(0xc2cf_f1b4);

/// The top 12 bits of `x`, sign cleared.
#[inline(always)]
fn abstop(x: f32) -> u32 {
    (x.to_bits() >> 20) & 0x7ff
}

/// Whether `x` (or `−x`) needs [`expf`]'s checks: `|x| ≥ 88` or NaN.
#[inline(always)]
fn needs_check(x: f32) -> bool {
    abstop(x) >= TOP12_88
}

/// [`expf`] without the checks, for `|x| < 88`.
#[inline(always)]
fn exp_main(x: f32) -> f32 {
    let xd = f64::from(x);
    let kd = INV_LN2_N * xd + SHIFT;
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = INV_LN2_N.mul_add(xd, -kd);
    let s = f64::from_bits(TAB[(ki % 32) as usize].wrapping_add(ki << 47));
    let y = C0.mul_add(r, C1).mul_add(r * r, C2.mul_add(r, 1.0));
    (y * s) as f32
}

/// `e^x`, with the bits of glibc 2.36's `expf` on FMA hosts.
pub(crate) fn expf(x: f32) -> f32 {
    if needs_check(x) {
        if x == f32::NEG_INFINITY {
            return 0.0;
        }
        if abstop(x) >= TOP12_INF {
            return x + x;
        }
        if x > OVERFLOW {
            return f32::INFINITY;
        }
        if x < UNDERFLOW {
            return 0.0;
        }
    }
    exp_main(x)
}

/// The logistic sigmoid `1 / (1 + e^−x)`.
pub(crate) fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + expf(-x))
}

/// [`sigmoid`] over a slice, in place.
pub(crate) fn sigmoid_all(values: &mut [f32]) {
    if values.iter().fold(false, |any, &x| any | needs_check(x)) {
        for x in values {
            *x = sigmoid(*x);
        }
    } else {
        for x in values {
            *x = 1.0 / (1.0 + exp_main(-*x));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_holds_the_powers_of_two() {
        for (i, &t) in TAB.iter().enumerate() {
            let i = i as u64;
            let want = (i as f64 / 32.0).exp2().to_bits();
            assert_eq!(t.wrapping_add(i << 47), want, "entry {i}");
        }
    }

    #[test]
    fn special_inputs_follow_glibc() {
        assert_eq!(expf(f32::NEG_INFINITY).to_bits(), 0);
        assert_eq!(expf(f32::INFINITY), f32::INFINITY);
        assert!(expf(f32::NAN).is_nan());
        assert_eq!(expf(OVERFLOW.next_up()), f32::INFINITY);
        assert!(expf(OVERFLOW).is_finite());
        assert_eq!(expf(UNDERFLOW.next_down()).to_bits(), 0);
        assert_eq!(expf(0.0), 1.0);
        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(sigmoid(f32::NEG_INFINITY), 0.0);
        assert_eq!(sigmoid(f32::INFINITY), 1.0);
    }

    #[test]
    fn the_slice_form_takes_the_checked_path_when_it_must() {
        // Values past ±88, with one in range: the slice form must give
        // each value the scalar bits.
        let xs = [-200.0f32, -88.0, 0.25, 88.0, 103.5, f32::INFINITY, 3.0];
        let mut ys = xs;
        sigmoid_all(&mut ys);
        for (x, y) in xs.iter().zip(ys) {
            assert_eq!(y.to_bits(), sigmoid(*x).to_bits(), "at {x}");
        }
        let mut nan = [1.0, f32::NAN];
        sigmoid_all(&mut nan);
        assert_eq!(nan[0], sigmoid(1.0));
        assert!(nan[1].is_nan());
    }

    #[test]
    fn the_slice_form_matches_the_scalar_form() {
        // Steps of 0.0429 across (−88, 88), so every value takes the
        // branch-free path.
        let xs: Vec<f32> = (0..4099).map(|i| (i as f32 - 2049.0) * 0.042_9).collect();
        let mut ys = xs.clone();
        sigmoid_all(&mut ys);
        for (x, y) in xs.iter().zip(ys) {
            assert_eq!(y.to_bits(), sigmoid(*x).to_bits(), "at {x}");
        }
    }

    /// Every 65,537th bit pattern, then the boundaries.
    fn stride_and_boundaries() -> impl Iterator<Item = f32> {
        let boundaries = [
            88.0f32,
            -88.0,
            OVERFLOW,
            OVERFLOW.next_up(),
            OVERFLOW.next_down(),
            UNDERFLOW,
            UNDERFLOW.next_up(),
            UNDERFLOW.next_down(),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fc0_1234),
            f32::from_bits(0x7f80_0001),
            0.0,
            -0.0,
        ];
        (0..=u32::MAX / 65_537)
            .map(|i| f32::from_bits(i * 65_537))
            .chain(boundaries)
    }

    /// The port's bits on the stride, pinned on every host: they are the
    /// values the libm comparison below checked on a glibc FMA host. A NaN
    /// counts as one value, since its payload follows the host's `x + x`.
    #[test]
    fn stride_and_boundaries_are_pinned() {
        let bytes: Vec<u8> = stride_and_boundaries()
            .map(expf)
            .flat_map(|y| if y.is_nan() { u32::MAX } else { y.to_bits() }.to_le_bytes())
            .collect();
        assert_eq!(lsml_aig::fxhash::fnv1a(&bytes), 0xaeeb_97c0_78be_9616);
    }

    /// The port reproduces glibc's `__expf_fma`, which glibc runs only on
    /// FMA hosts, so the comparisons with the host's libm run only where
    /// that libm is glibc on an FMA host.
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "fma",
        target_os = "linux",
        target_env = "gnu"
    ))]
    mod against_glibc {
        use super::*;

        /// Whether `expf` and `f32::exp` agree on `x`, NaN payloads
        /// included.
        fn agrees(x: f32) -> bool {
            expf(x).to_bits() == x.exp().to_bits()
        }

        #[test]
        fn matches_libm_on_a_stride_and_the_boundaries() {
            for x in stride_and_boundaries() {
                assert!(agrees(x), "at {x} ({:#010x})", x.to_bits());
            }
        }

        /// All 2^32 inputs, on two threads (about 15 s in release):
        /// `cargo test --release -p lsml-neural -- --ignored`.
        #[test]
        #[ignore = "exhaustive; run in release with --ignored"]
        fn matches_libm_on_every_input() {
            let half = 1u64 << 31;
            let check = move |from: u64| {
                (from..from + half)
                    .map(|b| f32::from_bits(b as u32))
                    .filter(|&x| !agrees(x))
                    .map(f32::to_bits)
                    .take(8)
                    .collect::<Vec<u32>>()
            };
            let upper = std::thread::spawn(move || check(half));
            let mut bad = check(0);
            bad.extend(upper.join().expect("worker"));
            assert!(bad.is_empty(), "mismatches at {bad:#010x?}");
        }
    }
}
