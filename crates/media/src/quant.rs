//! Quantization and inverse quantization of DCT coefficient blocks.
//!
//! The RLSQ coprocessor of the Eclipse instance performs (inverse)
//! quantization together with (inverse) scanning and run-length (de)coding
//! — this module is its quantization half. MPEG-2-style: a per-picture
//! quantizer scale `qscale` combined with a per-coefficient weighting
//! matrix (flat for inter blocks, perceptually weighted for intra blocks);
//! the intra DC coefficient is quantized separately with a fixed divisor.
//!
//! Inverse quantization here is the *exact* inverse the decoder applies —
//! encoder reconstruction uses the same function, making quantization the
//! codec's only loss.
//!
//! ## Division by reciprocal multiplication
//!
//! The quantizers divide a numerator `n` by `d = w · qscale`, for the
//! matrix weight `w` ≤ 83 of the coefficient, so `d` < 2^15. Here `n` is
//! `16 · c` for an `i16` coefficient `c`, or that plus `d / 2` for the
//! rounded intra quantizer, so 0 ≤ |n| < 2^20. Instead of an integer
//! division per coefficient, they multiply by `m = ⌈2^40 / d⌉`, taken
//! from a table per `qscale`, and shift right by 40.
//!
//! The quotient is exact. Write `m · d = 2^40 + e` with 0 ≤ e < d, and
//! `n = q · d + r` with 0 ≤ r < d. Then
//! `n · m / 2^40 = q + (r + n · e / 2^40) / d`.
//! Because `n · e < 2^20 · 2^16 ≤ 2^40`, the bracket is below `r + 1 ≤ d`,
//! so the fraction is below 1 and `(n · m) >> 40 = q`, the quotient an
//! integer division gives.

use crate::dct::Block;

/// The shift of the reciprocal multipliers: `m = ⌈2^RECIP_SHIFT / d⌉`.
const RECIP_SHIFT: u32 = 40;

/// `table[qscale][i]`: the multiplier `⌈2^40 / (matrix[i] · qscale)⌉`,
/// with qscale 0 taken as 1, as the quantizers do.
const fn reciprocals(matrix: &[u8; 64]) -> [[u64; 64]; 256] {
    let mut table = [[0u64; 64]; 256];
    let mut q = 0;
    while q < 256 {
        let qscale = if q == 0 { 1 } else { q as u64 };
        let mut i = 0;
        while i < 64 {
            table[q][i] = (1u64 << RECIP_SHIFT).div_ceil(matrix[i] as u64 * qscale);
            i += 1;
        }
        q += 1;
    }
    table
}

static INTRA_RECIP: [[u64; 64]; 256] = reciprocals(&INTRA_MATRIX);
static INTER_RECIP: [[u64; 64]; 256] = reciprocals(&INTER_MATRIX);

/// `n / d` for `n < 2^20`, given `d`'s multiplier `m` (see the module
/// docs).
#[inline(always)]
fn recip_div(n: u32, m: u64) -> u32 {
    ((n as u64 * m) >> RECIP_SHIFT) as u32
}

/// `mag` with the sign of `n`, as an integer division of `n` would give
/// it; wraps into `i16` like the division's `as i16` did. Branch-free:
/// coefficient signs are random, so a branch would mispredict.
#[inline(always)]
fn signed(n: i32, mag: u32) -> i16 {
    let sign = n >> 31;
    ((mag as i32 ^ sign) - sign) as i16
}

/// Divisor for the intra DC coefficient (MPEG-2's 8-bit DC precision).
pub const DC_DIV: i32 = 8;

/// Default intra weighting matrix (the MPEG-2 default, raster order).
pub const INTRA_MATRIX: [u8; 64] = [
    8, 16, 19, 22, 26, 27, 29, 34, //
    16, 16, 22, 24, 27, 29, 34, 37, //
    19, 22, 26, 27, 29, 34, 34, 38, //
    22, 22, 26, 27, 29, 34, 37, 40, //
    22, 26, 27, 29, 32, 35, 40, 48, //
    26, 27, 29, 32, 35, 40, 48, 58, //
    26, 27, 29, 34, 38, 46, 56, 69, //
    27, 29, 35, 38, 46, 56, 69, 83,
];

/// Flat inter weighting matrix.
pub const INTER_MATRIX: [u8; 64] = [16; 64];

/// Quantize an intra block: DC via [`DC_DIV`], AC via matrix + qscale.
///
/// Rounding is to-nearest for intra AC (matching MPEG-2's intra
/// quantizer).
pub fn quant_intra(coefs: &Block, qscale: u8) -> Block {
    let q = qscale.max(1) as u32;
    let recip = &INTRA_RECIP[qscale as usize];
    let mut out = [0i16; 64];
    out[0] = div_round(coefs[0] as i32, DC_DIV) as i16;
    for i in 1..64 {
        // Round to nearest: `(|n| + d / 2) / d`, with the sign of `n`.
        let n = coefs[i] as i32 * 16;
        let half = INTRA_MATRIX[i] as u32 * q / 2;
        out[i] = signed(n, recip_div(n.unsigned_abs() + half, recip[i]));
    }
    out
}

/// Inverse-quantize an intra block.
pub fn dequant_intra(levels: &Block, qscale: u8) -> Block {
    let q = qscale.max(1) as u32;
    let mut out = [0i16; 64];
    out[0] = sat12(levels[0] as i32 * DC_DIV);
    for i in 1..64 {
        let l = levels[i] as i32;
        if l == 0 {
            continue;
        }
        // `(l * w * q) / 16` truncates toward zero; computing the
        // magnitude unsigned and re-applying the sign truncates the same
        // way while letting the division lower to a shift.
        let w = INTRA_MATRIX[i] as u32;
        let mag = (l.unsigned_abs() * w * q / 16) as i32;
        out[i] = sat12(if l < 0 { -mag } else { mag });
    }
    out
}

/// Quantize an inter (residual) block: flat matrix, truncation toward zero
/// with a dead zone (matching MPEG-2's inter quantizer bias).
pub fn quant_inter(coefs: &Block, qscale: u8) -> Block {
    let recip = &INTER_RECIP[qscale as usize];
    let mut out = [0i16; 64];
    for i in 0..64 {
        // Truncation toward zero => dead zone around zero.
        let n = coefs[i] as i32 * 16;
        out[i] = signed(n, recip_div(n.unsigned_abs(), recip[i]));
    }
    out
}

/// Inverse-quantize an inter block (with the MPEG-style half-step
/// reconstruction offset away from zero).
pub fn dequant_inter(levels: &Block, qscale: u8) -> Block {
    let q = qscale.max(1) as i32;
    let mut out = [0i16; 64];
    for i in 0..64 {
        let l = levels[i] as i32;
        // Branch-free (selects, which vectorize): the numerator is
        // positive, so `>> 5` is the truncating `/ 32`. At most
        // `(2 * 32,768 + 1) * 16 * 255 < 2^31`.
        let w = INTER_MATRIX[i] as i32;
        let mag = ((2 * l.abs() + 1) * w * q) >> 5;
        let v = if l < 0 { -mag } else { mag };
        out[i] = sat12(if l == 0 { 0 } else { v });
    }
    out
}

#[inline]
fn div_round(num: i32, div: i32) -> i32 {
    debug_assert!(div > 0);
    if num >= 0 {
        (num + div / 2) / div
    } else {
        -((-num + div / 2) / div)
    }
}

#[inline]
fn sat12(v: i32) -> i16 {
    v.clamp(-2048, 2047) as i16
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_block() -> Block {
        let mut b = [0i16; 64];
        for (i, v) in b.iter_mut().enumerate() {
            *v = ((i as i32 * 37 % 401) - 200) as i16;
        }
        b[0] = 512;
        b
    }

    #[test]
    fn intra_dc_uses_fixed_divisor() {
        let mut b = [0i16; 64];
        b[0] = 800;
        let q = quant_intra(&b, 31);
        assert_eq!(q[0], 100); // 800 / 8
        let d = dequant_intra(&q, 31);
        assert_eq!(d[0], 800);
    }

    #[test]
    fn higher_qscale_means_fewer_levels() {
        let b = test_block();
        let fine = quant_intra(&b, 2);
        let coarse = quant_intra(&b, 30);
        let nonzero = |levels: &Block| levels.iter().filter(|&&l| l != 0).count();
        assert!(nonzero(&coarse) < nonzero(&fine));
    }

    #[test]
    fn intra_quant_dequant_bounded_error() {
        let b = test_block();
        for qscale in [1u8, 2, 4, 8, 16, 31] {
            let levels = quant_intra(&b, qscale);
            let rec = dequant_intra(&levels, qscale);
            for i in 1..64 {
                let step = (INTRA_MATRIX[i] as i32 * qscale as i32) / 16 + 2;
                let err = (rec[i] - b[i]).abs() as i32;
                assert!(
                    err <= step,
                    "q={qscale} coef {i}: err {err} > step {step} ({} -> {} -> {})",
                    b[i],
                    levels[i],
                    rec[i]
                );
            }
        }
    }

    #[test]
    fn inter_quant_dequant_bounded_error() {
        let b = test_block();
        for qscale in [1u8, 2, 4, 8, 16, 31] {
            let levels = quant_inter(&b, qscale);
            let rec = dequant_inter(&levels, qscale);
            for i in 0..64 {
                let step = (INTER_MATRIX[i] as i32 * qscale as i32) / 8;
                let err = (rec[i] - b[i]).abs() as i32;
                assert!(
                    err <= step.max(2),
                    "q={qscale} coef {i}: err {err} > {step}"
                );
            }
        }
    }

    #[test]
    fn inter_dead_zone_zeros_small_coefficients() {
        let mut b = [0i16; 64];
        b[5] = 3;
        b[9] = -3;
        let levels = quant_inter(&b, 16);
        assert_eq!(levels[5], 0);
        assert_eq!(levels[9], 0);
        // And dequant of zero is zero.
        assert_eq!(dequant_inter(&levels, 16)[5], 0);
    }

    #[test]
    fn dequant_saturates_extreme_levels() {
        let mut levels = [0i16; 64];
        levels[0] = 2000;
        levels[63] = 2000;
        let d = dequant_intra(&levels, 31);
        assert!(d[0] <= 2047 && d[63] <= 2047);
    }

    #[test]
    fn quant_is_sign_symmetric() {
        let b = test_block();
        let mut neg = [0i16; 64];
        for i in 0..64 {
            neg[i] = -b[i];
        }
        for qscale in [2u8, 8, 24] {
            let qp = quant_intra(&b, qscale);
            let qn = quant_intra(&neg, qscale);
            for i in 0..64 {
                assert_eq!(qp[i], -qn[i], "intra q={qscale} coef {i}");
            }
            let qp = quant_inter(&b, qscale);
            let qn = quant_inter(&neg, qscale);
            for i in 0..64 {
                assert_eq!(qp[i], -qn[i], "inter q={qscale} coef {i}");
            }
        }
    }
}

/// [`dequant_inter`] is checked bit for bit against its former,
/// branching form, and the reciprocal quantizers against their former
/// integer divisions.
#[cfg(test)]
mod equivalence {
    use super::*;
    use eclipse_sim::rng::SplitMix64;

    fn quant_intra_idiv(coefs: &Block, qscale: u8) -> Block {
        let q = qscale.max(1) as i32;
        let mut out = [0i16; 64];
        out[0] = div_round(coefs[0] as i32, DC_DIV) as i16;
        for i in 1..64 {
            let w = INTRA_MATRIX[i] as i32;
            out[i] = div_round(coefs[i] as i32 * 16, w * q) as i16;
        }
        out
    }

    fn quant_inter_idiv(coefs: &Block, qscale: u8) -> Block {
        let q = qscale.max(1) as i32;
        let mut out = [0i16; 64];
        for i in 0..64 {
            let w = INTER_MATRIX[i] as i32;
            out[i] = (coefs[i] as i32 * 16 / (w * q)) as i16;
        }
        out
    }

    /// Every matrix weight × qscale 1..=255: the reciprocal division
    /// equals the integer division on both sides of every quotient
    /// boundary the quantizers' numerators reach (up to `16 · 2^15 + d/2`).
    #[test]
    fn reciprocal_division_is_exact_at_every_quotient_boundary() {
        for (matrix, table) in [(&INTRA_MATRIX, &INTRA_RECIP), (&INTER_MATRIX, &INTER_RECIP)] {
            let mut weights_seen = [false; 256];
            for (i, &w) in matrix.iter().enumerate() {
                if std::mem::replace(&mut weights_seen[w as usize], true) {
                    continue;
                }
                for q in 1..=255u32 {
                    let d = w as u32 * q;
                    let max_n = 16 * 32_768 + d / 2;
                    let m = table[q as usize][i];
                    for k in 0..=max_n / d + 1 {
                        for n in [k * d, (k * d).saturating_sub(1)] {
                            if n <= max_n {
                                assert_eq!(recip_div(n, m), n / d, "{n} / ({w} * {q})");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn quantizers_match_integer_division() {
        let mut rng = SplitMix64::new(0x0A47);
        for qscale in 0..=255u8 {
            for round in 0..8 {
                let mut coefs = [0i16; 64];
                for c in coefs.iter_mut() {
                    let r = rng.next_u64();
                    *c = match (r >> 60) % 4 {
                        0 => (r % 512) as i16 - 256,
                        _ if round == 0 => [i16::MIN, i16::MAX, -1, 1][(r % 4) as usize],
                        _ => r as u16 as i16,
                    };
                }
                assert_eq!(
                    quant_intra(&coefs, qscale),
                    quant_intra_idiv(&coefs, qscale)
                );
                assert_eq!(
                    quant_inter(&coefs, qscale),
                    quant_inter_idiv(&coefs, qscale)
                );
            }
        }
    }

    fn dequant_inter_branchy(levels: &Block, qscale: u8) -> Block {
        let q = qscale.max(1) as u32;
        let mut out = [0i16; 64];
        for i in 0..64 {
            let l = levels[i] as i32;
            if l == 0 {
                continue;
            }
            let w = INTER_MATRIX[i] as u32;
            let mag = ((2 * l.unsigned_abs() + 1) * w * q / 32) as i32;
            out[i] = sat12(if l < 0 { -mag } else { mag });
        }
        out
    }

    #[test]
    fn dequant_inter_matches_branchy_oracle() {
        let mut rng = SplitMix64::new(0x0DE0);
        for qscale in 0..=255u8 {
            for round in 0..40 {
                let mut levels = [0i16; 64];
                for l in levels.iter_mut() {
                    let r = rng.next_u64();
                    // Small levels, zeros and the whole i16 range.
                    *l = match (r >> 60) % 4 {
                        0 => 0,
                        1 => (r % 64) as i16 - 32,
                        _ if round == 0 => [i16::MIN, i16::MAX, -1, 1][(r % 4) as usize],
                        _ => r as u16 as i16,
                    };
                }
                assert_eq!(
                    dequant_inter(&levels, qscale),
                    dequant_inter_branchy(&levels, qscale),
                    "qscale {qscale}, levels {levels:?}"
                );
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Reconstruction error of the intra path is bounded by one
        /// quantizer step for every coefficient.
        #[test]
        fn intra_error_bounded(samples in proptest::collection::vec(-1024i16..=1024, 64), qscale in 1u8..=31) {
            let mut b = [0i16; 64];
            b.copy_from_slice(&samples);
            let rec = dequant_intra(&quant_intra(&b, qscale), qscale);
            prop_assert!((rec[0] - b[0]).abs() <= DC_DIV as i16 / 2 + 1);
            for i in 1..64 {
                let step = (INTRA_MATRIX[i] as i32 * qscale as i32) / 16 + 2;
                prop_assert!(((rec[i] - b[i]).abs() as i32) <= step, "coef {}", i);
            }
        }

        /// Inter path error bounded by ~one step (dead zone included).
        #[test]
        fn inter_error_bounded(samples in proptest::collection::vec(-1024i16..=1024, 64), qscale in 1u8..=31) {
            let mut b = [0i16; 64];
            b.copy_from_slice(&samples);
            let rec = dequant_inter(&quant_inter(&b, qscale), qscale);
            for i in 0..64 {
                let step = (INTER_MATRIX[i] as i32 * qscale as i32) / 8 + 2;
                prop_assert!(((rec[i] - b[i]).abs() as i32) <= step, "coef {}", i);
            }
        }
    }
}
