//! Integer 8×8 forward and inverse DCT.
//!
//! The DCT coprocessor of the paper's Eclipse instance time-shares the
//! forward DCT (encoding) and inverse DCT (decoding) functions. This
//! module is the *functional* kernel both the software codec and the
//! simulated coprocessor execute, so the two produce identical results.
//!
//! The implementation is a separable fixed-point orthonormal DCT-II with a
//! 13-bit cosine table and 32-bit accumulation in both passes (the bound
//! is proved on the table `T`). Encoder reconstruction and decoder use
//! the same [`idct2d`], so quantization is the only source of loss in the
//! codec.

/// Number of coefficients / samples in an 8x8 block.
pub const BLOCK_LEN: usize = 64;

/// A block of spatial samples or transform coefficients in raster order.
pub type Block = [i16; BLOCK_LEN];

/// Fixed-point scale: 13 fractional bits.
const SCALE_BITS: u32 = 13;

/// `T[u][x] = round(2^13 * c(u)/2 * cos((2x+1) u pi / 16))` with
/// `c(0) = 1/sqrt(2)`, `c(u) = 1` otherwise (a test recomputes it).
///
/// Why i32 accumulators cannot overflow for any i16 input: every column
/// sum `Σ_u |T[u][x]|` is 21,641 and every row sum `Σ_x |T[u][x]|` is at
/// most 23,168 (rows 0 and 4). The inverse transform contracts over `u`
/// in both passes: its first pass reaches at most
/// `32,768 · 21,641 / 2^13 = 86,564` (plus rounding, `<= 86,565`), and
/// its second at most `86,565 · 21,641 = 1,873,353,165 < 2^31`. The
/// forward transform contracts over `x`: `32,768 · 23,168 / 2^13 =
/// 92,672`, then `92,672 · 23,168 = 2,147,024,896`, which still leaves
/// room for the rounding add below `2^31 - 1 = 2,147,483,647`.
const T: [[i32; 8]; 8] = [
    [2896, 2896, 2896, 2896, 2896, 2896, 2896, 2896],
    [4017, 3406, 2276, 799, -799, -2276, -3406, -4017],
    [3784, 1567, -1567, -3784, -3784, -1567, 1567, 3784],
    [3406, -799, -4017, -2276, 2276, 4017, 799, -3406],
    [2896, -2896, -2896, 2896, 2896, -2896, -2896, 2896],
    [2276, -4017, 799, 3406, -3406, -799, 4017, -2276],
    [1567, -3784, 3784, -1567, -1567, 3784, -3784, 1567],
    [799, -2276, 3406, -4017, 4017, -3406, 2276, -799],
];

/// `T` transposed: `TT[x][u] = T[u][x]`, so every pass runs its inner
/// loop over a contiguous row of eight lanes.
const TT: [[i32; 8]; 8] = {
    let mut tt = [[0; 8]; 8];
    let mut u = 0;
    while u < 8 {
        let mut x = 0;
        while x < 8 {
            tt[x][u] = T[u][x];
            x += 1;
        }
        u += 1;
    }
    tt
};

#[inline]
fn descale(x: i32) -> i32 {
    (x + (1 << (SCALE_BITS - 1))) >> SCALE_BITS
}

/// Forward 8×8 DCT. Input: spatial samples (typically -255..=255 residuals
/// or level-shifted pixels). Output: transform coefficients.
pub fn fdct2d(input: &Block) -> Block {
    // Rows: tmp[y][u] = Σ_x input[y][x] T[u][x]. Integer sums are exact,
    // so accumulating lane-wise in any order gives the same result.
    let mut tmp = [[0i32; 8]; 8];
    for (y, acc) in tmp.iter_mut().enumerate() {
        for (x, t) in TT.iter().enumerate() {
            let s = input[y * 8 + x] as i32;
            for u in 0..8 {
                acc[u] += s * t[u];
            }
        }
        for a in acc.iter_mut() {
            *a = descale(*a);
        }
    }
    // Columns: out[v][u] = Σ_y tmp[y][u] T[v][y].
    let mut out = [0i16; BLOCK_LEN];
    for (v, t) in T.iter().enumerate() {
        let mut acc = [0i32; 8];
        for (y, row) in tmp.iter().enumerate() {
            for u in 0..8 {
                acc[u] += row[u] * t[y];
            }
        }
        for u in 0..8 {
            out[v * 8 + u] = descale(acc[u]).clamp(-2048, 2047) as i16;
        }
    }
    out
}

/// Inverse 8×8 DCT. Input: transform coefficients. Output: spatial samples.
///
/// Sparse blocks (the common case for inter residuals) are shortcut: an
/// all-zero coefficient column leaves its `tmp` row zero without
/// computing it (`descale(0) == 0`), and an all-zero block returns at
/// once, so the exact integer sums are unchanged.
pub fn idct2d(coefs: &Block) -> Block {
    // Columns: tmp[u][y] = descale(Σ_v coefs[v][u] T[v][y]), lane-wise
    // over y.
    let mut tmp = [[0i32; 8]; 8];
    let mut nonzero = false;
    for (u, t_row) in tmp.iter_mut().enumerate() {
        let mut col = [0i32; 8];
        let mut any = 0i16;
        for v in 0..8 {
            col[v] = coefs[v * 8 + u] as i32;
            any |= coefs[v * 8 + u];
        }
        if any == 0 {
            continue;
        }
        nonzero = true;
        for (y, out) in t_row.iter_mut().enumerate() {
            let mut acc = 0i32;
            for v in 0..8 {
                acc += col[v] * T[v][y];
            }
            *out = descale(acc);
        }
    }
    let mut out = [0i16; BLOCK_LEN];
    if !nonzero {
        // All-zero block: descale(0) == 0 and clamp(0) == 0 everywhere.
        return out;
    }
    // Rows: out[y][x] = Σ_u tmp[u][y] T[u][x], lane-wise over x.
    for y in 0..8 {
        let mut acc = [0i32; 8];
        for (t_row, t) in tmp.iter().zip(&T) {
            let s = t_row[y];
            for x in 0..8 {
                acc[x] += s * t[x];
            }
        }
        for x in 0..8 {
            out[y * 8 + x] = descale(acc[x]).clamp(-2048, 2047) as i16;
        }
    }
    out
}

/// Reference double-precision forward DCT, for accuracy tests.
pub fn fdct2d_f64(input: &Block) -> [f64; BLOCK_LEN] {
    let mut out = [0.0; BLOCK_LEN];
    for v in 0..8 {
        for u in 0..8 {
            let cu = if u == 0 { 1.0 / 2f64.sqrt() } else { 1.0 };
            let cv = if v == 0 { 1.0 / 2f64.sqrt() } else { 1.0 };
            let mut acc = 0.0;
            for y in 0..8 {
                for x in 0..8 {
                    acc += input[y * 8 + x] as f64
                        * ((2 * x + 1) as f64 * u as f64 * std::f64::consts::PI / 16.0).cos()
                        * ((2 * y + 1) as f64 * v as f64 * std::f64::consts::PI / 16.0).cos();
                }
            }
            out[v * 8 + u] = 0.25 * cu * cv * acc;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient_block() -> Block {
        let mut b = [0i16; 64];
        for y in 0..8 {
            for x in 0..8 {
                b[y * 8 + x] = (x as i16 * 13 + y as i16 * 7) - 60;
            }
        }
        b
    }

    #[test]
    fn dc_only_block() {
        let b = [100i16; 64];
        let c = fdct2d(&b);
        // Orthonormal DCT: DC = 8 * 100 = 800, all AC ~ 0.
        assert!((c[0] - 800).abs() <= 1, "DC = {}", c[0]);
        for (i, &ac) in c.iter().enumerate().skip(1) {
            assert!(ac.abs() <= 1, "AC[{i}] = {ac}");
        }
    }

    #[test]
    fn integer_matches_f64_reference() {
        let b = gradient_block();
        let int = fdct2d(&b);
        let ref64 = fdct2d_f64(&b);
        for i in 0..64 {
            assert!(
                (int[i] as f64 - ref64[i]).abs() < 1.5,
                "coef {i}: int {} vs f64 {:.3}",
                int[i],
                ref64[i]
            );
        }
    }

    #[test]
    fn round_trip_error_is_tiny() {
        let b = gradient_block();
        let rec = idct2d(&fdct2d(&b));
        for i in 0..64 {
            assert!(
                (rec[i] - b[i]).abs() <= 1,
                "sample {i}: {} vs {}",
                rec[i],
                b[i]
            );
        }
    }

    #[test]
    fn round_trip_on_extremes() {
        let mut b = [0i16; 64];
        for (i, v) in b.iter_mut().enumerate() {
            *v = if i % 2 == 0 { 255 } else { -255 };
        }
        let rec = idct2d(&fdct2d(&b));
        for i in 0..64 {
            assert!(
                (rec[i] - b[i]).abs() <= 2,
                "sample {i}: {} vs {}",
                rec[i],
                b[i]
            );
        }
    }

    #[test]
    fn zero_block_stays_zero() {
        let b = [0i16; 64];
        assert_eq!(fdct2d(&b), [0i16; 64]);
        assert_eq!(idct2d(&b), [0i16; 64]);
    }

    #[test]
    fn linearity_approximately_holds() {
        let b1 = gradient_block();
        let mut b2 = [0i16; 64];
        for (i, v) in b2.iter_mut().enumerate() {
            *v = ((i as i16 * 31) % 97) - 48;
        }
        let mut sum = [0i16; 64];
        for i in 0..64 {
            sum[i] = b1[i] + b2[i];
        }
        let c_sum = fdct2d(&sum);
        let c1 = fdct2d(&b1);
        let c2 = fdct2d(&b2);
        for i in 0..64 {
            assert!((c_sum[i] - (c1[i] + c2[i])).abs() <= 2, "coef {i}");
        }
    }

    #[test]
    fn energy_preservation_parseval() {
        let b = gradient_block();
        let c = fdct2d(&b);
        let es: f64 = b.iter().map(|&x| (x as f64).powi(2)).sum();
        let ec: f64 = c.iter().map(|&x| (x as f64).powi(2)).sum();
        let rel = (es - ec).abs() / es.max(1.0);
        assert!(rel < 0.01, "energy mismatch: spatial {es}, coef {ec}");
    }
}

/// The kernels are checked bit for bit against their former form: the
/// table computed from its formula and dense i64 accumulation.
#[cfg(test)]
mod equivalence {
    use super::*;
    use eclipse_sim::rng::SplitMix64;

    fn formula_table() -> [[i32; 8]; 8] {
        let mut t = [[0i32; 8]; 8];
        for (u, row) in t.iter_mut().enumerate() {
            let cu = if u == 0 { 1.0 / 2f64.sqrt() } else { 1.0 };
            for (x, v) in row.iter_mut().enumerate() {
                let angle = (2.0 * x as f64 + 1.0) * u as f64 * std::f64::consts::PI / 16.0;
                *v = ((1u32 << SCALE_BITS) as f64 * cu * 0.5 * angle.cos()).round() as i32;
            }
        }
        t
    }

    fn descale64(x: i64) -> i32 {
        ((x + (1 << (SCALE_BITS - 1))) >> SCALE_BITS) as i32
    }

    fn fdct2d_i64(input: &Block) -> Block {
        let t = formula_table();
        let mut tmp = [0i32; BLOCK_LEN];
        for y in 0..8 {
            for u in 0..8 {
                let acc: i64 = (0..8)
                    .map(|x| input[y * 8 + x] as i64 * t[u][x] as i64)
                    .sum();
                tmp[y * 8 + u] = descale64(acc);
            }
        }
        let mut out = [0i16; BLOCK_LEN];
        for u in 0..8 {
            for v in 0..8 {
                let acc: i64 = (0..8).map(|y| tmp[y * 8 + u] as i64 * t[v][y] as i64).sum();
                out[v * 8 + u] = descale64(acc).clamp(-2048, 2047) as i16;
            }
        }
        out
    }

    fn idct2d_i64(coefs: &Block) -> Block {
        let t = formula_table();
        let mut tmp = [0i32; BLOCK_LEN];
        for u in 0..8 {
            for y in 0..8 {
                let acc: i64 = (0..8)
                    .map(|v| coefs[v * 8 + u] as i64 * t[v][y] as i64)
                    .sum();
                tmp[y * 8 + u] = descale64(acc);
            }
        }
        let mut out = [0i16; BLOCK_LEN];
        for y in 0..8 {
            for x in 0..8 {
                let acc: i64 = (0..8).map(|u| tmp[y * 8 + u] as i64 * t[u][x] as i64).sum();
                out[y * 8 + x] = descale64(acc).clamp(-2048, 2047) as i16;
            }
        }
        out
    }

    /// A block of `draw()` values where each coefficient is zero with
    /// probability `zeros / 8` (sparse blocks take the skip paths).
    fn block(rng: &mut SplitMix64, zeros: u64, draw: impl Fn(u64) -> i16) -> Block {
        let mut b = [0i16; BLOCK_LEN];
        for v in b.iter_mut() {
            let r = rng.next_u64();
            if r % 8 >= zeros {
                *v = draw(r >> 3);
            }
        }
        b
    }

    #[test]
    fn const_table_is_the_formula_table() {
        assert_eq!(T, formula_table());
        for (u, row) in T.iter().enumerate() {
            for (x, &t) in row.iter().enumerate() {
                assert_eq!(TT[x][u], t);
            }
        }
    }

    #[test]
    fn kernels_match_i64_oracles_on_random_blocks() {
        let mut rng = SplitMix64::new(0xDC7);
        let full = |r: u64| r as u16 as i16;
        let pixels = |r: u64| (r % 511) as i16 - 255;
        for i in 0..20_000u64 {
            let zeros = i % 9;
            let b = block(&mut rng, zeros, if i % 2 == 0 { full } else { pixels });
            assert_eq!(idct2d(&b), idct2d_i64(&b), "idct of {b:?}");
            assert_eq!(fdct2d(&b), fdct2d_i64(&b), "fdct of {b:?}");
        }
    }

    /// The blocks that drive one output of either transform to its
    /// largest magnitude: every input at ±32,768 (`i16::MIN` or
    /// `i16::MAX`), signed so that each first-pass sum and then the
    /// second-pass sum adds only terms of one sign. Debug builds check
    /// every i32 add for overflow.
    #[test]
    fn worst_case_blocks_do_not_overflow() {
        let extreme = |neg: bool, a: i32, b: i32| -> i16 {
            if neg ^ (a < 0) ^ (b < 0) {
                i16::MIN
            } else {
                i16::MAX
            }
        };
        for neg in [false, true] {
            for (k, j) in (0..64).map(|n| (n / 8, n % 8)) {
                // idct output (y = k, x = j): tmp[k][u] takes the sign of
                // T[u][j], from coefs[v][u] signed like T[v][k].
                let c: Block = std::array::from_fn(|i| extreme(neg, T[i % 8][j], T[i / 8][k]));
                assert_eq!(idct2d(&c), idct2d_i64(&c));
                // fdct output (v = k, u = j): tmp[y][j] takes the sign of
                // T[k][y], from input[y][x] signed like T[j][x].
                let s: Block = std::array::from_fn(|i| extreme(neg, T[k][i / 8], T[j][i % 8]));
                assert_eq!(fdct2d(&s), fdct2d_i64(&s));
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// FDCT→IDCT round trip stays within ±2 of the original for any
        /// pixel-range block (the classic IDCT accuracy requirement).
        #[test]
        fn round_trip_bounded_error(samples in proptest::collection::vec(-255i16..=255, 64)) {
            let mut b = [0i16; 64];
            b.copy_from_slice(&samples);
            let rec = idct2d(&fdct2d(&b));
            for i in 0..64 {
                prop_assert!((rec[i] - b[i]).abs() <= 2, "sample {}: {} vs {}", i, rec[i], b[i]);
            }
        }

        /// Coefficients of pixel-range inputs stay within the clamp range
        /// (no saturation in normal operation).
        #[test]
        fn coefficients_do_not_saturate(samples in proptest::collection::vec(-255i16..=255, 64)) {
            let mut b = [0i16; 64];
            b.copy_from_slice(&samples);
            let c = fdct2d(&b);
            // |DC| <= 8*255 = 2040 < 2048; AC bounded similarly.
            for &v in &c {
                prop_assert!((-2048..=2047).contains(&(v as i32)));
            }
        }
    }
}
