//! Zigzag scanning and run-length coding of quantized coefficient blocks.
//!
//! The "RL" and "IS" of the RLSQ coprocessor: a quantized 8×8 block is
//! scanned in zigzag order (low frequencies first) and converted to a
//! sequence of `(run, level)` pairs — `run` zero coefficients followed by
//! a non-zero `level` — terminated by an end-of-block marker. The inverse
//! direction reconstructs the raster-order block.

use crate::dct::Block;

/// Zigzag scan order: `ZIGZAG[k]` is the raster index of the k-th scanned
/// coefficient.
pub const ZIGZAG: [u8; 64] = [
    0, 1, 8, 16, 9, 2, 3, 10, //
    17, 24, 32, 25, 18, 11, 4, 5, //
    12, 19, 26, 33, 40, 48, 41, 34, //
    27, 20, 13, 6, 7, 14, 21, 28, //
    35, 42, 49, 56, 57, 50, 43, 36, //
    29, 22, 15, 23, 30, 37, 44, 51, //
    58, 59, 52, 45, 38, 31, 39, 46, //
    53, 60, 61, 54, 47, 55, 62, 63,
];

/// One run-length symbol: `run` zeros followed by non-zero `level`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunLevel {
    /// Number of zero coefficients preceding the level (0..=62).
    pub run: u8,
    /// The non-zero coefficient value.
    pub level: i16,
}

/// Run-length encode a quantized block in zigzag order into `out` and
/// return the symbol count: the symbols are `out[..count]`. A block has
/// at most 64 non-zero levels, so `out` always has room. The implicit
/// end-of-block marker is *not* included in the output.
pub fn rle_encode_into(levels: &Block, out: &mut [RunLevel; 64]) -> usize {
    let mut count = 0;
    let mut run: u8 = 0;
    for &zz in ZIGZAG.iter() {
        // Branch-free (levels are sparse and irregular, so a branch would
        // mispredict): every coefficient is written at `count`, and only a
        // non-zero one advances it. `count` is at most the coefficients
        // seen so far, so it stays below 64 here.
        let v = levels[zz as usize];
        out[count] = RunLevel { run, level: v };
        let coded = v != 0;
        count += coded as usize;
        run = if coded { 0 } else { run + 1 };
    }
    count
}

/// Error from [`rle_decode`]: the symbols overflow the 64-coefficient
/// block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RleOverflow;

impl std::fmt::Display for RleOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "run/level sequence overflows the 8x8 block")
    }
}

impl std::error::Error for RleOverflow {}

/// Reconstruct a raster-order block from run-length symbols.
pub fn rle_decode(symbols: &[RunLevel]) -> Result<Block, RleOverflow> {
    let mut out = [0i16; 64];
    let mut pos: usize = 0;
    for s in symbols {
        pos += s.run as usize;
        if pos >= 64 {
            return Err(RleOverflow);
        }
        out[ZIGZAG[pos] as usize] = s.level;
        pos += 1;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The symbols of `levels`.
    pub(super) fn rle_encode(levels: &Block) -> Vec<RunLevel> {
        let mut out = [RunLevel::default(); 64];
        let count = rle_encode_into(levels, &mut out);
        out[..count].to_vec()
    }

    #[test]
    fn zigzag_is_a_permutation() {
        let mut seen = [false; 64];
        for &z in &ZIGZAG {
            assert!(!seen[z as usize], "duplicate index {z}");
            seen[z as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zigzag_starts_dc_then_low_frequencies() {
        assert_eq!(ZIGZAG[0], 0); // DC
        assert_eq!(ZIGZAG[1], 1); // (0,1)
        assert_eq!(ZIGZAG[2], 8); // (1,0)
        assert_eq!(ZIGZAG[63], 63); // highest frequency last
    }

    #[test]
    fn empty_block_encodes_to_nothing() {
        let b = [0i16; 64];
        assert!(rle_encode(&b).is_empty());
        assert_eq!(rle_decode(&[]).unwrap(), b);
    }

    #[test]
    fn single_dc_coefficient() {
        let mut b = [0i16; 64];
        b[0] = 42;
        let syms = rle_encode(&b);
        assert_eq!(syms, vec![RunLevel { run: 0, level: 42 }]);
        assert_eq!(rle_decode(&syms).unwrap(), b);
    }

    #[test]
    fn runs_counted_in_zigzag_order() {
        let mut b = [0i16; 64];
        b[0] = 5; // scan pos 0
        b[16] = -3; // raster 16 = zigzag pos 3
        let syms = rle_encode(&b);
        assert_eq!(
            syms,
            vec![
                RunLevel { run: 0, level: 5 },
                RunLevel { run: 2, level: -3 }
            ]
        );
        assert_eq!(rle_decode(&syms).unwrap(), b);
    }

    #[test]
    fn last_coefficient_round_trips() {
        let mut b = [0i16; 64];
        b[63] = 7; // zigzag pos 63 -> run of 63
        let syms = rle_encode(&b);
        assert_eq!(syms, vec![RunLevel { run: 63, level: 7 }]);
        assert_eq!(rle_decode(&syms).unwrap(), b);
    }

    #[test]
    fn overflow_detected() {
        let syms = vec![
            RunLevel { run: 63, level: 1 },
            RunLevel { run: 0, level: 1 },
        ];
        assert_eq!(rle_decode(&syms), Err(RleOverflow));
        let syms = vec![RunLevel { run: 64, level: 1 }];
        assert_eq!(rle_decode(&syms), Err(RleOverflow));
    }

    #[test]
    fn dense_block_round_trips() {
        let mut b = [0i16; 64];
        for (i, v) in b.iter_mut().enumerate() {
            *v = (i as i16 % 5) - 2; // includes zeros
        }
        let syms = rle_encode(&b);
        assert_eq!(rle_decode(&syms).unwrap(), b);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::rle_encode;
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Encode→decode reproduces any block exactly.
        #[test]
        fn rle_round_trip(samples in proptest::collection::vec(-300i16..=300, 64)) {
            let mut b = [0i16; 64];
            b.copy_from_slice(&samples);
            let syms = rle_encode(&b);
            prop_assert_eq!(rle_decode(&syms).unwrap(), b);
        }

        /// Symbol count equals the number of non-zero coefficients.
        #[test]
        fn symbol_count_is_nonzero_count(samples in proptest::collection::vec(-4i16..=4, 64)) {
            let mut b = [0i16; 64];
            b.copy_from_slice(&samples);
            let nz = b.iter().filter(|&&v| v != 0).count();
            prop_assert_eq!(rle_encode(&b).len(), nz);
        }
    }
}
