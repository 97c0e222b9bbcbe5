//! Audio codec for the DSP-CPU's software audio task.
//!
//! The paper's Figure 8 instance runs "audio decoding ... in software on
//! the media processor (DSP-CPU)" alongside the video coprocessors. This
//! module provides the functional audio codec that task executes: IMA
//! ADPCM (4 bits per sample, predictor + adaptive step size) — a real,
//! widely deployed codec of the era, compact enough to be an obviously
//! software-grain task. (The paper's actual audio would be MPEG-1 audio;
//! per the substitution policy in DESIGN.md what matters is a functional
//! audio path with realistic per-block processing on the DSP.)
//!
//! Streams are mono 16-bit PCM. Encoded blocks carry a 4-byte header
//! (predictor + step index) plus 4-bit codes, so a block of `N` samples
//! occupies `4 + N/2` bytes.

/// Samples per coded block (must be even).
pub const BLOCK_SAMPLES: usize = 256;
/// Encoded bytes per block: header + 4 bits per sample.
pub const BLOCK_BYTES: usize = 4 + BLOCK_SAMPLES / 2;

/// The IMA step-size table.
const STEPS: [i32; 89] = [
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37, 41, 45, 50, 55, 60, 66,
    73, 80, 88, 97, 107, 118, 130, 143, 157, 173, 190, 209, 230, 253, 279, 307, 337, 371, 408, 449,
    494, 544, 598, 658, 724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066, 2272,
    2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894, 6484, 7132, 7845, 8630, 9493,
    10442, 11487, 12635, 13899, 15289, 16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767,
];

/// The IMA index-adjustment table (by code magnitude).
const INDEX_ADJUST: [i32; 8] = [-1, -1, -1, -1, 2, 4, 6, 8];

/// Codec state carried across samples within a block.
#[derive(Debug, Clone, Copy)]
struct AdpcmState {
    predictor: i32,
    step_index: i32,
}

impl AdpcmState {
    fn encode_sample(&mut self, sample: i16) -> u8 {
        let step = STEPS[self.step_index as usize];
        let diff = sample as i32 - self.predictor;
        let mut code: u8 = if diff < 0 { 8 } else { 0 };
        let mut diff = diff.abs();
        let mut delta = step >> 3;
        if diff >= step {
            code |= 4;
            diff -= step;
            delta += step;
        }
        if diff >= step >> 1 {
            code |= 2;
            diff -= step >> 1;
            delta += step >> 1;
        }
        if diff >= step >> 2 {
            code |= 1;
            delta += step >> 2;
        }
        self.predictor = if code & 8 != 0 {
            self.predictor - delta
        } else {
            self.predictor + delta
        };
        self.predictor = self.predictor.clamp(i16::MIN as i32, i16::MAX as i32);
        self.step_index = (self.step_index + INDEX_ADJUST[(code & 7) as usize]).clamp(0, 88);
        code
    }

    fn decode_sample(&mut self, code: u8) -> i16 {
        let step = STEPS[self.step_index as usize];
        let mut delta = step >> 3;
        if code & 4 != 0 {
            delta += step;
        }
        if code & 2 != 0 {
            delta += step >> 1;
        }
        if code & 1 != 0 {
            delta += step >> 2;
        }
        self.predictor = if code & 8 != 0 {
            self.predictor - delta
        } else {
            self.predictor + delta
        };
        self.predictor = self.predictor.clamp(i16::MIN as i32, i16::MAX as i32);
        self.step_index = (self.step_index + INDEX_ADJUST[(code & 7) as usize]).clamp(0, 88);
        self.predictor as i16
    }
}

/// Encode PCM samples into ADPCM blocks (the input is padded with zero
/// samples to a whole number of blocks).
pub fn encode(pcm: &[i16]) -> Vec<u8> {
    let blocks = pcm.len().div_ceil(BLOCK_SAMPLES);
    let mut out = Vec::with_capacity(blocks * BLOCK_BYTES);
    for b in 0..blocks {
        let start = b * BLOCK_SAMPLES;
        let first = pcm.get(start).copied().unwrap_or(0);
        // Start at the smallest step: silence encodes exactly, and the
        // index ramps to loud content within ~a dozen samples.
        let mut state = AdpcmState {
            predictor: first as i32,
            step_index: 0,
        };
        out.extend_from_slice(&first.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());
        let mut nibble: Option<u8> = None;
        for i in 0..BLOCK_SAMPLES {
            let sample = pcm.get(start + i).copied().unwrap_or(0);
            let code = state.encode_sample(sample);
            match nibble.take() {
                None => nibble = Some(code),
                Some(lo) => out.push(lo | (code << 4)),
            }
        }
        debug_assert!(nibble.is_none());
    }
    out
}

/// Decode one ADPCM block into `BLOCK_SAMPLES` PCM samples.
pub fn decode_block(block: &[u8; BLOCK_BYTES]) -> [i16; BLOCK_SAMPLES] {
    let predictor = i16::from_le_bytes([block[0], block[1]]) as i32;
    let step_index = u16::from_le_bytes([block[2], block[3]]) as i32;
    let mut state = AdpcmState {
        predictor,
        step_index: step_index.clamp(0, 88),
    };
    let mut out = [0i16; BLOCK_SAMPLES];
    for i in 0..BLOCK_SAMPLES {
        let byte = block[4 + i / 2];
        let code = if i % 2 == 0 { byte & 0x0F } else { byte >> 4 };
        out[i] = state.decode_sample(code);
    }
    out
}

/// Decode a whole ADPCM stream.
pub fn decode(bytes: &[u8]) -> Vec<i16> {
    let mut out = Vec::with_capacity(bytes.len() / BLOCK_BYTES * BLOCK_SAMPLES);
    for chunk in bytes.chunks_exact(BLOCK_BYTES) {
        let block: &[u8; BLOCK_BYTES] = chunk.try_into().unwrap();
        out.extend_from_slice(&decode_block(block));
    }
    out
}

/// A deterministic synthetic audio source: a few sine partials plus
/// hash noise (tone-plus-texture, like the video source).
pub fn synth_pcm(samples: usize, seed: u64) -> Vec<i16> {
    (0..samples)
        .map(|i| {
            let t = i as f64 / 48_000.0;
            let tone = 6000.0 * (2.0 * std::f64::consts::PI * 440.0 * t).sin()
                + 2500.0 * (2.0 * std::f64::consts::PI * 1330.0 * t).sin();
            let mut h = (i as u64)
                .wrapping_add(seed)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 31;
            let noise = (h % 801) as f64 - 400.0;
            (tone + noise) as i16
        })
        .collect()
}

/// Signal-to-noise ratio of decoded audio vs the original, in dB.
pub fn snr_db(original: &[i16], decoded: &[i16]) -> f64 {
    let n = original.len().min(decoded.len());
    let mut signal = 0f64;
    let mut noise = 0f64;
    for i in 0..n {
        signal += (original[i] as f64).powi(2);
        noise += (original[i] as f64 - decoded[i] as f64).powi(2);
    }
    if noise == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (signal / noise).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_geometry() {
        assert_eq!(BLOCK_BYTES, 4 + BLOCK_SAMPLES / 2);
        let pcm = synth_pcm(BLOCK_SAMPLES * 3, 1);
        let coded = encode(&pcm);
        assert_eq!(coded.len(), 3 * BLOCK_BYTES);
    }

    #[test]
    fn silence_round_trips_exactly() {
        let pcm = vec![0i16; BLOCK_SAMPLES];
        let decoded = decode(&encode(&pcm));
        assert!(
            decoded.iter().all(|&s| s.abs() <= 1),
            "silence must stay (near) silent"
        );
    }

    #[test]
    fn tone_round_trips_with_good_snr() {
        let pcm = synth_pcm(BLOCK_SAMPLES * 8, 7);
        let decoded = decode(&encode(&pcm));
        let snr = snr_db(&pcm, &decoded);
        assert!(snr > 20.0, "ADPCM SNR {snr:.1} dB too low");
    }

    #[test]
    fn partial_final_block_is_zero_padded() {
        let pcm = synth_pcm(BLOCK_SAMPLES + 10, 3);
        let coded = encode(&pcm);
        assert_eq!(coded.len(), 2 * BLOCK_BYTES);
        let decoded = decode(&coded);
        assert_eq!(decoded.len(), 2 * BLOCK_SAMPLES);
    }

    #[test]
    fn compression_ratio_is_4x_ish() {
        let pcm = synth_pcm(BLOCK_SAMPLES * 4, 5);
        let coded = encode(&pcm);
        let ratio = (pcm.len() * 2) as f64 / coded.len() as f64;
        assert!(ratio > 3.5 && ratio < 4.1, "ratio {ratio:.2}");
    }

    #[test]
    fn decoder_is_deterministic() {
        let pcm = synth_pcm(BLOCK_SAMPLES * 2, 9);
        let coded = encode(&pcm);
        assert_eq!(decode(&coded), decode(&coded));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any PCM input round-trips with bounded per-sample drift (ADPCM
        /// is lossy but must track, not diverge).
        #[test]
        fn adpcm_tracks_arbitrary_signals(pcm in proptest::collection::vec(-20000i16..=20000, BLOCK_SAMPLES)) {
            let decoded = decode(&encode(&pcm));
            // ADPCM on white noise is poor but must *track*, not diverge:
            // bounded worst-case transient and a sane mean error.
            let worst = pcm.iter().zip(&decoded).map(|(&a, &b)| (a as i32 - b as i32).abs()).max().unwrap();
            let mean: f64 = pcm.iter().zip(&decoded).map(|(&a, &b)| (a as i32 - b as i32).abs() as f64).sum::<f64>()
                / pcm.len() as f64;
            prop_assert!(worst < 45000, "decoder diverged: worst error {}", worst);
            prop_assert!(mean < 8000.0, "mean error {}", mean);
        }
    }
}
