//! The software MPEG-2-like encoder.
//!
//! Pipeline per macroblock: mode decision (motion estimation against the
//! anchor frames, intra/inter/skip choice) → prediction → forward DCT of
//! the residual → quantization → zigzag/run-length → VLC. A local
//! decoding loop (shared with the decoder, see [`crate::recon`])
//! reconstructs every anchor frame for use as a prediction reference, so
//! encoder and decoder references never drift.

use crate::bits::BitWriter;
use crate::dct::fdct2d;
use crate::frame::{Frame, BLOCKS_PER_MB};
use crate::motion::{predict_macroblock, three_step_search_pred, MotionVector, PredictionMode};
use crate::quant::{quant_inter, quant_intra};
use crate::recon::reconstruct_mb;
use crate::scan::{rle_encode_into, RunLevel};
use crate::stream::{
    write_end, write_mb_header, write_picture_header, write_sequence_header, GopConfig, MbHeader,
    PictureHeader, PictureType, SequenceHeader,
};
use crate::vlc::{put_block, put_sev};

/// Encoder parameters.
#[derive(Debug, Clone, Copy)]
pub struct EncoderConfig {
    /// Luma width (multiple of 16).
    pub width: usize,
    /// Luma height (multiple of 16).
    pub height: usize,
    /// Quantizer scale, 1 (fine) ..= 31 (coarse).
    pub qscale: u8,
    /// GOP structure.
    pub gop: GopConfig,
    /// Motion search range in full pels.
    pub search_range: u8,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        EncoderConfig {
            width: 64,
            height: 48,
            qscale: 6,
            gop: GopConfig::default(),
            search_range: 15,
        }
    }
}

/// Per-picture encoding statistics (drives workload analyses).
#[derive(Debug, Clone)]
pub struct PictureStats {
    /// Display index.
    pub display_idx: u16,
    /// Coding type.
    pub ptype: PictureType,
    /// Bits spent on this picture (headers + macroblock data).
    pub bits: u64,
    /// Macroblocks coded intra.
    pub intra_mbs: u32,
    /// Macroblocks coded inter (any prediction direction).
    pub inter_mbs: u32,
    /// Skipped macroblocks.
    pub skipped_mbs: u32,
    /// Total non-zero quantized coefficients.
    pub coefficients: u64,
    /// Motion-estimation SAD evaluations performed.
    pub me_evals: u64,
}

/// Whole-run statistics.
#[derive(Debug, Clone, Default)]
pub struct EncodeStats {
    /// Per picture, in coded order.
    pub pictures: Vec<PictureStats>,
}

impl EncodeStats {
    /// Total encoded bits.
    pub fn total_bits(&self) -> u64 {
        self.pictures.iter().map(|p| p.bits).sum()
    }
}

/// The encoder. Stateless between calls to [`Encoder::encode`].
#[derive(Debug, Clone)]
pub struct Encoder {
    cfg: EncoderConfig,
}

impl Encoder {
    /// Create an encoder.
    pub fn new(cfg: EncoderConfig) -> Self {
        assert!(cfg.width.is_multiple_of(16) && cfg.height.is_multiple_of(16));
        assert!((1..=31).contains(&cfg.qscale));
        Encoder { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &EncoderConfig {
        &self.cfg
    }

    /// Encode `frames` (display order). Returns the elementary stream and
    /// statistics.
    pub fn encode(&self, frames: &[Frame]) -> (Vec<u8>, EncodeStats) {
        let (bytes, stats, _) = self.encode_with_recon(frames);
        (bytes, stats)
    }

    /// Like [`Encoder::encode`], additionally returning the locally
    /// reconstructed frames in display order (what the decoder must
    /// reproduce bit-exactly).
    pub fn encode_with_recon(&self, frames: &[Frame]) -> (Vec<u8>, EncodeStats, Vec<Frame>) {
        let cfg = &self.cfg;
        assert!(!frames.is_empty(), "nothing to encode");
        assert!(frames.len() <= u16::MAX as usize);
        for f in frames {
            assert_eq!(
                (f.width, f.height),
                (cfg.width, cfg.height),
                "frame size mismatch"
            );
        }
        let num_frames = frames.len() as u16;
        let mut w = BitWriter::new();
        write_sequence_header(
            &mut w,
            &SequenceHeader {
                width: cfg.width as u16,
                height: cfg.height as u16,
                qscale: cfg.qscale,
                gop: cfg.gop,
                num_frames,
            },
        );

        let mut stats = EncodeStats::default();
        let mut recon_frames: Vec<Option<Frame>> = vec![None; frames.len()];
        // Anchor management (coded order guarantees availability).
        let mut prev_anchor: Option<(u16, Frame)> = None;
        let mut last_anchor: Option<(u16, Frame)> = None;

        for planned in cfg.gop.coded_order(num_frames) {
            let cur = &frames[planned.display_idx as usize];
            let (fwd_ref, bwd_ref): (Option<&Frame>, Option<&Frame>) = match planned.ptype {
                PictureType::I => (None, None),
                PictureType::P => (last_anchor.as_ref().map(|(_, f)| f), None),
                PictureType::B => (
                    prev_anchor.as_ref().map(|(_, f)| f),
                    last_anchor.as_ref().map(|(_, f)| f),
                ),
            };
            let bits_before = w.bit_len() as u64;
            let (recon, pic_stats) = self.encode_picture(
                &mut w,
                cur,
                planned.ptype,
                planned.display_idx,
                fwd_ref,
                bwd_ref,
            );
            let mut pic_stats = pic_stats;
            pic_stats.bits = w.bit_len() as u64 - bits_before;
            stats.pictures.push(pic_stats);

            if planned.ptype != PictureType::B {
                prev_anchor = last_anchor.take();
                last_anchor = Some((planned.display_idx, recon.clone()));
            }
            recon_frames[planned.display_idx as usize] = Some(recon);
        }
        write_end(&mut w);
        let bytes = w.finish();
        let recon = recon_frames
            .into_iter()
            .map(|f| f.expect("every frame encoded"))
            .collect();
        (bytes, stats, recon)
    }

    fn encode_picture(
        &self,
        w: &mut BitWriter,
        cur: &Frame,
        ptype: PictureType,
        display_idx: u16,
        fwd_ref: Option<&Frame>,
        bwd_ref: Option<&Frame>,
    ) -> (Frame, PictureStats) {
        let cfg = &self.cfg;
        let q = cfg.qscale;
        write_picture_header(
            w,
            &PictureHeader {
                ptype,
                temporal_ref: display_idx,
                qscale: q,
            },
        );

        let mut recon = Frame::new(cfg.width, cfg.height);
        let mut pic = PictureStats {
            display_idx,
            ptype,
            bits: 0,
            intra_mbs: 0,
            inter_mbs: 0,
            skipped_mbs: 0,
            coefficients: 0,
            me_evals: 0,
        };
        // Intra DC predictors in level units (Y, U, V), reset per picture.
        let mut dc_pred = [128i16, 128, 128];
        // Motion-vector predictors (left-neighbour propagation, reset per
        // picture) seeding the search — see `three_step_search_pred`.
        let mut mv_pred = (MotionVector::default(), MotionVector::default());

        for mby in 0..cur.mb_rows() {
            for mbx in 0..cur.mb_cols() {
                self.encode_macroblock(
                    w,
                    cur,
                    &mut recon,
                    ptype,
                    fwd_ref,
                    bwd_ref,
                    mbx,
                    mby,
                    q,
                    &mut dc_pred,
                    &mut mv_pred,
                    &mut pic,
                );
            }
        }
        w.byte_align();
        (recon, pic)
    }

    #[allow(clippy::too_many_arguments)]
    fn encode_macroblock(
        &self,
        w: &mut BitWriter,
        cur: &Frame,
        recon: &mut Frame,
        ptype: PictureType,
        fwd_ref: Option<&Frame>,
        bwd_ref: Option<&Frame>,
        mbx: usize,
        mby: usize,
        q: u8,
        dc_pred: &mut [i16; 3],
        mv_pred: &mut (MotionVector, MotionVector),
        pic: &mut PictureStats,
    ) {
        let cur_blocks = cur.get_macroblock(mbx, mby);

        // ---- mode decision ----
        let mode = match ptype {
            PictureType::I => PredictionMode::Intra,
            PictureType::P => {
                let fref = fwd_ref.expect("P picture needs a forward reference");
                let cands = [MotionVector::default(), mv_pred.0];
                let (mv, sad, evals) =
                    three_step_search_pred(cur, fref, mbx, mby, self.cfg.search_range, &cands);
                pic.me_evals += evals as u64;
                mv_pred.0 = mv;
                if sad < intra_activity(&cur_blocks) {
                    PredictionMode::Forward(mv)
                } else {
                    PredictionMode::Intra
                }
            }
            PictureType::B => {
                let fref = fwd_ref.expect("B picture needs a forward reference");
                let bref = bwd_ref.expect("B picture needs a backward reference");
                let range = self.cfg.search_range;
                let fcands = [MotionVector::default(), mv_pred.0];
                let bcands = [MotionVector::default(), mv_pred.1];
                let (fmv, fsad, fe) = three_step_search_pred(cur, fref, mbx, mby, range, &fcands);
                let (bmv, bsad, be) = three_step_search_pred(cur, bref, mbx, mby, range, &bcands);
                mv_pred.0 = fmv;
                mv_pred.1 = bmv;
                pic.me_evals += (fe + be) as u64;
                // Evaluate bidirectional with the two candidate vectors.
                let bi_pred = predict_macroblock(
                    PredictionMode::Bidirectional(fmv, bmv),
                    Some(fref),
                    Some(bref),
                    mbx,
                    mby,
                );
                let bi_sad = sad_against(&cur_blocks, &bi_pred);
                let best = fsad.min(bsad).min(bi_sad);
                if best >= intra_activity(&cur_blocks) {
                    PredictionMode::Intra
                } else if bi_sad == best {
                    PredictionMode::Bidirectional(fmv, bmv)
                } else if fsad == best {
                    PredictionMode::Forward(fmv)
                } else {
                    PredictionMode::Backward(bmv)
                }
            }
        };

        // ---- transform + quantize ----
        let pred = predict_macroblock(mode, fwd_ref, bwd_ref, mbx, mby);
        let intra = mode == PredictionMode::Intra;
        let mut levels = [[0i16; 64]; BLOCKS_PER_MB];
        let mut cbp: u8 = 0;
        for blk in 0..BLOCKS_PER_MB {
            let mut residual = [0i16; 64];
            for i in 0..64 {
                residual[i] = cur_blocks[blk][i] - pred[blk][i];
            }
            let coefs = fdct2d(&residual);
            levels[blk] = if intra {
                quant_intra(&coefs, q)
            } else {
                quant_inter(&coefs, q)
            };
            let any_nonzero = if intra {
                true // intra blocks always coded (DC at minimum)
            } else {
                levels[blk].iter().any(|&l| l != 0)
            };
            if any_nonzero {
                cbp |= 1 << (5 - blk);
            }
        }

        // ---- skip decision (P pictures; B skip disabled for simplicity) ----
        let skippable = ptype == PictureType::P
            && cbp == 0
            && matches!(mode, PredictionMode::Forward(mv) if mv == MotionVector::default());
        if skippable {
            write_mb_header(w, &MbHeader::SKIP);
            pic.skipped_mbs += 1;
            let out = reconstruct_mb(&pred, &levels, 0, false, q);
            recon.set_macroblock(mbx, mby, &out);
            return;
        }

        // ---- entropy coding ----
        write_mb_header(
            w,
            &MbHeader {
                mode: Some(mode),
                cbp,
            },
        );
        let mut symbols = [RunLevel::default(); 64];
        for (blk, lv) in levels.iter().enumerate().take(BLOCKS_PER_MB) {
            if cbp & (1 << (5 - blk)) == 0 {
                continue;
            }
            if intra {
                // DC coded as a predicted difference, AC as run/levels.
                let comp = dc_component(blk);
                let dc = lv[0];
                put_sev(w, (dc - dc_pred[comp]) as i32);
                dc_pred[comp] = dc;
                let mut ac = *lv;
                ac[0] = 0;
                let n = rle_encode_into(&ac, &mut symbols);
                pic.coefficients += n as u64 + 1; // + DC
                put_block(w, &symbols[..n]);
            } else {
                let n = rle_encode_into(lv, &mut symbols);
                pic.coefficients += n as u64;
                put_block(w, &symbols[..n]);
            }
        }
        if intra {
            pic.intra_mbs += 1;
        } else {
            pic.inter_mbs += 1;
        }

        // ---- local reconstruction (shared with the decoder) ----
        let out = reconstruct_mb(&pred, &levels, cbp, intra, q);
        recon.set_macroblock(mbx, mby, &out);
    }
}

/// Which DC predictor a block index uses: 0 = Y, 1 = U, 2 = V.
pub(crate) fn dc_component(blk: usize) -> usize {
    match blk {
        0..=3 => 0,
        4 => 1,
        _ => 2,
    }
}

/// Intra activity measure: luma SAD against the macroblock mean —
/// the classic cheap intra/inter decision threshold.
fn intra_activity(blocks: &[[i16; 64]; BLOCKS_PER_MB]) -> u32 {
    let mut sum: i64 = 0;
    for blk in blocks.iter().take(4) {
        for &v in blk.iter() {
            sum += v as i64;
        }
    }
    let mean = (sum / 256) as i16;
    let mut act: u32 = 0;
    for blk in blocks.iter().take(4) {
        for &v in blk.iter() {
            act += (v - mean).unsigned_abs() as u32;
        }
    }
    act
}

/// Luma SAD between a macroblock and a prediction (for the bi decision).
fn sad_against(cur: &[[i16; 64]; BLOCKS_PER_MB], pred: &[[i16; 64]; BLOCKS_PER_MB]) -> u32 {
    let mut sad: u32 = 0;
    for blk in 0..4 {
        for i in 0..64 {
            sad += (cur[blk][i] - pred[blk][i]).unsigned_abs() as u32;
        }
    }
    sad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{SourceConfig, SyntheticSource};

    fn small_source() -> SyntheticSource {
        SyntheticSource::new(SourceConfig {
            width: 64,
            height: 48,
            complexity: 0.3,
            motion: 2.0,
            seed: 42,
        })
    }

    #[test]
    fn encodes_intra_only_sequence() {
        let src = small_source();
        let frames = src.frames(3);
        let enc = Encoder::new(EncoderConfig {
            width: 64,
            height: 48,
            qscale: 4,
            gop: GopConfig { n: 1, m: 1 },
            search_range: 7,
        });
        let (bytes, stats) = enc.encode(&frames);
        assert!(!bytes.is_empty());
        assert_eq!(stats.pictures.len(), 3);
        assert!(stats.pictures.iter().all(|p| p.ptype == PictureType::I));
        assert!(stats
            .pictures
            .iter()
            .all(|p| p.inter_mbs == 0 && p.skipped_mbs == 0));
    }

    #[test]
    fn reconstruction_quality_reasonable() {
        let src = small_source();
        let frames = src.frames(6);
        let enc = Encoder::new(EncoderConfig {
            width: 64,
            height: 48,
            qscale: 3,
            gop: GopConfig { n: 6, m: 3 },
            search_range: 15,
        });
        let (_, _, recon) = enc.encode_with_recon(&frames);
        for (i, (orig, rec)) in frames.iter().zip(&recon).enumerate() {
            let psnr = orig.psnr_y(rec);
            assert!(psnr > 24.0, "frame {i}: PSNR {psnr:.1} dB too low");
        }
    }

    #[test]
    fn p_pictures_cost_fewer_bits_than_i() {
        // A low-motion scene: P frames should compress much better.
        let src = SyntheticSource::new(SourceConfig {
            width: 64,
            height: 48,
            complexity: 0.2,
            motion: 0.5,
            seed: 7,
        });
        let frames = src.frames(8);
        let enc = Encoder::new(EncoderConfig {
            width: 64,
            height: 48,
            qscale: 6,
            gop: GopConfig { n: 8, m: 1 },
            search_range: 7,
        });
        let (_, stats) = enc.encode(&frames);
        let i_bits = stats
            .pictures
            .iter()
            .find(|p| p.ptype == PictureType::I)
            .unwrap()
            .bits;
        let avg_p: u64 = {
            let ps: Vec<u64> = stats
                .pictures
                .iter()
                .filter(|p| p.ptype == PictureType::P)
                .map(|p| p.bits)
                .collect();
            ps.iter().sum::<u64>() / ps.len() as u64
        };
        assert!(avg_p < i_bits, "P avg {avg_p} should be < I {i_bits}");
    }

    #[test]
    fn skip_macroblocks_appear_in_static_scenes() {
        let src = SyntheticSource::new(SourceConfig {
            width: 64,
            height: 48,
            complexity: 0.0,
            motion: 0.0,
            seed: 3,
        });
        let frames = src.frames(4);
        let enc = Encoder::new(EncoderConfig {
            width: 64,
            height: 48,
            qscale: 8,
            gop: GopConfig { n: 8, m: 1 },
            search_range: 7,
        });
        let (_, stats) = enc.encode(&frames);
        let skips: u32 = stats.pictures.iter().map(|p| p.skipped_mbs).sum();
        assert!(skips > 0, "static scene should produce skipped macroblocks");
    }

    #[test]
    fn gop_with_b_frames_encodes_all_types() {
        let src = small_source();
        let frames = src.frames(10);
        let enc = Encoder::new(EncoderConfig {
            width: 64,
            height: 48,
            qscale: 6,
            gop: GopConfig { n: 9, m: 3 },
            search_range: 15,
        });
        let (_, stats) = enc.encode(&frames);
        use PictureType::*;
        for t in [I, P, B] {
            assert!(
                stats.pictures.iter().any(|p| p.ptype == t),
                "missing picture type {t:?}"
            );
        }
    }

    #[test]
    fn coarser_quantization_reduces_bits() {
        let src = small_source();
        let frames = src.frames(3);
        let mk = |q| {
            Encoder::new(EncoderConfig {
                width: 64,
                height: 48,
                qscale: q,
                gop: GopConfig { n: 3, m: 1 },
                search_range: 7,
            })
        };
        let (_, fine) = mk(2).encode(&frames);
        let (_, coarse) = mk(20).encode(&frames);
        assert!(coarse.total_bits() < fine.total_bits());
    }
}
