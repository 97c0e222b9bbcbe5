//! The software MPEG-2-like decoder.
//!
//! Mirrors the decode task graph of the paper's Figure 2: variable-length
//! decoding (headers + run/level symbols), run-length/inverse-scan/
//! inverse-quantization, inverse DCT, and motion compensation — here as
//! one sequential program. The Eclipse coprocessor models in
//! `eclipse-coprocs` execute the same per-stage functions, so simulated
//! decoding must produce byte-identical frames to this decoder (asserted
//! by the integration tests).

use crate::bits::BitReader;
use crate::frame::{Frame, BLOCKS_PER_MB};
use crate::motion::{predict_macroblock, MotionVector, PredictionMode};
use crate::recon::reconstruct_mb;
use crate::scan::{rle_decode, RunLevel};
use crate::stream::{
    peek_marker, read_mb_header, read_picture_header, read_sequence_header, resync_to_marker,
    PictureHeader, PictureType, SequenceHeader, StreamError, MARKER_END, MARKER_PIC,
};
use crate::vlc::{get_block, get_sev};

/// Per-picture decoding statistics.
#[derive(Debug, Clone)]
pub struct DecodedPictureStats {
    /// Display index.
    pub display_idx: u16,
    /// Coding type.
    pub ptype: PictureType,
    /// Bits of macroblock data parsed by the VLD stage.
    pub mb_bits: u64,
    /// Non-zero coefficients decoded.
    pub coefficients: u64,
    /// Intra macroblocks.
    pub intra_mbs: u32,
    /// Inter macroblocks.
    pub inter_mbs: u32,
    /// Skipped macroblocks.
    pub skipped_mbs: u32,
}

/// Decoder output: frames in display order plus statistics.
#[derive(Debug, Clone)]
pub struct DecodeResult {
    /// Decoded frames in display order.
    pub frames: Vec<Frame>,
    /// Sequence parameters from the header.
    pub header: SequenceHeader,
    /// Per-picture statistics in coded order.
    pub pictures: Vec<DecodedPictureStats>,
}

/// Counters accumulated by [`Decoder::decode_resilient`] — the decoder's
/// graceful-degradation telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Syntax errors recovered from (each one triggers a resync scan).
    pub parse_errors: u64,
    /// Successful resynchronizations to a later start marker.
    pub resyncs: u64,
    /// Macroblocks concealed (copied from a reference frame, or left
    /// flat when no reference exists yet).
    pub concealed_mbs: u64,
    /// Display slots never filled by any decodable picture (substituted
    /// with the nearest earlier frame, or a flat frame).
    pub dropped_pictures: u64,
}

impl ResilienceStats {
    /// True when the stream decoded without any degradation.
    pub fn is_clean(&self) -> bool {
        *self == ResilienceStats::default()
    }
}

/// The decoder. Stateless; see [`Decoder::decode`].
pub struct Decoder;

impl Decoder {
    /// Decode a complete elementary stream.
    pub fn decode(bytes: &[u8]) -> Result<DecodeResult, StreamError> {
        let mut r = BitReader::new(bytes);
        let header = read_sequence_header(&mut r)?;
        header.validate()?;
        let (width, height) = (header.width as usize, header.height as usize);

        let mut frames: Vec<Option<Frame>> = vec![None; header.num_frames as usize];
        let mut pictures = Vec::new();
        let mut prev_anchor: Option<(u16, Frame)> = None;
        let mut last_anchor: Option<(u16, Frame)> = None;

        loop {
            match peek_marker(&mut r)? {
                MARKER_END => break,
                MARKER_PIC => {}
                found => {
                    return Err(StreamError::BadMarker {
                        expected: MARKER_PIC,
                        found,
                    })
                }
            }
            let ph = read_picture_header(&mut r)?;
            let (fwd_ref, bwd_ref): (Option<&Frame>, Option<&Frame>) = match ph.ptype {
                PictureType::I => (None, None),
                PictureType::P => (last_anchor.as_ref().map(|(_, f)| f), None),
                PictureType::B => (
                    prev_anchor.as_ref().map(|(_, f)| f),
                    last_anchor.as_ref().map(|(_, f)| f),
                ),
            };
            let (frame, stats) = decode_picture(&mut r, width, height, &ph, fwd_ref, bwd_ref)?;
            pictures.push(stats);
            if ph.ptype != PictureType::B {
                prev_anchor = last_anchor.take();
                last_anchor = Some((ph.temporal_ref, frame.clone()));
            }
            let slot = frames
                .get_mut(ph.temporal_ref as usize)
                .ok_or(StreamError::BadMarker {
                    expected: MARKER_PIC,
                    found: ph.temporal_ref as u32,
                })?;
            *slot = Some(frame);
        }

        let frames: Option<Vec<Frame>> = frames.into_iter().collect();
        let frames = frames.ok_or(StreamError::Eos)?;
        Ok(DecodeResult {
            frames,
            header,
            pictures,
        })
    }

    /// Decode a possibly-corrupted elementary stream, degrading instead
    /// of failing: syntax errors inside a picture conceal the remaining
    /// macroblocks (copying from the forward reference when one exists)
    /// and resynchronize at the next start marker; undecodable display
    /// slots are substituted with the nearest earlier frame. Only a
    /// missing or invalid *sequence header* is a hard error — without it
    /// there are no frame dimensions to decode into.
    ///
    /// On a clean stream this produces bit-identical frames to
    /// [`Decoder::decode`] with all-zero [`ResilienceStats`].
    pub fn decode_resilient(bytes: &[u8]) -> Result<(DecodeResult, ResilienceStats), StreamError> {
        let mut r = BitReader::new(bytes);
        let header = read_sequence_header(&mut r)?;
        header.validate()?;
        let (width, height) = (header.width as usize, header.height as usize);
        let mut res = ResilienceStats::default();

        let mut frames: Vec<Option<Frame>> = vec![None; header.num_frames as usize];
        let mut pictures = Vec::new();
        let mut prev_anchor: Option<(u16, Frame)> = None;
        let mut last_anchor: Option<(u16, Frame)> = None;

        loop {
            match peek_marker(&mut r) {
                Err(_) => {
                    // Ran out without an END marker: tolerate the
                    // truncation, the tail slots get concealed below.
                    res.parse_errors += 1;
                    break;
                }
                Ok(MARKER_END) => break,
                Ok(MARKER_PIC) => {}
                Ok(_) => {
                    // Garbage between pictures: hunt for the next marker.
                    res.parse_errors += 1;
                    let _ = r.get_bits(8);
                    match resync_to_marker(&mut r) {
                        Some(_) => {
                            res.resyncs += 1;
                            continue;
                        }
                        None => break,
                    }
                }
            }
            let ph = match read_picture_header(&mut r) {
                Ok(ph) => ph,
                Err(_) => {
                    res.parse_errors += 1;
                    match resync_to_marker(&mut r) {
                        Some(_) => {
                            res.resyncs += 1;
                            continue;
                        }
                        None => break,
                    }
                }
            };
            let (fwd_ref, bwd_ref): (Option<&Frame>, Option<&Frame>) = match ph.ptype {
                PictureType::I => (None, None),
                PictureType::P => (last_anchor.as_ref().map(|(_, f)| f), None),
                PictureType::B => (
                    prev_anchor.as_ref().map(|(_, f)| f),
                    last_anchor.as_ref().map(|(_, f)| f),
                ),
            };
            let (frame, stats, err) =
                decode_picture_resilient(&mut r, width, height, &ph, fwd_ref, bwd_ref, &mut res);
            pictures.push(stats);
            if ph.ptype != PictureType::B {
                // A concealed anchor still becomes a reference — exactly
                // what a hardware decoder does, and it keeps later
                // pictures predicting from *something* plausible.
                prev_anchor = last_anchor.take();
                last_anchor = Some((ph.temporal_ref, frame.clone()));
            }
            match frames.get_mut(ph.temporal_ref as usize) {
                Some(slot) => *slot = Some(frame),
                None => {
                    // Corrupt temporal reference: no display slot for it.
                    res.parse_errors += 1;
                    res.dropped_pictures += 1;
                }
            }
            if err {
                match resync_to_marker(&mut r) {
                    Some(_) => res.resyncs += 1,
                    None => break,
                }
            }
        }

        // Fill display slots no decodable picture claimed: repeat the
        // nearest earlier frame (freeze), or a flat frame at the head.
        let mut out_frames = Vec::with_capacity(frames.len());
        let mut last_good: Option<Frame> = None;
        for slot in frames {
            match slot {
                Some(f) => {
                    last_good = Some(f.clone());
                    out_frames.push(f);
                }
                None => {
                    res.dropped_pictures += 1;
                    out_frames.push(
                        last_good
                            .clone()
                            .unwrap_or_else(|| Frame::new(width, height)),
                    );
                }
            }
        }
        Ok((
            DecodeResult {
                frames: out_frames,
                header,
                pictures,
            },
            res,
        ))
    }
}

/// Decode one picture's macroblock layer (used by both the software
/// decoder and, per-macroblock, by the coprocessor models).
fn decode_picture(
    r: &mut BitReader,
    width: usize,
    height: usize,
    ph: &crate::stream::PictureHeader,
    fwd_ref: Option<&Frame>,
    bwd_ref: Option<&Frame>,
) -> Result<(Frame, DecodedPictureStats), StreamError> {
    let mut frame = Frame::new(width, height);
    let mut stats = DecodedPictureStats {
        display_idx: ph.temporal_ref,
        ptype: ph.ptype,
        mb_bits: 0,
        coefficients: 0,
        intra_mbs: 0,
        inter_mbs: 0,
        skipped_mbs: 0,
    };
    let mut dc_pred = [128i16, 128, 128];
    let start_bits = r.bit_pos();

    for mby in 0..height / 16 {
        for mbx in 0..width / 16 {
            decode_one_mb(r, ph, fwd_ref, bwd_ref, mbx, mby, &mut dc_pred, &mut stats)
                .map(|out| frame.set_macroblock(mbx, mby, &out))?;
        }
    }
    r.byte_align();
    stats.mb_bits = (r.bit_pos() - start_bits) as u64;
    Ok((frame, stats))
}

/// Parse + reconstruct one macroblock. Shared by the strict and the
/// resilient decoders; any `Err` leaves the reader wherever parsing
/// stopped (the resilient caller resynchronizes to the next marker).
#[allow(clippy::too_many_arguments)]
fn decode_one_mb(
    r: &mut BitReader,
    ph: &PictureHeader,
    fwd_ref: Option<&Frame>,
    bwd_ref: Option<&Frame>,
    mbx: usize,
    mby: usize,
    dc_pred: &mut [i16; 3],
    stats: &mut DecodedPictureStats,
) -> Result<[[i16; 64]; BLOCKS_PER_MB], StreamError> {
    let (mb, _) = read_mb_header(r)?;
    let (mode, intra) = match mb.mode {
        None => {
            // Skipped: forward copy with zero MV (P pictures).
            stats.skipped_mbs += 1;
            (PredictionMode::Forward(MotionVector::default()), false)
        }
        Some(m) => {
            if m == PredictionMode::Intra {
                stats.intra_mbs += 1;
            } else {
                stats.inter_mbs += 1;
            }
            (m, m == PredictionMode::Intra)
        }
    };
    // A corrupt stream can request prediction from an anchor that was
    // never decoded (e.g. a flipped picture-type byte turning the first
    // I picture into P); `predict_macroblock` would panic on that.
    let needs_fwd = matches!(
        mode,
        PredictionMode::Forward(_) | PredictionMode::Bidirectional(..)
    );
    let needs_bwd = matches!(
        mode,
        PredictionMode::Backward(_) | PredictionMode::Bidirectional(..)
    );
    if (needs_fwd && fwd_ref.is_none()) || (needs_bwd && bwd_ref.is_none()) {
        return Err(StreamError::MissingReference);
    }
    let mut levels = [[0i16; 64]; BLOCKS_PER_MB];
    let mut symbols = [RunLevel::default(); 64];
    for (blk, lv) in levels.iter_mut().enumerate() {
        if mb.cbp & (1 << (5 - blk)) == 0 {
            continue;
        }
        if intra {
            let comp = crate::encoder::dc_component(blk);
            let diff = get_sev(r)? as i16;
            // Wrapping: valid streams stay far from the i16 range, but a
            // corrupt diff must not abort in overflow-checked builds.
            let dc = dc_pred[comp].wrapping_add(diff);
            dc_pred[comp] = dc;
            let (n, _) = get_block(r, &mut symbols)?;
            stats.coefficients += n as u64 + 1;
            let mut block = rle_decode(&symbols[..n]).map_err(|_| StreamError::BlockOverflow)?;
            block[0] = dc;
            *lv = block;
        } else {
            let (n, _) = get_block(r, &mut symbols)?;
            stats.coefficients += n as u64;
            *lv = rle_decode(&symbols[..n]).map_err(|_| StreamError::BlockOverflow)?;
        }
    }
    let pred = predict_macroblock(mode, fwd_ref, bwd_ref, mbx, mby);
    Ok(reconstruct_mb(&pred, &levels, mb.cbp, intra, ph.qscale))
}

/// Decode one picture, concealing instead of failing. On the first
/// macroblock syntax error the rest of the picture is concealed by
/// copying co-located macroblocks from the forward (else backward)
/// reference — classic slice-level error concealment — and the caller is
/// told to resynchronize (`true` in the last tuple slot).
fn decode_picture_resilient(
    r: &mut BitReader,
    width: usize,
    height: usize,
    ph: &PictureHeader,
    fwd_ref: Option<&Frame>,
    bwd_ref: Option<&Frame>,
    res: &mut ResilienceStats,
) -> (Frame, DecodedPictureStats, bool) {
    let mut frame = Frame::new(width, height);
    let mut stats = DecodedPictureStats {
        display_idx: ph.temporal_ref,
        ptype: ph.ptype,
        mb_bits: 0,
        coefficients: 0,
        intra_mbs: 0,
        inter_mbs: 0,
        skipped_mbs: 0,
    };
    let mut dc_pred = [128i16, 128, 128];
    let start_bits = r.bit_pos();
    let conceal_src = fwd_ref.or(bwd_ref);
    let (mbs_x, mbs_y) = (width / 16, height / 16);
    let mut failed = false;

    'rows: for mby in 0..mbs_y {
        for mbx in 0..mbs_x {
            match decode_one_mb(r, ph, fwd_ref, bwd_ref, mbx, mby, &mut dc_pred, &mut stats) {
                Ok(out) => frame.set_macroblock(mbx, mby, &out),
                Err(_) => {
                    res.parse_errors += 1;
                    let remaining = (mbs_y - mby) * mbs_x - mbx;
                    res.concealed_mbs += remaining as u64;
                    if let Some(src) = conceal_src {
                        let mut cy = mby;
                        let mut cx = mbx;
                        while cy < mbs_y {
                            frame.set_macroblock(cx, cy, &src.get_macroblock(cx, cy));
                            cx += 1;
                            if cx == mbs_x {
                                cx = 0;
                                cy += 1;
                            }
                        }
                    }
                    failed = true;
                    break 'rows;
                }
            }
        }
    }
    r.byte_align();
    stats.mb_bits = (r.bit_pos() - start_bits) as u64;
    (frame, stats, failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{Encoder, EncoderConfig};
    use crate::source::{SourceConfig, SyntheticSource};
    use crate::stream::GopConfig;

    fn round_trip(cfg: EncoderConfig, num_frames: u16, source_seed: u64) {
        let src = SyntheticSource::new(SourceConfig {
            width: cfg.width,
            height: cfg.height,
            complexity: 0.35,
            motion: 2.0,
            seed: source_seed,
        });
        let frames = src.frames(num_frames);
        let enc = Encoder::new(cfg);
        let (bytes, _, recon) = enc.encode_with_recon(&frames);
        let result = Decoder::decode(&bytes).expect("decode failed");
        assert_eq!(result.frames.len(), frames.len());
        for (i, (dec, rec)) in result.frames.iter().zip(&recon).enumerate() {
            assert_eq!(
                dec, rec,
                "frame {i}: decoder output != encoder reconstruction"
            );
        }
        // Quality sanity: decoded should approximate the source.
        for (i, (dec, orig)) in result.frames.iter().zip(&frames).enumerate() {
            let psnr = dec.psnr_y(orig);
            assert!(psnr > 20.0, "frame {i}: PSNR {psnr:.1} dB");
        }
    }

    #[test]
    fn intra_only_round_trip_is_bit_exact() {
        round_trip(
            EncoderConfig {
                width: 64,
                height: 48,
                qscale: 4,
                gop: GopConfig { n: 1, m: 1 },
                search_range: 7,
            },
            3,
            11,
        );
    }

    #[test]
    fn ip_round_trip_is_bit_exact() {
        round_trip(
            EncoderConfig {
                width: 64,
                height: 48,
                qscale: 6,
                gop: GopConfig { n: 6, m: 1 },
                search_range: 15,
            },
            8,
            12,
        );
    }

    #[test]
    fn ipb_round_trip_is_bit_exact() {
        round_trip(
            EncoderConfig {
                width: 64,
                height: 48,
                qscale: 6,
                gop: GopConfig { n: 12, m: 3 },
                search_range: 15,
            },
            14,
            13,
        );
    }

    #[test]
    fn larger_frame_round_trip() {
        round_trip(
            EncoderConfig {
                width: 176,
                height: 144,
                qscale: 8,
                gop: GopConfig { n: 9, m: 3 },
                search_range: 15,
            },
            5,
            14,
        );
    }

    #[test]
    fn single_frame_stream() {
        round_trip(
            EncoderConfig {
                width: 32,
                height: 32,
                qscale: 2,
                gop: GopConfig { n: 12, m: 3 },
                search_range: 3,
            },
            1,
            15,
        );
    }

    #[test]
    fn stats_track_picture_types() {
        let src = SyntheticSource::new(SourceConfig {
            width: 64,
            height: 48,
            complexity: 0.3,
            motion: 1.0,
            seed: 5,
        });
        let frames = src.frames(10);
        let enc = Encoder::new(EncoderConfig {
            width: 64,
            height: 48,
            qscale: 6,
            gop: GopConfig { n: 9, m: 3 },
            search_range: 7,
        });
        let (bytes, enc_stats) = enc.encode(&frames);
        let result = Decoder::decode(&bytes).unwrap();
        assert_eq!(result.pictures.len(), enc_stats.pictures.len());
        for (d, e) in result.pictures.iter().zip(&enc_stats.pictures) {
            assert_eq!(d.ptype, e.ptype);
            assert_eq!(d.display_idx, e.display_idx);
            assert_eq!(d.intra_mbs, e.intra_mbs, "picture {}", d.display_idx);
            assert_eq!(d.skipped_mbs, e.skipped_mbs);
            assert_eq!(d.coefficients, e.coefficients);
        }
    }

    #[test]
    fn garbage_input_is_an_error_not_a_panic() {
        assert!(Decoder::decode(&[]).is_err());
        assert!(Decoder::decode(&[0xFF; 100]).is_err());
        assert!(Decoder::decode(b"ECLS then nonsense").is_err());
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let src = SyntheticSource::new(SourceConfig::default());
        let frames = src.frames(2);
        let enc = Encoder::new(EncoderConfig::default());
        let (bytes, _) = enc.encode(&frames);
        for cut in [bytes.len() / 4, bytes.len() / 2, bytes.len() - 5] {
            assert!(
                Decoder::decode(&bytes[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn i_pictures_carry_most_coefficients() {
        let src = SyntheticSource::new(SourceConfig {
            width: 64,
            height: 48,
            complexity: 0.4,
            motion: 1.5,
            seed: 9,
        });
        let frames = src.frames(12);
        let enc = Encoder::new(EncoderConfig {
            width: 64,
            height: 48,
            qscale: 6,
            gop: GopConfig { n: 12, m: 3 },
            search_range: 15,
        });
        let (bytes, _) = enc.encode(&frames);
        let result = Decoder::decode(&bytes).unwrap();
        let avg = |t: PictureType| -> f64 {
            let v: Vec<u64> = result
                .pictures
                .iter()
                .filter(|p| p.ptype == t)
                .map(|p| p.coefficients)
                .collect();
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<u64>() as f64 / v.len() as f64
            }
        };
        assert!(
            avg(PictureType::I) > avg(PictureType::B),
            "I {} vs B {}",
            avg(PictureType::I),
            avg(PictureType::B)
        );
    }
}
