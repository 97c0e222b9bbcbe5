//! Inter-coprocessor stream record formats.
//!
//! The medium-grain tasks exchange *data packets* (paper Section 4.2)
//! over the stream buffers. These are the packet formats of the MPEG
//! instance, all little-endian and byte-oriented:
//!
//! ```text
//! PIC  := 0x01 ptype:u8 qscale:u8 temporal_ref:u16 mb_cols:u16 mb_rows:u16     (9 B)
//! MB   := 0x02 mode:u8 cbp:u8                                                  (3 B, token stream)
//! MBMV := 0x02 mode:u8 cbp:u8 fdx:i16 fdy:i16 bdx:i16 bdy:i16                  (11 B, mv stream)
//! BLK  := [dc:i16 if intra] nsym:u16 nsym*(run:u8 level:i16)                   (token stream)
//! CBLK := 0x02 64*i16                                                          (129 B, coef/residual)
//! PIX  := 6 * 64 * u8                                                          (384 B, recon stream)
//! EOS  := 0xFF                                                                 (1 B, all streams)
//! ```

use eclipse_media::motion::{MotionVector, PredictionMode};
use eclipse_media::stream::PictureType;
use eclipse_sim::snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};

/// The simulated-time interval during which a coprocessor task processed
/// one picture — the basis for the per-picture-type bottleneck analysis
/// of the Figure 10 experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PicSpan {
    /// Display index of the picture.
    pub temporal_ref: u16,
    /// Picture coding type.
    pub ptype: PictureType,
    /// Cycle at which the task started the picture.
    pub start: u64,
    /// Cycle at which the task finished the picture.
    pub end: u64,
}

eclipse_sim::snap_fields!(PicSpan {
    temporal_ref,
    ptype,
    start,
    end
});

/// Record tag: picture header.
pub const TAG_PIC: u8 = 0x01;
/// Record tag: macroblock (or coefficient block on the block streams).
pub const TAG_MB: u8 = 0x02;
/// Record tag: end of stream.
pub const TAG_EOS: u8 = 0xFF;

/// Size of a [`PicRec`] on the wire.
pub const PIC_REC_BYTES: u32 = 9;
/// Size of an `MB` header on the token stream.
pub const MB_REC_BYTES: u32 = 3;
/// Size of an `MBMV` record on the mv stream.
pub const MBMV_REC_BYTES: u32 = 11;
/// Size of a coefficient/residual block record (tag + 64 × i16).
pub const CBLK_REC_BYTES: u32 = 129;
/// Size of a reconstructed-macroblock record (6 × 64 samples).
pub const PIX_REC_BYTES: u32 = 384;

/// Macroblock prediction mode codes on the wire.
pub mod mode {
    /// Skipped (P pictures): zero-MV forward copy, no residual.
    pub const SKIP: u8 = 0;
    /// Intra.
    pub const INTRA: u8 = 1;
    /// Forward prediction.
    pub const FWD: u8 = 2;
    /// Backward prediction.
    pub const BWD: u8 = 3;
    /// Bidirectional prediction.
    pub const BI: u8 = 4;
}

/// A picture header record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PicRec {
    /// Picture coding type.
    pub ptype: PictureType,
    /// Quantizer scale.
    pub qscale: u8,
    /// Display index.
    pub temporal_ref: u16,
    /// Macroblock columns.
    pub mb_cols: u16,
    /// Macroblock rows.
    pub mb_rows: u16,
}

impl PicRec {
    /// Serialize (9 bytes, including the tag).
    pub fn to_bytes(&self) -> [u8; PIC_REC_BYTES as usize] {
        let mut b = [0u8; PIC_REC_BYTES as usize];
        b[0] = TAG_PIC;
        b[1] = self.ptype.to_u8();
        b[2] = self.qscale;
        b[3..5].copy_from_slice(&self.temporal_ref.to_le_bytes());
        b[5..7].copy_from_slice(&self.mb_cols.to_le_bytes());
        b[7..9].copy_from_slice(&self.mb_rows.to_le_bytes());
        b
    }

    /// Deserialize the 8 bytes after the tag.
    pub fn from_body(b: &[u8]) -> Option<PicRec> {
        if b.len() < 8 {
            return None;
        }
        Some(PicRec {
            ptype: PictureType::from_u8(b[0]).ok()?,
            qscale: b[1],
            temporal_ref: u16::from_le_bytes([b[2], b[3]]),
            mb_cols: u16::from_le_bytes([b[4], b[5]]),
            mb_rows: u16::from_le_bytes([b[6], b[7]]),
        })
    }

    /// Macroblocks in this picture.
    pub fn mb_count(&self) -> u32 {
        self.mb_cols as u32 * self.mb_rows as u32
    }
}

/// A placeholder with no macroblocks, for a checkpoint to load into.
impl Default for PicRec {
    fn default() -> Self {
        PicRec {
            ptype: PictureType::I,
            qscale: 0,
            temporal_ref: 0,
            mb_cols: 0,
            mb_rows: 0,
        }
    }
}

/// The wire format, tag included; loading rejects an unknown picture
/// type. A damaged stream can carry any grid, so the tasks that index by
/// it check it themselves.
impl Snapshot for PicRec {
    fn save(&self, w: &mut SnapWriter) {
        w.raw(&self.to_bytes());
    }

    fn load(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let bytes = r.raw(PIC_REC_BYTES as usize)?;
        *self = PicRec::from_body(&bytes[1..]).ok_or(SnapError::Corrupt("picture record"))?;
        Ok(())
    }
}

/// Encode a [`PredictionMode`] option (None = skip) as a wire mode code
/// plus its motion vectors.
pub fn encode_mode(m: Option<PredictionMode>) -> (u8, MotionVector, MotionVector) {
    let zero = MotionVector::default();
    match m {
        None => (mode::SKIP, zero, zero),
        Some(PredictionMode::Intra) => (mode::INTRA, zero, zero),
        Some(PredictionMode::Forward(f)) => (mode::FWD, f, zero),
        Some(PredictionMode::Backward(b)) => (mode::BWD, zero, b),
        Some(PredictionMode::Bidirectional(f, b)) => (mode::BI, f, b),
    }
}

/// Decode a wire mode code plus vectors back into a [`PredictionMode`]
/// option. Returns `None` for invalid codes.
pub fn decode_mode(
    code: u8,
    fwd: MotionVector,
    bwd: MotionVector,
) -> Option<Option<PredictionMode>> {
    Some(match code {
        mode::SKIP => None,
        mode::INTRA => Some(PredictionMode::Intra),
        mode::FWD => Some(PredictionMode::Forward(fwd)),
        mode::BWD => Some(PredictionMode::Backward(bwd)),
        mode::BI => Some(PredictionMode::Bidirectional(fwd, bwd)),
        _ => return None,
    })
}

/// Serialize an `MBMV` record (11 bytes).
pub fn mbmv_to_bytes(
    mode_code: u8,
    cbp: u8,
    fwd: MotionVector,
    bwd: MotionVector,
) -> [u8; MBMV_REC_BYTES as usize] {
    let mut b = [0u8; MBMV_REC_BYTES as usize];
    b[0] = TAG_MB;
    b[1] = mode_code;
    b[2] = cbp;
    b[3..5].copy_from_slice(&fwd.dx.to_le_bytes());
    b[5..7].copy_from_slice(&fwd.dy.to_le_bytes());
    b[7..9].copy_from_slice(&bwd.dx.to_le_bytes());
    b[9..11].copy_from_slice(&bwd.dy.to_le_bytes());
    b
}

/// Deserialize the 10 bytes after the tag of an `MBMV` record.
pub fn mbmv_from_body(b: &[u8]) -> Option<(u8, u8, MotionVector, MotionVector)> {
    if b.len() < 10 {
        return None;
    }
    let fwd = MotionVector {
        dx: i16::from_le_bytes([b[2], b[3]]),
        dy: i16::from_le_bytes([b[4], b[5]]),
    };
    let bwd = MotionVector {
        dx: i16::from_le_bytes([b[6], b[7]]),
        dy: i16::from_le_bytes([b[8], b[9]]),
    };
    Some((b[0], b[1], fwd, bwd))
}

/// Serialize a 64-coefficient block record (tag + 128 bytes).
pub fn cblk_to_bytes(block: &[i16; 64]) -> [u8; CBLK_REC_BYTES as usize] {
    let mut b = [0u8; CBLK_REC_BYTES as usize];
    b[0] = TAG_MB;
    for (i, &v) in block.iter().enumerate() {
        b[1 + 2 * i..3 + 2 * i].copy_from_slice(&v.to_le_bytes());
    }
    b
}

/// Deserialize the 128 bytes after the tag of a block record.
pub fn cblk_from_body(b: &[u8]) -> Option<[i16; 64]> {
    if b.len() < 128 {
        return None;
    }
    let mut out = [0i16; 64];
    for (i, v) in out.iter_mut().enumerate() {
        *v = i16::from_le_bytes([b[2 * i], b[2 * i + 1]]);
    }
    Some(out)
}

/// Serialize a reconstructed macroblock (6 × 64 samples, clamped).
pub fn pix_to_bytes(blocks: &[[i16; 64]; 6]) -> [u8; PIX_REC_BYTES as usize] {
    let mut b = [0u8; PIX_REC_BYTES as usize];
    for (blk, block) in blocks.iter().enumerate() {
        for (i, &v) in block.iter().enumerate() {
            b[blk * 64 + i] = v.clamp(0, 255) as u8;
        }
    }
    b
}

/// Deserialize a reconstructed macroblock.
pub fn pix_from_bytes(b: &[u8]) -> Option<[[i16; 64]; 6]> {
    if b.len() < PIX_REC_BYTES as usize {
        return None;
    }
    let mut out = [[0i16; 64]; 6];
    for (blk, block) in out.iter_mut().enumerate() {
        for (i, v) in block.iter_mut().enumerate() {
            *v = b[blk * 64 + i] as i16;
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pic_rec_round_trip() {
        let p = PicRec {
            ptype: PictureType::B,
            qscale: 13,
            temporal_ref: 999,
            mb_cols: 45,
            mb_rows: 36,
        };
        let bytes = p.to_bytes();
        assert_eq!(bytes[0], TAG_PIC);
        assert_eq!(PicRec::from_body(&bytes[1..]).unwrap(), p);
        assert_eq!(p.mb_count(), 45 * 36);
    }

    #[test]
    fn mbmv_round_trip() {
        let f = MotionVector { dx: -17, dy: 30 };
        let b = MotionVector { dx: 5, dy: -5 };
        let bytes = mbmv_to_bytes(mode::BI, 0b101010, f, b);
        let (m, cbp, f2, b2) = mbmv_from_body(&bytes[1..]).unwrap();
        assert_eq!((m, cbp, f2, b2), (mode::BI, 0b101010, f, b));
    }

    #[test]
    fn cblk_round_trip() {
        let mut blk = [0i16; 64];
        for (i, v) in blk.iter_mut().enumerate() {
            *v = (i as i16 * 37) - 900;
        }
        let bytes = cblk_to_bytes(&blk);
        assert_eq!(bytes[0], TAG_MB);
        assert_eq!(cblk_from_body(&bytes[1..]).unwrap(), blk);
    }

    #[test]
    fn pix_round_trip_clamps() {
        let mut blocks = [[0i16; 64]; 6];
        blocks[0][0] = -5;
        blocks[0][1] = 300;
        blocks[5][63] = 200;
        let bytes = pix_to_bytes(&blocks);
        let back = pix_from_bytes(&bytes).unwrap();
        assert_eq!(back[0][0], 0);
        assert_eq!(back[0][1], 255);
        assert_eq!(back[5][63], 200);
    }

    #[test]
    fn mode_codes_round_trip() {
        use eclipse_media::motion::PredictionMode as P;
        let f = MotionVector { dx: 1, dy: 2 };
        let b = MotionVector { dx: 3, dy: 4 };
        for m in [
            None,
            Some(P::Intra),
            Some(P::Forward(f)),
            Some(P::Backward(b)),
            Some(P::Bidirectional(f, b)),
        ] {
            let (code, fv, bv) = encode_mode(m);
            assert_eq!(decode_mode(code, fv, bv).unwrap(), m);
        }
        assert!(decode_mode(99, f, b).is_none());
    }

    #[test]
    fn truncated_bodies_return_none() {
        assert!(PicRec::from_body(&[0; 7]).is_none());
        assert!(mbmv_from_body(&[0; 9]).is_none());
        assert!(cblk_from_body(&[0; 127]).is_none());
        assert!(pix_from_bytes(&[0; 100]).is_none());
    }
}
