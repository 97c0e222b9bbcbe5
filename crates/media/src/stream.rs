//! Elementary-stream syntax and GOP structure.
//!
//! Our MPEG-2-*like* bit syntax (see the crate-level substitution note).
//! The stream is a sequence header, then pictures **in coded order**
//! (anchors before the B pictures that precede them in display order),
//! then an end marker. Every header starts byte-aligned with a 32-bit
//! marker; macroblock data is a bit-packed layer parsed by the VLD.
//!
//! Layout:
//!
//! ```text
//! SEQ  := "ECLS" width:u16 height:u16 qscale:u8 gop_n:u8 gop_m:u8 frames:u16
//! PIC  := "ECLP" type:u8 temporal_ref:u16 qscale:u8 MB* align
//! END  := "ECLE"
//! MB   := mb_type:uev [mvs:sev*] [cbp:6 (blocks)*]
//! block:= intra? dc_diff:sev ; (run,level)* EOB   (via the Huffman code)
//! ```

use crate::bits::{BitReader, BitWriter, EndOfStream};
use crate::motion::{MotionVector, PredictionMode};
use crate::vlc::{get_sev, get_uev, put_sev, put_uev};

/// Sequence start marker, "ECLS".
pub const MARKER_SEQ: u32 = 0x45434C53;
/// Picture start marker, "ECLP".
pub const MARKER_PIC: u32 = 0x45434C50;
/// End-of-stream marker, "ECLE".
pub const MARKER_END: u32 = 0x45434C45;

/// Picture coding types.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum PictureType {
    /// Intra-coded.
    #[default]
    I,
    /// Forward-predicted.
    P,
    /// Bidirectionally predicted.
    B,
}

eclipse_sim::snap_enum!(PictureType { I = 0, P = 1, B = 2 });

impl PictureType {
    /// Encode as a header byte.
    pub fn to_u8(self) -> u8 {
        match self {
            PictureType::I => 0,
            PictureType::P => 1,
            PictureType::B => 2,
        }
    }

    /// Decode from a header byte.
    pub fn from_u8(v: u8) -> Result<Self, StreamError> {
        match v {
            0 => Ok(PictureType::I),
            1 => Ok(PictureType::P),
            2 => Ok(PictureType::B),
            _ => Err(StreamError::BadPictureType(v)),
        }
    }
}

/// GOP structure parameters: `n` = GOP length (I-picture period), `m` =
/// anchor distance (`m - 1` B pictures between anchors; `m = 1` disables
/// B pictures). The paper's Figure 10 uses the classic IPBBPBBP pattern
/// (`n = 12`-ish, `m = 3`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GopConfig {
    /// I-picture period (>= 1).
    pub n: u8,
    /// Anchor distance (>= 1, <= n).
    pub m: u8,
}

impl Default for GopConfig {
    fn default() -> Self {
        GopConfig { n: 12, m: 3 }
    }
}

eclipse_sim::snap_fields!(GopConfig { n, m });

/// One planned picture of a sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedPicture {
    /// Display (temporal) index.
    pub display_idx: u16,
    /// Assigned coding type.
    pub ptype: PictureType,
}

impl GopConfig {
    /// Plan the picture types for `num_frames` frames, in display order.
    /// B pictures that would lack a future anchor (at the sequence tail)
    /// are demoted to P.
    pub fn plan(&self, num_frames: u16) -> Vec<PlannedPicture> {
        assert!(
            self.n >= 1 && self.m >= 1 && self.m <= self.n,
            "invalid GOP config {self:?}"
        );
        let mut plan: Vec<PlannedPicture> = (0..num_frames)
            .map(|i| {
                let g = i % self.n as u16;
                let ptype = if g == 0 {
                    PictureType::I
                } else if g.is_multiple_of(self.m as u16) {
                    PictureType::P
                } else {
                    PictureType::B
                };
                PlannedPicture {
                    display_idx: i,
                    ptype,
                }
            })
            .collect();
        // Demote trailing Bs (no future anchor) to P.
        let last_anchor = plan.iter().rposition(|p| p.ptype != PictureType::B);
        if let Some(last) = last_anchor {
            for p in plan.iter_mut().skip(last + 1) {
                p.ptype = PictureType::P;
            }
        } else {
            // Degenerate: all B (can't happen since frame 0 is I), but be safe.
            for p in plan.iter_mut() {
                p.ptype = PictureType::P;
            }
            if let Some(first) = plan.first_mut() {
                first.ptype = PictureType::I;
            }
        }
        plan
    }

    /// Coded (transmission/decode) order of the planned pictures: each
    /// anchor is emitted before the B pictures that precede it in display
    /// order.
    pub fn coded_order(&self, num_frames: u16) -> Vec<PlannedPicture> {
        let plan = self.plan(num_frames);
        let mut coded = Vec::with_capacity(plan.len());
        let mut pending_b: Vec<PlannedPicture> = Vec::new();
        for p in plan {
            if p.ptype == PictureType::B {
                pending_b.push(p);
            } else {
                coded.push(p);
                coded.append(&mut pending_b);
            }
        }
        // Trailing Bs were demoted to P by plan(), so pending_b is empty.
        debug_assert!(pending_b.is_empty());
        coded
    }
}

/// Sequence-level parameters carried in the sequence header.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SequenceHeader {
    /// Luma width (multiple of 16).
    pub width: u16,
    /// Luma height (multiple of 16).
    pub height: u16,
    /// Base quantizer scale.
    pub qscale: u8,
    /// GOP structure.
    pub gop: GopConfig,
    /// Number of coded pictures.
    pub num_frames: u16,
}

eclipse_sim::snap_fields!(SequenceHeader {
    width,
    height,
    qscale,
    gop,
    num_frames
});

impl SequenceHeader {
    /// Largest dimension the decoder will allocate for — a corrupt header
    /// must not be able to demand gigabyte frame stores.
    pub const MAX_DIM: u16 = 4096;

    /// Validate the header against the decodable range. Any stream the
    /// encoder can produce passes; headers reconstructed from corrupted
    /// bytes frequently do not, and the decoders reject them before
    /// allocating frame memory (a corrupt width of 0 or 0xFFFF would
    /// otherwise panic or exhaust memory downstream).
    pub fn validate(&self) -> Result<(), StreamError> {
        let dim_ok = |d: u16| d > 0 && d.is_multiple_of(16) && d <= Self::MAX_DIM;
        if !dim_ok(self.width) || !dim_ok(self.height) {
            return Err(StreamError::BadSequence);
        }
        if self.gop.n < 1 || self.gop.m < 1 || self.gop.m > self.gop.n {
            return Err(StreamError::BadSequence);
        }
        Ok(())
    }
}

/// Picture-level parameters carried in each picture header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PictureHeader {
    /// Coding type.
    pub ptype: PictureType,
    /// Display index of this picture.
    pub temporal_ref: u16,
    /// Quantizer scale for this picture.
    pub qscale: u8,
}

/// Stream parsing errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamError {
    /// Bit reader ran dry.
    Eos,
    /// Expected a specific marker, found something else.
    BadMarker {
        /// The marker we expected.
        expected: u32,
        /// What we found instead.
        found: u32,
    },
    /// Unknown picture type byte.
    BadPictureType(u8),
    /// Unknown macroblock type code.
    BadMbType(u32),
    /// Run/level data overflowed a block.
    BlockOverflow,
    /// Sequence header fields outside the decodable range (zero or
    /// non-multiple-of-16 dimensions, absurd sizes, bad GOP shape).
    BadSequence,
    /// A predicted picture referenced an anchor frame that was never
    /// decoded (corrupt picture type or truncated stream head).
    MissingReference,
}

impl From<EndOfStream> for StreamError {
    fn from(_: EndOfStream) -> Self {
        StreamError::Eos
    }
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Eos => write!(f, "unexpected end of stream"),
            StreamError::BadMarker { expected, found } => {
                write!(
                    f,
                    "bad marker: expected {expected:#010x}, found {found:#010x}"
                )
            }
            StreamError::BadPictureType(v) => write!(f, "bad picture type byte {v}"),
            StreamError::BadMbType(v) => write!(f, "bad macroblock type code {v}"),
            StreamError::BlockOverflow => write!(f, "coefficient data overflows 8x8 block"),
            StreamError::BadSequence => write!(f, "sequence header outside decodable range"),
            StreamError::MissingReference => {
                write!(f, "predicted picture without a decoded reference")
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// Write the sequence header.
pub fn write_sequence_header(w: &mut BitWriter, h: &SequenceHeader) {
    w.byte_align();
    w.put_bits(MARKER_SEQ, 32);
    w.put_bits(h.width as u32, 16);
    w.put_bits(h.height as u32, 16);
    w.put_bits(h.qscale as u32, 8);
    w.put_bits(h.gop.n as u32, 8);
    w.put_bits(h.gop.m as u32, 8);
    w.put_bits(h.num_frames as u32, 16);
}

/// Read the sequence header.
pub fn read_sequence_header(r: &mut BitReader) -> Result<SequenceHeader, StreamError> {
    expect_marker(r, MARKER_SEQ)?;
    let width = r.get_bits(16)? as u16;
    let height = r.get_bits(16)? as u16;
    let qscale = r.get_bits(8)? as u8;
    let n = r.get_bits(8)? as u8;
    let m = r.get_bits(8)? as u8;
    let num_frames = r.get_bits(16)? as u16;
    Ok(SequenceHeader {
        width,
        height,
        qscale,
        gop: GopConfig { n, m },
        num_frames,
    })
}

/// Write a picture header (byte-aligns first).
pub fn write_picture_header(w: &mut BitWriter, h: &PictureHeader) {
    w.byte_align();
    w.put_bits(MARKER_PIC, 32);
    w.put_bits(h.ptype.to_u8() as u32, 8);
    w.put_bits(h.temporal_ref as u32, 16);
    w.put_bits(h.qscale as u32, 8);
}

/// Read a picture header (expects byte alignment).
pub fn read_picture_header(r: &mut BitReader) -> Result<PictureHeader, StreamError> {
    r.byte_align();
    expect_marker(r, MARKER_PIC)?;
    let ptype = PictureType::from_u8(r.get_bits(8)? as u8)?;
    let temporal_ref = r.get_bits(16)? as u16;
    let qscale = r.get_bits(8)? as u8;
    Ok(PictureHeader {
        ptype,
        temporal_ref,
        qscale,
    })
}

/// Write the end-of-stream marker.
pub fn write_end(w: &mut BitWriter) {
    w.byte_align();
    w.put_bits(MARKER_END, 32);
}

/// Peek the next byte-aligned marker without consuming it.
pub fn peek_marker(r: &mut BitReader) -> Result<u32, StreamError> {
    r.byte_align();
    let mut probe = r.clone();
    Ok(probe.get_bits(32)?)
}

/// Error-recovery resynchronization: scan forward byte by byte for the
/// next picture or end marker. Leaves the reader positioned *at* the
/// marker and returns it, or `None` when the stream runs out first (the
/// caller then abandons the tail). This is the software analogue of an
/// MPEG decoder hunting for the next start code after a syntax error.
pub fn resync_to_marker(r: &mut BitReader) -> Option<u32> {
    r.byte_align();
    while r.remaining_bits() >= 32 {
        let mut probe = r.clone();
        let m = probe.get_bits(32).ok()?;
        if m == MARKER_PIC || m == MARKER_END {
            return Some(m);
        }
        let _ = r.get_bits(8);
    }
    None
}

fn expect_marker(r: &mut BitReader, expected: u32) -> Result<(), StreamError> {
    let found = r.get_bits(32)?;
    if found != expected {
        return Err(StreamError::BadMarker { expected, found });
    }
    Ok(())
}

// ---- macroblock header layer ---------------------------------------------

/// Decoded macroblock header: coding decision + coded block pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MbHeader {
    /// Prediction mode (None encodes a skipped macroblock).
    pub mode: Option<PredictionMode>,
    /// Coded block pattern: bit 5..0 = Y00, Y01, Y10, Y11, U, V
    /// (bit 5 is Y00). Zero for skipped macroblocks.
    pub cbp: u8,
}

impl MbHeader {
    /// A skipped macroblock (P pictures: zero-MV forward copy, no
    /// residual).
    pub const SKIP: MbHeader = MbHeader { mode: None, cbp: 0 };
}

const MB_SKIP: u32 = 0;
const MB_INTRA: u32 = 1;
const MB_FWD: u32 = 2;
const MB_BWD: u32 = 3;
const MB_BI: u32 = 4;

/// Write a macroblock header.
pub fn write_mb_header(w: &mut BitWriter, h: &MbHeader) {
    match h.mode {
        None => {
            put_uev(w, MB_SKIP);
        }
        Some(PredictionMode::Intra) => {
            put_uev(w, MB_INTRA);
            w.put_bits(h.cbp as u32, 6);
        }
        Some(PredictionMode::Forward(mv)) => {
            put_uev(w, MB_FWD);
            put_sev(w, mv.dx as i32);
            put_sev(w, mv.dy as i32);
            w.put_bits(h.cbp as u32, 6);
        }
        Some(PredictionMode::Backward(mv)) => {
            put_uev(w, MB_BWD);
            put_sev(w, mv.dx as i32);
            put_sev(w, mv.dy as i32);
            w.put_bits(h.cbp as u32, 6);
        }
        Some(PredictionMode::Bidirectional(f, b)) => {
            put_uev(w, MB_BI);
            put_sev(w, f.dx as i32);
            put_sev(w, f.dy as i32);
            put_sev(w, b.dx as i32);
            put_sev(w, b.dy as i32);
            w.put_bits(h.cbp as u32, 6);
        }
    }
}

/// Read a macroblock header. Returns the header and bits consumed.
pub fn read_mb_header(r: &mut BitReader) -> Result<(MbHeader, u32), StreamError> {
    let start = r.bit_pos();
    let code = get_uev(r)?;
    let h = match code {
        MB_SKIP => MbHeader::SKIP,
        MB_INTRA => {
            let cbp = r.get_bits(6)? as u8;
            MbHeader {
                mode: Some(PredictionMode::Intra),
                cbp,
            }
        }
        MB_FWD | MB_BWD => {
            let dx = get_sev(r)? as i16;
            let dy = get_sev(r)? as i16;
            let cbp = r.get_bits(6)? as u8;
            let mv = MotionVector { dx, dy };
            let mode = if code == MB_FWD {
                PredictionMode::Forward(mv)
            } else {
                PredictionMode::Backward(mv)
            };
            MbHeader {
                mode: Some(mode),
                cbp,
            }
        }
        MB_BI => {
            let fdx = get_sev(r)? as i16;
            let fdy = get_sev(r)? as i16;
            let bdx = get_sev(r)? as i16;
            let bdy = get_sev(r)? as i16;
            let cbp = r.get_bits(6)? as u8;
            MbHeader {
                mode: Some(PredictionMode::Bidirectional(
                    MotionVector { dx: fdx, dy: fdy },
                    MotionVector { dx: bdx, dy: bdy },
                )),
                cbp,
            }
        }
        other => return Err(StreamError::BadMbType(other)),
    };
    Ok((h, (r.bit_pos() - start) as u32))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gop_plan_ipbb_pattern() {
        let gop = GopConfig { n: 6, m: 3 };
        let plan = gop.plan(12);
        let types: Vec<PictureType> = plan.iter().map(|p| p.ptype).collect();
        use PictureType::*;
        // Trailing Bs (displays 10, 11) have no future anchor -> demoted to P.
        assert_eq!(types, vec![I, B, B, P, B, B, I, B, B, P, P, P]);
    }

    #[test]
    fn gop_plan_no_b_frames_when_m_is_1() {
        let gop = GopConfig { n: 4, m: 1 };
        let plan = gop.plan(8);
        use PictureType::*;
        let types: Vec<PictureType> = plan.iter().map(|p| p.ptype).collect();
        assert_eq!(types, vec![I, P, P, P, I, P, P, P]);
    }

    #[test]
    fn coded_order_puts_anchor_before_its_b_frames() {
        let gop = GopConfig { n: 12, m: 3 };
        let coded = gop.coded_order(7);
        let seq: Vec<(u16, PictureType)> = coded.iter().map(|p| (p.display_idx, p.ptype)).collect();
        use PictureType::*;
        // display: I0 B1 B2 P3 B4 B5 P6 -> coded: I0 P3 B1 B2 P6 B4 B5
        assert_eq!(
            seq,
            vec![(0, I), (3, P), (1, B), (2, B), (6, P), (4, B), (5, B)]
        );
    }

    #[test]
    fn coded_order_is_a_permutation() {
        let gop = GopConfig { n: 12, m: 3 };
        let coded = gop.coded_order(50);
        let mut idxs: Vec<u16> = coded.iter().map(|p| p.display_idx).collect();
        idxs.sort_unstable();
        assert_eq!(idxs, (0..50).collect::<Vec<u16>>());
    }

    #[test]
    fn b_picture_never_precedes_its_anchors_in_coded_order() {
        let gop = GopConfig { n: 12, m: 3 };
        let coded = gop.coded_order(40);
        for (i, p) in coded.iter().enumerate() {
            if p.ptype == PictureType::B {
                // Both neighbouring anchors must already have appeared.
                let decoded: Vec<u16> = coded[..i].iter().map(|q| q.display_idx).collect();
                let past = decoded.iter().any(|&d| d < p.display_idx);
                let future = decoded.iter().any(|&d| d > p.display_idx);
                assert!(
                    past && future,
                    "B picture {} lacks decoded anchors",
                    p.display_idx
                );
            }
        }
    }

    #[test]
    fn sequence_header_round_trip() {
        let h = SequenceHeader {
            width: 720,
            height: 576,
            qscale: 8,
            gop: GopConfig { n: 12, m: 3 },
            num_frames: 25,
        };
        let mut w = BitWriter::new();
        write_sequence_header(&mut w, &h);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(read_sequence_header(&mut r).unwrap(), h);
    }

    #[test]
    fn picture_header_round_trip() {
        let h = PictureHeader {
            ptype: PictureType::B,
            temporal_ref: 17,
            qscale: 12,
        };
        let mut w = BitWriter::new();
        w.put_bits(0b101, 3); // force misalignment; writer must align
        write_picture_header(&mut w, &h);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        r.get_bits(3).unwrap();
        assert_eq!(read_picture_header(&mut r).unwrap(), h);
    }

    #[test]
    fn bad_marker_is_reported() {
        let mut w = BitWriter::new();
        w.put_bits(0xDEADBEEF, 32);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        match read_sequence_header(&mut r) {
            Err(StreamError::BadMarker { expected, found }) => {
                assert_eq!(expected, MARKER_SEQ);
                assert_eq!(found, 0xDEADBEEF);
            }
            other => panic!("expected BadMarker, got {other:?}"),
        }
    }

    #[test]
    fn mb_header_round_trips_all_modes() {
        let cases = vec![
            MbHeader::SKIP,
            MbHeader {
                mode: Some(PredictionMode::Intra),
                cbp: 0b111111,
            },
            MbHeader {
                mode: Some(PredictionMode::Forward(MotionVector { dx: -7, dy: 12 })),
                cbp: 0b101010,
            },
            MbHeader {
                mode: Some(PredictionMode::Backward(MotionVector { dx: 3, dy: -3 })),
                cbp: 0,
            },
            MbHeader {
                mode: Some(PredictionMode::Bidirectional(
                    MotionVector { dx: 15, dy: -15 },
                    MotionVector { dx: -1, dy: 0 },
                )),
                cbp: 0b000001,
            },
        ];
        let mut w = BitWriter::new();
        for c in &cases {
            write_mb_header(&mut w, c);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for c in &cases {
            let (h, bits) = read_mb_header(&mut r).unwrap();
            assert_eq!(&h, c);
            assert!(bits > 0);
        }
    }

    #[test]
    fn peek_marker_does_not_consume() {
        let mut w = BitWriter::new();
        write_end(&mut w);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(peek_marker(&mut r).unwrap(), MARKER_END);
        assert_eq!(peek_marker(&mut r).unwrap(), MARKER_END);
        assert_eq!(r.get_bits(32).unwrap(), MARKER_END);
    }
}
