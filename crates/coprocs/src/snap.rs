//! Checkpoint helpers shared by the coprocessor models.
//!
//! The coprocessor task tables are serialized *wholesale* — each entry
//! carries its full configuration alongside the dynamic parse state — so
//! a restore can rebuild tasks that were bound by run-time
//! reconfiguration after the target system was built. These helpers
//! cover the media-layer value types the task states embed.

use eclipse_media::frame::Frame;
use eclipse_media::motion::MotionVector;
use eclipse_media::stream::{GopConfig, PictureType, SequenceHeader};
use eclipse_sim::snapshot::{SnapError, SnapReader, SnapWriter};

use crate::records::{PicRec, PIC_REC_BYTES};

/// Largest bitstream a task buffer may restore from a checkpoint: the
/// default off-chip memory's capacity, so any stream that can be staged
/// for the instance fits.
pub(crate) const MAX_STREAM_BYTES: usize = 64 << 20;

/// Largest frame side: MPEG-1 codes picture sizes in 12 bits.
const MAX_FRAME_SIDE: usize = (1 << 12) - 1;

/// Write a motion vector (two i16 components).
pub(crate) fn save_mv(w: &mut SnapWriter, mv: MotionVector) {
    w.i16(mv.dx);
    w.i16(mv.dy);
}

/// Read a motion vector.
pub(crate) fn load_mv(r: &mut SnapReader) -> Result<MotionVector, SnapError> {
    Ok(MotionVector {
        dx: r.i16()?,
        dy: r.i16()?,
    })
}

/// Write a sequence header.
pub(crate) fn save_seq(w: &mut SnapWriter, s: &SequenceHeader) {
    w.u16(s.width);
    w.u16(s.height);
    w.u8(s.qscale);
    w.u8(s.gop.n);
    w.u8(s.gop.m);
    w.u16(s.num_frames);
}

/// Read a sequence header.
pub(crate) fn load_seq(r: &mut SnapReader) -> Result<SequenceHeader, SnapError> {
    Ok(SequenceHeader {
        width: r.u16()?,
        height: r.u16()?,
        qscale: r.u8()?,
        gop: GopConfig {
            n: r.u8()?,
            m: r.u8()?,
        },
        num_frames: r.u16()?,
    })
}

/// Write an optional sequence header.
pub(crate) fn save_seq_opt(w: &mut SnapWriter, s: &Option<SequenceHeader>) {
    match s {
        None => w.bool(false),
        Some(s) => {
            w.bool(true);
            save_seq(w, s);
        }
    }
}

/// Read an optional sequence header.
pub(crate) fn load_seq_opt(r: &mut SnapReader) -> Result<Option<SequenceHeader>, SnapError> {
    Ok(if r.bool()? { Some(load_seq(r)?) } else { None })
}

/// Write a picture record through its wire format.
pub(crate) fn save_pic(w: &mut SnapWriter, p: &PicRec) {
    w.raw(&p.to_bytes());
}

/// Read a picture record.
pub(crate) fn load_pic(r: &mut SnapReader) -> Result<PicRec, SnapError> {
    let bytes = r.raw(PIC_REC_BYTES as usize)?;
    PicRec::from_body(&bytes[1..]).ok_or(SnapError::Corrupt("picture record"))
}

/// Write an optional picture record.
pub(crate) fn save_pic_opt(w: &mut SnapWriter, p: &Option<PicRec>) {
    match p {
        None => w.bool(false),
        Some(p) => {
            w.bool(true);
            save_pic(w, p);
        }
    }
}

/// Read an optional picture record.
pub(crate) fn load_pic_opt(r: &mut SnapReader) -> Result<Option<PicRec>, SnapError> {
    Ok(if r.bool()? { Some(load_pic(r)?) } else { None })
}

/// Write a picture coding type as its wire byte.
pub(crate) fn save_ptype(w: &mut SnapWriter, p: PictureType) {
    w.u8(p.to_u8());
}

/// Read a picture coding type.
pub(crate) fn load_ptype(r: &mut SnapReader) -> Result<PictureType, SnapError> {
    PictureType::from_u8(r.u8()?).map_err(|_| SnapError::Corrupt("picture type"))
}

/// Write a frame (geometry plus the three sample planes).
pub(crate) fn save_frame(w: &mut SnapWriter, f: &Frame) {
    w.usize(f.width);
    w.usize(f.height);
    w.blob(&f.y.data);
    w.blob(&f.u.data);
    w.blob(&f.v.data);
}

/// Read a frame.
pub(crate) fn load_frame(r: &mut SnapReader) -> Result<Frame, SnapError> {
    let width = r.usize()?;
    let height = r.usize()?;
    let side_ok = |s: usize| s != 0 && s <= MAX_FRAME_SIDE && s.is_multiple_of(16);
    if !side_ok(width) || !side_ok(height) {
        return Err(SnapError::Corrupt("frame geometry"));
    }
    let mut f = Frame::new(width, height);
    r.blob_into(&mut f.y.data)?;
    r.blob_into(&mut f.u.data)?;
    r.blob_into(&mut f.v.data)?;
    Ok(f)
}

/// Write an optional frame.
pub(crate) fn save_frame_opt(w: &mut SnapWriter, f: &Option<Frame>) {
    match f {
        None => w.bool(false),
        Some(f) => {
            w.bool(true);
            save_frame(w, f);
        }
    }
}

/// Read an optional frame.
pub(crate) fn load_frame_opt(r: &mut SnapReader) -> Result<Option<Frame>, SnapError> {
    Ok(if r.bool()? {
        Some(load_frame(r)?)
    } else {
        None
    })
}
