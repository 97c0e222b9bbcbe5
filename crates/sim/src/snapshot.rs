//! Deterministic binary snapshots of simulator state.
//!
//! The Eclipse template is a deterministic fabric (shells arbitrate
//! per-cycle; the paper's Section 5 verification leans on
//! cycle-reproducible runs), so full-system state can be captured at any
//! event boundary and later restored bit-exactly. This module provides
//! the machinery every crate in the workspace shares:
//!
//! * [`SnapWriter`] / [`SnapReader`] — a tiny, versionless binary codec
//!   (little-endian fixed-width integers, length-prefixed containers,
//!   zero-run-length-encoded byte blobs for the large, mostly-zero
//!   memory arrays). The workspace has no serialization dependency, so
//!   the simulator carries its own codec; this also pins the byte format
//!   to this workspace alone — checkpoint compatibility can never be
//!   broken by an upstream dependency bump.
//! * [`Snapshot`] — the save/load trait implemented by every stateful
//!   struct. Loading is in-place (`&mut self`): a checkpoint captures
//!   *dynamic* state only and is restored into an identically-built
//!   system, so private configuration fields never need to be
//!   reconstructed from bytes. The integers, `bool`, `f64`, `String`,
//!   `Option`, `Vec`, arrays, slices, tuples and ordered maps implement
//!   it here; a struct lists its fields once in
//!   [`snap_fields!`](crate::snap_fields) (an enum its variants in
//!   [`snap_enum!`](crate::snap_enum)) and gets both halves from that
//!   one list, so save and load cannot disagree on order.
//! * [`fnv1a_64`] — the rolling digest behind `EclipseSystem::state_hash`
//!   and the checkpoint's configuration fingerprint. A
//!   [`SnapWriter::hashing`] writer feeds the digest directly instead of
//!   collecting bytes, so hashing the state never builds a checkpoint.
//!
//! ## Bounded decode
//!
//! A checkpoint is untrusted input: no length prefix sizes an allocation
//! before it is checked. A sequence may not claim more elements than
//! bytes remain ([`SnapReader::count`]) nor preallocate more bytes than
//! remain, blobs carry the caller's bound, and tables whose size is
//! fixed at build time must match it ([`SnapReader::expect_len`]).
//! Structural checks that need the whole system (indices into other
//! tables) run after decoding, in `EclipseSystem::restore`.
//!
//! ## Determinism contract
//!
//! Everything written through this codec must be a pure function of the
//! simulated state: no host pointers, no hash-map iteration order (maps
//! are serialized in sorted key order or stored as `BTreeMap`), no
//! platform-dependent float formatting (`f64` round-trips via
//! [`f64::to_bits`]). Two processes simulating the same run must produce
//! byte-identical checkpoints — the regression tests assert this.

/// Errors surfaced while decoding a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The byte stream ended before the decoder was done.
    Eof,
    /// The stream does not start with the checkpoint magic.
    Magic,
    /// The checkpoint format version is not supported.
    Version(u32),
    /// The checkpoint was taken from a differently-configured system.
    ConfigMismatch {
        /// Digest the restoring system expects.
        expected: u64,
        /// Digest recorded in the checkpoint.
        found: u64,
    },
    /// A decoded value is structurally impossible (bad enum tag,
    /// oversized length, mismatched table geometry, ...).
    Corrupt(&'static str),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Eof => write!(f, "checkpoint truncated"),
            SnapError::Magic => write!(f, "not an Eclipse checkpoint (bad magic)"),
            SnapError::Version(v) => write!(f, "unsupported checkpoint version {v}"),
            SnapError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint from a different configuration \
                 (expected digest {expected:#018x}, found {found:#018x})"
            ),
            SnapError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// FNV-1a 64-bit hash over a byte slice — the rolling state digest.
/// Chosen for its trivial, dependency-free definition; the digest is a
/// tamper/divergence detector, not a cryptographic commitment.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// [`std::hash::BuildHasher`] wrapping FNV-1a 64 — deterministic (no
/// per-process seed, so map iteration order is reproducible) and markedly
/// cheaper than SipHash for the short string keys the simulator hashes on
/// hot paths (trace-series names, interned labels).
#[derive(Debug, Clone, Copy, Default)]
pub struct FnvState;

impl std::hash::BuildHasher for FnvState {
    type Hasher = FnvHasher;
    fn build_hasher(&self) -> FnvHasher {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

/// Streaming counterpart of [`fnv1a_64`].
#[derive(Debug, Clone)]
pub struct FnvHasher(u64);

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }
}

/// Minimum zero-run length worth switching the blob encoder out of a
/// literal span (shorter runs cost more in segment headers than they
/// save).
const ZERO_RUN_MIN: usize = 32;

/// Length of the zero run at the head of `data`. The blob encoder scans
/// every byte it is not told is zero (all of SRAM and the frame planes,
/// the written pages of DRAM), so this scan is most of the checkpoint
/// cost. The first 64 bytes go a word at a time, which ends the short
/// runs inside literal spans early; a longer run continues in 64-byte
/// blocks, whose OR-fold the compiler vectorizes.
fn zero_prefix(data: &[u8]) -> usize {
    let word_is_zero = |i: usize| u64::from_le_bytes(data[i..i + 8].try_into().unwrap()) == 0;
    let mut i = 0;
    while i < 64 && i + 8 <= data.len() && word_is_zero(i) {
        i += 8;
    }
    if i == 64 {
        while i + 64 <= data.len() && data[i..i + 64].iter().fold(0, |acc, &b| acc | b) == 0 {
            i += 64;
        }
        while i + 8 <= data.len() && word_is_zero(i) {
            i += 8;
        }
    }
    while i < data.len() && data[i] == 0 {
        i += 1;
    }
    i
}

/// Append-only binary encoder. It either collects the bytes
/// ([`SnapWriter::new`]) or folds them into an FNV-1a digest as they are
/// written ([`SnapWriter::hashing`]); both see the identical byte stream.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
    hash: Option<FnvHasher>,
}

impl SnapWriter {
    /// An empty writer that collects bytes.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// A writer that keeps no bytes, only their FNV-1a digest
    /// ([`SnapWriter::digest`]).
    pub fn hashing() -> Self {
        SnapWriter {
            buf: Vec::new(),
            hash: Some(std::hash::BuildHasher::build_hasher(&FnvState)),
        }
    }

    /// FNV-1a of everything written so far ([`fnv1a_64`] of the bytes).
    pub fn digest(&self) -> u64 {
        match &self.hash {
            Some(h) => std::hash::Hasher::finish(h),
            None => fnv1a_64(&self.buf),
        }
    }

    /// The encoded bytes so far (empty for a hashing writer).
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consume the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        match &mut self.hash {
            None => self.buf.extend_from_slice(bytes),
            Some(h) => std::hash::Hasher::write(h, bytes),
        }
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    /// Write a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Write a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.put(&v.to_le_bytes());
    }

    /// Write a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    /// Write a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    /// Write a usize as a u64 (checkpoints are host-width independent).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Write a little-endian i16.
    pub fn i16(&mut self, v: i16) {
        self.put(&v.to_le_bytes());
    }

    /// Write a little-endian i32.
    pub fn i32(&mut self, v: i32) {
        self.put(&v.to_le_bytes());
    }

    /// Write an f64 by its IEEE-754 bit pattern (bit-exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.put(s.as_bytes());
    }

    /// Write raw bytes with no length prefix (caller encodes the length).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.put(bytes);
    }

    /// Write a byte blob with zero-run-length encoding: the large memory
    /// arrays (a default off-chip DRAM is 64 MiB, almost entirely zero)
    /// collapse to a handful of segment headers.
    ///
    /// Format: total length, then segments of `[tag][len]` where tag 0
    /// is a zero run and tag 1 a literal span followed by its bytes,
    /// until the segment lengths sum to the total. Every segment is
    /// nonempty.
    pub fn blob(&mut self, data: &[u8]) {
        self.encode_blob(data, |i| {
            if data[i] != 0 {
                return 0;
            }
            zero_prefix(&data[i..])
        });
    }

    /// [`SnapWriter::blob`] of a buffer that tracks which of its pages
    /// (`page_bytes`, a power of two) were ever written. `written(p) ==
    /// false` promises that page `p` is all zero, so it counts as zero
    /// run without being read. The output is byte-identical to
    /// `blob(data)`.
    pub fn blob_paged(&mut self, data: &[u8], page_bytes: usize, written: impl Fn(usize) -> bool) {
        assert!(page_bytes.is_power_of_two(), "page size {page_bytes}");
        let shift = page_bytes.trailing_zeros();
        self.encode_blob(data, |i| {
            if written(i >> shift) && data[i] != 0 {
                return 0;
            }
            let mut at = i;
            while at < data.len() {
                let page = at >> shift;
                let end = ((page + 1) << shift).min(data.len());
                if written(page) {
                    let z = zero_prefix(&data[at..end]);
                    if at + z < end {
                        return at + z - i;
                    }
                }
                at = end;
            }
            at - i
        });
    }

    /// The blob encoder, reading `data` only through `zero_run(i)`: the
    /// length of the zero run starting at byte `i` (0 when it is nonzero).
    fn encode_blob(&mut self, data: &[u8], zero_run: impl Fn(usize) -> usize) {
        self.usize(data.len());
        let mut i = 0;
        while i < data.len() {
            let run = zero_run(i);
            // An all-zero blob is one zero segment, however short.
            if run >= ZERO_RUN_MIN || run == data.len() {
                self.u8(0);
                self.usize(run);
                i += run;
                continue;
            }
            // Literal span: absorb short zero runs, stop before a long one.
            let start = i;
            i += run.max(1);
            while i < data.len() {
                let z = zero_run(i);
                if z >= ZERO_RUN_MIN {
                    break;
                }
                i += z.max(1);
            }
            self.u8(1);
            self.usize(i - start);
            self.put(&data[start..i]);
        }
    }
}

/// Cursor-based binary decoder over a checkpoint byte slice.
#[derive(Debug)]
pub struct SnapReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Decode from `data` starting at offset 0.
    pub fn new(data: &'a [u8]) -> Self {
        SnapReader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Eof);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("bool")),
        }
    }

    /// Read a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a usize stored as u64; rejects only values the host `usize`
    /// cannot hold. A length prefix read this way is unchecked: bound it
    /// before allocating (`take` bounds it by the remaining input).
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::Corrupt("usize overflow"))
    }

    /// Read a little-endian i16.
    pub fn i16(&mut self) -> Result<i16, SnapError> {
        Ok(i16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian i32.
    pub fn i32(&mut self) -> Result<i32, SnapError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read an f64 from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let n = self.usize()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::Corrupt("utf8"))
    }

    /// Read the length prefix of a sequence whose every element encodes
    /// to at least one byte, so it can claim no more elements than bytes
    /// remain: a corrupt count fails here, before any element decodes.
    pub fn count(&mut self) -> Result<usize, SnapError> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(SnapError::Corrupt("count exceeds the checkpoint"));
        }
        Ok(n)
    }

    /// Read the length prefix of a table whose size was fixed when the
    /// system was built; it must equal `len`.
    pub fn expect_len(&mut self, len: usize, what: &'static str) -> Result<(), SnapError> {
        if self.usize()? != len {
            return Err(SnapError::Corrupt(what));
        }
        Ok(())
    }

    /// Read `n` raw bytes (the [`SnapWriter::raw`] counterpart).
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        self.take(n)
    }

    /// Read a zero-run-length-encoded blob (the [`SnapWriter::blob`]
    /// counterpart) of at most `max` bytes. The bound is the caller's:
    /// zero runs cost nine bytes of input each, so the input length alone
    /// cannot bound the allocation.
    pub fn blob(&mut self, max: usize) -> Result<Vec<u8>, SnapError> {
        let total = self.usize()?;
        if total > max {
            return Err(SnapError::Corrupt("blob longer than its bound"));
        }
        let mut out = vec![0; total];
        self.blob_segments(total, |at, bytes| {
            out[at..at + bytes.len()].copy_from_slice(bytes)
        })?;
        Ok(out)
    }

    /// Restore a blob directly into an existing buffer whose length must
    /// match (memory arrays never change size after build).
    pub fn blob_into(&mut self, dst: &mut [u8]) -> Result<(), SnapError> {
        let mut zeroed = 0;
        self.blob_literals(dst.len(), |at, bytes| {
            dst[zeroed..at].fill(0);
            dst[at..at + bytes.len()].copy_from_slice(bytes);
            zeroed = at + bytes.len();
        })?;
        dst[zeroed..].fill(0);
        Ok(())
    }

    /// Decode a blob of exactly `len` bytes by its literal spans alone:
    /// `literal(offset, bytes)` sees each in order, and the zero runs
    /// between them are skipped. For a destination the caller knows is
    /// zero wherever the blob has a zero run, so only literals are
    /// written.
    pub fn blob_literals(
        &mut self,
        len: usize,
        literal: impl FnMut(usize, &'a [u8]),
    ) -> Result<(), SnapError> {
        if self.usize()? != len {
            return Err(SnapError::Corrupt("blob length mismatch"));
        }
        self.blob_segments(len, literal)
    }

    /// Walk the segments of a blob whose `total` was just read. Every
    /// segment is nonempty and ends within the total.
    fn blob_segments(
        &mut self,
        total: usize,
        mut literal: impl FnMut(usize, &'a [u8]),
    ) -> Result<(), SnapError> {
        let mut filled = 0;
        while filled < total {
            let tag = self.u8()?;
            let len = self.usize()?;
            if len == 0 {
                return Err(SnapError::Corrupt("empty blob segment"));
            }
            if len > total - filled {
                return Err(SnapError::Corrupt("blob segment overruns total"));
            }
            match tag {
                0 => {}
                1 => literal(filled, self.take(len)?),
                _ => return Err(SnapError::Corrupt("blob segment tag")),
            }
            filled += len;
        }
        Ok(())
    }
}

/// Save/restore of one stateful component. Loading is in-place: the
/// receiver was built through the same construction path as the saver,
/// and only its *dynamic* fields are overwritten.
pub trait Snapshot {
    /// Append this component's dynamic state to the checkpoint.
    fn save(&self, w: &mut SnapWriter);
    /// Overwrite this component's dynamic state from the checkpoint.
    fn load(&mut self, r: &mut SnapReader) -> Result<(), SnapError>;
}

/// `n` fresh values loaded in sequence. The preallocation takes no more
/// bytes than the input has left; past it the vector grows only as
/// values decode.
fn load_fresh<T: Snapshot + Default>(n: usize, r: &mut SnapReader) -> Result<Vec<T>, SnapError> {
    let mut items = Vec::with_capacity(n.min(r.remaining() / size_of::<T>().max(1)));
    for _ in 0..n {
        let mut item = T::default();
        item.load(r)?;
        items.push(item);
    }
    Ok(items)
}

macro_rules! snap_scalars {
    ($($ty:ident),*) => {$(
        impl Snapshot for $ty {
            fn save(&self, w: &mut SnapWriter) {
                w.$ty(*self);
            }
            fn load(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
                *self = r.$ty()?;
                Ok(())
            }
        }
    )*};
}

snap_scalars!(bool, u8, u16, u32, u64, usize, i16, i32, f64);

impl Snapshot for String {
    fn save(&self, w: &mut SnapWriter) {
        w.str(self);
    }
    fn load(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        *self = r.str()?;
        Ok(())
    }
}

/// A presence flag, then the value. Loading into `Some` reuses the
/// value in place, so configuration it holds outside the checkpoint
/// survives.
impl<T: Snapshot + Default> Snapshot for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.save(w);
        }
    }
    fn load(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        if r.bool()? {
            self.get_or_insert_with(T::default).load(r)
        } else {
            *self = None;
            Ok(())
        }
    }
}

/// A length prefix, then the elements; loading rebuilds the vector.
impl<T: Snapshot + Default> Snapshot for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        self[..].save(w);
    }
    fn load(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let n = r.count()?;
        *self = load_fresh(n, r)?;
        Ok(())
    }
}

/// The elements back to back with no length prefix, loaded in place:
/// for tables whose length the receiver already has.
impl<T: Snapshot> Snapshot for [T] {
    fn save(&self, w: &mut SnapWriter) {
        for item in self {
            item.save(w);
        }
    }
    fn load(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.iter_mut().try_for_each(|item| item.load(r))
    }
}

impl<T: Snapshot, const N: usize> Snapshot for [T; N] {
    fn save(&self, w: &mut SnapWriter) {
        self[..].save(w);
    }
    fn load(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self[..].load(r)
    }
}

macro_rules! snap_tuples {
    ($(($($name:ident $idx:tt),+))*) => {$(
        impl<$($name: Snapshot),+> Snapshot for ($($name,)+) {
            fn save(&self, w: &mut SnapWriter) {
                $(self.$idx.save(w);)+
            }
            fn load(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
                $(self.$idx.load(r)?;)+
                Ok(())
            }
        }
    )*};
}

snap_tuples!((A 0, B 1) (A 0, B 1, C 2));

/// A length prefix, then `(key, value)` pairs in key order.
impl<K, V> Snapshot for std::collections::BTreeMap<K, V>
where
    K: Snapshot + Default + Ord,
    V: Snapshot + Default,
{
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for (k, v) in self {
            k.save(w);
            v.save(w);
        }
    }
    fn load(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let n = r.count()?;
        *self = load_fresh::<(K, V)>(n, r)?.into_iter().collect();
        Ok(())
    }
}

/// Saved exactly like the `BTreeMap` of the same entries: in key order,
/// so the bytes never depend on hash-map iteration order.
impl<K, V, S> Snapshot for std::collections::HashMap<K, V, S>
where
    K: Snapshot + Default + Ord + std::hash::Hash,
    V: Snapshot + Default,
    S: std::hash::BuildHasher + Default,
{
    fn save(&self, w: &mut SnapWriter) {
        let mut entries: Vec<_> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        w.usize(entries.len());
        for (k, v) in entries {
            k.save(w);
            v.save(w);
        }
    }
    fn load(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let n = r.count()?;
        *self = load_fresh::<(K, V)>(n, r)?.into_iter().collect();
        Ok(())
    }
}

/// Save two parallel vectors as one sequence of pairs: a length prefix,
/// then `a[i]`, `b[i]` for each `i` (the `(a, b)` entry of
/// [`snap_fields!`](crate::snap_fields)).
pub fn save_zip<A: Snapshot, B: Snapshot>(a: &[A], b: &[B], w: &mut SnapWriter) {
    assert_eq!(a.len(), b.len(), "zipped snapshot fields differ in length");
    w.usize(a.len());
    for (x, y) in a.iter().zip(b) {
        x.save(w);
        y.save(w);
    }
}

/// Load two parallel vectors saved by [`save_zip`].
pub fn load_zip<A, B>(a: &mut Vec<A>, b: &mut Vec<B>, r: &mut SnapReader) -> Result<(), SnapError>
where
    A: Snapshot + Default,
    B: Snapshot + Default,
{
    let n = r.count()?;
    (*a, *b) = load_fresh::<(A, B)>(n, r)?.into_iter().unzip();
    Ok(())
}

/// Implement [`Snapshot`] for a struct from one ordered field list; the
/// saver and the loader both expand from it, so they cannot disagree.
///
/// ```ignore
/// snap_fields!(Ring { link_free: fixed, stats });
/// snap_fields!(Shell { (rows, caches), tasks, sched } then Shell::relink);
/// ```
///
/// Each entry is a field (a name, or an index for tuple structs) with
/// an optional mode:
///
/// * `f` — the field's own [`Snapshot`] impl;
/// * `f: fixed` — a table whose length was fixed at build time: a
///   length prefix that must match on load, then the elements in place;
/// * `f: each` — the elements in place with no length prefix;
/// * `f: blob` — a byte buffer of fixed size as a zero-run-length blob
///   ([`SnapWriter::blob`]), restored in place;
/// * `f: blob(bound)` — a `Vec<u8>` as a blob of at most `bound(&self)`
///   bytes, the bound computed from the fields loaded before it;
/// * `(a, b)` — two parallel vectors as one sequence of pairs
///   ([`save_zip`]).
///
/// `then hook` calls `hook(&mut self) -> Result<(), SnapError>` after a
/// load, for types that must validate or rebuild derived state. Doc
/// comments before the type document the generated impl.
#[macro_export]
macro_rules! snap_fields {
    ($(#[$doc:meta])* $ty:ty { $($f:tt $(: $mode:ident $(($arg:expr))?)?),* $(,)? } $(then $hook:path)?) => {
        $(#[$doc])*
        impl $crate::snapshot::Snapshot for $ty {
            fn save(&self, w: &mut $crate::snapshot::SnapWriter) {
                $($crate::snap_fields!(@save self w $f $($mode $(($arg))?)?);)*
            }
            fn load(
                &mut self,
                r: &mut $crate::snapshot::SnapReader,
            ) -> ::core::result::Result<(), $crate::snapshot::SnapError> {
                $($crate::snap_fields!(@load self r $f $($mode $(($arg))?)?);)*
                $($hook(self)?;)?
                Ok(())
            }
        }
    };
    (@save $s:ident $w:ident ($a:tt, $b:tt)) => {
        $crate::snapshot::save_zip(&$s.$a, &$s.$b, $w)
    };
    (@load $s:ident $r:ident ($a:tt, $b:tt)) => {
        $crate::snapshot::load_zip(&mut $s.$a, &mut $s.$b, $r)?
    };
    (@save $s:ident $w:ident $f:tt fixed) => {{
        $w.usize($s.$f.len());
        $crate::snapshot::Snapshot::save(&$s.$f[..], $w)
    }};
    (@load $s:ident $r:ident $f:tt fixed) => {{
        $r.expect_len($s.$f.len(), concat!(stringify!($f), " length"))?;
        $crate::snapshot::Snapshot::load(&mut $s.$f[..], $r)?
    }};
    (@save $s:ident $w:ident $f:tt each) => {
        $crate::snapshot::Snapshot::save(&$s.$f[..], $w)
    };
    (@load $s:ident $r:ident $f:tt each) => {
        $crate::snapshot::Snapshot::load(&mut $s.$f[..], $r)?
    };
    (@save $s:ident $w:ident $f:tt blob($bound:expr)) => {
        $w.blob(&$s.$f)
    };
    (@load $s:ident $r:ident $f:tt blob($bound:expr)) => {
        $s.$f = $r.blob(($bound)(&*$s))?
    };
    (@save $s:ident $w:ident $f:tt blob) => {
        $w.blob(&$s.$f)
    };
    (@load $s:ident $r:ident $f:tt blob) => {
        $r.blob_into(&mut $s.$f)?
    };
    (@save $s:ident $w:ident $f:tt) => {
        $crate::snapshot::Snapshot::save(&$s.$f, $w)
    };
    (@load $s:ident $r:ident $f:tt) => {
        $crate::snapshot::Snapshot::load(&mut $s.$f, $r)?
    };
}

/// Implement [`Snapshot`] for an enum: a tag byte per variant, then the
/// variant's fields in the order listed. Tuple and struct variants name
/// their fields; loading builds each from its default and loads into
/// it. An unknown tag loads as [`SnapError::Corrupt`].
///
/// ```ignore
/// snap_enum!(PortDir { Producer = 0, Consumer = 1 });
/// snap_enum!(Source { Dram { addr, len } = 0, Port = 1 });
/// snap_enum!(Event { Step(shell) = 0, Sync(msg) = 1, Sample = 2 });
/// ```
#[macro_export]
macro_rules! snap_enum {
    ($(#[$doc:meta])* $ty:ty {
        $($variant:ident $(($($tf:ident),*))? $({$($sf:ident),*})? = $tag:literal),+ $(,)?
    }) => {
        $(#[$doc])*
        impl $crate::snapshot::Snapshot for $ty {
            fn save(&self, w: &mut $crate::snapshot::SnapWriter) {
                match self {
                    $(Self::$variant $(($($tf),*))? $({$($sf),*})? => {
                        w.u8($tag);
                        $($($crate::snapshot::Snapshot::save($tf, w);)*)?
                        $($($crate::snapshot::Snapshot::save($sf, w);)*)?
                    })+
                }
            }
            fn load(
                &mut self,
                r: &mut $crate::snapshot::SnapReader,
            ) -> ::core::result::Result<(), $crate::snapshot::SnapError> {
                *self = match r.u8()? {
                    $($tag => {
                        $($(
                            let mut $tf = ::core::default::Default::default();
                            $crate::snapshot::Snapshot::load(&mut $tf, r)?;
                        )*)?
                        $($(
                            let mut $sf = ::core::default::Default::default();
                            $crate::snapshot::Snapshot::load(&mut $sf, r)?;
                        )*)?
                        Self::$variant $(($($tf),*))? $({$($sf),*})?
                    })+
                    _ => {
                        return Err($crate::snapshot::SnapError::Corrupt(concat!(
                            stringify!($ty),
                            " tag"
                        )))
                    }
                };
                Ok(())
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut w = SnapWriter::new();
        w.u8(0xAB);
        w.bool(true);
        w.u16(0x1234);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 7);
        w.i16(-12345);
        w.i32(-7_654_321);
        w.f64(-0.125);
        w.f64(f64::NAN);
        w.str("qcif.vld");
        vec![1u8, 2, 3].save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert!(r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 7);
        assert_eq!(r.i16().unwrap(), -12345);
        assert_eq!(r.i32().unwrap(), -7_654_321);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.str().unwrap(), "qcif.vld");
        let mut v: Vec<u8> = Vec::new();
        v.load(&mut r).unwrap();
        assert_eq!(v, vec![1, 2, 3]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_input_is_eof_not_panic() {
        let mut w = SnapWriter::new();
        w.u64(42);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..5]);
        assert_eq!(r.u64(), Err(SnapError::Eof));
    }

    #[test]
    fn bad_bool_is_corrupt() {
        let mut r = SnapReader::new(&[7]);
        assert_eq!(r.bool(), Err(SnapError::Corrupt("bool")));
    }

    #[test]
    fn blob_round_trips_mixed_content() {
        let mut data = vec![0u8; 100_000];
        data[0] = 9;
        data[77] = 1;
        for (i, b) in data[50_000..50_100].iter_mut().enumerate() {
            *b = (i % 251) as u8 + 1;
        }
        data[99_999] = 0xFF;
        let mut w = SnapWriter::new();
        w.blob(&data);
        let encoded_len = w.bytes().len();
        assert!(
            encoded_len < data.len() / 10,
            "zero-dominated blob should compress well: {encoded_len}"
        );
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.blob(usize::MAX).unwrap(), data);

        let mut r2 = SnapReader::new(&bytes);
        let mut dst = vec![1u8; data.len()];
        r2.blob_into(&mut dst).unwrap();
        assert_eq!(dst, data);
    }

    #[test]
    fn blob_handles_all_zero_and_all_literal() {
        for data in [vec![0u8; 4096], (0..255u8).cycle().take(300).collect()] {
            let mut w = SnapWriter::new();
            w.blob(&data);
            let bytes = w.into_bytes();
            assert_eq!(SnapReader::new(&bytes).blob(usize::MAX).unwrap(), data);
        }
        let mut w = SnapWriter::new();
        w.blob(&[]);
        let bytes = w.into_bytes();
        assert_eq!(
            SnapReader::new(&bytes).blob(usize::MAX).unwrap(),
            Vec::<u8>::new()
        );
    }

    #[test]
    fn zero_prefix_matches_a_byte_scan() {
        // Every run length across the word and block boundaries, ended by
        // a nonzero byte or by the end of the slice.
        for len in 0..300 {
            for run in 0..=len {
                let mut data = vec![0u8; len];
                if run < len {
                    data[run] = 1;
                }
                assert_eq!(zero_prefix(&data), run, "len {len} run {run}");
            }
        }
    }

    #[test]
    fn blob_into_rejects_length_mismatch() {
        let mut w = SnapWriter::new();
        w.blob(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut dst = [0u8; 4];
        assert!(matches!(
            SnapReader::new(&bytes).blob_into(&mut dst),
            Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn short_zero_runs_stay_literal() {
        // A lone zero between literals must not produce a zero segment.
        let data = [5u8, 0, 6, 0, 0, 7];
        let mut w = SnapWriter::new();
        w.blob(&data);
        let bytes = w.into_bytes();
        // total + one literal segment header + payload.
        assert_eq!(bytes.len(), 8 + 1 + 8 + data.len());
        assert_eq!(
            SnapReader::new(&bytes).blob(usize::MAX).unwrap(),
            data.to_vec()
        );
    }

    /// A blob header followed by `segments` of `(tag, len, payload)`.
    fn crafted(total: usize, segments: &[(u8, usize, &[u8])]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.usize(total);
        for &(tag, len, payload) in segments {
            w.u8(tag);
            w.usize(len);
            w.raw(payload);
        }
        w.into_bytes()
    }

    #[test]
    fn oversized_blob_is_corrupt_not_an_allocation() {
        // 1 TiB of zeros in 17 bytes: the bound rejects it before any
        // allocation.
        let bytes = crafted(1 << 40, &[(0, 1 << 40, &[])]);
        assert_eq!(
            SnapReader::new(&bytes).blob(1 << 20),
            Err(SnapError::Corrupt("blob longer than its bound"))
        );
        // Within the bound it decodes.
        let bytes = crafted(4096, &[(0, 4096, &[])]);
        assert_eq!(SnapReader::new(&bytes).blob(4096).unwrap(), vec![0; 4096]);
    }

    #[test]
    fn empty_and_overrunning_segments_are_corrupt() {
        let cases = [
            (
                crafted(8, &[(1, 0, &[]), (1, 8, &[7; 8])]),
                "empty blob segment",
            ),
            (
                crafted(8, &[(0, 0, &[]), (0, 8, &[])]),
                "empty blob segment",
            ),
            (
                crafted(8, &[(1, 9, &[7; 9])]),
                "blob segment overruns total",
            ),
            (
                crafted(8, &[(0, 4, &[]), (1, usize::MAX, &[])]),
                "blob segment overruns total",
            ),
        ];
        for (bytes, what) in &cases {
            let err = Err(SnapError::Corrupt(what));
            assert_eq!(SnapReader::new(bytes).blob(8).map(|_| ()), err);
            assert_eq!(SnapReader::new(bytes).blob_into(&mut [0; 8]), err);
            let mut seen = 0;
            let visited = SnapReader::new(bytes).blob_literals(8, |_, b| seen += b.len());
            assert_eq!(visited, err);
        }
    }

    #[test]
    fn blob_literals_visits_only_the_literal_spans() {
        let mut data = vec![0u8; 300];
        data[40..45].copy_from_slice(&[1, 2, 3, 4, 5]);
        data[299] = 9;
        let mut w = SnapWriter::new();
        w.blob(&data);
        let bytes = w.into_bytes();
        let mut spans = Vec::new();
        SnapReader::new(&bytes)
            .blob_literals(300, |at, b| spans.push((at, b.to_vec())))
            .unwrap();
        assert_eq!(spans, vec![(40, vec![1, 2, 3, 4, 5]), (299, vec![9])]);
    }

    use proptest::prelude::*;

    proptest! {
        /// `blob_paged` must emit exactly `blob`'s bytes for any data and
        /// any written-page set covering its nonzero pages. Small pages
        /// make runs shorter and longer than `ZERO_RUN_MIN` straddle page
        /// edges, and the length leaves a partial last page.
        #[test]
        fn blob_paged_matches_blob(
            runs in proptest::collection::vec((any::<bool>(), 1usize..100), 0..40),
            page_shift in 3u32..9,
            extra_written in any::<u64>(),
        ) {
            let mut data = Vec::new();
            for (literal, len) in runs {
                let byte = |i: usize| if literal { (i % 255) as u8 + 1 } else { 0 };
                data.extend((0..len).map(byte));
            }
            let page_bytes = 1usize << page_shift;
            let pages = data.len().div_ceil(page_bytes);
            let written: Vec<bool> = (0..pages)
                .map(|p| {
                    let nonzero = data[p * page_bytes..((p + 1) * page_bytes).min(data.len())]
                        .iter()
                        .any(|&b| b != 0);
                    nonzero || extra_written >> (p % 64) & 1 == 1
                })
                .collect();
            let mut plain = SnapWriter::new();
            plain.blob(&data);
            let mut paged = SnapWriter::new();
            paged.blob_paged(&data, page_bytes, |p| written[p]);
            prop_assert_eq!(plain.bytes(), paged.bytes());
        }
    }

    /// A struct using every `snap_fields!` mode.
    #[derive(Debug, Default, PartialEq)]
    struct Sample {
        id: u16,
        name: String,
        fixed: Vec<u32>,
        each: [i16; 2],
        blob: Vec<u8>,
        keys: Vec<u8>,
        values: Vec<Option<u64>>,
        dir: Dir,
        checked: bool,
    }

    #[derive(Debug, Default, PartialEq)]
    enum Dir {
        #[default]
        Up,
        Down(u32),
        Side {
            x: i32,
            y: i32,
        },
    }

    crate::snap_enum!(Dir { Up = 0, Down(n) = 1, Side { x, y } = 2 });

    impl Sample {
        fn check(&mut self) -> Result<(), SnapError> {
            self.checked = true;
            Ok(())
        }
    }

    crate::snap_fields!(Sample {
        id,
        name,
        fixed: fixed,
        each: each,
        blob: blob(|s: &Sample| s.id as usize),
        (keys, values),
        dir,
    } then Sample::check);

    fn sample() -> Sample {
        Sample {
            id: 300,
            name: "row".into(),
            fixed: vec![7, 8],
            each: [-1, 1],
            blob: vec![0; 300],
            keys: vec![1, 2],
            values: vec![None, Some(9)],
            dir: Dir::Side { x: -4, y: 5 },
            checked: false,
        }
    }

    #[test]
    fn field_lists_round_trip_and_hash_the_same_bytes() {
        let original = sample();
        let mut w = SnapWriter::new();
        original.save(&mut w);
        let mut h = SnapWriter::hashing();
        original.save(&mut h);
        assert_eq!(h.digest(), fnv1a_64(w.bytes()));
        assert_eq!(h.digest(), w.digest());
        assert!(h.bytes().is_empty());

        let bytes = w.into_bytes();
        let mut loaded = Sample {
            fixed: vec![0; 2],
            ..Sample::default()
        };
        loaded.load(&mut SnapReader::new(&bytes)).unwrap();
        assert!(loaded.checked);
        loaded.checked = false;
        assert_eq!(loaded, original);
    }

    #[test]
    fn field_lists_reject_what_the_receiver_cannot_hold() {
        let mut w = SnapWriter::new();
        sample().save(&mut w);
        let bytes = w.into_bytes();
        // A fixed table of another length.
        let mut short = Sample::default();
        assert!(matches!(
            short.load(&mut SnapReader::new(&bytes)),
            Err(SnapError::Corrupt("fixed length"))
        ));
        // A blob past the bound the loaded fields set.
        let mut over = bytes.clone();
        over[..2].copy_from_slice(&299u16.to_le_bytes());
        let mut s = Sample {
            fixed: vec![0; 2],
            ..Sample::default()
        };
        assert_eq!(
            s.load(&mut SnapReader::new(&over)),
            Err(SnapError::Corrupt("blob longer than its bound"))
        );
        // An unknown enum tag.
        let mut r = SnapReader::new(&[3]);
        assert_eq!(
            Dir::default().load(&mut r),
            Err(SnapError::Corrupt("Dir tag"))
        );
    }

    #[test]
    fn counts_past_the_input_are_corrupt_before_allocating() {
        let mut w = SnapWriter::new();
        w.usize(1 << 60);
        let bytes = w.into_bytes();
        let mut v: Vec<u64> = Vec::new();
        assert_eq!(
            v.load(&mut SnapReader::new(&bytes)),
            Err(SnapError::Corrupt("count exceeds the checkpoint"))
        );
        let mut m: std::collections::BTreeMap<u8, u8> = Default::default();
        assert!(m.load(&mut SnapReader::new(&bytes)).is_err());
    }

    #[test]
    fn hash_maps_save_in_key_order_like_btree_maps() {
        let pairs = [(3u16, 30u64), (1, 10), (2, 20)];
        let hashed: std::collections::HashMap<u16, u64> = pairs.into_iter().collect();
        let ordered: std::collections::BTreeMap<u16, u64> = pairs.into_iter().collect();
        let (mut a, mut b) = (SnapWriter::new(), SnapWriter::new());
        hashed.save(&mut a);
        ordered.save(&mut b);
        assert_eq!(a.bytes(), b.bytes());
        let mut back: std::collections::HashMap<u16, u64> = Default::default();
        back.load(&mut SnapReader::new(a.bytes())).unwrap();
        assert_eq!(back, hashed);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }
}
