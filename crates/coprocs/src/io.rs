//! Incremental windowed stream I/O for coprocessor models.
//!
//! The paper's §4.1 access pattern made ergonomic: a [`StepReader`]
//! extends its GetSpace window incrementally as a record's size becomes
//! known while parsing (the `GetSpace`/`Read` calls of a data-dependent
//! input), and commits the total once with `PutSpace` when the step is
//! certain to complete. A [`StepWriter`] stages the step's full output,
//! asks for the window once, and commits it — postponing `PutSpace` to
//! the end of the step exactly as §4.2 prescribes, which is what makes
//! aborted steps side-effect-free.
//!
//! Both helpers are *per step*: on a denied GetSpace the step returns
//! [`eclipse_core::StepResult::Blocked`], the helper is dropped, and the
//! retry re-parses from the access point (granted windows survive in the
//! shell, so the retry's inquiries succeed immediately).
//!
//! Every MPEG task reads the same record grammar ([`crate::records`]), and
//! [`StepReader::head`] is its one reader. It peeks the tag and settles
//! what all tasks share: a `PIC` record is taken whole and parsed (the
//! task keeps its own geometry filter), an `MB` record is left at the
//! read head for the task's own parser, and `EOS` is left for
//! [`StepReader::finish`], which forwards it on the task's outputs. Any
//! other tag is an SRAM fault: [`StepReader::skip`] drops one byte and
//! counts one recovered error, and the next step rescans from there.

use std::cell::RefCell;

use eclipse_core::{StepCtx, StepResult};
use eclipse_shell::PortId;

use crate::records::{PicRec, CBLK_REC_BYTES, PIC_REC_BYTES, TAG_EOS, TAG_MB, TAG_PIC};

/// Incremental reader over one input port within one processing step.
pub struct StepReader {
    port: PortId,
    /// Bytes already consumed (read head) relative to the access point.
    pos: u32,
    /// Largest window requested so far.
    window: u32,
}

impl StepReader {
    /// A reader for `port`, starting at the access point.
    pub fn new(port: PortId) -> Self {
        StepReader {
            port,
            pos: 0,
            window: 0,
        }
    }

    /// Bytes consumed so far (what `commit` will release).
    pub fn consumed(&self) -> u32 {
        self.pos
    }

    /// Ensure the window covers `n` more bytes beyond the current read
    /// head; returns false if the data is not available (caller should
    /// return `Blocked`).
    pub fn need(&mut self, ctx: &mut StepCtx<'_>, n: u32) -> bool {
        let wanted = self.pos + n;
        if wanted <= self.window {
            return true;
        }
        if ctx.get_space(self.port, wanted) {
            self.window = wanted;
            true
        } else {
            false
        }
    }

    /// Read exactly `buf.len()` bytes at the read head and advance it.
    /// The window must already cover them (call [`StepReader::need`]).
    pub fn read(&mut self, ctx: &mut StepCtx<'_>, buf: &mut [u8]) {
        debug_assert!(
            self.pos + buf.len() as u32 <= self.window,
            "read beyond requested window"
        );
        ctx.read(self.port, self.pos, buf);
        self.pos += buf.len() as u32;
    }

    /// Convenience: `need` + `read` of a fixed-size array.
    pub fn take<const N: usize>(&mut self, ctx: &mut StepCtx<'_>) -> Option<[u8; N]> {
        if !self.need(ctx, N as u32) {
            return None;
        }
        let mut buf = [0u8; N];
        self.read(ctx, &mut buf);
        Some(buf)
    }

    /// Peek one byte at the read head without consuming it.
    pub fn peek_tag(&mut self, ctx: &mut StepCtx<'_>) -> Option<u8> {
        if !self.need(ctx, 1) {
            return None;
        }
        let mut b = [0u8; 1];
        ctx.read(self.port, self.pos, &mut b);
        Some(b[0])
    }

    /// Commit everything consumed in this step.
    pub fn commit(self, ctx: &mut StepCtx<'_>) {
        if self.pos > 0 {
            ctx.put_space(self.port, self.pos);
        }
    }

    /// Read the head of the next record (see the module docs); an
    /// unknown tag is skipped and counted in `errors`.
    pub fn head(mut self, ctx: &mut StepCtx<'_>, errors: &mut u64) -> Head {
        let Some(tag) = self.peek_tag(ctx) else {
            return Head::Return(StepResult::Blocked);
        };
        match tag {
            TAG_MB => Head::Mb(self),
            TAG_EOS => Head::Eos(self),
            TAG_PIC => match self.take::<{ PIC_REC_BYTES as usize }>(ctx) {
                None => Head::Return(StepResult::Blocked),
                Some(body) => {
                    let pic = PicRec::from_body(&body[1..]);
                    Head::Pic(self, body, pic)
                }
            },
            _ => Head::Return(self.skip(ctx, errors)),
        }
    }

    /// Resync after a damaged record: drop the byte at the read head,
    /// commit it and count one recovered error.
    pub fn skip(mut self, ctx: &mut StepCtx<'_>, errors: &mut u64) -> StepResult {
        self.read(ctx, &mut [0u8; 1]);
        self.commit(ctx);
        ctx.compute(1);
        *errors += 1;
        StepResult::Done
    }

    /// End the task at the `EOS` byte on the read head: forward `EOS` on
    /// each of `outs` in order (sinks pass none), commit the outputs and
    /// then the input, and return `Finished`, or `Blocked` if an output
    /// has no room.
    pub fn finish(mut self, ctx: &mut StepCtx<'_>, outs: &[PortId]) -> StepResult {
        self.read(ctx, &mut [0u8; 1]);
        if !outs.iter().all(|&port| ctx.get_space(port, 1)) {
            return StepResult::Blocked;
        }
        for &port in outs {
            ctx.write(port, 0, &[TAG_EOS]);
            ctx.put_space(port, 1);
        }
        self.commit(ctx);
        StepResult::Finished
    }

    /// Take the `CBLK` records of the coded blocks in `cbp` (its two
    /// spare bits name none) unread: what a task does with a macroblock
    /// it has no picture for, so its block stream stays record-aligned.
    /// False when blocked.
    pub fn skip_blocks(&mut self, ctx: &mut StepCtx<'_>, cbp: u8) -> bool {
        (0..(cbp & 0b11_1111).count_ones())
            .all(|_| self.take::<{ CBLK_REC_BYTES as usize }>(ctx).is_some())
    }
}

/// What [`StepReader::head`] found.
pub enum Head {
    /// A `PIC` record, consumed: its bytes (tag included) and its header,
    /// `None` if damaged.
    Pic(StepReader, [u8; PIC_REC_BYTES as usize], Option<PicRec>),
    /// An `MB` record starts at the read head.
    Mb(StepReader),
    /// `EOS` at the read head, not yet consumed: see [`StepReader::finish`].
    Eos(StepReader),
    /// The step is over: return this (`Blocked`, or `Done` after a
    /// skipped byte).
    Return(StepResult),
}

/// Capacity a fresh stage buffer starts with: more than any model writes
/// to one port in one step (the largest, a macroblock token record from
/// the VLD or QRL task, is under 1.2 KiB).
const STAGE_CAPACITY: usize = 2048;

/// Stage buffers one thread keeps for reuse: more than any step holds at
/// once.
const POOL_MAX: usize = 8;

thread_local! {
    /// Stage buffers of dropped writers, handed to the next ones: once a
    /// thread has run a step, a writer neither allocates nor zero-fills
    /// its stage.
    static STAGES: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// Staged writer for one output port within one processing step. Its
/// stage buffer comes from, and returns to, a per-thread pool, so steps
/// do not allocate.
pub struct StepWriter {
    port: PortId,
    stage: Vec<u8>,
}

impl StepWriter {
    /// A writer for `port`.
    pub fn new(port: PortId) -> Self {
        let stage = STAGES
            .try_with(|pool| pool.borrow_mut().pop())
            .ok()
            .flatten();
        StepWriter {
            port,
            stage: stage.unwrap_or_else(|| Vec::with_capacity(STAGE_CAPACITY)),
        }
    }

    /// Stage bytes for output (no shell interaction yet).
    pub fn stage(&mut self, data: &[u8]) {
        self.stage.extend_from_slice(data);
    }

    /// Bytes staged so far.
    pub fn staged_len(&self) -> u32 {
        self.stage.len() as u32
    }

    /// Ask for the output window covering everything staged. Returns
    /// false if the room is not available (caller should return
    /// `Blocked`; the staged data is discarded with the helper).
    pub fn reserve(&self, ctx: &mut StepCtx<'_>) -> bool {
        if self.stage.is_empty() {
            return true;
        }
        ctx.get_space(self.port, self.staged_len())
    }

    /// Write and commit the staged bytes. `reserve` must have succeeded.
    pub fn commit(self, ctx: &mut StepCtx<'_>) {
        if self.stage.is_empty() {
            return;
        }
        ctx.write(self.port, 0, &self.stage);
        ctx.put_space(self.port, self.staged_len());
    }
}

impl Drop for StepWriter {
    fn drop(&mut self) {
        let mut stage = std::mem::take(&mut self.stage);
        stage.clear();
        // During thread teardown the pool may be gone; the buffer is then
        // simply freed.
        let _ = STAGES.try_with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < POOL_MAX {
                pool.push(stage);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    // StepReader/StepWriter are exercised end-to-end by every coprocessor
    // test; the unit tests here pin the window arithmetic via a tiny fake
    // system.
    use super::*;
    use eclipse_core::{Coprocessor, EclipseConfig, StepCtx, StepResult, SystemBuilder};
    use eclipse_kpn::GraphBuilder;
    use eclipse_shell::TaskIdx;

    /// Producer that emits length-prefixed variable-size records.
    struct VarProducer {
        records: Vec<Vec<u8>>,
        next: usize,
    }
    impl Coprocessor for VarProducer {
        fn name(&self) -> &str {
            "varprod"
        }
        fn supports(&self, f: &str) -> bool {
            f == "varprod"
        }
        fn configure_task(
            &mut self,
            _: TaskIdx,
            _: &eclipse_kpn::graph::TaskDecl,
        ) -> (Vec<u32>, Vec<u32>) {
            (vec![], vec![])
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn step(&mut self, _t: TaskIdx, _i: u32, ctx: &mut StepCtx<'_>) -> StepResult {
            if self.next >= self.records.len() {
                // End marker: length 0.
                let mut w = StepWriter::new(0);
                w.stage(&[0u8]);
                if !w.reserve(ctx) {
                    return StepResult::Blocked;
                }
                w.commit(ctx);
                return StepResult::Finished;
            }
            let rec = &self.records[self.next];
            let mut w = StepWriter::new(0);
            w.stage(&[rec.len() as u8]);
            w.stage(rec);
            if !w.reserve(ctx) {
                return StepResult::Blocked;
            }
            w.commit(ctx);
            ctx.compute(5);
            self.next += 1;
            StepResult::Done
        }
    }

    /// Consumer that parses the length prefix, then reads the payload —
    /// the incremental-window pattern.
    struct VarConsumer {
        received: Vec<Vec<u8>>,
    }
    impl Coprocessor for VarConsumer {
        fn name(&self) -> &str {
            "varcons"
        }
        fn supports(&self, f: &str) -> bool {
            f == "varcons"
        }
        fn configure_task(
            &mut self,
            _: TaskIdx,
            _: &eclipse_kpn::graph::TaskDecl,
        ) -> (Vec<u32>, Vec<u32>) {
            (vec![1], vec![])
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn step(&mut self, _t: TaskIdx, _i: u32, ctx: &mut StepCtx<'_>) -> StepResult {
            let mut r = StepReader::new(0);
            let len = match r.take::<1>(ctx) {
                None => return StepResult::Blocked,
                Some([l]) => l as usize,
            };
            if len == 0 {
                r.commit(ctx);
                return StepResult::Finished;
            }
            if !r.need(ctx, len as u32) {
                return StepResult::Blocked;
            }
            let mut payload = vec![0u8; len];
            r.read(ctx, &mut payload);
            ctx.compute(len as u64);
            r.commit(ctx);
            self.received.push(payload);
            StepResult::Done
        }
    }

    #[test]
    fn staging_past_the_initial_capacity_keeps_every_byte() {
        let data: Vec<u8> = (0..STAGE_CAPACITY as u32 + 300).map(|i| i as u8).collect();
        // The second writer gets the first one's buffer back from the
        // pool: it must start empty all the same.
        for _ in 0..2 {
            let mut w = StepWriter::new(0);
            assert_eq!(w.staged_len(), 0);
            for chunk in data.chunks(700) {
                w.stage(chunk);
            }
            assert_eq!(w.staged_len() as usize, data.len());
            assert_eq!(w.stage, data);
        }
    }

    #[test]
    fn variable_length_records_flow_end_to_end() {
        let records: Vec<Vec<u8>> = (1..20u8).map(|i| (0..i).map(|j| i ^ j).collect()).collect();
        let mut g = GraphBuilder::new("var");
        let s = g.stream("s", 48); // small buffer: forces blocking + wraps
        g.task("p", "varprod", 0, &[], &[s]);
        g.task("c", "varcons", 0, &[s], &[]);
        let graph = g.build().unwrap();
        let mut b = SystemBuilder::new(EclipseConfig::default());
        b.add_coprocessor(Box::new(VarProducer {
            records: records.clone(),
            next: 0,
        }));
        let ci = b.add_coprocessor(Box::new(VarConsumer { received: vec![] }));
        b.map_app(&graph).unwrap();
        let mut sys = b.build();
        let summary = sys.run(1_000_000);
        assert_eq!(summary.outcome, eclipse_core::RunOutcome::AllFinished);
        let cons = sys
            .coproc(ci)
            .as_any()
            .downcast_ref::<VarConsumer>()
            .unwrap();
        assert_eq!(cons.received, records);
    }

    /// Producer that writes a fixed byte string in one step: a record
    /// stream, damaged as a test needs.
    struct RawProducer {
        bytes: Vec<u8>,
        sent: bool,
    }
    impl Coprocessor for RawProducer {
        fn name(&self) -> &str {
            "rawprod"
        }
        fn supports(&self, f: &str) -> bool {
            f == "rawprod"
        }
        fn configure_task(
            &mut self,
            _: TaskIdx,
            _: &eclipse_kpn::graph::TaskDecl,
        ) -> (Vec<u32>, Vec<u32>) {
            (vec![], vec![])
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn step(&mut self, _t: TaskIdx, _i: u32, ctx: &mut StepCtx<'_>) -> StepResult {
            if self.sent {
                return StepResult::Finished;
            }
            let mut w = StepWriter::new(0);
            w.stage(&self.bytes);
            if !w.reserve(ctx) {
                return StepResult::Blocked;
            }
            w.commit(ctx);
            self.sent = true;
            StepResult::Done
        }
    }

    /// A task built on [`StepReader::head`]: takes 3-byte `MB` records,
    /// keeps the picture headers it is handed and forwards `EOS` on its
    /// two outputs.
    #[derive(Default)]
    struct HeadReader {
        pics: Vec<Option<PicRec>>,
        mbs: u32,
        errors: u64,
    }
    impl Coprocessor for HeadReader {
        fn name(&self) -> &str {
            "headreader"
        }
        fn supports(&self, f: &str) -> bool {
            f == "headreader"
        }
        fn configure_task(
            &mut self,
            _: TaskIdx,
            _: &eclipse_kpn::graph::TaskDecl,
        ) -> (Vec<u32>, Vec<u32>) {
            (vec![1], vec![1, 1])
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn step(&mut self, _t: TaskIdx, _i: u32, ctx: &mut StepCtx<'_>) -> StepResult {
            match StepReader::new(0).head(ctx, &mut self.errors) {
                Head::Mb(mut r) => {
                    if r.take::<3>(ctx).is_none() {
                        return StepResult::Blocked;
                    }
                    r.commit(ctx);
                    self.mbs += 1;
                    StepResult::Done
                }
                Head::Pic(r, _, pic) => {
                    r.commit(ctx);
                    self.pics.push(pic);
                    StepResult::Done
                }
                Head::Eos(r) => r.finish(ctx, &[1, 2]),
                Head::Return(res) => res,
            }
        }
    }

    /// Sink for two tasks that take one byte per step until `EOS`.
    #[derive(Default)]
    struct EosSink {
        got: [Vec<u8>; 2],
    }
    impl Coprocessor for EosSink {
        fn name(&self) -> &str {
            "eossink"
        }
        fn supports(&self, f: &str) -> bool {
            f == "eossink"
        }
        fn configure_task(
            &mut self,
            _: TaskIdx,
            _: &eclipse_kpn::graph::TaskDecl,
        ) -> (Vec<u32>, Vec<u32>) {
            (vec![1], vec![])
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn step(&mut self, t: TaskIdx, _i: u32, ctx: &mut StepCtx<'_>) -> StepResult {
            let mut r = StepReader::new(0);
            let Some([b]) = r.take::<1>(ctx) else {
                return StepResult::Blocked;
            };
            r.commit(ctx);
            self.got[t.0 as usize].push(b);
            if b == TAG_EOS {
                StepResult::Finished
            } else {
                StepResult::Done
            }
        }
    }

    /// Run `bytes` through a [`HeadReader`] whose outputs feed two
    /// [`EosSink`] tasks, tracing the run. Returns the system, the reader's
    /// coprocessor index, the sinks' received bytes and the trace sink.
    fn run_head_reader(
        bytes: Vec<u8>,
    ) -> (
        eclipse_core::EclipseSystem,
        usize,
        [Vec<u8>; 2],
        eclipse_sim::SharedTraceSink,
    ) {
        let mut g = GraphBuilder::new("head");
        let s = g.stream("s", 64);
        let a = g.stream("a", 16);
        let b = g.stream("b", 16);
        g.task("p", "rawprod", 0, &[], &[s]);
        g.task("h", "headreader", 0, &[s], &[a, b]);
        g.task("ka", "eossink", 0, &[a], &[]);
        g.task("kb", "eossink", 0, &[b], &[]);
        let graph = g.build().unwrap();
        let mut sb = SystemBuilder::new(EclipseConfig::default());
        sb.add_coprocessor(Box::new(RawProducer { bytes, sent: false }));
        let hi = sb.add_coprocessor(Box::new(HeadReader::default()));
        let k = sb.add_coprocessor(Box::new(EosSink::default()));
        sb.map_app(&graph).unwrap();
        let mut sys = sb.build();
        let sink = sys.enable_tracing(1 << 16);
        let summary = sys.run(1_000_000);
        assert_eq!(summary.outcome, eclipse_core::RunOutcome::AllFinished);
        let got = sys
            .coproc(k)
            .as_any()
            .downcast_ref::<EosSink>()
            .unwrap()
            .got
            .clone();
        (sys, hi, got, sink)
    }

    fn head_reader(sys: &eclipse_core::EclipseSystem, hi: usize) -> &HeadReader {
        sys.coproc(hi).as_any().downcast_ref().unwrap()
    }

    #[test]
    fn eos_is_forwarded_on_each_output_before_the_input_commits() {
        let (sys, hi, got, sink) = run_head_reader(vec![TAG_MB, 1, 0x3F, TAG_EOS]);
        assert_eq!(head_reader(&sys, hi).mbs, 1);
        assert_eq!(got, [vec![TAG_EOS], vec![TAG_EOS]]);
        // The reader's last step: room on out0 then out1, their commits
        // in the same order, and the input's commit last.
        use eclipse_sim::trace::TraceEventKind as K;
        let sink = sink.borrow();
        let shell = format!("shell/{}", sys.shell_names()[hi]);
        let calls: Vec<_> = sink
            .events()
            .filter(|e| sink.label(e.unit) == shell.as_str())
            .filter_map(|e| match e.kind {
                K::SpaceGranted { port, bytes, .. } => Some(("get", port, bytes)),
                K::PutSpaceSend { port, bytes, .. } => Some(("put", port, bytes)),
                _ => None,
            })
            .collect();
        assert_eq!(
            calls[calls.len() - 5..],
            [
                ("get", 1, 1),
                ("get", 2, 1),
                ("put", 1, 1),
                ("put", 2, 1),
                ("put", 0, 1)
            ]
        );
    }

    #[test]
    fn a_damaged_picture_header_is_taken_whole_and_handed_back_unparsed() {
        let pic = PicRec {
            ptype: eclipse_media::stream::PictureType::P,
            qscale: 7,
            temporal_ref: 3,
            mb_cols: 2,
            mb_rows: 1,
        };
        let mut bad = pic.to_bytes();
        bad[1] = 0xEE; // no such picture type
        let mut bytes = bad.to_vec();
        bytes.extend_from_slice(&pic.to_bytes());
        bytes.extend_from_slice(&[TAG_MB, 1, 0x3F, TAG_EOS]);
        let (sys, hi, got, _) = run_head_reader(bytes);
        let h = head_reader(&sys, hi);
        assert_eq!(h.pics, [None, Some(pic)]);
        assert_eq!(
            (h.mbs, h.errors),
            (1, 0),
            "the task decides what a bad header costs"
        );
        assert_eq!(got, [vec![TAG_EOS], vec![TAG_EOS]]);
    }

    #[test]
    fn an_unknown_tag_is_skipped_a_byte_at_a_time_and_counted() {
        let (sys, hi, got, _) = run_head_reader(vec![0x7E, 0x00, TAG_MB, 1, 0x3F, 0x42, TAG_EOS]);
        let h = head_reader(&sys, hi);
        assert_eq!((h.mbs, h.errors), (1, 3));
        assert!(h.pics.is_empty());
        assert_eq!(got, [vec![TAG_EOS], vec![TAG_EOS]]);
    }
}
