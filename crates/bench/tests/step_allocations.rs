//! Allocation guard for the event loop. A decode or pipeline step and
//! its `putspace` routing allocate nothing on the heap, so the
//! allocations of a run do not grow with the packets it moves.
//!
//! A counting global allocator records the allocations and reallocations
//! made on the calling thread (tests run on parallel threads).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use eclipse_bench::synthetic::PipeCoproc;
use eclipse_bench::{run_finished, StreamSpec};
use eclipse_coprocs::apps::EncodeAppConfig;
use eclipse_coprocs::build_decode_system;
use eclipse_coprocs::instance::{InstanceCosts, MpegBuilder};
use eclipse_core::{EclipseConfig, EclipseSystem, SystemBuilder};
use eclipse_kpn::GraphBuilder;
use eclipse_media::stream::GopConfig;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // No destructor and a const initializer: this never allocates, and
    // `try_with` only fails during thread teardown, when nothing counts.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; counting touches only
// a thread-local integer.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`; the caller upholds the rest of `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations and reallocations made on this thread while `f` runs.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// A source → filter → sink pipeline moving `packets` 64-byte packets.
fn pipeline(packets: u32) -> EclipseSystem {
    let mut g = GraphBuilder::new("pipe");
    let a = g.stream("a", 256);
    let b = g.stream("b", 256);
    g.task("src", "src", 0, &[], &[a]);
    g.task("mid", "mid", 0, &[a], &[b]);
    g.task("dst", "dst", 0, &[b], &[]);
    let mut builder = SystemBuilder::new(EclipseConfig::default());
    builder.add_coprocessor(Box::new(PipeCoproc::source("src", packets, 64, 40)));
    builder.add_coprocessor(Box::new(PipeCoproc::filter("mid", packets, 64, 60)));
    builder.add_coprocessor(Box::new(PipeCoproc::sink("dst", packets, 64, 30)));
    builder.map_app(&g.build().unwrap()).unwrap();
    builder.build()
}

/// `(allocations, cycles)` of one run.
fn run_allocations(packets: u32) -> (u64, u64) {
    let mut sys = pipeline(packets);
    let (n, summary) = allocations_in(|| run_finished(&mut sys, u64::MAX, "pipeline"));
    (n, summary.cycles)
}

/// Allocations the extra 2,000 packets (6,000 steps) may cost: none per
/// step, so what remains is the amortized growth of the sampled series
/// (one tick every 2,048 cycles, 75 more ticks here); 16 measured.
/// Allocating once per step would cost 6,000.
const EXTRA_BOUND: u64 = 50;

#[test]
fn extra_packets_cost_no_allocations_per_step() {
    const N: u32 = 2_000;
    let (once, cycles_once) = run_allocations(N);
    let (twice, cycles_twice) = run_allocations(2 * N);
    let extra = twice.saturating_sub(once);
    println!(
        "allocations per run: {N} packets {once} ({cycles_once} cycles), \
         {} packets {twice} ({cycles_twice} cycles)",
        2 * N
    );
    assert!(
        extra <= EXTRA_BOUND,
        "{N} extra packets cost {extra} allocations (bound {EXTRA_BOUND})"
    );
}

/// Allocations the QCIF decode's run may make. No step allocates (the
/// kernels' patches and accumulators live on the stack); what remains is
/// warm-up (the calendar's node pool, the first writers' stage buffers)
/// and the growth of the sampled series (one tick every 2,048 cycles);
/// 441 measured.
const QCIF_BOUND: u64 = 1_000;

#[test]
fn qcif_decode_steps_allocate_nothing() {
    let (bitstream, _) = StreamSpec::qcif().encode();
    let mut sys = build_decode_system(EclipseConfig::default(), bitstream).system;
    let (n, _) = allocations_in(|| run_finished(&mut sys.sys, u64::MAX, "QCIF decode"));
    println!("qcif decode: {n} allocations per run");
    assert!(n <= QCIF_BOUND, "{n} allocations (bound {QCIF_BOUND})");
}

/// Allocations the encode run may make: the time-shift mix's encode
/// alone (9 QCIF frames, GOP n=9 m=3, ME range 8). No encode step
/// allocates: the ME's padded search window and the VLE's symbol list
/// are task scratch reused by every step, `qrl` quantizes and scans into
/// fixed arrays, and the VLE's bit writer drains into the task's pending
/// bytes. What remains is warm-up, the growth of the sampled series and
/// of the collected bitstream; 671 measured (32,147 when every
/// macroblock allocated).
const ENCODE_BOUND: u64 = 1_000;

#[test]
fn encode_steps_allocate_nothing() {
    let spec = StreamSpec {
        frames: 9,
        gop: GopConfig { n: 9, m: 3 },
        ..StreamSpec::qcif()
    };
    let mut b = MpegBuilder::new(EclipseConfig::default(), InstanceCosts::default());
    b.add_encode(
        "enc0",
        spec.source_frames(),
        spec.gop,
        spec.qscale,
        8,
        EncodeAppConfig::default(),
    );
    let mut sys = b.build();
    let (n, _) = allocations_in(|| run_finished(&mut sys.sys, u64::MAX, "QCIF encode"));
    assert!(!sys.encoded_bytes("enc0").unwrap().is_empty());
    println!("qcif encode: {n} allocations per run");
    assert!(n <= ENCODE_BOUND, "{n} allocations (bound {ENCODE_BOUND})");
}
