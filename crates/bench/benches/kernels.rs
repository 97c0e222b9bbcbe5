//! Microbenchmarks of the functional kernels the coprocessors execute:
//! DCT, quantization, run-length coding, VLC, motion search and the
//! half-pel block kernel, the full software codec, and a shell
//! GetSpace/PutSpace round trip; and of the input path every experiment
//! starts from: the synthetic source and the bit writer. These keep
//! the *simulator host speed* honest — the cycle model is separate.
//!
//! Runs as a plain `harness = false` binary (`cargo bench --bench
//! kernels`) on the in-repo harness in [`eclipse_bench::microbench`].

use std::hint::black_box;

use eclipse_bench::microbench::bench;
use eclipse_media::bits::{BitReader, BitWriter};
use eclipse_media::dct::{fdct2d, idct2d};
use eclipse_media::motion::{fetch_block_half, sad_16x16, three_step_search_pred, MotionVector};
use eclipse_media::quant::{dequant_intra, quant_intra};
use eclipse_media::scan::{rle_decode, rle_encode_into, RunLevel};
use eclipse_media::source::{SourceConfig, SyntheticSource};
use eclipse_media::vlc::{get_block, put_block};

fn test_block() -> [i16; 64] {
    let mut b = [0i16; 64];
    for (i, v) in b.iter_mut().enumerate() {
        *v = ((i as i32 * 37 % 401) - 200) as i16;
    }
    b
}

fn bench_dct() {
    let block = test_block();
    bench("dct/fdct2d", || fdct2d(black_box(&block)));
    let coefs = fdct2d(&block);
    bench("dct/idct2d", || idct2d(black_box(&coefs)));
}

fn bench_quant_rle() {
    let coefs = fdct2d(&test_block());
    bench("rlsq/quant_intra", || quant_intra(black_box(&coefs), 6));
    let levels = quant_intra(&coefs, 6);
    bench("rlsq/dequant_intra", || {
        dequant_intra(black_box(&levels), 6)
    });
    bench("rlsq/rle_encode", || {
        let mut out = [RunLevel::default(); 64];
        let n = rle_encode_into(black_box(&levels), &mut out);
        (out, n)
    });
    let symbols = symbols_of(&levels);
    bench("rlsq/rle_decode", || {
        rle_decode(black_box(&symbols)).unwrap()
    });
}

/// The run/level symbols of `levels`.
fn symbols_of(levels: &[i16; 64]) -> Vec<RunLevel> {
    let mut out = [RunLevel::default(); 64];
    let n = rle_encode_into(levels, &mut out);
    out[..n].to_vec()
}

/// One QCIF frame of the experiments' synthetic scene.
fn bench_source() {
    let src = SyntheticSource::new(SourceConfig {
        width: 176,
        height: 144,
        complexity: 0.5,
        motion: 2.0,
        seed: 0xEC11,
    });
    bench("source/qcif_frame", || src.frame(black_box(7)));
}

/// 1,024 fields of 1 to 24 bits into a fresh writer: VLC code words,
/// escapes and header fields.
fn bench_bits() {
    let fields: Vec<(u32, u8)> = (0..1024u32)
        .map(|i| {
            let n = (i * 7 % 24 + 1) as u8;
            (i.wrapping_mul(0x9E37_79B9) >> (32 - n as u32), n)
        })
        .collect();
    bench("bits/put_bits", || {
        let mut w = BitWriter::new();
        for &(v, n) in black_box(&fields) {
            w.put_bits(v, n);
        }
        w.finish()
    });
}

fn bench_vlc() {
    let symbols = symbols_of(&quant_intra(&fdct2d(&test_block()), 6));
    bench("vlc/encode_block", || {
        let mut w = BitWriter::new();
        put_block(&mut w, black_box(&symbols));
        w.finish()
    });
    let mut w = BitWriter::new();
    put_block(&mut w, &symbols);
    let bytes = w.finish();
    bench("vlc/decode_block", || {
        let mut r = BitReader::new(black_box(&bytes));
        let mut out = [RunLevel::default(); 64];
        let (n, _) = get_block(&mut r, &mut out).unwrap();
        (out, n)
    });
}

fn bench_motion() {
    let src = SyntheticSource::new(SourceConfig {
        width: 176,
        height: 144,
        complexity: 0.5,
        motion: 2.0,
        seed: 7,
    });
    let f0 = src.frame(0);
    let f1 = src.frame(1);
    bench("motion/three_step_search_qcif_mb", || {
        three_step_search_pred(
            black_box(&f1),
            black_box(&f0),
            5,
            4,
            15,
            &[MotionVector::default()],
        )
    });
    // The block kernel's two paths: an interior macroblock with a
    // diagonal half-pel vector; a left-edge macroblock whose vector
    // reaches 3.5 columns past the edge (the common out-of-grid case of
    // a search); and the corner macroblock with a vector pointing out of
    // the frame (every sample clamped).
    let diag = MotionVector { dx: 3, dy: -5 };
    bench("motion/sad_16x16_interior", || {
        sad_16x16(black_box(&f1), black_box(&f0), 5, 4, diag)
    });
    let border = MotionVector { dx: -7, dy: 3 };
    bench("motion/sad_16x16_border", || {
        sad_16x16(black_box(&f1), black_box(&f0), 0, 4, border)
    });
    bench("motion/sad_16x16_edge", || {
        sad_16x16(black_box(&f1), black_box(&f0), 0, 0, diag)
    });
    bench("motion/fetch_block_half_interior", || {
        let mut out = [0i16; 64];
        fetch_block_half(black_box(&f0.y), 5 * 32 + 3, 4 * 32 - 5, &mut out);
        out
    });
}

fn bench_codec() {
    let src = SyntheticSource::new(SourceConfig {
        width: 176,
        height: 144,
        complexity: 0.5,
        motion: 2.0,
        seed: 7,
    });
    let frames = src.frames(5);
    let enc = eclipse_media::Encoder::new(eclipse_media::EncoderConfig {
        width: 176,
        height: 144,
        qscale: 6,
        gop: eclipse_media::GopConfig { n: 12, m: 3 },
        search_range: 15,
    });
    bench("codec/encode_qcif_5f", || enc.encode(black_box(&frames)));
    let (bytes, _) = enc.encode(&frames);
    bench("codec/decode_qcif_5f", || {
        eclipse_media::Decoder::decode(black_box(&bytes)).unwrap()
    });
}

fn bench_shell() {
    use eclipse_mem::{BusConfig, CyclicBuffer, SramConfig};
    use eclipse_shell::stream_table::{AccessPoint, PortDir, RowIdx, StreamRowConfig};
    use eclipse_shell::task_table::TaskConfig;
    use eclipse_shell::{MemSys, Shell, ShellConfig, ShellId, TaskIdx};

    bench("shell/getspace_putspace_roundtrip", || {
        let mut shell = Shell::new(ShellId(0), ShellConfig::default());
        let row = shell.add_stream_row(StreamRowConfig {
            buffer: CyclicBuffer::new(0, 4096),
            dir: PortDir::Producer,
            remotes: vec![AccessPoint {
                shell: ShellId(1),
                row: RowIdx(0),
            }],
        });
        shell.add_task(TaskConfig {
            name: "t".into(),
            budget: 1000,
            task_info: 0,
            ports: vec![row],
            space_hints: vec![0],
        });
        let mut mem = MemSys::shared_bus(
            SramConfig::default(),
            BusConfig::default(),
            BusConfig::default(),
        );
        let mut now = 0u64;
        for _ in 0..16 {
            shell.get_space(TaskIdx(0), 0, 64, now);
            shell.write(TaskIdx(0), 0, 0, &[1u8; 64], now, &mut mem);
            let out = shell.put_space(TaskIdx(0), 0, 64, now, &mut mem);
            now = out.done + 1;
            // Recycle the room locally so the loop can continue.
            let msg = eclipse_shell::SyncMsg {
                src: AccessPoint {
                    shell: ShellId(1),
                    row: RowIdx(0),
                },
                dst: AccessPoint {
                    shell: ShellId(0),
                    row: RowIdx(0),
                },
                bytes: 64,
                send_at: now,
                dst_gen: 0,
            };
            shell.deliver_putspace(&msg, now);
        }
        black_box(now)
    });
}

fn main() {
    bench_source();
    bench_bits();
    bench_dct();
    bench_quant_rle();
    bench_vlc();
    bench_motion();
    bench_codec();
    bench_shell();
}
