//! Checkpoint/restore over the real MPEG instance: a decode interrupted
//! mid-run and restored into a freshly built system must finish with
//! bit-identical frames, summary, and state-hash sequence — including
//! after live reconfiguration has reshaped the tables relative to the
//! fresh build receiving the checkpoint.

use std::any::Any;
use std::collections::BTreeMap;

use eclipse_coprocs::apps::{AudioAppConfig, DecodeAppConfig, EncodeAppConfig};
use eclipse_coprocs::cost::{DspCost, McCost, VldCost};
use eclipse_coprocs::dsp::DspCoproc;
use eclipse_coprocs::instance::{build_decode_system, DecodeSystem, InstanceCosts, MpegBuilder};
use eclipse_coprocs::mcme::McMeCoproc;
use eclipse_coprocs::vld::VldCoproc;
use eclipse_core::{Coprocessor, EclipseConfig, RunOutcome};
use eclipse_media::encoder::{Encoder, EncoderConfig};
use eclipse_media::source::{SourceConfig, SyntheticSource};
use eclipse_media::stream::GopConfig;
use eclipse_media::{audio, Decoder};
use eclipse_mem::{BusConfig, DataFabricConfig};
use eclipse_shell::SyncFabricConfig;
use eclipse_sim::snapshot::{SnapError, SnapReader, SnapWriter};

fn encode_test_stream(
    width: usize,
    height: usize,
    frames: u16,
    gop: GopConfig,
    seed: u64,
) -> Vec<u8> {
    let src = SyntheticSource::new(SourceConfig {
        width,
        height,
        complexity: 0.35,
        motion: 2.0,
        seed,
    });
    let enc = Encoder::new(EncoderConfig {
        width,
        height,
        qscale: 6,
        gop,
        search_range: 15,
    });
    enc.encode(&src.frames(frames)).0
}

/// Finish a decode run, sampling the state hash every `stride` cycles.
fn finish_with_hashes(dec: &mut DecodeSystem, stride: u64) -> (Vec<u64>, String) {
    let mut hashes = Vec::new();
    let mut stop = dec.system.sys.now();
    loop {
        stop += stride;
        match dec.system.sys.run_until(stop) {
            None => hashes.push(dec.system.sys.state_hash()),
            Some(outcome) => {
                assert_eq!(outcome, RunOutcome::AllFinished);
                break;
            }
        }
    }
    hashes.push(dec.system.sys.state_hash());
    let frames = dec
        .system
        .display_frames("dec0")
        .expect("display collected frames");
    let digest = format!(
        "{} frames, final hash {:#018x}",
        frames.len(),
        hashes.last().unwrap()
    );
    (hashes, digest)
}

#[test]
fn mpeg_decode_roundtrip_is_bit_exact() {
    let bs = encode_test_stream(64, 48, 8, GopConfig { n: 12, m: 3 }, 23);
    let reference = Decoder::decode(&bs).expect("software decode");

    // Reference pass to learn the total cycle count, then save halfway.
    let total = {
        let mut dec = build_decode_system(EclipseConfig::default(), bs.clone());
        let s = dec.system.run(200_000_000);
        assert_eq!(s.outcome, RunOutcome::AllFinished);
        s.cycles
    };
    let mid = total / 2;

    let mut original = build_decode_system(EclipseConfig::default(), bs.clone());
    assert!(
        original.system.sys.run_until(mid).is_none(),
        "decode must still be mid-flight at the save point"
    );
    let hash_at_save = original.system.sys.state_hash();
    let bytes = original.system.sys.save();
    let (tail_a, digest_a) = finish_with_hashes(&mut original, total / 16);
    let frames_a = original.system.display_frames("dec0").unwrap();

    let mut restored = build_decode_system(EclipseConfig::default(), bs);
    restored.system.sys.restore(&bytes).unwrap();
    assert_eq!(restored.system.sys.state_hash(), hash_at_save);
    let (tail_b, digest_b) = finish_with_hashes(&mut restored, total / 16);
    let frames_b = restored.system.display_frames("dec0").unwrap();

    assert_eq!(tail_a, tail_b, "state-hash tails diverged after restore");
    assert_eq!(digest_a, digest_b);
    assert_eq!(
        frames_a, frames_b,
        "restored decode produced different frames"
    );
    // And both still match the software decoder bit-exactly.
    assert_eq!(frames_b.len(), reference.frames.len());
    for (i, (sim, sw)) in frames_b.iter().zip(&reference.frames).enumerate() {
        assert_eq!(sim, sw, "frame {i} differs from software decode");
    }
}

#[test]
fn two_fresh_mpeg_builds_checkpoint_identically() {
    // The nondeterminism regression (ordered task/config maps): two
    // independently built instances of the same system, advanced to the
    // same cycle, must produce byte-identical checkpoints.
    let bs = encode_test_stream(48, 32, 3, GopConfig { n: 3, m: 1 }, 24);
    let mk = || build_decode_system(EclipseConfig::default(), bs.clone());
    let mut a = mk();
    let mut b = mk();
    assert_eq!(
        a.system.sys.save(),
        b.system.sys.save(),
        "fresh builds serialize differently"
    );
    a.system.sys.run_until(300_000);
    b.system.sys.run_until(300_000);
    assert_eq!(
        a.system.sys.save(),
        b.system.sys.save(),
        "mid-run builds serialize differently"
    );
    assert_eq!(a.system.sys.state_hash(), b.system.sys.state_hash());
}

/// ISSUE 9 satellite: every data-fabric × sync-fabric combination must
/// checkpoint bit-exactly *under load* — i.e. at a cycle where the
/// fabric arbiters hold live cursors (multi-bank round-robin positions,
/// private-port in-flight grants, bus busy-until horizons) and syncs
/// are in flight. A restore into a fresh build must replay to the same
/// state-hash tail and the same decoded frames.
#[test]
fn checkpoint_under_load_across_fabric_combos() {
    let bs = encode_test_stream(48, 32, 3, GopConfig { n: 3, m: 1 }, 26);
    let cfg = EclipseConfig::default();
    let bank = BusConfig {
        width_bytes: cfg.read_bus.width_bytes,
        latency: cfg.read_bus.latency,
        cycles_per_beat: cfg.read_bus.cycles_per_beat,
    };
    let data_arms: [(&str, DataFabricConfig); 4] = [
        (
            "shared-bus",
            DataFabricConfig::SharedBus {
                read: cfg.read_bus,
                write: cfg.write_bus,
            },
        ),
        (
            "2-bank",
            DataFabricConfig::MultiBank {
                banks: 2,
                interleave_bytes: 64,
                bank,
            },
        ),
        (
            "4-bank",
            DataFabricConfig::MultiBank {
                banks: 4,
                interleave_bytes: 64,
                bank,
            },
        ),
        (
            "private-port",
            DataFabricConfig::PrivatePort {
                grant_cycles: 2,
                port: bank,
            },
        ),
    ];
    let sync_arms: [(&str, SyncFabricConfig); 2] = [
        ("direct", SyncFabricConfig::Direct),
        (
            "ring",
            SyncFabricConfig::Ring {
                hop_latency: 2,
                link_occupancy: 1,
            },
        ),
    ];
    for (dl, data) in data_arms {
        for (sl, sync) in sync_arms {
            let label = format!("{dl}+{sl}");
            let mk = || {
                let mut b = MpegBuilder::new(cfg, InstanceCosts::default());
                b.with_data_fabric(data).with_sync_fabric(sync);
                b.add_decode("dec0", bs.clone(), DecodeAppConfig::default());
                b.build()
            };
            // Measuring pass: learn the total so the save point lands
            // squarely mid-decode, with the pipeline saturated.
            let total = {
                let mut m = mk();
                let s = m.run(200_000_000);
                assert_eq!(s.outcome, RunOutcome::AllFinished, "{label}");
                s.cycles
            };

            let mut original = mk();
            assert!(
                original.sys.run_until(2 * total / 5).is_none(),
                "{label}: decode must still be mid-flight at the save point"
            );
            let hash_at_save = original.sys.state_hash();
            let bytes = original.sys.save();

            let mut restored = mk();
            restored.sys.restore(&bytes).unwrap();
            assert_eq!(
                restored.sys.state_hash(),
                hash_at_save,
                "{label}: restore does not reproduce the checkpoint hash"
            );
            // Re-saving immediately must be byte-identical: arbiter
            // cursors, in-flight grants, and queued syncs all survive
            // the round-trip, not just the hashed subset.
            assert_eq!(
                restored.sys.save(),
                bytes,
                "{label}: save→restore→save is not byte-stable"
            );

            let hashes = |sys: &mut eclipse_coprocs::instance::MpegSystem| {
                let mut out = Vec::new();
                let mut stop = sys.sys.now();
                loop {
                    stop += total / 16;
                    match sys.sys.run_until(stop) {
                        None => out.push(sys.sys.state_hash()),
                        Some(outcome) => {
                            assert_eq!(outcome, RunOutcome::AllFinished, "{label}");
                            break;
                        }
                    }
                }
                out.push(sys.sys.state_hash());
                out
            };
            let tail_a = hashes(&mut original);
            let tail_b = hashes(&mut restored);
            assert_eq!(tail_a, tail_b, "{label}: state-hash tails diverged");
            assert_eq!(
                original.display_frames("dec0"),
                restored.display_frames("dec0"),
                "{label}: restored decode produced different frames"
            );
        }
    }
}

/// The mesh data×sync backends join the checkpoint-under-load contract
/// — with the save point *proven* to land mid-route: the test scans for
/// a cycle where the mesh data fabric still holds an injection-port
/// grant beyond "now" (a chunk in flight on its XY route) and, under
/// the mesh sync network, a link reservation is still pending (a
/// `putspace` flit mid-route). Restoring into a fresh build must
/// reproduce the hash, re-save byte-identically, and replay to the same
/// frames.
#[test]
fn mesh_checkpoint_restores_in_flight_routes() {
    use eclipse_mem::BankedFabric;
    use eclipse_shell::MeshSyncFabric;

    let bs = encode_test_stream(48, 32, 3, GopConfig { n: 3, m: 1 }, 26);
    let cfg = EclipseConfig::default();
    let bank = BusConfig {
        width_bytes: cfg.read_bus.width_bytes,
        latency: cfg.read_bus.latency,
        cycles_per_beat: cfg.read_bus.cycles_per_beat,
    };
    let mesh = DataFabricConfig::Mesh {
        cols: 2,
        rows: 2,
        interleave_bytes: 64,
        link_grant: 2,
        hop_cycles: 1,
        port: bank,
    };
    // No piggy-backing and a long link occupancy, so every routed sync
    // reserves its links for a scan-visible window (piggy-backed flits
    // reserve nothing; their restore path is pinned by the shell unit
    // tests).
    let sync_arms: [(&str, SyncFabricConfig); 2] = [
        ("direct", SyncFabricConfig::Direct),
        (
            "mesh-sync",
            SyncFabricConfig::Mesh {
                cols: 2,
                rows: 2,
                hop_latency: 2,
                link_occupancy: 6,
                piggyback_window: 0,
            },
        ),
    ];
    for (sl, sync) in sync_arms {
        let label = format!("mesh+{sl}");
        let mk = || {
            let mut b = MpegBuilder::new(cfg, InstanceCosts::default());
            b.with_data_fabric(mesh).with_sync_fabric(sync);
            b.add_decode("dec0", bs.clone(), DecodeAppConfig::default());
            b.build()
        };
        let total = {
            let mut m = mk();
            let s = m.run(200_000_000);
            assert_eq!(s.outcome, RunOutcome::AllFinished, "{label}");
            s.cycles
        };

        // Scan mid-decode for a stop cycle with routes genuinely in
        // flight on the plane(s) under test. Deterministic: the same
        // stream always yields the same first hit.
        let mut original = mk();
        let mut stop = 2 * total / 5;
        let found = loop {
            if stop > 4 * total / 5 {
                break false;
            }
            assert!(
                original.sys.run_until(stop).is_none(),
                "{label}: decode must still be mid-flight while scanning"
            );
            let now = original.sys.now();
            let data_busy = (original.sys.data_fabric() as &dyn Any)
                .downcast_ref::<BankedFabric>()
                .expect("mesh data fabric selected")
                .in_flight(now);
            let sync_busy =
                match (original.sys.sync_fabric() as &dyn Any).downcast_ref::<MeshSyncFabric>() {
                    Some(m) => m.links_in_flight(now),
                    None => true, // direct sync holds no route state
                };
            if data_busy && sync_busy {
                break true;
            }
            stop += 101;
        };
        assert!(found, "{label}: no save point with in-flight routes found");

        let hash_at_save = original.sys.state_hash();
        let bytes = original.sys.save();

        let mut restored = mk();
        restored.sys.restore(&bytes).unwrap();
        assert_eq!(
            restored.sys.state_hash(),
            hash_at_save,
            "{label}: restore does not reproduce the checkpoint hash"
        );
        assert_eq!(
            restored.sys.save(),
            bytes,
            "{label}: save→restore→save is not byte-stable"
        );

        let hashes = |sys: &mut eclipse_coprocs::instance::MpegSystem| {
            let mut out = Vec::new();
            let mut at = sys.sys.now();
            loop {
                at += total / 16;
                match sys.sys.run_until(at) {
                    None => out.push(sys.sys.state_hash()),
                    Some(outcome) => {
                        assert_eq!(outcome, RunOutcome::AllFinished, "{label}");
                        break;
                    }
                }
            }
            out.push(sys.sys.state_hash());
            out
        };
        let tail_a = hashes(&mut original);
        let tail_b = hashes(&mut restored);
        assert_eq!(tail_a, tail_b, "{label}: state-hash tails diverged");
        assert_eq!(
            original.display_frames("dec0"),
            restored.display_frames("dec0"),
            "{label}: restored decode produced different frames"
        );
    }
}

#[test]
fn live_audio_churn_survives_roundtrip() {
    // Live reconfiguration reshapes the shell and DSP tables relative to
    // any fresh build; the checkpoint must rebuild them wholesale.
    let bs = encode_test_stream(48, 32, 4, GopConfig { n: 4, m: 1 }, 25);
    let pcm = audio::synth_pcm(audio::BLOCK_SAMPLES * 4, 0xA5A5);
    let audio_ref = audio::decode(&audio::encode(&pcm));

    // Measuring pass so the audio map and the save both land mid-decode.
    let total = {
        let mut dec = build_decode_system(EclipseConfig::default(), bs.clone());
        let s = dec.system.run(200_000_000);
        assert_eq!(s.outcome, RunOutcome::AllFinished);
        s.cycles
    };

    let mut original = build_decode_system(EclipseConfig::default(), bs.clone());
    assert!(original.system.sys.run_until(total / 4).is_none());
    original
        .system
        .add_audio_live("aud", &pcm, AudioAppConfig::default())
        .expect("live audio admission");
    original.system.sys.run_until(total / 2);
    let hash_at_save = original.system.sys.state_hash();
    let bytes = original.system.sys.save();
    let (tail_a, _) = finish_with_hashes(&mut original, total / 8);
    let pcm_a = original.system.pcm_samples("aud").expect("pcm decoded");

    // The fresh build never saw the audio app; restore recreates its
    // rows, task-table entries, DSP task bindings, and DRAM contents.
    let mut restored = build_decode_system(EclipseConfig::default(), bs);
    restored.system.sys.restore(&bytes).unwrap();
    assert_eq!(restored.system.sys.state_hash(), hash_at_save);
    let (tail_b, _) = finish_with_hashes(&mut restored, total / 8);
    let pcm_b = restored.system.pcm_samples("aud").expect("pcm decoded");

    assert_eq!(tail_a, tail_b, "state-hash tails diverged after restore");
    assert_eq!(pcm_a, pcm_b, "live-mapped audio output diverged");
    assert_eq!(
        pcm_a, audio_ref,
        "audio decode must match the software codec"
    );
}

/// Restore must accept every state a run reaches, not only the ones the
/// other round trips save at: an encode beside a decode (motion
/// estimation, reconstruction skipping B pictures, the DSP's source and
/// VLE tasks) is saved at nineteen points through the run, and each
/// checkpoint restores into a fresh build with its state hash.
#[test]
fn timeshift_checkpoints_restore_throughout_the_run() {
    let gop = GopConfig { n: 4, m: 2 };
    let bs = encode_test_stream(48, 32, 4, gop, 27);
    let frames = SyntheticSource::new(SourceConfig {
        width: 48,
        height: 32,
        complexity: 0.35,
        motion: 2.0,
        seed: 28,
    })
    .frames(4);
    let mk = || {
        let mut b = MpegBuilder::new(EclipseConfig::default(), InstanceCosts::default());
        b.add_decode("dec0", bs.clone(), DecodeAppConfig::default());
        b.add_encode(
            "enc0",
            frames.clone(),
            gop,
            6,
            4,
            EncodeAppConfig::default(),
        );
        b.build()
    };
    let total = mk().run(200_000_000).cycles;
    let mut original = mk();
    for i in 1..20 {
        assert!(original.sys.run_until(total * i / 20).is_none());
        let mut fresh = mk();
        let restored = fresh.sys.restore(&original.sys.save());
        assert_eq!(restored, Ok(()), "save point {i} of 20");
        assert_eq!(fresh.sys.state_hash(), original.sys.state_hash());
    }
}

/// Every byte of off-chip memory, read in 1 MiB chunks.
fn dram_chunks(dec: &mut DecodeSystem) -> Vec<Vec<u8>> {
    let dram = dec.system.sys.dram_mut();
    let size = dram.config().size;
    let chunk = 1u32 << 20;
    (0..size)
        .step_by(chunk as usize)
        .map(|addr| {
            let mut buf = vec![0; chunk.min(size - addr) as usize];
            dram.read(addr, &mut buf);
            buf
        })
        .collect()
}

#[test]
fn restore_into_the_running_system_matches_a_fresh_build() {
    // The supervisor's rollback path: restore an earlier checkpoint into
    // the system that ran past it, whose DRAM has since been written.
    // Only a fresh build's untouched memory is known to be zero, so this
    // is where a stale page would survive a restore.
    let bs = encode_test_stream(64, 48, 8, GopConfig { n: 12, m: 3 }, 26);
    let total = {
        let mut dec = build_decode_system(EclipseConfig::default(), bs.clone());
        dec.system.run(200_000_000).cycles
    };

    let mut running = build_decode_system(EclipseConfig::default(), bs.clone());
    assert!(running.system.sys.run_until(total / 3).is_none());
    let hash_at_save = running.system.sys.state_hash();
    let bytes = running.system.sys.save();
    assert!(running.system.sys.run_until(2 * total / 3).is_none());
    // A page no decode touches, so the rollback must zero it.
    running.system.sys.dram_mut().write(48 << 20, &[0xA5; 5000]);
    assert_ne!(running.system.sys.state_hash(), hash_at_save);
    running.system.sys.restore(&bytes).unwrap();

    let mut fresh = build_decode_system(EclipseConfig::default(), bs);
    fresh.system.sys.restore(&bytes).unwrap();
    assert_eq!(running.system.sys.state_hash(), hash_at_save);
    assert_eq!(fresh.system.sys.state_hash(), hash_at_save);
    assert_eq!(running.system.sys.save(), bytes);
    assert!(
        dram_chunks(&mut running) == dram_chunks(&mut fresh),
        "rolled-back DRAM differs from a fresh restore"
    );

    let (tail_a, digest_a) = finish_with_hashes(&mut running, total / 16);
    let (tail_b, digest_b) = finish_with_hashes(&mut fresh, total / 16);
    assert_eq!(tail_a, tail_b, "state-hash tails diverged after rollback");
    assert_eq!(digest_a, digest_b);
}

/// Coprocessor state crafted to declare a 1 TiB blob: a length prefix,
/// then one zero segment spanning it.
fn huge_blob(w: &mut SnapWriter) {
    w.usize(1 << 40);
    w.u8(0);
    w.usize(1 << 40);
}

fn assert_corrupt(c: &mut dyn Coprocessor, w: SnapWriter) {
    let bytes = w.into_bytes();
    let got = c.load_state(&mut SnapReader::new(&bytes));
    assert!(matches!(got, Err(SnapError::Corrupt(_))), "{got:?}");
}

/// VLD state with no task configs and one task, its bitstream fetched
/// from DRAM (`Some(len)`) or from a port (`None`).
fn vld_task(dram_len: Option<u32>) -> SnapWriter {
    let mut w = SnapWriter::new();
    w.usize(0); // task configs
    w.usize(1); // tasks
    w.u8(0); // task index
    match dram_len {
        None => w.u8(1),
        Some(len) => {
            w.u8(0);
            w.u32(0);
            w.u32(len);
        }
    }
    w
}

#[test]
fn crafted_vld_fetch_buffer_is_corrupt_not_an_abort() {
    let vld = || VldCoproc::new(VldCost::default(), BTreeMap::new());
    for dram_len in [None, Some(100)] {
        let mut w = vld_task(dram_len);
        huge_blob(&mut w);
        assert_corrupt(&mut vld(), w);
    }
    // A DRAM-sourced fetch buffer may not outgrow its stream.
    let mut w = vld_task(Some(100));
    w.blob(&[7; 101]);
    assert_corrupt(&mut vld(), w);
}

/// DSP state with no task configs and one task of the given tag.
fn dsp_task(tag: u8) -> SnapWriter {
    let mut w = SnapWriter::new();
    for _ in 0..5 {
        w.usize(0); // source, vle, audio, demux configs; names
    }
    w.usize(1);
    w.u8(0);
    w.u8(tag);
    w
}

#[test]
fn crafted_dsp_sink_and_frames_are_corrupt_not_an_abort() {
    let mut sink = dsp_task(3);
    huge_blob(&mut sink);
    assert_corrupt(&mut DspCoproc::new(DspCost::default()), sink);

    // Display frames: sides must be nonzero multiples of 16 within
    // MPEG-1's 12-bit picture size.
    for (width, height) in [(1usize << 40, 16usize), (16, 1 << 40), (4096, 16), (0, 16)] {
        let mut display = dsp_task(0);
        display.usize(1); // frames
        display.bool(true);
        display.usize(width);
        display.usize(height);
        assert_corrupt(&mut DspCoproc::new(DspCost::default()), display);
    }
}

/// A picture record's wire bytes: an I picture of `mb_cols` × 3
/// macroblocks.
fn pic_rec(w: &mut SnapWriter, temporal_ref: u16, mb_cols: u16) {
    w.u8(0x01); // picture tag
    w.u8(0); // I
    w.u8(6); // qscale
    w.u16(temporal_ref);
    w.u16(mb_cols);
    w.u16(3);
}

#[test]
fn crafted_display_picture_is_corrupt_not_a_panic() {
    // One frame slot and a 64×48 picture in progress, whose record has
    // no macroblock columns or names a slot past the one there is.
    for (temporal_ref, mb_cols) in [(0, 0), (5, 4)] {
        let mut w = dsp_task(0);
        w.usize(1); // frames
        w.bool(false);
        w.bool(true); // picture in progress
        pic_rec(&mut w, temporal_ref, mb_cols);
        w.usize(64);
        w.usize(48);
        w.blob(&[0; 64 * 48]);
        w.blob(&[0; 32 * 24]);
        w.blob(&[0; 32 * 24]);
        w.u32(0); // macroblock cursor
        w.u64(0); // errors
        w.bool(false); // concealment
        w.u64(0); // concealed frames
        w.u16(0); // expected frames
        assert_corrupt(&mut DspCoproc::new(DspCost::default()), w);
    }
}

#[test]
fn crafted_motion_picture_is_corrupt_not_a_panic() {
    // An MC task on a 64×48 arena whose picture has no macroblock
    // columns (its macroblock position is a remainder by them).
    let mut w = SnapWriter::new();
    w.usize(0); // arena configs
    w.usize(1); // tasks
    w.u8(0); // task index
    w.u8(0); // motion compensation
    w.u32(0); // arena base
    w.u32(64);
    w.u32(48);
    w.u8(7); // search range
    w.bool(false); // anchors
    w.bool(false);
    w.u32(0);
    w.bool(true); // picture in progress
    pic_rec(&mut w, 0, 0);
    w.u32(0); // write slot
    w.u32(0); // macroblock index
    w.u64(0); // picture start
    w.usize(0); // picture spans
    for _ in 0..4 {
        w.u64(0); // counters
    }
    assert_corrupt(&mut McMeCoproc::new(McCost::default(), BTreeMap::new()), w);
}
