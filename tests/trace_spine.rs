//! Integration tests of the structured event-tracing spine: exports are
//! byte-reproducible across identical runs, a run restored from a
//! checkpoint traces the same events as the run it forked from, and
//! enabling tracing never perturbs simulated behavior (the
//! instrumentation is observational).

use eclipse::coprocs::instance::{build_decode_system, InstanceCosts, MpegBuilder, MpegSystem};
use eclipse::coprocs::DecodeAppConfig;
use eclipse::core::{EclipseConfig, RunSummary};
use eclipse::media::encoder::{Encoder, EncoderConfig};
use eclipse::media::source::{SourceConfig, SyntheticSource};
use eclipse::media::stream::GopConfig;
use eclipse::sim::trace::SharedTraceSink;
use eclipse_bench::run_finished;

fn make_stream(seed: u64) -> Vec<u8> {
    let src = SyntheticSource::new(SourceConfig {
        width: 48,
        height: 32,
        complexity: 0.4,
        motion: 2.0,
        seed,
    });
    let enc = Encoder::new(EncoderConfig {
        width: 48,
        height: 32,
        qscale: 6,
        gop: GopConfig { n: 6, m: 3 },
        search_range: 15,
    });
    let (bytes, _) = enc.encode(&src.frames(4));
    bytes
}

fn traced_run(bitstream: Vec<u8>) -> (RunSummary, String, String) {
    let mut dec = build_decode_system(EclipseConfig::default(), bitstream);
    let sink = dec.system.sys.enable_tracing(4_000_000);
    let summary = run_finished(&mut dec.system.sys, 2_000_000_000, "traced decode");
    let sink = sink.borrow();
    assert!(!sink.is_empty(), "traced run must capture events");
    (summary, sink.to_chrome_trace(), sink.to_csv())
}

#[test]
fn identical_runs_export_byte_identical_traces() {
    let bitstream = make_stream(0x7ACE);
    let (_, json_a, csv_a) = traced_run(bitstream.clone());
    let (_, json_b, csv_b) = traced_run(bitstream);
    assert_eq!(json_a, json_b, "Chrome-trace export must be byte-identical");
    assert_eq!(csv_a, csv_b, "CSV export must be byte-identical");
}

#[test]
fn tracing_does_not_perturb_the_run() {
    let bitstream = make_stream(0x0B5E_7AB1E);
    let mut plain = build_decode_system(EclipseConfig::default(), bitstream.clone());
    let untraced = plain.system.run(2_000_000_000);
    let (traced, _, _) = traced_run(bitstream);
    // RunSummary has no PartialEq (it carries a Histogram); the Debug
    // rendering covers every field, so string equality is full equality.
    assert_eq!(format!("{untraced:?}"), format!("{traced:?}"));
}

#[test]
fn disabled_sink_collects_nothing_but_run_is_unchanged() {
    let bitstream = make_stream(0xD15AB1ED);
    let mut plain = build_decode_system(EclipseConfig::default(), bitstream.clone());
    let untraced = plain.system.run(2_000_000_000);

    let mut dec = build_decode_system(EclipseConfig::default(), bitstream);
    let sink = dec.system.sys.enable_tracing(4_000_000);
    sink.borrow_mut().set_enabled(false);
    let summary = run_finished(&mut dec.system.sys, 2_000_000_000, "decode, sink disabled");
    assert!(sink.borrow().is_empty(), "disabled sink must stay empty");
    assert_eq!(format!("{untraced:?}"), format!("{summary:?}"));
}

/// Two decodes of `bitstream` sharing the instance, so every shell
/// schedules two tasks.
fn two_decodes(bitstream: &[u8]) -> MpegSystem {
    let mut b = MpegBuilder::new(EclipseConfig::default(), InstanceCosts::default());
    for prefix in ["dec0", "dec1"] {
        b.add_decode(prefix, bitstream.to_vec(), DecodeAppConfig::default());
    }
    b.build()
}

/// `two_decodes` traced into a ring large enough that nothing is
/// dropped.
fn traced_decodes(bitstream: &[u8]) -> (MpegSystem, SharedTraceSink) {
    let mut sys = two_decodes(bitstream);
    let sink = sys.sys.enable_tracing(4_000_000);
    (sys, sink)
}

/// The events a sink retains, one string per event in each export: the
/// CSV row and the Chrome event line (which carries label ids as `tid`s;
/// the thread-name metadata is dropped).
fn exported_events(sink: &SharedTraceSink) -> Vec<(String, String)> {
    let sink = sink.borrow();
    assert_eq!(sink.dropped(), 0);
    let csv = sink.to_csv();
    let json = sink.to_chrome_trace();
    let chrome = json
        .lines()
        .filter(|l| l.starts_with('{') && !l.contains("\"ph\":\"M\""))
        .map(|l| l.trim_end_matches(','));
    let rows: Vec<_> = csv.lines().skip(1).zip(chrome).collect();
    assert_eq!(rows.len(), sink.len());
    rows.into_iter()
        .map(|(row, event)| (row.to_owned(), event.to_owned()))
        .collect()
}

/// Run to completion and return the exported events.
fn finish(sys: &mut MpegSystem, sink: &SharedTraceSink) -> Vec<(String, String)> {
    run_finished(&mut sys.sys, 2_000_000_000, "two decodes");
    exported_events(sink)
}

/// Assert two event lists are equal, naming the first difference.
fn assert_same_events(got: &[(String, String)], want: &[(String, String)]) {
    if let Some(i) = (0..got.len().min(want.len())).find(|&i| got[i] != want[i]) {
        panic!("event {i} differs: {:?} != {:?}", got[i], want[i]);
    }
    assert_eq!(got.len(), want.len(), "event counts differ");
}

#[test]
fn restored_runs_trace_the_rest_of_the_run() {
    let bitstream = make_stream(0x5A7E);
    let (mut whole, whole_sink) = traced_decodes(&bitstream);
    let reference = finish(&mut whole, &whole_sink);

    // Checkpoint mid-run; the ring keeps the events before the save.
    let (mut first, first_sink) = traced_decodes(&bitstream);
    assert_eq!(first.sys.run_until(whole.sys.now() / 2), None);
    let checkpoint = first.sys.save();
    let before = first_sink.borrow().emitted() as usize;
    assert!(before > 0 && before < reference.len());
    let tail = &reference[before..];

    // Into a fresh traced build: nothing resolved a label there yet.
    let (mut fresh, fresh_sink) = traced_decodes(&bitstream);
    let restored = fresh.sys.restore(&checkpoint);
    restored.expect("restore into a fresh build");
    assert_same_events(&finish(&mut fresh, &fresh_sink), tail);

    // Into the same system after it ran to the end, so every label it
    // uses was resolved, and a new one ("AllFinished") interned, after
    // the save point.
    finish(&mut first, &first_sink);
    let restored = first.sys.restore(&checkpoint);
    restored.expect("restore into the same system");
    assert_same_events(&finish(&mut first, &first_sink), tail);
}

#[test]
fn a_new_sink_resolves_its_own_labels() {
    // A sink attached mid-run to a system that traced into another sink
    // until then exports what a first sink attached at that point does.
    let bitstream = make_stream(0x2B1D);
    let (mut retraced, _) = traced_decodes(&bitstream);
    let mut plain = two_decodes(&bitstream);
    let halfway = 40_000;
    assert_eq!(retraced.sys.run_until(halfway), None);
    assert_eq!(plain.sys.run_until(halfway), None);
    let second = retraced.sys.enable_tracing(4_000_000);
    let first = plain.sys.enable_tracing(4_000_000);
    let events = finish(&mut retraced, &second);
    assert!(!events.is_empty());
    assert_same_events(&events, &finish(&mut plain, &first));
}
