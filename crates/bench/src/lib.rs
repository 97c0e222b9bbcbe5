//! # eclipse-bench — the experiment harness
//!
//! One binary per paper artifact (see `DESIGN.md` §4 and
//! `EXPERIMENTS.md`):
//!
//! | bin | paper artifact |
//! |---|---|
//! | `fig10_buffer_traces` | Figure 10 — buffer filling & bottleneck shifts |
//! | `fig9_visualization` | Figure 9 — architecture & application views |
//! | `sweep_cache` | §7 cache-size / prefetch design-space sweep |
//! | `sweep_bus` | §7 bus width & latency sweep |
//! | `tab_instance_model` | §6 area / power / Gops estimates |
//! | `tab_app_mixes` | §6 application mixes |
//! | `tab_load_irregularity` | §2.2 worst/average load ratios |
//! | `sweep_coupling` | §2.2/§3 buffer-size (coupling) sweep |
//! | `sweep_scheduler` | §5.3 scheduler ablation & budget sweep |
//! | `sweep_scalability` | §2.3/§5.1 distributed vs CPU-centric sync |
//! | `tab_coherency` | §5.2 coherency mechanism accounting |
//! | `tab_granularity` | Figure 1/§2.1 granularity of parallelism |
//!
//! and the bins for the extensions beyond the paper and for development:
//!
//! | bin | what it shows |
//! |---|---|
//! | `sweep_fabric` | data-fabric × sync-network design-space sweep |
//! | `mapping_search` | placement passes scored on every fabric topology |
//! | `sweep_reconfig` | live map / drain / unmap transition latencies |
//! | `chaos_soak` | fault class × rate recovery table (`--supervised`, `--replay`) |
//! | `sweep_scenarios` | supervisor arrival × fault scenarios |
//! | `snapshot_smoke` | checkpoint fork ≡ uninterrupted run |
//! | `timing_fingerprint` | byte-exact digest of the canonical runs' timing |
//! | `trace_decode` | structured event trace of the QCIF decode |
//! | `profile_qcif` | QCIF decode loop for host profilers |
//!
//! This library holds what those binaries share:
//!
//! | module | what it holds |
//! |---|---|
//! | this one | [`StreamSpec`] and the table and `results/` writers |
//! | [`points`] | the design points that two or more binaries or tests build |
//! | [`run`] | the one run check, the outcome cell, the counter rollup |
//! | [`sweep`] | the parallel design-point executor |
//! | [`synthetic`] | the synthetic pipeline coprocessors and their systems |
//! | [`microbench`] | the wall-clock harness of the `kernels` benches |

pub mod microbench;
pub mod points;
pub mod run;
pub mod sweep;
pub mod synthetic;

pub use run::{outcome_cell, run_finished, Counters};
pub use sweep::{par_sweep, sweep_threads};

use eclipse_media::encoder::{EncodeStats, Encoder, EncoderConfig};
use eclipse_media::source::{SourceConfig, SyntheticSource};
use eclipse_media::stream::GopConfig;
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::sync::{Arc, Mutex, OnceLock};

/// A standard test stream: resolution, GOP, content parameters.
#[derive(Debug, Clone, Copy)]
pub struct StreamSpec {
    /// Luma width.
    pub width: usize,
    /// Luma height.
    pub height: usize,
    /// Frame count.
    pub frames: u16,
    /// GOP structure.
    pub gop: GopConfig,
    /// Quantizer scale.
    pub qscale: u8,
    /// Content complexity 0..1.
    pub complexity: f64,
    /// Content motion in pixels/frame.
    pub motion: f64,
    /// Generator seed.
    pub seed: u64,
}

impl StreamSpec {
    /// The workhorse experiment stream: QCIF-sized (99 macroblocks — big
    /// enough for realistic buffer dynamics, small enough to simulate a
    /// full GOP quickly), classic IPBBPBB GOP.
    pub fn qcif() -> Self {
        StreamSpec {
            width: 176,
            height: 144,
            frames: 15,
            gop: GopConfig { n: 12, m: 3 },
            qscale: 6,
            complexity: 0.5,
            motion: 2.0,
            seed: 0xEC11,
        }
    }

    /// A small, fast variant for sweeps with many configurations.
    pub fn tiny() -> Self {
        StreamSpec {
            width: 64,
            height: 48,
            frames: 8,
            ..Self::qcif()
        }
    }

    /// The scheduler's encode+decode mix and QoS stream: 6 QCIF frames,
    /// GOP n=6 m=3.
    pub fn mix() -> Self {
        StreamSpec {
            frames: 6,
            gop: GopConfig { n: 6, m: 3 },
            ..Self::qcif()
        }
    }

    /// Generate the source frames.
    pub fn source_frames(&self) -> Vec<eclipse_media::Frame> {
        SyntheticSource::new(SourceConfig {
            width: self.width,
            height: self.height,
            complexity: self.complexity,
            motion: self.motion,
            seed: self.seed,
        })
        .frames(self.frames)
    }

    /// Encode the source into an elementary stream. Encoding is a pure
    /// function of the spec, so each distinct spec is encoded once per
    /// process; later calls, from any thread, get a copy.
    pub fn encode(&self) -> (Vec<u8>, EncodeStats) {
        type Cache = Mutex<HashMap<[u64; 9], Arc<OnceLock<(Vec<u8>, EncodeStats)>>>>;
        static CACHE: OnceLock<Cache> = OnceLock::new();
        let key = [
            self.width as u64,
            self.height as u64,
            self.frames as u64,
            self.gop.n as u64,
            self.gop.m as u64,
            self.qscale as u64,
            self.complexity.to_bits(),
            self.motion.to_bits(),
            self.seed,
        ];
        let cell = Arc::clone(
            CACHE
                .get_or_init(Default::default)
                .lock()
                .expect("no thread panics while holding the encode cache lock")
                .entry(key)
                .or_default(),
        );
        cell.get_or_init(|| self.encode_uncached()).clone()
    }

    fn encode_uncached(&self) -> (Vec<u8>, EncodeStats) {
        let enc = Encoder::new(EncoderConfig {
            width: self.width,
            height: self.height,
            qscale: self.qscale,
            gop: self.gop,
            search_range: 15,
        });
        enc.encode(&self.source_frames())
    }

    /// Macroblocks per frame.
    pub fn mbs_per_frame(&self) -> u32 {
        (self.width as u32 / 16) * (self.height as u32 / 16)
    }
}

/// Render a markdown-ish table: header row + separator + rows.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            line.push_str(&format!(
                " {:<w$} |",
                c,
                w = widths.get(i).copied().unwrap_or(c.len())
            ));
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    out.push('|');
    for w in &widths {
        out.push_str(&format!("{}|", "-".repeat(w + 2)));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Write experiment output under `results/` (created on demand) and echo
/// the path.
pub fn save_result(name: &str, contents: &str) {
    stream_result(name, |w| w.write_all(contents.as_bytes()));
}

/// Stream experiment output into `results/<name>` (created on demand)
/// through a buffered writer, and echo the path: for exports too large
/// to build in memory first.
pub fn stream_result(name: &str, write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>) {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(name);
    let mut out = BufWriter::new(File::create(&path).expect("create result"));
    write(&mut out)
        .and_then(|()| out.flush())
        .expect("write result");
    println!("[saved {}]", path.display());
}

/// This process's peak resident set in KiB, from the `VmHWM` line of
/// `/proc/self/status`.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

/// Print [`peak_rss_kib`] as the line `peak resident set (VmHWM): N kB`
/// on stdout. It depends on the host, so a binary prints it and never
/// writes it into a `results/` file; CI parses the line and bounds it.
pub fn print_peak_rss() {
    match peak_rss_kib() {
        Some(kib) => println!("peak resident set (VmHWM): {kib} kB"),
        None => println!("peak resident set (VmHWM): unknown"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qcif_spec_encodes() {
        let spec = StreamSpec {
            frames: 2,
            ..StreamSpec::tiny()
        };
        let (bytes, stats) = spec.encode();
        assert!(!bytes.is_empty());
        assert_eq!(stats.pictures.len(), 2);
    }

    #[test]
    fn table_renders_aligned() {
        let t = table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "2".into()],
            ],
        );
        assert!(t.contains("| name      | value |") || t.contains("| name"));
        assert_eq!(t.lines().count(), 4);
    }

    /// The software encoder's output bytes, pinned by FNV-1a hash: the
    /// two workhorse specs, and the time-shift mix's range-8 stream (9
    /// QCIF frames, GOP n=9 m=3). Any slip in the motion kernels changes
    /// the chosen vectors and fails here by name.
    #[test]
    fn encoder_output_bytes_are_pinned() {
        use eclipse_sim::snapshot::fnv1a_64;
        let timeshift = StreamSpec {
            frames: 9,
            gop: GopConfig { n: 9, m: 3 },
            ..StreamSpec::qcif()
        };
        let range8 = Encoder::new(EncoderConfig {
            width: timeshift.width,
            height: timeshift.height,
            qscale: timeshift.qscale,
            gop: timeshift.gop,
            search_range: 8,
        })
        .encode(&timeshift.source_frames())
        .0;
        let hashes = [
            fnv1a_64(&StreamSpec::qcif().encode().0),
            fnv1a_64(&StreamSpec::tiny().encode().0),
            fnv1a_64(&range8),
        ];
        assert_eq!(
            hashes,
            [
                0xa8de_7a83_1204_0a03,
                0x8c33_7ae9_b2d9_bfd3,
                0x1cae_9626_42d2_bcae
            ]
        );
    }
}
