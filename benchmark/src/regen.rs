//! `results_regen`: regenerate every deterministic `results/` file with
//! the experiment binaries, in a fresh work directory inside the
//! checkout, and compare each file byte for byte with the committed one.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::layers::Values;
use crate::stats::{median, wait_child, ChildUsage};

/// One experiment-binary invocation and the `results/` files it writes.
pub struct Invocation {
    pub bin: &'static str,
    pub args: &'static [&'static str],
    pub outputs: &'static [&'static str],
}

impl Invocation {
    /// Its per-layer metric name, e.g. `regen.chaos_soak--quick_s`.
    pub fn metric(&self) -> String {
        format!("regen.{}{}_s", self.bin, self.args.concat())
    }

    fn quick(&self) -> bool {
        self.args.contains(&"--quick")
    }
}

const fn inv(
    bin: &'static str,
    args: &'static [&'static str],
    outputs: &'static [&'static str],
) -> Invocation {
    Invocation { bin, args, outputs }
}

/// Runs of each invocation per pass; the pass counts the cheapest.
const REPEATS: usize = 2;

/// Every committed `results/` file except `scaling_study.txt` (whose
/// engine ROADMAP deletes), with the invocation that writes it.
pub const SUITE: [Invocation; 26] = [
    inv("chaos_soak", &[], &["chaos_soak.txt"]),
    inv("chaos_soak", &["--quick"], &["chaos_soak_quick.txt"]),
    inv(
        "chaos_soak",
        &["--supervised"],
        &["chaos_soak_supervised.txt"],
    ),
    inv(
        "chaos_soak",
        &["--supervised", "--quick"],
        &["chaos_soak_supervised_quick.txt"],
    ),
    inv(
        "fig10_buffer_traces",
        &[],
        &["fig10_bottlenecks.txt", "fig10_buffer_traces.csv"],
    ),
    inv("fig9_visualization", &[], &["fig9_views.txt"]),
    inv("mapping_search", &[], &["mapping_search.txt"]),
    inv("snapshot_smoke", &[], &["snapshot_smoke.txt"]),
    inv(
        "snapshot_smoke",
        &["--quick"],
        &["snapshot_smoke_quick.txt"],
    ),
    inv("sweep_bus", &[], &["sweep_bus.txt"]),
    inv("sweep_cache", &[], &["sweep_cache.txt"]),
    inv("sweep_coupling", &[], &["sweep_coupling.txt"]),
    inv("sweep_fabric", &[], &["sweep_fabric.txt"]),
    inv("sweep_reconfig", &[], &["sweep_reconfig.txt"]),
    inv(
        "sweep_reconfig",
        &["--quick"],
        &["sweep_reconfig_quick.txt"],
    ),
    inv("sweep_scalability", &[], &["sweep_scalability.txt"]),
    inv("sweep_scenarios", &[], &["sweep_scenarios.txt"]),
    inv(
        "sweep_scenarios",
        &["--quick"],
        &["sweep_scenarios_quick.txt"],
    ),
    inv("sweep_scheduler", &[], &["sweep_scheduler.txt"]),
    inv("tab_app_mixes", &[], &["tab_app_mixes.txt"]),
    inv("tab_coherency", &[], &["tab_coherency.txt"]),
    inv("tab_granularity", &[], &["tab_granularity.txt"]),
    inv("tab_instance_model", &[], &["tab_instance_model.txt"]),
    inv("tab_load_irregularity", &[], &["tab_load_irregularity.txt"]),
    inv("timing_fingerprint", &[], &["timing_fingerprint.txt"]),
    inv("trace_decode", &[], &["trace_decode_summary.txt"]),
];

/// Compares the files `inv` wrote (read through `read`) with the
/// committed ones.
pub fn check_outputs(
    inv: &Invocation,
    expected: &BTreeMap<String, Vec<u8>>,
    read: impl Fn(&str) -> std::io::Result<Vec<u8>>,
) -> Result<(), String> {
    for &name in inv.outputs {
        let got = read(name).map_err(|e| format!("{name}: not written ({e})"))?;
        if expected.get(name) != Some(&got) {
            return Err(format!("{name}: differs from the committed file"));
        }
    }
    Ok(())
}

/// A set-up results regeneration.
pub struct Regen {
    /// Directory holding the experiment binaries (beside this one).
    bins: PathBuf,
    work: PathBuf,
    expected: BTreeMap<String, Vec<u8>>,
    suite: Vec<&'static Invocation>,
}

/// The outcome of one or more passes over the suite.
pub struct Passes {
    /// CPU milliseconds of each pass: the sum over its invocations of
    /// each one's cheapest run.
    pub cpu_ms: Vec<f64>,
    /// Wall-clock milliseconds of each pass.
    pub wall_ms: Vec<f64>,
    /// CPU seconds of each invocation's cheapest run, per pass, in suite
    /// order.
    pub per_invocation_s: Vec<Vec<f64>>,
    pub peak_rss_mib: f64,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    pub files_checked: usize,
}

impl Regen {
    /// Brings the experiment binaries up to date (a no-op cargo build
    /// once built), loads the committed files and makes an empty work
    /// directory. `quick` keeps only the `--quick` invocations. Also
    /// returns the CPU seconds the build check took.
    pub fn set_up(quick: bool) -> Result<(Regen, f64), String> {
        let cargo = Command::new("cargo")
            .args(["build", "--release", "--offline", "--quiet"])
            .args(["-p", "eclipse-bench", "--bins"])
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        let build = wait_child(cargo);
        if !build.ok {
            return Err("building the experiment binaries failed".into());
        }
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let bins = exe.parent().ok_or("benchmark binary has no directory")?;
        let suite: Vec<_> = SUITE.iter().filter(|i| !quick || i.quick()).collect();
        let mut expected = BTreeMap::new();
        for inv in &suite {
            if !bins.join(inv.bin).is_file() {
                return Err(format!("experiment binary {} not built", inv.bin));
            }
            for &name in inv.outputs {
                let bytes = std::fs::read(Path::new("results").join(name))
                    .map_err(|e| format!("committed results/{name}: {e}"))?;
                expected.insert(name.to_string(), bytes);
            }
        }
        let work = PathBuf::from(".bench_work").join(format!("regen-{}", std::process::id()));
        fresh_dir(&work)?;
        let regen = Regen {
            bins: bins.to_path_buf(),
            work,
            expected,
            suite,
        };
        Ok((regen, build.cpu_s))
    }

    /// Runs whole passes until `budget` has passed (at least one pass).
    /// A pass runs each invocation [`REPEATS`] times back to back, checks
    /// every run, and takes the least CPU time of each invocation: on a
    /// shared host a noisy stretch rarely covers both runs.
    pub fn run(&self, budget: Duration) -> Result<Passes, String> {
        let mut p = Passes {
            cpu_ms: Vec::new(),
            wall_ms: Vec::new(),
            per_invocation_s: vec![Vec::new(); self.suite.len()],
            peak_rss_mib: 0.0,
            attempted: 0,
            failed: 0,
            first_error: None,
            files_checked: self.expected.len(),
        };
        let start = Instant::now();
        while p.cpu_ms.is_empty() || start.elapsed() < budget {
            fresh_dir(&self.work.join("results"))?;
            let mut cpu_s = 0.0;
            let t = Instant::now();
            for (i, inv) in self.suite.iter().enumerate() {
                let mut best = f64::INFINITY;
                for _ in 0..REPEATS {
                    let (used, checked) = self.invoke(inv)?;
                    best = best.min(used.cpu_s);
                    p.peak_rss_mib = p.peak_rss_mib.max(used.peak_rss_mib);
                    p.attempted += 1;
                    if let Err(e) = checked {
                        p.failed += 1;
                        p.first_error.get_or_insert(e);
                    }
                }
                p.per_invocation_s[i].push(best);
                cpu_s += best;
            }
            p.wall_ms.push(t.elapsed().as_secs_f64() * 1e3);
            p.cpu_ms.push(cpu_s * 1e3);
        }
        Ok(p)
    }

    /// Runs `inv` once, after removing the files it must write, and checks
    /// what it wrote.
    fn invoke(&self, inv: &Invocation) -> Result<(ChildUsage, Result<(), String>), String> {
        let results = self.work.join("results");
        for name in inv.outputs {
            let _ = std::fs::remove_file(results.join(name));
        }
        let child = Command::new(self.bins.join(inv.bin))
            .args(inv.args)
            .current_dir(&self.work)
            .env("ECLIPSE_SWEEP_THREADS", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", inv.bin))?;
        let used = wait_child(child);
        let checked = if used.ok {
            check_outputs(inv, &self.expected, |name| {
                std::fs::read(results.join(name))
            })
        } else {
            Err(format!("{} {} failed", inv.bin, inv.args.join(" ")))
        };
        Ok((used, checked))
    }

    /// Per-layer metrics: each invocation's CPU seconds (the least of its
    /// runs, median over passes).
    pub fn layer_metrics(&self, p: &Passes) -> Values {
        let mut m: Values = self
            .suite
            .iter()
            .zip(&p.per_invocation_s)
            .map(|(inv, s)| (inv.metric(), median(s)))
            .collect();
        m.push(("regen.files_checked".into(), p.files_checked as f64));
        m
    }
}

impl Drop for Regen {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
        // Removes the parent too when no other run is using it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_corrupted_file_fails_its_invocation() {
        let inv = &SUITE[4];
        let expected: BTreeMap<String, Vec<u8>> = inv
            .outputs
            .iter()
            .map(|&n| (n.to_string(), format!("contents of {n}\n").into_bytes()))
            .collect();
        let read_back = |name: &str| Ok(expected[name].clone());
        assert_eq!(check_outputs(inv, &expected, read_back), Ok(()));
        let corrupted = |name: &str| {
            let mut bytes = expected[name].clone();
            if name == inv.outputs[1] {
                bytes[3] ^= 1;
            }
            Ok(bytes)
        };
        assert!(check_outputs(inv, &expected, corrupted).is_err());
        let missing = |_: &str| Err(std::io::ErrorKind::NotFound.into());
        assert!(check_outputs(inv, &expected, missing).is_err());
    }

    #[test]
    fn suite_covers_every_committed_result_but_the_scaling_study() {
        let mut listed: Vec<&str> = SUITE
            .iter()
            .flat_map(|i| i.outputs.iter().copied())
            .collect();
        listed.sort_unstable();
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../results");
        let mut committed: Vec<String> = std::fs::read_dir(results)
            .expect("results/ exists")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .into_string()
                    .expect("utf-8")
            })
            .filter(|n| {
                n != "scaling_study.txt"
                    && !n.ends_with(".json")
                    && n != "trace_decode_qcif.csv"
                    && n != "replay_trace.csv"
            })
            .collect();
        committed.sort_unstable();
        assert_eq!(listed, committed);
    }
}
