//! Host-performance benchmark of the Eclipse simulator: end-to-end times
//! of five correctness-checked workloads, and a traced pass that splits
//! the in-process ones by layer. See README.md for the workloads, the
//! metrics and how to read them.
//!
//! Usage (from the repository root, after `bash benchmark/run.sh` built it):
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!           [--quick] [--json PATH]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`.

mod inputs;
mod layers;
mod regen;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use workloads::{
    measure, set_up, CheckpointFork, PipelineSync, QcifDecode, TimeshiftMix, Workload,
};

const USAGE: &str = "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
                     [--quick] [--json PATH]\n  workloads: qcif_decode pipeline_sync \
                     timeshift_mix checkpoint_fork results_regen";

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 5;
/// Fewest timed ops of an in-process run: the printed p75 then has at
/// least 10 samples above it.
const MIN_OPS: u64 = 40;
/// Calibration drift beyond which a run is marked noisy.
const NOISY_DRIFT_PCT: f64 = 10.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    json: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: inputs::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        quick: false,
        json: None,
    };
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            a.quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => {
                a.seed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16).map_err(|_| bad())?,
                    None => value.parse().map_err(|_| bad())?,
                }
            }
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad())?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--json" => a.json = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

/// What one run measured.
struct Report {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    /// `(name, value, unit)` in the order `BENCHMARK.json` lists them.
    metrics: Vec<(String, f64, &'static str)>,
}

/// The end-to-end metrics, shared by every workload.
fn end_to_end(
    op_ms: &[f64],
    peak_rss_mib: f64,
    setup_s: &[f64],
) -> Vec<(String, f64, &'static str)> {
    vec![
        (
            "op_ms_p10".into(),
            stats::percentile(op_ms, 10.0).unwrap_or(0.0),
            "ms",
        ),
        ("peak_rss_mib".into(), peak_rss_mib, "MiB"),
        ("setup_s".into(), stats::median(setup_s), "s"),
    ]
}

/// The op-time distribution, printed for reading beside the metrics.
fn print_op_times(what: &str, cpu_ms: &[f64], wall_ms: &[f64]) {
    let p = |q| stats::percentile(cpu_ms, q).unwrap_or(0.0);
    println!(
        "{what}: {} timed; CPU ms p10 {:.4} p50 {:.4} p75 {:.4}; wall-clock ms p50 {:.4}",
        cpu_ms.len(),
        p(10.0),
        p(50.0),
        p(75.0),
        stats::median(wall_ms)
    );
}

/// Every per-layer metric, in order, taking the values `measured`
/// reports and 0 for the layers this workload does not have.
fn per_layer(measured: layers::Values) -> Vec<(String, f64, &'static str)> {
    let names = layers::METRICS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(regen::SUITE.iter().map(|i| (i.metric(), "s")))
        .chain([("regen.files_checked".to_string(), "count")]);
    let out: Vec<_> = names
        .map(|(name, unit)| {
            let v = measured
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            (name, v, unit)
        })
        .collect();
    for (name, _) in &measured {
        assert!(
            out.iter().any(|(n, _, _)| n == name),
            "per-layer metric {name} is not declared"
        );
    }
    out
}

/// Runs `set_up` several times (once with `--quick`) and keeps the last
/// result, with each set-up's CPU seconds; `set_up` also returns the CPU
/// seconds of the child processes it ran.
fn timed_set_ups<T>(
    args: &Args,
    mut set_up: impl FnMut() -> Result<(T, f64), String>,
) -> Result<(T, Vec<f64>), String> {
    let reps = if args.quick { 1 } else { SETUP_REPS };
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        let t = stats::Span::start();
        let (r, child_cpu_s) = set_up()?;
        times.push(t.cpu_ms() / 1e3 + child_cpu_s);
        last = Some(r);
    }
    Ok((last.expect("at least one set-up"), times))
}

fn in_process<W: Workload>(args: &Args, quick_ops: u64) -> Result<Report, String> {
    let (ready, setup_s) = timed_set_ups(args, || Ok((set_up::<W>(args.seed)?, 0.0)))?;
    let budget = Duration::from_secs_f64(args.seconds);
    if args.trace {
        let (m, layer) = layers::traced(&ready, budget)?;
        return Ok(Report {
            attempted: m.attempted,
            failed: m.failed,
            first_error: m.first_error,
            metrics: per_layer(layer),
        });
    }
    let m = measure(&ready, budget, MIN_OPS, args.quick.then_some(quick_ops));
    print_op_times("ops", &m.cpu_ms, &m.wall_ms);
    Ok(Report {
        metrics: end_to_end(&m.cpu_ms, stats::peak_rss_mib(), &setup_s),
        attempted: m.attempted,
        failed: m.failed,
        first_error: m.first_error,
    })
}

fn results_regen(args: &Args) -> Result<Report, String> {
    let (regen, setup_s) = timed_set_ups(args, || regen::Regen::set_up(args.quick))?;
    let budget = if args.quick { 0.0 } else { args.seconds };
    let p = regen.run(Duration::from_secs_f64(budget))?;
    print_op_times("passes", &p.cpu_ms, &p.wall_ms);
    let metrics = if args.trace {
        per_layer(regen.layer_metrics(&p))
    } else {
        end_to_end(&p.cpu_ms, p.peak_rss_mib, &setup_s)
    };
    Ok(Report {
        attempted: p.attempted,
        failed: p.failed,
        first_error: p.first_error,
        metrics,
    })
}

/// A JSON number: every digit Rust's shortest round-trip form gives.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn result_json(r: &Report) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.failed == 0 && r.attempted > 0,
        r.attempted,
        r.failed
    );
    for (i, (name, value, unit)) in r.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
    }
    s.push_str("}}");
    s
}

fn run(args: &Args) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let calib_before = stats::calibration_ms();
    let report = match args.workload.as_str() {
        "qcif_decode" => in_process::<QcifDecode>(args, 8),
        "pipeline_sync" => in_process::<PipelineSync>(args, 10),
        "timeshift_mix" => in_process::<TimeshiftMix>(args, 3),
        "checkpoint_fork" => in_process::<CheckpointFork>(args, 7),
        "results_regen" => results_regen(args),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    }?;
    let calib_after = stats::calibration_ms();
    let drift_pct = 100.0 * (calib_after / calib_before - 1.0);
    let noisy = drift_pct.abs() > NOISY_DRIFT_PCT;

    println!(
        "workload {} seed {:#x}: host.nproc {nproc}, threads 1, calibration \
         {calib_before:.3} -> {calib_after:.3} ms, host.calib_drift_pct {drift_pct:.2}{}",
        args.workload,
        args.seed,
        if noisy { " (noisy)" } else { "" }
    );
    if let Some(e) = &report.first_error {
        println!("first failed check: {e}");
    }
    for (name, value, unit) in &report.metrics {
        println!("  {name:<44} {value:>16.4} {unit}");
    }
    let result = result_json(&report);
    if let Some(path) = &args.json {
        let line = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"quick\": {}, \
             \"host\": {{\"nproc\": {nproc}, \"threads\": 1, \"calib_drift_pct\": {}, \
             \"noisy\": {noisy}}}, \"result\": {result}}}\n",
            args.workload,
            args.seed,
            u8::from(args.trace),
            args.quick,
            num(drift_pct)
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{result}");
    Ok(())
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("benchmark: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let manifest =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let reported: Vec<String> = end_to_end(&[1.0], 1.0, &[1.0])
            .into_iter()
            .chain(per_layer(Vec::new()))
            .map(|(name, _, _)| name)
            .collect();
        for name in &reported {
            assert!(
                manifest.contains(&format!("\"name\": \"{name}\"")),
                "{name} is missing from BENCHMARK.json"
            );
        }
        let workloads = [
            "qcif_decode",
            "pipeline_sync",
            "timeshift_mix",
            "checkpoint_fork",
            "results_regen",
        ];
        assert_eq!(
            manifest.matches("\"name\": ").count(),
            reported.len() + workloads.len(),
            "BENCHMARK.json declares a metric the benchmark does not report"
        );
    }
}
