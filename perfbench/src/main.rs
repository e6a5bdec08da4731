//! `perfbench` — the simdsim benchmark.
//!
//! ```console
//! $ cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!       --workload replay --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload (`replay` or `fleet_cold`), checks
//! every simulated result, and prints a human-readable report followed by
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}`.  With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run also times each layer and the metrics are the per-layer ones plus
//! the traced run's own end-to-end figures (`traced.*`).  Exits 0 only
//! when every output check and workload self-check passed.  See
//! `perfbench/NOTES.md` for the workloads, the metrics and the host
//! noise the aggregation is designed around.

mod gen;
mod golden;
mod host;
mod layers;
mod replay;
mod service;
mod stats;
mod trace;

use serde::Value;
use stats::Tail;
use std::path::PathBuf;
use std::time::Duration;

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("job_p50_ms", "ms", "lower"),
    ("job_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

const USAGE: &str =
    "usage: perfbench --workload replay|fleet_cold [--seed N] [--seconds S] [--trace 0|1]";

/// What a run was asked to do.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed; every generated input is a pure function of it.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Run the per-layer probes and report per-layer metrics.
    pub trace: bool,
    /// Scratch directory for result stores (removed when the run ends).
    pub work: PathBuf,
}

/// A workload's end-to-end figures.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Median set-up time over the run's set-up repetitions.
    pub setup_s: f64,
    /// Completed jobs per second of timed wall time (a job is one cell
    /// on `replay`, one sweep on the service workloads).
    pub jobs_per_s: f64,
    /// Median job latency.
    pub job_p50_ms: f64,
    /// Tail job latency, with its percentile and sample count.
    pub job_tail: Tail,
    /// Peak resident set of the benchmark process.
    pub peak_rss_mb: f64,
    /// Freshly simulated instructions per second of timed wall time.
    pub sim_mips: f64,
    /// Wall time of the timed unit of work, when it has one (the grid
    /// replay).
    pub wall_s: Option<f64>,
}

impl EndToEnd {
    fn value(&self, name: &str) -> f64 {
        match name {
            "setup_s" => self.setup_s,
            "jobs_per_s" => self.jobs_per_s,
            "job_p50_ms" => self.job_p50_ms,
            "job_tail_ms" => self.job_tail.value,
            "peak_rss_mb" => self.peak_rss_mb,
            "sim_mips" => self.sim_mips,
            other => unreachable!("no end-to-end metric `{other}`"),
        }
    }
}

/// Everything one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Jobs (cells on `replay`) whose output was checked.
    pub attempted: u64,
    /// Of those, jobs that failed or whose output mismatched.
    pub failed: u64,
    /// Workload self-checks: (description, passed).
    pub checks: Vec<(String, bool)>,
    /// End-to-end figures.
    pub e2e: EndToEnd,
    /// Per-layer figures (filled in traced runs).
    pub layers: layers::Layers,
    /// The spans the per-layer figures were reduced from (traced runs).
    pub spans: trace::Spans,
    /// Extra human-readable report lines.
    pub notes: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20u64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let num = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got `{v}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = num(value()?)?,
            "--seconds" => seconds = num(value()?)?.max(1),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace expects 0 or 1, got `{v}`")),
                }
            }
            other => return Err(format!("unknown option `{other}`\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let base =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let work = base.join(format!("perfbench-{}-{workload}", std::process::id()));
    Ok((
        workload,
        Opts {
            seed,
            seconds: Duration::from_secs(seconds),
            trace,
            work,
        },
    ))
}

fn metric(value: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("value".to_owned(), Value::Float(value)),
        ("unit".to_owned(), Value::Str(unit.to_owned())),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(2);
        }
    };
    let host = host::Fingerprint::probe();
    println!(
        "# host cpu=\"{}\" nproc={} rustc=\"{}\" git={} seed={} workload={workload} seconds={} trace={}",
        host.cpu,
        host.nproc,
        host.rustc,
        host.git_rev,
        opts.seed,
        opts.seconds.as_secs(),
        u8::from(opts.trace)
    );
    let result = match workload.as_str() {
        "replay" => replay::run(&opts),
        "fleet_cold" => service::run(&opts),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    let _ = std::fs::remove_dir_all(&opts.work);
    let out = match result {
        Ok(out) => out,
        Err(msg) => {
            eprintln!("perfbench: {workload}: {msg}");
            std::process::exit(1);
        }
    };

    for line in &out.notes {
        println!("# {line}");
    }
    for (check, ok) in &out.checks {
        println!("# check {}: {check}", if *ok { "ok" } else { "FAILED" });
    }
    let e = &out.e2e;
    let tail = &e.job_tail;
    println!(
        "# {}end-to-end: setup_s={:.4} s  jobs_per_s={:.3} 1/s  job_p50_ms={:.3} ms  \
         job_tail_ms={:.3} ms (p{:.1} of n={} x{} windows)  peak_rss_mb={:.1} MB  \
         sim_mips={:.3} Minstr/s{}",
        if opts.trace { "traced " } else { "" },
        e.setup_s,
        e.jobs_per_s,
        e.job_p50_ms,
        tail.value,
        tail.p,
        tail.n,
        tail.windows,
        e.peak_rss_mb,
        e.sim_mips,
        e.wall_s
            .map_or_else(String::new, |w| format!("  wall_s={w:.4} s")),
    );

    for (name, ns) in out.spans.iter() {
        println!(
            "# span {name}: n={} median={:.3} us total={:.3} ms",
            ns.len(),
            stats::median(ns).unwrap_or(0.0) / 1.0e3,
            ns.iter().sum::<f64>() / 1.0e6
        );
    }
    let mut metrics = Vec::new();
    if opts.trace {
        for (name, unit, _) in layers::PER_LAYER {
            let value = match name.strip_prefix("traced.") {
                Some(e2e) => e.value(e2e),
                None => out.layers.get(name).copied().unwrap_or(0.0),
            };
            println!("# layer {name} = {value:.4} {unit}");
            metrics.push(((*name).to_owned(), metric(value, unit)));
        }
    } else {
        for (name, unit, _) in END_TO_END {
            metrics.push(((*name).to_owned(), metric(e.value(name), unit)));
        }
    }
    let correct = out.failed == 0 && out.checks.iter().all(|(_, ok)| *ok);
    let line = Value::Object(vec![
        ("correct".to_owned(), Value::Bool(correct)),
        ("attempted".to_owned(), Value::UInt(out.attempted)),
        ("failed".to_owned(), Value::UInt(out.failed)),
        ("metrics".to_owned(), Value::Object(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).expect("the result line serializes")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the metrics this binary prints must name the
    /// same metrics with the same units and directions.
    #[test]
    fn benchmark_manifest_lists_exactly_the_printed_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let doc: Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String)> {
            let Some(Value::Array(items)) = doc.get(key) else {
                panic!("BENCHMARK.json has no `{key}` list");
            };
            items
                .iter()
                .map(|m| {
                    let s = |k: &str| match m.get(k) {
                        Some(Value::Str(s)) => s.clone(),
                        _ => panic!("{key} entry without `{k}`"),
                    };
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            list.iter()
                .map(|(n, u, b)| ((*n).to_owned(), (*u).to_owned(), (*b).to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(layers::PER_LAYER));
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let (w, o) = parse_args(&args("--workload replay --seed 9 --seconds 3 --trace 1"))
            .expect("valid arguments");
        assert_eq!(
            (w.as_str(), o.seed, o.seconds.as_secs(), o.trace),
            ("replay", 9, 3, true)
        );
        assert!(parse_args(&args("--seed 1")).is_err());
        assert!(parse_args(&args("--workload replay --trace 2")).is_err());
        assert!(parse_args(&args("--workload replay --seed x")).is_err());
    }
}
