//! End-to-end benchmark of `dacd` and the `ctsdac` sizing flow.
//!
//! ```text
//! e2ebench --workload hit-heavy|miss-compute|flow-batch --seed N
//!          --seconds S --trace 0|1 --dacd PATH --work-dir DIR
//! ```
//!
//! Prints one JSON line (last on stdout) with `correct`, `attempted`,
//! `failed` and the metrics: the end-to-end set with `--trace 0`, the
//! per-layer set with `--trace 1`. A traced run first repeats the
//! untraced run, so its `trace.overhead_ratio` compares the two. See
//! `README.md` beside this crate for the metric and workload definitions.

mod daemon;
mod flow;
mod inputs;
mod layers;
mod loadgen;
mod report;
mod service;
mod stats;
mod trace;

use report::Run;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// Workload names, as `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["hit-heavy", "miss-compute", "flow-batch"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    dacd: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut dacd = None;
    let mut work_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = value == "1",
            "--dacd" => dacd = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s: &f64| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace,
        dacd: dacd.ok_or("--dacd is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

fn run_workload(a: &Args, tr: &mut Tracer) -> Result<Run, String> {
    match a.workload.as_str() {
        "flow-batch" => flow::run(&a.work_dir, a.seed, a.seconds, tr),
        name => service::run(name, &a.dacd, &a.work_dir, a.seed, a.seconds, tr),
    }
}

fn main_inner() -> Result<String, String> {
    let a = parse_args()?;
    std::fs::create_dir_all(&a.work_dir).map_err(|e| format!("{}: {e}", a.work_dir.display()))?;
    let base = run_workload(&a, &mut Tracer::new(false))?;
    if !a.trace {
        return report::render(&base, false);
    }
    let mut tr = Tracer::new(true);
    let cpu_before = daemon::cpu_times()?;
    let mut traced = run_workload(&a, &mut tr)?;
    let steal = daemon::steal_ratio(&cpu_before, &daemon::cpu_times()?);
    let path = a
        .work_dir
        .join(format!("trace-{}-{}.json", a.workload, a.seed));
    tr.write_json(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("e2ebench: {} spans written to {}", tr.len(), path.display());

    let p50 = |r: &Run| r.metrics.e2e_value("p50_ms").unwrap_or(f64::NAN);
    traced.attempted += base.attempted;
    traced.failed += base.failed;
    traced.correct &= base.correct;
    let error_ratio = traced.failed as f64 / traced.attempted.max(1) as f64;
    let overhead = p50(&traced) / p50(&base);
    let m = &mut traced.metrics;
    m.layer("error_ratio", error_ratio, "ratio");
    m.layer("trace.spans", tr.len() as f64, "count");
    m.layer("trace.overhead_ratio", overhead, "ratio");
    m.layer("host.steal_ratio", steal, "ratio");
    report::render(&traced, true)
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
