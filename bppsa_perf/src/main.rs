//! BPPSA-vs-BP benchmark.
//!
//! ```text
//! bppsa-perf --workload <rnn_train|ssm_long|pruned_cnn|serve_mixed>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures and prints the end-to-end metrics; `--trace 1` is a
//! separate run that records spans around every call into a library layer,
//! prints the per-layer metrics and writes the spans to
//! `bppsa_perf/out/trace-<workload>-<seed>.jsonl`. The last line of
//! standard output is the result object; lines before it starting with `#`
//! are the environment record and explanatory figures. Exits non-zero when
//! a correctness check fails.

mod clock;
mod report;
mod serve;
mod stats;
mod trace;
mod train;

use report::{Report, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

const WORKLOADS: &[&str] = &["rnn_train", "ssm_long", "pruned_cnn", "serve_mixed"];
/// Span buffer size for the traced run (a serving run records two spans
/// per request).
const TRACE_CAPACITY: usize = 1 << 18;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds {s} outside (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set size of this process image in MiB: `VmHWM` from
/// `/proc/self/status`. (`getrusage`'s `ru_maxrss` also keeps the peak of
/// the image before `exec`: under `cargo run` that is cargo's own, larger
/// than a small workload's.)
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// The commit of the checkout the benchmark runs in (it runs from the repo
/// root), or "unknown" outside a git repository.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn print_env(args: &Args) {
    let parallelism = std::thread::available_parallelism().map_or(0, |p| p.get());
    println!(
        "# env {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"available_parallelism\": {parallelism}, \"scan.pool_workers\": {}, \"commit\": \"{}\", \"rustc\": \"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        bppsa_scan::global_pool().size(),
        commit(),
        env!("BPPSA_PERF_RUSTC"),
    );
    if args.workload == "serve_mixed" {
        println!("# serve config {:?}", serve::config());
    }
}

/// Estimated share of the traced run spent recording spans: the measured
/// cost of one begin/end pair times the spans recorded, over the run.
fn trace_overhead(spans: usize, traced_s: f64) -> f64 {
    let mut probe = Tracer::new(4096);
    let t0 = Instant::now();
    for i in 0..2048u64 {
        let s = probe.begin("probe", i);
        probe.end(s);
    }
    let per_span_s = t0.elapsed().as_secs_f64() / 2048.0;
    per_span_s * spans as f64 / traced_s
}

fn run(args: &Args, tracer: Option<&mut Tracer>, report: &mut Report) {
    match args.workload.as_str() {
        "rnn_train" => {
            let mut t = train::timed_setup(report, || train::rnn_trainer(args.seed));
            train::run(&mut t, args.seconds, tracer, report);
        }
        "ssm_long" => {
            let mut t = train::timed_setup(report, || train::ssm_trainer(args.seed));
            train::run(&mut t, args.seconds, tracer, report);
        }
        "pruned_cnn" => {
            let mut t = train::timed_setup(report, || train::cnn_trainer(args.seed));
            train::run(&mut t, args.seconds, tracer, report);
        }
        "serve_mixed" => {
            let mut s = train::timed_setup(report, || serve::setup(args.seed));
            serve::run(&mut s, args.seed, args.seconds, tracer, report);
        }
        _ => unreachable!("workload validated in parse_args"),
    }
}

fn write_trace(args: &Args, tracer: &Tracer) -> std::io::Result<String> {
    let dir = std::path::Path::new("bppsa_perf").join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    tracer.write_jsonl(&mut out)?;
    std::io::Write::flush(&mut out)?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bppsa-perf: {e}");
            return ExitCode::from(2);
        }
    };
    print_env(&args);
    let mut report = Report::default();
    let catalogue = if args.trace {
        let mut tracer = Tracer::new(TRACE_CAPACITY);
        let t0 = Instant::now();
        run(&args, Some(&mut tracer), &mut report);
        let traced_s = t0.elapsed().as_secs_f64();
        report.set(
            "trace.overhead_frac",
            trace_overhead(tracer.spans().len(), traced_s),
        );
        report.set("scan.pool_workers", bppsa_scan::global_pool().size() as f64);
        if tracer.dropped > 0 {
            println!("# span buffer full: {} spans dropped", tracer.dropped);
        }
        match write_trace(&args, &tracer) {
            Ok(path) => println!("# wrote {} spans to {path}", tracer.spans().len()),
            Err(e) => {
                eprintln!("bppsa-perf: writing the trace failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        // Layers this workload does not exercise read 0.
        for &(name, _) in PER_LAYER {
            if report.get(name).is_none() {
                report.set(name, 0.0);
            }
        }
        PER_LAYER
    } else {
        run(&args, None, &mut report);
        report.set("peak_rss_mb", peak_rss_mb());
        END_TO_END
    };
    match report.result_line(catalogue) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("bppsa-perf: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.incorrect || report.failed > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
