//! End-to-end benchmark of the update pipeline: plan (schedule →
//! verify → compile), submit to the sharded fabric, and run the
//! deterministic simulator to quiescence with probe traffic, all on
//! one thread.
//!
//! ```text
//! perfbench --workload <fabric_stream|probe_burst|long_routes>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats whole passes over the same generated inputs until
//! `--seconds` have elapsed. Each pass builds a fresh world (set-up),
//! runs the timed phase, then checks every update. The last line of
//! standard output is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a traced pass with
//! `--trace 1`. See `README.md` next to this crate.

mod alloc;
mod calibrate;
mod pass;
mod replay;
mod stats;
mod trace;
mod walk;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use pass::{run_pass, Pass};
use stats::median;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Passes a run makes at least, so its medians have a field.
const MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                json_number(x.value),
                x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Peak resident set of this process, in MB (from `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The deterministic figures of a pass, which must repeat exactly on
/// every pass over the same inputs, traced or not.
fn fingerprint(p: &Pass) -> (u64, u64, u64, u64, u64) {
    (
        p.committed,
        p.commit_p50_ms.to_bits(),
        p.commit_p99_ms.to_bits(),
        p.msgs,
        p.rounds,
    )
}

/// Whether every pass repeats the first plain pass's deterministic
/// figures, and every pass of a kind (plain or traced; tracing
/// allocates) the first pass's allocation count.
fn repeats(plain: &[Pass], traced: &[Pass]) -> bool {
    let same_allocs = |ps: &[Pass]| ps.iter().all(|p| p.allocs == ps[0].allocs);
    plain
        .iter()
        .chain(traced)
        .all(|p| fingerprint(p) == fingerprint(&plain[0]))
        && same_allocs(plain)
        && same_allocs(traced)
}

fn end_to_end(passes: &[Pass]) -> Vec<Metric> {
    let first = &passes[0];
    let per_update = |x: f64| x / first.committed.max(1) as f64;
    let scaled: Vec<f64> = passes.iter().map(Pass::scaled_rate).collect();
    let setup: Vec<f64> = passes.iter().map(Pass::scaled_setup_s).collect();
    vec![
        m("updates_per_s", median(&scaled).unwrap_or(0.0), "1/s"),
        m("commit_p50_ms", first.commit_p50_ms, "ms"),
        m("commit_p99_ms", first.commit_p99_ms, "ms"),
        m("msgs_per_update", per_update(first.msgs as f64), "count"),
        m(
            "rounds_per_update",
            first.rounds as f64 / first.attempted.max(1) as f64,
            "count",
        ),
        m(
            "allocs_per_update",
            per_update(first.allocs as f64),
            "count",
        ),
        m("setup_s", median(&setup).unwrap_or(0.0), "s"),
        m("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(calibrate::FLAG) {
        calibrate::serve();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload::generate(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {}; one of {}",
            args.workload,
            workload::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };

    let start = Instant::now();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    loop {
        let enough = plain.len() >= MIN_PASSES && (!args.trace || traced.len() >= MIN_PASSES);
        if enough && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        // the traced run alternates plain and traced passes, so both
        // see the same machine state and their difference is the
        // tracing overhead
        let trace_this = args.trace && traced.len() < plain.len();
        let mut p = run_pass(&w, trace_this);
        p.calibration_s = match calibrate::measure() {
            Ok(t) => t,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprintln!(
            "{} pass {}: setup {:.3} s, timed {:.3} s, calibration {:.1} ms, {} committed, {} allocs, {} failed{}",
            w.name,
            plain.len() + traced.len() + 1,
            p.setup_s,
            p.timed_s,
            p.calibration_s * 1e3,
            p.committed,
            p.allocs,
            p.failed,
            if trace_this { " (traced)" } else { "" }
        );
        if trace_this {
            traced.push(p);
        } else {
            plain.push(p);
        }
    }

    let all = plain.iter().chain(&traced);
    let attempted: u64 = all.clone().map(|p| p.attempted).sum();
    let failed: u64 = all.clone().map(|p| p.failed).sum();
    let repeats = repeats(&plain, &traced);
    if !repeats {
        eprintln!("perfbench: passes over identical inputs disagreed on a deterministic figure");
    }
    let errors: Vec<&String> = all.clone().flat_map(|p| &p.errors).collect();
    for e in errors.iter().take(20) {
        eprintln!("check failed: {e}");
    }
    if errors.len() > 20 {
        eprintln!("... and {} more failed checks", errors.len() - 20);
    }
    let correct = repeats && failed == 0;

    let metrics = if args.trace {
        pass::per_layer(&plain, &traced)
    } else {
        end_to_end(&plain)
    };
    let line = result_line(correct, attempted, failed, &metrics);
    println!("{line}");
    ExitCode::SUCCESS
}
