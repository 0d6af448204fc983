//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cad_swap|fleet_real|fleet_model> --seed N --seconds S --trace <0|1> [--smoke]
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --manifest <benchmark|ledger>
//! ```
//!
//! A run sets up the workload from its seed, measures for `--seconds`,
//! checks every output, prints each metric with its unit and clock
//! domain, a provenance line, and as its last line one JSON object: the
//! end-to-end metrics with `--trace 0`, the per-layer ledger with
//! `--trace 1`. A traced run also writes its spans as JSON lines under
//! `.bench_out/`. `--smoke` shrinks every input to its minimum.
//! `--manifest` prints `BENCHMARK.json` or `perfbench/manifest.json`.

mod cad_swap;
mod catalog;
mod fleet_model;
mod fleet_real;
mod ledger;

use catalog::{Kind, METRICS};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

enum Command {
    Run(Args),
    /// Print `BENCHMARK.json` or `manifest.json`.
    Manifest(String),
}

fn parse_args() -> Result<Command, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--manifest" => {
                return match value()?.as_str() {
                    "benchmark" => Ok(Command::Manifest(catalog::benchmark_json())),
                    "ledger" => Ok(Command::Manifest(catalog::manifest_json())),
                    other => Err(format!(
                        "--manifest takes benchmark or ledger, not {other:?}"
                    )),
                }
            }
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !catalog::WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Command::Run(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(catalog::RUN_SECONDS as f64),
        trace: trace.unwrap_or(false),
        smoke,
    }))
}

/// Civil UTC date of the current time (days-from-epoch conversion).
fn utc_date() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// The commit checked out in the working directory, if it is a git
/// work tree.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return head.trim().to_string();
    };
    read(reference)
        .map(|r| r.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Command::Run(args)) => args,
        Ok(Command::Manifest(manifest)) => {
            print!("{manifest}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = ledger::Tracer::new();
    let run = match args.workload.as_str() {
        "cad_swap" => cad_swap::run,
        "fleet_real" => fleet_real::run,
        _ => fleet_model::run,
    };
    let mut m = match run(args.seed, args.seconds, args.trace, args.smoke, &mut tracer) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    // Every metric of the catalogue, measured or reading 0 off-path.
    let mut rows = Vec::new();
    for def in METRICS {
        let on_path = def.workloads.contains(&args.workload.as_str());
        let measured = m
            .values
            .iter()
            .find(|(n, _)| *n == def.name)
            .map(|&(_, v)| v);
        let required = on_path && (args.trace || def.kind != Kind::Layer);
        if required && measured.is_none() {
            m.problems.push(format!("{} was not measured", def.name));
        }
        let note = match (on_path, measured) {
            (false, _) => "  (not on this workload's path)",
            (true, None) => "  (measured by the traced run)",
            (true, Some(_)) => "",
        };
        let value = measured.unwrap_or(0.0);
        if !value.is_finite() {
            m.problems.push(format!("{} is not finite", def.name));
        }
        rows.push((def, if value.is_finite() { value } else { 0.0 }, note));
    }

    println!(
        "{:<32} {:>16} {:<6} {:<9}",
        "metric", "value", "unit", "clock"
    );
    for (def, value, note) in &rows {
        println!(
            "{:<32} {:>16.6} {:<6} {:<9}{note}",
            def.name, value, def.unit, def.clock
        );
    }
    for p in &m.problems {
        println!("CHECK FAILED: {p}");
    }
    if args.trace {
        let path = format!(".bench_out/spans-{}-{}.jsonl", args.workload, args.seed);
        let written = std::fs::create_dir_all(".bench_out")
            .and_then(|()| std::fs::write(&path, tracer.jsonl()));
        if let Err(e) = written {
            eprintln!("perfbench: could not write {path}: {e}");
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "provenance {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \"passes\": {}, \"nproc\": {nproc}, \"workers\": {}, \"git_rev\": \"{}\", \"date\": \"{}\", \"rustc\": \"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        args.smoke,
        m.passes,
        m.workers,
        git_rev(),
        utc_date(),
        env!("PERFBENCH_RUSTC"),
    );

    let want = |def: &catalog::MetricDef| (def.kind == Kind::Layer) == args.trace;
    let metrics: Vec<String> = rows
        .iter()
        .filter(|(def, _, _)| want(def))
        .map(|(def, value, _)| {
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            )
        })
        .collect();
    let correct = m.problems.is_empty() && m.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.attempted.max(1),
        m.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
