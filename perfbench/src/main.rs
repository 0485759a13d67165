//! The rulebases benchmark.
//!
//! ```text
//! perfbench --workload <mine-sparse|census-grow|drift-window|serve-mixed>
//!           [--seed <n>] [--seconds <s>] [--trace <0|1>] [--gen-seed <n>]
//! ```
//!
//! `--seed` shuffles the row order of the generated inputs (0 keeps it);
//! `--gen-seed` replaces the stand-in generator's own seed.
//!
//! Prints a readable report (the run's stamp, notes, and every metric by
//! name with its unit), then, as its last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones
//! from a traced pass, whose spans are written to
//! `.perfbench_out/<workload>-seed<n>.trace.jsonl`. See README.md for the
//! workloads and what each metric measures.

mod common;
mod serve;
mod shadow;
mod sparse;
mod stats;
mod stream;
mod trace;

use common::{peak_rss_mb, Run, E2E, LAYERS};
use std::fmt::Write as _;
use std::path::PathBuf;

const WORKLOADS: [&str; 4] = ["mine-sparse", "census-grow", "drift-window", "serve-mixed"];

/// Either of these swaps the program being measured.
const REFUSED_ENV: [&str; 2] = ["RULEBASES_ENGINE", "RULEBASES_PIPELINE"];

const OUT_DIR: &str = ".perfbench_out";

struct Args {
    workload: String,
    seed: u64,
    gen_seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        gen_seed: None,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--gen-seed" => args.gen_seed = Some(parse_u64(&value).map_err(|e| bad(&e))?),
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// A decimal or `0x`-prefixed hexadecimal seed.
fn parse_u64(s: &str) -> Result<u64, std::num::ParseIntError> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16),
        None => s.parse(),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> [--seed <n>] \
                 [--seconds <s>] [--trace <0|1>] [--gen-seed <n>]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    for var in REFUSED_ENV {
        if std::env::var_os(var).is_some_and(|v| !v.is_empty()) {
            eprintln!("perfbench: refusing to run with {var} set: it swaps the program measured");
            std::process::exit(2);
        }
    }

    let out = PathBuf::from(OUT_DIR);
    let scratch = out.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        std::process::exit(1);
    }
    let mut run = Run::new(
        args.seed,
        args.gen_seed,
        args.seconds,
        args.trace,
        scratch.clone(),
    );
    match args.workload.as_str() {
        "mine-sparse" => sparse::mine_sparse(&mut run),
        "census-grow" => stream::census_grow(&mut run),
        "drift-window" => stream::drift_window(&mut run),
        _ => serve::serve_mixed(&mut run),
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = rulebases_dataset::Parallelism::Auto.threads();
    run.set("peak_rss_mb", peak_rss_mb());
    run.set("trace.spans", run.tracer.span_count() as f64);

    let mut report = format!(
        "perfbench {} seed {} seconds {} trace {}\nnproc {nproc}, resolved threads {threads}\n",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &run.notes {
        let _ = writeln!(report, "  {note}");
    }
    let error_rate = run.failed as f64 / run.attempted.max(1) as f64;
    let _ = writeln!(
        report,
        "end to end:\n  error_rate {error_rate} ({} failed of {} attempted)",
        run.failed, run.attempted
    );
    for (name, unit) in E2E {
        let v = run.e2e.get(name).copied().unwrap_or(0.0);
        let _ = writeln!(report, "  {name} {v} {unit}");
    }
    if args.trace {
        let _ = writeln!(report, "per layer:");
        for (name, unit) in LAYERS {
            let v = run.layer.get(name).copied().unwrap_or(0.0);
            let _ = writeln!(report, "  {name} {v} {unit}");
        }
    }
    for why in &run.failures {
        let _ = writeln!(report, "  FAILED {why}");
    }
    print!("{report}");

    let catalogue: &[(&str, &str)] = if args.trace { &LAYERS } else { &E2E };
    let values = if args.trace { &run.layer } else { &run.e2e };
    let mut metrics = Vec::new();
    for &(name, unit) in catalogue {
        let mut v = values.get(name).copied().unwrap_or(0.0);
        if !v.is_finite() {
            run.failed += 1;
            v = 0.0;
        }
        metrics.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
    }
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let mode = if args.trace { "trace" } else { "e2e" };
    let summary = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.failed == 0,
        run.attempted.max(1),
        run.failed,
        metrics.join(",")
    );
    let mut artifact = report.clone();
    artifact.push_str(&summary);
    artifact.push('\n');
    let _ = std::fs::write(out.join(format!("{stem}.{mode}.txt")), artifact);
    if args.trace {
        let _ = std::fs::write(
            out.join(format!("{stem}.trace.jsonl")),
            run.tracer.to_jsonl(),
        );
    }
    println!("{summary}");
}
