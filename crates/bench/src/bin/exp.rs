//! `exp` — regenerate the experiment tables and figures.
//!
//! ```bash
//! exp all                 # every table and figure at the default scale
//! exp table2 --scale full # one experiment at paper-scale object counts
//! exp table2 --engine tid-list          # pick the SupportEngine backend
//! exp table3 --pipeline fused           # one-pass fused pipeline
//! exp verify              # structural sanity checks across the suite
//! ```

use rulebases::PipelineKind;
use rulebases_bench::datasets::{ENGINE_ENV, PIPELINE_ENV};
use rulebases_bench::tables;
use rulebases_bench::Scale;
use rulebases_dataset::EngineKind;
use std::process::ExitCode;

const USAGE: &str = "usage: exp <table1|table2|table3|table4|fig1|fig2|fig3|verify|all> \
[--scale test|default|full] \
[--engine auto|dense|tid-list] \
[--pipeline staged|fused]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Option<String> = None;
    let mut scale = Scale::Default;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                let Some(value) = args.get(i + 1) else {
                    eprintln!("--scale needs a value\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                let Some(parsed) = Scale::parse(value) else {
                    eprintln!("unknown scale {value:?}\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                scale = parsed;
                i += 2;
            }
            "--engine" => {
                let Some(value) = args.get(i + 1) else {
                    eprintln!("--engine needs a value\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                let kind: EngineKind = match value.parse() {
                    Ok(kind) => kind,
                    Err(e) => {
                        eprintln!("{e}\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                };
                // The tables read the backend from the environment, so
                // the flag and `RULEBASES_ENGINE=...` are equivalent.
                std::env::set_var(ENGINE_ENV, kind.to_string());
                i += 2;
            }
            "--pipeline" => {
                let Some(value) = args.get(i + 1) else {
                    eprintln!("--pipeline needs a value\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                let kind: PipelineKind = match value.parse() {
                    Ok(kind) => kind,
                    Err(e) => {
                        eprintln!("{e}\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                };
                // Like --engine: the flag and `RULEBASES_PIPELINE=...`
                // are equivalent.
                std::env::set_var(PIPELINE_ENV, kind.to_string());
                i += 2;
            }
            other if which.is_none() => {
                which = Some(other.to_owned());
                i += 1;
            }
            other => {
                eprintln!("unexpected argument {other:?}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let which = which.unwrap_or_else(|| "all".to_owned());

    let run_all = which == "all";
    let mut ran = false;

    if run_all || which == "table1" {
        banner("E1 / Table 1 — dataset characteristics");
        println!("{}", tables::table1_header());
        for row in tables::table1(scale) {
            println!("{row}");
        }
        ran = true;
    }
    if run_all || which == "table2" {
        banner("E2 / Table 2 — frequent vs frequent-closed itemsets");
        println!("{}", tables::table2_header());
        for row in tables::table2(scale) {
            println!("{row}");
        }
        ran = true;
    }
    if run_all || which == "table3" {
        banner("E3 / Table 3 — exact rules vs Duquenne-Guigues basis");
        println!("{}", tables::table3_header());
        for row in tables::table3(scale) {
            println!("{row}");
        }
        ran = true;
    }
    if run_all || which == "table4" {
        banner("E4 / Table 4 — approximate rules vs Luxenburger bases");
        println!("{}", tables::table4_header());
        for row in tables::table4(scale) {
            println!("{row}");
        }
        ran = true;
    }
    if run_all || which == "fig1" {
        banner("E5 / Figure 1 — miner runtimes over the minsup sweep");
        println!("{}", tables::fig1_header());
        for row in tables::fig1(scale) {
            println!("{row}");
        }
        ran = true;
    }
    if run_all || which == "fig2" {
        banner("E6 / Figure 2 — rule counts vs minconf");
        println!("{}", tables::fig2_header());
        for row in tables::fig2(scale) {
            println!("{row}");
        }
        ran = true;
    }
    if run_all || which == "fig3" {
        banner("E7 — Hasse construction & transitive reduction");
        println!("{}", tables::fig3_header());
        for row in tables::fig3(scale) {
            println!("{row}");
        }
        ran = true;
    }
    if run_all || which == "verify" {
        banner("structural verification");
        match tables::verify_shapes(scale) {
            Ok(()) => println!("all shape invariants hold"),
            Err(e) => {
                eprintln!("FAILED: {e}");
                return ExitCode::FAILURE;
            }
        }
        ran = true;
    }

    if !ran {
        eprintln!("unknown experiment {which:?}\n{USAGE}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn banner(title: &str) {
    println!("\n== {title} ==");
}
