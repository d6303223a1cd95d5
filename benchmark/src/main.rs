//! `ovc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable summary, then as its last line one JSON
//! object: `correct`, `attempted`, `failed`, and the metrics of the
//! chosen mode.  Exits non-zero when any output disagrees with its
//! oracle.

use std::path::PathBuf;
use std::process::ExitCode;

use ovc_benchmark::{run_workload, RunArgs, WORKLOADS};

fn usage(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    eprintln!(
        "usage: ovc-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut i = 0;
    while i < argv.len() {
        let Some(value) = argv.get(i + 1) else {
            return usage(&format!("{} needs a value", argv[i]));
        };
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => match value.parse::<u64>() {
                Ok(v) => seed = Some(v),
                Err(_) => return usage("--seed takes an unsigned integer"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v > 0.0 && v.is_finite() => seconds = Some(v),
                _ => return usage("--seconds takes a positive number"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            other => return usage(&format!("unknown argument {other}")),
        }
        i += 2;
    }
    let (Some(workload), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        return usage("--workload, --seed and --seconds are required");
    };
    let args = RunArgs {
        seed,
        seconds,
        trace,
        trace_out: trace
            .then(|| PathBuf::from(format!(".bench_trace/{workload}-seed{seed}.jsonl"))),
    };
    let Some(report) = run_workload(&workload, &args) else {
        return usage(&format!("unknown workload {workload}"));
    };
    for (name, value, unit) in report.metrics.iter().chain(&report.summary) {
        println!("{workload} {name} = {value:.4} {unit}");
    }
    println!("{workload} error_rate = {:.4} ratio", report.error_rate());
    for msg in &report.inconsistent {
        println!("{workload} INCONSISTENT: {msg}");
    }
    println!("{}", report.result_line(trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
