//! Runs one workload once and prints its measurements as one JSON line.
//!
//! ```text
//! perfbench --workload <fabric_fanin|conflict_churn|ingest_restart> --seed <n>
//!           --scratch <dir> [--traced] [--trace-out <file>]
//! ```
//!
//! `run.py` starts one such process per sample, so every sample pays its own
//! setup and `peak_rss_mib` belongs to one workload alone.

use perfbench::workloads::{run, Generation, RunConfig, Sizes, Workload};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn usage(message: &str) -> ExitCode {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload <name> --seed <n> --scratch <dir> [--traced] \
         [--trace-out <file>]"
    );
    ExitCode::from(2)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let mut workload = None;
    let mut seed = None;
    let mut scratch = None;
    let mut trace_out = None;
    let mut traced = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => workload = args.next(),
            "--seed" => seed = args.next().and_then(|s| s.parse::<u64>().ok()),
            "--scratch" => scratch = args.next().map(PathBuf::from),
            "--trace-out" => trace_out = args.next().map(PathBuf::from),
            "--traced" => traced = true,
            other => return usage(&format!("unknown argument {other}")),
        }
    }
    let Some(workload) = workload.as_deref().and_then(Workload::parse) else {
        return usage("--workload must name one of fabric_fanin, conflict_churn, ingest_restart");
    };
    let Some(seed) = seed else { return usage("--seed must be a whole number") };
    let Some(scratch) = scratch else { return usage("--scratch is required") };

    let config = RunConfig {
        workload,
        seed,
        sizes: Sizes::full(workload),
        traced,
        generation: Generation::Interleaved,
        scratch,
        started,
    };
    let outcome = run(&config);

    if let (Some(path), Some(trace)) = (trace_out, &outcome.trace) {
        if let Err(error) = std::fs::write(&path, trace) {
            eprintln!("perfbench: writing {}: {error}", path.display());
        }
    }

    let numbers = |map: &mut dyn Iterator<Item = (String, f64)>| {
        map.map(|(k, v)| format!("{}:{}", json_str(&k), json_num(v))).collect::<Vec<_>>().join(",")
    };
    let e2e = numbers(&mut outcome.e2e.iter().map(|(k, v)| (k.to_string(), *v)));
    let layers = numbers(&mut outcome.layers.iter().map(|(k, v)| (k.clone(), *v)));
    let registry = numbers(&mut outcome.registry.iter().map(|(k, v)| (k.clone(), *v as f64)));
    let stable = outcome
        .stable
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect::<Vec<_>>()
        .join(",");
    let checks = outcome
        .checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\":{},\"ok\":{},\"detail\":{}}}",
                json_str(&c.name),
                c.ok,
                json_str(&c.detail)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{{\"workload\":{},\"seed\":{seed},\"traced\":{traced},\"attempted\":{},\"failed\":{},\
         \"e2e\":{{{e2e}}},\"layers\":{{{layers}}},\"stable\":{{{stable}}},\"checks\":[{checks}],\
         \"registry\":{{{registry}}}}}",
        json_str(workload.name()),
        outcome.attempted,
        outcome.failed,
    );
    if outcome.checks.iter().all(|c| c.ok) && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
