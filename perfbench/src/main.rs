//! `ripple-perfbench`: runs one benchmark workload and prints its metrics.
//!
//! ```text
//! ripple-perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
//! ```
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! With `--trace 0` the metrics are the end-to-end ones, with `--trace 1`
//! the per-layer ones, and the traced run writes its spans as JSON lines
//! to `.perfbench-out/spans-<workload>.jsonl`.  Disk
//! stores live under `.perfbench-data/` in the working directory and are
//! removed on exit.  The exit code is 0 only when every operation and
//! output check passed.

use std::path::PathBuf;
use std::process::ExitCode;

use ripple_perfbench::inputs::Workload;
use ripple_perfbench::report::result_json;
use ripple_perfbench::trace;
use ripple_perfbench::workload::{self, Config};

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// Run length used when `--seconds` is absent: `run_seconds` in
/// `BENCHMARK.json`, which the recorded baselines assume.
const DEFAULT_SECONDS: f64 = 20.0;

fn usage(why: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("ripple-perfbench: {why}");
    eprintln!(
        "usage: ripple-perfbench --workload <{}> [--seed <n>] [--seconds <s>] [--trace 0|1]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    if let Some(bad) = args
        .iter()
        .step_by(2)
        .find(|a| !["--workload", "--seed", "--seconds", "--trace"].contains(&a.as_str()))
    {
        return usage(&format!("unknown argument {bad:?}"));
    }
    let Some(workload) = value("--workload").and_then(Workload::parse) else {
        return usage("--workload names no workload");
    };
    let Ok(seed) = value("--seed").map_or(Ok(DEFAULT_SEED), str::parse::<u64>) else {
        return usage("--seed takes a whole number");
    };
    let seconds = match value("--seconds").map_or(Ok(DEFAULT_SECONDS), str::parse::<f64>) {
        Ok(s) if s.is_finite() && s > 0.0 => s,
        _ => return usage("--seconds takes a positive number"),
    };
    let trace_on = match value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => return usage("--trace takes 0 or 1"),
    };
    let spans = PathBuf::from(format!(".perfbench-out/spans-{}.jsonl", workload.name()));

    let data_dir = PathBuf::from(".perfbench-data").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&data_dir) {
        eprintln!("ripple-perfbench: creating {}: {e}", data_dir.display());
        return ExitCode::FAILURE;
    }
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace: trace_on,
        data_dir: data_dir.clone(),
    };
    let outcome = workload::run(&cfg);
    let _ = std::fs::remove_dir_all(&data_dir);
    // Leave the parent behind only if another run is still using it.
    let _ = std::fs::remove_dir(".perfbench-data");

    for line in &outcome.lines {
        println!("{line}");
    }
    if trace_on {
        match trace::write_spans(&spans) {
            Ok((kept, dropped)) => println!(
                "spans: {kept} written to {}, {dropped} past the cap counted only in totals",
                spans.display()
            ),
            Err(e) => eprintln!(
                "ripple-perfbench: writing spans to {}: {e}",
                spans.display()
            ),
        }
        for (name, value, unit) in outcome.metrics.iter() {
            println!("{name:<34} {value} {unit}");
        }
    }
    for failure in &outcome.tally.failures {
        eprintln!("FAILED: {failure}");
    }
    println!("{}", result_json(&outcome.tally, &outcome.metrics));
    if outcome.tally.failed == 0 && outcome.tally.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
