//! CLI driver for the environmental-fault resilience matrix.
//!
//! ```text
//! faults [--deny-corrupted] [--threads N] [--bench-json PATH] [model ...]
//! ```
//!
//! Injects every environmental fault process of the taxonomy (transient
//! and persistent bit errors, dropped and stalled DMA transfers, crypto
//! soft errors) at every default rate against every protection scheme,
//! with the recovery layer enabled, and prints the scheme × fault
//! resilience matrix. With `--deny-corrupted` the process exits non-zero
//! if any cell contradicts the fault model — the CI gate that protected
//! schemes never compute on corrupted data. stdout is byte-identical at
//! any thread count; timing goes to stderr. `--bench-json PATH` appends
//! one JSON record of the run's pool timings to the array in `PATH`, as
//! `experiments` and `decode` do.

use tnpu_bench::{faults, sweep};
use tnpu_models::registry;

fn parse_thread_count(value: &str) -> usize {
    match value.parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => {
            eprintln!("--threads wants a positive integer, got {value:?}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut deny = false;
    let mut models: Vec<&str> = Vec::new();
    let mut bench_json: Option<std::path::PathBuf> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--deny-corrupted" {
            deny = true;
        } else if arg == "--threads" {
            let Some(value) = iter.next() else {
                eprintln!("--threads wants a value");
                std::process::exit(2);
            };
            sweep::set_threads(parse_thread_count(value));
        } else if let Some(value) = arg.strip_prefix("--threads=") {
            sweep::set_threads(parse_thread_count(value));
        } else if arg == "--bench-json" {
            let Some(value) = iter.next() else {
                eprintln!("--bench-json wants a path");
                std::process::exit(2);
            };
            bench_json = Some(value.into());
        } else if let Some(value) = arg.strip_prefix("--bench-json=") {
            bench_json = Some(value.into());
        } else if arg.starts_with("--") {
            eprintln!("unknown flag: {arg}");
            std::process::exit(2);
        } else if registry::model(arg).is_some() {
            models.push(arg.as_str());
        } else {
            eprintln!("unknown model: {arg}");
            std::process::exit(2);
        }
    }
    if models.is_empty() {
        models = faults::DEFAULT_MODELS.to_vec();
    }

    let cells = faults::matrix(&models);
    println!("==== faults ====");
    println!("{}", faults::render(&cells));

    // Timing telemetry is nondeterministic, so it goes to stderr only —
    // stdout must stay byte-identical at any thread count. The optional
    // benchmark record goes to its own file, never to stdout.
    if let Err(e) = sweep::finish_session(&args.join(" "), bench_json.as_deref()) {
        eprintln!("{e}");
        std::process::exit(1);
    }

    let bad = cells.iter().filter(|c| !c.matches()).count();
    if deny && bad > 0 {
        eprintln!("--deny-corrupted: {bad} cell(s) contradict the fault model");
        std::process::exit(1);
    }
}
