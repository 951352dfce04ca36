//! CLI driver for the dynamic-dataflow crossover sweep.
//!
//! ```text
//! decode [--quick] [--deny-undetected] [--deny-corrupted] [--threads N]
//!        [--bench-json PATH]
//! ```
//!
//! Prints the sequence-length × version-limit × scheme crossover figure
//! for the autoregressive-decode and training-churn workloads — per-step
//! replay cycles with the tree-less scheme's amortized epoch-sweep bill
//! folded in, `<<` marking the cells where version churn pushes tree-less
//! behind the counter tree — then joins the attack and environmental-fault
//! matrices for the dynamic models. `--deny-undetected` exits non-zero if
//! any attack cell contradicts the paper's claims, `--deny-corrupted` if
//! any fault cell contradicts the fault model. stdout is byte-identical
//! at any thread count; timing goes to stderr.

use tnpu_bench::{attacks, decode, faults, sweep};

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
    let mut quick = false;
    let mut deny_undetected = false;
    let mut deny_corrupted = false;
    let mut bench_json: Option<std::path::PathBuf> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--quick" {
            quick = true;
        } else if arg == "--deny-undetected" {
            deny_undetected = true;
        } else if arg == "--deny-corrupted" {
            deny_corrupted = true;
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
        } else {
            eprintln!("unknown flag: {arg}");
            std::process::exit(2);
        }
    }

    // Quick keeps the joined matrices to the decode model, the sparser
    // fault period, and two passes — the dynamic models push megabytes
    // through software crypto per inference, so the full five-pass
    // dense-period matrix is a multi-minute serial run. The full run
    // adds the training workload and both periods at [`faults::PASSES`],
    // matching the static binaries' default coverage.
    let models: &[&str] = if quick {
        &["decode"]
    } else {
        &["decode", "train"]
    };
    let periods: &[u64] = if quick {
        &faults::DEFAULT_PERIODS[1..]
    } else {
        &faults::DEFAULT_PERIODS
    };
    let passes = if quick {
        faults::QUICK_PASSES
    } else {
        faults::PASSES
    };

    let (replays, lifecycles) = decode::crossover(quick);
    println!("==== decode crossover ====");
    println!("{}", decode::render_crossover(&replays, &lifecycles));

    let attack_cells = attacks::matrix(models);
    println!("==== decode attacks ====");
    println!("{}", attacks::render(&attack_cells));

    let (fault_cells, report) =
        faults::matrix_with_threads_at(sweep::threads(), models, periods, passes);
    sweep::record(report);
    println!("==== decode faults ====");
    println!("{}", faults::render(&fault_cells));

    // Timing telemetry is nondeterministic, so it goes to stderr only —
    // stdout must stay byte-identical at any thread count. The optional
    // benchmark record goes to its own file, never to stdout.
    if let Err(e) = sweep::finish_session(&args.join(" "), bench_json.as_deref()) {
        eprintln!("{e}");
        std::process::exit(1);
    }

    let undetected = attack_cells.iter().filter(|(_, c)| !c.matches()).count();
    if deny_undetected && undetected > 0 {
        eprintln!("--deny-undetected: {undetected} cell(s) contradict the paper's claims");
        std::process::exit(1);
    }
    let corrupted = fault_cells.iter().filter(|c| !c.matches()).count();
    if deny_corrupted && corrupted > 0 {
        eprintln!("--deny-corrupted: {corrupted} cell(s) contradict the fault model");
        std::process::exit(1);
    }
}
