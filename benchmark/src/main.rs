//! The benchmark command.
//!
//! ```text
//! cargo run --release --locked --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--seed N] [--seconds S] [--trace [0|1]] [--workload W]... [W...]
//! cargo run --release --locked --offline --manifest-path benchmark/Cargo.toml -- \
//!     --compare OLD.txt NEW.txt
//! ```
//!
//! Runs each workload (default: all four) in a fresh child process of
//! this binary, so every workload's peak memory and allocator state are
//! its own; set-up is timed in further fresh children. Prints every
//! metric as `workload metric value unit [note]`, writes a JSON record
//! per workload under `benchmark/out/`, and ends stdout with one JSON
//! result line. Exits 1 if any correctness oracle failed.
//!
//! `--compare` reads two saved text outputs, each holding one or more
//! runs, and exits 1 if the median of any end-to-end metric differs
//! between them by more than its bound.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use tnpu_benchmark::report::{self, Metric, Outcome};
use tnpu_benchmark::run::{self, RUN_SECONDS};
use tnpu_benchmark::stats::median;
use tnpu_benchmark::workloads::NAMES;

/// Fresh processes timed per workload for `setup_s`.
const SETUP_SAMPLES: usize = 5;

#[derive(Debug)]
enum Mode {
    /// Run workloads in child processes and report.
    Parent,
    /// Measure one workload in this process (internal).
    Child,
    /// Only set one workload up, for `setup_s` (internal).
    SetUp,
    /// Compare two saved text outputs.
    Compare(PathBuf, PathBuf),
}

#[derive(Debug)]
struct Options {
    mode: Mode,
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        mode: Mode::Parent,
        workloads: Vec::new(),
        seed: 0,
        seconds: RUN_SECONDS,
        trace: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} wants a value"));
        match arg.as_str() {
            "--seed" => {
                let v = value("--seed")?;
                o.seed = v
                    .parse()
                    .map_err(|_| format!("--seed wants an integer, got {v:?}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                o.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds wants a positive number, got {v:?}"))?;
            }
            "--workload" => o.workloads.push(value("--workload")?),
            "--trace" => {
                o.trace = true;
                if let Some(v @ ("0" | "1")) = it.peek().map(|s| s.as_str()) {
                    o.trace = v == "1";
                    it.next();
                }
            }
            "--compare" => {
                let a = value("--compare")?;
                let b = value("--compare")?;
                o.mode = Mode::Compare(a.into(), b.into());
            }
            "--child" => o.mode = Mode::Child,
            "--set-up" => o.mode = Mode::SetUp,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            name => o.workloads.push(name.to_owned()),
        }
    }
    if o.workloads.is_empty() {
        o.workloads = NAMES.iter().map(|&n| n.to_owned()).collect();
    }
    if let Some(bad) = o.workloads.iter().find(|w| !NAMES.contains(&w.as_str())) {
        return Err(format!(
            "unknown workload {bad:?} (known: {})",
            NAMES.join(" ")
        ));
    }
    Ok(o)
}

/// Where JSON records and traces go: `out/` next to this package's
/// manifest, inside the checkout it was built from.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Run this binary with `args` and wait for it; its stdout on success.
fn child(args: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} failed: {}", out.status));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("child output is not UTF-8: {e}"))
}

/// Measure `name` in a fresh child, then (untraced) time its set-up in
/// [`SETUP_SAMPLES`] more. The set-up samples come second so that each
/// starts on a processor already busy with the workload, not one waking
/// from idle.
fn run_workload(name: &str, o: &Options) -> Result<Outcome, String> {
    let seed = o.seed.to_string();
    let seconds = o.seconds.to_string();
    let trace = if o.trace { "1" } else { "0" };
    let stdout = child(&[
        "--child",
        "--workload",
        name,
        "--seed",
        &seed,
        "--seconds",
        &seconds,
        "--trace",
        trace,
    ])?;
    let mut outcome = Outcome::default();
    for (workload, m) in stdout.lines().filter_map(report::parse_line) {
        if workload != name {
            continue;
        }
        match m.name.as_str() {
            "attempted" => outcome.attempted = m.value as u64,
            "failed" => outcome.failed = m.value as u64,
            _ => outcome.metrics.push(m),
        }
    }
    if !o.trace {
        let mut setup = Vec::with_capacity(SETUP_SAMPLES);
        for _ in 0..SETUP_SAMPLES {
            let start = Instant::now();
            child(&["--set-up", "--workload", name, "--seed", &seed])?;
            setup.push(start.elapsed().as_secs_f64());
        }
        let m = Metric::new("setup_s", median(&setup), "s")
            .with_note(format!("median of {SETUP_SAMPLES} fresh processes"));
        let at = outcome.metrics.len().min(3);
        outcome.metrics.insert(at, m);
    }
    Ok(outcome)
}

fn parent(o: &Options) -> Result<bool, String> {
    let mut runs = Vec::new();
    for name in &o.workloads {
        let outcome = run_workload(name, o)?;
        for m in &outcome.metrics {
            println!("{}", m.line(name));
        }
        println!("{name} attempted {} count", outcome.attempted);
        println!("{name} failed {} count", outcome.failed);
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let file = dir.join(format!(
            "{name}{}.json",
            if o.trace { "-trace" } else { "" }
        ));
        let record = report::record(name, o.seed, o.seconds, o.trace, &outcome);
        std::fs::write(&file, record + "\n").map_err(|e| format!("{}: {e}", file.display()))?;
        runs.push((name.clone(), outcome));
    }
    let line = report::result_line(&runs, o.trace);
    println!("{line}");
    Ok(line.starts_with("{\"correct\": true"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let result = match &o.mode {
        Mode::Parent => parent(&o),
        Mode::SetUp => run::set_up(&o.workloads[0], o.seed).map(|()| true),
        Mode::Child => {
            let name = &o.workloads[0];
            let measured = if o.trace {
                run::measure_traced(name, o.seed, o.seconds, &out_dir())
            } else {
                run::measure(name, o.seed, o.seconds)
            };
            measured.map(|outcome| {
                for m in &outcome.metrics {
                    println!("{}", m.line(name));
                }
                println!("{name} attempted {} count", outcome.attempted);
                println!("{name} failed {} count", outcome.failed);
                true
            })
        }
        Mode::Compare(a, b) => {
            let read = |p: &PathBuf| {
                std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))
            };
            read(a).and_then(|a| read(b).map(|b| (a, b))).map(|(a, b)| {
                let (lines, ok) = report::compare(&a, &b);
                for line in lines {
                    println!("{line}");
                }
                ok
            })
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
