//! CLI driver regenerating the paper's tables and figures.
//!
//! ```text
//! experiments [--quick] [--threads N] [--bench-json PATH] [target ...]
//! targets: table2 table3 fig4 fig5 fig14 fig15 fig16 fig17 csv check vtable
//!          hwcost ext_scaling ablations all
//! ```
//!
//! An unknown or repeated target exits 2 before any work, with nothing on
//! stdout.
//!
//! Cells of each experiment run in parallel on a worker pool sized by
//! `--threads N` (default: all cores). stdout is byte-identical at any
//! thread count; the timing summary — per-job wall times and the
//! aggregate speedup — goes to stderr. `--bench-json PATH` additionally appends one JSON record of
//! the run's pool timings to the array in `PATH` (creating it if absent),
//! growing the perf-trajectory log `make bench` maintains.

use tnpu_bench::cli::{self, Flag};
use tnpu_bench::experiments::{self, model_list};
use tnpu_bench::tables;

/// What `all` (or no target) runs, in order.
const ALL: &[&str] = &[
    "table2",
    "table3",
    "fig4",
    "fig5",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "vtable",
    "hwcost",
    "ablations",
];

/// Targets that run only when named.
const NAMED_ONLY: &[&str] = &["csv", "check", "ext_scaling"];

fn main() {
    let args = cli::from_env(&[Flag::Quick, Flag::Threads, Flag::BenchJson], true);
    let quick = args.quick;
    let words: Vec<&str> = args.words.iter().map(String::as_str).collect();
    // Every word is checked before any work, so a usage error prints nothing.
    if let Some(bad) = words
        .iter()
        .find(|w| **w != "all" && !ALL.contains(w) && !NAMED_ONLY.contains(w))
    {
        eprintln!("unknown target: {bad}");
        std::process::exit(2);
    }
    let targets = if words.is_empty() || words.contains(&"all") {
        ALL.to_vec()
    } else {
        words
    };
    let models = model_list(quick);

    // Figures 4/5/14/15 share the single-NPU sweep; fig16 extends it.
    let needs_single = targets
        .iter()
        .any(|t| ["fig4", "fig5", "fig14", "fig15", "fig16", "csv", "check"].contains(t));
    let needs_multi = targets.contains(&"fig16");
    let counts: Vec<usize> = if needs_multi { vec![1, 2, 3] } else { vec![1] };
    let sweep = if needs_single {
        Some(experiments::sweep(&models, &counts))
    } else {
        None
    };

    for target in targets {
        let rendered = match target {
            "table2" => tables::table2(),
            "table3" => tables::table3(&models),
            // Fig. 4 is the motivation figure: the baseline bars of Fig. 14.
            "fig4" | "fig14" => tables::fig14(sweep.as_ref().expect("swept"), &models),
            "fig5" => tables::fig5(sweep.as_ref().expect("swept"), &models),
            "fig15" => tables::fig15(sweep.as_ref().expect("swept"), &models),
            "fig16" => tables::fig16(sweep.as_ref().expect("swept"), &models, &counts),
            "csv" => tables::csv(sweep.as_ref().expect("swept"), &models),
            "check" => {
                let violations = tables::check(sweep.as_ref().expect("swept"), &models);
                if violations.is_empty() {
                    "reproduction check PASSED: all paper-shape invariants hold\n".to_owned()
                } else {
                    eprintln!("reproduction check FAILED:");
                    for v in &violations {
                        eprintln!("  {v}");
                    }
                    std::process::exit(1);
                }
            }
            "fig17" => tables::fig17(&models),
            "vtable" => tables::vtable(&models),
            "hwcost" => tables::hwcost(),
            "ext_scaling" => tnpu_bench::ablations::extended_scaling(&["df", "ncf", "sent"], 6),
            "ablations" => {
                let mut s = tnpu_bench::ablations::cache_sensitivity("ncf");
                s += "\n";
                s += &tnpu_bench::ablations::tree_arity("sent");
                s += "\n";
                s += &tnpu_bench::ablations::counter_granularity("ncf");
                s += "\n";
                s += &tnpu_bench::ablations::tree_organization("sent");
                s += "\n";
                s += &tnpu_bench::ablations::integrity_price(&["alex", "df", "sent", "ncf"]);
                s
            }
            other => unreachable!("target {other} was checked before the run"),
        };
        println!("==== {target} ====");
        println!("{rendered}");
    }

    cli::finish(&args);
}
