//! CLI driver for the dynamic-dataflow crossover sweep.
//!
//! ```text
//! decode [--quick] [--threads N] [--bench-json PATH]
//! ```
//!
//! Prints the sequence-length × version-limit × scheme crossover figure
//! for the autoregressive-decode and training-churn workloads — per-step
//! replay cycles with the tree-less scheme's amortized epoch-sweep bill
//! folded in, `<<` marking the cells where version churn pushes tree-less
//! behind the counter tree — then joins the attack and environmental-fault
//! matrices for the dynamic models. The process exits 1 if any attack
//! cell contradicts the paper's claims or any fault cell contradicts the
//! fault model. stdout is byte-identical at any thread count; timing goes
//! to stderr.

use tnpu_bench::cli::{self, Flag};
use tnpu_bench::{attacks, decode, faults, sweep};

fn main() {
    let args = cli::from_env(&[Flag::Quick, Flag::Threads, Flag::BenchJson], false);
    let quick = args.quick;

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

    cli::finish(&args);
    let undetected = attack_cells.iter().filter(|(_, c)| !c.matches()).count();
    cli::gate(
        undetected == 0,
        &format!("{undetected} attack cell(s) contradict the paper's claims"),
    );
    let corrupted = fault_cells.iter().filter(|c| !c.matches()).count();
    cli::gate(
        corrupted == 0,
        &format!("{corrupted} fault cell(s) contradict the fault model"),
    );
}
