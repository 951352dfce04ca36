//! CLI driver for the environmental-fault resilience matrix.
//!
//! ```text
//! faults [--threads N] [--bench-json PATH] [model ...]
//! ```
//!
//! Injects every environmental fault process of the taxonomy (transient
//! and persistent bit errors, dropped and stalled DMA transfers, crypto
//! soft errors) at every default rate against every protection scheme,
//! with the recovery layer enabled, and prints the scheme × fault
//! resilience matrix. The process exits 1 if any cell contradicts the
//! fault model — the CI gate that protected schemes never compute on
//! corrupted data. stdout is byte-identical at any thread count; timing
//! goes to stderr. `--bench-json PATH` appends one JSON record of the
//! run's pool timings to the array in `PATH`, as `experiments` and
//! `decode` do.

use tnpu_bench::cli::{self, Flag};
use tnpu_bench::faults;

fn main() {
    let args = cli::from_env(&[Flag::Threads, Flag::BenchJson], true);
    let models = cli::models(&args, &faults::DEFAULT_MODELS);

    let cells = faults::matrix(&models);
    println!("==== faults ====");
    println!("{}", faults::render(&cells));

    cli::finish(&args);
    let bad = cells.iter().filter(|c| !c.matches()).count();
    cli::gate(
        bad == 0,
        &format!("{bad} fault cell(s) contradict the fault model"),
    );
}
