//! CLI driver for the adversarial attack-injection matrix.
//!
//! ```text
//! attacks [--threads N] [--bench-json PATH] [model ...]
//! ```
//!
//! Runs every attack of the taxonomy against every protection scheme on
//! full functional inferences of the given models (default: df ncf) and
//! prints the scheme × attack detection matrix. The process exits 1 if
//! any cell contradicts the paper's claims — the CI gate. stdout is
//! byte-identical at any thread count; timing goes to stderr.
//! `--bench-json PATH` appends one JSON record of the run's pool timings
//! to the array in `PATH`, as `experiments` and `decode` do.

use tnpu_bench::attacks;
use tnpu_bench::cli::{self, Flag};

fn main() {
    let args = cli::from_env(&[Flag::Threads, Flag::BenchJson], true);
    let models = cli::models(&args, &attacks::DEFAULT_MODELS);

    let cells = attacks::matrix(&models);
    println!("==== attacks ====");
    println!("{}", attacks::render(&cells));

    cli::finish(&args);
    let bad = cells.iter().filter(|(_, c)| !c.matches()).count();
    cli::gate(
        bad == 0,
        &format!("{bad} attack cell(s) contradict the paper's claims"),
    );
}
