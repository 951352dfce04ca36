//! CLI driver for the multi-tenant serving simulator.
//!
//! ```text
//! serve [--quick] [--threads N] [model ...]
//! ```
//!
//! Prints the per-scheme p50/p95/p99 tail-latency and throughput tables
//! for the default traffic mix under Poisson and bursty arrivals, FCFS
//! and priority-preemptive scheduling, with context-switch cycles charged
//! through each scheme's protection engine — then the attack matrix
//! extended to preempted and co-resident contexts and the stale-IOMMU-TLB
//! recycle probe. Positional models override the extended matrix's victim
//! set. The process exits 1 if any extended cell contradicts the paper's
//! claims or the stale-TLB window is open. stdout is byte-identical at
//! any thread count; timing goes to stderr.

use tnpu_bench::cli::{self, Flag};
use tnpu_bench::serving;

fn main() {
    let args = cli::from_env(&[Flag::Quick, Flag::Threads], true);
    let default = if args.quick {
        &serving::QUICK_ATTACK_MODELS[..]
    } else {
        &serving::FULL_ATTACK_MODELS[..]
    };
    let models = cli::models(&args, default);

    let reports = serving::serve(args.quick);
    let cells = serving::attack_surfaces(&models);
    println!("==== serve ====");
    println!("{}", serving::render_serve(&reports));
    println!("{}", serving::render_surfaces(&cells));

    cli::finish(&args);
    cli::gate(
        serving::all_claims_hold(&cells),
        "the extended attack claims do not hold",
    );
}
