//! Frozen-output guard: with fault injection disabled, the refactors that
//! carried the recovery layer in (the `MacMismatch` cause discriminant,
//! the runner's retry/sweep plumbing) must not move a single byte of the
//! outputs the repo has already published.
//!
//! The renders pinned against goldens under `tests/golden/`:
//!
//! * the full df+ncf adversarial attack matrix (56 cells),
//! * the reduced serving grid,
//! * the reduced dynamic-dataflow crossover grid, and
//! * the reduced experiment sweep the determinism test drives (the same
//!   tables `results_full.txt` is built from, at df/ncf scale).
//!
//! The df fault matrix at period 101 (`faults_df_p101.txt`) is pinned by
//! the `faults` unit test that already renders it at two thread counts.
//!
//! To re-bless after an *intentional* output change:
//!
//! ```text
//! TNPU_BLESS=1 cargo test -p tnpu-bench --release --test frozen_outputs
//! ```

use std::path::PathBuf;

use tnpu_bench::{attacks, decode, experiments, serving, tables};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compare `actual` against the committed golden, or rewrite the golden
/// when `TNPU_BLESS` is set.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("TNPU_BLESS").is_some() {
        std::fs::write(&path, actual).expect("bless golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with TNPU_BLESS=1",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "{name} drifted from its golden; if the change is intentional, \
         re-bless with TNPU_BLESS=1\n--- golden ---\n{expected}\n--- actual ---\n{actual}"
    );
}

#[test]
fn attack_matrix_render_is_frozen() {
    let (cells, _) = attacks::matrix_with_threads(4, &attacks::DEFAULT_MODELS);
    assert_eq!(cells.len(), 56, "df+ncf matrix is 56 cells");
    check_golden("attacks_df_ncf.txt", &attacks::render(&cells));
}

#[test]
fn reduced_serving_table_is_frozen() {
    // The quick serving grid (2 arrivals x 2 policies x 4 schemes at the
    // reduced request count): latency percentiles, throughput, and the
    // engine-charged context-switch cycles must not drift.
    let (reports, _) = serving::serve_with_threads(4, true);
    assert_eq!(reports.len(), 16, "serving grid is 16 cells");
    check_golden("serve_reduced.txt", &serving::render_serve(&reports));
}

#[test]
fn reduced_decode_grid_is_frozen() {
    // The quick dynamic-dataflow crossover: per-step replay cycles for
    // both workloads at every scheme, plus the functional lifecycle
    // columns (sweeps, version-table growth, preemption bill) and the
    // `<<` crossover markers must not drift.
    let ((replays, lifecycles), _) = decode::crossover_with_threads(4, true);
    assert_eq!(replays.len(), 16, "quick replay grid is 16 cells");
    assert_eq!(lifecycles.len(), 8, "quick lifecycle grid is 8 cells");
    check_golden(
        "decode_reduced.txt",
        &decode::render_crossover(&replays, &lifecycles),
    );
}

#[test]
fn reduced_sweep_render_is_frozen() {
    // The same reduced matrix the determinism test runs: every
    // sweep-backed table at df/ncf scale.
    const MODELS: [&str; 2] = ["df", "ncf"];
    const COUNTS: [usize; 2] = [1, 2];
    let (swept, _) = experiments::sweep_with_threads(4, &MODELS, &COUNTS);
    let (e2e, _) = experiments::fig17_sweep_with_threads(4, &MODELS);
    let mut out = String::new();
    out += &tables::fig14(&swept, &MODELS);
    out += &tables::fig5(&swept, &MODELS);
    out += &tables::fig15(&swept, &MODELS);
    out += &tables::fig16(&swept, &MODELS, &COUNTS);
    out += &tables::csv(&swept, &MODELS);
    out += &tables::fig17_from(&e2e, &MODELS);
    check_golden("sweep_df_ncf.txt", &out);
}
