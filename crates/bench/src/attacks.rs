//! The attack-injection report: one scheme × attack detection matrix per
//! model, computed on the deterministic worker pool.
//!
//! Each cell is an independent job (a full two-pass functional inference
//! with one injected attack — [`tnpu_core::attacks::run_cell`]), so the
//! matrix fans out over [`crate::sweep`] like every other experiment and
//! stdout stays byte-identical at any thread count.

use crate::sweep as pool;
use crate::PoolReport;
use tnpu_core::attacks::{run_cell, CellResult};
use tnpu_core::Scheme;
use tnpu_memprot::adversary::AttackKind;
use tnpu_models::registry;

/// Pool-report name for the attack matrix.
pub const ATTACKS_EXPERIMENT: &str = "attacks";

/// Default victims: the smallest conv pipeline and the embedding-gather
/// model — together they exercise every consumer shape the harness knows
/// (layer ingest, gathered tables, final read-back).
pub const DEFAULT_MODELS: [&str; 2] = ["df", "ncf"];

/// Run the full matrix for `models` on the session pool.
#[must_use]
pub fn matrix(models: &[&str]) -> Vec<(String, CellResult)> {
    let (cells, report) = matrix_with_threads(pool::threads(), models);
    pool::record(report);
    cells
}

/// [`matrix`] at an explicit pool width, returning the timing report
/// instead of recording it — the hook the determinism test uses.
#[must_use]
pub fn matrix_with_threads(
    threads: usize,
    models: &[&str],
) -> (Vec<(String, CellResult)>, PoolReport) {
    let mut jobs = Vec::new();
    for &model in models {
        // Attack-major order: the renderer emits one row per attack with
        // one column per scheme.
        for attack in AttackKind::ALL {
            for scheme in Scheme::ALL {
                jobs.push((model, scheme, attack));
            }
        }
    }
    let (results, report) = pool::run_ordered_with(
        threads,
        ATTACKS_EXPERIMENT,
        &jobs,
        |(model, scheme, attack)| format!("{model}/{scheme}/{attack}"),
        |(model, scheme, attack)| {
            let m = registry::model(model).expect("registered model");
            run_cell(&m, *scheme, *attack)
        },
    );
    let cells = jobs
        .into_iter()
        .map(|(model, _, _)| model.to_owned())
        .zip(results)
        .collect();
    (cells, report)
}

/// Render the matrices, one table per model, attacks as rows and schemes
/// as columns. A cell that contradicts the paper's claim is marked with
/// `!(expected ...)`.
#[must_use]
pub fn render(cells: &[(String, CellResult)]) -> String {
    let mut out = String::from(
        "Scheme x attack detection matrix (paper SIII threat model, SIV-C detection)\n",
    );
    let mut current = "";
    for (model, cell) in cells {
        if model != current {
            current = model;
            out += &format!("-- {model} --\n");
            out += &format!("{:22}", "attack");
            for scheme in Scheme::ALL {
                out += &format!(" {:>14}", scheme.label());
            }
            out.push('\n');
        }
        if cell.scheme == Scheme::ALL[0] {
            out += &format!("{:22}", cell.attack.label());
        }
        if cell.matches() {
            out += &format!(" {:>14}", cell.outcome.label());
        } else {
            out += &format!(" {:>14}", format!("!{}", cell.outcome.label()));
        }
        if cell.scheme == *Scheme::ALL.last().expect("non-empty") {
            out.push('\n');
        }
    }
    let bad: Vec<&(String, CellResult)> = cells.iter().filter(|(_, c)| !c.matches()).collect();
    if bad.is_empty() {
        out += &format!(
            "all {} cells match the paper's claims: versioned MACs detect every \
             attack, encryption-only detects none\n",
            cells.len()
        );
    } else {
        out += &format!("{} cell(s) CONTRADICT the paper's claims:\n", bad.len());
        for (model, c) in bad {
            out += &format!(
                "  {model} / {} / {}: got {}, expected {}\n",
                c.scheme, c.attack, c.outcome, c.expected
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_identical_across_thread_counts() {
        // Same contract as the figure sweep: placement and injection are
        // seeded from what is attacked, never from which worker ran it.
        let (one, _) = matrix_with_threads(1, &["df"]);
        let (two, _) = matrix_with_threads(2, &["df"]);
        assert_eq!(one, two);
        let rendered = render(&two);
        assert_eq!(render(&one), rendered);
        // And the df matrix flags nothing.
        assert!(rendered.contains("all 28 cells match"), "{rendered}");
        assert!(!rendered.contains('!'), "{rendered}");
    }
}
