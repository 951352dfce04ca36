//! The four benchmark workloads.
//!
//! Each one is a fixed sequence of *units* (an iteration of its matrix or
//! a row of it) built from the same public library entry points the CI
//! gates call, each checked against a correctness oracle. Which units a
//! run measures depends only on `--seconds` (through the workload's
//! nominal unit time), never on how fast the machine is, so two commits
//! are always compared on the same work.

pub mod attack;
pub mod cost;
pub mod decode;
pub mod fault;

use crate::spans::Tracer;
use std::time::Duration;

/// Workload names, in the order a full run executes them.
pub const NAMES: [&str; 4] = [
    "cost-sweep",
    "attack-gate",
    "fault-retry",
    "decode-lifecycle",
];

/// What one unit produced: the time of every cell (matrix cell or pool
/// job) it ran, and how many of those cells failed their oracle.
#[derive(Debug, Default)]
pub struct UnitRun {
    /// Per-cell job times.
    pub cells: Vec<Duration>,
    /// Cells whose oracle failed. A golden diff fails every cell of the
    /// render it covers.
    pub failed: u64,
}

/// One traced pair: a unit's work run untraced, then replicated traced.
#[derive(Debug, Default)]
pub struct PairRun {
    /// Wall time of the untraced run.
    pub bare: Duration,
    /// Wall time of the traced replica.
    pub traced: Duration,
    /// Cells the replica checked against the untraced results.
    pub cells: u64,
    /// Cells whose traced result differed from the untraced one.
    pub failed: u64,
}

/// A benchmark workload with its inputs prepared.
pub trait Workload {
    /// Host seconds one unit takes at one thread, as measured when the
    /// benchmark was defined (a 2-vCPU x86-64 virtual machine). Fixes how
    /// many units a run of a given length measures.
    fn nominal_unit_s(&self) -> f64;

    /// Host seconds one traced pair takes, likewise.
    fn nominal_pair_s(&self) -> f64;

    /// A cheap representative piece of the workload, run once before any
    /// timing so lazy set-up and first-touch costs are paid.
    fn warm_up(&self);

    /// Run unit `i` (units repeat cyclically) and check it.
    fn unit(&self, i: usize) -> UnitRun;

    /// Check what the units produced together (a whole-matrix render once
    /// every row has run); returns the cells that failed.
    fn finish(&self) -> u64 {
        0
    }

    /// Run unit `i`'s work untraced through the library and again as a
    /// traced replica recording into `tracer`, checking that both agree.
    fn traced_pair(&self, i: usize, tracer: &mut Tracer) -> PairRun;
}

/// Prepare workload `name` for `seed`; `None` for an unknown name.
#[must_use]
pub fn prepare(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "cost-sweep" => Box::new(cost::CostSweep::prepare()),
        "attack-gate" => Box::new(attack::AttackGate::prepare(seed)),
        "fault-retry" => Box::new(fault::FaultRetry::prepare(seed)),
        "decode-lifecycle" => Box::new(decode::DecodeLifecycle::prepare()),
        _ => return None,
    })
}

/// The victim model of the functional workloads: `df` (golden-checked)
/// for the canonical seed 0, `agz` for every other seed.
fn victim(seed: u64) -> &'static str {
    if seed == 0 {
        "df"
    } else {
        "agz"
    }
}

/// The line of `render` at `index` — one matrix row of a library render.
fn row_line(render: &str, index: usize) -> String {
    render.lines().nth(index).unwrap_or_default().to_owned()
}

/// The first `rows` table rows under the table header line `header` of a
/// golden matrix render (skipping the header and its column line).
fn golden_rows(golden: &str, header: &str, rows: usize) -> Vec<String> {
    golden
        .lines()
        .skip_while(|l| *l != header)
        .skip(2)
        .take(rows)
        .map(str::to_owned)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_rows_follow_their_header() {
        let golden = "title\n-- a --\nhdr\nx  1\ny  2\n-- b --\nhdr\nz  3\nall 3 cells match\n";
        assert_eq!(golden_rows(golden, "-- a --", 2), vec!["x  1", "y  2"]);
        assert_eq!(golden_rows(golden, "-- b --", 1), vec!["z  3"]);
        assert!(golden_rows(golden, "-- c --", 1).is_empty());
        assert_eq!(row_line(golden, 3), "x  1");
        assert_eq!(row_line(golden, 99), "");
    }

    #[test]
    fn victims_by_seed() {
        assert_eq!(victim(0), "df");
        assert_eq!(victim(7), "agz");
    }
}
