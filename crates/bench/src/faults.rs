//! The environmental-fault resilience report: scheme × fault-type × rate
//! matrices computed on the deterministic worker pool.
//!
//! Where [`crate::attacks`] injects *adversarial* tampering (persistent,
//! targeted, worst-case), this report injects *environmental* faults —
//! transient bit flips that are gone on the next fetch, stuck-at defects,
//! dropped and stalled DMA transfers, crypto-engine soft errors
//! ([`tnpu_memprot::faults`]) — against full functional inferences with
//! the recovery layer enabled (bounded retry + re-encryption epoch
//! sweeps, every attempt charged cycles). Each cell drives several
//! inferences under a seeded fault process and classifies the worst thing
//! that happened:
//!
//! * **Recovered** — every inference produced the fault-free reference
//!   output (retries and sweeps absorbed the faults, at a cycle cost).
//! * **Detected** — some inference was stopped by a verified read and the
//!   context was quarantined; nothing wrong was ever computed.
//! * **Corrupted** — some inference *completed* with a wrong output: the
//!   scheme let a fault through silently (what encryption-only and
//!   unprotected memory admit).
//! * **Aborted** — the run failed for a non-integrity reason (never
//!   expected; version exhaustion is consumed by epoch sweeps).
//!
//! Every cell lowers the version limit so the matrix also exercises the
//! epoch sweep on every scheme. Seeding follows the attack harness
//! discipline — labels of what is faulted, never wall clock or worker
//! identity — so stdout is byte-identical at any thread count.

use crate::sweep as pool;
use crate::PoolReport;
use tnpu_core::recovery::RetryPolicy;
use tnpu_core::secure_runner::{sweep_clearable, RunError, SecureRunner};
use tnpu_core::Scheme;
use tnpu_crypto::Key128;
use tnpu_memprot::faults::{FaultKind, FaultyMemory};
use tnpu_memprot::functional::{build_functional, UnsecureMemory};
use tnpu_memprot::{build_engine, ProtectionConfig};
use tnpu_models::{registry, Model};
use tnpu_npu::alloc::ModelLayout;
use tnpu_sim::rng::SplitMix64;
use tnpu_sim::{Addr, BLOCK_SIZE};

/// Pool-report name for the fault matrix.
pub const FAULTS_EXPERIMENT: &str = "faults";

/// Default victim model (the smallest conv pipeline — every cell runs
/// [`PASSES`] full functional inferences, so small is the point).
pub const DEFAULT_MODELS: [&str; 1] = ["df"];

/// Fault periods swept per cell: a fault fires on average once every
/// `period` reads, so these are roughly one fault per few hundred blocks.
pub const DEFAULT_PERIODS: [u64; 2] = [101, 257];

/// Inferences driven per cell.
pub const PASSES: u64 = 5;

/// Pass count for the decode smoke gate
/// ([`matrix_with_threads_at`]) — enough for cross-inference version
/// churn without the full matrix's serial cost.
pub const QUICK_PASSES: u64 = 2;

/// Version-exhaustion limit per cell — low enough that every cell
/// consumes at least one re-encryption epoch sweep mid-matrix.
pub const VERSION_LIMIT: u64 = 3;

/// Worst thing a seeded fault process did to a protected context, in
/// severity order (`Recovered < Detected < Corrupted < Aborted`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Resilience {
    /// Every inference converged to the fault-free reference output.
    Recovered,
    /// A verified read stopped an inference; the context quarantined.
    Detected,
    /// An inference completed with a wrong output — silent corruption.
    Corrupted,
    /// A non-integrity failure ended the run (never expected).
    Aborted,
}

impl Resilience {
    /// Fixed-width table label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Resilience::Recovered => "recovered",
            Resilience::Detected => "detected",
            Resilience::Corrupted => "corrupted",
            Resilience::Aborted => "aborted",
        }
    }
}

impl std::fmt::Display for Resilience {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One cell of the scheme × fault × rate matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultCell {
    /// Model driven.
    pub model: String,
    /// Scheme under fault injection.
    pub scheme: Scheme,
    /// Fault process injected.
    pub kind: FaultKind,
    /// Average reads between faults.
    pub period: u64,
    /// Worst observed classification across the cell's passes.
    pub outcome: Resilience,
    /// What the fault model predicts for this scheme.
    pub expected: Resilience,
    /// Faults the injector actually delivered.
    pub injected: u64,
    /// Re-fetch attempts the recovery layer issued.
    pub retries: u64,
    /// Reads that failed at least once and then verified on a retry.
    pub recovered_reads: u64,
    /// Re-encryption epoch sweeps completed.
    pub sweeps: u64,
    /// Cycles charged to recovery (retries + sweeps).
    pub recovery_cycles: u64,
}

impl FaultCell {
    /// Whether the observed classification matches the fault model.
    #[must_use]
    pub fn matches(&self) -> bool {
        self.outcome == self.expected
    }
}

/// The fault model's claim for one cell:
///
/// * Integrity-protected schemes (tnpu, baseline) **recover** every
///   transient fault — a re-fetch re-verifies — and **detect** every
///   persistent one (a stuck-at bit keeps breaking the MAC; retries are
///   forbidden from laundering it into a recovery).
/// * Encryption-only memory has no integrity check: only a stalled
///   transfer (which corrupts nothing) is survivable; every data-touching
///   fault silently **corrupts** the computation.
/// * Unprotected memory additionally shrugs off crypto soft errors (it
///   has no crypto engine to glitch), but every bit that lands wrong in
///   plaintext **corrupts** the output.
#[must_use]
pub fn expected_resilience(scheme: Scheme, kind: FaultKind) -> Resilience {
    match scheme {
        Scheme::Treeless | Scheme::TreeBased => match kind {
            FaultKind::StuckAtBit => Resilience::Detected,
            _ => Resilience::Recovered,
        },
        Scheme::EncryptOnly => match kind {
            FaultKind::StalledTransfer => Resilience::Recovered,
            _ => Resilience::Corrupted,
        },
        Scheme::Unsecure => match kind {
            FaultKind::StalledTransfer | FaultKind::CryptoSoftError => Resilience::Recovered,
            _ => Resilience::Corrupted,
        },
    }
}

/// Scheme-independent input seed for pass `i` of `model` — the fault-free
/// reference and every victim drive identical computations.
fn pass_seed(model: &str, pass: u64) -> u64 {
    SplitMix64::seed_from_labels(&["faults", model, &format!("pass{pass}")])
}

/// The fault-free reference outputs, one per pass (computed on
/// unprotected memory: layer arithmetic digests plaintext, so the clean
/// output is scheme-independent — the attack harness asserts this).
fn reference_outputs(model: &Model, passes: u64) -> Vec<Vec<u8>> {
    let mut r = SecureRunner::with_memory(model, UnsecureMemory::new(), pass_seed(&model.name, 0));
    let mut refs = Vec::new();
    for pass in 0..passes {
        if pass > 0 {
            r.next_inference(pass_seed(&model.name, pass))
                .expect("unprotected pass starts");
        }
        r.run().expect("unprotected run cannot fail");
        refs.push(r.read_output().expect("unprotected read cannot fail"));
    }
    refs
}

fn classify_error(e: &RunError) -> Resilience {
    match e {
        // A verified read refused tampered data: detection doing its job.
        RunError::Integrity(_) => Resilience::Detected,
        // With recovery enabled, version exhaustion is consumed by epoch
        // sweeps inside the runner; any version error reaching the harness
        // is a runner bug, like the rest of these — surfaced as Aborted so
        // the matrix flags it instead of masking it.
        RunError::Version(_) | RunError::Cpu(_) | RunError::Finished | RunError::Poisoned => {
            Resilience::Aborted
        }
    }
}

/// Run one scheme × fault × rate cell: one inference per reference
/// ([`PASSES`] in the full matrix) under a seeded fault process,
/// classified against `references`, with quarantine-and-continue on
/// detection.
#[must_use]
pub fn run_cell(
    model: &Model,
    scheme: Scheme,
    kind: FaultKind,
    period: u64,
    references: &[Vec<u8>],
) -> FaultCell {
    let expected = expected_resilience(scheme, kind);
    let layout = ModelLayout::allocate(model, Addr(0));
    let data_blocks = layout.total_bytes.div_ceil(BLOCK_SIZE as u64).max(1);
    let inner = build_functional(scheme, Key128::derive(b"faults-victim"), data_blocks);
    let fault_seed = SplitMix64::seed_from_labels(&[
        "faults",
        &model.name,
        scheme.label(),
        kind.label(),
        &format!("p{period}"),
    ]);
    let mem = FaultyMemory::new(inner, kind, period, fault_seed);
    let mut runner = SecureRunner::with_memory(model, mem, pass_seed(&model.name, 0));
    runner.set_version_limit(VERSION_LIMIT);
    runner.enable_recovery(
        RetryPolicy::default(),
        build_engine(scheme, &ProtectionConfig::paper_default()),
    );

    let mut worst = Resilience::Recovered;
    for (pass, reference) in references.iter().enumerate() {
        if runner.is_poisoned() {
            // An earlier pass was quarantined and recovery could not lift
            // it (a persistent defect): the fault stays contained, which
            // is detection doing its job for every remaining pass.
            worst = worst.max(Resilience::Detected);
            continue;
        }
        let started = if pass > 0 {
            runner.next_inference(pass_seed(&model.name, pass as u64))
        } else {
            Ok(())
        };
        let mut clearable = false;
        let outcome = match started.and_then(|()| runner.run()) {
            Err(e) => {
                clearable = sweep_clearable(&e);
                classify_error(&e)
            }
            Ok(_) => match runner.read_output() {
                Ok(out) if out == *reference => Resilience::Recovered,
                Ok(_) => Resilience::Corrupted,
                Err(e) => {
                    clearable = sweep_clearable(&e);
                    classify_error(&e)
                }
            },
        };
        if outcome == Resilience::Detected && clearable {
            // Quarantine-and-continue: a sweep re-verifies and re-keys
            // everything intact. If the defect persists (stuck-at bit),
            // the sweep reports it and the quarantine holds. Failures a
            // sweep cannot clear (runner bugs) are left quarantined so
            // they surface instead of being masked by recovery.
            let _ = runner.recover();
        }
        worst = worst.max(outcome);
    }

    let stats = runner.recovery_stats().expect("recovery enabled");
    FaultCell {
        model: model.name.clone(),
        scheme,
        kind,
        period,
        outcome: worst,
        expected,
        injected: runner.memory().injected(),
        retries: stats.retries,
        recovered_reads: stats.recovered_reads,
        sweeps: stats.sweeps,
        recovery_cycles: stats.total_cycles(),
    }
}

/// Run the full matrix for `models` × [`DEFAULT_PERIODS`] on the session
/// pool.
#[must_use]
pub fn matrix(models: &[&str]) -> Vec<FaultCell> {
    let (cells, report) = matrix_with_threads(pool::threads(), models, &DEFAULT_PERIODS);
    pool::record(report);
    cells
}

/// [`matrix`] at an explicit pool width and period set, returning the
/// timing report instead of recording it — the determinism-test hook.
#[must_use]
pub fn matrix_with_threads(
    threads: usize,
    models: &[&str],
    periods: &[u64],
) -> (Vec<FaultCell>, PoolReport) {
    matrix_with_threads_at(threads, models, periods, PASSES)
}

/// [`matrix_with_threads`] at an explicit pass count. The decode smoke
/// gate uses [`QUICK_PASSES`]: the dynamic models stream megabytes of
/// (software-)crypto per inference, so the full five-pass matrix is a
/// multi-minute serial run — two passes still exercise the
/// cross-inference churn and quarantine-and-continue paths.
#[must_use]
pub fn matrix_with_threads_at(
    threads: usize,
    models: &[&str],
    periods: &[u64],
    passes: u64,
) -> (Vec<FaultCell>, PoolReport) {
    let mut jobs = Vec::new();
    for &model in models {
        // Period-major, fault-major: the renderer emits one table per
        // (model, period) with one row per fault and one scheme column.
        for &period in periods {
            for kind in FaultKind::ALL {
                for scheme in Scheme::ALL {
                    jobs.push((model, period, kind, scheme));
                }
            }
        }
    }
    // The reference outputs are scheme- and fault-independent: compute
    // them once per model instead of once per cell.
    let references: std::collections::BTreeMap<&str, (Model, Vec<Vec<u8>>)> = models
        .iter()
        .map(|&name| {
            let m = registry::model(name).expect("registered model");
            let refs = reference_outputs(&m, passes);
            (name, (m, refs))
        })
        .collect();
    pool::run_ordered_with(
        threads,
        FAULTS_EXPERIMENT,
        &jobs,
        |(model, period, kind, scheme)| format!("{model}/p{period}/{kind}/{scheme}"),
        |(model, period, kind, scheme)| {
            let (m, refs) = &references[*model];
            run_cell(m, *scheme, *kind, *period, refs)
        },
    )
}

/// Render the matrices — one table per model × period, faults as rows,
/// schemes as columns, mismatches marked `!` — followed by deterministic
/// per-scheme recovery totals (injections, retries, sweeps, cycles).
#[must_use]
pub fn render(cells: &[FaultCell]) -> String {
    let mut out = String::from(
        "Scheme x environmental-fault resilience matrix (seeded injectors, bounded retry + epoch sweeps)\n",
    );
    let mut current = (String::new(), 0u64);
    for cell in cells {
        let group = (cell.model.clone(), cell.period);
        if group != current {
            current = group;
            out += &format!(
                "-- {} / fault every ~{} reads --\n",
                cell.model, cell.period
            );
            out += &format!("{:22}", "fault");
            for scheme in Scheme::ALL {
                out += &format!(" {:>14}", scheme.label());
            }
            out.push('\n');
        }
        if cell.scheme == Scheme::ALL[0] {
            out += &format!("{:22}", cell.kind.label());
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
    let bad: Vec<&FaultCell> = cells.iter().filter(|c| !c.matches()).collect();
    if bad.is_empty() {
        out += &format!(
            "all {} cells match the fault model: protected schemes recover every \
             transient fault and detect every persistent one; unprotected memory \
             silently corrupts\n",
            cells.len()
        );
    } else {
        out += &format!("{} cell(s) CONTRADICT the fault model:\n", bad.len());
        for c in bad {
            out += &format!(
                "  {} / p{} / {} / {}: got {}, expected {}\n",
                c.model, c.period, c.kind, c.scheme, c.outcome, c.expected
            );
        }
    }
    out += "recovery activity (deterministic totals per scheme):\n";
    out += &format!(
        "{:14} {:>10} {:>10} {:>10} {:>8} {:>16}\n",
        "scheme", "injected", "retries", "recovered", "sweeps", "recovery-cycles"
    );
    for scheme in Scheme::ALL {
        let (mut injected, mut retries, mut recovered, mut sweeps, mut cycles) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        for c in cells.iter().filter(|c| c.scheme == scheme) {
            injected += c.injected;
            retries += c.retries;
            recovered += c.recovered_reads;
            sweeps += c.sweeps;
            cycles += c.recovery_cycles;
        }
        out += &format!(
            "{:14} {:>10} {:>10} {:>10} {:>8} {:>16}\n",
            scheme.label(),
            injected,
            retries,
            recovered,
            sweeps,
            cycles
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_identical_across_thread_counts() {
        // Same contract as the attack matrix: fault processes are seeded
        // from what is faulted, never from which worker ran it.
        let (one, _) = matrix_with_threads(1, &["df"], &[101]);
        let (cells, _) = matrix_with_threads(4, &["df"], &[101]);
        assert_eq!(one, cells);
        assert_eq!(render(&one), render(&cells));

        // And the df matrix matches the fault model.
        for cell in &cells {
            assert_eq!(
                cell.outcome, cell.expected,
                "{} × {} (p{}): got {}, fault model claims {}",
                cell.scheme, cell.kind, cell.period, cell.outcome, cell.expected
            );
        }
        let rendered = render(&cells);
        assert!(rendered.contains("all 24 cells match"), "{rendered}");
        assert!(!rendered.contains('!'), "{rendered}");
        // The lowered version limit makes every surviving cell sweep at
        // least once. Stuck-at cells on protected schemes are quarantined
        // before exhaustion and their recovery sweep correctly aborts in
        // the capture phase, so they are exempt.
        assert!(
            cells
                .iter()
                .filter(|c| c.expected == Resilience::Recovered)
                .all(|c| c.sweeps >= 1),
            "every recovering cell sweeps"
        );
        // Protected schemes actually paid for their recoveries.
        let tnpu_transients = cells
            .iter()
            .filter(|c| c.scheme == Scheme::Treeless && c.kind.is_transient());
        for c in tnpu_transients {
            assert!(c.injected > 0, "{}: injector never fired", c.kind);
            assert!(
                c.kind == FaultKind::CryptoSoftError || c.retries > 0 || c.injected == 0,
                "{}: faults without retries",
                c.kind
            );
            assert!(c.recovery_cycles > 0, "{}: recovery was free", c.kind);
        }
    }

    #[test]
    fn expected_table_has_no_aborted_cells() {
        for scheme in Scheme::ALL {
            for kind in FaultKind::ALL {
                assert_ne!(
                    expected_resilience(scheme, kind),
                    Resilience::Aborted,
                    "{scheme} × {kind}"
                );
            }
        }
    }

    #[test]
    fn severity_order_is_meaningful() {
        assert!(Resilience::Recovered < Resilience::Detected);
        assert!(Resilience::Detected < Resilience::Corrupted);
        assert!(Resilience::Corrupted < Resilience::Aborted);
    }
}
