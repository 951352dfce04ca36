//! `fault-retry`: the environmental-fault matrix at one fault period and
//! two inferences per cell (`faults::matrix_with_threads_at(1, &["df"],
//! &[101], 2)`), one fault row (a cell per scheme, through
//! `tnpu_bench::faults::run_cell`) per unit. The reference outputs are
//! shared per model and computed once; the retry path re-fetches and
//! re-verifies blocks through `FaultyMemory`; with two passes under
//! version limit 3 there are no epoch sweeps. It is the control for work
//! that removes per-cell recomputation from the attack matrix.

use super::{golden_rows, row_line, victim, PairRun, UnitRun, Workload};
use crate::spans::{Probe, Tracer, RUNNER};
use crate::timed::{Meter, TimedMemory};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;
use tnpu_bench::faults::{self, expected_resilience, FaultCell, Resilience, VERSION_LIMIT};
use tnpu_core::recovery::RetryPolicy;
use tnpu_core::secure_runner::{sweep_clearable, RunError, SecureRunner};
use tnpu_core::Scheme;
use tnpu_crypto::Key128;
use tnpu_memprot::faults::{FaultKind, FaultyMemory};
use tnpu_memprot::functional::{build_functional, FunctionalMemory, UnsecureMemory};
use tnpu_memprot::{build_engine, ProtectionConfig};
use tnpu_models::{registry, Model};
use tnpu_npu::alloc::ModelLayout;
use tnpu_sim::rng::SplitMix64;
use tnpu_sim::{Addr, BLOCK_SIZE};

/// `faults::render` of the df matrix at period 101 with two passes.
const GOLDEN: &str = include_str!("../../golden/faults_df_p101_x2.txt");

/// The fault period, for every seed. A cell's cost depends on where its
/// first fault lands, which moves with the period's seed stream, so a
/// seed-drawn period would change the work from run to run.
pub const PERIOD: u64 = 101;

/// Inferences per cell (the decode gate's quick setting).
pub const PASSES: u64 = faults::QUICK_PASSES;

/// Input seed of pass `pass` — the labels `tnpu_bench::faults` uses.
fn pass_seed(model: &str, pass: u64) -> u64 {
    SplitMix64::seed_from_labels(&["faults", model, &format!("pass{pass}")])
}

/// The fault-free reference outputs, one per pass, as the library's fault
/// matrix computes them (on unprotected memory).
#[must_use]
pub fn reference_outputs(model: &Model, passes: u64) -> Vec<Vec<u8>> {
    clean_passes(model, UnsecureMemory::new(), passes)
}

/// Run `passes` fault-free inferences of `model` over `mem`; one output
/// per pass.
fn clean_passes<M: FunctionalMemory>(model: &Model, mem: M, passes: u64) -> Vec<Vec<u8>> {
    let mut r = SecureRunner::with_memory(model, mem, pass_seed(&model.name, 0));
    (0..passes)
        .map(|pass| {
            if pass > 0 {
                r.next_inference(pass_seed(&model.name, pass))
                    .expect("unprotected pass starts");
            }
            r.run().expect("unprotected run cannot fail");
            r.read_output().expect("unprotected read cannot fail")
        })
        .collect()
}

/// The `fault-retry` workload.
#[derive(Debug)]
pub struct FaultRetry {
    model: Model,
    references: Vec<Vec<u8>>,
    /// Golden row per fault kind (seed 0 only); other seeds check each
    /// cell against the fault model instead.
    golden: Option<Vec<String>>,
    /// The latest result of each row, for the whole-matrix check.
    rows: RefCell<Vec<Option<Vec<FaultCell>>>>,
}

impl FaultRetry {
    /// Prepare the victim for `seed` (`df` for seed 0, `agz` otherwise)
    /// and its reference outputs.
    #[must_use]
    pub fn prepare(seed: u64) -> Self {
        let model = registry::model(victim(seed)).expect("registered model");
        let references = reference_outputs(&model, PASSES);
        let header = format!("-- df / fault every ~{PERIOD} reads --");
        FaultRetry {
            model,
            references,
            golden: (seed == 0).then(|| golden_rows(GOLDEN, &header, FaultKind::ALL.len())),
            rows: RefCell::new(vec![None; FaultKind::ALL.len()]),
        }
    }

    fn kind(i: usize) -> FaultKind {
        FaultKind::ALL[i % FaultKind::ALL.len()]
    }
}

impl Workload for FaultRetry {
    fn nominal_unit_s(&self) -> f64 {
        3.6
    }

    fn nominal_pair_s(&self) -> f64 {
        7.5
    }

    fn warm_up(&self) {
        let _ = faults::run_cell(
            &self.model,
            Scheme::Treeless,
            FaultKind::TransientBitFlip,
            PERIOD,
            &self.references[..1],
        );
    }

    fn unit(&self, i: usize) -> UnitRun {
        let kind = Self::kind(i);
        let mut run = UnitRun::default();
        let mut row = Vec::new();
        for scheme in Scheme::ALL {
            let start = Instant::now();
            row.push(faults::run_cell(
                &self.model,
                scheme,
                kind,
                PERIOD,
                &self.references,
            ));
            run.cells.push(start.elapsed());
        }
        run.failed = match &self.golden {
            // Line 3 of a one-row render is the row itself.
            Some(rows)
                if rows.get(i % FaultKind::ALL.len())
                    != Some(&row_line(&faults::render(&row), 3)) =>
            {
                row.len() as u64
            }
            Some(_) => 0,
            None => row.iter().filter(|c| !c.matches()).count() as u64,
        };
        self.rows.borrow_mut()[i % FaultKind::ALL.len()] = Some(row);
        run
    }

    /// Once every fault row has run, the whole render — including the
    /// per-scheme injection, retry and recovery-cycle totals — must equal
    /// the golden byte for byte.
    fn finish(&self) -> u64 {
        let rows = self.rows.borrow();
        let (Some(_), Some(cells)) = (
            &self.golden,
            rows.iter().cloned().collect::<Option<Vec<_>>>(),
        ) else {
            return 0;
        };
        let cells: Vec<FaultCell> = cells.into_iter().flatten().collect();
        if faults::render(&cells) == GOLDEN {
            0
        } else {
            cells.len() as u64
        }
    }

    /// Every cell of row `i` through the library, then through [`traced_cell`].
    fn traced_pair(&self, i: usize, tracer: &mut Tracer) -> PairRun {
        let kind = Self::kind(i);
        // Reads a fault-free cell makes: the references' passes read the
        // same blocks as any scheme's clean passes.
        let meter = Meter::new();
        let mem = TimedMemory::new(UnsecureMemory::new(), Arc::clone(&meter));
        clean_passes(&self.model, mem, PASSES);
        let clean_reads = meter.read().reads_total().calls;
        let mut pair = PairRun::default();
        for scheme in Scheme::ALL {
            let start = Instant::now();
            let bare = faults::run_cell(&self.model, scheme, kind, PERIOD, &self.references);
            pair.bare += start.elapsed();
            let start = Instant::now();
            let (traced, _) = tracer.span(
                "cell",
                || format!("{}/{kind}/{scheme}", self.model.name),
                |t| {
                    traced_cell(
                        t,
                        &self.model,
                        scheme,
                        kind,
                        PERIOD,
                        &self.references,
                        clean_reads,
                    )
                },
            );
            pair.traced += start.elapsed();
            pair.cells += 1;
            if traced != bare {
                pair.failed += 1;
            }
        }
        pair
    }
}

/// `tnpu_bench::faults::run_cell` with the faulty memory behind a
/// `TimedMemory`, the recovery engine behind a `TimedEngine`, and a runner
/// span per session call. Adds the cell's retries, injected faults and
/// reads beyond `clean_reads` to the tracer's sums.
pub fn traced_cell(
    t: &mut Tracer,
    model: &Model,
    scheme: Scheme,
    kind: FaultKind,
    period: u64,
    references: &[Vec<u8>],
    clean_reads: u64,
) -> FaultCell {
    let expected = expected_resilience(scheme, kind);
    let before = t.reading();
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
    let mem = TimedMemory::new(
        FaultyMemory::new(inner, kind, period, fault_seed),
        t.meter(),
    );
    let (mut runner, _) = t.span(
        RUNNER,
        || "with_memory".into(),
        |_| SecureRunner::with_memory(model, mem, pass_seed(&model.name, 0)),
    );
    runner.set_version_limit(VERSION_LIMIT);
    let engine = t.engine(build_engine(scheme, &ProtectionConfig::paper_default()));
    runner.enable_recovery(RetryPolicy::default(), engine);

    let mut worst = Resilience::Recovered;
    for (pass, reference) in references.iter().enumerate() {
        if runner.is_poisoned() {
            worst = worst.max(Resilience::Detected);
            continue;
        }
        let started = if pass > 0 {
            t.span(
                RUNNER,
                || "next_inference".into(),
                |_| runner.next_inference(pass_seed(&model.name, pass as u64)),
            )
            .0
        } else {
            Ok(())
        };
        let ran = started.and_then(|()| {
            while !runner.is_finished() {
                t.span(RUNNER, || "step".into(), |_| runner.step()).0?;
            }
            Ok(())
        });
        let mut clearable = false;
        let outcome = match ran.and_then(|()| {
            t.span(RUNNER, || "read_output".into(), |_| runner.read_output())
                .0
        }) {
            Ok(out) if out == *reference => Resilience::Recovered,
            Ok(_) => Resilience::Corrupted,
            Err(e) => {
                clearable = sweep_clearable(&e);
                classify(&e)
            }
        };
        if outcome == Resilience::Detected && clearable {
            let _ = t.span(RUNNER, || "recover".into(), |_| runner.recover());
        }
        worst = worst.max(outcome);
    }

    let stats = runner.recovery_stats().expect("recovery enabled");
    let injected = runner.memory().inner().injected();
    t.add("core.recovery.retries", stats.retries as f64);
    t.add("memprot.faults.injected", injected as f64);
    let reads = t.reading().since(&before).reads_total().calls;
    t.add("core.recovery.clean_reads", clean_reads as f64);
    t.add(
        "core.recovery.extra_reads",
        reads.saturating_sub(clean_reads) as f64,
    );
    FaultCell {
        model: model.name.clone(),
        scheme,
        kind,
        period,
        outcome: worst,
        expected,
        injected,
        retries: stats.retries,
        recovered_reads: stats.recovered_reads,
        sweeps: stats.sweeps,
        recovery_cycles: stats.total_cycles(),
    }
}

/// The library's error classification: a verified read refusing data is
/// detection; anything else reaching the harness is a runner bug.
fn classify(e: &RunError) -> Resilience {
    match e {
        RunError::Integrity(_) => Resilience::Detected,
        RunError::Version(_) | RunError::Cpu(_) | RunError::Finished | RunError::Poisoned => {
            Resilience::Aborted
        }
    }
}
