//! `attack-gate`: the scheme x attack detection matrix, one attack row (a
//! cell per scheme, through `tnpu_core::attacks::run_cell` as the
//! `attacks` gate calls it) per unit. Each cell runs an unsecure
//! reference, a clean pass 1 and an attacked pass 2 over real XTS/CTR,
//! MACs and counter trees, so the work is crypto plus the functional
//! memories; engine or lowering changes should leave it unchanged.

use super::{golden_rows, row_line, victim, PairRun, UnitRun, Workload};
use crate::spans::{Probe, Tracer, Untraced, RUNNER};
use std::time::Instant;
use tnpu_bench::attacks;
use tnpu_core::attacks::run_cell;
use tnpu_core::secure_runner::{LayerTrace, SecureRunner};
use tnpu_core::Scheme;
use tnpu_crypto::Key128;
use tnpu_memprot::adversary::AttackKind;
use tnpu_memprot::functional::{build_functional, FunctionalMemory};
use tnpu_models::{registry, Model};
use tnpu_npu::alloc::ModelLayout;
use tnpu_sim::rng::SplitMix64;
use tnpu_sim::{Addr, BLOCK_SIZE};

/// The df matrix as the library renders it (see `tests/goldens.rs` for
/// the check that it matches the bench crate's own frozen golden).
pub const GOLDEN: &str = include_str!("../../golden/attacks_df.txt");

// Phase categories of the attack replica's spans.
const REFERENCE: &str = "core.attacks.reference";
const PASS1: &str = "core.attacks.pass1";
const PASS2: &str = "core.attacks.pass2";

/// The `attack-gate` workload.
#[derive(Debug)]
pub struct AttackGate {
    model: Model,
    /// Golden row per attack (seed 0 only); other seeds check each cell
    /// against the paper's expectation instead.
    golden: Option<Vec<String>>,
}

impl AttackGate {
    /// Prepare the victim for `seed`: `df` for seed 0, `agz` otherwise.
    #[must_use]
    pub fn prepare(seed: u64) -> Self {
        let name = victim(seed);
        AttackGate {
            model: registry::model(name).expect("registered model"),
            golden: (seed == 0).then(|| golden_rows(GOLDEN, "-- df --", AttackKind::ALL.len())),
        }
    }
}

impl Workload for AttackGate {
    fn nominal_unit_s(&self) -> f64 {
        3.3
    }

    fn nominal_pair_s(&self) -> f64 {
        7.0
    }

    fn warm_up(&self) {
        let _ = run_cell(&self.model, Scheme::Treeless, AttackKind::BitFlip);
    }

    fn unit(&self, i: usize) -> UnitRun {
        let k = i % AttackKind::ALL.len();
        let attack = AttackKind::ALL[k];
        let mut run = UnitRun::default();
        let mut row = Vec::new();
        for scheme in Scheme::ALL {
            let start = Instant::now();
            let cell = run_cell(&self.model, scheme, attack);
            run.cells.push(start.elapsed());
            row.push((self.model.name.clone(), cell));
        }
        run.failed = match &self.golden {
            // Line 3 of a one-row render is the row itself.
            Some(rows) if rows.get(k) != Some(&row_line(&attacks::render(&row), 3)) => {
                row.len() as u64
            }
            Some(_) => 0,
            None => row.iter().filter(|(_, c)| !c.matches()).count() as u64,
        };
        run
    }

    /// `run_cell` builds its memory internally, so the traced run replays
    /// the three phases of one cell per scheme — reference, clean pass 1,
    /// pass 2 run to completion — once untraced and once traced.
    fn traced_pair(&self, _i: usize, tracer: &mut Tracer) -> PairRun {
        let mut pair = PairRun::default();
        for scheme in Scheme::ALL {
            let start = Instant::now();
            let bare = phases(&mut Untraced, &self.model, scheme);
            pair.bare += start.elapsed();
            let start = Instant::now();
            let (traced, _) = tracer.span(
                "cell",
                || format!("{}/{scheme}", self.model.name),
                |t| phases(t, &self.model, scheme),
            );
            pair.traced += start.elapsed();
            pair.cells += 1;
            // The clean pass 2 must reproduce the differential oracle's
            // reference, and tracing must not change a byte.
            if traced != bare || traced.pass2_output != traced.reference {
                pair.failed += 1;
            }
        }
        pair
    }
}

/// What the three phases of an attack cell produce without the attack.
#[derive(Debug, PartialEq, Eq)]
pub struct Phases {
    /// Pass-2 output on unprotected memory (the differential oracle).
    pub reference: Vec<u8>,
    /// Layer traces of the victim's clean pass 1.
    pub pass1: Vec<LayerTrace>,
    /// Layer traces of the victim's pass 2.
    pub pass2: Vec<LayerTrace>,
    /// The victim's pass-2 output.
    pub pass2_output: Vec<u8>,
}

/// Run every remaining layer of `runner`, one runner span per `step()`.
fn run_layers<S: Probe, M: FunctionalMemory>(
    s: &mut S,
    runner: &mut SecureRunner<M>,
) -> Vec<LayerTrace> {
    let mut traces = Vec::new();
    while !runner.is_finished() {
        let (trace, _) = s.span(RUNNER, || "step".into(), |_| runner.step());
        traces.push(trace.expect("clean layers verify"));
    }
    traces
}

/// The phases of `tnpu_core::attacks::run_cell_on` for `scheme`, with the
/// same seeds and keys, minus the adversary.
pub fn phases<S: Probe>(s: &mut S, model: &Model, scheme: Scheme) -> Phases {
    let s1 = SplitMix64::seed_from_labels(&["attacks", &model.name, "pass1"]);
    let s2 = SplitMix64::seed_from_labels(&["attacks", &model.name, "pass2"]);
    let layout = ModelLayout::allocate(model, Addr(0));
    let data_blocks = layout.total_bytes.div_ceil(BLOCK_SIZE as u64).max(1);

    let (reference, _) = s.span(
        REFERENCE,
        || "reference".into(),
        |s| {
            let mem = s.memory(build_functional(
                Scheme::Unsecure,
                Key128::derive(b"unused"),
                0,
            ));
            let (mut r, _) = s.span(
                RUNNER,
                || "with_memory".into(),
                |_| SecureRunner::with_memory(model, mem, s1),
            );
            run_layers(s, &mut r);
            s.span(RUNNER, || "next_inference".into(), |_| r.next_inference(s2))
                .0
                .expect("input version bumps");
            run_layers(s, &mut r);
            s.span(RUNNER, || "read_output".into(), |_| r.read_output())
                .0
                .expect("unprotected read")
        },
    );

    let (mut runner, pass1) = s
        .span(
            PASS1,
            || "pass1".into(),
            |s| {
                let mem = s.memory(build_functional(
                    scheme,
                    Key128::derive(b"attacks-victim"),
                    data_blocks,
                ));
                let (mut r, _) = s.span(
                    RUNNER,
                    || "with_memory".into(),
                    |_| SecureRunner::with_memory(model, mem, s1),
                );
                let traces = run_layers(s, &mut r);
                (r, traces)
            },
        )
        .0;

    let ((pass2, pass2_output), _) = s.span(
        PASS2,
        || "pass2".into(),
        |s| {
            s.span(
                RUNNER,
                || "next_inference".into(),
                |_| runner.next_inference(s2),
            )
            .0
            .expect("input version bumps");
            let traces = run_layers(s, &mut runner);
            let out = s
                .span(RUNNER, || "read_output".into(), |_| runner.read_output())
                .0
                .expect("clean output verifies");
            (traces, out)
        },
    );

    Phases {
        reference,
        pass1,
        pass2,
        pass2_output,
    }
}
