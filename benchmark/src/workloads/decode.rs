//! `decode-lifecycle`: the quick dynamic-dataflow crossover grid
//! (`tnpu_bench::decode::crossover_with_threads(1, true)`): 16 step-replay
//! cells plus 8 functional tree-less `SteppedSession` cells, rendered and
//! byte-compared with the bench crate's `decode_reduced.txt` golden. The
//! work is write-heavy — KV frontier read-modify-writes, `train` rewriting
//! every weight each step, epoch sweeps re-encrypting every live tensor —
//! and tree-less only on the functional side, so a counter-tree change
//! shows no effect here while an XTS-encrypt or MAC-tag change shows most.

use super::{PairRun, UnitRun, Workload};
use crate::spans::{Probe, Tracer, Untraced, REPLAY, RUNNER, TRACE_BUILD};
use std::time::Instant;
use tnpu_bench::decode::{
    self, crossover_with_threads, render_crossover, LifecycleCell, ReplayCell,
    LIFECYCLE_EXPERIMENT, REPLAY_EXPERIMENT,
};
use tnpu_core::recovery::RetryPolicy;
use tnpu_core::stepped::SteppedSession;
use tnpu_core::Scheme;
use tnpu_crypto::Key128;
use tnpu_memprot::functional::TreelessMemory;
use tnpu_memprot::{build_engine, ProtectionConfig};
use tnpu_models::defs::dynamic;
use tnpu_models::{registry, Model};
use tnpu_npu::{NpuConfig, TileTrace};
use tnpu_sim::rng::SplitMix64;

/// The quick crossover grid as the library renders it.
const GOLDEN: &str = include_str!("../../../crates/bench/tests/golden/decode_reduced.txt");

/// One grid row group: a dynamic workload at one sequence length, with
/// its per-step models and the version limits its lifecycle cells use.
#[derive(Debug)]
struct Sequence {
    workload: &'static str,
    steps: u64,
    models: Vec<Model>,
    limits: Vec<u64>,
}

/// The `decode-lifecycle` workload (no seed input: the grid is fixed).
#[derive(Debug)]
pub struct DecodeLifecycle {
    sequences: Vec<Sequence>,
}

/// One model per step: decode grows its KV operands with the position in
/// the sequence; train repeats the identical iteration.
fn step_models(workload: &str, steps: u64) -> Vec<Model> {
    match workload {
        "decode" => (1..=steps).map(dynamic::decode_step).collect(),
        _ => (0..steps).map(|_| dynamic::train()).collect(),
    }
}

impl DecodeLifecycle {
    /// Prepare the quick grid's per-step models.
    #[must_use]
    pub fn prepare() -> Self {
        let mut sequences = Vec::new();
        for (workload, steps_axis, limits) in decode::workloads(true) {
            for steps in steps_axis {
                sequences.push(Sequence {
                    workload,
                    steps,
                    models: step_models(workload, steps),
                    limits: limits.clone(),
                });
            }
        }
        DecodeLifecycle { sequences }
    }
}

impl Workload for DecodeLifecycle {
    fn nominal_unit_s(&self) -> f64 {
        6.2
    }

    fn nominal_pair_s(&self) -> f64 {
        15.0
    }

    /// The shortest sequence: its tree-less replay and its loosest-limit
    /// lifecycle.
    fn warm_up(&self) {
        let short = self
            .sequences
            .iter()
            .min_by_key(|s| s.steps)
            .expect("grid rows");
        let _ = replay(&mut Untraced, short, Scheme::Treeless);
        let limit = *short.limits.last().expect("limits");
        let _ = lifecycle(&mut Untraced, short, limit);
    }

    fn unit(&self, _i: usize) -> UnitRun {
        let ((replays, lifecycles), reports) = crossover_with_threads(1, true);
        let cells: Vec<_> = reports
            .into_iter()
            .flat_map(|pool| pool.jobs)
            .map(|job| job.wall)
            .collect();
        let failed = if render_crossover(&replays, &lifecycles) == GOLDEN {
            0
        } else {
            cells.len() as u64
        };
        UnitRun { cells, failed }
    }

    /// The whole grid through the library, then a replica: every replay
    /// cell lowered and replayed through a `TimedEngine`, every lifecycle
    /// cell stepped over a `TimedMemory` with a timed recovery engine.
    fn traced_pair(&self, _i: usize, tracer: &mut Tracer) -> PairRun {
        let start = Instant::now();
        let ((replays, lifecycles), _) = crossover_with_threads(1, true);
        let bare = start.elapsed();

        let start = Instant::now();
        let mut traced_replays = Vec::new();
        let mut traced_lifecycles = Vec::new();
        for seq in &self.sequences {
            let label = |what: String| format!("{}/s{}/{what}", seq.workload, seq.steps);
            for scheme in Scheme::ALL {
                let (cell, _) = tracer.span(
                    "cell",
                    || label(scheme.to_string()),
                    |t| replay(t, seq, scheme),
                );
                traced_replays.push(cell);
            }
            for &limit in &seq.limits {
                let (cell, _) = tracer.span(
                    "cell",
                    || label(format!("l{limit}")),
                    |t| lifecycle(t, seq, limit),
                );
                traced_lifecycles.push(cell);
            }
        }
        let traced = start.elapsed();

        // Both sides walk the same grid in the same order.
        let differ = replays
            .iter()
            .zip(&traced_replays)
            .filter(|(a, b)| a != b)
            .count()
            + lifecycles
                .iter()
                .zip(&traced_lifecycles)
                .filter(|(a, b)| a != b)
                .count();
        PairRun {
            bare,
            traced,
            cells: (replays.len() + lifecycles.len()) as u64,
            failed: differ as u64,
        }
    }
}

/// A replay cell as `tnpu_bench::decode` computes it, with the stepped
/// trace lowered and replayed in separate spans (`multi::run_steps_seeded`
/// is exactly this build followed by this replay).
fn replay<S: Probe>(s: &mut S, seq: &Sequence, scheme: Scheme) -> ReplayCell {
    let npu = NpuConfig::small_npu();
    let refs: Vec<&Model> = seq.models.iter().collect();
    let seed = SplitMix64::seed_from_labels(&[
        REPLAY_EXPERIMENT,
        seq.workload,
        &format!("s{}", seq.steps),
    ]);
    let label = || format!("{}/s{}/{scheme}", seq.workload, seq.steps);
    let (trace, _) = s.span(TRACE_BUILD, label, |_| {
        TileTrace::build_steps(&refs, &npu, 1, seed)
    });
    let engine = s.engine(build_engine(scheme, &ProtectionConfig::paper_default()));
    let (reports, _) = s.span(REPLAY, label, |_| trace.replay(engine, &npu, 1));
    ReplayCell {
        workload: seq.workload.to_owned(),
        steps: seq.steps,
        scheme,
        cycles: reports[0].total.0,
    }
}

/// A lifecycle cell as `tnpu_bench::decode` computes it, one runner span
/// per `step()`, split into sweeping and plain steps.
fn lifecycle<S: Probe>(s: &mut S, seq: &Sequence, limit: u64) -> LifecycleCell {
    let model = registry::model(seq.workload).expect("registered dynamic model");
    let seed = SplitMix64::seed_from_labels(&[
        LIFECYCLE_EXPERIMENT,
        seq.workload,
        &format!("s{}", seq.steps),
        &format!("l{limit}"),
    ]);
    let mem = s.memory(Box::new(TreelessMemory::new(Key128::derive(
        b"decode-bench",
    ))));
    let (mut session, _) = s.span(
        RUNNER,
        || "with_memory".into(),
        |_| SteppedSession::with_memory(&model, mem, seed),
    );
    let engine = s.engine(build_engine(
        Scheme::Treeless,
        &ProtectionConfig::paper_default(),
    ));
    session.enable_recovery(RetryPolicy::default(), engine);
    session.set_version_limit(limit);
    for step in 0..seq.steps {
        let (trace, dur) = s.span(RUNNER, || format!("step {step}"), |_| session.step());
        let key = if trace.expect("clean dynamic step").swept {
            "core.stepped.sweep_step_s"
        } else {
            "core.stepped.step_s"
        };
        s.add(key, dur.as_secs_f64());
    }
    let stats = session.recovery_stats().expect("recovery enabled");
    s.add("core.stepped.sweeps", stats.sweeps as f64);
    LifecycleCell {
        workload: seq.workload.to_owned(),
        steps: seq.steps,
        limit,
        sweeps: stats.sweeps,
        sweep_cycles: stats.sweep_cycles,
        vt_bytes: session.version_table().storage_bytes(),
        preempt_cycles: session.preemption_cycles(&NpuConfig::small_npu()),
    }
}
