//! The dynamic-dataflow crossover report: amortized cycles per step for
//! autoregressive decode and training churn, per scheme, over sequence
//! length × version limit.
//!
//! Two deterministic job families fan out over the worker pool:
//!
//! * **Replay cells** — one per workload × sequence length × scheme: the
//!   step loop lowered once ([`tnpu_npu::trace::TileTrace::build_steps`])
//!   and replayed through the scheme's engine, so per-step version-
//!   metadata traffic (tree-less version-table accesses, counter-tree
//!   walks) is charged exactly as the static figures charge it. Decode
//!   steps grow their KV operands with the position in the sequence.
//! * **Lifecycle cells** — one per workload × sequence length × version
//!   limit: a *functional* tree-less [`SteppedSession`] with recovery
//!   enabled, measuring how often the version limit forces a
//!   re-encryption epoch sweep and what the sweeps cost. Only the
//!   tree-less scheme has software versions to exhaust; the other
//!   schemes' amortized cost is replay-only. A shorter sequence is an
//!   exact prefix of a longer one at the same limit, so one job per
//!   workload × limit drives a single session to the longest length on
//!   the steps axis and reads each shorter length's cell off on the way.
//!
//! The rendered crossover table divides both through by the step count:
//! where `tree-less replay + amortized sweeps` exceeds the counter
//! tree's replay, the tree-less scheme has lost its static-dataflow
//! advantage — the `<<` marker. Everything is seeded from workload
//! labels, so stdout is byte-identical at any thread count.

use crate::sweep as pool;
use crate::PoolReport;
use tnpu_core::recovery::RetryPolicy;
use tnpu_core::stepped::SteppedSession;
use tnpu_core::Scheme;
use tnpu_crypto::Key128;
use tnpu_memprot::{build_engine, ProtectionConfig};
use tnpu_models::defs::dynamic;
use tnpu_models::registry;
use tnpu_models::Model;
use tnpu_npu::{NpuConfig, TileTrace};
use tnpu_sim::rng::SplitMix64;

/// Pool-report name for the replay family.
pub const REPLAY_EXPERIMENT: &str = "decode-replay";

/// Pool-report name for the lifecycle family.
pub const LIFECYCLE_EXPERIMENT: &str = "decode-lifecycle";

/// Decode sequence lengths (full / `--quick`).
pub const FULL_DECODE_STEPS: [u64; 3] = [32, 64, 128];
/// Reduced decode lengths for `--quick` (and the frozen golden). The
/// longer one crosses a KV tile boundary, so the version table *grows*
/// mid-sequence.
pub const QUICK_DECODE_STEPS: [u64; 2] = [16, 40];

/// Training iteration counts (full / `--quick`).
pub const FULL_TRAIN_STEPS: [u64; 2] = [16, 32];
/// Reduced iteration counts for `--quick`.
pub const QUICK_TRAIN_STEPS: [u64; 2] = [4, 8];

/// Decode version limits (full / `--quick`). A decode step bumps its
/// frontier cache tile from a base that accumulates over the sequence
/// (the expand-grow no-reuse rule), so decode crosses a given limit much
/// faster than train and gets a higher axis. A limit of 1 leaves the
/// epoch sweep no headroom (see [`SteppedSession::set_version_limit`]),
/// so every axis starts above it.
pub const FULL_DECODE_LIMITS: [u64; 3] = [12, 32, 64];
/// Reduced decode limit set for `--quick`.
pub const QUICK_DECODE_LIMITS: [u64; 2] = [12, 64];

/// Train version limits (full / `--quick`): weights bump once per
/// iteration, so small limits are where the churn bites.
pub const FULL_TRAIN_LIMITS: [u64; 3] = [2, 4, 16];
/// Reduced train limit set for `--quick`.
pub const QUICK_TRAIN_LIMITS: [u64; 2] = [4, 16];

/// One workload × sequence length × scheme replay measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayCell {
    /// Registry name of the dynamic workload (`decode` / `train`).
    pub workload: String,
    /// Steps in the sequence (decoded tokens / training iterations).
    pub steps: u64,
    /// The protection scheme the trace replayed through.
    pub scheme: Scheme,
    /// Total cycles for the whole step loop.
    pub cycles: u64,
}

/// One workload × sequence length × version limit lifecycle measurement
/// (functional, tree-less).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LifecycleCell {
    /// Registry name of the dynamic workload.
    pub workload: String,
    /// Steps driven through the functional session.
    pub steps: u64,
    /// The version-exhaustion threshold.
    pub limit: u64,
    /// Re-encryption epoch sweeps the limit forced.
    pub sweeps: u64,
    /// Engine-charged cycles those sweeps cost.
    pub sweep_cycles: u64,
    /// Live version-table bytes at the end of the sequence (per-tile
    /// entries for every expanded cache — what a preemption must spill).
    pub vt_bytes: u64,
    /// Cycles one preemption (spill + restore of the live table) costs
    /// at the end of the sequence.
    pub preempt_cycles: u64,
}

/// The dynamic workloads with their sequence-length and version-limit
/// axes.
#[must_use]
pub fn workloads(quick: bool) -> Vec<(&'static str, Vec<u64>, Vec<u64>)> {
    if quick {
        vec![
            (
                "decode",
                QUICK_DECODE_STEPS.to_vec(),
                QUICK_DECODE_LIMITS.to_vec(),
            ),
            (
                "train",
                QUICK_TRAIN_STEPS.to_vec(),
                QUICK_TRAIN_LIMITS.to_vec(),
            ),
        ]
    } else {
        vec![
            (
                "decode",
                FULL_DECODE_STEPS.to_vec(),
                FULL_DECODE_LIMITS.to_vec(),
            ),
            (
                "train",
                FULL_TRAIN_STEPS.to_vec(),
                FULL_TRAIN_LIMITS.to_vec(),
            ),
        ]
    }
}

/// One model per step: decode grows its KV operands with the position in
/// the sequence; train repeats the identical iteration.
fn step_models(workload: &str, steps: u64) -> Vec<Model> {
    match workload {
        "decode" => (1..=steps).map(dynamic::decode_step).collect(),
        _ => std::iter::repeat_n(dynamic::train(), steps as usize).collect(),
    }
}

fn replay_cell(workload: &str, steps: u64, scheme: Scheme) -> ReplayCell {
    let models = step_models(workload, steps);
    let refs: Vec<&Model> = models.iter().collect();
    let engine = build_engine(scheme, &ProtectionConfig::paper_default());
    // Seeded from what runs, never from scheme or worker identity: the
    // same stepped trace is replayed through every engine.
    let seed = SplitMix64::seed_from_labels(&[REPLAY_EXPERIMENT, workload, &format!("s{steps}")]);
    let npu = NpuConfig::small_npu();
    let reports = TileTrace::build_steps(&refs, &npu, 1, seed).replay(engine, &npu, 1);
    ReplayCell {
        workload: workload.to_owned(),
        steps,
        scheme,
        cycles: reports[0].total.0,
    }
}

/// A functional tree-less session over `workload` with recovery enabled
/// and version limit `limit`: what every lifecycle cell measures.
fn lifecycle_session(workload: &str, limit: u64, seed: u64) -> SteppedSession {
    let model = registry::model(workload).expect("registered dynamic model");
    let mut session = SteppedSession::new(&model, Key128::derive(b"decode-bench"), seed);
    session.enable_recovery(
        RetryPolicy::default(),
        build_engine(Scheme::Treeless, &ProtectionConfig::paper_default()),
    );
    session.set_version_limit(limit);
    session
}

/// The lifecycle cell of a [`lifecycle_session`] after the steps it has
/// taken.
fn read_cell(session: &SteppedSession, workload: &str, limit: u64) -> LifecycleCell {
    let stats = session.recovery_stats().expect("recovery enabled");
    LifecycleCell {
        workload: workload.to_owned(),
        steps: session.steps_taken(),
        limit,
        sweeps: stats.sweeps,
        sweep_cycles: stats.sweep_cycles,
        vt_bytes: session.version_table().storage_bytes(),
        preempt_cycles: session.preemption_cycles(&NpuConfig::small_npu()),
    }
}

/// One lifecycle job: a single session over `workload` at version limit
/// `limit`, stepped to the end of `steps_axis` (which must ascend) and
/// read each time it reaches an axis value. Every cell value is a
/// function of addresses, versions and the limit, never of the data the
/// seed draws, so a sampled cell equals a session stopped there.
fn lifecycle_cells(workload: &str, steps_axis: &[u64], limit: u64) -> Vec<LifecycleCell> {
    let seed =
        SplitMix64::seed_from_labels(&[LIFECYCLE_EXPERIMENT, workload, &format!("l{limit}")]);
    let mut session = lifecycle_session(workload, limit, seed);
    steps_axis
        .iter()
        .map(|&steps| {
            while session.steps_taken() < steps {
                session.step().expect("clean dynamic step");
            }
            read_cell(&session, workload, limit)
        })
        .collect()
}

/// Run the crossover grid on the session pool.
#[must_use]
pub fn crossover(quick: bool) -> (Vec<ReplayCell>, Vec<LifecycleCell>) {
    let (cells, reports) = crossover_with_threads(pool::threads(), quick);
    for report in reports {
        pool::record(report);
    }
    cells
}

/// [`crossover`] at an explicit pool width, returning the timing reports
/// instead of recording them — the determinism-test hook.
#[must_use]
pub fn crossover_with_threads(
    threads: usize,
    quick: bool,
) -> ((Vec<ReplayCell>, Vec<LifecycleCell>), Vec<PoolReport>) {
    let axes = workloads(quick);
    let mut replay_jobs = Vec::new();
    let mut lifecycle_jobs = Vec::new();
    for (workload, steps_axis, limits_axis) in &axes {
        for &steps in steps_axis {
            for scheme in Scheme::ALL {
                replay_jobs.push((*workload, steps, scheme));
            }
        }
        for &limit in limits_axis {
            lifecycle_jobs.push((*workload, steps_axis.as_slice(), limit));
        }
    }
    let (replays, r1) = pool::run_ordered_with(
        threads,
        REPLAY_EXPERIMENT,
        &replay_jobs,
        |(w, s, scheme)| format!("{w}/s{s}/{scheme}"),
        |(w, s, scheme)| replay_cell(w, *s, *scheme),
    );
    let (sampled, mut r2) = pool::run_ordered_with(
        threads,
        LIFECYCLE_EXPERIMENT,
        &lifecycle_jobs,
        |(w, _, limit)| format!("{w}/l{limit}"),
        |(w, steps, limit)| lifecycle_cells(w, steps, *limit),
    );
    r2.cells = sampled.iter().map(Vec::len).sum();
    // Each job sampled one limit along the steps axis; the table reads
    // its rows by workload, then steps, then limit.
    let mut jobs = sampled.into_iter().map(Vec::into_iter);
    let mut lifecycles = Vec::with_capacity(r2.cells);
    for (_, steps_axis, limits_axis) in &axes {
        let mut per_limit: Vec<_> = jobs.by_ref().take(limits_axis.len()).collect();
        for _ in steps_axis {
            for cells in &mut per_limit {
                lifecycles.push(cells.next().expect("one cell per axis length"));
            }
        }
    }
    ((replays, lifecycles), vec![r1, r2])
}

/// Render the crossover figure: one block per workload, one row per
/// sequence length × version limit, amortized kcycles/step per scheme.
/// `<<` marks cells where tree-less (replay + amortized sweeps) falls
/// behind the counter tree.
#[must_use]
pub fn render_crossover(replays: &[ReplayCell], lifecycles: &[LifecycleCell]) -> String {
    let replay_cycles = |w: &str, s: u64, scheme: Scheme| {
        replays
            .iter()
            .find(|r| r.workload == w && r.steps == s && r.scheme == scheme)
            .expect("replay cell for every lifecycle row")
            .cycles
    };
    let kc = |cycles: f64| format!("{:.1}", cycles / 1000.0);
    let mut out = String::from(
        "Dynamic-dataflow crossover: amortized cycles/step (kcycles)\n\
         (step replay charges per-step version-metadata traffic through each\n\
         scheme's engine; tree-less additionally pays its measured re-encryption\n\
         epoch sweeps, amortized over the sequence; '<<' marks cells where\n\
         tree-less falls behind the counter tree)\n",
    );
    let mut current = "";
    for cell in lifecycles {
        if cell.workload != current {
            current = &cell.workload;
            out += &format!("-- {current} --\n");
            out += &format!(
                "{:>5} {:>5} {:>6} {:>9} {:>8} {:>10}",
                "steps", "limit", "sweeps", "steps/swp", "vt-bytes", "preempt-kc"
            );
            for scheme in Scheme::ALL {
                out += &format!(" {:>13}", scheme.label());
            }
            out += "\n";
        }
        let steps = cell.steps as f64;
        let per_sweep = if cell.sweeps == 0 {
            "-".to_owned()
        } else {
            format!("{:.1}", steps / cell.sweeps as f64)
        };
        out += &format!(
            "{:>5} {:>5} {:>6} {:>9} {:>8} {:>10}",
            cell.steps,
            cell.limit,
            cell.sweeps,
            per_sweep,
            cell.vt_bytes,
            kc(cell.preempt_cycles as f64),
        );
        let tree = replay_cycles(&cell.workload, cell.steps, Scheme::TreeBased) as f64 / steps;
        for scheme in Scheme::ALL {
            let mut amortized = replay_cycles(&cell.workload, cell.steps, scheme) as f64 / steps;
            let mut marker = "";
            if scheme == Scheme::Treeless {
                amortized += cell.sweep_cycles as f64 / steps;
                if amortized > tree {
                    marker = " <<";
                }
            }
            out += &format!(" {:>13}", format!("{}{}", kc(amortized), marker));
        }
        out += "\n";
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test, one grid computation per thread count: the quick grid's
    /// functional lifecycles are the expensive part, so determinism, the
    /// shape invariants, and the render checks all share the two runs.
    #[test]
    fn quick_crossover_grid_holds_its_invariants_at_any_thread_count() {
        let (one, reports) = crossover_with_threads(1, true);
        let (two, _) = crossover_with_threads(2, true);
        assert_eq!(one, two, "grid must not depend on the pool width");
        // One lifecycle session per workload x limit, sampled at both
        // lengths.
        let lifecycle = &reports[1];
        assert_eq!(lifecycle.name, LIFECYCLE_EXPERIMENT);
        assert_eq!((lifecycle.cells, lifecycle.jobs.len()), (8, 4));
        let (replays, lifecycles) = one;
        assert_eq!(
            render_crossover(&replays, &lifecycles),
            render_crossover(&two.0, &two.1)
        );

        // 2 workloads x 2 lengths x 4 schemes / x 2 limits.
        assert_eq!(replays.len(), 16);
        assert_eq!(lifecycles.len(), 8);
        for pair in lifecycles.chunks(2) {
            let (tight, loose) = (&pair[0], &pair[1]);
            assert_eq!(tight.steps, loose.steps);
            assert!(tight.limit < loose.limit);
            assert!(
                tight.sweeps >= loose.sweeps,
                "{}: limit {} swept {} < limit {} swept {}",
                tight.workload,
                tight.limit,
                tight.sweeps,
                loose.limit,
                loose.sweeps
            );
        }
        // Both workloads must actually reach the sweep path somewhere in
        // the quick grid — otherwise the crossover has nothing to show.
        for workload in ["decode", "train"] {
            assert!(
                lifecycles
                    .iter()
                    .any(|c| c.workload == workload && c.sweeps > 0),
                "{workload}: no cell swept"
            );
        }
        for r in &replays {
            assert!(r.cycles > 0);
            if r.scheme != Scheme::Unsecure {
                let unsec = replays
                    .iter()
                    .find(|u| {
                        u.workload == r.workload
                            && u.steps == r.steps
                            && u.scheme == Scheme::Unsecure
                    })
                    .expect("unsecure baseline");
                assert!(
                    r.cycles > unsec.cycles,
                    "{}/{}: protection must cost cycles",
                    r.workload,
                    r.scheme
                );
            }
        }
        // Decode KV growth: the live version table at the end of a longer
        // sequence is strictly bigger (the 40-step run crossed a tile
        // boundary), and so is the preemption bill.
        let decode: Vec<&LifecycleCell> = lifecycles
            .iter()
            .filter(|c| c.workload == "decode")
            .collect();
        let short = decode.first().expect("decode rows");
        let long = decode.last().expect("decode rows");
        assert!(long.steps > short.steps);
        assert!(long.vt_bytes > short.vt_bytes, "KV growth must show up");
        assert!(long.preempt_cycles > short.preempt_cycles);

        let rendered = render_crossover(&replays, &lifecycles);
        assert!(rendered.contains("-- decode --"), "{rendered}");
        assert!(rendered.contains("-- train --"), "{rendered}");
        assert!(rendered.contains("steps/swp"), "{rendered}");
    }

    /// Sampling one session along the steps axis gives the cells of
    /// standalone sessions stepped to each length, each seeded per length
    /// as one-cell jobs would be: the cells hold no data, so neither the
    /// seed nor the steps past a sample reach them.
    #[test]
    fn sampled_lifecycle_cells_equal_standalone_sessions() {
        for quick in [true, false] {
            for (workload, steps_axis, _) in workloads(quick) {
                assert!(
                    steps_axis.windows(2).all(|w| w[0] < w[1]),
                    "{workload}: the steps axis must ascend to be sampled"
                );
            }
        }
        let (workload, limit) = ("train", 2);
        let steps_axis = [1, 3, 5];
        let standalone: Vec<LifecycleCell> = steps_axis
            .iter()
            .map(|&steps| {
                let seed = SplitMix64::seed_from_labels(&[
                    LIFECYCLE_EXPERIMENT,
                    workload,
                    &format!("s{steps}"),
                    &format!("l{limit}"),
                ]);
                let mut session = lifecycle_session(workload, limit, seed);
                for _ in 0..steps {
                    session.step().expect("clean dynamic step");
                }
                read_cell(&session, workload, limit)
            })
            .collect();
        assert_eq!(lifecycle_cells(workload, &steps_axis, limit), standalone);
        assert!(
            standalone.last().is_some_and(|c| c.sweeps > 0),
            "the sessions must cross an epoch sweep"
        );
    }
}
