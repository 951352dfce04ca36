//! One workload, measured in the current process: the untraced run that
//! yields the end-to-end metrics, and the traced run that yields the
//! per-layer breakdown and the Chrome trace.

use crate::micro;
use crate::report::{Metric, Outcome};
use crate::spans::Tracer;
use crate::stats::{median, tail, vm_hwm_kb};
use crate::workloads::{self, Workload};
use std::path::Path;
use std::time::{Duration, Instant};
use tnpu_memprot::SchemeKind;

/// Default run length in seconds (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 22.0;

/// Fewest units an untraced run measures, so the median has company.
const MIN_UNITS: usize = 3;

/// How many units a run of `seconds` measures for a workload whose unit
/// nominally takes `nominal_s`: a pure function of the run length, so
/// every commit measures the same units.
fn units_for(seconds: f64, nominal_s: f64, min: usize) -> usize {
    ((seconds / nominal_s).round() as usize).max(min)
}

fn prepared(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    // The pool width is fixed at one worker: on a 2-vCPU host two workers
    // contend for cores and the per-cell times stop repeating.
    tnpu_bench::sweep::set_threads(1);
    workloads::prepare(name, seed).ok_or_else(|| format!("unknown workload {name:?}"))
}

/// Prepare the workload and run its warm-up — the set-up a fresh process
/// pays before its first timed unit.
///
/// # Errors
///
/// An unknown workload name.
pub fn set_up(name: &str, seed: u64) -> Result<(), String> {
    prepared(name, seed)?.warm_up();
    Ok(())
}

fn peak_rss_mb() -> f64 {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| vm_hwm_kb(&s))
        .unwrap_or(0);
    kb as f64 / 1024.0
}

fn ms(d: &Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The untraced run: set up, warm up, then time a fixed number of units.
/// Reports `wall_s`, `cell_p50_ms`, `cell_tail_ms`, `peak_rss_mb` and
/// `fail_frac` (the caller adds `setup_s`, measured in fresh processes).
///
/// # Errors
///
/// An unknown workload name.
pub fn measure(name: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let w = prepared(name, seed)?;
    w.warm_up();
    let units = units_for(seconds, w.nominal_unit_s(), MIN_UNITS);
    let mut walls = Vec::with_capacity(units);
    let mut cells = Vec::new();
    let mut failed = 0;
    for i in 0..units {
        let start = Instant::now();
        let run = w.unit(i);
        walls.push(start.elapsed().as_secs_f64());
        cells.extend(run.cells.iter().map(ms));
        failed += run.failed;
    }
    let attempted = cells.len() as u64;
    let failed = (failed + w.finish()).min(attempted);
    let t = tail(&cells);
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            Metric::new("wall_s", median(&walls), "s")
                .with_note(format!("median of {units} units")),
            Metric::new("cell_p50_ms", median(&cells), "ms").with_note(format!("n={attempted}")),
            Metric::new("cell_tail_ms", t.value, "ms")
                .with_note(format!("p{} n={}", t.percentile, t.samples)),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
            Metric::new("fail_frac", failed as f64 / attempted as f64, "frac"),
        ],
    })
}

/// The traced run: set up, warm up, then a fixed number of traced pairs
/// (each unit untraced through the library, then as a traced replica),
/// followed by the microbenchmarks. Writes the Chrome trace to
/// `out_dir/trace-<name>.json`.
///
/// # Errors
///
/// An unknown workload name, or the trace file cannot be written.
pub fn measure_traced(
    name: &str,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let w = prepared(name, seed)?;
    w.warm_up();
    let pairs = units_for(seconds, w.nominal_pair_s(), 1);
    let mut tracer = Tracer::new();
    let mut bare = Duration::ZERO;
    let mut traced = Duration::ZERO;
    let mut outcome = Outcome::default();
    for i in 0..pairs {
        let pair = w.traced_pair(i, &mut tracer);
        bare += pair.bare;
        traced += pair.traced;
        outcome.attempted += pair.cells;
        outcome.failed += pair.failed;
    }
    outcome.metrics = layer_metrics(&tracer, pairs as f64, bare, traced);
    outcome.metrics.extend(
        micro::run()
            .into_iter()
            .map(|(name, ns)| Metric::new(name, ns, "ns")),
    );
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("trace-{name}.json"));
    std::fs::write(&path, tracer.chrome_json(name))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(outcome)
}

/// The per-layer metrics of a traced run of `pairs` pairs. Times, counts
/// and phase seconds are per traced unit; shares and coverage are of the
/// traced wall time.
fn layer_metrics(t: &Tracer, pairs: f64, bare: Duration, traced: Duration) -> Vec<Metric> {
    let r = t.reading();
    let wall = traced.as_secs_f64();
    let secs = |ns: u64| ns as f64 * 1e-9;
    let per_op = |tally: crate::timed::Tally| {
        if tally.calls == 0 {
            0.0
        } else {
            tally.ns as f64 / tally.calls as f64
        }
    };
    let build = t.sum("npu.trace_build.self_s");
    let replay_self = t.sum("npu.replay.self_s");
    let runner_self = t.sum("core.runner.self_s");
    let engine = r.engine_total();
    let memory = r.memory_total();
    let covered = build + replay_self + runner_self + secs(engine.ns) + secs(memory.ns);
    let phases = ["reference", "pass1", "pass2"].map(|p| t.sum(&format!("core.attacks.{p}_s")));
    let cell_s = t.sum("cell_s");
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut m = vec![
        Metric::new("npu.trace_build_s", build / pairs, "s"),
        Metric::new("npu.replay_self_s", replay_self / pairs, "s"),
        Metric::new("npu.trace_build_share", ratio(build, wall), "frac"),
        Metric::new("npu.replay_self_share", ratio(replay_self, wall), "frac"),
        Metric::new("memprot.engine.calls", engine.calls as f64 / pairs, "count"),
        Metric::new(
            "memprot.engine.blocks_per_call",
            ratio(engine.blocks as f64, engine.calls as f64),
            "blocks/call",
        ),
        Metric::new("memprot.engine.busy_s", secs(engine.ns) / pairs, "s"),
        Metric::new(
            "memprot.engine.busy_share",
            ratio(secs(engine.ns), wall),
            "frac",
        ),
    ];
    for (i, scheme) in SchemeKind::ALL.iter().enumerate() {
        m.push(Metric::new(
            format!("memprot.engine.{scheme}.busy_s"),
            secs(r.engine[i].ns) / pairs,
            "s",
        ));
    }
    m.extend([
        Metric::new(
            "memprot.functional.reads",
            r.reads_total().calls as f64 / pairs,
            "count",
        ),
        Metric::new(
            "memprot.functional.writes",
            (memory.calls - r.reads_total().calls) as f64 / pairs,
            "count",
        ),
        Metric::new(
            "memprot.functional.busy_share",
            ratio(secs(memory.ns), wall),
            "frac",
        ),
    ]);
    for (i, scheme) in SchemeKind::ALL.iter().enumerate() {
        m.extend([
            Metric::new(
                format!("memprot.functional.{scheme}.reads"),
                r.reads[i].calls as f64 / pairs,
                "count",
            ),
            Metric::new(
                format!("memprot.functional.{scheme}.writes"),
                r.writes[i].calls as f64 / pairs,
                "count",
            ),
            Metric::new(
                format!("memprot.functional.{scheme}.read_ns"),
                per_op(r.reads[i]),
                "ns",
            ),
            Metric::new(
                format!("memprot.functional.{scheme}.write_ns"),
                per_op(r.writes[i]),
                "ns",
            ),
        ]);
    }
    m.extend([
        Metric::new("core.runner.self_s", runner_self / pairs, "s"),
        Metric::new("core.runner.self_share", ratio(runner_self, wall), "frac"),
        Metric::new("core.attacks.reference_s", phases[0] / pairs, "s"),
        Metric::new("core.attacks.pass1_s", phases[1] / pairs, "s"),
        Metric::new("core.attacks.pass2_s", phases[2] / pairs, "s"),
        Metric::new(
            "core.attacks.redundant_frac",
            ratio(phases[0] + phases[1], cell_s),
            "frac",
        ),
        Metric::new(
            "core.recovery.retries",
            t.sum("core.recovery.retries") / pairs,
            "count",
        ),
        Metric::new(
            "core.recovery.extra_read_frac",
            ratio(
                t.sum("core.recovery.extra_reads"),
                t.sum("core.recovery.clean_reads"),
            ),
            "frac",
        ),
        Metric::new(
            "memprot.faults.injected",
            t.sum("memprot.faults.injected") / pairs,
            "count",
        ),
        Metric::new(
            "core.stepped.step_s",
            t.sum("core.stepped.step_s") / pairs,
            "s",
        ),
        Metric::new(
            "core.stepped.sweep_step_s",
            t.sum("core.stepped.sweep_step_s") / pairs,
            "s",
        ),
        Metric::new(
            "core.stepped.sweeps",
            t.sum("core.stepped.sweeps") / pairs,
            "count",
        ),
        Metric::new("trace.coverage", ratio(covered, wall), "frac")
            .with_note(format!("traced wall {wall:.3} s")),
        Metric::new(
            "trace.overhead_frac",
            ratio(wall, bare.as_secs_f64()) - 1.0,
            "frac",
        )
        .with_note(format!("untraced wall {:.3} s", bare.as_secs_f64())),
    ]);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_counts_depend_only_on_run_length() {
        assert_eq!(units_for(15.0, 3.5, 3), 4);
        assert_eq!(units_for(15.0, 2.8, 3), 5);
        assert_eq!(units_for(15.0, 7.0, 3), 3);
        assert_eq!(units_for(1.0, 7.0, 1), 1);
    }
}
