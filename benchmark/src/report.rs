//! Metric definitions and the benchmark's three output forms: one text
//! line per metric (`workload metric value unit [note]`), a JSON record
//! per workload, and the one-line JSON result the last stdout line holds.

use crate::json;
use crate::stats::{median, Better, Bound};

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`wall_s`, `crypto.aes128_block_ns`, ...).
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit (`s`, `ms`, `ns`, `MB`, `count`, `frac`, ...).
    pub unit: String,
    /// Context printed after the unit (sample counts, percentiles).
    pub note: String,
}

impl Metric {
    /// A metric without a note.
    #[must_use]
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_owned(),
            note: String::new(),
        }
    }

    /// Attach a note.
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }

    /// `workload name value unit [note]`.
    #[must_use]
    pub fn line(&self, workload: &str) -> String {
        let mut line = format!("{workload} {} {} {}", self.name, self.value, self.unit);
        if !self.note.is_empty() {
            line += " ";
            line += &self.note;
        }
        line
    }
}

/// Parse a [`Metric::line`] back into `(workload, metric)`; `None` for
/// lines of any other shape.
#[must_use]
pub fn parse_line(line: &str) -> Option<(String, Metric)> {
    let mut parts = line.split_whitespace();
    let workload = parts.next()?;
    let name = parts.next()?;
    let value = parts.next()?.parse().ok()?;
    let unit = parts.next()?;
    let note = parts.collect::<Vec<_>>().join(" ");
    Some((
        workload.to_owned(),
        Metric::new(name, value, unit).with_note(note),
    ))
}

/// An end-to-end metric with its regression bound, as `BENCHMARK.json`
/// declares it.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// How far it may worsen before a change is a regression.
    pub bound: Bound,
}

const fn def(name: &'static str, unit: &'static str, relative: f64, absolute: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: Bound { relative, absolute },
    }
}

/// The end-to-end metrics an untraced run declares in `BENCHMARK.json`
/// and its result line (host time and memory of the simulator itself).
/// The time bounds are wide because the 2-vCPU virtual machine the
/// benchmark was defined on drifts: the quartile spread of a time over
/// ten runs reached 17%, once 26%; memory repeats within 1%.
pub const END_TO_END: [MetricDef; 4] = [
    def("wall_s", "s", 0.25, 0.0),
    def("cell_tail_ms", "ms", 0.25, 0.0),
    def("setup_s", "s", 0.25, 0.05),
    def("peak_rss_mb", "MB", 0.10, 0.0),
];

/// End-to-end metrics every untraced run prints, records and compares,
/// but does not declare:
///
/// * `cell_p50_ms` — on the two matrix workloads the median falls between
///   two schemes' groups of cells, so it swings with the machine's noise
///   (up to 28% quartile spread), past the widest bound a declared metric
///   may have;
/// * `fail_frac` — zero whenever the run is correct, and declared metrics
///   must never be zero; the result line's `correct`/`failed` carry it.
///   Any increase is a regression.
const UNDECLARED: [MetricDef; 2] = [
    def("cell_p50_ms", "ms", 0.25, 0.0),
    def("fail_frac", "frac", 0.0, 0.0),
];

/// The per-layer metrics a traced run reports in its result line: every
/// one is measured on every workload (microbenchmarks), or is a count or
/// a share that is honestly zero where the layer is idle. The traced run
/// prints more (per-scheme and per-phase seconds) as text.
pub const PER_LAYER: [(&str, &str, Better); 24] = [
    ("crypto.aes128_block_ns", "ns", Better::Lower),
    ("crypto.xts_encrypt_64b_ns", "ns", Better::Lower),
    ("crypto.xts_decrypt_64b_ns", "ns", Better::Lower),
    ("crypto.ctr_64b_ns", "ns", Better::Lower),
    ("crypto.block_mac_tag_ns", "ns", Better::Lower),
    ("crypto.sha256_2k_ns", "ns", Better::Lower),
    ("sim.cache_stream_ns", "ns", Better::Lower),
    ("sim.cache_random_ns", "ns", Better::Lower),
    ("npu.trace_build_share", "frac", Better::Lower),
    ("npu.replay_self_share", "frac", Better::Lower),
    ("memprot.engine.busy_share", "frac", Better::Lower),
    ("memprot.engine.calls", "count", Better::Lower),
    (
        "memprot.engine.blocks_per_call",
        "blocks/call",
        Better::Higher,
    ),
    ("memprot.functional.busy_share", "frac", Better::Lower),
    ("memprot.functional.reads", "count", Better::Lower),
    ("memprot.functional.writes", "count", Better::Lower),
    ("core.runner.self_share", "frac", Better::Lower),
    ("core.attacks.redundant_frac", "frac", Better::Lower),
    ("core.recovery.retries", "count", Better::Lower),
    ("core.recovery.extra_read_frac", "frac", Better::Lower),
    ("memprot.faults.injected", "count", Better::Lower),
    ("core.stepped.sweeps", "count", Better::Lower),
    ("trace.coverage", "frac", Better::Higher),
    ("trace.overhead_frac", "frac", Better::Lower),
];

/// The names a result line carries: the end-to-end metrics for an
/// untraced run, the per-layer ones for a traced run.
fn result_names(traced: bool) -> Vec<&'static str> {
    if traced {
        PER_LAYER.iter().map(|(name, _, _)| *name).collect()
    } else {
        END_TO_END.iter().map(|d| d.name).collect()
    }
}

/// Everything one workload run reported.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Cells checked by an oracle.
    pub attempted: u64,
    /// Cells whose oracle failed.
    pub failed: u64,
    /// Every metric, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The metric `name`, if reported.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// `{"value": v, "unit": u}` for each of `metrics` under its key, with
/// the metric's note added when `notes` is set.
fn metrics_json<'a>(metrics: impl Iterator<Item = (String, &'a Metric)>, notes: bool) -> String {
    metrics
        .fold(json::Object::new(), |obj, (key, m)| {
            let value = json::Object::new()
                .num("value", m.value)
                .str("unit", &m.unit);
            let value = if notes && !m.note.is_empty() {
                value.str("note", &m.note)
            } else {
                value
            };
            obj.raw(&key, value.finish())
        })
        .finish()
}

/// The result line: `correct`, `attempted`, `failed` and the metrics named
/// by `result_names`. With one workload the metrics keep their names;
/// with several each is prefixed `workload/`.
#[must_use]
pub fn result_line(runs: &[(String, Outcome)], traced: bool) -> String {
    let names = result_names(traced);
    let attempted: u64 = runs.iter().map(|(_, o)| o.attempted).sum();
    let failed: u64 = runs.iter().map(|(_, o)| o.failed).sum();
    let single = runs.len() == 1;
    let metrics = runs.iter().flat_map(|(w, o)| {
        names.iter().filter_map(move |&n| {
            let key = if single {
                n.to_owned()
            } else {
                format!("{w}/{n}")
            };
            o.get(n).map(|m| (key, m))
        })
    });
    json::Object::new()
        .raw("correct", (failed == 0 && attempted > 0).to_string())
        .raw("attempted", attempted.to_string())
        .raw("failed", failed.to_string())
        .raw("metrics", metrics_json(metrics, false))
        .finish()
}

/// The per-workload record written next to the trace: every metric, with
/// the run's parameters.
#[must_use]
pub fn record(workload: &str, seed: u64, seconds: f64, traced: bool, o: &Outcome) -> String {
    json::Object::new()
        .str("workload", workload)
        .raw("seed", seed.to_string())
        .num("seconds", seconds)
        .raw("trace", traced.to_string())
        .raw("correct", (o.failed == 0 && o.attempted > 0).to_string())
        .raw("attempted", o.attempted.to_string())
        .raw("failed", o.failed.to_string())
        .raw(
            "metrics",
            metrics_json(o.metrics.iter().map(|m| (m.name.clone(), m)), true),
        )
        .finish()
}

/// Every end-to-end value in a saved text output — one or more runs'
/// lines concatenated — grouped by (workload, metric), in first-seen
/// order.
fn end_to_end_values(text: &str) -> Vec<((String, &'static MetricDef), Vec<f64>)> {
    let mut groups: Vec<((String, &'static MetricDef), Vec<f64>)> = Vec::new();
    for (workload, m) in text.lines().filter_map(parse_line) {
        let Some(def) = END_TO_END
            .iter()
            .chain(&UNDECLARED)
            .find(|d| d.name == m.name)
        else {
            continue;
        };
        match groups
            .iter_mut()
            .find(|((w, d), _)| *w == workload && d.name == def.name)
        {
            Some((_, values)) => values.push(m.value),
            None => groups.push(((workload, def), vec![m.value])),
        }
    }
    groups
}

/// Compare two saved text outputs, each holding one or more runs: the
/// median of every end-to-end metric of every workload present in both
/// must agree within its bound, in both directions. Returns one report
/// line per pair and whether all agreed.
#[must_use]
pub fn compare(a: &str, b: &str) -> (Vec<String>, bool) {
    let new = end_to_end_values(b);
    let mut lines = Vec::new();
    let mut all_ok = true;
    for ((workload, def), old) in end_to_end_values(a) {
        let Some((_, new)) = new
            .iter()
            .find(|((w, d), _)| *w == workload && d.name == def.name)
        else {
            continue;
        };
        let (old_m, new_m) = (median(&old), median(new));
        let ok = !def.bound.regressed(def.better, old_m, new_m)
            && !def.bound.regressed(def.better, new_m, old_m);
        all_ok &= ok;
        let change = if old_m == new_m {
            "+0.0%".to_owned()
        } else {
            format!("{:+.1}%", (new_m / old_m - 1.0) * 100.0)
        };
        lines.push(format!(
            "{workload} {} {old_m} -> {new_m} {} (medians of {} and {} runs, {change}, bound {:.0}%): {}",
            def.name,
            def.unit,
            old.len(),
            new.len(),
            def.bound.relative * 100.0,
            if ok { "agree" } else { "DIFFER" }
        ));
    }
    (lines, all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip() {
        let m = Metric::new("cell_tail_ms", 2873.125, "ms").with_note("p64 n=28");
        let line = m.line("attack-gate");
        assert_eq!(line, "attack-gate cell_tail_ms 2873.125 ms p64 n=28");
        assert_eq!(parse_line(&line), Some(("attack-gate".to_owned(), m)));
        assert_eq!(parse_line("warming up"), None);
        assert_eq!(parse_line("a b notanumber s"), None);
    }

    #[test]
    fn result_line_keeps_only_the_declared_metrics() {
        let outcome = Outcome {
            attempted: 28,
            failed: 0,
            metrics: vec![
                Metric::new("wall_s", 1.25, "s"),
                Metric::new("fail_frac", 0.0, "frac"),
            ],
        };
        let line = result_line(&[("attack-gate".into(), outcome.clone())], false);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 28, "failed": 0, "metrics": {"wall_s": {"value": 1.25, "unit": "s"}}}"#
        );
        let two = result_line(
            &[("a".into(), outcome.clone()), ("b".into(), outcome)],
            false,
        );
        assert!(two.contains(r#""a/wall_s""#) && two.contains(r#""b/wall_s""#));
        assert!(two.contains(r#""attempted": 56"#));
        let failing = Outcome {
            attempted: 4,
            failed: 4,
            metrics: vec![],
        };
        assert!(result_line(&[("x".into(), failing)], true).starts_with(r#"{"correct": false"#));
    }

    #[test]
    fn compare_applies_bounds_both_ways() {
        let a = "w wall_s 10 s\nw setup_s 0.2 s\nw fail_frac 0 frac\nnoise line\n";
        let (lines, ok) = compare(a, "w wall_s 10.5 s\nw setup_s 0.24 s\nw fail_frac 0 frac\n");
        assert!(ok, "{lines:?}");
        assert_eq!(lines.len(), 3);
        // 30% slower breaks the 25% bound; so does going from 7.5 to 10
        // (agreement is symmetric).
        assert!(!compare(a, "w wall_s 13 s\n").1);
        assert!(!compare(a, "w wall_s 7.5 s\n").1);
        assert!(compare(a, "w wall_s 8.5 s\n").1);
        // Several runs per side compare by their medians: one outlier run
        // does not decide.
        let (lines, ok) = compare(
            &format!("{a}w wall_s 9 s\nw wall_s 30 s\n"),
            "w wall_s 10 s\n",
        );
        assert!(ok, "{lines:?}");
        assert!(lines[0].contains("medians of 3 and 1 runs"), "{lines:?}");
        // Any failure breaks the zero bound.
        assert!(!compare(a, "w fail_frac 0.1 frac\n").1);
    }
}
