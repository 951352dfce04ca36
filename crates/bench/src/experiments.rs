//! Computation of every figure/table's data.
//!
//! The single-NPU figures (4, 5, 14, 15) all derive from one sweep over
//! `(model, NPU config, scheme)`; the sweep is computed once, in parallel,
//! and shared. Figures 16 and 17 run their own sweeps (multi-NPU and
//! end-to-end respectively).

use crate::sweep::{self as pool, PoolReport};
use crate::traced;
use std::collections::BTreeMap;
use tnpu_core::endtoend::{run_end_to_end_seeded, EndToEndReport};
use tnpu_core::version::ENTRY_BYTES;
use tnpu_core::RunSpec;
use tnpu_memprot::SchemeKind;
use tnpu_models::registry;
use tnpu_npu::{NpuConfig, RunReport};

/// Experiment label of the shared single/multi-NPU figure sweep — part of
/// every cell's seed derivation (see `tnpu_core::runspec`).
pub const FIGURES_EXPERIMENT: &str = "figures";

/// Experiment label of the Fig. 17 end-to-end sweep.
pub const ENDTOEND_EXPERIMENT: &str = "endtoend";

/// The schemes plotted by the performance figures, in bar order.
pub const FIGURE_SCHEMES: [SchemeKind; 3] = [
    SchemeKind::Unsecure,
    SchemeKind::TreeBased,
    SchemeKind::Treeless,
];

/// Key of one simulated run.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SweepKey {
    /// Model short name.
    pub model: String,
    /// NPU configuration name ("small" / "large").
    pub config: &'static str,
    /// Protection scheme.
    pub scheme: &'static str,
    /// NPU count.
    pub npus: usize,
}

impl SweepKey {
    fn new(model: &str, config: &NpuConfig, scheme: SchemeKind, npus: usize) -> Self {
        SweepKey {
            model: model.to_owned(),
            config: config.name,
            scheme: scheme.label(),
            npus,
        }
    }
}

/// Results of a sweep: the slowest NPU's report per key (for one NPU that
/// is simply *the* report).
#[derive(Debug, Default)]
pub struct Sweep {
    runs: BTreeMap<SweepKey, RunReport>,
}

impl Sweep {
    /// Look up one run.
    ///
    /// # Panics
    ///
    /// Panics if the sweep does not contain the key (harness bug).
    #[must_use]
    pub fn get(
        &self,
        model: &str,
        config: &NpuConfig,
        scheme: SchemeKind,
        npus: usize,
    ) -> &RunReport {
        self.runs
            .get(&SweepKey::new(model, config, scheme, npus))
            .unwrap_or_else(|| panic!("missing run {model}/{}/{scheme}/{npus}", config.name))
    }

    /// Normalized execution time of `scheme` vs the unsecure run at the
    /// same NPU count.
    #[must_use]
    pub fn normalized(
        &self,
        model: &str,
        config: &NpuConfig,
        scheme: SchemeKind,
        npus: usize,
    ) -> f64 {
        let run = self.get(model, config, scheme, npus);
        let base = self.get(model, config, SchemeKind::Unsecure, npus);
        run.total.as_f64() / base.total.as_f64()
    }

    /// Normalized total DRAM traffic of `scheme` vs the unsecure run.
    #[must_use]
    pub fn traffic_normalized(
        &self,
        model: &str,
        config: &NpuConfig,
        scheme: SchemeKind,
        npus: usize,
    ) -> f64 {
        let run = self.get(model, config, scheme, npus);
        let base = self.get(model, config, SchemeKind::Unsecure, npus);
        run.total_traffic() as f64 / base.data_traffic() as f64
    }
}

/// The fixed, matrix-ordered job list of the figure sweep: every cell of
/// `models` × both configs × [`FIGURE_SCHEMES`] × `npu_counts`.
fn sweep_specs(models: &[&str], npu_counts: &[usize]) -> Vec<(SweepKey, RunSpec)> {
    let configs = NpuConfig::paper_configs();
    let mut jobs = Vec::new();
    for &model in models {
        for config in &configs {
            for &scheme in &FIGURE_SCHEMES {
                for &npus in npu_counts {
                    jobs.push((
                        SweepKey::new(model, config, scheme, npus),
                        RunSpec::new(FIGURES_EXPERIMENT, model, config, scheme, npus),
                    ));
                }
            }
        }
    }
    jobs
}

/// Run the sweep for `models` × both configs × [`FIGURE_SCHEMES`] ×
/// `npu_counts` on the session worker pool (see [`crate::sweep`]), and
/// record its timings for the end-of-run summary.
#[must_use]
pub fn sweep(models: &[&str], npu_counts: &[usize]) -> Sweep {
    let (swept, report) = sweep_with_threads(pool::threads(), models, npu_counts);
    pool::record(report);
    swept
}

/// [`sweep`] at an explicit pool width, returning the timing report
/// instead of recording it — the hook the determinism test uses to diff a
/// 1-thread run against an N-thread run.
#[must_use]
pub fn sweep_with_threads(
    threads: usize,
    models: &[&str],
    npu_counts: &[usize],
) -> (Sweep, PoolReport) {
    let (keys, specs): (Vec<SweepKey>, Vec<RunSpec>) =
        sweep_specs(models, npu_counts).into_iter().unzip();
    // One pool job per (model, config) trace group: the trace is lowered
    // once at the largest NPU count and replayed for every scheme x count
    // member (see `crate::traced`).
    let (results, report) = traced::run_specs_with(threads, FIGURES_EXPERIMENT, &specs);
    let runs = keys.into_iter().zip(results).collect();
    (Sweep { runs }, report)
}

/// The model list to use: all 14, or the quick subset for smoke runs.
#[must_use]
pub fn model_list(quick: bool) -> Vec<&'static str> {
    if quick {
        vec!["alex", "df", "sent", "ncf"]
    } else {
        registry::MODEL_NAMES.to_vec()
    }
}

/// Figure 17 data: end-to-end reports per (model, config, scheme), run on
/// the session worker pool.
#[must_use]
pub fn fig17_sweep(models: &[&str]) -> BTreeMap<SweepKey, EndToEndReport> {
    let (data, report) = fig17_sweep_with_threads(pool::threads(), models);
    pool::record(report);
    data
}

/// [`fig17_sweep`] at an explicit pool width, returning the timing report
/// instead of recording it.
#[must_use]
pub fn fig17_sweep_with_threads(
    threads: usize,
    models: &[&str],
) -> (BTreeMap<SweepKey, EndToEndReport>, PoolReport) {
    let configs = NpuConfig::paper_configs();
    let mut jobs = Vec::new();
    for &model in models {
        for config in &configs {
            for &scheme in &FIGURE_SCHEMES {
                jobs.push((
                    SweepKey::new(model, config, scheme, 1),
                    RunSpec::new(ENDTOEND_EXPERIMENT, model, config, scheme, 1),
                ));
            }
        }
    }
    let (results, report) = pool::run_ordered_with(
        threads,
        ENDTOEND_EXPERIMENT,
        &jobs,
        |(_, spec)| spec.label(),
        |(_, spec)| {
            let m = registry::model(&spec.model).expect("registered model");
            run_end_to_end_seeded(&m, &spec.config, spec.scheme, spec.seed())
        },
    );
    let data = jobs.into_iter().map(|(key, _)| key).zip(results).collect();
    (data, report)
}

/// §IV-D data: peak version-table storage per model (bytes).
#[must_use]
pub fn vtable_storage(models: &[&str]) -> Vec<(String, u64, u64)> {
    models
        .iter()
        .map(|&name| {
            let model = registry::model(name).expect("registered model");
            let layout = tnpu_npu::alloc::ModelLayout::allocate(&model, tnpu_sim::Addr(0));
            // Steady state: one entry per tensor. Peak: plus the largest
            // single tile expansion (one tensor is expanded at a time;
            // merged after each layer).
            let steady = u64::from(layout.tensor_count) * ENTRY_BYTES;
            let max_tiles = layout
                .outputs
                .iter()
                .map(|o| {
                    o.bytes
                        .div_ceil(tnpu_core::secure_runner::TILE_BYTES)
                        .max(1)
                })
                .max()
                .unwrap_or(1);
            let peak = steady + max_tiles.saturating_sub(1) * ENTRY_BYTES;
            (name.to_owned(), steady, peak)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_has_expected_shape() {
        let s = sweep(&["df"], &[1]);
        let small = NpuConfig::small_npu();
        let unsec = s.normalized("df", &small, SchemeKind::Unsecure, 1);
        assert!((unsec - 1.0).abs() < 1e-12);
        let tree = s.normalized("df", &small, SchemeKind::TreeBased, 1);
        let tnpu = s.normalized("df", &small, SchemeKind::Treeless, 1);
        assert!(tnpu >= 1.0);
        assert!(tree >= tnpu);
    }

    #[test]
    fn vtable_storage_is_kb_scale() {
        for (name, steady, peak) in vtable_storage(&["df", "agz"]) {
            assert!(steady > 0, "{name}");
            assert!(peak >= steady, "{name}");
            assert!(peak < 64 << 10, "{name}: {peak} B");
        }
    }

    #[test]
    fn model_lists() {
        assert_eq!(model_list(false).len(), 14);
        assert!(model_list(true).len() < 14);
    }
}
