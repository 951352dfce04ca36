//! One cell of an experiment matrix, as data.
//!
//! Every figure of the paper's evaluation sweeps the same grid — (model,
//! NPU configuration, protection scheme), sometimes × NPU count — and the
//! experiment harness executes each cell as an independent job on a worker
//! pool. [`RunSpec`] describes a cell; [`RunSpec::execute`] runs it and
//! yields a [`RunResult`] carrying the reports plus the job's wall time.
//!
//! # Determinism
//!
//! Each cell's workload RNG seed is derived from *what is simulated* —
//! the `(experiment, model, config)` labels — via
//! [`SplitMix64::seed_from_labels`], never from worker identity or
//! submission order. Two deliberate properties:
//!
//! * The seed does **not** depend on the scheme: all schemes of one cell
//!   group replay the identical request stream, so normalizing a protected
//!   run to the unsecure run compares like with like.
//! * The seed does **not** depend on the NPU count: per-NPU streams are
//!   split from the cell seed by NPU index inside the simulator, so NPU 0
//!   of a 1-NPU run and a 3-NPU run serve the same requests.
//!
//! Consequently a sweep's results are byte-identical at any thread count.

// tnpu-lint: allow(wallclock) — wall time is measured only around the whole
// job for the stderr timing report; nothing simulated can observe it.
use std::time::{Duration, Instant};
use tnpu_memprot::{build_engine, ProtectionConfig, SchemeKind};
use tnpu_models::registry;
use tnpu_npu::{NpuConfig, RunReport, TileTrace};
use tnpu_sim::rng::SplitMix64;

/// Description of one simulated run: a single cell of an experiment grid.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Experiment label (e.g. `"figures"`, `"ablation-arity"`): part of
    /// the seed derivation, so distinct experiments draw distinct request
    /// streams even over the same model.
    pub experiment: String,
    /// Registered model short name (see `tnpu_models::registry`).
    pub model: String,
    /// NPU configuration.
    pub config: NpuConfig,
    /// Protection scheme simulated.
    pub scheme: SchemeKind,
    /// Number of NPUs sharing the memory controller and engine.
    pub npus: usize,
    /// Protection-engine parameters (cache sizes, tree arity, ...).
    pub protection: ProtectionConfig,
}

impl RunSpec {
    /// Cell with the paper's default protection parameters.
    #[must_use]
    pub fn new(
        experiment: &str,
        model: &str,
        config: &NpuConfig,
        scheme: SchemeKind,
        npus: usize,
    ) -> Self {
        RunSpec {
            experiment: experiment.to_owned(),
            model: model.to_owned(),
            config: config.clone(),
            scheme,
            npus,
            protection: ProtectionConfig::paper_default(),
        }
    }

    /// Replace the protection parameters (ablation studies).
    #[must_use]
    pub fn with_protection(mut self, protection: ProtectionConfig) -> Self {
        self.protection = protection;
        self
    }

    /// The cell's deterministic workload seed — a pure function of
    /// `(experiment, model, config)`. See the module docs for why the
    /// scheme and NPU count are deliberately excluded.
    #[must_use]
    pub fn seed(&self) -> u64 {
        SplitMix64::seed_from_labels(&[&self.experiment, &self.model, self.config.name])
    }

    /// The key under which this cell's tile trace can be shared: cells
    /// with equal keys lower identical plans, because the trace depends
    /// only on the seed inputs `(experiment, model, config)` plus the NPU
    /// index — never on the scheme, the NPU count, or the protection
    /// parameters (see [`TileTrace`]).
    #[must_use]
    pub fn trace_key(&self) -> (String, String, String) {
        (
            self.experiment.clone(),
            self.model.clone(),
            self.config.name.to_owned(),
        )
    }

    /// Lower this cell's tile trace for up to `npus` NPUs — build it at
    /// the largest NPU count of a [`trace_key`] group and every member
    /// replays a prefix.
    ///
    /// # Panics
    ///
    /// Panics if the model name is not registered or `npus` is zero.
    ///
    /// [`trace_key`]: RunSpec::trace_key
    #[must_use]
    pub fn build_trace(&self, npus: usize) -> TileTrace {
        let model = registry::model(&self.model)
            // tnpu-lint: allow(panic-path) — documented "# Panics" contract:
            // specs are built from registry names, so a miss is caller error.
            .unwrap_or_else(|| panic!("model {:?} is not registered", self.model));
        TileTrace::build_replicated(&model, &self.config, npus, self.seed())
    }

    /// Execute the cell on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if the model name is not registered.
    #[must_use]
    pub fn execute(&self) -> RunResult {
        // tnpu-lint: allow(wallclock) — brackets the job for RunResult::wall
        // (stderr-only); the simulation inside sees cycle time exclusively.
        let start = Instant::now();
        let trace = self.build_trace(self.npus);
        let mut result = self.execute_with(&trace);
        result.wall = start.elapsed();
        result
    }

    /// Execute the cell against an already-lowered `trace` (which must
    /// come from a spec with the same [`trace_key`] and cover at least
    /// `self.npus` NPUs) — the sweep runners' replay path.
    ///
    /// # Panics
    ///
    /// Panics if the trace covers fewer NPUs than the cell needs.
    ///
    /// [`trace_key`]: RunSpec::trace_key
    #[must_use]
    pub fn execute_with(&self, trace: &TileTrace) -> RunResult {
        let engine = build_engine(self.scheme, &self.protection);
        // tnpu-lint: allow(wallclock) — same stderr-only job timing as
        // `execute`; nothing simulated can observe it.
        let start = Instant::now();
        let reports = trace.replay(engine, &self.config, self.npus);
        RunResult {
            reports,
            wall: start.elapsed(),
        }
    }

    /// `model/config/scheme/npus` — the label job timings are reported
    /// under.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            self.model,
            self.config.name,
            self.scheme.label(),
            self.npus
        )
    }
}

/// Outcome of executing one [`RunSpec`].
#[derive(Debug, Clone)]
pub struct RunResult {
    /// One report per simulated NPU.
    pub reports: Vec<RunReport>,
    /// Wall-clock time the job took on its worker.
    pub wall: Duration,
}

impl RunResult {
    /// The slowest NPU's report — for a single-NPU cell, *the* report.
    /// Multi-NPU figures plot the slowest NPU (the paper's convention).
    ///
    /// # Panics
    ///
    /// Panics if the result is empty (cannot happen for executed specs:
    /// `npus >= 1` is enforced by the simulator).
    #[must_use]
    pub fn slowest(&self) -> &RunReport {
        self.reports
            .iter()
            .max_by_key(|r| r.total)
            // tnpu-lint: allow(panic-path) — a RunResult is only built from
            // an executed cell, which always has at least one NPU report.
            .expect("at least one NPU report")
    }

    /// Consume the result, keeping the slowest NPU's report.
    #[must_use]
    pub fn into_slowest(self) -> RunReport {
        self.reports
            .into_iter()
            .max_by_key(|r| r.total)
            // tnpu-lint: allow(panic-path) — a RunResult is only built from
            // an executed cell, which always has at least one NPU report.
            .expect("at least one NPU report")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(scheme: SchemeKind) -> RunSpec {
        RunSpec::new("test-exp", "df", &NpuConfig::small_npu(), scheme, 1)
    }

    #[test]
    fn seed_ignores_scheme_and_npus() {
        let a = spec(SchemeKind::Unsecure);
        let b = spec(SchemeKind::Treeless);
        assert_eq!(a.seed(), b.seed(), "schemes must replay the same workload");
        let mut c = spec(SchemeKind::Unsecure);
        c.npus = 3;
        assert_eq!(a.seed(), c.seed(), "NPU count must not shift the stream");
    }

    #[test]
    fn seed_depends_on_experiment_model_config() {
        let base = spec(SchemeKind::Unsecure);
        let mut other_model = base.clone();
        other_model.model = "ncf".to_owned();
        let other_exp = RunSpec::new(
            "other-exp",
            "df",
            &NpuConfig::small_npu(),
            SchemeKind::Unsecure,
            1,
        );
        let large = RunSpec::new(
            "test-exp",
            "df",
            &NpuConfig::large_npu(),
            SchemeKind::Unsecure,
            1,
        );
        assert_ne!(base.seed(), other_model.seed());
        assert_ne!(base.seed(), other_exp.seed());
        assert_ne!(base.seed(), large.seed());
    }

    #[test]
    fn execute_is_deterministic() {
        let s = spec(SchemeKind::Treeless);
        let a = s.execute();
        let b = s.execute();
        assert_eq!(a.reports, b.reports, "same spec, same results");
        assert_eq!(a.reports.len(), 1);
        assert!(a.slowest().total.0 > 0);
        assert!(a.wall > Duration::ZERO);
    }

    #[test]
    fn slowest_picks_the_maximum() {
        let mut s = spec(SchemeKind::Unsecure);
        s.npus = 2;
        let r = s.execute();
        assert_eq!(r.reports.len(), 2);
        let max = r.reports.iter().map(|x| x.total).max().expect("two");
        assert_eq!(r.slowest().total, max);
        assert_eq!(r.into_slowest().total, max);
    }

    #[test]
    fn label_is_fully_qualified() {
        assert_eq!(spec(SchemeKind::TreeBased).label(), "df/small/baseline/1");
    }

    #[test]
    fn trace_key_groups_by_seed_inputs_only() {
        let base = spec(SchemeKind::Unsecure);
        let mut other_scheme = spec(SchemeKind::Treeless);
        other_scheme.npus = 3;
        assert_eq!(
            base.trace_key(),
            other_scheme.trace_key(),
            "scheme and NPU count must not split a trace group"
        );
        let mut other_model = base.clone();
        other_model.model = "ncf".to_owned();
        assert_ne!(base.trace_key(), other_model.trace_key());
    }

    #[test]
    fn execute_with_shared_trace_matches_execute() {
        // The replay path the sweep runners use: one trace built at the
        // group's largest NPU count serves every scheme and every smaller
        // count bit-identically.
        let mut two = spec(SchemeKind::TreeBased);
        two.npus = 2;
        let trace = two.build_trace(2);
        for scheme in [SchemeKind::Unsecure, SchemeKind::Treeless] {
            for npus in [1usize, 2] {
                let mut s = spec(scheme);
                s.npus = npus;
                assert_eq!(
                    s.execute_with(&trace).reports,
                    s.execute().reports,
                    "{scheme}/{npus}"
                );
            }
        }
    }
}
