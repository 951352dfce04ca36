//! The `TnpuSystem` facade: one object that ties the NPU simulator, the
//! protection engines, and the secure software stack together.

use crate::endtoend::{run_end_to_end, EndToEndReport};
use crate::secure_runner::{RunError, SecureRunner};
use tnpu_crypto::Key128;
use tnpu_memprot::SchemeKind;
use tnpu_models::Model;
use tnpu_npu::{NpuConfig, RunReport};
use tnpu_sim::Cycles;

/// Error returned by [`TnpuSystem`] entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SystemError {
    /// The model's data-flow graph is invalid.
    InvalidModel(String),
    /// A functional run detected an integrity violation.
    Run(RunError),
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemError::InvalidModel(e) => write!(f, "invalid model: {e}"),
            SystemError::Run(e) => write!(f, "secure run failed: {e}"),
        }
    }
}

impl std::error::Error for SystemError {}

impl From<RunError> for SystemError {
    fn from(e: RunError) -> Self {
        SystemError::Run(e)
    }
}

/// Timing result of one inference on the system.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemReport {
    /// End-to-end NPU cycles.
    pub total_time: Cycles,
    /// Full simulator report (traffic, engine statistics, per layer).
    pub npu: RunReport,
}

/// A simulated TNPU platform: an NPU configuration plus a protection
/// scheme.
///
/// # Examples
///
/// ```
/// use tnpu_core::{TnpuSystem, Scheme};
/// use tnpu_npu::config::NpuConfig;
///
/// let model = tnpu_models::registry::model("df").expect("registered");
/// let mut sys = TnpuSystem::new(NpuConfig::small_npu(), Scheme::Treeless);
/// let report = sys.run_inference(&model).expect("valid model");
/// assert!(report.total_time.0 > 0);
/// ```
#[derive(Debug, Clone)]
pub struct TnpuSystem {
    npu: NpuConfig,
    scheme: SchemeKind,
}

impl TnpuSystem {
    /// A system with the given NPU and scheme.
    #[must_use]
    pub fn new(npu: NpuConfig, scheme: SchemeKind) -> Self {
        TnpuSystem { npu, scheme }
    }

    /// The NPU configuration.
    #[must_use]
    pub fn npu(&self) -> &NpuConfig {
        &self.npu
    }

    /// The protection scheme.
    #[must_use]
    pub fn scheme(&self) -> SchemeKind {
        self.scheme
    }

    /// Simulate one inference (timing mode).
    ///
    /// # Errors
    ///
    /// [`SystemError::InvalidModel`] if the model graph fails validation.
    pub fn run_inference(&mut self, model: &Model) -> Result<SystemReport, SystemError> {
        model.validate().map_err(SystemError::InvalidModel)?;
        let npu = tnpu_npu::simulate(model, &self.npu, self.scheme);
        Ok(SystemReport {
            total_time: npu.total,
            npu,
        })
    }

    /// Simulate `count` NPUs sharing the memory system (scalability mode,
    /// §V-C). Returns one report per NPU.
    ///
    /// # Errors
    ///
    /// [`SystemError::InvalidModel`] if the model graph fails validation.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn run_inference_multi(
        &mut self,
        model: &Model,
        count: usize,
    ) -> Result<Vec<SystemReport>, SystemError> {
        model.validate().map_err(SystemError::InvalidModel)?;
        Ok(
            tnpu_npu::simulate_multi(model, &self.npu, self.scheme, count)
                .into_iter()
                .map(|npu| SystemReport {
                    total_time: npu.total,
                    npu,
                })
                .collect(),
        )
    }

    /// Simulate the full end-to-end request path (§V-D).
    ///
    /// # Errors
    ///
    /// [`SystemError::InvalidModel`] if the model graph fails validation.
    pub fn run_end_to_end(&mut self, model: &Model) -> Result<EndToEndReport, SystemError> {
        model.validate().map_err(SystemError::InvalidModel)?;
        Ok(run_end_to_end(model, &self.npu, self.scheme))
    }

    /// Execute the model *functionally* — real bytes through real crypto
    /// with version management — and return the verified output. Intended
    /// for small models; every byte is encrypted and MAC'd in software.
    ///
    /// # Errors
    ///
    /// [`SystemError::Run`] if any verification fails (it cannot on an
    /// untampered run), [`SystemError::InvalidModel`] on a bad graph.
    pub fn run_functional(
        &mut self,
        model: &Model,
        key: Key128,
        seed: u64,
    ) -> Result<Vec<u8>, SystemError> {
        model.validate().map_err(SystemError::InvalidModel)?;
        let mut runner = SecureRunner::new(model, key, seed);
        runner.run()?;
        Ok(runner.read_output()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnpu_models::registry;

    #[test]
    fn timing_and_functional_modes_work() {
        let model = registry::model("agz").expect("registered");
        let mut sys = TnpuSystem::new(NpuConfig::small_npu(), SchemeKind::Treeless);
        let timing = sys.run_inference(&model).expect("valid");
        assert!(timing.total_time.0 > 0);
        let output = sys
            .run_functional(&model, Key128::derive(b"sys"), 1)
            .expect("verifies");
        assert!(!output.is_empty());
    }

    #[test]
    fn invalid_model_rejected() {
        let mut model = registry::model("agz").expect("registered");
        model.layers[1].inputs = vec![]; // corrupt the graph
        let mut sys = TnpuSystem::new(NpuConfig::small_npu(), SchemeKind::Treeless);
        assert!(matches!(
            sys.run_inference(&model),
            Err(SystemError::InvalidModel(_))
        ));
    }

    #[test]
    fn multi_reports_one_per_npu() {
        let model = registry::model("df").expect("registered");
        let mut sys = TnpuSystem::new(NpuConfig::large_npu(), SchemeKind::TreeBased);
        let reports = sys.run_inference_multi(&model, 3).expect("valid");
        assert_eq!(reports.len(), 3);
    }

    #[test]
    fn end_to_end_exceeds_npu_only() {
        let model = registry::model("df").expect("registered");
        let mut sys = TnpuSystem::new(NpuConfig::small_npu(), SchemeKind::Treeless);
        let npu_only = sys.run_inference(&model).expect("valid").total_time;
        let e2e = sys.run_end_to_end(&model).expect("valid").total;
        assert!(e2e > npu_only);
    }
}
