#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! Cycle-level NPU simulator for the TNPU reproduction.
//!
//! Mirrors the paper's methodology (§V-A): an in-house simulator in the
//! SCALE-Sim tradition, extended with inter-layer connections and the
//! security engine. The simulated NPU has:
//!
//! 1. a scratchpad memory (SPM) as its on-chip buffer,
//! 2. double buffering overlapping data transfer with computation,
//! 3. a weight-stationary systolic array of processing elements, and
//! 4. an on-the-fly hardware im2col block,
//!
//! driven by a `mvin`/`mvout`/`compute` instruction stream, with a simple
//! bandwidth-limited memory model (100-cycle DRAM latency).
//!
//! Module map:
//!
//! * [`config`] — the Small (Exynos 990) and Large (Ethos N77) NPU
//!   configurations of Table II.
//! * [`dma`] — DMA transfer patterns (contiguous / strided / scattered) and
//!   their 64 B block streams.
//! * [`systolic`] — the analytical weight-stationary array timing model.
//! * [`alloc`] — tensor address allocation in the NPU's protected region.
//! * [`tiler`] — lowers a [`tnpu_models::Model`] into per-layer tile jobs
//!   (`mvin`/`compute`/`mvout` sequences) that fit the SPM.
//! * [`controller`] — the shared memory controller: serializes DMA
//!   transfers from all NPUs and drives the
//!   [`tnpu_memprot::ProtectionEngine`] per 64 B block.
//! * [`machine`] — one NPU's double-buffered execution state machine.
//! * [`trace`] — scheme-independent tile traces, lowered once per
//!   (models, NPU config, seed) and replayed against many engines.
//! * [`multi`] — the per-NPU address regions and default seed of N NPUs
//!   sharing the controller and security engine (the paper's scalability
//!   study, §V-C), and the step-loop entry point.
//! * [`report`] — run reports (cycles, traffic, engine statistics).

pub mod alloc;
pub mod config;
pub mod controller;
pub mod dma;
pub mod machine;
pub mod multi;
pub mod report;
pub mod systolic;
pub mod tiler;
pub mod trace;

pub use config::NpuConfig;
pub use report::RunReport;
pub use trace::TileTrace;

use tnpu_memprot::{build_engine, ProtectionConfig, SchemeKind};
use tnpu_models::Model;

/// Simulate one inference of `model` on a single NPU under `scheme`.
///
/// Convenience wrapper over the full pipeline (allocate → tile → run).
///
/// # Examples
///
/// ```
/// use tnpu_npu::{simulate, NpuConfig};
/// use tnpu_memprot::SchemeKind;
///
/// let model = tnpu_models::registry::model("alex").expect("registered");
/// let unsecure = simulate(&model, &NpuConfig::small_npu(), SchemeKind::Unsecure);
/// let tnpu = simulate(&model, &NpuConfig::small_npu(), SchemeKind::Treeless);
/// assert!(tnpu.total.0 >= unsecure.total.0);
/// ```
#[must_use]
pub fn simulate(model: &Model, npu: &NpuConfig, scheme: SchemeKind) -> RunReport {
    simulate_multi(model, npu, scheme, 1)
        .into_iter()
        .next()
        .expect("one NPU yields one report")
}

/// Simulate `count` NPUs each running one inference of `model`, sharing the
/// memory controller and one security engine (§V-C). Returns one report per
/// NPU.
///
/// # Panics
///
/// Panics if `count` is zero.
#[must_use]
pub fn simulate_multi(
    model: &Model,
    npu: &NpuConfig,
    scheme: SchemeKind,
    count: usize,
) -> Vec<RunReport> {
    TileTrace::build_replicated(model, npu, count, multi::DEFAULT_BASE_SEED).replay(
        build_engine(scheme, &ProtectionConfig::paper_default()),
        npu,
        count,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schemes_order_sanely_on_a_small_model() {
        let model = tnpu_models::registry::model("df").expect("registered");
        let cfg = NpuConfig::small_npu();
        let unsec = simulate(&model, &cfg, SchemeKind::Unsecure).total;
        let tree = simulate(&model, &cfg, SchemeKind::TreeBased).total;
        let tnpu = simulate(&model, &cfg, SchemeKind::Treeless).total;
        assert!(unsec <= tnpu, "protection cannot be free");
        assert!(tnpu <= tree, "tree-less must not exceed tree-based");
    }
}
