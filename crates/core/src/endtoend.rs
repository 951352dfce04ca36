//! End-to-end latency model (paper §V-D, Fig. 17).
//!
//! The end-to-end latency runs "from the completion of data transfer from
//! the sensor, to the return of the inference output from NPU to CPU".
//! Besides the NPU computation it adds the CPU-side phases, of which "the
//! dominant extra latency is for the initial transfer of model parameters
//! to the memory region of the NPU context": the enclave streams the input
//! and every weight tensor through the protected-write path, the NPU runs
//! the inference, and the CPU reads the output back. Following the paper's
//! conservative choice, the parameter initialization is charged to a
//! single request (no amortization).

use tnpu_memprot::{build_engine, ProtectionConfig, SchemeKind};
use tnpu_models::Model;
use tnpu_npu::alloc::ModelLayout;
use tnpu_npu::controller::MemoryController;
use tnpu_npu::dma::{Dir, DmaPattern, Transfer};
use tnpu_npu::machine::NpuMachine;
use tnpu_npu::{tiler, NpuConfig};
use tnpu_sim::{Addr, Cycles};

/// Phase breakdown of one end-to-end request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndToEndReport {
    /// Scheme used.
    pub scheme: SchemeKind,
    /// Completion of the CPU-side initialization (input + parameters).
    pub init_done: Cycles,
    /// Completion of the NPU inference.
    pub inference_done: Cycles,
    /// Completion of the CPU output readback — the end-to-end latency.
    pub total: Cycles,
}

impl EndToEndReport {
    /// End-to-end time of this run divided by `baseline`'s.
    #[must_use]
    pub fn normalized_to(&self, baseline: &EndToEndReport) -> f64 {
        self.total.as_f64() / baseline.total.as_f64()
    }
}

/// Stream one tensor through the CPU protected path as a single long
/// burst: the write-combining `ts_write_block` loop issues back-to-back
/// blocks, so DRAM fill latency is paid once per tensor.
fn stream_tensor(
    ctl: &mut MemoryController,
    info: tnpu_npu::alloc::TensorInfo,
    dir: Dir,
    arrival: Cycles,
) -> Cycles {
    let t = Transfer {
        pattern: DmaPattern::Contiguous {
            base: info.addr,
            bytes: info.bytes,
        },
        dir,
        tensor_id: info.id,
        tile_id: 0,
        version: 1,
    };
    ctl.serve(&t, arrival).completion
}

/// Run the complete request path for `model` on one NPU under `scheme`.
#[must_use]
pub fn run_end_to_end(model: &Model, npu: &NpuConfig, scheme: SchemeKind) -> EndToEndReport {
    run_end_to_end_seeded(model, npu, scheme, 0xE2E)
}

/// [`run_end_to_end`] with an explicit workload seed for the embedding
/// gather streams — the hook sweep runners use to key each cell's RNG to
/// what is simulated rather than to a shared constant.
#[must_use]
pub fn run_end_to_end_seeded(
    model: &Model,
    npu: &NpuConfig,
    scheme: SchemeKind,
    seed: u64,
) -> EndToEndReport {
    let engine = build_engine(scheme, &ProtectionConfig::paper_default());
    let mut ctl = MemoryController::new(engine, npu);
    let layout = ModelLayout::allocate(model, Addr(0));

    // Phase 1: CPU-side initialization — the input tensor plus every
    // distinct weight tensor (tied weights are written once).
    let mut init_done = stream_tensor(&mut ctl, layout.input, Dir::Write, Cycles::ZERO);
    for (li, weight) in layout.weights.iter().enumerate() {
        if let Some(w) = weight {
            // tnpu-lint: allow(panic-path) — the layout has one weight slot
            // per layer of `model`, the model it was allocated for.
            if model.layers[li].weights_shared_with.is_some() {
                continue;
            }
            init_done = stream_tensor(&mut ctl, *w, Dir::Write, init_done);
        }
    }

    // Phase 2: NPU inference. The controller is busy until init_done, so
    // the machine's transfers queue behind the initialization.
    let plan = tiler::plan(model, npu, &layout, seed);
    let mut machine = NpuMachine::new(&plan);
    while !machine.is_done() {
        machine.serve_next(&mut ctl);
    }
    let report = machine.into_report(&ctl);
    let inference_done = report.total;

    // Phase 3: CPU reads the output back.
    // tnpu-lint: allow(panic-path) — every registry model has layers, and
    // the layout allocates one output per layer.
    let out = *layout.outputs.last().expect("models have layers");
    let total = stream_tensor(&mut ctl, out, Dir::Read, inference_done);

    EndToEndReport {
        scheme,
        init_done,
        inference_done,
        total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnpu_models::registry;

    fn e2e(name: &str, scheme: SchemeKind) -> EndToEndReport {
        let model = registry::model(name).expect("registered");
        run_end_to_end(&model, &NpuConfig::small_npu(), scheme)
    }

    #[test]
    fn phases_are_ordered() {
        let r = e2e("df", SchemeKind::Unsecure);
        assert!(r.init_done.0 > 0);
        assert!(r.inference_done > r.init_done);
        assert!(r.total > r.inference_done);
    }

    #[test]
    fn end_to_end_ordering_across_schemes() {
        let u = e2e("df", SchemeKind::Unsecure);
        let t = e2e("df", SchemeKind::Treeless);
        let b = e2e("df", SchemeKind::TreeBased);
        assert!(u.total <= t.total);
        assert!(t.total <= b.total);
    }

    #[test]
    fn overheads_are_diluted_for_gather_heavy_models() {
        // Fig. 17's point: the end-to-end overheads (14.1 % baseline
        // average) sit below the NPU-only ones (21.1 %) because the models
        // with spiky inference overhead (fine-grained gathers) stream
        // their parameters cheaply during initialization. ncf is the
        // cheapest such model to simulate.
        let model = registry::model("ncf").expect("registered");
        let npu = NpuConfig::small_npu();
        let u_npu = tnpu_npu::simulate(&model, &npu, SchemeKind::Unsecure)
            .total
            .as_f64();
        let b_npu = tnpu_npu::simulate(&model, &npu, SchemeKind::TreeBased)
            .total
            .as_f64();
        let u = run_end_to_end(&model, &npu, SchemeKind::Unsecure);
        let b = run_end_to_end(&model, &npu, SchemeKind::TreeBased);
        let npu_overhead = b_npu / u_npu;
        let e2e_overhead = b.normalized_to(&u);
        assert!(e2e_overhead > 1.0);
        assert!(
            e2e_overhead < npu_overhead,
            "e2e {e2e_overhead:.3} should be diluted below npu-only {npu_overhead:.3}"
        );
    }

    #[test]
    fn init_scales_with_parameters() {
        // A parameter-heavy model spends proportionally longer in init.
        let light = e2e("df", SchemeKind::Unsecure);
        let heavy = e2e("alex", SchemeKind::Unsecure);
        let light_frac = light.init_done.as_f64() / light.total.as_f64();
        let heavy_frac = heavy.init_done.as_f64() / heavy.total.as_f64();
        assert!(heavy_frac > light_frac);
    }
}
