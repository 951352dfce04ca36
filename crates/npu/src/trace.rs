//! Scheme-independent tile traces: lower once, replay against many engines.
//!
//! Lowering a model (allocate → tile → lower to `mvin`/`compute`/`mvout`
//! jobs) is a pure function of the model, the NPU configuration, the NPU's
//! region base address and the per-NPU workload seed — the protection
//! scheme never feeds into it. Yet the experiment sweeps re-ran the whole
//! tiler for every (scheme × cell), the matrix dimension that dominates
//! cell count. A [`TileTrace`] captures the lowered per-NPU plans once and
//! [`replay`]s them against any engine; only the (cheap) earliest-arrival
//! scheduling loop re-runs, because the *interleaving* of transfers does
//! depend on the scheme's timing.
//!
//! Replays are sound across two more dimensions:
//!
//! * **NPU count** — NPU `i`'s plan depends only on its own index (region
//!   base `i * NPU_REGION_STRIDE`, seed stream `i`), never on how many
//!   NPUs run beside it, so a trace built for N NPUs replays any
//!   `count <= N` as a prefix.
//! * **Protection parameters** — cache sizes, tree arity and counter
//!   granularity only affect the engine, so ablation variants share one
//!   trace too.
//!
//! [`replay`]: TileTrace::replay

use crate::alloc::ModelLayout;
use crate::config::NpuConfig;
use crate::controller::MemoryController;
use crate::machine::NpuMachine;
use crate::multi::NPU_REGION_STRIDE;
use crate::report::RunReport;
use crate::tiler::{self, ModelPlan};
use tnpu_memprot::ProtectionEngine;
use tnpu_models::Model;
use tnpu_sim::rng::SplitMix64;
use tnpu_sim::Addr;

/// The scheme-independent part of a multi-NPU simulation: one lowered
/// [`ModelPlan`] per NPU, in NPU-index order.
#[derive(Debug, Clone)]
pub struct TileTrace {
    plans: Vec<ModelPlan>,
}

impl TileTrace {
    /// Lower one NPU per entry of `models` (heterogeneous tenancy), with
    /// per-NPU seeds split from `base_seed` by NPU index — never by
    /// host-thread identity, so a run's results depend only on its inputs.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty or a model's tensors exceed the per-NPU
    /// region.
    #[must_use]
    pub fn build(models: &[&Model], npu: &NpuConfig, base_seed: u64) -> Self {
        assert!(!models.is_empty(), "need at least one NPU");
        let plans = models
            .iter()
            .enumerate()
            .map(|(i, model)| {
                let base = Addr(i as u64 * NPU_REGION_STRIDE);
                let layout = ModelLayout::allocate(model, base);
                assert!(
                    layout.total_bytes <= NPU_REGION_STRIDE,
                    "model does not fit the per-NPU region"
                );
                // Different streams: each NPU serves different requests
                // (distinct embedding gathers), like independent inference
                // streams — split per NPU index, never per worker thread.
                let seed = SplitMix64::stream(base_seed, i as u64).next_u64();
                tiler::plan(model, npu, &layout, seed)
            })
            .collect();
        TileTrace { plans }
    }

    /// [`build`] for `count` NPUs all inferring the same `model`.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or the model's tensors exceed the per-NPU
    /// region.
    ///
    /// [`build`]: TileTrace::build
    #[must_use]
    pub fn build_replicated(model: &Model, npu: &NpuConfig, count: usize, base_seed: u64) -> Self {
        assert!(count > 0, "need at least one NPU");
        let models: Vec<&Model> = std::iter::repeat_n(model, count).collect();
        Self::build(&models, npu, base_seed)
    }

    /// Lower a step-loop workload — one model per step of an
    /// autoregressive decode or training session — into a single plan per
    /// NPU, for `count` NPUs each executing the full sequence. Step `s`
    /// of NPU `i` is lowered exactly like a standalone launch of that
    /// step's model in NPU `i`'s region (same base address, the `s`-th
    /// seed of the NPU's stream), then the per-step job streams are
    /// concatenated in step order with layer indices rebased, so
    /// [`replay`] — and everything built on it, including the trace-once
    /// batching — works on stepped traces unchanged. Layer names carry an
    /// `"s{step}."` prefix so per-layer reports stay unambiguous.
    ///
    /// Successive steps reuse the region's addresses: the step kernel
    /// re-launches over the same tensor arena while the KV caches grow in
    /// place, which is what charges the per-step version-metadata traffic
    /// through the engine on every step's transfers.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty, `count` is zero, or a step's tensors
    /// exceed the per-NPU region.
    ///
    /// [`replay`]: TileTrace::replay
    #[must_use]
    pub fn build_steps(steps: &[&Model], npu: &NpuConfig, count: usize, base_seed: u64) -> Self {
        assert!(!steps.is_empty(), "need at least one step");
        assert!(count > 0, "need at least one NPU");
        let plans = (0..count)
            .map(|i| {
                let base = Addr(i as u64 * NPU_REGION_STRIDE);
                // Same per-NPU stream as `build`: the s-th step consumes
                // the stream's s-th draw, so a one-step stepped trace is
                // job-identical to the plain single-model trace.
                let mut rng = SplitMix64::stream(base_seed, i as u64);
                let mut jobs = Vec::new();
                let mut layer_jobs = Vec::new();
                let mut layer_names = Vec::new();
                let mut layout = None;
                for (si, model) in steps.iter().enumerate() {
                    let step_layout = ModelLayout::allocate(model, base);
                    assert!(
                        step_layout.total_bytes <= NPU_REGION_STRIDE,
                        "step model does not fit the per-NPU region"
                    );
                    let seed = rng.next_u64();
                    let p =
                        tiler::plan_with_prefix(model, npu, &step_layout, seed, &format!("s{si}."));
                    let job_off = jobs.len();
                    let layer_off = layer_jobs.len();
                    jobs.extend(p.jobs.into_iter().map(|mut j| {
                        j.layer += layer_off;
                        j
                    }));
                    layer_jobs.extend(
                        p.layer_jobs
                            .into_iter()
                            .map(|(s, e)| (s + job_off, e + job_off)),
                    );
                    layer_names.extend(p.layer_names);
                    layout = Some(p.layout);
                }
                ModelPlan {
                    jobs,
                    layer_jobs,
                    layer_names,
                    // The final step's map (the fully grown caches) — the
                    // replay machinery never consumes it; kept for
                    // inspection like the single-model plans'.
                    layout: layout.expect("at least one step"),
                }
            })
            .collect();
        TileTrace { plans }
    }

    /// Number of NPUs the trace covers (the maximum replayable `count`).
    #[must_use]
    pub fn npus(&self) -> usize {
        self.plans.len()
    }

    /// Replay the first `count` NPUs' plans against `engine`: the shared
    /// memory controller serves, at every step, the machine whose next
    /// transfer has the earliest arrival time, exactly as the build path
    /// does. Returns one report per NPU.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or exceeds [`npus`].
    ///
    /// [`npus`]: TileTrace::npus
    #[must_use]
    pub fn replay(
        &self,
        engine: Box<dyn ProtectionEngine>,
        npu: &NpuConfig,
        count: usize,
    ) -> Vec<RunReport> {
        assert!(count > 0, "need at least one NPU");
        assert!(
            count <= self.plans.len(),
            "trace covers {} NPUs, asked for {count}",
            self.plans.len()
        );
        let mut machines: Vec<_> = self.plans[..count].iter().map(NpuMachine::new).collect();
        let mut ctl = MemoryController::new(engine, npu);
        loop {
            let next = machines
                .iter()
                .enumerate()
                .filter_map(|(i, m)| m.next_arrival().map(|a| (a, i)))
                .min();
            match next {
                Some((_, i)) => machines[i].serve_next(&mut ctl),
                None => break,
            }
        }
        machines.into_iter().map(|m| m.into_report(&ctl)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnpu_memprot::{build_engine, ProtectionConfig, SchemeKind};

    fn model(name: &str) -> Model {
        tnpu_models::registry::model(name).expect("registered")
    }

    fn engine(scheme: SchemeKind) -> Box<dyn ProtectionEngine> {
        build_engine(scheme, &ProtectionConfig::paper_default())
    }

    #[test]
    fn prefix_replay_matches_smaller_build() {
        // A trace built for 3 NPUs replays 1- and 2-NPU runs exactly as
        // traces built at that size: plans depend on the NPU's own index,
        // never on the count.
        let m = model("df");
        let npu = NpuConfig::small_npu();
        let big = TileTrace::build_replicated(&m, &npu, 3, 0xBEEF);
        for count in 1..=2usize {
            let small = TileTrace::build_replicated(&m, &npu, count, 0xBEEF);
            let a = big.replay(engine(SchemeKind::Treeless), &npu, count);
            let b = small.replay(engine(SchemeKind::Treeless), &npu, count);
            assert_eq!(a, b, "count {count}");
        }
    }

    #[test]
    fn replay_does_not_consume_the_trace() {
        let m = model("df");
        let npu = NpuConfig::small_npu();
        let trace = TileTrace::build_replicated(&m, &npu, 1, 7);
        let a = trace.replay(engine(SchemeKind::Unsecure), &npu, 1);
        let b = trace.replay(engine(SchemeKind::Unsecure), &npu, 1);
        assert_eq!(a, b, "replay is repeatable from one trace");
    }

    #[test]
    #[should_panic(expected = "trace covers 1 NPUs")]
    fn oversized_replay_panics() {
        let m = model("df");
        let npu = NpuConfig::small_npu();
        let trace = TileTrace::build_replicated(&m, &npu, 1, 7);
        let _ = trace.replay(engine(SchemeKind::Unsecure), &npu, 2);
    }

    fn decode_steps(n: u64) -> Vec<Model> {
        (1..=n)
            .map(tnpu_models::defs::dynamic::decode_step)
            .collect()
    }

    #[test]
    fn one_step_trace_is_job_identical_to_the_plain_trace() {
        // A stepped trace of a single step must lower the exact same job
        // stream as the plain single-model trace (same region base, same
        // seed draw) — only the report names carry the step prefix.
        let m = model("ncf");
        let npu = NpuConfig::small_npu();
        let stepped = TileTrace::build_steps(&[&m], &npu, 2, 0xBEEF);
        let plain = TileTrace::build_replicated(&m, &npu, 2, 0xBEEF);
        for (s, p) in stepped.plans.iter().zip(&plain.plans) {
            assert_eq!(s.jobs, p.jobs);
            assert_eq!(s.layer_jobs, p.layer_jobs);
            assert_eq!(s.layer_names[0], format!("s0.{}", p.layer_names[0]));
        }
    }

    #[test]
    fn stepped_replay_is_deterministic_for_every_scheme() {
        let steps = decode_steps(4);
        let refs: Vec<&Model> = steps.iter().collect();
        let npu = NpuConfig::small_npu();
        let trace = TileTrace::build_steps(&refs, &npu, 2, 0xBEEF);
        let again = TileTrace::build_steps(&refs, &npu, 2, 0xBEEF);
        for scheme in SchemeKind::ALL {
            let a = trace.replay(engine(scheme), &npu, 2);
            let b = again.replay(engine(scheme), &npu, 2);
            assert_eq!(a, b, "{scheme}");
        }
    }

    #[test]
    fn stepped_prefix_replay_matches_smaller_build() {
        // Like the static prefix property: NPU i's stepped plan depends
        // only on its own index, so a trace built for 3 NPUs replays 1-
        // and 2-NPU sessions exactly as traces built at that size.
        let steps = decode_steps(3);
        let refs: Vec<&Model> = steps.iter().collect();
        let npu = NpuConfig::small_npu();
        let big = TileTrace::build_steps(&refs, &npu, 3, 0xBEEF);
        for count in 1..=2usize {
            let small = TileTrace::build_steps(&refs, &npu, count, 0xBEEF);
            let a = big.replay(engine(SchemeKind::Treeless), &npu, count);
            let b = small.replay(engine(SchemeKind::Treeless), &npu, count);
            assert_eq!(a, b, "count {count}");
        }
    }

    #[test]
    fn stepped_layers_accumulate_across_steps() {
        let steps = decode_steps(5);
        let refs: Vec<&Model> = steps.iter().collect();
        let npu = NpuConfig::small_npu();
        let trace = TileTrace::build_steps(&refs, &npu, 1, 7);
        let per_step = steps[0].layers.len();
        let reports = trace.replay(engine(SchemeKind::Treeless), &npu, 1);
        assert_eq!(reports[0].layers.len(), 5 * per_step);
        // Later steps attend over longer caches, so the whole-session
        // cycle count strictly exceeds five replays of the first step.
        let first_only = TileTrace::build_steps(&refs[..1], &npu, 1, 7).replay(
            engine(SchemeKind::Treeless),
            &npu,
            1,
        );
        assert!(reports[0].total.0 > 5 * first_only[0].total.0 / 2);
    }
}
