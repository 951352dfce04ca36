//! Multi-tenant secure serving: request generation, scheduling, and
//! faithful context-switch accounting (paper §IV-E).
//!
//! The paper's evaluation runs one inference at a time; a real deployment
//! multiplexes many tenants' enclaves over a pool of NPUs. This module
//! simulates that serving plane on top of the existing single-inference
//! machinery:
//!
//! * **Request generation** — open-loop Poisson and bursty arrival
//!   processes over a weighted per-model traffic mix. Arrival times and model picks are derived
//!   from labels via [`SplitMix64::seed_from_labels`] — never from the
//!   scheme or the scheduling policy — so every scheme serves the
//!   *identical* request stream and tail latencies compare like with
//!   like.
//! * **Scheduling** — FCFS and priority-preemptive policies over an
//!   NPU pool. Preemption happens only at layer boundaries: a layer's
//!   tile loop is not interruptible (suspending mid-layer would leave a
//!   tensor half-bumped, exactly the state
//!   [`SecureRunner`](crate::secure_runner::SecureRunner) refuses to
//!   expose).
//! * **Context-switch accounting** — suspending a secure context is not
//!   free. A switch-out saves the software
//!   [`VersionTable`](crate::VersionTable) (one
//!   [`version_access`](tnpu_memprot::ProtectionEngine::version_access)
//!   per entry for the treeless scheme — the table lives in the
//!   fully-protected region), flushes the engine's dirty metadata
//!   ([`flush`](tnpu_memprot::ProtectionEngine::flush)), moves the table
//!   image plus the engine's per-context state
//!   ([`context_state_bytes`](tnpu_memprot::ProtectionEngine::context_state_bytes))
//!   as protected-region DMA priced by [`AccessCost::beat_cycles`], and
//!   shoots down the IOMMU TLB
//!   (cf. [`context`](crate::context)'s stale-translation hazard). A
//!   switch-in replays the table transfer, re-programs NELRANGE, and
//!   re-fills nothing — caches warm up on their own cycles. The unsecure
//!   scheme has no engine state, no version table, and no enclave, so its
//!   switches cost exactly zero; the gap *is* the cost of trusted
//!   execution.
//!
//! The simulator is a discrete-event loop over integer cycle time with a
//! deterministic tie-break sequence, so a serving cell's
//! [`ServeReport`] is a pure function of its [`ServeSpec`] — byte-stable
//! across runs, thread counts, and machines.
//!
//! Serving is modeled: no request moves real bytes. Every switch spills
//! the fresh, fully merged version table of the request's model, which
//! is exact because a static model is fully merged at every layer
//! boundary. A test drives real tree-less sessions through every boundary
//! to check both that equality and that suspending and resuming there
//! never changes what a tenant computes.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, OnceLock};

use crate::secure_runner::register_tensors;
use crate::version::ENTRY_BYTES;
use crate::{RunSpec, Scheme};
use tnpu_memprot::{build_engine, AccessCost, ProtectionConfig, ProtectionEngine};
use tnpu_models::registry;
use tnpu_npu::alloc::ModelLayout;
use tnpu_npu::NpuConfig;
use tnpu_sim::dram::{BandwidthModel, DramTiming};
use tnpu_sim::rng::SplitMix64;
use tnpu_sim::Addr;

/// Cycles to re-program the NELRANGE base/bound registers and the
/// per-context key slots on a switch-in (a handful of uncached MMIO
/// writes through the secure driver path).
pub const NELRANGE_PROGRAM_CYCLES: u64 = 200;

/// Cycles for the IOMMU TLB shoot-down a switch-out must complete before
/// the NPU can be handed to another context (invalidate + ack round
/// trip; cf. the stale-translation hazard in [`crate::context`]).
pub const TLB_SHOOTDOWN_CYCLES: u64 = 150;

/// Protected-region address at which a suspended context's version-table
/// image is spilled (inside NELRANGE, above the live table).
const VT_SPILL_BASE: u64 = 0x3800_0000;

/// How requests arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Open loop, exponential inter-arrivals at `load_pct`% of the
    /// pool's unsecure service capacity.
    Poisson {
        /// Offered load as a percentage of pool capacity (100 = the pool
        /// can just barely keep up at unsecure speed).
        load_pct: u32,
    },
    /// Open loop, arrivals in back-to-back bursts of `burst` requests;
    /// exponential gaps between bursts keep the same average load.
    Bursty {
        /// Offered load, as for [`ArrivalProcess::Poisson`].
        load_pct: u32,
        /// Requests per burst (all arrive at the same cycle).
        burst: u32,
    },
}

impl ArrivalProcess {
    /// Stable label, part of seed derivation and report headers.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            ArrivalProcess::Poisson { load_pct } => format!("poisson-{load_pct}"),
            ArrivalProcess::Bursty { load_pct, burst } => format!("bursty-{load_pct}x{burst}"),
        }
    }
}

/// Scheduling policy for the NPU pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// First come, first served; a dispatched request runs to completion.
    Fcfs,
    /// Priority preemptive: at every layer boundary a running request
    /// yields to a strictly higher-priority waiter (FCFS within a
    /// priority level; preempted requests keep their arrival order).
    Preemptive,
}

impl Policy {
    /// Stable label for report headers.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Policy::Fcfs => "fcfs",
            Policy::Preemptive => "preempt",
        }
    }
}

/// One model's share of the traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixEntry {
    /// Registered model short name.
    pub model: String,
    /// Relative arrival weight.
    pub weight: u32,
    /// Priority (higher runs first under [`Policy::Preemptive`]).
    pub priority: u8,
}

/// A named, weighted traffic mix over the model zoo.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficMix {
    /// Mix name — part of seed derivation.
    pub name: String,
    /// The models and their weights/priorities.
    pub entries: Vec<MixEntry>,
}

impl TrafficMix {
    /// Build a mix from `(model, weight, priority)` triples.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty or all weights are zero.
    #[must_use]
    pub fn new(name: &str, entries: &[(&str, u32, u8)]) -> Self {
        assert!(
            !entries.is_empty(),
            "a traffic mix needs at least one model"
        );
        assert!(
            entries.iter().any(|&(_, w, _)| w > 0),
            "a traffic mix needs a nonzero weight"
        );
        TrafficMix {
            name: name.to_owned(),
            entries: entries
                .iter()
                .map(|&(model, weight, priority)| MixEntry {
                    model: model.to_owned(),
                    weight,
                    priority,
                })
                .collect(),
        }
    }
}

/// One cell of the serving grid: everything [`simulate`] needs.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Experiment label — part of seed derivation, like
    /// [`RunSpec::experiment`].
    pub experiment: String,
    /// Traffic mix served.
    pub mix: TrafficMix,
    /// Arrival process.
    pub arrival: ArrivalProcess,
    /// Scheduling policy.
    pub policy: Policy,
    /// Protection scheme (switch costs and service times).
    pub scheme: Scheme,
    /// NPU configuration of every pool member.
    pub config: NpuConfig,
    /// NPUs in the pool.
    pub npus: usize,
    /// Requests to serve.
    pub requests: usize,
}

impl ServeSpec {
    /// A serving cell with the given knobs.
    ///
    /// The knob list mirrors the cell coordinates of the serving grid
    /// one-for-one; bundling them into an options struct would just
    /// rename the same eight fields.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        experiment: &str,
        mix: TrafficMix,
        arrival: ArrivalProcess,
        policy: Policy,
        scheme: Scheme,
        config: &NpuConfig,
        npus: usize,
        requests: usize,
    ) -> Self {
        ServeSpec {
            experiment: experiment.to_owned(),
            mix,
            arrival,
            policy,
            scheme,
            config: config.clone(),
            npus,
            requests,
        }
    }

    /// The request-stream seed — a pure function of
    /// `(experiment, mix, arrival, config)`. The scheme and the policy
    /// are deliberately excluded so every scheme × policy cell of one
    /// serving group replays the identical request stream.
    #[must_use]
    pub fn stream_seed(&self) -> u64 {
        SplitMix64::seed_from_labels(&[
            "serve",
            &self.experiment,
            &self.mix.name,
            &self.arrival.label(),
            self.config.name,
        ])
    }

    /// `mix/arrival/policy/scheme/npus` — the label serving jobs report
    /// timings under.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/{}/{}",
            self.mix.name,
            self.arrival.label(),
            self.policy.label(),
            self.scheme.label(),
            self.npus
        )
    }
}

/// What happened to one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestOutcome {
    /// Model served.
    pub model: String,
    /// Priority it was served at.
    pub priority: u8,
    /// Arrival cycle.
    pub arrival: u64,
    /// Cycle the first layer started (after the first switch-in).
    pub start: u64,
    /// Cycle the last layer finished.
    pub finish: u64,
    /// Times this request was preempted.
    pub preemptions: u32,
}

impl RequestOutcome {
    /// End-to-end latency (arrival → last layer done).
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.finish.saturating_sub(self.arrival)
    }
}

/// Result of simulating one [`ServeSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Scheme served.
    pub scheme: Scheme,
    /// Policy used.
    pub policy: Policy,
    /// Arrival-process label.
    pub arrival: String,
    /// Per-request outcomes, in arrival order.
    pub outcomes: Vec<RequestOutcome>,
    /// Context switch-ins (dispatches + resumptions).
    pub dispatches: u64,
    /// Preemptions across all requests.
    pub preemptions: u64,
    /// Cycles spent switching contexts (in + out), across the pool.
    pub switch_cycles: u64,
    /// Security-metadata bytes the switches moved.
    pub switch_meta_bytes: u64,
    /// Cycle the last NPU went idle.
    pub makespan: u64,
}

impl ServeReport {
    /// Nearest-rank latency percentile (`pct` in 1..=100), in cycles.
    ///
    /// # Panics
    ///
    /// Panics if there are no outcomes or `pct` is out of range.
    #[must_use]
    pub fn latency_percentile(&self, pct: u32) -> u64 {
        assert!((1..=100).contains(&pct), "percentile must be in 1..=100");
        let mut lat: Vec<u64> = self.outcomes.iter().map(RequestOutcome::latency).collect();
        assert!(!lat.is_empty(), "no outcomes");
        lat.sort_unstable();
        let rank = (lat.len() as u64 * u64::from(pct)).div_ceil(100);
        lat[rank as usize - 1]
    }

    /// Mean latency in cycles (integer division).
    #[must_use]
    pub fn mean_latency(&self) -> u64 {
        if self.outcomes.is_empty() {
            return 0;
        }
        let sum: u128 = self.outcomes.iter().map(|o| u128::from(o.latency())).sum();
        (sum / self.outcomes.len() as u128) as u64
    }

    /// Throughput in requests per million cycles, ×1000 (integer, for
    /// byte-stable rendering).
    #[must_use]
    pub fn milli_requests_per_mcycle(&self) -> u64 {
        if self.makespan == 0 {
            return 0;
        }
        ((self.outcomes.len() as u128 * 1_000_000_000) / u128::from(self.makespan)) as u64
    }
}

/// Per-model data the simulator needs, memoized across requests.
struct ModelData {
    /// Per-layer service durations under the cell's scheme.
    durations: Vec<u64>,
    /// Unsecure end-to-end cycles (offered-load normalization).
    unsecure_total: u64,
    /// Bytes of the version table a treeless switch spills: one
    /// [`ENTRY_BYTES`] entry per registered tensor. A static model's
    /// table is fully merged at every layer boundary, so this is the live
    /// size at every switch.
    vt_bytes: u64,
}

/// Process-wide memo for [`ModelData`]: the per-layer service trace of a
/// `(experiment, model, config, scheme)` cell is a pure function of its
/// key, and serving grids ask for the same handful of models from every
/// worker. Purely a compute cache — results are identical either way.
type ModelDataKey = (String, String, &'static str, &'static str);

fn model_data(experiment: &str, name: &str, config: &NpuConfig, scheme: Scheme) -> Arc<ModelData> {
    static CACHE: OnceLock<Mutex<BTreeMap<ModelDataKey, Arc<ModelData>>>> = OnceLock::new();
    let key = (
        experiment.to_owned(),
        name.to_owned(),
        config.name,
        scheme.label(),
    );
    if let Some(hit) = CACHE
        .get_or_init(Mutex::default)
        .lock()
        .expect("model-data cache")
        .get(&key)
    {
        return Arc::clone(hit);
    }
    let data = Arc::new(model_data_uncached(experiment, name, config, scheme));
    CACHE
        .get_or_init(Mutex::default)
        .lock()
        .expect("model-data cache")
        .entry(key)
        .or_insert(data)
        .clone()
}

fn model_data_uncached(
    experiment: &str,
    name: &str,
    config: &NpuConfig,
    scheme: Scheme,
) -> ModelData {
    let report = RunSpec::new(experiment, name, config, scheme, 1)
        .execute()
        .into_slowest();
    let mut durations = Vec::with_capacity(report.layers.len());
    let mut prev = 0u64;
    for layer in &report.layers {
        durations.push(layer.finish.0.saturating_sub(prev));
        prev = layer.finish.0;
    }
    let unsecure_total = RunSpec::new(experiment, name, config, Scheme::Unsecure, 1)
        .execute()
        .into_slowest()
        .total
        .0;
    let model = registry::model(name).unwrap_or_else(|| panic!("model {name:?} not registered"));
    let layout = ModelLayout::allocate(&model, Addr(0));
    ModelData {
        durations,
        unsecure_total,
        // A fresh context's table, exactly as the static session registers it.
        vt_bytes: register_tensors(&model, &layout, false).0.storage_bytes(),
    }
}

/// Charges context-switch traffic through the cell's protection engine.
///
/// Crate-visible so sessions
/// ([`Session::preemption_cycles`](crate::secure_runner::Session::preemption_cycles))
/// bill their mid-sequence preemptions through the exact same cost model
/// as the serving plane.
pub(crate) struct Switcher {
    scheme: Scheme,
    engine: Box<dyn ProtectionEngine>,
    bandwidth: BandwidthModel,
    dram: DramTiming,
    pub(crate) cycles: u64,
    pub(crate) meta_bytes: u64,
}

impl Switcher {
    pub(crate) fn new(scheme: Scheme, config: &NpuConfig) -> Self {
        Switcher {
            scheme,
            engine: build_engine(scheme, &ProtectionConfig::paper_default()),
            bandwidth: config.bandwidth,
            dram: config.dram,
            cycles: 0,
            meta_bytes: 0,
        }
    }

    /// Cycles one switch direction costs. `out` is a switch-out (spill +
    /// flush + TLB shoot-down); otherwise a switch-in (reload + NELRANGE
    /// re-programming). Unsecure contexts have nothing to save and no
    /// enclave to tear down: exactly zero.
    ///
    /// `vt_bytes` must be the *live* table size — a tensor that is
    /// tile-expanded at switch time (a decode session's KV cache
    /// mid-sequence) spills one entry per tile, not one per tensor.
    /// Sessions take the size from their live table; [`simulate`] may use
    /// the static per-tensor count only because static models are fully
    /// merged at every layer boundary.
    pub(crate) fn charge(&mut self, vt_bytes: u64, out: bool) -> u64 {
        if self.scheme == Scheme::Unsecure {
            return 0;
        }
        let mut cost = AccessCost::FREE;
        // Only the treeless scheme keeps a software version table; the
        // tree-based and encrypt-only schemes spill engine state alone.
        let vt = if self.scheme == Scheme::Treeless {
            vt_bytes
        } else {
            0
        };
        for i in 0..vt / ENTRY_BYTES {
            cost.merge(
                self.engine
                    .version_access(Addr(VT_SPILL_BASE + i * ENTRY_BYTES), out),
            );
        }
        if out {
            cost.merge(self.engine.flush());
        }
        let moved = vt.saturating_add(self.engine.context_state_bytes());
        self.meta_bytes = self.meta_bytes.saturating_add(cost.meta_bytes);
        let beats = cost.beat_cycles(
            moved,
            &self.bandwidth,
            &self.dram,
            self.engine.pipeline_latency(),
        );
        let fixed = if out {
            TLB_SHOOTDOWN_CYCLES
        } else {
            NELRANGE_PROGRAM_CYCLES
        };
        let total = beats.saturating_add(fixed);
        self.cycles = self.cycles.saturating_add(total);
        total
    }
}

enum Event {
    Arrive(usize),
    LayerDone { req: usize, npu: usize },
    NpuFree(usize),
}

struct Ctx {
    entry: usize,
    arrival: u64,
    next_layer: usize,
    start: Option<u64>,
    preemptions: u32,
}

/// Simulate one serving cell.
///
/// Deterministic: the report is a pure function of `spec`.
///
/// # Panics
///
/// Panics if the spec is degenerate (no NPUs, no requests, unregistered
/// model).
#[must_use]
pub fn simulate(spec: &ServeSpec) -> ServeReport {
    assert!(spec.npus >= 1, "a pool needs at least one NPU");
    assert!(spec.requests >= 1, "serve at least one request");
    let base = spec.stream_seed();
    let mut gap_rng = SplitMix64::stream(base, 0);
    let mut pick_rng = SplitMix64::stream(base, 1);

    // Per-model service/spill data, memoized by model name.
    let mut data: BTreeMap<&str, Arc<ModelData>> = BTreeMap::new();
    for e in &spec.mix.entries {
        data.entry(&e.model)
            .or_insert_with(|| model_data(&spec.experiment, &e.model, &spec.config, spec.scheme));
    }

    // Offered-load normalization: the weighted-average unsecure service
    // time defines 100% load for one NPU.
    let total_weight: u64 = spec.mix.entries.iter().map(|e| u64::from(e.weight)).sum();
    let wavg_service: u64 = (spec
        .mix
        .entries
        .iter()
        .map(|e| u128::from(data[e.model.as_str()].unsecure_total) * u128::from(e.weight))
        .sum::<u128>()
        / u128::from(total_weight)) as u64;

    // Each request's mix entry, in arrival order (scheme/policy-free).
    // Arrival times come from the gap stream.
    let picks: Vec<usize> = (0..spec.requests)
        .map(|_| {
            let mut roll = pick_rng.next_below(total_weight);
            let mut entry = 0;
            for (i, e) in spec.mix.entries.iter().enumerate() {
                let w = u64::from(e.weight);
                if roll < w {
                    entry = i;
                    break;
                }
                roll -= w;
            }
            entry
        })
        .collect();

    let mut events: BTreeMap<(u64, u64), Event> = BTreeMap::new();
    let mut seq = 0u64;
    let push = |events: &mut BTreeMap<(u64, u64), Event>, seq: &mut u64, t: u64, e: Event| {
        events.insert((t, *seq), e);
        *seq += 1;
    };

    // Seed the arrival events.
    match spec.arrival {
        ArrivalProcess::Poisson { load_pct } => {
            assert!(load_pct > 0, "offered load must be positive");
            let mean = (u128::from(wavg_service) * 100 / (u128::from(load_pct) * spec.npus as u128))
                .max(1) as u64;
            let mut t = 0u64;
            for rid in 0..spec.requests {
                t = t.saturating_add(gap_rng.next_exponential(mean));
                push(&mut events, &mut seq, t, Event::Arrive(rid));
            }
        }
        ArrivalProcess::Bursty { load_pct, burst } => {
            assert!(load_pct > 0 && burst > 0, "degenerate burst process");
            let mean = (u128::from(wavg_service) * 100 * u128::from(burst)
                / (u128::from(load_pct) * spec.npus as u128))
                .max(1) as u64;
            let mut t = 0u64;
            for rid in 0..spec.requests {
                if (rid as u32).is_multiple_of(burst) {
                    t = t.saturating_add(gap_rng.next_exponential(mean));
                }
                push(&mut events, &mut seq, t, Event::Arrive(rid));
            }
        }
    }

    let mut ctxs: Vec<Option<Ctx>> = (0..spec.requests).map(|_| None).collect();
    // Waiting requests: (rank, arrival seq). FCFS ranks everyone equally;
    // preemptive ranks by inverted priority so the smallest key is the
    // most urgent, with arrival order breaking ties.
    let mut pending: BTreeSet<(u8, u64)> = BTreeSet::new();
    let rank = |policy: Policy, priority: u8| match policy {
        Policy::Fcfs => 0,
        Policy::Preemptive => u8::MAX - priority,
    };
    let mut free: BTreeSet<usize> = (0..spec.npus).collect();
    let mut switcher = Switcher::new(spec.scheme, &spec.config);

    let mut outcomes: Vec<Option<RequestOutcome>> = (0..spec.requests).map(|_| None).collect();
    let mut dispatches = 0u64;
    let mut preemptions = 0u64;
    let mut makespan = 0u64;
    let mut done = 0usize;

    while let Some((&(now, _), _)) = events.iter().next() {
        let key = *events.keys().next().expect("nonempty");
        let event = events.remove(&key).expect("present");
        makespan = makespan.max(now);
        match event {
            Event::Arrive(rid) => {
                let entry = &spec.mix.entries[picks[rid]];
                ctxs[rid] = Some(Ctx {
                    entry: picks[rid],
                    arrival: now,
                    next_layer: 0,
                    start: None,
                    preemptions: 0,
                });
                pending.insert((rank(spec.policy, entry.priority), rid as u64));
            }
            Event::LayerDone { req, npu } => {
                let ctx = ctxs[req].as_mut().expect("running context exists");
                let entry = &spec.mix.entries[ctx.entry];
                let md = &data[entry.model.as_str()];
                ctx.next_layer += 1;
                if ctx.next_layer == md.durations.len() {
                    // Complete: record the outcome, then pay the
                    // switch-out (final flush + TLB shoot-down) before
                    // the NPU can take the next context.
                    outcomes[req] = Some(RequestOutcome {
                        model: entry.model.clone(),
                        priority: entry.priority,
                        arrival: ctx.arrival,
                        start: ctx.start.expect("started"),
                        finish: now,
                        preemptions: ctx.preemptions,
                    });
                    done += 1;
                    let out_cycles = switcher.charge(md.vt_bytes, true);
                    push(&mut events, &mut seq, now + out_cycles, Event::NpuFree(npu));
                } else {
                    // Preemption point: yield only to a strictly more
                    // urgent waiter.
                    let my_rank = rank(spec.policy, entry.priority);
                    let preempt = spec.policy == Policy::Preemptive
                        && pending.iter().next().is_some_and(|&(r, _)| r < my_rank);
                    if preempt {
                        ctx.preemptions += 1;
                        preemptions += 1;
                        pending.insert((my_rank, req as u64));
                        let out_cycles = switcher.charge(md.vt_bytes, true);
                        push(&mut events, &mut seq, now + out_cycles, Event::NpuFree(npu));
                    } else {
                        let dur = md.durations[ctx.next_layer];
                        push(
                            &mut events,
                            &mut seq,
                            now + dur,
                            Event::LayerDone { req, npu },
                        );
                    }
                }
            }
            Event::NpuFree(npu) => {
                free.insert(npu);
            }
        }
        // Dispatch: fill free NPUs from the head of the queue.
        while !free.is_empty() && !pending.is_empty() {
            let &npu = free.iter().next().expect("nonempty");
            free.remove(&npu);
            let head = *pending.iter().next().expect("nonempty");
            pending.remove(&head);
            let rid = head.1 as usize;
            let ctx = ctxs[rid].as_mut().expect("pending context exists");
            let entry = &spec.mix.entries[ctx.entry];
            let md = &data[entry.model.as_str()];
            let in_cycles = switcher.charge(md.vt_bytes, false);
            dispatches += 1;
            let start = now + in_cycles;
            ctx.start.get_or_insert(start);
            let dur = md.durations[ctx.next_layer];
            push(
                &mut events,
                &mut seq,
                start + dur,
                Event::LayerDone { req: rid, npu },
            );
        }
    }

    assert_eq!(done, spec.requests, "every request must complete");
    ServeReport {
        scheme: spec.scheme,
        policy: spec.policy,
        arrival: spec.arrival.label(),
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("completed"))
            .collect(),
        dispatches,
        preemptions,
        switch_cycles: switcher.cycles,
        switch_meta_bytes: switcher.meta_bytes,
        makespan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::secure_runner::SecureRunner;
    use tnpu_crypto::Key128;
    use tnpu_memprot::functional::UnsecureMemory;

    fn mix() -> TrafficMix {
        TrafficMix::new("quick", &[("ncf", 3, 0), ("sent", 1, 2)])
    }

    fn spec(scheme: Scheme, policy: Policy, arrival: ArrivalProcess) -> ServeSpec {
        ServeSpec::new(
            "serve-test",
            mix(),
            arrival,
            policy,
            scheme,
            &NpuConfig::small_npu(),
            2,
            12,
        )
    }

    #[test]
    fn simulate_is_deterministic() {
        let s = spec(
            Scheme::Treeless,
            Policy::Preemptive,
            ArrivalProcess::Poisson { load_pct: 80 },
        );
        assert_eq!(simulate(&s), simulate(&s));
    }

    #[test]
    fn request_stream_ignores_scheme_and_policy() {
        let a = spec(
            Scheme::Unsecure,
            Policy::Fcfs,
            ArrivalProcess::Poisson { load_pct: 80 },
        );
        let b = spec(
            Scheme::Treeless,
            Policy::Preemptive,
            ArrivalProcess::Poisson { load_pct: 80 },
        );
        assert_eq!(a.stream_seed(), b.stream_seed());
        let ra = simulate(&a);
        let rb = simulate(&b);
        let ids = |r: &ServeReport| -> Vec<(String, u64)> {
            r.outcomes
                .iter()
                .map(|o| (o.model.clone(), o.arrival))
                .collect()
        };
        assert_eq!(ids(&ra), ids(&rb), "same arrivals, same models");
    }

    #[test]
    fn unsecure_switches_free_protected_switches_cost() {
        let arrival = ArrivalProcess::Poisson { load_pct: 80 };
        let free = simulate(&spec(Scheme::Unsecure, Policy::Fcfs, arrival));
        assert_eq!(free.switch_cycles, 0, "no enclave, nothing to save");
        assert!(free.dispatches >= 12, "every request dispatched");
        let mut prev = 0u64;
        for scheme in [Scheme::EncryptOnly, Scheme::TreeBased, Scheme::Treeless] {
            let r = simulate(&spec(scheme, Policy::Fcfs, arrival));
            assert!(
                r.switch_cycles > 0,
                "{scheme}: protected switches cost cycles"
            );
            assert!(
                r.switch_cycles > prev,
                "{scheme}: more state, costlier switch"
            );
            prev = r.switch_cycles;
        }
    }

    /// High offered load over a single NPU: high-priority arrivals always
    /// find the NPU busy and (under the preemptive policy) must evict the
    /// running context at its next layer boundary.
    fn contended(scheme: Scheme, policy: Policy) -> ServeSpec {
        let mut s = spec(scheme, policy, ArrivalProcess::Poisson { load_pct: 95 });
        s.npus = 1;
        s.requests = 20;
        s
    }

    #[test]
    fn fcfs_never_preempts_priority_does() {
        let fcfs = simulate(&contended(Scheme::Treeless, Policy::Fcfs));
        assert_eq!(fcfs.preemptions, 0);
        let pre = simulate(&contended(Scheme::Treeless, Policy::Preemptive));
        assert!(pre.preemptions > 0, "priority traffic must preempt");
        // Preemption is supposed to help the high-priority class.
        let high_mean = |r: &ServeReport| {
            let hi: Vec<u64> = r
                .outcomes
                .iter()
                .filter(|o| o.priority > 0)
                .map(RequestOutcome::latency)
                .collect();
            assert!(!hi.is_empty(), "mix draws some high-priority requests");
            hi.iter().sum::<u64>() / hi.len() as u64
        };
        assert!(
            high_mean(&pre) < high_mean(&fcfs),
            "preemption must cut high-priority latency ({} vs {})",
            high_mean(&pre),
            high_mean(&fcfs)
        );
    }

    #[test]
    fn bursty_arrivals_queue_harder_than_poisson() {
        let poisson = simulate(&spec(
            Scheme::Treeless,
            Policy::Fcfs,
            ArrivalProcess::Poisson { load_pct: 60 },
        ));
        let bursty = simulate(&spec(
            Scheme::Treeless,
            Policy::Fcfs,
            ArrivalProcess::Bursty {
                load_pct: 60,
                burst: 6,
            },
        ));
        assert!(
            bursty.latency_percentile(95) > poisson.latency_percentile(50),
            "bursts should stretch the tail"
        );
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mk = |lat: &[u64]| ServeReport {
            scheme: Scheme::Unsecure,
            policy: Policy::Fcfs,
            arrival: "test".to_owned(),
            outcomes: lat
                .iter()
                .map(|&l| RequestOutcome {
                    model: "m".to_owned(),
                    priority: 0,
                    arrival: 0,
                    start: 0,
                    finish: l,
                    preemptions: 0,
                })
                .collect(),
            dispatches: 0,
            preemptions: 0,
            switch_cycles: 0,
            switch_meta_bytes: 0,
            makespan: 100,
        };
        let r = mk(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(r.latency_percentile(50), 50);
        assert_eq!(r.latency_percentile(95), 100);
        assert_eq!(r.latency_percentile(99), 100);
        assert_eq!(r.latency_percentile(100), 100);
        assert_eq!(r.mean_latency(), 55);
        assert_eq!(r.milli_requests_per_mcycle(), 100_000_000);
    }

    /// The spill-sizing fix: a context whose table holds a tile-expanded
    /// tensor (a mid-sequence KV cache) must be billed one entry per
    /// tile. Same tensor count, more tiles, strictly costlier treeless
    /// switch — while the tree-based scheme, which keeps no software
    /// table, charges identically either way.
    #[test]
    fn expanded_tensor_spill_charges_per_tile_entries() {
        let config = NpuConfig::small_npu();
        // Three merged tensors vs the same three with one expanded to
        // 16 tiles (3 - 1 + 16 entries).
        let merged = 3 * ENTRY_BYTES;
        let expanded = (2 + 16) * ENTRY_BYTES;
        let charge_once = |scheme: Scheme, vt: u64| {
            let mut sw = Switcher::new(scheme, &config);
            let cycles = sw.charge(vt, true);
            (cycles, sw.meta_bytes)
        };
        let (tl_merged, tl_merged_meta) = charge_once(Scheme::Treeless, merged);
        let (tl_exp, tl_exp_meta) = charge_once(Scheme::Treeless, expanded);
        assert!(
            tl_exp > tl_merged,
            "per-tile entries must cost cycles ({tl_exp} vs {tl_merged})"
        );
        assert!(
            tl_exp_meta > tl_merged_meta,
            "per-tile entries must move metadata ({tl_exp_meta} vs {tl_merged_meta})"
        );
        let (tb_merged, _) = charge_once(Scheme::TreeBased, merged);
        let (tb_exp, _) = charge_once(Scheme::TreeBased, expanded);
        assert_eq!(
            tb_merged, tb_exp,
            "tree-based spills engine state alone, no version table"
        );
    }

    /// The modeled charge is exact: at every switch a request can take
    /// (first dispatch, each layer boundary, completion), the table a live
    /// tree-less session spills is the fresh merged table `simulate`
    /// charges. Suspending and resuming at every boundary also leaves the
    /// tenant's output equal to an unpreempted run's. Runs the test mix's
    /// models and an embedding model, whose gathers read table rows.
    #[test]
    fn every_boundary_spills_the_modeled_table_and_resumes_transparently() {
        let tiny_embed = tnpu_models::ModelBuilder::new("tiny-embed", "TinyEmbed", (1, 1, 8))
            .embedding("emb", 64, 16, 4)
            .fc("fc", 8)
            .build();
        let mut models: Vec<_> = mix()
            .entries
            .iter()
            .map(|e| registry::model(&e.model).expect("registered"))
            .collect();
        models.push(tiny_embed);
        for model in &models {
            let layout = ModelLayout::allocate(model, Addr(0));
            let modeled = register_tensors(model, &layout, false).0.storage_bytes();
            let seed = 0x5E_4E;
            let mut reference = SecureRunner::with_memory(model, UnsecureMemory::new(), seed);
            reference.run().expect("unprotected run cannot fail");
            let want = reference.read_output().expect("reference output");

            let mut r = SecureRunner::new(model, Key128::derive(b"serve-boundaries"), seed);
            let mut boundary = 0;
            loop {
                let snap = r.suspend().expect("boundary suspend");
                assert_eq!(
                    snap.table_bytes(),
                    modeled,
                    "{} boundary {boundary}",
                    model.name
                );
                if r.is_finished() {
                    break;
                }
                r.resume(&snap).expect("a fresh snapshot resumes");
                r.step().expect("clean step");
                boundary += 1;
            }
            assert_eq!(boundary, model.layers.len());
            assert_eq!(r.read_output().expect("verifies"), want, "{}", model.name);
        }
    }
}
