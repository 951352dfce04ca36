//! One NPU's double-buffered execution state machine.
//!
//! Executes a [`ModelPlan`] as a pipeline: while tile *i* computes, tile
//! *i + 1*'s `mvin` transfers stream in, and tile *i − 1*'s `mvout` drains —
//! the double-buffering model of §II-C. At layer boundaries prefetching
//! stops until every store of the producing layer has completed (the next
//! layer reads that output).
//!
//! The machine exposes its next request's arrival time so a scheduler can
//! interleave several machines over one shared [`MemoryController`]
//! in global arrival order.

use crate::controller::MemoryController;
use crate::report::{LayerReport, RunReport};
use crate::tiler::ModelPlan;
use tnpu_sim::Cycles;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Item {
    Loads(usize),
    Stores(usize),
}

/// Double-buffered executor for one NPU, borrowing the plan it runs so one
/// lowered plan can drive many replays without being copied.
#[derive(Debug)]
pub struct NpuMachine<'a> {
    plan: &'a ModelPlan,
    /// Emission order of load/store groups.
    seq: Vec<Item>,
    /// Whether the loads at this seq position sit just after a layer
    /// barrier (cannot be prefetched past outstanding stores).
    barrier: Vec<bool>,
    pos: usize,
    sub: usize,
    /// Compute start/end per job (filled as loads complete).
    cs: Vec<Cycles>,
    ce: Vec<Cycles>,
    /// Max completion among loads of the current loads group.
    group_loads_done: Cycles,
    /// Max completion among all stores served so far.
    stores_done: Cycles,
    /// Per-layer last activity (for reports).
    layer_finish: Vec<Cycles>,
    data_read: u64,
    data_write: u64,
    meta_bytes: u64,
    finish: Option<Cycles>,
}

impl<'a> NpuMachine<'a> {
    /// Build the machine for a lowered plan.
    ///
    /// # Panics
    ///
    /// Panics if the plan has no jobs.
    #[must_use]
    pub fn new(plan: &'a ModelPlan) -> Self {
        assert!(!plan.jobs.is_empty(), "plan has no jobs");
        let n = plan.jobs.len();
        let mut seq = Vec::with_capacity(2 * n);
        let mut barrier = Vec::with_capacity(2 * n);
        seq.push(Item::Loads(0));
        barrier.push(false);
        for j in 1..n {
            let boundary = plan.jobs[j].layer != plan.jobs[j - 1].layer;
            if boundary {
                seq.push(Item::Stores(j - 1));
                barrier.push(false);
                seq.push(Item::Loads(j));
                barrier.push(true);
            } else {
                seq.push(Item::Loads(j));
                barrier.push(false);
                seq.push(Item::Stores(j - 1));
                barrier.push(false);
            }
        }
        seq.push(Item::Stores(n - 1));
        barrier.push(false);
        let layers = plan.layer_jobs.len();
        NpuMachine {
            seq,
            barrier,
            pos: 0,
            sub: 0,
            cs: vec![Cycles::ZERO; n],
            ce: vec![Cycles::ZERO; n],
            group_loads_done: Cycles::ZERO,
            stores_done: Cycles::ZERO,
            layer_finish: vec![Cycles::ZERO; layers],
            data_read: 0,
            data_write: 0,
            meta_bytes: 0,
            finish: None,
            plan,
        }
    }

    /// Whether every transfer has been served.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.finish.is_some()
    }

    /// Arrival time of the next transfer, or `None` when done.
    #[must_use]
    pub fn next_arrival(&self) -> Option<Cycles> {
        if self.finish.is_some() {
            return None;
        }
        let item = self.seq[self.pos];
        Some(match item {
            Item::Loads(j) => {
                if j == 0 {
                    Cycles::ZERO
                } else if self.barrier[self.pos] {
                    self.cs[j - 1].max(self.stores_done)
                } else {
                    self.cs[j - 1]
                }
            }
            Item::Stores(j) => self.ce[j],
        })
    }

    /// Serve exactly one transfer on `ctl`, advancing the pipeline.
    ///
    /// # Panics
    ///
    /// Panics if the machine is already done.
    pub fn serve_next(&mut self, ctl: &mut MemoryController) {
        let arrival = self.next_arrival().expect("machine already done");
        let item = self.seq[self.pos];
        let (transfers, layer) = match item {
            Item::Loads(j) => (&self.plan.jobs[j].loads, self.plan.jobs[j].layer),
            Item::Stores(j) => (&self.plan.jobs[j].stores, self.plan.jobs[j].layer),
        };
        let transfer = &transfers[self.sub];
        let served = ctl.serve(transfer, arrival);
        self.meta_bytes += served.meta_bytes;
        match item {
            Item::Loads(_) => self.data_read += served.data_bytes,
            Item::Stores(_) => self.data_write += served.data_bytes,
        }
        self.layer_finish[layer] = self.layer_finish[layer].max(served.completion);
        match item {
            Item::Loads(j) => {
                self.group_loads_done = self.group_loads_done.max(served.completion);
                if self.sub + 1 < self.plan.jobs[j].loads.len() {
                    self.sub += 1;
                } else {
                    // All loads of job j done: schedule its compute.
                    let prev_ce = if j == 0 { Cycles::ZERO } else { self.ce[j - 1] };
                    self.cs[j] = self.group_loads_done.max(prev_ce);
                    self.ce[j] = self.cs[j] + self.plan.jobs[j].compute;
                    self.layer_finish[self.plan.jobs[j].layer] =
                        self.layer_finish[self.plan.jobs[j].layer].max(self.ce[j]);
                    self.group_loads_done = Cycles::ZERO;
                    self.advance();
                }
            }
            Item::Stores(j) => {
                self.stores_done = self.stores_done.max(served.completion);
                if self.sub + 1 < self.plan.jobs[j].stores.len() {
                    self.sub += 1;
                } else {
                    self.advance();
                }
            }
        }
    }

    fn advance(&mut self) {
        self.sub = 0;
        self.pos += 1;
        if self.pos >= self.seq.len() {
            let last = self.plan.jobs.len() - 1;
            self.finish = Some(self.stores_done.max(self.ce[last]));
        }
    }

    /// Build the report; call after the machine is done.
    ///
    /// # Panics
    ///
    /// Panics if the machine has not finished.
    #[must_use]
    pub fn into_report(self, ctl: &MemoryController) -> RunReport {
        let total = self.finish.expect("machine not finished");
        let mut layers = Vec::with_capacity(self.plan.layer_jobs.len());
        for (li, &(s, e)) in self.plan.layer_jobs.iter().enumerate() {
            let compute: Cycles = self.plan.jobs[s..e].iter().map(|j| j.compute).sum();
            let data_bytes: u64 = self.plan.jobs[s..e]
                .iter()
                .map(|j| j.load_bytes() + j.store_bytes())
                .sum();
            layers.push(LayerReport {
                name: self.plan.layer_names[li].clone(),
                finish: self.layer_finish[li],
                compute,
                data_bytes,
            });
        }
        RunReport {
            scheme: ctl.scheme(),
            total,
            data_read: self.data_read,
            data_write: self.data_write,
            meta_bytes: self.meta_bytes,
            engine: ctl.engine_stats(),
            layers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::ModelLayout;
    use crate::config::NpuConfig;
    use crate::tiler;
    use tnpu_memprot::{build_engine, ProtectionConfig, SchemeKind};
    use tnpu_sim::Addr;

    fn run(name: &str, scheme: SchemeKind) -> RunReport {
        let model = tnpu_models::registry::model(name).expect("registered");
        let npu = NpuConfig::small_npu();
        let layout = ModelLayout::allocate(&model, Addr(0));
        let plan = tiler::plan(&model, &npu, &layout, 1);
        let engine = build_engine(scheme, &ProtectionConfig::paper_default());
        let mut ctl = MemoryController::new(engine, &npu);
        let mut m = NpuMachine::new(&plan);
        while !m.is_done() {
            m.serve_next(&mut ctl);
        }
        m.into_report(&ctl)
    }

    #[test]
    fn alexnet_completes_with_sane_time() {
        let r = run("alex", SchemeKind::Unsecure);
        assert!(r.total.0 > 0);
        // Must take at least the pure-compute and pure-memory lower bounds.
        let compute: Cycles = r.layers.iter().map(|l| l.compute).sum();
        assert!(r.total >= compute);
        let mem_cycles = (r.data_read + r.data_write) / 4; // 4 B/cycle
        assert!(r.total.0 >= mem_cycles);
        // And not absurdly more than their sum.
        assert!(r.total.0 < 4 * (compute.0 + mem_cycles));
    }

    #[test]
    fn double_buffering_overlaps() {
        // Total must be well below the no-overlap sum of compute + memory.
        let r = run("alex", SchemeKind::Unsecure);
        let compute: u64 = r.layers.iter().map(|l| l.compute.0).sum();
        let mem = (r.data_read + r.data_write) / 4;
        let serial = compute + mem;
        assert!(
            r.total.0 < serial,
            "no overlap achieved: {} vs serial {serial}",
            r.total.0
        );
    }

    #[test]
    fn layer_finishes_are_monotone() {
        let r = run("alex", SchemeKind::Unsecure);
        let finishes: Vec<u64> = r
            .layers
            .iter()
            .filter(|l| l.data_bytes > 0)
            .map(|l| l.finish.0)
            .collect();
        for w in finishes.windows(2) {
            assert!(w[0] <= w[1], "layer finish order violated: {finishes:?}");
        }
    }

    #[test]
    fn protection_overhead_ordering_alexnet() {
        let unsec = run("alex", SchemeKind::Unsecure).total.0 as f64;
        let tnpu = run("alex", SchemeKind::Treeless).total.0 as f64;
        let tree = run("alex", SchemeKind::TreeBased).total.0 as f64;
        assert!(tnpu >= unsec);
        assert!(tree >= tnpu);
        // Overheads should be within the paper's ballpark (few tens of %).
        assert!(tree / unsec < 2.2, "baseline overhead {:.2}", tree / unsec);
    }

    #[test]
    fn report_traffic_matches_plan_block_count() {
        let model = tnpu_models::registry::model("df").expect("registered");
        let npu = NpuConfig::small_npu();
        let layout = ModelLayout::allocate(&model, Addr(0));
        let plan = tiler::plan(&model, &npu, &layout, 1);
        let expected: u64 = plan
            .jobs
            .iter()
            .flat_map(|j| j.loads.iter().chain(j.stores.iter()))
            .map(|t| t.pattern.block_count() * 64)
            .sum();
        let engine = build_engine(SchemeKind::Unsecure, &ProtectionConfig::paper_default());
        let mut ctl = MemoryController::new(engine, &npu);
        let mut m = NpuMachine::new(&plan);
        while !m.is_done() {
            m.serve_next(&mut ctl);
        }
        let r = m.into_report(&ctl);
        assert_eq!(r.data_read + r.data_write, expected);
    }
}
