//! The execution model of the paper's Fig. 8: `mvin` / `preload+compute` /
//! `mvout` pipelined through double buffering. This example traces the
//! first tile jobs of a layer and shows how loads of tile *i+1* overlap the
//! computation of tile *i* — and how protection overhead eats into that
//! overlap.
//!
//! ```text
//! cargo run --release -p tnpu-npu --example double_buffering
//! ```

use tnpu_memprot::{build_engine, ProtectionConfig, SchemeKind};
use tnpu_models::registry;
use tnpu_npu::alloc::ModelLayout;
use tnpu_npu::config::NpuConfig;
use tnpu_npu::controller::MemoryController;
use tnpu_npu::machine::NpuMachine;
use tnpu_npu::tiler;
use tnpu_sim::Addr;

fn trace(scheme: SchemeKind) -> (u64, u64, u64) {
    let model = registry::model("alex").expect("registered");
    let npu = NpuConfig::small_npu();
    let layout = ModelLayout::allocate(&model, Addr(0));
    let plan = tiler::plan(&model, &npu, &layout, 8);
    let jobs = plan.jobs.len() as u64;
    let compute_only = plan.compute_cycles().0;
    let engine = build_engine(scheme, &ProtectionConfig::paper_default());
    let mut ctl = MemoryController::new(engine, &npu);
    let mut machine = NpuMachine::new(&plan);
    while !machine.is_done() {
        machine.serve_next(&mut ctl);
    }
    (jobs, compute_only, machine.into_report(&ctl).total.0)
}

fn main() {
    println!("AlexNet on the small NPU - the Fig. 8 pipeline in numbers\n");
    let (jobs, compute, unsec) = trace(SchemeKind::Unsecure);
    println!("tile jobs:            {jobs}");
    println!("pure compute cycles:  {compute:>12}  (if memory were free)");
    println!("pipelined (unsecure): {unsec:>12}");
    let overlap = 1.0 - (unsec.saturating_sub(compute)) as f64 / unsec as f64;
    println!(
        "double buffering hides {:.0} % of the run behind compute\n",
        overlap * 100.0
    );
    for scheme in [SchemeKind::TreeBased, SchemeKind::Treeless] {
        let (_, _, total) = trace(scheme);
        println!(
            "{:12} total {total:>12}  (+{:.1} % over unsecure)",
            scheme.label(),
            (total as f64 / unsec as f64 - 1.0) * 100.0
        );
    }
    println!("\nmvin streams for tile i+1 run while tile i computes; the security");
    println!("engine's metadata traffic and counter-miss stalls lengthen exactly");
    println!("those overlapped memory phases, which is where the overhead appears.");
}
