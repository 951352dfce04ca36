//! Multi-NPU simulation: N machines share one memory controller and one
//! security engine (the paper's scalability study, §V-C).
//!
//! [`TileTrace::build_replicated`] lowers the paper's setup ("the same
//! inference models are running in each NPU"), each NPU in its own address
//! range; [`TileTrace::build`] extends it to heterogeneous tenants. The
//! scheduler in [`TileTrace::replay`] serves, at every step, the machine
//! whose next transfer has the earliest arrival time, so metadata-cache
//! interference between NPUs emerges from genuinely interleaved block
//! streams.
//!
//! [`TileTrace::build_replicated`]: crate::TileTrace::build_replicated
//! [`TileTrace::build`]: crate::TileTrace::build
//! [`TileTrace::replay`]: crate::TileTrace::replay

/// Address-space stride between NPU contexts (512 MB each).
pub const NPU_REGION_STRIDE: u64 = 512 << 20;

/// Base seed of the default (unseeded) entry points. Every workload RNG in
/// the simulator ultimately derives from an explicit seed so runs are
/// bit-reproducible; this is the one used when the caller does not care.
pub const DEFAULT_BASE_SEED: u64 = 0xC0FFEE;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::ModelLayout;
    use crate::config::NpuConfig;
    use crate::report::RunReport;
    use crate::trace::TileTrace;
    use tnpu_memprot::{build_engine, ProtectionConfig, SchemeKind};
    use tnpu_sim::Addr;

    fn run(name: &str, scheme: SchemeKind, count: usize) -> Vec<RunReport> {
        let model = tnpu_models::registry::model(name).expect("registered");
        let npu = NpuConfig::small_npu();
        let engine = build_engine(scheme, &ProtectionConfig::paper_default());
        TileTrace::build_replicated(&model, &npu, count, DEFAULT_BASE_SEED)
            .replay(engine, &npu, count)
    }

    fn slowest(reports: &[RunReport]) -> u64 {
        reports.iter().map(|r| r.total.0).max().expect("non-empty")
    }

    #[test]
    fn one_npu_matches_single_path() {
        let multi = run("df", SchemeKind::Unsecure, 1);
        assert_eq!(multi.len(), 1);
        assert!(multi[0].total.0 > 0);
    }

    #[test]
    fn more_npus_take_longer_wall_clock() {
        // Shared bandwidth: three NPUs contend, so the slowest of three
        // must exceed a lone NPU.
        let one = slowest(&run("df", SchemeKind::Unsecure, 1));
        let reports = run("df", SchemeKind::Unsecure, 3);
        assert_eq!(reports.len(), 3, "one report per NPU");
        let three = slowest(&reports);
        assert!(three > one, "one {one}, three {three}");
    }

    #[test]
    fn interference_hurts_tree_more_than_treeless() {
        // The paper's headline scalability claim (§V-C): the baseline's
        // metadata caches thrash as NPUs multiply, so its relative
        // slowdown grows faster than TNPU's.
        let name = "df";
        let u1 = slowest(&run(name, SchemeKind::Unsecure, 1)) as f64;
        let u3 = slowest(&run(name, SchemeKind::Unsecure, 3)) as f64;
        let t1 = slowest(&run(name, SchemeKind::TreeBased, 1)) as f64;
        let t3 = slowest(&run(name, SchemeKind::TreeBased, 3)) as f64;
        let l1 = slowest(&run(name, SchemeKind::Treeless, 1)) as f64;
        let l3 = slowest(&run(name, SchemeKind::Treeless, 3)) as f64;
        let tree_overhead_1 = t1 / u1;
        let tree_overhead_3 = t3 / u3;
        let tnpu_overhead_3 = l3 / u3;
        assert!(
            tnpu_overhead_3 <= tree_overhead_3,
            "tnpu {tnpu_overhead_3:.3} vs tree {tree_overhead_3:.3} at 3 NPUs"
        );
        // Baseline overhead should not shrink with more NPUs.
        assert!(
            tree_overhead_3 >= 0.95 * tree_overhead_1,
            "tree overhead fell: {tree_overhead_1:.3} -> {tree_overhead_3:.3}"
        );
        let _ = l1;
    }

    #[test]
    fn mixed_tenancy_interferes_both_ways() {
        // A gather-heavy tenant (ncf) sharing the engine with a conv
        // tenant (df) slows both down relative to running alone, and the
        // gather tenant pollutes the counter cache the conv tenant needs.
        let npu = NpuConfig::small_npu();
        let df = tnpu_models::registry::model("df").expect("registered");
        let ncf = tnpu_models::registry::model("ncf").expect("registered");
        let build = || build_engine(SchemeKind::TreeBased, &ProtectionConfig::paper_default());
        let df_alone = run("df", SchemeKind::TreeBased, 1)[0].total.0;
        let mixed =
            TileTrace::build(&[&df, &ncf], &npu, DEFAULT_BASE_SEED).replay(build(), &npu, 2);
        assert_eq!(mixed.len(), 2);
        assert!(
            mixed[0].total.0 > df_alone,
            "sharing must slow df: {} vs {}",
            mixed[0].total.0,
            df_alone
        );
    }

    #[test]
    fn npus_use_disjoint_address_ranges() {
        let model = tnpu_models::registry::model("res").expect("registered");
        let l0 = ModelLayout::allocate(&model, Addr(0));
        assert!(l0.total_bytes <= NPU_REGION_STRIDE);
    }
}
