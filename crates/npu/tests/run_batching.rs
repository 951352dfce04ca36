//! Observation-equivalence of the run-batched engine paths.
//!
//! The run-batched `read_run`/`write_run` overrides in `TreelessEngine` and
//! `TreeBasedEngine` must be indistinguishable from the per-block reference
//! loop for *arbitrary* DMA patterns: identical per-transfer `AccessCost`,
//! identical traffic/event statistics, and — the strongest check —
//! identical full engine state (cache lines, LRU stamps, write counts)
//! compared through the exhaustive `Debug` rendering. This is the gate that
//! lets the simulator charge each MAC/counter block once per covered run
//! span instead of once per data block.

use proptest::prelude::*;
use tnpu_memprot::tree_engine::TreeBasedEngine;
use tnpu_memprot::treeless_engine::TreelessEngine;
use tnpu_memprot::{AccessCost, ProtectionConfig, ProtectionEngine};
use tnpu_npu::dma::DmaPattern;
use tnpu_sim::Addr;

/// One DMA transfer: the pattern plus its direction (true = write).
type Op = (DmaPattern, bool);

fn arb_op() -> impl Strategy<Value = Op> {
    let pattern = prop_oneof![
        (0u64..(1 << 20), 0u64..2048).prop_map(|(base, bytes)| DmaPattern::Contiguous {
            base: Addr(base),
            bytes
        }),
        (0u64..(1 << 20), 0u64..6, 0u64..300, 0u64..4096).prop_map(
            |(base, rows, row_bytes, stride)| DmaPattern::Strided {
                base: Addr(base),
                rows,
                row_bytes,
                stride,
            }
        ),
        // Rows that abut (`row_bytes == stride`), which the independent
        // draws above hit once in 4,096: `for_each_run` pushes them as one
        // slab.
        (0u64..(1 << 20), 0u64..6, 0u64..300).prop_map(|(base, rows, stride)| {
            DmaPattern::Strided {
                base: Addr(base),
                rows,
                row_bytes: stride,
                stride,
            }
        }),
        (prop::collection::vec(0u64..(1 << 20), 0..6), 0u64..300).prop_map(
            |(starts, row_bytes)| DmaPattern::Scattered {
                rows: starts.into_iter().map(Addr).collect(),
                row_bytes,
            }
        ),
    ];
    (pattern, any::<bool>())
}

/// Drive `batched` through the run API and `reference` through the
/// per-block API with the same transfers; both must agree on every
/// per-transfer cost and end in identical state.
fn assert_equivalent<E: ProtectionEngine + std::fmt::Debug>(
    mut batched: E,
    mut reference: E,
    ops: &[Op],
) {
    for (i, (pattern, write)) in ops.iter().enumerate() {
        let version = i as u64;
        let mut run_cost = AccessCost::FREE;
        pattern.for_each_run(|run| {
            run_cost.merge(if *write {
                batched.write_run(run, version)
            } else {
                batched.read_run(run, version)
            });
        });
        let mut block_cost = AccessCost::FREE;
        pattern.for_each_block(|b| {
            block_cost.merge(if *write {
                reference.write_block(b.base(), version)
            } else {
                reference.read_block(b.base(), version)
            });
        });
        assert_eq!(run_cost, block_cost, "op {i}: {pattern:?} write={write}");
    }
    assert_eq!(batched.stats(), reference.stats());
    assert_eq!(
        format!("{batched:?}"),
        format!("{reference:?}"),
        "full engine state (caches, LRU, write counts) must match"
    );
}

proptest! {
    #[test]
    fn treeless_run_batching_is_observation_equivalent(
        ops in prop::collection::vec(arb_op(), 1..8),
    ) {
        let config = ProtectionConfig::paper_default();
        assert_equivalent(
            TreelessEngine::new(config.clone()),
            TreelessEngine::new(config),
            &ops,
        );
    }

    #[test]
    fn tree_based_run_batching_is_observation_equivalent(
        ops in prop::collection::vec(arb_op(), 1..8),
    ) {
        let config = ProtectionConfig::paper_default();
        assert_equivalent(
            TreeBasedEngine::new(config.clone()),
            TreeBasedEngine::new(config),
            &ops,
        );
    }

    #[test]
    fn tree_based_equivalence_holds_across_counter_granularities(
        ops in prop::collection::vec(arb_op(), 1..6),
        counters in prop_oneof![Just(32u64), Just(64u64), Just(128u64)],
    ) {
        let mut config = ProtectionConfig::paper_default();
        config.counters_per_block = counters;
        assert_equivalent(
            TreeBasedEngine::new(config.clone()),
            TreeBasedEngine::new(config),
            &ops,
        );
    }
}
