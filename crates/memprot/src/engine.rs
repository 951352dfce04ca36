//! The timing-model interface every protection scheme implements.
//!
//! The NPU's DMA engine drives these methods once per 64 B block it moves
//! (`read_block` on `mvin`, `write_block` on `mvout`), plus once per
//! transfer for the software version-table access (`version_access`,
//! meaningful only for the tree-less scheme). The engine answers with the
//! *cost* of the access: extra DRAM bytes moved for metadata, and how many
//! DRAM round-trips were exposed — split into independent misses (which the
//! memory system overlaps up to its MLP depth) and serial misses (dependent
//! fetches such as integrity-tree walks, which cannot overlap).

use crate::SchemeKind;
use tnpu_sim::cache::CacheStats;
use tnpu_sim::dram::{BandwidthModel, DramTiming};
use tnpu_sim::stats::{EventCounters, TrafficStats};
use tnpu_sim::{Addr, BlockRun, Cycles};

/// Cost of one protected block access, to be folded into a DMA transfer's
/// time by the memory model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessCost {
    /// Extra DRAM bytes moved for security metadata (counters, tree nodes,
    /// MACs, version-table blocks).
    pub meta_bytes: u64,
    /// DRAM accesses that are independent of each other and of the data
    /// fetch — the memory system overlaps up to `mlp` of them.
    pub independent_misses: u64,
    /// DRAM accesses on a dependency chain (tree-walk levels): each pays
    /// full latency.
    pub serial_misses: u64,
}

impl AccessCost {
    /// A free access (everything hit on-chip).
    pub const FREE: AccessCost = AccessCost {
        meta_bytes: 0,
        independent_misses: 0,
        serial_misses: 0,
    };

    /// Merge another cost into this one.
    pub fn merge(&mut self, other: AccessCost) {
        self.meta_bytes += other.meta_bytes;
        self.independent_misses += other.independent_misses;
        self.serial_misses += other.serial_misses;
    }

    /// Cycles one DMA beat of `data_bytes` takes under this cost — the
    /// formula every consumer of the cycle model (the NPU controller, the
    /// recovery layer, the serving layer's context-switch accounting)
    /// charges: transfer time for data plus metadata, DRAM latency, the
    /// engine's `pipeline` latency, and the exposed serial-miss stalls.
    /// Saturating throughout, so a hostile cost report cannot wrap.
    #[must_use]
    pub fn beat_cycles(
        &self,
        data_bytes: u64,
        bandwidth: &BandwidthModel,
        dram: &DramTiming,
        pipeline: Cycles,
    ) -> u64 {
        let bytes = data_bytes.saturating_add(self.meta_bytes);
        bandwidth
            .transfer_time(bytes)
            .0
            .saturating_add(dram.latency.0)
            .saturating_add(pipeline.0)
            .saturating_add(dram.stall(self.serial_misses, 0).0)
    }
}

/// Aggregated statistics of an engine since the last reset.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineStats {
    /// Metadata traffic by category.
    pub traffic: TrafficStats,
    /// Counter-cache behaviour (tree-based engine; zero otherwise).
    pub counter_cache: CacheStats,
    /// Hash-cache behaviour (tree-based engine; zero otherwise).
    pub hash_cache: CacheStats,
    /// MAC-cache behaviour.
    pub mac_cache: CacheStats,
    /// Miscellaneous events (tree walks, minor-counter overflows, ...).
    pub events: EventCounters,
}

impl EngineStats {
    /// Merge another record into this one.
    pub fn merge(&mut self, other: &EngineStats) {
        self.traffic.merge(&other.traffic);
        self.counter_cache.merge(&other.counter_cache);
        self.hash_cache.merge(&other.hash_cache);
        self.mac_cache.merge(&other.mac_cache);
        self.events.merge(&other.events);
    }
}

/// A memory-protection scheme's timing model.
///
/// Implementations are stateful (they own the metadata caches), so a single
/// engine instance must be shared by all NPUs of a multi-NPU system — that
/// sharing is exactly what the paper's scalability study stresses (§V-C).
pub trait ProtectionEngine: Send {
    /// The scheme this engine implements.
    fn scheme(&self) -> SchemeKind;

    /// Cost of reading the 64 B block at `addr` with expected `version`.
    fn read_block(&mut self, addr: Addr, version: u64) -> AccessCost;

    /// Cost of writing the 64 B block at `addr` with new `version`.
    fn write_block(&mut self, addr: Addr, version: u64) -> AccessCost;

    /// Cost of reading a run of consecutive 64 B blocks with expected
    /// `version`, merged into one [`AccessCost`].
    ///
    /// The default loops [`read_block`] per block, so schemes without
    /// grouped metadata (encrypt-only, unsecure) stay trivially correct.
    /// Engines whose metadata is shared by groups of data blocks override
    /// this to charge each covered metadata block once per run span —
    /// observation-equivalent to the loop (same final cache state, traffic,
    /// events and merged cost) but O(metadata blocks) in host time.
    ///
    /// [`read_block`]: ProtectionEngine::read_block
    fn read_run(&mut self, run: BlockRun, version: u64) -> AccessCost {
        let mut cost = AccessCost::FREE;
        for block in run.blocks() {
            cost.merge(self.read_block(block.base(), version));
        }
        cost
    }

    /// Cost of writing a run of consecutive 64 B blocks with new `version`;
    /// the batched counterpart of [`write_block`], see [`read_run`].
    ///
    /// [`write_block`]: ProtectionEngine::write_block
    /// [`read_run`]: ProtectionEngine::read_run
    fn write_run(&mut self, run: BlockRun, version: u64) -> AccessCost {
        let mut cost = AccessCost::FREE;
        for block in run.blocks() {
            cost.merge(self.write_block(block.base(), version));
        }
        cost
    }

    /// Cost of the software version-table access accompanying one
    /// `mvin`/`mvout` (tree-less scheme only; free elsewhere).
    ///
    /// `table_addr` is the address of the version entry inside the fully
    /// protected region; `write` is true for `mvout` (the version is
    /// incremented) and false for `mvin` (it is read).
    fn version_access(&mut self, _table_addr: Addr, _write: bool) -> AccessCost {
        AccessCost::FREE
    }

    /// Fixed pipeline (decrypt/encrypt) latency exposed once per DMA
    /// transfer. The cipher is pipelined, so per-block latency is hidden
    /// behind the streaming transfer; only the fill latency shows.
    fn pipeline_latency(&self) -> Cycles {
        Cycles::ZERO
    }

    /// Statistics since construction or the last [`reset_stats`].
    ///
    /// [`reset_stats`]: ProtectionEngine::reset_stats
    fn stats(&self) -> EngineStats;

    /// Clear statistics (cache contents are preserved — warm caches carry
    /// over between layers, as in the real hardware).
    fn reset_stats(&mut self);

    /// Bytes of on-chip engine state a context switch must save and
    /// restore through the fully-protected region: region keys, NELRANGE
    /// bounds, tree roots — whatever this scheme keeps in the engine that
    /// is *per-context* rather than per-block. Zero (the default) means
    /// the scheme has no secure per-context state to move (unsecure).
    fn context_state_bytes(&self) -> u64 {
        0
    }

    /// Drop all metadata-cache contents, writing dirty lines back to DRAM.
    /// The write-back traffic is recorded in the engine's statistics and
    /// returned as an [`AccessCost`] so the caller can charge it to the
    /// flushing flow — silently dropping dirty metadata undercounts DRAM
    /// traffic. Statistics are *not* reset; combine with [`reset_stats`]
    /// for fully fresh chip state.
    ///
    /// [`reset_stats`]: ProtectionEngine::reset_stats
    fn flush(&mut self) -> AccessCost;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_cost_merge() {
        let mut a = AccessCost {
            meta_bytes: 64,
            independent_misses: 1,
            serial_misses: 0,
        };
        a.merge(AccessCost {
            meta_bytes: 128,
            independent_misses: 0,
            serial_misses: 2,
        });
        assert_eq!(a.meta_bytes, 192);
        assert_eq!(a.independent_misses, 1);
        assert_eq!(a.serial_misses, 2);
    }

    #[test]
    fn engine_stats_merge() {
        let mut a = EngineStats::default();
        let mut b = EngineStats::default();
        b.traffic.mac = 64;
        b.counter_cache.hits = 3;
        b.events.add("tree_walk", 1);
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.traffic.mac, 128);
        assert_eq!(a.counter_cache.hits, 6);
        assert_eq!(a.events.get("tree_walk"), 2);
    }
}
