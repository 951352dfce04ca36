//! The TNPU engine: AES-XTS encryption + per-block versioned MACs, with the
//! software version table living in a small tree-protected fully-protected
//! region (§IV-C).
//!
//! Compared with the baseline there are **no per-block counters and no
//! whole-memory integrity tree**: replay protection comes from the version
//! number the CPU-side software passes with each `mvin`/`mvout`, so the
//! only per-block metadata traffic is the MAC (filtered by the shared 8 KB
//! MAC cache). The version numbers themselves are stored in the 128 MB
//! fully-protected region, which is still protected by a conventional
//! counter tree — the engine embeds a [`TreeBasedEngine`] scoped to that
//! region and routes version-table accesses through it, so their (small)
//! cost is modelled rather than ignored.

use crate::config::ProtectionConfig;
use crate::engine::{AccessCost, EngineStats, ProtectionEngine};
use crate::layout::{Layout, MACS_PER_BLOCK};
use crate::span::meta_spans;
use crate::tree_engine::TreeBasedEngine;
use crate::SchemeKind;
use tnpu_sim::cache::{AccessKind, Cache};
use tnpu_sim::stats::{EventCounters, TrafficStats};
use tnpu_sim::{Addr, BlockAddr, BlockRun, Cycles, BLOCK_SIZE};

/// AES-XTS + versioned-MAC engine (the paper's *TNPU*).
#[derive(Debug)]
pub struct TreelessEngine {
    config: ProtectionConfig,
    layout: Layout,
    mac_cache: Cache,
    /// Protection engine for the fully-protected region (version table).
    inner: TreeBasedEngine,
    /// CPU-cache residency model for the version table: the table lives in
    /// ordinary cacheable EPC memory and is only a few KB (§IV-D), so the
    /// CPU-side software's lookups rarely reach DRAM. Only misses generate
    /// requests to the fully-protected region.
    version_cache: Cache,
    traffic: TrafficStats,
    events: EventCounters,
}

impl TreelessEngine {
    /// Build the engine. The MAC cache covers the whole DRAM; the embedded
    /// tree engine covers only `config.fully_protected_size` bytes.
    #[must_use]
    pub fn new(config: ProtectionConfig) -> Self {
        let layout = Layout::new(config.dram_size, config.counters_per_block);
        let mut inner_config = config.clone();
        inner_config.dram_size = config.fully_protected_size;
        TreelessEngine {
            mac_cache: Cache::new(config.mac_cache.clone()),
            inner: TreeBasedEngine::new(inner_config),
            version_cache: Cache::new(tnpu_sim::cache::CacheConfig::new("version", 8 << 10, 8, 64)),
            layout,
            config,
            traffic: TrafficStats::default(),
            events: EventCounters::default(),
        }
    }

    fn clamp_block(&self, addr: Addr) -> BlockAddr {
        let block = addr.block();
        // A hard assert, not debug_assert: in release builds an
        // out-of-range address would otherwise silently alias (modulo)
        // into the protected region and charge the wrong metadata blocks.
        assert!(
            self.layout.contains_block(block),
            "access at {addr} outside protected region"
        );
        block
    }

    fn mac_access(&mut self, block: BlockAddr, kind: AccessKind, cost: &mut AccessCost) {
        let outcome = self.mac_cache.access(self.layout.mac_addr(block), kind);
        if outcome.is_miss() && kind == AccessKind::Read {
            // Read misses fetch the MAC block to verify. Write misses are
            // write-combined (streaming stores fill whole MAC blocks), so
            // only the eventual write-back moves data.
            self.traffic.mac += BLOCK_SIZE as u64;
            cost.meta_bytes += BLOCK_SIZE as u64;
            cost.independent_misses += 1;
        }
        if outcome.writeback().is_some() {
            self.traffic.mac += BLOCK_SIZE as u64;
            cost.meta_bytes += BLOCK_SIZE as u64;
        }
    }

    /// Bounds-check a whole run, panicking exactly as the per-block path
    /// would at its first out-of-range block.
    fn check_run(&self, run: BlockRun) {
        let blocks = self.layout.data_blocks();
        if run.last().0 < blocks {
            return;
        }
        let bad = if run.first.0 >= blocks {
            run.first
        } else {
            BlockAddr(blocks)
        };
        panic!("access at {} outside protected region", bad.base());
    }

    /// Run-batched MAC path: one MAC-cache access per covered MAC block
    /// (plus `covered - 1` bookkeeping hits); effect logic mirrors
    /// [`Self::mac_access`], which stays the single-block entry point.
    /// Later accesses of a span are guaranteed hits, so only the first
    /// access of each span has side effects to replicate.
    fn mac_run(&mut self, run: BlockRun, kind: AccessKind, cost: &mut AccessCost) {
        let first_index = run.first.0 / MACS_PER_BLOCK;
        let lines = run.last().0 / MACS_PER_BLOCK - first_index + 1;
        if lines == run.len {
            // Every covered MAC line is touched exactly once (gather-style
            // short runs): one consecutive-line batched sweep.
            let traffic = &mut self.traffic;
            self.mac_cache.access_many(
                self.layout.mac_index_addr(first_index),
                lines,
                kind,
                |outcome| {
                    if outcome.is_miss() && kind == AccessKind::Read {
                        traffic.mac += BLOCK_SIZE as u64;
                        cost.meta_bytes += BLOCK_SIZE as u64;
                        cost.independent_misses += 1;
                    }
                    if outcome.writeback().is_some() {
                        traffic.mac += BLOCK_SIZE as u64;
                        cost.meta_bytes += BLOCK_SIZE as u64;
                    }
                },
            );
            return;
        }
        for span in meta_spans(run.first.0, run.len, MACS_PER_BLOCK) {
            let outcome = self.mac_cache.access_repeated(
                self.layout.mac_index_addr(span.index),
                kind,
                span.covered,
            );
            if outcome.is_miss() && kind == AccessKind::Read {
                self.traffic.mac += BLOCK_SIZE as u64;
                cost.meta_bytes += BLOCK_SIZE as u64;
                cost.independent_misses += 1;
            }
            if outcome.writeback().is_some() {
                self.traffic.mac += BLOCK_SIZE as u64;
                cost.meta_bytes += BLOCK_SIZE as u64;
            }
        }
    }
}

impl ProtectionEngine for TreelessEngine {
    fn scheme(&self) -> SchemeKind {
        SchemeKind::Treeless
    }

    fn read_block(&mut self, addr: Addr, _version: u64) -> AccessCost {
        let block = self.clamp_block(addr);
        let mut cost = AccessCost::FREE;
        // XTS needs no counter: the tweak derives from the address. Only
        // the MAC must be fetched for verification.
        self.mac_access(block, AccessKind::Read, &mut cost);
        cost
    }

    fn write_block(&mut self, addr: Addr, _version: u64) -> AccessCost {
        let block = self.clamp_block(addr);
        let mut cost = AccessCost::FREE;
        self.mac_access(block, AccessKind::Write, &mut cost);
        cost
    }

    fn read_run(&mut self, run: BlockRun, _version: u64) -> AccessCost {
        if run.len == 0 {
            return AccessCost::FREE;
        }
        self.check_run(run);
        let mut cost = AccessCost::FREE;
        self.mac_run(run, AccessKind::Read, &mut cost);
        cost
    }

    fn write_run(&mut self, run: BlockRun, _version: u64) -> AccessCost {
        if run.len == 0 {
            return AccessCost::FREE;
        }
        self.check_run(run);
        let mut cost = AccessCost::FREE;
        self.mac_run(run, AccessKind::Write, &mut cost);
        cost
    }

    fn version_access(&mut self, table_addr: Addr, write: bool) -> AccessCost {
        self.events.add("version_access", 1);
        let wrapped = Addr(table_addr.0 % self.config.fully_protected_size);
        // The table is ordinary cacheable enclave memory and only a few KB
        // (avg 1.3 KB, max 7.5 KB, §IV-D): lookups that hit in the CPU
        // cache are free. Misses reach the fully-protected region through
        // the conventional (small) tree-based engine.
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let outcome = self.version_cache.access(wrapped, kind);
        let mut cost = AccessCost::FREE;
        if let Some(victim) = outcome.writeback() {
            cost.merge(self.inner.write_block(victim, 0));
            self.traffic.version += BLOCK_SIZE as u64;
            cost.meta_bytes += BLOCK_SIZE as u64;
        }
        if outcome.is_miss() {
            self.events.add("version_miss", 1);
            cost.merge(self.inner.read_block(wrapped, 0));
            self.traffic.version += BLOCK_SIZE as u64;
            cost.meta_bytes += BLOCK_SIZE as u64;
        }
        cost
    }

    fn pipeline_latency(&self) -> Cycles {
        self.config.xts_latency
    }

    fn context_state_bytes(&self) -> u64 {
        // Per-context engine state the switch moves through the fully
        // protected region: the tree-less region's XTS key pair (32 B),
        // the MAC key (16 B), and the NELRANGE base/bound registers (16 B).
        64
    }

    fn stats(&self) -> EngineStats {
        let inner = self.inner.stats();
        let mut traffic = self.traffic;
        traffic.merge(&inner.traffic);
        let mut events = self.events.clone();
        events.merge(&inner.events);
        let mut mac_cache = self.mac_cache.stats();
        mac_cache.merge(&inner.mac_cache);
        EngineStats {
            traffic,
            counter_cache: inner.counter_cache,
            hash_cache: inner.hash_cache,
            mac_cache,
            events,
        }
    }

    fn reset_stats(&mut self) {
        self.traffic = TrafficStats::default();
        self.events = EventCounters::default();
        self.mac_cache.reset_stats();
        // The version cache was missing here, so its hit/miss counters
        // leaked across resets (caught by the flush round-trip proptest).
        self.version_cache.reset_stats();
        self.inner.reset_stats();
    }

    fn flush(&mut self) -> AccessCost {
        let mut cost = AccessCost::FREE;
        let mac_bytes = self.mac_cache.flush().len() as u64 * BLOCK_SIZE as u64;
        self.traffic.mac += mac_bytes;
        cost.meta_bytes += mac_bytes;
        cost.independent_misses += mac_bytes / BLOCK_SIZE as u64;
        // Dirty version-table lines drain into the fully-protected region.
        let version_bytes = self.version_cache.flush().len() as u64 * BLOCK_SIZE as u64;
        self.traffic.version += version_bytes;
        cost.meta_bytes += version_bytes;
        cost.independent_misses += version_bytes / BLOCK_SIZE as u64;
        cost.merge(self.inner.flush());
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> TreelessEngine {
        TreelessEngine::new(ProtectionConfig::paper_default())
    }

    #[test]
    fn reads_cost_only_mac_traffic() {
        let mut e = engine();
        let cost = e.read_block(Addr(0), 1);
        assert_eq!(cost.meta_bytes, 64);
        assert_eq!(cost.independent_misses, 1);
        assert_eq!(cost.serial_misses, 0, "no tree walk in TNPU");
        let s = e.stats();
        assert_eq!(s.traffic.counter, 0);
        assert_eq!(s.traffic.tree, 0);
        assert_eq!(s.traffic.mac, 64);
    }

    #[test]
    fn mac_spatial_locality() {
        let mut e = engine();
        e.read_block(Addr(0), 1);
        for i in 1..8u64 {
            assert_eq!(e.read_block(Addr(i * 64), 1), AccessCost::FREE);
        }
        assert!(e.read_block(Addr(8 * 64), 1).meta_bytes > 0);
    }

    #[test]
    fn streaming_overhead_is_one_eighth() {
        let mut e = engine();
        let n = 4096u64;
        let mut meta = 0u64;
        for i in 0..n {
            meta += e.read_block(Addr(i * 64), 1).meta_bytes;
        }
        let ratio = meta as f64 / (n * 64) as f64;
        assert!((ratio - 0.125).abs() < 0.01, "ratio = {ratio}");
    }

    #[test]
    fn version_access_goes_through_inner_tree_on_miss() {
        let mut e = engine();
        let cost = e.version_access(Addr(0x1000), false);
        // Cold: version-cache miss, inner counter + tree + mac misses.
        assert!(cost.meta_bytes >= 64);
        let s = e.stats();
        assert_eq!(s.events.get("version_access"), 1);
        assert_eq!(s.events.get("version_miss"), 1);
        assert!(s.traffic.version > 0);
        // Warm second access to the same entry hits the CPU cache: free.
        let cost2 = e.version_access(Addr(0x1000), false);
        assert_eq!(cost2, AccessCost::FREE);
    }

    #[test]
    fn version_table_has_high_locality() {
        let mut e = engine();
        // A realistic model's version table is a few KB: after the first
        // round everything hits the CPU cache.
        for round in 0..10u64 {
            for entry in 0..16u64 {
                e.version_access(Addr(entry * 8), round % 2 == 0);
            }
        }
        let s = e.stats();
        assert_eq!(s.events.get("version_access"), 160);
        assert_eq!(s.events.get("version_miss"), 2, "two cold lines only");
    }

    #[test]
    fn pipeline_latency_is_xts() {
        assert_eq!(engine().pipeline_latency(), Cycles(13));
    }

    #[test]
    fn writes_and_reads_share_mac_cache() {
        let mut e = engine();
        e.write_block(Addr(0), 1);
        assert_eq!(e.read_block(Addr(64), 1), AccessCost::FREE);
    }

    #[test]
    fn flush_restores_cold_state() {
        let mut e = engine();
        e.read_block(Addr(0), 1);
        e.flush();
        e.reset_stats();
        assert_eq!(e.stats().traffic.total(), 0);
        assert!(e.read_block(Addr(0), 1).meta_bytes > 0);
    }

    #[test]
    #[should_panic(expected = "outside protected region")]
    fn out_of_range_access_panics_instead_of_aliasing() {
        // Regression test: the bound check was debug_assert!-only, so a
        // release build silently wrapped out-of-range addresses modulo
        // data_blocks() back into the protected region.
        let mut e = engine();
        e.read_block(Addr(4 << 30), 1);
    }

    #[test]
    fn flush_accounts_dirty_mac_writebacks() {
        // Regression test: streaming writes leave dirty MAC lines; a flush
        // must report their write-back instead of dropping them.
        let mut e = engine();
        for i in 0..64 {
            e.write_block(Addr(i * 64), 1);
        }
        let before = e.stats().traffic.mac;
        let cost = e.flush();
        assert!(cost.meta_bytes > 0, "dirty MAC lines must be written back");
        assert!(e.stats().traffic.mac > before);
        assert_eq!(e.flush(), AccessCost::FREE, "second flush is clean");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// After any access sequence, `flush` + `reset_stats` round-trips
        /// the engine to a state byte-identical to a freshly built one
        /// (compared through the exhaustive `Debug` rendering): no cache
        /// line, LRU stamp, write count, traffic byte or event survives,
        /// so a reused engine can never leak warm state into the next
        /// measurement.
        #[test]
        fn flush_and_reset_roundtrip_to_fresh(
            ops in prop::collection::vec((0u8..3, 0u64..4096), 1..48),
        ) {
            let mut e = TreelessEngine::new(ProtectionConfig::paper_default());
            for (op, a) in ops {
                match op {
                    0 => {
                        e.read_block(Addr(a * 64), 1);
                    }
                    1 => {
                        e.write_block(Addr(a * 64), 1);
                    }
                    _ => {
                        e.version_access(Addr(a), a % 2 == 0);
                    }
                }
            }
            e.flush();
            e.reset_stats();
            let fresh = TreelessEngine::new(ProtectionConfig::paper_default());
            prop_assert_eq!(format!("{e:?}"), format!("{fresh:?}"));
        }
    }
}
