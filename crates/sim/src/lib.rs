//! Simulation substrate for the TNPU reproduction.
//!
//! This crate provides the low-level building blocks that every other crate
//! in the workspace builds on:
//!
//! * [`Cycles`] — a strongly-typed cycle count used throughout the timing
//!   models.
//! * [`Addr`] / [`BlockAddr`] — physical addresses and 64-byte block
//!   addresses (the granularity of the memory-protection engines).
//! * [`cache::Cache`] — a generic set-associative, write-back, LRU cache
//!   model used for the counter cache, hash cache, MAC cache and TLBs.
//! * [`dram::BandwidthModel`] / [`dram::DramTiming`] — the simple
//!   bandwidth-limited memory model the paper uses ("we use a simple memory
//!   bandwidth model, which limits the maximum bandwidth" §V-A).
//! * [`stats`] — traffic and event counters shared by the engines.
//! * [`rng::SplitMix64`] — a tiny deterministic RNG for workload index
//!   streams (embedding gathers), so experiments are reproducible, and
//!   [`rng::Fold64`], the 64-bit fold the functional sessions seed their
//!   layer outputs from.
//!
//! # Examples
//!
//! ```
//! use tnpu_sim::{Addr, BLOCK_SIZE, cache::{Cache, CacheConfig, AccessKind}};
//!
//! let mut cache = Cache::new(CacheConfig::new("ctr", 4096, 8, BLOCK_SIZE));
//! let outcome = cache.access(Addr(0x1000), AccessKind::Read);
//! assert!(outcome.is_miss());
//! let outcome = cache.access(Addr(0x1000), AccessKind::Read);
//! assert!(outcome.is_hit());
//! ```

// Cycle and byte accounting must not change a value silently: every `as`
// cast that can truncate, wrap or drop a sign fails `make clippy` (CI runs
// clippy with `-D warnings`). Convert with `try_from` instead.
#![warn(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]

pub mod cache;
pub mod cycles;
pub mod dram;
pub mod rng;
pub mod stats;

pub use cycles::Cycles;

/// Size of a memory block — the granularity of encryption, MACs and
/// counters, matching a cache line (64 B in the paper).
pub const BLOCK_SIZE: usize = 64;

/// A physical byte address in the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// The 64-byte block this address falls into.
    #[must_use]
    pub fn block(self) -> BlockAddr {
        BlockAddr(self.0 / BLOCK_SIZE as u64)
    }

    /// Align the address down to its block base.
    #[must_use]
    pub fn block_base(self) -> Addr {
        Addr(self.0 & !(BLOCK_SIZE as u64 - 1))
    }

    /// Offset of this address within its block.
    #[must_use]
    pub fn block_offset(self) -> usize {
        usize::try_from(self.0 % BLOCK_SIZE as u64).expect("offset is below BLOCK_SIZE")
    }

    /// The address `bytes` past this one.
    #[must_use]
    pub fn offset(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl std::fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

/// Index of a 64-byte block (address divided by [`BLOCK_SIZE`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(pub u64);

impl BlockAddr {
    /// The byte address of the first byte of the block.
    #[must_use]
    pub fn base(self) -> Addr {
        Addr(self.0 * BLOCK_SIZE as u64)
    }

    /// The block `n` blocks past this one.
    #[must_use]
    pub fn offset(self, n: u64) -> BlockAddr {
        BlockAddr(self.0 + n)
    }
}

impl std::fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "blk#{}", self.0)
    }
}

/// A run of consecutive 64-byte blocks: `len` blocks starting at `first`.
///
/// Runs are the batched currency between the DMA layer and the protection
/// engines: a `DmaPattern` decomposes into maximal runs, and an engine
/// charges each run's metadata once per covered metadata block instead of
/// once per data block. A run is never empty (`len >= 1`) when produced by
/// `DmaPattern::for_each_run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockRun {
    /// First block of the run.
    pub first: BlockAddr,
    /// Number of consecutive blocks (>= 1 for emitted runs).
    pub len: u64,
}

impl BlockRun {
    /// The last block of the run.
    ///
    /// # Panics
    ///
    /// Panics if the run is empty.
    #[must_use]
    pub fn last(self) -> BlockAddr {
        assert!(self.len > 0, "empty run has no last block");
        BlockAddr(self.first.0 + (self.len - 1))
    }

    /// Iterate the run's blocks in ascending order.
    pub fn blocks(self) -> impl Iterator<Item = BlockAddr> {
        (0..self.len).map(move |i| self.first.offset(i))
    }
}

/// Iterate over the block addresses covering `[start, start + len)`.
///
/// # Examples
///
/// ```
/// use tnpu_sim::{Addr, blocks_covering};
/// let blocks: Vec<_> = blocks_covering(Addr(0x10), 0x80).collect();
/// assert_eq!(blocks.len(), 3); // 0x10..0x90 touches blocks 0, 1, 2
/// ```
pub fn blocks_covering(start: Addr, len: u64) -> impl Iterator<Item = BlockAddr> {
    let first = start.0 / BLOCK_SIZE as u64;
    let last = if len == 0 {
        first
    } else {
        (start.0 + len - 1) / BLOCK_SIZE as u64 + 1
    };
    (first..last).map(BlockAddr)
}

/// Number of 64-byte blocks covering `[start, start + len)`.
#[must_use]
pub fn block_count(start: Addr, len: u64) -> u64 {
    if len == 0 {
        return 0;
    }
    let first = start.0 / BLOCK_SIZE as u64;
    let last = (start.0 + len - 1) / BLOCK_SIZE as u64;
    last - first + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_block_roundtrip() {
        let a = Addr(0x1234);
        assert_eq!(a.block().0, 0x1234 / 64);
        assert_eq!(a.block_base().0, 0x1200 & !63);
        assert_eq!(a.block_offset(), 0x1234 % 64);
        assert_eq!(a.block().base().block(), a.block());
    }

    #[test]
    fn blocks_covering_exact() {
        let v: Vec<_> = blocks_covering(Addr(0), 128).collect();
        assert_eq!(v, vec![BlockAddr(0), BlockAddr(1)]);
    }

    #[test]
    fn blocks_covering_unaligned() {
        let v: Vec<_> = blocks_covering(Addr(63), 2).collect();
        assert_eq!(v, vec![BlockAddr(0), BlockAddr(1)]);
    }

    #[test]
    fn blocks_covering_empty() {
        assert_eq!(blocks_covering(Addr(100), 0).count(), 0);
        assert_eq!(block_count(Addr(100), 0), 0);
    }

    #[test]
    fn block_count_matches_iterator() {
        for start in [0u64, 1, 63, 64, 65, 4095] {
            for len in [0u64, 1, 63, 64, 65, 200, 4096] {
                assert_eq!(
                    block_count(Addr(start), len),
                    blocks_covering(Addr(start), len).count() as u64,
                    "start={start} len={len}"
                );
            }
        }
    }

    #[test]
    fn block_run_accessors() {
        let r = BlockRun {
            first: BlockAddr(10),
            len: 3,
        };
        assert_eq!(r.last(), BlockAddr(12));
        let blocks: Vec<_> = r.blocks().collect();
        assert_eq!(blocks, vec![BlockAddr(10), BlockAddr(11), BlockAddr(12)]);
    }

    #[test]
    #[should_panic(expected = "empty run")]
    fn empty_run_has_no_last() {
        let _ = BlockRun {
            first: BlockAddr(0),
            len: 0,
        }
        .last();
    }

    #[test]
    fn addr_display_is_hex() {
        assert_eq!(Addr(0xff).to_string(), "0xff");
        assert_eq!(format!("{:x}", Addr(0xff)), "ff");
    }
}
