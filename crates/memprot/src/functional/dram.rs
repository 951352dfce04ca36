//! Sparse simulated DRAM holding ciphertext blocks.

use super::store::PagedStore;
use tnpu_sim::{Addr, BLOCK_SIZE};

/// A sparse byte store at 64 B block granularity.
///
/// This is the *untrusted* DRAM. It is private to the functional memories:
/// an attacker reaches it only through the [`FunctionalMemory`] hooks,
/// which use [`RawDram::block_mut`] to flip bits on the memory bus or
/// module. No code outside this crate can name it (see the `compile_fail`
/// doctest in the [`functional`](super) module docs).
///
/// # Examples
///
/// What the hooks show of it behind the unprotected memory, which stores
/// plaintext as-is: a written block's bytes, and nothing for a block never
/// written.
///
/// ```
/// use tnpu_memprot::functional::{FunctionalMemory, UnsecureMemory};
/// use tnpu_sim::Addr;
///
/// let mut mem = UnsecureMemory::new();
/// mem.write_block(Addr(0), 0, [7u8; 64]);
/// assert_eq!(mem.capture_block(Addr(0)).map(|c| c.bytes), Some([7u8; 64]));
/// assert!(mem.capture_block(Addr(64)).is_none());
/// assert!(mem.dram_contains(&[7u8; 64]));
/// ```
///
/// [`FunctionalMemory`]: super::FunctionalMemory
#[derive(Debug, Clone)]
pub struct RawDram {
    blocks: PagedStore<[u8; BLOCK_SIZE]>,
}

impl RawDram {
    /// Empty DRAM.
    #[must_use]
    pub fn new() -> Self {
        RawDram {
            blocks: PagedStore::new([0; BLOCK_SIZE]),
        }
    }

    /// Store a block. `addr` must be block-aligned.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 64 B aligned.
    pub fn write_block(&mut self, addr: Addr, data: [u8; BLOCK_SIZE]) {
        assert_eq!(addr.block_offset(), 0, "unaligned block write at {addr}");
        self.blocks.insert(addr.block().0, data);
    }

    /// Load a block, if it was ever written.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 64 B aligned.
    #[must_use]
    pub fn read_block(&self, addr: Addr) -> Option<[u8; BLOCK_SIZE]> {
        assert_eq!(addr.block_offset(), 0, "unaligned block read at {addr}");
        self.blocks.get(addr.block().0).copied()
    }

    /// Direct mutable access to a stored block — the physical-attack hook.
    pub fn block_mut(&mut self, addr: Addr) -> Option<&mut [u8; BLOCK_SIZE]> {
        self.blocks.get_mut(addr.block().0)
    }

    /// Whether `needle` appears anywhere in the stored bytes — used by
    /// confidentiality tests to assert plaintext never reaches DRAM.
    ///
    /// Each run of consecutively stored blocks is scanned as one byte
    /// stream, so a needle may cross block boundaries and be longer than a
    /// block; a block never written ends the run.
    #[must_use]
    pub fn contains_bytes(&self, needle: &[u8]) -> bool {
        if needle.is_empty() {
            return true;
        }
        // The bytes of the current run a match could still start in: at
        // most `needle.len() - 1` carried over, then the newest block.
        let mut stream = Vec::with_capacity(needle.len() + BLOCK_SIZE);
        let mut next = None;
        for (unit, block) in self.blocks.iter() {
            if next != Some(unit) {
                stream.clear();
            }
            stream.extend_from_slice(block);
            if stream.windows(needle.len()).any(|w| w == needle) {
                return true;
            }
            stream.drain(..stream.len().saturating_sub(needle.len() - 1));
            next = unit.checked_add(1);
        }
        false
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "the store's own tests")]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Blocks ever written.
    fn stored(d: &RawDram) -> usize {
        d.blocks.iter().count()
    }

    #[test]
    fn write_read_roundtrip() {
        let mut d = RawDram::new();
        assert_eq!(stored(&d), 0);
        d.write_block(Addr(128), [3u8; 64]);
        assert_eq!(stored(&d), 1);
        assert_eq!(d.read_block(Addr(128)), Some([3u8; 64]));
        assert_eq!(d.read_block(Addr(64)), None, "never written");
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_write_panics() {
        RawDram::new().write_block(Addr(3), [0u8; 64]);
    }

    #[test]
    fn tamper_hook() {
        let mut d = RawDram::new();
        d.write_block(Addr(0), [0u8; 64]);
        d.block_mut(Addr(0)).expect("present")[5] = 0xff;
        assert_eq!(d.read_block(Addr(0)).expect("present")[5], 0xff);
    }

    #[test]
    fn contains_bytes_scans_across_content() {
        let mut d = RawDram::new();
        let mut block = [0u8; 64];
        block[10..14].copy_from_slice(b"SECR");
        d.write_block(Addr(0), block);
        assert!(d.contains_bytes(b"SECR"));
        assert!(!d.contains_bytes(b"ABSENT"));
        assert!(d.contains_bytes(b""));
    }

    #[test]
    fn contains_bytes_spans_adjacent_blocks() {
        let mut d = RawDram::new();
        let (mut first, mut second) = ([0u8; 64], [0u8; 64]);
        first[61..].copy_from_slice(b"SEC");
        second[..4].copy_from_slice(b"|RET");
        d.write_block(Addr(64), first);
        d.write_block(Addr(128), second);
        assert!(d.contains_bytes(b"SEC|RET"));
        // A block in the next page continues the run across the page edge.
        let (mut last, mut next) = ([0u8; 64], [0u8; 64]);
        last[60..].copy_from_slice(b"PAGE");
        next[..4].copy_from_slice(b"EDGE");
        d.write_block(Addr(1_023 * 64), last);
        d.write_block(Addr(1_024 * 64), next);
        assert!(d.contains_bytes(b"PAGEEDGE"));
    }

    #[test]
    fn contains_bytes_finds_a_needle_longer_than_a_block() {
        let run: Vec<u8> = (0..128u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        let mut d = RawDram::new();
        d.write_block(Addr(0), run[..64].try_into().expect("64 bytes"));
        d.write_block(Addr(64), run[64..].try_into().expect("64 bytes"));
        assert!(d.contains_bytes(&run[14..114]));
        assert!(d.contains_bytes(&run));
    }

    #[test]
    fn contains_bytes_stops_at_a_hole() {
        let mut d = RawDram::new();
        let (mut first, mut third) = ([0u8; 64], [0u8; 64]);
        first[61..].copy_from_slice(b"SEC");
        third[..3].copy_from_slice(b"RET");
        d.write_block(Addr(0), first);
        d.write_block(Addr(128), third);
        assert!(!d.contains_bytes(b"SECRET"), "block 1 was never written");
        assert!(d.contains_bytes(b"SEC") && d.contains_bytes(b"RET"));
    }

    /// Block addresses inside one page, on either side of the first page
    /// boundary, and in a far page at the top of the block-number space.
    const UNITS: [u64; 7] = [0, 1, 2, 1_023, 1_024, (1 << 58) - 2, (1 << 58) - 1];

    proptest! {
        /// The paged DRAM and the `BTreeMap` one it replaced, driven by the
        /// same writes, reads and in-place tampering, return the same value
        /// from every call and print the same `Debug` form.
        #[test]
        fn paged_dram_matches_the_btreemap_dram(
            ops in prop::collection::vec((0u8..3, 0usize..UNITS.len(), any::<u8>()), 1..60),
        ) {
            let mut paged = RawDram::new();
            let mut reference = reference::RawDram::new();
            for (kind, at, byte) in ops {
                let addr = Addr(UNITS[at] * BLOCK_SIZE as u64);
                match kind {
                    0 => {
                        paged.write_block(addr, [byte; BLOCK_SIZE]);
                        reference.write_block(addr, [byte; BLOCK_SIZE]);
                    }
                    1 => {
                        let (p, r) = (paged.block_mut(addr), reference.block_mut(addr));
                        prop_assert_eq!(p.is_some(), r.is_some());
                        if let (Some(p), Some(r)) = (p, r) {
                            p[usize::from(byte) % BLOCK_SIZE] ^= byte;
                            r[usize::from(byte) % BLOCK_SIZE] ^= byte;
                        }
                    }
                    _ => prop_assert_eq!(paged.read_block(addr), reference.read_block(addr)),
                }
                prop_assert_eq!(stored(&paged), reference.len());
                prop_assert_eq!(stored(&paged) == 0, reference.is_empty());
                prop_assert_eq!(format!("{paged:?}"), format!("{reference:?}"));
            }
        }
    }
}

/// The `BTreeMap` DRAM the paged one replaced, unchanged: the lockstep
/// reference for [`RawDram`] and for the tree-less memory's reference.
/// Its `contains_bytes` still scans each block on its own.
#[cfg(test)]
pub(crate) mod reference {
    use std::collections::BTreeMap;
    use tnpu_sim::{Addr, BLOCK_SIZE};

    /// A sparse byte store at 64 B block granularity.
    #[derive(Debug, Clone, Default)]
    pub struct RawDram {
        blocks: BTreeMap<u64, [u8; BLOCK_SIZE]>,
    }

    impl RawDram {
        /// Empty DRAM.
        #[must_use]
        pub fn new() -> Self {
            Self::default()
        }

        /// Store a block. `addr` must be block-aligned.
        ///
        /// # Panics
        ///
        /// Panics if `addr` is not 64 B aligned.
        pub fn write_block(&mut self, addr: Addr, data: [u8; BLOCK_SIZE]) {
            assert_eq!(addr.block_offset(), 0, "unaligned block write at {addr}");
            self.blocks.insert(addr.block().0, data);
        }

        /// Load a block, if it was ever written.
        ///
        /// # Panics
        ///
        /// Panics if `addr` is not 64 B aligned.
        #[must_use]
        pub fn read_block(&self, addr: Addr) -> Option<[u8; BLOCK_SIZE]> {
            assert_eq!(addr.block_offset(), 0, "unaligned block read at {addr}");
            self.blocks.get(&addr.block().0).copied()
        }

        /// Direct mutable access to a stored block — the physical-attack hook.
        pub fn block_mut(&mut self, addr: Addr) -> Option<&mut [u8; BLOCK_SIZE]> {
            self.blocks.get_mut(&addr.block().0)
        }

        /// Number of blocks ever written.
        #[must_use]
        pub fn len(&self) -> usize {
            self.blocks.len()
        }

        /// Whether nothing has been written.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.blocks.is_empty()
        }

        /// Whether `needle` appears anywhere in the stored bytes — used by
        /// confidentiality tests to assert plaintext never reaches DRAM.
        #[must_use]
        pub fn contains_bytes(&self, needle: &[u8]) -> bool {
            if needle.is_empty() {
                return true;
            }
            self.blocks
                .values()
                .any(|block| block.windows(needle.len()).any(|w| w == needle))
        }
    }
}
