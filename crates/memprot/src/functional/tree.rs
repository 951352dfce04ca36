//! Functional counter-tree protected memory: counter-mode encryption,
//! per-block MACs, and a real Merkle counter tree with an on-chip root —
//! the baseline scheme of the paper over real bytes.
//!
//! The tree is updated lazily, as the hardware does and as the cost engine
//! charges it (Bonsai-style, see [`crate::tree_engine`]). A write hashes
//! nothing: it records a trusted copy of the 64 B counter block it bumped
//! as pending. Before any verification, a flush hashes each pending
//! counter block once, writes the hash into its level-1 node, then
//! re-hashes each dirty node once, level by level, up to the on-chip root.
//! Each node keeps its hash next to its children, so a read compares one
//! child slot per level and takes each node's hash from the stored field
//! instead of hashing 2 KiB again.
//!
//! A read hashes the counter block it finds in DRAM, unless that block
//! equals the last one a read hashed: 64 consecutive data blocks share one
//! counter block, and a hash is a pure function of the block's value, so
//! the kept hash is the one re-hashing would give. The comparison against
//! the level-1 slot and the walk to the root still run on every read.
//!
//! After a flush, the nodes and the root are byte-for-byte those of an
//! eager tree that re-hashes the whole path on every write, so every read
//! returns what the eager tree would return.

use super::dram::RawDram;
use super::store::PagedStore;
use super::{
    flip_bits, stored_elsewhere, verifies_nearby, BlockCapture, FunctionalMemory, IntegrityError,
    MismatchCause,
};
use crate::counters::{Bump, SplitCounterBlock};
use crate::tree::TreeGeometry;
use crate::SchemeKind;
use std::cell::RefCell;
use std::collections::BTreeMap;
use tnpu_crypto::ctr::CtrMode;
use tnpu_crypto::mac::{BlockMac, MacPrefix, MacTag};
use tnpu_crypto::sha256::sha256;
use tnpu_crypto::Key128;
use tnpu_sim::{Addr, BLOCK_SIZE};

/// Functional counter-mode + integrity-tree memory.
///
/// All state except the on-chip root is conceptually *untrusted*
/// (DRAM-resident): the ciphertext, the MACs, the per-block counters, and
/// the tree-node contents. The attack hooks mutate that state directly;
/// reads verify the full path to the trusted root.
///
/// Tree updates are lazy. [`write_block`] copies the counter block it
/// bumped and leaves the copy pending; the next verification hashes every
/// pending copy and flushes it up to the root. The copy is taken at write
/// time, not at the flush: a counter block tampered, rolled back or
/// restored between a write and the next read must still fail against the
/// tree, and a flush that hashed the live counter block would absorb the
/// tamper into the root.
///
/// [`write_block`]: CounterTreeMemory::write_block
#[derive(Debug)]
pub struct CounterTreeMemory {
    dram: RawDram,
    macs: PagedStore<MacTag>,
    /// DRAM-resident SC-64 split-counter blocks, one per 64 data blocks.
    counters: BTreeMap<u64, SplitCounterBlock>,
    /// Nodes, root, pending counter blocks and the last read's hash. Reads
    /// take `&self` and still flush.
    tree: RefCell<TreeState>,
    geometry: TreeGeometry,
    counters_per_block: u64,
    ctr: CtrMode,
    mac: BlockMac,
    /// Retained for epoch re-keying (the exhaustion sweep).
    master: Key128,
}

/// One DRAM-resident tree node: the hashes of its children, and its own
/// hash kept next to them.
///
/// Invariant: outside a flush, `hash == sha256(children)`. Only
/// [`TreeState::flush`] writes either field, and it re-hashes every node
/// whose children it wrote. This is sound because no attack hook writes
/// tree nodes: the hooks write ciphertext, MACs and counter blocks, and
/// the nodes are private to this file. A later hook that tampers a node
/// must go through the same path that refreshes its hash, so that the
/// parent's child slot, not a stale stored hash, decides the read.
#[derive(Debug, Clone)]
struct Node {
    children: Vec<[u8; 32]>,
    hash: [u8; 32],
}

/// The tree's state: everything the flush and the reads write.
#[derive(Debug, Clone, Default)]
struct TreeState {
    /// `(level, node) -> node`; level-1 nodes hold counter-block hashes.
    nodes: BTreeMap<(u32, u64), Node>,
    /// Trusted copies of the counter blocks written since the last flush,
    /// taken at write time, by counter block. The next flush hashes each
    /// once into its level-1 node.
    pending: BTreeMap<u64, SplitCounterBlock>,
    /// The last DRAM counter block a read hashed, and its hash.
    last_read: Option<(SplitCounterBlock, [u8; 32])>,
    /// The on-chip root hash — the only trusted state.
    root: [u8; 32],
}

impl TreeState {
    /// Hash every pending counter block into its level-1 node, then
    /// re-hash each dirty node once, level by level, and take the top
    /// node's hash as the root. Each level's dirty indices come out sorted,
    /// so one pass groups every node's children.
    fn flush(&mut self, geometry: &TreeGeometry) {
        let arity = geometry.arity();
        // `(index, hash)` of the children to write one level up.
        let mut dirty: Vec<(u64, [u8; 32])> = std::mem::take(&mut self.pending)
            .into_iter()
            .map(|(cb, block)| (cb, sha256(&block.to_bytes())))
            .collect();
        for level in 1..=geometry.root_level() {
            let mut parents = Vec::new();
            let mut children = dirty.into_iter().peekable();
            while let Some(&(first, _)) = children.peek() {
                let node_idx = first / arity;
                let node = self.nodes.entry((level, node_idx)).or_insert_with(|| Node {
                    children: vec![[0; 32]; arity as usize],
                    hash: [0; 32],
                });
                while let Some((idx, hash)) = children.next_if(|&(idx, _)| idx / arity == node_idx)
                {
                    node.children[(idx % arity) as usize] = hash;
                }
                node.hash = sha256(node.children.as_flattened());
                parents.push((node_idx, node.hash));
            }
            dirty = parents;
        }
        // Writes stay inside the root's span: the top level has one node.
        if let Some(&(_, hash)) = dirty.last() {
            self.root = hash;
        }
    }

    /// Hash of a counter block a read found in DRAM. Equal blocks hash
    /// equal, so the hash is recomputed only when `block` differs from the
    /// last one hashed here.
    fn read_hash(&mut self, block: &SplitCounterBlock) -> [u8; 32] {
        match &self.last_read {
            Some((last, hash)) if last == block => *hash,
            _ => {
                let hash = sha256(&block.to_bytes());
                self.last_read = Some((block.clone(), hash));
                hash
            }
        }
    }
}

/// Probe width of the failure-path diagnosis (the counter plays the
/// version's role in this scheme).
const COUNTER_PROBE_WINDOW: u64 = 8;

#[expect(clippy::disallowed_methods, reason = "the scheme owns its raw DRAM")]
impl CounterTreeMemory {
    /// Create a protected memory covering `data_blocks` 64 B blocks.
    ///
    /// # Panics
    ///
    /// Panics if `data_blocks` is zero.
    #[must_use]
    pub fn new(master: Key128, data_blocks: u64) -> Self {
        assert!(data_blocks > 0, "must cover at least one block");
        let counters_per_block = 64;
        let counter_blocks = data_blocks.div_ceil(counters_per_block);
        let geometry = TreeGeometry::new(counter_blocks, 64);
        let mut mac_label = b"tree-mac".to_vec();
        mac_label.extend_from_slice(&master.0);
        let mut ctr_label = b"tree-ctr".to_vec();
        ctr_label.extend_from_slice(&master.0);
        CounterTreeMemory {
            dram: RawDram::new(),
            macs: PagedStore::new(MacTag::default()),
            counters: BTreeMap::new(),
            tree: RefCell::default(),
            geometry,
            counters_per_block,
            ctr: CtrMode::new(Key128::derive(&ctr_label)),
            mac: BlockMac::new(Key128::derive(&mac_label)),
            master,
        }
    }

    /// Classify a MAC mismatch (failure path only). The tree has already
    /// verified the counter path, so most failures are content tampering —
    /// but a spliced pair still reads as an address mismatch, and a pair
    /// valid under a nearby counter as a (tree-escaped) replay. `prefix`
    /// has absorbed the stored ciphertext `ct`.
    fn diagnose(
        &self,
        addr: Addr,
        counter: u64,
        prefix: &MacPrefix,
        ct: &[u8; BLOCK_SIZE],
        tag: MacTag,
    ) -> MismatchCause {
        if verifies_nearby(prefix, addr, counter, COUNTER_PROBE_WINDOW, tag) {
            MismatchCause::Version
        } else if stored_elsewhere(&self.dram, &self.macs, addr, ct, tag) {
            MismatchCause::Address
        } else {
            MismatchCause::Content
        }
    }

    fn counter_block_of(&self, block: u64) -> u64 {
        block / self.counters_per_block
    }

    /// Effective counter of a data block, if its counter block exists.
    #[must_use]
    pub fn counter_of(&self, addr: Addr) -> Option<u64> {
        let block = addr.block().0;
        let cb = self.counter_block_of(block);
        let slot = (block % self.counters_per_block) as usize;
        self.counters.get(&cb).map(|s| s.counter(slot))
    }

    /// Verify the path from `counter_block` to the trusted root, flushing
    /// pending writes first. The (untrusted) DRAM counter block is hashed
    /// unless it equals the last one hashed; each level then compares its
    /// child slot against the hash below and hands its stored hash up.
    fn verify_path(&self, counter_block: u64) -> Result<(), IntegrityError> {
        let mut tree = self.tree.borrow_mut();
        tree.flush(&self.geometry);
        let arity = self.geometry.arity();
        let fresh = SplitCounterBlock::new();
        let mut expected = tree.read_hash(self.counters.get(&counter_block).unwrap_or(&fresh));
        let mut child_idx = counter_block;
        for level in 1..=self.geometry.root_level() {
            let node_idx = child_idx / arity;
            let slot = (child_idx % arity) as usize;
            let node = tree
                .nodes
                .get(&(level, node_idx))
                .ok_or(IntegrityError::TreeMismatch { level })?;
            if node.children[slot] != expected {
                return Err(IntegrityError::TreeMismatch { level });
            }
            expected = node.hash;
            child_idx = node_idx;
        }
        if expected != tree.root {
            return Err(IntegrityError::TreeMismatch {
                level: self.geometry.root_level(),
            });
        }
        Ok(())
    }

    /// Encrypt and store a block; the hardware bumps the block's SC-64
    /// minor counter and records a copy of the counter block for the next
    /// flush of the tree to hash. If the minor overflows, every sibling block of
    /// the 4 KB page is decrypted under its old counter and re-encrypted
    /// under the new epoch — the real SC-64 overflow procedure whose cost
    /// the timing engine charges.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 64 B aligned, or if its counter block lies
    /// beyond the span of the on-chip root: `64^root_level` counter blocks,
    /// at least the `data_blocks` the memory was built for. The tree has
    /// one root, and a write past its span would replace it.
    pub fn write_block(&mut self, addr: Addr, plaintext: [u8; BLOCK_SIZE]) {
        assert_eq!(addr.block_offset(), 0, "unaligned write at {addr}");
        let block = addr.block().0;
        let cb = self.counter_block_of(block);
        let span = self
            .geometry
            .arity()
            .saturating_pow(self.geometry.root_level());
        assert!(
            cb < span,
            "write at {addr} lies beyond the span of the tree root"
        );
        let slot = (block % self.counters_per_block) as usize;
        let entry = self.counters.entry(cb).or_default();
        if entry.will_overflow(slot) {
            // Capture every sibling's plaintext under the *old* counters.
            let old = entry.clone();
            let base_block = cb * self.counters_per_block;
            let mut siblings: Vec<(u64, [u8; BLOCK_SIZE])> = Vec::new();
            for i in 0..self.counters_per_block {
                let sib = base_block + i;
                if sib == block {
                    continue;
                }
                let sib_addr = Addr(sib * BLOCK_SIZE as u64);
                if let Some(ct) = self.dram.read_block(sib_addr) {
                    let mut pt = ct;
                    self.ctr.apply(sib_addr.0, old.counter(i as usize), &mut pt);
                    siblings.push((sib, pt));
                }
            }
            // Bump into the new epoch and re-encrypt the page.
            let entry = self.counters.get_mut(&cb).expect("just inserted");
            let bumped = entry.bump(slot);
            debug_assert_eq!(bumped, Bump::Overflow);
            let epoch = entry.clone();
            for (sib, pt) in siblings {
                let sib_addr = Addr(sib * BLOCK_SIZE as u64);
                let sib_slot = (sib % self.counters_per_block) as usize;
                let counter = epoch.counter(sib_slot);
                let ct = self.ctr.encrypt(sib_addr.0, counter, &pt);
                let tag = self.mac.tag(sib_addr.0, counter, &ct);
                self.dram.write_block(sib_addr, ct);
                self.macs.insert(sib, tag);
            }
        } else {
            let bumped = entry.bump(slot);
            debug_assert_eq!(bumped, Bump::Minor);
        }
        let written = self.counters[&cb].clone();
        let counter = written.counter(slot);
        let ct = self.ctr.encrypt(addr.0, counter, &plaintext);
        let tag = self.mac.tag(addr.0, counter, &ct);
        self.dram.write_block(addr, ct);
        self.macs.insert(block, tag);
        self.tree.get_mut().pending.insert(cb, written);
    }

    /// Fetch, verify (tree then MAC) and decrypt a block.
    ///
    /// # Errors
    ///
    /// * [`IntegrityError::NotWritten`] — nothing stored at `addr`.
    /// * [`IntegrityError::TreeMismatch`] — the counter path does not hash
    ///   to the trusted root (counter tampering or replay).
    /// * [`IntegrityError::MacMismatch`] — ciphertext or MAC tampering.
    pub fn read_block(&self, addr: Addr) -> Result<[u8; BLOCK_SIZE], IntegrityError> {
        let block = addr.block().0;
        let ct = self
            .dram
            .read_block(addr)
            .ok_or(IntegrityError::NotWritten { addr: addr.0 })?;
        let counter = self
            .counter_of(addr)
            .ok_or(IntegrityError::NotWritten { addr: addr.0 })?;
        self.verify_path(self.counter_block_of(block))?;
        let tag = self
            .macs
            .get(block)
            .copied()
            .ok_or(IntegrityError::NotWritten { addr: addr.0 })?;
        let prefix = self.mac.prefix(&ct);
        if prefix.tag(addr.0, counter) != tag {
            return Err(IntegrityError::MacMismatch {
                addr: addr.0,
                cause: self.diagnose(addr, counter, &prefix, &ct, tag),
            });
        }
        let mut pt = ct;
        self.ctr.apply(addr.0, counter, &mut pt);
        Ok(pt)
    }

    /// Overwrite a block's DRAM-resident minor counter — attack hook. The
    /// tree is *not* updated (the attacker cannot recompute the protected
    /// root).
    pub fn tamper_counter(&mut self, addr: Addr, value: u64) {
        let block = addr.block().0;
        let cb = self.counter_block_of(block);
        let slot = (block % self.counters_per_block) as usize;
        self.counters
            .entry(cb)
            .or_default()
            .set_minor_raw(slot, (value % 128) as u8);
    }
}

#[expect(clippy::disallowed_methods, reason = "the scheme owns its raw DRAM")]
impl FunctionalMemory for CounterTreeMemory {
    fn scheme(&self) -> SchemeKind {
        SchemeKind::TreeBased
    }

    fn write_block(&mut self, addr: Addr, _version: u64, plaintext: [u8; BLOCK_SIZE]) {
        // The hardware manages its own counters; the software version
        // number has no role in this scheme.
        CounterTreeMemory::write_block(self, addr, plaintext);
    }

    fn read_block(&self, addr: Addr, _version: u64) -> Result<[u8; BLOCK_SIZE], IntegrityError> {
        CounterTreeMemory::read_block(self, addr)
    }

    fn tamper_bits(&mut self, addr: Addr, bits: &[u16]) -> bool {
        flip_bits(&mut self.dram, addr, bits)
    }

    fn capture_block(&self, addr: Addr) -> Option<BlockCapture> {
        let block = addr.block().0;
        Some(BlockCapture {
            bytes: self.dram.read_block(addr)?,
            mac: Some(self.macs.get(block).copied()?),
            counters: Some(self.counters.get(&self.counter_block_of(block))?.clone()),
        })
    }

    fn restore_block(&mut self, addr: Addr, capture: &BlockCapture) -> bool {
        // The tree path is *not* restored: the root stayed on-chip while
        // the victim kept writing, so a stale counter block no longer
        // hashes to it.
        let (Some(mac), Some(counters)) = (capture.mac, capture.counters.clone()) else {
            return false;
        };
        let block = addr.block().0;
        self.dram.write_block(addr, capture.bytes);
        self.macs.insert(block, mac);
        self.counters.insert(self.counter_block_of(block), counters);
        true
    }

    fn rollback_metadata(&mut self, addr: Addr, capture: &BlockCapture) -> bool {
        // Roll back the DRAM-resident counter block and MAC only; the
        // ciphertext stays current. The tree path is not (and cannot be)
        // recomputed by the attacker — the root stayed on-chip.
        let (Some(mac), Some(counters)) = (capture.mac, capture.counters.clone()) else {
            return false;
        };
        let block = addr.block().0;
        self.macs.insert(block, mac);
        self.counters.insert(self.counter_block_of(block), counters);
        true
    }

    fn splice_block(&mut self, donor: Addr, victim: Addr) -> bool {
        // Physical relocation: ciphertext and MAC move; the counters are
        // whatever already covers the victim address.
        let Some(ct) = self.dram.read_block(donor) else {
            return false;
        };
        let Some(mac) = self.macs.get(donor.block().0).copied() else {
            return false;
        };
        self.dram.write_block(victim, ct);
        self.macs.insert(victim.block().0, mac);
        true
    }

    fn substitute_mac(&mut self, victim: Addr, donor: Addr) -> bool {
        let Some(mac) = self.macs.get(donor.block().0).copied() else {
            return false;
        };
        self.macs.insert(victim.block().0, mac);
        true
    }

    fn dram_contains(&self, needle: &[u8]) -> bool {
        self.dram.contains_bytes(needle)
    }

    fn rekey(&mut self, epoch: u64) -> bool {
        let mut label = b"tree-epoch".to_vec();
        label.extend_from_slice(&epoch.to_le_bytes());
        label.extend_from_slice(&self.master.0);
        let epoch_master = Key128::derive(&label);
        let mut mac_label = b"tree-mac".to_vec();
        mac_label.extend_from_slice(&epoch_master.0);
        let mut ctr_label = b"tree-ctr".to_vec();
        ctr_label.extend_from_slice(&epoch_master.0);
        self.ctr = CtrMode::new(Key128::derive(&ctr_label));
        self.mac = BlockMac::new(Key128::derive(&mac_label));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> CounterTreeMemory {
        // Cover 64 Ki blocks (4 MB): counter blocks = 1 Ki, depth 3.
        CounterTreeMemory::new(Key128::derive(b"tree-test"), 1 << 16)
    }

    #[test]
    fn roundtrip() {
        let mut m = mem();
        let data: [u8; 64] = std::array::from_fn(|i| (i * 3) as u8);
        m.write_block(Addr(0x400), data);
        assert_eq!(m.read_block(Addr(0x400)).expect("verifies"), data);
    }

    #[test]
    fn updates_are_readable() {
        let mut m = mem();
        m.write_block(Addr(0), [1u8; 64]);
        m.write_block(Addr(0), [2u8; 64]);
        assert_eq!(m.read_block(Addr(0)).expect("verifies"), [2u8; 64]);
    }

    #[test]
    fn confidentiality() {
        let mut m = mem();
        let mut secret = [0u8; 64];
        secret[..12].copy_from_slice(b"WEIGHTS-v1.0");
        m.write_block(Addr(0), secret);
        assert!(!m.dram_contains(b"WEIGHTS-v1.0"));
    }

    #[test]
    fn ciphertext_tampering_detected() {
        let mut m = mem();
        m.write_block(Addr(0), [1u8; 64]);
        assert!(m.tamper_bits(Addr(0), &[87]), "present"); // byte 10, 0x80
        assert_eq!(
            m.read_block(Addr(0)),
            Err(IntegrityError::MacMismatch {
                addr: 0,
                cause: MismatchCause::Content
            })
        );
    }

    #[test]
    fn counter_tampering_detected_by_tree() {
        let mut m = mem();
        m.write_block(Addr(0), [1u8; 64]);
        m.tamper_counter(Addr(0), 99);
        match m.read_block(Addr(0)) {
            Err(IntegrityError::TreeMismatch { level: 1 }) => {}
            other => panic!("expected tree mismatch at level 1, got {other:?}"),
        }
    }

    #[test]
    fn full_replay_detected_by_tree() {
        // Attacker replays ciphertext + MAC + counter together. The MAC
        // verifies against the stale counter, but the tree root does not.
        let mut m = mem();
        m.write_block(Addr(0), [1u8; 64]);
        let old = m.capture_block(Addr(0)).expect("present");
        m.write_block(Addr(0), [2u8; 64]);
        assert!(m.restore_block(Addr(0), &old));
        assert!(matches!(
            m.read_block(Addr(0)),
            Err(IntegrityError::TreeMismatch { .. })
        ));
    }

    #[test]
    fn replay_of_sibling_does_not_break_others() {
        // Tampering with one block must not make *other* verified blocks
        // unreadable before the tamper is rolled forward... it does make
        // the shared counter-block path fail for siblings — the tree is
        // sound, not sparing. Distinct counter blocks stay independent.
        let mut m = mem();
        m.write_block(Addr(0), [1u8; 64]);
        // Block in a different counter block (64 blocks * 64 B = 4 KB away).
        m.write_block(Addr(4096), [2u8; 64]);
        m.tamper_counter(Addr(0), 5);
        assert!(m.read_block(Addr(0)).is_err());
        assert_eq!(m.read_block(Addr(4096)).expect("independent"), [2u8; 64]);
    }

    #[test]
    fn counters_increment_monotonically() {
        let mut m = mem();
        m.write_block(Addr(0), [0u8; 64]);
        let c1 = m.counter_of(Addr(0)).expect("present");
        m.write_block(Addr(0), [0u8; 64]);
        let c2 = m.counter_of(Addr(0)).expect("present");
        assert_eq!(c2, c1 + 1);
    }

    #[test]
    fn minor_overflow_reencrypts_the_page_transparently() {
        // 128 writes to one block overflow its minor counter; the sibling
        // blocks must remain readable (they were re-encrypted under the
        // new epoch) and the writing block keeps verifying.
        let mut m = mem();
        m.write_block(Addr(64), [0xabu8; 64]); // sibling in the same page
        for i in 0..130u64 {
            m.write_block(Addr(0), [i as u8; 64]);
        }
        assert!(
            m.counter_of(Addr(0)).expect("present") > 127,
            "epoch advanced"
        );
        assert_eq!(m.read_block(Addr(0)).expect("verifies"), [129u8; 64]);
        assert_eq!(
            m.read_block(Addr(64))
                .expect("sibling re-encrypted and verifies"),
            [0xabu8; 64]
        );
    }

    #[test]
    fn reencryption_changes_ciphertext_for_same_data() {
        // Counter-mode property the paper relies on: every write uses a
        // fresh pad even for identical plaintext.
        let mut m = mem();
        m.write_block(Addr(0), [7u8; 64]);
        let ct1 = m.capture_block(Addr(0)).expect("present").bytes;
        m.write_block(Addr(0), [7u8; 64]);
        let ct2 = m.capture_block(Addr(0)).expect("present").bytes;
        assert_ne!(ct1, ct2);
    }

    #[test]
    fn never_written() {
        let m = mem();
        assert!(matches!(
            m.read_block(Addr(0)),
            Err(IntegrityError::NotWritten { .. })
        ));
    }

    #[test]
    fn single_counter_block_memory_works() {
        let mut m = CounterTreeMemory::new(Key128::derive(b"tiny"), 4);
        m.write_block(Addr(0), [1u8; 64]);
        assert_eq!(m.read_block(Addr(0)).expect("verifies"), [1u8; 64]);
        m.tamper_counter(Addr(0), 3);
        assert!(m.read_block(Addr(0)).is_err());
    }

    #[test]
    fn tamper_between_a_write_and_the_next_read_fails_at_level_1() {
        // Each tamper lands after the second write and before any read, so
        // the flush at that read must use the leaf hash taken at the write,
        // not a hash of the tampered counter block.
        type Tamper = fn(&mut CounterTreeMemory, &BlockCapture);
        let tampers: [(&str, Tamper); 3] = [
            ("tamper_counter", |m, _| m.tamper_counter(Addr(0), 99)),
            ("rollback_metadata", |m, old| {
                assert!(m.rollback_metadata(Addr(0), old));
            }),
            ("restore_block", |m, old| {
                assert!(m.restore_block(Addr(0), old));
            }),
        ];
        for (name, tamper) in tampers {
            let mut m = mem();
            m.write_block(Addr(0), [1u8; 64]);
            let old = m.capture_block(Addr(0)).expect("written");
            m.write_block(Addr(0), [2u8; 64]);
            tamper(&mut m, &old);
            assert_eq!(
                m.read_block(Addr(0)),
                Err(IntegrityError::TreeMismatch { level: 1 }),
                "{name}"
            );
        }
    }

    #[test]
    fn a_tamper_after_a_read_hashed_its_counter_block_fails_at_level_1() {
        // The first read keeps its counter block's hash for the next read;
        // the tampered block differs from it, so that read hashes afresh.
        let mut m = mem();
        m.write_block(Addr(0), [1u8; 64]);
        assert_eq!(m.read_block(Addr(0)), Ok([1u8; 64]));
        assert!(m.tree.borrow().last_read.is_some());
        let clean = m.capture_block(Addr(0)).expect("written");
        m.tamper_counter(Addr(0), 99);
        assert_eq!(
            m.read_block(Addr(0)),
            Err(IntegrityError::TreeMismatch { level: 1 })
        );
        assert!(m.restore_block(Addr(0), &clean));
        assert_eq!(m.read_block(Addr(0)), Ok([1u8; 64]));
    }

    #[test]
    #[should_panic(expected = "beyond the span of the tree root")]
    fn write_beyond_the_root_span_panics() {
        // One counter block: the root sits at level 1 and covers counter
        // blocks 0..64. Counter block 64 would sit under level-1 node 1.
        let mut m = CounterTreeMemory::new(Key128::derive(b"span"), 64);
        m.write_block(Addr(0), [1u8; 64]);
        m.write_block(Addr(262_144), [2u8; 64]);
    }

    #[test]
    fn write_past_data_blocks_inside_the_span_round_trips() {
        let mut m = CounterTreeMemory::new(Key128::derive(b"span"), 64);
        m.write_block(Addr(0), [1u8; 64]);
        // The last block of counter block 63, the last one the root covers.
        let last = Addr(262_144 - 64);
        m.write_block(last, [2u8; 64]);
        assert_eq!(m.read_block(last), Ok([2u8; 64]));
        assert_eq!(m.read_block(Addr(0)), Ok([1u8; 64]));
    }
}

#[cfg(test)]
mod lockstep {
    use super::reference::EagerTreeMemory;
    use super::*;
    use proptest::prelude::*;

    /// Counter blocks the ops touch. The large tree (two level-1 nodes
    /// over 128 counter blocks) also gets counter block 200, past its
    /// `data_blocks` but inside the root's span; the small one (root at
    /// level 1) gets counter blocks 1 and 63 for the same reason.
    const LARGE_COUNTER_BLOCKS: [u64; 5] = [0, 1, 64, 127, 200];
    const SMALL_COUNTER_BLOCKS: [u64; 3] = [0, 1, 63];
    /// Blocks used within each counter block.
    const SLOTS: [u64; 3] = [0, 1, 63];

    fn addrs(counter_blocks: &[u64]) -> Vec<Addr> {
        counter_blocks
            .iter()
            .flat_map(|cb| SLOTS.iter().map(move |slot| Addr((cb * 64 + slot) * 64)))
            .collect()
    }

    fn same_capture(a: Option<&BlockCapture>, b: Option<&BlockCapture>) -> bool {
        match (a, b) {
            (Some(a), Some(b)) => a.bytes == b.bytes && a.mac == b.mac && a.counters == b.counters,
            (a, b) => a.is_none() && b.is_none(),
        }
    }

    /// Flush a copy of the lazy tree (the memory itself keeps its pending
    /// leaves, so later steps still batch) and check it: every stored hash
    /// is the hash of its children, the root is the stored hash of
    /// root-level node 0, and the nodes and root equal the eager tree's.
    fn assert_trees_agree(lazy: &CounterTreeMemory, eager: &EagerTreeMemory) {
        let mut tree = lazy.tree.borrow().clone();
        tree.flush(&lazy.geometry);
        for (key, node) in &tree.nodes {
            assert_eq!(
                node.hash,
                sha256(node.children.as_flattened()),
                "node {key:?}"
            );
        }
        let top = tree.nodes.get(&(lazy.geometry.root_level(), 0));
        assert_eq!(top.map_or([0; 32], |n| n.hash), tree.root);
        let children: BTreeMap<_, _> = tree
            .nodes
            .iter()
            .map(|(&key, node)| (key, node.children.clone()))
            .collect();
        assert_eq!(children, eager.nodes);
        assert_eq!(tree.root, eager.root);
    }

    /// Apply one decoded op to both memories and assert they return the
    /// same value.
    fn step(
        lazy: &mut CounterTreeMemory,
        eager: &mut EagerTreeMemory,
        captures: &mut Vec<BlockCapture>,
        addrs: &[Addr],
        (kind, a, b): (u8, u64, u64),
    ) {
        // Three ops in four pick one of the first four addresses, so that
        // writes, hooks and reads keep meeting on the same blocks.
        let at = |x: u64| {
            let pool = if x.is_multiple_of(4) { addrs.len() } else { 4 };
            addrs[(x / 4 % pool as u64) as usize]
        };
        let (addr, other) = (at(a), at(b));
        let capture = captures
            .get((b % captures.len().max(1) as u64) as usize)
            .cloned();
        match kind {
            0..=3 => {
                lazy.write_block(addr, [b as u8; BLOCK_SIZE]);
                eager.write_block(addr, [b as u8; BLOCK_SIZE]);
            }
            // A run of 130+ writes overflows the minor counter and
            // re-encrypts the page, with no flush in between.
            4 => {
                for i in 0..130 + b % 8 {
                    lazy.write_block(addr, [i as u8; BLOCK_SIZE]);
                    eager.write_block(addr, [i as u8; BLOCK_SIZE]);
                }
            }
            5..=7 => assert_eq!(lazy.read_block(addr), eager.read_block(addr)),
            8 => {
                let bits = [(b % 512) as u16, ((b >> 9) % 512) as u16];
                assert_eq!(
                    lazy.tamper_bits(addr, &bits),
                    eager.tamper_bits(addr, &bits)
                );
            }
            9 => {
                lazy.tamper_counter(addr, b);
                eager.tamper_counter(addr, b);
            }
            10 => {
                let (l, e) = (lazy.capture_block(addr), eager.capture_block(addr));
                assert!(same_capture(l.as_ref(), e.as_ref()));
                captures.extend(l);
            }
            11 => {
                if let Some(c) = capture {
                    assert_eq!(lazy.restore_block(addr, &c), eager.restore_block(addr, &c));
                }
            }
            12 => {
                if let Some(c) = capture {
                    assert_eq!(
                        lazy.rollback_metadata(addr, &c),
                        eager.rollback_metadata(addr, &c)
                    );
                }
            }
            13 => assert_eq!(
                lazy.splice_block(addr, other),
                eager.splice_block(addr, other)
            ),
            14 => assert_eq!(
                lazy.substitute_mac(addr, other),
                eager.substitute_mac(addr, other)
            ),
            _ => assert_eq!(lazy.rekey(b % 3), eager.rekey(b % 3)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The lazy and eager trees, driven by the same random sequence of
        /// writes, reads and attack hooks, return the same value from every
        /// call (read errors included, down to the tree level and the MAC
        /// mismatch cause), hold the same untrusted state after every
        /// step, and agree node for node once flushed.
        #[test]
        fn lazy_tree_matches_the_eager_tree(
            large in any::<bool>(),
            ops in prop::collection::vec((0u8..16, any::<u64>(), any::<u64>()), 1..80),
        ) {
            let (data_blocks, addrs) = if large {
                (128 * 64, addrs(&LARGE_COUNTER_BLOCKS))
            } else {
                (64, addrs(&SMALL_COUNTER_BLOCKS))
            };
            let key = Key128::derive(b"lockstep");
            let mut lazy = CounterTreeMemory::new(key, data_blocks);
            let mut eager = EagerTreeMemory::new(key, data_blocks);
            let mut captures = Vec::new();
            for op in ops {
                step(&mut lazy, &mut eager, &mut captures, &addrs, op);
                for &addr in &addrs {
                    prop_assert!(same_capture(
                        lazy.capture_block(addr).as_ref(),
                        eager.capture_block(addr).as_ref()
                    ));
                }
                assert_trees_agree(&lazy, &eager);
            }
            for &addr in &addrs {
                prop_assert_eq!(lazy.read_block(addr), eager.read_block(addr));
            }
        }
    }
}

/// The eager tree the lazy one replaced, unchanged but for its name, two
/// visible fields, two unused DRAM accessors left out and its snapshot
/// hooks folded into `capture_block`/`restore_block`: every write
/// re-hashes the whole path to the root and every read re-hashes each node
/// on it. It is the equivalence oracle for the lazy tree.
#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the lockstep reference is a scheme of its own"
)]
mod reference {
    use super::super::{flip_bits, BlockCapture, FunctionalMemory, IntegrityError, MismatchCause};
    use crate::counters::{Bump, SplitCounterBlock};
    use crate::functional::dram::RawDram;
    use crate::tree::TreeGeometry;
    use crate::SchemeKind;
    use std::collections::BTreeMap;
    use tnpu_crypto::ctr::CtrMode;
    use tnpu_crypto::mac::{BlockMac, MacTag};
    use tnpu_crypto::sha256::sha256;
    use tnpu_crypto::Key128;
    use tnpu_sim::{Addr, BLOCK_SIZE};

    /// Functional counter-mode + integrity-tree memory.
    ///
    /// All state except [`root`] is conceptually *untrusted* (DRAM-resident):
    /// the ciphertext, the MACs, the per-block counters, and the tree-node
    /// contents. The attack hooks mutate that state directly; reads verify the
    /// full path to the trusted root.
    ///
    /// [`root`]: EagerTreeMemory::read_block
    #[derive(Debug)]
    pub struct EagerTreeMemory {
        dram: RawDram,
        macs: BTreeMap<u64, MacTag>,
        /// DRAM-resident SC-64 split-counter blocks, one per 64 data blocks.
        counters: BTreeMap<u64, SplitCounterBlock>,
        /// Tree-node contents: `(level, node) -> [child hash; arity]`.
        pub(super) nodes: BTreeMap<(u32, u64), Vec<[u8; 32]>>,
        /// The on-chip root hash — the only trusted state.
        pub(super) root: [u8; 32],
        geometry: TreeGeometry,
        counters_per_block: u64,
        ctr: CtrMode,
        mac: BlockMac,
        /// Retained for epoch re-keying (the exhaustion sweep).
        master: Key128,
    }

    /// Probe width of the failure-path diagnosis (the counter plays the
    /// version's role in this scheme).
    const COUNTER_PROBE_WINDOW: u64 = 8;

    impl EagerTreeMemory {
        /// Create a protected memory covering `data_blocks` 64 B blocks.
        ///
        /// # Panics
        ///
        /// Panics if `data_blocks` is zero.
        #[must_use]
        pub fn new(master: Key128, data_blocks: u64) -> Self {
            assert!(data_blocks > 0, "must cover at least one block");
            let counters_per_block = 64;
            let counter_blocks = data_blocks.div_ceil(counters_per_block);
            let geometry = TreeGeometry::new(counter_blocks, 64);
            let mut mac_label = b"tree-mac".to_vec();
            mac_label.extend_from_slice(&master.0);
            let mut ctr_label = b"tree-ctr".to_vec();
            ctr_label.extend_from_slice(&master.0);
            EagerTreeMemory {
                dram: RawDram::new(),
                macs: BTreeMap::new(),
                counters: BTreeMap::new(),
                nodes: BTreeMap::new(),
                root: [0; 32],
                geometry,
                counters_per_block,
                ctr: CtrMode::new(Key128::derive(&ctr_label)),
                mac: BlockMac::new(Key128::derive(&mac_label)),
                master,
            }
        }

        /// Classify a MAC mismatch (failure path only). The tree has already
        /// verified the counter path, so most failures are content tampering —
        /// but a spliced pair still reads as an address mismatch, and a pair
        /// valid under a nearby counter as a (tree-escaped) replay.
        fn diagnose(
            &self,
            addr: Addr,
            counter: u64,
            ct: &[u8; BLOCK_SIZE],
            tag: MacTag,
        ) -> MismatchCause {
            for delta in 1..=COUNTER_PROBE_WINDOW {
                for c in [counter.checked_sub(delta), counter.checked_add(delta)]
                    .into_iter()
                    .flatten()
                {
                    if self.mac.verify(addr.0, c, ct, tag) {
                        return MismatchCause::Version;
                    }
                }
            }
            let unit = addr.block().0;
            for (&other, &other_tag) in &self.macs {
                if other == unit || other_tag != tag {
                    continue;
                }
                if let Some(other_ct) = self.dram.read_block(Addr(other * BLOCK_SIZE as u64)) {
                    if other_ct == *ct {
                        return MismatchCause::Address;
                    }
                }
            }
            MismatchCause::Content
        }

        fn counter_block_of(&self, block: u64) -> u64 {
            block / self.counters_per_block
        }

        /// Hash of a counter block's current (untrusted) serialized contents.
        fn counter_block_hash(&self, counter_block: u64) -> [u8; 32] {
            let bytes = self.counters.get(&counter_block).map_or_else(
                || SplitCounterBlock::new().to_bytes(),
                SplitCounterBlock::to_bytes,
            );
            sha256(&bytes)
        }

        /// Effective counter of a data block, if its counter block exists.
        #[must_use]
        pub fn counter_of(&self, addr: Addr) -> Option<u64> {
            let block = addr.block().0;
            let cb = self.counter_block_of(block);
            let slot = (block % self.counters_per_block) as usize;
            self.counters.get(&cb).map(|s| s.counter(slot))
        }

        fn node_hash(node: &[[u8; 32]]) -> [u8; 32] {
            sha256(node.as_flattened())
        }

        /// Re-hash the path from `counter_block` to the root after a counter
        /// update (what the hardware does on a verified counter write).
        fn update_path(&mut self, counter_block: u64) {
            let arity = self.geometry.arity();
            let mut child_hash = self.counter_block_hash(counter_block);
            let mut child_idx = counter_block;
            for level in 1..=self.geometry.root_level() {
                let node_idx = child_idx / arity;
                let slot = (child_idx % arity) as usize;
                let node = self
                    .nodes
                    .entry((level, node_idx))
                    .or_insert_with(|| vec![[0; 32]; arity as usize]);
                node[slot] = child_hash;
                child_hash = Self::node_hash(node);
                child_idx = node_idx;
            }
            self.root = child_hash;
        }

        /// Verify the path from `counter_block` to the trusted root.
        fn verify_path(&self, counter_block: u64) -> Result<(), IntegrityError> {
            let arity = self.geometry.arity();
            let mut expected = self.counter_block_hash(counter_block);
            let mut child_idx = counter_block;
            for level in 1..=self.geometry.root_level() {
                let node_idx = child_idx / arity;
                let slot = (child_idx % arity) as usize;
                let node = self
                    .nodes
                    .get(&(level, node_idx))
                    .ok_or(IntegrityError::TreeMismatch { level })?;
                if node[slot] != expected {
                    return Err(IntegrityError::TreeMismatch { level });
                }
                expected = Self::node_hash(node);
                child_idx = node_idx;
            }
            if expected != self.root {
                return Err(IntegrityError::TreeMismatch {
                    level: self.geometry.root_level(),
                });
            }
            Ok(())
        }

        /// Encrypt and store a block; the hardware bumps the block's SC-64
        /// minor counter and updates the tree path. If the minor overflows,
        /// every sibling block of the 4 KB page is decrypted under its old
        /// counter and re-encrypted under the new epoch — the real SC-64
        /// overflow procedure whose cost the timing engine charges.
        ///
        /// # Panics
        ///
        /// Panics if `addr` is not 64 B aligned.
        pub fn write_block(&mut self, addr: Addr, plaintext: [u8; BLOCK_SIZE]) {
            assert_eq!(addr.block_offset(), 0, "unaligned write at {addr}");
            let block = addr.block().0;
            let cb = self.counter_block_of(block);
            let slot = (block % self.counters_per_block) as usize;
            let entry = self.counters.entry(cb).or_default();
            if entry.will_overflow(slot) {
                // Capture every sibling's plaintext under the *old* counters.
                let old = entry.clone();
                let base_block = cb * self.counters_per_block;
                let mut siblings: Vec<(u64, [u8; BLOCK_SIZE])> = Vec::new();
                for i in 0..self.counters_per_block {
                    let sib = base_block + i;
                    if sib == block {
                        continue;
                    }
                    let sib_addr = Addr(sib * BLOCK_SIZE as u64);
                    if let Some(ct) = self.dram.read_block(sib_addr) {
                        let mut pt = ct;
                        self.ctr.apply(sib_addr.0, old.counter(i as usize), &mut pt);
                        siblings.push((sib, pt));
                    }
                }
                // Bump into the new epoch and re-encrypt the page.
                let entry = self.counters.get_mut(&cb).expect("just inserted");
                let bumped = entry.bump(slot);
                debug_assert_eq!(bumped, Bump::Overflow);
                let epoch = entry.clone();
                for (sib, pt) in siblings {
                    let sib_addr = Addr(sib * BLOCK_SIZE as u64);
                    let sib_slot = (sib % self.counters_per_block) as usize;
                    let counter = epoch.counter(sib_slot);
                    let ct = self.ctr.encrypt(sib_addr.0, counter, &pt);
                    let tag = self.mac.tag(sib_addr.0, counter, &ct);
                    self.dram.write_block(sib_addr, ct);
                    self.macs.insert(sib, tag);
                }
            } else {
                let bumped = entry.bump(slot);
                debug_assert_eq!(bumped, Bump::Minor);
            }
            let counter = self.counters[&cb].counter(slot);
            let ct = self.ctr.encrypt(addr.0, counter, &plaintext);
            let tag = self.mac.tag(addr.0, counter, &ct);
            self.dram.write_block(addr, ct);
            self.macs.insert(block, tag);
            self.update_path(cb);
        }

        /// Fetch, verify (tree then MAC) and decrypt a block.
        ///
        /// # Errors
        ///
        /// * [`IntegrityError::NotWritten`] — nothing stored at `addr`.
        /// * [`IntegrityError::TreeMismatch`] — the counter path does not hash
        ///   to the trusted root (counter tampering or replay).
        /// * [`IntegrityError::MacMismatch`] — ciphertext or MAC tampering.
        pub fn read_block(&self, addr: Addr) -> Result<[u8; BLOCK_SIZE], IntegrityError> {
            let block = addr.block().0;
            let ct = self
                .dram
                .read_block(addr)
                .ok_or(IntegrityError::NotWritten { addr: addr.0 })?;
            let counter = self
                .counter_of(addr)
                .ok_or(IntegrityError::NotWritten { addr: addr.0 })?;
            self.verify_path(self.counter_block_of(block))?;
            let tag = self
                .macs
                .get(&block)
                .copied()
                .ok_or(IntegrityError::NotWritten { addr: addr.0 })?;
            if !self.mac.verify(addr.0, counter, &ct, tag) {
                return Err(IntegrityError::MacMismatch {
                    addr: addr.0,
                    cause: self.diagnose(addr, counter, &ct, tag),
                });
            }
            let mut pt = ct;
            self.ctr.apply(addr.0, counter, &mut pt);
            Ok(pt)
        }

        /// Overwrite a block's DRAM-resident minor counter — attack hook. The
        /// tree is *not* updated (the attacker cannot recompute the protected
        /// root).
        pub fn tamper_counter(&mut self, addr: Addr, value: u64) {
            let block = addr.block().0;
            let cb = self.counter_block_of(block);
            let slot = (block % self.counters_per_block) as usize;
            self.counters
                .entry(cb)
                .or_default()
                .set_minor_raw(slot, (value % 128) as u8);
        }
    }

    impl FunctionalMemory for EagerTreeMemory {
        fn scheme(&self) -> SchemeKind {
            SchemeKind::TreeBased
        }

        fn write_block(&mut self, addr: Addr, _version: u64, plaintext: [u8; BLOCK_SIZE]) {
            // The hardware manages its own counters; the software version
            // number has no role in this scheme.
            EagerTreeMemory::write_block(self, addr, plaintext);
        }

        fn read_block(
            &self,
            addr: Addr,
            _version: u64,
        ) -> Result<[u8; BLOCK_SIZE], IntegrityError> {
            EagerTreeMemory::read_block(self, addr)
        }

        fn tamper_bits(&mut self, addr: Addr, bits: &[u16]) -> bool {
            flip_bits(&mut self.dram, addr, bits)
        }

        fn capture_block(&self, addr: Addr) -> Option<BlockCapture> {
            let block = addr.block().0;
            Some(BlockCapture {
                bytes: self.dram.read_block(addr)?,
                mac: Some(self.macs.get(&block).copied()?),
                counters: Some(self.counters.get(&self.counter_block_of(block))?.clone()),
            })
        }

        fn restore_block(&mut self, addr: Addr, capture: &BlockCapture) -> bool {
            let (Some(mac), Some(counters)) = (capture.mac, capture.counters.clone()) else {
                return false;
            };
            let block = addr.block().0;
            self.dram.write_block(addr, capture.bytes);
            self.macs.insert(block, mac);
            self.counters.insert(self.counter_block_of(block), counters);
            true
        }

        fn rollback_metadata(&mut self, addr: Addr, capture: &BlockCapture) -> bool {
            // Roll back the DRAM-resident counter block and MAC only; the
            // ciphertext stays current. The tree path is not (and cannot be)
            // recomputed by the attacker — the root stayed on-chip.
            let (Some(mac), Some(counters)) = (capture.mac, capture.counters.clone()) else {
                return false;
            };
            let block = addr.block().0;
            self.macs.insert(block, mac);
            self.counters.insert(self.counter_block_of(block), counters);
            true
        }

        fn splice_block(&mut self, donor: Addr, victim: Addr) -> bool {
            // Physical relocation: ciphertext and MAC move; the counters are
            // whatever already covers the victim address.
            let Some(ct) = self.dram.read_block(donor) else {
                return false;
            };
            let Some(mac) = self.macs.get(&donor.block().0).copied() else {
                return false;
            };
            self.dram.write_block(victim, ct);
            self.macs.insert(victim.block().0, mac);
            true
        }

        fn substitute_mac(&mut self, victim: Addr, donor: Addr) -> bool {
            let Some(mac) = self.macs.get(&donor.block().0).copied() else {
                return false;
            };
            self.macs.insert(victim.block().0, mac);
            true
        }

        fn dram_contains(&self, needle: &[u8]) -> bool {
            self.dram.contains_bytes(needle)
        }

        fn rekey(&mut self, epoch: u64) -> bool {
            let mut label = b"tree-epoch".to_vec();
            label.extend_from_slice(&epoch.to_le_bytes());
            label.extend_from_slice(&self.master.0);
            let epoch_master = Key128::derive(&label);
            let mut mac_label = b"tree-mac".to_vec();
            mac_label.extend_from_slice(&epoch_master.0);
            let mut ctr_label = b"tree-ctr".to_vec();
            ctr_label.extend_from_slice(&epoch_master.0);
            self.ctr = CtrMode::new(Key128::derive(&ctr_label));
            self.mac = BlockMac::new(Key128::derive(&mac_label));
            true
        }
    }
}
