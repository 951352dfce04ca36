//! Functional counter-tree protected memory: counter-mode encryption,
//! per-block MACs, and a real Merkle counter tree with an on-chip root —
//! the baseline scheme of the paper over real bytes.

use super::dram::RawDram;
use super::{flip_bits, BlockCapture, FunctionalMemory, IntegrityError, MismatchCause};
use crate::counters::{Bump, SplitCounterBlock};
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
/// [`root`]: CounterTreeMemory::read_block
#[derive(Debug)]
pub struct CounterTreeMemory {
    dram: RawDram,
    macs: BTreeMap<u64, MacTag>,
    /// DRAM-resident SC-64 split-counter blocks, one per 64 data blocks.
    counters: BTreeMap<u64, SplitCounterBlock>,
    /// Tree-node contents: `(level, node) -> [child hash; arity]`.
    nodes: BTreeMap<(u32, u64), Vec<[u8; 32]>>,
    /// The on-chip root hash — the only trusted state.
    root: [u8; 32],
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

    /// The untrusted DRAM — attack hook.
    pub fn dram_mut(&mut self) -> &mut RawDram {
        &mut self.dram
    }

    /// The untrusted DRAM, read-only.
    #[must_use]
    pub fn dram(&self) -> &RawDram {
        &self.dram
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

    /// Snapshot the full untrusted state of a block: ciphertext, MAC, and
    /// its whole SC-64 counter block — everything a physical attacker can
    /// capture from DRAM.
    #[must_use]
    pub fn snapshot(&self, addr: Addr) -> Option<TreeSnapshot> {
        let block = addr.block().0;
        let cb = self.counter_block_of(block);
        Some(TreeSnapshot {
            ciphertext: self.dram.read_block(addr)?,
            mac: self.macs.get(&block).copied()?,
            counter_block: self.counters.get(&cb)?.clone(),
        })
    }

    /// Restore a snapshot (replay attack). The tree path is *not* restored:
    /// the root stayed on-chip while the victim kept writing, so the stale
    /// counter block no longer hashes to it.
    pub fn restore(&mut self, addr: Addr, snapshot: TreeSnapshot) {
        let block = addr.block().0;
        let cb = self.counter_block_of(block);
        self.dram.write_block(addr, snapshot.ciphertext);
        self.macs.insert(block, snapshot.mac);
        self.counters.insert(cb, snapshot.counter_block);
    }
}

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
        let snap = self.snapshot(addr)?;
        Some(BlockCapture {
            bytes: snap.ciphertext,
            mac: Some(snap.mac),
            counters: Some(snap.counter_block),
        })
    }

    fn restore_block(&mut self, addr: Addr, capture: &BlockCapture) -> bool {
        let (Some(mac), Some(counters)) = (capture.mac, capture.counters.clone()) else {
            return false;
        };
        self.restore(
            addr,
            TreeSnapshot {
                ciphertext: capture.bytes,
                mac,
                counter_block: counters,
            },
        );
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

/// Everything a physical attacker can capture about one block: the
/// ciphertext, its MAC, and the covering SC-64 counter block.
#[derive(Debug, Clone)]
pub struct TreeSnapshot {
    /// The stored ciphertext.
    pub ciphertext: [u8; BLOCK_SIZE],
    /// The stored MAC.
    pub mac: MacTag,
    /// The covering counter block's raw state.
    pub counter_block: SplitCounterBlock,
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
        assert!(!m.dram().contains_bytes(b"WEIGHTS-v1.0"));
    }

    #[test]
    fn ciphertext_tampering_detected() {
        let mut m = mem();
        m.write_block(Addr(0), [1u8; 64]);
        m.dram_mut().block_mut(Addr(0)).expect("present")[10] ^= 0x80;
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
        let old = m.snapshot(Addr(0)).expect("present");
        m.write_block(Addr(0), [2u8; 64]);
        m.restore(Addr(0), old);
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
        let ct1 = m.dram().read_block(Addr(0)).expect("present");
        m.write_block(Addr(0), [7u8; 64]);
        let ct2 = m.dram().read_block(Addr(0)).expect("present");
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
}
