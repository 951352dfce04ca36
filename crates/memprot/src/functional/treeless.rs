//! Functional tree-less protected memory: AES-XTS + versioned MACs over
//! real bytes (paper Fig. 12).

use super::dram::RawDram;
use super::store::PagedStore;
use super::{
    flip_bits, stored_elsewhere, verifies_nearby, BlockCapture, FunctionalMemory, IntegrityError,
    MismatchCause,
};
use crate::SchemeKind;
use tnpu_crypto::mac::{BlockMac, MacPrefix, MacTag};
use tnpu_crypto::xts::XtsMode;
use tnpu_crypto::Key128;
use tnpu_sim::{Addr, BLOCK_SIZE};

/// Tree-less protected memory: ciphertext and MACs live in untrusted
/// storage; the caller (CPU-side enclave software) supplies the version
/// number on every access, exactly like the `mvin`/`mvout` extension of the
/// paper.
///
/// # Examples
///
/// ```
/// use tnpu_memprot::functional::TreelessMemory;
/// use tnpu_crypto::Key128;
/// use tnpu_sim::Addr;
///
/// let mut mem = TreelessMemory::new(Key128::derive(b"demo"));
/// mem.write_block(Addr(0), 1, [42u8; 64]);
/// assert_eq!(mem.read_block(Addr(0), 1).unwrap(), [42u8; 64]);
/// assert!(mem.read_block(Addr(0), 2).is_err()); // stale version expected
/// ```
#[derive(Debug)]
pub struct TreelessMemory {
    dram: RawDram,
    macs: PagedStore<MacTag>,
    xts: XtsMode,
    mac: BlockMac,
    /// Retained for epoch re-keying (the exhaustion sweep).
    master: Key128,
}

/// How far the failure-path diagnosis probes around the expected version
/// when classifying a MAC mismatch. Replay windows in practice are a few
/// versions wide (one bump per inference pass); anything further away is
/// indistinguishable from content tampering.
const VERSION_PROBE_WINDOW: u64 = 8;

impl TreelessMemory {
    /// Create a protected memory with keys derived from `master`.
    #[must_use]
    pub fn new(master: Key128) -> Self {
        let mut mac_label = b"treeless-mac".to_vec();
        mac_label.extend_from_slice(&master.0);
        TreelessMemory {
            dram: RawDram::new(),
            macs: PagedStore::new(MacTag::default()),
            xts: XtsMode::from_master(master),
            mac: BlockMac::new(Key128::derive(&mac_label)),
            master,
        }
    }

    /// Classify a MAC mismatch (failure path only — runs real crypto over
    /// the probe window, but only once a read has already been rejected).
    /// `prefix` has absorbed the stored ciphertext `ct`.
    fn diagnose(
        &self,
        addr: Addr,
        version: u64,
        prefix: &MacPrefix,
        ct: &[u8; BLOCK_SIZE],
        tag: MacTag,
    ) -> MismatchCause {
        if verifies_nearby(prefix, addr, version, VERSION_PROBE_WINDOW, tag) {
            // Stale state was replayed over a newer write (or the table
            // ran ahead).
            MismatchCause::Version
        } else if stored_elsewhere(&self.dram, &self.macs, addr, ct, tag) {
            MismatchCause::Address
        } else {
            MismatchCause::Content
        }
    }

    /// Encrypt and store a block with `version` (the `mvout` path,
    /// Fig. 12 (a)).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 64 B aligned.
    pub fn write_block(&mut self, addr: Addr, version: u64, plaintext: [u8; BLOCK_SIZE]) {
        assert_eq!(addr.block_offset(), 0, "unaligned write at {addr}");
        let unit = addr.block().0;
        let mut ct = plaintext;
        self.xts.encrypt_block(unit, &mut ct);
        // The MAC binds the *stored* bytes, the address, and the version.
        let tag = self.mac.tag(addr.0, version, &ct);
        self.dram.write_block(addr, ct);
        self.macs.insert(unit, tag);
    }

    /// Fetch, verify against the expected `version`, and decrypt a block
    /// (the `mvin` path, Fig. 12 (b)).
    ///
    /// # Errors
    ///
    /// * [`IntegrityError::NotWritten`] — nothing stored at `addr`.
    /// * [`IntegrityError::MacMismatch`] — content, address or version is
    ///   inconsistent (tampering or replay).
    pub fn read_block(&self, addr: Addr, version: u64) -> Result<[u8; BLOCK_SIZE], IntegrityError> {
        let unit = addr.block().0;
        let ct = self
            .dram
            .read_block(addr)
            .ok_or(IntegrityError::NotWritten { addr: addr.0 })?;
        let tag = self
            .macs
            .get(unit)
            .copied()
            .ok_or(IntegrityError::NotWritten { addr: addr.0 })?;
        let prefix = self.mac.prefix(&ct);
        if prefix.tag(addr.0, version) != tag {
            return Err(IntegrityError::MacMismatch {
                addr: addr.0,
                cause: self.diagnose(addr, version, &prefix, &ct, tag),
            });
        }
        let mut pt = ct;
        self.xts.decrypt_block(unit, &mut pt);
        Ok(pt)
    }

    /// The untrusted DRAM — attack hook.
    pub fn dram_mut(&mut self) -> &mut RawDram {
        &mut self.dram
    }

    /// The untrusted DRAM, read-only (for confidentiality scans).
    #[must_use]
    pub fn dram(&self) -> &RawDram {
        &self.dram
    }

    /// Overwrite the stored MAC of a block — attack hook (the MAC region is
    /// ordinary untrusted DRAM).
    pub fn set_mac(&mut self, addr: Addr, tag: MacTag) {
        self.macs.insert(addr.block().0, tag);
    }

    /// Snapshot `(ciphertext, MAC)` of a block — the first half of a replay
    /// attack.
    #[must_use]
    pub fn snapshot(&self, addr: Addr) -> Option<([u8; BLOCK_SIZE], MacTag)> {
        let ct = self.dram.read_block(addr)?;
        let tag = self.macs.get(addr.block().0).copied()?;
        Some((ct, tag))
    }

    /// Restore a previous `(ciphertext, MAC)` snapshot — the second half of
    /// a replay attack. Both items are attacker-visible and attacker-
    /// writable, which is why a MAC alone cannot stop replay.
    pub fn restore(&mut self, addr: Addr, snapshot: ([u8; BLOCK_SIZE], MacTag)) {
        self.dram.write_block(addr, snapshot.0);
        self.macs.insert(addr.block().0, snapshot.1);
    }
}

impl FunctionalMemory for TreelessMemory {
    fn scheme(&self) -> SchemeKind {
        SchemeKind::Treeless
    }

    fn write_block(&mut self, addr: Addr, version: u64, plaintext: [u8; BLOCK_SIZE]) {
        TreelessMemory::write_block(self, addr, version, plaintext);
    }

    fn read_block(&self, addr: Addr, version: u64) -> Result<[u8; BLOCK_SIZE], IntegrityError> {
        TreelessMemory::read_block(self, addr, version)
    }

    fn tamper_bits(&mut self, addr: Addr, bits: &[u16]) -> bool {
        flip_bits(&mut self.dram, addr, bits)
    }

    fn capture_block(&self, addr: Addr) -> Option<BlockCapture> {
        let (bytes, mac) = self.snapshot(addr)?;
        Some(BlockCapture {
            bytes,
            mac: Some(mac),
            counters: None,
        })
    }

    fn restore_block(&mut self, addr: Addr, capture: &BlockCapture) -> bool {
        let Some(mac) = capture.mac else {
            return false; // a MAC-less capture has nothing to install here
        };
        self.restore(addr, (capture.bytes, mac));
        true
    }

    fn rollback_metadata(&mut self, addr: Addr, capture: &BlockCapture) -> bool {
        // The MAC region is ordinary untrusted DRAM: roll only it back,
        // leaving the current ciphertext in place.
        let Some(mac) = capture.mac else {
            return false;
        };
        self.set_mac(addr, mac);
        true
    }

    fn splice_block(&mut self, donor: Addr, victim: Addr) -> bool {
        let Some(snap) = self.snapshot(donor) else {
            return false;
        };
        self.restore(victim, snap);
        true
    }

    fn substitute_mac(&mut self, victim: Addr, donor: Addr) -> bool {
        let Some(tag) = self.macs.get(donor.block().0).copied() else {
            return false;
        };
        self.set_mac(victim, tag);
        true
    }

    fn dram_contains(&self, needle: &[u8]) -> bool {
        self.dram.contains_bytes(needle)
    }

    fn rekey(&mut self, epoch: u64) -> bool {
        let mut label = b"treeless-epoch".to_vec();
        label.extend_from_slice(&epoch.to_le_bytes());
        label.extend_from_slice(&self.master.0);
        let epoch_master = Key128::derive(&label);
        let mut mac_label = b"treeless-mac".to_vec();
        mac_label.extend_from_slice(&epoch_master.0);
        self.xts = XtsMode::from_master(epoch_master);
        self.mac = BlockMac::new(Key128::derive(&mac_label));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> TreelessMemory {
        TreelessMemory::new(Key128::derive(b"test"))
    }

    #[test]
    fn roundtrip() {
        let mut m = mem();
        let data: [u8; 64] = std::array::from_fn(|i| i as u8);
        m.write_block(Addr(256), 5, data);
        assert_eq!(m.read_block(Addr(256), 5).expect("verifies"), data);
    }

    #[test]
    fn confidentiality_no_plaintext_in_dram() {
        let mut m = mem();
        let mut secret = [0u8; 64];
        secret[..16].copy_from_slice(b"TOP-SECRET-MODEL");
        m.write_block(Addr(0), 1, secret);
        assert!(!m.dram().contains_bytes(b"TOP-SECRET-MODEL"));
    }

    #[test]
    fn tampering_ciphertext_detected() {
        let mut m = mem();
        m.write_block(Addr(0), 1, [1u8; 64]);
        m.dram_mut().block_mut(Addr(0)).expect("present")[0] ^= 1;
        assert_eq!(
            m.read_block(Addr(0), 1),
            Err(IntegrityError::MacMismatch {
                addr: 0,
                cause: MismatchCause::Content
            })
        );
    }

    #[test]
    fn tampering_mac_detected() {
        let mut m = mem();
        m.write_block(Addr(0), 1, [1u8; 64]);
        m.set_mac(Addr(0), MacTag([0xde; 8]));
        assert!(m.read_block(Addr(0), 1).is_err());
    }

    #[test]
    fn replay_with_correct_version_tracking_detected() {
        // Attacker snapshots version-1 state, victim writes version 2,
        // attacker restores the old state. Software expects version 2:
        // the stale MAC (bound to version 1) fails.
        let mut m = mem();
        m.write_block(Addr(0), 1, [1u8; 64]);
        let old = m.snapshot(Addr(0)).expect("present");
        m.write_block(Addr(0), 2, [2u8; 64]);
        m.restore(Addr(0), old);
        assert_eq!(
            m.read_block(Addr(0), 2),
            Err(IntegrityError::MacMismatch {
                addr: 0,
                cause: MismatchCause::Version
            })
        );
    }

    #[test]
    fn replay_undetected_without_version_bump() {
        // If the software does NOT bump the version on update (a broken
        // version-management policy), the replayed old block verifies —
        // demonstrating that the version number is what provides replay
        // protection, not the MAC itself.
        let mut m = mem();
        m.write_block(Addr(0), 7, [1u8; 64]);
        let old = m.snapshot(Addr(0)).expect("present");
        m.write_block(Addr(0), 7, [2u8; 64]); // version NOT bumped
        m.restore(Addr(0), old);
        assert_eq!(m.read_block(Addr(0), 7).expect("verifies"), [1u8; 64]);
    }

    #[test]
    fn relocation_detected() {
        // Copying a valid (ciphertext, MAC) pair to another address fails:
        // the MAC binds the address. (Decryption would also scramble it —
        // the tweak differs — but the MAC check fires first.)
        let mut m = mem();
        m.write_block(Addr(0), 1, [9u8; 64]);
        let snap = m.snapshot(Addr(0)).expect("present");
        m.write_block(Addr(64), 1, [8u8; 64]);
        m.restore(Addr(64), snap);
        assert_eq!(
            m.read_block(Addr(64), 1),
            Err(IntegrityError::MacMismatch {
                addr: 64,
                cause: MismatchCause::Address
            }),
            "diagnosis must see the pair intact at its donor address"
        );
    }

    #[test]
    fn never_written_is_reported() {
        let m = mem();
        assert_eq!(
            m.read_block(Addr(0), 0),
            Err(IntegrityError::NotWritten { addr: 0 })
        );
    }

    #[test]
    fn same_tensor_blocks_share_version() {
        // A tile's blocks all carry the tile's version — write a 4-block
        // tile under one version and read it back.
        let mut m = mem();
        for i in 0..4u64 {
            m.write_block(Addr(i * 64), 3, [i as u8; 64]);
        }
        for i in 0..4u64 {
            assert_eq!(m.read_block(Addr(i * 64), 3).expect("ok"), [i as u8; 64]);
        }
    }
}

#[cfg(test)]
mod lockstep {
    use super::reference;
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Units inside one page, units 1,023 and 1,024 on either side of the
    /// first page boundary, and a far page just below unit 2^58.
    const UNITS: [u64; 8] = [0, 1, 2, 1_023, 1_024, 1_025, (1 << 58) - 2, (1 << 58) - 1];

    fn addr(x: u64) -> Addr {
        Addr(UNITS[(x % UNITS.len() as u64) as usize] * BLOCK_SIZE as u64)
    }

    fn same_capture(a: Option<&BlockCapture>, b: Option<&BlockCapture>) -> bool {
        match (a, b) {
            (Some(a), Some(b)) => a.bytes == b.bytes && a.mac == b.mac && a.counters == b.counters,
            (a, b) => a.is_none() && b.is_none(),
        }
    }

    /// Apply one decoded op to both memories and assert they return the
    /// same value. `versions` holds the last version written to each
    /// address, so that half of the reads expect it and pass.
    fn step(
        paged: &mut TreelessMemory,
        reference: &mut reference::TreelessMemory,
        captures: &mut Vec<BlockCapture>,
        versions: &mut BTreeMap<Addr, u64>,
        (kind, a, b): (u8, u64, u64),
    ) {
        let (at, other) = (addr(a), addr(b / 8));
        let capture = captures
            .get((b % captures.len().max(1) as u64) as usize)
            .cloned();
        match kind {
            0..=3 => {
                let version = b % 20;
                paged.write_block(at, version, [b as u8; BLOCK_SIZE]);
                reference.write_block(at, version, [b as u8; BLOCK_SIZE]);
                versions.insert(at, version);
            }
            // Reads that pass and reads that fail: the version last written,
            // or one up to 19 away, in or out of the probe window.
            4..=6 => {
                let version = if b % 2 == 0 {
                    versions.get(&at).copied().unwrap_or(0)
                } else {
                    b / 2 % 20
                };
                assert_eq!(
                    paged.read_block(at, version),
                    reference.read_block(at, version)
                );
            }
            7 => {
                let bits = [(b % 512) as u16, ((b >> 9) % 512) as u16];
                assert_eq!(
                    paged.tamper_bits(at, &bits),
                    reference.tamper_bits(at, &bits)
                );
            }
            8 => {
                let (p, r) = (paged.capture_block(at), reference.capture_block(at));
                assert!(same_capture(p.as_ref(), r.as_ref()));
                captures.extend(p);
            }
            9 => {
                if let Some(c) = capture {
                    assert_eq!(paged.restore_block(at, &c), reference.restore_block(at, &c));
                }
            }
            10 => {
                if let Some(c) = capture {
                    assert_eq!(
                        paged.rollback_metadata(at, &c),
                        reference.rollback_metadata(at, &c)
                    );
                }
            }
            11 | 12 => assert_eq!(
                paged.splice_block(at, other),
                reference.splice_block(at, other)
            ),
            13 => assert_eq!(
                paged.substitute_mac(at, other),
                reference.substitute_mac(at, other)
            ),
            14 => {
                paged.set_mac(at, MacTag(b.to_le_bytes()));
                reference.set_mac(at, MacTag(b.to_le_bytes()));
            }
            _ => assert_eq!(paged.rekey(b % 3), reference.rekey(b % 3)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The paged tree-less memory and the `BTreeMap` one, driven by the
        /// same random writes, reads and attack hooks, return the same value
        /// from every call (read errors included, down to the mismatch
        /// cause) and hold the same untrusted state after every step.
        #[test]
        fn paged_treeless_matches_the_btreemap_treeless(
            ops in prop::collection::vec((0u8..16, any::<u64>(), any::<u64>()), 1..80),
        ) {
            let key = Key128::derive(b"lockstep");
            let mut paged = TreelessMemory::new(key);
            let mut reference = reference::TreelessMemory::new(key);
            let mut captures = Vec::new();
            let mut versions = BTreeMap::new();
            for op in ops {
                step(&mut paged, &mut reference, &mut captures, &mut versions, op);
                for x in 0..UNITS.len() as u64 {
                    prop_assert!(same_capture(
                        paged.capture_block(addr(x)).as_ref(),
                        reference.capture_block(addr(x)).as_ref()
                    ));
                }
                prop_assert_eq!(paged.dram().len(), reference.dram().len());
            }
            for (&at, &version) in &versions {
                prop_assert_eq!(paged.read_block(at, version), reference.read_block(at, version));
            }
        }
    }
}

/// The tree-less memory the paged one replaced, unchanged but for its DRAM,
/// which is the `BTreeMap` reference DRAM, `tamper_bits`, which inlines
/// `flip_bits` over it, and an unused `dram_mut` left out. Every MAC lives
/// in a `BTreeMap`, and the
/// diagnosis re-MACs each probe from scratch and walks the whole map. It
/// is the equivalence oracle for [`TreelessMemory`].
#[cfg(test)]
mod reference {
    use super::super::{BlockCapture, FunctionalMemory, IntegrityError, MismatchCause};
    use crate::functional::dram::reference::RawDram;
    use crate::SchemeKind;
    use std::collections::BTreeMap;
    use tnpu_crypto::mac::{BlockMac, MacTag};
    use tnpu_crypto::xts::XtsMode;
    use tnpu_crypto::Key128;
    use tnpu_sim::{Addr, BLOCK_SIZE};

    /// Tree-less protected memory over a `BTreeMap` of MACs.
    #[derive(Debug)]
    pub struct TreelessMemory {
        dram: RawDram,
        macs: BTreeMap<u64, MacTag>,
        xts: XtsMode,
        mac: BlockMac,
        /// Retained for epoch re-keying (the exhaustion sweep).
        master: Key128,
    }

    /// How far the failure-path diagnosis probes around the expected version
    /// when classifying a MAC mismatch. Replay windows in practice are a few
    /// versions wide (one bump per inference pass); anything further away is
    /// indistinguishable from content tampering.
    const VERSION_PROBE_WINDOW: u64 = 8;

    impl TreelessMemory {
        /// Create a protected memory with keys derived from `master`.
        #[must_use]
        pub fn new(master: Key128) -> Self {
            let mut mac_label = b"treeless-mac".to_vec();
            mac_label.extend_from_slice(&master.0);
            TreelessMemory {
                dram: RawDram::new(),
                macs: BTreeMap::new(),
                xts: XtsMode::from_master(master),
                mac: BlockMac::new(Key128::derive(&mac_label)),
                master,
            }
        }

        /// Classify a MAC mismatch (failure path only — runs real crypto over
        /// the probe window, but only once a read has already been rejected).
        fn diagnose(
            &self,
            addr: Addr,
            version: u64,
            ct: &[u8; BLOCK_SIZE],
            tag: MacTag,
        ) -> MismatchCause {
            // Version: the stored pair verifies under a nearby version — stale
            // state was replayed over a newer write (or the table ran ahead).
            for delta in 1..=VERSION_PROBE_WINDOW {
                for v in [version.checked_sub(delta), version.checked_add(delta)]
                    .into_iter()
                    .flatten()
                {
                    if self.mac.verify(addr.0, v, ct, tag) {
                        return MismatchCause::Version;
                    }
                }
            }
            // Address: the identical (ciphertext, tag) pair is stored intact at
            // another address — it was relocated/spliced to this one.
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

        /// Encrypt and store a block with `version` (the `mvout` path,
        /// Fig. 12 (a)).
        ///
        /// # Panics
        ///
        /// Panics if `addr` is not 64 B aligned.
        pub fn write_block(&mut self, addr: Addr, version: u64, plaintext: [u8; BLOCK_SIZE]) {
            assert_eq!(addr.block_offset(), 0, "unaligned write at {addr}");
            let unit = addr.block().0;
            let mut ct = plaintext;
            self.xts.encrypt_block(unit, &mut ct);
            // The MAC binds the *stored* bytes, the address, and the version.
            let tag = self.mac.tag(addr.0, version, &ct);
            self.dram.write_block(addr, ct);
            self.macs.insert(unit, tag);
        }

        /// Fetch, verify against the expected `version`, and decrypt a block
        /// (the `mvin` path, Fig. 12 (b)).
        ///
        /// # Errors
        ///
        /// * [`IntegrityError::NotWritten`] — nothing stored at `addr`.
        /// * [`IntegrityError::MacMismatch`] — content, address or version is
        ///   inconsistent (tampering or replay).
        pub fn read_block(
            &self,
            addr: Addr,
            version: u64,
        ) -> Result<[u8; BLOCK_SIZE], IntegrityError> {
            let unit = addr.block().0;
            let ct = self
                .dram
                .read_block(addr)
                .ok_or(IntegrityError::NotWritten { addr: addr.0 })?;
            let tag = self
                .macs
                .get(&unit)
                .copied()
                .ok_or(IntegrityError::NotWritten { addr: addr.0 })?;
            if !self.mac.verify(addr.0, version, &ct, tag) {
                return Err(IntegrityError::MacMismatch {
                    addr: addr.0,
                    cause: self.diagnose(addr, version, &ct, tag),
                });
            }
            let mut pt = ct;
            self.xts.decrypt_block(unit, &mut pt);
            Ok(pt)
        }

        /// The untrusted DRAM, read-only (for confidentiality scans).
        #[must_use]
        pub fn dram(&self) -> &RawDram {
            &self.dram
        }

        /// Overwrite the stored MAC of a block — attack hook (the MAC region is
        /// ordinary untrusted DRAM).
        pub fn set_mac(&mut self, addr: Addr, tag: MacTag) {
            self.macs.insert(addr.block().0, tag);
        }

        /// Snapshot `(ciphertext, MAC)` of a block — the first half of a replay
        /// attack.
        #[must_use]
        pub fn snapshot(&self, addr: Addr) -> Option<([u8; BLOCK_SIZE], MacTag)> {
            let ct = self.dram.read_block(addr)?;
            let tag = self.macs.get(&addr.block().0).copied()?;
            Some((ct, tag))
        }

        /// Restore a previous `(ciphertext, MAC)` snapshot — the second half of
        /// a replay attack. Both items are attacker-visible and attacker-
        /// writable, which is why a MAC alone cannot stop replay.
        pub fn restore(&mut self, addr: Addr, snapshot: ([u8; BLOCK_SIZE], MacTag)) {
            self.dram.write_block(addr, snapshot.0);
            self.macs.insert(addr.block().0, snapshot.1);
        }
    }

    impl FunctionalMemory for TreelessMemory {
        fn scheme(&self) -> SchemeKind {
            SchemeKind::Treeless
        }

        fn write_block(&mut self, addr: Addr, version: u64, plaintext: [u8; BLOCK_SIZE]) {
            TreelessMemory::write_block(self, addr, version, plaintext);
        }

        fn read_block(&self, addr: Addr, version: u64) -> Result<[u8; BLOCK_SIZE], IntegrityError> {
            TreelessMemory::read_block(self, addr, version)
        }

        fn tamper_bits(&mut self, addr: Addr, bits: &[u16]) -> bool {
            // `flip_bits`, over the reference DRAM.
            let Some(block) = self.dram.block_mut(addr) else {
                return false;
            };
            for &bit in bits {
                let byte = (bit as usize / 8) % BLOCK_SIZE;
                block[byte] ^= 1 << (bit % 8);
            }
            true
        }

        fn capture_block(&self, addr: Addr) -> Option<BlockCapture> {
            let (bytes, mac) = self.snapshot(addr)?;
            Some(BlockCapture {
                bytes,
                mac: Some(mac),
                counters: None,
            })
        }

        fn restore_block(&mut self, addr: Addr, capture: &BlockCapture) -> bool {
            let Some(mac) = capture.mac else {
                return false; // a MAC-less capture has nothing to install here
            };
            self.restore(addr, (capture.bytes, mac));
            true
        }

        fn rollback_metadata(&mut self, addr: Addr, capture: &BlockCapture) -> bool {
            // The MAC region is ordinary untrusted DRAM: roll only it back,
            // leaving the current ciphertext in place.
            let Some(mac) = capture.mac else {
                return false;
            };
            self.set_mac(addr, mac);
            true
        }

        fn splice_block(&mut self, donor: Addr, victim: Addr) -> bool {
            let Some(snap) = self.snapshot(donor) else {
                return false;
            };
            self.restore(victim, snap);
            true
        }

        fn substitute_mac(&mut self, victim: Addr, donor: Addr) -> bool {
            let Some(tag) = self.macs.get(&donor.block().0).copied() else {
                return false;
            };
            self.set_mac(victim, tag);
            true
        }

        fn dram_contains(&self, needle: &[u8]) -> bool {
            self.dram.contains_bytes(needle)
        }

        fn rekey(&mut self, epoch: u64) -> bool {
            let mut label = b"treeless-epoch".to_vec();
            label.extend_from_slice(&epoch.to_le_bytes());
            label.extend_from_slice(&self.master.0);
            let epoch_master = Key128::derive(&label);
            let mut mac_label = b"treeless-mac".to_vec();
            mac_label.extend_from_slice(&epoch_master.0);
            self.xts = XtsMode::from_master(epoch_master);
            self.mac = BlockMac::new(Key128::derive(&mac_label));
            true
        }
    }
}
