//! Functional encryption-only memory — the scalable-SGX model (§II-B).
//!
//! AES-XTS with no MACs and no tree: confidentiality holds, but integrity
//! does not — tampered ciphertext silently decrypts to garbage and replayed
//! ciphertext decrypts to the stale plaintext. The tests here *prove the
//! absence* of protection, which is the motivation for TNPU's versioned
//! MACs: "this new SGX memory protection against physical attacks" is
//! confidentiality-only.

use super::dram::RawDram;
use super::{flip_bits, BlockCapture, FunctionalMemory, IntegrityError};
use crate::SchemeKind;
use tnpu_crypto::xts::XtsMode;
use tnpu_crypto::Key128;
use tnpu_sim::{Addr, BLOCK_SIZE};

/// Encryption-only protected memory (no integrity).
#[derive(Debug)]
pub struct EncryptOnlyMemory {
    dram: RawDram,
    xts: XtsMode,
    /// Retained for epoch re-keying (the exhaustion sweep).
    master: Key128,
}

#[expect(clippy::disallowed_methods, reason = "the scheme owns its raw DRAM")]
impl EncryptOnlyMemory {
    /// Create a memory with keys derived from `master`.
    #[must_use]
    pub fn new(master: Key128) -> Self {
        EncryptOnlyMemory {
            dram: RawDram::new(),
            xts: XtsMode::from_master(master),
            master,
        }
    }

    /// Encrypt and store a block.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 64 B aligned.
    pub fn write_block(&mut self, addr: Addr, plaintext: [u8; BLOCK_SIZE]) {
        assert_eq!(addr.block_offset(), 0, "unaligned write at {addr}");
        let mut ct = plaintext;
        self.xts.encrypt_block(addr.block().0, &mut ct);
        self.dram.write_block(addr, ct);
    }

    /// Fetch and decrypt a block. **No integrity check happens** — the only
    /// possible error is that nothing was ever written there.
    ///
    /// # Errors
    ///
    /// [`IntegrityError::NotWritten`] if the block was never stored.
    pub fn read_block(&self, addr: Addr) -> Result<[u8; BLOCK_SIZE], IntegrityError> {
        let ct = self
            .dram
            .read_block(addr)
            .ok_or(IntegrityError::NotWritten { addr: addr.0 })?;
        let mut pt = ct;
        self.xts.decrypt_block(addr.block().0, &mut pt);
        Ok(pt)
    }
}

#[expect(clippy::disallowed_methods, reason = "the scheme owns its raw DRAM")]
impl FunctionalMemory for EncryptOnlyMemory {
    fn scheme(&self) -> SchemeKind {
        SchemeKind::EncryptOnly
    }

    fn write_block(&mut self, addr: Addr, _version: u64, plaintext: [u8; BLOCK_SIZE]) {
        EncryptOnlyMemory::write_block(self, addr, plaintext);
    }

    fn read_block(&self, addr: Addr, _version: u64) -> Result<[u8; BLOCK_SIZE], IntegrityError> {
        EncryptOnlyMemory::read_block(self, addr)
    }

    fn tamper_bits(&mut self, addr: Addr, bits: &[u16]) -> bool {
        flip_bits(&mut self.dram, addr, bits)
    }

    fn capture_block(&self, addr: Addr) -> Option<BlockCapture> {
        Some(BlockCapture {
            bytes: self.dram.read_block(addr)?,
            mac: None,
            counters: None,
        })
    }

    fn restore_block(&mut self, addr: Addr, capture: &BlockCapture) -> bool {
        self.dram.write_block(addr, capture.bytes);
        true
    }

    fn rollback_metadata(&mut self, addr: Addr, capture: &BlockCapture) -> bool {
        // No per-block metadata: rolling "the version" back means
        // re-installing the old ciphertext, which decrypts cleanly.
        self.dram.write_block(addr, capture.bytes);
        true
    }

    fn splice_block(&mut self, donor: Addr, victim: Addr) -> bool {
        let Some(ct) = self.dram.read_block(donor) else {
            return false;
        };
        self.dram.write_block(victim, ct);
        true
    }

    fn substitute_mac(&mut self, _victim: Addr, _donor: Addr) -> bool {
        false // no MACs exist in this scheme
    }

    fn dram_contains(&self, needle: &[u8]) -> bool {
        self.dram.contains_bytes(needle)
    }

    fn rekey(&mut self, epoch: u64) -> bool {
        let mut label = b"encrypt-only-epoch".to_vec();
        label.extend_from_slice(&epoch.to_le_bytes());
        label.extend_from_slice(&self.master.0);
        self.xts = XtsMode::from_master(Key128::derive(&label));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> EncryptOnlyMemory {
        EncryptOnlyMemory::new(Key128::derive(b"enc-only"))
    }

    #[test]
    fn roundtrip_and_confidentiality() {
        let mut m = mem();
        let mut secret = [0u8; 64];
        secret[..6].copy_from_slice(b"SECRET");
        m.write_block(Addr(0), secret);
        assert_eq!(m.read_block(Addr(0)).expect("written"), secret);
        assert!(!m.dram_contains(b"SECRET"));
    }

    #[test]
    fn tampering_goes_undetected_but_scrambles() {
        // The security gap: the read *succeeds* — garbage flows into the
        // computation with no error raised.
        let mut m = mem();
        m.write_block(Addr(0), [7u8; 64]);
        assert!(m.tamper_bits(Addr(0), &[0]), "written");
        let result = m.read_block(Addr(0)).expect("no integrity check fires");
        assert_ne!(result, [7u8; 64], "data silently corrupted");
    }

    #[test]
    fn replay_goes_completely_undetected() {
        // Worse than scrambling: a replayed ciphertext decrypts to the
        // exact stale plaintext — the attacker controls which old value
        // the victim computes on. This is what TNPU's version numbers
        // close.
        let mut m = mem();
        m.write_block(Addr(0), [1u8; 64]);
        let old = m.capture_block(Addr(0)).expect("written");
        m.write_block(Addr(0), [2u8; 64]);
        assert!(m.restore_block(Addr(0), &old));
        assert_eq!(
            m.read_block(Addr(0)).expect("no check"),
            [1u8; 64],
            "attacker successfully rolled the value back"
        );
    }

    #[test]
    fn relocation_scrambles_but_is_not_reported() {
        // Moving ciphertext to another address changes the XTS tweak, so
        // the plaintext scrambles — but again, no error.
        let mut m = mem();
        m.write_block(Addr(0), [3u8; 64]);
        let ct = m.capture_block(Addr(0)).expect("written");
        assert!(m.restore_block(Addr(64), &ct));
        let relocated = m.read_block(Addr(64)).expect("no check");
        assert_ne!(relocated, [3u8; 64]);
    }
}
