//! Functional unprotected memory — plaintext straight to DRAM.
//!
//! The normalization baseline of every figure: no encryption, no MACs, no
//! tree. Every attack surface is wide open; the adversary harness uses it
//! to show what "detection" even means — here tampering lands directly in
//! the plaintext the NPU computes on.

use super::{dram::RawDram, flip_bits, BlockCapture, FunctionalMemory, IntegrityError};
use crate::SchemeKind;
use tnpu_sim::{Addr, BLOCK_SIZE};

/// Unprotected functional memory: stores plaintext as-is.
#[derive(Debug)]
pub struct UnsecureMemory {
    dram: RawDram,
}

#[expect(clippy::disallowed_methods, reason = "the scheme owns its raw DRAM")]
impl UnsecureMemory {
    /// Empty memory.
    #[must_use]
    pub fn new() -> Self {
        UnsecureMemory {
            dram: RawDram::new(),
        }
    }
}

impl Default for UnsecureMemory {
    fn default() -> Self {
        Self::new()
    }
}

#[expect(clippy::disallowed_methods, reason = "the scheme owns its raw DRAM")]
impl FunctionalMemory for UnsecureMemory {
    fn scheme(&self) -> SchemeKind {
        SchemeKind::Unsecure
    }

    fn write_block(&mut self, addr: Addr, _version: u64, plaintext: [u8; BLOCK_SIZE]) {
        self.dram.write_block(addr, plaintext);
    }

    fn read_block(&self, addr: Addr, _version: u64) -> Result<[u8; BLOCK_SIZE], IntegrityError> {
        self.dram
            .read_block(addr)
            .ok_or(IntegrityError::NotWritten { addr: addr.0 })
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
        // No metadata exists; the strongest rollback is the data itself.
        self.dram.write_block(addr, capture.bytes);
        true
    }

    fn splice_block(&mut self, donor: Addr, victim: Addr) -> bool {
        let Some(bytes) = self.dram.read_block(donor) else {
            return false;
        };
        self.dram.write_block(victim, bytes);
        true
    }

    fn substitute_mac(&mut self, _victim: Addr, _donor: Addr) -> bool {
        false // no MACs to substitute
    }

    fn dram_contains(&self, needle: &[u8]) -> bool {
        self.dram.contains_bytes(needle)
    }

    fn rekey(&mut self, _epoch: u64) -> bool {
        false // plaintext store: no keys to rotate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> UnsecureMemory {
        let mut m = UnsecureMemory::new();
        m.write_block(Addr(0), 1, [7u8; 64]);
        m
    }

    #[test]
    fn plaintext_is_exposed_in_dram() {
        let mut m = UnsecureMemory::new();
        let mut data = [0u8; 64];
        data[..6].copy_from_slice(b"SECRET");
        m.write_block(Addr(0), 1, data);
        assert!(m.dram_contains(b"SECRET"), "nothing hides the plaintext");
    }

    #[test]
    fn version_is_ignored() {
        let m = mem();
        assert_eq!(m.read_block(Addr(0), 1).expect("stored"), [7u8; 64]);
        assert_eq!(m.read_block(Addr(0), 99).expect("no binding"), [7u8; 64]);
    }

    #[test]
    fn tampering_lands_in_plaintext_silently() {
        let mut m = mem();
        assert!(m.tamper_bits(Addr(0), &[0]));
        assert_eq!(m.read_block(Addr(0), 1).expect("no check")[0], 6);
    }

    #[test]
    fn replay_restores_stale_plaintext() {
        let mut m = mem();
        let old = m.capture_block(Addr(0)).expect("stored");
        m.write_block(Addr(0), 2, [8u8; 64]);
        assert!(m.restore_block(Addr(0), &old));
        assert_eq!(m.read_block(Addr(0), 2).expect("no check"), [7u8; 64]);
    }

    #[test]
    fn mac_substitution_is_not_applicable() {
        let mut m = mem();
        m.write_block(Addr(64), 1, [9u8; 64]);
        assert!(!m.substitute_mac(Addr(0), Addr(64)));
    }
}
