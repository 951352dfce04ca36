//! Functional cryptographic primitives for the TNPU reproduction.
//!
//! The paper's memory-protection engines are evaluated with *cost models*,
//! but this reproduction also implements the actual datapath so that the
//! security claims (confidentiality, integrity, replay detection) are
//! testable end-to-end:
//!
//! * [`aes`] — AES-128 block cipher in 32-bit T-table form (S-box and
//!   round tables derived from the GF(2⁸) inverse at first use, verified
//!   against the FIPS-197 vector and a byte-state reference cipher).
//! * [`ctr`] — counter-mode one-time-pad encryption of 64 B memory blocks,
//!   the baseline engine's cipher (§II-B, Fig. 1).
//! * [`xts`] — AES-XTS encryption of 64 B blocks, the tree-less engine's
//!   cipher ("the entire DRAM ... is encrypted with AES-XTS similar to Intel
//!   Total Memory Encryption", §IV-C); tweaks are little-endian `u128`s.
//! * [`sha256`] / [`hmac`] — hash and keyed MAC used for per-block MACs,
//!   integrity-tree nodes, and enclave measurement; [`hmac::HmacSha256`]
//!   keeps its keyed inner/outer states so clones skip the pad blocks.
//! * [`mac`] — the 8-byte per-block MAC binding (content, address, version),
//!   exactly the construction of Fig. 12: HMAC-SHA256 in three direct
//!   compressions from keyed states, with [`mac::MacPrefix`] sharing the
//!   data-block compression across many (address, version) probes.
//!
//! Every functional memory, attack cell and simulator golden is built on
//! the exact bytes these primitives produce, so their speed work is held
//! to one invariant: identical output. Known-answer vectors (FIPS-197,
//! IEEE 1619 XTS, RFC 4231, NIST SHA-256) and frozen block-mode outputs
//! (`tests/golden/modes.txt`) pin it. The code is portable safe Rust —
//! no `unsafe`, no `std::arch` intrinsics — so it runs unchanged on every
//! host the simulator targets.
//!
//! None of this is constant-time or side-channel hardened — side channels
//! are out of the paper's threat model (§II-E) and out of scope here too.
//! Do **not** reuse these primitives in production systems.

pub mod aes;
pub mod ctr;
pub mod hmac;
pub mod mac;
pub mod sha256;
pub mod xts;

/// A 128-bit symmetric key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key128(pub [u8; 16]);

impl Key128 {
    /// Derive a deterministic key from a label — convenient for simulation
    /// setups where each protection domain needs a distinct key.
    ///
    /// # Examples
    ///
    /// ```
    /// use tnpu_crypto::Key128;
    /// let a = Key128::derive(b"npu-data");
    /// let b = Key128::derive(b"npu-mac");
    /// assert_ne!(a, b);
    /// assert_eq!(a, Key128::derive(b"npu-data"));
    /// ```
    #[must_use]
    pub fn derive(label: &[u8]) -> Self {
        let digest = sha256::sha256(label);
        let mut key = [0u8; 16];
        key.copy_from_slice(&digest[..16]);
        Key128(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_deterministic_and_label_sensitive() {
        assert_eq!(Key128::derive(b"x"), Key128::derive(b"x"));
        assert_ne!(Key128::derive(b"x"), Key128::derive(b"y"));
    }
}
