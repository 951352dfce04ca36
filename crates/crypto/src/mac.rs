//! Per-block message authentication codes.
//!
//! Fig. 12 of the paper: for each 64 B memory block, an 8 B MAC is computed
//! over *(block content, block address, version number)*. The version number
//! is what turns a plain MAC into replay protection — the CPU-side software
//! supplies the expected version on `mvin` and the MAC check fails if the
//! DRAM holds a block MAC'd under an older version.
//!
//! The baseline tree-based engine uses the same construction with the
//! per-block *counter* in the role of the version number (its recency is
//! guaranteed by the counter tree instead of by software).
//!
//! The tag is the first 8 bytes of `HMAC-SHA256(key, data ‖ addr ‖
//! version)` with both integers little-endian. [`BlockMac`] keys one
//! [`HmacSha256`] at construction and clones it per tag, so a tag costs
//! three SHA-256 compressions (data block, address/version/padding, outer
//! digest) instead of the five of keying from scratch.

use crate::hmac::HmacSha256;

/// An 8-byte truncated MAC tag as stored in the MAC region of DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MacTag(pub [u8; 8]);

impl MacTag {
    /// The tag as a `u64` (little-endian), for compact storage.
    #[must_use]
    pub fn as_u64(self) -> u64 {
        u64::from_le_bytes(self.0)
    }
}

/// Computes and verifies per-block MACs under a fixed key.
#[derive(Clone)]
pub struct BlockMac {
    /// HMAC context keyed once; each tag clones it.
    keyed: HmacSha256,
}

impl std::fmt::Debug for BlockMac {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockMac").finish_non_exhaustive()
    }
}

impl BlockMac {
    /// Create a MAC engine under `key`.
    #[must_use]
    pub fn new(key: crate::Key128) -> Self {
        BlockMac {
            keyed: HmacSha256::new(&key.0),
        }
    }

    /// MAC of `(data, addr, version)` truncated to 8 bytes (Fig. 12 (a)).
    #[must_use]
    pub fn tag(&self, addr: u64, version: u64, data: &[u8; 64]) -> MacTag {
        let mut mac = self.keyed.clone();
        mac.update(data);
        mac.update(&addr.to_le_bytes());
        mac.update(&version.to_le_bytes());
        let full = mac.finalize();
        let mut tag = [0u8; 8];
        tag.copy_from_slice(&full[..8]);
        MacTag(tag)
    }

    /// Verify a fetched block against its stored tag (Fig. 12 (b)).
    ///
    /// Returns `true` when the MAC matches, i.e. the content, address and
    /// expected version are all consistent with what was written.
    #[must_use]
    pub fn verify(&self, addr: u64, version: u64, data: &[u8; 64], stored: MacTag) -> bool {
        self.tag(addr, version, data) == stored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hmac::hmac_sha256;
    use crate::Key128;
    use proptest::prelude::*;

    fn engine() -> BlockMac {
        BlockMac::new(Key128::derive(b"mac-test"))
    }

    #[test]
    fn verify_accepts_untampered() {
        let m = engine();
        let data = [1u8; 64];
        let tag = m.tag(0x40, 3, &data);
        assert!(m.verify(0x40, 3, &data, tag));
    }

    #[test]
    fn detects_data_tampering() {
        let m = engine();
        let data = [1u8; 64];
        let tag = m.tag(0x40, 3, &data);
        let mut tampered = data;
        tampered[17] ^= 0x01;
        assert!(!m.verify(0x40, 3, &tampered, tag));
    }

    #[test]
    fn detects_relocation() {
        // Moving a valid (data, MAC) pair to a different address must fail:
        // the address is bound into the MAC.
        let m = engine();
        let data = [2u8; 64];
        let tag = m.tag(0x40, 3, &data);
        assert!(!m.verify(0x80, 3, &data, tag));
    }

    #[test]
    fn detects_stale_version() {
        // The replay case: old data with its old (valid) MAC, but software
        // expects a newer version.
        let m = engine();
        let data = [3u8; 64];
        let old_tag = m.tag(0x40, 3, &data);
        assert!(!m.verify(0x40, 4, &data, old_tag));
    }

    #[test]
    fn tag_is_deterministic() {
        let m = engine();
        let data = [4u8; 64];
        assert_eq!(m.tag(0, 0, &data), m.tag(0, 0, &data));
    }

    #[test]
    fn distinct_keys_distinct_tags() {
        let a = BlockMac::new(Key128::derive(b"a"));
        let b = BlockMac::new(Key128::derive(b"b"));
        let data = [5u8; 64];
        assert_ne!(a.tag(0, 0, &data), b.tag(0, 0, &data));
    }

    #[test]
    fn tag_as_u64_roundtrip() {
        let t = MacTag([1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(t.as_u64().to_le_bytes(), t.0);
    }

    proptest! {
        /// A tag from the pre-keyed context is the truncated one-shot HMAC
        /// of `data ‖ addr ‖ version` (little-endian) under the raw key.
        #[test]
        fn tag_equals_truncated_hmac(
            key in prop::collection::vec(any::<u8>(), 16),
            data in prop::collection::vec(any::<u8>(), 64),
            addr in any::<u64>(),
            version in any::<u64>(),
        ) {
            let key: [u8; 16] = key.try_into().expect("16 bytes");
            let data: [u8; 64] = data.try_into().expect("64 bytes");
            let mut message = data.to_vec();
            message.extend_from_slice(&addr.to_le_bytes());
            message.extend_from_slice(&version.to_le_bytes());
            let full = hmac_sha256(&key, &message);
            let tag = BlockMac::new(Key128(key)).tag(addr, version, &data);
            prop_assert_eq!(&tag.0[..], &full[..8]);
        }
    }

    #[test]
    fn debug_does_not_leak_key() {
        let s = format!("{:?}", engine());
        assert!(!s.contains("key"));
    }
}
