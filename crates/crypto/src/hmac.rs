//! HMAC-SHA256, the keyed MAC behind per-block MACs and attestation reports.
//!
//! [`HmacSha256`] absorbs the `key ⊕ ipad` and `key ⊕ opad` blocks once,
//! when it is keyed, and keeps the two SHA-256 states. Cloning a keyed
//! context then MACs a short message in the compressions of the message
//! and the outer digest alone; [`crate::mac::BlockMac`] relies on this.

use crate::sha256::{sha256, Sha256};

/// HMAC-SHA256 of `data` under `key`.
///
/// # Examples
///
/// ```
/// use tnpu_crypto::hmac::hmac_sha256;
/// let tag = hmac_sha256(b"key", b"message");
/// assert_eq!(tag, hmac_sha256(b"key", b"message"));
/// assert_ne!(tag, hmac_sha256(b"key2", b"message"));
/// ```
#[must_use]
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; 32] {
    let mut mac = HmacSha256::new(key);
    mac.update(data);
    mac.finalize()
}

/// An incremental HMAC-SHA256 context for MACing scattered fields without
/// concatenating them into a buffer first.
///
/// `new` absorbs the ipad and opad blocks once and keeps the two SHA-256
/// states, so a clone of a keyed context MACs a message with two fewer
/// compressions than keying from scratch.
#[derive(Clone)]
pub struct HmacSha256 {
    /// SHA-256 state after `key ⊕ ipad`; absorbs the message.
    inner: Sha256,
    /// SHA-256 state after `key ⊕ opad`; absorbs the inner digest.
    outer: Sha256,
}

impl std::fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Both states are derived from the key; never print them.
        f.debug_struct("HmacSha256").finish_non_exhaustive()
    }
}

impl HmacSha256 {
    /// Start a MAC under `key`.
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        let mut block_key = [0u8; 64];
        if key.len() > 64 {
            block_key[..32].copy_from_slice(&sha256(key));
        } else {
            block_key[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        inner.update(&block_key.map(|b| b ^ 0x36));
        let mut outer = Sha256::new();
        outer.update(&block_key.map(|b| b ^ 0x5c));
        HmacSha256 { inner, outer }
    }

    /// Absorb more data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Produce the 32-byte tag.
    #[must_use]
    pub fn finalize(self) -> [u8; 32] {
        let mut outer = self.outer;
        outer.update(&self.inner.finalize());
        outer.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case6() {
        // 131-byte key: longer than the block, so it is hashed first.
        let key = [0xaau8; 131];
        let data = b"Test Using Larger Than Block-Size Key - Hash Key First";
        let expected = "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54";
        assert_eq!(hex(&hmac_sha256(&key, data)), expected);
        let mut ctx = HmacSha256::new(&key);
        ctx.update(data);
        assert_eq!(hex(&ctx.finalize()), expected);
    }

    #[test]
    fn debug_does_not_leak_key() {
        let s = format!("{:?}", HmacSha256::new(b"secret"));
        // Any key-derived pad or SHA-256 state would render as numbers.
        let fields = s.trim_start_matches("HmacSha256");
        assert!(!fields.chars().any(|c| c.is_ascii_digit()), "{s}");
    }

    #[test]
    fn long_key_is_hashed_first() {
        let key = vec![0xaau8; 131];
        // A >64-byte key must behave identically to its SHA-256 digest.
        let tag1 = hmac_sha256(&key, b"data");
        let tag2 = hmac_sha256(&sha256(&key), b"data");
        assert_eq!(tag1, tag2);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut ctx = HmacSha256::new(b"key");
        ctx.update(b"hello ");
        ctx.update(b"world");
        assert_eq!(ctx.finalize(), hmac_sha256(b"key", b"hello world"));
    }

    #[test]
    fn data_sensitivity() {
        assert_ne!(hmac_sha256(b"k", b"a"), hmac_sha256(b"k", b"b"));
    }
}
