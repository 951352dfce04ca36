//! AES-XTS encryption of 64-byte memory blocks — the tree-less engine's
//! cipher.
//!
//! The paper adopts counter-less total-memory encryption ("the entire DRAM,
//! except for the fully protected region, is encrypted with AES-XTS similar
//! to Intel Total Memory Encryption", §IV-C). XTS needs no per-block
//! counters: the tweak is derived from the block address alone, so no
//! metadata caches are required — that is exactly the property TNPU exploits.
//!
//! Each 64 B memory block is one XTS "data unit" of four 16 B AES blocks.
//! A tweak is held as a little-endian `u128` (IEEE 1619 byte order), so
//! multiplying it by α is one shift and a conditional XOR of `0x87`. The
//! four tweaks of a unit are computed up front and XORed in as words.

use crate::aes::Aes128;
use crate::Key128;

/// Multiply an element of GF(2¹²⁸), held as a little-endian `u128`, by α
/// (the XTS tweak update): shift left one bit and reduce by
/// x¹²⁸ = x⁷ + x² + x + 1 when bit 127 falls out.
fn mul_alpha(tweak: u128) -> u128 {
    let reduce = if tweak >> 127 == 0 { 0 } else { 0x87 };
    (tweak << 1) ^ reduce
}

/// AES-XTS encryptor for 64-byte blocks.
#[derive(Debug, Clone)]
pub struct XtsMode {
    data_cipher: Aes128,
    tweak_cipher: Aes128,
}

impl XtsMode {
    /// Create an encryptor; XTS uses two independent keys.
    #[must_use]
    pub fn new(data_key: Key128, tweak_key: Key128) -> Self {
        XtsMode {
            data_cipher: Aes128::new(data_key),
            tweak_cipher: Aes128::new(tweak_key),
        }
    }

    /// Derive both keys from a single master key.
    #[must_use]
    pub fn from_master(master: Key128) -> Self {
        let mut data_label = b"xts-data".to_vec();
        data_label.extend_from_slice(&master.0);
        let mut tweak_label = b"xts-tweak".to_vec();
        tweak_label.extend_from_slice(&master.0);
        XtsMode::new(Key128::derive(&data_label), Key128::derive(&tweak_label))
    }

    /// The tweaks of the four 16 B blocks of data unit `unit`: the
    /// encrypted unit number, then three multiplications by α.
    fn tweaks(&self, unit: u64) -> [u128; 4] {
        let t0 = u128::from_le_bytes(self.tweak_cipher.encrypt(u128::from(unit).to_le_bytes()));
        let t1 = mul_alpha(t0);
        let t2 = mul_alpha(t1);
        [t0, t1, t2, mul_alpha(t2)]
    }

    /// Run `cipher` over each 16 B block of `block` between two XORs with
    /// its tweak.
    fn apply(&self, unit: u64, block: &mut [u8; 64], cipher: impl Fn(&mut [u8; 16])) {
        for (chunk, tweak) in block.chunks_exact_mut(16).zip(self.tweaks(unit)) {
            let word = u128::from_le_bytes(chunk.try_into().expect("16-byte chunk"));
            let mut b = (word ^ tweak).to_le_bytes();
            cipher(&mut b);
            chunk.copy_from_slice(&(u128::from_le_bytes(b) ^ tweak).to_le_bytes());
        }
    }

    /// Encrypt a 64-byte block in place; `unit` is the data-unit number
    /// (the 64 B block address divided by 64).
    pub fn encrypt_block(&self, unit: u64, block: &mut [u8; 64]) {
        self.apply(unit, block, |b| self.data_cipher.encrypt_block(b));
    }

    /// Decrypt a 64-byte block in place.
    pub fn decrypt_block(&self, unit: u64, block: &mut [u8; 64]) {
        self.apply(unit, block, |b| self.data_cipher.decrypt_block(b));
    }

    /// Encrypt a copy of `block`.
    #[must_use]
    pub fn encrypt(&self, unit: u64, block: &[u8; 64]) -> [u8; 64] {
        let mut out = *block;
        self.encrypt_block(unit, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-wise tweak update the `u128` one replaced: multiply by α
    /// in little-endian byte order per IEEE 1619.
    fn gf128_mul_alpha(tweak: &mut [u8; 16]) {
        let mut carry = 0u8;
        for byte in tweak.iter_mut() {
            let new_carry = *byte >> 7;
            *byte = (*byte << 1) | carry;
            carry = new_carry;
        }
        if carry != 0 {
            tweak[0] ^= 0x87;
        }
    }

    fn engine() -> XtsMode {
        XtsMode::from_master(Key128::derive(b"xts-test"))
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// IEEE 1619-2007 Annex B defines 32 B data units; the first two AES
    /// blocks of a 64 B unit see the same tweaks, so the vectors pin our
    /// first 32 bytes.
    fn ieee1619_first_32(data_key: u8, tweak_key: u8, unit: u64, fill: u8) -> String {
        let xts = XtsMode::new(Key128([data_key; 16]), Key128([tweak_key; 16]));
        let ct = xts.encrypt(unit, &[fill; 64]);
        let mut pt = ct;
        xts.decrypt_block(unit, &mut pt);
        assert_eq!(pt, [fill; 64]);
        hex(&ct[..32])
    }

    #[test]
    fn ieee1619_vector1() {
        assert_eq!(
            ieee1619_first_32(0, 0, 0, 0),
            "917cf69ebd68b2ec9b9fe9a3eadda692cd43d2f59598ed858c02c2652fbf922e"
        );
    }

    #[test]
    fn ieee1619_vector2() {
        assert_eq!(
            ieee1619_first_32(0x11, 0x22, 0x33_3333_3333, 0x44),
            "c454185e6a16936e39334038acef838bfb186fff7480adc4289382ecd6d394f0"
        );
    }

    #[test]
    fn roundtrip() {
        let e = engine();
        let plain: [u8; 64] = std::array::from_fn(|i| i as u8);
        let mut block = plain;
        e.encrypt_block(77, &mut block);
        assert_ne!(block, plain);
        e.decrypt_block(77, &mut block);
        assert_eq!(block, plain);
    }

    #[test]
    fn unit_number_changes_ciphertext() {
        let e = engine();
        let block = [0u8; 64];
        assert_ne!(e.encrypt(1, &block), e.encrypt(2, &block));
    }

    #[test]
    fn same_unit_same_data_is_deterministic() {
        // XTS (unlike CTR with fresh counters) is deterministic per (unit,
        // data) — re-encrypting identical data in place yields identical
        // ciphertext. This is the confidentiality trade-off scalable SGX
        // accepts; the paper accepts it too.
        let e = engine();
        let block = [3u8; 64];
        assert_eq!(e.encrypt(5, &block), e.encrypt(5, &block));
    }

    #[test]
    fn chunks_within_block_use_distinct_tweaks() {
        let e = engine();
        let block = [0u8; 64];
        let ct = e.encrypt(9, &block);
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(ct[i * 16..(i + 1) * 16], ct[j * 16..(j + 1) * 16]);
            }
        }
    }

    #[test]
    fn gf128_doubling_carry() {
        // Highest bit set -> reduction by 0x87 in byte 0.
        let mut t = [0u8; 16];
        t[15] = 0x80;
        gf128_mul_alpha(&mut t);
        assert_eq!(t[0], 0x87);
        assert_eq!(t[15], 0x00);
    }

    #[test]
    fn gf128_doubling_shifts() {
        let mut t = [0u8; 16];
        t[0] = 0x01;
        gf128_mul_alpha(&mut t);
        assert_eq!(t[0], 0x02);
    }

    proptest! {
        /// The `u128` tweak chain equals the byte-wise update, step for
        /// step, from any starting tweak; `high` forces bit 127 so that
        /// the first step reduces.
        #[test]
        fn u128_tweak_chain_equals_bytewise(
            start in prop::collection::vec(any::<u8>(), 16),
            high in any::<bool>(),
        ) {
            let mut bytes: [u8; 16] = start.try_into().expect("16 bytes");
            if high {
                bytes[15] |= 0x80;
            }
            let mut word = u128::from_le_bytes(bytes);
            for _ in 0..8 {
                gf128_mul_alpha(&mut bytes);
                word = mul_alpha(word);
                prop_assert_eq!(word.to_le_bytes(), bytes);
            }
        }
    }

    #[test]
    fn wrong_key_fails_to_decrypt() {
        let a = engine();
        let b = XtsMode::from_master(Key128::derive(b"other"));
        let plain = [7u8; 64];
        let mut block = a.encrypt(3, &plain);
        b.decrypt_block(3, &mut block);
        assert_ne!(block, plain);
    }
}
