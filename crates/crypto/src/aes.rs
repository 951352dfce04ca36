//! AES-128 block cipher in 32-bit T-table form.
//!
//! The S-box is *derived* (multiplicative inverse in GF(2⁸) followed by the
//! affine transform) rather than hard-coded, and so are the four encryption
//! and four decryption round tables built from it at first use (8 KiB).
//! The state is four big-endian column words: each inner round is sixteen
//! table lookups and XORs, and decryption uses the equivalent inverse
//! cipher, whose round keys have InvMixColumns applied once at key
//! expansion. The tests check the FIPS-197 Appendix C vector in both
//! directions and, over arbitrary keys and blocks, equality with a
//! byte-state SubBytes/ShiftRows/MixColumns reference cipher. Portable
//! safe Rust with no intrinsics and not constant-time — suitable for a
//! simulator's functional datapath, not for production.

use crate::Key128;

/// Multiply two elements of GF(2⁸) with the AES polynomial x⁸+x⁴+x³+x+1.
fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
    }
    p
}

/// Multiplicative inverse in GF(2⁸); 0 maps to 0.
fn gf_inv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    // a^254 = a^-1 in GF(2^8).
    let mut result = 1u8;
    let mut base = a;
    let mut exp = 254u32;
    while exp > 0 {
        if exp & 1 != 0 {
            result = gf_mul(result, base);
        }
        base = gf_mul(base, base);
        exp >>= 1;
    }
    result
}

fn affine(x: u8) -> u8 {
    x ^ x.rotate_left(1) ^ x.rotate_left(2) ^ x.rotate_left(3) ^ x.rotate_left(4) ^ 0x63
}

/// Derived lookup tables, built once at first use.
///
/// `te[k][x]` is the MixColumns column contributed by S-box output `S(x)`
/// sitting in row `k` — `(2·S, S, S, 3·S)` rotated right by `8k` bits —
/// so a full round is four lookups and four XORs per column. `td` is the
/// same for the inverse cipher: `(14·S⁻¹, 9·S⁻¹, 13·S⁻¹, 11·S⁻¹)`.
struct Tables {
    sbox: [u8; 256],
    inv_sbox: [u8; 256],
    te: [[u32; 256]; 4],
    td: [[u32; 256]; 4],
}

fn tables() -> &'static Tables {
    use std::sync::OnceLock;
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut sbox = [0u8; 256];
        let mut inv_sbox = [0u8; 256];
        for (i, slot) in sbox.iter_mut().enumerate() {
            let s = affine(gf_inv(i as u8));
            *slot = s;
            inv_sbox[s as usize] = i as u8;
        }
        let mut te = [[0u32; 256]; 4];
        let mut td = [[0u32; 256]; 4];
        for x in 0..256 {
            let s = sbox[x];
            let e = u32::from_be_bytes([gf_mul(s, 2), s, s, gf_mul(s, 3)]);
            let i = inv_sbox[x];
            let d = u32::from_be_bytes([gf_mul(i, 14), gf_mul(i, 9), gf_mul(i, 13), gf_mul(i, 11)]);
            for k in 0..4 {
                te[k][x] = e.rotate_right(8 * k as u32);
                td[k][x] = d.rotate_right(8 * k as u32);
            }
        }
        Tables {
            sbox,
            inv_sbox,
            te,
            td,
        }
    })
}

/// Byte `row` (0 = most significant) of a big-endian column word.
fn byte(word: u32, row: usize) -> usize {
    (word >> (24 - 8 * row)) as u8 as usize
}

/// Column offsets of the rows feeding output column `c`: row `r` comes
/// from column `(c + OFFSET[r]) % 4` (ShiftRows, and InvShiftRows).
const ENC_OFFSETS: [usize; 4] = [0, 1, 2, 3];
const DEC_OFFSETS: [usize; 4] = [0, 3, 2, 1];

/// One inner round on a state of four big-endian column words: (Inv)SubBytes,
/// (Inv)ShiftRows and (Inv)MixColumns via the lookup tables, then the round key.
fn round(t: &[[u32; 256]; 4], s: [u32; 4], offsets: [usize; 4], key: &[u32; 4]) -> [u32; 4] {
    std::array::from_fn(|c| {
        t[0][byte(s[c], 0)]
            ^ t[1][byte(s[(c + offsets[1]) % 4], 1)]
            ^ t[2][byte(s[(c + offsets[2]) % 4], 2)]
            ^ t[3][byte(s[(c + offsets[3]) % 4], 3)]
            ^ key[c]
    })
}

/// The last round: (Inv)SubBytes and (Inv)ShiftRows only, then the round key.
fn final_round(sbox: &[u8; 256], s: [u32; 4], offsets: [usize; 4], key: &[u32; 4]) -> [u32; 4] {
    std::array::from_fn(|c| {
        u32::from_be_bytes(std::array::from_fn(|r| {
            sbox[byte(s[(c + offsets[r]) % 4], r)]
        })) ^ key[c]
    })
}

/// An expanded AES-128 key schedule: 11 encryption round keys and the 11
/// round keys of the equivalent inverse cipher (FIPS-197 §5.3.5), each as
/// four big-endian column words.
#[derive(Clone)]
pub struct Aes128 {
    enc: [[u32; 4]; 11],
    dec: [[u32; 4]; 11],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes128").finish_non_exhaustive()
    }
}

impl Aes128 {
    /// Expand `key` into the encryption and decryption round-key schedules.
    #[must_use]
    pub fn new(key: Key128) -> Self {
        let t = tables();
        let sub_word = |w: u32| u32::from_be_bytes(w.to_be_bytes().map(|b| t.sbox[b as usize]));
        let mut w = [0u32; 44];
        for (i, chunk) in key.0.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        let mut rcon = 1u8;
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ (u32::from(rcon) << 24);
                rcon = gf_mul(rcon, 2);
            }
            w[i] = w[i - 4] ^ temp;
        }
        let enc: [[u32; 4]; 11] = std::array::from_fn(|r| std::array::from_fn(|c| w[4 * r + c]));
        // The inverse cipher runs the encryption keys backwards, with
        // InvMixColumns folded into the inner ones: td[k][S(b)] is
        // InvMixColumns of byte b in row k, since td already holds S⁻¹.
        let inv_mix = |w: u32| (0..4).fold(0, |acc, k| acc ^ t.td[k][t.sbox[byte(w, k)] as usize]);
        let dec = std::array::from_fn(|r| {
            let key = enc[10 - r];
            if r == 0 || r == 10 {
                key
            } else {
                key.map(inv_mix)
            }
        });
        Aes128 { enc, dec }
    }

    fn load(block: &[u8; 16], key: &[u32; 4]) -> [u32; 4] {
        std::array::from_fn(|c| {
            u32::from_be_bytes(block[4 * c..4 * c + 4].try_into().expect("4-byte column")) ^ key[c]
        })
    }

    fn store(block: &mut [u8; 16], s: [u32; 4]) {
        for (chunk, word) in block.chunks_exact_mut(4).zip(s) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
    }

    /// Encrypt one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let t = tables();
        let mut s = Self::load(block, &self.enc[0]);
        for key in &self.enc[1..10] {
            s = round(&t.te, s, ENC_OFFSETS, key);
        }
        Self::store(block, final_round(&t.sbox, s, ENC_OFFSETS, &self.enc[10]));
    }

    /// Decrypt one 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        let t = tables();
        let mut s = Self::load(block, &self.dec[0]);
        for key in &self.dec[1..10] {
            s = round(&t.td, s, DEC_OFFSETS, key);
        }
        Self::store(
            block,
            final_round(&t.inv_sbox, s, DEC_OFFSETS, &self.dec[10]),
        );
    }

    /// Encrypt a copy of `block`.
    #[must_use]
    pub fn encrypt(&self, block: [u8; 16]) -> [u8; 16] {
        let mut b = block;
        self.encrypt_block(&mut b);
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sbox_first_entries() {
        // S(0x00) = 0x63, S(0x01) = 0x7c, S(0x53) = 0xed (FIPS-197 examples).
        let t = tables();
        assert_eq!(t.sbox[0x00], 0x63);
        assert_eq!(t.sbox[0x01], 0x7c);
        assert_eq!(t.sbox[0x53], 0xed);
    }

    #[test]
    fn inv_sbox_inverts_sbox() {
        let t = tables();
        for i in 0..256 {
            assert_eq!(t.inv_sbox[t.sbox[i] as usize] as usize, i);
        }
    }

    #[test]
    fn fips197_known_answer() {
        // FIPS-197 Appendix C.1.
        let key = Key128([
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ]);
        let mut block = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let expected = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        let aes = Aes128::new(key);
        aes.encrypt_block(&mut block);
        assert_eq!(block, expected);
    }

    #[test]
    fn fips197_decrypt_known_answer() {
        // FIPS-197 Appendix C.1, inverse cipher.
        let key = Key128(std::array::from_fn(|i| i as u8));
        let mut block = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        Aes128::new(key).decrypt_block(&mut block);
        assert_eq!(block, std::array::from_fn(|i| (i as u8) * 0x11));
    }

    #[test]
    fn decrypt_inverts_encrypt() {
        let aes = Aes128::new(Key128::derive(b"roundtrip"));
        for i in 0..32u8 {
            let mut block = [i; 16];
            let original = block;
            aes.encrypt_block(&mut block);
            assert_ne!(block, original);
            aes.decrypt_block(&mut block);
            assert_eq!(block, original);
        }
    }

    #[test]
    fn different_keys_give_different_ciphertexts() {
        let a = Aes128::new(Key128::derive(b"a"));
        let b = Aes128::new(Key128::derive(b"b"));
        let pt = [0x42u8; 16];
        assert_ne!(a.encrypt(pt), b.encrypt(pt));
    }

    #[test]
    fn gf_mul_known_values() {
        // FIPS-197 §4.2: {57} x {83} = {c1}, {57} x {13} = {fe}.
        assert_eq!(gf_mul(0x57, 0x83), 0xc1);
        assert_eq!(gf_mul(0x57, 0x13), 0xfe);
    }

    #[test]
    fn gf_inv_is_inverse() {
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "a = {a}");
        }
    }

    #[test]
    fn debug_does_not_leak_key() {
        let aes = Aes128::new(Key128::derive(b"secret"));
        let s = format!("{aes:?}");
        let fields = s.trim_start_matches("Aes128");
        assert!(!fields.chars().any(|c| c.is_ascii_digit()), "{s}");
    }

    /// Byte-state AES-128, the equivalence oracle for the T-table form:
    /// SubBytes, ShiftRows and MixColumns on a column-major byte state,
    /// GF(2⁸) products computed directly.
    mod reference {
        use super::super::{gf_mul, tables};

        pub fn expand(key: [u8; 16]) -> [[u8; 16]; 11] {
            let sbox = &tables().sbox;
            let mut w = [[0u8; 4]; 44];
            for (i, chunk) in key.chunks_exact(4).enumerate() {
                w[i].copy_from_slice(chunk);
            }
            let mut rcon = 1u8;
            for i in 4..44 {
                let mut temp = w[i - 1];
                if i % 4 == 0 {
                    temp.rotate_left(1);
                    for b in &mut temp {
                        *b = sbox[*b as usize];
                    }
                    temp[0] ^= rcon;
                    rcon = gf_mul(rcon, 2);
                }
                for j in 0..4 {
                    w[i][j] = w[i - 4][j] ^ temp[j];
                }
            }
            std::array::from_fn(|r| std::array::from_fn(|b| w[r * 4 + b / 4][b % 4]))
        }

        fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
            for (s, k) in state.iter_mut().zip(rk) {
                *s ^= k;
            }
        }

        fn sub_bytes(state: &mut [u8; 16], sbox: &[u8; 256]) {
            for b in state.iter_mut() {
                *b = sbox[*b as usize];
            }
        }

        // state[r + 4c] = row r, column c.
        fn shift_rows(state: &mut [u8; 16]) {
            let s = *state;
            for r in 1..4 {
                for c in 0..4 {
                    state[r + 4 * c] = s[r + 4 * ((c + r) % 4)];
                }
            }
        }

        fn inv_shift_rows(state: &mut [u8; 16]) {
            let s = *state;
            for r in 1..4 {
                for c in 0..4 {
                    state[r + 4 * ((c + r) % 4)] = s[r + 4 * c];
                }
            }
        }

        /// Multiply every column by the circulant matrix with first row `m`.
        fn mix(state: &mut [u8; 16], m: [u8; 4]) {
            for c in 0..4 {
                let col: [u8; 4] = state[4 * c..4 * c + 4].try_into().unwrap();
                for r in 0..4 {
                    state[4 * c + r] =
                        (0..4).fold(0, |acc, k| acc ^ gf_mul(m[(k + 4 - r) % 4], col[k]));
                }
            }
        }

        pub fn encrypt(rk: &[[u8; 16]; 11], block: &mut [u8; 16]) {
            let sbox = &tables().sbox;
            add_round_key(block, &rk[0]);
            for key in &rk[1..10] {
                sub_bytes(block, sbox);
                shift_rows(block);
                mix(block, [2, 3, 1, 1]);
                add_round_key(block, key);
            }
            sub_bytes(block, sbox);
            shift_rows(block);
            add_round_key(block, &rk[10]);
        }

        pub fn decrypt(rk: &[[u8; 16]; 11], block: &mut [u8; 16]) {
            let inv_sbox = &tables().inv_sbox;
            add_round_key(block, &rk[10]);
            for key in rk[1..10].iter().rev() {
                inv_shift_rows(block);
                sub_bytes(block, inv_sbox);
                add_round_key(block, key);
                mix(block, [14, 11, 13, 9]);
            }
            inv_shift_rows(block);
            sub_bytes(block, inv_sbox);
            add_round_key(block, &rk[0]);
        }
    }

    #[test]
    fn reference_matches_fips197() {
        let rk = reference::expand(std::array::from_fn(|i| i as u8));
        let mut block = std::array::from_fn(|i| (i as u8) * 0x11);
        reference::encrypt(&rk, &mut block);
        assert_eq!(block[..4], [0x69, 0xc4, 0xe0, 0xd8]);
        reference::decrypt(&rk, &mut block);
        assert_eq!(block, std::array::from_fn(|i| (i as u8) * 0x11));
    }

    fn array16(bytes: &[u8]) -> [u8; 16] {
        bytes.try_into().expect("16 bytes")
    }

    proptest! {
        /// The T-table cipher is the byte-state cipher, in both directions,
        /// for any key and block.
        #[test]
        fn ttable_equals_byte_state_reference(
            key in prop::collection::vec(any::<u8>(), 16),
            block in prop::collection::vec(any::<u8>(), 16),
        ) {
            let (key, block) = (array16(&key), array16(&block));
            let aes = Aes128::new(Key128(key));
            let rk = reference::expand(key);
            let mut expected = block;
            reference::encrypt(&rk, &mut expected);
            prop_assert_eq!(aes.encrypt(block), expected);
            let mut got = block;
            aes.decrypt_block(&mut got);
            let mut expected = block;
            reference::decrypt(&rk, &mut expected);
            prop_assert_eq!(got, expected);
        }
    }
}
