//! Property tests of the crypto primitives over arbitrary inputs; the unit
//! tests next to each primitive pin fixed vectors.

use proptest::prelude::*;
use tnpu_crypto::ctr::CtrMode;
use tnpu_crypto::mac::BlockMac;
use tnpu_crypto::xts::XtsMode;
use tnpu_crypto::Key128;

fn arb_block() -> impl Strategy<Value = [u8; 64]> {
    prop::collection::vec(any::<u8>(), 64).prop_map(|v| {
        let mut b = [0u8; 64];
        b.copy_from_slice(&v);
        b
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// XTS decrypt(encrypt(x)) == x for any data and unit number.
    #[test]
    fn xts_roundtrip(data in arb_block(), unit in any::<u64>()) {
        let xts = XtsMode::from_master(Key128::derive(b"prop"));
        let mut block = data;
        xts.encrypt_block(unit, &mut block);
        xts.decrypt_block(unit, &mut block);
        prop_assert_eq!(block, data);
    }

    /// CTR-mode application is an involution for any (addr, counter).
    #[test]
    fn ctr_involution(data in arb_block(), addr in any::<u64>(), counter in any::<u64>()) {
        let ctr = CtrMode::new(Key128::derive(b"prop"));
        let mut block = data;
        ctr.apply(addr, counter, &mut block);
        ctr.apply(addr, counter, &mut block);
        prop_assert_eq!(block, data);
    }

    /// A MAC never verifies when any of content, address, or version
    /// changed.
    #[test]
    fn mac_binds_all_inputs(
        data in arb_block(),
        addr in 0u64..1_000_000,
        version in 0u64..1_000_000,
        flip_byte in 0usize..64,
        delta in 1u64..100,
    ) {
        let mac = BlockMac::new(Key128::derive(b"prop"));
        let tag = mac.tag(addr, version, &data);
        prop_assert!(mac.verify(addr, version, &data, tag));
        let mut tampered = data;
        tampered[flip_byte] ^= 0x01;
        prop_assert!(!mac.verify(addr, version, &tampered, tag));
        prop_assert!(!mac.verify(addr + delta, version, &data, tag));
        prop_assert!(!mac.verify(addr, version + delta, &data, tag));
    }
}
