//! Property test of the tree-less functional memory over arbitrary data,
//! addresses and versions.

use proptest::prelude::*;
use tnpu_crypto::Key128;
use tnpu_memprot::functional::TreelessMemory;
use tnpu_sim::Addr;

fn arb_block() -> impl Strategy<Value = [u8; 64]> {
    prop::collection::vec(any::<u8>(), 64).prop_map(|v| {
        let mut b = [0u8; 64];
        b.copy_from_slice(&v);
        b
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Protected-memory roundtrip for arbitrary data, addresses and
    /// versions; a wrong expected version always fails.
    #[test]
    fn treeless_memory_roundtrip(
        data in arb_block(),
        block_no in 0u64..1_000_000,
        version in 1u64..1_000_000,
    ) {
        let mut mem = TreelessMemory::new(Key128::derive(b"prop"));
        let addr = Addr(block_no * 64);
        mem.write_block(addr, version, data);
        prop_assert_eq!(mem.read_block(addr, version).expect("verifies"), data);
        prop_assert!(mem.read_block(addr, version + 1).is_err());
    }
}
