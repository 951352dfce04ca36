//! Property tests of block addressing and the cache model over arbitrary
//! ranges and access streams.

use proptest::prelude::*;
use tnpu_sim::cache::{AccessKind, Cache, CacheConfig};
use tnpu_sim::{block_count, blocks_covering, Addr};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// blocks_covering is consistent with block_count and covers exactly
    /// the bytes of the range.
    #[test]
    fn block_covering_consistency(start in 0u64..1_000_000, len in 0u64..10_000) {
        let blocks: Vec<_> = blocks_covering(Addr(start), len).collect();
        prop_assert_eq!(blocks.len() as u64, block_count(Addr(start), len));
        if len > 0 {
            prop_assert!(blocks.first().expect("non-empty").base().0 <= start);
            let last = blocks.last().expect("non-empty");
            prop_assert!(last.base().0 + 64 >= start + len);
            // Contiguity.
            for pair in blocks.windows(2) {
                prop_assert_eq!(pair[1].0, pair[0].0 + 1);
            }
        }
    }

    /// Re-accessing a just-inserted line always hits, every access is
    /// counted, and no access stream writes back more lines than it missed.
    #[test]
    fn cache_sanity(addrs in prop::collection::vec(0u64..(1 << 16), 1..200)) {
        let mut cache = Cache::new(CacheConfig::new("prop", 1024, 2, 64));
        for &a in &addrs {
            cache.access(Addr(a * 64), AccessKind::Write);
            prop_assert!(cache.probe(Addr(a * 64)), "just-inserted line must be resident");
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.accesses(), addrs.len() as u64);
        prop_assert!(stats.writebacks <= stats.misses);
    }
}
