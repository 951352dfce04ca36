//! Property tests of block addressing, the cache model and the 64-bit
//! fold over arbitrary ranges, access streams and byte streams.

use proptest::prelude::*;
use tnpu_sim::cache::{AccessKind, Cache, CacheConfig};
use tnpu_sim::rng::Fold64;
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

    /// Flipping any single bit of a multi-block stream changes the fold:
    /// every step is a bijection, so one changed word always shows.
    #[test]
    fn fold_sees_every_single_bit_flip(stream in prop::collection::vec(any::<u8>(), 129..300)) {
        let want = fold(&stream);
        let mut flipped = stream.clone();
        for bit in 0..flipped.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            prop_assert_ne!(fold(&flipped), want, "bit {} of {}", bit, stream.len());
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    /// Swapping two distinct words changes the fold: word order matters.
    #[test]
    fn fold_is_word_order_sensitive(
        words in prop::collection::vec(any::<u64>(), 2..40),
        i in any::<usize>(),
        j in any::<usize>(),
    ) {
        let (i, j) = (i % words.len(), j % words.len());
        let mut swapped = words.clone();
        swapped.swap(i, j);
        if words[i] != words[j] {
            prop_assert_ne!(fold(&le_bytes(&swapped)), fold(&le_bytes(&words)), "{} <-> {}", i, j);
        }
    }

    /// Splitting a stream into updates at arbitrary byte offsets gives the
    /// one-shot fold.
    #[test]
    fn fold_ignores_update_boundaries(
        stream in prop::collection::vec(any::<u8>(), 0..300),
        cuts in prop::collection::vec(any::<usize>(), 0..12),
    ) {
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
        cuts.sort_unstable();
        let mut split = Fold64::new();
        let mut start = 0;
        for cut in cuts.into_iter().chain([stream.len()]) {
            split.update(&stream[start..cut]);
            start = cut;
        }
        prop_assert_eq!(split.finish(), fold(&stream));
    }
}

/// The one-shot fold of `bytes`.
fn fold(bytes: &[u8]) -> u64 {
    let mut f = Fold64::new();
    f.update(bytes);
    f.finish()
}

fn le_bytes(words: &[u64]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}
