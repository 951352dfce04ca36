//! A tiny deterministic RNG for workload generation, and the 64-bit fold
//! that turns a byte stream into one of its seeds.
//!
//! Embedding layers gather pseudo-random rows (token indices); using a fixed,
//! dependency-free generator keeps every experiment bit-reproducible across
//! runs and platforms.

/// SplitMix64 — a small, fast, well-distributed 64-bit generator.
///
/// Not cryptographically secure; used only to synthesize workload index
/// streams.
///
/// # Examples
///
/// ```
/// use tnpu_sim::rng::SplitMix64;
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

/// The SplitMix64 output mix — also used on its own to scramble seed
/// material (labels, stream indices) into well-distributed states.
#[must_use]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SplitMix64 {
    /// Seeded constructor.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derive a seed from string labels — the deterministic way experiment
    /// harnesses key RNG streams to *what* is being simulated (experiment,
    /// model, configuration), never to worker identity, so results are
    /// independent of scheduling and thread count.
    ///
    /// # Examples
    ///
    /// ```
    /// use tnpu_sim::rng::SplitMix64;
    /// let a = SplitMix64::seed_from_labels(&["fig14", "alex", "small"]);
    /// let b = SplitMix64::seed_from_labels(&["fig14", "alex", "large"]);
    /// assert_eq!(a, SplitMix64::seed_from_labels(&["fig14", "alex", "small"]));
    /// assert_ne!(a, b);
    /// ```
    #[must_use]
    pub fn seed_from_labels(labels: &[&str]) -> u64 {
        // FNV-1a over the labels (with a separator so ["ab","c"] and
        // ["a","bc"] differ), finished by the SplitMix64 output mix.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for label in labels {
            for b in label.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            h ^= 0x1F;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        mix(h)
    }

    /// Independent stream `index` derived from `base`: splits one logical
    /// seed into per-consumer streams (one per NPU of a multi-NPU cell, one
    /// per repetition, ...). Nearby indices map to well-separated states, so
    /// `stream(s, 0)` and `stream(s, 1)` behave as unrelated generators.
    #[must_use]
    pub fn stream(base: u64, index: u64) -> Self {
        let salted = index.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        SplitMix64::new(mix(base ^ mix(salted)))
    }

    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        // Multiply-shift reduction; bias is negligible for simulation use.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Approximately exponentially distributed value with the given `mean` —
    /// the interarrival draw behind Poisson request processes.
    ///
    /// Integer-only on purpose: floating-point `ln` is allowed to differ
    /// across platforms/toolchains, which would break the byte-identical
    /// stdout contract. Instead `-log2(u)` is evaluated exactly on the
    /// exponent (leading zeros of the raw draw) and piecewise-linearly on a
    /// 16-bit mantissa, then scaled by `ln 2` in fixed point. The linear
    /// segment stays within ~6% of `log2` pointwise and preserves the mean
    /// to well under 1%, which is more than enough for a workload generator.
    ///
    /// # Examples
    ///
    /// ```
    /// use tnpu_sim::rng::SplitMix64;
    /// let mut r = SplitMix64::new(3);
    /// let draws: u64 = (0..4096).map(|_| r.next_exponential(1000)).sum();
    /// let avg = draws / 4096;
    /// assert!((900..1100).contains(&avg), "mean ~1000, got {avg}");
    /// ```
    pub fn next_exponential(&mut self, mean: u64) -> u64 {
        let r = self.next_u64() | 1; // never zero: -log2(0) is infinite
        let lz = u64::from(r.leading_zeros());
        // Top 16 fractional mantissa bits below the leading one.
        let mant = if lz >= 63 { 0 } else { (r << (lz + 1)) >> 48 };
        // -log2(r / 2^64) ≈ lz + (1 - mant/2^16), in Q16.
        let log2_q16 = (lz << 16) + ((1u64 << 16) - mant);
        const LN2_Q16: u64 = 45_426; // round(ln 2 * 2^16)

        // mean * log2_q16 * ln2_q16 >> 32; the intermediate fits u128.
        let t = (u128::from(mean) * u128::from(log2_q16) * u128::from(LN2_Q16)) >> 32;
        u64::try_from(t).unwrap_or(u64::MAX)
    }
}

impl Default for SplitMix64 {
    fn default() -> Self {
        SplitMix64::new(0x5EED_5EED_5EED_5EED)
    }
}

/// A streaming 64-bit fold of a byte stream, built on the SplitMix64
/// output mix: `h = mix(h ^ word)` for each little-endian 64-bit word,
/// then the zero-padded partial tail word (if any) and the total length.
///
/// The mix is a bijection, so each step is one in `h` for a fixed word
/// and one in the word for a fixed `h`: two equal-length streams that
/// differ in a single word always fold to different values. Changes to
/// several words collide with a chance of about 2^-64. Not a
/// cryptographic hash — anyone can construct collisions — so it only
/// carries data flow, never protects anything.
///
/// # Examples
///
/// ```
/// use tnpu_sim::rng::Fold64;
/// let mut split = Fold64::new();
/// split.update(b"layer");
/// split.update(&[7; 64]);
/// let mut whole = Fold64::new();
/// whole.update(&[b"layer".as_slice(), &[7; 64]].concat());
/// assert_eq!(split.finish(), whole.finish()); // split points don't matter
/// ```
#[derive(Debug, Clone)]
pub struct Fold64 {
    h: u64,
    /// Bytes of the word not yet complete, `tail[..tail_len]`.
    tail: [u8; 8],
    tail_len: usize,
    /// Total bytes folded.
    len: u64,
}

impl Fold64 {
    /// An empty fold.
    #[must_use]
    pub fn new() -> Self {
        Fold64 {
            h: 0x9E37_79B9_7F4A_7C15,
            tail: [0; 8],
            tail_len: 0,
            len: 0,
        }
    }

    /// Fold in `bytes`; any split of a stream into updates gives the
    /// one-shot result.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len = self.len.wrapping_add(bytes.len() as u64);
        if self.tail_len > 0 {
            let take = (8 - self.tail_len).min(bytes.len());
            let (head, rest) = bytes.split_at(take);
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(head);
            self.tail_len += take;
            bytes = rest;
            if self.tail_len < 8 {
                return;
            }
            self.h = mix(self.h ^ u64::from_le_bytes(self.tail));
            self.tail_len = 0;
        }
        let (words, rest) = bytes.as_chunks::<8>();
        for word in words {
            self.h = mix(self.h ^ u64::from_le_bytes(*word));
        }
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// The fold of everything updated so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        let mut h = self.h;
        if self.tail_len > 0 {
            let mut word = [0u8; 8];
            word[..self.tail_len].copy_from_slice(&self.tail[..self.tail_len]);
            h = mix(h ^ u64::from_le_bytes(word));
        }
        mix(h ^ self.len)
    }
}

impl Default for Fold64 {
    fn default() -> Self {
        Fold64::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn bounded_values_in_range() {
        let mut r = SplitMix64::new(9);
        for _ in 0..1000 {
            assert!(r.next_below(37) < 37);
        }
    }

    #[test]
    fn bounded_values_cover_range() {
        let mut r = SplitMix64::new(11);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[usize::try_from(r.next_below(8)).expect("below 8")] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_bound_panics() {
        SplitMix64::new(1).next_below(0);
    }

    #[test]
    fn label_seeds_are_stable_and_order_sensitive() {
        let a = SplitMix64::seed_from_labels(&["exp", "model", "cfg"]);
        assert_eq!(a, SplitMix64::seed_from_labels(&["exp", "model", "cfg"]));
        assert_ne!(a, SplitMix64::seed_from_labels(&["model", "exp", "cfg"]));
        // Separator keeps label boundaries significant.
        assert_ne!(
            SplitMix64::seed_from_labels(&["ab", "c"]),
            SplitMix64::seed_from_labels(&["a", "bc"]),
        );
    }

    #[test]
    fn exponential_draws_are_deterministic_and_spread() {
        let mut a = SplitMix64::new(17);
        let mut b = SplitMix64::new(17);
        let draws: Vec<u64> = (0..64).map(|_| a.next_exponential(500)).collect();
        assert_eq!(
            draws,
            (0..64).map(|_| b.next_exponential(500)).collect::<Vec<_>>()
        );
        // An exponential with mean 500 should produce both short and long
        // gaps; a degenerate sampler would cluster at one value.
        assert!(draws.iter().any(|&d| d < 250));
        assert!(draws.iter().any(|&d| d > 750));
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = SplitMix64::new(23);
        let n = 1u64 << 14;
        let sum: u64 = (0..n).map(|_| r.next_exponential(10_000)).sum();
        let avg = sum / n;
        assert!(
            (9_500..10_500).contains(&avg),
            "sample mean should be within 5% of 10_000, got {avg}"
        );
    }

    #[test]
    fn exponential_zero_mean_is_zero() {
        let mut r = SplitMix64::new(5);
        assert_eq!(r.next_exponential(0), 0);
    }

    #[test]
    fn fold_counts_zero_padding() {
        // The tail word is zero-padded, so only the folded length tells
        // these streams apart.
        let fold = |bytes: &[u8]| {
            let mut f = Fold64::new();
            f.update(bytes);
            f.finish()
        };
        let folds: Vec<u64> = (0..=9).map(|n| fold(&vec![0; n])).collect();
        for (i, a) in folds.iter().enumerate() {
            assert!(folds[i + 1..].iter().all(|b| b != a), "{i} zero bytes");
        }
    }

    #[test]
    fn streams_are_deterministic_and_distinct() {
        let base = SplitMix64::seed_from_labels(&["fig14", "alex", "small"]);
        let mut s0 = SplitMix64::stream(base, 0);
        let mut s0_again = SplitMix64::stream(base, 0);
        let mut s1 = SplitMix64::stream(base, 1);
        for _ in 0..100 {
            assert_eq!(s0.next_u64(), s0_again.next_u64());
        }
        let draws0: Vec<u64> = (0..8)
            .map(|_| SplitMix64::stream(base, 0).next_u64())
            .collect();
        let draws1: Vec<u64> = (0..8).map(|_| s1.next_u64()).collect();
        assert_ne!(draws0[0], draws1[0], "streams must differ");
        assert!(draws1.windows(2).all(|w| w[0] != w[1]));
    }
}
