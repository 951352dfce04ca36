//! Microbenchmarks of the functional crypto primitives and the cache
//! model — the measurements of the `tnpu-bench` criterion stubs
//! (`benches/crypto.rs`, `benches/engines.rs`), folded into the traced
//! run's per-layer record.

use crate::stats::median;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tnpu_crypto::aes::Aes128;
use tnpu_crypto::ctr::CtrMode;
use tnpu_crypto::mac::BlockMac;
use tnpu_crypto::sha256::sha256;
use tnpu_crypto::xts::XtsMode;
use tnpu_crypto::Key128;
use tnpu_sim::cache::{AccessKind, Cache, CacheConfig};
use tnpu_sim::rng::SplitMix64;
use tnpu_sim::Addr;

/// Minimum length of one timed batch.
const BATCH: Duration = Duration::from_millis(10);

/// Timed batches per measurement; the median is reported.
const BATCHES: usize = 5;

/// Host nanoseconds per call of `op`: batches grown until one lasts at
/// least [`BATCH`], then the median of [`BATCHES`] such batches.
fn ns_per_op(mut op: impl FnMut()) -> f64 {
    let mut n = 1u32;
    loop {
        let start = Instant::now();
        for _ in 0..n {
            op();
        }
        if start.elapsed() >= BATCH {
            break;
        }
        n *= 2;
    }
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..n {
                op();
            }
            start.elapsed().as_secs_f64() * 1e9 / f64::from(n)
        })
        .collect();
    median(&samples)
}

/// Every microbenchmark, as `(metric name, ns per operation)`.
#[must_use]
pub fn run() -> Vec<(&'static str, f64)> {
    let key = Key128::derive(b"bench");
    let aes = Aes128::new(key);
    let xts = XtsMode::from_master(key);
    let ctr = CtrMode::new(key);
    let mac = BlockMac::new(key);
    let mut block16 = [0u8; 16];
    let mut block64 = [0x5au8; 64];
    let mut counter = 0u64;
    // One arity-64 tree node: 64 child hashes of 32 B.
    let node = vec![0xabu8; 64 * 32];
    let mut stream = Cache::new(CacheConfig::new("bench", 4096, 8, 64));
    let mut random = Cache::new(CacheConfig::new("bench", 4096, 8, 64));
    let mut addr = 0u64;
    let mut rng = SplitMix64::new(1);
    vec![
        (
            "crypto.aes128_block_ns",
            ns_per_op(|| aes.encrypt_block(black_box(&mut block16))),
        ),
        (
            "crypto.xts_encrypt_64b_ns",
            ns_per_op(|| xts.encrypt_block(7, black_box(&mut block64))),
        ),
        (
            "crypto.xts_decrypt_64b_ns",
            ns_per_op(|| xts.decrypt_block(7, black_box(&mut block64))),
        ),
        (
            "crypto.ctr_64b_ns",
            ns_per_op(|| {
                counter += 1;
                ctr.apply(0x1000, counter, black_box(&mut block64));
            }),
        ),
        (
            "crypto.block_mac_tag_ns",
            ns_per_op(|| {
                black_box(mac.tag(0x1000, 3, black_box(&block64)));
            }),
        ),
        (
            "crypto.sha256_2k_ns",
            ns_per_op(|| {
                black_box(sha256(black_box(&node)));
            }),
        ),
        (
            "sim.cache_stream_ns",
            ns_per_op(|| {
                addr += 64;
                black_box(stream.access(Addr(addr), AccessKind::Read));
            }),
        ),
        (
            "sim.cache_random_ns",
            ns_per_op(|| {
                let a = rng.next_below(1 << 20) * 64;
                black_box(random.access(Addr(a), AccessKind::Write));
            }),
        ),
    ]
}
