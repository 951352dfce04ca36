//! Deliberately bad mini-workspace: the binary exit-code tests point
//! `--root` here and expect `--deny-all` to fail.

use std::time::Instant;
use tnpu_sim::rng::SplitMix64;

pub fn simulate(events: &[u32]) -> u64 {
    let start = Instant::now();
    let mut rng = SplitMix64::new(42);
    let _ = start.elapsed();
    rng.next_u64() ^ events.len() as u64
}
