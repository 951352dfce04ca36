//! Timing wrappers around the two protection-layer interfaces.
//!
//! [`TimedEngine`] wraps a cost-model [`ProtectionEngine`] (what
//! `TileTrace::replay` and the recovery layer drive) and [`TimedMemory`]
//! a functional [`FunctionalMemory`] (what `SecureRunner` and
//! `SteppedSession` drive). Both forward every call unchanged and add the
//! call count, block count and busy time to a shared [`Meter`], per
//! scheme. The benchmark wraps the layers from outside; nothing inside
//! the crates is instrumented.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tnpu_memprot::functional::{BlockCapture, FunctionalMemory, IntegrityError};
use tnpu_memprot::{AccessCost, EngineStats, ProtectionEngine, SchemeKind};
use tnpu_sim::{Addr, BlockRun, Cycles, BLOCK_SIZE};

/// Index of `scheme` in [`SchemeKind::ALL`].
fn slot(scheme: SchemeKind) -> usize {
    SchemeKind::ALL
        .iter()
        .position(|&s| s == scheme)
        .expect("every scheme is in ALL")
}

/// Per-scheme counters of one layer. Statistics only: every field is
/// independent and published by nothing, so relaxed ordering suffices.
#[derive(Debug, Default)]
struct Counters {
    calls: [AtomicU64; 4],
    blocks: [AtomicU64; 4],
    ns: [AtomicU64; 4],
}

impl Counters {
    fn add(&self, scheme: SchemeKind, blocks: u64, since: Instant) {
        let ns = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let i = slot(scheme);
        self.calls[i].fetch_add(1, Ordering::Relaxed);
        self.blocks[i].fetch_add(blocks, Ordering::Relaxed);
        self.ns[i].fetch_add(ns, Ordering::Relaxed);
    }

    fn read(&self) -> [Tally; 4] {
        std::array::from_fn(|i| Tally {
            calls: self.calls[i].load(Ordering::Relaxed),
            blocks: self.blocks[i].load(Ordering::Relaxed),
            ns: self.ns[i].load(Ordering::Relaxed),
        })
    }
}

/// Calls, blocks and busy nanoseconds of one layer for one scheme.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Calls into the layer.
    pub calls: u64,
    /// 64 B blocks those calls covered.
    pub blocks: u64,
    /// Host nanoseconds spent inside the calls.
    pub ns: u64,
}

impl Tally {
    /// `self - earlier`, field by field.
    #[must_use]
    pub fn since(self, earlier: Tally) -> Tally {
        Tally {
            calls: self.calls - earlier.calls,
            blocks: self.blocks - earlier.blocks,
            ns: self.ns - earlier.ns,
        }
    }

    fn plus(self, other: Tally) -> Tally {
        Tally {
            calls: self.calls + other.calls,
            blocks: self.blocks + other.blocks,
            ns: self.ns + other.ns,
        }
    }
}

/// Everything the wrappers have counted, per scheme in
/// [`SchemeKind::ALL`] order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Reading {
    /// Cost-engine calls (block runs, single blocks, version accesses,
    /// flushes).
    pub engine: [Tally; 4],
    /// Functional block reads.
    pub reads: [Tally; 4],
    /// Functional block writes.
    pub writes: [Tally; 4],
}

impl Reading {
    /// Counts accumulated between `earlier` and `self`.
    #[must_use]
    pub fn since(&self, earlier: &Reading) -> Reading {
        let diff = |a: &[Tally; 4], b: &[Tally; 4]| std::array::from_fn(|i| a[i].since(b[i]));
        Reading {
            engine: diff(&self.engine, &earlier.engine),
            reads: diff(&self.reads, &earlier.reads),
            writes: diff(&self.writes, &earlier.writes),
        }
    }

    /// Engine tally summed over schemes.
    #[must_use]
    pub fn engine_total(&self) -> Tally {
        sum(&self.engine)
    }

    /// Functional read tally summed over schemes.
    #[must_use]
    pub fn reads_total(&self) -> Tally {
        sum(&self.reads)
    }

    /// Functional read and write tallies summed over schemes.
    #[must_use]
    pub fn memory_total(&self) -> Tally {
        self.reads_total().plus(sum(&self.writes))
    }
}

fn sum(tallies: &[Tally; 4]) -> Tally {
    tallies.iter().fold(Tally::default(), |a, &t| a.plus(t))
}

/// Shared sink of the wrappers' counts.
#[derive(Debug, Default)]
pub struct Meter {
    engine: Counters,
    reads: Counters,
    writes: Counters,
}

impl Meter {
    /// A fresh meter, shareable between wrappers.
    #[must_use]
    pub fn new() -> Arc<Meter> {
        Arc::new(Meter::default())
    }

    /// Snapshot every counter.
    #[must_use]
    pub fn read(&self) -> Reading {
        Reading {
            engine: self.engine.read(),
            reads: self.reads.read(),
            writes: self.writes.read(),
        }
    }
}

/// A [`ProtectionEngine`] that forwards to `inner` and meters every call.
///
/// Every trait method is forwarded — including the provided ones — so the
/// wrapper never falls back to a per-block default the inner engine
/// overrides.
pub struct TimedEngine {
    inner: Box<dyn ProtectionEngine>,
    meter: Arc<Meter>,
}

impl TimedEngine {
    /// Wrap `inner`, counting into `meter`.
    #[must_use]
    pub fn new(inner: Box<dyn ProtectionEngine>, meter: Arc<Meter>) -> Self {
        TimedEngine { inner, meter }
    }

    fn timed(
        &mut self,
        blocks: u64,
        f: impl FnOnce(&mut dyn ProtectionEngine) -> AccessCost,
    ) -> AccessCost {
        let start = Instant::now();
        let cost = f(self.inner.as_mut());
        self.meter.engine.add(self.inner.scheme(), blocks, start);
        cost
    }
}

impl ProtectionEngine for TimedEngine {
    fn scheme(&self) -> SchemeKind {
        self.inner.scheme()
    }
    fn read_block(&mut self, addr: Addr, version: u64) -> AccessCost {
        self.timed(1, |e| e.read_block(addr, version))
    }
    fn write_block(&mut self, addr: Addr, version: u64) -> AccessCost {
        self.timed(1, |e| e.write_block(addr, version))
    }
    fn read_run(&mut self, run: BlockRun, version: u64) -> AccessCost {
        self.timed(run.len, |e| e.read_run(run, version))
    }
    fn write_run(&mut self, run: BlockRun, version: u64) -> AccessCost {
        self.timed(run.len, |e| e.write_run(run, version))
    }
    fn version_access(&mut self, table_addr: Addr, write: bool) -> AccessCost {
        self.timed(0, |e| e.version_access(table_addr, write))
    }
    fn pipeline_latency(&self) -> Cycles {
        self.inner.pipeline_latency()
    }
    fn stats(&self) -> EngineStats {
        self.inner.stats()
    }
    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }
    fn context_state_bytes(&self) -> u64 {
        self.inner.context_state_bytes()
    }
    fn flush(&mut self) -> AccessCost {
        self.timed(0, |e| e.flush())
    }
}

/// A [`FunctionalMemory`] that forwards to `inner` and meters every block
/// read and write. The attack hooks are forwarded untimed.
#[derive(Debug)]
pub struct TimedMemory<M: FunctionalMemory> {
    inner: M,
    meter: Arc<Meter>,
}

impl<M: FunctionalMemory> TimedMemory<M> {
    /// Wrap `inner`, counting into `meter`.
    #[must_use]
    pub fn new(inner: M, meter: Arc<Meter>) -> Self {
        TimedMemory { inner, meter }
    }

    /// The wrapped memory.
    #[must_use]
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: FunctionalMemory> FunctionalMemory for TimedMemory<M> {
    fn scheme(&self) -> SchemeKind {
        self.inner.scheme()
    }
    fn write_block(&mut self, addr: Addr, version: u64, plaintext: [u8; BLOCK_SIZE]) {
        let start = Instant::now();
        self.inner.write_block(addr, version, plaintext);
        self.meter.writes.add(self.inner.scheme(), 1, start);
    }
    fn read_block(&self, addr: Addr, version: u64) -> Result<[u8; BLOCK_SIZE], IntegrityError> {
        let start = Instant::now();
        let r = self.inner.read_block(addr, version);
        self.meter.reads.add(self.inner.scheme(), 1, start);
        r
    }
    fn tamper_bits(&mut self, addr: Addr, bits: &[u16]) -> bool {
        self.inner.tamper_bits(addr, bits)
    }
    fn capture_block(&self, addr: Addr) -> Option<BlockCapture> {
        self.inner.capture_block(addr)
    }
    fn restore_block(&mut self, addr: Addr, capture: &BlockCapture) -> bool {
        self.inner.restore_block(addr, capture)
    }
    fn rollback_metadata(&mut self, addr: Addr, capture: &BlockCapture) -> bool {
        self.inner.rollback_metadata(addr, capture)
    }
    fn splice_block(&mut self, donor: Addr, victim: Addr) -> bool {
        self.inner.splice_block(donor, victim)
    }
    fn substitute_mac(&mut self, victim: Addr, donor: Addr) -> bool {
        self.inner.substitute_mac(victim, donor)
    }
    fn dram_contains(&self, needle: &[u8]) -> bool {
        self.inner.dram_contains(needle)
    }
    fn rekey(&mut self, epoch: u64) -> bool {
        self.inner.rekey(epoch)
    }
}
