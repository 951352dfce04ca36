//! Stepped dynamic-dataflow programs: autoregressive decode with a
//! growing KV cache, and training loops that rewrite every weight each
//! iteration.
//!
//! The static [`Inference`](crate::secure_runner::Inference) program writes
//! each tensor exactly once per inference — the assumption the tree-less
//! scheme's one-version-per-tensor design rests on (§III-A). This module's
//! [`Stepped`] program drives the two workloads that break it, on the same
//! [`Session`] lifecycle (version table, poisoning, recovery, epoch sweeps,
//! suspend/resume):
//!
//! * **Decode** (`decode` in the model registry): every step ingests one
//!   token, verifies the entire written KV prefix under its per-tile
//!   versions, and appends the new token's K/V entry. The caches' version
//!   state is tile-expanded on the first append, *grown* in place when an
//!   append opens a new [`TILE_BYTES`] tile ([`VersionTable::expand`] on an
//!   already-expanded tensor), and never merged mid-sequence. Appends
//!   within a tile read-modify-write the frontier tile under a bumped tile
//!   version, so every block of a tile is always MAC-bound to one uniform
//!   version — the invariant the epoch sweep relies on.
//! * **Train** (`train` in the registry): every iteration streams the
//!   input batch and all weights in under verification, then rewrites
//!   every weight (the SGD update) under a bumped version. Weight versions
//!   advance at the iteration rate, so small version limits exhaust in a
//!   handful of iterations and the session leans on pre-flight and
//!   reactive re-encryption epoch sweeps through [`crate::recovery`].
//!
//! Per-layer intermediate activations never touch DRAM here: a
//! sequence-length-1 decode step and a small-MLP training step both fit
//! their activations in the scratchpad, so the protected-memory surface is
//! exactly token/batch in, caches/weights read + appended/rewritten,
//! logits/loss out. Cycle costs of the full per-layer tile traffic come
//! from the lowered trace (`tnpu_npu::trace::TileTrace::build_steps`),
//! not from this functional model.
//!
//! [`VersionTable::expand`]: crate::version::VersionTable::expand

use crate::secure_runner::{rng_bytes, state_seed, RunError, Session, TILE_BYTES};
use tnpu_crypto::sha256::Sha256;
use tnpu_crypto::Key128;
use tnpu_memprot::functional::{FunctionalMemory, TreelessMemory};
use tnpu_models::defs::dynamic::DECODE_DIM;
use tnpu_models::{Model, ELEM_BYTES};
use tnpu_npu::alloc::TensorInfo;
use tnpu_sim::rng::SplitMix64;
use tnpu_sim::BLOCK_SIZE;

/// Bytes one decode step appends to each cache (one token's K or V).
const APPEND_BYTES: u64 = DECODE_DIM * ELEM_BYTES;

/// Which dynamic-dataflow shape a session is driving, derived from the
/// model: any cache-marked weight tensor (see
/// [`CACHE_MARKER`](tnpu_models::defs::dynamic::CACHE_MARKER)) makes it a
/// decode session, otherwise every step is a training iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteppedKind {
    /// Autoregressive decode: KV caches append-grow, weights stay put.
    Decode,
    /// Training loop: every weight is rewritten each iteration.
    Train,
}

/// Per-step execution record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepTrace {
    /// The step index this trace describes (0-based).
    pub step: u64,
    /// Blocks verified on the way in (token/batch, KV prefix, weights).
    pub blocks_read: u64,
    /// Blocks MAC'd on the way out (appends, weight updates, output).
    pub blocks_written: u64,
    /// Whether a KV append expanded or grew a cache's tile versions.
    pub grew_cache: bool,
    /// Whether this step consumed a re-encryption epoch sweep.
    pub swept: bool,
}

/// The decode/train step program: each step is one decoded token or one
/// training iteration, and cache-marked weights are KV caches built up
/// append by append.
#[derive(Debug, Clone, Copy)]
pub struct Stepped {
    /// Digest of the weight plaintexts the enclave itself initialized;
    /// folded into each decode step's digest in place of re-reading the
    /// weight-stationary parameters from DRAM every token.
    weight_state: [u8; 32],
}

/// A session running the [`Stepped`] decode/train program.
pub type SteppedSession<M = TreelessMemory> = Session<M, Stepped>;

impl Session<TreelessMemory, Stepped> {
    /// Set up a tree-less stepped context with keys from `master_key`.
    #[must_use]
    pub fn new(model: &Model, master_key: Key128, seed: u64) -> Self {
        Self::with_memory(model, TreelessMemory::new(master_key), seed)
    }
}

impl<M: FunctionalMemory> Session<M, Stepped> {
    /// Set up the context over an existing memory: allocate tensors,
    /// register them, initialize the trained weights through the CPU
    /// `ts_write` path, and leave the caches *unwritten* at version 0 —
    /// their state is built up append by append.
    #[must_use]
    pub fn with_memory(model: &Model, mem: M, seed: u64) -> Self {
        let program = Stepped {
            weight_state: [0; 32],
        };
        let mut s = Session::alloc(model, mem, seed, true, program);
        let mut digest = Sha256::new();
        digest.update(b"weight-state");
        s.init_weights(|bytes| digest.update(bytes));
        s.program.weight_state = digest.finalize();
        // Decode steps until the smallest cache is full; train is unbounded.
        let per_cache = s.caches.iter().map(|c| c.bytes / APPEND_BYTES);
        s.capacity = per_cache.min().unwrap_or(u64::MAX);
        s
    }

    /// Which dynamic-dataflow shape this session drives.
    #[must_use]
    pub fn kind(&self) -> SteppedKind {
        if self.caches.is_empty() {
            SteppedKind::Train
        } else {
            SteppedKind::Decode
        }
    }

    /// Steps taken so far.
    #[must_use]
    pub fn steps_taken(&self) -> u64 {
        self.cursor
    }

    /// Steps the session can absorb: the KV capacity for decode
    /// (`u64::MAX` for train).
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The version a decode step's append would bump each cache's
    /// frontier tile *to*: existing frontier tiles bump their own
    /// version; a tile the append will create is seeded at the cache's
    /// current maximum tile version (the expand-grow no-reuse rule).
    fn next_frontier_version(&self, cache: TensorInfo) -> Result<u64, RunError> {
        if !self.table.is_expanded(cache.id)? {
            return Ok(1);
        }
        let count = self.table.tile_count(cache.id)?;
        let frontier = ((self.cursor * APPEND_BYTES) / TILE_BYTES) as u32;
        if frontier < count {
            return Ok(self.table.version(cache.id, frontier)? + 1);
        }
        let mut max = 0;
        for tile in 0..count {
            max = max.max(self.table.version(cache.id, tile)?);
        }
        Ok(max + 1)
    }

    /// Pre-flight sweep: if any version this step is about to bump would
    /// cross the limit, sweep *now*, at the step boundary — a sweep in
    /// the middle of the append/update loop would strand half the state
    /// in each epoch.
    fn preflight(&mut self) -> Result<bool, RunError> {
        if self.recovery.is_none() {
            return Ok(false);
        }
        let limit = self.table.limit();
        let mut would_exhaust = self.table.version(self.layout.input.id, 0)? >= limit;
        would_exhaust |= self.output_would_exhaust(self.output())?;
        if self.kind() == SteppedKind::Train {
            for w in &self.weights {
                would_exhaust |= self.table.version(w.id, 0)? >= limit;
            }
        }
        for &c in &self.caches {
            would_exhaust |= self.next_frontier_version(c)? > limit;
        }
        if would_exhaust {
            self.epoch_sweep()?;
        }
        Ok(would_exhaust)
    }

    /// Verify + read every written tile of a cache under its tile
    /// version, feeding the digest; returns the frontier tile's bytes if
    /// it has been written (the read half of the append's RMW).
    fn ingest_cache(
        &mut self,
        digest: &mut Sha256,
        cache: TensorInfo,
        frontier: u32,
        blocks_read: &mut u64,
    ) -> Result<Option<Vec<u8>>, RunError> {
        if !self.table.is_expanded(cache.id)? {
            return Ok(None);
        }
        let count = self.table.tile_count(cache.id)?;
        let mut frontier_bytes = None;
        for tile in 0..count {
            let tile_base = u64::from(tile) * TILE_BYTES;
            if tile_base >= cache.bytes {
                break;
            }
            let version = self.table.version(cache.id, tile)?;
            if version == 0 {
                continue; // never-appended tile
            }
            let tile_len = TILE_BYTES.min(cache.bytes - tile_base);
            let blocks = tile_len.div_ceil(BLOCK_SIZE as u64);
            let mut data = Vec::with_capacity((blocks as usize) * BLOCK_SIZE);
            for b in 0..blocks {
                let addr = cache.addr.offset(tile_base + b * BLOCK_SIZE as u64);
                let block = self.verified_read(addr, version)?;
                digest.update(&block);
                data.extend_from_slice(&block);
                *blocks_read += 1;
            }
            if tile == frontier {
                data.truncate(tile_len as usize);
                frontier_bytes = Some(data);
            }
        }
        Ok(frontier_bytes)
    }

    /// Append one token's entry to a cache: expand or grow the tile
    /// versions to cover the frontier, bump the frontier tile, and
    /// rewrite it whole (prior contents plus the spliced entry) under the
    /// new version. Returns whether the expansion shape changed.
    fn append_cache(
        &mut self,
        cache: TensorInfo,
        state: &[u8; 32],
        prior: Option<Vec<u8>>,
        blocks_written: &mut u64,
    ) -> Result<bool, RunError> {
        let off = self.cursor * APPEND_BYTES;
        let frontier = (off / TILE_BYTES) as u32;
        let needed = frontier + 1;
        let grew = if !self.table.is_expanded(cache.id)? {
            self.table.expand(cache.id, needed)?;
            true
        } else if self.table.tile_count(cache.id)? < needed {
            // The mid-sequence grow: an append crossed into a new tile of
            // an already-expanded cache.
            self.table.expand(cache.id, needed)?;
            true
        } else {
            false
        };
        let version = self.table.bump_tile(cache.id, frontier)?;
        let tile_base = u64::from(frontier) * TILE_BYTES;
        let tile_len = TILE_BYTES.min(cache.bytes - tile_base);
        let mut bytes = prior.unwrap_or_else(|| vec![0u8; tile_len as usize]);
        bytes.resize(tile_len as usize, 0);
        let local = (off - tile_base) as usize;
        let mut rng = SplitMix64::new(state_seed(state) ^ (u64::from(cache.id) << 32) ^ off);
        let end = (local + APPEND_BYTES as usize).min(bytes.len());
        // tnpu-lint: allow(panic-path) — local < end <= bytes.len(): the
        // frontier offset lies inside the tile buffer sized just above.
        for chunk in bytes[local..end].chunks_mut(8) {
            let w = rng.next_u64().to_le_bytes();
            let n = chunk.len();
            // tnpu-lint: allow(panic-path) — chunks_mut(8) caps n at 8.
            chunk.copy_from_slice(&w[..n]);
        }
        let mut b = 0;
        while b < tile_len {
            let mut block = [0u8; BLOCK_SIZE];
            let n = (tile_len - b).min(BLOCK_SIZE as u64) as usize;
            // tnpu-lint: allow(panic-path) — b + n <= tile_len == bytes.len().
            block[..n].copy_from_slice(&bytes[b as usize..b as usize + n]);
            self.mem
                .write_block(cache.addr.offset(tile_base + b), version, block);
            *blocks_written += 1;
            b += BLOCK_SIZE as u64;
        }
        Ok(grew)
    }

    /// Execute one step (a decoded token or a training iteration).
    ///
    /// # Errors
    ///
    /// [`RunError::Integrity`] when a verified read fails;
    /// [`RunError::Version`] on exhaustion without recovery;
    /// [`RunError::Finished`] when a decode session's KV capacity is
    /// spent; [`RunError::Poisoned`] if the context is quarantined.
    pub fn step(&mut self) -> Result<StepTrace, RunError> {
        self.guarded(|s| {
            if s.is_finished() {
                return Err(RunError::Finished);
            }
            s.step_inner()
        })
    }

    fn step_inner(&mut self) -> Result<StepTrace, RunError> {
        let s = self.cursor;
        let mut swept = self.preflight()?;
        let mut blocks_written = 0;

        // Ingest phase: the new token/batch under a bumped input version.
        swept |= self.write_input(self.seed.wrapping_add(s))?;
        let mut digest = Sha256::new();
        digest.update(b"stepped");
        digest.update(&s.to_le_bytes());
        let mut blocks_read = self.ingest_tensor(&mut digest, self.layout.input)?;

        let mut grew_cache = false;
        match self.kind() {
            SteppedKind::Decode => {
                // Weight-stationary: parameters were initialized by this
                // enclave and never leave DRAM unmodified reads behind —
                // their digest was taken at init, for free.
                digest.update(&self.program.weight_state);
                // Attention reads the whole written KV prefix, verified
                // tile by tile under the per-tile versions.
                let frontier = ((s * APPEND_BYTES) / TILE_BYTES) as u32;
                let mut priors = Vec::with_capacity(self.caches.len());
                for cache in self.caches.clone() {
                    priors.push(self.ingest_cache(
                        &mut digest,
                        cache,
                        frontier,
                        &mut blocks_read,
                    )?);
                }
                let state = digest.finalize();
                for (cache, prior) in self.caches.clone().into_iter().zip(priors) {
                    grew_cache |= self.append_cache(cache, &state, prior, &mut blocks_written)?;
                }
                blocks_written += self.produce_output(self.output(), &state)?.1;
            }
            SteppedKind::Train => {
                // The churn path: every weight is streamed in verified...
                for w in self.weights.clone() {
                    blocks_read += self.ingest_tensor(&mut digest, w)?;
                }
                let state = digest.finalize();
                blocks_written += self.produce_output(self.output(), &state)?.1;
                // ...and rewritten by the SGD update under a bumped
                // version. The pre-flight swept if any would exhaust.
                for w in self.weights.clone() {
                    let v = self.bump_or_sweep(w.id, &mut swept)?;
                    let seed = state_seed(&state) ^ (u64::from(w.id) << 32) ^ s;
                    let bytes = rng_bytes(SplitMix64::new(seed), w.bytes);
                    self.cpu.write_tensor(&mut self.mem, w.addr, v, &bytes);
                    blocks_written += w.bytes.div_ceil(BLOCK_SIZE as u64);
                }
            }
        }
        self.cursor += 1;
        Ok(StepTrace {
            step: s,
            blocks_read,
            blocks_written,
            grew_cache,
            swept,
        })
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::RetryPolicy;
    use crate::version::{VersionError, ENTRY_BYTES};
    use proptest::prelude::*;
    use tnpu_memprot::functional::build_functional;
    use tnpu_memprot::{build_engine, ProtectionConfig, ProtectionEngine, SchemeKind};
    use tnpu_models::registry;
    use tnpu_npu::alloc::ModelLayout;
    use tnpu_npu::config::NpuConfig;
    use tnpu_sim::Addr;

    fn decode_session() -> SteppedSession {
        let model = registry::model("decode").expect("registered");
        SteppedSession::new(&model, Key128::derive(b"stepped-decode"), 11)
    }

    fn train_session() -> SteppedSession {
        let model = registry::model("train").expect("registered");
        SteppedSession::new(&model, Key128::derive(b"stepped-train"), 13)
    }

    fn treeless_engine() -> Box<dyn ProtectionEngine> {
        build_engine(SchemeKind::Treeless, &ProtectionConfig::paper_default())
    }

    #[test]
    fn decode_detects_kind_and_capacity() {
        let s = decode_session();
        assert_eq!(s.kind(), SteppedKind::Decode);
        assert_eq!(
            s.capacity(),
            tnpu_models::defs::dynamic::DECODE_CTX,
            "every cache holds exactly the context length"
        );
        assert_eq!(train_session().kind(), SteppedKind::Train);
        assert_eq!(train_session().capacity(), u64::MAX);
    }

    #[test]
    fn decode_appends_grow_version_state_without_merging() {
        let mut s = decode_session();
        let cache = s.caches[0];
        let before = s.version_table().storage_bytes();
        let appends_per_tile = TILE_BYTES / APPEND_BYTES;
        let steps = appends_per_tile + 1; // one past the tile boundary
        let mut grew = 0;
        for i in 0..steps {
            let t = s.step().expect("clean step");
            assert_eq!(t.step, i);
            grew += u64::from(t.grew_cache);
            assert!(
                s.version_table().is_expanded(cache.id).expect("known"),
                "caches stay expanded mid-sequence"
            );
        }
        // Grew at the first append and again crossing into tile 1.
        assert_eq!(grew, 2);
        assert_eq!(s.version_table().tile_count(cache.id).expect("known"), 2);
        // The new tile is seeded at the frontier's accumulated version —
        // never below it — so stale (version, address) pairs cannot recur.
        let v0 = s.version_table().version(cache.id, 0).expect("tile 0");
        let v1 = s.version_table().version(cache.id, 1).expect("tile 1");
        assert_eq!(v0, appends_per_tile);
        assert_eq!(v1, appends_per_tile + 1);
        let after = s.version_table().storage_bytes();
        assert!(
            after >= before + 4 * ENTRY_BYTES,
            "four caches each grew a tile entry: {before} -> {after}"
        );
        s.read_output().expect("logits verify");
    }

    #[test]
    fn decode_sweep_mid_sequence_preserves_the_caches() {
        let mut s = decode_session();
        s.enable_recovery(RetryPolicy::default(), treeless_engine());
        s.set_version_limit(8);
        let mut swept = 0;
        for _ in 0..12 {
            let t = s.step().expect("recovery absorbs exhaustion");
            swept += u64::from(t.swept);
        }
        assert!(swept > 0, "12 frontier bumps must cross a limit of 8");
        assert!(s.epoch() > 0);
        let stats = s.recovery_stats().expect("recovery enabled");
        assert_eq!(stats.sweeps, swept);
        assert!(stats.sweep_cycles > 0, "sweeps are charged");
        for cache in s.caches.clone() {
            assert!(
                s.version_table().is_expanded(cache.id).expect("known"),
                "sweep preserved the mid-sequence expansion"
            );
        }
        // The sequence keeps decoding — and verifying — in the new epoch.
        s.step().expect("post-sweep step verifies");
        s.read_output().expect("post-sweep logits verify");
    }

    #[test]
    fn train_churn_exhausts_and_sweeps() {
        let mut s = train_session();
        s.enable_recovery(RetryPolicy::default(), treeless_engine());
        s.set_version_limit(3);
        let mut swept = 0;
        for _ in 0..5 {
            let t = s.step().expect("recovery absorbs weight churn");
            swept += u64::from(t.swept);
            assert!(
                t.blocks_written > t.blocks_read / 2,
                "updates rewrite weights"
            );
        }
        assert!(swept >= 1, "five weight rewrites under limit 3 must sweep");
        assert!(s.epoch() > 0);
        // Weights remain verifiable after sweeping: another iteration
        // streams them all back in.
        s.step().expect("post-sweep iteration verifies");
    }

    #[test]
    fn train_without_recovery_exhausts_hard() {
        let mut s = train_session();
        s.set_version_limit(2);
        s.step().expect("first iteration fits");
        let err = s.step().expect_err("second bump crosses the limit");
        assert!(matches!(err, RunError::Version(VersionError::Exhausted(_))));
        assert!(s.is_poisoned());
        assert!(matches!(s.step(), Err(RunError::Poisoned)));
    }

    #[test]
    fn recover_retries_the_quarantined_step() {
        let mut s = train_session();
        s.set_version_limit(2);
        s.enable_recovery(RetryPolicy::default(), treeless_engine());
        s.step().expect("first iteration");
        // Disable the limit check path by poisoning via a tamper instead:
        // flip a weight bit so the next ingest fails persistently... a
        // plain exhaustion is already covered above, so poison via resume
        // staleness: suspend, sweep, resume.
        let snap = s.suspend().expect("clean suspend");
        s.recover().expect("sweep re-establishes the epoch");
        let err = s.resume(&snap).expect_err("stale snapshot refused");
        assert!(matches!(
            err,
            RunError::Version(VersionError::StaleSnapshot { .. })
        ));
        assert!(s.is_poisoned());
        s.recover().expect("recover lifts the quarantine");
        let steps_before = s.steps_taken();
        let t = s.step().expect("the quarantined step retries");
        assert_eq!(t.step, steps_before);
    }

    #[test]
    fn epoch_sweep_preserves_expanded_tensors() {
        // Regression test for the sweep × dynamic-dataflow interaction:
        // a KV cache mid-sequence is tile-expanded at sweep time and must
        // survive the sweep with its expansion shape, per-tile
        // written/unwritten split, storage accounting, and plaintext all
        // intact — while pre-sweep snapshots turn stale. The old sweep
        // skipped expanded tensors entirely, silently dropping the cache.
        let mut s = decode_session();
        let kv = s.caches[0];
        let weight = s.weights[0];
        assert_eq!(kv.bytes, 4 * TILE_BYTES, "capacity: 4 tiles");
        let fresh_storage = s.version_table().storage_bytes();

        // Mid-sequence state: 3 tiles expanded, tiles 0/1 at version 2,
        // tile 2 at 1 (the step in flight), tile 3 not yet appended.
        s.table.expand(kv.id, 2).expect("expand");
        s.table.expand(kv.id, 3).expect("grow");
        let write_tile = |mem: &mut TreelessMemory, tile: u32, version: u64| {
            for b in 0..TILE_BYTES / BLOCK_SIZE as u64 {
                let addr = kv
                    .addr
                    .offset(u64::from(tile) * TILE_BYTES + b * BLOCK_SIZE as u64);
                mem.write_block(addr, version, [tile as u8 + 1; BLOCK_SIZE]);
            }
        };
        for tile in 0..3u32 {
            s.table.bump_tile(kv.id, tile).expect("bump");
        }
        for tile in 0..2u32 {
            s.table.bump_tile(kv.id, tile).expect("bump");
            write_tile(&mut s.mem, tile, 2);
        }
        write_tile(&mut s.mem, 2, 1);

        let storage_before = s.version_table().storage_bytes();
        let peak_before = s.version_table().peak_storage_bytes();
        let stale = s.table.snapshot(0);
        s.epoch_sweep().expect("sweep over intact state");

        assert_eq!(s.epoch(), 1);
        // The expansion shape survives: still expanded, same tile count,
        // written tiles at 1 under the new epoch, storage bytes unmoved.
        let table = s.version_table();
        assert_eq!(table.is_expanded(kv.id), Ok(true));
        assert_eq!(table.tile_count(kv.id), Ok(3));
        for tile in 0..3 {
            assert_eq!(table.version(kv.id, tile), Ok(1), "tile {tile}");
        }
        assert_eq!(table.version(weight.id, 0), Ok(1));
        assert_eq!(table.storage_bytes(), storage_before);
        assert_eq!(table.storage_bytes(), fresh_storage + 2 * ENTRY_BYTES);
        assert_eq!(table.peak_storage_bytes(), peak_before);
        // Plaintext round-trips under the new keys and versions.
        for tile in 0..3u32 {
            let addr = kv.addr.offset(u64::from(tile) * TILE_BYTES);
            let block = s
                .memory()
                .read_block(addr, 1)
                .expect("verifies in new epoch");
            assert_eq!(block, [tile as u8 + 1; BLOCK_SIZE], "tile {tile}");
        }
        // The growth path still works post-sweep: appending tile 3 seeds
        // it at the current max (1) and its first bump writes at 2.
        s.table.expand(kv.id, 4).expect("grow post-sweep");
        assert_eq!(s.table.bump_tile(kv.id, 3), Ok(2));
        // A pre-sweep snapshot is now a typed staleness refusal.
        assert_eq!(
            s.table.restore(&stale, s.epoch()),
            Err(VersionError::StaleSnapshot {
                snapshot: 0,
                current: 1
            })
        );
    }

    #[test]
    fn preemption_cycles_grow_with_the_sequence() {
        let config = NpuConfig::small_npu();
        let mut s = decode_session();
        s.step().expect("step 0");
        let early = s.preemption_cycles(&config);
        let appends_per_tile = TILE_BYTES / APPEND_BYTES;
        for _ in 0..appends_per_tile {
            s.step().expect("clean step");
        }
        let late = s.preemption_cycles(&config);
        assert!(
            late > early,
            "spilling a longer sequence's table must cost more: {early} vs {late}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Satellite of the PR-7 observation-equivalence property, on the
        /// stepped workload: a decode session preempted (suspend +
        /// resume) at step `k` emits, for every scheme, exactly the
        /// per-step outputs of an unpreempted reference session.
        #[test]
        fn preempted_decode_matches_unpreempted_reference(
            preempt_at in 0u64..4,
            seed in 0u64..1_000,
        ) {
            let model = registry::model("decode").expect("registered");
            let layout = ModelLayout::allocate(&model, Addr(0));
            let data_blocks = layout.total_bytes.div_ceil(BLOCK_SIZE as u64).max(1);
            for scheme in SchemeKind::ALL {
                let mem = build_functional(scheme, Key128::derive(b"step-ref"), data_blocks);
                let mut reference = SteppedSession::with_memory(&model, mem, seed);
                let mem = build_functional(scheme, Key128::derive(b"step-pre"), data_blocks);
                let mut preempted = SteppedSession::with_memory(&model, mem, seed);
                for s in 0..4u64 {
                    if s == preempt_at {
                        let snap = preempted.suspend().expect("boundary suspend");
                        preempted.resume(&snap).expect("fresh snapshot resumes");
                    }
                    let rt = reference.step().expect("reference step");
                    let pt = preempted.step().expect("preempted step");
                    prop_assert_eq!(&rt, &pt, "step traces diverge at {} ({:?})", s, scheme);
                    let r_out = reference.read_output().expect("reference output");
                    let p_out = preempted.read_output().expect("preempted output");
                    prop_assert_eq!(r_out, p_out, "outputs diverge at {} ({:?})", s, scheme);
                }
                prop_assert_eq!(
                    reference.version_table().storage_bytes(),
                    preempted.version_table().storage_bytes()
                );
            }
        }
    }
}
