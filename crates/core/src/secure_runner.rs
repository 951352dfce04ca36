//! Functional secure sessions (real bytes, real crypto).
//!
//! One [`Session`] type drives a context through the tree-less protection
//! exactly as the paper's software would: the CPU enclave initializes
//! tensors through the `ts_*` path, every `mvin` verifies blocks against
//! the expected version, every produced tensor is expanded into tile
//! versions, bumped per `mvout`, and merged when complete (Figs. 9/13).
//! What one step reads and writes is the session's *step program*:
//!
//! * [`Inference`] ([`SecureRunner`]) — the static pass: one step per
//!   model layer, every tensor written once per inference.
//! * [`Stepped`](crate::stepped::Stepped)
//!   ([`SteppedSession`](crate::stepped::SteppedSession)) —
//!   an autoregressive decode step or a training iteration (see
//!   [`crate::stepped`]).
//!
//! Everything else is one lifecycle shared by both programs: the version
//! table, the poison guard, recovery (bounded retry, the re-encryption
//! epoch sweep, [`Session::recover`]), suspend/resume and the read-back.
//! Tests tamper with the untrusted DRAM between steps and watch the next
//! `mvin` fail.
//!
//! Layer arithmetic is a deterministic byte-mixing function (a digest of
//! the verified inputs seeds the output bytes) — enough to carry data-flow
//! dependencies end-to-end without simulating FP math. Use small models
//! for functional runs: every byte really is encrypted and MAC'd.

use crate::cpu_access::{CpuTensorAccess, TsError};
use crate::recovery::{Recovery, RecoveryStats, RetryPolicy};
use crate::serving::Switcher;
use crate::version::{VersionError, VersionSnapshot, VersionTable};
use tnpu_crypto::sha256::Sha256;
use tnpu_crypto::Key128;
use tnpu_memprot::functional::{FunctionalMemory, IntegrityError, MismatchCause, TreelessMemory};
use tnpu_memprot::ProtectionEngine;
use tnpu_models::defs::dynamic::CACHE_MARKER;
use tnpu_models::{LayerKind, Model, ELEM_BYTES};
use tnpu_npu::alloc::{ModelLayout, TensorInfo};
use tnpu_npu::config::NpuConfig;
use tnpu_sim::rng::SplitMix64;
use tnpu_sim::{Addr, BLOCK_SIZE};

/// Tile granularity (bytes) for output production (per-tile version bump).
pub const TILE_BYTES: u64 = 16 << 10;

/// Why a secure run failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// A block failed MAC verification on `mvin`.
    Integrity(IntegrityError),
    /// Version management was misused (indicates a runner bug).
    Version(VersionError),
    /// The run already completed.
    Finished,
    /// A CPU `ts_*` access failed for a non-integrity reason.
    Cpu(TsError),
    /// An earlier call on this context failed with an integrity, version,
    /// or CPU error, quarantining it: the in-flight step may have
    /// consumed corrupted state, so every further call is refused until
    /// [`Session::recover`] re-establishes a consistent epoch.
    Poisoned,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Integrity(e) => write!(f, "integrity violation: {e}"),
            RunError::Version(e) => write!(f, "version management error: {e}"),
            RunError::Finished => write!(f, "inference already finished"),
            RunError::Cpu(e) => write!(f, "cpu tensor access failed: {e}"),
            RunError::Poisoned => {
                write!(
                    f,
                    "context is quarantined by an earlier failure (recover first)"
                )
            }
        }
    }
}

impl std::error::Error for RunError {}

impl From<IntegrityError> for RunError {
    fn from(e: IntegrityError) -> Self {
        RunError::Integrity(e)
    }
}

impl From<VersionError> for RunError {
    fn from(e: VersionError) -> Self {
        RunError::Version(e)
    }
}

/// The architectural state a preempted context saves through the
/// fully-protected region: the epoch-tagged version-table snapshot (which
/// mid-sequence carries one entry per expanded cache tile), the cursor,
/// and the seed. Produced by [`Session::suspend`], consumed by
/// [`Session::resume`].
///
/// The tensor data itself stays in protected DRAM — versioned MACs make it
/// self-authenticating, so a context switch moves only this (KB-scale)
/// state, which is exactly what the serving layer charges as
/// protected-region DMA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSnapshot {
    table: VersionSnapshot,
    cursor: u64,
    seed: u64,
}

impl SessionSnapshot {
    /// The re-encryption epoch the snapshot was taken in.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.table.epoch()
    }

    /// Version-table bytes the snapshot carries (the DMA payload of the
    /// save/restore).
    #[must_use]
    pub fn table_bytes(&self) -> u64 {
        self.table.bytes()
    }
}

/// Per-layer execution record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerTrace {
    /// Layer name.
    pub name: String,
    /// Blocks verified on the way in.
    pub blocks_read: u64,
    /// Blocks MAC'd on the way out.
    pub blocks_written: u64,
    /// Output tiles (version-bump granularity).
    pub tiles: u32,
}

/// The static inference program: each step runs one model layer, verifying
/// its inputs and weights and producing its output tensor. Cache-marked
/// weights are ordinary weights here.
#[derive(Debug, Clone, Copy)]
pub struct Inference;

/// A session running the static [`Inference`] program.
pub type SecureRunner<M = TreelessMemory> = Session<M, Inference>;

/// A functional secure context for one NPU, running step program `P`
/// ([`Inference`] or [`Stepped`](crate::stepped::Stepped)).
///
/// Generic over the [`FunctionalMemory`] the context computes on: the
/// default is the paper's tree-less scheme, and the adversary harness
/// instantiates it over every scheme to compare what each one detects.
#[derive(Debug)]
pub struct Session<M: FunctionalMemory, P> {
    pub(crate) model: Model,
    pub(crate) layout: ModelLayout,
    pub(crate) table: VersionTable,
    pub(crate) mem: M,
    pub(crate) cpu: CpuTensorAccess,
    /// Trained weights, in layer order: every non-shared weight slot, less
    /// the caches when the program keeps them apart.
    pub(crate) weights: Vec<TensorInfo>,
    /// Cache-marked weight slots, in layer order (decode only).
    pub(crate) caches: Vec<TensorInfo>,
    /// Layers run ([`Inference`]) or steps taken (stepped programs).
    pub(crate) cursor: u64,
    /// The cursor value at which the program is finished.
    pub(crate) capacity: u64,
    /// Input seed of the current inference, or the stepped session seed.
    pub(crate) seed: u64,
    /// Retry/sweep machinery; `None` (the default) reproduces the
    /// pre-recovery behavior exactly — fail on the first bad read.
    pub(crate) recovery: Option<Recovery>,
    /// Re-encryption epoch (bumped by each sweep; 0 = initial keys).
    pub(crate) epoch: u64,
    /// Set when a call fails with anything but [`RunError::Finished`].
    pub(crate) poisoned: bool,
    pub(crate) program: P,
}

/// The tensors a context registers in a fresh version table: the input,
/// every non-shared weight slot, and every layer output. Returns the table
/// plus the weight slots in layer order, split into trained weights and —
/// if `caches_apart` — cache-marked ones ([`CACHE_MARKER`]).
///
/// The one place this set is decided: both session programs build on it,
/// and serving prices a fresh context's version-table spill from the table
/// it returns.
pub(crate) fn register_tensors(
    model: &Model,
    layout: &ModelLayout,
    caches_apart: bool,
) -> (VersionTable, Vec<TensorInfo>, Vec<TensorInfo>) {
    let mut table = VersionTable::new();
    let (mut weights, mut caches) = (Vec::new(), Vec::new());
    table.register(layout.input.id);
    // ModelLayout::allocate builds one weights/outputs slot per layer.
    let slots = layout.weights.iter().zip(&layout.outputs);
    for (layer, (w, out)) in model.layers.iter().zip(slots) {
        // A shared slot reuses the owner's entry, but the layer still owns
        // its *output* tensor — the guard must not skip the registration
        // below (it once did, via a `continue`, which no static-suite model
        // noticed because none of them tie weights; the dynamic decode/train
        // models do and hit `UnknownTensor`).
        if let Some(w) = w.filter(|_| layer.weights_shared_with.is_none()) {
            table.register(w.id);
            if caches_apart && layer.name.contains(CACHE_MARKER) {
                caches.push(w); // stays at version 0 until appended
            } else {
                weights.push(w);
            }
        }
        table.register(out.id);
    }
    (table, weights, caches)
}

impl<M: FunctionalMemory, P> Session<M, P> {
    /// A context over `mem` with every tensor allocated and registered
    /// (see [`register_tensors`]) and nothing written yet; the program's
    /// constructor sets the capacity and writes what it starts from.
    pub(crate) fn alloc(model: &Model, mem: M, seed: u64, caches_apart: bool, program: P) -> Self {
        let layout = ModelLayout::allocate(model, Addr(0));
        let (table, weights, caches) = register_tensors(model, &layout, caches_apart);
        Session {
            model: model.clone(),
            layout,
            table,
            mem,
            cpu: CpuTensorAccess::new(),
            weights,
            caches,
            cursor: 0,
            capacity: 0,
            seed,
            recovery: None,
            epoch: 0,
            poisoned: false,
            program,
        }
    }

    /// Initialize every trained weight through the CPU `ts_write` path
    /// with deterministic synthetic contents at version 1, handing each
    /// plaintext to `seen`.
    pub(crate) fn init_weights(&mut self, mut seen: impl FnMut(&[u8])) {
        for w in self.weights.clone() {
            // tnpu-lint: allow(panic-path) — the first bump of a freshly
            // registered entry, under the default limit.
            let v = self.table.bump(w.id).expect("registered");
            let bytes = synth_bytes(self.seed, w.id, w.bytes);
            seen(&bytes);
            self.cpu.write_tensor(&mut self.mem, w.addr, v, &bytes);
        }
    }

    /// Attach fault recovery: verified reads that fail with a *transient*
    /// signature (stalled transfer, content-cause MAC mismatch, tree
    /// mismatch) are re-fetched up to the policy's budget, each attempt
    /// charged real cycles through `engine`, and version exhaustion is
    /// consumed by a re-encryption epoch sweep instead of aborting — which
    /// for the stepped workloads is the *normal* operating mode, since
    /// churn makes exhaustion a matter of when, not if. `engine` should be
    /// the cycle-cost engine matching this context's functional scheme so
    /// recovery traffic is priced consistently.
    pub fn enable_recovery(&mut self, policy: RetryPolicy, engine: Box<dyn ProtectionEngine>) {
        self.recovery = Some(Recovery::new(policy, engine));
    }

    /// What recovery has cost so far (`None` until
    /// [`enable_recovery`](Self::enable_recovery)).
    #[must_use]
    pub fn recovery_stats(&self) -> Option<RecoveryStats> {
        self.recovery.as_ref().map(Recovery::stats)
    }

    /// Lower the version-exhaustion threshold (tests and the fault
    /// harness use this to reach the epoch sweep without 2^64 bumps).
    ///
    /// A limit of 0 is raised to 1: version 0 means "never written", so 1
    /// is the smallest limit under which a tensor can be written at all,
    /// and with a limit of at least 1 the sweep's rewrite at version 1
    /// cannot fail after the re-key. A limit of 1 still leaves the sweep no
    /// headroom — the next bump after it is exhausted again and the step
    /// aborts — so meaningful recovery needs a limit of at least 2. A
    /// decode step bumps its frontier cache tile from a value that only
    /// grows over the sequence: the expand-grow rule seeds new tiles at the
    /// current maximum so stale versions are never reused.
    pub fn set_version_limit(&mut self, limit: u64) {
        self.table.set_limit(limit.max(1));
    }

    /// Current re-encryption epoch (0 until the first sweep).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether an earlier failure has quarantined this context.
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The version table (inspection).
    #[must_use]
    pub fn version_table(&self) -> &VersionTable {
        &self.table
    }

    /// The model this context runs.
    #[must_use]
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The address map.
    #[must_use]
    pub fn layout(&self) -> &ModelLayout {
        &self.layout
    }

    /// The untrusted protected memory, read-only (the adversary's
    /// observe hook).
    #[must_use]
    pub fn memory(&self) -> &M {
        &self.mem
    }

    /// The untrusted protected memory — the attack hook for tests.
    pub fn memory_mut(&mut self) -> &mut M {
        &mut self.mem
    }

    /// Whether the program has run to its end: every layer of the
    /// inference, or a decode session's KV capacity.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.cursor >= self.capacity
    }

    /// Cycles a preemption of this context costs *right now* — one spill
    /// plus one restore of the live version table through the serving
    /// layer's context-switch cost model. Mid-sequence the table carries
    /// one entry per expanded cache tile, so the price of preempting a
    /// decode session grows with its position in the sequence (the
    /// under-billing the static per-model estimate used to hide).
    #[must_use]
    pub fn preemption_cycles(&self, config: &NpuConfig) -> u64 {
        let mut switcher = Switcher::new(self.mem.scheme(), config);
        let vt_bytes = self.table.storage_bytes();
        switcher.charge(vt_bytes, true) + switcher.charge(vt_bytes, false)
    }

    /// Run a fallible call behind the poison guard: refused while the
    /// context is quarantined, and any error except [`RunError::Finished`]
    /// quarantines it.
    pub(crate) fn guarded<T>(
        &mut self,
        call: impl FnOnce(&mut Self) -> Result<T, RunError>,
    ) -> Result<T, RunError> {
        if self.poisoned {
            return Err(RunError::Poisoned);
        }
        let r = call(self);
        if r.as_ref().is_err_and(|e| *e != RunError::Finished) {
            self.poisoned = true;
        }
        r
    }

    /// The last layer's output slot: the inference result, or the stepped
    /// session's logits/loss.
    pub(crate) fn output(&self) -> TensorInfo {
        // tnpu-lint: allow(panic-path) — Model construction rejects empty
        // layer lists, so `outputs` is never empty.
        *self.layout.outputs.last().expect("models have layers")
    }

    /// One verified read with the recovery retry budget. Without recovery
    /// this is exactly `mem.read_block` — the first result, pass or fail.
    /// With recovery, errors whose cause a re-fetch can plausibly clear (a
    /// stalled transfer, a content-cause MAC mismatch from transient bus
    /// corruption, a glitched counter fetch) are retried up to the budget,
    /// each attempt charged real cycles. Version- and address-cause
    /// mismatches are *semantic* — replayed or relocated ciphertext that
    /// re-reading the same state cannot fix — and escalate immediately, so
    /// retries never launder a replay into a recovery.
    pub(crate) fn verified_read(
        &mut self,
        addr: Addr,
        version: u64,
    ) -> Result<[u8; BLOCK_SIZE], IntegrityError> {
        let first = self.mem.read_block(addr, version);
        let Some(rec) = self.recovery.as_mut() else {
            return first;
        };
        let mut last = match first {
            Ok(data) => return Ok(data),
            Err(e) => e,
        };
        for attempt in 0..rec.policy.max_retries {
            if !retryable(&last) {
                break;
            }
            rec.charge_retry(addr, version, attempt);
            match self.mem.read_block(addr, version) {
                Ok(data) => {
                    rec.note_recovered();
                    return Ok(data);
                }
                Err(e) => last = e,
            }
        }
        rec.note_escalated();
        Err(last)
    }

    /// Bump a single-entry tensor, consuming exhaustion with an epoch
    /// sweep when recovery is enabled (the reactive path behind the
    /// pre-flight sweeps).
    pub(crate) fn bump_or_sweep(&mut self, id: u32, swept: &mut bool) -> Result<u64, RunError> {
        match self.table.bump(id) {
            Err(VersionError::Exhausted(_)) if self.recovery.is_some() => {
                self.epoch_sweep()?;
                *swept = true;
                Ok(self.table.bump(id)?)
            }
            r => Ok(r?),
        }
    }

    /// Rewrite the input tensor with synthetic contents drawn from `seed`
    /// under a bumped version; returns whether the bump swept.
    pub(crate) fn write_input(&mut self, seed: u64) -> Result<bool, RunError> {
        let input = self.layout.input;
        let mut swept = false;
        let version = self.bump_or_sweep(input.id, &mut swept)?;
        let bytes = synth_bytes(seed, input.id, input.bytes);
        self.cpu
            .write_tensor(&mut self.mem, input.addr, version, &bytes);
        Ok(swept)
    }

    /// Verify + read one whole tensor (every block, under its current
    /// version), feeding the digest.
    pub(crate) fn ingest_tensor(
        &mut self,
        digest: &mut Sha256,
        info: TensorInfo,
    ) -> Result<u64, RunError> {
        let version = self.table.version(info.id, 0)?;
        let blocks = info.bytes.div_ceil(BLOCK_SIZE as u64);
        for b in 0..blocks {
            let data = self.verified_read(info.addr.offset(b * BLOCK_SIZE as u64), version)?;
            digest.update(&data);
        }
        Ok(blocks)
    }

    /// Whether producing `out` would push its version past the limit.
    pub(crate) fn output_would_exhaust(&self, out: TensorInfo) -> Result<bool, RunError> {
        Ok(
            !self.table.is_expanded(out.id)?
                && self.table.version(out.id, 0)? >= self.table.limit(),
        )
    }

    /// The mvout phase: produce `out` from a step digest tile by tile —
    /// expand, bump each tile's version, write, then merge. Returns the
    /// tile count and the blocks written.
    pub(crate) fn produce_output(
        &mut self,
        out: TensorInfo,
        state: &[u8; 32],
    ) -> Result<(u32, u64), RunError> {
        // Refuse before expanding: a failed step must leave the tensor
        // merged, or the retry after `recover` could never expand it again.
        if self.output_would_exhaust(out)? {
            return Err(VersionError::Exhausted(out.id).into());
        }
        let tiles = out.bytes.div_ceil(TILE_BYTES).max(1) as u32;
        self.table.expand(out.id, tiles)?;
        let mut blocks_written = 0;
        for tile in 0..tiles {
            let version = self.table.bump_tile(out.id, tile)?;
            let tile_base = u64::from(tile) * TILE_BYTES;
            let tile_len = TILE_BYTES.min(out.bytes - tile_base);
            let mut rng = SplitMix64::new(state_seed(state) ^ u64::from(tile));
            let mut off = 0;
            while off < tile_len {
                let mut block = [0u8; BLOCK_SIZE];
                for chunk in block.chunks_exact_mut(8) {
                    chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
                }
                self.mem
                    .write_block(out.addr.offset(tile_base + off), version, block);
                blocks_written += 1;
                off += BLOCK_SIZE as u64;
            }
        }
        self.table.merge(out.id)?;
        Ok((tiles, blocks_written))
    }

    /// Read the output back on the CPU side (post-processing, Fig. 3),
    /// verifying it: the inference result, or the stepped session's
    /// logits/loss surrogate.
    ///
    /// # Errors
    ///
    /// [`RunError::Integrity`] if the output fails verification;
    /// [`RunError::Poisoned`] if the context is quarantined.
    pub fn read_output(&mut self) -> Result<Vec<u8>, RunError> {
        self.guarded(|s| s.read_output_inner())
    }

    fn read_output_inner(&mut self) -> Result<Vec<u8>, RunError> {
        let last = self.output();
        let version = self.table.version(last.id, 0)?;
        if self.recovery.is_none() {
            return self
                .cpu
                .read_tensor(&self.mem, last.addr, version, last.bytes as usize)
                .map_err(|e| match e {
                    TsError::Integrity(err) => RunError::Integrity(err),
                    other => RunError::Cpu(other),
                });
        }
        // Recovery-aware read-back: the same blocks as the `ts_*` path
        // (sequential, truncated to the tensor length), but each fetch
        // gets the retry budget.
        let blocks = last.bytes.div_ceil(BLOCK_SIZE as u64);
        let mut out = Vec::with_capacity(last.bytes as usize);
        for b in 0..blocks {
            let data = self.verified_read(last.addr.offset(b * BLOCK_SIZE as u64), version)?;
            out.extend_from_slice(&data);
        }
        out.truncate(last.bytes as usize);
        Ok(out)
    }

    /// Every tensor the epoch sweep must preserve, in sweep order: the
    /// input, the trained weights, the caches, and every layer output.
    fn live_tensors(&self) -> Vec<TensorInfo> {
        let mut out = vec![self.layout.input];
        out.extend(self.weights.iter().copied());
        out.extend(self.caches.iter().copied());
        out.extend(self.layout.outputs.iter().copied());
        out
    }

    /// Re-encryption epoch sweep, consumed on version exhaustion
    /// (`VersionError::Exhausted`): verify and capture every live tensor,
    /// rotate the memory's keys to a fresh epoch, reset every version to
    /// 0, and rewrite the captured contents under version 1 of the new
    /// epoch. Reusing the low version numbers is sound *only* because the
    /// re-key kills every MAC bound under the old epoch. Never-written
    /// tensors (version 0) are skipped. Mid-production (tile-expanded)
    /// tensors — a KV cache mid-sequence stays expanded for the whole
    /// decode — are preserved tile by tile: each written tile is captured
    /// under its own version, and after the re-key the entry is
    /// re-expanded to the same tile count with written tiles rewritten at
    /// version 1 and never-written tiles left at 0, so the producer sees
    /// the same expansion shape in the new epoch. Tile geometry is
    /// [`TILE_BYTES`], matching both the layer producer and the KV-append
    /// path. With recovery enabled, the full DMA + crypto cost of the
    /// sweep is charged to `sweep_cycles`.
    ///
    /// # Errors
    ///
    /// [`RunError::Integrity`] if a live block fails verification even
    /// after retries (persistent tampering). The failure is reported from
    /// the capture phase, *before* any key or version mutates.
    pub(crate) fn epoch_sweep(&mut self) -> Result<(), RunError> {
        // Per tensor: its expansion tile count (`None` for a single
        // entry) and each written span as (tile, captured blocks).
        type Spans = Vec<(u32, Vec<[u8; BLOCK_SIZE]>)>;
        let mut saved: Vec<(TensorInfo, Option<u32>, Spans)> = Vec::new();
        for t in self.live_tensors() {
            let count = if self.table.is_expanded(t.id)? {
                Some(self.table.tile_count(t.id)?)
            } else {
                None
            };
            let mut spans = Vec::new();
            for tile in 0..count.unwrap_or(1) {
                let base = u64::from(tile) * TILE_BYTES;
                if base >= t.bytes && count.is_some() {
                    break; // expansion past the allocation holds no data
                }
                let version = self.table.version(t.id, tile)?;
                if version == 0 {
                    continue; // never written: nothing to capture
                }
                let len = count.map_or(t.bytes, |_| TILE_BYTES.min(t.bytes - base));
                let blocks = len.div_ceil(BLOCK_SIZE as u64);
                let mut data = Vec::with_capacity(blocks as usize);
                for b in 0..blocks {
                    let addr = t.addr.offset(base + b * BLOCK_SIZE as u64);
                    data.push(self.verified_read(addr, version)?);
                    if let Some(rec) = self.recovery.as_mut() {
                        rec.charge_sweep_read(addr, version);
                    }
                }
                spans.push((tile, data));
            }
            saved.push((t, count, spans));
        }
        self.epoch = self.epoch.wrapping_add(1);
        self.mem.rekey(self.epoch);
        self.table.reset_epoch();
        // Single-entry tensors are rewritten before expanded ones (a stable
        // sort keeps each group in live order): the recovery engine's
        // caches price the sweep in exactly this access order.
        saved.sort_by_key(|(_, count, _)| count.is_some());
        for (t, count, spans) in saved {
            if let Some(count) = count {
                // reset_epoch collapsed the entry to Single(0); restore
                // the expansion shape before rewriting its tiles.
                self.table.expand(t.id, count)?;
            }
            for (tile, data) in spans {
                // 0 -> 1 under the new epoch.
                let version = match count {
                    Some(_) => self.table.bump_tile(t.id, tile)?,
                    None => self.table.bump(t.id)?,
                };
                let base = u64::from(tile) * TILE_BYTES;
                for (b, block) in (0u64..).zip(data) {
                    let addr = t.addr.offset(base + b * BLOCK_SIZE as u64);
                    self.mem.write_block(addr, version, block);
                    if let Some(rec) = self.recovery.as_mut() {
                        rec.charge_sweep_write(addr, version);
                    }
                }
            }
        }
        if let Some(rec) = self.recovery.as_mut() {
            rec.note_sweep();
        }
        Ok(())
    }

    /// Lift the quarantine after a failure: run an epoch sweep to
    /// re-establish a consistent state (fresh keys, versions reset, every
    /// intact tensor re-encrypted). The cursor is kept, so the quarantined
    /// layer or step is retried in the new epoch: every write a step makes
    /// covers a whole tensor or tile under one version, so whatever the
    /// failure interrupted, the sweep re-captures a uniformly consistent
    /// state — mid-sequence KV expansion included. If the memory still
    /// holds state that fails verification even after retries — a
    /// persistent fault or a real attack — the sweep reports it and the
    /// context *stays* poisoned.
    ///
    /// # Errors
    ///
    /// Propagates the sweep's [`RunError::Integrity`] on persistent
    /// tampering.
    pub fn recover(&mut self) -> Result<(), RunError> {
        self.epoch_sweep()?;
        self.poisoned = false;
        Ok(())
    }

    /// Suspend the context at a step boundary for a context switch:
    /// capture the epoch-tagged version-table snapshot plus the cursor and
    /// seed. The tensor data stays in protected DRAM (self-authenticating
    /// under the versioned MACs); only this snapshot leaves the NPU.
    ///
    /// # Errors
    ///
    /// [`RunError::Poisoned`] if the context is quarantined — a poisoned
    /// context must not smuggle its state past the quarantine via a
    /// suspend/resume cycle.
    pub fn suspend(&self) -> Result<SessionSnapshot, RunError> {
        if self.poisoned {
            return Err(RunError::Poisoned);
        }
        Ok(SessionSnapshot {
            table: self.table.snapshot(self.epoch),
            cursor: self.cursor,
            seed: self.seed,
        })
    }

    /// Resume from a [`suspend`](Self::suspend) snapshot. The context
    /// keeps its table, cursor and seed while it is parked, so the only
    /// snapshot it accepts is the one `suspend` would return now.
    ///
    /// # Errors
    ///
    /// [`RunError::Version`] with [`VersionError::StaleSnapshot`] if an
    /// epoch sweep ran while the context was suspended — restoring
    /// pre-sweep versions under post-sweep keys is the replay hazard the
    /// epoch tag closes — or with [`VersionError::SnapshotMismatch`] if
    /// the snapshot is from this epoch but differs from the live state (an
    /// older snapshot of this context, or another context's): rewinding
    /// versions under unchanged keys would let a rewrite repeat a version,
    /// so a replayed block would verify. Either refusal leaves the table
    /// untouched and quarantines the context (an attempted rollback,
    /// whether bug or attack, leaves its scheduling state untrustworthy).
    /// [`RunError::Poisoned`] if already quarantined.
    pub fn resume(&mut self, snapshot: &SessionSnapshot) -> Result<(), RunError> {
        self.guarded(|s| {
            if snapshot.epoch() == s.epoch && *snapshot != s.suspend()? {
                return Err(VersionError::SnapshotMismatch.into());
            }
            // Refuses an earlier epoch's snapshot; an accepted one equals
            // the live table, cursor and seed.
            s.table.restore(&snapshot.table, s.epoch)?;
            Ok(())
        })
    }
}

impl Session<TreelessMemory, Inference> {
    /// Set up a tree-less context with keys derived from `master_key`.
    #[must_use]
    pub fn new(model: &Model, master_key: Key128, seed: u64) -> Self {
        Self::with_memory(model, TreelessMemory::new(master_key), seed)
    }
}

impl<M: FunctionalMemory> Session<M, Inference> {
    /// Set up the context over an existing memory: allocate tensors,
    /// register them in the version table, and initialize the input and
    /// every weight tensor through the CPU `ts_write` path with
    /// deterministic synthetic contents.
    #[must_use]
    pub fn with_memory(model: &Model, mem: M, seed: u64) -> Self {
        let mut s = Session::alloc(model, mem, seed, false, Inference);
        s.capacity = model.layers.len() as u64;
        // tnpu-lint: allow(panic-path) — the first bump of a freshly
        // registered entry, under the default limit, without recovery.
        s.write_input(seed).expect("registered");
        s.init_weights(|_| {});
        s
    }

    /// Start the next inference in the same context: rewrite the input
    /// tensor with fresh synthetic contents under a bumped version and
    /// rewind the layer cursor. Weights stay as initialized; output
    /// tensors keep their version history and are bumped again as the new
    /// pass produces them — the steady-state reuse pattern whose replay
    /// window the version numbers close. The seed and cursor move only
    /// once the input is written, so a failed start leaves the previous
    /// pass finished under its own seed.
    ///
    /// # Errors
    ///
    /// [`RunError::Version`] if the input version counter is exhausted
    /// (with recovery enabled, exhaustion is consumed by an epoch sweep
    /// instead); [`RunError::Poisoned`] if the context is quarantined.
    pub fn next_inference(&mut self, input_seed: u64) -> Result<(), RunError> {
        self.guarded(|s| {
            s.write_input(input_seed)?;
            s.seed = input_seed;
            s.cursor = 0;
            Ok(())
        })
    }

    /// Gather `seq` rows from an embedding table (only the touched blocks
    /// are verified — the fine-grained access of §III-B).
    fn ingest_gathers(
        &mut self,
        digest: &mut Sha256,
        table_info: TensorInfo,
        vocab: u64,
        dim: u64,
        seq: u64,
    ) -> Result<u64, RunError> {
        let version = self.table.version(table_info.id, 0)?;
        let row_bytes = dim * ELEM_BYTES;
        let mut rng = SplitMix64::new(self.seed ^ table_info.id as u64);
        let mut blocks = 0;
        for _ in 0..seq {
            let row = rng.next_below(vocab);
            let start = table_info.addr.offset(row * row_bytes);
            for b in tnpu_sim::blocks_covering(start, row_bytes) {
                digest.update(&self.verified_read(b.base(), version)?);
                blocks += 1;
            }
        }
        Ok(blocks)
    }

    /// Execute the next layer; returns its trace.
    ///
    /// # Errors
    ///
    /// [`RunError::Integrity`] when a verified read fails (tampering /
    /// replay detected); [`RunError::Finished`] when no layers remain;
    /// [`RunError::Poisoned`] if the context is quarantined.
    pub fn step(&mut self) -> Result<LayerTrace, RunError> {
        self.guarded(|s| s.step_layer())
    }

    fn step_layer(&mut self) -> Result<LayerTrace, RunError> {
        let li = self.cursor as usize;
        let layer = self.model.layers.get(li).ok_or(RunError::Finished)?.clone();
        // tnpu-lint: allow(panic-path) — layout slots are per-layer and
        // `li` came from layers.get above.
        let (out, weights) = (self.layout.outputs[li], self.layout.weights[li]);

        // Pre-flight with recovery enabled: if this layer's output tiles
        // would exhaust their versions mid-layer, sweep *now*. A sweep in
        // the middle of the tile loop would be unsound — half the tensor
        // written under each epoch.
        if self.recovery.is_some() && self.output_would_exhaust(out)? {
            self.epoch_sweep()?;
        }
        let mut digest = Sha256::new();
        digest.update(layer.name.as_bytes());
        let mut blocks_read = 0;

        // mvin phase: verify every input under its expected version.
        match layer.kind {
            LayerKind::Embedding { vocab, dim, seq } => {
                // tnpu-lint: allow(panic-path) — layout allocation gives
                // every embedding layer a weight slot.
                let table = weights.expect("embedding table");
                blocks_read += self.ingest_gathers(&mut digest, table, vocab, dim, seq)?;
            }
            _ => {
                for src in &layer.inputs {
                    blocks_read += self.ingest_tensor(&mut digest, self.layout.source(*src))?;
                }
                if let Some(w) = weights {
                    blocks_read += self.ingest_tensor(&mut digest, w)?;
                }
            }
        }

        // Compute + mvout phase.
        let (tiles, blocks_written) = self.produce_output(out, &digest.finalize())?;
        self.cursor += 1;
        Ok(LayerTrace {
            name: layer.name,
            blocks_read,
            blocks_written,
            tiles,
        })
    }

    /// Run all remaining layers.
    ///
    /// # Errors
    ///
    /// Propagates the first [`RunError`]; [`RunError::Poisoned`] if the
    /// context is quarantined, even with no layers left.
    pub fn run(&mut self) -> Result<Vec<LayerTrace>, RunError> {
        self.guarded(|s| {
            let mut traces = Vec::new();
            while !s.is_finished() {
                traces.push(s.step_layer()?);
            }
            Ok(traces)
        })
    }
}

/// Whether a re-fetch has any chance of clearing this error.
fn retryable(e: &IntegrityError) -> bool {
    match e {
        // Transient signatures: a dropped/stalled transfer or flipped bits
        // may read back clean on the next attempt.
        IntegrityError::Stalled { .. } | IntegrityError::TreeMismatch { .. } => true,
        IntegrityError::MacMismatch { cause, .. } => matches!(cause, MismatchCause::Content),
        // Reading a never-written block is an addressing bug in the
        // runner, not a fault: every retry re-reads the same hole.
        IntegrityError::NotWritten { .. } => false,
    }
}

/// Whether [`Session::recover`]'s re-encryption epoch sweep can lift the
/// failure that quarantined a context.
///
/// Integrity failures are sweep-clearable (re-verify, re-key, retry the
/// quarantined step), as are the version states a sweep resets —
/// exhaustion and a refused stale or mismatched snapshot.
/// Version-management *misuse* and CPU access errors indicate runner
/// bugs: sweeping would mask the defect, so callers should leave the
/// quarantine in place and surface the error.
#[must_use]
pub fn sweep_clearable(e: &RunError) -> bool {
    match e {
        RunError::Integrity(_) => true,
        RunError::Version(v) => match v {
            // The sweep resets every version under fresh keys. A refused
            // resume left the live state intact, and after the re-key no
            // earlier snapshot can resume: every one of them is stale.
            VersionError::Exhausted(_)
            | VersionError::StaleSnapshot { .. }
            | VersionError::SnapshotMismatch => true,
            // Misuse of the version table: a sweep cannot fix the runner.
            VersionError::UnknownTensor(_)
            | VersionError::NoSuchTile { .. }
            | VersionError::TilesNotUniform(_)
            | VersionError::AlreadyExpanded(_)
            | VersionError::NotExpanded(_) => false,
        },
        RunError::Finished | RunError::Cpu(_) | RunError::Poisoned => false,
    }
}

/// Deterministic synthetic tensor contents.
pub(crate) fn synth_bytes(seed: u64, tensor: u32, len: u64) -> Vec<u8> {
    rng_bytes(
        SplitMix64::new(seed.wrapping_add(u64::from(tensor) << 32)),
        len,
    )
}

/// `len` bytes drawn from `rng`, eight at a time.
pub(crate) fn rng_bytes(mut rng: SplitMix64, len: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(len as usize);
    while (out.len() as u64) < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len as usize);
    out
}

/// The first eight digest bytes as a little-endian RNG seed.
pub(crate) fn state_seed(state: &[u8; 32]) -> u64 {
    let mut seed = [0u8; 8];
    // tnpu-lint: allow(panic-path) — `[..8]` of a `[u8; 32]` parameter.
    seed.copy_from_slice(&state[..8]);
    u64::from_le_bytes(seed)
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::stepped::SteppedSession;
    use tnpu_models::registry;

    fn runner(name: &str) -> SecureRunner {
        let model = registry::model(name).expect("registered");
        SecureRunner::new(&model, Key128::derive(b"runner"), 7)
    }

    #[test]
    fn deepface_runs_end_to_end() {
        let mut r = runner("df");
        let traces = r.run().expect("clean run verifies");
        assert_eq!(traces.len(), 6);
        assert!(traces.iter().all(|t| t.blocks_read > 0));
        let out = r.read_output().expect("output verifies");
        assert!(!out.is_empty());
    }

    #[test]
    fn runs_are_deterministic() {
        let mut a = runner("agz");
        let mut b = runner("agz");
        a.run().expect("ok");
        b.run().expect("ok");
        assert_eq!(a.read_output().expect("ok"), b.read_output().expect("ok"));
    }

    #[test]
    fn different_inputs_change_output() {
        let model = registry::model("agz").expect("registered");
        let mut a = SecureRunner::new(&model, Key128::derive(b"k"), 1);
        let mut b = SecureRunner::new(&model, Key128::derive(b"k"), 2);
        a.run().expect("ok");
        b.run().expect("ok");
        assert_ne!(a.read_output().expect("ok"), b.read_output().expect("ok"));
    }

    #[test]
    fn tampering_between_layers_detected() {
        let mut r = runner("df");
        r.step().expect("layer 0 clean");
        // Physical attacker flips a bit in layer 0's output ciphertext.
        let victim = r.layout().outputs[0].addr;
        r.memory_mut()
            .dram_mut()
            .block_mut(victim)
            .expect("written")[3] ^= 0x40;
        match r.step() {
            Err(RunError::Integrity(_)) => {}
            other => panic!("tampering must be detected, got {other:?}"),
        }
    }

    #[test]
    fn replay_between_layers_detected() {
        // Snapshot a weight tensor block at its current (valid) state,
        // let the victim overwrite it, then restore the stale state.
        let model = registry::model("df").expect("registered");
        let mut r = SecureRunner::new(&model, Key128::derive(b"k"), 1);
        let weight = r.layout().weights[0].expect("conv has weights");
        let snap = r.memory_mut().snapshot(weight.addr).expect("written");
        // The enclave re-initializes the weights (version bumps to 2)...
        // simulated by writing under a bumped version through the table.
        {
            let mem = r.memory_mut();
            mem.write_block(weight.addr, 2, [9u8; 64]);
        }
        r.table.bump(weight.id).expect("bump to 2");
        // ...attacker replays the old (valid-at-version-1) snapshot.
        r.memory_mut().restore(weight.addr, snap);
        match r.step() {
            Err(RunError::Integrity(_)) => {}
            other => panic!("replay must be detected, got {other:?}"),
        }
    }

    #[test]
    fn version_table_peaks_match_paper_scale() {
        // §IV-D: version storage is KB-scale (avg 1.3 KB, max 7.5 KB).
        let mut r = runner("df");
        r.run().expect("ok");
        let peak = r.version_table().peak_storage_bytes();
        assert!(peak > 0);
        assert!(peak < 64 << 10, "peak {peak} B should be KB-scale");
    }

    #[test]
    fn embedding_model_verifies_gathers() {
        let mut r = runner("ncf");
        let traces = r.run().expect("clean run");
        // The two embedding layers must read gathered blocks.
        assert!(traces[0].blocks_read >= 512);
        r.read_output().expect("output verifies");
    }

    // ---- poisoning / quarantine semantics ----

    #[test]
    fn failed_step_poisons_the_context() {
        let mut r = runner("df");
        r.step().expect("layer 0 clean");
        let victim = r.layout().outputs[0].addr;
        r.memory_mut()
            .dram_mut()
            .block_mut(victim)
            .expect("written")[0] ^= 1;
        assert!(matches!(r.step(), Err(RunError::Integrity(_))));
        assert!(r.is_poisoned());
        // Every further call is refused until the context recovers.
        assert!(matches!(r.step(), Err(RunError::Poisoned)));
        assert!(matches!(r.next_inference(9), Err(RunError::Poisoned)));
        assert!(matches!(r.read_output(), Err(RunError::Poisoned)));
        assert!(matches!(r.run(), Err(RunError::Poisoned)));
    }

    #[test]
    fn finished_is_not_poisonous() {
        let mut r = runner("df");
        r.run().expect("clean run");
        assert!(matches!(r.step(), Err(RunError::Finished)));
        assert!(!r.is_poisoned(), "Finished is a state, not a failure");
        r.read_output().expect("context still usable");
        r.next_inference(9).expect("next pass starts");
    }

    #[test]
    fn poisoned_error_displays() {
        assert!(RunError::Poisoned.to_string().contains("quarantined"));
        let cpu = RunError::Cpu(crate::cpu_access::TsError::ReadBufferEmpty);
        assert!(cpu.to_string().contains("cpu"));
    }

    // ---- suspend / resume (context switches) ----

    #[test]
    fn suspend_resume_at_a_layer_boundary_is_transparent() {
        let mut straight = runner("df");
        straight.run().expect("ok");
        let want = straight.read_output().expect("ok");

        let mut r = runner("df");
        r.step().expect("layer 0");
        r.step().expect("layer 1");
        let snap = r.suspend().expect("suspend at boundary");
        assert!(snap.table_bytes() > 0, "snapshot carries the table");
        assert_eq!(snap.epoch(), 0);
        // The scheduler parks the context; later it restores the state.
        r.resume(&snap).expect("resume");
        r.run().expect("finishes");
        assert_eq!(r.read_output().expect("ok"), want);
    }

    #[test]
    fn stale_snapshot_resume_is_refused_and_quarantines() {
        // Regression test for the sweep/preemption hazard: a context
        // suspended before an epoch sweep must not restore pre-sweep
        // versions. Pre-fix (snapshots without epoch tags) the restore
        // silently rewound the table into the new epoch.
        let mut r = runner("df");
        r.enable_recovery(RetryPolicy::default(), treeless_engine());
        r.step().expect("layer 0");
        let snap = r.suspend().expect("suspend");
        // An epoch sweep runs while the context is parked (recover() is
        // the public path that always sweeps).
        r.recover().expect("sweep over clean state");
        assert_eq!(r.epoch(), 1);
        assert!(matches!(
            r.resume(&snap),
            Err(RunError::Version(VersionError::StaleSnapshot {
                snapshot: 0,
                current: 1
            }))
        ));
        assert!(r.is_poisoned(), "attempted rollback quarantines");
        // A fresh same-epoch snapshot round-trips after recovery.
        r.recover().expect("recover again");
        let fresh = r.suspend().expect("suspend");
        r.resume(&fresh).expect("same-epoch resume");
    }

    #[test]
    fn same_epoch_snapshots_that_differ_from_the_live_state_are_refused() {
        // Regression test: resume once accepted any snapshot of the current
        // epoch. Resuming the snapshot taken after pass 1, once pass 2 had
        // run, rewound the input's version, so the next inference rewrote
        // the input under version 2 a second time: the pass-2 input block,
        // captured and replayed, verified, and the run completed with a
        // wrong output. Another model's fresh snapshot rewound the cursor.
        let mut r = runner("df");
        r.run().expect("pass 1");
        let old = r.suspend().expect("suspend after pass 1");
        r.next_inference(2).expect("pass 2 input");
        r.run().expect("pass 2");
        let live = r.version_table().snapshot(r.epoch());
        assert_eq!(old.epoch(), r.epoch(), "no sweep ran");
        assert_eq!(
            r.resume(&old),
            Err(RunError::Version(VersionError::SnapshotMismatch))
        );
        assert!(r.is_poisoned(), "attempted rollback quarantines");
        assert_eq!(
            r.version_table().snapshot(r.epoch()),
            live,
            "table untouched"
        );
        r.recover().expect("sweep over clean state");
        // The re-key made every earlier snapshot stale.
        assert!(matches!(
            r.resume(&old),
            Err(RunError::Version(VersionError::StaleSnapshot { .. }))
        ));
        r.recover().expect("recover again");

        let mut other = runner("ncf");
        other.recover().expect("sweep over clean state");
        other.recover().expect("and again");
        let foreign = other.suspend().expect("fresh");
        assert_eq!(foreign.epoch(), r.epoch(), "same epoch, other model");
        let live = r.version_table().snapshot(r.epoch());
        assert_eq!(
            r.resume(&foreign),
            Err(RunError::Version(VersionError::SnapshotMismatch))
        );
        assert_eq!(
            r.version_table().snapshot(r.epoch()),
            live,
            "table untouched"
        );

        // Once recovered, the context computes what a fresh one does.
        r.recover().expect("recover");
        r.next_inference(3).expect("pass 3 input");
        r.run().expect("pass 3");
        let mut fresh = runner("df");
        fresh.next_inference(3).expect("input");
        fresh.run().expect("run");
        assert_eq!(
            r.read_output().expect("verifies"),
            fresh.read_output().expect("verifies")
        );
    }

    #[test]
    fn poisoned_context_cannot_suspend() {
        let mut r = runner("df");
        r.step().expect("layer 0");
        let victim = r.layout().outputs[0].addr;
        r.memory_mut()
            .dram_mut()
            .block_mut(victim)
            .expect("written")[0] ^= 1;
        assert!(matches!(r.step(), Err(RunError::Integrity(_))));
        assert!(matches!(r.suspend(), Err(RunError::Poisoned)));
    }

    // ---- recovery: retry + epoch sweep ----

    use crate::recovery::{RecoveryStats, RetryPolicy};
    use tnpu_memprot::faults::{FaultKind, FaultyMemory};
    use tnpu_memprot::{build_engine, ProtectionConfig, SchemeKind};

    fn treeless_engine() -> Box<dyn tnpu_memprot::ProtectionEngine> {
        build_engine(SchemeKind::Treeless, &ProtectionConfig::paper_default())
    }

    #[test]
    fn clean_run_with_recovery_costs_nothing_and_matches() {
        let mut plain = runner("df");
        plain.run().expect("ok");
        let want = plain.read_output().expect("ok");

        let mut r = runner("df");
        r.enable_recovery(RetryPolicy::default(), treeless_engine());
        r.run().expect("ok");
        assert_eq!(r.read_output().expect("ok"), want, "recovery is inert");
        assert_eq!(
            r.recovery_stats().expect("enabled"),
            RecoveryStats::default(),
            "no faults, no cost"
        );
        assert_eq!(r.epoch(), 0);
    }

    #[test]
    fn transient_stalls_recover_with_charged_retries() {
        let mut plain = runner("df");
        plain.run().expect("ok");
        let want = plain.read_output().expect("ok");

        let model = registry::model("df").expect("registered");
        let mem = FaultyMemory::new(
            TreelessMemory::new(Key128::derive(b"runner")),
            FaultKind::StalledTransfer,
            29,
            42,
        );
        let mut r = SecureRunner::with_memory(&model, mem, 7);
        r.enable_recovery(RetryPolicy::default(), treeless_engine());
        r.run().expect("stalls are re-issued, not fatal");
        assert_eq!(r.read_output().expect("ok"), want);
        let stats = r.recovery_stats().expect("enabled");
        assert!(r.memory().injected() > 0, "faults actually fired");
        assert!(stats.retries > 0 && stats.recovered_reads > 0);
        assert!(stats.retry_cycles > 0, "retries are never free");
        assert_eq!(stats.escalated_reads, 0);
    }

    #[test]
    fn exhaustion_is_consumed_by_an_epoch_sweep() {
        let model = registry::model("df").expect("registered");
        let mut free = SecureRunner::new(&model, Key128::derive(b"runner"), 7);
        let mut limited = SecureRunner::new(&model, Key128::derive(b"runner"), 7);
        limited.set_version_limit(2);
        limited.enable_recovery(RetryPolicy::default(), treeless_engine());
        for pass in 0..4u64 {
            if pass > 0 {
                free.next_inference(pass).expect("unbounded versions");
                limited
                    .next_inference(pass)
                    .expect("sweep absorbs exhaustion");
            }
            free.run().expect("ok");
            limited.run().expect("ok");
            assert_eq!(
                limited.read_output().expect("ok"),
                free.read_output().expect("ok"),
                "pass {pass}: sweeps must not change the computation"
            );
        }
        let stats = limited.recovery_stats().expect("enabled");
        assert!(stats.sweeps >= 1, "limit 2 over 4 passes must sweep");
        assert!(stats.sweep_blocks > 0);
        assert!(
            stats.sweep_cycles > 0,
            "sweep cost is visible in the report"
        );
        assert!(limited.epoch() >= 1);

        // Without recovery the same pressure aborts with Exhausted.
        let mut aborted = SecureRunner::new(&model, Key128::derive(b"runner"), 7);
        aborted.set_version_limit(2);
        aborted.run().expect("pass 1 fits");
        aborted.next_inference(1).expect("version 2 fits");
        aborted.run().expect("pass 2 fits");
        assert!(matches!(
            aborted.next_inference(2),
            Err(RunError::Version(VersionError::Exhausted(_)))
        ));
        assert!(aborted.is_poisoned());
    }

    #[test]
    fn persistent_tamper_escalates_and_recover_heals_only_clean_state() {
        let mut r = runner("df");
        r.enable_recovery(
            RetryPolicy {
                max_retries: 9,
                ..RetryPolicy::default()
            },
            treeless_engine(),
        );
        r.step().expect("layer 0 clean");
        let victim = r.layout().outputs[0].addr;
        r.memory_mut()
            .dram_mut()
            .block_mut(victim)
            .expect("written")[3] ^= 0x40;
        // Persistent tampering survives every retry and escalates.
        assert!(matches!(r.step(), Err(RunError::Integrity(_))));
        let stats = r.recovery_stats().expect("enabled");
        assert!(stats.retries > 0, "content-cause mismatch was retried");
        assert_eq!(stats.recovered_reads, 0, "never misclassified as transient");
        assert!(stats.escalated_reads >= 1);
        // recover() re-verifies everything: the tampered block is still
        // there, so the sweep reports it and the quarantine holds.
        assert!(matches!(r.recover(), Err(RunError::Integrity(_))));
        assert!(r.is_poisoned());
        // Undo the tamper (the fault clears): now the sweep succeeds and
        // the context is clean again.
        r.memory_mut()
            .dram_mut()
            .block_mut(victim)
            .expect("written")[3] ^= 0x40;
        r.recover().expect("sweep over intact state succeeds");
        assert!(!r.is_poisoned());
        assert!(r.epoch() >= 1, "recovery rotated to a fresh epoch");
        r.next_inference(11).expect("fresh inference starts");
        r.run().expect("runs clean after recovery");
        let healed = r.read_output().expect("verifies");

        // The post-recovery pass computes exactly what a fresh context
        // would: the sweep round-tripped every tensor byte-identically.
        let model = registry::model("df").expect("registered");
        let mut fresh = SecureRunner::new(&model, Key128::derive(b"runner"), 7);
        fresh.run().expect("ok");
        fresh.next_inference(11).expect("ok");
        fresh.run().expect("ok");
        assert_eq!(healed, fresh.read_output().expect("ok"));
    }

    // ---- the one recovery rule: recover() keeps the cursor ----

    #[test]
    fn recover_retries_the_quarantined_layer() {
        // A fault that clears before recovery: the sweep re-keys intact
        // state and the layer that failed is retried, so the same pass
        // finishes with the clean output.
        let mut clean = runner("df");
        clean.run().expect("ok");
        let want = clean.read_output().expect("ok");

        let mut r = runner("df");
        r.step().expect("layer 0 clean");
        let victim = r.layout().outputs[0].addr;
        r.memory_mut()
            .dram_mut()
            .block_mut(victim)
            .expect("written")[5] ^= 0x10;
        assert!(matches!(r.step(), Err(RunError::Integrity(_))));
        r.memory_mut()
            .dram_mut()
            .block_mut(victim)
            .expect("written")[5] ^= 0x10;
        r.recover().expect("sweep over intact state");
        assert!(!r.is_finished(), "the quarantined layer is still ahead");
        r.run().expect("the same pass finishes");
        assert_eq!(r.read_output().expect("verifies"), want);
    }

    #[test]
    fn failed_next_inference_keeps_the_finished_pass() {
        let model = registry::model("df").expect("registered");
        let mut r = SecureRunner::new(&model, Key128::derive(b"runner"), 7);
        r.set_version_limit(2);
        r.run().expect("pass 1 fits");
        r.next_inference(1).expect("input version 2 fits");
        r.run().expect("pass 2 fits");
        let pass2 = r.read_output().expect("ok");
        assert!(matches!(
            r.next_inference(2),
            Err(RunError::Version(VersionError::Exhausted(_)))
        ));
        r.recover().expect("sweep over intact state");
        // The failed start moved nothing: pass 2 stays finished, under
        // its own seed, with its output intact.
        assert!(r.is_finished());
        assert_eq!(r.seed, 1);
        assert_eq!(r.read_output().expect("verifies"), pass2);
        // The next start computes what a fresh context computes.
        r.next_inference(2).expect("the sweep made room");
        r.run().expect("pass 3");
        let mut fresh = SecureRunner::new(&model, Key128::derive(b"runner"), 7);
        fresh.run().expect("ok");
        fresh.next_inference(2).expect("ok");
        fresh.run().expect("ok");
        assert_eq!(
            r.read_output().expect("ok"),
            fresh.read_output().expect("ok")
        );
    }

    #[test]
    fn zero_version_limit_is_raised_to_one() {
        // Version 0 means "never written", so 1 is the smallest limit
        // under which a tensor can be written at all.
        let model = registry::model("df").expect("registered");
        let mut r = SecureRunner::new(&model, Key128::derive(b"runner"), 7);
        r.set_version_limit(0);
        assert_eq!(r.version_table().limit(), 1);
        r.run().expect("one pass writes each tensor once");
        r.read_output().expect("verifies");

        let model = registry::model("decode").expect("registered");
        let mut s = SteppedSession::new(&model, Key128::derive(b"stepped"), 3);
        s.set_version_limit(0);
        assert_eq!(s.version_table().limit(), 1);
        s.step().expect("the first step writes each tensor once");
        assert!(matches!(
            s.step(),
            Err(RunError::Version(VersionError::Exhausted(_)))
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::recovery::RetryPolicy;
    use crate::stepped::SteppedSession;
    use proptest::prelude::*;
    use tnpu_memprot::faults::{FaultKind, FaultyMemory};
    use tnpu_memprot::functional::UnsecureMemory;
    use tnpu_memprot::{build_engine, ProtectionConfig, SchemeKind};
    use tnpu_models::builder::ModelBuilder;
    use tnpu_models::Model;

    fn tiny() -> Model {
        ModelBuilder::new("tiny", "TinyNet", (4, 8, 8))
            .conv("c1", 8, 3, 1, 1)
            .pool("p1", 2, 2)
            .fc("fc", 16)
            .build()
    }

    fn treeless_engine() -> Box<dyn tnpu_memprot::ProtectionEngine> {
        build_engine(SchemeKind::Treeless, &ProtectionConfig::paper_default())
    }

    fn reference_output(model: &Model, seed: u64) -> Vec<u8> {
        let mut clean = SecureRunner::with_memory(model, UnsecureMemory::new(), seed);
        clean.run().expect("unprotected run cannot fail");
        clean.read_output().expect("unprotected read cannot fail")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Any transient fault process, at any rate down to 1-in-16 reads,
        /// converges to the unattacked reference output under the retry
        /// budget: transient faults cost cycles, never correctness.
        #[test]
        fn transient_faults_with_retry_converge_to_reference(
            kind_idx in 0usize..5,
            period in 16u64..64,
            fault_seed in any::<u64>(),
        ) {
            let transients: Vec<FaultKind> = FaultKind::ALL
                .into_iter()
                .filter(|k| k.is_transient())
                .collect();
            let kind = transients[kind_idx % transients.len()];
            let model = tiny();
            let want = reference_output(&model, 7);
            let mem = FaultyMemory::new(
                TreelessMemory::new(Key128::derive(b"pt-transient")),
                kind,
                period,
                fault_seed,
            );
            let mut r = SecureRunner::with_memory(&model, mem, 7);
            r.enable_recovery(
                RetryPolicy { max_retries: 8, ..RetryPolicy::default() },
                treeless_engine(),
            );
            r.run().expect("transient faults recover under retry");
            prop_assert_eq!(r.read_output().expect("verifies"), want);
            let stats = r.recovery_stats().expect("enabled");
            prop_assert_eq!(stats.recovered_reads, stats.retries.min(stats.recovered_reads));
            prop_assert_eq!(stats.escalated_reads, 0, "nothing persisted");
        }

        /// Persistent tampering is never misclassified as transient: under
        /// *any* retry budget the run fails with an integrity error, zero
        /// reads are reported recovered, and the context is quarantined.
        #[test]
        fn persistent_tamper_never_recovers_under_any_budget(
            retries in 0u32..10,
            bit in 0u16..512,
            block_pick in any::<u64>(),
        ) {
            let model = tiny();
            let mut r = SecureRunner::with_memory(
                &model,
                TreelessMemory::new(Key128::derive(b"pt-persistent")),
                7,
            );
            r.enable_recovery(
                RetryPolicy { max_retries: retries, ..RetryPolicy::default() },
                treeless_engine(),
            );
            let input = r.layout().input;
            let blocks = input.bytes.div_ceil(BLOCK_SIZE as u64).max(1);
            let addr = input.addr.offset((block_pick % blocks) * BLOCK_SIZE as u64);
            prop_assert!(r.memory_mut().tamper_bits(addr, &[bit]));
            match r.run() {
                Err(RunError::Integrity(_)) => {}
                other => prop_assert!(false, "stuck tamper must be detected, got {other:?}"),
            }
            prop_assert!(r.is_poisoned());
            let stats = r.recovery_stats().expect("enabled");
            prop_assert_eq!(stats.recovered_reads, 0, "never laundered into a recovery");
        }

        /// The re-encryption epoch sweep is invisible to the computation:
        /// under any version limit, a limited context with recovery
        /// produces byte-identical outputs to an unlimited one, pass after
        /// pass, while actually sweeping.
        #[test]
        fn epoch_sweeps_round_trip_every_pass(
            limit in 2u64..5,
            passes in 2u64..7,
            seed in any::<u64>(),
        ) {
            let model = tiny();
            let mut free = SecureRunner::with_memory(
                &model,
                TreelessMemory::new(Key128::derive(b"pt-sweep")),
                seed,
            );
            let mut limited = SecureRunner::with_memory(
                &model,
                TreelessMemory::new(Key128::derive(b"pt-sweep")),
                seed,
            );
            limited.set_version_limit(limit);
            limited.enable_recovery(RetryPolicy::default(), treeless_engine());
            for pass in 1..=passes {
                if pass > 1 {
                    free.next_inference(pass).expect("unbounded");
                    limited.next_inference(pass).expect("sweep absorbs exhaustion");
                }
                free.run().expect("ok");
                limited.run().expect("ok");
                prop_assert_eq!(
                    limited.read_output().expect("ok"),
                    free.read_output().expect("ok"),
                    "pass {} diverged", pass
                );
            }
            if passes > limit {
                let stats = limited.recovery_stats().expect("enabled");
                prop_assert!(stats.sweeps >= 1, "limit {} < passes {} must sweep", limit, passes);
                prop_assert!(stats.sweep_cycles > 0);
            }
        }

        /// Suspend→resume at any subset of layer boundaries is
        /// observation-equivalent to an unpreempted run: identical output
        /// bytes, identical version-table contents and peaks, identical
        /// epoch, and (with recovery enabled) identical recovery stats —
        /// preemption is free at the functional level; its cycle cost
        /// lives entirely in the serving layer's switch accounting.
        #[test]
        fn suspend_resume_is_observation_equivalent(
            seed in any::<u64>(),
            boundary_mask in any::<u8>(),
            double_suspend in any::<bool>(),
            with_recovery in any::<bool>(),
        ) {
            let model = tiny();
            let build = || {
                let mut r = SecureRunner::with_memory(
                    &model,
                    TreelessMemory::new(Key128::derive(b"pt-preempt")),
                    seed,
                );
                if with_recovery {
                    r.enable_recovery(RetryPolicy::default(), treeless_engine());
                }
                r
            };
            let mut straight = build();
            straight.run().expect("unpreempted run");
            let want = straight.read_output().expect("verifies");

            let mut r = build();
            let mut boundary = 0u8;
            while !r.is_finished() {
                if boundary_mask & (1 << (boundary % 8)) != 0 {
                    let snap = r.suspend().expect("boundary suspend");
                    if double_suspend {
                        // Suspends are read-only: taking two is harmless.
                        let again = r.suspend().expect("second suspend");
                        prop_assert_eq!(again.table_bytes(), snap.table_bytes());
                    }
                    r.resume(&snap).expect("same-epoch resume");
                }
                r.step().expect("clean step");
                boundary += 1;
            }
            prop_assert_eq!(r.read_output().expect("verifies"), want);
            prop_assert_eq!(r.epoch(), straight.epoch());
            prop_assert_eq!(
                r.version_table().storage_bytes(),
                straight.version_table().storage_bytes()
            );
            prop_assert_eq!(
                r.version_table().peak_storage_bytes(),
                straight.version_table().peak_storage_bytes()
            );
            prop_assert_eq!(r.recovery_stats(), straight.recovery_stats());
            for t in r.live_tensors() {
                prop_assert_eq!(
                    r.version_table().version(t.id, 0),
                    straight.version_table().version(t.id, 0)
                );
            }
        }

        /// The sweep itself round-trips every live tensor's plaintext
        /// byte-identically, even though every ciphertext changes key.
        #[test]
        fn epoch_sweep_preserves_all_tensor_plaintext(seed in any::<u64>()) {
            let model = tiny();
            let mut r = SecureRunner::with_memory(
                &model,
                TreelessMemory::new(Key128::derive(b"pt-roundtrip")),
                seed,
            );
            r.run().expect("clean");
            let capture = |r: &SecureRunner<TreelessMemory>| -> Vec<Vec<u8>> {
                r.live_tensors()
                    .into_iter()
                    .map(|t| {
                        let v = r.version_table().version(t.id, 0).expect("registered");
                        let blocks = t.bytes.div_ceil(BLOCK_SIZE as u64);
                        let mut bytes = Vec::new();
                        for b in 0..blocks {
                            let block = r
                                .memory()
                                .read_block(t.addr.offset(b * BLOCK_SIZE as u64), v)
                                .expect("verifies");
                            bytes.extend_from_slice(&block);
                        }
                        bytes
                    })
                    .collect()
            };
            let before = capture(&r);
            // recover() without an attached engine still sweeps (it just
            // charges nothing) — the mechanism is available to any context.
            r.recover().expect("sweep over clean state");
            prop_assert!(r.epoch() >= 1);
            let after = capture(&r);
            prop_assert_eq!(before, after, "plaintext must survive the re-key");
        }
    }

    /// Drive `s` through a sequence of public calls, each an op code with
    /// an argument, and check that no call panics and the poison rule:
    /// after an error from any call but `recover`, other than `Finished`,
    /// every fallible call except `recover` returns `Poisoned` until a
    /// `recover` succeeds. A resume of the own, stale or foreign snapshot
    /// on a clean context succeeds exactly when the snapshot equals the
    /// live state. `program` runs op codes 0 and 1: the program's
    /// own calls (`step`, `run`, `next_inference`).
    fn check_call_sequence<P>(
        s: &mut Session<TreelessMemory, P>,
        foreign: &SessionSnapshot,
        calls: &[(u8, u64)],
        program: impl Fn(&mut Session<TreelessMemory, P>, u64) -> Result<(), RunError>,
    ) {
        let stale = s.suspend().expect("a fresh context suspends");
        let mut own = stale.clone();
        let mut quarantined = false;
        for &(op, arg) in calls {
            let r = match op {
                0 | 1 => program(s, arg),
                2 => s.read_output().map(drop),
                3 => s.suspend().map(|snap| own = snap),
                4..=6 => {
                    let snap = [&own, &stale, foreign][usize::from(op - 4)];
                    let live = s.suspend();
                    let r = s.resume(snap);
                    if let Ok(live) = live {
                        // Only the live state resumes; anything else is a
                        // rollback, refused as stale or mismatched.
                        if live == *snap {
                            assert_eq!(r, Ok(()), "op {op} refused the live state");
                        } else {
                            assert!(
                                matches!(
                                    r,
                                    Err(RunError::Version(
                                        VersionError::StaleSnapshot { .. }
                                            | VersionError::SnapshotMismatch
                                    ))
                                ),
                                "op {op} resumed a snapshot that differs from the live state: {r:?}"
                            );
                        }
                    }
                    r
                }
                7 | 8 => {
                    if s.recover().is_ok() {
                        quarantined = false;
                    }
                    assert_eq!(s.is_poisoned(), quarantined, "after recover");
                    continue;
                }
                9 => {
                    s.set_version_limit(arg % 4);
                    continue;
                }
                10 => {
                    s.enable_recovery(RetryPolicy::default(), treeless_engine());
                    continue;
                }
                _ => {
                    let live = s.live_tensors();
                    let t = live[(arg % live.len() as u64) as usize];
                    let blocks = t.bytes.div_ceil(BLOCK_SIZE as u64).max(1);
                    let addr = t.addr.offset((arg >> 8) % blocks * BLOCK_SIZE as u64);
                    s.memory_mut()
                        .tamper_bits(addr, &[(arg >> 32) as u16 % 512]);
                    continue;
                }
            };
            if quarantined {
                assert_eq!(r, Err(RunError::Poisoned), "op {op} ran while quarantined");
            } else if let Err(e) = r {
                assert_ne!(e, RunError::Poisoned, "op {op} refused a clean context");
                quarantined = e != RunError::Finished;
            }
            assert_eq!(s.is_poisoned(), quarantined, "after op {op}");
        }
    }

    fn calls(max: usize) -> impl Strategy<Value = Vec<(u8, u64)>> {
        prop::collection::vec((0u8..12, any::<u64>()), 1..max)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The public-call-sequence property on the static program.
        #[test]
        fn inference_call_sequences_keep_the_poison_rule(seq in calls(30), seed in any::<u64>()) {
            let other = ModelBuilder::new("other", "Other", (2, 4, 4)).fc("fc", 8).build();
            let foreign = SecureRunner::new(&other, Key128::derive(b"pt-foreign"), seed)
                .suspend()
                .expect("fresh");
            let mut s = SecureRunner::new(&tiny(), Key128::derive(b"pt-calls"), seed);
            check_call_sequence(&mut s, &foreign, &seq, |s, arg| match arg % 3 {
                0 => s.step().map(drop),
                1 => s.run().map(drop),
                _ => s.next_inference(arg),
            });
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// The same property on the decode and train programs (few, short
        /// sequences: every stepped call moves real KV and weight bytes).
        #[test]
        fn stepped_call_sequences_keep_the_poison_rule(seq in calls(10), seed in any::<u64>()) {
            let foreign = SecureRunner::new(&tiny(), Key128::derive(b"pt-foreign"), seed)
                .suspend()
                .expect("fresh");
            for name in ["decode", "train"] {
                let model = tnpu_models::registry::model(name).expect("registered");
                let mut s = SteppedSession::new(&model, Key128::derive(b"pt-calls"), seed);
                check_call_sequence(&mut s, &foreign, &seq, |s, _| s.step().map(drop));
            }
        }
    }
}
