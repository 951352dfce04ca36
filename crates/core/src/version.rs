//! Software version-number management (paper §III-C, §IV-D, Figs. 9/13).
//!
//! One version number per tensor, stored in a table in the fully-protected
//! enclave memory. While a tensor is produced tile-by-tile, its entry is
//! *expanded* into per-tile version numbers; once every tile has been
//! updated the same number of times, the entry is *merged* back into a
//! single number. The table's storage footprint is tracked because the
//! paper reports it (1.3 KB on average, up to 7.5 KB for `tf`).

use std::collections::BTreeMap;

/// Index of a tensor in the version table.
pub type TensorId = u32;

/// Bytes per version number (the paper uses 8 B entries).
pub const ENTRY_BYTES: u64 = 8;

/// A tensor's entry: a single number, or one per tile while the tensor is
/// being produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VersionEntry {
    /// Tensor-unit version.
    Single(u64),
    /// Tile-unit versions (the tensor is mid-update).
    Expanded(Vec<u64>),
}

impl VersionEntry {
    /// Storage bytes this entry occupies.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        match self {
            VersionEntry::Single(_) => ENTRY_BYTES,
            VersionEntry::Expanded(tiles) => tiles.len() as u64 * ENTRY_BYTES,
        }
    }
}

/// Errors of version management.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VersionError {
    /// Unknown tensor.
    UnknownTensor(TensorId),
    /// Tile index out of range for the expansion.
    NoSuchTile {
        /// Tensor.
        tensor: TensorId,
        /// Offending tile index.
        tile: u32,
    },
    /// Merge requested while tile versions still differ — the tiles have
    /// not all completed the same number of updates, so collapsing to one
    /// number would lose information and break replay detection.
    TilesNotUniform(TensorId),
    /// Expand requested on an already-expanded tensor without growing it
    /// (the tile count did not exceed the current expansion — a shrink or
    /// a silent no-op, both refused).
    AlreadyExpanded(TensorId),
    /// Tile-granular operation on a non-expanded tensor.
    NotExpanded(TensorId),
    /// The version counter reached `u64::MAX`. Wrapping back to an earlier
    /// value would make old ciphertext MACs verify again — the replay
    /// window the versions exist to close — so the bump is refused and the
    /// tensor must be re-keyed or retired.
    Exhausted(TensorId),
    /// A [`VersionSnapshot`] taken in an earlier re-encryption epoch was
    /// offered for restore after a sweep ran. Restoring it would rewind
    /// every entry to pre-sweep values while the data region is already
    /// re-keyed and rewritten at version 1 — the replay hazard the
    /// epoch-tagging exists to close — so the restore is refused and the
    /// table is left untouched.
    StaleSnapshot {
        /// Epoch the snapshot was taken in.
        snapshot: u64,
        /// The context's current epoch.
        current: u64,
    },
    /// A snapshot of the current epoch was offered for resume but differs
    /// from the context's live state: an older snapshot of the context
    /// itself, or another context's. Restoring it would rewind versions
    /// under unchanged keys, so a later rewrite would repeat a version its
    /// address already carried and the older ciphertext would verify
    /// again. The resume is refused and the table is left untouched.
    SnapshotMismatch,
}

impl std::fmt::Display for VersionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VersionError::UnknownTensor(t) => write!(f, "unknown tensor {t}"),
            VersionError::NoSuchTile { tensor, tile } => {
                write!(f, "tensor {tensor} has no tile {tile}")
            }
            VersionError::TilesNotUniform(t) => {
                write!(f, "tensor {t} tile versions are not uniform")
            }
            VersionError::AlreadyExpanded(t) => write!(f, "tensor {t} is already expanded"),
            VersionError::NotExpanded(t) => write!(f, "tensor {t} is not expanded"),
            VersionError::Exhausted(t) => {
                write!(f, "tensor {t} version counter is exhausted (would wrap)")
            }
            VersionError::StaleSnapshot { snapshot, current } => {
                write!(
                    f,
                    "snapshot from epoch {snapshot} cannot restore into epoch {current} \
                     (pre-sweep versions would rewind — replay hazard)"
                )
            }
            VersionError::SnapshotMismatch => write!(
                f,
                "snapshot differs from the live state of its epoch \
                 (versions would rewind under unchanged keys — replay hazard)"
            ),
        }
    }
}

impl std::error::Error for VersionError {}

/// A point-in-time copy of a context's version table, tagged with the
/// re-encryption epoch it was taken in.
///
/// Context switches save the table through the fully-protected region and
/// restore it when the context is re-scheduled. The epoch tag is what makes
/// that safe against the sweep/preemption hazard: a snapshot taken before
/// an epoch sweep holds versions whose MAC bindings died with the old keys,
/// so [`VersionTable::restore`] refuses it with
/// [`VersionError::StaleSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionSnapshot {
    entries: BTreeMap<TensorId, VersionEntry>,
    limit: u64,
    epoch: u64,
}

impl VersionSnapshot {
    /// The re-encryption epoch this snapshot was taken in.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Bytes of protected-region storage the snapshot occupies — the DMA
    /// payload a context switch moves for the version-table half of the
    /// saved state.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        // tnpu-lint: allow(float-accumulation) — u64 sum over a BTreeMap:
        // integral and iterated in key order, so the order cannot matter.
        self.entries.values().map(VersionEntry::bytes).sum()
    }
}

/// The version table of one NPU context.
///
/// # Examples
///
/// ```
/// use tnpu_core::version::VersionTable;
///
/// let mut table = VersionTable::new();
/// table.register(0); // output tensor
/// table.expand(0, 4).unwrap();
/// for tile in 0..4 {
///     assert_eq!(table.bump_tile(0, tile).unwrap(), 1);
/// }
/// table.merge(0).unwrap(); // all tiles at version 1: collapse
/// assert_eq!(table.version(0, 0).unwrap(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct VersionTable {
    entries: BTreeMap<TensorId, VersionEntry>,
    peak_bytes: u64,
    /// Largest version a bump may produce before reporting
    /// [`VersionError::Exhausted`]. `u64::MAX` by default (the paper's 8 B
    /// entries); tests and the fault harness lower it to exercise the
    /// re-encryption epoch sweep without 2^64 writes.
    limit: u64,
}

impl Default for VersionTable {
    fn default() -> Self {
        VersionTable {
            entries: BTreeMap::new(),
            peak_bytes: 0,
            limit: u64::MAX,
        }
    }
}

impl VersionTable {
    /// Empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Lower the exhaustion threshold: bumps refuse to exceed `limit`.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero — version 0 means "never written", so a
    /// zero limit would make every tensor unwritable.
    pub fn set_limit(&mut self, limit: u64) {
        assert!(limit > 0, "version limit must be positive");
        self.limit = limit;
    }

    /// The current exhaustion threshold.
    #[must_use]
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Reset every entry to version 0 — the version half of a
    /// re-encryption epoch sweep. Sound *only* together with a re-key:
    /// all MACs bound under the old epoch's keys are dead, so reusing the
    /// low version numbers re-admits nothing. Expanded entries collapse to
    /// `Single(0)` (the sweep rewrites whole tensors).
    pub fn reset_epoch(&mut self) {
        for entry in self.entries.values_mut() {
            *entry = VersionEntry::Single(0);
        }
    }

    /// Register a tensor at version 0 (freshly allocated, never written).
    pub fn register(&mut self, tensor: TensorId) {
        self.entries
            .entry(tensor)
            .or_insert(VersionEntry::Single(0));
        self.update_peak();
    }

    /// Current version supplied to `mvin` for `(tensor, tile)`.
    ///
    /// # Errors
    ///
    /// [`VersionError::UnknownTensor`] / [`VersionError::NoSuchTile`].
    pub fn version(&self, tensor: TensorId, tile: u32) -> Result<u64, VersionError> {
        match self.entries.get(&tensor) {
            None => Err(VersionError::UnknownTensor(tensor)),
            Some(VersionEntry::Single(v)) => Ok(*v),
            Some(VersionEntry::Expanded(tiles)) => tiles
                .get(tile as usize)
                .copied()
                .ok_or(VersionError::NoSuchTile { tensor, tile }),
        }
    }

    /// Bump the whole-tensor version (a tensor updated as a single unit)
    /// and return the new value, to be passed to `mvout`.
    ///
    /// # Errors
    ///
    /// [`VersionError::UnknownTensor`]; [`VersionError::AlreadyExpanded`]
    /// if the tensor is mid-expansion (bump its tiles instead);
    /// [`VersionError::Exhausted`] at `u64::MAX` — wrapping would re-admit
    /// ciphertext MAC'd under version 0.
    pub fn bump(&mut self, tensor: TensorId) -> Result<u64, VersionError> {
        match self.entries.get_mut(&tensor) {
            None => Err(VersionError::UnknownTensor(tensor)),
            Some(VersionEntry::Expanded(_)) => Err(VersionError::AlreadyExpanded(tensor)),
            Some(VersionEntry::Single(v)) => {
                if *v >= self.limit {
                    return Err(VersionError::Exhausted(tensor));
                }
                *v = v.checked_add(1).ok_or(VersionError::Exhausted(tensor))?;
                Ok(*v)
            }
        }
    }

    /// Expand a tensor into `tiles` tile-unit versions, all starting at the
    /// current tensor version (Fig. 9 step 0 / Fig. 13 (b)).
    ///
    /// A zero-tile expansion is clamped to one tile: an empty expansion
    /// would drop the tensor's current version, so a later [`merge`]
    /// (trivially uniform over no tiles) would rewind it to 0 and re-admit
    /// stale ciphertext — exactly the replay the version numbers exist to
    /// prevent.
    ///
    /// Expanding an *already-expanded* tensor with a larger tile count
    /// grows it in place — the KV-cache append path, where a tensor gains
    /// one tile per decode step and is never merged mid-sequence. Existing
    /// tile versions are preserved exactly; appended tiles start at the
    /// current **maximum** tile version. The maximum is the only sound
    /// seed: every version the tensor's tiles ever carried is bounded by
    /// the entry-wide maximum (bumps are monotone, merge requires
    /// uniformity, and fresh expansion propagates the single value), so
    /// the appended tiles' first `bump_tile` produces a version strictly
    /// greater than anything ever MAC'd at those addresses — no rewind,
    /// even if the tensor was expanded, merged, and re-expanded before.
    ///
    /// [`merge`]: VersionTable::merge
    ///
    /// # Errors
    ///
    /// [`VersionError::UnknownTensor`]; [`VersionError::AlreadyExpanded`]
    /// if the tensor is expanded and `tiles` does not exceed the current
    /// tile count (a shrink would drop live tile versions, and a same-size
    /// expand would be a silent no-op — both are caller bugs).
    pub fn expand(&mut self, tensor: TensorId, tiles: u32) -> Result<(), VersionError> {
        match self.entries.get_mut(&tensor) {
            None => Err(VersionError::UnknownTensor(tensor)),
            Some(VersionEntry::Expanded(existing)) => {
                if tiles as usize <= existing.len() {
                    return Err(VersionError::AlreadyExpanded(tensor));
                }
                let seed = existing.iter().copied().max().unwrap_or(0);
                existing.resize(tiles as usize, seed);
                self.update_peak();
                Ok(())
            }
            Some(entry) => {
                let VersionEntry::Single(v) = *entry else {
                    // tnpu-lint: allow(panic-path) — the Expanded arm above
                    // already returned; only Single can reach this binding.
                    unreachable!("expanded case handled above");
                };
                *entry = VersionEntry::Expanded(vec![v; tiles.max(1) as usize]);
                self.update_peak();
                Ok(())
            }
        }
    }

    /// Bump one tile's version and return the new value (passed to that
    /// tile's `mvout`).
    ///
    /// # Errors
    ///
    /// [`VersionError`] if the tensor is unknown, not expanded, or the
    /// tile is out of range; [`VersionError::Exhausted`] if the tile's
    /// version would wrap past `u64::MAX`.
    pub fn bump_tile(&mut self, tensor: TensorId, tile: u32) -> Result<u64, VersionError> {
        match self.entries.get_mut(&tensor) {
            None => Err(VersionError::UnknownTensor(tensor)),
            Some(VersionEntry::Single(_)) => Err(VersionError::NotExpanded(tensor)),
            Some(VersionEntry::Expanded(tiles)) => {
                let slot = tiles
                    .get_mut(tile as usize)
                    .ok_or(VersionError::NoSuchTile { tensor, tile })?;
                if *slot >= self.limit {
                    return Err(VersionError::Exhausted(tensor));
                }
                *slot = slot.checked_add(1).ok_or(VersionError::Exhausted(tensor))?;
                Ok(*slot)
            }
        }
    }

    /// Merge an expanded tensor back to a single version (Fig. 9 step 9):
    /// legal only when every tile reached the same version.
    ///
    /// # Errors
    ///
    /// [`VersionError::TilesNotUniform`] if tile versions differ;
    /// [`VersionError::NotExpanded`] / [`VersionError::UnknownTensor`].
    pub fn merge(&mut self, tensor: TensorId) -> Result<u64, VersionError> {
        match self.entries.get_mut(&tensor) {
            None => Err(VersionError::UnknownTensor(tensor)),
            Some(VersionEntry::Single(_)) => Err(VersionError::NotExpanded(tensor)),
            Some(entry) => {
                let VersionEntry::Expanded(tiles) = &*entry else {
                    // tnpu-lint: allow(panic-path) — the Single arm above
                    // already returned; only Expanded can reach this binding.
                    unreachable!("single case handled above");
                };
                let first = tiles.first().copied().unwrap_or(0);
                if tiles.iter().any(|&t| t != first) {
                    return Err(VersionError::TilesNotUniform(tensor));
                }
                *entry = VersionEntry::Single(first);
                Ok(first)
            }
        }
    }

    /// Whether the tensor's entry is currently tile-expanded (the tensor
    /// is mid-production). The epoch sweep preserves such tensors tile by
    /// tile — a dynamic-dataflow tensor (a KV cache mid-sequence) may
    /// stay expanded across many steps, so its written tiles and its
    /// expansion shape must survive the sweep.
    ///
    /// # Errors
    ///
    /// [`VersionError::UnknownTensor`].
    pub fn is_expanded(&self, tensor: TensorId) -> Result<bool, VersionError> {
        match self.entries.get(&tensor) {
            None => Err(VersionError::UnknownTensor(tensor)),
            Some(VersionEntry::Single(_)) => Ok(false),
            Some(VersionEntry::Expanded(_)) => Ok(true),
        }
    }

    /// Number of tile entries the tensor currently holds: the expansion
    /// length for an expanded entry, 1 for a `Single` entry.
    ///
    /// # Errors
    ///
    /// [`VersionError::UnknownTensor`].
    pub fn tile_count(&self, tensor: TensorId) -> Result<u32, VersionError> {
        match self.entries.get(&tensor) {
            None => Err(VersionError::UnknownTensor(tensor)),
            Some(VersionEntry::Single(_)) => Ok(1),
            Some(VersionEntry::Expanded(tiles)) => Ok(tiles.len() as u32),
        }
    }

    /// Current table storage in bytes.
    #[must_use]
    pub fn storage_bytes(&self) -> u64 {
        // tnpu-lint: allow(float-accumulation) — u64 sum over a BTreeMap:
        // integral and iterated in key order, so the order cannot matter.
        self.entries.values().map(VersionEntry::bytes).sum()
    }

    /// Largest storage the table ever needed (the number §IV-D reports).
    #[must_use]
    pub fn peak_storage_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Number of registered tensors.
    #[must_use]
    pub fn tensors(&self) -> usize {
        self.entries.len()
    }

    /// Capture the table for a context switch, tagging it with the caller's
    /// current re-encryption `epoch`.
    #[must_use]
    pub fn snapshot(&self, epoch: u64) -> VersionSnapshot {
        VersionSnapshot {
            entries: self.entries.clone(),
            limit: self.limit,
            epoch,
        }
    }

    /// Restore a snapshot taken at [`snapshot`](VersionTable::snapshot)
    /// time, re-validating its epoch tag against the context's
    /// `current_epoch`.
    ///
    /// On success the table's entries and limit are replaced wholesale
    /// (peak accounting stays monotone: a restore never lowers the peak).
    ///
    /// # Errors
    ///
    /// [`VersionError::StaleSnapshot`] if an epoch sweep ran after the
    /// snapshot was taken — restoring pre-sweep versions under post-sweep
    /// keys would re-open the replay window. The table is left untouched.
    pub fn restore(
        &mut self,
        snapshot: &VersionSnapshot,
        current_epoch: u64,
    ) -> Result<(), VersionError> {
        if snapshot.epoch != current_epoch {
            return Err(VersionError::StaleSnapshot {
                snapshot: snapshot.epoch,
                current: current_epoch,
            });
        }
        self.entries = snapshot.entries.clone();
        self.limit = snapshot.limit;
        self.update_peak();
        Ok(())
    }

    fn update_peak(&mut self) {
        self.peak_bytes = self.peak_bytes.max(self.storage_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_with(tensor: TensorId) -> VersionTable {
        let mut t = VersionTable::new();
        t.register(tensor);
        t
    }

    #[test]
    fn register_starts_at_zero() {
        let t = table_with(5);
        assert_eq!(t.version(5, 0), Ok(0));
        assert_eq!(t.version(5, 99), Ok(0), "single entry serves any tile");
    }

    #[test]
    fn bump_whole_tensor() {
        let mut t = table_with(1);
        assert_eq!(t.bump(1), Ok(1));
        assert_eq!(t.bump(1), Ok(2));
        assert_eq!(t.version(1, 0), Ok(2));
    }

    #[test]
    fn matmul_tiling_example_from_fig9() {
        // Fig. 9: a 2x2-tiled output; each tile is written once per k-step
        // (2 steps), then merged.
        let mut t = table_with(0);
        t.expand(0, 4).expect("expand");
        for _step in 0..2 {
            for tile in 0..4 {
                t.bump_tile(0, tile).expect("bump");
            }
        }
        assert_eq!(t.merge(0), Ok(2));
        assert_eq!(t.version(0, 3), Ok(2));
    }

    #[test]
    fn merge_rejects_nonuniform() {
        let mut t = table_with(0);
        t.expand(0, 3).expect("expand");
        t.bump_tile(0, 0).expect("bump");
        assert_eq!(t.merge(0), Err(VersionError::TilesNotUniform(0)));
        // Completing the remaining tiles makes the merge legal.
        t.bump_tile(0, 1).expect("bump");
        t.bump_tile(0, 2).expect("bump");
        assert_eq!(t.merge(0), Ok(1));
    }

    #[test]
    fn expand_preserves_version() {
        let mut t = table_with(0);
        t.bump(0).expect("bump");
        t.expand(0, 2).expect("expand");
        assert_eq!(t.version(0, 0), Ok(1));
        assert_eq!(t.version(0, 1), Ok(1));
    }

    #[test]
    fn double_expand_rejected() {
        // Same-size and shrinking re-expansion stay refused: a shrink
        // would drop live tile versions and a same-size expand would be a
        // silent no-op. Only a *growing* expand (the KV-append path) is
        // legal on an expanded tensor.
        let mut t = table_with(0);
        t.expand(0, 2).expect("expand");
        assert_eq!(t.expand(0, 2), Err(VersionError::AlreadyExpanded(0)));
        assert_eq!(t.expand(0, 1), Err(VersionError::AlreadyExpanded(0)));
        assert_eq!(t.expand(0, 0), Err(VersionError::AlreadyExpanded(0)));
        assert_eq!(t.bump(0), Err(VersionError::AlreadyExpanded(0)));
    }

    #[test]
    fn expand_grow_preserves_existing_tile_versions() {
        // The KV-cache append path: each decode step grows the expansion
        // by one tile. Existing tiles keep their exact versions; the new
        // tile starts at the current maximum so its first bump can never
        // collide with a version already MAC'd at that address.
        let mut t = table_with(0);
        t.expand(0, 2).expect("expand");
        t.bump_tile(0, 0).expect("bump");
        t.bump_tile(0, 0).expect("bump");
        t.bump_tile(0, 1).expect("bump");
        t.expand(0, 4).expect("grow");
        assert_eq!(t.version(0, 0), Ok(2), "existing tile preserved");
        assert_eq!(t.version(0, 1), Ok(1), "existing tile preserved");
        assert_eq!(t.version(0, 2), Ok(2), "fresh tile seeded at the max");
        assert_eq!(t.version(0, 3), Ok(2), "fresh tile seeded at the max");
        assert_eq!(t.bump_tile(0, 3), Ok(3), "first write is above the max");
    }

    #[test]
    fn expand_grow_after_merge_and_reexpand_never_rewinds() {
        // A tensor that was expanded to 4 tiles, merged, and re-expanded
        // to 2 tiles still remembers (via the max seed) that tiles 2..4
        // once carried version 3: growing back to 4 must not hand those
        // addresses a lower version.
        let mut t = table_with(0);
        t.expand(0, 4).expect("expand");
        for _ in 0..3 {
            for tile in 0..4 {
                t.bump_tile(0, tile).expect("bump");
            }
        }
        assert_eq!(t.merge(0), Ok(3));
        t.expand(0, 2).expect("re-expand");
        t.expand(0, 4).expect("grow back");
        assert_eq!(t.version(0, 2), Ok(3), "no rewind below the old version");
        assert_eq!(t.bump_tile(0, 2), Ok(4));
    }

    #[test]
    fn expand_grow_updates_storage_and_peak() {
        let mut t = table_with(0);
        t.expand(0, 2).expect("expand");
        assert_eq!(t.storage_bytes(), 2 * ENTRY_BYTES);
        t.expand(0, 5).expect("grow");
        assert_eq!(t.storage_bytes(), 5 * ENTRY_BYTES);
        assert_eq!(t.peak_storage_bytes(), 5 * ENTRY_BYTES);
    }

    #[test]
    fn tile_ops_need_expansion() {
        let mut t = table_with(0);
        assert_eq!(t.bump_tile(0, 0), Err(VersionError::NotExpanded(0)));
        assert_eq!(t.merge(0), Err(VersionError::NotExpanded(0)));
    }

    #[test]
    fn unknown_tensor_errors() {
        let mut t = VersionTable::new();
        assert_eq!(t.version(9, 0), Err(VersionError::UnknownTensor(9)));
        assert_eq!(t.bump(9), Err(VersionError::UnknownTensor(9)));
        assert_eq!(t.expand(9, 2), Err(VersionError::UnknownTensor(9)));
    }

    #[test]
    fn out_of_range_tile() {
        let mut t = table_with(0);
        t.expand(0, 2).expect("expand");
        assert_eq!(
            t.bump_tile(0, 5),
            Err(VersionError::NoSuchTile { tensor: 0, tile: 5 })
        );
    }

    #[test]
    fn zero_tile_expansion_cannot_rewind_the_version() {
        // An empty expansion would let a merge (trivially uniform over no
        // tiles) reset the version to 0 — a replay window. The expansion
        // is clamped to one tile, so the version survives the round trip.
        let mut t = table_with(0);
        t.bump(0).expect("bump");
        t.bump(0).expect("bump");
        t.expand(0, 0).expect("expand");
        assert_eq!(t.version(0, 0), Ok(2));
        assert_eq!(t.merge(0), Ok(2));
    }

    #[test]
    fn bump_at_max_is_exhausted_not_wrapped() {
        // Regression test: `bump` used unchecked `+= 1`, so a tensor at
        // u64::MAX wrapped to 0 in release builds and every block MAC'd
        // under any earlier version verified again — an unbounded replay
        // window. The table must refuse instead.
        let mut t = VersionTable::new();
        t.register(0);
        t.entries.insert(0, VersionEntry::Single(u64::MAX));
        assert_eq!(t.bump(0), Err(VersionError::Exhausted(0)));
        // The entry is untouched: still at MAX, still readable.
        assert_eq!(t.version(0, 0), Ok(u64::MAX));
        assert_eq!(t.bump(0), Err(VersionError::Exhausted(0)), "stays refused");
    }

    #[test]
    fn bump_tile_at_max_is_exhausted_not_wrapped() {
        let mut t = VersionTable::new();
        t.register(3);
        t.entries
            .insert(3, VersionEntry::Expanded(vec![u64::MAX, 7]));
        assert_eq!(t.bump_tile(3, 0), Err(VersionError::Exhausted(3)));
        assert_eq!(t.version(3, 0), Ok(u64::MAX), "tile untouched");
        // Other tiles keep working.
        assert_eq!(t.bump_tile(3, 1), Ok(8));
    }

    #[test]
    fn lowered_limit_exhausts_early_and_reset_recovers() {
        let mut t = table_with(0);
        t.set_limit(2);
        assert_eq!(t.limit(), 2);
        assert_eq!(t.bump(0), Ok(1));
        assert_eq!(t.bump(0), Ok(2));
        assert_eq!(t.bump(0), Err(VersionError::Exhausted(0)));
        assert_eq!(t.version(0, 0), Ok(2), "entry untouched by refusal");
        // The epoch sweep's version half: everything back to 0, bumps
        // work again.
        t.reset_epoch();
        assert_eq!(t.version(0, 0), Ok(0));
        assert_eq!(t.bump(0), Ok(1));
    }

    #[test]
    fn limit_applies_to_tiles_and_reset_collapses_expansions() {
        let mut t = table_with(0);
        t.set_limit(1);
        t.expand(0, 3).expect("expand");
        assert_eq!(t.bump_tile(0, 0), Ok(1));
        assert_eq!(t.bump_tile(0, 0), Err(VersionError::Exhausted(0)));
        t.reset_epoch();
        // Expanded entries collapse: the sweep rewrites whole tensors.
        assert_eq!(t.version(0, 0), Ok(0));
        assert_eq!(t.bump(0), Ok(1), "single entry again");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_limit_rejected() {
        let mut t = VersionTable::new();
        t.set_limit(0);
    }

    #[test]
    fn default_limit_is_max() {
        assert_eq!(VersionTable::new().limit(), u64::MAX);
    }

    #[test]
    fn exhausted_error_displays() {
        let e = VersionError::Exhausted(9);
        assert!(e.to_string().contains("exhausted"));
    }

    #[test]
    fn snapshot_restore_roundtrips() {
        let mut t = table_with(0);
        t.register(1);
        t.bump(0).expect("bump");
        t.expand(1, 3).expect("expand");
        t.bump_tile(1, 2).expect("bump tile");
        let snap = t.snapshot(0);
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.bytes(), t.storage_bytes());
        // Mutate past the snapshot, then restore.
        t.bump_tile(1, 0).expect("bump tile");
        t.bump_tile(1, 1).expect("bump tile");
        t.restore(&snap, 0).expect("same-epoch restore");
        assert_eq!(t.version(0, 0), Ok(1));
        assert_eq!(t.version(1, 0), Ok(0));
        assert_eq!(t.version(1, 2), Ok(1));
    }

    #[test]
    fn stale_snapshot_is_refused_and_table_untouched() {
        // The sweep/preemption hazard: snapshot at epoch 0, sweep to
        // epoch 1, restore must be a typed refusal — not a silent rewind
        // of post-sweep versions.
        let mut t = table_with(0);
        t.bump(0).expect("bump");
        t.bump(0).expect("bump");
        let snap = t.snapshot(0);
        t.reset_epoch(); // the version half of an epoch sweep
        t.bump(0).expect("post-sweep rewrite");
        assert_eq!(
            t.restore(&snap, 1),
            Err(VersionError::StaleSnapshot {
                snapshot: 0,
                current: 1
            })
        );
        assert_eq!(t.version(0, 0), Ok(1), "refusal leaves the table alone");
        assert!(t
            .restore(&snap, 1)
            .unwrap_err()
            .to_string()
            .contains("replay hazard"));
    }

    #[test]
    fn snapshot_restore_carries_the_limit() {
        let mut t = table_with(0);
        t.set_limit(3);
        let snap = t.snapshot(7);
        let mut fresh = table_with(0);
        fresh.restore(&snap, 7).expect("restore");
        assert_eq!(fresh.limit(), 3);
        assert_eq!(fresh.bump(0), Ok(1));
    }

    #[test]
    fn restore_never_lowers_the_peak() {
        let mut t = table_with(0);
        t.expand(0, 64).expect("expand");
        let big_peak = t.peak_storage_bytes();
        let small = table_with(0).snapshot(0);
        t.restore(&small, 0).expect("restore");
        assert_eq!(t.storage_bytes(), ENTRY_BYTES);
        assert_eq!(t.peak_storage_bytes(), big_peak, "peak stays monotone");
    }

    #[test]
    fn storage_accounting() {
        let mut t = VersionTable::new();
        for i in 0..10 {
            t.register(i);
        }
        assert_eq!(t.storage_bytes(), 80);
        t.expand(0, 100).expect("expand");
        assert_eq!(t.storage_bytes(), 9 * 8 + 100 * 8);
        assert_eq!(t.peak_storage_bytes(), 872);
        t.bump_tile(0, 0).expect("bump");
        for tile in 1..100 {
            t.bump_tile(0, tile).expect("bump");
        }
        t.merge(0).expect("merge");
        assert_eq!(t.storage_bytes(), 80, "merge shrinks the table");
        assert_eq!(t.peak_storage_bytes(), 872, "peak remembers");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Tensors the generated programs operate over.
    const TENSORS: u32 = 4;

    proptest! {
        /// Any interleaving of `expand` / `bump_tile` / `merge` — legal
        /// or rejected — keeps `peak_storage_bytes` monotonically
        /// non-decreasing and always at or above the live storage.
        #[test]
        fn peak_bytes_is_monotone_under_any_interleaving(
            ops in prop::collection::vec((0u8..3, 0u32..TENSORS, 0u32..12), 1..64),
        ) {
            let mut table = VersionTable::new();
            for tensor in 0..TENSORS {
                table.register(tensor);
            }
            let mut prev_peak = table.peak_storage_bytes();
            for (op, tensor, arg) in ops {
                // Errors are part of the property: a rejected operation
                // must not disturb the accounting either.
                let _ = match op {
                    0 => table.expand(tensor, arg).map(|()| 0),
                    1 => table.bump_tile(tensor, arg),
                    _ => table.merge(tensor),
                };
                let peak = table.peak_storage_bytes();
                prop_assert!(
                    peak >= prev_peak,
                    "peak shrank: {prev_peak} -> {peak}"
                );
                prop_assert!(
                    peak >= table.storage_bytes(),
                    "peak {peak} below live storage {}",
                    table.storage_bytes()
                );
                prev_peak = peak;
            }
        }

        /// Expanding, bumping every tile the same number of times, and
        /// merging round-trips the entry to `Single` with the version
        /// advanced by exactly the per-tile update count.
        #[test]
        fn merge_after_uniform_bumps_roundtrips_to_single(
            start in 0u64..64,
            tiles in 0u32..32,
            rounds in 1u64..6,
        ) {
            let mut table = VersionTable::new();
            table.register(0);
            for _ in 0..start {
                table.bump(0).expect("single-entry bump");
            }
            table.expand(0, tiles).expect("fresh expand");
            let live_tiles = tiles.max(1); // zero-tile expansions clamp
            for _ in 0..rounds {
                for tile in 0..live_tiles {
                    table.bump_tile(0, tile).expect("in-range tile");
                }
            }
            let merged = table.merge(0).expect("uniform tiles merge");
            prop_assert_eq!(merged, start + rounds);
            prop_assert_eq!(table.version(0, 0).expect("known tensor"), start + rounds);
            // The entry is Single again: tensor-unit storage and a legal
            // whole-tensor bump.
            prop_assert_eq!(table.storage_bytes(), ENTRY_BYTES);
            prop_assert_eq!(table.bump(0).expect("single again"), start + rounds + 1);
        }

        /// Snapshot/restore round-trips exactly under arbitrary
        /// expand/bump/merge/sweep interleavings: whatever state the table
        /// reached when the snapshot was taken (and whatever epoch count
        /// the sweeps produced), restoring with the matching epoch
        /// reproduces every entry and the storage footprint, and restoring
        /// after one more sweep is a typed refusal that leaves the mutated
        /// table untouched.
        #[test]
        fn snapshot_restore_roundtrips_under_any_interleaving(
            pre in prop::collection::vec((0u8..5, 0u32..TENSORS, 0u32..12), 0..48),
            post in prop::collection::vec((0u8..5, 0u32..TENSORS, 0u32..12), 1..48),
        ) {
            let mut table = VersionTable::new();
            for tensor in 0..TENSORS {
                table.register(tensor);
            }
            let mut epoch = 0u64;
            let apply = |table: &mut VersionTable, epoch: &mut u64,
                             (op, tensor, arg): (u8, u32, u32)| {
                let _ = match op {
                    0 => table.expand(tensor, arg).map(|()| 0),
                    1 => table.bump_tile(tensor, arg),
                    2 => table.merge(tensor),
                    3 => table.bump(tensor),
                    _ => {
                        table.reset_epoch();
                        *epoch += 1;
                        Ok(0)
                    }
                };
            };
            for op in pre {
                apply(&mut table, &mut epoch, op);
            }
            let snap = table.snapshot(epoch);
            let frozen: Vec<(TensorId, Result<u64, VersionError>, bool)> = (0..TENSORS)
                .map(|t| (t, table.version(t, 0), table.is_expanded(t).unwrap()))
                .collect();
            let frozen_storage = table.storage_bytes();
            prop_assert_eq!(snap.bytes(), frozen_storage);

            for op in post {
                apply(&mut table, &mut epoch, op);
            }
            let sweeps_ran = epoch != snap.epoch();
            if sweeps_ran {
                // Post-snapshot sweeps: the restore must refuse and leave
                // the mutated table exactly as it was.
                let before = table.clone();
                prop_assert_eq!(
                    table.restore(&snap, epoch),
                    Err(VersionError::StaleSnapshot {
                        snapshot: snap.epoch(),
                        current: epoch
                    })
                );
                for t in 0..TENSORS {
                    prop_assert_eq!(table.version(t, 0), before.version(t, 0));
                }
                prop_assert_eq!(table.storage_bytes(), before.storage_bytes());
            } else {
                table.restore(&snap, epoch).expect("same-epoch restore");
                for (t, version, expanded) in frozen {
                    prop_assert_eq!(table.version(t, 0), version);
                    prop_assert_eq!(table.is_expanded(t).unwrap(), expanded);
                }
                prop_assert_eq!(table.storage_bytes(), frozen_storage);
            }
        }

        /// Expand-grow against a plain reference model: a `Vec<u64>` per
        /// tensor mirrors what the table must hold under any interleaving
        /// of expand / expand-grow / `bump_tile` / `merge` /
        /// `snapshot`+`restore`. The reference applies the KV-append rule
        /// directly (grow appends tiles at the running maximum), so any
        /// divergence — a rewound tile, a dropped version, a silent no-op
        /// grow — fails the comparison.
        #[test]
        fn expand_grow_tracks_reference_model_under_any_interleaving(
            ops in prop::collection::vec((0u8..6, 0u32..TENSORS, 0u32..10), 1..64),
        ) {
            // Reference: per-tensor tile versions (len 1 + not-expanded
            // flag models Single).
            #[derive(Clone)]
            struct RefEntry { tiles: Vec<u64>, expanded: bool }
            let mut table = VersionTable::new();
            let mut model: Vec<RefEntry> = (0..TENSORS)
                .map(|t| {
                    table.register(t);
                    RefEntry { tiles: vec![0], expanded: false }
                })
                .collect();
            let mut saved: Option<(VersionSnapshot, Vec<RefEntry>)> = None;
            for (op, tensor, arg) in ops {
                let entry = &mut model[tensor as usize];
                match op {
                    0 => {
                        // expand or expand-grow
                        let res = table.expand(tensor, arg);
                        if entry.expanded {
                            if (arg as usize) > entry.tiles.len() {
                                prop_assert_eq!(res, Ok(()));
                                let seed =
                                    entry.tiles.iter().copied().max().unwrap_or(0);
                                entry.tiles.resize(arg as usize, seed);
                            } else {
                                prop_assert_eq!(
                                    res,
                                    Err(VersionError::AlreadyExpanded(tensor))
                                );
                            }
                        } else {
                            prop_assert_eq!(res, Ok(()));
                            let v = entry.tiles[0];
                            entry.tiles = vec![v; arg.max(1) as usize];
                            entry.expanded = true;
                        }
                    }
                    1 => {
                        // bump_tile
                        let res = table.bump_tile(tensor, arg);
                        if !entry.expanded {
                            prop_assert_eq!(
                                res,
                                Err(VersionError::NotExpanded(tensor))
                            );
                        } else if let Some(slot) =
                            entry.tiles.get_mut(arg as usize)
                        {
                            *slot += 1;
                            prop_assert_eq!(res, Ok(*slot));
                        } else {
                            prop_assert_eq!(
                                res,
                                Err(VersionError::NoSuchTile { tensor, tile: arg })
                            );
                        }
                    }
                    2 => {
                        // merge
                        let res = table.merge(tensor);
                        if !entry.expanded {
                            prop_assert_eq!(
                                res,
                                Err(VersionError::NotExpanded(tensor))
                            );
                        } else if entry.tiles.windows(2).all(|w| w[0] == w[1]) {
                            let v = entry.tiles[0];
                            prop_assert_eq!(res, Ok(v));
                            entry.tiles = vec![v];
                            entry.expanded = false;
                        } else {
                            prop_assert_eq!(
                                res,
                                Err(VersionError::TilesNotUniform(tensor))
                            );
                        }
                    }
                    3 => {
                        // bump (whole tensor)
                        let res = table.bump(tensor);
                        if entry.expanded {
                            prop_assert_eq!(
                                res,
                                Err(VersionError::AlreadyExpanded(tensor))
                            );
                        } else {
                            entry.tiles[0] += 1;
                            prop_assert_eq!(res, Ok(entry.tiles[0]));
                        }
                    }
                    4 => {
                        // snapshot (epoch 0 throughout: no sweeps here, the
                        // staleness interleaving has its own proptest)
                        saved = Some((table.snapshot(0), model.clone()));
                    }
                    _ => {
                        // restore, when a snapshot exists
                        if let Some((snap, ref_model)) = &saved {
                            table.restore(snap, 0).expect("same-epoch restore");
                            model = ref_model.clone();
                        }
                    }
                }
                // After every op the table must agree with the reference
                // on every tile version and the storage footprint.
                let mut expect_bytes = 0u64;
                for (t, entry) in model.iter().enumerate() {
                    let t = t as u32;
                    prop_assert_eq!(
                        table.is_expanded(t).expect("registered"),
                        entry.expanded
                    );
                    expect_bytes += entry.tiles.len() as u64 * ENTRY_BYTES;
                    for (tile, &v) in entry.tiles.iter().enumerate() {
                        prop_assert_eq!(table.version(t, tile as u32), Ok(v));
                    }
                }
                prop_assert_eq!(table.storage_bytes(), expect_bytes);
            }
        }

        /// Starting anywhere in the last few values below `u64::MAX`,
        /// repeated bumps walk monotonically to `MAX` and then report
        /// `Exhausted` forever — the version never wraps back into the
        /// range old MACs were bound to.
        #[test]
        fn bumps_near_max_saturate_into_exhausted(headroom in 0u64..8) {
            let start = u64::MAX - headroom;
            let mut table = VersionTable::new();
            table.register(0);
            table.entries.insert(0, VersionEntry::Single(start));
            let mut v = start;
            while v < u64::MAX {
                v += 1;
                prop_assert_eq!(table.bump(0), Ok(v));
            }
            for _ in 0..3 {
                prop_assert_eq!(table.bump(0), Err(VersionError::Exhausted(0)));
                prop_assert_eq!(table.version(0, 0), Ok(u64::MAX));
            }
        }
    }
}
