//! Generic set-associative, write-back, LRU cache model.
//!
//! Used for the security-metadata caches (counter cache, hash cache, MAC
//! cache) and for TLBs. The model tracks tags only — data contents live in
//! the functional layer of the memory-protection crate.
//!
//! Line sizes and set counts are powers of two, so an address splits into
//! (set, tag) with a shift, a mask and a shift, and a line's base address
//! comes back with two shifts. A run of repeated accesses to one line
//! ([`Cache::access_repeated`]) costs one index and one set scan however
//! long the run is.

use crate::Addr;

/// What kind of access is performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A read; a miss allocates a clean line.
    Read,
    /// A write; a miss allocates (write-allocate) and marks the line dirty.
    Write,
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and has been allocated. If a dirty victim was
    /// evicted, its base address is reported so the caller can account for
    /// the write-back traffic.
    Miss {
        /// Base address of the evicted dirty line, if any.
        writeback: Option<Addr>,
    },
}

impl CacheOutcome {
    /// `true` if the access hit.
    #[must_use]
    pub fn is_hit(self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }

    /// `true` if the access missed.
    #[must_use]
    pub fn is_miss(self) -> bool {
        !self.is_hit()
    }

    /// The dirty victim evicted by this access, if any.
    #[must_use]
    pub fn writeback(self) -> Option<Addr> {
        match self {
            CacheOutcome::Hit => None,
            CacheOutcome::Miss { writeback } => writeback,
        }
    }
}

/// Static geometry of a [`Cache`]. [`Cache::new`] also requires the implied
/// set count to be a power of two.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Human-readable name used in statistics dumps.
    pub name: String,
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes; must be a power of two.
    pub line_size: usize,
}

impl CacheConfig {
    /// Create a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate: zero capacity/ways, line size
    /// not a power of two, or capacity not divisible by `ways * line_size`.
    #[must_use]
    pub fn new(name: &str, capacity: usize, ways: usize, line_size: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be non-zero");
        assert!(ways > 0, "cache ways must be non-zero");
        assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            capacity.is_multiple_of(ways * line_size),
            "capacity {capacity} not divisible by ways*line {}",
            ways * line_size
        );
        CacheConfig {
            name: name.to_owned(),
            capacity,
            ways,
            line_size,
        }
    }

    /// Number of sets implied by the geometry.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.capacity / (self.ways * self.line_size)
    }
}

/// Hit/miss statistics for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss rate in `[0, 1]`; zero when no accesses were made.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Accumulate another stats record into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.writebacks += other.writebacks;
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    dirty: bool,
    /// Monotone recency stamp; larger = more recently used.
    lru: u64,
}

/// A set-associative, write-back, write-allocate cache with LRU replacement.
///
/// # Examples
///
/// ```
/// use tnpu_sim::cache::{Cache, CacheConfig, AccessKind};
/// use tnpu_sim::Addr;
///
/// let mut c = Cache::new(CacheConfig::new("mac", 8192, 8, 64));
/// assert!(c.access(Addr(0), AccessKind::Write).is_miss());
/// assert!(c.access(Addr(32), AccessKind::Read).is_hit()); // same line
/// assert_eq!(c.stats().misses, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Vec<Line>>,
    stats: CacheStats,
    tick: u64,
    /// `log2(line_size)`: an address's line number is `addr >> line_shift`.
    line_shift: u32,
    /// `log2(set count)`: a line number's tag is `line >> set_shift`.
    set_shift: u32,
}

impl Cache {
    /// Build an empty cache with the given geometry.
    ///
    /// Both the line size and the set count are powers of two, so every
    /// index is a shift and a mask rather than two 64-bit divisions.
    ///
    /// # Panics
    ///
    /// Panics if the set count (`capacity / (ways * line_size)`) is not a
    /// power of two. [`CacheConfig`]'s fields are public, so this is the
    /// one check every geometry passes through. Every in-tree geometry
    /// meets it: the paper default has 8/8/16 sets (counter/hash/MAC),
    /// `with_cache_scale` multiplies capacities by a power of two, the
    /// tree-less engine's version cache has 16 sets, the benchmark's
    /// micro cache 8, and the test caches 2 or 8.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let set_count = config.sets();
        assert!(
            set_count.is_power_of_two(),
            "set count {set_count} must be a power of two"
        );
        // `vec![v; n]` clones `v`, and `Vec: Clone` clones only contents —
        // not capacity — so each set must be allocated individually or every
        // set re-allocates (up to log2(ways) times) during warm-up.
        let sets = (0..set_count)
            .map(|_| Vec::with_capacity(config.ways))
            .collect();
        Cache {
            line_shift: config.line_size.trailing_zeros(),
            set_shift: set_count.trailing_zeros(),
            config,
            sets,
            stats: CacheStats::default(),
            tick: 0,
        }
    }

    /// The cache geometry.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reset statistics (contents are kept).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Drop all contents, returning the base addresses of dirty lines in
    /// address order — each is a write-back the caller must account as DRAM
    /// traffic (as with [`invalidate`]); dropping them silently undercounts
    /// traffic for any flow that flushes metadata caches mid-run. Each
    /// reported victim also counts toward [`CacheStats::writebacks`].
    /// Statistics are preserved; use [`reset_stats`] to clear them.
    ///
    /// The LRU tick restarts from zero: with every line dropped, stamps
    /// only matter relatively among lines inserted *after* the flush, so
    /// rebasing cannot change any future eviction decision — and a flushed,
    /// stat-reset cache is indistinguishable from a fresh one (which the
    /// engine round-trip tests rely on).
    ///
    /// [`invalidate`]: Cache::invalidate
    /// [`reset_stats`]: Cache::reset_stats
    pub fn flush(&mut self) -> Vec<Addr> {
        let mut victims = Vec::new();
        for (set_idx, set) in self.sets.iter().enumerate() {
            for line in set.iter().filter(|l| l.dirty) {
                victims.push(self.line_addr(line.tag, set_idx));
            }
        }
        self.sets.iter_mut().for_each(Vec::clear);
        self.tick = 0;
        victims.sort_unstable();
        self.stats.writebacks += victims.len() as u64;
        victims
    }

    fn index(&self, addr: Addr) -> (usize, u64) {
        let line = addr.0 >> self.line_shift;
        let set = usize::try_from(line & ((1 << self.set_shift) - 1))
            .expect("set index is below the set count");
        (set, line >> self.set_shift)
    }

    /// Base address of the line with `tag` in set `set_idx` — the inverse
    /// of [`Cache::index`].
    fn line_addr(&self, tag: u64, set_idx: usize) -> Addr {
        Addr(((tag << self.set_shift) | set_idx as u64) << self.line_shift)
    }

    /// Access the line containing `addr`.
    ///
    /// On a miss the line is allocated (write-allocate for both kinds); if a
    /// dirty victim is evicted, its base address is returned in the outcome
    /// so the caller can account for write-back traffic.
    pub fn access(&mut self, addr: Addr, kind: AccessKind) -> CacheOutcome {
        self.access_repeated(addr, kind, 1)
    }

    /// Access the line containing `addr` `repeats` times back to back.
    ///
    /// State-equivalent to calling [`access`] `repeats` times in a row with
    /// no interleaved accesses: only the first access can miss or evict (the
    /// line is resident afterwards), so the remaining `repeats - 1` are hits
    /// that advance the LRU tick and the hit counter. The final LRU stamp of
    /// the line equals the tick after the last repeat — exactly what the
    /// sequential loop would leave behind. This is the run-batched engines'
    /// workhorse: a run of data blocks sharing one metadata block becomes a
    /// single tag lookup instead of one per data block.
    ///
    /// All repeats are applied in one index and one set scan: the tick
    /// advances by `repeats` up front, a hit stamps the line with the final
    /// tick, and a miss counts one miss plus `repeats - 1` hits and inserts
    /// the line with the final tick. The LRU victim is chosen among the
    /// lines already resident, all stamped before this access, so stamping
    /// the new line with the final rather than the first tick changes no
    /// eviction.
    ///
    /// Returns the outcome of the *first* access (the only one that can
    /// move data).
    ///
    /// # Panics
    ///
    /// Panics if `repeats` is zero.
    ///
    /// [`access`]: Cache::access
    pub fn access_repeated(&mut self, addr: Addr, kind: AccessKind, repeats: u64) -> CacheOutcome {
        assert!(repeats > 0, "access_repeated wants at least one access");
        self.tick += repeats;
        let tick = self.tick;
        let ways = self.config.ways;
        let (set_idx, tag) = self.index(addr);
        let set = &mut self.sets[set_idx];

        if let Some(line) = set.iter_mut().find(|l| l.tag == tag) {
            line.lru = tick;
            if kind == AccessKind::Write {
                line.dirty = true;
            }
            self.stats.hits += repeats;
            return CacheOutcome::Hit;
        }

        self.stats.misses += 1;
        self.stats.hits += repeats - 1;
        let mut victim = None;
        if set.len() >= ways {
            // Evict LRU.
            let (victim_idx, _) = set
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                .expect("non-empty set");
            victim = Some(set.swap_remove(victim_idx));
        }
        set.push(Line {
            tag,
            dirty: kind == AccessKind::Write,
            lru: tick,
        });
        let writeback = match victim {
            Some(v) if v.dirty => {
                self.stats.writebacks += 1;
                Some(self.line_addr(v.tag, set_idx))
            }
            _ => None,
        };
        CacheOutcome::Miss { writeback }
    }

    /// Access `n_lines` consecutive lines starting at the line containing
    /// `base`, once each, reporting each line's outcome to `f` in order.
    ///
    /// State-equivalent to `n_lines` sequential [`access`] calls at
    /// `base`, `base + line_size`, ... — same hits, misses and write-backs
    /// in the same order. Used by the run-batched engine paths when a run
    /// touches each covered metadata line exactly once (fine-grained
    /// gathers).
    ///
    /// [`access`]: Cache::access
    pub fn access_many(
        &mut self,
        base: Addr,
        n_lines: u64,
        kind: AccessKind,
        mut f: impl FnMut(CacheOutcome),
    ) {
        let line_size = 1 << self.line_shift;
        let start = base.0 >> self.line_shift << self.line_shift;
        for i in 0..n_lines {
            f(self.access(Addr(start + i * line_size), kind));
        }
    }

    /// Whether the line containing `addr` is currently resident (no state
    /// change, no statistics update).
    #[must_use]
    pub fn probe(&self, addr: Addr) -> bool {
        let (set_idx, tag) = self.index(addr);
        self.sets[set_idx].iter().any(|l| l.tag == tag)
    }

    /// Invalidate the line containing `addr` if resident. Returns the base
    /// address of the line if it was dirty (caller accounts the write-back).
    pub fn invalidate(&mut self, addr: Addr) -> Option<Addr> {
        let (set_idx, tag) = self.index(addr);
        let set = &mut self.sets[set_idx];
        let pos = set.iter().position(|l| l.tag == tag)?;
        if !set.swap_remove(pos).dirty {
            return None;
        }
        self.stats.writebacks += 1;
        Some(self.line_addr(tag, set_idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 2 sets x 2 ways x 64 B = 256 B
        Cache::new(CacheConfig::new("t", 256, 2, 64))
    }

    #[test]
    fn geometry() {
        let c = small();
        assert_eq!(c.config().sets(), 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        let _ = CacheConfig::new("t", 256, 2, 48);
    }

    #[test]
    #[should_panic(expected = "set count 3 must be a power of two")]
    fn non_power_of_two_set_count_panics() {
        // 192 B / (1 way x 64 B) = 3 sets: a valid `CacheConfig`, but not
        // an indexable cache.
        let _ = Cache::new(CacheConfig::new("t", 192, 1, 64));
    }

    #[test]
    fn hit_after_miss() {
        let mut c = small();
        assert!(c.access(Addr(0), AccessKind::Read).is_miss());
        assert!(c.access(Addr(63), AccessKind::Read).is_hit());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Set 0 holds lines with even line numbers: 0, 2, 4 (addresses 0, 128, 256).
        c.access(Addr(0), AccessKind::Read);
        c.access(Addr(128), AccessKind::Read);
        // Touch line 0 so line 128's line becomes LRU.
        c.access(Addr(0), AccessKind::Read);
        // Allocate third line in set 0 -> evicts 128.
        c.access(Addr(256), AccessKind::Read);
        assert!(c.probe(Addr(0)));
        assert!(!c.probe(Addr(128)));
        assert!(c.probe(Addr(256)));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        c.access(Addr(0), AccessKind::Write);
        c.access(Addr(128), AccessKind::Read);
        let out = c.access(Addr(256), AccessKind::Read);
        // LRU victim is line at 0, which is dirty.
        assert_eq!(out.writeback(), Some(Addr(0)));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_no_writeback() {
        let mut c = small();
        c.access(Addr(0), AccessKind::Read);
        c.access(Addr(128), AccessKind::Read);
        let out = c.access(Addr(256), AccessKind::Read);
        assert_eq!(out.writeback(), None);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        c.access(Addr(0), AccessKind::Read);
        c.access(Addr(0), AccessKind::Write);
        c.access(Addr(128), AccessKind::Read);
        let out = c.access(Addr(256), AccessKind::Read);
        assert_eq!(out.writeback(), Some(Addr(0)));
    }

    #[test]
    fn invalidate_dirty_reports_address() {
        let mut c = small();
        c.access(Addr(192), AccessKind::Write); // line 3, set 1
        assert_eq!(c.invalidate(Addr(192)), Some(Addr(192)));
        assert!(!c.probe(Addr(192)));
        assert_eq!(c.invalidate(Addr(192)), None);
    }

    #[test]
    fn flush_clears_contents_keeps_stats() {
        let mut c = small();
        c.access(Addr(0), AccessKind::Write);
        c.flush();
        assert!(!c.probe(Addr(0)));
        assert_eq!(c.stats().accesses(), 1, "flush preserves statistics");
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    fn flush_reports_dirty_victims() {
        // Regression test: flush used to drop dirty lines silently, losing
        // the write-back traffic they represent.
        let mut c = small();
        c.access(Addr(0), AccessKind::Write); // line 0, set 0 — dirty
        c.access(Addr(64), AccessKind::Read); // line 1, set 1 — clean
        c.access(Addr(192), AccessKind::Write); // line 3, set 1 — dirty
        let victims = c.flush();
        assert_eq!(
            victims,
            vec![Addr(0), Addr(192)],
            "dirty lines only, in order"
        );
        assert_eq!(c.stats().writebacks, 2);
        // A second flush finds nothing.
        assert!(c.flush().is_empty());
        assert_eq!(c.stats().writebacks, 2);
    }

    #[test]
    fn flush_matches_invalidate_accounting() {
        let mut a = small();
        let mut b = small();
        for cache in [&mut a, &mut b] {
            cache.access(Addr(0), AccessKind::Write);
            cache.access(Addr(192), AccessKind::Write);
        }
        let flushed = a.flush();
        let mut invalidated: Vec<Addr> = [Addr(0), Addr(192)]
            .iter()
            .filter_map(|&x| b.invalidate(x))
            .collect();
        invalidated.sort_unstable();
        assert_eq!(flushed, invalidated);
        assert_eq!(a.stats().writebacks, b.stats().writebacks);
    }

    #[test]
    fn access_repeated_is_state_equivalent_to_sequential_accesses() {
        // Exercise hit-first, miss-first, and dirty-eviction-first starts,
        // with interleaved single accesses before/after, and require the
        // *entire* cache state (tags, dirty bits, exact LRU stamps, tick,
        // stats) to match the sequential reference.
        for warmup in [&[][..], &[Addr(0)][..], &[Addr(0), Addr(128)][..]] {
            for kind in [AccessKind::Read, AccessKind::Write] {
                for repeats in [1u64, 2, 7] {
                    let mut batched = small();
                    let mut reference = small();
                    for &w in warmup {
                        batched.access(w, AccessKind::Write);
                        reference.access(w, AccessKind::Write);
                    }
                    let got = batched.access_repeated(Addr(256), kind, repeats);
                    let want = reference.access(Addr(256), kind);
                    for _ in 1..repeats {
                        assert!(reference.access(Addr(256), kind).is_hit());
                    }
                    assert_eq!(got, want, "first outcome (repeats={repeats})");
                    // Follow-up accesses must behave identically too.
                    assert_eq!(
                        batched.access(Addr(384), AccessKind::Read),
                        reference.access(Addr(384), AccessKind::Read)
                    );
                    assert_eq!(
                        format!("{batched:?}"),
                        format!("{reference:?}"),
                        "kind={kind:?} repeats={repeats} warmup={warmup:?}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one access")]
    fn access_repeated_rejects_zero() {
        let _ = small().access_repeated(Addr(0), AccessKind::Read, 0);
    }

    #[test]
    fn access_many_is_state_equivalent_to_sequential_accesses() {
        // Same hits/misses/writebacks in the same order, and identical final
        // cache state, versus n separate access() calls.
        for kind in [AccessKind::Read, AccessKind::Write] {
            let mut batched = small();
            let mut reference = small();
            for cache in [&mut batched, &mut reference] {
                cache.access(Addr(0), AccessKind::Write);
                cache.access(Addr(128), AccessKind::Write);
            }
            let mut got = Vec::new();
            batched.access_many(Addr(70), 5, kind, |o| got.push(o));
            let want: Vec<CacheOutcome> = (0..5)
                .map(|i| reference.access(Addr(64 + i * 64), kind))
                .collect();
            assert_eq!(got, want, "kind={kind:?}");
            assert_eq!(format!("{batched:?}"), format!("{reference:?}"));
        }
    }

    #[test]
    fn access_many_of_zero_lines_is_a_noop() {
        let mut c = small();
        c.access_many(Addr(0), 0, AccessKind::Read, |_| panic!("no outcomes"));
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    fn miss_rate() {
        let mut c = small();
        c.access(Addr(0), AccessKind::Read);
        c.access(Addr(0), AccessKind::Read);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sets_are_independent() {
        let mut c = small();
        // Fill set 0 beyond capacity; set 1 must be untouched.
        for i in 0..4u64 {
            c.access(Addr(i * 128), AccessKind::Read);
        }
        c.access(Addr(64), AccessKind::Read); // set 1
        assert!(c.probe(Addr(64)));
    }
}

/// The division-based cache that the shift-and-mask `Cache` above
/// replaced, kept unchanged as the lockstep reference: it indexes with
/// `/` and `%` by the line size and set count, and applies
/// `access_repeated` as one access plus a rescan.
#[cfg(test)]
mod reference {
    use super::{AccessKind, CacheConfig, CacheOutcome, CacheStats, Line};
    use crate::Addr;

    #[derive(Debug, Clone)]
    pub struct Cache {
        config: CacheConfig,
        sets: Vec<Vec<Line>>,
        stats: CacheStats,
        tick: u64,
    }

    impl Cache {
        pub fn new(config: CacheConfig) -> Self {
            let sets = (0..config.sets())
                .map(|_| Vec::with_capacity(config.ways))
                .collect();
            Cache {
                config,
                sets,
                stats: CacheStats::default(),
                tick: 0,
            }
        }

        pub fn stats(&self) -> CacheStats {
            self.stats
        }

        pub fn reset_stats(&mut self) {
            self.stats = CacheStats::default();
        }

        pub fn flush(&mut self) -> Vec<Addr> {
            let line_size = self.config.line_size as u64;
            let sets = self.sets.len() as u64;
            let mut victims = Vec::new();
            for (set_idx, set) in self.sets.iter_mut().enumerate() {
                for line in set.drain(..) {
                    if line.dirty {
                        let line_no = line.tag * sets + set_idx as u64;
                        victims.push(Addr(line_no * line_size));
                    }
                }
            }
            self.tick = 0;
            victims.sort_unstable();
            self.stats.writebacks += victims.len() as u64;
            victims
        }

        fn index(&self, addr: Addr) -> (usize, u64) {
            let line = addr.0 / self.config.line_size as u64;
            let sets = self.sets.len() as u64;
            let set = usize::try_from(line % sets).expect("set index is below the set count");
            (set, line / sets)
        }

        pub fn access(&mut self, addr: Addr, kind: AccessKind) -> CacheOutcome {
            self.tick += 1;
            let tick = self.tick;
            let ways = self.config.ways;
            let line_size = self.config.line_size as u64;
            let sets = self.sets.len() as u64;
            let (set_idx, tag) = self.index(addr);
            let set = &mut self.sets[set_idx];

            if let Some(line) = set.iter_mut().find(|l| l.tag == tag) {
                line.lru = tick;
                if kind == AccessKind::Write {
                    line.dirty = true;
                }
                self.stats.hits += 1;
                return CacheOutcome::Hit;
            }

            self.stats.misses += 1;
            let mut writeback = None;
            if set.len() >= ways {
                // Evict LRU.
                let (victim_idx, _) = set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.lru)
                    .expect("non-empty set");
                let victim = set.swap_remove(victim_idx);
                if victim.dirty {
                    self.stats.writebacks += 1;
                    let line_no = victim.tag * sets + set_idx as u64;
                    writeback = Some(Addr(line_no * line_size));
                }
            }
            set.push(Line {
                tag,
                dirty: kind == AccessKind::Write,
                lru: tick,
            });
            CacheOutcome::Miss { writeback }
        }

        pub fn access_repeated(
            &mut self,
            addr: Addr,
            kind: AccessKind,
            repeats: u64,
        ) -> CacheOutcome {
            assert!(repeats > 0, "access_repeated wants at least one access");
            let outcome = self.access(addr, kind);
            let extra = repeats - 1;
            if extra > 0 {
                self.tick += extra;
                self.stats.hits += extra;
                let tick = self.tick;
                let (set_idx, tag) = self.index(addr);
                let line = self.sets[set_idx]
                    .iter_mut()
                    .find(|l| l.tag == tag)
                    .expect("line was just accessed");
                line.lru = tick;
            }
            outcome
        }

        pub fn access_many(
            &mut self,
            base: Addr,
            n_lines: u64,
            kind: AccessKind,
            mut f: impl FnMut(CacheOutcome),
        ) {
            let line_size = self.config.line_size as u64;
            let start = base.0 / line_size * line_size;
            for i in 0..n_lines {
                f(self.access(Addr(start + i * line_size), kind));
            }
        }

        pub fn probe(&self, addr: Addr) -> bool {
            let (set_idx, tag) = self.index(addr);
            self.sets[set_idx].iter().any(|l| l.tag == tag)
        }

        pub fn invalidate(&mut self, addr: Addr) -> Option<Addr> {
            let line_size = self.config.line_size as u64;
            let sets = self.sets.len() as u64;
            let (set_idx, tag) = self.index(addr);
            let set = &mut self.sets[set_idx];
            if let Some(pos) = set.iter().position(|l| l.tag == tag) {
                let victim = set.swap_remove(pos);
                if victim.dirty {
                    self.stats.writebacks += 1;
                    let line_no = victim.tag * sets + set_idx as u64;
                    return Some(Addr(line_no * line_size));
                }
            }
            None
        }
    }
}

#[cfg(test)]
mod lockstep {
    use super::*;
    use proptest::prelude::*;

    const SETS: [usize; 4] = [1, 2, 16, 64];
    const WAYS: [usize; 3] = [1, 2, 8];
    const LINES: [usize; 2] = [32, 64];

    proptest! {
        /// Random operation sequences over every small geometry leave the
        /// shift-and-mask cache and the division-based reference in step:
        /// the same outcomes, write-back victims, probe results and
        /// statistics after every operation, and the same resident lines at
        /// the end. Addresses span four times the capacity, so sets
        /// overflow and dirty lines get evicted, in a low region and in one
        /// at 2^40 where tags are large.
        #[test]
        fn shift_and_mask_cache_matches_the_division_reference(
            geometry in (0usize..4, 0usize..3, 0usize..2),
            ops in prop::collection::vec(
                (0u8..7, any::<u64>(), 1u64..=200, any::<bool>(), any::<bool>()),
                1..160,
            ),
        ) {
            let (sets, ways, line) = (SETS[geometry.0], WAYS[geometry.1], LINES[geometry.2]);
            let config = CacheConfig::new("lockstep", sets * ways * line, ways, line);
            let mut fast = Cache::new(config.clone());
            let mut slow = reference::Cache::new(config);
            let span = 4 * (sets * ways * line) as u64;
            for (op, raw, n, write, high) in ops {
                let addr = Addr(if high { 1 << 40 } else { 0 } + raw % span);
                let kind = if write { AccessKind::Write } else { AccessKind::Read };
                match op {
                    0 => prop_assert_eq!(fast.access(addr, kind), slow.access(addr, kind)),
                    1 => prop_assert_eq!(
                        fast.access_repeated(addr, kind, n),
                        slow.access_repeated(addr, kind, n)
                    ),
                    2 => {
                        let lines = n % 24;
                        let (mut got, mut want) = (Vec::new(), Vec::new());
                        fast.access_many(addr, lines, kind, |o| got.push(o));
                        slow.access_many(addr, lines, kind, |o| want.push(o));
                        prop_assert_eq!(got, want);
                    }
                    3 => prop_assert_eq!(fast.probe(addr), slow.probe(addr)),
                    4 => prop_assert_eq!(fast.invalidate(addr), slow.invalidate(addr)),
                    5 => prop_assert_eq!(fast.flush(), slow.flush()),
                    _ => {
                        fast.reset_stats();
                        slow.reset_stats();
                    }
                }
                prop_assert_eq!(fast.stats(), slow.stats());
                prop_assert_eq!(fast.probe(addr), slow.probe(addr));
            }
            for base in [0, 1 << 40] {
                for offset in (0..span).step_by(line) {
                    let addr = Addr(base + offset);
                    prop_assert_eq!(fast.probe(addr), slow.probe(addr), "{:?}", addr);
                }
            }
        }
    }
}
