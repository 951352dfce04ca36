//! DMA transfer descriptors and their 64 B block streams.
//!
//! A `mvin`/`mvout` instruction moves one tile between DRAM and the SPM.
//! Tiles of row-major matrices are 2-D slabs: `rows` segments of
//! `row_bytes`, `stride` apart. The *stride* is what produces the paper's
//! fine-grained behaviour: a tile of a matrix with a large row stride (a
//! vocabulary-sized projection, an embedding gather) touches a different
//! counter/MAC block region on every row.

use tnpu_sim::{Addr, BlockAddr, BLOCK_SIZE};

pub use tnpu_sim::BlockRun;

/// Incremental assembler of maximal [`BlockRun`]s from a stream of byte
/// segments, mirroring the coalescing DMA engine: a segment whose first
/// block equals the previously visited block drops that duplicate access,
/// and a segment that starts exactly one block past the current run extends
/// it instead of opening a new one.
struct RunBuilder {
    cur: Option<BlockRun>,
}

impl RunBuilder {
    fn new() -> Self {
        RunBuilder { cur: None }
    }

    /// Feed one `[start, start + bytes)` segment, emitting any run that can
    /// no longer grow.
    fn push(&mut self, start: Addr, bytes: u64, f: &mut impl FnMut(BlockRun)) {
        if bytes == 0 {
            return;
        }
        let mut first = start.block().0;
        let last = start
            .0
            .checked_add(bytes - 1)
            .expect("DMA segment end overflows u64")
            / BLOCK_SIZE as u64;
        if let Some(cur) = &mut self.cur {
            // Runs come from real byte addresses, so block indices stay
            // far below u64::MAX / BLOCK_SIZE; checked ops keep any
            // violated assumption loud instead of wrapping.
            let cur_last = cur
                .first
                .0
                .checked_add(cur.len - 1)
                .expect("run end overflows u64");
            if first == cur_last {
                // Coalesce: the engine stays on the block it just touched.
                first = cur_last.checked_add(1).expect("run end overflows u64");
            }
            if first > last {
                return; // segment fully coalesced into the previous access
            }
            if first == cur_last.checked_add(1).expect("run end overflows u64") {
                cur.len = cur
                    .len
                    .checked_add(last - first)
                    .and_then(|l| l.checked_add(1))
                    .expect("run length overflows u64");
                return;
            }
            f(*cur);
        }
        self.cur = Some(BlockRun {
            first: BlockAddr(first),
            len: (last - first)
                .checked_add(1)
                .expect("run length overflows u64"),
        });
    }

    fn finish(self, f: &mut impl FnMut(BlockRun)) {
        if let Some(cur) = self.cur {
            f(cur);
        }
    }
}

/// Address pattern of one DMA transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DmaPattern {
    /// One contiguous byte range.
    Contiguous {
        /// Start address.
        base: Addr,
        /// Length in bytes.
        bytes: u64,
    },
    /// `rows` segments of `row_bytes`, starting `stride` apart.
    Strided {
        /// First segment address.
        base: Addr,
        /// Number of segments.
        rows: u64,
        /// Bytes per segment.
        row_bytes: u64,
        /// Distance between segment starts.
        stride: u64,
    },
    /// Arbitrary same-length segments (embedding gathers).
    Scattered {
        /// Segment start addresses.
        rows: Vec<Addr>,
        /// Bytes per segment.
        row_bytes: u64,
    },
}

impl DmaPattern {
    /// Total payload bytes moved.
    ///
    /// Panics if `rows * row_bytes` overflows `u64`: a descriptor that
    /// large cannot describe a real transfer, and wrapping here would
    /// silently under-account traffic downstream.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        match self {
            DmaPattern::Contiguous { bytes, .. } => *bytes,
            DmaPattern::Strided {
                rows, row_bytes, ..
            } => rows
                .checked_mul(*row_bytes)
                .expect("strided DMA payload overflows u64"),
            DmaPattern::Scattered { rows, row_bytes } => (rows.len() as u64)
                .checked_mul(*row_bytes)
                .expect("scattered DMA payload overflows u64"),
        }
    }

    /// The maximal runs of consecutive 64 B blocks this transfer touches,
    /// in access order. Adjacent segments that tile contiguously merge into
    /// one run; a segment that re-enters the block the engine just touched
    /// drops that duplicate access (the same coalescing
    /// [`for_each_block`] models, expressed as runs). Emitted runs are
    /// never empty.
    ///
    /// [`for_each_block`]: DmaPattern::for_each_block
    pub fn for_each_run(&self, mut f: impl FnMut(BlockRun)) {
        let mut b = RunBuilder::new();
        match self {
            DmaPattern::Contiguous { base, bytes } => b.push(*base, *bytes, &mut f),
            // Each row starts where the last one ended, so the rows always
            // coalesce: push the slab whole instead of row by row.
            DmaPattern::Strided {
                base,
                row_bytes,
                stride,
                ..
            } if row_bytes == stride => b.push(*base, self.bytes(), &mut f),
            DmaPattern::Strided {
                base,
                rows,
                row_bytes,
                stride,
            } => {
                for r in 0..*rows {
                    let start = base.offset(
                        r.checked_mul(*stride)
                            .expect("strided DMA row offset overflows u64"),
                    );
                    b.push(start, *row_bytes, &mut f);
                }
            }
            DmaPattern::Scattered { rows, row_bytes } => {
                for start in rows {
                    b.push(*start, *row_bytes, &mut f);
                }
            }
        }
        b.finish(&mut f);
    }

    /// The distinct 64 B blocks this transfer touches, in access order.
    /// Segments that share a block (contiguous rows) still produce one
    /// access per segment-block pair only when the block changes, mirroring
    /// a DMA engine that coalesces sequential block accesses.
    pub fn for_each_block(&self, mut f: impl FnMut(BlockAddr)) {
        self.for_each_run(|run| {
            for block in run.blocks() {
                f(block);
            }
        });
    }

    /// Count of block accesses this transfer performs.
    ///
    /// Closed-form for `Contiguous` and `Strided` (no block enumeration);
    /// `Scattered` is summed per segment through [`for_each_run`], which is
    /// O(segments) rather than O(blocks).
    ///
    /// [`for_each_run`]: DmaPattern::for_each_run
    #[must_use]
    pub fn block_count(&self) -> u64 {
        match self {
            DmaPattern::Contiguous { base, bytes } => tnpu_sim::block_count(*base, *bytes),
            DmaPattern::Strided {
                base,
                rows,
                row_bytes,
                stride,
            } => strided_block_count(*base, *rows, *row_bytes, *stride),
            DmaPattern::Scattered { .. } => {
                let mut n: u64 = 0;
                self.for_each_run(|run| n = n.saturating_add(run.len));
                n
            }
        }
    }
}

/// Closed-form block-access count for a strided pattern, matching the
/// coalescing semantics of [`DmaPattern::for_each_run`] without enumerating
/// a single block.
///
/// Row `r` starts at in-block byte offset `m_r = (base + r*stride) % 64`
/// and touches `blk(m_r) = (m_r + row_bytes - 1)/64 + 1` blocks; its first
/// access is dropped when it lands on the block the previous row ended in,
/// i.e. when `(m + stride)/64 == (m + row_bytes - 1)/64` for the previous
/// row's offset `m` (the whole-number block parts cancel, so only the
/// offsets matter). `m_r` is periodic in `r` with period
/// `64 / gcd(stride % 64, 64) <= 64`, so both sums reduce to full-period
/// totals plus a remainder prefix — O(period), not O(rows * row_bytes).
fn strided_block_count(base: Addr, rows: u64, row_bytes: u64, stride: u64) -> u64 {
    if rows == 0 || row_bytes == 0 {
        return 0;
    }
    // Mirror the enumeration path's overflow behaviour: a descriptor whose
    // last row offset or segment end overflows the address space panics
    // loudly instead of returning a silently-wrapped count.
    let last_start = rows
        .checked_sub(1)
        .and_then(|r| r.checked_mul(stride))
        .and_then(|off| base.0.checked_add(off))
        .expect("strided DMA row offset overflows u64");
    let _ = last_start
        .checked_add(row_bytes - 1)
        .expect("DMA segment end overflows u64");

    let bsz = BLOCK_SIZE as u64;
    // Blocks covered by a row starting at in-block offset `m`. The adds are
    // guarded by the segment-end check above (`m <= base + r*stride`).
    let blk = |m: u64| {
        (m.checked_add(row_bytes - 1)
            .expect("row span overflows u64")
            / bsz)
            .checked_add(1)
            .expect("row block count overflows u64")
    };
    // Whether the *next* row's first access coalesces away, given this
    // row's offset `m`. Saturation is safe: a saturated `m + stride` is far
    // past any row's last block, so the comparison stays false.
    let dup = |m: u64| {
        let row_last = m
            .checked_add(row_bytes - 1)
            .expect("row span overflows u64")
            / bsz;
        let next_first = m.saturating_add(stride) / bsz;
        u64::from(row_last == next_first)
    };

    let s = stride % bsz;
    let period = bsz / gcd64(s, bsz);
    let period_us = usize::try_from(period).expect("period fits usize");
    // Prefix sums of blk/dup over one period of in-block offsets:
    // pre[i] = sum over the first i offsets.
    let mut blk_pre = vec![0u64];
    let mut dup_pre = vec![0u64];
    let mut blk_sum = 0u64;
    let mut dup_sum = 0u64;
    let mut m = base.0 % bsz;
    for _ in 0..period_us {
        blk_sum = blk_sum.saturating_add(blk(m));
        dup_sum = dup_sum.saturating_add(dup(m));
        blk_pre.push(blk_sum);
        dup_pre.push(dup_sum);
        m = m.checked_add(s).expect("in-block offset overflows u64") % bsz;
    }
    // Sum of g(m_r) over the first n rows, via full periods + remainder.
    let period_sum = |pre: &[u64], n: u64| {
        let rem = usize::try_from(n % period).expect("remainder fits usize");
        (n / period)
            .saturating_mul(pre[period_us])
            .saturating_add(pre[rem])
    };
    let total_blk = period_sum(&blk_pre, rows);
    // dup_r describes row r+1 coalescing into row r, so the last row
    // contributes no dup term.
    let total_dup = period_sum(&dup_pre, rows - 1);
    total_blk.saturating_sub(total_dup)
}

fn gcd64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Transfer direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// DRAM → SPM (`mvin`).
    Read,
    /// SPM → DRAM (`mvout`).
    Write,
}

/// One `mvin`/`mvout`: an address pattern plus the security identifiers the
/// CPU-side software supplies (tensor/tile id and version number, §IV-C).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transfer {
    /// Address pattern.
    pub pattern: DmaPattern,
    /// Direction.
    pub dir: Dir,
    /// Tensor this transfer belongs to (version-table index).
    pub tensor_id: u32,
    /// Tile within the tensor (version-table sub-index).
    pub tile_id: u32,
    /// Version number passed to the MAC generator/verifier.
    pub version: u64,
}

impl Transfer {
    /// Payload bytes.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.pattern.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_blocks() {
        let p = DmaPattern::Contiguous {
            base: Addr(0),
            bytes: 256,
        };
        assert_eq!(p.bytes(), 256);
        assert_eq!(p.block_count(), 4);
    }

    #[test]
    fn strided_rows_hit_separate_blocks() {
        // 4 rows of 64 B, 4 KB apart: four distinct blocks.
        let p = DmaPattern::Strided {
            base: Addr(0),
            rows: 4,
            row_bytes: 64,
            stride: 4096,
        };
        let mut blocks = Vec::new();
        p.for_each_block(|b| blocks.push(b));
        assert_eq!(
            blocks,
            vec![BlockAddr(0), BlockAddr(64), BlockAddr(128), BlockAddr(192)]
        );
    }

    #[test]
    fn adjacent_rows_coalesce() {
        // 4 rows of 16 B, 16 B apart = one contiguous 64 B region: the DMA
        // coalesces into a single block access.
        let p = DmaPattern::Strided {
            base: Addr(0),
            rows: 4,
            row_bytes: 16,
            stride: 16,
        };
        assert_eq!(p.block_count(), 1);
        assert_eq!(p.bytes(), 64);
    }

    #[test]
    fn unaligned_row_spans_two_blocks() {
        let p = DmaPattern::Strided {
            base: Addr(32),
            rows: 2,
            row_bytes: 64,
            stride: 4096,
        };
        assert_eq!(p.block_count(), 4);
    }

    #[test]
    fn abutting_strided_rows_yield_the_row_loop_runs() {
        let runs = |p: &DmaPattern| {
            let mut v = Vec::new();
            p.for_each_run(|r| v.push(r));
            v
        };
        for base in [0, 1, 31, 63, 64, 100, 4095] {
            for stride in [0, 1, 2, 32, 64, 100, 4096] {
                for rows in [0, 1, 2, 3, 70] {
                    let strided = DmaPattern::Strided {
                        base: Addr(base),
                        rows,
                        row_bytes: stride,
                        stride,
                    };
                    // The same rows as a gather, which pushes them one by one.
                    let row_loop = DmaPattern::Scattered {
                        rows: (0..rows).map(|r| Addr(base + r * stride)).collect(),
                        row_bytes: stride,
                    };
                    assert_eq!(
                        runs(&strided),
                        runs(&row_loop),
                        "base {base}, stride {stride}, rows {rows}"
                    );
                }
            }
        }
    }

    #[test]
    fn scattered_rows() {
        let p = DmaPattern::Scattered {
            rows: vec![Addr(0), Addr(8192), Addr(128)],
            row_bytes: 128,
        };
        assert_eq!(p.bytes(), 384);
        assert_eq!(p.block_count(), 6);
    }

    #[test]
    fn zero_byte_pattern_touches_nothing() {
        let p = DmaPattern::Contiguous {
            base: Addr(0),
            bytes: 0,
        };
        assert_eq!(p.block_count(), 0);
    }

    #[test]
    #[should_panic(expected = "strided DMA payload overflows u64")]
    fn overflowing_strided_payload_panics() {
        let p = DmaPattern::Strided {
            base: Addr(0),
            rows: u64::MAX,
            row_bytes: 2,
            stride: 64,
        };
        let _ = p.bytes();
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The block stream a per-byte walk of the pattern would produce, with
    /// *consecutive* duplicates removed. This is the reference semantics of
    /// `for_each_block`: the DMA engine coalesces sequential accesses to the
    /// same block but re-issues an access when the stream returns to a block
    /// after leaving it (no global dedup).
    fn naive_blocks(rows: &[(u64, u64)]) -> Vec<BlockAddr> {
        let mut out: Vec<BlockAddr> = Vec::new();
        for &(start, row_bytes) in rows {
            for i in 0..row_bytes {
                let b = Addr(start + i).block();
                if out.last() != Some(&b) {
                    out.push(b);
                }
            }
        }
        out
    }

    fn collected(p: &DmaPattern) -> Vec<BlockAddr> {
        let mut v = Vec::new();
        p.for_each_block(|b| v.push(b));
        v
    }

    /// Any of the three pattern variants, paired with its per-segment
    /// reference description for `naive_blocks`.
    fn arb_pattern() -> impl Strategy<Value = (DmaPattern, Vec<(u64, u64)>)> {
        prop_oneof![
            (0u64..512, 0u64..600).prop_map(|(base, bytes)| (
                DmaPattern::Contiguous {
                    base: Addr(base),
                    bytes
                },
                vec![(base, bytes)],
            )),
            (0u64..512, 0u64..6, 0u64..200, 0u64..512).prop_map(
                |(base, rows, row_bytes, stride)| (
                    DmaPattern::Strided {
                        base: Addr(base),
                        rows,
                        row_bytes,
                        stride,
                    },
                    (0..rows).map(|r| (base + r * stride, row_bytes)).collect(),
                )
            ),
            (prop::collection::vec(0u64..2048, 0..6), 0u64..200).prop_map(|(starts, row_bytes)| (
                DmaPattern::Scattered {
                    rows: starts.iter().copied().map(Addr).collect(),
                    row_bytes,
                },
                starts.iter().map(|&s| (s, row_bytes)).collect(),
            )),
        ]
    }

    proptest! {
        #[test]
        fn runs_concatenate_to_the_block_stream(
            (p, reference) in arb_pattern(),
        ) {
            let mut runs = Vec::new();
            p.for_each_run(|r| runs.push(r));
            // Emitted runs are never empty, and maximal: consecutive runs
            // never abut in ascending order (that would have merged).
            for w in runs.windows(2) {
                prop_assert_ne!(w[1].first.0, w[0].last().0 + 1);
            }
            let from_runs: Vec<BlockAddr> =
                runs.iter().flat_map(|r| r.blocks()).collect();
            prop_assert!(runs.iter().all(|r| r.len >= 1));
            prop_assert_eq!(from_runs, naive_blocks(&reference));
        }

        #[test]
        fn block_count_matches_enumeration((p, _) in arb_pattern()) {
            let mut n = 0u64;
            p.for_each_block(|_| n += 1);
            prop_assert_eq!(p.block_count(), n);
        }

        #[test]
        fn strided_count_matches_enumeration_over_many_periods(
            base in 0u64..512,
            rows in 0u64..200,
            row_bytes in 0u64..200,
            stride in 0u64..512,
        ) {
            let p = DmaPattern::Strided {
                base: Addr(base),
                rows,
                row_bytes,
                stride,
            };
            let mut n = 0u64;
            p.for_each_block(|_| n += 1);
            prop_assert_eq!(p.block_count(), n);
        }

        #[test]
        fn strided_matches_per_byte_enumeration(
            base in 0u64..512,
            rows in 0u64..6,
            row_bytes in 0u64..200,
            stride in 0u64..512,
        ) {
            let p = DmaPattern::Strided {
                base: Addr(base),
                rows,
                row_bytes,
                stride,
            };
            let reference: Vec<(u64, u64)> =
                (0..rows).map(|r| (base + r * stride, row_bytes)).collect();
            prop_assert_eq!(collected(&p), naive_blocks(&reference));
            prop_assert_eq!(p.bytes(), rows * row_bytes);
        }

        #[test]
        fn scattered_matches_per_byte_enumeration(
            starts in prop::collection::vec(0u64..2048, 0..6),
            row_bytes in 0u64..200,
        ) {
            let p = DmaPattern::Scattered {
                rows: starts.iter().map(|&s| Addr(s)).collect(),
                row_bytes,
            };
            let reference: Vec<(u64, u64)> =
                starts.iter().map(|&s| (s, row_bytes)).collect();
            prop_assert_eq!(collected(&p), naive_blocks(&reference));
            prop_assert_eq!(p.bytes(), starts.len() as u64 * row_bytes);
        }

        #[test]
        fn contiguous_matches_per_byte_enumeration(
            base in 0u64..512,
            bytes in 0u64..600,
        ) {
            let p = DmaPattern::Contiguous { base: Addr(base), bytes };
            prop_assert_eq!(collected(&p), naive_blocks(&[(base, bytes)]));
        }
    }
}
