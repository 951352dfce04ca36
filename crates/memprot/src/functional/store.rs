//! Sparse paged storage for per-block state, keyed by 64 B block number.
//!
//! The functional memories keep their ciphertext blocks and MAC tags here.
//! A `BTreeMap` directory holds pages of [`PAGE_SLOTS`] consecutive slots,
//! each page with a presence bitmap. A lookup searches the directory's few
//! dozen pages instead of a map of tens of thousands of blocks, and the
//! slots of a page lie next to each other, so a search for one value is a
//! compare loop over contiguous memory. Unlike one flat vector, a write near
//! the top of the 64-bit address space allocates one page, not every slot
//! below it.

use std::collections::BTreeMap;

/// log2 of [`PAGE_SLOTS`].
const PAGE_SHIFT: u32 = 10;
/// Slots per page: 1,024 blocks, 64 KiB of ciphertext.
const PAGE_SLOTS: usize = 1 << PAGE_SHIFT;

/// `PAGE_SLOTS` consecutive slots and which of them hold a value.
#[derive(Clone)]
struct Page<T> {
    present: [u64; PAGE_SLOTS / 64],
    slots: [T; PAGE_SLOTS],
}

impl<T> Page<T> {
    fn has(&self, slot: usize) -> bool {
        self.present[slot / 64] >> (slot % 64) & 1 == 1
    }
}

/// A sparse map from 64 B block number to a `T`, in pages of 1,024 slots.
#[derive(Clone)]
pub(crate) struct PagedStore<T> {
    pages: BTreeMap<u64, Box<Page<T>>>,
    /// What an empty slot holds; fills each new page.
    blank: T,
}

impl<T: Copy> PagedStore<T> {
    /// An empty store whose unwritten slots hold `blank`.
    pub(crate) fn new(blank: T) -> Self {
        PagedStore {
            pages: BTreeMap::new(),
            blank,
        }
    }

    /// The page number and the slot within it of block `unit`.
    fn locate(unit: u64) -> (u64, usize) {
        (unit >> PAGE_SHIFT, (unit % PAGE_SLOTS as u64) as usize)
    }

    /// The value stored for `unit`, if any.
    pub(crate) fn get(&self, unit: u64) -> Option<&T> {
        let (page, slot) = Self::locate(unit);
        let page = self.pages.get(&page)?;
        page.has(slot).then(|| &page.slots[slot])
    }

    /// The value stored for `unit`, mutably, if any.
    pub(crate) fn get_mut(&mut self, unit: u64) -> Option<&mut T> {
        let (page, slot) = Self::locate(unit);
        let page = self.pages.get_mut(&page)?;
        if page.has(slot) {
            Some(&mut page.slots[slot])
        } else {
            None
        }
    }

    /// Store `value` for `unit`, replacing any earlier value.
    pub(crate) fn insert(&mut self, unit: u64, value: T) {
        let (page, slot) = Self::locate(unit);
        let blank = self.blank;
        let page = self.pages.entry(page).or_insert_with(|| {
            Box::new(Page {
                present: [0; PAGE_SLOTS / 64],
                slots: [blank; PAGE_SLOTS],
            })
        });
        page.present[slot / 64] |= 1 << (slot % 64);
        page.slots[slot] = value;
    }

    /// Every stored `(unit, value)`, in block order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        self.pages.iter().flat_map(|(&page, p)| {
            (0..PAGE_SLOTS)
                .filter(|&slot| p.has(slot))
                .map(move |slot| ((page << PAGE_SHIFT) | slot as u64, &p.slots[slot]))
        })
    }

    /// The units holding exactly `value`, in block order. Each page is one
    /// compare loop over its slots; only a match consults the bitmap.
    pub(crate) fn units_holding(&self, value: T) -> impl Iterator<Item = u64> + '_
    where
        T: PartialEq,
    {
        self.pages.iter().flat_map(move |(&page, p)| {
            p.slots
                .iter()
                .enumerate()
                .filter(move |&(slot, v)| *v == value && p.has(slot))
                .map(move |(slot, _)| (page << PAGE_SHIFT) | slot as u64)
        })
    }
}

impl<T: Copy + std::fmt::Debug> std::fmt::Debug for PagedStore<T> {
    /// The stored entries in block order, as a map prints them.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Units inside one page, on either side of the first page boundary,
    /// and at the top of the block-number space.
    const UNITS: [u64; 8] = [0, 1, 63, 64, 1_023, 1_024, (1 << 58) - 2, (1 << 58) - 1];

    #[test]
    fn far_units_allocate_one_page_each() {
        let mut s = PagedStore::new(0u64);
        s.insert(u64::MAX, 7);
        s.insert(3, 9);
        assert_eq!(s.pages.len(), 2);
        assert_eq!(s.iter().count(), 2);
        assert_eq!(s.get(u64::MAX), Some(&7));
        assert_eq!(s.get(u64::MAX - 1), None, "a blank slot is not a value");
        let all: Vec<_> = s.iter().collect();
        assert_eq!(all, [(3, &9), (u64::MAX, &7)]);
    }

    proptest! {
        /// The store answers every query as a `BTreeMap` driven by the
        /// same inserts and in-place updates does.
        #[test]
        fn store_matches_a_btreemap(
            ops in prop::collection::vec((0u8..3, 0usize..UNITS.len(), 0u64..4), 1..60),
        ) {
            let mut store = PagedStore::new(0u64);
            let mut map = BTreeMap::new();
            for (kind, at, value) in ops {
                let unit = UNITS[at];
                match kind {
                    0 => {
                        store.insert(unit, value);
                        map.insert(unit, value);
                    }
                    1 => {
                        if let Some(v) = store.get_mut(unit) {
                            *v += 1;
                        }
                        if let Some(v) = map.get_mut(&unit) {
                            *v += 1;
                        }
                    }
                    _ => prop_assert_eq!(store.get(unit), map.get(&unit)),
                }
                prop_assert_eq!(store.iter().count(), map.len());
                let stored: Vec<_> = store.iter().map(|(u, &v)| (u, v)).collect();
                let mapped: Vec<_> = map.iter().map(|(&u, &v)| (u, v)).collect();
                prop_assert_eq!(stored, mapped);
                let holding: Vec<_> = store.units_holding(value).collect();
                let expected: Vec<_> = map
                    .iter()
                    .filter(|&(_, &v)| v == value)
                    .map(|(&u, _)| u)
                    .collect();
                prop_assert_eq!(holding, expected);
            }
        }
    }
}
