//! A map from vertex ids to `u32` values that indexes an array where it can.
//!
//! Every graph-sized table in the stack — the partitioner's assignment, the
//! slab graph's `id → slot` map, the arena's `id → position` map — is keyed
//! by [`VertexId`]s that, in practice, run densely from 0. A [`VertexIndex`]
//! serves those ids from a plain `Vec<u32>` (one load, no hash, no probe) and
//! sends every other id to an [`FxHashMap`], so sparse ids still work and
//! cost what a hash map costs.
//!
//! # The direct bound
//!
//! Ids below the *direct bound* live in the array, with `u32::MAX` marking
//! an absent id; ids at or above it are hashed. The bound is zero or a power
//! of two. An insert at or above it grows it to the smallest power of two
//! past the id — but only while the new bound stays within
//! `max(4096, 2 × (max(expected, live entries) + 1))` — and the hashed
//! entries below the new bound move into the array. The bound never
//! shrinks. So the array holds at most
//! `max(4096, 2 × (max(expected, high-water entries) + 1))` cells whatever
//! the ids are: a stream of dense ids lives entirely in the array, and a
//! stream of ids spread over the whole `u64` range lives in the hash map
//! beside an array of at most that many cells.
//!
//! `expected` is what the owner declares with
//! [`VertexIndex::with_expected`] (zero for [`VertexIndex::new`]). Without
//! it, dense ids arriving in random order outrun the live count: an id near
//! the top of the range arrives while few entries are live, so it is hashed
//! and moved in later, and until about half the ids are in most inserts
//! take that detour. An index told how many entries to expect takes them
//! into the array as they come.
//!
//! # Order
//!
//! [`VertexIndex::iter`] visits direct ids ascending, then the hashed ones
//! in the map's order. [`VertexIndex::ordered`] visits every entry by
//! ascending id, and that is a contract: every hashed id is at or above the
//! direct bound, so the array's cells in order followed by the hashed ids
//! sorted are all the ids sorted. Only the hashed ids are sorted — none, for
//! the dense ids a stream carries — and that is the one sort by id the
//! freeze, checkpoint and recovery paths pay: they walk an index in order
//! instead of sorting what they collected.

use crate::fxhash::FxHashMap;
use crate::ids::VertexId;
use std::collections::hash_map::Entry;

/// The cell value of an id the index does not hold.
const ABSENT: u32 = u32::MAX;

/// The direct bound may always grow to this many cells, however few
/// entries the index holds.
const MIN_ALLOWANCE: usize = 4096;

/// `v` as an array index, if it fits a `usize`.
fn index_of(v: VertexId) -> Option<usize> {
    usize::try_from(v.raw()).ok()
}

/// A map `VertexId → u32` (values below `u32::MAX`), array-backed for ids
/// below its direct bound and hashed above it (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct VertexIndex {
    /// One cell per id below the direct bound: its value, or [`ABSENT`].
    direct: Vec<u32>,
    /// The entries whose ids are at or above the direct bound.
    hashed: FxHashMap<VertexId, u32>,
    len: usize,
    /// The entries the owner expects; the direct bound may grow as if this
    /// many were live.
    expected: usize,
}

impl VertexIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty index whose direct bound may grow as if `expected` entries
    /// were live (see the module docs). Nothing is allocated up front.
    pub fn with_expected(expected: usize) -> Self {
        Self {
            expected,
            ..Self::default()
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index holds no entry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Cells in the array: the direct bound.
    pub fn direct_cells(&self) -> usize {
        self.direct.len()
    }

    /// `v`'s cell in the array, if `v` is below the direct bound.
    #[inline]
    fn cell(&self, v: VertexId) -> Option<usize> {
        index_of(v).filter(|&i| i < self.direct.len())
    }

    /// The value held for `v`, if any.
    #[inline]
    pub fn get(&self, v: VertexId) -> Option<u32> {
        match self.cell(v).map(|i| self.direct[i]) {
            Some(cell) => (cell != ABSENT).then_some(cell),
            None if self.hashed.is_empty() => None,
            None => self.hashed.get(&v).copied(),
        }
    }

    /// Whether the index holds `v`.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.get(v).is_some()
    }

    /// Hold `value` for `v`, returning the value it replaces.
    ///
    /// # Panics
    ///
    /// If `value` is `u32::MAX`, the mark of an absent id.
    #[inline]
    pub fn insert(&mut self, v: VertexId, value: u32) -> Option<u32> {
        assert_ne!(value, ABSENT, "u32::MAX marks an absent id");
        let held = match self.direct_cell(v) {
            Some(cell) => Some(std::mem::replace(cell, value)).filter(|&c| c != ABSENT),
            None => self.hashed.insert(v, value),
        };
        self.len += usize::from(held.is_none());
        held
    }

    /// Hold `value` for `v` if `v` is absent; if it is held, change nothing
    /// and return the value held in `Err`.
    ///
    /// # Panics
    ///
    /// If `value` is `u32::MAX`, the mark of an absent id.
    #[inline]
    pub fn try_insert(&mut self, v: VertexId, value: u32) -> Result<(), u32> {
        assert_ne!(value, ABSENT, "u32::MAX marks an absent id");
        match self.direct_cell(v) {
            Some(&mut held) if held != ABSENT => return Err(held),
            Some(cell) => *cell = value,
            None => match self.hashed.entry(v) {
                Entry::Occupied(held) => return Err(*held.get()),
                Entry::Vacant(cell) => {
                    cell.insert(value);
                }
            },
        }
        self.len += 1;
        Ok(())
    }

    /// Drop `v`'s entry, returning the value it held.
    #[inline]
    pub fn remove(&mut self, v: VertexId) -> Option<u32> {
        let held = match self.cell(v) {
            Some(i) => {
                Some(std::mem::replace(&mut self.direct[i], ABSENT)).filter(|&c| c != ABSENT)
            }
            None => self.hashed.remove(&v),
        };
        self.len -= usize::from(held.is_some());
        held
    }

    /// Every entry: direct ids ascending, then the hashed ones.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, u32)> + '_ {
        self.direct_entries()
            .chain(self.hashed.iter().map(|(&v, &value)| (v, value)))
    }

    /// Every entry by ascending id: the direct ids as the array holds them,
    /// then the hashed ids, sorted (see the module docs).
    pub fn ordered(&self) -> impl Iterator<Item = (VertexId, u32)> + '_ {
        let mut hashed: Vec<(VertexId, u32)> = self.hashed.iter().map(|(&v, &x)| (v, x)).collect();
        hashed.sort_unstable_by_key(|&(v, _)| v);
        self.direct_entries().chain(hashed)
    }

    /// The entries below the direct bound, ascending.
    fn direct_entries(&self) -> impl Iterator<Item = (VertexId, u32)> + '_ {
        let direct = self.direct.iter().enumerate();
        direct
            .filter(|&(_, &cell)| cell != ABSENT)
            .map(|(i, &cell)| (VertexId::new(i as u64), cell))
    }

    /// The array cell for `v`, growing the direct bound to reach it if the
    /// allowance permits; `None` sends `v` to the hash map.
    #[inline]
    fn direct_cell(&mut self, v: VertexId) -> Option<&mut u32> {
        let i = index_of(v)?;
        if i >= self.direct.len() {
            let bound = i.checked_add(1)?.checked_next_power_of_two()?;
            let allowed = self
                .len
                .max(self.expected)
                .saturating_add(1)
                .saturating_mul(2);
            if bound > MIN_ALLOWANCE.max(allowed) {
                return None;
            }
            self.grow(bound);
        }
        Some(&mut self.direct[i])
    }

    /// Extend the array to `bound` cells and move the hashed entries below
    /// it in.
    #[cold]
    fn grow(&mut self, bound: usize) {
        self.direct.resize(bound, ABSENT);
        let before = self.hashed.len();
        let direct = &mut self.direct;
        self.hashed.retain(
            |&v, &mut value| match index_of(v).and_then(|i| direct.get_mut(i)) {
                Some(cell) => {
                    *cell = value;
                    false
                }
                None => true,
            },
        );
        if self.hashed.len() < before {
            self.hashed.shrink_to_fit();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: u64) -> VertexId {
        VertexId::new(x)
    }

    #[test]
    fn dense_ids_live_in_the_array() {
        let mut index = VertexIndex::new();
        for i in 0..10_000u64 {
            assert_eq!(index.insert(v(i), i as u32), None);
        }
        assert_eq!(index.len(), 10_000);
        assert_eq!(index.direct_cells(), 16_384);
        assert!(index.hashed.is_empty());
        assert_eq!(index.get(v(9_999)), Some(9_999));
        assert_eq!(index.get(v(10_000)), None);
        assert_eq!(index.insert(v(5), 7), Some(5));
        assert_eq!(index.try_insert(v(5), 8), Err(7));
        assert_eq!(index.remove(v(5)), Some(7));
        assert_eq!(index.remove(v(5)), None);
        assert_eq!(index.try_insert(v(5), 8), Ok(()));
        assert_eq!(index.len(), 10_000);
        let ids: Vec<u64> = index.iter().map(|(v, _)| v.raw()).collect();
        assert_eq!(ids, (0..10_000).collect::<Vec<_>>());
    }

    #[test]
    fn sparse_ids_are_hashed_and_move_in_when_the_bound_reaches_them() {
        let mut index = VertexIndex::new();
        for (i, raw) in [u64::MAX, 1 << 40, 5_000, 3].into_iter().enumerate() {
            index.insert(v(raw), i as u32);
        }
        // 3 fits the allowance of 4096 cells; 5 000 would need 8192.
        assert_eq!(index.direct_cells(), 4);
        assert_eq!(index.hashed.len(), 3);
        // 4 096 needs 8 192 cells too, which 4 095 entries allow: from 4 101
        // on the array covers them, and 4 096..=4 100 and 5 000 move in.
        for i in 10..4_200u64 {
            index.insert(v(i), 9);
            assert_eq!(index.direct_cells() == 8_192, i >= 4_101, "{i}");
        }
        assert_eq!(index.hashed.len(), 2);
        assert_eq!(index.get(v(5_000)), Some(2));
        assert_eq!(index.get(v(4_096)), Some(9));
        assert_eq!(index.get(v(u64::MAX)), Some(0));
        assert_eq!(index.remove(v(1 << 40)), Some(1));
        assert_eq!(index.len(), 4_193);
        let ordered: Vec<u64> = index.ordered().map(|(v, _)| v.raw()).collect();
        let mut sorted: Vec<u64> = index.iter().map(|(v, _)| v.raw()).collect();
        sorted.sort_unstable();
        assert_eq!(ordered, sorted);
        assert_eq!(ordered.last(), Some(&u64::MAX));
    }

    /// A fixed shuffle of `0..n`: multiplication by an odd constant is a
    /// bijection modulo a power of two, and ids past `n` are skipped.
    fn shuffled(n: u64) -> Vec<u64> {
        let span = n.next_power_of_two();
        (0..span)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) & (span - 1))
            .filter(|&id| id < n)
            .collect()
    }

    #[test]
    fn shuffled_dense_ids_an_index_expects_never_touch_the_hash_map() {
        let ids = shuffled(50_000);
        assert_eq!(ids.len(), 50_000);
        let mut expecting = VertexIndex::with_expected(50_000);
        let mut unaware = VertexIndex::new();
        let mut hashed_at_some_point = false;
        for (i, &raw) in ids.iter().enumerate() {
            assert_eq!(expecting.insert(v(raw), i as u32), None);
            assert!(expecting.hashed.is_empty(), "{raw} was hashed");
            unaware.insert(v(raw), i as u32);
            hashed_at_some_point |= !unaware.hashed.is_empty();
        }
        // Without the expectation the same order takes the detour.
        assert!(hashed_at_some_point);
        assert_eq!(expecting.direct_cells(), 65_536);
        for (i, &raw) in ids.iter().enumerate() {
            assert_eq!(expecting.get(v(raw)), Some(i as u32));
        }
        let ordered: Vec<u64> = expecting.ordered().map(|(v, _)| v.raw()).collect();
        assert_eq!(ordered, (0..50_000).collect::<Vec<_>>());
    }

    #[test]
    fn sparse_ids_an_index_expects_are_still_hashed_within_the_bound() {
        const EXPECTED: usize = 20_000;
        let bound = MIN_ALLOWANCE.max(2 * (EXPECTED + 1));
        let mut index = VertexIndex::with_expected(EXPECTED);
        for (i, raw) in shuffled(EXPECTED as u64).into_iter().enumerate() {
            let id = raw << 24 | 0x5a5;
            index.insert(v(id), i as u32);
            assert!(
                index.direct_cells() <= bound,
                "{} cells",
                index.direct_cells()
            );
        }
        // Only 0x5a5 itself is below any bound the allowance permits.
        assert_eq!(index.hashed.len(), EXPECTED - 1);
        assert_eq!(index.direct_cells(), 2_048);
        assert_eq!(index.len(), EXPECTED);
        let ordered: Vec<u64> = index.ordered().map(|(v, _)| v.raw()).collect();
        let expect: Vec<u64> = (0..EXPECTED as u64).map(|i| i << 24 | 0x5a5).collect();
        assert_eq!(ordered, expect);
    }
}
