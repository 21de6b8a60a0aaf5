//! One arena for many small lists of vertex ids.
//!
//! A [`ListPool`] holds every adjacency list of its owner — the slab
//! [`LabelledGraph`](crate::LabelledGraph) here, the sliding
//! `StreamWindow` in `loom-partition` — as a block of **one shared arena**.
//! The owner keeps a [`List`] handle per list and passes it back with every
//! call. Blocks come in power-of-two sizes; a list that outgrows its block
//! moves to one of twice the size and the old block goes on the free list of
//! its size, to be handed to whichever list next asks for that size. Once the
//! arena and the free lists have reached the owner's high-water mark, no
//! operation allocates.
//!
//! Lists keep push order. A handle is only meaningful to the pool that
//! filled it; the pool trusts its owner with that, as a `Vec` trusts an
//! index. Handles are twelve bytes — offsets are `u32`, so a slot holding one
//! stays within half a cache line — and an arena therefore spans at most
//! 2³² ids (32 GiB); growing past that is a panic, never a wrapped offset.

use crate::ids::VertexId;

/// A list of vertex ids in a [`ListPool`] block. The empty list owns no
/// block.
#[derive(Debug, Clone, Copy, Default)]
pub struct List {
    start: u32,
    len: u32,
    cap: u32,
}

impl List {
    /// Number of ids in the list.
    #[inline]
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// Whether the list holds no ids.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// The arena behind every list, with a free list of blocks per power-of-two
/// size.
#[derive(Debug, Clone, Default)]
pub struct ListPool {
    arena: Vec<VertexId>,
    /// `free[c]` holds the starts of the unused blocks of `MIN_BLOCK << c`
    /// ids.
    free: Vec<Vec<u32>>,
}

impl ListPool {
    /// Smallest block handed out, in vertex ids.
    const MIN_BLOCK: u32 = 4;

    /// An empty pool whose arena has room for `ids` vertex ids.
    pub fn with_capacity(ids: usize) -> Self {
        Self {
            arena: Vec::with_capacity(ids),
            free: Vec::new(),
        }
    }

    /// Ids the arena spans, free blocks included.
    #[cfg(test)]
    pub(crate) fn arena_len(&self) -> usize {
        self.arena.len()
    }

    fn size_class(cap: u32) -> usize {
        (cap / Self::MIN_BLOCK).trailing_zeros() as usize
    }

    /// The list's ids, in push order.
    #[inline]
    pub fn get(&self, list: List) -> &[VertexId] {
        &self.arena[list.range()]
    }

    /// The `i`-th id of the list. For loops that edit other lists of the
    /// pool while walking this one.
    #[inline]
    pub fn item(&self, list: List, i: usize) -> VertexId {
        debug_assert!(i < list.len(), "item {i} of a list of {}", list.len);
        self.arena[list.start as usize + i]
    }

    /// A new list holding a copy of `items`, in order, in one block.
    pub fn list_from(&mut self, items: &[VertexId]) -> List {
        if items.is_empty() {
            return List::default();
        }
        let len = u32::try_from(items.len()).expect("a list fits u32 offsets");
        let mut list = List {
            start: 0,
            len,
            cap: len
                .checked_next_power_of_two()
                .expect("a list fits u32 offsets")
                .max(Self::MIN_BLOCK),
        };
        list.start = self.take_block(list.cap);
        self.arena[list.range()].copy_from_slice(items);
        list
    }

    /// Append `v`, moving the list to a block of twice the size when its own
    /// is full.
    #[inline]
    pub fn push(&mut self, list: &mut List, v: VertexId) {
        if list.len == list.cap {
            let cap = list.cap.checked_mul(2).expect("a list fits u32 offsets");
            let cap = cap.max(Self::MIN_BLOCK);
            let start = self.take_block(cap);
            self.arena.copy_within(list.range(), start as usize);
            self.release(*list);
            list.start = start;
            list.cap = cap;
        }
        self.arena[(list.start + list.len) as usize] = v;
        list.len += 1;
    }

    #[inline]
    fn take_block(&mut self, cap: u32) -> u32 {
        let recycled = self.free.get_mut(Self::size_class(cap)).and_then(Vec::pop);
        recycled.unwrap_or_else(|| {
            let start = self.arena.len();
            let end = u32::try_from(start + cap as usize).expect("the arena fits u32 offsets");
            self.arena.resize(end as usize, VertexId::new(0));
            end - cap
        })
    }

    /// Put the list's block on its free list. A block keeps its contents
    /// until it is handed out again, so [`ListPool::get`] still reads a
    /// released list until the pool is next pushed to.
    #[inline]
    pub fn release(&mut self, list: List) {
        if list.cap == 0 {
            return;
        }
        let class = Self::size_class(list.cap);
        if self.free.len() <= class {
            self.free.resize_with(class + 1, Vec::new);
        }
        self.free[class].push(list.start);
    }

    /// `swap_remove` the first occurrence of `v`. Returns whether there was
    /// one.
    #[inline]
    pub fn swap_remove_first(&mut self, list: &mut List, v: VertexId) -> bool {
        let items = &mut self.arena[list.range()];
        let Some(pos) = items.iter().position(|&u| u == v) else {
            return false;
        };
        items.swap(pos, items.len() - 1);
        list.len -= 1;
        true
    }

    /// Drop every occurrence of `v`, keeping the order of the rest.
    #[inline]
    pub fn retain_ne(&mut self, list: &mut List, v: VertexId) {
        let items = &mut self.arena[list.range()];
        let mut kept = 0;
        for i in 0..items.len() {
            if items[i] != v {
                items[kept] = items[i];
                kept += 1;
            }
        }
        list.len = kept as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: u64) -> VertexId {
        VertexId::new(x)
    }

    #[test]
    fn lists_keep_push_order_across_block_moves() {
        let mut pool = ListPool::default();
        let (mut a, mut b) = (List::default(), List::default());
        for i in 0..40 {
            pool.push(&mut a, v(i));
            pool.push(&mut b, v(100 + i));
        }
        let expect_a: Vec<_> = (0..40).map(v).collect();
        let expect_b: Vec<_> = (100..140).map(v).collect();
        assert_eq!(pool.get(a), expect_a);
        assert_eq!(pool.get(b), expect_b);
        assert_eq!(pool.item(b, 7), v(107));
        assert_eq!((a.len(), a.is_empty()), (40, false));
        assert!(List::default().is_empty());
    }

    #[test]
    fn released_blocks_are_handed_out_again() {
        let mut pool = ListPool::default();
        let ids: Vec<_> = (0..12).map(v).collect();
        let first = pool.list_from(&ids);
        assert_eq!(pool.get(first), ids);
        let high_water = pool.arena_len();
        pool.release(first);
        // Readable until the pool is next pushed to.
        assert_eq!(pool.get(first), ids);
        let second = pool.list_from(&ids[..9]);
        assert_eq!(pool.get(second), &ids[..9]);
        assert_eq!(pool.arena_len(), high_water, "the 16-block was recycled");
        assert!(pool.list_from(&[]).is_empty());
    }

    #[test]
    fn removal_by_swap_and_by_retain() {
        let mut pool = ListPool::default();
        let mut list = pool.list_from(&[v(1), v(2), v(3), v(2), v(4)]);
        assert!(pool.swap_remove_first(&mut list, v(2)));
        assert_eq!(pool.get(list), &[v(1), v(4), v(3), v(2)]);
        assert!(!pool.swap_remove_first(&mut list, v(9)));
        pool.retain_ne(&mut list, v(4));
        assert_eq!(pool.get(list), &[v(1), v(3), v(2)]);
    }
}
