//! A sliding buffer over a graph stream.
//!
//! LOOM "buffers a sliding window over a graph-stream, and uses LDG to assign
//! both connected sub-graphs and single vertices from the buffer to
//! partitions" (paper §4.1). [`StreamWindow`] is that buffer: it holds up to
//! `capacity` vertices in arrival order together with
//!
//! * the edges *inside* the window (needed to grow candidate motif matches),
//! * the edges from window vertices to already-evicted vertices (needed by
//!   the LDG score at assignment time).
//!
//! Eviction is oldest-first by default; the motif-aware assigner can also
//! remove an arbitrary vertex when a whole motif match is assigned together.
//!
//! # Layout
//!
//! The window is a slab. A buffered vertex occupies one *slot* — its label
//! and two adjacency lists (window / external). The slots are linked oldest
//! first, so a vertex leaves the arrival order in O(1) from anywhere in it,
//! as a motif cluster's members do. Every adjacency list is a block of
//! **one shared arena** of vertex ids. Blocks come in power-of-two sizes; a
//! list that outgrows its block moves to one of twice the size and the old
//! block goes on the free list of its size.
//!
//! One map takes a vertex id to its place. A vertex is either buffered or
//! outside, never both, so the map holds two kinds of entry:
//!
//! * a buffered vertex's slot;
//! * for an outside vertex that some member holds an external edge to, the
//!   members holding one, in list order: the re-entry index. A lone member
//!   is held inline in the entry, and only the second member promotes the
//!   entry to an arena list. Most outside vertices are listed by one member,
//!   so most external edges touch no block; an entry that is a list stays
//!   one until it empties.
//!
//! A vertex changes kind in place: an eviction turns its slot entry into
//! its re-entry entry (or drops it, with no window neighbour to list it),
//! and a re-entry turns it back, each with one probe. The newest slot of the
//! arrival list is the vertex pushed last, which is the source of every
//! edge a `GraphStream` emits after it, so such an edge finds its source
//! without a probe.
//!
//! What is recycled: slots (a free list of indices) and blocks (a free list
//! per size, shared by all slots and the re-entry index, so a hub's block is
//! reused by the next hub wherever it lands). Once the arena, the free lists
//! and the map have reached the stream's high-water mark, no operation
//! allocates.
//!
//! Lists keep push order; eviction removes the leaver from a neighbour's
//! window list with an order-preserving `retain`, edge removal and re-entry
//! `swap_remove` the first occurrence. LDG's tie-breaks downstream see that
//! order, so it is part of the contract — and of the state a checkpoint
//! carries ([`StreamWindow::encode`] / [`StreamWindow::decode`]).
//!
//! # Cost per operation
//!
//! | operation | map probes | list work |
//! |---|---|---|
//! | `push_vertex` | 1 (+ 1 per member on re-entry) | on re-entry, O(members) |
//! | `push_edge` | 1 when the source is the newest vertex, else 2 (3 when only the target is buffered) | 1–2 pushes; none in the re-entry index for an outside vertex's first member |
//! | `remove` | 1 for the leaver's slot and re-entry entry + 1 per window neighbour + 1 per external edge | a `retain` per window neighbour; O(1) on the arrival list, for any vertex; a re-entry entry of one member is dropped without a scan |
//! | `delete` | as `remove`; 1 + 1 per member for an outside vertex | nothing is handed to the neighbours |
//! | `remove_edge` | 2 (+ 1 when one endpoint is outside) | 1–2 scans |

use crate::error::{PartitionError, Result};
use crate::state::{StateReader, StateWriter};
use loom_graph::fxhash::FxHashMap;
use loom_graph::pool::{List, ListPool};
use loom_graph::{Label, VertexId};
use std::collections::hash_map::Entry;

/// Where the endpoints of an incoming edge currently live, from the window's
/// point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgePlacement {
    /// Both endpoints are buffered in the window.
    BothInWindow,
    /// Exactly one endpoint is in the window; the other has left it already.
    OneInWindow {
        /// The endpoint still in the window.
        inside: VertexId,
        /// The endpoint that has already been evicted (or was never seen).
        outside: VertexId,
    },
    /// Neither endpoint is in the window.
    NeitherInWindow,
}

/// A vertex leaving the window, together with everything the assigner needs.
/// The lists are lent from the window's arena: they are readable until the
/// window is next mutated.
#[derive(Debug, Clone, Copy)]
pub struct EvictedVertex<'a> {
    /// The vertex id.
    pub id: VertexId,
    /// Its label.
    pub label: Label,
    /// Neighbours that are still inside the window.
    pub window_neighbours: &'a [VertexId],
    /// Neighbours that already left the window (and are therefore assigned,
    /// or at least known to the partitioner).
    pub external_neighbours: &'a [VertexId],
}

/// The members listing one outside vertex as an external neighbour, in list
/// order: one member inline, more in an arena list.
#[derive(Debug, Clone, Copy)]
enum Members {
    One(VertexId),
    Many(List),
}

impl Members {
    fn len(self) -> usize {
        match self {
            Members::One(_) => 1,
            Members::Many(list) => list.len(),
        }
    }

    /// Append `v`; the second member moves the first into a list.
    fn push(&mut self, lists: &mut ListPool, v: VertexId) {
        match self {
            Members::One(first) => {
                let mut list = List::default();
                lists.push(&mut list, *first);
                lists.push(&mut list, v);
                *self = Members::Many(list);
            }
            Members::Many(list) => lists.push(list, v),
        }
    }
}

/// Where a vertex the window knows stands. A vertex is buffered or outside,
/// never both, so one map holds both.
#[derive(Debug, Clone, Copy)]
enum Place {
    /// Buffered in this slot.
    Buffered(u32),
    /// Outside the window, listed as an external neighbour by these members
    /// (one entry per edge occurrence): the re-entry index.
    Outside(Members),
}

/// The end of the arrival list.
const NIL: u32 = u32::MAX;

/// One buffered vertex.
#[derive(Debug, Clone, Copy)]
struct Slot {
    id: VertexId,
    /// The slots buffered just before and after it (`NIL` at either end).
    prev: u32,
    next: u32,
    label: Label,
    /// Adjacency restricted to window members.
    window: List,
    /// Adjacency to vertices outside the window.
    external: List,
}

/// The sliding window buffer.
#[derive(Debug, Clone)]
pub struct StreamWindow {
    capacity: usize,
    /// The oldest and the newest slot of the arrival list, which links the
    /// buffered vertices oldest first.
    first: u32,
    last: u32,
    /// Every vertex the window knows: the buffered ones with their slot, and
    /// the outside ones some member holds an external edge to, with those
    /// members. The outside entries let a vertex re-entering the window
    /// after eviction reclaim its edges as window edges in O(degree) instead
    /// of leaving stale external entries behind — those would double-count
    /// the edge in the LDG score once the re-entered vertex is evicted
    /// again.
    places: FxHashMap<VertexId, Place>,
    slots: Vec<Slot>,
    free_slots: Vec<usize>,
    lists: ListPool,
}

impl StreamWindow {
    /// Create a window holding at most `capacity` vertices (`capacity` is
    /// clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        // The map churns an entry per arrival, per eviction and per outside
        // vertex. Reserved at a dozen times the window it stays sparse, so a
        // removal leaves an empty bucket rather than a tombstone and the
        // table is not rehashed in place every few hundred operations (grown
        // on demand, a bare window drove the `churn` stream about a quarter
        // slower; at half this reservation the benchmark's `ingest_eps` read
        // × 0.93). Windows past `RESERVED_UP_TO` grow as needed.
        const RESERVED_UP_TO: usize = 4096;
        let reserved = capacity.clamp(1, RESERVED_UP_TO);
        Self {
            capacity: capacity.max(1),
            first: NIL,
            last: NIL,
            places: FxHashMap::with_capacity_and_hasher(12 * reserved, Default::default()),
            slots: Vec::new(),
            free_slots: Vec::new(),
            lists: ListPool::default(),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of vertices currently buffered.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free_slots.len()
    }

    /// Whether the window holds no vertices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the window is at (or beyond) capacity, i.e. the next vertex
    /// push should be preceded by an eviction.
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// The slot a buffered vertex occupies.
    fn slot_index(&self, v: VertexId) -> Option<usize> {
        match self.places.get(&v) {
            Some(&Place::Buffered(s)) => Some(s as usize),
            _ => None,
        }
    }

    /// The slot of a vertex some window list names: it is buffered.
    fn member_slot(&self, v: VertexId) -> usize {
        self.slot_index(v)
            .expect("a window list names only buffered vertices")
    }

    fn slot(&self, v: VertexId) -> Option<&Slot> {
        self.slot_index(v).map(|s| &self.slots[s])
    }

    /// Whether a vertex is currently buffered.
    pub fn contains(&self, v: VertexId) -> bool {
        self.slot_index(v).is_some()
    }

    /// The label of a buffered vertex.
    pub fn label_of(&self, v: VertexId) -> Option<Label> {
        self.slot(v).map(|slot| slot.label)
    }

    /// The oldest buffered vertex (next eviction candidate).
    pub fn oldest(&self) -> Option<VertexId> {
        self.slots.get(self.first as usize).map(|slot| slot.id)
    }

    /// Buffered vertices in arrival order.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.arrivals().map(|slot| slot.id)
    }

    /// Buffered slots in arrival order.
    fn arrivals(&self) -> impl Iterator<Item = &Slot> + '_ {
        let mut at = self.first;
        std::iter::from_fn(move || {
            let slot = self.slots.get(at as usize)?;
            at = slot.next;
            Some(slot)
        })
    }

    /// Put slot `s` last in the arrival list.
    fn link_last(&mut self, s: usize) {
        let at = u32::try_from(s).expect("a window holds fewer than u32::MAX slots");
        (self.slots[s].prev, self.slots[s].next) = (self.last, NIL);
        match self.last {
            NIL => self.first = at,
            last => self.slots[last as usize].next = at,
        }
        self.last = at;
    }

    /// Take slot `s` out of the arrival list.
    fn unlink(&mut self, s: usize) {
        let Slot { prev, next, .. } = self.slots[s];
        match prev {
            NIL => self.first = next,
            prev => self.slots[prev as usize].next = next,
        }
        match next {
            NIL => self.last = prev,
            next => self.slots[next as usize].prev = prev,
        }
    }

    /// Neighbours of `v` inside the window.
    pub fn window_neighbours(&self, v: VertexId) -> &[VertexId] {
        self.slot(v).map_or(&[], |slot| self.lists.get(slot.window))
    }

    /// Neighbours of `v` that already left the window.
    pub fn external_neighbours(&self, v: VertexId) -> &[VertexId] {
        self.slot(v)
            .map_or(&[], |slot| self.lists.get(slot.external))
    }

    /// Buffer a new vertex. The caller is responsible for evicting first if
    /// the window [`is_full`](StreamWindow::is_full). Pushing a vertex that
    /// is already buffered only overwrites its label.
    ///
    /// A vertex that re-enters the window after a previous eviction reclaims
    /// the edges it left behind: every remaining member that recorded it as an
    /// *external* neighbour flips that edge back to a window edge, so the edge
    /// is never counted twice (once as external, once as window) by a later
    /// eviction's LDG score.
    pub fn push_vertex(&mut self, id: VertexId, label: Label) {
        let mut slot = Slot {
            id,
            prev: NIL,
            next: NIL,
            label,
            window: List::default(),
            external: List::default(),
        };
        let mut take_slot = || {
            let s = self.free_slots.pop().unwrap_or_else(|| {
                self.slots.push(slot);
                self.slots.len() - 1
            });
            let at = u32::try_from(s).expect("a window holds fewer than u32::MAX slots");
            (s, Place::Buffered(at))
        };
        let (s, reentry) = match self.places.entry(id) {
            Entry::Occupied(mut place) => match *place.get() {
                Place::Buffered(held) => {
                    self.slots[held as usize].label = label;
                    return;
                }
                Place::Outside(members) => {
                    let (s, buffered) = take_slot();
                    *place.get_mut() = buffered;
                    (s, Some(members))
                }
            },
            Entry::Vacant(vacant) => {
                let (s, buffered) = take_slot();
                vacant.insert(buffered);
                (s, None)
            }
        };
        if let Some(members) = reentry {
            for i in 0..members.len() {
                let n = self.member(members, i);
                let at = self.member_slot(n);
                let member = &mut self.slots[at];
                self.lists.swap_remove_first(&mut member.external, id);
                self.lists.push(&mut member.window, id);
                self.lists.push(&mut slot.window, n);
            }
            self.release_members(members);
        }
        self.slots[s] = slot;
        self.link_last(s);
    }

    /// Record an incoming edge and report where its endpoints live.
    ///
    /// A stream announces a vertex before its edges, so the source of an
    /// edge is usually the newest buffered vertex: that one is found
    /// without a map probe, and the edge costs one probe for its target.
    pub fn push_edge(&mut self, a: VertexId, b: VertexId) -> EdgePlacement {
        let slot_a = match self.slots.get(self.last as usize) {
            Some(newest) if newest.id == a => Some(self.last as usize),
            _ => self.slot_index(a),
        };
        let Some(sa) = slot_a else {
            return match self.slot_index(b) {
                Some(sb) => {
                    let source = self.places.entry(a);
                    file_external(&mut self.lists, &mut self.slots[sb], b, source)
                }
                None => EdgePlacement::NeitherInWindow,
            };
        };
        let target = self.places.entry(b);
        if let Entry::Occupied(place) = &target {
            if let Place::Buffered(sb) = *place.get() {
                self.lists.push(&mut self.slots[sa].window, b);
                self.lists.push(&mut self.slots[sb as usize].window, a);
                return EdgePlacement::BothInWindow;
            }
        }
        file_external(&mut self.lists, &mut self.slots[sa], a, target)
    }

    /// Evict the oldest vertex (if any).
    pub fn evict_oldest(&mut self) -> Option<EvictedVertex<'_>> {
        let id = self.oldest()?;
        self.remove(id)
    }

    /// Remove an arbitrary buffered vertex, fixing up the adjacency of the
    /// remaining window members (its window edges become their external
    /// edges).
    pub fn remove(&mut self, id: VertexId) -> Option<EvictedVertex<'_>> {
        let Entry::Occupied(mut place) = self.places.entry(id) else {
            return None;
        };
        let Place::Buffered(s) = *place.get() else {
            return None;
        };
        let slot = self.slots[s as usize];
        // The leaver goes outside, listed by its window neighbours in their
        // list order (a self-loop leaves with its vertex): the same probe
        // frees the slot and files the entry.
        let mut rev: Option<Members> = None;
        for i in 0..slot.window.len() {
            let n = self.lists.item(slot.window, i);
            if n == id {
                continue;
            }
            match &mut rev {
                Some(members) => members.push(&mut self.lists, n),
                None => rev = Some(Members::One(n)),
            }
        }
        match rev {
            Some(members) => *place.get_mut() = Place::Outside(members),
            None => {
                place.remove();
            }
        }
        self.vacate(s as usize, slot);
        for i in 0..slot.window.len() {
            let n = self.lists.item(slot.window, i);
            if n != id {
                let at = self.member_slot(n);
                let member = &mut self.slots[at];
                self.lists.retain_ne(&mut member.window, id);
                self.lists.push(&mut member.external, id);
            }
        }
        self.release_lists(slot);
        Some(EvictedVertex {
            id,
            label: slot.label,
            window_neighbours: self.lists.get(slot.window),
            external_neighbours: self.lists.get(slot.external),
        })
    }

    /// Take slot `s`, which held `slot`, out of the arrival list, free it
    /// and drop the re-entry entries of its external edges (they leave the
    /// window's bookkeeping entirely, which keeps the map bounded by the
    /// window's current external edges). The caller has already taken the
    /// vertex's own entry, still owns the slot's lists and ends with
    /// [`release_lists`](Self::release_lists).
    fn vacate(&mut self, s: usize, slot: Slot) {
        self.unlink(s);
        self.free_slots.push(s);
        for i in 0..slot.external.len() {
            let outside = self.lists.item(slot.external, i);
            self.forget_reverse(outside, slot.id);
        }
    }

    fn release_lists(&mut self, slot: Slot) {
        self.lists.release(slot.window);
        self.lists.release(slot.external);
    }

    /// The `i`-th member of a re-entry entry.
    fn member(&self, members: Members, i: usize) -> VertexId {
        match members {
            Members::One(v) => v,
            Members::Many(list) => self.lists.item(list, i),
        }
    }

    /// A re-entry entry's members as a slice.
    fn members<'a>(&'a self, members: &'a Members) -> &'a [VertexId] {
        match members {
            Members::One(v) => std::slice::from_ref(v),
            Members::Many(list) => self.lists.get(*list),
        }
    }

    fn release_members(&mut self, members: Members) {
        if let Members::Many(list) = members {
            self.lists.release(list);
        }
    }

    /// Drop one `outside → member` entry of the re-entry index.
    fn forget_reverse(&mut self, outside: VertexId, member: VertexId) {
        let Entry::Occupied(mut place) = self.places.entry(outside) else {
            return;
        };
        let emptied = match place.get_mut() {
            Place::Outside(Members::One(v)) => *v == member,
            Place::Outside(Members::Many(list)) => {
                self.lists.swap_remove_first(list, member);
                list.is_empty()
            }
            Place::Buffered(_) => unreachable!("{outside} is outside the window"),
        };
        if emptied {
            if let Place::Outside(members) = place.remove() {
                self.release_members(members);
            }
        }
    }

    /// **Delete** a vertex from the stream — as opposed to
    /// [`StreamWindow::remove`], which is an *eviction* (the vertex leaves
    /// the buffer but stays in the graph, so its window edges become the
    /// remaining members' external edges). Deletion drops the vertex and
    /// every edge it carries from the window's bookkeeping entirely,
    /// reclaiming its capacity slot. Works for both buffered vertices and
    /// already-evicted ones that window members still hold external edges to.
    /// Returns `true` if anything was dropped.
    pub fn delete(&mut self, id: VertexId) -> bool {
        let Entry::Occupied(place) = self.places.entry(id) else {
            return false;
        };
        match place.remove() {
            Place::Buffered(s) => {
                // Buffered: drop the vertex, its window edges and its
                // external edges without handing anything to the remaining
                // members.
                let slot = self.slots[s as usize];
                self.vacate(s as usize, slot);
                for i in 0..slot.window.len() {
                    let n = self.lists.item(slot.window, i);
                    if n != id {
                        let at = self.member_slot(n);
                        let member = &mut self.slots[at];
                        self.lists.retain_ne(&mut member.window, id);
                    }
                }
                self.release_lists(slot);
            }
            Place::Outside(members) => {
                // Already evicted: the members' external edges to it vanish,
                // so later LDG scores stop counting edges into a dead vertex.
                for i in 0..members.len() {
                    let n = self.member(members, i);
                    let at = self.member_slot(n);
                    let member = &mut self.slots[at];
                    self.lists.swap_remove_first(&mut member.external, id);
                }
                self.release_members(members);
            }
        }
        true
    }

    /// Delete one edge from the window's bookkeeping (both-in-window,
    /// window-to-external, or absent). Returns `true` if an edge occurrence
    /// was dropped.
    pub fn remove_edge(&mut self, a: VertexId, b: VertexId) -> bool {
        match (self.slot_index(a), self.slot_index(b)) {
            (Some(sa), Some(sb)) => {
                let removed = self.lists.swap_remove_first(&mut self.slots[sa].window, b);
                self.lists.swap_remove_first(&mut self.slots[sb].window, a);
                removed
            }
            (Some(inside), None) => self.remove_external_edge(inside, a, b),
            (None, Some(inside)) => self.remove_external_edge(inside, b, a),
            (None, None) => false,
        }
    }

    fn remove_external_edge(&mut self, slot: usize, inside: VertexId, outside: VertexId) -> bool {
        let removed = self
            .lists
            .swap_remove_first(&mut self.slots[slot].external, outside);
        if removed {
            self.forget_reverse(outside, inside);
        }
        removed
    }

    /// Change a buffered vertex's label in place. Returns `true` if the
    /// vertex was buffered.
    pub fn relabel(&mut self, id: VertexId, label: Label) -> bool {
        match self.slot_index(id) {
            Some(s) => {
                self.slots[s].label = label;
                true
            }
            None => false,
        }
    }

    /// Write what the window holds into a state blob: the buffered vertices
    /// in arrival order, each with its label, window list and external list
    /// in list order, then the re-entry index as far as the external lists
    /// do not already say it. The index is those lists reversed, so only its
    /// order is state: written are the entries, by outside vertex, whose
    /// members stand in another order than the lists give read in arrival
    /// order. Slot numbers and block layout are not state: they never reach
    /// a reader of the window.
    pub fn encode(&self, w: &mut StateWriter) {
        w.u64(self.len() as u64);
        for slot in self.arrivals() {
            w.id(slot.id);
            w.u32(slot.label.raw());
            w.ids(self.lists.get(slot.window));
            w.ids(self.lists.get(slot.external));
        }
        let reversed = self.reversed_externals();
        let mut reordered: Vec<(VertexId, &[VertexId])> = self
            .places
            .iter()
            .filter_map(|(&o, place)| match place {
                Place::Outside(members) => Some((o, self.members(members))),
                Place::Buffered(_) => None,
            })
            .filter(|&(o, members)| reversed.get(&o).map(Vec::as_slice) != Some(members))
            .collect();
        reordered.sort_unstable_by_key(|&(o, _)| o);
        w.u64(reordered.len() as u64);
        for (o, members) in reordered {
            w.id(o);
            w.ids(members);
        }
    }

    /// The external lists reversed: each outside vertex with the members
    /// listing it, one entry per occurrence, in arrival order.
    fn reversed_externals(&self) -> FxHashMap<VertexId, Vec<VertexId>> {
        let mut reversed: FxHashMap<VertexId, Vec<VertexId>> = FxHashMap::default();
        for slot in self.arrivals() {
            for &o in self.lists.get(slot.external) {
                reversed.entry(o).or_default().push(slot.id);
            }
        }
        reversed
    }

    /// The window [`StreamWindow::encode`] wrote, holding at most `capacity`
    /// vertices. Every operation after it finds what it relies on: a window
    /// list names only buffered vertices and each edge from both ends, an
    /// external list names only vertices outside, and the re-entry index is
    /// exactly the external lists reversed.
    ///
    /// # Errors
    ///
    /// [`PartitionError::CorruptState`] for a torn list or any of the above
    /// broken.
    pub fn decode(capacity: usize, r: &mut StateReader<'_>) -> Result<Self> {
        let mut window = Self::new(capacity);
        // Id, label and two list lengths: 20 bytes at least per vertex.
        let buffered = r.count(20, "window vertices")?;
        if buffered > window.capacity {
            return Err(corrupt(format!(
                "{buffered} vertices buffered in a window of {}",
                window.capacity
            )));
        }
        for _ in 0..buffered {
            let id = r.id("window vertex")?;
            let label = Label::new(r.u32("window label")?);
            let slot = Slot {
                id,
                prev: NIL,
                next: NIL,
                label,
                window: window.lists.list_from(&r.ids("window list")?),
                external: window.lists.list_from(&r.ids("external list")?),
            };
            let s = window.slots.len();
            let at = u32::try_from(s).expect("a window holds fewer than u32::MAX slots");
            if window.places.insert(id, Place::Buffered(at)).is_some() {
                return Err(corrupt(format!("vertex {id} buffered twice")));
            }
            window.slots.push(slot);
            window.link_last(s);
        }
        window.check_lists()?;
        let mut reversed = window.reversed_externals();
        // Id and a list length: 12 bytes at least per entry.
        for _ in 0..r.count(12, "re-entry index")? {
            let outside = r.id("re-entry vertex")?;
            let mut members = r.ids("re-entry members")?;
            let Some(derived) = reversed.get_mut(&outside) else {
                return Err(corrupt(format!("no external edge leads to {outside}")));
            };
            std::mem::swap(derived, &mut members);
            let mut sorted = [derived.clone(), members];
            for list in &mut sorted {
                list.sort_unstable();
            }
            if sorted[0] != sorted[1] {
                return Err(corrupt(format!(
                    "the re-entry index of {outside} is not its external edges"
                )));
            }
        }
        // `check_lists` proved every external-list entry outside the window:
        // these entries take no buffered vertex's place.
        for (outside, members) in reversed {
            let members = match members[..] {
                [v] => Members::One(v),
                _ => Members::Many(window.lists.list_from(&members)),
            };
            window.places.insert(outside, Place::Outside(members));
        }
        Ok(window)
    }

    /// The invariants of the decoded lists: every window-list entry is
    /// buffered and lists the vertex back, no external-list entry is.
    fn check_lists(&self) -> Result<()> {
        let mut arcs = Vec::new();
        for slot in self.arrivals() {
            let v = slot.id;
            for &n in self.lists.get(slot.window) {
                if !self.contains(n) {
                    return Err(corrupt(format!("{v} lists {n} as a window neighbour")));
                }
                arcs.push((v, n));
            }
            if let Some(&o) = self
                .lists
                .get(slot.external)
                .iter()
                .find(|&&o| self.contains(o))
            {
                return Err(corrupt(format!("{v} lists buffered {o} as external")));
            }
        }
        let mut reversed: Vec<_> = arcs.iter().map(|&(a, b)| (b, a)).collect();
        arcs.sort_unstable();
        reversed.sort_unstable();
        if arcs != reversed {
            return Err(corrupt("a window edge is listed at one end only"));
        }
        Ok(())
    }
}

/// Record the edge from `inside`, buffered in `slot`, to the vertex whose
/// map entry `outside` is, which is not buffered: it goes on the slot's
/// external list and `inside` joins the outside vertex's re-entry members.
fn file_external(
    lists: &mut ListPool,
    slot: &mut Slot,
    inside: VertexId,
    outside: Entry<'_, VertexId, Place>,
) -> EdgePlacement {
    let id = *outside.key();
    lists.push(&mut slot.external, id);
    match outside {
        Entry::Occupied(place) => match place.into_mut() {
            Place::Outside(members) => members.push(lists, inside),
            Place::Buffered(_) => unreachable!("{id} is outside the window"),
        },
        Entry::Vacant(vacant) => {
            vacant.insert(Place::Outside(Members::One(inside)));
        }
    }
    EdgePlacement::OneInWindow {
        inside,
        outside: id,
    }
}

fn corrupt(detail: impl Into<String>) -> PartitionError {
    PartitionError::CorruptState(detail.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: u64) -> VertexId {
        VertexId::new(x)
    }

    fn l(x: u32) -> Label {
        Label::new(x)
    }

    #[test]
    fn push_and_capacity_accounting() {
        let mut w = StreamWindow::new(3);
        assert!(w.is_empty());
        assert_eq!(w.capacity(), 3);
        w.push_vertex(v(1), l(0));
        w.push_vertex(v(2), l(1));
        assert!(!w.is_full());
        w.push_vertex(v(3), l(2));
        assert!(w.is_full());
        assert_eq!(w.len(), 3);
        assert_eq!(w.oldest(), Some(v(1)));
        assert_eq!(w.label_of(v(2)), Some(l(1)));
        assert!(w.contains(v(3)));
        assert!(!w.contains(v(9)));
        // Duplicate pushes are ignored.
        w.push_vertex(v(1), l(0));
        assert_eq!(w.len(), 3);
        // Zero capacity is clamped.
        assert_eq!(StreamWindow::new(0).capacity(), 1);
    }

    #[test]
    fn edge_placement_classification() {
        let mut w = StreamWindow::new(4);
        w.push_vertex(v(1), l(0));
        w.push_vertex(v(2), l(1));
        assert_eq!(w.push_edge(v(1), v(2)), EdgePlacement::BothInWindow);
        assert_eq!(
            w.push_edge(v(2), v(99)),
            EdgePlacement::OneInWindow {
                inside: v(2),
                outside: v(99)
            }
        );
        assert_eq!(w.push_edge(v(50), v(99)), EdgePlacement::NeitherInWindow);
        assert_eq!(w.window_neighbours(v(1)), &[v(2)]);
        assert_eq!(w.external_neighbours(v(2)), &[v(99)]);
    }

    #[test]
    fn eviction_moves_window_edges_to_external() {
        let mut w = StreamWindow::new(4);
        w.push_vertex(v(1), l(0));
        w.push_vertex(v(2), l(1));
        w.push_vertex(v(3), l(2));
        w.push_edge(v(1), v(2));
        w.push_edge(v(2), v(3));
        let evicted = w.evict_oldest().unwrap();
        assert_eq!(evicted.id, v(1));
        assert_eq!(evicted.label, l(0));
        assert_eq!(evicted.window_neighbours, vec![v(2)]);
        assert!(evicted.external_neighbours.is_empty());
        // Vertex 2 now sees vertex 1 as an external neighbour.
        assert_eq!(w.external_neighbours(v(2)), &[v(1)]);
        assert_eq!(w.window_neighbours(v(2)), &[v(3)]);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn arbitrary_removal_and_drain() {
        let mut w = StreamWindow::new(5);
        for i in 1..=4 {
            w.push_vertex(v(i), l(0));
        }
        w.push_edge(v(1), v(3));
        let removed = w.remove(v(3)).unwrap();
        assert_eq!(removed.id, v(3));
        assert_eq!(removed.window_neighbours, vec![v(1)]);
        assert_eq!(w.external_neighbours(v(1)), &[v(3)]);
        assert!(w.remove(v(3)).is_none());

        let mut drained = Vec::new();
        while let Some(evicted) = w.evict_oldest() {
            drained.push(evicted.id);
        }
        assert_eq!(drained, vec![v(1), v(2), v(4)]);
        assert!(w.is_empty());
    }

    #[test]
    fn reentry_after_eviction_does_not_double_count_edges() {
        let mut w = StreamWindow::new(4);
        w.push_vertex(v(1), l(0));
        w.push_vertex(v(2), l(1));
        w.push_edge(v(1), v(2));
        let evicted = w.remove(v(1)).unwrap();
        assert_eq!(evicted.window_neighbours, vec![v(2)]);
        assert_eq!(w.external_neighbours(v(2)), &[v(1)]);

        // Vertex 1 re-enters the window: the 1–2 edge must flip back to a
        // window edge instead of ALSO surviving as vertex 2's external edge
        // (which would double-count it in the LDG score at 2's eviction).
        w.push_vertex(v(1), l(0));
        assert!(w.external_neighbours(v(2)).is_empty());
        assert_eq!(w.window_neighbours(v(2)), &[v(1)]);
        assert_eq!(w.window_neighbours(v(1)), &[v(2)]);

        let evicted = w.remove(v(2)).unwrap();
        assert_eq!(evicted.window_neighbours, vec![v(1)]);
        assert!(
            evicted.external_neighbours.is_empty(),
            "window→evicted edge was double-counted on re-entry"
        );
        // And the re-entered vertex now sees 2 as external, exactly once.
        assert_eq!(w.external_neighbours(v(1)), &[v(2)]);
    }

    #[test]
    fn reentry_with_multiple_window_neighbours_reclaims_every_edge() {
        let mut w = StreamWindow::new(8);
        for i in 1..=4 {
            w.push_vertex(v(i), l(0));
        }
        w.push_edge(v(1), v(2));
        w.push_edge(v(1), v(3));
        w.push_edge(v(1), v(4));
        w.remove(v(1)).unwrap();
        for i in 2..=4 {
            assert_eq!(w.external_neighbours(v(i)), &[v(1)]);
        }
        w.push_vertex(v(1), l(0));
        for i in 2..=4 {
            assert!(w.external_neighbours(v(i)).is_empty());
            assert_eq!(w.window_neighbours(v(i)), &[v(1)]);
        }
        let mut reclaimed = w.window_neighbours(v(1)).to_vec();
        reclaimed.sort_unstable();
        assert_eq!(reclaimed, vec![v(2), v(3), v(4)]);
        // Total degree over the window is still one per edge.
        let mut degree_sum = 0;
        while let Some(e) = w.evict_oldest() {
            degree_sum += e.window_neighbours.len() + e.external_neighbours.len();
        }
        assert_eq!(degree_sum, 2 * 3, "each edge counted once per side");
    }

    #[test]
    fn deletion_drops_edges_instead_of_externalising_them() {
        let mut w = StreamWindow::new(6);
        for i in 1..=3 {
            w.push_vertex(v(i), l(0));
        }
        w.push_edge(v(1), v(2));
        w.push_edge(v(2), v(3));
        assert!(w.delete(v(2)));
        // Unlike eviction, the neighbours gain NO external edges.
        assert!(w.external_neighbours(v(1)).is_empty());
        assert!(w.external_neighbours(v(3)).is_empty());
        assert!(w.window_neighbours(v(1)).is_empty());
        assert_eq!(w.len(), 2, "capacity slot reclaimed");
        assert!(!w.delete(v(2)), "second delete is a no-op");
        // The id can re-enter later as a fresh vertex.
        w.push_vertex(v(2), l(5));
        assert_eq!(w.label_of(v(2)), Some(l(5)));
        assert!(w.window_neighbours(v(2)).is_empty());
    }

    #[test]
    fn deleting_an_evicted_vertex_purges_external_edges() {
        let mut w = StreamWindow::new(4);
        w.push_vertex(v(1), l(0));
        w.push_vertex(v(2), l(1));
        w.push_edge(v(1), v(2));
        w.remove(v(1)).unwrap(); // eviction: 2 now sees 1 externally
        assert_eq!(w.external_neighbours(v(2)), &[v(1)]);
        assert!(w.delete(v(1)));
        assert!(w.external_neighbours(v(2)).is_empty());
        // Re-entry of the deleted id must NOT resurrect the dropped edge.
        w.push_vertex(v(1), l(0));
        assert!(w.window_neighbours(v(1)).is_empty());
        assert!(w.window_neighbours(v(2)).is_empty());
    }

    #[test]
    fn remove_edge_covers_window_and_external_cases() {
        let mut w = StreamWindow::new(4);
        w.push_vertex(v(1), l(0));
        w.push_vertex(v(2), l(1));
        w.push_edge(v(1), v(2));
        assert!(w.remove_edge(v(2), v(1)), "endpoint order is irrelevant");
        assert!(w.window_neighbours(v(1)).is_empty());
        assert!(w.window_neighbours(v(2)).is_empty());
        assert!(!w.remove_edge(v(1), v(2)), "already gone");

        w.push_edge(v(2), v(99)); // external edge
        assert!(w.remove_edge(v(99), v(2)));
        assert!(w.external_neighbours(v(2)).is_empty());
        // Re-entry of 99 finds no stale reverse entry to reclaim.
        w.push_vertex(v(99), l(0));
        assert!(w.window_neighbours(v(99)).is_empty());
        assert!(!w.remove_edge(v(50), v(51)), "unknown endpoints");
    }

    #[test]
    fn relabel_updates_buffered_labels_only() {
        let mut w = StreamWindow::new(4);
        w.push_vertex(v(1), l(0));
        assert!(w.relabel(v(1), l(9)));
        assert_eq!(w.label_of(v(1)), Some(l(9)));
        assert!(!w.relabel(v(2), l(1)));
    }

    #[test]
    fn vertices_iterates_in_arrival_order() {
        let mut w = StreamWindow::new(10);
        for i in [5u64, 3, 9] {
            w.push_vertex(v(i), l(0));
        }
        let order: Vec<_> = w.vertices().collect();
        assert_eq!(order, vec![v(5), v(3), v(9)]);
    }

    /// `window` through a state blob and back.
    fn round_trip(window: &StreamWindow) -> (Vec<u8>, Result<StreamWindow>) {
        let mut part = crate::partition::Partitioning::new(1, 1).unwrap();
        let mut writer = StateWriter::new("window", &[], &part);
        window.encode(&mut writer);
        let bytes = writer.finish();
        let mut r =
            StateReader::open(&bytes, "window", &[], &mut part, &mut std::iter::empty()).unwrap();
        let decoded = StreamWindow::decode(window.capacity(), &mut r);
        (bytes, decoded)
    }

    /// The re-entry entry of `outside` as `(is a list, members)`.
    fn entry(w: &StreamWindow, outside: u64) -> Option<(bool, Vec<VertexId>)> {
        let Some(Place::Outside(members)) = w.places.get(&v(outside)) else {
            return None;
        };
        let is_list = matches!(members, Members::Many(_));
        Some((is_list, w.members(members).to_vec()))
    }

    #[test]
    fn a_decoded_window_keeps_every_list_order_and_reenters_alike() {
        let mut w = StreamWindow::new(4);
        for i in 1..=3 {
            w.push_vertex(v(i), l(0));
        }
        w.push_edge(v(1), v(2));
        // Vertex 9 is outside: listed by 3, then by 1 — not arrival order,
        // so the blob spells that entry of the re-entry index out.
        w.push_edge(v(3), v(9));
        w.push_edge(v(1), v(9));
        // Vertex 8 is listed by one member, held inline.
        w.push_edge(v(2), v(8));
        // Vertex 7 was listed by two and is down to one, still a list.
        w.push_edge(v(1), v(7));
        w.push_edge(v(3), v(7));
        w.remove_edge(v(1), v(7));
        assert_eq!(entry(&w, 9), Some((true, vec![v(3), v(1)])));
        assert_eq!(entry(&w, 8), Some((false, vec![v(2)])));
        assert_eq!(entry(&w, 7), Some((true, vec![v(3)])));
        let (bytes, decoded) = round_trip(&w);
        let mut back = decoded.unwrap();
        assert_eq!(round_trip(&back).0, bytes);
        // The shape of an entry is not state: a list of one comes back
        // inline, with the same member.
        assert_eq!(entry(&back, 9), Some((true, vec![v(3), v(1)])));
        assert_eq!(entry(&back, 8), Some((false, vec![v(2)])));
        assert_eq!(entry(&back, 7), Some((false, vec![v(3)])));
        for u in [&mut w, &mut back] {
            u.push_edge(v(2), v(7));
            u.push_edge(v(1), v(8));
        }
        assert_eq!(entry(&back, 7), entry(&w, 7));
        assert_eq!(entry(&back, 8), Some((true, vec![v(2), v(1)])));
        assert_eq!(round_trip(&back).0, round_trip(&w).0);
        for u in [&mut w, &mut back] {
            u.remove(v(1));
            for outside in [9, 8, 7] {
                u.push_vertex(v(outside), l(1));
            }
        }
        assert_eq!(back.window_neighbours(v(9)), &[v(3)]);
        assert_eq!(back.window_neighbours(v(7)), &[v(3), v(2)]);
        for outside in [9, 8, 7] {
            assert_eq!(
                back.window_neighbours(v(outside)),
                w.window_neighbours(v(outside))
            );
        }
        assert_eq!(round_trip(&back).0, round_trip(&w).0);

        // A window list naming a vertex outside the window is refused.
        let mut broken = StreamWindow::new(4);
        broken.push_vertex(v(1), l(0));
        let s = broken.member_slot(v(1));
        broken.lists.push(&mut broken.slots[s].window, v(7));
        assert!(matches!(
            round_trip(&broken).1,
            Err(PartitionError::CorruptState(_))
        ));
    }
}
