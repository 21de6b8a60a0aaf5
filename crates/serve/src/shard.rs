//! The sharded store: per-partition CSR slices of one arena.
//!
//! [`ShardedStore`] freezes a partitioned graph into the layout a concurrent
//! serving engine wants: vertices are laid out **partition-major** in one CSR
//! arena (by [`PartitionMajor`], the order a checkpoint encoded straight
//! from the graph shares), so each partition's home vertices form a
//! contiguous slice — its
//! [`Shard`], which carries what the router reads and nothing else: the
//! slice's range and, per label, how many live home vertices carry it.
//! Everything else about a shard is a function of its slice and is computed
//! when somebody asks, by one scan ([`ShardedStore::border`]): its
//! *boundary* (home vertices with at least one remote neighbour) and its
//! *halo* (the remote vertices adjacent to the shard — the replicas a
//! physical deployment would ship to it so one-hop expansions resolve
//! locally; here they feed the replication accounting). Nothing derived is
//! stored, so nothing derived can go stale under a tombstone, and no freeze,
//! migration or checkpoint pays for a list nobody reads.
//!
//! The arena lives entirely in **position space**: a vertex is named by its
//! `u32` position in the partition-major order, adjacency is stored once, as
//! positions in traversal order (membership scans the shorter of two live
//! slices), and one packed 16-byte record per position carries everything
//! the matcher asks about a candidate (label, home partition or tombstone,
//! adjacency offset, live degree). The store implements [`PatternStore`]
//! with `Handle = u32` and its label index holds positions, so a query's
//! roots are handles from the start and the search never touches a hash
//! table.
//!
//! **The arc answers for its target.** Most neighbours a search meters are
//! never candidates — they carry the wrong label — and reading each one's
//! record only to count it and drop it is a cache miss per neighbour. So
//! beside every adjacency entry rides one byte: the low seven bits of the
//! target's label, a *filter* that may pass a wrong label and never refuses
//! the right one, and the **remote bit**, exactly whether the two endpoints
//! have different homes as of the last freeze or mutation. The matcher
//! meters every neighbour from that sequential stream and reads the record
//! of an on-label one only. The tags are derived at freeze, travel with
//! their slices through a migration or a compaction (a vertex that changes
//! home has the remote bit of its arcs rewritten, both directions) and are
//! edited in place by the tombstoning mutators; no checkpoint blob carries
//! them.
//!
//! The store presents exactly the same graph, label index and remoteness
//! semantics as the sequential hash-map store in [`loom_sim::store`] — the
//! serving engine's parity tests rely on the two producing identical metrics
//! for identical queries.

use loom_graph::fxhash::FxHashMap;
use loom_graph::{Label, LabelledGraph, VertexId, VertexIndex};
use loom_partition::partition::{PartitionId, Partitioning};
use loom_sim::matcher::{PatternStore, TaggedArc};
use std::ops::Range;

/// [`Slot::home`] of a vertex without an assignment (it counts as remote to
/// everyone, as in the sequential store).
const UNASSIGNED: u32 = u32::MAX;
/// [`Slot::home`] of a tombstoned vertex. Which shard's range the position
/// lies in still says where it physically lives.
const DEAD: u32 = u32::MAX - 1;
/// Filler for the tombstoned tail of an adjacency slice. Tails are padding
/// that keeps a shard's physical extent (and so its tombstone fraction)
/// until compaction; nothing ever reads them.
const VACANT: u32 = u32::MAX;

/// Everything the matcher asks about one arena position, packed into 16
/// bytes so an on-label candidate costs one cache line. What the matcher
/// asks about a neighbour it only *meters* — is the hop remote, can the
/// label match — the arc's tag answers without coming here.
#[derive(Debug, Clone, Copy)]
struct Slot {
    label: Label,
    /// Home partition index, [`UNASSIGNED`] or [`DEAD`].
    home: u32,
    /// Start of the position's adjacency slice in the arena and its tags;
    /// the slice physically ends where the next slot's begins.
    offset: u32,
    /// Live adjacency length: `offset..offset + live` is the live
    /// neighbourhood, the rest of the physical slice is tombstoned tail.
    live: u32,
}

impl Slot {
    fn live_range(self) -> Range<usize> {
        let start = self.offset as usize;
        start..start + self.live as usize
    }
}

/// Whether following an arc between two slots crosses a partition boundary.
/// Equal homes are local unless the shared "home" is a sentinel: unassigned
/// and tombstoned vertices are remote to everyone.
fn crosses(from: Slot, to: Slot) -> bool {
    from.home != to.home || from.home >= DEAD
}

/// The byte an arc carries about its target: the low seven bits of the
/// target's label above the remote bit.
fn arc_tag(label: Label, remote: bool) -> u8 {
    ((label.raw() & 0x7f) as u8) << 1 | u8::from(remote)
}

/// The tag of every live arc, derived from the slots (a tombstoned tail's
/// bytes are padding, like its targets). One random slot read per arc: what
/// a freeze pays so that a query does not.
fn arc_tags(slots: &[Slot], targets: &[u32]) -> Vec<u8> {
    let mut tags = vec![0; targets.len()];
    for &from in &slots[..slots.len() - 1] {
        let live = from.live_range();
        for (tag, &to) in tags[live.clone()].iter_mut().zip(&targets[live]) {
            let to = slots[to as usize];
            *tag = arc_tag(to.label, crosses(from, to));
        }
    }
    tags
}

/// Index in `targets` of the live arc `from → to`, if the edge is live.
fn arc_at(slots: &[Slot], targets: &[u32], from: usize, to: u32) -> Option<usize> {
    let live = slots[from].live_range();
    let occ = targets[live.clone()].iter().position(|&q| q == to)?;
    Some(live.start + occ)
}

/// The closing sentinel of a slot array: it only carries the arena length,
/// so `slots[pos + 1].offset` bounds every real position's physical slice.
fn end_slot(arena_len: usize) -> Slot {
    Slot {
        label: Label::new(0),
        home: UNASSIGNED,
        offset: u32::try_from(arena_len).expect("adjacency arena fits u32 offsets"),
        live: 0,
    }
}

/// One partition's view of the sharded store: where its slice lies and what
/// the router's vote reads from it.
#[derive(Debug, Clone)]
pub struct Shard {
    id: PartitionId,
    /// Position range of the shard's home vertices in the partition-major
    /// arena — the shard's CSR slice.
    range: Range<usize>,
    /// Label → how many live home vertices carry it; no entry holds zero.
    label_counts: FxHashMap<Label, usize>,
}

impl Shard {
    /// The partition this shard hosts.
    pub fn id(&self) -> PartitionId {
        self.id
    }

    /// Number of home vertices.
    pub fn len(&self) -> usize {
        self.range.len()
    }

    /// Whether the shard hosts no vertices.
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    /// How many live home vertices carry `label`: the shard's vote for a
    /// full enumeration rooted at that label.
    pub fn label_count(&self, label: Label) -> usize {
        self.label_counts.get(&label).copied().unwrap_or(0)
    }

    /// Shard `p` over `range`, its label counts taken from the slice.
    fn counted(p: usize, range: Range<usize>, slots: &[Slot]) -> Self {
        let mut label_counts = FxHashMap::default();
        for slot in slots[range.clone()].iter().filter(|s| s.home != DEAD) {
            *label_counts.entry(slot.label).or_insert(0) += 1;
        }
        Self {
            id: PartitionId::new(p as u32),
            range,
            label_counts,
        }
    }
}

/// What [`ShardedStore::border`] reads off a shard's slice.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardBorder {
    /// Home vertices with at least one remote neighbour, sorted by id.
    pub boundary: Vec<VertexId>,
    /// Remote vertices adjacent to the shard (the replicated halo), sorted
    /// by id.
    pub halo: Vec<VertexId>,
}

/// An immutable partition-major CSR snapshot of a partitioned graph, sliced
/// into per-partition [`Shard`]s.
#[derive(Debug, Clone)]
pub struct ShardedStore {
    /// Position → original vertex id, partition-major (shard 0's home
    /// vertices first, then shard 1's, …, unassigned vertices last).
    order: Vec<VertexId>,
    /// Original id → position: an array cell per dense id, a hash probe
    /// for the rest (see [`VertexIndex`]). Positions are `u32` below
    /// [`VACANT`], so a store holds fewer than `u32::MAX` vertices (the
    /// loader refuses more). Consulted for explicit roots (which arrive as
    /// ids), by freeze, the loader, migration and the mutators; never inside
    /// the search.
    position_of: VertexIndex,
    /// One packed record per position plus a closing sentinel (see
    /// [`end_slot`]), so `slots.len() == order.len() + 1`.
    slots: Vec<Slot>,
    /// Adjacency as positions, in the data graph's stable iteration order
    /// (keeps traversal order — and therefore match-limited metrics —
    /// identical to the sequential store).
    targets: Vec<u32>,
    /// One [`arc_tag`] per entry of `targets`, index for index: what the
    /// expansion loop streams instead of reading each target's slot.
    tags: Vec<u8>,
    /// The label index, in handle space: label → positions of the *live*
    /// vertices carrying it, ordered by vertex id (enumeration order), not
    /// by position.
    by_label: FxHashMap<Label, Vec<u32>>,
    /// Tombstoned home vertices per shard.
    dead_vertices: Vec<usize>,
    /// Tombstoned adjacency slots per shard.
    dead_slots: Vec<usize>,
    shards: Vec<Shard>,
    edge_count: usize,
    epoch: u64,
}

/// Per-shard tombstone counters recomputed after a structural rebuild
/// (migration or compaction reshuffles which positions belong to which
/// shard, so the incremental counters must be re-derived).
fn dead_counters(ranges: &[Range<usize>], slots: &[Slot]) -> (Vec<usize>, Vec<usize>) {
    let mut dead_vertices = vec![0usize; ranges.len()];
    let mut dead_slots = vec![0usize; ranges.len()];
    for (p, range) in ranges.iter().enumerate() {
        for pos in range.clone() {
            if slots[pos].home == DEAD {
                dead_vertices[p] += 1;
            }
            dead_slots[p] += (slots[pos + 1].offset - slots[pos].offset - slots[pos].live) as usize;
        }
    }
    (dead_vertices, dead_slots)
}

/// One vertex as a graph hands it to a snapshot: id, label, and neighbours
/// in [`LabelledGraph::neighbors`] order.
pub type GraphRow<'g> = (VertexId, Label, &'g [VertexId]);

/// A graph's vertices in the arena's **partition-major** order — shard 0's
/// home vertices by id, then shard 1's, …, then the unassigned tail's — by
/// walks of the graph's `id → slot` index in id order
/// ([`LabelledGraph::adjacency_ordered`]), one partition probe per vertex a
/// walk: no comparison sort of the vertices and no copy of the rows. This
/// is the one definition of that order:
/// [`ShardedStore::from_parts`] lays its arena out by it, and a checkpoint
/// cut straight from a graph writes its blobs by it, so a freeze and the
/// blobs cannot disagree.
#[derive(Debug)]
pub struct PartitionMajor<'g> {
    graph: &'g LabelledGraph,
    partitioning: &'g Partitioning,
    /// `starts[b]..starts[b + 1]` are bucket `b`'s positions in the arena.
    starts: Vec<usize>,
}

impl<'g> PartitionMajor<'g> {
    /// Lay `graph`'s vertices out by their home under `partitioning`; a
    /// vertex `partitioning` does not assign goes to the tail, and an
    /// assignment of a vertex `graph` does not hold is ignored. One walk
    /// counts each slice; the rows are read again by whoever walks the
    /// layout.
    pub fn new(graph: &'g LabelledGraph, partitioning: &'g Partitioning) -> Self {
        let k = partitioning.k() as usize;
        let mut layout = Self {
            graph,
            partitioning,
            starts: vec![0usize; k + 2],
        };
        for v in graph.vertices_ordered() {
            let bucket = layout.bucket(v);
            layout.starts[bucket + 1] += 1;
        }
        for bucket in 0..=k {
            layout.starts[bucket + 1] += layout.starts[bucket];
        }
        layout
    }

    /// `v`'s bucket: its home partition's index, or `k` for the tail.
    fn bucket(&self, v: VertexId) -> usize {
        let k = self.starts.len() - 2;
        self.partitioning.partition_of(v).map_or(k, |p| p.index())
    }

    /// Number of shards (partitions) the layout has a slice for.
    pub fn shard_count(&self) -> u32 {
        (self.starts.len() - 2) as u32
    }

    /// Number of vertices laid out.
    pub fn vertex_count(&self) -> usize {
        self.starts[self.starts.len() - 1]
    }

    /// Every vertex, in id order, with its bucket: its home partition's
    /// index, or `k` for the tail. Read in this order, each slice's rows
    /// come in arena order.
    pub fn bucketed(&self) -> impl Iterator<Item = (GraphRow<'g>, usize)> + '_ {
        self.graph
            .adjacency_ordered()
            .map(|row| (row, self.bucket(row.0)))
    }

    /// [`PartitionMajor::bucketed`] with each vertex's arena position: the
    /// stable bucket pass, which places each vertex behind the ones of its
    /// bucket with lower ids.
    fn placed(&self) -> impl Iterator<Item = (GraphRow<'g>, usize, usize)> + '_ {
        let mut cursor = self.starts.clone();
        self.bucketed().map(move |(row, bucket)| {
            cursor[bucket] += 1;
            (row, bucket, cursor[bucket] - 1)
        })
    }

    /// The arena positions of the slice `slot` names — shard `p`'s home
    /// vertices for `Some(p)`, the unassigned tail for `None`. `None` for an
    /// out-of-range partition.
    pub fn range(&self, slot: Option<PartitionId>) -> Option<Range<usize>> {
        let k = self.shard_count() as usize;
        let bucket = match slot {
            Some(p) if p.index() < k => p.index(),
            Some(_) => return None,
            None => k,
        };
        Some(self.starts[bucket]..self.starts[bucket + 1])
    }
}

impl ShardedStore {
    /// Build a sharded store from a graph and a partitioning. Unassigned
    /// vertices are tolerated: they live outside every shard and count as
    /// remote to everyone.
    pub fn from_parts(graph: &LabelledGraph, partitioning: &Partitioning) -> Self {
        let layout = PartitionMajor::new(graph, partitioning);
        let (n, k) = (layout.vertex_count(), layout.shard_count() as usize);
        let mut order = vec![VertexId::new(0); n];
        let mut slots = vec![end_slot(0); n + 1];
        let mut lists: Vec<&[VertexId]> = vec![&[]; n];
        // Rows come in id order, so the label lists come out id-ordered and
        // dense ids reach `position_of` below its direct bound.
        let mut by_label: FxHashMap<Label, Vec<u32>> = FxHashMap::default();
        let mut position_of = VertexIndex::new();
        for ((v, label, neighbors), bucket, pos) in layout.placed() {
            let home = if bucket < k {
                bucket as u32
            } else {
                UNASSIGNED
            };
            by_label.entry(label).or_default().push(pos as u32);
            position_of.insert(v, pos as u32);
            order[pos] = v;
            slots[pos] = Slot {
                label,
                home,
                offset: 0,
                live: 0,
            };
            lists[pos] = neighbors;
        }

        // The adjacency arena, renamed to positions as it is laid down: the
        // one `position_of` lookup per directed edge the whole freeze pays.
        let mut targets: Vec<u32> = Vec::with_capacity(2 * graph.edge_count());
        for (pos, neighbors) in lists.into_iter().enumerate() {
            slots[pos].offset = targets.len() as u32;
            slots[pos].live = neighbors.len() as u32;
            targets.extend(neighbors.iter().map(|&u| {
                position_of
                    .get(u)
                    .expect("a graph's neighbours are its vertices")
            }));
        }
        let store = Self::assemble(
            order,
            position_of,
            slots,
            targets,
            &layout.starts[..=k],
            by_label,
            graph.edge_count(),
        );
        debug_assert_eq!(store.check_arena(), Ok(()));
        store
    }

    /// The tail every from-scratch build shares ([`ShardedStore::from_parts`]
    /// and the checkpoint loader's [`ArenaLoader::finish`]): close the slot
    /// array, derive the arc tags and count each shard's labels.
    /// `slots[..n]` carry label, home, offset and live degree; `starts`
    /// holds the `k + 1` shard boundaries.
    fn assemble(
        order: Vec<VertexId>,
        position_of: VertexIndex,
        mut slots: Vec<Slot>,
        targets: Vec<u32>,
        starts: &[usize],
        by_label: FxHashMap<Label, Vec<u32>>,
        edge_count: usize,
    ) -> Self {
        let n = order.len();
        let k = starts.len() - 1;
        slots[n] = end_slot(targets.len());
        let tags = arc_tags(&slots, &targets);
        let shards = (0..k)
            .map(|p| Shard::counted(p, starts[p]..starts[p + 1], &slots))
            .collect();
        Self {
            order,
            position_of,
            slots,
            targets,
            tags,
            by_label,
            dead_vertices: vec![0; k],
            dead_slots: vec![0; k],
            shards,
            edge_count,
            epoch: 0,
        }
    }

    /// The live graph the arena holds: [`ArenaView::to_graph`], the one
    /// mirror builder.
    pub fn to_graph(&self) -> LabelledGraph {
        self.view().to_graph()
    }

    /// The store's rows, homes and totals, read-only.
    fn view(&self) -> ArenaView<'_> {
        ArenaView { store: self }
    }

    /// The inverse of [`ShardedStore::from_parts`]: [`ShardedStore::to_graph`]
    /// and the vertex→partition assignment the shard ranges encode.
    pub fn to_parts(&self) -> (LabelledGraph, Partitioning) {
        let graph = self.to_graph();
        let mut partitioning = Partitioning::new(self.shard_count(), graph.vertex_count().max(1))
            .expect("a store has at least one shard");
        for (v, home) in self.homes() {
            if let Some(p) = home {
                partitioning
                    .assign(v, p)
                    .expect("an arena holds each vertex once, in its home shard's range");
            }
        }
        (graph, partitioning)
    }

    /// Every live vertex with its home shard — `None` for the unassigned
    /// tail — in arena order: the assignment the shard ranges encode, as a
    /// restoring partitioner takes it.
    pub fn homes(&self) -> impl Iterator<Item = (VertexId, Option<PartitionId>)> + '_ {
        self.view().homes()
    }

    /// Apply a bounded batch of vertex moves *incrementally*: the adjacency
    /// arena is copied slice-by-slice in the new partition-major order and
    /// renamed through an old → new position array (no graph lookups, no
    /// hash probes), and only the shards a move actually touched — the
    /// sources and targets — get their label counts retaken. Every other
    /// shard's counts are reused verbatim: its slice holds the vertices it
    /// held.
    ///
    /// Moves referencing unknown or unassigned vertices, out-of-range
    /// partitions, or a vertex's current partition are ignored; when several
    /// moves name the same vertex the last one wins. The resulting snapshot
    /// is semantically identical to `ShardedStore::from_parts` at the moved
    /// placement (the parity the adaptation tests assert) and carries epoch
    /// 0 — publish it through an [`crate::epoch::EpochStore`] to stamp it.
    pub fn apply_migration(&self, moves: &[(VertexId, PartitionId)]) -> MigratedStore {
        let k = self.shards.len();
        let n = self.order.len();
        // Final destination per position; only real changes survive.
        let mut dest: FxHashMap<u32, u32> = FxHashMap::default();
        for &(v, to) in moves {
            if to.index() >= k {
                continue;
            }
            let Some(pos) = self.position_of.get(v) else {
                continue;
            };
            // Tombstoned vertices cannot be moved: the planner must not plan
            // moves for dead vertices, and ignoring them here keeps a stale
            // plan harmless.
            if self.slots[pos as usize].home >= DEAD {
                continue;
            }
            dest.insert(pos, to.0);
        }
        dest.retain(|&pos, to| self.slots[pos as usize].home != *to);
        if dest.is_empty() {
            return MigratedStore {
                store: self.clone(),
                affected_shards: Vec::new(),
                moved: 0,
            };
        }

        let mut affected = vec![false; k];
        let mut incoming: Vec<Vec<u32>> = vec![Vec::new(); k];
        for (&pos, &to) in &dest {
            affected[self.slots[pos as usize].home as usize] = true;
            affected[to as usize] = true;
            incoming[to as usize].push(pos);
        }

        // New partition-major order, as old positions: unaffected shards
        // keep their slices verbatim; affected shards drop movers-out, merge
        // movers-in and re-sort by id. The unassigned tail is untouched.
        let mut from: Vec<u32> = Vec::with_capacity(n);
        let mut ranges: Vec<Range<usize>> = Vec::with_capacity(k);
        for p in 0..k {
            let start = from.len();
            let old = self.shards[p].range.clone();
            if affected[p] {
                from.extend((old.start as u32..old.end as u32).filter(|q| !dest.contains_key(q)));
                from.extend_from_slice(&incoming[p]);
                from[start..].sort_unstable_by_key(|&q| self.order[q as usize]);
            } else {
                from.extend(old.start as u32..old.end as u32);
            }
            ranges.push(start..from.len());
        }
        let assigned_end = self.assigned_end();
        from.extend(assigned_end as u32..n as u32);

        // Migration changes placement tags, never adjacency: nothing is
        // trimmed, tombstoned tails included.
        let store = self.relaid(&from, ranges, &affected, false);
        let affected_shards: Vec<PartitionId> = affected
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a)
            .map(|(p, _)| PartitionId::new(p as u32))
            .collect();
        MigratedStore {
            moved: dest.len(),
            affected_shards,
            store,
        }
    }

    /// Rebuild this snapshot in a new partition-major layout. `from` lists
    /// the surviving vertices' old positions in their new order — shard
    /// `p`'s at `ranges[p]`, the unassigned tail after the last range. The
    /// positional arrays are copied straight from the old slices and renamed
    /// through an old → new position array (no graph lookups, one
    /// `position_of` insert per vertex), the label index is renamed the same
    /// way, and the arc tags travel with their slices — only the remote bit
    /// of the arcs at a vertex that changed home is rewritten, in both
    /// directions; `touched` shards get their label counts retaken, the rest
    /// are rebased with their counts reused. With `trim`, touched shards and
    /// the unassigned tail keep only their live adjacency prefix; everything
    /// else keeps its physical extent, tombstoned tail included.
    fn relaid(
        &self,
        from: &[u32],
        ranges: Vec<Range<usize>>,
        touched: &[bool],
        trim: bool,
    ) -> Self {
        // Old position → new position; purged vertices keep `VACANT`, which
        // no live adjacency names.
        let mut renamed = vec![VACANT; self.order.len()];
        for (new, &old) in from.iter().enumerate() {
            renamed[old as usize] = new as u32;
        }
        let mut slots: Vec<Slot> = Vec::with_capacity(from.len() + 1);
        let mut targets: Vec<u32> = Vec::with_capacity(self.targets.len());
        let mut tags: Vec<u8> = Vec::with_capacity(self.targets.len());
        // New positions of the live vertices whose home changes.
        let mut moved: Vec<usize> = Vec::new();
        // Append the vertex at old position `old`, homed at `home`
        // (tombstones stay tombstones). With `keep_tail` its tombstoned
        // adjacency slots survive as padding.
        let mut push = |old: u32, home: u32, keep_tail: bool| {
            let slot = self.slots[old as usize];
            let start = targets.len();
            let rename = |&q: &u32| renamed[q as usize];
            targets.extend(self.targets[slot.live_range()].iter().map(rename));
            tags.extend_from_slice(&self.tags[slot.live_range()]);
            if keep_tail {
                let physical = (self.slots[old as usize + 1].offset - slot.offset) as usize;
                targets.resize(start + physical, VACANT);
                tags.resize(start + physical, 0);
            }
            let home = if slot.home == DEAD { DEAD } else { home };
            if home != slot.home {
                moved.push(slots.len());
            }
            slots.push(Slot {
                home,
                offset: start as u32,
                ..slot
            });
        };
        for (p, range) in ranges.iter().enumerate() {
            for &old in &from[range.clone()] {
                push(old, p as u32, !(trim && touched[p]));
            }
        }
        for &old in &from[ranges.last().map_or(0, |r| r.end)..] {
            push(old, UNASSIGNED, !trim);
        }
        slots.push(end_slot(targets.len()));
        // Whoever changed home changed sides for each of its neighbours.
        for &pos in &moved {
            for arc in slots[pos].live_range() {
                let to = targets[arc] as usize;
                let back = arc_at(&slots, &targets, to, pos as u32)
                    .expect("undirected edges are stored twice");
                let remote = u8::from(crosses(slots[pos], slots[to]));
                for at in [arc, back] {
                    tags[at] = tags[at] & !1 | remote;
                }
            }
        }
        // Ids do not move, so each renamed list keeps its id order.
        let rename_all =
            |members: &Vec<u32>| members.iter().map(|&q| renamed[q as usize]).collect();
        let by_label = self
            .by_label
            .iter()
            .map(|(&label, members)| (label, rename_all(members)))
            .collect();
        let order: Vec<VertexId> = from.iter().map(|&q| self.order[q as usize]).collect();
        // Renamed in the old index's order (direct ids ascending first), so
        // dense ids reach the new one below its direct bound.
        let mut position_of = VertexIndex::new();
        for (v, old) in self.position_of.iter() {
            if renamed[old as usize] != VACANT {
                position_of.insert(v, renamed[old as usize]);
            }
        }
        let (dead_vertices, dead_slots) = dead_counters(&ranges, &slots);
        let shards = ranges
            .into_iter()
            .enumerate()
            .map(|(p, range)| {
                if touched[p] {
                    Shard::counted(p, range, &slots)
                } else {
                    let old = &self.shards[p];
                    debug_assert_eq!(range.len(), old.range.len());
                    Shard {
                        range,
                        ..old.clone()
                    }
                }
            })
            .collect();
        let store = Self {
            order,
            position_of,
            slots,
            targets,
            tags,
            by_label,
            dead_vertices,
            dead_slots,
            shards,
            edge_count: self.edge_count,
            epoch: 0,
        };
        debug_assert_eq!(store.check_arena(), Ok(()));
        store
    }

    /// First position of the unassigned tail.
    fn assigned_end(&self) -> usize {
        self.shards.last().map(|s| s.range.end).unwrap_or(0)
    }

    /// The live adjacency range of a position (the physical slice minus its
    /// tombstoned tail).
    fn live_range(&self, pos: usize) -> Range<usize> {
        self.slots[pos].live_range()
    }

    /// Tombstone the directed occurrence of position `to` in `from`'s
    /// adjacency: shift it out of the live prefix of the arena and of its
    /// tags (preserving the relative order of the survivors, which is what
    /// keeps match-limited metrics identical to a from-scratch build of the
    /// mutated graph) and grow the owning shard's dead-slot count.
    fn tombstone_arc(&mut self, from: usize, to: u32) -> bool {
        let live = self.live_range(from);
        let Some(arc) = arc_at(&self.slots, &self.targets, from, to) else {
            return false;
        };
        self.targets[arc..live.end].rotate_left(1);
        self.tags[arc..live.end].rotate_left(1);
        self.slots[from].live -= 1;
        let p = self.slots[from].home;
        if p < DEAD {
            self.dead_slots[p as usize] += 1;
        }
        true
    }

    /// Where the vertex at `pos` is, or would go, in the label index's list
    /// for `label` (lists are ordered by vertex id).
    fn label_list_slot(&self, label: Label, pos: usize) -> Result<usize, usize> {
        let members = self.by_label.get(&label).map_or(&[][..], Vec::as_slice);
        members.binary_search_by_key(&self.order[pos], |&q| self.order[q as usize])
    }

    /// Drop the vertex at `pos` from the label index and from its home
    /// shard's count, under `label`.
    fn unindex_label(&mut self, pos: usize, label: Label, shard: u32) {
        if let Ok(at) = self.label_list_slot(label, pos) {
            let members = self.by_label.get_mut(&label).expect("the list it is in");
            members.remove(at);
            if members.is_empty() {
                self.by_label.remove(&label);
            }
        }
        if shard < DEAD {
            let counts = &mut self.shards[shard as usize].label_counts;
            let count = counts
                .get_mut(&label)
                .expect("a live home vertex is counted");
            *count -= 1;
            if *count == 0 {
                counts.remove(&label);
            }
        }
    }

    /// The position of a live vertex.
    fn live_position(&self, v: VertexId) -> Option<usize> {
        let pos = self.position_of.get(v)? as usize;
        (self.slots[pos].home != DEAD).then_some(pos)
    }

    /// Tombstone a vertex: drop all incident live edges, mark the vertex
    /// dead and take it out of the label index and its shard's count.
    /// Queries skip it without a rebuild; [`ShardedStore::compact`] removes
    /// it physically.
    fn tombstone_vertex(&mut self, v: VertexId) -> bool {
        let Some(pos) = self.live_position(v) else {
            return false;
        };
        let neighbours: Vec<u32> = self.targets[self.live_range(pos)].to_vec();
        for &u in &neighbours {
            self.tombstone_arc(u as usize, pos as u32);
        }
        self.edge_count -= neighbours.len();
        let Slot { label, home, .. } = self.slots[pos];
        if home < DEAD {
            self.dead_slots[home as usize] += neighbours.len();
            self.dead_vertices[home as usize] += 1;
        }
        self.slots[pos].live = 0;
        self.slots[pos].home = DEAD;
        self.unindex_label(pos, label, home);
        true
    }

    /// Tombstone one undirected edge in both adjacency directions.
    fn tombstone_edge(&mut self, a: VertexId, b: VertexId) -> bool {
        let (Some(pa), Some(pb)) = (self.live_position(a), self.live_position(b)) else {
            return false;
        };
        if !self.tombstone_arc(pa, pb as u32) {
            return false;
        }
        self.tombstone_arc(pb, pa as u32);
        self.edge_count -= 1;
        true
    }

    /// Re-label a live vertex in place, keeping the label index sorted,
    /// moving one of its home shard's counts and rewriting the label bits of
    /// the one tag each neighbour holds for it (remote bits stand: nobody
    /// moved).
    fn relabel_in_place(&mut self, v: VertexId, label: Label) -> bool {
        let Some(pos) = self.live_position(v) else {
            return false;
        };
        let Slot {
            label: old, home, ..
        } = self.slots[pos];
        if old == label {
            return true;
        }
        self.unindex_label(pos, old, home);
        self.slots[pos].label = label;
        if let Err(at) = self.label_list_slot(label, pos) {
            let members = self.by_label.entry(label).or_default();
            members.insert(at, pos as u32);
        }
        if home < DEAD {
            let counts = &mut self.shards[home as usize].label_counts;
            *counts.entry(label).or_insert(0) += 1;
        }
        for arc in self.live_range(pos) {
            let to = self.targets[arc] as usize;
            let back = arc_at(&self.slots, &self.targets, to, pos as u32)
                .expect("undirected edges are stored twice");
            self.tags[back] = arc_tag(label, self.tags[back] & 1 != 0);
        }
        true
    }

    /// Apply the delete/relabel slice of a mutation batch to a *clone* of
    /// this snapshot, marking tombstones queries skip without any rebuild.
    ///
    /// Additions are ignored: growing the arena needs a rebuild, so callers
    /// republish additions from the authoritative graph and use this fast
    /// path for the destructive elements only. Mutations naming unknown or
    /// already-dead vertices are ignored (deletes are idempotent). The
    /// result carries epoch 0 — publish it through an
    /// [`crate::epoch::EpochStore`] to stamp it, exactly like a migration.
    pub fn apply_mutations(&self, mutations: &[loom_graph::StreamElement]) -> MutatedStore {
        let mut store = self.clone();
        store.epoch = 0;
        let (mut removed_vertices, mut removed_edges, mut relabelled) = (0usize, 0usize, 0usize);
        for element in mutations {
            match *element {
                loom_graph::StreamElement::RemoveVertex { id } => {
                    if store.tombstone_vertex(id) {
                        removed_vertices += 1;
                    }
                }
                loom_graph::StreamElement::RemoveEdge { source, target } => {
                    if store.tombstone_edge(source, target) {
                        removed_edges += 1;
                    }
                }
                loom_graph::StreamElement::Relabel { id, label } => {
                    if store.relabel_in_place(id, label) {
                        relabelled += 1;
                    }
                }
                loom_graph::StreamElement::AddVertex { .. }
                | loom_graph::StreamElement::AddEdge { .. } => {}
            }
        }
        debug_assert_eq!(store.check_arena(), Ok(()));
        MutatedStore {
            store,
            removed_vertices,
            removed_edges,
            relabelled,
        }
    }

    /// The fraction of a shard's physical slots (home vertices + adjacency
    /// entries) occupied by tombstones. 0.0 for unknown or empty shards.
    pub fn tombstone_fraction(&self, p: PartitionId) -> f64 {
        let Some(shard) = self.shards.get(p.index()) else {
            return 0.0;
        };
        let slots = self.slots[shard.range.end].offset - self.slots[shard.range.start].offset;
        let total = shard.range.len() + slots as usize;
        if total == 0 {
            return 0.0;
        }
        (self.dead_vertices[p.index()] + self.dead_slots[p.index()]) as f64 / total as f64
    }

    /// Total tombstoned vertices across the snapshot.
    pub fn tombstoned_vertices(&self) -> usize {
        self.slots.iter().filter(|s| s.home == DEAD).count()
    }

    /// Vertices a query can still see: [`ShardedStore::vertex_count`] less
    /// the tombstoned ones. What a checkpoint of this snapshot holds.
    pub fn live_vertex_count(&self) -> usize {
        self.order.len() - self.tombstoned_vertices()
    }

    /// Epoch compaction: physically rewrite every shard whose
    /// [`ShardedStore::tombstone_fraction`] reaches `threshold` (and holds at
    /// least one tombstone), dropping dead vertices and reclaiming dead
    /// adjacency slots. Shards below the threshold keep their slices —
    /// including their tombstones — and only get rebased onto shifted
    /// ranges; dead vertices in the unassigned tail are always purged.
    /// `compact(0.0)` therefore rewrites exactly the shards with any
    /// tombstone at all.
    ///
    /// The result is semantically identical to a from-scratch build of the
    /// mutated graph for the rewritten shards and carries epoch 0 — publish
    /// it through an [`crate::epoch::EpochStore`] exactly like a migration.
    pub fn compact(&self, threshold: f64) -> CompactedStore {
        let k = self.shards.len();
        let n = self.order.len();
        let crossing: Vec<bool> = (0..k)
            .map(|p| {
                (self.dead_vertices[p] + self.dead_slots[p]) > 0
                    && self.tombstone_fraction(PartitionId::new(p as u32)) >= threshold
            })
            .collect();
        let assigned_end = self.assigned_end();
        let is_live = |pos: &u32| self.slots[*pos as usize].home != DEAD;
        let tail_dead = (assigned_end as u32..n as u32).any(|pos| !is_live(&pos));
        if !tail_dead && crossing.iter().all(|&c| !c) {
            return CompactedStore {
                store: self.clone(),
                compacted_shards: Vec::new(),
                purged_vertices: 0,
                purged_slots: 0,
            };
        }

        // New partition-major order, as old positions: crossing shards and
        // the unassigned tail drop their dead vertices; everything else
        // keeps its slice verbatim.
        let mut from: Vec<u32> = Vec::with_capacity(n);
        let mut ranges: Vec<Range<usize>> = Vec::with_capacity(k);
        for (p, &cross) in crossing.iter().enumerate() {
            let start = from.len();
            let old = &self.shards[p].range;
            let old = old.start as u32..old.end as u32;
            if cross {
                from.extend(old.filter(is_live));
            } else {
                from.extend(old);
            }
            ranges.push(start..from.len());
        }
        from.extend((assigned_end as u32..n as u32).filter(is_live));

        // Rewritten shards (and the tail) keep only their live adjacency
        // prefix; rebased shards keep their physical extent. Purged vertices
        // are renamed to nothing — no live adjacency names them.
        let store = self.relaid(&from, ranges, &crossing, true);
        let compacted_shards: Vec<PartitionId> = crossing
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c)
            .map(|(p, _)| PartitionId::new(p as u32))
            .collect();
        CompactedStore {
            compacted_shards,
            purged_vertices: n - store.order.len(),
            purged_slots: self.targets.len() - store.targets.len(),
            store,
        }
    }

    /// Tag the snapshot with an epoch number (used by the ingest-while-serve
    /// epoch store).
    #[must_use]
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// The epoch this snapshot was published under (0 for ad-hoc builds).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of shards (partitions).
    pub fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }

    /// The shards, indexed by partition id.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// One shard by partition id.
    pub fn shard(&self, p: PartitionId) -> Option<&Shard> {
        self.shards.get(p.index())
    }

    /// Number of vertices in the snapshot.
    pub fn vertex_count(&self) -> usize {
        self.order.len()
    }

    /// Number of undirected edges in the snapshot.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The vertex ids hosted by a shard, in id order (the shard's CSR slice).
    pub fn home_vertices(&self, p: PartitionId) -> &[VertexId] {
        self.shards
            .get(p.index())
            .map(|s| &self.order[s.range.clone()])
            .unwrap_or(&[])
    }

    /// The shard hosting a vertex, if the vertex is assigned and live.
    pub fn home_shard(&self, v: VertexId) -> Option<PartitionId> {
        self.home_of(self.position_of.get(v)?)
    }

    /// The shard hosting the vertex a [`PatternStore`] handle names, if it is
    /// assigned and live: a slot read, no probe.
    pub fn home_of(&self, h: u32) -> Option<PartitionId> {
        match self.slots[h as usize].home {
            UNASSIGNED | DEAD => None,
            p => Some(PartitionId::new(p)),
        }
    }

    /// Shard `p`'s border, read off its slice: one pass over the live arcs
    /// of its live home vertices, streaming each arc's remote bit — which
    /// says exactly "the target's home is not `p`" — so no neighbour's slot
    /// is read. Empty for an out-of-range partition. This is the only place
    /// a boundary or a halo is ever made; nothing stores one.
    pub fn border(&self, p: PartitionId) -> ShardBorder {
        let mut border = ShardBorder::default();
        let Some(shard) = self.shards.get(p.index()) else {
            return border;
        };
        for pos in shard.range.clone() {
            let live = self.slots[pos].live_range();
            let before = border.halo.len();
            for (&q, &tag) in self.targets[live.clone()].iter().zip(&self.tags[live]) {
                if tag & 1 != 0 {
                    border.halo.push(self.order[q as usize]);
                }
            }
            if border.halo.len() > before {
                border.boundary.push(self.order[pos]);
            }
        }
        border.halo.sort_unstable();
        border.halo.dedup();
        border
    }

    /// Shard `p`'s home vertices with at least one remote neighbour, sorted
    /// by id ([`ShardedStore::border`]).
    pub fn boundary(&self, p: PartitionId) -> Vec<VertexId> {
        self.border(p).boundary
    }

    /// The remote vertices adjacent to shard `p` — its replicated halo —
    /// sorted by id ([`ShardedStore::border`]).
    pub fn halo(&self, p: PartitionId) -> Vec<VertexId> {
        self.border(p).halo
    }

    /// Shard `p`'s live home vertices carrying `label`, sorted by id: a
    /// filter over its slice. [`Shard::label_count`] is its length, kept.
    pub fn vertices_with_label(&self, p: PartitionId, label: Label) -> Vec<VertexId> {
        let range = self.shards.get(p.index()).map_or(0..0, |s| s.range.clone());
        let carries = |pos: &usize| {
            let slot = self.slots[*pos];
            slot.home != DEAD && slot.label == label
        };
        range.filter(carries).map(|pos| self.order[pos]).collect()
    }

    /// Mean copies of each live vertex across shards (home + halo replicas);
    /// 1.0 means no replication at all.
    pub fn replication_factor(&self) -> f64 {
        let live = self.live_vertex_count();
        if live == 0 {
            return 1.0;
        }
        // Every live vertex is held once — at home, or nowhere but counted
        // once if unassigned, so the factor stays an average over all of
        // them — and once more by each shard whose halo it is in.
        let replicas: usize = (0..self.shard_count())
            .map(|p| self.border(PartitionId::new(p)).halo.len())
            .sum();
        (live + replicas) as f64 / live as f64
    }

    /// Borrowed view of shard `p`'s contiguous slice of the CSR arena
    /// (home vertices, labels and adjacency in arena order), for checkpoint
    /// blob extraction. `None` for an out-of-range partition.
    pub fn shard_slice(&self, p: PartitionId) -> Option<ArenaSlice<'_>> {
        self.shards.get(p.index()).map(|s| ArenaSlice {
            store: self,
            range: s.range.clone(),
        })
    }

    /// Borrowed view of the unassigned tail of the arena: vertices the
    /// partitioner had not placed when the snapshot was frozen (e.g. still
    /// buffered in a streaming window). Empty when everything is assigned.
    pub fn unassigned_slice(&self) -> ArenaSlice<'_> {
        ArenaSlice {
            store: self,
            range: self.assigned_end()..self.order.len(),
        }
    }

    /// Check the position-space arena's invariants, naming the first one
    /// that fails. Every constructor and mutator runs it under
    /// `debug_assertions`; tests call it after each operation.
    ///
    /// * `order`, `position_of` and `slots` describe the same vertices;
    /// * slot offsets tile the arena and its tags, and every live prefix
    ///   fits its physical slice;
    /// * a live adjacency slot names a live position, never its own;
    /// * no live prefix names a position twice, and the named vertex names
    ///   this one back (undirected edges are stored twice, and tombstoned
    ///   twice): both read off a counting-sort transpose of the live arcs,
    ///   where each position's sources ascend — O(arcs · log d) in all;
    /// * every live arc's tag holds the low seven bits of its target's label
    ///   and whether its endpoints have different homes;
    /// * every label list holds live positions carrying that label, in
    ///   strictly ascending id order, and every live vertex is in one;
    /// * a slot's home is its shard's index (or a tombstone) inside a shard
    ///   range and never a partition outside one, each shard's slice and the
    ///   unassigned tail are in strictly ascending id order, and the
    ///   per-shard tombstone counters and label counts equal a recount.
    pub fn check_arena(&self) -> Result<(), String> {
        self.check_arena_in(Vec::new())
    }

    /// [`ShardedStore::check_arena`] with its transpose laid into `scratch`,
    /// which [`ArenaLoader::finish`] reserves on the thread that builds.
    fn check_arena_in(&self, mut scratch: Vec<u32>) -> Result<(), String> {
        let n = self.order.len();
        if self.slots.len() != n + 1 || self.position_of.len() != n {
            return Err(format!(
                "{n} vertices but {} slots and {} position entries",
                self.slots.len(),
                self.position_of.len()
            ));
        }
        if self.slots[n].offset as usize != self.targets.len()
            || self.targets.len() != self.tags.len()
        {
            return Err("closing slot does not bound the arena and the tags".into());
        }
        // The transpose of the live arcs (at most the arena): `q`'s sources
        // will be `sources[heads[q]..heads[q + 1]]`. Counted at `q + 2`, so
        // that placing uses `heads[q + 1]` as `q`'s cursor.
        scratch.clear();
        scratch.resize(n + 2 + self.targets.len(), 0);
        let (heads, sources) = scratch.split_at_mut(n + 2);
        for pos in 0..n {
            let slot = self.slots[pos];
            if self.position_of.get(self.order[pos]) != Some(pos as u32) {
                return Err(format!("position_of disagrees with order at {pos}"));
            }
            let physical = self.slots[pos + 1].offset.checked_sub(slot.offset);
            if physical.is_none_or(|len| slot.live > len) {
                return Err(format!("live prefix of {pos} overruns its slice"));
            }
            if slot.home == DEAD && slot.live != 0 {
                return Err(format!("tombstoned {pos} keeps live adjacency"));
            }
            let live = &self.targets[slot.live_range()];
            for (&q, &tag) in live.iter().zip(&self.tags[slot.live_range()]) {
                if q as usize >= n || q as usize == pos || self.slots[q as usize].home == DEAD {
                    return Err(format!("{pos} names {q}, which is not a live neighbour"));
                }
                let to = self.slots[q as usize];
                if tag >> 1 != arc_tag(to.label, false) >> 1 {
                    return Err(format!("label tag of arc {pos} → {q} is stale"));
                }
                if (tag & 1 != 0) != crosses(slot, to) {
                    return Err(format!("remote bit of arc {pos} → {q} is wrong"));
                }
                heads[q as usize + 2] += 1;
            }
        }
        for q in 2..heads.len() {
            heads[q] += heads[q - 1];
        }
        let arcs = heads[n + 1] as usize;
        // Positions are visited in order, so each one's sources come out
        // ascending.
        for pos in 0..n {
            for &q in &self.targets[self.slots[pos].live_range()] {
                let cursor = &mut heads[q as usize + 1];
                sources[*cursor as usize] = pos as u32;
                *cursor += 1;
            }
        }
        for pos in 0..n {
            let named_by = &sources[heads[pos] as usize..heads[pos + 1] as usize];
            if let Some(w) = named_by.windows(2).find(|w| w[0] == w[1]) {
                return Err(format!("{} names {pos} twice: a repeated neighbour", w[0]));
            }
            for &q in &self.targets[self.slots[pos].live_range()] {
                if named_by.binary_search(&q).is_err() {
                    return Err(format!("arc {pos} → {q} has no reverse arc"));
                }
            }
        }
        if arcs != 2 * self.edge_count {
            return Err(format!("{arcs} live arcs for {} edges", self.edge_count));
        }
        // A member carries its list's label and no list repeats one, so equal
        // counts put every live vertex in exactly one list.
        let mut indexed = 0;
        for (label, members) in &self.by_label {
            let carries = |&q: &u32| {
                self.slots[..n]
                    .get(q as usize)
                    .is_some_and(|slot| slot.home != DEAD && slot.label == *label)
            };
            if let Some(q) = members.iter().find(|q| !carries(q)) {
                return Err(format!("label list {label:?} holds {q}, not live under it"));
            }
            let id = |q: u32| self.order[q as usize];
            if members.is_empty() || !members.windows(2).all(|w| id(w[0]) < id(w[1])) {
                return Err(format!("label list {label:?} is empty or out of id order"));
            }
            indexed += members.len();
        }
        let live_vertices = self.slots[..n].iter().filter(|s| s.home != DEAD).count();
        if indexed != live_vertices {
            return Err(format!(
                "{live_vertices} live vertices but the label lists hold {indexed}"
            ));
        }
        let ranges: Vec<Range<usize>> = self.shards.iter().map(|s| s.range.clone()).collect();
        let mut cursor = 0;
        for (p, range) in ranges.iter().enumerate() {
            if range.start != cursor || range.end < range.start || range.end > n {
                return Err(format!("shard {p} does not continue the tiling"));
            }
            cursor = range.end;
            let strays = |&pos: &usize| ![p as u32, DEAD].contains(&self.slots[pos].home);
            if let Some(pos) = range.clone().find(strays) {
                return Err(format!("position {pos} in shard {p} is homed elsewhere"));
            }
            let recount = Shard::counted(p, range.clone(), &self.slots).label_counts;
            if self.shards[p].label_counts != recount {
                return Err(format!("label counts of shard {p} drifted from a recount"));
            }
        }
        if let Some(pos) = (cursor..n).find(|&pos| self.slots[pos].home < DEAD) {
            return Err(format!("unassigned-tail position {pos} has a home"));
        }
        let tail = std::iter::once(cursor..n);
        for range in ranges.iter().cloned().chain(tail) {
            let ids = &self.order[range];
            if let Some(w) = ids.windows(2).find(|w| w[0] >= w[1]) {
                return Err(format!("{} precedes {} within one slice", w[0], w[1]));
            }
        }
        if dead_counters(&ranges, &self.slots)
            != (self.dead_vertices.clone(), self.dead_slots.clone())
        {
            return Err("per-shard tombstone counters drifted from a recount".into());
        }
        Ok(())
    }
}

/// The checkpoint loader's door into the arena: vertices are appended in
/// the partition-major order the blobs were serialized in — shard 0's slice,
/// shard 1's, …, then the unassigned tail — with adjacency as the ids the
/// blobs carry. [`ArenaLoader::finish`] renames the adjacency to positions
/// (the one `position_of` lookup per directed edge a freeze pays) and shares
/// [`ShardedStore::from_parts`]' tail; what it returns becomes a
/// [`ShardedStore`] only through [`UncheckedArena::check`]. Nothing appended
/// is trusted: every way the input can fail to be a sound arena is an `Err`
/// naming it, from one step or the other.
#[derive(Debug)]
pub struct ArenaLoader {
    shards: u32,
    order: Vec<VertexId>,
    /// Label, home, offset and live degree per appended vertex; offsets
    /// index `neighbours` until `finish` renames it.
    slots: Vec<Slot>,
    neighbours: Vec<VertexId>,
}

impl ArenaLoader {
    /// A loader for a store of `shards` shards.
    pub fn new(shards: u32) -> Self {
        Self::with_capacity(shards, 0, 0)
    }

    /// A loader for a store of `shards` shards with room for `vertices`
    /// vertices and `arcs` neighbour entries, so a loader told the arena's
    /// size grows nothing while it is filled. The caller bounds both by
    /// what it will append: this allocates them.
    pub fn with_capacity(shards: u32, vertices: usize, arcs: usize) -> Self {
        Self {
            shards,
            order: Vec::with_capacity(vertices),
            // One more for the end slot `finish` appends.
            slots: Vec::with_capacity(vertices + 1),
            neighbours: Vec::with_capacity(arcs),
        }
    }

    /// Vertices appended so far.
    pub fn vertex_count(&self) -> usize {
        self.order.len()
    }

    /// Append the next vertex of the arena: homed at `home` (`None` for the
    /// unassigned tail), with its adjacency list in traversal order.
    pub fn push_vertex(
        &mut self,
        home: Option<PartitionId>,
        v: VertexId,
        label: Label,
        neighbours: impl IntoIterator<Item = VertexId>,
    ) {
        let offset = self.neighbours.len();
        for u in neighbours {
            self.neighbours.push(u);
        }
        self.order.push(v);
        // Offsets past `u32` are refused in `finish` before any is read.
        self.slots.push(Slot {
            label,
            home: home.map_or(UNASSIGNED, |p| p.0),
            offset: offset as u32,
            live: (self.neighbours.len() - offset) as u32,
        });
    }

    /// Freeze what was appended (epoch 0). Building allocates — the check's
    /// scratch included, reserved here — and checking does not, so the two
    /// are separate steps a caller may run on separate threads.
    ///
    /// # Errors
    ///
    /// Names the first thing that keeps an arena from being laid out at all:
    /// no shards, a home outside them or out of partition-major order, a
    /// vertex listed twice, a neighbour listed nowhere.
    pub fn finish(self) -> Result<UncheckedArena, String> {
        let Self {
            shards,
            mut order,
            mut slots,
            neighbours,
        } = self;
        let (n, k) = (order.len(), shards as usize);
        // Lives as long as the store: drop the slack growing it left (none
        // when the loader was sized to the arena).
        order.shrink_to_fit();
        if k == 0 {
            return Err("a store needs at least one shard".into());
        }
        if n >= VACANT as usize || neighbours.len() > u32::MAX as usize {
            return Err(format!(
                "{n} vertices and {} arcs overflow u32 positions",
                neighbours.len()
            ));
        }
        // Bucket `k` is the unassigned tail, as in `from_parts`.
        let mut starts = vec![0usize; k + 2];
        let mut last = 0;
        for (slot, v) in slots.iter().zip(&order) {
            let bucket = (slot.home as usize).min(k);
            if slot.home != UNASSIGNED && bucket == k {
                return Err(format!("{v} is homed at shard {} of {k}", slot.home));
            }
            if bucket < last {
                return Err(format!("{v} breaks the partition-major order"));
            }
            last = bucket;
            starts[bucket + 1] += 1;
        }
        for bucket in 0..=k {
            starts[bucket + 1] += starts[bucket];
        }
        // Rows arrive partition-major, so high ids come early: told `n`,
        // the index lays them in its array instead of hashing them first.
        let mut position_of = VertexIndex::with_expected(n);
        for (pos, &v) in order.iter().enumerate() {
            if position_of.try_insert(v, pos as u32).is_err() {
                return Err(format!("{v} is listed twice"));
            }
        }
        // Arena order is (partition, id); the label index is by id alone,
        // the order `position_of` walks in.
        let mut by_label: FxHashMap<Label, Vec<u32>> = FxHashMap::default();
        for (_, pos) in position_of.ordered() {
            by_label
                .entry(slots[pos as usize].label)
                .or_default()
                .push(pos);
        }
        let mut targets: Vec<u32> = Vec::with_capacity(neighbours.len());
        for (slot, &v) in slots.iter().zip(&order) {
            for u in &neighbours[slot.live_range()] {
                let Some(q) = position_of.get(*u) else {
                    return Err(format!("{v} names {u}, which is listed nowhere"));
                };
                targets.push(q);
            }
        }
        slots.push(end_slot(0));
        slots.shrink_to_fit();
        let edge_count = targets.len() / 2;
        let store = ShardedStore::assemble(
            order,
            position_of,
            slots,
            targets,
            &starts[..=k],
            by_label,
            edge_count,
        );
        let scratch = Vec::with_capacity(n + 2 + store.targets.len());
        Ok(UncheckedArena { store, scratch })
    }
}

/// An arena laid out by [`ArenaLoader::finish`] from untrusted input, not
/// yet shown to be sound. It answers nothing; [`UncheckedArena::check`] and
/// [`UncheckedArena::check_beside`] are the only ways on.
#[derive(Debug)]
pub struct UncheckedArena {
    store: ShardedStore,
    /// Room for the check's transpose, reserved by the building thread.
    scratch: Vec<u32>,
}

impl UncheckedArena {
    /// Run [`ShardedStore::check_arena`] and release the store if it holds.
    ///
    /// # Errors
    ///
    /// Names the invariant that fails: a self-loop, a repeated neighbour, an
    /// edge only one endpoint lists, a slice out of id order.
    pub fn check(self) -> Result<ShardedStore, String> {
        self.store.check_arena_in(self.scratch)?;
        Ok(self.store)
    }

    /// Check the arena on a scoped thread — [`ShardedStore::check_arena`],
    /// then `proof` over the store once that holds (`proof` is handed the
    /// check's error otherwise) — while `beside` reads the same arena,
    /// still unproven, on the calling thread through an [`ArenaView`]. The
    /// store comes back only if the check and `proof` both hold; `beside`'s
    /// result comes back either way, and is the caller's to drop when the
    /// store does not. The checking thread lays its transpose into the room
    /// [`ArenaLoader::finish`] reserved, so what `beside` allocates is the
    /// calling thread's.
    pub fn check_beside<E: Send, R>(
        self,
        proof: impl FnOnce(Result<&ShardedStore, String>) -> Result<(), E> + Send,
        beside: impl FnOnce(ArenaView<'_>) -> R,
    ) -> (Result<ShardedStore, E>, R) {
        let Self { store, scratch } = self;
        let (proven, built) = std::thread::scope(|scope| {
            let store = &store;
            let checker = scope.spawn(move || proof(store.check_arena_in(scratch).map(|()| store)));
            let built = beside(store.view());
            (checker.join().expect("the arena check panicked"), built)
        });
        (proven.map(|()| store), built)
    }
}

/// An arena's rows, homes and totals, read-only — what a graph mirror and a
/// restoring partitioner are built from, and nothing that answers a query.
/// [`UncheckedArena::check_beside`] lends one over an arena nobody has
/// proven yet, so nothing here assumes the arena is sound: every read stays
/// in bounds whatever [`ArenaLoader::finish`] let through.
#[derive(Debug, Clone, Copy)]
pub struct ArenaView<'a> {
    store: &'a ShardedStore,
}

impl<'a> ArenaView<'a> {
    /// Every live vertex with its label and its live neighbours, in arena
    /// order, each list in the order the arena stores it.
    pub fn rows(
        &self,
    ) -> impl Iterator<
        Item = (
            VertexId,
            Label,
            impl ExactSizeIterator<Item = VertexId> + 'a,
        ),
    > + 'a {
        let whole = ArenaSlice {
            store: self.store,
            range: 0..self.store.order.len(),
        };
        whole.rows()
    }

    /// Every live vertex with its home shard — `None` for the unassigned
    /// tail — in arena order: the assignment the shard ranges encode, as a
    /// restoring partitioner takes it.
    pub fn homes(&self) -> impl Iterator<Item = (VertexId, Option<PartitionId>)> + 'a {
        let store = self.store;
        store
            .order
            .iter()
            .zip(&store.slots)
            .filter(|(_, slot)| slot.home != DEAD)
            .map(|(&v, slot)| {
                (
                    v,
                    (slot.home != UNASSIGNED).then(|| PartitionId::new(slot.home)),
                )
            })
    }

    /// Live vertices.
    pub fn vertex_count(&self) -> usize {
        self.store.live_vertex_count()
    }

    /// Undirected edges, as the arena counts them.
    pub fn edge_count(&self) -> usize {
        self.store.edge_count
    }

    /// The live graph the arena holds — every adjacency list in arena order,
    /// so a store rebuilt from it traverses identically; tombstoned vertices
    /// and edges are left out. Built by the trusting bulk constructor
    /// ([`LabelledGraph::from_proven_lists`]): a proven arena is a simple
    /// undirected graph by [`ShardedStore::check_arena`], and a graph built
    /// from an unproven one is dropped unless its proof holds.
    pub fn to_graph(&self) -> LabelledGraph {
        LabelledGraph::from_proven_lists(self.vertex_count(), self.edge_count(), self.rows())
    }
}

/// A borrowed, contiguous slice of a [`ShardedStore`]'s partition-major CSR
/// arena: either one shard's home vertices ([`ShardedStore::shard_slice`])
/// or the unassigned tail ([`ShardedStore::unassigned_slice`]). The
/// durability layer serializes exactly these views into checkpoint blobs.
#[derive(Debug, Clone)]
pub struct ArenaSlice<'a> {
    store: &'a ShardedStore,
    range: Range<usize>,
}

impl<'a> ArenaSlice<'a> {
    /// The slice's live positions, in arena order. Tombstoned vertices are
    /// skipped: a blob cut from a tombstoned epoch is the blob its
    /// compaction would cut.
    fn positions(&self) -> impl Iterator<Item = usize> + 'a {
        let store = self.store;
        self.range
            .clone()
            .filter(move |&pos| store.slots[pos].home != DEAD)
    }

    /// Number of live vertices in the slice.
    pub fn len(&self) -> usize {
        self.positions().count()
    }

    /// Whether the slice holds no live vertex.
    pub fn is_empty(&self) -> bool {
        self.positions().next().is_none()
    }

    /// The slice's live vertex ids, in arena order (ascending id within a
    /// shard).
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + 'a {
        let store = self.store;
        self.positions().map(move |pos| store.order[pos])
    }

    /// Every live vertex of the slice with its label and its live adjacency
    /// — in the data graph's stable iteration order (the order the arena
    /// stores and traversals follow), turned back from positions into vertex
    /// ids. Tombstoned slots are excluded, so checkpoint blobs never carry
    /// dead edges.
    pub fn rows(
        &self,
    ) -> impl Iterator<
        Item = (
            VertexId,
            Label,
            impl ExactSizeIterator<Item = VertexId> + 'a,
        ),
    > + 'a {
        let store = self.store;
        self.positions().map(move |pos| {
            let neighbours = store.targets[store.live_range(pos)].iter();
            let ids = neighbours.map(move |&q| store.order[q as usize]);
            (store.order[pos], store.slots[pos].label, ids)
        })
    }
}

/// The result of an incremental migration rebuild
/// ([`ShardedStore::apply_migration`]).
#[derive(Debug, Clone)]
pub struct MigratedStore {
    /// The rebuilt snapshot (epoch 0 — stamped on publication).
    pub store: ShardedStore,
    /// Shards whose slices changed membership: the sources and targets of
    /// the applied moves, in id order. Every other shard's counts were
    /// reused.
    pub affected_shards: Vec<PartitionId>,
    /// Vertices whose home shard actually changed.
    pub moved: usize,
}

/// The result of a tombstoning pass ([`ShardedStore::apply_mutations`]).
#[derive(Debug, Clone)]
pub struct MutatedStore {
    /// The marked snapshot (epoch 0 — stamped on publication).
    pub store: ShardedStore,
    /// Vertices newly tombstoned by the batch.
    pub removed_vertices: usize,
    /// Edges newly tombstoned by the batch.
    pub removed_edges: usize,
    /// Vertices whose label changed.
    pub relabelled: usize,
}

/// The result of an epoch-compaction pass ([`ShardedStore::compact`]).
#[derive(Debug, Clone)]
pub struct CompactedStore {
    /// The compacted snapshot (epoch 0 — stamped on publication).
    pub store: ShardedStore,
    /// Shards physically rewritten, in id order; every other shard was
    /// rebased without a rebuild.
    pub compacted_shards: Vec<PartitionId>,
    /// Tombstoned vertices physically removed.
    pub purged_vertices: usize,
    /// Tombstoned adjacency slots physically reclaimed.
    pub purged_slots: usize,
}

/// Publish every shard's tombstone fraction to the `store.tombstone_fraction`
/// gauge family (one series per shard, labelled `shard=<index>`). Gauges are
/// integer levels, so the fraction is reported in basis points (0..=10_000).
pub fn record_tombstone_gauges(store: &ShardedStore, telemetry: &loom_obs::Telemetry) {
    for shard in store.shards() {
        let basis_points = (store.tombstone_fraction(shard.id()) * 10_000.0).round() as i64;
        telemetry
            .registry()
            .gauge(
                "store.tombstone_fraction",
                &[("shard", shard.id().index().to_string())],
            )
            .set(basis_points);
    }
}

impl PatternStore for ShardedStore {
    /// A vertex's position in the partition-major arena.
    type Handle = u32;

    /// One hash probe: only explicit roots, which arrive as ids, pay it.
    fn resolve(&self, v: VertexId) -> Option<u32> {
        self.live_position(v).map(|pos| pos as u32)
    }

    #[inline]
    fn vertex_of(&self, h: u32) -> VertexId {
        self.order[h as usize]
    }

    #[inline]
    fn label_of(&self, h: u32) -> Label {
        self.slots[h as usize].label
    }

    /// The adjacency and its tags, streamed side by side: no slot but the
    /// anchor's is read.
    #[inline]
    fn arcs_of(&self, from: u32, label: Label) -> impl Iterator<Item = TaggedArc<u32>> {
        let live = self.slots[from as usize].live_range();
        let wanted = arc_tag(label, false);
        self.targets[live.clone()]
            .iter()
            .zip(&self.tags[live])
            .map(move |(&to, &tag)| TaggedArc {
                to,
                remote: tag & 1 != 0,
                may_match: tag & !1 == wanted,
            })
    }

    #[inline]
    fn degree_of(&self, h: u32) -> usize {
        self.slots[h as usize].live as usize
    }

    /// A scan of the shorter live slice: the edge is stored at both ends.
    #[inline]
    fn adjacent(&self, a: u32, b: u32) -> bool {
        let (sa, sb) = (self.slots[a as usize], self.slots[b as usize]);
        if sa.live <= sb.live {
            self.targets[sa.live_range()].contains(&b)
        } else {
            self.targets[sb.live_range()].contains(&a)
        }
    }

    fn handles_with_label(&self, label: Label) -> &[u32] {
        self.by_label.get(&label).map(Vec::as_slice).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::generators::regular::path_graph;
    use loom_sim::store::PartitionedStore;

    fn fixture() -> (LabelledGraph, Partitioning) {
        // 0 - 1 - 2 - 3 with partitions {0,1} {2}; 3 unassigned.
        let g = path_graph(4, &[Label::new(0), Label::new(1)]);
        let vs = g.vertices_sorted();
        let mut part = Partitioning::new(2, 4).unwrap();
        part.assign(vs[0], PartitionId::new(0)).unwrap();
        part.assign(vs[1], PartitionId::new(0)).unwrap();
        part.assign(vs[2], PartitionId::new(1)).unwrap();
        (g, part)
    }

    #[test]
    fn partition_major_layout_and_slices() {
        let (g, part) = fixture();
        let vs = g.vertices_sorted();
        let store = ShardedStore::from_parts(&g, &part);
        assert_eq!(store.shard_count(), 2);
        assert_eq!(store.vertex_count(), 4);
        assert_eq!(store.edge_count(), 3);
        assert_eq!(store.home_vertices(PartitionId::new(0)), &[vs[0], vs[1]]);
        assert_eq!(store.home_vertices(PartitionId::new(1)), &[vs[2]]);
        assert_eq!(store.home_shard(vs[1]), Some(PartitionId::new(0)));
        assert_eq!(store.home_shard(vs[3]), None);
    }

    #[test]
    fn boundary_and_halo_indexes() {
        let (g, part) = fixture();
        let vs = g.vertices_sorted();
        let store = ShardedStore::from_parts(&g, &part);
        let (p0, p1) = (PartitionId::new(0), PartitionId::new(1));
        // Vertex 1 borders partition 1's vertex 2.
        assert_eq!(store.boundary(p0), &[vs[1]]);
        assert_eq!(store.halo(p0), &[vs[2]]);
        // Vertex 2 borders both vertex 1 (shard 0) and unassigned vertex 3.
        assert_eq!(store.boundary(p1), &[vs[2]]);
        assert_eq!(store.halo(p1), &[vs[1], vs[3]]);
        assert_eq!(store.border(PartitionId::new(9)), ShardBorder::default());
        // Four vertices, three halo replicas.
        assert_eq!(store.replication_factor(), 7.0 / 4.0);

        // Computed from the slice, so a tombstone cannot leave it stale:
        // without vertex 2 nothing borders anything but unassigned vertex 3.
        let tombstoned = store
            .apply_mutations(&[loom_graph::StreamElement::RemoveVertex { id: vs[2] }])
            .store;
        assert_eq!(tombstoned.border(p0), ShardBorder::default());
        assert_eq!(tombstoned.border(p1), ShardBorder::default());
        assert_eq!(tombstoned.replication_factor(), 1.0);
    }

    /// Assert two stores give the matcher the same answers — compared
    /// through the handle interface, with handles turned back into ids.
    fn assert_same_answers<A: PatternStore, B: PatternStore>(a: &A, b: &B, vs: &[VertexId]) {
        /// A vertex's arcs as `(neighbour id, remote)`, and which of them may
        /// carry `label`.
        fn arcs<S: PatternStore>(
            store: &S,
            h: S::Handle,
            label: Label,
        ) -> (Vec<(VertexId, bool)>, Vec<VertexId>) {
            let arcs: Vec<_> = store.arcs_of(h, label).collect();
            let id = |arc: &TaggedArc<S::Handle>| store.vertex_of(arc.to);
            let metered = arcs.iter().map(|arc| (id(arc), arc.remote)).collect();
            let passed = arcs.iter().filter(|arc| arc.may_match).map(id).collect();
            (metered, passed)
        }
        let labels = [0, 1, 2, 9].map(Label::new);
        for &v in vs {
            let (Some(ha), Some(hb)) = (a.resolve(v), b.resolve(v)) else {
                assert_eq!(
                    a.resolve(v).is_some(),
                    b.resolve(v).is_some(),
                    "resolve({v})"
                );
                continue;
            };
            assert_eq!((a.vertex_of(ha), b.vertex_of(hb)), (v, v));
            assert_eq!(a.label_of(ha), b.label_of(hb), "label_of({v})");
            // No two of these labels share their low seven bits, so the
            // filter must agree with the hash-map store's exact answer.
            for l in labels {
                assert_eq!(arcs(a, ha, l), arcs(b, hb, l), "arcs_of({v}, {l:?})");
            }
            assert_eq!(a.degree_of(ha), a.arcs_of(ha, labels[0]).count());
            assert_eq!(a.degree_of(ha), b.degree_of(hb), "degree_of({v})");
            for &u in vs {
                let (Some(ua), Some(ub)) = (a.resolve(u), b.resolve(u)) else {
                    continue;
                };
                assert_eq!(a.adjacent(ha, ua), b.adjacent(hb, ub), "adjacent({v},{u})");
            }
        }
        let ids = |hs: &[A::Handle]| hs.iter().map(|&h| a.vertex_of(h)).collect::<Vec<_>>();
        for l in labels {
            let listed: Vec<_> = b
                .handles_with_label(l)
                .iter()
                .map(|&h| b.vertex_of(h))
                .collect();
            assert_eq!(
                ids(a.handles_with_label(l)),
                listed,
                "handles_with_label({l:?})"
            );
        }
    }

    #[test]
    fn pattern_store_semantics_match_the_sequential_store() {
        let (g, part) = fixture();
        let vs = g.vertices_sorted();
        let sharded = ShardedStore::from_parts(&g, &part);
        sharded.check_arena().unwrap();
        let sequential = PartitionedStore::new(g.clone(), part.clone());
        assert_same_answers(&sharded, &sequential, &vs);
        // The unassigned vertex is remote to everyone, itself included.
        let (s2, s3) = (
            sharded.position_of.get(vs[2]).unwrap(),
            sharded.position_of.get(vs[3]).unwrap(),
        );
        let (s2, s3) = (sharded.slots[s2 as usize], sharded.slots[s3 as usize]);
        assert!(crosses(s2, s3) && crosses(s3, s2) && crosses(s3, s3));
        assert_eq!(sharded.resolve(VertexId::new(10_000)), None);
        assert_eq!(sequential.resolve(VertexId::new(10_000)), None);
    }

    #[test]
    fn per_shard_label_index_covers_home_vertices_only() {
        let (g, part) = fixture();
        let vs = g.vertices_sorted();
        let store = ShardedStore::from_parts(&g, &part);
        let p0 = PartitionId::new(0);
        let s0 = store.shard(p0).unwrap();
        assert_eq!(store.vertices_with_label(p0, Label::new(0)), &[vs[0]]);
        assert_eq!(store.vertices_with_label(p0, Label::new(1)), &[vs[1]]);
        assert!(store.vertices_with_label(p0, Label::new(9)).is_empty());
        // What the router reads is the length of each, kept.
        let counts = [0, 1, 9].map(|l| s0.label_count(Label::new(l)));
        assert_eq!(counts, [1, 1, 0]);
        assert_eq!(s0.len(), 2);
        assert!(!s0.is_empty());
        assert_eq!(s0.id(), PartitionId::new(0));
    }

    #[test]
    fn epoch_tagging() {
        let (g, part) = fixture();
        let store = ShardedStore::from_parts(&g, &part).with_epoch(7);
        assert_eq!(store.epoch(), 7);
    }

    /// A 9-vertex path over 3 partitions of 3 vertices each.
    fn migration_fixture() -> (LabelledGraph, Partitioning) {
        let g = path_graph(9, &[Label::new(0), Label::new(1), Label::new(2)]);
        let mut part = Partitioning::new(3, 9).unwrap();
        for (i, v) in g.vertices_sorted().into_iter().enumerate() {
            part.assign(v, PartitionId::new((i / 3) as u32)).unwrap();
        }
        (g, part)
    }

    /// Assert two stores are semantically identical: same layout, same
    /// shard borders and label counts, sound arenas, same `PatternStore`
    /// answers.
    fn assert_stores_equal(a: &ShardedStore, b: &ShardedStore, vs: &[VertexId]) {
        assert_eq!(a.vertex_count(), b.vertex_count());
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(a.shard_count(), b.shard_count());
        for p in 0..a.shard_count() {
            let p = PartitionId::new(p);
            assert_eq!(a.home_vertices(p), b.home_vertices(p), "{p} homes");
            assert_eq!(a.border(p), b.border(p), "{p} border");
            let (sa, sb) = (a.shard(p).unwrap(), b.shard(p).unwrap());
            assert_eq!(sa.label_counts, sb.label_counts, "{p} label counts");
            for l in [Label::new(0), Label::new(1), Label::new(2)] {
                assert_eq!(
                    a.vertices_with_label(p, l),
                    b.vertices_with_label(p, l),
                    "{p} label {l:?}"
                );
            }
        }
        for &v in vs {
            assert_eq!(a.home_shard(v), b.home_shard(v));
        }
        a.check_arena().unwrap();
        b.check_arena().unwrap();
        assert_same_answers(a, b, vs);
    }

    #[test]
    fn migration_matches_a_from_scratch_rebuild() {
        let (g, mut part) = migration_fixture();
        let vs = g.vertices_sorted();
        let store = ShardedStore::from_parts(&g, &part);
        // Move vertex 3 (shard 1) home to shard 0 and vertex 5 to shard 2.
        let moves = vec![(vs[3], PartitionId::new(0)), (vs[5], PartitionId::new(2))];
        let migrated = store.apply_migration(&moves);
        assert_eq!(migrated.moved, 2);
        assert_eq!(
            migrated.affected_shards,
            vec![
                PartitionId::new(0),
                PartitionId::new(1),
                PartitionId::new(2)
            ]
        );
        for (v, to) in moves {
            part.move_vertex(v, to).unwrap();
        }
        let rebuilt = ShardedStore::from_parts(&g, &part);
        assert_stores_equal(&migrated.store, &rebuilt, &vs);
    }

    #[test]
    fn untouched_shards_are_reused_not_rebuilt() {
        let (g, part) = migration_fixture();
        let vs = g.vertices_sorted();
        let store = ShardedStore::from_parts(&g, &part);
        // One move between shards 0 and 1: shard 2 must not be affected.
        let migrated = store.apply_migration(&[(vs[3], PartitionId::new(0))]);
        assert_eq!(
            migrated.affected_shards,
            vec![PartitionId::new(0), PartitionId::new(1)]
        );
        // What there is to reuse is shard 2's count table, over a range that
        // did not move either.
        let (old, new) = (
            store.shard(PartitionId::new(2)).unwrap(),
            migrated.store.shard(PartitionId::new(2)).unwrap(),
        );
        assert_eq!(old.label_counts, new.label_counts);
        assert_eq!(old.range, new.range);
        // And the reused shard is still *correct* against a full rebuild.
        let mut moved = part.clone();
        moved.move_vertex(vs[3], PartitionId::new(0)).unwrap();
        assert_stores_equal(&migrated.store, &ShardedStore::from_parts(&g, &moved), &vs);
    }

    #[test]
    fn degenerate_moves_are_ignored() {
        let (g, part) = migration_fixture();
        let vs = g.vertices_sorted();
        let store = ShardedStore::from_parts(&g, &part);
        let migrated = store.apply_migration(&[
            (vs[0], PartitionId::new(0)),                 // already there
            (vs[1], PartitionId::new(9)),                 // unknown partition
            (VertexId::new(10_000), PartitionId::new(1)), // unknown vertex
        ]);
        assert_eq!(migrated.moved, 0);
        assert!(migrated.affected_shards.is_empty());
        assert_stores_equal(&migrated.store, &store, &vs);
    }

    #[test]
    fn last_move_wins_for_a_repeated_vertex() {
        let (g, mut part) = migration_fixture();
        let vs = g.vertices_sorted();
        let store = ShardedStore::from_parts(&g, &part);
        let migrated =
            store.apply_migration(&[(vs[4], PartitionId::new(0)), (vs[4], PartitionId::new(2))]);
        assert_eq!(migrated.moved, 1);
        part.move_vertex(vs[4], PartitionId::new(2)).unwrap();
        assert_stores_equal(&migrated.store, &ShardedStore::from_parts(&g, &part), &vs);
    }

    #[test]
    fn tombstones_hide_vertices_and_edges_without_a_rebuild() {
        use loom_graph::StreamElement;
        let (g, part) = migration_fixture();
        let vs = g.vertices_sorted();
        let store = ShardedStore::from_parts(&g, &part);
        let mutated = store
            .apply_mutations(&[
                StreamElement::RemoveEdge {
                    source: vs[1],
                    target: vs[2],
                },
                StreamElement::RemoveVertex { id: vs[4] },
                StreamElement::Relabel {
                    id: vs[0],
                    label: Label::new(2),
                },
                // Unknown / repeated mutations are ignored.
                StreamElement::RemoveVertex { id: vs[4] },
                StreamElement::RemoveVertex {
                    id: VertexId::new(10_000),
                },
            ])
            .store;

        // Apply the same mutations to the graph and compare PatternStore
        // answers against a from-scratch build and the sequential store.
        let mut mutated_graph = g.clone();
        mutated_graph.remove_edge(vs[1], vs[2]);
        mutated_graph.remove_vertex(vs[4]);
        mutated_graph.set_label(vs[0], Label::new(2)).unwrap();
        let mut live_part = part.clone();
        live_part.unassign(vs[4]);
        let rebuilt = ShardedStore::from_parts(&mutated_graph, &live_part);

        mutated.check_arena().unwrap();
        assert_same_answers(&mutated, &rebuilt, &vs);
        assert_same_answers(
            &mutated,
            &PartitionedStore::new(mutated_graph.clone(), live_part),
            &vs,
        );
        // A tombstoned vertex resolves to nothing, exactly like a purged one.
        assert_eq!(mutated.resolve(vs[4]), None);
        assert_eq!(rebuilt.resolve(vs[4]), None);
        assert_eq!(mutated.edge_count(), mutated_graph.edge_count());
        assert_eq!(mutated.home_shard(vs[4]), None);
        assert_eq!(mutated.tombstoned_vertices(), 1);
        // Vertex 4 lives on shard 1: its tombstone fraction is positive,
        // shard 0 lost adjacency slots to the edge removal and vertex death.
        assert!(mutated.tombstone_fraction(PartitionId::new(1)) > 0.0);
        assert_eq!(mutated.tombstone_fraction(PartitionId::new(9)), 0.0);
    }

    #[test]
    fn compaction_purges_tombstones_and_matches_a_fresh_build() {
        use loom_graph::StreamElement;
        let (g, part) = migration_fixture();
        let vs = g.vertices_sorted();
        let store = ShardedStore::from_parts(&g, &part);
        let mutated = store
            .apply_mutations(&[
                StreamElement::RemoveVertex { id: vs[4] },
                StreamElement::RemoveEdge {
                    source: vs[7],
                    target: vs[8],
                },
            ])
            .store;

        // Threshold 0.0: every shard holding any tombstone is rewritten.
        let compacted = mutated.compact(0.0);
        assert_eq!(compacted.purged_vertices, 1);
        assert!(
            compacted.purged_slots >= 2,
            "both edge directions reclaimed"
        );
        assert!(!compacted.compacted_shards.is_empty());
        let store = &compacted.store;
        assert_eq!(store.tombstoned_vertices(), 0);
        for p in 0..store.shard_count() {
            assert_eq!(store.tombstone_fraction(PartitionId::new(p)), 0.0);
        }

        let mut mutated_graph = g.clone();
        mutated_graph.remove_vertex(vs[4]);
        mutated_graph.remove_edge(vs[7], vs[8]);
        let mut live_part = part.clone();
        live_part.unassign(vs[4]);
        let rebuilt = ShardedStore::from_parts(&mutated_graph, &live_part);
        let live: Vec<VertexId> = vs.iter().copied().filter(|&v| v != vs[4]).collect();
        assert_stores_equal(store, &rebuilt, &live);
        // A second compaction has nothing to do and rewrites nothing.
        assert!(store.compact(0.0).compacted_shards.is_empty());
    }

    #[test]
    fn compaction_threshold_spares_lightly_tombstoned_shards() {
        use loom_graph::StreamElement;
        let (g, part) = migration_fixture();
        let vs = g.vertices_sorted();
        let store = ShardedStore::from_parts(&g, &part);
        // Kill both interior vertices of shard 1 (heavy churn there) but only
        // one edge touching shard 2 (light churn).
        let mutated = store
            .apply_mutations(&[
                StreamElement::RemoveVertex { id: vs[3] },
                StreamElement::RemoveVertex { id: vs[4] },
                StreamElement::RemoveEdge {
                    source: vs[7],
                    target: vs[8],
                },
            ])
            .store;
        let heavy = mutated.tombstone_fraction(PartitionId::new(1));
        let light = mutated.tombstone_fraction(PartitionId::new(2));
        assert!(heavy > light && light > 0.0);

        // A threshold between the two fractions rewrites only shard 1.
        let threshold = (heavy + light) / 2.0;
        let compacted = mutated.compact(threshold);
        assert_eq!(compacted.compacted_shards, vec![PartitionId::new(1)]);
        let store = &compacted.store;
        assert_eq!(store.tombstone_fraction(PartitionId::new(1)), 0.0);
        // The spared shard keeps its tombstoned slots (still hidden from
        // queries) until its own fraction crosses the threshold.
        assert!(store.tombstone_fraction(PartitionId::new(2)) > 0.0);
        store.check_arena().unwrap();
        let (h7, h8) = (store.resolve(vs[7]).unwrap(), store.resolve(vs[8]).unwrap());
        assert!(!store.adjacent(h7, h8) && !store.adjacent(h8, h7));
    }

    #[test]
    fn check_arena_names_a_broken_invariant() {
        let (g, part) = migration_fixture();
        let vs = g.vertices_sorted();
        let store = ShardedStore::from_parts(&g, &part);
        store.check_arena().unwrap();

        // A one-sided tombstone: the arc 3 → 4 goes, 4 → 3 stays.
        let mut lopsided = store.clone();
        let (p3, p4) = (
            lopsided.position_of.get(vs[3]).unwrap(),
            lopsided.position_of.get(vs[4]).unwrap(),
        );
        assert!(lopsided.tombstone_arc(p3 as usize, p4));
        assert!(lopsided.check_arena().unwrap_err().contains("reverse arc"));

        // A repeated neighbour: the slot 3's arc to 2 leaves when the edge
        // goes is revived as a second arc to 4.
        let (source, target) = (vs[2], vs[3]);
        let cut = [loom_graph::StreamElement::RemoveEdge { source, target }];
        let mut repeated = store.apply_mutations(&cut).store;
        let live = repeated.live_range(p3 as usize);
        repeated.targets[live.end] = p4;
        repeated.tags[live.end] = repeated.tags[live.start];
        repeated.slots[p3 as usize].live += 1;
        let err = repeated.check_arena().unwrap_err();
        assert!(
            err.contains("3 names 4 twice: a repeated neighbour"),
            "{err}"
        );

        // A hop that changed sides without anybody moving.
        let mut flipped = store.clone();
        flipped.tags[store.live_range(p4 as usize).start] ^= 1;
        assert!(flipped.check_arena().unwrap_err().contains("remote bit"));

        // A slot edited by hand: its neighbours' tags still show the old label.
        let mut stale = store.clone();
        stale.slots[p4 as usize].label = Label::new(77);
        assert!(stale.check_arena().unwrap_err().contains("label tag"));

        // A label list that does not enumerate its roots by ascending id.
        let mut disordered = store.clone();
        disordered
            .by_label
            .get_mut(&Label::new(0))
            .unwrap()
            .swap(0, 1);
        assert!(disordered.check_arena().unwrap_err().contains("id order"));

        // A tombstone the per-shard counters never heard of.
        let mut uncounted = store.apply_mutations(&[]).store;
        uncounted.dead_slots[0] += 1;
        assert!(uncounted.check_arena().unwrap_err().contains("recount"));

        // A label count one off the slice it is kept for.
        let mut miscounted = store.clone();
        *miscounted.shards[1]
            .label_counts
            .get_mut(&Label::new(0))
            .unwrap() += 1;
        assert!(miscounted
            .check_arena()
            .unwrap_err()
            .contains("label counts of shard 1"));
    }

    #[test]
    fn migration_tolerates_unassigned_vertices() {
        // Reuse the 4-vertex fixture where vertex 3 is unassigned: it cannot
        // be moved, and it survives the rebuild in the unassigned tail.
        let (g, part) = fixture();
        let vs = g.vertices_sorted();
        let store = ShardedStore::from_parts(&g, &part);
        let migrated = store.apply_migration(&[
            (vs[3], PartitionId::new(0)), // unassigned: ignored
            (vs[2], PartitionId::new(0)), // real move
        ]);
        assert_eq!(migrated.moved, 1);
        let mut moved = part.clone();
        moved.move_vertex(vs[2], PartitionId::new(0)).unwrap();
        let rebuilt = ShardedStore::from_parts(&g, &moved);
        assert_eq!(migrated.store.home_shard(vs[3]), None);
        assert_eq!(
            migrated.store.replication_factor(),
            rebuilt.replication_factor()
        );
    }

    /// Feed `store`'s own arena back through an [`ArenaLoader`], each vertex
    /// passed through `edit` (which may rewrite its home) on the way.
    fn reload(
        store: &ShardedStore,
        shards: u32,
        mut edit: impl FnMut(usize, Option<PartitionId>) -> Option<PartitionId>,
    ) -> Result<ShardedStore, String> {
        let mut loader = ArenaLoader::new(shards);
        for pos in 0..store.vertex_count() {
            let home = match store.slots[pos].home {
                UNASSIGNED => None,
                p => Some(PartitionId::new(p)),
            };
            let neighbours = store.targets[store.live_range(pos)].iter();
            loader.push_vertex(
                edit(pos, home),
                store.order[pos],
                store.slots[pos].label,
                neighbours.map(|&q| store.order[q as usize]),
            );
        }
        assert_eq!(loader.vertex_count(), store.vertex_count());
        loader.finish()?.check()
    }

    #[test]
    fn arena_loader_rebuilds_the_store_and_names_what_is_unsound() {
        let (g, part) = fixture();
        let vs = g.vertices_sorted();
        let store = ShardedStore::from_parts(&g, &part);
        let loaded = reload(&store, 2, |_, home| home).unwrap();
        assert_stores_equal(&loaded, &store, &vs);
        assert_eq!(loaded.replication_factor(), store.replication_factor());
        // And back out: the parts a store was frozen from.
        let (graph, partitioning) = loaded.to_parts();
        assert_eq!(graph.edges_sorted(), g.edges_sorted());
        for &v in &vs {
            assert_eq!(graph.label(v), g.label(v));
            assert_eq!(graph.neighbors(v), g.neighbors(v));
            assert_eq!(partitioning.partition_of(v), part.partition_of(v));
        }

        let err = |shards, edit: &dyn Fn(usize, Option<PartitionId>) -> Option<PartitionId>| {
            reload(&store, shards, edit).unwrap_err()
        };
        assert!(err(0, &|_, _| None).contains("at least one shard"));
        assert!(err(1, &|_, home| home).contains("shard 1 of 1"));
        // The unassigned vertex dragged to the front of the arena.
        let homeless_first = |pos, home| if pos == 0 { None } else { home };
        assert!(err(2, &homeless_first).contains("partition-major"));
    }

    /// A checkpoint blob cannot spell a slice out of id order, but the check
    /// that refuses one also guards every freeze and relayout.
    #[test]
    fn arena_loader_refuses_a_slice_out_of_id_order() {
        let (five, three) = (VertexId::new(5), VertexId::new(3));
        let mut loader = ArenaLoader::new(1);
        for (v, u) in [(five, three), (three, five)] {
            loader.push_vertex(Some(PartitionId::new(0)), v, Label::new(0), [u]);
        }
        let err = loader.finish().unwrap().check().unwrap_err();
        assert_eq!(err, "v5 precedes v3 within one slice");
    }

    /// The loader's label index is built by walking `position_of` in id
    /// order, not by sorting: fed three slices (two shards and the tail)
    /// whose ids straddle the direct bound — dense ids past 4096, which the
    /// index hashes until its bound grows, and `v << 24` ids, which it
    /// always hashes — every label list still ascends by id, and equals
    /// the one a freeze of the same graph builds.
    #[test]
    fn arena_loader_lists_labels_by_id_across_the_direct_bound() {
        let ids: Vec<VertexId> = (0..6_000u64)
            .map(|v| VertexId::new(if v % 5 == 4 { v << 24 } else { v }))
            .collect();
        let mut g = LabelledGraph::new();
        for &v in &ids {
            g.insert_vertex(v, Label::new((v.raw() % 3) as u32));
        }
        for (i, &v) in ids.iter().enumerate() {
            for step in [1, 7, 600] {
                g.add_edge(v, ids[(i + step) % ids.len()]).unwrap();
            }
        }
        // Every third vertex to shard 0, 1 or the tail, by position in `ids`.
        let mut part = Partitioning::new(2, ids.len()).unwrap();
        let mut slices = vec![Vec::new(); 3];
        for (i, &v) in ids.iter().enumerate() {
            if i % 3 < 2 {
                part.assign(v, PartitionId::new((i % 3) as u32)).unwrap();
            }
            slices[i % 3].push(v);
        }
        let mut loader = ArenaLoader::new(2);
        for (slice, home) in slices.iter_mut().zip([Some(0), Some(1), None]) {
            slice.sort_unstable();
            for &v in slice.iter() {
                let label = g.label(v).unwrap();
                let home = home.map(PartitionId::new);
                loader.push_vertex(home, v, label, g.neighbors(v).iter().copied());
            }
        }
        let store = loader.finish().unwrap().check().unwrap();
        let mut listed = 0;
        for label in (0..3).map(Label::new) {
            let members = store.handles_with_label(label);
            let by_id: Vec<VertexId> = members.iter().map(|&q| store.vertex_of(q)).collect();
            assert!(by_id.windows(2).all(|w| w[0] < w[1]), "{label:?}");
            listed += members.len();
            for p in (0..2).map(PartitionId::new) {
                let homed = store.vertices_with_label(p, label);
                assert!(homed.windows(2).all(|w| w[0] < w[1]), "{label:?} in {p:?}");
            }
        }
        assert_eq!(listed, ids.len());
        assert_eq!(store.by_label, ShardedStore::from_parts(&g, &part).by_label);
    }
}
