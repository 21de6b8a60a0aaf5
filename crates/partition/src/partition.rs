//! Partition identifiers and the vertex → partition assignment table.
//!
//! A k-balanced graph partitioning (paper §2) is a disjoint family of vertex
//! sets. [`Partitioning`] is the mutable assignment table every partitioner
//! in this workspace produces: it tracks which partition each vertex lives
//! in, per-partition sizes, and the capacity constraint `C` that the LDG
//! penalty term is computed against.
//!
//! The table is a [`VertexIndex`]: every placement asks it for each
//! assigned neighbour's partition, and for the dense ids a stream carries
//! each answer is one array load.

use crate::error::{PartitionError, Result};
use loom_graph::{VertexId, VertexIndex};

/// Partitions up to which a placement counts its neighbours on the stack.
const INLINE_K: usize = 32;

/// Identifier of a partition (`0..k`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct PartitionId(pub u32);

impl PartitionId {
    /// Create a partition id.
    pub const fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// The raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for PartitionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A (possibly partial) assignment of vertices to `k` partitions with a
/// per-partition capacity.
#[derive(Debug, Clone)]
pub struct Partitioning {
    k: u32,
    capacity: usize,
    /// Vertex → raw partition id.
    assignment: VertexIndex,
    sizes: Vec<usize>,
}

impl Partitioning {
    /// Create an empty partitioning with `k` partitions, each with capacity
    /// `capacity` (the `C` of the LDG weighting term).
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::InvalidConfig`] for `k == 0` or
    /// `capacity == 0`.
    pub fn new(k: u32, capacity: usize) -> Result<Self> {
        if k == 0 {
            return Err(PartitionError::InvalidConfig(
                "need at least one partition".into(),
            ));
        }
        if capacity == 0 {
            return Err(PartitionError::InvalidConfig(
                "capacity must be positive".into(),
            ));
        }
        Ok(Self {
            k,
            capacity,
            assignment: VertexIndex::new(),
            sizes: vec![0; k as usize],
        })
    }

    /// Create a partitioning sized for a graph of `expected_vertices`
    /// vertices with a multiplicative balance `slack` (e.g. `1.1` allows each
    /// partition to exceed the ideal size `n / k` by 10%). The assignment
    /// table expects that many vertices (see [`VertexIndex::with_expected`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Partitioning::new`]; additionally rejects
    /// non-finite or sub-unit slack.
    pub fn with_slack(k: u32, expected_vertices: usize, slack: f64) -> Result<Self> {
        if !slack.is_finite() || slack < 1.0 {
            return Err(PartitionError::InvalidConfig(format!(
                "slack must be >= 1.0, got {slack}"
            )));
        }
        let ideal = (expected_vertices as f64 / k.max(1) as f64).ceil();
        let capacity = ((ideal * slack).ceil() as usize).max(1);
        let mut partitioning = Self::new(k, capacity)?;
        partitioning.assignment = VertexIndex::with_expected(expected_vertices);
        Ok(partitioning)
    }

    /// Number of partitions.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The per-partition capacity `C`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of assigned vertices.
    pub fn assigned_count(&self) -> usize {
        self.assignment.len()
    }

    /// Whether no vertex has been assigned yet.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// The partition a vertex was assigned to, if any.
    #[inline]
    pub fn partition_of(&self, v: VertexId) -> Option<PartitionId> {
        self.assignment.get(v).map(PartitionId::new)
    }

    /// Whether the vertex has been assigned.
    #[inline]
    pub fn is_assigned(&self, v: VertexId) -> bool {
        self.assignment.contains(v)
    }

    /// Current size (vertex count) of a partition.
    #[inline]
    pub fn size(&self, p: PartitionId) -> usize {
        self.sizes.get(p.index()).copied().unwrap_or(0)
    }

    /// Sizes of all partitions, indexed by partition id.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// The LDG capacity penalty `1 - |V_i| / C` for a partition, clamped to
    /// `[0, 1]`.
    #[inline]
    pub(crate) fn capacity_penalty(&self, p: PartitionId) -> f64 {
        (1.0 - self.size(p) as f64 / self.capacity as f64).clamp(0.0, 1.0)
    }

    /// Whether a partition still has room for `count` more vertices.
    #[inline]
    pub fn has_room_for(&self, p: PartitionId, count: usize) -> bool {
        self.size(p) + count <= self.capacity
    }

    /// Iterate over partition ids `0..k`.
    pub fn partitions(&self) -> impl Iterator<Item = PartitionId> {
        (0..self.k).map(PartitionId::new)
    }

    /// Assign a vertex to a partition.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::AlreadyAssigned`] if the vertex has already
    /// been placed and [`PartitionError::UnknownPartition`] for out-of-range
    /// partitions. Capacity is *not* enforced here: streaming heuristics may
    /// overflow the soft capacity when every partition is full, exactly as in
    /// the original LDG formulation.
    pub fn assign(&mut self, v: VertexId, p: PartitionId) -> Result<()> {
        if p.0 >= self.k {
            return Err(PartitionError::UnknownPartition {
                partition: p.0,
                k: self.k,
            });
        }
        // `p.0 < k ≤ u32::MAX`: never the index's absent mark.
        self.assignment
            .try_insert(v, p.0)
            .map_err(|_| PartitionError::AlreadyAssigned(v))?;
        self.sizes[p.index()] += 1;
        Ok(())
    }

    /// Move an already assigned vertex to a different partition (used by the
    /// offline refinement passes).
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::NotAssigned`] if the vertex has no current
    /// assignment and [`PartitionError::UnknownPartition`] for out-of-range
    /// targets.
    pub fn move_vertex(&mut self, v: VertexId, to: PartitionId) -> Result<()> {
        if to.0 >= self.k {
            return Err(PartitionError::UnknownPartition {
                partition: to.0,
                k: self.k,
            });
        }
        let Some(from) = self.partition_of(v) else {
            return Err(PartitionError::NotAssigned(v));
        };
        if from == to {
            return Ok(());
        }
        self.assignment.insert(v, to.0);
        self.sizes[from.index()] -= 1;
        self.sizes[to.index()] += 1;
        Ok(())
    }

    /// Drop a vertex's assignment entirely, decrementing its partition's
    /// size, and return the partition it was removed from. Used when the
    /// stream deletes a vertex: the slot is reclaimed, so the id may later be
    /// re-assigned (re-add after delete). Unassigned vertices are a no-op.
    pub fn unassign(&mut self, v: VertexId) -> Option<PartitionId> {
        let p = PartitionId::new(self.assignment.remove(v)?);
        self.sizes[p.index()] -= 1;
        Some(p)
    }

    /// Move the assignment table out, leaving this partitioning empty but
    /// with the same `k` and capacity.
    ///
    /// This is the clone-free way for a partitioner's `finish` to hand over
    /// its result; use `clone` (via `Partitioner::snapshot`) when the builder
    /// must keep its state.
    pub fn take(&mut self) -> Partitioning {
        Partitioning {
            k: self.k,
            capacity: self.capacity,
            assignment: std::mem::take(&mut self.assignment),
            sizes: std::mem::replace(&mut self.sizes, vec![0; self.k as usize]),
        }
    }

    /// Iterate over all `(vertex, partition)` assignments: the ids below
    /// the table's direct bound ascending, then the others in hash order
    /// (see [`VertexIndex`]). Callers that need a fixed order sort.
    pub fn assignments(&self) -> impl Iterator<Item = (VertexId, PartitionId)> + '_ {
        self.assignment
            .iter()
            .map(|(v, p)| (v, PartitionId::new(p)))
    }

    /// The vertices assigned to partition `p`, sorted by id.
    pub fn members(&self, p: PartitionId) -> Vec<VertexId> {
        let mut members: Vec<VertexId> = self
            .assignments()
            .filter(|&(_, q)| q == p)
            .map(|(v, _)| v)
            .collect();
        members.sort_unstable();
        members
    }

    /// The emptiest partition (smallest current size; ties broken towards the
    /// lowest id). Useful as a fallback assignment target.
    pub(crate) fn least_loaded(&self) -> PartitionId {
        let index = self
            .sizes
            .iter()
            .enumerate()
            .min_by_key(|&(i, &s)| (s, i))
            .map(|(i, _)| i)
            .unwrap_or(0);
        PartitionId::new(index as u32)
    }

    /// Whether `candidate`, scoring `score`, displaces the `held` choice:
    /// it scores more than `1e-12` above it, or within `1e-12` of it on a
    /// strictly smaller partition.
    #[inline]
    fn beats(&self, candidate: PartitionId, score: f64, held: (PartitionId, f64)) -> bool {
        let (held, held_score) = held;
        score > held_score + 1e-12
            || ((score - held_score).abs() <= 1e-12 && self.size(candidate) < self.size(held))
    }

    /// Count the assigned entries of `neighbours` per partition (an entry
    /// listed twice counts twice; a list holds fewer than 2³² entries) and
    /// hand `f` the counts, indexed by partition, and the partitions counted
    /// at least once as a bitset (bit `p % 64` of word `p / 64`), so that
    /// they are read in ascending order without a sort. On the stack up to
    /// [`INLINE_K`] partitions (a heap allocation per placement measurably
    /// slows ingest), spilled to the heap above it.
    #[inline]
    fn with_neighbour_counts<R>(
        &self,
        neighbours: &[VertexId],
        f: impl FnOnce(&[u32], &[u64]) -> R,
    ) -> R {
        let k = self.sizes.len();
        let mut inline = ([0u32; INLINE_K], [0u64; INLINE_K.div_ceil(64)]);
        let mut spilled = (Vec::new(), Vec::new());
        let (counts, touched) = if k <= INLINE_K {
            (&mut inline.0[..k], &mut inline.1[..])
        } else {
            spilled.0.resize(k, 0);
            spilled.1.resize(k.div_ceil(64), 0);
            (&mut spilled.0[..], &mut spilled.1[..])
        };
        for n in neighbours {
            if let Some(p) = self.assignment.get(*n) {
                counts[p as usize] += 1;
                touched[p as usize / 64] |= 1 << (p % 64);
            }
        }
        f(counts, touched)
    }

    /// Fennel's placement rule: the partition with the highest score wins;
    /// scores within `1e-12` of each other tie towards the strictly smaller
    /// partition; otherwise the first one seen (the `seed`, then ascending
    /// partition id) stays.
    ///
    /// `score(p, in_p)` is asked once per partition in id order, with `in_p`
    /// the number of entries of `neighbours` currently assigned to `p` (an
    /// entry listed twice counts twice, unassigned entries count nowhere);
    /// `None` makes `p` ineligible. `seed` is a candidate that holds unless a
    /// partition beats it by the rule above. Returns `None` only when there
    /// is no seed and every partition is ineligible.
    ///
    /// Every partition is scored because Fennel scores a partition holding
    /// no neighbour above zero. LDG scores it exactly zero, and
    /// [`ldg_choice`](Self::ldg_choice) scores only the partitions a
    /// neighbour lives in.
    pub(crate) fn best_partition(
        &self,
        neighbours: &[VertexId],
        seed: Option<(PartitionId, f64)>,
        mut score: impl FnMut(PartitionId, usize) -> Option<f64>,
    ) -> Option<PartitionId> {
        self.with_neighbour_counts(neighbours, |counts, _| {
            let mut best = seed;
            for p in self.partitions() {
                let Some(score) = score(p, counts[p.index()] as usize) else {
                    continue;
                };
                if best.is_none_or(|held| self.beats(p, score, held)) {
                    best = Some((p, score));
                }
            }
            best.map(|(p, _)| p)
        })
    }

    /// LDG's placement rule (Stanton & Kliot): among the `eligible`
    /// partitions, the one maximising `|N(v) ∩ V_i| · (1 − |V_i| / C)`
    /// (`capacity_penalty`) over the assigned entries of `neighbours` (an
    /// entry listed twice counts twice), ties broken as in `best_partition`;
    /// when no eligible partition holding a neighbour scores above `1e-12`,
    /// the least-loaded eligible partition (the lowest id among equals).
    /// Returns `None` only when no partition is eligible.
    ///
    /// Only the partitions a neighbour lives in are scored, in id order. The
    /// answer is still the one a scan over all `k` partitions gives, both
    /// the scan seeded with the least-loaded eligible partition at score 0
    /// (LDG's own choice, `eligible` everywhere) and the unseeded scan over
    /// the partitions with room for a group (LOOM's):
    ///
    /// * An eligible partition holding no neighbour scores exactly `0.0`.
    ///   That displaces neither the seed, which is no larger, nor a
    ///   partition scoring above `1e-12`, so leaving it out changes nothing
    ///   once something scores above `1e-12`.
    /// * An eligible partition holding a neighbour and with room for one
    ///   more vertex has `|V_i| ≤ C − 1`, so it scores at least `1/C`, which
    ///   is above `1e-12` while `C < 10¹²`. In the unseeded scan the first
    ///   such partition therefore displaces any untouched one held before
    ///   it, and from there on the two scans agree. Untouched partitions
    ///   decide only when no such partition exists; then the strictly
    ///   smaller rule leaves the least-loaded one held, which is the seed.
    /// * A full partition holding a neighbour scores `0.0` (the penalty is
    ///   clamped): it displaces nothing either, because no eligible
    ///   partition is smaller than the seed.
    pub fn ldg_choice(
        &self,
        neighbours: &[VertexId],
        eligible: impl Fn(PartitionId) -> bool,
    ) -> Option<PartitionId> {
        let touched_best = self.with_neighbour_counts(neighbours, |counts, touched| {
            // `None` stands for the seed, which only a score above 1e-12
            // displaces (a smaller eligible partition does not exist).
            let mut best = None;
            for p in bits(touched) {
                if !eligible(p) {
                    continue;
                }
                let score = counts[p.index()] as f64 * self.capacity_penalty(p);
                if best.map_or(score > 1e-12, |held| self.beats(p, score, held)) {
                    best = Some((p, score));
                }
            }
            best.map(|(p, _)| p)
        });
        touched_best.or_else(|| {
            self.partitions()
                .filter(|&p| eligible(p))
                .min_by_key(|&p| (self.size(p), p))
        })
    }

    /// The imbalance factor `max_i |V_i| / (n / k)` where `n` is the number of
    /// assigned vertices. 1.0 is perfectly balanced; empty partitionings
    /// report 1.0.
    pub fn imbalance(&self) -> f64 {
        let n = self.assignment.len();
        if n == 0 {
            return 1.0;
        }
        let ideal = n as f64 / self.k as f64;
        let max = *self.sizes.iter().max().unwrap_or(&0);
        max as f64 / ideal
    }
}

/// The partitions whose bit is set in `words` (bit `p % 64` of word
/// `p / 64`), ascending.
fn bits(words: &[u64]) -> impl Iterator<Item = PartitionId> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            let bit = (rest != 0).then(|| rest.trailing_zeros())?;
            rest &= rest - 1;
            Some(PartitionId::new(w as u32 * 64 + bit))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: u64) -> VertexId {
        VertexId::new(x)
    }

    fn p(x: u32) -> PartitionId {
        PartitionId::new(x)
    }

    #[test]
    fn construction_validates_parameters() {
        assert!(Partitioning::new(0, 10).is_err());
        assert!(Partitioning::new(4, 0).is_err());
        assert!(Partitioning::with_slack(4, 100, 0.5).is_err());
        let part = Partitioning::with_slack(4, 100, 1.2).unwrap();
        assert_eq!(part.k(), 4);
        assert_eq!(part.capacity(), 30); // ceil(25 * 1.2)
    }

    #[test]
    fn assign_and_lookup() {
        let mut part = Partitioning::new(2, 10).unwrap();
        part.assign(v(1), p(0)).unwrap();
        part.assign(v(2), p(1)).unwrap();
        assert_eq!(part.partition_of(v(1)), Some(p(0)));
        assert_eq!(part.partition_of(v(3)), None);
        assert!(part.is_assigned(v(2)));
        assert_eq!(part.size(p(0)), 1);
        assert_eq!(part.assigned_count(), 2);
        assert_eq!(part.members(p(1)), vec![v(2)]);
    }

    #[test]
    fn double_assignment_and_bad_partition_are_errors() {
        let mut part = Partitioning::new(2, 10).unwrap();
        part.assign(v(1), p(0)).unwrap();
        assert!(matches!(
            part.assign(v(1), p(1)),
            Err(PartitionError::AlreadyAssigned(_))
        ));
        assert!(matches!(
            part.assign(v(2), p(7)),
            Err(PartitionError::UnknownPartition { .. })
        ));
    }

    #[test]
    fn unassign_reclaims_the_slot_for_readd() {
        let mut part = Partitioning::new(2, 10).unwrap();
        part.assign(v(1), p(0)).unwrap();
        part.assign(v(2), p(0)).unwrap();
        assert_eq!(part.unassign(v(1)), Some(p(0)));
        assert_eq!(part.size(p(0)), 1);
        assert_eq!(part.assigned_count(), 1);
        assert!(!part.is_assigned(v(1)));
        // Unknown vertex: no-op.
        assert_eq!(part.unassign(v(9)), None);
        // The id can be re-assigned after removal (re-add after delete).
        part.assign(v(1), p(1)).unwrap();
        assert_eq!(part.partition_of(v(1)), Some(p(1)));
        assert_eq!(part.size(p(1)), 1);
    }

    #[test]
    fn move_vertex_updates_sizes() {
        let mut part = Partitioning::new(2, 10).unwrap();
        part.assign(v(1), p(0)).unwrap();
        part.move_vertex(v(1), p(1)).unwrap();
        assert_eq!(part.size(p(0)), 0);
        assert_eq!(part.size(p(1)), 1);
        // Moving to the same partition is a no-op.
        part.move_vertex(v(1), p(1)).unwrap();
        assert_eq!(part.size(p(1)), 1);
        assert!(part.move_vertex(v(9), p(0)).is_err());
        assert!(part.move_vertex(v(1), p(9)).is_err());
    }

    #[test]
    fn capacity_penalty_and_room() {
        let mut part = Partitioning::new(2, 4).unwrap();
        assert_eq!(part.capacity_penalty(p(0)), 1.0);
        for i in 0..3 {
            part.assign(v(i), p(0)).unwrap();
        }
        assert!((part.capacity_penalty(p(0)) - 0.25).abs() < 1e-12);
        assert!(part.has_room_for(p(0), 1));
        assert!(!part.has_room_for(p(0), 2));
        part.assign(v(3), p(0)).unwrap();
        assert_eq!(part.capacity_penalty(p(0)), 0.0);
    }

    #[test]
    fn imbalance_and_least_loaded() {
        let mut part = Partitioning::new(2, 100).unwrap();
        assert_eq!(part.imbalance(), 1.0);
        for i in 0..6 {
            part.assign(v(i), p(0)).unwrap();
        }
        for i in 6..8 {
            part.assign(v(i), p(1)).unwrap();
        }
        // max = 6, ideal = 4 → 1.5
        assert!((part.imbalance() - 1.5).abs() < 1e-12);
        assert_eq!(part.least_loaded(), p(1));
    }

    /// Partition sizes 3 / 1 / 2 over vertices 0..6.
    fn three_partitions() -> Partitioning {
        let mut part = Partitioning::new(3, 10).unwrap();
        for (vertex, partition) in [(0, 0), (1, 0), (2, 0), (3, 1), (4, 2), (5, 2)] {
            part.assign(v(vertex), p(partition)).unwrap();
        }
        part
    }

    #[test]
    fn best_partition_ranks_score_then_size_then_first_seen() {
        let part = three_partitions();
        let by_table =
            |scores: [f64; 3]| part.best_partition(&[], None, |q, _| Some(scores[q.index()]));
        // Score beats size: the fullest partition wins on score alone.
        assert_eq!(by_table([2.0, 1.0, 1.0]), Some(p(0)));
        // Equal scores (within 1e-12): the strictly smaller partition wins.
        assert_eq!(by_table([1.0, 1.0, 1.0]), Some(p(1)));
        assert_eq!(by_table([1.0, 1.0 - 1e-13, 1.0]), Some(p(1)));
        // A later partition needs more than 1e-12 to win on score.
        assert_eq!(by_table([0.0, 1.0, 1.0 + 1e-13]), Some(p(1)));
        assert_eq!(by_table([0.0, 1.0, 1.0 + 1e-9]), Some(p(2)));
        // Equal score and equal size: first seen stays.
        let mut even = Partitioning::new(3, 10).unwrap();
        even.assign(v(0), p(1)).unwrap();
        even.assign(v(1), p(2)).unwrap();
        assert_eq!(
            even.best_partition(&[], None, |q, _| (q != p(0)).then_some(1.0)),
            Some(p(1))
        );
    }

    #[test]
    fn best_partition_seed_yields_only_to_a_better_score_or_a_smaller_equal() {
        let part = three_partitions();
        let seeded = |seed: u32, scores: [f64; 3]| {
            part.best_partition(&[], Some((p(seed), 0.5)), |q, _| Some(scores[q.index()]))
        };
        // Equal score on an equally sized partition (itself): the seed holds.
        assert_eq!(seeded(2, [0.0, 0.0, 0.5]), Some(p(2)));
        // Equal score on a larger partition: the seed holds.
        assert_eq!(seeded(2, [0.5, 0.0, 0.0]), Some(p(2)));
        // Equal score on a strictly smaller partition displaces it.
        assert_eq!(seeded(2, [0.0, 0.5, 0.0]), Some(p(1)));
        // A strictly better score displaces it, whatever the size.
        assert_eq!(seeded(1, [0.6, 0.0, 0.0]), Some(p(0)));
        // Nobody eligible: the seed is the answer; without one there is none.
        assert_eq!(
            part.best_partition(&[], Some((p(2), 0.0)), |_, _| None),
            Some(p(2))
        );
        assert_eq!(part.best_partition(&[], None, |_, _| None), None);
    }

    #[test]
    fn best_partition_counts_each_listed_neighbour_once_per_listing() {
        let part = three_partitions();
        // v3 listed twice (an edge added twice), v9 unassigned.
        let neighbours = [v(0), v(3), v(3), v(4), v(9)];
        let mut seen = Vec::new();
        part.best_partition(&neighbours, None, |q, in_p| {
            seen.push((q, in_p));
            Some(0.0)
        });
        assert_eq!(seen, vec![(p(0), 1), (p(1), 2), (p(2), 1)]);

        // Same counting when k outgrows the inline count buffer.
        let mut wide = Partitioning::new(40, 10).unwrap();
        wide.assign(v(0), p(39)).unwrap();
        wide.assign(v(1), p(39)).unwrap();
        wide.assign(v(2), p(7)).unwrap();
        let choice = wide.best_partition(&[v(0), v(1), v(2)], None, |_, in_p| Some(in_p as f64));
        assert_eq!(choice, Some(p(39)));
    }

    /// LDG's choice as it was made before [`Partitioning::ldg_choice`]:
    /// every partition scored, seeded with the least-loaded one at 0.
    fn ldg_full_scan(part: &Partitioning, neighbours: &[VertexId]) -> PartitionId {
        let seed = (part.least_loaded(), 0.0);
        part.best_partition(neighbours, Some(seed), |q, in_p| {
            Some(in_p as f64 * part.capacity_penalty(q))
        })
        .expect("a seeded choice always holds a partition")
    }

    /// LOOM's choice for a group of `incoming` vertices as it was made
    /// before [`Partitioning::ldg_choice`]: every partition with room for
    /// the group scored, unseeded; with no room anywhere, LDG's choice.
    fn loom_full_scan(
        part: &Partitioning,
        neighbours: &[VertexId],
        incoming: usize,
    ) -> PartitionId {
        part.best_partition(neighbours, None, |q, in_p| {
            part.has_room_for(q, incoming)
                .then(|| in_p as f64 * part.capacity_penalty(q))
        })
        .unwrap_or_else(|| ldg_full_scan(part, neighbours))
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(2_000))]

        /// `ldg_choice` picks what the full scans it replaced picked: LDG's
        /// seeded scan over every partition, and LOOM's unseeded scan over
        /// the partitions with room for its group. k crosses the inline
        /// count bound (32) and a word of the touched bitset (64);
        /// partitions are empty, partly filled, full and over full;
        /// neighbour lists repeat ids and name unassigned ones.
        #[test]
        fn ldg_choice_equals_the_full_scans_it_replaces(
            k in 1u32..81,
            capacity in 1usize..24,
            fill in proptest::collection::vec(0usize..28, 80..81),
            neighbours in proptest::collection::vec(0u64..80 * 28, 0..40),
            incoming in 0usize..24,
        ) {
            // Partition q holds the ids q·28 .. q·28 + fill[q].
            let mut part = Partitioning::new(k, capacity).unwrap();
            for q in 0..k {
                for j in 0..fill[q as usize] {
                    part.assign(v(u64::from(q) * 28 + j as u64), p(q)).unwrap();
                }
            }
            let neighbours: Vec<VertexId> = neighbours.into_iter().map(v).collect();
            let incoming = 1 + incoming % capacity;

            let ldg = part.ldg_choice(&neighbours, |_| true);
            proptest::prop_assert_eq!(ldg, Some(ldg_full_scan(&part, &neighbours)));
            let loom = part
                .ldg_choice(&neighbours, |q| part.has_room_for(q, incoming))
                .or(ldg);
            proptest::prop_assert_eq!(loom, Some(loom_full_scan(&part, &neighbours, incoming)));
        }
    }

    #[test]
    fn ldg_choice_with_nothing_eligible_is_none() {
        let part = three_partitions();
        assert_eq!(part.ldg_choice(&[v(0), v(3)], |_| false), None);
        // The neighbours live in p0 and p2, which are not eligible: the
        // answer is the eligible p1, which holds none of them.
        assert_eq!(part.ldg_choice(&[v(0), v(4)], |q| q == p(1)), Some(p(1)));
    }

    #[test]
    fn take_moves_assignments_and_resets_in_place() {
        let mut part = Partitioning::new(2, 10).unwrap();
        part.assign(v(1), p(0)).unwrap();
        part.assign(v(2), p(1)).unwrap();
        let taken = part.take();
        assert_eq!(taken.assigned_count(), 2);
        assert_eq!(taken.k(), 2);
        assert_eq!(taken.capacity(), 10);
        assert_eq!(part.assigned_count(), 0);
        assert_eq!(part.size(p(0)), 0);
        // The emptied partitioning is still usable.
        part.assign(v(1), p(1)).unwrap();
        assert_eq!(part.size(p(1)), 1);
    }

    #[test]
    fn partitions_iterator_covers_all_ids() {
        let part = Partitioning::new(3, 5).unwrap();
        let ids: Vec<u32> = part.partitions().map(|p| p.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
