//! The pending-vertex stream driver shared by LDG and Fennel.
//!
//! In a [`loom_graph::GraphStream`] a vertex arrives *before* the edges
//! linking it to previously streamed vertices. A one-vertex greedy
//! partitioner therefore buffers exactly one pending vertex: the decision
//! for vertex `v` is made when the next vertex arrives (by which point all
//! of `v`'s back-edges have been seen) or when the stream ends. This gives
//! the placement rule exactly the neighbourhood information the original
//! formulations assume, with O(1) buffered state.
//!
//! [`PendingVertexPartitioner`] owns that model once — the buffered vertex,
//! the per-element transition, the flush, the batch preamble and the
//! `snapshot`/`finish`/`stats` plumbing — and is parameterised by the
//! [`PlacementRule`] that picks the partition: [`crate::ldg::LdgPartitioner`]
//! and [`crate::fennel::FennelPartitioner`] are its two instantiations.

use crate::error::{PartitionError, Result};
use crate::partition::{PartitionId, Partitioning};
use crate::state::{ArenaHomes, Setting, StateReader, StateWriter};
use crate::traits::{Partitioner, PartitionerStats};
use loom_graph::{StreamElement, VertexId};

/// Where a vertex goes, given the partitioning so far and the vertex's
/// already-placed neighbours. Implemented by the LDG and Fennel rules only.
pub trait PlacementRule: Send {
    /// The name the partitioner reports ([`Partitioner::name`]).
    const NAME: &'static str;

    /// Pick the partition for a vertex with the given placed neighbours.
    fn place(&self, partitioning: &Partitioning, neighbours: &[VertexId]) -> PartitionId;

    /// The rule's own parameters, beyond `k` and the capacity, for the
    /// header of a state blob.
    fn settings(&self) -> Vec<(&'static str, Setting)> {
        Vec::new()
    }
}

/// A streaming partitioner that buffers one pending vertex and places it
/// with rule `R` once its back-edges have been seen.
#[derive(Debug, Clone)]
pub struct PendingVertexPartitioner<R> {
    rule: R,
    partitioning: Partitioning,
    /// The vertex whose placement decision is still pending.
    pending: Option<PendingVertex>,
    /// Recycled neighbour buffer from the last pending vertex, so
    /// steady-state ingestion allocates nothing per vertex.
    spare_neighbours: Vec<VertexId>,
    stats: PartitionerStats,
}

#[derive(Debug, Clone)]
struct PendingVertex {
    id: VertexId,
    /// Already-assigned vertices seen at the other end of its edges so far.
    assigned_neighbours: Vec<VertexId>,
}

impl PendingVertex {
    /// The other endpoint, when the edge touches this vertex.
    fn other_end(&self, source: VertexId, target: VertexId) -> Option<VertexId> {
        if source == self.id {
            Some(target)
        } else if target == self.id {
            Some(source)
        } else {
            None
        }
    }
}

impl<R: PlacementRule> PendingVertexPartitioner<R> {
    pub(crate) fn with_rule(rule: R, partitioning: Partitioning) -> Self {
        Self {
            rule,
            partitioning,
            pending: None,
            spare_neighbours: Vec::new(),
            stats: PartitionerStats::default(),
        }
    }

    pub(crate) fn rule(&self) -> &R {
        &self.rule
    }

    /// The placed neighbours recorded for the pending vertex, if any.
    #[cfg(test)]
    pub(crate) fn pending_neighbours(&self) -> Option<&[VertexId]> {
        self.pending
            .as_ref()
            .map(|p| p.assigned_neighbours.as_slice())
    }

    fn flush_pending(&mut self) -> Result<()> {
        if let Some(pending) = self.pending.take() {
            let target = self
                .rule
                .place(&self.partitioning, &pending.assigned_neighbours);
            self.partitioning.assign(pending.id, target)?;
            self.recycle(pending);
        }
        Ok(())
    }

    /// Keep a spent pending vertex's neighbour buffer for the next one.
    fn recycle(&mut self, mut pending: PendingVertex) {
        pending.assigned_neighbours.clear();
        self.spare_neighbours = pending.assigned_neighbours;
    }

    /// `k`, the capacity and the rule's parameters: what a state blob is
    /// stamped with.
    fn settings(&self) -> Vec<(&'static str, Setting)> {
        let mut settings = vec![
            ("k", Setting::Int(u64::from(self.partitioning.k()))),
            (
                "capacity",
                Setting::Int(self.partitioning.capacity() as u64),
            ),
        ];
        settings.extend(self.rule.settings());
        settings
    }
}

impl<R: PlacementRule> Partitioner for PendingVertexPartitioner<R> {
    fn name(&self) -> &'static str {
        R::NAME
    }

    /// The one per-element transition; `ingest_batch` runs it too.
    fn ingest(&mut self, element: &StreamElement) -> Result<()> {
        match *element {
            StreamElement::AddVertex { id, .. } => {
                self.stats.vertices_ingested += 1;
                // The previous vertex has now seen all of its back-edges.
                self.flush_pending()?;
                self.pending = Some(PendingVertex {
                    id,
                    assigned_neighbours: std::mem::take(&mut self.spare_neighbours),
                });
            }
            StreamElement::AddEdge { source, target } => {
                self.stats.edges_ingested += 1;
                // An edge between two already-assigned vertices changes no
                // placement decision.
                if let Some(pending) = self.pending.as_mut() {
                    if let Some(other) = pending.other_end(source, target) {
                        if self.partitioning.is_assigned(other) {
                            pending.assigned_neighbours.push(other);
                        }
                    }
                }
            }
            StreamElement::RemoveVertex { id } => {
                // A placed vertex announced again is pending and placed at
                // once: the slot is reclaimed either way.
                self.partitioning.unassign(id);
                if let Some(pending) = self.pending.take_if(|p| p.id == id) {
                    // Drop the buffered decision.
                    self.recycle(pending);
                } else if let Some(pending) = self.pending.as_mut() {
                    // The dead vertex must no longer pull the pending vertex
                    // towards its old partition.
                    pending.assigned_neighbours.retain(|&n| n != id);
                }
            }
            StreamElement::RemoveEdge { source, target } => {
                if let Some(pending) = self.pending.as_mut() {
                    if let Some(other) = pending.other_end(source, target) {
                        // Remove one occurrence, mirroring the one push the
                        // matching AddEdge performed.
                        let neighbours = &mut pending.assigned_neighbours;
                        if let Some(pos) = neighbours.iter().position(|&n| n == other) {
                            neighbours.swap_remove(pos);
                        }
                    }
                }
            }
            // Neither rule looks at labels.
            StreamElement::Relabel { .. } => {}
        }
        Ok(())
    }

    fn ingest_batch(&mut self, batch: &[StreamElement]) -> Result<()> {
        self.stats.batches_ingested += 1;
        for element in batch {
            self.ingest(element)?;
        }
        Ok(())
    }

    fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    fn finish(&mut self) -> Result<Partitioning> {
        self.flush_pending()?;
        Ok(self.partitioning.take())
    }

    fn stats(&self) -> PartitionerStats {
        PartitionerStats {
            assigned: self.partitioning.assigned_count(),
            buffered: usize::from(self.pending.is_some()),
            ..self.stats
        }
    }

    /// The counters, then the pending vertex (a `u8` flag, its id and its
    /// placed neighbours in list order).
    fn encode_state(&self) -> Vec<u8> {
        let mut w = StateWriter::new(self.name(), &self.settings(), &self.partitioning);
        w.counters(&self.stats);
        w.u8(u8::from(self.pending.is_some()));
        if let Some(pending) = &self.pending {
            w.id(pending.id);
            w.ids(&pending.assigned_neighbours);
        }
        w.finish()
    }

    fn restore_state(&mut self, state: &[u8], arena: &mut ArenaHomes<'_>) -> Result<()> {
        let settings = self.settings();
        let mut r =
            StateReader::open(state, self.name(), &settings, &mut self.partitioning, arena)?;
        self.stats = r.counters()?;
        self.pending = match r.u8("pending flag")? {
            0 => None,
            1 => {
                let id = r.id("pending vertex")?;
                r.check_buffered(id, &self.partitioning)?;
                let assigned_neighbours = r.ids("pending neighbours")?;
                Some(PendingVertex {
                    id,
                    assigned_neighbours,
                })
            }
            flag => {
                return Err(PartitionError::CorruptState(format!(
                    "pending flag {flag} is neither 0 nor 1"
                )))
            }
        };
        r.finish()
    }
}
