//! Hash partitioning.
//!
//! The default placement strategy of most distributed graph stores: a vertex
//! goes to `hash(id) mod k`. It is perfectly balanced in expectation, costs
//! nothing to compute, ignores locality entirely, and therefore cuts a
//! fraction `(k - 1) / k` of all edges in expectation — the strawman the
//! paper (and every streaming-partitioning paper) compares against.

use crate::error::Result;
use crate::partition::{PartitionId, Partitioning};
use crate::state::{ArenaHomes, Setting, StateReader, StateWriter};
use crate::traits::{Partitioner, PartitionerStats};
use loom_graph::StreamElement;

/// Configuration for [`HashPartitioner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashConfig {
    /// Number of partitions.
    pub k: u32,
    /// Soft per-partition capacity (carried along only so quality reports are
    /// comparable; hash placement ignores it).
    pub capacity: usize,
    /// Hash seed (change it to test placement sensitivity).
    pub seed: u64,
}

impl HashConfig {
    /// Configuration with the default seed.
    pub fn new(k: u32, capacity: usize) -> Self {
        Self {
            k,
            capacity,
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Use a custom hash seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Streaming hash partitioner.
#[derive(Debug, Clone)]
pub struct HashPartitioner {
    partitioning: Partitioning,
    seed: u64,
    stats: PartitionerStats,
}

impl HashPartitioner {
    /// Create a hash partitioner with `k` partitions and the given soft
    /// capacity (capacity is never exceeded by more than the hash skew since
    /// placement ignores it entirely; it is carried along only so quality
    /// reports are comparable).
    ///
    /// # Errors
    ///
    /// Propagates [`crate::PartitionError::InvalidConfig`] from
    /// [`Partitioning::new`].
    pub fn new(k: u32, capacity: usize) -> Result<Self> {
        Self::from_config(HashConfig::new(k, capacity))
    }

    /// Create a hash partitioner from a declarative [`HashConfig`].
    ///
    /// # Errors
    ///
    /// Propagates [`crate::PartitionError::InvalidConfig`] from
    /// [`Partitioning::new`].
    pub(crate) fn from_config(config: HashConfig) -> Result<Self> {
        Ok(Self {
            partitioning: Partitioning::new(config.k, config.capacity)?,
            seed: config.seed,
            stats: PartitionerStats::default(),
        })
    }

    /// Use a custom hash seed (useful to test placement sensitivity).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn target(&self, raw_id: u64) -> PartitionId {
        // splitmix64-style finaliser: cheap and well distributed.
        let mut x = raw_id.wrapping_add(self.seed);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        PartitionId::new((x % u64::from(self.partitioning.k())) as u32)
    }

    /// What a state blob is stamped with: everything placement depends on.
    fn settings(&self) -> [(&'static str, Setting); 3] {
        [
            ("k", Setting::Int(u64::from(self.partitioning.k()))),
            (
                "capacity",
                Setting::Int(self.partitioning.capacity() as u64),
            ),
            ("seed", Setting::Int(self.seed)),
        ]
    }
}

impl Partitioner for HashPartitioner {
    fn name(&self) -> &'static str {
        "hash"
    }

    /// The one per-element transition; `ingest_batch` runs it too.
    fn ingest(&mut self, element: &StreamElement) -> Result<()> {
        match *element {
            StreamElement::AddVertex { id, .. } => {
                self.stats.vertices_ingested += 1;
                let target = self.target(id.raw());
                self.partitioning.assign(id, target)?;
            }
            StreamElement::AddEdge { .. } => {
                self.stats.edges_ingested += 1;
            }
            StreamElement::RemoveVertex { id } => {
                // Reclaim the load slot; a later re-add hashes to the same
                // partition, so placement stays deterministic across churn.
                self.partitioning.unassign(id);
            }
            // Hash placement ignores edges and labels entirely.
            StreamElement::RemoveEdge { .. } | StreamElement::Relabel { .. } => {}
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
        Ok(self.partitioning.take())
    }

    fn stats(&self) -> PartitionerStats {
        PartitionerStats {
            assigned: self.partitioning.assigned_count(),
            buffered: 0,
            ..self.stats
        }
    }

    /// Hash placement buffers nothing: the state is its counters.
    fn encode_state(&self) -> Vec<u8> {
        let mut w = StateWriter::new(self.name(), &self.settings(), &self.partitioning);
        w.counters(&self.stats);
        w.finish()
    }

    fn restore_state(&mut self, state: &[u8], arena: &mut ArenaHomes<'_>) -> Result<()> {
        let settings = self.settings();
        let mut r =
            StateReader::open(state, self.name(), &settings, &mut self.partitioning, arena)?;
        self.stats = r.counters()?;
        r.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::evaluate;
    use crate::traits::{partition_stream, partition_stream_batched};
    use loom_graph::generators::{barabasi_albert, GeneratorConfig};
    use loom_graph::ordering::StreamOrder;
    use loom_graph::GraphStream;

    #[test]
    fn every_vertex_is_assigned_and_roughly_balanced() {
        let g = barabasi_albert(GeneratorConfig::new(2_000, 4, 7), 2).unwrap();
        let stream = GraphStream::from_graph(&g, &StreamOrder::Random { seed: 1 });
        let mut partitioner = HashPartitioner::new(4, 600).unwrap();
        let result = partition_stream(&mut partitioner, &stream).unwrap();
        assert_eq!(result.assigned_count(), 2_000);
        // Hash balance: every partition within 20% of ideal.
        for p in result.partitions() {
            let size = result.size(p) as f64;
            assert!((size - 500.0).abs() < 100.0, "size={size}");
        }
    }

    #[test]
    fn cut_ratio_is_close_to_expectation() {
        let g = barabasi_albert(GeneratorConfig::new(3_000, 4, 9), 2).unwrap();
        let stream = GraphStream::from_graph(&g, &StreamOrder::Random { seed: 2 });
        let mut partitioner = HashPartitioner::new(4, 1_000).unwrap();
        let result = partition_stream(&mut partitioner, &stream).unwrap();
        let report = evaluate(&g, &result);
        // Expectation is (k-1)/k = 0.75; allow generous slack.
        assert!(report.cut_ratio > 0.65, "cut ratio {}", report.cut_ratio);
    }

    #[test]
    fn placement_is_deterministic_and_seed_sensitive() {
        let a = HashPartitioner::new(8, 100).unwrap();
        let mut b = HashPartitioner::new(8, 100).unwrap();
        let c = HashPartitioner::new(8, 100).unwrap().with_seed(7);
        for id in 0..100u64 {
            assert_eq!(a.target(id), b.target(id));
        }
        let differs = (0..100u64).any(|id| a.target(id) != c.target(id));
        assert!(differs);
        // name and finish are stable
        assert_eq!(a.name(), "hash");
        assert_eq!(b.finish().unwrap().assigned_count(), 0);
        // from_config honours the seed.
        let d = HashPartitioner::from_config(HashConfig::new(8, 100).with_seed(7)).unwrap();
        for id in 0..100u64 {
            assert_eq!(c.target(id), d.target(id));
        }
    }

    #[test]
    fn batched_ingestion_matches_per_element() {
        let g = barabasi_albert(GeneratorConfig::new(1_000, 4, 5), 2).unwrap();
        let stream = GraphStream::from_graph(&g, &StreamOrder::Random { seed: 3 });
        let mut per_element = HashPartitioner::new(4, 300).unwrap();
        for element in &stream {
            per_element.ingest(element).unwrap();
        }
        let reference = per_element.finish().unwrap();
        for chunk_size in [1usize, 64, 1024] {
            let mut batched = HashPartitioner::new(4, 300).unwrap();
            let result = partition_stream_batched(&mut batched, &stream, chunk_size).unwrap();
            assert_eq!(result.assigned_count(), reference.assigned_count());
            for (v, p) in reference.assignments() {
                assert_eq!(result.partition_of(v), Some(p), "chunk={chunk_size}");
            }
        }
    }

    #[test]
    fn removals_reclaim_slots_and_readds_land_on_the_same_partition() {
        use loom_graph::{Label, VertexId};
        let mut p = HashPartitioner::new(4, 100).unwrap();
        let add = |id: u64| StreamElement::AddVertex {
            id: VertexId::new(id),
            label: Label::new(0),
        };
        p.ingest_batch(&[add(0), add(1), add(2)]).unwrap();
        let before = p.snapshot().partition_of(VertexId::new(1)).unwrap();
        p.ingest(&StreamElement::RemoveVertex {
            id: VertexId::new(1),
        })
        .unwrap();
        assert_eq!(p.snapshot().assigned_count(), 2);
        // Edge removals and relabels are no-ops for hash placement.
        p.ingest_batch(&[
            StreamElement::RemoveEdge {
                source: VertexId::new(0),
                target: VertexId::new(2),
            },
            StreamElement::Relabel {
                id: VertexId::new(0),
                label: Label::new(3),
            },
            add(1),
        ])
        .unwrap();
        let snap = p.snapshot();
        assert_eq!(snap.assigned_count(), 3);
        assert_eq!(snap.partition_of(VertexId::new(1)), Some(before));
        let stats = p.stats();
        assert_eq!(stats.vertices_ingested, 4);
        assert_eq!(stats.edges_ingested, 0, "mutations are not edges");
    }

    #[test]
    fn stats_and_snapshot_track_progress() {
        let g = barabasi_albert(GeneratorConfig::new(500, 4, 5), 2).unwrap();
        let stream = GraphStream::from_graph(&g, &StreamOrder::Bfs);
        let mut partitioner = HashPartitioner::new(4, 200).unwrap();
        partitioner.ingest_batch(stream.elements()).unwrap();
        let stats = partitioner.stats();
        assert_eq!(stats.vertices_ingested, 500);
        assert_eq!(stats.edges_ingested, g.edge_count());
        assert_eq!(stats.batches_ingested, 1);
        assert_eq!(stats.assigned, 500);
        let snap = partitioner.snapshot();
        assert_eq!(snap.assigned_count(), 500);
        // Snapshot is non-destructive; finish then moves the result out.
        assert_eq!(partitioner.finish().unwrap().assigned_count(), 500);
        assert_eq!(partitioner.stats().assigned, 0);

        // A chunk that fails part-way counts exactly what the per-element
        // path counts: the elements ingested before the failure.
        let mut elements = stream.elements().to_vec();
        let first_vertex = *elements.iter().find(|e| e.is_vertex()).unwrap();
        elements.insert(elements.len() / 2, first_vertex);
        let mut per_element = HashPartitioner::new(4, 200).unwrap();
        let failed_one_by_one = elements.iter().try_for_each(|e| per_element.ingest(e));
        let mut chunked = HashPartitioner::new(4, 200).unwrap();
        let failed_as_chunk = chunked.ingest_batch(&elements);
        assert!(matches!(
            failed_one_by_one,
            Err(crate::PartitionError::AlreadyAssigned(_))
        ));
        assert_eq!(failed_as_chunk, failed_one_by_one);
        assert_eq!(
            chunked.stats(),
            PartitionerStats {
                batches_ingested: 1,
                ..per_element.stats()
            }
        );
    }
}
