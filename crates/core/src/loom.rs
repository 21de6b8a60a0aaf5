//! The LOOM workload-aware streaming partitioner (paper §4).
//!
//! [`LoomPartitioner`] glues the pieces together:
//!
//! * a [`StreamWindow`] buffers the most recent `window_size` vertices and
//!   their edges;
//! * a [`StreamMotifMatcher`] keeps track of window sub-graphs matching
//!   frequent workload motifs;
//! * when the window overflows (or the stream ends) the oldest vertex is
//!   evicted: if it belongs to a motif match, the *whole* match — plus any
//!   overlapping matches — is assigned to one partition chosen by an LDG
//!   score summed over the cluster; otherwise the vertex is assigned alone
//!   with plain LDG.
//!
//! A cluster larger than 32 vertices is placed in connected chunks to protect
//! balance (the failure mode the paper's §4.4 flags as an open problem).

use crate::index::FrequentMotifIndex;
use crate::matcher::{MatcherCounters, StreamMotifMatcher};
use crate::stats::LoomStats;
use loom_graph::fxhash::FxHashSet;
use loom_graph::{Label, StreamElement, VertexId};
use loom_motif::tpstry::Tpstry;
use loom_partition::error::Result;
use loom_partition::ldg::LdgPartitioner;
use loom_partition::partition::{PartitionId, Partitioning};
use loom_partition::spec::LoomConfig;
use loom_partition::state::{ArenaHomes, Setting, StateReader, StateWriter};
use loom_partition::traits::{Partitioner, PartitionerStats};
use loom_partition::window::{EdgePlacement, StreamWindow};

/// Upper bound on the size (vertices) of a motif cluster assigned as a unit.
/// A larger cluster (the pathology the paper's §4.4 warns about) is split
/// into connected chunks of at most this many vertices, and the chunk
/// containing the evicted vertex is placed as a unit (the local partitioning
/// of large matches the paper lists as future work).
const MAX_CLUSTER_SIZE: usize = 32;

/// The LOOM partitioner.
#[derive(Debug, Clone)]
pub struct LoomPartitioner {
    config: LoomConfig,
    partitioning: Partitioning,
    window: StreamWindow,
    matcher: StreamMotifMatcher,
    stats: LoomStats,
    batches_ingested: usize,
    /// The cluster of the vertex being evicted, sorted by id, and its
    /// members' external neighbours: buffers kept across evictions.
    cluster: Vec<VertexId>,
    external: Vec<VertexId>,
}

impl LoomPartitioner {
    /// Create a LOOM partitioner for a workload summarised by `tpstry`.
    ///
    /// # Errors
    ///
    /// Returns a configuration error if `config` is invalid.
    pub fn new(config: LoomConfig, tpstry: &Tpstry) -> Result<Self> {
        config.validate()?;
        let index = FrequentMotifIndex::new(tpstry, config.motif_threshold);
        Self::with_index(config, index)
    }

    /// Create a LOOM partitioner from a pre-built frequent motif index
    /// (useful when the same workload summary is shared across runs).
    ///
    /// # Errors
    ///
    /// Returns a configuration error if `config` is invalid.
    pub fn with_index(config: LoomConfig, index: FrequentMotifIndex) -> Result<Self> {
        config.validate()?;
        let partitioning =
            Partitioning::with_slack(config.k, config.expected_vertices, config.slack)?;
        Ok(Self {
            partitioning,
            window: StreamWindow::new(config.window_size),
            matcher: StreamMotifMatcher::new(index).with_verification(config.verify_matches),
            stats: LoomStats::default(),
            batches_ingested: 0,
            cluster: Vec::new(),
            external: Vec::new(),
            config,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &LoomConfig {
        &self.config
    }

    /// Detailed LOOM-specific runtime counters accumulated so far (the
    /// unified cross-partitioner report is [`Partitioner::stats`]).
    pub fn loom_stats(&self) -> LoomStats {
        let counters = self.matcher.counters();
        LoomStats {
            signatures_computed: counters.signatures_computed,
            motif_matches_found: counters.matches_found,
            verifications: counters.verifications,
            false_positive_matches: counters.false_positives,
            ..self.stats
        }
    }

    /// Number of vertices currently buffered in the window.
    pub fn buffered(&self) -> usize {
        self.window.len()
    }

    /// Evict the oldest vertex and assign it (and possibly its whole motif
    /// cluster).
    fn evict_and_assign(&mut self) -> Result<()> {
        let Some(oldest) = self.window.oldest() else {
            return Ok(());
        };

        // Work out the motif cluster anchored at the evicted vertex.
        let mut cluster = std::mem::take(&mut self.cluster);
        cluster.clear();
        cluster.extend_from_slice(self.matcher.cluster_for(oldest));

        let placed = if cluster.len() >= 2 && cluster.len() <= MAX_CLUSTER_SIZE {
            self.assign_cluster(&cluster)
        } else if cluster.len() > MAX_CLUSTER_SIZE {
            // The pathology the paper's §4.4 flags: a merged cluster too large
            // to place as a unit without wrecking balance.
            self.stats.clusters_split_for_balance += 1;
            let chunk = self.connected_chunk(&cluster, oldest);
            if chunk.len() >= 2 {
                self.assign_cluster(&chunk)
            } else {
                self.assign_single(oldest)
            }
        } else {
            self.assign_single(oldest)
        };
        self.cluster = cluster;
        placed
    }

    /// A connected chunk of `cluster` containing `anchor`, grown breadth-first
    /// along window edges and capped at [`MAX_CLUSTER_SIZE`] vertices. This is
    /// the simple local partitioning of oversized matches the paper leaves as
    /// future work: the chunk is still placed as a unit, the remainder of the
    /// cluster stays buffered and is assigned later. `cluster` and the chunk
    /// are sorted by id.
    fn connected_chunk(&self, cluster: &[VertexId], anchor: VertexId) -> Vec<VertexId> {
        let mut chunk: FxHashSet<VertexId> = FxHashSet::default();
        let in_cluster = |v: &VertexId| cluster.binary_search(v).is_ok();
        if !in_cluster(&anchor) {
            return Vec::new();
        }
        let mut queue = std::collections::VecDeque::new();
        chunk.insert(anchor);
        queue.push_back(anchor);
        while let Some(v) = queue.pop_front() {
            if chunk.len() >= MAX_CLUSTER_SIZE {
                break;
            }
            let mut neighbours: Vec<VertexId> = self
                .window
                .window_neighbours(v)
                .iter()
                .copied()
                .filter(|n| in_cluster(n) && !chunk.contains(n))
                .collect();
            neighbours.sort_unstable();
            for n in neighbours {
                if chunk.len() >= MAX_CLUSTER_SIZE {
                    break;
                }
                chunk.insert(n);
                queue.push_back(n);
            }
        }
        let mut chunk: Vec<VertexId> = chunk.into_iter().collect();
        chunk.sort_unstable();
        chunk
    }

    /// Assign a whole motif cluster, sorted by id, to the partition
    /// maximising the summed LDG score, then remove its vertices from the
    /// window and matcher.
    fn assign_cluster(&mut self, members: &[VertexId]) -> Result<()> {
        // External (already assigned) neighbours of the cluster determine the
        // LDG affinity; neighbours inside the cluster are irrelevant because
        // they will land in the same partition by construction, and window
        // neighbours outside it are not assigned yet and carry no signal.
        self.external.clear();
        for &v in members {
            self.external
                .extend_from_slice(self.window.external_neighbours(v));
        }

        let target = Self::choose_partition_for(&self.partitioning, &self.external, members.len());

        // Deterministic assignment order: by id.
        for &v in members {
            // Remove from the window first so adjacency bookkeeping stays
            // consistent for the remaining buffered vertices.
            self.window.remove(v);
            self.partitioning.assign(v, target)?;
        }
        self.matcher.remove_vertices(members);

        self.stats.clusters_assigned += 1;
        self.stats.cluster_vertices_assigned += members.len();
        self.stats.largest_cluster = self.stats.largest_cluster.max(members.len());
        Ok(())
    }

    /// Assign a single vertex with plain LDG.
    fn assign_single(&mut self, vertex: VertexId) -> Result<()> {
        let Some(evicted) = self.window.remove(vertex) else {
            return Ok(());
        };
        // The lent list goes to the scorer as it is: neighbours that are not
        // (or no longer) assigned count towards no partition.
        let target = Self::choose_partition_for(&self.partitioning, evicted.external_neighbours, 1);
        self.partitioning.assign(vertex, target)?;
        self.matcher.remove_vertices(&[vertex]);
        self.stats.single_vertices_assigned += 1;
        Ok(())
    }

    /// LDG partition choice for a list of neighbours (only the assigned ones
    /// count), placing `incoming` new vertices at once: prefer a partition
    /// with room for the whole group; if none has room, fall back to the
    /// plain LDG choice.
    fn choose_partition_for(
        partitioning: &Partitioning,
        neighbours: &[VertexId],
        incoming: usize,
    ) -> PartitionId {
        partitioning
            .ldg_choice(neighbours, |p| partitioning.has_room_for(p, incoming))
            .unwrap_or_else(|| LdgPartitioner::choose_partition(partitioning, neighbours))
    }

    /// The shared per-element transition, used by both ingestion paths.
    fn ingest_element(&mut self, element: &StreamElement) -> Result<()> {
        match *element {
            StreamElement::AddVertex { id, label } => {
                self.stats.vertices_ingested += 1;
                match self.window.label_of(id) {
                    // Re-announcing a buffered vertex is a label update, as
                    // in `LabelledGraph::apply`: nothing is evicted for it.
                    Some(held) if held == label => {}
                    Some(_) => self.relabel(id, label),
                    None => {
                        while self.window.is_full() {
                            self.evict_and_assign()?;
                        }
                        self.window.push_vertex(id, label);
                    }
                }
            }
            StreamElement::AddEdge { source, target } => {
                self.stats.edges_ingested += 1;
                match self.window.push_edge(source, target) {
                    EdgePlacement::BothInWindow => {
                        self.stats.window_edges += 1;
                        self.matcher.on_window_edge(&self.window, source, target);
                    }
                    EdgePlacement::OneInWindow { .. } | EdgePlacement::NeitherInWindow => {}
                }
            }
            StreamElement::RemoveVertex { id } => {
                if self.window.contains(id) {
                    self.matcher.remove_vertices(&[id]);
                }
                // `delete` also purges external-edge bookkeeping pointing at
                // an already-evicted vertex, so later LDG scores stop
                // counting edges into a dead vertex.
                self.window.delete(id);
                // A placed vertex announced again is buffered and placed at
                // once: the slot is reclaimed either way.
                self.partitioning.unassign(id);
            }
            StreamElement::RemoveEdge { source, target } => {
                self.window.remove_edge(source, target);
                // Matches built over the edge no longer exist in the graph.
                self.matcher.remove_edge(source, target);
            }
            StreamElement::Relabel { id, label } => self.relabel(id, label),
        }
        Ok(())
    }

    fn relabel(&mut self, id: VertexId, label: Label) {
        if self.window.relabel(id, label) {
            // Window matches containing the vertex carry signatures computed
            // from the old label.
            self.matcher.relabel(id);
        }
    }

    /// Every field of the configuration, the three fixed settings (motif
    /// clustering and overlap merging on, the cluster cap — a blob stamped
    /// with another value of one is refused by the setting's name), and the
    /// workload as the frequent motif index's fingerprint: what a state blob
    /// is stamped with.
    fn settings(&self) -> [(&'static str, Setting); 10] {
        let c = &self.config;
        let int = |x: usize| Setting::Int(x as u64);
        [
            ("k", Setting::Int(u64::from(c.k))),
            ("expected_vertices", int(c.expected_vertices)),
            ("slack", Setting::Float(c.slack)),
            ("window_size", int(c.window_size)),
            ("motif_threshold", Setting::Float(c.motif_threshold)),
            ("max_cluster_size", int(MAX_CLUSTER_SIZE)),
            ("motif_clustering", Setting::Int(1)),
            ("merge_overlapping", Setting::Int(1)),
            ("verify_matches", int(usize::from(c.verify_matches))),
            ("workload", Setting::Int(self.matcher.index().fingerprint())),
        ]
    }
}

/// The [`LoomStats`] counters, in the order a state blob holds them.
fn stat_fields(s: &mut LoomStats) -> [&mut usize; 12] {
    [
        &mut s.vertices_ingested,
        &mut s.edges_ingested,
        &mut s.window_edges,
        &mut s.signatures_computed,
        &mut s.motif_matches_found,
        &mut s.clusters_assigned,
        &mut s.cluster_vertices_assigned,
        &mut s.largest_cluster,
        &mut s.clusters_split_for_balance,
        &mut s.single_vertices_assigned,
        &mut s.verifications,
        &mut s.false_positive_matches,
    ]
}

impl Partitioner for LoomPartitioner {
    fn name(&self) -> &'static str {
        "loom"
    }

    fn ingest(&mut self, element: &StreamElement) -> Result<()> {
        self.ingest_element(element)
    }

    fn ingest_batch(&mut self, batch: &[StreamElement]) -> Result<()> {
        self.batches_ingested += 1;
        for element in batch {
            self.ingest_element(element)?;
        }
        Ok(())
    }

    fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    fn finish(&mut self) -> Result<Partitioning> {
        while !self.window.is_empty() {
            self.evict_and_assign()?;
        }
        Ok(self.partitioning.take())
    }

    fn stats(&self) -> PartitionerStats {
        PartitionerStats {
            vertices_ingested: self.stats.vertices_ingested,
            edges_ingested: self.stats.edges_ingested,
            batches_ingested: self.batches_ingested,
            assigned: self.partitioning.assigned_count(),
            buffered: self.window.len(),
        }
    }

    /// The [`LoomStats`] counters and the batch count, then the window
    /// ([`StreamWindow::encode`]) and the motif matches over it
    /// ([`StreamMotifMatcher::encode`]).
    fn encode_state(&self) -> Vec<u8> {
        let mut w = StateWriter::new(self.name(), &self.settings(), &self.partitioning);
        let mut stats = self.loom_stats();
        for counter in stat_fields(&mut stats) {
            w.u64(*counter as u64);
        }
        w.u64(self.batches_ingested as u64);
        self.window.encode(&mut w);
        self.matcher.encode(&mut w);
        w.finish()
    }

    fn restore_state(&mut self, state: &[u8], arena: &mut ArenaHomes<'_>) -> Result<()> {
        let settings = self.settings();
        let mut r =
            StateReader::open(state, self.name(), &settings, &mut self.partitioning, arena)?;
        let mut stats = LoomStats::default();
        for counter in stat_fields(&mut stats) {
            *counter = r.counter("LOOM counter")?;
        }
        self.batches_ingested = r.counter("batches ingested")?;
        self.window = StreamWindow::decode(self.config.window_size, &mut r)?;
        for v in self.window.vertices() {
            r.check_buffered(v, &self.partitioning)?;
        }
        let counters = MatcherCounters {
            signatures_computed: stats.signatures_computed,
            matches_found: stats.motif_matches_found,
            verifications: stats.verifications,
            false_positives: stats.false_positive_matches,
        };
        self.matcher.decode(&self.window, counters, &mut r)?;
        // The matcher keeps its own counters; `loom_stats` merges them in.
        self.stats = LoomStats {
            signatures_computed: 0,
            motif_matches_found: 0,
            verifications: 0,
            false_positive_matches: 0,
            ..stats
        };
        r.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::generators::regular::path_graph;
    use loom_graph::generators::{motif_planted_graph, MotifPlantConfig};
    use loom_graph::ordering::StreamOrder;
    use loom_graph::GraphStream;
    use loom_motif::fixtures::{paper_example_graph, paper_example_workload};
    use loom_motif::mining::MotifMiner;
    use loom_motif::query::{PatternQuery, QueryId};
    use loom_motif::workload::Workload;
    use loom_partition::metrics::evaluate;
    use loom_partition::traits::partition_stream;

    fn l(x: u32) -> Label {
        Label::new(x)
    }

    fn abc_tpstry() -> Tpstry {
        let q = PatternQuery::path(QueryId::new(0), &[l(0), l(1), l(2)]).unwrap();
        let w = Workload::uniform(vec![q]).unwrap();
        MotifMiner::default().mine(&w).unwrap()
    }

    #[test]
    fn partitions_the_paper_example_completely() {
        let graph = paper_example_graph();
        let tpstry = MotifMiner::default()
            .mine(&paper_example_workload())
            .unwrap();
        let config = LoomConfig::new(2, graph.vertex_count()).with_window_size(4);
        let mut loom = LoomPartitioner::new(config, &tpstry).unwrap();
        let stream = GraphStream::from_graph(&graph, &StreamOrder::Bfs);
        let part = partition_stream(&mut loom, &stream).unwrap();
        assert_eq!(part.assigned_count(), graph.vertex_count());
        assert_eq!(loom.name(), "loom");
        assert!(loom.buffered() == 0);
    }

    #[test]
    fn motif_instances_stay_within_one_partition() {
        // Plant abc paths in a background graph; with the abc workload LOOM
        // should keep the vast majority of planted instances un-split.
        let motif = path_graph(3, &[l(0), l(1), l(2)]);
        let (graph, instances) = motif_planted_graph(
            &MotifPlantConfig {
                background_vertices: 400,
                background_edges: 800,
                instances_per_motif: 60,
                attachment_edges: 1,
                label_count: 4,
                seed: 3,
            },
            &[motif],
        )
        .unwrap();
        let tpstry = abc_tpstry();
        let config = LoomConfig::new(4, graph.vertex_count())
            .with_window_size(64)
            .with_motif_threshold(0.5);
        let mut loom = LoomPartitioner::new(config, &tpstry).unwrap();
        let stream = GraphStream::from_graph(&graph, &StreamOrder::Bfs);
        let part = partition_stream(&mut loom, &stream).unwrap();
        assert_eq!(part.assigned_count(), graph.vertex_count());

        let intact = instances
            .iter()
            .filter(|inst| {
                let first = part.partition_of(inst.vertices[0]);
                inst.vertices.iter().all(|v| part.partition_of(*v) == first)
            })
            .count();
        let fraction = intact as f64 / instances.len() as f64;
        assert!(
            fraction > 0.8,
            "only {intact}/{} planted motifs kept intact",
            instances.len()
        );
        assert!(loom.loom_stats().clusters_assigned > 0);
        assert!(loom.loom_stats().motif_matches_found > 0);
    }

    #[test]
    fn keeps_more_motifs_intact_than_plain_ldg() {
        let motif = path_graph(3, &[l(0), l(1), l(2)]);
        let (graph, instances) = motif_planted_graph(
            &MotifPlantConfig {
                background_vertices: 600,
                background_edges: 1_500,
                instances_per_motif: 80,
                attachment_edges: 2,
                label_count: 4,
                seed: 7,
            },
            &[motif],
        )
        .unwrap();
        let stream = GraphStream::from_graph(&graph, &StreamOrder::Random { seed: 11 });

        let intact_fraction = |part: &Partitioning| {
            instances
                .iter()
                .filter(|inst| {
                    let first = part.partition_of(inst.vertices[0]);
                    inst.vertices.iter().all(|v| part.partition_of(*v) == first)
                })
                .count() as f64
                / instances.len() as f64
        };

        let loom_part = {
            let config = LoomConfig::new(8, graph.vertex_count()).with_window_size(128);
            let mut loom = LoomPartitioner::new(config, &abc_tpstry()).unwrap();
            partition_stream(&mut loom, &stream).unwrap()
        };
        let ldg_part = {
            let mut ldg = loom_partition::ldg::LdgPartitioner::new(
                loom_partition::ldg::LdgConfig::new(8, graph.vertex_count()),
            )
            .unwrap();
            partition_stream(&mut ldg, &stream).unwrap()
        };
        assert!(
            intact_fraction(&loom_part) > intact_fraction(&ldg_part),
            "LOOM ({:.3}) should keep more motifs intact than LDG ({:.3})",
            intact_fraction(&loom_part),
            intact_fraction(&ldg_part)
        );
    }

    #[test]
    fn balance_stays_within_slack() {
        let motif = path_graph(3, &[l(0), l(1), l(2)]);
        let (graph, _) = motif_planted_graph(
            &MotifPlantConfig {
                background_vertices: 500,
                background_edges: 1_000,
                instances_per_motif: 50,
                attachment_edges: 1,
                label_count: 4,
                seed: 5,
            },
            &[motif],
        )
        .unwrap();
        let config = LoomConfig::new(4, graph.vertex_count())
            .with_window_size(64)
            .with_slack(1.2);
        let mut loom = LoomPartitioner::new(config, &abc_tpstry()).unwrap();
        let stream = GraphStream::from_graph(&graph, &StreamOrder::Bfs);
        let part = partition_stream(&mut loom, &stream).unwrap();
        for p in part.partitions() {
            assert!(
                part.size(p) <= part.capacity() + config_headroom(),
                "partition {p} exceeded capacity: {} > {}",
                part.size(p),
                part.capacity()
            );
        }
        assert!(part.imbalance() < 1.35, "imbalance {}", part.imbalance());
    }

    /// Clusters may overflow the soft capacity by at most one cluster's worth
    /// of vertices in pathological cases; keep a small allowance.
    fn config_headroom() -> usize {
        4
    }

    /// An `ab` chain of `n` vertices under the `ab` workload: every edge is a
    /// match and they all overlap, so the chain is one merged cluster.
    fn ab_chain(n: usize) -> (loom_graph::LabelledGraph, Tpstry) {
        let q = PatternQuery::path(QueryId::new(0), &[l(0), l(1)]).unwrap();
        let w = Workload::uniform(vec![q]).unwrap();
        (
            path_graph(n, &[l(0), l(1)]),
            MotifMiner::default().mine(&w).unwrap(),
        )
    }

    #[test]
    fn oversized_clusters_are_split_for_balance() {
        // The whole chain is buffered at once, so the first eviction finds a
        // merged cluster of 128 vertices: four times the cap. It must be
        // split, and everything must still be assigned.
        let (chain, tpstry) = ab_chain(128);
        let config = LoomConfig::new(2, chain.vertex_count()).with_window_size(128);
        let mut loom = LoomPartitioner::new(config, &tpstry).unwrap();
        let stream = GraphStream::from_graph(&chain, &StreamOrder::Bfs);
        let part = partition_stream(&mut loom, &stream).unwrap();
        assert_eq!(part.assigned_count(), 128);
        let stats = loom.loom_stats();
        assert!(stats.clusters_split_for_balance > 0);
        assert!(stats.largest_cluster <= MAX_CLUSTER_SIZE);
    }

    #[test]
    fn oversized_clusters_are_assigned_in_connected_chunks() {
        // A long ab chain forms one giant merged cluster. It is assigned in
        // connected pieces of at most MAX_CLUSTER_SIZE vertices, placed as
        // multi-vertex groups rather than vertex by vertex.
        let (chain, tpstry) = ab_chain(160);
        let stream = GraphStream::from_graph(&chain, &StreamOrder::Bfs);
        let config = LoomConfig::new(4, chain.vertex_count())
            .with_window_size(128)
            .with_slack(1.3);
        let mut loom = LoomPartitioner::new(config, &tpstry).unwrap();
        let part = partition_stream(&mut loom, &stream).unwrap();
        let stats = loom.loom_stats();
        assert_eq!(part.assigned_count(), 160);
        assert!(stats.clusters_split_for_balance > 0);
        assert!(stats.clusters_assigned > 0);
        assert!(stats.largest_cluster <= MAX_CLUSTER_SIZE);
        assert!(stats.largest_cluster >= 2);
    }

    #[test]
    fn a_loom_blob_stamped_with_a_retired_setting_is_refused_by_name() {
        // The fixed settings stamp every blob: one written with another
        // value is refused by the setting's name.
        let loom = LoomPartitioner::new(LoomConfig::new(2, 16), &abc_tpstry()).unwrap();
        for (name, value, expected) in [
            (
                "motif_clustering",
                0,
                "written with motif_clustering = 0, this partitioner has motif_clustering = 1",
            ),
            (
                "max_cluster_size",
                4,
                "written with max_cluster_size = 4, this partitioner has max_cluster_size = 32",
            ),
        ] {
            let mut settings = loom.settings();
            let slot = settings.iter_mut().find(|(n, _)| *n == name).unwrap();
            slot.1 = Setting::Int(value);
            // The header is refused before any of the body is read.
            let blob = StateWriter::new("loom", &settings, &loom.partitioning).finish();
            let mut restored = loom.clone();
            match restored.restore_state(&blob, &mut std::iter::empty()) {
                Err(loom_partition::PartitionError::StateMismatch(detail)) => {
                    assert_eq!(detail, expected);
                }
                other => panic!("expected StateMismatch for {name}, got {other:?}"),
            }
        }
    }

    #[test]
    fn verification_mode_reports_counts_and_still_partitions() {
        let motif = path_graph(3, &[l(0), l(1), l(2)]);
        let (graph, _) = motif_planted_graph(
            &MotifPlantConfig {
                background_vertices: 200,
                background_edges: 400,
                instances_per_motif: 30,
                attachment_edges: 1,
                label_count: 4,
                seed: 13,
            },
            &[motif],
        )
        .unwrap();
        let config = LoomConfig::new(4, graph.vertex_count())
            .with_window_size(64)
            .with_verification();
        let mut loom = LoomPartitioner::new(config, &abc_tpstry()).unwrap();
        let stream = GraphStream::from_graph(&graph, &StreamOrder::Bfs);
        let part = partition_stream(&mut loom, &stream).unwrap();
        assert_eq!(part.assigned_count(), graph.vertex_count());
        let stats = loom.loom_stats();
        assert!(stats.verifications > 0);
        // With label-distinct path motifs the signature is effectively exact,
        // so no collisions are expected.
        assert_eq!(stats.false_positive_matches, 0);
    }

    #[test]
    fn quality_report_is_produced() {
        let graph = paper_example_graph();
        let tpstry = MotifMiner::default()
            .mine(&paper_example_workload())
            .unwrap();
        let config = LoomConfig::new(2, graph.vertex_count()).with_window_size(8);
        let mut loom = LoomPartitioner::new(config, &tpstry).unwrap();
        let stream = GraphStream::from_graph(&graph, &StreamOrder::Bfs);
        let part = partition_stream(&mut loom, &stream).unwrap();
        let report = evaluate(&graph, &part);
        assert_eq!(report.total_edges, graph.edge_count());
        assert!(report.cut_ratio <= 1.0);
    }

    #[test]
    fn mutation_stream_reclaims_window_and_load_accounting() {
        use loom_graph::VertexId;
        let tpstry = abc_tpstry();
        // Tiny window so vertex 1 gets evicted (assigned) early.
        let config = LoomConfig::new(2, 16).with_window_size(2);
        let mut loom = LoomPartitioner::new(config, &tpstry).unwrap();
        let add = |id: u64, label: u32| StreamElement::AddVertex {
            id: VertexId::new(id),
            label: l(label),
        };
        let edge = |a: u64, b: u64| StreamElement::AddEdge {
            source: VertexId::new(a),
            target: VertexId::new(b),
        };
        loom.ingest_batch(&[
            add(1, 0),
            add(2, 1),
            edge(1, 2),
            add(3, 2), // evicts vertex 1 -> assigned
            edge(2, 3),
        ])
        .unwrap();
        // The 1-2 ab match was assigned as a whole cluster at eviction time,
        // leaving only vertex 3 buffered.
        assert!(loom.partitioning().is_assigned(VertexId::new(1)));
        assert!(loom.partitioning().is_assigned(VertexId::new(2)));
        assert_eq!(loom.buffered(), 1);

        // Deleting a buffered vertex frees window capacity and drops its
        // matches; deleting an assigned vertex reclaims its load slot.
        loom.ingest(&StreamElement::RemoveVertex {
            id: VertexId::new(3),
        })
        .unwrap();
        assert_eq!(loom.buffered(), 0);
        assert!(loom
            .matcher
            .matches()
            .all(|m| !m.vertices.contains(&VertexId::new(3))));
        loom.ingest(&StreamElement::RemoveVertex {
            id: VertexId::new(1),
        })
        .unwrap();
        assert!(!loom.partitioning().is_assigned(VertexId::new(1)));

        // Edge removal and relabel keep the matcher consistent.
        loom.ingest_batch(&[
            add(4, 0),
            edge(4, 2),
            StreamElement::RemoveEdge {
                source: VertexId::new(4),
                target: VertexId::new(2),
            },
            StreamElement::Relabel {
                id: VertexId::new(2),
                label: l(3),
            },
        ])
        .unwrap();
        assert!(loom
            .matcher
            .matches()
            .all(|m| !m.vertices.contains(&VertexId::new(2))));
        let part = loom.finish().unwrap();
        // Vertices 2 and 4 remain buffered and get assigned at finish; 1 and
        // 3 were deleted.
        assert_eq!(part.assigned_count(), 2);
        assert!(part.partition_of(VertexId::new(1)).is_none());
        assert!(part.partition_of(VertexId::new(3)).is_none());
    }

    #[test]
    fn reannouncing_a_buffered_vertex_is_a_label_update() {
        let add = |id: u64, label: u32| StreamElement::AddVertex {
            id: VertexId::new(id),
            label: l(label),
        };
        let edge = |a: u64, b: u64| StreamElement::AddEdge {
            source: VertexId::new(a),
            target: VertexId::new(b),
        };
        let config = LoomConfig::new(2, 16).with_window_size(2);
        let mut loom = LoomPartitioner::new(config, &abc_tpstry()).unwrap();
        loom.ingest_batch(&[add(1, 0), add(2, 1), edge(1, 2)])
            .unwrap();
        assert_eq!(loom.matcher.match_count(), 1);

        // The window is full. The same label again changes nothing: no
        // eviction (least of all of vertex 1 itself), the ab match stays.
        loom.ingest(&add(1, 0)).unwrap();
        assert_eq!(loom.buffered(), 2);
        assert_eq!(loom.partitioning().assigned_count(), 0);
        assert_eq!(loom.matcher.match_count(), 1);

        // A new label is a relabel: still no eviction, and the match whose
        // signature was computed from the old label is dropped.
        loom.ingest(&add(1, 3)).unwrap();
        assert_eq!(loom.buffered(), 2);
        assert_eq!(loom.partitioning().assigned_count(), 0);
        assert_eq!(loom.window.label_of(VertexId::new(1)), Some(l(3)));
        assert_eq!(loom.matcher.match_count(), 0);
        assert_eq!(loom.finish().unwrap().assigned_count(), 2);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let tpstry = abc_tpstry();
        let bad = LoomConfig::new(0, 100);
        assert!(LoomPartitioner::new(bad, &tpstry).is_err());
    }
}
