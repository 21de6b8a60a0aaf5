//! Property-based tests over the core invariants of the LOOM stack.
//!
//! These use `proptest` to generate random graphs, workloads and streams and
//! check the invariants the rest of the system silently relies on:
//! signature algebra, canonical-code stability, stream faithfulness,
//! partitioner completeness and balance, and TPSTry++ support monotonicity.

use loom::loom_partition::window::{EdgePlacement, StreamWindow};
use loom::loom_store::codec::{encode_shard, encode_tail};
use loom::loom_store::CheckpointImage;
use loom::prelude::*;
use loom_graph::{VertexId, VertexIndex};
use loom_motif::canonical::canonical_code;
use loom_motif::isomorphism::{are_isomorphic, count_matches};
use loom_sim::engine::request_schedule;
use loom_sim::matcher::PatternStore;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Strategy: a small random connected labelled graph described by a label
/// sequence (path backbone) plus extra random edges.
fn small_graph_strategy() -> impl Strategy<Value = LabelledGraph> {
    (
        proptest::collection::vec(0u32..4, 2..8),
        proptest::collection::vec((0usize..8, 0usize..8), 0..6),
    )
        .prop_map(|(labels, extra_edges)| {
            let mut g = LabelledGraph::new();
            let vertices: Vec<VertexId> = labels
                .iter()
                .map(|&l| g.add_vertex(Label::new(l)))
                .collect();
            for w in vertices.windows(2) {
                let _ = g.add_edge_idempotent(w[0], w[1]);
            }
            for (a, b) in extra_edges {
                if a < vertices.len() && b < vertices.len() && a != b {
                    let _ = g.add_edge_idempotent(vertices[a], vertices[b]);
                }
            }
            g
        })
}

/// Relabel vertex ids of a graph with an arbitrary offset + shuffle, keeping
/// the structure identical.
fn shuffle_ids(graph: &LabelledGraph, seed: u64) -> LabelledGraph {
    let vertices = graph.vertices_sorted();
    let mut new_ids: Vec<u64> = (0..vertices.len() as u64).map(|i| 1_000 + i * 7).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    new_ids.shuffle(&mut rng);
    let mapping: std::collections::HashMap<VertexId, VertexId> = vertices
        .iter()
        .zip(new_ids.iter())
        .map(|(&old, &new)| (old, VertexId::new(new)))
        .collect();
    let mut out = LabelledGraph::new();
    for &v in &vertices {
        out.insert_vertex(mapping[&v], graph.label(v).expect("labelled"));
    }
    for e in graph.edges_sorted() {
        out.add_edge(mapping[&e.lo], mapping[&e.hi])
            .expect("valid edge");
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The canonical code is invariant under vertex-id relabelling, and equal
    /// codes imply isomorphism for these small graphs.
    #[test]
    fn canonical_code_is_id_invariant(graph in small_graph_strategy(), seed in 0u64..1000) {
        let shuffled = shuffle_ids(&graph, seed);
        prop_assert_eq!(canonical_code(&graph), canonical_code(&shuffled));
        prop_assert!(are_isomorphic(&graph, &shuffled));
    }

    /// A sub-graph's signature always divides its super-graph's signature.
    #[test]
    fn signature_divisibility_respects_subgraphs(graph in small_graph_strategy()) {
        let table = PrimeTable::new(4);
        let full = table.signature_of(&graph).expect("alphabet fits");
        // Drop the highest-id vertex to build a strict sub-graph.
        let vertices = graph.vertices_sorted();
        let subset: Vec<VertexId> = vertices[..vertices.len() - 1].to_vec();
        let sub = induced_subgraph(&graph, subset);
        let sub_sig = table.signature_of(&sub).expect("alphabet fits");
        prop_assert!(sub_sig.divides(&full));
        // Divisibility is reflexive and antisymmetric on factor counts.
        prop_assert!(full.divides(&full));
        if sub_sig.factor_count() < full.factor_count() {
            prop_assert!(!full.divides(&sub_sig));
        }
    }

    /// Streams reconstruct their source graph under any random ordering, and
    /// edges never precede their endpoints.
    #[test]
    fn streams_are_faithful(graph in small_graph_strategy(), seed in 0u64..1000) {
        let stream = GraphStream::from_graph(&graph, &StreamOrder::Random { seed });
        let rebuilt = stream.materialise();
        prop_assert_eq!(rebuilt.vertex_count(), graph.vertex_count());
        prop_assert_eq!(rebuilt.edges_sorted(), graph.edges_sorted());
        let mut seen = std::collections::HashSet::new();
        for element in &stream {
            match *element {
                StreamElement::AddVertex { id, .. } => { seen.insert(id); }
                StreamElement::AddEdge { source, target } => {
                    prop_assert!(seen.contains(&source) && seen.contains(&target));
                }
                // `from_graph` streams are insert-only.
                _ => prop_assert!(false, "graph streams carry no mutations"),
            }
        }
    }

    /// Every streaming partitioner assigns every vertex exactly once, to a
    /// valid partition, and LDG stays within its capacity.
    #[test]
    fn streaming_partitioners_are_complete(
        graph in small_graph_strategy(),
        seed in 0u64..1000,
        k in 2u32..5,
    ) {
        let stream = GraphStream::from_graph(&graph, &StreamOrder::Random { seed });
        let n = graph.vertex_count();

        let mut ldg = LdgPartitioner::new(LdgConfig::new(k, n)).expect("valid");
        let ldg_part = partition_stream(&mut ldg, &stream).expect("ldg ok");
        prop_assert_eq!(ldg_part.assigned_count(), n);
        for p in ldg_part.partitions() {
            prop_assert!(ldg_part.size(p) <= ldg_part.capacity());
        }

        let mut hash = HashPartitioner::new(k, n.max(1)).expect("valid");
        let hash_part = partition_stream(&mut hash, &stream).expect("hash ok");
        prop_assert_eq!(hash_part.assigned_count(), n);

        let mut fennel = FennelPartitioner::new(FennelConfig::new(k, n, graph.edge_count()))
            .expect("valid");
        let fennel_part = partition_stream(&mut fennel, &stream).expect("fennel ok");
        prop_assert_eq!(fennel_part.assigned_count(), n);
        for v in graph.vertices_sorted() {
            prop_assert!(ldg_part.partition_of(v).expect("assigned").0 < k);
            prop_assert!(fennel_part.partition_of(v).expect("assigned").0 < k);
        }
    }

    /// LOOM assigns every vertex exactly once no matter the window size or
    /// motif threshold, and its cluster bookkeeping never loses a vertex.
    #[test]
    fn loom_is_complete_for_any_window(
        graph in small_graph_strategy(),
        window in 1usize..16,
        threshold in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let q = PatternQuery::path(QueryId::new(0), &[Label::new(0), Label::new(1), Label::new(2)])
            .expect("valid query");
        let workload = Workload::uniform(vec![q]).expect("valid workload");
        let tpstry = MotifMiner::default().mine(&workload).expect("mines");
        let config = LoomConfig::new(3, graph.vertex_count())
            .with_window_size(window)
            .with_motif_threshold(threshold);
        let mut loom = LoomPartitioner::new(config, &tpstry).expect("valid");
        let stream = GraphStream::from_graph(&graph, &StreamOrder::Random { seed });
        let partitioning = partition_stream(&mut loom, &stream).expect("loom ok");
        prop_assert_eq!(partitioning.assigned_count(), graph.vertex_count());
        prop_assert_eq!(loom.loom_stats().total_assigned(), graph.vertex_count());
    }

    /// TPSTry++ invariants hold for arbitrary mined workloads: parent/child
    /// symmetry and support monotonicity.
    #[test]
    fn tpstry_invariants_hold_for_random_workloads(
        label_seqs in proptest::collection::vec(
            proptest::collection::vec(0u32..4, 2..5),
            1..5,
        ),
    ) {
        let queries: Vec<PatternQuery> = label_seqs
            .iter()
            .enumerate()
            .map(|(i, labels)| {
                let labels: Vec<Label> = labels.iter().map(|&l| Label::new(l)).collect();
                PatternQuery::path(QueryId::new(i as u32), &labels).expect("valid path query")
            })
            .collect();
        let workload = Workload::uniform(queries).expect("non-empty");
        let tpstry = MotifMiner::default().mine(&workload).expect("mines");
        prop_assert!(tpstry.check_invariants().is_ok());
        // Every p-value is a probability.
        for node in tpstry.nodes() {
            let p = tpstry.p_value(node.id());
            prop_assert!((0.0..=1.0 + 1e-9).contains(&p));
        }
    }

    /// Partition quality metrics are internally consistent.
    #[test]
    fn quality_metrics_are_consistent(graph in small_graph_strategy(), seed in 0u64..1000, k in 2u32..5) {
        let stream = GraphStream::from_graph(&graph, &StreamOrder::Random { seed });
        let mut ldg = LdgPartitioner::new(LdgConfig::new(k, graph.vertex_count())).expect("valid");
        let partitioning = partition_stream(&mut ldg, &stream).expect("ok");
        let report = partitioning.quality(&graph);
        prop_assert_eq!(report.total_edges, graph.edge_count());
        prop_assert!(report.cut_edges <= report.total_edges);
        prop_assert!((0.0..=1.0).contains(&report.cut_ratio));
        prop_assert!(report.imbalance >= 1.0 - 1e-9);
        // Communication volume is at most twice the cut edge count
        // (each cut edge contributes at most one remote partition per side).
        prop_assert!(report.communication_volume <= 2 * report.cut_edges);
    }
}

// ───────────────── mutation-stream interleaving parity ─────────────────

/// One raw mutation op before interpretation: `(kind, a, b, label)`. The
/// interpreter maps it onto whatever is valid for the current shadow graph
/// (indices are taken modulo the live population), so every generated
/// sequence realises into a legal mutation stream.
type RawOp = (u8, usize, usize, u32);

/// Interprets [`RawOp`]s into a [`StreamElement`] sequence while maintaining
/// the reference graph the stream must converge to. Removed vertices go to a
/// graveyard so a later op can re-add the *same* id (the remove-then-readd
/// path the distinct counters and tombstone machinery must survive).
struct MutationScript {
    graph: LabelledGraph,
    alive: Vec<VertexId>,
    graveyard: Vec<(VertexId, Label)>,
    next_id: u64,
    elements: Vec<StreamElement>,
}

impl MutationScript {
    fn new() -> Self {
        Self {
            graph: LabelledGraph::new(),
            alive: Vec::new(),
            graveyard: Vec::new(),
            next_id: 0,
            elements: Vec::new(),
        }
    }

    /// Apply one raw op. `destructive_only` restricts the op to the
    /// remove/relabel kinds (the dissolve phase of a churn workload).
    fn apply(&mut self, op: RawOp, destructive_only: bool) {
        let (kind, a, b, label) = op;
        let kind = if destructive_only {
            2 + kind % 3
        } else {
            kind % 6
        };
        match kind {
            0 => {
                // Add a fresh vertex.
                let id = VertexId::new(self.next_id);
                self.next_id += 1;
                let lbl = Label::new(label % 4);
                self.graph.insert_vertex(id, lbl);
                self.alive.push(id);
                self.elements
                    .push(StreamElement::AddVertex { id, label: lbl });
            }
            1 => {
                // Add an edge between two distinct live vertices.
                if self.alive.len() >= 2 {
                    let u = self.alive[a % self.alive.len()];
                    let v = self.alive[b % self.alive.len()];
                    if u != v {
                        let _ = self.graph.add_edge_idempotent(u, v);
                        self.elements.push(StreamElement::AddEdge {
                            source: u,
                            target: v,
                        });
                    }
                }
            }
            2 => {
                // Remove a live vertex (implicitly drops incident edges).
                if !self.alive.is_empty() {
                    let v = self.alive.swap_remove(a % self.alive.len());
                    let lbl = self.graph.label(v).expect("live vertex is labelled");
                    self.graph.remove_vertex(v);
                    self.graveyard.push((v, lbl));
                    self.elements.push(StreamElement::RemoveVertex { id: v });
                }
            }
            3 => {
                // Remove an existing edge.
                let edges = self.graph.edges_sorted();
                if !edges.is_empty() {
                    let e = edges[a % edges.len()];
                    self.graph.remove_edge(e.lo, e.hi);
                    self.elements.push(StreamElement::RemoveEdge {
                        source: e.lo,
                        target: e.hi,
                    });
                }
            }
            4 => {
                // Relabel a live vertex.
                if !self.alive.is_empty() {
                    let v = self.alive[a % self.alive.len()];
                    let lbl = Label::new(label % 4);
                    let _ = self.graph.set_label(v, lbl);
                    self.elements
                        .push(StreamElement::Relabel { id: v, label: lbl });
                }
            }
            _ => {
                // Re-add a previously removed vertex under its old id.
                if !self.graveyard.is_empty() {
                    let (v, lbl) = self.graveyard.swap_remove(a % self.graveyard.len());
                    self.graph.insert_vertex(v, lbl);
                    self.alive.push(v);
                    self.elements
                        .push(StreamElement::AddVertex { id: v, label: lbl });
                }
            }
        }
    }

    /// Add a fresh path labelled `labels` in order: one matched instance of
    /// the path query over the same labels.
    fn plant_path(&mut self, labels: &[u32]) {
        let mut previous = None;
        for &label in labels {
            let id = VertexId::new(self.next_id);
            self.next_id += 1;
            let label = Label::new(label);
            self.graph.insert_vertex(id, label);
            self.alive.push(id);
            self.elements.push(StreamElement::AddVertex { id, label });
            if let Some(source) = previous {
                let _ = self.graph.add_edge_idempotent(source, id);
                self.elements
                    .push(StreamElement::AddEdge { source, target: id });
            }
            previous = Some(id);
        }
    }

    /// Drain the elements realised so far (the phase boundary).
    fn take_elements(&mut self) -> Vec<StreamElement> {
        std::mem::take(&mut self.elements)
    }
}

/// Monotonic counter giving each WAL-leg proptest case a private temp dir.
static WAL_CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// The fixed two-query workload for the parity checks (labels inside the
/// interpreter's 0..4 alphabet, so relabels move matches in and out).
fn parity_workload() -> Workload {
    Workload::uniform(vec![
        PatternQuery::path(
            QueryId::new(0),
            &[Label::new(0), Label::new(1), Label::new(2)],
        )
        .expect("valid abc query"),
        PatternQuery::path(QueryId::new(1), &[Label::new(2), Label::new(1)]).expect("valid query"),
    ])
    .expect("valid parity workload")
}

/// A store's derived state as the matcher sees it, in id space: every live
/// vertex's arcs as `(neighbour, remote, may match)` under each of the 128
/// values a tag's label bits can take, each label's roots in order, and —
/// computed from the slices when asked, never stored — every shard's border
/// and the replication factor.
type DerivedState = (
    Vec<Vec<(VertexId, bool, bool)>>,
    Vec<Vec<VertexId>>,
    Vec<ShardBorder>,
    f64,
);

/// The derived state of a store next to that of a from-scratch build of its
/// own live parts.
fn derived_state_against_a_rebuild(store: &ShardedStore) -> [DerivedState; 2] {
    let (graph, partitioning) = (store.to_graph(), store.to_partitioning());
    let rebuilt = ShardedStore::from_parts(&graph, &partitioning);
    [store, &rebuilt].map(|store| {
        let id = |h| store.vertex_of(h);
        let mut arcs = Vec::new();
        for v in graph.vertices_sorted() {
            let h = store.resolve(v).expect("a live vertex resolves");
            for bits in 0..128 {
                let tagged = store.arcs_of(h, Label::new(bits));
                arcs.push(
                    tagged
                        .map(|arc| (id(arc.to), arc.remote, arc.may_match))
                        .collect(),
                );
            }
        }
        let roots = |label| store.handles_with_label(Label::new(label));
        let lists = (0..4).map(|label| roots(label).iter().map(|&h| id(h)).collect());
        let borders = (0..store.shard_count()).map(|p| store.border(PartitionId::new(p)));
        (
            arcs,
            lists.collect(),
            borders.collect(),
            store.replication_factor(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any valid interleaving of adds, removes, relabels and re-adds,
    /// streamed through each partitioner, yields a partitioning of exactly
    /// the surviving vertices — and the workload's match counts are
    /// identical whether the final graph is (1) queried sequentially from a
    /// from-scratch build, (2) served from a from-scratch sharded store,
    /// (3) served from a pre-dissolve store that reached the final state
    /// through tombstoning (and from its compaction), or (4) rebuilt from a
    /// WAL round-trip of the full mutation history. Every leg runs through
    /// one full-enumeration engine, and its count is the independent VF2
    /// count (`loom_motif::isomorphism`) on the final graph: the build
    /// plants abc paths among its random ops, so most cases still hold
    /// matches after the destroy phase has torn some of them down. Every
    /// sharded store on the way passes `check_arena`, and after the
    /// tombstones, after a migration and after compaction its arc tags,
    /// label lists, shard borders and replication factor are those of a
    /// from-scratch build of its own parts.
    #[test]
    fn mutation_interleavings_preserve_match_parity(
        build_ops in proptest::collection::vec((0u8..6, 0usize..64, 0usize..64, 0u32..4), 6..40),
        planted in 4usize..12,
        destroy_ops in proptest::collection::vec((0u8..3, 0usize..64, 0usize..64, 0u32..4), 1..16),
        seed in 0u64..1000,
    ) {
        let mut script = MutationScript::new();
        for op in build_ops {
            script.apply(op, false);
        }
        for _ in 0..planted {
            script.plant_path(&[0, 1, 2]);
        }
        let build = script.take_elements();
        let pre_destroy = script.graph.clone();
        for op in destroy_ops {
            script.apply(op, true);
        }
        let destroy = script.take_elements();
        let final_graph = script.graph;

        // The stream is faithful: materialising the full history rebuilds
        // the shadow graph exactly (vertices, edges, labels).
        let mut all = build.clone();
        all.extend(destroy.iter().cloned());
        let replayed = GraphStream::from_elements(all.clone()).materialise();
        prop_assert_eq!(replayed.vertices_sorted(), final_graph.vertices_sorted());
        prop_assert_eq!(replayed.edges_sorted(), final_graph.edges_sorted());
        for v in final_graph.vertices_sorted() {
            prop_assert_eq!(replayed.label(v), final_graph.label(v));
        }

        let workload = parity_workload();
        let n = final_graph.vertex_count();
        // Capacity must cover the high-water mark of live vertices, which is
        // bounded by the total number of AddVertex elements.
        let adds = all
            .iter()
            .filter(|e| matches!(e, StreamElement::AddVertex { .. }))
            .count()
            .max(1);
        let edges = pre_destroy.edge_count().max(1);
        let tpstry = MotifMiner::default().mine(&workload).expect("mines");
        let engine = ServeEngine::new(ServeConfig::new(2).with_mode(QueryMode::FullEnumeration));
        let request = QueryRequest::workload(8).with_seed(seed);
        let ctx = RequestContext::unbounded();
        // The oracle: each scheduled query's VF2 embedding count on the
        // final graph.
        let expected: usize = request_schedule(&workload, &request)
            .iter()
            .map(|&(index, _)| count_matches(workload.queries()[index].graph(), &final_graph))
            .sum();

        let registry = loom_core::workload_registry(&tpstry);
        let specs = [
            PartitionerSpec::Hash(HashConfig::new(2, adds)),
            PartitionerSpec::Ldg(LdgConfig::new(2, adds)),
            PartitionerSpec::Fennel(FennelConfig::new(2, adds, edges)),
            PartitionerSpec::Loom(LoomConfig::new(2, adds).with_window_size(4)),
        ];
        for spec in &specs {
            // Leg 1 (sequential, from scratch): stream the full history.
            let mut partitioner = registry.build(spec).expect("builds");
            partitioner.ingest_batch(&build).expect("build batch ingests");
            partitioner.ingest_batch(&destroy).expect("destroy batch ingests");
            let partitioning = partitioner.finish().expect("finishes");
            prop_assert_eq!(partitioning.assigned_count(), n);
            for v in final_graph.vertices_sorted() {
                prop_assert!(partitioning.partition_of(v).is_some());
            }
            let reference = PartitionedStore::new(final_graph.clone(), partitioning.clone());
            let seq = engine.run_sequential(&reference, &workload, request, &ctx).metrics;
            prop_assert!(!seq.matches_limited);
            // Every partitioner sees the oracle's matches on the same graph.
            prop_assert_eq!(seq.matches_found, expected);

            // Leg 2 (sharded, from scratch): same partitioning, frozen into
            // the concurrent store.
            let frozen = ShardedStore::from_parts(&final_graph, &partitioning);
            prop_assert_eq!(frozen.check_arena(), Ok(()));
            let sharded = engine
                .run(&std::sync::Arc::new(frozen), &workload, request, &ctx)
                .0
                .aggregate;
            prop_assert_eq!(sharded.matches_found, expected);

            // Leg 3 (tombstoned): build the pre-dissolve store from scratch,
            // then apply the destroy stream as tombstones — matches must be
            // those of the final graph without any rebuild.
            let mut pre_partitioner = registry.build(spec).expect("builds");
            pre_partitioner.ingest_batch(&build).expect("build batch ingests");
            let pre_partitioning = pre_partitioner.finish().expect("finishes");
            let tombstoned = ShardedStore::from_parts(&pre_destroy, &pre_partitioning)
                .apply_mutations(&destroy)
                .store;
            // The position arenas stay in step through every tombstone, and
            // through the compaction that purges them.
            prop_assert_eq!(tombstoned.check_arena(), Ok(()));
            let compacted = tombstoned.compact(0.0).store;
            prop_assert_eq!(compacted.check_arena(), Ok(()));
            prop_assert_eq!(compacted.tombstoned_vertices(), 0);
            // Every survivor of shard 0 moves to shard 1, tombstones in tow.
            let movers = tombstoned.shard_slice(PartitionId::new(0)).expect("two shards");
            let moves: Vec<_> =
                movers.vertices().map(|v| (v, PartitionId::new(1))).collect();
            let migrated = tombstoned.apply_migration(&moves).store;
            prop_assert_eq!(migrated.check_arena(), Ok(()));
            for store in [&tombstoned, &migrated, &compacted] {
                let [kept, rebuilt] = derived_state_against_a_rebuild(store);
                prop_assert_eq!(kept, rebuilt);
            }
            for store in [tombstoned, compacted] {
                let served = engine
                    .run(&std::sync::Arc::new(store), &workload, request, &ctx)
                    .0
                    .aggregate;
                prop_assert_eq!(served.matches_found, expected);
            }
        }

        // Leg 4 (recovered from WAL): the full mutation history round-trips
        // bit-for-bit and its replay equals the final graph.
        let case = WAL_CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let root = std::env::temp_dir().join(format!(
            "loom-prop-mutations-{}-{case}",
            std::process::id()
        ));
        std::fs::create_dir_all(&root).expect("temp root");
        {
            let mut wal = loom::loom_store::Wal::create(&root.join(loom::loom_store::WAL_FILE))
                .expect("wal creates");
            let mut expected = Vec::new();
            for batch in [&build, &destroy] {
                if !batch.is_empty() {
                    wal.append(batch).expect("wal appends");
                    expected.push(batch.clone());
                }
            }
            let (recovered, ()) =
                loom::loom_store::recover(&root, &Default::default(), |_| ()).expect("recovers");
            prop_assert_eq!(&recovered.batches, &expected);
            let rebuilt =
                GraphStream::from_elements(recovered.batches.concat()).materialise();
            prop_assert_eq!(rebuilt.vertices_sorted(), final_graph.vertices_sorted());
            prop_assert_eq!(rebuilt.edges_sorted(), final_graph.edges_sorted());
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// A stream for [`restored_partitioners_continue_exactly_as_replayed_ones`]:
/// a grown graph (insert-only, or the churn scenario's build and dissolve)
/// with what the partitioners treat specially spliced into the middle of
/// the build: an edge to a vertex not yet announced, then that vertex (it
/// enters LOOM's window through the re-entry index); the stream's first
/// vertex — placed long before — announced again (unless `reannounce` is
/// off: hash placement refuses that) and given an edge, then deleted, and
/// added back with the edge.
fn restore_stream(seed: u64, churn: bool, reannounce: bool) -> Vec<StreamElement> {
    let (mut elements, dissolve) = if churn {
        let run = DeletionChurnScenario {
            background_vertices: 150,
            instances: 12,
            dissolve_fraction: 0.5,
            relabel_fraction: 0.2,
            seed,
        }
        .build()
        .expect("valid scenario");
        (run.build_stream.elements().to_vec(), run.dissolve)
    } else {
        let graph = loom_graph::generators::barabasi_albert(
            loom_graph::generators::GeneratorConfig::new(150, 4, seed),
            3,
        )
        .expect("valid BA parameters");
        let stream = GraphStream::from_graph(&graph, &StreamOrder::Bfs);
        (stream.elements().to_vec(), Vec::new())
    };
    let mid = elements.len() / 2;
    let vertex = |element: &StreamElement| match *element {
        StreamElement::AddVertex { id, label } => Some((id, label)),
        _ => None,
    };
    let (first, first_label) = elements.iter().find_map(vertex).expect("a vertex");
    let (recent, _) = elements[..mid]
        .iter()
        .rev()
        .find_map(vertex)
        .expect("a vertex");
    let late = VertexId::new(1_000_000);
    let announce = StreamElement::AddVertex {
        id: first,
        label: first_label,
    };
    let edge = StreamElement::AddEdge {
        source: first,
        target: recent,
    };
    let mut spliced = vec![
        StreamElement::AddEdge {
            source: recent,
            target: late,
        },
        StreamElement::AddVertex {
            id: late,
            label: Label::new(1),
        },
    ];
    if reannounce {
        spliced.push(announce);
    }
    spliced.extend([
        edge,
        StreamElement::RemoveVertex { id: first },
        announce,
        edge,
    ]);
    elements.splice(mid..mid, spliced);
    elements.extend(dissolve);
    elements
}

/// Everything a partitioner shows of itself: its assignment, its counters
/// and its state.
fn observed(
    partitioner: &dyn Partitioner,
) -> (Vec<(VertexId, PartitionId)>, PartitionerStats, Vec<u8>) {
    let mut assignment: Vec<_> = partitioner.snapshot().assignments().collect();
    assignment.sort_unstable();
    (assignment, partitioner.stats(), partitioner.encode_state())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Restore ≡ replay, for every partitioner. Cut a stream at a batch
    /// boundary, encode the partitioner's state there, freeze the arena a
    /// checkpoint would hold (the graph so far under the partitioner's
    /// snapshot) and restore a fresh partitioner from the two: it re-encodes
    /// to the same bytes, and fed the rest of the stream in the same batches
    /// it agrees with the partitioner that never stopped — every batch's
    /// result, and the assignment, counters and state at every boundary.
    #[test]
    fn restored_partitioners_continue_exactly_as_replayed_ones(
        seed in 0u64..1000,
        churn in 0u8..2,
        batch in 5usize..48,
        cut_permille in 0usize..1000,
    ) {
        let n = restore_stream(seed, churn == 1, true).iter().filter(|e| e.is_vertex()).count();
        let tpstry = MotifMiner::default()
            .mine(&DeletionChurnScenario::workload())
            .expect("mines");
        let registry = loom_core::workload_registry(&tpstry);
        let specs = [
            PartitionerSpec::Hash(HashConfig::new(3, n)),
            PartitionerSpec::Ldg(LdgConfig::new(3, n)),
            PartitionerSpec::Fennel(FennelConfig::new(3, n, 3 * n)),
            PartitionerSpec::Loom(LoomConfig::new(3, n).with_window_size(8)),
        ];
        for spec in &specs {
            let elements = restore_stream(seed, churn == 1, spec.name() != "hash");
            let batches: Vec<&[StreamElement]> = elements.chunks(batch).collect();
            let cut = batches.len() * cut_permille / 1000;
            let prefix = GraphStream::from_elements(batches[..cut].concat()).materialise();
            let mut original = registry.build(spec).expect("builds");
            for &b in &batches[..cut] {
                prop_assert_eq!(original.ingest_batch(b), Ok(()), "{}", spec.name());
            }
            let state = original.encode_state();
            let arena = ShardedStore::from_parts(&prefix, &original.snapshot());
            let mut restored = registry.build(spec).expect("builds");
            restored
                .restore_state(&state, &mut arena.homes())
                .expect("a state restores over its own arena");
            prop_assert_eq!(restored.encode_state(), state);
            prop_assert_eq!(observed(&*restored), observed(&*original));
            for &b in &batches[cut..] {
                prop_assert_eq!(original.ingest_batch(b), Ok(()), "{}", spec.name());
                prop_assert_eq!(restored.ingest_batch(b), Ok(()), "{}", spec.name());
                prop_assert_eq!(observed(&*restored), observed(&*original), "{}", spec.name());
            }
        }
    }

    /// A checkpoint encoded from the graph mirror is the checkpoint of the
    /// store frozen from it. A LOOM session's mirror (`LabelledGraph::apply`,
    /// as the durable session applies each batch) and partitioner snapshot
    /// are taken at every batch boundary of a stream with removals, relabels
    /// and re-announced vertices — the empty session first, and with the
    /// window holding vertices, so the tail is not empty — and at each one
    /// `CheckpointImage::from_graph` must hold, for every shard and the
    /// tail, exactly the bytes `encode_shard` / `encode_tail` write for
    /// `ShardedStore::from_parts` of the same two, and the same epoch,
    /// vertex and edge totals as `CheckpointImage::from_store`.
    #[test]
    fn mirror_images_equal_the_blobs_of_the_store_frozen_from_the_mirror(
        seed in 0u64..1000,
        churn in 0u8..2,
        k in 2u32..5,
        batch in 5usize..48,
    ) {
        let elements = restore_stream(seed, churn == 1, true);
        let n = elements.iter().filter(|e| e.is_vertex()).count();
        let tpstry = MotifMiner::default()
            .mine(&DeletionChurnScenario::workload())
            .expect("mines");
        let spec = PartitionerSpec::Loom(LoomConfig::new(k, n).with_window_size(8));
        let mut partitioner = loom_core::workload_registry(&tpstry)
            .build(&spec)
            .expect("builds");
        let mut mirror = LabelledGraph::new();
        let mut tails = 0;
        for (epoch, next) in (1..).zip(elements.chunks(batch).map(Some).chain([None])) {
            let snapshot = partitioner.snapshot();
            let image = CheckpointImage::from_graph(&mirror, &snapshot, epoch);
            let store = ShardedStore::from_parts(&mirror, &snapshot).with_epoch(epoch);
            let frozen = CheckpointImage::from_store(&store);
            prop_assert_eq!(image.shard_count(), k);
            prop_assert_eq!(
                (image.epoch_seq(), image.vertices(), image.edges()),
                (frozen.epoch_seq(), frozen.vertices(), frozen.edges())
            );
            prop_assert_eq!(
                (image.vertices(), image.edges()),
                (mirror.vertex_count() as u64, mirror.edge_count() as u64)
            );
            for p in (0..k).map(PartitionId::new) {
                let expected = encode_shard(&store, p).expect("in range");
                prop_assert_eq!(image.shard(p), Some(expected.as_slice()), "shard {}", p);
            }
            prop_assert!(image.shard(PartitionId::new(k)).is_none());
            prop_assert_eq!(image.tail(), encode_tail(&store).as_slice());
            tails += usize::from(!store.unassigned_slice().is_empty());
            let Some(b) = next else { break };
            prop_assert_eq!(partitioner.ingest_batch(b), Ok(()));
            for element in b {
                mirror.apply(element);
            }
        }
        prop_assert!(tails > 0, "the window never left a vertex unplaced");
    }
}

type AdjacencyMap = std::collections::HashMap<VertexId, Vec<VertexId>>;

/// The hash-map window `StreamWindow` was before it moved onto a slab, kept
/// here as the reference for [`window_matches_reference_model`]: one map per
/// concern, a fresh `Vec` per list, nothing recycled. What the assigner and
/// the matcher read from the window is defined by this model, list order
/// included.
#[derive(Default)]
struct ModelWindow {
    order: Vec<VertexId>,
    labels: std::collections::HashMap<VertexId, Label>,
    window_adj: AdjacencyMap,
    external_adj: AdjacencyMap,
    /// outside vertex → members listing it, one entry per edge occurrence.
    external_rev: AdjacencyMap,
}

/// `(id, label, window_neighbours, external_neighbours)` of a leaving vertex.
type EvictedView = (VertexId, Label, Vec<VertexId>, Vec<VertexId>);

fn swap_remove_first(list: &mut Vec<VertexId>, v: VertexId) -> bool {
    let found = list.iter().position(|&u| u == v);
    if let Some(pos) = found {
        list.swap_remove(pos);
    }
    found.is_some()
}

impl ModelWindow {
    fn neighbours(map: &AdjacencyMap, v: VertexId) -> &[VertexId] {
        map.get(&v).map_or(&[], Vec::as_slice)
    }

    fn push_vertex(&mut self, id: VertexId, label: Label) {
        if self.labels.insert(id, label).is_some() {
            return;
        }
        self.order.push(id);
        for n in self.external_rev.remove(&id).unwrap_or_default() {
            swap_remove_first(self.external_adj.entry(n).or_default(), id);
            self.window_adj.entry(n).or_default().push(id);
            self.window_adj.entry(id).or_default().push(n);
        }
    }

    fn push_edge(&mut self, a: VertexId, b: VertexId) -> EdgePlacement {
        let (inside, outside) = match (self.labels.contains_key(&a), self.labels.contains_key(&b)) {
            (true, true) => {
                self.window_adj.entry(a).or_default().push(b);
                self.window_adj.entry(b).or_default().push(a);
                return EdgePlacement::BothInWindow;
            }
            (true, false) => (a, b),
            (false, true) => (b, a),
            (false, false) => return EdgePlacement::NeitherInWindow,
        };
        self.external_adj.entry(inside).or_default().push(outside);
        self.external_rev.entry(outside).or_default().push(inside);
        EdgePlacement::OneInWindow { inside, outside }
    }

    fn forget_reverse(&mut self, outside: VertexId, member: VertexId) {
        if let Some(rev) = self.external_rev.get_mut(&outside) {
            swap_remove_first(rev, member);
            if rev.is_empty() {
                self.external_rev.remove(&outside);
            }
        }
    }

    /// Eviction when `hand_over`, deletion of a buffered vertex otherwise.
    fn take(&mut self, id: VertexId, hand_over: bool) -> Option<EvictedView> {
        let label = self.labels.remove(&id)?;
        self.order.retain(|&v| v != id);
        let window = self.window_adj.remove(&id).unwrap_or_default();
        let external = self.external_adj.remove(&id).unwrap_or_default();
        for &u in &external {
            self.forget_reverse(u, id);
        }
        for &n in &window {
            self.window_adj.entry(n).or_default().retain(|&u| u != id);
            if hand_over {
                self.external_adj.entry(n).or_default().push(id);
                self.external_rev.entry(id).or_default().push(n);
            }
        }
        Some((id, label, window, external))
    }

    fn delete(&mut self, id: VertexId) -> bool {
        if self.take(id, false).is_some() {
            return true;
        }
        let Some(members) = self.external_rev.remove(&id) else {
            return false;
        };
        for n in members {
            swap_remove_first(self.external_adj.entry(n).or_default(), id);
        }
        true
    }

    fn remove_edge(&mut self, a: VertexId, b: VertexId) -> bool {
        let (inside, outside) = match (self.labels.contains_key(&a), self.labels.contains_key(&b)) {
            (true, true) => {
                let removed = swap_remove_first(self.window_adj.entry(a).or_default(), b);
                swap_remove_first(self.window_adj.entry(b).or_default(), a);
                return removed;
            }
            (true, false) => (a, b),
            (false, true) => (b, a),
            (false, false) => return false,
        };
        let removed = swap_remove_first(self.external_adj.entry(inside).or_default(), outside);
        if removed {
            self.forget_reverse(outside, inside);
        }
        removed
    }
}

/// Seeded random interleavings of every `StreamWindow` operation — pushes
/// (fresh ids, buffered ids, ids re-entering after eviction), edges with
/// both, one or no endpoint buffered (repeats included, self-loops not: the
/// graph rejects them), oldest-first and arbitrary removal, deletion of
/// buffered, evicted and unknown ids, edge removal, relabels — at capacities
/// 1..=8, against [`ModelWindow`]. After every step the two agree on the
/// arrival order, on each label, on each vertex's window and external lists
/// *as ordered lists*, and on every evicted view.
#[test]
fn window_matches_reference_model() {
    use rand::Rng;

    const IDS: u64 = 14;
    for capacity in 1..=8usize {
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed * 8 + capacity as u64);
            let mut window = StreamWindow::new(capacity);
            let mut model = ModelWindow::default();
            let id = |rng: &mut StdRng| VertexId::new(rng.random_range(0..IDS));
            let evict = |window: &mut StreamWindow, model: &mut ModelWindow, v: VertexId| {
                let view = window.remove(v).map(|e| {
                    let lists = (e.window_neighbours.to_vec(), e.external_neighbours.to_vec());
                    (e.id, e.label, lists.0, lists.1)
                });
                assert_eq!(view, model.take(v, true), "evicted view of {v}");
            };
            for step in 0..600 {
                let at = format!("capacity {capacity} seed {seed} step {step}");
                match rng.random_range(0..12u32) {
                    0..=2 => {
                        // Mostly the caller's protocol (evict while full),
                        // sometimes a push past the capacity.
                        while window.is_full() && rng.random_bool(0.9) {
                            let oldest = window.oldest().expect("a full window has an oldest");
                            evict(&mut window, &mut model, oldest);
                        }
                        let (v, label) = (id(&mut rng), Label::new(rng.random_range(0..4u32)));
                        window.push_vertex(v, label);
                        model.push_vertex(v, label);
                    }
                    3..=6 => {
                        let (a, b) = (id(&mut rng), id(&mut rng));
                        if a != b {
                            assert_eq!(window.push_edge(a, b), model.push_edge(a, b), "{at}");
                        }
                    }
                    7 => evict(&mut window, &mut model, id(&mut rng)),
                    8 => {
                        let v = id(&mut rng);
                        assert_eq!(window.delete(v), model.delete(v), "{at}");
                    }
                    9 | 10 => {
                        let (a, b) = (id(&mut rng), id(&mut rng));
                        if a != b {
                            assert_eq!(window.remove_edge(a, b), model.remove_edge(a, b), "{at}");
                        }
                    }
                    _ => {
                        let (v, label) = (id(&mut rng), Label::new(rng.random_range(0..4u32)));
                        let buffered = model.labels.contains_key(&v);
                        assert_eq!(window.relabel(v, label), buffered, "{at}");
                        if buffered {
                            model.labels.insert(v, label);
                        }
                    }
                }
                assert_window_is_model(&window, &model, IDS, &at);
            }
        }
    }
}

/// `window` and `model` agree on the arrival order, on each of the ids
/// `0..ids`' label, and on its window and external lists as ordered lists.
fn assert_window_is_model(window: &StreamWindow, model: &ModelWindow, ids: u64, at: &str) {
    assert_eq!(window.vertices().collect::<Vec<_>>(), model.order, "{at}");
    assert_eq!(window.len(), model.order.len(), "{at}");
    assert_eq!(window.oldest(), model.order.first().copied(), "{at}");
    assert_eq!(
        window.is_full(),
        model.order.len() >= window.capacity(),
        "{at}"
    );
    for v in (0..ids).map(VertexId::new) {
        assert_eq!(window.label_of(v), model.labels.get(&v).copied(), "{at}");
        assert_eq!(window.contains(v), model.labels.contains_key(&v), "{at}");
        assert_eq!(
            window.window_neighbours(v),
            ModelWindow::neighbours(&model.window_adj, v),
            "window list of {v}, {at}"
        );
        assert_eq!(
            window.external_neighbours(v),
            ModelWindow::neighbours(&model.external_adj, v),
            "external list of {v}, {at}"
        );
    }
}

/// One outside vertex's re-entry entry through every shape it takes: one
/// member (held inline), several (a list), back to one by edge removal and
/// by a member's eviction, re-entry, a second eviction, and deletion. After
/// each step the window equals [`ModelWindow`], lists compared in order.
#[test]
fn a_reentry_entry_grows_shrinks_reenters_and_is_deleted_as_the_model_does() {
    #[derive(Clone, Copy)]
    enum Step {
        Push(u64),
        Edge(u64, u64),
        Unedge(u64, u64),
        Evict(u64),
        Delete(u64),
    }
    use Step::*;
    let script = [
        Push(1),
        Push(2),
        Push(3),
        Push(4),
        Edge(1, 9), // one member
        Edge(2, 9), // promoted to a list
        Edge(3, 9),
        Edge(3, 9), // a repeated edge: one entry per occurrence
        Unedge(1, 9),
        Unedge(3, 9),
        Unedge(3, 9), // back to one member, 2
        Edge(4, 9),
        Evict(2), // 2's eviction forgets it: one member again, 4
        Push(9),  // re-entry reclaims 4's edge
        Edge(9, 1),
        Evict(9), // 9 leaves again, listed by 4 and 1
        Edge(3, 9),
        Unedge(4, 9),
        Delete(9),
        Push(9), // deleted: nothing to reclaim
        Edge(9, 3),
    ];
    let mut window = StreamWindow::new(8);
    let mut model = ModelWindow::default();
    for (i, &step) in script.iter().enumerate() {
        let v = VertexId::new;
        match step {
            Push(x) => {
                window.push_vertex(v(x), Label::new(x as u32 % 3));
                model.push_vertex(v(x), Label::new(x as u32 % 3));
            }
            Edge(a, b) => assert_eq!(window.push_edge(v(a), v(b)), model.push_edge(v(a), v(b))),
            Unedge(a, b) => assert_eq!(
                window.remove_edge(v(a), v(b)),
                model.remove_edge(v(a), v(b))
            ),
            Evict(x) => {
                let view = window.remove(v(x)).map(|e| {
                    let lists = (e.window_neighbours.to_vec(), e.external_neighbours.to_vec());
                    (e.id, e.label, lists.0, lists.1)
                });
                assert_eq!(view, model.take(v(x), true), "step {i}");
            }
            Delete(x) => assert_eq!(window.delete(v(x)), model.delete(v(x)), "step {i}"),
        }
        assert_window_is_model(&window, &model, 10, &format!("step {i}"));
    }
    assert_eq!(
        window.window_neighbours(VertexId::new(9)),
        &[VertexId::new(3)]
    );
}

/// The three-map graph `LabelledGraph` was before it moved onto a slab, kept
/// here as the reference for [`labelled_graph_matches_reference_model`]: a
/// label map, a heap `Vec` of neighbours per vertex, a set of edge keys,
/// nothing recycled. What `apply` does to a graph — and the order
/// `neighbors` reads back in — is defined by this model.
#[derive(Default)]
struct ModelGraph {
    labels: std::collections::HashMap<VertexId, Label>,
    adjacency: AdjacencyMap,
    edges: std::collections::BTreeSet<(VertexId, VertexId)>,
}

impl ModelGraph {
    fn key(a: VertexId, b: VertexId) -> (VertexId, VertexId) {
        (a.min(b), a.max(b))
    }

    fn unlist(&mut self, of: VertexId, gone: VertexId) {
        if let Some(list) = self.adjacency.get_mut(&of) {
            list.retain(|&u| u != gone);
        }
    }

    fn apply(&mut self, element: &StreamElement) {
        match *element {
            StreamElement::AddVertex { id, label } => {
                self.adjacency.entry(id).or_default();
                self.labels.insert(id, label);
            }
            StreamElement::AddEdge { source, target } => {
                let known = |v| self.labels.contains_key(v);
                if source == target || !known(&source) || !known(&target) {
                    return;
                }
                if self.edges.insert(Self::key(source, target)) {
                    self.adjacency.entry(source).or_default().push(target);
                    self.adjacency.entry(target).or_default().push(source);
                }
            }
            StreamElement::RemoveVertex { id } => {
                if self.labels.remove(&id).is_none() {
                    return;
                }
                for n in self.adjacency.remove(&id).unwrap_or_default() {
                    self.edges.remove(&Self::key(id, n));
                    self.unlist(n, id);
                }
            }
            StreamElement::RemoveEdge { source, target } => {
                if self.edges.remove(&Self::key(source, target)) {
                    self.unlist(source, target);
                    self.unlist(target, source);
                }
            }
            StreamElement::Relabel { id, label } => {
                if let Some(held) = self.labels.get_mut(&id) {
                    *held = label;
                }
            }
        }
    }
}

/// Seeded random interleavings of all five `StreamElement` arms through
/// `LabelledGraph::apply` — vertices re-added under a new label, duplicate
/// edges, self-loops, edges to missing endpoints, removals and relabels of
/// absent things, and re-inserts after `RemoveVertex`, so slots and list
/// blocks are handed out again — against [`ModelGraph`]. One of the ids is
/// `u64::MAX`. After every step the two agree on the counts, the sorted
/// vertex and edge lists, every label and degree, `contains_edge` both ways
/// for every pair, each vertex's neighbours *as an ordered list*, and the
/// snapshot builder's `adjacency_sorted` view.
#[test]
fn labelled_graph_matches_reference_model() {
    use rand::Rng;

    let ids: Vec<VertexId> = (0..11).chain([u64::MAX]).map(VertexId::new).collect();
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut graph = LabelledGraph::new();
        let mut model = ModelGraph::default();
        // Later seeds remove more, so the graph keeps emptying and refilling.
        let removals = 1 + (seed % 3) as u32;
        for step in 0..700 {
            let at = format!("seed {seed} step {step}");
            let id = |rng: &mut StdRng| ids[rng.random_range(0..ids.len())];
            let label = |rng: &mut StdRng| Label::new(rng.random_range(0..4u32));
            let element = match rng.random_range(0..10 + removals) {
                0..=2 => StreamElement::AddVertex {
                    id: id(&mut rng),
                    label: label(&mut rng),
                },
                3..=6 => StreamElement::AddEdge {
                    source: id(&mut rng),
                    target: id(&mut rng),
                },
                7 | 8 => StreamElement::RemoveEdge {
                    source: id(&mut rng),
                    target: id(&mut rng),
                },
                9 => StreamElement::Relabel {
                    id: id(&mut rng),
                    label: label(&mut rng),
                },
                _ => StreamElement::RemoveVertex { id: id(&mut rng) },
            };
            graph.apply(&element);
            model.apply(&element);

            let mut vertices: Vec<VertexId> = model.labels.keys().copied().collect();
            vertices.sort_unstable();
            assert_eq!(graph.vertex_count(), vertices.len(), "{at}");
            assert_eq!(graph.vertices_sorted(), vertices, "{at}");
            assert_eq!(graph.edge_count(), model.edges.len(), "{at}");
            let edges: Vec<_> = graph.edges_sorted().iter().map(|e| (e.lo, e.hi)).collect();
            assert_eq!(
                edges,
                model.edges.iter().copied().collect::<Vec<_>>(),
                "{at}"
            );
            for &v in &ids {
                let neighbours = ModelWindow::neighbours(&model.adjacency, v);
                assert_eq!(graph.label(v), model.labels.get(&v).copied(), "{at}");
                assert_eq!(
                    graph.contains_vertex(v),
                    model.labels.contains_key(&v),
                    "{at}"
                );
                assert_eq!(graph.degree(v), neighbours.len(), "degree of {v}, {at}");
                assert_eq!(graph.neighbors(v), neighbours, "list of {v}, {at}");
                for &u in &ids {
                    let linked = model.edges.contains(&ModelGraph::key(v, u));
                    assert_eq!(graph.contains_edge(v, u), linked, "({v}, {u}), {at}");
                    assert_eq!(graph.contains_edge(u, v), linked, "({u}, {v}), {at}");
                }
            }
            let rows = graph.adjacency_sorted();
            assert_eq!(rows.len(), vertices.len(), "{at}");
            for (&(v, label, neighbours), &expected) in rows.iter().zip(&vertices) {
                assert_eq!(v, expected, "{at}");
                assert_eq!(Some(label), graph.label(v), "{at}");
                assert_eq!(neighbours, graph.neighbors(v), "{at}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `VertexIndex` against a `BTreeMap`: random interleavings of
    /// `insert`, `try_insert` and `remove` over three id families — dense
    /// ids below 8192 (enough live ones to grow the direct bound past 4096
    /// and pull hashed ids in), ids shifted left by 24 and ids just below
    /// `u64::MAX`. After every step the two agree on what the step returned,
    /// on `len` and on the id's value, and the array never holds more than
    /// `max(4096, 2 × (high-water entries + 1))` cells, a power of two; every
    /// 256 steps and at the end they agree on the whole entry set, and
    /// `VertexIndex::ordered` walks it in the `BTreeMap`'s order. A second
    /// index, told to expect `expected` entries, takes the same steps and
    /// agrees alike, its array within `max(4096, 2 × (max(expected,
    /// high-water) + 1))` cells.
    #[test]
    fn vertex_index_matches_reference_model(
        ops in proptest::collection::vec((0u8..8, 0u8..8, 0u64..8192, 0u32..1000), 2_000..12_000),
        expected in 0usize..12_000,
    ) {
        let mut indexes = [VertexIndex::new(), VertexIndex::with_expected(expected)];
        let mut model: std::collections::BTreeMap<VertexId, u32> = Default::default();
        let mut high_water = 0;
        let entries = |index: &VertexIndex| {
            let mut entries: Vec<(VertexId, u32)> = index.iter().collect();
            entries.sort_unstable();
            entries
        };
        for (step, &(op, family, raw, value)) in ops.iter().enumerate() {
            let v = VertexId::new(match family {
                0..=5 => raw,
                6 => raw << 24,
                _ => u64::MAX - raw % 64,
            });
            let held = model.get(&v).copied();
            match op {
                0..=4 => {
                    model.insert(v, value);
                    for index in &mut indexes {
                        prop_assert_eq!(index.insert(v, value), held);
                    }
                }
                5 => {
                    if held.is_none() {
                        model.insert(v, value);
                    }
                    for index in &mut indexes {
                        prop_assert_eq!(index.try_insert(v, value), held.map_or(Ok(()), Err));
                    }
                }
                _ => {
                    model.remove(&v);
                    for index in &mut indexes {
                        prop_assert_eq!(index.remove(v), held);
                    }
                }
            }
            high_water = high_water.max(model.len());
            let everything: Vec<(VertexId, u32)> = model.iter().map(|(&v, &x)| (v, x)).collect();
            for (index, expecting) in indexes.iter().zip([0, expected]) {
                prop_assert_eq!(index.len(), model.len(), "step {}", step);
                prop_assert_eq!(index.get(v), model.get(&v).copied(), "step {}", step);
                prop_assert_eq!(index.contains(v), model.contains_key(&v));
                let cells = index.direct_cells();
                prop_assert!(cells == 0 || cells.is_power_of_two(), "{} cells", cells);
                prop_assert!(
                    cells <= 4096.max(2 * (high_water.max(expecting) + 1)),
                    "{} cells at a high water of {} expecting {}", cells, high_water, expecting
                );
                if step % 256 == 255 || step + 1 == ops.len() {
                    prop_assert_eq!(entries(index), everything.clone(), "step {}", step);
                    let ordered: Vec<_> = index.ordered().collect();
                    prop_assert_eq!(ordered, everything.clone(), "step {}", step);
                }
            }
        }
    }

    /// `LabelledGraph::adjacency_sorted` and `vertices_sorted` walk the
    /// graph's `id → slot` index in order instead of sorting: under a random
    /// stream of vertex inserts, edge inserts, edge removals and vertex
    /// removals over dense ids below 6000 (past the 4096 cells the index may
    /// always have, so some are hashed until its bound grows) mixed with
    /// `v << 24 | 0x5a5` ids (hashed for good), both equal a
    /// collect-then-sort of the slot walk every 512 steps and at the end.
    #[test]
    fn sorted_graph_accessors_equal_a_collect_then_sort(
        ops in proptest::collection::vec((0u8..10, 0u8..4, 0u64..6000, 0u64..6000), 2_000..10_000),
    ) {
        let id = |family: u8, raw: u64| {
            VertexId::new(match family {
                0..=2 => raw,
                _ => raw << 24 | 0x5a5,
            })
        };
        let check = |graph: &LabelledGraph, step: usize| {
            let mut expected: Vec<(VertexId, Label, &[VertexId])> = graph
                .labelled_vertices()
                .map(|(v, label)| (v, label, graph.neighbors(v)))
                .collect();
            expected.sort_unstable_by_key(|&(v, _, _)| v);
            let ids: Vec<VertexId> = expected.iter().map(|&(v, _, _)| v).collect();
            prop_assert_eq!(graph.adjacency_sorted(), expected, "step {}", step);
            prop_assert_eq!(graph.vertices_sorted(), ids, "step {}", step);
        };
        let mut graph = LabelledGraph::new();
        for (step, &(op, family, a, b)) in ops.iter().enumerate() {
            // Odd ops take `u` from the mirrored family: family 0 pairs with
            // the sparse ids, so some edges join a dense id to a sparse one.
            let (v, u) = (id(family, a), id(if op % 2 == 0 { family } else { 3 - family }, b));
            let element = match op {
                0..=3 => StreamElement::AddVertex { id: v, label: Label::new((b % 4) as u32) },
                4..=6 => StreamElement::AddEdge { source: v, target: u },
                7 => StreamElement::RemoveEdge { source: v, target: u },
                _ => StreamElement::RemoveVertex { id: v },
            };
            graph.apply(&element);
            if step % 512 == 511 {
                check(&graph, step);
            }
        }
        check(&graph, ops.len());
    }
}
