//! Tests exercising the documented public API surface end to end:
//! the README usage snippet, the `Session` façade, the declarative
//! spec/registry layer (trait-object round-trips, batched vs per-element
//! parity) and graph statistics — everything a downstream user would touch
//! first.

use loom::prelude::*;
use loom_graph::stats::{clustering_coefficient, degree_histogram, degree_stats};
use loom_graph::VertexId;
use std::collections::HashSet;
use std::path::{Path, PathBuf};

#[test]
fn readme_usage_snippet_compiles_and_runs() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe the partitioner declaratively and hand the workload Q to a
    //    Session (which mines the TPSTry++ internally).
    let graph = paper_example_graph();
    let workload = paper_example_workload();
    let spec = PartitionerSpec::Loom(LoomConfig::new(2, graph.vertex_count()).with_window_size(64));
    let mut session = Session::builder(spec).workload(workload).build()?;

    // 2. Stream the graph in batches.
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Bfs);
    session.ingest_stream(&stream)?;

    // 3. Measure what the workload actually pays on that partitioning —
    //    plans are compiled once at serve() and every request reuses them.
    let serving = session.serve(graph)?;
    let metrics = serving
        .run(QueryRequest::workload(1_000).with_seed(42))
        .metrics;
    assert!(metrics.inter_partition_probability() <= 1.0);
    assert_eq!(metrics.queries_executed, 1_000);

    // 4. Stream concrete matches for one query through the cursor.
    let q = serving.workload().expect("workload set").queries()[0].id();
    let response = serving.run(QueryRequest::query(q).collect_matches(true));
    let found = response.metrics.matches_found;
    assert_eq!(response.into_cursor().count(), found);
    Ok(())
}

/// Every `PartitionerSpec` variant at `k` partitions for a graph of `n`
/// vertices and `m` edges.
fn all_specs(k: u32, n: usize, m: usize, window: usize) -> [(&'static str, PartitionerSpec); 4] {
    let loom = LoomConfig::new(k, n).with_window_size(window);
    [
        ("hash", PartitionerSpec::Hash(HashConfig::new(k, n))),
        ("ldg", PartitionerSpec::Ldg(LdgConfig::new(k, n))),
        (
            "fennel",
            PartitionerSpec::Fennel(FennelConfig::new(k, n, m)),
        ),
        ("loom", PartitionerSpec::Loom(loom)),
    ]
}

fn sorted_assignments(p: &Partitioning) -> Vec<(VertexId, PartitionId)> {
    let mut rows: Vec<(VertexId, PartitionId)> = p.assignments().collect();
    rows.sort_unstable();
    rows
}

/// Every `PartitionerSpec` variant builds a `Box<dyn Partitioner>` through
/// the workload registry; batched (several chunk sizes) and per-element
/// ingestion of the paper-example stream yield identical partitionings.
#[test]
fn every_spec_round_trips_as_a_trait_object() -> Result<(), Box<dyn std::error::Error>> {
    let graph = paper_example_graph();
    let workload = paper_example_workload();
    let tpstry = MotifMiner::default().mine(&workload)?;
    let registry = workload_registry(&tpstry);
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Bfs);
    let n = graph.vertex_count();

    let specs = all_specs(2, n, graph.edge_count(), 4);

    for (_, spec) in specs {
        // Per-element reference run.
        let mut reference: Box<dyn Partitioner> = registry.build(&spec)?;
        assert_eq!(reference.name(), spec.name());
        for element in &stream {
            reference.ingest(element)?;
        }
        let reference = reference.finish()?;
        assert_eq!(reference.assigned_count(), n, "{}", spec.name());

        // Batched runs at several chunk sizes must agree exactly.
        for chunk_size in [1usize, 3, 64, 1024] {
            let mut partitioner = registry.build(&spec)?;
            let batched = partition_stream_batched(partitioner.as_mut(), &stream, chunk_size)?;
            assert_eq!(
                sorted_assignments(&batched),
                sorted_assignments(&reference),
                "{} diverged at chunk size {chunk_size}",
                spec.name()
            );
        }
    }
    Ok(())
}

/// FNV-1a over a byte string.
fn bytes_digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over the id-sorted `(vertex, partition)` pairs of a partitioning.
fn placement_digest(p: &Partitioning) -> u64 {
    let bytes: Vec<u8> = sorted_assignments(p)
        .into_iter()
        .flat_map(|(v, part)| {
            v.raw()
                .to_le_bytes()
                .into_iter()
                .chain(part.0.to_le_bytes())
        })
        .collect();
    bytes_digest(&bytes)
}

/// Golden placements: every vertex of four seeded streams lands where it
/// landed when the digests were recorded (at the commit before the shared
/// placement kernel existed), for every spec of [`all_specs`]. The inputs
/// are an insert-only BFS stream of a Barabási–Albert graph at k = 2 and at
/// k = 8, the same graph in random order at k = 8 with the stream a quarter
/// longer than announced (so the no-room / over-cap fallbacks run), and the
/// deletion-churn scenario's build stream followed by its dissolve stream
/// (vertex removals, edge removals, relabels).
#[test]
fn every_spec_reproduces_its_golden_placement() -> Result<(), Box<dyn std::error::Error>> {
    use loom::loom_sim::churn::DeletionChurnScenario;

    const GOLDEN: [(&str, [u64; 4]); 4] = [
        (
            "hash",
            [
                0x1609_4ffb_5cdd_e61d,
                0xee51_15ec_2150_96e7,
                0xee51_15ec_2150_96e7,
                0x8a1e_de28_cdf1_7031,
            ],
        ),
        (
            "ldg",
            [
                0x5415_2783_804d_3f69,
                0x7a0b_7b7f_4a1a_592f,
                0x14ce_abe6_40c0_d569,
                0x1f67_2800_7676_81d9,
            ],
        ),
        (
            "fennel",
            [
                0x3278_8bd4_51c4_d8f5,
                0x4d0b_a0d5_8729_aafc,
                0x4842_a5ee_d967_d1c5,
                0xeed2_c320_61b4_6d78,
            ],
        ),
        (
            "loom",
            [
                0xdf50_63bf_74c0_0899,
                0x3403_9f5d_f172_2fae,
                0x4bb7_d4a8_3879_5b51,
                0xa1d9_3842_91b2_a9af,
            ],
        ),
    ];

    let tpstry = MotifMiner::default().mine(&DeletionChurnScenario::workload())?;
    let registry = workload_registry(&tpstry);

    let ba = barabasi_albert(GeneratorConfig::new(2_000, 4, 29), 3)?;
    let ba_stream = GraphStream::from_graph(&ba, &StreamOrder::Bfs);
    let ba_shuffled = GraphStream::from_graph(&ba, &StreamOrder::Random { seed: 31 });
    let churn = DeletionChurnScenario::small(5).build()?;
    let mut churn_elements = churn.build_stream.elements().to_vec();
    churn_elements.extend_from_slice(&churn.dissolve);
    let churn_stream = GraphStream::from_elements(churn_elements);

    // (k, announced vertices, edges, stream, vertices left at the end)
    let (n, m) = (ba.vertex_count(), ba.edge_count());
    let inputs = [
        (2, n, m, &ba_stream, n),
        (8, n, m, &ba_stream, n),
        (8, n * 4 / 5, m, &ba_shuffled, n),
        (
            4,
            churn.graph.vertex_count(),
            churn.graph.edge_count(),
            &churn_stream,
            churn.final_graph.vertex_count(),
        ),
    ];

    let mut actual = GOLDEN.map(|(tag, _)| (tag, [0u64; 4]));
    for (slot, (k, announced, edges, stream, survivors)) in inputs.into_iter().enumerate() {
        for (row, (tag, spec)) in all_specs(k, announced, edges, 64).into_iter().enumerate() {
            assert_eq!(tag, actual[row].0, "GOLDEN rows follow all_specs");
            let mut partitioner = registry.build(&spec)?;
            let placed = partition_stream_batched(partitioner.as_mut(), stream, 256)?;
            assert_eq!(placed.assigned_count(), survivors, "{tag} input {slot}");
            actual[row].1[slot] = placement_digest(&placed);
        }
    }
    assert_eq!(
        actual, GOLDEN,
        "placements moved; actual digests: {actual:#x?}"
    );

    // The digests pin *where* every vertex went; this pins *how* — as part of
    // a motif cluster or alone — and what the matcher did on the way, for the
    // `loom` row on the insert-only k = 8 input and on the churn input. The
    // counts were recorded at the commit before the window moved onto a slab.
    let loom_stats = |k: u32, announced: usize, stream: &GraphStream| {
        let config = LoomConfig::new(k, announced).with_window_size(64);
        let mut loom = LoomPartitioner::new(config, &tpstry)?;
        partition_stream_batched(&mut loom, stream, 256)?;
        Ok::<_, Box<dyn std::error::Error>>(loom.loom_stats())
    };
    assert_eq!(
        loom_stats(8, n, &ba_stream)?,
        LoomStats {
            vertices_ingested: 2000,
            edges_ingested: 5994,
            window_edges: 411,
            signatures_computed: 1282,
            motif_matches_found: 91,
            clusters_assigned: 58,
            cluster_vertices_assigned: 157,
            largest_cluster: 28,
            clusters_split_for_balance: 0,
            single_vertices_assigned: 1843,
            verifications: 0,
            false_positive_matches: 0,
        }
    );
    assert_eq!(
        loom_stats(4, churn.graph.vertex_count(), &churn_stream)?,
        LoomStats {
            vertices_ingested: 780,
            edges_ingested: 1680,
            window_edges: 391,
            signatures_computed: 121,
            motif_matches_found: 55,
            clusters_assigned: 37,
            cluster_vertices_assigned: 83,
            largest_cluster: 4,
            clusters_split_for_balance: 0,
            single_vertices_assigned: 665,
            verifications: 0,
            false_positive_matches: 0,
        }
    );
    Ok(())
}

/// Golden placements where LOOM clusters. The golden test above streams a
/// Barabási–Albert graph, on which LOOM places few vertices as motif
/// clusters; this one streams the graph `tests/ingest_allocs.rs` drives
/// (600 `abc` paths planted in an 8-label background of 8 000 vertices)
/// under the `abc` workload, in `Stochastic { 0.05 }` and `Dfs` order at
/// k = 8, window 64, where about a quarter of the vertices are placed as
/// clusters. Pinned per spec and order: the placement digest and the
/// digest of the state blob written halfway through the stream; for LOOM
/// also its counters. Recorded before LDG scored only the partitions a
/// neighbour lives in and before the window kept one id map.
#[test]
fn every_spec_reproduces_its_golden_placement_where_loom_clusters(
) -> Result<(), Box<dyn std::error::Error>> {
    // (spec, [(placement, mid-stream state) on Stochastic, on Dfs])
    const GOLDEN: [(&str, [(u64, u64); 2]); 4] = [
        (
            "hash",
            [
                (0x7c09_53ff_e882_51c3, 0x5af4_ef6d_72b9_8416),
                (0x7c09_53ff_e882_51c3, 0x4f67_04d4_d0fb_7932),
            ],
        ),
        (
            "ldg",
            [
                (0xf976_321a_9a1f_ea50, 0x3858_ce3c_0ac2_0027),
                (0xc495_82bd_208f_a77d, 0x8937_34aa_b2ee_cec2),
            ],
        ),
        (
            "fennel",
            [
                (0x2b5e_1f46_7ffc_7500, 0x9c8a_e583_5f5b_3c0a),
                (0x86e2_16dd_7694_f6e9, 0x8e74_f38e_7be6_2f50),
            ],
        ),
        (
            "loom",
            [
                (0xe8ca_27de_f116_93af, 0x0b80_015f_60c3_cbd5),
                (0xc495_82bd_208f_a77d, 0xcabb_577b_0046_7d76),
            ],
        ),
    ];

    let abc = path_graph(3, &[Label::new(0), Label::new(1), Label::new(2)]);
    let (graph, _) = motif_planted_graph(
        &loom_graph::generators::MotifPlantConfig {
            background_vertices: 8_000,
            background_edges: 20_000,
            instances_per_motif: 600,
            attachment_edges: 1,
            label_count: 8,
            seed: 17,
        },
        &[abc],
    )?;
    let query = PatternQuery::path(
        QueryId::new(0),
        &[Label::new(0), Label::new(1), Label::new(2)],
    )?;
    let tpstry = MotifMiner::default().mine(&Workload::uniform(vec![query])?)?;
    let registry = workload_registry(&tpstry);
    let (n, m) = (graph.vertex_count(), graph.edge_count());
    let orders = [
        StreamOrder::Stochastic {
            seed: 17,
            jump_probability: 0.05,
        },
        StreamOrder::Dfs,
    ];

    let mut actual = GOLDEN.map(|(tag, _)| (tag, [(0u64, 0u64); 2]));
    let mut stats = Vec::new();
    for (slot, order) in orders.iter().enumerate() {
        let stream = GraphStream::from_graph(&graph, order);
        let (head, tail) = stream.elements().split_at(stream.len() / 2);
        for (row, (tag, spec)) in all_specs(8, n, m, 64).into_iter().enumerate() {
            assert_eq!(tag, actual[row].0, "GOLDEN rows follow all_specs");
            let mut partitioner = registry.build(&spec)?;
            for batch in head.chunks(256) {
                partitioner.ingest_batch(batch)?;
            }
            let state = bytes_digest(&partitioner.encode_state());
            for batch in tail.chunks(256) {
                partitioner.ingest_batch(batch)?;
            }
            let placed = partitioner.finish()?;
            assert_eq!(placed.assigned_count(), n, "{tag} on {}", order.name());
            actual[row].1[slot] = (placement_digest(&placed), state);
        }
        let mut loom = LoomPartitioner::new(LoomConfig::new(8, n).with_window_size(64), &tpstry)?;
        partition_stream_batched(&mut loom, &stream, 256)?;
        stats.push(loom.loom_stats());
    }
    assert_eq!(
        actual, GOLDEN,
        "placements or state moved; actual digests: {actual:#x?}"
    );
    assert_eq!(
        stats,
        [
            LoomStats {
                vertices_ingested: 9800,
                edges_ingested: 21800,
                window_edges: 8186,
                signatures_computed: 3308,
                motif_matches_found: 963,
                clusters_assigned: 893,
                cluster_vertices_assigned: 2337,
                largest_cluster: 6,
                clusters_split_for_balance: 0,
                single_vertices_assigned: 7463,
                verifications: 0,
                false_positive_matches: 0,
            },
            LoomStats {
                vertices_ingested: 9800,
                edges_ingested: 21800,
                window_edges: 8719,
                signatures_computed: 3935,
                motif_matches_found: 1017,
                clusters_assigned: 934,
                cluster_vertices_assigned: 2571,
                largest_cluster: 7,
                clusters_split_for_balance: 0,
                single_vertices_assigned: 7229,
                verifications: 0,
                false_positive_matches: 0,
            },
        ]
    );
    Ok(())
}

/// Snapshots are non-destructive and stats are reported uniformly across
/// every spec-built trait object.
#[test]
fn trait_objects_snapshot_and_report_stats() -> Result<(), Box<dyn std::error::Error>> {
    let graph = paper_example_graph();
    let workload = paper_example_workload();
    let tpstry = MotifMiner::default().mine(&workload)?;
    let registry = workload_registry(&tpstry);
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Bfs);
    let n = graph.vertex_count();

    let specs = all_specs(2, n, graph.edge_count(), 4);
    for (_, spec) in specs {
        let mut partitioner = registry.build(&spec)?;
        partitioner.ingest_batch(stream.elements())?;
        let stats = partitioner.stats();
        assert_eq!(stats.vertices_ingested, n, "{}", spec.name());
        assert_eq!(stats.edges_ingested, graph.edge_count(), "{}", spec.name());
        assert_eq!(stats.batches_ingested, 1, "{}", spec.name());
        assert_eq!(stats.assigned + stats.buffered, n, "{}", spec.name());
        // Snapshot now, finish later: snapshot must not disturb the run.
        let snapshot = partitioner.snapshot();
        assert_eq!(snapshot.assigned_count(), stats.assigned);
        let finished = partitioner.finish()?;
        assert_eq!(finished.assigned_count(), n, "{}", spec.name());
    }
    Ok(())
}

#[test]
fn graph_statistics_describe_generated_graphs() {
    let ba = barabasi_albert(GeneratorConfig::new(3_000, 4, 5), 3).unwrap();
    let stats = degree_stats(&ba);
    assert!(stats.max >= stats.p99 && stats.p99 >= stats.median);
    assert!(stats.mean > 5.0 && stats.mean < 7.0, "mean {}", stats.mean);
    let histogram = degree_histogram(&ba);
    assert_eq!(histogram.iter().sum::<usize>(), ba.vertex_count());
    let clustering = clustering_coefficient(&ba);
    assert!(
        clustering > 0.0 && clustering < 0.5,
        "clustering {clustering}"
    );
}

#[test]
fn rooted_and_full_query_modes_are_both_available() {
    let graph = paper_example_graph();
    let workload = paper_example_workload();
    let mut partitioning = Partitioning::new(2, 4).unwrap();
    for (i, v) in graph.vertices_sorted().into_iter().enumerate() {
        partitioning
            .assign(v, PartitionId::new((i % 2) as u32))
            .unwrap();
    }
    let store = PartitionedStore::new(graph, partitioning);
    let engine = ServeEngine::new(ServeConfig::new(1).with_mode(QueryMode::FullEnumeration));
    let request = QueryRequest::workload(50).with_seed(1);
    let ctx = RequestContext::unbounded();
    let run = |request| {
        engine
            .run_sequential(&store, &workload, request, &ctx)
            .metrics
    };
    let full = run(request);
    let rooted = run(request.with_mode(QueryMode::Rooted { seed_count: 1 }));
    assert!(rooted.total_traversals <= full.total_traversals);
    assert_eq!(full.queries_executed, rooted.queries_executed);
}

/// The transport layer's wire-shape contract: every message that crosses
/// `ShardTransport` is plain owned data — sendable, clonable, comparable and
/// printable, with no borrowed or shared-memory handle — and the trait
/// itself is object-safe. Serialising the messages is the socket
/// transport's job when it lands.
#[test]
fn shard_transport_messages_are_wire_shaped_and_object_safe() {
    fn assert_wire<T: Send + 'static + Clone + PartialEq + std::fmt::Debug>() {}
    assert_wire::<ShardMsg>();
    assert_wire::<loom_serve::QueryTaskMsg>();
    assert_wire::<loom_serve::QueryDoneMsg>();
    assert_wire::<loom_serve::ShardReportMsg>();

    // Object safety: the trait is usable behind a dyn pointer, and a pair of
    // in-process endpoints round-trips a message through it.
    let (a, b) = InProcTransport::pair(4);
    let transport: &dyn ShardTransport = &a;
    transport
        .send(ShardMsg::EpochPublished { epoch: 3 }, None)
        .unwrap();
    let received = b.recv(None).unwrap();
    assert_eq!(received, ShardMsg::EpochPublished { epoch: 3 });
    transport.shutdown();
}

/// Public names that nothing outside their crate names, kept `pub` because a
/// public signature that outside code uses exposes them. `(crate, name)`, the
/// crate by its directory under `crates/`; each entry names the signature.
const PUBLIC_THROUGH_A_SIGNATURE: &[(&str, &str)] = &[
    ("adapt", "AdaptOutcome"),    // AdaptiveServing::serve
    ("adapt", "CompactOutcome"),  // AdaptiveServing::compact_now
    ("adapt", "MutationOutcome"), // AdaptiveServing::apply_mutations
    ("adapt", "WorkloadTracker"), // AdaptiveServing::tracker
    ("core", "MotifMatch"),       // StreamMotifMatcher::matches
    ("graph", "GraphSummary"),    // LabelledGraph::summary
    ("graph", "ReadFault"),       // io::Reader::{take, u8, u32, u64, varint, count, finish}
    ("graph", "VarintFault"),     // io::next_varint, io::Reader::varint_fault
    ("load", "Knee"),             // detect_knee, CapacityRun::knee
    ("motif", "CanonicalCode"),   // canonical_code
    ("motif", "MotifNode"),       // Tpstry::{node, nodes}
    ("obs", "FlightEvent"),       // FlightDump::{events, events_for_request}
    ("obs", "FlightRecorder"),    // Telemetry::flight
    ("obs", "Gauge"),             // MetricRegistry::gauge
    ("obs", "HistogramSnapshot"), // Histogram::snapshot, TelemetryDelta::histogram_merged
    ("obs", "MetricRegistry"),    // Telemetry::registry
    ("obs", "RegistrySnapshot"),  // TelemetrySnapshot::registry
    ("obs", "SeriesKey"),         // TelemetryDelta::{counters, gauges, histograms}
    // `type FennelPartitioner = PendingVertexPartitioner<FennelRule>` and its
    // LDG twin; `PlacementRule` bounds their `Partitioner` impl.
    ("partition", "FennelRule"),
    ("partition", "LdgRule"),
    ("partition", "PendingVertexPartitioner"),
    ("partition", "PlacementRule"),
    // A trait, not a signature: `loom::prelude::*` brings it into scope for
    // `Partitioning::quality` (examples/quickstart.rs).
    ("partition", "PartitionQuality"),
    ("partition", "MigrationPlan"),  // MigrationPlanner::plan
    ("partition", "VertexMove"),     // MigrationPlan::moves
    ("partition", "EvictedVertex"),  // StreamWindow::{evict_oldest, remove}
    ("serve", "CompactedStore"),     // ShardedStore::compact
    ("serve", "MigratedStore"),      // ShardedStore::apply_migration
    ("serve", "Shard"),              // ShardedStore::{shards, shard}
    ("serve", "MutatedStore"),       // ShardedStore::apply_mutations
    ("serve", "InProcEndpoint"),     // InProcTransport::pair
    ("serve", "RecvError"),          // ShardTransport::{recv, recv_all}
    ("serve", "TransportError"),     // ShardTransport::{send, send_all, try_send}
    ("serve", "TransportStats"),     // ShardTransport::stats
    ("sim", "PlanExecution"), // matcher::{execute_plan, execute_plan_ctx, execute_plan_with_roots}
    ("sim", "PlanId"),        // QueryPlan::id, ExecutionMetrics::plan
    ("sim", "MatchCursor"),   // QueryResponse::{into_cursor, into_parts}
    ("sim", "QueryTarget"),   // QueryRequest::target (struct-update syntax needs it)
    ("store", "CheckpointMeta"), // write_checkpoint, commit_checkpoint, latest_checkpoint
    ("store", "LoadedCheckpoint"), // load_checkpoint
    ("store", "RecoveredState"), // recover
    ("store", "Segment"),     // segments
    ("store", "UnprovenCheckpoint"), // Beside::checkpoint
    ("store", "WalReplay"),   // Wal::replay
];

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    files
}

/// The identifier tokens of `text`.
fn identifiers(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| c != '_' && !c.is_ascii_alphanumeric())
        .filter(|w| w.starts_with(|c: char| c == '_' || c.is_ascii_alphabetic()))
}

/// The names a file uses: the identifiers of its code, of the Rust code
/// blocks in its docs and of its intra-doc link targets. Comment prose and
/// string literals are dropped, so an English word or a test's message
/// keeps nothing public.
fn used_names(text: &str) -> Vec<String> {
    let mut code = String::with_capacity(text.len());
    let mut names = Vec::new();
    // Inside a doc code block: whether it is Rust, and its lines so far.
    let mut block: Option<(bool, String)> = None;
    let mut prev = ' ';
    let mut rest = text;
    while let Some(c) = rest.chars().next() {
        if rest.starts_with("//") {
            let end = rest.find('\n').unwrap_or(rest.len());
            let line = &rest[..end];
            if let Some(doc) = line.strip_prefix("///").or(line.strip_prefix("//!")) {
                if let Some(info) = doc.trim_start().strip_prefix("```") {
                    block = match block.take() {
                        Some((true, doctest)) => {
                            names.extend(used_names(&doctest));
                            None
                        }
                        Some((false, _)) => None,
                        None => Some((rust_block(info), String::new())),
                    };
                } else if let Some((_, doctest)) = block.as_mut() {
                    doctest.push_str(doc);
                    doctest.push('\n');
                } else {
                    link_targets(doc, &mut code);
                }
            }
            rest = &rest[end..];
        } else if let Some(len) = literal_len(rest, prev) {
            code.push(' ');
            rest = &rest[len..];
        } else {
            code.push(c);
            rest = &rest[c.len_utf8()..];
        }
        prev = c;
    }
    names.extend(identifiers(&code).map(str::to_string));
    names
}

/// Whether a doc code block with this info string is Rust (and compiles).
fn rust_block(info: &str) -> bool {
    info.trim().split(',').all(|attr| {
        matches!(
            attr.trim(),
            "" | "rust" | "no_run" | "ignore" | "should_panic" | "compile_fail"
        )
    })
}

/// The byte length of the string or character literal `text` starts with,
/// if it starts with one (`prev` tells a raw string from a name ending in
/// `r`, and a character from a lifetime).
fn literal_len(text: &str, prev: char) -> Option<usize> {
    let raw = text.strip_prefix("br").or(text.strip_prefix('r'));
    if let Some(after) = raw.filter(|_| prev != '_' && !prev.is_ascii_alphanumeric()) {
        let hashes = after.len() - after.trim_start_matches('#').len();
        if after[hashes..].starts_with('"') {
            let open = text.len() - after.len() + hashes + 1;
            let close = format!("\"{}", "#".repeat(hashes));
            return text[open..].find(&close).map(|at| open + at + close.len());
        }
    }
    if let Some(body) = text.strip_prefix('"') {
        let mut escaped = false;
        for (at, c) in body.char_indices() {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => return Some(at + 2),
                _ => {}
            }
        }
        return Some(text.len());
    }
    let body = text.strip_prefix('\'')?;
    if body.starts_with('\\') {
        return body[2..].find('\'').map(|at| at + 4);
    }
    let c = body.chars().next()?;
    body[c.len_utf8()..]
        .starts_with('\'')
        .then(|| c.len_utf8() + 2)
}

/// Push the targets of a doc line's intra-doc links onto `code`: the path
/// of `[`Name`]`, `[text](path)`, `[text][path]` and `[text]: path`.
fn link_targets(doc: &str, code: &mut String) {
    let mut rest = doc;
    while let Some(open) = rest.find('[') {
        rest = &rest[open + 1..];
        let Some(close) = rest.find(']') else {
            break;
        };
        let (label, tail) = (&rest[..close], &rest[close + 1..]);
        let target = match tail.chars().next() {
            Some('(') => tail[1..].find(')').map(|end| &tail[1..end + 1]),
            Some('[') => tail[1..].find(']').map(|end| &tail[1..end + 1]),
            Some(':') => Some(tail[1..].trim()),
            _ => Some(label),
        };
        if let Some(target) = target.map(|t| t.trim_matches('`')) {
            if !target.contains(char::is_whitespace) && !target.contains("://") {
                code.push_str(target);
                code.push(' ');
            }
        }
    }
}

/// The `pub` items (fn, struct, enum, const, trait, type, static) a file
/// declares outside its `#[cfg(test)] mod`s, with their line numbers.
fn public_items(text: &str) -> Vec<(usize, &str)> {
    const KINDS: [&str; 8] = [
        "fn ",
        "const fn ",
        "struct ",
        "enum ",
        "const ",
        "trait ",
        "type ",
        "static ",
    ];
    let mut items = Vec::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((n, line)) = lines.next() {
        let trimmed = line.trim_start();
        if trimmed == "#[cfg(test)]" {
            // rustfmt closes the module at the indentation it opened at.
            if let Some((_, module)) = lines.next_if(|(_, l)| l.trim_start().starts_with("mod ")) {
                let close = format!("{}}}", &module[..module.len() - module.trim_start().len()]);
                lines.by_ref().find(|(_, l)| *l == close);
            }
            continue;
        }
        let Some(rest) = trimmed.strip_prefix("pub ") else {
            continue;
        };
        let Some(rest) = KINDS.iter().find_map(|k| rest.strip_prefix(k)) else {
            continue;
        };
        let end = rest.find(|c: char| c != '_' && !c.is_ascii_alphanumeric());
        items.push((n + 1, &rest[..end.unwrap_or(rest.len())]));
    }
    items
}

/// ROADMAP 18(c): a public item is surface every refactor must keep
/// compiling and a reader must learn, so each one must be named by a file
/// outside its crate — another crate's `src`, the façade, a test, an example
/// or the benchmark — or be listed in [`PUBLIC_THROUGH_A_SIGNATURE`] with
/// the signature that forces it. A new `pub` item with no outside caller is
/// `pub(crate)`; one that a listed signature no longer needs leaves the list.
#[test]
fn every_public_item_is_named_outside_its_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // Each crate (by directory name) with the identifiers its files use, and
    // every pub item declared under `crates/`: (crate, name, where).
    let (mut crates, mut declared) = (Vec::new(), Vec::new());
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let dir = entry.expect("readable entry").path();
        let name = dir
            .file_name()
            .expect("a crate directory")
            .to_string_lossy()
            .into_owned();
        let mut used = HashSet::new();
        for file in rust_files(&dir.join("src")) {
            let text = std::fs::read_to_string(&file).expect("readable source");
            used.extend(used_names(&text));
            let shown = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .display()
                .to_string();
            for (line, item) in public_items(&text) {
                declared.push((name.clone(), item.to_string(), format!("{shown}:{line}")));
            }
        }
        crates.push((name, used));
    }
    let mut outside = HashSet::new();
    for dir in ["src", "tests", "examples", "benchmark/src"] {
        for file in rust_files(&root.join(dir)) {
            let text = std::fs::read_to_string(&file).expect("readable source");
            // The allow-list names what it lists only in strings: no use.
            outside.extend(used_names(&text));
        }
    }

    let allowed: HashSet<(&str, &str)> = PUBLIC_THROUGH_A_SIGNATURE.iter().copied().collect();
    let (mut unnamed, mut kept) = (Vec::new(), HashSet::new());
    for (owner, item, at) in &declared {
        let named = outside.contains(item)
            || crates
                .iter()
                .any(|(other, used)| other != owner && used.contains(item));
        if named {
            continue;
        }
        match allowed.get(&(owner.as_str(), item.as_str())) {
            Some(&entry) => {
                kept.insert(entry);
            }
            None => unnamed.push(format!("{at} {item}")),
        }
    }
    unnamed.sort();
    let stale: Vec<_> = allowed.difference(&kept).collect();
    assert!(
        unnamed.is_empty() && stale.is_empty(),
        "{} public item(s) are named nowhere outside their crate (make them pub(crate), or list \
         the public signature that exposes them in PUBLIC_THROUGH_A_SIGNATURE):\n{}\n\
         allow-list entries that are no public item named only inside its crate: {stale:?}",
        unnamed.len(),
        unnamed.join("\n"),
    );
}
