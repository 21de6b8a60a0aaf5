//! Serving: the concurrent sharded engine, end to end.
//!
//! Partitions a Barabási–Albert "social network" stream with LOOM, freezes
//! the result into a [`ShardedStore`] (per-partition CSR slices with a
//! boundary halo), and serves a rooted query load three ways:
//!
//! 1. a **shard-count sweep** — the same load on 1/2/4/8 worker shards:
//!    wall-clock goodput on this host, and the remote-hop fraction, which
//!    the worker count does not move;
//! 2. a **partitioner comparison** — Hash vs LOOM under identical load:
//!    the partitioning's quality shows as fewer remote hops (in-process a
//!    remote hop is a read of the same memory, so do not expect it to buy
//!    wall-clock throughput here);
//! 3. **ingest-while-serve** — the partitioner keeps consuming the stream
//!    and publishing epoch snapshots while queries execute concurrently.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example serving
//! ```

use loom::prelude::*;
use loom_graph::generators::{barabasi_albert, GeneratorConfig};
use loom_partition::hash::HashConfig;

fn l(x: u32) -> Label {
    Label::new(x)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ── 1. Graph, workload, LOOM partitioning via the Session façade ────
    let graph = barabasi_albert(
        GeneratorConfig {
            vertices: 3_000,
            label_count: 4,
            seed: 7,
        },
        3,
    )?;
    let workload = Workload::new(vec![
        (
            PatternQuery::path(QueryId::new(0), &[l(0), l(1), l(2)])?,
            4.0,
        ),
        (
            PatternQuery::cycle(QueryId::new(1), &[l(0), l(1), l(0), l(1)])?,
            2.0,
        ),
        (PatternQuery::path(QueryId::new(2), &[l(0), l(1)])?, 1.0),
    ])?;
    println!("graph: {}", graph.summary());

    let k = 8;
    let spec = PartitionerSpec::Loom(
        LoomConfig::new(k, graph.vertex_count())
            .with_window_size(128)
            .with_motif_threshold(0.3),
    );
    let mut session = Session::builder(spec)
        .workload(workload.clone())
        .query_mode(QueryMode::Rooted { seed_count: 4 })
        .build()?;
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Bfs);
    session.ingest_stream(&stream)?;
    let serving = session.serve(graph.clone())?;

    // ── 2. Shard-count sweep on the LOOM partitioning ───────────────────
    println!("\nshard-count sweep (LOOM, 600 rooted queries):");
    for workers in [1usize, 2, 4, 8] {
        let sharded = serving.sharded(workers);
        // Full per-shard report through the unified request API; the
        // compiled plans are shared by the router and every worker.
        let (report, _) = sharded.serve_request(QueryRequest::workload(600).with_seed(42));
        println!(
            "  {workers} shard(s): {:>9.0} qps wall-clock, remote hops {:.1}%, max queue depth {}",
            report.wall_clock_qps(),
            report.remote_hop_fraction() * 100.0,
            report
                .shards
                .iter()
                .map(|s| s.max_queue_depth)
                .max()
                .unwrap_or(0),
        );
    }

    // ── 3. Hash vs LOOM at 4 shards, same load ──────────────────────────
    println!("\npartitioner comparison (4 shards, 600 rooted queries):");
    let hash_spec = PartitionerSpec::Hash(HashConfig::new(k, graph.vertex_count()));
    let mut hash_session = Session::builder(hash_spec)
        .workload(workload.clone())
        .query_mode(QueryMode::Rooted { seed_count: 4 })
        .build()?;
    hash_session.ingest_stream(&stream)?;
    let hash_serving = hash_session.serve(graph.clone())?;
    for (name, handle) in [("hash", &hash_serving), ("loom", &serving)] {
        let (report, _) = handle
            .sharded(4)
            .serve_request(QueryRequest::workload(600).with_seed(42));
        println!(
            "  {name:5}: {:>9.0} qps wall-clock, remote hops {:.1}%",
            report.wall_clock_qps(),
            report.remote_hop_fraction() * 100.0,
        );
    }

    // ── 4. Ingest-while-serve: epoch-swapped snapshots ──────────────────
    println!("\ningest-while-serve (epoch swaps under live queries):");
    let tpstry = MotifMiner::default().mine(&workload)?;
    let registry = loom_core::workload_registry(&tpstry);
    let mut partitioner = registry.build(&PartitionerSpec::Loom(
        LoomConfig::new(k, graph.vertex_count()).with_window_size(128),
    ))?;
    let elements = stream.elements();
    let prefix = elements.len() / 5;
    let mut grown = GraphStream::from_elements(elements[..prefix].to_vec()).materialise();
    partitioner.ingest_batch(&elements[..prefix])?;
    let epochs = EpochStore::new(ShardedStore::from_parts(&grown, &partitioner.snapshot()));

    let engine = ServeEngine::new(
        ServeConfig::new(4)
            .with_mode(QueryMode::Rooted { seed_count: 4 })
            .with_queue_capacity(32),
    );
    let report = std::thread::scope(|scope| -> Result<ServeReport, loom_graph::GraphError> {
        let epochs_ref = &epochs;
        let ingest = scope.spawn(move || -> Result<(), Box<dyn std::error::Error + Send>> {
            for chunk in elements[prefix..].chunks(500) {
                partitioner
                    .ingest_batch(chunk)
                    .map_err(|e| Box::new(e) as Box<dyn std::error::Error + Send>)?;
                for element in chunk {
                    match *element {
                        StreamElement::AddVertex { id, label } => {
                            grown.insert_vertex(id, label);
                        }
                        StreamElement::AddEdge { source, target } => {
                            grown
                                .add_edge_idempotent(source, target)
                                .map_err(|e| Box::new(e) as Box<dyn std::error::Error + Send>)?;
                        }
                        // `from_graph` streams are insert-only.
                        _ => unreachable!("graph streams carry no mutations"),
                    }
                }
                epochs_ref.publish(ShardedStore::from_parts(&grown, &partitioner.snapshot()));
            }
            Ok(())
        });
        let request = QueryRequest::workload(800).with_seed(23);
        let (report, _) = engine.run(&epochs, &workload, request, &RequestContext::unbounded());
        ingest.join().expect("ingest thread panicked").unwrap();
        Ok(report)
    })?;
    println!(
        "  {} queries across epochs {:?} ({} published), final graph |V|={}",
        report.aggregate.queries_executed,
        report.epochs_observed,
        epochs.current_epoch(),
        epochs.load().vertex_count(),
    );
    Ok(())
}
