//! Fraud-detection scenario: keep fraud-ring motifs inside partitions.
//!
//! Pattern matching for fraud detection is one of the motivating applications
//! in the paper's introduction. The typical "fraud ring" is a small motif —
//! here a cycle `account → card → account → merchant` plus a short
//! account-card-merchant path — repeated many times inside a much larger
//! transaction graph. The anti-fraud workload keeps re-running those pattern
//! queries, so a partitioner that scatters ring members across machines pays
//! a network round-trip on almost every check.
//!
//! This example plants fraud rings into a background transaction graph,
//! partitions the stream with LDG and with LOOM through the [`Session`]
//! façade, and reports (a) how many planted rings stay wholly inside one
//! partition and (b) the traversal locality of the fraud workload.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example fraud_detection
//! ```

use loom::prelude::*;
use loom_graph::generators::motif_planted::MotifPlantConfig;

/// Labels used in the transaction graph.
const ACCOUNT: Label = Label::new(0);
const CARD: Label = Label::new(1);
const MERCHANT: Label = Label::new(2);
const DEVICE: Label = Label::new(3);

fn fraud_ring() -> LabelledGraph {
    // account - card - account - merchant cycle (4-cycle).
    cycle_graph(4, &[ACCOUNT, CARD, ACCOUNT, MERCHANT])
}

fn card_sharing_path() -> LabelledGraph {
    // account - card - merchant path.
    path_graph(3, &[ACCOUNT, CARD, MERCHANT])
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ── 1. Transaction graph with planted fraud rings ────────────────────
    let (graph, planted) = motif_planted_graph(
        &MotifPlantConfig {
            background_vertices: 6_000,
            background_edges: 15_000,
            instances_per_motif: 250,
            attachment_edges: 2,
            label_count: 4,
            seed: 11,
        },
        &[fraud_ring(), card_sharing_path()],
    )?;
    println!("transaction graph: {}", graph.summary());
    println!("planted fraud structures: {}", planted.len());

    // ── 2. The anti-fraud workload ───────────────────────────────────────
    let ring_query = PatternQuery::new(QueryId::new(0), fraud_ring())?;
    let path_query = PatternQuery::new(QueryId::new(1), card_sharing_path())?;
    let device_query = PatternQuery::branch(QueryId::new(2), DEVICE, &[ACCOUNT, ACCOUNT])?;
    // Ring checks dominate the workload; device-sharing checks are rare.
    let workload = Workload::new(vec![
        (ring_query, 5.0),
        (path_query, 3.0),
        (device_query, 1.0),
    ])?;

    // ── 3. Partition the stream with LDG and LOOM via Session ────────────
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Random { seed: 5 });
    let k = 8;

    let specs = [
        (
            "LDG",
            PartitionerSpec::Ldg(LdgConfig::new(k, graph.vertex_count())),
        ),
        (
            "LOOM",
            PartitionerSpec::Loom(
                LoomConfig::new(k, graph.vertex_count())
                    .with_window_size(512)
                    .with_motif_threshold(0.3),
            ),
        ),
    ];

    // ── 4.–5. Intact fraud structures + workload execution per spec ──────
    let intact = |partitioning: &Partitioning| {
        planted
            .iter()
            .filter(|inst| {
                let home = partitioning.partition_of(inst.vertices[0]);
                inst.vertices
                    .iter()
                    .all(|v| partitioning.partition_of(*v) == home)
            })
            .count()
    };

    println!("\nanti-fraud workload execution (100 sampled queries):");
    for (name, spec) in specs {
        let mut session = Session::builder(spec)
            .workload(workload.clone())
            .match_limit(2_000)
            .build()?;
        session.ingest_stream(&stream)?;
        println!(
            "  {name:5} ingestion: {} (chunked batches)",
            session.stats()
        );
        let serving = session.serve(graph.clone())?;
        let partitioning = serving.partitioning();
        let quality = partitioning.quality(&graph);
        let kept = intact(partitioning);
        let metrics = serving
            .run(QueryRequest::workload(100).with_seed(3))
            .metrics;
        println!(
            "  {name:5} fraud structures intact: {kept}/{} | cut={:.3} imbalance={:.3} | \
             ipt probability={:.3} local-only={:.1}% mean latency={:.0} µs",
            planted.len(),
            quality.cut_ratio,
            quality.imbalance,
            metrics.inter_partition_probability(),
            metrics.local_only_fraction() * 100.0,
            metrics.mean_latency_us(),
        );
    }
    Ok(())
}
