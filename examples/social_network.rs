//! Social-network scenario: a skewed friendship/interaction graph with a
//! generated query workload, partitioned by every partitioner in the
//! workspace and compared on both structural and workload-aware metrics.
//!
//! The graph is a Barabási–Albert preferential-attachment graph (heavy-tailed
//! degree distribution, like real social networks); the workload is produced
//! by [`WorkloadGenerator`] so that its queries share common label paths
//! ("find the friends-of-friends who liked the same page" style traversals)
//! with Zipf-skewed frequencies.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example social_network
//! ```

use loom::loom_partition::metrics::evaluate;
use loom::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ── 1. Data graph: 10k-vertex preferential attachment network ───────
    let graph = barabasi_albert(
        GeneratorConfig {
            vertices: 10_000,
            label_count: 4,
            seed: 2024,
        },
        3,
    )?;
    println!("social graph: {}", graph.summary());

    // ── 2. Workload: 30 queries sharing a handful of core traversals ────
    let workload = WorkloadGenerator {
        query_count: 30,
        label_count: 4,
        core_count: 3,
        core_length: 3,
        max_extension: 2,
        zipf_exponent: 1.0,
        seed: 7,
    }
    .generate()?;
    println!(
        "workload: {} queries, largest has {} vertices",
        workload.queries().len(),
        workload.max_query_size()
    );

    // ── 3. Run every partitioner over the same stochastic stream ────────
    //
    // Each streaming partitioner goes through a `Session`: built from its
    // declarative spec, fed the stream 1 024 elements at a time, then
    // served, with 150 rooted queries sampled from the workload.
    let (k, n) = (8, graph.vertex_count());
    let order = StreamOrder::Stochastic {
        seed: 99,
        jump_probability: 0.05,
    };
    let stream = GraphStream::from_graph(&graph, &order);
    let specs = [
        PartitionerSpec::Hash(HashConfig::new(
            k,
            (n as f64 / f64::from(k) * 1.1).ceil() as usize,
        )),
        PartitionerSpec::Ldg(LdgConfig::new(k, n)),
        PartitionerSpec::Fennel(FennelConfig::new(k, n, graph.edge_count())),
        PartitionerSpec::Loom(
            LoomConfig::new(k, n)
                .with_window_size(256)
                .with_motif_threshold(0.3),
        ),
    ];
    println!("\nSocial network, k = 8, stochastic stream");
    println!("partitioner  cut_ratio  imbalance  ipt_prob  local_only  remote/query");
    let mut rows = Vec::new();
    for spec in specs {
        let mut session = Session::builder(spec)
            .workload(workload.clone())
            .query_mode(QueryMode::Rooted { seed_count: 4 })
            .chunk_size(1_024)
            .build()?;
        session.ingest_stream(&stream)?;
        let serving = session.serve(graph.clone())?;
        let quality = evaluate(serving.store().graph(), serving.partitioning());
        let metrics = serving.execute(&workload, 150, 42);
        println!(
            "{:<11}  {:<9.4}  {:<9.3}  {:<8.4}  {:<10.3}  {:.1}",
            spec.name(),
            quality.cut_ratio,
            quality.imbalance,
            metrics.inter_partition_probability(),
            metrics.local_only_fraction(),
            remote_per_query(&metrics),
        );
        rows.push(metrics);
    }
    // The offline multilevel reference sees the whole graph at once.
    let offline = MultilevelPartitioner::new(MultilevelConfig {
        slack: 1.1,
        ..MultilevelConfig::new(k)
    })?
    .partition(&graph)?;
    let quality = evaluate(&graph, &offline);
    println!(
        "{:<11}  {:<9.4}  {:.3}",
        "offline", quality.cut_ratio, quality.imbalance
    );

    // ── 4. Highlight the workload-aware result ───────────────────────────
    let (ldg, loom) = (&rows[1], &rows[3]);
    println!(
        "\nLOOM answers {:.1}% of queries without leaving a partition (LDG: {:.1}%), \
         with {:.1} remote traversals per query vs {:.1}.",
        loom.local_only_fraction() * 100.0,
        ldg.local_only_fraction() * 100.0,
        remote_per_query(loom),
        remote_per_query(ldg),
    );
    Ok(())
}

fn remote_per_query(metrics: &ExecutionMetrics) -> f64 {
    metrics.remote_traversals as f64 / metrics.queries_executed.max(1) as f64
}
