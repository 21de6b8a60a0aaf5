//! Quickstart: the paper's Figure 1 worked example, end to end.
//!
//! Builds the 8-vertex example graph `G` and the three-query workload `Q`
//! from Figure 1 of the paper, mines the TPSTry++ (Figure 2), partitions the
//! graph stream with both plain LDG and LOOM through the top-level
//! [`Session`] façade, and compares how the two partitionings behave when
//! the workload is executed.
//!
//! Run with:
//!
//! ```text
//! cargo run --example quickstart
//! ```

use loom::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ── 1. The data graph and workload of Figure 1 ──────────────────────
    let graph = paper_example_graph();
    let workload = paper_example_workload();
    let interner = LabelInterner::with_alphabet(4);
    println!("example graph: {}", graph.summary());
    println!("workload: {} queries", workload.queries().len());

    // ── 2. Mine the workload summary (TPSTry++, Figure 2) ───────────────
    let miner = MotifMiner::default();
    let tpstry = miner.mine(&workload)?;
    println!("\nTPSTry++ nodes ({} total):", tpstry.node_count());
    let mut nodes: Vec<_> = tpstry.nodes().collect();
    nodes.sort_by(|a, b| {
        a.vertex_count()
            .cmp(&b.vertex_count())
            .then(a.edge_count().cmp(&b.edge_count()))
    });
    for node in nodes {
        let labels: Vec<String> = node
            .graph()
            .vertices_sorted()
            .iter()
            .map(|&v| {
                let label = node.graph().label(v).expect("motif vertex labelled");
                interner.name(label).unwrap_or("?").to_owned()
            })
            .collect();
        println!(
            "  {:>3}: {} vertices [{}], {} edges, p-value {:.2}",
            node.id().to_string(),
            node.vertex_count(),
            labels.join(" "),
            node.edge_count(),
            tpstry.p_value(node.id()),
        );
    }

    // ── 3. Stream the graph through two Session-built partitioners ──────
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Bfs);
    let k = 2;

    let specs = [
        (
            "LDG",
            PartitionerSpec::Ldg(LdgConfig::new(k, graph.vertex_count())),
        ),
        (
            "LOOM",
            PartitionerSpec::Loom(
                LoomConfig::new(k, graph.vertex_count())
                    .with_window_size(4)
                    .with_motif_threshold(0.3),
            ),
        ),
    ];

    println!("\nworkload execution (600 sampled queries):");
    for (name, spec) in specs {
        let mut session = Session::builder(spec).workload(workload.clone()).build()?;
        session.ingest_stream(&stream)?;
        let serving = session.serve(graph.clone())?;

        let partitioning = serving.partitioning();
        println!("\n{name} partitioning:");
        for p in partitioning.partitions() {
            let members: Vec<String> = partitioning
                .members(p)
                .iter()
                .map(|v| v.to_string())
                .collect();
            println!("  {p}: {}", members.join(", "));
        }
        let quality = partitioning.quality(&graph);
        println!("  {quality}");

        // ── 4. Execute the workload against the partitioned store through
        //      the unified engine API (plans were compiled once at serve).
        let metrics = serving
            .run(QueryRequest::workload(600).with_seed(7))
            .metrics;
        println!(
            "  {name:5} inter-partition traversal probability = {:.3}, \
             local-only queries = {:.1}%, remote traversals per query = {:.1}",
            metrics.inter_partition_probability(),
            metrics.local_only_fraction() * 100.0,
            metrics.remote_traversals as f64 / metrics.queries_executed.max(1) as f64,
        );
    }
    Ok(())
}
