//! Adaptive serving under workload drift: the `loom-adapt` loop end to end.
//!
//! A graph carries two disjoint planted motif families. The partitioning is
//! mined for phase A (`abc`-path traffic); the live load then flips to phase
//! B (`def`-path traffic). Watch the remote-hop fraction degrade on the
//! static placement, the drift tracker notice, and one bounded incremental
//! migration — published as a fresh epoch, without blocking reads — claw the
//! locality back.
//!
//! ```sh
//! cargo run --release --example adaptive_serving
//! ```

use loom::prelude::*;
use loom::session::Session;

const K: u32 = 4;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = DriftScenario::small(17);
    let (graph, instances) = scenario.build_graph()?;
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Random { seed: 1 });
    let phase_a = scenario.phase_a();
    let phase_b = scenario.phase_b();
    println!(
        "graph: {} vertices, {} edges, {} planted motif instances",
        graph.vertex_count(),
        graph.edge_count(),
        instances.len()
    );

    // Mine phase A and build the placement the serving layer starts from.
    let spec = PartitionerSpec::Loom(
        LoomConfig::new(K, graph.vertex_count())
            .with_window_size(128)
            .with_motif_threshold(0.3),
    );
    let mut session = Session::builder(spec)
        .workload(phase_a.clone())
        .query_mode(QueryMode::Rooted { seed_count: 3 })
        .build()?;
    session.ingest_stream(&stream)?;
    let serving = session.serve(graph)?;
    let mut adaptive = serving.adaptive(K as usize, AdaptConfig::default())?;

    println!("\n-- phase A (mined-for traffic) --");
    for seed in 0..2u64 {
        let (report, outcome) = adaptive.serve(&phase_a, 300, seed)?;
        println!(
            "batch {seed}: remote hops {:.1}%, {:.0} qps wall-clock, drift {:.3}, epoch {} {}",
            report.remote_hop_fraction() * 100.0,
            report.wall_clock_qps(),
            adaptive.tracker().drift(),
            adaptive.current_epoch(),
            if outcome.is_some() { "(adapted)" } else { "" },
        );
    }

    println!("\n-- phase change: def-path traffic takes over --");
    for seed in 10..14u64 {
        let (report, outcome) = adaptive.serve(&phase_b, 300, seed)?;
        let note = match &outcome {
            Some(o) => format!(
                "(drift {:.3} -> adapted: {} moves, {} shards rebuilt, epoch {})",
                o.drift_before, o.moved, o.affected_shards, o.epoch
            ),
            None => String::new(),
        };
        println!(
            "batch {seed}: remote hops {:.1}%, {:.0} qps wall-clock, epoch {} {note}",
            report.remote_hop_fraction() * 100.0,
            report.wall_clock_qps(),
            adaptive.current_epoch(),
        );
    }

    println!(
        "\nadaptations: {}, vertices migrated: {}, final imbalance {:.3}",
        adaptive.adaptations(),
        adaptive.total_moved(),
        adaptive.partitioning().imbalance(),
    );
    Ok(())
}
