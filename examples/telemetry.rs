//! Telemetry: observe a session end to end with `loom-obs`.
//!
//! Attaches a [`Telemetry`] bundle to a durable LOOM session and walks the
//! full observability surface:
//!
//! 1. **stage histograms** — ingest, serve, and store stages charge their
//!    wall clock into the shared registry via zero-alloc span guards;
//! 2. **interval diffs** — two snapshots around a serve burst, diffed with
//!    [`TelemetrySnapshot::since`] into per-second rates and interval
//!    quantiles (the shape a periodic scraper wants);
//! 3. **the flight recorder** — a serve burst under an already-expired
//!    deadline forces admission rejections, and the engine latches a
//!    [`FlightDump`] carrying the rejected request's full timeline;
//! 4. **exporters** — the Prometheus text exposition (self-checked with
//!    [`validate_prometheus`], exactly as the CI smoke step does) and the
//!    JSON-lines form.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example telemetry
//! ```

use loom::prelude::*;
use loom_obs::validate_prometheus;
use std::time::{Duration, Instant};

fn l(x: u32) -> Label {
    Label::new(x)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ── 1. An observed session: one builder call wires every layer ──────
    let graph = loom_graph::generators::barabasi_albert(
        loom_graph::generators::GeneratorConfig {
            vertices: 1_500,
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
        (PatternQuery::path(QueryId::new(1), &[l(0), l(1)])?, 1.0),
    ])?;

    let telemetry = Telemetry::new();
    let spec =
        PartitionerSpec::Loom(LoomConfig::new(4, graph.vertex_count()).with_window_size(128));
    let root = std::env::temp_dir().join(format!("loom-telemetry-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut session = Session::builder(spec)
        .workload(workload)
        .query_mode(QueryMode::Rooted { seed_count: 3 })
        .telemetry(telemetry.clone())
        .with_durability(&root)
        .build()?;
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Bfs);
    session.ingest_stream(&stream)?;
    let serving = session.serve(graph)?;
    let sharded = serving.sharded(4);

    // ── 2. Interval diff around a serve burst ───────────────────────────
    let before = telemetry.snapshot();
    let (report, _) = sharded.serve_request(QueryRequest::workload(400).with_seed(42));
    let delta = telemetry.snapshot().since(&before);
    println!(
        "serve burst: {} queries, {:.0} qps wall-clock, remote hops {:.1}%",
        report.aggregate.queries_executed,
        report.wall_clock_qps(),
        report.remote_hop_fraction() * 100.0,
    );
    println!("\ninterval diff (scrape-to-scrape shape):\n{delta}");

    // ── 3. Flight recorder: an expired deadline latches a dump ──────────
    let (_, response) = sharded.serve_request(
        QueryRequest::workload(50)
            .with_seed(7)
            .with_deadline(Instant::now() - Duration::from_secs(1)),
    );
    drop(response);
    match telemetry.flight().last_dump() {
        Some(dump) => {
            println!(
                "flight dump latched: \"{}\" at {} µs, {} events retained \
                 ({} recorded in total); last five:",
                dump.reason,
                dump.at_us,
                dump.events.len(),
                telemetry.flight().recorded(),
            );
            for event in dump.events.iter().rev().take(5).rev() {
                println!("  {event}");
            }
        }
        None => println!("no flight dump latched (every request beat the deadline)"),
    }

    // ── 4. Exporters: Prometheus text + JSON lines ──────────────────────
    let snapshot = telemetry.snapshot();
    let prometheus = snapshot.prometheus();
    let series =
        validate_prometheus(&prometheus).map_err(|e| format!("invalid exposition: {e}"))?;
    println!(
        "prometheus exposition: {} series, all parseable:",
        series.len()
    );
    for name in series.iter().filter(|n| n.contains("serve")).take(6) {
        println!("  {name}");
    }
    let preview: String = prometheus
        .lines()
        .filter(|l| l.contains("loom_serve_execute"))
        .take(5)
        .collect::<Vec<_>>()
        .join("\n");
    println!("\nserve.execute summary as scraped:\n{preview}");
    println!(
        "\njson-lines export: {} series objects",
        snapshot.json_lines().lines().count()
    );

    std::fs::remove_dir_all(&root).ok();
    Ok(())
}
