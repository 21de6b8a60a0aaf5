//! Capacity: find the serving stack's saturation knee with `loom-load`.
//!
//! Drives a session's sharded serving engine **open-loop**: arrival times
//! are a pure function of `(process, rate, seed)` computed before the run,
//! injection never blocks on backpressure (a full shard queue rejects the
//! arrival on the spot), and late or rejected requests burn the step's
//! error budget instead of being retried — so the measured knee is a
//! property of the engine, not of a self-throttling driver.
//!
//! The walk-through:
//!
//! 1. **probe** — serve a closed-loop batch and read its wall-clock
//!    goodput: the rate this engine sustains on this host when the load
//!    waits for it. Queries enumerate every match, so a request costs real
//!    time and the engine, not the driver, is what saturates;
//! 2. **ramp** — seeded Poisson arrivals sweep from half that rate to three
//!    times it through [`ShardedServing::capacity`], measuring per-step
//!    offered vs achieved RPS, wall-clock sojourn quantiles, queue-wait
//!    p99, rejects, and in-flight depth;
//! 3. **knee** — [`detect_knee`] flags the first step whose goodput
//!    flattens below 90 % of the offered rate; the knee is the previous
//!    step's rate.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example capacity
//! ```

use loom::prelude::*;
use std::time::Duration;

fn l(x: u32) -> Label {
    Label::new(x)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = loom_graph::generators::barabasi_albert(
        loom_graph::generators::GeneratorConfig {
            vertices: 2_000,
            label_count: 4,
            seed: 7,
        },
        3,
    )?;
    let workload = Workload::new(vec![
        (
            PatternQuery::path(QueryId::new(0), &[l(0), l(1), l(2)])?,
            3.0,
        ),
        (PatternQuery::path(QueryId::new(1), &[l(0), l(1)])?, 1.0),
    ])?;

    let spec = PartitionerSpec::Loom(LoomConfig::new(4, graph.vertex_count()).with_window_size(64));
    // The telemetry bundle feeds the per-step queue-wait column.
    let mut session = Session::builder(spec)
        .workload(workload)
        .query_mode(QueryMode::FullEnumeration)
        .telemetry(Telemetry::new())
        .build()?;
    session.ingest_stream(&GraphStream::from_graph(&graph, &StreamOrder::Bfs))?;
    let serving = session.serve(graph)?;
    let sharded = serving.sharded(2);

    // ── 1. Probe the closed-loop rate ───────────────────────────────────
    let (probe, _) = sharded.serve_request(QueryRequest::workload(400).with_seed(42));
    let sustained = probe.wall_clock_qps();
    println!("closed-loop probe: {sustained:.0} qps on 2 shards");

    // ── 2. Ramp the offered rate open-loop, from below it to above it ───
    let ramp = RampSchedule::new(
        0.5 * sustained,
        0.5 * sustained,
        Duration::from_millis(150),
        3.0 * sustained,
    );
    let config = LoadConfig::new(ramp)
        .with_process(ArrivalProcess::Poisson)
        .with_seed(42)
        .with_request_timeout(Duration::from_millis(80));
    let run = sharded.capacity(&config)?;

    // ── 3. Read the knee off the step table ─────────────────────────────
    print!("{}", run.text_report());

    let budget = run.report.error_budget;
    println!(
        "\nerror budget: {} offered, {} rejected, {} deadline-expired ({:.1}% dropped)",
        budget.requests,
        budget.rejected,
        budget.deadline_expired,
        budget.dropped_fraction() * 100.0,
    );
    if run.knee.found() {
        println!(
            "saturation knee: {:.0} rps ({})",
            run.knee.knee_rps,
            run.knee.reason.name()
        );
    } else {
        println!(
            "ramp never saturated — capacity is at least {:.0} rps",
            run.knee.knee_rps
        );
    }

    Ok(())
}
