//! Allocation regression test for the read path's inner loop, the twin of
//! `tests/ingest_allocs.rs`.
//!
//! A request whose matches are counted, not collected, is routed, queued,
//! executed, reported and merged out of buffers its run already holds: the
//! router and the matcher keep their vote, root and mapping buffers between
//! queries, a refused admission leaves its staged run where it was, a
//! worker's queue waits go into a fixed-size histogram, both ends take an
//! inbox whole by trading buffers with the queue, and the staged runs and
//! the groups of completions live in buffers kept for the run. This test counts heap
//! allocations **on every thread** (shard workers allocate too) to keep it
//! that way: a `Vec` per routed query or a `Box` per refused send shows up
//! here as allocations per request long before it shows up in a benchmark.
//!
//! At the commit before this file the same two measurements on the
//! benchmark's `point` workload — a 12-query Zipf workload rooted at one
//! seed, B = 10 000 and 20 000 — read **6.06 allocations per request**
//! through `ShardedServing::run` on two workers (three `Vec`s in the router,
//! two in the matcher, and an amortised sixth between the growing wait log
//! and the boxed refusals; this file's smaller graph reads 6.02 there) and
//! **2.00** through the sequential `Serving::run` (the matcher's two). At
//! the commit that added it they read 0.010 and 0.003: what is left is per
//! run, not per request — the schedule, the transport hub and its two
//! threads, the report — 96 and 33 allocations under 10 000 requests. Since
//! hand-offs move in runs the sharded side reads 107–110: the staged runs,
//! each worker's run and group of completions, and the coordinator's inbox
//! each grow to an inbox's worth once per run. Since a `Done` covers a group
//! of completions it reads 99–103 (0.010 per request) and 33; the bound is
//! 0.015, so one allocation per group (about 0.016 per request at a run of
//! 64) fails it. The sequential `Serving::run` read its 33 over the hash-map
//! `PartitionedStore`; it now runs on the sharded engine's own frozen arena
//! (frozen once, by `serve()`, before either engine is counted) and reads 33
//! there too, against 98–101 sharded. Since a closed-loop run
//! serves shard 0 on the calling thread, one worker starts no thread and
//! builds no queue (52 allocations) and two workers start one thread (83).
//!
//! One `#[test]` on purpose: the counter is process-wide, so a second test
//! running beside this one (or the harness reporting on it) would be
//! counted too.

use loom::loom_graph::generators::MotifPlantConfig;
use loom::loom_motif::workload::WorkloadGenerator;
use loom::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every thread's allocations.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a relaxed counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_during<R>(work: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = work();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, result)
}

const REQUESTS: usize = 10_000;

fn l(x: u32) -> Label {
    Label::new(x)
}

/// The benchmark's `point` shape at a tenth of its size: a motif-planted
/// graph behind LOOM on 8 partitions, and a 12-query Zipf workload of short
/// paths rooted at one seed vertex (about ten traversals a query).
fn serving() -> Serving {
    let abc = path_graph(3, &[l(0), l(1), l(2)]);
    let (graph, _) = motif_planted_graph(
        &MotifPlantConfig {
            background_vertices: 4_000,
            background_edges: 10_000,
            instances_per_motif: 300,
            attachment_edges: 1,
            label_count: 4,
            seed: 23,
        },
        &[abc],
    )
    .expect("valid plant parameters");
    let workload = WorkloadGenerator {
        query_count: 12,
        label_count: 4,
        core_count: 3,
        core_length: 3,
        max_extension: 2,
        zipf_exponent: 1.0,
        seed: 23,
    }
    .generate()
    .expect("valid workload generator parameters");
    let config = LoomConfig::new(8, graph.vertex_count()).with_window_size(64);
    let mut session = Session::builder(PartitionerSpec::Loom(config))
        .workload(workload)
        .query_mode(QueryMode::Rooted { seed_count: 1 })
        .build()
        .expect("builds");
    session
        .ingest_stream(&GraphStream::from_graph(
            &graph,
            &StreamOrder::Random { seed: 23 },
        ))
        .expect("ingests");
    session.serve(graph).expect("serves")
}

#[test]
fn counted_requests_allocate_nothing_per_request() {
    let sequential = serving();
    let (one, two) = (sequential.sharded(1), sequential.sharded(2));
    let engines: [(&str, &dyn QueryEngine); 3] = [
        ("ShardedServing::run, 1 worker", &one),
        ("ShardedServing::run, 2 workers", &two),
        ("Serving::run", &sequential),
    ];
    let request = QueryRequest::workload(REQUESTS).with_seed(5);
    let mut answers = Vec::new();
    for (name, engine) in engines {
        // The warm-up request: plans resolve, lazies initialise.
        engine.run(request.with_seed(4));
        let (allocations, response) = allocations_during(|| engine.run(request));
        let per_request = allocations as f64 / REQUESTS as f64;
        println!("{name}: {allocations} allocations over {REQUESTS} requests = {per_request:.4} per request");
        assert_eq!(response.metrics.queries_executed, REQUESTS);
        assert!(response.metrics.total_traversals > 5 * REQUESTS);
        assert!(
            per_request <= 0.015,
            "{name}: {per_request:.4} allocations per request"
        );
        answers.push(response.metrics);
    }
    assert_eq!(answers[0], answers[1], "one and two workers disagree");
    assert_eq!(answers[1], answers[2], "sharded and sequential disagree");

    // Collecting may allocate; it must not lose the scratch. The cursors of
    // both engines hold the same embeddings in the same order, as many as
    // the counted runs found.
    let collecting = request.collect_matches(true);
    let a = two.run(collecting);
    let b = sequential.run(collecting);
    assert_eq!(a.metrics, answers[0]);
    assert_eq!(b.metrics, answers[0]);
    let (a, b): (Vec<_>, Vec<_>) = (a.into_cursor().collect(), b.into_cursor().collect());
    assert_eq!(a.len(), answers[0].matches_found);
    assert!(!a.is_empty());
    assert_eq!(a, b);
}
