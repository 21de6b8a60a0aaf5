//! Allocation regression tests for the write path's inner loop.
//!
//! `StreamWindow` lives on a slab whose slots and list blocks are recycled,
//! and `LoomPartitioner` evicts a single vertex without building a list or a
//! set for it. These tests count heap allocations to keep it that way: a
//! `collect()` on the eviction path or a `Vec` per buffered vertex shows up
//! here as allocations per element long before it shows up in a benchmark.
//!
//! With the hash-map window and the collecting eviction path (the commit
//! before the slab) the same two measurements read **1.62 allocations per
//! element** (49 410 over 30 576 elements) for the LOOM partitioner and
//! **30 699 allocations** over the 31 600-element replay for the window
//! driven alone; at the commit that added this file they read 0.014 per
//! element (428) and 0.
//!
//! The random order barely wakes LOOM's matcher (35 motif matches in the
//! whole stream), so the LOOM test runs on a `Stochastic` order too, where
//! about a quarter of the vertices are placed as motif clusters. With a
//! heap factor list per signature, a `Vec` of matches scanned in full and a
//! clone of a match per tried extension (the commit before the match slab)
//! that order read **0.746 allocations per element** (22 805 over 30 576;
//! 963 matches in the stream) and the random one 0.0139 (426); with the
//! slab, inline factors and the re-entry index's inline lone member they
//! read 0.0025 (75) and 0.0006 (19). A `Dfs` order, where the matcher works
//! as hard (1 017 matches; 2 559 of the 9 800 vertices placed as clusters by
//! the end of the measured part), read 0.0037 (112) when its test was added,
//! before and after the window kept one id map.
//!
//! `LabelledGraph` — the durable mirror — is on the same slab and the same
//! pool (`loom_graph::pool`). With three hash maps and a heap `Vec` per
//! vertex (the commit before) applying the 31 600-element stream to a fresh
//! graph read **14 966 allocations, 0.47 per element**; on the slab it reads
//! 51 (0.0016 per element), and 0 when an emptied graph takes the stream
//! again.

use loom::loom_graph::generators::MotifPlantConfig;
use loom::loom_partition::window::StreamWindow;
use loom::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's allocations (the test harness runs other tests on
/// other threads).
struct Counting;

thread_local! {
    // `const` and without a destructor, so the allocator may touch it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a thread-local counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_during(work: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    work();
    ALLOCATIONS.with(Cell::get) - before
}

const WINDOW: usize = 64;
const BATCH: usize = 1024;

fn l(x: u32) -> Label {
    Label::new(x)
}

/// An insert-only stream in random order (the benchmark's order) and the
/// number of leading elements that carry the first `4 * WINDOW` vertices,
/// rounded up to whole batches: the warm-up.
fn stream_and_warm_up() -> (GraphStream, usize, usize) {
    stream_and_warm_up_in(&StreamOrder::Random { seed: 17 })
}

/// [`stream_and_warm_up`] in `order`.
fn stream_and_warm_up_in(order: &StreamOrder) -> (GraphStream, usize, usize) {
    let abc = path_graph(3, &[l(0), l(1), l(2)]);
    let (graph, _) = motif_planted_graph(
        &MotifPlantConfig {
            background_vertices: 8_000,
            background_edges: 20_000,
            instances_per_motif: 600,
            attachment_edges: 1,
            label_count: 8,
            seed: 17,
        },
        &[abc],
    )
    .expect("valid plant parameters");
    let stream = GraphStream::from_graph(&graph, order);
    let mut vertices = 0;
    let warm = stream
        .elements()
        .iter()
        .position(|e| {
            vertices += usize::from(e.is_vertex());
            vertices == 4 * WINDOW
        })
        .expect("the stream has more than 4 * WINDOW vertices");
    (
        stream,
        graph.vertex_count(),
        (warm + 1).next_multiple_of(BATCH),
    )
}

#[test]
fn loom_ingest_allocates_almost_nothing_per_element() {
    loom_ingest_allocations_per_element(&StreamOrder::Random { seed: 17 });
}

/// The same on an organic-growth order, where the matcher works: about a
/// quarter of the vertices are placed as motif clusters.
#[test]
fn loom_ingest_allocates_almost_nothing_per_element_where_the_matcher_works() {
    let (stats, vertices) = loom_ingest_allocations_per_element(&StreamOrder::Stochastic {
        seed: 17,
        jump_probability: 0.05,
    });
    assert!(
        stats.cluster_vertices_assigned * 5 > vertices,
        "{} of {vertices} vertices placed in motif clusters",
        stats.cluster_vertices_assigned
    );
}

/// The same on a depth-first order, where the matcher works too: about a
/// quarter of the vertices are placed as motif clusters.
#[test]
fn loom_ingest_allocates_almost_nothing_per_element_in_depth_first_order() {
    let (stats, vertices) = loom_ingest_allocations_per_element(&StreamOrder::Dfs);
    assert!(
        stats.cluster_vertices_assigned * 5 > vertices,
        "{} of {vertices} vertices placed in motif clusters",
        stats.cluster_vertices_assigned
    );
}

/// Drive `order`'s stream through LOOM and assert it allocates under 0.05
/// times per element past the warm-up; the counters and the vertex count.
fn loom_ingest_allocations_per_element(order: &StreamOrder) -> (LoomStats, usize) {
    let (stream, vertices, warm) = stream_and_warm_up_in(order);
    let query = PatternQuery::path(QueryId::new(0), &[l(0), l(1), l(2)]).expect("valid abc");
    let workload = Workload::uniform(vec![query]).expect("valid workload");
    let tpstry = MotifMiner::default().mine(&workload).expect("mines");
    let config = LoomConfig::new(8, vertices).with_window_size(WINDOW);
    let mut loom = LoomPartitioner::new(config, &tpstry).expect("builds");

    let (warm_up, measured) = stream.elements().split_at(warm);
    for batch in warm_up.chunks(BATCH) {
        loom.ingest_batch(batch).expect("ingests");
    }
    let allocations = allocations_during(|| {
        for batch in measured.chunks(BATCH) {
            loom.ingest_batch(batch).expect("ingests");
        }
    });
    let per_element = allocations as f64 / measured.len() as f64;
    let stats = loom.loom_stats();
    println!(
        "loom, {}: {allocations} allocations over {} elements = {per_element:.4} per element \
         ({} motif matches found)",
        order.name(),
        measured.len(),
        stats.motif_matches_found,
    );
    assert!(
        per_element < 0.05,
        "{per_element:.4} allocations per element"
    );
    assert_eq!(loom.finish().expect("finishes").assigned_count(), vertices);
    (stats, vertices)
}

/// The window's own claim: once its arena, free lists and maps have reached
/// a stream's high-water mark, no operation allocates. One pass over the
/// stream sets the mark (in a random-order stream a vertex's back-degree
/// grows with its position, so the mark moves until the end: 15 amortised
/// growths over the 30 576 elements after the LOOM test's warm-up), the
/// window is emptied, and the same stream is driven through it again.
#[test]
fn window_alone_allocates_nothing_in_steady_state() {
    let (stream, _, _) = stream_and_warm_up();
    let mut window = StreamWindow::new(WINDOW);
    let mut evicted_degree = 0;
    let mut drive = |window: &mut StreamWindow| {
        for element in stream.elements() {
            match *element {
                StreamElement::AddVertex { id, label } => {
                    while window.is_full() {
                        let evicted = window.evict_oldest().expect("a full window evicts");
                        evicted_degree +=
                            evicted.window_neighbours.len() + evicted.external_neighbours.len();
                    }
                    window.push_vertex(id, label);
                }
                StreamElement::AddEdge { source, target } => {
                    window.push_edge(source, target);
                }
                _ => unreachable!("the stream is insert-only"),
            }
        }
        while window.evict_oldest().is_some() {}
    };
    drive(&mut window);
    let allocations = allocations_during(|| drive(&mut window));
    println!(
        "window: {allocations} allocations over {} elements",
        stream.len()
    );
    assert_eq!(allocations, 0);
    assert!(evicted_degree > 0, "the window handed out no edges");
}

/// The graph's own claim, the one the durable mirror lives on:
/// applying a stream to a fresh `LabelledGraph` allocates only to grow its
/// one id index, its slot vector, its arena and the arena's free lists (51
/// amortised growths here, 48 with a hash map for the id index; 14 966
/// allocations with a `Vec` per vertex and three growing tables), and a
/// graph that has been emptied takes the same stream again out of what it
/// already holds (0 here).
#[test]
fn graph_apply_allocates_only_to_grow_and_recycles_after_removal() {
    let (stream, vertices, _) = stream_and_warm_up();
    let mut graph = LabelledGraph::new();
    let apply = |graph: &mut LabelledGraph| stream.elements().iter().for_each(|e| graph.apply(e));

    let fresh = allocations_during(|| apply(&mut graph));
    let per_element = fresh as f64 / stream.len() as f64;
    println!(
        "graph, fresh: {fresh} allocations over {} elements = {per_element:.4} per element",
        stream.len()
    );
    assert!(
        per_element < 0.01,
        "{per_element:.4} allocations per element"
    );
    assert_eq!(graph.vertex_count(), vertices);
    let edges = graph.edge_count();

    for v in graph.vertices_sorted() {
        graph.remove_vertex(v);
    }
    assert_eq!((graph.vertex_count(), graph.edge_count()), (0, 0));
    let again = allocations_during(|| apply(&mut graph));
    let per_element = again as f64 / stream.len() as f64;
    println!(
        "graph, refilled: {again} allocations over {} elements = {per_element:.5} per element",
        stream.len()
    );
    assert!(
        per_element < 0.001,
        "{per_element:.5} allocations per element"
    );
    assert_eq!(
        (graph.vertex_count(), graph.edge_count()),
        (vertices, edges)
    );
}
