//! The experiment suite of DESIGN.md §6.
//!
//! Each experiment id maps to a function producing one or more [`Table`]s;
//! [`run_experiment`] dispatches on the id. The [`Scale`] knob lets CI and
//! the test suite run the same code paths at a fraction of the full size.

use crate::scenarios;
use loom_core::{workload_registry, FrequentMotifIndex, LoomConfig, LoomPartitioner};
use loom_graph::ordering::StreamOrder;
use loom_graph::{GraphStream, LabelledGraph};
use loom_motif::fixtures::{fig3_stream_graph, paper_example_workload};
use loom_motif::mining::MotifMiner;
use loom_motif::workload::Workload;
use loom_partition::metrics::evaluate;
use loom_partition::traits::partition_stream;
use loom_sim::executor::QueryExecutor;
use loom_sim::report::{comparison_table, Table};
use loom_sim::runner::{ExperimentConfig, ExperimentRunner, PartitionerKind};
use loom_sim::store::PartitionedStore;
use std::time::Instant;

/// How large the experiment inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sizes for CI / smoke runs (seconds).
    Quick,
    /// The sizes recorded in EXPERIMENTS.md (minutes).
    Full,
}

impl Scale {
    fn graph_vertices(self) -> usize {
        match self {
            Scale::Quick => 2_000,
            Scale::Full => 20_000,
        }
    }

    fn motif_instances(self) -> usize {
        match self {
            Scale::Quick => 100,
            Scale::Full => 800,
        }
    }

    fn query_samples(self) -> usize {
        match self {
            Scale::Quick => 60,
            Scale::Full => 200,
        }
    }

    fn k_values(self) -> Vec<u32> {
        match self {
            Scale::Quick => vec![4, 8],
            Scale::Full => vec![4, 8, 16, 32],
        }
    }

    fn throughput_sizes(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![2_000, 5_000],
            Scale::Full => vec![10_000, 20_000, 50_000, 100_000],
        }
    }
}

/// The experiments defined in DESIGN.md §6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentId {
    /// P-Fig2: the TPSTry++ mined from the paper's Figure 1 workload.
    Fig2,
    /// P-Fig3: motif matching over a stream with shared sub-structure.
    Fig3,
    /// E-T1: edge-cut and balance per partitioner across graph families / k.
    T1,
    /// E-T2: inter-partition traversal probability per partitioner.
    T2,
    /// E-T3: workload skew sensitivity.
    T3,
    /// E-F1: window size sweep.
    F1,
    /// E-F2: motif frequency threshold sweep.
    F2,
    /// E-F3: stream ordering sensitivity.
    F3,
    /// E-F4: partitioning throughput vs graph size.
    F4,
    /// E-F5: LOOM ablations.
    F5,
    /// E-F6: TPSTry++ construction cost vs workload size.
    F6,
    /// E-F7: dynamic growth — streaming adaptation vs periodic offline
    /// repartitioning (cost, quality, churn).
    F7,
    /// E-F8: signature false-positive rate under exact verification.
    F8,
}

impl ExperimentId {
    /// Every experiment, in presentation order.
    pub fn all() -> Vec<ExperimentId> {
        vec![
            ExperimentId::Fig2,
            ExperimentId::Fig3,
            ExperimentId::T1,
            ExperimentId::T2,
            ExperimentId::T3,
            ExperimentId::F1,
            ExperimentId::F2,
            ExperimentId::F3,
            ExperimentId::F4,
            ExperimentId::F5,
            ExperimentId::F6,
            ExperimentId::F7,
            ExperimentId::F8,
        ]
    }

    /// Parse a CLI name such as `t1` or `fig2`.
    pub fn parse(name: &str) -> Option<ExperimentId> {
        match name.to_ascii_lowercase().as_str() {
            "fig2" => Some(ExperimentId::Fig2),
            "fig3" => Some(ExperimentId::Fig3),
            "t1" => Some(ExperimentId::T1),
            "t2" => Some(ExperimentId::T2),
            "t3" => Some(ExperimentId::T3),
            "f1" => Some(ExperimentId::F1),
            "f2" => Some(ExperimentId::F2),
            "f3" => Some(ExperimentId::F3),
            "f4" => Some(ExperimentId::F4),
            "f5" => Some(ExperimentId::F5),
            "f6" => Some(ExperimentId::F6),
            "f7" => Some(ExperimentId::F7),
            "f8" => Some(ExperimentId::F8),
            _ => None,
        }
    }

    /// The CLI / report name.
    pub fn name(&self) -> &'static str {
        match self {
            ExperimentId::Fig2 => "fig2",
            ExperimentId::Fig3 => "fig3",
            ExperimentId::T1 => "t1",
            ExperimentId::T2 => "t2",
            ExperimentId::T3 => "t3",
            ExperimentId::F1 => "f1",
            ExperimentId::F2 => "f2",
            ExperimentId::F3 => "f3",
            ExperimentId::F4 => "f4",
            ExperimentId::F5 => "f5",
            ExperimentId::F6 => "f6",
            ExperimentId::F7 => "f7",
            ExperimentId::F8 => "f8",
        }
    }
}

/// Run one experiment and return its tables.
pub fn run_experiment(id: ExperimentId, scale: Scale) -> Vec<Table> {
    match id {
        ExperimentId::Fig2 => fig2(),
        ExperimentId::Fig3 => fig3(),
        ExperimentId::T1 => t1(scale),
        ExperimentId::T2 => t2(scale),
        ExperimentId::T3 => t3(scale),
        ExperimentId::F1 => f1(scale),
        ExperimentId::F2 => f2(scale),
        ExperimentId::F3 => f3(scale),
        ExperimentId::F4 => f4(scale),
        ExperimentId::F5 => f5(scale),
        ExperimentId::F6 => f6(scale),
        ExperimentId::F7 => f7(scale),
        ExperimentId::F8 => f8(scale),
    }
}

fn runner(k: u32, scale: Scale) -> ExperimentRunner {
    ExperimentRunner::new(ExperimentConfig {
        k,
        window_size: 256,
        motif_threshold: 0.3,
        query_samples: scale.query_samples(),
        ..ExperimentConfig::new(k)
    })
}

/// P-Fig2: the TPSTry++ for the paper's example workload.
fn fig2() -> Vec<Table> {
    let workload = paper_example_workload();
    let tpstry = MotifMiner::default()
        .mine(&workload)
        .expect("mining succeeds");
    let interner = loom_graph::LabelInterner::with_alphabet(4);
    let mut table = Table::new(
        "P-Fig2: TPSTry++ for the Figure 1 workload (q1 square, q2 abc, q3 abcd)",
        &[
            "node",
            "labels",
            "|V|",
            "|E|",
            "p-value",
            "supporting queries",
        ],
    );
    let mut nodes: Vec<_> = tpstry.nodes().collect();
    nodes.sort_by(|a, b| {
        a.vertex_count()
            .cmp(&b.vertex_count())
            .then(a.edge_count().cmp(&b.edge_count()))
            .then(a.id().cmp(&b.id()))
    });
    for node in nodes {
        let labels: Vec<&str> = node
            .graph()
            .vertices_sorted()
            .iter()
            .map(|&v| {
                interner
                    .name(node.graph().label(v).expect("labelled"))
                    .unwrap_or("?")
            })
            .collect();
        let mut queries: Vec<String> = node
            .supporting_queries()
            .iter()
            .map(|q| q.to_string())
            .collect();
        queries.sort();
        table.push_row(vec![
            node.id().to_string(),
            labels.join("-"),
            node.vertex_count().to_string(),
            node.edge_count().to_string(),
            format!("{:.3}", tpstry.p_value(node.id())),
            queries.join(" "),
        ]);
    }
    vec![table]
}

/// P-Fig3: stream motif matching with shared sub-structure.
fn fig3() -> Vec<Table> {
    use loom_core::matcher::StreamMotifMatcher;
    use loom_motif::query::{PatternQuery, QueryId};
    use loom_partition::window::StreamWindow;

    let abc = PatternQuery::path(
        QueryId::new(0),
        &[
            loom_graph::Label::new(0),
            loom_graph::Label::new(1),
            loom_graph::Label::new(2),
        ],
    )
    .expect("valid query");
    let workload = Workload::uniform(vec![abc]).expect("valid workload");
    let tpstry = MotifMiner::default()
        .mine(&workload)
        .expect("mining succeeds");
    let index = FrequentMotifIndex::new(&tpstry, 0.5);
    let mut matcher = StreamMotifMatcher::new(index);

    let (graph, [a, b, c1, c2]) = fig3_stream_graph();
    let mut window = StreamWindow::new(16);
    let mut table = Table::new(
        "P-Fig3: motif matching over the graph-stream (two abc instances share the a-b edge)",
        &["step", "edge", "matches tracked", "largest cluster"],
    );
    for v in [a, b, c1, c2] {
        window.push_vertex(v, graph.label(v).expect("labelled"));
    }
    for (step, (x, y)) in [(a, b), (b, c1), (b, c2)].into_iter().enumerate() {
        window.push_edge(x, y);
        matcher.on_window_edge(&window, x, y);
        let largest = [a, b, c1, c2]
            .iter()
            .map(|&v| matcher.cluster_for(v, true).len())
            .max()
            .unwrap_or(0);
        table.push_row(vec![
            (step + 1).to_string(),
            format!("({x}, {y})"),
            matcher.match_count().to_string(),
            largest.to_string(),
        ]);
    }
    vec![table]
}

/// E-T1: structural quality (cut, balance) per partitioner, graph family, k.
fn t1(scale: Scale) -> Vec<Table> {
    let n = scale.graph_vertices();
    let graphs: Vec<(&str, LabelledGraph)> = vec![
        ("barabasi-albert", scenarios::social_graph(n, 21)),
        ("erdos-renyi", scenarios::random_graph(n, 22)),
        ("community", scenarios::community(n, 23)),
    ];
    let workload = scenarios::motif_workload();
    let mut tables = Vec::new();
    for (name, graph) in &graphs {
        let mut table = Table::new(
            format!(
                "E-T1: partition quality on {name} (|V|={}, |E|={})",
                graph.vertex_count(),
                graph.edge_count()
            ),
            &[
                "k",
                "partitioner",
                "cut_ratio",
                "imbalance",
                "comm_vol",
                "part_ms",
            ],
        );
        for k in scale.k_values() {
            let results = runner(k, scale)
                .run_many(
                    &PartitionerKind::standard_set(),
                    graph,
                    &StreamOrder::Random { seed: 77 },
                    &workload,
                )
                .expect("experiment runs");
            for r in results {
                table.push_row(vec![
                    k.to_string(),
                    r.partitioner,
                    format!("{:.4}", r.cut_ratio),
                    format!("{:.3}", r.imbalance),
                    r.communication_volume.to_string(),
                    format!("{:.1}", r.partition_time_ms),
                ]);
            }
        }
        tables.push(table);
    }
    tables
}

/// E-T2: inter-partition traversal probability on the motif-heavy scenario.
fn t2(scale: Scale) -> Vec<Table> {
    let (graph, workload) =
        scenarios::motif_scenario(scale.graph_vertices(), scale.motif_instances(), 31);
    let results = runner(8, scale)
        .run_many(
            &PartitionerKind::standard_set(),
            &graph,
            &StreamOrder::Random { seed: 13 },
            &workload,
        )
        .expect("experiment runs");
    vec![comparison_table(
        "E-T2: workload-aware quality on the motif-planted graph (k = 8, random order)",
        &results,
    )]
}

/// E-T3: workload skew sensitivity (Zipf exponent sweep).
fn t3(scale: Scale) -> Vec<Table> {
    let graph = scenarios::community(scale.graph_vertices(), 41);
    let mut table = Table::new(
        "E-T3: workload skew sensitivity (community graph, k = 8)",
        &[
            "zipf_s",
            "partitioner",
            "ipt_prob",
            "local_only",
            "latency_us",
        ],
    );
    for s in [0.0, 0.5, 1.0, 1.5] {
        let workload = scenarios::generated_workload(20, s, 5);
        let results = runner(8, scale)
            .run_many(
                &[PartitionerKind::Ldg, PartitionerKind::Loom],
                &graph,
                &StreamOrder::Random { seed: 3 },
                &workload,
            )
            .expect("experiment runs");
        for r in results {
            table.push_row(vec![
                format!("{s:.1}"),
                r.partitioner,
                format!("{:.4}", r.ipt_probability),
                format!("{:.3}", r.local_only_fraction),
                format!("{:.1}", r.mean_latency_us),
            ]);
        }
    }
    vec![table]
}

/// E-F1: window size sweep for LOOM.
fn f1(scale: Scale) -> Vec<Table> {
    let (graph, workload) =
        scenarios::motif_scenario(scale.graph_vertices(), scale.motif_instances(), 51);
    let tpstry = MotifMiner::default()
        .mine(&workload)
        .expect("mining succeeds");
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Random { seed: 7 });
    // One compiled plan per workload query, reused across every window cell.
    let plans = std::sync::Arc::new(loom_sim::plan::PlanCache::compile(
        &loom_sim::plan::QueryPlanner::default(),
        &workload,
        &loom_sim::plan::GraphStatistics::from_graph(&graph),
    ));
    let executor = QueryExecutor::default().with_plan_cache(plans);
    let mut table = Table::new(
        "E-F1: LOOM window size sweep (motif-planted graph, k = 8)",
        &[
            "window",
            "cut_ratio",
            "ipt_prob",
            "local_only",
            "matches",
            "clusters",
            "part_ms",
            "v/s",
        ],
    );
    for window in [16usize, 64, 256, 1024] {
        let mut loom = LoomPartitioner::new(
            LoomConfig::new(8, graph.vertex_count())
                .with_window_size(window)
                .with_motif_threshold(0.3),
            &tpstry,
        )
        .expect("valid config");
        let start = Instant::now();
        let partitioning = partition_stream(&mut loom, &stream).expect("stream consumed");
        let elapsed_ms = start.elapsed().as_secs_f64() * 1_000.0;
        let quality = evaluate(&graph, &partitioning);
        let store = PartitionedStore::new(graph.clone(), partitioning);
        let metrics = executor.execute_workload(&store, &workload, scale.query_samples(), 17);
        let stats = loom.loom_stats();
        table.push_row(vec![
            window.to_string(),
            format!("{:.4}", quality.cut_ratio),
            format!("{:.4}", metrics.inter_partition_probability()),
            format!("{:.3}", metrics.local_only_fraction()),
            stats.motif_matches_found.to_string(),
            stats.clusters_assigned.to_string(),
            format!("{elapsed_ms:.1}"),
            format!(
                "{:.0}",
                graph.vertex_count() as f64 / (elapsed_ms / 1_000.0).max(1e-9)
            ),
        ]);
    }
    vec![table]
}

/// E-F2: motif frequency threshold sweep.
fn f2(scale: Scale) -> Vec<Table> {
    let (graph, _) = scenarios::motif_scenario(scale.graph_vertices(), scale.motif_instances(), 61);
    let workload = scenarios::generated_workload(20, 1.0, 9);
    let tpstry = MotifMiner::default()
        .mine(&workload)
        .expect("mining succeeds");
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Random { seed: 7 });
    let plans = std::sync::Arc::new(loom_sim::plan::PlanCache::compile(
        &loom_sim::plan::QueryPlanner::default(),
        &workload,
        &loom_sim::plan::GraphStatistics::from_graph(&graph),
    ));
    let executor = QueryExecutor::default().with_plan_cache(plans);
    let mut table = Table::new(
        "E-F2: motif frequency threshold sweep (generated workload, k = 8)",
        &[
            "T",
            "frequent motifs",
            "ipt_prob",
            "local_only",
            "clusters",
            "part_ms",
        ],
    );
    for threshold in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let index = FrequentMotifIndex::new(&tpstry, threshold);
        let motif_count = index.motif_count();
        let mut loom = LoomPartitioner::with_index(
            LoomConfig::new(8, graph.vertex_count())
                .with_window_size(256)
                .with_motif_threshold(threshold),
            index,
        )
        .expect("valid config");
        let start = Instant::now();
        let partitioning = partition_stream(&mut loom, &stream).expect("stream consumed");
        let elapsed_ms = start.elapsed().as_secs_f64() * 1_000.0;
        let store = PartitionedStore::new(graph.clone(), partitioning);
        let metrics = executor.execute_workload(&store, &workload, scale.query_samples(), 19);
        table.push_row(vec![
            format!("{threshold:.1}"),
            motif_count.to_string(),
            format!("{:.4}", metrics.inter_partition_probability()),
            format!("{:.3}", metrics.local_only_fraction()),
            loom.loom_stats().clusters_assigned.to_string(),
            format!("{elapsed_ms:.1}"),
        ]);
    }
    vec![table]
}

/// E-F3: stream ordering sensitivity.
fn f3(scale: Scale) -> Vec<Table> {
    let (graph, workload) =
        scenarios::motif_scenario(scale.graph_vertices(), scale.motif_instances(), 71);
    let mut table = Table::new(
        "E-F3: stream ordering sensitivity (motif-planted graph, k = 8)",
        &[
            "ordering",
            "partitioner",
            "cut_ratio",
            "ipt_prob",
            "local_only",
        ],
    );
    let orderings = [
        StreamOrder::Random { seed: 2 },
        StreamOrder::Bfs,
        StreamOrder::Dfs,
        StreamOrder::Adversarial,
        StreamOrder::Stochastic {
            seed: 2,
            jump_probability: 0.05,
        },
    ];
    for order in orderings {
        let results = runner(8, scale)
            .run_many(
                &[
                    PartitionerKind::Ldg,
                    PartitionerKind::Fennel,
                    PartitionerKind::Loom,
                ],
                &graph,
                &order,
                &workload,
            )
            .expect("experiment runs");
        for r in results {
            table.push_row(vec![
                order.name().to_owned(),
                r.partitioner,
                format!("{:.4}", r.cut_ratio),
                format!("{:.4}", r.ipt_probability),
                format!("{:.3}", r.local_only_fraction),
            ]);
        }
    }
    vec![table]
}

/// E-F4: partitioning throughput vs graph size (no query execution).
fn f4(scale: Scale) -> Vec<Table> {
    let workload = scenarios::motif_workload();
    let tpstry = MotifMiner::default()
        .mine(&workload)
        .expect("mining succeeds");
    // Built once, outside the clock: the timed region is partitioning only.
    let registry = workload_registry(&tpstry);
    let mut table = Table::new(
        "E-F4: partitioning throughput vs graph size (BA graphs, k = 8)",
        &["|V|", "partitioner", "part_ms", "vertices/s"],
    );
    for n in scale.throughput_sizes() {
        let graph = scenarios::social_graph(n, 81);
        let stream = GraphStream::from_graph(&graph, &StreamOrder::Random { seed: 5 });
        let run = runner(8, scale);
        for kind in [
            PartitionerKind::Hash,
            PartitionerKind::Ldg,
            PartitionerKind::Fennel,
            PartitionerKind::Loom,
            PartitionerKind::Offline,
        ] {
            let start = Instant::now();
            let partitioning = run
                .partition(kind, &graph, &stream, &registry)
                .expect("partitioner runs");
            let elapsed_ms = start.elapsed().as_secs_f64() * 1_000.0;
            assert_eq!(partitioning.assigned_count(), graph.vertex_count());
            table.push_row(vec![
                n.to_string(),
                kind.name().to_owned(),
                format!("{elapsed_ms:.1}"),
                format!("{:.0}", n as f64 / (elapsed_ms / 1_000.0).max(1e-9)),
            ]);
        }
    }
    vec![table]
}

/// E-F5: LOOM ablations.
fn f5(scale: Scale) -> Vec<Table> {
    let (graph, workload) =
        scenarios::motif_scenario(scale.graph_vertices(), scale.motif_instances(), 91);
    let results = runner(8, scale)
        .run_many(
            &PartitionerKind::ablation_set(),
            &graph,
            &StreamOrder::Random { seed: 23 },
            &workload,
        )
        .expect("experiment runs");
    vec![comparison_table(
        "E-F5: LOOM ablations (motif-planted graph, k = 8, random order)",
        &results,
    )]
}

/// E-F6: TPSTry++ construction cost vs workload size.
fn f6(scale: Scale) -> Vec<Table> {
    let sizes: Vec<usize> = match scale {
        Scale::Quick => vec![10, 50, 100],
        Scale::Full => vec![10, 50, 100, 250, 500],
    };
    let mut table = Table::new(
        "E-F6: TPSTry++ construction cost vs workload size",
        &["queries", "nodes", "frequent@0.3", "build_ms"],
    );
    for size in sizes {
        let workload = scenarios::generated_workload(size, 1.0, 3);
        let start = Instant::now();
        let tpstry = MotifMiner::default()
            .mine(&workload)
            .expect("mining succeeds");
        let elapsed_ms = start.elapsed().as_secs_f64() * 1_000.0;
        table.push_row(vec![
            size.to_string(),
            tpstry.node_count().to_string(),
            tpstry.frequent_motifs(0.3).len().to_string(),
            format!("{elapsed_ms:.2}"),
        ]);
    }
    vec![table]
}

/// E-F7: dynamic growth — streaming adaptation vs periodic offline
/// repartitioning.
fn f7(scale: Scale) -> Vec<Table> {
    use loom_partition::ldg::{LdgConfig, LdgPartitioner};
    use loom_sim::growth::GrowthScenario;

    let (graph, workload) =
        scenarios::motif_scenario(scale.graph_vertices(), scale.motif_instances(), 101);
    let tpstry = MotifMiner::default()
        .mine(&workload)
        .expect("mining succeeds");
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Random { seed: 7 });
    let scenario = GrowthScenario::new(8, 5);

    let mut table = Table::new(
        "E-F7: dynamic growth — streaming adaptation vs periodic offline repartitioning",
        &[
            "strategy",
            "progress",
            "|V| so far",
            "cut_ratio",
            "imbalance",
            "cumulative_ms",
            "moved",
            "churn",
        ],
    );
    let mut rows = Vec::new();
    {
        let mut ldg =
            LdgPartitioner::new(LdgConfig::new(8, graph.vertex_count())).expect("valid config");
        rows.extend(scenario.run_streaming(&mut ldg, &stream).expect("runs"));
    }
    {
        let mut loom = LoomPartitioner::new(
            LoomConfig::new(8, graph.vertex_count())
                .with_window_size(256)
                .with_motif_threshold(0.3),
            &tpstry,
        )
        .expect("valid config");
        rows.extend(scenario.run_streaming(&mut loom, &stream).expect("runs"));
    }
    rows.extend(scenario.run_offline_periodic(&stream).expect("runs"));
    for c in rows {
        table.push_row(vec![
            c.strategy,
            format!("{:.2}", c.progress),
            c.vertices.to_string(),
            format!("{:.4}", c.cut_ratio),
            format!("{:.3}", c.imbalance),
            format!("{:.1}", c.cumulative_time_ms),
            c.moved_vertices.to_string(),
            format!("{:.3}", c.churn),
        ]);
    }
    vec![table]
}

/// E-F8: signature false-positive rate measured with exact verification.
fn f8(scale: Scale) -> Vec<Table> {
    let mut table = Table::new(
        "E-F8: signature match verification (false-positive rate of the non-authoritative check)",
        &[
            "workload",
            "matches (unverified)",
            "verifications",
            "false positives",
            "fp rate",
            "part_ms (verify on)",
        ],
    );
    let cases: Vec<(&str, Workload)> = vec![
        ("planted abc+square", scenarios::motif_workload()),
        (
            "generated (20 queries)",
            scenarios::generated_workload(20, 1.0, 5),
        ),
    ];
    for (name, workload) in cases {
        let (graph, _) =
            scenarios::motif_scenario(scale.graph_vertices() / 2, scale.motif_instances() / 2, 111);
        let tpstry = MotifMiner::default()
            .mine(&workload)
            .expect("mining succeeds");
        let stream = GraphStream::from_graph(&graph, &StreamOrder::Random { seed: 9 });

        let unverified_matches = {
            let mut loom = LoomPartitioner::new(
                LoomConfig::new(8, graph.vertex_count())
                    .with_window_size(256)
                    .with_motif_threshold(0.3),
                &tpstry,
            )
            .expect("valid config");
            let _ = partition_stream(&mut loom, &stream).expect("stream consumed");
            loom.loom_stats().motif_matches_found
        };

        let mut loom = LoomPartitioner::new(
            LoomConfig::new(8, graph.vertex_count())
                .with_window_size(256)
                .with_motif_threshold(0.3)
                .with_verification(),
            &tpstry,
        )
        .expect("valid config");
        let start = Instant::now();
        let _ = partition_stream(&mut loom, &stream).expect("stream consumed");
        let elapsed_ms = start.elapsed().as_secs_f64() * 1_000.0;
        let stats = loom.loom_stats();
        let fp_rate = if stats.verifications == 0 {
            0.0
        } else {
            stats.false_positive_matches as f64 / stats.verifications as f64
        };
        table.push_row(vec![
            name.to_owned(),
            unverified_matches.to_string(),
            stats.verifications.to_string(),
            stats.false_positive_matches.to_string(),
            format!("{fp_rate:.4}"),
            format!("{elapsed_ms:.1}"),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_ids_round_trip() {
        for id in ExperimentId::all() {
            assert_eq!(ExperimentId::parse(id.name()), Some(id));
        }
        assert_eq!(ExperimentId::parse("nope"), None);
        assert_eq!(ExperimentId::all().len(), 13);
    }

    #[test]
    fn fig2_and_fig3_tables_have_content() {
        let fig2_tables = run_experiment(ExperimentId::Fig2, Scale::Quick);
        assert_eq!(fig2_tables.len(), 1);
        assert!(fig2_tables[0].row_count() >= 10);
        let fig3_tables = run_experiment(ExperimentId::Fig3, Scale::Quick);
        assert_eq!(fig3_tables[0].row_count(), 3);
        let rendered = fig3_tables[0].render();
        assert!(rendered.contains("matches tracked"));
    }

    #[test]
    fn f6_table_grows_with_workload_size() {
        let tables = run_experiment(ExperimentId::F6, Scale::Quick);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].row_count(), 3);
    }
}
