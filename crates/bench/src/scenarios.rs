//! Shared graph / workload scenarios used by the experiments and benches.
//!
//! Keeping the scenario constructors in one place guarantees that the
//! `capacity` bench and the `experiments` binary measure exactly the same
//! inputs.

use loom_graph::generators::motif_planted::MotifPlantConfig;
use loom_graph::generators::regular::{cycle_graph, path_graph};
use loom_graph::generators::{
    barabasi_albert, community_graph, erdos_renyi, motif_planted_graph, CommunityConfig,
    GeneratorConfig,
};
use loom_graph::{Label, LabelledGraph};
use loom_motif::query::{PatternQuery, QueryId};
use loom_motif::workload::{Workload, WorkloadGenerator};

fn l(x: u32) -> Label {
    Label::new(x)
}

/// A Barabási–Albert "social network" graph.
pub fn social_graph(vertices: usize, seed: u64) -> LabelledGraph {
    barabasi_albert(
        GeneratorConfig {
            vertices,
            label_count: 4,
            seed,
        },
        3,
    )
    .expect("valid BA parameters")
}

/// An Erdős–Rényi graph with average degree ~6.
pub fn random_graph(vertices: usize, seed: u64) -> LabelledGraph {
    erdos_renyi(
        GeneratorConfig {
            vertices,
            label_count: 4,
            seed,
        },
        vertices * 3,
    )
    .expect("valid ER parameters")
}

/// A planted-partition community graph with 8 communities.
pub fn community(vertices: usize, seed: u64) -> LabelledGraph {
    community_graph(CommunityConfig {
        vertices,
        communities: 8,
        p_in: (12.0 / vertices as f64).min(0.5),
        p_out: (1.0 / vertices as f64).min(0.05),
        label_count: 4,
        seed,
    })
    .expect("valid community parameters")
    .0
}

/// The canonical motif-heavy scenario: a background graph with planted `abc`
/// paths and `abab` squares, plus the workload that traverses them.
pub fn motif_scenario(
    background_vertices: usize,
    instances_per_motif: usize,
    seed: u64,
) -> (LabelledGraph, Workload) {
    let abc = path_graph(3, &[l(0), l(1), l(2)]);
    let square = cycle_graph(4, &[l(0), l(1), l(0), l(1)]);
    let (graph, _) = motif_planted_graph(
        &MotifPlantConfig {
            background_vertices,
            background_edges: background_vertices * 5 / 2,
            instances_per_motif,
            attachment_edges: 1,
            // A wider background alphabet keeps the pattern queries selective:
            // accidental motif occurrences outside the planted instances are
            // rare, so the workload-locality metrics are meaningful.
            label_count: 8,
            seed,
        },
        &[abc, square],
    )
    .expect("valid plant parameters");
    (graph, motif_workload())
}

/// The workload matching [`motif_scenario`]: abc-path, abab-square and a-b
/// queries with skewed frequencies.
pub fn motif_workload() -> Workload {
    let q_abc = PatternQuery::path(QueryId::new(0), &[l(0), l(1), l(2)]).expect("valid");
    let q_square = PatternQuery::cycle(QueryId::new(1), &[l(0), l(1), l(0), l(1)]).expect("valid");
    let q_ab = PatternQuery::path(QueryId::new(2), &[l(0), l(1)]).expect("valid");
    Workload::new(vec![(q_abc, 4.0), (q_square, 2.0), (q_ab, 1.0)]).expect("valid workload")
}

/// A generated workload with `query_count` queries and the given Zipf skew.
pub fn generated_workload(query_count: usize, zipf_exponent: f64, seed: u64) -> Workload {
    WorkloadGenerator {
        query_count,
        label_count: 4,
        core_count: 3,
        core_length: 3,
        max_extension: 2,
        zipf_exponent,
        seed,
    }
    .generate()
    .expect("valid workload generator parameters")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_build_at_small_scale() {
        assert_eq!(social_graph(200, 1).vertex_count(), 200);
        assert_eq!(random_graph(200, 1).vertex_count(), 200);
        assert_eq!(community(200, 1).vertex_count(), 200);
        let (g, w) = motif_scenario(100, 10, 1);
        assert!(g.vertex_count() > 100);
        assert_eq!(w.queries().len(), 3);
        assert_eq!(generated_workload(10, 1.0, 1).queries().len(), 10);
    }
}
