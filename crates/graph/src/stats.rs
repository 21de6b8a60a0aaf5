//! Structural graph statistics.
//!
//! The experiment reports describe their input graphs with the usual summary
//! statistics: degree distribution percentiles, global clustering
//! coefficient, and degree histogram. Nothing here is needed on the streaming
//! hot path; these are offline descriptive tools.

use crate::fxhash::FxHashSet;
use crate::graph::LabelledGraph;

/// Summary of a graph's degree distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree.
    pub mean: f64,
    /// Median degree.
    pub median: usize,
    /// 90th percentile degree.
    pub p90: usize,
    /// 99th percentile degree.
    pub p99: usize,
}

/// Compute degree distribution statistics (all zeros for an empty graph).
/// The percentiles are read off [`degree_histogram`]'s running counts —
/// the degree at rank `round((n − 1) · p)` of the sorted degrees — so
/// nothing is sorted: O(n + max degree).
pub fn degree_stats(graph: &LabelledGraph) -> DegreeStats {
    let histogram = degree_histogram(graph);
    let n: usize = histogram.iter().sum();
    if n == 0 {
        return DegreeStats {
            min: 0,
            max: 0,
            mean: 0.0,
            median: 0,
            p90: 0,
            p99: 0,
        };
    }
    // The degree at rank `rank`: the first whose running count passes it.
    let at = |rank: usize| -> usize {
        let mut seen = 0;
        histogram
            .iter()
            .position(|&count| {
                seen += count;
                seen > rank
            })
            .expect("rank below the vertex count")
    };
    let percentile = |p: f64| at(((n as f64 - 1.0) * p).round() as usize);
    let total: usize = histogram
        .iter()
        .enumerate()
        .map(|(d, &count)| d * count)
        .sum();
    DegreeStats {
        min: at(0),
        max: histogram.len() - 1,
        mean: total as f64 / n as f64,
        median: percentile(0.5),
        p90: percentile(0.9),
        p99: percentile(0.99),
    }
}

/// Histogram of degrees: `histogram[d]` = number of vertices with degree `d`,
/// up to the maximum degree (`[0]` for an empty graph). One walk of the
/// slots.
pub fn degree_histogram(graph: &LabelledGraph) -> Vec<usize> {
    let mut histogram = vec![0usize];
    for (_, _, neighbours) in graph.adjacency() {
        let d = neighbours.len();
        if d >= histogram.len() {
            histogram.resize(d + 1, 0);
        }
        histogram[d] += 1;
    }
    histogram
}

/// Exact global clustering coefficient: `3 · triangles / open-or-closed
/// triplets` (0.0 when the graph has no wedge).
///
/// Exact triangle counting is `O(Σ deg(v)²)`, which is fine for the graph
/// sizes used in the experiments; do not call this on multi-million-edge
/// graphs.
pub fn clustering_coefficient(graph: &LabelledGraph) -> f64 {
    let mut triangles = 0usize;
    let mut wedges = 0usize;
    for v in graph.vertices() {
        let neighbours = graph.neighbors(v);
        let d = neighbours.len();
        if d < 2 {
            continue;
        }
        wedges += d * (d - 1) / 2;
        let set: FxHashSet<_> = neighbours.iter().copied().collect();
        for (i, &a) in neighbours.iter().enumerate() {
            for &b in &neighbours[i + 1..] {
                if set.contains(&b) && graph.contains_edge(a, b) {
                    triangles += 1;
                }
            }
        }
    }
    if wedges == 0 {
        0.0
    } else {
        triangles as f64 / wedges as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::regular::{clique, path_graph, star_graph};
    use crate::generators::{barabasi_albert, GeneratorConfig};
    use crate::ids::Label;

    #[test]
    fn degree_stats_on_simple_shapes() {
        let path = path_graph(5, &[Label::new(0)]);
        let stats = degree_stats(&path);
        assert_eq!(stats.min, 1);
        assert_eq!(stats.max, 2);
        assert!((stats.mean - 1.6).abs() < 1e-12);
        assert_eq!(stats.median, 2);

        let star = star_graph(9, &[Label::new(0)]);
        let stats = degree_stats(&star);
        assert_eq!(stats.max, 9);
        assert_eq!(stats.min, 1);
        assert_eq!(stats.p99, 9);

        let empty = degree_stats(&LabelledGraph::new());
        assert_eq!(empty.max, 0);
        assert_eq!(empty.mean, 0.0);
    }

    #[test]
    fn histogram_counts_every_vertex() {
        let star = star_graph(4, &[Label::new(0)]);
        let histogram = degree_histogram(&star);
        assert_eq!(histogram.iter().sum::<usize>(), 5);
        assert_eq!(histogram[1], 4);
        assert_eq!(histogram[4], 1);
    }

    #[test]
    fn clustering_coefficient_bounds() {
        // A clique is fully clustered, a path has no triangles.
        let k5 = clique(5, &[Label::new(0)]);
        assert!((clustering_coefficient(&k5) - 1.0).abs() < 1e-12);
        let path = path_graph(10, &[Label::new(0)]);
        assert_eq!(clustering_coefficient(&path), 0.0);
        assert_eq!(clustering_coefficient(&LabelledGraph::new()), 0.0);
        // BA graphs have some clustering, strictly between the two extremes.
        let ba = barabasi_albert(GeneratorConfig::new(500, 2, 3), 3).unwrap();
        let c = clustering_coefficient(&ba);
        assert!(c > 0.0 && c < 1.0, "clustering {c}");
    }

    /// What `degree_stats` returned when it sorted every degree: the
    /// reference the histogram walk must equal.
    fn sorted_degree_stats(graph: &LabelledGraph) -> DegreeStats {
        let mut degrees: Vec<usize> = graph.adjacency().map(|(_, _, ns)| ns.len()).collect();
        if degrees.is_empty() {
            return degree_stats(graph);
        }
        degrees.sort_unstable();
        let percentile = |p: f64| -> usize {
            let index = ((degrees.len() as f64 - 1.0) * p).round() as usize;
            degrees[index.min(degrees.len() - 1)]
        };
        DegreeStats {
            min: degrees[0],
            max: *degrees.last().expect("non-empty"),
            mean: degrees.iter().sum::<usize>() as f64 / degrees.len() as f64,
            median: percentile(0.5),
            p90: percentile(0.9),
            p99: percentile(0.99),
        }
    }

    proptest::proptest! {
        #[test]
        fn degree_stats_equal_the_sorted_reference(
            (vertices, hubs, edges) in (0usize..120, 0usize..4, proptest::collection::vec((0u64..1_000, 0u64..1_000), 0..400)),
        ) {
            // Random edges over `vertices` vertices, the first `hubs` of
            // which also reach every other vertex: stars inside noise.
            let mut graph = LabelledGraph::new();
            let ids: Vec<_> = (0..vertices).map(|_| graph.add_vertex(Label::new(0))).collect();
            for (a, b) in edges {
                if vertices > 1 {
                    let (a, b) = (ids[a as usize % vertices], ids[b as usize % vertices]);
                    if a != b && !graph.contains_edge(a, b) {
                        graph.add_edge(a, b).unwrap();
                    }
                }
            }
            for (h, &hub) in ids.iter().enumerate().take(hubs) {
                for &v in &ids[h + 1..] {
                    if !graph.contains_edge(hub, v) {
                        graph.add_edge(hub, v).unwrap();
                    }
                }
            }
            proptest::prop_assert_eq!(degree_stats(&graph), sorted_degree_stats(&graph));
        }
    }

    #[test]
    fn degree_stats_equal_the_sorted_reference_on_stars_and_the_empty_graph() {
        for graph in [
            LabelledGraph::new(),
            star_graph(1, &[Label::new(0)]),
            star_graph(9, &[Label::new(0)]),
            star_graph(300, &[Label::new(0)]),
            barabasi_albert(GeneratorConfig::new(2_000, 2, 9), 2).unwrap(),
        ] {
            assert_eq!(degree_stats(&graph), sorted_degree_stats(&graph));
        }
    }

    #[test]
    fn heavy_tail_is_visible_in_percentiles() {
        let ba = barabasi_albert(GeneratorConfig::new(2_000, 2, 9), 2).unwrap();
        let stats = degree_stats(&ba);
        assert!(stats.p99 > stats.median * 2);
        assert!(stats.max >= stats.p99);
    }
}
