//! Graph-stream orderings.
//!
//! Streaming partitioning heuristics are sensitive to the order in which
//! graph elements arrive (paper §3.1). The paper names three families —
//! random, adversarial and stochastic — and we additionally provide the BFS
//! and DFS orders commonly used in the streaming-partitioning literature
//! (Stanton & Kliot evaluate both).

use crate::fxhash::FxHashSet;
use crate::graph::LabelledGraph;
use crate::ids::VertexId;
use crate::traversal::{bfs_order, dfs_order};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// How the vertices of a graph are ordered into a stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamOrder {
    /// Uniform random permutation of the vertices.
    Random {
        /// Shuffle seed.
        seed: u64,
    },
    /// Breadth-first order from the smallest vertex id (good locality; the
    /// friendliest ordering for greedy streaming heuristics).
    Bfs,
    /// Depth-first order from the smallest vertex id.
    Dfs,
    /// An adversarial order: vertices are emitted so that as many vertices as
    /// possible arrive *before* any of their neighbours, which starves greedy
    /// heuristics of information (the paper's §3.1 example).
    Adversarial,
    /// A stochastic "user input" order modelling organic growth: a random
    /// walk that mostly expands the neighbourhood of recently arrived
    /// vertices but occasionally jumps to a fresh region.
    Stochastic {
        /// RNG seed.
        seed: u64,
        /// Probability of jumping to a uniformly random unvisited vertex
        /// instead of growing the frontier (clamped to `[0, 1]`).
        jump_probability: f64,
    },
}

impl StreamOrder {
    /// Short, stable name for reports and CSV output.
    pub fn name(&self) -> &'static str {
        match self {
            StreamOrder::Random { .. } => "random",
            StreamOrder::Bfs => "bfs",
            StreamOrder::Dfs => "dfs",
            StreamOrder::Adversarial => "adversarial",
            StreamOrder::Stochastic { .. } => "stochastic",
        }
    }

    /// Produce the vertex arrival order for `graph` under this ordering.
    pub fn order(&self, graph: &LabelledGraph) -> Vec<VertexId> {
        match self {
            StreamOrder::Random { seed } => {
                let mut order = graph.vertices_sorted();
                let mut rng = StdRng::seed_from_u64(*seed);
                order.shuffle(&mut rng);
                order
            }
            StreamOrder::Bfs => bfs_order(graph),
            StreamOrder::Dfs => dfs_order(graph),
            StreamOrder::Adversarial => adversarial_order(graph),
            StreamOrder::Stochastic {
                seed,
                jump_probability,
            } => stochastic_order(graph, *seed, jump_probability.clamp(0.0, 1.0)),
        }
    }
}

/// Greedy "independent sets first" adversarial ordering.
///
/// Repeatedly sweep the remaining vertices in id order, emitting every vertex
/// none of whose neighbours has been emitted *in the current sweep*. The
/// first sweep is therefore a maximal independent set: a greedy partitioner
/// sees a long prefix of vertices that share no edges, reproducing the
/// worst-case behaviour described in the paper.
fn adversarial_order(graph: &LabelledGraph) -> Vec<VertexId> {
    let mut remaining: Vec<VertexId> = graph.vertices_sorted();
    let mut order = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let mut emitted_this_sweep: FxHashSet<VertexId> = FxHashSet::default();
        let mut next_remaining = Vec::new();
        for v in remaining {
            let conflicts = graph
                .neighbors(v)
                .iter()
                .any(|n| emitted_this_sweep.contains(n));
            if conflicts {
                next_remaining.push(v);
            } else {
                emitted_this_sweep.insert(v);
                order.push(v);
            }
        }
        remaining = next_remaining;
    }
    order
}

/// Stochastic growth order (random walk with jumps).
fn stochastic_order(graph: &LabelledGraph, seed: u64, jump_probability: f64) -> Vec<VertexId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let all = graph.vertices_sorted();
    let mut unvisited: FxHashSet<VertexId> = all.iter().copied().collect();
    let mut order = Vec::with_capacity(all.len());
    let mut frontier: Vec<VertexId> = Vec::new();

    while !unvisited.is_empty() {
        let next = if !frontier.is_empty() && !rng.random_bool(jump_probability) {
            // Grow from a random recently seen vertex that still has
            // unvisited neighbours.
            let mut pick = None;
            for _ in 0..8 {
                let idx = rng.random_range(0..frontier.len());
                let candidate = frontier[idx];
                let unvisited_neighbours: Vec<VertexId> = graph
                    .neighbors(candidate)
                    .iter()
                    .copied()
                    .filter(|n| unvisited.contains(n))
                    .collect();
                if let Some(&n) = unvisited_neighbours.as_slice().first() {
                    // Choose among the unvisited neighbours uniformly.
                    let chosen =
                        unvisited_neighbours[rng.random_range(0..unvisited_neighbours.len())];
                    pick = Some(chosen);
                    let _ = n;
                    break;
                }
            }
            pick
        } else {
            None
        };
        let v = match next {
            Some(v) => v,
            None => {
                // Jump: uniformly random unvisited vertex (deterministic scan
                // order + RNG index keeps this reproducible).
                let mut candidates: Vec<VertexId> = unvisited.iter().copied().collect();
                candidates.sort_unstable();
                candidates[rng.random_range(0..candidates.len())]
            }
        };
        unvisited.remove(&v);
        order.push(v);
        frontier.push(v);
        if frontier.len() > 64 {
            frontier.remove(0);
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::regular::path_graph;
    use crate::generators::{barabasi_albert, GeneratorConfig};
    use crate::ids::Label;

    fn check_is_permutation(graph: &LabelledGraph, order: &[VertexId]) {
        assert_eq!(order.len(), graph.vertex_count());
        let unique: FxHashSet<_> = order.iter().copied().collect();
        assert_eq!(unique.len(), order.len());
        for v in order {
            assert!(graph.contains_vertex(*v));
        }
    }

    #[test]
    fn every_ordering_is_a_permutation() {
        let g = barabasi_albert(GeneratorConfig::new(300, 4, 3), 2).unwrap();
        for order in [
            StreamOrder::Random { seed: 1 },
            StreamOrder::Bfs,
            StreamOrder::Dfs,
            StreamOrder::Adversarial,
            StreamOrder::Stochastic {
                seed: 1,
                jump_probability: 0.05,
            },
        ] {
            let o = order.order(&g);
            check_is_permutation(&g, &o);
        }
    }

    #[test]
    fn random_order_depends_on_seed_only() {
        let g = barabasi_albert(GeneratorConfig::new(100, 4, 3), 2).unwrap();
        let a = StreamOrder::Random { seed: 5 }.order(&g);
        let b = StreamOrder::Random { seed: 5 }.order(&g);
        let c = StreamOrder::Random { seed: 6 }.order(&g);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn adversarial_prefix_is_an_independent_set() {
        let g = path_graph(10, &[Label::new(0)]);
        let order = StreamOrder::Adversarial.order(&g);
        check_is_permutation(&g, &order);
        // The first sweep of a path picks every other vertex: none of the
        // first five vertices may be adjacent.
        let prefix: FxHashSet<_> = order[..5].iter().copied().collect();
        for &v in &prefix {
            for n in g.neighbors(v) {
                assert!(!prefix.contains(n), "prefix is not independent");
            }
        }
    }

    #[test]
    fn bfs_order_keeps_neighbours_close_on_a_path() {
        let g = path_graph(20, &[Label::new(0)]);
        let order = StreamOrder::Bfs.order(&g);
        // On a path, BFS from an endpoint is exactly the path order.
        let positions: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        for e in g.edges() {
            let gap = positions[&e.lo].abs_diff(positions[&e.hi]);
            assert!(gap <= 2, "BFS gap too large: {gap}");
        }
    }

    #[test]
    fn stochastic_order_is_deterministic_per_seed() {
        let g = barabasi_albert(GeneratorConfig::new(150, 4, 3), 2).unwrap();
        let s1 = StreamOrder::Stochastic {
            seed: 3,
            jump_probability: 0.1,
        }
        .order(&g);
        let s2 = StreamOrder::Stochastic {
            seed: 3,
            jump_probability: 0.1,
        }
        .order(&g);
        assert_eq!(s1, s2);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(StreamOrder::Bfs.name(), "bfs");
        assert_eq!(StreamOrder::Adversarial.name(), "adversarial");
        assert_eq!(StreamOrder::Random { seed: 0 }.name(), "random");
    }
}
