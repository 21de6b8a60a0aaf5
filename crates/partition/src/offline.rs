//! Offline multilevel k-way partitioning (METIS-like).
//!
//! The paper positions streaming partitioners against METIS, the standard
//! offline baseline: highest quality, but memory hungry and requiring a full
//! repartition whenever the graph changes. This module implements the same
//! three-phase multilevel scheme so the experiments have a quality reference
//! point:
//!
//! 1. **Coarsening** — repeatedly contract a heavy-edge matching until the
//!    graph is small;
//! 2. **Initial partitioning** — greedy region growing on the coarsest graph,
//!    respecting vertex weights;
//! 3. **Uncoarsening + refinement** — project the partitioning back level by
//!    level, applying a bounded Kernighan–Lin/FM-style boundary-move pass at
//!    each level.
//!
//! The implementation favours clarity over squeezing out the last few percent
//! of cut quality; it comfortably beats every streaming heuristic on edge
//! cut, which is all the experiments need from it.

use crate::error::{PartitionError, Result};
use crate::partition::{PartitionId, Partitioning};
use loom_graph::fxhash::FxHashMap;
use loom_graph::{LabelledGraph, VertexId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Configuration for the multilevel partitioner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultilevelConfig {
    /// Number of partitions.
    pub k: u32,
    /// Balance slack: no partition may exceed `slack · n / k` total vertex
    /// weight.
    pub slack: f64,
    /// Stop coarsening once the graph has at most `max(coarsen_until, 4k)`
    /// vertices.
    pub coarsen_until: usize,
    /// Number of refinement sweeps per uncoarsening level.
    pub refinement_passes: usize,
    /// RNG seed for the matching order.
    pub seed: u64,
}

impl MultilevelConfig {
    /// Sensible defaults for `k` partitions.
    pub fn new(k: u32) -> Self {
        Self {
            k,
            slack: 1.05,
            coarsen_until: 128,
            refinement_passes: 4,
            seed: 42,
        }
    }
}

/// The offline multilevel partitioner.
#[derive(Debug, Clone)]
pub struct MultilevelPartitioner {
    config: MultilevelConfig,
}

/// Internal weighted graph representation used across coarsening levels.
/// Vertices are dense `0..n` indices.
#[derive(Debug, Clone)]
struct Level {
    /// Weight (number of original vertices) of each coarse vertex.
    vertex_weight: Vec<u64>,
    /// Adjacency: for each vertex, `(neighbour, edge_weight)` pairs.
    adjacency: Vec<Vec<(u32, u64)>>,
    /// Mapping from this level's vertices to the coarser level's vertices
    /// (filled in when the next level is built).
    coarse_of: Vec<u32>,
}

impl Level {
    fn vertex_count(&self) -> usize {
        self.vertex_weight.len()
    }
}

impl MultilevelPartitioner {
    /// Create a partitioner with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::InvalidConfig`] for `k == 0` or slack < 1.
    pub fn new(config: MultilevelConfig) -> Result<Self> {
        if config.k == 0 {
            return Err(PartitionError::InvalidConfig("k must be positive".into()));
        }
        if config.slack < 1.0 || config.slack.is_nan() {
            return Err(PartitionError::InvalidConfig(format!(
                "slack must be >= 1.0, got {}",
                config.slack
            )));
        }
        Ok(Self { config })
    }

    /// The configuration.
    pub fn config(&self) -> &MultilevelConfig {
        &self.config
    }

    /// Partition a whole graph offline.
    ///
    /// # Errors
    ///
    /// Propagates assignment errors (which indicate a bug rather than a user
    /// error) and configuration problems.
    pub fn partition(&self, graph: &LabelledGraph) -> Result<Partitioning> {
        let k = self.config.k;
        let n = graph.vertex_count();
        let mut partitioning = Partitioning::with_slack(k, n.max(1), self.config.slack.max(1.1))?;
        if n == 0 {
            return Ok(partitioning);
        }

        // Dense index mapping for the finest level.
        let ids = graph.vertices_sorted();
        let index_of: FxHashMap<VertexId, u32> = ids
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        let mut finest = Level {
            vertex_weight: vec![1; n],
            adjacency: vec![Vec::new(); n],
            coarse_of: vec![0; n],
        };
        for e in graph.edges() {
            let a = index_of[&e.lo] as usize;
            let b = index_of[&e.hi] as usize;
            finest.adjacency[a].push((b as u32, 1));
            finest.adjacency[b].push((a as u32, 1));
        }

        // Phase 1: coarsen. Cap the weight a coarse vertex may accumulate so
        // that a tightly connected component cannot collapse into a single
        // super-vertex heavier than a partition's balance target (which would
        // make balanced initial partitioning impossible).
        let mut levels = vec![finest];
        let stop_at = self.config.coarsen_until.max(4 * k as usize);
        let max_coarse_weight = ((n as f64 / f64::from(k) / 4.0).floor() as u64).max(1);
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        loop {
            let current = levels.last().unwrap();
            if current.vertex_count() <= stop_at {
                break;
            }
            let (coarse, mapping) = coarsen(current, max_coarse_weight, &mut rng);
            let shrunk = coarse.vertex_count() < current.vertex_count();
            levels.last_mut().unwrap().coarse_of = mapping;
            if !shrunk {
                break;
            }
            levels.push(coarse);
        }

        // Phase 2: initial partition of the coarsest level.
        let total_weight: u64 = levels.last().unwrap().vertex_weight.iter().sum();
        let target = (total_weight as f64 / f64::from(k) * self.config.slack).ceil() as u64;
        let mut assignment = initial_partition(levels.last().unwrap(), k, target, &mut rng);

        // Phase 3: uncoarsen + refine; finish with an explicit rebalance pass
        // at the finest level (unit vertex weights) so any overload left over
        // from the coarse initial partitioning is repaired.
        refine(
            levels.last().unwrap(),
            &mut assignment,
            k,
            target,
            self.config.refinement_passes,
        );
        for level_index in (0..levels.len() - 1).rev() {
            let fine = &levels[level_index];
            let mut fine_assignment = vec![0u32; fine.vertex_count()];
            for (v, slot) in fine_assignment.iter_mut().enumerate() {
                *slot = assignment[fine.coarse_of[v] as usize];
            }
            assignment = fine_assignment;
            refine(
                fine,
                &mut assignment,
                k,
                target,
                self.config.refinement_passes,
            );
        }
        rebalance(&levels[0], &mut assignment, k, target);
        refine(&levels[0], &mut assignment, k, target, 1);

        for (i, &p) in assignment.iter().enumerate() {
            partitioning.assign(ids[i], PartitionId::new(p))?;
        }
        Ok(partitioning)
    }
}

/// Contract a heavy-edge matching: visit vertices in random order, match each
/// unmatched vertex with its unmatched neighbour of maximum edge weight,
/// skipping partners whose combined weight would exceed `max_weight`.
fn coarsen(level: &Level, max_weight: u64, rng: &mut StdRng) -> (Level, Vec<u32>) {
    let n = level.vertex_count();
    let mut visit_order: Vec<u32> = (0..n as u32).collect();
    visit_order.shuffle(rng);

    let mut matched = vec![false; n];
    let mut coarse_of = vec![u32::MAX; n];
    let mut coarse_count = 0u32;

    for &v in &visit_order {
        let v = v as usize;
        if matched[v] {
            continue;
        }
        // Heaviest unmatched neighbour whose merge stays under the weight cap.
        let partner = level.adjacency[v]
            .iter()
            .filter(|&&(n, _)| {
                !matched[n as usize]
                    && level.vertex_weight[v] + level.vertex_weight[n as usize] <= max_weight
            })
            .max_by_key(|&&(_, w)| w)
            .map(|&(n, _)| n as usize);
        matched[v] = true;
        coarse_of[v] = coarse_count;
        if let Some(p) = partner {
            matched[p] = true;
            coarse_of[p] = coarse_count;
        }
        coarse_count += 1;
    }

    // Build the coarse level.
    let mut vertex_weight = vec![0u64; coarse_count as usize];
    for v in 0..n {
        vertex_weight[coarse_of[v] as usize] += level.vertex_weight[v];
    }
    let mut edge_weights: FxHashMap<(u32, u32), u64> = FxHashMap::default();
    for v in 0..n {
        let cv = coarse_of[v];
        for &(u, w) in &level.adjacency[v] {
            let cu = coarse_of[u as usize];
            if cv == cu {
                continue;
            }
            let key = if cv < cu { (cv, cu) } else { (cu, cv) };
            // Each undirected edge is seen twice (once per endpoint); halve at the end.
            *edge_weights.entry(key).or_insert(0) += w;
        }
    }
    let mut adjacency = vec![Vec::new(); coarse_count as usize];
    for (&(a, b), &w) in &edge_weights {
        let w = w / 2;
        adjacency[a as usize].push((b, w));
        adjacency[b as usize].push((a, w));
    }
    (
        Level {
            vertex_weight,
            adjacency,
            coarse_of: vec![0; coarse_count as usize],
        },
        coarse_of,
    )
}

/// Number of random restarts of the initial partitioning; the coarsest graph
/// is small, so trying several seeds and keeping the best cut is cheap.
const INITIAL_PARTITION_RESTARTS: usize = 8;

/// Weight of the edges `assignment` cuts at this level.
fn level_cut_weight(level: &Level, assignment: &[u32]) -> u64 {
    let mut cut = 0u64;
    for v in 0..level.vertex_count() {
        for &(u, w) in &level.adjacency[v] {
            if (u as usize) > v && assignment[v] != assignment[u as usize] {
                cut += w;
            }
        }
    }
    cut
}

/// Greedy region-growing initial partitioning on the coarsest level: several
/// random restarts, keeping the assignment with the smallest cut.
fn initial_partition(level: &Level, k: u32, target: u64, rng: &mut StdRng) -> Vec<u32> {
    let mut best: Option<(u64, Vec<u32>)> = None;
    for _ in 0..INITIAL_PARTITION_RESTARTS {
        let assignment = region_grow(level, k, target, rng);
        let cut = level_cut_weight(level, &assignment);
        if best.as_ref().is_none_or(|(best_cut, _)| cut < *best_cut) {
            best = Some((cut, assignment));
        }
    }
    best.expect("at least one restart").1
}

/// One region-growing pass: visit vertices in random order and place each in
/// the partition it is most connected to, discounted multiplicatively by how
/// full that partition already is (the LDG score). The multiplicative penalty
/// matters: with an additive one, every early zero-connectivity vertex lands
/// in the same partition, which then snowballs into a community-blind blob.
fn region_grow(level: &Level, k: u32, target: u64, rng: &mut StdRng) -> Vec<u32> {
    let n = level.vertex_count();
    let mut assignment = vec![u32::MAX; n];
    let mut loads = vec![0u64; k as usize];
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);

    for &v in &order {
        let v = v as usize;
        if assignment[v] != u32::MAX {
            continue;
        }
        let mut best = 0u32;
        let mut best_score = f64::MIN;
        for p in 0..k {
            let connectivity: u64 = level.adjacency[v]
                .iter()
                .filter(|&&(u, _)| assignment[u as usize] == p)
                .map(|&(_, w)| w)
                .sum();
            let fill = loads[p as usize] as f64 / target.max(1) as f64;
            let has_room = loads[p as usize] + level.vertex_weight[v] <= target;
            // Floor the discount at zero: past the target it must stop
            // rewarding, not start treating connectivity as a penalty.
            let score = connectivity as f64 * (1.0 - fill).max(0.0) - fill
                + if has_room { 0.0 } else { -1e12 };
            if score > best_score {
                best_score = score;
                best = p;
            }
        }
        assignment[v] = best;
        loads[best as usize] += level.vertex_weight[v];
    }
    assignment
}

/// Bounded FM-style refinement: repeatedly move boundary vertices to the
/// partition where they gain the most cut weight, respecting the balance
/// target.
fn refine(level: &Level, assignment: &mut [u32], k: u32, target: u64, passes: usize) {
    let n = level.vertex_count();
    let mut loads = vec![0u64; k as usize];
    for v in 0..n {
        loads[assignment[v] as usize] += level.vertex_weight[v];
    }
    for _ in 0..passes {
        let mut moved = 0usize;
        for v in 0..n {
            let home = assignment[v];
            // Connectivity to each partition.
            let mut connectivity = vec![0u64; k as usize];
            for &(u, w) in &level.adjacency[v] {
                connectivity[assignment[u as usize] as usize] += w;
            }
            let internal = connectivity[home as usize];
            let weight = level.vertex_weight[v];
            let mut best_target = home;
            let mut best_gain = 0i64;
            for p in 0..k {
                if p == home {
                    continue;
                }
                if loads[p as usize] + weight > target {
                    continue;
                }
                let gain = connectivity[p as usize] as i64 - internal as i64;
                if gain > best_gain {
                    best_gain = gain;
                    best_target = p;
                }
            }
            if best_target != home {
                assignment[v] = best_target;
                loads[home as usize] -= weight;
                loads[best_target as usize] += weight;
                moved += 1;
            }
        }
        if moved == 0 {
            break;
        }
    }
}

/// Move vertices out of partitions that exceed the balance target, preferring
/// the vertices whose removal loses the least internal edge weight and the
/// destination with the most connectivity among those with room.
fn rebalance(level: &Level, assignment: &mut [u32], k: u32, target: u64) {
    let n = level.vertex_count();
    let mut loads = vec![0u64; k as usize];
    for v in 0..n {
        loads[assignment[v] as usize] += level.vertex_weight[v];
    }
    for p in 0..k {
        while loads[p as usize] > target {
            // Cheapest vertex to evict from p: least internal connectivity.
            let candidate = (0..n).filter(|&v| assignment[v] == p).min_by_key(|&v| {
                level.adjacency[v]
                    .iter()
                    .filter(|&&(u, _)| assignment[u as usize] == p)
                    .map(|&(_, w)| w)
                    .sum::<u64>()
            });
            let Some(v) = candidate else {
                break;
            };
            let weight = level.vertex_weight[v];
            // Best destination with room: most connectivity to it.
            let destination = (0..k)
                .filter(|&q| q != p && loads[q as usize] + weight <= target)
                .max_by_key(|&q| {
                    level.adjacency[v]
                        .iter()
                        .filter(|&&(u, _)| assignment[u as usize] == q)
                        .map(|&(_, w)| w)
                        .sum::<u64>()
                });
            let Some(q) = destination else {
                break; // nowhere has room; give up rather than loop forever
            };
            assignment[v] = q;
            loads[p as usize] -= weight;
            loads[q as usize] += weight;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::evaluate;
    use crate::traits::partition_stream;
    use loom_graph::generators::{
        barabasi_albert, community_graph, grid_graph, CommunityConfig, GeneratorConfig,
    };
    use loom_graph::ordering::StreamOrder;
    use loom_graph::GraphStream;

    #[test]
    fn configuration_is_validated() {
        assert!(MultilevelPartitioner::new(MultilevelConfig {
            k: 0,
            ..MultilevelConfig::new(4)
        })
        .is_err());
        assert!(MultilevelPartitioner::new(MultilevelConfig {
            slack: 0.5,
            ..MultilevelConfig::new(4)
        })
        .is_err());
    }

    #[test]
    fn partitions_every_vertex_with_bounded_imbalance() {
        let g = barabasi_albert(GeneratorConfig::new(2_000, 4, 3), 2).unwrap();
        let partitioner = MultilevelPartitioner::new(MultilevelConfig::new(8)).unwrap();
        let part = partitioner.partition(&g).unwrap();
        assert_eq!(part.assigned_count(), 2_000);
        assert!(part.imbalance() < 1.25, "imbalance {}", part.imbalance());
    }

    #[test]
    fn beats_ldg_on_edge_cut_for_community_graphs() {
        let (g, _) = community_graph(CommunityConfig {
            vertices: 600,
            communities: 4,
            p_in: 0.1,
            p_out: 0.005,
            label_count: 4,
            seed: 5,
        })
        .unwrap();
        let offline = MultilevelPartitioner::new(MultilevelConfig::new(4))
            .unwrap()
            .partition(&g)
            .unwrap();
        let streaming = {
            let stream = GraphStream::from_graph(&g, &StreamOrder::Random { seed: 9 });
            let mut ldg =
                crate::ldg::LdgPartitioner::new(crate::ldg::LdgConfig::new(4, g.vertex_count()))
                    .unwrap();
            partition_stream(&mut ldg, &stream).unwrap()
        };
        let offline_cut = evaluate(&g, &offline).cut_ratio;
        let streaming_cut = evaluate(&g, &streaming).cut_ratio;
        assert!(
            offline_cut <= streaming_cut + 0.02,
            "offline {offline_cut:.3} should not lose to random-order LDG {streaming_cut:.3}"
        );
    }

    #[test]
    fn grid_cut_is_far_from_worst_case() {
        let g = grid_graph(30, 30, 2, 1).unwrap();
        let part = MultilevelPartitioner::new(MultilevelConfig::new(4))
            .unwrap()
            .partition(&g)
            .unwrap();
        let report = evaluate(&g, &part);
        // A random 4-way split cuts 75% of edges; a decent multilevel split
        // of a 30x30 grid should cut well under 20%.
        assert!(report.cut_ratio < 0.2, "cut ratio {}", report.cut_ratio);
    }

    #[test]
    fn sparse_graphs_with_isolated_vertices_stay_balanced() {
        // A very sparse "community" graph: a giant-ish component plus many
        // isolated vertices. Without the coarse-vertex weight cap the
        // connected part collapses into super-vertices heavier than a
        // partition and the balance explodes.
        let (g, _) = community_graph(CommunityConfig {
            vertices: 2_000,
            communities: 8,
            p_in: 0.006,
            p_out: 0.0005,
            label_count: 4,
            seed: 23,
        })
        .unwrap();
        for k in [4u32, 8] {
            let part = MultilevelPartitioner::new(MultilevelConfig::new(k))
                .unwrap()
                .partition(&g)
                .unwrap();
            assert_eq!(part.assigned_count(), g.vertex_count());
            assert!(
                part.imbalance() < 1.3,
                "k={k}: imbalance {} too high",
                part.imbalance()
            );
        }
    }

    #[test]
    fn tiny_and_empty_graphs() {
        let partitioner = MultilevelPartitioner::new(MultilevelConfig::new(4)).unwrap();
        let empty = LabelledGraph::new();
        assert_eq!(partitioner.partition(&empty).unwrap().assigned_count(), 0);
        let mut tiny = LabelledGraph::new();
        for _ in 0..3 {
            tiny.add_vertex(loom_graph::Label::new(0));
        }
        let part = partitioner.partition(&tiny).unwrap();
        assert_eq!(part.assigned_count(), 3);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = barabasi_albert(GeneratorConfig::new(500, 4, 7), 2).unwrap();
        let p1 = MultilevelPartitioner::new(MultilevelConfig::new(4))
            .unwrap()
            .partition(&g)
            .unwrap();
        let p2 = MultilevelPartitioner::new(MultilevelConfig::new(4))
            .unwrap()
            .partition(&g)
            .unwrap();
        for v in g.vertices_sorted() {
            assert_eq!(p1.partition_of(v), p2.partition_of(v));
        }
    }
}
