//! Incremental re-partitioning: bounded batches of gain-scored vertex moves.
//!
//! When the query workload drifts away from the distribution a partitioning
//! was mined for, a full repartition (and the migration storm it implies) is
//! rarely affordable. [`MigrationPlanner`] instead produces a **bounded
//! batch** of single-vertex moves: each move is scored by the *weighted
//! locality gain* it buys — edges are weighted by how hot their endpoint
//! labels are under the drifted workload — minus a Fennel-style balance
//! penalty (`α·γ·|V_i|^{γ−1}`, the same marginal-cost shape as
//! [`crate::fennel`]), and only moves whose net gain clears a threshold are
//! planned. Applying a plan leaves the partitioning valid (sizes maintained,
//! capacity respected) and touches at most `max_moves` vertices, so the
//! serving layer can rebuild only the affected shards.
//!
//! Candidates are scored against the input placement, but each accepted move
//! is re-validated against the *tentative* placement the batch has built so
//! far — so two sides of the same cut edge can never swap past each other,
//! and iterating rounds (re-planning against the applied placement until the
//! plan comes back empty) converges instead of oscillating.

use crate::error::Result;
use crate::partition::{PartitionId, Partitioning};
use loom_graph::fxhash::FxHashMap;
use loom_graph::{Label, LabelledGraph, VertexId};

/// Minimum net gain (weighted locality gain minus balance penalty) a move
/// must clear to be planned; filters churn that buys nothing.
const MIN_GAIN: f64 = 1e-9;
/// Scale of the Fennel-style balance penalty (1.0 = the Fennel α derived
/// from the weighted edge mass; larger values defend balance harder).
const BALANCE_PENALTY: f64 = 0.25;
/// The γ exponent of the balance cost (Fennel recommends 1.5).
const GAMMA: f64 = 1.5;
/// Base weight every edge carries regardless of label heat, so migration
/// still repairs plain locality when the hot-label signal is sparse.
const BASE_EDGE_WEIGHT: f64 = 0.05;

/// Configuration for a [`MigrationPlanner`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationConfig {
    /// Maximum vertex moves per planning round (the migration budget).
    pub max_moves: usize,
}

impl MigrationConfig {
    /// A config with the given per-round move budget.
    pub fn new(max_moves: usize) -> Self {
        Self {
            max_moves: max_moves.max(1),
        }
    }
}

impl Default for MigrationConfig {
    fn default() -> Self {
        Self::new(64)
    }
}

/// One planned vertex move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VertexMove {
    /// The vertex to move.
    pub vertex: VertexId,
    /// Its current partition.
    pub from: PartitionId,
    /// The partition it should move to.
    pub to: PartitionId,
    /// The net gain the planner scored for this move (weighted locality gain
    /// minus the balance penalty), at planning time.
    pub gain: f64,
}

/// A bounded batch of vertex moves, ordered best-gain first.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MigrationPlan {
    /// The planned moves, sorted by descending gain.
    pub moves: Vec<VertexMove>,
}

impl MigrationPlan {
    /// Whether the plan contains no moves.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }

    /// Number of planned moves.
    pub fn len(&self) -> usize {
        self.moves.len()
    }

    /// Apply every move to a partitioning.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::error::PartitionError`] if a move references an
    /// unassigned vertex or an unknown partition (cannot happen for plans
    /// produced against the same partitioning).
    pub fn apply(&self, partitioning: &mut Partitioning) -> Result<()> {
        for m in &self.moves {
            partitioning.move_vertex(m.vertex, m.to)?;
        }
        Ok(())
    }
}

/// Plans bounded batches of gain-scored vertex moves against a drifted
/// workload's label weights.
#[derive(Debug, Clone, Copy, Default)]
pub struct MigrationPlanner {
    config: MigrationConfig,
}

impl MigrationPlanner {
    /// Create a planner from a config.
    pub fn new(config: MigrationConfig) -> Self {
        Self { config }
    }

    /// The planner's configuration.
    pub fn config(&self) -> &MigrationConfig {
        &self.config
    }

    /// Weight of the undirected edge `u – v` under the hot-label weights:
    /// the base weight plus the heat of both endpoint labels.
    fn edge_weight(
        graph: &LabelledGraph,
        hot: &FxHashMap<Label, f64>,
        u: VertexId,
        v: VertexId,
    ) -> f64 {
        let heat = |x: VertexId| {
            graph
                .label(x)
                .and_then(|l| hot.get(&l).copied())
                .unwrap_or(0.0)
        };
        BASE_EDGE_WEIGHT + heat(u) + heat(v)
    }

    /// Produce one bounded batch of moves for `partitioning` given the
    /// drifted workload's hot-label weights (`hot`, typically normalised so
    /// the hottest label weighs 1.0; labels absent from the map weigh 0).
    ///
    /// The plan is deterministic: candidates are scored against the input
    /// placement, sorted by `(gain, vertex id)`, and accepted greedily while
    /// they respect the partitioning's capacity and the move budget.
    pub fn plan(
        &self,
        graph: &LabelledGraph,
        partitioning: &Partitioning,
        hot: &FxHashMap<Label, f64>,
    ) -> MigrationPlan {
        let k = partitioning.k() as usize;
        let n = partitioning.assigned_count();
        if k < 2 || n == 0 {
            return MigrationPlan::default();
        }

        // Fennel-style α over the *weighted* edge mass, so the balance
        // penalty lives in the same units as the locality gain. Summed in id
        // order, not slot order, so a graph read back from a store plans
        // to the last bit as the one it was frozen from.
        let weighted_mass: f64 = graph
            .adjacency_ordered()
            .flat_map(|(v, _, ns)| ns.iter().filter(move |&&u| v < u).map(move |&u| (v, u)))
            .map(|(v, u)| Self::edge_weight(graph, hot, v, u))
            .sum();
        let alpha =
            BALANCE_PENALTY * weighted_mass.max(f64::MIN_POSITIVE) * (k as f64).powf(GAMMA - 1.0)
                / (n as f64).powf(GAMMA);
        let marginal = |size: usize| alpha * GAMMA * (size as f64).powf(GAMMA - 1.0);

        // Score every assigned vertex's best alternative partition.
        let mut candidates: Vec<VertexMove> = Vec::new();
        let mut affinity = vec![0.0f64; k];
        for v in graph.vertices_sorted() {
            let Some(from) = partitioning.partition_of(v) else {
                continue;
            };
            affinity.iter_mut().for_each(|a| *a = 0.0);
            let mut has_assigned_neighbour = false;
            for &u in graph.neighbors(v) {
                if let Some(p) = partitioning.partition_of(u) {
                    has_assigned_neighbour = true;
                    affinity[p.index()] += Self::edge_weight(graph, hot, v, u);
                }
            }
            if !has_assigned_neighbour {
                continue;
            }
            let mut best: Option<(usize, f64)> = None;
            for (p, &aff) in affinity.iter().enumerate() {
                if p == from.index() {
                    continue;
                }
                let locality = aff - affinity[from.index()];
                // Clamped at zero: a lighter target never *rewards* a move.
                // Rebalancing for its own sake is churn — the planner chases
                // locality only, with balance as a brake (and the capacity
                // cap as the hard ceiling).
                let penalty = (marginal(partitioning.size(PartitionId::new(p as u32)))
                    - marginal(partitioning.size(from).saturating_sub(1)))
                .max(0.0);
                let gain = locality - penalty;
                match best {
                    Some((_, bg)) if gain <= bg => {}
                    _ => best = Some((p, gain)),
                }
            }
            if let Some((p, gain)) = best {
                if gain > MIN_GAIN {
                    candidates.push(VertexMove {
                        vertex: v,
                        from,
                        to: PartitionId::new(p as u32),
                        gain,
                    });
                }
            }
        }

        // Best gains first; ties broken by vertex id for determinism.
        candidates.sort_by(|a, b| {
            b.gain
                .partial_cmp(&a.gain)
                .expect("gains are finite")
                .then_with(|| a.vertex.cmp(&b.vertex))
        });

        // Greedy acceptance under the move budget and the capacity cap. Each
        // candidate's gain is re-evaluated against the *tentative* placement
        // (the moves already accepted this batch) before it is taken —
        // without this, both sides of a cut edge can greedily swap past each
        // other and the batch oscillates instead of converging.
        let mut sizes: Vec<usize> = partitioning.sizes().to_vec();
        let capacity = partitioning.capacity();
        let mut tentative: FxHashMap<VertexId, u32> = FxHashMap::default();
        let mut moves = Vec::new();
        for m in candidates {
            if moves.len() >= self.config.max_moves {
                break;
            }
            if sizes[m.to.index()] >= capacity {
                continue;
            }
            let (mut aff_to, mut aff_from) = (0.0f64, 0.0f64);
            for &u in graph.neighbors(m.vertex) {
                let p = tentative
                    .get(&u)
                    .copied()
                    .or_else(|| partitioning.partition_of(u).map(|p| p.0));
                let Some(p) = p else { continue };
                let w = Self::edge_weight(graph, hot, m.vertex, u);
                if p == m.to.0 {
                    aff_to += w;
                } else if p == m.from.0 {
                    aff_from += w;
                }
            }
            let penalty = (marginal(sizes[m.to.index()])
                - marginal(sizes[m.from.index()].saturating_sub(1)))
            .max(0.0);
            let gain = aff_to - aff_from - penalty;
            if gain <= MIN_GAIN {
                continue;
            }
            tentative.insert(m.vertex, m.to.0);
            sizes[m.from.index()] -= 1;
            sizes[m.to.index()] += 1;
            moves.push(VertexMove { gain, ..m });
        }
        MigrationPlan { moves }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::generators::regular::path_graph;

    fn l(x: u32) -> Label {
        Label::new(x)
    }

    fn hot(labels: &[(u32, f64)]) -> FxHashMap<Label, f64> {
        labels.iter().map(|&(x, w)| (l(x), w)).collect()
    }

    /// Path a–b–c with a,b on p0 and c stranded on p1.
    fn split_path() -> (LabelledGraph, Partitioning) {
        let g = path_graph(3, &[l(0), l(1), l(2)]);
        let vs = g.vertices_sorted();
        let mut part = Partitioning::new(2, 8).unwrap();
        part.assign(vs[0], PartitionId::new(0)).unwrap();
        part.assign(vs[1], PartitionId::new(0)).unwrap();
        part.assign(vs[2], PartitionId::new(1)).unwrap();
        (g, part)
    }

    #[test]
    fn reunites_a_split_hot_motif() {
        let (g, mut part) = split_path();
        let vs = g.vertices_sorted();
        let planner = MigrationPlanner::new(MigrationConfig::new(4));
        let plan = planner.plan(&g, &part, &hot(&[(0, 1.0), (1, 1.0), (2, 1.0)]));
        assert_eq!(plan.len(), 1);
        let m = plan.moves[0];
        assert_eq!(m.vertex, vs[2]);
        assert_eq!(m.from, PartitionId::new(1));
        assert_eq!(m.to, PartitionId::new(0));
        assert!(m.gain > 0.0);
        plan.apply(&mut part).unwrap();
        assert_eq!(part.partition_of(vs[2]), Some(PartitionId::new(0)));
        assert_eq!(part.size(PartitionId::new(0)), 3);
        // Re-planning against the repaired placement finds nothing left.
        assert!(planner.plan(&g, &part, &hot(&[(0, 1.0)])).is_empty());
    }

    #[test]
    fn respects_the_capacity_cap() {
        let (g, part) = split_path();
        // Capacity 2: partition 0 is already full, so the repair is refused.
        let mut tight = Partitioning::new(2, 2).unwrap();
        for (v, p) in part.assignments() {
            tight.assign(v, p).unwrap();
        }
        let planner = MigrationPlanner::new(MigrationConfig::new(4));
        let plan = planner.plan(&g, &tight, &hot(&[(0, 1.0), (1, 1.0), (2, 1.0)]));
        assert!(plan.is_empty());
    }

    #[test]
    fn bounded_by_the_move_budget() {
        // Many independent split edges; budget 2 keeps the batch at 2 moves.
        let mut g = LabelledGraph::new();
        let mut part = Partitioning::new(2, 64).unwrap();
        for _ in 0..8 {
            let a = g.add_vertex(l(0));
            let b = g.add_vertex(l(1));
            g.add_edge(a, b).unwrap();
            part.assign(a, PartitionId::new(0)).unwrap();
            part.assign(b, PartitionId::new(1)).unwrap();
        }
        let planner = MigrationPlanner::new(MigrationConfig::new(2));
        let plan = planner.plan(&g, &part, &hot(&[(0, 1.0), (1, 1.0)]));
        assert_eq!(plan.len(), 2);
        assert!(plan.moves.iter().map(|m| m.gain).sum::<f64>() > 0.0);
    }

    #[test]
    fn min_gain_filters_churn() {
        // A placement with no positive-gain move plans nothing. Path a–b–c–d
        // cut between b and c, with an isolated vertex making p0 the heavier
        // side: moving b (or c) across buys no locality. b's move onto the
        // lighter p1 pays no balance penalty either, so its net gain is
        // exactly zero — churn the planner must not plan.
        let g = path_graph(4, &[l(0)]);
        let mut part = Partitioning::new(2, 8).unwrap();
        for (v, p) in g.vertices_sorted().into_iter().zip([0, 0, 1, 1]) {
            part.assign(v, PartitionId::new(p)).unwrap();
        }
        part.assign(VertexId::new(99), PartitionId::new(0)).unwrap();
        let planner = MigrationPlanner::new(MigrationConfig::new(4));
        assert!(planner.plan(&g, &part, &hot(&[(0, 1.0)])).is_empty());
    }

    #[test]
    fn balance_penalty_discourages_piling_onto_a_loaded_partition() {
        // A hub anchored to an already-heavy partition by ballast, with
        // leaves on the light one. The only locality-positive moves stack the
        // leaves onto the heavy partition: the balance penalty allows that
        // repair over twelve ballast vertices, and refuses it once the same
        // twelve form a clique and carry most of the weighted edge mass.
        let leaves_moved = |ballast_clique: bool| {
            let mut g = LabelledGraph::new();
            let mut part = Partitioning::new(2, 100).unwrap();
            let hub = g.add_vertex(l(0));
            part.assign(hub, PartitionId::new(1)).unwrap();
            let mut ballast = Vec::new();
            for _ in 0..12 {
                let b = g.add_vertex(l(2));
                g.add_edge(hub, b).unwrap();
                part.assign(b, PartitionId::new(1)).unwrap();
                ballast.push(b);
            }
            if ballast_clique {
                for (i, &x) in ballast.iter().enumerate() {
                    for &y in &ballast[i + 1..] {
                        g.add_edge(x, y).unwrap();
                    }
                }
            }
            for _ in 0..4 {
                let leaf = g.add_vertex(l(1));
                g.add_edge(hub, leaf).unwrap();
                part.assign(leaf, PartitionId::new(0)).unwrap();
            }
            let planner = MigrationPlanner::new(MigrationConfig::new(16));
            let plan = planner.plan(&g, &part, &hot(&[(0, 1.0), (1, 1.0), (2, 1.0)]));
            plan.moves
                .iter()
                .filter(|m| m.to == PartitionId::new(1))
                .count()
        };
        assert!(leaves_moved(false) > 0);
        assert_eq!(leaves_moved(true), 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let (g, part) = split_path();
        let planner = MigrationPlanner::default();
        let weights = hot(&[(0, 0.5), (1, 1.0), (2, 0.25)]);
        assert_eq!(
            planner.plan(&g, &part, &weights),
            planner.plan(&g, &part, &weights)
        );
    }
}
