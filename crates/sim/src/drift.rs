//! A two-phase drifting workload over one graph: the adaptation test bed.
//!
//! LOOM freezes workload awareness at mining time; this scenario manufactures
//! the situation that breaks that assumption. One graph carries two *disjoint*
//! planted motif families (an `a–b–c` path family on labels 0/1/2 and a
//! `d–e–f` family on labels 3/4/5). The query set is fixed across the run —
//! so query indices are stable and observed query-mix histograms stay
//! comparable — but the *frequencies* flip between phases:
//!
//! * **phase A** hammers the `abc` family (the mix the partitioning is mined
//!   and built for);
//! * **phase B** hammers the `def` family (the drifted traffic).
//!
//! A partitioning mined for phase A keeps `abc` instances intact but scatters
//! `def` instances, so its remote-hop fraction degrades when phase B arrives
//! — exactly the gap `loom-adapt` closes by incremental migration.

use loom_graph::generators::motif_planted::{MotifPlantConfig, PlantedInstance};
use loom_graph::generators::motif_planted_graph;
use loom_graph::generators::regular::path_graph;
use loom_graph::{Label, LabelledGraph};
use loom_motif::query::{PatternQuery, QueryId};
use loom_motif::workload::Workload;

/// Parameters of the two-phase drift scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftScenario {
    /// Background vertices around the planted motif instances.
    pub background_vertices: usize,
    /// Planted instances per motif family.
    pub instances_per_motif: usize,
    /// Frequency weight of the hot query in each phase.
    pub hot_weight: f64,
    /// Frequency weight of the cold query in each phase.
    pub cold_weight: f64,
    /// RNG seed for the graph plant.
    pub seed: u64,
}

impl DriftScenario {
    /// A scenario sized for CI smoke tests and the adaptation test suite.
    pub fn small(seed: u64) -> Self {
        Self {
            background_vertices: 600,
            instances_per_motif: 60,
            hot_weight: 9.0,
            cold_weight: 1.0,
            seed,
        }
    }

    /// The `abc` motif (hot in phase A).
    pub(crate) fn motif_a() -> LabelledGraph {
        path_graph(3, &[Label::new(0), Label::new(1), Label::new(2)])
    }

    /// The `def` motif (hot in phase B).
    pub(crate) fn motif_b() -> LabelledGraph {
        path_graph(3, &[Label::new(3), Label::new(4), Label::new(5)])
    }

    /// The fixed query set shared by both phases: `[abc, def]`. Keeping the
    /// set (and its order) constant across phases is what makes observed
    /// query-count histograms comparable between them.
    pub fn queries() -> Vec<PatternQuery> {
        vec![
            PatternQuery::path(
                QueryId::new(0),
                &[Label::new(0), Label::new(1), Label::new(2)],
            )
            .expect("valid abc query"),
            PatternQuery::path(
                QueryId::new(1),
                &[Label::new(3), Label::new(4), Label::new(5)],
            )
            .expect("valid def query"),
        ]
    }

    /// Generate the graph: a random background with both motif families
    /// planted disjointly, stitched in with one attachment edge each.
    ///
    /// # Errors
    ///
    /// Propagates generator configuration errors
    /// ([`loom_graph::error::GraphError`]) for degenerate sizes.
    pub fn build_graph(&self) -> loom_graph::error::Result<(LabelledGraph, Vec<PlantedInstance>)> {
        motif_planted_graph(
            &MotifPlantConfig {
                background_vertices: self.background_vertices,
                background_edges: self.background_vertices * 5 / 2,
                instances_per_motif: self.instances_per_motif,
                attachment_edges: 1,
                // A wide background alphabet keeps both query families
                // selective: accidental instances outside the plants are rare.
                label_count: 10,
                seed: self.seed,
            },
            &[Self::motif_a(), Self::motif_b()],
        )
    }

    /// The phase-A workload: `abc` hot, `def` cold.
    pub fn phase_a(&self) -> Workload {
        let qs = Self::queries();
        Workload::new(vec![
            (qs[0].clone(), self.hot_weight),
            (qs[1].clone(), self.cold_weight),
        ])
        .expect("valid phase-A workload")
    }

    /// The phase-B workload: `def` hot, `abc` cold — the drifted traffic.
    pub fn phase_b(&self) -> Workload {
        let qs = Self::queries();
        Workload::new(vec![
            (qs[0].clone(), self.cold_weight),
            (qs[1].clone(), self.hot_weight),
        ])
        .expect("valid phase-B workload")
    }
}

impl Default for DriftScenario {
    fn default() -> Self {
        Self::small(42)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_share_the_query_set_with_flipped_frequencies() {
        let scenario = DriftScenario::small(7);
        let (a, b) = (scenario.phase_a(), scenario.phase_b());
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
        for i in 0..2 {
            assert_eq!(a.queries()[i].id(), b.queries()[i].id());
        }
        assert!(a.frequency(0) > a.frequency(1));
        assert!(b.frequency(1) > b.frequency(0));
        // The flip is symmetric.
        assert!((a.frequency(0) - b.frequency(1)).abs() < 1e-12);
    }

    #[test]
    fn graph_plants_both_motif_families() {
        let scenario = DriftScenario {
            background_vertices: 120,
            instances_per_motif: 10,
            ..DriftScenario::small(3)
        };
        let (graph, instances) = scenario.build_graph().unwrap();
        assert!(graph.vertex_count() >= 120 + 2 * 10 * 3);
        assert_eq!(instances.len(), 20);
        assert!(instances.iter().any(|i| i.motif_index == 0));
        assert!(instances.iter().any(|i| i.motif_index == 1));
    }

    #[test]
    fn scenario_is_deterministic_per_seed() {
        let scenario = DriftScenario {
            background_vertices: 80,
            instances_per_motif: 5,
            ..DriftScenario::small(11)
        };
        let (g1, _) = scenario.build_graph().unwrap();
        let (g2, _) = scenario.build_graph().unwrap();
        assert_eq!(g1.vertex_count(), g2.vertex_count());
        assert_eq!(g1.edge_count(), g2.edge_count());
    }
}
