//! Deletion churn: grow a motif-rich graph, then dissolve part of it.
//!
//! The insert-only scenario ([`crate::drift`]) never exercises the
//! destructive half of the mutation stream. This scenario does:
//! a background graph is planted with `abc` motif instances, streamed in as
//! a normal build phase, and then a **dissolve phase** tears a configured
//! fraction of the planted instances back down — edge removals first, then
//! vertex removals — while another slice of instances is *relabelled* off
//! the query alphabet (the instance survives physically but stops matching).
//!
//! The scenario is the test bed for the tombstone/compaction stack: matches
//! must drop by exactly the dissolved instances, serving must answer
//! correctly from tombstoned stores during the churn, and epoch compaction
//! must reclaim the space afterwards. The churn benchmark measures qps and
//! tail latency before, during and after the dissolve phase.

use loom_graph::generators::motif_planted::{MotifPlantConfig, PlantedInstance};
use loom_graph::generators::motif_planted_graph;
use loom_graph::generators::regular::path_graph;
use loom_graph::ordering::StreamOrder;
use loom_graph::{GraphStream, Label, LabelledGraph, StreamElement};
use loom_motif::query::{PatternQuery, QueryId};
use loom_motif::workload::Workload;

/// Parameters of the deletion-churn scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeletionChurnScenario {
    /// Background vertices around the planted motif instances.
    pub background_vertices: usize,
    /// Planted `abc` instances.
    pub instances: usize,
    /// Fraction of planted instances torn down in the dissolve phase.
    pub dissolve_fraction: f64,
    /// Fraction of planted instances whose head vertex is relabelled off the
    /// query alphabet instead of being removed.
    pub relabel_fraction: f64,
    /// RNG seed for the graph plant.
    pub seed: u64,
}

/// Label the relabel slice retires instance heads to: outside the `abc`
/// query alphabet, so a relabelled instance stops matching.
pub(crate) const RETIRED_LABEL: Label = Label::new(9);

impl DeletionChurnScenario {
    /// A scenario sized for CI smoke tests.
    pub fn small(seed: u64) -> Self {
        Self {
            background_vertices: 600,
            instances: 60,
            dissolve_fraction: 0.5,
            relabel_fraction: 0.1,
            seed,
        }
    }

    /// The planted `abc` motif.
    pub fn motif() -> LabelledGraph {
        path_graph(3, &[Label::new(0), Label::new(1), Label::new(2)])
    }

    /// The fixed single-query workload: the `abc` path.
    pub fn workload() -> Workload {
        Workload::uniform(vec![PatternQuery::path(
            QueryId::new(0),
            &[Label::new(0), Label::new(1), Label::new(2)],
        )
        .expect("valid abc query")])
        .expect("valid churn workload")
    }

    /// Generate the scenario: the fully grown graph, its build stream, the
    /// dissolve-phase mutation stream, and the graph state after the churn.
    ///
    /// # Errors
    ///
    /// Propagates generator configuration errors for degenerate sizes.
    pub fn build(&self) -> loom_graph::error::Result<ChurnRun> {
        let (graph, instances) = motif_planted_graph(
            &MotifPlantConfig {
                background_vertices: self.background_vertices,
                background_edges: self.background_vertices * 5 / 2,
                instances_per_motif: self.instances,
                attachment_edges: 1,
                label_count: 10,
                seed: self.seed,
            },
            &[Self::motif()],
        )?;
        let build_stream = GraphStream::from_graph(&graph, &StreamOrder::Bfs);
        let (dissolve, dissolved_instances, relabelled_instances) =
            self.dissolve_elements(&instances);
        let mut final_graph = graph.clone();
        for element in &dissolve {
            final_graph.apply(element);
        }
        Ok(ChurnRun {
            graph,
            build_stream,
            dissolve,
            final_graph,
            dissolved_instances,
            relabelled_instances,
        })
    }

    /// The dissolve-phase mutation stream: instance teardown is
    /// deterministic (first `dissolve_fraction` of the plant list, in plant
    /// order), each torn edge-first so the stream exercises both
    /// `RemoveEdge` and `RemoveVertex`; the next `relabel_fraction` of
    /// instances get their head relabelled to [`RETIRED_LABEL`].
    fn dissolve_elements(
        &self,
        instances: &[PlantedInstance],
    ) -> (Vec<StreamElement>, usize, usize) {
        let dissolve =
            ((instances.len() as f64) * self.dissolve_fraction.clamp(0.0, 1.0)).round() as usize;
        let relabel =
            ((instances.len() as f64) * self.relabel_fraction.clamp(0.0, 1.0)).round() as usize;
        let relabel = relabel.min(instances.len() - dissolve);
        let mut elements = Vec::new();
        for instance in instances.iter().take(dissolve) {
            if instance.vertices.len() >= 2 {
                elements.push(StreamElement::RemoveEdge {
                    source: instance.vertices[0],
                    target: instance.vertices[1],
                });
            }
            for &v in &instance.vertices {
                elements.push(StreamElement::RemoveVertex { id: v });
            }
        }
        for instance in instances.iter().skip(dissolve).take(relabel) {
            elements.push(StreamElement::Relabel {
                id: instance.vertices[0],
                label: RETIRED_LABEL,
            });
        }
        (elements, dissolve, relabel)
    }
}

impl Default for DeletionChurnScenario {
    fn default() -> Self {
        Self::small(42)
    }
}

/// One generated churn run: the grown graph and the two phase streams.
#[derive(Debug, Clone)]
pub struct ChurnRun {
    /// The fully grown graph (end of the build phase, before any dissolve).
    pub graph: LabelledGraph,
    /// The build-phase stream (insert-only, BFS order).
    pub build_stream: GraphStream,
    /// The dissolve-phase mutation stream (removals and relabels only).
    pub dissolve: Vec<StreamElement>,
    /// The graph after the dissolve phase — the from-scratch reference any
    /// mutation-applying store must converge to.
    pub final_graph: LabelledGraph,
    /// Planted instances physically torn down by the dissolve stream.
    pub dissolved_instances: usize,
    /// Planted instances retired by relabelling their head.
    pub relabelled_instances: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::{execute_plan, ExecOptions};
    use crate::plan::QueryPlan;
    use crate::store::PartitionedStore;
    use loom_partition::partition::Partitioning;

    /// The embeddings of the workload's one query, enumerated in full.
    fn count_matches(graph: &LabelledGraph, workload: &Workload) -> usize {
        let part = Partitioning::new(1, graph.vertex_count().max(1)).unwrap();
        let store = PartitionedStore::new(graph.clone(), part);
        let [query] = workload.queries() else {
            panic!("the churn workload is one query");
        };
        let plan = QueryPlan::legacy(query);
        execute_plan(&store, &plan, &ExecOptions::default())
            .metrics
            .matches_found
    }

    #[test]
    fn dissolve_stream_tears_down_the_requested_fraction() {
        let scenario = DeletionChurnScenario {
            background_vertices: 120,
            instances: 10,
            dissolve_fraction: 0.5,
            relabel_fraction: 0.2,
            ..DeletionChurnScenario::small(3)
        };
        let run = scenario.build().unwrap();
        assert_eq!(run.dissolved_instances, 5);
        assert_eq!(run.relabelled_instances, 2);
        // Each dissolved abc instance removes its three vertices.
        assert_eq!(
            run.final_graph.vertex_count(),
            run.graph.vertex_count() - 3 * run.dissolved_instances
        );
        assert!(run.final_graph.edge_count() < run.graph.edge_count());
        // The dissolve stream is destructive only.
        assert!(run.dissolve.iter().all(|e| e.is_mutation()));
        assert!(!run.dissolve.is_empty());
    }

    #[test]
    fn dissolving_and_relabelling_instances_removes_their_matches() {
        let scenario = DeletionChurnScenario {
            background_vertices: 120,
            instances: 10,
            dissolve_fraction: 0.5,
            relabel_fraction: 0.2,
            ..DeletionChurnScenario::small(3)
        };
        let run = scenario.build().unwrap();
        let workload = DeletionChurnScenario::workload();
        let before = count_matches(&run.graph, &workload);
        let after = count_matches(&run.final_graph, &workload);
        // Every torn or retired instance takes at least one embedding with it.
        assert!(
            before >= after + run.dissolved_instances + run.relabelled_instances,
            "matches must drop with the dissolved instances: {before} -> {after}"
        );
    }

    #[test]
    fn scenario_is_deterministic_per_seed() {
        let scenario = DeletionChurnScenario::small(11);
        let a = scenario.build().unwrap();
        let b = scenario.build().unwrap();
        assert_eq!(a.dissolve, b.dissolve);
        assert_eq!(a.build_stream.elements(), b.build_stream.elements());
        assert_eq!(a.final_graph.vertex_count(), b.final_graph.vertex_count());
    }
}
