//! Workload-aware extension of the partitioner registry.
//!
//! [`loom_partition::spec::PartitionerRegistry::baselines`] can build the
//! workload-agnostic partitioners (Hash, LDG, Fennel) from declarative specs;
//! this module extends that registry with a builder for
//! [`PartitionerSpec::Loom`], which additionally needs the mined workload
//! summary. The top-level `loom::Session` façade and the benchmark construct
//! partitioners through one of these registries rather than hand-wired
//! `match` arms.

use crate::index::FrequentMotifIndex;
use crate::loom::LoomPartitioner;
use loom_motif::tpstry::Tpstry;
use loom_partition::spec::{PartitionerRegistry, PartitionerSpec};
use loom_partition::traits::Partitioner;

/// A registry able to build every partitioner in the workspace: the three
/// baselines plus LOOM, whose frequent motif index is derived from `tpstry`
/// at each spec's own `motif_threshold`.
pub fn workload_registry(tpstry: &Tpstry) -> PartitionerRegistry {
    let tpstry = tpstry.clone();
    let mut registry = PartitionerRegistry::baselines();
    registry.register(move |spec| {
        Ok(match spec {
            PartitionerSpec::Loom(config) => {
                let index = FrequentMotifIndex::new(&tpstry, config.motif_threshold);
                Some(Box::new(LoomPartitioner::with_index(*config, index)?) as Box<dyn Partitioner>)
            }
            _ => None,
        })
    });
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::ordering::StreamOrder;
    use loom_graph::GraphStream;
    use loom_motif::fixtures::{paper_example_graph, paper_example_workload};
    use loom_motif::mining::MotifMiner;
    use loom_partition::spec::LoomConfig;
    use loom_partition::traits::partition_stream;

    #[test]
    fn loom_builds_from_spec_through_the_registry() {
        let tpstry = MotifMiner::default()
            .mine(&paper_example_workload())
            .unwrap();
        let graph = paper_example_graph();
        let stream = GraphStream::from_graph(&graph, &StreamOrder::Bfs);
        let registry = workload_registry(&tpstry);
        let spec =
            PartitionerSpec::Loom(LoomConfig::new(2, graph.vertex_count()).with_window_size(4));
        let mut partitioner = registry.build(&spec).unwrap();
        assert_eq!(partitioner.name(), "loom");
        let partitioning = partition_stream(partitioner.as_mut(), &stream).unwrap();
        assert_eq!(partitioning.assigned_count(), graph.vertex_count());
    }

    #[test]
    fn baselines_still_build_through_the_extended_registry() {
        let tpstry = MotifMiner::default()
            .mine(&paper_example_workload())
            .unwrap();
        let registry = workload_registry(&tpstry);
        let spec = PartitionerSpec::Ldg(loom_partition::ldg::LdgConfig::new(4, 100));
        assert_eq!(registry.build(&spec).unwrap().name(), "ldg");
    }
}
