//! Runtime counters for the LOOM partitioner.

/// Counters describing what LOOM did while consuming a stream. Useful both
/// for the experiment reports and for sanity-checking that the workload-aware
/// machinery actually engaged (e.g. `motif_matches_found == 0` means the
/// partitioner degenerated to windowed LDG).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoomStats {
    /// Stream vertices ingested.
    pub vertices_ingested: usize,
    /// Stream edges ingested.
    pub edges_ingested: usize,
    /// Edges whose endpoints were both inside the window when they arrived
    /// (the only edges that can trigger motif matching).
    pub window_edges: usize,
    /// Signatures computed by the matcher.
    pub signatures_computed: usize,
    /// Motif matches discovered in the window.
    pub motif_matches_found: usize,
    /// Motif clusters assigned as a unit.
    pub clusters_assigned: usize,
    /// Total vertices assigned as part of motif clusters.
    pub cluster_vertices_assigned: usize,
    /// Largest cluster assigned as a unit.
    pub largest_cluster: usize,
    /// Clusters that exceeded `max_cluster_size` and were split (into
    /// connected chunks, or back into single-vertex assignments when chunked
    /// assignment is disabled).
    pub clusters_split_for_balance: usize,
    /// Vertices assigned individually with plain LDG.
    pub single_vertices_assigned: usize,
    /// Exact verifications performed on signature matches (0 unless
    /// verification is enabled).
    pub verifications: usize,
    /// Signature matches rejected by exact verification (signature
    /// collisions).
    pub false_positive_matches: usize,
}

impl LoomStats {
    /// Total vertices assigned (cluster + single).
    pub fn total_assigned(&self) -> usize {
        self.cluster_vertices_assigned + self.single_vertices_assigned
    }

    /// Fraction of assigned vertices that were placed as part of a motif
    /// cluster (0.0 when nothing has been assigned).
    pub fn cluster_fraction(&self) -> f64 {
        let total = self.total_assigned();
        if total == 0 {
            0.0
        } else {
            self.cluster_vertices_assigned as f64 / total as f64
        }
    }
}

impl std::fmt::Display for LoomStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "vertices={} edges={} matches={} clusters={} cluster_vertices={} singles={} split={}",
            self.vertices_ingested,
            self.edges_ingested,
            self.motif_matches_found,
            self.clusters_assigned,
            self.cluster_vertices_assigned,
            self.single_vertices_assigned,
            self.clusters_split_for_balance,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_figures() {
        let stats = LoomStats {
            cluster_vertices_assigned: 30,
            single_vertices_assigned: 70,
            ..LoomStats::default()
        };
        assert_eq!(stats.total_assigned(), 100);
        assert!((stats.cluster_fraction() - 0.3).abs() < 1e-12);
        assert_eq!(LoomStats::default().cluster_fraction(), 0.0);
        assert!(stats.to_string().contains("cluster_vertices=30"));
    }
}
