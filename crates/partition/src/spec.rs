//! Declarative partitioner specifications and the builder registry.
//!
//! A [`PartitionerSpec`] is plain `Copy` data describing *which*
//! partitioner to run with *which* parameters — the FDB-style declarative
//! layer over the fixed engines. The top-level `loom::Session` façade and
//! the benchmark construct partitioners from specs via a
//! [`PartitionerRegistry`] instead of hand-wired `match` arms, so a new
//! partitioner (or an extension crate's partitioner) plugs into every harness
//! at once.
//!
//! Layering: this crate's [`PartitionerRegistry::baselines`] can build the
//! workload-agnostic partitioners (Hash, LDG, Fennel). The workload-aware
//! LOOM partitioner additionally needs a mined workload summary, so
//! `loom-core` provides `workload_registry`, which extends the baseline
//! registry with a builder for [`PartitionerSpec::Loom`].

use crate::error::{PartitionError, Result};
use crate::fennel::{FennelConfig, FennelPartitioner};
use crate::hash::{HashConfig, HashPartitioner};
use crate::ldg::{LdgConfig, LdgPartitioner};
use crate::traits::Partitioner;

/// Configuration of the workload-aware LOOM partitioner (built by
/// `loom-core`'s `LoomPartitioner`; the config lives here so the declarative
/// [`PartitionerSpec`] layer can describe every partitioner in one enum).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoomConfig {
    /// Number of partitions `k`.
    pub k: u32,
    /// Expected number of vertices in the stream (drives the LDG capacity
    /// `C = slack · n / k`).
    pub expected_vertices: usize,
    /// Multiplicative balance slack (≥ 1.0).
    pub slack: f64,
    /// Size of the sliding stream window, in vertices.
    pub window_size: usize,
    /// The frequency threshold `T`: TPSTry++ nodes with a p-value at or above
    /// this are treated as motifs worth keeping intact.
    pub motif_threshold: f64,
    /// When `true`, every signature match is verified with exact labelled
    /// isomorphism before being used (Song et al.'s secondary check). The
    /// paper skips verification; enabling it is what makes the
    /// `verifications` and `false_positive_matches` counters of LOOM's stats
    /// (the benchmark's `core.verifications` and
    /// `core.false_positive_matches`) count the signature false-positive
    /// rate.
    pub verify_matches: bool,
}

impl LoomConfig {
    /// Sensible defaults for `k` partitions over a stream of about
    /// `expected_vertices` vertices.
    pub fn new(k: u32, expected_vertices: usize) -> Self {
        Self {
            k,
            expected_vertices,
            slack: 1.1,
            window_size: 256,
            motif_threshold: 0.4,
            verify_matches: false,
        }
    }

    /// Builder-style setter for the window size.
    #[must_use]
    pub fn with_window_size(mut self, window_size: usize) -> Self {
        self.window_size = window_size;
        self
    }

    /// Builder-style setter for the motif frequency threshold `T`.
    #[must_use]
    pub fn with_motif_threshold(mut self, threshold: f64) -> Self {
        self.motif_threshold = threshold;
        self
    }

    /// Builder-style setter for the balance slack.
    #[must_use]
    pub fn with_slack(mut self, slack: f64) -> Self {
        self.slack = slack;
        self
    }

    /// Enable exact verification of every signature match.
    #[must_use]
    pub fn with_verification(mut self) -> Self {
        self.verify_matches = true;
        self
    }

    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::InvalidConfig`] for out-of-range parameters.
    pub fn validate(&self) -> Result<()> {
        if self.k == 0 {
            return Err(PartitionError::InvalidConfig("k must be positive".into()));
        }
        if self.window_size == 0 {
            return Err(PartitionError::InvalidConfig(
                "window_size must be positive".into(),
            ));
        }
        if !self.slack.is_finite() || self.slack < 1.0 {
            return Err(PartitionError::InvalidConfig(format!(
                "slack must be >= 1.0, got {}",
                self.slack
            )));
        }
        if !(0.0..=1.0).contains(&self.motif_threshold) {
            return Err(PartitionError::InvalidConfig(format!(
                "motif_threshold must be in [0, 1], got {}",
                self.motif_threshold
            )));
        }
        Ok(())
    }
}

/// Which partitioner to run, with its full configuration — plain data, so
/// experiment configs can carry it declaratively.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PartitionerSpec {
    /// Hash placement (the distributed-store default strawman).
    Hash(HashConfig),
    /// Linear Deterministic Greedy (Stanton & Kliot, KDD 2012).
    Ldg(LdgConfig),
    /// Fennel (Tsourakakis et al., WSDM 2014).
    Fennel(FennelConfig),
    /// LOOM, the workload-aware partitioner (requires a mined workload; built
    /// by `loom-core`'s registry extension, not by
    /// [`PartitionerRegistry::baselines`]).
    Loom(LoomConfig),
}

impl PartitionerSpec {
    /// The short, stable partitioner name this spec builds.
    pub fn name(&self) -> &'static str {
        match self {
            PartitionerSpec::Hash(_) => "hash",
            PartitionerSpec::Ldg(_) => "ldg",
            PartitionerSpec::Fennel(_) => "fennel",
            PartitionerSpec::Loom(_) => "loom",
        }
    }

    /// The number of partitions the spec asks for.
    pub fn k(&self) -> u32 {
        match self {
            PartitionerSpec::Hash(c) => c.k,
            PartitionerSpec::Ldg(c) => c.k,
            PartitionerSpec::Fennel(c) => c.k,
            PartitionerSpec::Loom(c) => c.k,
        }
    }

    /// The vertex count the spec sizes its partitioner for (zero for hash
    /// placement, which sizes nothing by it).
    pub fn expected_vertices(&self) -> usize {
        match self {
            PartitionerSpec::Hash(_) => 0,
            PartitionerSpec::Ldg(c) => c.expected_vertices,
            PartitionerSpec::Fennel(c) => c.expected_vertices,
            PartitionerSpec::Loom(c) => c.expected_vertices,
        }
    }
}

/// A builder registered with a [`PartitionerRegistry`].
///
/// Returns `Ok(None)` when the spec is not one it handles (the registry then
/// tries the next builder), `Ok(Some(_))` on success, and `Err` when the spec
/// *is* handled but invalid.
pub type SpecBuilder =
    Box<dyn Fn(&PartitionerSpec) -> Result<Option<Box<dyn Partitioner>>> + Send + Sync>;

/// An ordered chain of [`SpecBuilder`]s mapping declarative
/// [`PartitionerSpec`]s to ready-to-run `Box<dyn Partitioner>` instances.
///
/// Builders registered later are consulted first, so higher layers can extend
/// (or override) the baselines: `loom-core`'s `workload_registry` registers a
/// LOOM builder on top of [`PartitionerRegistry::baselines`].
#[derive(Default)]
pub struct PartitionerRegistry {
    builders: Vec<SpecBuilder>,
}

impl std::fmt::Debug for PartitionerRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionerRegistry")
            .field("builders", &self.builders.len())
            .finish()
    }
}

impl PartitionerRegistry {
    /// An empty registry (no builder handles any spec).
    pub fn empty() -> Self {
        Self::default()
    }

    /// A registry able to build the workload-agnostic baselines: Hash, LDG
    /// and Fennel. [`PartitionerSpec::Loom`] is rejected with a pointer to
    /// `loom-core`'s `workload_registry`.
    pub fn baselines() -> Self {
        let mut registry = Self::empty();
        registry.register(|spec| {
            Ok(match *spec {
                PartitionerSpec::Hash(config) => {
                    Some(Box::new(HashPartitioner::from_config(config)?) as Box<dyn Partitioner>)
                }
                PartitionerSpec::Ldg(config) => Some(Box::new(LdgPartitioner::new(config)?)),
                PartitionerSpec::Fennel(config) => Some(Box::new(FennelPartitioner::new(config)?)),
                PartitionerSpec::Loom(_) => None,
            })
        });
        registry
    }

    /// Register a builder. It is consulted *before* previously registered
    /// builders, so later registrations extend or override earlier ones.
    pub fn register<F>(&mut self, builder: F)
    where
        F: Fn(&PartitionerSpec) -> Result<Option<Box<dyn Partitioner>>> + Send + Sync + 'static,
    {
        self.builders.push(Box::new(builder));
    }

    /// Build a partitioner from a spec.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::InvalidConfig`] when no registered builder
    /// handles the spec, and propagates the builder's own error when the spec
    /// is handled but invalid.
    pub fn build(&self, spec: &PartitionerSpec) -> Result<Box<dyn Partitioner>> {
        for builder in self.builders.iter().rev() {
            if let Some(partitioner) = builder(spec)? {
                return Ok(partitioner);
            }
        }
        Err(PartitionError::InvalidConfig(format!(
            "no registered builder handles the '{}' spec (LOOM specs need loom-core's \
             workload_registry or the loom::Session facade)",
            spec.name()
        )))
    }
}

/// Build one of the baseline partitioners (Hash, LDG, Fennel) from a spec
/// without constructing a registry first.
///
/// # Errors
///
/// Rejects [`PartitionerSpec::Loom`] (it needs a mined workload) and
/// propagates configuration errors.
pub fn build_baseline(spec: &PartitionerSpec) -> Result<Box<dyn Partitioner>> {
    PartitionerRegistry::baselines().build(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partitioning;
    use crate::traits::partition_stream;
    use loom_graph::generators::{barabasi_albert, GeneratorConfig};
    use loom_graph::ordering::StreamOrder;
    use loom_graph::GraphStream;

    fn specs() -> Vec<PartitionerSpec> {
        vec![
            PartitionerSpec::Hash(HashConfig::new(4, 300)),
            PartitionerSpec::Ldg(LdgConfig::new(4, 1_000)),
            PartitionerSpec::Fennel(FennelConfig::new(4, 1_000, 3_000)),
        ]
    }

    #[test]
    fn baselines_build_and_partition() {
        let graph = barabasi_albert(GeneratorConfig::new(1_000, 4, 3), 2).unwrap();
        let stream = GraphStream::from_graph(&graph, &StreamOrder::Bfs);
        let registry = PartitionerRegistry::baselines();
        for spec in specs() {
            let mut partitioner = registry.build(&spec).unwrap();
            assert_eq!(partitioner.name(), spec.name());
            let partitioning = partition_stream(partitioner.as_mut(), &stream).unwrap();
            assert_eq!(partitioning.assigned_count(), 1_000, "{}", spec.name());
        }
    }

    #[test]
    fn loom_spec_is_rejected_without_a_workload_registry() {
        let spec = PartitionerSpec::Loom(LoomConfig::new(4, 100));
        let err = build_baseline(&spec)
            .err()
            .expect("loom spec must be rejected");
        assert!(err.to_string().contains("workload_registry"));
    }

    #[test]
    fn later_registrations_take_precedence() {
        struct Stub(Partitioning);
        impl Partitioner for Stub {
            fn name(&self) -> &'static str {
                "stub"
            }
            fn ingest(&mut self, _: &loom_graph::StreamElement) -> Result<()> {
                Ok(())
            }
            fn partitioning(&self) -> &Partitioning {
                &self.0
            }
            fn finish(&mut self) -> Result<Partitioning> {
                Partitioning::new(1, 1)
            }
            fn encode_state(&self) -> Vec<u8> {
                Vec::new()
            }
            fn restore_state(
                &mut self,
                _: &[u8],
                _: &mut crate::state::ArenaHomes<'_>,
            ) -> Result<()> {
                Ok(())
            }
        }
        let mut registry = PartitionerRegistry::baselines();
        registry.register(|spec| {
            Ok(match spec {
                PartitionerSpec::Hash(_) => {
                    Some(Box::new(Stub(Partitioning::new(1, 1)?)) as Box<dyn Partitioner>)
                }
                _ => None,
            })
        });
        let built = registry
            .build(&PartitionerSpec::Hash(HashConfig::new(2, 10)))
            .unwrap();
        assert_eq!(built.name(), "stub");
        // Other specs still fall through to the baselines.
        let ldg = registry
            .build(&PartitionerSpec::Ldg(LdgConfig::new(2, 10)))
            .unwrap();
        assert_eq!(ldg.name(), "ldg");
    }

    #[test]
    fn spec_reports_name_and_k() {
        for spec in specs() {
            assert!(spec.k() == 4);
            assert!(!spec.name().is_empty());
        }
        assert_eq!(PartitionerSpec::Loom(LoomConfig::new(8, 10)).name(), "loom");
        assert_eq!(PartitionerSpec::Loom(LoomConfig::new(8, 10)).k(), 8);
    }

    #[test]
    fn invalid_baseline_configs_propagate_errors() {
        let registry = PartitionerRegistry::baselines();
        let bad = PartitionerSpec::Fennel(FennelConfig {
            gamma: 0.5,
            ..FennelConfig::new(4, 100, 300)
        });
        assert!(registry.build(&bad).is_err());
    }

    // LoomConfig's own validation tests (moved here with the type).

    #[test]
    fn loom_defaults_are_valid() {
        assert!(LoomConfig::new(4, 10_000).validate().is_ok());
    }

    #[test]
    fn loom_builders_set_fields() {
        let config = LoomConfig::new(4, 1_000)
            .with_window_size(64)
            .with_motif_threshold(0.25)
            .with_slack(1.5)
            .with_verification();
        assert_eq!(config.window_size, 64);
        assert!((config.motif_threshold - 0.25).abs() < 1e-12);
        assert!((config.slack - 1.5).abs() < 1e-12);
        assert!(config.verify_matches);
        assert!(config.validate().is_ok());
    }

    #[test]
    fn invalid_loom_configurations_are_rejected() {
        assert!(LoomConfig {
            k: 0,
            ..LoomConfig::new(4, 100)
        }
        .validate()
        .is_err());
        assert!(LoomConfig::new(4, 100)
            .with_window_size(0)
            .validate()
            .is_err());
        assert!(LoomConfig::new(4, 100).with_slack(0.9).validate().is_err());
        assert!(LoomConfig::new(4, 100)
            .with_motif_threshold(1.5)
            .validate()
            .is_err());
    }
}
