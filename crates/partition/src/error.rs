//! Error types for the partitioning layer.

use loom_graph::VertexId;
use std::fmt;

/// Errors produced by partitioner configuration and assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// A partitioner was configured with zero partitions or an impossible
    /// capacity.
    InvalidConfig(String),
    /// An assignment referenced a partition outside `0..k`.
    UnknownPartition {
        /// The offending partition index.
        partition: u32,
        /// The number of partitions configured.
        k: u32,
    },
    /// A vertex was assigned twice.
    AlreadyAssigned(VertexId),
    /// An operation needed a vertex that has not been assigned yet.
    NotAssigned(VertexId),
    /// An underlying graph operation failed.
    Graph(loom_graph::GraphError),
    /// A checkpointed partitioner state was written by a partitioner of
    /// another kind, configuration or workload than the one restoring it;
    /// the message names what differs.
    StateMismatch(String),
    /// A checkpointed partitioner state does not decode, or disagrees with
    /// the arena it was checkpointed beside.
    CorruptState(String),
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            PartitionError::UnknownPartition { partition, k } => {
                write!(f, "partition {partition} out of range (k = {k})")
            }
            PartitionError::AlreadyAssigned(v) => write!(f, "vertex {v} is already assigned"),
            PartitionError::NotAssigned(v) => write!(f, "vertex {v} has not been assigned"),
            PartitionError::Graph(err) => write!(f, "graph error: {err}"),
            PartitionError::StateMismatch(msg) => write!(f, "partitioner state mismatch: {msg}"),
            PartitionError::CorruptState(msg) => write!(f, "corrupt partitioner state: {msg}"),
        }
    }
}

impl std::error::Error for PartitionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PartitionError::Graph(err) => Some(err),
            _ => None,
        }
    }
}

impl From<loom_graph::GraphError> for PartitionError {
    fn from(err: loom_graph::GraphError) -> Self {
        PartitionError::Graph(err)
    }
}

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, PartitionError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(PartitionError::InvalidConfig("k = 0".into())
            .to_string()
            .contains("k = 0"));
        assert!(PartitionError::UnknownPartition { partition: 9, k: 4 }
            .to_string()
            .contains("out of range"));
        assert!(PartitionError::AlreadyAssigned(VertexId::new(2))
            .to_string()
            .contains("already"));
    }

    #[test]
    fn graph_error_converts() {
        let err: PartitionError = loom_graph::GraphError::MissingVertex(VertexId::new(0)).into();
        assert!(matches!(err, PartitionError::Graph(_)));
    }
}
