//! Error types for the graph substrate.

use crate::ids::VertexId;
use std::fmt;

/// Errors produced by graph construction, decoding and generator code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An operation referenced a vertex that is not present in the graph.
    MissingVertex(VertexId),
    /// An edge insertion referenced the same vertex twice (self-loops are not
    /// supported by the partitioning model).
    SelfLoop(VertexId),
    /// An edge insertion would duplicate an existing edge.
    DuplicateEdge(VertexId, VertexId),
    /// A generator was asked for an impossible configuration
    /// (e.g. more edges than a simple graph can hold).
    InvalidGeneratorConfig(String),
    /// Malformed input: a torn or corrupt frame, or adjacency lists that do
    /// not describe one graph.
    Parse {
        /// 1-based line number of the offending input line; 0 where the
        /// input has no lines (frames, adjacency lists).
        line: usize,
        /// Description of what went wrong.
        message: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::MissingVertex(v) => write!(f, "vertex {v} is not in the graph"),
            GraphError::SelfLoop(v) => write!(f, "self-loop on vertex {v} is not supported"),
            GraphError::DuplicateEdge(a, b) => {
                write!(f, "edge ({a}, {b}) already exists")
            }
            GraphError::InvalidGeneratorConfig(msg) => {
                write!(f, "invalid generator configuration: {msg}")
            }
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, GraphError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let v = VertexId::new(3);
        assert!(GraphError::MissingVertex(v).to_string().contains("v3"));
        assert!(GraphError::SelfLoop(v).to_string().contains("self-loop"));
        assert!(GraphError::DuplicateEdge(v, VertexId::new(4))
            .to_string()
            .contains("already exists"));
        assert!(GraphError::Parse {
            line: 7,
            message: "bad label".into()
        }
        .to_string()
        .contains("line 7"));
    }
}
