//! Error type for the durability layer.

use std::fmt;
use std::path::{Path, PathBuf};

/// Errors produced while writing or recovering durable state.
#[derive(Debug)]
pub enum StoreError {
    /// An operating-system IO failure, annotated with the path involved.
    Io {
        /// The file or directory the operation touched.
        path: PathBuf,
        /// The underlying `std::io` error, stringified.
        source: String,
    },
    /// On-disk state failed validation: bad magic, checksum mismatch, a
    /// manifest that does not parse, blobs that are not a sound arena or do
    /// not round-trip, a log shorter than its checkpoint or with records
    /// missing between its segments.
    Corrupt {
        /// The file or directory that failed validation.
        path: PathBuf,
        /// What exactly was wrong.
        detail: String,
    },
}

impl StoreError {
    pub(crate) fn io(path: &Path, err: std::io::Error) -> Self {
        StoreError::Io {
            path: path.to_path_buf(),
            source: err.to_string(),
        }
    }

    pub(crate) fn corrupt(path: &Path, detail: impl Into<String>) -> Self {
        StoreError::Corrupt {
            path: path.to_path_buf(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "io error on {}: {source}", path.display())
            }
            StoreError::Corrupt { path, detail } => {
                write!(f, "corrupt durable state at {}: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Result alias for the durability layer.
pub type Result<T> = std::result::Result<T, StoreError>;
