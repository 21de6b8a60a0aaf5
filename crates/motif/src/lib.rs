//! # loom-motif
//!
//! Query workloads, motifs and the TPSTry++ data structure for LOOM
//! (Firth & Missier, GraphQ@EDBT 2016).
//!
//! This crate implements everything the paper needs in order to reason about
//! a *workload of sub-graph pattern matching queries* `Q`:
//!
//! * [`query`] — pattern queries ([`PatternQuery`]) and their answer
//!   semantics (labelled sub-graph isomorphism, paper §2);
//! * [`isomorphism`] — a VF2-style backtracking matcher used to execute
//!   queries exactly and to verify signature matches;
//! * [`canonical`] — canonical codes for small labelled graphs, so that
//!   isomorphic motifs collapse onto a single TPSTry++ node;
//! * [`primes`] / [`signature`] — the number-theoretic graph signatures of
//!   Song et al. (VLDB'15) used by the paper for cheap, incremental,
//!   non-authoritative matching (§4.2–4.3);
//! * [`tpstry`] — the TPSTry++ DAG: an intensional encoding of the motifs
//!   that occur in `Q`, each node carrying its support and p-value (§4.2);
//! * [`mining`] — the paper's Algorithm 1, which weaves every connected
//!   sub-graph of each query graph into the TPSTry++;
//! * [`workload`] — workload model (queries + relative frequencies) and
//!   deterministic workload generators (path / branch / cycle queries with
//!   uniform or Zipf frequencies);
//! * [`fixtures`] — the worked examples from the paper's Figures 1–3, used
//!   in tests, examples and documentation.
//!
//! ## Example: mining motifs from the paper's example workload
//!
//! ```
//! use loom_motif::fixtures::paper_example_workload;
//! use loom_motif::mining::MotifMiner;
//!
//! let workload = paper_example_workload();
//! let miner = MotifMiner::default();
//! let tpstry = miner.mine(&workload).unwrap();
//! // The abc path is a frequent motif: it appears in q2 (a-b-c) and q3 (a-b-c-d).
//! assert!(tpstry.node_count() > 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod canonical;
pub mod error;
pub mod fixtures;
pub mod isomorphism;
pub mod mining;
pub mod primes;
pub mod query;
pub mod signature;
pub mod tpstry;
pub mod workload;

pub use error::MotifError;
pub use query::{PatternQuery, QueryId};
pub use signature::{PrimeTable, Signature};
pub use tpstry::{MotifId, Tpstry};
pub use workload::Workload;

/// Convenient re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::canonical::canonical_code;
    pub use crate::error::MotifError;
    pub use crate::fixtures::{paper_example_graph, paper_example_workload};
    pub use crate::isomorphism::find_matches;
    pub use crate::mining::MotifMiner;
    pub use crate::query::{PatternQuery, QueryId};
    pub use crate::signature::{PrimeTable, Signature};
    pub use crate::tpstry::{MotifId, Tpstry};
    pub use crate::workload::{Workload, WorkloadGenerator};
}
