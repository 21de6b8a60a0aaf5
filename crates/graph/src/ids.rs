//! Compact identifiers used throughout the LOOM stack.
//!
//! Vertices are identified by a 64-bit [`VertexId`]; vertex labels by a 32-bit
//! [`Label`]. Keeping these as transparent newtypes (rather than raw integers)
//! prevents the classic "which integer is this" bug class while costing
//! nothing at runtime.

use std::fmt;

/// Identifier of a vertex in a [`crate::LabelledGraph`] or a graph stream.
///
/// Ids are dense when produced by [`crate::LabelledGraph::add_vertex`] but the
/// data structures never rely on density, so externally supplied ids (e.g. from
/// an edge-list file) work too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct VertexId(pub u64);

impl VertexId {
    /// Create a vertex id from a raw integer.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw integer value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The raw value as a usize index (for dense arrays).
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u64> for VertexId {
    #[inline]
    fn from(raw: u64) -> Self {
        Self(raw)
    }
}

impl From<usize> for VertexId {
    #[inline]
    fn from(raw: usize) -> Self {
        Self(raw as u64)
    }
}

/// A vertex label.
///
/// Labels are small interned integers; the mapping to human-readable names is
/// kept in a [`crate::LabelInterner`]. The paper's example labels `a`, `b`,
/// `c`, `d` map to labels `0..4`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct Label(pub u32);

impl Label {
    /// Create a label from a raw integer.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// The raw integer value.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The raw value as a usize index (for dense arrays such as prime tables).
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Print small labels as letters to match the paper's figures.
        if self.0 < 26 {
            write!(f, "{}", (b'a' + self.0 as u8) as char)
        } else {
            write!(f, "l{}", self.0)
        }
    }
}

impl From<u32> for Label {
    #[inline]
    fn from(raw: u32) -> Self {
        Self(raw)
    }
}

/// An undirected edge between two vertices, stored in normalised (min, max)
/// order so that `(u, v)` and `(v, u)` compare equal and hash identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeKey {
    /// The smaller endpoint.
    pub lo: VertexId,
    /// The larger endpoint.
    pub hi: VertexId,
}

impl EdgeKey {
    /// Build a normalised edge key from two endpoints (in either order).
    #[inline]
    pub fn new(a: VertexId, b: VertexId) -> Self {
        if a <= b {
            Self { lo: a, hi: b }
        } else {
            Self { lo: b, hi: a }
        }
    }

    /// Returns the endpoint opposite to `v`, or `None` if `v` is not an
    /// endpoint of this edge.
    #[inline]
    pub fn other(self, v: VertexId) -> Option<VertexId> {
        if v == self.lo {
            Some(self.hi)
        } else if v == self.hi {
            Some(self.lo)
        } else {
            None
        }
    }
}

impl fmt::Display for EdgeKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.lo, self.hi)
    }
}

impl From<(VertexId, VertexId)> for EdgeKey {
    #[inline]
    fn from((a, b): (VertexId, VertexId)) -> Self {
        Self::new(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_id_roundtrip() {
        let v = VertexId::new(42);
        assert_eq!(v.raw(), 42);
        assert_eq!(v.index(), 42);
        assert_eq!(VertexId::from(42u64), v);
        assert_eq!(VertexId::from(42usize), v);
        assert_eq!(v.to_string(), "v42");
    }

    #[test]
    fn label_display_uses_letters_for_small_values() {
        assert_eq!(Label::new(0).to_string(), "a");
        assert_eq!(Label::new(3).to_string(), "d");
        assert_eq!(Label::new(25).to_string(), "z");
        assert_eq!(Label::new(26).to_string(), "l26");
    }

    #[test]
    fn edge_key_is_normalised() {
        let a = VertexId::new(7);
        let b = VertexId::new(3);
        let e1 = EdgeKey::new(a, b);
        let e2 = EdgeKey::new(b, a);
        assert_eq!(e1, e2);
        assert_eq!(e1.lo, b);
        assert_eq!(e1.hi, a);
        let self_loop = EdgeKey::new(a, a);
        assert_eq!((self_loop.lo, self_loop.hi), (a, a));
    }

    #[test]
    fn edge_key_other_endpoint() {
        let a = VertexId::new(1);
        let b = VertexId::new(2);
        let c = VertexId::new(3);
        let e = EdgeKey::new(a, b);
        assert_eq!(e.other(a), Some(b));
        assert_eq!(e.other(b), Some(a));
        assert_eq!(e.other(c), None);
    }

    #[test]
    fn label_ordering_is_raw_ordering() {
        assert!(Label::new(1) < Label::new(2));
        assert!(VertexId::new(9) < VertexId::new(10));
    }
}
