//! Strongly-typed vertex identifiers.
//!
//! Vertex ids are `u32` throughout the system: the paper stores a path as a
//! fixed-width row of 32-bit vertex ids in BRAM, and the largest evaluated
//! graph (DBpedia, 18M vertices) fits comfortably in 32 bits. Using a newtype
//! keeps vertex ids from being mixed up with counts, offsets or hop budgets.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a vertex inside one graph.
///
/// The value is an index into the graph's vertex arrays, i.e. it is only
/// meaningful together with the graph it came from. Induced subgraphs remap
/// ids densely (see [`crate::induced`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[repr(transparent)]
pub struct VertexId(pub u32);

impl VertexId {
    /// Sentinel used where "no vertex" must be representable in dense arrays
    /// (e.g. the predecessor array of a BFS before a vertex is discovered).
    pub const INVALID: VertexId = VertexId(u32::MAX);

    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a [`VertexId`] from a `usize` index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        debug_assert!(index < u32::MAX as usize, "vertex index {index} overflows u32");
        VertexId(index as u32)
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u32> for VertexId {
    #[inline]
    fn from(v: u32) -> Self {
        VertexId(v)
    }
}

impl From<VertexId> for u32 {
    #[inline]
    fn from(v: VertexId) -> Self {
        v.0
    }
}

/// A directed edge `(from, to)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Edge {
    /// Source endpoint.
    pub from: VertexId,
    /// Destination endpoint.
    pub to: VertexId,
}

impl Edge {
    /// Creates an edge from `from` to `to`.
    #[inline]
    pub fn new(from: VertexId, to: VertexId) -> Self {
        Edge { from, to }
    }

    /// The same edge with endpoints swapped (for reverse graphs).
    #[inline]
    pub fn reversed(self) -> Self {
        Edge { from: self.to, to: self.from }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_id_roundtrips_through_index() {
        let v = VertexId::from_index(42);
        assert_eq!(v.index(), 42);
        assert_eq!(u32::from(v), 42);
        assert_eq!(VertexId::from(42u32), v);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(VertexId(7).to_string(), "v7");
    }

    #[test]
    fn edge_reversal_swaps_endpoints() {
        let e = Edge::new(VertexId(1), VertexId(2));
        let r = e.reversed();
        assert_eq!(r.from, VertexId(2));
        assert_eq!(r.to, VertexId(1));
        assert_eq!(r.reversed(), e);
    }

    #[test]
    fn ordering_is_lexicographic_on_the_raw_value() {
        let mut v = vec![VertexId(3), VertexId(1), VertexId(2)];
        v.sort();
        assert_eq!(v, vec![VertexId(1), VertexId(2), VertexId(3)]);
    }
}
