//! Mutable adjacency-list directed graph used during loading and generation.
//!
//! [`DiGraph`] is the "host main memory" representation from the paper's
//! Fig. 2: the user points the host at a graph file, the host loads it here,
//! and every query then derives an immutable [`crate::CsrGraph`]
//! (possibly induced on a vertex subset) that is shipped to the device.

use crate::ids::{Edge, VertexId};
use crate::CsrGraph;
use serde::{Deserialize, Serialize};

/// A mutable, unlabelled, directed graph stored as out-adjacency lists.
///
/// Parallel edges are tolerated on insertion and removed by
/// [`DiGraph::dedup_edges`] or when converting to CSR with
/// [`DiGraph::to_csr`] (the paper's problem definition is on simple directed
/// graphs, and duplicate edges would only duplicate result paths).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DiGraph {
    /// `out[v]` holds the out-neighbours of `v` in insertion order.
    out: Vec<Vec<VertexId>>,
    /// Total number of directed edges currently stored (including duplicates).
    edge_count: usize,
}

impl DiGraph {
    /// Creates a graph with `n` isolated vertices `0..n`.
    pub fn new(n: usize) -> Self {
        DiGraph { out: vec![Vec::new(); n], edge_count: 0 }
    }

    /// Creates an empty graph with no vertices.
    pub fn empty() -> Self {
        Self::new(0)
    }

    /// Builds a graph from an iterator of `(from, to)` pairs, growing the
    /// vertex set to cover every endpoint.
    pub fn from_edges<I>(edges: I) -> Self
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        let mut g = DiGraph::empty();
        for (u, v) in edges {
            let needed = u.max(v) as usize + 1;
            if needed > g.out.len() {
                g.out.resize(needed, Vec::new());
            }
            g.add_edge(VertexId(u), VertexId(v));
        }
        g
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out.len()
    }

    /// Number of directed edges (parallel edges counted individually until
    /// [`DiGraph::dedup_edges`] is called).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edge_count
    }

    /// `true` when the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// Ensures the graph has at least `n` vertices.
    pub fn ensure_vertices(&mut self, n: usize) {
        if n > self.out.len() {
            self.out.resize(n, Vec::new());
        }
    }

    /// Adds the directed edge `from -> to`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    #[inline]
    pub fn add_edge(&mut self, from: VertexId, to: VertexId) {
        assert!(from.index() < self.out.len(), "edge source {from} out of range");
        assert!(to.index() < self.out.len(), "edge target {to} out of range");
        self.out[from.index()].push(to);
        self.edge_count += 1;
    }

    /// Adds `from -> to` unless it is a self loop or already present.
    ///
    /// Returns `true` when the edge was inserted. This is the convenient entry
    /// point for generators, which must not create self loops (a self loop can
    /// never be part of a simple path).
    ///
    /// The duplicate check scans `from`'s out-list, so one call costs
    /// O(out-degree of `from`) and building a row of degree `d` this way costs
    /// O(d²). A generator that cannot produce a duplicate should use
    /// [`DiGraph::add_edge`] with its own self-loop check.
    pub fn add_edge_unique(&mut self, from: VertexId, to: VertexId) -> bool {
        if from == to {
            return false;
        }
        if self.out[from.index()].contains(&to) {
            return false;
        }
        self.add_edge(from, to);
        true
    }

    /// Whether the directed edge `from -> to` exists.
    pub fn has_edge(&self, from: VertexId, to: VertexId) -> bool {
        self.out.get(from.index()).is_some_and(|ns| ns.contains(&to))
    }

    /// Out-neighbours of `v` in insertion order.
    #[inline]
    pub fn successors(&self, v: VertexId) -> &[VertexId] {
        &self.out[v.index()]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out[v.index()].len()
    }

    /// Iterator over every directed edge.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.out
            .iter()
            .enumerate()
            .flat_map(|(u, ns)| ns.iter().map(move |&v| Edge::new(VertexId::from_index(u), v)))
    }

    /// Iterator over all vertex ids `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        (0..self.out.len() as u32).map(VertexId)
    }

    /// Removes duplicate edges and self loops; sorts each adjacency list.
    pub fn dedup_edges(&mut self) {
        let mut edges = 0;
        for (u, ns) in self.out.iter_mut().enumerate() {
            ns.sort_unstable();
            ns.dedup();
            ns.retain(|v| v.index() != u);
            edges += ns.len();
        }
        self.edge_count = edges;
    }

    /// The reverse graph `G_rev`: every edge `(u, v)` becomes `(v, u)`.
    ///
    /// The paper uses the reverse graph to run the backward BFS from `t`
    /// during preprocessing (Section V).
    pub fn reverse(&self) -> DiGraph {
        let mut rev = DiGraph::new(self.num_vertices());
        for e in self.edges() {
            rev.add_edge(e.to, e.from);
        }
        rev
    }

    /// Converts to the immutable CSR representation, deduplicating edges and
    /// dropping self loops.
    pub fn to_csr(&self) -> CsrGraph {
        let mut builder = crate::CsrBuilder::new(self.num_vertices());
        for e in self.edges() {
            if e.from != e.to {
                builder.add_edge(e.from, e.to);
            }
        }
        builder.build()
    }
}

impl From<&CsrGraph> for DiGraph {
    fn from(csr: &CsrGraph) -> Self {
        let mut g = DiGraph::new(csr.num_vertices());
        for u in csr.vertices() {
            for &v in csr.successors(u) {
                g.add_edge(u, v);
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        DiGraph::from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn from_edges_grows_vertex_set() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn successors_and_degrees() {
        let g = diamond();
        assert_eq!(g.successors(VertexId(0)), &[VertexId(1), VertexId(2)]);
        assert_eq!(g.out_degree(VertexId(0)), 2);
        assert_eq!(g.out_degree(VertexId(3)), 0);
    }

    #[test]
    fn add_edge_unique_rejects_self_loops_and_duplicates() {
        let mut g = DiGraph::new(3);
        assert!(g.add_edge_unique(VertexId(0), VertexId(1)));
        assert!(!g.add_edge_unique(VertexId(0), VertexId(1)));
        assert!(!g.add_edge_unique(VertexId(2), VertexId(2)));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn reverse_flips_every_edge() {
        let g = diamond();
        let r = g.reverse();
        assert_eq!(r.num_edges(), g.num_edges());
        assert!(r.has_edge(VertexId(1), VertexId(0)));
        assert!(r.has_edge(VertexId(3), VertexId(2)));
        assert!(!r.has_edge(VertexId(0), VertexId(1)));
    }

    #[test]
    fn double_reverse_is_identity_on_edge_set() {
        let g = diamond();
        let rr = g.reverse().reverse();
        let mut a: Vec<_> = g.edges().collect();
        let mut b: Vec<_> = rr.edges().collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn dedup_removes_duplicates_and_self_loops() {
        let mut g = DiGraph::from_edges([(0, 1), (0, 1), (1, 1), (1, 2)]);
        assert_eq!(g.num_edges(), 4);
        g.dedup_edges();
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(VertexId(0), VertexId(1)));
        assert!(!g.has_edge(VertexId(1), VertexId(1)));
    }

    #[test]
    fn to_csr_preserves_adjacency() {
        let g = diamond();
        let csr = g.to_csr();
        assert_eq!(csr.num_vertices(), 4);
        assert_eq!(csr.num_edges(), 4);
        assert_eq!(csr.successors(VertexId(0)), &[VertexId(1), VertexId(2)]);
    }

    #[test]
    fn csr_roundtrip_back_to_digraph() {
        let g = diamond();
        let csr = g.to_csr();
        let g2 = DiGraph::from(&csr);
        let mut a: Vec<_> = g.edges().collect();
        let mut b: Vec<_> = g2.edges().collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn add_vertex_returns_fresh_ids() {
        let mut g = DiGraph::empty();
        g.ensure_vertices(5);
        assert_eq!(g.num_vertices(), 5);
        g.ensure_vertices(2);
        assert_eq!(g.num_vertices(), 5);
    }
}
