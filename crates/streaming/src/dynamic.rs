//! A mutable, timestamped transaction graph.
//!
//! The static substrate (`pefp-graph`) is immutable CSR, which is what the
//! enumeration engines want; the streaming application instead needs to add
//! an edge per transaction and drop edges as they age out of the detection
//! window. [`DynamicGraph`] keeps an adjacency-set representation with edge
//! timestamps and supports O(degree) insertion/removal. It is the
//! [`crate::window::SlidingWindow`]'s timestamp bookkeeping; the detector
//! queries the runtime's epoch-versioned graph, and
//! [`DynamicGraph::snapshot_csr`] serves the tests' rebuild-per-query
//! oracles.

use pefp_graph::{CsrGraph, VertexId};
use std::collections::BTreeMap;

/// A directed graph under edge insertions and deletions, with a timestamp per
/// edge (the latest transaction that asserted the edge).
#[derive(Debug, Clone, Default)]
pub struct DynamicGraph {
    /// adjacency[v] = map from successor to the latest timestamp.
    adjacency: Vec<BTreeMap<u32, u64>>,
    num_edges: usize,
}

impl DynamicGraph {
    /// Creates an empty graph with no vertices.
    pub fn new() -> Self {
        DynamicGraph::default()
    }

    /// Creates a graph with `n` isolated vertices.
    pub fn with_vertices(n: usize) -> Self {
        DynamicGraph { adjacency: vec![BTreeMap::new(); n], num_edges: 0 }
    }

    /// Number of vertices currently allocated.
    pub fn num_vertices(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of distinct directed edges currently present.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Grows the vertex set so `v` is a valid vertex.
    pub fn ensure_vertex(&mut self, v: VertexId) {
        if v.index() >= self.adjacency.len() {
            self.adjacency.resize(v.index() + 1, BTreeMap::new());
        }
    }

    /// Inserts (or refreshes the timestamp of) the edge `from → to`.
    /// Returns `true` when the edge is new.
    pub fn insert_edge(&mut self, from: VertexId, to: VertexId, timestamp: u64) -> bool {
        self.ensure_vertex(from);
        self.ensure_vertex(to);
        let is_new = self.adjacency[from.index()].insert(to.0, timestamp).is_none();
        if is_new {
            self.num_edges += 1;
        }
        is_new
    }

    /// Removes the edge `from → to` if present; returns `true` when removed.
    pub fn remove_edge(&mut self, from: VertexId, to: VertexId) -> bool {
        if from.index() >= self.adjacency.len() {
            return false;
        }
        let removed = self.adjacency[from.index()].remove(&to.0).is_some();
        if removed {
            self.num_edges -= 1;
        }
        removed
    }

    /// Whether the edge `from → to` is currently present.
    pub fn has_edge(&self, from: VertexId, to: VertexId) -> bool {
        self.adjacency.get(from.index()).is_some_and(|succ| succ.contains_key(&to.0))
    }

    /// The timestamp stored on edge `from → to`, if present.
    pub fn edge_timestamp(&self, from: VertexId, to: VertexId) -> Option<u64> {
        self.adjacency.get(from.index()).and_then(|succ| succ.get(&to.0).copied())
    }

    /// Out-degree of `v` (0 for out-of-range vertices).
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.adjacency.get(v.index()).map_or(0, |s| s.len())
    }

    /// Iterates over the successors of `v` in ascending id order.
    pub fn successors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.adjacency
            .get(v.index())
            .into_iter()
            .flat_map(|succ| succ.keys().copied().map(VertexId))
    }

    /// Removes every edge whose timestamp is strictly older than `cutoff`,
    /// appending each removed edge to `expired` — the removal list an
    /// epoch-versioned runtime mirror needs to stage the matching
    /// [`pefp_graph::GraphDelta`]. Returns the number of edges removed.
    // Kept out of line: this scan is the fraud stream's hottest loop, and
    // inlined into both `SlidingWindow` callers its `BTreeMap::retain`
    // compiled to a shape ~15% slower per transaction.
    #[inline(never)]
    pub fn expire_older_than_into(
        &mut self,
        cutoff: u64,
        expired: &mut Vec<(VertexId, VertexId)>,
    ) -> usize {
        let mut removed = 0;
        for (from, succ) in self.adjacency.iter_mut().enumerate() {
            let before = succ.len();
            succ.retain(|&to, &mut ts| {
                if ts >= cutoff {
                    true
                } else {
                    expired.push((VertexId(from as u32), VertexId(to)));
                    false
                }
            });
            removed += before - succ.len();
        }
        self.num_edges -= removed;
        removed
    }

    /// Snapshots the current edge set into the immutable CSR form the
    /// enumeration engines consume.
    pub fn snapshot_csr(&self) -> CsrGraph {
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(self.num_edges);
        for (from, succ) in self.adjacency.iter().enumerate() {
            for &to in succ.keys() {
                edges.push((from as u32, to));
            }
        }
        CsrGraph::from_edges(self.adjacency.len(), &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vid(v: u32) -> VertexId {
        VertexId(v)
    }

    #[test]
    fn insert_grows_the_vertex_set_and_counts_edges() {
        let mut g = DynamicGraph::new();
        assert!(g.insert_edge(vid(0), vid(5), 1));
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(vid(0), vid(5)));
        assert!(!g.has_edge(vid(5), vid(0)));
        assert_eq!(g.out_degree(vid(0)), 1);
        assert_eq!(g.out_degree(vid(9)), 0);
    }

    #[test]
    fn reinserting_an_edge_refreshes_its_timestamp_only() {
        let mut g = DynamicGraph::new();
        assert!(g.insert_edge(vid(1), vid(2), 10));
        assert!(!g.insert_edge(vid(1), vid(2), 20));
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_timestamp(vid(1), vid(2)), Some(20));
    }

    #[test]
    fn remove_edge_is_idempotent() {
        let mut g = DynamicGraph::new();
        g.insert_edge(vid(0), vid(1), 1);
        assert!(g.remove_edge(vid(0), vid(1)));
        assert!(!g.remove_edge(vid(0), vid(1)));
        assert!(!g.remove_edge(vid(7), vid(1)));
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn expiry_drops_exactly_the_old_edges() {
        let mut g = DynamicGraph::new();
        g.insert_edge(vid(0), vid(1), 5);
        g.insert_edge(vid(1), vid(2), 10);
        g.insert_edge(vid(2), vid(3), 15);
        let mut expired = Vec::new();
        let removed = g.expire_older_than_into(10, &mut expired);
        assert_eq!(removed, 1);
        assert_eq!(expired, vec![(vid(0), vid(1))]);
        assert!(!g.has_edge(vid(0), vid(1)));
        assert!(g.has_edge(vid(1), vid(2)));
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn snapshot_matches_the_dynamic_state() {
        let mut g = DynamicGraph::with_vertices(4);
        g.insert_edge(vid(0), vid(1), 1);
        g.insert_edge(vid(1), vid(2), 2);
        g.insert_edge(vid(2), vid(0), 3);
        g.insert_edge(vid(2), vid(3), 4);
        g.remove_edge(vid(2), vid(3));
        let csr = g.snapshot_csr();
        assert_eq!(csr.num_vertices(), 4);
        assert_eq!(csr.num_edges(), 3);
        assert!(csr.has_edge(vid(2), vid(0)));
        assert!(!csr.has_edge(vid(2), vid(3)));
    }

    #[test]
    fn successors_are_sorted_and_live() {
        let mut g = DynamicGraph::new();
        g.insert_edge(vid(0), vid(9), 1);
        g.insert_edge(vid(0), vid(3), 1);
        g.insert_edge(vid(0), vid(6), 1);
        let succ: Vec<VertexId> = g.successors(vid(0)).collect();
        assert_eq!(succ, vec![vid(3), vid(6), vid(9)]);
        assert!(g.successors(vid(42)).next().is_none());
    }

    #[test]
    fn empty_graph_snapshots_to_an_empty_csr() {
        let g = DynamicGraph::new();
        let csr = g.snapshot_csr();
        assert_eq!(csr.num_vertices(), 0);
        assert_eq!(csr.num_edges(), 0);
    }
}
