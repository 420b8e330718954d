//! Compressed Sparse Row (CSR) graph representation.
//!
//! The paper stores the preprocessed subgraph `G'` in FPGA DRAM using CSR
//! (Section V), and the device-side engine caches the two CSR arrays
//! (`vertex_arr`, `edge_arr`) in BRAM. This module provides the same layout:
//! an `offsets` array of length `|V|+1` and a flat `targets` array of length
//! `|E|`, so that the successors of `v` are `targets[offsets[v]..offsets[v+1]]`.

use crate::ids::{Edge, VertexId};
use serde::{Deserialize, Serialize};

/// Immutable directed graph in CSR form.
///
/// Adjacency lists are sorted by target id and deduplicated, which makes
/// result-path canonicalisation and equality tests deterministic.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` is the slice of `targets` holding v's successors.
    offsets: Vec<u32>,
    /// Flattened successor lists.
    targets: Vec<VertexId>,
}

impl CsrGraph {
    /// An empty graph with `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        CsrGraph { offsets: vec![0; n + 1], targets: Vec::new() }
    }

    /// Builds a CSR graph directly from an edge list (convenience for tests).
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut b = CsrBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(VertexId(u), VertexId(v));
        }
        b.build()
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        let i = v.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Successors (out-neighbours) of `v`, sorted by id.
    #[inline]
    pub fn successors(&self, v: VertexId) -> &[VertexId] {
        let i = v.index();
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The half-open range of edge indices owned by `v`.
    ///
    /// The PEFP engine's Batch-DFS keeps *neighbour pointers* into this range
    /// so a high-degree vertex can be expanded across several batches
    /// (Algorithm 4); exposing the raw range is what makes that possible.
    #[inline]
    pub fn neighbor_range(&self, v: VertexId) -> std::ops::Range<u32> {
        let i = v.index();
        self.offsets[i]..self.offsets[i + 1]
    }

    /// Slice of edge targets for an arbitrary edge-index range.
    #[inline]
    pub fn edge_slice(&self, range: std::ops::Range<u32>) -> &[VertexId] {
        &self.targets[range.start as usize..range.end as usize]
    }

    /// Whether the directed edge `from -> to` exists (binary search).
    pub fn has_edge(&self, from: VertexId, to: VertexId) -> bool {
        self.successors(from).binary_search(&to).is_ok()
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        (0..self.num_vertices() as u32).map(VertexId)
    }

    /// Iterator over every directed edge.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.vertices().flat_map(move |u| self.successors(u).iter().map(move |&v| Edge::new(u, v)))
    }

    /// The reverse graph `G_rev` in CSR form.
    pub fn reverse(&self) -> CsrGraph {
        let mut b = CsrBuilder::new(self.num_vertices());
        for e in self.edges() {
            b.add_edge(e.to, e.from);
        }
        b.build()
    }

    /// Raw CSR arrays `(offsets, targets)` — the exact layout transferred to
    /// device DRAM by the host (see `pefp-fpga`).
    pub fn raw_parts(&self) -> (&[u32], &[VertexId]) {
        (&self.offsets, &self.targets)
    }

    /// Size in bytes of the CSR arrays, used to model the PCIe transfer and
    /// decide whether the graph fits in BRAM.
    pub fn byte_size(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.targets.len() * std::mem::size_of::<VertexId>()
    }

    /// Maximum out-degree over all vertices (0 for an empty graph).
    pub fn max_out_degree(&self) -> usize {
        self.vertices().map(|v| self.out_degree(v)).max().unwrap_or(0)
    }
}

/// Incremental builder for [`CsrGraph`].
///
/// Edges may be added in any order; `build` sorts and deduplicates them using
/// a counting-sort style two-pass construction (no per-vertex `Vec`s), which
/// keeps peak memory at `O(|V| + |E|)`.
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl CsrBuilder {
    /// Creates a builder for a graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        CsrBuilder { num_vertices: n, edges: Vec::new() }
    }

    /// Creates a builder with capacity for `m` edges.
    pub fn with_edge_capacity(n: usize, m: usize) -> Self {
        CsrBuilder { num_vertices: n, edges: Vec::with_capacity(m) }
    }

    /// Adds the directed edge `from -> to`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    #[inline]
    pub fn add_edge(&mut self, from: VertexId, to: VertexId) {
        assert!(from.index() < self.num_vertices, "edge source {from} out of range");
        assert!(to.index() < self.num_vertices, "edge target {to} out of range");
        self.edges.push((from, to));
    }

    /// Number of edges added so far (before deduplication).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no edges have been added.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Finalises the CSR arrays: counting sort by source, then per-vertex sort
    /// and dedup of targets.
    pub fn build(mut self) -> CsrGraph {
        let n = self.num_vertices;
        let mut counts = vec![0u32; n + 1];
        for &(u, _) in &self.edges {
            counts[u.index() + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        // Scatter targets into place.
        let mut targets = vec![VertexId::INVALID; self.edges.len()];
        let mut cursor = counts.clone();
        for &(u, v) in &self.edges {
            let slot = cursor[u.index()] as usize;
            targets[slot] = v;
            cursor[u.index()] += 1;
        }
        self.edges.clear();
        self.edges.shrink_to_fit();

        // Sort + dedup each adjacency list, compacting in place.
        let mut offsets = vec![0u32; n + 1];
        let mut write = 0usize;
        for v in 0..n {
            let start = counts[v] as usize;
            let end = counts[v + 1] as usize;
            let list = &mut targets[start..end];
            list.sort_unstable();
            let mut prev: Option<VertexId> = None;
            let mut kept = 0usize;
            for i in 0..list.len() {
                let t = list[i];
                if prev != Some(t) {
                    list[kept] = t;
                    kept += 1;
                    prev = Some(t);
                }
            }
            // Move the kept prefix to the compacted position.
            for i in 0..kept {
                targets[write + i] = targets[start + i];
            }
            write += kept;
            offsets[v + 1] = write as u32;
        }
        targets.truncate(write);
        CsrGraph { offsets, targets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrGraph {
        CsrGraph::from_edges(5, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (0, 4)])
    }

    #[test]
    fn counts_are_correct() {
        let g = sample();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.out_degree(VertexId(0)), 3);
        assert_eq!(g.out_degree(VertexId(4)), 0);
    }

    #[test]
    fn successors_are_sorted_and_deduped() {
        let g = CsrGraph::from_edges(3, &[(0, 2), (0, 1), (0, 2), (0, 1)]);
        assert_eq!(g.successors(VertexId(0)), &[VertexId(1), VertexId(2)]);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn has_edge_uses_sorted_lists() {
        let g = sample();
        assert!(g.has_edge(VertexId(0), VertexId(4)));
        assert!(!g.has_edge(VertexId(4), VertexId(0)));
    }

    #[test]
    fn neighbor_range_matches_successors() {
        let g = sample();
        for v in g.vertices() {
            let r = g.neighbor_range(v);
            assert_eq!(g.edge_slice(r), g.successors(v));
        }
    }

    #[test]
    fn reverse_has_same_edge_count_and_flipped_edges() {
        let g = sample();
        let r = g.reverse();
        assert_eq!(r.num_edges(), g.num_edges());
        for e in g.edges() {
            assert!(r.has_edge(e.to, e.from));
        }
    }

    #[test]
    fn empty_graph_has_no_edges() {
        let g = CsrGraph::empty(3);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.successors(VertexId(1)), &[]);
        assert_eq!(g.max_out_degree(), 0);
    }

    #[test]
    fn byte_size_counts_both_arrays() {
        let g = sample();
        assert_eq!(g.byte_size(), (5 + 1) * 4 + 6 * 4);
    }

    #[test]
    fn builder_reports_len() {
        let mut b = CsrBuilder::with_edge_capacity(3, 4);
        assert!(b.is_empty());
        b.add_edge(VertexId(0), VertexId(1));
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
    }

    #[test]
    fn raw_parts_expose_csr_layout() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let (offsets, targets) = g.raw_parts();
        assert_eq!(offsets, &[0, 1, 2, 2]);
        assert_eq!(targets, &[VertexId(1), VertexId(2)]);
    }

    #[test]
    fn max_out_degree_finds_hub() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2)]);
        assert_eq!(g.max_out_degree(), 3);
    }
}
