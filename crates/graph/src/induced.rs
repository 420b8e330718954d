//! Induced-subgraph extraction with vertex remapping.
//!
//! Theorem 1 of the paper: enumeration on `G` is equivalent to enumeration on
//! the subgraph induced by `{u | sd(s,u) + sd(u,t) <= k}`. Pre-BFS computes
//! that vertex set and this module extracts the induced subgraph, remapping
//! surviving vertices to a dense `0..n'` id space so that the device-side
//! arrays (CSR, barrier) stay small and contiguous.
//!
//! The mapping is stored sparsely: only the sorted `old_of_new` array (one
//! entry per *kept* vertex) is materialised, so an [`InducedSubgraph`] costs
//! O(|V'| + |E'|) memory rather than O(|V|). That matters for the host-side
//! `PreparedQuery` caches, which keep many induced subgraphs alive at once,
//! and it lets [`induce_subgraph_from_vertices`] build `G'` without ever
//! scanning the full vertex set of the data graph.

use crate::csr::{CsrBuilder, CsrGraph};
use crate::ids::VertexId;
use crate::view::GraphView;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// An induced subgraph together with the old↔new vertex id mappings.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InducedSubgraph {
    /// The induced subgraph with densely remapped vertex ids, shared so that
    /// downstream holders (prepared queries, payload encoders) can keep it
    /// alive without cloning the CSR arrays.
    pub graph: Arc<CsrGraph>,
    /// `old_of_new[v_new]` is the original id of new vertex `v_new`. Sorted
    /// ascending, which is what makes the sparse old→new lookup possible.
    pub old_of_new: Vec<VertexId>,
}

impl InducedSubgraph {
    /// Maps an original vertex id into the subgraph, if it survived.
    ///
    /// O(log |V'|) via binary search on the sorted kept list — the price of
    /// not materialising an O(|V|) lookup table per extraction.
    #[inline]
    pub fn to_new(&self, old: VertexId) -> Option<VertexId> {
        self.old_of_new.binary_search(&old).ok().map(VertexId::from_index)
    }

    /// Maps a subgraph vertex id back to the original graph.
    #[inline]
    pub fn to_old(&self, new: VertexId) -> VertexId {
        self.old_of_new[new.index()]
    }

    /// Number of vertices kept.
    pub fn num_kept(&self) -> usize {
        self.old_of_new.len()
    }

    /// Translates a path over subgraph ids back into original ids.
    pub fn translate_path(&self, path: &[VertexId]) -> Vec<VertexId> {
        path.iter().map(|&v| self.to_old(v)).collect()
    }
}

/// Extracts the subgraph of `g` induced by the vertices for which `keep`
/// returns `true`.
///
/// An edge `(u, v)` survives iff both endpoints are kept, exactly matching the
/// induced-subgraph definition in Section III of the paper. This variant scans
/// every vertex of `g` to evaluate the predicate; callers that already know
/// the kept set (e.g. from a bounded BFS frontier) should use
/// [`induce_subgraph_from_vertices`] instead, which only touches that set.
pub fn induce_subgraph<F>(g: &CsrGraph, mut keep: F) -> InducedSubgraph
where
    F: FnMut(VertexId) -> bool,
{
    let kept: Vec<VertexId> = g.vertices().filter(|&v| keep(v)).collect();
    induce_subgraph_from_vertices(g, kept)
}

/// Reusable old→new id translation table with epoch-stamped validity, the
/// extraction-side companion of `bfs::BfsScratch`: the dense arrays are
/// allocated once and revalidated per extraction through a generation
/// counter, so repeated extractions cost O(kept + edges kept), never O(|V|),
/// while edge remapping stays an O(1) array lookup.
#[derive(Debug, Default, Clone)]
pub struct RemapScratch {
    new_id: Vec<u32>,
    mark: Vec<u32>,
    epoch: u32,
}

impl RemapScratch {
    /// An empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        RemapScratch::default()
    }

    /// Opens a new epoch sized for `n` vertices, invalidating all previous
    /// entries in O(1) (except on counter wrap-around or graph resize).
    fn begin(&mut self, n: usize) {
        if self.new_id.len() != n {
            self.new_id = vec![0; n];
            self.mark = vec![0; n];
            self.epoch = 0;
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.mark.fill(0);
                1
            }
        };
    }
}

/// Extracts the subgraph induced by an explicit vertex list, touching only
/// the listed vertices and their out-edges; the epoch-stamped `scratch`
/// supplies O(1) old→new lookups without a per-call O(|V|) table build.
///
/// `kept` may be unsorted and contain duplicates; it is sorted and
/// deduplicated in place and becomes the subgraph's `old_of_new` mapping.
///
/// # Panics
///
/// Panics if any listed vertex is out of range for `g`.
pub fn induce_subgraph_from_vertices_with<G: GraphView + ?Sized>(
    scratch: &mut RemapScratch,
    g: &G,
    mut kept: Vec<VertexId>,
) -> InducedSubgraph {
    kept.sort_unstable();
    kept.dedup();
    if let Some(&last) = kept.last() {
        assert!(last.index() < g.num_vertices(), "kept vertex {last} out of range");
    }

    scratch.begin(g.num_vertices());
    for (new_v, &old_v) in kept.iter().enumerate() {
        scratch.mark[old_v.index()] = scratch.epoch;
        scratch.new_id[old_v.index()] = new_v as u32;
    }

    let mut builder = CsrBuilder::new(kept.len());
    for (new_u, &old_u) in kept.iter().enumerate() {
        let new_u = VertexId::from_index(new_u);
        for &old_v in g.successors(old_u) {
            if scratch.mark[old_v.index()] == scratch.epoch {
                builder.add_edge(new_u, VertexId(scratch.new_id[old_v.index()]));
            }
        }
    }

    InducedSubgraph { graph: Arc::new(builder.build()), old_of_new: kept }
}

/// One-shot form of [`induce_subgraph_from_vertices_with`] with fresh scratch.
pub fn induce_subgraph_from_vertices(g: &CsrGraph, kept: Vec<VertexId>) -> InducedSubgraph {
    induce_subgraph_from_vertices_with(&mut RemapScratch::new(), g, kept)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrGraph {
        // 0 -> 1 -> 2 -> 3, 0 -> 3, 1 -> 4 (4 is a dead end)
        CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (0, 3), (1, 4)])
    }

    #[test]
    fn keeping_everything_is_identity_up_to_ids() {
        let g = sample();
        let ind = induce_subgraph(&g, |_| true);
        assert_eq!(ind.graph.num_vertices(), g.num_vertices());
        assert_eq!(ind.graph.num_edges(), g.num_edges());
        for v in g.vertices() {
            assert_eq!(ind.to_new(v), Some(v));
            assert_eq!(ind.to_old(v), v);
        }
    }

    #[test]
    fn removed_vertices_drop_their_edges() {
        let g = sample();
        let ind = induce_subgraph(&g, |v| v != VertexId(4));
        assert_eq!(ind.graph.num_vertices(), 4);
        assert_eq!(ind.graph.num_edges(), 4); // the edge 1->4 is gone
        assert_eq!(ind.to_new(VertexId(4)), None);
    }

    #[test]
    fn ids_are_remapped_densely() {
        let g = sample();
        let ind = induce_subgraph(&g, |v| v.0 % 2 == 0); // keep 0, 2, 4
        assert_eq!(ind.num_kept(), 3);
        assert_eq!(ind.to_old(VertexId(0)), VertexId(0));
        assert_eq!(ind.to_old(VertexId(1)), VertexId(2));
        assert_eq!(ind.to_old(VertexId(2)), VertexId(4));
        // only 2->3 and 0->1, 1->2 cross removed vertices; no kept-kept edges remain
        assert_eq!(ind.graph.num_edges(), 0);
    }

    #[test]
    fn translate_path_round_trips() {
        let g = sample();
        let ind = induce_subgraph(&g, |v| v != VertexId(4));
        let new_path: Vec<VertexId> =
            [0u32, 1, 2, 3].iter().map(|&v| ind.to_new(VertexId(v)).unwrap()).collect();
        let old = ind.translate_path(&new_path);
        assert_eq!(old, vec![VertexId(0), VertexId(1), VertexId(2), VertexId(3)]);
    }

    #[test]
    fn vertex_list_variant_matches_closure_variant() {
        let g = sample();
        // Unsorted, with a duplicate: the list variant must normalise it.
        let list = induce_subgraph_from_vertices(
            &g,
            vec![VertexId(3), VertexId(0), VertexId(1), VertexId(3)],
        );
        let closure = induce_subgraph(&g, |v| matches!(v.0, 0 | 1 | 3));
        assert_eq!(list.graph, closure.graph);
        assert_eq!(list.old_of_new, closure.old_of_new);
        assert_eq!(list.graph.num_edges(), 2); // 0->1, 0->3 survive; 1's edges go to dropped 2/4
    }

    #[test]
    fn dirty_remap_scratch_matches_fresh_extraction() {
        let g = sample();
        let mut scratch = RemapScratch::new();
        // Dirty the scratch with one extraction, then check three more.
        induce_subgraph_from_vertices_with(&mut scratch, &g, vec![VertexId(2), VertexId(4)]);
        for kept in [vec![0u32, 1, 3], vec![0, 1, 2, 3, 4], vec![4]] {
            let kept: Vec<VertexId> = kept.into_iter().map(VertexId).collect();
            let reused = induce_subgraph_from_vertices_with(&mut scratch, &g, kept.clone());
            let fresh = induce_subgraph_from_vertices(&g, kept);
            assert_eq!(reused.graph, fresh.graph);
            assert_eq!(reused.old_of_new, fresh.old_of_new);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn vertex_list_out_of_range_is_rejected() {
        let g = sample();
        induce_subgraph_from_vertices(&g, vec![VertexId(0), VertexId(99)]);
    }

    #[test]
    fn empty_selection_yields_empty_graph() {
        let g = sample();
        let ind = induce_subgraph(&g, |_| false);
        assert_eq!(ind.graph.num_vertices(), 0);
        assert_eq!(ind.graph.num_edges(), 0);
        assert_eq!(ind.num_kept(), 0);
    }
}
