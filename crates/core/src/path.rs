//! Intermediate path rows.
//!
//! On the FPGA an intermediate path occupies a fixed-width row of BRAM (the
//! hop constraint bounds the number of vertices), together with the *neighbour
//! pointers* that Batch-DFS uses to split a high-degree vertex's expansion
//! across several batches (Algorithm 4 of the paper). [`TempPath`] mirrors
//! that layout: an inline vertex array plus a cursor window into the CSR edge
//! array, with no heap allocation in the hot loop.
//!
//! Two widths are kept apart:
//!
//! * The **simulated row** is the same for every query: `MAX_K + 1` vertex
//!   slots plus a length word and the two neighbour pointers, i.e. 124 bytes
//!   of vertex payload in a 136-byte row
//!   ([`PATH_ROW_BYTES`](crate::engine::memory::PATH_ROW_BYTES)). BRAM
//!   allocation is sized by it, and [`TempPath::words`] (the DMA and flush
//!   word count) depends only on the path's length, so neither moves with the
//!   host representation.
//! * The **host storage** width `W` is a const generic: the engine picks 8
//!   vertex slots for `k <= 7` and `MAX_K + 1` otherwise, once per run, so a
//!   `k = 7` path is a 44-byte value instead of a 136-byte one. `W` changes
//!   how fast the simulator copies paths, never what it simulates.

use pefp_graph::{CsrGraph, VertexId};

/// Maximum supported hop constraint.
///
/// The paper evaluates `k ≤ 13`; 30 leaves generous headroom while keeping
/// the simulated path row at `MAX_K + 1` vertex slots (124 bytes of payload).
pub const MAX_K: usize = 30;

/// A partial path held in the buffer/processing area or spilled to DRAM,
/// stored in `W` vertex slots on the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TempPath<const W: usize = { MAX_K + 1 }> {
    /// Number of vertices currently on the path (`1..=W`).
    len: u8,
    /// Inline vertex storage; slots `len..` are unspecified.
    vertices: [VertexId; W],
    /// Next unconsumed successor of the last vertex, as an index into the CSR
    /// edge array ("end neighbour pointer" in Algorithm 4).
    nbr_next: u32,
    /// End of the successor window this copy is allowed to expand
    /// ("last neighbour pointer" for buffer-resident paths, the batch window
    /// end for processing-area copies).
    nbr_end: u32,
}

impl<const W: usize> TempPath<W> {
    /// Creates the initial single-vertex path `{s}` with the full successor
    /// range of `s`.
    pub fn initial(g: &CsrGraph, s: VertexId) -> Self {
        const { assert!(W >= 1 && W <= MAX_K + 1, "a host row holds 1..=MAX_K + 1 vertices") };
        let range = g.neighbor_range(s);
        let mut vertices = [VertexId::INVALID; W];
        vertices[0] = s;
        TempPath { len: 1, vertices, nbr_next: range.start, nbr_end: range.end }
    }

    /// Extends this path with successor `v`, giving the new path the full
    /// successor range of `v`.
    ///
    /// # Panics
    ///
    /// Panics if the path already holds `W` vertices.
    pub fn extended(&self, g: &CsrGraph, v: VertexId) -> Self {
        let mut next = *self;
        next.push(g, v);
        next
    }

    /// [`Self::extended`] in place: appends `v` and switches the window to
    /// the full successor range of `v`.
    ///
    /// # Panics
    ///
    /// Panics if the path already holds `W` vertices.
    pub(crate) fn push(&mut self, g: &CsrGraph, v: VertexId) {
        assert!((self.len as usize) < W, "path exceeds its {W}-vertex row (MAX_K = {MAX_K} hops)");
        self.vertices[self.len as usize] = v;
        self.len += 1;
        let range = g.neighbor_range(v);
        self.nbr_next = range.start;
        self.nbr_end = range.end;
    }

    /// Number of vertices on the path.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.len as usize
    }

    /// Number of hops (`len(p)` in the paper's notation).
    #[inline]
    pub fn hops(&self) -> u32 {
        (self.len - 1) as u32
    }

    /// The last vertex of the path.
    #[inline]
    pub fn last(&self) -> VertexId {
        self.vertices[(self.len - 1) as usize]
    }

    /// The vertex sequence of the path.
    #[inline]
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices[..self.len as usize]
    }

    /// Whether `v` already appears on the path (the *visited check*). The loop
    /// has a constant bound (`MAX_K + 1` on the device), which is what allows
    /// the FPGA design to unroll it into parallel comparators.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.vertices().contains(&v)
    }

    /// Materialises the path as an owned `Vec` (for result emission).
    pub fn to_vec(&self) -> Vec<VertexId> {
        self.vertices().to_vec()
    }

    /// Current successor-window start (CSR edge index).
    #[inline]
    pub fn window_start(&self) -> u32 {
        self.nbr_next
    }

    /// Current successor-window end (CSR edge index, exclusive).
    #[inline]
    pub fn window_end(&self) -> u32 {
        self.nbr_end
    }

    /// Number of successors still assigned to this copy.
    #[inline]
    pub fn window_len(&self) -> u32 {
        self.nbr_end - self.nbr_next
    }

    /// Whether every successor of the last vertex has been handed out.
    #[inline]
    pub fn window_exhausted(&self) -> bool {
        self.nbr_next >= self.nbr_end
    }

    /// Splits off a window of at most `quota` successors for the processing
    /// area and advances this path's cursor past it (Algorithm 4, lines 5–12).
    ///
    /// Returns the processing-area copy, or `None` when the window is empty.
    pub fn take_window(&mut self, quota: u32) -> Option<Self> {
        if self.window_exhausted() || quota == 0 {
            return None;
        }
        let take = quota.min(self.window_len());
        let mut batch_copy = *self;
        batch_copy.nbr_end = self.nbr_next + take;
        self.nbr_next += take;
        Some(batch_copy)
    }

    /// Size of this path in 32-bit words as stored on the device: the vertex
    /// payload, a length word and the two neighbour pointers. It depends on
    /// the path's length only, not on the host width `W`.
    pub fn words(&self) -> u64 {
        self.len as u64 + 3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pefp_graph::CsrGraph;

    /// The full-width row: the host width the engine uses for `k >= 8`.
    type Row = TempPath;

    fn graph() -> CsrGraph {
        CsrGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 4), (2, 4)])
    }

    #[test]
    fn initial_path_has_the_full_window_of_s() {
        let g = graph();
        let p = Row::initial(&g, VertexId(0));
        assert_eq!(p.num_vertices(), 1);
        assert_eq!(p.hops(), 0);
        assert_eq!(p.last(), VertexId(0));
        assert_eq!(p.window_len(), 3);
        assert_eq!(p.vertices(), &[VertexId(0)]);
    }

    #[test]
    fn extension_appends_and_switches_the_window() {
        let g = graph();
        let p = Row::initial(&g, VertexId(0));
        let q = p.extended(&g, VertexId(1));
        assert_eq!(q.hops(), 1);
        assert_eq!(q.last(), VertexId(1));
        assert_eq!(q.vertices(), &[VertexId(0), VertexId(1)]);
        assert_eq!(q.window_len(), 1); // vertex 1 has a single successor
                                       // The original is unchanged (value semantics).
        assert_eq!(p.window_len(), 3);
    }

    #[test]
    fn contains_checks_the_whole_prefix() {
        let g = graph();
        let p = Row::initial(&g, VertexId(0)).extended(&g, VertexId(2));
        assert!(p.contains(VertexId(0)));
        assert!(p.contains(VertexId(2)));
        assert!(!p.contains(VertexId(4)));
    }

    #[test]
    fn take_window_splits_a_super_node() {
        let g = graph();
        let mut p = Row::initial(&g, VertexId(0));
        let first = p.take_window(2).expect("window available");
        assert_eq!(first.window_len(), 2);
        assert_eq!(p.window_len(), 1);
        let second = p.take_window(2).expect("remainder available");
        assert_eq!(second.window_len(), 1);
        assert!(p.window_exhausted());
        assert!(p.take_window(2).is_none());
        // Together the two windows cover the original range without overlap.
        assert_eq!(first.window_end(), second.window_start());
    }

    #[test]
    fn zero_quota_takes_nothing() {
        let g = graph();
        let mut p = Row::initial(&g, VertexId(0));
        assert!(p.take_window(0).is_none());
        assert_eq!(p.window_len(), 3);
    }

    #[test]
    fn words_accounts_for_payload_and_pointers() {
        let g = graph();
        let p = Row::initial(&g, VertexId(0));
        assert_eq!(p.words(), 4);
        assert_eq!(p.extended(&g, VertexId(1)).words(), 5);
    }

    #[test]
    fn words_do_not_depend_on_the_host_width() {
        let g = graph();
        let wide = Row::initial(&g, VertexId(0)).extended(&g, VertexId(1));
        let narrow = TempPath::<8>::initial(&g, VertexId(0)).extended(&g, VertexId(1));
        assert_eq!(narrow.words(), wide.words());
        assert_eq!(narrow.vertices(), wide.vertices());
        assert_eq!(
            narrow.window_start()..narrow.window_end(),
            wide.window_start()..wide.window_end()
        );
        assert!(std::mem::size_of::<TempPath<8>>() < std::mem::size_of::<Row>());
    }

    #[test]
    fn to_vec_round_trips() {
        let g = graph();
        let p = Row::initial(&g, VertexId(0)).extended(&g, VertexId(1)).extended(&g, VertexId(4));
        assert_eq!(p.to_vec(), vec![VertexId(0), VertexId(1), VertexId(4)]);
    }

    #[test]
    #[should_panic(expected = "exceeds its 31-vertex row (MAX_K = 30 hops)")]
    fn overlong_paths_are_rejected() {
        let n = MAX_K + 3;
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        let g = CsrGraph::from_edges(n, &edges);
        let mut p = Row::initial(&g, VertexId(0));
        for i in 1..n as u32 {
            p = p.extended(&g, VertexId(i));
        }
    }

    #[test]
    #[should_panic(expected = "exceeds its 8-vertex row")]
    fn a_narrow_row_holds_w_vertices() {
        let edges: Vec<(u32, u32)> = (0..9).map(|i| (i, i + 1)).collect();
        let g = CsrGraph::from_edges(10, &edges);
        let mut p = TempPath::<8>::initial(&g, VertexId(0));
        for i in 1..10 {
            p = p.extended(&g, VertexId(i));
            assert_eq!(p.hops(), i, "a k = 7 path fits");
        }
    }
}
