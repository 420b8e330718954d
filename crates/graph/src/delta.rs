//! Epoch-versioned graph snapshots with copy-on-write delta overlays.
//!
//! The paper's §I motivation — fraud-cycle detection over a sliding
//! transaction window — needs enumeration over a graph that *changes*: new
//! transactions insert edges and window expiry removes them. CSR itself is
//! immutable by design (that is what ships to device DRAM), so this module
//! layers mutability on top without giving up the immutable shares:
//!
//! * [`GraphDelta`] — one batch of edge inserts and removals.
//! * [`GraphSnapshot`] — an immutable view of the graph at one **epoch**: a
//!   shared base CSR (both directions) plus per-vertex *replacement* adjacency
//!   rows for the vertices the deltas since the base touched. Snapshots are
//!   handed out behind `Arc`s, so in-flight queries keep a consistent view of
//!   their admission epoch while later updates land.
//! * [`VersionedGraph`] — the mutable head: applying a delta produces the next
//!   epoch's snapshot by copying only the affected rows (everything else is
//!   shared), and once the overlay grows past a threshold the snapshot is
//!   compacted into a fresh base CSR.
//!
//! Replacement rows are kept sorted and deduplicated — the same invariant
//! [`CsrGraph`] maintains — so a traversal over a snapshot visits successors
//! in exactly the order it would over a from-scratch CSR rebuild of the same
//! edge set. That equivalence is what the differential test suite pins down.

use crate::csr::{CsrBuilder, CsrGraph};
use crate::ids::VertexId;
use crate::view::GraphView;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Monotone version counter for [`GraphSnapshot`]s. Epoch 0 is the graph as
/// loaded; every applied [`GraphDelta`] advances it by one.
pub type Epoch = u64;

/// Number of overlay rows a snapshot may accumulate before
/// [`VersionedGraph::apply`] compacts it into a fresh base CSR.
pub const DEFAULT_COMPACT_OVERLAY_ROWS: usize = 1024;

/// One batch of graph mutations: edge inserts (new transactions) and edge
/// removals (window expiry).
///
/// Within one batch, removals apply before inserts, so a batch that removes
/// and re-inserts the same edge leaves it present. Inserting an edge that
/// already exists and removing one that does not are both no-ops — adjacency
/// stays a *set*, exactly as [`CsrGraph`] deduplicates at build time.
#[derive(Debug, Clone, Default)]
pub struct GraphDelta {
    inserts: Vec<(VertexId, VertexId)>,
    removals: Vec<(VertexId, VertexId)>,
}

impl GraphDelta {
    /// An empty batch.
    pub fn new() -> Self {
        GraphDelta::default()
    }

    /// Queues the directed edge `from -> to` for insertion. Endpoints beyond
    /// the current vertex count grow the graph.
    pub fn insert_edge(&mut self, from: VertexId, to: VertexId) -> &mut Self {
        self.inserts.push((from, to));
        self
    }

    /// Queues the directed edge `from -> to` for removal.
    pub fn remove_edge(&mut self, from: VertexId, to: VertexId) -> &mut Self {
        self.removals.push((from, to));
        self
    }

    /// The queued insertions, in queue order.
    pub fn inserts(&self) -> &[(VertexId, VertexId)] {
        &self.inserts
    }

    /// The queued removals, in queue order.
    pub fn removals(&self) -> &[(VertexId, VertexId)] {
        &self.removals
    }

    /// Whether the batch queues no mutation at all.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.removals.is_empty()
    }

    /// Total number of queued operations (inserts + removals).
    pub fn len(&self) -> usize {
        self.inserts.len() + self.removals.len()
    }

    /// Every vertex incident to a queued mutation, sorted ascending and
    /// deduplicated — the key the host runtime uses for touched-vertex cache
    /// invalidation.
    pub fn touched_vertices(&self) -> Vec<VertexId> {
        let mut touched = Vec::with_capacity(2 * self.len());
        for &(u, v) in self.inserts.iter().chain(self.removals.iter()) {
            touched.push(u);
            touched.push(v);
        }
        touched.sort_unstable();
        touched.dedup();
        touched
    }
}

/// Shared replacement adjacency rows: vertex id → full successor list at this
/// epoch. Rows are `Arc`-shared between consecutive snapshots, so applying a
/// delta copies only the rows it rewrites.
type OverlayRows = HashMap<u32, Arc<Vec<VertexId>>>;

/// An immutable view of the graph at one epoch.
///
/// Traversals run through [`GraphSnapshot::forward`] / [`GraphSnapshot::reverse`],
/// which implement [`GraphView`]; [`GraphSnapshot::full_csr`] materialises (and
/// caches) a plain CSR when a caller genuinely needs the whole graph in one
/// array (the no-Pre-BFS ablation, device payload of a trivial query).
#[derive(Debug)]
pub struct GraphSnapshot {
    epoch: Epoch,
    num_vertices: usize,
    num_edges: usize,
    base: Arc<CsrGraph>,
    base_reverse: Arc<CsrGraph>,
    forward_rows: OverlayRows,
    reverse_rows: OverlayRows,
    compacted: OnceLock<Arc<CsrGraph>>,
}

impl GraphSnapshot {
    /// Epoch-0 snapshot over an already-built CSR pair.
    pub fn initial(base: Arc<CsrGraph>, reverse: Arc<CsrGraph>) -> Self {
        debug_assert_eq!(base.num_vertices(), reverse.num_vertices());
        GraphSnapshot {
            epoch: 0,
            num_vertices: base.num_vertices(),
            num_edges: base.num_edges(),
            base,
            base_reverse: reverse,
            forward_rows: OverlayRows::new(),
            reverse_rows: OverlayRows::new(),
            compacted: OnceLock::new(),
        }
    }

    /// Epoch-0 snapshot over a forward CSR, building the reverse here.
    pub fn from_csr(base: impl Into<Arc<CsrGraph>>) -> Self {
        let base = base.into();
        let reverse = Arc::new(base.reverse());
        GraphSnapshot::initial(base, reverse)
    }

    /// This snapshot's epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Number of vertices at this epoch (inserts may have grown it past the
    /// base CSR's count).
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of directed edges at this epoch.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of replacement adjacency rows carried over the base (forward
    /// direction; the reverse overlay has the mirrored rows).
    pub fn overlay_rows(&self) -> usize {
        self.forward_rows.len()
    }

    /// Whether this snapshot *is* its base CSR — no overlay rows and no
    /// vertex growth — so [`GraphSnapshot::full_csr`] can hand out the base
    /// itself.
    pub fn is_compact(&self) -> bool {
        self.forward_rows.is_empty()
            && self.reverse_rows.is_empty()
            && self.num_vertices == self.base.num_vertices()
    }

    /// The shared base CSR this snapshot overlays.
    pub fn base(&self) -> &Arc<CsrGraph> {
        &self.base
    }

    /// The shared reverse of the base CSR.
    pub fn base_reverse(&self) -> &Arc<CsrGraph> {
        &self.base_reverse
    }

    /// Forward-direction [`GraphView`] (successors).
    pub fn forward(&self) -> SnapshotView<'_> {
        SnapshotView { n: self.num_vertices, base: &self.base, rows: &self.forward_rows }
    }

    /// Reverse-direction [`GraphView`] (predecessors, i.e. the successors of
    /// the reversed graph).
    pub fn reverse(&self) -> SnapshotView<'_> {
        SnapshotView { n: self.num_vertices, base: &self.base_reverse, rows: &self.reverse_rows }
    }

    /// Whether the directed edge `from -> to` exists at this epoch.
    pub fn has_edge(&self, from: VertexId, to: VertexId) -> bool {
        from.index() < self.num_vertices && self.forward().has_edge(from, to)
    }

    /// Materialises this epoch's edge set as a fresh forward CSR. Equivalent
    /// to rebuilding from scratch: identical offsets and targets arrays.
    pub fn to_csr(&self) -> CsrGraph {
        let mut b = CsrBuilder::with_edge_capacity(self.num_vertices, self.num_edges);
        let view = self.forward();
        for u in 0..self.num_vertices as u32 {
            let u = VertexId(u);
            for &v in view.successors(u) {
                b.add_edge(u, v);
            }
        }
        b.build()
    }

    /// The whole graph at this epoch as a shared CSR: the base itself when the
    /// snapshot is compact, otherwise a lazily materialised (and cached) copy.
    pub fn full_csr(&self) -> Arc<CsrGraph> {
        if self.is_compact() {
            return Arc::clone(&self.base);
        }
        Arc::clone(self.compacted.get_or_init(|| Arc::new(self.to_csr())))
    }
}

/// One direction of a [`GraphSnapshot`], usable anywhere a [`GraphView`] is.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotView<'a> {
    n: usize,
    base: &'a CsrGraph,
    rows: &'a OverlayRows,
}

impl GraphView for SnapshotView<'_> {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.n
    }

    #[inline]
    fn successors(&self, v: VertexId) -> &[VertexId] {
        if let Some(row) = self.rows.get(&v.0) {
            row
        } else if v.index() < self.base.num_vertices() {
            self.base.successors(v)
        } else {
            &[]
        }
    }
}

/// The mutable head of a snapshot chain: holds the current epoch's
/// [`GraphSnapshot`] and produces the next one per applied [`GraphDelta`].
#[derive(Debug)]
pub struct VersionedGraph {
    current: Arc<GraphSnapshot>,
    compact_rows: usize,
}

impl VersionedGraph {
    /// Starts a version chain at epoch 0 over an already-built CSR pair (the
    /// host loader provides both directions).
    pub fn new(base: Arc<CsrGraph>, reverse: Arc<CsrGraph>) -> Self {
        VersionedGraph {
            current: Arc::new(GraphSnapshot::initial(base, reverse)),
            compact_rows: DEFAULT_COMPACT_OVERLAY_ROWS,
        }
    }

    /// Starts a version chain from a forward CSR, building the reverse here.
    pub fn from_csr(base: impl Into<Arc<CsrGraph>>) -> Self {
        VersionedGraph {
            current: Arc::new(GraphSnapshot::from_csr(base)),
            compact_rows: DEFAULT_COMPACT_OVERLAY_ROWS,
        }
    }

    /// Overrides the overlay-row count past which [`VersionedGraph::apply`]
    /// compacts into a fresh base CSR. `0` compacts after every delta.
    pub fn with_compaction_threshold(mut self, rows: usize) -> Self {
        self.compact_rows = rows;
        self
    }

    /// The current epoch's snapshot.
    pub fn current(&self) -> &Arc<GraphSnapshot> {
        &self.current
    }

    /// The current epoch.
    pub fn epoch(&self) -> Epoch {
        self.current.epoch
    }

    /// Applies one mutation batch, advancing the epoch by one, and returns
    /// the new snapshot. Only the adjacency rows the delta touches are
    /// copied; untouched rows (and the base arrays) stay shared with every
    /// older snapshot still alive. An empty delta still advances the epoch —
    /// callers use the returned epoch as a fence.
    pub fn apply(&mut self, delta: &GraphDelta) -> Arc<GraphSnapshot> {
        let cur = &self.current;
        let mut n = cur.num_vertices;
        for &(u, v) in delta.inserts() {
            n = n.max(u.index() + 1).max(v.index() + 1);
        }

        // Group the batch per affected row: forward keyed by source, reverse
        // keyed by target. (removals, inserts) per vertex.
        let mut fwd: HashMap<u32, (Vec<VertexId>, Vec<VertexId>)> = HashMap::new();
        let mut rev: HashMap<u32, (Vec<VertexId>, Vec<VertexId>)> = HashMap::new();
        for &(u, v) in delta.removals() {
            fwd.entry(u.0).or_default().0.push(v);
            rev.entry(v.0).or_default().0.push(u);
        }
        for &(u, v) in delta.inserts() {
            fwd.entry(u.0).or_default().1.push(v);
            rev.entry(v.0).or_default().1.push(u);
        }

        let mut forward_rows = cur.forward_rows.clone();
        let mut reverse_rows = cur.reverse_rows.clone();
        let mut num_edges = cur.num_edges;
        for (vertex, (dels, adds)) in fwd {
            let delta_len = rewrite_row(&mut forward_rows, &cur.base, n, vertex, &dels, &adds);
            num_edges = num_edges.checked_add_signed(delta_len).expect("edge count overflow");
        }
        for (vertex, (dels, adds)) in rev {
            rewrite_row(&mut reverse_rows, &cur.base_reverse, n, vertex, &dels, &adds);
        }

        let next = GraphSnapshot {
            epoch: cur.epoch + 1,
            num_vertices: n,
            num_edges,
            base: Arc::clone(&cur.base),
            base_reverse: Arc::clone(&cur.base_reverse),
            forward_rows,
            reverse_rows,
            compacted: OnceLock::new(),
        };
        let next = if next.forward_rows.len() > self.compact_rows
            || next.reverse_rows.len() > self.compact_rows
        {
            Arc::new(compact(next))
        } else {
            Arc::new(next)
        };
        self.current = Arc::clone(&next);
        next
    }
}

/// Rewrites one overlay row: starts from the row effective at the previous
/// epoch, drops `dels`, adds `adds`, and re-normalises (sorted, deduplicated).
/// Returns the signed change in row length. A row that ends up identical to
/// its base slice is dropped from the overlay instead of stored.
fn rewrite_row(
    rows: &mut OverlayRows,
    base: &CsrGraph,
    n: usize,
    vertex: u32,
    dels: &[VertexId],
    adds: &[VertexId],
) -> isize {
    let base_row: &[VertexId] = if (vertex as usize) < base.num_vertices() {
        base.successors(VertexId(vertex))
    } else {
        &[]
    };
    let old: &[VertexId] = match rows.get(&vertex) {
        Some(row) => row,
        None => base_row,
    };
    let old_len = old.len();
    let mut row: Vec<VertexId> = old.to_vec();
    if !dels.is_empty() {
        row.retain(|v| !dels.contains(v));
    }
    row.extend_from_slice(adds);
    row.sort_unstable();
    row.dedup();
    debug_assert!(
        row.iter().all(|v| v.index() < n),
        "snapshot row for {vertex} references a vertex beyond the grown bound {n}"
    );
    let delta_len = row.len() as isize - old_len as isize;
    if row.as_slice() == base_row {
        rows.remove(&vertex);
    } else {
        rows.insert(vertex, Arc::new(row));
    }
    delta_len
}

/// Collapses a snapshot's overlay into a fresh base CSR pair, keeping its
/// epoch and edge set.
fn compact(snapshot: GraphSnapshot) -> GraphSnapshot {
    let forward = Arc::new(snapshot.to_csr());
    let reverse = Arc::new(forward.reverse());
    debug_assert_eq!(forward.num_edges(), snapshot.num_edges);
    GraphSnapshot {
        epoch: snapshot.epoch,
        num_vertices: snapshot.num_vertices,
        num_edges: snapshot.num_edges,
        base: forward,
        base_reverse: reverse,
        forward_rows: OverlayRows::new(),
        reverse_rows: OverlayRows::new(),
        compacted: OnceLock::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::khop_bfs;

    fn diamond() -> VersionedGraph {
        VersionedGraph::from_csr(CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]))
    }

    #[test]
    fn epoch_zero_matches_the_base() {
        let vg = diamond();
        let snap = vg.current();
        assert_eq!(snap.epoch(), 0);
        assert!(snap.is_compact());
        assert_eq!(snap.num_vertices(), 4);
        assert_eq!(snap.num_edges(), 4);
        assert!(Arc::ptr_eq(&snap.full_csr(), snap.base()));
        assert_eq!(snap.to_csr(), **snap.base());
    }

    #[test]
    fn inserts_and_removals_apply_with_cow_rows() {
        let mut vg = diamond();
        let before = Arc::clone(vg.current());
        let mut delta = GraphDelta::new();
        delta.insert_edge(VertexId(3), VertexId(0)).remove_edge(VertexId(0), VertexId(2));
        let snap = vg.apply(&delta);
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.num_edges(), 4);
        assert!(snap.has_edge(VertexId(3), VertexId(0)));
        assert!(!snap.has_edge(VertexId(0), VertexId(2)));
        // The admission-epoch snapshot is untouched.
        assert!(before.has_edge(VertexId(0), VertexId(2)));
        assert!(!before.has_edge(VertexId(3), VertexId(0)));
        // Reverse direction mirrors the overlay.
        assert_eq!(snap.reverse().successors(VertexId(0)), &[VertexId(3)]);
        assert_eq!(snap.reverse().successors(VertexId(3)), &[VertexId(1), VertexId(2)]);
    }

    #[test]
    fn overlay_matches_a_from_scratch_rebuild() {
        let mut vg = diamond();
        let mut delta = GraphDelta::new();
        delta
            .insert_edge(VertexId(3), VertexId(0))
            .insert_edge(VertexId(1), VertexId(2))
            .remove_edge(VertexId(1), VertexId(3));
        let snap = vg.apply(&delta);
        let rebuilt = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (2, 3), (3, 0), (1, 2)]);
        assert_eq!(snap.to_csr(), rebuilt);
        // BFS over the view agrees with BFS over the rebuilt CSR.
        assert_eq!(khop_bfs(&rebuilt, VertexId(3), 5), {
            let mut scratch = crate::bfs::BfsScratch::new();
            scratch.run(&snap.forward(), VertexId(3), 5);
            scratch.to_dense(snap.num_vertices())
        });
    }

    #[test]
    fn duplicate_insert_and_missing_removal_are_noops() {
        let mut vg = diamond();
        let mut delta = GraphDelta::new();
        delta.insert_edge(VertexId(0), VertexId(1)).remove_edge(VertexId(2), VertexId(0));
        let snap = vg.apply(&delta);
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.num_edges(), 4);
        assert_eq!(snap.to_csr(), vg.current().base().as_ref().clone());
        // Rows identical to base are not stored as overlay rows.
        assert_eq!(snap.overlay_rows(), 0);
    }

    #[test]
    fn removal_before_insert_within_one_batch() {
        let mut vg = diamond();
        let mut delta = GraphDelta::new();
        delta.remove_edge(VertexId(0), VertexId(1)).insert_edge(VertexId(0), VertexId(1));
        let snap = vg.apply(&delta);
        assert!(snap.has_edge(VertexId(0), VertexId(1)));
        assert_eq!(snap.num_edges(), 4);
    }

    #[test]
    fn inserts_grow_the_vertex_set() {
        let mut vg = diamond();
        let mut delta = GraphDelta::new();
        delta.insert_edge(VertexId(3), VertexId(6));
        let snap = vg.apply(&delta);
        assert_eq!(snap.num_vertices(), 7);
        assert_eq!(snap.forward().successors(VertexId(6)), &[]);
        assert_eq!(snap.reverse().successors(VertexId(6)), &[VertexId(3)]);
        assert!(snap.has_edge(VertexId(3), VertexId(6)));
        let csr = snap.to_csr();
        assert_eq!(csr.num_vertices(), 7);
        assert_eq!(csr.num_edges(), 5);
    }

    #[test]
    fn compaction_collapses_the_overlay_and_keeps_the_epoch() {
        let mut vg = diamond().with_compaction_threshold(1);
        let mut a = GraphDelta::new();
        a.insert_edge(VertexId(3), VertexId(0));
        vg.apply(&a); // 1 overlay row per direction: below threshold? equal -> kept
        let mut b = GraphDelta::new();
        b.insert_edge(VertexId(2), VertexId(1));
        let snap = vg.apply(&b); // 2 rows > 1: compacts
        assert_eq!(snap.epoch(), 2);
        assert!(snap.is_compact());
        assert_eq!(snap.overlay_rows(), 0);
        assert_eq!(snap.num_edges(), 6);
        assert!(snap.has_edge(VertexId(3), VertexId(0)));
        assert!(snap.has_edge(VertexId(2), VertexId(1)));
        assert_eq!(**snap.base(), snap.to_csr());
    }

    #[test]
    fn touched_vertices_are_sorted_and_deduplicated() {
        let mut delta = GraphDelta::new();
        delta
            .insert_edge(VertexId(5), VertexId(2))
            .remove_edge(VertexId(2), VertexId(7))
            .insert_edge(VertexId(5), VertexId(0));
        assert_eq!(
            delta.touched_vertices(),
            vec![VertexId(0), VertexId(2), VertexId(5), VertexId(7)]
        );
        assert_eq!(delta.len(), 3);
        assert!(!delta.is_empty());
        assert!(GraphDelta::new().is_empty());
    }

    #[test]
    fn full_csr_is_cached_per_snapshot() {
        let mut vg = diamond();
        let mut delta = GraphDelta::new();
        delta.insert_edge(VertexId(3), VertexId(0));
        let snap = vg.apply(&delta);
        assert!(!snap.is_compact());
        let a = snap.full_csr();
        let b = snap.full_csr();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(*a, snap.to_csr());
    }
}
