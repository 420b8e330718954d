//! Host-side preprocessing.
//!
//! Section V of the paper: before a query is shipped to the device, the host
//! runs **Pre-BFS** to
//!
//! 1. compute `sd(s, ·)` on `G` and `sd(·, t)` on `G_rev`,
//! 2. keep only the vertices with `sd(s,u) + sd(u,t) ≤ k` (Theorem 1),
//! 3. extract the induced subgraph `G'` in CSR form, and
//! 4. send `s`, `t`, `G'` and the *barrier* array `bar[u] = sd(u, t)` to the
//!    device.
//!
//! Distances up to `k-1` suffice because the only valid vertices a `k`-hop
//! BFS could additionally discover are `s` and `t` themselves (the paper's
//! second proof in Section V); the implementation force-keeps the two
//! endpoints to cover that corner case.
//!
//! ## What is searched: two searches that prune each other
//!
//! The paper finds the distances with two full `(k-1)`-hop BFS runs. Pre-BFS
//! is specified by its outputs, and only the kept vertices' distances reach
//! them, so this implementation searches from both ends and lets each search
//! prune the other (`pre_bfs_core`):
//!
//! * **Phase A** grows one unrestricted level at a time, on whichever side
//!   has the cheaper next level (the sum of its frontier's out-degrees),
//!   until the radii satisfy `df + db = k`; neither side passes `k-1`, and a
//!   side whose next level is empty has already reached everything it can.
//! * **Phase B** continues each side to level `k-1`, but a vertex is
//!   expanded, and a vertex is admitted at level `l`, only when the *other*
//!   side holds it at a distance `d` with `l + d ≤ k`.
//!
//! **The outputs are the two-ball outputs.** Levels are lengths of real
//! walks, so a recorded distance is never below the true one, and phase B
//! only admits vertices with `sd(s,u) + sd(u,t) ≤ k`: nothing outside the
//! Theorem 1 cut gets in. Conversely take a kept `u` with `sd(s,u) = l > df`
//! and a shortest path `s = w_0, …, w_l = u`. Every `w_i` satisfies
//! `i + sd(w_i,t) ≤ l + sd(u,t) ≤ k`, so for `i ≥ df` the backward side holds
//! `w_i` at its exact distance `sd(w_i,t) ≤ k - df = db` from phase A alone
//! (or, when the backward side ran out of vertices early, holds everything
//! that reaches `t`). By induction on `i` the forward side reaches `w_i` at
//! level `i`: `w_df` is in the phase-A frontier and passes the test, and
//! `w_{i+1}` is a successor of an expanded vertex that passes it. The same
//! holds with the sides swapped. Hence every kept vertex, `s` and `t`
//! included, carries exactly the distances the two full balls would give it,
//! and `G'`, the id mapping, the barrier (with its `k+1` clamp on `bar[s]`)
//! and `feasible` are identical; `tests::search_matches_the_two_ball_reference`
//! compares them against the old search, kept as a test-only oracle.
//!
//! ## Per-query cost: O(touched), not O(|V|)
//!
//! The paper's headline claim covers preprocessing as much as enumeration, so
//! the host side must not spend O(|V| + |E|) per query when the query keeps a
//! few hundred vertices. [`PrepareContext`] is the reusable state that makes
//! repeated preparation output-sensitive:
//!
//! * two epoch-stamped [`BfsScratch`] instances (forward from `s`, backward
//!   from `t` on `G_rev`) whose allocations persist across queries and whose
//!   touched-vertex lists replace full-vertex scans,
//! * a build-once-share-many reverse CSR (`Arc<CsrGraph>`), either installed
//!   by the caller (the host loader already builds one per graph) or computed
//!   lazily on the first query and reused for every subsequent query on the
//!   same graph,
//! * Theorem 1's cut evaluated over the smaller of the two reached sets,
//!   feeding `induce_subgraph_from_vertices` so `G'` is built from the kept
//!   list.
//!
//! [`pre_bfs_with`] / [`no_prebfs_with`] are the real implementations;
//! [`pre_bfs`] and [`no_prebfs_preprocess`] remain as one-shot wrappers with
//! their original signatures. The module also provides the *no-Pre-BFS*
//! preprocessing used by the ablation in Fig. 12 (barrier from a full k-hop
//! reverse BFS, no subgraph extraction).

use pefp_graph::bfs::{BfsScratch, UNREACHED};
use pefp_graph::delta::GraphSnapshot;
use pefp_graph::induced::{induce_subgraph_from_vertices_with, InducedSubgraph, RemapScratch};
use pefp_graph::view::GraphView;
use pefp_graph::{CsrGraph, VertexId};
use std::sync::Arc;
use std::time::Instant;

/// The set of data-graph vertices a preparation *depended on* — the sound
/// invalidation key for cached [`PreparedQuery`]s under incremental updates.
///
/// For Pre-BFS this is every vertex either search reached (the endpoints are
/// the seeds), in **original** graph ids. It is a superset of the pruned
/// subgraph `G'`, and it is exactly the set of vertices whose adjacency the
/// preparation read: the forward search reads the out-edges of vertices it
/// reached, the backward search the in-edges of vertices it reached, the
/// side choice their degrees, and the extraction the out-edges of kept
/// vertices. An update none of whose edges has an endpoint in the set
/// therefore changes no list that was read, a preparation on the new graph
/// would retrace this one step by step, and the cached `G'`, barrier and
/// answer are the new graph's. Read as a statement about paths: a new
/// `s ⇝ t` walk of at most `k` hops has the tail of its first inserted edge
/// within `df` of `s` or the head of its last one within `db` of `t`, both
/// inside the unrestricted phase-A balls (this is how a bridge from a
/// forward dead end to a vertex that reaches `t`, with *neither* endpoint in
/// `G'`, is caught); and a removed edge only matters when both its ends are
/// kept. Intersecting a delta's endpoints against the set is conservative
/// (an edge *into* a forward-only vertex evicts although it was never read).
///
/// Preparations that ship the whole graph (no-Pre-BFS ablation, trivial
/// queries) depend on everything and use [`TouchedSet::All`].
#[derive(Debug, Clone)]
pub enum TouchedSet {
    /// The preparation read the entire graph; any update invalidates it.
    All,
    /// Sorted, deduplicated original-id vertices the preparation read.
    Vertices(Vec<VertexId>),
}

impl TouchedSet {
    /// Whether any vertex of `sorted` (ascending, deduplicated) is in the set.
    pub fn intersects(&self, sorted: &[VertexId]) -> bool {
        match self {
            TouchedSet::All => true,
            TouchedSet::Vertices(mine) => {
                let (mut i, mut j) = (0usize, 0usize);
                while i < mine.len() && j < sorted.len() {
                    match mine[i].cmp(&sorted[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => return true,
                    }
                }
                false
            }
        }
    }

    /// Whether `v` is in the set.
    pub fn contains(&self, v: VertexId) -> bool {
        match self {
            TouchedSet::All => true,
            TouchedSet::Vertices(mine) => mine.binary_search(&v).is_ok(),
        }
    }
}

/// Everything the device needs to run one query.
///
/// The graph is held behind an `Arc`: the Pre-BFS path shares it with the
/// mapping (one copy of `G'`, not two), and the no-Pre-BFS / trivial paths
/// share the caller's data graph instead of cloning all of `G`.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    /// The graph the device will search (the induced subgraph `G'` for
    /// Pre-BFS, or the full graph for the no-Pre-BFS ablation), with densely
    /// remapped vertex ids.
    pub graph: Arc<CsrGraph>,
    /// Mapping between original and device vertex ids (`None` when the full
    /// graph is used unchanged). Shares its graph with the `graph` field.
    pub mapping: Option<InducedSubgraph>,
    /// Source vertex in device ids.
    pub s: VertexId,
    /// Target vertex in device ids.
    pub t: VertexId,
    /// Hop constraint.
    pub k: u32,
    /// Barrier array: `bar[u] = sd(u, t)` in device ids, clamped to `k + 1`
    /// for vertices that cannot reach `t` within `k` hops.
    pub barrier: Vec<u32>,
    /// `false` when preprocessing already proved the result set is empty
    /// (e.g. `t` unreachable); the device run can then be skipped.
    pub feasible: bool,
    /// Original-id vertices this preparation depended on — the invalidation
    /// key host-side caches intersect against graph-update deltas.
    pub touched: TouchedSet,
    /// Host wall-clock time spent preprocessing, in milliseconds.
    pub host_millis: f64,
}

impl PreparedQuery {
    /// Number of bytes that must be transferred to device DRAM for this query
    /// (CSR arrays + barrier + query parameters), used for the PCIe model.
    pub fn transfer_bytes(&self) -> usize {
        self.graph.byte_size() + self.barrier.len() * 4 + 4 * 4
    }

    /// Translates a path expressed in device ids back to original graph ids.
    pub fn translate_path(&self, path: &[VertexId]) -> Vec<VertexId> {
        match &self.mapping {
            Some(m) => m.translate_path(path),
            None => path.to_vec(),
        }
    }
}

/// Counters describing the work a [`PrepareContext`] has performed; used by
/// tests and benches to verify the O(touched) contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrepareStats {
    /// Queries prepared through this context.
    pub queries: u64,
    /// Reverse-CSR constructions paid by this context (0 when the caller
    /// installed a prebuilt reverse). The cache holds one graph's reverse —
    /// the context-per-served-graph design — so this counts one build per
    /// *graph switch*: a context alternating between two graphs rebuilds on
    /// every alternation and wants to be split into one context per graph.
    pub reverse_builds: u64,
    /// Vertices reached by the searches of the most recent preparation: the
    /// forward and backward counts added up for Pre-BFS (seeds included, a
    /// vertex both sides reached counted twice), the backward `k`-hop ball
    /// for no-Pre-BFS, 0 for trivial queries, which run no search.
    pub last_touched: usize,
}

/// Reusable preprocessing state: BFS scratch, kept-list buffer and the shared
/// reverse CSR for the graph currently being served.
///
/// One context per worker thread; it is deliberately `!Sync`-free (plain owned
/// buffers), so batch runners hand each thread its own.
#[derive(Debug, Default)]
pub struct PrepareContext {
    forward: BfsScratch,
    backward: BfsScratch,
    remap: RemapScratch,
    reverse: Option<(Arc<CsrGraph>, Arc<CsrGraph>)>,
    stats: PrepareStats,
}

impl PrepareContext {
    /// A fresh context with empty scratch buffers.
    pub fn new() -> Self {
        PrepareContext::default()
    }

    /// A context that already knows the reverse CSR of `g` — the host loader
    /// builds one per loaded graph; wiring it here means no query ever pays
    /// for `g.reverse()` again.
    pub fn with_reverse(g: &Arc<CsrGraph>, reverse: Arc<CsrGraph>) -> Self {
        let mut ctx = PrepareContext::new();
        ctx.install_reverse(g, reverse);
        ctx
    }

    /// Installs (or replaces) the shared reverse CSR for `g`. A no-op when
    /// the same graph's reverse is already installed.
    pub fn install_reverse(&mut self, g: &Arc<CsrGraph>, reverse: Arc<CsrGraph>) {
        debug_assert_eq!(g.num_vertices(), reverse.num_vertices());
        if !matches!(&self.reverse, Some((cached, _)) if Arc::ptr_eq(cached, g)) {
            self.reverse = Some((Arc::clone(g), reverse));
        }
    }

    /// The reverse CSR for `g`: the installed/cached one when it matches,
    /// otherwise computed once and cached for subsequent queries.
    fn reverse_for(&mut self, g: &Arc<CsrGraph>) -> Arc<CsrGraph> {
        if let Some((cached, rev)) = &self.reverse {
            if Arc::ptr_eq(cached, g) {
                return Arc::clone(rev);
            }
        }
        let rev = Arc::new(g.reverse());
        self.stats.reverse_builds += 1;
        self.reverse = Some((Arc::clone(g), Arc::clone(&rev)));
        rev
    }

    /// Work counters accumulated by this context.
    pub fn stats(&self) -> PrepareStats {
        self.stats
    }
}

/// Pre-BFS preprocessing (the paper's Algorithm in Section V) against a
/// reusable [`PrepareContext`]; cost is proportional to the BFS frontier.
pub fn pre_bfs_with(
    ctx: &mut PrepareContext,
    g: &Arc<CsrGraph>,
    s: VertexId,
    t: VertexId,
    k: u32,
) -> PreparedQuery {
    let start = Instant::now();
    assert!(s.index() < g.num_vertices(), "source {s} out of range");
    assert!(t.index() < g.num_vertices(), "target {t} out of range");
    ctx.stats.queries += 1;

    // Degenerate hop budgets: k = 0 only ever admits the trivial s == t path.
    if k == 0 || s == t {
        ctx.stats.last_touched = 0;
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        return trivial_prepared(Arc::clone(g), s, t, k, elapsed);
    }
    let rev = ctx.reverse_for(g);
    pre_bfs_core(ctx, g, &rev, s, t, k, start)
}

/// Pre-BFS preprocessing (the paper's Algorithm in Section V), one-shot form:
/// allocates fresh scratch and recomputes the reverse CSR. Kept for callers
/// that prepare a single query; batch and server workloads should reuse a
/// [`PrepareContext`] via [`pre_bfs_with`].
pub fn pre_bfs(g: &CsrGraph, s: VertexId, t: VertexId, k: u32) -> PreparedQuery {
    let start = Instant::now();
    assert!(s.index() < g.num_vertices(), "source {s} out of range");
    assert!(t.index() < g.num_vertices(), "target {t} out of range");

    if k == 0 || s == t {
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        return trivial_prepared(Arc::new(g.clone()), s, t, k, elapsed);
    }
    let mut ctx = PrepareContext::new();
    ctx.stats.queries += 1;
    let rev = g.reverse();
    pre_bfs_core(&mut ctx, g, &rev, s, t, k, start)
}

/// Shared non-trivial Pre-BFS implementation: the two mutually pruned
/// searches of the module docs, then the Theorem 1 cut over what both sides
/// reached and the subgraph induced from the kept list.
fn pre_bfs_core<GF, GR>(
    ctx: &mut PrepareContext,
    g: &GF,
    rev: &GR,
    s: VertexId,
    t: VertexId,
    k: u32,
    start: Instant,
) -> PreparedQuery
where
    GF: GraphView + ?Sized,
    GR: GraphView + ?Sized,
{
    let (forward, backward) = (&mut ctx.forward, &mut ctx.backward);
    forward.seed(g, &[s]);
    backward.seed(rev, &[t]);

    // Phase A: unrestricted levels on the cheaper side until the radii add up
    // to k. Each side stops at k-1, so k = 1 grows nothing; a side whose next
    // level would read no edge has reached everything it ever will.
    let cap = k - 1;
    let mut forward_cost = forward.frontier_cost(g);
    let mut backward_cost = backward.frontier_cost(rev);
    while forward.level() + backward.level() < k.min(2 * cap)
        && forward_cost > 0
        && backward_cost > 0
    {
        if backward.level() == cap || (forward.level() < cap && forward_cost <= backward_cost) {
            forward.expand_level(g, |_| true);
            forward_cost = forward.frontier_cost(g);
        } else {
            backward.expand_level(rev, |_| true);
            backward_cost = backward.frontier_cost(rev);
        }
    }
    // Phase B: each side continues inside what the other side holds.
    continue_pruned(forward, backward, g, k);
    continue_pruned(backward, forward, rev, k);
    ctx.stats.last_touched = forward.touched_len() + backward.touched_len();

    // Theorem 1 cut, with s and t force-kept (they are the only valid vertices
    // a k-hop BFS could still add). Every kept vertex was reached by both
    // sides, so the smaller reached list is scanned;
    // `induce_subgraph_from_vertices` sorts and deduplicates.
    let (scanned, other) = if forward.touched_len() <= backward.touched_len() {
        (&*forward, &*backward)
    } else {
        (&*backward, &*forward)
    };
    let mut kept: Vec<VertexId> = vec![s, t];
    for &u in scanned.touched() {
        let d = other.dist(u);
        if u != s && u != t && d != UNREACHED && scanned.dist(u) + d <= k {
            kept.push(u);
        }
    }
    // Feasible iff sd(s, t) <= k: the forward side reached t (it is admitted
    // at any level up to k-1), or a path of exactly k >= 2 hops put its inner
    // vertices in the cut, or k = 1 and the edge itself exists.
    let feasible = forward.dist(t) != UNREACHED || kept.len() > 2 || (k == 1 && g.has_edge(s, t));
    let mapping = induce_subgraph_from_vertices_with(&mut ctx.remap, g, kept);

    let new_s = mapping.to_new(s).expect("s is force-kept");
    let new_t = mapping.to_new(t).expect("t is force-kept");

    // Barrier in the new id space: sd(u, t), with `UNREACHED` clamped to
    // k + 1. The backward side stops at level k-1, so that is s when
    // sd(s, t) = k; the barrier check never reads bar[s].
    let barrier: Vec<u32> =
        mapping.old_of_new.iter().map(|&old| backward.dist(old).min(k + 1)).collect();

    // The dependency set for incremental invalidation: everything either
    // side reached (s and t are the seeds), in original ids.
    let mut touched: Vec<VertexId> =
        Vec::with_capacity(forward.touched_len() + backward.touched_len());
    touched.extend_from_slice(forward.touched());
    touched.extend_from_slice(backward.touched());
    touched.sort_unstable();
    touched.dedup();

    let host_millis = start.elapsed().as_secs_f64() * 1e3;
    PreparedQuery {
        graph: Arc::clone(&mapping.graph),
        s: new_s,
        t: new_t,
        k,
        barrier,
        feasible,
        touched: TouchedSet::Vertices(touched),
        mapping: Some(mapping),
        host_millis,
    }
}

/// Phase B for one side: continues `side` to level `k-1`, expanding only
/// from, and admitting only, vertices `other` holds close enough to its own
/// seed that the two distances fit in `k` hops.
fn continue_pruned<G: GraphView + ?Sized>(
    side: &mut BfsScratch,
    other: &BfsScratch,
    g: &G,
    k: u32,
) {
    // `UNREACHED` is `u32::MAX`, so an unheld vertex fails every budget.
    let budget = k - side.level();
    side.retain_frontier(|v| other.dist(v) <= budget);
    while side.level() < k - 1 && side.frontier_cost(g) > 0 {
        let budget = k - (side.level() + 1);
        side.expand_level(g, |v| other.dist(v) <= budget);
    }
}

/// Preprocessing for the PEFP-No-Pre-BFS ablation (Fig. 12) against a
/// reusable [`PrepareContext`]: the device receives the *full* graph (shared,
/// not cloned); only the barrier array is computed (k-hop BFS from `t` on the
/// reverse graph), because the barrier check is part of the core algorithm
/// rather than of the Pre-BFS optimisation.
pub fn no_prebfs_with(
    ctx: &mut PrepareContext,
    g: &Arc<CsrGraph>,
    s: VertexId,
    t: VertexId,
    k: u32,
) -> PreparedQuery {
    let start = Instant::now();
    assert!(s.index() < g.num_vertices(), "source {s} out of range");
    assert!(t.index() < g.num_vertices(), "target {t} out of range");
    ctx.stats.queries += 1;
    if k == 0 || s == t {
        ctx.stats.last_touched = 0;
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        return trivial_prepared(Arc::clone(g), s, t, k, elapsed);
    }
    let rev = ctx.reverse_for(g);
    ctx.backward.run(&rev, t, k);
    ctx.stats.last_touched = ctx.backward.touched_len();

    // The ablation ships a full-length barrier by design; fill the clamp
    // default and overwrite only the reached vertices.
    let mut barrier = vec![k + 1; g.num_vertices()];
    for &v in ctx.backward.touched() {
        barrier[v.index()] = ctx.backward.dist(v);
    }
    let feasible = barrier[s.index()] <= k;
    let host_millis = start.elapsed().as_secs_f64() * 1e3;
    PreparedQuery {
        graph: Arc::clone(g),
        mapping: None,
        s,
        t,
        k,
        barrier,
        feasible,
        touched: TouchedSet::All,
        host_millis,
    }
}

/// One-shot form of [`no_prebfs_with`] with the original borrowed-graph
/// signature; clones `g` once into shared ownership (the ablation ships the
/// full graph, so that copy existed before the context API too).
pub fn no_prebfs_preprocess(g: &CsrGraph, s: VertexId, t: VertexId, k: u32) -> PreparedQuery {
    no_prebfs_with(&mut PrepareContext::new(), &Arc::new(g.clone()), s, t, k)
}

/// Pre-BFS preprocessing against an epoch-versioned [`GraphSnapshot`]: the
/// bidirectional BFS and the induced-subgraph extraction traverse the
/// snapshot's copy-on-write overlay directly (both directions are first-class
/// views), so no full CSR is ever materialised on this path. The produced
/// `G'` is a fresh dense CSR either way, so the device side is oblivious to
/// where the preparation read from.
pub fn pre_bfs_snapshot_with(
    ctx: &mut PrepareContext,
    snapshot: &GraphSnapshot,
    s: VertexId,
    t: VertexId,
    k: u32,
) -> PreparedQuery {
    let start = Instant::now();
    let n = snapshot.num_vertices();
    assert!(s.index() < n, "source {s} out of range");
    assert!(t.index() < n, "target {t} out of range");
    ctx.stats.queries += 1;
    if k == 0 || s == t {
        ctx.stats.last_touched = 0;
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        return trivial_prepared(snapshot.full_csr(), s, t, k, elapsed);
    }
    pre_bfs_core(ctx, &snapshot.forward(), &snapshot.reverse(), s, t, k, start)
}

/// No-Pre-BFS preprocessing against an epoch-versioned [`GraphSnapshot`].
/// The ablation ships the whole graph, so this path materialises the
/// snapshot once via [`GraphSnapshot::full_csr`] (cached per snapshot — the
/// cost is paid once per epoch, not per query); the barrier BFS still runs
/// over the overlay view.
pub fn no_prebfs_snapshot_with(
    ctx: &mut PrepareContext,
    snapshot: &GraphSnapshot,
    s: VertexId,
    t: VertexId,
    k: u32,
) -> PreparedQuery {
    let start = Instant::now();
    let n = snapshot.num_vertices();
    assert!(s.index() < n, "source {s} out of range");
    assert!(t.index() < n, "target {t} out of range");
    ctx.stats.queries += 1;
    if k == 0 || s == t {
        ctx.stats.last_touched = 0;
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        return trivial_prepared(snapshot.full_csr(), s, t, k, elapsed);
    }
    ctx.backward.run(&snapshot.reverse(), t, k);
    ctx.stats.last_touched = ctx.backward.touched_len();
    let mut barrier = vec![k + 1; n];
    for &v in ctx.backward.touched() {
        barrier[v.index()] = ctx.backward.dist(v);
    }
    let feasible = barrier[s.index()] <= k;
    let host_millis = start.elapsed().as_secs_f64() * 1e3;
    PreparedQuery {
        graph: snapshot.full_csr(),
        mapping: None,
        s,
        t,
        k,
        barrier,
        feasible,
        touched: TouchedSet::All,
        host_millis,
    }
}

/// Shared handling of `k == 0` and `s == t`.
fn trivial_prepared(
    graph: Arc<CsrGraph>,
    s: VertexId,
    t: VertexId,
    k: u32,
    host_millis: f64,
) -> PreparedQuery {
    let barrier = vec![k + 1; graph.num_vertices()];
    PreparedQuery {
        graph,
        mapping: None,
        s,
        t,
        k,
        barrier,
        feasible: s == t,
        touched: TouchedSet::All,
        host_millis,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pefp_graph::generators::chung_lu;

    fn sample() -> CsrGraph {
        // The Fig. 3 example in miniature: a short s->t corridor plus a bundle
        // of vertices reachable from s that can never reach t.
        CsrGraph::from_edges(
            10,
            &[
                (0, 1),
                (1, 2),
                (2, 9), // corridor 0 -> 1 -> 2 -> 9 (t)
                (0, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 8), // dead-end tail
            ],
        )
    }

    /// The search this module used to run — two unrestricted `(k-1)`-hop
    /// balls, the paper's formulation — kept as the oracle the pruned search
    /// is compared against.
    fn pre_bfs_core_reference<GF, GR>(
        ctx: &mut PrepareContext,
        g: &GF,
        rev: &GR,
        s: VertexId,
        t: VertexId,
        k: u32,
    ) -> PreparedQuery
    where
        GF: GraphView + ?Sized,
        GR: GraphView + ?Sized,
    {
        let bound = k - 1;
        ctx.forward.run(g, s, bound);
        ctx.backward.run(rev, t, bound);
        ctx.stats.last_touched = ctx.forward.touched_len() + ctx.backward.touched_len();

        let mut kept: Vec<VertexId> = vec![s, t];
        for &u in ctx.forward.touched() {
            if u == s || u == t {
                continue;
            }
            let b = ctx.backward.dist(u);
            if b != UNREACHED && ctx.forward.dist(u) + b <= k {
                kept.push(u);
            }
        }
        let mapping = induce_subgraph_from_vertices_with(&mut ctx.remap, g, kept);
        let barrier: Vec<u32> = mapping
            .old_of_new
            .iter()
            .map(|&old| {
                let d = ctx.backward.dist(old);
                if d == UNREACHED || d > k {
                    k + 1
                } else {
                    d
                }
            })
            .collect();
        let feasible = ctx.forward.dist(t) != UNREACHED
            || g.successors(s).iter().any(|&v| {
                v == t || (ctx.backward.dist(v) != UNREACHED && ctx.backward.dist(v) < k)
            });
        let mut touched: Vec<VertexId> = vec![s, t];
        touched.extend_from_slice(ctx.forward.touched());
        touched.extend_from_slice(ctx.backward.touched());
        touched.sort_unstable();
        touched.dedup();
        PreparedQuery {
            graph: Arc::clone(&mapping.graph),
            s: mapping.to_new(s).expect("s is force-kept"),
            t: mapping.to_new(t).expect("t is force-kept"),
            k,
            barrier,
            feasible,
            touched: TouchedSet::Vertices(touched),
            mapping: Some(mapping),
            host_millis: 0.0,
        }
    }

    fn touched_vertices(prep: &PreparedQuery) -> &[VertexId] {
        match &prep.touched {
            TouchedSet::Vertices(v) => v,
            TouchedSet::All => panic!("Pre-BFS records the vertices it read"),
        }
    }

    fn assert_same_outputs(a: &PreparedQuery, b: &PreparedQuery, label: &str) {
        assert_eq!(a.graph, b.graph, "G' differs: {label}");
        assert_eq!(a.barrier, b.barrier, "barrier differs: {label}");
        let maps = [a, b].map(|p| &p.mapping.as_ref().expect("Pre-BFS remaps ids").old_of_new);
        assert_eq!(maps[0], maps[1], "old_of_new differs: {label}");
        assert_eq!((a.s, a.t, a.k, a.feasible), (b.s, b.t, b.k, b.feasible), "{label}");
    }

    /// The two searches, each with its own reused (dirty) context, on one
    /// forward/reverse pair of views.
    #[derive(Default)]
    struct Differential {
        pruned: PrepareContext,
        reference: PrepareContext,
        queries: usize,
    }

    impl Differential {
        /// Prepares `(s, t, k)` both ways and checks every output plus the
        /// two inclusions `kept ⊆ touched(pruned) ⊆ touched(reference)`.
        fn check<GF, GR>(
            &mut self,
            g: &GF,
            rev: &GR,
            (s, t, k): (u32, u32, u32),
            label: &str,
        ) -> PreparedQuery
        where
            GF: GraphView + ?Sized,
            GR: GraphView + ?Sized,
        {
            let label = format!("{label} ({s},{t},k={k})");
            let (s, t) = (VertexId(s), VertexId(t));
            let pruned = pre_bfs_core(&mut self.pruned, g, rev, s, t, k, Instant::now());
            let reference = pre_bfs_core_reference(&mut self.reference, g, rev, s, t, k);
            assert_same_outputs(&pruned, &reference, &label);
            let read = touched_vertices(&pruned);
            let reference_read = touched_vertices(&reference);
            assert!(
                read.iter().all(|v| reference_read.binary_search(v).is_ok()),
                "the pruned search read a vertex outside the two balls: {label}"
            );
            let kept = &pruned.mapping.as_ref().unwrap().old_of_new;
            assert!(
                kept.iter().all(|v| read.binary_search(v).is_ok()),
                "a kept vertex is missing from the invalidation key: {label}"
            );
            assert!(self.pruned.stats.last_touched <= self.reference.stats.last_touched);
            self.queries += 1;
            pruned
        }
    }

    /// splitmix64: the crate has no `rand` dev-dependency.
    fn next_random(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn random_query(state: &mut u64, n: usize) -> (u32, u32, u32) {
        loop {
            let s = (next_random(state) % n as u64) as u32;
            let t = (next_random(state) % n as u64) as u32;
            if s != t {
                return (s, t, 1 + (next_random(state) % 7) as u32);
            }
        }
    }

    #[test]
    fn search_matches_the_two_ball_reference() {
        let mut diff = Differential::default();
        let mut rng = 0x5EED_0014u64;
        for (n, queries) in [(50usize, 1_500usize), (300, 1_500), (2_000, 1_500), (5_000, 1_000)] {
            let g = chung_lu(n, 6.0, 2.2, n as u64).to_csr();
            let rev = g.reverse();
            for _ in 0..queries {
                diff.check(&g, &rev, random_query(&mut rng, n), &format!("chung_lu({n})"));
            }
            // Hub endpoints: low ids carry the heaviest out-degrees.
            for other in 1..=40u32 {
                for k in 1..=7 {
                    diff.check(&g, &rev, (0, other, k), "hub source");
                    diff.check(&g, &rev, (other, 0, k), "hub target");
                }
            }
        }
        assert!(diff.queries >= 5_000);

        // Hand-built corners. The chain 0 -> 1 -> 2 -> 3 -> 4 with a shortcut
        // 0 -> 4, a dead-end tail 1 -> 5 -> 6, and 7, 8 isolated.
        let g = CsrGraph::from_edges(9, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 5), (5, 6)]);
        let rev = g.reverse();
        let direct = diff.check(&g, &rev, (0, 4, 1), "direct edge at k = 1");
        assert!(direct.feasible);
        assert!(!diff.check(&g, &rev, (0, 3, 1), "no direct edge at k = 1").feasible);
        for k in 1..=7 {
            let exact = diff.check(&g, &rev, (1, 4, k), "sd(s,t) = 3");
            assert_eq!(exact.feasible, k >= 3);
            assert!(!diff.check(&g, &rev, (6, 0, k), "t unreachable").feasible);
            assert!(!diff.check(&g, &rev, (7, 4, k), "isolated s").feasible);
            assert!(!diff.check(&g, &rev, (0, 8, k), "isolated t").feasible);
            assert!(!diff.check(&g, &rev, (7, 8, k), "both isolated").feasible);
        }
        // A star: the hub reaches every leaf, one leaf reaches the sink.
        let mut edges: Vec<(u32, u32)> = (1..200).map(|leaf| (0, leaf)).collect();
        edges.extend([(57, 200), (200, 201), (201, 0)]);
        let star = CsrGraph::from_edges(202, &edges);
        let star_rev = star.reverse();
        for k in 1..=7 {
            diff.check(&star, &star_rev, (0, 201, k), "hub source, narrow target");
            diff.check(&star, &star_rev, (200, 3, k), "narrow source, hub on the way");
        }
    }

    #[test]
    fn search_matches_the_reference_on_overlay_snapshots() {
        use pefp_graph::delta::{GraphDelta, VersionedGraph};
        use std::collections::BTreeSet;

        let n = 400usize;
        let base = chung_lu(n, 5.0, 2.2, 77).to_csr();
        let mut live: BTreeSet<(u32, u32)> = base.edges().map(|e| (e.from.0, e.to.0)).collect();
        // A threshold no delta sequence here reaches: overlays accumulate.
        let mut versioned = VersionedGraph::from_csr(base).with_compaction_threshold(usize::MAX);
        let mut diff = Differential::default();
        let mut rng = 0x0DE1_7A50u64;
        for round in 0..40 {
            let mut delta = GraphDelta::new();
            // A batch applies its removals before its inserts; so does `live`.
            for _ in 0..4 {
                let pick = (next_random(&mut rng) % live.len() as u64) as usize;
                let (a, b) = *live.iter().nth(pick).expect("index below the length");
                delta.remove_edge(VertexId(a), VertexId(b));
                live.remove(&(a, b));
            }
            for _ in 0..6 {
                let (a, b, _) = random_query(&mut rng, n);
                delta.insert_edge(VertexId(a), VertexId(b));
                live.insert((a, b));
            }
            let snapshot = versioned.apply(&delta);
            let rebuilt = CsrGraph::from_edges(n, &live.iter().copied().collect::<Vec<_>>());
            for _ in 0..25 {
                let query = random_query(&mut rng, n);
                let label = format!("overlay round {round}");
                let on_overlay =
                    diff.check(&snapshot.forward(), &snapshot.reverse(), query, &label);
                let (s, t, k) = query;
                let from_scratch = pre_bfs(&rebuilt, VertexId(s), VertexId(t), k);
                assert_same_outputs(&on_overlay, &from_scratch, &label);
            }
        }
        assert!(versioned.current().overlay_rows() > 0, "the snapshots must be overlays");
    }

    #[test]
    fn prebfs_removes_vertices_that_cannot_reach_t() {
        let g = sample();
        let prep = pre_bfs(&g, VertexId(0), VertexId(9), 5);
        assert!(prep.feasible);
        // Only the corridor 0,1,2,9 can satisfy sds + sdt <= 5.
        assert_eq!(prep.graph.num_vertices(), 4);
        let mapping = prep.mapping.as_ref().unwrap();
        for dead in 3..=8u32 {
            assert_eq!(mapping.to_new(VertexId(dead)), None);
        }
    }

    #[test]
    fn barrier_equals_distance_to_t_in_new_ids() {
        let g = sample();
        let prep = pre_bfs(&g, VertexId(0), VertexId(9), 5);
        let mapping = prep.mapping.as_ref().unwrap();
        let new2 = mapping.to_new(VertexId(2)).unwrap();
        assert_eq!(prep.barrier[new2.index()], 1);
        assert_eq!(prep.barrier[prep.t.index()], 0);
    }

    #[test]
    fn exact_distance_k_keeps_the_endpoints() {
        // Chain of length 4; k = 4 means sd(s, t) == k exactly.
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let prep = pre_bfs(&g, VertexId(0), VertexId(4), 4);
        assert!(prep.feasible);
        assert_eq!(prep.graph.num_vertices(), 5);
        // s itself is outside the (k-1)-hop reverse frontier, so its barrier is
        // clamped to k + 1; that slot is never read by the barrier check.
        assert_eq!(prep.barrier[prep.s.index()], 5);
    }

    #[test]
    fn infeasible_query_is_detected() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]);
        let prep = pre_bfs(&g, VertexId(0), VertexId(3), 6);
        assert!(!prep.feasible);
    }

    #[test]
    fn no_prebfs_keeps_the_whole_graph() {
        let g = sample();
        let prep = no_prebfs_preprocess(&g, VertexId(0), VertexId(9), 5);
        assert_eq!(prep.graph.num_vertices(), g.num_vertices());
        assert!(prep.mapping.is_none());
        assert_eq!(prep.barrier[9], 0);
        assert_eq!(prep.barrier[2], 1);
        assert_eq!(prep.barrier[8], 6); // cannot reach t -> clamped to k + 1
    }

    #[test]
    fn prebfs_subgraph_is_never_larger_than_no_prebfs() {
        let g = chung_lu(300, 6.0, 2.2, 5).to_csr();
        for &(s, t, k) in &[(0u32, 100u32, 4u32), (5, 200, 5), (10, 20, 3)] {
            let a = pre_bfs(&g, VertexId(s), VertexId(t), k);
            let b = no_prebfs_preprocess(&g, VertexId(s), VertexId(t), k);
            assert!(a.graph.num_vertices() <= b.graph.num_vertices());
            assert!(a.graph.num_edges() <= b.graph.num_edges());
        }
    }

    #[test]
    fn trivial_queries_short_circuit() {
        let g = sample();
        let same = pre_bfs(&g, VertexId(3), VertexId(3), 4);
        assert!(same.feasible);
        let zero = pre_bfs(&g, VertexId(0), VertexId(9), 0);
        assert!(!zero.feasible);
    }

    #[test]
    fn transfer_bytes_counts_graph_and_barrier() {
        let g = sample();
        let prep = pre_bfs(&g, VertexId(0), VertexId(9), 5);
        let expected = prep.graph.byte_size() + prep.barrier.len() * 4 + 16;
        assert_eq!(prep.transfer_bytes(), expected);
    }

    #[test]
    fn translate_path_maps_back_to_original_ids() {
        let g = sample();
        let prep = pre_bfs(&g, VertexId(0), VertexId(9), 5);
        let m = prep.mapping.as_ref().unwrap();
        let device_path: Vec<VertexId> =
            [0u32, 1, 2, 9].iter().map(|&v| m.to_new(VertexId(v)).unwrap()).collect();
        assert_eq!(
            prep.translate_path(&device_path),
            vec![VertexId(0), VertexId(1), VertexId(2), VertexId(9)]
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_source_panics() {
        let g = sample();
        pre_bfs(&g, VertexId(99), VertexId(9), 5);
    }

    #[test]
    fn reused_context_matches_one_shot_across_queries() {
        let g = Arc::new(chung_lu(400, 6.0, 2.2, 7).to_csr());
        let mut ctx = PrepareContext::new();
        for &(s, t, k) in
            &[(0u32, 200u32, 4u32), (3, 17, 5), (250, 9, 3), (0, 200, 4), (5, 5, 4), (1, 2, 0)]
        {
            let with_ctx = pre_bfs_with(&mut ctx, &g, VertexId(s), VertexId(t), k);
            let one_shot = pre_bfs(&g, VertexId(s), VertexId(t), k);
            assert_eq!(with_ctx.graph, one_shot.graph, "query ({s},{t},{k})");
            assert_eq!(with_ctx.barrier, one_shot.barrier);
            assert_eq!(with_ctx.feasible, one_shot.feasible);
            assert_eq!((with_ctx.s, with_ctx.t, with_ctx.k), (one_shot.s, one_shot.t, one_shot.k));
        }
        assert_eq!(ctx.stats().queries, 6);
        assert_eq!(ctx.stats().reverse_builds, 1, "reverse CSR must be built once, not per query");
    }

    #[test]
    fn context_reuses_an_installed_reverse() {
        let g = Arc::new(sample());
        let rev = Arc::new(g.reverse());
        let mut ctx = PrepareContext::with_reverse(&g, rev);
        for _ in 0..3 {
            let prep = pre_bfs_with(&mut ctx, &g, VertexId(0), VertexId(9), 5);
            assert!(prep.feasible);
        }
        assert_eq!(ctx.stats().reverse_builds, 0, "installed reverse must be reused");
    }

    #[test]
    fn context_rebuilds_reverse_when_the_graph_changes() {
        let a = Arc::new(sample());
        let b = Arc::new(CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]));
        let mut ctx = PrepareContext::new();
        pre_bfs_with(&mut ctx, &a, VertexId(0), VertexId(9), 5);
        pre_bfs_with(&mut ctx, &b, VertexId(0), VertexId(3), 4);
        pre_bfs_with(&mut ctx, &b, VertexId(1), VertexId(3), 4);
        assert_eq!(ctx.stats().reverse_builds, 2, "one build per distinct graph");
    }

    #[test]
    fn shared_paths_do_not_clone_the_data_graph() {
        let g = Arc::new(chung_lu(500, 5.0, 2.2, 11).to_csr());
        let mut ctx = PrepareContext::new();
        // No-Pre-BFS ships the full graph: it must be the same allocation.
        let no_prebfs = no_prebfs_with(&mut ctx, &g, VertexId(0), VertexId(250), 4);
        assert!(Arc::ptr_eq(&no_prebfs.graph, &g));
        // Trivial queries share the data graph too.
        let trivial = pre_bfs_with(&mut ctx, &g, VertexId(7), VertexId(7), 4);
        assert!(Arc::ptr_eq(&trivial.graph, &g));
        // Pre-BFS stores G' exactly once: the query and its mapping share it.
        let full = pre_bfs_with(&mut ctx, &g, VertexId(0), VertexId(250), 4);
        let mapping = full.mapping.as_ref().unwrap();
        assert!(Arc::ptr_eq(&full.graph, &mapping.graph));
    }
}
