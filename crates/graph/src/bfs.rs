//! Bounded (k-hop) breadth-first search primitives.
//!
//! Both the paper's preprocessing (Pre-BFS, Section V) and the JOIN baseline's
//! preprocessing are built from hop-bounded BFS distance computations; the
//! reproduction shares one implementation here.

use crate::ids::VertexId;
use crate::view::GraphView;
use std::collections::VecDeque;

/// Distance value used for vertices not reached within the hop bound.
///
/// The paper sets unreached distances to `k + 1`; using `u32::MAX` instead
/// keeps the sentinel independent of `k` — callers clamp when they need the
/// paper's convention.
pub const UNREACHED: u32 = u32::MAX;

/// Runs a BFS from `source` that explores at most `max_hops` hops and returns
/// the distance array (`UNREACHED` for vertices not reached within the bound).
pub fn khop_bfs<G: GraphView + ?Sized>(g: &G, source: VertexId, max_hops: u32) -> Vec<u32> {
    khop_bfs_multi(g, std::slice::from_ref(&source), max_hops)
}

/// Multi-source variant of [`khop_bfs`]: every source starts at distance 0.
///
/// Kept as a direct dense implementation: callers that want a full distance
/// array (JOIN preprocessing, barrier construction over all of `G`) pay
/// O(|V|) for the output anyway, so the epoch-stamping of [`BfsScratch`]
/// would only add bookkeeping here.
pub fn khop_bfs_multi<G: GraphView + ?Sized>(
    g: &G,
    sources: &[VertexId],
    max_hops: u32,
) -> Vec<u32> {
    let n = g.num_vertices();
    let mut dist = vec![UNREACHED; n];
    let mut queue = VecDeque::new();
    for &s in sources {
        if dist[s.index()] != 0 {
            dist[s.index()] = 0;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        if du >= max_hops {
            continue;
        }
        for &v in g.successors(u) {
            if dist[v.index()] == UNREACHED {
                dist[v.index()] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Reusable hop-bounded BFS scratch space with epoch-stamped distances.
///
/// A fresh `khop_bfs` call pays O(|V|) to allocate and initialise its distance
/// array even when the hop bound confines the traversal to a handful of
/// vertices. `BfsScratch` amortises that cost across queries: the distance
/// array is allocated once and validated per run through a generation counter
/// (`mark[v] == epoch` means `dist[v]` belongs to the current run), so a new
/// run costs O(touched), not O(|V|). The scratch also records the exact set of
/// reached vertices, which is what the Pre-BFS vertex cut iterates instead of
/// scanning every vertex of the data graph.
///
/// A search can also be driven one level at a time ([`BfsScratch::seed`],
/// then [`BfsScratch::expand_level`] with an admission test), which is how
/// Pre-BFS lets each of its two searches prune the other; [`BfsScratch::run`]
/// is that loop with every vertex admitted.
#[derive(Debug, Default, Clone)]
pub struct BfsScratch {
    dist: Vec<u32>,
    mark: Vec<u32>,
    epoch: u32,
    touched: Vec<VertexId>,
    /// The vertices of level `level`, in discovery order, still to be expanded.
    frontier: VecDeque<VertexId>,
    level: u32,
}

impl BfsScratch {
    /// An empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        BfsScratch::default()
    }

    /// Opens a new epoch for a graph of `n` vertices, invalidating all
    /// previous distances in O(1) (except on counter wrap-around). The arrays
    /// only ever grow: a new slot carries mark 0, which no live epoch equals,
    /// and a slot beyond the current graph keeps a mark from an older epoch.
    fn begin(&mut self, n: usize) {
        if self.mark.len() < n {
            self.dist.resize(n, 0);
            self.mark.resize(n, 0);
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                // Counter wrapped: every stale mark could alias the new epoch,
                // so pay one O(|V|) reset and restart the generation sequence.
                self.mark.fill(0);
                1
            }
        };
        self.touched.clear();
        self.frontier.clear();
        self.level = 0;
    }

    #[inline]
    fn visit(&mut self, v: VertexId, d: u32) {
        self.mark[v.index()] = self.epoch;
        self.dist[v.index()] = d;
        self.touched.push(v);
        self.frontier.push_back(v);
    }

    /// Runs a hop-bounded BFS from `source`, replacing any previous run.
    pub fn run<G: GraphView + ?Sized>(&mut self, g: &G, source: VertexId, max_hops: u32) {
        self.run_multi(g, std::slice::from_ref(&source), max_hops);
    }

    /// Multi-source variant of [`BfsScratch::run`].
    pub fn run_multi<G: GraphView + ?Sized>(&mut self, g: &G, sources: &[VertexId], max_hops: u32) {
        self.seed(g, sources);
        while self.level < max_hops && !self.frontier.is_empty() {
            self.expand_level(g, |_| true);
        }
    }

    /// Starts a level-by-level search, replacing any previous run: every
    /// source is reached at level 0 and together they form the frontier.
    pub fn seed<G: GraphView + ?Sized>(&mut self, g: &G, sources: &[VertexId]) {
        self.begin(g.num_vertices());
        for &s in sources {
            if self.mark[s.index()] != self.epoch {
                self.visit(s, 0);
            }
        }
    }

    /// The level of the current frontier: how many times the search has been
    /// expanded since it was seeded.
    #[inline]
    pub fn level(&self) -> u32 {
        self.level
    }

    /// What expanding the frontier would read: the sum of its out-degrees.
    /// Zero means no further vertex can be reached.
    pub fn frontier_cost<G: GraphView + ?Sized>(&self, g: &G) -> usize {
        self.frontier.iter().map(|&u| g.out_degree(u)).sum()
    }

    /// Drops the frontier vertices `keep` rejects, so they are not expanded.
    /// They stay reached: `dist` and `touched` still report them.
    pub fn retain_frontier(&mut self, mut keep: impl FnMut(VertexId) -> bool) {
        self.frontier.retain(|&v| keep(v));
    }

    /// Expands the frontier by one level: each unreached successor that
    /// `admit` accepts is reached at `level() + 1`, and those vertices become
    /// the new frontier. A rejected vertex stays unreached.
    pub fn expand_level<G: GraphView + ?Sized>(
        &mut self,
        g: &G,
        mut admit: impl FnMut(VertexId) -> bool,
    ) {
        self.level += 1;
        for _ in 0..self.frontier.len() {
            let u = self.frontier.pop_front().expect("counted above");
            for &v in g.successors(u) {
                if self.mark[v.index()] != self.epoch && admit(v) {
                    self.visit(v, self.level);
                }
            }
        }
    }

    /// Distance of `v` in the most recent run (`UNREACHED` if not reached).
    #[inline]
    pub fn dist(&self, v: VertexId) -> u32 {
        if self.mark.get(v.index()) == Some(&self.epoch) {
            self.dist[v.index()]
        } else {
            UNREACHED
        }
    }

    /// The vertices reached by the most recent run, in discovery order
    /// (sources first, then by increasing distance).
    pub fn touched(&self) -> &[VertexId] {
        &self.touched
    }

    /// Number of vertices reached by the most recent run.
    pub fn touched_len(&self) -> usize {
        self.touched.len()
    }

    /// Materialises the most recent run as a dense distance array (the
    /// [`khop_bfs`] output format).
    pub fn to_dense(&self, n: usize) -> Vec<u32> {
        let mut dense = vec![UNREACHED; n];
        for &v in &self.touched {
            dense[v.index()] = self.dist[v.index()];
        }
        dense
    }
}

/// Convenience: distances clamped to the paper's `k + 1` convention for
/// unreached vertices.
pub fn clamp_unreached(dist: &mut [u32], k: u32) {
    for d in dist {
        if *d == UNREACHED || *d > k {
            *d = k + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraph;

    fn chain() -> CsrGraph {
        // 0 -> 1 -> 2 -> 3 -> 4
        CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn bfs_distances_on_a_chain() {
        let g = chain();
        let d = khop_bfs(&g, VertexId(0), 10);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn hop_bound_stops_exploration() {
        let g = chain();
        let d = khop_bfs(&g, VertexId(0), 2);
        assert_eq!(d[0..3], [0, 1, 2]);
        assert_eq!(d[3], UNREACHED);
        assert_eq!(d[4], UNREACHED);
    }

    #[test]
    fn multi_source_takes_the_minimum() {
        let g = chain();
        let d = khop_bfs_multi(&g, &[VertexId(0), VertexId(3)], 10);
        assert_eq!(d, vec![0, 1, 2, 0, 1]);
    }

    #[test]
    fn clamping_applies_the_paper_convention() {
        let g = chain();
        let mut d = khop_bfs(&g, VertexId(0), 2);
        clamp_unreached(&mut d, 2);
        assert_eq!(d, vec![0, 1, 2, 3, 3]);
    }

    #[test]
    fn reverse_bfs_gives_distance_to_target() {
        let g = chain();
        let rev = g.reverse();
        let d = khop_bfs(&rev, VertexId(4), 10);
        assert_eq!(d, vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn scratch_reuse_matches_fresh_bfs() {
        let g = chain();
        let mut scratch = BfsScratch::new();
        // Deliberately dirty the scratch with a different run first.
        scratch.run(&g, VertexId(3), 10);
        assert_eq!(scratch.to_dense(5), vec![UNREACHED, UNREACHED, UNREACHED, 0, 1]);
        for (source, bound) in [(0u32, 2u32), (1, 10), (4, 3)] {
            scratch.run(&g, VertexId(source), bound);
            assert_eq!(scratch.to_dense(5), khop_bfs(&g, VertexId(source), bound));
        }
    }

    #[test]
    fn scratch_records_only_reached_vertices() {
        let g = chain();
        let mut scratch = BfsScratch::new();
        scratch.run(&g, VertexId(0), 2);
        assert_eq!(scratch.touched(), &[VertexId(0), VertexId(1), VertexId(2)]);
        assert_eq!(scratch.touched_len(), 3);
        assert_eq!(scratch.dist(VertexId(2)), 2);
        assert_eq!(scratch.dist(VertexId(3)), UNREACHED);
    }

    #[test]
    fn scratch_adapts_to_graphs_of_different_sizes() {
        let mut scratch = BfsScratch::new();
        assert_eq!(scratch.dist(VertexId(0)), UNREACHED);
        scratch.run(&chain(), VertexId(0), 10);
        assert_eq!(scratch.dist(VertexId(4)), 4);
        let small = CsrGraph::from_edges(2, &[(0, 1)]);
        scratch.run(&small, VertexId(1), 10);
        assert_eq!(scratch.dist(VertexId(1)), 0);
        assert_eq!(scratch.dist(VertexId(0)), UNREACHED);
        assert_eq!(scratch.dist(VertexId(4)), UNREACHED); // out of range, not stale

        // Alternating between sizes only ever grows the arrays and never
        // leaks a distance from the other graph.
        let big = CsrGraph::from_edges(9, &[(0, 1), (1, 8), (8, 7), (7, 2)]);
        for round in 0..4 {
            for (g, source) in [(&big, 0u32), (&small, 0), (&chain(), 1), (&big, 8)] {
                scratch.run(g, VertexId(source), 3);
                let mut expected = khop_bfs(g, VertexId(source), 3);
                assert_eq!(scratch.to_dense(expected.len()), expected, "round {round}");
                expected.resize(12, UNREACHED); // out-of-range vertices read as unreached
                for (v, &d) in expected.iter().enumerate() {
                    assert_eq!(scratch.dist(VertexId(v as u32)), d, "round {round}, vertex {v}");
                }
            }
        }
    }

    #[test]
    fn level_methods_expose_the_frontier_and_honour_the_admission_test() {
        // 0 -> {1, 2}, 1 -> 3, 2 -> 4, 3 -> 5, 4 -> 5
        let g = CsrGraph::from_edges(6, &[(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5)]);
        let mut scratch = BfsScratch::new();
        scratch.seed(&g, &[VertexId(0)]);
        assert_eq!((scratch.level(), scratch.frontier_cost(&g)), (0, 2));

        scratch.expand_level(&g, |_| true);
        assert_eq!((scratch.level(), scratch.frontier_cost(&g)), (1, 2));

        // Vertex 2 leaves the frontier but stays reached.
        scratch.retain_frontier(|v| v != VertexId(2));
        assert_eq!(scratch.frontier_cost(&g), 1);
        assert_eq!(scratch.dist(VertexId(2)), 1);

        // Only 1 is expanded, and its successor 3 is refused: nothing new.
        scratch.expand_level(&g, |v| v != VertexId(3));
        assert_eq!((scratch.level(), scratch.frontier_cost(&g)), (2, 0));
        assert_eq!(scratch.dist(VertexId(3)), UNREACHED);
        assert_eq!(scratch.touched(), &[VertexId(0), VertexId(1), VertexId(2)]);
    }

    #[test]
    fn scratch_multi_source_matches_dense_multi_source() {
        let g = chain();
        let mut scratch = BfsScratch::new();
        scratch.run_multi(&g, &[VertexId(0), VertexId(3)], 10);
        assert_eq!(scratch.to_dense(5), khop_bfs_multi(&g, &[VertexId(0), VertexId(3)], 10));
    }
}
