//! JOIN: the state-of-the-art CPU algorithm (Peng et al., VLDB 2019).
//!
//! JOIN is the baseline every experiment of the PEFP paper compares against.
//! It combines two ideas (Section III-B of the PEFP paper):
//!
//! 1. **BC-DFS** pruning ("never fall in the same trap twice"), provided by
//!    [`crate::bc_dfs`].
//! 2. A **middle-vertex join**: every s-t path of length `l` has a unique
//!    middle vertex (the `⌈(l+1)/2⌉`-th vertex, i.e. at `⌊l/2⌋` hops from `s`).
//!    JOIN enumerates *prefixes* from `s` to candidate middle vertices
//!    (length `≤ ⌊k/2⌋`) and *suffixes* from candidate middle vertices to `t`
//!    (length `≤ ⌈k/2⌉`), then joins the two sides on the middle vertex. A
//!    joined pair is emitted iff the concatenation is simple, within the hop
//!    budget and the join vertex really is its middle vertex — which makes
//!    every result appear exactly once.
//!
//! The preprocessing phase (timed separately in Fig. 9/10 of the paper) runs
//! the two k-hop BFS passes and computes the middle-vertex candidate set; the
//! query phase runs the two BC-DFS enumerations and the join.

use crate::bc_dfs::BcDfs;
use pefp_graph::bfs::{khop_bfs, khop_bfs_multi, UNREACHED};
use pefp_graph::paths::Path;
use pefp_graph::sink::{CollectSink, PathSink};
use pefp_graph::{CsrGraph, VertexId};
use std::collections::HashMap;
use std::ops::ControlFlow;

/// Output of JOIN's preprocessing phase.
#[derive(Debug, Clone)]
pub struct JoinPreprocess {
    /// `sd(s, u)` clamped to `k + 1` for unreachable vertices.
    pub sds: Vec<u32>,
    /// `sd(u, t)` clamped to `k + 1` for unreachable vertices.
    pub sdt: Vec<u32>,
    /// Candidate middle vertices: `sds[u] ≤ ⌊k/2⌋`, `sdt[u] ≤ ⌈k/2⌉` and
    /// `sds[u] + sdt[u] ≤ k`.
    pub middle_vertices: Vec<VertexId>,
    /// Hop constraint this preprocessing was computed for.
    pub k: u32,
}

/// The JOIN enumerator.
#[derive(Debug, Clone, Default)]
pub struct Join {
    /// Number of (prefix, suffix) pairs considered by the join phase in the
    /// last query (for reports).
    pub join_candidates: u64,
    /// Number of joined pairs rejected by the simplicity / middle-vertex
    /// checks in the last query.
    pub join_rejected: u64,
}

impl Join {
    /// Creates a JOIN runner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Preprocessing: two k-hop BFS passes plus the middle-vertex cut.
    pub fn preprocess(&self, g: &CsrGraph, s: VertexId, t: VertexId, k: u32) -> JoinPreprocess {
        let mut sds = khop_bfs(g, s, k);
        let mut sdt = khop_bfs(&g.reverse(), t, k);
        for d in sds.iter_mut().chain(sdt.iter_mut()) {
            if *d == UNREACHED {
                *d = k + 1;
            }
        }
        let half_floor = k / 2;
        let half_ceil = k - half_floor;
        let middle_vertices = g
            .vertices()
            .filter(|u| {
                let ds = sds[u.index()];
                let dt = sdt[u.index()];
                ds <= half_floor && dt <= half_ceil && ds + dt <= k
            })
            .collect();
        JoinPreprocess { sds, sdt, middle_vertices, k }
    }

    /// Query phase: prefix/suffix enumeration plus the join.
    pub fn query(
        &mut self,
        g: &CsrGraph,
        s: VertexId,
        t: VertexId,
        k: u32,
        prep: &JoinPreprocess,
    ) -> Vec<Path> {
        let mut sink = CollectSink::new();
        let _ = self.query_into(g, s, t, k, prep, &mut sink);
        sink.into_paths()
    }

    /// Query phase, streaming each joined result into `sink` as it is
    /// produced. The prefix/suffix sides are still materialised (the join is
    /// inherently a materialising algorithm), but the *result* set never is,
    /// and the sink can stop the join early ([`ControlFlow::Break`]).
    pub fn query_into<S: PathSink + ?Sized>(
        &mut self,
        g: &CsrGraph,
        s: VertexId,
        t: VertexId,
        k: u32,
        prep: &JoinPreprocess,
        sink: &mut S,
    ) -> ControlFlow<()> {
        assert_eq!(prep.k, k, "preprocessing was computed for a different k");
        self.join_candidates = 0;
        self.join_rejected = 0;
        if s.index() >= g.num_vertices() || t.index() >= g.num_vertices() {
            return ControlFlow::Continue(());
        }
        if s == t {
            return sink.emit(&[s]);
        }
        if prep.middle_vertices.is_empty() {
            return ControlFlow::Continue(());
        }
        let half_floor = k / 2;
        let half_ceil = k - half_floor;

        let mut is_middle = vec![false; g.num_vertices()];
        for &m in &prep.middle_vertices {
            is_middle[m.index()] = true;
        }

        // Prefixes: s ⇝ u (u ∈ M) with at most ⌊k/2⌋ hops, grouped by u.
        let prefixes = self.enumerate_prefixes(g, s, half_floor, &is_middle);
        if prefixes.is_empty() {
            return ControlFlow::Continue(());
        }

        // Suffixes: u ⇝ t with at most ⌈k/2⌉ hops, only for middle vertices
        // that actually received a prefix. The BC-DFS barrier state (seeded
        // from sdt) is shared across all suffix enumerations.
        let mut searcher = BcDfs::with_barrier(prep.sdt.clone(), k);
        let mut suffixes: HashMap<VertexId, Vec<Path>> = HashMap::new();
        for &u in prefixes.keys() {
            let paths = searcher.enumerate(g, u, t, half_ceil);
            if !paths.is_empty() {
                suffixes.insert(u, paths);
            }
        }

        // Join on the middle vertex.
        for (u, pres) in &prefixes {
            let Some(sufs) = suffixes.get(u) else { continue };
            for pre in pres {
                for suf in sufs {
                    self.join_candidates += 1;
                    let total_len = (pre.len() - 1) + (suf.len() - 1);
                    if total_len as u32 > k || total_len == 0 {
                        self.join_rejected += 1;
                        continue;
                    }
                    // Middle-vertex condition: the join vertex must sit at
                    // exactly ⌊total_len/2⌋ hops from s, which de-duplicates
                    // paths that could otherwise be split at several vertices.
                    if pre.len() - 1 != total_len / 2 {
                        self.join_rejected += 1;
                        continue;
                    }
                    // Simplicity: prefix and suffix may only share the join vertex.
                    if Self::overlaps(pre, suf) {
                        self.join_rejected += 1;
                        continue;
                    }
                    let mut path = pre.clone();
                    path.extend_from_slice(&suf[1..]);
                    sink.emit(&path)?;
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// Convenience: preprocessing followed by a query.
    pub fn enumerate(&mut self, g: &CsrGraph, s: VertexId, t: VertexId, k: u32) -> Vec<Path> {
        let prep = self.preprocess(g, s, t, k);
        self.query(g, s, t, k, &prep)
    }

    /// Convenience: preprocessing followed by a streaming query into `sink`.
    pub fn enumerate_into<S: PathSink + ?Sized>(
        &mut self,
        g: &CsrGraph,
        s: VertexId,
        t: VertexId,
        k: u32,
        sink: &mut S,
    ) -> ControlFlow<()> {
        let prep = self.preprocess(g, s, t, k);
        self.query_into(g, s, t, k, &prep, sink)
    }

    /// Enumerates all simple paths from `s` of length `≤ max_hops` ending at a
    /// middle vertex, grouped by their final vertex.
    ///
    /// Exploration is pruned with the distance-to-the-nearest-middle-vertex
    /// map (a multi-source BFS on the reverse graph), the analogue of the
    /// virtual-target trick in the original paper.
    fn enumerate_prefixes(
        &self,
        g: &CsrGraph,
        s: VertexId,
        max_hops: u32,
        is_middle: &[bool],
    ) -> HashMap<VertexId, Vec<Path>> {
        let middles: Vec<VertexId> = g.vertices().filter(|v| is_middle[v.index()]).collect();
        let rev = g.reverse();
        let dist_to_middle = khop_bfs_multi(&rev, &middles, max_hops);

        let mut grouped: HashMap<VertexId, Vec<Path>> = HashMap::new();
        if dist_to_middle[s.index()] == UNREACHED {
            return grouped;
        }
        let mut stack = vec![s];
        let mut on_path = vec![false; g.num_vertices()];
        on_path[s.index()] = true;
        if is_middle[s.index()] {
            grouped.entry(s).or_default().push(vec![s]);
        }
        Self::prefix_dfs(
            g,
            max_hops,
            is_middle,
            &dist_to_middle,
            &mut stack,
            &mut on_path,
            &mut grouped,
        );
        grouped
    }

    fn prefix_dfs(
        g: &CsrGraph,
        max_hops: u32,
        is_middle: &[bool],
        dist_to_middle: &[u32],
        stack: &mut Vec<VertexId>,
        on_path: &mut [bool],
        grouped: &mut HashMap<VertexId, Vec<Path>>,
    ) {
        let current = *stack.last().expect("stack never empty");
        let hops = (stack.len() - 1) as u32;
        if hops >= max_hops {
            return;
        }
        for &next in g.successors(current) {
            if on_path[next.index()] {
                continue;
            }
            let to_middle = dist_to_middle[next.index()];
            if to_middle == UNREACHED || hops + 1 + to_middle > max_hops {
                continue;
            }
            stack.push(next);
            on_path[next.index()] = true;
            if is_middle[next.index()] {
                grouped.entry(next).or_default().push(stack.clone());
            }
            Self::prefix_dfs(g, max_hops, is_middle, dist_to_middle, stack, on_path, grouped);
            stack.pop();
            on_path[next.index()] = false;
        }
    }

    /// Whether prefix and suffix share any vertex besides the join vertex
    /// (`prefix.last() == suffix.first()`).
    fn overlaps(prefix: &[VertexId], suffix: &[VertexId]) -> bool {
        // Both sides are short (≤ k/2 + 1 vertices), so the quadratic check is
        // faster than building a hash set.
        for v in &prefix[..prefix.len() - 1] {
            if suffix[1..].contains(v) {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_dfs_enumerate;
    use pefp_graph::generators::{
        chung_lu, layered_dag, layered_sink, layered_source, small_world,
    };
    use pefp_graph::paths::{canonicalize, validate_result};

    fn check_against_naive(g: &CsrGraph, s: u32, t: u32, k: u32) {
        let mut join = Join::new();
        let a = canonicalize(join.enumerate(g, VertexId(s), VertexId(t), k));
        let b = canonicalize(naive_dfs_enumerate(g, VertexId(s), VertexId(t), k));
        assert_eq!(a, b, "JOIN mismatch for ({s},{t},{k})");
        assert!(validate_result(g, VertexId(s), VertexId(t), k as usize, &a).is_empty());
    }

    #[test]
    fn diamond_and_chain() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        check_against_naive(&g, 0, 3, 3);
        let chain = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        check_against_naive(&chain, 0, 4, 4);
        check_against_naive(&chain, 0, 4, 3);
    }

    #[test]
    fn direct_edge_paths_are_found() {
        // s -> t direct plus a 2-hop detour: middle vertices include s itself.
        let g = CsrGraph::from_edges(3, &[(0, 2), (0, 1), (1, 2)]);
        check_against_naive(&g, 0, 2, 1);
        check_against_naive(&g, 0, 2, 2);
    }

    #[test]
    fn odd_and_even_hop_constraints() {
        let g = chung_lu(80, 5.0, 2.2, 11).to_csr();
        for k in [2, 3, 4, 5] {
            check_against_naive(&g, 0, 17, k);
        }
    }

    #[test]
    fn matches_naive_on_random_graphs() {
        for seed in 0..3u64 {
            let g = chung_lu(100, 4.0, 2.3, seed).to_csr();
            check_against_naive(&g, 2, 33, 5);
            check_against_naive(&g, 7, 8, 4);
        }
        let g = small_world(120, 2, 0.2, 9).to_csr();
        check_against_naive(&g, 0, 60, 5);
        check_against_naive(&g, 5, 100, 6);
    }

    #[test]
    fn layered_dag_is_exact() {
        let g = layered_dag(3, 3, 3, 4).to_csr();
        let mut join = Join::new();
        let r = join.enumerate(&g, layered_source(), layered_sink(3, 3), 4);
        assert_eq!(r.len(), 27);
    }

    #[test]
    fn preprocessing_middle_set_respects_the_cut() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let join = Join::new();
        let prep = join.preprocess(&g, VertexId(0), VertexId(4), 4);
        // Only vertex 2 is at ⌊k/2⌋ = 2 hops from s and ⌈k/2⌉ = 2 hops to t.
        assert_eq!(prep.middle_vertices, vec![VertexId(2)]);
    }

    #[test]
    fn unreachable_queries_return_empty() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]);
        let mut join = Join::new();
        assert!(join.enumerate(&g, VertexId(0), VertexId(3), 6).is_empty());
    }

    #[test]
    fn source_equals_target() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let mut join = Join::new();
        assert_eq!(join.enumerate(&g, VertexId(1), VertexId(1), 3), vec![vec![VertexId(1)]]);
    }

    #[test]
    fn streaming_matches_collected_enumeration() {
        use pefp_graph::sink::FirstN;
        let g = chung_lu(80, 5.0, 2.2, 11).to_csr();
        let (s, t, k) = (VertexId(0), VertexId(17), 4);
        let expected = canonicalize(Join::new().enumerate(&g, s, t, k));
        let mut sink = CollectSink::new();
        assert_eq!(Join::new().enumerate_into(&g, s, t, k, &mut sink), ControlFlow::Continue(()));
        assert_eq!(canonicalize(sink.into_paths()), expected);
        // A saturated FirstN stops the join early.
        if expected.len() > 1 {
            let mut first = FirstN::new(1, CollectSink::new());
            assert_eq!(Join::new().enumerate_into(&g, s, t, k, &mut first), ControlFlow::Break(()));
            assert_eq!(first.emitted(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "different k")]
    fn mismatched_preprocessing_is_rejected() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let mut join = Join::new();
        let prep = join.preprocess(&g, VertexId(0), VertexId(2), 3);
        let _ = join.query(&g, VertexId(0), VertexId(2), 4, &prep);
    }
}
