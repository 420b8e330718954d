//! Walk counting and result-size estimation.
//!
//! Counting s-t *simple* paths is #P-hard (Section II-A of the paper), but
//! counting s-t *walks* of bounded length is a cheap dynamic program over the
//! adjacency structure, and the walk count is an upper bound on the simple
//! path count. The reproduction uses these bounds in two places:
//!
//! * the engine router ([`crate::routing`]) scores each engine from the
//!   [`QueryEstimate`] of the pruned subgraph `G'`;
//! * the cluster dispatch ([`crate::run_prepared_on_cluster`]) orders its
//!   queries longest-first by [`count_st_walks`] on each prepared subgraph.
//!
//! For small inputs an exact simple-path counter (bounded DFS that counts
//! without materialising) is also provided; it is the correctness oracle for
//! the estimators and for the enumeration engines' `num_paths`.

use pefp_graph::{CsrGraph, VertexId};

/// Number of walks (vertex repetitions allowed) from `s` to `t` with at most
/// `k` hops, saturating at `u64::MAX`.
///
/// This is an upper bound on the number of s-t k-paths; it is exact on DAGs
/// (where every walk is a simple path).
pub fn count_st_walks(g: &CsrGraph, s: VertexId, t: VertexId, k: u32) -> u64 {
    count_st_walks_checked(g, s, t, k).0
}

/// Like [`count_st_walks`], but also reports whether any addition saturated.
///
/// A saturated count is still a valid upper bound, but it is no longer a
/// *ranking* signal: two astronomically different workloads both report
/// `u64::MAX`. Callers that compare estimates (the engine router) must treat
/// the flag as "beyond CPU scale" rather than trusting the magnitude.
pub fn count_st_walks_checked(g: &CsrGraph, s: VertexId, t: VertexId, k: u32) -> (u64, bool) {
    let (profile, mut saturated) = walk_profile_checked(g, s, t, k);
    let total = profile.iter().fold(0u64, |acc, &c| sat_add(acc, c, &mut saturated));
    (total, saturated)
}

/// Saturating addition that records whether it actually saturated.
fn sat_add(a: u64, b: u64, saturated: &mut bool) -> u64 {
    match a.checked_add(b) {
        Some(v) => v,
        None => {
            *saturated = true;
            u64::MAX
        }
    }
}

/// Number of walks from `s` to `t` of *exactly* `h` hops, for every
/// `h` in `0..=k` (index `h` of the returned vector).
///
/// The dynamic program keeps one `u64` per vertex per frontier and saturates
/// instead of overflowing, so it is safe to call with large `k` on dense
/// graphs.
pub fn walk_profile(g: &CsrGraph, s: VertexId, t: VertexId, k: u32) -> Vec<u64> {
    walk_profile_checked(g, s, t, k).0
}

/// Like [`walk_profile`], but also reports whether any per-vertex counter
/// saturated — once a counter pins at `u64::MAX`, every downstream value is a
/// floor, not an exact walk count.
pub fn walk_profile_checked(g: &CsrGraph, s: VertexId, t: VertexId, k: u32) -> (Vec<u64>, bool) {
    let n = g.num_vertices();
    let mut profile = vec![0u64; k as usize + 1];
    let mut saturated = false;
    if n == 0 || s.index() >= n || t.index() >= n {
        return (profile, saturated);
    }
    let mut current = vec![0u64; n];
    current[s.index()] = 1;
    profile[0] = if s == t { 1 } else { 0 };
    let mut next = vec![0u64; n];
    for p in profile.iter_mut().skip(1) {
        next.iter_mut().for_each(|c| *c = 0);
        for (v, &c) in current.iter().enumerate() {
            if c == 0 {
                continue;
            }
            for &w in g.successors(VertexId::from_index(v)) {
                let slot = &mut next[w.index()];
                *slot = sat_add(*slot, c, &mut saturated);
            }
        }
        *p = next[t.index()];
        std::mem::swap(&mut current, &mut next);
    }
    (profile, saturated)
}

/// Total number of walks of length at most `k` starting at `s` (an upper
/// bound on the number of intermediate paths the BFS-style engine can ever
/// hold for this query), saturating at `u64::MAX`.
pub fn count_walks_from(g: &CsrGraph, s: VertexId, k: u32) -> u64 {
    count_walks_from_checked(g, s, k).0
}

/// Like [`count_walks_from`], but also reports whether any addition
/// saturated along the way.
pub fn count_walks_from_checked(g: &CsrGraph, s: VertexId, k: u32) -> (u64, bool) {
    let n = g.num_vertices();
    let mut saturated = false;
    if n == 0 || s.index() >= n {
        return (0, saturated);
    }
    let mut current = vec![0u64; n];
    current[s.index()] = 1;
    let mut total: u64 = 1;
    let mut next = vec![0u64; n];
    for _ in 1..=k {
        next.iter_mut().for_each(|c| *c = 0);
        let mut frontier_total: u64 = 0;
        for (v, &c) in current.iter().enumerate() {
            if c == 0 {
                continue;
            }
            for &w in g.successors(VertexId::from_index(v)) {
                let slot = &mut next[w.index()];
                *slot = sat_add(*slot, c, &mut saturated);
            }
        }
        for &c in next.iter() {
            frontier_total = sat_add(frontier_total, c, &mut saturated);
        }
        total = sat_add(total, frontier_total, &mut saturated);
        if frontier_total == 0 {
            break;
        }
        std::mem::swap(&mut current, &mut next);
    }
    (total, saturated)
}

/// Exact number of s-t simple paths with at most `k` hops, computed by a
/// bounded DFS that counts without materialising any path.
///
/// Exponential in the worst case — intended for tests, small graphs and as
/// the ground truth the estimators are validated against.
pub fn count_simple_paths(g: &CsrGraph, s: VertexId, t: VertexId, k: u32) -> u64 {
    let n = g.num_vertices();
    if n == 0 || s.index() >= n || t.index() >= n {
        return 0;
    }
    let mut visited = vec![false; n];
    visited[s.index()] = true;
    let mut count = 0u64;
    dfs_count(g, s, t, k, &mut visited, &mut count);
    count
}

fn dfs_count(
    g: &CsrGraph,
    current: VertexId,
    t: VertexId,
    remaining: u32,
    visited: &mut [bool],
    count: &mut u64,
) {
    if current == t {
        *count += 1;
        // The target may still be an interior vertex of a longer path only if
        // it were allowed to repeat — it is not (simple paths), so stop here.
        return;
    }
    if remaining == 0 {
        return;
    }
    for &next in g.successors(current) {
        if !visited[next.index()] {
            visited[next.index()] = true;
            dfs_count(g, next, t, remaining - 1, visited, count);
            visited[next.index()] = false;
        }
    }
}

/// A cheap, conservative estimate of the volume of work one query implies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryEstimate {
    /// Upper bound on the number of result paths (s-t walk count).
    pub max_results: u64,
    /// Upper bound on the number of intermediate paths generated during
    /// BFS-style expansion (walks of any length ≤ k from `s`).
    pub max_intermediate_paths: u64,
    /// Whether either counter saturated at `u64::MAX`. A saturated estimate
    /// is still an upper bound, but its *magnitude* carries no ranking
    /// information — all overflowing workloads collapse to the same value, so
    /// cost models must treat the flag, not the number, as the signal.
    pub saturated: bool,
}

impl QueryEstimate {
    /// Estimates `(s, t, k)` on `g` — typically the *pruned* graph produced by
    /// Pre-BFS, where the bounds are dramatically tighter than on the
    /// original graph.
    pub fn compute(g: &CsrGraph, s: VertexId, t: VertexId, k: u32) -> QueryEstimate {
        let (max_results, results_saturated) = count_st_walks_checked(g, s, t, k);
        let (max_intermediate_paths, walks_saturated) = count_walks_from_checked(g, s, k);
        QueryEstimate {
            max_results,
            max_intermediate_paths,
            saturated: results_saturated || walks_saturated,
        }
    }

    /// Whether the estimate exceeds a result budget (the `INF` cutoff used by
    /// the experiment harness).
    pub fn exceeds(&self, max_results: u64) -> bool {
        self.max_results > max_results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pefp_baselines::naive_dfs_enumerate;
    use pefp_graph::generators::chung_lu;

    fn vid(v: u32) -> VertexId {
        VertexId(v)
    }

    fn diamond() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn diamond_has_two_paths_counted_exactly() {
        let g = diamond();
        assert_eq!(count_simple_paths(&g, vid(0), vid(3), 2), 2);
        assert_eq!(count_simple_paths(&g, vid(0), vid(3), 1), 0);
        assert_eq!(count_st_walks(&g, vid(0), vid(3), 2), 2);
    }

    #[test]
    fn walk_profile_matches_hand_computed_values() {
        let g = diamond();
        let profile = walk_profile(&g, vid(0), vid(3), 3);
        assert_eq!(profile, vec![0, 0, 2, 0]);
        // s == t contributes the empty walk at h = 0.
        let self_profile = walk_profile(&g, vid(0), vid(0), 2);
        assert_eq!(self_profile[0], 1);
    }

    #[test]
    fn walks_upper_bound_simple_paths_on_cyclic_graphs() {
        // Triangle 0->1->2->0 plus 2->3: walks can loop, simple paths cannot.
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let k = 8;
        let walks = count_st_walks(&g, vid(0), vid(3), k);
        let simple = count_simple_paths(&g, vid(0), vid(3), k);
        assert_eq!(simple, 1);
        assert!(walks > simple);
    }

    #[test]
    fn walk_count_equals_simple_count_on_dags() {
        // Layered DAG: 0 -> {1,2} -> {3,4} -> 5.
        let g = CsrGraph::from_edges(
            6,
            &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)],
        );
        for k in 0..=5 {
            assert_eq!(
                count_st_walks(&g, vid(0), vid(5), k),
                count_simple_paths(&g, vid(0), vid(5), k),
                "k = {k}"
            );
        }
    }

    #[test]
    fn exact_count_agrees_with_the_naive_enumerator() {
        let g = chung_lu(120, 4.0, 2.2, 21).to_csr();
        let s = vid(0);
        let t = vid(60);
        for k in 1..=4 {
            let enumerated = naive_dfs_enumerate(&g, s, t, k).len() as u64;
            assert_eq!(count_simple_paths(&g, s, t, k), enumerated, "k = {k}");
            assert!(count_st_walks(&g, s, t, k) >= enumerated);
        }
    }

    #[test]
    fn count_walks_from_includes_the_trivial_walk() {
        let g = diamond();
        assert_eq!(count_walks_from(&g, vid(3), 5), 1, "sink has only the empty walk");
        // From 0 with k=1: {0}, {0,1}, {0,2} = 3.
        assert_eq!(count_walks_from(&g, vid(0), 1), 3);
        // k=2 adds {0,1,3}, {0,2,3}.
        assert_eq!(count_walks_from(&g, vid(0), 2), 5);
    }

    #[test]
    fn saturation_prevents_overflow_on_dense_cycles() {
        // Complete directed graph on 12 vertices, k = 40: astronomically many
        // walks. The counter must saturate, not overflow or hang.
        let mut edges = Vec::new();
        for a in 0..12u32 {
            for b in 0..12u32 {
                if a != b {
                    edges.push((a, b));
                }
            }
        }
        let g = CsrGraph::from_edges(12, &edges);
        let walks = count_st_walks(&g, vid(0), vid(1), 30);
        assert!(walks > 1u64 << 60);
        let (checked, saturated) = count_st_walks_checked(&g, vid(0), vid(1), 30);
        assert_eq!(checked, walks);
        assert!(saturated, "a complete K12 at k=30 must overflow u64");
        let est = QueryEstimate::compute(&g, vid(0), vid(1), 30);
        assert!(est.saturated);
    }

    #[test]
    fn small_workloads_never_report_saturation() {
        let g = chung_lu(150, 5.0, 2.2, 33).to_csr();
        let est = QueryEstimate::compute(&g, vid(1), vid(75), 4);
        assert!(!est.saturated);
        let (_, saturated) = count_walks_from_checked(&g, vid(1), 4);
        assert!(!saturated);
    }

    #[test]
    fn out_of_range_vertices_yield_zero() {
        let g = diamond();
        assert_eq!(count_st_walks(&g, vid(9), vid(3), 3), 0);
        assert_eq!(count_simple_paths(&g, vid(0), vid(9), 3), 0);
        assert_eq!(count_walks_from(&g, vid(9), 3), 0);
        let empty = CsrGraph::empty(0);
        assert_eq!(count_st_walks(&empty, vid(0), vid(0), 3), 0);
    }

    #[test]
    fn query_estimate_bounds_the_real_engine_workload() {
        let g = chung_lu(150, 5.0, 2.2, 33).to_csr();
        let s = vid(1);
        let t = vid(75);
        let k = 4;
        let est = QueryEstimate::compute(&g, s, t, k);
        let exact = count_simple_paths(&g, s, t, k);
        assert!(est.max_results >= exact);
        assert!(est.max_intermediate_paths >= est.max_results);
        assert!(est.exceeds(0) || est.max_results == 0);
        assert!(!est.exceeds(u64::MAX));
    }
}
