//! BC-DFS: barrier-based DFS with "learning from mistakes" pruning.
//!
//! BC-DFS is the core pruning primitive of the JOIN algorithm (Peng et al.,
//! VLDB 2019), described in Section III-B of the PEFP paper and illustrated in
//! its Fig. 1. Every vertex `u` carries a *barrier* `bar[u]`, a lower bound on
//! the number of hops any path must still spend to reach the target after
//! entering `u`:
//!
//! * the barrier is initialised to `sd(u, t)` (shortest distance to the
//!   target, from a reverse k-hop BFS);
//! * a successor `u` of the current stack `S` is only explored when
//!   `len(S) + 1 + bar[u] <= k`;
//! * when the search below `u` (entered with `len(S)` hops used) produces no
//!   result, the algorithm learned that `k - len(S)` remaining hops are not
//!   enough, so it raises the barrier to `k + 1 - len(S)` — "never fall in the
//!   same trap twice".
//!
//! The learned barriers are sound lower bounds, so no valid path is pruned.

use pefp_graph::bfs::{khop_bfs, UNREACHED};
use pefp_graph::paths::Path;
use pefp_graph::sink::{CollectSink, PathSink};
use pefp_graph::{CsrGraph, VertexId};
use std::ops::ControlFlow;

/// Reusable BC-DFS searcher holding the barrier array for one `(graph, t, k)`
/// combination.
///
/// JOIN runs BC-DFS several times against the same target (once per middle
/// vertex side); keeping the learned barriers between runs is both faithful to
/// the original design and a significant optimisation.
#[derive(Debug, Clone)]
pub struct BcDfs {
    /// `bar[u]`: lower bound on the hops needed from `u` to the target.
    bar: Vec<u32>,
    /// Hop constraint the barriers were learned under.
    k: u32,
    /// Number of vertices pruned by the barrier check (for reports).
    pub pruned: u64,
    /// Number of vertices expanded (for reports).
    pub expanded: u64,
}

impl BcDfs {
    /// Prepares a searcher for queries towards `t` with hop constraint `k`:
    /// runs the k-hop reverse BFS that seeds the barrier array.
    pub fn new(g: &CsrGraph, t: VertexId, k: u32) -> Self {
        let rev = g.reverse();
        let mut bar = khop_bfs(&rev, t, k);
        for b in &mut bar {
            if *b == UNREACHED {
                *b = k + 1;
            }
        }
        BcDfs { bar, k, pruned: 0, expanded: 0 }
    }

    /// Prepares a searcher with an externally supplied barrier array
    /// (`bar[u] = sd(u, t)`, with `k + 1` for unreachable vertices).
    pub fn with_barrier(bar: Vec<u32>, k: u32) -> Self {
        BcDfs { bar, k, pruned: 0, expanded: 0 }
    }

    /// Current barrier of `u`.
    pub fn barrier(&self, u: VertexId) -> u32 {
        self.bar[u.index()]
    }

    /// Enumerates all simple paths from `s` to `t` with at most `max_hops`
    /// hops (`max_hops <= k`), using and updating the learned barriers.
    pub fn enumerate(
        &mut self,
        g: &CsrGraph,
        s: VertexId,
        t: VertexId,
        max_hops: u32,
    ) -> Vec<Path> {
        let mut sink = CollectSink::new();
        let _ = self.enumerate_into(g, s, t, max_hops, &mut sink);
        sink.into_paths()
    }

    /// Streams all simple paths from `s` to `t` with at most `max_hops` hops
    /// into `sink`, using and updating the learned barriers.
    ///
    /// Returns [`ControlFlow::Break`] when the sink stopped the enumeration
    /// early. An aborted subtree is *not* treated as a learning opportunity:
    /// its exploration was cut short, so "no path found below" would be a lie
    /// and raising a barrier from it could prune valid paths in later runs on
    /// the same searcher.
    pub fn enumerate_into<S: PathSink + ?Sized>(
        &mut self,
        g: &CsrGraph,
        s: VertexId,
        t: VertexId,
        max_hops: u32,
        sink: &mut S,
    ) -> ControlFlow<()> {
        assert!(max_hops <= self.k, "max_hops {} exceeds the preprocessed k {}", max_hops, self.k);
        if s.index() >= g.num_vertices() || t.index() >= g.num_vertices() {
            return ControlFlow::Continue(());
        }
        if s == t {
            return sink.emit(&[s]);
        }
        // The source itself must be able to reach t within the budget.
        if self.bar[s.index()] > max_hops {
            self.pruned += 1;
            return ControlFlow::Continue(());
        }
        let mut stack = vec![s];
        let mut on_path = vec![false; g.num_vertices()];
        on_path[s.index()] = true;
        let (_, _, aborted) = self.search(g, t, max_hops, &mut stack, &mut on_path, sink);
        if aborted {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }

    /// Recursive search.
    ///
    /// Returns `(found_any, conflicted, aborted)` for the subtree rooted at
    /// the current stack top: `found_any` is `true` when at least one result
    /// path was produced, `conflicted` is `true` when some branch was cut
    /// because a successor was already on the current stack, and `aborted` is
    /// `true` when the sink broke the enumeration. A barrier may only be
    /// raised for a failed subtree that is *not* conflicted and *not* aborted
    /// — otherwise the failure could be caused by the particular prefix on
    /// the stack (or by the early stop) rather than by the remaining hop
    /// budget, and raising the barrier would prune valid paths reached
    /// through other prefixes.
    fn search<S: PathSink + ?Sized>(
        &mut self,
        g: &CsrGraph,
        t: VertexId,
        max_hops: u32,
        stack: &mut Vec<VertexId>,
        on_path: &mut [bool],
        sink: &mut S,
    ) -> (bool, bool, bool) {
        let current = *stack.last().expect("stack never empty");
        let hops = (stack.len() - 1) as u32;
        self.expanded += 1;
        let mut found_any = false;
        let mut conflicted = false;
        for &next in g.successors(current) {
            if next == t {
                let mut path = stack.clone();
                path.push(t);
                found_any = true;
                if sink.emit(&path).is_break() {
                    return (found_any, conflicted, true);
                }
                continue;
            }
            if on_path[next.index()] {
                conflicted = true;
                continue;
            }
            // Barrier check: entering `next` uses one hop, then at least
            // bar[next] more hops are needed.
            if hops + 1 + self.bar[next.index()] > max_hops {
                self.pruned += 1;
                continue;
            }
            stack.push(next);
            on_path[next.index()] = true;
            let (found_below, conflict_below, aborted_below) =
                self.search(g, t, max_hops, stack, on_path, sink);
            stack.pop();
            on_path[next.index()] = false;
            if found_below {
                found_any = true;
            }
            if aborted_below {
                return (found_any, conflicted | conflict_below, true);
            }
            if !found_below && !conflict_below {
                // Learning from the mistake: `max_hops - (hops + 1)` remaining
                // hops were provably not enough below `next` (independently of
                // the current prefix), so any future visit needs a strictly
                // larger budget.
                let learned = max_hops.saturating_sub(hops + 1) + 1;
                let slot = &mut self.bar[next.index()];
                if learned > *slot {
                    *slot = learned;
                }
            }
            conflicted |= conflict_below;
        }
        (found_any, conflicted, false)
    }
}

/// One-shot convenience wrapper: builds a [`BcDfs`] and runs a single query.
pub fn bc_dfs_enumerate(g: &CsrGraph, s: VertexId, t: VertexId, k: u32) -> Vec<Path> {
    BcDfs::new(g, t, k).enumerate(g, s, t, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_dfs_enumerate;
    use pefp_graph::generators::{chung_lu, layered_dag, layered_sink, layered_source};
    use pefp_graph::paths::canonicalize;

    #[test]
    fn matches_naive_on_a_diamond() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let a = canonicalize(bc_dfs_enumerate(&g, VertexId(0), VertexId(3), 3));
        let b = canonicalize(naive_dfs_enumerate(&g, VertexId(0), VertexId(3), 3));
        assert_eq!(a, b);
    }

    #[test]
    fn matches_naive_on_random_graphs() {
        for seed in 0..4u64 {
            let g = chung_lu(90, 4.0, 2.2, seed).to_csr();
            for &(s, t, k) in &[(0u32, 7u32, 4u32), (1, 50, 5), (5, 6, 6)] {
                let a = canonicalize(bc_dfs_enumerate(&g, VertexId(s), VertexId(t), k));
                let b = canonicalize(naive_dfs_enumerate(&g, VertexId(s), VertexId(t), k));
                assert_eq!(a, b, "mismatch seed {seed} query ({s},{t},{k})");
            }
        }
    }

    #[test]
    fn trap_example_from_the_paper_is_pruned() {
        // Reconstruct the spirit of Fig. 1: a long tail that cannot reach t
        // within the budget, entered from many sibling branches.
        let mut edges = vec![(0u32, 1u32), (1, 2)];
        // u2 (=2) leads into a chain of 10 vertices that never reaches t.
        for i in 0..10u32 {
            edges.push((2 + i, 3 + i));
        }
        // siblings u3..u100 (= 20..40) all also point into the trap entrance 2.
        for i in 20..40u32 {
            edges.push((1, i));
            edges.push((i, 2));
        }
        // a real path: 1 -> 50 -> 51 -> t(=60)
        edges.push((1, 50));
        edges.push((50, 51));
        edges.push((51, 60));
        let g = CsrGraph::from_edges(61, &edges);
        let k = 7;
        let mut searcher = BcDfs::new(&g, VertexId(60), k);
        let results = searcher.enumerate(&g, VertexId(0), VertexId(60), k);
        assert_eq!(results.len(), 1);
        // The trap vertices behind 2 are never reachable to t, so the initial
        // reverse BFS already assigns them barrier k+1 and they are pruned.
        assert!(searcher.pruned > 0);
    }

    #[test]
    fn learned_barriers_increase_monotonically() {
        // A graph where vertex 2 can reach t but only via a path longer than
        // the remaining budget when entered deep in the search.
        let g = CsrGraph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2), (5, 6)]);
        let t = VertexId(6);
        let mut searcher = BcDfs::new(&g, t, 4);
        let before = searcher.barrier(VertexId(2));
        let _ = searcher.enumerate(&g, VertexId(0), t, 4);
        assert!(searcher.barrier(VertexId(2)) >= before);
    }

    #[test]
    fn layered_dag_count_is_exact() {
        let g = layered_dag(3, 4, 4, 2).to_csr();
        let r = bc_dfs_enumerate(&g, layered_source(), layered_sink(3, 4), 4);
        assert_eq!(r.len(), 64);
    }

    #[test]
    fn unreachable_source_is_pruned_immediately() {
        let g = CsrGraph::from_edges(4, &[(1, 2), (2, 3)]);
        let mut searcher = BcDfs::new(&g, VertexId(3), 5);
        assert!(searcher.enumerate(&g, VertexId(0), VertexId(3), 5).is_empty());
        assert_eq!(searcher.expanded, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds the preprocessed k")]
    fn larger_query_than_preprocessing_panics() {
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        BcDfs::new(&g, VertexId(1), 2).enumerate(&g, VertexId(0), VertexId(1), 3);
    }

    #[test]
    fn streaming_matches_collected_enumeration() {
        let g = chung_lu(90, 4.0, 2.2, 7).to_csr();
        for &(s, t, k) in &[(0u32, 7u32, 4u32), (1, 50, 5), (5, 6, 6)] {
            let (s, t) = (VertexId(s), VertexId(t));
            let mut sink = CollectSink::new();
            let flow = BcDfs::new(&g, t, k).enumerate_into(&g, s, t, k, &mut sink);
            assert_eq!(flow, ControlFlow::Continue(()));
            let expected = canonicalize(bc_dfs_enumerate(&g, s, t, k));
            assert_eq!(canonicalize(sink.into_paths()), expected);
        }
    }

    #[test]
    fn early_stop_does_not_poison_barriers() {
        use pefp_graph::sink::FirstN;
        // Diamond: two paths 0->1->3 and 0->2->3. Stop after the first one,
        // then re-run the same searcher to completion: the aborted subtree
        // must not have raised any barrier that hides the second path.
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let mut searcher = BcDfs::new(&g, VertexId(3), 3);
        let mut sink = FirstN::new(1, CollectSink::new());
        let flow = searcher.enumerate_into(&g, VertexId(0), VertexId(3), 3, &mut sink);
        assert_eq!(flow, ControlFlow::Break(()));
        assert_eq!(sink.emitted(), 1);
        let full = searcher.enumerate(&g, VertexId(0), VertexId(3), 3);
        assert_eq!(full.len(), 2);
    }

    #[test]
    fn smaller_max_hops_than_k_is_respected() {
        let g = CsrGraph::from_edges(4, &[(0, 3), (0, 1), (1, 2), (2, 3)]);
        let mut searcher = BcDfs::new(&g, VertexId(3), 5);
        assert_eq!(searcher.enumerate(&g, VertexId(0), VertexId(3), 1).len(), 1);
        assert_eq!(searcher.enumerate(&g, VertexId(0), VertexId(3), 5).len(), 2);
    }
}
