//! Deterministic sampling utilities used to build query workloads.
//!
//! The paper's evaluation (Section VII-A) generates 1,000 random `(s, t)`
//! query pairs per dataset such that `s` can reach `t` within `k` hops. The
//! workload crate builds on the primitives here: hop-bounded reachable-pair
//! sampling and bounded random walks (used to
//! sample intermediate paths of a prescribed length for Table III).

use crate::csr::CsrGraph;
use crate::ids::VertexId;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Creates the seeded RNG used by every sampler in this module.
pub fn sampler_rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Samples up to `count` pairs `(s, t)` such that `t` is reachable from `s`
/// in at most `k` hops and `s != t`.
///
/// The sampler draws a random source, runs a `k`-hop BFS and picks a random
/// reachable target, retrying up to `max_attempts` times overall; this is the
/// same procedure the paper uses to build its per-dataset query sets.
pub fn sample_reachable_pairs(
    g: &CsrGraph,
    k: u32,
    count: usize,
    seed: u64,
) -> Vec<(VertexId, VertexId)> {
    let n = g.num_vertices();
    if n < 2 {
        return Vec::new();
    }
    let sources: Vec<VertexId> = g.vertices().filter(|&v| g.out_degree(v) > 0).collect();
    if sources.is_empty() {
        return Vec::new();
    }
    let mut rng = sampler_rng(seed);
    let mut pairs = Vec::with_capacity(count);
    let max_attempts = count.saturating_mul(20).max(100);
    let mut dist = vec![u32::MAX; n];
    let mut reached: Vec<VertexId> = Vec::new();
    let mut queue = std::collections::VecDeque::new();

    for _ in 0..max_attempts {
        if pairs.len() >= count {
            break;
        }
        let s = sources[rng.gen_range(0..sources.len())];
        // Bounded BFS from s.
        dist.iter_mut().for_each(|d| *d = u32::MAX);
        reached.clear();
        queue.clear();
        dist[s.index()] = 0;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()];
            if du >= k {
                continue;
            }
            for &v in g.successors(u) {
                if dist[v.index()] == u32::MAX {
                    dist[v.index()] = du + 1;
                    reached.push(v);
                    queue.push_back(v);
                }
            }
        }
        if reached.is_empty() {
            continue;
        }
        let t = reached[rng.gen_range(0..reached.len())];
        if t != s {
            pairs.push((s, t));
        }
    }
    pairs
}

/// Performs one random walk of exactly `steps` edges starting at `start`,
/// restricted to *simple* continuations (no vertex repeated). Returns `None`
/// when the walk gets stuck before reaching the requested length.
pub fn simple_random_walk<R: Rng>(
    g: &CsrGraph,
    start: VertexId,
    steps: usize,
    rng: &mut R,
) -> Option<Vec<VertexId>> {
    let mut walk = vec![start];
    let mut current = start;
    for _ in 0..steps {
        let succ = g.successors(current);
        if succ.is_empty() {
            return None;
        }
        // Collect unvisited successors; a Vec is fine because paths are short
        // (bounded by the hop constraint, MAX 30 in pefp-core).
        let fresh: Vec<VertexId> = succ.iter().copied().filter(|v| !walk.contains(v)).collect();
        if fresh.is_empty() {
            return None;
        }
        current = *fresh.choose(rng).expect("non-empty");
        walk.push(current);
    }
    Some(walk)
}

/// Samples up to `count` simple paths of exactly `length` edges each, using
/// seeded restarts of [`simple_random_walk`]. Used to reproduce Table III
/// (one-hop expansion statistics for 1,000 paths of each length).
pub fn sample_simple_paths(
    g: &CsrGraph,
    length: usize,
    count: usize,
    seed: u64,
) -> Vec<Vec<VertexId>> {
    let sources: Vec<VertexId> = g.vertices().filter(|&v| g.out_degree(v) > 0).collect();
    if sources.is_empty() {
        return Vec::new();
    }
    let mut rng = sampler_rng(seed);
    let mut paths = Vec::with_capacity(count);
    let max_attempts = count.saturating_mul(50).max(200);
    for _ in 0..max_attempts {
        if paths.len() >= count {
            break;
        }
        let start = sources[rng.gen_range(0..sources.len())];
        if let Some(path) = simple_random_walk(g, start, length, &mut rng) {
            paths.push(path);
        }
    }
    paths
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::chung_lu;
    use crate::paths::is_simple;

    fn test_graph() -> CsrGraph {
        chung_lu(300, 6.0, 2.2, 42).to_csr()
    }

    #[test]
    fn reachable_pairs_really_are_reachable_within_k() {
        let g = test_graph();
        let k = 4;
        let pairs = sample_reachable_pairs(&g, k, 30, 11);
        assert!(!pairs.is_empty());
        for (s, t) in &pairs {
            assert_ne!(s, t);
            let dist = crate::bfs::khop_bfs(&g, *s, k);
            assert!(dist[t.index()] <= k, "target {t} not reachable from {s} within {k} hops");
        }
    }

    #[test]
    fn reachable_pairs_are_deterministic_per_seed() {
        let g = test_graph();
        let a = sample_reachable_pairs(&g, 3, 20, 5);
        let b = sample_reachable_pairs(&g, 3, 20, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn reachable_pairs_on_tiny_graphs_do_not_panic() {
        let g = CsrGraph::empty(1);
        assert!(sample_reachable_pairs(&g, 3, 10, 1).is_empty());
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        let pairs = sample_reachable_pairs(&g, 3, 5, 1);
        assert!(pairs.iter().all(|&(s, t)| s == VertexId(0) && t == VertexId(1)));
    }

    #[test]
    fn random_walks_are_simple_and_have_requested_length() {
        let g = test_graph();
        let mut rng = sampler_rng(3);
        let mut found = 0;
        for _ in 0..200 {
            let start = VertexId(rng.gen_range(0..g.num_vertices() as u32));
            if let Some(walk) = simple_random_walk(&g, start, 3, &mut rng) {
                assert_eq!(walk.len(), 4);
                assert!(is_simple(&walk));
                for w in walk.windows(2) {
                    assert!(g.has_edge(w[0], w[1]));
                }
                found += 1;
            }
        }
        assert!(found > 0, "expected at least one successful walk");
    }

    #[test]
    fn walk_fails_gracefully_at_dead_ends() {
        // 0 -> 1, nothing out of 1.
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        let mut rng = sampler_rng(1);
        assert!(simple_random_walk(&g, VertexId(0), 2, &mut rng).is_none());
        assert!(simple_random_walk(&g, VertexId(1), 1, &mut rng).is_none());
        assert_eq!(
            simple_random_walk(&g, VertexId(0), 1, &mut rng),
            Some(vec![VertexId(0), VertexId(1)])
        );
    }

    #[test]
    fn sampled_simple_paths_have_exact_length() {
        let g = test_graph();
        let paths = sample_simple_paths(&g, 3, 25, 17);
        assert!(!paths.is_empty());
        for p in &paths {
            assert_eq!(p.len(), 4, "3 edges = 4 vertices");
            assert!(is_simple(p));
        }
        let again = sample_simple_paths(&g, 3, 25, 17);
        assert_eq!(paths, again);
    }
}
