//! Integration tests for the O(touched) preprocessing contract: a reused
//! [`PrepareContext`] must make per-query Pre-BFS cost proportional to the
//! query-relevant subgraph, never to the data graph, and the restructured
//! `PreparedQuery` must not clone the data graph on any variant path.

use pefp::core::{
    no_prebfs_with, pre_bfs, pre_bfs_with, prepare_with, run_prepared, PefpVariant, PrepareContext,
};
use pefp::graph::generators::chung_lu;
use pefp::graph::{BfsScratch, CsrBuilder, CsrGraph, VertexId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// A large graph whose k-hop neighbourhood around the query endpoints is
/// tiny: a 12-vertex corridor `0 -> 1 -> ... -> 11` embedded in a graph of
/// `n` vertices whose bulk is a long disconnected chain.
fn corridor_in_haystack(n: usize) -> Arc<CsrGraph> {
    assert!(n > 64);
    let mut b = CsrBuilder::with_edge_capacity(n, n);
    for v in 0..11u32 {
        b.add_edge(VertexId(v), VertexId(v + 1));
    }
    // The haystack: a chain over the remaining vertices, unreachable from the
    // corridor in either direction.
    for v in 12..(n as u32 - 1) {
        b.add_edge(VertexId(v), VertexId(v + 1));
    }
    Arc::new(b.build())
}

#[test]
fn prebfs_touches_the_frontier_not_the_graph() {
    let n = 60_000;
    let g = corridor_in_haystack(n);
    let mut ctx = PrepareContext::new();
    for round in 0..8 {
        let prep = pre_bfs_with(&mut ctx, &g, VertexId(0), VertexId(11), 6);
        assert!(prep.feasible || prep.graph.num_vertices() <= 12, "round {round}");
        let stats = ctx.stats();
        // Both (k-1)-hop frontiers live inside the 12-vertex corridor.
        assert!(
            stats.last_touched <= 24,
            "Pre-BFS touched {} vertices on a graph of {n} with a 12-vertex corridor",
            stats.last_touched
        );
    }
    // The reverse CSR is built once for the whole sequence, not per query.
    assert_eq!(ctx.stats().reverse_builds, 1);
    assert_eq!(ctx.stats().queries, 8);
}

/// The work gate for the mutually pruned search, on exact counts: over a
/// fixed query set on the microbench's Pre-BFS graph, the vertices Pre-BFS
/// reaches add up to at most a quarter of what two full `(k-1)`-hop balls —
/// the search the paper specifies — reach for the same queries.
#[test]
fn prebfs_reaches_a_fraction_of_the_two_full_balls() {
    let g = Arc::new(chung_lu(10_000, 8.0, 2.2, 3).to_csr());
    let rev = g.reverse();
    let n = g.num_vertices() as u32;
    let mut ctx = PrepareContext::new();
    let (mut forward, mut backward) = (BfsScratch::new(), BfsScratch::new());
    let mut rng = ChaCha8Rng::seed_from_u64(14);
    let (mut reached, mut balls) = (0usize, 0usize);
    for k in 4..=7u32 {
        for _ in 0..200 {
            let (s, t) = (VertexId(rng.gen_range(0..n)), VertexId(rng.gen_range(0..n)));
            if s == t {
                continue;
            }
            pre_bfs_with(&mut ctx, &g, s, t, k);
            reached += ctx.stats().last_touched;
            forward.run(&*g, s, k - 1);
            backward.run(&rev, t, k - 1);
            balls += forward.touched_len() + backward.touched_len();
        }
    }
    assert!(
        reached * 4 <= balls,
        "Pre-BFS reached {reached} vertices where the two balls reach {balls}"
    );
}

#[test]
fn prepared_query_memory_is_output_sensitive() {
    let n = 60_000;
    let g = corridor_in_haystack(n);
    let mut ctx = PrepareContext::new();
    let prep = pre_bfs_with(&mut ctx, &g, VertexId(0), VertexId(11), 11);
    // The induced subgraph, its barrier and its id mapping are all sized by
    // the corridor, not by |V|.
    assert!(prep.feasible);
    assert_eq!(prep.graph.num_vertices(), 12);
    assert_eq!(prep.barrier.len(), prep.graph.num_vertices());
    assert_eq!(prep.mapping.as_ref().unwrap().num_kept(), prep.graph.num_vertices());
    // G' is stored exactly once: the prepared query and its mapping share it.
    assert!(Arc::ptr_eq(&prep.graph, &prep.mapping.as_ref().unwrap().graph));
}

#[test]
fn no_variant_path_clones_the_data_graph() {
    let g = corridor_in_haystack(4_096);
    let baseline = Arc::strong_count(&g);
    let mut ctx = PrepareContext::new();

    // Full variant: the prepared graph is the induced subgraph, which is a
    // fresh small allocation, never a clone of G.
    let full = prepare_with(&mut ctx, &g, VertexId(0), VertexId(11), 6, PefpVariant::Full);
    assert!(full.graph.num_vertices() < 100);

    // No-Pre-BFS ships the full graph: same allocation, reference-counted.
    let ablation = no_prebfs_with(&mut ctx, &g, VertexId(0), VertexId(11), 6);
    assert!(Arc::ptr_eq(&ablation.graph, &g));

    // Trivial paths (s == t, k == 0) also share the data graph.
    let same = pre_bfs_with(&mut ctx, &g, VertexId(5), VertexId(5), 6);
    assert!(Arc::ptr_eq(&same.graph, &g));
    let zero = prepare_with(&mut ctx, &g, VertexId(0), VertexId(11), 0, PefpVariant::NoPreBfs);
    assert!(Arc::ptr_eq(&zero.graph, &g));

    // Each shared holder bumped the refcount instead of deep-copying; the
    // context itself holds one reference (the reverse-cache key).
    assert_eq!(Arc::strong_count(&g), baseline + 4);
}

#[test]
fn context_prepared_queries_run_to_the_same_results() {
    let g = corridor_in_haystack(1_000);
    let device = pefp::fpga::DeviceConfig::alveo_u200();
    let mut ctx = PrepareContext::new();
    for variant in PefpVariant::all() {
        let prep = prepare_with(&mut ctx, &g, VertexId(0), VertexId(11), 11, variant);
        let result = run_prepared(&prep, variant.engine_options(), &device);
        assert_eq!(result.num_paths, 1, "variant {}", variant.name());
        assert_eq!(
            result.paths[0],
            (0..=11).map(VertexId).collect::<Vec<_>>(),
            "variant {}",
            variant.name()
        );
    }
}

#[test]
fn dirty_context_output_is_byte_identical_to_one_shot() {
    // Deterministic cross-check on a structured graph (the proptest shim
    // covers random Chung-Lu graphs; this pins an exact-equality case).
    let g = Arc::new(pefp::graph::generators::chung_lu(600, 6.0, 2.2, 99).to_csr());
    let mut ctx = PrepareContext::new();
    for &(s, t, k) in &[(0u32, 300u32, 5u32), (17, 4, 3), (0, 300, 5), (550, 1, 4)] {
        let a = pre_bfs_with(&mut ctx, &g, VertexId(s), VertexId(t), k);
        let b = pre_bfs(&g, VertexId(s), VertexId(t), k);
        assert_eq!(*a.graph, *b.graph);
        assert_eq!(a.barrier, b.barrier);
        assert_eq!(a.feasible, b.feasible);
        assert_eq!(
            a.mapping.as_ref().map(|m| m.old_of_new.clone()),
            b.mapping.as_ref().map(|m| m.old_of_new.clone())
        );
    }
}
