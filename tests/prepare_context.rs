//! Integration tests for the O(touched) preprocessing contract: a reused
//! [`PrepareContext`] must make per-query Pre-BFS cost proportional to the
//! query-relevant subgraph, never to the data graph, and the restructured
//! `PreparedQuery` must not clone the data graph on any variant path.

use pefp::core::{prepare_snapshot_with, PefpVariant, PrepareContext};
use pefp::fpga::DeviceConfig;
use pefp::graph::generators::chung_lu;
use pefp::graph::{BfsScratch, CsrBuilder, CsrGraph, GraphSnapshot, VertexId};
use pefp::host::GraphHandle;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

#[path = "support/pefp_run.rs"]
mod pefp_run;
use pefp_run::{prepare_fresh, run_collect};

/// A large graph whose k-hop neighbourhood around the query endpoints is
/// tiny: a 12-vertex corridor `0 -> 1 -> ... -> 11` embedded in a graph of
/// `n` vertices whose bulk is a long disconnected chain.
fn corridor_in_haystack(n: usize) -> GraphSnapshot {
    GraphSnapshot::from_csr(corridor_csr(n))
}

fn corridor_csr(n: usize) -> CsrGraph {
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
    b.build()
}

#[test]
fn prebfs_touches_the_frontier_not_the_graph() {
    let n = 60_000;
    let g = corridor_in_haystack(n);
    let mut ctx = PrepareContext::new();
    for round in 0..8 {
        let (s, t) = (VertexId(0), VertexId(11));
        let prep = prepare_snapshot_with(&mut ctx, &g, s, t, 6, PefpVariant::Full);
        assert!(prep.feasible || prep.graph.num_vertices() <= 12, "round {round}");
        let stats = ctx.stats();
        // Both (k-1)-hop frontiers live inside the 12-vertex corridor.
        assert!(
            stats.last_touched <= 24,
            "Pre-BFS touched {} vertices on a graph of {n} with a 12-vertex corridor",
            stats.last_touched
        );
    }
    assert_eq!(ctx.stats().queries, 8);
}

/// The work gate for the mutually pruned search, on exact counts: over a
/// fixed query set on the 10k Chung-Lu gate graph, the vertices Pre-BFS
/// reaches add up to at most a quarter of what two full `(k-1)`-hop balls —
/// the search the paper specifies — reach for the same queries.
#[test]
fn prebfs_reaches_a_fraction_of_the_two_full_balls() {
    let g = GraphSnapshot::from_csr(chung_lu(10_000, 8.0, 2.2, 3).to_csr());
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
            prepare_snapshot_with(&mut ctx, &g, s, t, k, PefpVariant::Full);
            reached += ctx.stats().last_touched;
            forward.run(g.base().as_ref(), s, k - 1);
            backward.run(g.base_reverse().as_ref(), t, k - 1);
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
    let prep = prepare_fresh(&g, VertexId(0), VertexId(11), 11, PefpVariant::Full);
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
    // The snapshot the runtime serves from: the handle's CSR pair, shared.
    let handle = GraphHandle::from_csr("corridor", corridor_csr(4_096));
    let g = handle.snapshot();
    let baseline = Arc::strong_count(&handle.csr);
    let mut ctx = PrepareContext::new();
    let (s, t) = (VertexId(0), VertexId(11));

    // Full variant: the prepared graph is the induced subgraph, which is a
    // fresh small allocation, never a clone of G.
    let full = prepare_snapshot_with(&mut ctx, &g, s, t, 6, PefpVariant::Full);
    assert!(full.graph.num_vertices() < 100);

    // No-Pre-BFS ships the full graph: same allocation, reference-counted.
    let ablation = prepare_snapshot_with(&mut ctx, &g, s, t, 6, PefpVariant::NoPreBfs);
    assert!(Arc::ptr_eq(&ablation.graph, &handle.csr));

    // Trivial paths (s == t, k == 0) also share the data graph.
    let same = prepare_snapshot_with(&mut ctx, &g, VertexId(5), VertexId(5), 6, PefpVariant::Full);
    assert!(Arc::ptr_eq(&same.graph, &handle.csr));
    let zero = prepare_snapshot_with(&mut ctx, &g, s, t, 0, PefpVariant::NoPreBfs);
    assert!(Arc::ptr_eq(&zero.graph, &handle.csr));

    // Each shared holder bumped the refcount instead of deep-copying, and the
    // context holds no reference to any graph.
    assert_eq!(Arc::strong_count(&handle.csr), baseline + 3);
}

#[test]
fn context_prepared_queries_run_to_the_same_results() {
    let g = corridor_in_haystack(1_000);
    let device = DeviceConfig::alveo_u200();
    let mut ctx = PrepareContext::new();
    for variant in PefpVariant::all() {
        let (s, t) = (VertexId(0), VertexId(11));
        let prep = prepare_snapshot_with(&mut ctx, &g, s, t, 11, variant);
        let (result, paths) = run_collect(&prep, variant.engine_options(), &device);
        assert_eq!(result.num_paths, 1, "variant {}", variant.name());
        assert_eq!(
            paths[0],
            (0..=11).map(VertexId).collect::<Vec<_>>(),
            "variant {}",
            variant.name()
        );
    }
}

#[test]
fn dirty_context_output_is_byte_identical_to_one_shot() {
    // Deterministic cross-check on a structured graph (`property_extended`
    // covers random Chung-Lu graphs; this pins an exact-equality case): a
    // reused context against a fresh one per query, on the same snapshot.
    let g = GraphSnapshot::from_csr(chung_lu(600, 6.0, 2.2, 99).to_csr());
    let mut ctx = PrepareContext::new();
    for &(s, t, k) in &[(0u32, 300u32, 5u32), (17, 4, 3), (0, 300, 5), (550, 1, 4)] {
        let (s, t) = (VertexId(s), VertexId(t));
        let a = prepare_snapshot_with(&mut ctx, &g, s, t, k, PefpVariant::Full);
        let b = prepare_snapshot_with(&mut PrepareContext::new(), &g, s, t, k, PefpVariant::Full);
        assert_eq!(*a.graph, *b.graph);
        assert_eq!(a.barrier, b.barrier);
        assert_eq!(a.feasible, b.feasible);
        assert_eq!(
            a.mapping.as_ref().map(|m| m.old_of_new.clone()),
            b.mapping.as_ref().map(|m| m.old_of_new.clone())
        );
    }
}
