//! Property-based tests over randomly generated graphs and streams, covering
//! the invariants introduced by the host and streaming layers plus the new
//! baselines and estimators.

use proptest::prelude::*;

use pefp::baselines::{naive_dfs_enumerate, yen_enumerate};
use pefp::core::{
    count_simple_paths, count_st_walks, prepare_snapshot_with, PefpVariant, PrepareContext,
};
use pefp::enumerate_paths;
use pefp::graph::generators::chung_lu;
use pefp::graph::paths::canonicalize;
use pefp::graph::{khop_bfs, CsrGraph, GraphSnapshot, VertexId, UNREACHED};
use pefp::host::binfmt::{decode_payload, encode_payload};
use pefp::streaming::DynamicGraph;

#[path = "support/pefp_run.rs"]
mod pefp_run;
use pefp_run::prepare_fresh;

/// Strategy: a random directed graph with up to `max_n` vertices and a
/// bounded number of random edges (self-loops filtered out).
fn arb_graph(max_n: u32, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..max_m).prop_map(move |mut edges| {
            edges.retain(|(a, b)| a != b);
            edges.sort_unstable();
            edges.dedup();
            CsrGraph::from_edges(n as usize, &edges)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Yen's ranking reduction enumerates exactly the same path set as the
    /// bounded-DFS oracle.
    #[test]
    fn yen_matches_naive_dfs((g, s, t, k) in arb_graph(24, 70).prop_flat_map(|g| {
        let n = g.num_vertices() as u32;
        (Just(g), 0..n, 0..n, 1u32..5)
    })) {
        prop_assume!(s != t);
        let yen = canonicalize(yen_enumerate(&g, VertexId(s), VertexId(t), k));
        let oracle = canonicalize(naive_dfs_enumerate(&g, VertexId(s), VertexId(t), k));
        prop_assert_eq!(yen, oracle);
    }

    /// The walk-count estimator upper-bounds the exact simple-path count, and
    /// the exact count matches the enumeration length.
    #[test]
    fn counting_bounds_hold((g, s, t, k) in arb_graph(20, 60).prop_flat_map(|g| {
        let n = g.num_vertices() as u32;
        (Just(g), 0..n, 0..n, 1u32..5)
    })) {
        prop_assume!(s != t);
        let s = VertexId(s);
        let t = VertexId(t);
        let exact = count_simple_paths(&g, s, t, k);
        let walks = count_st_walks(&g, s, t, k);
        prop_assert!(walks >= exact);
        let enumerated = naive_dfs_enumerate(&g, s, t, k).len() as u64;
        prop_assert_eq!(exact, enumerated);
    }

    /// The full pipeline (facade entry point) agrees with the oracle on
    /// arbitrary graphs.
    #[test]
    fn pefp_pipeline_matches_oracle((g, s, t, k) in arb_graph(22, 66).prop_flat_map(|g| {
        let n = g.num_vertices() as u32;
        (Just(g), 0..n, 0..n, 1u32..5)
    })) {
        prop_assume!(s != t);
        let s = VertexId(s);
        let t = VertexId(t);
        let result = enumerate_paths(&g, s, t, k);
        let oracle = naive_dfs_enumerate(&g, s, t, k);
        prop_assert_eq!(result.num_paths, oracle.len() as u64);
        prop_assert_eq!(canonicalize(result.paths), canonicalize(oracle));
    }

    /// The device payload format round-trips every prepared query.
    #[test]
    fn payload_round_trip((g, s, t, k) in arb_graph(30, 90).prop_flat_map(|g| {
        let n = g.num_vertices() as u32;
        (Just(g), 0..n, 0..n, 1u32..6)
    })) {
        prop_assume!(s != t);
        let g = GraphSnapshot::from_csr(g);
        let prepared = prepare_fresh(&g, VertexId(s), VertexId(t), k, PefpVariant::Full);
        let bytes = encode_payload(&prepared);
        let decoded = decode_payload(&bytes).unwrap();
        prop_assert_eq!(&decoded.graph, &*prepared.graph);
        prop_assert_eq!(decoded.barrier, prepared.barrier);
        prop_assert_eq!(decoded.header.k, prepared.k);
    }

    /// Building a graph through dynamic insertions (in any order, with
    /// duplicate inserts) snapshots to exactly the statically built CSR.
    #[test]
    fn dynamic_graph_snapshot_equals_static_build(
        edges in proptest::collection::vec((0u32..40, 0u32..40), 0..160),
    ) {
        let clean: Vec<(u32, u32)> = {
            let mut e: Vec<(u32, u32)> = edges.iter().copied().filter(|(a, b)| a != b).collect();
            e.sort_unstable();
            e.dedup();
            e
        };
        let n = 40usize;
        let static_graph = CsrGraph::from_edges(n, &clean);
        let mut dynamic = DynamicGraph::with_vertices(n);
        for (i, &(a, b)) in edges.iter().enumerate() {
            if a != b {
                dynamic.insert_edge(VertexId(a), VertexId(b), i as u64);
            }
        }
        prop_assert_eq!(dynamic.snapshot_csr(), static_graph);
        prop_assert_eq!(dynamic.num_edges(), clean.len());
    }

    /// Pre-BFS never drops a result: enumeration on the pruned graph
    /// (translated back) equals enumeration on the original graph.
    #[test]
    fn pre_bfs_preserves_all_results((g, s, t, k) in arb_graph(26, 80).prop_flat_map(|g| {
        let n = g.num_vertices() as u32;
        (Just(g), 0..n, 0..n, 1u32..5)
    })) {
        prop_assume!(s != t);
        let s = VertexId(s);
        let t = VertexId(t);
        let prepared = prepare_fresh(&GraphSnapshot::from_csr(g.clone()), s, t, k, PefpVariant::Full);
        let original = canonicalize(naive_dfs_enumerate(&g, s, t, k));
        let pruned = if prepared.feasible {
            let on_sub = naive_dfs_enumerate(&prepared.graph, prepared.s, prepared.t, prepared.k);
            canonicalize(on_sub.iter().map(|p| prepared.translate_path(p)).collect())
        } else {
            Vec::new()
        };
        prop_assert_eq!(pruned, original);
    }

    /// A dirty, reused `PrepareContext` produces byte-identical prepared
    /// queries (graph, barrier, mapping, feasibility) to a fresh context
    /// across random Chung-Lu graphs and query triples: epoch
    /// stamping must never leak state from one query into the next. Both are
    /// also held to the definition: the kept set is Theorem 1's cut and the
    /// barrier is `sd(·, t)`, computed here from two dense `(k-1)`-hop BFS
    /// arrays that share no code with the pruned search.
    #[test]
    fn dirty_prepare_context_matches_one_shot(
        (n, degree, seed, queries) in (40usize..160, 2u32..8, 0u64..1_000,
            proptest::collection::vec((0u32..1_000_000, 0u32..1_000_000, 0u32..8), 1..8)),
    ) {
        let g = GraphSnapshot::from_csr(chung_lu(n, degree as f64, 2.2, seed).to_csr());
        let mut ctx = PrepareContext::new();
        for (raw_s, raw_t, k) in queries {
            let s = VertexId(raw_s % n as u32);
            let t = VertexId(raw_t % n as u32);
            let with_ctx = prepare_snapshot_with(&mut ctx, &g, s, t, k, PefpVariant::Full);
            let one_shot = prepare_fresh(&g, s, t, k, PefpVariant::Full);
            prop_assert_eq!(&*with_ctx.graph, &*one_shot.graph);
            prop_assert_eq!(&with_ctx.barrier, &one_shot.barrier);
            prop_assert_eq!(with_ctx.feasible, one_shot.feasible);
            prop_assert_eq!((with_ctx.s, with_ctx.t, with_ctx.k),
                            (one_shot.s, one_shot.t, one_shot.k));
            let ctx_map = with_ctx.mapping.as_ref().map(|m| &m.old_of_new);
            let one_map = one_shot.mapping.as_ref().map(|m| &m.old_of_new);
            prop_assert_eq!(ctx_map, one_map);

            let Some(kept) = ctx_map else { continue }; // k == 0 or s == t
            let from_s = khop_bfs(g.base().as_ref(), s, k - 1);
            let to_t = khop_bfs(g.base_reverse().as_ref(), t, k - 1);
            let cut: Vec<VertexId> = (0..n as u32)
                .map(VertexId)
                .filter(|&u| {
                    let (a, b) = (from_s[u.index()], to_t[u.index()]);
                    u == s || u == t || (a != UNREACHED && b != UNREACHED && a + b <= k)
                })
                .collect();
            prop_assert_eq!(kept, &cut);
            let distances: Vec<u32> =
                cut.iter().map(|u| to_t[u.index()].min(k + 1)).collect();
            prop_assert_eq!(&with_ctx.barrier, &distances);
        }
    }
}

/// The proptest shim's shrinker minimises a seeded failure: a predicate
/// failing for every `v >= 17` over `0..100` must shrink any failing start
/// down to exactly `(17,)` — the smallest witness the range admits — via the
/// public greedy loop the `proptest!` macro itself invokes on failure.
#[test]
fn seeded_proptest_failures_shrink_to_the_minimal_witness() {
    use proptest::test_runner::shrink_failure;

    let strategy = (0u32..100,);
    let run = |(v,): (u32,)| {
        if v >= 17 {
            Err(TestCaseError::fail(format!("{v} crossed the threshold")))
        } else {
            Ok(())
        }
    };
    for start in [17u32, 23, 64, 99] {
        let initial = run((start,)).expect_err("seed case must fail");
        let (minimal, err, iters) = shrink_failure(&strategy, (start,), initial, 1024, &run);
        assert_eq!(minimal, (17,), "starting from {start}");
        assert!(err.to_string().contains("17 crossed the threshold"));
        assert!(iters <= 64, "threshold found by binary descent, not scan ({iters} runs)");
    }
}

/// Composite witnesses shrink too: a failing (vector, scalar) pair truncates
/// the vector toward the minimum length and floors the scalar, component by
/// component, through the same tuple strategy the macro builds.
#[test]
fn composite_proptest_failures_shrink_component_wise() {
    use proptest::test_runner::shrink_failure;

    // Fails when the vector has >= 2 elements AND the scalar is >= 10.
    let strategy = (proptest::collection::vec(0u32..50, 0..16), 0u32..40);
    let run = |(v, x): (Vec<u32>, u32)| {
        if v.len() >= 2 && x >= 10 {
            Err(TestCaseError::fail("both components are large"))
        } else {
            Ok(())
        }
    };
    let seed = (vec![7, 3, 9, 12, 30, 44], 33u32);
    let initial = run(seed.clone()).expect_err("seed case must fail");
    let (minimal, _, _) = shrink_failure(&strategy, seed, initial, 2048, &run);
    assert_eq!(minimal, (vec![0, 0], 10));
}
