//! Property-based tests over random graphs and queries.
//!
//! Strategy: generate arbitrary small directed graphs (edge lists over a
//! bounded vertex set), arbitrary endpoints and hop budgets, and check the
//! system-level invariants that must hold for *every* input:
//!
//! * PEFP (all variants) returns exactly the naive DFS result set;
//! * every returned path is a valid simple s-t path within the budget;
//! * Pre-BFS never removes a vertex that lies on any valid path;
//! * the result count is monotone in `k`;
//! * BC-DFS/JOIN agree with the oracle too (their pruning is the subtle part).

use pefp::baselines::{naive_dfs_enumerate, Join};
use pefp::core::PefpVariant;
use pefp::enumerate_paths;
use pefp::fpga::DeviceConfig;
use pefp::graph::paths::{canonicalize, validate_result};
use pefp::graph::{CsrGraph, GraphSnapshot, VertexId};
use proptest::prelude::*;

#[path = "support/pefp_run.rs"]
mod pefp_run;
use pefp_run::{prepare_fresh, run_variant};

/// Strategy: a directed graph with up to `n` vertices and `m` edges.
fn arb_graph(n: u32, m: usize) -> impl Strategy<Value = CsrGraph> {
    prop::collection::vec((0..n, 0..n), 0..m)
        .prop_map(move |edges| CsrGraph::from_edges(n as usize, &edges))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn pefp_matches_naive_dfs(
        g in arb_graph(24, 90),
        s in 0u32..24,
        t in 0u32..24,
        k in 0u32..6,
    ) {
        let s = VertexId(s);
        let t = VertexId(t);
        let expected = canonicalize(naive_dfs_enumerate(&g, s, t, k));
        prop_assert_eq!(canonicalize(enumerate_paths(&g, s, t, k).paths), expected);
    }

    #[test]
    fn every_variant_is_valid_and_complete(
        g in arb_graph(18, 60),
        s in 0u32..18,
        t in 0u32..18,
        k in 1u32..5,
    ) {
        let s = VertexId(s);
        let t = VertexId(t);
        let expected = canonicalize(naive_dfs_enumerate(&g, s, t, k));
        let device = DeviceConfig::alveo_u200();
        let snapshot = GraphSnapshot::from_csr(g.clone());
        for variant in PefpVariant::all() {
            let got = canonicalize(run_variant(&snapshot, (s, t, k), variant, &device).1);
            prop_assert!(validate_result(&g, s, t, k as usize, &got).is_empty());
            prop_assert_eq!(&got, &expected, "variant {}", variant.name());
        }
    }

    #[test]
    fn join_and_bcdfs_match_the_oracle(
        g in arb_graph(20, 70),
        s in 0u32..20,
        t in 0u32..20,
        k in 1u32..6,
    ) {
        let s = VertexId(s);
        let t = VertexId(t);
        let expected = canonicalize(naive_dfs_enumerate(&g, s, t, k));
        let join = canonicalize(Join::new().enumerate(&g, s, t, k));
        prop_assert_eq!(join, expected.clone());
        let bc = canonicalize(pefp::baselines::bc_dfs_enumerate(&g, s, t, k));
        prop_assert_eq!(bc, expected);
    }

    #[test]
    fn prebfs_preserves_every_valid_path(
        g in arb_graph(20, 70),
        s in 0u32..20,
        t in 0u32..20,
        k in 1u32..6,
    ) {
        let s = VertexId(s);
        let t = VertexId(t);
        let paths = naive_dfs_enumerate(&g, s, t, k);
        let prep = prepare_fresh(&GraphSnapshot::from_csr(g.clone()), s, t, k, PefpVariant::Full);
        if !paths.is_empty() {
            prop_assert!(prep.feasible, "Pre-BFS declared a satisfiable query infeasible");
        }
        if let Some(mapping) = &prep.mapping {
            for path in &paths {
                for v in path {
                    prop_assert!(
                        mapping.to_new(*v).is_some(),
                        "Pre-BFS removed vertex {v} which lies on a valid path"
                    );
                }
            }
        }
    }

    #[test]
    fn result_count_is_monotone_in_k(
        g in arb_graph(16, 50),
        s in 0u32..16,
        t in 0u32..16,
    ) {
        let s = VertexId(s);
        let t = VertexId(t);
        let device = DeviceConfig::alveo_u200();
        let g = GraphSnapshot::from_csr(g);
        let mut previous = 0u64;
        for k in 1..=5u32 {
            let count = run_variant(&g, (s, t, k), PefpVariant::Full, &device).0.num_paths;
            prop_assert!(count >= previous, "k={k}: {count} < {previous}");
            previous = count;
        }
    }

    #[test]
    fn simulated_time_is_positive_and_finite(
        g in arb_graph(16, 60),
        s in 0u32..16,
        t in 0u32..16,
        k in 1u32..5,
    ) {
        let r = enumerate_paths(&g, VertexId(s), VertexId(t), k);
        prop_assert!(r.query_millis.is_finite());
        prop_assert!(r.query_millis >= 0.0);
        prop_assert!(r.total_millis() >= r.query_millis);
    }
}
