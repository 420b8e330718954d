//! Seeded random tests over graphs and queries.
//!
//! Each case draws a small directed graph (a random edge list over a bounded
//! vertex set), endpoints and a hop budget, and checks the system-level
//! invariants that must hold for *every* input:
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
use pefp::graph::{GraphSnapshot, VertexId};
use rand::Rng;

#[path = "support/pefp_run.rs"]
mod pefp_run;
use pefp_run::{prepare_fresh, run_variant};

#[path = "support/seeded_cases.rs"]
mod seeded_cases;
use seeded_cases::{for_each_seed, random_graph};

#[test]
fn pefp_matches_naive_dfs() {
    for_each_seed(0x0100_0000, 48, |rng| {
        let g = random_graph(rng, 24, 90);
        let s = VertexId(rng.gen_range(0..24));
        let t = VertexId(rng.gen_range(0..24));
        let k = rng.gen_range(0..6);
        let expected = canonicalize(naive_dfs_enumerate(&g, s, t, k));
        assert_eq!(canonicalize(enumerate_paths(&g, s, t, k).paths), expected);
    });
}

#[test]
fn every_variant_is_valid_and_complete() {
    for_each_seed(0x0200_0000, 48, |rng| {
        let g = random_graph(rng, 18, 60);
        let s = VertexId(rng.gen_range(0..18));
        let t = VertexId(rng.gen_range(0..18));
        let k = rng.gen_range(1..5);
        let expected = canonicalize(naive_dfs_enumerate(&g, s, t, k));
        let device = DeviceConfig::alveo_u200();
        let snapshot = GraphSnapshot::from_csr(g.clone());
        for variant in PefpVariant::all() {
            let got = canonicalize(run_variant(&snapshot, (s, t, k), variant, &device).1);
            assert!(validate_result(&g, s, t, k as usize, &got).is_empty());
            assert_eq!(got, expected, "variant {}", variant.name());
        }
    });
}

#[test]
fn join_and_bcdfs_match_the_oracle() {
    for_each_seed(0x0300_0000, 48, |rng| {
        let g = random_graph(rng, 20, 70);
        let s = VertexId(rng.gen_range(0..20));
        let t = VertexId(rng.gen_range(0..20));
        let k = rng.gen_range(1..6);
        let expected = canonicalize(naive_dfs_enumerate(&g, s, t, k));
        let join = canonicalize(Join::new().enumerate(&g, s, t, k));
        assert_eq!(join, expected);
        let bc = canonicalize(pefp::baselines::bc_dfs_enumerate(&g, s, t, k));
        assert_eq!(bc, expected);
    });
}

#[test]
fn prebfs_preserves_every_valid_path() {
    for_each_seed(0x0400_0000, 48, |rng| {
        let g = random_graph(rng, 20, 70);
        let s = VertexId(rng.gen_range(0..20));
        let t = VertexId(rng.gen_range(0..20));
        let k = rng.gen_range(1..6);
        let paths = naive_dfs_enumerate(&g, s, t, k);
        let prep = prepare_fresh(&GraphSnapshot::from_csr(g.clone()), s, t, k, PefpVariant::Full);
        if !paths.is_empty() {
            assert!(prep.feasible, "Pre-BFS declared a satisfiable query infeasible");
        }
        if let Some(mapping) = &prep.mapping {
            for path in &paths {
                for v in path {
                    assert!(
                        mapping.to_new(*v).is_some(),
                        "Pre-BFS removed vertex {v} which lies on a valid path"
                    );
                }
            }
        }
    });
}

#[test]
fn result_count_is_monotone_in_k() {
    for_each_seed(0x0500_0000, 48, |rng| {
        let g = GraphSnapshot::from_csr(random_graph(rng, 16, 50));
        let s = VertexId(rng.gen_range(0..16));
        let t = VertexId(rng.gen_range(0..16));
        let device = DeviceConfig::alveo_u200();
        let mut previous = 0u64;
        for k in 1..=5u32 {
            let count = run_variant(&g, (s, t, k), PefpVariant::Full, &device).0.num_paths;
            assert!(count >= previous, "k={k}: {count} < {previous}");
            previous = count;
        }
    });
}

#[test]
fn simulated_time_is_positive_and_finite() {
    for_each_seed(0x0600_0000, 48, |rng| {
        let g = random_graph(rng, 16, 60);
        let s = VertexId(rng.gen_range(0..16));
        let t = VertexId(rng.gen_range(0..16));
        let r = enumerate_paths(&g, s, t, rng.gen_range(1..5));
        assert!(r.query_millis.is_finite());
        assert!(r.query_millis >= 0.0);
        assert!(r.total_millis() >= r.query_millis);
    });
}
