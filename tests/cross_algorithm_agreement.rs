//! Cross-crate integration tests: every enumeration algorithm in the
//! workspace must return exactly the same set of s-t k-hop simple paths.
//!
//! This is the completeness/soundness argument of the reproduction: the naive
//! DFS is obviously correct, and PEFP (in every variant), JOIN, BC-DFS,
//! T-DFS, T-DFS2 and HP-Index are all compared against it on a spread of
//! topologies, hop constraints and endpoints.

use pefp::baselines::{
    bc_dfs_enumerate, naive_bfs_enumerate, naive_dfs_enumerate, tdfs2_enumerate, tdfs_enumerate,
    HpIndex, Join,
};
use pefp::core::PefpVariant;
use pefp::enumerate_paths;
use pefp::fpga::DeviceConfig;
use pefp::graph::paths::{canonicalize, validate_result, Path};
use pefp::graph::{generators, CsrGraph, Dataset, GraphSnapshot, ScaleProfile, VertexId};

#[path = "support/pefp_run.rs"]
mod pefp_run;
use pefp_run::run_variant;

/// Runs every algorithm on one query and asserts pairwise equality.
fn assert_all_agree(g: &CsrGraph, s: VertexId, t: VertexId, k: u32) {
    let reference = canonicalize(naive_dfs_enumerate(g, s, t, k));
    assert!(
        validate_result(g, s, t, k as usize, &reference).is_empty(),
        "the reference result itself must be well-formed"
    );

    let candidates: Vec<(&str, Vec<Path>)> = vec![
        ("naive-BFS", naive_bfs_enumerate(g, s, t, k)),
        ("BC-DFS", bc_dfs_enumerate(g, s, t, k)),
        ("T-DFS", tdfs_enumerate(g, s, t, k)),
        ("T-DFS2", tdfs2_enumerate(g, s, t, k)),
        ("JOIN", Join::new().enumerate(g, s, t, k)),
        ("HP-Index", HpIndex::build(g, 8, k).enumerate(g, s, t, k)),
    ];
    for (name, paths) in candidates {
        assert_eq!(
            canonicalize(paths),
            reference,
            "{name} disagrees with naive DFS on ({s},{t},{k})"
        );
    }

    let device = DeviceConfig::alveo_u200();
    let snapshot = GraphSnapshot::from_csr(g.clone());
    for variant in PefpVariant::all() {
        let (_, paths) = run_variant(&snapshot, (s, t, k), variant, &device);
        assert_eq!(
            canonicalize(paths),
            reference,
            "{} disagrees with naive DFS on ({s},{t},{k})",
            variant.name()
        );
    }
}

#[test]
fn agreement_on_handcrafted_graphs() {
    // Diamond with a shortcut and a cycle.
    let g = CsrGraph::from_edges(
        6,
        &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 5), (0, 5), (5, 0), (3, 4), (4, 5)],
    );
    for k in 1..=5 {
        assert_all_agree(&g, VertexId(0), VertexId(5), k);
    }
}

#[test]
fn agreement_on_power_law_graphs() {
    for seed in 0..2u64 {
        let g = generators::chung_lu(120, 5.0, 2.2, seed).to_csr();
        assert_all_agree(&g, VertexId(0), VertexId(60), 4);
        assert_all_agree(&g, VertexId(3), VertexId(4), 5);
    }
}

#[test]
fn agreement_on_web_and_small_world_graphs() {
    let g = generators::copying_model(150, 4, 0.3, 9).to_csr();
    assert_all_agree(&g, VertexId(1), VertexId(75), 4);
    let g = generators::small_world(150, 2, 0.2, 10).to_csr();
    assert_all_agree(&g, VertexId(0), VertexId(75), 5);
}

#[test]
fn agreement_on_layered_dags_with_known_counts() {
    let g = generators::layered_dag(3, 4, 4, 5).to_csr();
    let s = generators::layered_source();
    let t = generators::layered_sink(3, 4);
    let expected = generators::layered_full_path_count(3, 4);
    let result = enumerate_paths(&g, s, t, 4);
    assert_eq!(result.num_paths, expected);
    assert_all_agree(&g, s, t, 4);
}

#[test]
fn agreement_on_grid_graphs_with_binomial_counts() {
    let g = generators::grid_graph(4, 4).to_csr();
    let s = VertexId(0);
    let t = VertexId(15);
    let k = 6; // exactly the Manhattan distance
    let expected = generators::grid_corner_path_count(4, 4);
    let result = enumerate_paths(&g, s, t, k);
    assert_eq!(result.num_paths, expected);
    assert_all_agree(&g, s, t, k);
}

#[test]
fn agreement_on_dataset_standins() {
    // One query on a handful of Table II stand-ins at tiny scale.
    for dataset in [Dataset::WikiTalk, Dataset::TwitterSocial, Dataset::Amazon] {
        let g = dataset.generate(ScaleProfile::Tiny).to_csr();
        let queries = pefp::workload::generate_queries(&g, 4, 2, 0xBEEF);
        for q in queries {
            assert_all_agree(&g, q.s, q.t, 4);
        }
    }
}

#[test]
fn agreement_on_edge_cases() {
    let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
    // Source equals target.
    assert_all_agree(&g, VertexId(2), VertexId(2), 3);
    // Unreachable within the budget.
    assert_all_agree(&g, VertexId(0), VertexId(3), 2);
    // k = 1 (direct edges only).
    assert_all_agree(&g, VertexId(0), VertexId(1), 1);
}
