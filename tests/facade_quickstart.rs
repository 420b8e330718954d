//! Guards the documented quickstart contract: the `prepare_snapshot_with` +
//! `run_prepared_on_device` doc example on `crates/core/src/lib.rs` (and the
//! README) promises exactly 2 paths on the diamond graph. Doctests may be
//! skipped in some CI configurations, so the promise is also pinned here as a
//! plain integration test.

use pefp::core::PefpVariant;
use pefp::fpga::DeviceConfig;
use pefp::graph::{CsrGraph, GraphSnapshot, VertexId};

#[path = "support/pefp_run.rs"]
mod pefp_run;
use pefp_run::run_variant;

/// The diamond from the doc example: 0 → {1, 2} → 3.
fn diamond() -> CsrGraph {
    CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
}

#[test]
fn doc_example_diamond_has_exactly_two_paths() {
    let g = GraphSnapshot::from_csr(diamond());
    let query = (VertexId(0), VertexId(3), 3);
    let (result, mut paths) =
        run_variant(&g, query, PefpVariant::Full, &DeviceConfig::alveo_u200());
    assert_eq!(result.num_paths, 2);
    assert_eq!(paths.len(), 2);

    paths.sort();
    assert_eq!(
        paths,
        vec![
            vec![VertexId(0), VertexId(1), VertexId(3)],
            vec![VertexId(0), VertexId(2), VertexId(3)],
        ]
    );
}

#[test]
fn every_variant_agrees_on_the_diamond() {
    let g = GraphSnapshot::from_csr(diamond());
    let device = DeviceConfig::alveo_u200();
    for variant in PefpVariant::all() {
        let (result, _) = run_variant(&g, (VertexId(0), VertexId(3), 3), variant, &device);
        assert_eq!(result.num_paths, 2, "variant {}", variant.name());
    }
}

#[test]
fn facade_entry_point_matches_the_doc_example() {
    let result = pefp::enumerate_paths(&diamond(), VertexId(0), VertexId(3), 3);
    assert_eq!(result.num_paths, 2);
    assert_eq!(result.paths.len(), 2);
}
