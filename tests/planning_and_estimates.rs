//! Integration tests for the result-size estimators the router
//! (`QueryEstimate`) and the cluster dispatch (`count_st_walks`) read: the
//! walk count must bound the exact simple-path count and the engine's output,
//! and Pre-BFS pruning must never raise an estimate.

use pefp::core::{
    count_simple_paths, count_st_walks, prepare_snapshot_with, run_prepared_on_device,
    CountingSink, EngineOptions, PefpRunResult, PefpVariant, PrepareContext, PreparedQuery,
    QueryEstimate,
};
use pefp::fpga::{Device, DeviceConfig};
use pefp::graph::sampling::sample_reachable_pairs;
use pefp::graph::{Dataset, GraphSnapshot, ScaleProfile, VertexId};

/// `dataset`'s tiny stand-in as a snapshot.
fn tiny(dataset: Dataset) -> GraphSnapshot {
    GraphSnapshot::from_csr(dataset.generate(ScaleProfile::Tiny).to_csr())
}

fn prepare_full(g: &GraphSnapshot, s: VertexId, t: VertexId, k: u32) -> PreparedQuery {
    prepare_snapshot_with(&mut PrepareContext::new(), g, s, t, k, PefpVariant::Full)
}

fn run(prepared: &PreparedQuery, opts: EngineOptions, device: &DeviceConfig) -> PefpRunResult {
    let cu = Device::new(device.clone());
    run_prepared_on_device(prepared, opts, cu, &mut CountingSink::new())
}

#[test]
fn walk_count_bounds_the_simple_path_count_and_the_engine_output() {
    let device = DeviceConfig::alveo_u200();
    let g = tiny(Dataset::SocEpinions);
    let k = 4;
    for (s, t) in sample_reachable_pairs(g.base(), k, 5, 3) {
        let walks = count_st_walks(g.base(), s, t, k);
        let exact = count_simple_paths(g.base(), s, t, k);
        assert!(walks >= exact, "walks {walks} < exact {exact}");

        let prepared = prepare_full(&g, s, t, k);
        let result = run(&prepared, PefpVariant::Full.engine_options(), &device);
        assert_eq!(result.num_paths, exact, "engine must be exact");

        let estimate = QueryEstimate::compute(&prepared.graph, prepared.s, prepared.t, prepared.k);
        assert!(estimate.max_results >= result.num_paths);
        assert!(estimate.max_intermediate_paths >= result.stats.intermediate_paths);
    }
}

#[test]
fn pruned_graph_estimates_are_never_larger_than_raw_graph_estimates() {
    let g = tiny(Dataset::Baidu);
    let k = 5;
    for (s, t) in sample_reachable_pairs(g.base(), k, 5, 17) {
        let raw = QueryEstimate::compute(g.base(), s, t, k);
        let prepared = prepare_full(&g, s, t, k);
        let pruned = QueryEstimate::compute(&prepared.graph, prepared.s, prepared.t, prepared.k);
        assert!(pruned.max_results <= raw.max_results);
        assert!(pruned.max_intermediate_paths <= raw.max_intermediate_paths);
    }
}
