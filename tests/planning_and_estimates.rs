//! Integration tests for the host-side planner, the result-size estimators
//! and the resource model: sizing decisions must never change query answers,
//! estimates must bound reality, and the default configuration must fit the
//! card the paper uses.

use pefp::core::{
    count_simple_paths, count_st_walks, plan_query, prepare_snapshot_with, run_prepared_on_device,
    CountingSink, EngineOptions, PefpRunResult, PefpVariant, PrepareContext, PreparedQuery,
    QueryEstimate,
};
use pefp::fpga::{Device, DeviceConfig, ModuleCosts, ResourceBudget, ResourceEstimate};
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
fn planner_never_changes_the_answer_across_datasets() {
    let device = DeviceConfig::alveo_u200();
    for dataset in [Dataset::Reactome, Dataset::WikiTalk, Dataset::BerkStan, Dataset::Amazon] {
        let g = tiny(dataset);
        let k = 4;
        for (s, t) in sample_reachable_pairs(g.base(), k, 3, 0xD1CE) {
            let prepared = prepare_full(&g, s, t, k);
            let plan = plan_query(&prepared, &device);
            assert!(plan.options.validate().is_empty(), "{}", dataset.code());
            let planned = run(&prepared, plan.options.clone(), &device);
            let default = run(&prepared, PefpVariant::Full.engine_options(), &device);
            assert_eq!(planned.num_paths, default.num_paths, "{} {s}->{t}", dataset.code());
        }
    }
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

#[test]
fn planned_configurations_fit_the_alveo_u200_budget() {
    let device = DeviceConfig::alveo_u200();
    for dataset in Dataset::all() {
        let g = tiny(dataset);
        let Some(&(s, t)) = sample_reachable_pairs(g.base(), 5, 1, 23).first() else { continue };
        let prepared = prepare_full(&g, s, t, 5);
        let plan = plan_query(&prepared, &device);
        assert!(plan.fits_device(), "{}: {:?}", dataset.code(), plan.resources.violations());
    }
}

#[test]
fn default_engine_configuration_fits_with_headroom_but_an_absurd_one_does_not() {
    let device = DeviceConfig::alveo_u200();
    let areas = pefp::fpga::OnChipAreas {
        buffer_bytes: 8_192 * 136,
        processing_bytes: 1_024 * 136,
        graph_cache_bytes: 2 << 20,
        barrier_cache_bytes: 256 << 10,
        fifo_bytes: device.verification_lanes * 2 * 136,
    };
    let default_estimate = ResourceEstimate::estimate(
        device.verification_lanes,
        &areas,
        &ModuleCosts::default(),
        ResourceBudget::alveo_u200(),
    );
    assert!(default_estimate.fits());
    assert!(default_estimate.lut_utilisation() < 0.5);

    let monster = ResourceEstimate::estimate(
        4_000,
        &areas,
        &ModuleCosts::default(),
        ResourceBudget::alveo_u200(),
    );
    assert!(!monster.fits());
}
