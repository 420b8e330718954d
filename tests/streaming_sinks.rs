//! System-level contracts of the streaming `PathSink` result pipeline.
//!
//! * For random graphs and queries, `run_prepared_on_device` into a
//!   `CollectSink` is byte-identical to the legacy collect-everything run:
//!   the engine's own collect mode, translated to original ids afterwards.
//! * `FirstN(n)` receives exactly the first `n` paths of the legacy
//!   enumeration order, and the engine genuinely stops early.
//! * On a query with >= 10^5 results, `FirstN(1)` does asymptotically less
//!   work than the full enumeration (measured in engine batches/expansions).

use pefp::core::{
    run_prepared_on_device, CollectSink, CountingSink, EngineOptions, EngineStats, FirstN,
    PefpEngine, PefpVariant, PreparedQuery,
};
use pefp::fpga::{Device, DeviceConfig};
use pefp::graph::generators::{layered_dag, layered_full_path_count, layered_sink, layered_source};
use pefp::graph::{CsrGraph, GraphSnapshot, Path, VertexId};
use proptest::prelude::*;

#[path = "support/pefp_run.rs"]
mod pefp_run;
use pefp_run::{prepare_fresh, run_collect};

fn arb_graph(n: u32, m: usize) -> impl Strategy<Value = CsrGraph> {
    prop::collection::vec((0..n, 0..n), 0..m)
        .prop_map(move |edges| CsrGraph::from_edges(n as usize, &edges))
}

/// The legacy collect-everything run: `PefpEngine::run` in collect mode
/// (device ids), translated afterwards — what the sink pipeline replaced.
fn legacy_collect(
    prep: &PreparedQuery,
    opts: EngineOptions,
    device: &DeviceConfig,
) -> (u64, EngineStats, Vec<Path>) {
    if !prep.feasible {
        return (0, EngineStats::default(), Vec::new());
    }
    let opts = EngineOptions { collect_paths: true, ..opts };
    let device = Device::new(device.clone());
    let out =
        PefpEngine::new(&prep.graph, &prep.barrier, prep.s, prep.t, prep.k, opts, device).run();
    (out.num_paths, out.stats, out.paths.iter().map(|p| prep.translate_path(p)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn collect_sink_is_byte_identical_to_legacy_run_query(
        g in arb_graph(24, 90),
        s in 0u32..24,
        t in 0u32..24,
        k in 0u32..6,
    ) {
        let s = VertexId(s);
        let t = VertexId(t);
        let device = DeviceConfig::alveo_u200();
        let g = GraphSnapshot::from_csr(g);
        for variant in [PefpVariant::Full, PefpVariant::NoPreBfs] {
            let prep = prepare_fresh(&g, s, t, k, variant);
            let (num_paths, stats, paths) = legacy_collect(&prep, variant.engine_options(), &device);
            let (streamed, streamed_paths) = run_collect(&prep, variant.engine_options(), &device);
            // Same paths, same order, same ids — not just the same set.
            prop_assert_eq!(streamed_paths, paths, "variant {}", variant.name());
            prop_assert_eq!(streamed.num_paths, num_paths);
            prop_assert_eq!(streamed.stats, stats);
            prop_assert!(streamed.paths.is_empty());
        }
    }

    #[test]
    fn first_n_returns_exactly_the_first_n_paths(
        g in arb_graph(20, 80),
        s in 0u32..20,
        t in 0u32..20,
        k in 1u32..6,
        n in 1u64..8,
    ) {
        let s = VertexId(s);
        let t = VertexId(t);
        let device = DeviceConfig::alveo_u200();
        let prep = prepare_fresh(&GraphSnapshot::from_csr(g), s, t, k, PefpVariant::Full);
        let opts = PefpVariant::Full.engine_options();
        let (legacy_paths, legacy_stats, legacy) = legacy_collect(&prep, opts.clone(), &device);

        let mut sink = FirstN::new(n, CollectSink::new());
        let streamed = run_prepared_on_device(&prep, opts, Device::new(device), &mut sink);
        let expect = (n as usize).min(legacy.len());
        prop_assert_eq!(streamed.num_paths as usize, expect);
        prop_assert_eq!(sink.emitted() as usize, expect);
        let collected = sink.into_inner().into_paths();
        prop_assert_eq!(&collected[..], &legacy[..expect]);
        // The cap breaks with the n-th path, so any run that reached it is
        // flagged as cut short — even when n happened to be the total count.
        if legacy_paths >= n {
            prop_assert!(streamed.stats.early_terminated);
        } else {
            prop_assert!(!streamed.stats.early_terminated);
            prop_assert_eq!(streamed.stats, legacy_stats);
        }
    }
}

/// Acceptance: `FirstN(1)` on a query with >= 10^5 results must do
/// asymptotically less work than the full enumeration. The fully connected
/// layered DAG gives a closed-form result count of width^layers = 7^6 =
/// 117,649 paths.
#[test]
fn first_one_on_a_hundred_thousand_result_query_is_asymptotically_cheaper() {
    let (layers, width) = (6usize, 7usize);
    let g = GraphSnapshot::from_csr(layered_dag(layers, width, width, 1).to_csr());
    let s = layered_source();
    let t = layered_sink(layers, width);
    let k = (layers + 1) as u32;
    let device = DeviceConfig::alveo_u200();
    let total = layered_full_path_count(layers, width);
    assert!(total >= 100_000, "the workload must exceed 10^5 paths, got {total}");

    let prep = prepare_fresh(&g, s, t, k, PefpVariant::Full);
    let opts = PefpVariant::Full.engine_options();

    let mut counting = CountingSink::new();
    let full =
        run_prepared_on_device(&prep, opts.clone(), Device::new(device.clone()), &mut counting);
    assert_eq!(full.num_paths, total);

    let mut first = FirstN::new(1, CollectSink::new());
    let capped = run_prepared_on_device(&prep, opts, Device::new(device), &mut first);
    assert_eq!(capped.num_paths, 1);
    assert!(capped.stats.early_terminated);
    assert_eq!(first.into_inner().len(), 1);

    // Asymptotically less work. Batch-DFS drives one path to the target in
    // O(depth) batches while the full run is bounded below by
    // #expansions / Θ2; expansions shrink by orders of magnitude.
    assert!(
        capped.stats.batches * 10 <= full.stats.batches,
        "FirstN(1) used {} batches vs {} for the full run",
        capped.stats.batches,
        full.stats.batches
    );
    assert!(
        capped.stats.expansions * 50 <= full.stats.expansions,
        "FirstN(1) used {} expansions vs {} for the full run",
        capped.stats.expansions,
        full.stats.expansions
    );
}

/// The legacy collect pipeline and the streaming pipeline agree on a
/// high-volume query too (the layered DAG from the acceptance test, one size
/// down so the collect side stays cheap).
#[test]
fn high_volume_collect_and_stream_agree() {
    let g = GraphSnapshot::from_csr(layered_dag(4, 6, 6, 3).to_csr());
    let (s, t, k) = (layered_source(), layered_sink(4, 6), 5);
    let device = DeviceConfig::alveo_u200();
    let prep = prepare_fresh(&g, s, t, k, PefpVariant::Full);
    let opts = PefpVariant::Full.engine_options();
    let (num_paths, _, legacy) = legacy_collect(&prep, opts.clone(), &device);
    assert_eq!(num_paths, layered_full_path_count(4, 6));

    let mut sink = CollectSink::with_capacity(legacy.len());
    let streamed = run_prepared_on_device(&prep, opts, Device::new(device), &mut sink);
    assert_eq!(streamed.num_paths, num_paths);
    assert_eq!(sink.into_paths(), legacy);
}
