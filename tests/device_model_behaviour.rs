//! Integration tests of the *performance model*: the paper's qualitative
//! claims about each optimisation must be visible in the simulated device
//! metrics, independently of absolute numbers.

use pefp::core::{EngineOptions, PefpVariant};
use pefp::fpga::DeviceConfig;
use pefp::graph::{generators, Dataset, GraphSnapshot, ScaleProfile, VertexId};
use pefp::workload::generate_queries;

#[path = "support/pefp_run.rs"]
mod pefp_run;
use pefp_run::{prepare_fresh, run_collect, run_variant};

fn dense_graph() -> GraphSnapshot {
    GraphSnapshot::from_csr(generators::chung_lu(400, 8.0, 2.1, 77).to_csr())
}

fn tiny(dataset: Dataset) -> GraphSnapshot {
    GraphSnapshot::from_csr(dataset.generate(ScaleProfile::Tiny).to_csr())
}

#[test]
fn caching_reduces_dram_traffic_and_cycles() {
    let g = dense_graph();
    let (s, t, k) = (VertexId(0), VertexId(200), 5);
    let device = DeviceConfig::alveo_u200();
    let (full, _) = run_variant(&g, (s, t, k), PefpVariant::Full, &device);
    let (nocache, _) = run_variant(&g, (s, t, k), PefpVariant::NoCache, &device);
    assert!(
        nocache.device.counters.dram_words_total() > full.device.counters.dram_words_total(),
        "disabling the cache must increase DRAM traffic ({} vs {})",
        nocache.device.counters.dram_words_total(),
        full.device.counters.dram_words_total()
    );
    assert!(nocache.device.cycles > full.device.cycles);
    // The paper reports >= 2x average speedup from caching (Fig. 14).
    let speedup = nocache.device.cycles as f64 / full.device.cycles as f64;
    assert!(speedup > 1.5, "caching speedup only {speedup:.2}x");
}

#[test]
fn data_separation_speeds_up_verification_bound_workloads() {
    let g = dense_graph();
    let (s, t, k) = (VertexId(1), VertexId(111), 5);
    let device = DeviceConfig::alveo_u200();
    let (full, _) = run_variant(&g, (s, t, k), PefpVariant::Full, &device);
    let (basic, _) = run_variant(&g, (s, t, k), PefpVariant::NoDataSep, &device);
    let speedup = basic.device.cycles as f64 / full.device.cycles as f64;
    assert!(speedup >= 1.0, "dataflow verification should never be slower");
    assert!(speedup < 4.0, "speedup {speedup:.2}x exceeds what a 3-stage module can deliver");
}

#[test]
fn prebfs_shrinks_the_transferred_subgraph() {
    // On a graph with many vertices irrelevant to the query, Pre-BFS must cut
    // the PCIe payload and the preprocessing-induced search space.
    let g = tiny(Dataset::Amazon);
    let queries = generate_queries(g.base(), 6, 3, 7);
    for q in queries {
        let with = prepare_fresh(&g, q.s, q.t, 6, PefpVariant::Full);
        let without = prepare_fresh(&g, q.s, q.t, 6, PefpVariant::NoPreBfs);
        assert!(with.graph.num_vertices() < without.graph.num_vertices());
        assert!(with.transfer_bytes() < without.transfer_bytes());
    }
}

#[test]
fn batch_dfs_never_spills_more_than_fifo() {
    let g = dense_graph();
    let device = DeviceConfig::alveo_u200();
    let queries = generate_queries(g.base(), 5, 3, 99);
    // Small buffer so the batching order actually matters.
    let mut base = PefpVariant::Full.engine_options();
    base.buffer_capacity = 64;
    base.dram_fetch_batch = 32;
    base.processing_capacity = 32;
    let mut fifo = PefpVariant::NoBatchDfs.engine_options();
    fifo.buffer_capacity = 64;
    fifo.dram_fetch_batch = 32;
    fifo.processing_capacity = 32;

    let mut dfs_flushes = 0u64;
    let mut fifo_flushes = 0u64;
    for q in &queries {
        let prep = prepare_fresh(&g, q.s, q.t, 5, PefpVariant::Full);
        let (a, _) = run_collect(&prep, base.clone(), &device);
        let (b, _) = run_collect(&prep, fifo.clone(), &device);
        assert_eq!(a.num_paths, b.num_paths, "batching order must not change the result");
        dfs_flushes += a.device.counters.buffer_flushes;
        fifo_flushes += b.device.counters.buffer_flushes;
    }
    assert!(
        dfs_flushes <= fifo_flushes,
        "Batch-DFS spilled {dfs_flushes} times, FIFO {fifo_flushes} times"
    );
}

#[test]
fn query_time_grows_with_k() {
    let g = tiny(Dataset::WikiTalk);
    let device = DeviceConfig::alveo_u200();
    let queries = generate_queries(g.base(), 3, 2, 5);
    let q = queries[0];
    let mut prev_cycles = 0u64;
    for k in [3u32, 4, 5] {
        let (r, _) = run_variant(&g, (q.s, q.t, k), PefpVariant::Full, &device);
        assert!(
            r.device.cycles >= prev_cycles,
            "simulated work should not shrink when k grows (k={k})"
        );
        prev_cycles = r.device.cycles;
    }
}

#[test]
fn engine_options_overrides_flow_through() {
    let g = dense_graph();
    let prep = prepare_fresh(&g, VertexId(0), VertexId(200), 5, PefpVariant::Full);
    let device = DeviceConfig::alveo_u200();
    let (all, paths) = run_collect(&prep, EngineOptions::pefp_default(), &device);
    assert!(all.paths.is_empty(), "the paths flow through the sink");
    assert_eq!(paths.len() as u64, all.num_paths);
    assert!(all.num_paths >= 2, "the query needs more than one path to cap");
    let cap = all.num_paths - 1;
    let capped = EngineOptions { max_results: Some(cap), ..EngineOptions::pefp_default() };
    let (first, first_paths) = run_collect(&prep, capped, &device);
    assert_eq!((first.num_paths, first_paths.len() as u64), (cap, cap));
    assert_eq!(first_paths[..], paths[..cap as usize]);
    assert!(first.stats.early_terminated);
}
