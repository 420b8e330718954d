//! High-level query runner and the PEFP variants used by the ablations.
//!
//! The experiments in Section VII compare the full PEFP system against four
//! degraded variants, each disabling exactly one technique:
//!
//! | variant            | disabled technique                | paper figure |
//! |---------------------|-----------------------------------|--------------|
//! | `Full`              | —                                 | Fig. 8–11    |
//! | `NoPreBfs`          | Pre-BFS preprocessing             | Fig. 12      |
//! | `NoBatchDfs`        | Batch-DFS (uses FIFO batching)    | Fig. 13      |
//! | `NoCache`           | BRAM caching (paths/graph/barrier)| Fig. 14      |
//! | `NoDataSep`         | data separation (basic pipeline)  | Fig. 15      |
//!
//! A query is prepared on the host by [`crate::prepare_snapshot_with`] (the
//! variant picks Pre-BFS or the whole-graph ablation) and run by
//! [`run_prepared_on_device`]: PCIe transfer, the device engine run, and
//! result translation back to original vertex ids.

use crate::engine::PefpEngine;
use crate::options::{BatchStrategy, EngineOptions, VerificationPipeline};
use crate::preprocess::PreparedQuery;
use crate::result::PefpRunResult;
use pefp_fpga::Device;
use pefp_graph::sink::{PathSink, TranslateSink};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// The PEFP system configurations evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PefpVariant {
    /// Full PEFP: Pre-BFS + Batch-DFS + caching + data separation.
    Full,
    /// PEFP without the Pre-BFS preprocessing (Fig. 12).
    NoPreBfs,
    /// PEFP with FIFO batching instead of Batch-DFS (Fig. 13).
    NoBatchDfs,
    /// PEFP without BRAM caching (Fig. 14).
    NoCache,
    /// PEFP with the basic (non-dataflow) verification pipeline (Fig. 15).
    NoDataSep,
}

impl PefpVariant {
    /// All variants, full system first.
    pub fn all() -> [PefpVariant; 5] {
        [
            PefpVariant::Full,
            PefpVariant::NoPreBfs,
            PefpVariant::NoBatchDfs,
            PefpVariant::NoCache,
            PefpVariant::NoDataSep,
        ]
    }

    /// The name used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            PefpVariant::Full => "PEFP",
            PefpVariant::NoPreBfs => "PEFP-No-Pre-BFS",
            PefpVariant::NoBatchDfs => "PEFP-No-Batch-DFS",
            PefpVariant::NoCache => "PEFP-No-Cache",
            PefpVariant::NoDataSep => "PEFP-No-DataSep",
        }
    }

    /// Whether this variant runs the Pre-BFS preprocessing.
    pub fn uses_prebfs(self) -> bool {
        !matches!(self, PefpVariant::NoPreBfs)
    }

    /// Engine options implementing this variant.
    pub fn engine_options(self) -> EngineOptions {
        let mut opts = EngineOptions::pefp_default();
        match self {
            PefpVariant::Full | PefpVariant::NoPreBfs => {}
            PefpVariant::NoBatchDfs => opts.batch_strategy = BatchStrategy::Fifo,
            PefpVariant::NoCache => opts.use_cache = false,
            PefpVariant::NoDataSep => opts.verification = VerificationPipeline::Basic,
        }
        opts
    }
}

/// Runs the device phase of an already prepared query on `device`, streaming
/// every result path into `sink` in *original* graph vertex ids.
///
/// The translation from device ids happens inside a [`TranslateSink`] wrapper
/// with a reused scratch buffer, so no intermediate device-id path vector is
/// ever materialised between the engine and the caller. Callers that want the
/// paths pass a [`pefp_graph::CollectSink`]; the returned [`PefpRunResult`]
/// carries timings, the device report and the engine counters, and its
/// `paths` field is always empty. `options.collect_paths` is irrelevant here.
///
/// A single query runs on `Device::new(config)`; multi-CU execution passes
/// one compute unit of a [`pefp_fpga::CuCluster`], which shares the card's
/// DRAM arbiter with its siblings. The device is consumed: it accounts
/// exactly one query and its report is returned inside the result.
pub fn run_prepared_on_device<S: PathSink + ?Sized>(
    prep: &PreparedQuery,
    options: EngineOptions,
    mut device: Device,
    sink: &mut S,
) -> PefpRunResult {
    // Host -> device DMA of the subgraph, barrier and query parameters.
    device.charge_pcie_transfer(prep.transfer_bytes());

    let host_start = Instant::now();
    let (output, report) = if prep.feasible {
        let mut engine =
            PefpEngine::new(&prep.graph, &prep.barrier, prep.s, prep.t, prep.k, options, device);
        let output = match &prep.mapping {
            Some(mapping) => {
                let mut translate = TranslateSink::new(mapping, sink);
                engine.run_with_sink(&mut translate)
            }
            None => engine.run_with_sink(sink),
        };
        let report = engine.device_report();
        (output, report)
    } else {
        (crate::result::EngineOutput::default(), device.report())
    };
    let host_engine_millis = host_start.elapsed().as_secs_f64() * 1e3;

    PefpRunResult {
        num_paths: output.num_paths,
        paths: Vec::new(),
        preprocess_millis: prep.host_millis,
        query_millis: report.total_millis,
        host_engine_millis,
        device: report,
        stats: output.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::{prepare_csr, prepare_snapshot_with, PrepareContext};
    use pefp_baselines::naive_dfs_enumerate;
    use pefp_fpga::DeviceConfig;
    use pefp_graph::generators::chung_lu;
    use pefp_graph::paths::{canonicalize, validate_result, Path};
    use pefp_graph::sink::CollectSink;
    use pefp_graph::{CsrGraph, GraphSnapshot, VertexId};

    /// Prepares and runs `variant` on a fresh U200, collecting the paths.
    fn run(
        g: &GraphSnapshot,
        (s, t, k): (VertexId, VertexId, u32),
        variant: PefpVariant,
    ) -> (PefpRunResult, Vec<Path>) {
        let prep = prepare_snapshot_with(&mut PrepareContext::new(), g, s, t, k, variant);
        let mut sink = CollectSink::new();
        let device = Device::new(DeviceConfig::alveo_u200());
        let result = run_prepared_on_device(&prep, variant.engine_options(), device, &mut sink);
        (result, sink.into_paths())
    }

    #[test]
    fn every_variant_produces_the_same_result_set() {
        let g = GraphSnapshot::from_csr(chung_lu(120, 5.0, 2.2, 31).to_csr());
        let (s, t, k) = (VertexId(0), VertexId(55), 5);
        let expected = canonicalize(naive_dfs_enumerate(g.base(), s, t, k));
        for variant in PefpVariant::all() {
            let (result, paths) = run(&g, (s, t, k), variant);
            assert!(validate_result(g.base(), s, t, k as usize, &paths).is_empty());
            assert_eq!(canonicalize(paths), expected, "variant {} diverged", variant.name());
            assert_eq!(result.num_paths as usize, expected.len());
        }
    }

    #[test]
    fn full_variant_is_fastest_in_simulated_time() {
        let g = GraphSnapshot::from_csr(chung_lu(300, 7.0, 2.1, 8).to_csr());
        let query = (VertexId(0), VertexId(150), 5);
        let (full, _) = run(&g, query, PefpVariant::Full);
        for variant in [PefpVariant::NoCache, PefpVariant::NoDataSep] {
            let (degraded, _) = run(&g, query, variant);
            assert!(
                degraded.device.cycles >= full.device.cycles,
                "{} ({} cycles) should not beat the full system ({} cycles)",
                variant.name(),
                degraded.device.cycles,
                full.device.cycles
            );
        }
    }

    #[test]
    fn prebfs_reduces_preprocess_plus_transfer_work() {
        let g = GraphSnapshot::from_csr(chung_lu(400, 6.0, 2.2, 3).to_csr());
        let (s, t, k) = (VertexId(2), VertexId(200), 4);
        let mut ctx = PrepareContext::new();
        let with = prepare_snapshot_with(&mut ctx, &g, s, t, k, PefpVariant::Full);
        let without = prepare_snapshot_with(&mut ctx, &g, s, t, k, PefpVariant::NoPreBfs);
        assert!(with.transfer_bytes() <= without.transfer_bytes());
        assert!(with.graph.num_vertices() <= without.graph.num_vertices());
    }

    #[test]
    fn infeasible_queries_return_quickly_and_empty() {
        let g = GraphSnapshot::from_csr(CsrGraph::from_edges(6, &[(0, 1), (1, 2), (4, 5)]));
        let (r, paths) = run(&g, (VertexId(0), VertexId(5), 8), PefpVariant::Full);
        assert_eq!(r.num_paths, 0);
        assert!(paths.is_empty());
    }

    #[test]
    fn cluster_device_run_matches_the_standalone_device() {
        use pefp_fpga::{CuCluster, MultiCuConfig};
        let g = chung_lu(150, 5.0, 2.2, 77).to_csr();
        let (s, t, k) = (VertexId(0), VertexId(70), 4);
        let cfg = DeviceConfig::alveo_u200();
        let prep = prepare_csr(&g, s, t, k);
        let opts = PefpVariant::Full.engine_options();

        let mut standalone_sink = CollectSink::new();
        let standalone = run_prepared_on_device(
            &prep,
            opts.clone(),
            Device::new(cfg.clone()),
            &mut standalone_sink,
        );

        // An idle cluster (no other active CU) must be cycle-identical.
        let cluster = CuCluster::new(
            cfg.clone(),
            MultiCuConfig { compute_units: 2, per_cu_bandwidth_share: 0.5, charge_banked: false },
        );
        let mut cu_sink = CollectSink::new();
        let on_cu =
            run_prepared_on_device(&prep, opts.clone(), cluster.device_for_cu(1), &mut cu_sink);
        assert_eq!(cu_sink.into_paths(), standalone_sink.into_paths());
        assert_eq!(on_cu.device.cycles, standalone.device.cycles);
        assert_eq!(on_cu.device.contention_cycles, 0);
        assert_eq!(on_cu.device.dram_cycles, standalone.device.dram_cycles);

        // With the bus saturated by other CUs, the same query takes longer —
        // by exactly the inflated DRAM share — but the results are untouched.
        let _others: Vec<_> = (0..4).map(|_| cluster.arbiter().activate()).collect();
        let mut contended_sink = CollectSink::new();
        let contended =
            run_prepared_on_device(&prep, opts, cluster.device_for_cu(0), &mut contended_sink);
        assert_eq!(contended.num_paths, standalone.num_paths);
        assert!(contended.device.contention_cycles > 0);
        assert_eq!(
            contended.device.cycles,
            standalone.device.cycles + contended.device.contention_cycles
        );
    }

    #[test]
    fn pcie_fault_on_the_transfer_dma_is_reported_on_the_run() {
        use pefp_fpga::{CuCluster, FaultKind, FaultPlan, MultiCuConfig, ScriptedFault};
        let g = chung_lu(120, 5.0, 2.2, 31).to_csr();
        let prep = prepare_csr(&g, VertexId(0), VertexId(55), 5);
        let plan = FaultPlan::scripted(1);
        plan.push_script(0, ScriptedFault { after_ops: 0, kind: FaultKind::PcieError });
        let cluster =
            CuCluster::with_faults(DeviceConfig::alveo_u200(), MultiCuConfig::default(), plan);
        let mut sink = CollectSink::new();
        let result = run_prepared_on_device(
            &prep,
            PefpVariant::Full.engine_options(),
            cluster.device_for_cu(0),
            &mut sink,
        );
        let fault = result.device_fault().expect("the DMA checksum must catch the fault");
        assert_eq!(fault.kind, FaultKind::PcieError);
        assert_eq!(result.num_paths, 0, "the engine aborts before emitting anything");
        assert!(sink.into_paths().is_empty());
    }

    #[test]
    fn variant_metadata_is_consistent() {
        assert_eq!(PefpVariant::all().len(), 5);
        assert_eq!(PefpVariant::Full.name(), "PEFP");
        assert!(PefpVariant::Full.uses_prebfs());
        assert!(!PefpVariant::NoPreBfs.uses_prebfs());
        assert_eq!(PefpVariant::NoBatchDfs.engine_options().batch_strategy, BatchStrategy::Fifo);
        assert!(!PefpVariant::NoCache.engine_options().use_cache);
        assert_eq!(
            PefpVariant::NoDataSep.engine_options().verification,
            VerificationPipeline::Basic
        );
    }

    #[test]
    fn total_time_combines_both_phases() {
        let g = GraphSnapshot::from_csr(chung_lu(100, 4.0, 2.2, 12).to_csr());
        let (r, _) = run(&g, (VertexId(0), VertexId(50), 4), PefpVariant::Full);
        assert!((r.total_millis() - (r.preprocess_millis + r.query_millis)).abs() < 1e-12);
        assert!(r.query_millis > 0.0);
    }
}
