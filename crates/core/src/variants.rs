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
//! result translation back to original vertex ids. A set of prepared queries
//! runs on the compute units of a [`CuCluster`] through
//! [`run_prepared_on_cluster`], which measures the makespan next to its
//! [`pefp_fpga::predict_dispatch`] prediction.

use crate::counting::count_st_walks;
use crate::engine::PefpEngine;
use crate::options::{BatchStrategy, EngineOptions, VerificationPipeline};
use crate::preprocess::PreparedQuery;
use crate::result::PefpRunResult;
use pefp_fpga::{predict_dispatch, ArbiterStats, CuCluster, CuWorkload, Device, MultiCuSchedule};
use pefp_graph::sink::{FnSink, PathSink, TranslateSink};
use pefp_graph::VertexId;
use serde::{Deserialize, Serialize};
use std::ops::ControlFlow;
use std::sync::{Condvar, Mutex};
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

/// Measured execution of prepared queries on a [`CuCluster`]: what actually
/// happened when they ran on the CUs, next to the traffic-aware prediction,
/// so the model error is a first-class number.
#[derive(Debug, Clone)]
pub struct MeasuredMultiCu {
    /// Number of compute units the queries executed on.
    pub compute_units: usize,
    /// Simulated cycles each CU was busy (contention stalls included),
    /// indexed by CU.
    pub per_cu_busy_cycles: Vec<u64>,
    /// Number of queries each CU executed.
    pub per_cu_queries: Vec<usize>,
    /// Measured makespan: the busiest CU's cycles.
    pub makespan_cycles: u64,
    /// Sum of the queries' cycles without bus contention — what one CU
    /// would need (charged bank stalls included).
    pub serial_cycles: u64,
    /// Total contention stalls the shared-DRAM arbiter injected.
    pub contention_cycles: u64,
    /// Bank-conflict stall cycles each CU was *charged* (zero unless the
    /// cluster runs with banked charging on), indexed by CU.
    pub per_cu_bank_conflict_cycles: Vec<u64>,
    /// Read↔write turnaround stall cycles each CU was charged, indexed by CU.
    pub per_cu_turnaround_cycles: Vec<u64>,
    /// Aggregate refill traffic metered by the arbiter.
    pub arbiter: ArbiterStats,
    /// The traffic-aware prediction ([`pefp_fpga::predict_dispatch`]) from
    /// the same uncontended per-query costs, for model-error accounting.
    pub predicted: MultiCuSchedule,
    /// Host wall-clock spent in the dispatch (ms) — the time the real OS
    /// threads took, as opposed to the simulated cycle domain above.
    pub wall_millis: f64,
}

impl MeasuredMultiCu {
    /// Measured speedup over a single CU (serial cycles divided by the
    /// measured makespan).
    pub fn speedup(&self) -> f64 {
        if self.makespan_cycles == 0 {
            1.0
        } else {
            self.serial_cycles as f64 / self.makespan_cycles as f64
        }
    }

    /// Relative error of the predicted makespan against the measured one
    /// (0.0 = perfect model; 0.3 = off by 30%).
    pub fn model_error(&self) -> f64 {
        if self.makespan_cycles == 0 {
            return 0.0;
        }
        (self.predicted.makespan_cycles as f64 - self.makespan_cycles as f64).abs()
            / self.makespan_cycles as f64
    }
}

/// Runs every query of `prepared` on the compute units of `cluster`, one OS
/// thread per CU (the calling thread is CU 0, so a one-CU cluster — the
/// paper's single kernel — spawns nothing). Returns the per-query results in
/// the order of `prepared` and the measured per-CU accounting.
///
/// Each worker owns one CU (its own simulated BRAM, counters and clock,
/// behind the cluster's shared DRAM arbiter) and pulls the next query from a
/// work queue ordered longest-estimated-first — the greedy LPT policy
/// [`pefp_fpga::predict_dispatch`] models, driven by the walk-count estimate
/// on each prepared subgraph. Pops are gated on *simulated* CU load (see
/// `DispatchQueue`), so the assignment tracks the co-simulated device clocks
/// rather than the host scheduler, while the engine runs themselves execute
/// concurrently.
///
/// Every result path (original graph ids) goes to `on_path` with the index
/// of the query that produced it. The callback runs on the CU threads,
/// serialised through a mutex; returning [`ControlFlow::Break`] ends *that
/// query's* enumeration and the others run on.
pub fn run_prepared_on_cluster<F>(
    cluster: &CuCluster,
    prepared: &[PreparedQuery],
    options: EngineOptions,
    on_path: F,
) -> (Vec<PefpRunResult>, MeasuredMultiCu)
where
    F: FnMut(usize, &[VertexId]) -> ControlFlow<()> + Send,
{
    let cus = cluster.compute_units();
    // LPT estimate: the k-hop s-t walk count on the prepared subgraph (an
    // upper bound on the result volume) plus its edge count.
    let estimates: Vec<u64> = prepared
        .iter()
        .map(|prep| {
            if !prep.feasible {
                return 0;
            }
            count_st_walks(&prep.graph, prep.s, prep.t, prep.k)
                .saturating_add(prep.graph.num_edges() as u64)
        })
        .collect();
    let mut order: Vec<usize> = (0..prepared.len()).collect();
    order.sort_by(|&a, &b| estimates[b].cmp(&estimates[a]).then(a.cmp(&b)));
    let queue = DispatchQueue::new(order, estimates, cus);
    let emit = Mutex::new(on_path);

    // One CU's worker: drain the queue onto this CU's device. The CU counts
    // as bus-active until it drains the queue: a worker parked on the queue
    // gate is *busy in simulated time* (its next job just has not been
    // wall-executed yet), so dropping activation there would understate
    // contention whenever the host has fewer cores than CUs.
    let work = |cu: usize| {
        let _active = cluster.arbiter().activate();
        let mut rows = Vec::new();
        while let Some((job, estimate)) = queue.pop(cu) {
            let mut sink = FnSink(|path: &[VertexId]| {
                let mut cb = emit.lock().expect("path callback poisoned");
                (*cb)(job, path)
            });
            let result = run_prepared_on_device(
                &prepared[job],
                options.clone(),
                cluster.device_for_cu(cu),
                &mut sink,
            );
            queue.complete(cu, estimate, result.device.cycles);
            rows.push((job, result));
        }
        rows
    };
    let wall_start = Instant::now();
    let per_cu: Vec<Vec<(usize, PefpRunResult)>> = std::thread::scope(|scope| {
        let others: Vec<_> = (1..cus).map(|cu| scope.spawn(move || work(cu))).collect();
        let mut per_cu = vec![work(0)];
        per_cu.extend(others.into_iter().map(|h| h.join().expect("CU worker panicked")));
        per_cu
    });
    let wall_millis = wall_start.elapsed().as_secs_f64() * 1e3;

    let mut results: Vec<Option<PefpRunResult>> = vec![None; prepared.len()];
    let mut workloads = vec![CuWorkload::default(); prepared.len()];
    let mut per_cu_busy_cycles = vec![0u64; cus];
    let mut per_cu_queries = vec![0usize; cus];
    let mut per_cu_bank_conflict_cycles = vec![0u64; cus];
    let mut per_cu_turnaround_cycles = vec![0u64; cus];
    let mut contention_cycles = 0u64;
    for (cu, rows) in per_cu.into_iter().enumerate() {
        for (job, result) in rows {
            let device = &result.device;
            per_cu_busy_cycles[cu] += device.cycles;
            per_cu_queries[cu] += 1;
            per_cu_bank_conflict_cycles[cu] += device.bank_conflict_cycles;
            per_cu_turnaround_cycles[cu] += device.turnaround_cycles;
            contention_cycles += device.contention_cycles;
            // Uncontended cost: strip what the shared bus (contention) and
            // the bank model (charged conflict + turnaround stalls) injected;
            // the predictor adds both back from its own terms.
            let bank_stall_cycles = device.bank_conflict_cycles + device.turnaround_cycles;
            workloads[job] = CuWorkload {
                cycles: device.cycles - device.contention_cycles - bank_stall_cycles,
                dram_cycles: device.dram_cycles,
                bank_stall_cycles,
            };
            results[job] = Some(result);
        }
    }
    let measured = MeasuredMultiCu {
        compute_units: cus,
        makespan_cycles: per_cu_busy_cycles.iter().copied().max().unwrap_or(0),
        serial_cycles: workloads.iter().map(|w| w.cycles + w.bank_stall_cycles).sum(),
        per_cu_busy_cycles,
        per_cu_queries,
        contention_cycles,
        per_cu_bank_conflict_cycles,
        per_cu_turnaround_cycles,
        arbiter: cluster.arbiter().stats(),
        predicted: predict_dispatch(&workloads, cluster.multi_cu()),
        wall_millis,
    };
    let results = results.into_iter().map(|r| r.expect("every query executed")).collect();
    (results, measured)
}

/// The dispatch work queue: LPT-ordered jobs, popped in *simulated-time*
/// order.
///
/// Real hardware hands the next queued query to whichever CU becomes free
/// first — free in *device* time. When N simulated device clocks are
/// co-simulated by N host threads, "whoever locks the queue first" instead
/// reflects the host scheduler (on a single-core runner one thread can drain
/// the entire queue), which would corrupt the measured makespan. This queue
/// therefore gates each pop on the poppers' simulated load: a CU may take
/// the next job only while it is the least-loaded CU, counting in-flight
/// jobs at their LPT estimate until their true cycle count replaces it on
/// completion. Engine execution itself happens outside the lock, fully
/// concurrently.
struct DispatchQueue {
    state: Mutex<DispatchState>,
    wakeup: Condvar,
    order: Vec<usize>,
    estimates: Vec<u64>,
}

struct DispatchState {
    /// Next position in `order` to hand out.
    next: usize,
    /// Per-CU simulated load: completed cycles plus in-flight estimates.
    load: Vec<u64>,
    /// Workers that observed queue exhaustion and exited.
    done: Vec<bool>,
}

impl DispatchQueue {
    fn new(order: Vec<usize>, estimates: Vec<u64>, cus: usize) -> Self {
        DispatchQueue {
            state: Mutex::new(DispatchState {
                next: 0,
                load: vec![0; cus],
                done: vec![false; cus],
            }),
            wakeup: Condvar::new(),
            order,
            estimates,
        }
    }

    /// Takes the next job for `cu`, blocking while a less-loaded CU should
    /// pop first. Returns the job index and the estimate charged to the CU's
    /// load (to be replaced by the true cycle count via [`Self::complete`]),
    /// or `None` once the queue is empty.
    fn pop(&self, cu: usize) -> Option<(usize, u64)> {
        let mut state = self.state.lock().expect("dispatch queue poisoned");
        loop {
            if state.next >= self.order.len() {
                state.done[cu] = true;
                self.wakeup.notify_all();
                return None;
            }
            let my_load = state.load[cu];
            let am_least_loaded = (0..state.load.len()).filter(|&w| w != cu).all(|w| {
                state.done[w] || state.load[w] > my_load || (state.load[w] == my_load && w > cu)
            });
            if am_least_loaded {
                let job = self.order[state.next];
                state.next += 1;
                // Charge the estimate so concurrent poppers see this CU as
                // busy; `complete` swaps in the measured cycles. At least 1,
                // so even a zero-estimate job marks the CU as loaded.
                let estimate = self.estimates[job].max(1);
                state.load[cu] += estimate;
                self.wakeup.notify_all();
                return Some((job, estimate));
            }
            state = self.wakeup.wait(state).expect("dispatch queue poisoned");
        }
    }

    /// Replaces `cu`'s in-flight estimate with the measured cycle count.
    fn complete(&self, cu: usize, estimate: u64, actual_cycles: u64) {
        let mut state = self.state.lock().expect("dispatch queue poisoned");
        state.load[cu] = state.load[cu] - estimate + actual_cycles;
        self.wakeup.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::{prepare_csr, prepare_snapshot_with, PrepareContext};
    use pefp_baselines::naive_dfs_enumerate;
    use pefp_fpga::DeviceConfig;
    use pefp_fpga::MultiCuConfig;
    use pefp_graph::generators::chung_lu;
    use pefp_graph::paths::{canonicalize, validate_result, Path};
    use pefp_graph::sampling::sample_reachable_pairs;
    use pefp_graph::sink::CollectSink;
    use pefp_graph::{CsrGraph, GraphSnapshot};

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
        use pefp_fpga::{FaultKind, FaultPlan, ScriptedFault};
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

    /// Sampled reachable pairs of a 250-vertex power-law graph at `k`, each
    /// with its naive-DFS answer, and the pairs prepared for the full system.
    fn sampled_batch(k: u32, count: usize) -> (Vec<Vec<Path>>, Vec<PreparedQuery>) {
        let g = GraphSnapshot::from_csr(chung_lu(250, 5.0, 2.2, 61).to_csr());
        let mut ctx = PrepareContext::new();
        sample_reachable_pairs(g.base(), k, count, 99)
            .into_iter()
            .map(|(s, t)| {
                let oracle = canonicalize(naive_dfs_enumerate(g.base(), s, t, k));
                (oracle, prepare_snapshot_with(&mut ctx, &g, s, t, k, PefpVariant::Full))
            })
            .unzip()
    }

    fn cluster_of(cus: usize) -> CuCluster {
        let multi_cu = MultiCuConfig { compute_units: cus, ..MultiCuConfig::default() };
        CuCluster::new(DeviceConfig::alveo_u200(), multi_cu)
    }

    /// Counts every query of `prepared` on a fresh `cus`-CU cluster.
    fn count_on(cus: usize, prepared: &[PreparedQuery]) -> (Vec<PefpRunResult>, MeasuredMultiCu) {
        let options = PefpVariant::Full.engine_options();
        run_prepared_on_cluster(&cluster_of(cus), prepared, options, |_, _| {
            ControlFlow::Continue(())
        })
    }

    fn num_paths(results: &[PefpRunResult]) -> Vec<u64> {
        results.iter().map(|r| r.num_paths).collect()
    }

    #[test]
    fn batch_results_match_the_naive_oracle() {
        let (oracles, prepared) = sampled_batch(3, 10);
        assert!(!prepared.is_empty());
        let (results, measured) = count_on(1, &prepared);
        assert_eq!(results.len(), prepared.len());
        for (job, (res, oracle)) in results.iter().zip(&oracles).enumerate() {
            assert_eq!(res.num_paths, oracle.len() as u64, "job {job}");
        }
        assert_eq!(measured.per_cu_queries, vec![prepared.len()]);
        assert!(measured.wall_millis > 0.0);
    }

    #[test]
    fn dispatch_counts_match_the_serial_batch_on_every_cu_width() {
        let (oracles, prepared) = sampled_batch(4, 10);
        assert!(prepared.len() >= 4);
        let (single, single_measured) = count_on(1, &prepared);
        let oracle_counts: Vec<u64> = oracles.iter().map(|o| o.len() as u64).collect();
        assert_eq!(num_paths(&single), oracle_counts, "1 CU vs the naive oracle");
        // A single CU cannot contend with itself: measured == serial.
        assert_eq!(single_measured.makespan_cycles, single_measured.serial_cycles);
        assert_eq!(single_measured.contention_cycles, 0);
        for cus in [2usize, 4] {
            let (results, measured) = count_on(cus, &prepared);
            assert_eq!(num_paths(&results), num_paths(&single), "cus = {cus}");
            assert_eq!(measured.compute_units, cus);
            assert_eq!(measured.per_cu_queries.iter().sum::<usize>(), prepared.len());
            assert!(measured.makespan_cycles <= measured.serial_cycles);
            assert_eq!(
                measured.serial_cycles, single_measured.serial_cycles,
                "uncontended cycles are deterministic"
            );
        }
    }

    #[test]
    fn dispatch_streams_every_path_and_honours_break() {
        let (oracles, prepared) = sampled_batch(3, 6);
        assert!(!prepared.is_empty());
        let options = PefpVariant::Full.engine_options();
        let cluster = cluster_of(2);
        let mut streamed = vec![Vec::new(); prepared.len()];
        let (results, measured) = run_prepared_on_cluster(&cluster, &prepared, options.clone(), {
            let streamed = &mut streamed;
            move |job, path| {
                streamed[job].push(path.to_vec());
                ControlFlow::Continue(())
            }
        });
        let streamed: Vec<Vec<Path>> = streamed.into_iter().map(canonicalize).collect();
        assert_eq!(streamed, oracles);
        // The counting run agrees on every aggregate.
        let (counted, counted_measured) = count_on(2, &prepared);
        assert_eq!(num_paths(&results), num_paths(&counted));
        assert_eq!(measured.serial_cycles, counted_measured.serial_cycles);

        // Break terminates only the victim query's enumeration.
        let Some(victim) = counted.iter().position(|r| r.num_paths > 1) else {
            return;
        };
        let (results, _) = run_prepared_on_cluster(&cluster_of(2), &prepared, options, |job, _| {
            if job == victim {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        for (job, (got, want)) in results.iter().zip(&counted).enumerate() {
            let want = if job == victim { 1 } else { want.num_paths };
            assert_eq!(got.num_paths, want, "job {job} (victim {victim})");
        }
    }

    #[test]
    fn dispatch_measurement_and_prediction_share_the_cycle_domain() {
        // Queries on this tiny graph finish in microseconds, so how many a
        // given CU wins from the queue is timing-dependent; this test only
        // asserts the invariants that hold for *every* interleaving. The
        // tight predicted-vs-measured bound lives in the integration tests,
        // on a batch heavy enough that all CUs overlap.
        let (_, prepared) = sampled_batch(4, 16);
        assert!(prepared.len() >= 8);
        let (_, measured) = count_on(2, &prepared);
        // Two CUs at share 0.5 never saturate the bus: no contention, so the
        // per-CU busy cycles partition the serial total exactly.
        assert_eq!(measured.contention_cycles, 0);
        assert_eq!(measured.per_cu_busy_cycles.iter().sum::<u64>(), measured.serial_cycles);
        assert!(measured.makespan_cycles <= measured.serial_cycles);
        assert!(measured.makespan_cycles * 2 >= measured.serial_cycles, "2 CUs cap at 2x");
        let predicted = &measured.predicted;
        assert!(predicted.makespan_cycles > 0);
        assert!(predicted.makespan_cycles <= predicted.serial_cycles);
        assert!(predicted.makespan_cycles * 2 >= predicted.serial_cycles);
        assert_eq!(predicted.serial_cycles, measured.serial_cycles);
        assert!(measured.speedup() >= 1.0);
        assert!(measured.wall_millis > 0.0);
    }

    #[test]
    fn empty_batch_is_a_cheap_no_op() {
        let (results, measured) = count_on(2, &[]);
        assert!(results.is_empty());
        assert_eq!(measured.makespan_cycles, 0);
        assert_eq!(measured.per_cu_queries, vec![0, 0]);
        assert_eq!(measured.model_error(), 0.0);
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
