//! Batch scheduling of many queries into one transfer.
//!
//! The paper's evaluation methodology (Section VII-A) transfers "the 1,000
//! queries and their corresponding data graphs (after preprocessing) from the
//! host to FPGA DRAM at once", which amortises the PCIe setup cost to
//! 0.1–0.3 ms per query. This module reproduces that batching: it runs the
//! host-side Pre-BFS for a whole query set against one graph snapshot
//! (optionally across host threads — preprocessing is embarrassingly parallel
//! across queries), deduplicates identical requests, ships the concatenated
//! payloads as a single DMA transfer and then dispatches the unique queries
//! onto the compute units of a [`CuCluster`]. The paper's single kernel is
//! the one-CU case of that one dispatch loop.

use crate::dma::{DmaEngine, DmaTransferReport};
use crate::error::HostError;
use crate::query::QueryRequest;
use pefp_core::{
    count_st_walks, prepare_snapshot_with, run_prepared_on_device, PefpRunResult, PefpVariant,
    PrepareContext, PreparedQuery,
};
use pefp_fpga::{
    predict_dispatch, ArbiterStats, CuCluster, CuWorkload, DeviceConfig, MultiCuConfig,
    MultiCuSchedule, Pcie,
};
use pefp_graph::sink::FnSink;
use pefp_graph::{GraphSnapshot, PlacementPolicy, VertexId};
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Per-CU device profile.
    pub device: DeviceConfig,
    /// PEFP variant used for every query.
    pub variant: PefpVariant,
    /// Number of host threads used for preprocessing (1 = sequential).
    pub preprocess_threads: usize,
    /// The compute units the batch executes on — one OS thread per CU, every
    /// CU behind the cluster's shared DRAM arbiter. The default single CU is
    /// the paper's one-kernel deployment.
    pub multi_cu: MultiCuConfig,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            device: DeviceConfig::alveo_u200(),
            variant: PefpVariant::Full,
            preprocess_threads: 1,
            multi_cu: MultiCuConfig::default(),
        }
    }
}

/// Measured execution of one batch on the cluster: what actually happened
/// when the unique queries ran on the CUs, next to the traffic-aware
/// prediction, so the model error is a first-class number.
#[derive(Debug, Clone)]
pub struct MeasuredMultiCu {
    /// Number of compute units the batch executed on.
    pub compute_units: usize,
    /// Simulated cycles each CU was busy (contention stalls included),
    /// indexed by CU.
    pub per_cu_busy_cycles: Vec<u64>,
    /// Number of queries each CU executed.
    pub per_cu_queries: Vec<usize>,
    /// Measured batch makespan: the busiest CU's cycles.
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
    /// Host wall-clock spent in the dispatch phase (ms) — the time the real
    /// OS threads took, as opposed to the simulated cycle domain above.
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

/// Per-query result row of a batch run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchQueryResult {
    /// The request.
    pub request: QueryRequest,
    /// Number of result paths.
    pub num_paths: u64,
    /// Simulated device time for this query in milliseconds.
    pub device_millis: f64,
}

/// The outcome of scheduling one batch.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-query results, in the order the requests were submitted
    /// (duplicates resolved to the same numbers).
    pub results: Vec<BatchQueryResult>,
    /// Host wall-clock spent in preprocessing for the whole batch (ms).
    pub preprocess_millis: f64,
    /// The single batched DMA transfer.
    pub transfer: DmaTransferReport,
    /// Total simulated device time (ms) summed over the unique queries,
    /// contention stalls included.
    pub device_millis: f64,
    /// Number of requests that were served from a duplicate's result.
    pub deduplicated: usize,
    /// The measured execution on the cluster, next to its prediction.
    pub measured: MeasuredMultiCu,
}

impl BatchOutcome {
    /// Total batch time in milliseconds (preprocess + transfer + device).
    pub fn total_millis(&self) -> f64 {
        self.preprocess_millis + self.transfer.total_millis + self.device_millis
    }

    /// Average per-query total time in milliseconds.
    pub fn avg_query_millis(&self) -> f64 {
        if self.results.is_empty() {
            0.0
        } else {
            self.total_millis() / self.results.len() as f64
        }
    }

    /// Total number of result paths across the batch.
    pub fn total_paths(&self) -> u64 {
        self.results.iter().map(|r| r.num_paths).sum()
    }
}

/// Runs batches of queries against one graph snapshot.
#[derive(Debug)]
pub struct BatchScheduler {
    config: SchedulerConfig,
}

impl BatchScheduler {
    /// Creates a scheduler with `config`.
    pub fn new(config: SchedulerConfig) -> Self {
        BatchScheduler { config }
    }

    /// The scheduler's configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// Runs a batch of queries against `graph` and returns the batch outcome.
    ///
    /// Every request is validated first; the whole batch is rejected if any
    /// request is invalid (matching the all-or-nothing transfer). Results are
    /// counted, never materialised — this is [`Self::run_batch_streaming`]
    /// with a discard-everything callback. `placement` is the DRAM row layout
    /// of the graph's adjacency (see [`crate::GraphHandle::placement`]).
    pub fn run_batch(
        &self,
        graph: &GraphSnapshot,
        placement: PlacementPolicy,
        requests: &[QueryRequest],
    ) -> Result<BatchOutcome, HostError> {
        self.run_batch_streaming(graph, placement, requests, |_, _| ControlFlow::Continue(()))
    }

    /// Runs the batch's unique queries on [`SchedulerConfig::multi_cu`]
    /// compute units, one thread per CU (the calling thread is CU 0),
    /// pushing every result path (original graph vertex ids) to `on_path`
    /// together with the request that produced it, so the host never
    /// materialises a result set.
    ///
    /// Each worker owns one CU of a [`CuCluster`] (its own simulated BRAM,
    /// counters and clock, behind the shared DRAM arbiter) and pulls the next
    /// query from a shared work queue ordered longest-estimated-first — the
    /// greedy LPT policy [`pefp_fpga::predict_dispatch`] models, driven by
    /// the walk-count estimate on each prepared subgraph. Pops are gated on
    /// *simulated* CU load (see [`DispatchQueue`]), so the assignment tracks
    /// the device clocks being co-simulated rather than the host scheduler's
    /// whims, while the engine runs themselves still execute concurrently.
    ///
    /// `on_path` is called from the CU threads, serialised through a mutex,
    /// so it sees one path at a time. Returning [`ControlFlow::Break`]
    /// terminates *that request's* enumeration early; the rest of the batch
    /// still runs. A duplicated request's paths are streamed once, for the
    /// first occurrence; its [`BatchQueryResult`] rows still cover every
    /// slot.
    pub fn run_batch_streaming<F>(
        &self,
        graph: &GraphSnapshot,
        placement: PlacementPolicy,
        requests: &[QueryRequest],
        on_path: F,
    ) -> Result<BatchOutcome, HostError>
    where
        F: FnMut(&QueryRequest, &[VertexId]) -> ControlFlow<()> + Send,
    {
        let staged = self.stage_batch(graph, requests)?;
        let cus = self.config.multi_cu.compute_units.max(1);
        let cluster = CuCluster::new(self.config.device.clone(), self.config.multi_cu);
        let mut options = self.config.variant.engine_options();
        options.bank_placement = placement;

        // LPT work queue: longest estimated enumeration first. The estimate
        // is the k-hop s-t walk count on the prepared subgraph (an upper
        // bound on the result volume) plus its edge count, so heavyweight
        // queries start early and stragglers stay short.
        let estimates: Vec<u64> = staged
            .prepared
            .iter()
            .map(|prep| {
                if !prep.feasible {
                    return 0;
                }
                count_st_walks(&prep.graph, prep.s, prep.t, prep.k)
                    .saturating_add(prep.graph.num_edges() as u64)
            })
            .collect();
        let mut order: Vec<usize> = (0..staged.unique.len()).collect();
        order.sort_by(|&a, &b| estimates[b].cmp(&estimates[a]).then(a.cmp(&b)));
        let queue = DispatchQueue::new(order, estimates, cus);
        let emit = Mutex::new(on_path);

        // One CU's worker: drain the queue onto this CU's device. The CU
        // counts as bus-active until it drains the queue: a worker parked on
        // the queue gate is *busy in simulated time* (its next job just has
        // not been wall-executed yet), so dropping activation there would
        // understate contention whenever the host has fewer cores than CUs.
        let work = |cu: usize| {
            let _active = cluster.arbiter().activate();
            let mut rows = Vec::new();
            while let Some((job, estimate)) = queue.pop(cu) {
                let request = staged.unique[job];
                let mut sink = FnSink(|path: &[VertexId]| {
                    let mut cb = emit.lock().expect("path callback poisoned");
                    (*cb)(&request, path)
                });
                let result = run_prepared_on_device(
                    &staged.prepared[job],
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
            // The calling thread is CU 0, so a one-CU batch spawns nothing.
            let mut per_cu = vec![work(0)];
            per_cu.extend(others.into_iter().map(|h| h.join().expect("CU worker panicked")));
            per_cu
        });
        let wall_millis = wall_start.elapsed().as_secs_f64() * 1e3;

        Ok(staged.into_outcome(
            per_cu,
            cluster.arbiter().stats(),
            &self.config.multi_cu,
            wall_millis,
        ))
    }

    /// Preprocesses the unique queries against `graph`, possibly across
    /// several host threads, each with its own [`PrepareContext`] so scratch
    /// allocations amortise across the batch.
    fn preprocess_all(&self, graph: &GraphSnapshot, unique: &[QueryRequest]) -> Vec<PreparedQuery> {
        let variant = self.config.variant;
        let prepare_chunk = |chunk: &[QueryRequest]| {
            let mut ctx = PrepareContext::new();
            chunk
                .iter()
                .map(|q| prepare_snapshot_with(&mut ctx, graph, q.s, q.t, q.k, variant))
                .collect::<Vec<_>>()
        };
        let threads = self.config.preprocess_threads.clamp(1, unique.len().max(1));
        if threads == 1 {
            return prepare_chunk(unique);
        }
        // Contiguous chunks, joined in order, so the output lines up with
        // `unique`.
        std::thread::scope(|scope| {
            let handles: Vec<_> = unique
                .chunks(unique.len().div_ceil(threads))
                .map(|chunk| scope.spawn(move || prepare_chunk(chunk)))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("preprocess thread panicked"))
                .collect()
        })
    }

    /// The host-side half of a batch: validation against `graph`,
    /// deduplication, (parallel) preprocessing and the single batched DMA
    /// transfer.
    fn stage_batch(
        &self,
        graph: &GraphSnapshot,
        requests: &[QueryRequest],
    ) -> Result<StagedBatch, HostError> {
        for q in requests {
            q.validate_for(graph.num_vertices())?;
        }

        // Deduplicate while remembering each request's slot.
        let mut unique: Vec<QueryRequest> = Vec::new();
        let mut index: HashMap<QueryRequest, usize> = HashMap::new();
        let slot_of: Vec<usize> = requests
            .iter()
            .map(|q| {
                *index.entry(*q).or_insert_with(|| {
                    unique.push(*q);
                    unique.len() - 1
                })
            })
            .collect();
        let deduplicated = requests.len() - unique.len();

        // Host preprocessing (timed as a whole, like the paper's T1).
        let started = Instant::now();
        let prepared = self.preprocess_all(graph, &unique);
        let preprocess_millis = started.elapsed().as_secs_f64() * 1e3;

        // One batched transfer of all payloads.
        let total_bytes: usize = prepared.iter().map(crate::binfmt::payload_bytes).sum();
        if total_bytes > self.config.device.dram_bytes {
            return Err(HostError::DeviceCapacity(format!(
                "batched payload is {total_bytes} bytes but device DRAM holds {}",
                self.config.device.dram_bytes
            )));
        }
        let pcie = Pcie::new(self.config.device.pcie_gbps, self.config.device.pcie_setup_us);
        let transfer = DmaEngine::with_defaults(pcie).transfer(total_bytes);

        Ok(StagedBatch { unique, slot_of, prepared, preprocess_millis, transfer, deduplicated })
    }
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

/// A validated, deduplicated, preprocessed and transferred batch, ready for
/// device execution.
struct StagedBatch {
    unique: Vec<QueryRequest>,
    slot_of: Vec<usize>,
    prepared: Vec<PreparedQuery>,
    preprocess_millis: f64,
    transfer: DmaTransferReport,
    deduplicated: usize,
}

impl StagedBatch {
    /// Folds the CU workers' rows (`per_cu[cu]` = the unique-query indices
    /// CU `cu` ran, with their results) into per-slot result rows and the
    /// measured per-CU accounting, next to the prediction over the same
    /// uncontended workloads.
    fn into_outcome(
        self,
        per_cu: Vec<Vec<(usize, PefpRunResult)>>,
        arbiter: ArbiterStats,
        multi_cu: &MultiCuConfig,
        wall_millis: f64,
    ) -> BatchOutcome {
        let cus = per_cu.len();
        let mut unique_results: Vec<Option<BatchQueryResult>> = vec![None; self.unique.len()];
        let mut workloads = vec![CuWorkload::default(); self.unique.len()];
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
                // Uncontended cost: strip what the shared bus (contention)
                // and the bank model (charged conflict + turnaround stalls)
                // injected; the predictor adds both back from its own terms.
                let bank_stall_cycles = device.bank_conflict_cycles + device.turnaround_cycles;
                workloads[job] = CuWorkload {
                    cycles: device.cycles - device.contention_cycles - bank_stall_cycles,
                    dram_cycles: device.dram_cycles,
                    bank_stall_cycles,
                };
                unique_results[job] = Some(BatchQueryResult {
                    request: self.unique[job],
                    num_paths: result.num_paths,
                    device_millis: result.query_millis,
                });
            }
        }
        let unique_results: Vec<BatchQueryResult> =
            unique_results.into_iter().map(|r| r.expect("every unique query executed")).collect();
        // Summed in request order, not CU completion order, so the total does
        // not depend on which CU ran which query.
        let device_millis = unique_results.iter().map(|r| r.device_millis).sum();

        let measured = MeasuredMultiCu {
            compute_units: cus,
            makespan_cycles: per_cu_busy_cycles.iter().copied().max().unwrap_or(0),
            serial_cycles: workloads.iter().map(|w| w.cycles + w.bank_stall_cycles).sum(),
            per_cu_busy_cycles,
            per_cu_queries,
            contention_cycles,
            per_cu_bank_conflict_cycles,
            per_cu_turnaround_cycles,
            arbiter,
            predicted: predict_dispatch(&workloads, multi_cu),
            wall_millis,
        };
        BatchOutcome {
            results: self.slot_of.iter().map(|&slot| unique_results[slot]).collect(),
            preprocess_millis: self.preprocess_millis,
            transfer: self.transfer,
            device_millis,
            deduplicated: self.deduplicated,
            measured,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::GraphHandle;
    use pefp_baselines::naive_dfs_enumerate;
    use pefp_graph::generators::chung_lu;
    use pefp_graph::paths::canonicalize;
    use pefp_graph::sampling::sample_reachable_pairs;
    use pefp_graph::CsrGraph;

    fn handle() -> GraphHandle {
        GraphHandle::from_csr("test", chung_lu(250, 5.0, 2.2, 61).to_csr())
    }

    fn requests(handle: &GraphHandle, k: u32, count: usize) -> Vec<QueryRequest> {
        sample_reachable_pairs(&handle.csr, k, count, 99)
            .into_iter()
            .map(|(s, t)| QueryRequest { s, t, k })
            .collect()
    }

    fn on_cus(cus: usize) -> BatchScheduler {
        BatchScheduler::new(SchedulerConfig {
            multi_cu: MultiCuConfig { compute_units: cus, ..MultiCuConfig::default() },
            ..SchedulerConfig::default()
        })
    }

    fn run(
        scheduler: &BatchScheduler,
        handle: &GraphHandle,
        reqs: &[QueryRequest],
    ) -> Result<BatchOutcome, HostError> {
        scheduler.run_batch(&handle.snapshot(), handle.placement, reqs)
    }

    #[test]
    fn batch_results_match_the_naive_oracle() {
        let handle = handle();
        let reqs = requests(&handle, 3, 10);
        assert!(!reqs.is_empty());
        let outcome = run(&on_cus(1), &handle, &reqs).unwrap();
        assert_eq!(outcome.results.len(), reqs.len());
        for (req, res) in reqs.iter().zip(&outcome.results) {
            let oracle = naive_dfs_enumerate(&handle.csr, req.s, req.t, req.k).len() as u64;
            assert_eq!(res.num_paths, oracle, "query {req:?}");
        }
        assert!(outcome.transfer.bytes > 0);
        assert!(outcome.total_millis() > 0.0);
    }

    #[test]
    fn duplicates_are_collapsed_but_answered_for_every_slot() {
        let handle = handle();
        let base = requests(&handle, 3, 3);
        assert!(base.len() >= 2);
        let mut reqs = base.clone();
        reqs.extend_from_slice(&base); // every query twice
        let outcome = run(&on_cus(1), &handle, &reqs).unwrap();
        assert_eq!(outcome.deduplicated, base.len());
        assert_eq!(outcome.results.len(), reqs.len());
        assert_eq!(outcome.measured.per_cu_queries, vec![base.len()]);
        for i in 0..base.len() {
            assert_eq!(outcome.results[i].num_paths, outcome.results[i + base.len()].num_paths);
        }
    }

    #[test]
    fn parallel_preprocessing_gives_identical_results() {
        let handle = handle();
        let reqs = requests(&handle, 4, 12);
        let with_threads = |preprocess_threads| {
            let config = SchedulerConfig { preprocess_threads, ..Default::default() };
            run(&BatchScheduler::new(config), &handle, &reqs).unwrap()
        };
        let (sequential, parallel) = (with_threads(1), with_threads(4));
        assert_eq!(sequential.results, parallel.results);
        assert_eq!(sequential.measured.serial_cycles, parallel.measured.serial_cycles);
    }

    #[test]
    fn dispatch_counts_match_the_serial_batch_on_every_cu_width() {
        let handle = handle();
        let reqs = requests(&handle, 4, 10);
        assert!(reqs.len() >= 4);
        let single = run(&on_cus(1), &handle, &reqs).unwrap();
        for (req, row) in reqs.iter().zip(&single.results) {
            let oracle = naive_dfs_enumerate(&handle.csr, req.s, req.t, req.k).len() as u64;
            assert_eq!(row.num_paths, oracle, "1 CU vs the naive oracle on {req:?}");
        }
        // A single CU cannot contend with itself: measured == serial.
        assert_eq!(single.measured.makespan_cycles, single.measured.serial_cycles);
        assert_eq!(single.measured.contention_cycles, 0);
        for cus in [2usize, 4] {
            let outcome = run(&on_cus(cus), &handle, &reqs).unwrap();
            assert_eq!(outcome.results.len(), reqs.len());
            for (got, want) in outcome.results.iter().zip(&single.results) {
                assert_eq!(got.request, want.request);
                assert_eq!(got.num_paths, want.num_paths, "cus = {cus}");
            }
            let measured = &outcome.measured;
            assert_eq!(measured.compute_units, cus);
            assert_eq!(
                measured.per_cu_queries.iter().sum::<usize>(),
                reqs.len() - single.deduplicated
            );
            assert!(measured.makespan_cycles <= measured.serial_cycles);
            assert_eq!(
                measured.serial_cycles, single.measured.serial_cycles,
                "uncontended cycles are deterministic"
            );
        }
    }

    #[test]
    fn dispatch_streams_every_path_and_honours_break() {
        let handle = handle();
        let reqs = requests(&handle, 3, 6);
        assert!(!reqs.is_empty());
        let scheduler = on_cus(2);
        let snapshot = handle.snapshot();
        let mut streamed = HashMap::<QueryRequest, Vec<Vec<VertexId>>>::new();
        let outcome = scheduler
            .run_batch_streaming(&snapshot, handle.placement, &reqs, |req, path| {
                streamed.entry(*req).or_default().push(path.to_vec());
                ControlFlow::Continue(())
            })
            .unwrap();
        assert_eq!(outcome.results.len(), reqs.len());
        for req in &reqs {
            let oracle = naive_dfs_enumerate(&handle.csr, req.s, req.t, req.k);
            let got = streamed.remove(req).unwrap_or_default();
            assert_eq!(canonicalize(got), canonicalize(oracle), "query {req:?}");
        }
        // The counting run agrees on every aggregate.
        let counted = run(&scheduler, &handle, &reqs).unwrap();
        assert_eq!(outcome.total_paths(), counted.total_paths());
        assert_eq!(outcome.measured.serial_cycles, counted.measured.serial_cycles);

        // Break terminates only the victim request's enumeration.
        let Some(victim) = counted.results.iter().find(|r| r.num_paths > 1).map(|r| r.request)
        else {
            return;
        };
        let outcome = scheduler
            .run_batch_streaming(&snapshot, handle.placement, &reqs, |req, _path| {
                if *req == victim {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            })
            .unwrap();
        for (got, want) in outcome.results.iter().zip(&counted.results) {
            if got.request == victim {
                assert_eq!(got.num_paths, 1, "the break lands after the first path");
            } else {
                assert_eq!(got.num_paths, want.num_paths, "other requests run to completion");
            }
        }
    }

    #[test]
    fn dispatch_measurement_and_prediction_share_the_cycle_domain() {
        // Queries on this tiny graph finish in microseconds, so how many a
        // given CU wins from the queue is timing-dependent; this test only
        // asserts the invariants that hold for *every* interleaving. The
        // tight predicted-vs-measured bound lives in the integration tests,
        // on a batch heavy enough that all CUs overlap.
        let handle = handle();
        let reqs = requests(&handle, 4, 16);
        assert!(reqs.len() >= 8);
        let measured = run(&on_cus(2), &handle, &reqs).unwrap().measured;
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
    fn invalid_request_rejects_the_whole_batch() {
        let handle = handle();
        let mut reqs = requests(&handle, 3, 3);
        reqs.push(QueryRequest::new(0, 999_999, 3));
        let scheduler = on_cus(1);
        assert!(matches!(run(&scheduler, &handle, &reqs), Err(HostError::QueryInvalid(_))));
    }

    #[test]
    fn empty_batch_is_a_cheap_no_op() {
        let handle = handle();
        let outcome = run(&on_cus(1), &handle, &[]).unwrap();
        assert!(outcome.results.is_empty());
        assert_eq!(outcome.total_paths(), 0);
        assert_eq!(outcome.avg_query_millis(), 0.0);
        assert_eq!(outcome.deduplicated, 0);
        assert_eq!(outcome.measured.makespan_cycles, 0);
    }

    #[test]
    fn batched_transfer_is_cheaper_than_per_query_transfers() {
        let handle = GraphHandle::from_csr(
            "dense",
            CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5), (1, 4)]),
        );
        let reqs: Vec<QueryRequest> = (0..6u32)
            .flat_map(|s| {
                (0..6u32).filter(move |&t| t != s).map(move |t| QueryRequest::new(s, t, 4))
            })
            .collect();
        let scheduler = on_cus(1);
        let outcome = run(&scheduler, &handle, &reqs).unwrap();
        assert_eq!(outcome.deduplicated, 0, "every request is distinct");
        // One transfer for the whole batch, so the per-query share of the
        // setup cost is far below the standalone setup cost.
        assert!(outcome.transfer.descriptors >= 1);
        let per_query_transfer = outcome.transfer.total_millis / reqs.len() as f64;
        let single = {
            let device = &scheduler.config().device;
            let mut dma =
                DmaEngine::with_defaults(Pcie::new(device.pcie_gbps, device.pcie_setup_us));
            dma.transfer(outcome.transfer.bytes / reqs.len()).total_millis
        };
        assert!(per_query_transfer < single);
    }
}
