//! The PEFP device-side engine (Algorithm 1 of the paper).
//!
//! The engine follows the expansion-and-verification framework:
//!
//! 1. fetch a batch of intermediate paths into the *processing area* `P'`
//!    ([`batch`], Algorithms 3 and 4),
//! 2. expand every path in the batch with its one-hop successors,
//! 3. verify each expansion with the three-stage check ([`verify`],
//!    Algorithm 2),
//! 4. write valid expansions back to the *buffer area* `P`, spilling to DRAM
//!    (`PD`) when the buffer is full, and emit result paths.
//!
//! All real computation happens in ordinary Rust data structures; every
//! memory access and pipeline execution is *charged* against the simulated
//! [`Device`] so the run produces both the exact result set and a simulated
//! device time (see `pefp-fpga` for the cost model and `DESIGN.md` for the
//! justification of the substitution).

pub mod batch;
pub mod memory;
mod scan;
pub mod verify;

use crate::options::{BatchStrategy, CancelToken, EngineOptions};
use crate::path::{TempPath, MAX_K};
use crate::result::{EngineOutput, EngineStats};
use memory::MemoryLayout;
use pefp_fpga::Device;
use pefp_graph::sink::{CollectSink, CountingSink, FirstN, PathSink};
use pefp_graph::{CsrGraph, RowPlacement, VertexId};
use scan::BudgetIndex;
use std::collections::VecDeque;
use std::ops::ControlFlow;
use verify::Verdict;

/// Device-side enumeration engine for one prepared query.
pub struct PefpEngine<'a> {
    /// The (preprocessed) graph in CSR form.
    graph: &'a CsrGraph,
    /// Barrier array: `bar[u] = sd(u, t)` clamped to `k + 1`.
    barrier: &'a [u32],
    /// Source vertex (device ids).
    s: VertexId,
    /// Target vertex (device ids).
    t: VertexId,
    /// Hop constraint.
    k: u32,
    /// Engine configuration.
    opts: EngineOptions,
    /// Simulated device used for cost accounting.
    device: Device,
    /// Placement decisions (what ended up cached in BRAM).
    layout: MemoryLayout,
    /// DRAM addresses of the adjacency rows, planned only when the device
    /// charges banked DRAM stalls *and* the graph missed the BRAM cache —
    /// the one configuration where a row's bank assignment costs time.
    placement: Option<RowPlacement>,
    /// Reusable emission buffer: the result path handed to the sink, so the
    /// hot loop allocates nothing per result.
    emit_buf: Vec<VertexId>,
    /// Behavioural counters.
    stats: EngineStats,
}

/// The intermediate path sets of one run, stored `W` vertex slots wide on
/// the host (see [`crate::path`]).
struct PathAreas<const W: usize> {
    /// Buffer area `P` (front = oldest / bottom of the stack).
    buffer: VecDeque<TempPath<W>>,
    /// DRAM-resident intermediate path set `PD`.
    dram: Vec<TempPath<W>>,
}

/// Per-vertex fetch-heat estimate for bank-aware row placement: how often
/// the enumeration is expected to fetch each adjacency row.
///
/// A row is fetched each time its vertex heads an expanded path, and the
/// paths reaching `v` are the admissible `s`-walks: length `ℓ` walks with
/// `ℓ + bar(v) ≤ k` (anything longer is pruned by the barrier before it is
/// ever expanded). The walk counts satisfy the obvious recurrence
/// `w_ℓ(v) = Σ_{u→v} w_{ℓ-1}(u)`, evaluated here in `k` sparse passes over
/// the CSR — `O(k·|E|)`, noise against the enumeration itself. Walks
/// overcount simple paths (they revisit vertices), but the *ranking* is what
/// placement consumes, and the overcount inflates exactly the rows the DFS
/// re-reads most. Counts are renormalised whenever they overflow `1e12`:
/// only relative heat matters. Admission is the engine's own barrier check
/// ([`verify::within_budget`]): a step-`ℓ` walk has `k - ℓ + 1` hops of
/// budget left, the target reads as barrier 0, and an `UNREACHED` barrier
/// admits nothing.
fn placement_heat(graph: &CsrGraph, barrier: &[u32], s: VertexId, t: VertexId, k: u32) -> Vec<f64> {
    let n = graph.num_vertices();
    let mut heat = vec![0.0f64; n];
    let mut walks = vec![0.0f64; n];
    let mut next = vec![0.0f64; n];
    walks[s.index()] = 1.0;
    heat[s.index()] = 1.0;
    for step in 1..=k {
        next.iter_mut().for_each(|x| *x = 0.0);
        for v in graph.vertices() {
            let wv = walks[v.index()];
            if wv == 0.0 {
                continue;
            }
            for &u in graph.successors(v) {
                if verify::within_budget(u, t, barrier, k - step + 1) {
                    next[u.index()] += wv;
                }
            }
        }
        // A walk of length k cannot be extended, so its head is never
        // expanded (never fetched): it contributes no heat.
        if step < k {
            for (h, &w) in heat.iter_mut().zip(next.iter()) {
                *h += w;
            }
        }
        let max = next.iter().copied().fold(0.0f64, f64::max);
        if max == 0.0 {
            break;
        }
        if max > 1e12 {
            next.iter_mut().for_each(|x| *x /= max);
        }
        std::mem::swap(&mut walks, &mut next);
    }
    heat
}

impl<'a> PefpEngine<'a> {
    /// Creates an engine for one query.
    ///
    /// # Panics
    ///
    /// Panics when the options are invalid, `k` exceeds [`MAX_K`], or the
    /// barrier array does not cover the graph.
    pub fn new(
        graph: &'a CsrGraph,
        barrier: &'a [u32],
        s: VertexId,
        t: VertexId,
        k: u32,
        opts: EngineOptions,
        mut device: Device,
    ) -> Self {
        let problems = opts.validate();
        assert!(problems.is_empty(), "invalid engine options: {problems:?}");
        assert!(k as usize <= MAX_K, "hop constraint {k} exceeds MAX_K = {MAX_K}");
        assert_eq!(barrier.len(), graph.num_vertices(), "barrier array must cover every vertex");
        assert!(s.index() < graph.num_vertices(), "source {s} out of range");
        assert!(t.index() < graph.num_vertices(), "target {t} out of range");
        let layout = MemoryLayout::plan(&mut device, graph, &opts);
        let placement = if !layout.graph_cached && device.charges_banked_dram() {
            device.bank_geometry().map(|(banks, stripe)| {
                let heat = placement_heat(graph, barrier, s, t, k);
                RowPlacement::plan_with_heat(graph, opts.bank_placement, banks, stripe, &heat)
            })
        } else {
            None
        };
        PefpEngine {
            graph,
            barrier,
            s,
            t,
            k,
            opts,
            device,
            layout,
            placement,
            emit_buf: Vec::with_capacity(MAX_K + 1),
            stats: EngineStats::default(),
        }
    }

    /// The memory placement the engine planned for this query.
    pub fn layout(&self) -> &MemoryLayout {
        &self.layout
    }

    /// Consumes nothing; returns the simulated device report accumulated so far.
    pub fn device_report(&self) -> pefp_fpga::DeviceReport {
        self.device.report()
    }

    /// Runs the full enumeration (Algorithm 1), materialising or counting
    /// results according to [`EngineOptions::collect_paths`].
    ///
    /// This is a thin wrapper over [`Self::run_with_sink`]: collect mode uses
    /// a [`CollectSink`], counting mode a [`CountingSink`] — one shared code
    /// path, so `EngineStats::results` is consistent in both modes.
    pub fn run(&mut self) -> EngineOutput {
        if self.opts.collect_paths {
            let mut sink = CollectSink::new();
            let mut out = self.run_with_sink(&mut sink);
            out.paths = sink.into_paths();
            out
        } else {
            self.run_with_sink(&mut CountingSink::new())
        }
    }

    /// Runs the full enumeration (Algorithm 1), pushing every result path
    /// (device ids) into `sink` instead of materialising it.
    ///
    /// The returned [`EngineOutput`] carries the counters only
    /// (`paths` is empty); `num_paths` counts emissions into the sink (see
    /// `emit_result_path` for the breaking-path convention). When the
    /// sink breaks — or the [`EngineOptions::max_results`] cap is hit — the
    /// engine stops expanding immediately and
    /// [`EngineStats::early_terminated`] is set.
    pub fn run_with_sink<S: PathSink + ?Sized>(&mut self, sink: &mut S) -> EngineOutput {
        match self.opts.max_results {
            // A zero cap short-circuits: nothing may reach the sink.
            Some(0) => {
                self.stats.early_terminated = true;
                self.take_output()
            }
            Some(n) => {
                let mut capped = FirstN::new(n, sink);
                self.run_inner(&mut capped)
            }
            None => self.run_inner(sink),
        }
    }

    /// The Algorithm 1 loop, generic over the result consumer.
    fn run_inner<S: PathSink + ?Sized>(&mut self, sink: &mut S) -> EngineOutput {
        // Trivial queries never reach the device in the real system; handle
        // them here so the engine is total.
        if self.s == self.t {
            let path = [self.s];
            if self.emit_result_path(sink, &path).is_break() {
                self.stats.early_terminated = true;
            }
            return self.take_output();
        }
        if self.k == 0 {
            return self.take_output();
        }
        // Host row width: 8 vertex slots hold a path of k <= 7 hops, the
        // range every measured workload runs in; larger k keeps the full
        // MAX_K + 1 row. It decides only how much the host copies per path;
        // the simulated rows and every charge are width-blind.
        if self.k <= 7 {
            self.enumerate::<8, S>(sink);
        } else {
            self.enumerate::<{ MAX_K + 1 }, S>(sink);
        }
        // One final poll so a fault raised during the last batch (or the
        // result DMA) is reported on the run, not silently dropped.
        self.poll_device_fault();
        self.take_output()
    }

    /// Lines 2-15 of Algorithm 1 with `W`-wide host path rows.
    fn enumerate<const W: usize, S: PathSink + ?Sized>(&mut self, sink: &mut S) {
        let mut areas = PathAreas::<W> { buffer: VecDeque::new(), dram: Vec::new() };
        let mut budget = BudgetIndex::new(self.barrier, self.t, self.k, self.graph.num_vertices());
        // Line 2: P'.push({s}).
        let mut processing: Vec<TempPath<W>> = Vec::new();
        let mut initial = TempPath::initial(self.graph, self.s);
        // The initial path may itself exceed the processing capacity (a super
        // node source); split it exactly like any buffered path.
        while let Some(copy) = initial.take_window(self.opts.processing_capacity) {
            if processing.is_empty() {
                processing.push(copy);
            } else {
                // Remaining windows go to the buffer to be scheduled later.
                areas.buffer.push_back(copy);
            }
        }
        self.device.charge_cycles(1);

        // Lines 3-15: expand, verify, write back, fetch next batch. The
        // processing-area vector is reused across batches, so the loop
        // allocates nothing once the buffers reached their high-water marks.
        while !processing.is_empty() {
            // Co-operative cancellation boundary: a host that abandoned the
            // query (dropped ticket, disconnected client) flips the token and
            // the engine stops before fetching another batch.
            if self.opts.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                self.stats.cancelled = true;
                self.stats.early_terminated = true;
                break;
            }
            // Fault boundary: a transfer checksum latched a fault (DRAM
            // corruption, PCIe error, crashed CU) — abort instead of
            // expanding from potentially corrupted state. Polled in the same
            // place as cancellation so a faulted batch never emits further
            // results.
            if self.poll_device_fault() {
                break;
            }
            self.stats.batches += 1;
            if self.process_batch(&mut areas, &mut budget, &processing, sink).is_break() {
                self.stats.early_terminated = true;
                break;
            }
            self.next_batch(&mut areas, &mut processing);
        }
    }

    /// Checks the device's fault latch and the simulated-cycle watchdog.
    /// Returns `true` (and records the fault) when the run must abort.
    fn poll_device_fault(&mut self) -> bool {
        if self.stats.device_fault.is_some() {
            return true;
        }
        let event = self.device.pending_fault().or_else(|| {
            let budget = self.opts.cycle_budget?;
            (self.device.cycles() > budget)
                .then(|| self.device.raise_fault(pefp_fpga::FaultKind::CuHang))
        });
        if let Some(event) = event {
            self.stats.device_fault = Some(event);
            self.stats.early_terminated = true;
            return true;
        }
        false
    }

    /// Expands and verifies one batch from the processing area.
    ///
    /// The functional work (successor lookup, three-stage verification, result
    /// emission, buffer writes) is done in software, barrier check first: a
    /// window's survivors of [`verify::within_budget`] are read 64 edges at a
    /// time from its row's hop-budget bitmap (`scan::BudgetIndex`, built on
    /// the row's first scan in the run), and only they take the target and
    /// visited checks; the barrier-pruned edges are counted, not visited. The
    /// device is charged a *throughput-oriented* schedule: all inputs of the
    /// batch stream through the replicated, pipelined expansion/verification
    /// lanes, pruned or not, BRAM-resident data feeds the pipeline without
    /// serial cost (its latency sits in the pipeline depth), and only the
    /// accesses that genuinely leave the chip — uncached graph/barrier
    /// lookups (as an initiation-interval stall), intermediate paths written
    /// to DRAM, and result paths shipped to the host — appear as extra DRAM
    /// cost.
    /// Returns [`ControlFlow::Break`] when the sink terminated the
    /// enumeration; the device is still charged for the work performed up to
    /// that point.
    fn process_batch<const W: usize, S: PathSink + ?Sized>(
        &mut self,
        areas: &mut PathAreas<W>,
        budget: &mut BudgetIndex<'_>,
        batch: &[TempPath<W>],
        sink: &mut S,
    ) -> ControlFlow<()> {
        let graph = self.graph;
        let mut flow = ControlFlow::Continue(());
        let mut total_inputs: u64 = 0;
        let mut result_words: u64 = 0;
        let mut dram_intermediate_words: u64 = 0;

        for path in batch {
            let window = path.window_start()..path.window_end();
            let window_len = (window.end - window.start) as u64;
            if window_len == 0 {
                continue;
            }
            total_inputs += window_len;
            let head = path.last();
            let row_start = graph.neighbor_range(head).start;
            // Traffic bookkeeping for the graph/barrier lookups; their timing
            // impact is folded into the pipeline initiation interval below.
            if self.layout.graph_cached {
                self.device.note_cache_hits(1);
            } else {
                self.device.note_cache_misses(1, window_len);
                // Under banked charging the row fetch is timed at its
                // *placed* address: the start bank decides whether this
                // burst conflicts with the previous one. The base fetch
                // latency stays folded into the pipeline initiation
                // interval below; only the bank stall is charged here.
                if let Some(placement) = &self.placement {
                    let addr = placement.row_address(head) + u64::from(window.start - row_start);
                    self.device.charge_placed_row_fetch(addr, window_len);
                }
            }
            if self.layout.barrier_cached {
                self.device.note_cache_hits(window_len);
            } else {
                self.device.note_cache_misses(window_len, window_len);
            }

            // Stage one yields the window's edges within the hop budget;
            // only they take the target and visited checks. The window's
            // counters are settled after its loop: a sink break counts the
            // edges up to and including the breaking one.
            let row = graph.successors(head);
            let local = (window.start - row_start) as usize..(window.end - row_start) as usize;
            let remaining = self.k.saturating_sub(path.hops());
            let mut scan = budget.scan(head, row, local, remaining);
            let mut pruned_visited = 0u64;
            for pos in &mut scan {
                let nbr = row[pos];
                match verify::survivor_verdict(path, nbr, self.t) {
                    Verdict::Result => {
                        // Reuse the emission buffer: no allocation per result.
                        let mut full = std::mem::take(&mut self.emit_buf);
                        full.clear();
                        full.extend_from_slice(path.vertices());
                        full.push(nbr);
                        result_words += full.len() as u64;
                        let emitted = self.emit_result_path(sink, &full);
                        self.emit_buf = full;
                        if emitted.is_break() {
                            flow = ControlFlow::Break(());
                            break;
                        }
                    }
                    Verdict::Valid => {
                        dram_intermediate_words += self.push_intermediate(areas, path, nbr);
                    }
                    Verdict::PrunedVisited => pruned_visited += 1,
                    Verdict::PrunedBarrier => unreachable!("survivors passed the barrier"),
                }
            }
            let (expansions, pruned_barrier) = scan.settle(flow.is_break());
            self.stats.expansions += expansions;
            self.stats.pruned_by_barrier += pruned_barrier;
            self.stats.pruned_by_visited += pruned_visited;
            if flow.is_break() {
                break;
            }
        }

        // Compute schedule: the batch streams through the replicated lanes.
        let lanes = self.device.verification_lanes() as u64;
        let lane_iterations = total_inputs.div_ceil(lanes.max(1));
        let memory_stall_ii = if self.layout.graph_cached && self.layout.barrier_cached {
            1
        } else {
            self.device.config().dram_read_latency
        };
        verify::charge_expansion_schedule(
            &mut self.device,
            self.opts.verification,
            lane_iterations,
            memory_stall_ii,
        );

        // Off-chip writes produced by this batch, issued as contiguous bursts.
        if result_words > 0 {
            self.device.charge_write(pefp_fpga::MemoryKind::Dram, result_words);
        }
        if dram_intermediate_words > 0 {
            self.device.charge_write(pefp_fpga::MemoryKind::Dram, dram_intermediate_words);
        }
        flow
    }

    /// Emits one result path (device ids) into the sink. The DRAM write that
    /// ships results back to the host is charged per batch by
    /// [`Self::process_batch`].
    ///
    /// `stats.results` counts emission *attempts*: when the sink breaks, the
    /// breaking path is included in the count (for a `FirstN(n >= 1)` cap the
    /// n-th path is both delivered and the break). A sink that refuses its
    /// very first path (a saturated `FirstN(0)`) therefore still counts one
    /// emission; the `max_results: Some(0)` cap is special-cased in
    /// [`Self::run_with_sink`] so the built-in path never hits that edge.
    fn emit_result_path<S: PathSink + ?Sized>(
        &mut self,
        sink: &mut S,
        path: &[VertexId],
    ) -> ControlFlow<()> {
        self.stats.results += 1;
        sink.emit(path)
    }

    /// Writes the freshly validated intermediate path `parent · v` to the
    /// buffer area, spilling to DRAM when the buffer is full (Algorithm 1,
    /// lines 12-14). The path is built in its destination slot, so the row is
    /// copied once.
    ///
    /// Returns the number of words this push sent directly to DRAM (non-zero
    /// only when intermediate-path caching is disabled), so the caller can
    /// charge the transfer as one burst per batch.
    fn push_intermediate<const W: usize>(
        &mut self,
        areas: &mut PathAreas<W>,
        parent: &TempPath<W>,
        v: VertexId,
    ) -> u64 {
        self.stats.intermediate_paths += 1;
        if !self.layout.paths_in_bram {
            // No caching of intermediate paths: everything lives in DRAM.
            areas.dram.push(*parent);
            let path = areas.dram.last_mut().expect("a path was just pushed");
            path.push(self.graph, v);
            let words = path.words();
            self.stats.peak_dram_paths = self.stats.peak_dram_paths.max(areas.dram.len());
            return words;
        }
        if areas.buffer.len() >= self.opts.buffer_capacity {
            self.flush_buffer(areas);
        }
        areas.buffer.push_back(*parent);
        areas.buffer.back_mut().expect("a path was just pushed").push(self.graph, v);
        self.stats.peak_buffer_paths = self.stats.peak_buffer_paths.max(areas.buffer.len());
        0
    }

    /// Flushes part of the buffer area to DRAM. Batch-DFS keeps the newest
    /// (longest) paths on-chip and spills the oldest; FIFO keeps the oldest
    /// and spills the newest, consistent with its processing order.
    fn flush_buffer<const W: usize>(&mut self, areas: &mut PathAreas<W>) {
        let to_flush = (self.opts.buffer_capacity / 2).max(1);
        let mut words = 0u64;
        for _ in 0..to_flush.min(areas.buffer.len()) {
            let p = match self.opts.batch_strategy {
                BatchStrategy::LongestFirst => areas.buffer.pop_front(),
                BatchStrategy::Fifo => areas.buffer.pop_back(),
            };
            let Some(p) = p else { break };
            words += p.words();
            areas.dram.push(p);
        }
        self.device.charge_buffer_flush(words);
        self.stats.peak_dram_paths = self.stats.peak_dram_paths.max(areas.dram.len());
    }

    fn take_output(&mut self) -> EngineOutput {
        EngineOutput { paths: Vec::new(), num_paths: self.stats.results, stats: self.stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::VerificationPipeline;
    use crate::preprocess::prepare_csr;
    use pefp_fpga::DeviceConfig;
    use pefp_graph::paths::{canonicalize, validate_result};

    fn run_engine(g: &CsrGraph, s: u32, t: u32, k: u32, opts: EngineOptions) -> EngineOutput {
        let prep = prepare_csr(g, VertexId(s), VertexId(t), k);
        let device = Device::new(DeviceConfig::alveo_u200());
        let mut engine =
            PefpEngine::new(&prep.graph, &prep.barrier, prep.s, prep.t, k, opts, device);
        let mut out = engine.run();
        // Translate back to original ids for comparison.
        out.paths = out.paths.iter().map(|p| prep.translate_path(p)).collect();
        out
    }

    #[test]
    fn diamond_enumeration() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let out = run_engine(&g, 0, 3, 3, EngineOptions::default());
        assert_eq!(out.num_paths, 2);
        assert!(validate_result(&g, VertexId(0), VertexId(3), 3, &out.paths).is_empty());
    }

    #[test]
    fn matches_naive_dfs_on_random_graphs() {
        use pefp_baselines::naive_dfs_enumerate;
        for seed in 0..3u64 {
            let g = pefp_graph::generators::chung_lu(80, 4.0, 2.2, seed + 500).to_csr();
            for &(s, t, k) in &[(0u32, 17u32, 4u32), (3, 60, 5)] {
                let out = run_engine(&g, s, t, k, EngineOptions::default());
                let expected = canonicalize(naive_dfs_enumerate(&g, VertexId(s), VertexId(t), k));
                assert_eq!(canonicalize(out.paths), expected, "seed {seed} query ({s},{t},{k})");
            }
        }
    }

    #[test]
    fn all_option_combinations_agree() {
        use pefp_baselines::naive_dfs_enumerate;
        let g = pefp_graph::generators::chung_lu(70, 5.0, 2.1, 42).to_csr();
        let (s, t, k) = (1u32, 30u32, 5u32);
        let expected = canonicalize(naive_dfs_enumerate(&g, VertexId(s), VertexId(t), k));
        for strategy in [BatchStrategy::LongestFirst, BatchStrategy::Fifo] {
            for cache in [true, false] {
                for pipeline in [VerificationPipeline::Basic, VerificationPipeline::Dataflow] {
                    let opts = EngineOptions {
                        batch_strategy: strategy,
                        use_cache: cache,
                        verification: pipeline,
                        processing_capacity: 16,
                        buffer_capacity: 32,
                        dram_fetch_batch: 16,
                        collect_paths: true,
                        max_results: None,
                        cancel: None,
                        cycle_budget: None,
                        bank_placement: pefp_graph::PlacementPolicy::Natural,
                    };
                    let out = run_engine(&g, s, t, k, opts);
                    assert_eq!(
                        canonicalize(out.paths),
                        expected,
                        "strategy {strategy:?} cache {cache} pipeline {pipeline:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn tiny_capacities_force_spills_but_keep_correctness() {
        use pefp_baselines::naive_dfs_enumerate;
        let g = pefp_graph::generators::chung_lu(100, 6.0, 2.1, 77).to_csr();
        let (s, t, k) = (0u32, 40u32, 5u32);
        let opts = EngineOptions {
            processing_capacity: 4,
            buffer_capacity: 8,
            dram_fetch_batch: 8,
            ..EngineOptions::default()
        };
        let out = run_engine(&g, s, t, k, opts);
        let expected = canonicalize(naive_dfs_enumerate(&g, VertexId(s), VertexId(t), k));
        assert_eq!(canonicalize(out.paths), expected);
    }

    #[test]
    fn counting_mode_reports_without_materialising() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let opts = EngineOptions { collect_paths: false, ..EngineOptions::default() };
        let out = run_engine(&g, 0, 3, 3, opts);
        assert_eq!(out.num_paths, 2);
        assert!(out.paths.is_empty());
    }

    #[test]
    fn sink_run_matches_collect_run() {
        let g = pefp_graph::generators::chung_lu(120, 6.0, 2.1, 99).to_csr();
        let prep = prepare_csr(&g, VertexId(0), VertexId(60), 5);
        let collected = {
            let device = Device::new(DeviceConfig::alveo_u200());
            let mut engine = PefpEngine::new(
                &prep.graph,
                &prep.barrier,
                prep.s,
                prep.t,
                prep.k,
                EngineOptions::default(),
                device,
            );
            engine.run()
        };
        let mut sink = pefp_graph::CollectSink::new();
        let streamed = {
            let device = Device::new(DeviceConfig::alveo_u200());
            let mut engine = PefpEngine::new(
                &prep.graph,
                &prep.barrier,
                prep.s,
                prep.t,
                prep.k,
                EngineOptions::default(),
                device,
            );
            engine.run_with_sink(&mut sink)
        };
        assert_eq!(sink.into_paths(), collected.paths);
        assert_eq!(streamed.num_paths, collected.num_paths);
        assert_eq!(streamed.stats, collected.stats);
        assert!(streamed.paths.is_empty(), "sink runs never materialise internally");
    }

    #[test]
    fn first_n_sink_terminates_the_engine_early() {
        use pefp_graph::{CollectSink, FirstN};
        // A dense layered DAG with 4^5 = 1024 result paths.
        let g = pefp_graph::generators::layered_dag(5, 4, 4, 1).to_csr();
        let s = pefp_graph::generators::layered_source();
        let t = pefp_graph::generators::layered_sink(5, 4);
        let opts = EngineOptions {
            processing_capacity: 16,
            buffer_capacity: 32,
            dram_fetch_batch: 16,
            ..EngineOptions::default()
        };
        let prep = prepare_csr(&g, s, t, 6);
        let full = {
            let device = Device::new(DeviceConfig::alveo_u200());
            let mut engine = PefpEngine::new(
                &prep.graph,
                &prep.barrier,
                prep.s,
                prep.t,
                prep.k,
                opts.clone(),
                device,
            );
            engine.run()
        };
        assert_eq!(full.num_paths, 1024);
        assert!(!full.stats.early_terminated);

        let mut sink = FirstN::new(3, CollectSink::new());
        let capped = {
            let device = Device::new(DeviceConfig::alveo_u200());
            let mut engine =
                PefpEngine::new(&prep.graph, &prep.barrier, prep.s, prep.t, prep.k, opts, device);
            engine.run_with_sink(&mut sink)
        };
        assert_eq!(capped.num_paths, 3);
        assert!(capped.stats.early_terminated);
        // The first 3 paths in enumeration order, exactly.
        assert_eq!(sink.into_inner().paths(), &full.paths[..3]);
        assert!(
            capped.stats.batches < full.stats.batches,
            "early termination must skip batches ({} vs {})",
            capped.stats.batches,
            full.stats.batches
        );
        assert!(capped.stats.expansions < full.stats.expansions);
    }

    #[test]
    fn max_results_option_caps_via_first_n() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let opts = EngineOptions { max_results: Some(1), ..EngineOptions::default() };
        let out = run_engine(&g, 0, 3, 3, opts);
        assert_eq!(out.num_paths, 1);
        assert_eq!(out.paths.len(), 1);
        assert!(out.stats.early_terminated);

        // A zero cap emits nothing at all.
        let opts = EngineOptions { max_results: Some(0), ..EngineOptions::default() };
        let out = run_engine(&g, 0, 3, 3, opts);
        assert_eq!(out.num_paths, 0);
        assert!(out.paths.is_empty());
        assert!(out.stats.early_terminated);
        assert_eq!(out.stats.expansions, 0, "a zero cap must not expand anything");
    }

    #[test]
    fn cancel_token_stops_the_engine_between_batches() {
        use crate::options::CancelToken;
        use pefp_graph::sink::FnSink;
        // A dense layered DAG with 4^5 = 1024 result paths, small batches so
        // there are many batch boundaries to cancel at.
        let g = pefp_graph::generators::layered_dag(5, 4, 4, 1).to_csr();
        let s = pefp_graph::generators::layered_source();
        let t = pefp_graph::generators::layered_sink(5, 4);
        let prep = prepare_csr(&g, s, t, 6);
        let token = CancelToken::new();
        let opts = EngineOptions {
            processing_capacity: 8,
            buffer_capacity: 16,
            dram_fetch_batch: 8,
            cancel: Some(token.clone()),
            ..EngineOptions::default()
        };
        let mut emitted = 0u64;
        let mut sink = FnSink(|_path: &[VertexId]| {
            emitted += 1;
            if emitted == 1 {
                // Cancel from "another thread": the engine keeps emitting for
                // the rest of this batch, then stops at the boundary.
                token.cancel();
            }
            ControlFlow::Continue(())
        });
        let out = {
            let device = Device::new(DeviceConfig::alveo_u200());
            let mut engine =
                PefpEngine::new(&prep.graph, &prep.barrier, prep.s, prep.t, prep.k, opts, device);
            engine.run_with_sink(&mut sink)
        };
        assert!(out.stats.cancelled);
        assert!(out.stats.early_terminated);
        assert!(out.num_paths < 1024, "cancellation must stop the enumeration early");
        // An uncancelled token leaves the run untouched.
        let opts = EngineOptions { cancel: Some(CancelToken::new()), ..EngineOptions::default() };
        let out = run_engine(&g, s.0, t.0, 6, opts);
        assert_eq!(out.num_paths, 1024);
        assert!(!out.stats.cancelled);
    }

    #[test]
    fn dram_fault_aborts_the_run_at_a_batch_boundary() {
        use pefp_fpga::{FaultKind, FaultPlan, ScriptedFault};
        let g = pefp_graph::generators::layered_dag(5, 4, 4, 1).to_csr();
        let s = pefp_graph::generators::layered_source();
        let t = pefp_graph::generators::layered_sink(5, 4);
        let prep = prepare_csr(&g, s, t, 6);
        let plan = FaultPlan::scripted(1);
        plan.push_script(0, ScriptedFault { after_ops: 3, kind: FaultKind::DramCorruption });
        let mut device = Device::new(DeviceConfig::alveo_u200());
        device.attach_fault_injector(plan.injector_for(0));
        let opts = EngineOptions {
            processing_capacity: 8,
            buffer_capacity: 16,
            dram_fetch_batch: 8,
            ..EngineOptions::default()
        };
        let mut engine =
            PefpEngine::new(&prep.graph, &prep.barrier, prep.s, prep.t, prep.k, opts, device);
        let out = engine.run();
        let fault = out.stats.device_fault.expect("the checksum fault must be observed");
        assert_eq!(fault.kind, FaultKind::DramCorruption);
        assert!(out.stats.early_terminated);
        assert!(out.num_paths < 1024, "the run aborted before enumerating everything");
        assert_eq!(engine.device_report().fault, Some(fault));
    }

    #[test]
    fn cycle_watchdog_raises_a_hang_fault() {
        use pefp_fpga::{FaultPlan, FaultRates};
        let g = pefp_graph::generators::layered_dag(5, 4, 4, 1).to_csr();
        let s = pefp_graph::generators::layered_source();
        let t = pefp_graph::generators::layered_sink(5, 4);
        let prep = prepare_csr(&g, s, t, 6);
        // Every DRAM refill stalls for far longer than the budget: the CU
        // stops making progress and the watchdog must catch it.
        let rates = FaultRates { cu_stall: 1.0, stall_cycles: 10_000_000, ..FaultRates::NONE };
        let plan = FaultPlan::seeded(5, rates, 1);
        let mut device = Device::new(DeviceConfig::alveo_u200());
        device.attach_fault_injector(plan.injector_for(0));
        let opts = EngineOptions { cycle_budget: Some(1_000_000), ..EngineOptions::default() };
        let mut engine =
            PefpEngine::new(&prep.graph, &prep.barrier, prep.s, prep.t, prep.k, opts, device);
        let out = engine.run();
        let fault = out.stats.device_fault.expect("watchdog must trip");
        assert_eq!(fault.kind, pefp_fpga::FaultKind::CuHang);
        assert!(out.stats.early_terminated);
        // A generous budget on a healthy device never trips.
        let device = Device::new(DeviceConfig::alveo_u200());
        let opts = EngineOptions { cycle_budget: Some(u64::MAX), ..EngineOptions::default() };
        let mut engine =
            PefpEngine::new(&prep.graph, &prep.barrier, prep.s, prep.t, prep.k, opts, device);
        let out = engine.run();
        assert!(out.stats.device_fault.is_none());
        assert_eq!(out.num_paths, 1024);
    }

    #[test]
    fn trivial_queries() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let out = run_engine(&g, 1, 1, 3, EngineOptions::default());
        assert_eq!(out.num_paths, 1);
        let out = run_engine(&g, 0, 2, 0, EngineOptions::default());
        assert_eq!(out.num_paths, 0);
    }

    #[test]
    fn trivial_query_honours_the_sink_break() {
        // A capped trivial (s == t) query is flagged as cut short exactly
        // like a capped non-trivial one.
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let opts = EngineOptions { max_results: Some(1), ..EngineOptions::default() };
        let out = run_engine(&g, 1, 1, 3, opts);
        assert_eq!(out.num_paths, 1);
        assert!(out.stats.early_terminated);
        let out =
            run_engine(&g, 1, 1, 3, EngineOptions { max_results: Some(5), ..Default::default() });
        assert_eq!(out.num_paths, 1);
        assert!(!out.stats.early_terminated);
    }

    #[test]
    fn stats_track_pruning_and_batches() {
        let g = pefp_graph::generators::chung_lu(120, 6.0, 2.1, 13).to_csr();
        let out = run_engine(&g, 0, 50, 4, EngineOptions::default());
        let s = out.stats;
        assert!(s.batches >= 1);
        assert_eq!(
            s.expansions,
            s.results + s.intermediate_paths + s.pruned_by_barrier + s.pruned_by_visited
        );
        assert_eq!(s.results, out.num_paths);
    }

    #[test]
    fn a_zero_barrier_grows_paths_to_k_hops_in_both_host_widths() {
        // A caller's barrier need not be a distance: all zeros prune nothing
        // below the hop budget, so intermediate paths reach k hops (k + 1
        // vertices), the most a host row ever holds.
        let n = MAX_K + 3;
        let chain: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        let g = CsrGraph::from_edges(n, &chain);
        let barrier = vec![0; n];
        let t = VertexId(n as u32 - 1);
        for k in [7, 8, MAX_K as u32] {
            let device = Device::new(DeviceConfig::alveo_u200());
            let opts = EngineOptions::default();
            let out = PefpEngine::new(&g, &barrier, VertexId(0), t, k, opts, device).run();
            assert_eq!(out.num_paths, 0);
            assert_eq!(out.stats.intermediate_paths, u64::from(k), "k {k}");
            assert_eq!(out.stats.pruned_by_barrier, 1, "only the hop past k is pruned");
        }
    }

    #[test]
    fn an_early_stopping_whole_graph_run_indexes_only_the_rows_it_scans() {
        use crate::{prepare_snapshot_with, PefpVariant, PrepareContext};
        use pefp_graph::GraphSnapshot;
        // The NoPreBfs ablation ships the whole 100 k-vertex graph; a
        // `FirstN(1)` run between two hubs stops after a few batches.
        let csr = pefp_graph::generators::chung_lu(100_000, 8.0, 2.2, 3).to_csr();
        let snapshot = GraphSnapshot::from_csr(csr);
        let variant = PefpVariant::NoPreBfs;
        let mut ctx = PrepareContext::new();
        let prep = prepare_snapshot_with(&mut ctx, &snapshot, VertexId(0), VertexId(1), 7, variant);
        assert_eq!(prep.graph.num_vertices(), 100_000);
        let opts = EngineOptions { max_results: Some(1), ..variant.engine_options() };
        let device = Device::new(DeviceConfig::alveo_u200());
        let before = scan::INDEXED_ROWS.with(|n| n.get());
        let out =
            PefpEngine::new(&prep.graph, &prep.barrier, prep.s, prep.t, prep.k, opts, device).run();
        let indexed = scan::INDEXED_ROWS.with(|n| n.get()) - before;
        assert_eq!(out.num_paths, 1);
        assert!(out.stats.early_terminated);
        // Every indexed row heads an expanded path: the source's or an
        // intermediate path's.
        assert!(indexed > 0);
        assert!(
            indexed as u64 <= 1 + out.stats.intermediate_paths,
            "{indexed} rows indexed for {} intermediate paths",
            out.stats.intermediate_paths
        );
        assert!(indexed < 1_000, "{indexed} of 100 000 rows indexed");
    }

    #[test]
    fn placement_heat_reads_the_barrier_through_the_budget_check() {
        // 0 -> 1 -> 2 (= t) -> 3, and 0 -> 4. The caller's barrier leaves 4
        // (and t's own entry) UNREACHED and puts 3 out of reach.
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (0, 4)]);
        let barrier = [2, 1, u32::MAX, 5, u32::MAX];
        let heat = placement_heat(&g, &barrier, VertexId(0), VertexId(2), 3);
        assert_eq!(heat, [1.0, 1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn banked_placement_accepts_an_unreached_caller_barrier() {
        use pefp_fpga::{ArbiterHandle, DramArbiter, DramBanks, Interleaving};
        use std::sync::Arc;
        // Banked charging with the graph in DRAM is the one configuration
        // that plans placement heat from the caller's barrier.
        let banks = DramBanks::new(4, 8, 8, 8, Interleaving::RoundRobin);
        let arbiter = Arc::new(DramArbiter::with_banks_charged(0.5, banks));
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (0, 4)]);
        let barrier = [2, 1, u32::MAX, 5, u32::MAX];
        let mut device = Device::new(DeviceConfig::alveo_u200());
        device.attach_arbiter(ArbiterHandle::new(arbiter, 0));
        let opts = EngineOptions { use_cache: false, ..EngineOptions::default() };
        let mut engine = PefpEngine::new(&g, &barrier, VertexId(0), VertexId(2), 3, opts, device);
        assert!(engine.placement.is_some());
        let out = engine.run();
        assert_eq!(out.num_paths, 1);
        assert_eq!(out.stats.pruned_by_barrier, 1, "only 0 -> 4 is out of reach");
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_K")]
    fn k_beyond_max_is_rejected() {
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        let barrier = vec![0, 0];
        let device = Device::new(DeviceConfig::alveo_u200());
        let _ = PefpEngine::new(
            &g,
            &barrier,
            VertexId(0),
            VertexId(1),
            99,
            EngineOptions::default(),
            device,
        );
    }

    #[test]
    #[should_panic(expected = "barrier array")]
    fn short_barrier_is_rejected() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let barrier = vec![0];
        let device = Device::new(DeviceConfig::alveo_u200());
        let _ = PefpEngine::new(
            &g,
            &barrier,
            VertexId(0),
            VertexId(2),
            2,
            EngineOptions::default(),
            device,
        );
    }
}
