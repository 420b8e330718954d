//! Batch scheduling: `NextBatch` (Algorithm 3) and `Batch-DFS` (Algorithm 4).
//!
//! The buffer area `P` is treated as a stack. Batch-DFS always fills the
//! processing area from the *top* of that stack — the most recently produced,
//! i.e. longest, paths — because longer paths have stronger barrier pruning
//! and therefore generate the fewest new intermediate paths (Observation 1 /
//! Table III of the paper). Each fetched path hands over a *window* of at most
//! `Θ2 - cnt` successors, so a super node can be spread across several
//! batches without overflowing the processing area.
//!
//! The FIFO strategy (used by the Fig. 13 ablation) is identical except that
//! it fetches from the *bottom* of the stack — the oldest, shortest paths.

use super::{PathAreas, PefpEngine};
use crate::options::BatchStrategy;
use crate::path::TempPath;

impl PefpEngine<'_> {
    /// `NextBatch(P, PD)` — Algorithm 3.
    ///
    /// Fills `batch` (cleared first) with the next processing-area batch,
    /// refilling the buffer from DRAM when it has run dry; the caller reuses
    /// the vector across batches so steady state allocates nothing. An empty
    /// `batch` on return terminates the engine loop.
    pub(super) fn next_batch<const W: usize>(
        &mut self,
        areas: &mut PathAreas<W>,
        batch: &mut Vec<TempPath<W>>,
    ) {
        batch.clear();
        if areas.buffer.is_empty() {
            if areas.dram.is_empty() {
                return;
            }
            self.refill_buffer_from_dram(areas);
        }
        self.fill_processing_area(areas, batch)
    }

    /// Fetches Θ1 paths from the tail of the DRAM path set into the buffer
    /// area (Algorithm 3, line 8). Reading from the tail keeps the transfer
    /// contiguous, matching the paper's fragmentation-avoidance argument.
    fn refill_buffer_from_dram<const W: usize>(&mut self, areas: &mut PathAreas<W>) {
        let n = self.opts.dram_fetch_batch.min(areas.dram.len());
        let start = areas.dram.len() - n;
        let words: u64 = areas.dram[start..].iter().map(TempPath::words).sum();
        self.device.charge_dram_batch_fetch(words);
        // Drain in place: no intermediate vector per refill.
        areas.buffer.extend(areas.dram.drain(start..));
    }

    /// `Batch-DFS(P, Θ2)` — Algorithm 4 — or its FIFO counterpart.
    fn fill_processing_area<const W: usize>(
        &mut self,
        areas: &mut PathAreas<W>,
        batch: &mut Vec<TempPath<W>>,
    ) {
        let mut cnt: u32 = 0;
        let theta2 = self.opts.processing_capacity;
        let strategy = self.opts.batch_strategy;
        while cnt < theta2 {
            // Select the next donor path according to the batching strategy.
            let donor = match strategy {
                BatchStrategy::LongestFirst => areas.buffer.back_mut(),
                BatchStrategy::Fifo => areas.buffer.front_mut(),
            };
            let Some(donor) = donor else { break };
            match donor.take_window(theta2 - cnt) {
                Some(slice) => {
                    cnt += slice.window_len();
                    let exhausted = donor.window_exhausted();
                    self.charge_batch_path_move(&slice);
                    batch.push(slice);
                    if exhausted {
                        pop_donor(areas, strategy);
                    }
                }
                None => {
                    // Paths with no successors left contribute nothing; drop them.
                    pop_donor(areas, strategy);
                }
            }
        }
    }

    /// Charges moving one path row from the buffer area into the processing
    /// area. BRAM→BRAM moves are fully overlapped with the pipeline (their
    /// latency is part of the pipeline depth), so only the DRAM case — the
    /// No-Cache configuration where the buffer itself lives off-chip — costs
    /// extra cycles.
    fn charge_batch_path_move<const W: usize>(&mut self, path: &TempPath<W>) {
        if !self.layout.paths_in_bram {
            self.device.charge_read(pefp_fpga::MemoryKind::Dram, path.words());
        }
    }
}

fn pop_donor<const W: usize>(areas: &mut PathAreas<W>, strategy: BatchStrategy) {
    match strategy {
        BatchStrategy::LongestFirst => areas.buffer.pop_back(),
        BatchStrategy::Fifo => areas.buffer.pop_front(),
    };
}

#[cfg(test)]
mod tests {
    use crate::engine::PefpEngine;
    use crate::options::{BatchStrategy, EngineOptions};
    use crate::preprocess::prepare_csr;
    use pefp_fpga::{Device, DeviceConfig};
    use pefp_graph::generators::chung_lu;
    use pefp_graph::paths::canonicalize;
    use pefp_graph::{CsrGraph, VertexId};

    fn run_with(
        g: &CsrGraph,
        s: u32,
        t: u32,
        k: u32,
        opts: EngineOptions,
    ) -> (Vec<Vec<VertexId>>, pefp_fpga::DeviceReport, crate::result::EngineStats) {
        let prep = prepare_csr(g, VertexId(s), VertexId(t), k);
        let device = Device::new(DeviceConfig::alveo_u200());
        let mut engine =
            PefpEngine::new(&prep.graph, &prep.barrier, prep.s, prep.t, k, opts, device);
        let out = engine.run();
        let report = engine.device_report();
        let paths = out.paths.iter().map(|p| prep.translate_path(p)).collect();
        (paths, report, out.stats)
    }

    #[test]
    fn batch_dfs_and_fifo_return_identical_results() {
        let g = chung_lu(150, 6.0, 2.1, 21).to_csr();
        let (s, t, k) = (0u32, 70u32, 5u32);
        let dfs_opts = EngineOptions {
            batch_strategy: BatchStrategy::LongestFirst,
            processing_capacity: 8,
            buffer_capacity: 16,
            dram_fetch_batch: 16,
            ..EngineOptions::default()
        };
        let fifo_opts = EngineOptions { batch_strategy: BatchStrategy::Fifo, ..dfs_opts.clone() };
        let (a, _, _) = run_with(&g, s, t, k, dfs_opts);
        let (b, _, _) = run_with(&g, s, t, k, fifo_opts);
        assert_eq!(canonicalize(a), canonicalize(b));
    }

    #[test]
    fn batch_dfs_keeps_the_intermediate_population_smaller() {
        // A dense graph with a tight buffer: the FIFO order explodes the
        // intermediate path population (it expands all short paths first),
        // while Batch-DFS drives paths to completion depth-first.
        let g = chung_lu(200, 8.0, 2.1, 5).to_csr();
        let (s, t, k) = (0u32, 90u32, 5u32);
        let base = EngineOptions {
            processing_capacity: 16,
            buffer_capacity: 64,
            dram_fetch_batch: 32,
            collect_paths: false,
            ..EngineOptions::default()
        };
        let dfs_opts =
            EngineOptions { batch_strategy: BatchStrategy::LongestFirst, ..base.clone() };
        let fifo_opts = EngineOptions { batch_strategy: BatchStrategy::Fifo, ..base };
        let (_, _, dfs_stats) = run_with(&g, s, t, k, dfs_opts);
        let (_, _, fifo_stats) = run_with(&g, s, t, k, fifo_opts);
        assert!(
            dfs_stats.peak_buffer_paths + dfs_stats.peak_dram_paths
                <= fifo_stats.peak_buffer_paths + fifo_stats.peak_dram_paths,
            "Batch-DFS peak {} + {} should not exceed FIFO peak {} + {}",
            dfs_stats.peak_buffer_paths,
            dfs_stats.peak_dram_paths,
            fifo_stats.peak_buffer_paths,
            fifo_stats.peak_dram_paths
        );
    }

    #[test]
    fn batch_dfs_causes_fewer_dram_spills_than_fifo() {
        let g = chung_lu(200, 8.0, 2.1, 9).to_csr();
        let (s, t, k) = (1u32, 80u32, 5u32);
        let base = EngineOptions {
            processing_capacity: 16,
            buffer_capacity: 32,
            dram_fetch_batch: 32,
            collect_paths: false,
            ..EngineOptions::default()
        };
        let dfs_opts =
            EngineOptions { batch_strategy: BatchStrategy::LongestFirst, ..base.clone() };
        let fifo_opts = EngineOptions { batch_strategy: BatchStrategy::Fifo, ..base };
        let (_, dfs_report, _) = run_with(&g, s, t, k, dfs_opts);
        let (_, fifo_report, _) = run_with(&g, s, t, k, fifo_opts);
        assert!(
            dfs_report.counters.buffer_flushes <= fifo_report.counters.buffer_flushes,
            "Batch-DFS flushed {} times, FIFO {} times",
            dfs_report.counters.buffer_flushes,
            fifo_report.counters.buffer_flushes
        );
    }

    #[test]
    fn super_node_windows_are_split_across_batches() {
        // A star source with 40 leaves, each leading to t: with Θ2 = 8 the
        // source's successor list must be split across at least 5 batches.
        let mut edges = Vec::new();
        for leaf in 1..=40u32 {
            edges.push((0, leaf));
            edges.push((leaf, 41));
        }
        let g = CsrGraph::from_edges(42, &edges);
        let opts = EngineOptions {
            processing_capacity: 8,
            buffer_capacity: 64,
            dram_fetch_batch: 32,
            ..EngineOptions::default()
        };
        let (paths, _, stats) = run_with(&g, 0, 41, 2, opts);
        assert_eq!(paths.len(), 40);
        assert!(
            stats.batches >= 5,
            "expected the star to need >= 5 batches, got {}",
            stats.batches
        );
    }
}
