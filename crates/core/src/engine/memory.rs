//! BRAM placement planning (the paper's caching techniques, Section VI-B).
//!
//! Before a query starts, the engine decides what fits in on-chip memory:
//!
//! * the CSR arrays of the (preprocessed) graph (`vertex_arr`, `edge_arr`),
//! * the barrier array (`bar_arr`),
//! * the buffer area for intermediate paths, and
//! * the processing area.
//!
//! Thanks to Pre-BFS the induced subgraph usually fits entirely — the paper
//! notes "in most cases, we can fit the whole subgraph and barrier data in
//! BRAM". When something does not fit (or caching is disabled for the
//! ablation), the engine transparently degrades to DRAM accesses, which the
//! cost model then charges at DRAM latency.

use crate::options::EngineOptions;
use crate::path::MAX_K;
use pefp_fpga::Device;
use pefp_graph::CsrGraph;
use serde::{Deserialize, Serialize};

/// Bytes occupied by one simulated path row in the buffer/processing area:
/// `MAX_K + 1` vertex slots plus length word and the two neighbour pointers,
/// for every query. The host stores a path more narrowly when `k` allows
/// (see [`crate::path`]); BRAM sizing never sees that.
pub const PATH_ROW_BYTES: usize = (MAX_K + 1 + 3) * 4;

/// Result of the placement pass: what the engine managed to keep on-chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryLayout {
    /// CSR offset + edge arrays are cached in BRAM.
    pub graph_cached: bool,
    /// Barrier array is cached in BRAM.
    pub barrier_cached: bool,
    /// The buffer area for intermediate paths lives in BRAM (false means every
    /// intermediate path goes straight to DRAM).
    pub paths_in_bram: bool,
    /// Bytes of BRAM reserved for the buffer + processing areas.
    pub path_area_bytes: usize,
    /// Bytes of BRAM reserved for the graph and barrier caches.
    pub cache_bytes: usize,
}

impl MemoryLayout {
    /// Plans the BRAM allocation for one query and reserves the regions on the
    /// device. Called once per query by the engine constructor.
    pub fn plan(device: &mut Device, graph: &CsrGraph, opts: &EngineOptions) -> MemoryLayout {
        // Start from a clean slate: the previous query's regions are released.
        device.bram_mut().release_all();

        // The processing area always lives in BRAM — it is the working set of
        // the pipeline and is sized by Θ2 (one row per in-flight path slice).
        let processing_bytes = opts.processing_capacity as usize * PATH_ROW_BYTES;
        let processing_ok = device.bram_mut().try_allocate("processing_area", processing_bytes);
        debug_assert!(processing_ok, "processing area must fit in BRAM; shrink Θ2");

        if !opts.use_cache {
            return MemoryLayout {
                graph_cached: false,
                barrier_cached: false,
                paths_in_bram: false,
                path_area_bytes: processing_bytes,
                cache_bytes: 0,
            };
        }

        let buffer_bytes = opts.buffer_capacity * PATH_ROW_BYTES;
        let paths_in_bram = device.bram_mut().try_allocate("buffer_area", buffer_bytes);

        let (offsets, targets) = graph.raw_parts();
        let graph_bytes = offsets.len() * 4 + targets.len() * 4;
        let graph_cached = device.bram_mut().try_allocate("graph_cache", graph_bytes);

        let barrier_bytes = graph.num_vertices() * 4;
        let barrier_cached = device.bram_mut().try_allocate("barrier_cache", barrier_bytes);

        MemoryLayout {
            graph_cached,
            barrier_cached,
            paths_in_bram,
            path_area_bytes: processing_bytes + if paths_in_bram { buffer_bytes } else { 0 },
            cache_bytes: if graph_cached { graph_bytes } else { 0 }
                + if barrier_cached { barrier_bytes } else { 0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pefp_fpga::DeviceConfig;
    use pefp_graph::generators::chung_lu;

    fn small_graph() -> CsrGraph {
        chung_lu(200, 5.0, 2.2, 3).to_csr()
    }

    #[test]
    fn everything_fits_on_the_u200_for_small_subgraphs() {
        let g = small_graph();
        let mut device = Device::new(DeviceConfig::alveo_u200());
        let layout = MemoryLayout::plan(&mut device, &g, &EngineOptions::default());
        assert!(layout.graph_cached);
        assert!(layout.barrier_cached);
        assert!(layout.paths_in_bram);
        assert!(device.bram().used() >= layout.cache_bytes + layout.path_area_bytes);
    }

    #[test]
    fn disabling_cache_skips_every_cache_region() {
        let g = small_graph();
        let mut device = Device::new(DeviceConfig::alveo_u200());
        let opts = EngineOptions { use_cache: false, ..EngineOptions::default() };
        let layout = MemoryLayout::plan(&mut device, &g, &opts);
        assert!(!layout.graph_cached);
        assert!(!layout.barrier_cached);
        assert!(!layout.paths_in_bram);
        assert_eq!(layout.cache_bytes, 0);
        // Only the processing area remains allocated.
        assert_eq!(device.bram().allocations().len(), 1);
    }

    #[test]
    fn tiny_devices_degrade_gracefully() {
        let g = small_graph();
        // 16 KiB of BRAM: the processing area fits only with a small Θ2, and
        // the graph cache certainly does not.
        let mut device = Device::new(DeviceConfig::tiny_for_tests());
        let opts = EngineOptions {
            processing_capacity: 32,
            buffer_capacity: 64,
            ..EngineOptions::default()
        };
        let layout = MemoryLayout::plan(&mut device, &g, &opts);
        assert!(
            !layout.graph_cached,
            "a 200-vertex CSR cannot fit in 16 KiB next to the path areas"
        );
    }

    #[test]
    fn replanning_releases_previous_regions() {
        let g = small_graph();
        let mut device = Device::new(DeviceConfig::alveo_u200());
        let _ = MemoryLayout::plan(&mut device, &g, &EngineOptions::default());
        let used_once = device.bram().used();
        let _ = MemoryLayout::plan(&mut device, &g, &EngineOptions::default());
        assert_eq!(device.bram().used(), used_once, "planning twice must not leak regions");
    }

    #[test]
    fn path_row_width_matches_temp_path_capacity() {
        assert_eq!(PATH_ROW_BYTES, (MAX_K + 4) * 4);
    }
}
