//! # pefp
//!
//! Facade crate for the PEFP reproduction ("PEFP: Efficient k-hop Constrained
//! s-t Simple Path Enumeration on FPGA", ICDE 2021). It re-exports the public
//! API of the workspace crates so applications can depend on a single crate:
//!
//! * [`graph`] — graph substrate: CSR graphs, generators, dataset catalog.
//! * [`fpga`] — the simulated FPGA device (BRAM/DRAM/PCIe/pipeline cost model).
//! * [`core`] — Pre-BFS preprocessing and the PEFP enumeration engine.
//! * [`baselines`] — CPU baselines (JOIN, BC-DFS, T-DFS, T-DFS2, HP-Index).
//! * [`workload`] — query workloads, experiment runner and figure drivers.
//!
//! The most common entry point is [`enumerate_paths`], which runs the full
//! PEFP pipeline (Pre-BFS + simulated device enumeration) and returns the
//! result paths:
//!
//! ```
//! use pefp::{enumerate_paths, graph::CsrGraph, graph::VertexId};
//!
//! let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
//! let result = enumerate_paths(&g, VertexId(0), VertexId(3), 3);
//! assert_eq!(result.num_paths, 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

/// Re-export of `pefp-graph`.
pub use pefp_graph as graph;

/// Re-export of `pefp-fpga`.
pub use pefp_fpga as fpga;

/// Re-export of `pefp-core`.
pub use pefp_core as core;

/// Re-export of `pefp-baselines`.
pub use pefp_baselines as baselines;

/// Re-export of `pefp-workload`.
pub use pefp_workload as workload;

/// Re-export of `pefp-host` (host runtime: loading, sessions, DMA, batching).
pub use pefp_host as host;

/// Re-export of `pefp-streaming` (dynamic graphs and real-time cycle detection).
pub use pefp_streaming as streaming;

use pefp_core::{prepare_snapshot_with, run_prepared_on_device, PefpRunResult, PefpVariant};
use pefp_core::{CollectSink, PrepareContext};
use pefp_fpga::{Device, DeviceConfig};
use pefp_graph::sink::PathSink;
use pefp_graph::{CsrGraph, GraphSnapshot, VertexId};

/// Enumerates all s-t simple paths with at most `k` hops using the full PEFP
/// system on the default Alveo U200 device profile, and returns them in
/// [`PefpRunResult::paths`].
///
/// This is the one-call entry point used by the examples. It copies `g` into
/// a [`GraphSnapshot`] (building its reverse) on every call; for repeated
/// queries, variants, engine options or custom device profiles, build the
/// snapshot once and call [`core::prepare_snapshot_with`] and
/// [`core::run_prepared_on_device`] directly.
pub fn enumerate_paths(g: &CsrGraph, s: VertexId, t: VertexId, k: u32) -> PefpRunResult {
    let mut sink = CollectSink::new();
    let mut result = enumerate_paths_with_sink(g, s, t, k, &mut sink);
    result.paths = sink.into_paths();
    result
}

/// Streaming form of [`enumerate_paths`]: result paths are pushed into `sink`
/// (original vertex ids) instead of being materialised, so high-volume result
/// sets cost O(1) memory at every layer boundary. A sink break (e.g. a
/// [`graph::FirstN`] cap) stops the enumeration early.
///
/// ```
/// use pefp::{enumerate_paths_with_sink, graph::CountingSink};
/// use pefp::graph::{CsrGraph, VertexId};
///
/// let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
/// let mut sink = CountingSink::new();
/// let result = enumerate_paths_with_sink(&g, VertexId(0), VertexId(3), 3, &mut sink);
/// assert_eq!(sink.count(), 2);
/// assert!(result.paths.is_empty());
/// ```
pub fn enumerate_paths_with_sink<S: PathSink + ?Sized>(
    g: &CsrGraph,
    s: VertexId,
    t: VertexId,
    k: u32,
    sink: &mut S,
) -> PefpRunResult {
    let snapshot = GraphSnapshot::from_csr(g.clone());
    let variant = PefpVariant::Full;
    let prep = prepare_snapshot_with(&mut PrepareContext::new(), &snapshot, s, t, k, variant);
    let device = Device::new(DeviceConfig::alveo_u200());
    run_prepared_on_device(&prep, variant.engine_options(), device, sink)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_entry_point_runs_the_full_pipeline() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]);
        let result = enumerate_paths(&g, VertexId(0), VertexId(4), 4);
        assert_eq!(result.num_paths, 2);
        assert!(result.query_millis > 0.0);
    }
}
