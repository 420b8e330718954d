//! # pefp-core
//!
//! The paper's primary contribution: **PEFP**, k-hop constrained s-t simple
//! path enumeration designed for an FPGA, reproduced in Rust against the
//! simulated device of `pefp-fpga`.
//!
//! The crate is organised along the paper's own structure:
//!
//! * [`preprocess`] — host-side **Pre-BFS** (Section V): `(k-1)`-hop
//!   bidirectional BFS, Theorem 1 vertex cut, induced subgraph + barrier,
//!   with a reusable [`PrepareContext`] that makes repeated preparation
//!   O(touched subgraph) instead of O(|V| + |E|).
//! * [`path`] — fixed-width intermediate path rows with the neighbour-pointer
//!   windows Batch-DFS needs.
//! * [`engine`] — the device-side expansion-and-verification engine
//!   (Section VI): buffer/processing areas, DRAM spilling, Batch-DFS and FIFO
//!   batching, BRAM caching, and the basic / data-separated verification
//!   pipelines, all charged against the simulated device.
//! * [`variants`] — the full system plus the four ablation variants
//!   (No-Pre-BFS, No-Batch-DFS, No-Cache, No-DataSep),
//!   [`run_prepared_on_device`], the device run of a prepared query, and
//!   [`run_prepared_on_cluster`], the measured LPT dispatch of many prepared
//!   queries onto the compute units of a [`pefp_fpga::CuCluster`].
//!
//! A query takes two calls: [`prepare_snapshot_with`] prepares it on the host
//! against a [`pefp_graph::GraphSnapshot`], and [`run_prepared_on_device`]
//! runs it, streaming results through a [`PathSink`] instead of materialising
//! `Vec<Vec<VertexId>>` at every layer boundary.
//!
//! ## Quick example
//!
//! ```
//! use pefp_core::{prepare_snapshot_with, run_prepared_on_device, CountingSink};
//! use pefp_core::{PefpVariant, PrepareContext};
//! use pefp_fpga::{Device, DeviceConfig};
//! use pefp_graph::{CsrGraph, GraphSnapshot, VertexId};
//!
//! // A diamond: two 2-hop paths from 0 to 3.
//! let g = GraphSnapshot::from_csr(CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]));
//! let variant = PefpVariant::Full;
//! let mut ctx = PrepareContext::new();
//! let prep = prepare_snapshot_with(&mut ctx, &g, VertexId(0), VertexId(3), 3, variant);
//! let device = Device::new(DeviceConfig::alveo_u200());
//! let mut sink = CountingSink::new();
//! let result = run_prepared_on_device(&prep, variant.engine_options(), device, &mut sink);
//! assert_eq!((result.num_paths, sink.count()), (2, 2));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod counting;
pub mod engine;
pub mod options;
pub mod path;
pub mod preprocess;
pub mod result;
pub mod routing;
pub mod variants;

pub use counting::{
    count_simple_paths, count_st_walks, count_st_walks_checked, count_walks_from,
    count_walks_from_checked, walk_profile, walk_profile_checked, QueryEstimate,
};
pub use engine::PefpEngine;
pub use options::{BatchStrategy, CancelToken, EngineOptions, VerificationPipeline};
pub use path::{TempPath, MAX_K};
pub use preprocess::{
    prepare_snapshot_with, PrepareContext, PrepareStats, PreparedQuery, TouchedSet,
};
pub use result::{EngineOutput, EngineStats, PefpRunResult};
pub use routing::{
    route_query, EngineChoice, EngineCosts, RouteContext, RouteDecision, RouteFeatures,
    RoutingTable,
};
pub use variants::{run_prepared_on_cluster, run_prepared_on_device, MeasuredMultiCu, PefpVariant};

// The streaming-result vocabulary used by the sink-generic entry points,
// re-exported so `pefp-core` callers need not name `pefp-graph` directly.
pub use pefp_graph::sink::{CollectSink, CountingSink, FirstN, FnSink, PathSink, TranslateSink};
