//! # pefp-graph
//!
//! Directed-graph substrate for the PEFP reproduction (ICDE 2021,
//! "PEFP: Efficient k-hop Constrained s-t Simple Path Enumeration on FPGA").
//!
//! The crate provides everything the host side of the system needs before any
//! path enumeration starts:
//!
//! * [`DiGraph`] — a mutable adjacency-list directed graph used while loading or
//!   generating data, with cheap reversal ([`DiGraph::reverse`]).
//! * [`CsrGraph`] — the immutable *Compressed Sparse Row* representation that the
//!   paper ships to FPGA DRAM (Section V). All enumeration algorithms run on CSR.
//! * [`induced`] — induced-subgraph extraction with old→new vertex remapping,
//!   used by the Pre-BFS preprocessing.
//! * [`sink`] — the [`PathSink`] streaming-result trait and its combinators
//!   (counting, collecting, first-`n` early termination, id translation),
//!   shared by every enumeration producer in the workspace.
//! * [`generators`] — deterministic synthetic graph generators (power-law /
//!   Chung–Lu, Erdős–Rényi, copying model, small world, grid, DAG layers).
//! * [`datasets`] — the catalog of the paper's 12 evaluation datasets (Table II)
//!   with scaled-down synthetic stand-ins.
//! * [`stats`] — degree / diameter / effective-diameter statistics so the
//!   stand-ins can be checked against Table II.
//! * [`io`] — plain edge-list reading and writing.
//!
//! ## Quick example
//!
//! ```
//! use pefp_graph::{DiGraph, VertexId};
//!
//! let mut g = DiGraph::new(4);
//! g.add_edge(VertexId(0), VertexId(1));
//! g.add_edge(VertexId(1), VertexId(2));
//! g.add_edge(VertexId(2), VertexId(3));
//! let csr = g.to_csr();
//! assert_eq!(csr.out_degree(VertexId(1)), 1);
//! assert_eq!(csr.successors(VertexId(0)), &[VertexId(1)]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bfs;
pub mod csr;
pub mod datasets;
pub mod delta;
pub mod digraph;
pub mod formats;
pub mod generators;
pub mod ids;
pub mod induced;
pub mod io;
pub mod paths;
pub mod placement;
pub mod sampling;
pub mod sink;
pub mod stats;
pub mod view;

pub use bfs::{khop_bfs, khop_bfs_multi, BfsScratch, UNREACHED};
pub use csr::{CsrBuilder, CsrGraph};
pub use datasets::{Dataset, DatasetSpec, ScaleProfile};
pub use delta::{Epoch, GraphDelta, GraphSnapshot, SnapshotView, VersionedGraph};
pub use digraph::DiGraph;
pub use formats::{detect_format, read_graph_auto, read_graph_file, GraphFormat, LoadedGraph};
pub use ids::VertexId;
pub use induced::{
    induce_subgraph, induce_subgraph_from_vertices, induce_subgraph_from_vertices_with,
    InducedSubgraph, RemapScratch,
};
pub use paths::Path;
pub use placement::{PlacementPolicy, RowPlacement};
pub use sampling::{sample_reachable_pairs, sample_simple_paths};
pub use sink::{CollectSink, CountingSink, FirstN, FnSink, PathSink, TranslateSink};
pub use stats::GraphStats;
pub use view::GraphView;
