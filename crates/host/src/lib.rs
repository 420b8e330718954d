//! # pefp-host
//!
//! The host side of the CPU–FPGA system described in the paper's framework
//! overview (Section IV, Fig. 2). The FPGA never sees a file or a text query:
//! the host loads the graph into main memory, parses incoming queries,
//! runs the Pre-BFS preprocessing, serialises the prepared subgraph + barrier
//! into the device's DRAM layout, frames the transfer into DMA descriptors
//! over PCIe, launches the kernel and collects the results. This crate
//! implements that runtime around the simulated device of `pefp-fpga`:
//!
//! * [`loader`] — load graphs from edge-list files (SNAP/KONECT/plain) or the
//!   synthetic dataset catalog, with basic validation and statistics.
//! * [`query`] — parse and validate `QUERY s t k` requests.
//! * [`binfmt`] — the versioned, checksummed binary layout of the prepared
//!   query payload written to device DRAM.
//! * [`dma`] — descriptor-based DMA framing of a payload over the PCIe model.
//! * [`runtime`] — the concurrent [`HostRuntime`]: a persistent worker pool
//!   (one worker per simulated CU) behind a bounded, session-fair admission
//!   queue, sharing one `(s, t, k)`-keyed prepared-query cache across every
//!   attached session. Jobs complete through cancellable [`JobTicket`]s. A
//!   batch of queries is one admission unit ([`HostRuntime::submit_batch`])
//!   and reports, next to its per-query figures, the single DMA transfer of
//!   the methodology of Section VII-A.
//! * [`session`] — a per-client [`HostSession`] handle over a runtime (a
//!   private single-CU one by default): per-query records and aggregate
//!   statistics. Results can be collected or streamed through a
//!   caller-supplied [`pefp_graph::PathSink`] (`run_query_streaming`), with
//!   emitted-vs-materialised counts tracked in [`SessionStats`].
//! * [`command`] — the one dispatcher, [`execute`]: turns a transport-neutral
//!   [`wire::Request`] into session/runtime calls and [`wire::Reply`]s, and
//!   holds the command table and every front-door limit.
//! * [`server`] — the text codec: the line protocol (`QUERY s t k`, …) in
//!   front of [`execute`], plus the text-only `HELP`/`GRAPH`/`BATCH … CUS=n`
//!   (a measured [`pefp_core::run_prepared_on_cluster`] dispatch on a
//!   private cluster of `n` CUs).
//! * [`wire`] — the binary codec: length-prefixed, checksummed frames for the
//!   same requests and replies.
//! * [`net`] — the TCP front door: a [`std::net::TcpListener`] accepting
//!   concurrent text or binary connections into one shared [`HostRuntime`],
//!   with typed BUSY backpressure and cancellation on client disconnect.
//!
//! ## Quick example
//!
//! ```
//! use pefp_host::session::{HostSession, SessionConfig};
//! use pefp_graph::{CsrGraph, VertexId};
//!
//! let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
//! let mut session = HostSession::with_graph(g, SessionConfig::default());
//! let outcome = session.run_text_query("QUERY 0 3 3").unwrap();
//! assert_eq!(outcome.num_paths, 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod binfmt;
pub mod command;
pub mod dma;
pub mod error;
pub mod loader;
pub mod net;
pub mod query;
pub mod runtime;
pub mod server;
pub mod session;
pub mod wire;

/// The fuzz invariants shared with the workspace's `tests/tcp_server.rs`.
#[cfg(test)]
#[path = "../../../tests/support/fuzz_invariants.rs"]
mod fuzz_invariants;

pub use binfmt::{DevicePayload, PayloadHeader};
pub use command::{execute, CollectingWriter, ResponseWriter};
pub use dma::{DmaEngine, DmaTransferReport};
pub use error::HostError;
pub use loader::{load_dataset, load_edge_list_file, GraphHandle};
pub use net::{NetConfig, NetServer, NetStats};
pub use query::QueryRequest;
pub use runtime::{
    BatchQueryResult, BatchTicket, EngineLaneStats, FaultToleranceConfig, HostRuntime, JobTicket,
    RuntimeBatchOutcome, RuntimeConfig, RuntimeStats, SessionId,
};
pub use server::{handle_line, serve, Reply};
pub use session::{HostSession, QueryOutcome, SessionConfig, SessionStats};
