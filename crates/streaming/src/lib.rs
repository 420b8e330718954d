//! # pefp-streaming
//!
//! The e-commerce application that motivates the paper (Section I): a cycle
//! in a transaction network "indicates that there might exist fraudulent
//! activities among the participants", and the production system at Alibaba
//! (Qiu et al., VLDB 2018) enumerates s-t k-paths whenever a new transaction
//! `t → s` is submitted — every such path closes a new constrained cycle
//! through the new edge. Response time is the whole point, which is why the
//! paper accelerates the path enumeration on an FPGA.
//!
//! This crate builds that surrounding system:
//!
//! * [`dynamic`] — a mutable, timestamped transaction graph with edge
//!   insertion/expiry, and a CSR snapshot of it for offline oracles.
//! * [`transaction`] — a deterministic transaction-stream generator with
//!   injected fraud rings, so detection quality can be evaluated.
//! * [`window`] — sliding-window maintenance (old transactions stop being
//!   relevant for fraud detection).
//! * [`runtime_detector`] — the real-time detector: for every arriving
//!   transaction it enumerates the newly closed k-hop cycles through the
//!   multi-tenant [`pefp_host::HostRuntime`], with window expiries and the
//!   new edge applied as incremental [`pefp_graph::GraphDelta`] batches
//!   (epoch-versioned snapshots, touched-vertex cache invalidation).
//!
//! ## Quick example
//!
//! ```
//! use pefp_streaming::{RuntimeCycleDetector, RuntimeDetectorConfig, Transaction};
//!
//! let mut detector = RuntimeCycleDetector::new(RuntimeDetectorConfig::default());
//! // 0 -> 1 -> 2, then 2 -> 0 closes a 3-hop cycle.
//! assert_eq!(detector.ingest(&Transaction::new(0, 0, 1, 10.0)).cycles.len(), 0);
//! assert_eq!(detector.ingest(&Transaction::new(1, 1, 2, 10.0)).cycles.len(), 0);
//! let alert = detector.ingest(&Transaction::new(2, 2, 0, 10.0));
//! assert_eq!(alert.cycles.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

#[cfg(test)]
mod detector;
pub mod dynamic;
pub mod runtime_detector;
pub mod transaction;
pub mod window;

pub use dynamic::DynamicGraph;
pub use runtime_detector::{
    CycleAlert, DetectorStats, RuntimeCycleDetector, RuntimeDetectorConfig,
};
pub use transaction::{Transaction, TransactionGenerator, TransactionGeneratorConfig};
pub use window::SlidingWindow;
