//! # pefp-baselines
//!
//! CPU baselines for k-hop constrained s-t simple path enumeration, as
//! surveyed and compared against in the PEFP paper (Section III-B):
//!
//! * [`naive`] — plain bounded DFS/BFS enumeration without pruning beyond the
//!   hop budget and the simple-path check. Used as the correctness oracle.
//! * [`bc_dfs`] — *barrier-and-checkpoint* DFS, the pruning primitive of the
//!   JOIN algorithm ("never fall in the same trap twice").
//! * [`join`] — the state-of-the-art CPU algorithm JOIN (Peng et al.,
//!   VLDB 2019): BC-DFS from both ends joined on middle vertices. This is the
//!   baseline every figure of the paper compares PEFP against.
//!
//! All entry points take a [`pefp_graph::CsrGraph`], a source, a target and a
//! hop constraint `k`, and return the complete set of simple paths of length
//! `<= k` as `Vec<Vec<VertexId>>`. The routable engines additionally offer
//! streaming forms ([`naive_dfs_stream`], [`BcDfs::enumerate_into`],
//! [`Join::enumerate_into`]) that push into a [`pefp_graph::PathSink`]
//! instead of materialising, so the host's adaptive engine router can run any
//! of them through the exact result pipeline the device engine uses.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bc_dfs;
pub mod join;
pub mod naive;

pub use bc_dfs::{bc_dfs_enumerate, BcDfs};
pub use join::{Join, JoinPreprocess};
pub use naive::{naive_bfs_enumerate, naive_dfs_enumerate, naive_dfs_stream};
