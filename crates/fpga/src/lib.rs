//! # pefp-fpga
//!
//! A cycle-approximate model of the FPGA card used by the paper
//! ("PEFP: Efficient k-hop Constrained s-t Simple Path Enumeration on FPGA",
//! ICDE 2021): a Xilinx Alveo U200 running at 300 MHz with on-chip BRAM and
//! four 16 GB off-chip DRAM banks, connected to the host over PCIe.
//!
//! ## Why a model instead of real hardware
//!
//! The reproduction has no FPGA or HLS toolchain available, so the device is
//! replaced by a deterministic *cost model* (see `docs/paper_fidelity.md`,
//! §4). The model is intentionally simple but captures exactly the resources
//! the paper's optimisations trade against:
//!
//! * **BRAM** ([`Bram`]) — small capacity, 1-cycle access. The engine must fit
//!   its buffer area, processing area, graph cache and barrier cache here.
//! * **DRAM** ([`Dram`]) — large capacity, 7–8 cycle access latency plus a
//!   burst model for sequential transfers. Spilling intermediate paths here is
//!   what the buffer-and-batch + Batch-DFS techniques try to avoid.
//! * **PCIe** ([`Pcie`]) — host↔device transfer time for the preprocessed
//!   subgraph, barrier array and query parameters.
//! * **Pipelines** ([`pipeline`]) — a pipelined loop of `n` iterations with
//!   depth `d` and initiation interval `ii` costs `d + (n-1)*ii` cycles.
//!   This is the standard HLS cost model; the paper's "data separation"
//!   optimisation shows in the simulated cycle counts as a verification
//!   `ii` of 1 instead of the three-stage depth.
//! * **Compute units** ([`multi_cu`]) — several kernel instances on one card
//!   behind a shared DRAM arbiter ([`CuCluster`], [`DramArbiter`]).
//!
//! The algorithmic code in `pefp-core` performs all *real* computation in
//! ordinary Rust data structures and merely charges the device for the
//! accesses it would have performed; the resulting cycle count is converted to
//! simulated wall-clock time through the configured clock frequency.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arbiter;
pub mod banks;
pub mod bram;
pub mod clock;
pub mod config;
pub mod counters;
pub mod device;
pub mod dram;
pub mod fault;
pub mod multi_cu;
pub mod pcie;
pub mod pipeline;

pub use arbiter::{ArbiterHandle, ArbiterStats, CuActivation, DramArbiter};
pub use banks::{BankReport, DramBanks, Interleaving};
pub use bram::{Bram, BramAllocation};
pub use clock::CycleClock;
pub use config::{DeviceConfig, MemoryKind};
pub use counters::MemoryCounters;
pub use device::{Device, DeviceReport};
pub use dram::Dram;
pub use fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultRates, ScriptedFault};
pub use multi_cu::{
    predict_dispatch, CuCluster, CuLease, CuWorkload, MultiCuConfig, MultiCuSchedule,
};
pub use pcie::Pcie;
pub use pipeline::pipeline_cycles;
