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
//! replaced by a deterministic *cost model* (see `DESIGN.md`, Section 2). The
//! model is intentionally simple but captures exactly the resources the
//! paper's optimisations trade against:
//!
//! * **BRAM** ([`Bram`]) — small capacity, 1-cycle access. The engine must fit
//!   its buffer area, processing area, graph cache and barrier cache here.
//! * **DRAM** ([`Dram`]) — large capacity, 7–8 cycle access latency plus a
//!   burst model for sequential transfers. Spilling intermediate paths here is
//!   what the buffer-and-batch + Batch-DFS techniques try to avoid.
//! * **PCIe** ([`Pcie`]) — host↔device transfer time for the preprocessed
//!   subgraph, barrier array and query parameters.
//! * **Pipelines** ([`pipeline`]) — a pipelined loop of `n` iterations with
//!   depth `d` and initiation interval `ii` costs `d + (n-1)*ii` cycles; a
//!   dataflow region costs the maximum of its stages rather than their sum.
//!   This is the standard HLS cost model and is what makes the paper's
//!   "data separation" optimisation visible in the simulated cycle counts.
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
pub mod hls;
pub mod multi_cu;
pub mod pcie;
pub mod pipeline;
pub mod power;
pub mod resources;

pub use arbiter::{ArbiterHandle, ArbiterStats, CuActivation, DramArbiter};
pub use banks::{BankReport, DramBanks, Interleaving};
pub use bram::{Bram, BramAllocation};
pub use clock::CycleClock;
pub use config::{DeviceConfig, MemoryKind};
pub use counters::MemoryCounters;
pub use device::{Device, DeviceReport};
pub use dram::Dram;
pub use fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultRates, ScriptedFault};
pub use hls::{KernelReport, ModuleLatency};
pub use multi_cu::{
    max_compute_units, predict_dispatch, CuCluster, CuLease, CuWorkload, MultiCuConfig,
    MultiCuSchedule,
};
pub use pcie::Pcie;
pub use pipeline::{dataflow_cycles, pipeline_cycles, PipelineSpec};
pub use power::{EnergyReport, PowerModel};
pub use resources::{ModuleCosts, OnChipAreas, ResourceBudget, ResourceEstimate};
