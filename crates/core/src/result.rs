//! Result and statistics types returned by the engine and the device run.

use pefp_fpga::DeviceReport;
use pefp_graph::paths::Path;
use serde::{Deserialize, Serialize};

/// Counters describing what the engine did during one query, independent of
/// the device cost model (useful for Table III style experiments and for
/// explaining *why* a configuration is slower).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Number of batches processed (iterations of the outer loop).
    pub batches: u64,
    /// Number of (path, successor) expansion inputs verified.
    pub expansions: u64,
    /// Number of intermediate paths that passed verification and were written
    /// back to the buffer.
    pub intermediate_paths: u64,
    /// Number of result paths emitted.
    pub results: u64,
    /// Expansions rejected by the barrier check.
    pub pruned_by_barrier: u64,
    /// Expansions rejected by the visited check.
    pub pruned_by_visited: u64,
    /// Peak number of paths resident in the buffer area.
    pub peak_buffer_paths: usize,
    /// Peak number of paths spilled to DRAM at any one time.
    pub peak_dram_paths: usize,
    /// Whether the enumeration was cut short by the result sink (a `FirstN`
    /// cap or `EngineOptions::max_results`); when set, `results` is the
    /// number of paths emitted before termination, not the full count.
    pub early_terminated: bool,
    /// Whether the enumeration was abandoned through the
    /// [`crate::CancelToken`] in `EngineOptions::cancel` (polled between
    /// batches). Cancelled runs also set `early_terminated`.
    pub cancelled: bool,
    /// Device fault that aborted the run: a transfer-checksum fault latched
    /// by the simulated card, or a [`pefp_fpga::FaultKind::CuHang`] raised by
    /// the engine's cycle watchdog (`EngineOptions::cycle_budget`). A faulted
    /// run's results and timings must be discarded; faulted runs also set
    /// `early_terminated`.
    pub device_fault: Option<pefp_fpga::FaultEvent>,
}

/// Raw output of one engine run (device ids).
#[derive(Debug, Clone, Default)]
pub struct EngineOutput {
    /// Result paths in device vertex ids. Filled only by the collect-mode
    /// wrapper ([`crate::PefpEngine::run`] with `collect_paths = true`);
    /// empty in counting mode and for sink-streaming runs, where results
    /// flow through the caller's `PathSink` instead.
    pub paths: Vec<Path>,
    /// Number of result paths emitted (always filled, in every mode).
    pub num_paths: u64,
    /// Behavioural counters.
    pub stats: EngineStats,
}

/// Complete result of a high-level PEFP query (preprocessing + device run).
#[derive(Debug, Clone)]
pub struct PefpRunResult {
    /// Result paths translated back to original graph vertex ids. Only the
    /// collecting entry point fills it — the `pefp` facade's
    /// `enumerate_paths`; it is empty after
    /// [`crate::run_prepared_on_device`], whose paths flow through the
    /// caller's sink.
    pub paths: Vec<Path>,
    /// Number of result paths.
    pub num_paths: u64,
    /// Host wall-clock preprocessing time in milliseconds (the paper's `T1`).
    pub preprocess_millis: f64,
    /// Simulated device query time in milliseconds (the paper's `T2`),
    /// including the PCIe transfer of the prepared query.
    pub query_millis: f64,
    /// Host wall-clock time of the software engine run in milliseconds
    /// (reported for reference; not a paper metric).
    pub host_engine_millis: f64,
    /// Full device report (cycles, traffic counters, BRAM usage).
    pub device: DeviceReport,
    /// Engine behavioural counters.
    pub stats: EngineStats,
}

impl PefpRunResult {
    /// Total time `T = T1 + T2` in milliseconds, as defined in Section VII-A.
    pub fn total_millis(&self) -> f64 {
        self.preprocess_millis + self.query_millis
    }

    /// The fault that aborted this run, if any: the engine-observed fault
    /// when the watchdog or batch-boundary poll caught it, else any fault the
    /// device latched after the engine's last poll (e.g. on the final batch
    /// or the result DMA). `None` means the run is trustworthy.
    pub fn device_fault(&self) -> Option<pefp_fpga::FaultEvent> {
        self.stats.device_fault.or(self.device.fault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pefp_fpga::MemoryCounters;

    #[test]
    fn total_time_is_the_sum_of_phases() {
        let r = PefpRunResult {
            paths: Vec::new(),
            num_paths: 0,
            preprocess_millis: 1.5,
            query_millis: 2.5,
            host_engine_millis: 0.1,
            device: DeviceReport {
                cycles: 0,
                kernel_millis: 0.0,
                pcie_millis: 0.0,
                total_millis: 0.0,
                counters: MemoryCounters::default(),
                bram_used: 0,
                bram_capacity: 0,
                dram_cycles: 0,
                contention_cycles: 0,
                bank_conflict_cycles: 0,
                turnaround_cycles: 0,
                fault: None,
                injected_stall_cycles: 0,
            },
            stats: EngineStats::default(),
        };
        assert!((r.total_millis() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn engine_output_defaults_are_empty() {
        let o = EngineOutput::default();
        assert_eq!(o.num_paths, 0);
        assert!(o.paths.is_empty());
        assert_eq!(o.stats, EngineStats::default());
    }
}
