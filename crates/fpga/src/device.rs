//! The assembled device: BRAM + DRAM + PCIe + clock + counters.
//!
//! `pefp-core` talks to the simulated card exclusively through [`Device`]:
//! it allocates BRAM regions, charges reads/writes against the right memory,
//! charges the cycles of its pipelined loops, and finally asks for a
//! [`DeviceReport`] containing the simulated time and traffic statistics for
//! one query.

use crate::arbiter::ArbiterHandle;
use crate::banks::BurstDirection;
use crate::bram::Bram;
use crate::clock::CycleClock;
use crate::config::{DeviceConfig, MemoryKind};
use crate::counters::MemoryCounters;
use crate::dram::Dram;
use crate::fault::{FaultEvent, FaultInjector, FaultKind, Injection, TransferClass};
use crate::pcie::Pcie;
use serde::{Deserialize, Serialize};

/// Simulated FPGA card.
#[derive(Debug, Clone)]
pub struct Device {
    config: DeviceConfig,
    bram: Bram,
    dram: Dram,
    pcie: Pcie,
    clock: CycleClock,
    counters: MemoryCounters,
    /// Simulated seconds spent in PCIe transfers (kept separate from kernel
    /// cycles because DMA overlaps with neither the host nor the kernel in
    /// the paper's measurements).
    pcie_seconds: f64,
    /// Handle to the card's shared DRAM arbiter when this device is one CU of
    /// a [`crate::multi_cu::CuCluster`]; `None` for a standalone device.
    arbiter: Option<ArbiterHandle>,
    /// Uncontended cycles spent on DRAM transfers (the shared-bus share of
    /// the clock, before contention stalls).
    dram_busy_cycles: u64,
    /// Extra stall cycles injected by the shared-DRAM arbiter.
    contention_cycles: u64,
    /// Bank-conflict stall cycles charged to this device's clock (0 unless
    /// the attached arbiter charges banked latency).
    bank_conflict_cycles: u64,
    /// Read↔write turnaround stall cycles charged to this device's clock
    /// (0 unless the attached arbiter charges banked latency).
    turnaround_cycles: u64,
    /// Fault stream for this device instantiation, when the card runs under
    /// a [`crate::fault::FaultPlan`]; `None` for a fault-free device.
    injector: Option<FaultInjector>,
    /// First detected fault, latched until [`Device::reset_query_state`]. The
    /// simulated transfer checksums raise it; the engine polls it at batch
    /// boundaries and aborts instead of computing with corrupted data.
    pending_fault: Option<FaultEvent>,
    /// Extra cycles injected by transient CU stalls (included in `cycles`).
    injected_stall_cycles: u64,
}

/// Summary of one query's device activity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceReport {
    /// Kernel cycles consumed.
    pub cycles: u64,
    /// Kernel time in simulated milliseconds.
    pub kernel_millis: f64,
    /// PCIe transfer time in simulated milliseconds.
    pub pcie_millis: f64,
    /// Total simulated device time (kernel + PCIe) in milliseconds.
    pub total_millis: f64,
    /// Memory traffic counters.
    pub counters: MemoryCounters,
    /// Bytes of BRAM currently allocated.
    pub bram_used: usize,
    /// BRAM capacity in bytes.
    pub bram_capacity: usize,
    /// Uncontended cycles spent on DRAM transfers — the share of `cycles` a
    /// saturated multi-CU memory system can slow down.
    pub dram_cycles: u64,
    /// Stall cycles injected by a shared-DRAM arbiter (0 for a standalone
    /// device; included in `cycles`).
    pub contention_cycles: u64,
    /// Bank-conflict stall cycles charged by the arbiter's bank model
    /// (0 unless banked charging is enabled; included in `cycles`).
    pub bank_conflict_cycles: u64,
    /// Read↔write turnaround stall cycles charged by the arbiter's bank
    /// model (0 unless banked charging is enabled; included in `cycles`).
    pub turnaround_cycles: u64,
    /// First fault the transfer checksums detected during the query, if any.
    /// A report with a fault describes an *aborted* run whose timing and
    /// results must not be trusted.
    pub fault: Option<FaultEvent>,
    /// Extra cycles injected by transient CU stalls (included in `cycles`).
    pub injected_stall_cycles: u64,
}

impl Device {
    /// Instantiates a device from a configuration profile.
    pub fn new(config: DeviceConfig) -> Self {
        let problems = config.validate();
        assert!(problems.is_empty(), "invalid device config: {problems:?}");
        let bram =
            Bram::new(config.bram_bytes, config.bram_read_latency, config.bram_write_latency);
        let dram = Dram::new(
            config.dram_bytes,
            config.dram_read_latency,
            config.dram_write_latency,
            config.dram_burst_words_per_cycle,
        );
        let pcie = Pcie::new(config.pcie_gbps, config.pcie_setup_us);
        Device {
            config,
            bram,
            dram,
            pcie,
            clock: CycleClock::new(),
            counters: MemoryCounters::new(),
            pcie_seconds: 0.0,
            arbiter: None,
            dram_busy_cycles: 0,
            contention_cycles: 0,
            bank_conflict_cycles: 0,
            turnaround_cycles: 0,
            injector: None,
            pending_fault: None,
            injected_stall_cycles: 0,
        }
    }

    /// Wires this device to a shared DRAM arbiter: every DRAM transfer is
    /// metered and pays the contention stalls the arbiter dictates. Used by
    /// [`crate::multi_cu::CuCluster`] when the device is one CU of a card.
    pub fn attach_arbiter(&mut self, handle: ArbiterHandle) {
        self.arbiter = Some(handle);
    }

    /// The shared-arbiter handle, when this device is part of a cluster.
    pub fn arbiter(&self) -> Option<&ArbiterHandle> {
        self.arbiter.as_ref()
    }

    /// Wires this device to a fault plan's per-instantiation stream: every
    /// DRAM refill and PCIe DMA becomes a fault opportunity, and detected
    /// faults latch into [`Device::pending_fault`].
    pub fn attach_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// The first fault the transfer checksums detected, if any. Latched: once
    /// a run faults it stays faulted until [`Device::reset_query_state`].
    pub fn pending_fault(&self) -> Option<FaultEvent> {
        self.pending_fault
    }

    /// The compute unit this device simulates, when it runs under a fault
    /// plan or shared arbiter (`None` for a plain standalone device).
    pub fn cu_index(&self) -> Option<usize> {
        self.injector
            .as_ref()
            .map(FaultInjector::cu)
            .or_else(|| self.arbiter.as_ref().map(ArbiterHandle::cu))
    }

    /// Latches a fault detected *outside* the device's own checksums — the
    /// engine's cycle-progress watchdog uses this to record a hang.
    pub fn raise_fault(&mut self, kind: FaultKind) -> FaultEvent {
        let event =
            FaultEvent { cu: self.cu_index().unwrap_or(0), kind, at_cycle: self.clock.cycles() };
        if self.pending_fault.is_none() {
            self.pending_fault = Some(event);
        }
        self.pending_fault.unwrap_or(event)
    }

    /// Draws the fault decision for one transfer and applies it: stalls burn
    /// extra cycles, detected faults latch into `pending_fault`.
    fn inject(&mut self, class: TransferClass) {
        let Some(injector) = &mut self.injector else { return };
        match injector.draw(class) {
            None => {}
            Some(Injection::Stall(cycles)) => {
                self.injected_stall_cycles += cycles;
                self.clock.advance(cycles);
            }
            Some(Injection::Fault(kind)) => {
                let event = FaultEvent { cu: injector.cu(), kind, at_cycle: self.clock.cycles() };
                if self.pending_fault.is_none() {
                    self.pending_fault = Some(event);
                }
            }
        }
    }

    /// Advances the clock for a DRAM transfer of `words` words costing
    /// `base_cycles` uncontended, adding any stall the shared arbiter imposes
    /// — the contention share always, the banked share (conflicts and
    /// read↔write turnarounds) only when the arbiter charges banked latency.
    fn advance_dram(&mut self, dir: BurstDirection, base_cycles: u64, words: u64) {
        self.dram_busy_cycles += base_cycles;
        let mut stall = 0;
        if let Some(handle) = &self.arbiter {
            let breakdown = handle.record_refill_directed(dir, None, words, base_cycles);
            self.contention_cycles += breakdown.contention;
            stall = breakdown.contention;
            if handle.charges_banks() {
                self.bank_conflict_cycles += breakdown.conflict;
                self.turnaround_cycles += breakdown.turnaround;
                stall += breakdown.banked_stall();
            }
        }
        self.clock.advance(base_cycles + stall);
        self.inject(TransferClass::Dram);
    }

    /// Whether the attached arbiter charges banked DRAM latency (bank
    /// conflicts and read↔write turnarounds) to this device's clock.
    pub fn charges_banked_dram(&self) -> bool {
        self.arbiter.as_ref().is_some_and(ArbiterHandle::charges_banks)
    }

    /// Bank geometry `(num_banks, stripe_words)` of the attached arbiter's
    /// interleaving model, when one exists.
    pub fn bank_geometry(&self) -> Option<(usize, u64)> {
        self.arbiter.as_ref().and_then(|handle| handle.arbiter().bank_geometry())
    }

    /// Charges the *banked* stall of fetching a placed adjacency row of
    /// `words` words at word address `row_addr`: the burst is routed through
    /// the arbiter's bank map and only its conflict + turnaround share
    /// advances the clock (the base fetch latency is already folded into the
    /// expansion pipeline's initiation interval, like every other uncached
    /// graph access).
    ///
    /// A complete no-op — no clock, no bank state, no counters — unless the
    /// arbiter charges banked latency, so runs with charging disabled stay
    /// bit-identical to the pre-placement timing model.
    pub fn charge_placed_row_fetch(&mut self, row_addr: u64, words: u64) {
        let Some(handle) = &self.arbiter else { return };
        if !handle.charges_banks() || words == 0 {
            return;
        }
        let breakdown =
            handle.record_refill_directed(BurstDirection::Read, Some(row_addr), words, 0);
        self.bank_conflict_cycles += breakdown.conflict;
        self.turnaround_cycles += breakdown.turnaround;
        self.clock.advance(breakdown.banked_stall());
    }

    /// A device with the paper's Alveo U200 profile.
    pub fn alveo_u200() -> Self {
        Self::new(DeviceConfig::alveo_u200())
    }

    /// The configuration this device was built from.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Mutable access to the BRAM allocator.
    pub fn bram_mut(&mut self) -> &mut Bram {
        &mut self.bram
    }

    /// Read-only access to the BRAM allocator.
    pub fn bram(&self) -> &Bram {
        &self.bram
    }

    /// Resets clock, counters and PCIe time (BRAM allocations are kept, since
    /// the graph cache persists across queries on the same graph).
    pub fn reset_query_state(&mut self) {
        self.clock.reset();
        self.counters = MemoryCounters::new();
        self.pcie_seconds = 0.0;
        self.dram_busy_cycles = 0;
        self.contention_cycles = 0;
        self.bank_conflict_cycles = 0;
        self.turnaround_cycles = 0;
        self.pending_fault = None;
        self.injected_stall_cycles = 0;
    }

    // ---- memory access charging -------------------------------------------------

    /// Charges a read of `words` consecutive 32-bit words from `kind`.
    pub fn charge_read(&mut self, kind: MemoryKind, words: u64) {
        match kind {
            MemoryKind::Bram => {
                self.counters.bram_reads += 1;
                self.clock.advance(self.bram.read_cost(words));
            }
            MemoryKind::Dram => {
                self.counters.dram_reads += 1;
                self.counters.dram_words_read += words;
                let base = self.dram.read_cost(words);
                self.advance_dram(BurstDirection::Read, base, words);
            }
        }
    }

    /// Charges a write of `words` consecutive 32-bit words to `kind`.
    pub fn charge_write(&mut self, kind: MemoryKind, words: u64) {
        match kind {
            MemoryKind::Bram => {
                self.counters.bram_writes += 1;
                self.clock.advance(self.bram.write_cost(words));
            }
            MemoryKind::Dram => {
                self.counters.dram_writes += 1;
                self.counters.dram_words_written += words;
                let base = self.dram.write_cost(words);
                self.advance_dram(BurstDirection::Write, base, words);
            }
        }
    }

    /// Records `accesses` cache hits without advancing the clock.
    ///
    /// Used by the engine when the BRAM reads are fully overlapped with the
    /// expansion pipeline (their latency is part of the pipeline depth, not a
    /// serial cost); only the traffic statistics need updating.
    pub fn note_cache_hits(&mut self, accesses: u64) {
        self.counters.cache_hits += accesses;
        self.counters.bram_reads += accesses;
    }

    /// Records `accesses` cache misses totalling `words` DRAM words without
    /// advancing the clock. The timing impact of the misses is modelled by the
    /// caller as a pipeline initiation-interval stall (see `pefp-core`).
    pub fn note_cache_misses(&mut self, accesses: u64, words: u64) {
        self.counters.cache_misses += accesses;
        self.counters.dram_reads += accesses;
        self.counters.dram_words_read += words;
    }

    /// Records a buffer-area flush of `words` to DRAM.
    pub fn charge_buffer_flush(&mut self, words: u64) {
        self.counters.buffer_flushes += 1;
        self.counters.dram_writes += 1;
        self.counters.dram_words_written += words;
        let base = self.dram.write_cost(words);
        self.advance_dram(BurstDirection::Write, base, words);
    }

    /// Records fetching a batch of `words` back from DRAM into BRAM.
    pub fn charge_dram_batch_fetch(&mut self, words: u64) {
        self.counters.dram_batch_fetches += 1;
        self.counters.dram_reads += 1;
        self.counters.dram_words_read += words;
        let base = self.dram.read_cost(words);
        self.advance_dram(BurstDirection::Read, base, words);
    }

    // ---- compute charging -------------------------------------------------------

    /// Charges a raw cycle count (setup logic, FSM transitions, pipelined
    /// loops costed with [`crate::pipeline_cycles`], …).
    pub fn charge_cycles(&mut self, cycles: u64) {
        self.clock.advance(cycles);
    }

    // ---- PCIe -------------------------------------------------------------------

    /// Charges a host→device or device→host DMA transfer of `bytes`.
    pub fn charge_pcie_transfer(&mut self, bytes: usize) {
        self.pcie_seconds += self.pcie.transfer_seconds(bytes);
        self.inject(TransferClass::Pcie);
    }

    // ---- reporting --------------------------------------------------------------

    /// Kernel cycles consumed so far.
    pub fn cycles(&self) -> u64 {
        self.clock.cycles()
    }

    /// Number of parallel verification lanes configured for this device.
    pub fn verification_lanes(&self) -> usize {
        self.config.verification_lanes
    }

    /// Produces the per-query report.
    pub fn report(&self) -> DeviceReport {
        let kernel_millis = self.config.cycles_to_millis(self.clock.cycles());
        let pcie_millis = self.pcie_seconds * 1.0e3;
        DeviceReport {
            cycles: self.clock.cycles(),
            kernel_millis,
            pcie_millis,
            total_millis: kernel_millis + pcie_millis,
            counters: self.counters,
            bram_used: self.bram.used(),
            bram_capacity: self.bram.capacity(),
            dram_cycles: self.dram_busy_cycles,
            contention_cycles: self.contention_cycles,
            bank_conflict_cycles: self.bank_conflict_cycles,
            turnaround_cycles: self.turnaround_cycles,
            fault: self.pending_fault,
            injected_stall_cycles: self.injected_stall_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::pipeline_cycles;

    #[test]
    fn bram_access_is_cheaper_than_dram_access() {
        let mut d = Device::alveo_u200();
        d.charge_read(MemoryKind::Bram, 1);
        let bram_cycles = d.cycles();
        d.reset_query_state();
        d.charge_read(MemoryKind::Dram, 1);
        let dram_cycles = d.cycles();
        assert!(dram_cycles > bram_cycles * 5, "{dram_cycles} vs {bram_cycles}");
    }

    #[test]
    fn counters_track_traffic() {
        let mut d = Device::alveo_u200();
        d.charge_write(MemoryKind::Dram, 64);
        d.charge_buffer_flush(128);
        d.charge_dram_batch_fetch(128);
        d.note_cache_hits(1);
        d.note_cache_misses(1, 1);
        let r = d.report();
        assert_eq!(r.counters.dram_writes, 2);
        assert_eq!(r.counters.dram_words_written, 192);
        assert_eq!(r.counters.buffer_flushes, 1);
        assert_eq!(r.counters.dram_batch_fetches, 1);
        assert_eq!(r.counters.cache_hits, 1);
        assert_eq!(r.counters.cache_misses, 1);
    }

    #[test]
    fn dataflow_charge_is_cheaper_than_sequential() {
        // The three verification checks over 1 000 lanes: as a dataflow
        // region (separated stages + merge, II = 1) or back-to-back
        // (II = the serial module's depth).
        let cfg = DeviceConfig::alveo_u200();
        let mut a = Device::alveo_u200();
        a.charge_cycles(pipeline_cycles(1000, cfg.dataflow_verify_depth + cfg.merge_depth, 1));
        let mut b = Device::alveo_u200();
        b.charge_cycles(pipeline_cycles(1000, cfg.basic_verify_depth, cfg.basic_verify_depth));
        assert!(a.cycles() < b.cycles());
        assert_eq!(a.cycles(), 1001);
        assert_eq!(b.cycles(), 3000);
    }

    #[test]
    fn report_converts_cycles_to_time() {
        let mut d = Device::alveo_u200();
        d.charge_cycles(300_000); // 1 ms at 300 MHz
        d.charge_pcie_transfer(77_000_000); // ~1 ms at 77 GB/s
        let r = d.report();
        assert!((r.kernel_millis - 1.0).abs() < 1e-9);
        assert!((r.pcie_millis - 1.01).abs() < 0.1);
        assert!((r.total_millis - (r.kernel_millis + r.pcie_millis)).abs() < 1e-12);
    }

    #[test]
    fn reset_query_state_keeps_bram_allocations() {
        let mut d = Device::alveo_u200();
        assert!(d.bram_mut().try_allocate("graph_cache", 1024));
        d.charge_cycles(10);
        d.reset_query_state();
        assert_eq!(d.cycles(), 0);
        assert_eq!(d.bram().used(), 1024);
    }

    #[test]
    #[should_panic(expected = "invalid device config")]
    fn invalid_config_is_rejected() {
        let mut cfg = DeviceConfig::alveo_u200();
        cfg.clock_mhz = 0.0;
        Device::new(cfg);
    }

    #[test]
    fn random_reads_cost_more_than_a_burst() {
        let mut burst = Device::alveo_u200();
        burst.charge_read(MemoryKind::Dram, 256);
        let mut random = Device::alveo_u200();
        for _ in 0..256 {
            random.charge_read(MemoryKind::Dram, 1);
        }
        assert_eq!(random.report().counters.dram_words_read, 256);
        assert!(random.cycles() > 4 * burst.cycles());
    }

    #[test]
    fn report_splits_dram_cycles_out_of_the_total() {
        let mut d = Device::alveo_u200();
        d.charge_cycles(pipeline_cycles(1000, 3, 1)); // compute only
        let compute = d.cycles();
        d.charge_read(MemoryKind::Dram, 128);
        d.charge_buffer_flush(64);
        let r = d.report();
        assert_eq!(r.contention_cycles, 0, "standalone devices never stall");
        assert_eq!(r.dram_cycles, r.cycles - compute, "DRAM share = total - compute");
        assert!(r.dram_cycles > 0);
    }

    #[test]
    fn attached_arbiter_stalls_dram_transfers_under_contention() {
        use crate::arbiter::{ArbiterHandle, DramArbiter};
        use std::sync::Arc;

        let arbiter = Arc::new(DramArbiter::new(0.5));
        let mut contended = Device::alveo_u200();
        contended.attach_arbiter(ArbiterHandle::new(Arc::clone(&arbiter), 0));
        let mut free = Device::alveo_u200();

        // Four active CUs at share 0.5: factor 2 on every DRAM transfer.
        let _guards: Vec<_> = (0..4).map(|_| arbiter.activate()).collect();
        contended.charge_read(MemoryKind::Dram, 256);
        free.charge_read(MemoryKind::Dram, 256);
        let (c, f) = (contended.report(), free.report());
        assert_eq!(c.dram_cycles, f.dram_cycles, "base DRAM cost is unchanged");
        assert_eq!(c.contention_cycles, c.dram_cycles, "factor 2 doubles the transfer");
        assert_eq!(c.cycles, 2 * f.cycles);
        // BRAM and compute are private to the CU: no stall.
        contended.reset_query_state();
        contended.charge_read(MemoryKind::Bram, 4);
        contended.charge_cycles(pipeline_cycles(100, 3, 1));
        assert_eq!(contended.report().contention_cycles, 0);
    }

    #[test]
    fn scripted_dram_fault_latches_on_the_device() {
        use crate::fault::{FaultKind, FaultPlan, ScriptedFault};
        let plan = FaultPlan::scripted(1);
        plan.push_script(0, ScriptedFault { after_ops: 1, kind: FaultKind::DramCorruption });
        let mut d = Device::alveo_u200();
        d.attach_fault_injector(plan.injector_for(0));
        d.charge_read(MemoryKind::Dram, 64);
        assert!(d.pending_fault().is_none(), "first transfer passes its checksum");
        d.charge_read(MemoryKind::Dram, 64);
        let fault = d.pending_fault().expect("second transfer fails its checksum");
        assert_eq!(fault.kind, FaultKind::DramCorruption);
        assert_eq!(fault.cu, 0);
        assert_eq!(d.report().fault, Some(fault), "the report carries the latched fault");
        // The latch survives further (also faulty or clean) traffic…
        d.charge_write(MemoryKind::Dram, 64);
        assert_eq!(d.pending_fault().unwrap().kind, FaultKind::DramCorruption);
        // …and clears with the query state.
        d.reset_query_state();
        assert!(d.pending_fault().is_none());
    }

    #[test]
    fn injected_stall_burns_cycles_without_raising_a_fault() {
        use crate::fault::{FaultPlan, FaultRates};
        let rates = FaultRates { cu_stall: 1.0, stall_cycles: 5_000, ..FaultRates::NONE };
        let plan = FaultPlan::seeded(3, rates, 1);
        let mut stalled = Device::alveo_u200();
        stalled.attach_fault_injector(plan.injector_for(0));
        let mut clean = Device::alveo_u200();
        stalled.charge_read(MemoryKind::Dram, 64);
        clean.charge_read(MemoryKind::Dram, 64);
        assert!(stalled.pending_fault().is_none(), "stalls are latency, not errors");
        assert_eq!(stalled.cycles(), clean.cycles() + 5_000);
        assert_eq!(stalled.report().injected_stall_cycles, 5_000);
    }

    #[test]
    fn pcie_fault_is_detected_on_the_dma() {
        use crate::fault::{FaultKind, FaultPlan, ScriptedFault};
        let plan = FaultPlan::scripted(1);
        plan.push_script(0, ScriptedFault { after_ops: 0, kind: FaultKind::PcieError });
        let mut d = Device::alveo_u200();
        d.attach_fault_injector(plan.injector_for(0));
        d.charge_pcie_transfer(4096);
        assert_eq!(d.pending_fault().unwrap().kind, FaultKind::PcieError);
    }

    #[test]
    fn raise_fault_records_the_watchdog_verdict() {
        use crate::fault::FaultKind;
        let mut d = Device::alveo_u200();
        d.charge_cycles(777);
        let event = d.raise_fault(FaultKind::CuHang);
        assert_eq!(event.kind, FaultKind::CuHang);
        assert_eq!(event.at_cycle, 777);
        assert_eq!(d.pending_fault(), Some(event));
        // An already-latched device keeps its first fault.
        let second = d.raise_fault(FaultKind::CuCrash);
        assert_eq!(second, event);
    }

    #[test]
    fn uncharged_banked_arbiter_never_touches_the_clock() {
        use crate::arbiter::{ArbiterHandle, DramArbiter};
        use crate::banks::{DramBanks, Interleaving};
        use std::sync::Arc;

        // Tail streams never conflict (they are prefetchable), but the
        // read/write alternation forces turnarounds — and with charging off
        // the metered cycles must stay observational.
        let banks = DramBanks::new(4, 8, 8, 8, Interleaving::SingleBank);
        let arbiter = Arc::new(DramArbiter::with_banks(0.5, banks));
        let mut banked = Device::alveo_u200();
        banked.attach_arbiter(ArbiterHandle::new(Arc::clone(&arbiter), 0));
        let mut plain = Device::alveo_u200();
        for d in [&mut banked, &mut plain] {
            d.charge_read(MemoryKind::Dram, 64);
            d.charge_write(MemoryKind::Dram, 64);
            d.charge_read(MemoryKind::Dram, 64);
        }
        assert_eq!(arbiter.stats().bank_conflict_cycles, 0, "streams never conflict");
        assert!(arbiter.stats().turnaround_cycles > 0, "turnarounds are metered");
        assert_eq!(banked.cycles(), plain.cycles(), "…but never charged");
        let report = banked.report();
        assert_eq!(report.bank_conflict_cycles, 0);
        assert_eq!(report.turnaround_cycles, 0);
        // Placed row fetches are a complete no-op with charging off: neither
        // the clock nor the bank cursor moves.
        let accesses_before = arbiter.bank_report().unwrap().accesses;
        banked.charge_placed_row_fetch(0, 16);
        assert_eq!(banked.cycles(), plain.cycles());
        assert_eq!(arbiter.bank_report().unwrap().accesses, accesses_before);
    }

    #[test]
    fn charged_banked_arbiter_stalls_the_clock_by_the_banked_share() {
        use crate::arbiter::{ArbiterHandle, DramArbiter};
        use crate::banks::{DramBanks, Interleaving};
        use std::sync::Arc;

        let make = |charged: bool| {
            let banks =
                DramBanks::new(4, 8, 8, 8, Interleaving::SingleBank).with_turnaround_penalty(4);
            let arbiter = if charged {
                Arc::new(DramArbiter::with_banks_charged(0.5, banks))
            } else {
                Arc::new(DramArbiter::with_banks(0.5, banks))
            };
            let mut device = Device::alveo_u200();
            device.attach_arbiter(ArbiterHandle::new(arbiter, 0));
            device
        };
        let mut charged = make(true);
        let mut free = make(false);
        for d in [&mut charged, &mut free] {
            d.charge_read(MemoryKind::Dram, 64);
            d.charge_write(MemoryKind::Dram, 64);
            d.charge_read(MemoryKind::Dram, 64);
        }
        let (c, f) = (charged.report(), free.report());
        // Tail streams never conflict, but the read→write and write→read
        // flips cost 2 turnarounds × 4 cycles.
        assert_eq!(c.bank_conflict_cycles, 0);
        assert_eq!(c.turnaround_cycles, 8);
        assert_eq!(c.cycles, f.cycles + 8, "the banked share is charged on top");
        assert_eq!(c.dram_cycles, f.dram_cycles, "base DRAM cost is unchanged");
        // Placed row fetches charge only their banked stall: the first one
        // opens row 0 on bank 0 for free, the second lands on bank 0
        // (SingleBank) with a different row open there — one conflict
        // latency, no base cost.
        let before = charged.cycles();
        charged.charge_placed_row_fetch(0, 16);
        assert_eq!(charged.cycles(), before, "opening a fresh row is free");
        charged.charge_placed_row_fetch(64, 16);
        assert_eq!(charged.cycles(), before + 8, "one conflict latency, no base cost");
        assert_eq!(charged.report().bank_conflict_cycles, 8);
    }

    #[test]
    fn charged_clock_is_the_uncharged_clock_plus_the_metered_stall() {
        use crate::arbiter::{ArbiterHandle, DramArbiter};
        use crate::banks::{DramBanks, Interleaving};
        use std::sync::Arc;

        // Property: over any op sequence the charged clock equals the
        // uncharged clock plus exactly the conflict + turnaround cycles the
        // charged run metered — charging is pure additive stall, so zero
        // conflicts and zero turnarounds imply bit-identical clocks.
        fn splitmix64(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let make = |charged: bool| {
            let banks =
                DramBanks::new(4, 8, 8, 8, Interleaving::SingleBank).with_turnaround_penalty(4);
            let arbiter = if charged {
                Arc::new(DramArbiter::with_banks_charged(0.5, banks))
            } else {
                Arc::new(DramArbiter::with_banks(0.5, banks))
            };
            let mut device = Device::alveo_u200();
            device.attach_arbiter(ArbiterHandle::new(arbiter, 0));
            device
        };
        for seed in [1u64, 7, 42, 1234] {
            let mut charged = make(true);
            let mut free = make(false);
            for d in [&mut charged, &mut free] {
                let mut state = seed; // identical op stream on both devices
                for _ in 0..200 {
                    let roll = splitmix64(&mut state);
                    let words = 1 + (roll >> 8) % 64;
                    match roll % 3 {
                        0 => d.charge_read(MemoryKind::Dram, words),
                        1 => d.charge_write(MemoryKind::Dram, words),
                        _ => d.charge_placed_row_fetch((roll >> 16) % 4096, words),
                    }
                }
            }
            let (c, f) = (charged.report(), free.report());
            let stall = c.bank_conflict_cycles + c.turnaround_cycles;
            assert!(stall > 0, "seed {seed}: the random stream must exercise the bank model");
            assert_eq!(
                c.cycles,
                f.cycles + stall,
                "seed {seed}: every charged cycle must be metered, and vice versa"
            );
            assert_eq!(f.bank_conflict_cycles, 0, "uncharged stays observational");
            assert_eq!(f.turnaround_cycles, 0, "uncharged stays observational");
        }
    }

    #[test]
    fn conflict_free_round_robin_reads_charge_nothing() {
        use crate::arbiter::{ArbiterHandle, DramArbiter};
        use crate::banks::{DramBanks, Interleaving};
        use std::sync::Arc;

        // The equality side of the property: a reads-only workload whose
        // placed fetches keep every bank's row open (one hot row per bank,
        // revisited) hits zero conflicts and zero turnarounds under
        // round-robin interleaving — with nothing metered, charging on is
        // bit-identical to charging off.
        let make = |charged: bool| {
            let banks = DramBanks::new(4, 8, 8, 8, Interleaving::RoundRobin);
            let arbiter = if charged {
                Arc::new(DramArbiter::with_banks_charged(0.5, banks))
            } else {
                Arc::new(DramArbiter::with_banks(0.5, banks))
            };
            let mut device = Device::alveo_u200();
            device.attach_arbiter(ArbiterHandle::new(Arc::clone(&arbiter), 0));
            (device, arbiter)
        };
        let (mut charged, arbiter) = make(true);
        let (mut free, _) = make(false);
        for d in [&mut charged, &mut free] {
            for _ in 0..8 {
                d.charge_read(MemoryKind::Dram, 64);
                for bank in 0..4u64 {
                    // Round-robin places stripe `bank` on bank `bank`; the
                    // same four rows stay open across every round.
                    d.charge_placed_row_fetch(bank * 8, 8);
                }
            }
        }
        assert_eq!(arbiter.stats().bank_conflict_cycles, 0, "hot rows never conflict");
        assert_eq!(arbiter.stats().turnaround_cycles, 0, "reads-only: no direction flips");
        assert_eq!(charged.cycles(), free.cycles(), "nothing metered, nothing charged");
        assert_eq!(charged.report().bank_conflict_cycles, 0);
        assert_eq!(charged.report().turnaround_cycles, 0);
    }

    #[test]
    fn unpipelined_loop_costs_more_than_pipelined() {
        let mut a = Device::alveo_u200();
        a.charge_cycles(pipeline_cycles(1000, 3, 1));
        let mut b = Device::alveo_u200();
        b.charge_cycles(pipeline_cycles(1000, 3, 3));
        assert!(b.cycles() > 2 * a.cycles());
    }
}
