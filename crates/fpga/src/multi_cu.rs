//! Multiple compute units (CUs) on one card.
//!
//! The paper instantiates a single PEFP kernel. A natural extension — and the
//! obvious way to serve the batched workloads of Section VII-A faster — is to
//! place several independent kernel instances (compute units, in Vitis
//! terminology) on the same card, each with its own BRAM areas, and to
//! distribute the queries of a batch across them. The card's DRAM bandwidth
//! is shared, so the speedup saturates once the aggregated traffic of the CUs
//! exceeds what the memory system can deliver.
//!
//! [`CuCluster`] is the *execution* side: it instantiates `n` independent
//! simulated devices (own BRAM areas, counters and clock) behind one shared
//! [`DramArbiter`] that meters every refill. [`predict_dispatch`] is the
//! matching *prediction*: longest-processing-time scheduling of the
//! queries' uncontended cycles onto the CUs, inflating only the DRAM-bus
//! share of each CU's cycles — what the arbiter actually charges when every
//! CU is busy.

use crate::arbiter::{ArbiterHandle, DramArbiter};
use crate::banks::{DramBanks, Interleaving};
use crate::config::DeviceConfig;
use crate::device::Device;
use crate::fault::FaultPlan;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Configuration of a multi-CU deployment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiCuConfig {
    /// Number of compute units instantiated.
    pub compute_units: usize,
    /// Fraction of the total DRAM bandwidth one CU can absorb on its own
    /// (e.g. 0.5 means two CUs already saturate the memory system).
    pub per_cu_bandwidth_share: f64,
    /// Charge the bank model's conflict and read↔write turnaround cycles to
    /// CU clocks instead of only metering them. Off by default: the
    /// pre-charging cycle counts (and the tier-1 cycle anchors) are
    /// reproduced exactly when this is false.
    pub charge_banked: bool,
}

impl Default for MultiCuConfig {
    fn default() -> Self {
        MultiCuConfig { compute_units: 1, per_cu_bandwidth_share: 0.5, charge_banked: false }
    }
}

/// Predicted execution of one batch on a multi-CU card.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiCuSchedule {
    /// Number of compute units used.
    pub compute_units: usize,
    /// Cycles each CU is busy (after bandwidth correction), indexed by CU.
    pub per_cu_cycles: Vec<u64>,
    /// The batch makespan in cycles (the maximum over CUs).
    pub makespan_cycles: u64,
    /// Sum of the uncorrected per-query cycles (the single-CU makespan).
    pub serial_cycles: u64,
    /// The bandwidth-contention factor that was applied (≥ 1.0).
    pub contention_factor: f64,
}

impl MultiCuSchedule {
    /// Speedup of the schedule over running every query on one CU.
    pub fn speedup(&self) -> f64 {
        if self.makespan_cycles == 0 {
            1.0
        } else {
            self.serial_cycles as f64 / self.makespan_cycles as f64
        }
    }
}

/// Uncontended cost of one query as observed on a single CU, used by the
/// traffic-aware [`predict_dispatch`] model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CuWorkload {
    /// Total kernel cycles of the query without bandwidth contention.
    pub cycles: u64,
    /// The subset of `cycles` spent on the shared DRAM bus (burst reads and
    /// writes of intermediate paths, spills and results) — the only part a
    /// saturated memory system can slow down.
    pub dram_cycles: u64,
    /// Banked stall cycles (conflicts + turnarounds) the query paid under
    /// charging, *excluded* from `cycles`. 0 with banked charging off, so
    /// the predictor reproduces its pre-charging output exactly.
    pub bank_stall_cycles: u64,
}

/// Predicts a batch's execution on the CUs: LPT assignment of the queries'
/// uncontended cycle counts onto the CUs, with the contention factor
/// `max(1, active_cus × per_cu_bandwidth_share)` applied to each CU's
/// *DRAM-bus cycles only* — the same per-refill law the [`DramArbiter`]
/// enforces during real execution, assuming every CU stays busy for the
/// whole makespan. When banked charging is on, each query additionally
/// carries the conflict + turnaround stall it was observed to pay
/// ([`CuWorkload::bank_stall_cycles`]), added back verbatim: bank stalls
/// are latency the CU really idles through, independent of how many
/// neighbours share the bus.
pub fn predict_dispatch(work: &[CuWorkload], config: &MultiCuConfig) -> MultiCuSchedule {
    let cus = config.compute_units.max(1);
    let serial_cycles: u64 = work.iter().map(|w| w.cycles + w.bank_stall_cycles).sum();

    let mut sorted: Vec<CuWorkload> = work.to_vec();
    sorted.sort_unstable_by_key(|w| std::cmp::Reverse(w.cycles + w.bank_stall_cycles));
    let mut per_cu = vec![CuWorkload::default(); cus];
    for w in sorted {
        let min_idx = per_cu
            .iter()
            .enumerate()
            .min_by_key(|(_, load)| load.cycles + load.bank_stall_cycles)
            .map(|(i, _)| i)
            .unwrap_or(0);
        per_cu[min_idx].cycles += w.cycles;
        per_cu[min_idx].dram_cycles += w.dram_cycles;
        per_cu[min_idx].bank_stall_cycles += w.bank_stall_cycles;
    }

    let active_cus =
        per_cu.iter().filter(|load| load.cycles + load.bank_stall_cycles > 0).count().max(1);
    let contention_factor = (active_cus as f64 * config.per_cu_bandwidth_share).max(1.0);
    let per_cu_cycles: Vec<u64> = per_cu
        .iter()
        .map(|load| {
            load.cycles
                + load.bank_stall_cycles
                + ((contention_factor - 1.0) * load.dram_cycles as f64) as u64
        })
        .collect();
    let makespan_cycles = per_cu_cycles.iter().copied().max().unwrap_or(0);

    MultiCuSchedule {
        compute_units: cus,
        per_cu_cycles,
        makespan_cycles,
        serial_cycles,
        contention_factor,
    }
}

/// `n` independent simulated compute units behind one shared DRAM arbiter.
///
/// Each device built by [`CuCluster::device_for_cu`] owns its BRAM areas,
/// traffic counters and cycle clock — exactly like the single-CU
/// [`Device::new`] — but reports every DRAM transfer to the cluster's
/// [`DramArbiter`], which injects contention stalls while other CUs are
/// active. The cluster is `Send + Sync`, so the host can hand one CU to each
/// worker thread.
#[derive(Debug)]
pub struct CuCluster {
    device_config: DeviceConfig,
    multi_cu: MultiCuConfig,
    arbiter: Arc<DramArbiter>,
    /// CU lease table (`true` = checked out): concurrent jobs reserve a CU
    /// through [`CuCluster::try_checkout_cu`] or [`CuCluster::checkout_among`]
    /// so no two ever alias one device slot.
    leased: Mutex<Vec<bool>>,
    /// Woken when a lease is returned.
    returned: Condvar,
    /// Fault schedule applied to every device the cluster builds; `None`
    /// simulates perfect hardware (the pre-fault behaviour).
    fault_plan: Option<Arc<FaultPlan>>,
}

impl CuCluster {
    /// Builds a cluster of `multi_cu.compute_units` CUs with the given
    /// per-device profile. The shared arbiter routes every refill through a
    /// U200-style 4-bank round-robin interleaving map (stripe width and
    /// latencies from the device profile), so per-bank conflict accounting is
    /// available in [`DramArbiter::stats`] next to the bandwidth-sharing law.
    pub fn new(device_config: DeviceConfig, multi_cu: MultiCuConfig) -> Self {
        Self::build(device_config, multi_cu, None)
    }

    /// Like [`CuCluster::new`], but every device the cluster builds draws its
    /// faults from `plan` — the simulated equivalent of deploying on a fleet
    /// where DRAM flips, PCIe errors and kernel hangs actually happen.
    pub fn with_faults(
        device_config: DeviceConfig,
        multi_cu: MultiCuConfig,
        plan: Arc<FaultPlan>,
    ) -> Self {
        Self::build(device_config, multi_cu, Some(plan))
    }

    fn build(
        device_config: DeviceConfig,
        multi_cu: MultiCuConfig,
        fault_plan: Option<Arc<FaultPlan>>,
    ) -> Self {
        let banks = DramBanks::new(
            4,
            512,
            device_config.dram_read_latency,
            device_config.dram_burst_words_per_cycle,
            Interleaving::RoundRobin,
        );
        let arbiter = Arc::new(if multi_cu.charge_banked {
            DramArbiter::with_banks_charged(multi_cu.per_cu_bandwidth_share, banks)
        } else {
            DramArbiter::with_banks(multi_cu.per_cu_bandwidth_share, banks)
        });
        let cus = multi_cu.compute_units.max(1);
        if let Some(plan) = &fault_plan {
            assert!(
                plan.compute_units() >= cus,
                "fault plan covers {} CUs but the cluster has {cus}",
                plan.compute_units()
            );
        }
        CuCluster {
            device_config,
            multi_cu,
            arbiter,
            leased: Mutex::new(vec![false; cus]),
            returned: Condvar::new(),
            fault_plan,
        }
    }

    /// The fault schedule the cluster's devices run under, if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.fault_plan.as_ref()
    }

    /// Reserves a *specific* compute unit without blocking: `None` when `cu`
    /// is currently leased. The host's CU-health layer uses this to steer
    /// jobs onto healthy CUs and probes onto quarantined ones.
    ///
    /// # Panics
    ///
    /// Panics when `cu` is out of range.
    pub fn try_checkout_cu(&self, cu: usize) -> Option<CuLease<'_>> {
        assert!(cu < self.compute_units(), "compute unit {cu} out of range");
        let mut leased = self.leased.lock().expect("lease table poisoned");
        if leased[cu] {
            return None;
        }
        leased[cu] = true;
        Some(CuLease { cluster: self, cu })
    }

    /// Reserves any free CU out of `candidates`, waiting up to `timeout` for
    /// one to be returned. Returns `None` on timeout or when `candidates` is
    /// empty, so it can never park a caller forever on a wedged fleet, and it
    /// never hands out a CU outside the candidate set (the health layer's
    /// quarantine boundary).
    pub fn checkout_among(&self, candidates: &[usize], timeout: Duration) -> Option<CuLease<'_>> {
        if candidates.is_empty() {
            return None;
        }
        let deadline = std::time::Instant::now() + timeout;
        let mut leased = self.leased.lock().expect("lease table poisoned");
        loop {
            if let Some(&cu) = candidates.iter().find(|&&cu| !leased[cu]) {
                leased[cu] = true;
                return Some(CuLease { cluster: self, cu });
            }
            let remaining = deadline.checked_duration_since(std::time::Instant::now())?;
            let (guard, wait) =
                self.returned.wait_timeout(leased, remaining).expect("lease table poisoned");
            leased = guard;
            if wait.timed_out() {
                // One last scan under the reacquired lock before giving up.
                if let Some(&cu) = candidates.iter().find(|&&cu| !leased[cu]) {
                    leased[cu] = true;
                    return Some(CuLease { cluster: self, cu });
                }
                return None;
            }
        }
    }

    /// Number of CUs currently checked out.
    pub fn leased_cus(&self) -> usize {
        self.leased.lock().expect("lease table poisoned").iter().filter(|&&t| t).count()
    }

    /// Number of compute units in the cluster.
    pub fn compute_units(&self) -> usize {
        self.multi_cu.compute_units.max(1)
    }

    /// The CU count and bandwidth law the cluster was built with.
    pub fn multi_cu(&self) -> &MultiCuConfig {
        &self.multi_cu
    }

    /// The per-CU device profile.
    pub fn device_config(&self) -> &DeviceConfig {
        &self.device_config
    }

    /// The shared arbiter (for activation guards and aggregate stats).
    pub fn arbiter(&self) -> &Arc<DramArbiter> {
        &self.arbiter
    }

    /// Instantiates a fresh device for compute unit `cu` (zeroed clock and
    /// counters, own BRAM), wired to the cluster's shared DRAM arbiter.
    ///
    /// # Panics
    ///
    /// Panics when `cu` is out of range.
    pub fn device_for_cu(&self, cu: usize) -> Device {
        assert!(cu < self.compute_units(), "compute unit {cu} out of range");
        let mut device = Device::new(self.device_config.clone());
        device.attach_arbiter(ArbiterHandle::new(Arc::clone(&self.arbiter), cu));
        if let Some(plan) = &self.fault_plan {
            device.attach_fault_injector(plan.injector_for(cu));
        }
        device
    }
}

/// An exclusive claim on one compute unit of a [`CuCluster`], handed out by
/// [`CuCluster::try_checkout_cu`] or [`CuCluster::checkout_among`] and
/// returned on drop. Holding the lease is the
/// only sanctioned way for concurrent jobs to obtain devices: two live leases
/// always name different CUs.
#[derive(Debug)]
pub struct CuLease<'a> {
    cluster: &'a CuCluster,
    cu: usize,
}

impl CuLease<'_> {
    /// The compute unit this lease reserves.
    pub fn cu(&self) -> usize {
        self.cu
    }

    /// Instantiates a fresh device for the leased CU (zeroed clock and
    /// counters, own BRAM, shared arbiter) — see [`CuCluster::device_for_cu`].
    pub fn device(&self) -> Device {
        self.cluster.device_for_cu(self.cu)
    }
}

impl Drop for CuLease<'_> {
    fn drop(&mut self) {
        let mut leased = self.cluster.leased.lock().expect("lease table poisoned");
        leased[self.cu] = false;
        // notify_all, not notify_one: `checkout_among` waiters are selective
        // (a freed CU may be outside the woken waiter's candidate set, which
        // would strand a waiter the CU *does* match).
        self.cluster.returned.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Workloads that spend every cycle on the DRAM bus: the prediction's
    /// contention factor then scales each CU's whole LPT load.
    fn all_dram(cycles: &[u64]) -> Vec<CuWorkload> {
        cycles
            .iter()
            .map(|&c| CuWorkload { cycles: c, dram_cycles: c, bank_stall_cycles: 0 })
            .collect()
    }

    #[test]
    fn one_cu_schedule_is_just_the_serial_sum() {
        let schedule = predict_dispatch(&all_dram(&[100, 200, 300]), &MultiCuConfig::default());
        assert_eq!(schedule.per_cu_cycles, vec![600]);
        assert_eq!(schedule.makespan_cycles, 600);
        assert_eq!(schedule.serial_cycles, 600);
        assert!((schedule.speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn balanced_work_splits_evenly_without_contention() {
        let config =
            MultiCuConfig { compute_units: 4, per_cu_bandwidth_share: 0.0, charge_banked: false };
        let schedule = predict_dispatch(&all_dram(&[100; 8]), &config);
        assert_eq!(schedule.per_cu_cycles, vec![200; 4]);
        assert_eq!(schedule.makespan_cycles, 200);
        assert!((schedule.speedup() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn lpt_handles_skewed_batches_sensibly() {
        // One giant query dominates: the makespan cannot beat it.
        let config =
            MultiCuConfig { compute_units: 4, per_cu_bandwidth_share: 0.0, charge_banked: false };
        let schedule = predict_dispatch(&all_dram(&[1_000, 10, 10, 10, 10]), &config);
        assert_eq!(schedule.per_cu_cycles, vec![1_000, 20, 10, 10]);
        assert_eq!(schedule.makespan_cycles, 1_000);
        assert!(schedule.speedup() < 1.05);
    }

    #[test]
    fn bandwidth_contention_caps_the_speedup() {
        // With each CU able to absorb half the bandwidth, 4 active CUs double
        // every all-DRAM CU's cycles: the ideal 4x speedup collapses to 2x.
        let config =
            MultiCuConfig { compute_units: 4, per_cu_bandwidth_share: 0.5, charge_banked: false };
        let schedule = predict_dispatch(&all_dram(&[100; 8]), &config);
        assert_eq!(schedule.contention_factor, 2.0);
        assert_eq!(schedule.makespan_cycles, 400);
        assert!((schedule.speedup() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let schedule = predict_dispatch(
            &[],
            &MultiCuConfig { compute_units: 8, per_cu_bandwidth_share: 0.5, charge_banked: false },
        );
        assert_eq!(schedule.per_cu_cycles, vec![0; 8]);
        assert_eq!(schedule.makespan_cycles, 0);
        assert_eq!(schedule.serial_cycles, 0);
        assert_eq!(schedule.contention_factor, 1.0);
        assert_eq!(schedule.speedup(), 1.0);
    }

    #[test]
    fn more_cus_never_hurt_without_contention() {
        let work: Vec<u64> = (1..=40).map(|i| i * 17).collect();
        let mut previous = u64::MAX;
        for cus in 1..=8 {
            let config = MultiCuConfig {
                compute_units: cus,
                per_cu_bandwidth_share: 0.0,
                charge_banked: false,
            };
            let schedule = predict_dispatch(&all_dram(&work), &config);
            assert!(schedule.makespan_cycles <= previous, "cus = {cus}");
            previous = schedule.makespan_cycles;
        }
    }

    #[test]
    fn dispatch_prediction_only_inflates_the_dram_share() {
        let work = vec![CuWorkload { cycles: 1_000, dram_cycles: 100, bank_stall_cycles: 0 }; 8];
        let config =
            MultiCuConfig { compute_units: 4, per_cu_bandwidth_share: 0.5, charge_banked: false };
        let predicted = predict_dispatch(&work, &config);
        // Two queries per CU; factor 2 doubles only the 200 DRAM cycles.
        assert_eq!(predicted.per_cu_cycles, vec![2_200; 4]);
        assert_eq!(predicted.makespan_cycles, 2_200);
        assert_eq!(predicted.serial_cycles, 8_000);
        // Were every cycle on the bus, factor 2 would double all of them.
        let all_bus = predict_dispatch(&all_dram(&[1_000; 8]), &config);
        assert_eq!(all_bus.makespan_cycles, 4_000);
    }

    #[test]
    fn dispatch_prediction_matches_closed_form_when_all_cycles_are_dram() {
        // LPT over 800, 700, …, 100 on 2 CUs: {800, 500, 400, 100} and
        // {700, 600, 300, 200}, 1_800 cycles each. Both CUs are active, so
        // the factor is max(1, 2 x 0.75) = 1.5, and an all-DRAM load is
        // scaled whole: 1_800 x 1.5 = 2_700 — the closed form.
        let work = all_dram(&(1..=8).map(|i| i * 100).collect::<Vec<u64>>());
        let config =
            MultiCuConfig { compute_units: 2, per_cu_bandwidth_share: 0.75, charge_banked: false };
        let predicted = predict_dispatch(&work, &config);
        assert_eq!(predicted.contention_factor, 1.5);
        assert_eq!(predicted.per_cu_cycles, vec![2_700, 2_700]);
        assert_eq!(predicted.makespan_cycles, 2_700);
        assert_eq!(predicted.serial_cycles, 3_600);
    }

    #[test]
    fn empty_dispatch_prediction_is_a_noop() {
        let predicted = predict_dispatch(&[], &MultiCuConfig::default());
        assert_eq!(predicted.makespan_cycles, 0);
        assert_eq!(predicted.serial_cycles, 0);
        assert_eq!(predicted.speedup(), 1.0);
    }

    #[test]
    fn cluster_devices_share_one_arbiter_but_own_their_clocks() {
        let cluster = CuCluster::new(
            DeviceConfig::alveo_u200(),
            MultiCuConfig { compute_units: 2, per_cu_bandwidth_share: 0.5, charge_banked: false },
        );
        assert_eq!(cluster.compute_units(), 2);
        let mut a = cluster.device_for_cu(0);
        let mut b = cluster.device_for_cu(1);
        a.charge_cycles(10);
        assert_eq!(a.cycles(), 10);
        assert_eq!(b.cycles(), 0, "each CU has its own clock");
        // Both devices meter traffic into the same arbiter.
        a.charge_read(crate::MemoryKind::Dram, 64);
        b.charge_write(crate::MemoryKind::Dram, 64);
        assert_eq!(cluster.arbiter().stats().refills, 2);
        assert_eq!(cluster.arbiter().stats().words, 128);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cluster_rejects_out_of_range_cu() {
        let cluster = CuCluster::new(DeviceConfig::alveo_u200(), MultiCuConfig::default());
        let _ = cluster.device_for_cu(1);
    }

    #[test]
    fn leases_are_exclusive_and_returned_on_drop() {
        let cluster = CuCluster::new(
            DeviceConfig::alveo_u200(),
            MultiCuConfig { compute_units: 2, per_cu_bandwidth_share: 0.5, charge_banked: false },
        );
        let a = cluster.checkout_among(&[0, 1], Duration::ZERO).expect("CU free");
        let b = cluster.checkout_among(&[0, 1], Duration::ZERO).expect("CU free");
        assert_ne!(a.cu(), b.cu(), "two live leases never alias a CU");
        assert_eq!(cluster.leased_cus(), 2);
        assert!((0..2).all(|cu| cluster.try_checkout_cu(cu).is_none()), "no third CU to lease");
        let freed = a.cu();
        drop(a);
        assert_eq!(cluster.leased_cus(), 1);
        let c = cluster.try_checkout_cu(freed).expect("returned CU is leasable again");
        assert_eq!(c.cu(), freed);
        // The lease builds devices for its own CU.
        assert_eq!(c.device().cycles(), 0);
    }

    #[test]
    fn specific_cu_checkout_respects_the_lease_table() {
        let cluster = CuCluster::new(
            DeviceConfig::alveo_u200(),
            MultiCuConfig { compute_units: 3, per_cu_bandwidth_share: 0.5, charge_banked: false },
        );
        let lease = cluster.try_checkout_cu(1).expect("CU 1 is free");
        assert_eq!(lease.cu(), 1);
        assert!(cluster.try_checkout_cu(1).is_none(), "CU 1 is taken");
        assert_eq!(cluster.try_checkout_cu(2).expect("CU 2 is free").cu(), 2);
        drop(lease);
        assert_eq!(cluster.try_checkout_cu(1).expect("returned").cu(), 1);
    }

    #[test]
    fn checkout_among_times_out_instead_of_parking_forever() {
        let cluster = CuCluster::new(
            DeviceConfig::alveo_u200(),
            MultiCuConfig { compute_units: 2, per_cu_bandwidth_share: 0.5, charge_banked: false },
        );
        let _held = cluster.try_checkout_cu(0).expect("free");
        // CU 0 is leased and CU 1 is outside the candidate set: must time out.
        let start = std::time::Instant::now();
        assert!(cluster.checkout_among(&[0], Duration::from_millis(30)).is_none());
        assert!(start.elapsed() >= Duration::from_millis(25));
        // Empty candidate sets fail fast.
        assert!(cluster.checkout_among(&[], Duration::from_secs(5)).is_none());
        // A free candidate is handed out immediately.
        assert_eq!(cluster.checkout_among(&[1], Duration::ZERO).expect("free").cu(), 1);
    }

    #[test]
    fn checkout_among_wakes_when_a_candidate_returns() {
        let cluster = Arc::new(CuCluster::new(
            DeviceConfig::alveo_u200(),
            MultiCuConfig { compute_units: 2, per_cu_bandwidth_share: 0.5, charge_banked: false },
        ));
        let lease = cluster.try_checkout_cu(1).expect("free");
        std::thread::scope(|scope| {
            let cluster = Arc::clone(&cluster);
            let waiter = scope.spawn(move || {
                cluster.checkout_among(&[1], Duration::from_secs(10)).map(|l| l.cu())
            });
            std::thread::sleep(Duration::from_millis(20));
            drop(lease);
            assert_eq!(waiter.join().expect("waiter panicked"), Some(1));
        });
    }

    #[test]
    fn faulty_cluster_devices_draw_from_the_shared_plan() {
        use crate::fault::{FaultKind, FaultPlan, ScriptedFault};
        let plan = FaultPlan::scripted(2);
        plan.push_script(1, ScriptedFault { after_ops: 0, kind: FaultKind::DramCorruption });
        let cluster = CuCluster::with_faults(
            DeviceConfig::alveo_u200(),
            MultiCuConfig { compute_units: 2, per_cu_bandwidth_share: 0.5, charge_banked: false },
            Arc::clone(&plan),
        );
        let mut healthy = cluster.device_for_cu(0);
        let mut sick = cluster.device_for_cu(1);
        healthy.charge_read(crate::MemoryKind::Dram, 64);
        sick.charge_read(crate::MemoryKind::Dram, 64);
        assert!(healthy.pending_fault().is_none());
        assert_eq!(sick.pending_fault().unwrap().kind, FaultKind::DramCorruption);
        assert_eq!(cluster.fault_plan().unwrap().faults_injected(), 1);
    }

    #[test]
    fn cluster_arbiter_meters_bank_activity() {
        let cluster = CuCluster::new(
            DeviceConfig::alveo_u200(),
            MultiCuConfig { compute_units: 2, per_cu_bandwidth_share: 0.5, charge_banked: false },
        );
        assert!(cluster.arbiter().has_banks());
        let mut device = cluster.device_for_cu(0);
        device.charge_read(crate::MemoryKind::Dram, 2048);
        let report = cluster.arbiter().bank_report().expect("banks attached");
        assert_eq!(report.accesses, 1);
        assert!(report.max_bank_words >= 512, "a 2048-word burst spans all four 512-word stripes");
    }
}
