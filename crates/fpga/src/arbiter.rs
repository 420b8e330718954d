//! Shared-DRAM bandwidth arbiter for multi-CU deployments.
//!
//! The card's off-chip DRAM is one memory system shared by every compute
//! unit: replicating the PEFP kernel multiplies compute but not bandwidth, so
//! once the aggregated refill traffic of the active CUs exceeds what the
//! memory controllers deliver, every transfer slows down proportionally. PR 3
//! modelled this with a closed-form end-of-batch correction
//! (`max(1, active_cus × per_cu_bandwidth_share)` applied to *all* cycles);
//! this module replaces that with **per-refill accounting**: each CU's
//! [`crate::Device`] reports every DRAM transfer it performs to the shared
//! [`DramArbiter`], which inflates *that transfer's* cycle cost by the
//! contention factor derived from how many CUs are concurrently active. Only
//! cycles genuinely spent on the DRAM bus are penalised — BRAM traffic and
//! pipeline compute are private to each CU and run at full speed — which is
//! why measured multi-CU makespans beat the old closed-form prediction on
//! cache-friendly workloads.
//!
//! The arbiter is shared across OS threads (one per CU in the cluster
//! dispatch and the host runtime), so all of its state is atomic; the accounting is
//! intentionally lock-free and approximate in the same way real memory
//! controllers are: the factor seen by a refill depends on the set of CUs
//! active at that moment.

use crate::banks::{BankReport, BurstDirection, DramBanks};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Aggregate refill traffic metered by a [`DramArbiter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArbiterStats {
    /// Number of DRAM transfers (reads + writes) metered.
    pub refills: u64,
    /// Total 32-bit words moved across the shared bus.
    pub words: u64,
    /// Extra cycles injected into CU clocks by bandwidth contention.
    pub penalty_cycles: u64,
    /// Refills that collided with the bank the previous refill ended on
    /// (only metered when the arbiter routes traffic through a
    /// [`DramBanks`] interleaving model; 0 otherwise).
    pub bank_conflicts: u64,
    /// Extra cycles those bank conflicts cost (one bank latency each).
    /// Always metered; charged to CU clocks only when the arbiter was built
    /// with banked charging enabled ([`DramArbiter::with_banks_charged`]) —
    /// otherwise the headline bandwidth-sharing law stays the sole timing
    /// effect, preserving the pre-charging cycle counts exactly.
    pub bank_conflict_cycles: u64,
    /// Refills that flipped the bus direction (read↔write turnaround).
    pub turnarounds: u64,
    /// Extra cycles those direction flips cost. Metered and charged under
    /// the same rules as `bank_conflict_cycles`.
    pub turnaround_cycles: u64,
}

/// Per-refill cost breakdown returned by
/// [`DramArbiter::record_refill_directed`]: the contention stall is always
/// charged by the caller; the banked components are charged only when
/// [`DramArbiter::charges_banks`] is true (they are still metered either way).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefillBreakdown {
    /// Bandwidth-sharing stall (`base × (factor − 1)`).
    pub contention: u64,
    /// Bank-conflict latency of this refill.
    pub conflict: u64,
    /// Read↔write turnaround latency of this refill.
    pub turnaround: u64,
}

impl RefillBreakdown {
    /// The banked share of the stall (conflict + turnaround).
    pub fn banked_stall(&self) -> u64 {
        self.conflict + self.turnaround
    }
}

/// Shared-DRAM bandwidth meter for one multi-CU card.
///
/// One arbiter per card; every CU's device holds a handle to it (see
/// [`crate::multi_cu::CuCluster`]). A CU marks itself active for the duration
/// of a query via [`DramArbiter::activate`]; every DRAM transfer then pays
/// `base_cycles × (factor − 1)` extra cycles, where
/// `factor = max(1, active_cus × per_cu_bandwidth_share)` — the same
/// saturation law as the PR-3 closed form, but applied per refill to DRAM
/// cycles only.
#[derive(Debug)]
pub struct DramArbiter {
    /// Fraction of the card's total DRAM bandwidth one CU can absorb alone.
    share: f64,
    /// CUs currently executing a query (holding a [`CuActivation`]).
    active: AtomicUsize,
    refills: AtomicU64,
    words: AtomicU64,
    penalty_cycles: AtomicU64,
    /// Optional per-bank interleaving model: every metered refill is routed
    /// through the address map as one sequential burst (the cursor tracks
    /// where the previous burst ended, matching the tail-append layout of the
    /// DRAM path set), so same-bank back-to-back conflicts become visible in
    /// [`ArbiterStats`].
    banks: Option<Mutex<BankCursor>>,
    /// Whether the banked components (conflicts, turnarounds) are *charged*
    /// to CU clocks rather than only metered. Off by default: charging is an
    /// opt-in timing-model change gated by
    /// [`crate::multi_cu::MultiCuConfig::charge_banked`].
    charge_banked: bool,
    bank_conflicts: AtomicU64,
    bank_conflict_cycles: AtomicU64,
    turnarounds: AtomicU64,
    turnaround_cycles: AtomicU64,
}

/// The bank model plus the running word address of the refill stream.
#[derive(Debug)]
struct BankCursor {
    banks: DramBanks,
    next_word: u64,
}

impl DramArbiter {
    /// Creates an arbiter where each CU can absorb `per_cu_bandwidth_share`
    /// of the total DRAM bandwidth on its own (0.5 means two concurrently
    /// active CUs already saturate the memory system).
    pub fn new(per_cu_bandwidth_share: f64) -> Self {
        assert!(
            per_cu_bandwidth_share.is_finite() && per_cu_bandwidth_share >= 0.0,
            "bandwidth share must be a finite non-negative fraction"
        );
        DramArbiter {
            share: per_cu_bandwidth_share,
            active: AtomicUsize::new(0),
            refills: AtomicU64::new(0),
            words: AtomicU64::new(0),
            penalty_cycles: AtomicU64::new(0),
            banks: None,
            charge_banked: false,
            bank_conflicts: AtomicU64::new(0),
            bank_conflict_cycles: AtomicU64::new(0),
            turnarounds: AtomicU64::new(0),
            turnaround_cycles: AtomicU64::new(0),
        }
    }

    /// [`DramArbiter::new`] with a [`DramBanks`] interleaving model attached:
    /// every metered refill is additionally routed through the bank map and
    /// the per-bank conflict accounting is surfaced in [`ArbiterStats`].
    pub fn with_banks(per_cu_bandwidth_share: f64, banks: DramBanks) -> Self {
        let mut arbiter = DramArbiter::new(per_cu_bandwidth_share);
        arbiter.banks = Some(Mutex::new(BankCursor { banks, next_word: 0 }));
        arbiter
    }

    /// [`DramArbiter::with_banks`] with banked *charging* enabled: the
    /// conflict and turnaround cycles every refill accrues are returned to
    /// the issuing device as stall cycles to pay on its own clock, instead
    /// of being surfaced as observational counters only.
    pub fn with_banks_charged(per_cu_bandwidth_share: f64, banks: DramBanks) -> Self {
        let mut arbiter = DramArbiter::with_banks(per_cu_bandwidth_share, banks);
        arbiter.charge_banked = true;
        arbiter
    }

    /// Whether refills are routed through a bank interleaving model.
    pub fn has_banks(&self) -> bool {
        self.banks.is_some()
    }

    /// Whether banked latency (conflicts + turnarounds) is charged to CU
    /// clocks rather than only metered.
    pub fn charges_banks(&self) -> bool {
        self.charge_banked && self.banks.is_some()
    }

    /// Bank geometry `(num_banks, stripe_words)` when a bank model is
    /// attached — what a layout pass needs to place rows deliberately.
    pub fn bank_geometry(&self) -> Option<(usize, u64)> {
        self.banks.as_ref().map(|cursor| {
            let cursor = cursor.lock().expect("bank cursor poisoned");
            (cursor.banks.num_banks(), cursor.banks.stripe_words())
        })
    }

    /// The bank model's activity report, when one is attached.
    pub fn bank_report(&self) -> Option<BankReport> {
        self.banks
            .as_ref()
            .map(|cursor| cursor.lock().expect("bank cursor poisoned").banks.report())
    }

    /// The configured per-CU bandwidth share.
    pub fn per_cu_bandwidth_share(&self) -> f64 {
        self.share
    }

    /// Marks one CU active until the returned guard is dropped.
    pub fn activate(self: &Arc<Self>) -> CuActivation {
        self.active.fetch_add(1, Ordering::SeqCst);
        CuActivation { arbiter: Arc::clone(self) }
    }

    /// Number of CUs currently holding an activation.
    pub fn active_cus(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// The contention factor a refill issued right now would pay:
    /// `max(1, active_cus × share)`.
    pub fn contention_factor(&self) -> f64 {
        (self.active_cus().max(1) as f64 * self.share).max(1.0)
    }

    /// Meters one DRAM transfer of `words` words whose uncontended cost is
    /// `base_cycles`, and returns the *extra* cycles the issuing CU must
    /// stall for under the current contention. Pre-charging entry point: the
    /// transfer is treated as a read on the tail-append refill stream, so
    /// observational bank metering is byte-identical to the historical
    /// behaviour.
    pub fn record_refill(&self, words: u64, base_cycles: u64) -> u64 {
        self.record_refill_directed(BurstDirection::Read, None, words, base_cycles).contention
    }

    /// Meters one DRAM transfer with an explicit bus direction and an
    /// optional placed word address. `None` appends the transfer to the
    /// arbiter's sequential refill stream (buffer spills, batch fetches,
    /// result writes — the historical tail-append cursor); `Some(addr)`
    /// meters a burst at a deliberately *placed* address (an adjacency row
    /// under a CSR layout) without disturbing the tail cursor.
    ///
    /// The contention component of the returned breakdown must always be
    /// paid by the caller; the conflict and turnaround components only when
    /// [`DramArbiter::charges_banks`] is true.
    pub fn record_refill_directed(
        &self,
        dir: BurstDirection,
        addr: Option<u64>,
        words: u64,
        base_cycles: u64,
    ) -> RefillBreakdown {
        self.refills.fetch_add(1, Ordering::Relaxed);
        self.words.fetch_add(words, Ordering::Relaxed);
        let mut breakdown = RefillBreakdown::default();
        if let Some(cursor) = &self.banks {
            // The critical section is a handful of arithmetic ops on the
            // reused bank state (no allocation, no report building), so the
            // lock does not meaningfully serialise the refill path.
            let mut cursor = cursor.lock().expect("bank cursor poisoned");
            // Placed bursts (adjacency rows at deliberate addresses) contend
            // for the per-bank row buffers; tail-append bursts are the
            // sequential stream region, which the controller prefetches —
            // they pay service + turnaround but no row conflicts.
            let charge = match addr {
                Some(placed) => cursor.banks.burst_cost_directed(dir, placed, words),
                None => {
                    let start = cursor.next_word;
                    cursor.next_word = start + words;
                    cursor.banks.stream_cost_directed(dir, start, words)
                }
            };
            if charge.conflict > 0 {
                self.bank_conflicts.fetch_add(1, Ordering::Relaxed);
                self.bank_conflict_cycles.fetch_add(charge.conflict, Ordering::Relaxed);
            }
            if charge.turnaround > 0 {
                self.turnarounds.fetch_add(1, Ordering::Relaxed);
                self.turnaround_cycles.fetch_add(charge.turnaround, Ordering::Relaxed);
            }
            breakdown.conflict = charge.conflict;
            breakdown.turnaround = charge.turnaround;
        }
        breakdown.contention =
            ((self.contention_factor() - 1.0) * base_cycles as f64).round() as u64;
        if breakdown.contention > 0 {
            self.penalty_cycles.fetch_add(breakdown.contention, Ordering::Relaxed);
        }
        breakdown
    }

    /// Aggregate traffic metered so far.
    pub fn stats(&self) -> ArbiterStats {
        ArbiterStats {
            refills: self.refills.load(Ordering::Relaxed),
            words: self.words.load(Ordering::Relaxed),
            penalty_cycles: self.penalty_cycles.load(Ordering::Relaxed),
            bank_conflicts: self.bank_conflicts.load(Ordering::Relaxed),
            bank_conflict_cycles: self.bank_conflict_cycles.load(Ordering::Relaxed),
            turnarounds: self.turnarounds.load(Ordering::Relaxed),
            turnaround_cycles: self.turnaround_cycles.load(Ordering::Relaxed),
        }
    }
}

/// RAII guard marking one CU as active on the shared bus.
#[derive(Debug)]
pub struct CuActivation {
    arbiter: Arc<DramArbiter>,
}

impl Drop for CuActivation {
    fn drop(&mut self) {
        self.arbiter.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One CU's handle to the card's shared arbiter, carried by its
/// [`crate::Device`]. Cloning the handle keeps pointing at the same arbiter.
#[derive(Debug, Clone)]
pub struct ArbiterHandle {
    arbiter: Arc<DramArbiter>,
    cu: usize,
}

impl ArbiterHandle {
    /// Creates a handle for compute unit `cu`.
    pub fn new(arbiter: Arc<DramArbiter>, cu: usize) -> Self {
        ArbiterHandle { arbiter, cu }
    }

    /// The compute unit this handle belongs to.
    pub fn cu(&self) -> usize {
        self.cu
    }

    /// The shared arbiter.
    pub fn arbiter(&self) -> &Arc<DramArbiter> {
        &self.arbiter
    }

    /// Meters one DRAM transfer; see [`DramArbiter::record_refill`].
    pub fn record_refill(&self, words: u64, base_cycles: u64) -> u64 {
        self.arbiter.record_refill(words, base_cycles)
    }

    /// Meters one directed (and optionally placed) DRAM transfer; see
    /// [`DramArbiter::record_refill_directed`].
    pub fn record_refill_directed(
        &self,
        dir: BurstDirection,
        addr: Option<u64>,
        words: u64,
        base_cycles: u64,
    ) -> RefillBreakdown {
        self.arbiter.record_refill_directed(dir, addr, words, base_cycles)
    }

    /// Whether the arbiter charges banked latency to CU clocks.
    pub fn charges_banks(&self) -> bool {
        self.arbiter.charges_banks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_arbiter_charges_no_penalty() {
        let a = Arc::new(DramArbiter::new(0.5));
        // No activation, or a single active CU at share <= 1: factor is 1.
        assert_eq!(a.record_refill(64, 40), 0);
        let _g = a.activate();
        assert_eq!(a.record_refill(64, 40), 0);
        let stats = a.stats();
        assert_eq!(stats.refills, 2);
        assert_eq!(stats.words, 128);
        assert_eq!(stats.penalty_cycles, 0);
    }

    #[test]
    fn saturated_bus_inflates_refills_proportionally() {
        let a = Arc::new(DramArbiter::new(0.5));
        let guards: Vec<_> = (0..4).map(|_| a.activate()).collect();
        assert_eq!(a.active_cus(), 4);
        // 4 CUs x 0.5 share = factor 2: every refill doubles in cost.
        assert!((a.contention_factor() - 2.0).abs() < 1e-12);
        assert_eq!(a.record_refill(16, 100), 100);
        assert_eq!(a.stats().penalty_cycles, 100);
        drop(guards);
        assert_eq!(a.active_cus(), 0);
        assert_eq!(a.record_refill(16, 100), 0);
    }

    #[test]
    fn activation_guard_is_scoped() {
        let a = Arc::new(DramArbiter::new(1.0));
        {
            let _one = a.activate();
            {
                let _two = a.activate();
                assert!((a.contention_factor() - 2.0).abs() < 1e-12);
            }
            assert!((a.contention_factor() - 1.0).abs() < 1e-12);
        }
        assert_eq!(a.active_cus(), 0);
    }

    #[test]
    fn zero_share_never_penalises() {
        let a = Arc::new(DramArbiter::new(0.0));
        let _guards: Vec<_> = (0..8).map(|_| a.activate()).collect();
        assert_eq!(a.record_refill(1024, 10_000), 0);
    }

    #[test]
    fn handles_share_one_arbiter_across_threads() {
        let a = Arc::new(DramArbiter::new(0.5));
        let handles: Vec<ArbiterHandle> =
            (0..4).map(|cu| ArbiterHandle::new(Arc::clone(&a), cu)).collect();
        std::thread::scope(|scope| {
            for h in &handles {
                scope.spawn(move || {
                    let _active = h.arbiter().activate();
                    for _ in 0..100 {
                        h.record_refill(8, 10);
                    }
                });
            }
        });
        let stats = a.stats();
        assert_eq!(stats.refills, 400);
        assert_eq!(stats.words, 3_200);
        // With up to 4 concurrently active CUs at share 0.5 the factor is at
        // most 2, so at most base cycles again in penalties.
        assert!(stats.penalty_cycles <= 4_000);
    }

    #[test]
    #[should_panic(expected = "bandwidth share")]
    fn negative_share_is_rejected() {
        DramArbiter::new(-0.1);
    }

    #[test]
    fn bankless_arbiter_reports_no_bank_activity() {
        let a = Arc::new(DramArbiter::new(0.5));
        a.record_refill(64, 40);
        assert!(!a.has_banks());
        assert!(a.bank_report().is_none());
        assert_eq!(a.stats().bank_conflicts, 0);
        assert_eq!(a.stats().bank_conflict_cycles, 0);
    }

    #[test]
    fn banked_refills_follow_the_interleaving_map() {
        use crate::banks::{DramBanks, Interleaving};
        // 4 banks, 8-word stripes: a 32-word refill touches every bank once.
        let banks = DramBanks::new(4, 8, 8, 8, Interleaving::RoundRobin);
        let a = Arc::new(DramArbiter::with_banks(0.5, banks));
        a.record_refill(32, 12);
        let report = a.bank_report().expect("banks attached");
        assert_eq!(report.accesses, 1);
        assert_eq!(report.max_bank_words, report.min_bank_words, "striped evenly");
        // Tail-append refills are the sequential stream region: prefetchable
        // by the controller, they never pay row conflicts.
        for _ in 0..8 {
            a.record_refill(8, 10);
        }
        assert_eq!(a.bank_report().unwrap().accesses, 9);
        assert_eq!(a.stats().bank_conflicts, 0);
    }

    #[test]
    fn single_bank_interleaving_surfaces_conflict_cycles() {
        use crate::banks::{DramBanks, Interleaving};
        let latency = 8;
        let banks = DramBanks::new(4, 8, latency, 8, Interleaving::SingleBank);
        let a = Arc::new(DramArbiter::with_banks(0.5, banks));
        // Placed row reads on SingleBank: every read lands on bank 0, and
        // each opens a different stripe — a row miss for every read after
        // the first.
        for row in 0..5u64 {
            a.record_refill_directed(BurstDirection::Read, Some(row * 8), 8, 10);
        }
        let stats = a.stats();
        assert_eq!(stats.bank_conflicts, 4);
        assert_eq!(stats.bank_conflict_cycles, 4 * latency);
        assert_eq!(stats.refills, 5);
        // The conflicts are observational: the bandwidth-sharing law is still
        // the only source of injected penalty cycles.
        assert_eq!(stats.penalty_cycles, 0);
        assert!(!a.charges_banks(), "with_banks alone never charges banked latency");
    }

    #[test]
    fn charged_arbiter_returns_the_banked_stall_in_the_breakdown() {
        use crate::banks::{DramBanks, Interleaving};
        let latency = 8;
        let banks =
            DramBanks::new(4, 8, latency, 8, Interleaving::SingleBank).with_turnaround_penalty(4);
        let a = Arc::new(DramArbiter::with_banks_charged(0.5, banks));
        assert!(a.charges_banks());
        assert_eq!(a.bank_geometry(), Some((4, 8)));
        let first = a.record_refill_directed(BurstDirection::Read, Some(0), 8, 10);
        assert_eq!(first.banked_stall(), 0, "nothing to collide or flip against yet");
        let conflict = a.record_refill_directed(BurstDirection::Read, Some(8), 8, 10);
        assert_eq!(conflict.conflict, latency, "row 1 evicts row 0 on bank 0");
        assert_eq!(conflict.turnaround, 0);
        let flip = a.record_refill_directed(BurstDirection::Write, None, 8, 10);
        assert_eq!(flip.conflict, 0, "writes drain via the write buffer — no row conflict");
        assert_eq!(flip.turnaround, 4);
        let stats = a.stats();
        assert_eq!(stats.bank_conflicts, 1);
        assert_eq!(stats.turnarounds, 1);
        assert_eq!(stats.turnaround_cycles, 4);
    }

    #[test]
    fn placed_refills_do_not_disturb_the_tail_cursor() {
        use crate::banks::{DramBanks, Interleaving};
        // 4 banks, 8-word stripes, round-robin.
        let banks = DramBanks::new(4, 8, 8, 8, Interleaving::RoundRobin);
        let a = Arc::new(DramArbiter::with_banks_charged(0.5, banks));
        a.record_refill_directed(BurstDirection::Read, None, 8, 10); // tail: words 0..8
                                                                     // A placed row read opens stripe 0 on bank 0; a second placed read
                                                                     // of stripe 4 (also bank 0) right after it is a row miss.
        let opened = a.record_refill_directed(BurstDirection::Read, Some(0), 4, 10);
        assert_eq!(opened.conflict, 0, "bank 0 had no row-tracked state yet");
        let placed = a.record_refill_directed(BurstDirection::Read, Some(32), 4, 10);
        assert_eq!(placed.conflict, 8);
        // …and the tail stream resumes where it left off (words 8..16): the
        // placed bursts did not advance its cursor, and stream traffic pays
        // no row conflicts.
        let resumed = a.record_refill_directed(BurstDirection::Read, None, 8, 10);
        assert_eq!(resumed.conflict, 0);
        assert_eq!(a.stats().words, 8 + 4 + 4 + 8);
    }
}
