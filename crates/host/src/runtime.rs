//! The concurrent host runtime: one shared CU cluster, many sessions.
//!
//! The paper drives a single FPGA kernel from one CPU process; a production
//! deployment multiplexes many tenants onto one card. [`HostRuntime`] is that
//! multiplexer: a long-lived object owning the loaded graph, a **shared**
//! `(s, t, k)`-keyed [`pefp_core::PreparedQuery`] LRU (lock-striped, so
//! sessions asking the same questions share preprocessing), and a persistent
//! pool of worker threads — one per simulated compute unit, created once —
//! fed by a bounded admission queue.
//!
//! ```text
//!  client A ──┐ submit: pin snapshot,     ┌── worker 0 ── CU 0 ─┐
//!  client B ──┼─ look up + route once ─┬─►├── worker 1 ── CU 1 ─┼─ shared
//!  client C ──┘  (on the caller's      │  └── worker n ── CU n ─┘  DRAM
//!                 thread)              │   admission queue          arbiter
//!                                      │   (bounded, fair: round-robin
//!                                      │    across sessions, LPT within)
//!                                      │        │ miss that routes to a CPU
//!                                      │        ▼ engine (hand-off)
//!                                      └─►  CPU queue ──► CPU workers
//!                       cached + CPU-routed  (FIFO, no lease, no DMA)
//! ```
//!
//! **Admission is the one place a job meets the prepared cache and the
//! router.** [`HostRuntime::submit_query`] pins the current graph snapshot,
//! does the job's one counted cache lookup and reads the route memoised on the
//! entry ([`pefp_core::route_query`] runs once per prepared entry, when it is
//! inserted — never per hit). A hit the router placed on a CPU engine goes
//! straight onto the CPU queue from the caller's thread: it never takes an
//! admission-queue slot and never waits for a CU worker, so a ~5 µs cached
//! query is not stuck behind the enumeration that worker is running. A hit
//! routed to the device is queued *carrying* the entry it found, ordered by
//! the memoised cost. Only a miss reaches a CU worker unprepared; the worker
//! prepares it, routes it once, and inserts entry and route together. (That
//! is what this leaves open: an *uncached* query still prepares on the CU
//! worker, behind whatever that worker is enumerating.)
//!
//! The admission lookup sits directly after the snapshot pin, so it cannot
//! see a staler cache than the worker-side lookup it replaces did: an entry
//! still resident after [`HostRuntime::apply_updates`]' sweep was not touched
//! by the update and answers identically on both epochs, and an entry
//! prepared on an epoch *newer* than the job's pin is never served to it.
//!
//! Scheduling is fair in two dimensions: the admission queue serves
//! **sessions round-robin** (a tenant flooding the queue cannot starve the
//! others) and **longest-estimated-first within a session** (the LPT policy
//! of [`pefp_core::run_prepared_on_cluster`], so a session's heavyweight
//! queries start early).
//! The CPU queue is plain FIFO: only jobs the router predicts cheaper on the
//! CPU than one device launch get there, so there is nothing long to reorder.
//! Both queues are bounded by [`RuntimeConfig::queue_capacity`]:
//! [`HostRuntime::submit_query`] returns [`HostError::QueueFull`] instead of
//! blocking forever — backpressure the caller can act on.
//!
//! Work arrives as **jobs** and completes through [`JobTicket`]s. Dropping a
//! ticket cancels its job: queued jobs are skipped, and a running job's
//! engine observes the flipped [`pefp_core::CancelToken`] at its next batch
//! boundary and stops. Streaming jobs deliver result paths through a bounded
//! channel, so a slow client backpressures its own query without stalling the
//! other compute units.
//!
//! [`crate::HostSession`] is a thin per-client handle over this runtime; the
//! single-session entry points (`HostSession::run_query`, `serve`, …) build a private
//! one-CU runtime, so the paper-shaped workflow is the degenerate case of the
//! multi-tenant one.

use crate::binfmt::payload_bytes;
use crate::dma::{DmaEngine, DmaTransferReport};
use crate::error::HostError;
use crate::loader::GraphHandle;
use crate::query::QueryRequest;
use crate::session::QueryOutcome;
use pefp_baselines::{naive_dfs_stream, BcDfs, Join};
use pefp_core::{
    prepare_snapshot_with, route_query, run_prepared_on_device, CancelToken, EngineChoice,
    PefpVariant, PrepareContext, PreparedQuery, RouteContext, RouteDecision, RoutingTable,
};
use pefp_fpga::{CuCluster, CuLease, DeviceConfig, FaultEvent, FaultPlan, MultiCuConfig};
use pefp_graph::sink::{CollectSink, CountingSink, FnSink};
use pefp_graph::view::GraphView;
use pefp_graph::{Epoch, GraphDelta, GraphSnapshot, VersionedGraph, VertexId};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Identifies one client session within a runtime. Handed out by
/// [`HostRuntime::register_session`]; the admission queue uses it for
/// round-robin fairness and the virtual clock for per-tenant serialisation.
pub type SessionId = u64;

/// Configuration of a [`HostRuntime`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Per-CU device profile.
    pub device: DeviceConfig,
    /// PEFP variant every job runs.
    pub variant: PefpVariant,
    /// Number of simulated compute units — also the number of persistent
    /// worker threads (one per CU, created once at launch).
    pub compute_units: usize,
    /// Fraction of the card's DRAM bandwidth one CU can absorb alone (the
    /// shared arbiter's saturation law; see [`pefp_fpga::DramArbiter`]).
    pub per_cu_bandwidth_share: f64,
    /// Capacity of the bounded admission queue, and of the CPU queue for
    /// jobs dispatched to it at admission. Submissions beyond it fail with
    /// [`HostError::QueueFull`].
    pub queue_capacity: usize,
    /// Total capacity of the shared `(s, t, k)`-keyed prepared-query LRU
    /// (0 disables caching).
    pub shared_cache_capacity: usize,
    /// Number of independently locked stripes the shared cache is split into.
    /// More stripes mean less lock contention but per-stripe (not global) LRU
    /// eviction; 1 reproduces the exact single-map LRU of a private session.
    pub cache_stripes: usize,
    /// Fault schedule the simulated fleet runs under. `None` (the default)
    /// simulates perfect hardware; a seeded plan makes every device the
    /// cluster instantiates draw DRAM/PCIe/stall/crash faults from it (see
    /// [`pefp_fpga::FaultPlan`]).
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// How the runtime reacts to device faults (retries, quarantine,
    /// CPU fallback, engine watchdog).
    pub fault_tolerance: FaultToleranceConfig,
    /// Wall-clock deadline applied to every job that does not override it at
    /// submission ([`HostRuntime::submit_query_with_deadline`]). An
    /// overrunning job is cancelled by the deadline watchdog and fails with
    /// [`HostError::DeadlineExceeded`]. `None` (the default) never kills.
    pub default_deadline: Option<Duration>,
    /// Cost table of the adaptive engine router. `None` (the default) runs
    /// every job on the simulated device exactly as before; `Some(table)`
    /// routes each prepared query to the cheapest engine — a CPU baseline
    /// (skipping the PCIe transfer and the CU lease entirely) or the device —
    /// by the modelled latencies of [`pefp_core::route_query`]. Routing never
    /// changes answers, only placement. With routing on, the CU worker
    /// threads run at the lowest OS priority (nice 19 on Linux), so on a
    /// shared core the CPU pool and the submitters run before device work.
    pub routing: Option<RoutingTable>,
    /// Charge the DRAM bank model's conflict and read↔write turnaround
    /// stalls to CU clocks (see [`pefp_fpga::MultiCuConfig::charge_banked`]).
    /// Off by default so pre-charging cycle counts are reproduced exactly.
    pub charge_banked: bool,
    /// Size of the dedicated CPU worker pool serving router-placed CPU jobs
    /// (only spawned when [`RuntimeConfig::routing`] is set). CPU-routed jobs
    /// never occupy a compute-unit lease, so device throughput is unaffected
    /// by a burst of tiny queries.
    pub cpu_workers: usize,
}

/// Knobs of the runtime's fault-tolerance layer.
#[derive(Debug, Clone)]
pub struct FaultToleranceConfig {
    /// Maximum device retries per job after a detected fault. Retries prefer
    /// a *different* CU than the one that failed (an injected fault stream is
    /// per-CU, so the same CU may fault identically again).
    pub max_retries: u32,
    /// Base backoff between retries; attempt `n` sleeps `n × retry_backoff`
    /// (bounded, linear — a job makes at most `max_retries` hops).
    pub retry_backoff: Duration,
    /// Consecutive failures on one CU before its circuit breaker opens and
    /// the CU is quarantined (jobs steer around it).
    pub quarantine_after: u32,
    /// Number of CU acquisitions to wait before a quarantined CU is probed
    /// back in with a real job (the probe repairs the simulated crash latch
    /// first; a CU that keeps faulting trips the breaker again).
    pub probe_cooldown: u32,
    /// When no healthy CU remains (or retries are exhausted), run the query
    /// on the CPU baseline (`pefp_baselines::naive_dfs_stream`) over the same
    /// pruned subgraph and `PathSink` pipeline instead of failing. Answers
    /// are identical; only the speed degrades.
    pub cpu_fallback: bool,
    /// Engine cycle watchdog: abort a run whose device exceeds this many
    /// simulated kernel cycles (detects injected hangs). Wired into
    /// [`pefp_core::EngineOptions::cycle_budget`]; `None` trusts the CU.
    pub watchdog_cycle_budget: Option<u64>,
}

impl Default for FaultToleranceConfig {
    fn default() -> Self {
        FaultToleranceConfig {
            max_retries: 2,
            retry_backoff: Duration::from_millis(1),
            quarantine_after: 3,
            probe_cooldown: 8,
            cpu_fallback: true,
            watchdog_cycle_budget: None,
        }
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            device: DeviceConfig::alveo_u200(),
            variant: PefpVariant::Full,
            compute_units: 1,
            per_cu_bandwidth_share: MultiCuConfig::default().per_cu_bandwidth_share,
            queue_capacity: 1024,
            shared_cache_capacity: 128,
            cache_stripes: 8,
            fault_plan: None,
            fault_tolerance: FaultToleranceConfig::default(),
            default_deadline: None,
            routing: None,
            charge_banked: false,
            cpu_workers: 2,
        }
    }
}

impl RuntimeConfig {
    /// The single-session shape used when a [`crate::HostSession`] owns its
    /// own private runtime: one CU, one cache stripe (exact LRU semantics),
    /// and the session's device/variant/cache settings.
    pub fn for_session(config: &crate::session::SessionConfig) -> Self {
        RuntimeConfig {
            device: config.device.clone(),
            variant: config.variant,
            compute_units: 1,
            shared_cache_capacity: config.prepared_cache_capacity,
            cache_stripes: 1,
            ..RuntimeConfig::default()
        }
    }
}

// ---------------------------------------------------------------------------
// Job tickets
// ---------------------------------------------------------------------------

/// Shared completion state between a submitted job and its ticket.
#[derive(Debug)]
struct TicketInner<T> {
    slot: Mutex<Option<Result<T, HostError>>>,
    done: Condvar,
    cancel: Arc<AtomicBool>,
    /// Set once the result landed in `slot`; lets the deadline watchdog skip
    /// finished jobs without taking the slot mutex.
    finished: AtomicBool,
    /// Set by the deadline watchdog (together with `cancel`) so completion
    /// sites can distinguish a deadline kill from a voluntary cancellation.
    deadline_exceeded: AtomicBool,
    /// The registered deadline in milliseconds (0 = none), for error context.
    deadline_millis: AtomicU64,
}

impl<T> TicketInner<T> {
    fn new() -> Arc<Self> {
        Arc::new(TicketInner {
            slot: Mutex::new(None),
            done: Condvar::new(),
            cancel: Arc::new(AtomicBool::new(false)),
            finished: AtomicBool::new(false),
            deadline_exceeded: AtomicBool::new(false),
            deadline_millis: AtomicU64::new(0),
        })
    }

    /// Fills the slot and wakes the waiter. It never panics, so a
    /// [`Completion`] may call it while a worker panic unwinds: a poisoned
    /// slot is still whole, since its one update is this assignment.
    fn complete(&self, result: Result<T, HostError>) {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        *slot = Some(result);
        self.finished.store(true, Ordering::Release);
        self.done.notify_all();
    }

    /// The error a cancelled job should fail with: a deadline kill surfaces
    /// as [`HostError::DeadlineExceeded`], everything else as `Cancelled`.
    fn cancel_error(&self) -> HostError {
        if self.deadline_exceeded.load(Ordering::Acquire) {
            HostError::DeadlineExceeded { millis: self.deadline_millis.load(Ordering::Relaxed) }
        } else {
            HostError::Cancelled
        }
    }
}

/// The worker side of a queued job's ticket. Dropping it before the job
/// completed — a worker panic unwinding through the job — completes the
/// ticket with [`HostError::Abandoned`], so no waiter parks forever.
struct Completion(Arc<TicketInner<QueryOutcome>>);

impl std::ops::Deref for Completion {
    type Target = TicketInner<QueryOutcome>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl Drop for Completion {
    fn drop(&mut self) {
        if !self.0.finished.load(Ordering::Acquire) {
            self.0.complete(Err(HostError::Abandoned));
        }
    }
}

/// A claim on the result of one submitted job.
///
/// Await the result with [`JobTicket::wait`]. Dropping the ticket without
/// waiting **cancels** the job: if it is still queued it is skipped, and if
/// it is running the engine stops at its next batch boundary — the abandoned
/// query stops burning its compute unit.
#[derive(Debug)]
pub struct JobTicket<T> {
    inner: Arc<TicketInner<T>>,
    /// Whether dropping this ticket should cancel the job (cleared by
    /// `wait`, which consumes the ticket deliberately).
    armed: bool,
}

impl<T> JobTicket<T> {
    /// Blocks until the job completes and returns its result.
    pub fn wait(mut self) -> Result<T, HostError> {
        self.armed = false;
        let mut slot = self.inner.slot.lock().expect("ticket poisoned");
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.inner.done.wait(slot).expect("ticket poisoned");
        }
    }

    /// Requests cancellation without consuming the ticket: a queued job is
    /// skipped, a running job stops at its next batch boundary (its result so
    /// far is still delivered).
    pub fn cancel(&self) {
        self.inner.cancel.store(true, Ordering::Release);
    }

    /// Whether the job has already produced its result.
    pub fn is_finished(&self) -> bool {
        self.inner.slot.lock().expect("ticket poisoned").is_some()
    }
}

impl<T> Drop for JobTicket<T> {
    fn drop(&mut self) {
        if self.armed {
            self.inner.cancel.store(true, Ordering::Release);
        }
    }
}

// ---------------------------------------------------------------------------
// Jobs and the admission queue
// ---------------------------------------------------------------------------

/// How a job delivers its result paths.
enum JobKind {
    /// Materialise the paths into the outcome (`QueryOutcome::paths`).
    Collect,
    /// Count only.
    Count,
    /// Push every path (original graph ids) into a bounded channel as it is
    /// found. A full channel backpressures only this job's CU; a dropped
    /// receiver terminates the enumeration.
    Stream(SyncSender<Vec<VertexId>>),
}

/// One unit of work flowing through the admission queue.
struct Job {
    session: SessionId,
    request: QueryRequest,
    kind: JobKind,
    /// The graph epoch this job was admitted under. The job runs against this
    /// snapshot even if [`HostRuntime::apply_updates`] lands newer epochs
    /// while it is queued or running — a query's answer is always consistent
    /// with *one* version of the graph.
    snapshot: Arc<GraphSnapshot>,
    ticket: Completion,
    /// The cache entry admission found for this job — always device-routed,
    /// because a CPU-routed hit never enters this queue. `None` is a miss:
    /// the worker looks once more (another job may have prepared the query
    /// meanwhile) and otherwise prepares, routes and inserts it.
    hit: Option<CacheHit>,
}

/// A job queued with its scheduling metadata.
struct QueuedJob {
    seq: u64,
    estimate: u64,
    job: Job,
}

/// The jobs one session currently has queued.
struct SessionLane {
    session: SessionId,
    jobs: Vec<QueuedJob>,
}

struct QueueState {
    capacity: usize,
    len: usize,
    next_seq: u64,
    /// Lanes in round-robin order; the front lane is served next.
    lanes: VecDeque<SessionLane>,
    shutdown: bool,
}

/// Bounded MPMC admission queue with per-session fairness: sessions are
/// served round-robin, and within a session the job with the largest
/// estimate runs first (LPT). `submit` never blocks — a full queue is a
/// [`HostError::QueueFull`] the caller handles.
struct AdmissionQueue {
    state: Mutex<QueueState>,
    job_ready: Condvar,
}

impl AdmissionQueue {
    fn new(capacity: usize) -> Self {
        AdmissionQueue {
            state: Mutex::new(QueueState {
                capacity: capacity.max(1),
                len: 0,
                next_seq: 0,
                lanes: VecDeque::new(),
                shutdown: false,
            }),
            job_ready: Condvar::new(),
        }
    }

    /// Enqueues a group of jobs atomically (all admitted or none, so a batch
    /// cannot be half-accepted). Returns `QueueFull` when the group does not
    /// fit the remaining capacity — but first reclaims the slots of queued
    /// jobs whose tickets were already cancelled, so dead work cannot wedge
    /// the queue shut. On success, returns how many cancelled jobs were
    /// pruned (their tickets are completed with [`HostError::Cancelled`]).
    fn submit_many(&self, jobs: Vec<(Job, u64)>) -> Result<u64, HostError> {
        let mut state = self.state.lock().expect("admission queue poisoned");
        if state.shutdown {
            return Err(HostError::Cancelled);
        }
        let mut pruned = 0u64;
        if state.len + jobs.len() > state.capacity {
            pruned = Self::prune_cancelled(&mut state);
            if state.len + jobs.len() > state.capacity {
                return Err(HostError::QueueFull);
            }
        }
        for (job, estimate) in jobs {
            let seq = state.next_seq;
            state.next_seq += 1;
            let queued = QueuedJob { seq, estimate, job };
            match state.lanes.iter_mut().find(|lane| lane.session == queued.job.session) {
                Some(lane) => lane.jobs.push(queued),
                None => state
                    .lanes
                    .push_back(SessionLane { session: queued.job.session, jobs: vec![queued] }),
            }
            state.len += 1;
            self.job_ready.notify_one();
        }
        Ok(pruned)
    }

    #[cfg(test)]
    fn submit(&self, job: Job, estimate: u64) -> Result<u64, HostError> {
        self.submit_many(vec![(job, estimate)])
    }

    /// Drops every queued job whose ticket was cancelled, completing its
    /// ticket with [`HostError::Cancelled`], and returns how many were
    /// removed. The ticket mutex is a leaf lock (never held while taking the
    /// queue lock), so completing under the queue lock cannot deadlock.
    fn prune_cancelled(state: &mut QueueState) -> u64 {
        let mut removed = 0u64;
        for lane in state.lanes.iter_mut() {
            lane.jobs.retain(|queued| {
                if queued.job.ticket.cancel.load(Ordering::Acquire) {
                    queued.job.ticket.complete(Err(queued.job.ticket.cancel_error()));
                    removed += 1;
                    false
                } else {
                    true
                }
            });
        }
        state.lanes.retain(|lane| !lane.jobs.is_empty());
        state.len -= removed as usize;
        removed
    }

    /// Takes the next job: the front lane's largest-estimate entry (ties to
    /// the earliest submission), after which the lane rotates to the back.
    /// Blocks while the queue is empty; returns `None` on shutdown.
    fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().expect("admission queue poisoned");
        loop {
            if state.shutdown {
                return None;
            }
            if state.len > 0 {
                let mut lane = state.lanes.pop_front().expect("len > 0 implies a lane");
                let pick = lane
                    .jobs
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, j)| (j.estimate, std::cmp::Reverse(j.seq)))
                    .map(|(i, _)| i)
                    .expect("lanes are never empty");
                let queued = lane.jobs.swap_remove(pick);
                if !lane.jobs.is_empty() {
                    state.lanes.push_back(lane);
                }
                state.len -= 1;
                return Some(queued.job);
            }
            state = self.job_ready.wait(state).expect("admission queue poisoned");
        }
    }

    fn depth(&self) -> usize {
        self.state.lock().expect("admission queue poisoned").len
    }

    /// Stops the queue: wakes every worker (which then exit) and returns the
    /// jobs still queued so their tickets can be failed.
    fn shutdown(&self) -> Vec<Job> {
        let mut state = self.state.lock().expect("admission queue poisoned");
        state.shutdown = true;
        state.len = 0;
        let drained =
            state.lanes.drain(..).flat_map(|lane| lane.jobs.into_iter().map(|q| q.job)).collect();
        self.job_ready.notify_all();
        drained
    }
}

// ---------------------------------------------------------------------------
// CPU engine pool (router-placed jobs)
// ---------------------------------------------------------------------------

/// The CPU engine a routed (or fault-degraded) job runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CpuEngine {
    /// Barrier-carrying DFS, seeded with the prepared query's Pre-BFS
    /// barrier.
    BcDfs,
    /// The half-depth JOIN baseline.
    Join,
    /// The brute-force DFS oracle — the last resort when no routing table is
    /// configured.
    Naive,
}

/// Engine accounting lanes: the device (single- or multi-CU) plus the three
/// CPU engines ([`DEVICE_LANE`] and [`CpuEngine::lane`] pick the index).
const ENGINE_LANES: usize = 4;
/// Lane names, in lane order (`stats.engines` and the server's `STATS` JSON
/// use these).
const ENGINE_LANE_NAMES: [&str; ENGINE_LANES] = ["device", "bc_dfs", "join", "naive"];
/// The device's accounting lane.
const DEVICE_LANE: usize = 0;

impl CpuEngine {
    fn lane(self) -> usize {
        match self {
            CpuEngine::BcDfs => 1,
            CpuEngine::Join => 2,
            CpuEngine::Naive => 3,
        }
    }
}

/// A job the router placed on a CPU engine, preprocessing already done. It
/// is built where the route becomes known: on the submitter's thread when
/// admission finds the query cached (`cache_hit`), on a CU worker when the
/// query had to be prepared first. Either way it is served by the dedicated
/// CPU pool and never occupies a CU lease, so a burst of tiny queries cannot
/// stall device work — nor wait behind it.
struct CpuJob {
    request: QueryRequest,
    kind: JobKind,
    prepared: Arc<PreparedQuery>,
    engine: CpuEngine,
    preprocess_millis: f64,
    cache_hit: bool,
    ticket: Completion,
}

struct CpuQueueState {
    capacity: usize,
    jobs: VecDeque<CpuJob>,
    shutdown: bool,
}

/// FIFO queue feeding the CPU pool, with two producers. Submitters push
/// cached CPU-routed jobs directly ([`CpuQueue::submit_many`]); that is an
/// admission, so it is bounded and fails with [`HostError::QueueFull`]. CU
/// workers hand over jobs they prepared and routed ([`CpuQueue::push`]);
/// those were admitted at the admission queue already, so the hand-off never
/// rejects for capacity and only fails after shutdown.
struct CpuQueue {
    state: Mutex<CpuQueueState>,
    ready: Condvar,
}

impl CpuQueue {
    fn new(capacity: usize) -> Self {
        CpuQueue {
            state: Mutex::new(CpuQueueState {
                capacity: capacity.max(1),
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Admission-time push of a group, all or nothing *together with*
    /// `admit_rest` (the same submission's admission-queue half): room for
    /// `jobs` is checked first, `admit_rest` runs under this queue's lock, and
    /// `jobs` are pushed only once it succeeded — so a mixed batch is never
    /// half-accepted. Passes `admit_rest`'s result through.
    fn submit_many(
        &self,
        jobs: Vec<CpuJob>,
        admit_rest: impl FnOnce() -> Result<u64, HostError>,
    ) -> Result<u64, HostError> {
        let mut state = self.state.lock().expect("cpu queue poisoned");
        if state.shutdown {
            return Err(HostError::Cancelled);
        }
        // Hand-offs may have filled the queue past `capacity`; that only
        // concerns a submission that wants a slot here.
        if !jobs.is_empty() && state.jobs.len() + jobs.len() > state.capacity {
            return Err(HostError::QueueFull);
        }
        let pruned = admit_rest()?;
        for job in jobs {
            state.jobs.push_back(job);
            self.ready.notify_one();
        }
        Ok(pruned)
    }

    fn push(&self, job: CpuJob) -> Result<(), CpuJob> {
        let mut state = self.state.lock().expect("cpu queue poisoned");
        if state.shutdown {
            return Err(job);
        }
        state.jobs.push_back(job);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next CPU job; `None` on shutdown.
    fn pop(&self) -> Option<CpuJob> {
        let mut state = self.state.lock().expect("cpu queue poisoned");
        loop {
            if state.shutdown {
                return None;
            }
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            state = self.ready.wait(state).expect("cpu queue poisoned");
        }
    }

    fn depth(&self) -> usize {
        self.state.lock().expect("cpu queue poisoned").jobs.len()
    }

    /// Stops the queue and returns the jobs still queued so their tickets can
    /// be failed.
    fn shutdown(&self) -> Vec<CpuJob> {
        let mut state = self.state.lock().expect("cpu queue poisoned");
        state.shutdown = true;
        let drained = state.jobs.drain(..).collect();
        self.ready.notify_all();
        drained
    }
}

// ---------------------------------------------------------------------------
// Shared prepared-query cache (lock-striped LRU)
// ---------------------------------------------------------------------------

/// The router's verdict on one prepared entry, memoised beside it. Routing is
/// deterministic in the prepared query, the table and the runtime's
/// [`RouteContext`], so it is computed once, by whoever inserts the entry,
/// and every later hit reads it back.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Route {
    choice: EngineChoice,
    /// Modelled latency of `choice` in microseconds: the LPT key of every
    /// job that hits the entry.
    cost_estimate_us: f64,
}

impl Route {
    /// The CPU engine the route names; `None` for a device route.
    fn cpu_engine(&self) -> Option<CpuEngine> {
        match self.choice {
            EngineChoice::CpuBcDfs => Some(CpuEngine::BcDfs),
            EngineChoice::CpuJoin => Some(CpuEngine::Join),
            EngineChoice::DeviceSingleCu => None,
        }
    }
}

/// What a cache lookup hands out: the prepared query and its memoised route
/// (`None` exactly when the runtime has no routing table).
#[derive(Debug, Clone)]
struct CacheHit {
    prepared: Arc<PreparedQuery>,
    route: Option<Route>,
}

#[derive(Debug)]
struct CacheEntry {
    /// LRU recency stamp.
    stamp: u64,
    /// The graph epoch the entry was prepared on. A job pinned to an older
    /// epoch must not be served from it.
    prepared_epoch: Epoch,
    hit: CacheHit,
}

/// One stripe: an `(s, t, k)`-keyed LRU with its own lock.
#[derive(Debug)]
struct CacheShard {
    capacity: usize,
    tick: u64,
    entries: HashMap<QueryRequest, CacheEntry>,
}

impl CacheShard {
    /// The entry under `key` as a job pinned to epoch `pinned` may use it: an
    /// entry prepared on a newer epoch is invisible to that job.
    fn get(&mut self, key: &QueryRequest, pinned: Epoch) -> Option<CacheHit> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.entries.get_mut(key).filter(|e| e.prepared_epoch <= pinned)?;
        entry.stamp = tick;
        Some(entry.hit.clone())
    }

    fn insert(&mut self, key: QueryRequest, hit: CacheHit, prepared_epoch: Epoch) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            if let Some(oldest) = self.entries.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| *k)
            {
                self.entries.remove(&oldest);
            }
        }
        self.entries.insert(key, CacheEntry { stamp: self.tick, prepared_epoch, hit });
    }

    /// Drops every entry whose BFS-touched vertex set intersects `touched`
    /// (sorted, deduplicated) and returns how many were evicted. Entries whose
    /// preprocessing never saw a touched vertex answer identically on the new
    /// epoch, so they survive.
    fn invalidate(&mut self, touched: &[VertexId]) -> u64 {
        let before = self.entries.len();
        self.entries.retain(|_, e| !e.hit.prepared.touched.intersects(touched));
        (before - self.entries.len()) as u64
    }
}

/// The shared prepared-query LRU: `(s, t, k)` keys hashed onto independently
/// locked stripes, so concurrent sessions rarely contend on the same lock.
/// Entries are `Arc`s over O(touched)-sized subgraphs, so even a full cache
/// stays proportional to the served working set.
#[derive(Debug)]
struct SharedPreparedCache {
    shards: Vec<Mutex<CacheShard>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SharedPreparedCache {
    fn new(capacity: usize, stripes: usize) -> Self {
        let stripes = if capacity == 0 { 1 } else { stripes.clamp(1, capacity) };
        let base = capacity / stripes;
        let remainder = capacity % stripes;
        let shards = (0..stripes)
            .map(|i| {
                let cap = base + usize::from(i < remainder);
                Mutex::new(CacheShard { capacity: cap, tick: 0, entries: HashMap::new() })
            })
            .collect();
        SharedPreparedCache { shards, hits: AtomicU64::new(0), misses: AtomicU64::new(0) }
    }

    fn shard_of(&self, key: &QueryRequest) -> usize {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() as usize) % self.shards.len()
    }

    /// The admission lookup for a job pinned to epoch `pinned`. Counts a hit;
    /// a miss is left uncounted because the job's lookup is not over — the
    /// worker that pops it asks once more through [`SharedPreparedCache::get`],
    /// which settles it. Together the two count exactly one hit or one miss
    /// per served job.
    fn get_at_admission(&self, key: &QueryRequest, pinned: Epoch) -> Option<CacheHit> {
        let hit =
            self.shards[self.shard_of(key)].lock().expect("cache shard poisoned").get(key, pinned);
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// The worker-side lookup of a job that missed at admission: counts a hit
    /// or a miss.
    fn get(&self, key: &QueryRequest, pinned: Epoch) -> Option<CacheHit> {
        let hit = self.get_at_admission(key, pinned);
        if hit.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Reads an entry without bumping its LRU recency or the hit/miss
    /// counters. Used by `EXPLAIN`, which must not skew the serving
    /// statistics.
    fn peek(&self, key: &QueryRequest) -> Option<Arc<PreparedQuery>> {
        self.shards[self.shard_of(key)]
            .lock()
            .expect("cache shard poisoned")
            .entries
            .get(key)
            .map(|e| Arc::clone(&e.hit.prepared))
    }

    #[cfg(test)]
    fn insert(&self, key: QueryRequest, prep: Arc<PreparedQuery>) {
        self.shards[self.shard_of(&key)].lock().expect("cache shard poisoned").insert(
            key,
            CacheHit { prepared: prep, route: None },
            0,
        );
    }

    /// Inserts `hit` only if the runtime is still on the epoch the entry was
    /// prepared under, checked *under the shard lock*. This closes the race
    /// with [`HostRuntime::apply_updates`], which stores the new epoch before
    /// sweeping the shards: if the worker sees the old epoch here, its insert
    /// lands before the sweep (same lock) and the sweep evicts it if stale; if
    /// it sees the new epoch, the entry is simply dropped — which is also why
    /// a job pinned to an old epoch can never overwrite a newer entry.
    fn insert_if_epoch(
        &self,
        key: QueryRequest,
        hit: CacheHit,
        prepared_epoch: Epoch,
        current: &AtomicU64,
    ) {
        let mut shard = self.shards[self.shard_of(&key)].lock().expect("cache shard poisoned");
        if current.load(Ordering::Acquire) == prepared_epoch {
            shard.insert(key, hit, prepared_epoch);
        }
    }

    /// Sweeps every shard, evicting entries touched by an update. Returns the
    /// number of evicted entries.
    fn invalidate(&self, touched: &[VertexId]) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").invalidate(touched))
            .sum()
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard poisoned").entries.len()).sum()
    }
}

// ---------------------------------------------------------------------------
// Deadline watchdog
// ---------------------------------------------------------------------------

/// One job under deadline supervision. Weak, so a dropped ticket never keeps
/// its completion state alive through the watchdog.
struct DeadlineEntry {
    due: Instant,
    ticket: Weak<TicketInner<QueryOutcome>>,
}

/// State of the deadline watchdog thread.
struct DeadlineState {
    entries: Vec<DeadlineEntry>,
    shutdown: bool,
}

/// The watchdog loop: sleeps until the earliest registered deadline (or a
/// coarse idle tick), then kills every overdue unfinished job by flipping its
/// cancel flag — the engine observes it at the next batch boundary and the
/// completion site converts the cancellation into
/// [`HostError::DeadlineExceeded`].
fn deadline_watchdog(shared: Arc<RuntimeShared>) {
    let mut state = shared.deadlines.lock().expect("deadline table poisoned");
    loop {
        if state.shutdown {
            return;
        }
        let now = Instant::now();
        state.entries.retain(|entry| match entry.ticket.upgrade() {
            None => false,
            Some(ticket) => {
                if ticket.finished.load(Ordering::Acquire) {
                    false
                } else if entry.due <= now {
                    ticket.deadline_exceeded.store(true, Ordering::Release);
                    ticket.cancel.store(true, Ordering::Release);
                    shared.counters.deadline_kills.fetch_add(1, Ordering::Relaxed);
                    false
                } else {
                    true
                }
            }
        });
        let wait = state
            .entries
            .iter()
            .map(|e| e.due)
            .min()
            .map(|due| due.saturating_duration_since(now))
            .unwrap_or(Duration::from_millis(100))
            .max(Duration::from_millis(1));
        let (guard, _) =
            shared.deadline_cv.wait_timeout(state, wait).expect("deadline table poisoned");
        state = guard;
    }
}

// ---------------------------------------------------------------------------
// Per-CU health (circuit breaker)
// ---------------------------------------------------------------------------

/// Health record of one compute unit.
#[derive(Debug, Clone, Copy, Default)]
struct CuHealthState {
    /// Consecutive job failures; reset by any success.
    consecutive_failures: u32,
    /// Whether the circuit breaker is open (jobs steer around this CU).
    quarantined: bool,
    /// Acquisitions remaining before a probe may try this CU again.
    probe_cooldown: u32,
}

/// The runtime's per-CU circuit breaker: `quarantine_after` consecutive
/// failures open the breaker, after which jobs avoid the CU; every
/// `probe_cooldown` acquisitions one quarantined CU is offered back as a
/// *probe* (a real job — correctness is protected by the retry/fallback
/// machinery, so a probe can never corrupt an answer). A successful probe
/// closes the breaker; a failed one restarts the cooldown.
#[derive(Debug)]
struct CuHealth {
    states: Mutex<Vec<CuHealthState>>,
}

impl CuHealth {
    fn new(cus: usize) -> Self {
        CuHealth { states: Mutex::new(vec![CuHealthState::default(); cus.max(1)]) }
    }

    fn record_success(&self, cu: usize) {
        let mut states = self.states.lock().expect("health table poisoned");
        states[cu].consecutive_failures = 0;
        states[cu].quarantined = false;
    }

    /// Records a failure; returns `true` when this failure newly opened the
    /// breaker (for the quarantine-event counter).
    fn record_failure(&self, cu: usize, quarantine_after: u32, cooldown: u32) -> bool {
        let mut states = self.states.lock().expect("health table poisoned");
        let state = &mut states[cu];
        state.consecutive_failures += 1;
        if state.quarantined {
            // A failed probe: restart the cooldown.
            state.probe_cooldown = cooldown.max(1);
            false
        } else if state.consecutive_failures >= quarantine_after.max(1) {
            state.quarantined = true;
            state.probe_cooldown = cooldown.max(1);
            true
        } else {
            false
        }
    }

    /// CUs the breaker allows, preferring to exclude `avoid` (the CU that
    /// just failed this job) unless it is the only healthy one left.
    fn healthy(&self, avoid: Option<usize>) -> Vec<usize> {
        let states = self.states.lock().expect("health table poisoned");
        let mut list: Vec<usize> =
            states.iter().enumerate().filter(|(_, s)| !s.quarantined).map(|(cu, _)| cu).collect();
        if let Some(avoid) = avoid {
            if list.len() > 1 {
                list.retain(|&cu| cu != avoid);
            }
        }
        list
    }

    fn quarantined_count(&self) -> usize {
        self.states.lock().expect("health table poisoned").iter().filter(|s| s.quarantined).count()
    }

    /// Ticks every quarantined CU's cooldown by one acquisition and returns a
    /// CU that is due for a probe, resetting its cooldown so concurrent
    /// acquirers do not all probe the same CU. With `force` (no healthy CU
    /// left) the closest-to-ready quarantined CU is returned regardless of
    /// its remaining cooldown — the fleet must keep making progress.
    fn probe_ready(&self, force: bool, cooldown_reset: u32) -> Option<usize> {
        let mut states = self.states.lock().expect("health table poisoned");
        let mut ready = None;
        for (cu, state) in states.iter_mut().enumerate() {
            if !state.quarantined {
                continue;
            }
            if state.probe_cooldown > 0 {
                state.probe_cooldown -= 1;
            }
            if ready.is_none() && state.probe_cooldown == 0 {
                ready = Some(cu);
            }
        }
        if ready.is_none() && force {
            ready = states
                .iter()
                .enumerate()
                .filter(|(_, s)| s.quarantined)
                .min_by_key(|(_, s)| s.probe_cooldown)
                .map(|(cu, _)| cu);
        }
        if let Some(cu) = ready {
            states[cu].probe_cooldown = cooldown_reset.max(1);
        }
        ready
    }
}

// ---------------------------------------------------------------------------
// Runtime statistics
// ---------------------------------------------------------------------------

/// Live counters of a runtime (atomics updated by workers).
#[derive(Debug)]
struct RuntimeCounters {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    queue_full: AtomicU64,
    cancelled: AtomicU64,
    graph_updates: AtomicU64,
    cache_invalidated: AtomicU64,
    per_cu_busy_cycles: Vec<AtomicU64>,
    per_cu_jobs: Vec<AtomicU64>,
    per_cu_bank_conflict_cycles: Vec<AtomicU64>,
    per_cu_turnaround_cycles: Vec<AtomicU64>,
    next_session: AtomicU64,
    /// Device faults observed by jobs (each failed attempt counts once).
    device_faults: AtomicU64,
    /// Device retries performed after a fault.
    fault_retries: AtomicU64,
    /// Times a CU's circuit breaker newly opened.
    quarantine_events: AtomicU64,
    /// Queries answered by the CPU fallback engine.
    cpu_fallbacks: AtomicU64,
    /// Jobs killed by the deadline watchdog.
    deadline_kills: AtomicU64,
    /// Streaming jobs that surfaced [`HostError::FaultAfterEmit`].
    fault_after_emit: AtomicU64,
    /// Jobs the router placed on a CPU engine (fault degradations excluded).
    cpu_routed: AtomicU64,
    /// Jobs answered per engine lane (see [`ENGINE_LANE_NAMES`]).
    engine_jobs: [AtomicU64; ENGINE_LANES],
    /// Summed serving latency per engine lane, in microseconds: modelled
    /// device time for the device lane, host wall time for the CPU lanes.
    engine_micros: [AtomicU64; ENGINE_LANES],
}

/// Records one answered job against an engine lane.
fn record_engine(shared: &RuntimeShared, lane: usize, millis: f64) {
    shared.counters.engine_jobs[lane].fetch_add(1, Ordering::Relaxed);
    shared.counters.engine_micros[lane]
        .fetch_add((millis * 1e3).max(0.0).round() as u64, Ordering::Relaxed);
}

/// Per-tenant virtual time: each session's jobs are serialised on the
/// session's own clock (a tenant is a closed loop), and each job is placed on
/// the **virtually least-loaded CU**, occupying
/// `max(session ready, CU free) .. + cycles`. Charging the virtual CU rather
/// than the physical one matters for the same reason the dispatch queue of
/// [`pefp_core::run_prepared_on_cluster`] gates pops on simulated load: on a
/// busy or small host the OS may run many jobs on few threads back to back,
/// and binding virtual time to that wall assignment would collide tenants
/// onto one virtual CU and corrupt the makespan. The largest completion time is the runtime's
/// simulated makespan — a machine-independent throughput denominator
/// (queries / makespan) for the `host_concurrency/sessions4` gate case.
#[derive(Debug)]
struct VirtualClock {
    session_ready: HashMap<SessionId, u64>,
    cu_free: Vec<u64>,
    makespan: u64,
    total_cycles: u64,
}

/// Per-engine serving statistics: one row per engine lane, in the fixed lane
/// order `device`, `bc_dfs`, `join`, `naive`.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineLaneStats {
    /// Engine name (`"device"`, `"bc_dfs"`, `"join"` or `"naive"`).
    pub engine: &'static str,
    /// Jobs this engine answered.
    pub jobs: u64,
    /// Summed serving latency in milliseconds: modelled device time for the
    /// device lane, host wall time for the CPU lanes.
    pub total_millis: f64,
}

impl EngineLaneStats {
    /// Mean serving latency in milliseconds (0 with no jobs).
    pub fn mean_millis(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.total_millis / self.jobs as f64
        }
    }
}

/// A point-in-time snapshot of a runtime's behaviour, served by
/// [`HostRuntime::stats`] (and the server's `STATS` command, as JSON).
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeStats {
    /// Number of compute units (= persistent workers).
    pub compute_units: usize,
    /// Jobs currently waiting to be served (admission queue plus CPU queue).
    pub queue_depth: usize,
    /// Capacity of the admission queue, and of the CPU queue for jobs
    /// dispatched to it at admission.
    pub queue_capacity: usize,
    /// Jobs accepted into a queue so far.
    pub submitted: u64,
    /// Jobs that ran to a result (including early-terminated ones).
    pub completed: u64,
    /// Jobs rejected at submission (validation) or staging (capacity).
    pub rejected: u64,
    /// Submissions refused with [`HostError::QueueFull`].
    pub queue_full_rejections: u64,
    /// Jobs cancelled before or during execution.
    pub cancelled_jobs: u64,
    /// Shared-cache lookups served from the cache.
    pub cache_hits: u64,
    /// Shared-cache lookups that had to preprocess.
    pub cache_misses: u64,
    /// Prepared queries currently resident in the shared cache.
    pub cached_prepared_queries: usize,
    /// Current graph epoch (0 until the first [`HostRuntime::apply_updates`]).
    pub epoch: u64,
    /// Update batches applied through [`HostRuntime::apply_updates`].
    pub graph_updates: u64,
    /// Cached prepared queries evicted by update invalidation sweeps.
    pub cache_invalidated: u64,
    /// Simulated busy cycles per CU (contention stalls included), in the
    /// virtual placement domain — the same clock the makespan lives in, so
    /// `busy / makespan` is a true utilisation fraction.
    pub per_cu_busy_cycles: Vec<u64>,
    /// Jobs placed per CU (virtual placement domain).
    pub per_cu_jobs: Vec<u64>,
    /// Bank-conflict stall cycles charged per CU — all zeros unless
    /// [`RuntimeConfig::charge_banked`] is on.
    pub per_cu_bank_conflict_cycles: Vec<u64>,
    /// Read↔write turnaround stall cycles charged per CU (zeros unless
    /// banked charging is on).
    pub per_cu_turnaround_cycles: Vec<u64>,
    /// Virtual-time makespan over all completed jobs (see the queueing model
    /// in the module docs): total device work serialised per session and per
    /// CU. `total_device_cycles / makespan` ≈ achieved CU parallelism.
    pub virtual_makespan_cycles: u64,
    /// Sum of all completed jobs' device cycles.
    pub total_device_cycles: u64,
    /// Device faults observed by jobs (each failed attempt counts once).
    pub device_faults: u64,
    /// Faults the plan injected so far (plan telemetry; ≥ `device_faults`
    /// because undetected stalls also count). 0 without a fault plan.
    pub faults_injected: u64,
    /// Device retries performed after faults.
    pub fault_retries: u64,
    /// Times a CU's circuit breaker newly opened.
    pub quarantine_events: u64,
    /// CUs currently quarantined.
    pub quarantined_cus: usize,
    /// Queries answered by the CPU fallback engine.
    pub cpu_fallbacks: u64,
    /// Jobs killed by the deadline watchdog.
    pub deadline_kills: u64,
    /// Streaming jobs aborted with [`HostError::FaultAfterEmit`].
    pub fault_after_emit: u64,
    /// Jobs the adaptive router placed on a CPU engine (fault degradations
    /// not included; 0 when [`RuntimeConfig::routing`] is `None`).
    pub cpu_routed: u64,
    /// Per-engine serving counters, in lane order `device`, `bc_dfs`,
    /// `join`, `naive`.
    pub engines: Vec<EngineLaneStats>,
}

impl RuntimeStats {
    /// Fraction of cache lookups served from the shared cache (0 when no
    /// lookup happened yet).
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }

    /// Per-CU utilisation over the virtual makespan (busy cycles divided by
    /// the makespan; all zeros before any job completed).
    pub fn per_cu_utilisation(&self) -> Vec<f64> {
        if self.virtual_makespan_cycles == 0 {
            return vec![0.0; self.per_cu_busy_cycles.len()];
        }
        self.per_cu_busy_cycles
            .iter()
            .map(|&busy| busy as f64 / self.virtual_makespan_cycles as f64)
            .collect()
    }
}

impl pefp_workload::ToJson for RuntimeStats {
    fn to_json(&self) -> pefp_workload::JsonValue {
        use pefp_workload::JsonValue;
        JsonValue::object(vec![
            ("compute_units", JsonValue::Number(self.compute_units as f64)),
            ("queue_depth", JsonValue::Number(self.queue_depth as f64)),
            ("queue_capacity", JsonValue::Number(self.queue_capacity as f64)),
            ("submitted", JsonValue::Number(self.submitted as f64)),
            ("completed", JsonValue::Number(self.completed as f64)),
            ("rejected", JsonValue::Number(self.rejected as f64)),
            ("queue_full_rejections", JsonValue::Number(self.queue_full_rejections as f64)),
            ("cancelled_jobs", JsonValue::Number(self.cancelled_jobs as f64)),
            ("cache_hits", JsonValue::Number(self.cache_hits as f64)),
            ("cache_misses", JsonValue::Number(self.cache_misses as f64)),
            ("cache_hit_rate", JsonValue::Number(self.cache_hit_rate())),
            ("cached_prepared_queries", JsonValue::Number(self.cached_prepared_queries as f64)),
            ("epoch", JsonValue::Number(self.epoch as f64)),
            ("graph_updates", JsonValue::Number(self.graph_updates as f64)),
            ("cache_invalidated", JsonValue::Number(self.cache_invalidated as f64)),
            (
                "per_cu_busy_cycles",
                JsonValue::numbers(
                    &self.per_cu_busy_cycles.iter().map(|&c| c as f64).collect::<Vec<_>>(),
                ),
            ),
            (
                "per_cu_jobs",
                JsonValue::numbers(&self.per_cu_jobs.iter().map(|&c| c as f64).collect::<Vec<_>>()),
            ),
            (
                "per_cu_bank_conflict_cycles",
                JsonValue::numbers(
                    &self.per_cu_bank_conflict_cycles.iter().map(|&c| c as f64).collect::<Vec<_>>(),
                ),
            ),
            (
                "per_cu_turnaround_cycles",
                JsonValue::numbers(
                    &self.per_cu_turnaround_cycles.iter().map(|&c| c as f64).collect::<Vec<_>>(),
                ),
            ),
            ("per_cu_utilisation", JsonValue::numbers(&self.per_cu_utilisation())),
            ("virtual_makespan_cycles", JsonValue::Number(self.virtual_makespan_cycles as f64)),
            ("total_device_cycles", JsonValue::Number(self.total_device_cycles as f64)),
            ("device_faults", JsonValue::Number(self.device_faults as f64)),
            ("faults_injected", JsonValue::Number(self.faults_injected as f64)),
            ("fault_retries", JsonValue::Number(self.fault_retries as f64)),
            ("quarantine_events", JsonValue::Number(self.quarantine_events as f64)),
            ("quarantined_cus", JsonValue::Number(self.quarantined_cus as f64)),
            ("cpu_fallbacks", JsonValue::Number(self.cpu_fallbacks as f64)),
            ("deadline_kills", JsonValue::Number(self.deadline_kills as f64)),
            ("fault_after_emit", JsonValue::Number(self.fault_after_emit as f64)),
            ("cpu_routed", JsonValue::Number(self.cpu_routed as f64)),
            (
                "engines",
                JsonValue::Object(
                    self.engines
                        .iter()
                        .map(|lane| {
                            (
                                lane.engine.to_string(),
                                JsonValue::object(vec![
                                    ("jobs", JsonValue::Number(lane.jobs as f64)),
                                    ("total_millis", JsonValue::Number(lane.total_millis)),
                                    ("mean_millis", JsonValue::Number(lane.mean_millis())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

// ---------------------------------------------------------------------------
// The runtime
// ---------------------------------------------------------------------------

/// Everything the worker threads share.
struct RuntimeShared {
    config: RuntimeConfig,
    graph: GraphHandle,
    /// The epoch-versioned graph. Jobs capture the current snapshot at
    /// submission; `apply_updates` swings this to the next epoch.
    versioned: Mutex<VersionedGraph>,
    /// Mirror of the current epoch, readable without the `versioned` lock.
    /// Stored (via `fetch_max`) *before* the cache invalidation sweep — the
    /// ordering the epoch-fenced cache insert relies on.
    epoch: AtomicU64,
    cluster: CuCluster,
    queue: AdmissionQueue,
    /// Queue feeding the dedicated CPU worker pool (router-placed jobs only;
    /// empty and unused when routing is disabled).
    cpu_queue: CpuQueue,
    cache: SharedPreparedCache,
    counters: RuntimeCounters,
    /// How often [`RuntimeShared::route`] ran, for the test that holds it to
    /// once per prepared entry.
    #[cfg(test)]
    route_calls: AtomicU64,
    /// A request whose job panics on its worker, for the tests that hold a
    /// worker panic to the job's own ticket.
    #[cfg(test)]
    panic_on: Mutex<Option<QueryRequest>>,
    virt: Mutex<VirtualClock>,
    /// Per-CU circuit breaker state.
    health: CuHealth,
    /// Jobs under deadline supervision, served by the watchdog thread.
    deadlines: Mutex<DeadlineState>,
    /// Wakes the watchdog on registration and shutdown.
    deadline_cv: Condvar,
}

impl RuntimeShared {
    /// Panics when `request` is the one [`RuntimeShared::panic_on`] names.
    #[cfg(test)]
    fn panic_if_hooked(&self, request: QueryRequest) {
        let hooked = *self.panic_on.lock().expect("panic hook poisoned") == Some(request);
        assert!(!hooked, "panic hook fired for {request:?}");
    }

    fn route_context(&self) -> RouteContext {
        RouteContext {
            compute_units: self.config.compute_units.max(1),
            charge_banked: self.config.charge_banked,
        }
    }

    /// Routes a freshly prepared query: the one `route_query` call of its
    /// cache entry's lifetime, made by whoever is about to insert it. `None`
    /// without a routing table (every job then runs on the device).
    fn route(&self, prepared: &PreparedQuery) -> Option<Route> {
        let table = self.config.routing.as_ref()?;
        #[cfg(test)]
        self.route_calls.fetch_add(1, Ordering::Relaxed);
        let decision = route_query(prepared, table, &self.route_context());
        Some(Route { choice: decision.choice, cost_estimate_us: decision.cost_estimate_us })
    }
}

/// One submission on its way into the queues: [`HostRuntime::admit`] sorts
/// each job into the half it belongs to, [`HostRuntime::enqueue`] pushes both
/// halves all-or-nothing.
#[derive(Default)]
struct Admission {
    /// Cached and CPU-routed: straight onto the CPU queue.
    cpu: Vec<CpuJob>,
    /// Everything else, with its LPT key: the admission queue.
    queued: Vec<(Job, u64)>,
}

/// The long-lived multi-session host runtime. See the module docs for the
/// architecture; construct with [`HostRuntime::launch`], hand
/// [`crate::HostSession::attach`] handles to clients, and drop the last
/// reference to shut the worker pool down.
pub struct HostRuntime {
    shared: Arc<RuntimeShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for HostRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostRuntime")
            .field("compute_units", &self.shared.config.compute_units)
            .field("queue_depth", &self.queue_depth())
            .finish()
    }
}

impl HostRuntime {
    /// Builds the runtime around `graph` and starts its persistent worker
    /// pool (one thread per compute unit, created once — jobs never pay a
    /// thread spawn).
    pub fn launch(graph: GraphHandle, config: RuntimeConfig) -> Arc<HostRuntime> {
        let cus = config.compute_units.max(1);
        let multi_cu = MultiCuConfig {
            compute_units: cus,
            per_cu_bandwidth_share: config.per_cu_bandwidth_share,
            charge_banked: config.charge_banked,
        };
        let cluster = match &config.fault_plan {
            Some(plan) => CuCluster::with_faults(config.device.clone(), multi_cu, Arc::clone(plan)),
            None => CuCluster::new(config.device.clone(), multi_cu),
        };
        let versioned = VersionedGraph::new(Arc::clone(&graph.csr), Arc::clone(&graph.reverse));
        let shared = Arc::new(RuntimeShared {
            queue: AdmissionQueue::new(config.queue_capacity),
            cpu_queue: CpuQueue::new(config.queue_capacity),
            cache: SharedPreparedCache::new(config.shared_cache_capacity, config.cache_stripes),
            epoch: AtomicU64::new(versioned.epoch()),
            versioned: Mutex::new(versioned),
            counters: RuntimeCounters {
                submitted: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                queue_full: AtomicU64::new(0),
                cancelled: AtomicU64::new(0),
                graph_updates: AtomicU64::new(0),
                cache_invalidated: AtomicU64::new(0),
                per_cu_busy_cycles: (0..cus).map(|_| AtomicU64::new(0)).collect(),
                per_cu_jobs: (0..cus).map(|_| AtomicU64::new(0)).collect(),
                per_cu_bank_conflict_cycles: (0..cus).map(|_| AtomicU64::new(0)).collect(),
                per_cu_turnaround_cycles: (0..cus).map(|_| AtomicU64::new(0)).collect(),
                next_session: AtomicU64::new(0),
                device_faults: AtomicU64::new(0),
                fault_retries: AtomicU64::new(0),
                quarantine_events: AtomicU64::new(0),
                cpu_fallbacks: AtomicU64::new(0),
                deadline_kills: AtomicU64::new(0),
                fault_after_emit: AtomicU64::new(0),
                cpu_routed: AtomicU64::new(0),
                engine_jobs: std::array::from_fn(|_| AtomicU64::new(0)),
                engine_micros: std::array::from_fn(|_| AtomicU64::new(0)),
            },
            virt: Mutex::new(VirtualClock {
                session_ready: HashMap::new(),
                cu_free: vec![0; cus],
                makespan: 0,
                total_cycles: 0,
            }),
            health: CuHealth::new(cus),
            deadlines: Mutex::new(DeadlineState { entries: Vec::new(), shutdown: false }),
            deadline_cv: Condvar::new(),
            #[cfg(test)]
            route_calls: AtomicU64::new(0),
            #[cfg(test)]
            panic_on: Mutex::new(None),
            cluster,
            graph,
            config,
        });
        let mut workers: Vec<JoinHandle<()>> = (0..cus)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shared))
            })
            .collect();
        // The CPU engine pool only exists when the router can place work on
        // it; without a routing table nothing ever pushes to the CPU queue.
        let cpu_workers =
            if shared.config.routing.is_some() { shared.config.cpu_workers.max(1) } else { 0 };
        for _ in 0..cpu_workers {
            let shared = Arc::clone(&shared);
            workers.push(std::thread::spawn(move || cpu_worker_loop(shared)));
        }
        workers.push({
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || deadline_watchdog(shared))
        });
        Arc::new(HostRuntime { shared, workers: Mutex::new(workers) })
    }

    /// The graph this runtime serves (the epoch-0 base; see
    /// [`HostRuntime::current_snapshot`] for the live version).
    pub fn graph(&self) -> &GraphHandle {
        &self.shared.graph
    }

    /// The current graph epoch. Starts at 0 and advances by one per
    /// [`HostRuntime::apply_updates`] batch.
    pub fn epoch(&self) -> Epoch {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// The snapshot new submissions are admitted under. In-flight jobs may
    /// still be running against older snapshots (each job pins its own).
    pub fn current_snapshot(&self) -> Arc<GraphSnapshot> {
        Arc::clone(self.shared.versioned.lock().expect("versioned graph poisoned").current())
    }

    /// Applies a batch of edge inserts and removals, producing the next graph
    /// epoch, and returns it. In-flight and already-queued jobs keep the
    /// snapshot they were admitted under; jobs submitted after this returns
    /// see the new epoch.
    ///
    /// The shared prepared-query cache is invalidated *incrementally*: only
    /// entries whose preprocessing BFS touched one of the delta's endpoint
    /// vertices are evicted (an untouched entry's pruned subgraph — and
    /// therefore its answer — is provably identical on the new epoch).
    /// The epoch mirror is advanced before the sweep so a concurrently
    /// finishing worker cannot re-insert a stale entry behind the sweep (see
    /// `SharedPreparedCache::insert_if_epoch`).
    ///
    /// An empty delta still advances the epoch — a fence callers can use to
    /// separate "before" from "after".
    pub fn apply_updates(&self, delta: &GraphDelta) -> Epoch {
        let snapshot = {
            let mut versioned = self.shared.versioned.lock().expect("versioned graph poisoned");
            versioned.apply(delta)
        };
        let epoch = snapshot.epoch();
        // fetch_max, not store: concurrent updates serialise on the versioned
        // lock but could publish their epochs out of order here.
        self.shared.epoch.fetch_max(epoch, Ordering::AcqRel);
        self.shared.counters.graph_updates.fetch_add(1, Ordering::Relaxed);
        let touched = delta.touched_vertices();
        if !touched.is_empty() {
            let evicted = self.shared.cache.invalidate(&touched);
            self.shared.counters.cache_invalidated.fetch_add(evicted, Ordering::Relaxed);
        }
        epoch
    }

    /// The runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.shared.config
    }

    /// Number of compute units (= worker threads).
    pub fn compute_units(&self) -> usize {
        self.shared.config.compute_units.max(1)
    }

    /// Registers a new client session and returns its id.
    pub fn register_session(&self) -> SessionId {
        self.shared.counters.next_session.fetch_add(1, Ordering::Relaxed)
    }

    /// Prepared queries currently resident in the shared cache.
    pub fn cached_prepared_queries(&self) -> usize {
        self.shared.cache.len()
    }

    /// Jobs currently waiting to be served: the admission queue plus the
    /// CPU queue.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth() + self.shared.cpu_queue.depth()
    }

    /// Snapshot of the runtime's counters.
    pub fn stats(&self) -> RuntimeStats {
        let c = &self.shared.counters;
        let virt = self.shared.virt.lock().expect("virtual clock poisoned");
        RuntimeStats {
            compute_units: self.compute_units(),
            queue_depth: self.queue_depth(),
            queue_capacity: self.shared.config.queue_capacity.max(1),
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            queue_full_rejections: c.queue_full.load(Ordering::Relaxed),
            cancelled_jobs: c.cancelled.load(Ordering::Relaxed),
            cache_hits: self.shared.cache.hits.load(Ordering::Relaxed),
            cache_misses: self.shared.cache.misses.load(Ordering::Relaxed),
            cached_prepared_queries: self.shared.cache.len(),
            epoch: self.shared.epoch.load(Ordering::Acquire),
            graph_updates: c.graph_updates.load(Ordering::Relaxed),
            cache_invalidated: c.cache_invalidated.load(Ordering::Relaxed),
            per_cu_busy_cycles: c
                .per_cu_busy_cycles
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
            per_cu_jobs: c.per_cu_jobs.iter().map(|a| a.load(Ordering::Relaxed)).collect(),
            per_cu_bank_conflict_cycles: c
                .per_cu_bank_conflict_cycles
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
            per_cu_turnaround_cycles: c
                .per_cu_turnaround_cycles
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
            virtual_makespan_cycles: virt.makespan,
            total_device_cycles: virt.total_cycles,
            device_faults: c.device_faults.load(Ordering::Relaxed),
            faults_injected: self
                .shared
                .cluster
                .fault_plan()
                .map(|plan| plan.faults_injected())
                .unwrap_or(0),
            fault_retries: c.fault_retries.load(Ordering::Relaxed),
            quarantine_events: c.quarantine_events.load(Ordering::Relaxed),
            quarantined_cus: self.shared.health.quarantined_count(),
            cpu_fallbacks: c.cpu_fallbacks.load(Ordering::Relaxed),
            deadline_kills: c.deadline_kills.load(Ordering::Relaxed),
            fault_after_emit: c.fault_after_emit.load(Ordering::Relaxed),
            cpu_routed: c.cpu_routed.load(Ordering::Relaxed),
            engines: (0..ENGINE_LANES)
                .map(|lane| EngineLaneStats {
                    engine: ENGINE_LANE_NAMES[lane],
                    jobs: c.engine_jobs[lane].load(Ordering::Relaxed),
                    total_millis: c.engine_micros[lane].load(Ordering::Relaxed) as f64 / 1e3,
                })
                .collect(),
        }
    }

    /// Number of CU leases currently checked out (e.g. to assert that a
    /// cancelled job released its compute unit).
    pub fn leased_cus(&self) -> usize {
        self.shared.cluster.leased_cus()
    }

    /// CUs currently quarantined by the circuit breaker.
    pub fn quarantined_cus(&self) -> usize {
        self.shared.health.quarantined_count()
    }

    /// Submits a query job. `collect` materialises result paths into the
    /// outcome; otherwise they are only counted. Fails fast with
    /// `QueryInvalid` (bad request) or [`HostError::QueueFull`]
    /// (backpressure); staging errors (device capacity) arrive through the
    /// ticket.
    pub fn submit_query(
        &self,
        session: SessionId,
        request: QueryRequest,
        collect: bool,
    ) -> Result<JobTicket<QueryOutcome>, HostError> {
        let kind = if collect { JobKind::Collect } else { JobKind::Count };
        self.submit(session, request, kind, self.shared.config.default_deadline)
    }

    /// [`HostRuntime::submit_query`] with a per-job deadline overriding
    /// [`RuntimeConfig::default_deadline`]. The deadline clock starts at
    /// admission; an overrunning job is killed by the watchdog and fails
    /// with [`HostError::DeadlineExceeded`].
    pub fn submit_query_with_deadline(
        &self,
        session: SessionId,
        request: QueryRequest,
        collect: bool,
        deadline: Duration,
    ) -> Result<JobTicket<QueryOutcome>, HostError> {
        let kind = if collect { JobKind::Collect } else { JobKind::Count };
        self.submit(session, request, kind, Some(deadline))
    }

    /// Submits a streaming query job: every result path (original graph ids)
    /// is delivered through the returned bounded channel while the job runs.
    /// A full channel backpressures only this job's CU; dropping the receiver
    /// (or cancelling/dropping the ticket) terminates the enumeration at the
    /// next emission or batch boundary.
    pub fn submit_query_streaming(
        &self,
        session: SessionId,
        request: QueryRequest,
        channel_capacity: usize,
    ) -> Result<(JobTicket<QueryOutcome>, Receiver<Vec<VertexId>>), HostError> {
        let (tx, rx) = std::sync::mpsc::sync_channel(channel_capacity.max(1));
        let ticket = self.submit(
            session,
            request,
            JobKind::Stream(tx),
            self.shared.config.default_deadline,
        )?;
        Ok((ticket, rx))
    }

    /// Submits a whole batch as one fairness unit: the requests are
    /// validated up front (any invalid request rejects the batch), duplicates
    /// collapse to one execution, and the unique queries enter the admission
    /// queue atomically — either the batch fits or `QueueFull` is returned
    /// and nothing runs. Within the session the queue's LPT order lets the
    /// heavyweight queries start first.
    ///
    /// One submission must fit [`RuntimeConfig::queue_capacity`]; a batch
    /// with more unique queries than that can *never* be admitted atomically,
    /// so callers should split it into capacity-sized waves (as
    /// [`crate::HostSession::run_batch`] does) rather than retry on
    /// `QueueFull`.
    pub fn submit_batch(
        &self,
        session: SessionId,
        requests: &[QueryRequest],
    ) -> Result<BatchTicket, HostError> {
        let snapshot = self.current_snapshot();
        for request in requests {
            if let Err(e) = request.validate_for(snapshot.num_vertices()) {
                self.shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        }
        let mut unique: Vec<QueryRequest> = Vec::new();
        let mut slot_of = Vec::with_capacity(requests.len());
        let mut index: HashMap<QueryRequest, usize> = HashMap::new();
        for request in requests {
            let slot = *index.entry(*request).or_insert_with(|| {
                unique.push(*request);
                unique.len() - 1
            });
            slot_of.push(slot);
        }
        let deduplicated = requests.len() - unique.len();

        let mut admission = Admission::default();
        let mut tickets = Vec::with_capacity(unique.len());
        for request in &unique {
            let ticket = TicketInner::new();
            tickets.push(JobTicket { inner: Arc::clone(&ticket), armed: true });
            self.admit(&mut admission, session, *request, JobKind::Count, &snapshot, ticket);
        }
        self.enqueue(admission, &tickets, self.shared.config.default_deadline)?;
        let dma = DmaEngine::for_device(&self.shared.config.device);
        Ok(BatchTicket { tickets, requests: unique, slot_of, deduplicated, dma })
    }

    fn submit(
        &self,
        session: SessionId,
        request: QueryRequest,
        kind: JobKind,
        deadline: Option<Duration>,
    ) -> Result<JobTicket<QueryOutcome>, HostError> {
        let snapshot = self.current_snapshot();
        if let Err(e) = request.validate_for(snapshot.num_vertices()) {
            self.shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        let inner = TicketInner::new();
        let ticket = JobTicket { inner: Arc::clone(&inner), armed: true };
        let mut admission = Admission::default();
        self.admit(&mut admission, session, request, kind, &snapshot, inner);
        self.enqueue(admission, std::slice::from_ref(&ticket), deadline)?;
        Ok(ticket)
    }

    /// The admission step of one validated job: its single counted cache
    /// lookup, directly after the snapshot pin, and the routing decision read
    /// off the entry's memo. A hit the router placed on a CPU engine becomes a
    /// [`CpuJob`] here, on the caller's thread; a device-routed hit is queued
    /// carrying the entry, keyed by the memoised cost (µs) — a real latency
    /// prediction; a miss (and any hit without a routing table) is keyed by
    /// the degree proxy [`estimate`], because preparing at admission would
    /// serialise every submitter on the caller's thread. The keys only ever
    /// *rank* jobs within one session's lane, so mixing the scales is benign.
    fn admit(
        &self,
        admission: &mut Admission,
        session: SessionId,
        request: QueryRequest,
        kind: JobKind,
        snapshot: &Arc<GraphSnapshot>,
        ticket: Arc<TicketInner<QueryOutcome>>,
    ) {
        let ticket = Completion(ticket);
        let started = Instant::now();
        let hit = self.shared.cache.get_at_admission(&request, snapshot.epoch());
        let key = match &hit {
            Some(CacheHit { prepared, route: Some(route) }) => match route.cpu_engine() {
                Some(engine) => {
                    admission.cpu.push(CpuJob {
                        request,
                        kind,
                        prepared: Arc::clone(prepared),
                        engine,
                        preprocess_millis: started.elapsed().as_secs_f64() * 1e3,
                        cache_hit: true,
                        ticket,
                    });
                    return;
                }
                None => route.cost_estimate_us as u64,
            },
            _ => estimate(snapshot, &request),
        };
        let snapshot = Arc::clone(snapshot);
        admission.queued.push((Job { session, request, kind, snapshot, ticket, hit }, key));
    }

    /// Pushes an admitted submission onto its queues — both or neither: the
    /// CPU queue checks its room first and pushes only once the admission
    /// queue accepted its half — then books it: counters, and `deadline`
    /// supervision for every ticket.
    fn enqueue(
        &self,
        admission: Admission,
        tickets: &[JobTicket<QueryOutcome>],
        deadline: Option<Duration>,
    ) -> Result<(), HostError> {
        let shared = &self.shared;
        let Admission { cpu, queued } = admission;
        let cpu_routed = cpu.len() as u64;
        match shared.cpu_queue.submit_many(cpu, || shared.queue.submit_many(queued)) {
            Ok(pruned) => {
                shared.counters.cancelled.fetch_add(pruned, Ordering::Relaxed);
                shared.counters.submitted.fetch_add(tickets.len() as u64, Ordering::Relaxed);
                shared.counters.cpu_routed.fetch_add(cpu_routed, Ordering::Relaxed);
                if let Some(deadline) = deadline {
                    for ticket in tickets {
                        self.register_deadline(&ticket.inner, deadline);
                    }
                }
                Ok(())
            }
            Err(e) => {
                if matches!(e, HostError::QueueFull) {
                    shared.counters.queue_full.fetch_add(1, Ordering::Relaxed);
                }
                Err(e)
            }
        }
    }

    /// Explains how the router would place `request`, without running it:
    /// the chosen engine, the modelled per-engine costs, the feature vector
    /// and one rationale line per decision step. Works even when
    /// [`RuntimeConfig::routing`] is `None` — the builtin table is consulted
    /// so `EXPLAIN` always answers — and is deterministic given the graph
    /// epoch and the table. Preprocessing is shared with real queries through
    /// the prepared cache; the lookup is a peek, so `EXPLAIN` never skews the
    /// hit/miss statistics.
    pub fn explain(&self, request: QueryRequest) -> Result<RouteDecision, HostError> {
        let snapshot = self.current_snapshot();
        request.validate_for(snapshot.num_vertices())?;
        let cached = self.shared.cache.peek(&request);
        let prepared = cached.clone().unwrap_or_else(|| {
            Arc::new(prepare_snapshot_with(
                &mut PrepareContext::new(),
                &snapshot,
                request.s,
                request.t,
                request.k,
                self.shared.config.variant,
            ))
        });
        let builtin;
        let table = match &self.shared.config.routing {
            Some(table) => table,
            None => {
                builtin = RoutingTable::builtin();
                &builtin
            }
        };
        let decision = route_query(&prepared, table, &self.shared.route_context());
        if cached.is_none() {
            // Real queries will hit this entry, so it carries its route like
            // any other — when the table consulted is the runtime's own.
            let route = self.shared.config.routing.is_some().then_some(Route {
                choice: decision.choice,
                cost_estimate_us: decision.cost_estimate_us,
            });
            self.shared.cache.insert_if_epoch(
                request,
                CacheHit { prepared, route },
                snapshot.epoch(),
                &self.shared.epoch,
            );
        }
        Ok(decision)
    }

    /// Puts `ticket` under deadline supervision: the watchdog kills the job
    /// once `deadline` has elapsed from now.
    fn register_deadline(&self, ticket: &Arc<TicketInner<QueryOutcome>>, deadline: Duration) {
        ticket
            .deadline_millis
            .store(deadline.as_millis().min(u128::from(u64::MAX)) as u64, Ordering::Relaxed);
        let mut state = self.shared.deadlines.lock().expect("deadline table poisoned");
        state
            .entries
            .push(DeadlineEntry { due: Instant::now() + deadline, ticket: Arc::downgrade(ticket) });
        self.shared.deadline_cv.notify_all();
    }
}

/// Cheap submission-time LPT estimate of a query's device work: the source's
/// fan-out (in the snapshot the job will run against) times the hop budget. A
/// proxy, not a prediction — it only has to *rank* a session's queued jobs so
/// the heavy ones start early (the true cycle count is unknowable before
/// preprocessing).
fn estimate(snapshot: &GraphSnapshot, request: &QueryRequest) -> u64 {
    (snapshot.forward().out_degree(request.s) as u64 + 1) * request.k as u64
}

impl Drop for HostRuntime {
    fn drop(&mut self) {
        for job in self.shared.queue.shutdown() {
            job.ticket.complete(Err(HostError::Cancelled));
        }
        for job in self.shared.cpu_queue.shutdown() {
            job.ticket.complete(Err(HostError::Cancelled));
        }
        self.shared.deadlines.lock().expect("deadline table poisoned").shutdown = true;
        self.shared.deadline_cv.notify_all();
        let workers = std::mem::take(&mut *self.workers.lock().expect("worker table poisoned"));
        for worker in workers {
            let _ = worker.join();
        }
    }
}

/// A claim on the results of a submitted batch.
#[derive(Debug)]
pub struct BatchTicket {
    tickets: Vec<JobTicket<QueryOutcome>>,
    requests: Vec<QueryRequest>,
    slot_of: Vec<usize>,
    deduplicated: usize,
    /// Frames the batch's one transfer.
    dma: DmaEngine,
}

impl BatchTicket {
    /// Blocks until every query of the batch completed and assembles the
    /// per-slot results (duplicates answered from their unique execution).
    /// The first failing query fails the batch; the remaining tickets are
    /// dropped, which cancels their jobs.
    pub fn wait(mut self) -> Result<RuntimeBatchOutcome, HostError> {
        let mut unique_rows = Vec::with_capacity(self.tickets.len());
        let mut preprocess_millis = 0.0;
        let mut transfer_millis = 0.0;
        let mut payload_bytes = 0;
        let mut device_millis = 0.0;
        let mut cache_hits = 0u64;
        for (ticket, request) in self.tickets.into_iter().zip(&self.requests) {
            let outcome = ticket.wait()?;
            preprocess_millis += outcome.preprocess_millis;
            transfer_millis += outcome.transfer.total_millis;
            payload_bytes += outcome.transfer.bytes;
            device_millis += outcome.device_millis;
            cache_hits += u64::from(outcome.cache_hit);
            unique_rows.push(BatchQueryResult {
                request: *request,
                num_paths: outcome.num_paths,
                device_millis: outcome.device_millis,
            });
        }
        let results = self.slot_of.iter().map(|&slot| unique_rows[slot]).collect();
        Ok(RuntimeBatchOutcome {
            results,
            deduplicated: self.deduplicated,
            cache_hits,
            preprocess_millis,
            transfer_millis,
            batched_transfer: match payload_bytes {
                0 => DmaTransferReport::none(),
                bytes => self.dma.transfer(bytes),
            },
            device_millis,
        })
    }
}

/// Per-query result row of a batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchQueryResult {
    /// The request.
    pub request: QueryRequest,
    /// Number of result paths.
    pub num_paths: u64,
    /// Simulated device time for this query in milliseconds.
    pub device_millis: f64,
}

/// The outcome of a batch submitted through [`HostRuntime::submit_batch`].
/// The batch's queries shared the admission queue and CU pool with every
/// other session's work.
#[derive(Debug, Clone, Default)]
pub struct RuntimeBatchOutcome {
    /// Per-query results, in submission order (duplicates resolved to the
    /// same numbers).
    pub results: Vec<BatchQueryResult>,
    /// Requests served from a duplicate's execution.
    pub deduplicated: usize,
    /// Unique queries whose preprocessing came from the shared cache.
    pub cache_hits: u64,
    /// Summed host preprocessing time (ms).
    pub preprocess_millis: f64,
    /// Summed DMA transfer time (ms) of the unique jobs, each framed as its
    /// own transfer — what the batch cost on the runtime.
    pub transfer_millis: f64,
    /// The same payload bytes as *one* DMA transfer: the paper's batched
    /// shipment (Section VII-A), which pays the descriptor setup once per
    /// descriptor instead of once per query. CPU-routed jobs ship nothing.
    pub batched_transfer: DmaTransferReport,
    /// Summed simulated device time (ms).
    pub device_millis: f64,
}

impl RuntimeBatchOutcome {
    /// Total result paths across the batch.
    pub fn total_paths(&self) -> u64 {
        self.results.iter().map(|r| r.num_paths).sum()
    }
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(shared: Arc<RuntimeShared>) {
    // With a CPU pool, device jobs are the throughput side of the routed
    // split, and the CPU workers and waiting submitters the latency side. On
    // a shared core the OS may otherwise run a CU worker, woken together with
    // a CPU-routed query, for its whole time slice first: the query then
    // waits on device work it was routed away from.
    if shared.config.routing.is_some() {
        run_at_background_priority();
    }
    // Per-worker preprocessing context and DMA engine, created once: BFS
    // scratch amortises across every job this worker ever runs (each job's
    // snapshot carries both CSR directions).
    let mut ctx = PrepareContext::new();
    let mut dma = DmaEngine::for_device(&shared.config.device);
    while let Some(job) = shared.queue.pop() {
        // A panicking job fails only its own ticket (its `Completion`
        // unwinds); the worker serves on with fresh preparation scratch.
        let run = AssertUnwindSafe(|| execute_job(&shared, &mut ctx, &mut dma, job));
        if catch_unwind(run).is_err() {
            ctx = PrepareContext::new();
        }
    }
}

/// Drops the calling thread to the lowest OS scheduling priority (nice 19).
/// Linux keeps the nice value per thread, so only the caller is affected.
#[cfg(target_os = "linux")]
fn run_at_background_priority() {
    extern "C" {
        fn nice(inc: std::os::raw::c_int) -> std::os::raw::c_int;
    }
    // SAFETY: nice(2) takes an integer and touches no memory of ours. A
    // failure leaves the priority as it was, which costs only the latency
    // benefit.
    unsafe {
        nice(19);
    }
}

#[cfg(not(target_os = "linux"))]
fn run_at_background_priority() {}

/// Reserves a CU for one job attempt, honouring the circuit breaker: only
/// non-quarantined CUs are candidates (preferring one different from `avoid`,
/// the CU that just failed this job), and quarantined CUs whose probe
/// cooldown elapsed are offered back as probes (with their simulated crash
/// latch repaired first). Returns `None` only when no healthy CU remains and
/// no probe could be leased — the caller degrades to the CPU path instead of
/// parking forever on a dead fleet.
fn acquire_cu(shared: &RuntimeShared, avoid: Option<usize>) -> Option<(CuLease<'_>, bool)> {
    let ft = &shared.config.fault_tolerance;
    loop {
        let healthy = shared.health.healthy(avoid);
        if let Some(cu) = shared.health.probe_ready(healthy.is_empty(), ft.probe_cooldown) {
            if let Some(lease) = shared.cluster.try_checkout_cu(cu) {
                if let Some(plan) = shared.cluster.fault_plan() {
                    plan.repair(cu);
                }
                return Some((lease, true));
            }
        }
        if healthy.is_empty() {
            return None;
        }
        if let Some(lease) = shared.cluster.checkout_among(&healthy, Duration::from_millis(50)) {
            return Some((lease, false));
        }
        // Timed out waiting for a healthy CU: re-evaluate health and probes —
        // the healthy set may have shrunk (or grown) while we waited.
    }
}

/// One device attempt of a job on a leased CU's device. Returns the run
/// result, the collected paths (collect mode) and how many paths a streaming
/// job delivered into its channel — the count that decides between a silent
/// replay (zero) and [`HostError::FaultAfterEmit`] on a faulted stream.
fn run_attempt(
    prepared: &PreparedQuery,
    options: pefp_core::EngineOptions,
    device: pefp_fpga::Device,
    kind: &JobKind,
    cancel: &Arc<AtomicBool>,
) -> (pefp_core::PefpRunResult, Vec<pefp_graph::paths::Path>, u64) {
    match kind {
        JobKind::Collect => {
            let mut sink = CollectSink::new();
            let result = run_prepared_on_device(prepared, options, device, &mut sink);
            (result, sink.into_paths(), 0)
        }
        JobKind::Count => {
            let mut options = options;
            options.collect_paths = false;
            let mut sink = CountingSink::new();
            let result = run_prepared_on_device(prepared, options, device, &mut sink);
            (result, Vec::new(), 0)
        }
        JobKind::Stream(tx) => {
            let emitted = std::cell::Cell::new(0u64);
            let mut sink = FnSink(|path: &[VertexId]| {
                let mut path = path.to_vec();
                loop {
                    if cancel.load(Ordering::Acquire) {
                        return ControlFlow::Break(());
                    }
                    match tx.try_send(path) {
                        Ok(()) => {
                            emitted.set(emitted.get() + 1);
                            return ControlFlow::Continue(());
                        }
                        Err(TrySendError::Disconnected(_)) => return ControlFlow::Break(()),
                        Err(TrySendError::Full(back)) => {
                            // Bounded-channel backpressure: stall this CU (and
                            // only this CU) until the client drains or goes
                            // away, re-checking the cancel flag meanwhile. The
                            // short sleep keeps a wedged client from pegging a
                            // host core while costing ~nothing in latency.
                            path = back;
                            std::thread::sleep(std::time::Duration::from_micros(50));
                        }
                    }
                }
            });
            let result = run_prepared_on_device(prepared, options, device, &mut sink);
            let delivered = emitted.get();
            (result, Vec::new(), delivered)
        }
    }
}

/// Runs the query on one of the CPU engines over the same pruned subgraph
/// and the same `PathSink` pipeline the device engine feeds. The Pre-BFS
/// subgraph is answer-preserving and every engine enumerates exactly the
/// k-hop s-t simple paths, so the result *set* is identical to a fault-free
/// device run — only the speed (and, across engines, the emission order)
/// differs. Returns the number of result paths and the collected paths
/// (collect mode, original graph ids).
fn run_cpu_engine(
    prepared: &PreparedQuery,
    kind: &JobKind,
    cancel: &Arc<AtomicBool>,
    engine: CpuEngine,
) -> (u64, Vec<pefp_graph::paths::Path>) {
    if !prepared.feasible {
        return (0, Vec::new());
    }
    let g = prepared.graph.as_ref();
    let (s, t, k) = (prepared.s, prepared.t, prepared.k);
    let run = |sink: &mut dyn pefp_graph::sink::PathSink| match engine {
        CpuEngine::Naive => {
            naive_dfs_stream(g, s, t, k, sink);
        }
        CpuEngine::BcDfs => {
            // Seed the barrier from the prepared query: Pre-BFS already
            // computed sd(·, t) clamped to k+1 over the pruned subgraph,
            // which is the initial barrier BC-DFS would rebuild — except at
            // the source. Pre-BFS sweeps only k-1 reverse hops (the device's
            // barrier check never reads bar[s]), so a feasible source exactly
            // k hops from t keeps the k+1 sentinel; BC-DFS *does* check the
            // source barrier, and in that one case sd(s, t) = k exactly.
            let mut bar = prepared.barrier.clone();
            if let Some(b) = bar.get_mut(s.index()) {
                *b = (*b).min(k);
            }
            let mut dfs = BcDfs::with_barrier(bar, k);
            let _ = dfs.enumerate_into(g, s, t, k, sink);
        }
        CpuEngine::Join => {
            let _ = Join::new().enumerate_into(g, s, t, k, sink);
        }
    };
    match kind {
        JobKind::Collect => {
            let mut paths: Vec<pefp_graph::paths::Path> = Vec::new();
            let mut sink = FnSink(|path: &[VertexId]| {
                if cancel.load(Ordering::Acquire) {
                    return ControlFlow::Break(());
                }
                paths.push(prepared.translate_path(path));
                ControlFlow::Continue(())
            });
            run(&mut sink);
            let num = paths.len() as u64;
            (num, paths)
        }
        JobKind::Count => {
            let mut count = 0u64;
            let mut sink = FnSink(|_: &[VertexId]| {
                if cancel.load(Ordering::Acquire) {
                    return ControlFlow::Break(());
                }
                count += 1;
                ControlFlow::Continue(())
            });
            run(&mut sink);
            (count, Vec::new())
        }
        JobKind::Stream(tx) => {
            let emitted = std::cell::Cell::new(0u64);
            let mut sink = FnSink(|path: &[VertexId]| {
                let mut path = prepared.translate_path(path);
                loop {
                    if cancel.load(Ordering::Acquire) {
                        return ControlFlow::Break(());
                    }
                    match tx.try_send(path) {
                        Ok(()) => {
                            emitted.set(emitted.get() + 1);
                            return ControlFlow::Continue(());
                        }
                        Err(TrySendError::Disconnected(_)) => return ControlFlow::Break(()),
                        Err(TrySendError::Full(back)) => {
                            path = back;
                            std::thread::sleep(std::time::Duration::from_micros(50));
                        }
                    }
                }
            });
            run(&mut sink);
            (emitted.get(), Vec::new())
        }
    }
}

/// The CPU pool's worker loop: drain router-placed jobs until shutdown.
fn cpu_worker_loop(shared: Arc<RuntimeShared>) {
    while let Some(job) = shared.cpu_queue.pop() {
        // As on the CU workers: a panic fails its own ticket, not the loop.
        let _ = catch_unwind(AssertUnwindSafe(|| execute_cpu_job(&shared, job)));
    }
}

/// Runs one router-placed CPU job to completion. CPU jobs never touch the
/// PCIe link or the virtual device clock (their latency is host wall time,
/// reported per engine lane); cancellation and deadlines behave exactly as
/// on the device path.
fn execute_cpu_job(shared: &RuntimeShared, job: CpuJob) {
    let CpuJob { request, kind, prepared, engine, preprocess_millis, cache_hit, ticket } = job;
    #[cfg(test)]
    shared.panic_if_hooked(request);
    if ticket.cancel.load(Ordering::Acquire) {
        shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
        ticket.complete(Err(ticket.cancel_error()));
        return;
    }
    let started = Instant::now();
    let (num_paths, paths) = run_cpu_engine(&prepared, &kind, &ticket.cancel, engine);
    let wall_millis = started.elapsed().as_secs_f64() * 1e3;
    if ticket.cancel.load(Ordering::Acquire) {
        shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
        if ticket.deadline_exceeded.load(Ordering::Acquire) {
            ticket.complete(Err(ticket.cancel_error()));
            return;
        }
    }
    record_engine(shared, engine.lane(), wall_millis);
    shared.counters.completed.fetch_add(1, Ordering::Relaxed);
    ticket.complete(Ok(QueryOutcome {
        request,
        num_paths,
        paths,
        preprocess_millis,
        // CPU-routed jobs never cross the PCIe link: a zeroed report keeps
        // `total_millis()` honest about where the time went.
        transfer: DmaTransferReport::none(),
        device_millis: wall_millis,
        cache_hit,
    }));
}

fn execute_job(shared: &RuntimeShared, ctx: &mut PrepareContext, dma: &mut DmaEngine, job: Job) {
    let Job { session, request, kind, snapshot, ticket, hit } = job;
    #[cfg(test)]
    shared.panic_if_hooked(request);
    if ticket.cancel.load(Ordering::Acquire) {
        shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
        ticket.complete(Err(ticket.cancel_error()));
        return;
    }

    // Stage: the prepared query. A job that hit the cache at admission
    // carries its entry and is neither looked up nor routed again. A job that
    // missed there settles its one counted lookup here — another job may have
    // prepared the query while this one queued — and otherwise preprocesses
    // against the snapshot it pinned and routes the result, once, for every
    // later hit. An entry prepared on an *older* epoch than the pin is only
    // still resident because no update since touched its BFS frontier, so it
    // answers identically on every epoch since, this job's included; an entry
    // prepared on a *newer* epoch says nothing about this job's snapshot and
    // the lookup does not return it.
    let stage_started = Instant::now();
    let cached = hit.or_else(|| shared.cache.get(&request, snapshot.epoch()));
    let cache_hit = cached.is_some();
    let entry = cached.unwrap_or_else(|| {
        let prepared = Arc::new(prepare_snapshot_with(
            ctx,
            &snapshot,
            request.s,
            request.t,
            request.k,
            shared.config.variant,
        ));
        let route = shared.route(&prepared);
        CacheHit { prepared, route }
    });
    let preprocess_millis = if cache_hit {
        stage_started.elapsed().as_secs_f64() * 1e3
    } else {
        entry.prepared.host_millis
    };
    // The fresh entry goes into the cache with its route; where, depends on
    // the route (oversized device payloads are never cached).
    let insert_fresh = |entry: &CacheHit| {
        if !cache_hit {
            shared.cache.insert_if_epoch(request, entry.clone(), snapshot.epoch(), &shared.epoch);
        }
    };

    // Stage: hand-off. A query whose modelled CPU latency beats the device
    // (transfer included) skips the DRAM capacity check, the PCIe transfer
    // and the CU lease entirely and goes to the dedicated CPU pool. Only a
    // job that was not cached at admission can take this branch — a cached
    // one was dispatched there by its submitter.
    if let Some(engine) = entry.route.and_then(|route| route.cpu_engine()) {
        insert_fresh(&entry);
        shared.counters.cpu_routed.fetch_add(1, Ordering::Relaxed);
        let CacheHit { prepared, .. } = entry;
        let job = CpuJob { request, kind, prepared, engine, preprocess_millis, cache_hit, ticket };
        if let Err(job) = shared.cpu_queue.push(job) {
            job.ticket.complete(Err(HostError::Cancelled));
        }
        return;
    }

    // Capacity check before the transfer; oversized (permanently rejectable)
    // payloads never occupy cache slots.
    let bytes = payload_bytes(&entry.prepared);
    if bytes > shared.config.device.dram_bytes {
        shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
        ticket.complete(Err(HostError::DeviceCapacity(format!(
            "prepared payload is {bytes} bytes but device DRAM holds {}",
            shared.config.device.dram_bytes
        ))));
        return;
    }
    insert_fresh(&entry);
    let CacheHit { prepared, .. } = entry;
    let transfer = dma.transfer(bytes);

    let mut base_options = shared.config.variant.engine_options();
    // Wire the ticket's cancel flag into the engine: a dropped/cancelled
    // ticket (or a fired deadline) stops the enumeration at the next batch
    // boundary.
    base_options.cancel = Some(CancelToken::from_flag(Arc::clone(&ticket.cancel)));
    if base_options.cycle_budget.is_none() {
        base_options.cycle_budget = shared.config.fault_tolerance.watchdog_cycle_budget;
    }
    base_options.bank_placement = shared.graph.placement;

    // Attempt loop: acquire a healthy CU, run, classify. A detected device
    // fault retries on a *different* CU with bounded backoff (per-CU fault
    // streams are independent); exhausted retries or an empty healthy set
    // degrade to the CPU baseline over the same prepared query.
    let ft = shared.config.fault_tolerance.clone();
    let epoch = snapshot.epoch();
    let mut attempt: u32 = 0;
    let mut avoid: Option<usize> = None;
    let mut last_fault: Option<FaultEvent> = None;
    loop {
        if ticket.cancel.load(Ordering::Acquire) {
            shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
            ticket.complete(Err(ticket.cancel_error()));
            return;
        }
        let Some((lease, _probe)) = acquire_cu(shared, avoid) else {
            degrade_to_cpu(
                shared,
                &prepared,
                &kind,
                &ticket,
                request,
                preprocess_millis,
                transfer,
                cache_hit,
                last_fault,
                attempt,
                epoch,
            );
            return;
        };
        let cu = lease.cu();

        // Execute on the leased CU, marked active on the shared bus for the
        // arbiter's contention law. The guard must die before the ticket
        // completes: a closed-loop client submits its next job the moment the
        // ticket resolves, and a still-live activation would overstate the
        // active-CU count (and thus the contention factor) for that job.
        let active = shared.cluster.arbiter().activate();
        let (result, paths, emitted) =
            run_attempt(&prepared, base_options.clone(), lease.device(), &kind, &ticket.cancel);
        drop(active);
        drop(lease);

        // A fired deadline kills the job whatever state the run ended in: the
        // engine may have stopped via its cancel token (stats.cancelled) or
        // via a sink break while wedged on a full stream — either way the
        // ticket owner gets the typed deadline error, not partial results.
        if ticket.deadline_exceeded.load(Ordering::Acquire) {
            shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
            ticket.complete(Err(ticket.cancel_error()));
            return;
        }
        // A voluntarily cancelled job (dropped ticket, disconnected stream
        // client) may have stopped via the engine's cancel token *or* via a
        // sink break while the flag was set — treat both as cancelled, and
        // never burn retries on a job nobody is waiting for.
        let was_cancelled = result.stats.cancelled || ticket.cancel.load(Ordering::Acquire);
        let fault = result.device_fault();
        if !was_cancelled {
            if let Some(event) = fault {
                // A detected fault: the run's results and timings are
                // untrustworthy and must be discarded (collect/count sinks
                // are rebuilt per attempt, so a retry recomputes cleanly).
                shared.counters.device_faults.fetch_add(1, Ordering::Relaxed);
                if shared.health.record_failure(cu, ft.quarantine_after, ft.probe_cooldown) {
                    shared.counters.quarantine_events.fetch_add(1, Ordering::Relaxed);
                }
                last_fault = Some(event);
                avoid = Some(cu);
                if emitted > 0 {
                    // The stream already delivered paths to the client: a
                    // replay would duplicate them and truncating would drop
                    // the rest, so surface the fault instead — the caller
                    // restarts the stream from scratch.
                    shared.counters.fault_after_emit.fetch_add(1, Ordering::Relaxed);
                    ticket.complete(Err(HostError::FaultAfterEmit { event, emitted }));
                    return;
                }
                if attempt >= ft.max_retries {
                    degrade_to_cpu(
                        shared,
                        &prepared,
                        &kind,
                        &ticket,
                        request,
                        preprocess_millis,
                        transfer,
                        cache_hit,
                        last_fault,
                        attempt,
                        epoch,
                    );
                    return;
                }
                attempt += 1;
                shared.counters.fault_retries.fetch_add(1, Ordering::Relaxed);
                if !ft.retry_backoff.is_zero() {
                    std::thread::sleep(ft.retry_backoff * attempt);
                }
                continue;
            }
            shared.health.record_success(cu);
        }

        // Accounting: wall counters and the virtual clock. Per-CU load is
        // charged to the *virtual* CU chosen below, not the lease's CU: the
        // physical lease assignment reflects host-scheduler noise (on a 1-core
        // machine one worker can serve most jobs), while the virtual placement
        // is the device-domain view the makespan is computed in — so
        // busy/makespan utilisation stays a true ≤ 1 fraction.
        let cycles = result.device.cycles;
        shared.counters.completed.fetch_add(1, Ordering::Relaxed);
        record_engine(shared, DEVICE_LANE, result.query_millis);
        if was_cancelled {
            shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
        }
        {
            let mut virt = shared.virt.lock().expect("virtual clock poisoned");
            let ready = virt.session_ready.get(&session).copied().unwrap_or(0);
            // Best-fit placement: of the CUs already free when this session is
            // ready, take the one that frees *latest* (least virtual idle time —
            // typically the CU this session's previous job kept warm); only when
            // every CU is still busy does the job wait for the earliest one.
            // Plain least-loaded placement would strand un-backfillable idle
            // gaps whenever one tenant races ahead in wall time, halving the
            // apparent packing efficiency.
            let virt_cu = virt
                .cu_free
                .iter()
                .enumerate()
                .filter(|(_, &free)| free <= ready)
                .max_by_key(|(_, &free)| free)
                .or_else(|| virt.cu_free.iter().enumerate().min_by_key(|(_, &free)| free))
                .map(|(i, _)| i)
                .unwrap_or(0);
            let start = ready.max(virt.cu_free[virt_cu]);
            let end = start + cycles;
            virt.session_ready.insert(session, end);
            virt.cu_free[virt_cu] = end;
            virt.makespan = virt.makespan.max(end);
            virt.total_cycles += cycles;
            shared.counters.per_cu_busy_cycles[virt_cu].fetch_add(cycles, Ordering::Relaxed);
            shared.counters.per_cu_jobs[virt_cu].fetch_add(1, Ordering::Relaxed);
            shared.counters.per_cu_bank_conflict_cycles[virt_cu]
                .fetch_add(result.device.bank_conflict_cycles, Ordering::Relaxed);
            shared.counters.per_cu_turnaround_cycles[virt_cu]
                .fetch_add(result.device.turnaround_cycles, Ordering::Relaxed);
            // A session whose ready time no CU will ever be earlier than again
            // can no longer influence a placement (`max(ready, free) == free`):
            // drop it, so a long-lived runtime serving millions of short-lived
            // sessions does not accumulate dead map entries.
            let min_free = virt.cu_free.iter().copied().min().unwrap_or(0);
            virt.session_ready.retain(|_, ready| *ready > min_free);
        }

        ticket.complete(Ok(QueryOutcome {
            request,
            num_paths: result.num_paths,
            paths,
            preprocess_millis,
            transfer,
            device_millis: result.query_millis,
            cache_hit,
        }));
        return;
    }
}

/// Terminal degradation path: no healthy CU is left (or retries are
/// exhausted). With [`FaultToleranceConfig::cpu_fallback`] the query runs on
/// a CPU engine and still answers correctly; otherwise the job fails with a
/// typed error carrying the fault context. When a routing table is
/// configured the fallback uses the router's cheaper CPU engine (BC-DFS vs
/// JOIN) instead of the brute-force oracle; without a table the naive DFS
/// remains the last resort, preserving the pre-router degradation behaviour.
#[allow(clippy::too_many_arguments)]
fn degrade_to_cpu(
    shared: &RuntimeShared,
    prepared: &PreparedQuery,
    kind: &JobKind,
    ticket: &TicketInner<QueryOutcome>,
    request: QueryRequest,
    preprocess_millis: f64,
    transfer: DmaTransferReport,
    cache_hit: bool,
    last_fault: Option<FaultEvent>,
    retries: u32,
    epoch: u64,
) {
    if !shared.config.fault_tolerance.cpu_fallback {
        let err = match last_fault {
            Some(event) => HostError::DeviceFault { event, epoch, retries },
            None => HostError::NoHealthyCu { quarantined: shared.health.quarantined_count() },
        };
        ticket.complete(Err(err));
        return;
    }
    shared.counters.cpu_fallbacks.fetch_add(1, Ordering::Relaxed);
    let engine = match &shared.config.routing {
        Some(table) => {
            // The same cost model that places healthy work picks the
            // degradation engine. JOIN materialises half-depth prefixes, so
            // on saturated estimates its modelled cost blows up and the
            // streaming BC-DFS wins — exactly the memory-safe choice.
            let decision = route_query(prepared, table, &shared.route_context());
            if decision.costs.bc_dfs_us <= decision.costs.join_us {
                CpuEngine::BcDfs
            } else {
                CpuEngine::Join
            }
        }
        None => CpuEngine::Naive,
    };
    let started = Instant::now();
    let (num_paths, paths) = run_cpu_engine(prepared, kind, &ticket.cancel, engine);
    let wall_millis = started.elapsed().as_secs_f64() * 1e3;
    if ticket.cancel.load(Ordering::Acquire) {
        shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
        if ticket.deadline_exceeded.load(Ordering::Acquire) {
            ticket.complete(Err(ticket.cancel_error()));
            return;
        }
    }
    record_engine(shared, engine.lane(), wall_millis);
    shared.counters.completed.fetch_add(1, Ordering::Relaxed);
    ticket.complete(Ok(QueryOutcome {
        request,
        num_paths,
        paths,
        preprocess_millis,
        transfer,
        // Host wall time of the CPU run: the fallback has no simulated device
        // phase, but the time still counts against deadlines and goodput.
        device_millis: wall_millis,
        cache_hit,
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use pefp_graph::paths::canonicalize;
    use pefp_graph::CsrGraph;

    fn diamond_runtime(config: RuntimeConfig) -> Arc<HostRuntime> {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        HostRuntime::launch(GraphHandle::from_csr("diamond", g), config)
    }

    fn diamond_snapshot() -> Arc<GraphSnapshot> {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        Arc::clone(VersionedGraph::from_csr(g).current())
    }

    #[test]
    fn queue_serves_sessions_round_robin_with_lpt_within() {
        let queue = AdmissionQueue::new(16);
        let snapshot = diamond_snapshot();
        let job = |session: SessionId, s: u32| Job {
            session,
            request: QueryRequest::new(s, 3, 3),
            kind: JobKind::Count,
            snapshot: Arc::clone(&snapshot),
            ticket: Completion(TicketInner::new()),
            hit: None,
        };
        // Session 0 queues estimates [5, 9, 1]; session 1 queues [7, 7].
        queue.submit(job(0, 100), 5).unwrap();
        queue.submit(job(0, 101), 9).unwrap();
        queue.submit(job(0, 102), 1).unwrap();
        queue.submit(job(1, 200), 7).unwrap();
        queue.submit(job(1, 201), 7).unwrap();
        let order: Vec<(SessionId, u32)> =
            (0..5).map(|_| queue.pop().map(|j| (j.session, j.request.s.0)).unwrap()).collect();
        // Round-robin across sessions; LPT within each; FIFO on ties.
        assert_eq!(order, vec![(0, 101), (1, 200), (0, 100), (1, 201), (0, 102)]);
        assert_eq!(queue.depth(), 0);
    }

    #[test]
    fn queue_is_bounded_and_rejects_instead_of_blocking() {
        let queue = AdmissionQueue::new(2);
        let snapshot = diamond_snapshot();
        let job = || Job {
            session: 0,
            request: QueryRequest::new(0, 3, 3),
            kind: JobKind::Count,
            snapshot: Arc::clone(&snapshot),
            ticket: Completion(TicketInner::new()),
            hit: None,
        };
        queue.submit(job(), 1).unwrap();
        queue.submit(job(), 1).unwrap();
        assert!(matches!(queue.submit(job(), 1), Err(HostError::QueueFull)));
        // Group admission is all-or-nothing.
        queue.pop().unwrap();
        assert!(matches!(
            queue.submit_many(vec![(job(), 1), (job(), 1)]),
            Err(HostError::QueueFull)
        ));
        queue.submit(job(), 1).unwrap();
        assert_eq!(queue.depth(), 2);
    }

    #[test]
    fn cancelled_queued_jobs_free_their_queue_slots() {
        let queue = AdmissionQueue::new(2);
        let snapshot = diamond_snapshot();
        let job = || Job {
            session: 0,
            request: QueryRequest::new(0, 3, 3),
            kind: JobKind::Count,
            snapshot: Arc::clone(&snapshot),
            ticket: Completion(TicketInner::new()),
            hit: None,
        };
        let dead_a = job();
        let dead_b = job();
        let (ticket_a, ticket_b) = (Arc::clone(&dead_a.ticket.0), Arc::clone(&dead_b.ticket.0));
        queue.submit(dead_a, 1).unwrap();
        queue.submit(dead_b, 1).unwrap();
        // Full of live jobs: refused.
        assert!(matches!(queue.submit(job(), 1), Err(HostError::QueueFull)));
        // Cancel both queued jobs; the next submission reclaims their slots.
        ticket_a.cancel.store(true, Ordering::Release);
        ticket_b.cancel.store(true, Ordering::Release);
        assert_eq!(queue.submit(job(), 1).unwrap(), 2, "two dead jobs pruned");
        assert_eq!(queue.depth(), 1);
        // The pruned tickets resolved as cancelled.
        assert!(matches!(ticket_a.slot.lock().unwrap().take(), Some(Err(HostError::Cancelled))));
        assert!(matches!(ticket_b.slot.lock().unwrap().take(), Some(Err(HostError::Cancelled))));
    }

    #[test]
    fn striped_cache_respects_total_capacity_and_counts_hits() {
        let cache = SharedPreparedCache::new(8, 4);
        assert_eq!(cache.shards.len(), 4);
        let g = diamond_snapshot();
        let mut ctx = PrepareContext::new();
        let mut prepared = |req: QueryRequest| {
            Arc::new(prepare_snapshot_with(&mut ctx, &g, req.s, req.t, req.k, PefpVariant::Full))
        };
        for s in 0..2u32 {
            let req = QueryRequest::new(s, 3, 3);
            let prep = prepared(req);
            assert!(cache.get(&req, 0).is_none());
            cache.insert(req, prep);
            assert!(cache.get(&req, 0).is_some());
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.hits.load(Ordering::Relaxed), 2);
        assert_eq!(cache.misses.load(Ordering::Relaxed), 2);
        // Capacity 0 disables caching entirely, whatever the stripe count.
        let disabled = SharedPreparedCache::new(0, 8);
        assert_eq!(disabled.shards.len(), 1);
        let req = QueryRequest::new(0, 3, 3);
        disabled.insert(req, prepared(req));
        assert_eq!(disabled.len(), 0);
    }

    #[test]
    fn runtime_serves_jobs_and_tracks_stats() {
        let runtime = diamond_runtime(RuntimeConfig::default());
        let session = runtime.register_session();
        let outcome = runtime
            .submit_query(session, QueryRequest::new(0, 3, 3), true)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(outcome.num_paths, 2);
        assert_eq!(outcome.paths.len(), 2);
        assert!(!outcome.cache_hit);
        let again = runtime
            .submit_query(session, QueryRequest::new(0, 3, 3), false)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(again.num_paths, 2);
        assert!(again.paths.is_empty(), "count jobs never materialise");
        assert!(again.cache_hit, "second submission hits the shared cache");
        let stats = runtime.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert!((stats.cache_hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(stats.per_cu_jobs, vec![2]);
        assert!(stats.virtual_makespan_cycles > 0);
        assert_eq!(
            stats.total_device_cycles, stats.virtual_makespan_cycles,
            "one session is serial"
        );
        assert_eq!(stats.per_cu_utilisation(), vec![1.0]);
    }

    #[test]
    fn updates_advance_the_epoch_and_refresh_touched_answers() {
        let runtime = diamond_runtime(RuntimeConfig::default());
        let session = runtime.register_session();
        let req = QueryRequest::new(0, 3, 3);
        let before = runtime.submit_query(session, req, false).unwrap().wait().unwrap();
        assert_eq!(before.num_paths, 2);
        assert_eq!(runtime.epoch(), 0);

        let mut delta = GraphDelta::new();
        delta.insert_edge(VertexId(0), VertexId(3));
        assert_eq!(runtime.apply_updates(&delta), 1);
        assert_eq!(runtime.epoch(), 1);

        let after = runtime.submit_query(session, req, false).unwrap().wait().unwrap();
        assert_eq!(after.num_paths, 3, "the direct edge 0->3 is a new path");
        assert!(!after.cache_hit, "the touched cache entry was evicted");
        let stats = runtime.stats();
        assert_eq!(stats.epoch, 1);
        assert_eq!(stats.graph_updates, 1);
        assert!(stats.cache_invalidated >= 1);

        // Removing the edge again restores the original answer.
        let mut undo = GraphDelta::new();
        undo.remove_edge(VertexId(0), VertexId(3));
        assert_eq!(runtime.apply_updates(&undo), 2);
        let restored = runtime.submit_query(session, req, false).unwrap().wait().unwrap();
        assert_eq!(restored.num_paths, 2);
    }

    #[test]
    fn inserts_can_grow_the_vertex_set_served_by_the_runtime() {
        let runtime = diamond_runtime(RuntimeConfig::default());
        let session = runtime.register_session();
        // Vertex 4 does not exist yet: rejected at validation.
        assert!(matches!(
            runtime.submit_query(session, QueryRequest::new(0, 4, 4), false),
            Err(HostError::QueryInvalid(_))
        ));
        let mut delta = GraphDelta::new();
        delta.insert_edge(VertexId(3), VertexId(4));
        runtime.apply_updates(&delta);
        let outcome = runtime
            .submit_query(session, QueryRequest::new(0, 4, 4), false)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(outcome.num_paths, 2, "0-1-3-4 and 0-2-3-4");
    }

    #[test]
    fn invalid_requests_are_rejected_at_submission() {
        let runtime = diamond_runtime(RuntimeConfig::default());
        let session = runtime.register_session();
        assert!(matches!(
            runtime.submit_query(session, QueryRequest::new(0, 99, 3), true),
            Err(HostError::QueryInvalid(_))
        ));
        assert_eq!(runtime.stats().rejected, 1);
        assert_eq!(runtime.stats().submitted, 0);
    }

    #[test]
    fn streaming_jobs_deliver_paths_through_the_channel() {
        let runtime = diamond_runtime(RuntimeConfig::default());
        let session = runtime.register_session();
        let (ticket, rx) =
            runtime.submit_query_streaming(session, QueryRequest::new(0, 3, 3), 16).unwrap();
        let paths: Vec<Vec<VertexId>> = rx.iter().collect();
        assert_eq!(paths.len(), 2);
        let outcome = ticket.wait().unwrap();
        assert_eq!(outcome.num_paths, 2);
        assert!(outcome.paths.is_empty());
    }

    #[test]
    fn dropped_ticket_cancels_a_queued_job() {
        let runtime = diamond_runtime(RuntimeConfig::default());
        let session = runtime.register_session();
        // Wedge the single worker with an undrained streaming job so the next
        // submission stays queued.
        let (stream_ticket, rx) =
            runtime.submit_query_streaming(session, QueryRequest::new(0, 3, 3), 1).unwrap();
        let queued = runtime.submit_query(session, QueryRequest::new(0, 3, 2), false).unwrap();
        let inner = Arc::clone(&queued.inner);
        drop(queued); // cancels while (probably) still queued
        drop(rx); // unwedge the worker
        let outcome = stream_ticket.wait().unwrap();
        assert!(outcome.num_paths <= 2);
        // The cancelled job resolves (either skipped or run-to-completion if
        // the worker grabbed it before the drop landed).
        let mut slot = inner.slot.lock().unwrap();
        while slot.is_none() {
            slot = inner.done.wait(slot).unwrap();
        }
        let stats = runtime.stats();
        assert!(stats.completed + stats.cancelled_jobs >= 2);
    }

    #[test]
    fn batch_submission_collapses_duplicates_and_answers_every_slot() {
        let runtime = diamond_runtime(RuntimeConfig::default());
        let session = runtime.register_session();
        let reqs = vec![
            QueryRequest::new(0, 3, 3),
            QueryRequest::new(0, 3, 2),
            QueryRequest::new(0, 3, 3),
        ];
        let outcome = runtime.submit_batch(session, &reqs).unwrap().wait().unwrap();
        assert_eq!(outcome.results.len(), 3);
        assert_eq!(outcome.deduplicated, 1);
        assert_eq!(outcome.results[0].num_paths, 2);
        assert_eq!(outcome.results[1].num_paths, 2);
        assert_eq!(outcome.results[2].num_paths, 2);
        assert_eq!(outcome.total_paths(), 6);
        // An invalid member rejects the whole batch.
        assert!(matches!(
            runtime.submit_batch(session, &[QueryRequest::new(0, 99, 3)]),
            Err(HostError::QueryInvalid(_))
        ));
    }

    #[test]
    fn a_worker_panic_fails_its_own_ticket_and_the_worker_serves_on() {
        let runtime = diamond_runtime(RuntimeConfig::default());
        let session = runtime.register_session();
        let doomed = QueryRequest::new(0, 3, 2);
        *runtime.shared.panic_on.lock().unwrap() = Some(doomed);
        let single = runtime.submit_query(session, doomed, false).unwrap().wait();
        assert!(matches!(single, Err(HostError::Abandoned)));
        let batch = [QueryRequest::new(0, 3, 3), doomed];
        let batch = runtime.submit_batch(session, &batch).unwrap().wait();
        assert!(matches!(batch, Err(HostError::Abandoned)));
        // The one CU worker survived both panics and returned its lease.
        let next = runtime.submit_query(session, QueryRequest::new(0, 3, 3), false).unwrap();
        assert_eq!(next.wait().unwrap().num_paths, 2);
        assert_eq!(runtime.leased_cus(), 0);
    }

    #[test]
    fn a_cpu_worker_panic_fails_its_own_ticket_and_the_worker_serves_on() {
        let routing = RoutingTable { device_fixed_us: 1e9, ..RoutingTable::builtin() };
        let config = RuntimeConfig { routing: Some(routing), cpu_workers: 1, ..Default::default() };
        let runtime = diamond_runtime(config);
        let session = runtime.register_session();
        let request = QueryRequest::new(0, 3, 3);
        let run = || runtime.submit_query(session, request, false).unwrap().wait();
        assert_eq!(run().unwrap().num_paths, 2, "prepares, routes and caches the query");
        // Cached and CPU-routed: admission hands it straight to the CPU pool.
        *runtime.shared.panic_on.lock().unwrap() = Some(request);
        assert!(matches!(run(), Err(HostError::Abandoned)));
        *runtime.shared.panic_on.lock().unwrap() = None;
        assert_eq!(run().unwrap().num_paths, 2);
        assert_eq!(runtime.stats().cpu_routed, 3);
    }

    #[test]
    fn batched_transfer_is_cheaper_than_per_query_transfers() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5), (1, 4)]);
        let runtime =
            HostRuntime::launch(GraphHandle::from_csr("dense", g), RuntimeConfig::default());
        let session = runtime.register_session();
        let reqs: Vec<QueryRequest> = (0..6u32)
            .flat_map(|s| {
                (0..6u32).filter(move |&t| t != s).map(move |t| QueryRequest::new(s, t, 4))
            })
            .collect();
        let outcome = runtime.submit_batch(session, &reqs).unwrap().wait().unwrap();
        assert_eq!(outcome.deduplicated, 0, "every request is distinct");
        // One transfer for the whole batch, so the per-query share of the
        // setup cost is far below the standalone setup cost.
        let batched = outcome.batched_transfer;
        assert!(batched.descriptors >= 1);
        assert!(batched.total_millis < outcome.transfer_millis, "one transfer beats one per job");
        let per_query = DmaEngine::for_device(&runtime.config().device)
            .transfer(batched.bytes / reqs.len())
            .total_millis;
        assert!(batched.total_millis / (reqs.len() as f64) < per_query);
    }

    #[test]
    fn scripted_faults_retry_on_the_fleet_and_still_answer_correctly() {
        use pefp_fpga::{FaultKind, ScriptedFault};
        // Both CUs fault their first attempt: the job burns one fault per CU
        // (retry prefers the *other* CU), then succeeds on the third attempt
        // once the scripts are exhausted.
        let plan = FaultPlan::scripted(2);
        plan.push_script(0, ScriptedFault { after_ops: 0, kind: FaultKind::DramCorruption });
        plan.push_script(1, ScriptedFault { after_ops: 0, kind: FaultKind::DramCorruption });
        let config = RuntimeConfig {
            compute_units: 2,
            fault_plan: Some(Arc::clone(&plan)),
            ..RuntimeConfig::default()
        };
        let runtime = diamond_runtime(config);
        let session = runtime.register_session();
        let outcome = runtime
            .submit_query(session, QueryRequest::new(0, 3, 3), true)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(outcome.num_paths, 2, "retried answer matches the fault-free one");
        let stats = runtime.stats();
        assert_eq!(stats.device_faults, 2);
        assert_eq!(stats.fault_retries, 2);
        assert_eq!(stats.faults_injected, 2);
        assert_eq!(stats.cpu_fallbacks, 0);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn crashed_single_cu_is_quarantined_then_probed_back_in() {
        use pefp_fpga::{FaultKind, ScriptedFault};
        let plan = FaultPlan::scripted(1);
        plan.push_script(0, ScriptedFault { after_ops: 0, kind: FaultKind::CuCrash });
        let config = RuntimeConfig {
            compute_units: 1,
            fault_plan: Some(Arc::clone(&plan)),
            fault_tolerance: FaultToleranceConfig {
                quarantine_after: 1,
                ..FaultToleranceConfig::default()
            },
            ..RuntimeConfig::default()
        };
        let runtime = diamond_runtime(config);
        let session = runtime.register_session();
        // Attempt 1 crash-latches CU 0 and trips its breaker; with no healthy
        // CU left the retry force-probes the quarantined CU, which repairs the
        // crash latch first — the fleet heals instead of deadlocking.
        let outcome = runtime
            .submit_query(session, QueryRequest::new(0, 3, 3), false)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(outcome.num_paths, 2);
        assert!(!plan.is_crashed(0), "the probe repaired the crash latch");
        let stats = runtime.stats();
        assert_eq!(stats.device_faults, 1);
        assert_eq!(stats.quarantine_events, 1);
        assert_eq!(stats.quarantined_cus, 0, "the successful probe closed the breaker");
        assert_eq!(stats.cpu_fallbacks, 0);
    }

    #[test]
    fn exhausted_retries_degrade_to_the_cpu_baseline() {
        // Every PCIe DMA faults: no device attempt can ever succeed, so after
        // the retry budget the job runs on the CPU baseline — same answer.
        let rates = pefp_fpga::FaultRates { pcie_error: 1.0, ..pefp_fpga::FaultRates::NONE };
        let config = RuntimeConfig {
            compute_units: 1,
            fault_plan: Some(FaultPlan::seeded(7, rates, 1)),
            fault_tolerance: FaultToleranceConfig {
                max_retries: 1,
                retry_backoff: Duration::ZERO,
                ..FaultToleranceConfig::default()
            },
            ..RuntimeConfig::default()
        };
        let runtime = diamond_runtime(config);
        let session = runtime.register_session();
        let outcome = runtime
            .submit_query(session, QueryRequest::new(0, 3, 3), true)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(outcome.num_paths, 2, "CPU fallback answers correctly");
        assert_eq!(outcome.paths.len(), 2);
        let stats = runtime.stats();
        assert_eq!(stats.cpu_fallbacks, 1);
        assert_eq!(stats.device_faults, 2, "initial attempt plus one retry both faulted");
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn disabled_fallback_surfaces_a_typed_device_fault() {
        use pefp_fpga::{FaultKind, ScriptedFault};
        let plan = FaultPlan::scripted(1);
        plan.push_script(0, ScriptedFault { after_ops: 0, kind: FaultKind::PcieError });
        let config = RuntimeConfig {
            compute_units: 1,
            fault_plan: Some(plan),
            fault_tolerance: FaultToleranceConfig {
                max_retries: 0,
                cpu_fallback: false,
                ..FaultToleranceConfig::default()
            },
            ..RuntimeConfig::default()
        };
        let runtime = diamond_runtime(config);
        let session = runtime.register_session();
        let err = runtime
            .submit_query(session, QueryRequest::new(0, 3, 3), false)
            .unwrap()
            .wait()
            .unwrap_err();
        match err {
            HostError::DeviceFault { event, retries, .. } => {
                assert_eq!(event.kind, FaultKind::PcieError);
                assert_eq!(event.cu, 0);
                assert_eq!(retries, 0);
            }
            other => panic!("expected DeviceFault, got {other}"),
        }
    }

    #[test]
    fn deadline_watchdog_kills_an_overrunning_job() {
        let config = RuntimeConfig {
            default_deadline: Some(Duration::from_millis(40)),
            ..RuntimeConfig::default()
        };
        let runtime = diamond_runtime(config);
        let session = runtime.register_session();
        // A capacity-1 stream the client never drains: the second path wedges
        // the worker until the watchdog fires the deadline.
        let (ticket, rx) =
            runtime.submit_query_streaming(session, QueryRequest::new(0, 3, 3), 1).unwrap();
        let err = ticket.wait().unwrap_err();
        assert!(matches!(err, HostError::DeadlineExceeded { millis: 40 }), "{err}");
        drop(rx);
        let stats = runtime.stats();
        assert_eq!(stats.deadline_kills, 1);
        assert_eq!(stats.cancelled_jobs, 1);
        assert_eq!(stats.completed, 0);
    }

    #[test]
    fn router_places_tiny_queries_on_a_cpu_engine() {
        let config = RuntimeConfig {
            routing: Some(RoutingTable::builtin()),
            cpu_workers: 1,
            ..RuntimeConfig::default()
        };
        let runtime = diamond_runtime(config);
        let session = runtime.register_session();
        let outcome = runtime
            .submit_query(session, QueryRequest::new(0, 3, 3), true)
            .unwrap()
            .wait()
            .unwrap();
        // The tiny query skipped the device entirely: right answer, correctly
        // translated paths, and a zeroed transfer report.
        assert_eq!(outcome.num_paths, 2);
        let mut paths = outcome.paths.clone();
        paths.sort();
        assert_eq!(
            paths,
            vec![
                vec![VertexId(0), VertexId(1), VertexId(3)],
                vec![VertexId(0), VertexId(2), VertexId(3)],
            ]
        );
        assert_eq!(outcome.transfer.bytes, 0);
        assert_eq!(outcome.transfer.total_millis, 0.0);
        let stats = runtime.stats();
        assert_eq!(stats.cpu_routed, 1);
        assert_eq!(stats.completed, 1);
        let cpu_jobs: u64 =
            stats.engines.iter().filter(|l| l.engine != "device").map(|l| l.jobs).sum();
        assert_eq!(cpu_jobs, 1, "one CPU lane served the job: {:?}", stats.engines);
        assert_eq!(stats.engines[0].jobs, 0, "the device lane stayed idle");
        // Per-engine stats ride the STATS JSON.
        use pefp_workload::ToJson;
        let rendered = stats.to_json().render();
        assert!(rendered.contains("\"engines\"") && rendered.contains("\"bc_dfs\""), "{rendered}");
    }

    #[test]
    fn routed_and_device_answers_agree() {
        let g = pefp_graph::generators::chung_lu(200, 4.0, 2.2, 1).to_csr();
        let device_rt =
            HostRuntime::launch(GraphHandle::from_csr("cl", g.clone()), RuntimeConfig::default());
        let routed_rt = HostRuntime::launch(
            GraphHandle::from_csr("cl", g),
            RuntimeConfig { routing: Some(RoutingTable::builtin()), ..RuntimeConfig::default() },
        );
        let (ds, rs) = (device_rt.register_session(), routed_rt.register_session());
        for (s, t) in [(0u32, 7u32), (3, 11), (5, 50), (20, 4)] {
            let req = QueryRequest::new(s, t, 4);
            let device = device_rt.submit_query(ds, req, false).unwrap().wait().unwrap();
            let routed = routed_rt.submit_query(rs, req, false).unwrap().wait().unwrap();
            assert_eq!(device.num_paths, routed.num_paths, "query {s}->{t}");
        }
    }

    #[test]
    fn explain_reports_a_decision_without_running_jobs() {
        let runtime = diamond_runtime(RuntimeConfig::default());
        // Works without a configured table (the builtin one is consulted).
        let decision = runtime.explain(QueryRequest::new(0, 3, 3)).unwrap();
        assert!(decision.choice.is_cpu(), "a diamond query is CPU-cheap: {:?}", decision.choice);
        assert!(!decision.rationale.is_empty());
        let again = runtime.explain(QueryRequest::new(0, 3, 3)).unwrap();
        assert_eq!(decision.choice, again.choice);
        assert_eq!(decision.cost_estimate_us, again.cost_estimate_us);
        // EXPLAIN ran nothing and skewed nothing.
        let stats = runtime.stats();
        assert_eq!(stats.submitted, 0);
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.cache_hits + stats.cache_misses, 0, "peeks never count");
        // Invalid requests are rejected like submissions.
        assert!(runtime.explain(QueryRequest::new(0, 99, 3)).is_err());
    }

    #[test]
    fn degraded_jobs_use_the_routers_best_cpu_engine() {
        // Force every query to the device tier (work ceiling 0-ish) on a
        // device whose DMA always faults: with retries exhausted the job
        // degrades — through the router's cheaper CPU engine, not the naive
        // oracle.
        let mut table = RoutingTable::builtin();
        table.cpu_work_ceiling = 1e-9;
        let rates = pefp_fpga::FaultRates { pcie_error: 1.0, ..pefp_fpga::FaultRates::NONE };
        let config = RuntimeConfig {
            compute_units: 1,
            routing: Some(table),
            fault_plan: Some(FaultPlan::seeded(7, rates, 1)),
            fault_tolerance: FaultToleranceConfig {
                max_retries: 0,
                retry_backoff: Duration::ZERO,
                ..FaultToleranceConfig::default()
            },
            ..RuntimeConfig::default()
        };
        let runtime = diamond_runtime(config);
        let session = runtime.register_session();
        let outcome = runtime
            .submit_query(session, QueryRequest::new(0, 3, 3), true)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(outcome.num_paths, 2, "degraded answer matches the fault-free one");
        let stats = runtime.stats();
        assert_eq!(stats.cpu_fallbacks, 1);
        assert_eq!(stats.cpu_routed, 0, "the router placed it on the device");
        let by_name = |name: &str| stats.engines.iter().find(|l| l.engine == name).unwrap().jobs;
        assert_eq!(by_name("naive"), 0, "the oracle stays the last resort");
        assert_eq!(by_name("bc_dfs") + by_name("join"), 1);
    }

    #[test]
    fn oversized_payloads_fail_through_the_ticket_and_stay_uncached() {
        let mut config = RuntimeConfig::default();
        config.device.dram_bytes = 64;
        let g = pefp_graph::generators::chung_lu(500, 6.0, 2.2, 3).to_csr();
        let runtime = HostRuntime::launch(GraphHandle::from_csr("big", g), config);
        let session = runtime.register_session();
        let err = runtime
            .submit_query(session, QueryRequest::new(0, 250, 5), false)
            .unwrap()
            .wait()
            .unwrap_err();
        assert!(matches!(err, HostError::DeviceCapacity(_)));
        assert_eq!(runtime.cached_prepared_queries(), 0);
        assert_eq!(runtime.stats().rejected, 1);
    }

    // -- Route at admission -------------------------------------------------

    /// A 2 000-vertex Chung-Lu graph on which the builtin table splits hub
    /// pairs by hop budget: at k = 6 they go to the device, at k = 4 to a CPU
    /// engine.
    fn mixed_graph() -> CsrGraph {
        pefp_graph::generators::chung_lu(2000, 6.0, 2.2, 1).to_csr()
    }
    /// Device-routed, 1 535 paths.
    const HEAVY: (u32, u32, u32) = (0, 1, 6);
    /// CPU-routed, 69 paths: enough to park a stream on a small channel.
    const CPU_STREAM: (u32, u32, u32) = (0, 1, 4);
    /// CPU-routed, a handful of paths each.
    const TINY: [(u32, u32, u32); 3] = [(0, 5, 4), (2, 3, 4), (1, 2, 4)];

    fn req((s, t, k): (u32, u32, u32)) -> QueryRequest {
        QueryRequest::new(s, t, k)
    }

    /// One CU, one CPU worker, the builtin routing table.
    fn routed_runtime(g: &CsrGraph, queue_capacity: usize) -> Arc<HostRuntime> {
        HostRuntime::launch(
            GraphHandle::from_csr("mixed", g.clone()),
            RuntimeConfig {
                routing: Some(RoutingTable::builtin()),
                cpu_workers: 1,
                queue_capacity,
                ..RuntimeConfig::default()
            },
        )
    }

    /// BC-DFS on the full graph: the answer every engine and placement owes.
    fn oracle(g: &CsrGraph, q: QueryRequest) -> Vec<pefp_graph::paths::Path> {
        canonicalize(BcDfs::new(g, q.t, q.k).enumerate(g, q.s, q.t, q.k))
    }

    /// Waits for an event another thread owes. The bound is a hang guard — a
    /// broken runtime fails the test instead of wedging it — not a latency
    /// threshold.
    fn await_until(what: &str, done: impl Fn() -> bool) {
        let give_up = Instant::now() + Duration::from_secs(20);
        while !done() {
            assert!(Instant::now() < give_up, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Serves `q` once so it is prepared, routed and resident.
    fn warm(runtime: &HostRuntime, session: SessionId, q: QueryRequest) {
        let outcome = runtime.submit_query(session, q, false).unwrap().wait().unwrap();
        assert!(!outcome.cache_hit, "{q:?} was already resident");
    }

    /// Submits `q` as a stream on a 1-path channel and waits for the first
    /// path: from then on the serving worker is inside the enumeration and
    /// parks on the full channel until the receiver is drained.
    fn wedge_with_stream(
        runtime: &HostRuntime,
        session: SessionId,
        q: QueryRequest,
    ) -> (JobTicket<QueryOutcome>, Receiver<Vec<VertexId>>, Vec<VertexId>) {
        let (ticket, rx) = runtime.submit_query_streaming(session, q, 1).unwrap();
        let first = rx.recv().expect("the stream must start");
        (ticket, rx, first)
    }

    #[test]
    fn cached_cpu_routed_query_overtakes_a_wedged_cu() {
        let g = mixed_graph();
        let runtime = routed_runtime(&g, 16);
        let session = runtime.register_session();
        let (tiny, heavy) = (req(TINY[0]), req(HEAVY));
        warm(&runtime, session, tiny);

        // The only CU worker is parked inside a device-routed enumeration.
        let (stream_ticket, rx, first) = wedge_with_stream(&runtime, session, heavy);

        let ticket = runtime.submit_query(session, tiny, false).unwrap();
        await_until("the cached tiny query", || ticket.is_finished());
        assert!(!stream_ticket.is_finished(), "the CU is still wedged");
        let outcome = ticket.wait().unwrap();
        assert_eq!(outcome.num_paths, oracle(&g, tiny).len() as u64);
        assert!(outcome.cache_hit);
        assert_eq!(outcome.transfer.bytes, 0, "served by a CPU engine");

        // Drain the stream: the enumeration it blocked is intact.
        let mut streamed = vec![first];
        streamed.extend(rx.iter());
        let heavy_outcome = stream_ticket.wait().unwrap();
        assert!(heavy_outcome.transfer.bytes > 0, "the heavy query ran on the device");
        assert_eq!(heavy_outcome.num_paths, streamed.len() as u64);
        assert_eq!(canonicalize(streamed), oracle(&g, heavy));
    }

    /// The calling thread's nice value, read from `/proc/thread-self/stat`.
    #[cfg(target_os = "linux")]
    fn own_nice() -> i32 {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap();
        // Fields after the parenthesised command name start at field 3; the
        // nice value is field 19.
        let rest = &stat[stat.rfind(')').unwrap() + 1..];
        rest.split_whitespace().nth(16).unwrap().parse().unwrap()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn background_priority_lowers_only_the_calling_thread() {
        let before = own_nice();
        let lowered = std::thread::spawn(|| {
            run_at_background_priority();
            own_nice()
        })
        .join()
        .unwrap();
        assert_eq!(lowered, 19);
        assert_eq!(own_nice(), before, "the spawning thread keeps its priority");
    }

    #[test]
    fn admission_and_worker_paths_agree_and_the_memo_is_the_router() {
        let g = mixed_graph();
        // Seeded tiny pairs plus hub pairs at a budget that needs the device.
        let mut pool: Vec<QueryRequest> =
            pefp_graph::sampling::sample_reachable_pairs(&g, 4, 6, 0xAD_317)
                .into_iter()
                .map(|(s, t)| QueryRequest { s, t, k: 4 })
                .collect();
        pool.extend([(0, 1, 6), (0, 2, 6), (1, 2, 6), (3, 1, 6), (0, 1, 4)].map(req));
        let expected: Vec<_> = pool.iter().map(|q| oracle(&g, *q)).collect();
        let n = pool.len() as u64;

        for kind in ["count", "collect", "stream"] {
            let runtime = routed_runtime(&g, 16);
            let session = runtime.register_session();
            // Returns the answer (paths where the kind delivers them) and the
            // outcome's path count.
            let serve = |q: QueryRequest| match kind {
                "stream" => {
                    let (ticket, rx) = runtime.submit_query_streaming(session, q, 4).unwrap();
                    let paths: Vec<_> = rx.iter().collect();
                    (ticket.wait().unwrap(), Some(paths))
                }
                _ => {
                    let outcome = runtime
                        .submit_query(session, q, kind == "collect")
                        .unwrap()
                        .wait()
                        .unwrap();
                    let paths = (kind == "collect").then(|| outcome.paths.clone());
                    (outcome, paths)
                }
            };
            // First pass: every query misses and takes the worker path.
            // Second pass: every query hits and takes the admission path.
            let mut cpu_routed = Vec::new();
            for hit in [false, true] {
                for (q, want) in pool.iter().zip(&expected) {
                    let (outcome, paths) = serve(*q);
                    assert_eq!(outcome.cache_hit, hit, "{kind} {q:?}");
                    assert_eq!(outcome.num_paths, want.len() as u64, "{kind} {q:?} hit={hit}");
                    if let Some(paths) = paths {
                        assert_eq!(&canonicalize(paths), want, "{kind} {q:?}");
                    }
                }
                cpu_routed.push(runtime.stats().cpu_routed);
            }
            let stats = runtime.stats();
            assert!(0 < cpu_routed[0] && cpu_routed[0] < n, "the pool is mixed: {cpu_routed:?}");
            assert_eq!(cpu_routed[1], 2 * cpu_routed[0], "both paths reach the same engines");
            assert_eq!(stats.submitted, 2 * n);
            assert_eq!(stats.completed, 2 * n);
            assert_eq!(
                (stats.cache_misses, stats.cache_hits),
                (n, n),
                "one counted lookup per job"
            );

            // The router ran once per prepared entry, and what it said is
            // what every entry still carries.
            let shared = &runtime.shared;
            assert_eq!(shared.route_calls.load(Ordering::Relaxed), n);
            let table = shared.config.routing.as_ref().unwrap();
            let mut resident = 0;
            for shard in &shared.cache.shards {
                for entry in shard.lock().unwrap().entries.values() {
                    let fresh = route_query(&entry.hit.prepared, table, &shared.route_context());
                    let memo = entry.hit.route.expect("routed runtimes memoise every entry");
                    assert_eq!(memo.choice, fresh.choice);
                    assert_eq!(memo.cost_estimate_us, fresh.cost_estimate_us);
                    resident += 1;
                }
            }
            assert_eq!(resident, n);
        }
    }

    #[test]
    fn admission_dispatched_cpu_jobs_honour_cancellation_and_deadlines() {
        let g = mixed_graph();
        let runtime = routed_runtime(&g, 16);
        let session = runtime.register_session();
        let (tiny, stream) = (req(TINY[0]), req(CPU_STREAM));
        warm(&runtime, session, tiny);
        warm(&runtime, session, stream);

        // Both are cached and CPU-routed now, so both go to the CPU queue at
        // admission: the stream parks the one CPU worker, the deadline job
        // waits behind it until the watchdog kills it.
        let (stream_ticket, rx, _first) = wedge_with_stream(&runtime, session, stream);
        let doomed = runtime
            .submit_query_with_deadline(session, tiny, false, Duration::from_millis(20))
            .unwrap();
        await_until("the deadline to fire", || runtime.stats().deadline_kills == 1);
        let cancelled_before = runtime.stats().cancelled_jobs;

        // Dropping the stream's ticket cancels it on the CPU worker, which
        // then reaches the killed job and, after it, a live one.
        drop(stream_ticket);
        let err = doomed.wait().unwrap_err();
        assert!(matches!(err, HostError::DeadlineExceeded { millis: 20 }), "{err}");
        assert_eq!(runtime.stats().cancelled_jobs, cancelled_before + 2);
        let next = runtime.submit_query(session, tiny, false).unwrap().wait().unwrap();
        assert_eq!(next.num_paths, oracle(&g, tiny).len() as u64);
        assert!(next.cache_hit);
        assert!(rx.iter().count() < oracle(&g, stream).len(), "the stream was cut short");
    }

    #[test]
    fn mixed_batches_are_admitted_to_both_queues_or_neither() {
        let g = mixed_graph();
        let runtime = routed_runtime(&g, 2);
        let session = runtime.register_session();
        let tiny = TINY.map(req);
        let heavy = [req(HEAVY), req((0, 2, 6)), req((1, 2, 6))];
        for q in tiny.into_iter().chain([heavy[0]]) {
            warm(&runtime, session, q);
        }
        let before = runtime.stats();

        // Three cached CPU-routed jobs do not fit a 2-slot CPU queue, and the
        // device job riding with them is not admitted either.
        let too_many_cpu = [tiny[0], tiny[1], tiny[2], heavy[0]];
        assert!(matches!(runtime.submit_batch(session, &too_many_cpu), Err(HostError::QueueFull)));
        // Three queued jobs do not fit a 2-slot admission queue, and the CPU
        // job riding with them is not dispatched either.
        let too_many_queued = [tiny[0], heavy[0], heavy[1], heavy[2]];
        assert!(matches!(
            runtime.submit_batch(session, &too_many_queued),
            Err(HostError::QueueFull)
        ));
        let refused = runtime.stats();
        assert_eq!(refused.queue_full_rejections, before.queue_full_rejections + 2);
        assert_eq!(refused.submitted, before.submitted);
        assert_eq!(refused.cpu_routed, before.cpu_routed);
        assert_eq!(runtime.queue_depth(), 0);

        // A batch that fits — a cached CPU job, a cached device job, an
        // uncached one and a duplicate — answers every slot.
        let batch = [tiny[0], heavy[0], heavy[1], tiny[0]];
        let outcome = runtime.submit_batch(session, &batch).unwrap().wait().unwrap();
        assert_eq!(outcome.deduplicated, 1);
        assert_eq!(outcome.cache_hits, 2);
        for (row, q) in outcome.results.iter().zip(&batch) {
            assert_eq!(row.num_paths, oracle(&g, *q).len() as u64, "{q:?}");
        }
        assert_eq!(runtime.stats().submitted, before.submitted + 3);
    }

    #[test]
    fn admission_dispatched_cpu_jobs_meet_backpressure() {
        let g = mixed_graph();
        let runtime = routed_runtime(&g, 2);
        let session = runtime.register_session();
        let (stream, cold) = (req(CPU_STREAM), req(TINY[2]));
        warm(&runtime, session, stream);
        warm(&runtime, session, req(TINY[0]));
        warm(&runtime, session, req(TINY[1]));

        // The CPU worker is parked on a full stream channel; its queue holds
        // `queue_capacity` cached jobs and refuses the next one.
        let (stream_ticket, rx, _first) = wedge_with_stream(&runtime, session, stream);
        let queued: Vec<_> = [TINY[0], TINY[1]]
            .map(|q| runtime.submit_query(session, req(q), false).unwrap())
            .into_iter()
            .collect();
        assert_eq!(runtime.queue_depth(), 2);
        let refused = runtime.submit_query(session, req(TINY[0]), false);
        assert!(matches!(refused, Err(HostError::QueueFull)));
        assert_eq!(runtime.stats().queue_full_rejections, 1);

        // A job admitted through the admission queue is owed service: the CU
        // worker prepares it, routes it to the CPU and hands it over although
        // the CPU queue is at capacity.
        let handed_over = runtime.submit_query(session, cold, false).unwrap();
        await_until("the hand-off", || runtime.shared.cpu_queue.depth() == 3);

        drop(rx);
        stream_ticket.wait().unwrap();
        for (ticket, q) in queued.into_iter().zip([TINY[0], TINY[1]]) {
            assert_eq!(ticket.wait().unwrap().num_paths, oracle(&g, req(q)).len() as u64);
        }
        let outcome = handed_over.wait().unwrap();
        assert_eq!(outcome.num_paths, oracle(&g, cold).len() as u64);
        assert!(!outcome.cache_hit);
        assert_eq!(runtime.queue_depth(), 0);
    }

    #[test]
    fn a_job_is_never_served_an_entry_newer_than_its_snapshot() {
        let runtime = diamond_runtime(RuntimeConfig::default());
        let session = runtime.register_session();
        let q = QueryRequest::new(0, 3, 3);
        // J1 pins epoch 0. Before it runs, an update lands epoch 1 and J2,
        // admitted there, prepares the same key and caches it.
        let pinned = runtime.current_snapshot();
        let mut delta = GraphDelta::new();
        delta.insert_edge(VertexId(0), VertexId(3));
        assert_eq!(runtime.apply_updates(&delta), 1);
        let j2 = runtime.submit_query(session, q, false).unwrap().wait().unwrap();
        assert_eq!(j2.num_paths, 3, "epoch 1 has the direct edge");
        let before = runtime.stats();

        // J1 reaches a worker: the epoch-1 entry is not for it.
        let ticket = TicketInner::new();
        let j1 = Job {
            session,
            request: q,
            kind: JobKind::Count,
            snapshot: Arc::clone(&pinned),
            ticket: Completion(Arc::clone(&ticket)),
            hit: None,
        };
        let shared = &runtime.shared;
        let mut ctx = PrepareContext::new();
        execute_job(shared, &mut ctx, &mut DmaEngine::for_device(&shared.config.device), j1);
        let j1 = ticket.slot.lock().unwrap().take().expect("executed").unwrap();
        let epoch0 = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(j1.num_paths, oracle(&epoch0, q).len() as u64);
        assert!(!j1.cache_hit);
        let after = runtime.stats();
        assert_eq!(
            (after.cache_hits, after.cache_misses),
            (before.cache_hits, before.cache_misses + 1)
        );

        // And J1's epoch-0 preparation did not replace the newer entry.
        let j3 = runtime.submit_query(session, q, false).unwrap().wait().unwrap();
        assert_eq!(j3.num_paths, 3);
        assert!(j3.cache_hit);
    }
}
