//! Bench gate: the within-run floors behind the `bench_gate` binary, and the
//! fixed workloads its cases share with the benches and the tier-1 tests.
//!
//! Each signal of the performance surface has exactly one home:
//!
//! * **exact simulated cycles** — the cost model is deterministic, so every
//!   cycle anchor is an `assert_eq!` on a literal in tier-1
//!   (`tests/cycle_anchors.rs`, `tests/multi_cu_dispatch.rs`);
//! * **answers** — tier-1 oracle and chaos tests;
//! * **wall-clock regression** — `benchmark/` (`BENCHMARK.json`), which runs
//!   parent and change side by side on one machine;
//! * **within-run ratios** — here: [`CASES`], one row per floor. Both sides
//!   of every ratio are measured in the same run, so the gate needs no
//!   baseline file and no machine-speed calibration, and no verdict reads an
//!   absolute wall-clock number.

use crate::loadgen::{run_open_loop, LoadConfig, LoadProtocol, LoadReport};
use pefp_fpga::MultiCuConfig;
use pefp_graph::generators::chung_lu;
use pefp_graph::{PlacementPolicy, VertexId};
use pefp_host::{
    BatchOutcome, BatchScheduler, GraphHandle, HostRuntime, NetConfig, NetServer, QueryRequest,
    RuntimeConfig, SchedulerConfig,
};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Rounds per measured side of a ratio; floors read the median (or the
/// worst, where the case says so) over these.
pub const GATE_ROUNDS: usize = 5;

/// Which side of its bound a gate signal must stay on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// The signal must be at least this.
    AtLeast(f64),
    /// The signal must be at most this.
    AtMost(f64),
}

impl Bound {
    /// Whether `value` satisfies the bound (a NaN never does).
    pub fn holds(self, value: f64) -> bool {
        match self {
            Bound::AtLeast(min) => value >= min,
            Bound::AtMost(max) => value <= max,
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::AtLeast(min) => write!(f, ">= {min}"),
            Bound::AtMost(max) => write!(f, "<= {max}"),
        }
    }
}

/// One gate case: a within-run signal, the routine that measures it and the
/// bound it must hold.
#[derive(Debug, Clone, Copy)]
pub struct GateCase {
    /// Stable case name; `bench_gate`'s optional argument selects cases by
    /// prefix of it.
    pub name: &'static str,
    /// What the signal is.
    pub signal: &'static str,
    /// The bound the signal must hold.
    pub bound: Bound,
    /// Measures the signal.
    pub run: fn() -> f64,
}

impl GateCase {
    /// Measures the case: its signal and whether the bound holds.
    pub fn check(&self) -> (f64, bool) {
        let value = (self.run)();
        (value, self.bound.holds(value))
    }
}

/// Every gate floor, in run order.
pub const CASES: &[GateCase] = &[
    GateCase {
        name: "host_concurrency/sessions4",
        signal: "aggregate queries per virtual-makespan cycle, 4 sessions over 1",
        bound: Bound::AtLeast(2.0),
        run: host_concurrency_speedup,
    },
    GateCase {
        name: "mixed_workload/router",
        signal: "serve latency of the best fixed engine policy over the router's",
        bound: Bound::AtLeast(1.2),
        run: mixed_router_speedup,
    },
    GateCase {
        name: "mixed_workload/tiny_cpu",
        signal: "tiny-pool serve latency, forced device over routed",
        bound: Bound::AtLeast(5.0),
        run: mixed_tiny_speedup,
    },
    GateCase {
        name: "bank_layout/conflict_reduction_cus2",
        signal: "charged conflict-cycle reduction, bank-aware over natural",
        bound: Bound::AtLeast(0.20),
        run: || bank_conflict_reduction(2),
    },
    GateCase {
        name: "bank_layout/conflict_reduction_cus4",
        signal: "charged conflict-cycle reduction, bank-aware over natural",
        bound: Bound::AtLeast(0.20),
        run: || bank_conflict_reduction(4),
    },
    GateCase {
        name: "bank_layout/model_error",
        signal: "worst LPT model accuracy (1 - model error) under charging",
        bound: Bound::AtLeast(0.70),
        run: charged_model_accuracy,
    },
    GateCase {
        name: "tcp_load/answered",
        signal: "worst round's answered fraction (OK or typed BUSY) of offered",
        bound: Bound::AtLeast(1.0),
        run: tcp_answered_fraction,
    },
    GateCase {
        name: "tcp_load/goodput",
        signal: "worst round's goodput over the offered rate",
        bound: Bound::AtLeast(0.3),
        run: tcp_goodput_fraction,
    },
    GateCase {
        name: "tcp_load/tail",
        signal: "median round p999 over p50 latency",
        bound: Bound::AtMost(TCP_LOAD_TAIL_RATIO_CAP),
        run: tcp_tail_ratio,
    },
];

/// The middle sample (the upper one of an even count).
fn median<T: PartialOrd>(mut samples: Vec<T>) -> T {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("comparable samples"));
    samples.swap_remove(samples.len() / 2)
}

/// The graph the gate workloads query: the 10k Chung-Lu profile used by the
/// `streaming_results` and `multi_cu` benches.
pub fn gate_graph() -> GraphHandle {
    GraphHandle::from_csr("chung_lu_10k", chung_lu(10_000, 8.0, 2.2, 3).to_csr())
}

/// The hub-pair batch: every ordered pair of the 8 heaviest hubs of
/// [`gate_graph`] (the generator gives the lowest ids the highest degrees)
/// at k=6 — 56 queries totalling 77 345 simulated cycles, with the largest
/// query only ~16% of the total, so an LPT schedule on 4 CUs has real
/// headroom (unlike uniformly sampled pairs, whose pruned subgraphs are so
/// small the batch finishes before the workers overlap).
pub fn gate_batch() -> Vec<QueryRequest> {
    let mut requests = Vec::new();
    for s in 0..8u32 {
        for t in 0..8u32 {
            if s != t {
                requests.push(QueryRequest::new(s, t, 6));
            }
        }
    }
    requests
}

/// A batch scheduler for `cus` compute units at the default bandwidth share.
pub fn dispatch_scheduler(cus: usize) -> BatchScheduler {
    BatchScheduler::new(SchedulerConfig {
        multi_cu: MultiCuConfig { compute_units: cus, ..MultiCuConfig::default() },
        ..SchedulerConfig::default()
    })
}

/// Runs `requests` as one [`BatchScheduler`] batch on `handle`'s epoch-0
/// snapshot, under the handle's row placement.
pub fn run_gate_batch(
    scheduler: &BatchScheduler,
    handle: &GraphHandle,
    requests: &[QueryRequest],
) -> BatchOutcome {
    scheduler.run_batch(&handle.snapshot(), handle.placement, requests).expect("gate batch")
}

/// A 4-CU multi-tenant [`HostRuntime`] over `handle`, as the
/// `host_concurrency` bench and gate case use it. `shared_cache` toggles the
/// runtime-wide prepared-query LRU; with it off, every session preprocesses
/// its own queries — exactly what per-session caches would do on the gate
/// workload, whose sessions never repeat a query.
pub fn concurrency_runtime(handle: &GraphHandle, shared_cache: bool) -> Arc<HostRuntime> {
    HostRuntime::launch(
        handle.clone(),
        RuntimeConfig {
            compute_units: 4,
            queue_capacity: 4096,
            shared_cache_capacity: if shared_cache { 256 } else { 0 },
            ..RuntimeConfig::default()
        },
    )
}

/// Runs `sessions` closed-loop clients against `runtime`: each client thread
/// attaches its own session and runs the full `pool` (rotated by client
/// index, so the tenants interleave rather than march in lockstep), one
/// query at a time in counting mode. Returns the total result paths.
pub fn run_concurrency_clients(
    runtime: &Arc<HostRuntime>,
    sessions: usize,
    pool: &[QueryRequest],
) -> u64 {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|c| {
                let runtime = Arc::clone(runtime);
                scope.spawn(move || {
                    let session = runtime.register_session();
                    let mut total = 0u64;
                    for i in 0..pool.len() {
                        let q = pool[(i + c * 7) % pool.len()];
                        let ticket =
                            runtime.submit_query(session, q, false).expect("submit rejected");
                        total += ticket.wait().expect("concurrency query").num_paths;
                    }
                    total
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client panicked")).sum()
    })
}

/// `host_concurrency/sessions4`: aggregate throughput (queries per
/// virtual-makespan cycle) of 4 closed-loop sessions over 1, sharing one
/// 4-CU runtime on the [`gate_batch`] pool. Medians over [`GATE_ROUNDS`]
/// fresh runtimes: the 4-session makespan carries contention stalls that
/// depend on wall-time overlap, so one unlucky round must not decide.
fn host_concurrency_speedup() -> f64 {
    let handle = gate_graph();
    let pool = gate_batch();
    let queries_per_cycle = |sessions: usize| {
        let makespans: Vec<u64> = (0..GATE_ROUNDS)
            .map(|_| {
                let runtime = concurrency_runtime(&handle, true);
                run_concurrency_clients(&runtime, sessions, &pool);
                runtime.stats().virtual_makespan_cycles
            })
            .collect();
        (sessions * pool.len()) as f64 / median(makespans).max(1) as f64
    };
    let one = queries_per_cycle(1);
    queries_per_cycle(4) / one
}

/// Transactions per closed-loop fraud-stream round.
pub const FRAUD_STREAM_TXS: usize = 400;

/// The deterministic transaction stream every fraud-stream round ingests:
/// 256 accounts, 5% injected fraud rings of size 4, fixed seed.
pub fn fraud_stream_workload() -> Vec<pefp_streaming::Transaction> {
    use pefp_streaming::{TransactionGenerator, TransactionGeneratorConfig};
    TransactionGenerator::new(TransactionGeneratorConfig {
        num_accounts: 256,
        fraud_probability: 0.05,
        ring_size: 4,
        seed: 7,
    })
    .stream(FRAUD_STREAM_TXS)
}

/// The detector a fraud-stream round runs: k=6 cycles over a 10k-timestamp
/// window on a 2-CU `HostRuntime`, every transaction an incremental graph
/// delta plus a pre-insert cycle query against the current epoch.
pub fn fraud_stream_detector() -> pefp_streaming::RuntimeCycleDetector {
    pefp_streaming::RuntimeCycleDetector::new(pefp_streaming::RuntimeDetectorConfig {
        max_cycle_hops: 6,
        window_size: 10_000,
        runtime: RuntimeConfig { compute_units: 2, ..RuntimeConfig::default() },
    })
}

/// Queries in the tiny pool: feasible queries whose pruned subgraph stays
/// below [`MIXED_TINY_WORK_CAP`] dfs-work units — the regime where PCIe
/// transfer and device fixed costs dominate and the router should place the
/// query CPU-direct.
pub const MIXED_TINY_QUERIES: usize = 24;

/// dfs-work ceiling defining the tiny pool.
pub const MIXED_TINY_WORK_CAP: f64 = 5_000.0;

/// The mixed workload: the [`gate_graph`] plus a tiny pool (scanned
/// deterministically from mid-id pairs — low ids are the hubs in this
/// generator — keeping feasible queries under [`MIXED_TINY_WORK_CAP`]) and a
/// heavy pool of hub-to-hub queries at k = 6..7.
pub fn mixed_workload_pools() -> (GraphHandle, Vec<QueryRequest>, Vec<QueryRequest>) {
    use pefp_core::{prepare_snapshot_with, PefpVariant, PrepareContext, RouteFeatures};

    let handle = gate_graph();
    let snapshot = handle.snapshot();
    let mut ctx = PrepareContext::new();
    let mut tiny = Vec::new();
    let mut i = 0u32;
    while tiny.len() < MIXED_TINY_QUERIES && i < 2_000 {
        let s = 2_000 + (i * 97) % 7_000;
        let t = 1_500 + (i * 131 + 17) % 8_000;
        let k = 3 + i % 2;
        i += 1;
        if s == t {
            continue;
        }
        let (vs, vt) = (VertexId(s), VertexId(t));
        let prep = prepare_snapshot_with(&mut ctx, &snapshot, vs, vt, k, PefpVariant::Full);
        if !prep.feasible {
            continue;
        }
        let features = RouteFeatures::compute(&prep);
        if features.dfs_work <= MIXED_TINY_WORK_CAP && !features.estimate.saturated {
            tiny.push(QueryRequest::new(s, t, k));
        }
    }
    assert_eq!(tiny.len(), MIXED_TINY_QUERIES, "the tiny-pool scan must fill the pool");
    let heavy = [(0u32, 3u32, 6u32), (1, 2, 6), (2, 5, 6), (1, 4, 6), (0, 3, 7)]
        .into_iter()
        .map(|(s, t, k)| QueryRequest::new(s, t, k))
        .collect();
    (handle, tiny, heavy)
}

/// A 2-CU runtime with the given routing policy (`None` = the pre-router
/// device-always behaviour) and two CPU workers.
pub fn mixed_runtime(
    handle: &GraphHandle,
    routing: Option<pefp_core::RoutingTable>,
) -> Arc<HostRuntime> {
    HostRuntime::launch(
        handle.clone(),
        RuntimeConfig { compute_units: 2, routing, cpu_workers: 2, ..RuntimeConfig::default() },
    )
}

/// A table that forces every non-saturated query onto the CPU engines (the
/// router still picks the cheaper of BC-DFS and join per query): the
/// strongest CPU-only policy of the mixed-workload comparison.
pub fn cpu_forcing_table() -> pefp_core::RoutingTable {
    pefp_core::RoutingTable {
        device_fixed_us: 1e9,
        cpu_work_ceiling: 1e18,
        ..pefp_core::RoutingTable::builtin()
    }
}

/// A table that forces every non-saturated query onto the CPU BC-DFS engine:
/// the "bc-dfs-always" fixed-engine policy.
pub fn bcdfs_forcing_table() -> pefp_core::RoutingTable {
    pefp_core::RoutingTable { join_fixed_us: 1e12, ..cpu_forcing_table() }
}

/// A table that forces every non-saturated query onto the CPU join engine:
/// the "join-always" fixed-engine policy.
pub fn join_forcing_table() -> pefp_core::RoutingTable {
    pefp_core::RoutingTable { bcdfs_fixed_us: 1e12, ..cpu_forcing_table() }
}

/// One closed-loop round of `pool` on `runtime`, returning the summed
/// **serve latency** in milliseconds: PCIe transfer + engine time (modelled
/// device time for device placements, wall time for CPU placements — the
/// quantity the router's cost model predicts). Preprocessing is excluded:
/// it is identical host work under every policy.
pub fn mixed_round_millis(runtime: &Arc<HostRuntime>, pool: &[QueryRequest]) -> f64 {
    let session = runtime.register_session();
    pool.iter()
        .map(|&req| {
            let outcome = runtime
                .submit_query(session, req, false)
                .expect("mixed query admitted")
                .wait()
                .expect("mixed query completes");
            outcome.transfer.total_millis + outcome.device_millis
        })
        .sum()
}

/// Median summed serve latency over three fresh-runtime rounds of `pool`
/// under `routing`.
fn mixed_policy_millis(
    handle: &GraphHandle,
    routing: Option<pefp_core::RoutingTable>,
    pool: &[QueryRequest],
) -> f64 {
    median(
        (0..3).map(|_| mixed_round_millis(&mixed_runtime(handle, routing.clone()), pool)).collect(),
    )
}

/// `mixed_workload/router`: the tiny + heavy pool under every fixed engine
/// policy — device-always (`routing: None`), bc-dfs-always, join-always and
/// the best-CPU oracle — over the adaptive router (builtin table). The
/// router must beat the *best* fixed policy, not just the worst.
fn mixed_router_speedup() -> f64 {
    let (handle, tiny, heavy) = mixed_workload_pools();
    let mixed: Vec<QueryRequest> = tiny.iter().chain(&heavy).copied().collect();
    let router = mixed_policy_millis(&handle, Some(pefp_core::RoutingTable::builtin()), &mixed);
    let fixed =
        [None, Some(bcdfs_forcing_table()), Some(join_forcing_table()), Some(cpu_forcing_table())];
    let best_fixed = fixed
        .into_iter()
        .map(|routing| mixed_policy_millis(&handle, routing, &mixed))
        .fold(f64::INFINITY, f64::min);
    best_fixed / router.max(1e-12)
}

/// `mixed_workload/tiny_cpu`: the tiny pool forced onto the device over the
/// same pool routed: CPU-routed tiny queries must skip enough transfer and
/// fixed device cost to win big.
fn mixed_tiny_speedup() -> f64 {
    let (handle, tiny, _) = mixed_workload_pools();
    let routed = mixed_policy_millis(&handle, Some(pefp_core::RoutingTable::builtin()), &tiny);
    mixed_policy_millis(&handle, None, &tiny) / routed.max(1e-12)
}

/// Compute-unit counts the charged bank-layout comparison runs at.
pub const BANK_LAYOUT_CUS: [usize; 2] = [2, 4];

/// A batch scheduler for the charged bank-layout rounds: `cus` compute units
/// at the default bandwidth share, BRAM graph caching disabled (the
/// adjacency rows stream from DRAM, so the CSR bank layout is what the banks
/// actually see) and bank-conflict/turnaround charging on.
pub fn charged_nocache_scheduler(cus: usize) -> BatchScheduler {
    BatchScheduler::new(SchedulerConfig {
        variant: pefp_core::PefpVariant::NoCache,
        multi_cu: MultiCuConfig {
            compute_units: cus,
            charge_banked: true,
            ..MultiCuConfig::default()
        },
        ..SchedulerConfig::default()
    })
}

/// `bank_layout/conflict_reduction_cusN`: the relative cut in charged
/// bank-conflict cycles of the bank-aware CSR placement over the natural
/// one on the [`gate_batch`] batch. Medians over [`GATE_ROUNDS`]: with ≥ 2
/// CUs racing on one arbiter the exact conflict total depends on the
/// interleaving.
fn bank_conflict_reduction(cus: usize) -> f64 {
    let requests = gate_batch();
    let scheduler = charged_nocache_scheduler(cus);
    let conflicts = |handle: &GraphHandle| -> u64 {
        median(
            (0..GATE_ROUNDS)
                .map(|_| {
                    let measured = run_gate_batch(&scheduler, handle, &requests).measured;
                    measured.per_cu_bank_conflict_cycles.iter().sum::<u64>()
                })
                .collect(),
        )
    };
    let natural = conflicts(&gate_graph());
    let aware = conflicts(&gate_graph().with_placement(PlacementPolicy::BankAware));
    if natural == 0 {
        0.0
    } else {
        1.0 - aware as f64 / natural as f64
    }
}

/// `bank_layout/model_error`: the worst `1 - model_error` of the LPT
/// prediction against the measured makespan under charging, over
/// [`GATE_ROUNDS`] rounds of both layouts at every [`BANK_LAYOUT_CUS`]
/// width — the same ≤ 30% bound the uncharged model is held to in tier-1.
fn charged_model_accuracy() -> f64 {
    let requests = gate_batch();
    let layouts = [gate_graph(), gate_graph().with_placement(PlacementPolicy::BankAware)];
    let mut worst = f64::INFINITY;
    for cus in BANK_LAYOUT_CUS {
        let scheduler = charged_nocache_scheduler(cus);
        for handle in &layouts {
            for _ in 0..GATE_ROUNDS {
                let measured = run_gate_batch(&scheduler, handle, &requests).measured;
                worst = worst.min(1.0 - measured.model_error());
            }
        }
    }
    worst
}

/// Concurrent loopback connections of a TCP load round.
pub const TCP_LOAD_CONNECTIONS: usize = 256;

/// Offered open-loop arrival rate (requests per second) of a load round.
pub const TCP_LOAD_RATE_PER_SEC: f64 = 1_000.0;

/// Requests offered per load round (3 seconds of schedule at the fixed
/// rate).
pub const TCP_LOAD_REQUESTS: usize = 3_000;

/// Measured load rounds (after one warm-up round).
pub const TCP_LOAD_ROUNDS: usize = 5;

/// Ceiling on the median round's p999 ÷ p50 latency. The tail is the
/// 4th-worst of 3000 samples, so scheduler noise moves it by milliseconds
/// against a ~250 µs median: single rounds read 16–93 on a 2-core VM, and a
/// noisy phase once read 448. A serving path that backlogs or loses wakeups
/// pushes p999 into the hundreds of milliseconds and breaks the ceiling.
pub const TCP_LOAD_TAIL_RATIO_CAP: f64 = 1_000.0;

/// The fixed query pool a load round cycles through: the first 16 ordered
/// pairs of [`gate_graph`]'s heaviest hubs at k=3 (the generator gives the
/// lowest ids the highest degrees) — quick to answer individually, so the
/// measured tail is queueing and transport, not one giant enumeration.
pub fn tcp_load_pool() -> Vec<(u32, u32, u32)> {
    let mut pool = Vec::new();
    for s in 0..5u32 {
        for t in 0..5u32 {
            if s != t && pool.len() < 16 {
                pool.push((s, t, 3));
            }
        }
    }
    pool
}

/// A loopback front door over a fresh 4-CU runtime on [`gate_graph`], with
/// every [`tcp_load_pool`] query already prepared and cached, and an
/// admission queue deep enough that [`TCP_LOAD_CONNECTIONS`] synchronous
/// connections never fill it: under this profile a BUSY reply is a fault.
pub fn tcp_load_front_door() -> NetServer {
    let runtime = HostRuntime::launch(
        gate_graph(),
        RuntimeConfig { compute_units: 4, queue_capacity: 4096, ..RuntimeConfig::default() },
    );
    let session = runtime.register_session();
    for (s, t, k) in tcp_load_pool() {
        runtime
            .submit_query(session, QueryRequest::new(s, t, k), false)
            .expect("warm query admitted")
            .wait()
            .expect("warm query completes");
    }
    NetServer::bind(runtime, "127.0.0.1:0", NetConfig::default()).expect("bind loopback front door")
}

/// The measured TCP load rounds, run once per process and shared by the
/// three `tcp_load/*` cases: after one warm-up round, [`TCP_LOAD_ROUNDS`]
/// rounds of [`TCP_LOAD_REQUESTS`] binary-protocol COUNT requests at
/// [`TCP_LOAD_RATE_PER_SEC`] over [`TCP_LOAD_CONNECTIONS`] loopback
/// connections, each against a fresh [`tcp_load_front_door`].
fn tcp_load_rounds() -> &'static [LoadReport] {
    static ROUNDS: OnceLock<Vec<LoadReport>> = OnceLock::new();
    ROUNDS.get_or_init(|| {
        let config = LoadConfig {
            connections: TCP_LOAD_CONNECTIONS,
            rate_per_sec: TCP_LOAD_RATE_PER_SEC,
            requests: TCP_LOAD_REQUESTS,
            protocol: LoadProtocol::Binary,
            pool: tcp_load_pool(),
        };
        let mut reports: Vec<LoadReport> = (0..=TCP_LOAD_ROUNDS)
            .map(|_| {
                let server = tcp_load_front_door();
                let report = run_open_loop(server.local_addr(), &config).expect("load round");
                server.shutdown();
                report
            })
            .collect();
        reports.remove(0); // the warm-up round pages in threads, sockets and caches
        reports
    })
}

/// `tcp_load/answered`: the worst round's fraction of offered requests
/// answered well-formed (OK or typed BUSY). One dropped connection, corrupt
/// frame or unexpected `ERR` fails it.
fn tcp_answered_fraction() -> f64 {
    tcp_load_rounds()
        .iter()
        .map(|r| (r.completed_ok + r.busy) as f64 / r.offered.max(1) as f64)
        .fold(f64::INFINITY, f64::min)
}

/// `tcp_load/goodput`: the worst round's goodput (well-formed answers per
/// wall second) over the offered rate — the share of the arrival schedule
/// the front door keeps up with. Lock convoys, thread leaks or accidental
/// serialisation collapse it.
fn tcp_goodput_fraction() -> f64 {
    let worst = tcp_load_rounds().iter().map(|r| r.goodput_per_sec).fold(f64::INFINITY, f64::min);
    worst / TCP_LOAD_RATE_PER_SEC
}

/// `tcp_load/tail`: the median over rounds of each round's p999 ÷ p50
/// scheduled-to-completion latency.
fn tcp_tail_ratio() -> f64 {
    median(tcp_load_rounds().iter().map(|r| r.p999_ns as f64 / r.p50_ns.max(1) as f64).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_signal_outside_its_bound_fails_the_case() {
        fn case(bound: Bound, run: fn() -> f64) -> GateCase {
            GateCase { name: "test/case", signal: "ratio", bound, run }
        }
        assert_eq!(case(Bound::AtLeast(1.0), || 0.5).check(), (0.5, false));
        assert_eq!(case(Bound::AtLeast(1.0), || 1.0).check(), (1.0, true));
        assert_eq!(case(Bound::AtMost(3.0), || 4.0).check(), (4.0, false));
        assert!(!case(Bound::AtLeast(0.0), || f64::NAN).check().1, "NaN never passes");
        assert_eq!(Bound::AtMost(3.0).to_string(), "<= 3");
    }

    #[test]
    fn forcing_tables_validate_and_force_their_engine() {
        use pefp_core::{prepare_snapshot_with, route_query, EngineChoice, PefpVariant};
        use pefp_core::{PrepareContext, RouteContext};
        use pefp_graph::{CsrGraph, GraphSnapshot};

        let g = GraphSnapshot::from_csr(CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]));
        let (s, t) = (VertexId(0), VertexId(3));
        let prepared =
            prepare_snapshot_with(&mut PrepareContext::new(), &g, s, t, 3, PefpVariant::Full);
        let ctx = RouteContext { compute_units: 2, charge_banked: false };
        for (table, want) in [
            (bcdfs_forcing_table(), EngineChoice::CpuBcDfs),
            (join_forcing_table(), EngineChoice::CpuJoin),
        ] {
            assert!(table.validate().is_empty(), "forcing table must stay valid");
            let decision = route_query(&prepared, &table, &ctx);
            assert_eq!(decision.choice, want, "{decision:?}");
        }
        assert!(route_query(&prepared, &cpu_forcing_table(), &ctx).choice.is_cpu());
    }
}
