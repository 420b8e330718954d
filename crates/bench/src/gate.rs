//! Bench-regression gate: the workloads, measurements and comparison rules
//! behind `BENCH_04.json` and the `bench_gate` binary.
//!
//! CI cannot eyeball criterion output, so the gate reduces the performance
//! surface to a handful of **cases**, each carrying up to three kinds of
//! signal:
//!
//! * `median_ns` — median wall-clock of the case's routine. Wall time is
//!   machine-dependent, so the check scales the committed baseline by a
//!   **calibration ratio**: a fixed reference query is re-timed at check
//!   time, and `calibration_now / calibration_baseline` rescales every
//!   wall-clock threshold before the 25% regression rule is applied.
//! * `cycles` — simulated device cycles, which are *deterministic* (the cost
//!   model is exact), so a >25% increase is always a real cost-model or
//!   engine regression, never noise.
//! * `floor` — a hard lower bound on a measured figure of merit (e.g. the
//!   ≥1.5× dispatch speedup at 4 CUs), independent of the baseline.
//!
//! The same workload builders feed the `multi_cu` criterion bench target so
//! the humans and the gate look at identical work.

use crate::loadgen::{run_open_loop, LoadConfig, LoadProtocol};
use pefp_fpga::{FaultPlan, FaultRates, MultiCuConfig};
use pefp_graph::generators::chung_lu;
use pefp_graph::sink::CountingSink;
use pefp_graph::VertexId;
use pefp_host::{
    BatchOutcome, BatchScheduler, FaultToleranceConfig, GraphHandle, HostRuntime, NetConfig,
    NetServer, QueryRequest, RuntimeConfig, SchedulerConfig,
};
use pefp_workload::JsonValue;
use std::sync::Arc;
use std::time::Instant;

/// Number of timed samples per case (median over these).
pub const GATE_SAMPLES: usize = 5;

/// Allowed relative regression before the gate fails (25%).
pub const GATE_TOLERANCE: f64 = 0.25;

/// A hard lower bound attached to a case.
#[derive(Debug, Clone, PartialEq)]
pub struct GateFloor {
    /// What the figure of merit is (e.g. `measured_speedup`).
    pub label: String,
    /// The value this run produced.
    pub value: f64,
    /// The minimum acceptable value.
    pub min: f64,
}

/// One measured gate case.
#[derive(Debug, Clone, PartialEq)]
pub struct GateCase {
    /// Case identifier, stable across runs (`multi_cu/dispatch_cus4`, …).
    pub name: String,
    /// Median wall-clock nanoseconds over [`GATE_SAMPLES`] runs.
    pub median_ns: f64,
    /// Deterministic simulated cycles of the case, when it has them.
    pub cycles: Option<u64>,
    /// Hard floor on a measured figure of merit, when the case has one.
    pub floor: Option<GateFloor>,
}

/// The graph every gate case queries: the 10k Chung-Lu profile used by the
/// `streaming_results` and `multi_cu` benches.
pub fn gate_graph() -> GraphHandle {
    GraphHandle::from_csr("chung_lu_10k", chung_lu(10_000, 8.0, 2.2, 3).to_csr())
}

/// The batch the dispatch cases run: every ordered pair of the 8 heaviest
/// hubs of [`gate_graph`] (the generator gives the lowest ids the highest
/// degrees) at k=6 — 56 queries totalling ~77k simulated
/// cycles, with the largest query only ~16% of the total, so an LPT schedule
/// on 4 CUs has real headroom (unlike uniformly sampled pairs, whose pruned
/// subgraphs are so small the batch finishes before the workers overlap).
pub fn gate_batch(_handle: &GraphHandle) -> Vec<QueryRequest> {
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

fn median_ns<F: FnMut()>(mut routine: F) -> f64 {
    routine(); // warm-up
    let mut samples: Vec<f64> = (0..GATE_SAMPLES)
        .map(|_| {
            let started = Instant::now();
            routine();
            started.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Times the fixed calibration workload: generating [`gate_graph`]'s 10k
/// Chung-Lu graph and building its CSR. The ratio of this number between two
/// machines rescales their wall-clock thresholds.
///
/// The probe deliberately times no serving-path code (Pre-BFS, engine,
/// device model, scheduler, runtime): a change that speeds those up must
/// show up against the budgets, not shrink them. Only a change to the
/// generator or the CSR builder moves the probe on an unchanged machine;
/// such a change must rescale every recorded probe value (`calibration_ns`
/// in each `BENCH_*.json`, [`TCP_LOAD_CALIBRATION_ANCHOR_NS`],
/// `routing_fit::REFERENCE_CALIBRATION_NS` and its copy in
/// `docs/routing_table.json`) by the probe's measured new/old ratio. Moving
/// to this probe from the earlier 4-query scheduler batch did, by 6.89.
pub fn calibration_median_ns() -> f64 {
    median_ns(|| {
        std::hint::black_box(chung_lu(10_000, 8.0, 2.2, 3).to_csr());
    })
}

/// Runs every gate case and returns the measurements.
pub fn run_gate_cases() -> Vec<GateCase> {
    let handle = gate_graph();
    let requests = gate_batch(&handle);
    let mut cases = Vec::new();

    // Dispatch cases: measured multi-CU execution at 1/2/4 CUs. Wall clock
    // covers the whole batch (preprocess + dispatch); cycles pin the
    // deterministic uncontended serial total; the 4-CU case additionally
    // enforces the >= 1.5x measured-speedup acceptance floor.
    for cus in [1usize, 2, 4] {
        let scheduler = dispatch_scheduler(cus);
        let mut last = None;
        let median = median_ns(|| {
            last = Some(run_gate_batch(&scheduler, &handle, &requests));
        });
        let measured = last.expect("at least one sample ran").measured;
        cases.push(GateCase {
            name: format!("multi_cu/dispatch_cus{cus}"),
            median_ns: median,
            cycles: Some(measured.serial_cycles),
            floor: (cus == 4).then(|| GateFloor {
                label: "measured_speedup".to_string(),
                value: measured.speedup(),
                min: 1.5,
            }),
        });
    }

    // Streaming cases: the k=7 hub-to-hub query of the streaming_results
    // bench, in counting and collect-equivalent (streamed) form.
    {
        use pefp_core::{pre_bfs, run_prepared_with_sink, EngineOptions, PefpVariant};
        use pefp_fpga::DeviceConfig;
        use pefp_graph::VertexId;

        let cfg = DeviceConfig::alveo_u200();
        let prep = pre_bfs(&handle.csr, VertexId(0), VertexId(3), 7);
        let opts = EngineOptions { collect_paths: false, ..PefpVariant::Full.engine_options() };
        let mut cycles = 0u64;
        let median = median_ns(|| {
            let mut sink = CountingSink::new();
            let result = run_prepared_with_sink(&prep, opts.clone(), &cfg, &mut sink);
            cycles = result.device.cycles;
            std::hint::black_box(sink.count());
        });
        cases.push(GateCase {
            name: "streaming_results/counting_k7".to_string(),
            median_ns: median,
            cycles: Some(cycles),
            floor: None,
        });
    }

    cases
}

/// A 4-CU multi-tenant [`HostRuntime`] over `handle`, as the
/// `host_concurrency` bench and the `BENCH_05` gate cases use it.
/// `shared_cache` toggles the runtime-wide prepared-query LRU; with it off,
/// every session preprocesses its own queries — exactly what per-session
/// caches would do on the gate workload, whose sessions never repeat a query.
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

/// Runs the `BENCH_05` host-concurrency cases: 1 vs 4 closed-loop sessions
/// sharing one 4-CU runtime on the [`gate_batch`] workload. Wall-clock medians
/// cover the whole round (runtime launch + clients); the 1-session case pins
/// the deterministic virtual makespan (serial, uncontended: one tenant keeps
/// one CU busy at a time); the 4-session case carries the acceptance floor —
/// aggregate throughput (queries per virtual-makespan cycle) must be at least
/// 2× the single-session figure.
pub fn run_host_concurrency_cases() -> Vec<GateCase> {
    let handle = gate_graph();
    let pool = gate_batch(&handle);
    let mut cases = Vec::new();
    let mut qps = Vec::new();

    for sessions in [1usize, 4] {
        let mut makespans: Vec<u64> = Vec::new();
        let median = median_ns(|| {
            let runtime = concurrency_runtime(&handle, true);
            let paths = run_concurrency_clients(&runtime, sessions, &pool);
            std::hint::black_box(paths);
            makespans.push(runtime.stats().virtual_makespan_cycles);
        });
        // `median_ns` runs a warm-up plus GATE_SAMPLES timed rounds; the
        // floor uses the median makespan over the timed rounds (the 4-session
        // makespan carries wall-overlap-dependent contention stalls, so a
        // single unlucky sample must not decide a hard CI gate).
        makespans.remove(0);
        makespans.sort_unstable();
        let makespan = makespans[makespans.len() / 2];
        let total_queries = (sessions * pool.len()) as f64;
        qps.push(total_queries / makespan.max(1) as f64);
        cases.push(GateCase {
            name: format!("host_concurrency/sessions{sessions}"),
            median_ns: median,
            // One closed-loop tenant never contends with itself: its virtual
            // makespan is the deterministic uncontended serial total. With 4
            // tenants the contention stalls depend on wall-time overlap, so
            // only the floor below (not an exact cycle count) is checked.
            cycles: (sessions == 1).then_some(makespan),
            floor: None,
        });
    }

    let speedup = if qps[0] > 0.0 { qps[1] / qps[0] } else { 0.0 };
    cases.last_mut().expect("two cases ran").floor = Some(GateFloor {
        label: "aggregate_qps_speedup_vs_1_session".to_string(),
        value: speedup,
        min: 2.0,
    });
    cases
}

/// Transactions per closed-loop `BENCH_06` round.
pub const FRAUD_STREAM_TXS: usize = 400;

/// The fixed p99 detection-latency budget (wall milliseconds per ingested
/// transaction, covering window expiry, the runtime cycle query and the
/// insert delta). Generous enough for any CI machine; the *throughput*
/// under this budget is what the floor gates.
pub const FRAUD_P99_BUDGET_MS: f64 = 50.0;

/// Minimum sustained transactions/second the fraud stream must keep while
/// meeting [`FRAUD_P99_BUDGET_MS`]. A round whose p99 violates the budget
/// reports zero sustained throughput and therefore fails this floor.
pub const FRAUD_SUSTAINED_TX_PER_SEC_FLOOR: f64 = 100.0;

/// The deterministic transaction stream every `BENCH_06` round ingests:
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

/// Runs the `BENCH_06` fraud-stream case: a closed-loop
/// [`pefp_streaming::RuntimeCycleDetector`] ingesting the fixed
/// [`fraud_stream_workload`] through a shared `HostRuntime` — every
/// transaction becomes an incremental `GraphDelta` (window expiries + the
/// new edge) and a pre-insert cycle query against the current epoch.
///
/// Signals, per the gate's three-signal scheme:
/// * `median_ns` — wall clock of the whole round (calibrated 25% rule);
/// * `cycles` — total simulated device cycles of the round's queries, which
///   are deterministic because the stream, the window and therefore every
///   epoch's snapshot are fixed;
/// * `floor` — sustained tx/sec while p99 per-transaction detection latency
///   stays within [`FRAUD_P99_BUDGET_MS`]; a budget violation zeroes the
///   sustained figure, so the latency bound is part of the hard gate.
pub fn run_fraud_stream_cases() -> Vec<GateCase> {
    use pefp_streaming::{RuntimeCycleDetector, RuntimeDetectorConfig};

    let txs = fraud_stream_workload();
    let mut sustained = 0.0_f64;
    let mut cycles = 0u64;
    let median = median_ns(|| {
        let mut detector = RuntimeCycleDetector::new(RuntimeDetectorConfig {
            max_cycle_hops: 6,
            window_size: 10_000,
            runtime: RuntimeConfig { compute_units: 2, ..RuntimeConfig::default() },
        });
        let round = Instant::now();
        let mut latencies_ms: Vec<f64> = txs
            .iter()
            .map(|tx| {
                let started = Instant::now();
                std::hint::black_box(detector.ingest(tx).cycles.len());
                started.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        let elapsed = round.elapsed().as_secs_f64();
        latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let p99 = latencies_ms[(latencies_ms.len() * 99).div_ceil(100) - 1];
        sustained =
            if p99 <= FRAUD_P99_BUDGET_MS { txs.len() as f64 / elapsed.max(1e-9) } else { 0.0 };
        cycles = detector.runtime().stats().total_device_cycles;
    });
    vec![GateCase {
        name: "fraud_stream/closed_loop".to_string(),
        median_ns: median,
        cycles: Some(cycles),
        floor: Some(GateFloor {
            label: format!("sustained_tx_per_sec_at_p99_{FRAUD_P99_BUDGET_MS}ms"),
            value: sustained,
            min: FRAUD_SUSTAINED_TX_PER_SEC_FLOOR,
        }),
    }]
}

/// Queries per `BENCH_07` fault-storm round.
pub const FAULT_STORM_QUERIES: usize = 12;

/// Seed of the storm's deterministic [`FaultPlan`].
pub const FAULT_STORM_SEED: u64 = 1701;

/// The fixed fault mix every `BENCH_07` round runs under: a noisy but
/// survivable fleet — transient DRAM corruption, flaky PCIe, occasional
/// hangs (stalls far beyond the engine watchdog budget) and rare hard
/// crashes.
pub const FAULT_STORM_RATES: FaultRates = FaultRates {
    dram_corruption: 0.01,
    pcie_error: 0.05,
    cu_stall: 0.002,
    stall_cycles: 100_000_000,
    cu_crash: 0.005,
};

/// Minimum goodput (correct queries per wall second) the storm round must
/// sustain while every answer stays byte-identical to the fault-free oracle.
/// The fault-free round runs thousands of queries per second on any CI
/// machine; this floor only guards against the fault path collapsing into
/// pathological retry loops, so it is set far below healthy throughput.
pub const FAULT_STORM_GOODPUT_FLOOR: f64 = 25.0;

/// The graph and query pool of the `BENCH_07` fault storm: a 1k Chung-Lu
/// graph with [`FAULT_STORM_QUERIES`] mixed hub/non-hub queries at k=4..6.
pub fn fault_storm_workload() -> (GraphHandle, Vec<QueryRequest>) {
    let handle = GraphHandle::from_csr("chung_lu_1k", chung_lu(1_000, 6.0, 2.2, 5).to_csr());
    let mut requests = Vec::new();
    for i in 0..FAULT_STORM_QUERIES as u32 {
        let s = (i * 13) % 1_000;
        let t = (i * 89 + 7) % 1_000;
        let k = 4 + (i % 3);
        requests.push(QueryRequest::new(s, t, k));
    }
    (handle, requests)
}

/// The fault-tolerant 2-CU runtime a storm round executes on.
fn fault_storm_runtime(handle: &GraphHandle, faulty: bool) -> Arc<HostRuntime> {
    HostRuntime::launch(
        handle.clone(),
        RuntimeConfig {
            compute_units: 2,
            fault_plan: faulty.then(|| FaultPlan::seeded(FAULT_STORM_SEED, FAULT_STORM_RATES, 2)),
            fault_tolerance: FaultToleranceConfig {
                retry_backoff: std::time::Duration::ZERO,
                watchdog_cycle_budget: Some(50_000_000),
                ..FaultToleranceConfig::default()
            },
            ..RuntimeConfig::default()
        },
    )
}

/// Runs the query pool once, returning each query's sorted path set.
fn fault_storm_round(runtime: &HostRuntime, requests: &[QueryRequest]) -> Vec<Vec<Vec<VertexId>>> {
    let session = runtime.register_session();
    requests
        .iter()
        .map(|&req| {
            let outcome = runtime
                .submit_query(session, req, true)
                .expect("storm query admitted")
                .wait()
                .expect("storm query completes despite faults");
            let mut paths = outcome.paths;
            paths.sort();
            paths
        })
        .collect()
}

/// Runs the `BENCH_07` fault-storm cases: the fixed query pool on a 2-CU
/// runtime under [`FAULT_STORM_RATES`], answers compared per query against a
/// fault-free oracle round.
///
/// Signals:
/// * `median_ns` — wall clock of a full storm round (calibrated 25% rule);
/// * `floor` on `fault_storm/goodput` — correct queries per wall second
///   (≥ [`FAULT_STORM_GOODPUT_FLOOR`]): a fault path degenerating into
///   unbounded retry/backoff loops fails here;
/// * `floor` on `fault_storm/correctness` — fraction of queries whose sorted
///   path set is byte-identical to the oracle, with a hard floor of 1.0:
///   *any* wrong, dropped or duplicated answer under fault injection fails
///   the gate.
///
/// No `cycles` signal: retry placement depends on wall-clock scheduling
/// noise (which CU takes which attempt), so the simulated cycle total is not
/// deterministic across rounds.
pub fn run_fault_storm_cases() -> Vec<GateCase> {
    let (handle, requests) = fault_storm_workload();
    let oracle = fault_storm_round(&fault_storm_runtime(&handle, false), &requests);
    let mut correct_fraction = 1.0_f64;
    let mut goodput = 0.0_f64;
    let median = median_ns(|| {
        let runtime = fault_storm_runtime(&handle, true);
        let round = Instant::now();
        let answers = fault_storm_round(&runtime, &requests);
        let elapsed = round.elapsed().as_secs_f64();
        let correct = answers.iter().zip(&oracle).filter(|(got, want)| got == want).count();
        correct_fraction = correct_fraction.min(correct as f64 / requests.len() as f64);
        goodput = correct as f64 / elapsed.max(1e-9);
    });
    vec![
        GateCase {
            name: "fault_storm/goodput".to_string(),
            median_ns: median,
            cycles: None,
            floor: Some(GateFloor {
                label: "correct_queries_per_sec_under_faults".to_string(),
                value: goodput,
                min: FAULT_STORM_GOODPUT_FLOOR,
            }),
        },
        GateCase {
            name: "fault_storm/correctness".to_string(),
            median_ns: median,
            cycles: None,
            floor: Some(GateFloor {
                label: "worst_round_correct_fraction".to_string(),
                value: correct_fraction,
                min: 1.0,
            }),
        },
    ]
}

/// Queries in the `BENCH_08` tiny pool: feasible queries whose pruned
/// subgraph stays below [`MIXED_TINY_WORK_CAP`] dfs-work units — the regime
/// where PCIe transfer and device fixed costs dominate and the router should
/// place the query CPU-direct.
pub const MIXED_TINY_QUERIES: usize = 24;

/// dfs-work ceiling defining the tiny pool.
pub const MIXED_TINY_WORK_CAP: f64 = 5_000.0;

/// Minimum modelled-latency speedup of the adaptive router over the **best**
/// fixed engine (device-always or CPU-always) on the mixed pool.
pub const MIXED_ROUTER_SPEEDUP_FLOOR: f64 = 1.2;

/// Minimum modelled-latency speedup of routed-CPU placement over forced
/// device placement on the tiny pool.
pub const MIXED_TINY_SPEEDUP_FLOOR: f64 = 5.0;

/// The `BENCH_08` workload: the [`gate_graph`] plus a tiny pool (scanned
/// deterministically from mid-id pairs — low ids are the hubs in this
/// generator — keeping feasible queries under [`MIXED_TINY_WORK_CAP`]) and a
/// heavy pool of hub-to-hub queries at k = 6..7.
pub fn mixed_workload_pools() -> (GraphHandle, Vec<QueryRequest>, Vec<QueryRequest>) {
    use pefp_core::{pre_bfs, RouteFeatures};

    let handle = gate_graph();
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
        let prep = pre_bfs(&handle.csr, VertexId(s), VertexId(t), k);
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
/// strongest CPU-only policy of the `BENCH_08` comparison.
pub fn cpu_forcing_table() -> pefp_core::RoutingTable {
    pefp_core::RoutingTable {
        device_fixed_us: 1e9,
        cpu_work_ceiling: 1e18,
        ..pefp_core::RoutingTable::builtin()
    }
}

/// A table that forces every non-saturated query onto the CPU BC-DFS engine:
/// the "bc-dfs-always" fixed-engine policy of the `BENCH_08` comparison.
pub fn bcdfs_forcing_table() -> pefp_core::RoutingTable {
    pefp_core::RoutingTable { join_fixed_us: 1e12, ..cpu_forcing_table() }
}

/// A table that forces every non-saturated query onto the CPU join engine:
/// the "join-always" fixed-engine policy of the `BENCH_08` comparison.
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
    let mut rounds: Vec<f64> =
        (0..3).map(|_| mixed_round_millis(&mixed_runtime(handle, routing.clone()), pool)).collect();
    rounds.sort_by(|a, b| a.partial_cmp(b).expect("finite rounds"));
    rounds[1]
}

/// Runs the `BENCH_08` mixed-workload cases: the tiny + heavy pool on one
/// 2-CU runtime under the adaptive router (builtin table) and every fixed
/// engine policy — device-always (`routing: None`, the pre-router
/// behaviour), bc-dfs-always, join-always, and the stronger best-CPU oracle
/// (device-excluding table, cheapest CPU engine per query).
///
/// Signals:
/// * `median_ns` — wall clock of a full mixed round on the router runtime
///   (calibrated 25% rule), and of the tiny pool for the second case;
/// * `cycles` — total simulated device cycles of the router round, which are
///   deterministic *and placement-sensitive*: a routing change that moves a
///   query between CPU and device shifts this total, so table drift is
///   caught even when it stays inside the latency floors;
/// * `floor` on `mixed_workload/router` — summed serve latency of the best
///   fixed policy over the router's, ≥ [`MIXED_ROUTER_SPEEDUP_FLOOR`]: the
///   router must beat *every* fixed policy (device-always, bc-dfs-always,
///   join-always, and even the best-CPU oracle), not just the worst one;
/// * `floor` on `mixed_workload/tiny_cpu` — forced-device over routed serve
///   latency on the tiny pool, ≥ [`MIXED_TINY_SPEEDUP_FLOOR`]: CPU-routed
///   tiny queries must skip enough transfer + fixed device cost to win big.
pub fn run_mixed_workload_cases() -> Vec<GateCase> {
    let (handle, tiny, heavy) = mixed_workload_pools();
    let mixed: Vec<QueryRequest> = tiny.iter().chain(heavy.iter()).copied().collect();
    let router = Some(pefp_core::RoutingTable::builtin());

    let mut cycles = 0u64;
    let mixed_median = median_ns(|| {
        let runtime = mixed_runtime(&handle, router.clone());
        std::hint::black_box(mixed_round_millis(&runtime, &mixed));
        cycles = runtime.stats().total_device_cycles;
    });
    let tiny_median = median_ns(|| {
        let runtime = mixed_runtime(&handle, router.clone());
        std::hint::black_box(mixed_round_millis(&runtime, &tiny));
    });

    let router_total = mixed_policy_millis(&handle, router.clone(), &mixed);
    let device_total = mixed_policy_millis(&handle, None, &mixed);
    let bcdfs_total = mixed_policy_millis(&handle, Some(bcdfs_forcing_table()), &mixed);
    let join_total = mixed_policy_millis(&handle, Some(join_forcing_table()), &mixed);
    let cpu_total = mixed_policy_millis(&handle, Some(cpu_forcing_table()), &mixed);
    let best_fixed = device_total.min(bcdfs_total).min(join_total).min(cpu_total);
    let router_speedup = best_fixed / router_total.max(1e-12);

    let tiny_router = mixed_policy_millis(&handle, router, &tiny);
    let tiny_device = mixed_policy_millis(&handle, None, &tiny);
    let tiny_speedup = tiny_device / tiny_router.max(1e-12);

    vec![
        GateCase {
            name: "mixed_workload/router".to_string(),
            median_ns: mixed_median,
            cycles: Some(cycles),
            floor: Some(GateFloor {
                label: "serve_latency_speedup_vs_best_fixed_engine".to_string(),
                value: router_speedup,
                min: MIXED_ROUTER_SPEEDUP_FLOOR,
            }),
        },
        GateCase {
            name: "mixed_workload/tiny_cpu".to_string(),
            median_ns: tiny_median,
            cycles: None,
            floor: Some(GateFloor {
                label: "tiny_pool_routed_speedup_vs_forced_device".to_string(),
                value: tiny_speedup,
                min: MIXED_TINY_SPEEDUP_FLOOR,
            }),
        },
    ]
}

/// Concurrent loopback connections the `BENCH_09` load round drives — the
/// issue's "≥256 concurrent connections" acceptance bar, exactly.
pub const TCP_LOAD_CONNECTIONS: usize = 256;

/// Offered open-loop arrival rate (requests per second) of a load round.
pub const TCP_LOAD_RATE_PER_SEC: f64 = 1_000.0;

/// Requests offered per load round (3 seconds of schedule at the fixed
/// rate).
pub const TCP_LOAD_REQUESTS: usize = 3_000;

/// Measured load rounds (after one warm-up round); medians are taken across
/// these.
pub const TCP_LOAD_ROUNDS: usize = 5;

/// Minimum goodput (well-formed answers per wall second) a round must
/// sustain. The offered rate is [`TCP_LOAD_RATE_PER_SEC`]; this floor only
/// guards against the serving path collapsing (lock convoys, thread leaks,
/// accidental serialisation), so it sits far below the healthy rate.
pub const TCP_LOAD_GOODPUT_FLOOR: f64 = 300.0;

/// The p999 scheduled-to-completion latency budget, in milliseconds, on the
/// machine whose calibration probe measures
/// [`TCP_LOAD_CALIBRATION_ANCHOR_NS`]; the applied budget scales linearly
/// with the check machine's own calibration. The healthy tail on the anchor
/// machine is 5–20 ms (it is the 3rd-worst of 3000 samples, so scheduler
/// noise moves it by several ms run to run — too volatile for the 25%
/// median rule, hence this generous fraud-stream-style budget); a serving
/// path that backlogs or loses wakeups pushes p999 into the
/// hundreds-of-milliseconds range and fails it on any runner.
pub const TCP_LOAD_P999_BUDGET_MS: f64 = 75.0;

/// Calibration median ([`calibration_median_ns`]) of the machine that set
/// [`TCP_LOAD_P999_BUDGET_MS`], anchoring the budget's runner-speed scaling.
pub const TCP_LOAD_CALIBRATION_ANCHOR_NS: f64 = 1.50891e7;

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

/// The 4-CU runtime one load round serves from, with an admission queue deep
/// enough that the [`TCP_LOAD_CONNECTIONS`] synchronous connections (at most
/// one in-flight request each) never fill it: BUSY replies are a fault under
/// this profile, not an expected outcome.
fn tcp_load_runtime() -> Arc<HostRuntime> {
    HostRuntime::launch(
        gate_graph(),
        RuntimeConfig { compute_units: 4, queue_capacity: 4096, ..RuntimeConfig::default() },
    )
}

fn median_of(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let n = samples.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Runs the `BENCH_09` open-loop TCP load cases: [`TCP_LOAD_ROUNDS`] rounds
/// (after one warm-up round) of [`TCP_LOAD_REQUESTS`] binary-protocol COUNT
/// requests at [`TCP_LOAD_RATE_PER_SEC`] offered over
/// [`TCP_LOAD_CONNECTIONS`] loopback connections, each round against a fresh
/// front door with a pre-warmed prepared-query cache.
///
/// Signals:
/// * `tcp_load/p999` — the median round p999 scheduled-to-completion
///   latency must stay under the runner-speed-calibrated budget
///   ([`TCP_LOAD_P999_BUDGET_MS`] scaled by this machine's calibration over
///   [`TCP_LOAD_CALIBRATION_ANCHOR_NS`]); a violation zeroes the case's
///   goodput floor value (≥ [`TCP_LOAD_GOODPUT_FLOOR`] answers/s), the same
///   budget-enforcement shape as the fraud-stream p99 gate. `median_ns`
///   records the budget the machine applied (the enforcement lives in the
///   floor: the raw tail is the 3rd-worst of 3000 samples and too volatile
///   for the 25% median rule);
/// * `tcp_load/protocol` — `median_ns` is the median round p50 latency
///   (service-dominated, so it also scales with runner speed — the round's
///   *wall clock* would not: an open-loop schedule pins it at
///   `requests / rate` regardless of machine), with an exact `floor` of 1.0
///   on the worst round's fraction of offered requests answered well-formed
///   (OK or typed BUSY): a single dropped connection, corrupt frame or
///   unexpected `ERR` fails the gate.
///
/// No `cycles` signal: whether an admission race yields a BUSY (not
/// executed) depends on wall-clock interleaving, so the simulated device
/// cycle total is not deterministic across rounds.
pub fn run_tcp_load_cases() -> Vec<GateCase> {
    let pool = tcp_load_pool();
    let mut p999s = Vec::with_capacity(TCP_LOAD_ROUNDS);
    let mut p50s = Vec::with_capacity(TCP_LOAD_ROUNDS);
    let mut worst_goodput = f64::INFINITY;
    let mut worst_answered = 1.0_f64;
    for round in 0..=TCP_LOAD_ROUNDS {
        let runtime = tcp_load_runtime();
        let session = runtime.register_session();
        for &(s, t, k) in &pool {
            runtime
                .submit_query(session, QueryRequest::new(s, t, k), false)
                .expect("warm query admitted")
                .wait()
                .expect("warm query completes");
        }
        let server = NetServer::bind(Arc::clone(&runtime), "127.0.0.1:0", NetConfig::default())
            .expect("bind loopback front door");
        let config = LoadConfig {
            connections: TCP_LOAD_CONNECTIONS,
            rate_per_sec: TCP_LOAD_RATE_PER_SEC,
            requests: TCP_LOAD_REQUESTS,
            protocol: LoadProtocol::Binary,
            pool: pool.clone(),
        };
        let report = run_open_loop(server.local_addr(), &config).expect("load round");
        server.shutdown();
        if round == 0 {
            continue; // warm-up round: page in threads, sockets, caches
        }
        p999s.push(report.p999_ns as f64);
        p50s.push(report.p50_ns as f64);
        worst_goodput = worst_goodput.min(report.goodput_per_sec);
        let answered = (report.completed_ok + report.busy) as f64 / report.offered.max(1) as f64;
        worst_answered = worst_answered.min(answered);
    }
    let budget_ns =
        TCP_LOAD_P999_BUDGET_MS * 1e6 * (calibration_median_ns() / TCP_LOAD_CALIBRATION_ANCHOR_NS);
    let median_p999 = median_of(p999s);
    vec![
        GateCase {
            name: "tcp_load/p999".to_string(),
            median_ns: budget_ns,
            cycles: None,
            floor: Some(GateFloor {
                label: "goodput_answers_per_sec_under_p999_budget".to_string(),
                value: if median_p999 <= budget_ns { worst_goodput } else { 0.0 },
                min: TCP_LOAD_GOODPUT_FLOOR,
            }),
        },
        GateCase {
            name: "tcp_load/protocol".to_string(),
            median_ns: median_of(p50s),
            cycles: None,
            floor: Some(GateFloor {
                label: "answered_fraction".to_string(),
                value: worst_answered,
                min: 1.0,
            }),
        },
    ]
}

/// Compute-unit counts the charged `BENCH_10` comparison runs at.
pub const BANK_LAYOUT_CUS: [usize; 2] = [2, 4];

/// Minimum relative reduction in charged bank-conflict cycles the bank-aware
/// CSR placement must deliver over the natural layout on the hub-pair batch.
pub const BANK_CONFLICT_REDUCTION_FLOOR: f64 = 0.20;

/// Maximum LPT model error ([`MeasuredMultiCu::model_error`]) allowed while
/// bank-conflict charging is on — the same ≤30% bound the uncharged
/// dispatch model is held to.
pub const BANK_CHARGED_MODEL_ERROR_CAP: f64 = 0.30;

/// A batch scheduler for the charged `BENCH_10` rounds: `cus` compute
/// units at the default bandwidth share, BRAM graph caching disabled (the
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

/// One charged dispatch round; returns (summed charged bank-conflict cycles,
/// charged LPT-model makespan cycles, LPT model error). The makespan figure
/// is the *predicted* schedule over the measured per-query workloads, not
/// the measured greedy makespan: the greedy queue's assignment depends on
/// wall-clock worker timing, and its run-to-run spread (±5% at 4 CUs)
/// drowns the per-CU share of the conflict cycles. The LPT figure is
/// deterministic in the workloads and moves exactly with the charged stall
/// the placement controls — and `model_error` keeps it honest against the
/// measured makespan.
fn charged_round(
    scheduler: &BatchScheduler,
    handle: &GraphHandle,
    requests: &[QueryRequest],
) -> (u64, u64, f64) {
    let measured = run_gate_batch(scheduler, handle, requests).measured;
    let conflicts: u64 = measured.per_cu_bank_conflict_cycles.iter().sum();
    (conflicts, measured.predicted.makespan_cycles, measured.model_error())
}

fn median_u64(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Runs the `BENCH_10` bank-layout cases: the [`gate_batch`] hub-pair batch
/// under bank-conflict charging, natural vs bank-aware CSR placement.
///
/// `bench04_dispatch_cus1_cycles` is the committed `BENCH_04`
/// `multi_cu/dispatch_cus1` cycle count (the `bench_gate` binary reads it
/// from the sibling `BENCH_04.json`): with banking disabled the dispatch
/// path must reproduce it **bit-identically** — the memory-model extension
/// is opt-in and must not perturb a single uncharged cycle.
///
/// Signals:
/// * `bank_layout/banking_off_determinism` — the 1-CU uncharged dispatch
///   serial cycles, as `cycles` (25% rule) *and* as an exact-equality floor
///   against the `BENCH_04` anchor (1.0 = bit-identical, 0.0 = drifted);
/// * `bank_layout/conflict_reduction_cusN` — charged conflict cycles of the
///   bank-aware layout vs the natural layout, as a relative-reduction floor
///   (≥ [`BANK_CONFLICT_REDUCTION_FLOOR`]). Medians over the timed rounds:
///   with ≥2 CUs racing on one arbiter the interleaving (and therefore the
///   exact conflict total) is scheduling-dependent;
/// * `bank_layout/makespan_win_cusN` — natural-over-aware charged LPT
///   makespan ratio (the model schedule over the measured workloads; see
///   [`charged_round`] for why not the noisy greedy figure), floored at
///   1.0: the placement must win (or at worst tie) the schedule-level
///   figure, not just the conflict counter;
/// * `bank_layout/model_error` — worst observed LPT model accuracy under
///   charging across both CU counts and both layouts, `1 - model_error`,
///   floored at
///   `1 -` [`BANK_CHARGED_MODEL_ERROR_CAP`].
pub fn run_bank_layout_cases(bench04_dispatch_cus1_cycles: Option<u64>) -> Vec<GateCase> {
    let natural = gate_graph();
    let aware = gate_graph().with_placement(pefp_graph::PlacementPolicy::BankAware);
    let requests = gate_batch(&natural);
    let mut cases = Vec::new();

    // Uncharged single-CU dispatch: deterministic, and pinned to BENCH_04.
    {
        let scheduler = dispatch_scheduler(1);
        let mut serial = 0u64;
        let median = median_ns(|| {
            serial = run_gate_batch(&scheduler, &natural, &requests).measured.serial_cycles;
        });
        cases.push(GateCase {
            name: "bank_layout/banking_off_determinism".to_string(),
            median_ns: median,
            cycles: Some(serial),
            floor: bench04_dispatch_cus1_cycles.map(|anchor| GateFloor {
                label: format!("cycles_bit_identical_to_bench04_anchor_{anchor}"),
                value: if serial == anchor { 1.0 } else { 0.0 },
                min: 1.0,
            }),
        });
    }

    let mut worst_model_accuracy = f64::INFINITY;
    for cus in BANK_LAYOUT_CUS {
        let scheduler = charged_nocache_scheduler(cus);
        let mut nat_rounds = Vec::new();
        let nat_median = median_ns(|| {
            nat_rounds.push(charged_round(&scheduler, &natural, &requests));
        });
        let mut aware_rounds = Vec::new();
        let aware_median = median_ns(|| {
            aware_rounds.push(charged_round(&scheduler, &aware, &requests));
        });
        // Drop the warm-up round each: the floors use medians over the timed
        // rounds only, like the host-concurrency makespan floor.
        nat_rounds.remove(0);
        aware_rounds.remove(0);

        let nat_conflicts = median_u64(nat_rounds.iter().map(|r| r.0).collect());
        let aware_conflicts = median_u64(aware_rounds.iter().map(|r| r.0).collect());
        let reduction = if nat_conflicts == 0 {
            0.0
        } else {
            1.0 - aware_conflicts as f64 / nat_conflicts as f64
        };
        cases.push(GateCase {
            name: format!("bank_layout/conflict_reduction_cus{cus}"),
            median_ns: nat_median,
            cycles: None,
            floor: Some(GateFloor {
                label: "charged_conflict_cycle_reduction".to_string(),
                value: reduction,
                min: BANK_CONFLICT_REDUCTION_FLOOR,
            }),
        });

        let nat_makespan = median_u64(nat_rounds.iter().map(|r| r.1).collect());
        let aware_makespan = median_u64(aware_rounds.iter().map(|r| r.1).collect());
        cases.push(GateCase {
            name: format!("bank_layout/makespan_win_cus{cus}"),
            median_ns: aware_median,
            cycles: None,
            floor: Some(GateFloor {
                label: "charged_makespan_ratio_natural_over_aware".to_string(),
                value: nat_makespan as f64 / aware_makespan.max(1) as f64,
                min: 1.0,
            }),
        });

        for (_, _, error) in nat_rounds.iter().chain(aware_rounds.iter()) {
            worst_model_accuracy = worst_model_accuracy.min(1.0 - error);
        }
    }

    cases.push(GateCase {
        name: "bank_layout/model_error".to_string(),
        median_ns: cases[0].median_ns,
        cycles: None,
        floor: Some(GateFloor {
            label: "lpt_model_accuracy_under_charging".to_string(),
            value: worst_model_accuracy,
            min: 1.0 - BANK_CHARGED_MODEL_ERROR_CAP,
        }),
    });
    cases
}

/// Serialises a gate run (calibration + cases) as the `BENCH_04.json`
/// document ([`to_json_named`] with the historical artefact name).
pub fn to_json(calibration_ns: f64, cases: &[GateCase], meta_note: &str) -> JsonValue {
    to_json_named("BENCH_04", calibration_ns, cases, meta_note)
}

/// Serialises a gate run (calibration + cases) as a `BENCH_0x.json` document
/// with an explicit artefact name (`BENCH_04`, `BENCH_05`, …).
pub fn to_json_named(
    artefact: &str,
    calibration_ns: f64,
    cases: &[GateCase],
    meta_note: &str,
) -> JsonValue {
    let case_values: Vec<JsonValue> = cases
        .iter()
        .map(|case| {
            let mut pairs = vec![
                ("name", JsonValue::String(case.name.clone())),
                ("median_ns", JsonValue::Number(case.median_ns)),
            ];
            if let Some(cycles) = case.cycles {
                pairs.push(("cycles", JsonValue::Number(cycles as f64)));
            }
            if let Some(floor) = &case.floor {
                pairs.push((
                    "floor",
                    JsonValue::object(vec![
                        ("label", JsonValue::String(floor.label.clone())),
                        ("value", JsonValue::Number(floor.value)),
                        ("min", JsonValue::Number(floor.min)),
                    ]),
                ));
            }
            JsonValue::object(pairs)
        })
        .collect();
    JsonValue::object(vec![
        (
            "_meta",
            JsonValue::object(vec![
                ("artefact", JsonValue::String(artefact.to_string())),
                ("note", JsonValue::String(meta_note.to_string())),
                ("tolerance", JsonValue::Number(GATE_TOLERANCE)),
            ]),
        ),
        ("calibration_ns", JsonValue::Number(calibration_ns)),
        ("cases", JsonValue::Array(case_values)),
    ])
}

/// One baseline case parsed back from `BENCH_04.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineCase {
    /// Case identifier.
    pub name: String,
    /// Wall-clock median recorded by the baseline machine.
    pub median_ns: f64,
    /// Deterministic cycles recorded by the baseline.
    pub cycles: Option<u64>,
}

/// A parsed `BENCH_04.json` baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Calibration wall-clock of the baseline machine.
    pub calibration_ns: f64,
    /// The recorded cases.
    pub cases: Vec<BaselineCase>,
}

/// Parses a `BENCH_04.json` document.
pub fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
    let calibration_ns =
        doc.get("calibration_ns").and_then(JsonValue::as_number).ok_or("missing calibration_ns")?;
    let cases = doc
        .get("cases")
        .and_then(JsonValue::as_array)
        .ok_or("missing cases")?
        .iter()
        .map(|case| {
            Ok(BaselineCase {
                name: case
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or("case without name")?
                    .to_string(),
                median_ns: case
                    .get("median_ns")
                    .and_then(JsonValue::as_number)
                    .ok_or("case without median_ns")?,
                cycles: case.get("cycles").and_then(JsonValue::as_number).map(|c| c as u64),
            })
        })
        .collect::<Result<Vec<_>, &str>>()?;
    Ok(Baseline { calibration_ns, cases })
}

/// Compares a fresh gate run against the committed baseline. Returns the
/// human-readable failure list (empty = gate passes).
///
/// Rules, per case:
/// * hard floors must hold (`floor.value >= floor.min`);
/// * deterministic cycles may not exceed the baseline by more than
///   [`GATE_TOLERANCE`];
/// * the wall-clock median may not exceed the *calibrated* baseline
///   (baseline median x `calibration_now / calibration_baseline`) by more
///   than [`GATE_TOLERANCE`].
///
/// A case missing from the baseline is reported, so the baseline is
/// regenerated whenever the case set grows.
pub fn compare(baseline: &Baseline, calibration_now: f64, cases: &[GateCase]) -> Vec<String> {
    let mut failures = Vec::new();
    let scale =
        if baseline.calibration_ns > 0.0 { calibration_now / baseline.calibration_ns } else { 1.0 };
    for case in cases {
        if let Some(floor) = &case.floor {
            if floor.value < floor.min {
                failures.push(format!(
                    "{}: {} {:.3} below the hard floor {:.3}",
                    case.name, floor.label, floor.value, floor.min
                ));
            }
        }
        let Some(base) = baseline.cases.iter().find(|b| b.name == case.name) else {
            failures.push(format!(
                "{}: not in the committed baseline (regenerate BENCH_04.json with --write)",
                case.name
            ));
            continue;
        };
        if let (Some(now), Some(before)) = (case.cycles, base.cycles) {
            if now as f64 > before as f64 * (1.0 + GATE_TOLERANCE) {
                failures.push(format!(
                    "{}: simulated cycles regressed {} -> {} (> {:.0}%)",
                    case.name,
                    before,
                    now,
                    GATE_TOLERANCE * 100.0
                ));
            }
        }
        let allowed = base.median_ns * scale * (1.0 + GATE_TOLERANCE);
        if case.median_ns > allowed {
            failures.push(format!(
                "{}: median {:.0} ns exceeds calibrated budget {:.0} ns \
                 (baseline {:.0} ns x machine scale {:.2} x {:.0}% tolerance)",
                case.name,
                case.median_ns,
                allowed,
                base.median_ns,
                scale,
                (1.0 + GATE_TOLERANCE) * 100.0
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(name: &str, median_ns: f64, cycles: Option<u64>) -> GateCase {
        GateCase { name: name.to_string(), median_ns, cycles, floor: None }
    }

    fn baseline() -> Baseline {
        Baseline {
            calibration_ns: 1_000.0,
            cases: vec![
                BaselineCase { name: "a".to_string(), median_ns: 10_000.0, cycles: Some(500) },
                BaselineCase { name: "b".to_string(), median_ns: 20_000.0, cycles: None },
            ],
        }
    }

    #[test]
    fn identical_run_passes() {
        let cases = vec![case("a", 10_000.0, Some(500)), case("b", 20_000.0, None)];
        assert!(compare(&baseline(), 1_000.0, &cases).is_empty());
    }

    #[test]
    fn wall_clock_regression_beyond_tolerance_fails() {
        let cases = vec![case("a", 12_600.0, Some(500))];
        let failures = compare(&baseline(), 1_000.0, &cases);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("calibrated budget"));
        // 24% over passes.
        assert!(compare(&baseline(), 1_000.0, &[case("a", 12_400.0, Some(500))]).is_empty());
    }

    #[test]
    fn calibration_rescales_the_wall_clock_budget() {
        // A machine twice as slow may take twice as long without failing.
        let cases = vec![case("a", 24_000.0, Some(500))];
        assert!(compare(&baseline(), 2_000.0, &cases).is_empty());
        // ... but a fast machine gets a tighter budget.
        let failures = compare(&baseline(), 500.0, &cases);
        assert_eq!(failures.len(), 1);
    }

    #[test]
    fn deterministic_cycle_regressions_ignore_calibration() {
        let cases = vec![case("a", 10_000.0, Some(700))];
        let failures = compare(&baseline(), 1_000.0, &cases);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("cycles regressed"));
    }

    #[test]
    fn floors_and_missing_cases_are_reported() {
        let mut with_floor = case("a", 10_000.0, Some(500));
        with_floor.floor =
            Some(GateFloor { label: "measured_speedup".to_string(), value: 1.2, min: 1.5 });
        let failures = compare(&baseline(), 1_000.0, &[with_floor, case("new", 1.0, None)]);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("hard floor"));
        assert!(failures[1].contains("not in the committed baseline"));
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let cases = vec![
            GateCase {
                name: "multi_cu/dispatch_cus4".to_string(),
                median_ns: 123_456.0,
                cycles: Some(42),
                floor: Some(GateFloor {
                    label: "measured_speedup".to_string(),
                    value: 2.5,
                    min: 1.5,
                }),
            },
            case("streaming_results/counting_k7", 9_999.5, None),
        ];
        let text = to_json(777.0, &cases, "test").render_pretty();
        let parsed = parse_baseline(&text).unwrap();
        assert_eq!(parsed.calibration_ns, 777.0);
        assert_eq!(parsed.cases.len(), 2);
        assert_eq!(parsed.cases[0].cycles, Some(42));
        assert_eq!(parsed.cases[1].median_ns, 9_999.5);
        // The fresh run compares clean against its own baseline.
        assert!(compare(&parsed, 777.0, &cases).is_empty());
    }

    #[test]
    fn forcing_tables_validate_and_force_their_engine() {
        use pefp_core::{pre_bfs, route_query, EngineChoice, RouteContext};
        use pefp_graph::CsrGraph;

        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let prepared = pre_bfs(&g, VertexId(0), VertexId(3), 3);
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
