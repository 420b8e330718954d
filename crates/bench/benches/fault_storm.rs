//! Fault-storm benchmark: a fixed 12-query pool on a 2-CU `HostRuntime`
//! running under a seeded fault mix (transient DRAM corruption, flaky PCIe,
//! watchdog-length hangs, hard crashes), with retries, circuit-breaker
//! quarantine and CPU degradation enabled.
//!
//! The untimed header round compares every answer with a fault-free oracle
//! round and prints the recovery telemetry (faults seen, retries,
//! quarantines, fallbacks). The same fault mix is the `storm` row of the
//! tier-1 chaos matrix (`crates/host/tests/chaos_faults.rs`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pefp_fpga::{FaultPlan, FaultRates};
use pefp_graph::generators::chung_lu;
use pefp_graph::VertexId;
use pefp_host::{FaultToleranceConfig, GraphHandle, HostRuntime, QueryRequest, RuntimeConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

/// Queries per storm round.
const QUERIES: usize = 12;

/// Seed of the storm's deterministic [`FaultPlan`].
const SEED: u64 = 1701;

/// A noisy but survivable fleet: transient DRAM corruption, flaky PCIe,
/// occasional hangs (stalls far beyond the watchdog budget) and rare hard
/// crashes.
const RATES: FaultRates = FaultRates {
    dram_corruption: 0.01,
    pcie_error: 0.05,
    cu_stall: 0.002,
    stall_cycles: 100_000_000,
    cu_crash: 0.005,
};

/// A 1k Chung-Lu graph with [`QUERIES`] mixed hub/non-hub queries at k=4..6.
fn workload() -> (GraphHandle, Vec<QueryRequest>) {
    let handle = GraphHandle::from_csr("chung_lu_1k", chung_lu(1_000, 6.0, 2.2, 5).to_csr());
    let requests = (0..QUERIES as u32)
        .map(|i| QueryRequest::new((i * 13) % 1_000, (i * 89 + 7) % 1_000, 4 + i % 3))
        .collect();
    (handle, requests)
}

/// The fault-tolerant 2-CU runtime a round runs on; without `faults` it
/// serves the oracle round.
fn storm_runtime(handle: &GraphHandle, faults: bool) -> Arc<HostRuntime> {
    HostRuntime::launch(
        handle.clone(),
        RuntimeConfig {
            compute_units: 2,
            fault_plan: faults.then(|| FaultPlan::seeded(SEED, RATES, 2)),
            fault_tolerance: FaultToleranceConfig {
                retry_backoff: Duration::ZERO,
                watchdog_cycle_budget: Some(50_000_000),
                ..FaultToleranceConfig::default()
            },
            ..RuntimeConfig::default()
        },
    )
}

/// Runs the pool once, returning each query's sorted path set.
fn round(runtime: &HostRuntime, requests: &[QueryRequest]) -> Vec<Vec<Vec<VertexId>>> {
    let session = runtime.register_session();
    requests
        .iter()
        .map(|&req| {
            let mut paths = runtime
                .submit_query(session, req, true)
                .expect("storm query admitted")
                .wait()
                .expect("storm query completes despite faults")
                .paths;
            paths.sort();
            paths
        })
        .collect()
}

fn bench_fault_storm(c: &mut Criterion) {
    let (handle, requests) = workload();

    // Untimed header round: answers against the fault-free oracle, plus the
    // recovery telemetry.
    {
        let oracle = round(&storm_runtime(&handle, false), &requests);
        let runtime = storm_runtime(&handle, true);
        let answers = round(&runtime, &requests);
        let correct = answers.iter().zip(&oracle).filter(|(got, want)| got == want).count();
        let stats = runtime.stats();
        println!(
            "fault_storm: seed {SEED}, {correct}/{QUERIES} answers match the fault-free oracle; \
             {} device faults, {} retries, {} quarantines, {} CPU fallbacks",
            stats.device_faults, stats.fault_retries, stats.quarantine_events, stats.cpu_fallbacks
        );
        assert_eq!(correct, QUERIES, "the storm must not change an answer");
    }

    let mut group = c.benchmark_group("fault_storm");
    group.sample_size(10);
    group.throughput(Throughput::Elements(QUERIES as u64));
    group.bench_function("round", |b| {
        b.iter(|| {
            let runtime = storm_runtime(&handle, true);
            let session = runtime.register_session();
            let mut total = 0u64;
            for &req in &requests {
                total += runtime
                    .submit_query(session, req, false)
                    .expect("storm query admitted")
                    .wait()
                    .expect("storm query completes despite faults")
                    .num_paths;
            }
            let stats = runtime.stats();
            black_box((total, stats.device_faults, stats.cpu_fallbacks))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fault_storm);
criterion_main!(benches);
