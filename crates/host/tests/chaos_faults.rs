//! Seeded chaos suite for the fault-tolerance layer.
//!
//! Every test compares answers produced under injected faults against a
//! fault-free oracle run: after retries, quarantine probes and CPU
//! degradation, the path set of every query must be *identical* — no path
//! dropped, none duplicated — and the runtime must keep making progress even
//! when every compute unit is crash-looping.
//!
//! The seed matrix is deterministic (the fault plan is a pure function of the
//! seed) and can be widened without code changes via the `PEFP_CHAOS_SEEDS`
//! environment variable, e.g. `PEFP_CHAOS_SEEDS=1,2,3,4,5,6,7,8`.

use pefp_fpga::{FaultKind, FaultPlan, FaultRates, ScriptedFault};
use pefp_graph::generators::{chung_lu, layered_dag, layered_sink, layered_source};
use pefp_graph::paths::Path;
use pefp_graph::CsrGraph;
use pefp_host::{
    FaultToleranceConfig, GraphHandle, HostError, HostRuntime, QueryRequest, RuntimeConfig,
};
use std::sync::Arc;
use std::time::Duration;

fn chaos_graph() -> CsrGraph {
    chung_lu(300, 5.0, 2.3, 11).to_csr()
}

fn chaos_queries() -> Vec<QueryRequest> {
    vec![
        QueryRequest::new(0, 50, 4),
        QueryRequest::new(10, 200, 5),
        QueryRequest::new(3, 7, 6),
        QueryRequest::new(100, 250, 4),
        QueryRequest::new(42, 99, 5),
    ]
}

fn seeds() -> Vec<u64> {
    match std::env::var("PEFP_CHAOS_SEEDS") {
        Ok(spec) => spec
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| s.trim().parse().expect("PEFP_CHAOS_SEEDS must be a comma-separated u64 list"))
            .collect(),
        Err(_) => vec![1, 2, 3],
    }
}

/// Sorted (NOT deduplicated) path list: equality against the oracle proves
/// both "no path dropped" and "no path duplicated" at once.
fn sorted_paths(mut paths: Vec<Path>) -> Vec<Path> {
    paths.sort();
    paths
}

fn run_all(runtime: &HostRuntime, queries: &[QueryRequest]) -> Vec<Vec<Path>> {
    let session = runtime.register_session();
    queries
        .iter()
        .map(|&req| {
            let outcome = runtime
                .submit_query(session, req, true)
                .expect("submission accepted")
                .wait()
                .expect("job completes despite faults");
            assert_eq!(
                outcome.num_paths,
                outcome.paths.len() as u64,
                "collected jobs materialise exactly what they count"
            );
            sorted_paths(outcome.paths)
        })
        .collect()
}

fn oracle(graph: &CsrGraph, queries: &[QueryRequest]) -> Vec<Vec<Path>> {
    let runtime = HostRuntime::launch(
        GraphHandle::from_csr("oracle", graph.clone()),
        RuntimeConfig { compute_units: 2, ..RuntimeConfig::default() },
    );
    run_all(&runtime, queries)
}

fn chaos_tolerance() -> FaultToleranceConfig {
    FaultToleranceConfig {
        retry_backoff: Duration::ZERO,
        // Generous budget: real queries on the chaos graph finish far below
        // it, while a 100M-cycle injected stall trips the hang detector.
        watchdog_cycle_budget: Some(50_000_000),
        ..FaultToleranceConfig::default()
    }
}

#[test]
fn seeded_fault_matrix_preserves_every_answer() {
    let graph = chaos_graph();
    let queries = chaos_queries();
    let expected = oracle(&graph, &queries);
    let mixes: Vec<(&str, FaultRates)> = vec![
        (
            "light",
            FaultRates {
                dram_corruption: 0.002,
                pcie_error: 0.02,
                cu_stall: 0.002,
                stall_cycles: 5_000,
                cu_crash: 0.001,
            },
        ),
        ("dram-heavy", FaultRates { dram_corruption: 0.02, ..FaultRates::NONE }),
        ("pcie-heavy", FaultRates { pcie_error: 0.3, ..FaultRates::NONE }),
        (
            "hang-prone",
            FaultRates {
                cu_stall: 0.005,
                stall_cycles: 100_000_000, // beyond the watchdog budget: a hang
                ..FaultRates::NONE
            },
        ),
        ("crash-prone", FaultRates { cu_crash: 0.01, ..FaultRates::NONE }),
        (
            // Every fault kind at once, hangs included.
            "storm",
            FaultRates {
                dram_corruption: 0.01,
                pcie_error: 0.05,
                cu_stall: 0.002,
                stall_cycles: 100_000_000,
                cu_crash: 0.005,
            },
        ),
    ];
    for seed in seeds() {
        for (name, rates) in &mixes {
            let runtime = HostRuntime::launch(
                GraphHandle::from_csr("chaos", graph.clone()),
                RuntimeConfig {
                    compute_units: 2,
                    fault_plan: Some(FaultPlan::seeded(seed, *rates, 2)),
                    fault_tolerance: chaos_tolerance(),
                    ..RuntimeConfig::default()
                },
            );
            let got = run_all(&runtime, &queries);
            for (i, (got, expected)) in got.iter().zip(&expected).enumerate() {
                assert_eq!(
                    got, expected,
                    "seed {seed} mix {name} query {i}: path set diverged from fault-free oracle"
                );
            }
        }
    }
}

#[test]
fn crash_storm_degrades_to_cpu_without_deadlocking() {
    let graph = chaos_graph();
    let queries = chaos_queries();
    let expected = oracle(&graph, &queries);
    // Every transfer kills its CU: no device attempt can ever finish, every
    // CU ends up quarantined, and every job must flow through the CPU
    // fallback — with the *same* answers and without wedging the fleet.
    let rates = FaultRates { cu_crash: 1.0, ..FaultRates::NONE };
    let runtime = HostRuntime::launch(
        GraphHandle::from_csr("storm", graph.clone()),
        RuntimeConfig {
            compute_units: 2,
            fault_plan: Some(FaultPlan::seeded(99, rates, 2)),
            fault_tolerance: FaultToleranceConfig {
                max_retries: 1,
                retry_backoff: Duration::ZERO,
                quarantine_after: 1,
                ..FaultToleranceConfig::default()
            },
            ..RuntimeConfig::default()
        },
    );
    let got = run_all(&runtime, &queries);
    assert_eq!(got, expected, "CPU-degraded answers match the oracle");
    let stats = runtime.stats();
    assert_eq!(stats.cpu_fallbacks, queries.len() as u64, "every job degraded");
    assert!(stats.quarantine_events >= 1, "the breaker opened at least once");
    assert_eq!(stats.completed, queries.len() as u64);
}

#[test]
fn pre_emission_stream_fault_replays_silently() {
    let graph = chaos_graph();
    let query = QueryRequest::new(10, 200, 5);
    let expected = oracle(&graph, &[query]).remove(0);
    // Both CUs fault before their first path leaves the device: the stream
    // replays transparently and the client sees exactly one copy of each path.
    let plan = FaultPlan::scripted(2);
    plan.push_script(0, ScriptedFault { after_ops: 0, kind: FaultKind::DramCorruption });
    plan.push_script(1, ScriptedFault { after_ops: 0, kind: FaultKind::DramCorruption });
    let runtime = HostRuntime::launch(
        GraphHandle::from_csr("replay", graph.clone()),
        RuntimeConfig {
            compute_units: 2,
            fault_plan: Some(Arc::clone(&plan)),
            fault_tolerance: chaos_tolerance(),
            ..RuntimeConfig::default()
        },
    );
    let session = runtime.register_session();
    let (ticket, rx) = runtime
        .submit_query_streaming(session, query, expected.len() + 8)
        .expect("stream accepted");
    let received = sorted_paths(rx.iter().collect());
    let outcome = ticket.wait().expect("replayed stream completes");
    assert_eq!(received, expected, "no dropped or duplicated paths across the replay");
    assert_eq!(outcome.num_paths, expected.len() as u64);
    let stats = runtime.stats();
    assert!(stats.device_faults >= 1, "the scripted fault fired");
    assert_eq!(stats.fault_after_emit, 0, "nothing was emitted before the fault");
}

#[test]
fn post_emission_stream_fault_surfaces_instead_of_duplicating() {
    // A layered DAG gives a long, many-path stream so a mid-run fault lands
    // after some paths were already delivered. The exact transfer count at
    // which emission starts depends on the cycle model, so scan `after_ops`
    // until one fault lands post-emission — deterministically, since scripts
    // and the engine are.
    let graph = layered_dag(4, 4, 3, 7).to_csr();
    let query = QueryRequest::new(layered_source().0, layered_sink(4, 4).0, 5);
    let expected = oracle(&graph, &[query]).remove(0);
    assert!(expected.len() > 4, "needs a stream long enough to interrupt");
    let mut surfaced = None;
    for after_ops in 0..64 {
        let plan = FaultPlan::scripted(1);
        plan.push_script(0, ScriptedFault { after_ops, kind: FaultKind::DramCorruption });
        let runtime = HostRuntime::launch(
            GraphHandle::from_csr("emit", graph.clone()),
            RuntimeConfig {
                compute_units: 1,
                fault_plan: Some(plan),
                fault_tolerance: chaos_tolerance(),
                ..RuntimeConfig::default()
            },
        );
        let session = runtime.register_session();
        let (ticket, rx) = runtime
            .submit_query_streaming(session, query, expected.len() + 8)
            .expect("stream accepted");
        let received = sorted_paths(rx.iter().collect());
        match ticket.wait() {
            Ok(outcome) => {
                // Fault hit before emission (silent replay) or after the last
                // batch (harmless): full correct stream either way.
                assert_eq!(received, expected);
                assert_eq!(outcome.num_paths, expected.len() as u64);
            }
            Err(HostError::FaultAfterEmit { emitted, .. }) => {
                assert!(emitted > 0);
                assert_eq!(
                    received.len() as u64,
                    emitted,
                    "the client saw exactly the paths the runtime acknowledged"
                );
                // The prefix is clean: every delivered path is a real answer,
                // delivered once.
                let mut dedup = received.clone();
                dedup.dedup();
                assert_eq!(dedup.len(), received.len(), "no duplicates in the prefix");
                for path in &received {
                    assert!(expected.contains(path), "delivered path is a true answer");
                }
                assert_eq!(runtime.stats().fault_after_emit, 1);
                surfaced = Some((after_ops, emitted));
                break;
            }
            Err(other) => panic!("unexpected error at after_ops={after_ops}: {other}"),
        }
    }
    let (after_ops, emitted) =
        surfaced.expect("some scripted offset faults after emission started");
    assert!(after_ops > 0 || emitted > 0);
}

#[test]
fn deadlines_still_fire_under_fault_pressure() {
    let graph = chaos_graph();
    // Every PCIe transfer faults and the fallback is disabled: without a
    // deadline the job would burn its whole retry budget; the watchdog must
    // still be able to kill it cleanly while it churns.
    let rates = FaultRates { pcie_error: 1.0, ..FaultRates::NONE };
    let runtime = HostRuntime::launch(
        GraphHandle::from_csr("deadline", graph.clone()),
        RuntimeConfig {
            compute_units: 1,
            fault_plan: Some(FaultPlan::seeded(5, rates, 1)),
            fault_tolerance: FaultToleranceConfig {
                max_retries: 1_000,
                retry_backoff: Duration::from_millis(5),
                cpu_fallback: false,
                ..FaultToleranceConfig::default()
            },
            ..RuntimeConfig::default()
        },
    );
    let session = runtime.register_session();
    let err = runtime
        .submit_query_with_deadline(
            session,
            QueryRequest::new(10, 200, 5),
            true,
            Duration::from_millis(60),
        )
        .expect("submission accepted")
        .wait()
        .expect_err("the deadline kills the retry loop");
    assert!(matches!(err, HostError::DeadlineExceeded { millis: 60 }), "{err}");
    assert_eq!(runtime.stats().deadline_kills, 1);
}
