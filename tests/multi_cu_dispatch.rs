//! Multi-CU dispatch correctness and measurement quality.
//!
//! The batch scheduler runs batch queries concurrently on N simulated
//! compute units behind a shared-DRAM arbiter. These tests pin down the two
//! things that must never drift:
//!
//! * **correctness** — the enumerated path sets are identical (as sorted
//!   sets) across 1/2/4 CUs and the naive DFS oracle; concurrency must never
//!   change *what* is enumerated;
//! * **measurement** — the batch's serial total is exactly 77 345 simulated
//!   cycles at every CU width, the measured makespan stays within it, the
//!   4-CU speedup on the 10k Chung-Lu batch profile clears the 1.5x
//!   acceptance floor, and the traffic-aware prediction lands within 30% of
//!   the measured makespan.

use pefp::baselines::naive_dfs_stream;
use pefp::core::PefpVariant;
use pefp::graph::generators::chung_lu;
use pefp::graph::paths::canonicalize;
use pefp::graph::sampling::sample_reachable_pairs;
use pefp::graph::sink::CollectSink;
use pefp::graph::VertexId;
use pefp::host::{BatchOutcome, BatchScheduler, GraphHandle, QueryRequest, SchedulerConfig};
use pefp_bench::gate::{charged_nocache_scheduler, dispatch_scheduler, run_gate_batch};
use std::collections::HashMap;
use std::ops::ControlFlow;

/// The 10k Chung-Lu hub-pair batch, shared with the bench gate's
/// `bank_layout/*` cases.
fn hub_batch() -> (GraphHandle, Vec<QueryRequest>) {
    (pefp_bench::gate::gate_graph(), pefp_bench::gate::gate_batch())
}

/// Every streamed path of a `cus`-CU batch, grouped by request and sorted.
fn streamed_paths(
    handle: &GraphHandle,
    requests: &[QueryRequest],
    cus: usize,
) -> (BatchOutcome, HashMap<QueryRequest, Vec<Vec<VertexId>>>) {
    let mut paths = HashMap::<QueryRequest, Vec<Vec<VertexId>>>::new();
    let outcome = dispatch_scheduler(cus)
        .run_batch_streaming(&handle.snapshot(), handle.placement, requests, |req, path| {
            paths.entry(*req).or_default().push(path.to_vec());
            ControlFlow::Continue(())
        })
        .unwrap();
    (outcome, paths.into_iter().map(|(req, p)| (req, canonicalize(p))).collect())
}

#[test]
fn dispatch_path_sets_are_identical_across_cu_widths_and_oracles() {
    let handle = GraphHandle::from_csr("test", chung_lu(500, 6.0, 2.2, 11).to_csr());
    let requests: Vec<QueryRequest> = sample_reachable_pairs(&handle.csr, 4, 8, 7)
        .into_iter()
        .map(|(s, t)| QueryRequest { s, t, k: 4 })
        .collect();
    assert!(requests.len() >= 4, "need a real batch");

    // Reference: the paper's single kernel — the batch on one CU — checked
    // against an independent oracle, naive streaming DFS per query.
    let (_, single) = streamed_paths(&handle, &requests, 1);
    for req in &requests {
        let mut sink = CollectSink::new();
        naive_dfs_stream(&handle.csr, req.s, req.t, req.k, &mut sink);
        assert_eq!(
            single.get(req).cloned().unwrap_or_default(),
            canonicalize(sink.into_paths()),
            "1-CU batch vs naive oracle on {req:?}"
        );
    }

    // 2 and 4 CUs: identical sorted path sets.
    for cus in [2usize, 4] {
        let (outcome, streamed) = streamed_paths(&handle, &requests, cus);
        for req in &requests {
            assert_eq!(
                streamed.get(req).cloned().unwrap_or_default(),
                single.get(req).cloned().unwrap_or_default(),
                "dispatch on {cus} CUs diverged on {req:?}"
            );
        }
        // The measured makespan can never exceed the serial total.
        let measured = outcome.measured;
        assert!(
            measured.makespan_cycles <= measured.serial_cycles,
            "{cus} CUs: makespan {} > serial {}",
            measured.makespan_cycles,
            measured.serial_cycles
        );
    }
}

#[test]
fn four_cu_dispatch_clears_the_speedup_floor_on_the_10k_profile() {
    let (handle, requests) = hub_batch();
    let outcome = run_gate_batch(&dispatch_scheduler(4), &handle, &requests);
    let measured = &outcome.measured;

    assert_eq!(measured.compute_units, 4);
    assert_eq!(measured.per_cu_queries.iter().sum::<usize>(), requests.len());
    assert!(measured.per_cu_queries.iter().all(|&q| q > 0), "{:?}", measured.per_cu_queries);
    assert!(measured.makespan_cycles <= measured.serial_cycles);
    assert!(
        measured.speedup() >= 1.5,
        "measured 4-CU speedup {:.2} below the 1.5x acceptance floor \
         (makespan {} vs serial {})",
        measured.speedup(),
        measured.makespan_cycles,
        measured.serial_cycles
    );
    // The shared bus saturates at 4 CUs x 0.5 share: contention must show up.
    assert!(measured.contention_cycles > 0);
    assert!(measured.arbiter.refills > 0);
    assert!(measured.arbiter.penalty_cycles > 0);

    // The serial-cycle accounting is deterministic: the exact 1-CU total.
    assert_eq!(measured.serial_cycles, 77_345);
    let single = run_gate_batch(&dispatch_scheduler(1), &handle, &requests);
    assert_eq!(outcome.total_paths(), single.total_paths());
}

#[test]
fn predicted_makespan_is_within_30_percent_of_measured() {
    let (handle, requests) = hub_batch();
    for cus in [2usize, 4] {
        let measured = run_gate_batch(&dispatch_scheduler(cus), &handle, &requests).measured;
        assert_eq!(measured.serial_cycles, 77_345, "{cus} CUs");
        assert!(measured.predicted.makespan_cycles > 0);
        assert!(
            measured.model_error() <= 0.30,
            "{cus} CUs: predicted {} vs measured {} — model error {:.1}% exceeds 30%",
            measured.predicted.makespan_cycles,
            measured.makespan_cycles,
            measured.model_error() * 100.0
        );
    }
}

#[test]
fn single_cu_dispatch_equals_the_serial_pipeline_exactly() {
    let (handle, requests) = hub_batch();
    let measured = run_gate_batch(&dispatch_scheduler(1), &handle, &requests).measured;
    // One CU cannot contend with itself: the measurement collapses to the
    // serial execution, cycle for cycle.
    assert_eq!(measured.serial_cycles, 77_345);
    assert_eq!(measured.contention_cycles, 0);
    assert_eq!(measured.makespan_cycles, measured.serial_cycles);
    assert_eq!(measured.per_cu_queries, vec![requests.len()]);
    assert!((measured.speedup() - 1.0).abs() < 1e-12);
    assert_eq!(measured.predicted.makespan_cycles, measured.makespan_cycles);
}

#[test]
fn charged_single_cu_batch_pays_its_bank_stalls() {
    // The paper's one-kernel deployment is the 1-CU batch, so banked
    // charging must reach it too: on the NoCache hub batch (adjacency rows
    // stream from DRAM) the charged clock runs strictly longer.
    let (handle, requests) = hub_batch();
    let uncharged = BatchScheduler::new(SchedulerConfig {
        variant: PefpVariant::NoCache,
        ..SchedulerConfig::default()
    });
    let free = run_gate_batch(&uncharged, &handle, &requests).measured;
    let charged = run_gate_batch(&charged_nocache_scheduler(1), &handle, &requests).measured;
    assert_eq!(free.per_cu_bank_conflict_cycles, vec![0]);
    assert!(charged.per_cu_bank_conflict_cycles[0] > 0, "conflicts are charged on 1 CU");
    assert!(charged.serial_cycles > free.serial_cycles);
    assert!(charged.makespan_cycles > free.makespan_cycles);
    assert_eq!(charged.makespan_cycles, charged.serial_cycles, "one CU never contends");
}
