//! Multi-CU dispatch correctness and measurement quality.
//!
//! `pefp_core::run_prepared_on_cluster` runs prepared queries concurrently
//! on N simulated compute units behind a shared-DRAM arbiter. These tests pin
//! down the two things that must never drift:
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
use pefp::core::{MeasuredMultiCu, PefpRunResult, PefpVariant};
use pefp::fpga::MultiCuConfig;
use pefp::graph::generators::chung_lu;
use pefp::graph::paths::canonicalize;
use pefp::graph::sampling::sample_reachable_pairs;
use pefp::graph::sink::CollectSink;
use pefp::graph::VertexId;
use pefp::host::{GraphHandle, QueryRequest};
use pefp_bench::gate::{dispatch_batch, measure_charged_nocache};
use std::ops::ControlFlow;

/// The 10k Chung-Lu hub-pair batch, shared with the bench gate's
/// `bank_layout/*` cases.
fn hub_batch() -> (GraphHandle, Vec<QueryRequest>) {
    (pefp_bench::gate::gate_graph(), pefp_bench::gate::gate_batch())
}

fn on_cus(cus: usize) -> MultiCuConfig {
    MultiCuConfig { compute_units: cus, ..MultiCuConfig::default() }
}

/// The full system's counting dispatch of `requests` on `cus` CUs.
fn count_on(
    cus: usize,
    handle: &GraphHandle,
    requests: &[QueryRequest],
) -> (Vec<PefpRunResult>, MeasuredMultiCu) {
    let count = |_: usize, _: &[VertexId]| ControlFlow::Continue(());
    dispatch_batch(handle, requests, PefpVariant::Full, on_cus(cus), count)
}

fn total_paths(results: &[PefpRunResult]) -> u64 {
    results.iter().map(|r| r.num_paths).sum()
}

/// Every streamed path of a `cus`-CU batch, per request and sorted.
fn streamed_paths(
    handle: &GraphHandle,
    requests: &[QueryRequest],
    cus: usize,
) -> (MeasuredMultiCu, Vec<Vec<Vec<VertexId>>>) {
    let mut paths = vec![Vec::new(); requests.len()];
    let (_, measured) =
        dispatch_batch(handle, requests, PefpVariant::Full, on_cus(cus), |job, path| {
            paths[job].push(path.to_vec());
            ControlFlow::Continue(())
        });
    (measured, paths.into_iter().map(canonicalize).collect())
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
    for (req, paths) in requests.iter().zip(&single) {
        let mut sink = CollectSink::new();
        naive_dfs_stream(&handle.csr, req.s, req.t, req.k, &mut sink);
        assert_eq!(
            *paths,
            canonicalize(sink.into_paths()),
            "1-CU batch vs naive oracle on {req:?}"
        );
    }

    // 2 and 4 CUs: identical sorted path sets.
    for cus in [2usize, 4] {
        let (measured, streamed) = streamed_paths(&handle, &requests, cus);
        assert_eq!(streamed, single, "dispatch on {cus} CUs diverged");
        // The measured makespan can never exceed the serial total.
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
    let (results, measured) = count_on(4, &handle, &requests);

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
    let (single, _) = count_on(1, &handle, &requests);
    assert_eq!(total_paths(&results), total_paths(&single));
}

#[test]
fn predicted_makespan_is_within_30_percent_of_measured() {
    let (handle, requests) = hub_batch();
    for cus in [2usize, 4] {
        let (_, measured) = count_on(cus, &handle, &requests);
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
    let (_, measured) = count_on(1, &handle, &requests);
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
    let count = |_: usize, _: &[VertexId]| ControlFlow::Continue(());
    let (_, free) = dispatch_batch(&handle, &requests, PefpVariant::NoCache, on_cus(1), count);
    let charged = measure_charged_nocache(&handle, 1);
    assert_eq!(free.per_cu_bank_conflict_cycles, vec![0]);
    assert!(charged.per_cu_bank_conflict_cycles[0] > 0, "conflicts are charged on 1 CU");
    assert!(charged.serial_cycles > free.serial_cycles);
    assert!(charged.makespan_cycles > free.makespan_cycles);
    assert_eq!(charged.makespan_cycles, charged.serial_cycles, "one CU never contends");
}
