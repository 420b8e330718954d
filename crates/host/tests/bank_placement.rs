//! Property tests for the charged DRAM banking extension and the bank-aware
//! row placement pass.
//!
//! Two invariants, checked over seeded random Chung-Lu workloads:
//!
//! 1. **Charging only adds time.** Bank-conflict/turnaround charging is a
//!    pure stall on top of the base cost model — the charged serial total
//!    and makespan can never drop below the uncharged run, and the gap is
//!    exactly the metered conflict + turnaround cycles. (The complementary
//!    equality case — zero conflicts and zero turnarounds charge nothing —
//!    is pinned at the device level in `pefp-fpga`'s unit tests.)
//! 2. **Placement never changes the answer.** The row placement policy
//!    relocates adjacency rows in simulated DRAM; it must be invisible to
//!    enumeration. Natural and bank-aware runs must stream byte-identical
//!    path sets (sorted, NOT deduplicated — equality proves both "no path
//!    dropped" and "no path duplicated" at once).

use pefp_core::PefpVariant;
use pefp_fpga::MultiCuConfig;
use pefp_graph::generators::chung_lu;
use pefp_graph::PlacementPolicy;
use pefp_host::{BatchScheduler, GraphHandle, MeasuredMultiCu, QueryRequest, SchedulerConfig};
use std::ops::ControlFlow;

/// Fixed seed pool: small enough to keep the suite quick, varied enough to
/// hit different hub structures (and with them different conflict patterns).
const SEEDS: [u64; 3] = [3, 11, 29];

/// Every ordered pair of the 6 heaviest hubs (the Chung-Lu generator gives
/// the lowest ids the highest degrees) — the hub-heavy shape where row
/// placement actually matters.
fn hub_batch(k: u32) -> Vec<QueryRequest> {
    let mut requests = Vec::new();
    for s in 0..6u32 {
        for t in 0..6u32 {
            if s != t {
                requests.push(QueryRequest::new(s, t, k));
            }
        }
    }
    requests
}

/// A batch scheduler with BRAM graph caching off (rows stream from DRAM) so
/// the bank model sees every adjacency fetch.
fn nocache_scheduler(cus: usize, charge_banked: bool) -> BatchScheduler {
    BatchScheduler::new(SchedulerConfig {
        variant: PefpVariant::NoCache,
        multi_cu: MultiCuConfig { compute_units: cus, charge_banked, ..MultiCuConfig::default() },
        ..SchedulerConfig::default()
    })
}

/// One counting batch of `requests` on `handle`'s epoch-0 snapshot.
fn run(
    scheduler: &BatchScheduler,
    handle: &GraphHandle,
    requests: &[QueryRequest],
) -> MeasuredMultiCu {
    scheduler.run_batch(&handle.snapshot(), handle.placement, requests).expect("batch").measured
}

#[test]
fn charged_makespan_never_drops_below_uncharged() {
    for seed in SEEDS {
        let graph = chung_lu(400, 6.0, 2.2, seed).to_csr();
        let handle = GraphHandle::from_csr("prop", graph);
        let requests = hub_batch(5);

        // One CU: a single worker drains the queue serially, so the measured
        // makespan is deterministic and directly comparable across runs.
        let free_measured = run(&nocache_scheduler(1, false), &handle, &requests);
        let charged_measured = run(&nocache_scheduler(1, true), &handle, &requests);
        let stall: u64 = charged_measured.per_cu_bank_conflict_cycles.iter().sum::<u64>()
            + charged_measured.per_cu_turnaround_cycles.iter().sum::<u64>();
        assert!(
            stall > 0,
            "seed {seed}: the hub batch must exercise the bank model, \
             or the property is vacuous"
        );
        // The charged clock is the uncharged clock plus exactly the metered
        // banked stall — charging can never discount a cycle.
        assert_eq!(
            charged_measured.makespan_cycles,
            free_measured.makespan_cycles + stall,
            "seed {seed}: charged single-CU makespan must exceed uncharged \
             by the metered conflict + turnaround cycles"
        );

        // Multi-CU: the measured greedy makespan is wall-clock dependent,
        // but the LPT model over the measured workloads is deterministic —
        // charging adds per-query stall, so the modelled makespan and the
        // serial total are monotone in it.
        let free2_predicted = run(&nocache_scheduler(2, false), &handle, &requests).predicted;
        let charged2_predicted = run(&nocache_scheduler(2, true), &handle, &requests).predicted;
        assert!(
            charged2_predicted.makespan_cycles >= free2_predicted.makespan_cycles,
            "seed {seed}: charged LPT makespan fell below uncharged"
        );
        assert!(
            charged2_predicted.serial_cycles >= free2_predicted.serial_cycles,
            "seed {seed}: charged serial total fell below uncharged"
        );
    }
}

/// One streamed result path, tagged with the `(s, t)` query that produced it.
type TaggedPath = (u32, u32, Vec<u32>);

/// Collects every streamed path under the given placement, tagged with its
/// query, then sorts: the full multiset of answers in canonical order.
fn sorted_paths(
    handle: &GraphHandle,
    requests: &[QueryRequest],
    cus: usize,
) -> (Vec<TaggedPath>, Vec<u64>) {
    let scheduler = nocache_scheduler(cus, true);
    let mut paths: Vec<(u32, u32, Vec<u32>)> = Vec::new();
    let outcome = scheduler
        .run_batch_streaming(&handle.snapshot(), handle.placement, requests, |req, path| {
            paths.push((req.s.0, req.t.0, path.iter().map(|v| v.0).collect()));
            ControlFlow::Continue(())
        })
        .expect("charged batch");
    paths.sort();
    let counts = outcome.results.iter().map(|r| r.num_paths).collect();
    (paths, counts)
}

#[test]
fn enumeration_is_byte_identical_under_any_placement() {
    for seed in SEEDS {
        let graph = chung_lu(300, 6.0, 2.2, seed).to_csr();
        let requests = hub_batch(5);
        let natural =
            GraphHandle::from_csr("nat", graph.clone()).with_placement(PlacementPolicy::Natural);
        let aware =
            GraphHandle::from_csr("aware", graph).with_placement(PlacementPolicy::BankAware);

        for cus in [1usize, 2] {
            let (nat_paths, nat_counts) = sorted_paths(&natural, &requests, cus);
            let (aware_paths, aware_counts) = sorted_paths(&aware, &requests, cus);
            assert!(
                !nat_paths.is_empty(),
                "seed {seed}: the batch must produce paths, or the property is vacuous"
            );
            assert_eq!(
                nat_counts, aware_counts,
                "seed {seed} cus {cus}: per-query path counts diverged under placement"
            );
            assert_eq!(
                nat_paths, aware_paths,
                "seed {seed} cus {cus}: path sets diverged under placement"
            );
        }
    }
}
