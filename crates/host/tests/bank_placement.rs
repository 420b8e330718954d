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

use pefp_core::{
    prepare_snapshot_with, run_prepared_on_cluster, MeasuredMultiCu, PefpRunResult, PefpVariant,
    PrepareContext,
};
use pefp_fpga::{CuCluster, DeviceConfig, MultiCuConfig};
use pefp_graph::generators::chung_lu;
use pefp_graph::{PlacementPolicy, VertexId};
use pefp_host::{GraphHandle, QueryRequest};
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

/// Runs `requests` with BRAM graph caching off (rows stream from DRAM, so
/// the bank model sees every adjacency fetch) on a private cluster of `cus`
/// CUs, under `handle`'s row placement, handing every path to `on_path`.
fn nocache_dispatch<F>(
    handle: &GraphHandle,
    requests: &[QueryRequest],
    cus: usize,
    charge_banked: bool,
    on_path: F,
) -> (Vec<PefpRunResult>, MeasuredMultiCu)
where
    F: FnMut(usize, &[VertexId]) -> ControlFlow<()> + Send,
{
    let variant = PefpVariant::NoCache;
    let (snapshot, mut ctx) = (handle.snapshot(), PrepareContext::new());
    let prepared: Vec<_> = requests
        .iter()
        .map(|q| prepare_snapshot_with(&mut ctx, &snapshot, q.s, q.t, q.k, variant))
        .collect();
    let multi_cu = MultiCuConfig { compute_units: cus, charge_banked, ..MultiCuConfig::default() };
    let mut options = variant.engine_options();
    options.bank_placement = handle.placement;
    let cluster = CuCluster::new(DeviceConfig::alveo_u200(), multi_cu);
    run_prepared_on_cluster(&cluster, &prepared, options, on_path)
}

/// One counting batch of `requests` on `handle`'s epoch-0 snapshot.
fn run(
    handle: &GraphHandle,
    requests: &[QueryRequest],
    cus: usize,
    charge_banked: bool,
) -> MeasuredMultiCu {
    nocache_dispatch(handle, requests, cus, charge_banked, |_, _| ControlFlow::Continue(())).1
}

#[test]
fn charged_makespan_never_drops_below_uncharged() {
    for seed in SEEDS {
        let graph = chung_lu(400, 6.0, 2.2, seed).to_csr();
        let handle = GraphHandle::from_csr("prop", graph);
        let requests = hub_batch(5);

        // One CU: a single worker drains the queue serially, so the measured
        // makespan is deterministic and directly comparable across runs.
        let free_measured = run(&handle, &requests, 1, false);
        let charged_measured = run(&handle, &requests, 1, true);
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
        let free2_predicted = run(&handle, &requests, 2, false).predicted;
        let charged2_predicted = run(&handle, &requests, 2, true).predicted;
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
    let mut paths: Vec<(u32, u32, Vec<u32>)> = Vec::new();
    let (results, _) = nocache_dispatch(handle, requests, cus, true, |job, path| {
        let req = requests[job];
        paths.push((req.s.0, req.t.0, path.iter().map(|v| v.0).collect()));
        ControlFlow::Continue(())
    });
    paths.sort();
    let counts = results.iter().map(|r| r.num_paths).collect();
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
