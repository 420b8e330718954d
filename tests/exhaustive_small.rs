//! Every answer on every small graph: all 4 096 labeled digraphs on four
//! vertices (no self-loops), queried at `(s, t)` ∈ {(0,1), (1,0), (0,0)} and
//! `k` = 1..3, against the naive DFS oracle.
//!
//! PEFP is only correct if Batch-DFS windows (Θ2), buffer spills and DRAM
//! refills (Θ1) never lose or duplicate a path. At the default capacities a
//! 4-vertex query never fills a window, so every variant also runs at three
//! tiny `(processing_capacity, buffer_capacity, dram_fetch_batch)` triples
//! that split every successor list across batches, spill on nearly every
//! expansion and refill one or two paths at a time. JOIN and BC-DFS answer
//! the same queries, both directly and as the host runtime's CPU routes. A
//! run's paths are sorted but not deduplicated before the comparison, so a
//! duplicated path fails like a lost one.
//!
//! One `#[test]` per engine, so the harness runs them in parallel.

use std::fmt;

use pefp::baselines::{bc_dfs_enumerate, naive_dfs_enumerate, Join};
use pefp::core::{EngineOptions, PefpVariant, RoutingTable};
use pefp::fpga::DeviceConfig;
use pefp::graph::paths::canonicalize;
use pefp::graph::{CsrGraph, GraphDelta, GraphSnapshot, Path, VertexId};
use pefp::host::{GraphHandle, HostRuntime, JobTicket, QueryOutcome, QueryRequest, RuntimeConfig};

#[path = "support/pefp_run.rs"]
mod pefp_run;
use pefp_run::{prepare_fresh, run_collect};

const N: u32 = 4;

/// `(processing_capacity Θ2, buffer_capacity, dram_fetch_batch Θ1)`.
const TINY_AREAS: [(u32, usize, usize); 3] = [(1, 1, 1), (2, 3, 1), (1, 2, 2)];

const ENDPOINTS: [(u32, u32); 3] = [(0, 1), (1, 0), (0, 0)];

/// The twelve possible edges of a loop-free digraph on [`N`] vertices; bit
/// `i` of a graph's mask selects the `i`-th.
fn all_edges() -> Vec<(u32, u32)> {
    (0..N).flat_map(|u| (0..N).filter(move |&v| v != u).map(move |v| (u, v))).collect()
}

fn edges_of(mask: u32) -> Vec<(u32, u32)> {
    all_edges()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| mask >> i & 1 == 1)
        .map(|(_, e)| e)
        .collect()
}

/// One query of the sweep; it prints as its graph's edge list and the query.
#[derive(Debug, Clone, Copy)]
struct Case {
    mask: u32,
    s: VertexId,
    t: VertexId,
    k: u32,
}

impl fmt::Display for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Case { mask, s, t, k } = *self;
        write!(f, "graph {mask:#05x} {:?}, ({s},{t},k={k})", edges_of(mask))
    }
}

/// Calls `check` on every query of the sweep with its graph and the oracle's
/// canonical answer. Graphs come in Gray-code order, so consecutive masks
/// differ in one edge.
fn for_every_query(mut check: impl FnMut(Case, &GraphSnapshot, &[Path])) {
    for step in 0u32..1 << all_edges().len() {
        let mask = step ^ step >> 1;
        let g = GraphSnapshot::from_csr(CsrGraph::from_edges(N as usize, &edges_of(mask)));
        for (s, t) in ENDPOINTS {
            for k in 1..=3 {
                let (s, t) = (VertexId(s), VertexId(t));
                let expected = canonicalize(naive_dfs_enumerate(g.base(), s, t, k));
                check(Case { mask, s, t, k }, &g, &expected);
            }
        }
    }
}

/// `paths` sorted but not deduplicated.
fn sorted(mut paths: Vec<Path>) -> Vec<Path> {
    paths.sort();
    paths
}

/// `variant` at every tiny capacity triple matches the oracle on every query
/// without a batch holding more than Θ2 expansions on average, and the sweep
/// did spill paths to DRAM.
fn variant_matches_the_oracle(variant: PefpVariant) {
    let device = DeviceConfig::alveo_u200();
    let mut most_spilled = 0;
    for_every_query(|case, g, expected| {
        let prep = prepare_fresh(g, case.s, case.t, case.k, variant);
        for (theta2, buffer, theta1) in TINY_AREAS {
            let opts = EngineOptions {
                processing_capacity: theta2,
                buffer_capacity: buffer,
                dram_fetch_batch: theta1,
                ..variant.engine_options()
            };
            let (result, paths) = run_collect(&prep, opts, &device);
            let name = variant.name();
            let at = (theta2, buffer, theta1);
            assert_eq!(result.num_paths, paths.len() as u64, "{name} at {at:?} on {case}");
            assert_eq!(sorted(paths), expected, "{name} at {at:?} on {case}");
            let stats = &result.stats;
            assert!(
                stats.expansions <= stats.batches * u64::from(theta2),
                "{name} at {at:?} on {case}: {} expansions in {} batches overfill Θ2",
                stats.expansions,
                stats.batches
            );
            most_spilled = most_spilled.max(stats.peak_dram_paths);
        }
    });
    assert!(most_spilled > 0, "{} never spilled a path to DRAM", variant.name());
}

#[test]
fn full_pefp_matches_the_oracle_on_every_4_vertex_graph() {
    variant_matches_the_oracle(PefpVariant::Full);
}

#[test]
fn no_pre_bfs_matches_the_oracle_on_every_4_vertex_graph() {
    variant_matches_the_oracle(PefpVariant::NoPreBfs);
}

#[test]
fn no_batch_dfs_matches_the_oracle_on_every_4_vertex_graph() {
    variant_matches_the_oracle(PefpVariant::NoBatchDfs);
}

#[test]
fn no_cache_matches_the_oracle_on_every_4_vertex_graph() {
    variant_matches_the_oracle(PefpVariant::NoCache);
}

#[test]
fn no_data_sep_matches_the_oracle_on_every_4_vertex_graph() {
    variant_matches_the_oracle(PefpVariant::NoDataSep);
}

#[test]
fn join_matches_the_oracle_on_every_4_vertex_graph() {
    for_every_query(|case, g, expected| {
        let got = sorted(Join::new().enumerate(g.base(), case.s, case.t, case.k));
        assert_eq!(got, expected, "JOIN on {case}");
    });
}

#[test]
fn bc_dfs_matches_the_oracle_on_every_4_vertex_graph() {
    for_every_query(|case, g, expected| {
        let got = sorted(bc_dfs_enumerate(g.base(), case.s, case.t, case.k));
        assert_eq!(got, expected, "BC-DFS on {case}");
    });
}

/// A submitted runtime query with the answer it must come back with.
type Pending = (Case, JobTicket<QueryOutcome>, Vec<Path>);

/// The host runtime with `table` routing every query to one CPU engine
/// answers every query of the sweep, `s == t` included (with the one path
/// `[s]`, like the oracle). Each feasible query runs on `lane`; one that Pre-BFS proved empty is
/// completed on the `bc_dfs` lane. The runtime reaches each graph from the
/// previous one through `apply_updates`, so the answers also come through
/// its copy-on-write snapshot overlay and its touched-vertex cache
/// invalidation. A step that inserts an edge removes it in the same batch
/// first (a batch applies removals before inserts, so the edge ends up
/// present). A graph's queries are all submitted before the first is
/// awaited, so the hand-off to the worker thread is paid once per graph.
fn runtime_route_matches_the_oracle(table: RoutingTable, lane: &str) {
    let edges = all_edges();
    let runtime = HostRuntime::launch(
        GraphHandle::from_csr("empty", CsrGraph::empty(N as usize)),
        RuntimeConfig { routing: Some(table), cpu_workers: 1, ..RuntimeConfig::default() },
    );
    let session = runtime.register_session();
    let settle = |pending: &mut Vec<Pending>| {
        for (case, ticket, expected) in pending.drain(..) {
            let outcome = ticket.wait().expect("a valid query is answered");
            assert_eq!(sorted(outcome.paths), expected, "{lane} route on {case}");
        }
    };
    let mut pending = Vec::new();
    let mut live = 0u32;
    let (mut answered, mut on_lane) = (0u64, 0u64);
    for_every_query(|case, g, expected| {
        let Case { mask, s, t, k } = case;
        if mask != live {
            settle(&mut pending);
            let mut delta = GraphDelta::new();
            for (i, &(u, v)) in
                edges.iter().enumerate().filter(|(i, _)| (mask ^ live) >> i & 1 == 1)
            {
                delta.remove_edge(VertexId(u), VertexId(v));
                if mask >> i & 1 == 1 {
                    delta.insert_edge(VertexId(u), VertexId(v));
                }
            }
            runtime.apply_updates(&delta);
            live = mask;
        }
        let ticket = runtime
            .submit_query(session, QueryRequest { s, t, k }, true)
            .expect("the queue has room for one graph's queries");
        pending.push((case, ticket, expected.to_vec()));
        answered += 1;
        if lane == "bc_dfs" || prepare_fresh(g, s, t, k, PefpVariant::Full).feasible {
            on_lane += 1;
        }
    });
    settle(&mut pending);
    let stats = runtime.stats();
    let jobs = |name: &str| stats.engines.iter().find(|e| e.engine == name).map_or(0, |e| e.jobs);
    assert_eq!(jobs("bc_dfs") + jobs("join"), answered, "every query ran on a CPU route");
    assert_eq!(jobs(lane), on_lane, "every feasible query ran on {lane}");
}

/// A table under which the router picks a CPU engine for every query, and
/// of the two always the one whose fixed cost is not `1e12`.
fn cpu_only(table: RoutingTable) -> RoutingTable {
    RoutingTable { device_fixed_us: 1e9, cpu_work_ceiling: 1e18, ..table }
}

#[test]
fn runtime_bc_dfs_route_matches_the_oracle_on_every_4_vertex_graph() {
    let table = cpu_only(RoutingTable { join_fixed_us: 1e12, ..RoutingTable::builtin() });
    runtime_route_matches_the_oracle(table, "bc_dfs");
}

#[test]
fn runtime_join_route_matches_the_oracle_on_every_4_vertex_graph() {
    let table = cpu_only(RoutingTable { bcdfs_fixed_us: 1e12, ..RoutingTable::builtin() });
    runtime_route_matches_the_oracle(table, "join");
}
